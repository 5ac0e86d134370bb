"""Drivers that assemble verified realizations for the proven classes.

Every answer is made in one place, _answer: it checks admissibility,
asks a driver for one trace step, and applies the search policy.  A
driver step is (name, params, certificate or None).  A certificate is
a solved answer.  A refusal names either the external-theorem region,
which the theory cites from earlier work and which is always handled by
search and flagged as such in the trace, or out_of_proven_range, which
is searched only when fallback is requested.  The search is
search.find: local_search, then brute_force under brute_cap.

solve() takes its driver from one table, _DRIVERS, by the underlying
set U.  A row is data: a tuple of seed-table ids, replayed in order; a
string, the external-theorem region it cites; {a: row}, a choice by
the number a of 1s that cites region A for any other a; or a _Swap.
Both swap rows share one range, a >= x - 2 and b >= 5x - 2 + c/2 for
even c; only {1,3,6}'s g-seeds reach odd c, for b >= 18 + (c - 1)/2.
Every row that grows seeds runs one engine, _grow_first, over (trace
label, Certificate) pairs with a plan.  Both plans end in the
per-length grow solver _grows: _schedule_for runs it over every length
in ascending order, _swaps_for over x and 1 after the x/2x swaps the 2x
deficit fixes.  An l-grow adds l copies of l, so a replay seed fits only
targets whose count of each length l is its own mod l: _residues indexes
a row's seeds by that residue vector over U, and the replay runs
_grow_first over the target's class alone.

  {1,2,3}, {1,4,5}, {2,3,4}  replay over the row's seed tables
  {1,3,4}, {1,2,3,4}         by a: replay when a = 1, or a = 2 over
                             {1,3,4}; else cited
  {1,2,4}, |U| <= 2          cited
  {1,3,6}                    swaps from the u136 g-seeds
  {1,x,2x}, x >= 4           swaps from the residue seed for b + c
  any other U                out_of_proven_range: no driver

_route is the one reader of the table; it keys |U| <= 2 and every
{1,x,2x} by rule.  _swap is the swap rows' one step: _route runs it
with x = U[1], and solve_136 and solve_1x2x with their own x, even with
no 2x's, where solve() sees a set of size 2 and cites the region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .core import (
    Admissibility,
    Certificate,
    LengthMultiset,
    MultisetError,
    NotGrowableError,
    is_admissible,
    plain_trace,
)
from .families import seed_for_residue
from .growth import _Chain
from .search import DEFAULT_BRUTE_CAP, find
from . import seeds as seed_tables

Trace = tuple[tuple[str, dict], ...]
# a driver's one trace step: (name, params, certificate or None)
Step = tuple[str, dict, Certificate | None]
_EXTERNAL = "external-theorem region"
_OUT_OF_RANGE = "out_of_proven_range"


@dataclass(frozen=True, slots=True)
class SolveOutcome:
    """Result of a solve: a status, a certificate when solved, and the
    decisions taken along the way."""

    status: str  # solved | not_admissible | out_of_proven_range
    #             | search_fallback
    certificate: Certificate | None = None
    admissibility: Admissibility | None = None
    trace: Trace = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.certificate is not None

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "status": self.status,
            "certificate": (
                self.certificate.to_dict() if self.certificate else None
            ),
            "admissibility": (
                self.admissibility.describe() if self.admissibility else None
            ),
            "trace": plain_trace(self.trace),
        }


def _answer(
    ms: LengthMultiset, driver, fallback=False, cfg=None,
    brute_cap=DEFAULT_BRUTE_CAP,
) -> SolveOutcome:
    """The outcome for ms: not_admissible, else driver(ms)'s step under
    the search policy of the module docstring."""
    adm = is_admissible(ms)
    if not adm.ok:
        return SolveOutcome(
            "not_admissible",
            admissibility=adm,
            trace=(("not_admissible", {"why": adm.describe()}),),
        )
    name, params, cert = driver(ms)
    trace = ((name, params),)
    if cert is not None:
        return SolveOutcome("solved", certificate=cert, trace=trace)
    if name == _OUT_OF_RANGE and not fallback:
        return SolveOutcome(_OUT_OF_RANGE, trace=trace)
    cert = find(ms, cfg, brute_cap)
    return SolveOutcome(
        "search_fallback",
        certificate=cert,
        trace=trace + (("search", {"found": cert is not None}),),
    )


def _grows(seed: Certificate, have, target, lengths):
    """The grows taking the counts have to target: for each length l in
    order, (l, n) with n = (target - have)/l grows at the seed's
    l-point; or None when a deficit is negative, is not a multiple of
    l, or needs a point the seed lacks."""
    points = {gp.x for gp in seed.grow_points}
    grows = []
    for l in lengths:
        n, r = divmod(target.get(l, 0) - have.get(l, 0), l)
        if n < 0 or r or (n and l not in points):
            return None
        grows.append((l, n))
    return grows


def _schedule_for(seed: Certificate, target: dict[int, int]):
    """The replay plan: _grows over every length in ascending order."""
    have = seed.multiset.counts()
    grows = _grows(seed, have, target, sorted(set(have) | set(target)))
    if grows is None:
        return None
    sched = [(l, n) for l, n in grows if n]
    return "replay", {"schedule": sched}, (), sched


def _swaps_for(seed: Certificate, target: dict[int, int], x: int):
    """The swap plan: one partial swap of i runs, every full swap in one
    k-fold step, then _grows over (x, 1); or None.  A swap of i runs
    adds 2i 2x's and 3x - 2i x's, so the 2x deficit alone fixes i and
    the number of full swaps."""
    have = seed.multiset.counts()
    full, r = divmod(target.get(2 * x, 0) - have.get(2 * x, 0), 2 * x)
    if full < 0 or r % 2:
        return None
    i = r // 2
    have[x] = have.get(x, 0) + (3 * x - 2 * i if i else 0) + x * full
    grows = _grows(seed, have, target, (x, 1))
    if grows is None:
        return None
    (_, x_grows), (_, one_grows) = grows
    swaps = [(x, i, 1)] * (i > 0) + [(x, x, full)] * (full > 0)
    params = dict(i=i, full_swaps=full, x_grows=x_grows, one_grows=one_grows)
    return "swap-pipeline", params, swaps, grows


def _grow_first(seeds, plan, miss=None) -> Step:
    """Grow the first of the (label, seed) pairs that plan fits: plan(seed)
    gives the step name, its params, the swaps (x, i, k) and the grows
    (x, count), or None.  A plan with no swaps and no grows answers with
    the seed itself; any other runs on one chain, checked by one
    Certificate, and a seed whose chain raises NotGrowableError is
    skipped.  When none works the step is out of range for miss; a
    replay row passes no miss and names the first fitting seed that
    broke, if one did.  A replay passes only the target's residue class
    of its row's seeds (_residues): every other seed fails its plan, so
    the first fit, the seed that broke and the miss are the same as over
    the whole row."""
    broke = None
    for label, seed in seeds:
        fit = plan(seed)
        if fit is None:
            continue
        name, params, swaps, grows = fit
        if not swaps and not any(n for _, n in grows):
            return name, {**label, **params}, seed
        chain = _Chain(seed)
        try:
            for x, i, k in swaps:
                chain.swap(x, i, k)
            chain.multi_grow(grows)
            cert = chain.certify(name)
        except NotGrowableError:
            broke = broke or label
            continue
        return name, {**label, **params}, cert
    if miss is None:
        miss = "no subsuming seed"
        if broke:
            miss = f"fixed schedule broke on {' '.join(broke.values())}"
    return _OUT_OF_RANGE, {"why": miss}, None


@cache
def _seeds(table_ids: tuple[str, ...]) -> tuple:
    """The seed source of a row: each entry of the tables, in table
    order, paired with its own seed step {table, variant} as its trace
    label.  A table is parsed the first time a row needs it."""
    return tuple(
        (entry.certificate.trace[0][1], entry.certificate)
        for tid in table_ids
        for entry in seed_tables.table(tid)
    )


@cache
def _residues(table_ids: tuple[str, ...], u: tuple[int, ...]) -> dict:
    """A replay row's seeds for targets over U, by residue class: the
    vector (count of l mod l for l in U) -> that class's (label, seed)
    pairs in table order.  An l-grow adds l copies of l, so a seed can
    only replay to a target of its own class; a seed with a length
    outside U is left out, since its deficit there is negative."""
    index: dict[tuple[int, ...], list] = {}
    for label, seed in _seeds(table_ids):
        have = seed.multiset.counts()
        if have.keys() <= set(u):
            key = tuple(have.get(l, 0) % l for l in u)
            index.setdefault(key, []).append((label, seed))
    return {key: tuple(pairs) for key, pairs in index.items()}


@dataclass(frozen=True, slots=True)
class _Swap:
    """A swap row of _DRIVERS: its seed tables, or () for the residue
    seed for (b + c) mod x; its bound on b at c = 1, or None when odd c
    is out of range; and its miss text."""

    tables: tuple[str, ...]
    odd: int | None
    miss: str


def _swap(ms, x: int, row: _Swap) -> Step:
    """A swap row's step on {1^a, x^b, (2x)^c}, in range when a >= x - 2
    and b >= 5x - 2 + c/2 for even c, row.odd + (c - 1)/2 for odd c."""
    a, b, c = (ms.multiplicity(l) for l in (1, x, 2 * x))
    bound = row.odd + c // 2 if c % 2 and row.odd else 5 * x - 2 + c // 2
    if a < x - 2 or b < bound or c % 2 and not row.odd:
        why = f"need a >= {x - 2}" + (" and" if row.odd else ", even c,")
        return _OUT_OF_RANGE, {"why": f"{why} b >= {bound}"}, None
    if row.tables:
        seeds = (({"seed": t["variant"]}, s) for t, s in _seeds(row.tables))
    else:
        # a swap of i runs takes 2i from b mod x and adds 2i 2x's, so only
        # the seed for (b + c) mod x can reach b
        seed = seed_for_residue(x, (b + c) % x)
        seeds = (({"seed_b": seed.multiset.multiplicity(x)}, seed),)
    target = ms.counts()
    return _grow_first(seeds, lambda s: _swaps_for(s, target, x), row.miss)


def solve_136(a: int, b: int, c: int) -> SolveOutcome:
    """{1^a, 3^b, 6^c} by the {1,3,6} swap row: proven for a >= 1 and
    b >= 13 + c/2 (even c) or b >= 18 + (c - 1)/2 (odd c)."""
    ms = LengthMultiset.from_counts({1: a, 3: b, 6: c})
    return _answer(ms, lambda ms: _swap(ms, 3, _DRIVERS[1, 3, 6]))


def solve_1x2x(a: int, b: int, c: int, x: int) -> SolveOutcome:
    """{1^a, x^b, (2x)^c} for x >= 4 by the {1,x,2x} swap row: proven
    for a >= x - 2, even c and b >= 5x - 2 + c/2."""
    if x < 4:
        raise ValueError("solve_1x2x needs x >= 4")
    ms = LengthMultiset.from_counts({1: a, x: b, 2 * x: c})
    return _answer(ms, lambda ms: _swap(ms, x, _DRIVERS["{1,x,2x}"]))


_REGION_A = "a >= 3 or (a = 2, b >= 1) region"
_U1234_A1 = ("u134", "u1234-beven", "u1234-bodd", "supplement", "stable")
_DRIVERS = {
    (1, 2, 3): ("u123-main", "u123-1g", "supplement", "stable"),
    (1, 4, 5): (
        "u145-a2", "u145-a3", "u145-a1", "u145-4g", "inproof", "supplement"
    ),
    (1, 2, 4): "no 3's: subset of {1,2,4}",
    (2, 3, 4): ("u234-bodd", "u234-beven", "inproof", "supplement"),
    (1, 3, 4): {1: _U1234_A1, 2: ("u1234-a2", "inproof", "supplement")},
    (1, 2, 3, 4): {1: _U1234_A1},
    (1, 3, 6): _Swap(("u136",), 18, "no g-seed fits"),
    "{1,x,2x}": _Swap((), None, "seed multiplicities not subsumed"),
    "|U| <= 2": "underlying set of size <= 2",
}


def hr_bound(ms) -> int:
    """Realizability threshold for multisets over lengths >= 2: any
    multiset with underlying set U and size at least the bound is
    realizable.  The bound is 3 * max(U) - 5 + sum(U), independent of
    multiplicities."""
    if not isinstance(ms, LengthMultiset):
        ms = LengthMultiset.from_lengths(ms)
    underlying = ms.underlying_set
    if not underlying:
        raise MultisetError("empty underlying set")
    if 1 in underlying:
        raise MultisetError("bound requires every length >= 2")
    return 3 * max(underlying) - 5 + sum(underlying)


def solve(
    ms: LengthMultiset, fallback=False, cfg=None, brute_cap=DEFAULT_BRUTE_CAP
) -> SolveOutcome:
    """Check admissibility, then dispatch on ms's underlying set.

    fallback searches out_of_proven_range targets too; cfg is the
    local_search budget, brute_cap the largest order brute_force takes."""
    return _answer(ms, _route, fallback, cfg, brute_cap)


def _route(ms) -> Step:
    """The step of ms's row of _DRIVERS, the one reader of the table."""
    u = tuple(sorted(ms.underlying_set))
    key = u if len(u) > 2 else "|U| <= 2"
    if len(u) > 2 and u[1] >= 4 and u == (1, u[1], 2 * u[1]):
        key = "{1,x,2x}"
    if key not in _DRIVERS:
        return _OUT_OF_RANGE, {"why": f"no driver for U = {list(u)}"}, None
    row = _DRIVERS[key]
    if isinstance(row, dict):
        row = row.get(ms.multiplicity(1), _REGION_A)
    if isinstance(row, str):
        return _EXTERNAL, {"why": row}, None
    if isinstance(row, _Swap):
        return _swap(ms, u[1], row)
    target = ms.counts()
    bucket = _residues(row, u).get(tuple(target[l] % l for l in u), ())
    return _grow_first(bucket, lambda s: _schedule_for(s, target))
