"""Heuristic and exhaustive search for realizations, plus small-order
conjecture sweeps.

local_search hill-climbs on the overlap between the target multiset and
the multiset realized by a candidate path, moving through a 2-opt-style
neighborhood: cut one path edge and reconnect the two fragments another
way.  brute_force is a depth-first oracle with remaining-length pruning;
it is exhaustive, so a None return is a definitive nonexistence verdict.
find is the one search step of solve() and sweep: local_search, then
brute_force up to the cap, the one bound on exhaustive search.  Both
build their answers with core.certificate.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations, compress

from .core import (
    Certificate,
    HamPath,
    LengthMultiset,
    MultisetError,
    certificate,
    cyclic_lengths,
    divisor_obstruction,
    divisor_table,
    is_admissible,
)

DEFAULT_BRUTE_CAP = 14
# the CLI's limit on `sweep --definitive`; criterion 6's necessity bound
DEFAULT_DEFINITIVE_CAP = 12


@dataclass(frozen=True)
class SearchConfig:
    """Budget and determinism knobs for the heuristic search.
    max_steps_per_restart is a stagnation budget, not a step cap: it
    counts consecutive steps without a strict gain, reset by each gain."""

    rng_seed: int = 0
    max_restarts: int = 200
    max_steps_per_restart: int = 2000

    def __post_init__(self):
        # the seed string is f"{rng_seed}:{r}", so 1, 1.0 and True would
        # compare equal as configs but seed different searches
        for name in ("rng_seed", "max_restarts", "max_steps_per_restart"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 1 and name != "rng_seed":
                raise ValueError(f"{name} must be positive")


def _reconnect(vertices: list[int], i: int, which: int) -> list[int]:
    """Reconnection `which` after cutting the edge at position i.

    Cutting between positions i and i+1 leaves fragments A and B; the
    candidates are A + reversed(B), reversed(A) + B and B + A, each of
    which replaces exactly the cut edge with one new edge: from
    vertices[i] to vertices[-1], from vertices[0] to vertices[i + 1],
    and from vertices[-1] to vertices[0] respectively."""
    a, b = vertices[: i + 1], vertices[i + 1 :]
    if which == 0:
        return a + b[::-1]
    if which == 1:
        return a[::-1] + b
    return b + a


def local_search(
    ms: LengthMultiset, cfg: SearchConfig | None = None
) -> Certificate | None:
    """Randomized hill climb for a realization of ms.

    Each step cuts a random edge and takes the best of the three
    reconnections by score (overlap with ms), then by the smaller
    length gained, which orders candidates exactly as the smaller
    vector of per-length deficits would, then by the RNG.

    Deterministic for a fixed SearchConfig: restart r draws from
    random.Random(f"{rng_seed}:{r}"), and restarts are merged in index
    order, so the answer does not depend on scheduling.  A restart
    draws one shuffle; each step then draws one randrange(v - 1) for
    the cut and three random() for the tie-breaks of the reconnections
    A + reversed(B), reversed(A) + B and B + A, in that order, and
    keeps the first of equal keys.  The target and current counts are
    lists indexed by length 0..v//2, built after the admissibility
    check refuses longer lengths.  A step's length is d if d <= v//2
    else v - d, unchecked on the search's own permutation of range(v);
    the final Certificate check guards the returned path.  Returns a
    verified Certificate, or None when the budget is spent.
    """
    cfg = cfg or SearchConfig()
    adm = is_admissible(ms)
    if not adm.ok:
        raise MultisetError(f"not admissible: {adm.describe()}")
    v = ms.v
    half = v // 2
    target = [0] * (half + 1)
    for l, c in ms.items:
        target[l] = c
    full = ms.size
    patience = cfg.max_steps_per_restart
    for restart in range(cfg.max_restarts):
        rng = random.Random(f"{cfg.rng_seed}:{restart}")
        randrange, rand = rng.randrange, rng.random
        current = list(range(v))
        rng.shuffle(current)
        counts = [0] * (half + 1)
        for l, c in cyclic_lengths(HamPath.of(current)).items:
            counts[l] = c
        score = sum(map(min, target, counts))
        stagnant = 0
        steps = 0
        while score < full and stagnant < patience:
            steps += 1
            i = randrange(v - 1)
            x, y = current[i], current[i + 1]
            first, last = current[0], current[-1]
            d = x - y if x > y else y - x
            removed = d if d <= half else v - d
            # each reconnection replaces only the cut edge, so its score
            # is an O(1) delta from the current one; all three share the
            # cut edge, so at equal score the deficit vectors differ only
            # where a length is gained: the smaller gained length has the
            # smaller vector
            base = score - (counts[removed] <= target[removed])
            # reconnection 0 adds the edge x -- last
            d = x - last if x > last else last - x
            added = d if d <= half else v - d
            gain = counts[added] - (added == removed) < target[added]
            best = (-(base + gain), added if gain else 0, rand())
            which, best_added = 0, added
            # reconnection 1 adds the edge first -- y
            d = first - y if first > y else y - first
            added = d if d <= half else v - d
            gain = counts[added] - (added == removed) < target[added]
            key = (-(base + gain), added if gain else 0, rand())
            if key < best:
                best, which, best_added = key, 1, added
            # reconnection 2 adds the edge last -- first
            d = last - first if last > first else first - last
            added = d if d <= half else v - d
            gain = counts[added] - (added == removed) < target[added]
            key = (-(base + gain), added if gain else 0, rand())
            if key < best:
                best, which, best_added = key, 2, added
            c_score = -best[0]
            if c_score >= score:
                stagnant = stagnant + 1 if c_score == score else 0
                current = _reconnect(current, i, which)
                counts[removed] -= 1
                counts[best_added] += 1
                score = c_score
            else:
                stagnant += 1
        if score == full:
            params = dict(seed=cfg.rng_seed, restart=restart, steps=steps)
            return certificate(current, ms, (), [("local_search", params)])
    return None


def brute_force(
    ms: LengthMultiset, cap: int = DEFAULT_BRUTE_CAP
) -> Certificate | None:
    """Exhaustive depth-first search for a realization of ms.

    Runs on an explicit stack, one iterator per depth over the vertices
    in ascending order.  Breaks the reversal symmetry by keeping only
    paths with first vertex smaller than last, so the path found is the
    lexicographically least realization with that property.  Prunes by
    the remaining count of each length, held in a list indexed by
    length; a length above v/2 is never the length of an edge, so it
    gets no slot and its copies can never be spent.  Translation
    classes are not quotiented yet, although y -> y+t and y -> -y
    (mod v) keep every length.  Lengths in the search are computed
    without range checks on its own distinct vertices in range(v); the
    final Certificate check is what guards a found path.  Returns a
    Certificate, or None -- and None is definitive: ms has no
    realization.  Does not require admissibility, so it also serves as
    the necessity-direction oracle.  Raises ValueError for an order
    above cap (DEFAULT_BRUTE_CAP unless given), its only refusal: the
    depth of the search is not bounded by the interpreter's recursion
    limit.
    """
    v = ms.v
    if v > cap:
        raise ValueError(f"v={v} exceeds brute-force cap {cap}")
    half = v // 2
    remaining = [0] * (half + 1)
    for l, c in ms.items:
        if l <= half:
            remaining[l] = c
    path: list[int] = []
    spent: list[int] = []  # the length of each edge of path, in order
    used = [False] * v
    tries = [iter(range(v))]  # the vertices still to try at each depth
    while tries:
        for w in tries[-1]:
            if used[w]:
                continue
            if path:
                d = abs(path[-1] - w)
                l = min(d, v - d)
                if not remaining[l]:
                    continue
                remaining[l] -= 1
                spent.append(l)
            used[w] = True
            path.append(w)
            break
        else:
            # every vertex tried at this depth: take back the last step
            tries.pop()
            if path:
                used[path.pop()] = False
            if spent:
                remaining[spent.pop()] += 1
            continue
        # a 1-vertex path is its own reversal
        if len(path) == v and (v == 1 or path[0] < path[-1]):
            return certificate(path, ms, (), [("brute_force", {"v": v})])
        # a full path leaves no vertex to try, so it steps back next
        tries.append(iter(range(v)))
    return None


def find(
    ms: LengthMultiset,
    cfg: SearchConfig | None = None,
    cap: int = DEFAULT_BRUTE_CAP,
) -> Certificate | None:
    """local_search, then brute_force when ms.v is within cap.  None
    after brute_force ran is definitive: ms has no realization."""
    cert = local_search(ms, cfg)
    if cert is None and ms.v <= cap:
        cert = brute_force(ms, cap=cap)
    return cert


def enumerate_admissible(v: int, lengths=None):
    """All admissible multisets of size v-1 over the given lengths
    (default 1..v//2), in lexicographic order of their count vectors:
    the count of the smallest length first, each count ascending.

    The optional restriction keeps enumeration tractable when only a
    particular underlying-set family is of interest.  The divisor rule
    lives in core: one divisor_table per call, tested on each count
    vector with divisor_obstruction, as is_admissible does; a multiset
    is built only for a vector that passes."""
    if v < 2:
        raise ValueError("v must be at least 2")
    allowed = (
        list(range(1, v // 2 + 1))
        if lengths is None
        else sorted({l for l in lengths if 1 <= l <= v // 2})
    )
    if not allowed:
        return
    table = divisor_table(v, allowed)
    # stars and bars: the n - 1 bars among v + n - 2 slots split v - 1
    # into n counts, and combinations() walks the bars in the counts'
    # lexicographic order
    n = len(allowed)
    slots = v + n - 2
    for bars in combinations(range(slots), n - 1):
        vec = [b - a - 1 for a, b in zip((-1, *bars), (*bars, slots))]
        if divisor_obstruction(table, vec) is None:
            yield LengthMultiset(tuple(compress(zip(allowed, vec), vec)))


def sweep(
    v_max: int,
    cfg: SearchConfig | None = None,
    brute_cap: int = DEFAULT_BRUTE_CAP,
) -> list[dict]:
    """Try to realize every admissible multiset of order up to v_max.

    Runs find on each under brute_cap, so an order within the cap is
    definitive: each multiset there is realized or unrealizable, and
    only orders above it count unknown ones.  Returns one report dict
    per order: {v, admissible_count, realized, unrealizable, unknown,
    seconds}, seconds being the order's wall time.
    """
    if v_max < 2:
        raise ValueError("v_max must be at least 2")
    reports = []
    for v in range(2, v_max + 1):
        start = time.perf_counter()
        row = dict(
            v=v, admissible_count=0, realized=0, unrealizable=0, unknown=0
        )
        # within the cap, find's None is definitive
        miss = "unrealizable" if v <= brute_cap else "unknown"
        for ms in enumerate_admissible(v):
            row["admissible_count"] += 1
            found = find(ms, cfg, brute_cap) is not None
            row["realized" if found else miss] += 1
        row["seconds"] = time.perf_counter() - start
        reports.append(row)
    return reports
