"""The growth calculus: the grow step, iterated growth and splices.

Operations work on raw vertex lists and build the result path in one
pass.  Growing k times at one point (x, m) turns every window endpoint w
into the arithmetic run w, w+x, ..., w+kx, so a k-fold grow costs
O(v + kx), not k rebuilds of the path.  _grown_vertices is the one run
builder, and _Chain.step hands it runs to insert in place of the
arithmetic ones.  _Chain.perfect makes them from x perfect parts: those
of perf_grow, those of k x/2x swaps, or splice_perfect's one part at
x = 1.  even_grow hands _Chain.step its alternating runs itself.  So
each operation is one pass, however many swaps or grows it stands for.

Growability is evaluated once per step for its own point:
_grown_vertices asks core.window_endpoints, which both decides that
(x, m) is a grow point and names each lengthened pair's window endpoint.

Grow-point bookkeeping: a known point (x', m') stays at m' if m' <= m
and moves up by the number of inserted labels otherwise.  Steps run on
an uncertified _Chain, plain data that relocates the points without
checking them and adds to a count map and a trace list; a later step
that grows at one of the points checks it then, in window_endpoints,
and a step that finds no tracked point for its x raises.  Each
operation is one chain step, multi_grow runs its whole schedule on one
chain, and so does each answer the solvers grow.  A chain ends in one
Certificate, built with the answer's one multiset and trace tuple: it
verifies the final path, checks each relocated point once as a carried
point, keeping those that hold and dropping those that fail, raises if
a point the operation declares itself fails, and sorts the points by
(x, m).  A successful return is thus a proof that the chain is sound.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass

from .core import (
    Certificate,
    GrowPoint,
    HamPath,
    LengthMultiset,
    NotGrowableError,
    PathError,
    alternating_runs,
    embed,
    growth_points,
    is_perfect,
    trace_params,
    window_endpoints,
)


@dataclass(frozen=True)
class GrowthSchedule:
    """Ordered (x, count) steps; step i applies count grows with that x.
    Both are ints, x >= 1 and count >= 0, else ValueError."""

    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for x, count in self.steps:
            if {type(x), type(count)} != {int} or x < 1 or count < 0:
                raise ValueError(f"bad schedule step ({x}, {count})")

    @classmethod
    def parse(cls, text: str) -> "GrowthSchedule":
        """Parse "2*4 3*3" as four 2-grows then three 3-grows: one or
        more tokens, each x or x*count in digits."""
        steps = []
        tokens = text.split()
        if not tokens:
            raise ValueError("empty schedule")
        for tok in tokens:
            match = re.fullmatch(r"([0-9]+)(?:\*([0-9]+))?", tok)
            if not match:
                raise ValueError(f"bad schedule token {tok!r}")
            x, count = match.groups()
            steps.append((int(x), int(count) if count else 1))
        return cls(tuple(steps))


def _grown_vertices(
    path: HamPath, x: int, m: int, k: int, runs=None
) -> list[int]:
    """Vertex list of k grows at (x, m), built in one pass.

    window_endpoints checks that (x, m) is a grow point and, in the same
    pass, gives each lengthened pair (a, b) its one window endpoint w;
    this is the operation's only growability check of (x, m).  Growing
    once inserts w + x next to w; growing again at m lengthens the new
    edge (w, w + x) and inserts w + x next to w once more, pushing the
    earlier label out to w + 2x.  So k grows insert the run
    w + x, ..., w + kx between the pair's endpoints, ordered outward
    from w, and shift every label above m by kx.

    runs maps a window label w to the run to insert instead, also
    ordered outward from w; it excludes w and ends at w + kx, so the
    pair's far edge keeps its length.  Nothing checks here that the
    runs jointly use each new label once, nor the other grow points:
    the chain's Certificate checks the final path, and drops the
    relocated points that no longer hold.
    """
    if k < 0:
        raise ValueError(f"grow count k={k} must be nonnegative")
    ends = window_endpoints(path, x, m)
    if ends is None:
        raise NotGrowableError(f"path is not {x}-growable at {m}")
    shift = k * x
    outward = {
        w: range(w + x, w + shift + 1, x) for w in range(m - x + 1, m + 1)
    }
    if runs:
        outward.update(runs)
    inserted = {
        pair: outward[w] if w == pair[0] else outward[w][::-1]
        for pair, w in ends.items()
    }
    vs = path.vertices
    out = [vs[0] if vs[0] <= m else vs[0] + shift]
    for pair in path.pairs():
        run = inserted.get(pair)
        if run is not None:
            out.extend(run)
        b = pair[1]
        out.append(b if b <= m else b + shift)
    return out


def _relocated(points, m: int, shift: int) -> tuple[GrowPoint, ...]:
    """Grow points moved across grows at m that added shift labels:
    m' <= m keeps its label, m' > m moves up by shift.

    Relocation usually preserves growability, but an edge sitting
    exactly at the wrap threshold can start lengthening once v grows,
    so the chain's Certificate checks these as carried points and
    drops one that fails.  A later step of the chain that grows at one
    checks it in window_endpoints and fails loudly.
    """
    return tuple(GrowPoint(gp.x, embed(gp.m, shift, m)) for gp in points)


def _grow_steps(x: int, m: int, k: int) -> tuple[tuple[str, Mapping], ...]:
    """Trace of k grows at (x, m): one shared read-only entry, repeated."""
    return (("grow", trace_params(x=x, m=m)),) * k


class _Chain:
    """Construction steps run from a Certificate, left uncertified.

    The chain is plain data: the current path, a count map of the
    lengths it should realize, a trace list and the relocated grow
    points.  A step builds its path with _grown_vertices, which checks
    the one point it grows at, adds its lengths to the map, extends the
    list and relocates the other points unchecked; certify() builds the
    answer's one LengthMultiset, trace tuple and Certificate.  Steps
    return the chain."""

    __slots__ = ("path", "counts", "trace", "grow_points")

    def __init__(self, cert: Certificate):
        self.path = cert.path
        self.counts = cert.multiset.counts()
        self.trace = list(cert.trace)
        self.grow_points = cert.grow_points

    # the first tracked x-point, or "certificate has no x-grow point"
    point_for = Certificate.point_for

    def step(self, x, m, k, added, trace, runs=None) -> "_Chain":
        """k grows at (x, m), runs replacing the arithmetic ones; added
        counts the lengths they add."""
        self.path = HamPath.of(_grown_vertices(self.path, x, m, k, runs))
        counts = self.counts
        for length, count in added.items():
            counts[length] = counts.get(length, 0) + count
        self.trace.extend(trace)
        self.grow_points = _relocated(self.grow_points, m, k * x)
        return self

    def grow(self, x: int, m: int, k: int) -> "_Chain":
        return self.step(x, m, k, {x: k * x}, _grow_steps(x, m, k))

    def multi_grow(self, steps) -> "_Chain":
        for index, (x, count) in enumerate(steps):
            if not count:
                continue
            try:
                self.grow(x, self.point_for(x).m, count)
            except NotGrowableError as exc:
                raise NotGrowableError(
                    f"schedule step {index} (x={x}): {exc}"
                ) from exc
        return self

    def perfect(self, x, m, parts, trace) -> "_Chain":
        """k grows at (x, m), then the run from w = m + 1 - x + t
        overwritten by w + x*part[1:] for the t-th of x perfect parts of
        size k; each part adds x times its differences."""
        runs, added = {}, {}
        for w, part in enumerate(parts, m + 1 - x):
            runs[w] = [w + x * e for e in part[1:]]
            for a, b in zip(part, part[1:]):
                length = x * abs(b - a)
                added[length] = added.get(length, 0) + 1
        return self.step(x, m, len(parts[0]) - 1, added, trace, runs)

    def swap(self, x: int, i: int, k: int) -> "_Chain":
        """k x/2x swaps at the tracked x-point; see x2x_swap."""
        if x < 1:
            raise NotGrowableError(f"x must be positive, got {x}")
        if not (0 <= i <= x):
            raise NotGrowableError(f"i={i} out of range 0..{x}")
        if k < 0:
            raise ValueError(f"swap count k={k} must be nonnegative")
        m = self.point_for(x).m
        swapped = [0] + [3 * j + d for j in range(k) for d in (2, 1, 3)]
        parts = [swapped] * i + [range(3 * k + 1)] * (x - i)
        swap = _grow_steps(x, m, 3) + (("x2x_swap", trace_params(x=x, i=i)),)
        return self.perfect(x, m, parts, swap * k)

    def certify(self, op: str, declared=()) -> Certificate:
        """The one check of the chain: the Certificate verifies the path
        against the count map's multiset and every declared point, and
        keeps the carried points that hold.  A multiset mismatch means
        the construction does not apply to this input and is reported
        as NotGrowableError."""
        try:
            return Certificate(
                self.path, LengthMultiset.from_counts(self.counts),
                declared, tuple(self.trace), self.grow_points,
            )
        except PathError as exc:
            raise NotGrowableError(f"{op}: {exc}") from exc


def grow(cert: Certificate, x: int, m: int, k: int = 1) -> Certificate:
    """k grow steps at (x, m): embed into K_{v+kx}, insert m+1..m+kx.

    Each lengthened pair is broken by inserting the run w+x, ..., w+kx
    next to its window endpoint w, ordered outward from w: a straddling
    pair (y, z) becomes (y, y+x, ..., y+kx, z+kx), its reverse
    (z, y) becomes (z+kx, y+kx, ..., y+x, y), and a wrap-around pair
    (z, w) with both endpoints fixed becomes (z, w+kx, ..., w+x, w).
    The result equals k single grows at the same point, built in one
    pass: the lengthened pairs are computed once, on the input path.

    Growability at (x, m) is evaluated once, by _grown_vertices.  Known
    grow points are relocated by kx and carried into the returned
    Certificate, which checks each once on the final path and drops
    those that fail.
    """
    return _Chain(cert).grow(x, m, k).certify("grow")


def multi_grow(cert: Certificate, schedule: GrowthSchedule) -> Certificate:
    """Apply the schedule left-to-right, each step as one k-fold grow
    at the tracked grow point, all on one chain with one Certificate.
    A schedule that grows nothing returns cert itself."""
    if not any(count for _, count in schedule.steps):
        return cert
    return _Chain(cert).multi_grow(schedule.steps).certify("multi_grow")


def splice_perfect(cert: Certificate, k_real: HamPath) -> Certificate:
    """Grow a 1-run of |K| new labels and overwrite it with a translate
    of a perfect linear realization of K.  Realizes L with K merged in.
    This is perf_grow(cert, 1, [k_real]), traced as a splice, and the
    result's grow points are re-derived by a full scan.
    """
    if not is_perfect(k_real):
        raise NotGrowableError("k_real must be a perfect linear realization")
    m = cert.point_for(1).m
    splice = ("splice", trace_params(k_real=k_real.vertices))
    trace = _grow_steps(1, m, k_real.v - 1) + (splice,)
    chain = _Chain(cert).perfect(1, m, [k_real.vertices], trace)
    chain.grow_points = ()  # rescanned in full instead
    return chain.certify("splice_perfect", tuple(growth_points(chain.path)))


def even_grow(cert: Certificate, y: int, z: int) -> Certificate:
    """From a 2-growable realization of L, realize
    L + {1^(y+z-4), y^(y+1), z^(z+1)} for even y, z >= 4.

    Grows 2s until two interleaved arithmetic runs cover the new labels,
    then rewrites the runs with two sequences whose lengths are
    {1^(y-2), y^(y-1), z^2} and {1^(z-2), y^2, z^(z-1)}: each is a chain
    of y-1 or z-1 alternating pairs (core.alternating_runs) that starts
    or ends with two fixed labels.  The result is
    y-growable at m+y-1 and z-growable at m+2y+z-2: these two points
    are declared, so the Certificate raises if one fails.  The input's
    points (the consumed 2-point included) are relocated and carried,
    and kept where they still hold.
    """
    if y % 2 or z % 2:
        raise NotGrowableError("y and z must be even")
    if y < 4 or z < 4:
        raise NotGrowableError("y and z must be at least 4")
    m = cert.point_for(2).m
    k = y + z - 1
    # the runs from m and from m - 1, as offsets from m - 1
    g = alternating_runs((1, y + 1), y - 1, 1)
    g += [2 * y + z - 1, 2 * y + 2 * z - 1]
    h = [0, y] + alternating_runs((2 * y, 2 * y + z), z - 1, 1)
    runs = {m: [m - 1 + e for e in g[1:]], m - 1: [m - 1 + e for e in h[1:]]}
    added = (
        {1: y + z - 4, y: y + 1, z: z + 1}
        if y != z
        else {1: y + z - 4, y: 2 * y + 2}
    )
    trace = _grow_steps(2, m, k) + (("even_grow", trace_params(y=y, z=z)),)
    return _Chain(cert).step(2, m, k, added, trace, runs).certify(
        "even_grow",
        declared=(GrowPoint(y, m + y - 1), GrowPoint(z, m + 2 * y + z - 2)),
    )


def x2x_swap(cert: Certificate, x: int, i: int, k: int = 1) -> Certificate:
    """k x/2x swaps at the tracked x-point m, realizing
    L + k*{x^(3x-2i), (2x)^(2i)}.

    One swap is three x-grows at m, then the middle pair of i of the x
    four-term runs w, w+x, w+2x, w+3x is swapped to w, w+2x, w+x, w+3x.
    The runs start at w = m+1-x, ..., m; the i runs with the smallest
    starting labels are swapped, which makes the operation deterministic.

    Swapping again at m lengthens the edge leaving w, so k swaps are a
    perf_grow: i parts (0, 2, 1, 3, 5, 4, 6, ..., 3k) and x - i plain
    parts (0, 1, ..., 3k).  All 3k grows are built in one pass, and the
    result (path, grow points, multiset and trace) equals k single
    swaps.  k = 0 returns the input's path and trace; k < 0 raises.
    """
    return _Chain(cert).swap(x, i, k).certify("x2x_swap")


def perf_grow(cert: Certificate, x: int, parts) -> Certificate:
    """Generalized swap: grow k times at x, then overwrite the t-th
    arithmetic run with the x-scaled translate of the t-th perfect
    linear realization.  Realizes L + x*L_1 + ... + x*L_x where L_t is
    the difference multiset of part t (each of size k).  x2x_swap and
    splice_perfect are cases of it: see _Chain.perfect.
    """
    if x < 1:
        raise NotGrowableError(f"x must be positive, got {x}")
    parts = [p if isinstance(p, HamPath) else HamPath.of(p) for p in parts]
    if len(parts) != x:
        raise NotGrowableError(f"need exactly {x} parts, got {len(parts)}")
    k = parts[0].v - 1
    for p in parts:
        if p.v - 1 != k:
            raise NotGrowableError("parts must all have the same length")
        if not is_perfect(p):
            raise NotGrowableError(f"part {list(p.vertices)} is not perfect")
    m = cert.point_for(x).m
    parts = [p.vertices for p in parts]
    step = ("perf_grow", trace_params(x=x, parts=parts))
    chain = _Chain(cert).perfect(x, m, parts, _grow_steps(x, m, k) + (step,))
    return chain.certify("perf_grow")
