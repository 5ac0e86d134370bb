"""Fundamental types and operations for cyclic edge-length realizations.

Vertices of the complete graph K_v are labeled 0..v-1 and the length of
the edge between x and y is min(|x-y|, v-|x-y|).  A Hamiltonian path
realizes the multiset of its v-1 edge lengths.  This module provides the
multiset/path types, admissibility testing, realization verification and
the growability test that the rest of the package is built on.

Conventions that are easy to get wrong:

* The second coordinate m of a grow point is a vertex *label*, not a
  position in the path.  The embedding y -> y (y <= m), y -> y+x (y > m)
  acts on labels.
* A "lengthened" edge is one whose image under the embedding into
  K_{v+x} has a strictly larger cyclic length than the original edge
  had in K_v.  An edge (a, b) lengthens exactly when it straddles m
  (min(a, b) <= m < max(a, b)) and 2|a-b| < v, or when it does not
  straddle m and 2|a-b| > v.  The rule does not depend on x, so a
  label m has at most one grow point, whose x is the number of
  lengthened edges at m.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from math import isqrt
from types import MappingProxyType


class MultisetError(ValueError):
    """Malformed length multiset or multiset text."""


class PathError(ValueError):
    """Sequence is not a valid Hamiltonian path on 0..v-1, or a
    certificate's document or trace is malformed."""


class NotGrowableError(ValueError):
    """A grow-type operation was attempted at a point that is not growable."""


@dataclass(frozen=True, order=True, slots=True)
class GrowPoint:
    """A pair (x, m) of ints: the path is x-growable at vertex label m."""

    x: int
    m: int

    def __post_init__(self):
        if type(self.x) is not int or type(self.m) is not int:
            raise NotGrowableError(f"{self!r} is not two ints")


@dataclass(frozen=True, slots=True)
class LengthMultiset:
    """Multiset of edge lengths: sorted (length, count) pairs of ints."""

    items: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = 0
        for length, count in self.items:
            if type(length) is not int or type(count) is not int:
                raise MultisetError(f"item {(length, count)!r}: not two ints")
            if length < 1:
                raise MultisetError(f"length {length} < 1")
            if count < 1:
                raise MultisetError(f"count {count} < 1 for length {length}")
            if length <= prev:
                raise MultisetError(
                    "items must be sorted with distinct lengths"
                )
            prev = length

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "LengthMultiset":
        # only an int zero is dropped: 0.0 or False stays, to be refused
        items = [(l, c) for l, c in counts.items() if c or type(c) is not int]
        try:
            items.sort()
        except TypeError:  # mixed length types: __post_init__ names one
            cls(tuple(item for item in items if type(item[0]) is not int))
        return cls(tuple(items))

    @classmethod
    def from_lengths(cls, lengths) -> "LengthMultiset":
        counts: dict[int, int] = {}
        for l in lengths:
            if type(l) is not int:  # before it is hashed as a key
                raise MultisetError(f"length {l!r} is not an int")
            counts[l] = counts.get(l, 0) + 1
        return cls.from_counts(counts)

    @classmethod
    def parse(cls, text: str) -> "LengthMultiset":
        """Parse the `len` / `len^mult` grammar, e.g. "1^4 2 3^8 4"."""
        if not isinstance(text, str):
            raise MultisetError(f"multiset text {text!r} is not a str")
        counts: dict[int, int] = {}
        tokens = text.split()
        if not tokens:
            raise MultisetError("empty multiset text")
        for tok in tokens:
            m = re.fullmatch(r"(\d+)(?:\^(\d+))?", tok)
            if not m:
                raise MultisetError(f"bad multiset token {tok!r}")
            length = int(m.group(1))
            mult = int(m.group(2)) if m.group(2) else 1
            if length < 1 or mult < 1:
                raise MultisetError(f"bad multiset token {tok!r}")
            counts[length] = counts.get(length, 0) + mult
        return cls.from_counts(counts)

    def counts(self) -> dict[int, int]:
        return dict(self.items)

    def multiplicity(self, length: int) -> int:
        return dict(self.items).get(length, 0)

    @property
    def size(self) -> int:
        return sum(c for _, c in self.items)

    @property
    def v(self) -> int:
        """Order of the complete graph this multiset is sized for."""
        return self.size + 1

    @property
    def underlying_set(self) -> frozenset[int]:
        return frozenset(l for l, _ in self.items)

    def add_copies(self, length: int, count: int) -> "LengthMultiset":
        counts = self.counts()
        counts[length] = counts.get(length, 0) + count
        return LengthMultiset.from_counts(counts)

    def format(self) -> str:
        return " ".join(
            f"{l}^{c}" if c > 1 else str(l) for l, c in self.items
        )

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True, slots=True)
class HamPath:
    """A Hamiltonian path: a permutation of 0..v-1 in visiting order.
    Labels are exactly ints: a bool or 2.0 raises PathError too."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = self.vertices
        if not set(map(type, vs)) <= {int}:
            i = next(i for i, l in enumerate(vs) if type(l) is not int)
            raise PathError(f"label {vs[i]!r} at index {i} is not an int")
        v = len(vs)
        if v < 1:
            raise PathError("empty path")
        if sorted(vs) != list(range(v)):
            raise PathError(f"not a permutation of 0..{v - 1}: {_misfit(vs)}")

    @classmethod
    def of(cls, vertices) -> "HamPath":
        return cls(tuple(vertices))

    @property
    def v(self) -> int:
        return len(self.vertices)

    def pairs(self):
        vs = self.vertices
        return zip(vs, vs[1:])


def _misfit(vertices) -> str:
    """The first label that keeps vertices from being a permutation of
    0..v-1: out of range or repeated, by position, else the least
    missing one.  Names one label, so the message stays short at any v."""
    v, seen = len(vertices), set()
    for i, label in enumerate(vertices):
        if not 0 <= label < v:
            return f"label {label} at index {i} is out of range"
        if label in seen:
            return f"label {label} at index {i} is repeated"
        seen.add(label)
    return f"label {min(set(range(v)) - seen)} is missing"


@dataclass(frozen=True, slots=True)
class Admissibility:
    """Verdict of the divisor test.  ok, or the smallest obstruction.

    reason is one of "ok", "oversized" (some length exceeds floor(v/2),
    in which case `length` is set) or "divisor" (`divisor` multiples
    count `count` exceeds the bound v - divisor).
    """

    ok: bool
    reason: str = "ok"
    divisor: int | None = None
    count: int | None = None
    bound: int | None = None
    length: int | None = None

    def describe(self) -> str:
        if self.ok:
            return "admissible"
        if self.reason == "oversized":
            return f"length {self.length} exceeds floor(v/2)"
        return (
            f"divisor {self.divisor}: {self.count} multiples "
            f"exceed bound {self.bound}"
        )


def edge_length(a: int, b: int, v: int) -> int:
    """Length of the edge between vertices a and b of K_v."""
    if not (0 <= a < v and 0 <= b < v):
        raise PathError(f"vertex out of range for v={v}: ({a}, {b})")
    if a == b:
        raise PathError(f"no edge from vertex {a} to itself")
    d = abs(a - b)
    return min(d, v - d)


def _length_counts(path: HamPath) -> list[int]:
    """The path's count of each cyclic length, as a list indexed by
    length 0..v//2 (slot 0 stays 0).

    A HamPath is a permutation of 0..v-1, so its pairs need none of
    edge_length's range and distinctness checks."""
    v = path.v
    half = v // 2
    counts = [0] * (half + 1)
    vs = path.vertices
    for a, b in zip(vs, vs[1:]):
        d = a - b if a > b else b - a
        counts[d if d <= half else v - d] += 1
    return counts


def cyclic_lengths(path: HamPath) -> LengthMultiset:
    """Multiset of cyclic edge lengths along the path."""
    counts = _length_counts(path)
    return LengthMultiset(tuple((l, c) for l, c in enumerate(counts) if c))


def linear_diffs(path: HamPath) -> LengthMultiset:
    """Multiset of absolute differences along the path."""
    return LengthMultiset.from_lengths(abs(a - b) for a, b in path.pairs())


def is_perfect(path: HamPath) -> bool:
    return path.vertices[0] == 0 and path.vertices[-1] == path.v - 1


def alternating_runs(first, n: int, step: int) -> list[int]:
    """The n runs first + p*step (elementwise, p = 0..n-1), joined, with
    each odd-indexed run reversed."""
    out = []
    for p in range(n):
        run = [a + p * step for a in first]
        out += run if p % 2 == 0 else run[::-1]
    return out


@lru_cache(maxsize=1024)
def divisor_table(
    v: int, lengths: tuple[int, ...]
) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The divisor condition at order v over lengths, each at most v/2.

    One row (d, v - d, positions) per divisor d > 1 of v that divides
    some length, in increasing order of d; positions index the lengths
    that d divides.  A divisor that divides none bounds nothing, since
    v - d >= 0, so the walk tries d up to min(longest, sqrt(v)) and
    keeps d and v // d where each is at most the longest length.  A
    vector of counts aligned with lengths meets the condition when no
    row is obstructed (see divisor_obstruction).

    lengths is a tuple, the cache's key: the last 1024 tables are kept,
    and each is nested tuples, so no caller can edit a shared one."""
    top = max(lengths)
    found = set()
    for d in range(2, min(top, isqrt(v)) + 1):
        if v % d == 0:
            found.update(e for e in (d, v // d) if e <= top)
    table = []
    for d in sorted(found):
        pos = tuple(i for i, l in enumerate(lengths) if l % d == 0)
        if pos:
            table.append((d, v - d, pos))
    return tuple(table)


def divisor_obstruction(table, counts) -> tuple[int, int, int] | None:
    """The divisor condition: for each d | v, multiples of d number at
    most v - d.  Returns the first row of the table whose multiples
    exceed their bound, as (d, count, v - d), or None."""
    for d, bound, pos in table:
        count = 0
        for i in pos:
            count += counts[i]
        if count > bound:
            return d, count, bound
    return None


_ADMISSIBLE = Admissibility(True)


def is_admissible(ms: LengthMultiset) -> Admissibility:
    """Lengths at most v/2, then the divisor condition; the verdict
    names the first oversized length or else the smallest obstructing
    divisor.  Every admissible multiset gets the one shared, frozen
    Admissibility(True)."""
    if not ms.items:
        raise MultisetError("admissibility of the empty multiset is undefined")
    v = ms.v
    lengths, counts = zip(*ms.items)
    if lengths[-1] > v // 2:
        # items are sorted: the last length decides, and the first
        # oversized one is the smallest
        length = next(l for l in lengths if l > v // 2)
        return Admissibility(False, "oversized", length=length)
    hit = divisor_obstruction(divisor_table(v, lengths), counts)
    if hit is None:
        return _ADMISSIBLE
    d, count, bound = hit
    return Admissibility(
        False, "divisor", divisor=d, count=count, bound=bound
    )


def check_realization(path: HamPath, ms: LengthMultiset) -> tuple[bool, str]:
    """Check path realizes ms; distinguishes order and multiset mismatches.

    One counting pass: with the orders equal, ms and the path both hold
    v - 1 lengths, so the path realizes ms exactly when it has each
    length of ms as often as ms does.  The realized counts are gathered
    into a map only to name a mismatch."""
    if path.v != ms.v:
        return False, f"order mismatch: path has {path.v} vertices, need {ms.v}"
    counts = _length_counts(path)
    half = len(counts) - 1
    for length, count in ms.items:
        if length > half or counts[length] != count:
            break
    else:
        return True, "ok"
    # name one length, so the message stays short at any v
    have = {l: c for l, c in enumerate(counts) if c}
    need = ms.counts()
    length = min(
        l for l in have.keys() | need.keys()
        if have.get(l, 0) != need.get(l, 0)
    )
    return False, (
        f"multiset mismatch: path has count {have.get(length, 0)} "
        f"of length {length}, need {need.get(length, 0)}"
    )


def verify_realization(path: HamPath, ms: LengthMultiset) -> bool:
    return check_realization(path, ms)[0]


def embed(y: int, x: int, m: int) -> int:
    """The K_v -> K_{v+x} embedding used throughout: shift labels above m."""
    return y if y <= m else y + x


def lengthened_pairs(
    path: HamPath, x: int, m: int
) -> list[tuple[int, int]]:
    """Consecutive pairs whose edge length increases under the embedding."""
    v = path.v
    out = []
    for a, b in path.pairs():
        old = edge_length(a, b, v)
        new = edge_length(embed(a, x, m), embed(b, x, m), v + x)
        if new > old:
            out.append((a, b))
    return out


def window_endpoints(
    path: HamPath, x: int, m: int
) -> dict[tuple[int, int], int] | None:
    """The growability rule, in one pass over the lengthened pairs.

    Returns a map from each lengthened pair (a, b) at (x, m) to its
    window endpoint, or None when the path is not x-growable at label m.
    Each label y with m-x < y <= m must be the window endpoint of
    exactly one lengthened edge, and each lengthened edge must have
    exactly one endpoint in the window.  The window must consist of x
    actual labels (m >= x-1); otherwise growing could not insert the x
    labels m+1..m+x and is reported not growable.

    An edge (a, b) lengthens exactly when it straddles m (one endpoint
    <= m < the other) and 2|a-b| < v: its non-wrapping length gains x
    from the shifted endpoint; or when it does not straddle m and
    2|a-b| > v: its wrap-around length v - |a-b| gains x because v
    does while |a-b| stays.  Both endpoints may lie above m, so for
    [0,1,2,3,9,4,5,6,7,8] at x=1, m=2 the lengthened pairs are (2, 3)
    and (3, 9).  The rule does not depend on x, and a grow point
    matches its x window labels one to one with the lengthened edges,
    so x must equal their number and a label m has at most one grow
    point.  The growth construction can only serve a lengthened edge
    through a single window endpoint, so an edge with both endpoints
    in the window rules growability out.

    An x or m that is not exactly an int raises NotGrowableError before
    the range checks: every grow, swap and growability test comes here,
    so True, 8.0 and "1" never reach a path or a trace.
    """
    if type(x) is not int or type(m) is not int:
        raise NotGrowableError(f"x={x!r} and m={m!r} must be ints")
    v = path.v
    if not (0 < x <= v / 2):
        raise ValueError(f"x={x} out of range 0 < x <= v/2 for v={v}")
    if not (0 <= m < v):
        raise ValueError(f"m={m} out of range 0 <= m < v for v={v}")
    if m - x + 1 < 0:
        return None
    incident = {y: 0 for y in range(m - x + 1, m + 1)}
    ends = {}
    for a, b in lengthened_pairs(path, x, m):
        hits = [y for y in (a, b) if y in incident]
        if len(hits) != 1:
            return None
        incident[hits[0]] += 1
        ends[a, b] = hits[0]
    return ends if all(n == 1 for n in incident.values()) else None


def is_growable_at(path: HamPath, x: int, m: int) -> bool:
    """Test x-growability at label m; see window_endpoints for the rule."""
    return window_endpoints(path, x, m) is not None


def growth_points(path: HamPath) -> list[GrowPoint]:
    """All grow points of the path, sorted by (x, m)."""
    v = path.v
    return [
        GrowPoint(x, m)
        for x in range(1, v // 2 + 1)
        for m in range(v)
        if is_growable_at(path, x, m)
    ]


def trace_params(**params) -> MappingProxyType:
    """The read-only parameters of one trace entry, lists made tuples.

    Certificates share trace entries (k grows repeat one entry, and
    every answer grown from a seed starts with the seed's), so each
    entry is built once, where it is made, and cannot be edited."""
    return MappingProxyType({k: _nested(v, tuple) for k, v in params.items()})


def plain_trace(trace) -> list:
    """A trace as fresh [name, params] lists, params as plain dicts of
    plain lists: the form that to_dict and the CLI print."""
    return [[n, {k: _nested(v, list) for k, v in p.items()}] for n, p in trace]


def _nested(value, sequence):
    """value with every list or tuple in it rebuilt as sequence."""
    if isinstance(value, (list, tuple)):
        return sequence(_nested(v, sequence) for v in value)
    return value


@dataclass(frozen=True, slots=True)
class Certificate:
    """A verified realization with its known grow points and derivation.

    Construction checks the path against the multiset and every declared
    grow point, raising when one fails.  carried, an init-only argument,
    holds points brought over from an earlier path (a growth operation
    relocates its input's points): each is checked once, kept when it
    holds and dropped when it fails.  Declared and kept points alike are
    stored in one order, sorted by (x, m).
    """

    path: HamPath
    multiset: LengthMultiset
    grow_points: tuple[GrowPoint, ...] = ()
    trace: tuple[tuple[str, Mapping], ...] = field(default_factory=tuple)
    carried: InitVar[tuple[GrowPoint, ...]] = ()

    def __post_init__(self, carried):
        ok, why = check_realization(self.path, self.multiset)
        if not ok:
            raise PathError(f"certificate does not verify: {why}")
        declared = self.grow_points
        for gp in declared:
            if not is_growable_at(self.path, gp.x, gp.m):
                raise NotGrowableError(
                    f"declared grow point ({gp.x}, {gp.m}) fails"
                )
        kept = tuple(
            gp
            for gp in carried
            if gp not in declared and is_growable_at(self.path, gp.x, gp.m)
        )
        object.__setattr__(self, "grow_points", tuple(sorted(declared + kept)))

    def point_for(self, x: int) -> GrowPoint:
        for gp in self.grow_points:
            if gp.x == x:
                return gp
        raise NotGrowableError(f"certificate has no {x}-grow point")

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "path": list(self.path.vertices),
            "multiset": self.multiset.format(),
            "grow_points": [[gp.x, gp.m] for gp in self.grow_points],
            "trace": plain_trace(self.trace),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        """The certificate a to_dict document describes, checked anew.

        A document that is not a mapping, lacks path, multiset or
        grow_points, or whose path, grow_points or trace is not a list
        raises PathError; certificate() and the value types refuse
        malformed entries, each with a ValueError subclass."""
        if not isinstance(data, Mapping):
            raise PathError(f"document is a {type(data).__name__}, not a dict")
        for key in ("path", "multiset", "grow_points"):
            if key not in data:
                raise PathError(f"document has no {key!r}")
        for key in ("path", "grow_points", "trace"):
            if not isinstance(data.get(key, ()), (list, tuple)):
                raise PathError(f"document {key} is not a list")
        return certificate(
            data["path"],
            LengthMultiset.parse(data["multiset"]),
            data["grow_points"],
            data.get("trace", ()),
        )


def certificate(path, counts_or_ms, grow_points=(), trace=()) -> Certificate:
    """The one constructor from raw data: a vertex sequence, a count map
    or LengthMultiset, (x, m) pairs and (name, params) trace entries,
    whose params are made read-only.  Seed rows, family seeds, search
    answers, to_dict documents and the CLI all build theirs here.  It
    only converts, refusing a grow point that is not a list or tuple of
    two and a trace entry that is not a (str, mapping) pair or whose
    mapping has a key that is not a str; the value types refuse data
    that is not ints."""
    if isinstance(counts_or_ms, LengthMultiset):
        ms = counts_or_ms
    else:
        ms = LengthMultiset.from_counts(counts_or_ms)
    if not isinstance(path, HamPath):
        path = HamPath.of(path)
    gps = []
    for gp in grow_points:
        if isinstance(gp, (list, tuple)) and len(gp) == 2:
            gp = GrowPoint(*gp)
        elif not isinstance(gp, GrowPoint):
            raise NotGrowableError(f"grow point {gp!r} is not a pair")
        gps.append(gp)
    steps = []
    for entry in trace:
        if not (
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and isinstance(entry[0], str)
            and isinstance(entry[1], Mapping)
        ):
            raise PathError(
                f"trace entry {entry!r} is not a (name, mapping) pair"
            )
        for key in entry[1]:
            if not isinstance(key, str):
                raise PathError(
                    f"trace entry {entry[0]!r} has a non-str key {key!r}"
                )
        steps.append((entry[0], trace_params(**entry[1])))
    return Certificate(path, ms, tuple(gps), tuple(steps))
