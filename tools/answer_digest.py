"""Print one sha256 per answer set and check each against the digests
checked in next to this script, in answer_digests.txt.

    python tools/answer_digest.py

Exits 0 when every digest matches, else 1 after naming each set whose
digest moved.  A change that alters answers on purpose updates
answer_digests.txt with the digests it prints.

The sets are every criterion-4 target through solve() (all admissible
multisets over {1,2,3}, {1,4,5} and {1,2,3,4} with v <= 30), the
criterion-5 solve_1x2x grid, a solve_136 grid (c < 40, a = 1..4,
b from its bound - 1 to bound + 5), and solve()'s search policy: the
two grids routed through solve(), then every admissible multiset over
{1,2,5} and {1,2,6} with v <= 30 (no driver; their subsets give the
|U| <= 2 targets), each with fallback off and then, for v <= 30, on.
The fifth set is every closed-form family seed construct_1x(x, b) for
x = 4..50 and b = x+1..2x.  Each answer is hashed as the repr of
(target, status, outcome trace, path, grow points, multiset items,
certificate trace in to_dict form), one line per target; a family seed
has no status or outcome trace.  The sixth set is the exhaustive oracle
brute_force on every multiset of order 2..11 with lengths <= v/2, one
line (multiset items, path or None) each.  The seventh set is the seed
tables: one line (table id, variant, multiset items, path, declared
grow points) per iter_seeds() entry, in registry order.  The eighth
set is the growth operations on every seed row: for each x the row
tracks, x2x_swap with i = 0..x and k = 1, 2 and perf_grow with x
copies of each of _PARTS; then splice_perfect with each of _PARTS at
the row's 1-point and even_grow with (4, 4), (4, 6) and (6, 4) at its
2-point.  Each is one line (table id, variant, operation, arguments,
path, grow points, multiset items, certificate trace), or the name of
the exception it raised in place of the last four.  The ninth set is
the swap rows at their bounds, with fallback off: for x = 3..8,
a = 0..x and c = 0..6, b runs from 3 below the even-c bound
5x - 2 + c/2 to 2 above it, or at x = 3 to 2 above 18 + c/2, the
bound of {1,3,6}'s odd c.  Each target goes through its wrapper
(solve_136 at x = 3, else solve_1x2x), one line keyed by (a, b, c, x),
and then, when a and c are positive, through solve(), one line keyed by
its multiset items.  The tenth set is the replay rows at large v: for
each replay row of solve()'s driver table (its U, and its number of 1s
where the row is chosen by it), 300 admissible targets at orders
log-uniform on 64..1,024, drawn from a Random seeded by the row, each
through solve().  So two checkouts that print the same digests gave
the same answers from the same seeds and grew them the same way.  The
criterion-4 set takes about as long as criterion 4 itself, which
hashes its answers the same way and checks this digest.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "answer_digests.txt"
sys.path.insert(0, str(HERE.parent / "src"))

from bhr.core import HamPath, LengthMultiset, is_admissible  # noqa: E402
from bhr.families import construct_1x  # noqa: E402
from bhr.growth import (  # noqa: E402
    even_grow,
    perf_grow,
    splice_perfect,
    x2x_swap,
)
from bhr.search import brute_force, enumerate_admissible  # noqa: E402
from bhr.seeds import iter_seeds  # noqa: E402
from bhr.solvers import solve, solve_136, solve_1x2x  # noqa: E402


def _fields(cert) -> tuple:
    if cert is None:
        return None, None, None, None
    return (
        cert.path.vertices,
        tuple((gp.x, gp.m) for gp in cert.grow_points),
        cert.multiset.items,
        cert.to_dict()["trace"],
    )


def _line(target, out) -> bytes:
    fields = (target, out.status, out.trace) + _fields(out.certificate)
    return repr(fields).encode() + b"\n"


def criterion_4_targets():
    """Every admissible multiset over {1,2,3}, {1,4,5} and {1,2,3,4}
    with v <= 30, once each; the acceptance test of criterion 4 solves
    the same targets in the same order."""
    seen = set()
    for v in range(2, 31):
        for lengths in [(1, 2, 3), (1, 4, 5), (1, 2, 3, 4)]:
            for ms in enumerate_admissible(v, lengths=lengths):
                if ms not in seen:
                    seen.add(ms)
                    yield ms


def criterion_4():
    for ms in criterion_4_targets():
        yield _line(ms.items, solve(ms))


def _grid_1x2x():
    for x in range(4, 11):
        for c in range(0, 21, 2):
            b0 = 5 * x - 2 + c // 2
            for b in range(b0, b0 + x):
                for a in (x - 2, x - 1, x):
                    yield a, b, c, x


def _grid_136():
    for c in range(40):
        bound = 13 + c // 2 if c % 2 == 0 else 18 + (c - 1) // 2
        for a in range(1, 5):
            for b in range(bound - 1, bound + 6):
                yield a, b, c


def criterion_5():
    for key in _grid_1x2x():
        yield _line(key, solve_1x2x(*key))


def grid_136():
    for key in _grid_136():
        yield _line(key, solve_136(*key))


def _grid_swap_bounds():
    for x in range(3, 9):
        for a in range(x + 1):
            for c in range(7):
                lo = 5 * x - 2 + c // 2
                hi = 18 + c // 2 if x == 3 else lo
                for b in range(lo - 3, hi + 3):
                    yield a, b, c, x


def swap_bounds():
    for a, b, c, x in _grid_swap_bounds():
        out = solve_136(a, b, c) if x == 3 else solve_1x2x(a, b, c, x)
        yield _line((a, b, c, x), out)
        if a and c:
            ms = LengthMultiset.from_counts({1: a, x: b, 2 * x: c})
            yield _line(ms.items, solve(ms))


def routes():
    targets = [
        LengthMultiset.from_counts({1: a, x: b, 2 * x: c})
        for a, b, c, x in _grid_1x2x()
    ]
    targets += [
        LengthMultiset.from_counts({1: a, 3: b, 6: c})
        for a, b, c in _grid_136()
    ]
    seen = set()
    for v in range(2, 31):
        for lengths in [(1, 2, 5), (1, 2, 6)]:
            for ms in enumerate_admissible(v, lengths=lengths):
                if ms not in seen:
                    seen.add(ms)
                    targets.append(ms)
    for fallback in (False, True):
        for ms in targets:
            if not fallback or ms.v <= 30:
                out = solve(ms, fallback=fallback)
                yield _line((ms.items, fallback), out)


def families():
    for x in range(4, 51):
        for b in range(x + 1, 2 * x + 1):
            line = ((x, b),) + _fields(construct_1x(x, b))
            yield repr(line).encode() + b"\n"


def _count_vectors(total, parts):
    """Every vector of parts counts summing to total, in lexicographic
    order."""
    if parts == 1:
        yield (total,)
        return
    for c in range(total + 1):
        for rest in _count_vectors(total - c, parts - 1):
            yield (c, *rest)


def oracle():
    for v in range(2, 12):
        lengths = range(1, v // 2 + 1)
        for vec in _count_vectors(v - 1, len(lengths)):
            ms = LengthMultiset.from_counts(dict(zip(lengths, vec)))
            cert = brute_force(ms)
            line = (ms.items, None if cert is None else cert.path.vertices)
            yield repr(line).encode() + b"\n"


def seed_tables():
    for e in iter_seeds():
        points = tuple((gp.x, gp.m) for gp in e.declared_grow_points)
        line = (
            e.table_id, e.variant, e.multiset.items, e.path.vertices, points
        )
        yield repr(line).encode() + b"\n"


# perfect linear realizations of sizes 2..5, the plain runs among them
_PARTS = (
    (0, 1, 2),
    (0, 1, 2, 3),
    (0, 2, 1, 3),
    (0, 2, 1, 3, 4),
    (0, 3, 1, 2, 4),
    (0, 1, 3, 2, 4, 5),
    (0, 2, 4, 1, 3, 5),
)


def _operations(cert):
    """(operation, args) of the growth operations run on cert."""
    for x in sorted({gp.x for gp in cert.grow_points}):
        for i in range(x + 1):
            for k in (1, 2):
                yield x2x_swap, (x, i, k)
        for part in _PARTS:
            yield perf_grow, (x, [part] * x)
    for part in _PARTS:
        yield splice_perfect, (HamPath.of(part),)
    for y, z in ((4, 4), (4, 6), (6, 4)):
        yield even_grow, (y, z)


def growth_operations():
    for e in iter_seeds():
        cert = e.certificate
        for op, args in _operations(cert):
            try:
                fields = _fields(op(cert, *args))
            except ValueError as exc:
                fields = (type(exc).__name__,)
            line = (e.table_id, e.variant, op.__name__, args) + fields
            yield repr(line).encode() + b"\n"


# the replay rows of solve()'s driver table: U, and the number of 1s of
# the rows chosen by it (None where any number replays)
_REPLAY_ROWS = (
    ((1, 2, 3), None),
    ((1, 4, 5), None),
    ((2, 3, 4), None),
    ((1, 3, 4), 1),
    ((1, 3, 4), 2),
    ((1, 2, 3, 4), 1),
)


def _large_replay_targets(u, a, count=300):
    """count admissible multisets over exactly u, with a 1s when a is
    given, at orders log-uniform on 64..1,024, from a Random seeded by
    the row."""
    rng = random.Random(f"replay rows:{u}:{a}")
    free = u[1:] if a else u
    found = 0
    while found < count:
        v = round(math.exp(rng.uniform(math.log(64), math.log(1024))))
        rest = v - 1 - (a or 0)
        # len(free) positive counts summing to rest
        cuts = sorted(rng.sample(range(1, rest), len(free) - 1))
        parts = [y - x for x, y in zip([0, *cuts], [*cuts, rest])]
        counts = dict(zip(free, parts))
        if a:
            counts[1] = a
        ms = LengthMultiset.from_counts(counts)
        if is_admissible(ms).ok:
            found += 1
            yield ms


def replay_rows_large():
    for u, a in _REPLAY_ROWS:
        for ms in _large_replay_targets(u, a):
            yield _line(ms.items, solve(ms))


# set name -> generator of its answer lines, in the order main() prints
SETS = {
    "criterion-4 solve": criterion_4,
    "criterion-5 solve_1x2x": criterion_5,
    "solve_136 grid": grid_136,
    "solve() routes, fallback off and on": routes,
    "families construct_1x": families,
    "brute_force order <= 11": oracle,
    "seed tables": seed_tables,
    "growth operations": growth_operations,
    "swap rows at their bounds": swap_bounds,
    "replay rows at large v": replay_rows_large,
}


def _expected() -> dict[str, str]:
    """Set name -> checked-in digest, from lines "digest  name"."""
    out = {}
    for line in EXPECTED.read_text().splitlines():
        digest, name = line.split(maxsplit=1)
        out[name] = digest
    return out


def main() -> int:
    expected = _expected()
    moved = []
    for name, answers in SETS.items():
        digest = hashlib.sha256()
        count = 0
        for line in answers():
            digest.update(line)
            count += 1
        print(f"{digest.hexdigest()}  {count:6d}  {name}", flush=True)
        if digest.hexdigest() != expected.get(name):
            moved.append(name)
    for name in moved:
        print(f"digest moved: {name}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
