"""Search for the rows of the `stable` seed table and print them.

    python tools/stable_seeds.py

A replay grows a seed by a fixed ascending schedule ((x1, i), (x2, j),
...), one k-fold grow per length at the seed's tracked point.  A grow
can break another tracked point (an edge at the wrap threshold starts
lengthening once v grows), and the seed then cannot reach the target
on that schedule.  Each family below dead-ended that way on a
hand-built row.  For each, the script runs local_search on the family's
base, the least multiset from which grows at the family's x values
reach every member, under SearchConfig seeds 0, 1, 2, ..., takes one
grow point per x the family varies from growth_points, and keeps the
first choice that survives every schedule with counts below LIMIT (12,
as in tests/test_seeds.py).  It prints that realization as a source line
of the `stable` table, the row text `seeds.format_row` makes,
"<multiset> | <path> | <x:m ...> | <name>", with the seed and CPU time
it took.

Every step is deterministic, so two runs print the same rows.  Stdlib
only.
"""

from __future__ import annotations

import sys
import time
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bhr.core import (  # noqa: E402
    Certificate,
    LengthMultiset,
    NotGrowableError,
    growth_points,
)
from bhr.growth import GrowthSchedule, multi_grow  # noqa: E402
from bhr.search import SearchConfig, local_search  # noqa: E402
from bhr.seeds import format_row  # noqa: E402

LIMIT = 12
SEARCH_SEEDS = range(60)

# (row name, the family, where it dead-ended, its base, the x values the
# family varies)
FAMILIES = (
    ("st1", "1^a 2^b 3, a >= 2", "u123-main block 1", "1 2^3 3", (1, 2)),
    ("st2", "1 2^b 3^c 4^3", "u1234-bodd block 1", "1 2^3 3^2 4^3",
     (2, 3)),
    ("st3", "1 2^3 3^c 4", "u1234-bodd block 1", "1 2^3 3^4 4", (3,)),
    ("st4", "1 2^2 3^c 4^2", "u134 block 2", "1 2^2 3^4 4^2", (3,)),
)


def survives(cert: Certificate) -> bool:
    """Whether every schedule over cert's grow points, in ascending x,
    with each count below LIMIT, grows without a break."""
    xs = sorted({gp.x for gp in cert.grow_points})
    for counts in product(range(LIMIT), repeat=len(xs)):
        try:
            multi_grow(cert, GrowthSchedule(tuple(zip(xs, counts))))
        except NotGrowableError:
            return False
    return True


def stable_points(cert: Certificate, xs) -> Certificate | None:
    """cert's path declared with one grow point per x in xs, the first
    choice in growth_points order that survives, or None."""
    found = growth_points(cert.path)
    choices = [[gp for gp in found if gp.x == x] for x in xs]
    for points in product(*choices):
        candidate = Certificate(cert.path, cert.multiset, points)
        if survives(candidate):
            return candidate
    return None


def find(base: str, xs):
    """(SearchConfig seed, stable Certificate) for base, or None."""
    ms = LengthMultiset.parse(base)
    for rng_seed in SEARCH_SEEDS:
        cert = local_search(ms, SearchConfig(rng_seed=rng_seed))
        if cert is None:
            continue
        stable = stable_points(cert, xs)
        if stable is not None:
            return rng_seed, stable
    return None


def row(name: str, cert: Certificate) -> str:
    """cert as the text of the `stable` row named name."""
    return format_row(cert.multiset, cert.path, cert.grow_points, name)


def main() -> int:
    missing = 0
    for name, family, origin, base, xs in FAMILIES:
        start = time.process_time()
        found = find(base, xs)
        cpu = time.process_time() - start
        print(f"# {family} (dead-ended on {origin}): {base}, x in {xs}")
        if found is None:
            print(f"# none in SearchConfig seeds {SEARCH_SEEDS.start}.."
                  f"{SEARCH_SEEDS.stop - 1}, {cpu:.3f} CPU s")
            missing += 1
            continue
        rng_seed, cert = found
        print(f"# SearchConfig seed {rng_seed}, {cpu:.3f} CPU s")
        print(f'"{row(name, cert)}",')
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
