"""Seed realizations: every explicit hand-built realization, stored as
data with its declared grow points, plus an integrity suite.

Each table is a tuple of SeedEntry in source order.  Rows keep the
block structure of the original tables (horizontal-rule-separated parts
with different growability guarantees) in their default variant names.
Cells marked "-" are stored as absent grow points, not zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    Certificate,
    GrowPoint,
    HamPath,
    LengthMultiset,
    trace_params,
)


@dataclass(frozen=True)
class SeedEntry:
    table_id: str
    variant: str  # "main" for the primary block, "blockN" or a name
    multiset: LengthMultiset
    lengths: tuple[int, ...]  # the underlying lengths, ascending
    path: HamPath
    declared_grow_points: tuple[GrowPoint, ...]

    def certificate(self) -> Certificate:
        """The entry as a Certificate traced ("seed", {table, variant}),
        built and checked on first use and shared after that; raises
        PathError or NotGrowableError when the entry is unsound."""
        return self._certificate

    @cached_property
    def _certificate(self) -> Certificate:
        return Certificate(
            path=self.path,
            multiset=self.multiset,
            grow_points=self.declared_grow_points,
            trace=(
                (
                    "seed",
                    trace_params(table=self.table_id, variant=self.variant),
                ),
            ),
        )

    def check(self) -> list[str]:
        """Return a list of problems (empty when the entry is sound)."""
        try:
            self.certificate()
        except ValueError as exc:  # PathError and NotGrowableError too
            return [str(exc)]
        return []


def _entries(table_id, lengths, key_of, blocks):
    """Expand compact row tuples into SeedEntry objects.

    blocks: list of lists of rows (cls, path, params, ms, [variant]);
    cls labels the row's congruence class for the reader, and ms is
    aligned with lengths, None meaning no declared point.
    """
    out = []
    for block_no, rows in enumerate(blocks):
        for row in rows:
            _, path, params, ms = row[:4]
            variant = row[4] if len(row) > 4 else (
                "main" if block_no == 0 else f"block{block_no}"
            )
            points = tuple(
                GrowPoint(x, m)
                for x, m in zip(lengths, ms)
                if m is not None
            )
            out.append(
                SeedEntry(
                    table_id=table_id,
                    variant=variant,
                    multiset=LengthMultiset.from_counts(
                        dict(zip(lengths, key_of(params)))
                    ),
                    lengths=lengths,
                    path=HamPath.of(list(path)),
                    declared_grow_points=points,
                )
            )
    return tuple(out)


# {1, 2^b, 3^c}: block 0 is {1,2,3}-growable, block 1 covers the small
# cases with fewer grow points.  Congruences of (b, c) mod (2, 3).
U123_MAIN = _entries(
    "u123-main",
    (1, 2, 3),
    lambda bc: (1, bc[0], bc[1]),
    [
        [
            ((0, 0), (2, 4, 1, 5, 3, 0, 6), (2, 3), (5, 1, 3)),
            ((0, 1), (3, 6, 0, 5, 2, 1, 7, 4), (2, 4), (2, 3, 4)),
            ((0, 2), (6, 5, 2, 8, 1, 4, 7, 0, 3), (2, 5), (7, 5, 2)),
            ((1, 0), (8, 5, 2, 3, 6, 0, 7, 1, 4), (1, 6), (1, 6, 3)),
            ((1, 1), (5, 8, 1, 4, 6, 9, 2, 3, 0, 7), (1, 7), (4, 6, 2)),
            ((1, 2), (6, 1, 4, 7, 5, 0, 3, 2), (1, 5), (4, 1, 2)),
        ],
        [
            ((0, 1), (0, 2, 4, 1, 6, 5, 3), (4, 1), (5, 2, 3)),
            ((0, 2), (3, 1, 4, 5, 2, 0), (2, 2), (4, 1, None)),
            ((1, 0), (7, 4, 2, 0, 3, 1, 6, 5), (3, 3), (4, 5, 2)),
            ((1, 1), (2, 5, 1, 3, 6, 0, 4), (1, 4), (1, 3, None)),
            ((1, 1), (4, 2, 5, 3, 1, 0), (3, 1), (1, 3, None)),
            ((1, 2), (2, 4, 6, 5, 1, 3, 0), (3, 2), (4, 1, 2)),
        ],
    ],
)

# {1^a, 2^b, 3^c} small cases, 1-growable only.
U123_1G = _entries(
    "u123-1g",
    (1, 2, 3),
    lambda abc: abc,
    [
        [
            (None, (2, 5, 4, 1, 3, 0), (1, 1, 3), (4, None, None)),
            (None, (0, 3, 5, 4, 1, 2), (2, 1, 2), (3, None, None)),
            (None, (3, 1, 0, 5, 2, 4), (2, 2, 1), (1, None, None)),
            (None, (0, 5, 4, 1, 3, 2), (3, 1, 1), (4, None, None)),
        ],
    ],
)

# {1^a, 4^b, 5^c} with a >= 3: block 0 is {1,5}-growable, block 1 only
# 1-growable (a + b + c = 9 small cases).
U145_A3 = _entries(
    "u145-a3",
    (1, 4, 5),
    lambda abc: abc,
    [
        [
            (None, (6, 7, 2, 1, 5, 0, 10, 4, 9, 3, 8), (3, 1, 6),
             (9, None, 4)),
            (None, (9, 14, 0, 10, 5, 4, 8, 13, 3, 7, 12, 2, 1, 11, 6),
             (3, 2, 9), (3, None, 9)),
        ],
        [
            (None, (8, 3, 2, 7, 1, 6, 5, 0, 9, 4), (3, 1, 5),
             (2, None, None)),
            (None, (7, 2, 6, 1, 5, 0, 9, 8, 3, 4), (3, 2, 4),
             (1, None, None)),
            (None, (3, 2, 8, 4, 9, 0, 5, 1, 6, 7), (3, 3, 3),
             (8, None, None)),
            (None, (6, 2, 8, 7, 3, 4, 9, 0, 5, 1), (3, 4, 2),
             (7, None, None)),
            (None, (5, 6, 2, 8, 9, 4, 0, 1, 7, 3), (3, 5, 1),
             (7, None, None)),
            (None, (2, 1, 6, 7, 3, 8, 9, 4, 5, 0), (4, 1, 4),
             (1, None, None)),
            (None, (7, 8, 4, 9, 3, 2, 1, 6, 5, 0), (4, 2, 3),
             (4, None, None)),
            (None, (9, 5, 0, 6, 1, 2, 3, 4, 8, 7), (4, 3, 2),
             (4, None, None)),
            (None, (0, 9, 4, 3, 7, 8, 2, 6, 5, 1), (4, 4, 1),
             (8, None, None)),
            (None, (8, 3, 2, 7, 6, 5, 1, 0, 9, 4), (5, 1, 3),
             (6, None, None)),
            (None, (5, 4, 9, 0, 1, 2, 8, 3, 7, 6), (5, 2, 2),
             (8, None, None)),
            (None, (4, 5, 9, 8, 3, 7, 6, 2, 1, 0), (5, 3, 1),
             (2, None, None)),
            (None, (3, 4, 8, 9, 0, 5, 6, 7, 2, 1), (6, 1, 2),
             (8, None, None)),
            (None, (8, 4, 3, 2, 1, 7, 6, 5, 0, 9), (6, 2, 1),
             (4, None, None)),
            (None, (3, 2, 1, 0, 4, 9, 8, 7, 6, 5), (7, 1, 1),
             (8, None, None)),
        ],
    ],
)

# {1^2, 4^b, 5^c}: block 0 is {1,4,5}-growable over all (b,c) mod (4,5);
# block 1 {1,5}-growable; blocks 2-3 5-growable; block 4 1-growable.
U145_A2 = _entries(
    "u145-a2",
    (1, 4, 5),
    lambda bc: (2, bc[0], bc[1]),
    [
        [
            ((0, 0), (5, 9, 1, 6, 7, 2, 10, 3, 8, 4, 11, 0), (4, 5),
             (9, 4, 5)),
            ((0, 1), (5, 9, 1, 6, 2, 10, 11, 3, 7, 8, 4, 0), (8, 1),
             (9, 3, 5)),
            ((0, 2), (5, 6, 1, 10, 9, 0, 4, 8, 12, 3, 7, 2, 11), (8, 2),
             (8, 3, 5)),
            ((0, 3), (1, 11, 12, 2, 7, 3, 13, 4, 8, 9, 5, 0, 10, 6),
             (8, 3), (10, 5, 6)),
            ((0, 4), (1, 6, 7, 2, 9, 5, 0, 10, 3, 8, 4), (4, 4),
             (9, 3, 4)),
            ((1, 0), (7, 8, 3, 11, 2, 10, 6, 1, 5, 9, 4, 0, 12), (5, 5),
             (10, 6, 7)),
            ((1, 1), (10, 1, 6, 2, 11, 12, 3, 7, 8, 4, 0, 9, 5), (9, 1),
             (9, 3, 5)),
            ((1, 2), (5, 9, 13, 3, 7, 8, 4, 0, 10, 1, 6, 2, 12, 11),
             (9, 2), (9, 3, 5)),
            ((1, 3), (5, 9, 2, 7, 6, 1, 0, 4, 8, 3, 10), (5, 3),
             (9, 3, 5)),
            ((1, 4), (0, 1, 5, 9, 4, 11, 3, 8, 7, 2, 10, 6), (5, 4),
             (10, 4, 6)),
            ((2, 0), (4, 9, 13, 0, 10, 5, 1, 11, 6, 2, 3, 8, 12, 7),
             (6, 5), (1, 4, 7)),
            ((2, 1), (7, 11, 1, 5, 9, 10, 6, 2, 12, 13, 3, 8, 4, 0),
             (10, 1), (11, 3, 7)),
            ((2, 2), (1, 6, 2, 9, 5, 0, 10, 3, 7, 8, 4), (6, 2),
             (9, 3, 5)),
            ((2, 3), (5, 9, 1, 6, 2, 10, 3, 7, 8, 4, 11, 0), (6, 3),
             (9, 4, 5)),
            ((2, 4), (5, 6, 1, 10, 9, 0, 8, 4, 12, 3, 7, 2, 11), (6, 4),
             (8, 4, 5)),
            ((3, 0), (12, 13, 2, 6, 10, 0, 11, 1, 5, 9, 4, 14, 3, 8, 7),
             (7, 5), (10, 6, 7)),
            ((3, 1), (10, 3, 7, 8, 4, 0, 1, 6, 2, 9, 5), (7, 1),
             (9, 3, 5)),
            ((3, 2), (11, 3, 7, 2, 10, 6, 1, 0, 4, 8, 9, 5), (7, 2),
             (10, 3, 5)),
            ((3, 3), (11, 12, 3, 8, 4, 0, 9, 5, 1, 10, 2, 7, 6), (7, 3),
             (9, 3, 6)),
            ((3, 4), (11, 12, 2, 7, 6, 1, 10, 0, 4, 8, 3, 13, 9, 5),
             (7, 4), (9, 3, 5)),
        ],
        [
            ((0, 1), (12, 11, 3, 8, 4, 0, 5, 9, 1, 10, 2, 7, 6), (4, 6),
             (9, 5, 6)),
            ((0, 2), (3, 13, 4, 9, 10, 5, 0, 1, 6, 11, 7, 2, 12, 8),
             (4, 7), (12, 7, 8)),
            ((0, 3), (12, 2, 6, 1, 11, 7, 3, 13, 8, 9, 14, 10, 0, 5, 4),
             (4, 8), (7, 3, 4)),
            ((1, 1), (0, 5, 9, 8, 4, 13, 12, 3, 7, 2, 11, 1, 10, 6),
             (5, 6), (10, 5, 6)),
            ((1, 2), (4, 9, 5, 1, 12, 7, 2, 3, 8, 13, 14, 10, 0, 11, 6),
             (5, 7), (1, 5, 8)),
            ((2, 0), (10, 0, 5, 4, 14, 9, 8, 13, 3, 7, 12, 2, 6, 1, 11),
             (2, 10), (7, 10, 4)),
            ((2, 1), (2, 7, 0, 6, 1, 8, 3, 4, 9, 10, 5), (2, 6),
             (1, 4, 5)),
            ((2, 2), (5, 10, 11, 6, 1, 9, 4, 3, 8, 0, 7, 2), (2, 7),
             (1, 4, 5)),
            ((2, 3), (5, 10, 1, 6, 11, 12, 7, 2, 3, 8, 0, 9, 4), (2, 8),
             (1, 4, 5)),
            ((3, 0), (1, 6, 2, 8, 9, 3, 7, 0, 5, 4, 10), (3, 5),
             (7, None, 4)),
            ((3, 1), (2, 7, 0, 8, 3, 4, 9, 1, 5, 10, 11, 6), (3, 6),
             (1, 4, 6)),
            ((3, 2), (10, 2, 7, 3, 11, 12, 4, 8, 0, 9, 1, 6, 5), (3, 7),
             (8, 4, 5)),
            ((3, 3), (4, 9, 0, 1, 10, 5, 6, 11, 2, 12, 7, 3, 13, 8),
             (3, 8), (3, 6, 8)),
            ((3, 4), (0, 5, 10, 6, 1, 11, 7, 2, 12, 13, 3, 14, 4, 9, 8),
             (3, 9), (11, 7, 8)),
        ],
        [
            ((1, 0), (11, 2, 7, 12, 3, 8, 13, 4, 9, 10, 6, 1, 0, 5),
             (1, 10), (None, 9, 4)),
            ((1, 2), (8, 3, 2, 7, 1, 6, 0, 10, 4, 9, 5), (1, 7),
             (None, 4, 5)),
            ((1, 3), (6, 11, 4, 9, 8, 1, 2, 7, 3, 10, 5, 0), (1, 8),
             (None, 5, 6)),
            ((1, 4), (5, 10, 2, 7, 8, 3, 11, 6, 1, 0, 9, 4, 12), (1, 9),
             (None, 4, 5)),
        ],
        [
            ((2, 4), (6, 11, 2, 7, 12, 3, 8, 4, 5, 10, 1, 0, 9, 13),
             (2, 9), (None, 5, 6)),
        ],
        [
            ((0, 3), (5, 0, 6, 1, 7, 2, 3, 9, 8, 4), (4, 3),
             (4, None, None)),
            ((1, 2), (4, 8, 3, 9, 5, 0, 6, 7, 1, 2), (5, 2),
             (4, None, None)),
            ((2, 0), (9, 4, 0, 5, 6, 1, 7, 2, 3, 8), (2, 5),
             (7, None, None)),
            ((2, 1), (9, 3, 4, 0, 6, 5, 1, 7, 2, 8), (6, 1),
             (6, None, None)),
            ((3, 4), (9, 4, 5, 0, 1, 6, 2, 8, 3, 7), (3, 4),
             (8, None, None)),
        ],
    ],
)

# {1, 4^b, 5^c}: block 0 is {4,5}-growable over all (b,c) mod (4,5);
# block 1 the special (1, 11) row.
U145_A1 = _entries(
    "u145-a1",
    (1, 4, 5),
    lambda bc: (1, bc[0], bc[1]),
    [
        [
            ((0, 0), (4, 9, 5, 0, 1, 6, 10, 3, 7, 2, 8), (4, 5),
             (None, 3, 4)),
            ((0, 1), (9, 2, 7, 3, 10, 5, 1, 0, 8, 4, 11, 6), (4, 6),
             (None, 4, 6)),
            ((0, 2), (4, 9, 1, 5, 0, 8, 12, 11, 6, 10, 2, 7, 3), (4, 7),
             (None, 3, 4)),
            ((0, 3), (6, 10, 5, 0, 9, 13, 4, 8, 3, 12, 7, 2, 1, 11),
             (4, 8), (None, 5, 6)),
            ((0, 4), (3, 14, 4, 9, 5, 0, 10, 6, 1, 11, 12, 7, 2, 13, 8),
             (4, 9), (None, 7, 8)),
            ((1, 0), (6, 11, 3, 8, 0, 12, 7, 2, 10, 5, 1, 9, 4),
             (1, 10), (None, 4, 6)),
            ((1, 1), (4, 9, 5, 0, 8, 3, 12, 7, 11, 10, 1, 6, 2), (5, 6),
             (None, 3, 4)),
            ((1, 2), (12, 3, 7, 11, 2, 1, 6, 10, 0, 5, 9, 4, 13, 8),
             (5, 7), (None, 6, 8)),
            ((1, 3), (4, 9, 10, 3, 8, 2, 7, 1, 6, 0, 5), (1, 8),
             (None, 3, 4)),
            ((1, 4), (10, 3, 8, 1, 2, 7, 0, 5, 9, 4, 11, 6), (1, 9),
             (None, 5, 6)),
            ((2, 0), (7, 2, 11, 6, 1, 10, 5, 0, 9, 13, 12, 3, 8, 4),
             (2, 10), (None, 3, 4)),
            ((2, 1), (7, 11, 2, 12, 3, 8, 4, 13, 9, 5, 0, 1, 10, 6),
             (6, 6), (None, 6, 7)),
            ((2, 2), (1, 6, 0, 5, 10, 3, 7, 2, 8, 9, 4), (2, 7),
             (None, 3, 4)),
            ((2, 3), (9, 1, 2, 7, 0, 5, 10, 3, 8, 4, 11, 6), (2, 8),
             (None, 5, 6)),
            ((2, 4), (9, 4, 12, 3, 8, 0, 1, 6, 11, 7, 2, 10, 5), (2, 9),
             (None, 4, 5)),
            ((3, 0), (4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11, 10, 0, 5),
             (3, 10), (None, 3, 4)),
            ((3, 1), (4, 9, 3, 8, 2, 6, 10, 0, 5, 1, 7), (3, 6),
             (None, 3, 4)),
            ((3, 2), (1, 6, 10, 3, 8, 4, 11, 0, 7, 2, 9, 5), (3, 7),
             (None, 4, 5)),
            ((3, 3), (10, 5, 0, 4, 9, 1, 6, 11, 2, 3, 8, 12, 7), (3, 8),
             (None, 6, 7)),
            ((3, 4), (11, 6, 1, 2, 7, 12, 3, 8, 4, 13, 9, 0, 10, 5),
             (3, 9), (None, 4, 5)),
        ],
        [
            ((1, 1), (1, 6, 10, 11, 2, 7, 12, 3, 8, 13, 4, 9, 0, 5),
             (1, 11), (None, 9, 4)),
        ],
    ],
)

# {1, 4^b, 5^c} small-c cases, 4-growable only.
U145_4G = _entries(
    "u145-4g",
    (1, 4, 5),
    lambda bc: (1, bc[0], bc[1]),
    [
        [
            (None, (7, 3, 8, 4, 9, 0, 5, 1, 6, 2), (4, 4),
             (None, 4, None)),
            (None, (9, 4, 8, 3, 7, 2, 6, 0, 1, 5), (5, 3),
             (None, 4, None)),
            (None, (9, 10, 3, 7, 1, 5, 0, 6, 2, 8, 4), (5, 4),
             (None, 3, None)),
            (None, (4, 8, 9, 1, 6, 11, 3, 7, 2, 10, 5, 0), (5, 5),
             (None, 3, None)),
            (None, (7, 3, 8, 4, 0, 9, 5, 1, 6, 2), (6, 2),
             (None, 5, None)),
            (None, (2, 6, 1, 7, 0, 4, 8, 3, 10, 9, 5), (6, 3),
             (None, 3, None)),
            (None, (5, 6, 1, 9, 4, 0, 8, 3, 11, 7, 2, 10), (6, 4),
             (None, 3, None)),
            (None, (5, 10, 6, 1, 9, 0, 4, 8, 12, 11, 3, 7, 2), (6, 5),
             (None, 4, None)),
            (None, (7, 3, 9, 4, 8, 2, 6, 0, 1, 5), (7, 1),
             (None, 4, None)),
            (None, (8, 4, 0, 10, 3, 7, 1, 6, 2, 9, 5), (7, 2),
             (None, 4, None)),
            (None, (4, 8, 0, 1, 5, 9, 2, 6, 11, 7, 3, 10), (7, 3),
             (None, 7, None)),
            (None, (8, 3, 12, 0, 4, 9, 5, 1, 10, 2, 6, 11, 7), (7, 4),
             (None, 6, None)),
            (None, (5, 10, 0, 9, 13, 4, 8, 7, 3, 12, 2, 6, 1, 11),
             (7, 5), (None, 4, None)),
            (None, (7, 3, 10, 0, 4, 8, 1, 6, 2, 9, 5), (8, 1),
             (None, 3, None)),
            (None, (4, 8, 0, 5, 9, 1, 6, 2, 10, 11, 3, 7), (8, 2),
             (None, 3, None)),
            (None, (6, 10, 11, 2, 7, 3, 12, 8, 4, 0, 5, 9, 1), (8, 3),
             (None, 5, None)),
            (None, (4, 9, 8, 12, 3, 7, 11, 2, 6, 10, 1, 5, 0), (9, 2),
             (None, 3, None)),
            (None, (6, 10, 1, 5, 9, 0, 4, 8, 12, 11, 2, 7, 3), (10, 1),
             (None, 3, None)),
        ],
    ],
)

# {1^2, 3^c, 4^d}: block 0 is {3,4}-growable over all (c,d) mod (3,4);
# block 1 covers the exceptional small-d cases, 3-growable.
U1234_A2 = _entries(
    "u1234-a2",
    (1, 3, 4),
    lambda cd: (2, cd[0], cd[1]),
    [
        [
            ((0, 0), (3, 7, 1, 4, 0, 9, 2, 6, 5, 8), (3, 4),
             (None, 2, 3)),
            ((0, 1), (3, 7, 10, 2, 6, 5, 1, 9, 8, 4, 0), (3, 5),
             (None, 2, 5)),
            ((0, 2), (6, 9, 10, 2, 1, 5, 8, 0, 4, 7, 3, 11), (3, 6),
             (None, 5, 6)),
            ((0, 3), (1, 5, 6, 2, 8, 0, 3, 7, 4), (3, 3),
             (None, 3, 4)),
            ((1, 0), (3, 7, 11, 10, 6, 2, 1, 5, 9, 0, 4, 8), (1, 8),
             (None, 2, 7)),
            ((1, 1), (3, 6, 2, 7, 8, 4, 0, 1, 5), (1, 5),
             (None, 2, 4)),
            ((1, 2), (5, 9, 8, 4, 1, 7, 3, 2, 6, 0), (1, 6),
             (None, 4, 5)),
            ((1, 3), (4, 8, 7, 3, 0, 1, 5, 9, 2, 6, 10), (1, 7),
             (None, 3, 6)),
            ((2, 0), (4, 8, 0, 3, 7, 6, 1, 5, 2), (2, 4),
             (None, 3, 4)),
            ((2, 1), (5, 9, 3, 6, 2, 8, 7, 4, 0, 1), (2, 5),
             (None, 4, 5)),
            ((2, 2), (4, 0, 10, 6, 9, 2, 5, 1, 8, 7, 3), (2, 6),
             (None, 2, 3)),
            ((2, 3), (8, 0, 4, 3, 11, 7, 6, 9, 1, 5, 2, 10), (2, 7),
             (None, 8, 3)),
        ],
        [
            ((0, 1), (5, 8, 9, 2, 6, 3, 0, 1, 4, 7), (6, 1),
             (None, 4, 5)),
            ((0, 2), (6, 3, 2, 5, 1, 4, 0, 7), (3, 2),
             (None, 3, None)),
            ((1, 0), (8, 5, 6, 2, 10, 9, 1, 4, 0, 7, 3), (4, 4),
             (None, 2, 3)),
            ((1, 1), (2, 5, 6, 3, 7, 4, 1, 0), (4, 1),
             (None, 4, None)),
            ((1, 2), (3, 7, 8, 5, 2, 1, 4, 0, 6), (4, 2),
             (None, 2, 3)),
            ((1, 3), (2, 6, 3, 0, 9, 5, 1, 8, 7, 4), (4, 3),
             (None, 3, 5)),
            ((2, 1), (0, 4, 1, 7, 8, 2, 5, 6, 3), (5, 1),
             (None, 2, 3)),
            ((2, 2), (5, 8, 1, 4, 7, 3, 2, 6, 9, 0), (5, 2),
             (None, 4, 5)),
            ((2, 3), (7, 6, 2, 3, 0, 4, 1, 5), (2, 3),
             (None, 2, None)),
        ],
    ],
)

# {1, 3^c, 4^d}: block 0 is {2,3,4}-growable over all (c,d) mod (3,4);
# block 1 extra c=1 rows; block 2 {2,3}-growable small-d; block 3 the
# 2-growable (2,4) row.
U134 = _entries(
    "u134",
    (1, 2, 3, 4),
    lambda cd: (1, 0, cd[0], cd[1]),
    [
        [
            ((0, 0), (3, 6, 1, 4, 0, 5, 2, 7, 8), (3, 4),
             (None, 6, 2, 3)),
            ((0, 1), (3, 6, 2, 8, 4, 1, 7, 0, 9, 5), (3, 5),
             (None, 2, 4, 5)),
            ((0, 2), (4, 5, 1, 8, 0, 3, 7, 10, 6, 2, 9), (3, 6),
             (None, 7, 3, 4)),
            ((0, 3), (3, 7, 6, 2, 10, 1, 5, 9, 0, 4, 8, 11), (3, 7),
             (None, 9, 2, 6)),
            ((1, 0), (4, 7, 0, 6, 3, 9, 8, 2, 5, 1), (4, 4),
             (None, 7, 3, 4)),
            ((1, 1), (6, 9, 2, 10, 3, 7, 4, 0, 1, 8, 5), (4, 5),
             (None, 4, 5, 6)),
            ((1, 2), (2, 6, 1, 5, 0, 3, 7, 8, 4), (1, 6),
             (None, 1, 3, 4)),
            ((1, 3), (4, 7, 1, 5, 0, 8, 2, 6, 3), (4, 3),
             (None, 2, 3, 4)),
            ((2, 0), (7, 11, 3, 4, 0, 8, 5, 1, 9, 6, 2, 10), (2, 8),
             (None, 6, 8, 3)),
            ((2, 1), (3, 7, 2, 6, 0, 1, 5, 8, 4), (2, 5),
             (None, 2, 3, 4)),
            ((2, 2), (4, 5, 1, 8, 2, 6, 0, 7, 3, 9), (2, 6),
             (None, 7, 3, 4)),
            ((2, 3), (4, 8, 1, 0, 7, 10, 3, 6, 2, 9, 5), (2, 7),
             (None, 3, 4, 5)),
        ],
        [
            ((1, 0), (4, 5, 1, 8, 0, 7, 3, 10, 6, 2, 9), (1, 8),
             (None, 7, 3, 4)),
            ((1, 3), (3, 7, 1, 4, 8, 2, 6, 0, 9, 5), (1, 7),
             (None, 2, 4, 5)),
        ],
        [
            ((0, 1), (7, 1, 4, 5, 8, 2, 6, 0, 3), (6, 1),
             (None, 6, 2, None)),
            ((0, 2), (5, 6, 3, 9, 2, 8, 1, 4, 7, 0), (6, 2),
             (None, 4, 5, None)),
            ((0, 3), (0, 3, 7, 6, 2, 5, 1, 4), (3, 3),
             (None, 1, 2, None)),
            ((1, 1), (5, 2, 9, 8, 1, 4, 7, 0, 6, 3), (7, 1),
             (None, 7, 4, None)),
            ((1, 2), (0, 5, 2, 6, 1, 4, 3, 7), (4, 2),
             (None, 2, 3, None)),
            ((2, 0), (10, 9, 2, 6, 3, 0, 7, 4, 1, 8, 5), (5, 4),
             (None, 8, 4, 5)),
            ((2, 1), (2, 5, 0, 1, 6, 3, 7, 4), (5, 1),
             (None, 3, 4, None)),
            ((2, 2), (2, 5, 8, 7, 3, 0, 6, 1, 4), (5, 2),
             (None, 1, 3, None)),
            ((2, 3), (3, 0, 6, 7, 1, 4, 8, 5, 2, 9), (5, 3),
             (None, 5, 2, None)),
        ],
        [
            ((2, 0), (2, 6, 7, 3, 0, 4, 1, 5), (2, 4),
             (None, 1, None, None)),
        ],
    ],
)

# {1, 2^b, 3^c, 4^d} with b >= 2 even.
U1234_BEVEN = _entries(
    "u1234-beven",
    (1, 2, 3, 4),
    lambda bcd: (1,) + tuple(bcd),
    [
        [
            ((1, 1), (7, 8, 2, 6, 0, 4, 1, 9, 5, 3), (2, 1, 5),
             (None, 6, 2, 3)),
        ],
        [
            ((0, 1), (6, 4, 1, 2, 5, 7, 3, 0), (2, 3, 1),
             (None, 5, 2, None)),
            ((0, 2), (4, 7, 5, 1, 8, 0, 3, 6, 2), (2, 3, 2),
             (None, 1, 3, 4)),
            ((1, 0), (1, 5, 8, 6, 2, 7, 0, 4, 3), (2, 1, 4),
             (None, 6, 2, 3)),
            ((1, 1), (3, 6, 0, 4, 1, 8, 7, 5, 2), (2, 4, 1),
             (None, 6, 2, 3)),
            ((1, 3), (1, 0, 4, 6, 2, 5, 3, 7), (2, 1, 3),
             (None, 3, 4, None)),
            ((2, 2), (7, 6, 2, 4, 1, 5, 3, 0), (2, 2, 2),
             (None, 1, 3, None)),
            ((2, 3), (3, 5, 7, 8, 2, 6, 1, 4, 0), (2, 2, 3),
             (None, 6, 2, 3)),
        ],
        [
            ((1, 1), (0, 3, 1, 7, 5, 4, 2, 6), (4, 1, 1),
             (None, 1, 2, None)),
            ((1, 2), (3, 5, 7, 8, 6, 2, 0, 4, 1), (4, 1, 2),
             (None, 6, 2, 3)),
            ((2, 1), (1, 3, 5, 8, 2, 4, 0, 7, 6), (4, 2, 1),
             (None, 6, 2, None)),
        ],
    ],
)

# {1, 2^b, 3^c, 4^d} with b >= 1 odd.
U1234_BODD = _entries(
    "u1234-bodd",
    (1, 2, 3, 4),
    lambda bcd: (1,) + tuple(bcd),
    [
        [
            ((0, 0), (9, 2, 6, 0, 4, 1, 7, 8, 5, 3), (1, 3, 4),
             (None, 6, 2, 3)),
            ((0, 1), (5, 8, 1, 9, 10, 2, 6, 4, 0, 7, 3), (1, 3, 5),
             (None, 8, 4, 5)),
            ((0, 2), (3, 5, 9, 1, 4, 0, 8, 7, 10, 6, 2, 11), (1, 3, 6),
             (None, 6, 2, 3)),
            ((0, 3), (4, 7, 3, 0, 1, 5, 8, 6, 2), (1, 3, 3),
             (None, 1, 3, 4)),
            ((1, 0), (10, 6, 2, 11, 3, 7, 9, 1, 5, 4, 0, 8), (1, 1, 8),
             (None, 7, 8, 4)),
            ((1, 1), (2, 6, 7, 3, 0, 5, 1, 8, 4), (1, 1, 5),
             (None, 1, 3, 4)),
            ((1, 2), (3, 4, 0, 6, 2, 8, 1, 5, 9, 7), (1, 1, 6),
             (None, 6, 2, 3)),
            ((1, 3), (9, 2, 6, 5, 1, 10, 3, 7, 0, 8, 4), (1, 1, 7),
             (None, 8, 3, 5)),
            ((2, 0), (2, 6, 1, 4, 0, 8, 5, 7, 3), (1, 2, 4),
             (None, 1, 2, 3)),
            ((2, 1), (8, 1, 5, 4, 0, 6, 2, 9, 7, 3), (1, 2, 5),
             (None, 7, 2, 4)),
            ((2, 2), (3, 7, 0, 4, 6, 10, 2, 5, 1, 8, 9), (1, 2, 6),
             (None, 7, 2, 4)),
            ((2, 3), (7, 11, 3, 4, 0, 9, 1, 5, 8, 10, 6, 2), (1, 2, 7),
             (None, 6, 8, 3)),
        ],
        [
            ((0, 1), (4, 7, 9, 2, 6, 3, 0, 1, 8, 5), (1, 6, 1),
             (None, 3, 4, 5)),
            ((0, 2), (2, 5, 1, 0, 6, 3, 7, 4), (1, 3, 2),
             (None, 3, 4, None)),
            ((1, 0), (3, 7, 10, 8, 0, 4, 5, 1, 9, 6, 2), (1, 4, 4),
             (None, 7, 2, 4)),
            ((1, 1), (0, 6, 3, 7, 4, 1, 2, 5), (1, 4, 1),
             (None, 2, 4, None)),
            ((1, 2), (3, 7, 6, 0, 4, 1, 8, 5, 2), (1, 4, 2),
             (None, 1, 2, 3)),
            ((1, 3), (3, 6, 9, 7, 0, 1, 5, 2, 8, 4), (1, 4, 3),
             (None, 2, 3, 4)),
            ((2, 1), (3, 6, 7, 1, 4, 0, 2, 5, 8), (1, 5, 1),
             (None, 6, 2, 3)),
            ((2, 2), (7, 1, 4, 0, 2, 5, 8, 9, 6, 3), (1, 5, 2),
             (None, 6, 2, 3)),
            ((2, 3), (4, 0, 3, 1, 5, 2, 6, 7), (1, 2, 3),
             (None, 1, 2, None)),
        ],
        [
            ((1, 0), (3, 7, 6, 2, 0, 4, 1, 5), (1, 1, 4),
             (None, 1, None, None)),
        ],
        [
            ((0, 1), (3, 6, 8, 7, 5, 2, 0, 4, 1), (3, 3, 1),
             (None, 6, 2, 3)),
            ((1, 0), (4, 6, 0, 8, 7, 3, 9, 1, 5, 2), (3, 1, 4),
             (None, 7, 3, 4)),
            ((1, 1), (4, 2, 0, 8, 6, 3, 1, 5, 7), (5, 1, 1),
             (None, 6, 3, None)),
            ((1, 2), (4, 6, 2, 5, 3, 7, 1, 0), (3, 1, 2),
             (None, 3, 4, None)),
            ((1, 3), (2, 6, 7, 0, 3, 5, 1, 8, 4), (3, 1, 3),
             (None, 1, 3, 4)),
            ((2, 1), (5, 2, 0, 1, 7, 3, 6, 4), (3, 2, 1),
             (None, 3, 4, None)),
            ((2, 2), (4, 6, 0, 2, 5, 1, 8, 7, 3), (3, 2, 2),
             (None, 2, 3, 4)),
        ],
    ],
)

# {2^b, 3^c, 4^d} with b >= 1 odd.
U234_BODD = _entries(
    "u234-bodd",
    (2, 3, 4),
    lambda bcd: tuple(bcd),
    [
        [
            ((0, 0), (2, 6, 8, 5, 0, 4, 1, 7, 3), (1, 3, 4),
             (1, 2, 3)),
            ((0, 1), (2, 5, 1, 8, 4, 0, 6, 9, 7, 3), (1, 3, 5),
             (1, 2, 4)),
            ((0, 2), (3, 6, 10, 7, 0, 9, 2, 5, 1, 8, 4), (1, 3, 6),
             (2, 3, 4)),
            ((0, 3), (6, 10, 2, 5, 9, 0, 8, 4, 1, 3, 11, 7), (1, 3, 7),
             (5, 6, 7)),
            ((1, 0), (3, 6, 9, 5, 2, 8, 0, 4, 1, 7), (1, 4, 4),
             (6, 2, 3)),
            ((1, 1), (2, 5, 9, 6, 3, 10, 8, 1, 4, 0, 7), (1, 4, 5),
             (6, 7, 3)),
            ((1, 2), (3, 7, 2, 6, 0, 5, 1, 8, 4), (1, 1, 6),
             (2, 3, 4)),
            ((1, 3), (2, 6, 0, 4, 8, 1, 5, 9, 7, 3), (1, 1, 7),
             (1, 2, 5)),
            ((2, 0), (10, 2, 6, 3, 11, 7, 5, 1, 9, 0, 8, 4), (1, 2, 8),
             (8, 3, 5)),
            ((2, 1), (7, 11, 8, 12, 3, 5, 9, 0, 4, 1, 10, 6, 2),
             (1, 2, 9), (6, 7, 3)),
            ((2, 2), (2, 6, 0, 3, 7, 9, 5, 1, 8, 4), (1, 2, 6),
             (1, 3, 5)),
            ((2, 3), (9, 2, 5, 1, 8, 0, 7, 3, 10, 6, 4), (1, 2, 7),
             (7, 3, 4)),
        ],
        [
            ((0, 1), (3, 6, 0, 4, 1, 7, 5, 2, 8), (1, 6, 1),
             (6, 2, 3)),
            ((0, 2), (4, 7, 1, 5, 2, 9, 6, 3, 0, 8), (1, 6, 2),
             (7, 3, 4)),
            ((0, 3), (0, 4, 1, 7, 3, 6, 2, 5), (1, 3, 3),
             (2, 3, None)),
            ((1, 1), (3, 6, 9, 2, 5, 1, 8, 0, 7, 4), (1, 7, 1),
             (7, 3, 4)),
            ((1, 2), (7, 1, 4, 0, 5, 2, 6, 3), (1, 4, 2),
             (2, 3, None)),
            ((1, 3), (3, 6, 0, 4, 2, 7, 1, 5, 8), (1, 4, 3),
             (6, 2, 3)),
            ((2, 0), (6, 10, 2, 9, 1, 4, 8, 0, 3, 7, 5), (1, 5, 4),
             (4, 5, 6)),
            ((2, 1), (2, 6, 1, 3, 7, 4, 0, 5, 8), (1, 2, 5),
             (1, 4, None)),
            ((2, 1), (1, 4, 7, 3, 6, 0, 5, 2), (1, 5, 1),
             (2, 4, None)),
            ((2, 2), (3, 6, 0, 4, 1, 8, 5, 2, 7), (1, 5, 2),
             (6, 2, 3)),
            ((2, 3), (9, 6, 2, 8, 1, 5, 3, 0, 7, 4), (1, 5, 3),
             (7, 3, 4)),
        ],
        [
            ((2, 0), (7, 3, 6, 2, 4, 0, 5, 1), (1, 2, 4),
             (3, None, None)),
        ],
        [
            ((0, 1), (1, 6, 0, 2, 5, 3, 7, 4), (3, 3, 1),
             (3, 4, None)),
            ((0, 2), (7, 1, 4, 0, 2, 6, 8, 5, 3), (3, 3, 2),
             (6, 2, 3)),
            ((1, 1), (3, 6, 8, 2, 5, 7, 0, 4, 1), (3, 4, 1),
             (6, 2, 3)),
            ((2, 1), (5, 7, 3, 1, 8, 2, 0, 6, 4), (5, 2, 1),
             (4, 5, None)),
            ((2, 2), (2, 4, 1, 5, 7, 3, 0, 6), (3, 2, 2),
             (1, 2, None)),
            ((2, 3), (3, 5, 7, 0, 4, 1, 6, 2, 8), (3, 2, 3),
             (6, 2, 3)),
        ],
        [
            ((1, 0), (3, 7, 5, 0, 4, 1, 8, 6, 2), (3, 1, 4),
             (1, 2, 3)),
            ((1, 1), (5, 7, 1, 3, 0, 6, 2, 4), (5, 1, 1),
             (1, 2, None)),
            ((1, 2), (4, 6, 8, 1, 5, 2, 0, 7, 3), (5, 1, 2),
             (2, 3, 4)),
            ((1, 3), (1, 7, 3, 5, 2, 6, 4, 0), (3, 1, 3),
             (3, 4, None)),
            ((1, 4), (5, 9, 1, 7, 3, 0, 8, 2, 6, 4), (3, 1, 5),
             (3, 4, 5)),
        ],
    ],
)

# {2^b, 3^c, 4^d} with b >= 2 even.
U234_BEVEN = _entries(
    "u234-beven",
    (2, 3, 4),
    lambda bcd: tuple(bcd),
    [
        [
            ((0, 0), (2, 5, 9, 6, 8, 0, 4, 1, 7, 3), (2, 3, 4),
             (1, 2, 3)),
            ((0, 1), (8, 0, 7, 3, 10, 1, 5, 2, 9, 6, 4), (2, 3, 5),
             (7, 3, 4)),
            ((0, 2), (8, 0, 4, 2, 10, 1, 5, 7, 11, 3, 6, 9), (2, 3, 6),
             (7, 8, 3)),
            ((0, 3), (3, 6, 1, 5, 8, 2, 4, 0, 7), (2, 3, 3),
             (6, 2, 3)),
            ((1, 0), (4, 8, 0, 2, 6, 10, 1, 9, 5, 3, 11, 7), (2, 1, 8),
             (3, 6, 7)),
            ((1, 1), (4, 8, 5, 1, 6, 2, 0, 7, 3), (2, 1, 5),
             (2, 3, 4)),
            ((1, 2), (4, 8, 0, 2, 6, 9, 5, 1, 7, 3), (2, 1, 6),
             (2, 3, 5)),
            ((1, 3), (4, 8, 1, 5, 7, 0, 9, 2, 6, 3, 10), (2, 1, 7),
             (8, 3, 5)),
            ((2, 0), (2, 6, 0, 3, 7, 5, 1, 8, 4), (2, 2, 4),
             (1, 3, 4)),
            ((2, 1), (4, 7, 1, 5, 3, 9, 6, 2, 8, 0), (2, 2, 5),
             (7, 3, 4)),
            ((2, 2), (5, 8, 10, 3, 7, 0, 4, 6, 2, 9, 1), (2, 2, 6),
             (8, 4, 5)),
            ((2, 3), (10, 2, 6, 8, 0, 9, 5, 1, 11, 3, 7, 4), (2, 2, 7),
             (9, 3, 6)),
        ],
        [
            ((0, 1), (4, 7, 9, 6, 3, 0, 8, 1, 5, 2), (2, 6, 1),
             (7, 3, 4)),
            ((0, 2), (2, 5, 7, 3, 6, 0, 4, 1), (2, 3, 2),
             (2, 3, None)),
            ((1, 0), (0, 3, 7, 10, 8, 1, 5, 2, 9, 6, 4), (2, 4, 4),
             (7, 3, 4)),
            ((1, 1), (0, 3, 1, 6, 2, 5, 7, 4), (2, 4, 1),
             (5, 2, None)),
            ((1, 2), (3, 6, 1, 4, 0, 7, 5, 2, 8), (2, 4, 2),
             (6, 2, 3)),
            ((1, 3), (8, 1, 5, 2, 0, 7, 3, 9, 6, 4), (2, 4, 3),
             (7, 3, 4)),
            ((2, 1), (7, 5, 2, 8, 1, 4, 0, 6, 3), (2, 5, 1),
             (6, 2, 3)),
            ((2, 2), (9, 1, 5, 2, 8, 6, 3, 0, 7, 4), (2, 5, 2),
             (7, 3, 4)),
            ((2, 3), (7, 3, 6, 4, 0, 2, 5, 1), (2, 2, 3),
             (3, 4, None)),
        ],
        [
            ((1, 0), (0, 4, 2, 6, 1, 5, 3, 7), (2, 1, 4),
             (3, None, None)),
        ],
        [
            ((0, 1), (2, 5, 7, 0, 4, 1, 8, 6, 3), (4, 3, 1),
             (6, 2, 3)),
            ((1, 1), (7, 5, 2, 0, 4, 6, 8, 1, 3), (6, 1, 1),
             (6, 2, None)),
            ((1, 2), (7, 1, 3, 5, 2, 6, 4, 0), (4, 1, 2),
             (3, 4, None)),
            ((1, 3), (3, 7, 0, 4, 6, 8, 1, 5, 2), (4, 1, 3),
             (1, 2, 4)),
            ((2, 1), (1, 3, 0, 6, 2, 4, 7, 5), (4, 2, 1),
             (5, 2, None)),
            ((2, 2), (8, 6, 2, 0, 4, 1, 7, 5, 3), (4, 2, 2),
             (6, 2, 3)),
        ],
    ],
)

# {1^a, 3^b, 6^c}: the six named {1,3}-growable starters g1..g6.
U136 = _entries(
    "u136",
    (1, 3, 6),
    lambda abc: abc,
    [
        [
            (None, (6, 5, 1, 4, 0, 3, 2), (2, 4, 0), (4, 2, None), "g1"),
            (None, (3, 0, 6, 2, 5, 1, 4), (1, 5, 0), (5, 2, None), "g2"),
            (None, (5, 2, 7, 0, 3, 6, 1, 4), (1, 6, 0), (6, 2, None),
             "g3"),
            (None, (2, 12, 9, 6, 3, 0, 10, 7, 4, 5, 8, 1, 11),
             (1, 10, 1), (3, 5, None), "g4"),
            (None, (5, 2, 13, 10, 7, 8, 11, 0, 3, 6, 9, 12, 4, 1),
             (1, 11, 1), (6, 8, None), "g5"),
            (None, (9, 6, 3, 0, 10, 7, 8, 11, 1, 4, 5, 12, 2),
             (2, 9, 1), (6, 8, None), "g6"),
        ],
    ],
)

# Sequences exhibited inside proofs rather than in a table.
INPROOF = _entries(
    "inproof",
    (1, 2, 3, 4, 5, 6),
    lambda counts: tuple(counts),
    [
        [
            # closes the {1^2, 3, 4^4} case; no growth needed
            (None, (0, 4, 5, 1, 2, 6, 3, 7), (2, 0, 1, 4, 0, 0),
             (None,) * 6, "u1234-small"),
            # 4-growable; basis for {2, 3, 4^(4k+8)}
            (None, (2, 6, 10, 3, 7, 4, 0, 9, 5, 1, 8),
             (0, 1, 1, 8, 0, 0),
             (None, None, None, 4, None, None), "u234-4g"),
            # closes the {1, 4^3, 5^5} case; no growth needed
            (None, (0, 5, 9, 4, 8, 3, 7, 2, 1, 6), (1, 0, 0, 3, 5, 0),
             (None,) * 6, "u145-small"),
        ],
    ],
)

# Worked demonstration seeds used by the documentation and tests.
DEMO = _entries(
    "demo",
    (1, 2, 3, 4),
    lambda counts: tuple(counts),
    [
        [
            (None, (6, 4, 3, 0, 7, 1, 5, 2, 8), (1, 2, 4, 1),
             (None, None, 2, None), "demo-9"),
            # also 1-growable at 9
            (None, (0, 3, 6, 2, 1, 13, 10, 11, 14, 12, 9, 8, 5, 4, 7),
             (4, 1, 8, 1), (8, 3, 11, 5), "demo-15"),
        ],
    ],
)

# Computed repair seeds.  The relocation of grow points across a grow
# is not always growability-preserving (an edge at the wrap threshold
# can start lengthening once v grows), and a few of the hand-built rows
# above dead-end because of it: no sequence of grows from them reaches
# some admissible targets in their congruence class.  Each entry below
# is a brute-forced, fully verified realization of the smallest such
# target, declared with the grow points it actually has, and is
# consulted only after the hand-built tables.  STABLE, after it, covers
# the targets whose fixed schedule breaks on a hand-built row.
SUPPLEMENT = _entries(
    "supplement",
    (1, 2, 3, 4, 5),
    lambda counts: tuple(counts),
    [
        [
            (None, (0, 1, 3, 2, 8, 6, 4, 7, 5),
             (2, 4, 2, 0, 0),
             (8, 2, 6, None, None), "s0"),
            (None, (1, 6, 7, 2, 9, 10, 3, 8, 0, 5, 4, 11),
             (3, 0, 0, 1, 7),
             (8, None, None, 11, 4), "s1"),
            (None, (0, 1, 4, 2, 11, 8, 5, 3, 12, 9, 6, 10, 7),
             (1, 2, 6, 3, 0),
             (5, 12, 3, 9, None), "s2"),
            (None, (0, 5, 4, 12, 8, 3, 11, 10, 2, 7, 6, 1, 9),
             (3, 0, 0, 1, 8),
             (8, None, None, 11, 4), "s3"),
            (None, (0, 1, 2, 3, 4, 5, 7, 9, 6, 8, 10, 12, 11),
             (6, 5, 1, 0, 0),
             (0, 11, 8, None, None), "s4"),
            (None, (0, 2, 4, 1, 10, 7, 11, 8, 5, 3, 12, 9, 6),
             (0, 3, 6, 3, 0),
             (None, 6, 3, 10, None), "s5"),
            (None, (0, 2, 5, 8, 4, 7, 10, 12, 9, 6, 3, 1, 11),
             (0, 3, 8, 1, 0),
             (None, 1, 11, 7, None), "s6"),
            (None, (0, 2, 4, 1, 11, 7, 5, 8, 10, 6, 3, 12, 9),
             (0, 4, 5, 3, 0),
             (None, 12, 3, 9, None), "s7"),
            (None, (0, 2, 4, 1, 11, 8, 5, 3, 12, 9, 7, 10, 6),
             (0, 4, 6, 2, 0),
             (None, 6, 3, 9, None), "s8"),
            (None, (0, 5, 10, 11, 6, 1, 2, 7, 12, 3, 13, 4, 9, 8),
             (3, 0, 0, 1, 9),
             (12, None, None, 7, 8), "s9"),
            (None, (0, 5, 10, 9, 4, 14, 13, 3, 8, 7, 2, 12, 1, 11, 6),
             (3, 0, 0, 1, 10),
             (11, None, None, 5, 6), "s10"),
        ],
    ],
)

# Stable seeds, consulted last.  A fixed schedule from a hand-built row
# can still break a point it needs (same wrap-threshold cause), and
# four families dead-end that way: {1^a, 2^b, 3} with a >= 2 from the
# u123-main block-1 row, {1, 2^b, 3^c, 4^3} and {1, 2^3, 3^c, 4} from
# u1234-bodd block 1, and {1, 2^2, 3^c, 4^2} from u134 block 2.  Each
# row below realizes the base of one family (the least multiset whose
# grows reach every member), found by local_search and growth_points
# (tools/stable_seeds.py).  Unlike a SUPPLEMENT row, which declares a
# point for each of its lengths, a STABLE row declares only the points
# of the x values its family varies, on purpose: every schedule over
# the declared points must grow without a break, and each extra point
# would add schedules to keep stable.  A one-point row's schedule is one
# k-fold grow at that point, whose growability window_endpoints checks
# on the seed itself, so no earlier grow moves it.  The two-point rows
# survive every schedule ((x1, i), (x2, j)) with i, j < 12, which
# tests/test_seeds.py checks; tests/test_solvers.py replays members of
# each family up to v = 1002.
STABLE = _entries(
    "stable",
    (1, 2, 3, 4, 5),
    lambda counts: tuple(counts),
    [
        [
            (None, (1, 4, 0, 2, 3, 5),
             (1, 3, 1, 0, 0),
             (0, 4, None, None, None), "st1"),
            (None, (9, 3, 4, 1, 7, 5, 8, 0, 2, 6),
             (1, 3, 2, 3, 0),
             (None, 8, 3, None, None), "st2"),
            (None, (6, 4, 7, 1, 3, 0, 8, 9, 2, 5),
             (1, 3, 4, 1, 0),
             (None, None, 2, None, None), "st3"),
            (None, (0, 6, 4, 7, 1, 8, 5, 3, 2, 9),
             (1, 2, 4, 2, 0),
             (None, None, 6, None, None), "st4"),
        ],
    ],
)

SEED_TABLES: dict[str, tuple[SeedEntry, ...]] = {
    "u123-main": U123_MAIN,
    "u123-1g": U123_1G,
    "u145-a3": U145_A3,
    "u145-a2": U145_A2,
    "u145-a1": U145_A1,
    "u145-4g": U145_4G,
    "u1234-a2": U1234_A2,
    "u134": U134,
    "u1234-beven": U1234_BEVEN,
    "u1234-bodd": U1234_BODD,
    "u234-bodd": U234_BODD,
    "u234-beven": U234_BEVEN,
    "u136": U136,
    "inproof": INPROOF,
    "supplement": SUPPLEMENT,
    "stable": STABLE,
    "demo": DEMO,
}


def iter_seeds():
    for table in SEED_TABLES.values():
        yield from table


def table(table_id: str) -> tuple[SeedEntry, ...]:
    try:
        return SEED_TABLES[table_id]
    except KeyError:
        raise KeyError(f"no-such-seed table: {table_id}") from None


def lookup_seed(underlying_set, variant=None):
    """First entry (in table order) matching the underlying length set
    and, if given, the variant selector.  variant may be a table id, a
    block variant like "main", or a row name like "g1"."""
    want = frozenset(underlying_set)
    for entry in iter_seeds():
        if want not in (entry.multiset.underlying_set, set(entry.lengths)):
            continue
        if variant is not None and variant not in (
            entry.variant,
            entry.table_id,
        ):
            continue
        return entry
    raise KeyError(
        f"no-such-seed: set={sorted(want)} variant={variant}"
    )


@dataclass(frozen=True)
class SeedReport:
    entry: SeedEntry
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def verify_all_seeds() -> list[SeedReport]:
    """Check every entry; failures come back as data, not exceptions."""
    return [
        SeedReport(entry, tuple(entry.check())) for entry in iter_seeds()
    ]
