"""Seed realizations: every explicit hand-built or computed realization,
stored as data with its declared grow points, and the check that they
verify.

Each `_entries` call registers one table in SEED_TABLES under its id:
its rows as text, in blocks, in source order.  The tables keep source
order too: `iter_seeds` and `seeds dump` walk them in it.  A row is one
line, "<multiset> | <path> | <x:m ...>[ | <variant>]", for example
"1 2^3 3 | 1 4 0 2 3 5 | 1:0 2:4 | st1": the multiset in the text
LengthMultiset.parse reads and `seeds dump` prints, the path's vertex
labels in visiting order, and the declared grow points x:m in ascending
x, or "-" when there are none.  A length with no declared point simply
has no x:m.  parse_row reads a row and format_row prints one.  Rows keep
the block structure of the original tables (horizontal-rule-separated
parts with different growability guarantees) in their default variant
names.

`table` parses a table into SeedEntry objects the first time it is
asked for it and returns those same objects after that, so importing
this module parses no row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    Certificate,
    GrowPoint,
    HamPath,
    LengthMultiset,
    certificate,
)


@dataclass(frozen=True)
class SeedEntry:
    table_id: str
    variant: str  # "main" for the primary block, "blockN" or a name
    multiset: LengthMultiset
    path: HamPath
    declared_grow_points: tuple[GrowPoint, ...]

    @cached_property
    def certificate(self) -> Certificate:
        """The entry as a Certificate traced ("seed", {table, variant}),
        built and checked on first use and shared after that; raises
        PathError or NotGrowableError when the entry is unsound."""
        step = ("seed", {"table": self.table_id, "variant": self.variant})
        return certificate(
            self.path, self.multiset, self.declared_grow_points, [step]
        )


# table id -> blocks of row text, in source order
SEED_TABLES: dict[str, tuple[tuple[str, ...], ...]] = {}
# table id -> its SeedEntry objects, filled by table() on first use
_parsed: dict[str, tuple[SeedEntry, ...]] = {}


def _entries(table_id, blocks) -> None:
    """Register blocks, lists of row texts, as seed table table_id, which
    must be new.  Nothing is parsed until table() asks for it."""
    if table_id in SEED_TABLES:
        raise ValueError(f"seed table {table_id} registered twice")
    SEED_TABLES[table_id] = tuple(map(tuple, blocks))


def parse_row(text: str):
    """(multiset, path, grow points, variant or None) of one row; raises
    ValueError when the row is malformed.  The multiset, path and
    points are checked as values here; whether the path realizes the
    multiset and the points hold is the entry's Certificate's check."""
    fields = [field.strip() for field in text.split("|")]
    if len(fields) not in (3, 4) or "" in fields:
        raise ValueError(f"need 3 or 4 non-empty fields: {text!r}")
    multiset = LengthMultiset.parse(fields[0])
    path = HamPath(tuple(map(int, fields[1].split())))
    points: list[GrowPoint] = []
    for token in () if fields[2] == "-" else fields[2].split():
        x, _, m = token.partition(":")
        try:
            point = GrowPoint(int(x), int(m))
        except ValueError:
            raise ValueError(f"bad grow point {token!r}, need x:m") from None
        if points and point.x <= points[-1].x:
            raise ValueError(f"grow point {token} repeats or lowers x")
        points.append(point)
    variant = fields[3] if len(fields) == 4 else None
    return multiset, path, tuple(points), variant


def format_row(multiset, path, points, variant=None) -> str:
    """The row text that parse_row reads back as (multiset, path,
    points in ascending x, variant)."""
    fields = [
        multiset.format(),
        " ".join(map(str, path.vertices)),
        " ".join(f"{gp.x}:{gp.m}" for gp in sorted(points)) or "-",
    ]
    if variant is not None:
        fields.append(variant)
    return " | ".join(fields)


def _parse_table(table_id, blocks) -> tuple[SeedEntry, ...]:
    """The entries of blocks' rows; a row without a variant is "main" in
    block 0 and "blockN" in block N.  A malformed row raises ValueError
    naming table_id and the row's index in the table."""
    out = []
    for block_no, rows in enumerate(blocks):
        default = "main" if block_no == 0 else f"block{block_no}"
        for text in rows:
            try:
                multiset, path, points, variant = parse_row(text)
            except ValueError as exc:
                raise ValueError(
                    f"seed table {table_id} row {len(out)}: {exc}"
                ) from exc
            out.append(
                SeedEntry(table_id, variant or default, multiset, path, points)
            )
    return tuple(out)


# {1, 2^b, 3^c}: block 0 is {1,2,3}-growable, block 1 covers the small
# cases with fewer grow points.  Congruences of (b, c) mod (2, 3).
_entries(
    "u123-main",
    [
        [
            "1 2^2 3^3 | 2 4 1 5 3 0 6 | 1:5 2:1 3:3",
            "1 2^2 3^4 | 3 6 0 5 2 1 7 4 | 1:2 2:3 3:4",
            "1 2^2 3^5 | 6 5 2 8 1 4 7 0 3 | 1:7 2:5 3:2",
            "1 2 3^6 | 8 5 2 3 6 0 7 1 4 | 1:1 2:6 3:3",
            "1 2 3^7 | 5 8 1 4 6 9 2 3 0 7 | 1:4 2:6 3:2",
            "1 2 3^5 | 6 1 4 7 5 0 3 2 | 1:4 2:1 3:2",
        ],
        [
            "1 2^4 3 | 0 2 4 1 6 5 3 | 1:5 2:2 3:3",
            "1 2^2 3^2 | 3 1 4 5 2 0 | 1:4 2:1",
            "1 2^3 3^3 | 7 4 2 0 3 1 6 5 | 1:4 2:5 3:2",
            "1 2 3^4 | 2 5 1 3 6 0 4 | 1:1 2:3",
            "1 2^3 3 | 4 2 5 3 1 0 | 1:1 2:3",
            "1 2^3 3^2 | 2 4 6 5 1 3 0 | 1:4 2:1 3:2",
        ],
    ],
)

# {1^a, 2^b, 3^c} small cases, 1-growable only.
_entries(
    "u123-1g",
    [
        [
            "1 2 3^3 | 2 5 4 1 3 0 | 1:4",
            "1^2 2 3^2 | 0 3 5 4 1 2 | 1:3",
            "1^2 2^2 3 | 3 1 0 5 2 4 | 1:1",
            "1^3 2 3 | 0 5 4 1 3 2 | 1:4",
        ],
    ],
)

# {1^a, 4^b, 5^c} with a >= 3: block 0 is {1,5}-growable, block 1 only
# 1-growable (a + b + c = 9 small cases).
_entries(
    "u145-a3",
    [
        [
            "1^3 4 5^6 | 6 7 2 1 5 0 10 4 9 3 8 | 1:9 5:4",
            "1^3 4^2 5^9 | 9 14 0 10 5 4 8 13 3 7 12 2 1 11 6 | 1:3 5:9",
        ],
        [
            "1^3 4 5^5 | 8 3 2 7 1 6 5 0 9 4 | 1:2",
            "1^3 4^2 5^4 | 7 2 6 1 5 0 9 8 3 4 | 1:1",
            "1^3 4^3 5^3 | 3 2 8 4 9 0 5 1 6 7 | 1:8",
            "1^3 4^4 5^2 | 6 2 8 7 3 4 9 0 5 1 | 1:7",
            "1^3 4^5 5 | 5 6 2 8 9 4 0 1 7 3 | 1:7",
            "1^4 4 5^4 | 2 1 6 7 3 8 9 4 5 0 | 1:1",
            "1^4 4^2 5^3 | 7 8 4 9 3 2 1 6 5 0 | 1:4",
            "1^4 4^3 5^2 | 9 5 0 6 1 2 3 4 8 7 | 1:4",
            "1^4 4^4 5 | 0 9 4 3 7 8 2 6 5 1 | 1:8",
            "1^5 4 5^3 | 8 3 2 7 6 5 1 0 9 4 | 1:6",
            "1^5 4^2 5^2 | 5 4 9 0 1 2 8 3 7 6 | 1:8",
            "1^5 4^3 5 | 4 5 9 8 3 7 6 2 1 0 | 1:2",
            "1^6 4 5^2 | 3 4 8 9 0 5 6 7 2 1 | 1:8",
            "1^6 4^2 5 | 8 4 3 2 1 7 6 5 0 9 | 1:4",
            "1^7 4 5 | 3 2 1 0 4 9 8 7 6 5 | 1:8",
        ],
    ],
)

# {1^2, 4^b, 5^c}: block 0 is {1,4,5}-growable over all (b,c) mod (4,5);
# block 1 {1,5}-growable; blocks 2-3 5-growable; block 4 1-growable.
_entries(
    "u145-a2",
    [
        [
            "1^2 4^4 5^5 | 5 9 1 6 7 2 10 3 8 4 11 0 | 1:9 4:4 5:5",
            "1^2 4^8 5 | 5 9 1 6 2 10 11 3 7 8 4 0 | 1:9 4:3 5:5",
            "1^2 4^8 5^2 | 5 6 1 10 9 0 4 8 12 3 7 2 11 | 1:8 4:3 5:5",
            "1^2 4^8 5^3 | 1 11 12 2 7 3 13 4 8 9 5 0 10 6 | 1:10 4:5 5:6",
            "1^2 4^4 5^4 | 1 6 7 2 9 5 0 10 3 8 4 | 1:9 4:3 5:4",
            "1^2 4^5 5^5 | 7 8 3 11 2 10 6 1 5 9 4 0 12 | 1:10 4:6 5:7",
            "1^2 4^9 5 | 10 1 6 2 11 12 3 7 8 4 0 9 5 | 1:9 4:3 5:5",
            "1^2 4^9 5^2 | 5 9 13 3 7 8 4 0 10 1 6 2 12 11 | 1:9 4:3 5:5",
            "1^2 4^5 5^3 | 5 9 2 7 6 1 0 4 8 3 10 | 1:9 4:3 5:5",
            "1^2 4^5 5^4 | 0 1 5 9 4 11 3 8 7 2 10 6 | 1:10 4:4 5:6",
            "1^2 4^6 5^5 | 4 9 13 0 10 5 1 11 6 2 3 8 12 7 | 1:1 4:4 5:7",
            "1^2 4^10 5 | 7 11 1 5 9 10 6 2 12 13 3 8 4 0 | 1:11 4:3 5:7",
            "1^2 4^6 5^2 | 1 6 2 9 5 0 10 3 7 8 4 | 1:9 4:3 5:5",
            "1^2 4^6 5^3 | 5 9 1 6 2 10 3 7 8 4 11 0 | 1:9 4:4 5:5",
            "1^2 4^6 5^4 | 5 6 1 10 9 0 8 4 12 3 7 2 11 | 1:8 4:4 5:5",
            "1^2 4^7 5^5 | 12 13 2 6 10 0 11 1 5 9 4 14 3 8 7 | 1:10 4:6 5:7",
            "1^2 4^7 5 | 10 3 7 8 4 0 1 6 2 9 5 | 1:9 4:3 5:5",
            "1^2 4^7 5^2 | 11 3 7 2 10 6 1 0 4 8 9 5 | 1:10 4:3 5:5",
            "1^2 4^7 5^3 | 11 12 3 8 4 0 9 5 1 10 2 7 6 | 1:9 4:3 5:6",
            "1^2 4^7 5^4 | 11 12 2 7 6 1 10 0 4 8 3 13 9 5 | 1:9 4:3 5:5",
        ],
        [
            "1^2 4^4 5^6 | 12 11 3 8 4 0 5 9 1 10 2 7 6 | 1:9 4:5 5:6",
            "1^2 4^4 5^7 | 3 13 4 9 10 5 0 1 6 11 7 2 12 8 | 1:12 4:7 5:8",
            "1^2 4^4 5^8 | 12 2 6 1 11 7 3 13 8 9 14 10 0 5 4 | 1:7 4:3 5:4",
            "1^2 4^5 5^6 | 0 5 9 8 4 13 12 3 7 2 11 1 10 6 | 1:10 4:5 5:6",
            "1^2 4^5 5^7 | 4 9 5 1 12 7 2 3 8 13 14 10 0 11 6 | 1:1 4:5 5:8",
            "1^2 4^2 5^10 | 10 0 5 4 14 9 8 13 3 7 12 2 6 1 11 | 1:7 4:10 5:4",
            "1^2 4^2 5^6 | 2 7 0 6 1 8 3 4 9 10 5 | 1:1 4:4 5:5",
            "1^2 4^2 5^7 | 5 10 11 6 1 9 4 3 8 0 7 2 | 1:1 4:4 5:5",
            "1^2 4^2 5^8 | 5 10 1 6 11 12 7 2 3 8 0 9 4 | 1:1 4:4 5:5",
            "1^2 4^3 5^5 | 1 6 2 8 9 3 7 0 5 4 10 | 1:7 5:4",
            "1^2 4^3 5^6 | 2 7 0 8 3 4 9 1 5 10 11 6 | 1:1 4:4 5:6",
            "1^2 4^3 5^7 | 10 2 7 3 11 12 4 8 0 9 1 6 5 | 1:8 4:4 5:5",
            "1^2 4^3 5^8 | 4 9 0 1 10 5 6 11 2 12 7 3 13 8 | 1:3 4:6 5:8",
            "1^2 4^3 5^9 | 0 5 10 6 1 11 7 2 12 13 3 14 4 9 8 | 1:11 4:7 5:8",
        ],
        [
            "1^2 4 5^10 | 11 2 7 12 3 8 13 4 9 10 6 1 0 5 | 4:9 5:4",
            "1^2 4 5^7 | 8 3 2 7 1 6 0 10 4 9 5 | 4:4 5:5",
            "1^2 4 5^8 | 6 11 4 9 8 1 2 7 3 10 5 0 | 4:5 5:6",
            "1^2 4 5^9 | 5 10 2 7 8 3 11 6 1 0 9 4 12 | 4:4 5:5",
        ],
        [
            "1^2 4^2 5^9 | 6 11 2 7 12 3 8 4 5 10 1 0 9 13 | 4:5 5:6",
        ],
        [
            "1^2 4^4 5^3 | 5 0 6 1 7 2 3 9 8 4 | 1:4",
            "1^2 4^5 5^2 | 4 8 3 9 5 0 6 7 1 2 | 1:4",
            "1^2 4^2 5^5 | 9 4 0 5 6 1 7 2 3 8 | 1:7",
            "1^2 4^6 5 | 9 3 4 0 6 5 1 7 2 8 | 1:6",
            "1^2 4^3 5^4 | 9 4 5 0 1 6 2 8 3 7 | 1:8",
        ],
    ],
)

# {1, 4^b, 5^c}: block 0 is {4,5}-growable over all (b,c) mod (4,5);
# block 1 the special (1, 11) row.
_entries(
    "u145-a1",
    [
        [
            "1 4^4 5^5 | 4 9 5 0 1 6 10 3 7 2 8 | 4:3 5:4",
            "1 4^4 5^6 | 9 2 7 3 10 5 1 0 8 4 11 6 | 4:4 5:6",
            "1 4^4 5^7 | 4 9 1 5 0 8 12 11 6 10 2 7 3 | 4:3 5:4",
            "1 4^4 5^8 | 6 10 5 0 9 13 4 8 3 12 7 2 1 11 | 4:5 5:6",
            "1 4^4 5^9 | 3 14 4 9 5 0 10 6 1 11 12 7 2 13 8 | 4:7 5:8",
            "1 4 5^10 | 6 11 3 8 0 12 7 2 10 5 1 9 4 | 4:4 5:6",
            "1 4^5 5^6 | 4 9 5 0 8 3 12 7 11 10 1 6 2 | 4:3 5:4",
            "1 4^5 5^7 | 12 3 7 11 2 1 6 10 0 5 9 4 13 8 | 4:6 5:8",
            "1 4 5^8 | 4 9 10 3 8 2 7 1 6 0 5 | 4:3 5:4",
            "1 4 5^9 | 10 3 8 1 2 7 0 5 9 4 11 6 | 4:5 5:6",
            "1 4^2 5^10 | 7 2 11 6 1 10 5 0 9 13 12 3 8 4 | 4:3 5:4",
            "1 4^6 5^6 | 7 11 2 12 3 8 4 13 9 5 0 1 10 6 | 4:6 5:7",
            "1 4^2 5^7 | 1 6 0 5 10 3 7 2 8 9 4 | 4:3 5:4",
            "1 4^2 5^8 | 9 1 2 7 0 5 10 3 8 4 11 6 | 4:5 5:6",
            "1 4^2 5^9 | 9 4 12 3 8 0 1 6 11 7 2 10 5 | 4:4 5:5",
            "1 4^3 5^10 | 4 9 14 3 8 13 2 7 12 1 6 11 10 0 5 | 4:3 5:4",
            "1 4^3 5^6 | 4 9 3 8 2 6 10 0 5 1 7 | 4:3 5:4",
            "1 4^3 5^7 | 1 6 10 3 8 4 11 0 7 2 9 5 | 4:4 5:5",
            "1 4^3 5^8 | 10 5 0 4 9 1 6 11 2 3 8 12 7 | 4:6 5:7",
            "1 4^3 5^9 | 11 6 1 2 7 12 3 8 4 13 9 0 10 5 | 4:4 5:5",
        ],
        [
            "1 4 5^11 | 1 6 10 11 2 7 12 3 8 13 4 9 0 5 | 4:9 5:4",
        ],
    ],
)

# {1, 4^b, 5^c} small-c cases, 4-growable only.
_entries(
    "u145-4g",
    [
        [
            "1 4^4 5^4 | 7 3 8 4 9 0 5 1 6 2 | 4:4",
            "1 4^5 5^3 | 9 4 8 3 7 2 6 0 1 5 | 4:4",
            "1 4^5 5^4 | 9 10 3 7 1 5 0 6 2 8 4 | 4:3",
            "1 4^5 5^5 | 4 8 9 1 6 11 3 7 2 10 5 0 | 4:3",
            "1 4^6 5^2 | 7 3 8 4 0 9 5 1 6 2 | 4:5",
            "1 4^6 5^3 | 2 6 1 7 0 4 8 3 10 9 5 | 4:3",
            "1 4^6 5^4 | 5 6 1 9 4 0 8 3 11 7 2 10 | 4:3",
            "1 4^6 5^5 | 5 10 6 1 9 0 4 8 12 11 3 7 2 | 4:4",
            "1 4^7 5 | 7 3 9 4 8 2 6 0 1 5 | 4:4",
            "1 4^7 5^2 | 8 4 0 10 3 7 1 6 2 9 5 | 4:4",
            "1 4^7 5^3 | 4 8 0 1 5 9 2 6 11 7 3 10 | 4:7",
            "1 4^7 5^4 | 8 3 12 0 4 9 5 1 10 2 6 11 7 | 4:6",
            "1 4^7 5^5 | 5 10 0 9 13 4 8 7 3 12 2 6 1 11 | 4:4",
            "1 4^8 5 | 7 3 10 0 4 8 1 6 2 9 5 | 4:3",
            "1 4^8 5^2 | 4 8 0 5 9 1 6 2 10 11 3 7 | 4:3",
            "1 4^8 5^3 | 6 10 11 2 7 3 12 8 4 0 5 9 1 | 4:5",
            "1 4^9 5^2 | 4 9 8 12 3 7 11 2 6 10 1 5 0 | 4:3",
            "1 4^10 5 | 6 10 1 5 9 0 4 8 12 11 2 7 3 | 4:3",
        ],
    ],
)

# {1^2, 3^c, 4^d}: block 0 is {3,4}-growable over all (c,d) mod (3,4);
# block 1 covers the exceptional small-d cases, 3-growable.
_entries(
    "u1234-a2",
    [
        [
            "1^2 3^3 4^4 | 3 7 1 4 0 9 2 6 5 8 | 3:2 4:3",
            "1^2 3^3 4^5 | 3 7 10 2 6 5 1 9 8 4 0 | 3:2 4:5",
            "1^2 3^3 4^6 | 6 9 10 2 1 5 8 0 4 7 3 11 | 3:5 4:6",
            "1^2 3^3 4^3 | 1 5 6 2 8 0 3 7 4 | 3:3 4:4",
            "1^2 3 4^8 | 3 7 11 10 6 2 1 5 9 0 4 8 | 3:2 4:7",
            "1^2 3 4^5 | 3 6 2 7 8 4 0 1 5 | 3:2 4:4",
            "1^2 3 4^6 | 5 9 8 4 1 7 3 2 6 0 | 3:4 4:5",
            "1^2 3 4^7 | 4 8 7 3 0 1 5 9 2 6 10 | 3:3 4:6",
            "1^2 3^2 4^4 | 4 8 0 3 7 6 1 5 2 | 3:3 4:4",
            "1^2 3^2 4^5 | 5 9 3 6 2 8 7 4 0 1 | 3:4 4:5",
            "1^2 3^2 4^6 | 4 0 10 6 9 2 5 1 8 7 3 | 3:2 4:3",
            "1^2 3^2 4^7 | 8 0 4 3 11 7 6 9 1 5 2 10 | 3:8 4:3",
        ],
        [
            "1^2 3^6 4 | 5 8 9 2 6 3 0 1 4 7 | 3:4 4:5",
            "1^2 3^3 4^2 | 6 3 2 5 1 4 0 7 | 3:3",
            "1^2 3^4 4^4 | 8 5 6 2 10 9 1 4 0 7 3 | 3:2 4:3",
            "1^2 3^4 4 | 2 5 6 3 7 4 1 0 | 3:4",
            "1^2 3^4 4^2 | 3 7 8 5 2 1 4 0 6 | 3:2 4:3",
            "1^2 3^4 4^3 | 2 6 3 0 9 5 1 8 7 4 | 3:3 4:5",
            "1^2 3^5 4 | 0 4 1 7 8 2 5 6 3 | 3:2 4:3",
            "1^2 3^5 4^2 | 5 8 1 4 7 3 2 6 9 0 | 3:4 4:5",
            "1^2 3^2 4^3 | 7 6 2 3 0 4 1 5 | 3:2",
        ],
    ],
)

# {1, 3^c, 4^d}: block 0 is {2,3,4}-growable over all (c,d) mod (3,4);
# block 1 extra c=1 rows; block 2 {2,3}-growable small-d; block 3 the
# 2-growable (2,4) row.
_entries(
    "u134",
    [
        [
            "1 3^3 4^4 | 3 6 1 4 0 5 2 7 8 | 2:6 3:2 4:3",
            "1 3^3 4^5 | 3 6 2 8 4 1 7 0 9 5 | 2:2 3:4 4:5",
            "1 3^3 4^6 | 4 5 1 8 0 3 7 10 6 2 9 | 2:7 3:3 4:4",
            "1 3^3 4^7 | 3 7 6 2 10 1 5 9 0 4 8 11 | 2:9 3:2 4:6",
            "1 3^4 4^4 | 4 7 0 6 3 9 8 2 5 1 | 2:7 3:3 4:4",
            "1 3^4 4^5 | 6 9 2 10 3 7 4 0 1 8 5 | 2:4 3:5 4:6",
            "1 3 4^6 | 2 6 1 5 0 3 7 8 4 | 2:1 3:3 4:4",
            "1 3^4 4^3 | 4 7 1 5 0 8 2 6 3 | 2:2 3:3 4:4",
            "1 3^2 4^8 | 7 11 3 4 0 8 5 1 9 6 2 10 | 2:6 3:8 4:3",
            "1 3^2 4^5 | 3 7 2 6 0 1 5 8 4 | 2:2 3:3 4:4",
            "1 3^2 4^6 | 4 5 1 8 2 6 0 7 3 9 | 2:7 3:3 4:4",
            "1 3^2 4^7 | 4 8 1 0 7 10 3 6 2 9 5 | 2:3 3:4 4:5",
        ],
        [
            "1 3 4^8 | 4 5 1 8 0 7 3 10 6 2 9 | 2:7 3:3 4:4",
            "1 3 4^7 | 3 7 1 4 8 2 6 0 9 5 | 2:2 3:4 4:5",
        ],
        [
            "1 3^6 4 | 7 1 4 5 8 2 6 0 3 | 2:6 3:2",
            "1 3^6 4^2 | 5 6 3 9 2 8 1 4 7 0 | 2:4 3:5",
            "1 3^3 4^3 | 0 3 7 6 2 5 1 4 | 2:1 3:2",
            "1 3^7 4 | 5 2 9 8 1 4 7 0 6 3 | 2:7 3:4",
            "1 3^4 4^2 | 0 5 2 6 1 4 3 7 | 2:2 3:3",
            "1 3^5 4^4 | 10 9 2 6 3 0 7 4 1 8 5 | 2:8 3:4 4:5",
            "1 3^5 4 | 2 5 0 1 6 3 7 4 | 2:3 3:4",
            "1 3^5 4^2 | 2 5 8 7 3 0 6 1 4 | 2:1 3:3",
            "1 3^5 4^3 | 3 0 6 7 1 4 8 5 2 9 | 2:5 3:2",
        ],
        [
            "1 3^2 4^4 | 2 6 7 3 0 4 1 5 | 2:1",
        ],
    ],
)

# {1, 2^b, 3^c, 4^d} with b >= 2 even.
_entries(
    "u1234-beven",
    [
        [
            "1 2^2 3 4^5 | 7 8 2 6 0 4 1 9 5 3 | 2:6 3:2 4:3",
        ],
        [
            "1 2^2 3^3 4 | 6 4 1 2 5 7 3 0 | 2:5 3:2",
            "1 2^2 3^3 4^2 | 4 7 5 1 8 0 3 6 2 | 2:1 3:3 4:4",
            "1 2^2 3 4^4 | 1 5 8 6 2 7 0 4 3 | 2:6 3:2 4:3",
            "1 2^2 3^4 4 | 3 6 0 4 1 8 7 5 2 | 2:6 3:2 4:3",
            "1 2^2 3 4^3 | 1 0 4 6 2 5 3 7 | 2:3 3:4",
            "1 2^2 3^2 4^2 | 7 6 2 4 1 5 3 0 | 2:1 3:3",
            "1 2^2 3^2 4^3 | 3 5 7 8 2 6 1 4 0 | 2:6 3:2 4:3",
        ],
        [
            "1 2^4 3 4 | 0 3 1 7 5 4 2 6 | 2:1 3:2",
            "1 2^4 3 4^2 | 3 5 7 8 6 2 0 4 1 | 2:6 3:2 4:3",
            "1 2^4 3^2 4 | 1 3 5 8 2 4 0 7 6 | 2:6 3:2",
        ],
    ],
)

# {1, 2^b, 3^c, 4^d} with b >= 1 odd.
_entries(
    "u1234-bodd",
    [
        [
            "1 2 3^3 4^4 | 9 2 6 0 4 1 7 8 5 3 | 2:6 3:2 4:3",
            "1 2 3^3 4^5 | 5 8 1 9 10 2 6 4 0 7 3 | 2:8 3:4 4:5",
            "1 2 3^3 4^6 | 3 5 9 1 4 0 8 7 10 6 2 11 | 2:6 3:2 4:3",
            "1 2 3^3 4^3 | 4 7 3 0 1 5 8 6 2 | 2:1 3:3 4:4",
            "1 2 3 4^8 | 10 6 2 11 3 7 9 1 5 4 0 8 | 2:7 3:8 4:4",
            "1 2 3 4^5 | 2 6 7 3 0 5 1 8 4 | 2:1 3:3 4:4",
            "1 2 3 4^6 | 3 4 0 6 2 8 1 5 9 7 | 2:6 3:2 4:3",
            "1 2 3 4^7 | 9 2 6 5 1 10 3 7 0 8 4 | 2:8 3:3 4:5",
            "1 2 3^2 4^4 | 2 6 1 4 0 8 5 7 3 | 2:1 3:2 4:3",
            "1 2 3^2 4^5 | 8 1 5 4 0 6 2 9 7 3 | 2:7 3:2 4:4",
            "1 2 3^2 4^6 | 3 7 0 4 6 10 2 5 1 8 9 | 2:7 3:2 4:4",
            "1 2 3^2 4^7 | 7 11 3 4 0 9 1 5 8 10 6 2 | 2:6 3:8 4:3",
        ],
        [
            "1 2 3^6 4 | 4 7 9 2 6 3 0 1 8 5 | 2:3 3:4 4:5",
            "1 2 3^3 4^2 | 2 5 1 0 6 3 7 4 | 2:3 3:4",
            "1 2 3^4 4^4 | 3 7 10 8 0 4 5 1 9 6 2 | 2:7 3:2 4:4",
            "1 2 3^4 4 | 0 6 3 7 4 1 2 5 | 2:2 3:4",
            "1 2 3^4 4^2 | 3 7 6 0 4 1 8 5 2 | 2:1 3:2 4:3",
            "1 2 3^4 4^3 | 3 6 9 7 0 1 5 2 8 4 | 2:2 3:3 4:4",
            "1 2 3^5 4 | 3 6 7 1 4 0 2 5 8 | 2:6 3:2 4:3",
            "1 2 3^5 4^2 | 7 1 4 0 2 5 8 9 6 3 | 2:6 3:2 4:3",
            "1 2 3^2 4^3 | 4 0 3 1 5 2 6 7 | 2:1 3:2",
        ],
        [
            "1 2 3 4^4 | 3 7 6 2 0 4 1 5 | 2:1",
        ],
        [
            "1 2^3 3^3 4 | 3 6 8 7 5 2 0 4 1 | 2:6 3:2 4:3",
            "1 2^3 3 4^4 | 4 6 0 8 7 3 9 1 5 2 | 2:7 3:3 4:4",
            "1 2^5 3 4 | 4 2 0 8 6 3 1 5 7 | 2:6 3:3",
            "1 2^3 3 4^2 | 4 6 2 5 3 7 1 0 | 2:3 3:4",
            "1 2^3 3 4^3 | 2 6 7 0 3 5 1 8 4 | 2:1 3:3 4:4",
            "1 2^3 3^2 4 | 5 2 0 1 7 3 6 4 | 2:3 3:4",
            "1 2^3 3^2 4^2 | 4 6 0 2 5 1 8 7 3 | 2:2 3:3 4:4",
        ],
    ],
)

# {2^b, 3^c, 4^d} with b >= 1 odd.
_entries(
    "u234-bodd",
    [
        [
            "2 3^3 4^4 | 2 6 8 5 0 4 1 7 3 | 2:1 3:2 4:3",
            "2 3^3 4^5 | 2 5 1 8 4 0 6 9 7 3 | 2:1 3:2 4:4",
            "2 3^3 4^6 | 3 6 10 7 0 9 2 5 1 8 4 | 2:2 3:3 4:4",
            "2 3^3 4^7 | 6 10 2 5 9 0 8 4 1 3 11 7 | 2:5 3:6 4:7",
            "2 3^4 4^4 | 3 6 9 5 2 8 0 4 1 7 | 2:6 3:2 4:3",
            "2 3^4 4^5 | 2 5 9 6 3 10 8 1 4 0 7 | 2:6 3:7 4:3",
            "2 3 4^6 | 3 7 2 6 0 5 1 8 4 | 2:2 3:3 4:4",
            "2 3 4^7 | 2 6 0 4 8 1 5 9 7 3 | 2:1 3:2 4:5",
            "2 3^2 4^8 | 10 2 6 3 11 7 5 1 9 0 8 4 | 2:8 3:3 4:5",
            "2 3^2 4^9 | 7 11 8 12 3 5 9 0 4 1 10 6 2 | 2:6 3:7 4:3",
            "2 3^2 4^6 | 2 6 0 3 7 9 5 1 8 4 | 2:1 3:3 4:5",
            "2 3^2 4^7 | 9 2 5 1 8 0 7 3 10 6 4 | 2:7 3:3 4:4",
        ],
        [
            "2 3^6 4 | 3 6 0 4 1 7 5 2 8 | 2:6 3:2 4:3",
            "2 3^6 4^2 | 4 7 1 5 2 9 6 3 0 8 | 2:7 3:3 4:4",
            "2 3^3 4^3 | 0 4 1 7 3 6 2 5 | 2:2 3:3",
            "2 3^7 4 | 3 6 9 2 5 1 8 0 7 4 | 2:7 3:3 4:4",
            "2 3^4 4^2 | 7 1 4 0 5 2 6 3 | 2:2 3:3",
            "2 3^4 4^3 | 3 6 0 4 2 7 1 5 8 | 2:6 3:2 4:3",
            "2 3^5 4^4 | 6 10 2 9 1 4 8 0 3 7 5 | 2:4 3:5 4:6",
            "2 3^2 4^5 | 2 6 1 3 7 4 0 5 8 | 2:1 3:4",
            "2 3^5 4 | 1 4 7 3 6 0 5 2 | 2:2 3:4",
            "2 3^5 4^2 | 3 6 0 4 1 8 5 2 7 | 2:6 3:2 4:3",
            "2 3^5 4^3 | 9 6 2 8 1 5 3 0 7 4 | 2:7 3:3 4:4",
        ],
        [
            "2 3^2 4^4 | 7 3 6 2 4 0 5 1 | 2:3",
        ],
        [
            "2^3 3^3 4 | 1 6 0 2 5 3 7 4 | 2:3 3:4",
            "2^3 3^3 4^2 | 7 1 4 0 2 6 8 5 3 | 2:6 3:2 4:3",
            "2^3 3^4 4 | 3 6 8 2 5 7 0 4 1 | 2:6 3:2 4:3",
            "2^5 3^2 4 | 5 7 3 1 8 2 0 6 4 | 2:4 3:5",
            "2^3 3^2 4^2 | 2 4 1 5 7 3 0 6 | 2:1 3:2",
            "2^3 3^2 4^3 | 3 5 7 0 4 1 6 2 8 | 2:6 3:2 4:3",
        ],
        [
            "2^3 3 4^4 | 3 7 5 0 4 1 8 6 2 | 2:1 3:2 4:3",
            "2^5 3 4 | 5 7 1 3 0 6 2 4 | 2:1 3:2",
            "2^5 3 4^2 | 4 6 8 1 5 2 0 7 3 | 2:2 3:3 4:4",
            "2^3 3 4^3 | 1 7 3 5 2 6 4 0 | 2:3 3:4",
            "2^3 3 4^5 | 5 9 1 7 3 0 8 2 6 4 | 2:3 3:4 4:5",
        ],
    ],
)

# {2^b, 3^c, 4^d} with b >= 2 even.
_entries(
    "u234-beven",
    [
        [
            "2^2 3^3 4^4 | 2 5 9 6 8 0 4 1 7 3 | 2:1 3:2 4:3",
            "2^2 3^3 4^5 | 8 0 7 3 10 1 5 2 9 6 4 | 2:7 3:3 4:4",
            "2^2 3^3 4^6 | 8 0 4 2 10 1 5 7 11 3 6 9 | 2:7 3:8 4:3",
            "2^2 3^3 4^3 | 3 6 1 5 8 2 4 0 7 | 2:6 3:2 4:3",
            "2^2 3 4^8 | 4 8 0 2 6 10 1 9 5 3 11 7 | 2:3 3:6 4:7",
            "2^2 3 4^5 | 4 8 5 1 6 2 0 7 3 | 2:2 3:3 4:4",
            "2^2 3 4^6 | 4 8 0 2 6 9 5 1 7 3 | 2:2 3:3 4:5",
            "2^2 3 4^7 | 4 8 1 5 7 0 9 2 6 3 10 | 2:8 3:3 4:5",
            "2^2 3^2 4^4 | 2 6 0 3 7 5 1 8 4 | 2:1 3:3 4:4",
            "2^2 3^2 4^5 | 4 7 1 5 3 9 6 2 8 0 | 2:7 3:3 4:4",
            "2^2 3^2 4^6 | 5 8 10 3 7 0 4 6 2 9 1 | 2:8 3:4 4:5",
            "2^2 3^2 4^7 | 10 2 6 8 0 9 5 1 11 3 7 4 | 2:9 3:3 4:6",
        ],
        [
            "2^2 3^6 4 | 4 7 9 6 3 0 8 1 5 2 | 2:7 3:3 4:4",
            "2^2 3^3 4^2 | 2 5 7 3 6 0 4 1 | 2:2 3:3",
            "2^2 3^4 4^4 | 0 3 7 10 8 1 5 2 9 6 4 | 2:7 3:3 4:4",
            "2^2 3^4 4 | 0 3 1 6 2 5 7 4 | 2:5 3:2",
            "2^2 3^4 4^2 | 3 6 1 4 0 7 5 2 8 | 2:6 3:2 4:3",
            "2^2 3^4 4^3 | 8 1 5 2 0 7 3 9 6 4 | 2:7 3:3 4:4",
            "2^2 3^5 4 | 7 5 2 8 1 4 0 6 3 | 2:6 3:2 4:3",
            "2^2 3^5 4^2 | 9 1 5 2 8 6 3 0 7 4 | 2:7 3:3 4:4",
            "2^2 3^2 4^3 | 7 3 6 4 0 2 5 1 | 2:3 3:4",
        ],
        [
            "2^2 3 4^4 | 0 4 2 6 1 5 3 7 | 2:3",
        ],
        [
            "2^4 3^3 4 | 2 5 7 0 4 1 8 6 3 | 2:6 3:2 4:3",
            "2^6 3 4 | 7 5 2 0 4 6 8 1 3 | 2:6 3:2",
            "2^4 3 4^2 | 7 1 3 5 2 6 4 0 | 2:3 3:4",
            "2^4 3 4^3 | 3 7 0 4 6 8 1 5 2 | 2:1 3:2 4:4",
            "2^4 3^2 4 | 1 3 0 6 2 4 7 5 | 2:5 3:2",
            "2^4 3^2 4^2 | 8 6 2 0 4 1 7 5 3 | 2:6 3:2 4:3",
        ],
    ],
)

# {1^a, 3^b, 6^c}: the six named {1,3}-growable starters g1..g6.
_entries(
    "u136",
    [
        [
            "1^2 3^4 | 6 5 1 4 0 3 2 | 1:4 3:2 | g1",
            "1 3^5 | 3 0 6 2 5 1 4 | 1:5 3:2 | g2",
            "1 3^6 | 5 2 7 0 3 6 1 4 | 1:6 3:2 | g3",
            "1 3^10 6 | 2 12 9 6 3 0 10 7 4 5 8 1 11 | 1:3 3:5 | g4",
            "1 3^11 6 | 5 2 13 10 7 8 11 0 3 6 9 12 4 1 | 1:6 3:8 | g5",
            "1^2 3^9 6 | 9 6 3 0 10 7 8 11 1 4 5 12 2 | 1:6 3:8 | g6",
        ],
    ],
)

# Sequences exhibited inside proofs rather than in a table.
_entries(
    "inproof",
    [
        [
            # closes the {1^2, 3, 4^4} case; no growth needed
            "1^2 3 4^4 | 0 4 5 1 2 6 3 7 | - | u1234-small",
            # 4-growable; basis for {2, 3, 4^(4k+8)}
            "2 3 4^8 | 2 6 10 3 7 4 0 9 5 1 8 | 4:4 | u234-4g",
            # closes the {1, 4^3, 5^5} case; no growth needed
            "1 4^3 5^5 | 0 5 9 4 8 3 7 2 1 6 | - | u145-small",
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
# consulted only after the hand-built tables.  The stable table, after
# it, covers the targets whose fixed schedule breaks on a hand-built row.
_entries(
    "supplement",
    [
        [
            "1^2 2^4 3^2 | 0 1 3 2 8 6 4 7 5 | 1:8 2:2 3:6 | s0",
            "1^3 4 5^7 | 1 6 7 2 9 10 3 8 0 5 4 11 | 1:8 4:11 5:4 | s1",
            "1 2^2 3^6 4^3 | 0 1 4 2 11 8 5 3 12 9 6 10 7 | 1:5 2:12 3:3 4:9 | s2",
            "1^3 4 5^8 | 0 5 4 12 8 3 11 10 2 7 6 1 9 | 1:8 4:11 5:4 | s3",
            "1^6 2^5 3 | 0 1 2 3 4 5 7 9 6 8 10 12 11 | 1:0 2:11 3:8 | s4",
            "2^3 3^6 4^3 | 0 2 4 1 10 7 11 8 5 3 12 9 6 | 2:6 3:3 4:10 | s5",
            "2^3 3^8 4 | 0 2 5 8 4 7 10 12 9 6 3 1 11 | 2:1 3:11 4:7 | s6",
            "2^4 3^5 4^3 | 0 2 4 1 11 7 5 8 10 6 3 12 9 | 2:12 3:3 4:9 | s7",
            "2^4 3^6 4^2 | 0 2 4 1 11 8 5 3 12 9 7 10 6 | 2:6 3:3 4:9 | s8",
            "1^3 4 5^9 | 0 5 10 11 6 1 2 7 12 3 13 4 9 8 | 1:12 4:7 5:8 | s9",
            "1^3 4 5^10 | 0 5 10 9 4 14 13 3 8 7 2 12 1 11 6 | 1:11 4:5 5:6 | s10",
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
# (tools/stable_seeds.py).  Unlike a supplement row, which declares a
# point for each of its lengths, a stable row declares only the points
# of the x values its family varies, on purpose: every schedule over
# the declared points must grow without a break, and each extra point
# would add schedules to keep stable.  A one-point row's schedule is one
# k-fold grow at that point, whose growability window_endpoints checks
# on the seed itself, so no earlier grow moves it.  The two-point rows
# survive every schedule ((x1, i), (x2, j)) with i, j < 12, which
# tests/test_seeds.py checks; tests/test_solvers.py replays members of
# each family up to v = 1002.
_entries(
    "stable",
    [
        [
            "1 2^3 3 | 1 4 0 2 3 5 | 1:0 2:4 | st1",
            "1 2^3 3^2 4^3 | 9 3 4 1 7 5 8 0 2 6 | 2:8 3:3 | st2",
            "1 2^3 3^4 4 | 6 4 7 1 3 0 8 9 2 5 | 3:2 | st3",
            "1 2^2 3^4 4^2 | 0 6 4 7 1 8 5 3 2 9 | 3:6 | st4",
        ],
    ],
)

# Worked demonstration seeds used by the documentation and tests.
_entries(
    "demo",
    [
        [
            "1 2^2 3^4 4 | 6 4 3 0 7 1 5 2 8 | 3:2 | demo-9",
            # also 1-growable at 9
            "1^4 2 3^8 4 | 0 3 6 2 1 13 10 11 14 12 9 8 5 4 7 | 1:8 2:3 3:11 4:5 | demo-15",
        ],
    ],
)


def iter_seeds():
    for table_id in SEED_TABLES:
        yield from table(table_id)


def table(table_id: str) -> tuple[SeedEntry, ...]:
    """Table table_id's entries in source order, parsed on first use;
    every later call returns the same tuple."""
    entries = _parsed.get(table_id)
    if entries is None:
        try:
            blocks = SEED_TABLES[table_id]
        except KeyError:
            raise KeyError(f"no-such-seed table: {table_id}") from None
        entries = _parsed.setdefault(table_id, _parse_table(table_id, blocks))
    return entries


def failures(entries) -> list[tuple[SeedEntry, str]]:
    """(entry, message) for each entry whose Certificate raises."""
    out = []
    for entry in entries:
        try:
            entry.certificate
        except ValueError as exc:  # PathError and NotGrowableError too
            out.append((entry, str(exc)))
    return out
