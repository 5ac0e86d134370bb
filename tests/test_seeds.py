import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from bhr import seeds
from bhr.core import GrowPoint, LengthMultiset
from bhr.growth import GrowthSchedule, multi_grow
from conftest import seed_row


def test_verify_all_seeds_clean():
    entries = tuple(seeds.iter_seeds())
    assert seeds.failures(entries) == []
    assert len(entries) >= 280


def test_table_ids():
    assert list(seeds.SEED_TABLES) == [
        "u123-main",
        "u123-1g",
        "u145-a3",
        "u145-a2",
        "u145-a1",
        "u145-4g",
        "u1234-a2",
        "u134",
        "u1234-beven",
        "u1234-bodd",
        "u234-bodd",
        "u234-beven",
        "u136",
        "inproof",
        "supplement",
        "stable",
        "demo",
    ]
    for tid in seeds.SEED_TABLES:
        entries = seeds.table(tid)
        assert entries and seeds.table(tid) is entries, tid
    with pytest.raises(KeyError):
        seeds.table("nope")


def test_import_parses_no_table():
    """import bhr parses no row; one solve() parses the tables of its
    driver row and no other.  Run in a fresh interpreter, where no
    test has asked for a table yet."""
    code = (
        "import bhr\n"
        "from bhr import seeds, solvers\n"
        "print(sorted(seeds._parsed))\n"
        "print(bhr.solve(bhr.LengthMultiset.parse('1 2^4 3^6')).status)\n"
        "print(sorted(seeds._parsed))\n"
        "print(sorted(solvers._DRIVERS[1, 2, 3]))\n"
    )
    src = str(Path(seeds.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-B", "-c", code],
        capture_output=True,
        check=True,
        cwd=src,
        text=True,
    )
    before, status, after, driver_tables = run.stdout.splitlines()
    assert before == "[]"
    assert status == "solved"
    assert after == driver_tables


def test_rows_print_back_to_their_text():
    for tid, blocks in seeds.SEED_TABLES.items():
        rows = [text for block in blocks for text in block]
        entries = seeds.table(tid)
        assert len(rows) == len(entries), tid
        for text, entry in zip(rows, entries):
            multiset, path, points, variant = seeds.parse_row(text)
            assert (multiset, path, points) == (
                entry.multiset, entry.path, entry.declared_grow_points
            )
            assert variant in (None, entry.variant)
            assert seeds.format_row(multiset, path, points, variant) == text


@pytest.mark.parametrize(
    "text, why",
    [
        ("1 2^3 3 | 1 4 0 2 3 5", "need 3 or 4 non-empty fields"),
        ("1 2^3 3 | 1 4 0 2 3 5 | 1:0 | st1 | x", "need 3 or 4 non-empty"),
        ("1 2^3 3 | 1 4 0 2 3 5 |  | st1", "need 3 or 4 non-empty fields"),
        ("1 2^3 3 | 1 4 zero 2 3 5 | 1:0", "invalid literal for int()"),
        ("1 2^3 3 | 1 4 0 2 3 3 | 1:0", "not a permutation of 0..5: label 3"),
        ("1 2^3 3^ | 1 4 0 2 3 5 | 1:0", "bad multiset token '3^'"),
        ("1 2^3 3 | 1 4 0 2 3 5 | 1=0", "bad grow point '1=0', need x:m"),
        ("1 2^3 3 | 1 4 0 2 3 5 | 1:a", "bad grow point '1:a', need x:m"),
        ("1 2^3 3 | 1 4 0 2 3 5 | 1:0 1:4", "grow point 1:4 repeats or"),
        ("1 2^3 3 | 1 4 0 2 3 5 | 2:4 1:0", "grow point 1:0 repeats or"),
    ],
)
def test_malformed_row_names_table_and_row(text, why):
    good = "1 2^3 3 | 1 4 0 2 3 5 | 1:0 2:4"
    with pytest.raises(ValueError) as info:
        seeds._parse_table("t", [[good], [good, text]])
    assert str(info.value).startswith(f"seed table t row 2: {why}")


def test_repeated_table_id_raises():
    with pytest.raises(ValueError, match="demo registered twice"):
        seeds._entries("demo", [])
    assert len(seeds.table("demo")) == 2


def test_entries_verify_individually():
    entry = seed_row("demo", "demo-9")
    assert seeds.failures([entry]) == []
    assert entry.multiset == LengthMultiset.parse("1 2^2 3^4 4")
    assert entry.path.vertices == (6, 4, 3, 0, 7, 1, 5, 2, 8)


def test_check_reports_what_the_certificate_refuses():
    entry = seed_row("demo", "demo-9")
    cert = entry.certificate
    assert entry.certificate is cert
    assert cert.trace == (("seed", {"table": "demo", "variant": "demo-9"}),)
    bad_point = replace(entry, declared_grow_points=(GrowPoint(1, 0),))
    bad_counts = replace(entry, multiset=LengthMultiset.parse("1^2 2^2 3^4 4"))
    [(e1, point), (e2, counts)] = seeds.failures([entry, bad_point, bad_counts])
    assert e1 is bad_point and point == "declared grow point (1, 0) fails"
    assert e2 is bad_counts and "order mismatch" in counts


def test_iter_seeds_covers_tables():
    ids = {e.table_id for e in seeds.iter_seeds()}
    assert "supplement" in ids and "u123-main" in ids


def test_supplement_entries_growable_over_support():
    """Each supplement row declares a grow point for every length in
    its underlying set; that is the property the table exists for."""
    for entry in seeds.table("supplement"):
        declared = {gp.x for gp in entry.declared_grow_points}
        assert entry.multiset.underlying_set <= declared, entry.variant


def test_stable_entries_survive_every_schedule():
    """Every schedule over a stable row's points, in ascending x with
    each count below 12, grows without breaking a point it needs: the
    property replay relies on to answer in one fixed-schedule pass.
    Counts up to 300 (v up to about 1,500, replay-large's scale) are
    sampled too."""
    entries = seeds.table("stable")
    assert [e.variant for e in entries] == ["st1", "st2", "st3", "st4"]
    large = (0, 1, 2, 99, 300)
    for entry in entries:
        cert = entry.certificate
        xs = sorted({gp.x for gp in entry.declared_grow_points})
        schedules = set(product(range(12), repeat=len(xs)))
        schedules |= set(product(large, repeat=len(xs)))
        for counts in sorted(schedules):
            steps = tuple(zip(xs, counts))
            grown = multi_grow(cert, GrowthSchedule(steps))
            assert grown.path.v == cert.path.v + sum(x * k for x, k in steps)
