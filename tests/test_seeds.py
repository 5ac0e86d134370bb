from dataclasses import replace
from itertools import product

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
    for tid, entries in seeds.SEED_TABLES.items():
        assert entries and seeds.table(tid) is entries, tid
    with pytest.raises(KeyError):
        seeds.table("nope")


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
