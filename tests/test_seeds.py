from dataclasses import replace
from itertools import product

import pytest

from bhr import seeds
from bhr.core import GrowPoint, LengthMultiset
from bhr.growth import GrowthSchedule, multi_grow


def test_verify_all_seeds_clean():
    reports = seeds.verify_all_seeds()
    bad = [r for r in reports if not r.ok]
    assert bad == []
    assert len(reports) >= 280


def test_table_ids():
    for tid in [
        "u123-main",
        "u123-1g",
        "u145-a1",
        "u145-a2",
        "u145-a3",
        "u145-4g",
        "u1234-a2",
        "u134",
        "u1234-beven",
        "u1234-bodd",
        "u234-beven",
        "u234-bodd",
        "u136",
        "inproof",
        "supplement",
        "demo",
    ]:
        assert len(seeds.table(tid)) > 0, tid
    with pytest.raises(KeyError):
        seeds.table("nope")


def test_entries_verify_individually():
    entry = seeds.lookup_seed({1, 2, 3, 4}, variant="demo-9")
    assert entry.check() == []
    assert entry.multiset == LengthMultiset.parse("1 2^2 3^4 4")
    assert entry.path.vertices == (6, 4, 3, 0, 7, 1, 5, 2, 8)


def test_check_reports_what_the_certificate_refuses():
    entry = seeds.lookup_seed({1, 2, 3, 4}, variant="demo-9")
    cert = entry.certificate()
    assert entry.certificate() is cert
    assert cert.trace == (("seed", {"table": "demo", "variant": "demo-9"}),)
    bad_point = replace(entry, declared_grow_points=(GrowPoint(1, 0),))
    assert bad_point.check() == ["declared grow point (1, 0) fails"]
    bad_counts = replace(entry, multiset=LengthMultiset.parse("1^2 2^2 3^4 4"))
    [problem] = bad_counts.check()
    assert "order mismatch" in problem


def test_lookup_by_variant():
    g1 = seeds.lookup_seed({1, 3}, variant="g1")
    assert g1.table_id == "u136"
    assert g1.multiset.underlying_set == frozenset({1, 3})


def test_lookup_by_table_id():
    entry = seeds.lookup_seed({1, 2, 3}, variant="u123-main")
    assert entry.table_id == "u123-main"


def test_lookup_missing_raises():
    with pytest.raises(KeyError):
        seeds.lookup_seed({11, 13})


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
        cert = entry.certificate()
        xs = sorted({gp.x for gp in entry.declared_grow_points})
        schedules = set(product(range(12), repeat=len(xs)))
        schedules |= set(product(large, repeat=len(xs)))
        for counts in sorted(schedules):
            steps = tuple(zip(xs, counts))
            grown = multi_grow(cert, GrowthSchedule(steps))
            assert grown.path.v == cert.path.v + sum(x * k for x, k in steps)
