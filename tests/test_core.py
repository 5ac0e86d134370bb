import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bhr
from bhr.core import (
    Certificate,
    GrowPoint,
    HamPath,
    LengthMultiset,
    MultisetError,
    NotGrowableError,
    PathError,
    alternating_runs,
    certificate,
    check_realization,
    cyclic_lengths,
    divisor_table,
    edge_length,
    embed,
    growth_points,
    is_admissible,
    is_growable_at,
    is_perfect,
    lengthened_pairs,
    linear_diffs,
    verify_realization,
    window_endpoints,
)
from bhr.growth import (
    GrowthSchedule,
    even_grow,
    grow,
    multi_grow,
    perf_grow,
    x2x_swap,
)
from conftest import seed_row


def test_multiset_parse_format_roundtrip():
    for text in ["1^2 2 3^3", "1", "2^5", "1^3 4 5^7"]:
        ms = LengthMultiset.parse(text)
        assert ms.format() == text
        assert LengthMultiset.parse(ms.format()) == ms


def test_multiset_parse_normalizes():
    assert LengthMultiset.parse("3 1 1").format() == "1^2 3"
    assert LengthMultiset.parse("2^1").format() == "2"


def test_multiset_parse_rejects_garbage():
    for bad in ["", "0", "1^0", "-2", "a", "1^^2"]:
        with pytest.raises((MultisetError, ValueError)):
            LengthMultiset.parse(bad)


def test_multiset_items_are_checked_when_built_directly():
    for items in [((2, 1), (1, 1)), ((1, 1), (1, 2))]:
        with pytest.raises(MultisetError, match="sorted with distinct"):
            LengthMultiset(items)
    with pytest.raises(MultisetError, match=r"^length 0 < 1$"):
        LengthMultiset(((0, 1), (2, 1)))
    with pytest.raises(MultisetError, match=r"^count 0 < 1 for length 3$"):
        LengthMultiset(((1, 1), (3, 0)))
    assert LengthMultiset(((1, 2), (4, 1))).size == 3


def test_multiset_basics():
    ms = LengthMultiset.from_counts({1: 2, 3: 3, 2: 1})
    assert ms.size == 6
    assert ms.v == 7
    assert ms.underlying_set == frozenset({1, 2, 3})
    assert ms.multiplicity(3) == 3
    assert ms.multiplicity(9) == 0
    assert ms == LengthMultiset.from_lengths([1, 1, 2, 3, 3, 3])
    assert LengthMultiset.from_counts({1: 2, 2: 0}).items == ((1, 2),)


def test_multiset_add_copies():
    a = LengthMultiset.parse("1^2 2")
    assert a.add_copies(2, 3).format() == "1^2 2^4"


def test_edge_length():
    assert edge_length(0, 1, 9) == 1
    assert edge_length(0, 8, 9) == 1
    assert edge_length(2, 7, 9) == 4
    assert edge_length(0, 5, 10) == 5
    with pytest.raises(PathError):
        edge_length(0, 9, 9)
    with pytest.raises(PathError):
        edge_length(3, 3, 9)


def test_hampath_validation():
    for vertices, why in (
        ([0, 1, 1], "label 1 at index 2 is repeated"),
        ([0, 2], "label 2 at index 1 is out of range"),
        ([-1, 0], "label -1 at index 0 is out of range"),
    ):
        with pytest.raises(PathError) as info:
            HamPath.of(vertices)
        v = len(vertices)
        assert str(info.value) == f"not a permutation of 0..{v - 1}: {why}"
    p = HamPath.of([0, 2, 1])
    assert p.v == 3


def test_cyclic_lengths():
    p = HamPath.of([0, 5, 1, 2, 6, 3, 4])
    assert cyclic_lengths(p) == LengthMultiset.parse("1^2 2 3^3")


def test_linear_diffs_and_perfect():
    p = HamPath.of([0, 3, 1, 4, 2, 5])
    assert linear_diffs(p) == LengthMultiset.parse("2^2 3^3")
    assert is_perfect(p)
    q = HamPath.of([0, 2, 4, 1, 3, 5])
    assert linear_diffs(q) == LengthMultiset.parse("2^4 3")
    assert is_perfect(q)
    assert not is_perfect(HamPath.of([1, 0, 2]))
    assert is_perfect(HamPath.of([0, 2, 1, 3]))


def test_alternating_runs():
    assert alternating_runs((1, 5), 0, 1) == []
    assert alternating_runs((1, 5), 3, 1) == [1, 5, 6, 2, 3, 7]
    assert alternating_runs((9, 5, 1), 3, -1) == [
        9, 5, 1, 0, 4, 8, 7, 3, -1,
    ]
    # an even count ends on a reversed run
    assert alternating_runs((0, 4), 4, 1) == [0, 4, 5, 1, 2, 6, 7, 3]


def test_admissibility_ok():
    for text in ["1", "1^2 2 3^3", "1^4 2 3^8 4", "2^2 3^4"]:
        adm = is_admissible(LengthMultiset.parse(text))
        assert adm.ok, text


def test_admissibility_oversized():
    adm = is_admissible(LengthMultiset.parse("5^3"))
    assert not adm.ok
    assert adm.reason == "oversized"
    assert adm.length == 5


def test_admissibility_divisor():
    # v = 6, three multiples of 3 but bound is v - 3 = 3; the divisor-2
    # test fails first: 5 multiples of 2 exceed v - 2 = 4.
    adm = is_admissible(LengthMultiset.parse("2^5"))
    assert not adm.ok
    assert adm.reason == "divisor"
    assert adm.count > adm.bound
    # v = 9, six multiples of 3 sit exactly at the bound 9 - 3 = 6
    assert is_admissible(LengthMultiset.parse("1^2 3^6")).ok


def test_admissibility_divisor_exact():
    adm = is_admissible(LengthMultiset.parse("3^8"))
    assert not adm.ok and adm.reason == "divisor" and adm.divisor == 3


def test_admissibility_at_huge_orders():
    # v = 10^20: the divisor walk stops at the longest length, so the
    # answer does not wait on a walk to sqrt(v)
    n = 10**20 - 1
    start = time.perf_counter()
    assert is_admissible(LengthMultiset(((1, n),))).describe() == "admissible"
    assert is_admissible(LengthMultiset(((2, n),))).describe() == (
        f"divisor 2: {n} multiples exceed bound {n - 1}"
    )
    assert time.perf_counter() - start < 1.0


def test_verify_realization():
    p = [0, 5, 1, 2, 6, 3, 4]
    assert verify_realization(HamPath.of(p), LengthMultiset.parse("1^2 2 3^3"))
    assert not verify_realization(HamPath.of(p), LengthMultiset.parse("1^6"))


def _ref_check_realization(path, ms):
    """check_realization spelled out: the path's lengths by edge_length
    gathered into a second multiset, compared whole, and the least
    length whose counts differ named."""
    if path.v != ms.v:
        return False, f"order mismatch: path has {path.v} vertices, need {ms.v}"
    realized = LengthMultiset.from_lengths(
        edge_length(a, b, path.v) for a, b in path.pairs()
    )
    if realized == ms:
        return True, "ok"
    have, need = realized.counts(), ms.counts()
    length = min(
        l for l in have.keys() | need.keys()
        if have.get(l, 0) != need.get(l, 0)
    )
    return False, (
        f"multiset mismatch: path has count {have.get(length, 0)} "
        f"of length {length}, need {need.get(length, 0)}"
    )


def test_counted_check_matches_multiset_comparison():
    """check_realization counts into a list and compares it with the
    items; on random paths, v = 2..40, it must agree with comparing
    whole multisets, message included, on the path's own multiset, one
    count moved to another length, one moved above v/2, and one copy
    more or fewer (the wrong order)."""
    rng = random.Random(36)
    for _ in range(400):
        v = rng.randint(2, 40)
        vs = list(range(v))
        rng.shuffle(vs)
        path = HamPath.of(vs)
        own = cyclic_lengths(path).counts()
        lengths = sorted(own)
        half = v // 2
        cases = [own]
        moved = dict(own)
        src = rng.choice(lengths)
        moved[src] -= 1
        if half > 1:
            dst = rng.choice([l for l in range(1, half + 1) if l != src])
            cases.append({**moved, dst: moved.get(dst, 0) + 1})
        cases.append({**moved, half + rng.randint(1, 3): 1})
        cases.append({**own, src: own[src] + 1})
        if v > 2:
            cases.append(moved)
        for counts in cases:
            ms = LengthMultiset.from_counts(counts)
            got = check_realization(path, ms)
            assert got == _ref_check_realization(path, ms), (vs, counts)
            assert got[0] == (cyclic_lengths(path) == ms)
            assert verify_realization(path, ms) == got[0]


def test_divisor_table_is_nested_tuples_and_cached():
    table = divisor_table(12, (1, 2, 3, 4, 6))
    assert table == ((2, 10, (1, 3, 4)), (3, 9, (2, 4)), (4, 8, (3,)),
                     (6, 6, (4,)))
    assert type(table) is tuple
    for row in table:
        assert type(row) is tuple and type(row[2]) is tuple
    assert divisor_table(12, (1, 2, 3, 4, 6)) is table


def test_embed():
    assert embed(2, 3, 4) == 2
    assert embed(5, 3, 4) == 8
    assert embed(4, 3, 4) == 4


def test_growable_is_sound_on_random_paths():
    """Whenever the predicate says yes, the grow construction must
    actually produce a realization of L + {x^x}."""
    from bhr.growth import grow

    rng = random.Random(5)
    checked = 0
    for _ in range(40):
        v = rng.randint(2, 11)
        verts = list(range(v))
        rng.shuffle(verts)
        path = HamPath.of(verts)
        base = cyclic_lengths(path)
        for x in range(1, v // 2 + 1):
            for m in range(v):
                if not is_growable_at(path, x, m):
                    continue
                cert = certificate(verts, base, grow_points=[(x, m)])
                grown = grow(cert, x, m)
                assert grown.multiset == base.add_copies(x, x)
                assert verify_realization(grown.path, grown.multiset)
                checked += 1
    assert checked > 100


def test_growable_examples():
    demo9 = HamPath.of([6, 4, 3, 0, 7, 1, 5, 2, 8])
    assert is_growable_at(demo9, 3, 2)
    assert not is_growable_at(demo9, 3, 1)  # truncated window
    assert not is_growable_at(demo9, 3, 8)
    demo15 = HamPath.of([0, 3, 6, 2, 1, 13, 10, 11, 14, 12, 9, 8, 5, 4, 7])
    pts = set(growth_points(demo15))
    for gp in [(1, 8), (1, 9), (2, 3), (3, 11), (4, 5)]:
        assert GrowPoint(*gp) in pts


def test_lengthened_pairs():
    demo9 = HamPath.of([6, 4, 3, 0, 7, 1, 5, 2, 8])
    pairs = lengthened_pairs(demo9, 3, 2)
    window = {0, 1, 2}
    flat = [w for pair in pairs for w in pair if w in window]
    assert sorted(flat) == [0, 1, 2]


def test_lengthening_does_not_depend_on_x():
    """An edge (a, b) lengthens under the embedding at m exactly when it
    straddles m and 2|a-b| < v, or does not and 2|a-b| > v, whatever x
    is; so no label m carries two grow points."""
    from bhr.seeds import iter_seeds

    rng = random.Random(11)
    paths = [entry.path for entry in iter_seeds()]
    for _ in range(200):
        verts = list(range(rng.randint(2, 24)))
        rng.shuffle(verts)
        paths.append(HamPath.of(verts))
    for path in paths:
        v = path.v
        for m in range(v):
            rule = {
                (a, b)
                for a, b in path.pairs()
                if (
                    2 * abs(a - b) < v
                    if min(a, b) <= m < max(a, b)
                    else 2 * abs(a - b) > v
                )
            }
            for x in range(1, v // 2 + 1):
                assert set(lengthened_pairs(path, x, m)) == rule, (path, m)
        ms = [gp.m for gp in growth_points(path)]
        assert len(ms) == len(set(ms)), path


def test_grow_points_take_the_one_x_their_label_lengthens():
    """The x of a grow point at m is the number n of pairs that lengthen
    at m, so trying that one n per label finds every grow point."""
    from bhr.seeds import iter_seeds

    rng = random.Random(0)
    paths = [entry.path for entry in iter_seeds()]
    for _ in range(100):
        verts = list(range(rng.randint(4, 30)))
        rng.shuffle(verts)
        paths.append(HamPath.of(verts))
    for path in paths:
        one_x = []
        for m in range(path.v):
            n = len(lengthened_pairs(path, 1, m))
            if 1 <= n <= path.v // 2 and is_growable_at(path, n, m):
                one_x.append(GrowPoint(n, m))
        assert growth_points(path) == sorted(one_x), path.vertices


def _ref_window_endpoints(path, x, m):
    """The growability test as first written, from embed and edge_length:
    the window endpoint of each lengthened pair, or None."""
    v = path.v
    if m - x + 1 < 0:
        return None
    incident = {y: 0 for y in range(m - x + 1, m + 1)}
    ends = {}
    for a, b in path.pairs():
        old = edge_length(a, b, v)
        if edge_length(embed(a, x, m), embed(b, x, m), v + x) <= old:
            continue
        hits = [y for y in (a, b) if y in incident]
        if len(hits) != 1:
            return None
        incident[hits[0]] += 1
        ends[a, b] = hits[0]
    return ends if all(n == 1 for n in incident.values()) else None


def test_window_endpoints_matches_reference():
    """On every seed and 200 random paths, at every (x, m): the kernel
    is None exactly when the point is not growable, and otherwise maps
    each lengthened pair to its unique window endpoint; cyclic_lengths
    agrees with edge_length."""
    from bhr.seeds import iter_seeds

    rng = random.Random(13)
    paths = [entry.path for entry in iter_seeds()]
    for _ in range(200):
        verts = list(range(rng.randint(2, 24)))
        rng.shuffle(verts)
        paths.append(HamPath.of(verts))
    growable = 0
    for path in paths:
        v = path.v
        assert cyclic_lengths(path) == LengthMultiset.from_lengths(
            edge_length(a, b, v) for a, b in path.pairs()
        )
        for x in range(1, v // 2 + 1):
            for m in range(v):
                got = window_endpoints(path, x, m)
                assert got == _ref_window_endpoints(path, x, m), (path, x, m)
                assert is_growable_at(path, x, m) == (got is not None)
                if got is not None:
                    assert list(got) == lengthened_pairs(path, x, m)
                    growable += 1
    assert growable > 1000
    demo9 = HamPath.of([6, 4, 3, 0, 7, 1, 5, 2, 8])
    for x, m in ((0, 2), (5, 2), (3, -1), (3, 9)):
        with pytest.raises(ValueError):
            window_endpoints(demo9, x, m)


def test_certificate_roundtrip():
    cert = certificate(
        [6, 4, 3, 0, 7, 1, 5, 2, 8],
        {1: 1, 2: 2, 3: 4, 4: 1},
        grow_points=[(3, 2)],
        trace=[("seed", {"table": "demo"})],
    )
    data = json.loads(json.dumps(cert.to_dict()))
    again = Certificate.from_dict(data)
    assert again == cert
    with pytest.raises(TypeError):
        again.trace[0][1]["table"] = "edited"
    with pytest.raises(TypeError):
        cert.trace[0][1]["table"] = "edited"
    cert.to_dict()["trace"][0][1]["table"] = "edited"
    assert cert.trace == (("seed", {"table": "demo"}),)
    assert data["schema"] == 1
    assert data["multiset"] == "1 2^2 3^4 4"


def test_import_leaves_json_out():
    """import bhr loads no JSON module: only the CLI prints documents.
    Run in a fresh interpreter, where no test has imported json yet."""
    code = "import sys, bhr\nprint('json' in sys.modules)\n"
    src = str(Path(bhr.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-B", "-c", code],
        capture_output=True,
        check=True,
        cwd=src,
        text=True,
    )
    assert run.stdout == "False\n"


def test_certificate_rejects_lies():
    with pytest.raises(PathError):
        certificate([0, 1, 2], {1: 3})
    # a multiset mismatch names one length, however long the path
    why = "multiset mismatch: path has count 1 of length 1, need 8"
    with pytest.raises(PathError, match=f"verify: {why}$"):
        certificate([6, 4, 3, 0, 7, 1, 5, 2, 8], {1: 8})
    with pytest.raises(NotGrowableError):
        certificate(
            [6, 4, 3, 0, 7, 1, 5, 2, 8],
            {1: 1, 2: 2, 3: 4, 4: 1},
            grow_points=[(3, 1)],
        )


def _demo15() -> Certificate:
    return seed_row("demo", "demo-15").certificate


def _doc(path, ms, points=()):
    return {"schema": 1, "path": path, "multiset": ms, "grow_points": points}


# Each value type refuses data that is not ints, whether it is built
# directly, through certificate() or from a document.  bool is a
# subclass of int and 2.0 == 2, so both would otherwise pass the
# permutation and sortedness checks.
NON_INT_CASES = [
    ("path-str", lambda: HamPath.of(["a"]), PathError,
     "label 'a' at index 0 is not an int"),
    ("path-list", lambda: HamPath.of([[0], 1]), PathError,
     "label [0] at index 0 is not an int"),
    ("path-float", lambda: HamPath.of([0.0, 2.0, 1.0]), PathError,
     "label 0.0 at index 0 is not an int"),
    ("path-bool", lambda: HamPath.of([False, True]), PathError,
     "label False at index 0 is not an int"),
    ("path-half", lambda: HamPath.of([0, 0.5]), PathError,
     "label 0.5 at index 1 is not an int"),
    ("doc-path-float",
     lambda: Certificate.from_dict(_doc([0.0, 2.0, 1.0], "1^2")),
     PathError, "label 0.0 at index 0 is not an int"),
    ("doc-path-bool", lambda: Certificate.from_dict(_doc([False, True], "1")),
     PathError, "label False at index 0 is not an int"),
    ("certificate-bool-length", lambda: certificate([0, 1], {True: 1}),
     MultisetError, "item (True, 1): not two ints"),
    ("certificate-float-count", lambda: certificate([0, 2, 1], {1: 2.0}),
     MultisetError, "item (1, 2.0): not two ints"),
    ("multiset-float-count", lambda: LengthMultiset.from_counts({1: 2.0}),
     MultisetError, "item (1, 2.0): not two ints"),
    # a zero count that is not an int is refused, not dropped
    ("multiset-float-zero-count",
     lambda: LengthMultiset.from_counts({1: 0.0}),
     MultisetError, "item (1, 0.0): not two ints"),
    ("multiset-bool-zero-count",
     lambda: LengthMultiset.from_counts({1: False, 2: 1}),
     MultisetError, "item (1, False): not two ints"),
    ("certificate-float-zero-count", lambda: certificate([0], {1: 0.0}),
     MultisetError, "item (1, 0.0): not two ints"),
    # refused before sorted() compares a str or None with an int
    ("multiset-mixed-keys",
     lambda: LengthMultiset.from_counts({"a": 1, 2: 1}),
     MultisetError, "item ('a', 1): not two ints"),
    ("multiset-none-key",
     lambda: LengthMultiset.from_counts({2: 1, None: 1}),
     MultisetError, "item (None, 1): not two ints"),
    # refused before an unhashable length is counted
    ("lengths-str", lambda: LengthMultiset.from_lengths(["a", 3]),
     MultisetError, "length 'a' is not an int"),
    ("lengths-none", lambda: LengthMultiset.from_lengths([None, 3]),
     MultisetError, "length None is not an int"),
    ("lengths-list", lambda: LengthMultiset.from_lengths([[1], 3]),
     MultisetError, "length [1] is not an int"),
    ("certificate-bool-point",
     lambda: certificate(_demo15().path, _demo15().multiset, [(True, 8)]),
     NotGrowableError, "GrowPoint(x=True, m=8) is not two ints"),
    ("doc-float-point",
     lambda: Certificate.from_dict(_doc([0, 1], "1", [[1.0, 0]])),
     NotGrowableError, "GrowPoint(x=1.0, m=0) is not two ints"),
    ("point-float", lambda: GrowPoint(1.0, 0), NotGrowableError,
     "GrowPoint(x=1.0, m=0) is not two ints"),
    # certificate() refuses a point that is not a pair before
    # GrowPoint(*point) could raise TypeError
    ("doc-point-short",
     lambda: Certificate.from_dict(_doc([0, 1], "1", [[1]])),
     NotGrowableError, "grow point [1] is not a pair"),
    ("doc-point-int", lambda: Certificate.from_dict(_doc([0, 1], "1", [5])),
     NotGrowableError, "grow point 5 is not a pair"),
    ("doc-point-triple",
     lambda: Certificate.from_dict(_doc([0, 1], "1", [[1, 2, 3]])),
     NotGrowableError, "grow point [1, 2, 3] is not a pair"),
    ("multi-grow-bool-step",
     lambda: multi_grow(_demo15(), GrowthSchedule(((True, 2),))),
     ValueError, "bad schedule step (True, 2)"),
    ("schedule-float-step", lambda: GrowthSchedule(((1.0, 2),)), ValueError,
     "bad schedule step (1.0, 2)"),
    # growth counts are exactly ints, as GrowthSchedule's are
    ("swap-bool-i", lambda: x2x_swap(_demo15(), 3, True), ValueError,
     "swap needs int i and k, got i=True, k=1"),
    ("swap-float-k", lambda: x2x_swap(_demo15(), 3, 1, 1.5), ValueError,
     "swap needs int i and k, got i=1, k=1.5"),
    ("grow-bool-k", lambda: grow(_demo15(), 3, 11, True), ValueError,
     "grow count k=True must be a nonnegative int"),
    ("grow-float-k", lambda: grow(_demo15(), 1, 8, 1.5), ValueError,
     "grow count k=1.5 must be a nonnegative int"),
    # growth lengths and labels too: core.window_endpoints refuses them
    # before any trace could carry them, even_grow before its runs
    ("grow-bool-x", lambda: grow(_demo15(), True, 8), NotGrowableError,
     "x=True and m=8 must be ints"),
    ("grow-float-m", lambda: grow(_demo15(), 1, 8.0), NotGrowableError,
     "x=1 and m=8.0 must be ints"),
    ("swap-bool-x", lambda: x2x_swap(_demo15(), True, 0), NotGrowableError,
     "x=True and m=8 must be ints"),
    ("perf-grow-bool-x", lambda: perf_grow(_demo15(), True, [[0, 1]]),
     NotGrowableError, "x=True and m=8 must be ints"),
    ("even-grow-float-y", lambda: even_grow(_demo15(), 4.0, 4),
     NotGrowableError, "y=4.0 and z=4 must be ints"),
    # a malformed document or trace is refused, never a KeyError,
    # AttributeError or TypeError
    ("doc-empty", lambda: Certificate.from_dict({}), PathError,
     "document has no 'path'"),
    ("doc-list", lambda: Certificate.from_dict([[0, 1]]), PathError,
     "document is a list, not a dict"),
    ("doc-no-points",
     lambda: Certificate.from_dict({"path": [0, 1], "multiset": "1"}),
     PathError, "document has no 'grow_points'"),
    ("doc-int-path", lambda: Certificate.from_dict(_doc(5, "1")), PathError,
     "document path is not a list"),
    ("doc-int-multiset", lambda: Certificate.from_dict(_doc([0, 1], 5)),
     MultisetError, "multiset text 5 is not a str"),
    ("doc-int-trace",
     lambda: Certificate.from_dict({**_doc([0, 1], "1"), "trace": 5}),
     PathError, "document trace is not a list"),
    ("doc-int-trace-entry",
     lambda: Certificate.from_dict({**_doc([0, 1], "1"), "trace": [1]}),
     PathError, "trace entry 1 is not a (name, mapping) pair"),
    ("doc-int-trace-params",
     lambda: Certificate.from_dict({**_doc([0, 1], "1"), "trace": [["x", 5]]}),
     PathError, "trace entry ['x', 5] is not a (name, mapping) pair"),
    ("certificate-int-trace-name",
     lambda: certificate([0, 1], {1: 1}, (), [(5, {})]),
     PathError, "trace entry (5, {}) is not a (name, mapping) pair"),
    # refused before trace_params(**params) could raise TypeError
    ("certificate-int-trace-key",
     lambda: certificate([0, 1], {1: 1}, (), [("x", {1: 2})]),
     PathError, "trace entry 'x' has a non-str key 1"),
]


@pytest.mark.parametrize(
    "build, error, message",
    [case[1:] for case in NON_INT_CASES],
    ids=[case[0] for case in NON_INT_CASES],
)
def test_value_types_refuse_non_ints(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert isinstance(info.value, ValueError)
    assert str(info.value) == message


def test_certificate_point_for():
    cert = certificate(
        [6, 4, 3, 0, 7, 1, 5, 2, 8],
        {1: 1, 2: 2, 3: 4, 4: 1},
        grow_points=[(3, 2)],
    )
    assert cert.point_for(3) == GrowPoint(3, 2)
    with pytest.raises(NotGrowableError):
        cert.point_for(2)
