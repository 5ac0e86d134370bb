import json

import pytest

from bhr import growth, search, seeds, solvers
from bhr.core import (
    Certificate,
    LengthMultiset,
    MultisetError,
    NotGrowableError,
    PathError,
    certificate,
    is_admissible,
    verify_realization,
)
from bhr.families import seed_for_residue
from bhr.search import SearchConfig
from bhr.solvers import hr_bound, solve, solve_136, solve_1x2x


def _check_solved(out, counts):
    assert out.status == "solved", out.trace
    assert out.certificate is not None
    assert out.certificate.multiset == LengthMultiset.from_counts(counts)
    assert verify_realization(out.certificate.path, out.certificate.multiset)


def test_u123_examples():
    for a, b, c in [(1, 2, 3), (5, 6, 9), (3, 1, 1), (2, 4, 2), (7, 7, 7)]:
        out = solve(LengthMultiset.from_counts({1: a, 2: b, 3: c}))
        _check_solved(out, {1: a, 2: b, 3: c})


def test_u123_external_region():
    out = solve(LengthMultiset.from_counts({1: 0, 2: 3, 3: 4}))
    assert out.status == "search_fallback"
    assert out.trace[0][0] == "external-theorem region"
    assert out.ok


def test_u145_examples():
    for a, b, c in [(2, 4, 5), (1, 4, 12), (3, 2, 6), (4, 1, 9)]:
        out = solve(LengthMultiset.from_counts({1: a, 4: b, 5: c}))
        _check_solved(out, {1: a, 4: b, 5: c})


def test_u145_inadmissible():
    out = solve(LengthMultiset.from_counts({1: 1, 4: 1, 5: 7}))
    assert out.status == "not_admissible"
    assert not out.ok


def test_u1234_examples():
    for a, b, c, d in [(1, 1, 3, 4), (1, 2, 3, 1), (0, 1, 3, 4),
                       (0, 2, 3, 4), (1, 3, 2, 2)]:
        out = solve(LengthMultiset.from_counts({1: a, 2: b, 3: c, 4: d}))
        _check_solved(out, {1: a, 2: b, 3: c, 4: d})


def test_u1234_external_regions():
    # a >= 3 and the |U| <= 2 subcases are covered by prior results and
    # handled by verified search
    for abcd in [(3, 2, 2, 2), (2, 1, 3, 3), (0, 0, 3, 4), (2, 2, 0, 3)]:
        out = solve(LengthMultiset.from_counts(dict(zip((1, 2, 3, 4), abcd))))
        assert out.status == "search_fallback", abcd
        assert out.trace[0][0] == "external-theorem region"
        assert out.ok, abcd


def test_u1234_d_zero_delegates():
    out = solve(LengthMultiset.from_counts({1: 2, 2: 3, 3: 4, 4: 0}))
    _check_solved(out, {1: 2, 2: 3, 3: 4})


U123 = {"u123-main", "u123-1g", "supplement"}
U1234_A1 = {"u134", "u1234-beven", "u1234-bodd", "supplement"}
REGION_A = "a >= 3 or (a = 2, b >= 1) region"
SMALL = "underlying set of size <= 2"
# (row key of solvers._DRIVERS, or None for no row; target; what its
# step names: the tables one of which replays, the swap seed's label
# key, or the reason it cites or refuses)
ROUTES = [
    ((1, 2, 3), "1 2 3^3", U123),
    ((1, 4, 5), "1 4^3 5^5", {"u145-a2", "u145-a3", "u145-a1", "u145-4g",
                              "inproof", "supplement"}),
    ((1, 2, 4), "1 2^2 4^4", "no 3's: subset of {1,2,4}"),
    ((2, 3, 4), "2 3^2 4^4", {"u234-bodd", "u234-beven", "inproof",
                              "supplement"}),
    ((1, 3, 4), "1 3^2 4^4", U1234_A1),
    ((1, 3, 4), "1^2 3 4^4", {"u1234-a2", "inproof", "supplement"}),
    ((1, 3, 4), "1^3 3 4^3", REGION_A),
    ((1, 2, 3, 4), "1 2 3 4^4", U1234_A1),
    ((1, 2, 3, 4), "1^2 2 3 4^3", REGION_A),
    ((1, 3, 6), "1^3 3^18 6^10", "seed"),
    ("{1,x,2x}", "1^3 4^21 8^4", "seed_b"),
    ("{1,x,2x}", "1^3 5^28 10^2", "seed_b"),
    ("|U| <= 2", "3^6", SMALL),
    ("|U| <= 2", "1^5 2", SMALL),
    (None, "1^3 2^3 5^4", "no driver for U = [1, 2, 5]"),
]


class _Recording(dict):
    """_DRIVERS that records each key _route reads a row by."""

    def __init__(self, rows, reached):
        super().__init__(rows)
        self.reached = reached

    def __getitem__(self, key):
        self.reached.append(key)
        return super().__getitem__(key)


def test_solve_routes_each_underlying_set(monkeypatch):
    # one small target per row of the driver table, and per count of 1s
    # where a row picks by it; |U| <= 2 and {1,x,2x} reach their rows by
    # rule
    reached = []
    monkeypatch.setattr(
        solvers, "_DRIVERS", _Recording(solvers._DRIVERS, reached)
    )
    for key, text, want in ROUTES:
        reached.clear()
        out = solve(LengthMultiset.parse(text))
        assert reached == ([key] if key else []), text
        name, step = out.trace[0]
        if name == "replay":
            _check_solved(out, LengthMultiset.parse(text).counts())
            assert step["table"] in want, (text, step)
            assert want <= _named_tables(solvers._DRIVERS[key]), text
        elif name == "swap-pipeline":
            _check_solved(out, LengthMultiset.parse(text).counts())
            assert want in step, (text, step)
        elif key:
            assert out.status == "search_fallback" and out.ok, text
            assert (name, step["why"]) == ("external-theorem region", want)
        else:
            assert (out.status, step["why"]) == ("out_of_proven_range", want)
    assert {key for key, _, _ in ROUTES} - {None} == set(solvers._DRIVERS)


def _named_tables(row):
    """The seed tables a row of the driver table names: a replay or swap
    row's own ids, and those of the rows a choice by the number of 1s
    holds."""
    if isinstance(row, solvers._Swap):
        row = row.tables
    if isinstance(row, tuple):
        return set(row)
    if isinstance(row, dict):
        return set().union(*map(_named_tables, row.values()))
    return set()


def test_driver_table_names_the_registered_tables():
    # a misspelt id would otherwise raise only when a target reached its
    # row; every table but the demo one is some row's seed source, the
    # g-seeds of the {1,3,6} swap row included
    named = set().union(*map(_named_tables, solvers._DRIVERS.values()))
    assert named <= set(seeds.SEED_TABLES), named - set(seeds.SEED_TABLES)
    assert set(seeds.SEED_TABLES) - named == {"demo"}
    # every row is data, down to the rows a choice by a holds
    for row in solvers._DRIVERS.values():
        inner = row.values() if isinstance(row, dict) else ()
        assert not any(map(callable, (row, *inner))), row


def test_136_worked_example():
    out = solve_136(3, 18, 10)
    _check_solved(out, {1: 3, 3: 18, 6: 10})
    assert out.certificate.path.vertices == (
        31, 30, 1, 4, 7, 13, 10, 16, 22, 19, 25, 28, 29, 0, 3, 6, 12,
        9, 15, 21, 18, 24, 27, 26, 23, 20, 17, 11, 14, 8, 5, 2,
    )
    assert out.trace[-1][0] == "swap-pipeline"


def test_136_more_cases():
    for a, b, c in [(2, 13, 0), (2, 18, 1), (3, 20, 4), (2, 21, 7)]:
        out = solve_136(a, b, c)
        _check_solved(out, {1: a, 3: b, 6: c})


def test_136_inadmissible():
    out = solve_136(1, 18, 1)
    assert out.status == "not_admissible"


def _why(out):
    assert out.status == "out_of_proven_range"
    return out.trace[0][1]["why"]


def test_136_out_of_range():
    out = solve_136(2, 9, 1)
    assert out.status == "out_of_proven_range"
    # one step below each bound: a >= 1; b >= 13 + c/2 for even c and
    # 18 + (c - 1)/2 for odd c
    assert _why(solve_136(0, 13, 0)) == "need a >= 1 and b >= 13"
    assert _why(solve_136(2, 17, 1)) == "need a >= 1 and b >= 18"
    ms = LengthMultiset.parse("1^3 3^17 6^11")
    assert _why(solve(ms)) == "need a >= 1 and b >= 23"
    out = solve(LengthMultiset.from_counts({1: 2, 3: 9, 6: 1}), fallback=True)
    assert out.status == "search_fallback" and out.ok


def test_1x2x_examples():
    for a, b, c, x in [(6, 38, 0, 8), (3, 21, 4, 4), (3, 28, 2, 5),
                       (8, 52, 6, 10)]:
        out = solve_1x2x(a, b, c, x)
        _check_solved(out, {1: a, x: b, 2 * x: c})


def test_1x2x_residue_forcing_is_inadmissible():
    # when (b + c) = 1 mod x with a = x - 2, x divides v and the
    # divisor count fails, so these parameters are never realizable
    for a, b, c, x in [(6, 39, 2, 8), (7, 48, 16, 9)]:
        out = solve_1x2x(a, b, c, x)
        assert out.status == "not_admissible", (a, b, c, x)


def test_1x2x_only_the_residue_seed_for_b_plus_c_fits():
    # every swap adds 2i 2x's and 3x - 2i x's, so of the x residue seeds
    # only the one for (b + c) mod x, the one the {1,x,2x} row takes,
    # can reach b
    checked = 0
    for x in range(4, 13):
        residue_seeds = [seed_for_residue(x, r) for r in range(x)]
        for c in range(0, 4 * x + 1, 2):
            b0 = 5 * x - 2 + c // 2
            for b in range(b0, b0 + x):
                for a in (x - 2, x - 1, x):
                    ms = LengthMultiset.from_counts({1: a, x: b, 2 * x: c})
                    if not is_admissible(ms).ok:
                        continue
                    target = ms.counts()
                    fits = [
                        r for r, seed in enumerate(residue_seeds)
                        if solvers._swaps_for(seed, target, x)
                    ]
                    assert fits == [(b + c) % x], (a, b, c, x)
                    checked += 1
    assert checked == 3879


def test_1x2x_out_of_range():
    # odd c is open; a < x - 2
    for a, b, c in [(6, 38, 1), (1, 40, 0)]:
        why = _why(solve_1x2x(a, b, c, 8))
        assert why == "need a >= 6, even c, b >= 38", (a, b, c)
    ms = LengthMultiset.parse("1^3 4^21 8^3")
    assert _why(solve(ms)) == "need a >= 2, even c, b >= 19"
    with pytest.raises(ValueError):
        solve_1x2x(2, 20, 0, 3)


def test_hr_bound():
    assert hr_bound(LengthMultiset.parse("2^4 3^2")) == 9
    assert hr_bound([2, 3]) == 9
    assert hr_bound([4, 5]) == 19
    assert hr_bound([2]) == 3
    with pytest.raises(ValueError):
        hr_bound([1, 2])
    with pytest.raises(ValueError):
        hr_bound([])
    # an iterable of lengths is checked as a multiset's lengths are
    # mixed types and unhashable lengths too, before sorting or counting
    for bad in (
        [0, 3], [-2, 3], [2.5, 3], "23", [True, 3],
        ["a", 3], [None, 3], [[1], 3],
    ):
        with pytest.raises(MultisetError):
            hr_bound(bad)


def test_hr_bound_monotone_in_max():
    assert hr_bound([2, 7]) < hr_bound([2, 8])


def test_solve_dispatch():
    out = solve(LengthMultiset.parse("1 2^2 3^3"))
    assert out.status == "solved"
    out = solve(LengthMultiset.parse("5^3"))
    assert out.status == "not_admissible"
    out = solve(LengthMultiset.parse("3^6"))
    assert out.status == "search_fallback" and out.ok
    out = solve(LengthMultiset.parse("1^2 3^9 6"))
    assert out.status == "out_of_proven_range"
    out = solve(LengthMultiset.parse("1^3 2^3 5^4"))
    assert out.status == "out_of_proven_range"
    out = solve(
        LengthMultiset.parse("1^3 2^3 5^4"),
        fallback=True,
        cfg=SearchConfig(rng_seed=3),
    )
    assert out.status == "search_fallback" and out.ok


@pytest.mark.parametrize("fallback", [False, True])
def test_search_policy_per_refusal(fallback):
    # an external-theorem region is always searched, an out-of-range
    # refusal only with fallback; an inadmissible target never is
    cases = [
        ("3^6", "external-theorem region", True),
        ("1^2 3^9 6", "out_of_proven_range", fallback),
        ("1^3 2^3 5^4", "out_of_proven_range", fallback),
    ]
    for text, refusal, searched in cases:
        out = solve(LengthMultiset.parse(text), fallback=fallback)
        assert out.admissibility is None, text
        if searched:
            assert out.status == "search_fallback" and out.ok, text
            assert [name for name, _ in out.trace] == [refusal, "search"]
            assert out.trace[1][1] == {"found": True}, text
        else:
            assert (out.status, out.certificate) == (refusal, None), text
            assert [name for name, _ in out.trace] == [refusal]
        assert set(out.trace[0][1]) == {"why"}, text
    out = solve(LengthMultiset.parse("5^3"), fallback=fallback)
    assert (out.status, out.certificate) == ("not_admissible", None)
    assert not out.admissibility.ok
    assert [name for name, _ in out.trace] == ["not_admissible"]


def test_solve_brute_cap_bounds_the_exhaustive_step(monkeypatch):
    # with local_search refused, brute_force answers only when v is
    # within brute_cap
    monkeypatch.setattr(search, "local_search", lambda ms, cfg: None)
    ms = LengthMultiset.parse("3^6")  # v = 7, external region
    out = solve(ms, brute_cap=6)
    assert out.status == "search_fallback" and not out.ok
    assert out.trace[-1] == ("search", {"found": False})
    out = solve(ms, brute_cap=7)
    assert out.status == "search_fallback" and out.ok
    assert out.trace[-1] == ("search", {"found": True})
    assert out.certificate.trace[0][0] == "brute_force"


def test_solve_raises_when_a_search_certificate_fails(monkeypatch):
    # a found path that fails its own Certificate is a fault, not a
    # failed search
    def broken(ms, cap=None):
        raise PathError("certificate does not verify")

    monkeypatch.setattr(search, "local_search", lambda ms, cfg: None)
    monkeypatch.setattr(search, "brute_force", broken)
    with pytest.raises(PathError):
        solve(LengthMultiset.parse("3^6"))


def test_solve_deterministic():
    ms = LengthMultiset.parse("1^2 3^4 6^2")
    a = solve(ms, fallback=True, cfg=SearchConfig(rng_seed=5))
    b = solve(ms, fallback=True, cfg=SearchConfig(rng_seed=5))
    assert (a.status, a.certificate) == (b.status, b.certificate)


def test_outcome_to_dict():
    out = solve(LengthMultiset.parse("1 2^2 3^3"))
    data = out.to_dict()
    assert data["schema"] == 1
    assert data["status"] == "solved"
    assert data["certificate"]["multiset"] == "1 2^2 3^3"


def test_outcome_to_dict_copies_its_trace():
    out = solve(LengthMultiset.parse("1 2^2 3^3"))
    assert out.trace[0][0] == "replay"
    before = json.dumps(out.to_dict())
    out.to_dict()["trace"][0][1]["table"] = "tampered"
    out.to_dict()["trace"][0][1]["schedule"].clear()
    assert json.dumps(out.to_dict()) == before
    assert out.trace[0][1]["table"] != "tampered"


def test_solve_answers_hold_the_callers_multiset():
    # search answers keep the multiset they are handed; solve must hand
    # its own, not a copy rebuilt from the multiplicities
    for text in ("3 1^5 4^2", "1^3 2^2 3^2 4^2", "1^3 2^3 4^2"):
        ms = LengthMultiset.parse(text)
        out = solve(ms)
        assert out.trace[0][0] == "external-theorem region", text
        assert out.certificate.multiset is ms, text


def test_large_swap_pipelines_fold_the_full_swaps(monkeypatch):
    # the partial swap, then every full swap in one k-fold step, however
    # many full swaps c asks for; all on one chain, checked by a single
    # Certificate
    swaps, certs = [], []
    swap, post_init = growth._Chain.swap, Certificate.__post_init__

    def counting_swap(chain, x, i, k):
        swaps.append(k)
        return swap(chain, x, i, k)

    def counting_post_init(cert, carried):
        certs.append(cert)
        return post_init(cert, carried)

    monkeypatch.setattr(growth._Chain, "swap", counting_swap)
    monkeypatch.setattr(Certificate, "__post_init__", counting_post_init)
    for text in ("1^3 5^2040 10^2058", "1^2 3^1000 6^1000"):
        ms = LengthMultiset.parse(text)
        solve(ms)  # builds the seed's own Certificate, if not yet built
        swaps.clear()
        certs.clear()
        out = solve(ms)
        _check_solved(out, ms.counts())
        plan = out.trace[0][1]
        assert plan["full_swaps"] > 100, text
        assert len(swaps) <= 2, (text, swaps)
        assert sum(swaps) == plan["full_swaps"] + (plan["i"] > 0), text
        assert certs == [out.certificate], text


def _dead_end_families(max_v):
    """The four families whose fixed schedule used to break on a
    hand-built seed, every admissible member with v <= max_v:
    {1^a, 2^b, 3} with a >= 2, {1, 2^b, 3^c, 4^3}, {1, 2^3, 3^c, 4} and
    {1, 2^2, 3^c, 4^2}."""
    for n in range(1, max_v):  # n = v - 1 edges
        shapes = [{1: a, 2: n - a - 1, 3: 1} for a in range(2, n - 1)]
        shapes += [{1: 1, 2: b, 3: n - b - 4, 4: 3} for b in range(1, n - 4)]
        if n > 5:
            shapes += [{1: 1, 2: 3, 3: n - 5, 4: 1}]
            shapes += [{1: 1, 2: 2, 3: n - 5, 4: 2}]
        for counts in shapes:
            ms = LengthMultiset.from_counts(counts)
            if is_admissible(ms).ok:
                yield ms


def _large_dead_end_members():
    """Members of the four families at v = 500..502 and 1000..1002,
    every residue mod 2 and 3, with the varied counts at both ends and
    in the middle."""
    for v in (500, 501, 502, 1000, 1001, 1002):
        n = v - 1
        for a in (2, 3, n // 2, n - 3):
            yield {1: a, 2: n - a - 1, 3: 1}
        for b in (1, 2, 3, n // 2, n - 6, n - 5):
            yield {1: 1, 2: b, 3: n - b - 4, 4: 3}
        yield {1: 1, 2: 3, 3: n - 5, 4: 1}
        yield {1: 1, 2: 2, 3: n - 5, 4: 2}


def test_dead_end_families_replay_on_fixed_schedules():
    # each member replays on the one fixed ascending schedule its trace
    # names: the certificate's grows, run-length encoded, are exactly
    # that schedule
    targets = list(_dead_end_families(100))
    assert len(targets) == 9305
    large = [LengthMultiset.from_counts(c) for c in _large_dead_end_members()]
    assert all(is_admissible(ms).ok for ms in large)
    for ms in targets + large:
        out = solve(ms)
        assert out.status == "solved", (ms, out.trace)
        [(name, step)] = out.trace
        assert name == "replay" and "rescue" not in step, (ms, step)
        grows = []
        for entry, params in out.certificate.trace:
            if entry != "grow":
                continue
            if grows and grows[-1][0] == params["x"]:
                grows[-1] = (params["x"], grows[-1][1] + 1)
            else:
                grows.append((params["x"], 1))
        assert grows == step["schedule"], (ms, step)
        assert out.certificate.multiset == ms


def _replay(table_ids, ms):
    target = ms.counts()
    return solvers._grow_first(
        solvers._seeds(table_ids),
        lambda seed: solvers._schedule_for(seed, target),
    )


def test_replay_miss_names_a_broken_schedule():
    # the u123-main block-1 row subsumes 1^2 2^5 3, but its 1-grow
    # breaks the 2-point; without the stable row no entry is left
    ms = LengthMultiset.parse("1^2 2^5 3")
    assert _replay(("u123-main",), ms) == (
        "out_of_proven_range",
        {"why": "fixed schedule broke on u123-main block1"},
        None,
    )
    assert _replay(("u145-a2",), ms)[1] == {"why": "no subsuming seed"}
    assert solve(ms).trace[0][1]["table"] == "stable"


def test_swap_rows_skip_a_seed_that_breaks(monkeypatch):
    # a seed whose swaps raise is skipped like a replay seed whose
    # schedule breaks; with every seed skipped the swap rows answer
    # with their fixed miss texts
    def broken_swap(chain, x, i, k):
        raise NotGrowableError("swap refused")

    monkeypatch.setattr(growth._Chain, "swap", broken_swap)
    for out, why in [
        (solve_136(3, 18, 10), "no g-seed fits"),
        (solve_1x2x(3, 21, 4, 4), "seed multiplicities not subsumed"),
    ]:
        assert out.status == "out_of_proven_range", why
        assert out.trace == (("out_of_proven_range", {"why": why}),)


def test_swaps_for_refuses_a_seed_without_the_point_it_grows_at():
    # g1 is 1^2 3^4; 1^3 3^13 needs one 1-grow and three 3-grows, so the
    # plan refuses the seed without its 1-point before any chain is built
    g1 = seeds.table("u136")[0].certificate
    target = {1: 3, 3: 13}
    assert solvers._swaps_for(g1, target, 3) is not None
    no_one = certificate(
        g1.path,
        g1.multiset,
        [gp for gp in g1.grow_points if gp.x != 1],
        g1.trace,
    )
    assert solvers._swaps_for(no_one, target, 3) is None


def test_a_plan_that_grows_nothing_answers_with_the_seed(monkeypatch):
    def no_chain(seed):
        raise AssertionError("a chain was built for a plan with no steps")

    monkeypatch.setattr(solvers, "_Chain", no_chain)
    out = solve(LengthMultiset.parse("1 2^2 3^3"))
    assert out.certificate is seeds.table("u123-main")[0].certificate
    assert out.trace == (
        ("replay", {"table": "u123-main", "variant": "main", "schedule": []}),
    )


def test_replay_trace_params_are_read_only():
    """Answers grown from one seed share its trace entries, so editing
    one answer's entry must fail rather than rename the seed in every
    other answer; the printed forms stay plain dicts and lists."""
    first = solve(LengthMultiset.from_counts({1: 5, 2: 6, 3: 9}))
    second = solve(LengthMultiset.from_counts({1: 5, 2: 6, 3: 12}))
    seed = first.certificate.trace[0]
    assert seed[0] == "seed" and seed[1] is second.certificate.trace[0][1]
    with pytest.raises(TypeError):
        seed[1]["variant"] = "edited"
    grow_params = first.certificate.trace[1][1]
    with pytest.raises(TypeError):
        grow_params["x"] = 0
    data = json.loads(json.dumps(first.to_dict()))
    assert data["certificate"]["trace"][0] == [
        "seed", {"table": seed[1]["table"], "variant": seed[1]["variant"]}
    ]
    assert type(first.certificate.to_dict()["trace"][1][1]) is dict
