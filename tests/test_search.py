import random
import sys
import traceback

import pytest

from bhr import search
from bhr.core import (
    Admissibility,
    LengthMultiset,
    MultisetError,
    edge_length,
    is_admissible,
    verify_realization,
)
from bhr.search import (
    SearchConfig,
    brute_force,
    enumerate_admissible,
    local_search,
    sweep,
)


def test_config_validation():
    SearchConfig()
    SearchConfig(rng_seed=-3)
    with pytest.raises(ValueError):
        SearchConfig(max_restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(max_steps_per_restart=-1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_restarts", 2.5),
        ("max_steps_per_restart", "9"),
        ("max_steps_per_restart", 2.5),
        ("max_restarts", True),
        ("rng_seed", 1.0),
        ("rng_seed", True),
        ("rng_seed", "1"),
    ],
)
def test_config_budgets_must_be_ints(field, value):
    # a float would fail later inside range() or be taken as a budget,
    # a str would fail at the first comparison, and a bool is an int;
    # a seed of 1.0, True or "1" would seed or trace unlike the int 1
    with pytest.raises(ValueError, match=field):
        SearchConfig(**{field: value})


def test_local_search_finds_small_targets():
    for text in ["1^2 2 3^3", "2^2 3^4", "1^4", "1 2^2 3^4 4"]:
        ms = LengthMultiset.parse(text)
        cert = local_search(ms, SearchConfig(rng_seed=1))
        assert cert is not None, text
        assert cert.multiset == ms
        assert verify_realization(cert.path, cert.multiset)
        assert cert.trace[-1][0] == "local_search"


def test_local_search_rejects_inadmissible():
    with pytest.raises(MultisetError):
        local_search(LengthMultiset.parse("5^3"), SearchConfig())


def test_local_search_edge_orders():
    # the admissibility check runs before the per-length lists are
    # sized v//2 + 1, so a longer length is refused, not indexed
    cfg = SearchConfig(rng_seed=0)
    for text, want in [("1", (1, 0)), ("1^2", (1, 0, 2))]:
        cert = local_search(LengthMultiset.parse(text), cfg)
        assert cert.path.vertices == want, text
    with pytest.raises(MultisetError):
        local_search(LengthMultiset.parse("1^3 4"), cfg)


def test_local_search_deterministic():
    ms = LengthMultiset.parse("1 2^2 3^4 4")
    a = local_search(ms, SearchConfig(rng_seed=7))
    b = local_search(ms, SearchConfig(rng_seed=7))
    assert a.path == b.path


def _reference_search(ms, cfg):
    """The documented hill climb, spelled out slowly: every candidate
    path is rebuilt and rescored from scratch, ties go to the smaller
    sorted deficit vector and then to the RNG.  Returns (path, trace)
    or None."""
    v, target, full = ms.v, ms.counts(), ms.size

    def counts_of(path):
        counts = {}
        for a, b in zip(path, path[1:]):
            d = abs(a - b)
            l = min(d, v - d)
            counts[l] = counts.get(l, 0) + 1
        return counts

    def score_of(counts):
        return sum(min(c, counts.get(l, 0)) for l, c in target.items())

    for restart in range(cfg.max_restarts):
        rng = random.Random(f"{cfg.rng_seed}:{restart}")
        current = list(range(v))
        rng.shuffle(current)
        score = score_of(counts_of(current))
        stagnant = steps = 0
        while score < full and stagnant < cfg.max_steps_per_restart:
            steps += 1
            i = rng.randrange(v - 1)
            a, b = current[: i + 1], current[i + 1 :]
            best = None
            for path in (a + b[::-1], a[::-1] + b, b + a):
                counts = counts_of(path)
                deficit = tuple(
                    max(0, c - counts.get(l, 0))
                    for l, c in sorted(target.items())
                )
                key = (-score_of(counts), deficit, rng.random())
                if best is None or key < best[0]:
                    best = (key, path)
            c_score = -best[0][0]
            if c_score >= score:
                stagnant = stagnant + 1 if c_score == score else 0
                current, score = best[1], c_score
            else:
                stagnant += 1
        if score == full:
            trace = (
                (
                    "local_search",
                    {"seed": cfg.rng_seed, "restart": restart, "steps": steps},
                ),
            )
            return tuple(current), trace
    return None


def test_local_search_matches_reference_tie_rule():
    # a third of each sampled length set, then every multiset over all
    # lengths 1..v//2 at v = 9 and 10, which reach the boundary of the
    # length rule: d = 4 and d = 5 fold differently at v = 9, and edges
    # of length exactly v/2 occur at v = 10
    short = dict(max_restarts=2, max_steps_per_restart=30)
    cases = []
    for lengths in [(1, 2, 3, 4), (1, 4, 5)]:
        for v in (8, 11, 14, 17, 20):
            some = list(enumerate_admissible(v, lengths=lengths))
            for ms in some[:: max(1, len(some) // 3)]:
                cases += [(ms, seed, short) for seed in (0, 1, 2)]
    for ms in [*enumerate_admissible(9), *enumerate_admissible(10)]:
        cases += [(ms, seed, short) for seed in (0, 1, 2)]
    # orders whose v - 1 passes a power of two, with lengths at and
    # next to v//2; the last one's budget runs out
    long = dict(max_restarts=3, max_steps_per_restart=400)
    for text in ["1^16 2^16", "1^8 5^8 16^16", "1^10 15^11 16^11"]:
        cases += [(LengthMultiset.parse(text), seed, long) for seed in (0, 1)]
    for text in [
        "1^32 2^32",
        "1^20 2^22 3^22",
        "1^32 31^16 32^16",
        "1^40 32^24",
    ]:
        cases.append((LengthMultiset.parse(text), 0, long))
    seen = set()
    for ms, seed, budget in cases:
        cfg = SearchConfig(rng_seed=seed, **budget)
        want = _reference_search(ms, cfg)
        cert = local_search(ms, cfg)
        if want is None:
            assert cert is None, (ms.format(), seed)
        else:
            got = (cert.path.vertices, cert.trace)
            assert got == want, (ms.format(), seed)
        seen.add((ms.v, want is not None))
    # both outcomes of the budget are exercised, also at v = 65
    assert {(10, True), (10, False), (65, True), (65, False)} <= seen
    assert (33, True) in seen


def test_brute_force_realizes():
    ms = LengthMultiset.parse("1^2 2 3^3")
    cert = brute_force(ms)
    assert cert is not None and cert.multiset == ms


def test_brute_force_realizes_the_empty_multiset():
    # None would be a definitive "no realization", but [0] realizes it
    cert = brute_force(LengthMultiset(()))
    assert cert is not None and cert.path.vertices == (0,)


def test_brute_force_definitive_none():
    # v = 6, five multiples of 2 exceed the divisor bound; no
    # realization exists and brute force proves it
    assert brute_force(LengthMultiset.parse("2^5")) is None


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force(LengthMultiset.parse("1^20"), cap=14)


def test_brute_force_answers_orders_beyond_the_recursion_limit():
    # the search keeps its own stack, so neither the order nor the
    # caller's depth meets the recursion limit: the cap is its only
    # refusal
    v = sys.getrecursionlimit() + 1
    ms = LengthMultiset.parse(f"1^{v - 1}")
    want = tuple(range(v))
    assert brute_force(ms, cap=v).path.vertices == want

    def from_depth(frames):
        if frames:
            return from_depth(frames - 1)
        return brute_force(ms, cap=v).path.vertices

    depth = len(traceback.extract_stack())
    assert from_depth(sys.getrecursionlimit() - 50 - depth) == want


def test_brute_force_paths_start_at_zero_and_turn_low():
    """Every path brute_force finds for a multiset of order <= 11 starts
    at 0 with path[1] <= v/2, so pinning that symmetry (a rotation and a
    reflection leave every cyclic length as it is) moves no answer."""
    realized = 0
    for v in range(2, 12):
        lengths = range(1, v // 2 + 1)
        for vec in _count_vectors(v - 1, len(lengths)):
            ms = LengthMultiset.from_counts(dict(zip(lengths, vec)))
            cert = brute_force(ms)
            if cert is None:
                continue
            path = cert.path.vertices
            assert path[0] == 0 and path[1] <= v // 2, (ms.format(), path)
            realized += 1
    assert realized == 1992


def _reference_brute_force(ms):
    """The exhaustive search with every step range-checked: each length
    from edge_length, the remaining counts in a dict keyed by length.
    Same vertex order and reversal rule; returns the path or None."""
    v = ms.v
    remaining = ms.counts()
    path = []
    used = [False] * v

    def extend():
        if len(path) == v:
            return v == 1 or path[0] < path[-1]
        for w in range(v):
            if used[w]:
                continue
            if path:
                l = edge_length(path[-1], w, v)
                if not remaining.get(l, 0):
                    continue
                remaining[l] -= 1
            used[w] = True
            path.append(w)
            if extend():
                return True
            path.pop()
            used[w] = False
            if path:
                remaining[l] += 1
        return False

    return tuple(path) if extend() else None


def test_brute_force_matches_reference():
    # every multiset of order 2..10 with lengths up to v/2, the empty
    # multiset, and three with a length over v/2, which no edge has
    cases = [LengthMultiset(())] + [
        LengthMultiset.parse(text) for text in ("3^2", "1 5", "2 4^3")
    ]
    for v in range(2, 11):
        lengths = range(1, v // 2 + 1)
        for vec in _count_vectors(v - 1, len(lengths)):
            cases.append(LengthMultiset.from_counts(dict(zip(lengths, vec))))
    outcomes = {"path": 0, "none": 0}
    for ms in cases:
        want = _reference_brute_force(ms)
        cert = brute_force(ms)
        got = None if cert is None else cert.path.vertices
        assert got == want, ms.format() if ms.items else "empty"
        outcomes["none" if want is None else "path"] += 1
    assert outcomes == {"path": 992, "none": 72}, outcomes


def test_enumerate_admissible_small():
    assert [ms.format() for ms in enumerate_admissible(2)] == ["1"]
    got = [ms.format() for ms in enumerate_admissible(4)]
    assert got == ["1 2^2", "1^2 2", "1^3"]


def test_enumerate_admissible_v9_count():
    assert sum(1 for _ in enumerate_admissible(9)) == 161


def test_enumerate_admissible_restricted():
    full = {ms.format() for ms in enumerate_admissible(8)}
    only12 = {ms.format() for ms in enumerate_admissible(8, lengths=(1, 2))}
    assert only12 <= full
    assert all(
        ms.underlying_set <= {1, 2}
        for ms in enumerate_admissible(8, lengths=(1, 2))
    )
    # a repeated length is one length, not a second count of it
    assert list(enumerate_admissible(8, lengths=(2, 1, 2))) == list(
        enumerate_admissible(8, lengths=(1, 2))
    )


def _reference_is_admissible(ms):
    """The divisor test spelled out: the first length over v/2, else
    the smallest divisor d > 1 of v whose multiples exceed v - d."""
    v = ms.v
    for length, _ in ms.items:
        if length > v // 2:
            return Admissibility(False, "oversized", length=length)
    for d in [d for d in range(2, v + 1) if v % d == 0]:
        count = sum(c for l, c in ms.items if l % d == 0)
        if count > v - d:
            return Admissibility(
                False, "divisor", divisor=d, count=count, bound=v - d
            )
    return Admissibility(True)


def _count_vectors(total, parts):
    """Every vector of parts counts summing to total, recursively, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for c in range(total + 1):
        for rest in _count_vectors(total - c, parts - 1):
            yield (c, *rest)


def _reference_enumerate(v, lengths=None):
    """Every count vector in lexicographic order, each turned into a
    multiset and kept when the reference test admits it."""
    allowed = (
        list(range(1, v // 2 + 1))
        if lengths is None
        else sorted(l for l in lengths if 1 <= l <= v // 2)
    )
    if not allowed:
        return
    for vec in _count_vectors(v - 1, len(allowed)):
        ms = LengthMultiset.from_counts(dict(zip(allowed, vec)))
        if _reference_is_admissible(ms).ok:
            yield ms


def test_is_admissible_matches_reference():
    # every multiset of order v <= 12 with lengths up to v//2 + 2: two
    # oversized lengths show which one the verdict names, and a longer
    # one takes the same path
    checked = {"ok": 0, "oversized": 0, "divisor": 0}
    for v in range(2, 13):
        lengths = range(1, v // 2 + 3)
        for vec in _count_vectors(v - 1, len(lengths)):
            ms = LengthMultiset.from_counts(dict(zip(lengths, vec)))
            want = _reference_is_admissible(ms)
            assert is_admissible(ms) == want, ms.format()
            checked[want.reason] += 1
    assert min(checked.values()) > 100, checked


def test_enumerate_admissible_matches_reference():
    cases = [(v, None) for v in range(2, 17)] + [
        (v, lengths)
        for lengths in [
            (1, 2, 3),
            (1, 4, 5),
            (1, 2, 3, 4),
            (1, 3, 6),
            (2, 4, 6),
            (4, 8, 12),
            (5,),
        ]
        for v in range(2, 31)
    ]
    for v, lengths in cases:
        got = [ms.items for ms in enumerate_admissible(v, lengths)]
        want = [ms.items for ms in _reference_enumerate(v, lengths)]
        assert got == want, (v, lengths)


def test_sweep_definitive_small():
    rows = sweep(7, SearchConfig(rng_seed=0))
    assert [r["v"] for r in rows] == [2, 3, 4, 5, 6, 7]
    for r in rows:
        assert r["unrealizable"] == 0
        assert r["unknown"] == 0
        assert r["realized"] == r["admissible_count"]


def test_sweep_is_definitive_exactly_within_brute_cap(monkeypatch):
    # with local_search refused, only brute_force realizes anything, and
    # it runs exactly at the orders within the cap
    monkeypatch.setattr(search, "local_search", lambda ms, cfg: None)
    rows = sweep(7, SearchConfig(rng_seed=0), brute_cap=5)
    assert [r["v"] for r in rows] == [2, 3, 4, 5, 6, 7]
    assert [r["unknown"] > 0 for r in rows] == [False] * 4 + [True] * 2
    for r in rows:
        assert r["unrealizable"] == 0
        assert r["realized"] + r["unknown"] == r["admissible_count"]


def test_sweep_rejects_orders_below_two():
    for v_max in (1, 0, -3):
        with pytest.raises(ValueError, match="v_max must be at least 2"):
            sweep(v_max)
