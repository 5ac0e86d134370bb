import random
from collections import Counter

import pytest

from bhr import seeds
from bhr.core import (
    Certificate,
    GrowPoint,
    HamPath,
    LengthMultiset,
    NotGrowableError,
    PathError,
    certificate,
    cyclic_lengths,
    embed,
    growth_points,
    is_growable_at,
    lengthened_pairs,
    linear_diffs,
    trace_params,
)
from bhr import core, growth, solvers
from bhr.families import seed_for_residue
from bhr.growth import (
    GrowthSchedule,
    even_grow,
    grow,
    multi_grow,
    perf_grow,
    splice_perfect,
    x2x_swap,
)
from conftest import seed_row


def _cert(entry):
    return certificate(
        entry.path.vertices,
        entry.multiset,
        grow_points=entry.declared_grow_points,
    )


def _demo9():
    return _cert(seed_row("demo", "demo-9"))


def _demo15():
    return _cert(seed_row("demo", "demo-15"))


def _plus(a, b):
    """The multiset sum of a and b."""
    counts = Counter(a.counts()) + Counter(b.counts())
    return LengthMultiset.from_counts(counts)


def test_schedule_parse():
    sched = GrowthSchedule.parse("2*4 3*3")
    assert sched.steps == ((2, 4), (3, 3))
    assert GrowthSchedule.parse("5").steps == ((5, 1),)
    with pytest.raises(ValueError):
        GrowthSchedule.parse("0*2")
    assert GrowthSchedule.parse(" 1*0\t2 ").steps == ((1, 0), (2, 1))
    for text in ("2*", "*3", "1*x", "2*3*4", "-1", "1*-2", "2**3", "x"):
        with pytest.raises(ValueError, match="bad schedule token"):
            GrowthSchedule.parse(text)
    for text in ("", "  "):
        with pytest.raises(ValueError, match="empty schedule"):
            GrowthSchedule.parse(text)
    # built in code, an empty schedule is valid and grows nothing
    demo9 = _demo9()
    assert multi_grow(demo9, GrowthSchedule(())) is demo9


def test_grow_worked_example():
    grown = grow(_demo9(), 3, 2)
    assert grown.path.vertices == (9, 7, 6, 3, 0, 10, 1, 4, 8, 5, 2, 11)
    assert grown.multiset == LengthMultiset.parse("1 2^2 3^7 4")
    assert grown.trace[-1][0] == "grow"


def test_grow_requires_declared_point():
    with pytest.raises(NotGrowableError):
        grow(_demo9(), 3, 5)
    with pytest.raises(NotGrowableError):
        grow(_demo9(), 2, 4)


def test_multi_grow_schedule():
    grown = multi_grow(_demo15(), GrowthSchedule.parse("2*4 3*3"))
    assert grown.path.v == 32
    assert grown.multiset == LengthMultiset.parse("1^4 2^9 3^17 4")


def test_grow_point_relocation_can_drop():
    """Relocated points are re-validated; a wrap-threshold edge can
    break one, in which case it is silently dropped and a later step
    that needs it fails loudly."""
    cert = certificate(
        [3, 1, 4, 5, 2, 0],
        {1: 1, 2: 2, 3: 2},
        grow_points=[(1, 4), (2, 1)],
    )
    grown = grow(cert, 1, 4)
    assert all(gp.x != 2 for gp in grown.grow_points)
    with pytest.raises(NotGrowableError):
        grown.point_for(2)


def test_points_are_sorted_whether_declared_or_carried():
    """A Certificate keeps its points sorted by (x, m): those declared
    out of order, and those a grow from it carries."""
    row = seed_row("demo", "demo-15")
    cert = certificate(row.path, row.multiset, [(3, 11), (1, 8)])
    assert cert.grow_points == (GrowPoint(1, 8), GrowPoint(3, 11))
    grown = grow(cert, 1, 8)
    assert grown.grow_points == (GrowPoint(1, 8), GrowPoint(3, 12))


def test_splice_perfect():
    base = _demo15()
    spliced = splice_perfect(base, HamPath.of([0, 2, 1, 3]))
    added = LengthMultiset.parse("1 2^2")
    assert spliced.multiset == _plus(base.multiset, added)
    assert spliced.path.v == base.path.v + 3


def test_splice_rejects_imperfect():
    with pytest.raises(NotGrowableError):
        splice_perfect(_demo15(), HamPath.of([1, 0, 2]))


def test_even_grow():
    base = _demo15()
    grown = even_grow(base, 4, 4)
    added = LengthMultiset.parse("1^4 4^10")
    assert grown.multiset == _plus(base.multiset, added)
    assert any(gp.x == 4 for gp in grown.grow_points)
    again = even_grow(grown, 4, 6)
    assert again.multiset == _plus(
        grown.multiset, LengthMultiset.parse("1^6 4^5 6^7")
    )


def test_even_grow_rejects_bad_args():
    with pytest.raises(NotGrowableError):
        even_grow(_demo15(), 3, 4)
    with pytest.raises(NotGrowableError):
        even_grow(_demo15(), 2, 4)


def test_x2x_worked_example():
    g1 = _cert(seed_row("u136", "g1"))
    first = x2x_swap(g1, 3, 2)
    assert first.path.vertices == (
        15, 14, 1, 7, 4, 10, 13, 0, 6, 3, 9, 12, 11, 8, 5, 2,
    )
    assert first.multiset == LengthMultiset.parse("1^2 3^9 6^4")
    second = x2x_swap(first, 3, 3)
    assert second.path.vertices == (
        24, 23, 1, 7, 4, 10, 16, 13, 19, 22, 0, 6, 3, 9, 15, 12, 18, 21,
        20, 17, 14, 11, 5, 8, 2,
    )
    assert second.multiset == LengthMultiset.parse("1^2 3^12 6^10")


def test_x2x_zero_swaps_is_plain_growth():
    g1 = _cert(seed_row("u136", "g1"))
    grown = x2x_swap(g1, 3, 0)
    assert grown.multiset == g1.multiset.add_copies(3, 9)


def test_x2x_swap_bounds_on_k():
    """Zero swaps return the input's path and trace; a negative count
    raises for every i."""
    seeds_by_x = [(3, _cert(seed_row("u136", "g1")))] + [
        (x, seed_for_residue(x, r)) for x in (4, 5) for r in range(x)
    ]
    for x, seed in seeds_by_x:
        for i in range(x + 1):
            zero = x2x_swap(seed, x, i, 0)
            assert (zero.path, zero.trace) == (seed.path, seed.trace)
            for k in (-1, -2):
                with pytest.raises(ValueError):
                    x2x_swap(seed, x, i, k)


def _path_outcome(fn, *args):
    """The path, multiset and grow points an operation returns, or the
    name of what it raised."""
    try:
        c = fn(*args)
    except ValueError as exc:
        return type(exc).__name__
    return (c.path, c.multiset, c.grow_points)


def test_perf_grow_matches_x2x():
    """k swaps are perf_grow with i swapped parts (0, 2, 1, 3, 5, 4, 6,
    ..., 3k) and x - i plain parts (0, 1, ..., 3k)."""
    inputs = [(3, _cert(seed_row("u136", "g1")))] + [
        (x, seed_for_residue(x, r)) for x in range(4, 11) for r in range(x)
    ]
    cases = 0
    for x, seed in inputs:
        for i in range(x + 1):
            for k in range(1, 4):
                swapped = [0] + [
                    3 * j + d for j in range(k) for d in (2, 1, 3)
                ]
                parts = [swapped] * i + [list(range(3 * k + 1))] * (x - i)
                via_parts = _path_outcome(perf_grow, seed, x, parts)
                via_swap = _path_outcome(x2x_swap, seed, x, i, k)
                assert via_parts == via_swap, (seed.path.vertices, x, i, k)
                cases += 1
    assert cases == 1272


def test_splice_perfect_is_perf_grow_with_one_part():
    """At every seed row's 1-point, splice_perfect(cert, K) and
    perf_grow(cert, 1, [K]) build the same path and multiset."""
    perfect = ([0, 1], [0, 1, 2], [0, 2, 1, 3], [0, 3, 1, 2, 4],
               [0, 2, 4, 1, 3, 5])
    spliced = 0
    for cert in _seed_certs():
        if not any(gp.x == 1 for gp in cert.grow_points):
            continue
        for k_real in perfect:
            via_splice = _path_outcome(
                splice_perfect, cert, HamPath.of(k_real)
            )
            via_parts = _path_outcome(perf_grow, cert, 1, [k_real])
            if isinstance(via_splice, tuple):
                via_splice, via_parts = via_splice[:2], via_parts[:2]
                spliced += 1
            assert via_splice == via_parts, (cert.path.vertices, k_real)
    assert spliced > 100, spliced


def test_perf_grow_rejects_wrong_part_count():
    g1 = _cert(seed_row("u136", "g1"))
    with pytest.raises(NotGrowableError):
        perf_grow(g1, 3, [HamPath.of([0, 1, 2, 3])])


def test_grow_soundness_over_seed_tables():
    for entry in seeds.table("u123-main")[:6] + seeds.table("supplement"):
        cert = _cert(entry)
        for gp in cert.grow_points:
            grown = grow(cert, gp.x, gp.m)
            assert grown.multiset == cert.multiset.add_copies(gp.x, gp.x)
            assert linear_diffs(grown.path) is not None


# ---------------------------------------------------------------------------
# Differential test: the one-pass k-fold grow and the operations built on
# it against a reference that grows one step at a time, as the
# construction is stated: each step embeds the path, inserts w + x next
# to the window endpoint w of every lengthened pair, re-checks the
# multiset and re-validates every relocated grow point.


def _ref_certify(path, ms, points, trace):
    if cyclic_lengths(path) != ms:
        raise NotGrowableError("reference: multiset mismatch")
    kept = tuple(p for p in points if is_growable_at(path, p.x, p.m))
    return Certificate(path, ms, kept, trace)


def _ref_grow_once(cert, x, m):
    path = cert.path
    if not is_growable_at(path, x, m):
        raise NotGrowableError(f"reference: not {x}-growable at {m}")
    window = range(m - x + 1, m + 1)
    lengthened = set(lengthened_pairs(path, x, m))
    out = [embed(path.vertices[0], x, m)]
    for a, b in path.pairs():
        if (a, b) in lengthened:
            out.append((a if a in window else b) + x)
        out.append(embed(b, x, m))
    return _ref_certify(
        HamPath.of(out),
        cert.multiset.add_copies(x, x),
        [GrowPoint(p.x, embed(p.m, x, m)) for p in cert.grow_points],
        cert.trace + (("grow", {"x": x, "m": m}),),
    )


def _ref_grow(cert, x, k):
    """k single grows, each at the tracked point point_for(x)."""
    for _ in range(k):
        cert = _ref_grow_once(cert, x, cert.point_for(x).m)
    return cert


def _ref_substitute(vs, values, repl):
    n = len(values)
    for i in range(len(vs) - n + 1):
        if vs[i : i + n] == values:
            return vs[:i] + repl + vs[i + n :]
        if vs[i : i + n] == values[::-1]:
            return vs[:i] + repl[::-1] + vs[i + n :]
    raise NotGrowableError("reference: run not found")


def _ref_multi_grow(cert, steps):
    for x, count in steps:
        cert = _ref_grow(cert, x, count)
    return cert


def _ref_runs_op(cert, x, k, runs, added, step):
    """k grows at x, then rewrite arithmetic runs: runs[t] replaces the
    run starting at m+1-x+t."""
    m = cert.point_for(x).m
    grown = _ref_grow(cert, x, k)
    vs = list(grown.path.vertices)
    for t, repl in enumerate(runs):
        start = m + 1 - x + t
        vs = _ref_substitute(
            vs, [start + j * x for j in range(k + 1)],
            [start + y for y in repl],
        )
    return _ref_certify(
        HamPath.of(vs), _plus(cert.multiset, added), grown.grow_points,
        grown.trace + (step,),
    )


def _ref_x2x(cert, x, i):
    added = {x: 3 * x - 2 * i}
    if i:
        added[2 * x] = 2 * i
    runs = [[0, 2 * x, x, 3 * x]] * i
    return _ref_runs_op(
        cert, x, 3, runs, LengthMultiset.from_counts(added),
        ("x2x_swap", {"x": x, "i": i}),
    )


def _ref_perf_grow(cert, x, parts):
    added = LengthMultiset(())
    for p in parts:
        diffs = linear_diffs(HamPath.of(p)).items
        scaled = LengthMultiset(tuple((x * l, c) for l, c in diffs))
        added = _plus(added, scaled)
    return _ref_runs_op(
        cert, x, len(parts[0]) - 1, [[x * e for e in p] for p in parts],
        added, ("perf_grow", trace_params(x=x, parts=parts)),
    )


def _ref_splice(cert, k_real):
    k = len(k_real) - 1
    m = cert.point_for(1).m
    grown = _ref_grow(cert, 1, k)
    vs = _ref_substitute(
        list(grown.path.vertices), list(range(m, m + k + 1)),
        [m + y for y in k_real],
    )
    path = HamPath.of(vs)
    cert2 = _ref_certify(
        path, _plus(cert.multiset, linear_diffs(HamPath.of(k_real))),
        [],
        grown.trace + (("splice", trace_params(k_real=k_real)),),
    )
    return Certificate(
        path, cert2.multiset, tuple(growth_points(path)), cert2.trace
    )


def _ref_zigzag(lows, highs):
    out = []
    for j in range(0, len(lows) - 1, 2):
        out += [lows[j], highs[j], highs[j + 1], lows[j + 1]]
    return out + [lows[-1], highs[-1]]


def _ref_even_grow(cert, y, z):
    m = cert.point_for(2).m
    grown = _ref_grow(cert, 2, y + z - 1)
    g = _ref_zigzag(range(1, y), range(y + 1, 2 * y))
    g += [2 * y + z - 1, 2 * y + 2 * z - 1]
    h = [0, y] + _ref_zigzag(
        range(2 * y, 2 * y + z - 1), range(2 * y + z, 2 * y + 2 * z - 1)
    )
    vs = list(grown.path.vertices)
    vs = _ref_substitute(
        vs, list(range(m, m + 2 * y + 2 * z - 1, 2)), [m - 1 + e for e in g]
    )
    vs = _ref_substitute(
        vs, list(range(m - 1, m + 2 * y + 2 * z - 2, 2)),
        [m - 1 + e for e in h],
    )
    path = HamPath.of(vs)
    added = LengthMultiset(())
    for length, count in ((1, y + z - 4), (y, y + 1), (z, z + 1)):
        added = added.add_copies(length, count)
    new = [GrowPoint(y, m + y - 1), GrowPoint(z, m + 2 * y + z - 2)]
    for p in new:
        if not is_growable_at(path, p.x, p.m):
            raise NotGrowableError("reference: new point fails")
    shift = 2 * (y + z - 1)
    carried = [
        GrowPoint(p.x, p.m if p.m <= m else p.m + shift)
        for p in cert.grow_points
    ]
    carried = [p for p in carried if p not in new]
    cert2 = _ref_certify(
        path, _plus(cert.multiset, added), carried,
        grown.trace + (("even_grow", {"y": y, "z": z}),),
    )
    return Certificate(
        path, cert2.multiset, tuple(sorted(new + list(cert2.grow_points))),
        cert2.trace,
    )


def _outcome(fn, *args):
    """What an operation returns, or the name of what it raised."""
    try:
        c = fn(*args)
    except (NotGrowableError, PathError, ValueError) as exc:
        return type(exc).__name__
    return (c.path, c.grow_points, c.multiset, c.trace)


def _seed_certs():
    return [_cert(e) for e in seeds.iter_seeds() if e.declared_grow_points]


def test_k_fold_grow_matches_single_grows_on_every_seed():
    cases = 0
    for cert in _seed_certs():
        for gp in cert.grow_points:
            # a seed row declares one point per x, so point_for tracks gp
            assert cert.point_for(gp.x) == gp
            for k in range(1, 9):
                want = _outcome(_ref_grow, cert, gp.x, k)
                got = _outcome(grow, cert, gp.x, gp.m, k)
                assert got == want, (cert.path.vertices, gp, k)
                cases += 1
    assert cases > 2000


def test_k_fold_grow_matches_single_grows_on_random_chains():
    rng = random.Random(2024)
    certs = _seed_certs()
    dropped = 0
    for _ in range(2000):
        cert = rng.choice(certs)
        for _ in range(rng.randint(1, 3)):
            x = rng.choice(cert.grow_points).x
            k = rng.randint(2, 9)
            want = _outcome(_ref_grow, cert, x, k)
            got = _outcome(grow, cert, x, cert.point_for(x).m, k)
            assert got == want, (cert.path.vertices, x, k)
            if isinstance(got, str):
                break
            dropped += len(got[1]) < len(cert.grow_points)
            cert = grow(cert, x, cert.point_for(x).m, k)
            if not cert.grow_points or cert.path.v > 200:
                break
    # the chains reach the wrap-threshold case that drops a point
    assert dropped > 0


def _perfect(rng, k):
    inner = list(range(1, k))
    rng.shuffle(inner)
    return [0] + inner + [k]


def test_operations_match_single_grow_reference():
    rng = random.Random(7)
    certs = _seed_certs()
    by_x = {}
    for cert in certs:
        for gp in cert.grow_points:
            by_x.setdefault(gp.x, []).append(cert)
    xs = sorted(by_x)
    results = []
    for _ in range(300):
        cert = rng.choice(certs)
        steps = [
            (rng.choice(cert.grow_points).x, rng.randint(0, 4))
            for _ in range(rng.randint(1, 3))
        ]
        results.append(_outcome(_ref_multi_grow, cert, steps)
                       == _outcome(multi_grow, cert,
                                   GrowthSchedule(tuple(steps))))
        x = rng.choice([x for x in xs if x >= 2])
        cert = rng.choice(by_x[x])
        i = rng.randint(0, x)
        results.append(_outcome(_ref_x2x, cert, x, i)
                       == _outcome(x2x_swap, cert, x, i))
        k = rng.randint(1, 5)
        parts = [_perfect(rng, k) for _ in range(x)]
        results.append(_outcome(_ref_perf_grow, cert, x, parts)
                       == _outcome(perf_grow, cert, x, parts))
        cert = rng.choice(by_x[1])
        k_real = _perfect(rng, rng.randint(1, 6))
        results.append(_outcome(_ref_splice, cert, k_real)
                       == _outcome(splice_perfect, cert, HamPath.of(k_real)))
        cert = rng.choice(by_x[2])
        y, z = rng.choice((4, 6, 8)), rng.choice((4, 6, 8))
        results.append(_outcome(_ref_even_grow, cert, y, z)
                       == _outcome(even_grow, cert, y, z))
    assert all(results), results.index(False)


def _swap_seeds():
    """Every {1,3,6} g-seed (x = 3) and every {1, x} residue seed for
    x = 4..12, the starting points of the two swap pipelines."""
    for entry in seeds.table("u136"):
        yield 3, _cert(entry)
    for x in range(4, 13):
        for r in range(x):
            yield x, seed_for_residue(x, r)


def test_k_fold_x2x_swap_matches_single_swaps():
    cases = 0
    for x, seed in _swap_seeds():
        for i in range(x + 1):
            ref = seed
            for k in range(1, 9):
                # k chained single swaps: one more on the previous k's
                if ref is not None:
                    try:
                        ref = _ref_x2x(ref, x, i)
                        want = (ref.path, ref.grow_points, ref.multiset,
                                ref.trace)
                    except NotGrowableError:
                        ref, want = None, "NotGrowableError"
                got = _outcome(x2x_swap, seed, x, i, k)
                assert got == want, (seed.path.vertices, x, i, k)
                cases += 1
    assert cases == 5856


def test_each_grow_point_is_checked_once_per_operation(monkeypatch):
    """grow and x2x_swap evaluate growability once for the point they
    grow at and once for each of the input's p points, which the result's
    Certificate carries over and checks on the final path."""
    calls = []
    kernel = core.window_endpoints

    def counting(path, x, m):
        calls.append((x, m))
        return kernel(path, x, m)

    certs = [c for c in _seed_certs() if len(c.grow_points) >= 2]
    monkeypatch.setattr(core, "window_endpoints", counting)
    monkeypatch.setattr(growth, "window_endpoints", counting)
    swaps = 0
    for cert in certs:
        p = len(cert.grow_points)
        for gp in cert.grow_points:
            calls.clear()
            grow(cert, gp.x, gp.m)
            assert len(calls) == 1 + p, (cert.path.vertices, gp, calls)
            for i in range(gp.x + 1):
                calls.clear()
                try:
                    x2x_swap(cert, gp.x, i)
                except NotGrowableError:
                    # the multiset check refused before any point check
                    assert len(calls) == 1
                    continue
                assert len(calls) == 1 + p, (cert.path.vertices, gp, i)
                swaps += 1
    assert len(certs) > 100 and swaps > 100


# ---------------------------------------------------------------------------
# Differential tests for the chain: a schedule or a swap pipeline runs all
# of its steps uncertified and builds one Certificate at the end, and must
# give what the public operations give when each step is certified.


def _chained_grows(cert, steps):
    """The schedule as one certified public grow per step."""
    for x, count in steps:
        if count:
            cert = grow(cert, x, cert.point_for(x).m, count)
    return cert


def test_multi_grow_matches_chained_grows():
    rng = random.Random(8)
    certs = _seed_certs()
    refused = 0
    for _ in range(3000):
        cert = rng.choice(certs)
        xs = sorted({gp.x for gp in cert.grow_points})
        if rng.random() < 0.05:
            xs.append(xs[-1] + 1)  # a length the seed has no point for
        steps = tuple(
            (rng.choice(xs), rng.randint(0, 6))
            for _ in range(rng.randint(2, 6))
        )
        want = _outcome(_chained_grows, cert, steps)
        got = _outcome(multi_grow, cert, GrowthSchedule(steps))
        assert got == want, (cert.path.vertices, steps)
        refused += got == "NotGrowableError"
    # refusals (no point for x, or one dropped on the way) stay rare
    assert 0 < refused < 300, refused


def _composed_swap_pipeline(ms, x, seeds):
    """The swap pipeline as public operations, each certified: the
    partial swap, the k-fold full swap, then the grows.  The counts come
    from the swap rule alone: a swap of i runs adds 3x - 2i x's and
    2i 2x's, so a full swap (i = x) adds x x's and 2x 2x's."""
    a, b, c = (ms.multiplicity(l) for l in (1, x, 2 * x))
    for seed in seeds:
        a1, b1, c1 = (seed.multiset.multiplicity(l) for l in (1, x, 2 * x))
        if c < c1 or (c - c1) % 2:
            continue
        full, i = divmod((c - c1) // 2, x)
        b_swapped = b1 + (3 * x - 2 * i if i else 0) + x * full
        x_grows, rest = divmod(b - b_swapped, x)
        one_grows = a - a1
        if x_grows < 0 or rest or one_grows < 0:
            continue
        try:
            cert = x2x_swap(seed, x, i) if i else seed
            if full:
                cert = x2x_swap(cert, x, x, full)
            return multi_grow(
                cert, GrowthSchedule(((x, x_grows), (1, one_grows)))
            )
        except NotGrowableError:
            continue
    return None


def _pipeline_grids():
    """(target, x, seeds, solver, args) over criterion 5's solve_1x2x
    grid and a solve_136 grid, both in the proven range."""
    for x in range(4, 11):
        for c in range(0, 21, 2):
            b0 = 5 * x - 2 + c // 2
            for b in range(b0, b0 + x):
                for a in (x - 2, x - 1, x):
                    ms = LengthMultiset.from_counts({1: a, x: b, 2 * x: c})
                    residue = (b + c % (2 * x)) % x
                    seed = seed_for_residue(x, residue)
                    yield ms, x, [seed], solvers.solve_1x2x, (a, b, c, x)
    g_seeds = [entry.certificate for entry in seeds.table("u136")]
    for c in range(40):
        bound = 13 + c // 2 if c % 2 == 0 else 18 + (c - 1) // 2
        for a in range(1, 5):
            for b in range(bound, bound + 6):
                ms = LengthMultiset.from_counts({1: a, 3: b, 6: c})
                yield ms, 3, g_seeds, solvers.solve_136, (a, b, c)


def test_swap_pipeline_matches_composed_operations():
    solved = 0
    for ms, x, seeds_in_order, solver, args in _pipeline_grids():
        if not core.is_admissible(ms).ok:
            continue
        out = solver(*args)
        assert out.status == "solved", ms.format()
        want = _composed_swap_pipeline(ms, x, seeds_in_order)
        got = out.certificate
        assert (got.path, got.grow_points, got.multiset, got.trace) == (
            want.path, want.grow_points, want.multiset, want.trace
        ), ms.format()
        solved += 1
    assert solved == 2420, solved
