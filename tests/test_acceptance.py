"""Acceptance gate: one test per criterion, one PASS/FAIL line each."""

import hashlib
import random
import time

from bhr import seeds
from bhr.core import (
    GrowPoint,
    HamPath,
    LengthMultiset,
    certificate,
    growth_points,
    is_admissible,
    is_growable_at,
    verify_realization,
)
from bhr.families import construct_1x
from bhr.growth import grow, splice_perfect, x2x_swap
from bhr.search import (
    DEFAULT_DEFINITIVE_CAP,
    SearchConfig,
    brute_force,
    sweep,
)
from bhr.solvers import hr_bound, solve, solve_1x2x
from conftest import load_tool, seed_row

DIGEST_TOOL = load_tool("answer_digest")


def _report(criterion: int, ok: bool, detail: str = ""):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _cert(entry):
    return certificate(
        entry.path.vertices,
        entry.multiset,
        grow_points=entry.declared_grow_points,
    )


def test_criterion_1_seed_integrity():
    start = time.monotonic()
    entries = tuple(seeds.iter_seeds())
    bad = [entry.variant for entry, _ in seeds.failures(entries)]
    elapsed = time.monotonic() - start
    ok = not bad and len(entries) >= 160 and elapsed < 1.0
    _report(1, ok, f"{len(entries)} entries, {len(bad)} bad, {elapsed:.2f}s")


def test_criterion_2_worked_example_regressions():
    problems = []

    demo9 = HamPath.of([6, 4, 3, 0, 7, 1, 5, 2, 8])
    if not is_growable_at(demo9, 3, 2):
        problems.append("9-vertex example not 3-growable at 2")

    grown = grow(_cert(seed_row("demo", "demo-9")), 3, 2)
    if grown.path.vertices != (9, 7, 6, 3, 0, 10, 1, 4, 8, 5, 2, 11):
        problems.append("grown 12-vertex sequence mismatch")

    demo15 = HamPath.of([0, 3, 6, 2, 1, 13, 10, 11, 14, 12, 9, 8, 5, 4, 7])
    want = {(1, 8), (1, 9), (2, 3), (3, 11), (4, 5)}
    got = {(gp.x, gp.m) for gp in growth_points(demo15)}
    if not want <= got:
        problems.append(f"15-vertex grow points missing {want - got}")

    g1 = _cert(seed_row("u136", "g1"))
    first = x2x_swap(g1, 3, 2)
    second = x2x_swap(first, 3, 3)
    if first.multiset != LengthMultiset.parse("1^2 3^9 6^4") or (
        first.path.vertices
        != (15, 14, 1, 7, 4, 10, 13, 0, 6, 3, 9, 12, 11, 8, 5, 2)
    ):
        problems.append("first swap intermediate mismatch")
    if second.multiset != LengthMultiset.parse("1^2 3^12 6^10") or (
        second.path.vertices
        != (24, 23, 1, 7, 4, 10, 16, 13, 19, 22, 0, 6, 3, 9, 15, 12,
            18, 21, 20, 17, 14, 11, 5, 8, 2)
    ):
        problems.append("second swap intermediate mismatch")

    family_fixtures = [
        (construct_1x(8, 13),
         (3, 11, 12, 4, 5, 13, 14, 6, 18, 10, 2, 1, 9, 17, 16, 8, 0,
          19, 7, 15)),
        (construct_1x(9, 14),
         (12, 3, 4, 13, 14, 5, 6, 15, 16, 7, 20, 11, 2, 1, 10, 19, 18,
          9, 0, 21, 8, 17)),
        (construct_1x(10, 16),
         (17, 7, 8, 18, 19, 9, 10, 20, 21, 11, 1, 16, 6, 5, 15, 0, 24,
          14, 4, 3, 13, 23, 22, 12, 2)),
        (construct_1x(13, 21),
         (30, 17, 4, 3, 16, 29, 28, 15, 2, 1, 14, 27, 26, 13, 0, 32,
          12, 25, 24, 11, 31, 18, 5, 6, 19, 20, 7, 8, 21, 22, 9, 10,
          23)),
    ]
    for cert, expected in family_fixtures:
        if cert.path.vertices != expected:
            problems.append(f"family fixture mismatch at v={len(expected)}")

    _report(2, not problems, "; ".join(problems) or "all exact")


def test_criterion_3_family_sweep():
    start = time.monotonic()
    checked = 0
    problems = []
    for x in range(4, 51):
        for b in range(x + 1, 2 * x + 1):
            cert = construct_1x(x, b)
            if not verify_realization(cert.path, cert.multiset):
                problems.append((x, b, "verify"))
            if {gp.x for gp in cert.grow_points} != {1, x}:
                problems.append((x, b, "points"))
            for gp in cert.grow_points:
                if not is_growable_at(cert.path, gp.x, gp.m):
                    problems.append((x, b, gp))
            checked += 1
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 10.0
    _report(3, ok, f"{checked} realizations, {elapsed:.2f}s, {problems[:3]}")


def test_criterion_4_driver_completeness():
    """Every criterion-4 target is solved or searched in its cited
    region, and the answers hash to the checked-in criterion-4 digest
    of tools/answer_digest.py, so a path that moves fails."""
    start = time.monotonic()
    digest = hashlib.sha256()
    targets = solved = external = 0
    bad = []
    for ms in DIGEST_TOOL.criterion_4_targets():
        targets += 1
        out = solve(ms)
        digest.update(DIGEST_TOOL._line(ms.items, out))
        if out.status == "solved":
            solved += 1
        elif (
            out.status == "search_fallback"
            and out.trace
            and out.trace[0][0] == "external-theorem region"
            and out.ok
        ):
            external += 1
        else:
            bad.append((ms.format(), out.status))
            continue
        if not verify_realization(
            out.certificate.path, out.certificate.multiset
        ):
            bad.append((ms.format(), "verify"))
    elapsed = time.monotonic() - start
    pinned = (
        digest.hexdigest() == DIGEST_TOOL._expected()["criterion-4 solve"]
    )
    ok = not bad and pinned and elapsed < 120.0
    _report(
        4,
        ok,
        f"{solved} replayed + {external} external of {targets}, "
        f"digest {'pinned' if pinned else 'moved'}, "
        f"{elapsed:.1f}s, bad={bad[:3]}",
    )


def test_criterion_5_theorem_57_desk_scale():
    start = time.monotonic()
    solved = skipped = 0
    bad = []
    for x in range(4, 11):
        for c in range(0, 21, 2):
            b0 = 5 * x - 2 + c // 2
            for b in range(b0, b0 + x):
                for a in (x - 2, x - 1, x):
                    ms = LengthMultiset.from_counts({1: a, x: b, 2 * x: c})
                    if not is_admissible(ms).ok:
                        skipped += 1
                        continue
                    out = solve_1x2x(a, b, c, x)
                    if out.status != "solved" or not verify_realization(
                        out.certificate.path, out.certificate.multiset
                    ):
                        bad.append((a, b, c, x, out.status))
                    else:
                        solved += 1
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 120.0
    _report(
        5,
        ok,
        f"{solved} solved, {skipped} inadmissible skipped, "
        f"{elapsed:.1f}s, bad={bad[:3]}",
    )


def test_criterion_6_conjecture_sweep():
    start = time.monotonic()
    rows = sweep(11, SearchConfig(rng_seed=0))
    unrealizable = sum(r["unrealizable"] for r in rows)
    unknown = sum(r["unknown"] for r in rows)

    # necessity: no inadmissible multiset at v <= 12, the definitive cap,
    # has a realization (order 11 is prime with lengths <= 5, so it has
    # none to refute)
    refuted = 0
    problems = []
    for v in range(2, DEFAULT_DEFINITIVE_CAP + 1):
        for counts in _count_vectors(v - 1, v // 2):
            ms = LengthMultiset.from_counts(
                {x: n for x, n in counts.items() if n}
            )
            if is_admissible(ms).ok:
                continue
            if brute_force(ms) is not None:
                problems.append(ms.format())
            else:
                refuted += 1
    elapsed = time.monotonic() - start
    ok = (
        unrealizable == 0
        and unknown == 0
        and not problems
        and refuted > 0
        and elapsed < 900.0
    )
    _report(
        6,
        ok,
        f"v<=11 sweep clean, {refuted} inadmissible refuted at "
        f"v<={DEFAULT_DEFINITIVE_CAP}, "
        f"{elapsed:.1f}s, bad={problems[:3]}",
    )


def _count_vectors(total, max_length):
    """All multiplicity maps over lengths 1..max_length summing to total."""
    def rec(x, left, acc):
        if x > max_length:
            if left == 0:
                yield dict(acc)
            return
        for n in range(left + 1):
            acc[x] = n
            yield from rec(x + 1, left - n, acc)
        acc.pop(x, None)

    yield from rec(1, total, {})


PERFECT_PARTS = [
    [0, 1, 2, 3],
    [0, 2, 1, 3],
    [0, 3, 1, 4, 2, 5],
    [0, 2, 4, 1, 3, 5],
]


def test_criterion_7_property_suite():
    rng = random.Random(7)
    entries = [
        e for e in seeds.iter_seeds() if e.declared_grow_points
    ]
    grows = splices = 0
    for step in range(10_000):
        entry = rng.choice(entries)
        cert = _cert(entry)
        if step % 25 == 0 and any(gp.x == 1 for gp in cert.grow_points):
            k_real = HamPath.of(rng.choice(PERFECT_PARTS))
            spliced = splice_perfect(cert, k_real)
            counts = cert.multiset.counts()
            for length, n in _linear_counts(k_real).items():
                counts[length] = counts.get(length, 0) + n
            assert spliced.multiset == LengthMultiset.from_counts(counts)
            assert verify_realization(spliced.path, spliced.multiset)
            splices += 1
            continue
        gp = rng.choice(cert.grow_points)
        grown = grow(cert, gp.x, gp.m)
        assert grown.multiset == cert.multiset.add_copies(gp.x, gp.x)
        assert verify_realization(grown.path, grown.multiset)
        # relocation rule: m' <= m keeps its label, m' > m shifts by x;
        # every surviving point must be such a relocation and must
        # re-validate, and every relocation that validates must survive
        relocated = {
            GrowPoint(p.x, p.m if p.m <= gp.m else p.m + gp.x)
            for p in cert.grow_points
        }
        survivors = set(grown.grow_points)
        assert survivors <= relocated, (entry.variant, gp)
        for cand in relocated:
            valid = is_growable_at(grown.path, cand.x, cand.m)
            assert (cand in survivors) == valid, (entry.variant, gp, cand)
        grows += 1
    _report(7, True, f"{grows} grows + {splices} splices, all sound")


def _linear_counts(path):
    counts = {}
    vs = path.vertices
    for a, b in zip(vs, vs[1:]):
        d = abs(a - b)
        counts[d] = counts.get(d, 0) + 1
    return counts


def test_criterion_8_hr_bound_hand_values():
    cases = [
        ([7, 8, 12, 22], 110),
        ([18], 67),
        ([29], 111),
        ([6, 16, 23], 109),
        ([5, 24], 96),
        ([7, 21], 86),
        ([6, 12, 15, 23], 120),
        ([5, 7, 16], 71),
        ([3, 6, 9], 40),
        ([2, 7, 8, 9], 48),
        ([18, 22], 101),
        ([2, 18, 27, 28], 154),
        ([14, 17, 18, 24], 140),
        ([2, 4, 6, 14, 17], 89),
        ([6, 15], 61),
        ([22, 24, 29], 157),
        ([6], 19),
        ([19], 71),
        ([4, 11, 12, 14, 24], 132),
        ([13, 15], 68),
    ]
    bad = [(u, want) for u, want in cases if hr_bound(u) != want]
    _report(8, not bad, f"{len(cases)} sets checked, bad={bad}")
