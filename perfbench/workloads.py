"""Inputs, timed call and answer check for each workload.

A workload is built from the bhr module and a seed.  It yields batches
of targets; the runner times one library call per target and checks the
answers of a batch after the clock has stopped.  Every batch is made
before its first timed call, so input generation is never timed.

Targets are spread so that any prefix of the stream holds about the
same share of each kind of target.  A run is cut at a time limit, not at
the end of a pass, so this keeps the mix of a run (and with it the
throughput) the same from seed to seed.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field

import checker

BATCH = 1000


@dataclass
class Target:
    """One timed call: the inputs it gets and the answer it must give."""

    counts: dict[int, int]  # the multiset the answer must realize
    args: tuple  # positional arguments of the library call
    kind: str  # replay: driver slot; oracle: verdict; grow-ops: op name
    scan: bool = False  # grow-ops: also scan the result's grow points
    v: int = field(init=False)

    def __post_init__(self):
        self.v = checker.order(self.counts)


def interleave(groups, rng: random.Random) -> list:
    """Merge groups so that every prefix holds about the same share of
    each group, keeping the order inside each group; rng jitters where
    each item falls."""
    keyed = [
        ((i + rng.random()) / len(group), item)
        for group in groups
        for i, item in enumerate(group)
    ]
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]


def _split(design, rng, total: int, parts: int) -> list[int]:
    """parts nonnegative ints summing to total.  The shares come from
    design (Dirichlet(1, ..., 1), near-uniform on the simplex) and are
    jittered by up to 5% with rng."""
    w = [design.expovariate(1) * rng.uniform(0.95, 1.05) for _ in range(parts)]
    raw = [total * x / sum(w) for x in w]
    out = [int(x) for x in raw]
    by_rest = sorted(range(parts), key=lambda i: out[i] - raw[i])
    for i in by_rest[: total - sum(out)]:
        out[i] += 1
    return out


# ---------------------------------------------------------------- replay-large
#
# Six driver slots.  Orders are log-uniform on [64, 1024] in 16 bins; in
# each round of 96 targets every slot gets every bin once.  Target i of
# a round gets the bin whose 4-bit index is i mod 16 read backwards
# (0, 8, 4, 12, 2, ...) and slot (i + i // 16) mod 6.  A run stops
# part-way through a round, and a solve near v = 1024 costs a hundred
# times one near v = 64, so every stretch of a round must hold about the
# same mix of orders and drivers: the bit-reversed bins spread every
# prefix evenly over the orders, and the slots cycle.  Without that, a
# run that gets further (a faster bhr, or a slower one) sees cheaper or
# dearer targets by design, and its median and throughput move by more
# than bhr's speed did.
#
# A solve's cost depends on the shape of the multiset as much as on v
# (each grow of length x adds x vertices).  So every position of a round
# has a fixed design (bin, count shares, x, a) that is the same for
# every seed; the seed moves v within the middle eighth of its bin and
# jitters the shares.  Runs on different seeds then see different
# multisets of about the same cost in the same order.

V_LO, V_HI, BINS = 64, 1024, 16
BIN_BITS = 4  # BINS == 2 ** BIN_BITS
SLOTS = ("u123", "u145", "u1234", "u136", "u1x2x-even", "u1x2x-odd")


def _u136_bound(c: int) -> int:
    return 13 + c // 2 if c % 2 == 0 else 18 + (c - 1) // 2


def _replay_counts(design, rng, slot: str, n: int) -> dict[int, int]:
    """Counts of one target of size n inside slot's proven range."""
    if slot == "u123":
        a, b, c = (1 + k for k in _split(design, rng, n - 3, 3))
        return {1: a, 2: b, 3: c}
    if slot == "u145":
        a, b, c = (1 + k for k in _split(design, rng, n - 3, 3))
        return {1: a, 4: b, 5: c}
    if slot == "u1234":
        # the replayed branches: a in {0, 1, 2}, b = 0 when a = 2
        a = design.choice((0, 1, 2))
        if a == 2:
            c, d = (1 + k for k in _split(design, rng, n - 4, 2))
            return {1: 2, 3: c, 4: d}
        b, c, d = (1 + k for k in _split(design, rng, n - a - 3, 3))
        return {**({1: a} if a else {}), 2: b, 3: c, 4: d}
    if slot == "u136":
        # a >= 1, c >= 1 and b >= the bound for c
        c_max = 1
        while 2 + (c_max + 1) + _u136_bound(c_max + 1) <= n:
            c_max += 1
        share = min(1.0, max(0.0, design.random() + rng.uniform(-0.03, 0.03)))
        c = 1 + round(share * (c_max - 1))
        r0, r1 = _split(design, rng, n - 2 - c - _u136_bound(c), 2)
        return {1: 1 + r0, 3: _u136_bound(c) + r1, 6: c}
    # {1, x, 2x}: a >= x-2, even c >= 2, b >= 5x-2+c/2.  Writing
    # a = x-2+r0, c = 2+2*r2, b = 5x-1+r2+r1 gives r0+r1+3*r2 = n-6x+1.
    x = design.choice((4, 6, 8, 10) if slot == "u1x2x-even" else (5, 7, 9))
    r0, r1, t = _split(design, rng, n - 6 * x + 1, 3)
    r2, r1 = t // 3, r1 + t % 3
    return {1: x - 2 + r0, x: 5 * x - 1 + r2 + r1, 2 * x: 2 + 2 * r2}


def _replay_target(bhr, rng, round_, i) -> Target:
    r = i % BINS
    bin_ = int(f"{r:0{BIN_BITS}b}"[::-1], 2)
    slot = SLOTS[(i + i // BINS) % len(SLOTS)]
    width = math.log(V_HI / V_LO) / BINS
    lo = math.log(V_LO) + width * (bin_ + 0.4375)
    for attempt in range(1000):
        design = random.Random(f"replay:{round_}:{i}:{attempt}")
        v = round(math.exp(lo + width * 0.125 * rng.random()))
        counts = _replay_counts(design, rng, slot, v - 1)
        if checker.admissible(counts):
            ms = bhr.LengthMultiset.from_counts(counts)
            return Target(counts, (ms,), slot)
    raise RuntimeError(f"no admissible {slot} target in bin {bin_}")


def replay_batches(bhr, rng: random.Random):
    for round_ in itertools.count():
        yield [
            _replay_target(bhr, rng, round_, i)
            for i in range(BINS * len(SLOTS))
        ]


def call_solve(bhr, target: Target):
    return bhr.solve(*target.args)


def check_solve(target: Target, outcome) -> str | None:
    if not checker.admissible(target.counts):
        return "target is not admissible"
    if outcome.certificate is None:
        return f"no certificate (status {outcome.status})"
    return checker.realizes(outcome.certificate.path.vertices, target.counts)


# ------------------------------------------------------- driver-/oracle-sweep


def sweep_batches(targets: list[Target], rng: random.Random):
    """Endless passes over targets, each spreading the targets of each
    order and kind evenly.  The order inside such a group is drawn once,
    the same for every seed, so a run that ends part-way through a pass
    has seen the same targets of each group whatever the seed (a v = 12
    refutation takes from under a millisecond to most of a second); the
    seed moves where each target falls in the pass."""
    groups: dict[tuple[int, str], list[Target]] = {}
    for t in targets:
        groups.setdefault((t.v, t.kind), []).append(t)
    for key, group in groups.items():
        random.Random(f"{key}").shuffle(group)
    while True:
        order = interleave(groups.values(), rng)
        for i in range(0, len(order), BATCH):
            yield order[i : i + BATCH]


DRIVER_SETS = ((1, 2, 3), (1, 4, 5), (1, 2, 3, 4))
DRIVER_VMAX = 20


def driver_targets(bhr) -> list[Target]:
    """Every admissible multiset over {1,2,3}, {1,4,5} and the subsets
    of {1,2,3,4} with v <= DRIVER_VMAX, each once."""
    seen = {}
    for v in range(2, DRIVER_VMAX + 1):
        for lengths in DRIVER_SETS:
            for ms in bhr.enumerate_admissible(v, lengths):
                seen.setdefault(ms.items, ms)
    return [Target(dict(items), (ms,), "solve") for items, ms in seen.items()]


ORACLE_VMAX = 12


def _count_vectors(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for c in range(total + 1):
        for rest in _count_vectors(total - c, parts - 1):
            yield (c,) + rest


def oracle_targets(bhr) -> list[Target]:
    """Every multiset of order v <= ORACLE_VMAX with lengths <= v/2.
    kind records bhr's verdict: admissible when enumerate_admissible
    lists it; the check compares that with the bench's own test."""
    targets = []
    for v in range(2, ORACLE_VMAX + 1):
        listed = {ms.items for ms in bhr.enumerate_admissible(v)}
        lengths = range(1, v // 2 + 1)
        for vec in _count_vectors(v - 1, len(lengths)):
            counts = {l: c for l, c in zip(lengths, vec) if c}
            ms = bhr.LengthMultiset.from_counts(counts)
            kind = "admissible" if ms.items in listed else "inadmissible"
            targets.append(Target(counts, (ms,), kind))
    return targets


def call_oracle(bhr, target: Target):
    """sweep's per-multiset body, made definitive: local search, then
    exhaustive search; an inadmissible multiset goes straight to the
    exhaustive search, which must refute it."""
    (ms,) = target.args
    if target.kind == "admissible":
        cert = bhr.local_search(ms)
        if cert is not None:
            return cert
    return bhr.brute_force(ms)


def check_oracle(target: Target, cert) -> str | None:
    ok = checker.admissible(target.counts)
    if ok != (target.kind == "admissible"):
        return f"enumerate_admissible says {target.kind}"
    if not ok:
        return None if cert is None else "realized an inadmissible multiset"
    if cert is None:
        return "admissible multiset left unresolved"
    return checker.realizes(cert.path.vertices, target.counts)


# -------------------------------------------------------------------- grow-ops
#
# One operation on a stored seed per target, so paths stay small (the
# seeds have 6..15 vertices).  The weights put the single grow first,
# since it is the step every other operation repeats.

OPS = (
    ("grow", 30),
    ("multi_grow", 20),
    ("x2x_swap", 15),
    ("splice_perfect", 15),
    ("even_grow", 10),
    ("perf_grow", 10),
)
SCAN_EVERY = 4


def _perfect(rng: random.Random, k: int) -> list[int]:
    """A perfect linear realization on 0..k: starts at 0, ends at k."""
    middle = list(range(1, k))
    rng.shuffle(middle)
    return [0] + middle + [k]


def _diffs(seq) -> Counter:
    return Counter(abs(a - b) for a, b in zip(seq, seq[1:]))


def _grow_op(bhr, rng, cert):
    """(op, args after cert, lengths added), or None if the seed lacks
    the grow point op needs."""
    v = cert.path.v
    xs = sorted({gp.x for gp in cert.grow_points})
    op = rng.choices([o for o, _ in OPS], [w for _, w in OPS])[0]
    if op == "grow":
        gp = rng.choice(cert.grow_points)
        return op, (gp.x, gp.m), Counter({gp.x: gp.x})
    if op == "multi_grow":
        # One length per schedule.  Growing one length can drop the
        # grow point of another (the wrap-threshold case solve rescues),
        # and multi_grow then refuses; that refusal is documented
        # behaviour, not a wrong answer, and would count as a failure.
        x, count = rng.choice(xs), rng.randint(1, 4)
        steps = ((x, count),)
        return op, (bhr.GrowthSchedule(steps),), Counter({x: x * count})
    if op == "x2x_swap":
        x = rng.choice(xs)
        i = rng.randint(0, x)
        return op, (x, i), Counter({x: 3 * x - 2 * i, 2 * x: 2 * i})
    if op == "splice_perfect" and 1 in xs:
        part = _perfect(rng, rng.randint(2, 5))
        return op, (bhr.HamPath.of(part),), _diffs(part)
    if op == "even_grow" and 2 in xs:
        y, z = rng.choice((4, 6)), rng.choice((4, 6))
        added = Counter({1: y + z - 4}) + Counter({y: y + 1})
        return op, (y, z), added + Counter({z: z + 1})
    if op == "perf_grow":
        small = [x for x in xs if x <= 3]
        if small:
            x = rng.choice(small)
            k = rng.randint(1, min(3, v // x))
            parts = [_perfect(rng, k) for _ in range(x)]
            added = Counter()
            for part in parts:
                for d, c in _diffs(part).items():
                    added[x * d] += c
            return op, (x, parts), added
    return None


def grow_batches(bhr, rng: random.Random):
    seeds = [
        bhr.Certificate(e.path, e.multiset, e.declared_grow_points)
        for e in bhr.seeds.iter_seeds()
        if e.declared_grow_points
    ]
    done = 0
    while True:
        batch = []
        while len(batch) < BATCH:
            cert = rng.choice(seeds)
            base = Counter(cert.multiset.counts())
            drawn = _grow_op(bhr, rng, cert)
            if drawn is None:
                continue
            op, args, added = drawn
            done += 1
            batch.append(
                Target(
                    dict(base + added),
                    (cert,) + args,
                    op,
                    scan=done % SCAN_EVERY == 0,
                )
            )
        yield batch


def call_grow(bhr, target: Target):
    result = getattr(bhr, target.kind)(*target.args)
    points = bhr.growth_points(result.path) if target.scan else None
    return result, points


def check_grow(target: Target, answer) -> str | None:
    result, points = answer
    why = checker.realizes(result.path.vertices, target.counts)
    if why is None and points is not None:
        missing = set(result.grow_points) - set(points)
        if missing:
            why = f"declared grow points {sorted(missing)} missing from scan"
    return why


# --------------------------------------------------------------------- table


@dataclass(frozen=True)
class Workload:
    name: str
    batches: object  # (bhr, rng) -> iterator of target lists
    call: object  # (bhr, target) -> answer
    check: object  # (target, answer) -> failure reason or None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "replay-large",
            replay_batches,
            call_solve,
            check_solve,
        ),
        Workload(
            "driver-sweep",
            lambda bhr, rng: sweep_batches(driver_targets(bhr), rng),
            call_solve,
            check_solve,
        ),
        Workload(
            "oracle-sweep",
            lambda bhr, rng: sweep_batches(oracle_targets(bhr), rng),
            call_oracle,
            check_oracle,
        ),
        Workload(
            "grow-ops",
            grow_batches,
            call_grow,
            check_grow,
        ),
    )
}
