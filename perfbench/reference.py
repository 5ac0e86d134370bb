"""A fixed piece of pure-Python work that gauges how fast the machine
runs Python at the moment.

A shared virtual machine's host lends its cores to other tenants, and
the speed one process gets swings by a fifth within minutes, on the CPU
clock too, and at times by half from one tenth of a second to the next.
run.py runs this work on a CPU-time timer while it times bhr's calls,
and scales each call's time by NOMINAL_S over the time this work took
during and around it.  The work is of the same kind as bhr's (small
ints, lists, tuples, dicts, Counters, a seeded Random), so a slower
host slows both alike, while a change to bhr moves only bhr's side.
It shares no code with bhr, and its result is checked so that it
cannot be skipped.
"""

from __future__ import annotations

import random
import time
from collections import Counter

import checker

# The CPU seconds work() is taken to take: scaled times read as on a
# machine that runs it in this long.  A two-vCPU Xeon virtual machine
# (Python 3.11) on a shared host ran it in 0.19 to 0.40 ms.
NOMINAL_S = 0.0003

V = 61
ROUNDS = 5
CHECKSUM = 471534


def work() -> int:
    """Seeded swaps on a path of V vertices, each scored by its cyclic
    lengths; returns a checksum of the scores."""
    rng = random.Random(V)
    path = list(range(V))
    target = Counter({length: 2 for length in range(1, V // 2 + 1)})
    total = 0
    for _ in range(ROUNDS):
        i, j = rng.randrange(V), rng.randrange(V)
        path[i], path[j] = path[j], path[i]
        got = checker.cyclic_counts(path)
        score = sum(min(c, target[length]) for length, c in got.items())
        seen = {}
        for a, b in zip(path, path[1:]):
            seen.setdefault((a + b) % 7, []).append((a, b))
        total = (total * 31 + score + len(seen)) % 1_000_003
    return total


def probe() -> float:
    """CPU seconds work() takes now, on the calling thread's clock (the
    process's clock reads only to the scheduler tick while a CPU-time
    timer is armed)."""
    t0 = time.thread_time()
    result = work()
    t1 = time.thread_time()
    if result != CHECKSUM:
        raise RuntimeError(f"reference work gave {result}, not {CHECKSUM}")
    return t1 - t0
