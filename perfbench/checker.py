"""Answer checks that share no code with bhr.

Counts maps are plain {length: multiplicity} dicts; a path is any
sequence of ints.  Nothing here imports bhr, so a defect in bhr's own
verification cannot hide a wrong answer from the benchmark.
"""

from __future__ import annotations

from collections import Counter


def order(counts: dict[int, int]) -> int:
    """Number of vertices a realization of counts has."""
    return sum(counts.values()) + 1


def admissible(counts: dict[int, int]) -> bool:
    """Divisor test: every length is in 1..v//2 and, for each divisor
    d > 1 of v, at most v - d lengths are multiples of d."""
    v = order(counts)
    if any(length < 1 or length > v // 2 for length in counts):
        return False
    for d in range(2, v + 1):
        if v % d:
            continue
        multiples = sum(c for length, c in counts.items() if length % d == 0)
        if multiples > v - d:
            return False
    return True


def cyclic_counts(path) -> Counter:
    """Multiset of cyclic edge lengths along path, on v = len(path)."""
    v = len(path)
    return Counter(
        min(abs(a - b), v - abs(a - b)) for a, b in zip(path, path[1:])
    )


def realizes(path, counts: dict[int, int]) -> str | None:
    """None when path is a permutation of 0..v-1 whose cyclic lengths
    are exactly counts, otherwise the reason it is not."""
    path = list(path)
    v = order(counts)
    if len(path) != v:
        return f"path has {len(path)} vertices, target needs {v}"
    if sorted(path) != list(range(v)):
        return "path is not a permutation of 0..v-1"
    got = cyclic_counts(path)
    want = Counter({length: c for length, c in counts.items() if c})
    if got != want:
        return f"path realizes {dict(sorted(got.items()))}"
    return None
