"""Closed-form {1,x}-growable realizations of {1^(x-1), x^(x+1)},
{1^(x-2), x^(x+2)}, {1^(x-2), x^(2x)} and {1^(x-2), x^b} for every b
with x+3 <= b <= 2x-1.

Together these supply, for any x >= 4, a growable seed whose number of
x's hits every residue class mod x, which is what the general
{1, x, 2x} solver needs.  construct_1x(x, b) is the one entry point: it
checks x and b, and its branch builders trust them.

Each construction is a few fixed labels joined to chains of alternating
runs (core.alternating_runs): pairs or triples stepped by +-1, every
other one reversed.
"""

from __future__ import annotations

import functools

from .core import Certificate, alternating_runs, certificate


def _params(x: int, b: int) -> tuple[int, int]:
    """The (r, s) decomposition behind a {1^(x-2), x^b} construction.

    Derived uniquely from (x, b) with x+3 <= b <= 2x-1; the four
    branches satisfy
      even x, odd b:  x = 2r+2s+4, b = x+2r+3, 0 <= r <= (x-4)/2
      even x, even b: x = 2r+2s+6, b = x+2r+4, 0 <= r <= (x-6)/2
      odd x, odd b:   x = 2r+2s+5, b = x+2r+4, 0 <= r <= (x-5)/2
      odd x, even b:  x = 2r+2s+5, b = x+2r+3, 0 <= r <= (x-5)/2
    """
    if x % 2 == 0:
        if b % 2:
            r = (b - x - 3) // 2
            return r, (x - 4 - 2 * r) // 2
        r = (b - x - 4) // 2
        return r, (x - 6 - 2 * r) // 2
    r = (b - x - 4) // 2 if b % 2 else (b - x - 3) // 2
    return r, (x - 5 - 2 * r) // 2


def _cert(seq, counts, points) -> Certificate:
    return certificate(seq, counts, points, [("family", {"v": len(seq)})])


def _basic(x: int, b: int) -> Certificate:
    """The three hand-patterned families, b in {x+1, x+2, 2x}."""
    if b == x + 1:
        if x % 2 == 0:
            seq = [1, x + 1, 0, 2 * x, x]
            seq += alternating_runs((x - 1, 2 * x - 1), x - 2, -1)
            points = [(1, 1), (x, x)]
        else:
            seq = [x, x + 1, 1, 0, 2 * x, x - 1, 2 * x - 1]
            seq += alternating_runs((x - 2, 2 * x - 2), x - 3, -1)
            # the x-grow point is x, not x-1: at m = x-1 both endpoints
            # of the wrap edge (0, 2x) land in the window
            points = [(1, 2 * x - 1), (x, x)]
        counts = {1: x - 1, x: x + 1}
    elif b == x + 2:
        if x % 2 == 0:
            seq = [x, 2 * x, 0, x + 1, 1, x + 2, 2]
            seq += alternating_runs((3, x + 3), x - 3, 1)
            points = [(1, 1), (x, x)]
        else:
            seq = [0, x, x - 1, 2 * x, 2 * x - 1, x - 2, 2 * x - 2]
            seq += alternating_runs((x - 3, 2 * x - 3), x - 3, -1)
            points = [(1, 2 * x - 2), (x, x - 1)]
        counts = {1: x - 2, x: x + 2}
    else:  # b == 2x
        if x % 2 == 0:
            seq = alternating_runs((0, x, 2 * x), x - 3, 1)
            seq += [x - 3, 2 * x - 3, 2 * x - 2, x - 2,
                    3 * x - 3, 3 * x - 2, x - 1, 2 * x - 1]
            # 1-growable at 3x-4, not 3x-3: at m = 3x-3 the edge to
            # 3x-2 is lengthened alongside the wrap edge
            points = [(1, 3 * x - 4), (x, x - 1)]
        else:
            seq = [3 * x - 2, x - 1, 2 * x - 1]
            seq += alternating_runs((2 * x, x, 0), x - 3, 1)
            seq += [x - 3, 2 * x - 3, 2 * x - 2, x - 2, 3 * x - 3]
            points = [(1, 3 * x - 4), (x, x)]
        counts = {1: x - 2, x: 2 * x}
    return _cert(seq, counts, points)


def _even(x: int, b: int) -> Certificate:
    """{1^(x-2), x^b} for even x >= 4 and x+3 <= b <= 2x-1."""
    r, s = _params(x, b)
    if b % 2 == 1:
        # pairs, then triples, then a two-edge closer; v = 6r+4s+10
        seq = alternating_runs((2 * r + 1, 4 * r + 2 * s + 5), 2 * s + 2, 1)
        seq += alternating_runs(
            (6 * r + 4 * s + 8, 4 * r + 2 * s + 4, 2 * r), 2 * r + 1, -1
        )
        seq += [6 * r + 4 * s + 9, 2 * r + 2 * s + 3, 4 * r + 4 * s + 7]
        v = 6 * r + 4 * s + 10
        points = [(1, v - 2), (x, x - 1)]
    else:
        # pairs, a fixed 10-element middle, then triples; v = 6r+4s+15
        seq = alternating_runs((4 * r + 2 * s + 11, 2 * r + 5), 2 * s + 1, 1)
        seq += [2 * r + 2 * s + 6, 4 * r + 4 * s + 12,
                4 * r + 4 * s + 13, 2 * r + 2 * s + 7, 1,
                4 * r + 2 * s + 10, 2 * r + 4, 2 * r + 3,
                4 * r + 2 * s + 9, 0]
        seq += alternating_runs(
            (6 * r + 4 * s + 14, 4 * r + 2 * s + 8, 2 * r + 2), 2 * r + 1, -1
        )
        points = [(1, 1), (x, x)]
    return _cert(seq, {1: x - 2, x: b}, points)


def _odd(x: int, b: int) -> Certificate:
    """{1^(x-2), x^b} for odd x >= 5 and x+3 <= b <= 2x-1."""
    r, s = _params(x, b)
    triples = alternating_runs(
        (6 * r + 4 * s + 10, 4 * r + 2 * s + 5, 2 * r), 2 * r + 1, -1
    )
    if b % 2 == 1:
        # triples, a six-element middle, then pairs; v = 6r+4s+13
        seq = triples
        seq += [6 * r + 4 * s + 12, 2 * r + 2 * s + 4,
                4 * r + 4 * s + 9, 4 * r + 4 * s + 8,
                2 * r + 2 * s + 3, 6 * r + 4 * s + 11]
        seq += alternating_runs((4 * r + 2 * s + 6, 2 * r + 1), 2 * s + 2, 1)
        v = 6 * r + 4 * s + 13
    else:
        # pairs, the same triples, then a two-edge closer; v = 6r+4s+12
        seq = alternating_runs((4 * r + 2 * s + 6, 2 * r + 1), 2 * s + 3, 1)
        seq += triples
        seq += [6 * r + 4 * s + 11, 2 * r + 2 * s + 4, 4 * r + 4 * s + 9]
        v = 6 * r + 4 * s + 12
    points = [(1, v - 2), (x, x - 1)]
    return _cert(seq, {1: x - 2, x: b}, points)


def construct_1x(x: int, b: int) -> Certificate:
    """The {1,x}-growable family member with b x's: the hand-patterned
    families for b in {x+1, x+2, 2x}, else the lemma construction for
    x+3 <= b <= 2x-1."""
    if x < 4:
        raise ValueError("x must be at least 4")
    if not x + 1 <= b <= 2 * x:
        raise ValueError(f"b={b} outside range {x + 1}..{2 * x}")
    if b in (x + 1, x + 2, 2 * x):
        return _basic(x, b)
    if x % 2 == 0:
        return _even(x, b)
    return _odd(x, b)


@functools.lru_cache(maxsize=1024)
def seed_for_residue(x: int, residue: int) -> Certificate:
    """A {1,x}-growable seed for {1^a', x^b'} with b' = residue mod x.

    b' runs over x+1 .. 2x, so every residue is reachable; a' = x-2
    except for residue 1, where admissibility forces a' = x-1.  Each
    argument pair builds and checks its seed once: a Certificate and
    its trace are read-only, so every answer may share it.  x < 4 is
    refused with construct_1x's ValueError, before residue is reduced.
    """
    if x < 4:
        raise ValueError("x must be at least 4")
    residue %= x
    return construct_1x(x, 2 * x if residue == 0 else x + residue)
