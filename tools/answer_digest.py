"""Print one sha256 per answer set, to check that a change keeps answers.

    python tools/answer_digest.py

The sets are every criterion-4 target through solve() (all admissible
multisets over {1,2,3}, {1,4,5} and {1,2,3,4} with v <= 30), the
criterion-5 solve_1x2x grid, and a solve_136 grid (c < 40, a = 1..4,
b from its bound - 1 to bound + 5).  Each answer is hashed as the repr
of (target, status, outcome trace, path, grow points, multiset items,
certificate trace in to_dict form), one line per target, so two
checkouts that print the same digests gave the same answers.  The
criterion-4 set takes about as long as criterion 4 itself.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bhr.search import enumerate_admissible  # noqa: E402
from bhr.solvers import solve, solve_136, solve_1x2x  # noqa: E402


def _line(target, out) -> bytes:
    cert = out.certificate
    answer = (
        (
            cert.path.vertices,
            tuple((gp.x, gp.m) for gp in cert.grow_points),
            cert.multiset.items,
            cert.to_dict()["trace"],
        )
        if cert
        else (None, None, None, None)
    )
    return repr((target, out.status, out.trace) + answer).encode() + b"\n"


def criterion_4():
    seen = set()
    for v in range(2, 31):
        for lengths in [(1, 2, 3), (1, 4, 5), (1, 2, 3, 4)]:
            for ms in enumerate_admissible(v, lengths=lengths):
                if ms not in seen:
                    seen.add(ms)
                    yield ms.items, solve(ms)


def criterion_5():
    for x in range(4, 11):
        for c in range(0, 21, 2):
            b0 = 5 * x - 2 + c // 2
            for b in range(b0, b0 + x):
                for a in (x - 2, x - 1, x):
                    yield (a, b, c, x), solve_1x2x(a, b, c, x)


def grid_136():
    for c in range(40):
        bound = 13 + c // 2 if c % 2 == 0 else 18 + (c - 1) // 2
        for a in range(1, 5):
            for b in range(bound - 1, bound + 6):
                yield (a, b, c), solve_136(a, b, c)


def main() -> int:
    for name, answers in (
        ("criterion-4 solve", criterion_4()),
        ("criterion-5 solve_1x2x", criterion_5()),
        ("solve_136 grid", grid_136()),
    ):
        digest = hashlib.sha256()
        count = 0
        for target, out in answers:
            digest.update(_line(target, out))
            count += 1
        print(f"{digest.hexdigest()}  {count:6d}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
