"""The seven fast sets of tools/answer_digest.py, hashed here and
compared with the digests checked in beside it.  Both swap answer sets
(the criterion-5 solve_1x2x grid and the solve_136 grid), every family
seed construct_1x(x, b) with x <= 50, every brute_force answer of order
<= 11, every seed-table row, the growth operations on every seed row
and both swap rows at their range bounds are pinned this way, so a
path or a why text that moves anywhere fails."""

import hashlib

import pytest

from conftest import load_tool

TOOL = load_tool("answer_digest")
FAST_SETS = [
    "criterion-5 solve_1x2x",
    "solve_136 grid",
    "families construct_1x",
    "brute_force order <= 11",
    "seed tables",
    "growth operations",
    "swap rows at their bounds",
]


@pytest.mark.parametrize(
    "name", FAST_SETS, ids=lambda name: f"{name}-{TOOL.SETS[name].__name__}"
)
def test_answer_set_matches_checked_in_digest(name):
    digest = hashlib.sha256()
    for line in TOOL.SETS[name]():
        digest.update(line)
    assert digest.hexdigest() == TOOL._expected()[name]
