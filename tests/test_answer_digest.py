"""The six fast sets of tools/answer_digest.py, hashed here and
compared with the digests checked in beside it.  Both swap answer sets
(the criterion-5 solve_1x2x grid and the solve_136 grid), every family
seed construct_1x(x, b) with x <= 50, every brute_force answer of order
<= 11, every seed-table row and the growth operations on every seed row
are pinned this way, so a path that moves anywhere fails."""

import hashlib

import pytest

from conftest import load_tool


@pytest.mark.parametrize(
    "name, generator",
    [
        ("criterion-5 solve_1x2x", "criterion_5"),
        ("solve_136 grid", "grid_136"),
        ("families construct_1x", "families"),
        ("brute_force order <= 11", "oracle"),
        ("seed tables", "seed_tables"),
        ("growth operations", "growth_operations"),
    ],
)
def test_answer_set_matches_checked_in_digest(name, generator):
    tool = load_tool("answer_digest")
    digest = hashlib.sha256()
    for line in getattr(tool, generator)():
        digest.update(line)
    assert digest.hexdigest() == tool._expected()[name]
