"""The two fast answer sets of tools/answer_digest.py, hashed here and
compared with the digests checked in beside it.  Every family seed
construct_1x(x, b) with x <= 50 and every brute_force answer of order
<= 11 is pinned this way, so a path that moves anywhere fails."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "answer_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("answer_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, generator",
    [
        ("families construct_1x", "families"),
        ("brute_force order <= 11", "oracle"),
    ],
)
def test_answer_set_matches_checked_in_digest(name, generator):
    tool = _tool()
    digest = hashlib.sha256()
    for line in getattr(tool, generator)():
        digest.update(line)
    assert digest.hexdigest() == tool._expected()[name]
