"""tools/stable_seeds.py against the `stable` table: each row it finds
and prints is the row text checked in under that name."""

from bhr import seeds
from conftest import load_tool


def test_tool_finds_and_prints_the_stable_rows():
    tool = load_tool("stable_seeds")
    [rows] = seeds.SEED_TABLES["stable"]
    for (name, _, _, base, xs), text in zip(tool.FAMILIES, rows, strict=True):
        _, cert = tool.find(base, xs)
        assert tool.row(name, cert) == text, name
