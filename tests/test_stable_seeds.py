"""tools/stable_seeds.py against the `stable` table: each row it finds
and prints is the row checked in under that name."""

import ast

from conftest import load_tool, seed_row


def test_tool_finds_and_prints_the_stable_rows():
    tool = load_tool("stable_seeds")
    for name, _, _, base, xs in tool.FAMILIES:
        _, cert = tool.find(base, xs)
        entry = seed_row("stable", name)
        assert cert.path == entry.path, name
        assert cert.multiset == entry.multiset, name
        assert tuple(cert.grow_points) == entry.declared_grow_points, name
        points = {gp.x: gp.m for gp in entry.declared_grow_points}
        printed = ast.literal_eval(tool.row(name, cert).rstrip(","))
        assert printed == (
            entry.multiset.format(), entry.path.vertices, points, name
        )
