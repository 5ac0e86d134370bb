"""Every bhr name the benchmark reads resolves on the package, so a
rename fails here and not only in a traced or full benchmark run.

The benchmark's files are read with ast, never imported: the attribute
chains rooted at `bhr` (or at an attribute named bhr, as `tracer.bhr`),
and the literal tables tracer.TRACED, tracer.CALLERS and workloads.OPS.
"""

import ast
import importlib
from pathlib import Path

import bhr

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _literal(module: str, name: str):
    """The literal value assigned to name at the top of module."""
    for node in _tree(module).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{module} assigns no {name}")


def _chain(node: ast.Attribute) -> list[str] | None:
    """The names after the bhr root of an attribute chain, or None."""
    names = []
    while isinstance(node, ast.Attribute):
        if node.attr == "bhr":
            return names[::-1]
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "bhr":
        return names[::-1]
    return None


def _bhr_chains() -> set[tuple[str, ...]]:
    chains = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.Attribute):
                names = _chain(node)
                if names:
                    chains.add(tuple(names))
    return chains


def test_attribute_chains_resolve():
    chains = _bhr_chains()
    # the walk sees the calls the workloads make
    assert ("LengthMultiset", "from_counts") in chains
    assert ("seeds", "iter_seeds") in chains
    for names in chains:
        obj = bhr
        for name in names:
            assert hasattr(obj, name), "bhr." + ".".join(names)
            obj = getattr(obj, name)


def test_traced_functions_resolve():
    traced = _literal("tracer.py", "TRACED")
    assert traced
    for layer, functions in traced.items():
        module = importlib.import_module(f"bhr.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for layer in _literal("tracer.py", "CALLERS"):
        importlib.import_module(f"bhr.{layer}")


def test_grow_ops_resolve():
    ops = _literal("workloads.py", "OPS")
    assert ops
    for op, _ in ops:
        assert callable(getattr(bhr, op, None)), op
