import importlib.util
from pathlib import Path

from bhr import seeds

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def seed_row(table_id: str, variant: str) -> seeds.SeedEntry:
    """The one row of seed table table_id named variant."""
    [entry] = [e for e in seeds.table(table_id) if e.variant == variant]
    return entry


def load_tool(name: str):
    """The script tools/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
