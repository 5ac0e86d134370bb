"""The README's examples run as written and print what they say."""

import re
import shlex
from pathlib import Path

import pytest

from bhr.cli import EXIT_OK, EXIT_SEARCH_FAILED, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after the line heading."""
    after = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


QUICKSTART = _block("## Library quickstart", "python")
CLI_LINES = [
    shlex.split(line, comments=True)
    for line in _block("## CLI", "sh").splitlines()
    if line.startswith("python -m bhr ")
]


def test_quickstart_prints_its_comments():
    printed = []

    def record(*args):
        printed.append(" ".join(map(str, args)))

    exec(QUICKSTART, {"print": record})
    prints = re.findall(r"^print\(.*?\)(?:\s+# (.*))?$", QUICKSTART, re.M)
    assert len(printed) == len(prints) == 6
    for line, want in zip(printed, prints):
        if want:
            assert line == want


@pytest.mark.parametrize(
    "argv", CLI_LINES, ids=[" ".join(a[3:]) for a in CLI_LINES]
)
def test_cli_examples_exit_as_documented(argv):
    want = EXIT_SEARCH_FAILED if argv[3:] == ["oracle", "2^5"] else EXIT_OK
    assert main(argv[3:]) == want
