"""tools/bench_pairs.py's summary on canned perfbench results; no
benchmark runs here."""

import math

from conftest import load_tool

TOOL = load_tool("bench_pairs")


def _result(**values):
    return {
        "failed": 0,
        "attempted": 100,
        "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()},
    }


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [11.0, 12.0, 13.0, 12.0, 12.0]
    rss = [(50.0, 52.0), (50.0, 49.0), (51.0, 51.0), (50.0, 55.0), (49, 50)]
    pairs = [
        (_result(rate=p, rss=rp), _result(rate=c, rss=rc))
        for p, c, (rp, rc) in zip(parent, change, rss)
    ]
    rate, mem = TOOL.summarize(pairs, {"rate": "higher", "rss": "lower"})
    # higher is better: pairs 1, 3 and 5 won, pair 2 tied
    assert rate["metric"] == "rate"
    assert (rate["parent"], rate["change"]) == (11.0, 12.0)
    assert math.isclose(rate["ratio"], 12.0 / 11.0)
    assert (rate["won"], rate["pairs"]) == (3, 5)
    # the parent's quartiles of 9, 10, 11, 12, 13 (exclusive method)
    assert rate["parent_iqr"] == 12.5 - 9.5
    # lower is better: only pair 2 won, pair 3 tied
    assert (mem["metric"], mem["won"]) == ("rss", 1)
    assert (mem["parent"], mem["change"]) == (50.0, 51.0)


def test_one_pair_has_no_spread_and_rows_format():
    pairs = [(_result(rate=2.0), _result(rate=1.0))]
    [row] = TOOL.summarize(pairs, {"rate": "higher"})
    assert row["parent_iqr"] == 0.0 and row["won"] == 0
    header, line = TOOL.format_rows([row])
    assert header.split() == ["metric", "parent", "change", "ratio", "won",
                              "parent", "IQR"]
    assert line.split() == ["rate", "2", "1", "0.500", "0/1", "0"]
