"""tools/bench_pairs.py's summary on canned perfbench results; no
benchmark runs here."""

import json
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


def test_a_median_worse_than_its_bound_reads_as_worse():
    """BENCHMARK.json bounds peak_rss_mb at 10% and targets_per_s at 25%
    of the parent's median: +12% and -30% are worse beyond them, +5%
    and -20% within, and better by any amount is within."""
    bench = json.loads(TOOL.BENCHMARK.read_text())["end_to_end"]
    better = {"peak_rss_mb": "lower", "targets_per_s": "higher"}
    beyond = "WORSE than the parent beyond its bound"
    for rss, rate, verdicts in [
        (56.0, 700.0, (beyond, beyond)),
        (52.5, 800.0, ("within its bound", "within its bound")),
        (20.0, 5000.0, ("within its bound", "within its bound")),
    ]:
        pair = (
            _result(peak_rss_mb=50.0, targets_per_s=1000.0),
            _result(peak_rss_mb=rss, targets_per_s=rate),
        )
        rows = TOOL.summarize([pair], better)
        assert TOOL.bound_lines(rows, bench) == [
            f"peak_rss_mb: {verdicts[0]} of 10%",
            f"targets_per_s: {verdicts[1]} of 25%",
        ]
