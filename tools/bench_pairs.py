"""Run one perfbench workload in two checkouts, alternately, and compare.

    python tools/bench_pairs.py --parent DIR --change DIR --workload driver-sweep --pairs 10

Pair p (p = 1..N) runs perfbench/run.py --seed p --trace 0 for
BENCHMARK.json's run_seconds in each checkout, the parent first in odd
pairs and the change first in even ones.  Before every run the
src/bhr/__pycache__ of both checkouts is removed, and every run has
PYTHONDONTWRITEBYTECODE=1, because setup_s moves by about a quarter
with the state of that cache.  Both checkouts should hold the same
perfbench/.

For each end-to-end metric of BENCHMARK.json it prints both medians,
the ratio of the change's median to the parent's, the pairs the change
won (ties count for neither side) and the interquartile range of the
parent's runs; then, per metric, whether the change's median is worse
than the parent's by more than the metric's bound, the fraction of the
parent's median that BENCHMARK.json allows; then each side's failed
and attempted targets.  Exits 1 when a run reports a failed target,
else 0.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(checkout: Path, workload: str, seed: int, seconds) -> dict:
    """perfbench's result line for one untraced run in checkout."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(
        argv, cwd=checkout, env=env, capture_output=True, text=True
    )
    if out.returncode not in (0, 1):  # 1 reports wrong answers
        raise RuntimeError(
            f"{checkout}: run.py exited {out.returncode}\n{out.stderr}"
        )
    return json.loads(out.stdout.splitlines()[-1])


def iqr(values) -> float:
    """The distance between the quartiles; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high - low


def summarize(pairs, better: dict[str, str]) -> list[dict]:
    """One row per metric of better (name -> "higher" or "lower") over
    pairs of (parent, change) perfbench results."""
    rows = []
    for name, direction in better.items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        rows.append(dict(
            metric=name,
            parent=p_med,
            change=c_med,
            ratio=c_med / p_med if p_med else float("nan"),
            won=won,
            pairs=len(pairs),
            parent_iqr=iqr(parent),
        ))
    return rows


def bound_lines(rows, end_to_end) -> list[str]:
    """One verdict line per row: whether the change's median is worse
    than the parent's by more than the metric's bound times the
    parent's median, the bounds and directions read from end_to_end,
    BENCHMARK.json's list of {name, better, bound}."""
    spec = {m["name"]: m for m in end_to_end}
    lines = []
    for r in rows:
        m = spec[r["metric"]]
        worse = r["change"] - r["parent"]
        if m["better"] == "higher":
            worse = -worse
        verdict = (
            "WORSE than the parent beyond"
            if worse > m["bound"] * abs(r["parent"])
            else "within"
        )
        lines.append(f"{r['metric']}: {verdict} its bound of {m['bound']:.0%}")
    return lines


def format_rows(rows) -> list[str]:
    lines = [
        f"{'metric':<16}{'parent':>12}{'change':>12}{'ratio':>9}"
        f"{'won':>8}{'parent IQR':>12}"
    ]
    for r in rows:
        lines.append(
            f"{r['metric']:<16}{r['parent']:>12.4g}{r['change']:>12.4g}"
            f"{r['ratio']:>9.3f}{r['won']:>5}/{r['pairs']:<2}"
            f"{r['parent_iqr']:>12.4g}"
        )
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    args = p.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    for seed in range(1, args.pairs + 1):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        result = {}
        for side in order:
            for checkout in checkouts.values():
                shutil.rmtree(
                    checkout / "src" / "bhr" / "__pycache__",
                    ignore_errors=True,
                )
            result[side] = run_once(
                checkouts[side], args.workload, seed, bench["run_seconds"]
            )
            metrics = result[side]["metrics"]
            print(
                f"pair {seed} {side}: "
                + " ".join(f"{k}={metrics[k]['value']:.4g}" for k in better),
                file=sys.stderr,
            )
        pairs.append((result["parent"], result["change"]))
    print(f"{args.workload}, {args.pairs} pairs")
    rows = summarize(pairs, better)
    for line in format_rows(rows) + bound_lines(rows, bench["end_to_end"]):
        print(line)
    failed = 0
    for i, side in enumerate(("parent", "change")):
        f = sum(pair[i]["failed"] for pair in pairs)
        n = sum(pair[i]["attempted"] for pair in pairs)
        print(f"{side}: {f} of {n} targets failed")
        failed += f
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
