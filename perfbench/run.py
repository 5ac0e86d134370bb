"""Run one bhr benchmark workload and print its metrics.

    python3 perfbench/run.py --workload driver-sweep --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout that has src/bhr next to
perfbench/.  One process, one thread, a closed loop with one caller:
each target is one timed call into bhr's public API, and the next call
starts when the last one returns.  Inputs come from --seed alone and are
made outside the timed region; every answer is checked afterwards with
perfbench/checker.py, which does not use bhr.

Calls are timed on the CPU clock and scaled by the speed that a fixed
piece of reference work (reference.py), run on a CPU-time timer during
and between them, shows; this takes the shared host's load out of the
figures.  A run lasts until the scaled times of its targets add up to
--seconds.

--trace 0 measures the end-to-end metrics.  --trace 1 spends half of
--seconds on a traced loop that yields the per-layer metrics, then runs
the same targets again untraced to measure the tracing overhead.

The second-to-last line of stdout is a JSON report (machine, commit,
seed, sample counts, failures); the last line is the JSON result.  The
exit code is 1 when any answer is wrong, 2 when bhr cannot be found.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import reference  # noqa: E402  (sibling modules; HERE is on sys.path)
import workloads  # noqa: E402

SETUP_PROBES = 6
SETUP_REFERENCE = 24  # reference probes in each set-up interpreter
IMPORT_PROBES = 3
# a run on a slow or busy host still ends after this many times its
# length of wall time
WALL_CAP = 1.6
# the reference work runs every PROBE_EVERY CPU seconds of the timed
# loop, and a target's time is scaled by the median of the probes that
# ran during it and the PROBE_SPAN // 2 on either side
PROBE_EVERY = 0.025
PROBE_SPAN = 6

END_TO_END = (
    ("setup_s", "s"),
    ("targets_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)

LAYER_CALLS = (
    "core.certificate",
    "core.cyclic_lengths",
    "core.is_growable_at",
    "core.growth_points",
    "growth.grow",
    "growth.multi_grow",
    "growth.x2x_swap",
    "growth.splice_perfect",
    "growth.even_grow",
    "growth.perf_grow",
    "search.local_search",
    "search.brute_force",
    "solvers.solve",
    "families.seed_for_residue",
)
LAYERS = ("core", "growth", "search", "solvers", "families")
ROUTES = {
    "replay": "replay",
    "swap-pipeline": "swap",
    "external-theorem region": "external",
}
ORACLE_ORDERS = (11, 12)

# Counts and self times are per traced target ("/target"), so that they
# compare across runs that get through different numbers of targets.
PER_LAYER = (
    [(f"{n}.calls", "1/target") for n in LAYER_CALLS]
    + [(f"{n}.self_s", "s/target") for n in LAYER_CALLS]
    + [(f"{layer}.self_s", "s/target") for layer in LAYERS]
    + [
        ("growth.grow.vertices_out", "1/target"),
        ("search.local_search.found_ratio", "ratio"),
        ("search.local_search.restarts", "1/call"),
        ("search.brute_force.refuted", "1/target"),
        ("search.enumerate_admissible.self_s", "s"),
    ]
    + [(f"search.order_s.v{v}", "s") for v in ORACLE_ORDERS]
    + [(f"solvers.route.{r}", "1/target") for r in ROUTES.values()]
    + [
        ("solvers.rescue.count", "1/target"),
        ("solvers.grows_per_target", "1/target"),
        ("seeds.import_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_bhr():
    """Import bhr from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "bhr", "__init__.py")):
        print(f"error: no bhr package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import bhr

    return bhr


def setup_seconds(name: str, seed: int, probes: int) -> list[tuple]:
    """Process start, import bhr and the first batch of inputs, each
    time in a fresh interpreter: (scaled CPU, CPU, wall) seconds per
    probe.  The interpreter reads its own CPU clock when the inputs are
    made, then runs the reference work to scale that time by.

    No timeout: with one, subprocess polls for the exit in steps of up
    to 50 ms, which would round every wall sample up to that grid."""
    code = (
        f"import sys; sys.path[:0] = [{HERE!r}, {SRC!r}]\n"
        "import random, bhr, workloads\n"
        f"next(workloads.WORKLOADS[{name!r}].batches("
        f"bhr, random.Random({seed})))\n"
        "import time; cpu = time.process_time()\n"
        "import reference, statistics\n"
        f"near = [reference.probe() for _ in range({SETUP_REFERENCE})]\n"
        "print(cpu, statistics.median(near))\n"
    )
    out = []
    for _ in range(probes):
        w0 = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        wall = time.perf_counter() - w0
        cpu, near = map(float, run.stdout.split())
        out.append((cpu * reference.NOMINAL_S / near, cpu, wall))
    return out


def import_seconds() -> float:
    """Median CPU seconds of `import bhr` alone in a fresh interpreter."""
    code = (
        f"import sys, time; sys.path.insert(0, {SRC!r})\n"
        "t = time.process_time(); import bhr\n"
        "print(time.process_time() - t)\n"
    )
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


class Loop:
    """The closed loop: one caller, one call per target.

    Every call is timed on two clocks: the CPU clock of the thread (the
    only one that runs bhr), which the metrics use, and the wall clock,
    which goes to the report.  The CPU clock leaves out the time the
    process was not running (another process or the host had the CPU).  bhr runs on the calling thread,
    does no I/O and starts no process, so on an idle machine the two
    clocks agree.

    The speed the process gets while it runs still swings with the
    host's load.  So while the loop runs, a CPU-time timer (SIGPROF)
    runs reference.probe() every PROBE_EVERY seconds, inside bhr's
    calls as well as between them; a probe's own time is taken out of
    the call it interrupted, and scaled() turns each call's time into
    its time at reference.NOMINAL_S.  A run lasts until the targets'
    times, scaled by the latest probes, add up to its length, so it does
    the same work however fast the host is."""

    def __init__(self, bhr, workload, tracer=None, observe=None):
        self.bhr, self.workload = bhr, workload
        self.tracer, self.observe = tracer, observe
        self.latencies: list[float] = []  # CPU seconds per target
        self.spans: list[tuple] = []  # CPU clock at each call's ends
        self.wall_latencies: list[float] = []
        # (CPU clock at the end, seconds taken) of each probe, one tuple
        # per probe so that a probe on the timer cannot split a record
        self.probes: list[tuple] = []
        self.done: list = []  # targets run, kept only when traced
        self.failures: Counter = Counter()
        self.work = 0.0  # scaled seconds of targets, by the latest probes
        self.busy = 0.0  # CPU seconds inside timed batches
        self.wall = 0.0  # wall seconds inside timed batches

    def probe(self, *_signal) -> None:
        took = reference.probe()
        self.probes.append((time.thread_time(), took))

    def scaled(self) -> list[float]:
        """Each target's CPU seconds at the reference's nominal speed:
        times NOMINAL_S over the median of the probes that ran during
        it and the PROBE_SPAN // 2 before and after it."""
        ends = [end for end, _ in self.probes]
        took = [t for _, t in self.probes]
        half = PROBE_SPAN // 2
        out = []
        for (c0, c1), t in zip(self.spans, self.latencies):
            first = bisect.bisect_right(ends, c0)
            stop = bisect.bisect_right(ends, c1)
            near = took[max(0, first - half) : stop + half]
            out.append(t * reference.NOMINAL_S / statistics.median(near))
        return out

    def _call(self, target):
        try:
            return self.workload.call(self.bhr, target), None
        except Exception as exc:  # a raising call is a failed target
            return None, f"{type(exc).__name__}: {exc}"

    def run_batch(self, batch, seconds: float = math.inf) -> None:
        # the thread's CPU clock: while the timer is armed, the process's
        # clock reads only to the scheduler tick
        cpu, now, call, tracer = (
            time.thread_time,
            time.perf_counter,
            self._call,
            self.tracer,
        )
        wall_cap = WALL_CAP * seconds
        answers = []
        self.probe()
        cpu_start, start = cpu(), now()
        signal.signal(signal.SIGPROF, self.probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY, PROBE_EVERY)
        try:
            for target in batch:
                seen = len(self.probes)
                w0, c0 = now(), cpu()
                if tracer is None:
                    answers.append(call(target))
                else:
                    with tracer.request(len(self.latencies)):
                        answers.append(call(target))
                c1, w1 = cpu(), now()
                # take out the probes that ran inside the call
                probed = sum(
                    t for end, t in self.probes[seen:] if c0 < end <= c1
                )
                self.spans.append((c0, c1))
                self.latencies.append(c1 - c0 - probed)
                self.wall_latencies.append(w1 - w0 - probed)
                latest = [t for _, t in self.probes[-PROBE_SPAN:]]
                scale = reference.NOMINAL_S / statistics.median(latest)
                self.work += self.latencies[-1] * scale
                if self.work >= seconds or self.wall + w1 - start >= wall_cap:
                    break
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.busy += cpu() - cpu_start
        self.wall += now() - start
        self.probe()
        # the clock has stopped: check this batch
        first = len(self.latencies) - len(answers)
        for i, (target, (answer, error)) in enumerate(zip(batch, answers)):
            why = error or self.workload.check(target, answer)
            if why:
                self.failures[f"{target.kind}: {why}"[:200]] += 1
            elif self.observe:
                self.observe(first + i, target, answer)
        if tracer is not None:
            self.done += batch[: len(answers)]

    def run(self, batches, seconds: float) -> None:
        while self.work < seconds and self.wall < WALL_CAP * seconds:
            self.run_batch(next(batches), seconds)


def throughput(times: list[float], seconds: float) -> float:
    """Targets per second in the first `seconds` of times laid end to
    end, the target that straddles that mark counted by the share of it
    done before it.  Unlike len(times) / sum(times), this does not jump
    when the last target of a run is a long one."""
    done = 0.0
    for i, t in enumerate(times):
        if done + t >= seconds:
            return (i + (seconds - done) / t) / seconds
        done += t
    return len(times) / done


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, bhr, workload) -> tuple[dict, int, Counter, dict]:
    # half the set-up samples before the loop and half after, so that
    # their median does not hang on the machine's load at one moment
    setup = setup_seconds(args.workload, args.seed, SETUP_PROBES // 2)
    batches = workload.batches(bhr, random.Random(args.seed))
    loop = Loop(bhr, workload)
    loop.run(batches, args.seconds)
    setup += setup_seconds(args.workload, args.seed, SETUP_PROBES // 2)
    times = loop.scaled()
    lat_ms = [t * 1e3 for t in times]
    cpu_ms = [t * 1e3 for t in loop.latencies]
    wall_ms = [t * 1e3 for t in loop.wall_latencies]
    metrics = {
        "setup_s": statistics.median(scaled for scaled, _, _ in setup),
        "targets_per_s": throughput(times, args.seconds),
        "latency_ms.p50": percentile(lat_ms, 50),
        "latency_ms.p90": percentile(lat_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    # the timings unscaled, on the CPU clock and on the wall clock; the
    # wall seconds the process did not run (the host or other processes
    # had the CPU) show as loop_wall_s - loop_cpu_s
    unscaled = {}
    for clock, ms, column in (("cpu", cpu_ms, 1), ("wall", wall_ms, 2)):
        unscaled[clock] = {
            "setup_s": statistics.median(p[column] for p in setup),
            "targets_per_s": 1e3 * len(ms) / sum(ms),
            "latency_ms.p50": percentile(ms, 50),
            "latency_ms.p90": percentile(ms, 90),
        }
    extra = {
        "setup_s_samples": [scaled for scaled, _, _ in setup],
        "latency_samples": len(lat_ms),
        "loop_cpu_s": loop.busy,
        "loop_wall_s": loop.wall,
        "reference_probe_ms": {
            "nominal": reference.NOMINAL_S * 1e3,
            "count": len(loop.probes),
            "median": statistics.median(t for _, t in loop.probes) * 1e3,
        },
        **unscaled,
    }
    if len(lat_ms) >= 1000:
        extra["latency_ms.p99"] = percentile(lat_ms, 99)
    return metrics, len(lat_ms), loop.failures, extra


def per_layer(args, bhr, workload) -> tuple[dict, int, Counter, dict]:
    import tracer as tracing

    routes: Counter = Counter()
    grows: list[int] = []
    replayed: list[int] = []

    def observe(index, target, outcome):
        route = ROUTES.get(outcome.trace[0][0], "other")
        routes[route] += 1
        if route == "replay":
            replayed.append(index)
        grows.append(
            sum(1 for step, _ in outcome.certificate.trace if step == "grow")
        )

    tracer = tracing.Tracer(bhr)
    tracer.install()
    try:
        batches = workload.batches(bhr, random.Random(args.seed))
        solves = workload.call is workloads.call_solve
        loop = Loop(bhr, workload, tracer, observe if solves else None)
        loop.run(batches, args.seconds / 2)
    finally:
        tracer.uninstall()

    # the same targets again, untraced, for the overhead ratio
    rerun = Loop(bhr, workload)
    rerun.run_batch(loop.done)
    rerun_s = rerun.scaled()

    # per traced target, so that runs of different length compare
    n = len(loop.done)
    calls, self_s = tracer.summary(in_requests=True)
    counts = tracer.counts
    m = {}
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = calls[name] / n
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            s for name, s in self_s.items() if name.startswith(layer + ".")
        ) / n
    searches = calls["search.local_search"]
    m["growth.grow.vertices_out"] = counts["growth.grow.vertices_out"] / n
    m["search.local_search.found_ratio"] = (
        counts["search.local_search.found"] / searches if searches else 0.0
    )
    m["search.local_search.restarts"] = (
        counts["search.local_search.restarts"] / searches if searches else 0.0
    )
    m["search.brute_force.refuted"] = counts["search.brute_force.refuted"] / n
    _, setup_self_s = tracer.summary(in_requests=False)
    m["search.enumerate_admissible.self_s"] = setup_self_s.get(
        "search.enumerate_admissible", 0.0
    )
    for v in ORACLE_ORDERS:
        m[f"search.order_s.v{v}"] = (
            oracle_order_seconds(loop.done, rerun_s, v)
            if args.workload == "oracle-sweep"
            else 0.0
        )
    for route in ROUTES.values():
        m[f"solvers.route.{route}"] = routes[route] / n
    m["solvers.rescue.count"] = (
        sum(1 for i in replayed if i not in tracer.multi_grow_ok) / n
    )
    m["solvers.grows_per_target"] = sum(grows) / n
    m["seeds.import_s"] = import_seconds()
    m["trace.overhead_ratio"] = sum(loop.scaled()) / sum(rerun_s)
    failures = loop.failures + rerun.failures
    attempted = len(loop.latencies) + len(rerun.latencies)
    extra = {"spans": len(tracer.start), "traced_targets": len(loop.done)}
    return m, attempted, failures, extra


def oracle_order_seconds(targets, latencies, v: int) -> float:
    """Seconds one definitive sweep of order v takes: the mean untraced
    latency of the order-v targets run, times the number of multisets of
    order v with lengths <= v/2."""
    times = [t for tg, t in zip(targets, latencies) if tg.v == v]
    if not times:
        return 0.0
    multisets = math.comb(v - 1 + v // 2 - 1, v // 2 - 1)
    return statistics.fmean(times) * multisets


def machine() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def source_identity() -> dict:
    """The git commit when ROOT is a work tree, and always a digest of
    src/bhr, so results from a plain source tree stay comparable."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bhr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(f.read())
    commit = None
    # the ceiling keeps git from looking above ROOT, so a plain source
    # tree that sits inside some other work tree reports no commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    args = parse_args(argv)
    bhr = import_bhr()
    workload = workloads.WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failures, extra = measure(args, bhr, workload)
    failed = sum(failures.values())
    units = dict(PER_LAYER if args.trace else END_TO_END)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        **source_identity(),
        "fail_ratio": failed / attempted,
        "failures": dict(failures.most_common(10)),
        **extra,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
