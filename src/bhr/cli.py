"""Command-line interface.

One subcommand per operation; the multiset grammar ("1^4 2 3^8 4") and
path JSON ("[0,5,1,2,6,3,4]") are shared by every command.  With
--json, output is a schema-versioned JSON document on stdout; otherwise
a short human-readable summary.  Exit codes: 0 success, 1 usage error,
2 not admissible, 3 out of proven range, 4 search failure,
5 verification failure, 141 stdout closed by its reader.  A command
returns a Certificate for main to print, or prints and returns an exit
code; either way stdout is written by _emit alone.  The growth
commands take the Certificate read from --path and --multiset.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import families, growth, search, seeds, solvers
from .core import (
    Certificate,
    HamPath,
    LengthMultiset,
    MultisetError,
    PathError,
    certificate,
    check_realization,
    cyclic_lengths,
    growth_points,
    is_admissible,
    plain_trace,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_ADMISSIBLE = 2
EXIT_OUT_OF_RANGE = 3
EXIT_SEARCH_FAILED = 4
EXIT_VERIFY_FAILED = 5
EXIT_PIPE_CLOSED = 141  # as a shell reports a process that SIGPIPE ended


def _default_brute_cap() -> int:
    """BHR_BRUTE_CAP, or else search.DEFAULT_BRUTE_CAP."""
    raw = os.environ.get("BHR_BRUTE_CAP")
    try:
        return int(raw) if raw else search.DEFAULT_BRUTE_CAP
    except ValueError:
        why = f"BHR_BRUTE_CAP must be an integer: {raw!r}"
        raise ValueError(why) from None


def _json_path(data) -> HamPath:
    if not isinstance(data, list):
        raise PathError("path JSON must be a list of integers")
    return HamPath.of(data)


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays nested deeper than the decoder recurses
        raise PathError(f"malformed {what} JSON: {exc}") from exc


def _parse_path(text: str) -> HamPath:
    return _json_path(_load_json(text, "path"))


def _emit(args, payload: dict, *lines: str) -> None:
    """Print payload as a JSON document, or else the human lines: the
    one writer of every command's stdout."""
    if args.json:
        print(json.dumps({"schema": 1, **payload}))
    else:
        for line in lines:
            print(line)


def _trace_lines(trace) -> list[str]:
    return [f"  {name} {params}" for name, params in plain_trace(trace)]


def _cert_lines(cert: Certificate) -> list[str]:
    lines = [f"path: {list(cert.path.vertices)}", f"multiset: {cert.multiset}"]
    if cert.grow_points:
        pts = ", ".join(f"({g.x},{g.m})" for g in cert.grow_points)
        lines.append(f"grow points: {pts}")
    return lines + _trace_lines(cert.trace)


def _cert_from_args(args) -> Certificate:
    path = _parse_path(args.path)
    ms = (
        LengthMultiset.parse(args.multiset)
        if args.multiset
        else cyclic_lengths(path)
    )
    return certificate(path, ms, growth_points(path))


def cmd_verify(args) -> int:
    path = _parse_path(args.path)
    ms = LengthMultiset.parse(args.multiset)
    ok, why = check_realization(path, ms)
    _emit(args, {"ok": ok, "detail": why}, why if not ok else "ok")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_admissible(args) -> int:
    ms = LengthMultiset.parse(args.multiset)
    verdict = is_admissible(ms)
    _emit(
        args,
        {"ok": verdict.ok, "detail": verdict.describe()},
        verdict.describe(),
    )
    return EXIT_OK if verdict.ok else EXIT_NOT_ADMISSIBLE


def cmd_grow(cert, args) -> Certificate:
    if args.schedule is not None:
        schedule = growth.GrowthSchedule.parse(args.schedule)
        return growth.multi_grow(cert, schedule)
    try:
        x, m = (int(t) for t in args.at.split(","))
    except ValueError:
        raise ValueError("--at expects x,m") from None
    return growth.grow(cert, x, m)


def cmd_splice(cert, args) -> Certificate:
    return growth.splice_perfect(cert, _parse_path(args.kpath))


def cmd_even_grow(cert, args) -> Certificate:
    return growth.even_grow(cert, args.y, args.z)


def cmd_x2x(cert, args) -> Certificate:
    return growth.x2x_swap(cert, args.x, args.i)


def cmd_perf_grow(cert, args) -> Certificate:
    try:
        with open(args.parts) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read parts file: {exc}") from exc
    data = _load_json(text, "parts")
    if not isinstance(data, list):
        raise PathError("parts JSON must be a list of paths")
    return growth.perf_grow(cert, args.x, [_json_path(p) for p in data])


def cmd_family(args) -> Certificate:
    return families.construct_1x(args.x, args.b)


_SOLVE_FAILED = {
    "not_admissible": EXIT_NOT_ADMISSIBLE,
    "out_of_proven_range": EXIT_OUT_OF_RANGE,
}


def cmd_solve(args) -> int:
    ms = LengthMultiset.parse(args.multiset)
    cfg = search.SearchConfig(rng_seed=args.seed)
    out = solvers.solve(
        ms,
        fallback=args.fallback,
        cfg=cfg,
        brute_cap=_default_brute_cap(),
    )
    lines = [f"status: {out.status}"]
    if args.trace or out.certificate is None:
        lines += _trace_lines(out.trace)
    if out.certificate:
        lines += _cert_lines(out.certificate)
    _emit(args, out.to_dict(), *lines)
    if out.ok:
        return EXIT_OK
    return _SOLVE_FAILED.get(out.status, EXIT_SEARCH_FAILED)


def cmd_search(args) -> Certificate | int:
    ms = LengthMultiset.parse(args.multiset)
    cfg = search.SearchConfig(
        rng_seed=args.seed,
        max_restarts=args.restarts,
        max_steps_per_restart=args.steps,
    )
    try:
        cert = search.local_search(ms, cfg)
    except MultisetError as exc:
        _emit(args, {"ok": False, "detail": str(exc)}, str(exc))
        return EXIT_NOT_ADMISSIBLE
    print(f"seed: {args.seed}", file=sys.stderr)
    if cert is None:
        _emit(
            args,
            {"ok": False, "detail": "budget exhausted", "seed": args.seed},
            "no realization found (budget exhausted)",
        )
        return EXIT_SEARCH_FAILED
    return cert


def cmd_oracle(args) -> Certificate | int:
    ms = LengthMultiset.parse(args.multiset)
    cap = args.cap if args.cap is not None else _default_brute_cap()
    cert = search.brute_force(ms, cap=cap)
    if cert is None:
        _emit(
            args,
            {"ok": False, "detail": "none (definitive)"},
            "no realization exists (definitive)",
        )
        return EXIT_SEARCH_FAILED
    return cert


def cmd_sweep(args) -> int:
    cfg = search.SearchConfig(rng_seed=args.seed)
    cap = _default_brute_cap()
    if args.definitive:
        # lift the cap to v_max, so that no multiset is left unknown
        limit = search.DEFAULT_DEFINITIVE_CAP
        if args.vmax > limit:
            raise ValueError(f"definitive sweep capped at v <= {limit}")
        cap = max(cap, args.vmax)
    report = search.sweep(args.vmax, cfg, cap)
    print(f"seed: {args.seed}", file=sys.stderr)
    row = (
        "v={v}: admissible={admissible_count} realized={realized} "
        "unrealizable={unrealizable} unknown={unknown} "
        "seconds={seconds:.3f}"
    )
    _emit(args, {"report": report}, *map(row.format_map, report))
    bad = sum(r["unrealizable"] for r in report)
    return EXIT_OK if not bad else EXIT_SEARCH_FAILED


def cmd_seeds(args) -> int:
    try:
        entries = (
            tuple(seeds.iter_seeds()) if args.table is None
            else seeds.table(args.table)
        )
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    if args.action == "check":
        bad = seeds.failures(entries)
        _emit(
            args,
            {
                "ok": not bad,
                "entries": len(entries),
                "failures": [
                    {
                        "table": e.table_id,
                        "variant": e.variant,
                        "multiset": e.multiset.format(),
                        "problems": [problem],
                    }
                    for e, problem in bad
                ],
            },
            f"{len(entries)} entries, {len(bad)} failures",
        )
        return EXIT_OK if not bad else EXIT_VERIFY_FAILED
    rows = [
        {
            "table": e.table_id,
            "variant": e.variant,
            "multiset": e.multiset.format(),
            "path": list(e.path.vertices),
            "grow_points": [[g.x, g.m] for g in e.declared_grow_points],
        }
        for e in entries
    ]
    row = "{table}/{variant}: {multiset} {path} points={grow_points}"
    _emit(args, {"seeds": rows}, *map(row.format_map, rows))
    return EXIT_OK


def cmd_bound(args) -> int:
    ms = LengthMultiset.parse(args.multiset)
    value = solvers.hr_bound(ms)
    _emit(args, {"bound": value}, str(value))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bhr",
        description="Cyclic realizations of edge-length multisets.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true")
        return p

    p = add("verify", cmd_verify, help="check a path against a multiset")
    p.add_argument("--path", required=True)
    p.add_argument("--multiset", required=True)

    p = add("admissible", cmd_admissible, help="divisor test")
    p.add_argument("multiset")

    def add_growth(name, op, **kwargs):
        p = add(name, lambda args: op(_cert_from_args(args), args), **kwargs)
        p.add_argument("--path", required=True)
        p.add_argument("--multiset")
        return p

    p = add_growth("grow", cmd_grow, help="apply grow steps to a realization")
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--at", help="x,m for a single grow")
    how.add_argument("--schedule", help='e.g. "2*4 3*3"')

    p = add_growth("splice", cmd_splice, help="splice a perfect realization")
    p.add_argument("--kpath", required=True)

    p = add_growth(
        "even-grow", cmd_even_grow, help="the two-run 2-grow rewrite"
    )
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--z", type=int, required=True)

    p = add_growth("x2x", cmd_x2x, help="triple x-grow with i run swaps")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--i", type=int, required=True)

    p = add_growth(
        "perf-grow", cmd_perf_grow, help="grow through perfect parts"
    )
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--parts", required=True, help="JSON file of parts")

    p = add("family", cmd_family, help="closed-form {1^a, x^b} seed")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--b", type=int, required=True)

    p = add("solve", cmd_solve, help="drive the theorem-level solvers")
    p.add_argument("multiset")
    p.add_argument("--fallback", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    budget = search.SearchConfig()
    p = add("search", cmd_search, help="randomized local search")
    p.add_argument("multiset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=budget.max_restarts)
    stagnant = "restart after this many steps in a row without a gain"
    p.add_argument(
        "--steps", type=int, default=budget.max_steps_per_restart,
        help=stagnant,
    )

    p = add("oracle", cmd_oracle, help="exhaustive search (definitive)")
    p.add_argument("multiset")
    p.add_argument("--cap", type=int)

    p = add("sweep", cmd_sweep, help="try every admissible multiset")
    p.add_argument("--vmax", type=int, required=True)
    p.add_argument("--definitive", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    p = add("seeds", cmd_seeds, help="dump or check the seed tables")
    p.add_argument("action", choices=["dump", "check"])
    p.add_argument("--table")

    p = add("bound", cmd_bound, help="realizability threshold")
    p.add_argument("multiset")

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; remap (0 for --help)
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        result = args.fn(args)
        if isinstance(result, Certificate):
            _emit(args, result.to_dict(), *_cert_lines(result))
            result = EXIT_OK
        sys.stdout.flush()
    except ValueError as exc:
        # MultisetError, PathError and NotGrowableError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, OverflowError) as exc:
        print(f"error: input too large: {type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    return result


if __name__ == "__main__":
    sys.exit(main())
