import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bhr
from bhr import families, search, solvers
from bhr.cli import (
    EXIT_NOT_ADMISSIBLE,
    EXIT_OK,
    EXIT_OUT_OF_RANGE,
    EXIT_PIPE_CLOSED,
    EXIT_SEARCH_FAILED,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)

DEMO9 = "[6, 4, 3, 0, 7, 1, 5, 2, 8]"
DEMO15 = "[0, 3, 6, 2, 1, 13, 10, 11, 14, 12, 9, 8, 5, 4, 7]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_ok(capsys):
    code, out, _ = run(
        capsys, "verify", "--path", DEMO9, "--multiset", "1 2^2 3^4 4"
    )
    assert code == EXIT_OK


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(
        capsys, "verify", "--path", DEMO9, "--multiset", "1^8"
    )
    assert code == 5


def test_verify_mismatch_is_one_short_line(capsys):
    path = list(range(10000))
    random.Random(0).shuffle(path)
    code, out, _ = run(
        capsys, "verify", "--path", json.dumps(path), "--multiset", "1^9999"
    )
    assert code == EXIT_VERIFY_FAILED
    assert len(out.splitlines()) == 1 and len(out.encode()) < 200


def test_admissible(capsys):
    code, out, _ = run(capsys, "admissible", "1 2^2 3^4 4")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "admissible", "5^3")
    assert code == EXIT_NOT_ADMISSIBLE


def test_usage_errors(capsys):
    assert run(capsys, "no-such-command")[0] == EXIT_USAGE
    assert run(capsys, "admissible", "not a multiset")[0] == EXIT_USAGE
    for at in ("zz", "", "1,2,3"):
        code, out, err = run(capsys, "grow", "--path", "[0,1]", "--at", at)
        assert (code, out) == (EXIT_USAGE, ""), at
        assert err == "error: --at expects x,m\n", at
    assert run(capsys)[0] == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == EXIT_OK


def test_grow_worked_example_json(capsys):
    code, out, _ = run(
        capsys, "grow", "--path", DEMO9, "--at", "3,2", "--json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["path"] == [9, 7, 6, 3, 0, 10, 1, 4, 8, 5, 2, 11]
    assert data["multiset"] == "1 2^2 3^7 4"
    # the human form prints trace params as plain dicts
    code, out, _ = run(capsys, "grow", "--path", DEMO9, "--at", "3,2")
    assert code == EXIT_OK
    assert "  grow {'x': 3, 'm': 2}" in out.splitlines()


def test_grow_takes_exactly_one_of_at_and_schedule(capsys):
    for how in (("--at", "3,2", "--schedule", "1*2"), ()):
        code, out, err = run(capsys, "grow", "--path", DEMO9, *how)
        assert code == EXIT_USAGE, how
        assert out == "" and "error: " in err, how


def test_grow_schedule(capsys):
    code, out, _ = run(
        capsys, "grow", "--path", DEMO15, "--schedule", "2*4 3*3", "--json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["multiset"] == "1^4 2^9 3^17 4"


def test_grow_schedule_must_parse(capsys):
    for schedule, why in (
        ("", "empty schedule"),
        ("2*", "bad schedule token '2*'"),
        ("1*x", "bad schedule token '1*x'"),
        ("2*3*4", "bad schedule token '2*3*4'"),
    ):
        code, out, err = run(
            capsys, "grow", "--path", DEMO9, "--schedule", schedule
        )
        assert code == EXIT_USAGE, schedule
        assert out == "" and err == f"error: {why}\n", schedule


def test_grow_too_large_for_memory_is_a_usage_error(capsys):
    # 10^14 grows need far more memory than any machine has: the first
    # allocation fails at once
    code, out, err = run(
        capsys, "grow", "--path", "[0,1,2,3]",
        "--schedule", "1*99999999999999",
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: input too large: MemoryError\n"


def test_solve_order_too_large_for_a_list_is_a_usage_error(capsys):
    # admissible at once, but local_search cannot index 10^20 vertices
    code, out, err = run(capsys, "solve", "1^99999999999999999999")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: input too large: OverflowError\n"


def test_solve_json_roundtrips_through_verify(capsys):
    code, out, _ = run(capsys, "solve", "1 2^2 3^3", "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["status"] == "solved"
    cert = data["certificate"]
    code, _, _ = run(
        capsys,
        "verify",
        "--path",
        json.dumps(cert["path"]),
        "--multiset",
        cert["multiset"],
    )
    assert code == EXIT_OK


def test_solve_exit_codes(capsys):
    assert run(capsys, "solve", "5^3")[0] == EXIT_NOT_ADMISSIBLE
    assert run(capsys, "solve", "1^2 3^9 6")[0] == EXIT_OUT_OF_RANGE
    assert run(capsys, "solve", "1^2 3^9 6", "--fallback")[0] == EXIT_OK


def test_solve_trace_prints_plain_params(capsys):
    code, out, _ = run(capsys, "solve", "1^5 2^6 3^9", "--trace")
    assert code == EXIT_OK
    assert out.splitlines()[:2] == [
        "status: solved",
        "  replay {'table': 'u123-main', 'variant': 'main', "
        "'schedule': [[1, 4], [2, 2], [3, 2]]}",
    ]
    code, out, _ = run(capsys, "solve", "1^5 2^6 3^9", "--json")
    [name, params] = json.loads(out)["trace"][0]
    assert (name, params["schedule"]) == ("replay", [[1, 4], [2, 2], [3, 2]])


def test_closed_stdout_exits_without_traceback():
    # the answer is several pipe buffers long, so once the reader has
    # left after the first line, a later write finds the pipe closed
    src = str(Path(bhr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bhr", "solve", "1^2 3^10000 6^10000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.readline() == b"status: solved\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PIPE_CLOSED
    assert err == b"", err


def test_search_prints_seed_to_stderr(capsys):
    code, out, err = run(capsys, "search", "1^2 2 3^3", "--seed", "3")
    assert code == EXIT_OK
    assert "seed" in err


def test_oracle(capsys):
    assert run(capsys, "oracle", "1^2 2 3^3")[0] == EXIT_OK
    assert run(capsys, "oracle", "2^5")[0] == EXIT_SEARCH_FAILED
    assert run(capsys, "oracle", "1^20")[0] == EXIT_USAGE
    assert run(capsys, "oracle", "1^20", "--cap", "21")[0] == EXIT_OK
    assert run(capsys, "oracle", "2^5", "--cap", "0")[0] == EXIT_USAGE
    code, out, err = run(capsys, "oracle", "1^3", "--cap", "-5")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: v=4 exceeds brute-force cap -5\n"


def test_family(capsys):
    code, out, _ = run(capsys, "family", "--x", "8", "--b", "13", "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["multiset"] == "1^6 8^13"
    code, out, err = run(capsys, "family", "--x", "8", "--b", "40")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: b=40 outside range 9..16\n"
    assert run(capsys, "family", "--x", "8", "--b", "5")[0] == EXIT_USAGE
    code, out, err = run(capsys, "family", "--x", "2", "--b", "5")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: x must be at least 4\n"


def test_seeds_check(capsys):
    code, out, _ = run(capsys, "seeds", "check")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "seeds", "dump", "--table", "demo", "--json")
    assert code == EXIT_OK
    assert len(json.loads(out)["seeds"]) == 2
    code, out, err = run(capsys, "seeds", "dump", "--table", "nope")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ")
    code, out, err = run(capsys, "seeds", "check", "--table", "nope")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: no-such-seed table: nope\n"
    code, out, _ = run(capsys, "seeds", "check", "--table", "stable", "--json")
    assert code == EXIT_OK
    assert out == (
        '{"schema": 1, "ok": true, "entries": 4, "failures": []}\n'
    )


def test_bound(capsys):
    code, out, _ = run(capsys, "bound", "2^3 3", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["bound"] == 9


def test_sweep(capsys):
    code, out, _ = run(
        capsys, "sweep", "--vmax", "6", "--definitive", "--json"
    )
    assert code == EXIT_OK
    rows = json.loads(out)["report"]
    assert [r["v"] for r in rows] == [2, 3, 4, 5, 6]
    assert all(r["seconds"] >= 0 for r in rows)
    code, out, _ = run(capsys, "sweep", "--vmax", "4", "--definitive")
    assert code == EXIT_OK
    for line, v, count in zip(out.splitlines(), (2, 3, 4), (1, 1, 3)):
        head = (
            f"v={v}: admissible={count} realized={count} "
            "unrealizable=0 unknown=0 seconds="
        )
        assert line.startswith(head), line
        float(line[len(head):])
    # a rejected call prints no seed: it never ran
    for vmax in ("1", "0", "-3"):
        for json_flag in ((), ("--json",)):
            code, out, err = run(capsys, "sweep", "--vmax", vmax, *json_flag)
            assert (code, out) == (EXIT_USAGE, ""), vmax
            assert err == "error: v_max must be at least 2\n"
    code, out, err = run(capsys, "sweep", "--definitive", "--vmax", "13")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: definitive sweep capped at v <= 12\n"
    code, out, err = run(capsys, "sweep", "--vmax", "3", "--seed", "4")
    assert (code, err) == (EXIT_OK, "seed: 4\n")


def test_sweep_honours_brute_cap_env(capsys, monkeypatch):
    # local_search realizes every multiset at these orders, so refuse
    # it to send each one to brute_force
    orders = []
    brute_force = search.brute_force

    def counting_brute_force(ms, cap=None):
        orders.append(ms.v)
        return brute_force(ms, cap=cap)

    monkeypatch.setattr(search, "local_search", lambda ms, cfg: None)
    monkeypatch.setattr(search, "brute_force", counting_brute_force)
    assert run(capsys, "sweep", "--vmax", "7")[0] == EXIT_OK
    assert sorted(set(orders)) == [2, 3, 4, 5, 6, 7]
    orders.clear()
    monkeypatch.setenv("BHR_BRUTE_CAP", "5")
    code, out, _ = run(capsys, "sweep", "--vmax", "7", "--json")
    assert code == EXIT_OK
    assert sorted(set(orders)) == [2, 3, 4, 5]
    rows = json.loads(out)["report"]
    assert [r["unknown"] > 0 for r in rows] == [False] * 4 + [True] * 2
    # --definitive lifts the cap to --vmax, so nothing is left unknown
    orders.clear()
    code, out, _ = run(
        capsys, "sweep", "--vmax", "7", "--definitive", "--json"
    )
    assert code == EXIT_OK
    assert sorted(set(orders)) == [2, 3, 4, 5, 6, 7]
    assert [r["unknown"] for r in json.loads(out)["report"]] == [0] * 6
    monkeypatch.setenv("BHR_BRUTE_CAP", "abc")
    code, out, err = run(capsys, "sweep", "--vmax", "7")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: BHR_BRUTE_CAP must be an integer: 'abc'\n"


def test_x2x_and_splice(capsys):
    g1path = "[6, 5, 1, 4, 0, 3, 2]"
    code, out, _ = run(
        capsys, "x2x", "--path", g1path, "--x", "3", "--i", "2", "--json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["multiset"] == "1^2 3^9 6^4"
    code, out, _ = run(
        capsys,
        "splice",
        "--path",
        DEMO15,
        "--kpath",
        "[0, 2, 1, 3]",
        "--json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["multiset"] == "1^5 2^3 3^8 4"


def test_x2x_names_a_bad_x_before_i(capsys):
    # x is checked first: i's range 0..x means nothing for x < 1
    g1path = "[6, 5, 1, 4, 0, 3, 2]"
    for x, i in [("-2", "-1"), ("0", "0")]:
        code, out, err = run(
            capsys, "x2x", "--path", g1path, "--x", x, "--i", i
        )
        assert (code, out) == (EXIT_USAGE, ""), x
        assert err == f"error: x must be positive, got {x}\n"


def test_path_json_rejects_bools(capsys):
    # bool is an int subclass; [true, 0] must not pass for [1, 0]
    code, out, err = run(
        capsys, "verify", "--path", "[true,0]", "--multiset", "1"
    )
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:")
    code, _, err = run(
        capsys, "grow", "--path", "[0, false]", "--at", "1,0"
    )
    assert code == EXIT_USAGE and err.startswith("error:")


def test_bad_path_error_names_one_label(capsys):
    # a 10^4-vertex path with one repeat: the error line names the
    # repeated label, not all 10^4 of them
    bad = json.dumps([*range(9_999), 17])
    code, out, err = run(capsys, "verify", "--path", bad, "--multiset", "1")
    assert code == EXIT_USAGE and out == ""
    assert err == (
        "error: not a permutation of 0..9999: label 17 at index 9999 is "
        "repeated\n"
    )


G1 = "[6, 5, 1, 4, 0, 3, 2]"


def test_deeply_nested_json_is_malformed(capsys, tmp_path):
    # json.loads recurses once per level and gives up past the limit
    deep = "[" * 5000 + "]" * 5000
    parts = tmp_path / "parts.json"
    parts.write_text(deep)
    for argv, what in (
        (("verify", "--path", deep, "--multiset", "1"), "path"),
        (("splice", "--path", G1, "--kpath", deep), "path"),
        (("perf-grow", "--path", G1, "--x", "3", "--parts", str(parts)),
         "parts"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith(f"error: malformed {what} JSON")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_perf_grow_missing_parts_file(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run(
        capsys, "perf-grow", "--path", G1, "--x", "3",
        "--parts", str(missing),
    )
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:")
    assert "Traceback" not in err


def test_perf_grow_parts_validation(capsys, tmp_path):
    parts = tmp_path / "parts.json"

    def perf_grow(text):
        parts.write_text(text)
        return run(
            capsys, "perf-grow", "--path", G1, "--x", "3",
            "--parts", str(parts), "--json",
        )

    code, out, _ = perf_grow("[[0, 2, 1, 3], [0, 1, 2, 3], [0, 1, 2, 3]]")
    assert code == EXIT_OK
    assert json.loads(out)["multiset"] == "1^2 3^11 6^2"
    for bad in (
        "[[0, 2, 1, 3], [0, true, 2, 3], [0, 1, 2, 3]]",
        "[[0, 2, 1, 3], [0, 1.0, 2, 3], [0, 1, 2, 3]]",
        '{"parts": [[0, 1, 2, 3]]}',
        "[[0, 2, 1, 3], 5, [0, 1, 2, 3]]",
        "[[0, 2, 1, 3",
    ):
        code, out, err = perf_grow(bad)
        assert code == EXIT_USAGE, bad
        assert out == "" and err.startswith("error:"), bad


@pytest.mark.parametrize(
    "path, message",
    [
        ("[[0], 1]", "label [0] at index 0 is not an int"),
        ('[0, "1"]', "label '1' at index 1 is not an int"),
    ],
    ids=["list-label", "string-label"],
)
def test_non_int_labels_are_usage_errors(capsys, tmp_path, path, message):
    # HamPath tests each label's type before it sorts them, so a list
    # or a string among the labels is a usage error, not a TypeError
    parts = tmp_path / "parts.json"
    parts.write_text(f"[[0, 2, 1, 3], {path}, [0, 1, 2, 3]]")
    for argv in (
        ("verify", "--path", path, "--multiset", "1"),
        ("perf-grow", "--path", G1, "--x", "3", "--parts", str(parts)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err == f"error: {message}\n", argv


def test_perf_grow_rejects_x_below_one(capsys, tmp_path):
    parts = tmp_path / "parts.json"
    parts.write_text("[]")
    code, out, err = run(
        capsys, "perf-grow", "--path", G1, "--x", "0",
        "--parts", str(parts),
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_even_grow(capsys):
    code, out, _ = run(
        capsys, "even-grow", "--path", DEMO15, "--y", "4", "--z", "6",
        "--json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["multiset"] == "1^10 2 3^8 4^6 6^7"
    assert data["trace"][-1] == ["even_grow", {"y": 4, "z": 6}]
    code, out, _ = run(
        capsys, "even-grow", "--path", DEMO15, "--y", "4", "--z", "6"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[1] == "multiset: 1^10 2 3^8 4^6 6^7"
    assert lines[-1] == "  even_grow {'y': 4, 'z': 6}"
    code, out, err = run(
        capsys, "even-grow", "--path", DEMO9, "--y", "4", "--z", "4"
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: certificate has no 2-grow point\n"


def test_search_defaults_are_search_configs(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(
        search, "local_search", lambda ms, cfg: seen.append(cfg)
    )
    assert run(capsys, "search", "1^2 2 3^3")[0] == EXIT_SEARCH_FAILED
    assert seen == [search.SearchConfig(rng_seed=0)]


@pytest.mark.parametrize(
    "owner, name, argv",
    [
        (bhr.growth, "grow", ("grow", "--path", DEMO9, "--at", "3,2")),
        (
            bhr.growth,
            "x2x_swap",
            ("x2x", "--path", "[6, 5, 1, 4, 0, 3, 2]", "--x", "3", "--i", "2"),
        ),
        (families, "construct_1x", ("family", "--x", "8", "--b", "13")),
        (solvers, "solve", ("solve", "1^5 2^6 3^9")),
    ],
)
def test_json_is_the_returned_objects_document(
    capsys, monkeypatch, owner, name, argv
):
    """Each --json document is the schema-1 to_dict of what the command
    computed, printed by the one writer."""
    made = []
    real = getattr(owner, name)

    def keep(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(owner, name, keep)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    [obj] = made
    assert out == json.dumps({"schema": 1, **obj.to_dict()}) + "\n"


def test_search_failure_exit_codes(capsys):
    code, out, err = run(capsys, "search", "5^3", "--json")
    assert code == EXIT_NOT_ADMISSIBLE
    assert json.loads(out) == {
        "schema": 1,
        "ok": False,
        "detail": "not admissible: length 5 exceeds floor(v/2)",
    }
    assert err == ""  # rejected before it ran, so no seed
    code, out, err = run(capsys, "search", "2^5")
    assert code == EXIT_NOT_ADMISSIBLE
    assert out == "not admissible: divisor 2: 5 multiples exceed bound 4\n"
    assert err == ""
    argv = ("search", "2^3 3^4 4^4", "--restarts", "1", "--steps", "1")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_SEARCH_FAILED
    assert out == "no realization found (budget exhausted)\n"
    assert err == "seed: 0\n"
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_SEARCH_FAILED
    assert json.loads(out) == {
        "schema": 1, "ok": False, "detail": "budget exhausted", "seed": 0
    }


def test_solve_exits_4_when_search_fails(capsys, monkeypatch):
    monkeypatch.setattr(search, "local_search", lambda ms, cfg: None)
    monkeypatch.setenv("BHR_BRUTE_CAP", "5")
    code, out, _ = run(capsys, "solve", "1^12")
    assert code == EXIT_SEARCH_FAILED
    assert out.splitlines() == [
        "status: search_fallback",
        "  external-theorem region {'why': 'underlying set of size <= 2'}",
        "  search {'found': False}",
    ]
    code, out, _ = run(capsys, "solve", "1^12", "--json")
    assert code == EXIT_SEARCH_FAILED
    data = json.loads(out)
    assert (data["status"], data["certificate"]) == ("search_fallback", None)


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "2^5", "--json")
    assert code == EXIT_SEARCH_FAILED
    assert json.loads(out) == {
        "schema": 1, "ok": False, "detail": "none (definitive)"
    }
    code, out, _ = run(capsys, "oracle", "1^2 2 3^3", "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["multiset"] == "1^2 2 3^3"
    assert data["trace"] == [["brute_force", {"v": 7}]]


def test_oracle_answers_orders_beyond_the_recursion_limit(capsys):
    # the cap is the oracle's only bound, so an order past the
    # interpreter's recursion limit gets its answer
    code, out, _ = run(capsys, "oracle", "1^1200", "--cap", "2000")
    assert code == EXIT_OK
    assert out.splitlines()[0] == f"path: {list(range(1201))}"
    code, out, err = run(capsys, "oracle", "1^20")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: v=21 exceeds brute-force cap 14\n"


def test_seeds_dump_human(capsys):
    code, out, _ = run(capsys, "seeds", "dump", "--table", "demo")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "demo/demo-9: 1 2^2 3^4 4 [6, 4, 3, 0, 7, 1, 5, 2, 8] "
        "points=[[3, 2]]",
        "demo/demo-15: 1^4 2 3^8 4 "
        "[0, 3, 6, 2, 1, 13, 10, 11, 14, 12, 9, 8, 5, 4, 7] "
        "points=[[1, 8], [2, 3], [3, 11], [4, 5]]",
    ]
