"""End-to-end CLI checks: subcommands, config handling, exit codes, outputs."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cornellbound import cli, numerov, phase_integral, report
from cornellbound.errors import BracketError, DomainError, NonConvergenceError, NoValidRootError
from cornellbound.model import DimensionlessCase
from cornellbound.numerov import Grid


def run(argv):
    return cli.main(argv)


def write_config(tmp_path, cfg) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


@pytest.fixture
def table_fails_at_B2(monkeypatch):
    table = numerov.convergence_table

    def fail_at_B2(case, grids):
        if case.B == 2.0:
            raise NonConvergenceError("forced failure")
        return table(case, grids)

    monkeypatch.setattr(numerov, "convergence_table", fail_at_B2)


def sweep_values(B, l, ns, z_max):
    grids = [Grid(1e-5, z_max, n) for n in ns]
    return [a for _, a in numerov.convergence_table(DimensionlessCase(B=B, l=l), grids)]


class TestNumerovCommand:
    """`numerov` and `convergence`, the two subcommands that run the Numerov engine."""

    def test_basic(self, capsys):
        code = run(["numerov", "-B", "0", "-l", "0", "--grid", "400", "--zmin", "1e-5", "--zmax", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "B = (4*mass^2" in out  # the adopted-definition header
        assert "2.338" in out

    def test_tracked_flag(self, capsys):
        code = run(
            ["numerov", "-B", "5", "-l", "0", "--grid", "512", "--zmin", "1e-5", "--zmax", "20", "--tracked"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tracked A" in out
        assert "0.4439" in out or "0.444" in out

    def test_convergence_sweep(self, capsys):
        code = run(["convergence", "-B", "0,2", "-l", "0", "--grids", "64,128,256", "--ref", "2.338107"])
        lines = capsys.readouterr().out.splitlines()[1:]
        assert code == 0
        # per (B, l): the table, then its rates
        heads = [f"{label}  {head}" for label in ("B=0 l=0", "B=2 l=0") for head in ("N=64: ", "N_k = ", "M_k = ")]
        assert len(lines) == len(heads)
        assert all(line.startswith(head) for line, head in zip(lines, heads))
        assert "N=256: " in lines[0]

    def test_multiple_cases(self, capsys):
        code = run(["numerov", "-B", "0,2", "-l", "0,1", "--grid", "200", "--zmin", "1e-4", "--zmax", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("A =") == 4

    def test_config_round_trip(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"B_values": [2.0], "l_values": [1], "z_min": 1e-4, "z_max": 20.0, "n": 600})

        def level(B, l, n):
            a = numerov.solve(DimensionlessCase(B=B, l=l), Grid(1e-4, 20.0, n), 1).eigenvalues[0]
            return f"{a:.10g}"

        assert run(["numerov", "--config", cfg]) == 0
        assert f"B=2 l=1  A = {level(2.0, 1, 600)}\n" in capsys.readouterr().out
        assert run(["numerov", "--config", cfg, "-B", "0", "--grid", "700"]) == 0
        assert f"B=0 l=1  A = {level(0.0, 1, 700)}\n" in capsys.readouterr().out

    def test_convergence_sweep_config_round_trip(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"B_values": [2.0], "l_values": [1], "z_max": 15.0})
        assert run(["convergence", "--config", cfg, "--grids", "8,16,32"]) == 0
        cells = "  ".join(f"N={n}: {a:.6g}" for n, a in zip((8, 16, 32), sweep_values(2.0, 1, (8, 16, 32), 15.0)))
        assert f"B=2 l=1  {cells}\n" in capsys.readouterr().out
        assert run(["convergence", "--config", cfg, "--grids", "8,16,32", "-l", "0", "--zmax", "20"]) == 0
        cells = "  ".join(f"N={n}: {a:.6g}" for n, a in zip((8, 16, 32), sweep_values(2.0, 0, (8, 16, 32), 20.0)))
        assert f"B=2 l=0  {cells}\n" in capsys.readouterr().out

    def test_convergence_sweep_reports_failures_per_case(self, capsys, table_fails_at_B2):
        code = run(["convergence", "-B", "0,2", "-l", "0", "--grids", "8,16,32"])
        captured = capsys.readouterr()
        assert code == 2
        assert "B=0 l=0  N=8:" in captured.out
        assert "B=2 l=0  FAILED: forced failure" in captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["numerov", "--grid", "100", "--levels", "0"], "--levels must be between 1 and 99"),
            (["numerov", "--grid", "100", "--levels", "100"], "--levels must be between 1 and 99"),
            (["convergence", "--grids", "8,16"], "--grids needs at least 3 grids"),
            (["convergence", "--grids", ""], "--grids needs at least 3 grids"),
        ],
    )
    def test_bad_levels_or_grids_is_configuration_error(self, capsys, argv, message):
        assert run([*argv, "-B", "0", "-l", "0"]) == 1
        captured = capsys.readouterr()
        assert f"configuration error: {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("grids", [[], ["--grids", "8,16,32"]])
    def test_invalid_value_is_configuration_error(self, capsys, grids):
        # a mesh sweep runs under `convergence`
        assert run(["convergence" if grids else "numerov", "-B", "-1", *grids]) == 1
        captured = capsys.readouterr()
        assert "configuration error: B values must be non-negative" in captured.err
        assert captured.out == ""


class TestPhaseCommand:
    def test_leading_order_value(self, capsys, tmp_path):
        out_path = tmp_path / "phase.json"
        code = run(["phase", "-B", "0", "-l", "0", "-s", "0", "--order", "0", "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2.349" in out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload[0]["A"] == pytest.approx(2.34966, abs=1e-5)
        assert payload[0]["C_abs"] <= 1e-8

    def test_failure_exit_code(self, capsys, monkeypatch):
        def boom(B, l, j, s_values):
            return [BracketError("forced failure") for _ in s_values]

        monkeypatch.setattr(phase_integral, "quantize_ladder", boom)
        code = run(["phase", "-B", "0", "-l", "0", "-s", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "FAILED" in err

    def test_repeated_and_unsorted_s_keep_their_order(self, capsys, tmp_path):
        out_path = tmp_path / "levels.json"
        assert run(["phase", "-B", "2", "-l", "1", "-s", "2,0,2", "--out", str(out_path)]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split()[2] for line in lines] == ["s=2", "s=0", "s=2"]
        assert lines[0] == lines[2]
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert [p["s"] for p in payload] == [2, 0, 2]
        for p in payload:
            assert p["A"] == phase_integral.quantize(DimensionlessCase(B=2.0, l=1, s=p["s"], j=1)).A

    def test_failed_level_is_reported_in_its_place(self, capsys, monkeypatch):
        real = phase_integral.quantize_ladder

        def fail_s0(B, l, j, s_values):
            levels = real(B, l, j, s_values)
            return [BracketError("forced failure") if s == 0 else res for s, res in zip(s_values, levels)]

        monkeypatch.setattr(phase_integral, "quantize_ladder", fail_s0)
        assert run(["phase", "-B", "2", "-l", "1", "-s", "1,0,2"]) == 2
        captured = capsys.readouterr()
        assert [line.split()[2] for line in captured.out.splitlines()[1:]] == ["s=1", "s=2"]
        assert captured.err == "B=2 l=1 s=0  FAILED: forced failure\n"

    def test_no_bracket_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.setattr(phase_integral, "_phase_sum", lambda x2, case: (case.s + 0.5) * math.pi + 1.0)
        code = run(["phase", "-B", "0", "-l", "0", "-s", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "B=0 l=0 s=0  FAILED: phase sum not below the target" in err
        assert "Traceback" not in err


    def test_coulomb_end_levels_converge(self, capsys):
        assert run(["phase", "-B", "1e4", "-l", "0,1,2", "-s", "0,1", "--order", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("B=10000 l=") and " j=0  A = " in line for line in lines) == 6
        for order in ("0", "1"):
            assert run(["phase", "-B", "1e9", "-l", "0", "-s", "0", "--order", order]) == 0
            assert f"B=1e+09 l=0 s=0 j={order}  A = -2.5e+17" in capsys.readouterr().out

    def test_degenerate_base_point_fails_cleanly(self, capsys, monkeypatch):
        # a double root at sn^2(u0) = 1: the j = 1 level fails on its path,
        # the j = 0 level when its u0 is read
        monkeypatch.setattr(phase_integral, "solve_u0_kappas", lambda m, alpha2: (1.0, -2.0, 1.0))
        for order in ("0", "1"):
            code = run(["phase", "-B", "2", "-l", "1", "-s", "0,1", "--order", order])
            captured = capsys.readouterr()
            assert code == 2
            assert "B=2 l=1 s=0  FAILED: no C = 0 base point" in captured.err
            assert "B=2 l=1 s=1  FAILED: no C = 0 base point" in captured.err
            assert "Traceback" not in captured.err and " A = " not in captured.out

    @pytest.mark.parametrize("command", [["phase"], ["compare", "--grid", "600"]])
    def test_u0_read_failure_fails_cleanly(self, capsys, monkeypatch, command):
        def no_base_point(m, alpha2):
            raise NoValidRootError("forced failure")

        monkeypatch.setattr(phase_integral, "solve_u0", no_base_point)
        code = run([*command, "-B", "2", "-l", "1", "-s", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert re.search(r"^B=2 l=1 s=0 .*FAILED: .*forced failure$", err, re.M)
        assert "Traceback" not in err

    def test_config_round_trip(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"B_values": [2.0], "l_values": [1], "s_values": [1], "j": 0})
        assert run(["phase", "--config", cfg]) == 0
        A = phase_integral.quantize(DimensionlessCase(B=2.0, l=1, s=1, j=0)).A
        assert f"B=2 l=1 s=1 j=0  A = {A:.10g}  " in capsys.readouterr().out
        assert run(["phase", "--config", cfg, "--order", "1", "-s", "0"]) == 0
        A = phase_integral.quantize(DimensionlessCase(B=2.0, l=1, s=0, j=1)).A
        assert f"B=2 l=1 s=0 j=1  A = {A:.10g}  " in capsys.readouterr().out


class TestCompareCommand:
    def test_config_file_and_outputs(self, capsys, tmp_path):
        cfg = {
            "B_values": [0.0],
            "l_values": [0],
            "s_values": [0],
            "j": 1,
            "z_min": 1e-4,
            "z_max": 20.0,
            "n": 600,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out_path = tmp_path / "cmp.csv"
        code = run(["compare", "--config", str(cfg_path), "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "A_N" in out and "A_PhI" in out
        with open(out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["A_N"]) == pytest.approx(2.338, abs=2e-3)
        sidecar = json.loads((tmp_path / "cmp.csv.json").read_text(encoding="utf-8"))
        assert sidecar["cases"][0]["j"] == 1

    def test_flags_override_config(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"B_values": [0.0], "l_values": [0], "s_values": [0], "n": 600}), encoding="utf-8")
        code = run(["compare", "--config", str(cfg_path), "--order", "0", "--zmin", "1e-4", "--zmax", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "j=0" in out

    def test_config_round_trip(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {"B_values": [2.0], "l_values": [1], "s_values": [1], "j": 0, "z_min": 1e-4, "z_max": 20.0, "n": 600},
        )

        def A_N(n, s):
            spectrum = numerov.solve(DimensionlessCase(B=2.0, l=1), Grid(1e-4, 20.0, n), s + 1)
            return f"{spectrum.eigenvalues[s]:.8g}"

        assert run(["compare", "--config", cfg]) == 0
        assert f"B=2 l=1 s=1 j=0  A_N = {A_N(600, 1)}  " in capsys.readouterr().out
        assert run(["compare", "--config", cfg, "-s", "0", "--grid", "700"]) == 0
        assert f"B=2 l=1 s=0 j=0  A_N = {A_N(700, 0)}  " in capsys.readouterr().out

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("[1, 2]", encoding="utf-8")
        assert run(["compare", "--config", str(cfg_path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exit_1(self, capsys):
        assert run(["compare", "--config", "/nonexistent/cfg.json"]) == 1


@pytest.mark.parametrize("command", ["numerov", "convergence", "phase", "compare"])
@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"B_values": 2}, "B_values must be a list of finite numbers"),
        ({"n": "600"}, "n must be an integer"),
        ({"grid": 600}, "unknown config key(s) grid"),
    ],
)
def test_malformed_config_is_configuration_error(capsys, tmp_path, command, cfg, message):
    assert run([command, "--config", write_config(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert f"configuration error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["phase", "compare"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_s_values_is_configuration_error(capsys, tmp_path, command, source):
    levels = ["-s", ""] if source == "flag" else ["--config", write_config(tmp_path, {"s_values": []})]
    assert run([command, "-B", "0", "-l", "0", *levels]) == 1
    captured = capsys.readouterr()
    assert "configuration error: s_values must not be empty" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["numerov", "convergence"])
def test_empty_s_values_is_configuration_error_without_s_flag(capsys, tmp_path, command):
    assert run([command, "-B", "0", "-l", "0", "--config", write_config(tmp_path, {"s_values": []})]) == 1
    captured = capsys.readouterr()
    assert "configuration error: s_values must not be empty" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, flag, cfg, message",
    [
        ("phase", ["--order", "2"], {"j": 2}, "j must be 0 or 1"),
        ("compare", ["--order", "2"], {"j": 2}, "j must be 0 or 1"),
        ("numerov", ["--grid", "600.5"], {"n": 600.5}, None),
        ("compare", ["--grid", "600.5"], {"n": 600.5}, None),
        ("numerov", ["-l", "1.5"], {"l_values": [1.5]}, None),
        ("phase", ["-l", "1.5"], {"l_values": [1.5]}, None),
    ],
    ids=["phase-j", "compare-j", "numerov-n", "compare-n", "numerov-l", "phase-l"],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_flag_and_config_key_fail_alike(capsys, tmp_path, command, flag, cfg, message, source):
    argv = flag if source == "flag" else ["--config", write_config(tmp_path, cfg)]
    assert run([command, "-B", "0", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("configuration error: ")
    if message is not None:
        assert line == f"configuration error: {message}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["numerov", "-B", "abc"], "argument -B: invalid"),
        (["phase", "--order", "one"], "argument --order: invalid"),
        (["rates", "--values", "1,x"], "argument --values: invalid"),
        (["compare", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
        (["numerov", "--levels"], "argument --levels: expected one argument"),
        (["no-such-command"], "argument command: invalid choice"),
        ([], "the following arguments are required: command"),
        # a subcommand takes only the run flags it reads
        (["phase", "--grid", "600"], "unrecognized arguments: --grid 600"),
        (["phase", "--zmin", "1e-4"], "unrecognized arguments: --zmin 1e-4"),
        (["phase", "--zmax", "20"], "unrecognized arguments: --zmax 20"),
        (["rates", "--values", "1,2,3", "--grid", "600"], "unrecognized arguments: --grid 600"),
        # numerov runs one mode; the mesh sweep is `convergence`
        (["numerov", "--grids", "8,16,32"], "unrecognized arguments: --grids 8,16,32"),
        (["numerov", "--levels", "2", "--tracked"], "argument --tracked: not allowed with argument --levels"),
        (["numerov", "--levels", "1", "--tracked"], "argument --tracked: not allowed with argument --levels"),
        # a flag has one spelling
        (["numerov", "--lev", "2"], "unrecognized arguments: --lev 2"),
        # rates rates only the values it is given
        (["rates", "-B", "0", "-l", "0"], "the following arguments are required: --values"),
        (["rates", "--values", "1,2,3", "-B", "0"], "unrecognized arguments: -B 0"),
        (["rates", "--values", "1,2,3", "--csv", "table.csv"], "unrecognized arguments: --csv table.csv"),
        (["rates", "--values", "1,2,3", "--config", "run.json"], "unrecognized arguments: --config run.json"),
        (["rates", "--values", "1,2,3", "--zmin", "7", "--zmax", "3"], "unrecognized arguments: --zmin 7 --zmax 3"),
        (["convergence", "--grid", "600"], "unrecognized arguments: --grid 600"),
    ],
)
def test_usage_error_is_configuration_error(capsys, argv, message):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command", [["numerov", "-B", "0", "-l", "0"], ["rates", "--values", "1,2,3"], ["convergence"]], ids=lambda c: c[0]
)
def test_out_is_rejected_where_nothing_is_written(capsys, tmp_path, command):
    out_path = tmp_path / "n.csv"
    assert run([*command, "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert "configuration error: unrecognized arguments: --out" in captured.err
    assert captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [["phase", "-B", "0", "-l", "0"], ["compare", "-B", "0", "-l", "0", "-s", "0", "--grid", "200", "--zmax", "20"]],
    ids=["phase", "compare"],
)
def test_out_that_cannot_be_opened_fails_before_the_first_case(capsys, tmp_path, argv):
    assert run([*argv, "--out", str(tmp_path / "missing" / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("configuration error: [Errno 2] No such file or directory")


def test_compare_keeps_an_existing_out_when_out_json_cannot_be_opened(capsys, tmp_path):
    out = tmp_path / "table.csv"
    out.write_text("kept\n", encoding="utf-8")
    (tmp_path / "table.csv.json").mkdir()
    assert run(["compare", "-B", "0", "-l", "0", "-s", "0", "--grid", "200", "--zmax", "20", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("configuration error: ")
    assert out.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("command", [[], ["numerov"], ["phase"], ["compare"], ["rates"], ["convergence"]])
def test_help_exits_0(capsys, command):
    assert run([*command, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: cornellbound") and captured.err == ""


def accepted_flags() -> list:
    """(subcommand, flag) for every optional flag that each subcommand of the parser accepts, -h excepted."""
    (sub,) = [action for action in cli.build_parser()._actions if action.dest == "command"]
    return [
        pytest.param(name, action.option_strings[0], id=f"{name} {action.option_strings[0]}")
        for name, parser in sub.choices.items()
        for action in parser._actions
        if action.dest != "help"
    ]


#: per subcommand, a cheap run, and per flag the value that moves it off its default in
#: that run (a config object for --config, None for a switch; --out writes a file)
FLAG_RUNS = {
    "numerov": (
        ["--grid", "200", "--zmax", "20"],
        {"--config": {"l_values": [1]}, "-B": "2", "-l": "1", "--grid": "300", "--zmin": "1e-2",
         "--zmax": "15", "--levels": "2", "--tracked": None},
    ),
    "convergence": (
        ["--grids", "8,16,32"],
        {"--config": {"B_values": [2.0]}, "-B": "2", "-l": "1", "--zmin": "0.1", "--zmax": "15",
         "--grids": "8,16,32,64", "--ref": "2.338"},
    ),
    "phase": (
        [],
        {"--config": {"j": 0}, "-B": "2", "-l": "1", "-s": "1", "--order": "0", "--out": "OUT"},
    ),
    "compare": (
        ["-B", "0", "-l", "0", "-s", "0", "--grid", "200", "--zmax", "20"],
        {"--config": {"j": 0}, "-B": "2", "-l": "1", "--grid": "300", "--zmin": "1e-2",
         "--zmax": "15", "-s": "1", "--order": "0", "--out": "OUT"},
    ),
    "rates": (["--values", "1.3,1.075,1.01875"], {"--values": "1.3,1.075,1.02", "--ref": "1.0"}),
}


@pytest.mark.parametrize("command, flag", accepted_flags())
def test_every_accepted_flag_changes_the_run(capsys, tmp_path, command, flag):
    base, values = FLAG_RUNS[command]
    value = values[flag]
    out = tmp_path / "out"
    if flag == "--config":
        value = write_config(tmp_path, value)
    elif flag == "--out":
        value = str(out)

    def outcome(argv):
        code = run([command, *argv])
        written = out.read_bytes() if out.exists() else None
        return code, capsys.readouterr().out, written

    before = outcome(base)
    after = outcome([*base, flag] + ([] if value is None else [value]))
    assert before[0] == 0 and after[0] == 0
    assert after != before


class TestRatesCommand:
    """The N_k / M_k rate lines: `rates` prints them for its --values, `convergence` for each table it makes."""

    def test_explicit_values(self, capsys):
        seq = [1.0 + 0.3 * 0.25**k for k in range(5)]
        code = run(["rates", "--values", ",".join(f"{v!r}" for v in seq)])
        out = capsys.readouterr().out
        assert code == 0
        assert "N_k = 2.00, 2.00, 2.00" in out

    def test_with_reference(self, capsys):
        seq = [3.0 + 0.5 / 2**k for k in range(4)]
        code = run(["rates", "--values", ",".join(str(v) for v in seq), "--ref", "3.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "M_k = 1.00, 1.00, 1.00" in out

    def test_computed_from_case(self, capsys):
        code = run(["convergence", "-B", "0", "-l", "0", "--grids", "32,64,128,256"])
        out = capsys.readouterr().out
        assert code == 0
        assert "B=0 l=0  N_k" in out

    def test_config_round_trip(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"B_values": [2.0], "l_values": [1], "z_max": 15.0})
        ns = (8, 16, 32, 64)

        def rates_line(B, l, z_max):
            nk = report.rate_N(sweep_values(B, l, ns, z_max))
            return f"B={B:g} l={l}  N_k = " + ", ".join(f"{v:.2f}" for v in nk) + "\n"

        assert run(["convergence", "--config", cfg, "--grids", "8,16,32,64"]) == 0
        assert rates_line(2.0, 1, 15.0) in capsys.readouterr().out
        assert run(["convergence", "--config", cfg, "--grids", "8,16,32,64", "-B", "0", "--zmax", "20"]) == 0
        assert rates_line(0.0, 1, 20.0) in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, label",
        [(["rates", "--values", "1,1,1"], "values"), (["convergence", "--grids", "8,8,8"], "B=0 l=0")],
    )
    def test_degenerate_sequence_fails_per_sequence(self, capsys, argv, label):
        assert run(argv) == 2
        assert f"{label}  FAILED: consecutive values coincide at k=2" in capsys.readouterr().err

    def test_failed_case_does_not_stop_the_others(self, capsys, table_fails_at_B2):
        code = run(["convergence", "-B", "2,0", "-l", "0", "--grids", "32,64,128"])
        captured = capsys.readouterr()
        assert code == 2
        assert "B=2 l=0  FAILED: forced failure" in captured.err
        assert "B=0 l=0  N_k = " in captured.out

    @pytest.mark.parametrize(
        "grids, message", [("8,16", "at least 3 grids"), ("4,8,16", "need at least 8 subintervals")]
    )
    def test_bad_grids_are_configuration_errors(self, capsys, grids, message):
        assert run(["convergence", "-B", "0", "-l", "0", "--grids", grids]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err
        assert message in captured.err

    def test_missing_inputs_exit_1(self, capsys):
        assert run(["rates"]) == 1
        assert "the following arguments are required: --values" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--values", "1,2,nan"], ["--values", "1.3,1.075,1.01875", "--ref", "inf"]])
    def test_non_finite_input_exit_1(self, capsys, argv):
        assert run(["rates", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error: --values and --ref must be finite" in captured.err

    @pytest.mark.parametrize("argv", [[], ["--csv", "partial.csv"]], ids=["no-input", "partial-csv"])
    def test_input_errors_print_nothing_on_stdout(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "partial.csv").write_text("B,l\n0,0\n", encoding="utf-8")
        assert run(["rates", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("configuration error: ")


class TestFailureTaxonomy:
    def test_non_package_error_escapes_phase(self, monkeypatch):
        def bug(B, l, j, s_values):
            raise TypeError("a bug, not a failed case")

        monkeypatch.setattr(phase_integral, "quantize_ladder", bug)
        with pytest.raises(TypeError, match="a bug"):
            run(["phase", "-B", "0", "-l", "0", "-s", "0"])

    def test_non_package_error_escapes_compare_case(self, monkeypatch):
        def bug(B, l, j, s_values):
            raise TypeError("a bug, not a failed case")

        monkeypatch.setattr(phase_integral, "quantize_ladder", bug)
        with pytest.raises(TypeError, match="a bug"):
            report.compare_case(0.0, 0, 0, 1, 2.338)

    def test_package_error_is_recorded_by_compare_case(self, monkeypatch):
        def fail(B, l, j, s_values):
            return [BracketError("forced failure") for _ in s_values]

        monkeypatch.setattr(phase_integral, "quantize_ladder", fail)
        row = report.compare_case(0.0, 0, 0, 1, 2.338)
        assert row.error == "BracketError: forced failure"


class TestOneParserPerProcess:
    # convergence twice: its --grids default is a parser default that every parse shares
    RUNS = [
        ["convergence", "-B", "0", "-l", "0"],
        ["phase", "-B", "2", "-l", "1", "-s", "2,0,2", "--out", "{out}/levels.json"],
        ["compare", "-B", "0,2", "-l", "0", "-s", "0,1", "--grid", "600", "--zmax", "20", "--out", "{out}/table.csv"],
        ["convergence", "-B", "0", "-l", "0"],
    ]

    def test_main_parses_with_one_cached_parser(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_runs_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        one, fresh = tmp_path / "one", tmp_path / "fresh"
        one.mkdir()
        fresh.mkdir()
        in_process = []
        for argv in self.RUNS:
            code = cli.main([a.format(out=one) for a in argv])
            captured = capsys.readouterr()
            out, err = (text.replace(str(one), "OUT") for text in (captured.out, captured.err))
            in_process.append((code, out, err))
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        separate = []
        for argv in self.RUNS[:3]:
            proc = subprocess.run(
                [sys.executable, "-m", "cornellbound.cli", *[a.format(out=fresh) for a in argv]],
                env=env, capture_output=True, text=True, timeout=120,
            )
            out, err = (text.replace(str(fresh), "OUT") for text in (proc.stdout, proc.stderr))
            separate.append((proc.returncode, out, err))
        assert in_process == separate + separate[:1]
        assert in_process[0][0] == 0 and "N_k" in in_process[0][1]
        for name in ("levels.json", "table.csv", "table.csv.json"):
            assert (one / name).read_bytes() == (fresh / name).read_bytes(), name


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(DomainError, match="required: command"):
            cli.build_parser().parse_args([])

    def test_list_parsing(self):
        args = cli.build_parser().parse_args(["numerov", "-B", "0,2.5,10", "-l", "0,2"])
        assert args.B_values == [0.0, 2.5, 10.0]
        assert args.l_values == [0, 2]
