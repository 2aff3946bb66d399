"""End-to-end CLI checks: subcommands, config handling, exit codes, outputs."""

import csv
import json

import pytest

from cornellbound import cli, numerov, phase_integral, report
from cornellbound.errors import BracketError, NonConvergenceError
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
        code = run(["numerov", "-B", "0", "-l", "0", "--grids", "64,128,256"])
        out = capsys.readouterr().out
        assert code == 0
        assert "N=64" in out and "N=256" in out

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
        assert run(["numerov", "--config", cfg, "--grids", "8,16,32"]) == 0
        cells = "  ".join(f"N={n}: {a:.6g}" for n, a in zip((8, 16, 32), sweep_values(2.0, 1, (8, 16, 32), 15.0)))
        assert f"B=2 l=1  {cells}\n" in capsys.readouterr().out
        assert run(["numerov", "--config", cfg, "--grids", "8,16,32", "-l", "0", "--zmax", "20"]) == 0
        cells = "  ".join(f"N={n}: {a:.6g}" for n, a in zip((8, 16, 32), sweep_values(2.0, 0, (8, 16, 32), 20.0)))
        assert f"B=2 l=0  {cells}\n" in capsys.readouterr().out

    def test_convergence_sweep_reports_failures_per_case(self, capsys, table_fails_at_B2):
        code = run(["numerov", "-B", "0,2", "-l", "0", "--grids", "8,16,32"])
        captured = capsys.readouterr()
        assert code == 2
        assert "B=0 l=0  N=8:" in captured.out
        assert "B=2 l=0  FAILED: forced failure" in captured.err

    @pytest.mark.parametrize("grids", [[], ["--grids", "8,16,32"]])
    def test_invalid_value_is_configuration_error(self, capsys, grids):
        assert run(["numerov", "-B", "-1", *grids]) == 1
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
        def boom(case):
            raise BracketError("forced failure")

        monkeypatch.setattr(phase_integral, "quantize", boom)
        code = run(["phase", "-B", "0", "-l", "0", "-s", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "FAILED" in err


    def test_extreme_coulomb_fails_cleanly(self, capsys):
        code = run(["phase", "-B", "1e6", "-l", "2", "-s", "0", "--order", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "B=1e+06 l=2 s=0  FAILED: no ordering" in err

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


@pytest.mark.parametrize("command", ["numerov", "phase", "compare", "rates"])
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


@pytest.mark.parametrize("command", ["numerov", "rates"])
def test_out_is_rejected_where_nothing_is_written(capsys, tmp_path, command):
    out_path = tmp_path / "n.csv"
    with pytest.raises(SystemExit) as exc:
        run([command, "-B", "0", "-l", "0", "--grid", "200", "--out", str(out_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not out_path.exists()


class TestRatesCommand:
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
        code = run(["rates", "-B", "0", "-l", "0", "--grids", "32,64,128,256"])
        out = capsys.readouterr().out
        assert code == 0
        assert "B=0 l=0  N_k" in out

    def test_config_round_trip(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"B_values": [2.0], "l_values": [1], "z_max": 15.0})
        ns = (8, 16, 32, 64)

        def rates_line(B, l, z_max):
            nk = report.rate_N(sweep_values(B, l, ns, z_max))
            return f"B={B:g} l={l}  N_k = " + ", ".join(f"{v:.2f}" for v in nk) + "\n"

        assert run(["rates", "--config", cfg, "--grids", "8,16,32,64"]) == 0
        assert rates_line(2.0, 1, 15.0) in capsys.readouterr().out
        assert run(["rates", "--config", cfg, "--grids", "8,16,32,64", "-B", "0", "--zmax", "20"]) == 0
        assert rates_line(0.0, 1, 20.0) in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, label",
        [(["--values", "1,1,1"], "values"), (["-B", "0", "-l", "0", "--grids", "8,8,8"], "B=0 l=0")],
    )
    def test_degenerate_sequence_fails_per_sequence(self, capsys, argv, label):
        assert run(["rates", *argv]) == 2
        assert f"{label}  FAILED: consecutive values coincide at k=2" in capsys.readouterr().err

    def test_failed_case_does_not_stop_the_others(self, capsys, table_fails_at_B2):
        code = run(["rates", "-B", "2,0", "-l", "0", "--grids", "32,64,128"])
        captured = capsys.readouterr()
        assert code == 2
        assert "B=2 l=0  FAILED: forced failure" in captured.err
        assert "B=0 l=0  N_k = " in captured.out

    def test_missing_inputs_exit_1(self, capsys):
        assert run(["rates"]) == 1
        assert "need --values" in capsys.readouterr().err

    def test_empty_B_and_l_lists_are_accepted(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"B_values": [], "l_values": []})
        assert run(["rates", "--config", cfg, "--values", "1.3,1.075,1.01875"]) == 0
        assert "values  N_k = 2.00" in capsys.readouterr().out

    def test_csv_without_comparison_columns_exit_1(self, capsys, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("B,l\n0,0\n", encoding="utf-8")
        assert run(["rates", "--csv", str(path)]) == 1
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert "s, j, A_N, A_PhI, delta_A, residual, C_abs" in captured.err

    def test_csv_input(self, capsys, tmp_path):
        from cornellbound.report import ComparisonRow, write_csv

        rows = [
            ComparisonRow(B=0.0, l=0, s=s, j=1, A_N=1.0 + 0.3 * 0.25**s, A_PhI=0.0, delta_A=0.0, residual=0.0, C_abs=0.0)
            for s in range(5)
        ]
        path = tmp_path / "seq.csv"
        write_csv(rows, path)
        code = run(["rates", "--csv", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2.00" in out


class TestFailureTaxonomy:
    def test_non_package_error_escapes_phase(self, monkeypatch):
        def bug(case):
            raise TypeError("a bug, not a failed case")

        monkeypatch.setattr(phase_integral, "quantize", bug)
        with pytest.raises(TypeError, match="a bug"):
            run(["phase", "-B", "0", "-l", "0", "-s", "0"])

    def test_non_package_error_escapes_compare_case(self, monkeypatch):
        def bug(case):
            raise TypeError("a bug, not a failed case")

        monkeypatch.setattr(phase_integral, "quantize", bug)
        with pytest.raises(TypeError, match="a bug"):
            report.compare_case(0.0, 0, 0, 1, 2.338)

    def test_package_error_is_recorded_by_compare_case(self, monkeypatch):
        def fail(case):
            raise BracketError("forced failure")

        monkeypatch.setattr(phase_integral, "quantize", fail)
        row = report.compare_case(0.0, 0, 0, 1, 2.338)
        assert row.error == "BracketError: forced failure"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_list_parsing(self):
        args = cli.build_parser().parse_args(["numerov", "-B", "0,2.5,10", "-l", "0,2"])
        assert args.B == [0.0, 2.5, 10.0]
        assert args.l == [0, 2]
