"""End-to-end CLI checks: subcommands, config handling, exit codes, outputs."""

import csv
import json

import pytest

from cornellbound import cli, phase_integral
from cornellbound.errors import BracketError


def run(argv):
    return cli.main(argv)


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

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("[1, 2]", encoding="utf-8")
        assert run(["compare", "--config", str(cfg_path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exit_1(self, capsys):
        assert run(["compare", "--config", "/nonexistent/cfg.json"]) == 1


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

    def test_missing_inputs_exit_1(self, capsys):
        assert run(["rates"]) == 1
        assert "need --values" in capsys.readouterr().err

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


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_list_parsing(self):
        args = cli.build_parser().parse_args(["numerov", "-B", "0,2.5,10", "-l", "0,2"])
        assert args.B == [0.0, 2.5, 10.0]
        assert args.l == [0, 2]
