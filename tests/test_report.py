"""Comparison sweep, convergence-rate diagnostics, CSV/JSON round trips."""

import json
import math
import re

import pytest

from cornellbound import numerov, phase_integral
from cornellbound.errors import BracketError, DegenerateDifferenceError, DomainError, NoValidRootError, SingularPointError
from cornellbound.model import DimensionlessCase
from cornellbound.numerov import Grid, convergence_table
from cornellbound.report import (
    B_DEFINITION,
    CSV_FIELDS,
    ComparisonRow,
    RunConfig,
    compare_case,
    compare_sweep,
    rate_M,
    rate_N,
    read_csv,
    rows_to_json,
    write_csv,
    write_json,
)

REF_GRIDS = [Grid(1e-5, 20.0, n) for n in (8, 16, 32, 64, 128, 256, 512)]

# published rate sets for the reference mesh sweep, two decimals
PUBLISHED_RATES = {
    (0.0, 0): [5.38, 6.91, 3.02, 3.87, 3.97],
    (2.0, 0): [1.41, 1.31, 1.48, 1.71, 1.85],
    (2.0, 2): [4.17, 3.61, 4.01, 4.01, 4.00],
    (10.0, 2): [-0.76, 5.35, 4.55, 4.01, 3.99],
}


class TestRateN:
    def test_geometric_sequence(self):
        # A_k = L + c r^k gives N_k = log2(1/r) exactly
        for r, expected in ((0.25, 2.0), (1 / 16, 4.0)):
            seq = [1.0 + 0.3 * r**k for k in range(6)]
            assert rate_N(seq) == pytest.approx([expected] * 4, rel=1e-10)

    def test_needs_three_values(self):
        with pytest.raises(DomainError):
            rate_N([1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, bad):
        with pytest.raises(DomainError, match="finite"):
            rate_N([1.0, 2.0, bad])

    def test_degenerate_differences(self):
        with pytest.raises(DegenerateDifferenceError):
            rate_N([1.0, 1.0, 2.0])
        with pytest.raises(DegenerateDifferenceError):
            rate_N([1.0, 2.0, 2.0])

    @pytest.mark.parametrize("B,l", sorted(PUBLISHED_RATES))
    def test_published_sets_from_reproduced_sequences(self, B, l):
        table = convergence_table(DimensionlessCase(B=B, l=l), REF_GRIDS)
        rates = rate_N([a for _, a in table])
        assert rates == pytest.approx(PUBLISHED_RATES[(B, l)], abs=0.006)


class TestRateM:
    def test_halving_error(self):
        ref = 3.0
        seq = [ref + 0.5 / 2**k for k in range(5)]
        assert rate_M(seq, ref) == pytest.approx([1.0] * 4, rel=1e-12)

    def test_needs_two_values(self):
        with pytest.raises(DomainError):
            rate_M([1.0], 0.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateDifferenceError):
            rate_M([1.0, 2.0], 2.0)

    @pytest.mark.parametrize("values, ref", [([1.0, math.nan], 0.0), ([1.0, 2.0], math.inf)])
    def test_non_finite_entry(self, values, ref):
        with pytest.raises(DomainError, match="finite"):
            rate_M(values, ref)


class TestRunConfig:
    def test_defaults_and_grid(self):
        cfg = RunConfig()
        g = cfg.grid()
        assert g.n == cfg.n and g.z_min == cfg.z_min

    def test_validation(self):
        with pytest.raises(DomainError):
            RunConfig(B_values=[-1.0])
        with pytest.raises(DomainError):
            RunConfig(l_values=[-1])
        with pytest.raises(DomainError):
            RunConfig(j=3)

    @pytest.mark.parametrize(
        "fields",
        [
            {"B_values": 2.0},
            {"B_values": ["2"]},
            {"B_values": [float("nan")]},
            {"l_values": [1.0]},
            {"s_values": [True]},
            {"j": "1"},
            {"n": "600"},
            {"n": 600.0},
            {"z_min": None},
            {"z_max": float("inf")},
        ],
    )
    def test_wrong_types_are_domain_errors(self, fields):
        with pytest.raises(DomainError, match=next(iter(fields))):
            RunConfig(**fields)

    def test_invalid_grid_is_rejected_up_front(self):
        with pytest.raises(DomainError, match="z_max must exceed z_min"):
            RunConfig(z_min=1.0, z_max=0.5)
        with pytest.raises(DomainError, match="at least 8 subintervals"):
            RunConfig(n=4)


class TestCompare:
    def test_compare_case_populates_row(self):
        row = compare_case(0.0, 0, 0, 0, 2.33811)
        assert row.error is None
        assert row.A_PhI == pytest.approx(2.34966, abs=1e-5)
        assert row.delta_A == pytest.approx(abs(row.A_N - row.A_PhI), rel=1e-14)
        assert row.residual <= 1e-10 and row.C_abs <= 1e-8
        assert row.u0 is not None

    def test_sweep_structure_and_accuracy(self):
        cfg = RunConfig(
            B_values=[2.0, 0.0],
            l_values=[1],
            s_values=[0, 1],
            j=1,
            z_min=1e-4,
            z_max=30.0,
            n=1200,
        )
        rows = compare_sweep(cfg)
        keys = [(r.B, r.l, r.s, r.j) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 4
        for r in rows:
            assert r.error is None
            assert r.delta_A < 5e-3

    def test_sweep_quantizes_one_ladder_per_pair(self, monkeypatch):
        real, calls = phase_integral.quantize_ladder, []

        def spy(B, l, j, s_values):
            calls.append((B, l, j, list(s_values)))
            return real(B, l, j, s_values)

        monkeypatch.setattr(phase_integral, "quantize_ladder", spy)
        cfg = RunConfig(B_values=[2.0, 0.0], l_values=[1], s_values=[2, 0, 2], z_min=1e-4, z_max=30.0, n=1200)
        rows = compare_sweep(cfg)
        assert calls == [(0.0, 1, 1, [0, 2, 2]), (2.0, 1, 1, [0, 2, 2])]
        assert [(r.B, r.s) for r in rows] == [(0.0, 0), (0.0, 2), (0.0, 2), (2.0, 0), (2.0, 2), (2.0, 2)]
        for r in rows:
            alone = compare_case(r.B, r.l, r.s, r.j, r.A_N)
            assert (r.A_PhI, r.delta_A, r.residual, r.C_abs, r.u0) == (
                alone.A_PhI, alone.delta_A, alone.residual, alone.C_abs, alone.u0
            )

    def test_sweep_sorts_the_rows_of_repeated_values(self):
        # the loops emit a repeated B or l value's block of rows once per repeat, out of (B, l, s) order
        cfg = RunConfig(B_values=[2.0, 0.0, 2.0], l_values=[1, 0, 1], s_values=[1, 0], z_max=20.0, n=200)
        keys = [(r.B, r.l, r.s) for r in compare_sweep(cfg)]
        assert len(keys) == 18 and keys == sorted(keys)

    def test_sweep_records_a_failed_level_and_keeps_the_rest(self, monkeypatch):
        real = phase_integral.quantize_ladder

        def fail_s1(B, l, j, s_values):
            levels = real(B, l, j, s_values)
            return [BracketError("forced failure") if s == 1 else res for s, res in zip(s_values, levels)]

        monkeypatch.setattr(phase_integral, "quantize_ladder", fail_s1)
        rows = compare_sweep(RunConfig(B_values=[0.0], l_values=[0], s_values=[0, 1, 2], z_max=20.0, n=600))
        assert [r.error for r in rows] == [None, "BracketError: forced failure", None]
        assert math.isnan(rows[1].A_PhI) and not math.isnan(rows[1].A_N)
        assert rows[0].delta_A < 2e-2 and rows[2].delta_A < 2e-2

    def test_sweep_records_a_failed_u0_read(self, monkeypatch):
        # u0 is worked out when the row reads it; its failure is that row's error
        def no_base_point(m, alpha2):
            raise NoValidRootError("forced failure")

        monkeypatch.setattr(phase_integral, "solve_u0", no_base_point)
        rows = compare_sweep(RunConfig(B_values=[0.0], l_values=[0], s_values=[0, 1], z_max=20.0, n=600))
        assert [r.error for r in rows] == ["NoValidRootError: forced failure"] * 2
        assert all(math.isnan(r.A_PhI) and r.u0 is None and not math.isnan(r.A_N) for r in rows)

    def test_sweep_rejects_empty_s_values(self):
        with pytest.raises(DomainError, match="s_values must not be empty"):
            compare_sweep(RunConfig(B_values=[0.0], l_values=[0], s_values=[], n=100))

    def test_sweep_deterministic(self):
        cfg = RunConfig(B_values=[0.0], l_values=[0], s_values=[0], n=600, z_max=20.0, z_min=1e-4)
        r1 = compare_sweep(cfg)[0]
        r2 = compare_sweep(cfg)[0]
        assert (r1.A_N, r1.A_PhI) == (r2.A_N, r2.A_PhI)

    def test_sweep_records_numerov_domain_error(self):
        # s = 7 needs 8 levels, but N = 8 leaves 7 interior nodes
        cfg = RunConfig(B_values=[0.0], l_values=[0], s_values=[0, 7], n=8, z_min=1e-4, z_max=20.0)
        rows = compare_sweep(cfg)
        assert [r.s for r in rows] == [0, 7]
        for r in rows:
            assert r.error.startswith("DomainError: count must be between 1 and 7")
            assert math.isnan(r.A_N) and math.isnan(r.A_PhI)

    def test_sweep_records_any_package_error_of_the_numerov_solve(self, monkeypatch):
        # any CornellboundError from the solve becomes that (B, l)'s row errors; any other error escapes
        real = numerov.solve

        def failing(error):
            def solve(case, grid, count):
                if case.B == 2.0:
                    raise error
                return real(case, grid, count)

            return solve

        cfg = RunConfig(B_values=[0.0, 2.0], l_values=[0], s_values=[0, 1], z_max=20.0, n=600)
        monkeypatch.setattr(numerov, "solve", failing(SingularPointError("forced failure")))
        rows = compare_sweep(cfg)
        assert [(r.B, r.error) for r in rows] == [(0.0, None)] * 2 + [(2.0, "SingularPointError: forced failure")] * 2
        assert all(math.isnan(r.A_N) and math.isnan(r.A_PhI) for r in rows[2:])
        monkeypatch.setattr(numerov, "solve", failing(TypeError("a bug, not a failed case")))
        with pytest.raises(TypeError, match="a bug"):
            compare_sweep(cfg)


class TestSerialization:
    def _rows(self):
        return [
            ComparisonRow(
                B=2.0, l=1, s=0, j=1, A_N=2.23816, A_PhI=2.238189, delta_A=2.9e-5,
                residual=1e-13, C_abs=3e-15, u0=complex(1.1, 0.4),
            ),
            ComparisonRow(
                B=0.0, l=0, s=0, j=0, A_N=2.33811, A_PhI=2.34966, delta_A=1.155e-2,
                residual=2e-14, C_abs=1e-15,
            ),
        ]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows = self._rows()
        write_csv(rows, path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header.split(",") == CSV_FIELDS
        back = read_csv(path)
        assert len(back) == 2
        for a, b in zip(rows, back):
            assert (a.B, a.l, a.s, a.j) == (b.B, b.l, b.s, b.j)
            assert b.A_N == pytest.approx(a.A_N, rel=1e-11)
            assert b.A_PhI == pytest.approx(a.A_PhI, rel=1e-11)
            assert b.delta_A == pytest.approx(a.delta_A, rel=1e-11)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("B,l,s\n0,0,0\n", "column(s) j, A_N, A_PhI, delta_A, residual, C_abs"),
            ("", "column(s) B, l, s, j, A_N"),
            (",".join(CSV_FIELDS) + "\n0,0,0,1,x,0,0,0,0\n", "line 2"),
            (",".join(CSV_FIELDS) + "\n0,0,0,1\n", "line 2"),
        ],
        ids=["missing-columns", "empty-file", "bad-value", "short-row"],
    )
    def test_read_csv_rejects_malformed_tables(self, tmp_path, text, message):
        path = tmp_path / "rows.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DomainError, match=re.escape(message)):
            read_csv(path)

    def test_json_output(self, tmp_path):
        path = tmp_path / "rows.json"
        write_json(self._rows(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["B_definition"] == B_DEFINITION
        assert len(payload["cases"]) == 2
        assert payload["cases"][0]["u0"] == {"re": 1.1, "im": 0.4}
        assert payload["cases"][1]["error"] is None

    def test_json_text_is_pinned(self, tmp_path):
        # one converged and one failed row of a (B, l) = (2, 1) sweep over s = 0, 1
        rows = [
            ComparisonRow(
                B=2.0, l=1, s=0, j=1, A_N=2.23816, A_PhI=2.238189, delta_A=2.9e-5,
                residual=1e-13, C_abs=3e-15, u0=complex(1.1, 0.4),
            ),
            ComparisonRow(B=2.0, l=1, s=1, j=1, A_N=4.01527, error="BracketError: forced failure"),
        ]
        path = tmp_path / "rows.json"
        write_json(rows, path)
        assert path.read_bytes().decode("utf-8") == JSON_TEXT

    def test_rows_to_json_keeps_errors(self):
        rows = [ComparisonRow(B=1.0, l=0, s=0, j=1, error="BracketError: no bracket")]
        out = rows_to_json(rows)
        assert out[0]["error"].startswith("BracketError")
        assert math.isnan(out[0]["A_PhI"])


JSON_TEXT = """{
  "B_definition": "B = (4*mass^2 / (hbar^4 * a))^(1/3) * b  (independent of the energy)",
  "cases": [
    {
      "B": 2.0,
      "l": 1,
      "s": 0,
      "j": 1,
      "A_N": 2.23816,
      "A_PhI": 2.238189,
      "delta_A": 2.9e-05,
      "residual": 1e-13,
      "C_abs": 3e-15,
      "error": null,
      "u0": {
        "re": 1.1,
        "im": 0.4
      }
    },
    {
      "B": 2.0,
      "l": 1,
      "s": 1,
      "j": 1,
      "A_N": 4.01527,
      "A_PhI": NaN,
      "delta_A": NaN,
      "residual": NaN,
      "C_abs": NaN,
      "error": "BracketError: forced failure"
    }
  ]
}
"""
