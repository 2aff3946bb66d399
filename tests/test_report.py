"""Comparison sweep, convergence-rate diagnostics, CSV/JSON round trips."""

import json
import math
import re

import pytest

from cornellbound.errors import DegenerateDifferenceError, DomainError
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
        write_json(self._rows(), path, extra={"note": "x"})
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["B_definition"] == B_DEFINITION
        assert payload["note"] == "x"
        assert len(payload["cases"]) == 2
        assert payload["cases"][0]["u0"] == {"re": 1.1, "im": 0.4}
        assert payload["cases"][1]["error"] is None

    def test_rows_to_json_keeps_errors(self):
        rows = [ComparisonRow(B=1.0, l=0, s=0, j=1, error="BracketError: no bracket")]
        out = rows_to_json(rows)
        assert out[0]["error"].startswith("BracketError")
        assert math.isnan(out[0]["A_PhI"])
