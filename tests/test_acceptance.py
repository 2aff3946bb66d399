"""End-to-end acceptance suite.

Each test implements one numbered criterion and prints a single
"criterion k ... PASS/FAIL" line.  The lines are emitted with capture
suspended (capsys.disabled) so they stay visible in the live pytest output.
"""

import math

import numpy as np
import pytest

import oracles
from cornellbound.model import DimensionlessCase
from cornellbound.numerov import Grid, solve, tracked_level
from cornellbound.phase_integral import L1_closed, OrderingError, quantize, turning_points_from_x2
from cornellbound.report import rate_N
from cornellbound.errors import DegenerateDifferenceError
from cornellbound.special import ellip_E, ellip_K, jacobi_complex

REF_NS = (8, 16, 32, 64, 128, 256, 512)
REF_GRIDS = {n: Grid(1e-5, 20.0, n) for n in REF_NS}

# published Numerov mesh-refinement values, N = 8 ... 512
TABLE1 = {
    (0.0, 0): [2.8858, 2.3509, 2.3380, 2.3381, 2.3381, 2.3381, 2.3381],
    (0.0, 1): [3.2036, 3.2472, 3.3499, 3.3599, 3.3611, 3.3612, 3.3613],
    (0.0, 2): [3.8374, 4.2366, 4.2471, 4.2481, 4.2482, 4.2482, 4.2482],
    (2.0, 0): [2.0887, 0.90968, 0.46478, 0.28595, 0.22185, 0.20221, 0.19676],
    (2.0, 1): [2.4071, 1.9879, 2.1960, 2.2326, 2.2375, 2.2381, 2.2381],
    (2.0, 2): [3.0427, 3.4096, 3.4299, 3.4316, 3.4317, 3.4317, 3.43174],
    (5.0, 0): [0.89188, -1.3705, 1.1344, 0.72893, 0.53979, 0.46719, 0.44397],
    (5.0, 1): [1.2107, -0.17807, -0.13662, 0.042615, 0.075806, 0.080476, 0.081094],
    (5.0, 2): [1.8479, 1.8685, 2.0218, 2.0266, 2.0269, 2.0269, 2.0269],
    (10.0, 0): [-1.1047, 0.045198, 1.0639, 0.30229, -0.10734, -0.29961, -0.37306],
    (10.0, 1): [-0.78537, 0.37281, -0.94293, -0.82315, -0.63611, -0.60284, -0.59819],
    (10.0, 2): [-0.14698, 1.0765, -0.99667, -0.94581, -0.94363, -0.94350, -0.94349],
}

SMOOTH_ROWS = [(0.0, 0), (0.0, 1), (0.0, 2), (2.0, 2)]
ROUGH_ROWS = [(5.0, 0), (10.0, 0), (10.0, 1)]

# published method comparison, s = 0: (B, l) -> (A_N, A_PhI leading order)
TABLE2 = {
    (0.0, 0): (2.33811, 2.34966),
    (0.0, 1): (3.36125, 3.36536),
    (0.0, 2): (4.24818, 4.25046),
    (2.0, 0): (0.194971, 0.151574),
    (2.0, 1): (2.23816, 2.23556),
    (2.0, 2): (3.43174, 3.4322),
    (5.0, 1): (0.0811837, 0.0670229),
    (5.0, 2): (2.02688, 2.02359),
    (10.0, 2): (-0.943488, -0.952484),
}


def announce(capsys, num: int, label: str, ok: bool, extra: list[str] = ()) -> None:
    with capsys.disabled():
        print(f"\ncriterion {num}: {label} ... {'PASS' if ok else 'FAIL'}")
        for line in extra:
            print(f"  {line}")


def sig_digits_match(value: float, printed: float, digits: int) -> bool:
    """Half-unit agreement in the `digits`-th significant digit of `printed`."""
    if printed == 0.0:
        return abs(value) < 10.0 ** (1 - digits)
    mag = math.floor(math.log10(abs(printed)))
    return abs(value - printed) <= 0.5 * 10.0 ** (mag - digits + 1)


@pytest.fixture(scope="module")
def mesh_sweeps():
    """Full reference mesh sweeps for the rows criteria 2 and 8 need."""
    rows = set(SMOOTH_ROWS) | set(ROUGH_ROWS)
    out = {}
    for B, l in rows:
        case = DimensionlessCase(B=B, l=l)
        out[(B, l)] = [tracked_level(case, REF_GRIDS[n]) for n in REF_NS]
    return out


@pytest.fixture(scope="module")
def table2_results():
    """Both truncation orders for each published comparison case."""
    out = {}
    for B, l in TABLE2:
        out[(B, l)] = {
            j: quantize(DimensionlessCase(B=B, l=l, s=0, j=j)) for j in (0, 1)
        }
    return out


@pytest.fixture(scope="module")
def s_sweep_results():
    """s = 0..12 sweep at B in {2, 10}, l in {0, 1, 2}: Numerov plus both
    phase-integral orders, paired by ascending level index."""
    grid = Grid(1e-4, 50.0, 3000)
    out = {}
    for B in (2.0, 10.0):
        for l in (0, 1, 2):
            spec = solve(DimensionlessCase(B=B, l=l), grid, 13)
            entry = []
            for s in range(13):
                a_n = float(spec.eigenvalues[s])
                r0 = quantize(DimensionlessCase(B=B, l=l, s=s, j=0))
                r1 = quantize(DimensionlessCase(B=B, l=l, s=s, j=1))
                entry.append((a_n, r0, r1))
            out[(B, l)] = entry
    return out


def test_criterion_1_table1_converged_column(capsys, mesh_sweeps):
    ok = True
    for (B, l), printed in TABLE1.items():
        if (B, l) in mesh_sweeps:
            value = mesh_sweeps[(B, l)][-1]
        else:
            value = tracked_level(DimensionlessCase(B=B, l=l), REF_GRIDS[512])
        if abs(value - printed[-1]) > 2e-3:
            ok = False
    announce(capsys, 1, "Numerov N=512 values for all 12 (B, l) cases within 2e-3", ok)
    assert ok


def test_criterion_2_table1_mesh_sweep(capsys, mesh_sweeps):
    ok = True
    for B, l in SMOOTH_ROWS:
        for n, value, printed in zip(REF_NS, mesh_sweeps[(B, l)], TABLE1[(B, l)]):
            digits = 2 if n <= 32 else (4 if n >= 128 else 2)
            if not sig_digits_match(value, printed, digits):
                ok = False
    for B, l in ROUGH_ROWS:
        for n, value, printed in zip(REF_NS, mesh_sweeps[(B, l)], TABLE1[(B, l)]):
            if n <= 64:
                # qualitative: sign and order of magnitude
                if abs(printed) >= 0.01:
                    if math.copysign(1, value) != math.copysign(1, printed):
                        ok = False
                    if not (abs(printed) / 3 < abs(value) < 3 * abs(printed)):
                        ok = False
            else:
                if abs(value - printed) > 2e-3:
                    ok = False
    announce(capsys, 2, "mesh sweeps: smooth rows to 2/4 significant digits, rough rows qualitatively", ok)
    assert ok


def test_criterion_3_airy_cross_check(capsys):
    a = float(solve(DimensionlessCase(B=0.0, l=0), Grid(1e-4, 50.0, 5000), 1).eigenvalues[0])
    ref = oracles.airy_first_zero()
    ok = abs(a - ref) < 5e-4 and abs(ref - 2.338107) < 1e-6
    announce(capsys, 3, f"B=0 l=0 N=5000 level {a:.6f} vs first Airy zero {ref:.6f} within 5e-4", ok)
    assert ok


def test_criterion_4_table2_phase_integral(capsys, table2_results):
    ok = True
    flagged = []
    for (B, l), (_, printed) in TABLE2.items():
        a0 = table2_results[(B, l)][0].A
        a1 = table2_results[(B, l)][1].A
        hit0 = abs(a0 - printed) <= 1e-3
        hit1 = abs(a1 - printed) <= 1e-3
        if not (hit0 or hit1):
            ok = False
        if hit0 and not hit1:
            flagged.append((B, l, printed, a0, a1))
    notes = [
        f"flagged (B={B:g}, l={l}): published {printed:g} matches j=0 "
        f"({a0:.6f}); j=1 gives {a1:.6f}, closer to the matrix eigenvalue"
        for B, l, printed, a0, a1 in flagged
    ]
    announce(capsys, 4, "published comparison values reproduced (leading order where flagged)", ok, notes)
    assert ok
    # the published column follows the leading-order condition: every case
    # matches at j = 0 (a few also fall within tolerance at j = 1)
    assert all(abs(table2_results[key][0].A - printed) <= 1e-3 for key, (_, printed) in TABLE2.items())


def test_criterion_5_quantization_invariants(capsys, table2_results, s_sweep_results):
    results = [r for pair in table2_results.values() for r in pair.values()]
    results += [r for entry in s_sweep_results.values() for (_, r0, r1) in entry for r in (r0, r1)]
    ok = True
    for res in results:
        sn, cn, dn = jacobi_complex(res.u0, res.turning_points.m)
        if not (
            res.residual <= 1e-10
            and res.C_abs <= 1e-8
            and min(abs(sn), abs(cn), abs(dn)) > 1e-12
        ):
            ok = False
    announce(capsys, 5, f"residual/C/base-point invariants on {len(results)} converged cases", ok)
    assert ok


def test_criterion_6_L1_oracle_equivalence(capsys):
    rng = np.random.default_rng(101)
    checked = 0
    ok = True
    while checked < 100:
        case = DimensionlessCase(B=rng.uniform(0.0, 10.0), l=int(rng.integers(0, 4)))
        x2 = rng.uniform(1.0, 12.0)
        try:
            tp = turning_points_from_x2(x2, case)
        except OrderingError:
            continue
        if abs(tp.alpha2 - tp.m) < 1e-6:
            continue
        checked += 1
        a, b = L1_closed(tp), oracles.L1_quadrature(tp)
        if abs(a - b) > 1e-8 * max(1.0, abs(a)):
            ok = False
    announce(capsys, 6, "L1 closed form vs adaptive quadrature on 100 turning-point samples", ok)
    assert ok


def test_criterion_7_special_function_suite(capsys):
    rng = np.random.default_rng(103)
    ok = True
    # Legendre relation on 50 moduli
    for m in rng.uniform(0.01, 0.99, size=50):
        lhs = ellip_E(m) * ellip_K(1 - m) + ellip_E(1 - m) * ellip_K(m) - ellip_K(m) * ellip_K(1 - m)
        if abs(lhs - math.pi / 2) > 1e-10:
            ok = False
    # half-period shift identities on 100 complex samples
    checked = 0
    while checked < 100:
        m = rng.uniform(0.05, 0.95)
        u0 = complex(rng.uniform(0.1, 1.4), rng.uniform(0.05, 0.6))
        try:
            sn, cn, dn = jacobi_complex(u0, m)
            snK, cnK, dnK = jacobi_complex(u0 + ellip_K(m), m)
        except Exception:
            continue
        if min(abs(sn), abs(cn), abs(dn), abs(snK), abs(cnK), abs(dnK)) < 1e-3:
            continue
        checked += 1
        rt = math.sqrt(1 - m)
        scale = max(1.0, abs(sn), abs(cn), abs(dn)) ** 3
        identities = [
            cnK - (-rt * sn / dn),
            dnK - rt / dn,
            snK - cn / dn,
            cnK * dnK / snK - (m - 1) * sn / (cn * dn),
            dnK * snK / cnK - (-cn / (dn * sn)),
            cnK * snK / dnK - (-cn * sn / dn),
        ]
        if any(abs(v) > 1e-10 * scale for v in identities):
            ok = False
        # Pythagorean identities at every evaluated point
        for su, cu, du in ((sn, cn, dn), (snK, cnK, dnK)):
            big = max(1.0, abs(su) ** 2)
            if abs(su * su + cu * cu - 1) > 1e-12 * big:
                ok = False
            if abs(m * su * su + du * du - 1) > 1e-12 * big:
                ok = False
    announce(capsys, 7, "Legendre relation, half-period shifts, Pythagorean identities", ok)
    assert ok


def test_criterion_8_convergence_rates(capsys, mesh_sweeps):
    ok = True
    for B, l in ((0.0, 0), (2.0, 2)):
        rates = rate_N(mesh_sweeps[(B, l)])
        if abs(rates[-1] - 4.0) > 0.5:
            ok = False
    # the published rate sets, reproduced from the full-precision sequences
    published = {
        (0.0, 0): [5.38, 6.91, 3.02, 3.87, 3.97],
        (2.0, 0): [1.41, 1.31, 1.48, 1.71, 1.85],
        (2.0, 2): [4.17, 3.61, 4.01, 4.01, 4.00],
        (10.0, 2): [-0.76, 5.35, 4.55, 4.01, 3.99],
    }
    for (B, l), expected in published.items():
        if (B, l) in mesh_sweeps:
            seq = mesh_sweeps[(B, l)]
        else:
            seq = [tracked_level(DimensionlessCase(B=B, l=l), REF_GRIDS[n]) for n in REF_NS]
        rates = rate_N(seq)
        if any(abs(r - e) > 0.006 for r, e in zip(rates, expected)):
            ok = False
    # the sequences as printed (rounded to table precision) are degenerate:
    # consecutive rounded entries coincide, so the rates must come from the
    # full-precision values above
    with pytest.raises(DegenerateDifferenceError):
        rate_N(TABLE1[(0.0, 0)])
    announce(capsys, 8, "terminal rates near 4.0 and published rate sets to two decimals", ok)
    assert ok


def test_criterion_9_order_improvement(capsys, table2_results, s_sweep_results):
    ok = True
    # part 1: against the published matrix eigenvalues, the corrected
    # condition always lands closer than the leading one
    for (B, l), (a_ref, _) in TABLE2.items():
        d0 = abs(table2_results[(B, l)][0].A - a_ref)
        d1 = abs(table2_results[(B, l)][1].A - a_ref)
        if not d1 < d0:
            ok = False
    # part 2: across the excited-state sweep the corrected series lies
    # below the leading one for s > 6
    for (B, l), entry in s_sweep_results.items():
        for s in range(7, 13):
            a_n, r0, r1 = entry[s]
            if not abs(r1.A - a_n) < abs(r0.A - a_n):
                ok = False
    announce(capsys, 9, "third-order correction beats leading order (table cases and s > 6 sweep)", ok)
    assert ok
