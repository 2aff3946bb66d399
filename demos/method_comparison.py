"""Cross-validation of the two engines across excited states.

For B = 2, l = 1 the matrix eigenvalues are compared against the
phase-integral levels at both truncation orders over s = 0..10.  The
leading-order discrepancy decays slowly with s, while the third-order
corrected one drops well below it for high s.

Run:  python demos/method_comparison.py   (about a second)
"""

from cornellbound import DimensionlessCase, Grid, quantize, solve

B, L = 2.0, 1
S_MAX = 10


def main():
    grid = Grid(1e-4, 50.0, 3000)
    spec = solve(DimensionlessCase(B=B, l=L), grid, S_MAX + 1)
    print(f"B = {B:g}, l = {L}, grid [{grid.z_min:g}, {grid.z_max:g}] with N = {grid.n}")
    print(f"{'s':>3} {'A_N':>14} {'A_j0':>14} {'A_j1':>14} {'|dA| j0':>10} {'|dA| j1':>10}")
    for s in range(S_MAX + 1):
        a_n = float(spec.eigenvalues[s])
        a0 = quantize(DimensionlessCase(B=B, l=L, s=s, j=0)).A
        a1 = quantize(DimensionlessCase(B=B, l=L, s=s, j=1)).A
        print(f"{s:>3} {a_n:>14.8f} {a0:>14.8f} {a1:>14.8f} {abs(a0 - a_n):>10.2e} {abs(a1 - a_n):>10.2e}")


if __name__ == "__main__":
    main()
