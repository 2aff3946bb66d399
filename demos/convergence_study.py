"""Mesh-refinement study of the Numerov eigenvalues.

Recomputes the reference convergence table on z in [1e-5, 20] for a few
(B, l) cases, then the empirical rates N_k, which settle near 4 -- the
order of the three-point scheme.

Run:  python demos/convergence_study.py
"""

from cornellbound import DimensionlessCase, Grid, convergence_table, rate_N

CASES = [(0.0, 0), (2.0, 0), (2.0, 2), (10.0, 2)]
NS = [8, 16, 32, 64, 128, 256, 512]


def main():
    grids = [Grid(1e-5, 20.0, n) for n in NS]
    header = "  ".join(f"N={n:>4}" for n in NS)
    print(f"{'(B, l)':>8}  {header}")
    for B, l in CASES:
        table = convergence_table(DimensionlessCase(B=B, l=l), grids)
        values = [a for _, a in table]
        cells = "  ".join(f"{a:8.4f}" for a in values)
        print(f"({B:4g}, {l})  {cells}")
        rates = ", ".join(f"{r:.2f}" for r in rate_N(values))
        print(f"{'':>8}  rates N_k = {{{rates}}}")


if __name__ == "__main__":
    main()
