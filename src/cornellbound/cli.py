"""Command-line interface.

Subcommands:
  numerov   eigenvalues for one or more (B, l) cases, optionally as a
            mesh-convergence table
  phase     phase-integral quantization for (B, l, s) cases
  compare   full sweep comparing both methods, emitted as CSV/JSON
  rates     N_k (and optionally M_k) convergence rates from a value list,
            a CSV column, or a freshly computed convergence table

Every subcommand runs one spec, a report.RunConfig.  Each of its fields
comes from the flag if given, else from the key of the JSON file named by
--config, else from the subcommand's default:

  key       flag     default
  B_values  -B       [0]; compare [0, 2, 5, 10]; rates none
  l_values  -l       [0]; compare [0, 1, 2]; rates none
  s_values  -s       [0]    (phase, compare)
  j         --order  1      (phase, compare)
  z_min     --zmin   1e-4; 1e-5 for mesh sweeps (numerov --grids, rates)
  z_max     --zmax   50;   20 for mesh sweeps
  n         --grid   5000   (numerov without --grids, compare)

phase and compare need at least one s value.  rates computes sequences
only when both B and l values are given; the --values and --csv inputs
take precedence over them.

--out is accepted by phase (the levels as JSON) and compare (the table as
CSV, the full diagnostics as JSON at OUT.json).

Exit codes: 0 full success; 1 configuration error (an unreadable config,
an unknown key, or a value of the wrong type or range, all checked
before any case runs, or a rates --csv table without the comparison
columns); 2 partial per-case failures (each reported as a
FAILED line on stderr; the other cases still run).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import numerov, phase_integral, report
from .errors import CornellboundError, DomainError
from .model import DimensionlessCase
from .numerov import Grid

#: config-file key -> argparse dest of the flag that overrides it
CONFIG_KEYS = {
    "B_values": "B",
    "l_values": "l",
    "s_values": "s",
    "j": "order",
    "z_min": "zmin",
    "z_max": "zmax",
    "n": "grid",
}

#: the mesh-sweep domain of the reference convergence tables
SWEEP_DOMAIN = {"z_min": numerov.SWEEP_Z_MIN, "z_max": numerov.SWEEP_Z_MAX}


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("-B", type=_float_list, default=None, help="comma-separated B values")
    p.add_argument("-l", type=_int_list, default=None, help="comma-separated l values")
    p.add_argument("--grid", type=int, default=None, help="number of mesh subintervals N")
    p.add_argument("--zmin", type=float, default=None)
    p.add_argument("--zmax", type=float, default=None)


def _add_levels(p: argparse.ArgumentParser) -> None:
    p.add_argument("-s", type=_int_list, default=None, help="comma-separated radial indices s")
    p.add_argument("--order", type=int, default=None, choices=(0, 1), help="truncation order j")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cornellbound", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("numerov", help="Numerov eigenvalues / convergence table")
    _add_common(p)
    p.add_argument("--levels", type=int, default=1, help="number of lowest levels")
    p.add_argument("--grids", type=_int_list, default=None, help="mesh sweep, e.g. 8,16,32,64")
    p.add_argument(
        "--tracked",
        action="store_true",
        help="report the smallest-|A| level instead of the ground level",
    )
    p.set_defaults(run=cmd_numerov)

    p = sub.add_parser("phase", help="phase-integral quantization")
    _add_common(p)
    _add_levels(p)
    p.add_argument("--out", default=None, help="write the levels as JSON to OUT")
    p.set_defaults(run=cmd_phase)

    p = sub.add_parser("compare", help="sweep both methods and emit |Delta A| tables")
    _add_common(p)
    _add_levels(p)
    p.add_argument("--out", default=None, help="output path (CSV); JSON goes to OUT.json")
    p.set_defaults(run=cmd_compare)

    p = sub.add_parser("rates", help="convergence-rate diagnostics N_k / M_k")
    _add_common(p)
    p.add_argument("--values", type=_float_list, default=None, help="explicit eigenvalue sequence")
    p.add_argument("--csv", default=None, help="read the A_N column of a comparison CSV")
    p.add_argument("--grids", type=_int_list, default=[8, 16, 32, 64, 128, 256, 512])
    p.add_argument("--ref", type=float, default=None, help="reference value: also print M_k")
    p.set_defaults(run=cmd_rates)
    return ap


def resolve_config(args, **defaults) -> report.RunConfig:
    """The run spec of one subcommand.

    Each field comes from its flag if given, else from the --config file,
    else from `defaults`, else from the RunConfig default.  An unreadable
    file raises OSError or JSONDecodeError; an unknown key or an invalid
    value raises DomainError.
    """
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise DomainError("config file must hold a JSON object")
        unknown = sorted(set(cfg) - set(CONFIG_KEYS))
        if unknown:
            raise DomainError(f"unknown config key(s) {', '.join(unknown)}; known keys: {', '.join(CONFIG_KEYS)}")
    values = dict(defaults)
    for key, dest in CONFIG_KEYS.items():
        flag = getattr(args, dest, None)
        if flag is not None:
            values[key] = flag
        elif key in cfg:
            values[key] = cfg[key]
    return report.RunConfig(**values)


def _levels_config(args, **defaults) -> report.RunConfig:
    """resolve_config for the subcommands that compute levels s (phase, compare)."""
    config = resolve_config(args, **defaults)
    if not config.s_values:
        raise DomainError("s_values must not be empty")
    return config


def _header() -> None:
    print(f"# cornellbound | adopted convention: {report.B_DEFINITION}")


def _report_failure(label: str, exc: CornellboundError) -> None:
    print(f"{label}  FAILED: {exc}", file=sys.stderr)


def cmd_numerov(args) -> int:
    sweep = SWEEP_DOMAIN if args.grids else {}
    config = resolve_config(args, B_values=[0.0], l_values=[0], **sweep)
    grid = config.grid()
    grids = [Grid(config.z_min, config.z_max, n) for n in args.grids or []]
    _header()
    failures = 0
    for B in config.B_values:
        for l in config.l_values:
            label = f"B={B:g} l={l}"
            try:
                case = DimensionlessCase(B=B, l=l)
                if args.grids:
                    table = numerov.convergence_table(case, grids)
                    print(f"{label}  " + "  ".join(f"N={n}: {a:.6g}" for n, a in table))
                elif args.tracked:
                    print(f"{label}  tracked A = {numerov.tracked_level(case, grid):.10g}")
                else:
                    spec = numerov.solve(case, grid, args.levels)
                    print(f"{label}  A = " + "  ".join(f"{v:.10g}" for v in spec.eigenvalues))
            except CornellboundError as exc:
                failures += 1
                _report_failure(label, exc)
    return 2 if failures else 0


def cmd_phase(args) -> int:
    config = _levels_config(args, B_values=[0.0], l_values=[0])
    _header()
    failures = 0
    results = []
    for B in config.B_values:
        for l in config.l_values:
            for s in config.s_values:
                try:
                    res = phase_integral.quantize(DimensionlessCase(B=B, l=l, s=s, j=config.j))
                except CornellboundError as exc:
                    failures += 1
                    _report_failure(f"B={B:g} l={l} s={s}", exc)
                    continue
                u0 = res.u0.as_complex()
                print(
                    f"B={B:g} l={l} s={s} j={config.j}  A = {res.A:.10g}  "
                    f"x2 = {res.x2:.10g}  |C(u0)| = {res.C_abs:.2e}  "
                    f"u0 = {u0.real:.6f}{u0.imag:+.6f}i  residual = {res.residual:.2e}"
                )
                results.append(res)
    if args.out:
        payload = [
            {
                "B": r.case.B,
                "l": r.case.l,
                "s": r.case.s,
                "j": r.case.j,
                "A": r.A,
                "x2": r.x2,
                "u0": {"re": r.u0.re, "im": r.u0.im},
                "residual": r.residual,
                "C_abs": r.C_abs,
            }
            for r in results
        ]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 2 if failures else 0


def cmd_compare(args) -> int:
    config = _levels_config(args)
    _header()
    rows = report.compare_sweep(config)
    for r in rows:
        if r.error:
            print(f"B={r.B:g} l={r.l} s={r.s} j={r.j}  FAILED: {r.error}", file=sys.stderr)
        else:
            print(
                f"B={r.B:g} l={r.l} s={r.s} j={r.j}  A_N = {r.A_N:.8g}  "
                f"A_PhI = {r.A_PhI:.8g}  |dA| = {r.delta_A:.4e}"
            )
    if args.out:
        report.write_csv([r for r in rows if r.error is None], args.out)
        report.write_json(rows, str(args.out) + ".json")
        print(f"# wrote {args.out} and {args.out}.json")
    return 2 if any(r.error for r in rows) else 0


def cmd_rates(args) -> int:
    config = resolve_config(args, B_values=[], l_values=[], **SWEEP_DOMAIN)
    _header()
    failures = 0
    sequences = []
    if args.values is not None:
        sequences.append(("values", args.values))
    elif args.csv is not None:
        sequences.append((args.csv, [r.A_N for r in report.read_csv(args.csv)]))
    elif config.B_values and config.l_values:
        grids = [Grid(config.z_min, config.z_max, n) for n in args.grids]
        for B in config.B_values:
            for l in config.l_values:
                label = f"B={B:g} l={l}"
                try:
                    table = numerov.convergence_table(DimensionlessCase(B=B, l=l), grids)
                except CornellboundError as exc:
                    failures += 1
                    _report_failure(label, exc)
                    continue
                sequences.append((label, [a for _, a in table]))
    else:
        print("rates: need --values, --csv, or -B and -l", file=sys.stderr)
        return 1
    for label, seq in sequences:
        try:
            print(f"{label}  N_k = " + ", ".join(f"{v:.2f}" for v in report.rate_N(seq)))
            if args.ref is not None:
                print(f"{label}  M_k = " + ", ".join(f"{v:.2f}" for v in report.rate_M(seq, args.ref)))
        except CornellboundError as exc:
            failures += 1
            _report_failure(label, exc)
    return 2 if failures else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
