"""Command-line interface.

Subcommands:
  numerov   eigenvalues for one or more (B, l) cases, optionally as a
            mesh-convergence table
  phase     phase-integral quantization for (B, l, s) cases, one walk
            per (B, l) serving all its s values
  compare   full sweep comparing both methods, emitted as CSV/JSON; one
            Numerov solve and one phase walk per (B, l)
  rates     N_k (and optionally M_k) convergence rates from a value list,
            a CSV column, or a freshly computed convergence table

Every subcommand runs one spec, a report.RunConfig, which alone checks its
values.  A flag stores its value under its config key, the field's name,
and each field comes from the flag if given, else from the key of the JSON
file named by --config, else from the subcommand's default:

  key       flag     default
  B_values  -B       [0]; compare [0, 2, 5, 10]; rates none
  l_values  -l       [0]; compare [0, 1, 2]; rates none
  s_values  -s       [0]    (phase, compare)
  j         --order  1      (phase, compare)
  z_min     --zmin   1e-4; 1e-5 for mesh sweeps (numerov --grids, rates)
  z_max     --zmax   50;   20 for mesh sweeps
  n         --grid   5000   (numerov without --grids, compare)

s_values must not be empty, for every subcommand.  rates computes
sequences only when both B and l values are given; the --values and --csv
inputs take precedence over them.

--out is accepted by phase (the levels as JSON) and compare (the table as
CSV, the full diagnostics as JSON at OUT.json).

Exit codes: 0 full success (and --help); 1 configuration error, one
"configuration error: ..." line on stderr before any case runs (a usage
error such as an unknown flag or an unparsable value, an unreadable config,
an unknown key, a value of the wrong type or range, numerov --levels
outside 1..N-1, fewer than 3 --grids or a grid below 8 subintervals, rates
without input, with a --csv table lacking the comparison columns or with a
non-finite --values or --ref entry); 2 partial per-case failures (each
reported as a FAILED line on stderr; the other cases still run).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import numerov, phase_integral, report
from .errors import CornellboundError, DomainError
from .model import DimensionlessCase
from .numerov import Grid

#: the mesh-sweep domain of the reference convergence tables
SWEEP_DOMAIN = {"z_min": numerov.SWEEP_Z_MIN, "z_max": numerov.SWEEP_Z_MAX}


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are configuration errors, reported by `main` (exit 1)."""

    def error(self, message):
        raise DomainError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("-B", dest="B_values", metavar="B", type=_float_list, help="comma-separated B values")
    p.add_argument("-l", dest="l_values", metavar="L", type=_int_list, help="comma-separated l values")
    p.add_argument("--grid", dest="n", metavar="GRID", type=int, help="number of mesh subintervals N")
    p.add_argument("--zmin", dest="z_min", metavar="ZMIN", type=float)
    p.add_argument("--zmax", dest="z_max", metavar="ZMAX", type=float)


def _add_levels(p: argparse.ArgumentParser) -> None:
    p.add_argument("-s", dest="s_values", metavar="S", type=_int_list, help="comma-separated radial indices s")
    p.add_argument("--order", dest="j", metavar="{0,1}", type=int, help="truncation order j")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="cornellbound", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
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
    p.add_argument("--grids", type=_int_list, default=(8, 16, 32, 64, 128, 256, 512))
    p.add_argument("--ref", type=float, default=None, help="reference value: also print M_k")
    p.set_defaults(run=cmd_rates)
    return ap


def resolve_config(args, **defaults) -> report.RunConfig:
    """The run spec of one subcommand.

    Each RunConfig field comes from its flag (the parsed value of that
    name) if given, else from the --config file, else from `defaults`,
    else from the RunConfig default.  An unreadable file raises OSError or
    JSONDecodeError; an unknown key or an invalid value raises DomainError.
    """
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise DomainError("config file must hold a JSON object")
    keys = [f.name for f in dataclasses.fields(report.RunConfig)]
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise DomainError(f"unknown config key(s) {', '.join(unknown)}; known keys: {', '.join(keys)}")
    flags = {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}
    return report.RunConfig(**{**defaults, **cfg, **flags})


def _sweep_grids(config: report.RunConfig, ns: list[int]) -> list[Grid]:
    """The --grids meshes of a convergence table, checked before any case runs."""
    grids = [Grid(config.z_min, config.z_max, n) for n in ns]
    if len(grids) < 3:
        raise DomainError("--grids needs at least 3 grids for a convergence table")
    return grids


def _header() -> None:
    print(f"# cornellbound | adopted convention: {report.B_DEFINITION}")


def _report_failure(label: str, exc: CornellboundError) -> None:
    print(f"{label}  FAILED: {exc}", file=sys.stderr)


def cmd_numerov(args) -> int:
    sweep = SWEEP_DOMAIN if args.grids else {}
    config = resolve_config(args, B_values=[0.0], l_values=[0], **sweep)
    grid = config.grid()
    grids = [] if args.grids is None else _sweep_grids(config, args.grids)
    if not (args.grids or args.tracked or 1 <= args.levels < config.n):
        raise DomainError(f"--levels must be between 1 and {config.n - 1}")
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
    config = resolve_config(args, B_values=[0.0], l_values=[0])
    _header()
    failures = 0
    results = []
    for B in config.B_values:
        for l in config.l_values:
            levels = phase_integral.quantize_ladder(B, l, config.j, config.s_values)
            for s, res in zip(config.s_values, levels):
                try:
                    if isinstance(res, CornellboundError):
                        raise res
                    u0 = res.u0.as_complex()  # worked out on this first read
                except CornellboundError as exc:
                    failures += 1
                    _report_failure(f"B={B:g} l={l} s={s}", exc)
                    continue
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
        text = json.dumps(payload, indent=2) + "\n"
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 2 if failures else 0


def cmd_compare(args) -> int:
    config = resolve_config(args)
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
    explicit = (args.values or []) + ([] if args.ref is None else [args.ref])
    if not all(map(math.isfinite, explicit)):
        raise DomainError("--values and --ref must be finite")
    grids = _sweep_grids(config, args.grids)
    failures = 0
    sequences = []
    if args.values is not None:
        sequences.append(("values", args.values))
    elif args.csv is not None:
        sequences.append((args.csv, [r.A_N for r in report.read_csv(args.csv)]))
    elif config.B_values and config.l_values:
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
        raise DomainError("rates: need --values, --csv, or -B and -l")
    _header()
    for label, seq in sequences:
        try:
            print(f"{label}  N_k = " + ", ".join(f"{v:.2f}" for v in report.rate_N(seq)))
            if args.ref is not None:
                print(f"{label}  M_k = " + ", ".join(f"{v:.2f}" for v in report.rate_M(seq, args.ref)))
        except CornellboundError as exc:
            failures += 1
            _report_failure(label, exc)
    return 2 if failures else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.

    Its defaults are shared by every parse, so no command mutates a parsed
    value in place.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except SystemExit as stop:  # --help, once the usage is printed
        return stop.code
    except (DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
