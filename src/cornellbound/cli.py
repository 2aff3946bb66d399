"""Command-line interface.

Subcommands:
  numerov   eigenvalues of (B, l) cases: the lowest --levels, the
            --tracked level or a --grids convergence table, one mode per run
  phase     phase-integral quantization for (B, l, s) cases, one walk
            per (B, l) serving all its s values
  compare   full sweep comparing both methods, emitted as CSV/JSON; one
            Numerov solve and one phase walk per (B, l)
  rates     N_k (and optionally M_k) convergence rates from a value list,
            a CSV column, or a freshly computed convergence table

Every subcommand runs one spec, a report.RunConfig, which alone checks its
values.  A subcommand takes only the run flags it reads; a flag stores its
value under its config key, the field's name, and each field comes from the
flag if given, else from the key of the JSON file named by --config, else
from the subcommand's default.  One config file serves every subcommand, so
each of them checks every key:

  key       flag     taken by                 default
  B_values  -B       all                      [0]; compare [0, 2, 5, 10]; rates none
  l_values  -l       all                      [0]; compare [0, 1, 2]; rates none
  s_values  -s       phase, compare           [0]
  j         --order  phase, compare           1
  z_min     --zmin   numerov, compare, rates  1e-4; 1e-5 for mesh sweeps (numerov --grids, rates)
  z_max     --zmax   numerov, compare, rates  50;   20 for mesh sweeps
  n         --grid   numerov, compare         5000 (numerov without --grids)

s_values must not be empty, for every subcommand.  rates computes
sequences only when both B and l values are given; the --values and --csv
inputs take precedence over them.  Flags take no abbreviations.

--out is accepted by phase (the levels as JSON) and compare (the table as
CSV, the full diagnostics as JSON at OUT.json).  Each output file is opened
for appending before the first case runs, which leaves an existing file as
it is until the one final write.

Exit codes: 0 full success (and --help); 1 configuration error, one
"configuration error: ..." line on stderr before any case runs (a usage
error such as an unknown flag, a flag the subcommand does not take, an
unparsable value or two numerov modes at once, an unreadable config, an
unknown key, a value of the wrong type or range, numerov --levels outside
1..N-1, fewer than 3 --grids or a grid below 8 subintervals, rates without
input, with a --csv table lacking the comparison columns or with a
non-finite --values or --ref entry, an --out path that cannot be opened);
2 partial per-case failures (each reported as a FAILED line on stderr; the
other cases still run).
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
    """A parser that takes no flag abbreviations and whose usage errors are configuration
    errors, reported by `main` (exit 1).  Its subparsers are of this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise DomainError(message)


#: the run flags, in --help order: flag -> (RunConfig field, metavar, parser, help)
RUN_FLAGS = {
    "-B": ("B_values", "B", _float_list, "comma-separated B values"),
    "-l": ("l_values", "L", _int_list, "comma-separated l values"),
    "--grid": ("n", "GRID", int, "number of mesh subintervals N"),
    "--zmin": ("z_min", "ZMIN", float, None),
    "--zmax": ("z_max", "ZMAX", float, None),
    "-s": ("s_values", "S", _int_list, "comma-separated radial indices s"),
    "--order": ("j", "{0,1}", int, "truncation order j"),
}


def _subcommand(sub, name: str, help: str, run, flags: str) -> argparse.ArgumentParser:
    """A subcommand's parser: --config and the run `flags` it reads (space-separated), in RUN_FLAGS order."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", help="JSON config file; flags override its values")
    for flag, (dest, metavar, kind, text) in RUN_FLAGS.items():
        if flag in flags.split():
            p.add_argument(flag, dest=dest, metavar=metavar, type=kind, help=text)
    p.set_defaults(run=run)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="cornellbound", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "numerov", "Numerov eigenvalues / convergence table", cmd_numerov, "-B -l --grid --zmin --zmax")
    mode = p.add_mutually_exclusive_group()
    # no default: argparse lets a value that is the default itself (a cached small int) past the exclusion
    mode.add_argument("--levels", type=int, help="number of lowest levels (default 1)")
    mode.add_argument("--grids", type=_int_list, help="mesh sweep, e.g. 8,16,32,64")
    mode.add_argument("--tracked", action="store_true", help="report the smallest-|A| level instead of the ground level")

    p = _subcommand(sub, "phase", "phase-integral quantization", cmd_phase, "-B -l -s --order")
    p.add_argument("--out", default=None, help="write the levels as JSON to OUT")

    p = _subcommand(sub, "compare", "sweep both methods and emit |Delta A| tables", cmd_compare, " ".join(RUN_FLAGS))
    p.add_argument("--out", default=None, help="output path (CSV); JSON goes to OUT.json")

    p = _subcommand(sub, "rates", "convergence-rate diagnostics N_k / M_k", cmd_rates, "-B -l --zmin --zmax")
    p.add_argument("--values", type=_float_list, default=None, help="explicit eigenvalue sequence")
    p.add_argument("--csv", default=None, help="read the A_N column of a comparison CSV")
    p.add_argument("--grids", type=_int_list, default=(8, 16, 32, 64, 128, 256, 512))
    p.add_argument("--ref", type=float, default=None, help="reference value: also print M_k")
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
    levels = 1 if args.levels is None else args.levels
    if not (args.grids or args.tracked or 1 <= levels < config.n):
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
                    spec = numerov.solve(case, grid, levels)
                    print(f"{label}  A = " + "  ".join(f"{v:.10g}" for v in spec.eigenvalues))
            except CornellboundError as exc:
                failures += 1
                _report_failure(label, exc)
    return 2 if failures else 0


def cmd_phase(args) -> int:
    config = resolve_config(args, B_values=[0.0], l_values=[0])
    if args.out:  # claimed before the first case; appending leaves an existing file as it is
        open(args.out, "a", encoding="utf-8").close()
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
    if args.out:  # both files claimed as in cmd_phase
        for path in (args.out, f"{args.out}.json"):
            open(path, "a", encoding="utf-8").close()
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
        report.write_json(rows, f"{args.out}.json")
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
