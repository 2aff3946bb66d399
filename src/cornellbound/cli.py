"""Command-line interface.

Subcommands:
  numerov      eigenvalues of (B, l) cases: the lowest --levels or the
               --tracked level
  convergence  the mesh-refinement table of the tracked level for (B, l)
               cases, each followed by its N_k (and with --ref M_k) rates
  phase        phase-integral quantization for (B, l, s) cases, one walk
               per (B, l) serving all its s values
  compare      full sweep comparing both methods, emitted as CSV/JSON; one
               Numerov solve and one phase walk per (B, l)
  rates        N_k (and with --ref M_k) rates of the --values sequence

Every subcommand but rates runs one spec, a report.RunConfig, which alone
checks its values.  A subcommand takes only the run flags it reads; a flag
stores its value under its config key, the field's name, and each field
comes from the flag if given, else from the key of the JSON file named by
--config, else from the subcommand's default.  One config file serves every
subcommand that takes --config, so each of them checks every key:

  key       flag     taken by                       default
  B_values  -B       all but rates                  [0]; compare [0, 2, 5, 10]
  l_values  -l       all but rates                  [0]; compare [0, 1, 2]
  s_values  -s       phase, compare                 [0]
  j         --order  phase, compare                 1
  z_min     --zmin   numerov, convergence, compare  1e-4; convergence 1e-5
  z_max     --zmax   numerov, convergence, compare  50;   convergence 20
  n         --grid   numerov, compare               5000

s_values must not be empty, for every subcommand that takes --config.
rates takes only --values and --ref.  Flags take no abbreviations.

--out is accepted by phase (the levels as JSON) and compare (the table as
CSV, the full diagnostics as JSON at OUT.json).  Each output file is opened
for appending before the first case runs, which leaves an existing file as
it is until the one final write.

Exit codes: 0 full success (and --help); 1 configuration error, one
"configuration error: ..." line on stderr before any case runs (a usage
error such as an unknown flag, a flag the subcommand does not take, a
missing --values, an unparsable value or two numerov modes at once, an
unreadable config, an unknown key, a value of the wrong type or range,
numerov --levels outside 1..N-1, fewer than 3 --grids or a grid below 8
subintervals, a non-finite --values or --ref entry, an --out path that
cannot be opened); 2 partial per-case failures (each reported as a FAILED
line on stderr; the other cases still run).
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


def _subcommand(sub, name: str, help: str, run, flags: str = "") -> argparse.ArgumentParser:
    """A subcommand's parser with the run `flags` it reads (space-separated), in RUN_FLAGS order,
    and --config if it reads any."""
    p = sub.add_parser(name, help=help)
    if flags:
        p.add_argument("--config", help="JSON config file; flags override its values")
    for flag, (dest, metavar, kind, text) in RUN_FLAGS.items():
        if flag in flags.split():
            p.add_argument(flag, dest=dest, metavar=metavar, type=kind, help=text)
    p.set_defaults(run=run)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="cornellbound", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "numerov", "Numerov eigenvalues", cmd_numerov, "-B -l --grid --zmin --zmax")
    mode = p.add_mutually_exclusive_group()
    # no default: argparse lets a value that is the default itself (a cached small int) past the exclusion
    mode.add_argument("--levels", type=int, help="number of lowest levels (default 1)")
    mode.add_argument("--tracked", action="store_true", help="report the smallest-|A| level instead of the ground level")

    p = _subcommand(sub, "convergence", "mesh-refinement table and rates", cmd_convergence, "-B -l --zmin --zmax")
    p.add_argument("--grids", type=_int_list, default=(8, 16, 32, 64, 128, 256, 512), help="the N of each mesh")
    p.add_argument("--ref", type=float, default=None, help="reference value: also print M_k")

    p = _subcommand(sub, "phase", "phase-integral quantization", cmd_phase, "-B -l -s --order")
    p.add_argument("--out", default=None, help="write the levels as JSON to OUT")

    p = _subcommand(sub, "compare", "sweep both methods and emit |Delta A| tables", cmd_compare, " ".join(RUN_FLAGS))
    p.add_argument("--out", default=None, help="output path (CSV); JSON goes to OUT.json")

    p = _subcommand(sub, "rates", "convergence-rate diagnostics N_k / M_k of a value list", cmd_rates)
    p.add_argument("--values", type=_float_list, required=True, help="explicit eigenvalue sequence")
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


def _header() -> None:
    print(f"# cornellbound | adopted convention: {report.B_DEFINITION}")


def _report_failure(label: str, exc: CornellboundError) -> None:
    print(f"{label}  FAILED: {exc}", file=sys.stderr)


def _check_rate_inputs(*values: float | None) -> None:
    if not all(math.isfinite(v) for v in values if v is not None):
        raise DomainError("--values and --ref must be finite")


def _rate_lines(values: list[float], ref: float | None):
    """The N_k line of `values`, then its M_k line if `ref` is given."""
    yield "N_k = " + ", ".join(f"{v:.2f}" for v in report.rate_N(values))
    if ref is not None:
        yield "M_k = " + ", ".join(f"{v:.2f}" for v in report.rate_M(values, ref))


def _print_cases(cases) -> int:
    """Print the header, then for each `(label, lines)` case every line of `lines`, after the label.

    `lines` makes each line as it is read, so a case that raises a package
    error gets a FAILED line on stderr after the lines it printed, and the
    other cases still run.  Returns the exit code: 2 if any case failed,
    else 0.
    """
    _header()
    failures = 0
    for label, lines in cases:
        try:
            for line in lines:
                print(f"{label}  {line}")
        except CornellboundError as exc:
            failures += 1
            _report_failure(label, exc)
    return 2 if failures else 0


def _print_each_case(config: report.RunConfig, lines) -> int:
    """`_print_cases` over the (B, l) cases of `config`, the generator `lines(case)` making a case's lines."""
    return _print_cases(
        (f"B={B:g} l={l}", lines(DimensionlessCase(B=B, l=l))) for B in config.B_values for l in config.l_values
    )


def cmd_numerov(args) -> int:
    config = resolve_config(args, B_values=[0.0], l_values=[0])
    grid = config.grid()
    levels = 1 if args.levels is None else args.levels
    if not (args.tracked or 1 <= levels < config.n):
        raise DomainError(f"--levels must be between 1 and {config.n - 1}")

    def lines(case):
        if args.tracked:
            yield f"tracked A = {numerov.tracked_level(case, grid):.10g}"
        else:
            yield "A = " + "  ".join(f"{v:.10g}" for v in numerov.solve(case, grid, levels).eigenvalues)

    return _print_each_case(config, lines)


def cmd_convergence(args) -> int:
    sweep = {"z_min": numerov.SWEEP_Z_MIN, "z_max": numerov.SWEEP_Z_MAX}
    config = resolve_config(args, B_values=[0.0], l_values=[0], **sweep)
    _check_rate_inputs(args.ref)
    grids = [Grid(config.z_min, config.z_max, n) for n in args.grids]
    if len(grids) < 3:
        raise DomainError("--grids needs at least 3 grids for a convergence table")

    def lines(case):
        table = numerov.convergence_table(case, grids)
        yield "  ".join(f"N={n}: {a:.6g}" for n, a in table)
        yield from _rate_lines([a for _, a in table], args.ref)

    return _print_each_case(config, lines)


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
        report.dump_json(payload, args.out)
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
    _check_rate_inputs(*args.values, args.ref)
    return _print_cases([("values", _rate_lines(args.values, args.ref))])


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
