"""Command line interface: fit, simulate, diagnose.

Exit codes: 0 success, 1 input or configuration problem, 2 unexpected
runtime or numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import gif, null_histogram_summary
from .em import CovariateError
from .kernel import P_CLAMP, clamp_pvalues
from .pipeline import run_camt

MIN_FIT_M = 200
WARN_FIT_M = 1000
WRITE_BLOCK_ROWS = 8192


class CliError(Exception):
    """Validation problem in user input; maps to exit code 1."""


@dataclass
class ParsedTable:
    pvals: np.ndarray
    covariates: np.ndarray
    covariate_names: list
    n_clamped: int


def _parse_cells_fast(data_lines, delimiter, n_cols):
    """Parse well-formed data lines in one pass; None on any irregularity.

    Irregular means a quote character, a line whose delimiter count does
    not match the header, or a cell that is not a finite number. The
    caller then falls back to :func:`_parse_cells`, which reports the
    first problem by line and column. Each cell goes through float(), as
    in the fallback, so both paths give the same values.
    """
    if any(line.count(delimiter) != n_cols - 1 for line in data_lines):
        return None
    body = delimiter.join(data_lines)
    if '"' in body:
        return None
    try:
        values = np.array(list(map(float, body.split(delimiter))))
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return values.reshape(len(data_lines), n_cols)


def _parse_cells(data_lines, delimiter, header):
    """Cell-by-cell parse of (line number, line) pairs; raises CliError
    naming the line and column of the first malformed cell."""
    values = np.empty((len(data_lines), len(header)))
    for row_idx, (line_no, line) in enumerate(data_lines):
        cells = next(csv.reader(io.StringIO(line), delimiter=delimiter))
        if len(cells) != len(header):
            short = min(len(cells), len(header))
            col = header[short] if len(cells) < len(header) else header[-1]
            raise CliError(
                f"line {line_no}: expected {len(header)} cells, got {len(cells)} "
                f"(missing value for column {col!r})"
            )
        for col_idx, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                value = np.nan
            if not np.isfinite(value):
                raise CliError(
                    f"non-numeric value {cell.strip()!r} at line {line_no}, "
                    f"column {header[col_idx]!r}"
                )
            values[row_idx, col_idx] = value
    return values


def parse_table(path):
    """Read a delimited hypothesis table.

    Expects a header row with exactly one column named "pvalue"; every
    other column is a numeric covariate. The delimiter is detected from
    the header line (tab if present, comma otherwise), so the same
    table parses identically from CSV and TSV. Lines starting with '#'
    are comments. P-values of exactly 0 or 1 are clamped into the open
    interval and counted in n_clamped.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc

    lines = [
        (line_no, line)
        for line_no, line in enumerate(text.splitlines(), start=1)
        if line.lstrip()[:1] not in ("", "#")  # skip blank and comment lines
    ]
    if not lines:
        raise CliError(f"empty input file: {path}")

    delimiter = "\t" if "\t" in lines[0][1] else ","
    header = next(csv.reader(io.StringIO(lines[0][1]), delimiter=delimiter))
    header = [h.strip() for h in header]
    seen = set()
    for name in header:
        if name in seen:
            raise CliError(f"duplicate header column {name!r}")
        seen.add(name)
    if "pvalue" not in header:
        raise CliError('missing required column "pvalue"')
    p_col = header.index("pvalue")

    values = _parse_cells_fast([line for _, line in lines[1:]], delimiter, len(header))
    if values is None:
        values = _parse_cells(lines[1:], delimiter, header)

    if values.shape[0] == 0:
        raise CliError(f"no data rows in {path}")

    p = values[:, p_col]
    bad = np.flatnonzero((p < 0.0) | (p > 1.0))
    if bad.size:
        line_no = lines[1 + bad[0]][0]
        raise CliError(f"line {line_no}: p-value {float(p[bad[0]])!r} outside [0, 1]")
    n_clamped = int(np.count_nonzero((p < P_CLAMP) | (p > 1.0 - P_CLAMP)))
    cov_cols = [j for j in range(len(header)) if j != p_col]
    return ParsedTable(
        pvals=clamp_pvalues(p),
        covariates=values[:, cov_cols],
        covariate_names=[header[j] for j in cov_cols],
        n_clamped=n_clamped,
    )


def _fmt(x):
    return repr(float(x))


def _write_rows(out, columns, rejected):
    """Write "index,<columns...>,rejected" lines, floats as repr(float(x)).

    Rows are formatted and written in blocks of WRITE_BLOCK_ROWS, so the
    formatted text held in memory stays bounded at any m.
    """
    m = rejected.size
    for start in range(0, m, WRITE_BLOCK_ROWS):
        stop = min(start + WRITE_BLOCK_ROWS, m)
        fields = [
            map(str, range(start, stop)),
            *(map(repr, col[start:stop].tolist()) for col in columns),
            ("1" if r else "0" for r in rejected[start:stop].tolist()),
        ]
        out.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _open_output(path):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def cmd_fit(args):
    table = parse_table(args.input)
    m = table.pvals.size
    if m < MIN_FIT_M:
        raise CliError(f"too few hypotheses (m={m}); at least {MIN_FIT_M} are required")
    if m < WARN_FIT_M:
        print(
            f"warning: m={m} is small, estimates will be noisy "
            f"(recommended m >= {WARN_FIT_M})",
            file=sys.stderr,
        )
    if not 0.0 < args.alpha < 1.0:
        raise CliError("--alpha must lie in (0, 1)")
    if args.spline_knots != 0 and not 2 <= args.spline_knots <= 20:
        raise CliError("--spline-knots must be 0 or between 2 and 20")

    try:
        gif_report = gif(table.pvals)
        gif_text, warn_text = _fmt(gif_report.gif), str(gif_report.warn).lower()
    except ValueError:
        gif_text, warn_text = "na", "na"

    covs = table.covariates if table.covariates.shape[1] else None
    try:
        fit, result = run_camt(
            table.pvals,
            covs,
            alpha=args.alpha,
            spline_knots=args.spline_knots,
            mixed=args.mixed,
            cap_at_tup=not args.no_tup_cap,
        )
    except CovariateError as exc:
        raise CliError(f"covariate {table.covariate_names[exc.column]!r}: {exc.reason}") from exc

    from . import __version__

    with _open_output(args.output) as out:
        out.write(f"# camt fit v{__version__}\n")
        out.write(f"# alpha: {_fmt(args.alpha)}\n")
        out.write(f"# spline_knots: {args.spline_knots}\n")
        out.write(f"# mixed: {str(args.mixed).lower()}\n")
        out.write(f"# tup_cap: {str(not args.no_tup_cap).lower()}\n")
        out.write("# seed: none\n")
        out.write(f"# m: {m}\n")
        out.write(f"# n_clamped: {table.n_clamped}\n")
        out.write(f"# t_hat: {_fmt(result.t_hat)}\n")
        out.write(f"# n_rejections: {result.n_rejections}\n")
        out.write(f"# fdp_hat: {_fmt(result.fdp_hat)}\n")
        out.write(f"# em_iterations: {fit.trace.n_iter}\n")
        out.write(f"# em_converged: {str(fit.trace.converged).lower()}\n")
        out.write(f"# gif: {gif_text}\n")
        out.write(f"# gif_warn: {warn_text}\n")
        # the covariate names may need quoting, so the header goes through
        # csv; the numeric rows never do
        csv.writer(out, lineterminator="\n").writerow(
            ["index", "pvalue", *table.covariate_names, "pi0_hat", "k_hat", "psi_stat", "rejected"]
        )
        columns = [
            table.pvals, *table.covariates.T, fit.fitted.pi_hat, fit.fitted.k_hat, fit.stats.s
        ]
        _write_rows(out, columns, result.rejected)
    print(
        f"fit: m={m}, t_hat={result.t_hat:.6g}, rejections={result.n_rejections}, "
        f"output={args.output}"
    )


def cmd_simulate(args):
    # the simulation harness and its baselines load scipy, which the
    # fit and diagnose commands never need
    from .simulation import DEFAULT_PROCEDURES, SimulationConfig, make_procedure, run_sweep

    procedures = DEFAULT_PROCEDURES if args.procedures is None else tuple(args.procedures)
    for name in procedures:
        try:
            make_procedure(name)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    try:
        alpha_grid = tuple(float(a) for a in args.alpha_grid.split(",") if a.strip())
    except ValueError as exc:
        raise CliError(f"bad --alpha-grid: {exc}") from exc
    try:
        config = SimulationConfig(
            setup=args.setup,
            m=args.m,
            eta0=args.eta0,
            k_d=args.kd,
            k_s=args.ks,
            k_f=args.kf,
            n_replicates=args.reps,
            seed=args.seed,
            alpha_grid=alpha_grid,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = run_sweep(config, procedures=procedures)
    with _open_output(args.output) as out:
        report.write_csv(out)
    for s in report.summarize():
        print(
            f"{s['procedure']:>10s} alpha={s['alpha']:<5g} "
            f"fdp={s['mean_fdp']:.4f} (se {s['se_fdp']:.4f}) "
            f"tpr={s['mean_tpr']:.4f} (se {s['se_tpr']:.4f})"
        )


def cmd_diagnose(args):
    table = parse_table(args.input)
    counts = null_histogram_summary(table.pvals, n_bins=20)
    print(f"m: {table.pvals.size}")
    print(f"n_clamped: {table.n_clamped}")
    try:
        report = gif(table.pvals)
        print(f"gif: {report.gif!r}")
        print(f"n_pvalues_used: {report.n_pvalues_used}")
        print(f"threshold: {report.threshold!r}")
        print(f"warn: {str(report.warn).lower()}")
        if report.warn:
            print(
                "warning: inflation above threshold, the null distribution "
                "looks anti-conservative; FDP control is not trustworthy"
            )
    except ValueError as exc:
        print(f"gif: na ({exc})")
    print("histogram_bins: 20")
    print("histogram_counts: " + ",".join(str(int(c)) for c in counts))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse wants to exit 2 on usage errors; those are
        # validation problems here, which exit 1
        raise CliError(message)


def build_parser():
    parser = _Parser(prog="camt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the model and select rejections")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--alpha", type=float, default=0.05)
    p_fit.add_argument("--spline-knots", type=int, default=0, dest="spline_knots")
    p_fit.add_argument("--mixed", action="store_true")
    p_fit.add_argument("--no-tup-cap", action="store_true", dest="no_tup_cap")
    p_fit.add_argument("--output", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a simulation sweep")
    p_sim.add_argument("--setup", required=True)
    p_sim.add_argument("--m", type=int, default=10_000)
    p_sim.add_argument("--eta0", type=float, default=2.5)
    p_sim.add_argument("--kd", type=float, default=1.0)
    p_sim.add_argument("--ks", type=float, default=2.4)
    p_sim.add_argument("--kf", type=float, default=0.0)
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--alpha-grid", default="0.05", dest="alpha_grid")
    p_sim.add_argument(
        "--procedures",
        nargs="+",
        default=None,
        help="subset of: camt camt-mixed bh storey oracle (default: all but camt-mixed)",
    )
    p_sim.add_argument("--output", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="null-calibration diagnostics")
    p_diag.add_argument("--input", required=True)
    p_diag.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - anything else is a runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
