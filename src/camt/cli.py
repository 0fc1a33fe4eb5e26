"""Command line interface: fit, simulate, diagnose.

Exit codes: 0 success, 1 input or configuration problem, 2 unexpected
runtime or numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import errno
import os
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .diagnostics import gif, null_histogram_summary
from .em import CovariateError, _check_spline_knots
from .kernel import check_alpha, clamp_pvalues, psi
from .numtext import FLOAT_CELL, INT_CELL, float_cells, int_cells
from .pipeline import run_camt

MIN_FIT_M = 200
WRITE_BLOCK_ROWS = 1024
READ_CHUNK_CHARS = 1 << 16


class CliError(Exception):
    """Validation problem in user input; maps to exit code 1."""


@dataclass
class ParsedTable:
    pvals: np.ndarray
    covariates: np.ndarray
    covariate_names: list
    n_clamped: int


def _is_content(line):
    """True for a line that is neither blank nor a '#' comment."""
    return line.lstrip()[:1] not in ("", "#")


def _numbered(lines, first_line_no):
    """(line number, line) of each content line."""
    return [(n, line) for n, line in enumerate(lines, first_line_no) if _is_content(line)]


def _line_chunks(f):
    """(first line number, lines, clean) per READ_CHUNK_CHARS characters
    of text file f, split as str.splitlines splits the whole text; clean
    when the chunk holds no \\x1f, which numpy's number reader strips
    around a cell as whitespace where float() refuses the cell.

    Each chunk is cut after its last line break, of any kind
    str.splitlines honours, and the rest carried into the next one, so
    no line is split across chunks.
    """
    line_no, tail = 1, ""
    while chunk := f.read(READ_CHUNK_CHARS):
        text = tail + chunk
        lines = text.splitlines()
        # a line break alone splits into one empty line
        tail = "" if text[-1].splitlines() == [""] else lines.pop()
        yield line_no, lines, text.find("\x1f", 0, len(text) - len(tail)) < 0
        line_no += len(lines)
    yield line_no, tail.splitlines(), "\x1f" not in tail


def _parse_header(line):
    """(delimiter, column names) of the header line: tab-delimited if it
    holds a tab, comma-delimited otherwise."""
    delimiter = "\t" if "\t" in line else ","
    header = [h.strip() for h in next(csv.reader([line], delimiter=delimiter))]
    seen = set()
    for name in header:
        if name in seen:
            raise CliError(f"duplicate header column {name!r}")
        seen.add(name)
    if "pvalue" not in header:
        raise CliError('missing required column "pvalue"')
    return delimiter, header


def _parse_cells(data_lines, delimiter, header):
    """Cell-by-cell parse of (line number, line) pairs; raises CliError
    naming the line and column of the first malformed cell."""
    values = np.empty((len(data_lines), len(header)))
    for row_idx, (line_no, line) in enumerate(data_lines):
        cells = next(csv.reader([line], delimiter=delimiter))
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


def _read_table(f, path):
    """(header, values) of text file f in one streaming pass; raises
    CliError naming the line (and column) of the first problem.

    numpy's C reader converts each chunk's data lines straight into
    floats, so no cell becomes a Python object and the text is never
    held whole. It and float() call the same string-to-double routine,
    so the values are those of :func:`_parse_cells`, which reads a
    chunk numpy refuses (a quote, a blank, an underscore or a non-ASCII
    digit among its cells), or whose rows are not as wide as the header
    or hold a non-finite value. A p-value outside [0, 1] is reported
    after the last chunk, so a malformed cell on any line comes first.
    The values go into one array grown in place by a quarter, as
    numpy's reader grows its own; joining the chunk arrays at the end
    with np.concatenate raised the peak resident size of a `camt fit`
    of 1e6 rows from 145.5 to 148.1 MB (36.8 to 37.5 MB at 5e4 rows).
    """
    header, bad_p, out, n = None, None, np.empty(0), 0
    for start, lines, clean in _line_chunks(f):
        rows = [line for line in lines if _is_content(line)]
        skip = 0
        if header is None and rows:
            delimiter, header = _parse_header(rows[0])
            p_col, skip = header.index("pvalue"), 1
        if len(rows) <= skip:
            continue
        values = None
        if clean:
            try:
                values = np.loadtxt(rows[skip:], delimiter=delimiter, comments=None, ndmin=2)
            except ValueError:
                pass
        if values is None or values.shape[1] != len(header) or not np.isfinite(values).all():
            values = _parse_cells(_numbered(lines, start)[skip:], delimiter, header)
        p = values[:, p_col]
        bad = np.flatnonzero((p < 0.0) | (p > 1.0))
        if bad.size and bad_p is None:
            line_no = _numbered(lines, start)[skip + bad[0]][0]
            bad_p = f"line {line_no}: p-value {float(p[bad[0]])!r} outside [0, 1]"
        if n + values.size > out.size:
            out.resize((n + values.size) * 5 // 4, refcheck=False)  # no view of out exists
        out[n : n + values.size] = values.ravel()
        n += values.size
    if header is None:
        raise CliError(f"empty input file: {path}")
    if not n:
        raise CliError(f"no data rows in {path}")
    if bad_p is not None:
        raise CliError(bad_p)
    out.resize(n, refcheck=False)
    return header, out.reshape(-1, len(header))


def parse_table(path):
    """Read a delimited hypothesis table, UTF-8 encoded; a leading
    byte-order mark, as spreadsheets write one, is skipped.

    Expects a header row with exactly one column named "pvalue"; every
    other column is a numeric covariate. The delimiter is detected from
    the header line (tab if present, comma otherwise), so the same
    table parses identically from CSV and TSV. Lines are split as
    str.splitlines splits them; blank lines and lines starting with '#'
    (after whitespace) are skipped. P-values of exactly 0 or 1 are
    clamped into the open interval and counted in n_clamped.

    The file is read once, in chunks (:func:`_read_table`): numpy's
    reader converts a chunk of well-formed lines, and only a chunk it
    refuses is read cell by cell, which accepts what float() accepts
    and names the line and column of the first malformed cell. A file
    that does not decode is reported as such, wherever its first
    malformed cell lies.
    """
    try:
        with open(path, encoding="utf-8-sig") as f:
            try:
                header, values = _read_table(f, path)
            except CliError:
                # an undecodable byte past the first problem still wins
                while f.read(READ_CHUNK_CHARS):
                    pass
                raise
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc

    p_col = header.index("pvalue")
    p = values[:, p_col]
    pvals = clamp_pvalues(p)
    cov_cols = [j for j in range(len(header)) if j != p_col]
    return ParsedTable(
        pvals=pvals,
        covariates=values[:, cov_cols],
        covariate_names=[header[j] for j in cov_cols],
        n_clamped=int(np.count_nonzero(pvals != p)),  # the entries the clamp moved
    )


def _fmt(x):
    return repr(float(x))


def _write_rows(out, columns, rejected):
    """Write "index,<columns...>,rejected" lines, floats as repr(float(x)).

    Rows are formatted and written in blocks of WRITE_BLOCK_ROWS, so the
    formatted text held in memory stays bounded at any m. A block is one
    uint8 matrix with a row per line: the cells of :mod:`camt.numtext`,
    each ending in its delimiter, then the flag and the newline. The
    block's float columns are formatted by one :func:`float_cells` call
    on a C-ordered (rows, columns) copy, whose cells come out row by row,
    so they are the block's float region as they are. Dropping the
    cells' NUL padding joins the block into its text. With five float
    columns a 1024-row block is one call on 5120 values; blocks of 4096
    rows, one call on 20480, wrote 5e4 rows 25% slower.
    """
    ends = INT_CELL + FLOAT_CELL * np.arange(len(columns) + 1)  # one past each cell
    m = rejected.size
    for start in range(0, m, WRITE_BLOCK_ROWS):
        stop = min(start + WRITE_BLOCK_ROWS, m)
        block = np.empty((stop - start, ends[-1] + 2), np.uint8)
        block[:, : ends[0]] = int_cells(np.arange(start, stop))
        floats = np.column_stack([col[start:stop] for col in columns])
        block[:, ends[0] : ends[-1]] = float_cells(floats).reshape(stop - start, -1)
        block[:, ends - 1] = ord(",")
        block[:, -2] = rejected[start:stop] + ord("0")
        block[:, -1] = ord("\n")
        out.write(str(block[block != 0], "ascii"))


def _output_error(path, exc):
    return CliError(f"cannot write {path}: {exc}")


def _check_output(path):
    """Fail as opening path for writing would, before any work is done
    and without creating the file: its directory must exist and be
    writable, and path must not be a directory."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(directory, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise _output_error(path, OSError(code, os.strerror(code), path))


def _open_output(path):
    """Outputs are UTF-8, as inputs are read, whatever the locale."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise _output_error(path, exc) from exc


def cmd_fit(args):
    _check_output(args.output)
    try:
        check_alpha(args.alpha)
        _check_spline_knots(args.spline_knots)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    table = parse_table(args.input)
    m = table.pvals.size
    if m < MIN_FIT_M:
        raise CliError(f"too few hypotheses (m={m}); at least {MIN_FIT_M} are required")

    try:
        gif_report = gif(table.pvals)
        gif_text, warn_text = _fmt(gif_report.gif), str(gif_report.warn).lower()
    except ValueError:
        gif_text, warn_text = "na", "na"

    # the fit's warnings (EM not converging, or fewer than 10 hypotheses
    # per design column, say) are reported in the CLI's own format, not
    # as Python warnings with a source line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fit, result = run_camt(
                table.pvals,
                table.covariates,
                alpha=args.alpha,
                spline_knots=args.spline_knots,
                mixed=args.mixed,
            )
        except CovariateError as exc:
            raise CliError(
                f"covariate {table.covariate_names[exc.column]!r}: {exc.reason}"
            ) from exc
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)

    meta = (
        ("alpha", _fmt(args.alpha)),
        ("spline_knots", args.spline_knots),
        ("mixed", str(args.mixed).lower()),
        ("seed", "none"),
        ("m", m),
        ("n_clamped", table.n_clamped),
        ("t_hat", _fmt(result.t_hat)),
        ("n_rejections", result.n_rejections),
        ("fdp_hat", _fmt(result.fdp_hat)),
        ("em_iterations", fit.trace.n_iter),
        ("em_converged", str(fit.trace.converged).lower()),
        ("gif", gif_text),
        ("gif_warn", warn_text),
    )
    from . import __version__

    with _open_output(args.output) as out:
        out.write(f"# camt fit v{__version__}\n")
        for key, value in meta:
            out.write(f"# {key}: {value}\n")
        # the covariate names may need quoting, so the header goes through
        # csv; the numeric rows never do
        csv.writer(out, lineterminator="\n").writerow(
            ["index", "pvalue", *table.covariate_names, "pi0_hat", "k_hat", "psi_stat", "rejected"]
        )
        # psi(p) on every row: fit.stats holds entry times, inf on a side not entered
        pi_hat, k_hat = fit.fitted.pi_hat, fit.fitted.k_hat
        psi_stat = psi(table.pvals, pi_hat, k_hat)
        columns = [table.pvals, *table.covariates.T, pi_hat, k_hat, psi_stat]
        _write_rows(out, columns, result.rejected)
    print(
        f"fit: m={m}, t_hat={result.t_hat:.6g}, rejections={result.n_rejections}, "
        f"output={args.output}"
    )


def cmd_simulate(args):
    _check_output(args.output)
    # imported here: the fit and diagnose commands never need the
    # simulation harness or its baselines
    from .simulation import DEFAULT_PROCEDURES, SimulationConfig, _procedure_names
    from .simulation import resolve_workers, run_sweep

    if args.procedures is None:
        procedures = DEFAULT_PROCEDURES
    else:  # names separated by spaces, commas or both
        procedures = tuple(n for arg in args.procedures for n in arg.split(",") if n.strip())
    try:
        procedures = _procedure_names(procedures)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    # only the flags given, each by its field's name: SimulationConfig holds the defaults
    given = {f.name: getattr(args, f.name) for f in fields(SimulationConfig) if f.name in args}
    if "alpha_grid" in given:
        try:
            given["alpha_grid"] = tuple(float(a) for a in args.alpha_grid.split(",") if a.strip())
        except ValueError as exc:
            raise CliError(f"bad --alpha-grid: {exc}") from exc
    try:
        config = SimulationConfig(**given)
        workers = resolve_workers()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = run_sweep(config, procedures=procedures, n_workers=workers)
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
    counts = null_histogram_summary(table.pvals)
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
    print(f"histogram_bins: {counts.size}")
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
    p_fit.add_argument("--output", required=True)
    p_fit.set_defaults(func=cmd_fit)

    # a flag left out is not set, and its dest is the SimulationConfig
    # field it sets: the defaults are the config's
    p_sim = sub.add_parser(
        "simulate", help="run a simulation sweep", argument_default=argparse.SUPPRESS
    )
    p_sim.add_argument("--setup", required=True)
    p_sim.add_argument("--m", type=int)
    p_sim.add_argument("--eta0", type=float)
    p_sim.add_argument("--kd", type=float, dest="k_d", metavar="KD")
    p_sim.add_argument("--ks", type=float, dest="k_s", metavar="KS")
    p_sim.add_argument("--kf", type=float, dest="k_f", metavar="KF")
    p_sim.add_argument("--reps", type=int, dest="n_replicates", metavar="REPS")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--alpha-grid", dest="alpha_grid")
    p_sim.add_argument(
        "--procedures",
        nargs="+",
        default=None,
        help="subset of camt, camt-mixed, bh, storey (or st) and oracle, each named once, "
        "separated by spaces or commas (default: all but camt-mixed)",
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
