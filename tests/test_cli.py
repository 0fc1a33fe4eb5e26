"""Tests for table parsing and the fit / simulate / diagnose commands."""

import ast
import csv
import io
import os
import re
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import camt
import camt.cli
import camt.simulation
from camt.baselines import storey
from camt.cli import CliError, main, parse_table
from camt.em import MAX_ITER
from camt.kernel import P_CLAMP, psi
from camt.pipeline import run_camt
from camt.simulation import DEFAULT_PROCEDURES, SimulationConfig, generate


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _write_table(path, pvals, covariates=None, names=None, sep=","):
    covariates = np.empty((len(pvals), 0)) if covariates is None else np.asarray(covariates)
    names = names or [f"x{j + 1}" for j in range(covariates.shape[1])]
    lines = [sep.join(["pvalue", *names])]
    for i, p in enumerate(pvals):
        cells = [repr(float(p))] + [repr(float(v)) for v in covariates[i]]
        lines.append(sep.join(cells))
    return _write_lines(path, lines)


def _dataset_table(path, m, seed, setup="S0"):
    data = generate(SimulationConfig(setup=setup, m=m, seed=seed), 0)
    return _write_table(path, data.pvals, data.covariates), data


# ----------------------------------------------------------------------
# parse_table


def test_parse_small_table(tmp_path):
    path = _write_lines(
        tmp_path / "t.csv",
        [
            "pvalue,x1,x2",
            "0.01,1.5,-0.3",
            "0.5,0.0,2.0",
            "0.99,-1.0,0.25",
        ],
    )
    table = parse_table(path)
    assert table.pvals.tolist() == [0.01, 0.5, 0.99]
    assert table.covariates.tolist() == [[1.5, -0.3], [0.0, 2.0], [-1.0, 0.25]]
    assert table.covariate_names == ["x1", "x2"]
    assert table.n_clamped == 0


def test_parse_pvalue_column_position_is_free(tmp_path):
    path = _write_lines(tmp_path / "t.csv", ["x1,pvalue", "2.0,0.3", "-1.0,0.7"])
    table = parse_table(path)
    assert table.pvals.tolist() == [0.3, 0.7]
    assert table.covariates.tolist() == [[2.0], [-1.0]]


def test_parse_clamps_boundary_pvalues(tmp_path):
    # n_clamped counts the entries the clamp moved: a p-value at either
    # bound stays and is not counted, one just beyond it is
    edges = [P_CLAMP, 1.0 - P_CLAMP, P_CLAMP / 2, 1.0 - P_CLAMP / 4]
    path = _write_lines(tmp_path / "t.csv", ["pvalue", "0.0", "1.0", "0.5"] + [repr(x) for x in edges])
    table = parse_table(path)
    assert table.n_clamped == 4
    assert table.pvals.tolist() == [P_CLAMP, 1.0 - P_CLAMP, 0.5] + [P_CLAMP, 1.0 - P_CLAMP] * 2


def test_parse_csv_and_tsv_agree(tmp_path):
    rng = np.random.default_rng(41)
    p = rng.random(20)
    x = rng.standard_normal((20, 2))
    csv_path = _write_table(tmp_path / "t.csv", p, x, sep=",")
    tsv_path = _write_table(tmp_path / "t.tsv", p, x, sep="\t")
    a, b = parse_table(csv_path), parse_table(tsv_path)
    assert np.array_equal(a.pvals, b.pvals)
    assert np.array_equal(a.covariates, b.covariates)
    assert a.covariate_names == b.covariate_names
    # the same table behind a comment with CRLF line ends, and with one
    # quoted cell, is the same table
    lines = Path(tsv_path).read_text().splitlines()
    crlf = tmp_path / "crlf.tsv"
    crlf.write_bytes("".join(l + "\r\n" for l in ["# a comment", *lines]).encode())
    cells = lines[10].split("\t")
    lines[10] = "\t".join([cells[0], f'"{cells[1]}"', *cells[2:]])
    quoted = _write_lines(tmp_path / "quoted.tsv", lines)
    assert _parse_outcome(str(crlf)) == _parse_outcome(quoted) == _parse_outcome(csv_path)


def test_parse_skips_comments_and_blank_lines(tmp_path):
    path = _write_lines(
        tmp_path / "t.csv",
        [
            "# produced by an upstream pipeline",
            "pvalue,x1",
            "",
            "0.2,1.0",
            "  # indented comment",
            "0.8,-1.0",
        ],
    )
    table = parse_table(path)
    assert table.pvals.tolist() == [0.2, 0.8]


@pytest.mark.parametrize("quoted", [False, True])
def test_parse_skips_a_byte_order_mark(tmp_path, monkeypatch, quoted):
    # spreadsheets save "CSV UTF-8" with a leading U+FEFF; a quoted cell
    # sends its chunk to the cell-by-cell parse, whose line numbers the
    # mark must not shift
    rows = ["pvalue,x1", "0.01,1.5", '0.5,"2.0"' if quoted else "0.5,2.0", "0.99,-1.0"]
    plain = _write_lines(tmp_path / "plain.csv", rows)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
    parse_cells = camt.cli._parse_cells
    read_by_cell = []

    def spy(data_lines, *args):
        read_by_cell.append([line_no for line_no, _ in data_lines])
        return parse_cells(data_lines, *args)

    monkeypatch.setattr(camt.cli, "_parse_cells", spy)
    a, b = parse_table(plain), parse_table(str(marked))
    assert read_by_cell == ([[2, 3, 4]] * 2 if quoted else [])
    assert b.covariate_names == a.covariate_names == ["x1"]
    assert np.array_equal(b.pvals, a.pvals)
    assert np.array_equal(b.covariates, a.covariates)


@pytest.mark.parametrize(
    "lines,fragment",
    [
        (["pvalue,x,x", "0.5,1,2"], "duplicate header column"),
        (["p,x", "0.5,1"], 'missing required column "pvalue"'),
        (["pvalue,x1", "0.5,1.0", "0.5,abc"], "line 3"),
        (["pvalue,x1", "0.5,1.0", "0.5,abc"], "'x1'"),
        (["pvalue,x1,x2", "0.5,1.0"], "line 2: expected 3 cells, got 2"),
        (["pvalue,x1,x2", "0.5,1.0"], "'x2'"),
        (["pvalue,x1", "1.5,0.0"], "outside [0, 1]"),
        (["pvalue,x1", "1.5,0.0"], "line 2"),
        (["pvalue,x1"], "no data rows"),
        (["# only a comment"], "empty input file"),
        ([], "empty input file"),
        # numpy's reader strips \x1f around a number, float() does not
        (["pvalue,x1", "0.5,1.0", "0.5,\x1f1.0"], "at line 3, column 'x1'"),
    ],
)
def test_parse_error_messages(tmp_path, lines, fragment):
    path = _write_lines(tmp_path / "bad.csv", lines) if lines else str(tmp_path / "bad.csv")
    if not lines:
        (tmp_path / "bad.csv").write_text("")
    with pytest.raises(CliError) as err:
        parse_table(path)
    assert fragment in str(err.value)


def test_parse_missing_file():
    with pytest.raises(CliError, match="cannot read"):
        parse_table("/no/such/file.csv")


def _parse_outcome(path):
    """Everything parse_table returns, or the message it raises."""
    try:
        table = parse_table(path)
    except CliError as exc:
        return str(exc)
    return (
        table.pvals.tobytes(),
        table.covariates.shape,
        table.covariates.tobytes(),
        table.covariate_names,
        table.n_clamped,
    )


_CELL_FORMATS = (repr, "{:.17e}".format, "{:.6g}".format, "{:+.3E}".format, "{:f}".format)
# malformed for one path or both: float() takes underscores and
# non-ASCII digits, numpy's reader does not; numpy strips \x1f around a
# number, float() does not; \x85 and \u2028 end a line; and p-values
# outside [0, 1], reported only when no cell is malformed
_IRREGULAR_CELLS = (
    "", "abc", "nan", "-inf", "1e400", '"0.5"', "0x1p-2", "1_0", "0.2_5", "\u0663",
    "0.\u0665", "\uff11", "0.5#", "#0.5", "0.5\x1f", "\x1f0.5", "0.5\x85", "\u20280.5",
    "1.5", "-0.5",
)
# every line break str.splitlines honours that a data line may end in;
# \r\n is one break
_LINE_ENDS = ("\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028")
_PADS = ("", " ", "   ", "\u3000", "\xa0")
_FILLERS = ("", "   ", "# note", "  # indented, comment", "\t# 0.5,1", "# a\u2028", "#\x85# two")


@st.composite
def _tables(draw):
    """(text, regular): a random table; regular when no cell is malformed."""
    sep = draw(st.sampled_from([",", "\t"]))
    n_cov = draw(st.integers(0, 3))
    header = [f"x{j}" for j in range(n_cov)]
    p_col = draw(st.integers(0, n_cov))
    header.insert(p_col, "pvalue")
    pad = st.sampled_from(_PADS)
    irregular = draw(st.booleans()) and draw(st.integers(0, 4)) == 0
    lines = [sep.join(header)]
    for _ in range(draw(st.integers(1, 20))):
        cells = []
        for j in range(len(header)):
            if j == p_col:
                value = draw(st.floats(0.0, 1.0))
            else:
                # bounded so that no format rounds a value up to inf
                value = draw(st.floats(-1e300, 1e300))
            text = draw(st.sampled_from(_CELL_FORMATS))(value)
            cells.append(draw(pad) + text + draw(pad))
        if irregular and draw(st.integers(0, 3)) == 0:
            j = draw(st.integers(0, len(cells) - 1))
            if draw(st.booleans()):
                cells[j] = draw(st.sampled_from(_IRREGULAR_CELLS))
            else:
                del cells[j]
        lines.append(sep.join(cells))
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_FILLERS)))
    ends = st.sampled_from(_LINE_ENDS) if draw(st.booleans()) else st.just("\n")
    return "".join(line + draw(ends) for line in lines), not irregular


@settings(max_examples=400, deadline=None)
@given(_tables(), st.sampled_from([1, 2, 7, 64, 1 << 20]))
def test_parse_fast_path_matches_per_cell_parse(tmp_path_factory, drawn, chunk_chars):
    text, regular = drawn
    path = tmp_path_factory.mktemp("parse") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    parse_cells = camt.cli._parse_cells
    read_by_cell = []

    def spy(*args):
        read_by_cell.append(args)
        return parse_cells(*args)

    def whole_text_unclean(f):
        # the reference: the whole text split at once, every cell by float()
        yield 1, f.read().splitlines(), False

    # small chunks carry lines, and a \r\n, across chunk boundaries
    with patch.object(camt.cli, "READ_CHUNK_CHARS", chunk_chars):
        with patch.object(camt.cli, "_parse_cells", spy):
            fast = _parse_outcome(path)
    with patch.object(camt.cli, "_line_chunks", whole_text_unclean):
        per_cell = _parse_outcome(path)
    assert fast == per_cell
    if regular:
        assert read_by_cell == []


def _parse_in_fresh_python(fresh_python, tmp_path, rows):
    """(growth of the peak resident size while parse_table reads a table
    of the given data rows over the peak after import, bytes of the
    returned arrays, line count of each chunk read cell by cell). VmHWM,
    not ru_maxrss: a child's ru_maxrss starts at the peak of the process
    that forked it."""
    in_path = _write_lines(tmp_path / "in.csv", ["# a comment", "pvalue,x1", *rows])
    code = (
        "import re, camt.cli; "
        "status = lambda: open('/proc/self/status').read(); "
        "peak = lambda: int(re.search(r'VmHWM:\\s*(\\d+)', status())[1]) * 1024; "
        "by_cell = []; parse_cells = camt.cli._parse_cells; "
        "camt.cli._parse_cells = lambda lines, *a: "
        "by_cell.append(len(lines)) or parse_cells(lines, *a); "
        "base = peak(); "
        f"table = camt.cli.parse_table({in_path!r}); "
        "print(peak() - base, table.pvals.nbytes + table.covariates.nbytes, *by_cell)"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    growth, parsed_bytes, *by_cell = map(int, proc.stdout.split())
    return growth, parsed_bytes, by_cell


def _random_rows(m, seed):
    rng = np.random.default_rng(seed)
    return [f"{p!r},{x!r}" for p, x in rng.random((m, 2)).tolist()]


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_parse_memory_stays_near_the_parsed_arrays(fresh_python, tmp_path):
    # growth of the peak resident size while parsing a 2e5-row table:
    # the streaming parse holds the parsed values, the returned arrays
    # and a few chunks of text (2.2x the returned arrays' bytes,
    # measured); a whole-text parse with a Python float per cell grew 34x
    growth, parsed_bytes, by_cell = _parse_in_fresh_python(
        fresh_python, tmp_path, _random_rows(200_000, seed=63)
    )
    assert parsed_bytes == 200_000 * 2 * 8
    assert growth < 4 * parsed_bytes
    assert by_cell == []


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_parse_reads_only_the_chunk_with_a_quoted_cell_cell_by_cell(fresh_python, tmp_path):
    # one quoted cell sends one chunk of 64 Ki characters through
    # float(), not the whole table; a whole-text re-read of the table
    # grew the peak 16x the returned arrays' bytes
    rows = _random_rows(200_000, seed=64)
    rows[100_000] = rows[100_000].replace(",", ',"', 1) + '"'
    growth, parsed_bytes, by_cell = _parse_in_fresh_python(fresh_python, tmp_path, rows)
    assert parsed_bytes == 200_000 * 2 * 8
    assert growth < 4 * parsed_bytes
    assert len(by_cell) == 1 and 0 < by_cell[0] < 2000


@pytest.mark.parametrize("end", ["\u2028", "\x85"])
def test_parse_cuts_chunks_after_any_line_break(tmp_path, monkeypatch, end):
    # a chunk is cut after its last line break of any kind, so a table
    # whose lines end in U+2028 or \x85 streams in chunks of about
    # READ_CHUNK_CHARS characters, as one whose lines end in \n does,
    # and is not carried whole as one growing tail
    monkeypatch.setattr(camt.cli, "READ_CHUNK_CHARS", 256)
    rows = ["pvalue,x1", *_random_rows(500, seed=65)]
    want = parse_table(_write_lines(tmp_path / "n.csv", rows))
    path = tmp_path / "t.csv"
    path.write_text("".join(row + end for row in rows), encoding="utf-8")
    got = parse_table(str(path))
    assert got.pvals.tobytes() == want.pvals.tobytes()
    assert got.covariates.tobytes() == want.covariates.tobytes()
    with open(path, encoding="utf-8") as f:
        chunks = list(camt.cli._line_chunks(f))
    assert [line for _, lines, _ in chunks for line in lines] == rows
    assert [start for start, _, _ in chunks] == list(
        np.cumsum([1] + [len(lines) for _, lines, _ in chunks[:-1]])
    )
    longest = max(map(len, rows))
    for _, lines, _ in chunks:
        assert sum(len(line) + 1 for line in lines) <= 256 + longest + 1


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_fit_command_memory_stays_near_the_fit(fresh_python, tmp_path):
    # growth of the peak resident size over a whole `camt fit` of 2e5
    # rows (parse, EM, select, write), over the peak after import, in
    # m-vectors of 8 * m bytes: measured 16.5, of which EM's own working
    # set is 11; 18.1 while the k link's slope and curvature each took a
    # temporary and the writer formatted blocks of 4096 rows a column at
    # a time, 20.7 while EM kept a superseded link through each line
    # search, the pipeline a clamped copy of p and the writer blocks of
    # 8192 rows.
    m = 200_000
    in_path, _ = _dataset_table(tmp_path / "in.csv", m, seed=3)
    out_path = tmp_path / "out.csv"
    code = (
        "import re, camt.cli; "
        "status = lambda: open('/proc/self/status').read(); "
        "peak = lambda: int(re.search(r'VmHWM:\\s*(\\d+)', status())[1]) * 1024; "
        "base = peak(); "
        f"code = camt.cli.main(['fit', '--input', {in_path!r}, '--output', {str(out_path)!r}]); "
        "print(code, peak() - base)"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    exit_code, growth = map(int, proc.stdout.splitlines()[-1].split())
    assert exit_code == 0
    assert growth / (8 * m) < 19.5


def _long_table_lines(m=5000):
    rng = np.random.default_rng(61)
    rows = [f"{p!r},{a!r},{b!r}" for p, a, b in rng.random((m, 3)).tolist()]
    return ["# a comment shifts line numbers", "pvalue,x1,x2", *rows]


@pytest.mark.parametrize(
    "edit,message",
    [
        ({4321: "0.5,1.0,abc"}, "non-numeric value 'abc' at line 4324, column 'x2'"),
        ({3000: "0.5, nan ,1.0"}, "non-numeric value 'nan' at line 3003, column 'x1'"),
        # one short row and one long row: the total cell count still fits
        (
            {2000: "0.5,1.0", 2001: "0.5,1.0,2.0,3.0"},
            "line 2003: expected 3 cells, got 2 (missing value for column 'x2')",
        ),
        ({4999: '0.5,"1.0",'}, "non-numeric value '' at line 5002, column 'x2'"),
        ({10: "1.5,0.0,0.0"}, "line 13: p-value 1.5 outside [0, 1]"),
    ],
)
def test_parse_errors_on_long_tables_name_line_and_column(tmp_path, edit, message):
    lines = _long_table_lines()
    for row, line in edit.items():
        lines[2 + row] = line
    with pytest.raises(CliError) as err:
        parse_table(_write_lines(tmp_path / "t.csv", lines))
    assert str(err.value) == message


# ----------------------------------------------------------------------
# fit command


def _read_fit_output(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_fit_round_trip(tmp_path, capsys):
    # an exact 0 and 1 are clamped into (0, 1) and counted; the 1 is a
    # mirror at every t > 0, and this draw rejects at alpha 0.1 still
    data = generate(SimulationConfig(setup="S0", m=1200, seed=33), 0)
    data.pvals[:2] = 0.0, 1.0
    in_path = _write_table(tmp_path / "in.csv", data.pvals, data.covariates)
    table = parse_table(in_path)
    for mixed, knots in ((False, 0), (True, 3)):
        out_a, out_b = tmp_path / f"a-{knots}.csv", tmp_path / f"b-{knots}.csv"
        args = ["fit", "--input", in_path, "--alpha", "0.1", "--spline-knots", str(knots)]
        args += ["--mixed"] if mixed else []
        assert main([*args, "--output", str(out_a)]) == 0
        assert "rejections=" in capsys.readouterr().out
        assert main([*args, "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

        fit, oracle = run_camt(
            table.pvals, table.covariates, alpha=0.1, spline_knots=knots, mixed=mixed
        )
        meta, header, rows = _read_fit_output(out_a)
        assert meta["m"] == "1200"
        assert meta["n_clamped"] == "2"
        assert meta["alpha"] == "0.1"
        assert meta["seed"] == "none"
        assert meta["mixed"] == str(mixed).lower()
        t_hat, fdp_hat = float(meta["t_hat"]), float(meta["fdp_hat"])
        n_rejections = int(meta["n_rejections"])
        assert (t_hat, fdp_hat) == (oracle.t_hat, oracle.fdp_hat)
        assert n_rejections == oracle.n_rejections
        # the selection's own promises, read off the file alone
        assert n_rejections > 0 and fdp_hat <= 0.1
        assert round(fdp_hat * n_rejections, 9) >= 1
        assert [r[6] for r in rows] == [str(int(float(r[5]) <= t_hat)) for r in rows]
        assert meta["em_converged"] in ("true", "false")
        assert header == ["index", "pvalue", "x1", "pi0_hat", "k_hat", "psi_stat", "rejected"]
        assert len(rows) == 1200
        assert [int(r[0]) for r in rows] == list(range(1200))
        assert np.array_equal(np.array([float(r[1]) for r in rows]), table.pvals)
        assert np.array_equal(np.array([float(r[3]) for r in rows]), fit.fitted.pi_hat)
        assert np.array_equal(np.array([float(r[4]) for r in rows]), fit.fitted.k_hat)
        # psi_stat is psi(p) on every row; the mirror statistics are entry times
        psi_stat = psi(table.pvals, fit.fitted.pi_hat, fit.fitted.k_hat)
        assert np.array_equal(np.array([float(r[5]) for r in rows]), psi_stat)
        assert np.array_equal(fit.stats.s, np.where(table.pvals < 0.5, psi_stat, np.inf))
        assert np.array_equal(np.array([int(r[6]) for r in rows]), oracle.rejected.astype(int))


def _reference_body(table, fit, result):
    """The column-name row and data rows as the per-row csv writer
    camt fit used before block writing produced them, with psi_stat
    psi(p)."""
    psi_stat = psi(table.pvals, fit.fitted.pi_hat, fit.fitted.k_hat)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["index", "pvalue", *table.covariate_names, "pi0_hat", "k_hat", "psi_stat", "rejected"]
    )
    for i in range(table.pvals.size):
        writer.writerow(
            [
                i,
                repr(float(table.pvals[i])),
                *(repr(float(v)) for v in table.covariates[i]),
                repr(float(fit.fitted.pi_hat[i])),
                repr(float(fit.fitted.k_hat[i])),
                repr(float(psi_stat[i])),
                int(result.rejected[i]),
            ]
        )
    return out.getvalue()


@pytest.mark.parametrize("mixed", [False, True])
def test_fit_output_matches_per_row_writer(tmp_path, capsys, monkeypatch, mixed):
    data = generate(SimulationConfig(setup="S0", m=1300, seed=36), 0)
    c = data.covariates[:, 0]
    rng = np.random.default_rng(36)
    # covariates in each of repr's forms (d.ddd, 0.000ddd, ddd.0 and
    # d.ddde+XX / d.ddde-XX) and values the vectorized writer hands to
    # repr itself (exact zeros, powers of two)
    pow2 = 2.0 ** rng.integers(-3, 4, 1300)
    x = np.column_stack([c, -1e-7 * c, np.round(1000 * c), 1.5e20 * c, pow2, np.zeros(1300)])
    # a name with the delimiter in it must be quoted in the column-name row
    names = ["x", '"a,b"', "thousands", "huge", "pow2", "zero"]
    in_path = _write_table(tmp_path / "in.csv", data.pvals, x, names=names)
    monkeypatch.setattr(camt.cli, "WRITE_BLOCK_ROWS", 500)  # three blocks, the last partial
    out = tmp_path / "o.csv"
    args = ["fit", "--input", in_path, "--alpha", "0.2", "--output", str(out)]
    assert main(args + ["--mixed"] if mixed else args) == 0
    capsys.readouterr()

    table = parse_table(in_path)
    fit, result = run_camt(table.pvals, table.covariates, alpha=0.2, mixed=mixed)
    assert result.n_rejections > 0
    text = out.read_text()
    body = text[text.index("\nindex,") + 1 :]
    assert body == _reference_body(table, fit, result)
    forms = (
        r",-?[1-9]\d*\.\d*[1-9],",  # dd.ddd
        r",0\.000[1-9]\d*,",  # 0.000ddd
        r",-?[1-9]\d*\.0,",  # ddd.0
        r",-?\d\.\d+e\+\d\d,",  # d.ddde+XX
        r",-?\d\.\d+e-\d\d,",  # d.ddde-XX
        r",0\.0,",  # an exact zero
        r",0\.125,",  # a power of two
    )
    for form in forms:
        assert re.search(form, body), form


@pytest.mark.parametrize(
    "column,knots,message",
    [
        (np.arange(1200) * 1e300, "0", "covariate 'big': mean or standard deviation is not finite"),
        (np.arange(1200) % 3 == 0, "3", "covariate 'big': too few distinct values for a 3-knot spline"),
        (np.arange(1200) % 2, "3", "covariate 'big': too few distinct values for a 3-knot spline"),
    ],
)
def test_fit_names_an_unusable_covariate(tmp_path, capsys, column, knots, message):
    rng = np.random.default_rng(37)
    x = np.column_stack([rng.standard_normal(1200), column])
    in_path = _write_table(tmp_path / "in.csv", rng.random(1200), x, names=["x", "big"])
    out = str(tmp_path / "o.csv")
    assert main(["fit", "--input", in_path, "--spline-knots", knots, "--output", out]) == 1
    assert message in capsys.readouterr().err


def test_fit_reports_fit_warnings_in_its_own_format(tmp_path, capsys):
    # on this complete null (uniform p-values, a noise covariate) EM
    # runs to MAX_ITER without converging
    rng = np.random.default_rng(0)
    in_path = _write_table(tmp_path / "in.csv", rng.random(2000), rng.random((2000, 1)))
    assert main(["fit", "--input", in_path, "--output", str(tmp_path / "o.csv")]) == 0
    err = capsys.readouterr().err
    assert f"warning: EM did not converge within {MAX_ITER} iterations" in err.splitlines()
    assert "RuntimeWarning" not in err
    assert ".py:" not in err


def test_fit_accepts_a_psi_statistic_of_one(tmp_path, capsys):
    # the fit of this complete-null replicate rounds psi to 1.0 at p = 0.72
    data = generate(SimulationConfig(setup="complete-null", m=500, seed=0), 94)
    in_path = _write_table(tmp_path / "in.csv", data.pvals, data.covariates)
    out = tmp_path / "o.csv"
    for extra in ([], ["--mixed"]):
        assert main(["fit", "--input", in_path, "--output", str(out), *extra]) == 0
        assert "runtime failure" not in capsys.readouterr().err
        psi_stat = [l.split(",")[-2] for l in out.read_text().splitlines()[-500:]]
        assert "1.0" in psi_stat


def test_fit_mixed_rejects_nothing_from_all_null_pvalues(tmp_path, capsys):
    # the seed-0 case of the pipeline test, through the CLI
    rng = np.random.default_rng(0)
    in_path = _write_table(tmp_path / "in.csv", rng.random(2000), rng.standard_normal((2000, 1)))
    out = tmp_path / "o.csv"
    assert main(["fit", "--input", in_path, "--mixed", "--output", str(out)]) == 0
    assert "rejections=0," in capsys.readouterr().out
    meta, _, rows = _read_fit_output(out)
    assert meta["mixed"] == "true" and meta["alpha"] == "0.05"
    assert (meta["n_rejections"], meta["t_hat"], meta["fdp_hat"]) == ("0", "0.0", "1.0")
    assert len(rows) == 2000 and all(r[-1] == "0" for r in rows)


def test_fit_refuses_tiny_tables(tmp_path, capsys):
    in_path, _ = _dataset_table(tmp_path / "in.csv", 150, seed=32)
    assert main(["fit", "--input", in_path, "--output", str(tmp_path / "o.csv")]) == 1
    assert "too few hypotheses" in capsys.readouterr().err


def test_fit_warns_on_small_tables(tmp_path, capsys):
    # the fit's one small-m warning, fewer than 10 hypotheses per design
    # column, scales with the design: two covariates with 20 knots each
    # make 39 columns, where the raw columns make 3; EM converges on this
    # draw, so no other warning is printed
    in_path, _ = _dataset_table(tmp_path / "in.csv", 300, seed=34, setup="S2")
    out = str(tmp_path / "o.csv")
    assert main(["fit", "--input", in_path, "--spline-knots", "20", "--output", out]) == 0
    warned = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
    assert warned == [
        "warning: only 300 hypotheses for 39 design columns; estimates will be unstable"
    ]
    assert main(["fit", "--input", in_path, "--output", out]) == 0
    assert "warning" not in capsys.readouterr().err


def test_fit_option_validation(tmp_path, capsys):
    in_path, _ = _dataset_table(tmp_path / "in.csv", 1200, seed=34)
    out = str(tmp_path / "o.csv")
    assert main(["fit", "--input", in_path, "--alpha", "1.5", "--output", out]) == 1
    assert main(["fit", "--input", in_path, "--spline-knots", "1", "--output", out]) == 1
    capsys.readouterr()


def test_fit_alpha_follows_the_library_rule(tmp_path, capsys):
    # one rule for the CLI, the sweep and the selectors: alpha in (0, 1]
    in_path, _ = _dataset_table(tmp_path / "in.csv", 1200, seed=36)
    out = tmp_path / "o.csv"
    for bad in ("0", "1.5", "nan"):
        assert main(["fit", "--input", in_path, "--alpha", bad, "--output", str(out)]) == 1
        assert "error: alpha must lie in (0, 1]" in capsys.readouterr().err
    assert not out.exists()
    assert main(["fit", "--input", in_path, "--alpha", "1", "--output", str(out)]) == 0
    capsys.readouterr()
    meta, _, rows = _read_fit_output(out)
    assert meta["alpha"] == "1.0" and float(meta["fdp_hat"]) <= 1.0
    assert len(rows) == 1200


def test_fit_checks_its_options_before_reading_the_table(tmp_path, capsys):
    # the rules are the library's, and a bad option fails before the parse:
    # the input does not exist, yet the option is what is reported
    missing, out = str(tmp_path / "missing.csv"), tmp_path / "o.csv"
    for option, message in (
        (["--alpha", "0"], "alpha must lie in (0, 1]"),
        (["--spline-knots", "1"], "spline_knots must be 0 or between 2 and 20"),
        (["--spline-knots", "21"], "spline_knots must be 0 or between 2 and 20"),
    ):
        assert main(["fit", "--input", missing, *option, "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_fit_with_noise_covariate_tracks_adaptive_baseline(tmp_path, capsys):
    # an uninformative covariate must not pull the fit far from what the
    # p-values alone support; tolerance gauged over 8 draws, worst
    # overlap 0.74
    rng = np.random.default_rng(1001)
    m = 3000
    is_alt = rng.random(m) < 0.12
    p = np.where(is_alt, rng.beta(0.25, 1.0, m), rng.random(m))
    x = rng.standard_normal((m, 1))
    in_path = _write_table(tmp_path / "in.csv", p, x)
    out = tmp_path / "o.csv"
    assert main(["fit", "--input", in_path, "--alpha", "0.1", "--output", str(out)]) == 0
    capsys.readouterr()
    _, _, rows = _read_fit_output(out)
    camt_mask = np.array([int(r[6]) for r in rows], dtype=bool)
    st_mask = storey(parse_table(in_path).pvals, 0.1)
    union = np.count_nonzero(camt_mask | st_mask)
    sym_diff = np.count_nonzero(camt_mask ^ st_mask)
    assert union > 0
    assert 1.0 - sym_diff / union >= 0.5
    assert 0.5 <= camt_mask.sum() / st_mask.sum() <= 2.0


# ----------------------------------------------------------------------
# simulate command


def _mask_timings(text):
    """Drop the two timing columns, prepare_ms and select_ms."""
    lines = text.splitlines()
    out = []
    for line in lines:
        if line.startswith(("#", "setup,")):
            out.append(line)
        else:
            out.append(line.rsplit(",", 2)[0])
    return out


def test_simulate_smoke_and_determinism(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "simulate",
        "--setup", "complete-null",
        "--m", "2000",
        "--reps", "5",
        "--seed", "3",
        "--alpha-grid", "0.05,0.1",
        "--procedures", "bh", "storey",
    ]
    assert main([*args, "--output", str(out_a)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("fdp=") == 4  # 2 procedures x 2 alphas
    assert main([*args, "--output", str(out_b)]) == 0
    capsys.readouterr()
    assert _mask_timings(out_a.read_text()) == _mask_timings(out_b.read_text())
    data_rows = [
        l for l in out_a.read_text().splitlines() if not l.startswith(("#", "setup,"))
    ]
    assert len(data_rows) == 5 * 2 * 2


def test_simulate_oracle_rejects_s1_alternatives_whose_p_value_rounds_to_zero(tmp_path, capsys):
    # at k_s = 120 every alternative's p-value underflows to 0; the oracle
    # read them back at z = 38.47, where the gamma density is 0, and its
    # row read tpr 0.0. It reads the drawn z
    out_path = tmp_path / "o.csv"
    args = ["simulate", "--setup", "S1", "--ks", "120", "--m", "500", "--reps", "1"]
    assert main([*args, "--procedures", "oracle", "--output", str(out_path)]) == 0
    capsys.readouterr()
    rows = [l for l in out_path.read_text().splitlines() if l.startswith("S1,oracle,")]
    assert len(rows) == 1
    assert rows[0].split(",")[5] == "1.0"


def test_simulate_rejects_unknown_setup(tmp_path, capsys):
    code = main(
        ["simulate", "--setup", "S9", "--reps", "1", "--output", str(tmp_path / "o.csv")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_refuses_an_s1_effect_without_a_gamma_law(tmp_path, capsys):
    # k_s <= sqrt(2) has no unit-variance non-central gamma, and 3e9 one
    # whose non-centrality rng.poisson refuses (it failed inside the sweep
    # with exit code 2); both are refused before the sweep starts
    out_path = tmp_path / "o.csv"
    for k_s, message in (
        ("1.2", "mean must exceed sqrt(2) for a valid non-centrality"),
        (
            "3e9",
            "mean must give a non-centrality below numpy's Poisson limit "
            "9.223372006484771e+18, so at most about 2.147e9",
        ),
    ):
        code = main(
            [
                "simulate",
                "--setup", "S1",
                "--ks", k_s,
                "--reps", "1",
                "--output", str(out_path),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_path.exists()


@pytest.mark.parametrize("option, field", [("--kd", "k_d"), ("--ks", "k_s")])
def test_simulate_refuses_a_non_finite_parameter(tmp_path, capsys, monkeypatch, option, field):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("camt.simulation.run_sweep", no_sweep)
    out_path = tmp_path / "o.csv"
    args = ["simulate", "--setup", "S0", "--m", "500", "--reps", "1", option, "nan"]
    assert main([*args, "--output", str(out_path)]) == 1
    assert capsys.readouterr().err == f"error: {field} must be finite\n"
    assert not out_path.exists()


def test_simulate_rejects_bad_alpha_grid(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--setup", "S0",
            "--reps", "1",
            "--alpha-grid", "0.05,high",
            "--output", str(tmp_path / "o.csv"),
        ]
    )
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_simulate_rejects_unknown_procedure(tmp_path, capsys):
    out_path = tmp_path / "o.csv"
    code = main(
        [
            "simulate",
            "--setup", "S0",
            "--reps", "1",
            "--procedures", "camt", "foo",
            "--output", str(out_path),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown procedure 'foo'" in err
    assert "camt, camt-mixed, bh, storey, oracle" in err
    assert not out_path.exists()


@pytest.mark.parametrize("names", [[""], [","], ["", " , "]])
def test_simulate_refuses_an_empty_procedure_list(tmp_path, capsys, monkeypatch, names):
    monkeypatch.setattr(camt.simulation, "generate", lambda *args: pytest.fail("a replicate ran"))
    out_path = tmp_path / "o.csv"
    args = ["simulate", "--setup", "S0", "--m", "500", "--reps", "1", "--procedures", *names]
    assert main([*args, "--output", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no procedure to run; choose from camt, camt-mixed, bh")
    assert not out_path.exists()


@pytest.mark.parametrize("names", [["storey,st"], ["bh", "bh"], ["camt", "oracle,camt"]])
def test_simulate_refuses_a_procedure_named_twice(tmp_path, capsys, monkeypatch, names):
    monkeypatch.setattr(camt.simulation, "generate", lambda *args: pytest.fail("a replicate ran"))
    out_path = tmp_path / "o.csv"
    args = ["simulate", "--setup", "S0", "--m", "500", "--reps", "1", "--procedures", *names]
    assert main([*args, "--output", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert re.match(r"error: procedure '(storey|bh|camt)' is named more than once", err), err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--seed", "-1", "seed must be an integer of at least 0, got -1"),
        ("--alpha-grid", "0.05,0.05", "level 0.05 appears more than once in alpha_grid"),
        ("--alpha-grid", "0.05,0.050", "level 0.05 appears more than once in alpha_grid"),
    ],
    ids=["negative-seed", "level-twice", "level-twice-spelled-apart"],
)
def test_simulate_refuses_a_negative_seed_or_a_level_named_twice(
    tmp_path, capsys, monkeypatch, option, value, message
):
    monkeypatch.setattr(camt.simulation, "generate", lambda *args: pytest.fail("a replicate ran"))
    out_path = tmp_path / "o.csv"
    args = ["simulate", "--setup", "S0", "--m", "500", "--reps", "3", "--procedures", "bh"]
    assert main([*args, option, value, "--output", str(out_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_path.exists()


def test_simulate_defaults_to_the_default_procedures(tmp_path, capsys):
    out_path = tmp_path / "o.csv"
    args = ["simulate", "--setup", "S0", "--m", "1000", "--reps", "1"]
    assert main([*args, "--output", str(out_path)]) == 0
    capsys.readouterr()
    text = out_path.read_text()
    assert f"# procedures: {','.join(DEFAULT_PROCEDURES)}\n" in text
    rows = [l for l in text.splitlines() if not l.startswith(("#", "setup,"))]
    assert [row.split(",")[1] for row in rows] == list(DEFAULT_PROCEDURES)


def test_simulate_names_a_malformed_thread_count(tmp_path, capsys, monkeypatch):
    # only ASCII digits are a count: int() took "1_6" as 16 and " +2 " as 2
    out_path = tmp_path / "o.csv"
    args = ["simulate", "--setup", "S0", "--m", "1000", "--reps", "1"]
    for env in ("abc", "1_6", " +2 ", "\uff12", "\u0663"):
        monkeypatch.setenv("CAMT_THREADS", env)
        assert main([*args, "--output", str(out_path)]) == 1
        assert f"error: CAMT_THREADS must be an integer, got {env!r}" in capsys.readouterr().err
        assert not out_path.exists()


def test_simulate_refuses_a_negative_thread_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CAMT_THREADS", "-1")
    out_path = tmp_path / "o.csv"
    args = ["simulate", "--setup", "S0", "--m", "500", "--reps", "1"]
    assert main([*args, "--output", str(out_path)]) == 1
    assert "error: CAMT_THREADS must be an integer of at least 0, got -1" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_unwritable_output_exits_one(tmp_path, capsys, monkeypatch, command):
    out_path = tmp_path / "missing-dir" / "o.csv"
    calls = []

    def work(*args, **kwargs):
        calls.append(args)
        raise AssertionError("unreachable")

    # the output is checked before the input is parsed or anything fitted
    if command == "fit":
        in_path, _ = _dataset_table(tmp_path / "in.csv", 1200, seed=61)
        args = ["fit", "--input", in_path]
        monkeypatch.setattr(camt.cli, "parse_table", work)
        monkeypatch.setattr(camt.cli, "run_camt", work)
    else:
        args = ["simulate", "--setup", "S0", "--m", "1000", "--reps", "1", "--procedures", "bh"]
        monkeypatch.setattr(camt.simulation, "run_sweep", work)
    assert main([*args, "--output", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {out_path}: " in err
    assert "No such file or directory" in err
    assert calls == []
    assert not out_path.parent.exists()


def test_output_that_is_a_directory_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(camt.cli, "parse_table", lambda path: pytest.fail("parsed"))
    assert main(["fit", "--input", "unread.csv", "--output", str(tmp_path)]) == 1
    assert f"error: cannot write {tmp_path}: [Errno 21] Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "diagnose"])
@pytest.mark.parametrize("bad_row", [3, 1150])
def test_undecodable_input_exits_one(tmp_path, capsys, monkeypatch, command, bad_row):
    # row 1150 lies chunks past the header, so the decoding error comes
    # up while numpy's reader pulls lines
    monkeypatch.setattr(camt.cli, "READ_CHUNK_CHARS", 256)
    in_path, _ = _dataset_table(tmp_path / "in.csv", 1200, seed=62)
    lines = Path(in_path).read_bytes().split(b"\n")
    lines[1 + bad_row] = lines[1 + bad_row].replace(b",", b",\xff\xfe", 1)
    Path(in_path).write_bytes(b"\n".join(lines))
    out = ["--output", str(tmp_path / "o.csv")] if command == "fit" else []
    assert main([command, "--input", in_path, *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {in_path}: ")
    assert "can't decode byte 0xff" in err
    assert not (tmp_path / "o.csv").exists()


def test_undecodable_byte_after_a_malformed_cell_is_reported(tmp_path, monkeypatch):
    # the whole text must decode, wherever the first malformed cell lies
    monkeypatch.setattr(camt.cli, "READ_CHUNK_CHARS", 256)
    lines = _long_table_lines(1200)
    lines[5] = "0.5,abc,1.0"
    path = tmp_path / "t.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode() + b"0.5,\xff,1.0\n")
    with pytest.raises(CliError, match=r"^cannot read .*can't decode byte 0xff"):
        parse_table(str(path))


# ----------------------------------------------------------------------
# diagnose command


def test_diagnose_reports_fields(tmp_path, capsys):
    rng = np.random.default_rng(47)
    p = rng.random(400)
    p[:2] = 0.0, 1.0
    in_path = _write_table(tmp_path / "in.csv", p)
    assert main(["diagnose", "--input", in_path]) == 0
    out = capsys.readouterr().out
    assert "m: 400" in out.splitlines()
    assert "n_clamped: 2" in out.splitlines()
    assert "gif: " in out
    assert "n_pvalues_used: " in out
    assert "histogram_bins: 20" in out
    counts_line = [l for l in out.splitlines() if l.startswith("histogram_counts: ")][0]
    counts = [int(c) for c in counts_line.split(": ")[1].split(",")]
    assert len(counts) == 20
    assert sum(counts) == 400


def test_diagnose_with_too_few_tail_pvalues(tmp_path, capsys):
    in_path = _write_table(tmp_path / "in.csv", np.full(150, 0.01))
    assert main(["diagnose", "--input", in_path]) == 0
    out = capsys.readouterr().out
    assert "gif: na (insufficient data" in out


def test_diagnose_warns_on_inflation(tmp_path, capsys):
    rng = np.random.default_rng(53)
    import scipy.stats

    p = scipy.stats.norm.sf(rng.standard_normal(10_000) + 0.15)
    in_path = _write_table(tmp_path / "in.csv", p)
    assert main(["diagnose", "--input", in_path]) == 0
    out = capsys.readouterr().out
    assert "warn: true" in out
    assert "not trustworthy" in out


# ----------------------------------------------------------------------
# exit codes


def test_unexpected_failure_exits_two(tmp_path, capsys, monkeypatch):
    import camt.cli

    def boom(*args, **kwargs):
        raise RuntimeError("singular matrix")

    monkeypatch.setattr(camt.cli, "run_camt", boom)
    in_path, _ = _dataset_table(tmp_path / "in.csv", 1200, seed=35)
    code = main(["fit", "--input", in_path, "--output", str(tmp_path / "o.csv")])
    assert code == 2
    assert "runtime failure: RuntimeError" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main(["fit"]) == 1  # missing required options
    assert main(["frobnicate"]) == 1  # unknown command
    assert main([]) == 1  # missing subcommand
    capsys.readouterr()


@pytest.fixture(scope="module")
def modules_loaded_by_fit_and_diagnose(fresh_python, tmp_path_factory):
    """The scipy, numpy.ma, statistics-family and camt modules one child
    Python holds after fit (plain, mixed, with spline knots and both) and
    diagnose, as four printed lists."""
    tmp_path = tmp_path_factory.mktemp("module_loads")
    rng = np.random.default_rng(59)
    in_path = _write_table(tmp_path / "in.csv", rng.random(1000), rng.random((1000, 1)))
    out = str(tmp_path / "o.csv")
    knots = ["--spline-knots", "3"]
    runs = [
        ["fit", "--input", in_path, "--output", out, *options]
        for options in ([], ["--mixed"], knots, [*knots, "--mixed"])
    ] + [["diagnose", "--input", in_path]]
    code = (
        "import sys, camt.cli; "
        "assert 'numpy.ma' not in sys.modules; "
        f"assert [camt.cli.main(args) for args in {runs!r}] == [0] * {len(runs)}; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma'])); "
        "print(sorted(m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules)); "
        "print(sorted(m for m in sys.modules if m.startswith('camt.')))"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-4:]


def test_fit_and_diagnose_load_no_scipy(modules_loaded_by_fit_and_diagnose):
    # no camt module imports scipy (see test_simulate_runs_with_scipy_blocked);
    # this pins the fit and diagnose paths, spline knots and mixed mode included
    scipy, _, _, _ = modules_loaded_by_fit_and_diagnose
    assert scipy == "[]"


def test_plain_fit_and_diagnose_load_no_numpy_ma(modules_loaded_by_fit_and_diagnose):
    # importing numpy.ma costs 8-13 ms and 1.25 MB of peak resident
    # memory; np.quantile and np.unique load it, and the fit paths use
    # neither, so no fit nor diagnose may; nor statistics, with the
    # fractions and decimal it imports: the gif evaluates AS241's central
    # rational itself
    _, numpy_ma, statistics, _ = modules_loaded_by_fit_and_diagnose
    assert [numpy_ma, statistics] == ["[]", "[]"]


def test_fit_and_diagnose_load_no_simulation_module(modules_loaded_by_fit_and_diagnose):
    # the special functions, the simulation harness and its baselines
    # serve `camt simulate` alone
    *_, camt_modules = modules_loaded_by_fit_and_diagnose
    loaded = set(ast.literal_eval(camt_modules))
    assert "camt.diagnostics" in loaded
    assert not loaded & {"camt._special", "camt.simulation", "camt.baselines"}


def test_fit_writes_utf8_under_an_ascii_locale(fresh_python, tmp_path):
    # the input is read as UTF-8 whatever the locale, so the output is
    # written as UTF-8 too: under the C locale a non-ASCII covariate name
    # used to fail the header write after the whole fit (exit 2)
    rng = np.random.default_rng(60)
    m = 1200
    x = rng.random(m)
    p = np.where(rng.random(m) < 0.1 + 0.3 * x, rng.beta(0.2, 2.0, m), rng.random(m))
    in_path = tmp_path / "in.csv"
    in_path.write_text(
        "pvalue,größe\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(p.tolist(), x.tolist())),
        encoding="utf-8",
    )
    out = tmp_path / "o.csv"
    code = (
        "import sys, camt.cli; "
        f"sys.exit(camt.cli.main(['fit', '--input', {str(in_path)!r}, '--output', {str(out)!r}]))"
    )
    locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = fresh_python("-c", code, **locale)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text(encoding="utf-8").splitlines()
    assert "index,pvalue,größe,pi0_hat,k_hat,psi_stat,rejected" in lines
    assert len(lines) - lines.index("index,pvalue,größe,pi0_hat,k_hat,psi_stat,rejected") == m + 1


def test_simulate_runs_with_scipy_blocked(fresh_python, tmp_path):
    # sys.modules["scipy"] = None makes every scipy import fail: the
    # harness runs S1 (the non-central gamma density), S2 and S3.3 (the
    # AR(1) noise) through all five procedures on camt's own special
    # functions, in the sweep's pool workers too
    out = tmp_path / "sweep.csv"
    code = (
        "import sys; sys.modules['scipy'] = None; import camt.cli; "
        "setups = ('S1', 'S2', 'S3.3'); "
        "codes = [camt.cli.main(['simulate', '--setup', s, '--m', '2000', '--reps', '2', "
        "'--alpha-grid', '0.05,1', '--procedures', 'camt,camt-mixed,bh', 'storey', 'oracle', "
        f"'--output', {str(out)!r}]) for s in setups]; "
        "assert codes == [0, 0, 0], codes; "
        "print(sorted(m for m, mod in sys.modules.items() if m.startswith('scipy') and mod))"
    )
    proc = fresh_python("-c", code, timeout=300, CAMT_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert proc.stdout.count("fdp=") == 3 * 5 * 2  # setups x procedures x alphas
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
    assert {r[0] for r in rows[1:]} == {"S3.3"}
    assert {r[1] for r in rows[1:]} == {"camt", "camt-mixed", "bh", "storey", "oracle"}
    # at alpha = 1 BH rejects every hypothesis
    assert {r[6] for r in rows[1:] if r[1] == "bh" and r[2] == "1.0"} == {"2000"}


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


# ----------------------------------------------------------------------
# a real process: the exit status entry() gives and the CPUs the OS grants


@pytest.mark.parametrize(
    "setup, options, env, status",
    [
        ("S0", [], {}, 0),
        ("S0", ["--kd", "nan"], {}, 1),
        ("S0", [], {"CAMT_THREADS": "1_6"}, 1),
        ("S1", ["--ks", "3e9"], {}, 1),
    ],
    ids=["small-sweep", "kd-nan", "threads-with-underscore", "ks-past-the-poisson-limit"],
)
def test_python_m_camt_exits_with_mains_status(
    fresh_python, tmp_path, setup, options, env, status
):
    # main() returns the status; only entry()'s sys.exit makes it the
    # process's, and a refusal leaves no output file behind
    out = tmp_path / "sweep.csv"
    args = ["simulate", "--setup", setup, "--m", "500", "--reps", "1", "--procedures", "bh"]
    args += ["--alpha-grid", "0.05,0.1", *options, "--output", str(out)]
    proc = fresh_python("-m", "camt", *args, **env)
    assert proc.returncode == status, proc.stderr
    if status == 0:
        rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "setup,"))]
        assert len(rows) == 2  # one replicate, bh at two levels
    else:
        assert proc.stderr.startswith("error: ")
        assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity mask here")
def test_resolve_workers_counts_the_cpus_the_process_may_run_on(fresh_python):
    # a process pinned to one CPU gets one worker, however many the host has
    code = (
        "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "from camt.simulation import resolve_workers; print(resolve_workers())"
    )
    proc = fresh_python("-c", code, CAMT_THREADS="")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]
