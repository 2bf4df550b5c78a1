"""Property tests: no byte string makes the Matrix Market reader or the CLI
fail with anything but MatrixMarketError and exit code 2, and no invalid
flag value gets the CLI past argument checking."""
import contextlib
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import altsplit.schemes
from altsplit import MatrixMarketError, read_matrix_market, write_matrix_market, write_vector
from altsplit.cli import main

SIZES = st.sampled_from([0, 1, 2, 3, 4, 50, -1])
VALUES = st.one_of(st.floats().map(repr), st.integers(-3, 3).map(str))
NOISE = st.sampled_from(["", "% note", "x", "1 2", "1 1 1 1", "1 1 x", "\xe9"])
OFF_BY = st.sampled_from([0] * 8 + [1, -1])  # mostly right, sometimes off by one


@st.composite
def well_formed(draw):
    """A valid header and a size line of at most 50 x 50 over a random body.

    Counts are mostly right and entries mostly in range, so the deep paths
    are reached; no example allocates more than 20 KiB.
    """
    fmt = draw(st.sampled_from(["array", "coordinate"]))
    field = draw(st.sampled_from(["real", "integer"]))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    rows = draw(SIZES)
    cols = draw(st.one_of(st.just(rows), st.just(rows), SIZES))
    values = draw(st.lists(VALUES, min_size=1, max_size=6))
    if fmt == "array":
        full = rows * (rows + 1) // 2 if symmetry == "symmetric" else rows * cols
        count = max(0, full + draw(OFF_BY))
        sizes = [rows, cols]
        body = [values[k % len(values)] for k in range(count)]
    else:
        count = draw(st.integers(0, 6))
        sizes = [rows, cols, count + draw(OFF_BY)]
        body = [
            f"{draw(st.integers(1, max(rows, 1))) + draw(OFF_BY)} "
            f"{draw(st.integers(1, max(cols, 1))) + draw(OFF_BY)} {values[k % len(values)]}"
            for k in range(count)
        ]
    for line in draw(st.lists(NOISE, max_size=1)):
        body.insert(draw(st.integers(0, len(body))), line)
    header = f"%%MatrixMarket matrix {fmt} {field} {symmetry}"
    return "\n".join([header, " ".join(map(str, sizes))] + body).encode("utf-8")


FILES = st.one_of(st.binary(max_size=200), well_formed())


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("mm") / "m.mtx"


def _read(path, data):
    path.write_bytes(data)
    try:
        return read_matrix_market(path)
    except MatrixMarketError as exc:
        return exc


@given(data=FILES)
def test_reader_returns_a_matrix_or_raises_matrix_market_error(path, data):
    result = _read(path, data)
    assert isinstance(result, (np.ndarray, MatrixMarketError))
    if isinstance(result, np.ndarray):
        assert result.ndim == 2 and result.size <= 50 * 50


FILLER = st.sampled_from(["", "   ", "\t", "%", "% 1 x 2", "  % indented", "%%MatrixMarket"])


@given(original=well_formed(), draw=st.data())
def test_comment_and_blank_lines_move_only_line_numbers(path, original, draw):
    # inserted anywhere after the header, they leave a valid file's matrix
    # alone and move an error's line by the count inserted above it
    lines = original.decode("utf-8").split("\n")
    added = draw.draw(st.lists(st.tuples(st.integers(1, len(lines)), FILLER), max_size=6))
    padded = list(lines)
    for at, text in sorted(added, reverse=True):
        padded.insert(at, text)
    before = _read(path, original)
    after = _read(path, "\n".join(padded).encode("utf-8"))
    assert type(after) is type(before)
    if isinstance(before, np.ndarray):
        assert after.shape == before.shape and after.tobytes() == before.tobytes()
    else:
        assert after.line == before.line + sum(at < before.line for at, _ in added)


# Differential test of the body scan: a body mixing zero spellings, other
# numbers, non-finite and junk tokens, comment and blank lines, and every
# ASCII character at which str.split() splits, against a reference built
# from float() of each token of each non-comment line.  ZEROS spells zero
# every way, and non-zeros almost like it.
ZEROS = st.sampled_from(["-0", "0", "-0", "0", "+0", "0.0", "00", "-00", "0_0", "-0e3",
                         "07", "-07", "0.5", "-01"])
NUMBERS = st.one_of(st.integers(-3, 3).map(str),
                    st.floats(allow_nan=False, allow_infinity=False).map(repr))
JUNK = st.sampled_from(["nan", "inf", "-inf", "1e999", "x", "1x", "0x1", "0-", "--0", "%", "%0"])
CLEAN = st.one_of(ZEROS, ZEROS, NUMBERS)
BLANKS = st.sampled_from([" ", "\t", "\x1f", "  "])  # split within a line
BREAKS = st.sampled_from(["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
SIDES = st.sampled_from([3, 1, 2, 4, 0])
OTHER_LINES = st.sampled_from(["", " ", "\x1f", "% note", " \t% 1 2", "\x1f%x"])


@st.composite
def mixed_bodies(draw):
    """(file text, format, rows, cols, [(line number, tokens) of each content line])."""
    fmt = draw(st.sampled_from(["array", "coordinate"]))
    rows, cols = draw(SIDES), draw(SIDES)
    token = draw(st.sampled_from([CLEAN, CLEAN, st.one_of(CLEAN, JUNK)]))  # a third may hold junk
    if fmt == "array":
        count = rows * cols + draw(OFF_BY)
        lines, tokens = [], [draw(token) for _ in range(max(count, 0))]
        while tokens:
            k = draw(st.integers(1, 3))
            lines.append(tokens[:k])
            tokens = tokens[k:]
        size = f"{rows} {cols}"
    else:  # distinct positions in range, so only the value tokens decide
        cells = draw(st.lists(st.tuples(st.integers(1, max(rows, 1)), st.integers(1, max(cols, 1))),
                              unique=True, min_size=min(rows * cols, 1), max_size=rows * cols))
        lines = [[str(i), str(j), draw(token)] for i, j in cells]
        size = f"{rows} {cols} {len(lines)}"
    texts = [draw(BLANKS).join(line) for line in lines]
    for other in draw(st.lists(OTHER_LINES, max_size=3)):
        texts.insert(draw(st.integers(0, len(texts))), other)
    text = f"%%MatrixMarket matrix {fmt} real general{draw(BREAKS)}{size}"
    for line in texts:
        text += draw(BREAKS) + line
    if draw(st.booleans()):
        text += draw(BREAKS)
    content = [(n, line.split()) for n, line in enumerate(texts, 3)
               if line.lstrip()[:1] not in ("", "%")]
    return text, fmt, rows, cols, content


def _expected(fmt, rows, cols, content):
    """The matrix, or (message, line) of the error, from float() of each token."""
    if fmt == "array":
        tokens = [(token, n) for n, line in content for token in line]
        want = rows * cols
    else:
        tokens = [(line[2], n) for n, line in content]
        want = len(content)
    for token, n in tokens:
        try:
            float(token)
        except ValueError as exc:
            return str(exc), n
    if len(tokens) != want:
        return f"expected {want} {fmt} values, got {len(tokens)}", tokens[-1][1] if tokens else 2
    values = [float(token) for token, _ in tokens]
    for v, (_, n) in zip(values, tokens):
        if not np.isfinite(v):
            return "value must be finite", n
    out = np.zeros((rows, cols))
    if fmt == "array":
        out[:] = np.reshape(values, (cols, rows)).T
    else:
        for v, (_, line) in zip(values, content):
            out[int(line[0]) - 1, int(line[1]) - 1] = v
    return out


@given(body=mixed_bodies())
def test_reader_agrees_with_float_of_every_token(path, body):
    text, *spec = body
    expected, result = _expected(*spec), _read(path, text.encode("ascii"))
    if isinstance(expected, np.ndarray):
        assert isinstance(result, np.ndarray), result
        assert result.shape == expected.shape and result.tobytes() == expected.tobytes()
        assert result.flags.c_contiguous
    else:
        message, line = expected
        assert type(result) is MatrixMarketError
        assert (str(result), result.line) == (f"line {line}: {message}", line)


def test_bad_token_after_ten_thousand_zero_lines_names_its_line(path):
    zeros = "\n".join(["0", "-0"] * 5000)
    path.write_text(f"%%MatrixMarket matrix array real general\n10001 1\n{zeros}\nx\n")
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert err.value.line == 10003
    assert "could not convert string to float: 'x'" in str(err.value)


@given(data=FILES)
def test_classify_exits_2_on_a_rejected_file(path, data):
    if not isinstance(_read(path, data), MatrixMarketError):
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["classify", "--matrix", str(path), "--diag-alpha", "1"])
    assert code == 2
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


# Each command's checked flags, with values that make a run meaningless and
# values that do not; the laplace grid stays small so no example is slow.
COMMANDS = {
    ("solve",): ("--tol", "--delta", "--max-iters"),
    ("bench", "laplace"): ("--grid", "--tol", "--alphas"),
    ("bench", "markov"): ("--states", "--tol", "--alphas"),
    ("verify", "--suite", "companion"): ("--trials",),
}
BAD = {
    "--tol": ["nan", "inf", "-inf", "0", "-1e-8"],
    "--delta": ["0", "1", "-0.5", "1.5", "nan", "inf"],
    "--max-iters": ["0", "-3"],
    "--trials": ["0", "-1"],
    "--alphas": ["", ",", "0", "1,0", "-1", "nan", "1,nan,2"],
    "--grid": ["1", "0", "-2"],
    "--states": ["2", "0", "-1"],
}
GOOD = {
    "--tol": ["1e-6"],
    "--delta": ["0.5"],
    "--max-iters": ["5"],
    "--trials": ["1"],
    "--alphas": ["1,1.5", "2"],
    "--grid": ["2", "3", "4"],
    "--states": ["3", "6"],
}


@st.composite
def invalid_argv(draw):
    """argv of one command with every checked flag set, at least one to a bad value."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command]
    bad = draw(st.sets(st.sampled_from(flags), min_size=1))
    values = [draw(st.sampled_from((BAD if flag in bad else GOOD)[flag])) for flag in flags]
    return [*command, *(f"{flag}={value}" for flag, value in zip(flags, values))]


@pytest.fixture(scope="module")
def solve_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("solve")
    a, b, u = (str(root / f"{name}.mtx") for name in "abu")
    write_matrix_market(a, np.array([[2.0, -1.0], [-1.0, 2.0]]))
    write_vector(b, np.ones(2))
    write_matrix_market(u, 2.0 * np.eye(2))
    return [f"--matrix={a}", f"--rhs={b}", f"--split={u}"]


def _no_sweep(*args):
    raise AssertionError("an invalid flag value reached a sweep")


@given(argv=invalid_argv())
def test_invalid_flag_exits_2_before_any_sweep(solve_files, argv):
    if argv[0] == "solve":
        argv = argv + solve_files
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(altsplit.schemes, "sweep", _no_sweep)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value its type cannot parse
            code = exc.code
    assert code == 2
    assert "error: " in err.getvalue() and "Traceback" not in err.getvalue()
