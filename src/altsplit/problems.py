"""Benchmark problem generators and Matrix Market file I/O.

The Dirichlet benchmark discretizes the 2-D Laplace equation on the unit
square with the 5-point stencil (lexicographic ordering, x fastest); the
Markov benchmark is the reflecting n-state random walk whose stationary
vector solves the homogeneous singular system (I - T^t) x = 0.

Matrix Market files (Boisvert, Pozo and Remington, NIST IR 5935, 1996) of
either format and symmetry are read through one scan of the body and
written through one emitter.  The scan is one numpy pass over the body's
ASCII bytes: a whitespace test that matches ``str.split()`` finds where
each token starts, the tokens ``0`` and ``-0`` become +0.0 and -0.0 there,
and only the other tokens are split apart and go through ``float()`` (or
``int()`` for coordinate indices).  Line numbers are found only when an
error needs one.  The writer formats only the non-zero values.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .core import as_matrix
from .errors import MatrixMarketError, UnsupportedFieldError

__all__ = [
    "LaplaceProblem",
    "RandomWalkProblem",
    "make_laplace",
    "make_random_walk",
    "read_matrix_market",
    "write_matrix_market",
    "read_vector",
    "write_vector",
]


@dataclass(frozen=True)
class LaplaceProblem:
    """Dirichlet problem on the unit square with g(x, y) = x + y + xy.

    ``n`` is the number of grid subdivisions (h = 1/n); the system has
    order (n - 1)^2.  ``exact`` is the direct dense solution of A x = b.
    """

    n: int
    A: np.ndarray
    b: np.ndarray
    exact: np.ndarray

    @property
    def order(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class RandomWalkProblem:
    """Reflecting random walk on ``n`` states; A = I - T^t is a singular M-matrix."""

    n: int
    T: np.ndarray
    A: np.ndarray


def make_laplace(n: int) -> LaplaceProblem:
    """Assemble the order-(n-1)^2 five-point system with its boundary load.

    Interior node (p, q) with x = p h, y = q h (p fastest) owns row
    (q-1)(n-1) + (p-1); each boundary neighbor contributes g evaluated
    there to the right-hand side.
    """
    if n < 2:
        raise ValueError("need at least 2 grid subdivisions")
    m = n - 1
    h = 1.0 / n
    j = (
        4.0 * np.eye(m)
        - np.diag(np.ones(m - 1), 1)
        - np.diag(np.ones(m - 1), -1)
    )
    c = -np.diag(np.ones(m - 1), 1) - np.diag(np.ones(m - 1), -1)
    a = np.kron(np.eye(m), j) + np.kron(c, np.eye(m))

    def g(x, y):
        return x + y + x * y

    b = np.zeros(m * m)
    xs = h * np.arange(1, n)
    for q in range(1, n):
        row = (q - 1) * m
        y = q * h
        b[row] += g(0.0, y)
        b[row + m - 1] += g(1.0, y)
        if q == 1:
            b[row : row + m] += g(xs, 0.0)
        if q == n - 1:
            b[row : row + m] += g(xs, 1.0)
    exact = np.linalg.solve(a, b)
    return LaplaceProblem(n=n, A=a, b=b, exact=exact)


def make_random_walk(n: int) -> RandomWalkProblem:
    """Transition matrix of the reflecting walk and the singular system matrix."""
    if n < 3:
        raise ValueError("need at least 3 states")
    t = np.zeros((n, n))
    t[0, 1] = 1.0
    t[n - 1, n - 2] = 1.0
    for i in range(1, n - 1):
        t[i, i - 1] = 0.5
        t[i, i + 1] = 0.5
    return RandomWalkProblem(n=n, T=t, A=np.eye(n) - t.T)


# ---------------------------------------------------------------------------
# Matrix Market exchange format
# ---------------------------------------------------------------------------

_FORMATS = ("array", "coordinate")
_FIELDS = ("real", "integer")
_SYMMETRIES = ("general", "symmetric")

# The ASCII bytes at which str.splitlines ends a line, and the ASCII bytes at
# which str.split() splits (a \r\n pair ends one line).  Each set is spelt out
# only here: the regex classes, the line count and the byte tables below are
# derived from it.  A comment line is blanks other than line breaks, "%" and
# the rest of its line.  The patterns are compiled (and cached by re) on first
# use, not on import.
_LINE_BREAKS = b"\n\x0b\x0c\r\x1c\x1d\x1e"
_BLANKS = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
_BREAK_SET = re.escape(_LINE_BREAKS)
_LINE = rb"([^%s]*)(?:\r\n|[%s])?" % (_BREAK_SET, _BREAK_SET)
_COMMENT = rb"(?:^|(?<=[%s]))[%s]*%%[^%s]*" % (
    _BREAK_SET, re.escape(bytes(c for c in _BLANKS if c not in _LINE_BREAKS)), _BREAK_SET)
# bytes.translate tables that map each byte of a set to 1 and every other
# byte to 0, so np.frombuffer(data.translate(table), bool) tests every byte
_IS_BREAK, _IS_BLANK = (bytes(c in chars for c in range(256)) for chars in (_LINE_BREAKS, _BLANKS))


def _size_line(data):
    """(number, text, end) of the first line of the ASCII bytes ``data``
    neither blank nor comment (as the header is): its 1-based number, its
    text and the offset after its line break, or None when there is none."""
    for number, m in enumerate(re.finditer(_LINE, data), 1):
        if (line := m[1].decode("ascii")).lstrip()[:1] not in ("", "%"):
            return number, line, m.end()
    return None


def _line_number(data, at):
    """The 1-based number of the line that holds byte ``at`` (not a line
    break) of the ASCII bytes ``data``, as str.splitlines counts lines."""
    head = data[:at]
    return 1 + sum(map(head.count, _LINE_BREAKS)) - head.count(b"\r\n")


@dataclass(frozen=True)
class _Tokens:
    """The tokens of an ASCII body, as str.split() finds them."""

    starts: np.ndarray  # the offset of each token
    zero: np.ndarray  # True where the token is exactly "0" or "-0"
    negative: np.ndarray  # True where it is "-0"
    texts: list  # the other tokens, in order


def _scan(body: bytes) -> _Tokens:
    """Tokenise ``body`` in one numpy pass over its bytes.

    A zero token needs no ``float()``, so only the others are split apart:
    they are cut out, each with the blank after it, of a body that holds a
    zero token, and a body without one is split as it is.
    """
    body += b"  "  # blanks after the last token
    b = np.frombuffer(body, np.uint8)
    space = np.empty(b.size + 1, bool)  # space[k + 1]: byte k is blank
    space[0] = True  # and so is the byte before the first
    space[1:] = np.frombuffer(body.translate(_IS_BLANK), bool)
    blank = space[1:]
    starts = np.flatnonzero(space[:-1] & ~blank)
    lead = b[starts]
    zero = (lead == ord("0")) & space[2:][starts]
    negative = (lead == ord("-")) & (b[1:][starts] == ord("0")) & space[3:][starts]
    zero |= negative
    if zero.any():
        kept = ~blank
        kept[starts[zero]] = False
        kept[starts[negative] + 1] = False
        kept[1:] |= blank[1:] & kept[:-1]  # and the blank after each token kept
        body = b[kept].tobytes()
    return _Tokens(starts, zero, negative, body.decode("ascii").split())


def _parse(convert, tokens, line_of):
    """Every token through ``convert`` into one array, naming the line of the first bad one."""
    dtype = float if convert is float else object  # ints stay Python ints: none overflows
    try:
        return np.fromiter(map(convert, tokens), dtype, len(tokens))
    except ValueError:
        for k, token in enumerate(tokens):
            try:
                convert(token)
            except ValueError as exc:
                raise MatrixMarketError(str(exc), line=line_of(k)) from None


def _values(convert, tokens: _Tokens, line_of, column=0, step=1):
    """``convert`` of every ``step``-th token from ``column`` into one array,
    with ``line_of`` of an index into it.  A zero token is 0 (+0.0 or -0.0)
    without ``convert``; the others go through ``_parse``."""
    zero = tokens.zero[column::step]
    texts = tokens.texts
    if step > 1:  # this column's share of the non-zero tokens
        at = np.cumsum(~tokens.zero)[column::step][~zero] - 1
        texts = [texts[k] for k in at.tolist()]
    out = np.zeros(zero.size, float if convert is float else object)
    out[~zero] = _parse(convert, texts, lambda k: line_of(np.flatnonzero(~zero)[k]))
    if convert is float:
        out[tokens.negative[column::step]] = -0.0
    return out


def _reject(bad, line_of, message):
    """Raise MatrixMarketError at the line of the first entry flagged ``bad``."""
    hits = np.flatnonzero(bad)
    if hits.size:
        raise MatrixMarketError(message, line=line_of(hits[0]))


def read_matrix_market(path) -> np.ndarray:
    """Read a dense matrix from a Matrix Market file.

    Supports the ``array`` and ``coordinate`` formats with field ``real``
    (``integer`` is accepted and widened) and symmetry ``general`` or
    ``symmetric``; a symmetric file holds the lower triangle.

    Raises
    ------
    MatrixMarketError
        On malformed content, with the offending line number.
    UnsupportedFieldError
        For complex/pattern fields or other symmetry variants.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        lines = data.decode("ascii", "surrogateescape").splitlines()
        bad = next(k for k, line in enumerate(lines, 1) if not line.isascii())
        raise MatrixMarketError("non-ASCII byte", line=bad)
    if not data:
        raise MatrixMarketError("empty file", line=1)
    header = re.match(_LINE, data)[1].decode("ascii").split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise MatrixMarketError(
            "expected header '%%MatrixMarket matrix <format> <field> <symmetry>'",
            line=1,
        )
    _, obj, fmt, fld, sym = (tok.lower() for tok in header)
    if obj != "matrix":
        raise UnsupportedFieldError(f"unsupported object {obj!r}", line=1)
    if fmt not in _FORMATS:
        raise MatrixMarketError(f"unknown format {fmt!r}", line=1)
    if fld not in _FIELDS:
        raise UnsupportedFieldError(f"unsupported field {fld!r}", line=1)
    if sym not in _SYMMETRIES:
        raise UnsupportedFieldError(f"unsupported symmetry {sym!r}", line=1)
    symmetric = sym == "symmetric"

    # the first non-comment, non-blank line after the header carries the sizes
    if (size_line := _size_line(data)) is None:
        raise MatrixMarketError("missing size line", line=len(data.decode("ascii").splitlines()))
    size_at, size_text, body_at = size_line
    sizes = _parse(int, size_text.split(), lambda k: size_at)
    if len(sizes) != (2 if fmt == "array" else 3) or min(sizes) < 0:
        shape = "rows cols" if fmt == "array" else "rows cols nnz"
        raise MatrixMarketError(f"size line must be '{shape}', nonnegative", line=size_at)
    rows, cols, *nnz = sizes
    if symmetric and rows != cols:
        raise MatrixMarketError("symmetric matrix must be square", line=size_at)

    def line_of(k):  # of array value or coordinate entry k, or of the size line for k = -1
        if k < 0:
            return size_at
        token = k if fmt == "array" else entry[k]
        return _line_number(data, body_at + int(tokens.starts[token]))

    body = data[body_at:]
    if b"%" in body:  # blank out comment lines, so every byte keeps its offset
        body = re.sub(_COMMENT, lambda m: b" " * len(m[0]), body)
    tokens = _scan(body)
    if fmt == "array":
        values = _values(float, tokens, line_of)
        count, want = values.size, rows * (rows + 1) // 2 if symmetric else rows * cols
    else:  # an entry is a line of tokens
        breaks = np.flatnonzero(np.frombuffer(body.translate(_IS_BREAK), bool))
        entry = np.flatnonzero(np.diff(np.searchsorted(breaks, tokens.starts), prepend=-1))
        count, want = entry.size, nnz[0]
    if count != want:
        raise MatrixMarketError(f"expected {want} {fmt} values, got {count}",
                                line=line_of(count - 1))
    try:
        out = np.zeros((rows, cols))
    except (MemoryError, ValueError):
        raise MatrixMarketError(f"no room for {rows} x {cols} values", line=size_at) from None

    if fmt == "coordinate":
        widths = np.diff(entry, append=tokens.starts.size)
        _reject(widths != 3, line_of, "entry line must be 'i j value'")
        i, j, values = (_values(f, tokens, line_of, k, 3) for k, f in enumerate((int, int, float)))
        _reject((i < 1) | (i > rows) | (j < 1) | (j > cols), line_of, "entry index out of range")
        r, c = np.array(i, dtype=np.intp) - 1, np.array(j, dtype=np.intp) - 1
        # one fill cannot rely on NumPy's order for repeated indices
        first = np.unique(r * cols + c, return_index=True)[1]
        _reject(~np.isin(np.arange(r.size), first), line_of, "entry position given twice")
        _reject(symmetric & (r < c), line_of, "entry above the diagonal of a symmetric matrix")
    _reject(~np.isfinite(values), line_of, "value must be finite")
    if fmt == "array" and not symmetric:
        out[:] = values.reshape(cols, rows).T  # column-major
        return out
    if fmt == "array":  # the lower triangle, column by column
        c, r = np.triu_indices(rows)
    out[r, c] = values
    if symmetric:
        out[c, r] = values
    return out


# The array-format line of a zero, of a negative zero and of any other value;
# the fixed-width array pads the first two with NUL bytes.
_ARRAY_LINES = np.array([b"0\n", b"-0\n", b"%.17g\n"])


def write_matrix_market(path, m, fmt: str = "array") -> None:
    """Write a dense matrix in Matrix Market ``array`` or ``coordinate`` format.

    Values are printed with %.17g so a read-back reproduces them exactly.
    """
    m = as_matrix(m)
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}")
    rows, cols = m.shape
    if fmt == "array":
        values = m.T.ravel()
        nonzero = values != 0
        size, entries = f"{rows} {cols}", values[nonzero]
        # a zero is written as the "0" or "-0" that %.17g prints for it
        lines = _ARRAY_LINES[np.where(nonzero, 2, np.signbit(values))].tobytes()
        body = lines.translate(None, b"\0").decode("ascii")
    else:
        r, c = np.nonzero(m)
        size, entries = f"{rows} {cols} {r.size}", np.column_stack([r + 1, c + 1, m[r, c]])
        body = "%d %d %.17g\n" * r.size
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix {fmt} real general\n{size}\n")
        # one %-format of the whole body runs twice as fast as one per value
        fh.write(body % tuple(entries.ravel().tolist()))


def read_vector(path) -> np.ndarray:
    """Read an n x 1 (or 1 x n) Matrix Market file as a flat vector."""
    m = read_matrix_market(path)
    if 1 not in m.shape:
        raise MatrixMarketError(f"expected a vector file, got shape {m.shape}")
    return m.reshape(-1)


def write_vector(path, v) -> None:
    """Write a vector as an n x 1 array-format Matrix Market file."""
    write_matrix_market(path, np.asarray(v, dtype=float).reshape(-1, 1), fmt="array")
