"""Benchmark problem generators and Matrix Market file I/O.

The Dirichlet benchmark discretizes the 2-D Laplace equation on the unit
square with the 5-point stencil (lexicographic ordering, x fastest); the
Markov benchmark is the reflecting n-state random walk whose stationary
vector solves the homogeneous singular system (I - T^t) x = 0.

Matrix Market files (Boisvert, Pozo and Remington, NIST IR 5935, 1996) of
either format and symmetry are read through one (row, column, value) triple
and one fill, and written through one emitter.  The body is tokenised once,
and line numbers are found only when an error needs one.
"""
from __future__ import annotations

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


def _linenos(lines):
    """1-based numbers of the lines neither blank nor comment (as the header is)."""
    return (k for k, line in enumerate(lines, 1) if line.lstrip()[:1] not in ("", "%"))


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
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    lines = text.splitlines()
    if not text.isascii():
        bad = next(k for k, line in enumerate(lines, 1) if not line.isascii())
        raise MatrixMarketError("non-ASCII byte", line=bad)
    if not lines:
        raise MatrixMarketError("empty file", line=1)
    header = lines[0].split()
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
    if (size_at := next(_linenos(lines), None)) is None:
        raise MatrixMarketError("missing size line", line=len(lines))
    sizes = _parse(int, lines[size_at - 1].split(), lambda k: size_at)
    if len(sizes) != (2 if fmt == "array" else 3) or min(sizes) < 0:
        shape = "rows cols" if fmt == "array" else "rows cols nnz"
        raise MatrixMarketError(f"size line must be '{shape}', nonnegative", line=size_at)
    rows, cols, *nnz = sizes
    if symmetric and rows != cols:
        raise MatrixMarketError("symmetric matrix must be square", line=size_at)

    def line_of(k):  # of array value or coordinate entry k, or of the size line for k = -1
        linenos = list(_linenos(lines))  # the size line first; found only to name an error
        per_line = [len(lines[n - 1].split()) if fmt == "array" else 1 for n in linenos[1:]]
        return int(np.repeat(linenos, [1, *per_line])[k + 1])

    rest = lines[size_at:]
    if "%" in (body := " ".join(rest)):  # drop comment lines; blank lines hold no token
        rest = [line for line in rest if line.lstrip()[:1] != "%"]
        body = " ".join(rest)
    if fmt == "array":
        values = _parse(float, body.split(), line_of)
        count, want = len(values), rows * (rows + 1) // 2 if symmetric else rows * cols
    else:
        cells = [cell for cell in map(str.split, rest) if cell]
        count, want = len(cells), nnz[0]
    if count != want:
        raise MatrixMarketError(f"expected {want} {fmt} values, got {count}",
                                line=line_of(count - 1))
    try:
        out = np.zeros((rows, cols))
    except (MemoryError, ValueError):
        raise MatrixMarketError(f"no room for {rows} x {cols} values", line=size_at) from None

    if fmt == "array" and symmetric:  # the lower triangle, column by column
        c, r = np.triu_indices(rows)
    elif fmt == "array":
        c, r = np.unravel_index(np.arange(want), (cols, rows))  # column-major
    else:
        _reject([len(cell) != 3 for cell in cells], line_of, "entry line must be 'i j value'")
        i, j, values = (_parse(f, [cell[k] for cell in cells], line_of)
                        for k, f in enumerate((int, int, float)))
        out_of_range = [not (0 < p <= rows and 0 < q <= cols) for p, q in zip(i, j)]
        _reject(out_of_range, line_of, "entry index out of range")
        r, c = np.array(i, dtype=np.intp) - 1, np.array(j, dtype=np.intp) - 1
        # one fill cannot rely on NumPy's order for repeated indices
        first = np.unique(r * cols + c, return_index=True)[1]
        _reject(~np.isin(np.arange(r.size), first), line_of, "entry position given twice")
        _reject(symmetric & (r < c), line_of, "entry above the diagonal of a symmetric matrix")
    _reject(~np.isfinite(values), line_of, "value must be finite")
    out[r, c] = values
    if symmetric:
        out[c, r] = values
    return out


def write_matrix_market(path, m, fmt: str = "array") -> None:
    """Write a dense matrix in Matrix Market ``array`` or ``coordinate`` format.

    Values are printed with %.17g so a read-back reproduces them exactly.
    """
    m = as_matrix(m)
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}")
    rows, cols = m.shape
    if fmt == "array":
        size, line, columns = f"{rows} {cols}", "%.17g\n", [m.T.ravel()]
    else:
        r, c = np.nonzero(m)
        size, line, columns = f"{rows} {cols} {r.size}", "%d %d %.17g\n", [r + 1, c + 1, m[r, c]]
    entries = np.column_stack(columns)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix {fmt} real general\n{size}\n")
        # one %-format of the whole body runs twice as fast as one per value
        fh.write(line * len(entries) % tuple(entries.ravel().tolist()))


def read_vector(path) -> np.ndarray:
    """Read an n x 1 (or 1 x n) Matrix Market file as a flat vector."""
    m = read_matrix_market(path)
    if 1 not in m.shape:
        raise MatrixMarketError(f"expected a vector file, got shape {m.shape}")
    return m.reshape(-1)


def write_vector(path, v) -> None:
    """Write a vector as an n x 1 array-format Matrix Market file."""
    write_matrix_market(path, np.asarray(v, dtype=float).reshape(-1, 1), fmt="array")
