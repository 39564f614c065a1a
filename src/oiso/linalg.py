"""Dual-mode linear algebra: float64 via numpy, exact rationals in integers.

A float matrix is a numpy array. An exact matrix is an `ExactMatrix`: integer
rows with one positive denominator per row, so row i is rows[i] / dens[i].
The value is frozen and carries what is known of it: its weighted-permutation
read once taken (`monomial`, which finds the zeros in the integers in C, or
from the pattern its builder hands over, as the document reader does), its
rank when known (an identity's or an inverse's, or one a caller states with
`with_rank`) and its transpose once taken. It builds the read-only numpy
object array of `Fraction`s (`array`) only when a caller first reads it.
`matrix_value` is the one call that wraps a given matrix: it puts an object
array of ints and Fractions over one denominator per row (`_int_row`) once,
and keeps that array as the value's own.

The exact kernels read and write integer rows, and a Fraction is built only
for a value handed back one entry at a time. Each pivot is the one
fraction-free step `_clear`, which costs integer products and one gcd per
row rather than a gcd per entry. `_exact_rref` (rank, inverse, solve) and
`farkas`, the phase-one simplex that decides Farkas' alternative for one
row, both pivot with it. `exact_inv_or_rank` returns the inverse as its rows
over their pivots, `mat_mat` takes one dot product of integers per entry
and `mat_mat_mat` puts its product over one denominator per row. Each
equals rational arithmetic. A kernel given `ExactMatrix` values returns
one; given object arrays it wraps them and returns an array. `scaled_float`
takes an exact matrix to float at its own binary scale, so a float solver
never sees an entry overflow or the whole matrix underflow. A weighted
permutation (monomial matrix) skips elimination altogether in `rank` and
`inv`.

`monomial` is the one n^2 scan that reads a matrix as a weighted permutation
(of an exact matrix, from its integers, with one Fraction per row for the
entries; a parsed one's pattern was found in its document's entries, and
its read is built from it in O(n)). An operator reads its point matrix once, when it is built, and
derives the inverse's read (`monomial_inv`), its products
(`monomial_mat_vec`), its certificate and its recovery from that read, in
either arithmetic; the identity generators of a full family are independent
by construction and never reach `rank`. A square exact family checks its
rank with the same Gauss-Jordan pass that inverts it (`exact_inv_or_rank`)
and keeps the inverse.

`solve` is the one rule for "is b in the column span of a", in either
arithmetic: exact elimination, or a float least-squares solution kept when
its residual is within `cutoff(b, tol)`.

`block_lp` is the one place that calls HiGHS: the float block LP of Farkas'
alternative, handed to scipy's bundled HiGHS binding as CSC arrays built
here in numpy, with no LP front end or sparse matrix class in between.
`nnls` is scipy's non-negative least squares: Lawson and Hanson's
active-set method, the kernel and arguments `scipy.optimize.nnls` uses,
so every fit is bit-for-bit scipy's.

Both kernels are compiled modules inside `scipy.optimize`
(`_highspy._core` and `_slsqplib`). `_scipy_extension` loads each from its
own file, without running `scipy/optimize/__init__.py`: that import is
most of the start-up cost of a process that certifies a proper family or
checks adequacy, and loading the two files costs a small part of it. A
later `import scipy.optimize` reuses the modules it registered.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from operator import mul

import numpy as np

__all__ = [
    "SingularMatrixError",
    "ExactMatrix",
    "matrix_value",
    "dense",
    "identity",
    "is_exact",
    "as_exact",
    "as_float",
    "scaled_float",
    "binary_exponent",
    "zeros_like_mode",
    "indicator",
    "mat_vec",
    "mat_mat",
    "mat_mat_mat",
    "exact_inv",
    "exact_inv_or_rank",
    "exact_rank",
    "exact_solve_unique",
    "farkas",
    "block_lp",
    "nnls",
    "solve",
    "cutoff",
    "monomial",
    "monomial_inv",
    "monomial_matrix",
    "monomial_value",
    "monomial_mat_vec",
    "rank",
    "inv",
    "dense_inv",
    "frozen",
]


class SingularMatrixError(ValueError):
    """Raised when an operator matrix is not invertible."""


class ExactMatrix:
    """An exact matrix as integer rows: row i is rows[i] / dens[i], dens[i] > 0.

    `rows` is a tuple of int tuples and `dens` a tuple of ints; a row's
    denominator is one its entries share, not always their least. The value
    is frozen: nothing changes its entries, and what it computes on first
    use is kept (`array`, `T`, and the `monomial` read, None when it has
    none). `rank` is the rank when it is known, else None: an identity's and
    an inverse's are full, and `with_rank` states one a caller proves
    otherwise. A caller that has read the matrix's pattern hands it over as
    `read`: the column of each row's one nonzero entry, of a square matrix
    with one per row in distinct columns, from which the `monomial` read is
    built, or None when the matrix has no such pattern."""

    __slots__ = ("rows", "dens", "shape", "rank", "_array", "_t", "_read")
    ndim = 2

    def __init__(self, rows, dens, ncols: int, rank=None, array=None, read=False):
        self.rows = rows
        self.dens = dens
        self.shape = (len(rows), ncols)
        self.rank = rank
        self._array = array
        self._t = None
        # False: not read yet
        self._read = read if read is None or read is False else _exact_read(self, read)

    @classmethod
    def of_array(cls, a: np.ndarray, keep: bool = False) -> "ExactMatrix":
        """A 2-D object array of rationals (ints, numpy ints, Fractions), each
        row over its least common denominator. With `keep`, the array is kept
        as `array`: a read-only one as it is, a writeable one as a read-only
        copy."""
        parts = [_int_row(row) for row in a]
        if keep and a.flags.writeable:
            a = frozen(a.copy())
        return cls(tuple(tuple(ints) for ints, _ in parts), tuple(d for _, d in parts),
                   a.shape[1], array=a if keep else None)

    @property
    def array(self) -> np.ndarray:
        """The read-only object array of Fractions, built on first read."""
        if self._array is None:
            out = np.empty(self.shape, dtype=object)
            zero = Fraction(0)
            for i, (row, d) in enumerate(zip(self.rows, self.dens)):
                out[i] = [Fraction(x, d) if x else zero for x in row]
            self._array = frozen(out)
        return self._array

    @property
    def T(self) -> "ExactMatrix":
        """The transpose, its columns over the rows' least common multiple."""
        if self._t is None:
            d = lcm(*self.dens)
            rows = [row if e == d else [x * (d // e) for x in row]
                    for row, e in zip(self.rows, self.dens)]
            m, n = self.shape
            t = ExactMatrix(tuple(zip(*rows)) if m else ((),) * n, (d,) * n, m, rank=self.rank,
                            array=None if self._array is None else self._array.T)
            t._t = self
            self._t = t
        return self._t

    def take(self, index) -> "ExactMatrix":
        """The rows at the given indices."""
        return ExactMatrix(tuple(self.rows[i] for i in index),
                           tuple(self.dens[i] for i in index), self.shape[1])

    def with_rank(self, rank) -> "ExactMatrix":
        """The same matrix with `rank` as its known rank (None: unknown)."""
        return ExactMatrix(self.rows, self.dens, self.shape[1], rank, self._array)


def matrix_value(a):
    """The one wrapping call for a given matrix: an `ExactMatrix` as it is,
    a 2-D object array as `ExactMatrix.of_array` reads it, keeping the array
    as the value's own, anything else as `np.asarray` gives it (a float
    matrix stays a numpy array)."""
    if isinstance(a, ExactMatrix):
        return a
    a = np.asarray(a)
    return ExactMatrix.of_array(a, keep=True) if a.dtype == object and a.ndim == 2 else a


def _exact_value(a) -> ExactMatrix:
    """`a` as an ExactMatrix, whatever its arithmetic (a float entry is its
    exact binary value); a kernel reads its rows only, so a given array is
    neither copied nor kept."""
    return a if isinstance(a, ExactMatrix) else ExactMatrix.of_array(
        np.asarray(a, dtype=object))


def dense(a):
    """An exact matrix's object array of Fractions, or a float array as it is."""
    return a.array if isinstance(a, ExactMatrix) else a


def identity(n: int, exact: bool):
    """The n x n identity: an ExactMatrix of rank n, or a read-only float array."""
    if exact:
        return ExactMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
                           (1,) * n, n, rank=n)
    return frozen(np.eye(n))


def is_exact(a) -> bool:
    return isinstance(a, ExactMatrix) or (isinstance(a, np.ndarray) and a.dtype == object)


def as_exact(rows) -> np.ndarray:
    """Build an object-dtype matrix of Fractions from nested ints/strings/Fractions."""
    def conv(v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, (int, np.integer)):
            return Fraction(int(v))
        if isinstance(v, str):
            return Fraction(v)
        raise TypeError(f"exact mode accepts ints, 'p/q' strings or Fractions, got {v!r}")

    arr = np.array([[conv(v) for v in row] for row in rows], dtype=object)
    return arr


def as_float(a) -> np.ndarray:
    """A float copy of `a`, each exact entry rounded once: an `ExactMatrix`
    from its integer rows, by correctly rounded integer true division."""
    if isinstance(a, ExactMatrix):
        return np.array([[x / d for x in row] for row, d in zip(a.rows, a.dens)],
                        dtype=float).reshape(a.shape)
    if is_exact(a):
        return np.array([[float(v) for v in row] for row in a], dtype=float)
    return np.asarray(a, dtype=float)


def scaled_float(a) -> np.ndarray:
    """A float copy of `a` on a scale that cannot overflow or underflow
    whole. Exact: each entry times 2**-e, rounded once by integer true
    division, where e is the largest of the nonzero entries' binary
    exponents read from the bit lengths of their numerators and
    denominators in lowest terms, so the largest magnitude lies in [1/2, 2]
    at any scale of `a`. Float: `a` as it is."""
    if not is_exact(a):
        return np.asarray(a, dtype=float)
    a = _exact_value(a)
    e = binary_exponent(a)
    up, down = max(-e, 0), max(e, 0)
    return np.array([[(x << up) / (d << down) for x in row] for row, d in zip(a.rows, a.dens)],
                    dtype=float).reshape(a.shape)


def binary_exponent(a) -> int:
    """The largest binary exponent of an exact matrix's nonzero entries (0
    when it has none), the e of `scaled_float`, which takes `a` to float
    as a times 2**-e."""
    a = _exact_value(a)
    return max((abs(x // g).bit_length() - (d // g).bit_length()
                for row, d in zip(a.rows, a.dens) for x in row if x
                for g in (gcd(x, d),)), default=0)


def zeros_like_mode(shape, exact: bool):
    if exact:
        out = np.empty(shape, dtype=object)
        out[...] = Fraction(0)
        return out
    return np.zeros(shape)


def indicator(n: int, j: int, exact: bool):
    """The j-th of n unit vectors, in the given arithmetic."""
    v = zeros_like_mode((n,), exact)
    v[j] = Fraction(1) if exact else 1.0
    return v


def mat_vec(a, v):
    """Matrix times vector, zero-skipping in exact mode. An `ExactMatrix`
    times a vector of ints and Fractions is one dot product of integers per
    entry, each made one Fraction. Otherwise a zero entry of `a` adds no
    term, and for an exact `a` neither does a column whose entry of `v` is
    an exact zero (an int or a Fraction), whose terms are exact zeros that
    leave each sum's value and type as they are. A float zero of `v` still
    adds its term, which can make the sum a float."""
    if isinstance(a, ExactMatrix):
        if all(type(x) is int or type(x) is Fraction for x in v):
            ints, d = _int_row(v)
            cols = [j for j, x in enumerate(ints) if x]
            vals = [ints[j] for j in cols]
            out = np.empty(a.shape[0], dtype=object)
            out[:] = [Fraction(sum(map(mul, map(row.__getitem__, cols), vals)), e * d)
                      for row, e in zip(a.rows, a.dens)]
            return out
        a = a.array
    if is_exact(a) or (isinstance(v, np.ndarray) and v.dtype == object):
        m, n = a.shape
        cols = range(n)
        if is_exact(a):
            cols = [j for j in cols if not isinstance(v[j], (int, Fraction)) or v[j]]
        out = np.empty(m, dtype=object)
        for i in range(m):
            acc = Fraction(0)
            row = a[i]
            for j in cols:
                x = row[j]
                if x:
                    acc += x * v[j]
            out[i] = acc
        return out
    return np.asarray(a, dtype=float) @ np.asarray(v, dtype=float)


def _rational(x):
    """An exact entry as an int or a Fraction."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, np.integer):
        return int(x)
    return Fraction(x)


def _int_row(row):
    """A row of rationals as (ints, d) with row = ints / d, where d > 0 is
    the least common denominator of its entries."""
    q = [x if type(x) is Fraction or type(x) is int else _rational(x) for x in row]
    d = lcm(*[x.denominator for x in q])
    if d == 1:
        return [x.numerator for x in q], 1
    return [x.numerator * (d // x.denominator) for x in q], d


def _given(result: ExactMatrix, *inputs):
    """A kernel's exact result as its inputs came: an ExactMatrix when they
    all are one, else its array."""
    return result if all(isinstance(x, ExactMatrix) for x in inputs) else result.array


def mat_mat(a, b):
    """Matrix product. Exact: each row of `a` times the columns of `b` over
    their one denominator (`ExactMatrix.T`), one dot product of Python ints
    per entry; row i of the product is over a's row denominator times b's."""
    if not (is_exact(a) or is_exact(b)):
        return np.asarray(a, dtype=float) @ np.asarray(b, dtype=float)
    va, vb = _exact_value(a), _exact_value(b)
    (m, k), (k2, n) = va.shape, vb.shape
    if k != k2:
        raise ValueError("shape mismatch")
    bt = vb.T
    db = bt.dens[0] if n else 1
    rows = tuple(tuple(sum(map(mul, ra, cb)) for cb in bt.rows) for ra in va.rows)
    return _given(ExactMatrix(rows, tuple(d * db for d in va.dens), n), a, b)


def mat_mat_mat(a, b, c):
    """a @ b @ c, where the float product is a @ (b @ c) as `mat_mat` takes
    it. Exact: the rows of `a` times the columns of `b` and then those of
    `c`, each matrix's columns over its one denominator (`ExactMatrix.T`),
    so the chain multiplies Python ints, and row i of the product is over
    a's row denominator times those two; its entries equal those of two
    `mat_mat`s."""
    if not (is_exact(a) or is_exact(b) or is_exact(c)):
        return mat_mat(a, mat_mat(b, c))
    va, vb, vc = _exact_value(a), _exact_value(b), _exact_value(c)
    (m, k), (k2, l), (l2, n) = va.shape, vb.shape, vc.shape
    if k != k2 or l != l2:
        raise ValueError("shape mismatch")
    bt, ct = vb.T, vc.T
    d = (bt.dens[0] if l else 1) * (ct.dens[0] if n else 1)
    rows = []
    for ra in va.rows:
        ab = [sum(map(mul, ra, bc)) for bc in bt.rows]
        rows.append(tuple(sum(map(mul, ab, cc)) for cc in ct.rows))
    return _given(ExactMatrix(tuple(rows), tuple(e * d for e in va.dens), n), a, b, c)


def exact_inv_or_rank(a):
    """One Gauss-Jordan pass over [a | I] for a square exact matrix: returns
    (inverse, n) when `a` is invertible, else (None, rank of a). The pivots
    left of the bar are the pivots of `a` alone. Row i of [a | I] is taken
    times a's row denominator d_i, as [a's integers | d_i e_i], and each
    reduced row of the inverse is the right half of its integer row over
    the row's pivot entry."""
    v = _exact_value(a)
    n = v.shape[0]
    if v.shape[0] != v.shape[1]:
        raise ValueError("square matrix required")
    mat, pivots = _exact_rref([[*row, *(d if i == j else 0 for j in range(n))]
                               for i, (row, d) in enumerate(zip(v.rows, v.dens))])
    r = sum(1 for col in pivots if col < n)
    if r < n:
        return None, r
    inv = ExactMatrix(tuple(tuple(row[n:]) for row in mat),
                      tuple(row[col] for row, col in zip(mat, pivots)), n, rank=n)
    return _given(inv, a), n


def exact_inv(a):
    """Gauss-Jordan inverse over the rationals. Raises SingularMatrixError."""
    inv, _ = exact_inv_or_rank(a)
    if inv is None:
        raise SingularMatrixError("matrix is singular in exact arithmetic")
    return inv


def _primitive(ints):
    """An integer row divided by the gcd of its entries."""
    c = gcd(*ints)
    return [x // c for x in ints] if c > 1 else ints


def _clear(rows, r, col):
    """One fraction-free pivot on integer rows: clear column `col` from every
    row but `r` by row <- (pv/g) row - (f/g) prow, for the pivot pv =
    rows[r][col], the row's entry f and g = gcd(pv, f), then divide the row
    by the gcd of its entries. Each row stays a multiple of its rational
    row, a positive one when pv > 0."""
    prow = rows[r]
    pv = prow[col]
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            g = gcd(pv, f)
            p, q = pv // g, f // g
            rows[i] = _primitive([p * x - q * y for x, y in zip(row, prow)])


def _exact_rref(rows):
    """Reduced row echelon form of integer rows over the rationals: returns
    (rows, pivot_cols), where the first len(pivot_cols) rows have a positive
    entry at their pivot column, over which each reads as its unique reduced
    row, and the rest are zero.

    Each row is divided by the gcd of its entries, and each pivot is one
    `_clear`, which leaves a row with a zero in the pivot column as it is. A
    pivot is the first nonzero entry at or below the current row, which
    scaling a row does not move, so the pivots are those of rational
    elimination. The list `rows` is taken over.
    """
    mat = [_primitive(row) for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        _clear(mat, r, col)
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i, col in enumerate(pivots):
        if mat[i][col] < 0:
            mat[i] = [-x for x in mat[i]]
    return mat, pivots


def exact_rank(a) -> int:
    _, pivots = _exact_rref(list(_exact_value(a).rows))
    return len(pivots)


def _column(b, m: int):
    """The entries of an exact column as (numerator, denominator) pairs: of
    an m x 1 ExactMatrix, or of a sequence of rationals."""
    if isinstance(b, ExactMatrix):
        return [(row[0], d) for row, d in zip(b.rows, b.dens)]
    q = [_rational(x) for x in b]
    if len(q) != m:
        raise ValueError("shape mismatch")
    return [(x.numerator, x.denominator) for x in q]


def exact_solve_unique(a, b):
    """Solve a @ x = b over the rationals; None if inconsistent. `b` is a
    sequence of rationals or an m x 1 ExactMatrix. The solution has every
    free variable (non-pivot column of `a`) set to zero, so it is the unique
    one when `a` has full column rank. The reduced rows are exact, so a
    system with no pivot in the column of b is solved by x as read, one
    Fraction per pivot. Row i of [a | b] is taken times d_i q_i, for a's row
    denominator d_i and b_i = p_i / q_i."""
    v = _exact_value(a)
    m, k = v.shape
    aug = [[*(x * q for x in row), p * d]
           for (row, d), (p, q) in zip(zip(v.rows, v.dens), _column(b, m))]
    mat, pivots = _exact_rref(aug)
    x = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        if col == k:
            return None  # a zero row equals a nonzero rhs
        x[col] = Fraction(mat[r][k], mat[r][col])
    return np.array(x, dtype=object)


def farkas(a, b_y):
    """Farkas' alternative for one target row, in exact arithmetic: None when
    b_y = lam A for some lam >= 0, else c (Fractions) with A c >= 0 and
    b_y . c < 0. `b_y` is a sequence of rationals or a 1 x k ExactMatrix.

    Phase one of the simplex method with Bland's rule (so it terminates) on
    D A^T lam + s = D b_y with lam, s >= 0, where D flips rows so the right
    side is nonnegative, from the basis s. Row i of the tableau is column i
    of A (a row of `A.T`) and b_i over one denominator, and every pivot is a
    `_clear` with a positive pivot, so each integer row stays a positive
    multiple of its rational row: the reduced costs' signs and the ratio
    test (by cross products) read as in rational arithmetic. The objective,
    min sum(s) priced out on the basis s, carries its positive scale in one
    extra column. A zero optimum gives lam; a positive one leaves the dual u
    with A D u <= 0 and (D b_y) . u > 0, read from the slacks' reduced costs
    1 - u_i, so c = -D u.
    """
    at = _exact_value(a).T
    k, m = at.shape
    b = _column(b_y.T if isinstance(b_y, ExactMatrix) else b_y, k)
    rows, sign = [], []
    for i, (row, d, (p, q)) in enumerate(zip(at.rows, at.dens, b)):
        sign.append(-1 if p < 0 else 1)
        rows.append([sign[i] * x * q for x in row] + [d * q * (r == i) for r in range(k)]
                    + [sign[i] * p * d, 0])
    rows.append([0] * m + [1] * k + [0, 1])  # the costs of sum(s), over scale 1
    basis = list(range(m, m + k))
    for i, col in enumerate(basis):
        _clear(rows, i, col)
    while (enter := next((j for j in range(m + k) if rows[k][j] < 0), None)) is not None:
        leave = min((i for i in range(k) if rows[i][enter] > 0), key=cmp_to_key(
            lambda i, j: (rows[i][-2] * rows[j][enter] - rows[j][-2] * rows[i][enter])
            or basis[i] - basis[j]))
        _clear(rows, leave, enter)
        basis[leave] = enter
    *costs, rhs, scale = rows[k]
    return None if not rhs else np.array(
        [Fraction(-s * (scale - u), scale) for s, u in zip(sign, costs[m:])], dtype=object)


def block_lp(a, costs):
    """The float block LP of Farkas' alternative: (c, status) with c
    minimising the sum of costs_y . c_y with a c_y >= 0 and -1 <= c <= 1
    for every row y of `costs`, as an (n, k) array, and HiGHS's model
    status text. c is None when HiGHS reports an error or no optimum, or
    when its optimum breaks a bound or a row by more than 10 * sqrt(1e-9),
    the check scipy's front end makes of it.

    One direct call of scipy's bundled HiGHS binding, with the model and
    options scipy's own `method="highs"` front end hands it for costs
    costs.ravel(), inequalities -kron(I_n, a) c <= 0 and bounds (-1, 1), so
    HiGHS returns the same vertex: the constraint matrix in CSC form (column
    y*k + i holds -a[:, i] at rows y*m + r, zeros dropped, rows ascending),
    row bounds (-inf, 0], presolve on, the dual simplex, no output."""
    highs = _scipy_extension("scipy.optimize._highspy._core")
    (n, k), m = costs.shape, a.shape[0]
    cols, rows = np.nonzero(a.T)  # column-major, rows ascending in each column
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n * k
    lp.num_row_ = lp.a_matrix_.num_row_ = n * m
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.r_[0, np.cumsum(np.tile(np.bincount(cols, minlength=k), n))]
    lp.a_matrix_.index_ = (np.arange(n)[:, None] * m + rows).ravel()
    lp.a_matrix_.value_ = np.tile(-a.T[cols, rows], n)
    lp.col_cost_ = costs.ravel()
    lp.col_lower_, lp.col_upper_ = np.full(n * k, -1.0), np.full(n * k, 1.0)
    lp.row_lower_, lp.row_upper_ = np.full(n * m, -highs.kHighsInf), np.zeros(n * m)
    options = highs.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = options.output_flag = False
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    solver = highs._Highs()
    solver.passOptions(options)
    ran = (solver.passModel(lp) != highs.HighsStatus.kError
           and solver.run() != highs.HighsStatus.kError)
    status = solver.getModelStatus()
    text = solver.modelStatusToString(status)
    if not ran or status != highs.HighsModelStatus.kOptimal:
        return None, text
    c = np.array(solver.getSolution().col_value).reshape(n, k)
    tol = 10 * np.sqrt(1e-9)
    if not ((np.abs(c) <= 1 + tol).all() and (a @ c.T >= -tol).all()):  # nan fails too
        return None, f"{text}, but off its constraints by more than {tol:.1e}"
    return c, text


def nnls(a, b):
    """(x, rnorm): x >= 0 with the least |a @ x - b|, and that norm; the
    body of `scipy.optimize.nnls`, calling its kernel with its arguments.
    Raises ValueError when an entry is not finite and RuntimeError when the
    fit reaches its 3 * a.shape[1] iterations."""
    a = np.asarray_chkfinite(a, dtype=np.float64, order="C")
    b = np.asarray_chkfinite(b, dtype=np.float64)
    x, rnorm, info = _scipy_extension("scipy.optimize._slsqplib").nnls(a, b, 3 * a.shape[1])
    if info == 3:
        raise RuntimeError("Maximum number of iterations reached.")
    return x, rnorm


def _scipy_extension(name: str):
    """The compiled scipy module `name`, loaded from its own file so that
    no package `__init__` above it runs, and registered in sys.modules
    under `name`. A module already there is returned as it is; a name
    with no extension file where scipy's layout puts it is imported."""
    if name in sys.modules:
        return sys.modules[name]
    parents = name.split(".")[:-1]
    root = importlib.util.find_spec(parents[0]).submodule_search_locations[0]
    finder = importlib.machinery.FileFinder(
        os.path.join(root, *parents[1:]),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        return importlib.import_module(name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def solve(a, b, tol: float):
    """x with a @ x = b, or None when b is not in the column span of `a`.
    Exact: `exact_solve_unique`, which reads no `tol`. Float: the
    least-squares x, kept when its residual is at most cutoff(b, tol), so
    alpha * b gets the answer of b."""
    if is_exact(a):
        return exact_solve_unique(a, b)
    a = np.asarray(a, dtype=float)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x if float(np.abs(a @ x - b).max(initial=0.0)) <= cutoff(b, tol) else None


def cutoff(a, tol: float) -> float:
    """The float zero rule: a value computed from or tested in `a` counts as
    zero when its magnitude is at most tol * max|a|, so alpha * a gets the
    decisions of a for every alpha > 0. An empty `a` gives 0. max|a| is read
    from the extremes, with no |a| copy the size of `a`. An `ExactMatrix`
    is read as `as_float` gives it."""
    a = as_float(a) if isinstance(a, ExactMatrix) else np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return tol * abs(max(float(a.max()), -float(a.min())))  # abs: never -0.0


def monomial(a):
    """Read a square matrix as a weighted permutation: exactly one nonzero
    entry per row, in distinct columns. Returns (columns, entries), with
    entries[y] = a[y, columns[y]], or None when `a` is not monomial. An
    `ExactMatrix` is read from its integers (`_exact_monomial`) and keeps
    its read."""
    if isinstance(a, ExactMatrix):
        if a._read is False:
            a._read = _exact_monomial(a)
        return a._read
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return None
    rows, cols = np.nonzero(a)
    n = a.shape[0]
    if rows.shape[0] != n or np.any(rows != np.arange(n)) or np.any(
            np.bincount(cols, minlength=n) != 1):
        return None
    return cols, a[rows, cols]


def _exact_monomial(a: ExactMatrix):
    """`monomial` of an ExactMatrix: each row's count of zeros and its first
    nonzero are found in C, so no `Fraction` is asked for its truth and a
    row with two nonzeros ends the read."""
    n = a.shape[0]
    if a.shape[1] != n:
        return None
    cols = []
    for row in a.rows:
        if row.count(0) != n - 1:
            return None
        cols.append(row.index(next(filter(None, row))))
    if len(set(cols)) != n:
        return None
    return _exact_read(a, cols)


def _exact_read(a: ExactMatrix, cols):
    """The `monomial` read of a weighted permutation from the column of each
    row's nonzero: the n Fractions of the integers there, or the array's own
    objects when the value holds one."""
    n = a.shape[0]
    if a._array is not None:
        return np.array(cols, dtype=np.intp), a._array[np.arange(n), cols]
    entries = np.empty(n, dtype=object)
    entries[:] = [Fraction(row[c], d) for row, d, c in zip(a.rows, a.dens, cols)]
    return np.array(cols, dtype=np.intp), entries


def rank(a, tol: float = 1e-10) -> int:
    """Rank of `a`; in float mode singular values up to cutoff(a, tol) count
    as zero. A monomial matrix's singular values are its entries' magnitudes,
    so it is read, not factored."""
    if is_exact(a):
        a = matrix_value(a)
        return a.shape[0] if monomial(a) is not None else exact_rank(a)
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0
    cut = cutoff(a, tol)
    read = monomial(a)
    if read is not None:
        return int(np.count_nonzero(np.abs(read[1]) > cut))
    return int(np.linalg.matrix_rank(a, tol=cut))


def monomial_inv(cols, entries):
    """The inverse of the monomial matrix read as (cols, entries) by
    `monomial`, read the same way: the transposed pattern with reciprocal
    entries, in the entries' arithmetic. Raises SingularMatrixError when a
    float reciprocal overflows."""
    n = len(cols)
    if entries.dtype == object:
        recip = np.empty(n, dtype=object)
        recip[:] = [Fraction(e.denominator, e.numerator) for e in entries]
    else:
        recip = 1.0 / entries
        if not np.all(np.isfinite(recip)):
            raise SingularMatrixError("inverse overflow; matrix numerically singular")
    inv_cols = np.empty(n, dtype=int)
    inv_cols[cols] = np.arange(n)
    return inv_cols, recip[inv_cols]


def monomial_matrix(cols, entries) -> np.ndarray:
    """The matrix read as (cols, entries): entries[y] at (y, cols[y]), zero
    elsewhere, in the entries' arithmetic."""
    n = len(cols)
    out = zeros_like_mode((n, n), entries.dtype == object)
    out[np.arange(n), cols] = entries
    return out


def monomial_value(cols, entries):
    """The matrix read as (cols, entries) with Fraction entries (an
    inverse's read, `monomial_inv`) as an ExactMatrix of one integer per row
    over its entry's denominator; `monomial_matrix`'s array for float ones."""
    if entries.dtype != object:
        return monomial_matrix(cols, entries)
    n = len(cols)
    rows = [[0] * n for _ in range(n)]
    for row, c, e in zip(rows, cols.tolist(), entries):
        row[c] = e.numerator
    return ExactMatrix(tuple(map(tuple, rows)), tuple(e.denominator for e in entries), n,
                       rank=n)


def monomial_mat_vec(cols, entries, v) -> np.ndarray:
    """`mat_vec` of the matrix read as (cols, entries), in O(n): each row's
    one product, added to a zero as `mat_vec`'s sum is, so the values and
    their types are the same (a Fraction from exact ints, +0.0 for -0.0)."""
    if entries.dtype == object or v.dtype == object:
        out = np.empty(len(cols), dtype=object)
        out[:] = [Fraction(0) + e * v[j] for e, j in zip(entries, cols)]
        return out
    return entries * np.asarray(v, dtype=float)[cols] + 0.0


def inv(a):
    """Inverse in the matrix's own arithmetic. A monomial matrix's inverse is
    read from its pattern (`monomial_inv`); any other is `dense_inv`'s.
    Raises SingularMatrixError."""
    if not is_exact(a):
        a = np.asarray(a, dtype=float)
    read = monomial(a)
    if read is None:
        return dense_inv(a)
    out = monomial_value(*monomial_inv(*read))
    return dense(out) if isinstance(a, np.ndarray) else out


def dense_inv(a):
    """Inverse by elimination (exact) or LU (float), for a matrix already
    read as not monomial. Raises SingularMatrixError."""
    if is_exact(a):
        return exact_inv(a)
    try:
        out = np.linalg.inv(a)
    except np.linalg.LinAlgError as e:
        raise SingularMatrixError(str(e)) from e
    if not np.all(np.isfinite(out)):
        raise SingularMatrixError("inverse overflow; matrix numerically singular")
    return out


def frozen(a):
    """`a`, made read-only in place and returned; an ExactMatrix is frozen
    already. `OperatorModel` keeps a read-only array without a copy, so a
    caller hands over a fresh array this way."""
    if isinstance(a, np.ndarray):
        a.setflags(write=False)
    return a
