"""Dual-mode linear algebra: float64 via numpy, exact rationals via Fraction.

Exact matrices are numpy object arrays holding fractions.Fraction entries
(Python ints are accepted and promoted to Fraction before any division).
Exact kernels pivot integer rows, and Fractions appear only at their edges:
each row is put over one denominator once (`_int_row`), and every pivot is
the one fraction-free step `_clear`, which costs integer products and one
gcd per row rather than a gcd per entry. `_exact_rref` (rank, inverse,
solve) and `farkas`, the phase-one simplex that decides Farkas' alternative
for one row, both pivot with it; `mat_mat` takes one dot product of integers
per entry. Each gives back Fractions equal to those of rational arithmetic.
`scaled_float` takes an exact matrix to float at its own binary scale, so a
float solver never sees an entry overflow or the whole matrix underflow. A
weighted permutation (monomial matrix) skips elimination altogether in
`rank` and `inv`.

`monomial` is the one n^2 scan that reads a matrix as a weighted permutation
(of an exact matrix, through its `!= 0` pattern when a parser hands it over).
An operator reads its point matrix once, when it is built, and derives the
inverse's read (`monomial_inv`), its products (`monomial_mat_vec`), its
certificate and its recovery from that read, in either arithmetic; the
identity generators of a full family are independent by construction and
never reach `rank`. A square exact family checks its rank with the same
Gauss-Jordan pass that inverts it (`exact_inv_or_rank`) and keeps the
inverse.

`solve` is the one rule for "is b in the column span of a", in either
arithmetic: exact elimination, or a float least-squares solution kept when
its residual is within `cutoff(b, tol)`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from operator import mul

import numpy as np

__all__ = [
    "SingularMatrixError",
    "is_exact",
    "as_exact",
    "as_float",
    "scaled_float",
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
    "solve",
    "cutoff",
    "monomial",
    "monomial_inv",
    "monomial_matrix",
    "monomial_mat_vec",
    "rank",
    "inv",
    "dense_inv",
    "finite_inverse",
    "frozen",
]


class SingularMatrixError(ValueError):
    """Raised when an operator matrix is not invertible."""


def is_exact(a) -> bool:
    return isinstance(a, np.ndarray) and a.dtype == object


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
    if is_exact(a):
        return np.array([[float(v) for v in row] for row in a], dtype=float)
    return np.asarray(a, dtype=float)


def scaled_float(a) -> np.ndarray:
    """A float copy of `a` on a scale that cannot overflow or underflow
    whole. Exact: each entry times 2**-e, rounded once by integer true
    division, where e is the largest of the nonzero entries' binary
    exponents read from bit lengths, so the largest magnitude lies in
    [1/2, 2] at any scale of `a`. Float: `a` as it is."""
    if not is_exact(a):
        return np.asarray(a, dtype=float)
    q = [_rational(x) for x in a.flat]
    e = max((abs(x.numerator).bit_length() - x.denominator.bit_length()
             for x in q if x.numerator), default=0)
    return np.array([(x.numerator << max(-e, 0)) / (x.denominator << max(e, 0)) for x in q],
                    dtype=float).reshape(a.shape)


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
    """Matrix times vector, zero-skipping in exact mode: a zero entry of `a`
    adds no term, and for an exact `a` neither does a column whose entry of
    `v` is an exact zero (an int or a Fraction), whose terms are exact zeros
    that leave each sum's value and type as they are. A float zero of `v`
    still adds its term, which can make the sum a float."""
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


def mat_mat(a, b):
    """Matrix product. Exact: the rows of `a` and the columns of `b` are
    each put over one common denominator (`_int_row`), so an entry is one
    dot product of Python ints and one Fraction."""
    if is_exact(a) or is_exact(b):
        m, k = a.shape
        k2, n = b.shape
        if k != k2:
            raise ValueError("shape mismatch")
        rows = [_int_row(a[i]) for i in range(m)]
        cols = [_int_row(b[:, j]) for j in range(n)]
        out = np.empty((m, n), dtype=object)
        for i, (ra, da) in enumerate(rows):
            out[i] = [Fraction(sum(map(mul, ra, cb)), da * db) for cb, db in cols]
        return out
    return np.asarray(a, dtype=float) @ np.asarray(b, dtype=float)


def mat_mat_mat(a, b, c):
    """(a @ b @ c, its `!= 0` pattern), the pattern None in float mode,
    where the product is a @ (b @ c) as `mat_mat` takes it. Exact: the rows
    of `a` and the columns of `c` are each put over one denominator, and `b`
    over one as a whole (`_int_row`), so the chain multiplies Python ints
    and each entry is one Fraction, equal to that of two `mat_mat`s; the
    pattern is read from the integer numerators, not from the Fractions."""
    if not (is_exact(a) or is_exact(b) or is_exact(c)):
        return mat_mat(a, mat_mat(b, c)), None
    (m, k), (k2, l), (l2, n) = a.shape, b.shape, c.shape
    if k != k2 or l != l2:
        raise ValueError("shape mismatch")
    ints, db = _int_row(b.ravel())
    b_cols = list(zip(*[ints[r * l:(r + 1) * l] for r in range(k)]))
    cols = [_int_row(c[:, j]) for j in range(n)]
    out = np.empty((m, n), dtype=object)
    nonzero = np.empty((m, n), dtype=bool)
    for i in range(m):
        ra, da = _int_row(a[i])
        ab = [sum(map(mul, ra, bc)) for bc in b_cols]
        nums = [sum(map(mul, ab, cc)) for cc, _ in cols]
        out[i] = [Fraction(x, da * db * dc) for x, (_, dc) in zip(nums, cols)]
        nonzero[i] = [x != 0 for x in nums]
    return out, nonzero


def exact_inv_or_rank(a):
    """One Gauss-Jordan pass over [a | I] for a square exact matrix: returns
    (inverse, n) when `a` is invertible, else (None, rank of a). The pivots
    left of the bar are the pivots of `a` alone."""
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    aug = [list(a[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    right, pivots = _exact_rref(aug, first=n)
    r = sum(1 for col in pivots if col < n)
    return (np.array(right, dtype=object) if r == n else None), r


def exact_inv(a) -> np.ndarray:
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


def _exact_rref(rows, first: int = 0):
    """Reduced row echelon form over the rationals; returns (rref, pivot_cols)
    with each row of rref read from column `first` on.

    Elimination runs in integer rows. Each row is cleared of its
    denominators once (`_int_row`) and divided by the gcd of its entries;
    each pivot is one `_clear`. A pivot is the first nonzero entry at or
    below the current row, which scaling a row does not move, so the pivots
    are those of rational elimination and each row, read back as
    Fraction(x, pivot entry), is its unique reduced row.
    """
    mat = [_primitive(_int_row(row)[0]) for row in rows]
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
    zero = Fraction(0)
    rref = [[Fraction(x, mat[i][col]) if x else zero for x in mat[i][first:]]
            for i, col in enumerate(pivots)]
    rref += [[zero] * (n - first) for _ in range(m - r)]
    return rref, pivots


def exact_rank(a) -> int:
    _, pivots = _exact_rref(a, first=a.shape[1])
    return len(pivots)


def exact_solve_unique(a, b):
    """Solve a @ x = b over the rationals; None if inconsistent. The solution
    has every free variable (non-pivot column of `a`) set to zero, so it is
    the unique one when `a` has full column rank. The reduced rows are exact,
    so a system with no pivot in the column of b is solved by x as read."""
    m, k = a.shape
    aug = [list(a[i]) + [b[i]] for i in range(m)]
    rhs, pivots = _exact_rref(aug, first=k)
    x = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        if col == k:
            return None  # a zero row equals a nonzero rhs
        x[col] = rhs[r][0]
    return np.array(x, dtype=object)


def farkas(a, b_y):
    """Farkas' alternative for one target row, in exact arithmetic: None when
    b_y = lam A for some lam >= 0, else c (Fractions) with A c >= 0 and
    b_y . c < 0.

    Phase one of the simplex method with Bland's rule (so it terminates) on
    D A^T lam + s = D b_y with lam, s >= 0, where D flips rows so the right
    side is nonnegative, from the basis s. Each row of the tableau is put
    over one denominator once (`_int_row`), and every pivot is a `_clear`
    with a positive pivot, so each integer row stays a positive multiple of
    its rational row: the reduced costs' signs and the ratio test (by cross
    products) read as in rational arithmetic. The objective, min sum(s)
    priced out on the basis s, carries its positive scale in one extra
    column. A zero optimum gives lam; a positive one leaves the dual u with
    A D u <= 0 and (D b_y) . u > 0, read from the slacks' reduced costs
    1 - u_i, so c = -D u.
    """
    m, k = a.shape
    rows, sign = [], []
    for i in range(k):
        ints, d = _int_row([*a[:, i], b_y[i]])
        sign.append(-1 if ints[-1] < 0 else 1)
        rows.append([sign[i] * x for x in ints[:m]] + [d * (r == i) for r in range(k)]
                    + [sign[i] * ints[-1], 0])
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
    from the extremes, with no |a| copy the size of `a`."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return tol * abs(max(float(a.max()), -float(a.min())))  # abs: never -0.0


def monomial(a, _nonzero=None):
    """Read a square matrix as a weighted permutation: exactly one nonzero
    entry per row, in distinct columns. Returns (columns, entries), with
    entries[y] = a[y, columns[y]], or None when `a` is not monomial.
    `_nonzero` is `a != 0` when the caller holds it (a parsed exact matrix),
    so an object array's entries are not asked for their truth one by one."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return None
    rows, cols = np.nonzero(a if _nonzero is None else _nonzero)
    n = a.shape[0]
    if rows.shape[0] != n or np.any(rows != np.arange(n)) or np.any(
            np.bincount(cols, minlength=n) != 1):
        return None
    return cols, a[rows, cols]


def rank(a, tol: float = 1e-10) -> int:
    """Rank of `a`; in float mode singular values up to cutoff(a, tol) count
    as zero. A monomial matrix's singular values are its entries' magnitudes,
    so it is read, not factored."""
    if is_exact(a):
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
        recip[:] = [Fraction(1) / e for e in entries]
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
    return monomial_matrix(*monomial_inv(*read)) if read is not None else dense_inv(a)


def dense_inv(a):
    """Inverse by elimination (exact) or LU (float), for a matrix already
    read as not monomial. Raises SingularMatrixError."""
    if is_exact(a):
        return exact_inv(a)
    try:
        out = np.linalg.inv(a)
    except np.linalg.LinAlgError as e:
        raise SingularMatrixError(str(e)) from e
    return finite_inverse(out)


def finite_inverse(out):
    """`out`, a computed inverse, unless a float entry overflowed. Raises
    SingularMatrixError."""
    if not is_exact(out) and not np.all(np.isfinite(out)):
        raise SingularMatrixError("inverse overflow; matrix numerically singular")
    return out


def frozen(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only in place and returned. `OperatorModel` keeps a
    read-only array without a copy, so a caller hands over a fresh array
    this way."""
    a.setflags(write=False)
    return a
