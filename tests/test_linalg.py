"""Exact and float linear-algebra helpers."""
import importlib
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oiso
from oiso import linalg, serialize


def frac_matrix(rows):
    return linalg.as_exact(rows)


class TestExactInv:
    def test_two_by_two(self):
        a = frac_matrix([[1, 2], [3, 4]])
        inv = linalg.exact_inv(a)
        # det = -2, inverse = [[-2, 1], [3/2, -1/2]]
        assert inv[0, 0] == Fraction(-2)
        assert inv[0, 1] == Fraction(1)
        assert inv[1, 0] == Fraction(3, 2)
        assert inv[1, 1] == Fraction(-1, 2)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            ints = rng.integers(-9, 10, size=(n, n))
            a = frac_matrix(ints.tolist())
            if linalg.exact_rank(a) < n:
                continue
            prod = linalg.mat_mat(a, linalg.exact_inv(a))
            for i in range(n):
                for j in range(n):
                    assert prod[i, j] == Fraction(int(i == j))

    def test_singular_raises(self):
        a = frac_matrix([[1, 2], [2, 4]])
        with pytest.raises(linalg.SingularMatrixError):
            linalg.exact_inv(a)

    def test_monomial_inverse(self):
        a = frac_matrix([[0, 2], [3, 0]])
        inv = linalg.exact_inv(a)
        assert inv[0, 1] == Fraction(1, 3)
        assert inv[1, 0] == Fraction(1, 2)
        assert inv[0, 0] == 0 and inv[1, 1] == 0


    def test_int_object_input_stays_rational(self):
        inv = linalg.exact_inv(np.array([[2, 1], [1, 1]], dtype=object))
        assert all(type(x) is Fraction for x in inv.ravel())
        assert inv.tolist() == [[1, -1], [-1, 2]]
        mono = linalg.inv(np.array([[0, 2], [3, 0]], dtype=object))
        assert all(type(x) is Fraction for x in mono.ravel())
        assert mono.tolist() == [[0, Fraction(1, 3)], [Fraction(1, 2), 0]]
        x = linalg.exact_solve_unique(np.array([[2, 0], [0, 4]], dtype=object), [1, 1])
        assert all(type(v) is Fraction for v in x)


def _seeded_monomials(seed, count, signed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 40))
        m = np.zeros((n, n))
        w = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=n))
        if signed:
            w *= rng.choice([-1.0, 1.0], size=n)
        m[np.arange(n), rng.permutation(n)] = w
        yield m


class TestMonomial:
    def test_reads_pattern(self):
        cols, entries = linalg.monomial(np.array([[0.0, 2.0, 0.0], [0.0, 0.0, -3.0],
                                                  [5.0, 0.0, 0.0]]))
        assert cols.tolist() == [1, 2, 0]
        assert entries.tolist() == [2.0, -3.0, 5.0]
        cols, entries = linalg.monomial(frac_matrix([[0, "1/2"], [3, 0]]))
        assert cols.tolist() == [1, 0] and entries.tolist() == [Fraction(1, 2), 3]

    def test_refuses_non_monomials(self):
        for a in ([[1.0, 1.0], [0.0, 1.0]],   # two nonzeros in a row
                  [[1.0, 0.0], [1.0, 0.0]],   # one column twice
                  [[1.0, 0.0], [0.0, 0.0]],   # a zero row
                  [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]):  # not square
            assert linalg.monomial(np.array(a)) is None
        assert linalg.monomial(frac_matrix([[1, 1], [0, 1]])) is None

    def test_inverse_matches_lu(self):
        # LAPACK leaves -0.0 at some off-pattern positions of a signed
        # monomial's inverse; adding +0.0 maps those to +0.0 and nothing else
        for signed in (False, True):
            for m in _seeded_monomials(7, 150, signed):
                ours = linalg.inv(m)
                assert ours.tobytes() == (np.linalg.inv(m) + 0.0).tobytes()

    def test_rank_counts_entries_above_the_svd_cutoff(self):
        for m in _seeded_monomials(8, 100, True):
            for tol in (1e-10, 1e-4):
                cutoff = tol * float(np.abs(m).max())
                assert linalg.rank(m, tol=tol) == np.linalg.matrix_rank(m, tol=cutoff)
                assert linalg.rank(1e-12 * m, tol=tol) == linalg.rank(m, tol=tol)
        tiny = np.array([[0.0, 1.0], [1e-20, 0.0]])
        assert linalg.rank(tiny) == 1
        assert linalg.rank(frac_matrix([[0, 1], ["1/100000000000000000000", 0]])) == 2


class TestRankAndNullspace:
    def test_exact_rank(self):
        assert linalg.exact_rank(frac_matrix([[1, 2], [2, 4]])) == 1
        assert linalg.exact_rank(frac_matrix([[1, 0], [0, 1]])) == 2
        assert linalg.exact_rank(frac_matrix([[0, 0], [0, 0]])) == 0

    def test_rank_dispatches_both_modes(self):
        assert linalg.rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
        assert linalg.rank(frac_matrix([[1, 2], [2, 4]])) == 1


class TestSolve:
    def test_exact_solve_unique(self):
        a = frac_matrix([[2, 0], [0, 4]])
        b = np.array([Fraction(1), Fraction(1)], dtype=object)
        x = linalg.exact_solve_unique(a, b)
        assert x[0] == Fraction(1, 2)
        assert x[1] == Fraction(1, 4)

    def test_exact_solve_overdetermined_consistent(self):
        a = frac_matrix([[1, 0], [0, 1], [1, 1]])
        b = np.array([Fraction(2), Fraction(3), Fraction(5)], dtype=object)
        x = linalg.exact_solve_unique(a, b)
        assert (x[0], x[1]) == (Fraction(2), Fraction(3))

    def test_exact_solve_inconsistent(self):
        a = frac_matrix([[1, 0], [0, 1], [1, 1]])
        b = np.array([Fraction(2), Fraction(3), Fraction(6)], dtype=object)
        assert linalg.exact_solve_unique(a, b) is None

    def test_exact_solve_sets_free_variables_to_zero(self):
        a = frac_matrix([[1, 1, 0], [2, 2, 1]])
        x = linalg.exact_solve_unique(a, [3, 7])
        assert x.tolist() == [Fraction(3), Fraction(0), Fraction(1)]


@settings(max_examples=200, deadline=None)
@given(a=hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
                    elements=st.one_of(st.floats(), st.sampled_from([0.0, -0.0]))),
       tol=st.sampled_from([1e-12, 1e-9, 1.0]))
def test_cutoff_reads_max_abs_from_the_extremes(a, tol):
    # the same double as tol * max|a|, +0.0 for an all-zero or empty `a`
    assert repr(linalg.cutoff(a, tol)) == repr(tol * float(np.abs(a).max(initial=0.0)))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                                        st.integers(1, 10 ** 6)), min_size=3, max_size=3),
                     min_size=1, max_size=4),
       shift=st.integers(-3000, 3000))
def test_scaled_float_reads_any_binary_scale(rows, shift):
    # the copy's largest magnitude is in [1/2, 2]; it is the float copy times
    # one power of two; and a power-of-two scale of the matrix does not
    # change it, past the double range too
    a = linalg.as_exact(rows)
    fa, got = linalg.as_float(a), linalg.scaled_float(a)
    assert got.dtype == float and got.shape == a.shape
    if not fa.any():
        assert not got.any()
        return
    assert 0.5 <= np.abs(got).max() <= 2
    ratio = fa[fa != 0] / got[fa != 0]
    assert np.all(ratio == ratio[0]) and np.frexp(ratio[0])[0] == 0.5
    assert np.array_equal(linalg.scaled_float(a * Fraction(2) ** shift), got)


def test_scaled_float_keeps_a_float_matrix():
    a = np.array([[1e300, -3.0], [0.0, 1e-300]])
    assert np.array_equal(linalg.scaled_float(a), a)


class TestConversions:
    def test_as_exact_accepts_strings_and_ints(self):
        a = linalg.as_exact([[1, "2/3"], [Fraction(1, 7), 0]])
        assert a[0, 1] == Fraction(2, 3)
        assert a[1, 0] == Fraction(1, 7)

    def test_as_exact_rejects_floats(self):
        with pytest.raises(TypeError):
            linalg.as_exact([[0.5]])

    def test_mat_vec_exact(self):
        a = frac_matrix([[1, 2], [0, 1]])
        v = np.array([Fraction(1), Fraction(3)], dtype=object)
        out = linalg.mat_vec(a, v)
        assert out[0] == Fraction(7) and out[1] == Fraction(3)

    def test_mat_vec_exact_zero_entries_of_v_add_no_term(self):
        # an exact zero of v adds an exact zero to each sum: skipping it keeps
        # the values and their types; a float zero is still added, so a sum
        # that reads it becomes a float as before
        a = frac_matrix([[1, 2, 3], [0, 4, 5]])
        for v, want in (([0, Fraction(2), Fraction(0)], [Fraction(4), Fraction(8)]),
                        ([Fraction(0), 0, 0], [Fraction(0), Fraction(0)]),
                        ([Fraction(1), 0.0, 0], [1.0, 0.0])):
            out = linalg.mat_vec(a, np.array(v, dtype=object))
            assert [(type(x), x) for x in out] == [(type(x), x) for x in want]

    def test_mat_vec_reads_only_the_columns_of_nonzero_entries(self):
        # an indicator reads one column of an exact matrix, not n products
        class Counting(Fraction):
            reads = 0

            def __bool__(self):
                Counting.reads += 1
                return super().__bool__()

        a = np.array([[Counting(i + j + 1) for j in range(4)] for i in range(4)], dtype=object)
        out = linalg.mat_vec(a, linalg.indicator(4, 2, exact=True))
        assert list(out) == [Fraction(i + 3) for i in range(4)] and Counting.reads == 4

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1,
                    max_size=4),
           st.lists(st.sampled_from([0, 1, -2, Fraction(0), Fraction(1, 3), 0.0, 0.5]),
                    min_size=3, max_size=3))
    def test_mat_vec_exact_matches_every_term(self, rows, v):
        a, vec = frac_matrix(rows), np.array(v, dtype=object)
        want = []
        for row in a:
            acc = Fraction(0)
            for x, y in zip(row, vec):
                if x:
                    acc += x * y
            want.append(acc)
        out = linalg.mat_vec(a, vec)
        assert [(type(x), x) for x in out] == [(type(x), x) for x in want]

    def test_zeros_like_mode(self):
        z = linalg.zeros_like_mode((2, 2), True)
        assert z.dtype == object and z[0, 0] == 0
        zf = linalg.zeros_like_mode((3,), False)
        assert zf.dtype == float and zf.shape == (3,)


# ---------------------------------------------------------------------------
# Integer-row elimination against the rational elimination it replaced, kept
# here as the oracle: every step divides and subtracts Fractions.

def _rational_rref(rows):
    mat = [[Fraction(x) for x in r] for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][col]
        if pv != 1:
            mat[r] = [x / pv for x in mat[r]]
        prow = mat[r]
        for i in range(m):
            if i == r:
                continue
            f = mat[i][col]
            if f:
                row = mat[i]
                for j in range(col, n):
                    if prow[j]:
                        row[j] -= f * prow[j]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return mat, pivots


def _rational_mat_mat(a, b):
    m, k = a.shape
    n = b.shape[1]
    out = np.empty((m, n), dtype=object)
    for i in range(m):
        for j in range(n):
            acc = Fraction(0)
            for t in range(k):
                if a[i, t]:
                    acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def _rational_inv(a):
    """The oracle's inverse, or None when `a` is singular."""
    n = a.shape[0]
    rref, pivots = _rational_rref([list(a[i]) + [int(i == j) for j in range(n)]
                                   for i in range(n)])
    return np.array([row[n:] for row in rref], dtype=object) if pivots[:n] == list(
        range(n)) else None


def _rational_solve(a, b):
    m, k = a.shape
    rref, pivots = _rational_rref([list(a[i]) + [b[i]] for i in range(m)])
    x = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        if col == k:
            return None
        x[col] = rref[r][k]
    return x if list(_rational_mat_mat(a, np.array([x], dtype=object).T)[:, 0]) == [
        Fraction(v) for v in b] else None


# ints, numpy ints and Fractions of either sign; zero is drawn often
_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.integers(-4, 4).map(np.int64),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
)


@st.composite
def _matrices(draw, square=False, rows=None):
    """Tall, wide or square (or with the given row count); dense, of lower
    rank (a product through fewer columns), or with zeroed rows and columns."""
    m = rows or draw(st.integers(1, 6))
    n = m if square else draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["dense", "low-rank", "zero-lines"]))
    if kind == "low-rank":
        r = draw(st.integers(0, min(m, n) - 1)) if min(m, n) > 1 else 0
        u = [[Fraction(int(draw(st.integers(-4, 4)))) for _ in range(r)] for _ in range(m)]
        v = [[draw(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
              for _ in range(n)] for _ in range(r)]
        rows = [[sum((u[i][t] * v[t][j] for t in range(r)), Fraction(0)) for j in range(n)]
                for i in range(m)]
    else:
        rows = [[draw(_ENTRIES) for _ in range(n)] for _ in range(m)]
    if kind == "zero-lines":
        for i in draw(st.sets(st.integers(0, m - 1))):
            rows[i] = [0] * n
        for j in draw(st.sets(st.integers(0, n - 1))):
            for row in rows:
                row[j] = Fraction(0)
    a = np.empty((m, n), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            a[i, j] = x
    return a


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


class TestIntegerRowsMatchRationalElimination:
    @settings(max_examples=300, deadline=None)
    @given(_matrices())
    def test_rref_and_pivots(self, a):
        # the integer rows of the wrapped matrix, each pivot row read over
        # its positive pivot entry, are the rational reduced rows
        ref, ref_pivots = _rational_rref([list(r) for r in a])
        rows, pivots = linalg._exact_rref(list(linalg.matrix_value(a).rows))
        assert pivots == ref_pivots
        assert all(rows[i][col] > 0 for i, col in enumerate(pivots))
        rref = [[Fraction(x, rows[i][col]) for x in rows[i]] for i, col in enumerate(pivots)]
        assert rref == ref[:len(pivots)]
        assert all(not any(row) for row in rows[len(pivots):])
        assert linalg.exact_rank(a) == len(ref_pivots)

    @settings(max_examples=200, deadline=None)
    @given(_matrices(square=True))
    def test_inverse(self, a):
        ref = _rational_inv(a)
        inv, rank = linalg.exact_inv_or_rank(a)
        assert rank == len(_rational_rref([list(r) for r in a])[1])
        if ref is None:
            assert inv is None
            with pytest.raises(linalg.SingularMatrixError, match="singular in exact"):
                linalg.exact_inv(a)
            return
        assert inv.tolist() == ref.tolist() and _all_fractions(inv)
        assert linalg.exact_inv(a).tolist() == ref.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mat_mat(self, data):
        a = data.draw(_matrices())
        b = data.draw(_matrices(rows=a.shape[1]))
        out = linalg.mat_mat(a, b)
        assert out.tolist() == _rational_mat_mat(a, b).tolist()
        assert _all_fractions(out)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mat_mat_mat(self, data):
        # one chain on integer rows: the entries of two rational products,
        # all Fractions, as an array from arrays and as an ExactMatrix from
        # values
        a = data.draw(_matrices())
        b = data.draw(_matrices(rows=a.shape[1]))
        c = data.draw(_matrices(rows=b.shape[1]))
        out = linalg.mat_mat_mat(a, b, c)
        ref = _rational_mat_mat(a, _rational_mat_mat(b, c))
        assert out.tolist() == ref.tolist() and _all_fractions(out)
        value = linalg.mat_mat_mat(*map(linalg.matrix_value, (a, b, c)))
        assert isinstance(value, linalg.ExactMatrix) and value.array.tolist() == ref.tolist()

    def test_float_mat_mat_mat_is_mat_mat_from_the_right(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
        assert linalg.mat_mat_mat(a, b, c).tobytes() == (a @ (b @ c)).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_solve(self, data):
        a = data.draw(_matrices())
        m, k = a.shape
        if data.draw(st.booleans()):  # consistent: the image of some x
            x = np.array([[data.draw(_ENTRIES)] for _ in range(k)], dtype=object)
            b = list(_rational_mat_mat(a, x)[:, 0])
        else:
            b = [data.draw(_ENTRIES) for _ in range(m)]
        ref = _rational_solve(a, b)
        got = linalg.exact_solve_unique(a, b)
        if ref is None:
            assert got is None
        else:
            assert got.tolist() == ref and _all_fractions([got])


# ---------------------------------------------------------------------------
# The integer-row Farkas simplex against the rational tableau it replaced,
# kept here verbatim as the oracle: every pivot divides and subtracts
# Fractions.

def _rational_farkas(a, b_y):
    """Farkas' alternative for one point in rational arithmetic: None when
    b_y = lam A for some lam >= 0, else c with A c >= 0 and b_y . c < 0.

    Phase one of the simplex method with Bland's rule (so it terminates) on
    D A^T lam + s = D b_y with lam, s >= 0, where D flips rows so the right
    side is nonnegative, from the basis s. A zero optimum gives lam; a positive
    one leaves the dual u with A D u <= 0 and (D b_y) . u > 0, so c = -D u.
    """
    m, k = a.shape
    zero, one = Fraction(0), Fraction(1)
    sign = [-1 if v < 0 else 1 for v in b_y]
    rows = [[Fraction(sign[i] * v) for v in a[:, i]]
            + [one if r == i else zero for r in range(k)] + [sign[i] * b_y[i]]
            for i in range(k)]
    # reduced costs of min sum(s) in the basis s; the last entry is -sum(s)
    obj = [-sum(col) for col in zip(*rows)]
    obj[m:m + k] = [zero] * k
    basis = list(range(m, m + k))
    while True:
        enter = next((j for j in range(m + k) if obj[j] < 0), None)
        if enter is None:
            break
        leave = min((i for i in range(k) if rows[i][enter] > 0),
                    key=lambda i: (rows[i][-1] / rows[i][enter], basis[i]))
        p = rows[leave][enter]
        piv = rows[leave] = [v / p for v in rows[leave]]
        for row in rows + [obj]:
            f = row[enter]
            if f and row is not piv:
                row[:] = [v - f * w for v, w in zip(row, piv)]
        basis[leave] = enter
    if not obj[-1]:
        return None
    # the reduced cost of s_i is 1 - u_i
    return np.array([-sign[i] * (one - obj[m + i]) for i in range(k)], dtype=object)


_BIG = 2 ** 70
# ints and "p/q" strings, small and with numerators past 2**64; zero often
_FARKAS_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.integers(-_BIG, _BIG),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 7)),
    st.builds("{}/{}".format, st.integers(-_BIG, _BIG), st.integers(1, 2 ** 66)),
)


@st.composite
def _farkas_instances(draw):
    """(A, b_y) with A m x k; b_y drawn inside the cone of A's rows
    (lam A with integer lam >= 0) or anywhere."""
    m, k = draw(st.integers(1, 12)), draw(st.integers(1, 7))
    a = linalg.as_exact([[draw(_FARKAS_ENTRIES) for _ in range(k)] for _ in range(m)])
    if draw(st.booleans()):
        lam = [draw(st.integers(0, 3)) for _ in range(m)]
        b = [sum((lam[i] * a[i, j] for i in range(m)), Fraction(0)) for j in range(k)]
    else:
        b = list(linalg.as_exact([[draw(_FARKAS_ENTRIES) for _ in range(k)]])[0])
    return a, np.array(b, dtype=object)


class TestFarkas:
    @settings(max_examples=300, deadline=None)
    @given(_farkas_instances())
    def test_matches_the_rational_tableau(self, inst):
        a, b = inst
        ref, got = _rational_farkas(a, b), linalg.farkas(a, b)
        if ref is None:
            assert got is None
            return
        assert got is not None and got.tolist() == ref.tolist() and _all_fractions([got])
        # the witness: A c >= 0 and b . c < 0
        assert all(v >= 0 for v in linalg.mat_vec(a, got))
        assert sum(x * y for x, y in zip(b, got)) < 0

    def test_fraction_work_does_not_grow_with_the_pivots(self, monkeypatch):
        # one call builds a Fraction only to read the dual: at most (m+2)k
        # Fraction calls whatever the pivot count; the tableau makes
        # O(pivots k (m+k))
        rng = np.random.default_rng(1)
        m, k = 10, 5
        a = linalg.as_exact([[Fraction(int(x), int(d)) for x, d in zip(row, den)]
                             for row, den in zip(rng.integers(-9, 10, (m, k)),
                                                 rng.integers(1, 5, (m, k)))])
        b = linalg.as_exact([rng.integers(-9, 10, k).tolist()])[0]
        calls, pivots = [0], [0]

        def counted(name):
            real = getattr(Fraction, name)
            if name == "__new__":
                return staticmethod(lambda *args, **kwargs: calls.__setitem__(0, calls[0] + 1)
                                    or real(*args, **kwargs))
            return lambda *args, **kwargs: calls.__setitem__(0, calls[0] + 1) or real(
                *args, **kwargs)

        names = ["__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__eq__",
                 "__lt__", "__le__", "__gt__", "__ge__", "__bool__"]
        expected = _rational_farkas(a, b)
        real_clear = linalg._clear
        with monkeypatch.context() as patch:
            for name in names:
                patch.setattr(Fraction, name, counted(name))
            patch.setattr(linalg, "_clear", lambda rows, r, col: pivots.__setitem__(
                0, pivots[0] + 1) or real_clear(rows, r, col))
            got = linalg.farkas(a, b)
            new_calls, calls[0] = calls[0], 0
            _rational_farkas(a, b)
            old_calls = calls[0]
        assert expected is not None and got.tolist() == expected.tolist()
        assert pivots[0] - k >= 10  # simplex pivots, past the k that price out s
        assert new_calls <= (m + 2) * k < old_calls


# ---------------------------------------------------------------------------
# The exact kernels on `ExactMatrix` values, as a document's parse builds
# them, against the Fraction oracles above.

_HUGE = 2 ** 63
# ints and "p/q" strings, small and with numerators past 2**63; zero often
_DOC_ENTRIES = st.one_of(
    st.just(0),
    st.just("0"),
    st.integers(-4, 4),
    st.integers(_HUGE, 2 ** 70).flatmap(lambda k: st.sampled_from([k, -k])),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 7)),
    st.builds("{}/{}".format, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 66)),
)


@st.composite
def _documents(draw, rows=None, cols=None):
    """The rows of a matrix document: now and then with zero rows and with
    rows repeated (possibly scaled by a "p/q" factor, so of lower rank)."""
    m = rows or draw(st.integers(1, 5))
    n = cols or draw(st.integers(1, 5))
    doc = [[draw(_DOC_ENTRIES) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        doc[i] = [0] * n
    if m > 1 and draw(st.booleans()):  # a repeated row, as it is or scaled
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        k = draw(st.sampled_from([Fraction(1), Fraction(-2, 3), Fraction(2 ** 65, 3)]))
        doc[j] = [str(Fraction(x) * k) for x in doc[i]]
    return doc


def _value(doc):
    """(ExactMatrix as the parse reads it, the Fraction array of the oracles)."""
    return serialize._read_matrix(doc, True), linalg.as_exact(doc)


def _old_scaled_float(a):
    """`scaled_float` as it read Fractions, kept as the oracle."""
    e = max((abs(x.numerator).bit_length() - x.denominator.bit_length()
             for x in a.flat if x.numerator), default=0)
    return np.array([(x.numerator << max(-e, 0)) / (x.denominator << max(e, 0))
                     for x in a.flat], dtype=float).reshape(a.shape)


class TestExactMatrixMatchesTheFractionOracles:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_kernels(self, data):
        value, a = _value(data.draw(_documents()))
        m, n = a.shape
        assert isinstance(value, linalg.ExactMatrix) and value.shape == a.shape
        assert all(d > 0 for d in value.dens)
        assert value.array.tolist() == a.tolist() and _all_fractions(value.array)
        assert value.T.array.tolist() == a.T.tolist()
        assert linalg.scaled_float(value).tobytes() == _old_scaled_float(a).tobytes()
        ref, ref_pivots = _rational_rref([list(r) for r in a])
        assert linalg.exact_rank(value) == len(ref_pivots)

        other, b = _value(data.draw(_documents(rows=n)))
        product = linalg.mat_mat(value, other)
        assert product.array.tolist() == _rational_mat_mat(a, b).tolist()
        # a kernel's result reads as float as its Fractions do
        assert linalg.as_float(product).tobytes() == linalg.as_float(product.array).tobytes()
        assert linalg.cutoff(product, 1e-9) == linalg.cutoff(product.array, 1e-9)
        third, c = _value(data.draw(_documents(rows=b.shape[1])))
        assert linalg.mat_mat_mat(value, other, third).array.tolist() == \
            _rational_mat_mat(a, _rational_mat_mat(b, c)).tolist()

        v = np.array([Fraction(x) for x in data.draw(_documents(rows=1, cols=n))[0]],
                     dtype=object)
        want = [sum((x * y for x, y in zip(row, v) if x), Fraction(0)) for row in a]
        got = linalg.mat_vec(value, v)
        assert [(type(x), x) for x in got] == [(type(x), x) for x in want]

        rhs, rhs_array = _value(data.draw(_documents(cols=1, rows=m)))
        ref_x = _rational_solve(a, list(rhs_array[:, 0]))
        x = linalg.exact_solve_unique(value, rhs)
        assert (x is None) == (ref_x is None)
        if x is not None:
            assert x.tolist() == ref_x and _all_fractions([x])

        row, row_array = _value(data.draw(_documents(rows=1, cols=n)))
        ref_c, c = _rational_farkas(a, row_array[0]), linalg.farkas(value, row)
        assert (c is None) == (ref_c is None)
        if c is not None:
            assert c.tolist() == ref_c.tolist() and _all_fractions([c])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_square_kernels(self, data):
        n = data.draw(st.integers(1, 5))
        value, a = _value(data.draw(_documents(rows=n, cols=n)))
        ref = _rational_inv(a)
        inv, rank = linalg.exact_inv_or_rank(value)
        assert rank == len(_rational_rref([list(r) for r in a])[1])
        assert (inv is None) == (ref is None)
        if inv is not None:
            assert isinstance(inv, linalg.ExactMatrix) and inv.rank == n
            assert all(d > 0 for d in inv.dens)
            assert inv.array.tolist() == ref.tolist()
        read, ref_read = linalg.monomial(value), linalg.monomial(a)
        assert (read is None) == (ref_read is None)
        if read is not None:
            assert read[0].tolist() == ref_read[0].tolist()
            assert read[1].tolist() == ref_read[1].tolist() and _all_fractions([read[1]])

    def test_a_kernel_reads_a_given_array_without_keeping_it(self):
        a = linalg.as_exact([[1, "1/2"], [0, 3]])
        assert linalg._exact_value(a)._array is None
        kept = linalg.matrix_value(a).array
        assert kept is not a and not kept.flags.writeable and kept.tolist() == a.tolist()
        assert linalg.exact_inv(a).tolist() == _rational_inv(a).tolist()


@st.composite
def _nnls_problems(draw):
    """(a, b) of small float or int entries, m < n as often as not, `a`
    sometimes a transposed (F-ordered) view and, for floats, sometimes
    holding one entry that is not finite."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    ints = draw(st.booleans())
    dtype, elements = ((np.int64, st.integers(-9, 9)) if ints
                       else (np.float64, st.floats(-1e3, 1e3, width=64)))
    transposed = draw(st.booleans())
    a = draw(hnp.arrays(dtype, (n, m) if transposed else (m, n), elements=elements))
    a = a.T if transposed else a
    b = draw(hnp.arrays(dtype, m, elements=elements))
    if not ints and draw(st.booleans()):
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if draw(st.booleans()):
            a = a.copy()
            a[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = bad
        else:
            b[draw(st.integers(0, m - 1))] = bad
    return a, b


def _outcome(fit, a, b):
    try:
        x, rnorm = fit(a, b)
    except (ValueError, RuntimeError) as e:
        return type(e)
    return x.tobytes(), np.float64(rnorm).tobytes()


class TestScipyKernels:
    @settings(max_examples=300, deadline=None)
    @given(_nnls_problems())
    def test_nnls_is_scipys_bit_for_bit(self, problem):
        a, b = problem
        got = _outcome(linalg.nnls, a, b)
        assert got == _outcome(scipy.optimize.nnls, a, b)
        finite = np.isfinite(a).all() and np.isfinite(b).all()
        assert (got is ValueError) == (not finite)

    def test_a_name_with_no_extension_file_is_imported(self, monkeypatch):
        # scipy.optimize._nnls is a Python file, so no extension file matches it
        name, imported = "scipy.optimize._nnls", []
        monkeypatch.delitem(sys.modules, name)
        monkeypatch.setattr(scipy.optimize, "_nnls", scipy.optimize._nnls)  # the import rebinds it
        real = importlib.import_module
        monkeypatch.setattr(importlib, "import_module",
                            lambda n, *args: imported.append(n) or real(n, *args))
        module = linalg._scipy_extension(name)
        assert imported == [name] and module is sys.modules[name]
        assert module.nnls([[1.0]], [2.0])[0].tolist() == [2.0]


_COLD_PATH = textwrap.dedent("""
    import sys
    from fractions import Fraction

    import numpy as np

    from oiso import (FunctionFamily, OperatorModel, PointSpace, check_adequate,
                      is_order_isomorphism, linalg)

    calls = {"nnls": 0, "block_lp": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(linalg, name)):
            calls[name] += 1
            return real(*args)
        setattr(linalg, name, counted)

    def one_t(conv, dtype):
        gen = np.array([[conv(1)] * 4, [conv(t) for t in range(4)]], dtype=dtype)
        return FunctionFamily(PointSpace.grid([0.0, 1.0, 2.0, 3.0]), gen)

    fam = one_t(float, float)
    shear = OperatorModel(np.array([[1.0, 2.0], [0.0, 1.0]]), fam, fam, basis="generator")
    assert not is_order_isomorphism(shear).accept and calls["block_lp"] == 1
    fam = one_t(Fraction, object)
    eye = np.array([[Fraction(int(i == j)) for j in range(2)] for i in range(2)], dtype=object)
    fits = calls["nnls"]
    assert is_order_isomorphism(OperatorModel(eye, fam, fam, basis="generator")).accept
    assert calls["nnls"] > fits
    fits = calls["nnls"]
    gen = np.array([[0.2, 0.5, 0.8], [0.16, 0.25, 0.16]])
    assert check_adequate(FunctionFamily(PointSpace.discrete(3), gen)).cone_generates
    assert calls["nnls"] > fits
    assert "scipy.optimize" not in sys.modules
    core = sys.modules["scipy.optimize._highspy._core"]
    slsqplib = sys.modules["scipy.optimize._slsqplib"]

    import scipy.optimize
    from scipy.optimize import _nnls
    from scipy.optimize._highspy import _highs_wrapper
    assert sys.modules["scipy.optimize._highspy._core"] is core and _highs_wrapper._h is core
    assert sys.modules["scipy.optimize._slsqplib"] is slsqplib and _nnls._nnls is slsqplib.nnls
    lp = scipy.optimize.linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
    assert lp.status == 0 and abs(lp.fun - 1.0) < 1e-9
    assert scipy.optimize.nnls(np.eye(2), np.array([1.0, -1.0]))[0].tolist() == [1.0, 0.0]
    print("ok")
""")


def test_a_fresh_process_reaches_both_kernels_without_scipy_optimize():
    # test modules import scipy.optimize, so only a new process loads the files
    root = os.path.dirname(os.path.dirname(oiso.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _COLD_PATH], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")
