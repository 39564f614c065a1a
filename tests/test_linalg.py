"""Exact and float linear-algebra helpers."""
from fractions import Fraction

import numpy as np
import pytest

from oiso import linalg


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

    def test_zeros_like_mode(self):
        z = linalg.zeros_like_mode((2, 2), True)
        assert z.dtype == object and z[0, 0] == 0
        zf = linalg.zeros_like_mode((3,), False)
        assert zf.dtype == float and zf.shape == (3,)
