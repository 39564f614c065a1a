"""Point spaces, function families, zero sets, and span/cone membership."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oiso import (
    DimensionMismatchError,
    FunctionFamily,
    FunctionVec,
    PointSpace,
    ZeroSet,
    build_lipschitz_family,
    cone_membership,
    span_membership,
)
from oiso import linalg
from oiso.fuzz import random_metric_space


class TestPointSpace:
    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            PointSpace(("a", "a"))

    def test_metric_validation(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])  # not symmetric
        with pytest.raises(ValueError):
            PointSpace(("a", "b"), metric=bad)

    def test_triangle_inequality_checked(self):
        m = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            PointSpace(("a", "b", "c"), metric=m)

    def test_large_grids_build(self):
        # |s - t| rounds by more than METRIC_TOL at this scale; the checks
        # are relative to the largest distance
        for seed in range(20):
            values = np.random.default_rng(seed).uniform(0.0, 1e6, size=30)
            assert PointSpace.grid(values).size == 30

    def test_scaled_triangle_violation_refused(self):
        m = 1e6 * np.array([[0.0, 1.0, 2.0 + 1e-9], [1.0, 0.0, 1.0],
                            [2.0 + 1e-9, 1.0, 0.0]])
        with pytest.raises(ValueError, match="triangle"):
            PointSpace(("a", "b", "c"), metric=m)

    def test_grid_metric(self):
        sp = PointSpace.grid([0.0, 0.5, 1.0])
        assert sp.metric[0, 2] == 1.0
        assert sp.metric[0, 1] == 0.5

    def test_index_by_label_and_int(self):
        sp = PointSpace.discrete(3)
        assert sp.index("x2") == 1
        assert sp.index(2) == 2
        with pytest.raises(KeyError):
            sp.index("zz")


class TestFunctionFamily:
    def test_rank_validated(self):
        sp = PointSpace.discrete(3)
        with pytest.raises(ValueError):
            FunctionFamily(sp, np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]))

    def test_full_family(self):
        fam = FunctionFamily.full(PointSpace.discrete(4))
        assert fam.is_full and fam.rank == 4
        assert fam.has_constants()

    def test_exact_full_family(self):
        fam = FunctionFamily.full(PointSpace.discrete(3), exact=True)
        assert fam.exact
        assert fam.generators[1, 1] == Fraction(1)
        assert all(type(v) is Fraction for v in fam.generators.ravel())
        assert fam.generators.tolist() == np.eye(3).tolist()

    def test_values_and_coefficients_roundtrip(self):
        sp = PointSpace.grid([0.0, 0.5, 1.0])
        ts = np.array([0.0, 0.5, 1.0])
        fam = FunctionFamily(sp, np.array([np.ones(3), ts, ts**2]),
                             names=("1", "t", "t^2"))
        c = np.array([1.0, -2.0, 1.0])
        v = fam.values(c)  # (1 - t)^2 on the grid
        assert np.allclose(v, (1 - ts) ** 2)
        back = fam.coefficients_of(v)
        assert np.allclose(back, c)

    @pytest.mark.parametrize("rows", [[[1, 1, 1], [0, 1, 2], [0, 0, 1]],
                                      [[0, "1/2", 0], [0, 0, -3], [2, 0, 0]]],
                             ids=["dense", "monomial"])
    def test_exact_coefficient_matrix_is_kept(self, rows):
        fam = FunctionFamily(PointSpace.discrete(3), linalg.as_exact(rows))
        inv_t = fam.coefficient_matrix()
        assert inv_t is fam.coefficient_matrix() and not inv_t.flags.writeable
        assert inv_t.tolist() == linalg.exact_inv(fam.generators.T).tolist()
        assert all(type(v) is Fraction for v in inv_t.ravel())

    def test_float_coefficient_matrix(self):
        g = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
        fam = FunctionFamily(PointSpace.discrete(3), g)
        assert fam.coefficient_matrix().tobytes() == np.linalg.inv(g.T).tobytes()

    def test_exact_square_rank_deficiency_is_reported(self):
        g = linalg.as_exact([[1, 1, 1], [0, 1, 2], [1, 2, 3]])
        with pytest.raises(ValueError, match=r"rank 2 < 3"):
            FunctionFamily(PointSpace.discrete(3), g)

    def test_unchecked_square_family_checks_its_rank_with_its_inverse(self):
        # the private path adopts G, whose rank its operator proves; its
        # inverse is eliminated on first use (a dependent codomain's error
        # is pinned at parse, in test_cli.TestFullFamilyChecks)
        g = linalg.as_exact([[1, 1, 1], [0, 1, 2], [0, 0, 1]])
        fam = FunctionFamily._unchecked(PointSpace.discrete(3), g, None)
        assert fam.coefficient_matrix().tolist() == linalg.exact_inv(g.T).tolist()


class TestSpanMembership:
    def test_binomial_coefficients(self):
        # (1 - t)^2 = 1 - 2t + t^2 over {1, t, t^2} on a 3-point grid
        ts = np.array([0.0, 0.5, 1.0])
        sp = PointSpace.grid(list(ts))
        fam = FunctionFamily(sp, np.array([np.ones(3), ts, ts**2]))
        ok, c = span_membership(fam, (1 - ts) ** 2)
        assert ok
        assert np.allclose(c, [1.0, -2.0, 1.0], atol=1e-12)

    def test_outside_span(self):
        sp = PointSpace.discrete(3)
        fam = FunctionFamily(sp, np.array([[1.0, 1.0, 1.0]]))
        ok, c = span_membership(fam, np.array([1.0, 0.0, 0.0]))
        assert not ok and c is None

    def test_exact_membership(self):
        sp = PointSpace.discrete(2)
        gen = np.array([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]],
                       dtype=object)
        fam = FunctionFamily(sp, gen)
        f = np.array([Fraction(1, 3), Fraction(5, 6)], dtype=object)
        ok, c = span_membership(fam, f)
        assert ok
        assert c[0] == Fraction(1, 3) and c[1] == Fraction(1, 2)

    @pytest.mark.parametrize("rows", [[[1, 1], [0, 1]], [[1, 1]]], ids=["full", "proper"])
    def test_exact_family_refuses_float_values(self, rows):
        fam = FunctionFamily(PointSpace.discrete(2), linalg.as_exact(rows))
        with pytest.raises(TypeError, match="exact function values"):
            span_membership(fam, [1, 0])  # ints are read as floats

    @pytest.mark.parametrize("exact", [False, True])
    def test_full_family_reads_its_kept_inverse(self, monkeypatch, exact):
        rows = [[1, 1, 1], [0, 1, 2], [0, 0, 1]]
        g = linalg.as_exact(rows) if exact else np.array(rows, dtype=float)
        fam = FunctionFamily(PointSpace.discrete(3), g)
        v = linalg.as_exact([[2, -1, "1/2"]])[0] if exact else np.array([2.0, -1.0, 0.5])
        want = linalg.mat_vec(fam.coefficient_matrix(), v)
        monkeypatch.setattr(np.linalg, "lstsq", None)  # no fresh solve of either kind
        monkeypatch.setattr(linalg, "_exact_rref", None)
        ok, c = span_membership(fam, v)
        assert ok and c.tolist() == want.tolist()

    def test_cone_membership_requires_nonneg_values(self):
        # on a full family the coefficients are the point values themselves
        sp = PointSpace.discrete(2)
        fam = FunctionFamily.full(sp)
        assert cone_membership(fam, np.array([1.0, 0.0]))
        assert not cone_membership(fam, np.array([1.0, -1.0]))
        # {1, t} on a 3-point grid: 2 - t is nonnegative there
        ts = np.array([0.0, 0.5, 1.0])
        fam2 = FunctionFamily(PointSpace.grid(list(ts)), np.array([np.ones(3), ts]))
        assert cone_membership(fam2, np.array([2.0, -1.0]))
        assert not cone_membership(fam2, np.array([0.0, -1.0]))


def _lipschitz(rng):
    return build_lipschitz_family(random_metric_space(rng, max_points=7))


def _polynomials(rng):
    # {1, t, ..., t^(k-1)} on m > k grid points: a proper family with constants
    m = int(rng.integers(3, 9))
    ts = np.linspace(0.0, 1.0, m)
    return FunctionFamily(PointSpace.grid(list(ts)),
                          np.vander(ts, int(rng.integers(1, m)), increasing=True).T)


def _integer_rows(rng):
    m = int(rng.integers(2, 9))
    k = int(rng.integers(1, m + 1))
    while True:
        g = rng.integers(-3, 4, size=(k, m)).astype(float)
        if np.linalg.matrix_rank(g) == k:
            return FunctionFamily(PointSpace.discrete(m), g)


class TestScaledFamilies:
    @settings(max_examples=80, deadline=None)
    @given(make=st.sampled_from([_lipschitz, _polynomials, _integer_rows]),
           seed=st.integers(0, 2**32 - 1), exponent=st.floats(-12.0, 12.0))
    def test_scaled_generators_get_the_same_answers(self, make, seed, exponent):
        rng = np.random.default_rng(seed)
        fam = make(rng)
        alpha = 10.0 ** exponent
        scaled = FunctionFamily(fam.space, alpha * fam.generators)
        assert scaled.has_constants() == fam.has_constants()
        c = rng.standard_normal(fam.rank)
        coeffs = [c]
        if fam.has_constants():
            # c shifted by constants until its minimum value is 1
            coeffs.append(c + (1.0 - fam.values(c).min()) * fam.coefficients_of(fam.ones()))
        for cc in coeffs:
            assert cone_membership(scaled, cc) == cone_membership(fam, cc)
        for v in (fam.values(c), rng.standard_normal(fam.space.size)):
            ok, got = span_membership(scaled, alpha * v)
            want_ok, want = span_membership(fam, v)
            assert ok == want_ok
            if ok:
                assert np.allclose(got, want, rtol=1e-6, atol=1e-9 * np.abs(want).max())

    @pytest.mark.parametrize("alpha", [1.0, 1e-6])
    def test_small_negative_element_is_outside_the_cone_at_every_scale(self, alpha):
        # -1e-3 at every point is below -tol * 1e-3; an absolute cutoff
        # judged alpha * -1e-3 = -1e-9 nonnegative at alpha = 1e-6
        ts = np.array([0.0, 0.5, 1.0])
        fam = FunctionFamily(PointSpace.grid(list(ts)), alpha * np.array([np.ones(3), ts]))
        assert not cone_membership(fam, np.array([-1e-3, 0.0]))


class TestZeroSet:
    def test_of_and_intersect(self):
        z1 = ZeroSet.of(np.array([0.0, 1.0, 0.0]))
        z2 = ZeroSet.of(np.array([0.0, 0.0, 2.0]))
        inter = z1.intersect(z2)
        assert list(inter.mask) == [True, False, False]
        assert not inter.empty

    def test_exact_zero_set(self):
        v = np.array([Fraction(0), Fraction(1, 10**12)], dtype=object)
        z = ZeroSet.of(v)
        assert list(z.mask) == [True, False]

    def test_float_tolerance(self):
        z = ZeroSet.of(np.array([1e-12, 1e-3]), tol=1e-9)
        assert list(z.mask) == [True, False]

    def test_equality_compares_shape_and_entries(self):
        z = ZeroSet.of(np.array([0.0, 1.0, 0.0]))
        assert z == ZeroSet(np.array([True, False, True]))
        assert z != ZeroSet(np.array([True, True, True]))
        assert z != ZeroSet(np.array([True, False]))
        assert (z == "mask") is False

    def test_equal_zero_sets_hash_equal(self):
        z = ZeroSet.of(np.array([0.0, 1.0, 0.0]))
        assert hash(z) == hash(ZeroSet(np.array([True, False, True])))
        assert len({z, ZeroSet(np.array([1, 0, 1])), ZeroSet(np.array([True, True, True]))}) == 2


class TestFunctionVec:
    def test_equal_vectors_hash_equal(self):
        # equality reads values: 0.0 == -0.0, and an exact vector equals the
        # float vector of the same values
        f = FunctionVec(np.array([0.0, 1.5, -2.0]))
        for g in (FunctionVec(np.array([-0.0, 1.5, -2.0])),
                  FunctionVec(np.array([Fraction(0), Fraction(3, 2), -2], dtype=object))):
            assert f == g and hash(f) == hash(g)
        assert len({f, FunctionVec(np.array([0.0, 1.5, -2.0])),
                    FunctionVec(np.array([0.0, 1.5, 2.0]))}) == 2


class TestLipschitzFamily:
    def test_three_point_line(self):
        sp = PointSpace.grid([0.0, 1.0, 3.0])
        fam = build_lipschitz_family(sp)
        assert fam.is_full
        assert fam.has_constants()

    def test_four_cycle_needs_completion(self):
        # cycle metric: distance = shortest path around a 4-cycle;
        # constants + the four distance columns only span rank 3
        m = np.array([[0, 1, 2, 1],
                      [1, 0, 1, 2],
                      [2, 1, 0, 1],
                      [1, 2, 1, 0]], dtype=float)
        sp = PointSpace(("a", "b", "c", "d"), metric=m)
        pre_rows = np.vstack([np.ones(4), m])
        assert np.linalg.matrix_rank(pre_rows) == 3
        fam = build_lipschitz_family(sp)
        assert fam.is_full

    def test_metric_required(self):
        with pytest.raises(ValueError):
            build_lipschitz_family(PointSpace.discrete(3))

    def test_seeds_included(self):
        sp = PointSpace.grid([0.0, 1.0, 2.0])
        seed = np.array([5.0, 0.0, 0.0])
        fam = build_lipschitz_family(sp, seeds=[seed])
        ok, _ = span_membership(fam, seed)
        assert ok
