"""Tests for weighted-composition recovery, normalization, and screens."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oiso import linalg
from oiso.cones import OperatorModel, is_order_isomorphism
from oiso.fuzz import random_monomial, random_nonneg_nonmonomial, spawn_generators
from oiso.recovery import (
    AmbiguousIntersectionError,
    Decomposition,
    InternalContradictionError,
    NotOrderIsomorphismError,
    decompose,
    fip_check,
    normalize,
    recover_map,
    recover_point,
    verify_representation,
    zero_family,
)
from oiso.spaces import DEFAULT_TOL, FunctionFamily, PointSpace


def _monomial(sigma, weight):
    return OperatorModel.weighted_permutation(sigma, np.asarray(weight, dtype=float))


class TestZeroFamily:
    def test_members_are_off_anchor_indicators(self):
        t = _monomial((1, 2, 0), (2.0, 3.0, 5.0))
        zf = zero_family(t, 0)
        assert zf.anchor == 0
        assert [m.description for m in zf.members] == ["indicator(x2)", "indicator(x3)"]
        # image of e_j is column j of the matrix
        assert np.allclose(zf.members[0].image_values, t.matrix[:, 1])
        assert np.allclose(zf.members[1].image_values, t.matrix[:, 2])

    def test_intersection_pins_the_image_point(self):
        t = _monomial((1, 2, 0), (2.0, 3.0, 5.0))
        zf = zero_family(t, 0)
        mask = zf.intersection_mask(3)
        # sigma sends codomain y3 to domain x1, so anchor x1 intersects to y3
        assert mask.tolist() == [False, False, True]

    def test_anchor_by_label(self):
        t = _monomial((1, 0), (2.0, 3.0))
        zf = zero_family(t, "x2")
        assert zf.anchor == 1

    def test_rank_deficient_family_refused(self):
        ts = np.array([0.0, 0.5, 1.0])
        fam = FunctionFamily(PointSpace.grid(list(ts)),
                             np.array([np.ones(3), ts]), names=("1", "t"))
        t = OperatorModel(np.eye(2), fam, fam, basis="generator")
        with pytest.raises(ValueError, match="separates points"):
            zero_family(t, 0)


class TestRecoverPoint:
    def test_monomial_anchors(self):
        sigma = (1, 2, 0)
        t = _monomial(sigma, (2.0, 3.0, 5.0))
        # recover_point returns h(x) = sigma^{-1}(x)
        h = [recover_point(t, x) for x in range(3)]
        inv = [sigma.index(x) for x in range(3)]
        assert h == inv

    def test_exact_monomial_anchor(self):
        t = OperatorModel.weighted_permutation(
            (1, 0), np.array([Fraction(2), Fraction(3)], dtype=object))
        assert recover_point(t, 0) == 1
        assert recover_point(t, 1) == 0

    @pytest.mark.parametrize("weight", [[4.0], [Fraction(4)]], ids=["float", "exact"])
    def test_one_point_codomain(self, weight):
        # the zero family at the only anchor has no members; the only
        # codomain point is its image
        t = OperatorModel.weighted_permutation((0,), np.array(weight))
        assert zero_family(t, 0).members == ()
        assert recover_point(t, 0) == 0

    def test_ambiguous_intersection(self):
        sp_x = FunctionFamily.full(PointSpace.discrete(2, "x"))
        sp_y = FunctionFamily.full(PointSpace.discrete(2, "y"))
        t = OperatorModel(np.array([[1.0, 1.0], [1.0, -1.0]]), sp_x, sp_y)
        with pytest.raises(AmbiguousIntersectionError):
            recover_point(t, 0)

    def test_margin_rule_blocks_near_ties(self):
        sp_x = FunctionFamily.full(PointSpace.discrete(2, "x"))
        sp_y = FunctionFamily.full(PointSpace.discrete(2, "y"))
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        t = OperatorModel(m, sp_x, sp_y)
        with pytest.raises(AmbiguousIntersectionError, match="margin"):
            recover_point(t, 0)

    def test_margin_follows_the_operator_scale(self):
        # the runner-up margin 2e-12 was below the absolute 10 * tol
        t = _monomial((1, 2, 0), 1e-12 * np.array([2.0, 3.0, 5.0]))
        h = [recover_point(t, x) for x in range(3)]
        assert h == [2, 0, 1] == recover_map(t).tolist()


class TestRecoverMap:
    def test_fast_path_matches_per_anchor_loop(self):
        for rng in spawn_generators(42, 20):
            n = int(rng.integers(2, 9))
            t, _, weight = random_monomial(rng, n)
            alpha = 10.0 ** rng.uniform(-3.0, 3.0)
            # off-pattern noise the cone test accepts: below tol * max|M|, and
            # small enough that the inverse's negative entries are too
            noise = np.where(t.matrix == 0, rng.uniform(size=(n, n)), 0.0)
            noise *= 0.1 * DEFAULT_TOL * alpha * float(np.min(weight))
            for m in (t.matrix, alpha * t.matrix, alpha * t.matrix + noise):
                op = OperatorModel(m, t.domain, t.codomain)
                assert is_order_isomorphism(op).accept
                fast = recover_map(op)
                slow = np.array([recover_point(op, x) for x in range(n)])
                assert np.array_equal(fast, slow)
            exact, _, _ = random_monomial(rng, n, exact=True)
            slow = np.array([recover_point(exact, x) for x in range(n)])
            assert np.array_equal(recover_map(exact), slow)

    def test_exact_fast_path(self):
        t = OperatorModel.weighted_permutation(
            (2, 0, 1), np.array([Fraction(1, 2), Fraction(3), Fraction(7, 5)],
                                dtype=object))
        h = recover_map(t)
        assert np.array_equal(h, [1, 2, 0])

    def test_one_point_space(self):
        t = OperatorModel.weighted_permutation((0,), np.array([4.0]))
        assert np.array_equal(recover_map(t), [0])

    def test_exact_non_monomial_is_ambiguous(self):
        sp_x = FunctionFamily.full(PointSpace.discrete(2, "x"), exact=True)
        sp_y = FunctionFamily.full(PointSpace.discrete(2, "y"), exact=True)
        m = np.array([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]],
                     dtype=object)
        t = OperatorModel(m, sp_x, sp_y)
        with pytest.raises(AmbiguousIntersectionError):
            recover_map(t)


class TestDecompose:
    def test_worked_two_point_example(self):
        sp_x = FunctionFamily.full(PointSpace.discrete(2, "x"))
        sp_y = FunctionFamily.full(PointSpace.discrete(2, "y"))
        t = OperatorModel(np.array([[0.0, 2.0], [3.0, 0.0]]), sp_x, sp_y)
        d = decompose(t)
        assert d.sigma == (1, 0)
        assert np.allclose(d.weight_array(), [2.0, 3.0])
        assert d.residual == 0.0
        assert not d.exact

    def test_exact_mode(self):
        t = OperatorModel.weighted_permutation(
            (1, 2, 0), np.array([Fraction(2), Fraction(3, 7), Fraction(5)],
                                dtype=object))
        d = decompose(t)
        assert d.sigma == (1, 2, 0)
        assert d.weight == (Fraction(2), Fraction(3, 7), Fraction(5))
        assert d.residual == 0.0
        assert d.exact
        assert d.weight_array().dtype == object

    def test_rejected_operator_raises_with_certificate(self):
        sp = FunctionFamily.full(PointSpace.discrete(2))
        t = OperatorModel(np.array([[1.0, 1.0], [0.0, 1.0]]), sp, sp)
        with pytest.raises(NotOrderIsomorphismError) as exc:
            decompose(t)
        assert exc.value.certificate.accept is False
        assert exc.value.certificate.witness_values == (0.0, 1.0)

    def test_requires_constants_in_domain(self):
        # a one-generator family without constants passes the cone test
        # (scaling preserves positivity) but cannot anchor the weight
        ts = np.array([1.0, 2.0])
        fam = FunctionFamily(PointSpace.grid(list(ts)), ts[None, :], names=("t",))
        t = OperatorModel(np.eye(1), fam, fam, basis="generator")
        with pytest.raises(ValueError, match="constants"):
            decompose(t)

    def test_constants_are_judged_within_the_given_tol(self):
        # 1 is 8e-7 from the span of (1, 1, 1 + 1e-6): out of it at the default
        # tol, in it at tol = 1e-3, where the refusal is the proper family's
        fam = FunctionFamily(PointSpace.discrete(3), np.array([[1.0, 1.0, 1.0 + 1e-6]]))
        t = OperatorModel(np.eye(1), fam, fam, basis="generator")
        with pytest.raises(ValueError, match="constants"):
            decompose(t)
        with pytest.raises(ValueError, match="full-rank family"):
            decompose(t, tol=1e-3)

    def test_inverse_has_inverse_sigma(self):
        for rng in spawn_generators(5, 10):
            n = int(rng.integers(2, 12))
            t, sigma, _ = random_monomial(rng, n)
            d = decompose(t)
            d_inv = decompose(t.inverse())
            sig = np.asarray(d.sigma)
            sig_inv = np.asarray(d_inv.sigma)
            assert np.array_equal(sig[sig_inv], np.arange(n))
            assert np.array_equal(sig_inv[sig], np.arange(n))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           exponent=st.floats(-12.0, 12.0))
    def test_scaled_operator_gives_sigma_and_scaled_weight(self, n, seed, exponent):
        alpha = 10.0 ** exponent
        t, sigma, weight = random_monomial(np.random.default_rng(seed), n)
        d = decompose(OperatorModel(alpha * t.matrix, t.domain, t.codomain))
        assert d.sigma == tuple(int(s) for s in sigma)
        assert d.weight == tuple(alpha * weight)

    def test_unreadable_accepted_matrix_is_ambiguous(self):
        # accepted within tol * max|inverse| = 1000, but both entries of the
        # second row are equal, so no bijection can be read
        fam = FunctionFamily.full(PointSpace.discrete(2))
        t = OperatorModel(np.array([[1.0, 0.0], [1e-12, 1e-12]]), fam, fam)
        assert is_order_isomorphism(t).accept
        with pytest.raises(AmbiguousIntersectionError):
            decompose(t)

    def test_random_monomials_recover_exactly(self):
        for rng in spawn_generators(99, 25):
            n = int(rng.integers(2, 15))
            t, sigma, weight = random_monomial(rng, n)
            d = decompose(t)
            assert d.sigma == tuple(int(s) for s in sigma)
            assert np.allclose(d.weight_array(), weight, rtol=0, atol=0)
            assert d.residual <= 1e-12


class TestVerifyRepresentation:
    def test_zero_residual_on_true_decomposition(self):
        t = _monomial((2, 0, 1), (0.5, 4.0, 1.25))
        d = decompose(t)
        assert verify_representation(t, d) <= 1e-12

    def test_detects_wrong_weight(self):
        t = _monomial((1, 0), (2.0, 3.0))
        d = decompose(t)
        wrong = Decomposition(sigma=d.sigma, weight=(2.5, 3.0),
                              residual=d.residual, exact=False)
        assert verify_representation(t, wrong) > 0.1

    def test_detects_wrong_sigma(self):
        t = _monomial((1, 0), (2.0, 3.0))
        d = decompose(t)
        wrong = Decomposition(sigma=(0, 1), weight=d.weight,
                              residual=d.residual, exact=False)
        assert verify_representation(t, wrong) > 0.1

    def test_exact_mode(self):
        t = OperatorModel.weighted_permutation(
            (1, 0), np.array([Fraction(2), Fraction(3)], dtype=object))
        assert verify_representation(t, decompose(t)) == 0.0

    def test_equals_the_decomposition_residual(self):
        # accepted near-monomial operators: alpha-scaled, with off-pattern
        # noise below the cutoff, and exact ones
        for rng in spawn_generators(7, 20):
            n = int(rng.integers(2, 9))
            t, _, weight = random_monomial(rng, n)
            alpha = 10.0 ** rng.uniform(-3.0, 3.0)
            noise = np.where(t.matrix == 0, rng.uniform(size=(n, n)), 0.0)
            noise *= 0.1 * DEFAULT_TOL * alpha * float(np.min(weight))
            ops = [OperatorModel(m, t.domain, t.codomain)
                   for m in (t.matrix, alpha * t.matrix, alpha * t.matrix + noise)]
            ops.append(random_monomial(rng, n, exact=True)[0])
            for op in ops:
                assert is_order_isomorphism(op).accept
                d = decompose(op)
                assert verify_representation(op, d) == d.residual
            assert decompose(ops[2]).residual > 0.0


class TestNormalize:
    def test_scaled_permutation_becomes_permutation(self):
        t = _monomial((1, 0), (5.0, 5.0))
        norm = normalize(t)
        s = norm.operator
        assert np.allclose(s.matrix, [[0.0, 1.0], [1.0, 0.0]])
        assert norm.sigma == (1, 0)
        # unital exactly: S 1 = 1 with no rounding
        ones_img = np.asarray(s.apply_values(np.ones(2)), dtype=float)
        assert ones_img.tolist() == [1.0, 1.0]
        assert norm.weight_agreement <= 1e-12

    def test_random_monomials_unital_and_sigma_preserved(self):
        for rng in spawn_generators(17, 15):
            n = int(rng.integers(2, 10))
            t, sigma, _ = random_monomial(rng, n)
            norm = normalize(t)
            d = decompose(t)
            assert norm.sigma == d.sigma
            ones_img = np.asarray(norm.operator.apply_values(np.ones(n)), dtype=float)
            assert np.max(np.abs(ones_img - 1.0)) == 0.0
            assert norm.weight_agreement <= 1e-9

    def test_exact_mode_unital(self):
        t = OperatorModel.weighted_permutation(
            (1, 0), np.array([Fraction(5), Fraction(2, 3)], dtype=object))
        norm = normalize(t)
        ones = norm.operator.domain.ones()
        img = norm.operator.apply_values(ones)
        assert all(v == Fraction(1) for v in img)
        assert norm.weight_agreement == 0.0

    def test_rejected_operator_raises(self):
        sp = FunctionFamily.full(PointSpace.discrete(2))
        t = OperatorModel(np.array([[1.0, 1.0], [0.0, 1.0]]), sp, sp)
        with pytest.raises(NotOrderIsomorphismError):
            normalize(t)

    def test_accepted_float_matrix_that_is_not_monomial_is_rescaled_whole(self):
        # 1e-12 lies within the cutoff, so T is accepted but not read as a
        # weighted permutation: u = 1 + T^-1 1 and S[y, x] = T[y, x] u[x] / (T u)[y]
        fam = FunctionFamily.full(PointSpace.discrete(2))
        m = np.array([[2.0, 1e-12], [0.0, 4.0]])
        t = OperatorModel(m, fam, fam)
        assert t.monomial is None and is_order_isomorphism(t).accept
        norm = normalize(t)
        u = 1.0 + np.linalg.inv(m) @ np.ones(2)
        tu = m @ u
        assert norm.u == tuple(u) and norm.sigma == (0, 1)
        assert norm.operator.matrix.tobytes() == (m * u[None, :] / tu[:, None]).tobytes()


class TestFipCheck:
    def test_monomial_passes(self):
        t = _monomial((1, 2, 0), (2.0, 3.0, 5.0))
        assert fip_check(t, 0)
        assert fip_check(t, 1)

    def test_dense_positive_matrix_fails(self):
        # every image is strictly positive everywhere: zero sets are empty
        sp_x = FunctionFamily.full(PointSpace.discrete(2, "x"))
        sp_y = FunctionFamily.full(PointSpace.discrete(2, "y"))
        t = OperatorModel(np.array([[1.0, 1.0], [1.0, 2.0]]), sp_x, sp_y)
        assert not fip_check(t, 0)

    @pytest.mark.parametrize("alpha", [1.0, 1e-12])
    def test_dense_matrix_fails_at_every_scale(self, alpha):
        # alpha * (J + I) is no order isomorphism; at 1e-12 every image value
        # was below the absolute tol, so every zero set was the whole space
        sp = FunctionFamily.full(PointSpace.discrete(3))
        t = OperatorModel(alpha * (np.ones((3, 3)) + np.eye(3)), sp, sp)
        assert not fip_check(t, 0)
        assert not zero_family(t, 0).intersection_mask(3).any()

    def test_single_point_trivially_true(self):
        t = OperatorModel.weighted_permutation((0,), np.array([2.0]))
        assert fip_check(t, 0)

    def test_closed_form_on_exact_point_matrices(self):
        # the zero family at x holds a common zero exactly when some row of M
        # is supported on column x alone, so at every anchor exactly when M
        # is monomial
        for i, rng in enumerate(spawn_generators(11, 40)):
            n = int(rng.integers(5, 11))
            t = (random_monomial(rng, n, exact=True)[0] if i % 2
                 else random_nonneg_nonmonomial(rng, n))
            m = t.matrix
            held = [fip_check(t, x) for x in range(n)]
            for x in range(n):
                assert held[x] == any(all(m[y, j] == 0 for j in range(n) if j != x)
                                      for y in range(n))
            assert all(held) == (linalg.monomial(m) is not None)
