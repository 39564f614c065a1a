"""Tests for positivity cones and the order-isomorphism certificate."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import hstack, identity, kron

from oiso import cones, linalg, serialize
from oiso.cones import Certificate, OperatorModel, cone_rep, is_order_isomorphism
from oiso.fuzz import random_metric_space
from oiso.linalg import SingularMatrixError, as_float, exact_solve_unique
from oiso.recovery import decompose
from oiso.spaces import DEFAULT_TOL, FunctionFamily, PointSpace, build_lipschitz_family, \
    cone_membership


def _one_t_family(ts, exact=False):
    """The family {1, t} sampled on a grid."""
    if exact:
        gen = np.array(
            [[Fraction(1)] * len(ts), [Fraction(t) for t in ts]], dtype=object
        )
    else:
        gen = np.array([np.ones(len(ts)), np.asarray(ts, dtype=float)])
    return FunctionFamily(PointSpace.grid([float(t) for t in ts]), gen, names=("1", "t"))


class TestConeRep:
    def test_affine_family_rays(self):
        # {a + b t >= 0 on {0, 1/2, 1}} has extreme rays t and 1 - t: both lie
        # in the cone, and each is zero at one point evaluation
        fam = _one_t_family([0.0, 0.5, 1.0])
        rep = cone_rep(fam)
        assert rep.facet_normals.shape == (3, 2)
        assert rep.extreme_rays is None
        assert np.array_equal(rep.facet_normals, [[1.0, 0.0], [1.0, 0.5], [1.0, 1.0]])
        for ray in ((0.0, 1.0), (1.0, -1.0)):
            assert cone_membership(fam, ray)
            assert np.min(rep.facet_normals @ np.asarray(ray)) == 0.0
        assert not cone_membership(fam, (-1.0, 1.0))

    def test_affine_family_rays_exact(self):
        fam = _one_t_family([Fraction(0), Fraction(1, 2), Fraction(1)], exact=True)
        rep = cone_rep(fam)
        assert rep.facet_normals.dtype == object
        assert cone_membership(fam, np.array([Fraction(0), Fraction(1)], dtype=object))
        assert cone_membership(fam, np.array([Fraction(1), Fraction(-1)], dtype=object))
        below = Fraction(-1, 1) - Fraction(1, 10**9)
        assert not cone_membership(fam, np.array([Fraction(1), below], dtype=object))

    def test_full_family_shortcut_is_orthant_image(self):
        # the cone of a full family is the image of the positive orthant, and
        # a generator-basis operator between full families is certified
        # through its point matrix
        fam = _one_t_family([0.0, 1.0])  # rank 2 on 2 points -> full
        assert fam.is_full
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.uniform(-1, 1, size=2)
            c = np.linalg.solve(fam.generators.T, v)
            assert cone_membership(fam, c) == bool(np.all(v >= 0))
        t = OperatorModel(np.eye(2), fam, fam, basis="generator")
        assert np.allclose(t.as_point().matrix, np.eye(2))
        assert t.as_point() is t.as_point()

    def test_full_indicator_family_rays_are_indicators(self):
        fam = FunctionFamily.full(PointSpace.discrete(3), exact=True)
        rep = cone_rep(fam)
        assert np.array_equal(rep.facet_normals, fam.generators)
        for j in range(3):
            e = np.array([Fraction(int(i == j)) for i in range(3)], dtype=object)
            assert cone_membership(fam, e)
            assert not cone_membership(fam, -e)

    def test_contains_matches_pointwise_nonnegativity(self):
        fam = _one_t_family([0.0, 0.25, 0.5, 0.75, 1.0])
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = rng.uniform(-2, 2, size=2)
            direct = bool(np.all(fam.values(c) >= -1e-9))
            assert cone_membership(fam, c) == direct

    def test_conic_hull_of_rays_equals_cone(self):
        # 2-d cross-check: c is in the cone iff it is a nonnegative
        # combination of the two extreme rays t and 1 - t
        fam = _one_t_family([0.0, 0.5, 1.0])
        rays = np.array([[0.0, 1.0], [1.0, -1.0]])
        rng = np.random.default_rng(11)
        for _ in range(200):
            c = rng.uniform(-2, 2, size=2)
            ab = np.linalg.solve(rays.T, c)
            hull = bool(np.all(ab >= -1e-9))
            assert cone_membership(fam, c) == hull

    def test_deterministic(self):
        fam = _one_t_family([0.0, 0.3, 0.7, 1.0])
        assert np.array_equal(cone_rep(fam).facet_normals, cone_rep(fam).facet_normals)
        t = OperatorModel(np.array([[1.0, 0.5], [0.0, 1.0]]), fam, fam, basis="generator")
        assert is_order_isomorphism(t) == is_order_isomorphism(t)


class TestOperatorModel:
    def test_weighted_permutation_matrix(self):
        t = OperatorModel.weighted_permutation((1, 0), np.array([2.0, 3.0]))
        assert np.allclose(t.matrix, [[0.0, 2.0], [3.0, 0.0]])
        assert t.domain.space.labels == ("x1", "x2")
        assert t.codomain.space.labels == ("y1", "y2")

    def test_apply_values_is_matrix_action(self):
        t = OperatorModel.weighted_permutation((1, 0), np.array([2.0, 3.0]))
        out = t.apply_values(np.array([1.0, 0.0]))
        assert np.allclose(out, [0.0, 3.0])

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(1, 2, size=(4, 4)) + 4 * np.eye(4)
        sp = FunctionFamily.full(PointSpace.discrete(4))
        t = OperatorModel(m, sp, sp)
        v = rng.uniform(-1, 1, size=4)
        back = t.inverse().apply_values(t.apply_values(v))
        assert np.allclose(back, v)

    def test_non_square_rejected(self):
        sp = FunctionFamily.full(PointSpace.discrete(2))
        with pytest.raises(ValueError):
            OperatorModel(np.ones((2, 3)), sp, sp)

    def test_singular_rejected(self):
        sp = FunctionFamily.full(PointSpace.discrete(2))
        with pytest.raises(SingularMatrixError):
            OperatorModel(np.ones((2, 2)), sp, sp)

    def test_mixed_arithmetic_rejected(self):
        sp = FunctionFamily.full(PointSpace.discrete(2), exact=True)
        with pytest.raises(ValueError):
            OperatorModel(np.eye(2), sp, sp)

    def test_point_basis_requires_full_families(self):
        fam = _one_t_family([0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            OperatorModel(np.eye(2), fam, fam, basis="point")

    def test_point_matrix_from_generator_basis(self):
        fam = _one_t_family([0.0, 1.0])  # full
        t = OperatorModel(np.eye(2), fam, fam, basis="generator")
        assert np.allclose(t.point_matrix(), np.eye(2))

    @pytest.mark.parametrize("exact", [False, True])
    def test_generator_basis_apply_values_maps_coefficients(self, exact):
        # span{1, t} on t = 0, 1, 2 and M = [[1, 2], [0, 1]]: f = 1 + t has
        # coefficients (1, 1), so T f has M (1, 1) = (3, 1), the values 3 + t
        fam = _one_t_family([0, 1, 2], exact=exact)
        t = OperatorModel(_as_mode([[1, 2], [0, 1]], exact), fam, fam, basis="generator")
        out = t.apply_values(_as_mode([[1, 2, 3]], exact)[0])
        if exact:
            assert out.tolist() == [Fraction(3), Fraction(4), Fraction(5)]
            assert all(type(v) is Fraction for v in out)
        else:
            assert np.allclose(out, [3.0, 4.0, 5.0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("exact", [False, True])
    def test_point_basis_image_values_and_point_matrix_are_the_matrix(self, exact):
        # in the point basis coefficients are values: T c = M c = (1*5 + 2*7, 3*7)
        m = _as_mode([[1, 2], [0, 3]], exact)
        sp = FunctionFamily.full(PointSpace.discrete(2), exact=exact)
        t = OperatorModel(m, sp, sp)
        assert t.image_values(_as_mode([[5, 7]], exact)[0]).tolist() == [19, 21]
        assert t.point_matrix() is t.matrix
        assert t.point_matrix().tolist() == m.tolist()

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("matrix", [[[0, 2, 0], [0, 0, 5], [3, 0, 0]],
                                        [[1, 2, 0], [0, 1, 0], [0, 0, 4]]],
                             ids=["monomial", "dense"])
    def test_rescaled_is_the_diagonal_product(self, exact, matrix):
        # diag(1/row) T diag(col): a weighted permutation along its read, so
        # the result keeps one; any other matrix whole
        sp = FunctionFamily.full(PointSpace.discrete(3), exact=exact)
        t = OperatorModel(_as_mode(matrix, exact), sp, sp)
        row, col = _as_mode([[2, -1, 4], [3, 5, -7]], exact)
        m = t.matrix
        for s, expected in ((t.rescaled(row), m / row[:, None]),
                            (t.rescaled(row, col), m * col[None, :] / row[:, None])):
            assert s.matrix.tolist() == expected.tolist()
            assert (s.monomial is None) == (t.monomial is None) == (matrix[0][0] == 1)
            assert (s.domain, s.codomain, s.exact) == (t.domain, t.codomain, exact)

    def test_weighted_permutation_runs_no_factorization(self, monkeypatch):
        # a monomial's rank and inverse are read from its pattern
        def refuse(*args, **kwargs):
            raise AssertionError("dense factorization on a monomial")

        for name in ("svd", "matrix_rank", "cond", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        rng = np.random.default_rng(4)
        sigma = rng.permutation(50)
        t = OperatorModel.weighted_permutation(sigma, rng.uniform(1, 2, 50))
        assert is_order_isomorphism(t).accept
        assert decompose(t).sigma == tuple(int(s) for s in sigma)


class TestMatrixOwnership:
    """The model freezes an array of its own, never the caller's."""

    @pytest.mark.parametrize("exact", [False, True])
    def test_caller_may_write_its_array_afterwards(self, exact):
        fam = FunctionFamily.full(PointSpace.discrete(2), exact=exact)
        m = _as_mode(np.array([[0, 2], [3, 0]]), exact)
        t = OperatorModel(m, fam, fam)
        m[0, 0] = m[0, 1] = m[1, 0] = 1  # no longer monomial, and no longer frozen
        assert [[float(v) for v in row] for row in t.matrix] == [[0.0, 2.0], [3.0, 0.0]]
        assert list(t.monomial[0]) == [1, 0] and [float(v) for v in t.monomial[1]] == [2.0, 3.0]
        assert not t.matrix.flags.writeable
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 1

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_parsed_matrix_is_adopted_without_a_copy(self, monkeypatch, mode):
        built = []

        def spy(*args):
            built.append(read(*args))
            return built[-1]

        read = serialize._read_matrix
        monkeypatch.setattr(serialize, "_read_matrix", spy)
        t = serialize.parse_operator({"matrix": [[0, 2], [3, 0]]}, mode)
        # an exact matrix is the parsed ExactMatrix, whose array it builds once
        assert t.matrix is linalg.dense(built[0])
        assert not t.matrix.flags.writeable

    def test_read_only_array_is_kept_as_given(self):
        fam = FunctionFamily.full(PointSpace.discrete(2))
        m = np.array([[0.0, 2.0], [3.0, 0.0]])
        m.setflags(write=False)
        t = OperatorModel(m, fam, fam)
        assert t.matrix is m
        assert t.inverse().inverse_matrix is m


class TestIntObjectInput:
    """Exact models built from object arrays of Python ints decide exactly as
    the same models built from Fractions."""

    @staticmethod
    def _pair(m, gen=None):
        out = []
        for conv in (int, Fraction):
            mm = np.array([[conv(v) for v in row] for row in m], dtype=object)
            if gen is None:
                n = len(m)
                fams = [FunctionFamily.full(PointSpace.discrete(n, p), exact=True) for p in "xy"]
                out.append(OperatorModel(mm, *fams))
            else:
                g = np.array([[conv(v) for v in row] for row in gen], dtype=object)
                fam = FunctionFamily(PointSpace.discrete(len(gen[0])), g)
                out.append(OperatorModel(mm, fam, fam, basis="generator"))
        return out

    def test_certificates_equal(self):
        cases = [([[2, 1], [1, 1]], None), ([[0, 2], [3, 0]], None),
                 ([[1, 0], [0, -1]], None),
                 ([[1, 0], [0, 1]], [[1, 1, 1], [0, 1, 2]]),
                 ([[1, 1], [0, 1]], [[1, 1, 1], [0, 1, 2]]),
                 ([[2, 1], [1, 1]], [[1, 1, 1], [0, 1, 2]])]
        for m, gen in cases:
            t_int, t_frac = self._pair(m, gen)
            cert = is_order_isomorphism(t_int)
            assert cert == is_order_isomorphism(t_frac), (m, gen)
            for v in (cert.witness_coeffs or ()) + (cert.witness_values or ()):
                assert type(v) is Fraction, (m, gen)
            assert all(type(v) is Fraction for v in t_int.inverse_matrix.ravel())


class TestCertificatePointBasis:
    def test_weighted_permutation_accepted(self):
        t = OperatorModel.weighted_permutation((1, 0), np.array([2.0, 3.0]))
        cert = is_order_isomorphism(t)
        assert cert.accept
        assert cert.mode == "exact"
        assert cert.arithmetic == "float"

    def test_exact_weighted_permutation_accepted(self):
        t = OperatorModel.weighted_permutation(
            (2, 0, 1), np.array([Fraction(1, 2), Fraction(3), Fraction(5)], dtype=object)
        )
        cert = is_order_isomorphism(t)
        assert cert.accept
        assert cert.arithmetic == "rational"

    def test_unit_upper_triangular_rejected_via_inverse(self):
        # T = [[1,1],[0,1]] is entrywise nonnegative but its inverse sends
        # the second indicator to (-1, 1): the image leaves the cone
        sp_x = FunctionFamily.full(PointSpace.discrete(2, "x"))
        sp_y = FunctionFamily.full(PointSpace.discrete(2, "y"))
        t = OperatorModel(np.array([[1.0, 1.0], [0.0, 1.0]]), sp_x, sp_y)
        cert = is_order_isomorphism(t)
        assert not cert.accept
        assert cert.side == "codomain"
        assert cert.point == 0
        assert cert.witness_values == (0.0, 1.0)
        inv_img = t.inverse_matrix @ np.asarray(cert.witness_values)
        assert inv_img[cert.point] < 0

    def test_negative_entry_rejected_on_domain_side(self):
        sp_x = FunctionFamily.full(PointSpace.discrete(2, "x"))
        sp_y = FunctionFamily.full(PointSpace.discrete(2, "y"))
        t = OperatorModel(np.array([[-1.0, 0.0], [0.0, 1.0]]), sp_x, sp_y)
        cert = is_order_isomorphism(t)
        assert not cert.accept
        assert cert.side == "domain"
        img = t.matrix @ np.asarray(cert.witness_values)
        assert img[cert.point] < 0

    def test_rejection_report_fields(self):
        sp = FunctionFamily.full(PointSpace.discrete(2))
        t = OperatorModel(np.array([[1.0, 1.0], [0.0, 1.0]]), sp, sp)
        doc = is_order_isomorphism(t).to_json_dict()
        assert doc["accept"] is False
        assert doc["witness_side"] == "codomain"
        assert doc["witness"] == [0.0, 1.0]
        assert "negative" in doc["detail"]

    def test_acceptance_report_fields(self):
        t = OperatorModel.weighted_permutation((0, 1), np.array([1.0, 2.0]))
        doc = is_order_isomorphism(t).to_json_dict()
        assert doc == {"schema": "oiso/1", "accept": True, "mode": "exact"}


class TestScaleRelativeTolerance:
    @pytest.mark.parametrize("alpha", [1.0, 1000.0])
    def test_small_negative_entry_rejected_at_every_scale(self, alpha):
        # -1e-10 is below -tol * max|M| = -1e-12 at alpha = 1; a tolerance
        # clamped to max(1, max|M|) used to accept it there and reject 1000x
        sp = FunctionFamily.full(PointSpace.discrete(2))
        t = OperatorModel(alpha * np.array([[1e-3, -1e-10], [0.0, 1e-3]]), sp, sp)
        cert = is_order_isomorphism(t)
        assert not cert.accept
        assert (cert.side, cert.point) == ("domain", 0)

    @pytest.mark.parametrize("alpha", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_generator_basis_verdicts_follow_the_operator_scale(self, alpha):
        fam = _one_t_family([0.0, 0.5, 1.0])
        shear = OperatorModel(alpha * np.array([[1.0, 1e-6], [0.0, 1.0]]), fam, fam,
                              basis="generator")
        cert = is_order_isomorphism(shear)
        assert (cert.accept, cert.side, cert.point) == (False, "domain", 2)
        scaling = OperatorModel(alpha * np.eye(2), fam, fam, basis="generator")
        assert is_order_isomorphism(scaling).accept

    @pytest.mark.parametrize("first, second", [(-0.49999999999999856, -0.50000000000000155),
                                               (-0.50000000000000044, -0.50000000000000011)])
    @pytest.mark.parametrize("alpha", [1e-12, 1.0, 1e12])
    def test_entries_tied_within_the_cutoff_go_in_row_order(self, first, second, alpha):
        # two float inverses of one exact matrix whose entries at (0, 2) and
        # (1, 3) are both -1/2: the first in row-major order is reported, as
        # in exact mode, whichever rounding made the more negative
        m = np.eye(4)
        m[0, 2], m[1, 3] = first, second
        assert cones._nonneg_violation(alpha * m, 1e-9) == (0, 2)
        m[1, 3] = -0.5 - 1e-6  # beyond the cutoff, the minimum wins
        assert cones._nonneg_violation(alpha * m, 1e-9) == (1, 3)


class TestCertificateGeneratorBasis:
    def test_identity_on_affine_family_accepted(self):
        fam = _one_t_family([0.0, 0.5, 1.0])
        t = OperatorModel(np.eye(2), fam, fam, basis="generator")
        cert = is_order_isomorphism(t)
        assert cert.accept
        assert cert.mode == "exact"

    def test_shear_rejected_with_cone_leaving_ray(self):
        # (a, b) -> (a + b/2, b) sends the ray 1 - t to 3/2 - t... no:
        # coefficients (1,-1) map to (1/2,-1), i.e. 1/2 - t, negative at t=1
        fam = _one_t_family([0.0, 0.5, 1.0])
        t = OperatorModel(np.array([[1.0, 0.5], [0.0, 1.0]]), fam, fam,
                          basis="generator")
        cert = is_order_isomorphism(t)
        assert not cert.accept
        # the witness is a nonnegative function whose image dips negative
        assert np.all(np.asarray(cert.witness_values) >= -1e-9)
        img = t.image_values(np.asarray(cert.witness_coeffs))
        assert float(np.min(np.asarray(img, dtype=float))) < 0

    def test_scaling_accepted(self):
        # (a, b) -> (2a, 2b) preserves nonnegativity both ways
        fam = _one_t_family([0.0, 0.5, 1.0])
        t = OperatorModel(2.0 * np.eye(2), fam, fam, basis="generator")
        assert is_order_isomorphism(t).accept


class TestCap:
    def test_certificate_is_frozen(self):
        cert = Certificate(accept=True, mode="exact", arithmetic="float")
        with pytest.raises(AttributeError):
            cert.accept = False


# ----------------------------------------------------------------------------
# Farkas certificate on generator bases, checked against numpy / Fraction
# arithmetic written here rather than against oiso's cone code.

def _as_mode(m, exact):
    if exact:
        return np.array([[Fraction(x.item() if isinstance(x, np.generic) else x) for x in row]
                         for row in np.asarray(m)], dtype=object)
    return np.asarray(m, dtype=float)


def _assert_witness(cert, g_dom, g_cod, m, m_inv, exact):
    """The witness lies in the source cone and its image under T (side
    "domain") or T^-1 (side "codomain") is negative at `point`."""
    src, dst, op = ((g_dom, g_cod, m) if cert.side == "domain" else (g_cod, g_dom, m_inv))
    c = list(cert.witness_coeffs)
    k, n_src = len(src), len(src[0])
    values = [sum(c[i] * src[i][x] for i in range(k)) for x in range(n_src)]
    image_coeffs = [sum(op[i][j] * c[j] for j in range(k)) for i in range(k)]
    image = [sum(image_coeffs[i] * dst[i][y] for i in range(k)) for y in range(len(dst[0]))]
    if exact:
        assert all(isinstance(v, Fraction) for v in cert.witness_values)
        assert list(cert.witness_values) == values
        assert min(values) >= 0 and any(values)
        assert image[cert.point] < 0
    else:
        scale = max(1.0, max(abs(float(v)) for v in values))
        assert np.allclose(cert.witness_values, values, atol=1e-12)
        assert min(values) >= -1e-9 * scale and max(values) > 0
        assert image[cert.point] < -1e-9


def _grid_identity(ts, exact):
    fam = _one_t_family([Fraction(t) for t in ts] if exact else ts, exact=exact)
    return OperatorModel(_as_mode(np.eye(2, dtype=int), exact), fam, fam, basis="generator")


class TestFarkasGeneratorBasis:
    @pytest.mark.parametrize("exact", [False, True])
    def test_identity_on_span_1_t_over_1_2_accepted(self, exact):
        # full family whose extreme ray t - 1 has a negative first
        # coefficient: normalizing rays like lines turns it into 1 - t
        t = _grid_identity([1, 2], exact)
        assert t.domain.is_full
        cert = is_order_isomorphism(t)
        assert cert.accept
        assert cert.arithmetic == ("rational" if exact else "float")
        d = decompose(t)
        assert d.sigma == (0, 1)
        assert [float(w) for w in d.weight] == [1.0, 1.0]

    @pytest.mark.parametrize("exact", [False, True])
    def test_identity_on_span_1_t_over_1_2_3_accepted(self, exact):
        t = _grid_identity([1, 2, 3], exact)
        assert not t.domain.is_full
        cert = is_order_isomorphism(t)
        assert cert.accept
        assert cert.mode == "exact"
        assert cert.arithmetic == ("rational" if exact else "float")

    @pytest.mark.parametrize("exact", [False, True])
    def test_shear_rejected_on_same_inputs(self, exact):
        # the inputs of the former LP-fallback tests: identity accepted,
        # shear (a, b) -> (a + b/2, b) rejected with a checked witness
        fam = _one_t_family([Fraction(0), Fraction(1, 2), Fraction(1)] if exact
                            else [0.0, 0.5, 1.0], exact=exact)
        eye = _as_mode([[1, 0], [0, 1]], exact)
        assert is_order_isomorphism(OperatorModel(eye, fam, fam, basis="generator")).accept
        shear = _as_mode([[1, Fraction(1, 2)], [0, 1]], exact)
        t = OperatorModel(shear, fam, fam, basis="generator")
        cert = is_order_isomorphism(t)
        assert not cert.accept
        assert cert.mode == "exact"
        _assert_witness(cert, fam.generators, fam.generators, shear, t.inverse_matrix, exact)


    @pytest.mark.parametrize("tol", [1e-9, 0.5])
    def test_exact_decision_sees_1e_12_and_reads_no_tol(self, tol):
        # each case sits inside HiGHS's feasibility tolerances; the rational
        # decision is made all the same, and `tol` does not change it
        fam = _one_t_family([Fraction(0), Fraction(1, 2), Fraction(1)], exact=True)
        eps = Fraction(1, 10**12)
        cases = (([[1, eps], [0, 1]], "domain"),  # 1 - t maps to -eps at t = 1
                 ([[1, 0], [0, 1 - eps]], "codomain"),  # the inverse stretches t
                 ([[eps, 0], [0, eps]], None))  # accepted with multipliers eps
        for rows, side in cases:
            m = _as_mode(rows, True)
            t = OperatorModel(m, fam, fam, basis="generator")
            cert = is_order_isomorphism(t, tol=tol)
            assert cert.arithmetic == "rational"
            assert cert.accept is (side is None)
            if side is not None:
                assert cert.side == side
                _assert_witness(cert, fam.generators, fam.generators, m, t.inverse_matrix, True)

    @pytest.mark.parametrize("rows, accept", [
        ([[1, 1], [0, 1]], False),  # the shear: 2 - t maps to 1 - t, negative at t = 2
        ([[1, 2], [0, -1]], True),  # the reflection t -> 2 - t
    ], ids=["shear", "reflection"])
    def test_exact_certificate_reads_any_scale(self, rows, accept):
        # exact entries past the double range on either side: the float
        # copies the fits and the LP read are taken at the matrices' own
        # binary scale, so s*T gets T's certificate with no float overflow
        # or underflow
        space = PointSpace.discrete(3, "x")
        fam = FunctionFamily(space, linalg.as_exact([[1, 1, 1], [0, 1, 2]]))
        certs = [is_order_isomorphism(OperatorModel(linalg.as_exact(rows) * s, fam, fam,
                                                    basis="generator")).to_json_dict()
                 for s in (Fraction(1), Fraction(10 ** 400), Fraction(1, 10 ** 400))]
        assert certs[0]["accept"] is accept
        assert certs[1] == certs[0] == certs[2]
        if not accept:
            assert (certs[0]["witness"], certs[0]["witness_side"], certs[0]["witness_point"]) \
                == (["2", "1", "0"], "domain", 2)

    @staticmethod
    def _shear_pair():
        # span{1, t} on t = 0, 1, 2, 3: the identity, and the shear
        # (a, b) -> (a + 2b, b), whose image of 3 - t is negative at t = 2
        # and, most negative, at t = 3
        fam = _one_t_family([Fraction(t) for t in range(4)], exact=True)
        return fam, [_as_mode(rows, True) for rows in ([[1, 0], [0, 1]], [[1, 2], [0, 1]])]

    def test_exact_verdicts_survive_a_failed_lp(self, monkeypatch):
        fam, (eye, shear) = self._shear_pair()
        models = [OperatorModel(m, fam, fam, basis="generator") for m in (eye, shear)]
        before = [is_order_isomorphism(t) for t in models]
        monkeypatch.setattr(linalg, "block_lp", lambda *args, **kwargs: (None, "Solve error"))
        after = [is_order_isomorphism(t) for t in models]
        assert before[0].accept and after[0].accept
        # the LP's order puts t = 3 first; without it, rows go in index order
        assert (before[1].side, before[1].point) == ("domain", 3)
        assert (after[1].side, after[1].point) == ("domain", 2)
        for cert in before[1:] + after[1:]:
            assert cert.arithmetic == "rational"
            _assert_witness(cert, fam.generators, fam.generators, shear,
                            models[1].inverse_matrix, True)
        # float mode has no rational fallback; the shear, which the NNLS fits
        # do not settle, reaches the failed LP
        float_fam = _one_t_family([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(RuntimeError, match="LP solver failed: HiGHS reported Solve error"):
            is_order_isomorphism(OperatorModel(np.array([[1.0, 2.0], [0.0, 1.0]]), float_fam,
                                               float_fam, basis="generator"))

    @pytest.mark.parametrize("exact", [False, True])
    def test_a_failed_fit_leaves_the_side_to_the_lp(self, monkeypatch, exact):
        # an NNLS fit that raises (as on reaching its iteration limit)
        # settles nothing, and each side is decided by its LP as before
        fam = _one_t_family([Fraction(t) for t in range(4)] if exact else [0.0, 1.0, 2.0, 3.0],
                            exact=exact)
        models = [OperatorModel(_as_mode(rows, exact), fam, fam, basis="generator")
                  for rows in ([[1, 0], [0, 1]], [[1, 2], [0, 1]])]
        before = [is_order_isomorphism(t) for t in models]
        solves = []

        def no_fit(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(linalg, "nnls", no_fit)
        real = linalg.block_lp
        monkeypatch.setattr(linalg, "block_lp",
                            lambda *args, **kwargs: solves.append(1) or real(*args, **kwargs))
        assert [is_order_isomorphism(t) for t in models] == before
        assert before[0].accept and not before[1].accept
        assert len(solves) == 3  # both sides of the identity, one of the shear

    def test_rational_test_runs_only_on_failing_rows(self, monkeypatch):
        calls = []
        farkas = linalg.farkas

        def counted(a, b_y):
            calls.append(b_y)
            return farkas(a, b_y)

        monkeypatch.setattr(linalg, "farkas", counted)
        fam, (eye, shear) = self._shear_pair()
        # the reflection f(t) -> f(1 - t) of span{1, t, t^2} on a symmetric grid
        ts = [Fraction(j, 8) for j in range(9)]
        quad = FunctionFamily(PointSpace.grid([float(t) for t in ts]),
                              np.array([[t ** p for t in ts] for p in range(3)], dtype=object))
        reflection = _as_mode([[1, 1, 1], [0, -1, -2], [0, 0, 1]], True)
        for m, f in ((eye, fam), (reflection, quad)):
            assert is_order_isomorphism(OperatorModel(m, f, f, basis="generator")).accept
        assert calls == []
        cert = is_order_isomorphism(OperatorModel(shear, fam, fam, basis="generator"))
        assert not cert.accept and cert.point == 3
        assert len(calls) == 1


def _unimodular(rng, k):
    while True:
        lower = np.tril(rng.integers(-1, 2, size=(k, k)) * (rng.random((k, k)) < 0.3), -1)
        upper = np.triu(rng.integers(-1, 2, size=(k, k)) * (rng.random((k, k)) < 0.3), 1)
        b = (lower + np.eye(k, dtype=np.int64)) @ (upper + np.eye(k, dtype=np.int64))
        if np.linalg.cond(b) <= 1e3:
            return b, np.rint(np.linalg.inv(b)).astype(np.int64)


def _int_generators(rng, k, m):
    while True:
        g = np.vstack([np.ones((1, m), dtype=np.int64), rng.integers(-3, 4, size=(k - 1, m))])
        if np.linalg.matrix_rank(g) == k:
            return g


def _generators(rng, kind, k, m):
    if kind == "lipschitz":
        fam = build_lipschitz_family(random_metric_space(rng, max_points=m, min_points=m))
        return fam.generators
    return _int_generators(rng, k, m)


# (family, rank, points): full integer and Lipschitz families, and proper
# subfamilies of rank 3-5 and 13
CONSTRUCTIONS = [("int", 3, 3), ("int", 5, 5), ("lipschitz", 4, 4), ("lipschitz", 6, 6),
                 ("int", 3, 7), ("int", 4, 9), ("int", 5, 8), ("int", 13, 16)]


def _float_operator(construction, seed, variant):
    """A float generator-basis construction: (G_X, G_Y, B^-1) with codomain
    generators B G_X Lambda^T, so the matrix B^-T gives G_Y^T M = Lambda G_X^T,
    Lambda a positive weighted permutation, with one weight negated, or plus
    a nonnegative mixing."""
    kind, k, m = construction
    rng = np.random.default_rng(seed)
    g = np.asarray(_generators(rng, kind, k, m), dtype=float)
    b, b_inv = _unimodular(rng, k)
    w = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=m))
    lam = np.zeros((m, m))
    lam[np.arange(m), rng.permutation(m)] = w
    if variant == "negative weight":
        lam[int(rng.integers(m))] *= -1.0
    elif variant == "mixed":
        # each row's mixing stays below half its weight, so Lambda is invertible
        lam += w[:, None] * rng.uniform(0.0, 0.5 / m, size=(m, m)) * (rng.random((m, m)) < 0.3)
    return g, b @ g @ lam.T, b_inv


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("kind,k,m", CONSTRUCTIONS)
def test_weighted_composition_construction(kind, k, m, exact):
    """Codomain generators B (g o sigma) diag(w) with B unimodular and matrix
    B^-T give T f = w (f o sigma): accepted for w > 0, with sigma and w
    recovered on full families, and rejected when one weight is negative."""
    rng = np.random.default_rng(1000 * k + m + (7 if exact else 0))
    g = _as_mode(_generators(rng, kind, k, m), exact)
    b, b_inv = _unimodular(rng, k)
    sigma = rng.permutation(m)
    if exact:
        weight = [Fraction(int(v)) for v in rng.integers(1, 6, size=m)]
    else:
        weight = [float(v) for v in np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=m))]
    for y0 in (None, int(rng.integers(m))):
        w = list(weight)
        if y0 is not None:
            w[y0] = -w[y0]
        h = np.array([[g[i, sigma[y]] * w[y] for y in range(m)] for i in range(k)],
                     dtype=object if exact else float)
        g_cod = _as_mode(b, exact) @ h
        matrix = _as_mode(b_inv.T, exact)
        dom = FunctionFamily(PointSpace.discrete(m, "x"), g)
        cod = FunctionFamily(PointSpace.discrete(m, "y"), g_cod)
        t = OperatorModel(matrix, dom, cod, basis="generator")
        cert = is_order_isomorphism(t)
        assert cert.arithmetic == ("rational" if exact else "float")
        assert cert.mode == "exact"
        if y0 is not None:
            assert not cert.accept
            _assert_witness(cert, g, g_cod, matrix, _as_mode(b.T, exact), exact)
            continue
        assert cert.accept
        if k == m:
            d = decompose(t, cert=cert)
            assert d.sigma == tuple(int(s) for s in sigma)
            if exact:
                assert list(d.weight) == w
            else:
                assert np.allclose(d.weight_array(), w, rtol=1e-9, atol=0.0)


def test_exact_rank_13_proper_subfamily_stays_rational():
    rng = np.random.default_rng(13)
    g = _as_mode(_int_generators(rng, 13, 15), True)
    fam = FunctionFamily(PointSpace.discrete(15), g)
    eye = _as_mode(np.eye(13, dtype=int), True)
    for matrix, accept in ((eye, True), (-eye, False)):
        cert = is_order_isomorphism(OperatorModel(matrix, fam, fam, basis="generator"))
        assert cert.accept is accept
        assert cert.arithmetic == "rational"
        if not accept:
            _assert_witness(cert, g, g, matrix, matrix, True)


@settings(max_examples=60, deadline=None)
@given(construction=st.sampled_from(CONSTRUCTIONS), seed=st.integers(0, 2**32 - 1),
       variant=st.sampled_from(["positive", "negative weight", "mixed"]),
       exponents=st.tuples(*(st.floats(-12.0, 12.0),) * 3))
# codomain rows 1 and 2 tie in the LP; rounding picked one or the other by beta
@example(construction=("int", 3, 7), seed=9999999, variant="mixed", exponents=(0.0, 1.0, 0.0))
def test_scaled_operator_gets_the_same_verdict(construction, seed, variant, exponents):
    """(alpha G_X, beta G_Y, gamma M) gets the verdict, side and point of
    (G_X, G_Y, M). Codomain generators B (g Lambda^T) and matrix B^-T give
    G_Y^T M = Lambda G_X^T: Lambda a positive weighted permutation (accepted),
    with one weight negated (rejected on the domain side), or plus a
    nonnegative mixing (T maps the cone into, usually not onto, itself)."""
    m = construction[2]
    g, g_cod, b_inv = _float_operator(construction, seed, variant)

    def verdict(alpha, beta, gamma):
        dom = FunctionFamily(PointSpace.discrete(m, "x"), alpha * g)
        cod = FunctionFamily(PointSpace.discrete(m, "y"), beta * g_cod)
        cert = is_order_isomorphism(OperatorModel(gamma * b_inv.T, dom, cod, basis="generator"))
        return cert.accept, cert.side, cert.point

    base = verdict(1.0, 1.0, 1.0)
    if variant != "mixed":
        assert base[0] is (variant == "positive")
    assert verdict(*(10.0 ** e for e in exponents)) == base


def _elastic_witness(a, b):
    """The exact certificate's former Farkas test on one side, kept as an
    oracle: one elastic HiGHS LP, B = Lambda A + S+ - S- with Lambda, S+- >= 0
    and min sum(S+ + S-), posed on A / max|A| and B / max|B| and solved to
    feasibility tolerances of 1e-10 (at HiGHS's default 1e-7 a slack can be
    off by more than the 1e-9 relative its callers compare it to). Rows are
    taken by decreasing slack; a row whose multiplier support re-solves
    exactly to a nonnegative row is settled, any other goes to the exact
    simplex.
    Returns each row's slack in B's units, and (y, c) for the first row that
    fails, or None."""
    fa, fb = as_float(a), as_float(b)
    (n, k), m = fb.shape, fa.shape[0]
    scale = np.max(np.abs(fb))
    res = linprog(c=np.tile(np.r_[np.zeros(m), np.ones(2 * k)], n),
                  A_eq=kron(identity(n), hstack([fa.T / np.max(np.abs(fa)), identity(k),
                                                 -identity(k)])),
                  b_eq=(fb / scale).ravel(), bounds=(0.0, None), method="highs",
                  options=dict(primal_feasibility_tolerance=1e-10,
                               dual_feasibility_tolerance=1e-10))
    assert res.status == 0
    x = res.x.reshape(n, m + 2 * k)
    slack = x[:, m:].sum(axis=1) * scale
    for y in np.argsort(-slack, kind="stable"):
        row = exact_solve_unique(a[x[y, :m] > 0].T, b[y])
        if row is not None and all(v >= 0 for v in row):
            continue
        c = linalg.farkas(a, b[y])
        if c is not None:
            return slack, (int(y), tuple(c))
    return slack, None


def _farkas_lp(a, b, tol: float):
    """`cones._farkas_witness` by the LP alone, as the certificate decided a
    side before the NNLS fits, kept as an oracle.

    One HiGHS LP, min b_y . c_y with A c_y >= 0 and |c_y| <= 1 for every y,
    is the dual of the elastic fit b_y = lam A + s+ - s- (lam, s+- >= 0, min
    sum(s+ + s-)): row y's value is minus its slack, and the multipliers of
    A c_y >= 0 are a lam. HiGHS's tolerances are absolute, so its costs are
    B / max|B| and its constraints A times the power of two that brings
    max|A| into [1/2, 1), which is exact and keeps the feasible set. Float:
    when the least value is below -linalg.cutoff(B, tol), the first row
    within that cutoff of it decides. Exact
    (`tol` unused): rows go in the stable order of their values, and one
    whose multiplier support re-solves exactly to lam >= 0 is settled; any
    other is decided by `linalg.farkas`, in index order if HiGHS fails. An
    exact A and B come as `linalg.ExactMatrix` values and are read as arrays.
    """
    a, b = linalg.dense(a), linalg.dense(b)
    fa, fb = linalg.as_float(a), linalg.as_float(b)
    fa = np.ldexp(fa, -np.frexp(np.max(np.abs(fa)))[1])
    (n, k), m = fb.shape, fa.shape[0]
    res = linprog(c=(fb / np.max(np.abs(fb))).ravel(),
                  A_ub=-kron(identity(n), fa, format="csr"), b_ub=np.zeros(n * m),
                  bounds=(-1.0, 1.0), method="highs")
    if res.status == 0:
        cs = res.x.reshape(n, k)
        vals = np.einsum("yk,yk->y", fb, cs)
        order, lams = np.argsort(vals, kind="stable"), -res.ineqlin.marginals.reshape(n, m)
    elif b.dtype != object:  # bounded and feasible (c = 0) by construction
        raise RuntimeError(f"LP solver failed: {res.message}")
    else:
        order, lams = range(n), np.zeros((n, m))
    if b.dtype != object:  # the first row within the cutoff of the least value
        bound = linalg.cutoff(b, tol)
        y = int(np.argmax(vals <= vals.min() + bound))
        return (y, cs[y]) if vals.min() < -bound else None
    for y in order:
        row = linalg.exact_solve_unique(a[lams[y] > 0].T, b[y])
        if row is not None and all(v >= 0 for v in row):
            continue
        c = linalg.farkas(a, b[y])
        if c is not None:
            return int(y), c
    return None


PROPER_CONSTRUCTIONS = [c for c in CONSTRUCTIONS if c[1] < c[2]]


def _proper_operator(construction, seed, variant, exponents, exact=True):
    """The proper-family weighted compositions of
    `test_weighted_composition_construction`, scaled by powers of ten and
    optionally mixed as in `test_scaled_operator_gets_the_same_verdict`:
    (alpha G_X, beta G_Y, gamma M) with G_Y^T M = Lambda G_X^T, built in
    rational arithmetic and taken to float unless `exact`. Returns the
    operator and its generators (G_X, G_Y)."""
    _, k, m = construction
    rng = np.random.default_rng(seed)
    alpha, beta, gamma = (Fraction(10) ** e for e in exponents)
    g = _as_mode(_int_generators(rng, k, m), True) * alpha
    b, b_inv = _unimodular(rng, k)
    w = [Fraction(int(v)) for v in rng.integers(1, 6, size=m)]
    lam = _as_mode(np.zeros((m, m), dtype=int), True)
    for y, x in enumerate(rng.permutation(m)):
        lam[y, x] = w[y]
    if variant == "negative weight":
        lam[int(rng.integers(m))] *= -1
    elif variant == "mixed":
        # each row's mixing stays at most half its weight, so Lambda is invertible
        mix = rng.integers(0, 3, size=(m, m)) * (rng.random((m, m)) < 0.3)
        lam += np.array([[w[y] * Fraction(int(v), 4 * m) for v in mix[y]] for y in range(m)],
                        dtype=object)
    g_cod = _as_mode(b, True) @ g @ lam.T * beta
    matrix = _as_mode(b_inv.T, True) * gamma
    if not exact:
        g, g_cod, matrix = (as_float(v) for v in (g, g_cod, matrix))
    t = OperatorModel(matrix, FunctionFamily(PointSpace.discrete(m, "x"), g),
                      FunctionFamily(PointSpace.discrete(m, "y"), g_cod), basis="generator")
    return t, g, g_cod


_PROPER_DRAWS = dict(
    construction=st.sampled_from(PROPER_CONSTRUCTIONS), seed=st.integers(0, 2**32 - 1),
    variant=st.sampled_from(["positive", "negative weight", "mixed"]),
    exponents=st.tuples(*(st.integers(-12, 12),) * 3))


@settings(max_examples=30, deadline=None)
@given(**_PROPER_DRAWS)
def test_exact_certificate_matches_the_elastic_oracle(construction, seed, variant, exponents):
    """On `_proper_operator`'s constructions the exact certificate reports
    the side, point and witness of the elastic LP. An LP is solved exactly
    when the rejected side has two or more rows with positive elastic
    slack, and then its value for each row is minus its slack."""
    t, g, g_cod = _proper_operator(construction, seed, variant, exponents)
    solved, real = [], linalg.block_lp

    def recorded(*args, **kwargs):
        cs, status = real(*args, **kwargs)
        solved.append(cs)
        return cs, status

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "block_lp", recorded)
        cert = is_order_isomorphism(t)

    want = None
    sides = (("domain", g.T, g_cod.T @ t.matrix), ("codomain", g_cod.T, g.T @ t.inverse_matrix))
    for side, a, bmat in sides:
        slack, hit = _elastic_witness(a, bmat)
        if hit is not None:
            want = (side, *hit)
            break
    # only a rejected side with two or more failing rows needs them ranked
    scale = np.max(np.abs(as_float(bmat)))
    assert len(solved) == (want is not None and np.sum(slack > 1e-9 * scale) > 1)
    if want is None:
        assert cert.accept
    else:
        if solved:
            vals = np.einsum("yk,yk->y", as_float(bmat), solved[0])
            assert np.max(np.abs(vals + slack)) <= 1e-9 * scale
        assert (cert.side, cert.point, cert.witness_coeffs) == want


@settings(max_examples=40, deadline=None)
@given(exact=st.booleans(), **_PROPER_DRAWS)
def test_nnls_screen_keeps_the_lp_certificate(construction, seed, variant, exponents, exact):
    """The certificate whose sides NNLS settles first equals the one the LP
    alone gives (`_farkas_lp`, in place of `_farkas_witness`): verdict,
    side, point and witness, in either arithmetic."""
    t = _proper_operator(construction, seed, variant, exponents, exact)[0]
    cert = is_order_isomorphism(t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "_farkas_witness", _farkas_lp)
        assert is_order_isomorphism(t) == cert
    if variant == "positive":
        assert cert.accept
    elif variant == "negative weight":
        assert (cert.accept, cert.side) == (False, "domain")


def _linprog_block(fa, costs):
    """`linalg.block_lp`'s LP as `scipy.optimize.linprog` poses it, kept as
    its oracle: min costs_y . c_y with fa c_y >= 0 and |c_y| <= 1 for every
    y, solved as an (n, k) array, or None when HiGHS finds no optimum."""
    (n, k), m = costs.shape, fa.shape[0]
    res = linprog(c=costs.ravel(), A_ub=-kron(identity(n), fa, format="csr"),
                  b_ub=np.zeros(n * m), bounds=(-1.0, 1.0), method="highs")
    return res.x.reshape(n, k) if res.status == 0 else None


def _scaled_block(a, b):
    """The arguments `cones._farkas_witness` hands `linalg.block_lp` for one
    side: A at its binary scale times the power of two that brings max|A|
    into [1/2, 1), and B / max|B|."""
    fa, fb = linalg.scaled_float(a), linalg.scaled_float(b)
    return np.ldexp(fa, -np.frexp(np.max(np.abs(fa)))[1]), fb / np.max(np.abs(fb))


def _lp_values(a, b):
    """Each row's value in `_farkas_lp`'s block LP, in B's units: minus the
    least L1 residual of b_y = lam A over lam >= 0, as HiGHS finds it."""
    cs = _linprog_block(*_scaled_block(a, b))
    assert cs is not None
    return np.einsum("yk,yk->y", as_float(b), cs)


@settings(max_examples=40, deadline=None)
@given(construction=st.sampled_from(CONSTRUCTIONS), seed=st.integers(0, 2**32 - 1),
       variant=st.sampled_from(["positive", "negative weight", "mixed"]))
def test_block_lp_returns_linprogs_vertex(construction, seed, variant):
    """On both sides of every float construction, the direct HiGHS call
    returns the solution `linprog` returns, bit for bit."""
    g, g_cod, b_inv = _float_operator(construction, seed, variant)
    for a, b in ((g.T, g_cod.T @ b_inv.T), (g_cod.T, g.T @ np.linalg.inv(b_inv.T))):
        fa, costs = _scaled_block(a, b)
        (x, status), want = linalg.block_lp(fa, costs), _linprog_block(fa, costs)
        assert want is not None and status == "Optimal" and x.shape == want.shape
        assert x.tobytes() == want.tobytes()


def test_block_lp_ranks_two_failing_exact_rows_as_linprog(monkeypatch):
    # the shear on span{1, t} over t = 0..3 fails at t = 2 and t = 3 in
    # rational arithmetic; the one LP that ranks them gets linprog's vertex
    fam, (_, shear) = TestFarkasGeneratorBasis._shear_pair()
    calls, real = [], linalg.block_lp
    monkeypatch.setattr(linalg, "block_lp",
                        lambda fa, costs: calls.append((fa, costs)) or real(fa, costs))
    cert = is_order_isomorphism(OperatorModel(shear, fam, fam, basis="generator"))
    assert (cert.accept, cert.side, cert.point, len(calls)) == (False, "domain", 3, 1)
    fa, costs = calls[0]
    assert real(fa, costs)[0].tobytes() == _linprog_block(fa, costs).tobytes()


def test_block_lp_gives_no_solution_without_a_checked_optimum():
    # an infinite cost leaves HiGHS with no optimum, and a nan in A gives an
    # "optimum" whose rows fail the check linprog made; each reports its status
    a, costs = np.array([[1.0, 0.5], [0.25, 1.0]]), np.array([[1.0, -2.0]])
    c, status = linalg.block_lp(a, costs)
    assert (c.tolist(), status) == ([[-0.5, 1.0]], "Optimal")
    c, status = linalg.block_lp(a, np.array([[np.inf, 1.0]]))
    assert c is None and status != "Optimal"
    c, status = linalg.block_lp(np.where(a == 1.0, np.nan, a), costs)
    assert (c, status) == (None, "Optimal, but off its constraints by more than 3.2e-04")


@settings(max_examples=40, deadline=None)
@given(construction=st.sampled_from(PROPER_CONSTRUCTIONS), seed=st.integers(0, 2**32 - 1),
       variant=st.sampled_from(["positive", "negative weight", "mixed"]))
def test_float_and_exact_certificates_agree(construction, seed, variant):
    """`_proper_operator`'s draws at exponents (0, 0, 0) have integer
    entries (the mixed variant's Lambda adds multiples of 1/4m), and float
    and exact certificates give the same accept, side and point.

    Skipped draws: the float verdict is read from the block LP's values
    against -cutoff(B), and rounding the inputs could move it where, on
    either side, the most negative value lies within half the cutoff of
    -cutoff (a band of the whole cutoff would reach the accepting value 0,
    and skip every accept), or where a rejected side's two most negative
    values lie within the cutoff of each other, so rounding could pick the
    point."""
    draw = (construction, seed, variant, (0, 0, 0))
    t = _proper_operator(*draw, exact=False)[0]
    for src, dst, mat in ((t.domain, t.codomain, t.matrix),
                          (t.codomain, t.domain, t.inverse_matrix)):
        b = dst.generators.T @ mat
        vals, cut = np.sort(_lp_values(src.generators.T, b)), linalg.cutoff(b, DEFAULT_TOL)
        assume(abs(vals[0] + cut) > cut / 2)
        assume(vals[0] >= -cut or vals.size < 2 or vals[1] - vals[0] > cut)
    flt, exact = is_order_isomorphism(t), is_order_isomorphism(_proper_operator(*draw)[0])
    assert (flt.arithmetic, exact.arithmetic) == ("float", "rational")
    assert (flt.accept, flt.side, flt.point) == (exact.accept, exact.side, exact.point)


@st.composite
def _integer_full_operators(draw):
    """An invertible integer point matrix P, and with it the operator in
    exact arithmetic: P itself on the indicator families (basis "point"), or
    M = G_Y^-T P G_X^T between two full families with integer generators
    (basis "generator"). P is a weighted permutation, all weights positive
    on half the draws, plus up to n integer entries anywhere."""
    n = draw(st.integers(1, 5))
    weights = st.sampled_from([1, 2, 3] if draw(st.booleans()) else [-3, -2, -1, 1, 2, 3])
    p = np.zeros((n, n), dtype=int)
    for y, x in enumerate(draw(st.permutations(range(n)))):
        p[y, x] = draw(weights)
    for _ in range(draw(st.integers(0, n))):
        p[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(st.integers(-3, 3))
    p = linalg.as_exact(p.tolist())
    assume(linalg.exact_rank(p) == n)
    if draw(st.sampled_from(["point", "generator"])) == "point":
        fams = [FunctionFamily.full(PointSpace.discrete(n, prefix), exact=True)
                for prefix in "xy"]
        return p, OperatorModel(p, *fams)
    fams = []
    for prefix in "xy":
        g = linalg.as_exact([[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)])
        if linalg.exact_rank(g) < n:
            g = linalg.as_exact(np.eye(n, dtype=int).tolist())
        fams.append(FunctionFamily(PointSpace.discrete(n, prefix), g))
    gx, gy = fams
    m = linalg.mat_mat(linalg.exact_inv(gy.generators.T), linalg.mat_mat(p, gx.generators.T))
    return p, OperatorModel(m, gx, gy, basis="generator")


def _clear_of_the_cutoff(m):
    """The exact matrix `m`'s float sign scan cannot flip under rounding: each
    negative entry lies below -2 linalg.cutoff(m), and the most negative
    value leads the next by more than twice the cutoff."""
    fm = as_float(m)
    cut = linalg.cutoff(fm, DEFAULT_TOL)
    neg = sorted(set(fm[fm < 0].tolist()))
    return all(v < -2 * cut for v in neg) and (len(neg) < 2 or neg[1] - neg[0] > 2 * cut)


@settings(max_examples=200, deadline=None)
@given(_integer_full_operators())
def test_float_and_exact_full_family_certificates_agree(draw):
    """The float twin of an integer operator between full families (its
    matrix and generators taken to float) gets the exact certificate's
    accept, side, point and witness, and an accepted one decomposes to the
    same sigma and to weights equal within float rounding. Point matrices
    take the generic constructor, generator-basis operators `as_point`.
    Skipped draws: an entry of P or of its inverse near enough to the float
    cutoff that rounding could move the verdict (`_clear_of_the_cutoff`)."""
    p, t = draw
    assume(_clear_of_the_cutoff(p) and _clear_of_the_cutoff(linalg.exact_inv(p)))
    fams = [FunctionFamily.full(f.space) if t.basis == "point" else
            FunctionFamily(f.space, as_float(f.generators)) for f in (t.domain, t.codomain)]
    flt = OperatorModel(as_float(t.matrix), *fams, basis=t.basis)
    cert_f, cert_e = is_order_isomorphism(flt), is_order_isomorphism(t)
    assert (cert_f.arithmetic, cert_e.arithmetic) == ("float", "rational")
    assert (cert_f.accept, cert_f.side, cert_f.point) == (cert_e.accept, cert_e.side, cert_e.point)
    assert cert_f.witness_values == tuple(float(v) for v in cert_e.witness_values or ()) or \
        cert_f.accept
    if cert_e.accept:
        d_f, d_e = decompose(flt, cert=cert_f), decompose(t, cert=cert_e)
        assert d_f.sigma == d_e.sigma
        w_e = np.array([float(w) for w in d_e.weight])
        assert np.max(np.abs(d_f.weight_array() - w_e)) <= 1e-12 * np.max(w_e)


@st.composite
def _full_generator_documents(draw):
    """(exact, M, G_X, G_Y): two independent integer families on 2-6 points
    and an integer M. On half the draws M is random, and mostly singular; on
    the other half it is G_Y^-T P G_X^T for P a weighted permutation, all
    weights positive on half of those, plus up to n integer entries, which
    may make P singular, so every verdict and rejection side occurs. Dependent codomains exit 1 by design and are not
    drawn."""
    exact = draw(st.booleans())
    n = draw(st.integers(2, 6))
    entries = st.integers(-2, 2)
    gens = []
    for _ in "xy":
        g = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
        assume(linalg.exact_rank(linalg.as_exact(g)) == n)
        gens.append(linalg.as_exact(g))
    if draw(st.booleans()):
        m = linalg.as_exact(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                          min_size=n, max_size=n)))
    else:
        weights = st.sampled_from([1, 2, 3] if draw(st.booleans()) else [-3, -2, -1, 1, 2, 3])
        p = np.zeros((n, n), dtype=int)
        for y, x in enumerate(draw(st.permutations(range(n)))):
            p[y, x] = draw(weights)
        for _ in range(draw(st.integers(0, n))):
            p[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(entries)
        gx, gy = gens
        m = linalg.mat_mat(linalg.exact_inv(gy.T), linalg.mat_mat(linalg.as_exact(p.tolist()), gx.T))
    conv = (lambda a: a) if exact else as_float
    return exact, conv(m), conv(gens[0]), conv(gens[1])


def _certificate_or_singular(*args):
    try:
        return is_order_isomorphism(OperatorModel(*args))
    except SingularMatrixError:
        return None


@settings(max_examples=300, deadline=None)
@given(_full_generator_documents())
def test_full_family_generator_operator_is_its_point_twin(draw):
    """In float and exact mode alike, a generator-basis operator between full
    families gets the certificate of the point-basis operator of its point
    matrix P = G_Y^T M inv(G_X^T): the same accept, side, point, detail and
    witness values, and where P is singular both raise SingularMatrixError
    (the generator's message may be M's own check's)."""
    exact, m, gx, gy = draw
    dom, cod = (FunctionFamily(PointSpace.discrete(len(g), prefix), g)
                for g, prefix in ((gx, "x"), (gy, "y")))
    p = linalg.mat_mat_mat(cod.generators.T, m, dom.coefficient_matrix())
    fulls = [FunctionFamily.full(f.space, exact=exact) for f in (dom, cod)]
    gen = _certificate_or_singular(m, dom, cod, "generator")
    point = _certificate_or_singular(p, *fulls, "point")
    assert (gen is None) == (point is None)
    if gen is not None:
        assert (gen.accept, gen.side, gen.point, gen.detail, gen.witness_values) == \
            (point.accept, point.side, point.point, point.detail, point.witness_values)
