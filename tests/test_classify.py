"""Tests for the isometry / lattice / algebra screens and the kind ladder."""
from fractions import Fraction

import numpy as np

from oiso.classify import (
    algebra_check,
    classify,
    isometry_reduce,
    lattice_check,
)
from oiso.cones import OperatorModel, is_order_isomorphism
from oiso.fuzz import (
    random_monomial,
    random_nonneg_nonmonomial,
    random_permutation_operator,
    random_signed_monomial,
    spawn_generators,
)
from oiso.spaces import FunctionFamily, PointSpace


def _point_op(matrix):
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    return OperatorModel(m, FunctionFamily.full(PointSpace.discrete(n, "x")),
                         FunctionFamily.full(PointSpace.discrete(n, "y")))


class TestIsometryReduce:
    def test_signed_swap_reduces_to_permutation(self):
        t = _point_op([[0.0, -1.0], [1.0, 0.0]])
        g, reduced = isometry_reduce(t)
        assert np.allclose(np.asarray(g, dtype=float), [-1.0, 1.0])
        assert np.allclose(reduced.matrix, [[0.0, 1.0], [1.0, 0.0]])

    def test_non_unimodular_weight_refused(self):
        t = _point_op([[0.0, 2.0], [3.0, 0.0]])
        assert isometry_reduce(t) is None
        assert classify(t).evidence[0] == {
            "screen": "isometry", "passed": False,
            "detail": "|T(1)| differs from 1 by 2.000e+00 at point 1"}

    def test_sup_norm_violation_refused(self):
        # T(1) = (1, 1) but the operator inflates sup norms: the reduced
        # operator (T itself) fails the cone test
        t = _point_op([[2.0, -1.0], [-1.0, 2.0]])
        g, reduced = isometry_reduce(t)
        assert not is_order_isomorphism(reduced).accept
        assert not _sup_norm_oracle(t)
        rep = classify(t)
        assert rep.kind == "rejected"
        assert rep.evidence[0]["detail"] == "reduced operator failed the cone test"

    def test_exact_mode(self):
        m = np.array([[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]],
                     dtype=object)
        t = OperatorModel(m, FunctionFamily.full(PointSpace.discrete(2, "x"), exact=True),
                          FunctionFamily.full(PointSpace.discrete(2, "y"), exact=True))
        g, reduced = isometry_reduce(t)
        assert tuple(g) == (Fraction(-1), Fraction(1))
        assert reduced.matrix[0, 1] == Fraction(1)


class TestLatticeCheck:
    def test_positive_monomial_passes(self):
        t = _point_op([[0.0, 2.0], [3.0, 0.0]])
        assert lattice_check(t)

    def test_signed_monomial_fails(self):
        t = _point_op([[0.0, -1.0], [1.0, 0.0]])
        assert not lattice_check(t)

    def test_non_monomial_fails(self):
        t = _point_op([[1.0, 1.0], [0.0, 1.0]])
        assert not lattice_check(t)

    def test_exact_mode(self):
        t = OperatorModel.weighted_permutation(
            (1, 0), np.array([Fraction(2), Fraction(3)], dtype=object))
        assert lattice_check(t)


class TestAlgebraCheck:
    def test_permutation_passes(self):
        t = _point_op([[0.0, 1.0], [1.0, 0.0]])
        assert algebra_check(t)

    def test_weighted_permutation_fails(self):
        # multiplicativity forces the weight to be idempotent and unital
        t = _point_op([[0.0, 2.0], [3.0, 0.0]])
        assert not algebra_check(t)

    def test_exact_permutation_passes(self):
        t = OperatorModel.weighted_permutation(
            (2, 0, 1), np.array([Fraction(1)] * 3, dtype=object))
        assert algebra_check(t)


class TestClassifyKinds:
    def test_algebra_iso_most_specific(self):
        rep = classify(_point_op([[0.0, 1.0], [1.0, 0.0]]))
        assert rep.kind == "algebra-iso"
        assert rep.decomposition.sigma == (1, 0)
        assert rep.certificate.accept

    def test_positive_weights_are_lattice_iso(self):
        rep = classify(_point_op([[0.0, 2.0], [3.0, 0.0]]))
        assert rep.kind == "lattice-iso"
        assert rep.decomposition.sigma == (1, 0)
        assert np.allclose(np.asarray(rep.decomposition.weight, dtype=float),
                           [2.0, 3.0])

    def test_signed_monomial_is_isometry_only(self):
        rep = classify(_point_op([[0.0, -1.0], [1.0, 0.0]]))
        assert rep.kind == "isometry"
        assert rep.unimodular_sign == (-1.0, 1.0)
        # the plain cone test rejects the sign flip, but the isometry route
        # still reports the underlying point bijection
        assert not rep.certificate.accept
        assert rep.decomposition.sigma == (1, 0)

    def test_non_monomial_rejected(self):
        rep = classify(_point_op([[1.0, 1.0], [0.0, 1.0]]))
        assert rep.kind == "rejected"
        assert rep.decomposition is None
        assert not rep.certificate.accept

    def test_every_screen_reported(self):
        rep = classify(_point_op([[0.0, 1.0], [1.0, 0.0]]))
        screens = [e["screen"] for e in rep.evidence]
        assert screens == ["isometry", "lattice", "algebra", "cone"]
        assert all(e["passed"] for e in rep.evidence)

    def test_kind_ladder_on_random_instances(self):
        for rng in spawn_generators(23, 8):
            n = int(rng.integers(2, 8))
            t, sigma, _ = random_monomial(rng, n)
            rep = classify(t)
            assert rep.kind in ("lattice-iso", "algebra-iso")
            assert rep.decomposition.sigma == tuple(int(s) for s in sigma)

            t_s, sigma_s, _ = random_signed_monomial(rng, n)
            rep_s = classify(t_s)
            assert rep_s.kind == "isometry"
            assert rep_s.decomposition.sigma == tuple(int(s) for s in sigma_s)

            t_p, sigma_p, _ = random_permutation_operator(rng, n)
            rep_p = classify(t_p)
            assert rep_p.kind == "algebra-iso"
            assert rep_p.decomposition.sigma == tuple(int(s) for s in sigma_p)

    def test_exact_classification(self):
        t = OperatorModel.weighted_permutation(
            (1, 0), np.array([Fraction(2), Fraction(3)], dtype=object))
        rep = classify(t)
        assert rep.kind == "lattice-iso"
        assert rep.decomposition.weight == (Fraction(2), Fraction(3))


class TestReportJson:
    def test_accept_report_shape(self):
        doc = classify(_point_op([[0.0, 2.0], [3.0, 0.0]])).to_json_dict()
        assert doc["schema"] == "oiso/1"
        assert doc["kind"] == "lattice-iso"
        assert doc["sigma"] == [1, 0]
        assert doc["weight"] == [2.0, 3.0]
        assert doc["residual"] == 0.0
        assert doc["certificate"]["accept"] is True
        assert {e["screen"] for e in doc["evidence"]} == {
            "isometry", "lattice", "algebra", "cone"}

    def test_reject_report_shape(self):
        doc = classify(_point_op([[1.0, 1.0], [0.0, 1.0]])).to_json_dict()
        assert doc["kind"] == "rejected"
        assert "sigma" not in doc
        assert doc["certificate"]["accept"] is False
        assert doc["certificate"]["witness"] == [0.0, 1.0]

    def test_exact_weights_serialized_as_fractions(self):
        t = OperatorModel.weighted_permutation(
            (1, 0), np.array([Fraction(1, 2), Fraction(3)], dtype=object))
        doc = classify(t).to_json_dict()
        assert doc["weight"] == ["1/2", "3"]

    def test_isometry_report_includes_sign(self):
        doc = classify(_point_op([[0.0, -1.0], [1.0, 0.0]])).to_json_dict()
        assert doc["kind"] == "isometry"
        assert doc["unimodular_sign"] == [-1.0, 1.0]


class TestClosedFormRegressions:
    def test_tiny_shear_is_algebra_iso(self):
        # the sampled screens made this lattice-iso, isometry or algebra-iso
        # depending on the seed and the sample count
        rep = classify(_point_op([[1.0, 2e-10], [0.0, 1.0]]))
        assert rep.kind == "algebra-iso"
        assert all(e["passed"] for e in rep.evidence)
        assert rep.unimodular_sign == (1.0 + 2e-10, 1.0)

    def test_accepted_near_monomials_never_isometry_or_rejected(self):
        tol = 1e-9
        accepted = 0
        for rng in spawn_generators(41, 60):
            n = int(rng.integers(2, 17))
            make = random_permutation_operator if rng.integers(2) else random_monomial
            t, sigma, _ = make(rng, n)
            m = np.array(t.matrix, dtype=float)
            for _ in range(int(rng.integers(1, n + 1))):
                y, x = int(rng.integers(n)), int(rng.integers(n))
                if x != int(sigma[y]):
                    m[y, x] = rng.uniform(-tol / 2, tol / 2)
            t = OperatorModel(m, t.domain, t.codomain)
            if not is_order_isomorphism(t, tol=tol).accept:
                continue
            accepted += 1
            rep = classify(t, tol=tol)
            assert rep.kind in ("lattice-iso", "algebra-iso")
            assert rep.decomposition.sigma == tuple(int(s) for s in sigma)
        assert accepted >= 30

    def test_evidence_has_one_shape(self):
        for m in ([[0.0, 1.0], [1.0, 0.0]], [[0.0, 2.0], [3.0, 0.0]],
                  [[0.0, -1.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]]):
            for e in classify(_point_op(m)).evidence:
                assert set(e) == {"screen", "passed", "detail"}
                assert e["passed"] == (e["detail"] == "")


# --------------------------------------------------------- reference screens
# The sampled screens classify ran before it decided in closed form, kept as
# oracles: on exact instances every closed-form verdict must agree with them.

def _sample_vectors(rng, n, exact, count):
    for _ in range(count):
        if exact:
            ints = rng.integers(-9, 10, size=n)
            yield np.array([Fraction(int(x)) for x in ints], dtype=object)
        else:
            yield rng.standard_normal(n)


def _sup_norm_oracle(t, samples=64, seed=0, tol=1e-9) -> bool:
    """|T(1)| = 1 at every point and sup norms preserved on sampled functions."""
    t = t.as_point()
    g = t.apply_values(t.domain.ones())
    if t.exact and any(abs(x) != 1 for x in g):
        return False
    if not t.exact and np.max(np.abs(np.abs(g) - 1.0)) > tol:
        return False
    rng = np.random.default_rng(seed)
    for v in _sample_vectors(rng, t.size, t.exact, samples):
        lhs = max(abs(x) for x in t.apply_values(v))
        rhs = max(abs(x) for x in v)
        if (lhs != rhs) if t.exact else abs(lhs - rhs) > tol * max(1.0, rhs):
            return False
    return True


def _lattice_residual(t, samples=64, seed=0) -> float:
    """Worst |(|Tf|) - T(|f|)| over indicators and sampled sign patterns."""
    t = t.as_point()
    n = t.size
    rng = np.random.default_rng(seed)
    worst = 0.0
    probes = [np.eye(n)[j] for j in range(n)]
    probes += list(_sample_vectors(rng, n, False, samples))
    probes += [rng.choice([-1.0, 1.0], size=n) for _ in range(min(samples, 4 * n))]
    mat = np.asarray(t.matrix, dtype=float) if not t.exact else None
    for v in probes:
        if t.exact:
            fv = np.array([Fraction(x) for x in np.round(v * 8).astype(int)], dtype=object)
            lhs = np.array([abs(x) for x in t.apply_values(fv)], dtype=object)
            rhs = t.apply_values(np.array([abs(x) for x in fv], dtype=object))
            res = float(max(abs(a - b) for a, b in zip(lhs, rhs)))
        else:
            res = float(np.max(np.abs(np.abs(mat @ v) - mat @ np.abs(v))))
        worst = max(worst, res)
    return worst


def _algebra_residual(t, samples=64, seed=0) -> float:
    """Worst violation of T1 = 1 and T(fg) = Tf Tg over all basis pairs
    (the full bilinear identity) and sampled pairs."""
    t = t.as_point()
    n = t.size
    if t.exact:
        one = t.apply_values(t.domain.ones())
        worst = float(max(abs(x - 1) for x in one))
        cols = [t.apply_values(np.array([Fraction(int(i == j)) for i in range(n)],
                                        dtype=object)) for j in range(n)]
        for i in range(n):
            for j in range(n):
                prod = np.array([cols[i][y] * cols[j][y] for y in range(n)], dtype=object)
                expect = cols[i] if i == j else np.array([Fraction(0)] * n, dtype=object)
                worst = max(worst, float(max(abs(a - b) for a, b in zip(prod, expect))))
        return worst
    mat = np.asarray(t.matrix, dtype=float)
    worst = float(np.max(np.abs(mat @ np.ones(n) - 1.0)))
    for i in range(n):
        for j in range(n):
            expect = mat[:, i] if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(mat[:, i] * mat[:, j] - expect))))
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        f, g = rng.standard_normal(n), rng.standard_normal(n)
        worst = max(worst, float(np.max(np.abs(mat @ (f * g) - (mat @ f) * (mat @ g)))))
    return worst


def _oracle_kind(t) -> str:
    """The sampled kind ladder: algebra > lattice > isometry > order-iso-only."""
    accept = is_order_isomorphism(t).accept
    if accept and _algebra_residual(t) == 0:
        return "algebra-iso"
    if accept and _lattice_residual(t) == 0:
        return "lattice-iso"
    if _sup_norm_oracle(t):
        return "isometry"
    return "order-iso-only" if accept else "rejected"


def _row_stochastic(rng, n):
    """A nonnegative non-monomial with T(1) = 1: a non-isometry that only the
    sup-norm samples (not |T(1)|) refuse."""
    m = random_nonneg_nonmonomial(rng, n).matrix
    m = np.array([[x / sum(row) for x in row] for row in m], dtype=object)
    dom = FunctionFamily.full(PointSpace.discrete(n, "x"), exact=True)
    return OperatorModel(m, dom, FunctionFamily.full(PointSpace.discrete(n, "y"), exact=True))


class TestClosedFormMatchesSampledScreens:
    def test_exact_instances(self):
        makers = {
            "positive monomial": lambda rng, n: random_monomial(rng, n, exact=True)[0],
            "signed monomial": lambda rng, n: random_signed_monomial(rng, n, exact=True)[0],
            "signed weights": lambda rng, n: random_monomial(
                rng, n, exact=True, signs=-np.ones(n))[0],
            "permutation": lambda rng, n: random_permutation_operator(rng, n, exact=True)[0],
            "nonneg nonmonomial": lambda rng, n: random_nonneg_nonmonomial(rng, n),
            "row stochastic": _row_stochastic,
        }
        kinds = set()
        for n, rng in zip(range(2, 13), spawn_generators(17, 11)):
            for name, make in makers.items():
                t = make(rng, n)
                red = isometry_reduce(t)
                iso = red is not None and is_order_isomorphism(red[1]).accept
                assert iso == _sup_norm_oracle(t), (name, n)
                assert lattice_check(t) == (_lattice_residual(t) == 0), (name, n)
                assert algebra_check(t) == (_algebra_residual(t) == 0), (name, n)
                kind = classify(t).kind
                assert kind == _oracle_kind(t), (name, n)
                kinds.add(kind)
        assert kinds == {"algebra-iso", "lattice-iso", "isometry", "rejected"}
