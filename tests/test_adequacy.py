"""Tests for the adequacy flags and the clamp-based bump constructions."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from oiso import linalg
from oiso.adequacy import (
    SeparationInfeasibleError,
    build_precise_bump,
    build_subbasic_bump,
    check_adequate,
    clamp,
)
from oiso.fuzz import random_metric_space, spawn_generators
from oiso.linalg import as_float, exact_rank
from oiso.spaces import (DEFAULT_TOL, FunctionFamily, PointSpace, build_lipschitz_family,
                         span_membership)


class TestClamp:
    def test_scalar_values(self):
        assert clamp(-0.5) == 0.0
        assert clamp(0.0) == 0.0
        assert clamp(0.25) == 0.25
        assert clamp(1.0) == 1.0
        assert clamp(7.0) == 1.0

    def test_idempotent(self):
        xs = np.linspace(-3, 3, 61)
        assert np.array_equal(clamp(clamp(xs)), clamp(xs))

    def test_exact_values(self):
        assert clamp(Fraction(-1, 2)) == Fraction(0)
        assert clamp(Fraction(1, 3)) == Fraction(1, 3)
        assert clamp(Fraction(4, 3)) == Fraction(1)

    def test_exact_array(self):
        arr = np.array([Fraction(-1), Fraction(1, 2), Fraction(2)], dtype=object)
        out = clamp(arr)
        assert list(out) == [Fraction(0), Fraction(1, 2), Fraction(1)]

    def test_monotone(self):
        xs = np.sort(np.random.default_rng(0).uniform(-2, 2, size=50))
        cs = clamp(xs)
        assert np.all(np.diff(cs) >= 0)


class TestCheckAdequate:
    def test_full_family_is_adequate(self):
        fam = FunctionFamily.full(PointSpace.discrete(4))
        rep = check_adequate(fam)
        assert rep.adequate
        assert rep.separates and rep.has_constants
        assert rep.g_invariant and rep.cone_generates
        assert rep.g_residual == 0.0
        assert all(w is not None for w in rep.separation_witnesses)

    def test_lipschitz_families_are_adequate(self):
        for rng in spawn_generators(31, 6):
            space = random_metric_space(rng, max_points=9)
            fam = build_lipschitz_family(space)
            rep = check_adequate(fam)
            assert rep.adequate

    def test_removing_constants_flips_the_flag(self):
        # span{t, t^2} on a grid avoiding 0: no constants, still separating
        ts = np.array([0.25, 0.5, 1.0])
        fam = FunctionFamily(PointSpace.grid(list(ts)),
                             np.array([ts, ts ** 2]), names=("t", "t^2"))
        rep = check_adequate(fam)
        assert not rep.has_constants
        assert not rep.adequate

    def test_affine_family_is_not_clamp_invariant(self):
        # clamp(2t - 1) on {0, 1/2, 1} is (0, 0, 1): not affine in t
        ts = np.array([0.0, 0.5, 1.0])
        fam = FunctionFamily(PointSpace.grid(list(ts)),
                             np.array([np.ones(3), ts]), names=("1", "t"))
        rep = check_adequate(fam)
        assert rep.separates is False or rep.g_invariant is False
        assert not rep.adequate
        assert rep.g_residual > 0 or not rep.separates

    def test_cone_generation_without_constants_uses_lp(self):
        # difference generators: the only nonnegative span element is 0, so
        # the cone cannot generate and the fit finds no positive element
        gen = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        fam = FunctionFamily(PointSpace.discrete(3), gen, names=("a", "b"))
        rep = check_adequate(fam)
        assert not rep.has_constants
        assert not rep.cone_generates
        assert rep.cone_witness is None
        assert not rep.adequate

    def test_cone_generation_without_constants_feasible_case(self):
        # span{t, t(1-t)} on (0,1) samples: both generators positive there, so
        # the fit finds a strictly positive span element
        ts = np.array([0.2, 0.5, 0.8])
        gen = np.array([ts, ts * (1 - ts)])
        fam = FunctionFamily(PointSpace.grid(list(ts)), gen, names=("t", "t(1-t)"))
        rep = check_adequate(fam)
        assert not rep.has_constants
        assert rep.cone_generates
        assert np.all(fam.values(np.array(rep.cone_witness)) > 0)

    @pytest.mark.parametrize("ts, generates", [((1, 2), True), ((-1, 1), False)])
    def test_exact_cone_generation_without_constants_reads_no_lp(self, monkeypatch, ts,
                                                                   generates):
        # span{t}: positive on {1, 2}, sign-changing on {-1, 1}; decided by
        # Gordan's alternative in rational arithmetic, so no LP may run
        def refuse(*args, **kwargs):
            raise AssertionError("an exact family needs no LP")

        monkeypatch.setattr(linalg, "block_lp", refuse)
        gen = np.array([[Fraction(t) for t in ts]], dtype=object)
        fam = FunctionFamily(PointSpace.grid([float(t) for t in ts]), gen, names=("t",))
        rep = check_adequate(fam)
        assert not rep.has_constants
        assert rep.cone_generates is generates
        if generates:
            assert all(isinstance(c, Fraction) for c in rep.cone_witness)
            assert min(fam.values(np.array(rep.cone_witness, dtype=object))) >= 1
        else:
            assert rep.cone_witness is None

    @pytest.mark.parametrize("gen, generates", [
        ([[0.2, 0.5, 0.8], [0.16, 0.25, 0.16]], True),
        ([[2.0, 2.0, -1.0, 0.0], [0.0, 0.0, 1.0, 0.0]], True),
        ([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]], False),
        ([[1.0, 2.0, -1.0]], False),
    ], ids=["positive", "zero-column", "differences", "sign-changing"])
    def test_float_cone_generation_without_constants_reads_no_lp(self, monkeypatch, gen,
                                                                 generates):
        # one NNLS fit decides Gordan's alternative; no LP may run
        def refuse(*args, **kwargs):
            raise AssertionError("cone generation needs no LP")

        monkeypatch.setattr(linalg, "block_lp", refuse)
        fam = FunctionFamily(PointSpace.discrete(len(gen[0])), np.array(gen))
        rep = check_adequate(fam)
        assert not rep.has_constants
        assert rep.cone_generates is generates
        if generates:
            vals = fam.values(np.array(rep.cone_witness))
            nonzero = np.any(fam.generators != 0, axis=0)
            assert np.all(vals[nonzero] >= 1 - 1e-9)
        else:
            assert rep.cone_witness is None

    @pytest.mark.parametrize("gen", [
        [[0.2, 0.5, 0.8], [0.16, 0.25, 0.16]],
        [[0.1, -0.3, 0.7], [0.0, 0.4, 0.2]],
        [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]],
        [[1.0, 2.0, -1.0]],
    ], ids=["positive", "mixed-signs", "differences", "sign-changing"])
    def test_float_cone_generation_decides_exactly_when_the_fit_fails(self, monkeypatch,
                                                                      gen):
        # an NNLS fit that does not converge raises; the verdict is then the
        # rational one on the same float entries, not a silent "no"
        gen = np.array(gen)
        fam = FunctionFamily(PointSpace.discrete(gen.shape[1]), gen)
        want = check_adequate(FunctionFamily(fam.space, _exact(gen))).cone_generates

        def no_fit(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(linalg, "nnls", no_fit)
        rep = check_adequate(fam)
        assert rep.cone_generates is want
        if want:
            assert all(isinstance(c, float) for c in rep.cone_witness)
            vals = fam.values(np.array(rep.cone_witness))
            nonzero = np.any(gen != 0, axis=0)
            assert np.all(vals[nonzero] >= 1 - 1e-9)
        else:
            assert rep.cone_witness is None

    def test_exact_full_family(self):
        fam = FunctionFamily.full(PointSpace.discrete(3), exact=True)
        rep = check_adequate(fam)
        assert rep.adequate

    def test_report_json_shape(self):
        fam = FunctionFamily.full(PointSpace.discrete(2))
        doc = check_adequate(fam).to_json_dict()
        assert doc["schema"] == "oiso/1"
        assert set(doc) == {"schema", "separates", "has_constants", "g_invariant",
                            "g_residual", "cone_generates", "adequate"}


    def test_invariant_proper_family_reports_zero_residual(self):
        # 2*1_{x1,x2} - 1_{x3} and 1_{x3} over four points, x4 a zero column
        gen = np.array([[2.0, 2.0, -1.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        rep = check_adequate(FunctionFamily(PointSpace.discrete(4), gen))
        assert rep.g_invariant and rep.g_residual == 0.0
        assert not rep.has_constants and rep.cone_generates
        assert not rep.separates
        assert [w is not None for w in rep.separation_witnesses] == [False, False, True, False]

    def test_saturating_clamp_shows_in_the_residual(self):
        # span{(0.01, 0, 0.02)}: clamps of small multiples stay in the span,
        # but its clamp closure holds the indicator of a, at distance 0.8
        fam = FunctionFamily(PointSpace.discrete(3), np.array([[0.01, 0.0, 0.02]]))
        rep = check_adequate(fam)
        assert not rep.g_invariant
        assert rep.g_residual == pytest.approx(0.8)

    def test_exact_family_not_invariant_reports_inf(self):
        gen = np.array([[Fraction(1)] * 3, [Fraction(0), Fraction(1, 2), Fraction(1)]],
                       dtype=object)
        rep = check_adequate(FunctionFamily(PointSpace.discrete(3), gen))
        assert rep.has_constants and not rep.g_invariant
        assert rep.g_residual == float("inf")
        assert rep.cone_witness == (Fraction(1), Fraction(0))

    @pytest.mark.parametrize("exact", [False, True])
    def test_full_family_runs_no_solve_or_lp(self, monkeypatch, exact):
        space = random_metric_space(np.random.default_rng(5), min_points=6, max_points=6)
        fam = build_lipschitz_family(space)
        if exact:
            fam = FunctionFamily(space, _exact(fam.generators))

        def refuse(*args, **kwargs):
            raise AssertionError("a full family needs no least squares or LP")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        monkeypatch.setattr(linalg, "block_lp", refuse)
        rep = check_adequate(fam)
        assert rep.adequate and rep.g_residual == 0.0
        for x, w in enumerate(rep.separation_witnesses):
            vals = as_float([fam.values(np.array(w))])[0]
            assert np.allclose(vals, np.eye(6)[x], atol=1e-9)
        assert np.allclose(as_float([fam.values(np.array(rep.cone_witness))])[0], 1.0)


# --------------------------------------------------------- reference oracle
# check_adequate as it ran before it decided in closed form: one solve per
# indicator, clamped probes for invariance and one LP per generator for cone
# generation. The closed-form flags must agree with it.

def _exact(g):
    return np.array([[Fraction(float(x)) for x in row] for row in g], dtype=object)


def _indicator(fam, x):
    v = np.array([Fraction(int(i == x)) for i in range(fam.space.size)], dtype=object)
    return v if fam.exact else np.asarray(v, dtype=float)


def _lp_cone_generates(fam) -> bool:
    """Every generator is c1 - c2 with both parts nonnegative at every point."""
    a = as_float(fam.generators).T
    n, k = a.shape
    for f in as_float(fam.generators):
        res = linprog(c=np.zeros(2 * k), A_eq=np.hstack([a, -a]), b_eq=f,
                      A_ub=np.vstack([np.hstack([-a, np.zeros((n, k))]),
                                      np.hstack([np.zeros((n, k)), -a])]),
                      b_ub=np.zeros(2 * n), bounds=[(None, None)] * (2 * k),
                      method="highs")
        if not res.success:
            return False
    return True


def _sampled_adequacy(fam, tol=DEFAULT_TOL, samples=64, seed=0, scales=(1,)):
    """(separates, has_constants, g_invariant, cone_generates), probing each
    multiple s * v, s in `scales`, of the generators and sampled span
    elements v (the parent probed s = 1 only)."""
    separates = all(span_membership(fam, _indicator(fam, x), tol=tol)[0]
                    for x in range(fam.space.size))
    has_const = fam.has_constants(tol=tol)
    rng = np.random.default_rng(seed)
    probes = [fam.generators[i] for i in range(fam.rank)]
    for _ in range(samples):
        if fam.exact:
            ints = rng.integers(-3, 4, size=fam.rank)
            coeffs = np.array([Fraction(int(v)) for v in ints], dtype=object)
        else:
            coeffs = rng.standard_normal(fam.rank)
        probes.append(fam.values(coeffs))
    g_invariant = all(span_membership(fam, clamp(v), tol=tol)[0]
                      for v in [s * v for s in scales for v in probes])
    return separates, has_const, g_invariant, has_const or _lp_cone_generates(fam)


def _closure_distance(fam):
    """Largest sup-norm lstsq distance from the span to the indicator of a
    set of points sharing one nonzero column of G, one solve per indicator."""
    a = as_float(fam.generators).T
    worst = 0.0
    for col in {tuple(col) for col in a if np.any(col != 0)}:
        ind = np.all(a == col, axis=1).astype(float)
        c, *_ = np.linalg.lstsq(a, ind, rcond=None)
        worst = max(worst, float(np.max(np.abs(a @ c - ind))))
    return worst


def _flags(rep):
    return rep.separates, rep.has_constants, rep.g_invariant, rep.cone_generates


def _unimodular(rng, r):
    lower = np.tril(rng.integers(-2, 3, size=(r, r)), -1) + np.eye(r, dtype=int)
    upper = np.triu(rng.integers(-2, 3, size=(r, r)), 1) + np.eye(r, dtype=int)
    return lower @ upper


def _family(space, g, exact):
    return FunctionFamily(space, _exact(g) if exact else np.asarray(g, dtype=float))


def _full_lipschitz(rng, exact):
    fam = build_lipschitz_family(random_metric_space(rng, max_points=7))
    return _family(fam.space, fam.generators, exact)


def _dropped_rows(rng, exact):
    # build_lipschitz_family puts the constants row first; it may be dropped
    fam = build_lipschitz_family(random_metric_space(rng, min_points=3, max_points=7))
    n = fam.rank
    keep = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    return _family(fam.space, fam.generators[keep], exact)


def _disjoint_indicators(rng, exact):
    # C . [1_{S_1}; ...; 1_{S_r}] over disjoint nonempty S_k; class 0 is zero
    n = int(rng.integers(3, 10))
    r = int(rng.integers(1, n))
    labels = np.concatenate([np.arange(1, r + 1), rng.integers(0, r + 1, size=n - r)])
    rng.shuffle(labels)
    ind = np.array([[int(lab == k) for lab in labels] for k in range(1, r + 1)])
    return _family(PointSpace.discrete(n), _unimodular(rng, r) @ ind, exact)


def _independent_rows(rng, make):
    while True:
        g = make()
        if exact_rank(_exact(g)) == g.shape[0]:
            return g


def _nonnegative(rng, exact):
    # nonnegative generators without the constants: the cone generates
    n = int(rng.integers(3, 10))
    r = int(rng.integers(1, n))
    while True:
        g = _independent_rows(rng, lambda: rng.integers(0, 4, size=(r, n)))
        if exact_rank(_exact(np.vstack([g, np.ones((1, n), dtype=int)]))) == r + 1:
            return _family(PointSpace.discrete(n), g, exact)


def _differences(rng, exact):
    # every span element sums to 0, so the only nonnegative one is 0
    n = int(rng.integers(3, 10))
    r = int(rng.integers(1, n))

    def make():
        g = rng.integers(-3, 4, size=(r, n))
        g[:, -1] = -g[:, :-1].sum(axis=1)
        return g

    return _family(PointSpace.discrete(n), _independent_rows(rng, make), exact)


FAMILIES = {"full lipschitz": _full_lipschitz, "dropped rows": _dropped_rows,
            "disjoint indicators": _disjoint_indicators, "nonnegative": _nonnegative,
            "differences": _differences}


class TestClosedFormMatchesSampledOracle:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(sorted(FAMILIES)), seed=st.integers(0, 2**32 - 1),
           exact=st.booleans())
    def test_flags_and_residual_equal_the_oracle(self, kind, seed, exact):
        fam = FAMILIES[kind](np.random.default_rng(seed), exact)
        rep = check_adequate(fam)
        want = _sampled_adequacy(fam)
        # unscaled probes can miss a clamp that leaves the span only once it
        # saturates (span{g} with 0 < g < 1 and two distinct positive values),
        # so invariance is checked against probes at 1000x as well
        wide = _sampled_adequacy(fam, scales=(1, 1000))
        assert _flags(rep) == want[:2] + wide[2:3] + want[3:4]
        assert rep.adequate == (all(want[:2]) and wide[2] and want[3])
        # the distance to the clamp closure: 0 exactly when invariant; a
        # family that is not has inf (exact) or the lstsq distance (float)
        assert (rep.g_residual > 0) == (not rep.g_invariant)
        if rep.g_invariant:
            assert _closure_distance(fam) <= 1e-9
        elif fam.exact:
            assert rep.g_residual == float("inf")
        else:
            assert rep.g_residual == pytest.approx(_closure_distance(fam), rel=1e-9)
        if kind == "disjoint indicators":
            assert rep.g_invariant
        if kind == "nonnegative":
            assert rep.cone_generates and not rep.has_constants
        if kind == "differences":
            assert not rep.cone_generates and rep.cone_witness is None
        if rep.cone_generates:
            nonzero = np.any(as_float(fam.generators) != 0, axis=0)
            vals = as_float([fam.values(np.array(rep.cone_witness))])[0]
            assert np.all(vals[nonzero] > 0)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(FAMILIES)), seed=st.integers(0, 2**32 - 1),
           exponent=st.floats(-12.0, 12.0))
    def test_scaled_generators_get_the_same_flags(self, kind, seed, exponent):
        fam = FAMILIES[kind](np.random.default_rng(seed), False)
        scaled = FunctionFamily(fam.space, 10.0 ** exponent * fam.generators)
        assert _flags(check_adequate(scaled)) == _flags(check_adequate(fam))


class TestSubbasicBump:
    def test_tent_shape_on_full_family(self):
        # anchor x0 with f = distances: h = min(|f - f(x0)|/eps, 1)
        space = PointSpace.grid([0.0, 0.3, 0.8, 2.0])
        fam = FunctionFamily.full(space)
        f = np.asarray(space.metric[:, 0], dtype=float)
        h = build_subbasic_bump(fam, 0, f, eps=0.5).values
        expect = np.minimum(np.abs(f - f[0]) / 0.5, 1.0)
        assert np.allclose(h, expect)
        assert h[0] == 0.0

    def test_outside_neighborhood_is_one(self):
        fam = FunctionFamily.full(PointSpace.grid([0.0, 1.0, 5.0]))
        f = np.array([0.0, 1.0, 5.0])
        h = build_subbasic_bump(fam, 0, f, eps=1.0).values
        assert h[0] == 0.0
        assert h[1] == 1.0  # |f - f(x0)| = eps exactly: already outside
        assert h[2] == 1.0

    def test_values_within_unit_interval(self):
        rng = np.random.default_rng(2)
        fam = FunctionFamily.full(PointSpace.discrete(6))
        f = rng.standard_normal(6)
        h = build_subbasic_bump(fam, 2, f, eps=0.7).values
        assert np.all(h >= 0.0) and np.all(h <= 1.0)
        assert h[2] == 0.0

    def test_exact_mode(self):
        fam = FunctionFamily.full(PointSpace.discrete(3), exact=True)
        f = np.array([Fraction(0), Fraction(1, 2), Fraction(2)], dtype=object)
        h = build_subbasic_bump(fam, 0, f, eps=Fraction(1)).values
        assert list(h) == [Fraction(0), Fraction(1, 2), Fraction(1)]

    def test_requires_span_membership(self):
        ts = np.array([0.0, 0.5, 1.0])
        fam = FunctionFamily(PointSpace.grid(list(ts)),
                             np.array([np.ones(3)]), names=("1",))
        with pytest.raises(ValueError, match="span"):
            build_subbasic_bump(fam, 0, ts, eps=1.0)

    def test_rejects_nonpositive_eps(self):
        fam = FunctionFamily.full(PointSpace.discrete(2))
        with pytest.raises(ValueError, match="eps"):
            build_subbasic_bump(fam, 0, np.array([0.0, 1.0]), eps=0.0)


class TestPreciseBump:
    def test_indicator_on_full_family(self):
        # separating the anchor from all other points yields its indicator
        fam = FunctionFamily.full(PointSpace.discrete(5))
        h = build_precise_bump(fam, 1, [0, 2, 3, 4]).values
        assert np.allclose(h, np.eye(5)[1])

    def test_partial_closed_set(self):
        fam = FunctionFamily.full(PointSpace.discrete(4))
        h = build_precise_bump(fam, 0, [2, 3]).values
        assert h[0] == 1.0
        assert h[2] == 0.0 and h[3] == 0.0
        assert np.all(h >= 0.0) and np.all(h <= 1.0)

    def test_empty_closed_set_gives_constant_one(self):
        fam = FunctionFamily.full(PointSpace.discrete(3))
        h = build_precise_bump(fam, 0, []).values
        assert np.allclose(h, 1.0)

    def test_anchor_in_closed_set_rejected(self):
        fam = FunctionFamily.full(PointSpace.discrete(3))
        with pytest.raises(ValueError, match="anchor"):
            build_precise_bump(fam, 1, [1, 2])

    def test_labels_accepted(self):
        fam = FunctionFamily.full(PointSpace.discrete(3))
        h = build_precise_bump(fam, "x1", ["x2", "x3"]).values
        assert np.allclose(h, [1.0, 0.0, 0.0])

    def test_exact_mode(self):
        fam = FunctionFamily.full(PointSpace.discrete(4), exact=True)
        h = build_precise_bump(fam, 2, [0, 3]).values
        assert h[2] == Fraction(1)
        assert h[0] == Fraction(0) and h[3] == Fraction(0)
        assert all(Fraction(0) <= x <= Fraction(1) for x in h)

    def test_lipschitz_family_bumps(self):
        for rng in spawn_generators(77, 4):
            space = random_metric_space(rng, max_points=7)
            fam = build_lipschitz_family(space)
            n = space.size
            for x0 in range(n):
                closed = [z for z in range(n) if z != x0]
                h = np.asarray(build_precise_bump(fam, x0, closed).values,
                               dtype=float)
                assert abs(h[x0] - 1.0) <= 1e-9
                assert np.max(np.abs(h[closed])) <= 1e-9

    def test_infeasible_separation_raises(self):
        # a constants-only family cannot separate two points
        fam = FunctionFamily(PointSpace.discrete(2), np.ones((1, 2)), names=("1",))
        with pytest.raises(SeparationInfeasibleError):
            build_precise_bump(fam, 0, [1])
