"""Tests for boundary exploration and boundary-extended decompositions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oiso import compactify
from oiso.compactify import (
    MAX_SEQUENCE_TERMS,
    AmbiguousBoundaryError,
    CompactPoint,
    NonconvergentNetError,
    SampledSpace,
    SequenceSpec,
    WeightedCompositionSpec,
    compactified_decompose,
    compactify_value,
    embed,
    limit_points,
    uncompactify_value,
)
from oiso.recovery import NotOrderIsomorphismError
from oiso.symfn import SymFn, parse_symfn


class TestCoordinateMap:
    def test_worked_values(self):
        assert compactify_value(0.0) == 0.0
        assert compactify_value(1.0) == 0.5
        assert compactify_value(-1.0) == -0.5
        assert compactify_value(3.0) == 0.75
        assert compactify_value(math.inf) == 1.0
        assert compactify_value(-math.inf) == -1.0

    def test_uncompactify_worked_values(self):
        assert uncompactify_value(0.5) == 1.0
        assert uncompactify_value(-0.75) == -3.0
        assert uncompactify_value(1.0) == math.inf
        assert uncompactify_value(-1.0) == -math.inf

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-50, 50, size=100):
            assert uncompactify_value(compactify_value(float(x))) == pytest.approx(
                float(x), rel=1e-12, abs=1e-12)

    def test_monotone(self):
        xs = np.sort(np.random.default_rng(1).uniform(-100, 100, 50))
        us = [compactify_value(float(x)) for x in xs]
        assert all(a < b for a, b in zip(us, us[1:]))
        assert all(-1.0 < u < 1.0 for u in us)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compactify_value(math.nan)
        with pytest.raises(ValueError):
            uncompactify_value(1.5)


class TestCompactPoint:
    def test_distance_is_max_compactified_gap(self):
        a = CompactPoint((0.0, math.inf), "added")
        b = CompactPoint((0.0, 0.0), "interior")
        assert a.distance(b) == 1.0
        c = CompactPoint((1.0, math.inf), "added")
        assert a.distance(c) == 0.5

    def test_compact_coords(self):
        p = CompactPoint((3.0, -math.inf), "added")
        assert p.compact_coords == (0.75, -1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CompactPoint((math.nan,), "added")
        with pytest.raises(ValueError):
            CompactPoint((0.0,), "edge")
        with pytest.raises(ValueError):
            CompactPoint((0.0,), "added").distance(CompactPoint((0.0, 1.0), "added"))


class TestSampledSpace:
    def test_point_space_labels(self):
        sp = SampledSpace((0.25, 0.5), ("t",), name="X")
        assert sp.point_space().labels == ("x0", "x1")

    def test_generators_parsed(self):
        sp = SampledSpace((0.5,), ("2*t", "sin(pi*t)"))
        assert sp.generators[0](0.5) == 1.0

    def test_domain_bounds_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            SampledSpace((0.0,), ("t",), domain=(0.0, 1.0, True, False))
        sp = SampledSpace((0.5,), ("t",), domain=(0.0, 1.0, True, True))
        assert sp.domain == (0.0, 1.0, True, True)

    def test_requires_samples_and_generators(self):
        with pytest.raises(ValueError):
            SampledSpace((), ("t",))
        with pytest.raises(ValueError):
            SampledSpace((0.5,), ())


class TestSequenceSpec:
    def test_rule_prefix(self):
        seq = SequenceSpec(name="s", n=16, rule="1/k")
        pre = seq.prefix()
        assert pre.shape == (16,)
        assert pre[0] == 1.0
        assert pre[15] == 1.0 / 16.0

    def test_points_prefix_truncates(self):
        seq = SequenceSpec(name="s", n=16, points=tuple(np.linspace(1, 0.01, 32)))
        assert seq.prefix().shape == (16,)

    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            SequenceSpec(name="s", n=16)
        with pytest.raises(ValueError):
            SequenceSpec(name="s", n=16, rule="1/k", points=(1.0,) * 16)

    def test_minimum_prefix_length(self):
        with pytest.raises(ValueError, match="prefix"):
            SequenceSpec(name="s", n=8, rule="1/k")
        with pytest.raises(ValueError, match="shorter"):
            SequenceSpec(name="s", n=16, points=(1.0,) * 8).prefix()

    def test_maximum_prefix_length(self):
        # refused on construction, before any prefix array is built
        assert SequenceSpec(name="s", n=MAX_SEQUENCE_TERMS, rule="1/k").n == 10**7
        with pytest.raises(ValueError, match="'s': prefix longer than 10000000 terms"):
            SequenceSpec(name="s", n=10**12, rule="1/k")


class TestEmbed:
    def test_interior_points(self):
        pts = embed([0.25, 0.5], ["t", "2*t"], name="X")
        assert [p.label for p in pts] == ["x0", "x1"]
        assert pts[0].coords == (0.25, 0.5)
        assert all(p.origin == "interior" for p in pts)

    def test_nan_coordinate_rejected(self):
        # sin(1/t) at t = 0 is sin(inf) = nan
        with pytest.raises(ValueError, match="undefined"):
            embed([0.0], ["sin(1/t)"])


class TestLimitPoints:
    def test_half_open_interval_single_boundary_point(self):
        # (0, 1] with the identity coordinate: 1/k adds the point at 0
        samples = [(i + 0.5) / 8 for i in range(8)]
        interior = embed(samples, ["t"])
        seqs = [SequenceSpec(name="to0", n=10_000, rule="1/k")]
        added = limit_points(seqs, ["t"], interior=interior)
        assert len(added) == 1
        assert added[0].label == "to0"
        assert abs(added[0].coords[0]) <= 1e-6

    def test_oscillatory_second_coordinate_separates_two_points(self):
        # along 1/(pi k) the sine coordinate settles at 0; along
        # 1/(2 pi k + pi/2) it settles at 1: two distinct boundary points
        samples = [(i + 0.5) / 8 for i in range(8)]
        gens = ["t", "sin(1/t)"]
        interior = embed(samples, gens)
        seqs = [
            SequenceSpec(name="zeros", n=10_000, rule="1/(pi*k)"),
            SequenceSpec(name="ones", n=10_000, rule="1/(2*pi*k + pi/2)"),
        ]
        added = limit_points(seqs, gens, interior=interior)
        assert len(added) == 2
        by_label = {p.label: p for p in added}
        assert abs(by_label["zeros"].coords[0]) <= 1e-6
        assert abs(by_label["zeros"].coords[1] - 0.0) <= 1e-6
        assert abs(by_label["ones"].coords[0]) <= 1e-6
        assert abs(by_label["ones"].coords[1] - 1.0) <= 1e-6

    def test_interior_rediscovery_adds_nothing(self):
        samples = [0.25, 0.5, 0.75]
        interior = embed(samples, ["t"])
        seqs = [SequenceSpec(name="settle", n=64, points=(0.5,) * 64)]
        assert limit_points(seqs, ["t"], interior=interior) == []

    def test_duplicate_candidates_collapse_to_the_earliest(self):
        samples = [0.25, 0.5, 0.75]
        interior = embed(samples, ["t"])
        seqs = [
            SequenceSpec(name="first", n=4096, rule="1/k"),
            SequenceSpec(name="second", n=4096, rule="1/(k+5)"),
        ]
        added = limit_points(seqs, ["t"], interior=interior)
        assert [p.label for p in added] == ["first"]

    def test_divergent_coordinate_snaps_to_infinity(self):
        samples = [1.0, 2.0, 3.0]
        interior = embed(samples, ["t"])
        seqs = [SequenceSpec(name="up", n=10_000, rule="k*k")]
        added = limit_points(seqs, ["t"], interior=interior)
        assert len(added) == 1
        assert added[0].coords == (math.inf,)

    def test_oscillation_raises_nonconvergent(self):
        # sin(1/t) along 1/k oscillates as sin(k): no settled coordinate
        seqs = [SequenceSpec(name="osc", n=4096, rule="1/k")]
        with pytest.raises(NonconvergentNetError) as exc:
            limit_points(seqs, ["t", "sin(1/t)"], interior=())
        assert exc.value.seq_name == "osc"
        assert exc.value.generator == "sin(1/t)"
        assert exc.value.variation > 1e-3

    def test_geometric_tail_is_exact(self):
        # 0.3 + 0.5 * 0.99^k settles to 0.3; the compactified tail window is
        # constant at this precision, so the limit is read off exactly
        ks = np.arange(1, 10_001)
        pts = 0.3 + 0.5 * 0.99 ** ks
        seqs = [SequenceSpec(name="geo", n=10_000, points=tuple(pts))]
        added = limit_points(seqs, ["t"], interior=())
        assert len(added) == 1
        assert added[0].coords[0] == pytest.approx(0.3, abs=1e-12)


def _swap_setup(weight_text="1", n=4096):
    samples = tuple((i + 0.5) / 8 for i in range(8))
    x_space = SampledSpace(samples, ("t",), name="X", domain=(0.0, 1.0, True, True))
    y_space = SampledSpace(samples, ("t",), name="Y", domain=(0.0, 1.0, True, True))
    seqs_x = [
        SequenceSpec(name="x-to0", n=n, rule="1/(k+1)"),
        SequenceSpec(name="x-to1", n=n, rule="1 - 1/(k+1)"),
    ]
    seqs_y = [
        SequenceSpec(name="y-to0", n=n, rule="1/(k+1)"),
        SequenceSpec(name="y-to1", n=n, rule="1 - 1/(k+1)"),
    ]
    op = WeightedCompositionSpec(pullback="1 - t", weight=weight_text)
    return op, x_space, y_space, seqs_x, seqs_y


class TestWeightedCompositionSpec:
    def test_matrix_on_samples(self):
        op, x_space, y_space, _, _ = _swap_setup()
        m = op.matrix_on(x_space, y_space)
        assert np.array_equal(m, np.fliplr(np.eye(8)))

    def test_pullback_off_the_sample_grid_rejected(self):
        x_space = SampledSpace((0.25, 0.75), ("t",))
        y_space = SampledSpace((0.25, 0.75), ("t",))
        op = WeightedCompositionSpec(pullback="t/2", weight="1")
        with pytest.raises(ValueError, match="not a domain sample"):
            op.matrix_on(x_space, y_space)

    def test_image_values(self):
        op = WeightedCompositionSpec(pullback="1 - t", weight="2")
        ys = np.array([0.25, 0.5])
        out = op.image_values(parse_symfn("t"), ys)
        assert np.allclose(out, [1.5, 1.0])

    def test_one_values_is_the_weight(self):
        op = WeightedCompositionSpec(pullback="1 - t", weight="1 + t")
        ys = np.array([0.0, 0.5])
        assert np.allclose(op.one_values(ys), [1.0, 1.5])


class TestCompactifiedDecompose:
    def test_swap_matches_opposite_boundary_points(self):
        op, x_space, y_space, seqs_x, seqs_y = _swap_setup()
        bd = compactified_decompose(op, x_space, y_space, seqs_x, seqs_y)
        assert bd.added_matching == (("y-to0", "x-to1"), ("y-to1", "x-to0"))
        assert bd.residual_interior == 0.0
        assert bd.residual_added <= 1e-6
        assert bd.added_weights == (1.0, 1.0)
        assert bd.bounded_screen["passed"]
        assert bd.bounded_screen["c"] == 1.0
        # interior bijection reverses the sample order
        assert bd.interior.sigma == tuple(range(7, -1, -1))
        assert bd.interior_labels[0] == ("y0", "x7")

    def test_constant_weight_is_reported_on_added_points(self):
        op, x_space, y_space, seqs_x, seqs_y = _swap_setup(weight_text="2")
        bd = compactified_decompose(op, x_space, y_space, seqs_x, seqs_y)
        assert bd.added_weights == pytest.approx((2.0, 2.0), rel=1e-12)
        assert bd.bounded_screen["c"] == 0.5
        assert np.allclose(np.asarray(bd.interior.weight, dtype=float), 2.0)

    def test_negative_weight_rejected(self):
        op, x_space, y_space, seqs_x, seqs_y = _swap_setup(weight_text="-1")
        with pytest.raises(NotOrderIsomorphismError):
            compactified_decompose(op, x_space, y_space, seqs_x, seqs_y)

    def test_no_domain_candidates_is_ambiguous(self):
        op, x_space, y_space, _, seqs_y = _swap_setup()
        with pytest.raises(AmbiguousBoundaryError, match="no added domain"):
            compactified_decompose(op, x_space, y_space, [], seqs_y)

    def test_each_sequence_prefix_is_evaluated_once(self, monkeypatch):
        calls = []
        prefix = SequenceSpec.prefix

        def counted(seq):
            calls.append(seq.name)
            return prefix(seq)

        monkeypatch.setattr(SequenceSpec, "prefix", counted)
        op, x_space, y_space, seqs_x, seqs_y = _swap_setup()
        bd = compactified_decompose(op, x_space, y_space, seqs_x, seqs_y)
        assert bd.added_matching == (("y-to0", "x-to1"), ("y-to1", "x-to0"))
        assert sorted(calls) == sorted(s.name for s in seqs_x + seqs_y)

    def test_identity_without_sequences(self):
        samples = tuple((i + 0.5) / 4 for i in range(4))
        x_space = SampledSpace(samples, ("t",), name="X")
        y_space = SampledSpace(samples, ("t",), name="Y")
        op = WeightedCompositionSpec(pullback="t", weight="1")
        bd = compactified_decompose(op, x_space, y_space, [], [])
        assert bd.added_matching == ()
        assert bd.added_domain == () and bd.added_codomain == ()
        assert bd.residual_added == 0.0
        assert bd.interior.sigma == (0, 1, 2, 3)


class TestDeclaredInterval:
    def test_first_term_outside_is_named(self):
        seqs = [SequenceSpec(name="in", n=4096, rule="1/k"),
                SequenceSpec(name="out", n=4096, rule="1/(k - 3)")]
        with pytest.raises(ValueError) as exc:
            limit_points(seqs, ["t"], domain=(0.0, 1.0, True, False))
        # k = 1, 2 give -1/2 and -1: the first term outside is k = 1
        assert str(exc.value) == (
            "sequence 'out': term k=1 (-0.5) is outside the declared interval")

    def test_open_and_closed_ends(self):
        pts = tuple(1.0 / k for k in range(1, 4097))
        seqs = [SequenceSpec(name="from1", n=4096, points=pts)]
        assert len(limit_points(seqs, ["t"], domain=(0.0, 1.0, True, False))) == 1
        with pytest.raises(ValueError, match="term k=1 "):
            limit_points(seqs, ["t"], domain=(0.0, 1.0, True, True))

    def test_nan_term_is_left_to_the_nan_check(self):
        seqs = [SequenceSpec(name="nan", n=64, rule="1/k + 0/0")]
        with pytest.raises(NonconvergentNetError) as exc:
            limit_points(seqs, ["t"], domain=(0.0, 1.0, True, False))
        assert exc.value.variation == math.inf

    def test_compactified_decompose_checks_both_spaces(self):
        op, x_space, y_space, seqs_x, seqs_y = _swap_setup()
        bad = [SequenceSpec(name="up", n=64, rule="1 + 1/k")]
        with pytest.raises(ValueError, match="'up': term k=1 "):
            compactified_decompose(op, x_space, y_space, bad, seqs_y)
        with pytest.raises(ValueError, match="'up': term k=1 "):
            compactified_decompose(op, x_space, y_space, seqs_x, bad)


# The sequence path as it read whole prefixes: every value compactified,
# screened and fitted coordinate by coordinate, the fit's 128 terms picked
# through np.unique. The tail-window path must match it bit for bit.
def _whole_prefix_compactify(vals):
    vals = np.asarray(vals, dtype=float)
    out = np.empty_like(vals)
    finite = np.isfinite(vals)
    out[finite] = vals[finite] / (1.0 + np.abs(vals[finite]))
    out[~finite] = np.sign(vals[~finite])
    return out


def _whole_prefix_screen(comp, conv_tol, seq_name, coord_name):
    k = max(8, int(math.ceil(0.25 * comp.shape[0])))
    tail = comp[-k:]
    variation = float(np.max(tail) - np.min(tail))
    if variation > conv_tol:
        raise NonconvergentNetError(seq_name, coord_name, variation, conv_tol)


def _whole_prefix_limit(comp):
    n = comp.shape[0]
    kcount = max(8, int(math.ceil(0.25 * n)))
    idx = np.arange(n - kcount, n)
    k = idx + 1.0
    x = np.asarray(comp[idx], dtype=float)
    if x.shape[0] > 128:
        sel = np.unique(np.linspace(0, x.shape[0] - 1, 128).round().astype(int))
        x, k = x[sel], k[sel]
    if np.max(x) - np.min(x) == 0.0:
        return float(x[-1])
    u = 1.0 / k
    center = u.mean()
    halfwidth = float(np.max(np.abs(u - center)))
    s = (u - center) / halfwidth
    deg = min(3, x.shape[0] - 1)
    coeffs = np.polynomial.polynomial.polyfit(s, x, deg)
    limit = np.polynomial.polynomial.polyval(-center / halfwidth, coeffs)
    return float(np.clip(limit, -1.0, 1.0))


def _whole_prefix_coords(seq_name, columns, conv_tol):
    coords = []
    for text, vals in columns:
        if np.any(np.isnan(vals)):
            raise NonconvergentNetError(seq_name, text, math.inf, conv_tol)
        comp = _whole_prefix_compactify(vals)
        _whole_prefix_screen(comp, conv_tol, seq_name, text)
        coords.append(_whole_prefix_limit(comp))
    return tuple(coords)


def _outcome(fn):
    """Coordinates as float bits, or the rejection's sequence, coordinate and
    variation bits."""
    try:
        return [c.hex() for c in fn()]
    except NonconvergentNetError as e:
        return (e.seq_name, e.generator, e.variation.hex())


@st.composite
def _prefix_columns(draw):
    n = draw(st.integers(16, 20_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.arange(1.0, n + 1.0)
    columns = []
    for j in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["algebraic", "constant", "oscillating", "geometric",
                                     "divergent"]))
        a, b, c = rng.uniform(-3.0, 3.0, size=3)
        if kind == "algebraic":
            vals = a + b / k + c / k**2
        elif kind == "constant":  # noise, then a constant tail
            vals = rng.normal(size=n)
            vals[int(rng.integers(n // 2, n)):] = a
        elif kind == "oscillating":  # amplitude on either side of the screen's tolerance
            vals = a + 10.0 ** rng.uniform(-6, 0) * np.sin(k * rng.uniform(0.1, 3.0))
        elif kind == "geometric":
            vals = a + b * rng.uniform(0.5, 0.999) ** k
        else:
            vals = np.sign(b) * k ** rng.uniform(0.5, 3.0)
        # a third of the columns get inf or nan, anywhere or inside the tail window
        specials = st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=3)
        for special in (draw(specials) if draw(st.integers(0, 2)) == 0 else []):
            lo = n - n // 4 if draw(st.booleans()) else 0
            vals[int(rng.integers(lo, n))] = special
        columns.append((f"c{j}", vals))
    return n, columns


@settings(max_examples=120, deadline=None)
@given(_prefix_columns(), st.sampled_from([compactify.CONVERGENCE_TOL, 0.5]))
def test_tail_window_path_matches_the_whole_prefix_path(drawn, conv_tol):
    n, columns = drawn
    gens = [SymFn(text=text, var="t", _fn=lambda x, v=vals: v) for text, vals in columns]
    seq = SequenceSpec(name="s", n=n, rule="k")
    got = _outcome(lambda: compactify._sequence_limit_coords(
        seq, np.arange(1.0, n + 1.0), gens, conv_tol))
    assert got == _outcome(lambda: _whole_prefix_coords("s", columns, conv_tol))


def test_only_the_tail_window_is_compactified_and_rejects_are_never_fitted(monkeypatch):
    sizes, fits = [], []
    real_compactify = compactify._compactify_array
    real_polyfit = np.polynomial.polynomial.polyfit
    monkeypatch.setattr(compactify, "_compactify_array",
                        lambda v: sizes.append(len(v)) or real_compactify(v))
    monkeypatch.setattr(np.polynomial.polynomial, "polyfit",
                        lambda *a: fits.append(1) or real_polyfit(*a))
    gens = ["t", "sin(1/t)"]
    added = limit_points([SequenceSpec(name="s", n=10_000, rule="1/(2*pi*k + 1)")], gens)
    assert len(added) == 1 and 0 < len(fits) <= 2
    assert sizes and max(sizes) <= 2500  # ceil(n/4)
    sizes.clear(), fits.clear()
    # t = 1/k settles and is screened first; sin(1/t) = sin(k) fails the screen
    with pytest.raises(NonconvergentNetError):
        limit_points([SequenceSpec(name="osc", n=10_000, rule="1/k")], gens)
    assert fits == [] and max(sizes) <= 2500


# embed and WeightedCompositionSpec.matrix_on as they evaluated one sample at
# a time; the one-call-per-generator forms must match them.
def _per_sample_embed(samples, generators, name="X"):
    gens = [parse_symfn(g) for g in generators]
    pts = []
    for i, s in enumerate(samples):
        coords = []
        for g in gens:
            v = g(float(s))
            if math.isnan(v):
                raise ValueError(f"generator {g.text!r} undefined at sample {s}")
            coords.append(v)
        pts.append(([c.hex() for c in coords], f"{name.lower()}{i}"))
    return pts


def _per_sample_matrix(op, x_samples, y_samples, tol=1e-9):
    xs = np.asarray(x_samples, dtype=float)
    m = np.zeros((len(y_samples), len(x_samples)))
    for i, y in enumerate(y_samples):
        target = op.pullback(float(y))
        j = int(np.argmin(np.abs(xs - target)))
        if not abs(xs[j] - target) <= tol:  # a nan image is no domain sample
            raise ValueError(f"pullback image {target} of sample {y} is not a domain sample")
        m[i, j] = op.weight(float(y))
    return m.tobytes()


def _result_or_message(fn):
    try:
        return fn()
    except ValueError as e:
        return str(e)


_LEAF = st.sampled_from(["t", "0", "1", "2.5", "pi", "(t - 0.5)", "(1 - t)"])
_EXPR = st.recursive(_LEAF, lambda e: st.one_of(
    st.tuples(e, st.sampled_from("+-*/"), e).map(lambda x: f"({x[0]} {x[1]} {x[2]})"),
    e.map(lambda x: f"sin({x})"),
    e.map(lambda x: f"-{x}")), max_leaves=6)
_SAMPLES = st.one_of(
    st.integers(1, 9).map(lambda m: [(i + 0.5) / m for i in range(m)]),
    st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                       st.floats(-4.0, 4.0, allow_nan=False)), min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(_SAMPLES, st.lists(_EXPR, min_size=1, max_size=3))
def test_embed_matches_the_per_sample_reference(samples, generators):
    got = _result_or_message(lambda: [([c.hex() for c in p.coords], p.label)
                                      for p in embed(samples, generators)])
    assert got == _result_or_message(lambda: _per_sample_embed(samples, generators))


@settings(max_examples=150, deadline=None)
@given(_SAMPLES, st.one_of(st.sampled_from(["t", "1 - t", "t + 0", "0.5"]), _EXPR), _EXPR,
       st.booleans())
def test_matrix_on_matches_the_per_sample_reference(samples, pullback, weight, same):
    x_space = SampledSpace(samples, ("t",), name="X")
    y_space = x_space if same else SampledSpace(samples[::-1] + [0.5], ("t",), name="Y")
    op = WeightedCompositionSpec(pullback, weight)
    got = _result_or_message(lambda: op.matrix_on(x_space, y_space).tobytes())
    assert got == _result_or_message(
        lambda: _per_sample_matrix(op, x_space.samples, y_space.samples))
