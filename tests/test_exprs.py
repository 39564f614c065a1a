"""Tests for the symbolic expression space, interval certification, and decay."""
import math
import sys
import time
import warnings
from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oiso.exprs import (
    MAX_NESTING,
    Clamp,
    Const,
    Ident,
    InconclusiveError,
    IntervalBox,
    LinComb,
    SinRamp,
    clamped_sin_ramp,
    decay_check,
    eval_expr,
    interval_eval,
    local_form,
    parse_sexpr,
    separation_witness,
    sin_ramp,
    to_sexpr,
)
from oiso.fuzz import random_analytic_expr, random_clamp_expr, random_interval, spawn_generators


class TestProfiles:
    def test_sin_ramp_fixed_points(self):
        assert sin_ramp(0.0) == 0.0
        assert sin_ramp(1.0) == 1.0
        assert sin_ramp(-1.0) == -1.0

    def test_sin_ramp_odd(self):
        ts = np.linspace(-1, 1, 41)
        assert np.allclose(sin_ramp(-ts), -sin_ramp(ts))

    def test_clamped_profile_saturates(self):
        assert clamped_sin_ramp(-0.5) == 0.0
        assert clamped_sin_ramp(0.0) == 0.0
        assert clamped_sin_ramp(1.0) == 1.0
        assert clamped_sin_ramp(3.7) == 1.0
        assert abs(clamped_sin_ramp(0.5) - math.sin(math.pi / 4)) < 1e-15

    def test_profiles_agree_strictly_inside(self):
        ts = np.linspace(0.01, 0.99, 99)
        assert np.allclose(clamped_sin_ramp(ts), sin_ramp(ts), rtol=0, atol=0)


class TestExprNodes:
    def test_eval_worked_values(self):
        assert eval_expr(Clamp(Ident()), 0.5) == pytest.approx(math.sin(math.pi / 4), abs=1e-15)
        assert eval_expr(Clamp(Ident()), 1.0) == 1.0
        assert eval_expr(Clamp(Ident()), -2.0) == 0.0
        assert eval_expr(SinRamp(Const(1.0)), 123.0) == 1.0
        assert eval_expr(LinComb((2.0, -1.0), (Ident(), Const(3.0))), 5.0) == 7.0

    def test_array_eval_matches_scalar(self):
        e = LinComb((1.0, 0.25), (Clamp(Ident()), Const(2.0)))
        ts = np.linspace(-1, 2, 31)
        arr = eval_expr(e, ts)
        scalars = np.array([eval_expr(e, float(t)) for t in ts])
        assert np.array_equal(arr, scalars)

    def test_clamp_and_ramp_do_not_mix(self):
        with pytest.raises(ValueError):
            Clamp(SinRamp(Ident()))
        with pytest.raises(ValueError):
            SinRamp(Clamp(Ident()))
        with pytest.raises(ValueError):
            LinComb((1.0, 1.0), (Clamp(Ident()), SinRamp(Ident())))

    def test_nesting_within_one_side_is_allowed(self):
        assert Clamp(Clamp(Ident())).level == 3
        assert SinRamp(SinRamp(Ident())).level == 3

    def test_levels(self):
        assert Const(2.0).level == 1
        assert Ident().level == 1
        assert Clamp(Ident()).level == 2
        assert LinComb((1.0, 1.0), (Ident(), Clamp(Clamp(Ident())))).level == 3

    def test_lincomb_validation(self):
        with pytest.raises(ValueError):
            LinComb((1.0,), ())
        with pytest.raises(ValueError):
            LinComb((1.0, 2.0), (Ident(),))
        with pytest.raises(TypeError):
            LinComb((1.0,), ("t",))

    def test_analytic_flag(self):
        assert Ident().is_analytic
        assert SinRamp(Ident()).is_analytic
        assert not Clamp(Ident()).is_analytic


_FLOATS = st.floats(-1e3, 1e3, allow_nan=False)
_AFFINE = st.recursive(
    st.one_of(st.builds(Const, _FLOATS), st.just(Ident())),
    lambda kids: st.lists(st.tuples(_FLOATS, kids), min_size=1, max_size=4).map(
        lambda terms: LinComb(tuple(c for c, _ in terms), tuple(k for _, k in terms))),
    max_leaves=12)


def _exact_value(e, t: Fraction) -> Fraction:
    """The real value of a Const/Ident/LinComb tree at t, in rationals."""
    if isinstance(e, Const):
        return Fraction(e.value)
    if isinstance(e, Ident):
        return t
    return sum((Fraction(c) * _exact_value(ch, t) for c, ch in zip(e.coeffs, e.children)),
               Fraction(0))


_ENDS = st.floats(-2.0, 2.0)
_KINDS = {"clamp": random_clamp_expr, "analytic": random_analytic_expr,
          "clamp of t": lambda rng, level: Clamp(Ident()),
          "ramp of t": lambda rng, level: SinRamp(Ident())}


def _mp_value(e, t: float):
    """The real value of e at t, in mpmath at its working precision."""
    if isinstance(e, Const):
        return mpmath.mpf(e.value)
    if isinstance(e, Ident):
        return mpmath.mpf(t)
    if isinstance(e, LinComb):
        return mpmath.fsum(mpmath.mpf(c) * _mp_value(ch, t)
                           for c, ch in zip(e.coeffs, e.children))
    v = _mp_value(e.child, t)
    if isinstance(e, Clamp) and not 0 < v < 1:
        return mpmath.mpf(0 if v <= 0 else 1)
    return mpmath.sin(mpmath.pi * v / 2)


class TestIntervalEval:
    def test_identity_passthrough(self):
        box = IntervalBox(0.125, 0.5)
        assert interval_eval(Ident(), box) == box

    def test_clamp_saturated_below(self):
        env = interval_eval(Clamp(Ident()), IntervalBox(-2.0, -1.0))
        assert (env.lo, env.hi) == (0.0, 0.0)

    def test_clamp_saturated_above(self):
        env = interval_eval(Clamp(Ident()), IntervalBox(2.0, 3.0))
        assert (env.lo, env.hi) == (1.0, 1.0)

    def test_clamp_monotone_inside(self):
        env = interval_eval(Clamp(Ident()), IntervalBox(0.25, 0.5))
        assert env.lo <= math.sin(math.pi / 8) <= math.sin(math.pi / 4) <= env.hi
        assert env.hi - env.lo < 0.5
        assert 0.0 <= env.lo and env.hi <= 1.0

    def test_ramp_global_fallback_outside_window(self):
        env = interval_eval(SinRamp(Ident()), IntervalBox(0.0, 2.0))
        assert (env.lo, env.hi) == (-1.0, 1.0)

    def test_lincomb_is_dependency_blind(self):
        # t - t has true range {0}; the enclosure is the full difference box
        e = LinComb((1.0, -1.0), (Ident(), Ident()))
        env = interval_eval(e, IntervalBox(0.0, 1.0))
        assert env.lo <= -1.0 + 1e-9 and env.hi >= 1.0 - 1e-9
        assert env.contains(0.0)

    def test_enclosure_soundness_on_random_expressions(self):
        for rng in spawn_generators(13, 30):
            e = (random_clamp_expr(rng) if rng.random() < 0.5
                 else random_analytic_expr(rng))
            box = random_interval(rng)
            env = interval_eval(e, box)
            vals = eval_expr(e, box.sample(33))
            assert np.all(vals >= env.lo - 1e-12)
            assert np.all(vals <= env.hi + 1e-12)

    def test_lincomb_point_box_encloses_exact_value(self):
        # 0.1 + 0.2 - 0.3 rounds to 5.55e-17; the exact sum of the three
        # doubles is 2.78e-17, so a point result misses it
        t = Ident()
        env = interval_eval(LinComb((0.1, 0.2, -0.3), (t, t, t)), IntervalBox(0.7, 0.7))
        exact = (Fraction(0.1) + Fraction(0.2) - Fraction(0.3)) * Fraction(0.7)
        assert Fraction(env.lo) <= exact <= Fraction(env.hi)

    @settings(max_examples=200, deadline=None)
    @given(e=_AFFINE, ends=st.tuples(_FLOATS, _FLOATS), point=st.booleans())
    @example(e=LinComb((0.1, 0.2, -0.3), (Ident(), Ident(), Ident())), ends=(0.7, 0.7),
             point=True)
    def test_affine_enclosure_contains_exact_value(self, e, ends, point):
        lo, hi = sorted(ends)
        if point:
            hi = lo
        env = interval_eval(e, IntervalBox(lo, hi))
        # an affine expression's range over the box lies between its end values
        for t in (lo, hi):
            assert Fraction(env.lo) <= _exact_value(e, Fraction(t)) <= Fraction(env.hi)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(_KINDS)),
           level=st.integers(1, 4),
           ends=st.one_of(st.none(), st.tuples(_ENDS, _ENDS), _ENDS.map(lambda t: (t, t))),
           fractions=st.lists(st.floats(0.0, 1.0), max_size=6))
    def test_enclosure_contains_the_50_digit_value(self, seed, kind, level, ends, fractions):
        # no slack: each point value, to 50 digits, lies in the float
        # enclosure, which covers the sine branches of Clamp and SinRamp and
        # the outward rounding of LinComb; a ramp of t itself shows its own
        # rounding, which a widened LinComb argument would hide
        rng = np.random.default_rng(seed)
        e = _KINDS[kind](rng, level)
        box = random_interval(rng) if ends is None else IntervalBox(*sorted(ends))
        env = interval_eval(e, box)
        points = [box.lo, box.hi] + [box.lo + f * box.width for f in fractions]
        with mpmath.workdps(50):
            for t in points:
                v = _mp_value(e, min(max(t, box.lo), box.hi))
                assert env.lo <= v <= env.hi

    def test_halves_and_sample(self):
        box = IntervalBox(0.0, 1.0)
        left, right = box.halves()
        assert (left.lo, left.hi, right.lo, right.hi) == (0.0, 0.5, 0.5, 1.0)
        assert np.array_equal(box.sample(3), [0.0, 0.5, 1.0])

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            IntervalBox(1.0, 0.0)
        with pytest.raises(ValueError):
            IntervalBox(0.0, math.inf)


class TestSeparationWitness:
    def test_endpoint_values_exact(self):
        w = separation_witness(0.25, 0.5)
        assert eval_expr(w, 0.25) == 0.0
        assert eval_expr(w, 0.5) == 1.0
        assert eval_expr(w, 0.0) == 0.0
        assert eval_expr(w, 1.0) == 1.0

    def test_midpoint_value(self):
        w = separation_witness(0.25, 0.5)
        assert eval_expr(w, 0.375) == pytest.approx(math.sin(math.pi / 4), abs=1e-15)

    def test_strictly_between_inside(self):
        w = separation_witness(0.1, 0.9)
        ts = np.linspace(0.15, 0.85, 20)
        vals = eval_expr(w, ts)
        assert np.all(vals > 0.0) and np.all(vals < 1.0)
        assert np.all(np.diff(vals) > 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            separation_witness(0.5, 0.5)
        with pytest.raises(ValueError):
            separation_witness(-0.1, 0.5)
        with pytest.raises(ValueError):
            separation_witness(0.2, 1.1)


class TestLocalForm:
    def test_clamp_inside_resolves_on_whole_interval(self):
        lf = local_form(Clamp(Ident()), IntervalBox(0.25, 0.75))
        assert lf.expr == SinRamp(Ident())
        assert (lf.interval.lo, lf.interval.hi) == (0.25, 0.75)
        assert lf.residual <= 1e-10

    def test_saturated_clamp_is_constant(self):
        lf0 = local_form(Clamp(Const(-0.5)), IntervalBox(0.0, 1.0))
        assert lf0.expr == Const(0.0)
        lf1 = local_form(Clamp(Const(2.0)), IntervalBox(0.0, 1.0))
        assert lf1.expr == Const(1.0)

    def test_straddling_argument_bisects(self):
        # clamp(2t - 1) switches case at t = 1/2; some certified half exists
        f = Clamp(LinComb((-1.0, 2.0), (Const(1.0), Ident())))
        lf = local_form(f, IntervalBox(0.0, 1.0))
        assert lf.expr.is_analytic
        assert lf.interval.width > 0
        assert lf.residual <= 1e-10

    def test_grazing_endpoint_certifies_near_the_floor(self):
        # clamp(2t) on [0, 1]: the argument grazes 0 at the left endpoint, so
        # bisection dives to the width floor and the right-half fallback
        # certifies a tiny strictly-inside interval
        f = Clamp(LinComb((2.0,), (Ident(),)))
        lf = local_form(f, IntervalBox(0.0, 1.0))
        assert lf.interval.lo > 0.0
        assert lf.interval.width >= 1e-12
        assert lf.interval.hi < 1e-9
        assert lf.expr.is_analytic
        assert lf.residual <= 1e-10

    def test_nested_clamps_resolve_recursively(self):
        inner = LinComb((0.5, 0.5), (Const(1.0), Clamp(Ident())))
        lf = local_form(Clamp(inner), IntervalBox(0.25, 0.75))
        assert lf.expr == SinRamp(LinComb((0.5, 0.5), (Const(1.0), SinRamp(Ident()))))
        assert lf.residual <= 1e-10

    def test_depth_cap_raises_inconclusive(self):
        f = Clamp(LinComb((-1.0, 2.0), (Const(1.0), Ident())))
        with pytest.raises(InconclusiveError):
            local_form(f, IntervalBox(0.0, 1.0), depth_cap=0)

    @pytest.mark.parametrize("depth_cap", [12, 16])
    def test_clamp_no_box_settles_is_inconclusive_at_once(self, depth_cap):
        # t - t encloses to [lo - hi, hi - lo] on every box, which straddles 0:
        # a search that tries every box to the depth cap tests ~2^depth_cap
        # (23 s at 16; the default cap of 40 is run by the CLI test, in a
        # subprocess with a timeout)
        f = Clamp(LinComb((1.0, -1.0), (Ident(), Ident())))
        start = time.perf_counter()
        with pytest.raises(InconclusiveError) as info:
            local_form(f, IntervalBox(0.1, 0.2), depth_cap=depth_cap)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == f"cannot certify saturation case in {2 * depth_cap} bisections"

    def test_analytic_input_is_returned_unchanged(self):
        e = LinComb((1.0, 0.3), (Ident(), SinRamp(Ident())))
        lf = local_form(e, IntervalBox(0.0, 1.0))
        assert lf.expr == e
        assert (lf.interval.lo, lf.interval.hi) == (0.0, 1.0)

    def test_random_clamp_expressions_certify(self):
        certified = 0
        for rng in spawn_generators(321, 40):
            e = random_clamp_expr(rng)
            box = random_interval(rng)
            try:
                lf = local_form(e, box)
            except InconclusiveError:
                continue
            certified += 1
            assert lf.expr.is_analytic
            assert box.lo <= lf.interval.lo <= lf.interval.hi <= box.hi
            assert lf.residual <= 1e-10
            ts = lf.interval.sample(16)
            assert np.max(np.abs(eval_expr(e, ts) - eval_expr(lf.expr, ts))) <= 1e-10
        assert certified >= 30  # the generator rarely defeats bisection


class TestDecayCheck:
    def test_sub_unit_slope_passes(self):
        assert decay_check(LinComb((0.5,), (Ident(),)))

    def test_bounded_plus_slope_passes(self):
        assert decay_check(LinComb((5.0, 0.5), (Const(1.0), Ident())))
        assert decay_check(LinComb((0.5, 0.4), (Ident(), SinRamp(Ident()))))

    def test_constant_passes(self):
        assert decay_check(Const(5.0))

    def test_steep_slope_fails(self):
        assert not decay_check(LinComb((2.0,), (Ident(),)))

    def test_unit_slope_sits_on_the_threshold(self):
        # |t| / t^2 = 1/t equals the threshold exactly at t_max = 1e6
        assert not decay_check(Ident())
        assert decay_check(Ident(), t_max=1e7)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            decay_check(Ident(), t_max=50)
        with pytest.raises(ValueError):
            decay_check(Ident(), grid=8)

    @pytest.mark.parametrize("t_max", [math.inf, -math.inf, math.nan, 1e200,
                                       math.nextafter(math.sqrt(sys.float_info.max), math.inf)],
                             ids=["inf", "-inf", "nan", "1e200", "past-sqrt-max"])
    def test_t_max_without_a_finite_square_refused_before_the_grid(self, monkeypatch, t_max):
        monkeypatch.setattr(np, "logspace", None)  # the grid is never built
        with pytest.raises(ValueError, match="t_max must be finite with a finite square"):
            decay_check(Ident(), t_max=t_max)

    def test_largest_t_max_squares_no_grid_point_past_it(self):
        # logspace may end past t_max (3e6 gives 3000000.000000001); at the
        # largest t_max allowed, that would overflow the last square
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert decay_check(Ident(), t_max=math.sqrt(sys.float_info.max), grid=4000)

    def test_grid_too_coarse_for_the_decades(self):
        # 16 points over 150 decades leave the last two decades holding one
        with pytest.raises(ValueError, match="grid too coarse for a decade comparison"):
            decay_check(Ident(), t_max=1e150, grid=16)


def _index_reader(text: str):
    """The reader `parse_sexpr` replaced, kept as its reference: the same
    tokens read by a position index, every missing token caught as an
    IndexError."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if max(accumulate((tok == "(") - (tok == ")") for tok in tokens), default=0) > MAX_NESTING:
        raise ValueError(f"expression nested deeper than {MAX_NESTING} parentheses")
    pos = 0

    def read():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            head = tokens[pos]
            pos += 1
            if head == "const":
                val = float(tokens[pos]); pos += 1
                node = Const(val)
            elif head == "clamp":
                node = Clamp(read())
            elif head == "sinramp":
                node = SinRamp(read())
            elif head == "lin":
                if tokens[pos] != "(":
                    raise ValueError("lin expects a coefficient list")
                pos += 1
                coeffs = []
                while tokens[pos] != ")":
                    coeffs.append(float(tokens[pos])); pos += 1
                pos += 1
                if tokens[pos] != "(":
                    raise ValueError("lin expects a child list")
                pos += 1
                children = []
                while tokens[pos] != ")":
                    children.append(read())
                pos += 1
                node = LinComb(tuple(coeffs), tuple(children))
            else:
                raise ValueError(f"unknown form {head!r}")
            if tokens[pos] != ")":
                raise ValueError("missing closing parenthesis")
            pos += 1
            return node
        if tok == "t":
            return Ident()
        raise ValueError(f"unexpected token {tok!r}")

    try:
        node = read()
    except IndexError:
        raise ValueError("unexpected end of expression") from None
    if pos != len(tokens):
        raise ValueError("trailing tokens after expression")
    return node


_NUMBERS = st.sampled_from(["0", "-1.5", "2e3", "0.25", "nan", "-inf", "1e999", "1_0", "-0.0"])
_JUNK = ["(", ")", "t", "const", "clamp", "sinramp", "lin", "x", "1", "()", ")("]
_WELL_FORMED = st.recursive(
    st.one_of(st.just(["t"]), _NUMBERS.map(lambda c: ["(", "const", c, ")"])),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["clamp", "sinramp"]), kids).map(
            lambda p: ["(", p[0], *p[1], ")"]),
        st.lists(st.tuples(_NUMBERS, kids), max_size=3).map(
            lambda terms: ["(", "lin", "(", *(c for c, _ in terms), ")",
                           "(", *(tok for _, kid in terms for tok in kid), ")", ")"])),
    max_leaves=8)


@st.composite
def _mutated(draw):
    """A well-formed token list with up to three tokens inserted, deleted or
    replaced."""
    tokens = list(draw(_WELL_FORMED))  # st.just hands out one list
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        junk = draw(st.one_of(st.sampled_from(_JUNK), _NUMBERS))
        if edit == "insert":
            tokens.insert(i, junk)
        elif i < len(tokens):
            tokens[i:i + 1] = [junk] if edit == "replace" else []
    return " ".join(tokens)


class TestSexpr:
    def test_parse_worked_example(self):
        e = parse_sexpr("(clamp (lin (1.0 -2.0) ((const 1.0) t)))")
        assert e == Clamp(LinComb((1.0, -2.0), (Const(1.0), Ident())))

    def test_round_trip_fixed(self):
        e = LinComb((0.25, -1.5), (SinRamp(Ident()), Const(3.0)))
        assert parse_sexpr(to_sexpr(e)) == e

    def test_round_trip_random(self):
        for rng in spawn_generators(55, 20):
            e = (random_clamp_expr(rng) if rng.random() < 0.5
                 else random_analytic_expr(rng))
            assert parse_sexpr(to_sexpr(e)) == e

    def test_nesting_stops_at_two_hundred_parentheses(self):
        e = parse_sexpr("(sinramp " * 200 + "t" + ")" * 200)
        for _ in range(200):
            e = e.child
        assert e == Ident()
        for depth in (201, 2000):
            with pytest.raises(ValueError, match="nested deeper than 200 parentheses"):
                parse_sexpr("(sinramp " * depth + "t" + ")" * depth)

    def test_deep_nesting_refused_before_any_node(self, monkeypatch):
        monkeypatch.setattr("oiso.exprs.SinRamp", None)
        with pytest.raises(ValueError, match="nested deeper"):
            parse_sexpr("(sinramp " * 201 + "t" + ")" * 201)

    @pytest.mark.parametrize("text, message", [
        ("(foo t)", "unknown form 'foo'"),
        ("(clamp t t)", "missing closing parenthesis"),
        ("(clamp t", "missing closing parenthesis"),
        ("t t", "trailing tokens after expression"),
        ("t )", "trailing tokens after expression"),
        ("", "unexpected end of expression"),
        ("(clamp", "unexpected end of expression"),
        ("(", "unexpected end of expression"),
        ("(const", "const expects a number"),
        ("(const x)", "could not convert string to float: 'x'"),
        ("(lin 1.0 (t))", "lin expects a coefficient list"),
        ("(lin (1.0) t)", "lin expects a child list"),
        (")", "unexpected token '\\)'"),
        ("(clamp )", "unexpected token '\\)'"),
    ])
    def test_parse_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_sexpr(text)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.lists(st.sampled_from(_JUNK), max_size=16).map(" ".join), _mutated()))
    @example("")
    @example("(const 1 2)")
    @example("(lin (1) (t")
    @example("(lin (1 2")
    @example("(lin () ())")
    @example("(lin (1) x t))")
    @example("(sinramp (clamp t))")
    def test_reader_agrees_with_the_index_reader(self, text):
        # nan is unequal to itself, so the two results are compared as text
        try:
            expected = to_sexpr(_index_reader(text))
        except ValueError:
            with pytest.raises(ValueError):
                parse_sexpr(text)
        else:
            assert to_sexpr(parse_sexpr(text)) == expected
