"""Symbolic one-variable expressions for the clamp-closure example space.

Two nested hierarchies over span{1, t}: the clamped side composes with the
saturating sine ramp (0 below 0, sin(pi t / 2) on (0,1), 1 above 1) and the
analytic side composes with the plain sine ramp sin(pi t / 2). The two
profiles agree on [0,1], which is what the local-form certifier exploits: on a
small enough interval every clamped expression coincides with an analytic one,
found by interval-arithmetic bisection.

Note the clamp here is the sine-profile saturation, not the piecewise-linear
clamp of the adequacy module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Ident",
    "Clamp",
    "SinRamp",
    "LinComb",
    "sin_ramp",
    "clamped_sin_ramp",
    "eval_expr",
    "IntervalBox",
    "interval_eval",
    "separation_witness",
    "LocalForm",
    "local_form",
    "InconclusiveError",
    "decay_check",
    "DECAY_THRESHOLD",
    "parse_sexpr",
    "to_sexpr",
]

DECAY_THRESHOLD = 1e-6
MIN_INTERVAL_WIDTH = 1e-12
# Bisections one clamp's search may make, per unit of the depth cap: without
# a bound, a clamp no box settles has its search test about 2^depth_cap boxes.
BISECTIONS_PER_DEPTH = 2
MAX_NESTING = 200
# Samples of the certified interval on which local_form checks its result
CHECK_POINTS = 64


def sin_ramp(t):
    """sin(pi t / 2): odd, increasing on [-1, 1], fixes -1, 0, 1."""
    return np.sin(np.pi * np.asarray(t, dtype=float) / 2) if isinstance(
        t, np.ndarray) else math.sin(math.pi * t / 2)


def clamped_sin_ramp(t):
    """0 for t <= 0, sin(pi t / 2) on (0, 1), 1 for t >= 1."""
    if isinstance(t, np.ndarray):
        t = np.asarray(t, dtype=float)
        return np.where(t <= 0, 0.0, np.where(t >= 1, 1.0, np.sin(np.pi * t / 2)))
    if t <= 0:
        return 0.0
    if t >= 1:
        return 1.0
    return math.sin(math.pi * t / 2)


class Expr:
    """Base expression node; subclasses are frozen dataclasses."""

    __slots__ = ()

    @property
    def level(self) -> int:
        raise NotImplementedError

    @property
    def has_clamp(self) -> bool:
        raise NotImplementedError

    @property
    def has_sin_ramp(self) -> bool:
        raise NotImplementedError

    @property
    def is_analytic(self) -> bool:
        return not self.has_clamp


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

    level = property(lambda self: 1)
    has_clamp = property(lambda self: False)
    has_sin_ramp = property(lambda self: False)


@dataclass(frozen=True)
class Ident(Expr):
    level = property(lambda self: 1)
    has_clamp = property(lambda self: False)
    has_sin_ramp = property(lambda self: False)


@dataclass(frozen=True)
class Clamp(Expr):
    child: Expr

    def __post_init__(self):
        if self.child.has_sin_ramp:
            raise ValueError("clamped-side expressions cannot contain analytic ramps")

    level = property(lambda self: self.child.level + 1)
    has_clamp = property(lambda self: True)
    has_sin_ramp = property(lambda self: False)


@dataclass(frozen=True)
class SinRamp(Expr):
    child: Expr

    def __post_init__(self):
        if self.child.has_clamp:
            raise ValueError("analytic expressions cannot contain clamps")

    level = property(lambda self: self.child.level + 1)
    has_clamp = property(lambda self: False)
    has_sin_ramp = property(lambda self: True)


@dataclass(frozen=True)
class LinComb(Expr):
    coeffs: tuple
    children: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        children = tuple(self.children)
        if len(coeffs) != len(children) or not children:
            raise ValueError("one coefficient per child required, at least one child")
        if any(not isinstance(ch, Expr) for ch in children):
            raise TypeError("children must be expressions")
        if any(ch.has_clamp for ch in children) and any(ch.has_sin_ramp for ch in children):
            raise ValueError("cannot mix clamped and analytic children")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "children", children)

    level = property(lambda self: max(ch.level for ch in self.children))
    has_clamp = property(lambda self: any(ch.has_clamp for ch in self.children))
    has_sin_ramp = property(lambda self: any(ch.has_sin_ramp for ch in self.children))


def eval_expr(e: Expr, t):
    """Evaluate at a scalar or numpy array of points."""
    if isinstance(e, Const):
        if isinstance(t, np.ndarray):
            return np.full_like(np.asarray(t, dtype=float), e.value)
        return e.value
    if isinstance(e, Ident):
        return np.asarray(t, dtype=float) if isinstance(t, np.ndarray) else float(t)
    if isinstance(e, Clamp):
        return clamped_sin_ramp(eval_expr(e.child, t))
    if isinstance(e, SinRamp):
        return sin_ramp(eval_expr(e.child, t))
    if isinstance(e, LinComb):
        acc = None
        for c, ch in zip(e.coeffs, e.children):
            term = c * eval_expr(ch, t)
            acc = term if acc is None else acc + term
        return acc
    raise TypeError(f"not an expression: {e!r}")


def _down(x: float, steps: int = 4) -> float:
    for _ in range(steps):
        x = math.nextafter(x, -math.inf)
    return x


def _up(x: float, steps: int = 4) -> float:
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


@dataclass(frozen=True)
class IntervalBox:
    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def halves(self):
        m = self.midpoint
        return IntervalBox(self.lo, m), IntervalBox(m, self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def sample(self, count: int) -> np.ndarray:
        return np.linspace(self.lo, self.hi, count)


def interval_eval(e: Expr, box: IntervalBox) -> IntervalBox:
    """Sound enclosure of the range of e over the box.

    Monotone profiles are evaluated at the endpoints with outward widening for
    the float rounding; the analytic ramp falls back to its global range
    [-1, 1] when the child's box leaves the monotone window. A sum whose
    enclosure overflows the doubles has no finite box, and raises
    InconclusiveError.
    """
    if isinstance(e, Const):
        return IntervalBox(e.value, e.value)
    if isinstance(e, Ident):
        return box
    if isinstance(e, Clamp):
        inner = interval_eval(e.child, box)
        # the saturation branches are exact; only the sine branch rounds
        lo = clamped_sin_ramp(inner.lo)
        if 0.0 < inner.lo < 1.0:
            lo = max(_down(lo), 0.0)
        hi = clamped_sin_ramp(inner.hi)
        if 0.0 < inner.hi < 1.0:
            hi = min(_up(hi), 1.0)
        return IntervalBox(lo, hi)
    if isinstance(e, SinRamp):
        inner = interval_eval(e.child, box)
        if -1.0 <= inner.lo and inner.hi <= 1.0:
            return IntervalBox(max(_down(sin_ramp(inner.lo)), -1.0),
                               min(_up(sin_ramp(inner.hi)), 1.0))
        return IntervalBox(-1.0, 1.0)
    if isinstance(e, LinComb):
        # round-to-nearest errs by at most half an ulp, so stepping every
        # product and every partial sum one ulp outward keeps the exact value
        lo = 0.0
        hi = 0.0
        for c, ch in zip(e.coeffs, e.children):
            inner = interval_eval(ch, box)
            a, b = (inner.lo, inner.hi) if c >= 0 else (inner.hi, inner.lo)
            lo = _down(lo + _down(c * a, 1), 1)
            hi = _up(hi + _up(c * b, 1), 1)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InconclusiveError(f"the enclosure on [{box.lo}, {box.hi}] overflows")
        return IntervalBox(lo, hi)
    raise TypeError(f"not an expression: {e!r}")


def separation_witness(a: float, b: float) -> Expr:
    """Clamp of the ramp (t - a)/(b - a): 0 at or below a, 1 at or above b,
    strictly between on (a, b). Requires 0 <= a < b <= 1."""
    a, b = float(a), float(b)
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("need 0 <= a < b <= 1")
    ramp = LinComb((-a / (b - a), 1.0 / (b - a)), (Const(1.0), Ident()))
    return Clamp(ramp)


class InconclusiveError(RuntimeError):
    """Bisection hit the depth cap before certifying a clamp case."""


@dataclass(frozen=True)
class LocalForm:
    interval: IntervalBox
    expr: Expr
    residual: float


def local_form(f: Expr, box: IntervalBox, depth_cap: int = 40, tol: float = 1e-10) -> LocalForm:
    """Find a subinterval J of the box and an analytic expression equal to f on J.

    Each clamp node is resolved by bisecting (midpoint, left half first) until
    interval arithmetic certifies its argument's range is either entirely at
    or below 0 (clamp = 0), entirely at or above 1 (clamp = 1), or entirely
    inside (0,1), where the saturation equals the analytic ramp. Raises
    InconclusiveError past the depth cap, or when one clamp's search has made
    BISECTIONS_PER_DEPTH * depth_cap bisections. The result is verified
    pointwise on CHECK_POINTS samples before returning, and InconclusiveError
    is raised when the residual is above tol or not a number (an overflow).
    """
    j, u = _local(f, box, depth_cap)
    ts = j.sample(CHECK_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads nan: inconclusive
        residual = float(np.max(np.abs(eval_expr(f, ts) - eval_expr(u, ts))))
    if not residual <= tol:
        raise InconclusiveError(
            f"certified form disagrees with the input (residual {residual:.3e})")
    return LocalForm(interval=j, expr=u, residual=residual)


def _local(e: Expr, box: IntervalBox, depth_cap: int):
    if isinstance(e, (Const, Ident)):
        return box, e
    if isinstance(e, SinRamp):
        inner_box, inner = _local(e.child, box, depth_cap)
        return inner_box, SinRamp(inner)
    if isinstance(e, LinComb):
        cur = box
        parts = []
        for ch in e.children:
            cur, u = _local(ch, cur, depth_cap)
            parts.append(u)
        # earlier children were certified on larger intervals; shrinking is safe
        return cur, LinComb(e.coeffs, tuple(parts))
    if isinstance(e, Clamp):
        bisections = iter(range(BISECTIONS_PER_DEPTH * depth_cap))
        sub, case = _certify_clamp(e.child, box, depth_cap, 0, bisections)
        if case == "zero":
            return sub, Const(0.0)
        if case == "one":
            return sub, Const(1.0)
        inner_box, inner = _local(e.child, sub, depth_cap)
        return inner_box, SinRamp(inner)
    raise TypeError(f"not an expression: {e!r}")


def _certify_clamp(arg: Expr, box: IntervalBox, depth_cap: int, depth: int, bisections):
    env = interval_eval(arg, box)
    if env.hi <= 0.0:
        return box, "zero"
    if env.lo >= 1.0:
        return box, "one"
    if env.lo > 0.0 and env.hi < 1.0:
        return box, "inside"
    if depth >= depth_cap or box.width < 2 * MIN_INTERVAL_WIDTH:
        raise InconclusiveError(
            f"cannot certify saturation case on [{box.lo}, {box.hi}] at depth {depth}")
    if next(bisections, None) is None:
        raise InconclusiveError(f"cannot certify saturation case in "
                                f"{BISECTIONS_PER_DEPTH * depth_cap} bisections")
    left, right = box.halves()
    try:
        return _certify_clamp(arg, left, depth_cap, depth + 1, bisections)
    except InconclusiveError:
        return _certify_clamp(arg, right, depth_cap, depth + 1, bisections)


def decay_check(u: Expr, t_max: float = 1e6, grid: int = 257) -> bool:
    """Grid form of the quadratic-decay law: |u(t)| / t^2 on a log-spaced grid
    up to t_max must be eventually below DECAY_THRESHOLD and the last decade's
    maximum must not exceed the previous decade's (envelope decrease; the
    pointwise values oscillate for any expression with a sine term)."""
    t_max = float(t_max)
    if not math.isfinite(t_max * t_max):  # nan, an infinity, or past 1.3e154
        raise ValueError(f"t_max must be finite with a finite square, got {t_max!r}")
    if t_max < 100:
        raise ValueError("t_max must cover at least two decades")
    if grid < 16:
        raise ValueError("grid too coarse")
    # logspace may end an ulp or so past t_max; clipped there, no square overflows
    ts = np.minimum(np.logspace(0.0, math.log10(t_max), grid), t_max)
    vals = np.abs(eval_expr(u, ts)) / ts**2
    if vals[-1] >= DECAY_THRESHOLD:
        return False
    last = ts >= t_max / 10
    prev = (ts >= t_max / 100) & ~last
    if not last.any() or not prev.any():  # a grid too coarse for the decades up to t_max
        raise ValueError("grid too coarse for a decade comparison")
    return bool(np.max(vals[last]) <= np.max(vals[prev]) + 1e-18)


def parse_sexpr(text: str) -> Expr:
    """Grammar: (const c) | t | (clamp e) | (sinramp e) |
    (lin (c0 c1 ...) (e1 e2 ...)). Nesting stops at MAX_NESTING parentheses,
    as it does in Python's parser, so no input ends in a RecursionError."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if max(accumulate((tok == "(") - (tok == ")") for tok in tokens), default=0) > MAX_NESTING:
        raise ValueError(f"expression nested deeper than {MAX_NESTING} parentheses")
    rest = iter(tokens)
    node = _read(next(rest, None), rest)
    if next(rest, None) is not None:
        raise ValueError("trailing tokens after expression")
    return node


def _read(tok, rest) -> Expr:
    """The expression that opens with token tok, read on from the iterator
    rest of the tokens after it; tok is None past the end of the input."""
    if tok == "t":
        return Ident()
    if tok != "(":
        raise ValueError(f"unexpected token {tok!r}" if tok else "unexpected end of expression")
    head = next(rest, None)
    if head == "const":
        value = next(rest, None)
        if value is None:
            raise ValueError("const expects a number")
        node = Const(float(value))
    elif head in ("clamp", "sinramp"):
        node = (Clamp if head == "clamp" else SinRamp)(_read(next(rest, None), rest))
    elif head == "lin":
        if next(rest, None) != "(":
            raise ValueError("lin expects a coefficient list")
        # a list that the end of the input cuts short ends there; the next
        # check for a parenthesis refuses it
        coeffs = [float(c) for c in iter(rest.__next__, ")")]
        if next(rest, None) != "(":
            raise ValueError("lin expects a child list")
        node = LinComb(coeffs, [_read(tok, rest) for tok in iter(rest.__next__, ")")])
    else:
        raise ValueError(f"unknown form {head!r}" if head else "unexpected end of expression")
    if next(rest, None) != ")":
        raise ValueError("missing closing parenthesis")
    return node


def to_sexpr(e: Expr) -> str:
    if isinstance(e, Const):
        return f"(const {e.value!r})"
    if isinstance(e, Ident):
        return "t"
    if isinstance(e, Clamp):
        return f"(clamp {to_sexpr(e.child)})"
    if isinstance(e, SinRamp):
        return f"(sinramp {to_sexpr(e.child)})"
    if isinstance(e, LinComb):
        cs = " ".join(repr(c) for c in e.coeffs)
        chs = " ".join(to_sexpr(ch) for ch in e.children)
        return f"(lin ({cs}) ({chs}))"
    raise TypeError(f"not an expression: {e!r}")
