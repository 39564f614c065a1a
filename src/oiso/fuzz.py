"""Seeded instance generators for property testing and the fuzz command.

Every generator takes a numpy Generator and is deterministic given its state.
Stream splitting: derive independent per-instance generators with
`spawn_generators(seed, count)`, which spawns children of one SeedSequence;
instance i always sees the same stream regardless of execution order.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .cones import OperatorModel
from .exprs import Clamp, Const, Expr, Ident, IntervalBox, LinComb, SinRamp
from .spaces import FunctionFamily, PointSpace

__all__ = [
    "spawn_generators",
    "log_uniform_weights",
    "random_monomial",
    "random_signed_monomial",
    "random_permutation_operator",
    "random_nonneg_nonmonomial",
    "random_metric_space",
    "random_clamp_expr",
    "random_analytic_expr",
    "random_interval",
    "WEIGHT_LOW",
    "WEIGHT_HIGH",
]

WEIGHT_LOW = 1e-3
WEIGHT_HIGH = 1e3


def spawn_generators(seed: int, count: int) -> list:
    """Independent child generators for `count` fuzz instances of one run."""
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(int(seed)).spawn(count)]


def log_uniform_weights(rng: np.random.Generator, n: int,
                        low: float = WEIGHT_LOW, high: float = WEIGHT_HIGH) -> np.ndarray:
    u = rng.uniform(np.log(low), np.log(high), size=n)
    return np.exp(u)


def _full_pair(n: int, exact: bool):
    dom = FunctionFamily.full(PointSpace.discrete(n, "x"), exact=exact)
    cod = FunctionFamily.full(PointSpace.discrete(n, "y"), exact=exact)
    return dom, cod


def random_monomial(rng: np.random.Generator, n: int, exact: bool = False,
                    signs: Optional[np.ndarray] = None):
    """A weighted permutation operator with known ground truth.

    Returns (operator, sigma, weight) where sigma[y] is the domain index each
    codomain point maps to and weight = T(1). Weights are log-uniform in
    [WEIGHT_LOW, WEIGHT_HIGH]; exact mode snaps them to nearby positive
    rationals with denominator 10**6 so recovery can be compared exactly.
    """
    sigma = rng.permutation(n)
    w = log_uniform_weights(rng, n)
    if signs is not None:
        w = w * signs
    dom, cod = _full_pair(n, exact)
    if exact:
        wq = [Fraction(int(round(abs(x) * 10**6)), 10**6) for x in w]
        wq = [q if q != 0 else Fraction(1, 10**6) for q in wq]
        if signs is not None:
            wq = [q if s > 0 else -q for q, s in zip(wq, signs)]
        weight = np.array(wq, dtype=object)
    else:
        weight = w
    t = OperatorModel.weighted_permutation(sigma, weight, dom, cod)
    return t, sigma, weight


def random_signed_monomial(rng: np.random.Generator, n: int, exact: bool = False):
    """Monomial with unit-modulus weights and at least one negative entry."""
    signs = rng.choice([-1.0, 1.0], size=n)
    if np.all(signs > 0):
        signs[int(rng.integers(n))] = -1.0
    sigma = rng.permutation(n)
    dom, cod = _full_pair(n, exact)
    if exact:
        weight = np.array([Fraction(int(s)) for s in signs], dtype=object)
    else:
        weight = signs.astype(float)
    t = OperatorModel.weighted_permutation(sigma, weight, dom, cod)
    return t, sigma, weight


def random_permutation_operator(rng: np.random.Generator, n: int, exact: bool = False):
    sigma = rng.permutation(n)
    dom, cod = _full_pair(n, exact)
    if exact:
        weight = np.array([Fraction(1)] * n, dtype=object)
    else:
        weight = np.ones(n)
    t = OperatorModel.weighted_permutation(sigma, weight, dom, cod)
    return t, sigma, weight


def random_nonneg_nonmonomial(rng: np.random.Generator, n: int, exact: bool = True):
    """Invertible nonnegative matrix that is not a weighted permutation.

    Built as an integer permutation pattern plus one or more positive
    off-pattern entries, retried until invertible. Exact by default so the
    rejection witness is unconditional.
    """
    if n < 2:
        raise ValueError("need dimension at least 2 for a non-monomial")
    dom, cod = _full_pair(n, exact)
    while True:
        sigma = rng.permutation(n)
        m_int = np.zeros((n, n), dtype=np.int64)
        for y in range(n):
            m_int[y, sigma[y]] = int(rng.integers(1, 10))
        extras = int(rng.integers(1, 1 + max(1, n // 2)))
        for _ in range(extras):
            y = int(rng.integers(n))
            x = int(rng.integers(n))
            if x == sigma[y]:
                x = (x + 1) % n
            m_int[y, x] = int(rng.integers(1, 10))
        if exact:
            m = np.array([[Fraction(int(v)) for v in row] for row in m_int], dtype=object)
            if linalg.exact_rank(m) != n:
                continue
        else:
            m = m_int.astype(float)
            if np.linalg.matrix_rank(m) != n:
                continue
        return OperatorModel(linalg.frozen(m), dom, cod, basis="point")


def random_metric_space(rng: np.random.Generator, max_points: int = 20,
                        min_points: int = 2) -> PointSpace:
    """Euclidean metric on random planar points (distinct with margin)."""
    n = int(rng.integers(min_points, max_points + 1))
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    for i in range(n):  # nudge near-coincident points apart
        for j in range(i):
            while np.linalg.norm(pts[i] - pts[j]) < 1e-3:
                pts[i] = rng.uniform(0.0, 1.0, size=2)
    diff = pts[:, None, :] - pts[None, :, :]
    metric = np.sqrt(np.sum(diff * diff, axis=2))
    labels = tuple(f"p{i}" for i in range(n))
    return PointSpace(labels, metric=metric)


def _affine(rng: np.random.Generator) -> Expr:
    a = float(rng.uniform(-1.0, 1.0))
    b = float(rng.uniform(-2.0, 2.0))
    return LinComb((a, b), (Const(1.0), Ident()))


def random_clamp_expr(rng: np.random.Generator, level: int = 3) -> Expr:
    """Random clamp-family expression of the given level.

    Level 1 is affine; each further level takes a span of previous-level
    expressions and clamp compositions of them, with generic coefficients so
    clamp arguments graze the saturation thresholds only at isolated points.
    """
    if level <= 1:
        return _affine(rng)
    k = int(rng.integers(1, 3))
    children = [random_clamp_expr(rng, level - 1)]
    for _ in range(k):
        children.append(Clamp(random_clamp_expr(rng, level - 1)))
    coeffs = tuple(float(rng.uniform(-1.0, 1.0)) for _ in children)
    return LinComb(coeffs, tuple(children))


def random_analytic_expr(rng: np.random.Generator, level: int = 3) -> Expr:
    """Random analytic-family expression with a dominant linear part.

    The top span is beta*t + alpha*1 + sum of small sine-composed terms, with
    |beta| in [0.3, 0.8] and bounded-part coefficient mass at most 0.5. Then
    |u(t)| / t^2 is eventually below the decay threshold on [1, 1e6] and its
    per-decade maxima decrease, so the grid decay check is decisive.
    """
    beta = float(rng.uniform(0.3, 0.8)) * float(rng.choice([-1.0, 1.0]))
    alpha = float(rng.uniform(-1.0, 1.0))
    children = [Ident(), Const(1.0)]
    coeffs = [beta, alpha]
    k = int(rng.integers(1, 4))
    raw = rng.uniform(-1.0, 1.0, size=k)
    mass = float(np.sum(np.abs(raw)))
    scale = 0.5 / mass if mass > 0.5 else 1.0
    for i in range(k):
        inner = _analytic_inner(rng, level - 1)
        children.append(SinRamp(inner))
        coeffs.append(float(raw[i] * scale))
    return LinComb(tuple(coeffs), tuple(children))


def _analytic_inner(rng: np.random.Generator, level: int) -> Expr:
    if level <= 1:
        return _affine(rng)
    children = [_affine(rng), SinRamp(_analytic_inner(rng, level - 1))]
    coeffs = (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
    return LinComb(coeffs, tuple(children))


def random_interval(rng: np.random.Generator, min_width: float = 0.05) -> IntervalBox:
    """Random nondegenerate subinterval of [0, 1]."""
    width = float(rng.uniform(min_width, 1.0))
    lo = float(rng.uniform(0.0, 1.0 - width))
    return IntervalBox(lo, lo + width)
