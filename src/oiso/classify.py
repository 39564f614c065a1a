"""Screens for the classical corollaries of the cone certificate.

Three screens over full finite models: sup-norm isometries (unimodular T(1),
divide it out and re-certify), lattice isomorphisms (|Tf| = T|f|, positive
weight), and unital algebra isomorphisms (T1 = 1 and multiplicative, weight
identically one). The final kind is the most specific accepted class; every
screen's outcome is recorded as evidence.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .cones import Certificate, OperatorModel, is_order_isomorphism
from .recovery import Decomposition, InternalContradictionError, decompose
from .spaces import DEFAULT_TOL

__all__ = [
    "NotAnIsometryError",
    "isometry_reduce",
    "lattice_check",
    "algebra_check",
    "ClassificationReport",
    "classify",
    "DEFAULT_SAMPLES",
]

DEFAULT_SAMPLES = 256


class NotAnIsometryError(ValueError):
    """A necessary condition for a sup-norm isometry failed."""

    def __init__(self, detail: str, point: Optional[int] = None):
        self.point = point
        super().__init__(detail)


def _sample_vectors(rng: np.random.Generator, n: int, exact: bool, count: int):
    for _ in range(count):
        if exact:
            ints = rng.integers(-9, 10, size=n)
            yield np.array([Fraction(int(x)) for x in ints], dtype=object)
        else:
            yield rng.standard_normal(n)


def _sup(v) -> float:
    if v.dtype == object:
        return float(max(abs(x) for x in v))
    return float(np.max(np.abs(np.asarray(v, dtype=float))))


def isometry_reduce(t: OperatorModel, samples: int = DEFAULT_SAMPLES, seed: int = 0,
                    tol: float = DEFAULT_TOL):
    """Divide out the unimodular image of the constants.

    Screens: |T(1)| must be 1 at every codomain point, and sampled sup norms
    must be preserved. Returns (g, reduced) with reduced = T scaled by 1/g
    rowwise; the caller certifies `reduced` with the cone test.
    """
    t = t.as_point()
    g = t.apply_values(t.domain.ones())
    n = t.size
    if t.exact:
        for y in range(n):
            if abs(g[y]) != 1:
                raise NotAnIsometryError(
                    f"|T(1)| differs from 1 at point {y}", point=y)
    else:
        dev = np.abs(np.abs(np.asarray(g, dtype=float)) - 1.0)
        y = int(np.argmax(dev))
        if dev[y] > tol:
            raise NotAnIsometryError(
                f"|T(1)| differs from 1 by {dev[y]:.3e} at point {y}", point=y)
    rng = np.random.default_rng(seed)
    for v in _sample_vectors(rng, n, t.exact, samples):
        if t.exact:
            lhs = max(abs(x) for x in t.apply_values(v))
            rhs = max(abs(x) for x in v)
            if lhs != rhs:
                raise NotAnIsometryError(
                    f"sup norm not preserved ({lhs} vs {rhs}) on a sampled function")
        else:
            lhs = _sup(t.apply_values(v))
            rhs = _sup(v)
            if abs(lhs - rhs) > tol * max(1.0, rhs):
                raise NotAnIsometryError(
                    f"sup norm not preserved ({lhs!r} vs {rhs!r}) on a sampled function")
    if t.exact:
        red = np.empty(t.matrix.shape, dtype=object)
        for y in range(n):
            for x in range(n):
                red[y, x] = t.matrix[y, x] / g[y]
    else:
        red = np.asarray(t.matrix, dtype=float) / np.asarray(g, dtype=float)[:, None]
    reduced = OperatorModel(red, domain=t.domain, codomain=t.codomain, basis="point")
    return g, reduced


def _lattice_residual(t: OperatorModel, samples: int, seed: int) -> float:
    """Worst |(|Tf|) - T(|f|)| over indicators and sampled sign patterns.

    For operators that pass the cone test (weighted permutations) the
    indicator checks alone decide the identity, since then |Tf| = T|f| holds
    for every f exactly when every weight is positive; the sampled sign
    patterns keep the screen honest on arbitrary input.
    """
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
            lhs = np.abs(mat @ v)
            rhs = mat @ np.abs(v)
            res = float(np.max(np.abs(lhs - rhs)))
        worst = max(worst, res)
    return worst


def lattice_check(t: OperatorModel, samples: int = DEFAULT_SAMPLES, seed: int = 0,
                  tol: float = DEFAULT_TOL) -> bool:
    """Does T commute with absolute value on the sampled probes?"""
    return _lattice_residual(t, samples, seed) <= (0 if t.exact else tol)


def _algebra_residual(t: OperatorModel, samples: int, seed: int) -> float:
    """Worst violation of T1 = 1 and T(fg) = Tf Tg.

    All basis pairs are checked (e_i e_j = 0 for i != j and e_i^2 = e_i, so the
    bilinear identity on the basis is the full identity), plus sampled pairs.
    """
    t = t.as_point()
    n = t.size
    mat = np.asarray(t.matrix, dtype=float) if not t.exact else None
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
    worst = float(np.max(np.abs(mat @ np.ones(n) - 1.0)))
    cols = mat  # column j is T e_j
    for i in range(n):
        for j in range(n):
            prod = cols[:, i] * cols[:, j]
            expect = cols[:, i] if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(prod - expect))))
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        f = rng.standard_normal(n)
        g = rng.standard_normal(n)
        worst = max(worst, float(np.max(np.abs(mat @ (f * g) - (mat @ f) * (mat @ g)))))
    return worst


def algebra_check(t: OperatorModel, samples: int = DEFAULT_SAMPLES, seed: int = 0,
                  tol: float = DEFAULT_TOL) -> bool:
    """Is T unital and multiplicative on the probes?"""
    return _algebra_residual(t, samples, seed) <= (0 if t.exact else tol)


@dataclass(frozen=True)
class ClassificationReport:
    """kind: most specific accepted class among
    algebra-iso > lattice-iso > isometry > order-iso-only, else rejected."""

    kind: str
    decomposition: Optional[Decomposition]
    unimodular_sign: Optional[tuple]
    evidence: tuple
    certificate: Certificate

    def to_json_dict(self) -> dict:
        out = {
            "schema": "oiso/1",
            "kind": self.kind,
            "evidence": [dict(e) for e in self.evidence],
            "certificate": self.certificate.to_json_dict(),
        }
        if self.decomposition is not None:
            out["sigma"] = list(self.decomposition.sigma)
            out["weight"] = [_num(w) for w in self.decomposition.weight]
            out["residual"] = self.decomposition.residual
        if self.unimodular_sign is not None:
            out["unimodular_sign"] = [_num(v) for v in self.unimodular_sign]
        return out


def _num(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def classify(t: OperatorModel, samples: int = DEFAULT_SAMPLES, seed: int = 0,
             tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Run the screens in order isometry -> lattice -> algebra -> plain cone test.

    Pipelines that accept must agree on the recovered point bijection; the
    report carries every screen's outcome, the most specific kind, and the
    decomposition from the matching pipeline (the isometry route divides by
    the unimodular sign first, and is the only route for sign-flipping
    operators, which fail the plain cone test).
    """
    t = t.as_point()
    evidence = []
    sign = None
    d_iso = None
    iso_ok = False
    try:
        g, reduced = isometry_reduce(t, samples=samples, seed=seed, tol=tol)
        cert_red = is_order_isomorphism(reduced, tol=tol)
        if cert_red.accept:
            iso_ok = True
            sign = tuple(g)
            d_iso = decompose(reduced, tol=tol, cert=cert_red)
            evidence.append({"screen": "isometry", "passed": True, "detail": ""})
        else:
            evidence.append({"screen": "isometry", "passed": False,
                             "detail": "reduced operator failed the cone test"})
    except NotAnIsometryError as e:
        evidence.append({"screen": "isometry", "passed": False, "detail": str(e)})

    lat_res = _lattice_residual(t, samples, seed)
    lat_ok = lat_res <= (0 if t.exact else tol)
    evidence.append({"screen": "lattice", "passed": bool(lat_ok), "residual": lat_res})

    alg_res = _algebra_residual(t, samples, seed)
    alg_ok = alg_res <= (0 if t.exact else tol)
    evidence.append({"screen": "algebra", "passed": bool(alg_ok), "residual": alg_res})

    cert = is_order_isomorphism(t, tol=tol)
    evidence.append({"screen": "cone", "passed": bool(cert.accept), "detail": cert.detail})

    decomposition = None
    if cert.accept:
        decomposition = decompose(t, tol=tol, cert=cert)
        if d_iso is not None and d_iso.sigma != decomposition.sigma:
            raise InternalContradictionError(
                "isometry pipeline and direct pipeline disagree on sigma")
    elif d_iso is not None:
        decomposition = d_iso

    if alg_ok and cert.accept:
        kind = "algebra-iso"
    elif lat_ok and cert.accept:
        kind = "lattice-iso"
    elif iso_ok:
        kind = "isometry"
    elif cert.accept:
        kind = "order-iso-only"
    else:
        kind = "rejected"
    return ClassificationReport(kind=kind, decomposition=decomposition,
                                unimodular_sign=sign, evidence=tuple(evidence),
                                certificate=cert)
