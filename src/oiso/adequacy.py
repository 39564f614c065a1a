"""Adequacy flags for function families and the clamp-based bump constructions.

A family is adequate when it separates points from closed sets together with
the constants, is invariant under the piecewise-linear clamp (0 below 0,
identity on [0,1], 1 above 1), and its positivity cone generates the span.
On a finite model each flag is read from the generator matrix G. Every subset
is closed, so separation needs every indicator in the span: full rank. A
clamp-invariant span is a vector sublattice (s*clamp(f/s) = f+ for large s),
whose disjoint positive basis the clamp (small s) turns into indicators; so it
is invariant exactly when its rank is the number of distinct nonzero point
columns of G. The cone generates the span exactly when some span element is
positive wherever G's column is nonzero (f = (f + s*u) - s*u for large s):
Gordan's alternative, which `_positive_element` decides with no LP. In exact
mode it is decided by `linalg.farkas`, which pivots integer rows and builds
Fractions only to read its answer.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .spaces import (DEFAULT_TOL, FunctionFamily, FunctionVec, span_membership,
                     values_of)

__all__ = [
    "SeparationInfeasibleError",
    "clamp",
    "AdequacyReport",
    "check_adequate",
    "build_subbasic_bump",
    "build_precise_bump",
]


class SeparationInfeasibleError(ValueError):
    """No span function attains 1 at the anchor and 0 on the closed set."""


def clamp(t):
    """Saturate into [0,1]: 0 below 0, identity inside, 1 above 1. Idempotent."""
    if isinstance(t, Fraction):
        return Fraction(0) if t <= 0 else (Fraction(1) if t >= 1 else t)
    if isinstance(t, np.ndarray) and t.dtype == object:
        return np.array([clamp(x) for x in t], dtype=object)
    if isinstance(t, (int, float, np.floating, np.integer)):
        return 0.0 if t <= 0 else (1.0 if t >= 1 else float(t))
    return np.clip(np.asarray(t, dtype=float), 0.0, 1.0)


@dataclass(frozen=True)
class AdequacyReport:
    separates: bool
    separation_witnesses: tuple  # per point: coefficient tuple or None
    has_constants: bool
    g_invariant: bool
    g_residual: float
    cone_generates: bool
    cone_witness: Optional[tuple]  # coefficients of a span element > 0 off G's zero columns
    adequate: bool

    def to_json_dict(self) -> dict:
        return {
            "schema": "oiso/1",
            "separates": self.separates,
            "has_constants": self.has_constants,
            "g_invariant": self.g_invariant,
            "g_residual": self.g_residual,
            "cone_generates": self.cone_generates,
            "adequate": self.adequate,
        }


def check_adequate(fam: FunctionFamily, tol: float = DEFAULT_TOL) -> AdequacyReport:
    """The four adequacy flags in closed form (see the module docstring).

    A full family passes all four with separation witnesses the columns of
    inv(G^T). A proper family's per-point loop reports which anchors it does
    separate. `g_residual` is 0 for a clamp-invariant family; otherwise it is
    the distance from the span to its clamp closure (float) or inf (exact).
    """
    if fam.is_full:
        inv_t = fam.coefficient_matrix()
        witnesses = tuple(tuple(inv_t[:, x]) for x in range(fam.space.size))
        return AdequacyReport(separates=True, separation_witnesses=witnesses,
                              has_constants=True, g_invariant=True, g_residual=0.0,
                              cone_generates=True,
                              cone_witness=tuple(linalg.mat_vec(inv_t, fam.ones())),
                              adequate=True)
    witnesses = []
    for x in range(fam.space.size):
        ok, c = span_membership(fam, linalg.indicator(fam.space.size, x, fam.exact), tol=tol)
        witnesses.append(tuple(c) if ok else None)
    has_const, c_one = span_membership(fam, fam.ones(), tol=tol)
    nonzero, classes = _point_columns(fam, tol)
    g_invariant = fam.rank == len(classes)
    g_residual = (0.0 if g_invariant else float("inf") if fam.exact
                  else _closure_residual(fam, classes))
    cone_witness = tuple(c_one) if has_const else _positive_element(fam, nonzero, tol)
    return AdequacyReport(separates=False, separation_witnesses=tuple(witnesses),
                          has_constants=has_const, g_invariant=g_invariant,
                          g_residual=g_residual, cone_generates=cone_witness is not None,
                          cone_witness=cone_witness, adequate=False)


def _point_columns(fam: FunctionFamily, tol: float):
    """Mask of the points with a nonzero column of G, and the classes of
    points with equal nonzero columns (lists of point indices); float columns
    are zero or equal within linalg.cutoff(G, tol)."""
    cols = fam.generators.T
    if fam.exact:
        nonzero = np.array([any(col) for col in cols], dtype=bool)
        classes = {}
        for x in np.flatnonzero(nonzero):
            classes.setdefault(tuple(cols[x]), []).append(int(x))
        return nonzero, list(classes.values())
    cols = np.asarray(cols, dtype=float)
    cut = linalg.cutoff(cols, tol)
    nonzero = np.abs(cols).max(axis=1, initial=0.0) > cut
    reps = np.empty((0, cols.shape[1]))
    classes = []
    for x in np.flatnonzero(nonzero):
        hit = np.flatnonzero(np.abs(reps - cols[x]).max(axis=1, initial=0.0) <= cut)
        if hit.size:
            classes[hit[0]].append(int(x))
        else:
            reps = np.vstack([reps, cols[x]])
            classes.append([int(x)])
    return nonzero, classes


def _closure_residual(fam: FunctionFamily, classes) -> float:
    """Largest sup-norm lstsq distance from the span to the indicator of a
    class of equal nonzero columns, in one lstsq. The indicators span the
    clamp closure of the span, so this is > 0 exactly when the family is not
    clamp invariant."""
    a = np.asarray(fam.generators, dtype=float).T
    ind = np.zeros((a.shape[0], len(classes)))
    for k, members in enumerate(classes):
        ind[members, k] = 1.0
    c, *_ = np.linalg.lstsq(a, ind, rcond=None)
    return float(np.max(np.abs(a @ c - ind)))


def _positive_element(fam: FunctionFamily, nonzero, tol: float) -> Optional[tuple]:
    """Coefficients c with G^T c >= 1 on `nonzero`, or None if no span element
    is positive there: Gordan's alternative on the rows (g_x, 1), target
    t = (0, ..., 0, 1). Float: one NNLS fit of t on the rows (g_x / max|G|, 1);
    an L1 residual within linalg.cutoff(t, tol) means none, and otherwise the
    residual r has rows . r <= 0 and t . r = |r|^2 (KKT), so take
    c = -r[:-1] / |r|^2 / max|G|. Exact, or a fit that does not converge:
    `linalg.farkas` on the rows, read as rationals, finds a convex
    combination of the columns that is 0, or (c, s) with g_x . c >= -s > 0."""
    g = fam.generators.T[nonzero]
    target = np.array([0] * fam.rank + [1], dtype=object)
    if not fam.exact:
        scale = float(np.abs(fam.generators).max(initial=0.0))
        rows, t = np.c_[g / scale, np.ones(len(g))], target.astype(float)
        try:
            lam, _ = linalg.nnls(rows.T, t)
        except RuntimeError:  # no convergence: decided exactly below
            pass
        else:
            r = t - rows.T @ lam
            return None if np.abs(r).sum() <= linalg.cutoff(t, tol) else tuple(
                -r[:-1] / (r @ r) / scale)
    w = linalg.farkas(np.array([[*col, 1] for col in g], dtype=object), target)
    if w is None:
        return None
    c = (v / -w[-1] for v in w[:-1])
    return tuple(c if fam.exact else map(float, c))


def build_subbasic_bump(fam: FunctionFamily, x0, f, eps, tol: float = DEFAULT_TOL) -> FunctionVec:
    """Tent bump h = 1 + clamp(f1) - clamp(f1 + 1), f1 = (f - f(x0)) / eps.

    h is 0 at the anchor, 1 outside the neighborhood {|f - f(x0)| < eps}, and
    |f1| in between; it stays in the family by clamp invariance and constants.
    """
    x0 = fam.space.index(x0)
    v = values_of(f)
    if v.shape != (fam.space.size,):
        raise ValueError("f must be a value vector on the family's space")
    ok, _ = span_membership(fam, v, tol=tol)
    if not ok:
        raise ValueError("f must lie in the span of the family")
    eps = Fraction(eps) if fam.exact else float(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    f1 = (v - v[x0]) / eps
    h = 1 + clamp(f1) - clamp(f1 + 1)
    _assert_bump_in_family(fam, h, tol)
    return FunctionVec(h)


def build_precise_bump(fam: FunctionFamily, x0, closed_set: Sequence,
                       tol: float = DEFAULT_TOL) -> FunctionVec:
    """Bump h = 1 - clamp(sum of tent bumps): 1 at the anchor, 0 on the closed
    set, values in [0,1], built from per-point separating functions.

    The empty closed set yields the constant 1. Raises
    SeparationInfeasibleError when some point of the set cannot be separated
    from the anchor inside the family.
    """
    x0 = fam.space.index(x0)
    idxs = sorted({fam.space.index(z) for z in closed_set})
    if x0 in idxs:
        raise ValueError("the closed set must not contain the anchor")
    n = fam.space.size
    if not idxs:
        return FunctionVec(fam.ones())
    tents = []
    seen = set()
    for z in idxs:
        fz = _separating_function(fam, x0, z, tol)
        key = tuple(fz)
        if key in seen:
            continue
        seen.add(key)
        tents.append(build_subbasic_bump(fam, x0, fz, eps=1, tol=tol).values)
    total = tents[0]
    for t_ in tents[1:]:
        total = total + t_
    h = 1 - clamp(total)
    _assert_bump_in_family(fam, h, tol)
    if fam.exact:
        if h[x0] != 1 or any(h[z] != 0 for z in idxs) or any(x < 0 or x > 1 for x in h):
            raise SeparationInfeasibleError("bump construction missed its contract")
    else:
        if (abs(h[x0] - 1.0) > tol or np.any(np.abs(h[idxs]) > tol)
                or np.any(h < -tol) or np.any(h > 1 + tol)):
            raise SeparationInfeasibleError("bump construction missed its contract")
    return FunctionVec(h)


def _separating_function(fam: FunctionFamily, x0: int, z: int, tol: float):
    """A span function with f(x0) = 1, f(z) = 0 (deterministic solution)."""
    sol = linalg.solve(fam.generators[:, [x0, z]].T, linalg.indicator(2, 0, fam.exact), tol)
    if sol is None:
        raise SeparationInfeasibleError(
            f"cannot separate {fam.space.labels[x0]} from {fam.space.labels[z]}")
    return fam.values(sol)


def _assert_bump_in_family(fam: FunctionFamily, h, tol: float):
    ok, _ = span_membership(fam, h, tol=10 * tol)
    if not ok:
        raise ValueError("bump left the family span; family is not clamp-invariant")
