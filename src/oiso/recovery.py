"""Constructive recovery of the weighted-composition form of an accepted operator.

For each domain anchor point the images of the nonnegative span functions
vanishing there share a common zero in the codomain; collecting those zero
sets and intersecting them pins down a unique codomain point. Running over all
anchors yields a point bijection, and evaluating T on the constants yields the
weight, so that T f = weight * (f o sigma) on the codomain model. On a finite
model an accepted operator's point matrix is a positive monomial matrix, so
`recover_map` and `decompose` read that bijection from the matrix in one pass,
with no tolerance; `zero_family` and `recover_point` keep the per-anchor
construction. Both checks on the construction are closed forms, not sampled
screens: the zero family is finite, so `fip_check` intersects all of it, and
`verify_representation` reports the entrywise gap between the point matrix and
the monomial matrix a decomposition claims. Generator-basis operators are
recovered through their point matrix (`as_point()`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .cones import Certificate, OperatorModel, is_order_isomorphism
from .spaces import DEFAULT_TOL, ZeroSet

__all__ = [
    "NotOrderIsomorphismError",
    "AmbiguousIntersectionError",
    "InternalContradictionError",
    "ZeroFamilyMember",
    "ZeroSetFamily",
    "zero_family",
    "recover_point",
    "recover_map",
    "Decomposition",
    "decompose",
    "verify_representation",
    "NormalizedOperator",
    "normalize",
    "fip_check",
    "MARGIN_FACTOR",
]

MARGIN_FACTOR = 10.0


class NotOrderIsomorphismError(ValueError):
    """The operator failed the cone certificate."""

    def __init__(self, certificate: Certificate):
        self.certificate = certificate
        super().__init__(f"operator rejected: {certificate.detail or 'cone test failed'}")


class AmbiguousIntersectionError(ValueError):
    """The zero-set intersection did not isolate a unique point."""


class InternalContradictionError(RuntimeError):
    """An accepted operator violated a structural consequence of acceptance."""


@dataclass(frozen=True)
class ZeroFamilyMember:
    """One nonnegative span function vanishing at the anchor, with the zero
    set of its image."""

    description: str
    preimage_values: tuple
    image_values: tuple
    image_zeros: ZeroSet


@dataclass(frozen=True)
class ZeroSetFamily:
    anchor: int
    members: tuple

    def intersection_mask(self, n_codomain: int) -> np.ndarray:
        mask = np.ones(n_codomain, dtype=bool)
        for m in self.members:
            mask &= m.image_zeros.mask
        return mask


def _resolve_anchor(t: OperatorModel, x0) -> int:
    return t.domain.space.index(x0)


def zero_family(t: OperatorModel, x0, tol: float = DEFAULT_TOL) -> ZeroSetFamily:
    """Images of a generating set of {f in span : f >= 0, f(x0) = 0}.

    On a full family the generating set is the coordinate indicators e_j,
    j != x0 (on a one-point space it is empty and the intersection is the
    whole codomain). Rank-deficient families cannot separate points on a
    finite model, so no generating set exists and recovery is refused. Float
    image values count as zero within linalg.cutoff(images, tol), the images
    being every T e_j.
    """
    x0 = _resolve_anchor(t, x0)
    fam = t.domain
    if not fam.is_full:
        raise ValueError("recovery needs a family that separates points "
                         "(full rank on a finite model)")
    n = fam.space.size
    indicators = linalg.zeros_like_mode((n, n), fam.exact)
    np.fill_diagonal(indicators, Fraction(1) if fam.exact else 1.0)
    images = [t.apply_values(e) for e in indicators]
    cut = linalg.cutoff(images, tol)
    members = [ZeroFamilyMember(description=f"indicator({fam.space.labels[j]})",
                                preimage_values=tuple(indicators[j]),
                                image_values=tuple(images[j]),
                                image_zeros=ZeroSet.of(images[j], cut))
               for j in range(n) if j != x0]
    return ZeroSetFamily(anchor=x0, members=tuple(members))


def recover_point(t: OperatorModel, x0, tol: float = DEFAULT_TOL) -> int:
    """The codomain point where every zero-family image vanishes.

    Exact mode demands a unique exact common zero. Float mode scores each
    codomain point by the worst member-image magnitude and requires the best
    score to beat the runner-up by more than
    MARGIN_FACTOR * linalg.cutoff(scores, tol).
    """
    zf = zero_family(t, x0, tol=tol)
    n_cod = t.codomain.space.size
    if not zf.members:
        if n_cod == 1:
            return 0
        raise AmbiguousIntersectionError("empty member list on a multi-point codomain")
    if t.exact:
        mask = zf.intersection_mask(n_cod)
        hits = np.nonzero(mask)[0]
        if hits.shape[0] != 1:
            raise AmbiguousIntersectionError(
                f"zero-set intersection has {hits.shape[0]} points, expected 1")
        return int(hits[0])
    scores = np.zeros(n_cod)
    for m in zf.members:
        scores = np.maximum(scores, np.abs(np.asarray(m.image_values, dtype=float)))
    order = np.argsort(scores, kind="stable")
    best = int(order[0])
    if n_cod > 1:
        margin = scores[order[1]] - scores[best]
        bound = MARGIN_FACTOR * linalg.cutoff(scores, tol)
        if margin <= bound:
            raise AmbiguousIntersectionError(
                f"runner-up within margin ({margin:.3e} <= {bound:.3e})")
    return best


def recover_map(t: OperatorModel, tol: float = DEFAULT_TOL) -> np.ndarray:
    """recover_point at every anchor, returned as an index map h[x] = y.

    An accepted operator's anchor-x intersection is the one codomain point
    whose row of the point matrix is supported on column x, so h is the
    inverse of the map `_read` reads. `tol` is not read: the cone test is the
    only float decision.
    """
    sigma, _ = _read(t)
    h = np.empty_like(sigma)
    h[sigma] = np.arange(sigma.shape[0])
    return h


def _read(t: OperatorModel):
    """(sigma, weight) read from the point matrix. A monomial point matrix
    is read along the operator's own `monomial` read, taken when it was
    built: sigma[y] is the column of row y's nonzero entry and weight[y] that
    entry, which is T1 at y. Any other point matrix is read whole, in float
    mode only: sigma[y] is the column of row y's largest entry and the weight
    is T1. Exact acceptance leaves only monomial point matrices.

    An accepted point matrix is a positive monomial matrix, so neither reading
    needs a tolerance; one that is not a bijection of points raises
    AmbiguousIntersectionError.
    """
    if not t.domain.is_full:
        raise ValueError("recovery needs a full-rank family")
    t = t.as_point()
    if t.monomial is not None:
        cols, entries = t.monomial
        return np.asarray(cols, dtype=int), entries
    if t.exact:
        raise AmbiguousIntersectionError(
            "some zero-set intersection is not a single point: "
            "the point matrix is not monomial")
    sigma = np.argmax(t.matrix, axis=1)
    if len(set(sigma.tolist())) != sigma.shape[0]:
        raise AmbiguousIntersectionError(
            "the largest entries of the point matrix's rows share a column")
    return sigma, t.apply_values(t.domain.ones())


@dataclass(frozen=True)
class Decomposition:
    """T f = weight * (f o sigma): sigma maps codomain points to domain points."""

    sigma: tuple
    weight: tuple
    residual: float
    exact: bool

    def sigma_array(self) -> np.ndarray:
        return np.asarray(self.sigma, dtype=int)

    def weight_array(self) -> np.ndarray:
        if self.exact:
            return np.array(self.weight, dtype=object)
        return np.asarray(self.weight, dtype=float)


def decompose(t: OperatorModel, tol: float = DEFAULT_TOL,
              cert: Optional[Certificate] = None) -> Decomposition:
    """Recover (sigma, weight) for an accepted operator with constants.

    Raises NotOrderIsomorphismError when the cone certificate rejects, and
    AmbiguousIntersectionError when the point matrix does not read as a
    bijection with positive weight T1 (float operators accepted within `tol`
    only; exact acceptance makes the point matrix positive monomial). The
    residual is the entrywise gap `verify_representation` reports; it is 0
    by construction when (sigma, weight) is the monomial point matrix's own
    read, and only a float matrix that is not monomial is scanned for it.
    """
    if cert is None:
        cert = is_order_isomorphism(t, tol=tol)
    if not cert.accept:
        raise NotOrderIsomorphismError(cert)
    if not (t.domain.is_full or t.domain.has_constants(tol)):  # a full family spans them
        raise ValueError("decompose needs the domain family to contain constants")
    sigma, weight = _read(t)
    if not all(w > 0 for w in weight):
        raise AmbiguousIntersectionError("the weight T1 is not positive at every point")
    p = t.as_point()
    residual = (0.0 if p.monomial is not None
                else _representation_residual(p.matrix, sigma, weight))
    return Decomposition(sigma=tuple(int(v) for v in sigma),
                         weight=tuple(weight),
                         residual=residual, exact=t.exact)


def _representation_residual(m, sigma, weight) -> float:
    """max over indicators f and codomain points y of |Tf(y) - w(y) f(sigma(y))|:
    the entrywise gap between the point matrix m and the monomial matrix
    (sigma, weight) claims."""
    expected = linalg.zeros_like_mode(m.shape, linalg.is_exact(m))
    expected[np.arange(m.shape[0]), sigma] = weight
    return float(np.max(np.abs(m - expected)))


def verify_representation(t: OperatorModel, d: Decomposition) -> float:
    """Residual of T f = weight * (f o sigma) over every f: the entrywise gap
    between T's point matrix and the monomial matrix of d, which is the
    largest error over the indicator functions. Exact in exact mode."""
    return _representation_residual(t.as_point().matrix, d.sigma_array(), d.weight)


@dataclass(frozen=True)
class NormalizedOperator:
    """Unital rescaling S f = T(u f) / T u with u = 1 + T^{-1} 1.

    S fixes the constants (S 1 = 1 identically), keeps the same point
    bijection as T, and weight_agreement records how well the weight
    re-derived from S (T u / u o sigma) matches the direct decomposition.
    """

    u: tuple
    operator: OperatorModel
    sigma: tuple
    weight_agreement: float

    @property
    def exact(self) -> bool:
        return self.operator.exact


def normalize(t: OperatorModel, tol: float = DEFAULT_TOL,
              cert: Optional[Certificate] = None) -> NormalizedOperator:
    """The unital rescaling S of an accepted operator (see NormalizedOperator).
    A weighted permutation's u, T u and S follow its two reads in O(n); any
    other point matrix is rescaled whole."""
    t = t.as_point()
    if cert is None:
        cert = is_order_isomorphism(t, tol=tol)
    if not cert.accept:
        raise NotOrderIsomorphismError(cert)
    base = decompose(t, tol=tol, cert=cert)
    u = t.domain.ones() + t.inverse().apply_values(t.codomain.ones())
    tu = t.apply_values(u)
    s = t.rescaled(tu, u)
    d_s = decompose(s, tol=tol)
    # re-derive the weight of T from the unital S: T f = (T u / u o sigma) * (f o sigma)
    rederived = tu / u[d_s.sigma_array()]
    agreement = float(np.max(np.abs(rederived - base.weight_array())))
    if d_s.sigma != base.sigma:
        raise InternalContradictionError("normalization changed the point bijection")
    return NormalizedOperator(u=tuple(u), operator=s, sigma=d_s.sigma,
                              weight_agreement=agreement)


def fip_check(t: OperatorModel, x0, tol: float = DEFAULT_TOL) -> bool:
    """Finite-intersection property of the zero family at x0: the zero sets
    of all its member images have a common codomain point. The family is
    finite, so this is its intersection, in closed form. False shows the
    operator is no order isomorphism; True at every anchor of an invertible
    point matrix holds exactly when that matrix is monomial."""
    zf = zero_family(t, x0, tol=tol)
    return bool(zf.intersection_mask(t.codomain.space.size).any())
