"""Boundary exploration of noncompact sampled spaces through bounded coordinates.

A space is modeled by finitely many interior samples plus generator functions;
each point becomes its coordinate vector (generator values), mapped through
the fixed order isomorphism t -> t / (1 + |t|) of the extended line onto
[-1, 1]. Divergent directions are explored along explicit sequences: a
sequence whose compactified coordinates settle adds a boundary point (possibly
with +-infinity coordinates), deduplicated against the interior and against
other candidates. An accepted weighted-composition operator then extends its
recovered point bijection over interior plus added points by matching
normalized image coordinates, never reading the symbolic map directly.

A sequence's prefix of n terms is evaluated whole, once: each point is
checked against the space's declared interval and each generator is called
once on the whole prefix, whose values are scanned for nan. Everything after
that reads only the tail window, the last max(8, ceil(n/4)) terms: it alone
is compactified, screened for convergence and fitted, and the fit's design
(window abscissae, their 128-point selection, the evaluation point, the
degree) depends on n alone and is built once per sequence. Every coordinate
of a sequence is screened before any is fitted, so a rejected sequence is
never fitted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cones import OperatorModel, is_order_isomorphism
from .linalg import frozen
from .recovery import Decomposition, NotOrderIsomorphismError, decompose
from .spaces import FunctionFamily, PointSpace
from .symfn import SymFn, parse_symfn

__all__ = [
    "compactify_value",
    "uncompactify_value",
    "CompactPoint",
    "SampledSpace",
    "SequenceSpec",
    "embed",
    "limit_points",
    "NonconvergentNetError",
    "AmbiguousBoundaryError",
    "WeightedCompositionSpec",
    "BoundaryDecomposition",
    "compactified_decompose",
    "CONVERGENCE_TOL",
    "DEDUPE_TOL",
    "MAX_SEQUENCE_TERMS",
]

CONVERGENCE_TOL = 1e-3
DEDUPE_TOL = 1e-6
TAIL_FRAC = 0.25  # share of a sequence prefix that the limit is read from
MAX_SEQUENCE_TERMS = 10**7  # longest prefix a sequence may ask for (80 MB per array)
MATCH_MARGIN_FACTOR = 10.0  # boundary matches must win by this many dedupe_tol


def compactify_value(x: float) -> float:
    """Order isomorphism of [-inf, inf] onto [-1, 1]: t / (1 + |t|)."""
    if math.isnan(x):
        raise ValueError("nan has no place on the extended line")
    if math.isinf(x):
        return 1.0 if x > 0 else -1.0
    return x / (1.0 + abs(x))


def uncompactify_value(u: float) -> float:
    if not -1.0 <= u <= 1.0:
        raise ValueError("compactified values live in [-1, 1]")
    if u == 1.0:
        return math.inf
    if u == -1.0:
        return -math.inf
    return u / (1.0 - abs(u))


def _compactify_array(vals: np.ndarray) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    out = np.empty_like(vals)
    finite = np.isfinite(vals)
    out[finite] = vals[finite] / (1.0 + np.abs(vals[finite]))
    out[~finite] = np.sign(vals[~finite])
    return out


@dataclass(frozen=True)
class CompactPoint:
    """A point of the explored compact model: raw extended coordinates, one per
    generator, with origin "interior" or "added"."""

    coords: tuple
    origin: str
    label: str = ""

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        if any(math.isnan(c) for c in coords):
            raise ValueError("coordinates must not be nan")
        if self.origin not in ("interior", "added"):
            raise ValueError("origin must be 'interior' or 'added'")
        object.__setattr__(self, "coords", coords)

    @property
    def compact_coords(self) -> tuple:
        return tuple(compactify_value(c) for c in self.coords)

    def distance(self, other: "CompactPoint") -> float:
        a, b = self.compact_coords, other.compact_coords
        if len(a) != len(b):
            raise ValueError("points carry different coordinate counts")
        return max(abs(x - y) for x, y in zip(a, b)) if a else 0.0


def _as_symfn(f, var: str = "t") -> SymFn:
    if isinstance(f, SymFn):
        return f
    if isinstance(f, str):
        return parse_symfn(f, var=var)
    raise TypeError("generators must be SymFn or parseable strings")


@dataclass(frozen=True)
class SampledSpace:
    """Finite interior samples of a (possibly noncompact) 1-D space, plus the
    generator functions whose values coordinatize it. `domain` optionally
    bounds the underlying space as (lo, hi, lo_open, hi_open)."""

    samples: tuple
    generators: tuple
    name: str = "X"
    domain: Optional[tuple] = None

    def __post_init__(self):
        samples = tuple(float(s) for s in self.samples)
        gens = tuple(_as_symfn(g) for g in self.generators)
        if not samples:
            raise ValueError("at least one interior sample required")
        if not gens:
            raise ValueError("at least one generator required")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "generators", gens)
        if self.domain is not None:
            dom = tuple(self.domain)
            if len(dom) != 4:
                raise ValueError("domain is (lo, hi, lo_open, hi_open)")
            object.__setattr__(self, "domain", dom)
            for s in samples:
                self._check_in_domain(s)

    def _check_in_domain(self, x: float):
        if self.domain is None:
            return
        lo, hi, lo_open, hi_open = self.domain
        ok = (x > lo if lo_open else x >= lo) and (x < hi if hi_open else x <= hi)
        if not ok:
            raise ValueError(f"point {x} outside the declared domain")

    def point_space(self) -> PointSpace:
        return PointSpace(tuple(f"{self.name.lower()}{i}" for i in range(len(self.samples))))


@dataclass(frozen=True)
class SequenceSpec:
    """A sequence in the sampled space: an explicit point list or a rule in the
    index variable k (k = 1, 2, ...), truncated to a prefix of length n."""

    name: str
    n: int
    rule: Optional[SymFn] = None
    points: Optional[tuple] = None

    def __post_init__(self):
        if (self.rule is None) == (self.points is None):
            raise ValueError("exactly one of rule/points required")
        if self.n < 16:
            raise ValueError("prefix too short to judge convergence")
        if self.n > MAX_SEQUENCE_TERMS:
            raise ValueError(f"sequence {self.name!r}: prefix longer than "
                             f"{MAX_SEQUENCE_TERMS} terms")
        if self.rule is not None and not isinstance(self.rule, SymFn):
            object.__setattr__(self, "rule", _as_symfn(self.rule, var="k"))
        if self.points is not None:
            object.__setattr__(self, "points", tuple(float(p) for p in self.points))

    def prefix(self) -> np.ndarray:
        if self.rule is not None:
            return np.asarray(self.rule(np.arange(1, self.n + 1, dtype=float)), dtype=float)
        pts = np.asarray(self.points, dtype=float)
        if pts.shape[0] < self.n:
            raise ValueError("explicit point list shorter than the prefix length")
        return pts[: self.n]


def embed(samples: Sequence, generators: Sequence, name: str = "X") -> list:
    """One interior CompactPoint per sample (no deduplication: the embedding is
    injective exactly when the generators separate the samples)."""
    gens = [_as_symfn(g) for g in generators]
    xs = np.asarray(samples, dtype=float)
    vals = np.array([g(xs) for g in gens]).reshape(len(gens), len(xs)).T
    for i, j in np.argwhere(np.isnan(vals))[:1]:  # the first (sample, generator) pair
        raise ValueError(f"generator {gens[j].text!r} undefined at sample {samples[i]}")
    return [CompactPoint(tuple(row), "interior", label=f"{name.lower()}{i}")
            for i, row in enumerate(vals.tolist())]


class NonconvergentNetError(RuntimeError):
    """A sequence's compactified coordinate failed the tail-variation screen."""

    def __init__(self, seq_name: str, generator: str, variation: float, tol: float):
        self.seq_name = seq_name
        self.generator = generator
        self.variation = variation
        super().__init__(
            f"sequence {seq_name!r}: coordinate {generator!r} oscillates "
            f"(tail variation {variation:.3e} > {tol:.3e})")


class AmbiguousBoundaryError(RuntimeError):
    """Added-point matching found no candidate or no clear margin."""


def _fit_design(n: int) -> tuple:
    """What the limit fit of a prefix of n terms reads, which depends on n
    alone: the window length, the positions of at most 128 evenly spaced
    window terms (None when the window is that short; past 128 terms the
    rounded positions step by more than 1, so none repeats), the scaled
    abscissae of those terms, the evaluation point and the degree."""
    kcount = max(8, int(math.ceil(TAIL_FRAC * n)))
    k = np.arange(n - kcount, n) + 1.0
    sel = None
    if kcount > 128:
        sel = np.linspace(0, kcount - 1, 128).round().astype(int)
        k = k[sel]
    u = 1.0 / k
    center = u.mean()
    halfwidth = float(np.max(np.abs(u - center)))
    return kcount, sel, (u - center) / halfwidth, -center / halfwidth, min(3, k.shape[0] - 1)


def _tail_limit(tail: np.ndarray, design: tuple) -> float:
    """Limit estimate for a convergent compactified coordinate sequence.

    Reads only `tail`, the compactified tail window of the prefix that
    `design` (`_fit_design`) was built for. Fits a cubic in 1/k (k the
    1-based sequence index) over the window and evaluates at 1/k = 0.
    Algebraically convergent tails (c/k + ...) are polynomial in 1/k, so the
    estimate is accurate to rounding; geometrically convergent tails are
    constant at this window and come out exact. Iterated difference-based
    acceleration was rejected: on harmonic tails it stalls at float-noise
    level after one pass, far above the added-point tolerance.
    """
    _, sel, s, at, deg = design
    x = tail if sel is None else tail[sel]
    if np.max(x) - np.min(x) == 0.0:
        return float(x[-1])
    coeffs = np.polynomial.polynomial.polyfit(s, x, deg)
    limit = np.polynomial.polynomial.polyval(at, coeffs)
    return float(np.clip(limit, -1.0, 1.0))


def _screen_tail(tail: np.ndarray, conv_tol: float, seq_name: str,
                 coord_name: str) -> None:
    variation = float(np.max(tail) - np.min(tail))
    if not variation <= conv_tol:  # a nan in the tail is a rejection with variation inf
        raise NonconvergentNetError(seq_name, coord_name,
                                    math.inf if math.isnan(variation) else variation, conv_tol)


def _sequence_limit_coords(seq: SequenceSpec, pts: np.ndarray, gens,
                           conv_tol: float) -> tuple:
    """The compactified limit of each generator along the prefix `pts`.

    Each generator is called once on the whole prefix, and a nan anywhere in
    it is a rejection with variation inf. Only the tail window is then
    compactified and screened. Every coordinate is screened before any is
    fitted, so a rejected sequence is never fitted; the values that reach
    the fit are finite, so the fit cannot raise and the reorder changes no
    outcome. The fit's design is built once for the sequence.
    """
    design = _fit_design(pts.shape[0])
    tails = []
    for g in gens:
        vals = np.asarray(g(pts), dtype=float)
        if np.any(np.isnan(vals)):
            raise NonconvergentNetError(seq.name, g.text, math.inf, conv_tol)
        tails.append(_compactify_array(vals[-design[0]:]))
        _screen_tail(tails[-1], conv_tol, seq.name, g.text)
    return tuple(_tail_limit(tail, design) for tail in tails)


def limit_points(seqs: Sequence, generators: Sequence, interior: Sequence = (),
                 conv_tol: float = CONVERGENCE_TOL, dedupe_tol: float = DEDUPE_TOL,
                 name: str = "X", domain: Optional[tuple] = None) -> list:
    """Added boundary points discovered along the sequences.

    Each prefix must lie in `domain` (lo, hi, lo_open, hi_open) when one is
    given: the first term outside it is a ValueError naming the sequence,
    the 1-based index k and the value (a nan term is left to the nan check).
    Each coordinate is compactified, screened for tail convergence,
    extrapolated, and snapped to +-infinity within dedupe_tol of +-1.
    Candidates within dedupe_tol (in compactified coordinates) of an interior
    point are rediscoveries, not boundary; among the rest, duplicates collapse
    onto the earliest sequence.
    """
    return [b for b, _, _ in _sourced_limit_points(seqs, generators, interior, conv_tol,
                                                   dedupe_tol, name, domain)]


def _sourced_limit_points(seqs, generators, interior, conv_tol, dedupe_tol, name,
                          domain) -> list:
    """limit_points as (point, source sequence, its prefix) triples; each
    sequence's prefix is evaluated once."""
    gens = [_as_symfn(g) for g in generators]
    added = []
    for idx, seq in enumerate(seqs):
        pts = seq.prefix()
        if domain is not None:
            lo, hi, lo_open, hi_open = domain
            out = np.flatnonzero((pts <= lo if lo_open else pts < lo)
                                 | (pts >= hi if hi_open else pts > hi))
            if out.size:
                raise ValueError(f"sequence {seq.name!r}: term k={out[0] + 1} "
                                 f"({float(pts[out[0]])}) is outside the declared interval")
        comp_coords = _sequence_limit_coords(seq, pts, gens, conv_tol)
        raw = []
        for c in comp_coords:
            if abs(abs(c) - 1.0) <= dedupe_tol:
                raw.append(math.inf if c > 0 else -math.inf)
            else:
                raw.append(uncompactify_value(c))
        cand = CompactPoint(tuple(raw), "added",
                            label=seq.name or f"{name.lower()}+#{idx}")
        if any(cand.distance(p) <= dedupe_tol for p in interior):
            continue
        if any(cand.distance(p) <= dedupe_tol for p, _, _ in added):
            continue
        added.append((cand, seq, pts))
    return added


@dataclass(frozen=True)
class WeightedCompositionSpec:
    """Continuum form of an operator T f = weight * (f o pullback).

    `pullback` maps codomain points to domain points (the inverse of the
    underlying point map) and `weight` is a function on the codomain. An
    instance is only used to evaluate images: on the samples it must restrict
    to a matrix supported on the sample set, and along boundary sequences it
    provides the image-value tables the matching works from.
    """

    pullback: SymFn
    weight: SymFn

    def __post_init__(self):
        object.__setattr__(self, "pullback", _as_symfn(self.pullback, var="t"))
        object.__setattr__(self, "weight", _as_symfn(self.weight, var="t"))

    def matrix_on(self, x_space: SampledSpace, y_space: SampledSpace,
                  tol: float = 1e-9) -> np.ndarray:
        xs = np.asarray(x_space.samples, dtype=float)
        ys = np.asarray(y_space.samples, dtype=float)
        targets = self.pullback(ys)
        cols = np.argmin(np.abs(xs[None, :] - targets[:, None]), axis=1)
        # negated, so a nan image (which no distance bounds) is refused too
        for i in np.flatnonzero(~(np.abs(xs[cols] - targets) <= tol))[:1]:
            raise ValueError(f"pullback image {float(targets[i])} of sample "
                             f"{y_space.samples[i]} is not a domain sample")
        m = np.zeros((len(ys), len(xs)))
        m[np.arange(len(ys)), cols] = self.weight(ys)
        return m

    def image_values(self, f: SymFn, ys: np.ndarray) -> np.ndarray:
        """(T f)(y) = weight(y) * f(pullback(y)) along codomain points."""
        ys = np.asarray(ys, dtype=float)
        return np.asarray(self.weight(ys), dtype=float) * np.asarray(
            f(self.pullback(ys)), dtype=float)

    def one_values(self, ys: np.ndarray) -> np.ndarray:
        return np.asarray(self.weight(np.asarray(ys, dtype=float)), dtype=float)


@dataclass(frozen=True)
class BoundaryDecomposition:
    """Decomposition of an accepted operator over interior plus added points."""

    interior: Decomposition
    interior_labels: tuple  # (codomain label, domain label) pairs
    added_matching: tuple   # (codomain added label, domain added label) pairs
    added_domain: tuple
    added_codomain: tuple
    added_weights: tuple
    residual_interior: float
    residual_added: float
    bounded_screen: dict


def _bounded_screen(weight: np.ndarray) -> dict:
    w = np.asarray(weight, dtype=float)
    wmin = float(np.min(w))
    wmax = float(np.max(w))
    c = min(wmin, 1.0 / wmax) if wmin > 0 and wmax > 0 else 0.0
    return {"c": c, "passed": bool(c > 0.0), "weight_min": wmin, "weight_max": wmax}


def compactified_decompose(op: WeightedCompositionSpec, x_space: SampledSpace,
                           y_space: SampledSpace, seqs_x: Sequence, seqs_y: Sequence,
                           tol: float = 1e-9, conv_tol: float = CONVERGENCE_TOL,
                           dedupe_tol: float = DEDUPE_TOL) -> BoundaryDecomposition:
    """Interior decomposition plus boundary matching for a sampled operator.

    The operator must restrict to an accepted order isomorphism on the sample
    models. Interior recovery runs on the matrix alone; each added codomain
    point is then matched to an added domain point by nearest neighbor between
    its normalized image coordinates (image values divided by the image of the
    constants, extrapolated along its sequence) and the domain boundary
    coordinates, in compactified space, with a margin requirement.
    """
    matrix = op.matrix_on(x_space, y_space, tol=tol)
    dom = FunctionFamily.full(x_space.point_space())
    cod = FunctionFamily.full(y_space.point_space())
    t = OperatorModel(frozen(matrix), domain=dom, codomain=cod, basis="point")
    cert = is_order_isomorphism(t, tol=tol)
    if not cert.accept:
        raise NotOrderIsomorphismError(cert)
    interior = decompose(t, tol=tol, cert=cert)

    interior_x = embed(x_space.samples, x_space.generators, name=x_space.name)
    interior_y = embed(y_space.samples, y_space.generators, name=y_space.name)
    for p in interior_x + interior_y:
        if any(math.isinf(c) for c in p.coords):
            raise ValueError(f"interior point {p.label} has an unbounded coordinate")

    added_x = limit_points(seqs_x, x_space.generators, interior=interior_x,
                           conv_tol=conv_tol, dedupe_tol=dedupe_tol, name=x_space.name,
                           domain=x_space.domain)
    sourced_y = _sourced_limit_points(seqs_y, y_space.generators, interior_y,
                                      conv_tol, dedupe_tol, y_space.name, y_space.domain)

    # normalized image coordinates of each added codomain point, along its sequence
    matching = []
    residual_added = 0.0
    added_weights = []
    gens_x = [_as_symfn(g) for g in x_space.generators]
    for b, seq, ys in sourced_y:
        design = _fit_design(ys.shape[0])
        tone = op.one_values(ys)
        norm_coords = []
        for f in gens_x:  # screen then fit, image by image: a nan ratio fails the screen
            comp = _compactify_array((op.image_values(f, ys) / tone)[-design[0]:])
            _screen_tail(comp, conv_tol, seq.name, f"T-image/{f.text}")
            norm_coords.append(_tail_limit(comp, design))
        dists = []
        for a in added_x:
            ac = a.compact_coords
            dists.append(max(abs(c - u) for c, u in zip(norm_coords, ac)) if ac else 0.0)
        if not dists:
            raise AmbiguousBoundaryError(
                f"no added domain candidates for boundary point {b.label!r}")
        order = np.argsort(np.asarray(dists), kind="stable")
        best = int(order[0])
        if dists[best] > conv_tol:
            raise AmbiguousBoundaryError(
                f"boundary point {b.label!r}: best candidate at distance {dists[best]:.3e}")
        if (len(dists) > 1
                and dists[int(order[1])] - dists[best] < MATCH_MARGIN_FACTOR * dedupe_tol):
            raise AmbiguousBoundaryError(
                f"boundary point {b.label!r}: matching margin too small")
        matching.append((b.label, added_x[best].label))
        residual_added = max(residual_added, float(dists[best]))
        wlim = _tail_limit(_compactify_array(tone[-design[0]:]), design)
        added_weights.append(uncompactify_value(wlim) if abs(abs(wlim) - 1.0) > dedupe_tol
                             else math.copysign(math.inf, wlim))

    sig = interior.sigma_array()
    interior_pairs = tuple(
        (cod.space.labels[y], dom.space.labels[int(sig[y])]) for y in range(len(sig)))
    return BoundaryDecomposition(
        interior=interior,
        interior_labels=interior_pairs,
        added_matching=tuple(matching),
        added_domain=tuple(added_x),
        added_codomain=tuple(b for b, _, _ in sourced_y),
        added_weights=tuple(added_weights),
        residual_interior=interior.residual,
        residual_added=residual_added,
        bounded_screen=_bounded_screen(np.asarray(interior.weight, dtype=float)),
    )

