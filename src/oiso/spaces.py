"""Finite models: point spaces, function families, zero sets.

A compact space is modeled by a finite list of labeled points (optionally with
a metric); a function subspace by a matrix of linearly independent generator
rows, one column per point. Everything downstream (cones, recovery,
classification) works over these finite models.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import linalg

DEFAULT_TOL = 1e-9
METRIC_TOL = 1e-12

__all__ = [
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "PointSpace",
    "FunctionVec",
    "FunctionFamily",
    "ZeroSet",
    "span_membership",
    "cone_membership",
    "build_lipschitz_family",
    "values_of",
]


class DimensionMismatchError(ValueError):
    """A vector/matrix does not match the space or family it is used with."""


@dataclass(frozen=True)
class PointSpace:
    """Finite labeled point set, optionally metrized.

    The metric, when present, must be symmetric, zero on the diagonal,
    nonnegative, and satisfy the triangle inequality, each up to
    linalg.cutoff(metric, METRIC_TOL).
    """

    labels: tuple
    metric: Optional[np.ndarray] = None

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 1:
            raise ValueError("a point space needs at least one point")
        if len(set(labels)) != len(labels):
            raise ValueError("point labels must be distinct")
        if self.metric is not None:
            d = np.asarray(self.metric, dtype=float)
            n = len(labels)
            if d.shape != (n, n):
                raise DimensionMismatchError("metric shape must match label count")
            cut = linalg.cutoff(d, METRIC_TOL)
            if not np.allclose(d, d.T, atol=cut):
                raise ValueError("metric must be symmetric")
            if np.any(np.abs(np.diag(d)) > cut):
                raise ValueError("metric diagonal must be zero")
            if np.any(d < -cut):
                raise ValueError("metric must be nonnegative")
            for k in range(n):
                if np.any(d > d[:, [k]] + d[[k], :] + cut):
                    raise ValueError("metric violates the triangle inequality")
            d = d.copy()
            d.setflags(write=False)
            object.__setattr__(self, "metric", d)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, point) -> int:
        """Resolve a point given as index or label."""
        if isinstance(point, (int, np.integer)):
            i = int(point)
            if not 0 <= i < self.size:
                raise IndexError(f"point index {i} out of range")
            return i
        try:
            return self.labels.index(str(point))
        except ValueError:
            raise KeyError(f"unknown point label {point!r}") from None

    @classmethod
    def discrete(cls, n: int, prefix: str = "x") -> "PointSpace":
        return cls(tuple(f"{prefix}{i + 1}" for i in range(n)))

    @classmethod
    def grid(cls, values: Sequence[float], prefix: str = "t") -> "PointSpace":
        """1-D sample grid with the absolute-difference metric."""
        vals = [float(v) for v in values]
        d = np.abs(np.subtract.outer(vals, vals))
        return cls(tuple(f"{prefix}{i}" for i in range(len(vals))), metric=d)

    def __eq__(self, other):
        if not isinstance(other, PointSpace):
            return NotImplemented
        if self.labels != other.labels:
            return False
        if (self.metric is None) != (other.metric is None):
            return False
        return self.metric is None or np.array_equal(self.metric, other.metric)

    def __hash__(self):
        return hash(self.labels)


def values_of(f) -> np.ndarray:
    """Coerce a FunctionVec or raw sequence to a values array."""
    if isinstance(f, FunctionVec):
        return f.values
    arr = np.asarray(f)
    if arr.dtype != object:
        arr = np.asarray(arr, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("function values must be finite")
    return arr


@dataclass(frozen=True)
class FunctionVec:
    """A function on a finite point space, stored as its value vector."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1:
            raise ValueError("function values must be a flat vector")
        if v.dtype != object:
            v = np.asarray(v, dtype=float)
            if not np.all(np.isfinite(v)):
                raise ValueError("function values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def exact(self) -> bool:
        return self.values.dtype == object

    def __eq__(self, other):
        if not isinstance(other, FunctionVec):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self):
        # Python's numeric hash agrees across int, Fraction and float, and
        # for 0.0 and -0.0, as `__eq__` does
        return hash(tuple(self.values.tolist()))


class FunctionFamily:
    """Linearly independent generators of a function subspace.

    `generators` is a (rank x n_points) matrix, one generator per row; float64
    or exact (object dtype of Fractions). A family is *full* when its rank
    equals the point count, in which case its span is every function. `rank`
    and `exact` are recorded when the family is built, so they and `is_full`
    read no matrix.

    A full family's `coefficient_matrix()` is inv(G^T), which maps value
    vectors to generator coefficients. A family computes it at most once
    and keeps it, in either arithmetic. The constructor checks the rank
    when the family is built, by one rule: a float G by `linalg.rank`; an
    exact G that reads as monomial (`linalg.monomial`, from `_nonzero`, the
    `!= 0` pattern a parser hands over, when given) is independent; any
    other square exact G by one Gauss-Jordan pass over [G^T | I]
    (`linalg.exact_inv_or_rank`), whose right half is kept as the inverse;
    and any other exact G by `linalg.exact_rank`. The one exception is
    `_unchecked`, whose rank an operator proves (`OperatorModel`). `tol` is
    the float rank check's only: the family keeps no tolerance, and
    `has_constants` and `coefficients_of` take theirs from the caller.
    """

    def __init__(self, space: PointSpace, generators, names: Optional[Sequence[str]] = None,
                 tol: float = DEFAULT_TOL, _nonzero=None):
        gen = np.asarray(generators)
        if gen.dtype != object:
            gen = np.asarray(gen, dtype=float)
            if not np.all(np.isfinite(gen)):
                raise ValueError("generator values must be finite")
        if gen.ndim != 2:
            raise ValueError("generators must form a matrix")
        if gen.shape[1] != space.size:
            raise DimensionMismatchError("generator columns must match the point count")
        inv_t = None
        if gen.dtype != object:
            r = linalg.rank(gen, tol=tol)
        elif linalg.monomial(gen, _nonzero) is not None:
            r = gen.shape[0]
        elif gen.shape[0] == gen.shape[1]:
            inv_t, r = linalg.exact_inv_or_rank(gen.T)
        else:
            r = linalg.exact_rank(gen)
        if r != gen.shape[0]:
            raise ValueError(
                f"generators must be linearly independent (rank {r} < {gen.shape[0]})")
        self._adopt(space, gen.copy(), gen.shape[0], gen.dtype == object, names)
        if inv_t is not None:
            self._inv_t = linalg.frozen(inv_t)

    @classmethod
    def _unchecked(cls, space: PointSpace, gen: np.ndarray, names) -> "FunctionFamily":
        """A square exact family taken as it is, with no rank check: private
        to `serialize.parse_operator`, for a codomain whose operator proves
        its rank."""
        fam = cls.__new__(cls)
        fam._adopt(space, gen, gen.shape[0], True, names)
        return fam

    def _adopt(self, space: PointSpace, gen: Optional[np.ndarray], rank: int, exact: bool, names):
        """Take a validated, independent generator matrix as this family's
        own; None stands for the identity of a full family, built on first
        read of `generators`."""
        if gen is not None:
            gen.setflags(write=False)
        self.space = space
        self._generators = gen
        self.rank = rank
        self.exact = exact
        self.names = tuple(names) if names is not None else tuple(
            f"g{i}" for i in range(rank))
        if len(self.names) != rank:
            raise ValueError("one name per generator required")
        self._inv_t = None

    @property
    def generators(self) -> np.ndarray:
        """The (rank x n_points) generator matrix, read-only."""
        if self._generators is None:
            gen = linalg.zeros_like_mode((self.rank, self.rank), self.exact)
            np.fill_diagonal(gen, Fraction(1) if self.exact else 1.0)
            self._generators = linalg.frozen(gen)
        return self._generators

    @property
    def is_full(self) -> bool:
        return self.rank == self.space.size

    def coefficient_matrix(self) -> np.ndarray:
        """inv(G^T) of a full family, read-only: the generator coefficients
        of a function are this matrix times its values."""
        if self._inv_t is None:
            self._inv_t = linalg.frozen(linalg.inv(self.generators.T))
        return self._inv_t

    def ones(self) -> np.ndarray:
        if self.exact:
            return np.array([Fraction(1)] * self.space.size, dtype=object)
        return np.ones(self.space.size)

    def values(self, coeffs) -> np.ndarray:
        """Values of the span element with the given generator coefficients."""
        c = np.asarray(coeffs)
        if c.shape != (self.rank,):
            raise DimensionMismatchError("one coefficient per generator required")
        if self.exact or c.dtype == object:
            return linalg.mat_vec(self.generators.T, c)
        return c @ self.generators

    def has_constants(self, tol: float = DEFAULT_TOL) -> bool:
        ok, _ = span_membership(self, self.ones(), tol=tol)
        return ok

    def coefficients_of(self, f, tol: float = DEFAULT_TOL):
        ok, c = span_membership(self, f, tol=tol)
        if not ok:
            raise ValueError("function is not in the span of the family")
        return c

    @classmethod
    def full(cls, space: PointSpace, exact: bool = False) -> "FunctionFamily":
        """The full family in point coordinates: indicator generators. The
        identity is independent by construction, so its rank is not checked,
        and the family records its rank and arithmetic without it: the
        identity `generators` is built on first read (point-basis paths read
        none) and then kept, read-only."""
        fam = cls.__new__(cls)
        fam._adopt(space, None, space.size, exact,
                   tuple(f"e_{lbl}" for lbl in space.labels))
        return fam


@dataclass(frozen=True)
class ZeroSet:
    """Points where a function vanishes (`of`: |value| <= tol in float mode)."""

    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool).copy()
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    @classmethod
    def of(cls, f, tol: float = DEFAULT_TOL) -> "ZeroSet":
        v = values_of(f)
        if v.dtype == object:
            mask = np.array([x == 0 for x in v], dtype=bool)
        else:
            mask = np.abs(v) <= tol
        return cls(mask)

    def __eq__(self, other):
        if not isinstance(other, ZeroSet):
            return NotImplemented
        return np.array_equal(self.mask, other.mask)

    def __hash__(self):
        return hash(self.mask.tobytes())

    def indices(self) -> np.ndarray:
        return np.nonzero(self.mask)[0]

    def intersect(self, other: "ZeroSet") -> "ZeroSet":
        return ZeroSet(self.mask & other.mask)

    @property
    def empty(self) -> bool:
        return not bool(self.mask.any())


def span_membership(fam: FunctionFamily, f, tol: float = DEFAULT_TOL):
    """Is `f` in the span of the family? Returns (bool, coefficients-or-None).
    A full family spans every function, and its coefficients are
    `coefficient_matrix()` times the values. Any other family solves
    G^T c = f by `linalg.solve`: a float `f` is in the span when the
    least-squares residual is at most linalg.cutoff(f, tol), so alpha * f
    gets the answer of f."""
    v = values_of(f)
    if v.shape != (fam.space.size,):
        raise DimensionMismatchError("value vector must match the point count")
    if fam.exact and v.dtype != object:  # values_of made it float
        raise TypeError("exact family requires exact function values")
    if fam.is_full:
        return True, linalg.mat_vec(fam.coefficient_matrix(), v)
    c = linalg.solve(fam.generators.T, v, tol)
    return (c is not None), c


def cone_membership(fam: FunctionFamily, coeffs, tol: float = DEFAULT_TOL) -> bool:
    """Is the span element with these coefficients nonnegative at every point?
    Float values count as negative below -linalg.cutoff(values, tol)."""
    v = fam.values(coeffs)
    if v.dtype == object:
        return all(x >= 0 for x in v)
    return bool(np.all(v >= -linalg.cutoff(v, tol)))


def _independent_subset(rows, names, n, tol):
    """Greedy prefix-independent selection preserving order."""
    kept, kept_names = [], []
    for row, name in zip(rows, names):
        cand = np.array(kept + [row], dtype=float)
        if linalg.rank(cand, tol=tol) == len(kept) + 1:
            kept.append(row)
            kept_names.append(name)
        if len(kept) == n:
            break
    return kept, kept_names


def build_lipschitz_family(space: PointSpace, seeds: Sequence = (),
                           tol: float = DEFAULT_TOL) -> FunctionFamily:
    """Model of the Lipschitz functions on a finite metric space.

    On a finite metric space every real function is Lipschitz, so the model is
    the full space. Generators are assembled in order: constants, caller seeds,
    the distance functions d(., x_j), then point indicators as completion when
    a degenerate metric leaves the previous rows rank-deficient. The result
    contains constants and separates points from closed sets (full rank).
    """
    if space.metric is None:
        raise ValueError("a metric is required to build a Lipschitz family")
    n = space.size
    rows = [np.ones(n)]
    names = ["1"]
    for i, s in enumerate(seeds):
        rows.append(np.asarray(values_of(s), dtype=float))
        names.append(f"seed{i}")
    for j in range(n):
        rows.append(np.asarray(space.metric[:, j], dtype=float))
        names.append(f"d(.,{space.labels[j]})")
    for j in range(n):
        rows.append(np.eye(n)[j])
        names.append(f"ind({space.labels[j]})")
    kept, kept_names = _independent_subset(rows, names, n, tol)
    fam = FunctionFamily(space, np.array(kept), names=kept_names, tol=tol)
    if fam.rank != n:  # pragma: no cover - indicators always complete the rank
        raise RuntimeError("completion failed to reach full rank")
    return fam
