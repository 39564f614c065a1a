"""Positivity cones of function families and order-isomorphism certificates.

The positivity cone of a family lives in coefficient space: all coefficient
vectors whose span element is nonnegative at every point, i.e. {c : A c >= 0}
with A = G^T, the point evaluations of the generators G.

An operator between families is certified as an order isomorphism exactly when
it maps the domain cone onto the codomain cone; for a linear bijection the two
into-inclusions (forward and inverse) force equality, so the certificate
checks both and a rejection carries a concrete witness function. By Farkas'
lemma, T maps {c : A c >= 0} into the codomain cone exactly when B = G_Y^T M
equals Lambda A for some entrywise nonnegative Lambda: every codomain point
evaluation of T is a nonnegative combination of domain point evaluations.
On full families Lambda is the point matrix itself. On proper subfamilies
one pass per side decides it (`_farkas_witness`): A and B go to float once
(an exact matrix at its own binary scale, `linalg.scaled_float`), and one
non-negative least-squares fit per row of B settles what it can. A float
side with a row left unsettled builds one HiGHS LP, whose most negative
value decides; an exact side decides those rows by `linalg.farkas`, a
simplex that pivots integer rows and builds Fractions only to read its
witness, and builds the LP only to rank two or more.

An operator reads its matrix as a weighted permutation (`linalg.monomial`)
once, when it is built, and holds one by that read and its inverse's. A
parsed exact matrix is read from the boolean zero pattern its parse hands
over, not by asking each `Fraction` for its truth. Its dense matrices are
built only if read. Whether the read exists, not the arithmetic, picks the
path: a point-basis weighted permutation's certificate, recovery, T1 and
isometry reduction are O(n) in the two reads, in float and exact mode alike,
and a matrix that is not monomial is scanned whole.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .linalg import mat_mat, mat_vec
from .spaces import DEFAULT_TOL, DimensionMismatchError, FunctionFamily, PointSpace, values_of

__all__ = [
    "ConeRep",
    "cone_rep",
    "OperatorModel",
    "Certificate",
    "is_order_isomorphism",
]


@dataclass(frozen=True)
class ConeRep:
    """H-description of a positivity cone in coefficient space.

    facet_normals: rows are the point evaluations a (feasible c satisfy
    a . c >= 0), one per point, in point order; `spaces.cone_membership`
    tests a coefficient vector against them.
    extreme_rays: always None; the certificate needs no V-description.
    """

    facet_normals: np.ndarray
    extreme_rays: Optional[np.ndarray] = None


def cone_rep(fam: FunctionFamily, tol: float = DEFAULT_TOL) -> ConeRep:
    """The point-evaluation description of the family's positivity cone.

    `tol` is unused: the description is exact in either arithmetic.
    """
    return ConeRep(fam.generators.T)


class OperatorModel:
    """A linear bijection between two function families.

    basis "generator": the matrix maps domain generator coefficients to
    codomain generator coefficients (column convention, c' = M @ c).
    basis "point": both families are full and the matrix maps value vectors to
    value vectors (v' = M @ v).

    A weighted permutation is held by its reads: `monomial`, the matrix's
    `linalg.monomial` read (columns, entries), and `inverse_monomial`, the
    inverse's (`linalg.monomial_inv`); both are None for any other matrix.
    `matrix` and `inverse_matrix` are read-only, built on first read: from
    a read, or by `linalg.dense_inv`.

    The constructor proves the operator invertible, so a singular one is
    reported when it is built. An exact generator-basis operator between
    full families is proved by its point matrix P = G_Y^T M inv(G_X^T),
    formed at once (`as_point`): with G_X^T invertible, G_Y^T M = P G_X^T,
    so P is invertible exactly when G_Y is independent and M invertible.
    Neither M nor G_Y is eliminated for this proof, and a singular P
    raises the error of the check it stands for, the codomain's rank first,
    then M's inverse. Any other matrix that is not monomial gets its dense
    inverse at once. A given matrix is kept as the operator's own: a
    writeable array is copied, a read-only one kept. `_nonzero`, private to
    `serialize.parse_operator`, is the matrix's `!= 0` pattern, which the
    read takes in place of the entries.
    """

    def __init__(self, matrix, domain: FunctionFamily, codomain: FunctionFamily,
                 basis: str = "point", _nonzero=None):
        m = self._validated(matrix, domain, codomain, basis)
        if m.flags.writeable and (m is matrix or m.base is not None):
            m = m.copy()  # the caller's array or a view of someone's
        self._set(m, None, linalg.monomial(m, _nonzero), domain, codomain, basis)
        if self.exact and basis == "generator" and domain.is_full and codomain.is_full:
            self.as_point()  # a singular P raises here
        elif self.monomial is None:
            self.inverse_matrix  # a singular matrix raises here

    @staticmethod
    def _validated(entries, domain: FunctionFamily, codomain: FunctionFamily,
                   basis: str, shape=None) -> np.ndarray:
        """The operator matrix, or a weighted permutation's weights for a
        matrix of `shape`, as an array checked against the families."""
        if basis not in ("point", "generator"):
            raise ValueError("basis must be 'point' or 'generator'")
        m = np.asarray(entries)
        if m.dtype != object:
            m = np.asarray(m, dtype=float)
            if not np.all(np.isfinite(m)):
                raise ValueError("operator entries must be finite")
        shape = m.shape if shape is None else shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("operator matrix must be square")
        exact = m.dtype == object
        if exact != domain.exact or exact != codomain.exact:
            raise ValueError("operator and families must share one arithmetic mode")
        if basis == "point":
            if not (domain.is_full and codomain.is_full):
                raise ValueError("point basis requires full families")
            if shape != (codomain.space.size, domain.space.size):
                raise DimensionMismatchError("point matrix shape must match the spaces")
        elif domain.rank != codomain.rank:
            raise DimensionMismatchError("domain and codomain ranks must agree")
        elif shape != (codomain.rank, domain.rank):
            raise DimensionMismatchError("generator matrix shape must match the ranks")
        return m

    def _set(self, matrix, inverse, read, domain, codomain, basis, inverse_read=None):
        """Hold a validated operator by its `linalg.monomial` read, or, when
        the read is None, by its matrix and its dense inverse if given
        (`inverse_matrix` builds it otherwise); the inverse's read is
        derived unless given."""
        if read is not None and inverse_read is None:
            inverse_read = linalg.monomial_inv(*read)
        self._matrix = None if matrix is None else linalg.frozen(matrix)
        self._inverse = None if inverse is None else linalg.frozen(inverse)
        self.monomial = read
        self.inverse_monomial = inverse_read
        self.basis = basis
        self.domain = domain
        self.codomain = codomain
        self._point = None

    @property
    def exact(self) -> bool:
        return self.domain.exact

    @property
    def size(self) -> int:
        return self.domain.rank

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = linalg.frozen(linalg.monomial_matrix(*self.monomial))
        return self._matrix

    @property
    def inverse_matrix(self) -> np.ndarray:
        """The dense inverse, read-only. Raises SingularMatrixError."""
        if self._inverse is None:
            self._inverse = linalg.frozen(
                linalg.dense_inv(self.matrix) if self.inverse_monomial is None
                else linalg.monomial_matrix(*self.inverse_monomial))
        return self._inverse

    def inverse(self) -> "OperatorModel":
        """The inverse operator: the reads and the matrices built so far, swapped."""
        t = type(self).__new__(type(self))
        t._set(self._inverse if self.monomial is not None else self.inverse_matrix,
               self._matrix, self.inverse_monomial, self.codomain,
               self.domain, self.basis, inverse_read=self.monomial)
        return t

    def apply_values(self, v) -> np.ndarray:
        """Values of T f at the codomain points, from the values of f. A
        monomial point matrix is applied along its read
        (`linalg.monomial_mat_vec`)."""
        v = values_of(v)
        if self.basis == "point":
            if self.monomial is not None:
                return linalg.monomial_mat_vec(*self.monomial, v)
            return mat_vec(self.matrix, v)
        c = self.domain.coefficients_of(v)
        return self.codomain.values(mat_vec(self.matrix, c))

    def image_values(self, coeffs) -> np.ndarray:
        """Values of T f at the codomain points, from domain coefficients."""
        if self.basis == "point":
            return mat_vec(self.matrix, np.asarray(coeffs))
        return self.codomain.values(mat_vec(self.matrix, np.asarray(coeffs)))

    def point_matrix(self) -> np.ndarray:
        """The value-to-value matrix G_Y^T M inv(G_X^T) (requires full
        families); inv(G_X^T) is the domain's `coefficient_matrix()`."""
        return self._point_product()[0]

    def _point_product(self):
        """(`point_matrix()`, its `!= 0` pattern or None): an exact
        generator-basis product is one `linalg.mat_mat_mat` chain, which
        reads the pattern from its integers. A float product that overflows
        is returned as it is, without a warning: `as_point` reports it."""
        if self.basis == "point":
            return self.matrix, None
        if not (self.domain.is_full and self.codomain.is_full):
            raise ValueError("point matrix requires full families")
        inv_t = self.domain.coefficient_matrix()
        with np.errstate(over="ignore", invalid="ignore"):
            return linalg.mat_mat_mat(self.codomain.generators.T, self.matrix, inv_t)

    def as_point(self) -> "OperatorModel":
        """The same operator between the full indicator families, built once.
        The point matrix P is `point_matrix()`; in float mode it must be
        finite, as in the generic constructor. A monomial P's inverse is
        read from its pattern. Any other exact P is inverted by one
        elimination of its own (`linalg.exact_inv_or_rank`), and a singular
        one raises as the class docstring says. Any other float P's inverse
        is the point matrix of the inverse operator, G_X^T inv(M) inv(G_Y^T),
        from the inverses this operator and its families hold, and must not
        overflow."""
        if self.basis == "point":
            return self
        if self._point is None:
            dom = FunctionFamily.full(self.domain.space, exact=self.exact)
            cod = FunctionFamily.full(self.codomain.space, exact=self.exact)
            p, nonzero = self._point_product()
            p = linalg.frozen(self._validated(p, dom, cod, "point"))
            read = linalg.monomial(p, nonzero)
            point = OperatorModel.__new__(OperatorModel)
            with np.errstate(over="ignore", invalid="ignore"):  # finite_inverse reports it
                inv = None
                if read is None and self.exact:
                    inv, _ = linalg.exact_inv_or_rank(p)
                    if inv is None:  # one of the two raises
                        FunctionFamily(self.codomain.space, self.codomain.generators)
                        self.inverse_matrix
                elif read is None:
                    inv = linalg.finite_inverse(self.inverse().point_matrix())
                point._set(p, inv, read, dom, cod, "point")
            self._point = point
        return self._point

    @classmethod
    def weighted_permutation(cls, sigma, weight, domain: Optional[FunctionFamily] = None,
                             codomain: Optional[FunctionFamily] = None) -> "OperatorModel":
        """Point-basis operator (T f)(y) = weight[y] * f(sigma[y]), held by its
        read: sigma maps codomain point indices to domain point indices. The
        weights get the generic checks; a zero weight goes to the generic
        constructor, which reports the operator singular."""
        sig = np.array(sigma, dtype=int)  # copies, as w below: the read is the operator's own
        n = sig.shape[0]
        if sorted(sig.tolist()) != list(range(n)):
            raise ValueError("sigma must be a bijection of point indices")
        w = np.array(weight)
        if w.shape != (n,):
            raise ValueError("one weight per point required")
        exact = w.dtype == object
        if domain is None:
            domain = FunctionFamily.full(PointSpace.discrete(n, "x"), exact=exact)
        if codomain is None:
            codomain = FunctionFamily.full(PointSpace.discrete(n, "y"), exact=exact)
        w = cls._validated(w, domain, codomain, "point", shape=(n, n))
        if np.count_nonzero(w) != n:
            return cls(linalg.monomial_matrix(sig, w), domain, codomain, "point")
        t = cls.__new__(cls)
        t._set(None, None, (sig, w), domain, codomain, "point")
        return t


@dataclass(frozen=True)
class Certificate:
    """Outcome of the cone test: ACCEPT, or REJECT with a witness.

    A rejection witness is a function in one family's positivity cone whose
    image (side "domain": under T; side "codomain": under the inverse) is
    negative at `point` in the other model, i.e. it leaves the cone there.
    """

    accept: bool
    mode: str  # always "exact"; kept in the oiso/1 report
    arithmetic: str  # "rational" | "float"
    witness_coeffs: Optional[tuple] = None
    witness_values: Optional[tuple] = None
    side: Optional[str] = None
    point: Optional[int] = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        out = {
            "schema": "oiso/1",
            "accept": self.accept,
            "mode": self.mode,
        }
        if not self.accept:
            out["witness"] = [_jsonable(v) for v in (self.witness_values or ())]
            out["witness_side"] = self.side
            out["witness_point"] = self.point
            out["detail"] = self.detail
        return out


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _nonneg_violation(m, tol: float):
    """Most negative entry of a matrix, as (i, j) or None; of tied entries,
    the first in row-major order. Float mode reads every entry within
    linalg.cutoff of the minimum as tied, so rounding does not choose."""
    if m.dtype == object:
        worst = None
        for i in range(m.shape[0]):
            row = m[i]
            for j in range(m.shape[1]):
                # ints and Fractions both carry the sign on .numerator
                if row[j].numerator < 0 and (worst is None or row[j] < m[worst]):
                    worst = (i, j)
        return worst
    bound = linalg.cutoff(m, tol)
    least = m.min()
    if least >= -bound:
        return None
    i, j = np.unravel_index(np.argmax(m <= least + bound), m.shape)
    return int(i), int(j)


def _point_violation(t: OperatorModel, tol: float):
    """(side, i, j) for the most negative entry of the point matrix, else of
    its inverse, or None when both are nonnegative.

    A monomial matrix and its inverse are scanned along their n read
    entries. Those are all the nonzero entries, one per row, so the entries
    column has the dense matrix's most negative value, first held by the
    same row, and its `linalg.cutoff`. A matrix that is not monomial is
    scanned whole; only then is a dense matrix read.
    """
    for read, side in ((t.monomial, "domain"), (t.inverse_monomial, "codomain")):
        if read is None:
            hit = _nonneg_violation(t.matrix if side == "domain" else t.inverse_matrix, tol)
        else:
            cols, entries = read
            hit = _nonneg_violation(entries[:, None], tol)
            if hit is not None:
                hit = (hit[0], int(cols[hit[0]]))
        if hit is not None:
            return (side, *hit)
    return None


def is_order_isomorphism(t: OperatorModel, tol: float = DEFAULT_TOL) -> Certificate:
    """Certify that T maps the domain positivity cone onto the codomain cone.

    Point basis, and generator basis on full families through `as_point()`:
    T is an order isomorphism exactly when T and its inverse are entrywise
    nonnegative, i.e. T is a weighted permutation with positive weights; a
    rejection's witness is a point indicator. Generator basis on proper
    subfamilies: each side (T, then its inverse) is decided by the Farkas
    alternative, either Lambda >= 0 with Lambda A = B or a source-cone
    function c whose image is negative at some target point
    (`_farkas_witness`). One non-negative least-squares fit per target point
    proposes a row of Lambda; when the fits settle every point the side is
    accepted with no LP. Float mode then solves one HiGHS LP for c with
    |c| <= 1 and takes its most negative value as the verdict and its c as
    the witness. Exact mode decides the points whose fits do not re-solve
    exactly to a nonnegative row in rational arithmetic, reading no `tol`;
    the LP only orders two or more of them. Float mode's one rule, on either
    basis: a value is negative below -linalg.cutoff of the matrix it is read
    from (the point matrix, its inverse, or B), so alpha*T gets T's verdict.
    """
    arith = "rational" if t.exact else "float"
    if t.basis == "generator" and t.domain.is_full and t.codomain.is_full:
        cert = is_order_isomorphism(t.as_point(), tol=tol)
        if cert.accept:
            return cert
        w = np.asarray(cert.witness_values)
        if cert.side == "domain" or not t.exact:
            fam = t.domain if cert.side == "domain" else t.codomain
            coeffs = mat_vec(fam.coefficient_matrix(), w)
        else:  # f = T(T^-1 f): M times the domain coefficients of the values P^-1 w
            coeffs = mat_vec(t.matrix, mat_vec(t.domain.coefficient_matrix(),
                                               mat_vec(t.as_point().inverse_matrix, w)))
        return Certificate(accept=False, mode="exact", arithmetic=arith,
                           witness_coeffs=tuple(coeffs), witness_values=cert.witness_values,
                           side=cert.side, point=cert.point, detail=cert.detail)
    if t.basis == "point":
        hit = _point_violation(t, tol)
        if hit is None:
            return Certificate(accept=True, mode="exact", arithmetic=arith)
        side, i, j = hit
        w = linalg.indicator(t.size, j, t.exact)
        return Certificate(
            accept=False, mode="exact", arithmetic=arith,
            witness_coeffs=tuple(w), witness_values=tuple(w),
            side=side, point=i,
            detail=(f"indicator of {side} point {j} maps to a negative "
                    f"value at point {i}"))

    for src, dst, mat, side in ((t.domain, t.codomain, t.matrix, "domain"),
                                (t.codomain, t.domain, t.inverse_matrix, "codomain")):
        hit = _farkas_witness(src.generators.T, _evaluations(dst.generators.T, mat), tol)
        if hit is None:
            continue
        y, c = hit
        return Certificate(
            accept=False, mode="exact", arithmetic=arith,
            witness_coeffs=tuple(c), witness_values=tuple(src.values(c)),
            side=side, point=y,
            detail=f"a nonnegative {side} function maps to a negative value at point {y}")
    return Certificate(accept=True, mode="exact", arithmetic=arith)


def _evaluations(g_t, mat):
    """B = G^T mat, the target point evaluations of the images of the source
    generators. A float B that overflows is formed from the two factors
    each times the power of two that brings its largest entry into
    [1/2, 1): a positive multiple of B, whose Farkas alternative and
    witnesses are B's."""
    with np.errstate(over="ignore", invalid="ignore"):  # read from the result below
        b = mat_mat(g_t, mat)
    if b.dtype != object and not np.all(np.isfinite(b)):
        b = mat_mat(*(np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1]) for x in (g_t, mat)))
    return b


def _farkas_witness(a, b, tol: float):
    """Farkas' alternative at every target point y: None when each b_y is
    lam A for some lam >= 0, else (y, c) with A c >= 0 and b_y . c < 0.

    A and B are taken to float once (`linalg.scaled_float`: an exact matrix
    times the power of two that brings its largest entry near 1, so no
    scale overflows it or underflows it whole, and the fits and the LP read
    the same numbers at any power-of-two scale). One non-negative
    least-squares fit per row, lam_y >= 0 with the least |b_y - lam_y A|,
    settles what it can; a fit that raises or does not converge ends the
    fits. Float: a row is settled when its residual's L1 norm is at most
    linalg.cutoff(B, tol), and rows are fitted up to the first that is not.
    Exact (`tol` unused): a row is settled when its fit's support re-solves
    in rational arithmetic to lam >= 0 (`_resolves`). A side with every row
    settled is accepted.

    Float, otherwise: one HiGHS LP, min b_y . c_y with A c_y >= 0 and
    |c_y| <= 1 for every y, gives row y the value -min |b_y - lam A|_1 over
    lam >= 0, and the most negative value below -linalg.cutoff(B, tol)
    decides, with its c_y as witness. HiGHS's tolerances are absolute, so
    its costs are B / max|B| and its constraints A times the power of two
    that brings max|A| into [1/2, 1) (exact, same feasible set). Exact,
    otherwise: `linalg.farkas` decides the unsettled rows and the first
    witness is reported; two or more go in the order of their values in the
    same LP (stable; index order if HiGHS fails).
    """
    from scipy.optimize import linprog, nnls
    from scipy.sparse import identity, kron

    exact = b.dtype == object
    fa, fb = linalg.scaled_float(a), linalg.scaled_float(b)
    bound = linalg.cutoff(fb, tol)
    supports = []
    for b_y in fb:
        try:
            lam, _ = nnls(fa.T, b_y)
        except (RuntimeError, ValueError):  # no convergence, or entries not finite
            break
        if not exact and np.abs(b_y - fa.T @ lam).sum() > bound:
            break
        supports.append(lam > 0)

    (n, k), m = fb.shape, fa.shape[0]
    if exact:
        failing = [y for y in range(n)
                   if y >= len(supports) or not _resolves(a[supports[y]], b[y])]
    elif len(supports) == n:
        return None
    if not exact or len(failing) > 1:
        fa = np.ldexp(fa, -np.frexp(np.max(np.abs(fa)))[1])
        res = linprog(c=(fb / np.max(np.abs(fb))).ravel(),
                      A_ub=-kron(identity(n), fa, format="csr"), b_ub=np.zeros(n * m),
                      bounds=(-1.0, 1.0), method="highs")
        if res.status == 0:
            cs = res.x.reshape(n, k)
            vals = np.einsum("yk,yk->y", fb, cs)
            if not exact:
                y = int(np.argmin(vals))
                return (y, cs[y]) if vals[y] < -bound else None
            failing.sort(key=vals.__getitem__)
        elif not exact:  # bounded and feasible (c = 0) by construction
            raise RuntimeError(f"LP solver failed: {res.message}")
    for y in failing:
        c = linalg.farkas(a, b[y])
        if c is not None:
            return y, c
    return None


def _resolves(a, b_y) -> bool:
    """Whether b_y = lam A with lam >= 0 on A's rows, re-solved exactly."""
    lam = linalg.exact_solve_unique(a.T, b_y)
    return lam is not None and all(v >= 0 for v in lam)
