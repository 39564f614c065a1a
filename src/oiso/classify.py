"""The classical corollaries of the cone certificate, in closed form.

On full finite models an order isomorphism is a weighted composition
T f = w * (f o sigma) with w = T1 > 0, so the corollaries are conditions on
the weight: a sup-norm isometry (Banach-Stone) has |w| = 1, a lattice
isomorphism (Kaplansky) is any order isomorphism (w > 0), and a unital algebra
isomorphism (Gelfand-Kolmogorov) has w = 1. An operator the cone test rejects
is still an isometry when |T1| = 1 and diag(1/T1) T passes it. The final kind
is the most specific class; every screen's outcome is recorded as evidence.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cones import Certificate, OperatorModel, _jsonable, is_order_isomorphism
from .recovery import Decomposition, decompose
from .spaces import DEFAULT_TOL

__all__ = [
    "isometry_reduce",
    "lattice_check",
    "algebra_check",
    "ClassificationReport",
    "classify",
]


def _off_one(label: str, v, exact: bool, tol: float) -> str:
    """Where v differs from 1 (by more than tol in float mode), or ''."""
    if exact:
        y = next((y for y, x in enumerate(v) if x != 1), None)
        return "" if y is None else f"{label} differs from 1 at point {y}"
    dev = np.abs(np.asarray(v, dtype=float) - 1.0)
    y = int(np.argmax(dev))
    return f"{label} differs from 1 by {dev[y]:.3e} at point {y}" if dev[y] > tol else ""


def isometry_reduce(t: OperatorModel, tol: float = DEFAULT_TOL):
    """Divide out the unimodular image of the constants.

    Returns (g, reduced) with g = T1 and reduced = diag(1/g) T when |g| = 1
    at every codomain point, else None. T is a sup-norm isometry exactly when
    `reduced` then passes the cone test.
    """
    t = t.as_point()
    g = t.apply_values(t.domain.ones())
    if _off_one("|T(1)|", [abs(x) for x in g], t.exact, tol):
        return None
    return g, t.rescaled(g)


def lattice_check(t: OperatorModel, tol: float = DEFAULT_TOL) -> bool:
    """Is T a lattice isomorphism (|Tf| = T|f|)? On full models these are the
    positive weighted permutations, i.e. the operators the cone test accepts."""
    return is_order_isomorphism(t.as_point(), tol=tol).accept


def algebra_check(t: OperatorModel, tol: float = DEFAULT_TOL) -> bool:
    """Is T a unital algebra isomorphism: an order isomorphism with T1 = 1?"""
    t = t.as_point()
    return lattice_check(t, tol=tol) and not _off_one(
        "T(1)", t.apply_values(t.domain.ones()), t.exact, tol)


@dataclass(frozen=True)
class ClassificationReport:
    """kind: most specific accepted class among
    algebra-iso > lattice-iso > isometry, else rejected."""

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
            out["weight"] = [_jsonable(w) for w in self.decomposition.weight]
            out["residual"] = self.decomposition.residual
        if self.unimodular_sign is not None:
            out["unimodular_sign"] = [_jsonable(v) for v in self.unimodular_sign]
        return out


def _screen(name: str, detail: str) -> dict:
    return {"screen": name, "passed": not detail, "detail": detail}


def classify(t: OperatorModel, tol: float = DEFAULT_TOL) -> ClassificationReport:
    """One cone certificate, then the weight decides.

    Accepted: algebra-iso when T1 = 1, else lattice-iso, with the
    decomposition of T. Rejected: isometry when |T1| = 1 and diag(1/T1) T
    passes the cone test, with that operator's decomposition and the sign
    T1; otherwise rejected.
    """
    t = t.as_point()
    cert = is_order_isomorphism(t, tol=tol)
    g = t.apply_values(t.domain.ones())
    iso = _off_one("|T(1)|", [abs(x) for x in g], t.exact, tol)
    off_unital = _off_one("T(1)", g, t.exact, tol)
    not_cone = "" if cert.accept else "the cone test rejected T"
    decomposition = None
    if cert.accept:
        decomposition = decompose(t, tol=tol, cert=cert)
        kind = "lattice-iso" if off_unital else "algebra-iso"
    elif iso:
        kind = "rejected"
    else:
        reduced = t.rescaled(g)
        cert_red = is_order_isomorphism(reduced, tol=tol)
        if cert_red.accept:
            decomposition = decompose(reduced, tol=tol, cert=cert_red)
            kind = "isometry"
        else:
            iso, kind = "reduced operator failed the cone test", "rejected"
    evidence = (_screen("isometry", iso),
                _screen("lattice", not_cone),
                _screen("algebra", not_cone or off_unital),
                {"screen": "cone", "passed": bool(cert.accept), "detail": cert.detail})
    return ClassificationReport(kind=kind, decomposition=decomposition,
                                unimodular_sign=None if iso else tuple(g),
                                evidence=evidence, certificate=cert)
