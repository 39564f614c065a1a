"""Independent output oracle.

Every output is checked against the ground truth recorded when its input was
generated, re-deriving what it can with numpy or `fractions.Fraction` from the
input document itself, never with `oiso`. `check(op, outcome)` returns the
failures as `Failure(tag, layer, detail)`; an empty list means the output is
correct.

`known_defect(op, failures)` names the defect of the parent program a failure
is a known instance of (see KNOWN_DEFECTS), or None. Known defects are still
counted as failures; they only keep the run's `correct` flag up, so that a
new kind of wrong output stands out.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

TOL = 1e-9

KNOWN_DEFECTS = {
    "generator-ray-sign": (
        "generator basis: cone rays are normalized like lines (first nonzero entry "
        "made positive, cones.py _canonical_*_ray), so genuine order isomorphisms "
        "are rejected, rejections carry a witness outside the source cone, and some "
        "non-isomorphisms are accepted (decompose then raises "
        "InternalContradictionError)"),
    "generator-ray-rounding": (
        "generator basis, float: rays rounded to 9 decimals leave the cone by about "
        "1e-8, so genuine order isomorphisms are rejected with a witness that is "
        "one only up to rounding"),
    "float-scale": (
        "point basis, float, operator scaled by alpha in [1e-6, 1e6]: the absolute "
        "recovery margin ends in AmbiguousIntersectionError (exit 1) or an uncaught "
        "InternalContradictionError"),
}


@dataclass(frozen=True)
class Failure:
    tag: str
    layer: str
    detail: str


# --------------------------------------------------------------- arithmetic

def _num(v, exact: bool):
    return Fraction(str(v)) if exact else float(v)


def _matrix(rows, exact: bool):
    if exact:
        return [[Fraction(str(v)) for v in row] for row in rows]
    return np.array(rows, dtype=float)


def solve_exact(a, b) -> Optional[list]:
    """The unique rational x with a x = b, or None (inconsistent or not unique).

    Sparse Gauss-Jordan over dict rows, so permutation-like matrices stay cheap.
    """
    k = len(a[0])
    pivots = []  # (column, row dict normalized so row[column] == 1, rhs)
    for row, rhs in zip(a, b):
        r = {j: Fraction(v) for j, v in enumerate(row) if v != 0}
        rhs = Fraction(rhs)
        # in creation order: a later pivot row never reintroduces an earlier column
        for col, p, prhs in pivots:
            f = r.get(col)
            if f:
                for j, pv in p.items():
                    nv = r.get(j, 0) - f * pv
                    if nv:
                        r[j] = nv
                    else:
                        r.pop(j, None)
                rhs -= f * prhs
        if r:
            col = min(r)
            f = r[col]
            pivots.append((col, {j: v / f for j, v in r.items()}, rhs / f))
        elif rhs != 0:
            return None
    if len(pivots) != k:
        return None
    x = [Fraction(0)] * k
    for col, p, prhs in reversed(pivots):
        x[col] = prhs - sum(pv * x[j] for j, pv in p.items() if j != col)
    return x


def _matvec(m, v, exact: bool):
    if exact:
        return [sum((mij * vj for mij, vj in zip(row, v) if mij), Fraction(0)) for row in m]
    return np.asarray(m) @ np.asarray(v, dtype=float)


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _solve(m, v, exact: bool):
    if exact:
        return solve_exact(m, v)
    return np.linalg.solve(np.asarray(m, dtype=float), np.asarray(v, dtype=float))


def _span_coeffs(g, v, exact: bool):
    """Coefficients c with c . g = v (g: generators as rows), or None."""
    if exact:
        return solve_exact(_transpose(g), v)
    a = np.asarray(g, dtype=float).T
    c, *_ = np.linalg.lstsq(a, np.asarray(v, dtype=float), rcond=None)
    scale = max(1.0, float(np.max(np.abs(v))))
    return c if float(np.max(np.abs(a @ c - v))) <= 1e-8 * scale else None


def _negative(vals, i: int, exact: bool) -> bool:
    if exact:
        return vals[i] < 0
    vals = np.asarray(vals, dtype=float)
    return bool(vals[i] < -TOL * max(1.0, float(np.max(np.abs(vals)))))


# ---------------------------------------------------------------- witnesses

def check_witness(doc: dict, cert: dict, exact: bool) -> list:
    """A rejection witness must lie in the source cone and its image under T
    (side "domain") or T^-1 (side "codomain") must be negative at the point."""
    out = []
    side, point = cert.get("witness_side"), cert.get("witness_point")
    if side not in ("domain", "codomain") or not isinstance(point, int):
        return [Failure("witness-missing", "cones", f"no usable witness: {cert!r}")]
    v = [_num(x, exact) for x in cert.get("witness", [])]
    m = _matrix(doc["matrix"], exact)
    vmin = min(v) if v else 0
    scale = max([1.0] + [abs(float(x)) for x in v])
    if not any(v):
        out.append(Failure("witness-zero", "cones", "witness is the zero function"))
    elif (vmin < 0) if exact else (vmin < -TOL * scale):
        tag = "witness-cone-tiny" if float(vmin) >= -1e-7 * scale else "witness-cone"
        out.append(Failure(tag, "cones", f"witness leaves the {side} cone (min {float(vmin):.3e})"))
    if doc.get("basis", "point") == "point":
        img = _matvec(m, v, exact) if side == "domain" else _solve(m, v, exact)
    else:
        g_dom = _matrix(doc["domain"]["generators"], exact)
        g_cod = _matrix(doc["codomain"]["generators"], exact)
        src, dst = (g_dom, g_cod) if side == "domain" else (g_cod, g_dom)
        c = _span_coeffs(src, v, exact)
        if c is None:
            return out + [Failure("witness-span", "cones", "witness is not in the family's span")]
        c2 = _matvec(m, c, exact) if side == "domain" else _solve(m, c, exact)
        img = _matvec(_transpose(dst) if exact else np.asarray(dst).T, c2, exact)
    if img is None or not (0 <= point < len(img)) or not _negative(img, point, exact):
        out.append(Failure("witness-image", "cones",
                           f"image of the witness is not negative at {side}-side point {point}"))
    return out


# ------------------------------------------------------------------ checks

def _eq_weights(got, want, exact: bool) -> bool:
    if len(got) != len(want):
        return False
    if exact:
        return all(Fraction(str(a)) == Fraction(str(b)) for a, b in zip(got, want))
    return bool(np.allclose(np.asarray(got, dtype=float), np.asarray(want, dtype=float),
                            rtol=1e-9, atol=0.0))


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_accept_map(res: dict, truth: dict, exact: bool) -> list:
    out = []
    if res.get("sigma") != truth["sigma"]:
        out.append(Failure("sigma", "recovery", "sigma differs from the ground truth"))
    if not _eq_weights(res.get("weight", []), truth["weight"], exact):
        out.append(Failure("weight", "recovery", "weight differs from the ground truth"))
    return out


def _check_decompose(op, res: dict) -> list:
    exact = op.mode == "exact"
    truth = op.truth
    if truth["verdict"] == "accept":
        if res.get("accepted") is not True:
            return [Failure("verdict", "cones", "genuine order isomorphism rejected")] + (
                check_witness(_load(op.path), res.get("certificate", {}), exact))
        out = _check_accept_map(res, truth, exact)
        if exact and res.get("arithmetic") != "rational":
            out.append(Failure("arithmetic", "cones",
                               f"arithmetic {res.get('arithmetic')!r} in exact mode"))
        return out
    if res.get("accepted") is not False:
        return [Failure("verdict", "cones", "non-isomorphism accepted")]
    return check_witness(_load(op.path), res.get("certificate", {}), exact)


def _check_classify(op, res: dict) -> list:
    exact = op.mode == "exact"
    truth = op.truth
    if res.get("kind") != truth["kind"]:
        return [Failure("kind", "classify",
                        f"kind {res.get('kind')!r}, expected {truth['kind']!r}")]
    if truth["kind"] == "rejected":
        return check_witness(_load(op.path), res.get("certificate", {}), exact)
    if truth["kind"] == "isometry":
        out = _check_accept_map(res, dict(truth, weight=[1] * len(truth["sigma"])), exact)
        if [float(Fraction(str(s))) for s in res.get("unimodular_sign", [])] != truth["sign"]:
            out.append(Failure("sign", "classify", "unimodular sign differs from the ground truth"))
        return out
    return _check_accept_map(res, truth, exact)


def _check_certify(op, res: dict) -> list:
    exact = op.mode == "exact"
    out = []
    if exact and res.get("arithmetic") != "rational":
        out.append(Failure("arithmetic", "cones",
                           f"{res.get('arithmetic')} certificate in exact mode"))
    if op.truth["verdict"] == "accept":
        if res.get("accept") is not True:
            out.append(Failure("verdict", "cones", "genuine order isomorphism rejected"))
            out += check_witness(_load(op.path), res, exact)
    elif res.get("accept") is not False:
        out.append(Failure("verdict", "cones", "non-isomorphism accepted"))
    else:
        out += check_witness(_load(op.path), res, exact)
    return out


def _check_fuzz(op, res: dict) -> list:
    count = op.truth["count"]
    if (res.get("count") != count or res.get("dim") != op.truth["dim"]
            or res.get("accepted") != count or res.get("match_rate") != 1.0
            or res.get("failures") != []):
        return [Failure("fuzz", "fuzz", f"round trips failed: {res!r}"[:300])]
    return []


def _check_adequacy(op, res: dict) -> list:
    want = {k: op.truth[k] for k in ("adequate", "has_constants", "separates")}
    if op.truth["adequate"]:
        want.update(g_invariant=True, cone_generates=True)
    bad = [k for k, v in want.items() if res.get(k) is not v]
    return [Failure("adequacy", "adequacy", f"flags differ: {bad}")] if bad else []


def _check_bump(op, res: dict) -> list:
    h = np.asarray(res.get("values", []), dtype=float)
    a, closed = op.truth["anchor"], op.truth["closed"]
    ok = (res.get("built") is True and h.size > a and abs(h[a] - 1.0) <= TOL
          and np.all(np.abs(h[closed]) <= TOL) and np.all(h >= -TOL) and np.all(h <= 1 + TOL))
    return [] if ok else [Failure("bump", "adequacy",
                                  "bump misses 1 at the anchor, 0 on the set or [0,1]")]


def _check_compactify(op, res: dict) -> list:
    truth = op.truth
    variant = truth["variant"]
    if variant == "nonconvergent":
        got = {k: res.get(k) for k in ("accepted", "reason", "sequence", "coordinate")}
        want = {"accepted": False, "reason": truth["reason"], "sequence": truth["sequence"],
                "coordinate": truth["coordinate"]}
        return [] if got == want else [Failure("compactify", "compactify", f"got {got}")]
    if variant == "boundary":
        added = res.get("domain", {}).get("added", [])
        labels = [p.get("label") for p in added]
        coords = [p.get("coords") for p in added]
        ok = (labels == truth["labels"] and "codomain" not in res and all(
            len(c) == 2 and abs(c[0] - w[0]) <= 1e-4 and abs(c[1] - w[1]) <= 1e-4
            for c, w in zip(coords, truth["added"])))
        return [] if ok else [Failure("compactify", "compactify",
                                      f"added points {labels} {coords}")]
    inner = res.get("interior", {})
    out = []
    if res.get("accepted") is not True or inner.get("sigma") != truth["sigma"]:
        out.append(Failure("compactify", "compactify", "interior sigma differs"))
    elif not _eq_weights(inner.get("weight", []), truth["weight"], False):
        out.append(Failure("compactify", "compactify", "interior weight differs"))
    if res.get("added", {}).get("matching") != truth["matching"]:
        out.append(Failure("compactify", "compactify", "boundary matching differs"))
    return out


# the example space, evaluated here without oiso: (const c) | t | (clamp e) |
# (sinramp e) | (lin (c...) (e...))

def _parse(tokens, pos=0):
    tok = tokens[pos]
    if tok == "t":
        return ("t",), pos + 1
    head = tokens[pos + 1]
    if head == "const":
        return ("const", float(tokens[pos + 2])), pos + 4
    if head in ("clamp", "sinramp"):
        child, pos = _parse(tokens, pos + 2)
        return (head, child), pos + 1
    pos += 3  # "(" "lin" "("
    coeffs = []
    while tokens[pos] != ")":
        coeffs.append(float(tokens[pos]))
        pos += 1
    pos += 2  # ")" "("
    kids = []
    while tokens[pos] != ")":
        kid, pos = _parse(tokens, pos)
        kids.append(kid)
    return ("lin", tuple(coeffs), tuple(kids)), pos + 2


def parse_expr(text: str):
    return _parse(text.replace("(", " ( ").replace(")", " ) ").split())[0]


def eval_expr(e, t: np.ndarray) -> np.ndarray:
    head = e[0]
    if head == "t":
        return t
    if head == "const":
        return np.full_like(t, e[1])
    if head == "lin":
        return sum(c * eval_expr(k, t) for c, k in zip(e[1], e[2]))
    x = eval_expr(e[1], t)
    s = np.sin(np.pi * x / 2)
    return s if head == "sinramp" else np.where(x <= 0, 0.0, np.where(x >= 1, 1.0, s))


def _check_local_form(op, res: dict) -> list:
    lo_box, hi_box = op.truth["box"]
    if res.get("succeeded") is not True:
        return [Failure("exprs", "exprs", f"no local form: {res.get('detail')}")]
    lo, hi = res["interval"]
    if not (lo_box <= lo < hi <= hi_box) or "clamp" in res["expr"]:
        return [Failure("exprs", "exprs", "local form outside the box or not clamp-free")]
    ts = np.linspace(lo, hi, 33)
    gap = np.max(np.abs(eval_expr(parse_expr(op.truth["expr"]), ts)
                        - eval_expr(parse_expr(res["expr"]), ts)))
    return [] if gap <= 1e-9 else [Failure("exprs", "exprs", f"local form differs by {gap:.3e}")]


def _check_decay(op, res: dict) -> list:
    return [] if res.get("passes") is True else [Failure("exprs", "exprs", "decay check failed")]


def _check_witness_expr(op, res: dict) -> list:
    a, b, at = op.truth["a"], op.truth["b"], op.truth["at"]
    try:
        vals = eval_expr(parse_expr(res["expr"]), np.array([a, b, at]))
    except (KeyError, IndexError, ValueError):
        return [Failure("exprs", "exprs", "unparseable witness expression")]
    ok = (abs(vals[0]) <= 1e-12 and abs(vals[1] - 1.0) <= 1e-12 and 0.0 < vals[2] < 1.0
          and res.get("value_at_a") == float(vals[0]) and res.get("value_at_b") == float(vals[1])
          and res.get("value_at") == [at, float(vals[2])])
    return [] if ok else [Failure("exprs", "exprs", f"witness values {vals.tolist()} vs {res}")]


_CHECKS = {"decompose": _check_decompose, "classify": _check_classify,
           "certify": _check_certify, "fuzz": _check_fuzz, "adequacy": _check_adequacy,
           "bump": _check_bump, "compactify": _check_compactify,
           "local-form": _check_local_form, "decay": _check_decay,
           "witness": _check_witness_expr}


def check(op, outcome) -> list:
    """Failures of one operation's outcome against its ground truth."""
    if outcome.error is not None:
        return [Failure("raised", "cli", outcome.error[:300])]
    want = 0 if op.truth["verdict"] == "accept" else 2
    if outcome.code == 1:
        return [Failure("exit1", "cli",
                        f"exit 1 on a mathematical input: {outcome.stderr.strip()[:300]}")]
    try:
        doc = json.loads(outcome.text)
    except ValueError:
        return [Failure("report", "serialize", "output is not one JSON document")]
    res = doc.get("result", doc) if not op.api else doc
    failures = _CHECKS[op.kind](op, res)
    if outcome.code != want and not any(f.tag == "verdict" for f in failures):
        failures.append(Failure("exit-code", "cli", f"exit {outcome.code}, expected {want}"))
    return failures


def known_defect(op, failures: list) -> Optional[str]:
    """The KNOWN_DEFECTS entry these failures are an instance of, or None."""
    tags = {f.tag for f in failures}
    if not tags:
        return None
    if op.truth.get("basis") == "generator":
        allowed = {"verdict", "witness-cone", "witness-cone-tiny", "witness-image", "exit-code"}
        accepted_wrongly = op.truth["verdict"] == "reject" and (
            "verdict" in tags or any(f.tag == "raised" and f.detail.startswith(
                "InternalContradictionError: nonpositive weight") for f in failures))
        if accepted_wrongly:
            return "generator-ray-sign"
        if not tags <= allowed:
            return None
        if "witness-cone" in tags:
            return "generator-ray-sign"
        if op.mode == "float":  # rejected, with a witness that holds only up to rounding
            return "generator-ray-rounding"
        return None
    if op.truth.get("scaled") and len(failures) == 1:
        f = failures[0]
        if (f.tag == "exit1" and "runner-up within margin" in f.detail) or (
                f.tag == "raised" and f.detail.startswith("InternalContradictionError")):
            return "float-scale"
    return None


def summarize_failure(failures: list) -> str:
    return "; ".join(f"{f.tag}: {f.detail}" for f in failures)[:400]
