"""Seeded input generator: JSON documents plus the ground truth of each.

`generate(workload, seed, workdir)` writes every input document under
`workdir` and returns a `Plan`: rounds of operations (each round is one fixed
mix of kinds and sizes, so a run's composition does not depend on the seed)
and one small warm-up operation of each kind. The same seed gives the same
documents, byte for byte. The program under test only ever sees the files.

Instances come from `oiso.fuzz` and from constructions whose answer is known
by design:

- a positive weighted permutation is accepted with its own sigma and weight;
  a signed one, a non-monomial nonnegative matrix and an off-pattern
  perturbation of a monomial are rejected;
- a generator-basis operator whose codomain generators are
  `B . (g o sigma) . diag(w)`, with matrix `B^-T`, is accepted exactly when
  every weight is positive (the families contain the constants, so a
  negative weight sends the constant 1 below zero).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from oiso import fuzz
from oiso.exprs import to_sexpr
from oiso.spaces import build_lipschitz_family

from ops import Op

WORKLOADS = ("point-float", "point-exact", "generator-basis", "families")

# distinct instance sets per run (round r uses set r % sets), as many as
# generation affords: the big point-basis instances are slow to build
SETS = {"point-float": 4, "point-exact": 6, "generator-basis": 32, "families": 32}

# wall time of one round on the reference machine (see README.md); a run of
# --seconds S makes about S / ROUND_SECONDS rounds there
ROUND_SECONDS = {"point-float": 2.0, "point-exact": 2.2, "generator-basis": 1.15,
                 "families": 0.3}

CLASSIFY_TRUTH = {"permutation": "algebra-iso", "monomial": "lattice-iso",
                  "signed": "isometry", "nonmonomial": "rejected"}
CLASSIFY_KINDS = tuple(CLASSIFY_TRUTH)


@dataclass
class Plan:
    rounds: list   # list of lists of Op, one list per instance set
    warmups: list  # one small Op of each kind in the workload
    round_s: float = 1.0  # wall time of one round on the reference machine

    def rounds_for(self, seconds: float) -> int:
        """Rounds a run of about `seconds` makes on the reference machine.

        A fixed count, even (accepts and rejects alternate by round) and at
        least two: the same seed and length attempt the same operations on
        any machine, however fast.
        """
        return max(2, 2 * round(seconds / (2 * self.round_s)))


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def doc(self, name: str, doc: dict) -> str:
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            # one dumps call: json.dump encodes chunk by chunk in pure Python
            fh.write(json.dumps(dict(doc, schema="oiso/1"), sort_keys=True))
        return path


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _q(x) -> str:
    """A rational as the exact-mode "p/q" string."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _matrix_doc(m, exact: bool) -> list:
    if exact:
        return [[_q(v) for v in row] for row in m]
    return np.asarray(m, dtype=float).tolist()


# ----------------------------------------------------------------- point basis

def _point_instance(rng, category: str, n: int, exact: bool, stratum=(0, 1)):
    """(matrix, truth) for one point-basis operator.

    A "scaled" operator is multiplied by alpha, log-uniform in [1e-6, 1e6];
    `stratum` (j, k) draws it from the j-th of k equal slices of that range,
    so a run's mix of small and large alpha does not hang on the seed.
    """
    if category in ("accept", "scaled", "monomial"):
        t, sigma, weight = fuzz.random_monomial(rng, n, exact=exact)
        m = t.matrix
        if category == "scaled":
            j, k = stratum
            alpha = float(np.exp(np.log(1e-6) + (j + rng.uniform()) / k * np.log(1e12)))
            m = np.asarray(m, dtype=float) * alpha
            weight = np.asarray(weight, dtype=float) * alpha
        truth = {"verdict": "accept", "sigma": [int(s) for s in sigma],
                 "weight": [_q(w) for w in weight] if exact else [float(w) for w in weight],
                 "scaled": category == "scaled"}
        return m, truth
    if category == "permutation":
        t, sigma, weight = fuzz.random_permutation_operator(rng, n, exact=exact)
        return t.matrix, {"verdict": "accept", "sigma": [int(s) for s in sigma],
                          "weight": ["1"] * n if exact else [1.0] * n}
    if category == "signed":
        t, sigma, weight = fuzz.random_signed_monomial(rng, n, exact=exact)
        return t.matrix, {"verdict": "reject", "sigma": [int(s) for s in sigma],
                          "sign": [int(w) for w in weight]}
    if category == "nonmonomial":
        # built in float (an integer matrix of full float rank), written as integers
        t = fuzz.random_nonneg_nonmonomial(rng, n, exact=False)
        m = np.rint(t.matrix).astype(np.int64)
        return (m.tolist() if exact else t.matrix), {"verdict": "reject"}
    if category == "near":
        t, sigma, weight = fuzz.random_monomial(rng, n, exact=False)
        m = np.array(t.matrix, dtype=float)
        for _ in range(max(1, n // 4)):
            y, x = int(rng.integers(n)), int(rng.integers(n))
            if x == int(sigma[y]):
                x = (x + 1) % n
            # relative size keeps the inverse's negative entries far above tol
            m[y, x] += float(rng.uniform(0.01, 0.1)) * float(weight[y])
        return m, {"verdict": "reject"}
    raise ValueError(category)


def _decompose_op(w: _Writer, rng, name: str, category: str, n: int, mode: str,
                  stratum=(0, 1)) -> Op:
    m, truth = _point_instance(rng, category, n, mode == "exact", stratum)
    path = w.doc(name, {"matrix": _matrix_doc(m, mode == "exact"), "basis": "point"})
    truth.update(category=category, n=n, basis="point")
    return Op(name, "decompose", mode, truth, argv=("decompose", path, "--mode", mode),
              path=path)


def _classify_op(w: _Writer, rng, name: str, category: str, n: int, mode: str) -> Op:
    m, truth = _point_instance(rng, category, n, mode == "exact")
    path = w.doc(name, {"matrix": _matrix_doc(m, mode == "exact"), "basis": "point"})
    truth.update(category=category, n=n, basis="point", kind=CLASSIFY_TRUTH[category],
                 verdict="reject" if category == "nonmonomial" else "accept")
    return Op(name, "classify", mode, truth, argv=("classify", path, "--mode", mode),
              path=path)


def _fuzz_op(rng, name: str, dim: int, count: int, mode: str) -> Op:
    seed = int(rng.integers(2**31))
    truth = {"verdict": "accept", "dim": dim, "count": count}
    return Op(name, "fuzz", mode, truth,
              argv=("fuzz", "--dim", str(dim), "--count", str(count), "--mode", mode,
                    "--seed", str(seed)))


# 2 operations at n=128, 10 at n=256 and 4 at n=512. Per round (with the two
# classify operations) the overall median falls inside the n=256 rejects and
# scaled accept, the accept median in the middle of the three n=256 accepts,
# the reject median inside the n=256 rejects (mostly signed monomials, whose
# cost hardly varies between instances) and the 90th percentile inside the
# three n=512 accepts.
POINT_FLOAT_DECOMPOSE = (
    ("accept", 256), ("signed", 256), ("accept", 512), ("near", 256),
    ("accept", 256), ("signed", 128), ("accept", 512), ("scaled", 128),
    ("signed", 256), ("scaled", 256), ("nonmonomial", 512), ("accept", 256),
    ("near", 256), ("accept", 512), ("signed", 256), ("nonmonomial", 256),
)
POINT_FLOAT_CLASSIFY = (32, 64)


def _point_float(w: _Writer, rng, sets: int) -> Plan:
    rounds = []
    scaled = [i for i, (cat, _) in enumerate(POINT_FLOAT_DECOMPOSE) if cat == "scaled"]
    for s in range(sets):
        ops = []
        for i, (cat, n) in enumerate(POINT_FLOAT_DECOMPOSE):
            # the j-th scaled operation of the run takes the j-th slice of alpha's range
            stratum = ((s * len(scaled) + scaled.index(i), sets * len(scaled))
                       if i in scaled else (0, 1))
            ops.append(_decompose_op(w, rng, f"s{s}-dec{i}-{cat}-{n}", cat, n, "float",
                                     stratum))
        for i, n in enumerate(POINT_FLOAT_CLASSIFY):
            cat = CLASSIFY_KINDS[(2 * s + i) % 4]
            # about one operation in eight is a classify, spread through the round
            ops.insert(8 * i + 4, _classify_op(w, rng, f"s{s}-cls{i}-{cat}-{n}", cat, n, "float"))
        rounds.append(ops)
    warm = [_decompose_op(w, rng, "warm-dec", "accept", 128, "float"),
            _classify_op(w, rng, "warm-cls", "monomial", 32, "float")]
    return Plan(rounds, warm)


# Per round: decompose n=64 x9 (5 accepts, 3 signed rejects, whose cost hardly
# varies between instances and which hold the reject median, and 1
# non-monomial) and two fuzz (the cheap cluster, which holds the medians),
# classify n=8 x2, classify n=16 x2 with a decompose n=128 (the cluster that
# holds the 90th percentile), and one large operation (decompose n=160,
# classify n=24, classify n=32 in turn).
POINT_EXACT_CLASSIFY = (8, 16, 8, 16)
POINT_EXACT_DECOMPOSE = (("accept", 64), ("signed", 64), ("accept", 64), ("nonmonomial", 64),
                         ("accept", 64), ("signed", 64), ("accept", 64), ("signed", 64),
                         ("accept", 64), ("accept", 128))
POINT_EXACT_LARGE = (("decompose", 160), ("classify", 24), ("classify", 32))
FUZZ_DIM, FUZZ_COUNT = 16, 16


def _point_exact(w: _Writer, rng, sets: int) -> Plan:
    rounds = []
    for s in range(sets):
        cls = [_classify_op(w, rng, f"s{s}-cls{i}-{CLASSIFY_KINDS[(s + i) % 4]}-{n}",
                            CLASSIFY_KINDS[(s + i) % 4], n, "exact")
               for i, n in enumerate(POINT_EXACT_CLASSIFY)]
        dec = [_decompose_op(w, rng, f"s{s}-dec{i}-{cat}-{n}", cat, n, "exact")
               for i, (cat, n) in enumerate(POINT_EXACT_DECOMPOSE)]
        kind, n = POINT_EXACT_LARGE[s % len(POINT_EXACT_LARGE)]
        if kind == "decompose":
            large = _decompose_op(w, rng, f"s{s}-large-{n}", ("accept", "nonmonomial")[s % 2],
                                  n, "exact")
        else:
            large = _classify_op(w, rng, f"s{s}-large-{n}", CLASSIFY_KINDS[s % 4], n, "exact")
        ops = []
        for i in range(max(len(cls), len(dec))):  # interleave kinds through the round
            ops += dec[i:i + 1] + cls[i:i + 1]
        ops.insert(len(ops) // 2, large)
        ops.insert(3, _fuzz_op(rng, f"s{s}-fuzz0", FUZZ_DIM, FUZZ_COUNT, "exact"))
        ops.insert(12, _fuzz_op(rng, f"s{s}-fuzz1", FUZZ_DIM, FUZZ_COUNT, "exact"))
        rounds.append(ops)
    warm = [_classify_op(w, rng, "warm-cls", "monomial", 8, "exact"),
            _decompose_op(w, rng, "warm-dec", "accept", 64, "exact"),
            _fuzz_op(rng, "warm-fuzz", FUZZ_DIM, FUZZ_COUNT, "exact")]
    return Plan(rounds, warm)


# ------------------------------------------------------------- generator basis

def _unimodular(rng, k: int) -> np.ndarray:
    """Integer matrix with determinant 1, so its inverse is integer too.

    Sparse triangular factors keep it well conditioned (cond <= 1e3), so the
    codomain family stays independent under the float rank test's tolerance.
    """
    while True:
        lower, upper = (rng.integers(-1, 2, size=(k, k)) * (rng.random((k, k)) < 0.3)
                        for _ in range(2))
        b = ((np.tril(lower, -1) + np.eye(k, dtype=np.int64))
             @ (np.triu(upper, 1) + np.eye(k, dtype=np.int64)))
        if np.linalg.cond(b) <= 1e3:
            return b


def _int_generators(rng, k: int, m: int) -> np.ndarray:
    """k independent integer generators on m points, the first one constant."""
    while True:
        g = np.vstack([np.ones((1, m), dtype=np.int64), rng.integers(-3, 4, size=(k - 1, m))])
        if np.linalg.matrix_rank(g) == k:
            return g


def _generator_instance(rng, g, exact: bool, accept: bool):
    """Codomain generators B (g o sigma) diag(w) and the matrix B^-T."""
    k, m = g.shape
    sigma = rng.permutation(m)
    if exact:
        weight = [int(v) for v in rng.integers(1, 6, size=m)]
    else:
        weight = [float(v) for v in fuzz.log_uniform_weights(rng, m, 0.1, 10.0)]
    if not accept:
        y0 = int(rng.integers(m))
        weight[y0] = -weight[y0]
    b = _unimodular(rng, k)
    binv = np.rint(np.linalg.inv(b)).astype(np.int64)
    h = np.asarray(g, dtype=object if exact else float)[:, sigma] * np.array(
        weight, dtype=object if exact else float)[None, :]
    gc = b.astype(object if exact else float) @ h
    matrix = binv.T
    truth = {"verdict": "accept" if accept else "reject", "sigma": [int(s) for s in sigma],
             "weight": [_q(v) for v in weight] if exact else weight}
    return gc, matrix, truth


def _family_doc(prefix: str, g, exact: bool, metric=None) -> dict:
    labels = [f"{prefix}{i}" for i in range(np.asarray(g).shape[1])]
    space = {"labels": labels, "metric": metric} if metric is not None else labels
    return {"space": space, "generators": _matrix_doc(g, exact) if exact
            else np.asarray(g, dtype=float).tolist()}


def _generator_op(w: _Writer, rng, name: str, g, mode: str, accept: bool, kind: str,
                  metric=None) -> Op:
    exact = mode == "exact"
    gc, matrix, truth = _generator_instance(rng, g, exact, accept)
    doc = {"basis": "generator", "matrix": _matrix_doc(matrix, exact),
           "domain": _family_doc("x", g, exact, metric),
           "codomain": _family_doc("y", gc, exact)}
    path = w.doc(name, doc)
    k, m = np.asarray(g).shape
    truth.update(basis="generator", rank=int(k), points=int(m), full=bool(k == m))
    if kind == "decompose":
        return Op(name, kind, mode, truth, argv=("decompose", path, "--mode", mode), path=path)
    return Op(name, kind, mode, truth, params={"path": path, "mode": mode}, path=path)


def _lipschitz_generators(rng, lo: int, hi: int):
    space = fuzz.random_metric_space(rng, max_points=hi, min_points=lo)
    fam = build_lipschitz_family(space)
    return np.asarray(fam.generators, dtype=float), space.metric.tolist()


# (kind, mode, family, rank, points); family "int" or "lipschitz". Each block
# is one cost class on the reference machine, and the round is sized so that
# every quantile falls inside a block and not in the gap between two: 13 cheap
# operations (3-6 ms: full families on up to 6 points and the smallest float
# certificates), 10 full-family exact decompositions on 7 points (about 7 ms,
# and nearly the same for every instance and either verdict) that hold the
# medians, 6 dearer certificates (10-70 ms, among them the LP path at rank
# 13-14), and 7 rank-4 exact and rank-5 float certificates (90-110 ms) that
# hold the 90th percentile.
GENERATOR_BLOCKS = (
    (("decompose", "exact", "int", 3, 3), ("decompose", "float", "int", 6, 6),
     ("decompose", "exact", "int", 4, 4), ("decompose", "float", "lipschitz", 6, 8),
     ("decompose", "exact", "int", 5, 5), ("decompose", "float", "int", 8, 8),
     ("decompose", "exact", "int", 6, 6), ("decompose", "float", "lipschitz", 9, 12),
     ("decompose", "float", "int", 4, 4), ("decompose", "float", "lipschitz", 4, 6),
     ("certify", "float", "int", 3, 8), ("certify", "float", "int", 3, 10),
     ("certify", "float", "int", 3, 12)),
    (("decompose", "exact", "int", 7, 7),) * 10,
    (("certify", "exact", "int", 3, 8), ("certify", "exact", "int", 3, 10),
     ("certify", "float", "int", 4, 12), ("certify", "float", "int", 13, 16),
     ("certify", "float", "int", 14, 18), ("certify", "float", "int", 4, 16)),
    (("certify", "exact", "int", 4, 10),) * 4 + (("certify", "float", "int", 5, 14),) * 3,
)
# the blocks interleaved, so the dear operations are spread through the round
GENERATOR_SLOTS = tuple(block[j] for j in range(max(map(len, GENERATOR_BLOCKS)))
                        for block in GENERATOR_BLOCKS if j < len(block))


def _generator_slot(w, rng, name, slot, accept):
    kind, mode, family, k, m = slot
    metric = None
    if family == "lipschitz":
        g, metric = _lipschitz_generators(rng, k, m)
    else:
        g = _int_generators(rng, k, m)
    return _generator_op(w, rng, name, g, mode, accept, kind, metric)


def _generator_basis(w: _Writer, rng, sets: int) -> Plan:
    rounds = []
    for s in range(sets):
        ops = []
        for i, slot in enumerate(GENERATOR_SLOTS):
            accept = (i + s) % 2 == 0
            ops.append(_generator_slot(w, rng, f"s{s}-{i}-{slot[0]}-{slot[1]}-{slot[3]}x{slot[4]}",
                                       slot, accept))
        rounds.append(ops)
    warm = [_generator_slot(w, rng, "warm-dec", ("decompose", "exact", "int", 3, 3), True),
            _generator_slot(w, rng, "warm-dec-float", ("decompose", "float", "lipschitz", 3, 4),
                            True),
            _generator_slot(w, rng, "warm-cert", ("certify", "exact", "int", 3, 6), True),
            _generator_slot(w, rng, "warm-cert-lp", ("certify", "float", "int", 13, 14), True)]
    return Plan(rounds, warm)


# -------------------------------------------------------------------- families

def _adequacy_op(w: _Writer, rng, name: str, lo: int, hi: int, drop_constants: bool) -> Op:
    g, metric = _lipschitz_generators(rng, lo, hi)
    if drop_constants:
        g = g[1:]  # build_lipschitz_family puts the constants first
    n = len(metric)
    path = w.doc(name, {"space": {"labels": [f"p{i}" for i in range(n)], "metric": metric},
                        "generators": g.tolist()})
    full = not drop_constants
    truth = {"verdict": "accept" if full else "reject", "adequate": full,
             "has_constants": full, "separates": full, "points": n}
    return Op(name, "adequacy", "float", truth, argv=("adequacy", path), path=path)


def _bump_op(w: _Writer, rng, name: str) -> Op:
    g, metric = _lipschitz_generators(rng, 4, 8)
    n = len(metric)
    anchor = int(rng.integers(n))
    others = [i for i in range(n) if i != anchor]
    closed = sorted(int(i) for i in rng.choice(others, size=int(rng.integers(1, n)),
                                               replace=False))
    labels = [f"p{i}" for i in range(n)]
    doc = {"family": {"space": {"labels": labels, "metric": metric}, "generators": g.tolist()},
           "anchor": labels[anchor], "closed": [labels[i] for i in closed]}
    path = w.doc(name, doc)
    truth = {"verdict": "accept", "anchor": anchor, "closed": closed}
    return Op(name, "bump", "float", truth, params={"path": path}, path=path)


def _samples(m: int) -> list:
    return [(i + 0.5) / m for i in range(m)]


def _compactify_op(w: _Writer, rng, name: str, variant: str) -> Op:
    m = int(rng.integers(6, 13))
    n = int(rng.choice([4096, 10000]))
    if variant == "boundary":
        c = sorted(float(v) for v in rng.uniform(0.2, 1.3, size=2))
        c[1] = max(c[1], c[0] + 0.15)
        doc = {"domain": {"samples": _samples(m), "generators": ["t", "sin(1/t)"],
                          "name": "X", "interval": [0, 1, True, False]},
               "sequences": [{"name": f"s{i}", "n": n, "rule": f"1/(2*pi*k + {ci!r})"}
                             for i, ci in enumerate(c)]}
        truth = {"verdict": "accept", "added": [[0.0, float(np.sin(ci))] for ci in c],
                 "labels": ["s0", "s1"]}
    elif variant == "nonconvergent":
        a = float(rng.uniform(0.5, 2.0))
        doc = {"domain": {"samples": _samples(m), "generators": ["t", "sin(1/t)"]},
               "sequences": [{"name": "osc", "n": n, "rule": f"{a!r}/k"}]}
        truth = {"verdict": "reject", "reason": "nonconvergent-net", "sequence": "osc",
                 "coordinate": "sin(1/t)"}
    else:
        flip = variant == "flip"
        weight = "1" if rng.integers(2) == 0 else "1 + t"
        seqs = [{"name": "to0", "n": n, "rule": "1/(k+1)"},
                {"name": "to1", "n": n, "rule": "1 - 1/(k+1)"}]
        samples = _samples(m)
        doc = {"domain": {"samples": samples, "generators": ["t"], "name": "X"},
               "codomain": {"samples": samples, "generators": ["t"], "name": "Y"},
               "sequences": seqs, "sequences_codomain": seqs,
               "operator": {"pullback": "1 - t" if flip else "t", "weight": weight}}
        sigma = [m - 1 - i for i in range(m)] if flip else list(range(m))
        wvals = [1.0 if weight == "1" else 1.0 + y for y in samples]
        truth = {"verdict": "accept", "sigma": sigma, "weight": wvals,
                 "matching": ([["to0", "to1"], ["to1", "to0"]] if flip
                              else [["to0", "to0"], ["to1", "to1"]])}
    truth["variant"] = variant
    path = w.doc(name, doc)
    return Op(name, "compactify", "float", truth, argv=("compactify", path), path=path)


def _local_form_op(rng, name: str) -> Op:
    e = fuzz.random_clamp_expr(rng, level=int(rng.integers(2, 4)))
    box = fuzz.random_interval(rng)
    interval = f"{box.lo!r},{box.hi!r}"
    return Op(name, "local-form", "float",
              {"verdict": "accept", "expr": to_sexpr(e), "box": [box.lo, box.hi]},
              argv=("example", "local-form", "--expr", to_sexpr(e), "--interval", interval))


def _decay_op(rng, name: str) -> Op:
    e = fuzz.random_analytic_expr(rng, level=int(rng.integers(2, 4)))
    return Op(name, "decay", "float", {"verdict": "accept", "expr": to_sexpr(e)},
              argv=("example", "decay", "--expr", to_sexpr(e)))


def _witness_op(rng, name: str) -> Op:
    a, b = sorted(float(v) for v in rng.uniform(0.0, 1.0, size=2))
    b = max(b, a + 1e-3)
    at = (a + b) / 2
    return Op(name, "witness", "float", {"verdict": "accept", "a": a, "b": b, "at": at},
              argv=("example", "witness", "--a", repr(a), "--b", repr(b), "--at", repr(at)))


def _families(w: _Writer, rng, sets: int) -> Plan:
    # the cheap examples (about 2 ms) are over half the round and hold the
    # medians; the four adequacy checks hold the 90th percentile
    rounds = []
    for s in range(sets):
        ops = [
            _local_form_op(rng, f"s{s}-lf0"),
            _adequacy_op(w, rng, f"s{s}-adq0", 8, 16, False),
            _witness_op(rng, f"s{s}-wit0"),
            _compactify_op(w, rng, f"s{s}-cmp0", "boundary"),
            _decay_op(rng, f"s{s}-decay0"),
            _bump_op(w, rng, f"s{s}-bump0"),
            _compactify_op(w, rng, f"s{s}-cmp1", "nonconvergent"),
            _local_form_op(rng, f"s{s}-lf1"),
            _adequacy_op(w, rng, f"s{s}-adq1", 24, 30, False),
            _local_form_op(rng, f"s{s}-lf2"),
            _compactify_op(w, rng, f"s{s}-cmp2", "flip" if s % 2 == 0 else "identity"),
            _witness_op(rng, f"s{s}-wit1"),
            _decay_op(rng, f"s{s}-decay1"),
            _bump_op(w, rng, f"s{s}-bump1"),
            _adequacy_op(w, rng, f"s{s}-adq2", 8, 12, True),
            _local_form_op(rng, f"s{s}-lf3"),
            _compactify_op(w, rng, f"s{s}-cmp3", "nonconvergent"),
            _adequacy_op(w, rng, f"s{s}-adq3", 24, 30, False),
        ]
        rounds.append(ops)
    warm = [_adequacy_op(w, rng, "warm-adq", 4, 6, True),
            _compactify_op(w, rng, "warm-cmp", "flip"),
            _bump_op(w, rng, "warm-bump"),
            _local_form_op(rng, "warm-lf"), _decay_op(rng, "warm-decay"),
            _witness_op(rng, "warm-wit")]
    return Plan(rounds, warm)


_BUILDERS = {"point-float": _point_float, "point-exact": _point_exact,
             "generator-basis": _generator_basis, "families": _families}


def generate(workload: str, seed: int, workdir: str) -> Plan:
    """Write the workload's documents for `seed` under `workdir`."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    plan = _BUILDERS[workload](_Writer(workdir), _rng(workload, seed), SETS[workload])
    plan.round_s = ROUND_SECONDS[workload]
    return plan
