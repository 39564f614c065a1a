"""System-level acceptance gate.

Nine criteria, each a seeded, deterministic property run at desk scale. Every
test prints one `criterion N: PASS/FAIL` line (visible under `pytest -s`).
The last criterion re-runs the first eight with the same seeds and demands
byte-identical canonical reports.
"""
import time

import numpy as np

from oiso.adequacy import build_precise_bump, check_adequate
from oiso.classify import classify
from oiso.compactify import (
    SampledSpace,
    SequenceSpec,
    WeightedCompositionSpec,
    compactified_decompose,
    embed,
    limit_points,
)
from oiso.cones import is_order_isomorphism
from oiso.exprs import decay_check, eval_expr, interval_eval, local_form, to_sexpr
from oiso.linalg import exact_solve_unique, mat_vec
from oiso.fuzz import (
    random_analytic_expr,
    random_clamp_expr,
    random_interval,
    random_metric_space,
    random_monomial,
    random_nonneg_nonmonomial,
    random_permutation_operator,
    random_signed_monomial,
    spawn_generators,
)
from oiso.recovery import decompose, fip_check, normalize, zero_family
from oiso.serialize import build_report, canonical_json
from oiso.spaces import FunctionFamily, build_lipschitz_family

TOL = 1e-9
SEEDS = {1: 101, 2: 202, 3: 303, 4: 404, 5: 505, 6: 606, 7: 707, 8: 808, 9: 909}
TIME_BUDGET_S = 60.0

_REPORTS: dict = {}
_ELAPSED: dict = {}


def _rng(criterion: int) -> np.random.Generator:
    return spawn_generators(SEEDS[criterion], 1)[0]


def _canonical_report(criterion: int, result: dict) -> str:
    payload = build_report(command=f"acceptance.criterion-{criterion}",
                           result=result, inputs={},
                           settings={"seed": SEEDS[criterion]})
    return canonical_json(payload)


def _run(criterion: int, title: str, fn):
    t0 = time.perf_counter()
    try:
        result = fn()
    except BaseException:
        print(f"criterion {criterion}: FAIL - {title}")
        raise
    _ELAPSED[criterion] = time.perf_counter() - t0
    _REPORTS[criterion] = _canonical_report(criterion, result)
    print(f"criterion {criterion}: PASS - {title}")


# ---------------------------------------------------------------- criterion 1

def _criterion_1() -> dict:
    r = _rng(1)
    dims = []
    worst = 0.0
    for _ in range(1000):
        n = int(r.integers(2, 51))
        dims.append(n)
        op_e, sig_e, wt_e = random_monomial(r, n, exact=True)
        d_e = decompose(op_e)
        assert tuple(d_e.sigma) == tuple(sig_e)
        assert tuple(d_e.weight) == tuple(wt_e)
        assert d_e.residual == 0.0
        op_f, sig_f, wt_f = random_monomial(r, n)
        d_f = decompose(op_f)
        assert tuple(d_f.sigma) == tuple(sig_f)
        assert d_f.residual <= TOL
        worst = max(worst, d_f.residual)
    return {"count": 1000, "dim_min": min(dims), "dim_max": max(dims),
            "max_float_residual": worst}


def test_criterion_1_round_trip_decomposition():
    _run(1, "round-trip decomposition of 1000 positive monomial models "
            "(dims 2-50), exact in rational mode, residual <= 1e-9 in float",
         _criterion_1)


# ---------------------------------------------------------------- criterion 2

def _criterion_2() -> dict:
    r = _rng(2)
    sides = {"domain": 0, "codomain": 0}
    for _ in range(1000):
        n = int(r.integers(2, 11))
        op = random_nonneg_nonmonomial(r, n)  # exact rationals
        cert = is_order_isomorphism(op)
        assert not cert.accept
        w = np.array(cert.witness_values, dtype=object)
        assert all(x >= 0 for x in w) and any(x > 0 for x in w)
        if cert.side == "domain":
            image = mat_vec(op.matrix, w)
        else:
            # independent exact solve of M image = w (RREF path, not the
            # Gauss-Jordan inverse the certificate came from)
            image = exact_solve_unique(op.matrix, w)
        assert image is not None and image[cert.point] < 0
        sides[cert.side] += 1
    return {"count": 1000, "rejected": 1000, "arithmetic": "rational",
            "witness_sides": sides}


def test_criterion_2_rejection_soundness():
    _run(2, "1000 invertible nonnegative non-monomial models all rejected "
            "with a witness that verifiably leaves the positive orthant",
         _criterion_2)


# ---------------------------------------------------------------- criterion 3

def _criterion_3() -> dict:
    r = _rng(3)
    min_weight = float("inf")
    for _ in range(1000):
        n = int(r.integers(2, 51))
        op, _, _ = random_monomial(r, n)
        d = decompose(op)
        assert min(d.weight) > 0.0
        min_weight = min(min_weight, float(min(d.weight)))
        anchor = int(r.integers(n))
        assert fip_check(op, anchor)
        # Zero-set intersection masks at every point pair, in both directions.
        a_fwd = np.abs(np.asarray(op.matrix, dtype=float)) > TOL
        a_bwd = np.abs(np.asarray(op.inverse_matrix, dtype=float)) > TOL
        fwd = (a_fwd.sum(axis=1)[None, :] - a_fwd.T) == 0  # [anchor x, point y]
        bwd = (a_bwd.sum(axis=1)[None, :] - a_bwd.T) == 0  # [anchor y, point x]
        assert np.array_equal(fwd, bwd.T)
        assert np.all(fwd.sum(axis=1) == 1)
        assert np.array_equal(zero_family(op, anchor).intersection_mask(n),
                              fwd[anchor])
        b = int(r.integers(n))
        assert np.array_equal(zero_family(op.inverse(), b).intersection_mask(n),
                              bwd[b])
        di = decompose(op.inverse())
        sig = np.asarray(d.sigma)
        sig_inv = np.asarray(di.sigma)
        assert np.array_equal(sig_inv[sig], np.arange(n))
        assert np.array_equal(sig[sig_inv], np.arange(n))
    return {"count": 1000, "min_weight": min_weight}


def test_criterion_3_proof_chain():
    _run(3, "proof chain on 1000 accepted instances: the finite-intersection "
            "property of the zero family, zero-set symmetry at every point pair, "
            "strictly positive weight, inverse sigma from the inverse model",
         _criterion_3)


# ---------------------------------------------------------------- criterion 4

def _criterion_4() -> dict:
    r = _rng(4)
    for _ in range(200):
        n = int(r.integers(2, 13))
        op, sig, _ = random_signed_monomial(r, n)
        res = classify(op)
        assert res.kind == "isometry"
        assert np.max(np.abs(np.abs(op.apply_values(np.ones(n))) - 1.0)) <= 1e-12
        assert tuple(res.decomposition.sigma) == tuple(sig)

        n2 = int(r.integers(2, 13))
        op2, sig2, _ = random_monomial(r, n2)
        res2 = classify(op2)
        assert res2.kind == "lattice-iso"
        assert tuple(res2.decomposition.sigma) == tuple(sig2)
        assert tuple(decompose(op2).sigma) == tuple(sig2)
        assert min(res2.decomposition.weight) > 0.0

        n3 = int(r.integers(2, 13))
        op3, sig3, _ = random_permutation_operator(r, n3)
        res3 = classify(op3)
        assert res3.kind == "algebra-iso"
        assert tuple(res3.decomposition.sigma) == tuple(sig3)
        assert all(x == 1.0 for x in res3.decomposition.weight)
        assert tuple(decompose(op3).sigma) == tuple(sig3)
    return {"signed": 200, "positive": 200, "permutations": 200,
            "sigma_agreement": "exact"}


def test_criterion_4_classifier_pipelines():
    _run(4, "200 signed monomials classify as isometries (|T1| = 1), 200 "
            "positive as lattice isos, 200 permutations as algebra isos; "
            "every pipeline recovers the generating sigma exactly",
         _criterion_4)


# ---------------------------------------------------------------- criterion 5

def _criterion_5() -> dict:
    r = _rng(5)
    worst = 0.0
    for _ in range(200):
        n = int(r.integers(2, 13))
        op, sig, _ = random_monomial(r, n)
        # really non-unital: T1 is far from the constant 1
        assert np.max(np.abs(op.apply_values(np.ones(n)) - 1.0)) > 1e-6
        norm = normalize(op)
        ones_img = np.asarray(norm.operator.apply_values(np.ones(n)), dtype=float)
        gap = float(np.max(np.abs(ones_img - 1.0)))
        assert gap <= 1e-12
        worst = max(worst, gap)
        assert tuple(norm.sigma) == tuple(sig) == tuple(decompose(op).sigma)
    return {"count": 200, "max_unit_gap": worst}


def test_criterion_5_unital_renormalization():
    _run(5, "200 non-unital accepted models renormalize to S with "
            "||S1 - 1|| <= 1e-12 and the same sigma",
         _criterion_5)


# ---------------------------------------------------------------- criterion 6

def _criterion_6() -> dict:
    r = _rng(6)
    bumps = 0
    small_spaces = 0
    for _ in range(50):
        space = random_metric_space(r, max_points=20)
        fam = build_lipschitz_family(space)
        rep = check_adequate(fam)
        assert rep.separates and rep.has_constants
        assert rep.g_invariant and rep.cone_generates and rep.adequate
        assert fam.names[0] == "1"
        reduced = FunctionFamily(space, fam.generators[1:], names=fam.names[1:])
        assert not check_adequate(reduced).has_constants
        if space.size <= 8:
            small_spaces += 1
            for x in range(space.size):
                closed = [z for z in range(space.size) if z != x]
                v = np.asarray(build_precise_bump(fam, x, closed).values,
                               dtype=float)
                bumps += 1
                assert v.min() >= 0.0 and v.max() <= 1.0
                assert v[x] == 1.0
                assert max(abs(v[z]) for z in closed) <= 1e-12
    return {"spaces": 50, "small_spaces": small_spaces, "bumps": bumps}


def test_criterion_6_adequacy():
    _run(6, "lipschitz families on 50 random metric spaces pass all four "
            "adequacy flags, dropping constants flips has_constants, and "
            "precise bumps hit 1 at the anchor and 0 on the rest (all "
            "point/complement pairs, |X| <= 8)",
         _criterion_6)


# ---------------------------------------------------------------- criterion 7

def _criterion_7() -> dict:
    samples = [(i + 0.5) / 8 for i in range(8)]

    interior = embed(samples, ["t"], name="X")
    added = limit_points([SequenceSpec(name="to0", n=10_000, rule="1/k")],
                         ["t"], interior=interior)
    assert len(added) == 1
    assert abs(added[0].coords[0]) <= 1e-6

    gens = ["t", "sin(1/t)"]
    interior2 = embed(samples, gens, name="X")
    seqs = [SequenceSpec(name="zeros", n=10_000, rule="1/(pi*k)"),
            SequenceSpec(name="ones", n=10_000, rule="1/(2*pi*k + pi/2)")]
    added2 = limit_points(seqs, gens, interior=interior2)
    assert len(added2) == 2
    assert abs(added2[0].coords[1] - 0.0) <= 1e-6
    assert abs(added2[1].coords[1] - 1.0) <= 1e-6

    x_space = SampledSpace(samples, ("t",), name="X", domain=(0.0, 1.0, True, True))
    y_space = SampledSpace(samples, ("t",), name="Y", domain=(0.0, 1.0, True, True))
    seqs_x = [SequenceSpec(name="x-to0", n=10_000, rule="1/(k+1)"),
              SequenceSpec(name="x-to1", n=10_000, rule="1 - 1/(k+1)")]
    seqs_y = [SequenceSpec(name="y-to0", n=10_000, rule="1/(k+1)"),
              SequenceSpec(name="y-to1", n=10_000, rule="1 - 1/(k+1)")]
    flip = WeightedCompositionSpec(pullback="1 - t", weight="1")
    dec = compactified_decompose(flip, x_space, y_space, seqs_x, seqs_y)
    assert dec.added_matching == (("y-to0", "x-to1"), ("y-to1", "x-to0"))

    return {"single_generator_added": [list(p.coords) for p in added],
            "two_generator_added": [list(p.coords) for p in added2],
            "flip_matching": [list(pair) for pair in dec.added_matching]}


def test_criterion_7_boundary_exploration():
    _run(7, "half-open interval gains one boundary point with the identity "
            "generator and two with the oscillating generator (second "
            "coordinates 0 and 1 within 1e-6); the t -> 1-t operator swaps "
            "the endpoint boundary points",
         _criterion_7)


# ---------------------------------------------------------------- criterion 8

def _criterion_8() -> dict:
    r = _rng(8)
    worst_local = 0.0
    for _ in range(500):
        e = random_clamp_expr(r, level=3)
        box = random_interval(r)
        lf = local_form(e, box)
        assert lf.residual <= 1e-10
        worst_local = max(worst_local, lf.residual)
        assert box.lo <= lf.interval.lo <= lf.interval.hi <= box.hi
        assert "clamp" not in to_sexpr(lf.expr)

    for _ in range(500):
        u = random_analytic_expr(r, level=3)
        assert decay_check(u, t_max=1e6)

    for i in range(10_000):
        e = random_clamp_expr(r, level=2) if i % 2 else random_analytic_expr(r, level=2)
        box = random_interval(r, min_width=1e-6)
        enc = interval_eval(e, box)
        t = box.lo + (box.hi - box.lo) * float(r.random())
        v = float(eval_expr(e, t))
        assert enc.lo <= v <= enc.hi
    return {"local_forms": 500, "max_local_residual": worst_local,
            "decay_passes": 500, "enclosure_triples": 10_000}


def test_criterion_8_example_space():
    _run(8, "500 seeded local forms certified with agreement <= 1e-10, 500 "
            "seeded expressions pass the quadratic-decay screen up to 1e6, "
            "and 10000 random enclosures contain the pointwise value",
         _criterion_8)


# ---------------------------------------------------------------- criterion 9

_CRITERIA = {1: _criterion_1, 2: _criterion_2, 3: _criterion_3, 4: _criterion_4,
             5: _criterion_5, 6: _criterion_6, 7: _criterion_7, 8: _criterion_8}


def _criterion_9() -> dict:
    for num, fn in _CRITERIA.items():
        first = _REPORTS.get(num) or _canonical_report(num, fn())
        second = _canonical_report(num, fn())
        assert second == first, f"criterion {num} report changed under re-run"
    total = sum(_ELAPSED.values())
    assert total < TIME_BUDGET_S, f"criteria took {total:.1f}s on first pass"
    return {"repeated": sorted(_CRITERIA), "byte_identical": True}


def test_criterion_9_determinism():
    _run(9, "re-running every criterion with the same seed reproduces each "
            "canonical report byte for byte",
         _criterion_9)
