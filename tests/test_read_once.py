"""A point matrix is read as a weighted permutation once, in either arithmetic.

`OperatorModel` keeps its `linalg.monomial` read and the inverse's, and the
certificate, the inverse, `decompose` and `classify` take what they need from
them. The properties below compare that path with dense references kept
here. Exact: two full `_nonneg_violation` scans (of T and of its Gauss-Jordan
inverse), a fresh `linalg.monomial` re-read for (sigma, weight) and `mat_vec`
for T1. Float: the same two scans (of T and of `np.linalg.inv(T)`), sigma
from each row's argmax, the weight `T @ 1` and the dense residual. Values are
compared with their types, since an int where a Fraction was would change
report bytes, and float values by their bytes, so -0.0 is not 0.0.
"""
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oiso import linalg
from oiso import cones
from oiso import serialize
from oiso.classify import _off_one, classify
from oiso.cli import _fuzz_instance, main
from oiso.cones import Certificate, OperatorModel, _nonneg_violation, is_order_isomorphism
from oiso.linalg import mat_vec
from oiso.fuzz import spawn_generators
from oiso.recovery import AmbiguousIntersectionError, Decomposition, NormalizedOperator, \
    decompose, normalize
from oiso.serialize import parse_operator
from oiso.spaces import DEFAULT_TOL, FunctionFamily, PointSpace


def _typed(values):
    # repr tells -0.0 from 0.0, which == does not
    return [(type(v), v, repr(v)) for v in values]


def _model(m):
    n, exact = m.shape[0], m.dtype == object
    return OperatorModel(m, FunctionFamily.full(PointSpace.discrete(n, "x"), exact=exact),
                         FunctionFamily.full(PointSpace.discrete(n, "y"), exact=exact))


def _same_read(read, ref):
    """Two `linalg.monomial` reads agree, entries with their types."""
    if read is None or ref is None:
        return read is ref
    return read[0].tolist() == ref[0].tolist() and _typed(read[1]) == _typed(ref[1])


def _dense_certificate(m) -> Certificate:
    exact = m.dtype == object
    inv = linalg.exact_inv(m) if exact else np.linalg.inv(m)
    for mat, side in ((m, "domain"), (inv, "codomain")):
        hit = _nonneg_violation(mat, DEFAULT_TOL)
        if hit is not None:
            i, j = hit
            w = linalg.indicator(m.shape[0], j, exact)
            return Certificate(
                accept=False, mode="exact", arithmetic="rational" if exact else "float",
                witness_coeffs=tuple(w), witness_values=tuple(w), side=side, point=i,
                detail=(f"indicator of {side} point {j} maps to a negative "
                        f"value at point {i}"))
    return Certificate(accept=True, mode="exact", arithmetic="rational" if exact else "float")


_NOT_POSITIVE = "the weight T1 is not positive at every point"


def _dense_decomposition(m):
    """The decomposition of an accepted matrix as the dense reading gives it,
    or the detail of the AmbiguousIntersectionError it raises. Exact
    acceptance leaves a positive monomial matrix, re-read here; a float one
    is read by each row's argmax, the weight T @ 1 and the dense residual."""
    if m.dtype == object:
        read = linalg.monomial(m)
        return Decomposition(sigma=tuple(int(c) for c in read[0]), weight=tuple(read[1]),
                             residual=0.0, exact=True)
    n = m.shape[0]
    sigma = np.argmax(m, axis=1)
    if np.unique(sigma).shape[0] != n:
        return "the largest entries of the point matrix's rows share a column"
    weight = m @ np.ones(n)
    if not all(w > 0 for w in weight):
        return _NOT_POSITIVE
    expected = np.zeros((n, n))
    expected[np.arange(n), sigma] = weight
    return Decomposition(sigma=tuple(int(c) for c in sigma), weight=tuple(weight),
                         residual=float(np.max(np.abs(m - expected))), exact=False)


def _dense_classify(m):
    """(kind, decomposition, unimodular sign) as the dense reading decides
    them; the decomposition is a detail string where `classify` raises."""
    exact = m.dtype == object
    cert = _dense_certificate(m)
    n = m.shape[0]
    g = mat_vec(m, np.array([Fraction(1)] * n, dtype=object) if exact else np.ones(n))
    unimodular = not _off_one("|T(1)|", [abs(x) for x in g], exact, DEFAULT_TOL)
    if cert.accept:
        off_unital = _off_one("T(1)", g, exact, DEFAULT_TOL)
        kind = "lattice-iso" if off_unital else "algebra-iso"
        dec = _dense_decomposition(m)
    elif not unimodular:
        kind, dec = "rejected", None
    else:
        reduced = m / g[:, None]
        if _dense_certificate(reduced).accept:
            kind, dec = "isometry", _dense_decomposition(reduced)
        else:
            kind, dec, unimodular = "rejected", None, False
    return kind, dec, tuple(g) if unimodular else None


def _or_detail(f, *args, **kwargs):
    """f's result, or the detail of the AmbiguousIntersectionError it raises."""
    try:
        return f(*args, **kwargs)
    except AmbiguousIntersectionError as e:
        return str(e)


def _assert_same_decomposition(d, ref, t):
    if isinstance(ref, str) and t.monomial is not None:
        # a read sigma is a bijection, so only its weight can be refused
        ref = _NOT_POSITIVE
    assert d == ref
    if isinstance(ref, Decomposition):
        assert _typed(d.weight) == _typed(ref.weight)
        assert type(d.residual) is float


def _assert_matches_the_dense_reference(m):
    exact = m.dtype == object
    try:
        t = _model(m)
    except linalg.SingularMatrixError:
        return  # the dense inverse refuses it too
    cert = is_order_isomorphism(t)
    ref = _dense_certificate(m)
    assert cert == ref
    assert _typed(cert.witness_values or ()) == _typed(ref.witness_values or ())
    assert type(cert.point) is type(ref.point)
    inv = linalg.exact_inv(m) if exact else np.linalg.inv(m)
    assert np.array_equal(t.inverse_matrix, inv)
    if exact:
        assert _typed(t.inverse_matrix.ravel()) == _typed(inv.ravel())
    assert _same_read(t.inverse_monomial, linalg.monomial(inv))
    v = np.array(list(range(-1, m.shape[0] - 1)), dtype=object if exact else float)
    assert _typed(t.apply_values(v)) == _typed(mat_vec(m, v))  # v holds -1 and 0

    if ref.accept:
        _assert_same_decomposition(_or_detail(decompose, t, cert=cert),
                                   _dense_decomposition(m), t)

    kind, dec, sign = _dense_classify(m)
    rep = _or_detail(classify, t)
    if isinstance(dec, str):
        _assert_same_decomposition(rep, dec, t)
        return
    assert rep.kind == kind
    if dec is None:
        assert rep.decomposition is None
    else:
        _assert_same_decomposition(rep.decomposition, dec, t)
    assert _typed(rep.unimodular_sign or ()) == _typed(sign or ())
    assert (rep.unimodular_sign is None) == (sign is None)


# entries mix Python ints and Fractions; the small value set makes ties between
# the most negative entries common
_WEIGHTS = st.sampled_from([1, 2, -1, -2, Fraction(1), Fraction(-1), Fraction(1, 2),
                            Fraction(-1, 2), Fraction(-2), Fraction(7, 3)])
_ZEROS = st.sampled_from([0, Fraction(0)])


@st.composite
def _monomials(draw):
    n = draw(st.integers(1, 6))
    sigma = draw(st.permutations(range(n)))
    m = np.empty((n, n), dtype=object)
    for y in range(n):
        for x in range(n):
            m[y, x] = draw(_WEIGHTS) if x == sigma[y] else draw(_ZEROS)
    return m


@st.composite
def _near_monomials(draw):
    """A monomial with extra entries: nonnegative ones, or tiny ones of either
    sign. Kept only when invertible."""
    m = draw(_monomials())
    n = m.shape[0]
    extra = st.sampled_from([1, Fraction(3, 2)]) if draw(st.booleans()) else \
        st.sampled_from([Fraction(1, 10 ** 9), Fraction(-1, 10 ** 9)])
    if draw(st.booleans()):
        m = np.vectorize(abs, otypes=[object])(m)
    for _ in range(draw(st.integers(1, max(1, n)))):
        m[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(extra)
    return m


_MATRICES = st.one_of(_monomials(), _near_monomials())


@settings(max_examples=200, deadline=None)
@given(_MATRICES)
def test_read_once_matches_the_dense_reference(m):
    _assert_matches_the_dense_reference(m)


# ties between the most negative weights are common; -1e-12 beside 1 is a
# negative weight inside the cutoff, and 1e-30 puts the inverse's cutoff
# above its negative reciprocal too, so the cone test accepts
_FLOAT_WEIGHTS = st.sampled_from([1.0, 2.0, 0.5, 7 / 3, -1.0, -2.0, -0.5,
                                  1e-12, -1e-12, 1e-30])


@st.composite
def _float_monomials(draw):
    """A weighted permutation with every weight scaled by one alpha in
    [1e-12, 1e12]; alpha = 1 leaves the unital and unimodular ones."""
    n = draw(st.integers(1, 6))
    sigma = draw(st.permutations(range(n)))
    alpha = draw(st.one_of(st.just(1.0), st.floats(1e-12, 1e12)))
    m = np.zeros((n, n))
    for y in range(n):
        m[y, sigma[y]] = alpha * draw(_FLOAT_WEIGHTS)
    return m


@st.composite
def _float_near_monomials(draw):
    """A float monomial with extra entries off its pattern: positive ones
    the size of its weights, or ones 1e-20 of that size, of either sign."""
    m = draw(_float_monomials())
    n = m.shape[0]
    scale = float(np.max(np.abs(m)))
    extra = st.sampled_from([1.0, 1.5]) if draw(st.booleans()) else \
        st.sampled_from([1e-20, -1e-20])
    if draw(st.booleans()):
        m = np.abs(m)
    for _ in range(draw(st.integers(1, max(1, n)))):
        y, x = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if m[y, x] == 0:
            m[y, x] = scale * draw(extra)
    return m


@settings(max_examples=300, deadline=None)
@given(st.one_of(_float_monomials(), _float_near_monomials()))
def test_float_read_matches_the_dense_reference(m):
    _assert_matches_the_dense_reference(m)


def _dense_normalize(t) -> NormalizedOperator:
    """`normalize` of a point-basis operator along its dense matrices: u from
    the dense inverse, T u by `mat_vec`, S the whole rescaled matrix."""
    base = decompose(t)
    u = t.domain.ones() + mat_vec(t.inverse_matrix, t.codomain.ones())
    tu = mat_vec(t.matrix, u)
    s = _model(t.matrix * u[None, :] / tu[:, None])
    d_s = decompose(s)
    agreement = float(np.max(np.abs(tu / u[d_s.sigma_array()] - base.weight_array())))
    return NormalizedOperator(u=tuple(u), operator=s, sigma=d_s.sigma,
                              weight_agreement=agreement)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_monomials().map(np.vectorize(abs, otypes=[object])),
                 _float_monomials().map(np.abs)))
def test_normalize_matches_the_dense_construction(m):
    """A positive weighted permutation is normalized along its reads; the
    result equals the dense construction's, values with their types."""
    t = _model(m)
    norm, ref = normalize(t), _dense_normalize(t)
    assert _typed(norm.u) == _typed(ref.u)
    assert (norm.sigma, repr(norm.weight_agreement)) == (ref.sigma, repr(ref.weight_agreement))
    s, s_ref = norm.operator, ref.operator
    assert _same_read(s.monomial, s_ref.monomial)
    assert _same_read(s.inverse_monomial, s_ref.inverse_monomial)
    assert _typed(s.matrix.ravel()) == _typed(s_ref.matrix.ravel())
    assert (s.domain, s.codomain, s.basis) == (t.domain, t.codomain, "point")


@settings(max_examples=100, deadline=None)
@given(_monomials())
def test_weighted_permutation_reads_as_the_generic_constructor(m):
    """`weighted_permutation` adopts its own read; the generic constructor
    reads the same matrix afresh. Both give the same model."""
    read = linalg.monomial(m)
    t = OperatorModel.weighted_permutation(read[0], read[1])
    generic = _model(np.asarray(t.matrix.tolist(), dtype=object))
    assert _typed(t.matrix.ravel()) == _typed(generic.matrix.ravel())
    assert _typed(t.inverse_matrix.ravel()) == _typed(generic.inverse_matrix.ravel())
    assert t.monomial[0].tolist() == generic.monomial[0].tolist()
    assert _typed(t.monomial[1]) == _typed(generic.monomial[1])


def test_non_monomial_exact_matrix_is_not_read_as_one():
    t = _model(np.array([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]],
                        dtype=object))
    assert t.monomial is None
    cert = is_order_isomorphism(t)
    assert (cert.accept, cert.side, cert.point) == (False, "codomain", 0)
    with pytest.raises(AmbiguousIntersectionError):
        decompose(t, cert=Certificate(accept=True, mode="exact", arithmetic="rational"))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("rows", [[[0, 2], [3, 0]], [[1, 1], [0, 1]]],
                         ids=["monomial", "non-monomial"])
def test_inverse_swaps_the_matrices_and_reads(monkeypatch, exact, rows):
    t = _model(linalg.as_exact(rows) if exact else np.array(rows, dtype=float))
    calls = []
    monkeypatch.setattr(linalg, "dense_inv", lambda a: calls.append(a))
    inv = t.inverse()
    assert calls == []
    # the given matrix is shared; a monomial inverse is built from its read
    assert inv.inverse_matrix is t.matrix
    assert _typed(inv.matrix.ravel()) == _typed(t.inverse_matrix.ravel())
    assert inv.monomial is t.inverse_monomial and inv.inverse_monomial is t.monomial
    assert (inv.domain, inv.codomain, inv.basis) == (t.codomain, t.domain, t.basis)
    assert calls == []


def test_zero_weight_is_singular_through_weighted_permutation():
    with pytest.raises(linalg.SingularMatrixError):
        OperatorModel.weighted_permutation((1, 0), np.array([Fraction(0), Fraction(1)],
                                                            dtype=object))


@pytest.mark.parametrize("weight", [[2.0], [2.0, 3.0, 4.0], 2.0])
def test_weighted_permutation_needs_one_weight_per_point(weight):
    with pytest.raises(ValueError, match="one weight per point"):
        OperatorModel.weighted_permutation((1, 0), np.asarray(weight))


@pytest.mark.parametrize("weight, families, message", [
    ([2.0, np.nan], None, "operator entries must be finite"),
    ([2.0, np.inf], None, "operator entries must be finite"),
    ([Fraction(2), Fraction(3)], False, "share one arithmetic mode"),
    ([2.0, 3.0], True, "share one arithmetic mode"),
    ([2.0, 3.0], 3, "point matrix shape must match the spaces"),
    ([2.0, 3.0], "proper", "point basis requires full families"),
], ids=["nan", "inf", "exact-weights", "exact-families", "three-points", "proper-family"])
def test_weighted_permutation_keeps_the_generic_checks(weight, families, message):
    # the weights are checked as the generic constructor checks a matrix,
    # without building one
    if families is None:
        fams = {}
    elif families == "proper":
        fam = FunctionFamily(PointSpace.discrete(3), np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]]))
        fams = {"domain": fam, "codomain": fam}
    elif isinstance(families, bool):
        fams = {"domain": FunctionFamily.full(PointSpace.discrete(2), exact=families),
                "codomain": FunctionFamily.full(PointSpace.discrete(2), exact=families)}
    else:
        fams = {"domain": FunctionFamily.full(PointSpace.discrete(families))}
    w = np.array(weight, dtype=object if isinstance(weight[0], Fraction) else float)
    with pytest.raises(ValueError, match=message):
        OperatorModel.weighted_permutation((1, 0), w, **fams)


@st.composite
def _exact_generator_operators(draw):
    """An exact generator-basis operator between two full families: the
    generators are random integer matrices, kept when invertible, and M is
    G_Y^-T P G_X^T for P an invertible monomial or near-monomial, so every
    verdict and rejection side occurs."""
    p = draw(_MATRICES.filter(lambda p: linalg.exact_rank(p) == p.shape[0]))
    n = p.shape[0]
    fams = []
    for prefix in "xy":
        g = linalg.as_exact([[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)])
        if linalg.exact_rank(g) < n:
            g = linalg.as_exact(np.eye(n, dtype=int).tolist())
        fams.append(FunctionFamily(PointSpace.discrete(n, prefix), g))
    gx, gy = fams
    m = linalg.mat_mat(linalg.exact_inv(gy.generators.T), linalg.mat_mat(p, gx.generators.T))
    return OperatorModel(m, gx, gy, basis="generator")


@settings(max_examples=100, deadline=None)
@given(_exact_generator_operators())
def test_exact_point_operator_matches_the_generic_constructor(t):
    """`as_point` and the generic constructor each take the point matrix's
    inverse by `linalg.dense_inv`. Both, and the certificates read from
    them, agree."""
    point = t.as_point()
    generic = _model(np.array(point.matrix.tolist(), dtype=object))
    assert _typed(point.inverse_matrix.ravel()) == _typed(generic.inverse_matrix.ravel())
    assert _same_read(point.inverse_monomial, generic.inverse_monomial)
    cert, ref = is_order_isomorphism(t), is_order_isomorphism(generic)
    assert (cert.accept, cert.side, cert.point) == (ref.accept, ref.side, ref.point)
    if not cert.accept:
        fam = t.domain if cert.side == "domain" else t.codomain
        assert cert.witness_coeffs == tuple(
            linalg.exact_solve_unique(fam.generators.T, list(cert.witness_values)))


def _document(t):
    """An exact generator-basis operator as the document `parse_operator` reads."""
    def rows(m):
        return [[str(x) for x in row] for row in m.tolist()]

    return {"basis": "generator", "matrix": rows(t.matrix),
            **{side: {"space": list(fam.space.labels), "generators": rows(fam.generators)}
               for side, fam in (("domain", t.domain), ("codomain", t.codomain))}}


@settings(max_examples=100, deadline=None)
@given(_exact_generator_operators())
def test_exact_full_family_operator_is_one_operator_on_every_path(t):
    """Built by the public constructor, parsed from its document, or as the
    point-basis operator of its point matrix, an exact full-family operator
    gets one certificate and, when accepted, one decomposition."""
    parsed = parse_operator(_document(t), "exact")
    point = _model(np.array(t.point_matrix().tolist(), dtype=object))
    ops = (t, parsed, point)
    certs = [is_order_isomorphism(op) for op in ops]
    for cert in certs:
        assert (cert.accept, cert.side, cert.point, cert.detail) == \
            (certs[2].accept, certs[2].side, certs[2].point, certs[2].detail)
        assert _typed(cert.witness_values or ()) == _typed(certs[2].witness_values or ())
    assert _typed(certs[0].witness_coeffs or ()) == _typed(certs[1].witness_coeffs or ())
    if certs[2].accept:
        ds = [decompose(op) for op in ops]
        for d in ds:
            assert (d.sigma, d.residual, d.exact) == (ds[2].sigma, ds[2].residual, ds[2].exact)
            assert _typed(d.weight) == _typed(ds[2].weight)


@st.composite
def _float_generator_operators(draw):
    """`_exact_generator_operators`, with M and both families' generators
    taken to float."""
    t = draw(_exact_generator_operators())
    fams = [FunctionFamily(f.space, linalg.as_float(f.generators)) for f in (t.domain, t.codomain)]
    return OperatorModel(linalg.as_float(t.matrix), *fams, basis="generator")


def _scan_is_stable(m, delta):
    """`_nonneg_violation`'s read of float `m` cannot change when each entry
    moves by up to delta * max|m|: no entry is that close to the cutoff, and
    the most negative entry below it leads the next by more than twice that."""
    d = delta * np.max(np.abs(m))
    cut = linalg.cutoff(m, DEFAULT_TOL)
    neg = np.sort(m[m < -cut], axis=None)
    return not np.any(np.abs(m + cut) <= 2 * d) and (neg.size < 2 or neg[1] - neg[0] > 2 * d)


@settings(max_examples=100, deadline=None)
@given(_float_generator_operators())
def test_float_point_operator_matches_the_generic_constructor(t):
    """The float twin: `as_point` and the generic constructor take the point
    matrix's inverse by the same LU, so the inverses agree within the
    rounding scale of a float inverse (1e-9 max|inverse|, or 1e-12 cond(P)
    max|inverse| where P is ill-conditioned), and so do the verdicts
    wherever that scale cannot move the inverse's read (`_scan_is_stable`;
    the near-monomials put entries of relative size 1e-9 at the cutoff)."""
    point = t.as_point()
    generic = _model(np.array(point.matrix))
    inv = generic.inverse_matrix
    delta = max(1e-9, 1e-12 * np.linalg.cond(point.matrix))
    assert np.max(np.abs(point.inverse_matrix - inv)) <= delta * np.max(np.abs(inv))
    cert, ref = is_order_isomorphism(t), is_order_isomorphism(generic)
    if ref.side == "domain" or _scan_is_stable(inv, delta):
        assert (cert.accept, cert.side, cert.point) == (ref.accept, ref.side, ref.point)


_GEN_DOM = {"space": ["a", "b", "c"], "generators": [[1, 1, 1], [0, 1, 2], [0, 0, 1]]}
_GEN_COD = {"space": ["p", "q", "r"], "generators": [[1, 0, 0], [1, 1, 0], [0, 0, 1]]}
# generator matrices whose point matrices are [[0, 2, 0], [0, 0, 1/5], [3, 0, 0]]
# (accepted), [[0, 2, 0], [0, 0, -1], [3, 0, 0]] (rejected on the domain side)
# and [[0, 2, 1], [0, 0, 1/5], [3, 0, 0]] (rejected on the codomain side)
_GEN_MATRICES = [
    ([["9/5", "8/5", "-1/5"], ["1/5", "2/5", "1/5"], ["3", "0", "0"]], 0, None),
    ([["3", "4", "1"], ["-1", "-2", "-1"], ["3", "0", "0"]], 2, "domain"),
    ([["14/5", "18/5", "4/5"], ["1/5", "2/5", "1/5"], ["3", "0", "0"]], 2, "codomain"),
]
_GEN_IDS = ["accept", "domain-reject", "codomain-reject"]


def _generator_doc(matrix):
    return {"basis": "generator", "domain": _GEN_DOM, "codomain": _GEN_COD, "matrix": matrix}


class TestStructuralCost:
    """The work a run pays for, counted: the n^2 reads of a point-basis run
    (`linalg.monomial`, `linalg.rank` and the sign scans of a whole n x n
    matrix), the exact eliminations (`linalg._exact_rref`) and the HiGHS
    solves (`linalg.block_lp`) of a proper-family certificate, and
    the per-entry type check of a float matrix read."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"monomial": 0, "rank": 0, "square_scans": 0, "eliminations": 0}
        real_rref = linalg._exact_rref

        def rref(*args, **kwargs):
            calls["eliminations"] += 1
            return real_rref(*args, **kwargs)

        monkeypatch.setattr(linalg, "_exact_rref", rref)
        for name in ("monomial", "rank"):
            real = getattr(linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(linalg, name, counted)

        def scan(m, tol, _real=cones._nonneg_violation):
            calls["square_scans"] += m.shape[1] > 1
            return _real(m, tol)

        monkeypatch.setattr(cones, "_nonneg_violation", scan)
        return calls

    @staticmethod
    def _run(tmp_path, capsys, matrix, argv, mode):
        """Run the CLI on a point matrix, or on a whole document (a dict)."""
        path = tmp_path / "op.json"
        path.write_text(json.dumps(matrix if isinstance(matrix, dict) else {"matrix": matrix}))
        code = main(argv + [str(path), "--mode", mode])
        capsys.readouterr()
        return code

    @pytest.mark.parametrize("matrix, argv, code", [
        ([[0, "1/2", 0], [0, 0, 3], ["7/3", 0, 0]], ["decompose"], 0),
        ([[0, -2, 0], [0, 0, -2], [1, 0, 0]], ["decompose"], 2),
        ([[0, "1/2", 0], [0, 0, 3], ["7/3", 0, 0]], ["classify"], 0),
        ([[0, -1, 0], [0, 0, 1], [-1, 0, 0]], ["classify"], 0),
    ], ids=["decompose-accept", "decompose-reject", "classify-lattice", "classify-isometry"])
    def test_exact_point_run_reads_the_matrix_once(self, tmp_path, capsys, monkeypatch,
                                                   matrix, argv, code):
        calls = self._count(monkeypatch)
        assert self._run(tmp_path, capsys, matrix, argv, "exact") == code
        assert calls == {"monomial": 1, "rank": 0, "square_scans": 0, "eliminations": 0}

    @pytest.mark.parametrize("matrix, argv, code", [
        ([[0, 0.5, 0], [0, 0, 3], [2.5, 0, 0]], ["decompose"], 0),
        ([[0, -2, 0], [0, 0, -2], [1, 0, 0]], ["decompose"], 2),
        ([[0, 1, 0], [0, 0, -1e-12], [1e-30, 0, 0]], ["decompose"], 2),
        ([[0, 0.5, 0], [0, 0, 3], [2.5, 0, 0]], ["classify"], 0),
        ([[0, -1, 0], [0, 0, 1], [-1, 0, 0]], ["classify"], 0),
    ], ids=["decompose-accept", "decompose-reject", "decompose-ambiguous", "classify-lattice",
            "classify-isometry"])
    def test_float_point_run_reads_the_matrix_once(self, tmp_path, capsys, monkeypatch,
                                                   matrix, argv, code):
        calls = self._count(monkeypatch)
        assert self._run(tmp_path, capsys, matrix, argv, "float") == code
        assert calls == {"monomial": 1, "rank": 0, "square_scans": 0, "eliminations": 0}

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_non_monomial_run_scans_the_matrix(self, tmp_path, capsys, monkeypatch, mode):
        calls = self._count(monkeypatch)
        assert self._run(tmp_path, capsys, [[1, 1], [0, 1]], ["decompose"], mode) == 2
        assert calls == {"monomial": 1, "rank": 0, "square_scans": 2,
                         "eliminations": int(mode == "exact")}

    @pytest.mark.parametrize("argv", [["decompose"], ["classify"]], ids=["decompose", "classify"])
    @pytest.mark.parametrize("matrix, code, side", _GEN_MATRICES, ids=_GEN_IDS)
    def test_exact_full_family_generator_run_eliminates_g_x_and_a_non_monomial_p(
            self, tmp_path, capsys, monkeypatch, argv, matrix, code, side):
        # G_X's elimination forms P. A monomial P proves G_Y independent and
        # M invertible; any other P is inverted by one elimination of its
        # own, which proves the same, and a codomain witness's coefficients
        # are M times the domain coefficients of its values under P^-1
        calls = self._count(monkeypatch)
        assert self._run(tmp_path, capsys, _generator_doc(matrix), argv, "exact") == code
        assert calls["eliminations"] == (2 if side == "codomain" else 1)  # only that P is not monomial

    def test_exact_full_family_generator_operator_eliminates_its_families_only(
            self, monkeypatch):
        # the constructor forms P, here a monomial, which proves M invertible:
        # building, certifying and decomposing eliminate G_X and G_Y, when
        # their families are built, and nothing else; a singular M still
        # raises when the operator is built
        calls = self._count(monkeypatch)
        dom, cod = (FunctionFamily(PointSpace(tuple(doc["space"])),
                                   linalg.as_exact(doc["generators"]))
                    for doc in (_GEN_DOM, _GEN_COD))
        t = OperatorModel(linalg.as_exact(_GEN_MATRICES[0][0]), dom, cod, basis="generator")
        cert = is_order_isomorphism(t)
        d = decompose(t, cert=cert)
        assert (cert.accept, d.sigma, calls["eliminations"]) == (True, (1, 2, 0), 2)
        singular = linalg.as_exact([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        with pytest.raises(linalg.SingularMatrixError,
                           match="^matrix is singular in exact arithmetic$"):
            OperatorModel(singular, dom, cod, basis="generator")

    @pytest.mark.parametrize("matrix, code, side", _GEN_MATRICES[1:], ids=_GEN_IDS[1:])
    def test_full_family_witness_coefficients_come_from_the_cached_inverse(
            self, monkeypatch, matrix, code, side):
        t = parse_operator(_generator_doc(matrix), "exact")
        calls = self._count(monkeypatch)
        cert = is_order_isomorphism(t)
        assert (cert.accept, cert.side, calls["eliminations"]) == (False, side, 0)
        fam = t.domain if side == "domain" else t.codomain
        assert _typed(mat_vec(fam.generators.T, np.array(cert.witness_coeffs))) == \
            _typed(cert.witness_values)

    @staticmethod
    def _count_fractions(monkeypatch):
        """A one-item list counting the Fractions built from now on."""
        calls, real = [0], Fraction.__new__

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        return calls

    @staticmethod
    def _full_family_generator_doc(n, accept):
        """An exact generator-basis document between full families on n
        points whose point matrix is the weighted permutation
        diag(w) Pi^T, w_y = 1 + y mod 3 (w_0 negated to reject), written as
        strings: G_X upper triangular with a constant first row, G_Y =
        B (G_X Pi) diag(w) for the unimodular B = I + the subdiagonal, and
        M = B^-T, so G_Y^T M = (G_X Pi diag(w))^T."""
        gx = np.array([[1] * n] + [[int(j == i) + (i * j) % 3 * (j > i) for j in range(n)]
                                   for i in range(1, n)], dtype=object)
        sigma = [(3 * y + 1) % n if n % 3 else (n - 1 - y) for y in range(n)]
        w = [(1 + y % 3) * (-1 if y == 0 and not accept else 1) for y in range(n)]
        b = np.eye(n, dtype=int) + np.eye(n, k=-1, dtype=int)
        gy = b.astype(object) @ (gx[:, sigma] * np.array(w, dtype=object)[None, :])
        m = linalg.exact_inv(b.astype(object)).T

        def rows(a):
            return [[str(x) for x in row] for row in a.tolist()]

        return {"basis": "generator", "matrix": rows(m),
                "domain": {"space": [f"x{i}" for i in range(n)], "generators": rows(gx)},
                "codomain": {"space": [f"y{i}" for i in range(n)], "generators": rows(gy)}}

    @pytest.mark.parametrize("n", [7, 16])
    @pytest.mark.parametrize("accept", [True, False], ids=["accept", "reject"])
    def test_exact_full_family_generator_decompose_builds_at_most_4n_fractions(
            self, tmp_path, capsys, monkeypatch, n, accept):
        # the matrices stay integer rows from the parse to P: Fractions are
        # built for P's n weights and, on a rejection, for the witness's n
        # coefficients and its indicator
        doc = self._full_family_generator_doc(n, accept)
        calls = self._count_fractions(monkeypatch)
        assert self._run(tmp_path, capsys, doc, ["decompose"], "exact") == (0 if accept else 2)
        assert calls[0] <= 4 * n, calls

    def test_exact_non_monomial_point_decompose_builds_no_dense_inverse(
            self, tmp_path, capsys, monkeypatch):
        # I + J is nonnegative and not monomial; its inverse I - J / (n + 1)
        # is dense and negative off the diagonal. The inverse stays integer
        # rows, scanned in integers, so the rejection builds O(n) Fractions,
        # not n^2
        n = 64
        matrix = [[str(1 + int(i == j)) for j in range(n)] for i in range(n)]
        calls = self._count_fractions(monkeypatch)
        assert self._run(tmp_path, capsys, matrix, ["decompose"], "exact") == 2
        assert calls[0] <= 4 * n, calls

    @pytest.mark.parametrize("argv", [["decompose"], ["classify"]], ids=["decompose", "classify"])
    @pytest.mark.parametrize("matrix, code, side, inverses",
                             [(*case, n) for case, n in zip(_GEN_MATRICES, (2, 1, 2))],
                             ids=_GEN_IDS)
    def test_float_full_family_generator_run_inverts_each_matrix_once(
            self, tmp_path, capsys, monkeypatch, argv, matrix, code, side, inverses):
        # G_X always, P only when it is not monomial; M and G_Y never
        calls = []
        real = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a) or real(a))
        assert self._run(tmp_path, capsys, _generator_doc(matrix), argv, "float") == code
        assert len(calls) == inverses

    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("matrix, side, solves", [
        ([[1, 0], [0, 1]], None, 0),
        ([[1, 1], [0, 1]], "domain", 1),
        ([[2, 0], [0, 1]], "codomain", 1),
    ], ids=_GEN_IDS)
    def test_proper_family_certificate_solves_an_lp_only_to_reject(
            self, monkeypatch, mode, matrix, side, solves):
        # span{1, t} on t = 0, 1, 2: a side whose rows the NNLS fits settle
        # makes no HiGHS solve, and a rejected float side makes one for its
        # witness; each rejected exact side here has one failing row, which
        # the rational test decides with no LP to rank it
        calls = []
        real = linalg.block_lp
        monkeypatch.setattr(linalg, "block_lp",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        conv = linalg.as_exact if mode == "exact" else linalg.as_float
        fam = FunctionFamily(PointSpace.discrete(3), conv([[1, 1, 1], [0, 1, 2]]))
        cert = is_order_isomorphism(OperatorModel(conv(matrix), fam, fam, basis="generator"))
        assert (cert.accept, cert.side, len(calls)) == (side is None, side,
                                                         solves if mode == "float" else 0)

    @pytest.mark.parametrize("scale", [1, "5/3", 2 ** 70, f"3/{2 ** 70}"],
                             ids=["identity", "fraction", "large", "small"])
    def test_exact_proper_family_accept_settles_each_row_by_one_product(
            self, monkeypatch, scale):
        # span{1, t} on t = 0..3 under a positive multiple of I: each row's fit,
        # taken to small rationals at the two matrices' own scales, is
        # checked by one integer product, so no row is re-solved by
        # elimination; the families' own rank checks are the only ones
        doc = {"basis": "generator", "matrix": [[scale, 0], [0, scale]],
               "domain": {"space": list("abcd"), "generators": [[1, 1, 1, 1], [0, 1, 2, 3]]}}
        t = parse_operator({**doc, "codomain": doc["domain"]}, "exact")
        calls = self._count(monkeypatch)
        resolved = []
        real = cones._resolves
        monkeypatch.setattr(cones, "_resolves",
                            lambda *args: resolved.append(1) or real(*args))
        cert = is_order_isomorphism(t)
        assert (cert.accept, resolved, calls["eliminations"]) == (True, [], 0)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_two_failing_rows_make_one_solve(self, monkeypatch, mode):
        # the golden GEN_PROPER_REJECT shear on span{1, t} over t = 0..3 fails
        # at t = 2 and t = 3: one HiGHS solve ranks the two, so t = 3, the
        # most negative, is reported
        doc = {"basis": "generator", "matrix": [[1, 2], [0, 1]],
               "domain": {"space": list("abcd"), "generators": [[1, 1, 1, 1], [0, 1, 2, 3]]}}
        t = parse_operator({**doc, "codomain": doc["domain"]}, mode)
        calls = []
        real = linalg.block_lp
        monkeypatch.setattr(linalg, "block_lp",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        cert = is_order_isomorphism(t)
        assert (cert.accept, cert.side, cert.point, len(calls)) == (False, "domain", 3, 1)

    @pytest.mark.parametrize("matrix, side, sides", [
        ([[1, 2], [0, 1]], "domain", 1),
        ([[1, 0], [0, 1]], None, 2),
        ([[2, 0], [0, 1]], "codomain", 2),
    ], ids=["shear-reject", "identity-accept", "codomain-reject"])
    def test_exact_proper_family_side_converts_once_and_solves_each_row_once(
            self, monkeypatch, matrix, side, sides):
        # span{1, t} on t = 0..3, the golden GEN_PROPER_REJECT family: each
        # decided side takes A and B to float once, re-solves each row's fit
        # support at most once, and makes one HiGHS solve only to reject
        doc = {"basis": "generator", "matrix": matrix,
               "domain": {"space": list("abcd"), "generators": [[1, 1, 1, 1], [0, 1, 2, 3]]}}
        t = parse_operator({**doc, "codomain": doc["domain"]}, "exact")
        floats, solves, lps = [], [], []
        real_witness, real_solve = cones._farkas_witness, linalg.exact_solve_unique
        real_float, real_lp = linalg.scaled_float, linalg.block_lp

        def witness(a, b, tol):
            solves.append([])
            return real_witness(a, b, tol)

        def solve(a, b):
            solves[-1].append(tuple(linalg.dense(b).ravel()))
            return real_solve(a, b)

        monkeypatch.setattr(cones, "_farkas_witness", witness)
        monkeypatch.setattr(linalg, "exact_solve_unique", solve)
        monkeypatch.setattr(linalg, "scaled_float", lambda a: floats.append(1) or real_float(a))
        monkeypatch.setattr(linalg, "block_lp",
                            lambda *args, **kwargs: lps.append(1) or real_lp(*args, **kwargs))
        cert = is_order_isomorphism(t)
        assert (cert.accept, cert.side) == (side is None, side)
        assert (len(solves), len(floats), len(lps)) == (sides, 2 * sides, int(side is not None))
        for rows in solves:
            assert len(rows) == len(set(rows)) <= 4

    def test_exact_family_with_constants_eliminates_once(self, monkeypatch):
        # the rank check's pass keeps inv(G^T), which also finds the
        # coefficients of 1
        calls = self._count(monkeypatch)
        fam = FunctionFamily(PointSpace.discrete(3), linalg.as_exact(_GEN_DOM["generators"]))
        assert fam.has_constants()
        assert calls["eliminations"] == 1

    @pytest.mark.parametrize("argv", [["decompose"], ["classify"]], ids=["decompose", "classify"])
    @pytest.mark.parametrize("doc, code, message", [
        ({"basis": "generator", "matrix": [[1e305, 0], [0, 1e305]],
          "domain": {"space": ["a", "b"], "generators": [[1, 1], [0, 1e-5]]},
          "codomain": {"space": ["p", "q"], "generators": [[1, 0], [0, 1]]}},
         1, "operator entries must be finite"),
        ({"basis": "generator", "matrix": [[1e-305, 0], [0, 1e-305]],
          "domain": {"space": ["a", "b"], "generators": [[1, 0], [0, 1]]},
          "codomain": {"space": ["p", "q"], "generators": [[1, 1], [0, 1e-5]]}},
         2, "inverse overflow; matrix numerically singular"),
    ], ids=["point-matrix-overflow", "inverse-overflow"])
    def test_float_point_operator_keeps_the_generic_guards(self, tmp_path, capsys, argv,
                                                          doc, code, message):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv + [str(path)]) == code
        out, err = capsys.readouterr()
        if code == 1:
            assert message in err
        else:
            result = json.loads(out)["result"]
            assert (result["reason"], result["detail"]) == ("singular", message)

    def test_exact_fuzz_reads_no_matrix(self, capsys, monkeypatch):
        # every instance is built by weighted_permutation, which knows its read
        calls = self._count(monkeypatch)
        assert main(["fuzz", "--dim", "8", "--count", "3", "--mode", "exact"]) == 0
        capsys.readouterr()
        assert calls == {"monomial": 0, "rank": 0, "square_scans": 0, "eliminations": 0}

    @pytest.mark.parametrize("exact", [False, True])
    def test_full_family_runs_no_rank_check(self, monkeypatch, exact):
        # the constructor decides the identity's rank by one monomial read,
        # inside `linalg.rank` in float mode; the full family decides none
        calls = self._count(monkeypatch)
        space = PointSpace.discrete(5)
        fam = FunctionFamily.full(space, exact=exact)
        assert (calls["rank"], calls["monomial"]) == (0, 0)
        generic = FunctionFamily(space, fam.generators, names=fam.names)
        assert calls == {"monomial": 1, "rank": int(not exact), "square_scans": 0,
                         "eliminations": 0}
        assert _typed(fam.generators.ravel()) == _typed(generic.generators.ravel())
        assert (fam.names, fam.generators.flags.writeable) == (generic.names, False)

    def test_float_weighted_permutation_decompose_builds_no_identity(self):
        # the certificate and recovery read the matrix's monomial read, so
        # neither the full families' identity generators nor the dense
        # inverse (three more n x n matrices) is built: the peak is the
        # parsed matrix
        n = 512
        sigma = np.random.default_rng(0).permutation(n)
        matrix = np.zeros((n, n))
        matrix[np.arange(n), sigma] = np.linspace(0.5, 2.0, n)
        doc = {"matrix": matrix.tolist()}
        tracemalloc.start()
        try:
            t = parse_operator(doc, "float")
            d = decompose(t, cert=is_order_isomorphism(t))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.sigma == tuple(sigma.tolist())
        assert peak < 1.5 * matrix.nbytes
        assert _typed(t.domain.generators.ravel()) == _typed(np.eye(n).ravel())

    def test_exact_weighted_permutation_read_parses_each_weight_once(self, monkeypatch):
        # n = 256 weights written as "p/q" strings among "0"s: one parse per
        # distinct entry, and the monomial read comes from the pattern the
        # reader found, not from a scan of the n^2 integers
        n = 256
        sigma = np.random.default_rng(0).permutation(n)
        rows = [["0"] * n for _ in range(n)]
        for y, x in enumerate(sigma.tolist()):
            rows[y][x] = f"{y + 1}/{2 * y + 3}"
        pairs, scans = [], []
        real_pair, real_scan = serialize._exact_pair, linalg._exact_monomial
        monkeypatch.setattr(serialize, "_exact_pair", lambda x: pairs.append(x) or real_pair(x))
        monkeypatch.setattr(linalg, "_exact_monomial", lambda a: scans.append(a) or real_scan(a))
        cols, weights = linalg.monomial(serialize._read_matrix(rows, True))
        assert len(pairs) <= n + 1 and scans == []
        assert cols.tolist() == sigma.tolist()
        assert weights.tolist() == [Fraction(y + 1, 2 * y + 3) for y in range(n)]

    @staticmethod
    def _float_document(tmp_path, monkeypatch, decoder, true_at=None):
        """(path, rows, sigma, scans) of a float n=256 weighted-permutation
        document, with one zero of row `true_at` written as `true` when it is
        given; `scans` records each call of `serialize._numbers_only`, the
        per-entry type check."""
        if decoder == "orjson" and serialize.orjson is None:
            pytest.skip("orjson is not installed")
        if decoder == "stdlib":
            monkeypatch.setattr(serialize, "orjson", None)
        n = 256
        rng = np.random.default_rng(0)
        sigma = rng.permutation(n)
        rows = np.zeros((n, n))
        rows[np.arange(n), sigma] = rng.uniform(0.5, 2.0, n)
        rows = rows.tolist()
        if true_at is not None:
            rows[true_at][(sigma[true_at] + 1) % n] = True
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"matrix": rows, "basis": "point"}))
        scans = []
        real = serialize._numbers_only
        monkeypatch.setattr(serialize, "_numbers_only",
                            lambda rows: scans.append(len(rows)) or real(rows))
        return str(path), rows, sigma, scans

    @pytest.mark.parametrize("decoder", ["orjson", "stdlib"])
    def test_bool_free_float_document_checks_no_entry_type(self, tmp_path, monkeypatch,
                                                           decoder):
        # the bytes hold no true or false token, so the matrix is packed row
        # by row and no entry's Python type is looked at
        path, rows, sigma, scans = self._float_document(tmp_path, monkeypatch, decoder)
        t = parse_operator(serialize.load_json(path), "float")
        assert scans == []
        assert t.matrix.tobytes() == np.array(rows).tobytes()
        assert t.monomial[0].tolist() == sigma.tolist()

    @pytest.mark.parametrize("flag", ["", "true"])
    def test_metric_of_a_bool_free_family_checks_no_entry_type(self, tmp_path, monkeypatch,
                                                                flag):
        # a metric is read under its document's screen, as its generators are
        metric = [[0, 1, 2.5], [1, 0, 1.5], [2.5, 1.5, 0]]
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"space": {"labels": ["a", "b", flag or "c"],
                                              "metric": metric},
                                    "generators": [[1, 1, 1], [0, 1, 2]]}))
        scans = []
        real = serialize._numbers_only
        monkeypatch.setattr(serialize, "_numbers_only",
                            lambda rows: scans.append(len(rows)) or real(rows))
        fam = serialize.parse_family(serialize.load_json(str(path)))
        assert scans == ([] if not flag else [3, 2])
        assert fam.space.metric.tolist() == metric

    @pytest.mark.parametrize("decoder", ["orjson", "stdlib"])
    def test_boolean_entry_is_refused_after_the_type_check(self, tmp_path, capsys,
                                                           monkeypatch, decoder):
        path, _, _, scans = self._float_document(tmp_path, monkeypatch, decoder, true_at=7)
        assert main(["decompose", path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: booleans are not numeric entries"]
        assert scans == [256]

    def test_exact_parse_makes_no_per_entry_fraction_call(self, monkeypatch):
        # the parse builds integer rows, whose zeros the read finds in C, so
        # no entry is asked for its truth (np.nonzero of the entries asks 2 n^2 times)
        n = 256
        rng = np.random.default_rng(0)
        sigma = rng.permutation(n)
        rows = [[0] * n for _ in range(n)]
        for y in range(n):
            rows[y][sigma[y]] = f"{int(rng.integers(1, 50))}/{int(rng.integers(1, 9))}"
        calls = {"__bool__": 0, "__eq__": 0}
        for name in calls:
            def counted(*args, _real=getattr(Fraction, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(Fraction, name, counted)
        t = parse_operator({"matrix": rows}, "exact")
        distinct = len({v for row in rows for v in row})
        monkeypatch.undo()
        assert calls["__bool__"] == 0 and calls["__eq__"] <= distinct, (calls, distinct)
        assert t.monomial[0].tolist() == sigma.tolist()
        assert t.monomial[1].tolist() == [Fraction(rows[y][sigma[y]]) for y in range(n)]

    def test_perturbed_fuzz_instance_copies_no_matrix(self):
        # the perturbed matrix is built once from the monomial's read; the
        # operator it perturbs builds none, and the certificate takes max|a|
        # from the extremes, so the peak is the matrix and its dense inverse
        n = 1024
        tracemalloc.start()
        try:
            out = _fuzz_instance(spawn_generators(3, 1)[0], n, "float", 0.1, DEFAULT_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == {"accepted": False, "matched": False, "residual": 0.0}
        assert peak < 2.5 * n * n * 8, peak / (n * n * 8)

    def test_weighted_permutation_normalizes_without_a_dense_matrix(self):
        # u, T u and S follow the two reads: one n x n float matrix alone is
        # 128 MB at n = 4096
        n = 4096
        rng = np.random.default_rng(0)
        sigma = rng.permutation(n)
        tracemalloc.start()
        try:
            t = OperatorModel.weighted_permutation(sigma, rng.uniform(0.5, 2.0, n))
            norm = normalize(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norm.sigma == tuple(sigma.tolist()) and norm.operator.monomial is not None
        assert peak < 8 << 20, peak

    @pytest.mark.parametrize("exact, n, budget", [(False, 4096, 8 << 20), (True, 1024, 2 << 20)],
                             ids=["float", "exact"])
    def test_weighted_permutation_pipeline_builds_no_dense_matrix(self, exact, n, budget):
        # a weighted permutation is held by its read, so its certificate,
        # decomposition and classification stay O(n) in memory: one dense
        # n x n float matrix alone is 128 MB at n = 4096
        rng = np.random.default_rng(0)
        sigma = rng.permutation(n)
        weight = [Fraction(int(k), 7) for k in rng.integers(1, 50, n)] if exact else \
            rng.uniform(0.5, 2.0, n)
        tracemalloc.start()
        try:
            t = OperatorModel.weighted_permutation(
                sigma, np.array(weight, dtype=object if exact else float))
            cert = is_order_isomorphism(t)
            d = decompose(t, cert=cert)
            rep = classify(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.accept and rep.kind == "lattice-iso"
        assert d.sigma == rep.decomposition.sigma == tuple(sigma.tolist())
        assert _typed(d.weight) == _typed(weight)
        assert peak < budget, peak
