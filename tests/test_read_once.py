"""An exact point matrix is read as a weighted permutation once.

`OperatorModel` keeps its `linalg.monomial` read, and the certificate, the
inverse, `decompose` and `classify` take what they need from it. The
properties below compare that path with a dense reference kept here: two
full `_nonneg_violation` scans (of T and of its Gauss-Jordan inverse), a
fresh `linalg.monomial` re-read for (sigma, weight) and `mat_vec` for T1.
Values are compared with their Python types, since an int where a Fraction
was would change report bytes.
"""
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oiso import linalg
from oiso.classify import classify
from oiso.cli import main
from oiso.cones import Certificate, OperatorModel, _indicator, _nonneg_violation, \
    is_order_isomorphism
from oiso.linalg import mat_vec
from oiso.recovery import AmbiguousIntersectionError, Decomposition, decompose
from oiso.spaces import FunctionFamily, PointSpace


def _typed(values):
    return [(type(v), v) for v in values]


def _model(m):
    n = m.shape[0]
    return OperatorModel(m, FunctionFamily.full(PointSpace.discrete(n, "x"), exact=True),
                         FunctionFamily.full(PointSpace.discrete(n, "y"), exact=True))


def _dense_certificate(m) -> Certificate:
    for mat, side in ((m, "domain"), (linalg.exact_inv(m), "codomain")):
        hit = _nonneg_violation(mat, 0.0)
        if hit is not None:
            i, j = hit
            w = _indicator(m.shape[0], j, True)
            return Certificate(
                accept=False, mode="exact", arithmetic="rational",
                witness_coeffs=tuple(w), witness_values=tuple(w), side=side, point=i,
                detail=(f"indicator of {side} point {j} maps to a negative "
                        f"value at point {i}"))
    return Certificate(accept=True, mode="exact", arithmetic="rational")


def _dense_decomposition(m):
    read = linalg.monomial(m)
    if read is None or not all(w > 0 for w in read[1]):
        return None
    return Decomposition(sigma=tuple(int(c) for c in read[0]), weight=tuple(read[1]),
                         residual=0.0, exact=True)


def _dense_classify(m):
    """(kind, decomposition, unimodular sign) as the dense reading decides them."""
    cert = _dense_certificate(m)
    g = mat_vec(m, np.array([Fraction(1)] * m.shape[0], dtype=object))
    unimodular = all(abs(x) == 1 for x in g)
    if cert.accept:
        kind = "algebra-iso" if all(x == 1 for x in g) else "lattice-iso"
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
    if linalg.exact_rank(m) != m.shape[0]:
        return  # singular: the model refuses it either way
    t = _model(m)
    cert = is_order_isomorphism(t)
    ref = _dense_certificate(m)
    assert cert == ref
    assert _typed(cert.witness_values or ()) == _typed(ref.witness_values or ())
    assert type(cert.point) is type(ref.point)
    inv = linalg.exact_inv(m)
    assert _typed(t.inverse_matrix.ravel()) == _typed(inv.ravel())
    v = np.array(list(range(-1, m.shape[0] - 1)), dtype=object)  # ints, one of them 0
    assert _typed(t.apply_values(v)) == _typed(mat_vec(m, v))

    dec_ref = _dense_decomposition(m) if ref.accept else None
    if ref.accept:
        d = decompose(t, cert=cert)
        assert d == dec_ref
        assert _typed(d.weight) == _typed(dec_ref.weight)

    kind, dec, sign = _dense_classify(m)
    rep = classify(t)
    assert rep.kind == kind
    assert rep.decomposition == dec
    assert _typed(rep.decomposition.weight if dec else ()) == _typed(dec.weight if dec else ())
    assert rep.unimodular_sign == sign
    assert _typed(rep.unimodular_sign or ()) == _typed(sign or ())


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


def test_zero_weight_is_singular_through_weighted_permutation():
    with pytest.raises(linalg.SingularMatrixError):
        OperatorModel.weighted_permutation((1, 0), np.array([Fraction(0), Fraction(1)],
                                                            dtype=object))


@pytest.mark.parametrize("weight", [[2.0], [2.0, 3.0, 4.0], 2.0])
def test_weighted_permutation_needs_one_weight_per_point(weight):
    with pytest.raises(ValueError, match="one weight per point"):
        OperatorModel.weighted_permutation((1, 0), np.asarray(weight))


class TestStructuralCost:
    """The n^2 reads an exact point-basis run pays for, counted."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"monomial": 0, "rank": 0}
        for name in calls:
            real = getattr(linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(linalg, name, counted)
        return calls

    @pytest.mark.parametrize("matrix, argv, code", [
        ([[0, "1/2", 0], [0, 0, 3], ["7/3", 0, 0]], ["decompose"], 0),
        ([[0, -2, 0], [0, 0, -2], [1, 0, 0]], ["decompose"], 2),
        ([[0, "1/2", 0], [0, 0, 3], ["7/3", 0, 0]], ["classify"], 0),
        ([[0, -1, 0], [0, 0, 1], [-1, 0, 0]], ["classify"], 0),
    ], ids=["decompose-accept", "decompose-reject", "classify-lattice", "classify-isometry"])
    def test_exact_point_run_reads_the_matrix_once(self, tmp_path, capsys, monkeypatch,
                                                   matrix, argv, code):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"matrix": matrix}))
        calls = self._count(monkeypatch)
        assert main(argv + [str(path), "--mode", "exact"]) == code
        capsys.readouterr()
        assert calls == {"monomial": 1, "rank": 0}

    def test_exact_fuzz_reads_no_matrix(self, capsys, monkeypatch):
        # every instance is built by weighted_permutation, which knows its read
        calls = self._count(monkeypatch)
        assert main(["fuzz", "--dim", "8", "--count", "3", "--mode", "exact"]) == 0
        capsys.readouterr()
        assert calls == {"monomial": 0, "rank": 0}

    @pytest.mark.parametrize("exact", [False, True])
    def test_full_family_runs_no_rank_check(self, monkeypatch, exact):
        calls = self._count(monkeypatch)
        space = PointSpace.discrete(5)
        fam = FunctionFamily.full(space, exact=exact)
        assert calls["rank"] == 0
        generic = FunctionFamily(space, fam.generators, names=fam.names)
        assert calls["rank"] == 1
        assert _typed(fam.generators.ravel()) == _typed(generic.generators.ravel())
        assert (fam.names, fam.tol, fam.generators.flags.writeable) == \
            (generic.names, generic.tol, False)
