"""End-to-end tests of the command-line interface and its report contract."""
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oiso
from oiso import serialize
from oiso.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from oiso.serialize import report_digest


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(out):
    return json.loads(out)


class TestDecompose:
    def test_weighted_swap_accepted(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json", {"matrix": [[0, 2], [3, 0]]})
        code, out, err = _run(capsys, ["decompose", op])
        assert code == EXIT_OK
        rep = _report(out)
        assert rep["command"] == "decompose"
        assert rep["result"]["accepted"] is True
        assert rep["result"]["sigma"] == [1, 0]
        assert rep["result"]["weight"] == [2.0, 3.0]
        assert rep["result"]["sigma_labels"] == [["y1", "x2"], ["y2", "x1"]]
        assert rep["result"]["residual"] == 0.0
        assert "elapsed" in err

    def test_identity_three_points(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json",
                    {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        code, out, _ = _run(capsys, ["decompose", op])
        assert code == EXIT_OK
        rep = _report(out)
        assert rep["result"]["sigma"] == [0, 1, 2]
        assert rep["result"]["weight"] == [1.0, 1.0, 1.0]

    def test_rejection_carries_witness(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json", {"matrix": [[1, 1], [0, 1]]})
        code, out, _ = _run(capsys, ["decompose", op])
        assert code == EXIT_REJECTED
        rep = _report(out)
        assert rep["result"]["accepted"] is False
        cert = rep["result"]["certificate"]
        assert cert["accept"] is False
        assert cert["witness"] == [0.0, 1.0]
        assert cert["witness_side"] == "codomain"

    def test_exact_mode(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json", {"matrix": [[0, "1/2"], [3, 0]]})
        code, out, _ = _run(capsys, ["decompose", op, "--mode", "exact"])
        assert code == EXIT_OK
        rep = _report(out)
        assert rep["result"]["weight"] == ["1/2", "3"]
        assert rep["result"]["arithmetic"] == "rational"

    def test_exact_generator_basis_sees_1e_12_violation(self, tmp_path, capsys):
        # span{1, t} on {0, 1/2, 1}: the shear maps 1 - t to -10^-12 at t = 1
        fam = {"space": ["x0", "x1", "x2"], "generators": [[1, 1, 1], [0, "1/2", 1]]}
        op = _write(tmp_path, "op.json", {"basis": "generator", "domain": fam, "codomain": fam,
                                          "matrix": [[1, "1/1000000000000"], [0, 1]]})
        code, out, _ = _run(capsys, ["decompose", op, "--mode", "exact"])
        assert code == EXIT_REJECTED
        cert = _report(out)["result"]["certificate"]
        assert cert["witness"] == ["1", "1/2", "0"]
        assert (cert["witness_side"], cert["witness_point"]) == ("domain", 2)

    def test_exact_mode_refuses_float_entries(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json", {"matrix": [[0.5, 0], [0, 1]]})
        code, out, err = _run(capsys, ["decompose", op, "--mode", "exact"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "error:" in err and "exact mode refuses" in err

    def test_report_digest_is_self_consistent(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json", {"matrix": [[0, 2], [3, 0]]})
        _, out, _ = _run(capsys, ["decompose", op])
        rep = _report(out)
        payload = {k: v for k, v in rep.items() if k != "digest"}
        assert rep["digest"] == report_digest(payload)

    def test_input_echo_uses_basename_and_hash(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json", {"matrix": [[1]]})
        _, out, _ = _run(capsys, ["decompose", op])
        rep = _report(out)
        assert rep["inputs"]["operator"]["file"] == "op.json"
        assert len(rep["inputs"]["operator"]["sha256"]) == 64

    def test_input_echo_hashes_the_file_bytes(self, tmp_path, capsys):
        # CRLF line ends and non-ASCII text: the hash is of the bytes as stored
        p = tmp_path / "op.json"
        data = '{"matrix": [[0, 2], [3, 0]],\r\n "domain": ["\u00e9", "b"]}\r\n'.encode("utf-8")
        p.write_bytes(data)
        code, out, _ = _run(capsys, ["decompose", str(p)])
        assert code == EXIT_OK
        assert _report(out)["inputs"]["operator"]["sha256"] == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("argv, name, doc", [
        (["decompose"], "op.json", {"matrix": [[0, 2], [3, 0]]}),
        (["classify", "--mode", "exact"], "op.json", {"matrix": [[0, 2], [3, 0]]}),
        (["adequacy"], "fam.json", {"labels": ["a", "b"]}),
    ], ids=["decompose", "classify", "adequacy"])
    def test_each_input_file_is_opened_once(self, tmp_path, capsys, monkeypatch,
                                            argv, name, doc):
        path = _write(tmp_path, name, doc)
        opened = []
        real_open = open

        def counted(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counted)
        code, _, _ = _run(capsys, argv[:1] + [path] + argv[1:])
        assert code == EXIT_OK
        assert opened.count(path) == 1

    def test_utf8_bom_is_a_usage_error(self, tmp_path, capsys):
        p = tmp_path / "op.json"
        p.write_bytes(b"\xef\xbb\xbf" + json.dumps({"matrix": [[1]]}).encode("utf-8"))
        code, out, err = _run(capsys, ["decompose", str(p)])
        assert code == EXIT_USAGE and out == ""
        assert "error:" in err and "BOM" in err


class TestScaledOperators:
    @pytest.mark.parametrize("matrix, sigma, weight", [
        ([[0, 2e-12], [3e-12, 0]], [1, 0], [2e-12, 3e-12]),
        ([[1e-10, 0], [0, 1]], [0, 1], [1e-10, 1.0]),
        ([[1e-10]], [0], [1e-10]),
    ])
    def test_tiny_weights_decompose(self, tmp_path, capsys, matrix, sigma, weight):
        op = _write(tmp_path, "op.json", {"matrix": matrix})
        code, out, _ = _run(capsys, ["decompose", op])
        assert code == EXIT_OK
        rep = _report(out)["result"]
        assert (rep["sigma"], rep["weight"]) == (sigma, weight)


_ENTRY = st.one_of(st.just(0.0), st.builds(lambda sign, k: sign * 10.0 ** k,
                                           st.sampled_from((-1.0, 1.0)),
                                           st.integers(-12, 12)))


@st.composite
def _square(draw):
    n = draw(st.integers(1, 4))
    return draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))


def _exit_codes(matrix, mode):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "op.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"matrix": matrix}, fh)
        codes = []
        for command in ("decompose", "classify"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(main([command, path, "--mode", mode]))
        return codes


@settings(max_examples=150, deadline=None)
@given(matrix=_square())
@example(matrix=[[1e-10]])
@example(matrix=[[1.0, 0.0], [1e-12, 1e-12]])
@example(matrix=[[1.0, 1.0], [1.0, 1.0]])
def test_any_float_point_operator_exits_0_or_2(matrix):
    assert set(_exit_codes(matrix, "float")) <= {EXIT_OK, EXIT_REJECTED}


@st.composite
def _integer_square(draw):
    n = draw(st.integers(1, 4))
    return draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(matrix=_integer_square())
@example(matrix=[[1, 1], [1, 1]])
@example(matrix=[[0]])
def test_any_integer_point_operator_exits_0_or_2_in_exact_mode(matrix):
    assert set(_exit_codes(matrix, "exact")) <= {EXIT_OK, EXIT_REJECTED}


# JSON scalars that are no matrix entry in either mode, and the two that are
# exact rationals but have no finite double
_MALFORMED = (True, False, None, "1/0", "-2/0", "x", [1], [[0]], {"a": 1},
              float("nan"), float("inf"), float("-inf"))
_NO_DOUBLE = (10 ** 400, -10 ** 400, "1e400")


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(matrix=_integer_square(), data=st.data(),
       bad=st.sampled_from(_MALFORMED + _NO_DOUBLE),
       mode=st.sampled_from(("float", "exact")))
@example(matrix=[[0]], data=None, bad="1/0", mode="exact")
def test_one_malformed_entry_is_a_usage_error(matrix, data, bad, mode):
    n = len(matrix)
    y, x = (0, 0) if data is None else data.draw(st.tuples(st.integers(0, n - 1),
                                                            st.integers(0, n - 1)))
    matrix[y][x] = bad
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "op.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"matrix": matrix}, fh)
        for command in ("decompose", "classify"):
            code, out, err = _run_quietly([command, path, "--mode", mode])
            if mode == "exact" and bad in _NO_DOUBLE:  # a valid, huge rational
                assert code in (EXIT_OK, EXIT_REJECTED)
            else:
                assert (code, out) == (EXIT_USAGE, "")
                assert err.startswith("error: ")


class TestRejectedTable:
    """Outcome exceptions a handler raises are reported with exit 2."""

    def test_singular_matrix(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json", {"matrix": [[1, 1], [1, 1]]})
        for command, mode in itertools.product(("decompose", "classify"), ("float", "exact")):
            code, out, _ = _run(capsys, [command, op, "--mode", mode])
            assert code == EXIT_REJECTED
            rep = _report(out)
            assert rep["result"]["accepted"] is False
            assert rep["result"]["reason"] == "singular"
            assert rep["settings"] == {"mode": mode, "tol": 1e-9}
            assert rep["inputs"]["operator"]["file"] == "op.json"

    def test_ambiguous_float_reading(self, tmp_path, capsys):
        # accepted within tol (the inverse's -1 is below tol * max|T^-1|),
        # but both rows peak in column 0
        op = _write(tmp_path, "op.json", {"matrix": [[1, 0], [1e-12, 1e-12]]})
        for command in ("decompose", "classify"):
            code, out, _ = _run(capsys, [command, op])
            assert code == EXIT_REJECTED
            rep = _report(out)["result"]
            assert (rep["accepted"], rep["reason"]) == (False, "ambiguous-reading")
            assert "share a column" in rep["detail"]

    def test_negative_weight_within_the_cutoff(self, tmp_path, capsys):
        # a float weighted permutation whose -1e-12 is inside tol * max|T| and
        # whose inverse's -1e12 is inside tol * max|T^-1| = 1e21: the cone
        # test accepts it, and its read weight T1 is not positive
        doc = {"matrix": [[1, 0, 0], [0, -1e-12, 0], [0, 0, 1e-30]]}
        op = _write(tmp_path, "op.json", doc)
        code, out, _ = _run(capsys, ["decompose", op])
        assert code == EXIT_REJECTED
        rep = _report(out)["result"]
        assert rep == {"accepted": False, "reason": "ambiguous-reading",
                       "detail": "the weight T1 is not positive at every point"}
        code, out, _ = _run(capsys, ["classify", op])
        assert code == EXIT_REJECTED
        assert _report(out)["result"] == rep

    def test_dependent_generators_exit_usage(self, tmp_path, capsys):
        # linearly dependent rows do not define a family
        fam = {"space": ["a", "b", "c"], "generators": [[1, 1, 1], [2, 2, 2]]}
        path = _write(tmp_path, "fam.json", fam)
        code, out, err = _run(capsys, ["adequacy", path])
        assert (code, out) == (EXIT_USAGE, "") and "error:" in err
        op = _write(tmp_path, "op.json", {"basis": "generator", "domain": fam,
                                          "codomain": fam, "matrix": [[1, 0], [0, 1]]})
        for command in ("decompose", "classify"):
            code, out, err = _run(capsys, [command, op])
            assert (code, out) == (EXIT_USAGE, "") and "error:" in err

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_proper_family_recovery_exits_usage(self, tmp_path, capsys, mode):
        # span{1, t} on {0, 1, 2}: the reflection t -> 2 - t is an order isomorphism,
        # but decompose and classify only read full families
        fam = {"space": ["x0", "x1", "x2"], "generators": [[1, 1, 1], [0, 1, 2]]}
        op = _write(tmp_path, "op.json", {"basis": "generator", "domain": fam,
                                          "codomain": fam, "matrix": [[1, 2], [0, -1]]})
        for command in ("decompose", "classify"):
            code, out, err = _run(capsys, [command, op, "--mode", mode])
            assert (code, out) == (EXIT_USAGE, "") and "error:" in err

    @pytest.mark.parametrize("scale", ["1", "1" + "0" * 400, "1/1" + "0" * 400],
                             ids=["1", "1e400", "1e-400"])
    def test_exact_shear_past_the_double_range_is_rejected(self, tmp_path, capsys, scale):
        # span{1, t} on {a, b, c}: the shear (c0, c1) -> s (c0 + c1, c1) maps
        # 2 - t to s (1 - t), negative at point 2, whatever the scale s > 0
        fam = {"space": ["a", "b", "c"], "generators": [[1, 1, 1], [0, 1, 2]]}
        op = _write(tmp_path, "op.json", {"basis": "generator", "domain": fam, "codomain": fam,
                                          "matrix": [[scale, scale], ["0", scale]]})
        code, out, err = _run(capsys, ["decompose", op, "--mode", "exact"])
        assert code == EXIT_REJECTED and "Traceback" not in err
        cert = _report(out)["result"]["certificate"]
        assert (cert["witness"], cert["witness_side"], cert["witness_point"]) == (
            ["2", "1", "0"], "domain", 2)

    def test_float_shear_whose_image_overflows_is_rejected(self, tmp_path, capsys):
        # the same shear at s = 1e308: B = G^T M overflows a double, and the
        # certificate reads B up to a positive factor, so it rejects as the
        # unit shear does, with the exact twin's side and point
        fam = {"space": ["a", "b", "c"], "generators": [[1, 1, 1], [0, 1, 2]]}
        certs = []
        for matrix, mode in (([[1e308, 1e308], [0, 1e308]], "float"), ([[1, 1], [0, 1]], "float"),
                             ([[10**308, 10**308], [0, 10**308]], "exact")):
            op = _write(tmp_path, "op.json", {"basis": "generator", "domain": fam,
                                              "codomain": fam, "matrix": matrix})
            code, out, err = _run(capsys, ["decompose", op, "--mode", mode])
            assert code == EXIT_REJECTED and err.startswith("elapsed")
            certs.append(_report(out)["result"]["certificate"])
        assert certs[0] == certs[1]
        assert [(c["witness_side"], c["witness_point"]) for c in certs] == [("domain", 2)] * 3

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_point_matrix_of_the_wrong_size_names_its_shape(self, tmp_path, capsys, mode):
        # a 2 x 2 point matrix from a three-point domain: the shape, not the
        # ranks it implies, is what the refusal names
        op = _write(tmp_path, "op.json", {"matrix": [[1, 0], [0, 1]], "domain": ["a", "b", "c"]})
        for command in ("decompose", "classify"):
            code, out, err = _run(capsys, [command, op, "--mode", mode])
            assert (code, out) == (EXIT_USAGE, "")
            assert err.splitlines() == ["error: point matrix shape must match the spaces"]


_SQUARE_DOMAIN = {"space": ["a", "b", "c"], "generators": [[1, 1, 1], [0, 1, 2], [0, 0, 1]]}
_DEPENDENT_CODOMAIN = {"space": ["p", "q", "r"], "generators": [[1, 1, 1], [0, 1, 2], [1, 2, 3]]}
_SQUARE_CODOMAIN = {"space": ["p", "q", "r"], "generators": [[1, 0, 0], [1, 1, 0], [0, 0, 1]]}
_INVERTIBLE = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
_SINGULAR = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
_DEPENDENT = "error: generators must be linearly independent (rank 2 < 3)"


class TestFullFamilyChecks:
    """An exact generator-basis operator between square families proves its
    codomain's rank and M's inverse from a monomial point matrix; any other
    point matrix makes both checks, codomain first, with the exit codes and
    messages of checking each when it is built."""

    @pytest.mark.parametrize("domain, codomain, matrix, names", [
        (_SQUARE_DOMAIN, _DEPENDENT_CODOMAIN, _INVERTIBLE, None),
        (_SQUARE_DOMAIN, _DEPENDENT_CODOMAIN, _SINGULAR, None),
        (_SQUARE_DOMAIN, _DEPENDENT_CODOMAIN, [[1, 0], [0, 1]], None),
        (_SQUARE_DOMAIN, _DEPENDENT_CODOMAIN, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], None),
        (_SQUARE_DOMAIN, _DEPENDENT_CODOMAIN, _INVERTIBLE, ["u", "v"]),
        (["a", "b", "c"], _DEPENDENT_CODOMAIN, _INVERTIBLE, None),
    ], ids=["dependent", "dependent-and-singular", "dependent-and-shape-mismatch",
            "dependent-monomial-m", "dependent-and-names-mismatch", "dependent-identity-domain"])
    def test_dependent_codomain_exits_usage(self, tmp_path, capsys, domain, codomain, matrix,
                                            names):
        if names is not None:
            codomain = dict(codomain, names=names)
        op = _write(tmp_path, "op.json", {"basis": "generator", "domain": domain,
                                          "codomain": codomain, "matrix": matrix})
        for command in ("decompose", "classify"):
            code, out, err = _run(capsys, [command, op, "--mode", "exact"])
            assert (code, out, err.splitlines()) == (EXIT_USAGE, "", [_DEPENDENT])

    @pytest.mark.parametrize("domain, codomain", [
        (_SQUARE_DOMAIN, _SQUARE_CODOMAIN), (["a", "b", "c"], _SQUARE_CODOMAIN),
        (_SQUARE_DOMAIN, ["p", "q", "r"]), (_SQUARE_DOMAIN, None),
    ], ids=["square-families", "identity-domain", "identity-codomain", "default-codomain"])
    def test_singular_matrix_is_rejected(self, tmp_path, capsys, domain, codomain):
        doc = {"basis": "generator", "domain": domain, "matrix": _SINGULAR}
        if codomain is not None:
            doc["codomain"] = codomain
        op = _write(tmp_path, "op.json", doc)
        for command in ("decompose", "classify"):
            code, out, _ = _run(capsys, [command, op, "--mode", "exact"])
            assert code == EXIT_REJECTED
            assert _report(out)["result"] == {"accepted": False, "reason": "singular",
                                              "detail": "matrix is singular in exact arithmetic"}

    def test_non_monomial_point_matrix_is_certified(self, tmp_path, capsys):
        # P = [[1, 0, 0], [-1, 1, 0], [1, -2, 1]], inverted by its own
        # elimination, which also proves the codomain independent and M
        # invertible
        op = _write(tmp_path, "op.json", {"basis": "generator", "domain": _SQUARE_DOMAIN,
                                          "codomain": _SQUARE_CODOMAIN,
                                          "matrix": [[1, -1, 0], [0, 1, 0], [0, 0, 1]]})
        code, out, _ = _run(capsys, ["decompose", op, "--mode", "exact"])
        assert code == EXIT_REJECTED
        assert _report(out)["result"]["certificate"] == {
            "accept": False, "mode": "exact", "schema": "oiso/1", "witness": ["0", "1", "0"],
            "witness_point": 2, "witness_side": "domain",
            "detail": "indicator of domain point 1 maps to a negative value at point 2"}


@pytest.mark.filterwarnings("error")
def test_overflowing_float_point_matrix_is_one_error_line(tmp_path, capsys):
    # every entry is finite, but P = G_Y^T M inv(G_X^T) overflows: the
    # product is formed with no numpy warning, and the non-finite P is
    # refused as the generic constructor refuses a matrix
    op = _write(tmp_path, "op.json", {
        "basis": "generator", "matrix": [[1e308, 1e308], [0, 1e308]],
        "domain": {"space": ["a", "b"], "generators": [[1, 1], [0, 1]]},
        "codomain": {"space": ["p", "q"], "generators": [[1, 1], [0, 1]]}})
    for command in ("decompose", "classify"):
        code, out, err = _run(capsys, [command, op])
        assert (code, out, err) == (EXIT_USAGE, "", "error: operator entries must be finite\n")


class TestUsageErrors:
    def test_missing_file(self, tmp_path, capsys):
        code, out, err = _run(capsys, ["decompose", str(tmp_path / "nope.json")])
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = _run(capsys, ["decompose", str(p)])
        assert code == EXIT_USAGE
        assert "error:" in err

    @pytest.mark.parametrize("decoder", ["orjson", "stdlib"])
    def test_deeply_nested_document_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                     decoder):
        # deeper than the stdlib decoder can recurse: one error line, no traceback
        p = tmp_path / "deep.json"
        p.write_text('{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}")
        if decoder == "stdlib":
            monkeypatch.setattr(serialize, "orjson", None)
        code, out, err = _run(capsys, ["decompose", str(p)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.splitlines() == [f"error: {p}: JSON nested too deeply to decode"]

    def test_parser_errors_exit_usage(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json", {"matrix": [[0, 1], [1, 0]]})
        fam = _write(tmp_path, "fam.json", {"labels": ["a", "b"]})
        for argv in (["classify", op, "--bogus"], ["decompose"], [],
                     ["classify", op, "--seed", "7"], ["classify", op, "--samples", "16"],
                     ["adequacy", fam, "--seed", "7"], ["adequacy", fam, "--samples", "16"],
                     ["example", "local-form", "--expr", "t", "--interval", "1,0"],
                     ["example", "local-form", "--expr", "t", "--interval", "0,1,2"],
                     ["decompose", op, "--mode", "rational"]):
            code, out, err = _run(capsys, argv)
            assert (code, out) == (EXIT_USAGE, ""), argv
            assert "error:" in err

    def test_help_and_version_exit_ok(self, capsys):
        code, out, _ = _run(capsys, ["--help"])
        assert code == EXIT_OK and out.startswith("usage: oiso")
        code, out, _ = _run(capsys, ["classify", "--help"])
        assert code == EXIT_OK and "--seed" not in out and "--samples" not in out
        code, out, _ = _run(capsys, ["--version"])
        assert code == EXIT_OK and out.startswith("oiso ")

    @pytest.mark.parametrize("name, doc, message", [
        ("adequacy", {"space": {"labels": ["a", "b"], "metric": [[0, 10 ** 400], [10 ** 400, 0]]}},
         "metric entries must be finite"),
        ("compactify", {"domain": {"samples": [0.25, 0.5], "generators": ["t"]},
                        "sequences": [{"rule": "1/k", "n": 1e400}]},
         "'n' must be finite"),
    ], ids=["metric", "sequence-length"])
    def test_numbers_too_large_for_a_double(self, tmp_path, capsys, name, doc, message):
        code, out, err = _run(capsys, [name, _write(tmp_path, "doc.json", doc)])
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err

    def test_parser_is_built_once_and_keeps_no_options(self, tmp_path, capsys):
        from oiso.cli import build_parser
        assert build_parser() is build_parser()
        op = _write(tmp_path, "op.json", {"matrix": [[0, 2], [3, 0]]})
        exact = _report(_run(capsys, ["decompose", op, "--mode", "exact", "--tol", "0.5"])[1])
        plain = _report(_run(capsys, ["decompose", op])[1])
        assert exact["settings"] == {"mode": "exact", "tol": 0.5}
        assert plain["settings"] == {"mode": "float", "tol": 1e-9}

    def test_fuzz_flag_validation(self, capsys):
        assert _run(capsys, ["fuzz", "--dim", "0", "--count", "1"])[0] == EXIT_USAGE
        assert _run(capsys, ["fuzz", "--dim", "2", "--count", "0"])[0] == EXIT_USAGE
        assert _run(capsys, ["fuzz", "--dim", "2", "--count", "1",
                             "--perturbation", "-1"])[0] == EXIT_USAGE
        assert _run(capsys, ["fuzz", "--dim", "2", "--count", "1",
                             "--perturbation", "0.5", "--mode", "exact"])[0] == EXIT_USAGE
        assert _run(capsys, ["fuzz", "--dim", "1", "--count", "1",
                             "--perturbation", "0.5"])[0] == EXIT_USAGE


class TestReportWriting:
    def test_label_with_no_utf8_encoding_is_a_usage_error(self, tmp_path, capsys):
        # "\ud800" is a valid JSON escape for a lone surrogate
        op = _write(tmp_path, "op.json", {"matrix": [[0, 2], [3, 0]], "domain": ["\ud800", "b"]})
        assert '"\\ud800"' in open(op).read()
        code, out, err = _run(capsys, ["decompose", op])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error:") and "UTF-8" in err

    def test_undecodable_file_name_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / os.fsdecode(b"op\xff.json")
        try:
            path.write_text(json.dumps({"matrix": [[0, 2], [3, 0]]}))
        except (OSError, UnicodeError):
            pytest.skip("the file system refuses a name that is not UTF-8")
        code, out, err = _run(capsys, ["decompose", str(path)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error:") and "UTF-8" in err

    @pytest.mark.parametrize("argv", [["decompose"], ["classify", "--mode", "exact"]])
    def test_payload_encoded_once_without_json_dumps(self, tmp_path, capsys, monkeypatch,
                                                     argv):
        from oiso import cli, serialize

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called while writing a report")

        encodes = []
        text = serialize._text

        def counted(x, ind):
            if ind == "":  # a whole document, not a nested value
                encodes.append(x)
            return text(x, ind)

        monkeypatch.setattr(json, "dumps", refuse)
        monkeypatch.setattr(serialize, "_text", counted)
        op = tmp_path / "op.json"
        op.write_text('{"matrix": [[0, 2], [3, 0]]}')
        code, out, _ = _run(capsys, argv[:1] + [str(op)] + argv[1:])
        assert code == EXIT_OK
        assert len(encodes) == 1 and "digest" not in encodes[0]
        monkeypatch.undo()
        assert out == cli.canonical_json(_report(out))


class TestClassify:
    def test_permutation_is_algebra_iso(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json", {"matrix": [[0, 1], [1, 0]]})
        code, out, _ = _run(capsys, ["classify", op])
        assert code == EXIT_OK
        rep = _report(out)
        assert rep["result"]["kind"] == "algebra-iso"
        assert rep["result"]["sigma"] == [1, 0]

    def test_rejected_kind_exits_2(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json", {"matrix": [[1, 1], [0, 1]]})
        code, out, _ = _run(capsys, ["classify", op])
        assert code == EXIT_REJECTED
        assert _report(out)["result"]["kind"] == "rejected"

    def test_signed_monomial_is_isometry(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json", {"matrix": [[0, -1], [1, 0]]})
        code, out, _ = _run(capsys, ["classify", op])
        assert code == EXIT_OK
        rep = _report(out)
        assert rep["result"]["kind"] == "isometry"
        assert rep["result"]["unimodular_sign"] == [-1.0, 1.0]

    def test_settings_carry_no_sampling(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json", {"matrix": [[1, 2e-10], [0, 1]]})
        code, out, _ = _run(capsys, ["classify", op])
        rep = _report(out)
        assert code == EXIT_OK
        assert rep["settings"] == {"mode": "float", "tol": 1e-9}
        assert rep["result"]["kind"] == "algebra-iso"


class TestAdequacy:
    def test_full_family_adequate(self, tmp_path, capsys):
        fam = _write(tmp_path, "fam.json", {"labels": ["a", "b", "c"]})
        code, out, _ = _run(capsys, ["adequacy", fam])
        assert code == EXIT_OK
        assert _report(out)["result"]["adequate"] is True

    def test_affine_family_not_adequate(self, tmp_path, capsys):
        fam = _write(tmp_path, "fam.json",
                     {"space": ["a", "b", "c"],
                      "generators": [[1, 1, 1], [0, "1/2", 1]],
                      "names": ["1", "t"]})
        code, out, _ = _run(capsys, ["adequacy", fam])
        assert code == EXIT_REJECTED
        rep = _report(out)
        assert rep["result"]["adequate"] is False
        assert rep["result"]["has_constants"] is True

    @pytest.mark.parametrize("metric, message", [
        ([[False, True], [True, False]], "metric booleans are not numeric entries"),
        ([[0, "inf"], ["inf", 0]], "metric Invalid literal for Fraction: 'inf'"),
        ([[0, "nan"], ["nan", 0]], "metric Invalid literal for Fraction: 'nan'"),
        ([[0, float("nan")], [float("nan"), 0]], "metric entries must be finite, got nan"),
        ([[0, 1], [1]], "metric matrix rows must have equal length"),
    ], ids=["booleans", "inf-string", "nan-string", "nan-literal", "ragged"])
    def test_malformed_metric_is_a_usage_error(self, tmp_path, capsys, metric, message):
        # metric entries follow the float matrix rule, and nothing reaches numpy
        fam = _write(tmp_path, "fam.json", {"labels": ["a", "b"], "metric": metric})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["adequacy", fam])
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err

    def test_metric_strings_read_as_matrix_entries(self, tmp_path, capsys):
        reports = []
        for two in (2, " 2 ", "2/1"):
            fam = _write(tmp_path, "fam.json", {"space": {"labels": ["a", "b"],
                                                          "metric": [[0, two], [two, 0]]},
                                                "generators": [[1, 1]]})
            code, out, _ = _run(capsys, ["adequacy", fam])
            assert code == EXIT_REJECTED
            reports.append(_report(out)["result"])
        assert reports[0] == reports[1] == reports[2]


class TestCompactify:
    def test_boundary_exploration(self, tmp_path, capsys):
        spec = _write(tmp_path, "spec.json", {
            "domain": {"samples": [(i + 0.5) / 8 for i in range(8)],
                       "generators": ["t", "sin(1/t)"], "name": "X",
                       "interval": [0, 1, True, False]},
            "sequences": [
                {"name": "zeros", "n": 10000, "rule": "1/(pi*k)"},
                {"name": "ones", "n": 10000, "rule": "1/(2*pi*k + pi/2)"},
            ],
        })
        code, out, _ = _run(capsys, ["compactify", spec])
        assert code == EXIT_OK
        rep = _report(out)
        added = rep["result"]["domain"]["added"]
        assert [p["label"] for p in added] == ["zeros", "ones"]
        assert abs(added[0]["coords"][1]) <= 1e-6
        assert abs(added[1]["coords"][1] - 1.0) <= 1e-6
        assert "codomain" not in rep["result"]  # codomain defaulted to domain

    def test_operator_matching(self, tmp_path, capsys):
        samples = [(i + 0.5) / 8 for i in range(8)]
        seqs = [{"name": "to0", "n": 4096, "rule": "1/(k+1)"},
                {"name": "to1", "n": 4096, "rule": "1 - 1/(k+1)"}]
        spec = _write(tmp_path, "spec.json", {
            "domain": {"samples": samples, "generators": ["t"], "name": "X"},
            "codomain": {"samples": samples, "generators": ["t"], "name": "Y"},
            "sequences": seqs,
            "sequences_codomain": seqs,
            "operator": {"pullback": "1 - t", "weight": "1"},
        })
        code, out, _ = _run(capsys, ["compactify", spec])
        assert code == EXIT_OK
        rep = _report(out)
        assert rep["result"]["accepted"] is True
        assert rep["result"]["added"]["matching"] == [["to0", "to1"], ["to1", "to0"]]
        assert rep["result"]["bounded_screen"]["passed"] is True

    def test_nonconvergent_sequence_reported(self, tmp_path, capsys):
        spec = _write(tmp_path, "spec.json", {
            "domain": {"samples": [0.25, 0.5], "generators": ["t", "sin(1/t)"]},
            "sequences": [{"name": "osc", "n": 4096, "rule": "1/k"}],
        })
        code, out, _ = _run(capsys, ["compactify", spec])
        assert code == EXIT_REJECTED
        rep = _report(out)
        assert rep["result"]["reason"] == "nonconvergent-net"
        assert rep["result"]["sequence"] == "osc"
        assert rep["result"]["coordinate"] == "sin(1/t)"

    def test_non_object_sequence_is_a_usage_error(self, tmp_path, capsys):
        spec = _write(tmp_path, "spec.json", {
            "domain": {"samples": [0.25, 0.5], "generators": ["t"]},
            "sequences": [5],
        })
        code, out, err = _run(capsys, ["compactify", spec])
        assert (code, out) == (EXIT_USAGE, "")
        assert "error: sequence document must be an object" in err


class TestExample:
    def test_local_form(self, capsys):
        code, out, _ = _run(capsys, ["example", "local-form",
                                     "--expr", "(clamp t)",
                                     "--interval", "0.25,0.75"])
        assert code == EXIT_OK
        rep = _report(out)
        assert rep["result"]["succeeded"] is True
        assert rep["result"]["expr"] == "(sinramp t)"
        assert rep["result"]["interval"] == [0.25, 0.75]
        assert rep["inputs"] == {"expr": "(clamp t)", "interval": [0.25, 0.75]}
        assert rep["result"]["residual"] <= 1e-10

    def test_local_form_inconclusive(self, capsys):
        code, out, _ = _run(capsys, ["example", "local-form",
                                     "--expr", "(clamp (lin (-1.0 2.0) ((const 1.0) t)))",
                                     "--interval", "0,1", "--depth-cap", "0"])
        assert code == EXIT_REJECTED
        rep = _report(out)
        assert rep["result"]["reason"] == "inconclusive"
        assert rep["settings"] == {"depth-cap": 0, "tol": 1e-10}
        assert rep["inputs"]["interval"] == [0.0, 1.0]

    def test_decay_pass_and_fail(self, capsys):
        code, out, _ = _run(capsys, ["example", "decay",
                                     "--expr", "(lin (0.5) (t))"])
        assert code == EXIT_OK
        assert _report(out)["result"]["passes"] is True

        code, out, _ = _run(capsys, ["example", "decay",
                                     "--expr", "(lin (2.0) (t))"])
        assert code == EXIT_REJECTED
        assert _report(out)["result"]["passes"] is False

    def test_witness(self, capsys):
        code, out, _ = _run(capsys, ["example", "witness",
                                     "--a", "0.25", "--b", "0.5", "--at", "0.375"])
        assert code == EXIT_OK
        rep = _report(out)
        assert rep["result"]["value_at_a"] == 0.0
        assert rep["result"]["value_at_b"] == 1.0
        at, val = rep["result"]["value_at"]
        assert at == 0.375
        assert val == pytest.approx(0.7071067811865475, abs=1e-15)


class TestFuzz:
    def test_single_point_instance(self, capsys):
        code, out, _ = _run(capsys, ["fuzz", "--dim", "1", "--count", "1"])
        assert code == EXIT_OK
        rep = _report(out)
        assert rep["result"]["acceptance_rate"] == 1.0
        assert rep["result"]["match_rate"] == 1.0
        assert rep["result"]["failures"] == []

    def test_clean_instances_all_match(self, capsys):
        code, out, _ = _run(capsys, ["fuzz", "--dim", "6", "--count", "24",
                                     "--seed", "3"])
        assert code == EXIT_OK
        rep = _report(out)
        assert rep["result"]["match_rate"] == 1.0
        assert rep["result"]["max_residual"] <= 1e-9

    def test_exact_mode(self, capsys):
        code, out, _ = _run(capsys, ["fuzz", "--dim", "4", "--count", "4",
                                     "--mode", "exact"])
        assert code == EXIT_OK
        assert _report(out)["result"]["match_rate"] == 1.0

    def test_perturbed_instances_are_caught(self, capsys):
        code, out, _ = _run(capsys, ["fuzz", "--dim", "5", "--count", "8",
                                     "--perturbation", "1.0"])
        assert code == EXIT_OK
        rep = _report(out)
        assert rep["result"]["failures"] == []
        assert rep["result"]["acceptance_rate"] < 1.0 or rep["result"]["max_residual"] > 1e-9


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json", {"matrix": [[0, 2], [3, 0]]})
        _, out1, _ = _run(capsys, ["classify", op])
        _, out2, _ = _run(capsys, ["classify", op])
        assert out1 == out2

    def test_fuzz_is_deterministic(self, capsys):
        argv = ["fuzz", "--dim", "5", "--count", "32", "--seed", "11"]
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2

    def test_json_out_matches_stdout(self, tmp_path, capsys):
        op = _write(tmp_path, "op.json", {"matrix": [[0, 2], [3, 0]]})
        dest = tmp_path / "report.json"
        _, out, _ = _run(capsys, ["decompose", op, "--json-out", str(dest)])
        assert dest.read_text() == out


def _run_module(*argv):
    """`python -m oiso argv`, importing the same package these tests import."""
    root = os.path.dirname(os.path.dirname(oiso.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "oiso", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"matrix": [[0, 2], [3, 0]]}))
        proc = _run_module("decompose", str(op))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["sigma"] == [1, 0]

    def test_version_flag(self):
        proc = _run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout.startswith("oiso ")
