"""Tests for JSON parsing, canonical serialization, and report digests."""
import importlib
import io
import itertools
import json
import math
import re
import struct
import sys
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oiso import linalg, serialize
from oiso.serialize import (
    SCHEMA,
    build_report,
    canonical_json,
    coerce_number,
    file_digest,
    load_json,
    parse_compactify_spec,
    parse_family,
    parse_operator,
    parse_space,
    report_digest,
    report_payload,
    with_digest,
)


class TestCoerceNumber:
    def test_float_mode_accepts_reals_and_fraction_strings(self):
        assert coerce_number(2, False) == 2.0
        assert coerce_number(0.5, False) == 0.5
        assert coerce_number("3/4", False) == 0.75

    def test_exact_mode_accepts_ints_and_fraction_strings(self):
        assert coerce_number(2, True) == Fraction(2)
        assert coerce_number("3/4", True) == Fraction(3, 4)
        assert coerce_number("-7", True) == Fraction(-7)

    def test_exact_mode_refuses_floats(self):
        with pytest.raises(ValueError, match="exact mode refuses the float"):
            coerce_number(0.5, True)

    def test_booleans_rejected_in_both_modes(self):
        with pytest.raises(ValueError):
            coerce_number(True, False)
        with pytest.raises(ValueError):
            coerce_number(False, True)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            coerce_number(math.inf, False)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            coerce_number([1], False)
        with pytest.raises(ValueError):
            coerce_number(None, True)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0", " 1/00 "])
    def test_zero_denominator_is_a_value_error(self, text, exact):
        with pytest.raises(ValueError, match="zero denominator"):
            coerce_number(text, exact)

    @pytest.mark.parametrize("x", [10 ** 400, -10 ** 400, "1e400", "-1e400", "2" * 400 + "/3"],
                             ids=["int", "negative-int", "exponent", "negative-exponent", "p/q"])
    def test_too_large_for_a_double_is_not_finite(self, x):
        with pytest.raises(ValueError, match="entries must be finite"):
            coerce_number(x, False)

    def test_exact_mode_reads_huge_rationals_exactly(self):
        assert coerce_number(10 ** 400, True) == Fraction(10 ** 400)
        assert coerce_number("1e400", True) == Fraction(10 ** 400)


def _reference_matrix(rows, exact):
    """The per-entry reading that `_read_matrix` must agree with."""
    data = [[coerce_number(v, exact) for v in row] for row in rows]
    if len({len(r) for r in data}) != 1:
        raise ValueError("matrix rows must have equal length")
    return np.array(data, dtype=object if exact else float)


def _matrix(rows, exact):
    """The matrix `_read_matrix` reads, as an array."""
    return linalg.dense(serialize._read_matrix(rows, exact))


def _outcome(read, rows, exact):
    """The matrix `read` returns, or the message of the ValueError it raises."""
    try:
        return read(rows, exact)
    except ValueError as e:
        return str(e)


_STRINGS = ("-7", " 3/4 ", "1.5", "1e3", "1_000", "\u0661/\u0662", "+2", "007", "-0", "5/10")
_RATIONAL_ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.integers(),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(1, 99)),
    st.sampled_from(_STRINGS),
)
_FLOAT_ENTRIES = st.one_of(
    _RATIONAL_ENTRIES,
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    # where rounding to a double changes, and where it overflows
    st.sampled_from([2 ** 53 + 1, -(2 ** 63) - 1, 2 ** 64 + 1, 2 ** 1023 * 3 // 2, 2 ** 1024 - 1]),
)


# hashable scalars that each mode refuses
_REFUSED = (True, False, None, math.nan, math.inf, -math.inf, 1.0, -0.0, "1/0", "x")


@st.composite
def _matrices(draw, entries):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    matrix = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    if draw(st.integers(0, 4)) == 0:  # now and then a refused entry
        matrix[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(
            st.sampled_from(_REFUSED))
    if draw(st.integers(0, 9)) == 0:  # now and then a ragged matrix
        matrix[-1].append(draw(entries))
    return matrix


_MODE_AND_MATRIX = st.one_of(st.tuples(st.just(False), _matrices(_FLOAT_ENTRIES)),
                             st.tuples(st.just(True), _matrices(_RATIONAL_ENTRIES)))


# exact documents: what the table reads, and now and then what it refuses
_EXACT_READ = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    st.integers(2 ** 64, 2 ** 200).flatmap(lambda k: st.sampled_from([k, -k])),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(1, 99)),
    st.sampled_from(("0", "-0", "+2", " 3/4 ", "1.5", "007", "00/7", "5/10")),
)
_EXACT_REFUSED = st.one_of(
    st.sampled_from(("1/0", "abc", " 1/00 ", True, False, None, 1.0, 0.0, -0.0)),
    st.floats(),
    st.lists(st.integers(0, 1), max_size=2),
    st.lists(st.lists(st.integers(0, 1), max_size=2), max_size=2),
)


@st.composite
def _exact_documents(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    matrix = draw(st.lists(st.lists(_EXACT_READ, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if cols else 0):
        # refused entries, anywhere
        matrix[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(
            _EXACT_REFUSED)
    if draw(st.integers(0, 4)) == 0:  # a ragged row, longer or shorter
        row = matrix[draw(st.integers(0, rows - 1))]
        if row and draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(_EXACT_READ))
    return matrix


# exact documents around the weighted-permutation pattern: zeros written
# several ways, repeated weights, an extra nonzero, a zero row, two nonzeros
# in one column, and now and then a refused entry or a ragged row
_ZERO_TEXTS = (0, "0", "0/5", "-0", "00/7", "0/3", "-0/2")
_WEIGHTS = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.integers(2 ** 64, 2 ** 70),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99).filter(bool), st.integers(1, 99)),
    st.sampled_from(("+2", " 3/4 ", "1.5", "5/10")),
)
_PATTERN_REFUSED = (True, False, 1.0, 0.0, -0.0, None, [0], "abc", "1/0")


@st.composite
def _pattern_documents(draw):
    n = draw(st.integers(1, 6))
    m = n if draw(st.integers(0, 3)) else draw(st.integers(1, 6))
    zeros = draw(st.lists(st.sampled_from(_ZERO_TEXTS), min_size=1, max_size=6))
    weights = draw(st.lists(_WEIGHTS, min_size=1, max_size=3))
    rows = [[draw(st.sampled_from(zeros)) for _ in range(n)] for _ in range(m)]
    perm = draw(st.permutations(range(n)))
    for y in range(min(m, n)):
        rows[y][perm[y]] = draw(st.sampled_from(weights))
    cell = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    for y, x in draw(st.lists(cell, max_size=2)):  # extra nonzeros
        rows[y][x] = draw(_WEIGHTS)
    if draw(st.integers(0, 4)) == 0:  # a zero row
        rows[draw(st.integers(0, m - 1))] = [draw(st.sampled_from(zeros)) for _ in range(n)]
    if min(m, n) > 1 and draw(st.integers(0, 4)) == 0:  # row y's nonzero into row z's column
        y, z = draw(st.permutations(range(min(m, n))))[:2]
        rows[y] = [draw(st.sampled_from(zeros)) for _ in range(n)]
        rows[y][perm[z]] = draw(st.sampled_from(weights))
    if draw(st.integers(0, 4)) == 0:
        y, x = draw(cell)
        rows[y][x] = draw(st.sampled_from(_PATTERN_REFUSED))
    if draw(st.integers(0, 9)) == 0:  # a ragged row
        rows[draw(st.integers(0, m - 1))].append(draw(st.sampled_from(zeros)))
    return rows


def _reference_value(rows, exact):
    """The per-entry reading as an ExactMatrix (`of_array`) and its monomial
    read as the integer scan finds it (`_exact_monomial`)."""
    value = linalg.ExactMatrix.of_array(_reference_matrix(rows, exact))
    return value, linalg._exact_monomial(value)


def _read_of(read):
    return None if read is None else (read[0].tolist(), [(type(x), x) for x in read[1]])


class TestCoerceMatrix:
    @settings(max_examples=400, deadline=None)
    @given(rows=_pattern_documents())
    @example(rows=[["0", "2/3"], ["-5", 0]])
    @example(rows=[["0", "2/3"], ["0", "0/5"]])
    @example(rows=[[0, 1], [1, 1.0]])
    @example(rows=[[0, "1"], [0.0, 0]])
    @example(rows=[["1/2", 0, 0], [0, 0, "1/2"], [0, "1/2", [1]]])
    @example(rows=[["7"], [0]])
    @example(rows=[["0", "3"], ["4", "0"], ["0"]])
    def test_weighted_permutation_read_matches_the_integer_scan(self, rows):
        # the pattern found in the entries, and the rows built from it, equal
        # the per-entry reading's value and the read its integers give; a
        # refused document gives the per-entry reading's message
        got = _outcome(serialize._read_matrix, rows, True)
        want = _outcome(_reference_value, rows, True)
        if isinstance(want, str):
            assert got == want
            return
        value, read = want
        assert (got.rows, got.dens, got.shape) == (value.rows, value.dens, value.shape)
        assert all(type(x) is int for row in got.rows for x in row)
        assert _read_of(linalg.monomial(got)) == _read_of(read)

    @settings(max_examples=400, deadline=None)
    @given(rows=_exact_documents())
    @example(rows=[[]])
    @example(rows=[[0, "0", 1], [True, 1, "1"]])
    @example(rows=[[1, 1.0], [0, 0]])
    @example(rows=[["1/2", 0], [0, "abc"], [1]])
    @example(rows=[[f"1/{2 ** 40 + 1}", f"3/{2 ** 40 + 3}"], ["0", "-5/2"]])
    def test_exact_reading_matches_the_per_entry_reading(self, rows):
        # the table of distinct entries against one coerce_number per entry:
        # integer rows, each over its entries' least common denominator, the
        # same Fractions and the same first refusal
        got = _outcome(serialize._read_matrix, rows, True)
        want = _outcome(_reference_matrix, rows, True)
        if isinstance(want, str):
            assert got == want
            return
        assert isinstance(got, linalg.ExactMatrix) and got.shape == want.shape
        assert got.dens == tuple(math.lcm(*(x.denominator for x in row)) for row in want)
        assert all(type(x) is int for row in got.rows for x in row)
        m = got.array
        assert all(type(v) is Fraction for v in m.flat)
        assert (m == want).all()

    @settings(max_examples=300, deadline=None)
    @given(case=_MODE_AND_MATRIX)
    @example(case=(False, [[-0.0, 1, 2 ** 53 + 1], [0.5, 10 ** 400, "1/3"]]))
    @example(case=(True, [["0", 0, "0/5", "-0"], [" 1/2 ", "1/2", "2/4", 1]]))
    def test_matches_the_per_entry_reading(self, case):
        exact, rows = case
        got = _outcome(_matrix, rows, exact)
        want = _outcome(_reference_matrix, rows, exact)
        if isinstance(want, str):
            assert got == want
        elif exact:
            assert got.shape == want.shape and got.dtype == object
            assert all(type(v) is Fraction for v in got.flat)
            assert (got == want).all()
        else:
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_number_matrices_skip_the_per_entry_reading(self, monkeypatch):
        def refuse(x, exact):
            raise AssertionError(f"per-entry reading of {x!r}")

        monkeypatch.setattr(serialize, "coerce_number", refuse)
        floats = _matrix([[1, 0.5, -0.0], [2 ** 60, -3, 1e300]], False)
        assert floats.tobytes() == np.array([[1, 0.5, -0.0], [2.0 ** 60, -3, 1e300]]).tobytes()
        exact = _matrix([["1/2", "0", "-3/4"], ["0", "6/4", "-7"]], True)
        assert exact.tolist() == [[Fraction(1, 2), 0, Fraction(-3, 4)],
                                  [0, Fraction(3, 2), -7]]

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("unhashable", [False, True])
    def test_refusals_name_the_first_bad_entry(self, exact, unhashable):
        tail = [[1]] if unhashable else [None]
        with pytest.raises(ValueError, match="booleans"):
            _matrix([[0, 1], [1, True], tail], exact)
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            _matrix([[1, "1/0"], ["x", tail[0]]], exact)

    def test_exact_mode_refuses_floats_equal_to_integers(self):
        with pytest.raises(ValueError, match="refuses the float 0.0"):
            _matrix([[0, 1], [0.0, 1.0]], True)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 10 ** 400, "1e400"],
                             ids=["nan", "inf", "int", "string"])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_float_entries_with_no_finite_double_refused(self, bad, ragged):
        rows = [[1, 2], [bad]] if ragged else [[1, 2], [3, bad]]
        with pytest.raises(ValueError, match="entries must be finite"):
            _matrix(rows, False)


# an integer literal of 19 digits or more: a run of digits that starts the
# text or follows a byte other than a digit, ".", "e" or "E"
_LONG_INTEGER = re.compile(rb"(?:^|[^0-9.eE])[0-9]{19}")
_SCREEN_PIECES = st.one_of(
    st.integers(1, 24).flatmap(lambda k: st.text("0123456789", min_size=k, max_size=k))
    .map(str.encode),
    st.sampled_from([b".", b"e", b"E", b" ", b"-", b'"', b"[", b",", b"x", b"\xff"]),
)


class TestLoadJson:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_SCREEN_PIECES, max_size=12).map(b"".join))
    @example(b"1" * 19)
    @example(b"[" + b"1" * 19)
    @example(b"0." + b"1" * 19)
    @example(b"1e" + b"1" * 19)
    @example(b"-" + b"9" * 18)
    def test_long_integer_screen_matches_the_pattern(self, data):
        assert serialize._long_integer(data) == (_LONG_INTEGER.search(data) is not None)

    def test_round_trip(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps({"schema": SCHEMA, "matrix": [[1]]}))
        assert load_json(str(p))["matrix"] == [[1]]

    def test_missing_schema_defaults(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps({"matrix": [[1]]}))
        assert load_json(str(p))["matrix"] == [[1]]

    def test_wrong_schema_rejected(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps({"schema": "other/9", "matrix": [[1]]}))
        with pytest.raises(ValueError, match="unsupported schema"):
            load_json(str(p))

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="object"):
            load_json(str(p))


# Decoding: load_json must read what the stdlib decoder reads from the file's
# UTF-8 text, whether orjson decodes it or not. Documents are built as bytes
# from literal tokens, so they can hold what no Python value serializes to.
_EDGE_INTEGERS = (2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 64 - 1, 2 ** 64, 10 ** 30)
_LITERALS = (b"NaN", b"Infinity", b"-Infinity", b"1e400", b"-1e400", b"1e-400", b"-0",
             b"-0.0", b"true", b"false", b"null")
# lone surrogates as escapes, and bytes that are not UTF-8: a stray continuation
# byte, a truncated sequence, an encoded surrogate, 0xff
_ODD_STRINGS = (b'"\\ud800"', b'"a\\udfffb"', b'"\\udc00\\ud800"', b'"\x80"', b'"\xc3"',
                b'"\xed\xa0\x80"', b'"\xff"')


def _double_text(bits: int) -> bytes:
    """The shortest text of the double with these bits, NaN and infinities
    as the stdlib writes them."""
    x = struct.unpack("<d", bits.to_bytes(8, "little"))[0]
    return json.dumps(x).encode("ascii")


@st.composite
def _decimal_texts(draw) -> bytes:
    """A decimal of 17 to 40 significant digits, with a point anywhere and an
    optional exponent: integers of that many digits too, and the doubles
    rounding must pick."""
    digits = draw(st.text("123456789", min_size=1, max_size=1)) + draw(
        st.text("0123456789", min_size=16, max_size=39))
    point = draw(st.integers(0, len(digits)))
    text = (digits[:point] or "0") + ("." + digits[point:] if point < len(digits) else "")
    exponent = draw(st.one_of(st.none(), st.integers(-400, 400)))
    sign = draw(st.sampled_from(["", "-"]))
    return (sign + text + ("" if exponent is None else f"e{exponent}")).encode("ascii")


_STRING_TEXTS = st.one_of(
    st.builds(lambda s, ascii: json.dumps(s, ensure_ascii=ascii).encode("utf-8"),
              st.text(max_size=6), st.booleans()),
    # brackets, quotes and backslashes inside strings, for the nesting screen
    st.text('[]{}"\\a', max_size=6).map(lambda s: json.dumps(s).encode("ascii")),
    st.sampled_from(_ODD_STRINGS),
)
_NUMBER_TEXTS = st.one_of(
    st.sampled_from(_EDGE_INTEGERS).map(lambda i: str(i).encode("ascii")),
    st.integers().map(lambda i: str(i).encode("ascii")),
    st.integers(0, 2 ** 64 - 1).map(_double_text),
    _decimal_texts(),
)
_SCALAR_TEXTS = st.one_of(_NUMBER_TEXTS, _STRING_TEXTS, st.sampled_from(_LITERALS))
# a few keys, so that objects repeat them
_KEY_TEXTS = st.one_of(st.sampled_from([b'"a"', b'"b"', b'"matrix"']), _STRING_TEXTS)
_VALUE_TEXTS = st.recursive(
    _SCALAR_TEXTS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda xs: b"[" + b", ".join(xs) + b"]"),
        st.lists(st.tuples(_KEY_TEXTS, inner), max_size=4).map(
            lambda kvs: b"{" + b", ".join(k + b": " + v for k, v in kvs) + b"}")),
    max_leaves=12)


@st.composite
def _operator_texts(draw) -> bytes:
    """An operator document whose matrix entries and labels are numbers."""
    n = draw(st.integers(1, 3))
    entries = st.one_of(_NUMBER_TEXTS, st.sampled_from(_LITERALS))
    rows = [b"[" + b", ".join(draw(entries) for _ in range(n)) + b"]" for _ in range(n)]
    labels = b"[" + b", ".join(draw(_NUMBER_TEXTS) for _ in range(n)) + b"]"
    return b'{"matrix": [' + b", ".join(rows) + b'], "domain": ' + labels + b"}"


_DOCUMENT_BYTES = st.builds(lambda bom, doc: b"\xef\xbb\xbf" * bom + doc, st.booleans(),
                            st.one_of(_VALUE_TEXTS, _operator_texts()))


def _typed_tree(x):
    """A decoded value with each container's kind and key order, and each
    scalar's type and repr, so 1 and 1.0, -0.0 and 0.0, and nan all compare."""
    if isinstance(x, dict):
        return "object", [(k, _typed_tree(v)) for k, v in x.items()]
    if isinstance(x, list):
        return "array", [_typed_tree(v) for v in x]
    return type(x).__name__, repr(x)


def _stdlib_decode(data: bytes):
    """The reading load_json must keep: the stdlib decoder on the UTF-8 text."""
    return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())


def _decoded(decode, data: bytes):
    """The typed tree of the value, or the type and message of the refusal."""
    try:
        return _typed_tree(decode(data))
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError among them
        return type(e), str(e)


_NEEDS_ORJSON = pytest.mark.skipif(serialize.orjson is None, reason="orjson is not installed")


def _depth(x) -> int:
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        return 1 + max(map(_depth, x), default=0)
    return 0


class TestDecode:
    @settings(max_examples=400, deadline=None)
    @given(_DOCUMENT_BYTES)
    @example(b'{"a": 1, "b": 2, "a": [3]}')
    @example(b"\xef\xbb\xbf" + b'{"matrix": [[1]]}')
    @example(b'{"matrix": [[18446744073709551616]], "domain": [123456789012345678901234567890]}')
    @example(b'{"matrix": [[NaN, 1e400]], "domain": ["\\ud800"]}')
    def test_same_value_or_refusal_as_the_stdlib_decoder(self, data):
        expected = _decoded(_stdlib_decode, data)
        assert _decoded(serialize._decode, data) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "orjson", None)
            assert _decoded(serialize._decode, data) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(st.text('[]{}"\\a', max_size=4),
                        lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text('[]{}"\\a', max_size=3), inner, max_size=3),
                        max_leaves=10))
    @example(["\\", [[1]]])
    def test_nesting_depth_skips_brackets_in_strings(self, value):
        assert serialize._nesting_depth(json.dumps(value).encode("ascii")) == _depth(value)

    @_NEEDS_ORJSON
    @pytest.mark.parametrize("depth", [1, 598, 599, 650])
    def test_deep_nesting_is_read_by_the_stdlib_decoder(self, monkeypatch, depth):
        data = b'{"a": ' + b"[" * depth + b'"]\\"["' + b"]" * depth + b"}"
        assert serialize._nesting_depth(data) == depth + 1
        orjson_reads = []
        real = serialize.orjson.loads
        monkeypatch.setattr(serialize.orjson, "loads",
                            lambda d: orjson_reads.append(1) or real(d))
        stdlib_reads = []
        real_json = json.loads
        monkeypatch.setattr(json, "loads", lambda s: stdlib_reads.append(1) or real_json(s))
        assert serialize._decode(data) == _stdlib_decode(data)
        deep = depth + 1 >= serialize._ORJSON_MAX_DEPTH
        assert (len(orjson_reads), len(stdlib_reads) - 1) == (1, int(deep))

    @_NEEDS_ORJSON
    def test_a_plain_document_is_decoded_by_orjson_alone(self, monkeypatch):
        monkeypatch.setattr(json, "loads", None)  # the stdlib decoder is not called
        data = json.dumps({"matrix": [[0.001234567890123456, 2 ** 59], [-3, 1e-300]],
                           "domain": ["x", 12345678901234567]}).encode("utf-8")
        assert serialize._decode(data) == {"matrix": [[0.001234567890123456, 2 ** 59],
                                                      [-3, 1e-300]],
                                           "domain": ["x", 12345678901234567]}

    @pytest.mark.parametrize("value", _EDGE_INTEGERS)
    def test_edge_integers_load_exactly(self, tmp_path, value):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps({"matrix": [[value]], "domain": [value]}))
        doc = load_json(str(p))
        assert _typed_tree(doc) == _typed_tree({"matrix": [[value]], "domain": [value]})

    @_NEEDS_ORJSON
    def test_importable_without_orjson(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "orjson", None)  # its import fails
        try:
            importlib.reload(serialize)
            assert serialize.orjson is None
            assert _typed_tree(serialize._decode(b'{"a": [1e400, 18446744073709551616]}')) == \
                _typed_tree({"a": [math.inf, 2 ** 64]})
        finally:
            monkeypatch.undo()
            importlib.reload(serialize)
        assert serialize.orjson is not None


# The float matrix read before documents were screened for booleans, kept as
# the oracle of the one-pass read.
def _float_matrix(rows):
    """A rectangular matrix of JSON numbers as one array; None when it holds
    another value, is ragged, or has an entry with no finite double."""
    if (len({len(r) for r in rows}) != 1
            or not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}):
        return None  # bool is its own type, so numpy never reads True as 1.0
    try:
        data = np.array(rows, dtype=float)
    except OverflowError:  # an integer too large for a double
        return None
    return data if np.isfinite(data).all() else None


_INT_EDGES = (2 ** 53 + 1, -(2 ** 53 + 1), 2 ** 63, -(2 ** 63), 2 ** 63 - 1, -(2 ** 63) - 1,
              2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64, -(2 ** 64), 10 ** 400)
_NUMBER_ENTRIES = st.one_of(
    st.floats(),  # nan and the infinities too, which json.dumps writes as NaN and Infinity
    st.sampled_from((-0.0, 1e308, -1e308)),
    st.integers(-9, 9),
    st.integers(),
    st.sampled_from(_INT_EDGES),
)
_ODD_ENTRIES = st.one_of(
    st.booleans(),
    st.none(),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(0, 99)),
    st.sampled_from(("-0", "nan", "0", "1.5", "-2.5e-3", "1e400")),
    st.lists(st.one_of(st.integers(-2, 2), st.floats(-2, 2)), max_size=2),
)
# labels that make the byte screen search for the tokens, or find them
_LABELS = ("u", "f", "fu", "true", "false", "x", "truth", "falsehood")


@st.composite
def _float_documents(draw):
    """An operator document: a matrix of numbers, now and then with odd
    entries or a ragged row, and labels that hold "u", "f" or a token."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_NUMBER_ENTRIES, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_ODD_ENTRIES)
    if draw(st.integers(0, 6)) == 0:  # a ragged row, or a matrix nested one level deeper
        if draw(st.booleans()):
            rows[draw(st.integers(0, n - 1))].append(draw(_NUMBER_ENTRIES))
        else:
            rows = [[[v] for v in row] for row in rows]
    doc = {"matrix": rows}
    if draw(st.booleans()):
        doc["domain"] = draw(st.lists(st.sampled_from(_LABELS), min_size=n, max_size=n,
                                      unique=True))
    return doc


def _operator_read(path: str):
    """What `parse_operator(load_json(path), "float")` reads: the operator
    matrix's shape and bits, or None when it refuses it, and the type and
    message of what the parse raises, if anything."""
    read = []
    real = serialize._read_matrix

    def spy(*args):
        read.append(real(*args))
        return read[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_read_matrix", spy)
        try:
            parse_operator(load_json(path), "float")
            raised = None
        except Exception as e:  # a refusal or a singular operator
            raised = type(e).__name__, str(e)
    matrix = read[0] if read else None
    if matrix is not None:
        assert matrix.dtype == np.float64
        matrix = matrix.shape, matrix.view(np.int64).tolist()
    return matrix, raised


def _read_before_the_screen(rows, exact, bool_free=False):
    """`_read_matrix` on float rows as it read them before the byte screen:
    the typed read of `_float_matrix`, and the per-entry reading of what it
    refuses."""
    assert not exact
    data = _float_matrix(rows)
    return _reference_matrix(rows, exact) if data is None else data


class TestFloatRead:
    @settings(max_examples=400, deadline=None)
    @given(rows=_float_documents().map(lambda doc: doc["matrix"]))
    @example(rows=[[2 ** 53 + 1, -(2 ** 63)], [2 ** 63 - 1, -0.0]])
    @example(rows=[[2 ** 63 + 1, 2 ** 64 - 1], [2 ** 63, 1]])
    @example(rows=[[2 ** 63 + 1, -1], [1e308, -0.0]])
    @example(rows=[[2 ** 64, 1.5], [-(2 ** 63) - 1, 0]])
    @example(rows=[[1.5, True], [None, "1/0"]])
    @example(rows=[[1, [2]], [3, 4]])
    @example(rows=[[[1], [2]], [[3], [4]]])
    @example(rows=[[1, 2], [3]])
    @example(rows=[[], []])
    @example(rows=[[float("nan"), 2 ** 1024], [1, 2]])
    @example(rows=[["-0", 0.0], [0.0, 0.0]])  # a string read by float() gives -0.0
    @example(rows=[[2 ** 64, 1e308], [-0.0, 1]])
    @example(rows=[[0.5], [1.5, 2.5]])
    @example(rows=[[1.5, 2.5], [None, 0.5]])
    @pytest.mark.parametrize("decoder", ["orjson", "stdlib"])
    def test_matches_the_per_entry_reading(self, decoder, rows):
        # the row pack, taken or passed to the per-entry reading,
        # against one coerce_number per entry: the same bits, the sign of a
        # zero included, or the same message
        if decoder == "orjson" and serialize.orjson is None:
            pytest.skip("orjson is not installed")
        data = json.dumps(rows).encode("ascii")
        with pytest.MonkeyPatch.context() as mp:
            if decoder == "stdlib":
                mp.setattr(serialize, "orjson", None)
            rows = serialize._decode(data)
        want = _outcome(_reference_matrix, rows, False)
        for bool_free in (False, True) if serialize._bool_free(data) else (False,):
            got = _outcome(lambda r, e: serialize._read_matrix(r, e, bool_free), rows, False)
            if isinstance(want, str):
                assert got == want
            else:
                assert got.dtype == want.dtype == np.float64
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBoolFreeRead:
    @settings(max_examples=300, deadline=None)
    @given(doc=_float_documents())
    @example(doc={"matrix": [[1.5, True], [0, 1]]})
    @example(doc={"matrix": [[1, False], [0, 1]], "domain": ["u", "f"]})
    @example(doc={"matrix": [[-0.0, 1], [2 ** 53 + 1, 2 ** 63 + 1]], "domain": ["fu", "x"]})
    @example(doc={"matrix": [[1, 2 ** 64], [-(2 ** 63) - 1, 0.5]]})
    @example(doc={"matrix": [[1, "-0"], ["nan", None]]})
    @example(doc={"matrix": [[1, [2]], [3, 4]]})
    @example(doc={"matrix": [[1, 2], [3]]})
    @example(doc={"matrix": [[float("nan"), 10 ** 400], [1, 2]]})
    @example(doc={"matrix": [["-0", 0.0], [0.0, 0.0]]})  # a string read by float() gives -0.0
    @example(doc={"matrix": [[2 ** 64, 1e308], [-0.0, 1]]})
    @example(doc={"matrix": [[0.5], [1.5, 2.5]]})
    @example(doc={"matrix": [[1.5, 2.5], [None, 0.5]]})
    @pytest.mark.parametrize("decoder", ["orjson", "stdlib"])
    def test_matches_the_read_before_the_screen(self, tmp_path_factory, decoder, doc):
        if decoder == "orjson" and serialize.orjson is None:
            pytest.skip("orjson is not installed")
        path = tmp_path_factory.mktemp("doc") / "op.json"
        path.write_text(json.dumps(doc))
        with pytest.MonkeyPatch.context() as mp:
            if decoder == "stdlib":
                mp.setattr(serialize, "orjson", None)
            got = _operator_read(str(path))
            mp.setattr(serialize, "_read_matrix", _read_before_the_screen)
            assert got == _operator_read(str(path))

    @pytest.mark.parametrize("text, free", [
        (b'{"matrix": [[1, 0.5]]}', True),
        (b'{"matrix": [[1, 0.5]], "domain": ["u", "f"]}', True),
        (b'{"matrix": [[1, true]]}', False),
        (b'{"matrix": [[1, 0]], "domain": ["false", "x"]}', False),
    ])
    def test_screen_reads_the_bytes(self, tmp_path, text, free):
        path = tmp_path / "op.json"
        path.write_bytes(text)
        assert isinstance(load_json(str(path)), serialize._BoolFree) == free


class TestParseSpace:
    def test_label_list(self):
        sp = parse_space(["a", "b"])
        assert sp.labels == ("a", "b")
        assert sp.metric is None

    def test_labels_with_metric(self):
        sp = parse_space({"labels": ["a", "b"], "metric": [[0, 1], [1, 0]]})
        assert sp.metric[0, 1] == 1.0

    def test_metric_too_large_for_a_double_refused(self):
        with pytest.raises(ValueError, match="metric entries must be finite"):
            parse_space({"labels": ["a", "b"], "metric": [[0, 10 ** 400], [10 ** 400, 0]]})

    def test_bad_document(self):
        with pytest.raises(ValueError):
            parse_space({"metric": [[0]]})
        with pytest.raises(ValueError):
            parse_space(42)


class TestParseFamily:
    def test_label_list_is_full_family(self):
        fam = parse_family(["a", "b", "c"])
        assert fam.is_full and fam.space.size == 3

    def test_generators_document(self):
        fam = parse_family({"space": ["a", "b"], "generators": [[1, 1], [0, 1]],
                            "names": ["1", "t"]})
        assert fam.rank == 2
        assert fam.names == ("1", "t")

    def test_exact_generators(self):
        fam = parse_family({"space": ["a", "b"], "generators": [["1/2", 1], [0, 1]]},
                           exact=True)
        assert fam.exact
        assert fam.generators[0, 0] == Fraction(1, 2)


class TestParseOperator:
    def test_defaults_to_full_point_basis(self):
        t = parse_operator({"matrix": [[0, 2], [3, 0]]})
        assert t.basis == "point"
        assert t.domain.space.labels == ("x1", "x2")
        assert t.codomain.space.labels == ("y1", "y2")
        assert np.allclose(t.matrix, [[0.0, 2.0], [3.0, 0.0]])

    def test_exact_mode(self):
        t = parse_operator({"matrix": [[0, "1/2"], [3, 0]]}, mode="exact")
        assert t.exact
        assert t.matrix[0, 1] == Fraction(1, 2)

    def test_exact_mode_refuses_float_entries(self):
        with pytest.raises(ValueError, match="exact mode refuses"):
            parse_operator({"matrix": [[0.5, 0], [0, 1]]}, mode="exact")

    def test_requires_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            parse_operator({"matrix": [[1, 2, 3], [4, 5, 6]]})

    def test_requires_matrix_key(self):
        with pytest.raises(ValueError, match="matrix"):
            parse_operator({})

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            parse_operator({"matrix": [[1, 2], [3]]})

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            parse_operator({"matrix": [[1]]}, mode="symbolic")


class TestParseCompactifySpec:
    def test_full_document(self):
        doc = {
            "domain": {"samples": [0.25, 0.75], "generators": ["t"], "name": "X",
                       "interval": [0, 1, True, True]},
            "sequences": [{"name": "to0", "n": 64, "rule": "1/(k+1)"}],
            "operator": {"pullback": "1 - t", "weight": "1"},
        }
        x_space, y_space, seqs_x, seqs_y, op = parse_compactify_spec(doc)
        assert x_space.samples == (0.25, 0.75)
        assert y_space is x_space  # codomain defaults to the domain
        assert seqs_x[0].name == "to0" and seqs_x[0].n == 64
        assert seqs_y == seqs_x
        assert op is not None

    def test_separate_codomain_and_sequences(self):
        doc = {
            "domain": {"samples": [0.5], "generators": ["t"]},
            "codomain": {"samples": [0.25], "generators": ["t"], "name": "Y"},
            "sequences": [{"name": "a", "n": 32, "rule": "1/k"}],
            "sequences_codomain": [],
        }
        x_space, y_space, seqs_x, seqs_y, op = parse_compactify_spec(doc)
        assert y_space.name == "Y"
        assert len(seqs_x) == 1 and seqs_y == []
        assert op is None

    def test_sequence_defaults_and_points(self):
        doc = {
            "domain": {"samples": [0.5], "generators": ["t"]},
            "sequences": [{"points": list(np.linspace(1, 0, 40))}],
        }
        _, _, seqs_x, _, _ = parse_compactify_spec(doc)
        assert seqs_x[0].name == "seq0"
        assert seqs_x[0].n == 40  # capped at the explicit list length

    def test_numbers_too_large_for_a_double_refused(self):
        domain = {"samples": [0.5], "generators": ["t"]}
        with pytest.raises(ValueError, match="'n' must be finite"):
            parse_compactify_spec({"domain": domain,
                                   "sequences": [{"rule": "1/k", "n": math.inf}]})
        with pytest.raises(ValueError, match="samples must be finite"):
            parse_compactify_spec({"domain": {"samples": [10 ** 400], "generators": ["t"]}})
        with pytest.raises(ValueError, match="sequence points must be finite"):
            parse_compactify_spec({"domain": domain, "sequences": [{"points": [10 ** 400]}]})

    def test_missing_pieces_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            parse_compactify_spec({})
        with pytest.raises(ValueError, match="'samples' and 'generators'"):
            parse_compactify_spec({"domain": {"samples": [1]}})
        with pytest.raises(ValueError, match="rule"):
            parse_compactify_spec({"domain": {"samples": [1], "generators": ["t"]},
                                   "sequences": [{"name": "s"}]})
        with pytest.raises(ValueError, match="pullback"):
            parse_compactify_spec({"domain": {"samples": [1], "generators": ["t"]},
                                   "operator": {"weight": "1"}})


def jsonable(x):
    """The converter the report writer replaced, kept as the reference it
    must agree with: values to a JSON-safe form for `json.dumps`."""
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            raise ValueError("nan is not reportable")
        return v
    if x is None or isinstance(x, str):
        return x
    raise TypeError(f"not JSON-serializable: {type(x).__name__}")


def reference_json(x) -> str:
    return json.dumps(jsonable(x), sort_keys=True, indent=2,
                      ensure_ascii=False, allow_nan=False) + "\n"


class TestJsonable:
    """The conversions `jsonable` made, now made by `canonical_json` itself."""

    def test_fractions_become_strings(self):
        assert canonical_json(Fraction(3, 4)) == '"3/4"\n'
        assert canonical_json(Fraction(5)) == '"5"\n'
        assert canonical_json(Fraction(-5)) == '"-5"\n'

    def test_numpy_scalars_become_python(self):
        out = canonical_json({"a": np.float64(0.5), "b": np.int32(2), "c": np.bool_(True)})
        assert out == '{\n  "a": 0.5,\n  "b": 2,\n  "c": true\n}\n'
        assert json.loads(out) == {"a": 0.5, "b": 2, "c": True}

    def test_arrays_and_tuples_become_lists(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2]) == "[\n  1,\n  2\n]\n"
        assert canonical_json(np.array([1.0, 2.0])) == "[\n  1.0,\n  2.0\n]\n"

    def test_infinities_become_strings(self):
        assert canonical_json(math.inf) == '"inf"\n'
        assert canonical_json(-math.inf) == '"-inf"\n'
        assert canonical_json([1.0, -math.inf]) == '[\n  1.0,\n  "-inf"\n]\n'

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            canonical_json(math.nan)

    @pytest.mark.parametrize("x", [[1.0, math.nan], {"a": np.float64("nan")},
                                   np.array([0.5, math.nan]), [np.float32("nan")]],
                             ids=["flat-list", "numpy-scalar", "array", "float32"])
    def test_nan_rejected_inside_containers(self, x):
        with pytest.raises(ValueError, match="nan"):
            canonical_json(x)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    @pytest.mark.parametrize("x", [[1, object()], {"a": {1, 2}}, b"bytes", 1j],
                             ids=["in-list", "set", "bytes", "complex"])
    def test_other_unknown_types_rejected(self, x):
        with pytest.raises(TypeError):
            canonical_json(x)

    def test_subclasses_and_numpy_scalars_take_their_base_text(self):
        class Label(str):
            pass

        class Weight(float):
            pass

        class Ratio(Fraction):
            pass

        class Colour(IntEnum):
            RED = 3

        value = {
            "float32": [np.float32(0.5), np.float32(-0.0), np.float32("inf")],
            "int8": np.int8(-7),
            "uint64": [np.uint64(2 ** 64 - 1), "x"],
            "bool": (np.bool_(True), np.bool_(False)),
            "str": np.str_("\u00e9\n"),
            "enum": [Colour.RED, Colour.RED],
            "weight": [Weight(2.5), Weight(-0.0)],
            "label": [Label('a"b'), Label("\u2028")],
            "ratio": [Ratio(3, 4), Ratio(-8, 2), 1],
            Label("key"): Weight(1e16),
        }
        converted = {
            "float32": [0.5, -0.0, "inf"],
            "int8": -7,
            "uint64": [2 ** 64 - 1, "x"],
            "bool": [True, False],
            "str": "\u00e9\n",
            "enum": [3, 3],
            "weight": [2.5, -0.0],
            "label": ['a"b', "\u2028"],
            "ratio": ["3/4", "-4", 1],
            "key": 1e16,
        }
        want = json.dumps(converted, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert canonical_json(value) == want
        for key in value:  # each value alone, where a list is joined in one pass
            assert canonical_json(value[key]) == canonical_json(converted[str(key)])

    @pytest.mark.parametrize("x", [np.complex128(1j), np.datetime64("2020-01-01"),
                                   [np.complex128(1), np.complex128(2)]],
                             ids=["complex128", "datetime64", "complex-list"])
    def test_numpy_scalars_without_a_json_kind_rejected(self, x):
        with pytest.raises(TypeError, match="not JSON-serializable"):
            canonical_json(x)


# floats the report writer must spell as float.__repr__ does, as the stdlib does
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1e22, 0.1, 1.7976931348623157e308,
                math.inf, -math.inf]
_floats = st.floats(allow_nan=False) | st.sampled_from(_EDGE_FLOATS)
_texts = st.text() | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\u2028", "é",
                                      "\U0001d53d", "tab\tnew\nline"])
_big_ints = st.integers() | st.integers(min_value=-(2 ** 200), max_value=2 ** 200)
_scalars = st.one_of(
    st.none(), st.booleans(), _big_ints, _floats, _texts,
    st.fractions(),
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
    st.integers(-(2 ** 31), 2 ** 31 - 1).map(np.int32),
    _floats.map(np.float64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.booleans().map(np.bool_),
)
_homogeneous = st.one_of(  # lists the writer joins in one pass
    st.lists(_floats), st.lists(_floats.map(np.float64)), st.lists(_big_ints),
    st.lists(_texts), st.lists(st.fractions()))
_arrays = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, min_side=0, max_side=4),
               elements=_floats),
    hnp.arrays(np.int64, hnp.array_shapes(max_dims=2, min_side=0, max_side=4)),
    hnp.arrays(np.bool_, hnp.array_shapes(max_dims=2, min_side=0, max_side=4)),
    # exact-mode vectors: a 1-d object array of Fractions (the None keeps
    # numpy from reading an empty list as a float array)
    st.lists(st.fractions(), max_size=4).map(lambda v: np.array(v + [None], dtype=object)[:-1]),
)
_values = st.recursive(
    _scalars | _homogeneous | _arrays,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_texts | st.integers(), inner, max_size=5)),
    max_leaves=30)


class TestCanonicalJson:
    @settings(max_examples=400, deadline=None)
    @given(_values)
    @example({"b": [1.0, -0.0, 5e-324, 1e16, 1e-7], "a": (math.inf, -math.inf, 1, "x")})
    @example(["\U0001d53d", '"', "\\", "\x07"])
    @example({1: "int key", "2": [np.float64(0.5), np.float64(-math.inf)]})
    def test_same_text_as_the_reference_encoder(self, x):
        assert canonical_json(x) == reference_json(x)

    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_key_order_does_not_change_output(self):
        assert canonical_json({"x": 1, "y": [2, 3]}) == canonical_json(
            {"y": [2, 3], "x": 1})

    def test_digest_is_stable(self):
        payload = {"result": {"sigma": [1, 0]}, "weight": [Fraction(1, 2)]}
        assert report_digest(payload) == report_digest(dict(reversed(payload.items())))

    def test_text_without_utf8_is_a_value_error(self):
        payload = report_payload("decompose", {"label": "\ud800"})
        with pytest.raises(ValueError, match="UTF-8"):
            report_digest(payload)
        with pytest.raises(ValueError, match="UTF-8"):
            with_digest(canonical_json(payload))


class TestBuildReport:
    def test_shape_and_digest(self):
        rep = build_report("decompose", {"accepted": True}, inputs={"file": "x"},
                           settings={"seed": 0})
        assert rep["schema"] == SCHEMA
        assert rep["command"] == "decompose"
        payload = {k: v for k, v in rep.items() if k != "digest"}
        assert rep["digest"] == report_digest(payload)

    @pytest.mark.parametrize("command", ["decompose", "example.local-form", 'q"\n\u00e9'])
    def test_digest_line_spliced_into_the_payload_text(self, command):
        result = {"sigma": (1, 0), "weight": [Fraction(1, 2), 2.5], "empty": {}}
        inputs = {"operator": {"file": "op.json", "sha256": "0" * 64}}
        settings = {"mode": "exact", "tol": 1e-9}
        text = with_digest(canonical_json(report_payload(command, result, inputs, settings)))
        assert text == canonical_json(build_report(command, result, inputs, settings))

    def test_digest_line_needs_a_payload(self):
        with pytest.raises(ValueError, match="payload"):
            with_digest(canonical_json({"result": 1}))

    def test_file_digest(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"abc")
        assert file_digest(str(p)) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
