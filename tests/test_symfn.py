"""Tests for the one-variable arithmetic parser and its compiled callables."""
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oiso import symfn
from oiso.symfn import SymFn, parse_symfn


# The hand-written tokenizer and recursive-descent parser that `parse_symfn`
# replaced, kept verbatim (renamed) as the oracle of `TestMatchesTheOldParser`.
def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/()":
            tokens.append(ch)
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE"
                                     or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            tokens.append(("num", float(text[i:j])))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        raise ValueError(f"unexpected character {ch!r} in {text!r}")
    return tokens


def _old_parse_symfn(text: str, var: str = "t") -> SymFn:
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def expr():
        node = term()
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            node = (lambda a, b: (lambda x: a(x) + b(x)))(node, rhs) if op == "+" \
                else (lambda a, b: (lambda x: a(x) - b(x)))(node, rhs)
        return node

    def term():
        node = unary()
        while peek() in ("*", "/"):
            op = take()
            rhs = unary()
            node = (lambda a, b: (lambda x: a(x) * b(x)))(node, rhs) if op == "*" \
                else (lambda a, b: (lambda x: a(x) / b(x)))(node, rhs)
        return node

    def unary():
        if peek() == "-":
            take()
            inner = unary()
            return lambda x: -inner(x)
        return atom()

    def atom():
        tok = take()
        if tok == "(":
            node = expr()
            if take() != ")":
                raise ValueError("missing closing parenthesis")
            return node
        if isinstance(tok, tuple) and tok[0] == "num":
            val = tok[1]
            return lambda x: np.full_like(np.asarray(x, dtype=float), val)
        if isinstance(tok, tuple) and tok[0] == "name":
            name = tok[1]
            if name == "pi":
                return lambda x: np.full_like(np.asarray(x, dtype=float), math.pi)
            if name == "sin":
                if take() != "(":
                    raise ValueError("sin expects parentheses")
                inner = expr()
                if take() != ")":
                    raise ValueError("missing closing parenthesis")
                return lambda x: np.sin(inner(x))
            if name == var:
                return lambda x: np.asarray(x, dtype=float)
            raise ValueError(f"unknown name {name!r} (variable is {var!r})")
        raise ValueError(f"unexpected token {tok!r}")

    try:
        fn = expr()
    except IndexError:
        raise ValueError("unexpected end of expression") from None
    if pos != len(tokens):
        raise ValueError("trailing tokens")
    return SymFn(text=text, var=var, _fn=fn)




class TestParsing:
    def test_polynomial(self):
        f = parse_symfn("2*t + 1")
        assert f(0.0) == 1.0
        assert f(3.0) == 7.0

    def test_precedence_and_parens(self):
        assert parse_symfn("1 + 2*3")(0.0) == 7.0
        assert parse_symfn("(1 + 2)*3")(0.0) == 9.0
        assert parse_symfn("2 - 1 - 1")(0.0) == 0.0  # left associative
        assert parse_symfn("8 / 4 / 2")(0.0) == 1.0

    def test_unary_minus(self):
        assert parse_symfn("-t")(2.5) == -2.5
        assert parse_symfn("--t")(2.5) == 2.5
        assert parse_symfn("3 * -t")(1.0) == -3.0

    def test_pi_and_sin(self):
        f = parse_symfn("sin(pi*t/2)")
        assert f(1.0) == pytest.approx(1.0, abs=1e-15)
        assert f(0.0) == 0.0
        assert f(1.0 / 3.0) == pytest.approx(0.5, abs=1e-15)

    def test_scientific_notation(self):
        assert parse_symfn("1e-3 + t")(0.0) == 1e-3
        assert parse_symfn("2.5E2")(0.0) == 250.0

    def test_custom_variable_name(self):
        f = parse_symfn("k*k", var="k")
        assert f(4.0) == 16.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown name"):
            parse_symfn("x + 1")

    def test_malformed_inputs_rejected(self):
        for bad in ("1 +", "(t", "sin t", "t )", "1 2", "@"):
            with pytest.raises(ValueError):
                parse_symfn(bad)


class TestEvaluation:
    def test_scalar_in_scalar_out(self):
        f = parse_symfn("t*t")
        out = f(3.0)
        assert isinstance(out, float) and out == 9.0

    def test_array_in_array_out(self):
        f = parse_symfn("t*t")
        xs = np.array([1.0, 2.0, 3.0])
        out = f(xs)
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, [1.0, 4.0, 9.0])

    def test_constant_broadcasts_to_input_shape(self):
        f = parse_symfn("2")
        out = f(np.zeros(5))
        assert out.shape == (5,)
        assert np.all(out == 2.0)

    def test_division_by_zero_is_signed_infinity(self):
        f = parse_symfn("1/t")
        assert f(0.0) == math.inf
        assert f(-0.0) == -math.inf
        assert f(2.0) == 0.5

    def test_oscillatory_boundary_function(self):
        f = parse_symfn("sin(1/t)")
        ks = np.arange(1, 6, dtype=float)
        assert np.allclose(f(1.0 / (ks * math.pi)), np.sin(ks * math.pi), atol=1e-12)

    def test_repr_carries_source_text(self):
        assert repr(parse_symfn("2*t")) == "SymFn('2*t')"

    def test_frozen(self):
        f = parse_symfn("t")
        with pytest.raises(AttributeError):
            f.text = "other"

    def test_is_symfn_instance(self):
        assert isinstance(parse_symfn("t"), SymFn)


_POINTS = np.array([0.0, -0.0, 1e-9, 1.0, -2.5, 3.0, 1e300])


def _values(parse, text, var="t"):
    """The bytes of `parse(text, var)` at `_POINTS`, or None for a `ValueError`."""
    try:
        f = parse(text, var)
    except ValueError:
        return None
    return f(_POINTS).tobytes()


_NUMBERS = (st.sampled_from(["0", "00", "007", "0.5", ".5", "5.", "1e-3", "2.5E+2", "1e400"])
            | st.floats(min_value=0, max_value=1e300).map(repr))
_SPACES = st.sampled_from(["", " ", "  ", "\t", "\n", "\xa0"])


def _extend(children):
    return st.one_of(
        st.tuples(children, _SPACES, st.sampled_from("+-*/"), children).map(lambda p: "".join(p)),
        children.map(lambda c: f"-{c}"),
        children.map(lambda c: f"({c})"),
        st.tuples(_SPACES, children).map(lambda p: f"sin{p[0]}({p[1]})"),
    )


_TREES = st.recursive(_NUMBERS | st.sampled_from(["t", "pi"]), _extend, max_leaves=12)
# The lexer's alphabet, the characters and forms Python reads differently
# (`,` `%` `**` `_` `0x` `j`, newlines, tabs, NBSP, leading zeros), Python
# keywords and names NFKC folds to a grammar name (fullwidth `ｔ`, `ｓｉｎ`).
_PIECES = ["0", "1", "7", "00", "01", ".", "e", "E", "+", "-", "*", "**", "/", "(", ")",
           "t", "k", "pi", "sin", "x", "é", "ｔ", "ｓｉｎ", "_", "1_0", "0x", "j", "True",
           "if", "else", " ", "\n", "\t", "\xa0", "　", ",", "%", "#", "'"]


class TestMatchesTheOldParser:
    """The same accept or `ValueError`, and the same value bytes, as the old parser."""

    @settings(max_examples=400, deadline=None)
    @given(_TREES)
    def test_grammar_trees(self, text):
        new = _values(parse_symfn, text)
        assert new is not None
        assert new == _values(_old_parse_symfn, text)

    @settings(max_examples=600, deadline=None)
    @given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
           st.sampled_from(["t", "k"]))
    @example("(sin)(t)", "t")
    @example("sin(*t)", "t")
    @example("sin(**t)", "t")
    @example("t(t)", "t")
    @example("1_0", "t")
    @example("0x1", "t")
    @example("1j", "t")
    @example("...", "t")
    @example("01 + 007", "t")
    @example("1if 1else 2", "t")
    @example("t # comment", "t")
    @example("\xa0t\n*\t2 ", "t")
    @example("ｓｉｎ(ｔ)", "t")
    @example("2*ｔ + 1", "t")
    @example("sin + 1", "sin")
    @example("pi*2", "pi")
    def test_token_strings(self, text, var):
        assert _values(parse_symfn, text, var) == _values(_old_parse_symfn, text, var)

    def test_screen_refuses_what_the_old_lexer_refused(self):
        # every code point the old lexer read (space, alphanumeric, an operator,
        # `.` or `_`) passes the character screen, and no other does
        for ch in map(chr, range(sys.maxunicode + 1)):
            read = ch.isspace() or ch.isalnum() or ch in "+-*/()._"
            assert (symfn._OUTSIDE.search(ch) is None) == read, hex(ord(ch))

    def test_non_ascii_digits_refused(self):
        # the old lexer read digits by `str.isdigit`; Python reads only ASCII ones
        for text in ("٣", "t*١٢", "１"):
            assert _old_parse_symfn(text) is not None
            with pytest.raises(ValueError):
                parse_symfn(text)

    def test_integer_past_pythons_digit_limit(self):
        # Python refuses an integer literal past `sys.get_int_max_str_digits()`
        # (4300 by default); the old lexer read it as `inf`.
        text = "9" * 5000
        assert _old_parse_symfn(text)(0.0) == math.inf
        if getattr(sys, "get_int_max_str_digits", lambda: 0)():
            with pytest.raises(ValueError, match="Exceeds the limit"):
                parse_symfn(text)
        else:
            assert parse_symfn(text)(0.0) == math.inf


class TestNesting:
    def test_two_hundred_parentheses_read(self):
        assert parse_symfn("(" * 200 + "t" + ")" * 200)(2.0) == 2.0
        assert parse_symfn("sin(" * 200 + "t" + ")" * 200)(0.0) == 0.0

    def test_deeper_parentheses_refused(self):
        for text in ("(" * 201 + "t" + ")" * 201, "(" * 400 + "t" + ")" * 400):
            with pytest.raises(ValueError, match="too many nested parentheses"):
                parse_symfn(text)

    @pytest.mark.parametrize("text", ["-" * 2000 + "t", "-" * 10_000 + "t",
                                      "+".join(["t"] * 10_000)],
                             ids=["unary-2000", "unary-10000", "sum-10000"])
    def test_long_operator_chains_refused(self, text):
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_symfn(text)

    def test_refused_input_leaves_no_warning(self, recwarn):
        with pytest.raises(ValueError):
            parse_symfn("1if 1else 2")
        assert not recwarn.list


class TestCache:
    def test_a_repeat_returns_the_same_object(self):
        f = parse_symfn("2*t + sin(1/t)", "t")
        assert parse_symfn("2*t + sin(1/t)", "t") is f
        g = parse_symfn("2*x + sin(1/x)", "x")
        assert g is not f and g.var == "x"
        assert parse_symfn.cache_info().maxsize == symfn.PARSE_CACHE_SIZE
        x = np.linspace(0.1, 1.0, 7)
        assert f(x).tobytes() == parse_symfn.__wrapped__("2*t + sin(1/t)", "t")(x).tobytes()

    @pytest.mark.parametrize("text, message", [("2 *% t", "unexpected character '%'"),
                                               ("sin(u)", "unknown name 'u'"),
                                               ("(t", "cannot read expression")])
    def test_a_refused_text_raises_every_time(self, text, message):
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                parse_symfn(text, "t")
