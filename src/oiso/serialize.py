"""JSON schemas, value coercion, and canonical report emission.

All documents carry `"schema": "oiso/1"`. Exact mode accepts integers and
"p/q" strings and refuses bare floats, so precision is never silently
downgraded; float mode accepts any real number and also "p/q" strings. A
zero denominator, and a number too large for a double in float mode, are
input errors (`ValueError`), not arithmetic ones.

A document is decoded from its file's bytes once, to the value the stdlib
`json` decoder gives for their UTF-8 text, with its messages. orjson, when
it can be imported, decodes it about three times faster, and a screen sends
to the stdlib decoder every document on which orjson might read something
else:
- a refusal: orjson refuses NaN, Infinity, numbers past the double range
  (1e400), lone surrogates, a BOM and invalid UTF-8, which the stdlib reads,
  or refuses with its own message, so a document orjson refuses is decoded
  again;
- a run of 19 or more ASCII digits that does not follow ".", "e" or "E"
  (one `bytes.translate`, one search for 19 digit marks and, only when they
  are there, one for them after another byte): orjson reads an integer outside
  [-2**63, 2**64) as a float, and every integer of 18 digits or fewer lies
  inside. Fraction digits are read exactly, so they do not count;
- nesting 600 deep or more, read from the brackets outside strings (only
  when the text has that many opening brackets at all): orjson reads any
  depth, while the stdlib decoder runs out of recursion near 1000 levels
  less the caller's stack, which `load_json` reports as a `ValueError`.
Reports therefore do not depend on whether orjson is installed.

One more screen reads the bytes for the matrices: a JSON bool comes only
from the token `true` or `false`, whichever decoder ran, so a document whose
bytes hold neither token has no bool in it. Most documents hold no "u" or "f"
byte at all, which two single-byte searches show; only the others are
searched for the two tokens. `load_json` returns such a document as a private
`dict` subclass, and `parse_operator` and `parse_family` read its float
matrices, and those of the families inside it, without a per-entry type
check.

A matrix is converted as a whole, by `_read_matrix` alone. In float mode
each row is packed by one `struct` call, in C, straight into the float64
array, allocated once, when no bool can be among its entries: its document
is one `load_json` found free of booleans (above), in which case no entry is
looked at in Python, or a check of each entry's Python type finds only ints
and floats. A row of m doubles is packed by the format `f"{m}d"`, which
`struct` compiles once and caches. Its "d" code converts an int or a float
as `float(x)` does and refuses anything else: a string, None or a nested
list, a row of another length, or an integer past the double range. The
packed matrix is taken when it is finite. Any other matrix, and any pack
that is refused or not taken, is read entry by entry through
`coerce_number`, to the same values or to the message naming its first bad
entry.

In exact mode a matrix is read through the table of its distinct entries,
one `dict.fromkeys` over the rows: each is parsed once, to a numerator and a
denominator (a plain "p" or "p/q" string is split into two integers rather
than run through `Fraction`'s string parser). Only the table's keys have
their types checked, unless a key is not a string: 1, 1.0 and True are one
key, so then every entry's type is. A weighted permutation, the input of
every accepted point-basis run, is found from the zero keys in O(n) Python
steps, each a C pass over a row; its rows are built from each row's one
nonzero, and its pattern goes to the `linalg.ExactMatrix` as its
weighted-permutation read, so the n^2 integers are never scanned again. Any
other matrix has each row as the table's integers taken at its entries, over
the least common denominator of the row's own entries, as `linalg` puts a
row of rationals over one denominator. No `Fraction` is built but a weighted
permutation's n weights. An exact matrix holding any value but an integer or
a string (or one that is not hashable) is refused, and read entry by entry
only to name its first bad entry.

A report is written once, by a single writer (`canonical_json`) that goes
straight from result values to canonical text: sorted keys, two-space
indentation, one value per line, the same text `json.dumps(..., sort_keys=True,
indent=2, ensure_ascii=False)` gives for the converted values. Fractions are
"p/q" strings, numpy scalars and arrays their Python values, tuples lists,
and infinities the strings "inf"/"-inf" (extended coordinates); nan and
unknown types are refused. A scalar is written by the first class along its
type's `__mro__` that has a text, so a subclass (an `IntEnum` member, a str
subclass) is written as its base, and one lookup serves them all. A list of plain strings, integers or finite floats
is one join. The CLI adds the digest line, the sha256 of the payload's
canonical text, to that same text (`with_digest`), so the payload is encoded
once. A report holds nothing run-dependent (timing goes to stderr), so
identical inputs, seed, and mode produce byte-identical report files.
"""
from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import re
import struct
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

import numpy as np

try:
    import orjson
except ImportError:  # the stdlib decoder reads every document alone
    orjson = None

from . import linalg
from .compactify import SampledSpace, SequenceSpec, WeightedCompositionSpec
from .cones import OperatorModel
from .spaces import FunctionFamily, PointSpace

__all__ = [
    "SCHEMA",
    "coerce_number",
    "parse_space",
    "parse_family",
    "parse_operator",
    "parse_compactify_spec",
    "load_json",
    "canonical_json",
    "report_digest",
    "report_payload",
    "with_digest",
    "build_report",
    "file_digest",
]

SCHEMA = "oiso/1"


# byte -> b"0" for an ASCII digit, b"." for ".", "e" and "E", b" " for any other
_NUMBER_MARKS = bytes(48 if 48 <= b <= 57 else 46 if b in b".eE" else 32 for b in range(256))
_LONG_RUN = b"0" * 19  # 10**18 < 2**63: an integer of 18 digits is exact in orjson
# every byte but the quote and the four brackets, deleted for the nesting screen
_NOT_STRUCTURE = bytes(b for b in range(256) if b not in b'"[]{}')
_ORJSON_MAX_DEPTH = 600


def _long_integer(data: bytes) -> bool:
    """Might the text hold an integer literal of 19 or more digits? An
    integer starts the text or follows a byte other than a digit, ".", "e"
    or "E"; a run of digits in a string or an exponent may also answer yes,
    one after a decimal point does not."""
    marks = data.translate(_NUMBER_MARKS)
    # the needle of zeros alone is searched fast, with a skip on each other byte
    return _LONG_RUN in marks and (marks.startswith(_LONG_RUN) or b" " + _LONG_RUN in marks)


def _nesting_depth(data: bytes) -> int:
    """The deepest nesting of arrays and objects in a valid JSON text. Its
    escaped backslashes and quotes go first, so every quote left delimits a
    string, and the brackets inside strings are dropped with them."""
    if b"\\" in data:
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    structure = "".join(data.translate(None, _NOT_STRUCTURE).decode("ascii").split('"')[::2])
    return max(itertools.accumulate(1 if c in "[{" else -1 for c in structure), default=0)


def _decode(data: bytes):
    """The JSON value of a document's bytes, exactly as the stdlib decoder
    reads their UTF-8 text; orjson decodes it when it is importable and the
    screen lets it (see the module docstring)."""
    if orjson is not None and not _long_integer(data):
        try:
            doc = orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
        else:
            # the count of opening brackets (those in strings included) bounds
            # the depth, and scanning is needed only past it
            if (data.count(b"[") + data.count(b"{") < _ORJSON_MAX_DEPTH
                    or _nesting_depth(data) < _ORJSON_MAX_DEPTH):
                return doc
    return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())


def _bool_free(data: bytes) -> bool:
    """Do a document's bytes hold neither the token `true` nor `false`? Each
    holds a "u" or an "f", so a document with neither byte passes on two
    single-byte searches, without the two multi-byte ones."""
    return ((b"u" not in data and b"f" not in data)
            or (b"true" not in data and b"false" not in data))


class _BoolFree(dict):
    """A document `load_json` decoded from bytes with no `true` or `false`
    token: no value in it as decoded, at any depth, is a bool."""
    __slots__ = ()


def load_json(path: str, with_digest: bool = False):
    """The JSON object in the file at `path`; with `with_digest`, the pair
    (object, sha256 of the file's bytes), both from one read. The bytes are
    decoded as `open(path, encoding="utf-8")` decodes them, so a UTF-8 BOM
    stays in the text and the JSON decoder refuses it. A document nested
    deeper than the decoder can recurse is a `ValueError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = _decode(data)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to decode") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top-level JSON must be an object")
    schema = doc.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise ValueError(f"{path}: unsupported schema {schema!r} (expected {SCHEMA!r})")
    if _bool_free(data):
        doc = _BoolFree(doc)
    return (doc, hashlib.sha256(data).hexdigest()) if with_digest else doc


def coerce_number(x, exact: bool):
    """One JSON scalar to the requested arithmetic.

    Exact mode: integers and "p/q" strings only; floats are refused rather
    than rounded. Float mode: any finite real, plus "p/q" strings.
    """
    if isinstance(x, bool):
        raise ValueError("booleans are not numeric entries")
    if exact:
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return _fraction(x)
        if isinstance(x, float):
            raise ValueError(
                f"exact mode refuses the float {x!r}; write an integer or a 'p/q' string")
        raise ValueError(f"not a rational entry: {x!r}")
    if isinstance(x, (int, float)):
        v = x
    elif isinstance(x, str):
        v = _fraction(x)
    else:
        raise ValueError(f"not a numeric entry: {x!r}")
    try:
        v = float(v)
    except OverflowError:  # an integer or a rational too large for a double
        v = math.inf
    if not math.isfinite(v):
        raise ValueError(f"entries must be finite, got {x!r}")
    return v


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# "p" or "p/q" in ASCII digits, with an optional "-": split into two integers.
# Every other string ("+2", " 3/4 ", "1.5", "1e3", "1_000", other digits) still
# goes through Fraction(str), so the same strings are read, to the same values.
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _exact_pair(x):
    """coerce_number(x, exact=True) as (numerator, denominator) in lowest
    terms, without a Fraction for an int or a plain "p/q" string."""
    if type(x) is int:
        return x, 1
    if type(x) is str:
        m = _PLAIN_RATIONAL.fullmatch(x)
        if m is not None:
            p, q = m.groups()
            p, q = int(p), 1 if q is None else int(q)
            if q:
                g = gcd(p, q)
                return p // g, q // g
    f = coerce_number(x, True)
    return f.numerator, f.denominator


def _numbers_only(rows) -> bool:
    """Is every entry of the rows an int or a float? bool is its own type,
    so no True reaches the row pack from rows that pass."""
    return set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}


def _read_matrix(rows, exact: bool, bool_free: bool = False):
    """The matrix of a document's rows: a float array, or in exact mode a
    `linalg.ExactMatrix` (`_read_exact`). `bool_free` says the rows come
    from a `_BoolFree` document.

    A float matrix is packed row by row (`struct.pack_into`) into its
    array when its document is bool-free or `_numbers_only` holds, so no bool
    reaches the pack, which would read True as 1.0; the pack converts each
    entry as `float(x)`, so a finite result is the matrix. A refused pack (a
    ragged row, an entry that is not an int or a float, an integer with no
    double) or a non-finite entry is read entry by entry, to the same values
    or the message naming the first bad entry."""
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValueError("matrix must be a non-empty list of rows")
    if exact:
        return _read_exact(rows)
    if bool_free or _numbers_only(rows):
        n, m = len(rows), len(rows[0])
        data = np.empty((n, m))
        row_format = f"{m}d"  # struct's own cache keeps its Struct, so no row rebuilds it
        try:
            for at, r in zip(itertools.count(0, 8 * m), rows):
                struct.pack_into(row_format, data, at, *r)
        except (struct.error, OverflowError):  # a ragged row, a non-number, no double
            pass
        else:
            if np.isfinite(data).all():
                return data
    values = [coerce_number(v, False) for v in itertools.chain.from_iterable(rows)]
    return np.array(values, dtype=float).reshape(_shape(rows))


def _shape(rows) -> tuple:
    if len(set(map(len, rows))) != 1:
        raise ValueError("matrix rows must have equal length")
    return len(rows), len(rows[0])


def _read_exact(rows) -> linalg.ExactMatrix:
    """An exact matrix, read through the table of its distinct entries (one
    `dict.fromkeys`): each is parsed once, to a numerator and a denominator
    in lowest terms, in row-major order of first appearance, so the first
    refused one is the first refused entry. Only the keys' types are
    checked, unless one is not a str: 1, 1.0 and True are one key, so then
    every entry's is. A matrix with an unhashable entry or a key of another
    type has a refused entry, which the per-entry reading names.

    A square matrix is a weighted permutation when each row holds n - 1
    entries equal to a zero key (a `list.count` per zero key, or one set
    lookup per entry when zero is written four or more ways, so the count
    stays one pass over the row) and its one nonzero entry
    (one `filter`, `list.index`) lies in a column of its own: O(n) Python
    steps, each a C pass over at most a row. Its rows are then a list of
    zeros with each row's numerator put at its column, grouped into tuples
    in C, each row over its entry's denominator, and its columns go to the
    value as its weighted-permutation read, so nothing scans the integers
    again. Every other row is its entries' numerators, scaled to the least
    common denominator of the row's entries (1, with no look at the rows,
    when every entry is an integer), looked up in C, so a row's integers
    grow with its own denominators only. No Fraction is built but the
    read's n weights."""
    entries = itertools.chain.from_iterable
    try:
        index = dict.fromkeys(entries(rows))
    except TypeError:  # an unhashable entry
        index = None
    else:
        kinds = set(map(type, index))
        if kinds - {str}:
            kinds = set(map(type, entries(rows)))
    if index is None or not all(t is not bool and issubclass(t, (int, str)) for t in kinds):
        for x in entries(rows):
            coerce_number(x, True)  # raises at the first refused entry
    pairs = list(map(_exact_pair, index))
    m, n = _shape(rows)
    nums = dict(zip(index, [p for p, _ in pairs]))
    dens = dict(zip(index, [q for _, q in pairs]))
    if m == n:  # a weighted permutation: n - 1 zeros in each row, nonzeros in distinct columns
        zero = list(itertools.filterfalse(nums.__getitem__, index))
        # one C pass per zero key, as long as zero is written a few ways only
        zeros_in = ((lambda r: sum(map(r.count, zero))) if len(zero) < 4 else
                    (lambda r, z=frozenset(zero): sum(map(z.__contains__, r))))
        if all(zeros_in(r) == n - 1 for r in rows):
            weights = [next(filter(nums.__getitem__, r)) for r in rows]
            cols = list(map(list.index, rows, weights))
            if len(set(cols)) == n:
                flat = [0] * (n * n)
                for i, c, w in zip(range(0, n * n, n), cols, weights):
                    flat[i + c] = nums[w]
                return linalg.ExactMatrix(tuple(zip(*[iter(flat)] * n)),
                                          tuple(map(dens.__getitem__, weights)), n, read=cols)
    integers = all(q == 1 for _, q in pairs)  # then every row is over 1
    int_rows, row_dens = [], []
    for r in rows:  # over the least common denominator of the row's distinct entries
        keys = () if integers else set(r)
        d = lcm(*map(dens.__getitem__, keys)) if keys else 1
        scaled = nums if d == 1 else {k: nums[k] * (d // dens[k]) for k in keys}
        int_rows.append(tuple(map(scaled.__getitem__, r)))
        row_dens.append(d)
    return linalg.ExactMatrix(tuple(int_rows), tuple(row_dens), n, read=None)


def _real(x, what: str) -> float:
    """float(x) for a document value other than a matrix entry, with an
    integer too large for a double an input error."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what} must be finite, got an integer too large for a float") from None


def parse_space(doc, bool_free: bool = False) -> PointSpace:
    """A space document: a list of labels, or {"labels": [...], "metric": [[...]]}.
    `bool_free` says the document lies inside a `_BoolFree` one."""
    if isinstance(doc, list):
        return PointSpace(tuple(str(x) for x in doc))
    if isinstance(doc, dict):
        labels = doc.get("labels")
        if labels is None:
            raise ValueError("space document needs 'labels'")
        metric = doc.get("metric")
        if metric is not None:
            try:  # the float matrix rule: no booleans, no non-finite entries
                metric = _read_matrix(metric, False, bool_free)
            except ValueError as e:
                raise ValueError(f"metric {e}") from None
        return PointSpace(tuple(str(x) for x in labels), metric=metric)
    raise ValueError("space document must be a list of labels or an object")


def _family_parts(doc, exact: bool, bool_free: bool):
    """(space, generators, names) of a family document, read in
    `parse_family`'s order; generators and names are None for a full
    family. `bool_free` says the document is, or lies inside, a `_BoolFree`
    one."""
    if isinstance(doc, list):
        return parse_space(doc), None, None
    if not isinstance(doc, dict):
        raise ValueError("family document must be a list of labels or an object")
    if "space" not in doc and "labels" in doc:
        return parse_space(doc, bool_free), None, None
    space = parse_space(doc["space"], bool_free)
    gens = doc.get("generators")
    if gens is None:
        return space, None, None
    matrix = _read_matrix(gens, exact, bool_free)
    names = doc.get("names")
    if names is not None:
        names = tuple(str(x) for x in names)
    return space, matrix, names


def _family(space, matrix, names, exact: bool) -> FunctionFamily:
    if matrix is None:
        return FunctionFamily.full(space, exact=exact)
    return FunctionFamily(space, matrix, names=names)


def parse_family(doc, exact: bool = False) -> FunctionFamily:
    """A family document: a space document (full family), or
    {"space": ..., "generators": [[...]], "names": [...]}. An exact
    family holds the `linalg.ExactMatrix` its parse builds."""
    return _family(*_family_parts(doc, exact, isinstance(doc, _BoolFree)), exact)


def parse_operator(doc: dict, mode: str = "float") -> OperatorModel:
    """An operator document:

    {"schema": "oiso/1", "matrix": [[...]], "basis": "point"|"generator",
     "domain": <family doc, optional>, "codomain": <family doc, optional>}

    Missing families default to full families sized by the matrix. A
    square exact codomain of an exact generator-basis operator from a full
    domain, whose generators pass every other check of the family
    constructor, is built with its rank stated on its value
    (`linalg.ExactMatrix.with_rank`), not eliminated: the operator's point
    matrix proves it, with the constructor's error (`OperatorModel`),
    monomial or not.
    """
    if mode not in ("float", "exact"):
        raise ValueError("mode must be 'float' or 'exact'")
    exact = mode == "exact"
    if "matrix" not in doc:
        raise ValueError("operator document needs 'matrix'")
    bool_free = isinstance(doc, _BoolFree)
    matrix = _read_matrix(doc["matrix"], exact, bool_free)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("operator matrix must be square")
    basis = doc.get("basis", "point")
    n = matrix.shape[0]
    if "domain" in doc:
        dom = _family(*_family_parts(doc["domain"], exact, bool_free), exact)
    else:
        dom = FunctionFamily.full(PointSpace.discrete(n, "x"), exact=exact)
    if "codomain" in doc:
        space, gens, names = _family_parts(doc["codomain"], exact, bool_free)
        if (exact and basis == "generator" and dom.is_full and gens is not None
                and gens.shape == (space.size, space.size) == (n, n) == (dom.rank, dom.rank)
                and (names is None or len(names) == n)):
            gens = gens.with_rank(n)
        cod = _family(space, gens, names, exact)
    else:
        cod = FunctionFamily.full(PointSpace.discrete(n, "y"), exact=exact)
    return OperatorModel(linalg.frozen(matrix), domain=dom, codomain=cod, basis=basis)


def _parse_sampled_space(doc: dict, default_name: str) -> SampledSpace:
    if not isinstance(doc, dict):
        raise ValueError("sampled-space document must be an object")
    samples = doc.get("samples")
    gens = doc.get("generators")
    if samples is None or gens is None:
        raise ValueError("sampled-space document needs 'samples' and 'generators'")
    domain = doc.get("interval")
    if domain is not None:
        if len(domain) != 4:
            raise ValueError("'interval' is [lo, hi, lo_open, hi_open]")
        domain = (_real(domain[0], "'interval' ends"), _real(domain[1], "'interval' ends"),
                  bool(domain[2]), bool(domain[3]))
    return SampledSpace(tuple(_real(s, "samples") for s in samples),
                        tuple(str(g) for g in gens),
                        name=str(doc.get("name", default_name)), domain=domain)


def _parse_sequences(docs) -> list:
    out = []
    for i, d in enumerate(docs or []):
        if not isinstance(d, dict):
            raise ValueError("sequence document must be an object")
        name = str(d.get("name", f"seq{i}"))
        try:
            n = int(d.get("n", 10000))
        except OverflowError:  # JSON reads 1e400 as inf
            raise ValueError(f"sequence {name!r}: 'n' must be finite") from None
        if "rule" in d:
            out.append(SequenceSpec(name=name, n=n, rule=str(d["rule"])))
        elif "points" in d:
            out.append(SequenceSpec(name=name, n=min(n, len(d["points"])),
                                    points=tuple(_real(p, "sequence points")
                                                 for p in d["points"])))
        else:
            raise ValueError(f"sequence {name!r} needs 'rule' or 'points'")
    return out


def parse_compactify_spec(doc: dict):
    """A compactification document:

    {"schema": "oiso/1",
     "domain": {"samples": [...], "generators": ["t", ...], "name": "X"},
     "codomain": {... optional, defaults to the domain ...},
     "sequences": [...], "sequences_codomain": [... optional ...],
     "operator": {"pullback": "...", "weight": "..."}  (optional)}

    Returns (x_space, y_space, seqs_x, seqs_y, operator_or_None).
    """
    if "domain" not in doc:
        raise ValueError("compactification document needs 'domain'")
    x_space = _parse_sampled_space(doc["domain"], "X")
    y_space = (_parse_sampled_space(doc["codomain"], "Y")
               if "codomain" in doc else x_space)
    seqs_x = _parse_sequences(doc.get("sequences"))
    seqs_y = (_parse_sequences(doc.get("sequences_codomain"))
              if "sequences_codomain" in doc else seqs_x)
    op = None
    if "operator" in doc:
        od = doc["operator"]
        if "pullback" not in od or "weight" not in od:
            raise ValueError("operator document needs 'pullback' and 'weight'")
        op = WeightedCompositionSpec(str(od["pullback"]), str(od["weight"]))
    return x_space, y_space, seqs_x, seqs_y, op


_ESCAPE = json.encoder.encode_basestring  # the stdlib's C escaper when it has one
_NONFINITE = frozenset(("inf", "-inf", "nan"))


def _float_text(x) -> str:
    text = float.__repr__(x)
    if text in _NONFINITE:
        if text == "nan":
            raise ValueError("nan is not reportable")
        return f'"{text}"'
    return text


def _fraction_text(x: Fraction) -> str:
    return f'"{x.numerator}/{x.denominator}"' if x.denominator != 1 else f'"{x.numerator}"'


def _bool_text(x) -> str:
    return "true" if x else "false"


# the text of a scalar by the first of its type's classes (`__mro__`) listed
# here, so subclasses and numpy scalars find their Python base or numpy kind
_SCALAR_TEXT = {
    str: _ESCAPE,
    int: int.__repr__,
    float: _float_text,
    np.float64: _float_text,  # float-mode weights; float.__repr__ reads its double
    bool: _bool_text,
    type(None): lambda x: "null",
    Fraction: _fraction_text,
    np.bool_: _bool_text,
    np.integer: lambda x: int.__repr__(int(x)),
    np.floating: lambda x: _float_text(float(x)),
}


def _scalar_text(x) -> str:
    for kind in type(x).__mro__:
        text = _SCALAR_TEXT.get(kind)
        if text is not None:
            return text(x)
    raise TypeError(f"not JSON-serializable: {type(x).__name__}")


def _list_text(items, ind: str) -> str:
    if not items:
        return "[]"
    inner = ind + "  "
    kinds = set(map(type, items))
    texts = None
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind is float or kind is np.float64:
            texts = list(map(float.__repr__, items))
            if not _NONFINITE.isdisjoint(texts):
                texts = None
        elif kind in _SCALAR_TEXT:
            texts = map(_SCALAR_TEXT[kind], items)
    if texts is None:
        texts = [_text(v, inner) for v in items]
    return f"[\n{inner}" + f",\n{inner}".join(texts) + f"\n{ind}]"


def _dict_text(x: dict, ind: str) -> str:
    if not x:
        return "{}"
    inner = ind + "  "
    d = {str(k): v for k, v in x.items()}
    return (f"{{\n{inner}"
            + f",\n{inner}".join(f"{_ESCAPE(k)}: {_text(d[k], inner)}" for k in sorted(d))
            + f"\n{ind}}}")


def _text(x, ind: str) -> str:
    """The canonical text of `x`, on a line indented by `ind`."""
    scalar = _SCALAR_TEXT.get(type(x))
    if scalar is not None:
        return scalar(x)
    if isinstance(x, dict):
        return _dict_text(x, ind)
    if isinstance(x, (list, tuple)):
        return _list_text(x, ind)
    if isinstance(x, np.ndarray):
        return _list_text(x.tolist(), ind)
    return _scalar_text(x)


def canonical_json(obj) -> str:
    """The canonical text of a report value (see the module docstring)."""
    return _text(obj, "") + "\n"


def _sha256(text: str) -> str:
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as e:
        raise ValueError(f"a report cannot hold {e.object[e.start:e.end]!r}: "
                         "it has no UTF-8 encoding") from None
    return hashlib.sha256(data).hexdigest()


def report_digest(payload: dict) -> str:
    return _sha256(canonical_json(payload))


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def report_payload(command: str, result: dict, inputs: Optional[dict] = None,
                   settings: Optional[dict] = None) -> dict:
    """A report without its digest."""
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs or {},
        "settings": settings or {},
        "result": result,
    }


_REPORT_HEAD = '{\n  "command": '


def with_digest(payload_text: str) -> str:
    """The report text from its payload's canonical text: the payload with
    the digest line added where sorted keys put it, right after "command"
    (the payload's first key). Equal to `canonical_json(build_report(...))`
    for the same payload, without encoding it again."""
    if not payload_text.startswith(_REPORT_HEAD):
        raise ValueError("not the canonical text of a report payload")
    digest = _sha256(payload_text)
    cut = payload_text.index("\n", len(_REPORT_HEAD)) + 1
    return f'{payload_text[:cut]}  "digest": "{digest}",\n{payload_text[cut:]}'


def build_report(command: str, result: dict, inputs: Optional[dict] = None,
                 settings: Optional[dict] = None) -> dict:
    """Assemble the canonical report: payload plus its own digest."""
    payload = report_payload(command, result, inputs, settings)
    report = dict(payload)
    report["digest"] = report_digest(payload)
    return report
