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
  (one `bytes.translate` and one search): orjson reads an integer outside
  [-2**63, 2**64) as a float, and every integer of 18 digits or fewer lies
  inside. Fraction digits are read exactly, so they do not count;
- nesting 600 deep or more, read from the brackets outside strings (only
  when the text has that many opening brackets at all): orjson reads any
  depth, while the stdlib decoder runs out of recursion near 1000 levels
  less the caller's stack, which `load_json` reports as a `ValueError`.
Reports therefore do not depend on whether orjson is installed.

A matrix is converted as a whole. In float mode a matrix of JSON numbers
only is one `np.array(rows, dtype=float)` call and one finiteness check; a
matrix holding any other value is read entry by entry through
`coerce_number`, as is a refused one, so the message names its first bad
entry. In exact mode a matrix of integers and strings is read through the
table of its distinct entries: each is parsed once (a plain "p" or "p/q"
string is split into two integers rather than run through `Fraction`'s
string parser), every entry is mapped to its id in the table in C, and the
matrix and its zero pattern are the table, and its `!= 0`, taken at the
ids. The pattern goes with the matrix to `OperatorModel`, so the
weighted-permutation read is `np.nonzero` of a boolean array and asks no
`Fraction` for its truth. An exact matrix holding any other value is
refused, and read entry by entry only to name its first bad entry.

A report is written once, by a single writer (`canonical_json`) that goes
straight from result values to canonical text: sorted keys, two-space
indentation, one value per line, the same text `json.dumps(..., sort_keys=True,
indent=2, ensure_ascii=False)` gives for the converted values. Fractions are
"p/q" strings, numpy scalars and arrays their Python values, tuples lists,
and infinities the strings "inf"/"-inf" (extended coordinates); nan and
unknown types are refused. A list of plain strings, integers or finite floats
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
from fractions import Fraction
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
    return marks.startswith(_LONG_RUN) or (b" " + _LONG_RUN) in marks


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
            # the count of opening brackets bounds the depth, and scanning is
            # needed only past it
            structure = data.translate(None, _NOT_STRUCTURE)
            if (structure.count(b"[") + structure.count(b"{") < _ORJSON_MAX_DEPTH
                    or _nesting_depth(data) < _ORJSON_MAX_DEPTH):
                return doc
    return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())


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


def _exact_scalar(x) -> Fraction:
    """coerce_number(x, exact=True), without the string parser for plain "p/q"."""
    if type(x) is int:
        return Fraction(x)
    if type(x) is str:
        m = _PLAIN_RATIONAL.fullmatch(x)
        if m is not None:
            p, q = m.groups()
            q = 1 if q is None else int(q)
            if q:
                return Fraction(int(p), q)
    return coerce_number(x, True)


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


def _read_matrix(rows, exact: bool):
    """(matrix, nonzero): the matrix of a document's rows and, in exact mode,
    its nonzero pattern `matrix != 0` as a boolean array (None in float mode).

    An exact matrix is read through the table of its distinct entries: each
    is parsed once, in row-major order of first appearance, so the first
    refused one is the first refused entry; every entry is mapped to its id
    in the table in C, and the matrix and its pattern are the table and its
    `!= 0` taken at the ids. An exact matrix holding anything but integers
    and strings has a refused entry, which the per-entry reading names."""
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValueError("matrix must be a non-empty list of rows")
    if not exact:
        data = _float_matrix(rows)
        if data is not None:
            return data, None
    flat = list(itertools.chain.from_iterable(rows))
    # a bool or float key would merge with an equal integer, so those are not
    # read through the table
    if exact and all(t is not bool and issubclass(t, (int, str)) for t in set(map(type, flat))):
        index = dict.fromkeys(flat)
        table = np.fromiter(map(_exact_scalar, index), dtype=object, count=len(index))
    else:
        values = [coerce_number(v, exact) for v in flat]
    if len({len(r) for r in rows}) != 1:
        raise ValueError("matrix rows must have equal length")
    shape = len(rows), len(rows[0])
    if not exact:
        return np.array(values, dtype=float).reshape(shape), None
    index = dict(zip(index, range(len(index))))
    ids = np.fromiter(map(index.__getitem__, flat), dtype=np.intp, count=len(flat))
    ids = ids.reshape(shape)
    return table[ids], (table != 0)[ids]


def _coerce_matrix(rows, exact: bool) -> np.ndarray:
    """The matrix of `_read_matrix`, for a reader that needs no pattern."""
    return _read_matrix(rows, exact)[0]


def _real(x, what: str) -> float:
    """float(x) for a document value other than a matrix entry, with an
    integer too large for a double an input error."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what} must be finite, got an integer too large for a float") from None


def parse_space(doc) -> PointSpace:
    """A space document: a list of labels, or {"labels": [...], "metric": [[...]]}"""
    if isinstance(doc, list):
        return PointSpace(tuple(str(x) for x in doc))
    if isinstance(doc, dict):
        labels = doc.get("labels")
        if labels is None:
            raise ValueError("space document needs 'labels'")
        metric = doc.get("metric")
        if metric is not None:
            try:  # the float matrix rule: no booleans, no non-finite entries
                metric = _coerce_matrix(metric, exact=False)
            except ValueError as e:
                raise ValueError(f"metric {e}") from None
        return PointSpace(tuple(str(x) for x in labels), metric=metric)
    raise ValueError("space document must be a list of labels or an object")


def _family_parts(doc, exact: bool):
    """(space, generators, nonzero, names) of a family document, read in
    `parse_family`'s order; generators, their `_read_matrix` pattern and
    names are None for a full family."""
    if isinstance(doc, list):
        return parse_space(doc), None, None, None
    if not isinstance(doc, dict):
        raise ValueError("family document must be a list of labels or an object")
    if "space" not in doc and "labels" in doc:
        return parse_space(doc), None, None, None
    space = parse_space(doc["space"])
    gens = doc.get("generators")
    if gens is None:
        return space, None, None, None
    matrix, nonzero = _read_matrix(gens, exact)
    names = doc.get("names")
    if names is not None:
        names = tuple(str(x) for x in names)
    return space, matrix, nonzero, names


def _family(space, matrix, nonzero, names, exact: bool) -> FunctionFamily:
    if matrix is None:
        return FunctionFamily.full(space, exact=exact)
    return FunctionFamily(space, matrix, names=names, _nonzero=nonzero)


def parse_family(doc, exact: bool = False) -> FunctionFamily:
    """A family document: a space document (full family), or
    {"space": ..., "generators": [[...]], "names": [...]}. An exact
    family's monomial read takes the zero pattern its parse builds."""
    return _family(*_family_parts(doc, exact), exact)


def parse_operator(doc: dict, mode: str = "float") -> OperatorModel:
    """An operator document:

    {"schema": "oiso/1", "matrix": [[...]], "basis": "point"|"generator",
     "domain": <family doc, optional>, "codomain": <family doc, optional>}

    Missing families default to full families sized by the matrix. A
    square exact codomain of an exact generator-basis operator from a full
    domain, whose generators are not monomial and pass every other check of
    the family constructor, is built without its rank check
    (`FunctionFamily._unchecked`): the operator proves it, with the
    constructor's error (`OperatorModel`).
    """
    if mode not in ("float", "exact"):
        raise ValueError("mode must be 'float' or 'exact'")
    exact = mode == "exact"
    if "matrix" not in doc:
        raise ValueError("operator document needs 'matrix'")
    matrix, nonzero = _read_matrix(doc["matrix"], exact)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("operator matrix must be square")
    basis = doc.get("basis", "point")
    n = matrix.shape[0]
    if "domain" in doc:
        dom = parse_family(doc["domain"], exact=exact)
    else:
        dom = FunctionFamily.full(PointSpace.discrete(n, "x"), exact=exact)
    if "codomain" in doc:
        space, gens, gens_nonzero, names = _family_parts(doc["codomain"], exact)
        unchecked = (exact and basis == "generator" and dom.is_full and gens is not None
                     and gens.shape == (space.size, space.size) == (n, n) == (dom.rank, dom.rank)
                     and (names is None or len(names) == n)
                     and linalg.monomial(gens, gens_nonzero) is None)
        cod = (FunctionFamily._unchecked(space, gens, names) if unchecked
               else _family(space, gens, gens_nonzero, names, exact))
    else:
        cod = FunctionFamily.full(PointSpace.discrete(n, "y"), exact=exact)
    return OperatorModel(linalg.frozen(matrix), domain=dom, codomain=cod, basis=basis,
                         _nonzero=nonzero)


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


# the text of a value by its exact type; subclasses and other numpy scalars
# take the isinstance ladder in _scalar_text
_SCALAR_TEXT = {
    str: _ESCAPE,
    int: int.__repr__,
    float: _float_text,
    np.float64: _float_text,  # float-mode weights; float.__repr__ reads its double
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
    Fraction: _fraction_text,
}


def _scalar_text(x) -> str:
    if isinstance(x, Fraction):
        return _fraction_text(x)
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return int.__repr__(int(x))
    if isinstance(x, (float, np.floating)):
        return _float_text(float(x))
    if isinstance(x, str):
        return _ESCAPE(x)
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
