"""Traced replay: spans around the calls into each layer's public functions.

Tracing lives in the benchmark, not in the program. `Tracer.patch()` swaps
the names that `oiso.cli` (and the two API runners in `ops`) call for
wrappers that record a span, so a traced operation runs the very code path
of `cli.main`, in the handler's own order, and must print the same bytes.

Some public functions run another layer inside them (`parse_operator` builds
the families and the `OperatorModel`, `classify` runs its screens and
`decompose`, `decompose` runs `recover_map`, ...). After such a call returns,
the wrapper calls the inner function alone on the same input and records it
as a *probe* child span; a span's self time is its duration minus its
children's, which is how the outer layer's own share is estimated. `linalg`
has no boundary callable from outside, so its cost shows in the callers.
"""
from __future__ import annotations

import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from oiso import adequacy, cli, compactify, cones, exprs, fuzz, recovery, serialize
from oiso.classify import algebra_check, classify, isometry_reduce, lattice_check
from oiso.spaces import FunctionFamily

import ops


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: Optional[int]
    start: float
    end: float
    probe: bool
    error: Optional[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _FuzzModule:
    """Stands in for `oiso.fuzz` inside `oiso.cli` while tracing."""

    def __init__(self, tracer: "Tracer"):
        self.spawn_generators = tracer.wrap("fuzz.spawn_generators", fuzz.spawn_generators)
        self.random_monomial = tracer.wrap("fuzz.random_monomial", fuzz.random_monomial,
                                           _after_random_monomial)

    def __getattr__(self, name):
        return getattr(fuzz, name)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self.op_id = ""
        self.root: Optional[int] = None
        self._lock = threading.Lock()  # fuzz instances report from worker threads
        self._table = None

    def count(self, name: str, k: int = 1):
        with self._lock:
            self.counters[name] += k

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, probe: bool = False, parent: Optional[int] = None):
        sid = next(self._ids)
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self.root
        stack.append(sid)
        error = None
        start = time.perf_counter()
        try:
            yield sid
        except BaseException as e:
            error = type(e).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, self.op_id, parent, start, end, probe, error))

    def probe(self, parent: int, span_name: str, fn, *args, **kwargs):
        """Call an inner public function alone, as a probe child of `parent`."""
        try:
            with self.span(span_name, probe=True, parent=parent):
                return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - a probe only measures; its error is on the span
            return None

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            with self.span(name) as sid:
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, sid, result, args, kwargs)
            return result
        return traced

    @contextmanager
    def operation(self, op_id: str, kind: str):
        self.op_id = op_id
        with self.span(f"op.{kind}") as sid:
            self.root = sid
            try:
                yield
            finally:
                self.root = None

    @contextmanager
    def patch(self):
        """Route the CLI's and the API runners' calls through span wrappers."""
        if self._table is None:
            self._table = _patch_table(self)
        saved = []
        try:
            for module, name, replacement in self._table:
                if hasattr(module, name):
                    saved.append((module, name, getattr(module, name)))
                    setattr(module, name, replacement)
            yield
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)


# ----------------------------------------------------------- probes, counters

def _after_load_json(tr, sid, doc, args, kwargs):
    tr.count("serialize.bytes_in", os.path.getsize(args[0]))


def _probe_family(tr, sid, fam):
    tr.probe(sid, "spaces.family", FunctionFamily, fam.space, fam.generators, names=fam.names)


def _probe_operator(tr, sid, t):
    tr.probe(sid, "cones.operator", cones.OperatorModel, t.matrix, t.domain, t.codomain,
             basis=t.basis)


def _after_parse_operator(tr, sid, t, args, kwargs):
    _probe_family(tr, sid, t.domain)
    _probe_family(tr, sid, t.codomain)
    _probe_operator(tr, sid, t)


def _after_parse_family(tr, sid, fam, args, kwargs):
    _probe_family(tr, sid, fam)


def _after_certify(tr, sid, cert, args, kwargs):
    t = args[0]
    tol = kwargs.get("tol", 1e-9)
    tr.count("cones.accepted", bool(cert.accept))
    tr.count("cones.lp", cert.mode == "lp")
    if t.basis == "generator":
        for fam in (t.domain, t.codomain):
            rep = tr.probe(sid, "cones.cone_rep", cones.cone_rep, fam, tol=tol)
            if rep is not None and rep.extreme_rays is not None:
                tr.count("cones.rays", int(rep.extreme_rays.shape[0]))


def _after_decompose(tr, sid, d, args, kwargs):
    tr.probe(sid, "recovery.recover_map", recovery.recover_map, args[0],
             tol=kwargs.get("tol", 1e-9))


def _after_classify(tr, sid, rep, args, kwargs):
    t = args[0]
    kw = {k: kwargs[k] for k in ("samples", "seed", "tol") if k in kwargs}
    tr.probe(sid, "classify.isometry_reduce", isometry_reduce, t, **kw)
    tr.probe(sid, "classify.lattice_check", lattice_check, t, **kw)
    tr.probe(sid, "classify.algebra_check", algebra_check, t, **kw)
    if rep.certificate.accept:
        tr.probe(sid, "recovery.decompose", recovery.decompose, t, tol=kw.get("tol", 1e-9),
                 cert=rep.certificate)


def _after_limit_points(tr, sid, added, args, kwargs):
    tr.count("compactify.sequence_points", sum(s.n for s in args[0]))


def _after_compactified_decompose(tr, sid, bd, args, kwargs):
    op, x_space, y_space, seqs_x, seqs_y = args[:5]
    tr.count("compactify.sequence_points", sum(s.n for s in list(seqs_x) + list(seqs_y)))
    kw = {k: kwargs[k] for k in ("conv_tol", "dedupe_tol") if k in kwargs}
    for space, seqs in ((x_space, seqs_x), (y_space, seqs_y)):
        interior = tr.probe(sid, "compactify.embed", compactify.embed, space.samples,
                            space.generators, name=space.name)
        tr.probe(sid, "compactify.limit_points", compactify.limit_points, seqs,
                 space.generators, interior=interior or (), name=space.name, **kw)


def _after_canonical_json(tr, sid, text, args, kwargs):
    tr.count("serialize.bytes_out", len(text.encode("utf-8")))


def _after_random_monomial(tr, sid, result, args, kwargs):
    tr.count("fuzz.instances", 1)
    _probe_operator(tr, sid, result[0])


def _patch_table(tr: Tracer) -> list:
    w = tr.wrap
    shared = {
        "load_json": w("serialize.load_json", serialize.load_json, _after_load_json),
        "parse_operator": w("serialize.parse_operator", serialize.parse_operator,
                            _after_parse_operator),
        "parse_family": w("serialize.parse_family", serialize.parse_family, _after_parse_family),
        "is_order_isomorphism": w("cones.certify", cones.is_order_isomorphism, _after_certify),
        "canonical_json": w("serialize.canonical_json", serialize.canonical_json,
                            _after_canonical_json),
    }
    cli_only = {
        "parse_compactify_spec": w("serialize.parse_compactify_spec",
                                   serialize.parse_compactify_spec),
        "decompose": w("recovery.decompose", recovery.decompose, _after_decompose),
        "classify": w("classify.classify", classify, _after_classify),
        "check_adequate": w("adequacy.check_adequate", adequacy.check_adequate),
        "embed": w("compactify.embed", compactify.embed),
        "limit_points": w("compactify.limit_points", compactify.limit_points,
                          _after_limit_points),
        "compactified_decompose": w("compactify.compactified_decompose",
                                    compactify.compactified_decompose,
                                    _after_compactified_decompose),
        "parse_sexpr": w("exprs.parse_sexpr", exprs.parse_sexpr),
        "local_form": w("exprs.local_form", exprs.local_form),
        "decay_check": w("exprs.decay_check", exprs.decay_check),
        "separation_witness": w("exprs.separation_witness", exprs.separation_witness),
        "eval_expr": w("exprs.eval_expr", exprs.eval_expr),
        "to_sexpr": w("exprs.to_sexpr", exprs.to_sexpr),
        "build_report": w("serialize.build_report", serialize.build_report),
        "file_digest": w("serialize.file_digest", serialize.file_digest),
        "fuzz": _FuzzModule(tr),
    }
    ops_only = {
        "build_precise_bump": w("adequacy.build_precise_bump", adequacy.build_precise_bump),
    }
    table = [(cli, n, f) for n, f in dict(shared, **cli_only).items()]
    table += [(ops, n, f) for n, f in dict(shared, **ops_only).items()]
    return table


# ---------------------------------------------------------------- aggregation

def self_times(spans: list) -> dict:
    """Span id -> duration minus the durations of its children (probes included)."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return {s.id: max(0.0, s.seconds - child[s.id]) for s in spans}


def span_table(spans: list) -> dict:
    """Per span name: calls, busy seconds (self time), p50 per call, and how
    many calls raised (an expected rejection such as NotAnIsometryError counts)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    table = {}
    for name, group in sorted(by_name.items()):
        busy = [own[s.id] for s in group]
        table[name] = {"calls": len(group), "busy_s": float(sum(busy)),
                       "p50_ms": float(np.median(busy) * 1e3),
                       "raised": sum(1 for s in group if s.error)}
    return table

