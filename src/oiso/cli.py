"""Command-line front end: JSON in, canonical JSON report out.

Exit codes: 0 when the input is accepted or the property holds; 2 when it is
rejected, by a handler's own verdict or by an outcome exception listed in
REJECTED, with a report that carries the reason; 1 for usage and input errors,
with a message on stderr and no report. Each subcommand declares the inputs
and settings its report echoes, so `main` can report a rejection raised
mid-handler. Reports are canonical (sorted keys, fixed indentation, sha256
digest of the payload), written once by one writer, and contain nothing
run-dependent; elapsed time goes to stderr. A report that cannot be written
(text with no UTF-8 encoding, or a `--json-out` path that cannot be opened)
is an input error, and nothing goes to stdout: the `--json-out` file is
written first. A tolerance option (`--tol`, `--conv-tol`, `--dedupe-tol`)
must be a finite nonnegative number, checked when the arguments are parsed.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import __version__, fuzz
from .adequacy import check_adequate
from .classify import classify
from .compactify import (
    AmbiguousBoundaryError,
    NonconvergentNetError,
    compactified_decompose,
    embed,
    limit_points,
)
from .cones import is_order_isomorphism
from .exprs import (
    InconclusiveError,
    IntervalBox,
    decay_check,
    eval_expr,
    local_form,
    parse_sexpr,
    separation_witness,
    to_sexpr,
)
from .linalg import SingularMatrixError, frozen, monomial_matrix
from .recovery import AmbiguousIntersectionError, NotOrderIsomorphismError, decompose
from .serialize import (
    canonical_json,
    load_json,
    parse_compactify_spec,
    parse_family,
    parse_operator,
    report_payload,
    with_digest,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2


# Each outcome exception a handler may raise, and the result it reports
# with exit 2. Any other error is a usage or input error (exit 1).
REJECTED = {
    NotOrderIsomorphismError: lambda e: {
        "accepted": False, "reason": "not-order-isomorphism",
        "certificate": e.certificate.to_json_dict()},
    SingularMatrixError: lambda e: {
        "accepted": False, "reason": "singular", "detail": str(e)},
    AmbiguousIntersectionError: lambda e: {
        "accepted": False, "reason": "ambiguous-reading", "detail": str(e)},
    NonconvergentNetError: lambda e: {
        "accepted": False, "reason": "nonconvergent-net", "sequence": e.seq_name,
        "coordinate": e.generator, "tail_variation": e.variation, "detail": str(e)},
    AmbiguousBoundaryError: lambda e: {
        "accepted": False, "reason": "ambiguous-boundary", "detail": str(e)},
    InconclusiveError: lambda e: {
        "succeeded": False, "reason": "inconclusive", "detail": str(e)},
}


def _cmd_decompose(args, operator):
    t = parse_operator(operator, args.mode)
    cert = is_order_isomorphism(t, tol=args.tol)
    if not cert.accept:
        return {"accepted": False, "certificate": cert.to_json_dict()}, EXIT_REJECTED
    d = decompose(t, tol=args.tol, cert=cert)
    result = {
        "accepted": True,
        "sigma": list(d.sigma),
        "sigma_labels": [[t.codomain.space.labels[y], t.domain.space.labels[x]]
                         for y, x in enumerate(d.sigma)],
        "weight": list(d.weight),
        "residual": d.residual,
        "arithmetic": "rational" if d.exact else "float",
    }
    return result, EXIT_OK


def _cmd_classify(args, operator):
    rep = classify(parse_operator(operator, args.mode), tol=args.tol)
    return rep.to_json_dict(), EXIT_OK if rep.kind != "rejected" else EXIT_REJECTED


def _cmd_adequacy(args, family):
    rep = check_adequate(parse_family(family, exact=False), tol=args.tol)
    return rep.to_json_dict(), EXIT_OK if rep.adequate else EXIT_REJECTED


def _point_dict(p) -> dict:
    return {"label": p.label, "origin": p.origin, "coords": list(p.coords),
            "compact_coords": list(p.compact_coords)}


def _cmd_compactify(args, spec):
    x_space, y_space, seqs_x, seqs_y, op = parse_compactify_spec(spec)
    if op is None:
        result = {}
        for key, space, seqs in (("domain", x_space, seqs_x),
                                 ("codomain", y_space, seqs_y)):
            interior = embed(space.samples, space.generators, name=space.name)
            added = limit_points(seqs, space.generators, interior=interior,
                                 conv_tol=args.conv_tol, dedupe_tol=args.dedupe_tol,
                                 name=space.name, domain=space.domain)
            result[key] = {"interior": [_point_dict(p) for p in interior],
                           "added": [_point_dict(p) for p in added]}
            if y_space is x_space:
                break
        return result, EXIT_OK
    bd = compactified_decompose(op, x_space, y_space, seqs_x, seqs_y,
                                tol=args.tol, conv_tol=args.conv_tol,
                                dedupe_tol=args.dedupe_tol)
    result = {
        "accepted": True,
        "interior": {
            "sigma": list(bd.interior.sigma),
            "sigma_labels": [list(p) for p in bd.interior_labels],
            "weight": list(bd.interior.weight),
            "residual": bd.residual_interior,
        },
        "added": {
            "domain": [_point_dict(p) for p in bd.added_domain],
            "codomain": [_point_dict(p) for p in bd.added_codomain],
            "matching": [list(p) for p in bd.added_matching],
            "weights": list(bd.added_weights),
            "residual": bd.residual_added,
        },
        "bounded_screen": bd.bounded_screen,
    }
    return result, EXIT_OK


def _nonnegative(text: str, what: str) -> float:
    """An option's value: `float(text)`, refused unless finite and
    nonnegative (nan fails every comparison), with -0 read as 0."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not 0 <= value < np.inf:
        raise argparse.ArgumentTypeError(
            f"invalid {what} {text!r}: a finite nonnegative number is required")
    return value + 0.0


def _tolerance(text: str) -> float:
    return _nonnegative(text, "tolerance")


def _perturbation(text: str) -> float:
    return _nonnegative(text, "perturbation")


def _interval(text: str) -> list:
    """'lo,hi' -> [lo, hi], validated as an IntervalBox."""
    box = IntervalBox(*(float(part) for part in text.split(",")))
    return [box.lo, box.hi]


def _cmd_example_local_form(args):
    lf = local_form(parse_sexpr(args.expr), IntervalBox(*args.interval),
                    depth_cap=args.depth_cap, tol=args.tol)
    result = {"succeeded": True,
              "interval": [lf.interval.lo, lf.interval.hi],
              "expr": to_sexpr(lf.expr),
              "residual": lf.residual}
    return result, EXIT_OK


def _cmd_example_decay(args):
    passes = decay_check(parse_sexpr(args.expr), t_max=args.t_max, grid=args.grid)
    return {"passes": passes}, EXIT_OK if passes else EXIT_REJECTED


def _cmd_example_witness(args):
    expr = separation_witness(args.a, args.b)
    result = {"expr": to_sexpr(expr),
              "value_at_a": float(eval_expr(expr, args.a)),
              "value_at_b": float(eval_expr(expr, args.b))}
    if args.at is not None:
        result["value_at"] = [args.at, float(eval_expr(expr, args.at))]
    return result, EXIT_OK


def _fuzz_instance(rng, dim: int, mode: str, perturbation: float, tol: float) -> dict:
    exact = mode == "exact"
    t, sigma, weight = fuzz.random_monomial(rng, dim, exact=exact)
    if perturbation > 0.0:
        m = monomial_matrix(*t.monomial)  # a fresh writable matrix; t builds none
        extras = max(1, dim // 4)
        for _ in range(extras):
            y = int(rng.integers(dim))
            x = int(rng.integers(dim))
            if x == int(sigma[y]):
                x = (x + 1) % dim
            m[y, x] += float(rng.uniform(0.5, 1.0)) * perturbation
        t = type(t)(frozen(m), domain=t.domain, codomain=t.codomain, basis="point")
    cert = is_order_isomorphism(t, tol=tol)
    out = {"accepted": bool(cert.accept)}
    if not cert.accept:
        out["matched"] = False
        out["residual"] = 0.0
        return out
    d = decompose(t, tol=tol, cert=cert)
    if exact:
        matched = (tuple(int(s) for s in sigma) == d.sigma
                   and all(a == b for a, b in zip(weight, d.weight)))
    else:
        matched = (tuple(int(s) for s in sigma) == d.sigma
                   and bool(np.allclose(weight, d.weight_array(), rtol=1e-9, atol=1e-12)))
    out["matched"] = bool(matched)
    out["residual"] = float(d.residual)
    return out


def _cmd_fuzz(args):
    if args.dim < 1:
        raise ValueError("--dim must be at least 1")
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    if args.perturbation > 0 and args.mode == "exact":
        raise ValueError("perturbed fuzzing runs in float mode")
    if args.perturbation > 0 and args.dim < 2:
        raise ValueError("perturbed fuzzing needs dimension at least 2")
    results = [_fuzz_instance(rng, args.dim, args.mode, args.perturbation, args.tol)
               for rng in fuzz.spawn_generators(args.seed, args.count)]

    accepted = sum(1 for r in results if r["accepted"])
    matched = sum(1 for r in results if r["matched"])
    max_residual = max((r["residual"] for r in results), default=0.0)
    failures = []
    if args.perturbation > 0.0:
        # a perturbed instance must be rejected, or visibly non-monomial
        failures = [i for i, r in enumerate(results)
                    if r["accepted"] and r["residual"] <= args.tol]
    else:
        failures = [i for i, r in enumerate(results) if not r["matched"]]
    result = {
        "count": args.count,
        "dim": args.dim,
        "perturbation": args.perturbation,
        "accepted": accepted,
        "acceptance_rate": accepted / args.count,
        "match_rate": matched / args.count,
        "max_residual": max_residual,
        "failures": failures,
    }
    return result, EXIT_OK if not failures else EXIT_REJECTED


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The subcommands. Each declares its handler, the file arguments echoed
    by name and digest (`files`, whose documents the handler gets as keyword
    arguments of those names), the arguments echoed verbatim (`inputs`)
    and the options reported as settings (`settings`).

    Built once per process: parsing leaves the parser unchanged, and each
    `main` call would otherwise rebuild the same tree."""
    parser = argparse.ArgumentParser(
        prog="oiso",
        description="Certify and decompose order isomorphisms on finite function-space models.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, mode=True, seed=False):
        p.add_argument("--tol", type=_tolerance, default=1e-9,
                       help="numerical tolerance (default 1e-9)")
        p.add_argument("--json-out", metavar="PATH",
                       help="also write the report to this path")
        if mode:
            p.add_argument("--mode", choices=("float", "exact"), default="float",
                           help="arithmetic mode; exact refuses float entries")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    p = sub.add_parser("decompose",
                       help="certify an operator and recover its point map and weight")
    p.add_argument("operator", help="operator JSON file")
    add_common(p)
    p.set_defaults(func=_cmd_decompose, command_path="decompose",
                   files=("operator",), inputs=(), settings=("mode", "tol"))

    p = sub.add_parser("classify",
                       help="decide which classical isomorphism classes an operator lands in")
    p.add_argument("operator", help="operator JSON file")
    add_common(p)
    p.set_defaults(func=_cmd_classify, command_path="classify",
                   files=("operator",), inputs=(), settings=("mode", "tol"))

    p = sub.add_parser("adequacy",
                       help="check the four adequacy flags of a function family")
    p.add_argument("family", help="family JSON file")
    add_common(p, mode=False)
    p.set_defaults(func=_cmd_adequacy, command_path="adequacy",
                   files=("family",), inputs=(), settings=("tol",))

    p = sub.add_parser("compactify",
                       help="explore boundary points of sampled spaces, optionally through an operator")
    p.add_argument("spec", help="compactification JSON file")
    add_common(p, mode=False)
    p.add_argument("--conv-tol", type=_tolerance, default=1e-3,
                   help="tail-variation convergence screen (default 1e-3)")
    p.add_argument("--dedupe-tol", type=_tolerance, default=1e-6,
                   help="added-point deduplication tolerance (default 1e-6)")
    p.set_defaults(func=_cmd_compactify, command_path="compactify",
                   files=("spec",), inputs=(), settings=("tol", "conv_tol", "dedupe_tol"))

    p = sub.add_parser("example", help="symbolic example-space utilities")
    esub = p.add_subparsers(dest="example_command", required=True)

    q = esub.add_parser("local-form",
                        help="certify a clamp-free analytic form on a subinterval")
    q.add_argument("--expr", required=True, help="s-expression, e.g. '(clamp (lin (0 2) ((const 1) t)))'")
    q.add_argument("--interval", required=True, type=_interval, help="'lo,hi' within [0,1]")
    q.add_argument("--depth-cap", type=int, default=40,
                   help="bisection depth cap (default 40)")
    q.add_argument("--tol", type=_tolerance, default=1e-10,
                   help="pointwise verification tolerance (default 1e-10)")
    q.add_argument("--json-out", metavar="PATH")
    q.set_defaults(func=_cmd_example_local_form, command_path="example.local-form",
                   files=(), inputs=("expr", "interval"), settings=("depth_cap", "tol"))

    q = esub.add_parser("decay", help="grid check of quadratic decay for analytic expressions")
    q.add_argument("--expr", required=True, help="s-expression over (sinramp ...) nodes")
    q.add_argument("--t-max", type=float, default=1e6)
    q.add_argument("--grid", type=int, default=257)
    q.add_argument("--json-out", metavar="PATH")
    q.set_defaults(func=_cmd_example_decay, command_path="example.decay",
                   files=(), inputs=("expr",), settings=("t_max", "grid"))

    q = esub.add_parser("witness", help="clamped ramp separating two points of [0,1]")
    q.add_argument("--a", type=float, required=True)
    q.add_argument("--b", type=float, required=True)
    q.add_argument("--at", type=float, default=None, help="also evaluate at this point")
    q.add_argument("--json-out", metavar="PATH")
    q.set_defaults(func=_cmd_example_witness, command_path="example.witness",
                   files=(), inputs=("a", "b"), settings=())

    p = sub.add_parser("fuzz", help="seeded round-trip fuzzing of decompose")
    p.add_argument("--dim", type=int, required=True, help="point count per instance")
    p.add_argument("--count", type=int, required=True, help="instance count")
    p.add_argument("--perturbation", type=_perturbation, default=0.0,
                   help="off-pattern noise magnitude; should exceed --tol to be informative")
    add_common(p, seed=True)
    p.set_defaults(func=_cmd_fuzz, command_path="fuzz",
                   files=(), inputs=(), settings=("mode", "tol", "seed"))

    return parser


def _report(args) -> tuple:
    """The report text of a parsed command line and its exit code. Each
    input file is read once, for its document and its digest, and the
    handler gets the documents by name. The payload is encoded once; its
    digest is taken from that text."""
    docs, inputs = {}, {}
    for name in args.files:
        path = getattr(args, name)
        docs[name], sha = load_json(path, with_digest=True)
        inputs[name] = {"file": os.path.basename(path), "sha256": sha}
    inputs.update((name, getattr(args, name)) for name in args.inputs)
    settings = {name.replace("_", "-"): getattr(args, name) for name in args.settings}
    try:
        result, code = args.func(args, **docs)
    except tuple(REJECTED) as e:
        result = next(f(e) for cls, f in REJECTED.items() if isinstance(e, cls))
        code = EXIT_REJECTED
    payload = report_payload(args.command_path, result, inputs=inputs, settings=settings)
    return with_digest(canonical_json(payload)), code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help/--version, 2 on a usage error
        return EXIT_USAGE if e.code else EXIT_OK
    started = time.perf_counter()
    try:
        text, code = _report(args)
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text)
    print(f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
