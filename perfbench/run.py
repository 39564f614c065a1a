"""oiso benchmark: seeded workloads through the CLI, checked by an independent oracle.

Usage, from the repository root:

    python3 perfbench/run.py --workload point-float --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: the next operation starts when the
previous one returns. BLAS runs one thread; `oiso fuzz` starts its own pool
of min(8, cpu_count) threads. With `--trace 0` the run measures the
end-to-end metrics; with `--trace 1` it runs every operation twice, once
plain and once through the span wrappers of `tracing.py`, checks that both
print the same bytes, and reports the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import os

# fixed before numpy loads, here and in every child interpreter
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 4

END_TO_END = {
    "setup_s": "s", "ops_per_s": "ops/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "accept_p50_ms": "ms", "reject_p50_ms": "ms", "peak_rss_mb": "MB",
}

_SPAN_METRICS = {  # metric prefix -> span names whose self time it sums
    "serialize.load_json": ("serialize.load_json",),
    "serialize.parse_operator": ("serialize.parse_operator",),
    "serialize.report": ("serialize.build_report", "serialize.canonical_json",
                         "serialize.file_digest"),
    "spaces.family": ("spaces.family",),
    "cones.operator": ("cones.operator",),
    "cones.certify": ("cones.certify",),
    "cones.cone_rep": ("cones.cone_rep",),
    "recovery.decompose": ("recovery.decompose",),
    "recovery.recover_map": ("recovery.recover_map",),
    "classify.classify": ("classify.classify",),
    "classify.isometry_reduce": ("classify.isometry_reduce",),
    "classify.lattice_check": ("classify.lattice_check",),
    "classify.algebra_check": ("classify.algebra_check",),
    "fuzz": ("fuzz.spawn_generators", "fuzz.random_monomial"),
    "adequacy.check_adequate": ("adequacy.check_adequate",),
    "adequacy.build_precise_bump": ("adequacy.build_precise_bump",),
    "compactify.embed": ("compactify.embed",),
    "compactify.limit_points": ("compactify.limit_points",),
    "compactify.compactified_decompose": ("compactify.compactified_decompose",),
    "exprs.parse_sexpr": ("exprs.parse_sexpr",),
    "exprs.local_form": ("exprs.local_form",),
    "exprs.decay_check": ("exprs.decay_check",),
}
_CALL_METRICS = ("spaces.family", "cones.operator", "cones.certify", "recovery.decompose")
_COUNTERS = {"serialize.bytes_in": "bytes", "serialize.bytes_out": "bytes",
             "cones.rays": "count", "fuzz.instances": "count",
             "compactify.sequence_points": "count"}
LAYERS = ("serialize", "spaces", "cones", "recovery", "classify", "fuzz", "adequacy",
          "compactify", "exprs")

PER_LAYER = {f"{m}.busy_s": "s" for m in _SPAN_METRICS}
PER_LAYER.update({f"{m}.calls": "count" for m in _CALL_METRICS})
PER_LAYER.update(_COUNTERS)
PER_LAYER.update({"cones.accept_ratio": "ratio", "cones.lp_share": "ratio"})
PER_LAYER.update({f"{layer}.fail": "count" for layer in LAYERS})
PER_LAYER.update({"ops.error_rate": "ratio", "trace.overhead_ratio": "ratio"})


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def _op_json(op) -> dict:
    return {"id": op.id, "kind": op.kind, "mode": op.mode, "argv": list(op.argv),
            "params": op.params}


def measure_setup(warmups, workdir: Path) -> list:
    """Wall time of fresh interpreters that import oiso.cli and run one warm-up
    operation of each kind; SETUP_REPS of them, one after the other, each on
    the next CPU in turn (see _loop), so the median blends the CPUs evenly."""
    spec = workdir / "warmups.json"
    spec.write_text(json.dumps([_op_json(op) for op in warmups]))
    times = []
    cpus = _cpus()
    try:
        for i in range(SETUP_REPS):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})  # the child inherits it
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, str(HERE / "setup_child.py"), str(spec)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=120)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr[-2000:]}")
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def _median_ms(xs) -> float:
    return float(statistics.median(xs)) * 1e3


def _p90_ms(xs) -> float:
    return float(statistics.quantiles(xs, n=10, method="inclusive")[8]) * 1e3


class Run:
    """Operations attempted in one run, their outcomes and their failures."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.records = []      # (op, outcome)
        self.failures = {}     # index -> [Failure]

    def add(self, op, outcome):
        self.records.append((op, outcome))

    def check(self):
        """Run the oracle on every outcome, after the timed loop."""
        first_text = {}
        for i, (op, outcome) in enumerate(self.records):
            fails = self.oracle.check(op, outcome)
            if first_text.setdefault(op.id, outcome.text) != outcome.text:
                fails.append(self.oracle.Failure("nondeterministic", "serialize",
                                                 "same input, different report bytes"))
            if fails:
                self.failures[i] = fails

    def unknown(self) -> list:
        """Failures that are not instances of a known defect."""
        return [(self.records[i][0], f) for i, f in self.failures.items()
                if self.oracle.known_defect(self.records[i][0], f) is None]

    def defect_counts(self) -> Counter:
        c = Counter()
        for i, f in self.failures.items():
            c[self.oracle.known_defect(self.records[i][0], f) or "unknown"] += 1
        return c


def _cpus() -> list:
    return sorted(os.sched_getaffinity(0))


def _loop(plan, seconds: float, step) -> float:
    """Closed loop over `plan.rounds_for(seconds)` whole rounds; returns its wall time.

    The number of rounds depends on `--seconds` alone, not on how fast they
    run, so the same seed attempts the same operations in every run and the
    failure count is reproducible. Rounds run in a fixed order, so every
    run's mix of kinds and sizes is the same. Each operation is pinned to the
    next CPU in turn, shifted by one every round so that each slot of the
    round visits every CPU: on the machine the bounds were set on, each vCPU
    switches on its own between a fast and a ~1.6x slower state for tens of
    seconds, and a process left on one vCPU takes that vCPU's state for the
    whole run.
    """
    cpus = _cpus()
    t0 = time.perf_counter()
    try:
        for r in range(plan.rounds_for(seconds)):
            for i, op in enumerate(plan.rounds[r % len(plan.rounds)]):
                os.sched_setaffinity(0, {cpus[(i + r) % len(cpus)]})
                step(op)
    finally:
        os.sched_setaffinity(0, cpus)
    return time.perf_counter() - t0


def _determinism_check(run: Run, ops, seed: int):
    """Re-run two sampled inputs and require identical bytes."""
    firsts = {}
    for i, (op, out) in enumerate(run.records):
        firsts.setdefault(op.id, i)
    rng = random.Random(seed)
    for i in rng.sample(sorted(firsts.values()), k=min(2, len(firsts))):
        op, out = run.records[i]
        again = ops.execute(op)
        if again.text != out.text or again.code != out.code:
            run.failures.setdefault(i, []).append(run.oracle.Failure(
                "nondeterministic", "serialize", "re-run printed different bytes"))


def timed_run(plan, seconds, ops, oracle, seed, workdir) -> tuple:
    setup = measure_setup(plan.warmups, workdir)
    for op in plan.warmups:
        ops.execute(op)
    run = Run(oracle)
    wall = _loop(plan, seconds, lambda op: run.add(op, ops.execute(op)))
    run.check()
    _determinism_check(run, ops, seed)
    lat = [out.seconds for _, out in run.records]
    acc = [out.seconds for op, out in run.records if op.truth["verdict"] == "accept"]
    rej = [out.seconds for op, out in run.records if op.truth["verdict"] == "reject"]
    metrics = {
        "setup_s": float(statistics.median(setup)),
        "ops_per_s": (len(run.records) - len(run.failures)) / wall,
        "latency_p50_ms": _median_ms(lat),
        "latency_p90_ms": _p90_ms(lat),
        "accept_p50_ms": _median_ms(acc),
        "reject_p50_ms": _median_ms(rej),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"setup_runs_s": [round(t, 4) for t in setup], "loop_wall_s": round(wall, 3),
             "samples": len(lat), "accept_samples": len(acc), "reject_samples": len(rej)}
    return run, metrics, notes


def traced_run(plan, seconds, ops, oracle, tracing, out_path) -> tuple:
    tracer = tracing.Tracer()
    for op in plan.warmups:
        ops.execute(op)
    run = Run(oracle)
    plain_s = traced_s = 0.0
    mismatches = []

    def step(op):
        nonlocal plain_s, traced_s
        plain = ops.execute(op)
        with tracer.patch(), tracer.operation(f"{len(run.records)}:{op.id}", op.kind):
            traced = ops.execute(op)
        plain_s += plain.seconds
        traced_s += traced.seconds
        if (plain.text, plain.code) != (traced.text, traced.code):
            mismatches.append(op.id)
        run.add(op, plain)

    _loop(plan, seconds / 2, step)  # every operation runs twice
    run.check()
    table = tracing.span_table(tracer.spans)
    metrics = {}
    for prefix, names in _SPAN_METRICS.items():
        metrics[f"{prefix}.busy_s"] = sum(table.get(n, {}).get("busy_s", 0.0) for n in names)
    for prefix in _CALL_METRICS:
        metrics[f"{prefix}.calls"] = table.get(prefix, {}).get("calls", 0)
    for name in _COUNTERS:
        metrics[name] = tracer.counters[name]
    certs = metrics["cones.certify.calls"]
    metrics["cones.accept_ratio"] = tracer.counters["cones.accepted"] / certs if certs else 0.0
    metrics["cones.lp_share"] = tracer.counters["cones.lp"] / certs if certs else 0.0
    fails = Counter()
    errored = {s.op: s.name.split(".")[0] for s in reversed(tracer.spans)
               if s.error and not s.probe and not s.name.startswith("op.")}
    for i, flist in run.failures.items():
        op_key = f"{i}:{run.records[i][0].id}"
        layers = {errored.get(op_key, "cli") if f.layer == "cli" else f.layer for f in flist}
        fails.update(layers)
    for layer in LAYERS:
        metrics[f"{layer}.fail"] = fails[layer]
    metrics["ops.error_rate"] = len(run.failures) / max(1, len(run.records))
    metrics["trace.overhead_ratio"] = traced_s / plain_s if plain_s else 0.0
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
                                 "start": s.start, "end": s.end, "probe": s.probe,
                                 "error": s.error}) + "\n")
    notes = {"span_table": table, "replay_mismatches": mismatches,
             "ratio_bases": {"cones.accept_ratio": f"{tracer.counters['cones.accepted']} accepted"
                             f" / {certs} cones.certify.calls",
                             "cones.lp_share": f"{tracer.counters['cones.lp']} lp"
                             f" / {certs} cones.certify.calls",
                             "ops.error_rate": f"{len(run.failures)} failed"
                             f" / {len(run.records)} attempted",
                             "trace.overhead_ratio": f"{traced_s:.3f} s traced"
                             f" / {plain_s:.3f} s plain"},
             "spans_file": str(out_path.relative_to(ROOT))}
    return run, metrics, notes


def _print_report(workload, seed, env, run, metrics, units, notes, oracle):
    print(f"# oiso benchmark  workload={workload}  seed={seed}")
    print("# environment " + json.dumps(env, sort_keys=True))
    kinds = Counter(op.kind for op, _ in run.records)
    print("# operations " + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    for defect, n in sorted(run.defect_counts().items()):
        why = oracle.KNOWN_DEFECTS.get(defect, "not a known defect")
        print(f"# failed {n:5d}  {defect}: {why}")
    for op, flist in run.unknown()[:10]:
        print(f"# UNEXPECTED {op.id}: {oracle.summarize_failure(flist)}")
    table = notes.pop("span_table", None)
    if table:
        print(f"# {'span':40s} {'calls':>7s} {'busy_s':>10s} {'p50_ms':>10s} {'raised':>8s}")
        for name, row in table.items():
            print(f"# {name:40s} {row['calls']:7d} {row['busy_s']:10.4f} "
                  f"{row['p50_ms']:10.4f} {row['raised']:8d}")
    for key, value in notes.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "oiso" / "__init__.py").is_file():
        print(f"error: no oiso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gen
    import ops
    import oracle
    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(gen.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan = gen.generate(args.workload, args.seed, str(workdir))
        if args.trace:
            import tracing
            out_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            run, metrics, notes = traced_run(plan, args.seconds, ops, oracle, tracing, out_path)
            units = PER_LAYER
        else:
            run, metrics, notes = timed_run(plan, args.seconds, ops, oracle, args.seed, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = not run.unknown() and not notes.get("replay_mismatches")
    _print_report(args.workload, args.seed, environment(), run, metrics, units, notes, oracle)
    result = {"correct": correct, "attempted": len(run.records), "failed": len(run.failures),
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
