"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import ops  # noqa: E402
import oracle  # noqa: E402


def _plan(tmp_path, workload="point-exact", seed=7):
    return gen.generate(workload, seed, str(tmp_path / workload))


def _first(plan, pred):
    return next(op for rnd in plan.rounds for op in rnd if pred(op))


def _run_json(args, cwd):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_each_workload_runs_briefly(workload, trace):
    res = _run_json(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", trace], HERE.parent)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    names = set(res["metrics"])
    if trace == "0":
        assert names == {"setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms",
                         "accept_p50_ms", "reject_p50_ms", "peak_rss_mb"}
    else:
        assert "trace.overhead_ratio" in names and "cones.certify.busy_s" in names
    assert all(v["value"] >= 0 for v in res["metrics"].values())


def test_same_seed_same_inputs(tmp_path):
    a = gen.generate("generator-basis", 11, str(tmp_path / "a"))
    b = gen.generate("generator-basis", 11, str(tmp_path / "b"))
    c = gen.generate("generator-basis", 12, str(tmp_path / "c"))
    ids = [op.id for rnd in a.rounds for op in rnd]
    assert ids == [op.id for rnd in b.rounds for op in rnd]
    for op_a, op_b in zip((o for r in a.rounds for o in r), (o for r in b.rounds for o in r)):
        assert op_a.truth == op_b.truth
        assert Path(op_a.path).read_bytes() == Path(op_b.path).read_bytes()
    assert sorted(os.listdir(tmp_path / "a")) == sorted(os.listdir(tmp_path / "b"))
    first = lambda plan: Path(plan.rounds[0][0].path).read_bytes()  # noqa: E731
    assert first(a) != first(c)


def test_run_length_is_a_fixed_round_count(tmp_path):
    plan = _plan(tmp_path, "families")
    counts = [plan.rounds_for(s) for s in (0.01, 0.3, 5, 22, 60)]
    assert all(c >= 2 and c % 2 == 0 for c in counts) and counts == sorted(counts)


def test_same_seed_same_attempted_and_failed():
    args = ["--workload", "generator-basis", "--seed", "5", "--seconds", "0.3", "--trace", "0"]
    a, b = (_run_json(args, HERE.parent) for _ in range(2))
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    assert a["failed"] > 0  # the known generator-basis defects show at any length


def test_oracle_accepts_genuine_outputs(tmp_path):
    plan = _plan(tmp_path)
    for op in plan.rounds[0][:6]:
        assert oracle.check(op, ops.execute(op)) == []


def test_oracle_flags_planted_wrong_sigma(tmp_path):
    op = _first(_plan(tmp_path), lambda o: o.kind == "decompose" and o.truth["verdict"] == "accept")
    out = ops.execute(op)
    rep = json.loads(out.text)
    s = rep["result"]["sigma"]
    s[0], s[1] = s[1], s[0]
    planted = replace(out, text=json.dumps(rep))
    assert [f.tag for f in oracle.check(op, planted)] == ["sigma"]


def test_oracle_flags_planted_off_cone_witness(tmp_path):
    op = _first(_plan(tmp_path), lambda o: o.kind == "decompose"
                and o.truth.get("category") == "signed")
    out = ops.execute(op)
    rep = json.loads(out.text)
    cert = rep["result"]["certificate"]
    assert oracle.check_witness(json.loads(Path(op.path).read_text()), cert, True) == []
    j = next(i for i, v in enumerate(cert["witness"]) if Fraction(v) == 0)
    cert["witness"][j] = "-1"
    tags = [f.tag for f in oracle.check(op, replace(out, text=json.dumps(rep)))]
    assert "witness-cone" in tags
    assert oracle.known_defect(op, oracle.check(op, replace(out, text=json.dumps(rep)))) is None


def test_oracle_flags_planted_exit_1(tmp_path):
    op = _first(_plan(tmp_path), lambda o: o.kind == "classify")
    planted = ops.Outcome(code=1, text="", error=None, stderr="error: planted", seconds=0.0)
    fails = oracle.check(op, planted)
    assert [f.tag for f in fails] == ["exit1"]
    assert oracle.known_defect(op, fails) is None


def test_oracle_counts_exceptions_without_stopping(tmp_path):
    op = _first(_plan(tmp_path), lambda o: o.kind == "decompose")
    broken = replace(op, argv=("decompose", str(tmp_path / "missing.json")))
    out = ops.execute(broken)  # a usage error, caught by the CLI: exit 1
    assert out.code == 1 and [f.tag for f in oracle.check(op, out)] == ["exit1"]
    out = ops.execute(replace(op, argv=(), kind="certify", params={}))  # KeyError, raised
    assert out.error is not None and [f.tag for f in oracle.check(op, out)] == ["raised"]


def test_solve_exact_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.integers(-4, 5, size=(6, 6))
    while round(np.linalg.det(a)) == 0:
        a = rng.integers(-4, 5, size=(6, 6))
    b = rng.integers(-4, 5, size=6)
    x = oracle.solve_exact(a.tolist(), b.tolist())
    assert np.allclose([float(v) for v in x], np.linalg.solve(a, b))
    assert oracle.solve_exact([[1, 2], [2, 4]], [1, 2]) is None


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "families",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_matches_the_runner():
    import importlib.util
    spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
