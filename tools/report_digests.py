"""Print the exit code and stdout sha256 of every benchmark operation.

Usage, from the repository root:

    python3 tools/report_digests.py 1 2 > digests.txt
    python3 tools/report_digests.py 1 --workload point-exact
    python3 tools/report_digests.py 1 2 --workload generator-basis --solves

For each seed and workload it generates the `perfbench` plan and runs every
operation once through `perfbench/ops.execute`, in the plan's order: the
warm-ups, then each instance set's round. It prints one line per operation:

    seed workload op-id exit sha256(stdout)

`exit` is the exit code, or `raised` when the operation raised. Two checkouts
print the same lines exactly when every operation exits the same way and
prints the same bytes, so a `diff` of their outputs checks that a change
keeps every report. With `--solves` each line ends with one more field, the
number of HiGHS solves the operation made (calls of `scipy.optimize.linprog`,
counted by wrapping it in this process), so the same `diff` shows where a
change solves fewer or more LPs. The tool only reads `perfbench/`; the input
documents go to a temporary directory that is removed afterwards.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402,F401  - fixes the BLAS threads before numpy loads, as a run does
import gen  # noqa: E402
import ops  # noqa: E402


def count_solves() -> list:
    """Wrap `scipy.optimize.linprog` so each call appends to the returned
    list. The package imports it at call time, so every solve is seen."""
    import scipy.optimize

    calls, real = [], scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    scipy.optimize.linprog = counted
    return calls


def digest_lines(workload: str, seed: int, solves=None):
    """One line per operation of the workload's plan at `seed`; with a
    `count_solves` list, each line ends with the operation's solve count."""
    with tempfile.TemporaryDirectory() as workdir:
        plan = gen.generate(workload, seed, workdir)
        for op in plan.warmups + [op for round_ in plan.rounds for op in round_]:
            before = len(solves or ())
            out = ops.execute(op)
            code = "raised" if out.code is None else out.code
            sha = hashlib.sha256(out.text.encode("utf-8", "surrogatepass")).hexdigest()
            line = f"{seed} {workload} {op.id} {code} {sha}"
            yield line if solves is None else f"{line} {len(solves) - before}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("seeds", type=int, nargs="+")
    p.add_argument("--workload", action="append", choices=gen.WORKLOADS,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--solves", action="store_true",
                   help="end each line with the operation's HiGHS solve count")
    args = p.parse_args(argv)
    solves = count_solves() if args.solves else None
    for seed in args.seeds:
        for workload in args.workload or gen.WORKLOADS:
            for line in digest_lines(workload, seed, solves):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
