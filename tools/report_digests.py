"""Print the exit code and stdout sha256 of every benchmark operation.

Usage, from the repository root:

    python3 tools/report_digests.py 1 2 > digests.txt
    python3 tools/report_digests.py 1 --workload point-exact

For each seed and workload it generates the `perfbench` plan and runs every
operation once through `perfbench/ops.execute`, in the plan's order: the
warm-ups, then each instance set's round. It prints one line per operation:

    seed workload op-id exit sha256(stdout)

`exit` is the exit code, or `raised` when the operation raised. Two checkouts
print the same lines exactly when every operation exits the same way and
prints the same bytes, so a `diff` of their outputs checks that a change
keeps every report. The tool only reads `perfbench/`; the input documents go
to a temporary directory that is removed afterwards.
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


def digest_lines(workload: str, seed: int):
    """One line per operation of the workload's plan at `seed`."""
    with tempfile.TemporaryDirectory() as workdir:
        plan = gen.generate(workload, seed, workdir)
        for op in plan.warmups + [op for round_ in plan.rounds for op in round_]:
            out = ops.execute(op)
            code = "raised" if out.code is None else out.code
            sha = hashlib.sha256(out.text.encode("utf-8", "surrogatepass")).hexdigest()
            yield f"{seed} {workload} {op.id} {code} {sha}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("seeds", type=int, nargs="+")
    p.add_argument("--workload", action="append", choices=gen.WORKLOADS,
                   help="workload to run (repeatable; default: all)")
    args = p.parse_args(argv)
    for seed in args.seeds:
        for workload in args.workload or gen.WORKLOADS:
            for line in digest_lines(workload, seed):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
