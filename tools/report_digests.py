"""Print the exit code and stdout sha256 of every benchmark operation.

Usage, from the repository root:

    python3 tools/report_digests.py 1 2 > digests.txt
    python3 tools/report_digests.py 1 --workload point-exact
    python3 tools/report_digests.py 1 2 --workload generator-basis --counts

For each seed and workload it generates the `perfbench` plan and runs every
operation once through `perfbench/ops.execute`, in the plan's order: the
warm-ups, then each instance set's round. It prints one line per operation:

    seed workload op-id exit sha256(stdout)

`exit` is the exit code, or `raised` when the operation raised. Two checkouts
print the same lines exactly when every operation exits the same way and
prints the same bytes, so a `diff` of their outputs checks that a change
keeps every report. With `--counts` each line ends with four more fields:
the number of HiGHS solves the operation made (calls of
`scipy.optimize.linprog`, counted by wrapping it in this process), its calls
of `Fraction.__bool__` (each a truth test of one exact entry, wrapped the
same way), the per-entry work an exact run pays, its exact eliminations
(calls of `oiso.linalg._exact_rref`, which every exact rank, inverse and
solve runs once) and its dense float inversions (calls of
`numpy.linalg.inv`). The same `diff` then shows where a change solves fewer
or more LPs, tests more or fewer exact entries, or eliminates or inverts
more or fewer matrices. The tool only reads `perfbench/`; the input
documents go to a temporary directory that is removed afterwards.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402,F401  - fixes the BLAS threads before numpy loads, as a run does
import gen  # noqa: E402
import ops  # noqa: E402


def count_calls(owner, name: str) -> list:
    """Wrap `owner.name` so each call adds one to the returned one-item list.
    The package looks `scipy.optimize.linprog`, `linalg._exact_rref` and
    `numpy.linalg.inv` up at call time, and Python finds `Fraction.__bool__` on the class at each
    truth test (numpy's included), so every call is seen."""
    calls, real = [0], getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    setattr(owner, name, counted)
    return calls


def digest_lines(workload: str, seed: int, counters=()):
    """One line per operation of the workload's plan at `seed`; each line
    ends with the operation's share of every `count_calls` counter given."""
    with tempfile.TemporaryDirectory() as workdir:
        plan = gen.generate(workload, seed, workdir)
        for op in plan.warmups + [op for round_ in plan.rounds for op in round_]:
            before = [c[0] for c in counters]
            out = ops.execute(op)
            code = "raised" if out.code is None else out.code
            sha = hashlib.sha256(out.text.encode("utf-8", "surrogatepass")).hexdigest()
            yield " ".join([f"{seed} {workload} {op.id} {code} {sha}",
                            *(str(c[0] - b) for c, b in zip(counters, before))])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("seeds", type=int, nargs="+")
    p.add_argument("--workload", action="append", choices=gen.WORKLOADS,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--counts", action="store_true",
                   help="end each line with the operation's HiGHS solve count and "
                        "its Fraction truth tests, its exact eliminations and its dense "
                        "float inversions")
    args = p.parse_args(argv)
    counters = []
    if args.counts:
        import numpy as np
        import scipy.optimize
        from oiso import linalg
        counters += [count_calls(scipy.optimize, "linprog"), count_calls(Fraction, "__bool__"),
                     count_calls(linalg, "_exact_rref"), count_calls(np.linalg, "inv")]
    for seed in args.seeds:
        for workload in args.workload or gen.WORKLOADS:
            for line in digest_lines(workload, seed, counters):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
