"""Set-up probe: a fresh interpreter imports oiso.cli and runs the warm-ups.

Run by perfbench/run.py with the path of a JSON list of warm-up operations;
its parent times the whole process. Exits 1 if a warm-up raised.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oiso.cli  # noqa: E402,F401  - the import is part of what set-up pays for

from ops import Op, execute  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as fh:
    specs = json.load(fh)
for spec in specs:
    out = execute(Op(spec["id"], spec["kind"], spec["mode"], {}, argv=tuple(spec["argv"]),
                     params=spec["params"]))
    if out.error is not None:
        print(f"warm-up {spec['id']} raised {out.error}", file=sys.stderr)
        sys.exit(1)
