"""One benchmark operation and how it runs in-process.

Most operations are one `oiso.cli.main(argv)` call on a generated file. Two
user actions have no CLI command and go through the public API instead:
certifying a generator-basis operator on a proper subfamily (`decompose`
refuses recovery there) and building a precise bump. Their runners print a
canonical JSON document and return an exit code the way a CLI handler does.
"""
from __future__ import annotations

import contextlib
import io
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from oiso import cli
from oiso.adequacy import SeparationInfeasibleError, build_precise_bump
from oiso.cones import is_order_isomorphism
from oiso.serialize import canonical_json, load_json, parse_family, parse_operator

TOL = 1e-9


@dataclass
class Op:
    """A user action with the ground truth recorded when its input was made.

    `argv` is the CLI argument list; API operations leave it empty and put
    their arguments in `params`. `truth["verdict"]` is "accept" (exit 0) or
    "reject" (exit 2).
    """

    id: str
    kind: str
    mode: str
    truth: dict
    argv: tuple = ()
    params: dict = field(default_factory=dict)
    path: Optional[str] = None

    @property
    def api(self) -> bool:
        return not self.argv


@dataclass
class Outcome:
    code: Optional[int]
    text: str
    error: Optional[str]
    stderr: str
    seconds: float


def _run_certify(params: dict) -> int:
    doc = load_json(params["path"])
    t = parse_operator(doc, params["mode"])
    cert = is_order_isomorphism(t, tol=TOL)
    out = dict(cert.to_json_dict(), arithmetic=cert.arithmetic)
    sys.stdout.write(canonical_json(out))
    return 0 if cert.accept else 2


def _run_bump(params: dict) -> int:
    doc = load_json(params["path"])
    fam = parse_family(doc["family"], exact=False)
    try:
        h = build_precise_bump(fam, doc["anchor"], doc["closed"], tol=TOL)
    except SeparationInfeasibleError as e:
        sys.stdout.write(canonical_json({"built": False, "detail": str(e)}))
        return 2
    sys.stdout.write(canonical_json({"built": True, "values": list(h.values)}))
    return 0


API_RUNNERS = {"certify": _run_certify, "bump": _run_bump}


def execute(op: Op) -> Outcome:
    """Run one operation, catching everything it raises, and time it."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.api:
                code = API_RUNNERS[op.kind](op.params)
            else:
                code = cli.main(list(op.argv))
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 1
        error = f"SystemExit: {e.code}"
    except Exception as e:  # noqa: BLE001 - every failure is counted, none ends the run
        error = f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), error, err.getvalue(), seconds)
