"""Golden digests of CLI reports on fixed input documents.

Each case writes one small document, runs the CLI on it and compares the
report's `digest` (the sha256 of its canonical payload) and the exit code with
a recorded value. A refactor that is meant to leave reports byte-identical
must leave every digest here unchanged; a deliberate change to a report
updates the digest in the same commit.
"""
import json

import pytest

from oiso.cli import main

SWAP = {"matrix": [[0, 2], [3, 0]]}
SHEAR = {"matrix": [[1, 1], [0, 1]]}
NEAR_MONOMIAL = {"matrix": [[0, 2, 1e-12], [3, 0, 0], [0, 0, 0.5]]}
EXACT_3 = {"matrix": [[0, "1/2", 0], [0, 0, 3], ["7/3", 0, 0]]}
IDENTITY = {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
SIGNED_SWAP = {"matrix": [[0, -1], [1, 0]]}
SAMPLES = [(i + 0.5) / 8 for i in range(8)]
SEQS = [{"name": "to0", "n": 4096, "rule": "1/(k+1)"},
        {"name": "to1", "n": 4096, "rule": "1 - 1/(k+1)"}]

# (case id, document or None, argv after the file, exit code, digest)
CASES = [
    ("decompose-float-accept", NEAR_MONOMIAL, ["decompose"], 0,
     "30b2eab5e1931059af16b291af38e0478005bc8a17014a742584353245c8a1ad"),
    ("decompose-float-reject", SHEAR, ["decompose"], 2,
     "1c6f3813f77c1633acf906133e1c450ca00bcd3e1839327cbc380bdd3b26daff"),
    ("decompose-exact-accept", EXACT_3, ["decompose", "--mode", "exact"], 0,
     "f5444999d50ff6e1aaf26fb1bf238639336a316b92c9ebb9e6fa01e49bd6dba2"),
    ("decompose-exact-reject", SHEAR, ["decompose", "--mode", "exact"], 2,
     "e30f55804952dfa9b2c28872b866e464a1928fe58bf34fb4ef052c6bb10d14f2"),
    ("classify-algebra-iso", IDENTITY, ["classify", "--mode", "exact"], 0,
     "1395d4b9354b9040fdb86c2dbdf85438474c92d435d84773ea7762d3096a9b95"),
    ("classify-lattice-iso", SWAP, ["classify"], 0,
     "ba3a7c907a2d3bc142bbbd6d43bdd4e079c00ebe57ce4d4be3236507d90b7239"),
    ("classify-isometry-float", SIGNED_SWAP, ["classify"], 0,
     "68708458e19dd87ff2f46df34816a78594b4cbb32350bf2ab510f6a7b3841378"),
    ("classify-isometry-exact", SIGNED_SWAP, ["classify", "--mode", "exact"], 0,
     "2d7d7a2f94b5087d6abdf3bb4bd51caf50393d7649f560b1e4ab57ece288c57c"),
    ("classify-rejected", SHEAR, ["classify"], 2,
     "82d202525e20be754664971dabd9bb58115e770793f3589f2b984ab1eaeccf0d"),
    ("adequacy-full", {"labels": ["a", "b", "c"]}, ["adequacy"], 0,
     "acde8000db0e250f8121d267534c23a7660dc736ff452938440d71f04e49f8ad"),
    ("adequacy-proper", {"space": ["a", "b", "c", "d"],
                         "generators": [[1, 1, 1, 1], [0, "1/3", "2/3", 1]],
                         "names": ["1", "t"]}, ["adequacy"], 2,
     "b537bc1784d08ad1468a05c84a9932d91037f300654143517e0d10e917fbc4d0"),
    ("compactify-operator", {
        "domain": {"samples": SAMPLES, "generators": ["t"], "name": "X"},
        "codomain": {"samples": SAMPLES, "generators": ["t"], "name": "Y"},
        "sequences": SEQS, "sequences_codomain": SEQS,
        "operator": {"pullback": "1 - t", "weight": "1 + t"}}, ["compactify"], 0,
     "150da916bab99808dfd40ca95c68c00869359ba3aebb0c93c693f93f0ee38157"),
    ("example-witness", None,
     ["example", "witness", "--a", "0.25", "--b", "0.5", "--at", "0.375"], 0,
     "dc7eb80cca294bb05d73389487bd7624fd91af0d3424faabc68ba2856177b005"),
]


@pytest.mark.parametrize("case, doc, argv, code, digest", CASES,
                         ids=[c[0] for c in CASES])
def test_report_digest(tmp_path, capsys, case, doc, argv, code, digest):
    if doc is not None:
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        argv = argv[:1] + [str(path)] + argv[1:]
    assert main(argv) == code
    assert json.loads(capsys.readouterr().out)["digest"] == digest
