"""Golden digests of CLI reports on fixed input documents.

Each case writes one small document, runs the CLI on it and compares the
exit code, the report's `digest` (the sha256 of its canonical payload) and the
sha256 of the whole of stdout with recorded values; the last catches a
misplaced "digest" line or a missing final newline, which leave the digest
as it is. A refactor that is meant to leave reports byte-identical
must leave every digest here unchanged; a deliberate change to a report
updates the digest in the same commit.
"""
import hashlib
import json

import pytest

from oiso import serialize
from oiso.cli import main

SWAP = {"matrix": [[0, 2], [3, 0]]}
SHEAR = {"matrix": [[1, 1], [0, 1]]}
NEAR_MONOMIAL = {"matrix": [[0, 2, 1e-12], [3, 0, 0], [0, 0, 0.5]]}
EXACT_3 = {"matrix": [[0, "1/2", 0], [0, 0, 3], ["7/3", 0, 0]]}
IDENTITY = {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
SIGNED_SWAP = {"matrix": [[0, -1], [1, 0]]}
# a signed monomial whose two most negative entries tie: the witness is the
# first such row in row order
TIED_NEGATIVES = {"matrix": [[0, -2, 0], [0, 0, -2], [1, 0, 0]]}
SIGNED_SCALED = {"matrix": [[0, "-3/2", 0], [2, 0, 0], [0, 0, "1/3"]]}
SIGNED_3 = {"matrix": [[0, -1, 0], [0, 0, 1], [-1, 0, 0]]}
# generator basis on full families, decided through the point matrix:
# point matrices [[0, 2, 0], [0, 0, 1/5], [3, 0, 0]] and [[0, 2, 0], [0, 0, -1], [3, 0, 0]]
GEN_DOM = {"space": ["a", "b", "c"], "generators": [[1, 1, 1], [0, 1, 2], [0, 0, 1]]}
GEN_COD = {"space": ["p", "q", "r"], "generators": [[1, 0, 0], [1, 1, 0], [0, 0, 1]]}
GEN_ACCEPT = {"basis": "generator", "domain": GEN_DOM, "codomain": GEN_COD,
              "matrix": [["9/5", "8/5", "-1/5"], ["1/5", "2/5", "1/5"], ["3", "0", "0"]]}
GEN_REJECT = {"basis": "generator", "domain": GEN_DOM, "codomain": GEN_COD,
              "matrix": [["3", "4", "1"], ["-1", "-2", "-1"], ["3", "0", "0"]]}
# point matrix [[0, 2, 1], [0, 0, 1/5], [3, 0, 0]]: nonnegative but not
# monomial, so the rejection is on the codomain side, where the inverse has
# -5/2 at (1, 1) and the witness comes from the codomain's inv(G^T)
GEN_REJECT_CODOMAIN = {"basis": "generator", "domain": GEN_DOM, "codomain": GEN_COD,
                       "matrix": [["14/5", "18/5", "4/5"], ["1/5", "2/5", "1/5"],
                                  ["3", "0", "0"]]}
# float generator basis on two-point full families, each with a singular
# point matrix: det M = 0 and P = [[0, 7.4], [0, 0]]; and the same M with
# the families swapped, numerically singular (cond(M) about 3.5e17). Both
# get the verdict of the point-basis document of their P
GEN_SINGULAR = {"basis": "generator", "matrix": [[7.4, -7.4], [-3.7, 3.7]],
                "domain": {"space": ["a0", "a1"], "generators": [[1, 1], [0, -1]]},
                "codomain": {"space": ["b0", "b1"], "generators": [[1, 1], [0, 2]]}}
GEN_NUMERICALLY_SINGULAR = {"basis": "generator", "matrix": [[7.4, -7.4], [-3.7, 3.7]],
                            "domain": {"space": ["a0", "a1"], "generators": [[1, 1], [0, 2]]},
                            "codomain": {"space": ["b0", "b1"],
                                         "generators": [[1, 1], [0, -1]]}}
# generator basis on the proper family span{1, t} over t = 0, 1, 2, 3: the
# shear (a, b) -> (a + 2b, b) sends f >= 0 to a negative value at t = 2 and
# t = 3, so two target rows fail and the report pins which one comes first
PROPER = {"space": ["a", "b", "c", "d"], "generators": [[1, 1, 1, 1], [0, 1, 2, 3]]}
GEN_PROPER_REJECT = {"basis": "generator", "domain": PROPER, "codomain": PROPER,
                     "matrix": [[1, 2], [0, 1]]}
# labels the report must escape: non-ASCII (one outside the BMP), a quote, a
# backslash and control characters
ESCAPED_LABELS = {"matrix": [[0, 2, 0], [0, 0, "1/3"], [5, 0, 0]],
                  "domain": ["\u00e9\"q", "back\\slash", "tab\tbell\u0007"],
                  "codomain": ["\U0001d53d\u00ff", "quote\"", "nul\u0000"]}
SAMPLES = [(i + 0.5) / 8 for i in range(8)]
SEQS = [{"name": "to0", "n": 4096, "rule": "1/(k+1)"},
        {"name": "to1", "n": 4096, "rule": "1 - 1/(k+1)"}]

# (case id, document or None, argv after the file, exit code, digest, sha256 of
# the full stdout)
CASES = [
    ("decompose-float-accept", NEAR_MONOMIAL, ["decompose"], 0,
     "30b2eab5e1931059af16b291af38e0478005bc8a17014a742584353245c8a1ad",
     "0bfc814118331eafad5d12b7db8116cf1fd6a554113c05cc3f388c15025b2d0e"),
    ("decompose-float-reject", SHEAR, ["decompose"], 2,
     "1c6f3813f77c1633acf906133e1c450ca00bcd3e1839327cbc380bdd3b26daff",
     "bd07117735b944d11d93fa6d19ca86fda53ef4bcf9f451898ae1c41db54c4495"),
    ("decompose-exact-accept", EXACT_3, ["decompose", "--mode", "exact"], 0,
     "f5444999d50ff6e1aaf26fb1bf238639336a316b92c9ebb9e6fa01e49bd6dba2",
     "c0d58ec3ade1596182e830daebb09bcfff2cfe88a553674429589a2f5dba8f74"),
    ("decompose-exact-reject", SHEAR, ["decompose", "--mode", "exact"], 2,
     "e30f55804952dfa9b2c28872b866e464a1928fe58bf34fb4ef052c6bb10d14f2",
     "645bedbd358ab00362580e9d41ade3337d2c0c097d0f765686fb74820408f96f"),
    ("classify-algebra-iso", IDENTITY, ["classify", "--mode", "exact"], 0,
     "1395d4b9354b9040fdb86c2dbdf85438474c92d435d84773ea7762d3096a9b95",
     "6cef972a4016e5e11b44784361907c78873e99d6c96234a0dbd43713dd4a6f40"),
    ("classify-lattice-iso", SWAP, ["classify"], 0,
     "ba3a7c907a2d3bc142bbbd6d43bdd4e079c00ebe57ce4d4be3236507d90b7239",
     "b6b86864b6d007fcdb9220fcd956268c4a5a50dc6a79db3e248cebffe2449642"),
    ("classify-isometry-float", SIGNED_SWAP, ["classify"], 0,
     "68708458e19dd87ff2f46df34816a78594b4cbb32350bf2ab510f6a7b3841378",
     "d20b83c04739196e658e2dfa6e7f8ae2f4b20de67e03c04ea5f1c4c2c24d4dd7"),
    ("classify-isometry-exact", SIGNED_SWAP, ["classify", "--mode", "exact"], 0,
     "2d7d7a2f94b5087d6abdf3bb4bd51caf50393d7649f560b1e4ab57ece288c57c",
     "051fd4145924838fb9768bc72051b031e394674eacebc383e8310c269128cedf"),
    ("classify-rejected", SHEAR, ["classify"], 2,
     "82d202525e20be754664971dabd9bb58115e770793f3589f2b984ab1eaeccf0d",
     "fcb2a8b72833dba4aee7dfc446e0db3543e0d158a24ff798bd7e92dfcf2541e1"),
    ("adequacy-full", {"labels": ["a", "b", "c"]}, ["adequacy"], 0,
     "acde8000db0e250f8121d267534c23a7660dc736ff452938440d71f04e49f8ad",
     "3fe034ea9ca9955c9c40dd5eb17305c6f68ad000c2cbb795a8574665e1f48c87"),
    ("adequacy-proper", {"space": ["a", "b", "c", "d"],
                         "generators": [[1, 1, 1, 1], [0, "1/3", "2/3", 1]],
                         "names": ["1", "t"]}, ["adequacy"], 2,
     "b537bc1784d08ad1468a05c84a9932d91037f300654143517e0d10e917fbc4d0",
     "efb70038ff5c38446ed0c3bd174d2192d2dde6de90e678d9859a5b9979b4b14a"),
    ("compactify-operator", {
        "domain": {"samples": SAMPLES, "generators": ["t"], "name": "X"},
        "codomain": {"samples": SAMPLES, "generators": ["t"], "name": "Y"},
        "sequences": SEQS, "sequences_codomain": SEQS,
        "operator": {"pullback": "1 - t", "weight": "1 + t"}}, ["compactify"], 0,
     "150da916bab99808dfd40ca95c68c00869359ba3aebb0c93c693f93f0ee38157",
     "7d9a5808985b3ac9aba1698f7ebdb09f2254b41d9b1a43b4ab3f9f60106e0685"),
    # boundary exploration on (0, 1]: two added points where sin(1/t) settles
    # at sin(0.5) and sin(1.1), one from a prefix past the 128-term fit selection
    ("compactify-boundary", {
        "domain": {"samples": SAMPLES, "generators": ["t", "sin(1/t)"], "name": "X",
                   "interval": [0, 1, True, False]},
        "sequences": [{"name": "s0", "n": 4096, "rule": "1/(2*pi*k + 0.5)"},
                      {"name": "s1", "n": 10000, "rule": "1/(2*pi*k + 1.1)"}]},
     ["compactify"], 0,
     "12d8ce34f35230acbdf74a2c6319eb49bceee523765ccfacd47ee2b43747d350",
     "9ce0b15f9bca8f2ffb865df2e56bc6f33b422b2ec344df103d4588ecbdb7217c"),
    # sin(1/t) along 0.75/k oscillates: a nonconvergent-net rejection
    ("compactify-nonconvergent", {
        "domain": {"samples": SAMPLES, "generators": ["t", "sin(1/t)"], "name": "X"},
        "sequences": [{"name": "osc", "n": 4096, "rule": "0.75/k"}]},
     ["compactify"], 2,
     "59a7b7206bae85170ad1c6d08a810a33fa860dc2907aa3c0ba38919fd6bf5d88",
     "5130b1633751a113aec19f49a8e7dbd91e0ab6be11762e4ca64505f9e83c84a0"),
    ("example-witness", None,
     ["example", "witness", "--a", "0.25", "--b", "0.5", "--at", "0.375"], 0,
     "dc7eb80cca294bb05d73389487bd7624fd91af0d3424faabc68ba2856177b005",
     "9b9434eee7dda91f3dc38aaaee854ec72e9627b1d750d8dadc5253a5d82ed995"),
    # the example space reads --expr with exprs.parse_sexpr and writes the
    # certified form with to_sexpr; the first case bisects to a saturated half
    ("example-local-form-saturated", None,
     ["example", "local-form", "--expr", "(clamp (lin (-0.5 2.0) ((const 1.0) t)))",
      "--interval", "0.1,0.9"], 0,
     "1033b12b18ec91d0611b5d8caf5a7e2a4548e487d7676eeb5128beb9ac6e6de7",
     "57641b9e009b9f9ab470ba63da38cf03a476e6aef7dcc104cc8ed65a91c0b6a5"),
    ("example-local-form-nested", None,
     ["example", "local-form", "--expr",
      "(lin (0.5 -1.25) ((clamp (lin (1 -1) ((const 0.75) t))) (clamp (clamp t))))",
      "--interval", "0.2,0.6"], 0,
     "2f1e7ede22dcd9806fa3a780708baaaee79e26129b3bbc89edab33509c825bda",
     "ab02c66c6c0d3bd40bfdb213832abd3e0d762eab19f7ff49f2ded77b533cbc9c"),
    ("example-local-form-inconclusive", None,
     ["example", "local-form", "--expr", "(clamp (lin (-1.0 2.0) ((const 1.0) t)))",
      "--interval", "0,1", "--depth-cap", "0"], 2,
     "85b70c4ae42fe272f30836b2a37e057f4fe25669292124a8adcd61e18e79ea77",
     "140024d984fd2bd74dd63ca6156bd09de0b138d9d3f1e479a84f9b4854c71ad0"),
    ("example-decay-passes", None,
     ["example", "decay", "--expr", "(lin (2.5 -1.0) ((sinramp (sinramp t)) (const 3.0)))"], 0,
     "e9201ddd137051b8eb6ed6af73209c31b9ad4d62804dc2829712824f33d41bc7",
     "cbf284738be53e29cd449f7938db95fd653e37b7b00c7796bb8df3ddb5f7c5ea"),
    ("example-decay-fails", None,
     ["example", "decay", "--expr", "(lin (1.0) (t))", "--t-max", "1e4"], 2,
     "cbe40d0b78d335bd941f7b5142aa30775e7680bef3f7422c8f5522841c40c724",
     "f5b855ae8cc86ccd8777b838ddaeb2c07e8ff86fb148a84419160c2e97243e82"),
    ("decompose-exact-tied-negatives", TIED_NEGATIVES, ["decompose", "--mode", "exact"], 2,
     "d3192ad8446e845b2acd2a38676ea952d7aae1cc863511eb0ee86b3944843a07",
     "d2825bf497ec3ca7108d0e77c332783e6bf363a39383a221fd42e2e6a8b9aec1"),
    ("classify-exact-tied-negatives", TIED_NEGATIVES, ["classify", "--mode", "exact"], 2,
     "b986b656b88c59fdf0e2141219ec5347bdf2afc54e4c9b063798b89603d06978",
     "171b14fcdb51c28189527bdc8c60635736a1d9b31343ccaa94a5dd73acc4cf13"),
    ("classify-exact-signed-scaled", SIGNED_SCALED, ["classify", "--mode", "exact"], 2,
     "f87eff4fa9ab9360971120797a511fb18a7b7a3cec17127e04fddaf67ac47457",
     "493801189d8a7beb058874c235991cde5bd136387f1e0d2315946b96f25e5b9b"),
    ("classify-exact-lattice-iso", EXACT_3, ["classify", "--mode", "exact"], 0,
     "a6ca24ad9286e96f612a2602fa8b064f7d5c4281b2a4c28abf35554c7312f3b6",
     "8e11cc02239e356fc859e373b20716586f8c922982b23f336f8a56eb8fce031c"),
    ("classify-exact-isometry-3", SIGNED_3, ["classify", "--mode", "exact"], 0,
     "ffb41d743c5fdc4ec0dad14961412e4ad480abe51d29577604795fb06bdaae28",
     "df438a9e807515d9a820cb3f269525cabc602244ad5ab7a5f191e6c4405c59de"),
    ("fuzz-exact", None,
     ["fuzz", "--dim", "8", "--count", "4", "--seed", "3", "--mode", "exact"], 0,
     "e2fc6941c722a14ee0d0aa01c0215055c99d23b3e2f651759418ef1595ae2976",
     "99350b99b95c73af15b2cf2b5d7191295b368934341f7ce4beb5f69247e04628"),
    ("decompose-exact-generator-full-accept", GEN_ACCEPT, ["decompose", "--mode", "exact"], 0,
     "a486a583e533af5f4990febc31d25ef0388570506f9bbc41018a34e81bc5a3bb",
     "c2dc62a5e7f89dbe390f7d19b0d10a476a80f685f1c833c0a60c0bb049c60c44"),
    ("decompose-exact-generator-full-reject", GEN_REJECT, ["decompose", "--mode", "exact"], 2,
     "8390d0500376c2af268ccbf7c7725a1824d9e907e22a2199e2c29b02e3555b2d",
     "839c521f5b70d790e899f78603e1821fc94526e1ea2d83b7c271b7a3bb5fcf10"),
    ("decompose-exact-generator-full-codomain-reject", GEN_REJECT_CODOMAIN,
     ["decompose", "--mode", "exact"], 2,
     "e45db7a835061d96b4997d9187ec2f9cd339afd1850a3bedb786e09f618e06b6",
     "9a04b91c33fad13af73385d92abd4be5db7d0492ed2346850a44ce78954d548b"),
    ("decompose-float-generator-full-accept", GEN_ACCEPT, ["decompose"], 0,
     "40b6afec9ae03f0c321236397c5e178b5e7b2c8f267df74fc973eae2bc2048f9",
     "5909d3b29c0d02474059ba27e131ba64116cd5b23b9c20460067d12c27664963"),
    ("classify-float-generator-full-accept", GEN_ACCEPT, ["classify"], 0,
     "76f56f946b3a34b9db7799090106ad19072a4126dd8bddb0a71c031cffba5316",
     "7b01538b9b519e3b9b90eac5220a2e518aae0f4b9db77f869b135dfe75ef2a73"),
    ("decompose-float-generator-full-reject", GEN_REJECT, ["decompose"], 2,
     "94b1c772fd56973b7f3ac910ee1d4863ede0a584b5680c3e99cc4eec6a1f84a5",
     "bb9b9f7a978482c698e4400751c4d938ed2c717371c2ac779b357ad8d41dec9c"),
    ("classify-float-generator-full-reject", GEN_REJECT, ["classify"], 2,
     "7bdf7b2e671d73e8a9218681baa18f72c5f19d5bb50605b84e52b3939438b8d3",
     "518086c5f7d2ecc79c56e4dce45d796a31f0a801a1b6fa5aa0751965faab0113"),
    ("decompose-float-generator-full-codomain-reject", GEN_REJECT_CODOMAIN, ["decompose"], 2,
     "0b18a22f7c8fd3287abaa9f68000cc30453cc2563517ebd73d4fed62f4d4e46d",
     "92689a09ae31211441196fda90d19d4399eca8846b4f1798a48d059159480005"),
    ("classify-float-generator-full-codomain-reject", GEN_REJECT_CODOMAIN, ["classify"], 2,
     "921aa9f8f807f8cf6533d9716e92db4be09e21ef02974569d0adf7cf82ffedc1",
     "d04bc7ab6c3ceb877920bba6ee9db5b34f65f86238a77300837872fd3d2c26c1"),
    ("decompose-exact-escaped-labels", ESCAPED_LABELS, ["decompose", "--mode", "exact"], 0,
     "f98e998bdc3323902ebc5e4c248816eb0c2478ee69192c392508692839508657",
     "b8659b5d49c6fe6e9d47be3498c060da83894a8f91a75304b85150eb2d61afa8"),
    ("decompose-float-generator-proper-reject", GEN_PROPER_REJECT, ["decompose"], 2,
     "60d0b29a2e88c27cbe0eb04b09988762a297633d1d17daf28ae62ed31591410f",
     "1ca5a46d427dce7aa625c0dd22bdfd1cc65e1b74ce33c42dbec976dc0a061de6"),
    ("decompose-exact-generator-proper-reject", GEN_PROPER_REJECT,
     ["decompose", "--mode", "exact"], 2,
     "24fc028acedfbfd5eb71bb9aaef407ce50b51b6a3c6a2f5de2e5291367b98043",
     "e9a12bde6e6709217797af63681ace6c4a62212f241e6a07889e1dd8e66cfc01"),
    ("decompose-float-generator-full-singular", GEN_SINGULAR, ["decompose"], 2,
     "2d6ff2ba986e6d1d80662fe79df6ea8e16a72a20c3636c2a323fca56c429b53c",
     "2171c7bc389372ff76634d216264e6da1c84bc3892fcc2f7b35f95f70ddefe2f"),
    ("classify-float-generator-full-singular", GEN_SINGULAR, ["classify"], 2,
     "1caecafef40b44fb8ea028a308c1bb638bf52f4fa3a45dc06c172467e33c6276",
     "0f97f02c6283cc35f2b02546c2e74a0629330d6fd6b20a1d44903a66477eda9d"),
    ("decompose-float-generator-full-numerically-singular", GEN_NUMERICALLY_SINGULAR,
     ["decompose"], 2,
     "c808b5882b6b7c6e22310fa401f86e62fdf7d3655343d052801bd83938a70086",
     "88028fe05c0aad7fe1a7a25e3c566a7fa849be22e1ab950015f2b394567c565c"),
    ("classify-float-generator-full-numerically-singular", GEN_NUMERICALLY_SINGULAR,
     ["classify"], 2,
     "f734a7911c18c091e29cf96c122b19752a52bd9d78feddfeae557332e6273533",
     "ac288e77002f7d89a0d6a6ce4ebbd268017d6f9dfea642ebfa783e772ab031a2"),
]


@pytest.mark.parametrize("case, doc, argv, code, digest, full", CASES,
                         ids=[c[0] for c in CASES])
def test_report_digest(tmp_path, capsys, case, doc, argv, code, digest, full):
    _check_digest(tmp_path, capsys, case, doc, argv, code, digest, full)


@pytest.mark.parametrize("case, doc, argv, code, digest, full", CASES,
                         ids=[c[0] for c in CASES])
def test_report_digest_without_orjson(tmp_path, capsys, monkeypatch, case, doc, argv, code,
                                      digest, full):
    # the stdlib decoder alone, as when orjson is not installed: the same bytes
    monkeypatch.setattr(serialize, "orjson", None)
    _check_digest(tmp_path, capsys, case, doc, argv, code, digest, full)


def _check_digest(tmp_path, capsys, case, doc, argv, code, digest, full):
    if doc is not None:
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        argv = argv[:1] + [str(path)] + argv[1:]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert json.loads(out)["digest"] == digest
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == full
