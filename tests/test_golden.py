"""Golden reports: the sha256 of each CLI run's JSON `result` body is pinned.

A refactor that keeps the reports byte-identical keeps every digest here.
A digest changes only with a deliberate change to what a report says; record
the new digests together with that change.
"""

import hashlib
import json

import pytest

from monoball import cli

HEIS3 = {"type": "heisenberg", "p": 3}
C360 = {"type": "cyclic", "n": 360}
NORMAL = {"symmetrize": True, "add_identity": True, "conjugation_close": True}
HEIS3_GENS = {"indices": [9, 3], "normalize": NORMAL}
C360_A = {"indices": [359, 0, 1]}
# the fat set of the spectral-energy fixture on Heis(3)
HEIS3_FAT = {"indices": [x for x in range(27) if x not in (12, 13, 14, 24, 25, 26)],
             "s_indices": [0, 9, 3]}

# (run id, command, group spec, set spec or None, extra arguments)
RUNS = [
    ("freiman-heis3", "freiman", HEIS3, HEIS3_GENS, []),
    ("freiman-d16", "freiman", {"type": "dihedral", "order": 16},
     {"indices": [1], "normalize": NORMAL}, []),
    ("freiman-c128", "freiman", {"type": "cyclic", "n": 128}, {"indices": [127, 0, 1]}, []),
    ("freiman-c2xheis3", "freiman",
     {"type": "product", "factors": [{"type": "cyclic", "n": 2}, HEIS3]},
     {"indices": [27, 9, 3], "normalize": NORMAL}, []),
    ("freiman-c3xd8", "freiman",
     {"type": "product", "factors": [{"type": "cyclic", "n": 3},
                                     {"type": "dihedral", "order": 8}]},
     {"indices": [8, 1, 4], "normalize": NORMAL}, []),
    ("lspec-c360", "lspec", C360, C360_A, ["--eps", "1/4"]),
    ("lspec-heis3", "lspec", HEIS3, HEIS3_GENS, ["--eps", "1/4"]),
    ("cover-c360", "cover", C360, C360_A, ["--eps", "1/16"]),
    ("cover-heis3", "cover", HEIS3, HEIS3_GENS, ["--eps", "1/16"]),
    ("bohr-c360", "bohr", C360, {"indices": [0, 1, 40, 359]}, ["--delta", "1/16"]),
    ("bohr-heis3", "bohr", HEIS3, {"indices": [0, 1, 4]}, ["--delta", "1/6"]),
    ("metric-dim-c360", "metric-dim", C360, {"indices": [1, 40]}, ["--delta", "1/8"]),
    ("metric-dim-heis3", "metric-dim", HEIS3, {"indices": [1, 2]}, ["--delta", "1/4"]),
    ("monomial-c360", "monomial", C360, None, []),
    ("monomial-heis3", "monomial", HEIS3, None, []),
    ("group-info-c360", "group-info", C360, None, []),
    ("group-info-heis3", "group-info", HEIS3, None, []),
    ("energy-c16", "energy", {"type": "cyclic", "n": 16},
     {"indices": [15, 0, 1], "s_indices": [0, 1]}, ["--eps", "19/20", "--k", "4"]),
    ("energy-heis3-fat", "energy", HEIS3, HEIS3_FAT, ["--eps", "9/10", "--k", "3"]),
    # |1 + zeta_8 + zeta_8^4|^2 = 1 is exactly the threshold at eps 4/3
    ("lspec-c8-tie", "lspec", {"type": "cyclic", "n": 8}, {"indices": [0, 1, 4]},
     ["--eps", "4/3"]),
]

# exit code and sha256 of json.dumps(report["result"], indent=2); None when
# the run writes no report
GOLDEN = {
    "freiman-heis3": (0, "0eb312e0a7faae780eeac648bc67a8105779bdb49d25df3560687d5285b4c1fc"),
    "freiman-d16": (0, "0655e6d14cdbb7950305b0cc769a942304a65045c9775bef1f4f03868f1b57ab"),
    "freiman-c128": (0, "9bf3d103b40c26c038cd2d77584e9b263eea0f80844d6a365bbcf52bc47bf5d5"),
    "freiman-c2xheis3": (0, "15ef2204e99c9b95118f4a05fd2c86d2c48cff1d407efdd152d0b5030898790e"),
    "freiman-c3xd8": (0, "6c83d8792c20e5a3ee17ed59da7831591b14b793c8cb922f8efac1f4e32e0149"),
    "lspec-c360": (0, "b1f20923201d04b000d360d704ed20918a53650ec53528d8c911e7353797b24d"),
    "lspec-heis3": (0, "c7629c61a74e8fad51a271dcc0a70caf813b9eec5d8cfa0542c12d4e24ce860d"),
    "cover-c360": (2, "60884d6bb351190f039e00f9d0716806944591b9dada5ca6f0043b6b5770e472"),
    "cover-heis3": (2, "5832ce9be1b7bd121178a6a1a1d07dddb6e217e50449d0f83ad5011345b69c4a"),
    "bohr-c360": (0, "39fc966f3e4b38ffddbd55fa7a6083d0f3b452a5fcb1347b272f95a9128e1a39"),
    "bohr-heis3": (0, "25ff6c8a072a2ba4088eab5eb85119a446d6cd84d7b11ab8a605d93561e920e0"),
    "metric-dim-c360": (0, "9d7cbefb106355af17d5d9939e5a6752d508ca94ac62a9c95b995c19c239871b"),
    "metric-dim-heis3": (0, "10093af28e17a32330bdb5b40e21d0ad76066d3425a24387d7eaa60d503c5fb1"),
    "monomial-c360": (1, None),
    "monomial-heis3": (0, "eafdddca3de5159c09bc6cd4c2fd1d7709b946332d3f9c0b9797a04acc3307a1"),
    "group-info-c360": (0, "6e808ce972652e8571c9dfa2c621ad8f8a8d4ee735ac381123192cda6a579467"),
    "group-info-heis3": (0, "2ae25e00e6af1fff823012739fc0a3b96f842408cca11fe6d967b2bdf8cbc26e"),
    "energy-c16": (0, "488d806602a704c045578b51ac17bb3d7c6e3ccdbb4a84aaddc4cf39fc66f6a0"),
    "energy-heis3-fat": (0, "ee4b83a7ebf9b1ef8295ba399c911d0a8fb3b597150c5cc8d395aa52a690aadc"),
    "lspec-c8-tie": (0, "a2c627d880182ae8165f60768a9baa4e13e33510e30ee96361cbe7acbfb58a30"),
}


def _result_digest(path) -> str:
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)["result"]
    return hashlib.sha256(json.dumps(result, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("run_id, command, group, set_spec, extra", RUNS,
                         ids=[r[0] for r in RUNS])
def test_golden_report(tmp_path, capsys, run_id, command, group, set_spec, extra):
    group_path = tmp_path / "group.json"
    group_path.write_text(json.dumps(group))
    argv = [command, "--group", str(group_path)]
    if set_spec is not None:
        set_path = tmp_path / "set.json"
        set_path.write_text(json.dumps(set_spec))
        argv += ["--set", str(set_path)]
    out = tmp_path / "report.json"
    code = cli.main(argv + extra + ["--out", str(out)])
    capsys.readouterr()
    digest = _result_digest(out) if out.exists() else None
    assert (code, digest) == GOLDEN[run_id]
