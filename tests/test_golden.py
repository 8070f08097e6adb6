"""Golden reports: the sha256 of each CLI run's JSON `result` body is pinned,
and the file must be json.dumps(report, indent=2, ensure_ascii=True) of the
report the CLI handed to its writer.

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
C12 = {"type": "cyclic", "n": 12}
S4 = {"type": "permutation", "degree": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]}
NORMAL = {"symmetrize": True, "add_identity": True, "conjugation_close": True}
HEIS3_GENS = {"indices": [9, 3], "normalize": NORMAL}
C360_A = {"indices": [359, 0, 1]}
# the fat set of the spectral-energy fixture on Heis(3)
HEIS3_FAT = {"indices": [x for x in range(27) if x not in (12, 13, 14, 24, 25, 26)],
             "s_indices": [0, 9, 3]}
S3 = {"type": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
# the first proper balls, at eps 1/128: every other freiman run ends with a ball
# equal to its working group; C2200 reaches 275 of 2200 elements, S3 x C1065
# 801 of 6390, D8 x C993 996 of 7944 and A4 x C710 1068 of 8520 (one group from
# each class the paper names: supersolvable, nilpotent, solvable A-group)
C2200 = {"type": "cyclic", "n": 2200}
S3XC1065 = {"type": "product", "factors": [S3, {"type": "cyclic", "n": 1065}]}
S3XC1065_A = {"indices": [0, 1066, 2129, 2130, 3196, 4259, 4261, 5324, 5325]}
D8XC993 = {"type": "product", "factors": [{"type": "dihedral", "order": 8},
                                         {"type": "cyclic", "n": 993}]}
D8XC993_A = {"indices": [0, 993, 1986, 2979, 3973, 4964, 5959, 6950]}
A4 = {"type": "permutation", "degree": 4, "generators": [[1, 2, 0, 3], [1, 0, 3, 2]]}
A4XC710 = {"type": "product", "factors": [A4, {"type": "cyclic", "n": 710}]}
A4XC710_A = {"indices": [0, 711, 1420, 2839, 2841, 3551, 4969, 5679, 6389, 6391, 7100, 7810]}
S5 = {"type": "permutation", "degree": 5, "generators": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]}
# SL(2,3) acting on the nonzero vectors of F_3^2: not monomial
SL23 = {"type": "permutation", "degree": 8,
        "generators": [[3, 7, 2, 6, 1, 5, 0, 4], [5, 2, 0, 6, 3, 1, 7, 4]]}
# D8 relabelled by r^a -> 3, 6, 0, 1 and s r^a -> 7, 2, 5, 4: the identity is 3,
# and the least elements of the reflection classes swap their order
D8_RELABELLED = {"type": "table", "mul": [
    [3, 6, 4, 0, 2, 7, 1, 5], [6, 0, 5, 1, 7, 4, 3, 2], [4, 7, 3, 2, 0, 6, 5, 1],
    [0, 1, 2, 3, 4, 5, 6, 7], [2, 5, 0, 4, 3, 1, 7, 6], [7, 2, 1, 5, 6, 3, 4, 0],
    [1, 3, 7, 6, 5, 2, 0, 4], [5, 4, 6, 7, 1, 0, 2, 3]]}
# C4 x C6, whose G^ab is not cyclic, relabelled: (a, b) at 6a + b becomes
# C4XC6_LABEL[6a + b], so the identity is 23
C4XC6_LABEL = [23, 20, 4, 8, 2, 15, 17, 21, 9, 3, 5, 11, 6, 0, 18, 1, 12, 13, 22, 19, 10, 7,
               16, 14]


def _c4xc6_relabelled() -> dict:
    mul = [[0] * 24 for _ in range(24)]
    for x in range(24):
        for y in range(24):
            z = 6 * ((x // 6 + y // 6) % 4) + (x + y) % 6
            mul[C4XC6_LABEL[x]][C4XC6_LABEL[y]] = C4XC6_LABEL[z]
    return {"type": "table", "mul": mul}


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
    # characters listed in phase-tuple order on a table whose identity is not 0;
    # A is the image of {(0, 0), (±1, 0), (0, ±1), (2, 3)}
    ("lspec-c4xc6-relabelled", "lspec", _c4xc6_relabelled(),
     {"indices": [23, 17, 22, 20, 15, 1]}, ["--eps", "7/5"]),
    # power chains: monotone (A^30 = G), no identity (A^11 = G), a pure cycle
    ("growth-c60", "growth", {"type": "cyclic", "n": 60}, {"indices": [59, 0, 1]},
     ["--nmax", "40"]),
    ("growth-c12-no-identity", "growth", C12, {"indices": [2, 3]}, ["--nmax", "14"]),
    ("growth-c12-cycle", "growth", C12, {"indices": [1]}, ["--nmax", "14"]),
    ("appendix-c360", "appendix", C360, {"indices": [0, 1, 359, 49, 311]}, ["--nmax", "6"]),
    # nontrivial Bohr thresholds: 768/7 is not an integer, and the metric-dim
    # ball of C2 x Heis(3) doubles below the whole group
    ("bohr-c768", "bohr", {"type": "cyclic", "n": 768}, {"indices": [5, 96, 301]},
     ["--delta", "1/7"]),
    ("metric-dim-c2xheis3", "metric-dim",
     {"type": "product", "factors": [{"type": "cyclic", "n": 2}, HEIS3]},
     {"indices": [1, 5]}, ["--delta", "1/4"]),
    # character tables with irrational and zero entries, and S4, which is
    # monomial through a subgroup that is not normal
    ("chartable-q8", "chartable", {"type": "quaternion8"}, None, []),
    ("chartable-d16", "chartable", {"type": "dihedral", "order": 16}, None, []),
    ("chartable-heis3", "chartable", HEIS3, None, []),
    ("chartable-s4", "chartable", S4, None, []),
    # the class order: the identity's class first, then by least element
    ("chartable-s5", "chartable", S5, None, []),
    ("chartable-d8-relabelled", "chartable", D8_RELABELLED, None, []),
    ("monomial-s4", "monomial", S4, None, []),
    # S4 is not supersolvable, so its hypotheses go to the brute-force search
    ("freiman-s4", "freiman", S4, {"indices": [1], "normalize": NORMAL}, []),
    # every monomiality entry reads "fails", so the run is descriptive: exit 2
    ("freiman-sl23", "freiman", SL23, {"indices": [1], "normalize": NORMAL}, []),
    ("freiman-c2200-eps128", "freiman", C2200, {"indices": [2199, 0, 1]}, ["--eps", "1/128"]),
    ("freiman-s3xc1065-eps128", "freiman", S3XC1065, S3XC1065_A, ["--eps", "1/128"]),
    ("freiman-d8xc993-eps128", "freiman", D8XC993, D8XC993_A, ["--eps", "1/128"]),
    ("freiman-a4xc710-eps128", "freiman", A4XC710, A4XC710_A, ["--eps", "1/128"]),
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
    "lspec-c4xc6-relabelled":
        (0, "fbccff5bb78943d731cfd82e3767d888726543a2944b7131811fa7eb6c77849c"),
    "growth-c60": (0, "511eb3675f69f38ee2abd2bfbd0afd762b9682173f125afedb1dea253bbbdfb1"),
    "growth-c12-no-identity":
        (0, "9db5ee5155adb3b6cf6ce464fba4c1fb833b7265e27e30ebe1e9dfd167357c45"),
    "growth-c12-cycle": (0, "466a7197738f813e19f66ff3da930ecb33c8356d3d2103048339b1b8c5c6d079"),
    "appendix-c360": (0, "899be483d3dd40fdae34c076bdb10fabd6267f7a21c6d26358316e347a9d132f"),
    "bohr-c768": (0, "06e259bbd19c0840d3129bd90683514f77f1650ac724c3ce9ed4e1dabe43a771"),
    "metric-dim-c2xheis3":
        (0, "52b42e9fe581a80b80effd8424c2954912016b39668c23fb2920b45b22590270"),
    "chartable-q8": (0, "5ffe078a3b2cd61a114cda59a5481f2fe4cd0f9faacd045e3d79978834a370ce"),
    "chartable-d16": (0, "95d42054a8c03ae1ba9bbcb4519175e3bc9391386c71b1e9ab3a2201e6c57755"),
    "chartable-heis3": (0, "c45f260040c157f9e496f57fdd320a68d066372231cdb5112fc2454c54392c2e"),
    "chartable-s4": (0, "35e79a6182d537bee0490d147967fa1146110adbbd265221b6e3f332f6200e76"),
    "chartable-s5": (0, "d4e38d8779bf9abd9eaa34eece41f79cc13f49b90eeac0c310de62287800ef3e"),
    "chartable-d8-relabelled":
        (0, "183af5ce443331145d32d83df9ca7147873a5a0728b7b08ef2ce21a686daf731"),
    "monomial-s4": (0, "b5864d7c42fe5967249c0dca610674e8b32047f0a10b9bb499061df09e65cddd"),
    "freiman-s4": (0, "ea1af5991b30d901253a4ce0387a87165c7eaf5304521ae7701c1e0d40638cd6"),
    "freiman-sl23": (2, "3457dab9f2db0a736da72627ab134691ab0b5bfad6233a278f96612c3b35eacd"),
    "freiman-c2200-eps128":
        (0, "438033a57ec3d95144da26ad78f87d944db770a56a2b6ef53bac9144941716e6"),
    "freiman-s3xc1065-eps128":
        (0, "05e5af8289e90e820d8608e990d3bb4d80704f6f4a02cd7f1ba9f443c6fad268"),
    "freiman-d8xc993-eps128":
        (0, "6abc73c3135ea0fa3e45ae9d8bb54d704e05de89bcdb7bb46847155aa17b3624"),
    "freiman-a4xc710-eps128":
        (0, "7076db1220dca62c8a548e81c1eb389d198b56410630a15969b7cf0d13c537cb"),
}


def _result_digest(path) -> str:
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)["result"]
    return hashlib.sha256(json.dumps(result, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("run_id, command, group, set_spec, extra", RUNS,
                         ids=[r[0] for r in RUNS])
def test_golden_report(tmp_path, capsys, monkeypatch, run_id, command, group, set_spec, extra):
    group_path = tmp_path / "group.json"
    group_path.write_text(json.dumps(group))
    argv = [command, "--group", str(group_path)]
    if set_spec is not None:
        set_path = tmp_path / "set.json"
        set_path.write_text(json.dumps(set_spec))
        argv += ["--set", str(set_path)]
    out = tmp_path / "report.json"
    emitted, emit = [], cli.emit_report

    def spy(report, *args, **kwargs):
        emitted.append(report)
        emit(report, *args, **kwargs)

    monkeypatch.setattr(cli, "emit_report", spy)
    code = cli.main(argv + extra + ["--out", str(out)])
    capsys.readouterr()
    digest = _result_digest(out) if out.exists() else None
    assert (code, digest) == GOLDEN[run_id]
    if out.exists():        # the bytes written: json.dumps of the report handed to the writer
        text = out.read_text(encoding="utf-8")
        (report,) = emitted
        assert list(json.loads(text)) == ["tool", "version", "command", "result"]
        assert text == json.dumps(report, indent=2, ensure_ascii=True) + "\n"
