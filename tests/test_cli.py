import json
import math
import os
import re
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from monoball import cli
from monoball.bohr import CharSet, linbohr
from monoball.errors import FalsifiedError
from monoball.groups import build_group, cyclic_group, permutation_group
from monoball.harmonic import linear_characters


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _group_file(tmp_path, spec):
    return _write(tmp_path, "group.json", spec)


def _set_file(tmp_path, indices, **extra):
    return _write(tmp_path, "set.json", {"indices": indices, **extra})


def _run(args, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = cli.main(args + ["--out", out])
    captured = capsys.readouterr()
    report = json.loads(open(out).read()) if "--format" not in args else None
    return code, captured, report


# ---------------------------------------------------------------------------
# happy paths


def test_group_info_q8(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "quaternion8"})
    code, cap, report = _run(["group-info", "--group", g], tmp_path, capsys)
    assert code == 0
    assert cap.out.count("\n") == 1 and "order 8" in cap.out
    r = report["result"]
    assert r["order"] == 8 and not r["abelian"]
    assert r["class_count"] == 5 and r["linear_character_count"] == 4
    assert r["center_size"] == 2 and r["exponent"] == 4


def test_growth_interval_law(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 100})
    s = _set_file(tmp_path, [99, 0, 1])
    code, cap, report = _run(["growth", "--group", g, "--set", s, "--nmax", "20"],
                             tmp_path, capsys)
    assert code == 0
    assert report["result"]["sizes"] == [min(2 * n + 1, 100) for n in range(21)]


def test_growth_nmax1_single_row_csv(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 100})
    s = _set_file(tmp_path, [99, 0, 1])
    out = str(tmp_path / "growth.csv")
    code = cli.main(["growth", "--group", g, "--set", s, "--nmax", "1",
                     "--format", "csv", "--out", out])
    assert code == 0
    assert open(out).read() == "n,size\n1,3\n"


def test_chartable_q8(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "quaternion8"})
    code, cap, report = _run(["chartable", "--group", g], tmp_path, capsys)
    assert code == 0
    r = report["result"]
    assert r["dims"] == [1, 1, 1, 1, 2]
    assert sorted(r["class_sizes"]) == [1, 1, 2, 2, 2]
    trivial = r["table"][0]
    assert all(cell == [1.0, 0.0] for cell in trivial)


def test_monomial_q8(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "quaternion8"})
    code, cap, report = _run(["monomial", "--group", g], tmp_path, capsys)
    assert code == 0
    r = report["result"]
    assert r["monomial"] is True
    two_dim = [c for c in r["certificates"] if c["dim"] == 2]
    assert len(two_dim) == 1 and two_dim[0]["subgroup_size"] == 4


def test_bohr_matches_library(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    s = _set_file(tmp_path, [0, 1])
    code, cap, report = _run(["bohr", "--group", g, "--set", s, "--delta", "1/6"],
                             tmp_path, capsys)
    assert code == 0
    group = cyclic_group(12)
    lin = linear_characters(group)
    from fractions import Fraction
    expected = linbohr(CharSet.build(group, [lin[0], lin[1]]), Fraction(1, 6))
    assert report["result"]["ball_indices"] == list(expected.indices())


@pytest.mark.parametrize("command", ["bohr", "metric-dim"])
def test_character_set_honours_normalize(tmp_path, capsys, command):
    # on C12 character i is x -> i x / 12: the negation of 1 is 11, the trivial one 0
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    args = [command, "--group", g, "--delta", "1/6"]

    def report(spec):
        code, cap, rep = _run(args + ["--set", _write(tmp_path, "set.json", spec)],
                              tmp_path, capsys)
        assert code == 0, cap.err
        return rep

    normal = {"symmetrize": True, "add_identity": True}
    assert report({"indices": [1], "normalize": normal}) == report({"indices": [0, 1, 11]})
    assert report({"indices": [1], "normalize": {"conjugation_close": True}}) == \
        report({"indices": [1]})
    assert report({"indices": [1], "normalize": normal})["result"]["charset_size"] == 3


@pytest.mark.parametrize("command", ["bohr", "metric-dim"])
def test_character_set_refuses_s_indices(tmp_path, capsys, command):
    """The schema allows 's_indices' in every set spec; only the character side
    has no S to read it as."""
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    s = _set_file(tmp_path, [0, 1], s_indices=[0, 1])
    code = cli.main([command, "--group", g, "--set", s, "--delta", "1/6"])
    err = capsys.readouterr().err
    assert code == 1 and "'s_indices'" in err and "Traceback" not in err


def test_lspec_subgroup(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    s = _set_file(tmp_path, [0, 4, 8])
    code, cap, report = _run(["lspec", "--group", g, "--set", s, "--eps", "1"],
                             tmp_path, capsys)
    assert code == 0
    r = report["result"]
    assert r["spectrum_size"] == 4
    assert r["values"] == [0.25, 0.25, 0.25, 0.25]


def test_metric_dim_doubling_bound(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    s = _set_file(tmp_path, [1])
    code, cap, report = _run(["metric-dim", "--group", g, "--set", s, "--delta", "1/4"],
                             tmp_path, capsys)
    assert code == 0
    r = report["result"]
    assert r["doubling_bound"] == 2
    assert r["dimension"] <= 2.0


def test_energy_pass(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 16})
    s = _set_file(tmp_path, [15, 0, 1], s_indices=[0, 1])
    code, cap, report = _run(["energy", "--group", g, "--set", s,
                              "--eps", "19/20", "--k", "4"], tmp_path, capsys)
    assert code == 0
    r = report["result"]
    assert all(h["status"] == "holds" for h in r["hypotheses"])
    assert r["lhs_ge_mid"] and r["mid_ge_rhs"] and r["nonlinear_scan_ok"]


def test_energy_hypothesis_not_met_exit2(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "heisenberg", "p": 3})
    s = _set_file(tmp_path, [9, 3],
                  normalize={"symmetrize": True, "add_identity": True,
                             "conjugation_close": True})
    code, cap, report = _run(["energy", "--group", g, "--set", s,
                              "--eps", "1/2", "--k", "2"], tmp_path, capsys)
    assert code == 2
    assert "hypothesis not met" in cap.out
    assert any(h["status"] == "fails" for h in report["result"]["hypotheses"])


def test_cover_small_branch(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "heisenberg", "p": 3})
    s = _set_file(tmp_path, list(range(27)))
    code, cap, report = _run(["cover", "--group", g, "--set", s, "--eps", "1/4"],
                             tmp_path, capsys)
    assert code == 0
    r = report["result"]
    assert r["branch"] == "small" and r["eps_inverse"] == "4"
    assert r["x_phases"] is None


def test_cover_covered_branch(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "heisenberg", "p": 3})
    s = _set_file(tmp_path, list(range(27)))
    code, cap, report = _run(["cover", "--group", g, "--set", s, "--eps", "1/16"],
                             tmp_path, capsys)
    assert code == 0
    r = report["result"]
    assert r["branch"] == "covered" and r["covering_ok"] is True
    assert r["x_size"] == 0


def test_cover_hypothesis_not_met_exit2(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 100})
    s = _set_file(tmp_path, [99, 0, 1])
    code, cap, report = _run(["cover", "--group", g, "--set", s, "--eps", "1/4"],
                             tmp_path, capsys)
    assert code == 2
    assert any(h["status"] == "fails" for h in report["result"]["hypotheses"])


def test_appendix_pass(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 100})
    s = _set_file(tmp_path, [99, 0, 1])
    code, cap, report = _run(["appendix", "--group", g, "--set", s, "--nmax", "10"],
                             tmp_path, capsys)
    assert code == 0
    r = report["result"]
    assert r["all_ok"] and len(r["rows"]) == 9
    assert all(row["inclusion_ok"] for row in r["rows"])


# ---------------------------------------------------------------------------
# the pipeline report: schema validity and byte determinism


def test_freiman_report_validates_and_is_deterministic(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "heisenberg", "p": 3})
    s = _set_file(tmp_path, [9, 3],
                  normalize={"symmetrize": True, "add_identity": True,
                             "conjugation_close": True})
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert cli.main(["freiman", "--group", g, "--set", s, "--out", out1]) == 0
    assert cli.main(["freiman", "--group", g, "--set", s, "--out", out2]) == 0
    b1, b2 = open(out1, "rb").read(), open(out2, "rb").read()
    assert b1 == b2
    import monoball
    schema_path = f"{list(monoball.__path__)[0]}/schemas/pipeline_report.json"
    schema = json.loads(open(schema_path).read())
    jsonschema.validate(json.loads(b1), schema)


def test_freiman_report_fields(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 128})
    s = _set_file(tmp_path, [127, 0, 1])
    code, cap, report = _run(["freiman", "--group", g, "--set", s], tmp_path, capsys)
    assert code == 0
    r = report["result"]
    assert r["l"] == 6 and r["k_ratio"] == "13/11"
    assert r["eps"] == "1/492"
    assert r["aa_inv_in_ball"] is True
    assert r["size_ratio"] == "128/3"
    assert all(c["ok"] for c in r["checks"])
    statuses = {e["status"] for e in r["ledger"]}
    assert statuses <= {"holds", "fails", "clipped", "unchecked"}


# ---------------------------------------------------------------------------
# exit-code properties


def test_malformed_json_exit1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"type": "cyclic", n: 12}')
    code = cli.main(["group-info", "--group", str(p)])
    cap = capsys.readouterr()
    assert code == 1
    assert "line 1 column" in cap.err


def test_missing_flags_exit1(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    assert cli.main(["growth", "--group", g]) == 1
    assert cli.main(["lspec", "--group", g, "--set",
                     _set_file(tmp_path, [0])]) == 1     # no --eps
    assert cli.main(["group-info"]) == 1                 # no --group
    capsys.readouterr()


def test_argument_errors_exit1(tmp_path, capsys):
    # exit 2 would read as a failed hypothesis
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    for argv, message in ((["group-info", "--group", g, "--seed", "0"],
                           "unrecognized arguments: --seed 0"),
                          (["freiman", "--nmax", "abc"], "invalid int value: 'abc'"),
                          (["nonsense"], "invalid choice: 'nonsense'")):
        assert cli.main(argv) == 1
        assert message in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()


def test_one_parser_serves_every_call(tmp_path, capsys):
    """`main` reuses one parser: an option given in one call is not a default
    in the next, and a bad argument after them still exits 1."""
    g = _group_file(tmp_path, {"type": "cyclic", "n": 128})
    s = _set_file(tmp_path, [127, 0, 1])
    args = ["freiman", "--group", g, "--set", s]
    code, _, report = _run(args + ["--eps", "1/128"], tmp_path, capsys)
    assert code == 0 and report["result"]["eps"] == "1/128"
    code, _, report = _run(args, tmp_path, capsys)
    assert code == 0 and report["result"]["eps"] == "1/492"
    assert cli._build_parser() is cli._build_parser()
    assert cli.main(args + ["--nmax", "abc"]) == 1
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_bad_indices_exit1(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    s = _set_file(tmp_path, [0, 200])
    code = cli.main(["growth", "--group", g, "--set", s, "--nmax", "4"])
    cap = capsys.readouterr()
    assert code == 1 and "outside" in cap.err


_S3_TABLE = permutation_group(3, [[1, 0, 2], [0, 2, 1]]).mul_table.tolist()

# malformed group specs, each with the message it exits 1 with
_MALFORMED_SPECS = [
    ({"type": "table", "mul": [[4294967296]]}, "entry at (0,0) is outside 0..0"),
    ({"type": "table", "mul": [[0, 4294967297], [1, 0]]}, "entry at (0,1) is outside 0..1"),
    ({"type": "table", "mul": [[2 ** 70]]}, "entry at (0,0) is outside 0..0"),
    ({"type": "table", "mul": 5}, "multiplication table must be square"),
    ({"type": "table", "mul": _S3_TABLE, "labels": ["a", "b"]}, "2 labels for 6 elements"),
    ({"type": "table", "mul": [[0, 1], [1]]}, "rows must be lists of integers of one length"),
    ({"type": "table", "mul": [[0, [1]], [1, 0]]}, "rows must be lists of integers"),
    ({"type": "table", "mul": [[0.5]]}, "entry at (0,0) is not an integer"),
    ({"type": "table", "mul": [[True]]}, "entry at (0,0) is not an integer"),
    ({"type": "cyclic", "n": 2.7}, "n must be an integer, not 2.7"),
    ({"type": "dihedral", "order": 4.5}, "order must be an integer, not 4.5"),
    ({"type": "heisenberg", "p": 2.5}, "p must be an integer, not 2.5"),
    ({"type": "permutation", "degree": 2.5, "generators": [[1, 0]]},
     "degree must be an integer, not 2.5"),
    ({"type": "permutation", "degree": 2, "generators": [[1.5, 0]]},
     "generator 0 is not a permutation of 0..1"),
    ({"type": "table", "mul": [[0, 1], [1, False]]}, "entry at (1,1) is not an integer"),
]


@pytest.mark.parametrize("spec, message", _MALFORMED_SPECS)
def test_malformed_group_spec_exit1(tmp_path, capsys, spec, message):
    g = _group_file(tmp_path, spec)
    code = cli.main(["group-info", "--group", g])
    cap = capsys.readouterr()
    assert code == 1 and message in cap.err and "Traceback" not in cap.err


def test_malformed_group_specs_fail_the_schema():
    import monoball
    schema_path = f"{list(monoball.__path__)[0]}/schemas/group_spec.json"
    validator = jsonschema.Draft7Validator(json.loads(open(schema_path).read()))
    # the schema holds no order: it cannot bound entries by it, nor tie the
    # labels or the rows to it
    beyond = {"[[4294967296]]", "[[0, 4294967297], [1, 0]]", f"[[{2 ** 70}]]", "[[0, 1], [1]]"}
    for spec, _ in _MALFORMED_SPECS:
        within = "labels" in spec or json.dumps(spec.get("mul")) in beyond
        assert validator.is_valid(spec) == within, spec
    # as in JSON Schema, an integral float is an integer
    for spec in ({"type": "cyclic", "n": 2.0}, {"type": "table", "mul": [[0.0, 1.0], [1.0, 0.0]]},
                 {"type": "permutation", "degree": 2.0, "generators": [[1.0, 0]]}):
        assert validator.is_valid(spec) and build_group(spec).order == 2


# set specs read their integers as group specs do: a bool is not one, an
# integral float is; `growth` reads indices and s_indices, `bohr` character
# indices; both refuse what the schema does not name, and a spec the schema
# rejects exits 1 with the message given here
_INTS = "'indices' must be a list of integers"
_S_INTS = "'s_indices' must be a list of integers"
_SET_SPECS = [
    ("growth", {"indices": [True, 0, 7]}, _INTS),
    ("growth", {"indices": [1.0, 0, 7]}, None),
    ("growth", {"indices": [1.5, 0, 7]}, _INTS),
    ("growth", {"indices": [1, 0, 7], "s_indices": [0, False]}, _S_INTS),
    ("growth", {"indices": [1, 0, 7], "s_indices": [0.0, 1.0]}, None),
    ("bohr", {"indices": [False, 1]}, _INTS),
    ("bohr", {"indices": [0.0, 1.0]}, None),
    ("bohr", {"indices": [0, 1], "normalise": {}}, "unknown key 'normalise'"),
    ("growth", {"indices": [0], "s_indices": 5}, _S_INTS),
    ("growth", {"indices": [1.0, 0, 7], "normalize": {"symmetrize": True}}, None),
    ("growth", {"indices": [0, 1, 7], "normalize": True}, "'normalize' must be an object"),
    ("growth", {"indices": [0, 1, 7], "normalize": [True]}, "'normalize' must be an object"),
    ("growth", {"indices": [0, 1, 7], "normalize": {"symmetrize": "no"}},
     "'normalize.symmetrize' must be true or false"),
    ("growth", {"indices": [0, 1, 7], "normalize": {"add_identity": 1}},
     "'normalize.add_identity' must be true or false"),
    ("growth", {"indices": [0, 1, 7], "normalise": {"symmetrize": True}},
     "unknown key 'normalise'"),
    ("growth", {"indices": [0, 1, 7], "normalize": {"symetrize": True}},
     "unknown key 'normalize.symetrize'"),
    ("bohr", {"indices": [0, 1], "s_indices": 5}, _S_INTS),
]
_COMMAND_ARGS = {"growth": ["--nmax", "4"], "bohr": ["--delta", "1/6"]}


@pytest.mark.parametrize("command, spec, message", _SET_SPECS,
                         ids=[f"{c}-spec{i}" for i, (c, _, _) in enumerate(_SET_SPECS)])
def test_set_spec_exit_code_agrees_with_the_schema(tmp_path, capsys, command, spec, message):
    import monoball
    schema_path = f"{list(monoball.__path__)[0]}/schemas/set_spec.json"
    validator = jsonschema.Draft7Validator(json.loads(open(schema_path).read()))
    assert validator.is_valid(spec) == (message is None)
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    args = [command, "--group", g, *_COMMAND_ARGS[command]]
    out = str(tmp_path / "report.json")
    code = cli.main(args + ["--set", _write(tmp_path, "spec.json", spec), "--out", out])
    err = capsys.readouterr().err
    assert (code == 0) == validator.is_valid(spec), err
    if code == 0:           # the same report as the spec with ints
        report = open(out).read()
        ints = {k: [int(i) for i in v] if isinstance(v, list) else v for k, v in spec.items()}
        assert cli.main(args + ["--set", _write(tmp_path, "ints.json", ints), "--out", out]) == 0
        assert open(out).read() == report
    else:
        assert code == 1 and message in err and "Traceback" not in err


def test_cap_exceeded_exit1_with_advice(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 200})
    code = cli.main(["monomial", "--group", g])
    cap = capsys.readouterr()
    assert code == 1
    assert "raise --cap" in cap.err


def test_table_budget_exit1(tmp_path, capsys):
    # a well-formed spec whose int32 table would take 40 GB
    g = _group_file(tmp_path, {"type": "product", "factors": [{"type": "cyclic", "n": 1000},
                                                              {"type": "cyclic", "n": 100}]})
    code = cli.main(["group-info", "--group", g])
    err = capsys.readouterr().err
    assert code == 1 and "the table of order 100000 needs 40000000000 bytes" in err


def test_cap_advice_only_where_cap_applies(tmp_path, capsys):
    # the character-table cap is fixed; --cap moves only the monomial search,
    # so a monomial run above the table cap gets no advice, whether it clears
    # --cap and trips the table cap or trips --cap first
    g = _group_file(tmp_path, {"type": "cyclic", "n": 300})
    for argv, message in ((["chartable"], "refused at order 300 > 256"),
                          (["monomial", "--cap", "1000"], "refused at order 300 > 256"),
                          (["monomial"], "refused at order 300 > 128")):
        code = cli.main(argv + ["--group", g])
        cap = capsys.readouterr()
        assert code == 1
        assert message in cap.err
        assert "--cap" not in cap.err


def test_growth_without_nmax_exit1(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    s = _set_file(tmp_path, [0, 4, 8])
    code = cli.main(["growth", "--group", g, "--set", s])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert "monoball growth: the following arguments are required: --nmax" in err


# the flags each command takes beyond --group, --out and --format: its
# required ones, then its optional ones; 54 (command, flag) pairs in all
_COMMAND_FLAGS = {
    "group-info": ((), ()),
    "growth": (("--set", "--nmax"), ()),
    "chartable": ((), ()),
    "monomial": ((), ("--cap",)),
    "bohr": (("--set", "--delta"), ()),
    "lspec": (("--set", "--eps"), ()),
    "metric-dim": (("--set", "--delta"), ()),
    "energy": (("--set", "--eps", "--k"), ()),
    "cover": (("--set", "--eps"), ("--d",)),
    "freiman": (("--set",), ("--eps", "--nmax", "--constant-c")),
    "appendix": (("--set",), ("--nmax",)),
}
# one valid value for every flag; parsing stops before any file is read
_FLAG_VALUES = {"--group": "g.json", "--set": "s.json", "--eps": "1/8", "--delta": "1/8",
                "--k": "3", "--d": "2", "--nmax": "4", "--constant-c": "2", "--cap": "1000",
                "--out": "r.json", "--format": "csv"}


def _required(command):
    return ("--group",) + _COMMAND_FLAGS[command][0]


def _argv(command, flags):
    return [command] + [x for flag in flags for x in (flag, _FLAG_VALUES[flag])]


_UNREAD = [(c, f) for c, (req, opt) in _COMMAND_FLAGS.items() for f in _FLAG_VALUES
           if f not in ("--group", "--out", "--format") + req + opt]


@pytest.mark.parametrize("command, flag", _UNREAD, ids=[f"{c}{f}" for c, f in _UNREAD])
def test_unread_flag_exit1(capsys, command, flag):
    assert cli.main(_argv(command, _required(command) + (flag,))) == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {_FLAG_VALUES[flag]}" in err
    assert f"monoball {command}: unrecognized arguments: {flag} {_FLAG_VALUES[flag]}\n" in err
    assert "Traceback" not in err


_MISSING = [(c, f) for c in _COMMAND_FLAGS for f in _required(c)]


@pytest.mark.parametrize("command, flag", _MISSING, ids=[f"{c}{f}" for c, f in _MISSING])
def test_missing_required_flag_exit1(capsys, command, flag):
    given = tuple(f for f in _required(command) if f != flag)
    assert cli.main(_argv(command, given)) == 1
    err = capsys.readouterr().err
    assert f"monoball {command}: the following arguments are required: {flag}\n" in err


@pytest.mark.parametrize("command", cli._HANDLERS)
def test_command_help_lists_its_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    req, opt = _COMMAND_FLAGS[command]
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", "--group", "--out", "--format", *req, *opt}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command, flag, message", [
    ("cover", "--d", "finite d"),
    ("freiman", "--constant-c", "constant_c must be positive and finite"),
], ids=["cover-d", "freiman-constant-c"])
def test_non_finite_float_option_exit1(tmp_path, capsys, value, command, flag, message):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    s = _set_file(tmp_path, [0, 4, 8])
    code = cli.main([command, "--group", g, "--set", s, "--eps", "1/8", f"{flag}={value}"])
    err = capsys.readouterr().err
    assert code == 1 and message in err and "Traceback" not in err


def test_bad_eps_exit1(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    s = _set_file(tmp_path, [0, 4, 8])
    code = cli.main(["lspec", "--group", g, "--set", s, "--eps", "fast"])
    cap = capsys.readouterr()
    assert code == 1 and "--eps" in cap.err


@pytest.mark.parametrize("eps, message", [("0", "eps must be positive"),
                                          ("-1/128", "eps must be positive"),
                                          ("1/64", "epsilon too large"), ("1/128", None),
                                          # a separate negative value is not an option
                                          (["--eps", "-1/128"],
                                           "eps must be positive, not -1/128")])
def test_freiman_eps_is_checked_before_any_group(tmp_path, capsys, monkeypatch, eps, message):
    built = []
    build = cli.build_group
    monkeypatch.setattr(cli, "build_group", lambda spec: built.append(spec) or build(spec))
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    s = _set_file(tmp_path, [0, 1, 11])
    flags = eps if isinstance(eps, list) else [f"--eps={eps}"]
    code = cli.main(["freiman", "--group", g, "--set", s, *flags,
                     "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    if message is None:
        assert code == 0 and len(built) == 1
    else:
        assert code == 1 and message in err and "Traceback" not in err
        assert built == []


def test_falsified_maps_to_exit3(tmp_path, capsys, monkeypatch):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})

    def boom(args):
        raise FalsifiedError("crafted failure")

    monkeypatch.setitem(cli._HANDLERS, "group-info", boom)
    code = cli.main(["group-info", "--group", g])
    cap = capsys.readouterr()
    assert code == 3 and "FALSIFIED" in cap.err


def test_csv_fallback_is_key_value(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "quaternion8"})
    out = str(tmp_path / "mono.csv")
    code = cli.main(["monomial", "--group", g, "--format", "csv", "--out", out])
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("monomial,") for line in lines)


# reports the writer must spell as json.dumps(indent=2, ensure_ascii=True) does
_WRITER_EDGES = {
    "empty": [[], {}, (), [[], {}], {"a": [], "b": {}}],
    "tuples": (1, (2, (3,)), ("x", 1.5)),
    "mixed": [1, "two", 3.0, None, [True, [False, {"k": [0]}]], {"n": None}],
    "non-ascii": ["h\u00e9llo", "\u2603", "\U0001f600", "tab\tquote\"back\\slash\n"],
    "\u00e9-key": {"\u2603": "\u00fc"},
    "non-finite": [math.nan, math.inf, -math.inf, 0.1, -0.0, 1e300, 5e-324],
    "bools-in-ints": [1, True, 0, False, 2],
    "bools": [True, False],
    "ints": [-1, 0, 2 ** 64, -(10 ** 40)],
    "scalar-keys": {1: "int", 2.5: "float", True: "bool", None: "null"},
}


@pytest.mark.parametrize("report", [_WRITER_EDGES, *({k: v} for k, v in _WRITER_EDGES.items())],
                         ids=["all", *_WRITER_EDGES])
def test_report_writer_matches_json_dumps(tmp_path, report):
    out = tmp_path / "report.json"
    cli.emit_report(report, "json", str(out))
    assert out.read_bytes() == (json.dumps(report, indent=2, ensure_ascii=True) + "\n").encode()


@pytest.mark.parametrize("bad", [
    np.int64(3), [1, 2, np.int64(3)], np.bool_(True), [np.bool_(False)], {(1, 2): 0},
    {np.int64(1): 0}, {1, 2}, object(),
], ids=["np-int", "np-int-in-ints", "np-bool", "np-bool-in-list", "tuple-key", "np-int-key",
        "set", "object"])
def test_report_writer_raises_where_json_dumps_does(tmp_path, bad):
    out = tmp_path / "report.json"
    with pytest.raises(TypeError) as expected:
        json.dumps({"result": bad}, indent=2, ensure_ascii=True)
    with pytest.raises(TypeError, match=re.escape(str(expected.value))):
        cli.emit_report({"result": bad}, "json", str(out))
    assert not out.exists()


def test_report_overwrites_a_longer_file_exactly(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("x" * 10000)
    cli.emit_report({"a": [1, 2]}, "json", str(out))
    assert out.read_bytes() == (json.dumps({"a": [1, 2]}, indent=2) + "\n").encode()
    cli.emit_report({"result": {"k": 1}}, "csv", str(out))
    assert out.read_bytes() == b"key,value\nk,1\n"


def test_report_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("x" * 1000)
    link.symlink_to(target)
    cli.emit_report({"b": 1}, "json", str(link))
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == '{\n  "b": 1\n}\n'


def test_report_to_a_device_is_written_not_truncated(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 6})
    assert cli.main(["group-info", "--group", g, "--out", os.devnull]) == 0


@pytest.mark.parametrize("out, message", [
    ("d", "cannot write d: [Errno 21] Is a directory: 'd'"),
    ("missing/x.json",
     "cannot write missing/x.json: [Errno 2] No such file or directory: 'missing/x.json'"),
], ids=["directory", "missing-parent"])
def test_report_write_errors_exit1(tmp_path, capsys, monkeypatch, out, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    g = _group_file(tmp_path, {"type": "cyclic", "n": 6})
    assert cli.main(["group-info", "--group", g, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_new_report_file_honours_umask(tmp_path):
    old = os.umask(0o027)
    try:
        cli.emit_report({"b": 1}, "json", str(tmp_path / "new.json"))
    finally:
        os.umask(old)
    assert (tmp_path / "new.json").stat().st_mode & 0o777 == 0o640


def test_report_is_not_truncated_at_open(tmp_path, monkeypatch):
    # on ext4 a truncate to zero at open makes close() start writeback; the
    # writer cuts the file to length after writing instead
    flags, os_open = [], os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return os_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    out = tmp_path / "report.json"
    out.write_text("x" * 1000)
    cli.emit_report({"b": 1}, "json", str(out))
    assert flags and not any(f & os.O_TRUNC for f in flags)


def test_module_entrypoint_subprocess(tmp_path, package_env):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 6})
    proc = subprocess.run([sys.executable, "-m", "monoball.cli",
                           "group-info", "--group", g],
                          capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0
    assert "order 6" in proc.stdout


def test_module_entrypoint_help_subprocess(package_env):
    proc = subprocess.run([sys.executable, "-m", "monoball.cli", "freiman", "--help"],
                          capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: monoball freiman")
    assert "--constant-c" in proc.stdout and "--cap" not in proc.stdout
