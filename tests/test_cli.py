import json
import subprocess
import sys

import jsonschema
import pytest

from monoball import cli
from monoball.bohr import CharSet, linbohr
from monoball.errors import FalsifiedError
from monoball.groups import cyclic_group
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


def test_bad_indices_exit1(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    s = _set_file(tmp_path, [0, 200])
    code = cli.main(["growth", "--group", g, "--set", s, "--nmax", "4"])
    cap = capsys.readouterr()
    assert code == 1 and "outside" in cap.err


def test_cap_exceeded_exit1_with_advice(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 200})
    code = cli.main(["monomial", "--group", g])
    cap = capsys.readouterr()
    assert code == 1
    assert "raise --cap" in cap.err


def test_bad_eps_exit1(tmp_path, capsys):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 12})
    s = _set_file(tmp_path, [0, 4, 8])
    code = cli.main(["lspec", "--group", g, "--set", s, "--eps", "fast"])
    cap = capsys.readouterr()
    assert code == 1 and "--eps" in cap.err


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


def test_module_entrypoint_subprocess(tmp_path, package_env):
    g = _group_file(tmp_path, {"type": "cyclic", "n": 6})
    proc = subprocess.run([sys.executable, "-m", "monoball.cli",
                           "group-info", "--group", g],
                          capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0
    assert "order 6" in proc.stdout
