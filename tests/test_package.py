"""Package-wide properties: result records are immutable tuples, a cold run
imports neither mpmath nor more dataclass machinery than the stateful classes
need, and every conditional lemma keeps one contract: an unmet hypothesis is a
record that fails, and a claim is falsified only through `errors.conclude`."""

import ast
import importlib
import itertools
import json
import pathlib
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import monoball
from monoball.bohr import CharSet, cor53_check, prop51_check
from monoball.errors import FalsifiedError, HypothesisRecord, conclude
from monoball.groups import GroupSubset, cyclic_group
from monoball.metric import bourgain_radius, word_norm
from monoball.spectra import lspec_doubling_cover, lspec_size_check, spectral_energy_check

# every result record: a NamedTuple, immutable, one namedtuple call per class
RECORDS = {
    "bohr": ("ContractionReport", "BohrGrowthReport"),
    "errors": ("HypothesisRecord", "StageCheck"),
    "groups": ("SubgroupView", "CosetProjection"),
    "harmonic": ("CharacterTable", "FourierScalar", "MonomialCertificate", "LinearityScanRow",
                 "LinearityScanReport"),
    "metric": ("NormReport", "BallAxiomsReport", "GridPoint", "BourgainCertificate"),
    "pipeline": ("LedgerEntry", "Prop81Report", "PipelineReport"),
    "setops": ("GrowthProfile", "FittedGrowth", "CoveringCertificate", "SetPredicates",
               "AppendixGrowthRow", "AppendixGrowthReport"),
    "spectra": ("LargeSpectrum", "SpectrumWeight", "SpectrumDistance",
                "EnergyReport", "ChangCover", "WindowRow", "DoublingReport",
                "SpectrumSizeReport"),
}
# the classes that need __dict__ (cached properties), __post_init__, value
# hashing or dataclasses.replace stay dataclasses
DATACLASSES = {"groups.FiniteGroup", "groups.BitSet", "groups.ConjugacyPartition",
               "harmonic.LinearCharacter", "harmonic.ClassFunction", "harmonic.LinearPhases",
               "metric.PseudoMetricNorm", "pipeline.PipelineConfig"}
MODULES = ("errors", "groups", "setops", "harmonic", "metric", "bohr", "spectra", "pipeline",
           "cli")


@pytest.mark.parametrize("name", [f"{mod}.{cls}" for mod, classes in RECORDS.items()
                                  for cls in classes])
def test_result_records_are_immutable(name):
    mod, cls = name.split(".")
    record_type = getattr(importlib.import_module(f"monoball.{mod}"), cls)
    record = record_type(*[None] * len(record_type._fields))
    for field in record_type._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
    with pytest.raises(AttributeError):
        record.unknown_field = 1


def test_only_stateful_classes_are_dataclasses():
    # a subclass such as GroupSubset inherits BitSet's fields but is not processed again
    found = {f"{obj.__module__.removeprefix('monoball.')}.{obj.__name__}" for mod in MODULES
             for obj in vars(importlib.import_module(f"monoball.{mod}")).values()
             if isinstance(obj, type) and "__dataclass_fields__" in vars(obj)}
    assert found == DATACLASSES


def test_cold_freiman_runs_import_no_mpmath(tmp_path, package_env):
    """The cos table, floor(e/(2 pi)) and near ties of a large spectrum are all
    integer computations: neither `freiman` runs nor a near tie load mpmath.
    On C8 with A = {0, 1} the threshold 4 - 2 eps^2 of the `lspec` run is
    within 10^-16 of |1 + zeta_8|^2 = 2 + sqrt(2)."""
    normal = {"symmetrize": True, "add_identity": True, "conjugation_close": True}
    jobs = {"c768": ({"type": "cyclic", "n": 768}, {"indices": [767, 0, 1]}, "freiman", []),
            "heis3": ({"type": "heisenberg", "p": 3}, {"indices": [9, 3], "normalize": normal},
                      "freiman", []),
            "c8": ({"type": "cyclic", "n": 8}, {"indices": [0, 1]}, "lspec",
                   ["--eps", "27059805007309849/50000000000000000"])}
    argvs = []
    for label, (group, subset, command, extra) in jobs.items():
        for suffix, spec in (("group", group), ("set", subset)):
            (tmp_path / f"{label}.{suffix}.json").write_text(json.dumps(spec))
        argvs.append([command, "--group", str(tmp_path / f"{label}.group.json"),
                      "--set", str(tmp_path / f"{label}.set.json"),
                      "--out", str(tmp_path / f"{label}.report.json"), *extra])
    code = (
        "import sys\n"
        "import monoball\n"
        "from monoball import cli\n"
        "assert 'mpmath' not in sys.modules\n"
        f"for argv in {argvs!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert 'mpmath' not in sys.modules, argv\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env)
    assert proc.returncode == 0, proc.stderr


def test_every_definition_is_read_or_exported():
    """Each module-level function and class of the package is named by some
    file of src/ or bench/ outside its own definition, or exported by
    `monoball.__all__`: a helper only tests read belongs in the tests."""
    src = pathlib.Path(monoball.__file__).parent
    modules = sorted(src.glob("*.py"))
    named, defined = set(), {}
    for path in modules + sorted((src.parents[1] / "bench").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                     else n.name for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if path in modules:
                    defined[stmt.name] = f"{path.name}:{stmt.lineno}"
            named |= names
    unread = [f"{where} {name}" for name, where in defined.items()
              if name not in named and name not in monoball.__all__]
    assert unread == []


def test_every_import_is_read():
    """Each name a module of src/ imports is read in that module; `__init__.py`
    imports to export. The `from __future__` switches bind no name."""
    unread = []
    for path in sorted(pathlib.Path(monoball.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(a.asname or a.name.partition(".")[0]): node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for a in node.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unread == []



def test_falsified_error_is_raised_by_conclude_or_an_unconditional_check():
    """A conditional lemma reports an unmet hypothesis as a record and raises
    only through `errors.conclude`; the other raises are the checks that hold
    whatever the hypotheses, and no file names the retired HypothesisError."""
    raisers = []
    for path in sorted(pathlib.Path(monoball.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "HypothesisError" not in text, path.name
        for func in ast.walk(ast.parse(text)):
            if isinstance(func, ast.FunctionDef):
                raisers += [f"{path.stem}.{func.name}" for node in ast.walk(func)
                            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                            and ast.unparse(node.exc.func).endswith("FalsifiedError")]
    assert sorted(raisers) == ["cli._cmd_appendix", "errors.conclude",
                               "pipeline.freiman_ball", "pipeline.prop81_check"]



def _lemmas_with_a_failing_hypothesis():
    """Per conditional lemma: the call, the record that fails, and what the
    report says besides. Where the claim fails too (the C36 contraction, the
    size bound, the asymmetric growth chain), only that record keeps the call
    from raising."""
    c13, c16, c20, c36, c360 = (cyclic_group(n) for n in (13, 16, 20, 36, 360))
    sub = GroupSubset.from_indices
    a360 = sub(c360, [359, 0, 1])
    return {
        "spectral_energy_check": (
            lambda: spectral_energy_check(c16, sub(c16, [0, 1]), sub(c16, [0, 1]),
                                          Fraction(19, 20), 4),
            "A is symmetric and normal", lambda rep: rep.lhs is None),    # descriptive
        "lspec_doubling_cover": (
            lambda: lspec_doubling_cover(c360, sub(c360, [0, 2]), a360, Fraction(1, 16), 1.0),
            "S generates G and contains the identity", lambda rep: rep.covering_ok),
        "lspec_size_check": (
            lambda: lspec_size_check(c360, a360, a360, Fraction(1, 16), 1, 1.0),
            "k >= 16 eps^-2 d log(8 eps^-2 d)", lambda rep: not rep.ok),
        "cor53_check": (
            lambda: cor53_check(CharSet.from_indices(c36, (0, 1)), 3, Fraction(1, 6)),
            "k delta < 1/3", lambda rep: not rep.equal),
        "prop51_check-gamma": (
            lambda: prop51_check(CharSet.from_indices(c20, (0, 1)), CharSet.trivial(c20),
                                 Fraction(1, 32)),
            "Gamma is symmetric and contains the trivial character",
            lambda rep: not rep.all_inclusions_ok),
        "prop51_check-delta": (
            lambda: prop51_check(CharSet.trivial(c20), CharSet.trivial(c20), Fraction(1, 8)),
            "delta <= 2^-4", lambda rep: rep.all_inclusions_ok),
        "bourgain_radius": (
            lambda: bourgain_radius(word_norm(c13, sub(c13, [1, 12])), 2, 0.5),
            "ball dimension at delta <= d", lambda rep: rep.lam == Fraction(5, 4)),
    }


@pytest.mark.parametrize("lemma", list(_lemmas_with_a_failing_hypothesis()))
def test_an_unmet_hypothesis_is_a_failing_record(lemma):
    call, name, says = _lemmas_with_a_failing_hypothesis()[lemma]
    report = call()
    assert isinstance(report.hypotheses, tuple)
    assert {r.name: r.status for r in report.hypotheses}[name] == "fails"
    assert says(report)


def test_conclude_raises_exactly_when_no_record_fails_and_the_claim_fails():
    for statuses in itertools.product(("holds", "unchecked", "fails"), repeat=2):
        report = SimpleNamespace(hypotheses=[HypothesisRecord(f"h{i}", status)
                                             for i, status in enumerate(statuses)])
        assert conclude(report, True, "the claim") is report
        if "fails" in statuses:
            assert conclude(report, False, "the claim") is report
        else:
            with pytest.raises(FalsifiedError, match="the claim") as caught:
                conclude(report, False, "the claim")
            assert caught.value.report is report
