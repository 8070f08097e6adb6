"""Package-wide properties: result records are immutable tuples, and a cold
run imports neither mpmath nor more dataclass machinery than the stateful
classes need."""

import ast
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import monoball

# every result record: a NamedTuple, immutable, one namedtuple call per class
RECORDS = {
    "bohr": ("ContractionReport", "ChainStep", "BohrGrowthReport"),
    "groups": ("Subgroup", "SubgroupView", "Quotient"),
    "harmonic": ("CharacterTable", "FourierScalar", "MonomialCertificate", "LinearityScanRow",
                 "LinearityScanReport"),
    "metric": ("NormReport", "BallAxiomsReport", "GridPoint", "BourgainCertificate"),
    "pipeline": ("LedgerEntry", "StageCheck", "Prop81Report", "PipelineReport"),
    "setops": ("GrowthProfile", "FittedGrowth", "CoveringCertificate", "SetPredicates",
               "AppendixGrowthRow", "AppendixGrowthReport"),
    "spectra": ("HypothesisRecord", "LargeSpectrum", "SpectrumWeight", "SpectrumDistance",
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
