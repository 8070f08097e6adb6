"""The benchmark's three workloads: fixed job lists run one job at a time.

Each workload is a closed loop with one caller: a job starts only after the
previous one returned. `setup` is the program-side set-up that `setup_s`
times; `draw` makes one pass's inputs from the seeded generator; `run_pass`
times each job, checks its answer against `oracle` and returns a `PassResult`.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
from dataclasses import dataclass, field, fields
from fractions import Fraction
from time import perf_counter

import numpy as np

import oracle
from monoball import bohr, cli, groups, harmonic, metric, pipeline, setops, spectra

INJECTED = ("injected-bad-index", {"type": "cyclic", "n": 8}, {"indices": [8]}, [])


@dataclass
class PassResult:
    job_spans: list = field(default_factory=list)    # (start, end) on the workload's clock
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)        # oracle rejections
    errors: list = field(default_factory=list)       # raised or unexpected exit codes
    undecided: int = 0
    report_bytes: int = 0
    bodies: list = field(default_factory=list)
    complete: bool = True          # False when the run's deadline cut the pass short

    @property
    def job_times(self) -> list:
        return [end - start for start, end in self.job_spans]

    @property
    def wall(self) -> float:
        return sum(self.job_times)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for body in self.bodies:
            h.update(body.encode())
        return h.hexdigest()

    def fail(self, kind: list, label: str, why: str) -> None:
        self.failed += 1
        kind.append(f"{label}: {why}")

    def absorb(self, other: "PassResult") -> None:
        for f in fields(self):
            if f.name != "complete":
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _past(deadline) -> bool:
    return deadline is not None and perf_counter() >= deadline


def _cli_freiman(workdir, label, extra, clock):
    """One cold `monoball freiman` call in-process on the job's spec files;
    returns (exit code, (start, end), error, report path)."""
    base = os.path.join(workdir, label)
    out = base + ".report.json"
    argv = ["freiman", "--group", base + ".group.json", "--set", base + ".set.json",
            "--out", out] + extra
    sink = io.StringIO()
    code, error = None, None
    start = clock()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as exc:          # a raise is a failed job, not a crashed run
        error = f"raised {type(exc).__name__}: {exc}"
    return code, (start, clock()), error, out


# ---------------------------------------------------------------------------
# freiman-fixtures and freiman-ladder


class FreimanWorkload:
    def __init__(self, jobs, workdir, inject, clock=perf_counter):
        self.jobs = list(jobs) + ([INJECTED] if inject else [])
        self.workdir = workdir
        self.clock = clock
        self.tables = {}
        for _, group_spec, _, _ in self.jobs:
            key = json.dumps(group_spec, sort_keys=True)
            if key not in self.tables:
                self.tables[key] = oracle.Table(oracle.group_table(group_spec))

    def setup(self):
        for label, group_spec, set_spec, _ in self.jobs:
            base = os.path.join(self.workdir, label)
            for suffix, spec in ((".group.json", group_spec), (".set.json", set_spec)):
                with open(base + suffix, "w", encoding="utf-8") as fh:
                    json.dump(spec, fh)
        return None

    def draw(self, rng):
        return self.jobs

    def run_pass(self, state, jobs, deadline=None) -> PassResult:
        res = PassResult()
        for label, group_spec, set_spec, extra in jobs:
            if _past(deadline):
                res.complete = False
                break
            res.attempted += 1
            code, span, error, out = _cli_freiman(self.workdir, label, extra, self.clock)
            res.job_spans.append(span)
            if error is not None or code != 0:
                res.fail(res.errors, label, error or f"exit {code}, expected 0")
                continue
            with open(out, "rb") as fh:
                raw = fh.read()
            res.report_bytes += len(raw)
            report = json.loads(raw)
            res.bodies.append(label + json.dumps(report["result"], indent=2))
            table = self.tables[json.dumps(group_spec, sort_keys=True)]
            problem = oracle.check_freiman(table, set_spec, report)
            if problem is not None:
                res.fail(res.wrong, label, problem)
        return res


def _normal_set(indices):
    return {"indices": indices,
            "normalize": {"symmetrize": True, "add_identity": True, "conjugation_close": True}}


HEIS3 = {"type": "heisenberg", "p": 3}
C2_HEIS3 = {"type": "product", "factors": [{"type": "cyclic", "n": 2}, HEIS3]}

# the five criterion-10 runs of the acceptance suite
FIXTURES = [
    ("heis3", HEIS3, _normal_set([9, 3]), []),
    ("d16", {"type": "dihedral", "order": 16}, _normal_set([1]), []),
    ("c128", {"type": "cyclic", "n": 128}, {"indices": [127, 0, 1]}, []),
    ("c2xheis3", C2_HEIS3, _normal_set([27, 9, 3]), []),
    ("c3xd8", {"type": "product", "factors": [{"type": "cyclic", "n": 3},
                                              {"type": "dihedral", "order": 8}]},
     _normal_set([8, 1, 4]), []),
]

# above the monomiality cap of 128, with the formula eps, and C256 again with
# eps = 1/128; C768 is the order past the full-associativity limit of 512
# (C1024 took 8 to 14 s a job, too long to repeat within a run)
LADDER = [(f"c{n}{tag}", {"type": "cyclic", "n": n}, {"indices": [n - 1, 0, 1]}, extra)
          for n, tag, extra in ((256, "", []), (256, "-eps128", ["--eps", "1/128"]),
                                (512, "", []), (768, "", []))]


# ---------------------------------------------------------------------------
# query-sweep

SWEEP_GROUPS = {"c2xheis3": C2_HEIS3, "c360": {"type": "cyclic", "n": 360}}
SETS_PER_GROUP = 6
C360_SHAPE_SEED = 0
C360_UNITS = np.array([u for u in range(1, 360) if np.gcd(u, 360) == 1])
SPECTRUM_EPS = (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
DELTA = Fraction(1, 16)
GROWTH_N = 12
APPENDIX_N = 6


class _Query:
    """One drawn set A with lazily computed references."""

    def __init__(self, group, table, chars, a_idx):
        self.group = group
        self.table = table
        self.chars = chars
        self.a_idx = a_idx
        self.a = groups.GroupSubset.from_indices(group, a_idx.tolist())
        self._chain = None

    def chain(self, n):
        if self._chain is None or len(self._chain) <= n:
            self._chain = self.table.power_chain(self.a_idx, max(n, GROWTH_N + 2))
        return self._chain

    def sizes(self, n):
        return [len(c) for c in self.chain(n)[: n + 1]]


def _spectrum_job(eps):
    def run(q):
        spec = spectra.large_spectrum(q.a, eps)
        ball = bohr.linbohr(spec.members, DELTA)
        dim, _ = metric.ball_dimension(bohr.bohr_norm(spec.members), DELTA)
        return spec, ball, dim

    def check(q, out):
        spec, ball, dim = out
        mag = q.chars.mag_sq(q.a_idx)
        problem, undecided, rows = oracle.check_spectrum(q.chars, mag, len(q.a_idx), eps,
                                                         spec.members.chars)
        if problem is None:
            norms = q.chars.norms(rows)
            problem = oracle.check_ball(norms, q.chars.m, DELTA, ball.mask)
            want = oracle.ball_dimension(norms, q.chars.m, DELTA)
            if problem is None and abs(dim - want) > 1e-9:
                problem = f"ball_dimension {dim} but the reference gives {want}"
        body = f"lspec {eps}: {sorted(rows or [])} ball {ball.mask:x} dim {dim!r}"
        return problem, undecided, body

    return f"lspec-{eps.denominator}", run, check


def _growth_run(q):
    return setops.growth_profile(q.a, GROWTH_N)


def _growth_check(q, out):
    profile, fitted = out
    want = q.sizes(GROWTH_N)
    problem = None if list(profile.sizes) == want else f"sizes {profile.sizes}, BFS {want}"
    return problem, 0, f"growth {profile.sizes} {fitted.d!r}"


def _appendix_run(q):
    return setops.appendix_growth_check(q.a, APPENDIX_N)


def _appendix_check(q, rep):
    t = q.table
    d = t.product(q.a_idx, t.inv[q.a_idx])
    d_sizes = [len(c) for c in t.power_chain(d, APPENDIX_N)]
    a_sizes = q.sizes(APPENDIX_N)
    problem = None
    for row in rep.rows:
        if (row.size_a_n, row.size_d_n) != (a_sizes[row.n], d_sizes[row.n]):
            problem = f"row n={row.n} sizes differ from the BFS"
            break
    body = f"appendix {[(r.size_a_n, r.size_d_n, r.bound, r.inclusion_ok) for r in rep.rows]}"
    return problem, 0, body + f" {rep.all_ok}"


def _prop81_run(q):
    l, _ = pipeline.find_l(q.a)
    return l, pipeline.prop81_check(q.a, l, DELTA)


def _prop81_check(q, out):
    l, rep = out
    body = f"prop81 l={l} ball {rep.ball.mask:x}"
    chain = q.chain(q.table.order + 2)   # past saturation, so find_l ends
    want_l = oracle.find_l([len(c) for c in chain])
    if l != want_l:
        return f"find_l gave {l}, the BFS gives {want_l}", 0, body
    high = chain[l]
    mag = q.chars.mag_sq(high)
    problem, undecided, rows = oracle.check_spectrum(q.chars, mag, len(high), DELTA,
                                                     rep.spectrum.members.chars)
    if problem is not None:
        return problem, undecided, body
    radius_sq = 8 * DELTA ** 2 * Fraction(len(high), len(chain[l - 1]))
    norms = q.chars.norms(rows)
    want = np.flatnonzero(norms ** 2 * radius_sq.denominator
                          <= radius_sq.numerator * q.chars.m ** 2)
    if oracle.mask_of(want) != rep.ball.mask:
        return "spectrum Bohr set differs from the reference", undecided, body
    diff = q.table.product(q.a_idx, q.table.inv[q.a_idx])
    if oracle.mask_of(diff) & ~rep.ball.mask:
        return "AA^-1 escapes the spectrum Bohr set", undecided, body
    return None, undecided, body


def _cover_run(q):
    return spectra.lspec_doubling_cover(q.group, q.a, q.a, DELTA, 1)


def _cover_check(q, rep):
    body = f"cover {rep.branch} r={rep.r} scan {list(rep.scan)}"
    k_max = max((row.k for row in rep.window), default=0)
    sizes = q.sizes(k_max)
    for row in rep.window:
        if row.size != sizes[row.k]:
            return f"window size at k={row.k} differs from the BFS", 0, body
    mag = q.chars.mag_sq(q.a_idx)
    size = len(q.a_idx)
    half, half_open = q.chars.spectrum(mag, size, DELTA / 2)
    undecided = int(half_open.sum())
    for r, wide_count, cap in rep.scan:
        wide, wide_open = q.chars.spectrum(mag, size, (2 * r + Fraction(1, 2)) * DELTA)
        undecided += int(wide_open.sum())
        if not (wide_open.any() or half_open.any()):
            if (wide_count, cap) != (int(wide.sum()), 2 ** r * int(half.sum())):
                return f"scan row r={r} differs from the DFT", undecided, body
    return None, undecided, body


SWEEP_JOBS = [_spectrum_job(eps) for eps in SPECTRUM_EPS] + [
    ("growth", _growth_run, _growth_check),
    ("prop81", _prop81_run, _prop81_check),
    ("cover", _cover_run, _cover_check),
]
# appendix_growth_check raises on some sets while setops.ruzsa_cover asserts
# the wrong bound (README), so it runs only when asked for with --appendix
APPENDIX_JOB = ("appendix", _appendix_run, _appendix_check)


def _random_set(table, rng):
    """A symmetric, conjugation-closed set holding the identity, from 1 or 2 generators."""
    others = np.delete(np.arange(table.order), table.identity)
    gens = rng.choice(others, size=int(rng.integers(1, 3)), replace=False)
    return table.normalize(gens, symmetrize=True, add_identity=True, conjugation_close=True)


class SweepWorkload:
    def __init__(self, workdir, inject, appendix, clock=perf_counter):
        self.clock = clock
        self.jobs = SWEEP_JOBS[:4] + [APPENDIX_JOB] + SWEEP_JOBS[4:] if appendix else SWEEP_JOBS
        self.tables = {k: oracle.Table(oracle.group_table(s)) for k, s in SWEEP_GROUPS.items()}
        self.chars = {"c2xheis3": oracle.Characters.c2_x_heisenberg3(self.tables["c2xheis3"]),
                      "c360": oracle.Characters.cyclic(self.tables["c360"])}
        # the C360 shapes are one draw from a fixed generator, the same for every
        # seed: a C360 set costs 0.8 to 6 s, so seed-drawn shapes made the work of
        # a run depend on the seed far beyond the bounds
        master = np.random.default_rng(C360_SHAPE_SEED)
        self.c360_shapes = [_random_set(self.tables["c360"], master)
                            for _ in range(SETS_PER_GROUP)]
        self.injected = FreimanWorkload([INJECTED], workdir, False, clock) if inject else None
        if inject:
            self.injected.setup()

    def setup(self):
        """Build both groups and compute Lin(G) once, as a warm-up."""
        built = {k: groups.build_group(spec) for k, spec in SWEEP_GROUPS.items()}
        for g in built.values():
            harmonic.linear_characters(g)
        return built

    def draw(self, rng):
        """One pass's sets: fresh random ones in C2 x Heis(3), and each C360
        shape relabeled by a random automorphism x -> u x."""
        sets = [("c2xheis3", _random_set(self.tables["c2xheis3"], rng))
                for _ in range(SETS_PER_GROUP)]
        for shape in self.c360_shapes:
            u = int(rng.choice(C360_UNITS))
            sets.append(("c360", np.unique(shape * u % 360)))
        return sets

    def run_pass(self, warm, sets, deadline=None) -> PassResult:
        """Queries copies of the warm groups, made before the first job and
        not timed: monoball keeps the Fourier magnitudes of every set it has
        seen on the group, so a pass on the same objects would find sets of
        earlier passes there (a subgroup such as A^l is the same under every
        relabeling), and cost less the more passes the run had made."""
        built = {key: copy.deepcopy(g) for key, g in warm.items()}
        res = PassResult()
        if self.injected is not None:
            res.absorb(self.injected.run_pass(None, self.injected.jobs))
        for key, a_idx in sets:
            g = built[key]
            if not np.array_equal(g.mul_table, self.tables[key].mul):
                raise RuntimeError(f"monoball's {key} table differs from the reference")
            q = _Query(g, self.tables[key], self.chars[key], a_idx)
            label = f"{key}{a_idx.tolist()}"
            for name, run, check in self.jobs:
                if _past(deadline):
                    res.complete = False
                    return res
                res.attempted += 1
                start = self.clock()
                try:
                    out = run(q)
                except Exception as exc:      # a raise is a failed job, not a crashed run
                    res.job_spans.append((start, self.clock()))
                    res.fail(res.errors, f"{label} {name}",
                             f"raised {type(exc).__name__}: {exc}")
                    res.bodies.append(f"{label} {name} raised {type(exc).__name__}\n")
                    continue
                res.job_spans.append((start, self.clock()))
                problem, undecided, body = check(q, out)
                res.undecided += undecided
                res.bodies.append(f"{label} {body}\n")
                if problem is not None:
                    res.fail(res.wrong, f"{label} {name}", problem)
        return res


def make(name, workdir, inject, appendix=False, clock=perf_counter):
    """`clock` times the jobs: `perf_counter`, or a clock that leaves out
    time the benchmark spends on its own probes."""
    if name == "freiman-fixtures":
        return FreimanWorkload(FIXTURES, workdir, inject, clock)
    if name == "freiman-ladder":
        return FreimanWorkload(LADDER, workdir, inject, clock)
    if name == "query-sweep":
        return SweepWorkload(workdir, inject, appendix, clock)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("freiman-fixtures", "freiman-ladder", "query-sweep")
