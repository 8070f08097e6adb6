"""Benchmark entry point: one workload per process, metrics as the last stdout line.

    python3 bench/run.py --workload freiman-fixtures --seed 1 --seconds 30 --trace 0

With --trace 0 a run repeats passes over the workload's job list until
--seconds have elapsed, always finishing the first pass and stopping the last
one between jobs, and reports the end-to-end metrics in reference seconds
(bench/hostspeed.py). With --trace 1 it runs one untraced pass, installs the
tracer, sets the workload up again and replays the same inputs traced, and
reports the per-layer metrics in measured seconds. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 5
SETUP_SAMPLES = 3
# one process and one thread: keep numpy's BLAS pool from starting workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
IMPORT_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
import hostspeed
with hostspeed.HostSpeed() as hs:
    start = hs.clock()
    import monoball
    end = hs.clock()
    hs.wait_for_probes()
print(hs.reference_seconds(start, end))
"""


def _import_seconds() -> float:
    """Median reference time to import monoball, each sample in a fresh
    interpreter that scales its own measurement."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(BENCH), str(SRC)],
                             cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(seed: int) -> dict:
    import mpmath
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "commit": _git_commit(), "seed": seed}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _print_failures(passes) -> None:
    for i, res in enumerate(passes):
        for line in res.wrong:
            print(f"  WRONG pass {i}: {line}")
        for line in res.errors:
            print(f"  FAILED pass {i}: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-failure", action="store_true",
                        help="add a job that must fail, to test the failure accounting")
    parser.add_argument("--appendix", action="store_true",
                        help="query-sweep: also run appendix_growth_check on every set")
    args = parser.parse_args(argv)
    if not (SRC / "monoball" / "__init__.py").is_file():
        print(f"error: no monoball sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads
    from hostspeed import HostSpeed

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    import_s = _import_seconds() if not args.trace else None
    env = _environment(args.seed)
    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as workdir:
        if args.trace:
            wl = workloads.make(args.workload, workdir, args.inject_failure, args.appendix)
            metrics, passes = _traced_run(wl, rng)
        else:
            hs = HostSpeed()
            wl = workloads.make(args.workload, workdir, args.inject_failure, args.appendix,
                                hs.clock)
            metrics, passes = _timed_run(wl, rng, args.seconds, import_s, hs)

    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    undecided = sum(r.undecided for r in passes)
    digests = {r.digest for r in passes if r.complete}
    cut = sum(not r.complete for r in passes)
    shape = ("1 untraced and 1 traced pass" if args.trace
             else f"{len(passes)} passes ({cut} cut short at the deadline)")
    print(f"workload {args.workload}: {shape} of {passes[0].attempted} jobs, "
          "closed loop, one caller")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':40s} {failed / attempted:14.6g} ({failed} of {attempted} jobs)")
    print(f"  {'undecided spectrum memberships':40s} {undecided:14d} count")
    print(f"digest sha256:{passes[0].digest} (first pass; "
          f"{'identical' if len(digests) == 1 else 'differs'} across complete passes)")
    _print_failures(passes)
    print("env " + json.dumps(env))
    correct = not any(r.wrong for r in passes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def _timed_run(wl, rng, seconds, import_s, hs):
    setups = []
    passes = []
    with hs:
        for _ in range(SETUP_SAMPLES):
            start = hs.clock()
            state = wl.setup()
            setups.append((start, hs.clock()))
        deadline = perf_counter() + seconds
        passes.append(wl.run_pass(state, wl.draw(rng)))
        while perf_counter() < deadline:
            passes.append(wl.run_pass(state, wl.draw(rng), deadline))
    # the k-th job of every pass is the same job (for query-sweep, the same
    # C360 shape relabeled): each job's median over the passes that ran it
    samples = [[] for _ in passes[0].job_spans]
    measured = [[] for _ in passes[0].job_spans]
    for res in passes:
        for k, (start, end) in enumerate(res.job_spans):
            samples[k].append(hs.reference_seconds(start, end))
            measured[k].append(end - start)
    job_medians = [statistics.median(ts) for ts in samples]
    setup_s = statistics.median(hs.reference_seconds(start, end) for start, end in setups)
    print(f"measured seconds, before host-speed scaling: pass "
          f"{sum(statistics.median(ts) for ts in measured):.4g} s, mean scale "
          f"{statistics.fmean(hs.scales):.4g} over {len(hs.scales)} probes")
    metrics = {
        "setup_s": (import_s + setup_s, "s"),
        "wall_s": (sum(job_medians), "s"),
        "slowest_job_s": (max(job_medians), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return metrics, passes


def _traced_run(wl, rng):
    from layertrace import Tracer

    inputs = wl.draw(rng)
    plain = wl.run_pass(wl.setup(), inputs)
    tracer = Tracer()
    wrapped = tracer.install()
    try:
        traced = wl.run_pass(wl.setup(), inputs)
    finally:
        tracer.uninstall()
    print(f"wrapped {len(wrapped)} functions: {' '.join(wrapped)}")
    metrics = tracer.metrics()
    metrics["cli.report_bytes"] = (traced.report_bytes, "bytes")
    metrics["trace.overhead"] = (traced.wall / plain.wall, "ratio")
    return dict(sorted(metrics.items())), [plain, traced]


if __name__ == "__main__":
    sys.exit(main())
