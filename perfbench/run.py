"""Benchmark of rice-game: time to solution on four solve workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload swm --seed 1 --seconds 25 --trace 0

The run imports ``rice_game`` from ``src/``, builds the default scenario and
makes the job's input from ``--seed`` (set-up), then repeats that one job in
this process for about ``--seconds`` seconds, checking each output against
the checks of ``workloads.py`` and the reference recorded for the input. A
run always makes at least one job and starts another only if the median job
so far still fits in the time left. Input variety comes from the seeds of
different runs.

``--trace 0`` reports the end-to-end metrics ``cpu_norm_s``, ``setup_s``
and ``peak_rss_mb``. ``cpu_norm_s`` is the median job's CPU time corrected
for the machine's speed during the job, as sampled by ``probe.py``: time in
probe kernel units times ``probe.NOMINAL_S``. ``setup_s`` is the same for
set-up, the median of this process's set-up and four more in fresh
interpreters. The raw wall and CPU times, and the median job's wall time
``wall_s``, go to the environment line.

``--trace 1`` alternates untraced and traced jobs, reports the per-layer
metrics of ``spans.py`` as means per traced job, and writes the spans to
``.perfbench-out/``.

The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment. BLAS threads are pinned to 1 in this process's
environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("swm", "nash", "rhfa", "scc")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-up is timed in this process and in this many fresh interpreters.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Job(NamedTuple):
    """One job's wall and CPU time, its check problems, and its mean probe time."""

    seconds: float
    cpu_s: float
    problems: list
    probe_s: float | None = None

    def norm_s(self) -> float:
        """CPU time at the nominal machine speed of ``probe.NOMINAL_S``."""
        import probe

        return self.cpu_s * probe.NOMINAL_S / self.probe_s


def _cpu_seconds() -> float:
    """CPU seconds of this process and of its children that have ended."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _parse(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be non-negative")
        return value

    def seconds(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("seconds must be positive")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=seed)
    parser.add_argument("--seconds", type=seconds, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    """Import the package, build the scenario, make the run's input.

    Returns the time this took as a :class:`Job` without problems, and
    ``(scenario, workload, input, reference)``.
    """
    if not (SRC / "rice_game" / "__init__.py").is_file():
        raise BenchError(f"no rice_game package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    start, cpu = time.perf_counter(), _cpu_seconds()
    # The probe needs numpy, the first thing rice_game imports: its import is
    # timed, but no probe sample falls in it.
    import probe

    with probe.SpeedProbe() as speed:
        import rice_game
        import workloads

        if Path(rice_game.__file__).resolve().parent != SRC / "rice_game":
            raise BenchError(f"imported rice_game from {rice_game.__file__}, not {SRC}")
        scenario = rice_game.build_default_scenario()
        problems = rice_game.validate_scenario(scenario)
        if problems:
            raise BenchError(f"default scenario is invalid: {problems}")
        wl = workloads.make_workloads()[workload]
        input_seed = seed % workloads.RECORDED_SEEDS
        inp = wl.inputs(scenario, input_seed)
    took = Job(time.perf_counter() - start, _cpu_seconds() - cpu, [], speed.mean())
    reference = workloads.load_reference().get(workload, {}).get(str(input_seed))
    if reference is None:
        raise BenchError(f"no reference output for {workload} input seed {input_seed}")
    return took, (scenario, wl, inp, reference)


def _probe_setup(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_job(wl, scenario, inp, reference=None, tracer=None, speed=None):
    """Run and check one job, under ``tracer`` or ``speed`` if given."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="job-", dir=OUT))
    try:
        start, cpu = time.perf_counter(), _cpu_seconds()
        try:
            if tracer is not None:
                with tracer:
                    out = tracer.job(wl.job, scenario, inp, workdir)
            elif speed is not None:
                with speed:
                    out = wl.job(scenario, inp, workdir)
            else:
                out = wl.job(scenario, inp, workdir)
        except (Exception, SystemExit) as exc:
            problems = [f"job raised {type(exc).__name__}: {exc}"]
            return Job(time.perf_counter() - start, _cpu_seconds() - cpu, problems,
                       speed and speed.mean())
        seconds, cpu = time.perf_counter() - start, _cpu_seconds() - cpu
        try:
            problems = wl.check(scenario, inp, out, workdir)
            if reference is not None and not problems:
                problems = wl.compare(wl.summary(out, workdir), reference)
        except Exception as exc:  # a check that cannot run is a failed check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        return Job(seconds, cpu, problems, speed and speed.mean())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, scenario, inp, seconds, reference):
    """Untraced jobs under the speed probe for about ``seconds``."""
    import probe

    speed = probe.SpeedProbe()
    jobs = []
    start = time.perf_counter()
    while not jobs or (time.perf_counter() - start
                       + statistics.median(job.seconds for job in jobs) <= seconds):
        jobs.append(run_job(wl, scenario, inp, reference, speed=speed))
    return jobs


def measure_traced(wl, scenario, inp, seconds, reference, name, seed):
    """Pairs of one untraced and one traced job.

    Returns the jobs and the per-layer metrics of the traced ones.
    """
    import spans

    tracer = spans.Tracer(name)
    untraced, traced = [], []
    start = time.perf_counter()
    while not untraced or (time.perf_counter() - start + 2 * statistics.median(
            job.seconds for job in untraced + traced) <= seconds):
        untraced.append(run_job(wl, scenario, inp, reference))
        traced.append(run_job(wl, scenario, inp, reference, tracer))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    metrics = spans.layer_metrics(tracer.spans, len(traced), [job.seconds for job in untraced])
    return untraced + traced, {k: {"value": v, "unit": spans.METRICS[k]}
                               for k, v in metrics.items()}


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    """HEAD commit of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "rice_game").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        took, (scenario, wl, inp, reference) = setup(args.workload, args.seed)
        import workloads

        digest = workloads.inputs_digest(inp)
        if args.setup_probe:
            print(json.dumps({"setup": took, "inputs_sha256": digest}))
            return 0
        samples = [took]
        for _ in range(SETUP_PROBES):
            fresh = _probe_setup(args.workload, args.seed)
            if fresh["inputs_sha256"] != digest:
                raise BenchError("a fresh interpreter made other inputs from the same seed")
            samples.append(Job(*fresh["setup"]))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        jobs, metrics = measure_traced(wl, scenario, inp, args.seconds, reference,
                                       args.workload, args.seed)
    else:
        jobs = measure(wl, scenario, inp, args.seconds, reference)
        timed = [job for job in jobs if not job.problems] or jobs
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "cpu_norm_s": {"value": statistics.median(job.norm_s() for job in timed),
                           "unit": "s"},
            "setup_s": {"value": statistics.median(job.norm_s() for job in samples),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        }
    failed = [job.problems for job in jobs if job.problems]
    for problems in failed:
        print(f"perfbench: {args.workload} job failed: {'; '.join(problems)}", file=sys.stderr)
    env = environment()
    env.update(workload=args.workload, seed=args.seed,
               input_seed=args.seed % workloads.RECORDED_SEEDS, trace=args.trace,
               setup_wall_s=[job.seconds for job in samples],
               setup_cpu_s=[job.cpu_s for job in samples],
               setup_probe_ms=[1e3 * job.probe_s for job in samples],
               wall_s=statistics.median(job.seconds for job in jobs),
               job_seconds=[job.seconds for job in jobs],
               job_cpu_s=[job.cpu_s for job in jobs],
               probe_ms=[job.probe_s and 1e3 * job.probe_s for job in jobs],
               inputs_sha256=digest)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
