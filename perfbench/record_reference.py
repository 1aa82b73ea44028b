"""Record the benchmark's fixed inputs and reference outputs.

Run from the root of a checkout, at the commit whose outputs become the
reference:

    python3 perfbench/record_reference.py [--optimum]

``--optimum`` first stores the cooperative optimum that ``nash`` and ``rhfa``
start from (``solve_swm`` with its default options). Then the job of every
workload is run once for each input seed below ``workloads.RECORDED_SEEDS``,
checked, and its summary stored in ``data/reference.json``. Every job of
``run.py`` is compared against the entry of its input seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--optimum", action="store_true")
    args = parser.parse_args(argv)
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    import numpy as np
    import rice_game as rg
    import workloads

    scenario = rg.build_default_scenario()
    if args.optimum:
        np.save(workloads.SWM_OPTIMUM, rg.solve_swm(scenario).profile.controls)
    reference = {}
    for name, wl in workloads.make_workloads().items():
        for seed in range(workloads.RECORDED_SEEDS):
            inp = wl.inputs(scenario, seed)
            workdir = run.OUT / f"reference-{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            out = wl.job(scenario, inp, workdir)
            problems = wl.check(scenario, inp, out, workdir)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = wl.summary(out, workdir)
            shutil.rmtree(workdir)
            print(f"{name} seed {seed} recorded", flush=True)
    write_reference(reference, workloads.REFERENCE)
    return 0


def _rounded(value):
    """Floats cut to 12 significant digits, far inside every tolerance."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def write_reference(reference, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_rounded(reference), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
