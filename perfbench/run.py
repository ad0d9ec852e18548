"""Benchmark of the rydclock analysis chain.

Run from the repository root:

    python3 perfbench/run.py --workload ed_scan --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh child process (``workload.py``) with BLAS and
OpenMP threads pinned to 1 and ``src`` on PYTHONPATH.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones.
With ``--trace 1`` the workload runs twice, untraced and then traced, and the
metrics are the per-layer ones; ``trace.overhead_s`` is the traced minus the
untraced ``wall_s``.  ``--blas-threads default`` leaves the thread variables
as they are, for reference figures.  Exits 1 without a result when a run
fails or overruns, 2 when the checkout holds no ``src/rydclock``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ed_scan", "ellipse", "analytics_clock")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
from tracing import PER_LAYER  # noqa: E402
from workload import END_TO_END  # noqa: E402


def child_env(blas_threads):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        if blas_threads == "default":
            env.pop(var, None)
        else:
            env[var] = blas_threads
    return env


def run_child(args, trace, work_dir, deadline):
    """One workload process; returns its parsed JSON line or raises RuntimeError."""
    t_spawn = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--work-dir", work_dir, "--t-spawn", repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(args.blas_threads),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"workload process ran past {DEADLINE_S:g} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def with_units(values, units):
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", default="1",
                        help="value for the BLAS/OpenMP thread variables, or 'default'")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rydclock", "__init__.py")):
        print(f"error: no src/rydclock under {ROOT}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    try:
        runs = [run_child(args, trace, os.path.join(work, f"trace{trace}"), deadline)
                for trace in ((0, 1) if args.trace else (0,))]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)

    for r in runs:
        print(f"{args.workload}: {r['rounds']} rounds", file=sys.stderr)
    if args.trace:
        untraced, traced = runs
        values = dict(traced["layers"])
        values["trace.overhead_s"] = (traced["metrics"]["wall_s"]
                                      - untraced["metrics"]["wall_s"])
        metrics = with_units(values, PER_LAYER)
    else:
        metrics = with_units(runs[0]["metrics"], END_TO_END)
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
