"""One run of a benchmark workload, in this process: set-up, rounds, checks.

Started by ``run.py`` in a fresh interpreter with PYTHONPATH pointing at the
checkout's ``src``.  Writes inputs from the seed, then runs whole rounds of
the workload (every family, each followed by its output checks) until
``--seconds`` have passed, at least one round.  Every timed region of a
round is one sample, corrected for the host's speed at that moment (see
``HostSpeed``); a step's time is the sum over its regions of each region's
median over rounds, and ``wall_s`` is the sum of the step times.  Prints
one JSON line with the end-to-end metrics, and with ``--trace 1`` also the
per-layer metrics from spans and probes.
"""

import argparse
import json
import mmap
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

END_TO_END = {  # name -> unit; the order is that of BENCHMARK.json.
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "ed_scan_s": "s", "ed_evolve_s": "s",
    "ellipse_fit_s": "s", "phase_estimation_s": "s",
    "weak_scan_s": "s", "clock_s": "s",
}


class HostSpeed:
    """Fixed reference kernels, timed next to every timed region.

    The host runs other tenants' jobs on the same cores, and for seconds to
    minutes at a time the same code runs up to 1.6 times slower.  Two
    kernels measure how much slower the host is at that moment, for two
    kinds of work that other tenants slow apart: ``compute`` mixes work done
    in user space (a small dense ``eigh``, vectorised transcendental
    functions, a pure-Python loop); ``faults`` maps fresh anonymous memory
    and touches every page, the kernel time that large numpy temporaries
    cost.  A region's slowdown is the two kernels' slowdowns weighted by the
    region's own user and system CPU time, and its corrected time is its
    wall time over that slowdown: its time on the host at full speed.  The
    kernels are the benchmark's own code, so a change to the program moves
    them not at all.
    """

    # Each kernel's time at full speed on the 2-vCPU Xeon host.
    FULL_SPEED_S = {"compute": 0.011, "faults": 0.0065}
    FAULT_BYTES = 8 << 20

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((120, 120))
        self.x = rng.random(200_000)
        self.time()  # the first call loads code paths; leave it out

    def time(self):
        """Kernel name -> seconds, one call of each."""
        t0 = time.perf_counter()
        for _ in range(4):
            np.linalg.eigh(self.a @ self.a.T)
            np.log1p(np.exp(-self.x)).sum()
            acc = 0
            for i in range(20_000):
                acc += i * i
        t1 = time.perf_counter()
        for _ in range(2):
            buf = mmap.mmap(-1, self.FAULT_BYTES)
            pages = np.frombuffer(buf, dtype=np.uint8)
            pages[::mmap.PAGESIZE] = 1
            del pages
            buf.close()
        return {"compute": t1 - t0, "faults": time.perf_counter() - t1}

    def correct(self, seconds, sys_share, ref_before, ref_after):
        """``seconds`` at full speed, for a region that spent ``sys_share`` of
        its CPU time in the kernel, between two calls of ``time``."""
        slow = {kind: 0.5 * (ref_before[kind] + ref_after[kind]) / full
                for kind, full in self.FULL_SPEED_S.items()}
        return seconds / ((1.0 - sys_share) * slow["compute"] + sys_share * slow["faults"])


def step_times(rounds):
    """Step name -> sum over its regions of the region's median over rounds.

    ``rounds`` holds one dict per round, step name -> corrected region times
    in the order they ran.
    """
    return {name: sum(statistics.median(times)
                      for times in zip(*(r[name] for r in rounds)))
            for name in rounds[0]}


def end_to_end_metrics(rounds, setup_s, peak_rss_mb):
    steps = step_times(rounds)
    out = {"setup_s": setup_s, "wall_s": sum(steps.values()),
           "peak_rss_mb": peak_rss_mb}
    for name in END_TO_END:
        if name not in out:
            out[name] = steps[name]
    return out


def _timer(times, cpu, tracer, host):
    """Context-manager factory appending each timed region's corrected wall
    time to ``times[name]`` and its CPU time to ``cpu[0]``; traces only
    inside, and times the host's kernels just before and just after."""
    @contextmanager
    def timed(name):
        ref_before = host.time()
        if tracer is not None:
            tracer.active = True
        t0, r0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        try:
            yield
        finally:
            seconds = time.perf_counter() - t0
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            if tracer is not None:
                tracer.active = False
            user, system = r1.ru_utime - r0.ru_utime, r1.ru_stime - r0.ru_stime
            cpu[0] += user + system
            sys_share = system / (user + system) if user + system > 0 else 0.0
            times.setdefault(name, []).append(
                host.correct(seconds, sys_share, ref_before, host.time()))
    return timed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args(argv)

    import chain  # imports rydclock

    in_dir = os.path.join(args.work_dir, "inputs")
    os.makedirs(in_dir)
    families = chain.build(args.workload, args.seed, in_dir)
    setup_s = time.monotonic() - args.t_spawn

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = chain.Ops()
    host = HostSpeed()
    failures = []
    rounds = []
    cpu = []
    start = time.perf_counter()
    while True:
        times = {}
        cpu_round = [0.0]
        round_dir = os.path.join(args.work_dir, f"round{len(rounds)}")
        for fam in families:
            out = os.path.join(round_dir, fam.name)
            os.makedirs(out)
            fam.run(ops, out, _timer(times, cpu_round, tracer, host))
            try:
                failures += fam.check(ops, out)
            except Exception:
                traceback.print_exc()
                failures.append(f"{fam.name}: output check could not run")
        rounds.append(times)
        cpu.append(cpu_round[0])
        if time.perf_counter() - start >= args.seconds:
            break
        shutil.rmtree(round_dir)

    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "correct": not failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "rounds": len(rounds),
        "metrics": end_to_end_metrics(rounds, setup_s, peak_rss_mb),
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, len(rounds))
        layers["process.cpu_s"] = statistics.median(cpu)
        ellipse_dir = os.path.join(round_dir, "ellipse")
        layers.update(tracing.probes(os.path.join(ellipse_dir, "css_cal.csv")))
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
