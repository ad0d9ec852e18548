"""Spans around the public functions of each rydclock module, and probes.

``install`` wraps the functions from outside: every binding of a function in
a loaded ``rydclock`` module is replaced by a wrapper that records a span
(name, start, end, parent) in memory while the tracer is active.  Per-layer
metrics are derived from the spans at the end of the run; self time is a
span's duration minus that of its direct children.  Probes are timed calls
of public API made after the workload, with tracing off.
"""

import importlib
import sys
import time
import warnings
from functools import wraps

import numpy as np


def _n_shots_of_self(args, kwargs, result):
    return args[0].n_shots


def _n_shots_of_result(args, kwargs, result):
    return result.n_shots


# (module, attribute, span name, (counter, count function) or None)
TARGETS = (
    ("rydclock.cli", "main", "cli.main", None),
    ("rydclock.potentials", "fit_soft_core", "potentials.fit_soft_core", None),
    ("rydclock.weak_dressing", "scan_xi_vs_n", "weak_dressing.scan_xi_vs_n", None),
    ("rydclock.weak_dressing", "wineland", "weak_dressing.wineland", None),
    ("rydclock.exact_diag", "run_sequence", "exact_diag.run_sequence", None),
    ("rydclock.exact_diag", "HamiltonianTerms.__init__",
     "exact_diag.hamiltonian_terms", None),
    ("rydclock.exact_diag", "qubit_bloch_vector", "exact_diag.qubit_bloch_vector", None),
    ("rydclock.exact_diag", "quadrature_variance_ratio",
     "exact_diag.quadrature_variance_ratio", None),
    ("rydclock.records", "MeasurementRecord.to_csv", "records.to_csv",
     ("records.rows", _n_shots_of_self)),
    ("rydclock.records", "MeasurementRecord.from_csv", "records.from_csv",
     ("records.rows", _n_shots_of_result)),
    ("rydclock.sampler", "sample_css", "sampler.sample_css", None),
    ("rydclock.sampler", "sample_sss", "sampler.sample_sss",
     ("sampler.sss_shots", _n_shots_of_result)),
    ("rydclock.sampler", "sample_stability_run", "sampler.sample_stability_run", None),
    ("rydclock.stability", "overlapping_adev", "stability.overlapping_adev", None),
    ("rydclock.ellipse", "calibrated_pipeline", "ellipse.calibrated_pipeline", None),
    ("rydclock.ellipse", "fit_mle", "ellipse.fit_mle", None),
    ("rydclock.ellipse", "estimate_phi", "ellipse.estimate_phi", None),
    ("rydclock.ellipse", "fisher_information_css", "ellipse.fisher_information", None),
)

OBSERVABLES = ("exact_diag.qubit_bloch_vector", "exact_diag.quadrature_variance_ratio")

# name -> unit; the order is that of BENCHMARK.json.
PER_LAYER = {
    "cli.main.self_s": "s",
    "exact_diag.run_sequence.calls": "count",
    "exact_diag.run_sequence_s": "s",
    "exact_diag.hamiltonian_terms_s": "s",
    "exact_diag.observables_s": "s",
    "exact_diag.quadrature_evals": "count",
    "exact_diag.n4.ramp_s": "s",
    "exact_diag.n4.plateau_s": "s",
    "exact_diag.n6.ramp_s": "s",
    "exact_diag.n6.plateau_s": "s",
    "exact_diag.n6.base_s": "s",
    "ellipse.calibrated_pipeline_s": "s",
    "ellipse.fit_mle.calls": "count",
    "ellipse.fit_mle_s": "s",
    "ellipse.estimate_phi.calls": "count",
    "ellipse.estimate_phi_s": "s",
    "ellipse.log_likelihood.per_shot_us": "us",
    "ellipse.pmf_marginal_s": "s",
    "ellipse.fisher_information_s": "s",
    "sampler.sample_css_s": "s",
    "sampler.sample_sss_s": "s",
    "sampler.sss_shots": "count",
    "sampler.sample_stability_run_s": "s",
    "stability.overlapping_adev_s": "s",
    "stability.overlapping_adev.calls": "count",
    "records.to_csv_s": "s",
    "records.from_csv_s": "s",
    "records.rows": "count",
    "weak_dressing.scan_xi_vs_n_s": "s",
    "weak_dressing.wineland.calls": "count",
    "weak_dressing.wineland_s": "s",
    "weak_dressing.wineland.n100_s": "s",
    "potentials.fit_soft_core_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans and counters; records only while ``active``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = {}
        self.active = False
        self._stack = []

    def wrap(self, name, fn, counter=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                key, count = counter
                tracer.counts[key] = tracer.counts.get(key, 0) + count(args, kwargs, result)
            return result

        return traced


def install(tracer):
    """Wrap every target; rebind module functions wherever rydclock imported them."""
    for module_name, attr, span, counter in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(span, raw.__func__, counter)))
            else:
                setattr(cls, meth, tracer.wrap(span, raw, counter))
            continue
        original = getattr(module, attr)
        traced = tracer.wrap(span, original, counter)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("rydclock"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)


def layer_metrics(tracer, rounds):
    """Per-round span totals, self times and counts."""
    spans = tracer.spans
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]

    def total(name):
        return sum(d for (n, *_), d in zip(spans, dur) if n == name) / rounds

    def calls(name):
        return sum(1 for n, *_ in spans if n == name) / rounds

    def self_time(name):
        return sum(d - c for (n, *_), d, c in zip(spans, dur, child) if n == name) / rounds

    def covered(names):
        """Time inside any of ``names``, nested spans counted once."""
        out = 0.0
        for (n, _, _, parent), d in zip(spans, dur):
            if n not in names:
                continue
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                out += d
        return out / rounds

    out = {
        "cli.main.self_s": self_time("cli.main"),
        "exact_diag.run_sequence.calls": calls("exact_diag.run_sequence"),
        "exact_diag.observables_s": covered(OBSERVABLES),
        "exact_diag.quadrature_evals": calls("exact_diag.quadrature_variance_ratio"),
        "ellipse.fit_mle.calls": calls("ellipse.fit_mle"),
        "ellipse.estimate_phi.calls": calls("ellipse.estimate_phi"),
        "stability.overlapping_adev.calls": calls("stability.overlapping_adev"),
        "weak_dressing.wineland.calls": calls("weak_dressing.wineland"),
    }
    for name in ("exact_diag.run_sequence", "exact_diag.hamiltonian_terms",
                 "ellipse.calibrated_pipeline", "ellipse.fit_mle", "ellipse.estimate_phi",
                 "ellipse.fisher_information", "sampler.sample_css", "sampler.sample_sss",
                 "sampler.sample_stability_run", "stability.overlapping_adev",
                 "records.to_csv", "records.from_csv", "weak_dressing.scan_xi_vs_n",
                 "weak_dressing.wineland", "potentials.fit_soft_core"):
        out[name + "_s"] = total(name)
    for key in ("records.rows", "sampler.sss_shots"):
        out[key] = tracer.counts.get(key, 0) / rounds
    return out


def _timed(fn, *args, repeat=1, **kwargs):
    """Shortest wall time of ``repeat`` calls."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return min(times)


def probes(cal_record_path):
    """Stage split of exact_diag and single-kernel timings, public API only.

    The ED probes run one pi/2 pulse and one dressing pulse three ways: in
    full, with zero-length ramps, and with zero dressing time (no pulse).
    ramp = full - zero-ramp, plateau = zero-ramp - no-pulse, base = no-pulse.
    """
    from chain import (CONTRAST, N_ATOMS, PAPER_DRESSING, PHI_DEG, RB_LAT, V0_HZ,
                       WEAK_DRESSING)
    from rydclock import ellipse, exact_diag, geometry, potentials, records, weak_dressing

    def one_pulse(t_int):
        return exact_diag.PulseSequence((exact_diag.ClockPulse(np.pi / 2),
                                         exact_diag.DressingPulse(t_int)))

    no_ramps = exact_diag.RampSchedule(ramp_duration=0.0)
    out = {}
    cases = (("n4", (2, 2), PAPER_DRESSING, 2e-6, 3),
             ("n6", (2, 3), WEAK_DRESSING, 100e-6, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sudden switching leaves Rydberg population
        for key, (rows, cols), dressing, t_int, repeat in cases:
            g = geometry.build_subarrays(rows, cols, 2, 2, 1)
            p = potentials.DressingParams.from_hz(**dressing)
            full = _timed(exact_diag.run_sequence, g, p, one_pulse(t_int))
            zero_ramp = _timed(exact_diag.run_sequence, g, p, one_pulse(t_int),
                               schedule=no_ramps, repeat=repeat)
            base = _timed(exact_diag.run_sequence, g, p, one_pulse(0.0), repeat=repeat)
            out[f"exact_diag.{key}.ramp_s"] = full - zero_ramp
            out[f"exact_diag.{key}.plateau_s"] = zero_ramp - base
            if key == "n6":
                out["exact_diag.n6.base_s"] = base

    true_css = ellipse.EllipseModel(phi=np.radians(PHI_DEG), contrast=CONTRAST, y0=0.5,
                                    n_atoms=N_ATOMS)
    cal = records.MeasurementRecord.from_csv(cal_record_path, mode="ellipse")
    out["ellipse.log_likelihood.per_shot_us"] = 1e6 * _timed(
        ellipse.log_likelihood, cal, true_css, n_theta=360, repeat=5) / cal.n_shots
    out["ellipse.pmf_marginal_s"] = _timed(ellipse.pmf_marginal, true_css,
                                           n_theta=720, repeat=5)

    phases = weak_dressing.phases_for_geometry(
        geometry.build_subarrays(10, 10, 2, 2, 1),
        potentials.SoftCorePotential(v0=V0_HZ, r_b=RB_LAT * geometry.DEFAULT_LATTICE_CONSTANT),
        2e-6)
    out["weak_dressing.wineland.n100_s"] = _timed(weak_dressing.wineland, phases,
                                                  repeat=3)
    return out
