"""Simulator and analysis toolkit for Rydberg-dressed spin squeezing on
optical-clock qubits: soft-core interaction fits, closed-form spin-echo
squeezing analytics, small-array three-level exact diagonalization, synthetic
measurement records, Allan-deviation stability analysis, and the MLE
ellipse-fitting pipeline.
"""

__version__ = "0.1.0"

from .geometry import ArrayGeometry, build_subarrays
from .potentials import (DressingParams, SoftCorePotential,
                         PairOscillationData, fit_soft_core,
                         pair_oscillation_frequency, weak_dressing_potential)
from .weak_dressing import (CouplingMatrix, InteractionPhases,
                            SqueezingObservables, contrast,
                            couplings_from_potential, g2_correlator,
                            phases_for_geometry, scan_xi_vs_n,
                            variance_ratio, wineland)
from .exact_diag import (DressingEngine, DressingPulse, ClockPulse,
                         PulseSequence, QuantumState, RampSchedule,
                         dressed_pair_shift, run_sequence)
from .records import MeasurementRecord
from .sampler import NoiseSpec, sample_css, sample_sss, sample_stability_run
from .stability import (AllanCurve, FrequencySeries, dz_from_record,
                        fit_double_exponential, fit_white_noise, freq_series,
                        overlapping_adev)
from .ellipse import (EllipseModel, JackknifeSeries, LikelihoodResult,
                      calibrated_pipeline, fisher_information_css, fit_mle,
                      pmf_marginal, pmf_theta)
