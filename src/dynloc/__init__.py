"""dynloc: deterministic simulator for dynamic localization scheduling.

Mobile nodes must periodically spend energy to re-localize; the question is
when.  This package implements three scheduling protocols (fixed-rate SFR,
velocity-driven DVM, prediction-driven MADRD), mobility models to drive them,
closed-form error oracles for single-maneuver scenarios, a discrete-time
simulation engine, and a sweep/CLI layer that reproduces full experiment
grids bit-exactly from a seed.
"""

from .engine import RunConfig, RunMetrics, RunResult, run
from .geometry import localize, threshold_accuracy
from .mobility import (
    MobilityTrace,
    TraceSpec,
    export_trace,
    generate_gauss_markov,
    generate_random_waypoint,
    import_trace,
    import_traces,
    trace_from_waypoints,
)
from .oracles import madrd_pause_error, madrd_turn_error, sfr_pause_error, sfr_turn_error
from .protocols import Confidence, DvmConfig, MadrdConfig, SfrConfig, madrd_predict

__version__ = "0.1.0"
