"""Shared test scaffolding: brute-force error oracles, synthetic maneuver traces,
a per-step reference engine, and the reference scheduler state machines.

The brute-force oracles place the maneuver in coordinates and measure
distances directly, with none of the trigonometric shortcuts the library
uses -- that independence is the point.  :func:`reference_run` is the
straightforward engine that steps every grid point in Python; the
fix-driven :func:`dynloc.engine.run` must match it bit for bit.  It
schedules with :data:`REFERENCE_SCHEDULERS`, state machines written apart
from the per-fix ``*_step`` functions of :mod:`dynloc.protocols`, draws each
fix with :func:`ref_fix_offset` and smooths with :func:`ref_backtrack_correct`,
one point at a time, so it shares no scheduler, noise or correction
arithmetic with the engine.
"""

from __future__ import annotations

import contextlib
import csv
import math
import signal
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from dynloc.engine import _SCHED_EPS, RunConfig, RunMetrics
from dynloc.experiments import EVENT_COLUMNS
from dynloc.geometry import threshold_accuracy
from dynloc.mobility import MobilityTrace, TraceSpec, trace_from_waypoints
from dynloc.protocols import PROTOCOLS, Confidence, DvmConfig, MadrdConfig, SfrConfig

AREA = 300.0
START_X = 30.0
START_Y = 150.0


# The stock trace: 4-5 m/s over 300 x 300 m for 900 s at dt 0.1, the sweep spec's defaults.
_TRACE_DEFAULTS = {
    "mobility": "rwp",
    "speed_class": (4.0, 5.0),
    "pause_time": 0.0,
    "duration": 900.0,
    "dt": 0.1,
    "area_w": AREA,
    "area_h": AREA,
    "gm_memory": 0.75,
    "gm_speed_sigma": 0.5,
    "gm_direction_sigma": 0.4,
    "seed": 0,
}


def trace_spec(**given) -> TraceSpec:
    """The stock trace's :class:`~dynloc.mobility.TraceSpec` with the ``given`` fields changed."""
    return TraceSpec(**{**_TRACE_DEFAULTS, **given})


def read_table(path) -> list[dict[str, str]]:
    """The rows of a dynloc CSV as text, keyed by its column names; ``#`` header lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def brute_turn_hold_error(straight_before_turn: float, turn_angle: float, past_turn: float) -> float:
    """Distance from the fix (origin) to the node after the turn, by coordinates."""
    node_x = straight_before_turn + past_turn * math.cos(turn_angle)
    node_y = past_turn * math.sin(turn_angle)
    return math.hypot(node_x, node_y)


def brute_turn_predict_error(turn_angle: float, past_turn: float) -> float:
    """Distance between straight-line prediction and deviated path, by coordinates."""
    pred_x, pred_y = past_turn, 0.0
    node_x = past_turn * math.cos(turn_angle)
    node_y = past_turn * math.sin(turn_angle)
    return math.hypot(node_x - pred_x, node_y - pred_y)


def make_turn_trace(
    speed: float,
    turn_angle: float,
    fix_period: float,
    straight_before_turn: float,
    dt: float = 0.1,
    warm_periods: int = 2,
) -> tuple[MobilityTrace, float]:
    """Straight run with one heading change partway through the last fix window.

    The node starts heading +x.  With a scheduler pinned to ``fix_period``,
    fixes land at 0, fix_period, ..., and the turn happens
    ``straight_before_turn`` meters into the window that starts at
    ``warm_periods * fix_period``.  Returns (trace, turn_time).
    """
    turn_time = warm_periods * fix_period + straight_before_turn / speed
    duration = (warm_periods + 1) * fix_period
    turn_x = START_X + speed * turn_time
    tail = speed * (duration - turn_time)
    end_x = turn_x + tail * math.cos(turn_angle)
    end_y = START_Y + tail * math.sin(turn_angle)
    trace = trace_from_waypoints(
        [
            (0.0, START_X, START_Y),
            (turn_time, turn_x, START_Y),
            (duration, end_x, end_y),
        ],
        dt=dt,
        area_w=AREA,
        area_h=AREA,
    )
    return trace, turn_time


def make_pause_trace(
    speed: float,
    fix_period: float,
    travel_before_stop: float,
    dt: float = 0.1,
    warm_periods: int = 2,
) -> tuple[MobilityTrace, float]:
    """Straight run that stops dead partway through the last fix window.

    Returns (trace, stop_time); the stop happens ``travel_before_stop``
    meters into the window starting at ``warm_periods * fix_period``.
    """
    window_start = warm_periods * fix_period
    stop_time = window_start + travel_before_stop / speed
    duration = (warm_periods + 1) * fix_period
    stop_x = START_X + speed * stop_time
    trace = trace_from_waypoints(
        [
            (0.0, START_X, START_Y),
            (stop_time, stop_x, START_Y),
            (duration, stop_x, START_Y),
        ],
        dt=dt,
        area_w=AREA,
        area_h=AREA,
    )
    return trace, stop_time


# ---------------------------------------------------------------------------
# Reference fixes, schedulers and correction
# ---------------------------------------------------------------------------


class RefFix(NamedTuple):
    """One position fix: the time it was taken and the measured position."""

    t: float
    x: float
    y: float


def ref_fix_offset(noise_max: float, rng: np.random.Generator) -> tuple[float, float]:
    """The displacement ``(dx, dy)`` of one fix: two scalar draws, magnitude first, then angle."""
    u, v = rng.random(2).tolist()
    magnitude = u * noise_max
    angle = v * (2.0 * math.pi)
    return magnitude * math.cos(angle), magnitude * math.sin(angle)


@dataclass(frozen=True)
class RefState:
    """Everything a reference scheduler carries between fixes.

    ``prediction_error`` is MADRD's distance between its prediction and the
    last fix (NaN when nothing was predicted).
    """

    last_fix: RefFix
    velocity_estimate: tuple[float, float]
    next_localization_time: float
    current_period: float
    confidence: Confidence = Confidence.S1
    prediction_error: float = math.nan

    def __post_init__(self) -> None:
        if self.next_localization_time <= self.last_fix.t:
            raise ValueError("next_localization_time must be after the last fix")
        if self.current_period <= 0:
            raise ValueError(f"current_period must be > 0, got {self.current_period}")


def _clamp(value: float, lo: float, hi: float) -> float:
    return lo if value < lo else hi if value > hi else value


def _chord_velocity(prev: RefFix, cur: RefFix) -> tuple[float, float]:
    elapsed = cur.t - prev.t
    if elapsed <= 0:
        raise ValueError(f"fixes must be separated in time, got dt={elapsed}")
    return ((cur.x - prev.x) / elapsed, (cur.y - prev.y) / elapsed)


def ref_sfr_init(fix: RefFix, cfg: SfrConfig) -> RefState:
    return RefState(fix, (0.0, 0.0), fix.t + cfg.period, cfg.period)


def ref_sfr_on_localize(state: RefState, fix: RefFix, cfg: SfrConfig) -> RefState:
    return RefState(fix, state.velocity_estimate, fix.t + cfg.period, cfg.period, state.confidence)


def ref_dvm_init(fix: RefFix, cfg: DvmConfig) -> RefState:
    return RefState(fix, (0.0, 0.0), fix.t + cfg.t_min, cfg.t_min)


def ref_dvm_on_localize(state: RefState, fix: RefFix, cfg: DvmConfig) -> RefState:
    vx, vy = _chord_velocity(state.last_fix, fix)
    speed = math.hypot(vx, vy)
    if speed == 0.0:
        period = cfg.t_max
    else:
        period = _clamp(cfg.target_error / speed, cfg.t_min, cfg.t_max)
    return RefState(fix, (vx, vy), fix.t + period, period, state.confidence)


def ref_madrd_init(fix: RefFix, cfg: MadrdConfig) -> RefState:
    return RefState(fix, (0.0, 0.0), fix.t + cfg.t_min, cfg.t_min, Confidence.S1)


def ref_madrd_predict(state: RefState, t: float) -> tuple[float, float]:
    last = state.last_fix
    elapsed = t - last.t
    vx, vy = state.velocity_estimate
    return last.x + vx * elapsed, last.y + vy * elapsed


def ref_madrd_on_localize(state: RefState, fix: RefFix, cfg: MadrdConfig) -> RefState:
    px, py = ref_madrd_predict(state, fix.t)
    prediction_error = math.hypot(px - fix.x, py - fix.y)
    value = state.confidence.value
    if prediction_error > cfg.divergence_threshold:
        confidence = Confidence(max(value - 1, Confidence.LC.value))
    else:
        confidence = Confidence(min(value + 1, Confidence.HC.value))
    period = state.current_period
    if confidence is Confidence.HC:
        period *= cfg.period_growth
    elif confidence is Confidence.LC:
        period *= cfg.period_shrink
    period = _clamp(period, cfg.t_min, cfg.t_max)
    vx, vy = _chord_velocity(state.last_fix, fix)
    return RefState(fix, (vx, vy), fix.t + period, period, confidence, prediction_error)


def ref_backtrack_correct(
    prev_fix: RefFix,
    last_fix: RefFix,
    reported_series: Sequence[tuple[float, float, float]],
    noise_max: float,
) -> tuple[list[tuple[float, float, float]], int]:
    """Retrospectively smooth the reported ``(t, x, y)`` points between two fixes.

    Every point strictly between the two fix times is replaced by the
    time-linear interpolation of the two measured fixes.  Returns the
    corrected series plus the number of points that moved by more than
    ``noise_max``.
    """
    span = last_fix.t - prev_fix.t
    if span <= 0:
        raise ValueError("fixes must be in increasing time order")
    if noise_max < 0:
        raise ValueError(f"noise_max must be >= 0, got {noise_max}")
    corrected: list[tuple[float, float, float]] = []
    moved = 0
    for t, rx, ry in reported_series:
        if not (prev_fix.t < t < last_fix.t):
            raise ValueError(f"reported point at t={t} lies outside the fix interval")
        frac = (t - prev_fix.t) / span
        x = prev_fix.x + frac * (last_fix.x - prev_fix.x)
        y = prev_fix.y + frac * (last_fix.y - prev_fix.y)
        if math.hypot(x - rx, y - ry) > noise_max:
            moved += 1
        corrected.append((t, x, y))
    return corrected, moved


# One reference event row per grid step, its fields the columns of an event log.
EventRow = namedtuple("EventRow", EVENT_COLUMNS)


REFERENCE_SCHEDULERS = {
    "sfr": (ref_sfr_init, ref_sfr_on_localize),
    "dvm": (ref_dvm_init, ref_dvm_on_localize),
    "madrd": (ref_madrd_init, ref_madrd_on_localize),
}


def reference_run(cfg: RunConfig) -> tuple[list[EventRow], list[RefFix], RunMetrics]:
    """Per-step reference engine: (events, fixes, metrics) of one run.

    At every grid step: fire a localization if one is due, then record the
    reported position, its error against ground truth, and the scheduler's
    period and confidence.  With backtracking enabled, each new fix rewrites
    the reported points of the interval it closes through
    :func:`ref_backtrack_correct`.  MADRD reports :func:`ref_madrd_predict`.
    """
    trace = cfg.trace
    times = trace.times.tolist()
    true_xs = trace.xs.tolist()
    true_ys = trace.ys.tolist()
    rng = np.random.default_rng(cfg.seed)
    init, on_localize = REFERENCE_SCHEDULERS[cfg.protocol]
    predicts = PROTOCOLS[cfg.protocol].predicts
    pcfg = cfg.protocol_config

    state: RefState | None = None
    events: list[EventRow] = []
    fixes: list[RefFix] = []
    pending: list[int] = []  # event indices since the last fix (backtracking)
    correction_count = 0

    for k, t in enumerate(times):
        tx = true_xs[k]
        ty = true_ys[k]
        localized = 0
        if state is None or t + _SCHED_EPS >= state.next_localization_time:
            dx, dy = ref_fix_offset(cfg.noise_max, rng)
            fix = RefFix(t, tx + dx, ty + dy)
            if not (math.isfinite(fix.x) and math.isfinite(fix.y)):
                raise ValueError(f"fix coordinates must be finite, got ({fix.x}, {fix.y})")
            if state is None:
                state = init(fix, pcfg)
            else:
                prev_fix = state.last_fix
                state = on_localize(state, fix, pcfg)
                if cfg.backtracking_enabled and pending:
                    series = [(events[i].t, events[i].reported_x, events[i].reported_y) for i in pending]
                    corrected, moved = ref_backtrack_correct(prev_fix, fix, series, cfg.noise_max)
                    correction_count += moved
                    for i, (_, cx, cy) in zip(pending, corrected):
                        old = events[i]
                        err = math.hypot(cx - old.true_x, cy - old.true_y)
                        events[i] = old._replace(reported_x=cx, reported_y=cy, error=err)
            fixes.append(fix)
            pending = []
            localized = 1
        if predicts:
            rx, ry = ref_madrd_predict(state, t)
        else:
            rx, ry = state.last_fix.x, state.last_fix.y
        error = math.hypot(rx - tx, ry - ty)
        conf = state.confidence.name if predicts else ""
        events.append(EventRow(t, tx, ty, rx, ry, error, localized, state.current_period, conf))
        if not localized:
            pending.append(len(events) - 1)

    errors = np.array([e.error for e in events])
    metrics = RunMetrics(
        localization_count=len(fixes),
        mean_error=float(errors.mean()),
        max_error=float(errors.max()),
        accuracy=threshold_accuracy(errors, cfg.dist_tolerance),
        correction_count=correction_count,
    )
    return events, fixes, metrics


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the main thread if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
