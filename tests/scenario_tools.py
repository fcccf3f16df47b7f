"""Shared test scaffolding: brute-force error oracles, synthetic maneuver traces,
a per-step reference engine, and the reference scheduler state machines.

The brute-force oracles place the maneuver in coordinates and measure
distances directly, with none of the trigonometric shortcuts the library
uses -- that independence is the point.  :func:`reference_run` is the
straightforward engine that steps every grid point in Python; the
fix-driven :func:`dynloc.engine.run` must match it bit for bit.  It
schedules with :data:`REFERENCE_SCHEDULERS`, the object state machines that
the per-fix ``*_step`` functions of :mod:`dynloc.protocols` replaced, so it
shares no scheduler arithmetic with the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dynloc.engine import _SCHED_EPS, EventRecord, RunConfig, RunMetrics
from dynloc.geometry import LocalizationSample, Position, localize, threshold_accuracy
from dynloc.mobility import MobilityTrace, trace_from_waypoints
from dynloc.protocols import PROTOCOLS, Confidence, DvmConfig, MadrdConfig, SfrConfig, backtrack_correct

AREA = 300.0
START_X = 30.0
START_Y = 150.0


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
# Reference schedulers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefState:
    """Everything a reference scheduler carries between fixes.

    ``prediction_error`` is MADRD's distance between its prediction and the
    last fix (NaN when nothing was predicted).
    """

    last_sample: LocalizationSample
    velocity_estimate: tuple[float, float]
    next_localization_time: float
    current_period: float
    confidence: Confidence = Confidence.S1
    prediction_error: float = math.nan

    def __post_init__(self) -> None:
        if self.next_localization_time <= self.last_sample.t:
            raise ValueError("next_localization_time must be after the last fix")
        if self.current_period <= 0:
            raise ValueError(f"current_period must be > 0, got {self.current_period}")


def _clamp(value: float, lo: float, hi: float) -> float:
    return lo if value < lo else hi if value > hi else value


def _chord_velocity(prev: LocalizationSample, cur: LocalizationSample) -> tuple[float, float]:
    elapsed = cur.t - prev.t
    if elapsed <= 0:
        raise ValueError(f"fixes must be separated in time, got dt={elapsed}")
    return ((cur.measured.x - prev.measured.x) / elapsed, (cur.measured.y - prev.measured.y) / elapsed)


def ref_sfr_init(sample: LocalizationSample, cfg: SfrConfig) -> RefState:
    return RefState(sample, (0.0, 0.0), sample.t + cfg.period, cfg.period)


def ref_sfr_on_localize(state: RefState, sample: LocalizationSample, cfg: SfrConfig) -> RefState:
    return RefState(sample, state.velocity_estimate, sample.t + cfg.period, cfg.period, state.confidence)


def ref_dvm_init(sample: LocalizationSample, cfg: DvmConfig) -> RefState:
    return RefState(sample, (0.0, 0.0), sample.t + cfg.t_min, cfg.t_min)


def ref_dvm_on_localize(state: RefState, sample: LocalizationSample, cfg: DvmConfig) -> RefState:
    vx, vy = _chord_velocity(state.last_sample, sample)
    speed = math.hypot(vx, vy)
    if speed == 0.0:
        period = cfg.t_max
    else:
        period = _clamp(cfg.target_error / speed, cfg.t_min, cfg.t_max)
    return RefState(sample, (vx, vy), sample.t + period, period, state.confidence)


def ref_madrd_init(sample: LocalizationSample, cfg: MadrdConfig) -> RefState:
    return RefState(sample, (0.0, 0.0), sample.t + cfg.t_min, cfg.t_min, Confidence.S1)


def ref_madrd_predict(state: RefState, t: float) -> Position:
    elapsed = t - state.last_sample.t
    m = state.last_sample.measured
    vx, vy = state.velocity_estimate
    return Position(m.x + vx * elapsed, m.y + vy * elapsed)


def ref_madrd_on_localize(state: RefState, sample: LocalizationSample, cfg: MadrdConfig) -> RefState:
    predicted = ref_madrd_predict(state, sample.t)
    prediction_error = math.hypot(predicted.x - sample.measured.x, predicted.y - sample.measured.y)
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
    vx, vy = _chord_velocity(state.last_sample, sample)
    return RefState(sample, (vx, vy), sample.t + period, period, confidence, prediction_error)


REFERENCE_SCHEDULERS = {
    "sfr": (ref_sfr_init, ref_sfr_on_localize),
    "dvm": (ref_dvm_init, ref_dvm_on_localize),
    "madrd": (ref_madrd_init, ref_madrd_on_localize),
}


def reference_run(cfg: RunConfig) -> tuple[list[EventRecord], list[LocalizationSample], RunMetrics]:
    """Per-step reference engine: (events, samples, metrics) of one run.

    At every grid step: fire a localization if one is due, then record the
    reported position, its error against ground truth, and the scheduler's
    period and confidence.  With backtracking enabled, each new fix rewrites
    the reported points of the interval it closes through
    :func:`backtrack_correct`.  MADRD reports :func:`ref_madrd_predict`.
    """
    trace = cfg.trace
    times = trace.times.tolist()
    true_xs = trace.xs.tolist()
    true_ys = trace.ys.tolist()
    rng = np.random.default_rng(cfg.seed)
    noise = cfg.noise
    init, on_localize = REFERENCE_SCHEDULERS[cfg.protocol]
    predicts = PROTOCOLS[cfg.protocol].predicts
    pcfg = cfg.protocol_config

    state: RefState | None = None
    events: list[EventRecord] = []
    samples: list[LocalizationSample] = []
    pending: list[int] = []  # event indices since the last fix (backtracking)
    correction_count = 0

    for k, t in enumerate(times):
        tx = true_xs[k]
        ty = true_ys[k]
        localized = 0
        if state is None or t + _SCHED_EPS >= state.next_localization_time:
            sample = localize(Position(tx, ty), noise, rng, t=t)
            if state is None:
                state = init(sample, pcfg)
            else:
                prev_fix = state.last_sample
                state = on_localize(state, sample, pcfg)
                if cfg.backtracking_enabled and pending:
                    series = [
                        (events[i].t, Position(events[i].reported_x, events[i].reported_y))
                        for i in pending
                    ]
                    corrected, moved = backtrack_correct(prev_fix, sample, series, noise.max_magnitude)
                    correction_count += moved
                    for i, (_, cpos) in zip(pending, corrected):
                        old = events[i]
                        err = math.hypot(cpos.x - old.true_x, cpos.y - old.true_y)
                        events[i] = old._replace(reported_x=cpos.x, reported_y=cpos.y, error=err)
            samples.append(sample)
            pending = []
            localized = 1
        if predicts:
            reported = ref_madrd_predict(state, t)
            rx, ry = reported.x, reported.y
        else:
            m = state.last_sample.measured
            rx, ry = m.x, m.y
        error = math.hypot(rx - tx, ry - ty)
        conf = state.confidence.name if predicts else ""
        events.append(EventRecord(t, tx, ty, rx, ry, error, localized, state.current_period, conf))
        if not localized:
            pending.append(len(events) - 1)

    errors = np.array([e.error for e in events])
    metrics = RunMetrics(
        localization_count=len(samples),
        accuracy=threshold_accuracy(errors, cfg.dist_tolerance),
        mean_error=float(errors.mean()),
        max_error=float(errors.max()),
        correction_count=correction_count,
    )
    return events, samples, metrics
