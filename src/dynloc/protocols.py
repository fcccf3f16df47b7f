"""Localization scheduling protocols: fixed-rate, velocity-driven, prediction-driven.

Three schedulers decide when a node should spend energy on the next position
fix and what position it reports between fixes:

* **SFR** (static fixed rate): localize every ``period`` seconds, report the
  last fix, held constant.
* **DVM** (dynamic velocity monotonic): estimate speed from the last two
  fixes and size the next period so that roughly ``target_error`` meters of
  travel fit into it, clamped to ``[t_min, t_max]``.  Reports the last fix,
  held constant, like SFR.
* **MADRD** (mobility-aware dead reckoning): report a constant-velocity
  extrapolation of the last fix.  Each new fix is compared against the
  prediction; accurate predictions step a four-state confidence chain
  ``LC - S1 - S2 - HC`` toward high confidence, erroneous ones step it back.
  The period grows (x ``period_growth``) only while in HC, shrinks
  (x ``period_shrink``) only while in LC, and holds in the middle states, so
  one-off glitches cannot whipsaw the schedule.

All three are pure state machines: ``*_on_localize`` consumes the current
:class:`SchedulerState` plus a fresh fix and returns the next state.  The
simulation engine owns the clock and the noise; nothing here draws randomness.
:data:`PROTOCOLS` is the one table of protocol kinds; engine, sweeps and CLI
all read it, so a new scheduler is one row there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .geometry import LocalizationSample, Position, distance

__all__ = [
    "PROTOCOLS",
    "ProtocolConfig",
    "ProtocolKind",
    "Confidence",
    "SfrConfig",
    "DvmConfig",
    "MadrdConfig",
    "SchedulerState",
    "sfr_init",
    "sfr_on_localize",
    "dvm_init",
    "dvm_on_localize",
    "madrd_init",
    "madrd_on_localize",
    "madrd_predict",
    "backtrack_correct",
]


class Confidence(Enum):
    """Predictor confidence chain; transitions only step to adjacent states."""

    LC = 0
    S1 = 1
    S2 = 2
    HC = 3

    def toward_hc(self) -> "Confidence":
        return _TOWARD_HC[self._value_]

    def toward_lc(self) -> "Confidence":
        return _TOWARD_LC[self._value_]


# One step up/down the chain by ``_value_``, saturating at both ends.  MADRD steps once
# per fix; the ``value`` property and ``Confidence(v)`` each cost a Python-level call.
_TOWARD_HC = (Confidence.S1, Confidence.S2, Confidence.HC, Confidence.HC)
_TOWARD_LC = (Confidence.LC, Confidence.LC, Confidence.S1, Confidence.S2)


@dataclass(frozen=True)
class SfrConfig:
    period: float = 2.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.period) or self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")


def _check_limits(t_min: float, t_max: float) -> None:
    if not (math.isfinite(t_min) and math.isfinite(t_max)) or not (0 < t_min <= t_max):
        raise ValueError(f"need 0 < t_min <= t_max, got [{t_min}, {t_max}]")


@dataclass(frozen=True)
class DvmConfig:
    target_error: float = 5.0
    t_min: float = 0.5
    t_max: float = 6.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.target_error) or self.target_error <= 0:
            raise ValueError(f"target_error must be > 0, got {self.target_error}")
        _check_limits(self.t_min, self.t_max)


@dataclass(frozen=True)
class MadrdConfig:
    divergence_threshold: float = 5.0
    t_min: float = 0.5
    t_max: float = 6.0
    period_growth: float = 2.0
    period_shrink: float = 0.5

    def __post_init__(self) -> None:
        if not math.isfinite(self.divergence_threshold) or self.divergence_threshold <= 0:
            raise ValueError(f"divergence_threshold must be > 0, got {self.divergence_threshold}")
        _check_limits(self.t_min, self.t_max)
        if not math.isfinite(self.period_growth) or self.period_growth < 1.0:
            raise ValueError(f"period_growth must be >= 1, got {self.period_growth}")
        if not (0 < self.period_shrink <= 1.0):
            raise ValueError(f"period_shrink must be in (0, 1], got {self.period_shrink}")


@dataclass(frozen=True)
class SchedulerState:
    """Everything a scheduler carries between fixes.

    ``velocity_estimate`` is the chord velocity of the last two measured
    fixes; ``next_localization_time`` is always strictly later than the fix
    that produced it.
    """

    last_sample: LocalizationSample
    prev_sample: LocalizationSample | None
    velocity_estimate: tuple[float, float]
    next_localization_time: float
    current_period: float
    confidence: Confidence = Confidence.S1

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


# ---------------------------------------------------------------------------
# SFR
# ---------------------------------------------------------------------------


def sfr_init(sample: LocalizationSample, cfg: SfrConfig) -> SchedulerState:
    return SchedulerState(
        last_sample=sample,
        prev_sample=None,
        velocity_estimate=(0.0, 0.0),
        next_localization_time=sample.t + cfg.period,
        current_period=cfg.period,
    )


def sfr_on_localize(state: SchedulerState, sample: LocalizationSample, cfg: SfrConfig) -> SchedulerState:
    """Fixed cadence: the next fix lands exactly one period after this one."""
    return SchedulerState(
        last_sample=sample,
        prev_sample=state.last_sample,
        velocity_estimate=state.velocity_estimate,
        next_localization_time=sample.t + cfg.period,
        current_period=cfg.period,
        confidence=state.confidence,
    )


# ---------------------------------------------------------------------------
# DVM
# ---------------------------------------------------------------------------


def dvm_init(sample: LocalizationSample, cfg: DvmConfig) -> SchedulerState:
    # Start at the aggressive end until a speed estimate exists.
    return SchedulerState(
        last_sample=sample,
        prev_sample=None,
        velocity_estimate=(0.0, 0.0),
        next_localization_time=sample.t + cfg.t_min,
        current_period=cfg.t_min,
    )


def dvm_on_localize(state: SchedulerState, sample: LocalizationSample, cfg: DvmConfig) -> SchedulerState:
    """Size the next period so ~target_error meters of travel fit inside it.

    Speed is the measured displacement between the last two fixes over their
    time gap.  A stationary reading schedules the slack-most period ``t_max``;
    otherwise the period is ``target_error / speed`` clamped to the limits.
    """
    vx, vy = _chord_velocity(state.last_sample, sample)
    speed = math.hypot(vx, vy)
    if speed == 0.0:
        period = cfg.t_max
    else:
        period = _clamp(cfg.target_error / speed, cfg.t_min, cfg.t_max)
    return SchedulerState(
        last_sample=sample,
        prev_sample=state.last_sample,
        velocity_estimate=(vx, vy),
        next_localization_time=sample.t + period,
        current_period=period,
        confidence=state.confidence,
    )


# ---------------------------------------------------------------------------
# MADRD
# ---------------------------------------------------------------------------


def madrd_init(sample: LocalizationSample, cfg: MadrdConfig) -> SchedulerState:
    return SchedulerState(
        last_sample=sample,
        prev_sample=None,
        velocity_estimate=(0.0, 0.0),
        next_localization_time=sample.t + cfg.t_min,
        current_period=cfg.t_min,
        confidence=Confidence.S1,
    )


def madrd_predict(state: SchedulerState, t: float) -> Position:
    """Dead-reckoned position at time ``t``: last fix plus velocity * elapsed."""
    elapsed = t - state.last_sample.t
    m = state.last_sample.measured
    vx, vy = state.velocity_estimate
    return Position(m.x + vx * elapsed, m.y + vy * elapsed)


def madrd_on_localize(state: SchedulerState, sample: LocalizationSample, cfg: MadrdConfig) -> SchedulerState:
    """Score the prediction against the fresh fix and walk the confidence chain.

    A prediction off by more than ``divergence_threshold`` steps confidence
    toward LC, an accurate one steps it toward HC; the chain never skips a
    state.  The period then reacts to the *new* state: grow in HC, shrink in
    LC, hold in S1/S2, always clamped to ``[t_min, t_max]``.
    """
    predicted = madrd_predict(state, sample.t)
    prediction_error = distance(predicted, sample.measured)
    if prediction_error > cfg.divergence_threshold:
        confidence = state.confidence.toward_lc()
    else:
        confidence = state.confidence.toward_hc()
    period = state.current_period
    if confidence is Confidence.HC:
        period *= cfg.period_growth
    elif confidence is Confidence.LC:
        period *= cfg.period_shrink
    period = _clamp(period, cfg.t_min, cfg.t_max)
    vx, vy = _chord_velocity(state.last_sample, sample)
    return SchedulerState(
        last_sample=sample,
        prev_sample=state.last_sample,
        velocity_estimate=(vx, vy),
        next_localization_time=sample.t + period,
        current_period=period,
        confidence=confidence,
    )


# ---------------------------------------------------------------------------
# Retrospective correction
# ---------------------------------------------------------------------------


def backtrack_correct(
    prev_sample: LocalizationSample,
    last_sample: LocalizationSample,
    reported_series: Sequence[tuple[float, Position]],
    noise_max: float,
) -> tuple[list[tuple[float, Position]], int]:
    """Retrospectively smooth the reported track between two fixes.

    Every reported point strictly between the two fix times is replaced by
    the time-linear interpolation of the two measured fixes.  Returns the
    corrected series plus the number of points that moved by more than
    ``noise_max`` -- the corrections large enough to matter to a consumer of
    the track.
    """
    span = last_sample.t - prev_sample.t
    if span <= 0:
        raise ValueError("fixes must be in increasing time order")
    if noise_max < 0:
        raise ValueError(f"noise_max must be >= 0, got {noise_max}")
    a = prev_sample.measured
    b = last_sample.measured
    corrected: list[tuple[float, Position]] = []
    moved = 0
    for t, reported in reported_series:
        if not (prev_sample.t < t < last_sample.t):
            raise ValueError(f"reported point at t={t} lies outside the fix interval")
        frac = (t - prev_sample.t) / span
        point = Position(a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y))
        if distance(point, reported) > noise_max:
            moved += 1
        corrected.append((t, point))
    return corrected, moved


# ---------------------------------------------------------------------------
# Protocol table
# ---------------------------------------------------------------------------

ProtocolConfig = SfrConfig | DvmConfig | MadrdConfig


class ProtocolKind(NamedTuple):
    """One scheduler: its config class, its state machine, and how it reports.

    ``predicts`` is true when the node reports the dead-reckoned
    :func:`madrd_predict` position between fixes instead of holding the fix.
    """

    config: type
    init: Callable[[LocalizationSample, ProtocolConfig], SchedulerState]
    on_localize: Callable[[SchedulerState, LocalizationSample, ProtocolConfig], SchedulerState]
    predicts: bool


PROTOCOLS: dict[str, ProtocolKind] = {
    "sfr": ProtocolKind(SfrConfig, sfr_init, sfr_on_localize, predicts=False),
    "dvm": ProtocolKind(DvmConfig, dvm_init, dvm_on_localize, predicts=False),
    "madrd": ProtocolKind(MadrdConfig, madrd_init, madrd_on_localize, predicts=True),
}
