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

Each scheduler is one pure function on plain floats, ``*_step``: it takes
the fix just measured and the row the previous fix returned, and returns this
fix's row (its period, velocity estimate, confidence and prediction error; see
:data:`FIX_COLUMNS`).  A run carries that row, and nothing else, from one fix
to the next.  :func:`madrd_predict` is MADRD's dead reckoning, on floats or on
whole columns.  The simulation engine calls the steps directly and owns the
clock and the noise; nothing here draws randomness.  :data:`PROTOCOLS` is the
one table of protocol kinds; engine, sweeps and CLI all read it, so a new
scheduler is one row there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .oracles import FieldError, require_positive

__all__ = [
    "PROTOCOLS",
    "ProtocolConfig",
    "ProtocolKind",
    "Confidence",
    "SfrConfig",
    "DvmConfig",
    "MadrdConfig",
    "FIX_COLUMNS",
    "sfr_step",
    "dvm_step",
    "madrd_step",
    "madrd_predict",
]


class Confidence(Enum):
    """Predictor confidence chain; transitions only step to adjacent states."""

    LC = 0
    S1 = 1
    S2 = 2
    HC = 3


# The value one step up/down the chain from each value, saturating at both ends.
# :func:`madrd_step` walks these on plain ints, once per fix.
_TOWARD_HC = (1, 2, 3, 3)
_TOWARD_LC = (0, 0, 1, 2)


@dataclass(frozen=True)
class SfrConfig:
    period: float = 2.0

    def __post_init__(self) -> None:
        require_positive(self.period, "period")


def _check_limits(t_min: float, t_max: float) -> None:
    if not (math.isfinite(t_min) and math.isfinite(t_max)) or not (0 < t_min <= t_max):
        raise FieldError(("t_min", "t_max"), f"need finite 0 < t_min <= t_max, got [{t_min}, {t_max}]")


@dataclass(frozen=True)
class DvmConfig:
    target_error: float = 5.0
    t_min: float = 0.5
    t_max: float = 6.0

    def __post_init__(self) -> None:
        require_positive(self.target_error, "target_error")
        _check_limits(self.t_min, self.t_max)


@dataclass(frozen=True)
class MadrdConfig:
    divergence_threshold: float = 5.0
    t_min: float = 0.5
    t_max: float = 6.0
    period_growth: float = 2.0
    period_shrink: float = 0.5

    def __post_init__(self) -> None:
        require_positive(self.divergence_threshold, "divergence_threshold")
        _check_limits(self.t_min, self.t_max)
        if not math.isfinite(self.period_growth) or self.period_growth < 1.0:
            raise FieldError("period_growth", f"must be finite and >= 1, got {self.period_growth}")
        if not (0 < self.period_shrink <= 1.0):
            raise FieldError("period_shrink", f"must lie in (0, 1], got {self.period_shrink}")


def _clamp(value: float, lo: float, hi: float) -> float:
    return lo if value < lo else hi if value > hi else value


def madrd_predict(x, y, vx, vy, elapsed):
    """Dead reckoning: where a node last fixed at ``(x, y)`` is ``elapsed`` seconds later at velocity ``(vx, vy)``.

    Returns ``(x + vx * elapsed, y + vy * elapsed)``, for floats or for
    equal-length arrays alike: the engine calls it once per MADRD run on the
    columns of the reported track.  Array ``vx``/``vy`` are overwritten with
    the result and returned, so a call allocates nothing: the engine's columns
    are its own, and new ones would be grid-long arrays faulted in at every
    run (see :meth:`~dynloc.engine.Workspace.scratch`).
    """
    vx *= elapsed
    vx += x
    vy *= elapsed
    vy += y
    return vx, vy


# ---------------------------------------------------------------------------
# Per-fix steps
# ---------------------------------------------------------------------------

FIX_COLUMNS = ("t", "x", "y", "period", "vx", "vy", "confidence", "prediction_error")
"""Fields of the row a step returns, in order.  The next fix is due at ``t + period``.

``vx``/``vy`` is the chord velocity of the last two fixes, ``confidence`` a
:class:`Confidence` value (S1 throughout for SFR and DVM), and
``prediction_error`` MADRD's distance between its prediction and the fix (NaN
when nothing was predicted).
"""

_NAN = math.nan
_LC, _S1, _HC = Confidence.LC.value, Confidence.S1.value, Confidence.HC.value


def sfr_step(t: float, x: float, y: float, carry: tuple | None, cfg: SfrConfig) -> tuple:
    """Fixed cadence: the next fix lands exactly one period after this one."""
    if carry is None:
        return (t, x, y, cfg.period, 0.0, 0.0, _S1, _NAN)
    return (t, x, y, cfg.period, carry[4], carry[5], carry[6], _NAN)


def dvm_step(t: float, x: float, y: float, carry: tuple | None, cfg: DvmConfig) -> tuple:
    """Size the next period so ~target_error meters of travel fit inside it.

    The first fix starts at the aggressive end, ``t_min``, until a speed
    estimate exists.  Speed is the measured displacement between the last two
    fixes over their time gap.  A stationary reading schedules the slack-most
    period ``t_max``; otherwise the period is ``target_error / speed`` clamped
    to the limits.
    """
    if carry is None:
        return (t, x, y, cfg.t_min, 0.0, 0.0, _S1, _NAN)
    t0, x0, y0, _, _, _, confidence, _ = carry
    elapsed = t - t0
    if elapsed <= 0:
        raise ValueError(f"fixes must be separated in time, got dt={elapsed}")
    vx = (x - x0) / elapsed
    vy = (y - y0) / elapsed
    speed = math.hypot(vx, vy)
    if speed == 0.0:
        period = cfg.t_max
    else:
        period = _clamp(cfg.target_error / speed, cfg.t_min, cfg.t_max)
    return (t, x, y, period, vx, vy, confidence, _NAN)


def madrd_step(t: float, x: float, y: float, carry: tuple | None, cfg: MadrdConfig) -> tuple:
    """Score the prediction against the fresh fix and walk the confidence chain.

    The first fix starts in S1 at ``t_min``.  After that the prediction is
    the :func:`madrd_predict` position ``last fix + velocity * elapsed``.  A
    prediction off by more than ``divergence_threshold`` steps confidence
    toward LC, an accurate one steps it toward HC; the chain never skips a
    state.  The period then reacts to the *new* state: grow in HC, shrink in
    LC, hold in S1/S2, always clamped to ``[t_min, t_max]``.
    """
    if carry is None:
        return (t, x, y, cfg.t_min, 0.0, 0.0, _S1, _NAN)
    t0, x0, y0, period, vx, vy, confidence, _ = carry
    elapsed = t - t0
    if elapsed <= 0:
        raise ValueError(f"fixes must be separated in time, got dt={elapsed}")
    px, py = madrd_predict(x0, y0, vx, vy, elapsed)
    error = math.hypot(px - x, py - y)
    if error > cfg.divergence_threshold:
        confidence = _TOWARD_LC[confidence]
    else:
        confidence = _TOWARD_HC[confidence]
    if confidence == _HC:
        period *= cfg.period_growth
    elif confidence == _LC:
        period *= cfg.period_shrink
    period = _clamp(period, cfg.t_min, cfg.t_max)
    return (t, x, y, period, (x - x0) / elapsed, (y - y0) / elapsed, confidence, error)


# ---------------------------------------------------------------------------
# Protocol table
# ---------------------------------------------------------------------------

ProtocolConfig = SfrConfig | DvmConfig | MadrdConfig


class ProtocolKind(NamedTuple):
    """One scheduler: its config class, its per-fix step, and how it reports.

    ``step(t, x, y, carry, cfg)`` takes the fix measured at ``(x, y)`` at time
    ``t`` and the previous fix's row (``None`` at the first fix) and returns
    this fix's row, whose fields are :data:`FIX_COLUMNS`.  ``predicts`` is true
    when the node reports the dead-reckoned :func:`madrd_predict` position
    between fixes instead of holding the fix.  ``fixed_rate`` is true when the
    fix times do not depend on what the node measures: every row repeats the
    first fix's row in the period and in every field other than
    ``t``/``x``/``y``.  The engine then walks, one ``step`` call per fix, only
    the first such run on a time grid and period, and keeps its fix steps; a
    later run reuses them and calls ``step`` once, at the first fix.
    """

    config: type
    step: Callable[[float, float, float, "tuple | None", ProtocolConfig], tuple]
    predicts: bool
    fixed_rate: bool

    def configure(self, kind: str, params: dict) -> ProtocolConfig:
        """The config of ``params`` for this row, named ``kind``; a parameter it has no field for is an error."""
        unread = tuple(name for name in params if name not in self.config.__dataclass_fields__)
        if unread:
            raise FieldError(unread, f"not a parameter of the {kind} protocol")
        return self.config(**params)


PROTOCOLS: dict[str, ProtocolKind] = {
    "sfr": ProtocolKind(SfrConfig, sfr_step, predicts=False, fixed_rate=True),
    "dvm": ProtocolKind(DvmConfig, dvm_step, predicts=False, fixed_rate=False),
    "madrd": ProtocolKind(MadrdConfig, madrd_step, predicts=True, fixed_rate=False),
}
