"""Closed-form reporting-error shapes for single-maneuver scenarios.

Two idealized maneuvers admit exact error formulas, which makes them useful
as independent checks on the simulator:

* A **turn**: the node takes a fix, runs straight for some distance, then
  deviates from its heading by a fixed angle and keeps going at the same
  speed.  A hold-last-fix reporter (SFR-style) accumulates error equal to the
  distance back to the fix point; a dead-reckoning reporter (MADRD-style)
  accumulates the chord between the straight-line prediction and the actual
  deviated path.
* A **pause**: the node runs straight, then stops.  Hold-last-fix error
  saturates at the distance covered before stopping; dead reckoning keeps
  extrapolating and its error grows linearly for as long as the node stands
  still.

All angles are radians, distances meters, speeds meters/second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "TurnScenario",
    "PauseScenario",
    "sfr_turn_error",
    "madrd_turn_error",
    "sfr_pause_error",
    "madrd_pause_error",
]


@dataclass(frozen=True)
class TurnScenario:
    """One fix, a straight run, then a single heading change.

    Attributes:
        straight_before_turn: distance covered between the fix and the turn.
        turn_angle: deviation from the original heading at the turn point.
        speed: constant travel speed through the whole maneuver.
        period: time between fixes; together with ``speed`` it bounds how far
            the node can get before the next fix resets the error.
    """

    straight_before_turn: float
    turn_angle: float
    speed: float
    period: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.straight_before_turn) or self.straight_before_turn < 0:
            raise ValueError(f"straight_before_turn must be >= 0, got {self.straight_before_turn}")
        if not math.isfinite(self.turn_angle):
            raise ValueError("turn_angle must be finite")
        if not math.isfinite(self.speed) or self.speed <= 0:
            raise ValueError(f"speed must be > 0, got {self.speed}")
        if not math.isfinite(self.period) or self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if self.straight_before_turn > self.speed * self.period + 1e-12:
            raise ValueError(
                "turn lies beyond the inter-fix travel budget: "
                f"{self.straight_before_turn} > {self.speed * self.period}"
            )


@dataclass(frozen=True)
class PauseScenario:
    """A straight run that stops dead after a fixed distance.

    Attributes:
        travel_before_stop: distance covered between the fix and the stop.
        speed: travel speed before stopping.
    """

    travel_before_stop: float
    speed: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.travel_before_stop) or self.travel_before_stop < 0:
            raise ValueError(f"travel_before_stop must be >= 0, got {self.travel_before_stop}")
        if not math.isfinite(self.speed) or self.speed <= 0:
            raise ValueError(f"speed must be > 0, got {self.speed}")


def sfr_turn_error(scenario: TurnScenario, past_turn: float) -> float:
    """Hold-last-fix error once the node is ``past_turn`` meters beyond the turn.

    The fix, the turn point, and the node form a triangle with sides
    ``straight_before_turn`` and ``past_turn`` meeting at the turn point; the
    error is the third side.  The law of cosines in half-angle form gives
    ``sqrt((x - n)^2 + 4*x*n*cos(a/2)^2)``, which degrades gracefully at both
    extremes: ``a = 0`` collapses it to ``x + n`` (straight continuation) and
    ``a = pi`` to ``|x - n|`` (full reversal), with no cancellation in between.
    """
    if not math.isfinite(past_turn) or past_turn < 0:
        raise ValueError(f"past_turn must be >= 0, got {past_turn}")
    x = scenario.straight_before_turn
    half_cos = math.cos(scenario.turn_angle / 2.0)
    return math.sqrt((x - past_turn) ** 2 + 4.0 * x * past_turn * half_cos * half_cos)


def madrd_turn_error(turn_angle: float, past_turn: float) -> float:
    """Dead-reckoning error ``past_turn`` meters beyond the turn.

    Prediction continues straight while the node deviates by ``turn_angle``;
    both are ``past_turn`` meters from the turn point, so the error is the
    chord ``2 * past_turn * sin(turn_angle / 2)`` between them.
    """
    if not math.isfinite(past_turn) or past_turn < 0:
        raise ValueError(f"past_turn must be >= 0, got {past_turn}")
    if not math.isfinite(turn_angle):
        raise ValueError("turn_angle must be finite")
    return 2.0 * past_turn * abs(math.sin(turn_angle / 2.0))


def sfr_pause_error(scenario: PauseScenario, travel: float) -> float:
    """Hold-last-fix error after ``travel`` meters of intended travel.

    Error tracks the distance actually covered, which saturates at the stop:
    ``min(travel, travel_before_stop)``.
    """
    if not math.isfinite(travel) or travel < 0:
        raise ValueError(f"travel must be >= 0, got {travel}")
    return min(travel, scenario.travel_before_stop)


def madrd_pause_error(scenario: PauseScenario, since_pause: float) -> float:
    """Dead-reckoning error ``since_pause`` seconds after the node stopped.

    The predictor keeps moving at the pre-stop speed while the node stands
    still, so the error is ``speed * since_pause``.
    """
    if not math.isfinite(since_pause) or since_pause < 0:
        raise ValueError(f"since_pause must be >= 0, got {since_pause}")
    return scenario.speed * since_pause
