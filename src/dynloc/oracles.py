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

Each function checks the plain numbers it reads with a ``require_*`` rule, which
the CLI's flags, the trace, the run and the protocol configs share.  A refused
value raises :class:`FieldError`, as does every other module's bad field.  All
angles are radians, distances meters, speeds meters/second.
"""

from __future__ import annotations

import math

__all__ = [
    "FieldError",
    "number",
    "require_nonnegative",
    "require_positive",
    "require_angle",
    "sfr_turn_error",
    "madrd_turn_error",
    "sfr_pause_error",
    "madrd_pause_error",
]


class FieldError(ValueError):
    """An input refused for the value of its ``fields`` (a tuple, each name once), and why: ``reason``.

    ``str()`` reads ``field 'a': <reason>`` or ``fields 'a'/'b': <reason>``.  The args are ``(fields, reason)``,
    so one raised in a process pool's worker pickles back whole."""

    def __init__(self, fields: str | tuple[str, ...], reason: str) -> None:
        self.fields, self.reason = tuple(dict.fromkeys((fields,) if isinstance(fields, str) else fields)), reason
        super().__init__(self.fields, reason)

    @property
    def named(self) -> str:
        """The fields as the message opens with them: ``field 'a'`` or ``fields 'a'/'b'``."""
        return ("fields " if len(self.fields) > 1 else "field ") + "/".join(map(repr, self.fields))

    def __str__(self) -> str:
        return f"{self.named}: {self.reason}"


def number(text: str, kind: type = float) -> float | int:
    """The one reader of a number in user text: ``kind`` (``float``, or ``int`` for an integer field) reads ``text``
    stripped, but a digit-group "_" (``1_0``) or a non-ASCII character in it (``١٠``) raises ``ValueError``."""
    token = text.strip()
    if "_" not in token and token.isascii():
        try:
            return kind(token)
        except ValueError:
            pass
    raise ValueError(f"not {'an integer' if kind is int else 'a number'}: {token!r}")


def require_nonnegative(value: float, name: str) -> None:
    """The one "finite and >= 0" rule, shared by the run, trace and oracle fields."""
    if not (0 <= value < math.inf):
        raise FieldError(name, f"must be finite and >= 0, got {value}")


def require_positive(value: float, name: str) -> None:
    """The one "finite and > 0" rule, shared by the trace, protocol config and oracle fields."""
    if not (0 < value < math.inf):
        raise FieldError(name, f"must be finite and > 0, got {value}")


def require_angle(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise FieldError(name, f"must be a finite angle, got {value}")


def sfr_turn_error(straight_before_turn: float, turn_angle: float, past_turn: float) -> float:
    """Hold-last-fix error once the node is ``past_turn`` meters beyond the turn.

    The node takes its fix, runs ``straight_before_turn`` meters, deviates
    from its heading by ``turn_angle`` and runs on.  The fix, the turn point,
    and the node form a triangle with sides ``straight_before_turn`` and
    ``past_turn`` meeting at the turn point; the error is the third side.  The
    law of cosines in half-angle form gives
    ``sqrt((x - n)^2 + 4*x*n*cos(a/2)^2)``, which degrades gracefully at both
    extremes: ``a = 0`` collapses it to ``x + n`` (straight continuation) and
    ``a = pi`` to ``|x - n|`` (full reversal), with no cancellation in between.
    """
    require_nonnegative(straight_before_turn, "straight_before_turn")
    require_angle(turn_angle, "turn_angle")
    require_nonnegative(past_turn, "past_turn")
    x = straight_before_turn
    half_cos = math.cos(turn_angle / 2.0)
    return math.sqrt((x - past_turn) ** 2 + 4.0 * x * past_turn * half_cos * half_cos)


def madrd_turn_error(turn_angle: float, past_turn: float) -> float:
    """Dead-reckoning error ``past_turn`` meters beyond the turn.

    Prediction continues straight while the node deviates by ``turn_angle``;
    both are ``past_turn`` meters from the turn point, so the error is the
    chord ``2 * past_turn * sin(turn_angle / 2)`` between them.
    """
    require_nonnegative(past_turn, "past_turn")
    require_angle(turn_angle, "turn_angle")
    return 2.0 * past_turn * abs(math.sin(turn_angle / 2.0))


def sfr_pause_error(travel_before_stop: float, travel: float) -> float:
    """Hold-last-fix error after ``travel`` meters of intended travel.

    The node stops dead ``travel_before_stop`` meters after its fix, so the
    error tracks the distance actually covered, which saturates at the stop:
    ``min(travel, travel_before_stop)``.
    """
    require_nonnegative(travel_before_stop, "travel_before_stop")
    require_nonnegative(travel, "travel")
    return min(travel, travel_before_stop)


def madrd_pause_error(speed: float, since_pause: float) -> float:
    """Dead-reckoning error ``since_pause`` seconds after the node stopped.

    The predictor keeps moving at the pre-stop ``speed`` while the node
    stands still, so the error is ``speed * since_pause``.
    """
    require_positive(speed, "speed")
    require_nonnegative(since_pause, "since_pause")
    return speed * since_pause
