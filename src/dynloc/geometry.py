"""Planar positions, noisy position fixes, and error metrics.

Everything downstream works on a flat 2-D plane: node positions are (x, y)
pairs in meters, a localization produces a measured position within a bounded
displacement of the true one, and reporting error is the Euclidean distance
between where a node claims to be and where it actually is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Position",
    "NoiseModel",
    "LocalizationSample",
    "distance",
    "draw_fix_noise",
    "noisy_fix",
    "localize",
    "threshold_accuracy",
]


@dataclass(frozen=True)
class Position:
    """A point in the plane, meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"position coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class NoiseModel:
    """Isotropic measurement noise: displacement magnitude uniform in [0, max_magnitude].

    The displacement direction is uniform over the full circle, so measured
    positions scatter inside a disc around the true position.  The default
    radius is 0.5 m.
    """

    max_magnitude: float = 0.5

    def __post_init__(self) -> None:
        if not math.isfinite(self.max_magnitude) or self.max_magnitude < 0:
            raise ValueError(f"noise max_magnitude must be >= 0, got {self.max_magnitude}")


@dataclass(frozen=True)
class LocalizationSample:
    """One position fix: the time it was taken and the measured position."""

    t: float
    measured: Position

    def __post_init__(self) -> None:
        if not math.isfinite(self.t) or self.t < 0:
            raise ValueError(f"sample time must be >= 0, got {self.t}")


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two positions."""
    return math.hypot(a.x - b.x, a.y - b.y)


def draw_fix_noise(noise: NoiseModel, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw the displacements of ``count`` fixes: one ``(magnitude, angle)`` row per fix.

    The magnitude is uniform in [0, noise.max_magnitude), the angle uniform in
    [0, 2*pi), drawn from ``rng`` in that order, so a seeded stream yields the
    same fixes one row or many rows at a time.  ``uniform(0, high)`` is exactly
    ``random() * high``, without ``uniform``'s per-call set-up for array bounds.
    """
    return rng.random((count, 2)) * (noise.max_magnitude, 2.0 * math.pi)


def noisy_fix(x: float, y: float, t: float, magnitude: float, angle: float) -> LocalizationSample:
    """The fix at time ``t`` of a node at ``(x, y)``, displaced by one row of :func:`draw_fix_noise`."""
    return LocalizationSample(t, Position(x + magnitude * math.cos(angle), y + magnitude * math.sin(angle)))


def localize(
    true_pos: Position,
    noise: NoiseModel,
    rng: np.random.Generator,
    t: float = 0.0,
) -> LocalizationSample:
    """Take one noisy position fix of ``true_pos`` at time ``t``.

    Draws one row of :func:`draw_fix_noise`; with a zero-noise model the
    measured position equals the true one exactly.  Two draws are consumed
    from ``rng`` per call, so a fixed seed yields a bit-identical sequence of
    fixes.
    """
    magnitude, angle = draw_fix_noise(noise, rng, 1).tolist()[0]
    return noisy_fix(true_pos.x, true_pos.y, t, magnitude, angle)


def threshold_accuracy(errors: Sequence[float] | Iterable[float], tolerance: float) -> float:
    """Fraction of error samples at or below ``tolerance``.

    This is the "was the node located well enough" metric: an application that
    can absorb errors up to ``tolerance`` meters considers a sample accurate
    when its error does not exceed that bound.
    """
    values = np.asarray(list(errors) if not isinstance(errors, (list, tuple, np.ndarray)) else errors, dtype=float)
    if values.size == 0:
        raise ValueError("threshold_accuracy needs at least one error sample")
    if not math.isfinite(tolerance) or tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    return float(np.count_nonzero(values <= tolerance) / values.size)
