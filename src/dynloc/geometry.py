"""Planar positions, noisy position fixes, and error metrics.

Everything downstream works on a flat 2-D plane: node positions are (x, y)
pairs in meters, a localization produces a measured position within a bounded
displacement of the true one, and reporting error is the Euclidean distance
between where a node claims to be and where it actually is.  Distances over
whole columns go through :func:`hypot_exact`, which equals :func:`math.hypot`
element by element, bit for bit.
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
    "hypot_exact",
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


# Veltkamp's splitter 2**27 + 1: x * _SPLITTER splits a double into two 26-bit halves.
_SPLITTER = 134217729.0
_TINY = float(np.finfo(float).tiny)  # 2**-1022, the smallest normal double
_HUGE = float(np.finfo(float).max)


def _split(x: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Veltkamp's split into ``hi``/``lo``: ``hi + lo == x`` exactly (CPython's ``dl_split``)."""
    np.multiply(x, _SPLITTER, out=lo)
    np.subtract(lo, x, out=hi)
    np.subtract(lo, hi, out=hi)
    np.subtract(x, hi, out=lo)


def _mul(xh, xl, yh, yl, z: np.ndarray, zz: np.ndarray, w: np.ndarray) -> None:
    """Dekker's exact product of two split doubles: ``z + zz == x * y`` (CPython's ``dl_mul``)."""
    np.multiply(xh, yh, out=zz)
    np.multiply(xh, yl, out=w)
    np.multiply(xl, yh, out=z)
    w += z
    np.add(zz, w, out=z)
    zz -= z
    zz += w
    np.multiply(xl, yl, out=w)
    zz += w


def _fast_sum(a: np.ndarray, b: np.ndarray, s: np.ndarray, err: np.ndarray) -> None:
    """Fast two-sum for ``|a| >= |b|``: ``s + err == a + b`` exactly (CPython's ``dl_fast_sum``)."""
    np.add(a, b, out=s)
    np.subtract(a, s, out=err)
    err += b


def hypot_exact(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``math.hypot(dx[i], dy[i])`` for every ``i``, bit for bit, in array operations.

    ``np.hypot`` rounds differently in the last ulp, so this ports CPython
    3.11's two-argument ``vector_norm`` one array operation at a time: scale
    both magnitudes by the power of two that brings the larger into [0.5, 1),
    square each exactly, add the squares to ``csum = 1.0`` with their rounding
    errors kept in ``frac1``/``frac2``, take the square root and apply one
    correction step.  Lanes the port does not cover -- a larger magnitude that
    is zero, subnormal, infinite or NaN -- go through :func:`math.hypot` one
    at a time.  All intermediates live in one block of scratch rows.
    """
    n = dx.size
    a, b, big, scale, hi, lo, z, zz, w, csum, frac1, frac2 = np.empty((12, n))
    h = np.empty(n)
    with np.errstate(all="ignore"):
        np.abs(dx, out=a)
        np.abs(dy, out=b)
        np.maximum(a, b, out=big)
        odd = np.flatnonzero(~((big >= _TINY) & (big <= _HUGE)))
        exponent = np.frexp(big, out=(scale, np.empty(n, dtype=np.intc)))[1]
        np.negative(exponent, out=exponent)
        np.ldexp(1.0, exponent, out=scale)
        csum.fill(1.0)
        frac1.fill(0.0)
        frac2.fill(0.0)
        for x in (a, b):
            x *= scale
            _split(x, hi, lo)
            _mul(hi, lo, hi, lo, z, zz, w)
            _fast_sum(csum, z, w, hi)
            csum, w = w, csum  # the new sum is in w's row; the old csum row is scratch
            frac1 += zz
            frac2 += hi
        np.add(frac1, frac2, out=hi)
        np.subtract(csum, 1.0, out=lo)
        lo += hi
        np.sqrt(lo, out=h)
        # Correction: add -h*h exactly, then h += residual / (2 * h).
        np.negative(h, out=z)
        _split(z, a, b)
        _split(h, hi, lo)
        _mul(a, b, hi, lo, z, zz, w)
        _fast_sum(csum, z, w, hi)
        frac1 += zz
        frac2 += hi
        frac1 += frac2
        w -= 1.0
        w += frac1
        np.multiply(h, 2.0, out=lo)
        w /= lo
        h += w
        h /= scale
    if odd.size:
        h[odd] = list(map(math.hypot, dx[odd].tolist(), dy[odd].tolist()))
    return h


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
