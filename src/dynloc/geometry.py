"""Planar positions, noisy position fixes, and error metrics.

Everything downstream works on a flat 2-D plane: node positions are (x, y)
pairs in meters, a localization produces a measured position within a bounded
displacement of the true one, and reporting error is the Euclidean distance
between where a node claims to be and where it actually is.  Distances over
whole columns go through :func:`hypot_exact`, which equals :func:`math.hypot`
element by element, bit for bit, called only on the lanes whose value is read.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .oracles import require_nonnegative

__all__ = [
    "hypot_exact",
    "hypot_runs",
    "count_beyond",
    "veltkamp_split",
    "SCRATCH_ROWS",
    "localize",
    "threshold_accuracy",
]


# Veltkamp's splitter 2**27 + 1: x * _SPLITTER splits a double into two 26-bit halves.
_SPLITTER = 134217729.0
_TINY = float(np.finfo(float).tiny)  # 2**-1022, the smallest normal double
_HUGE = float(np.finfo(float).max)
SCRATCH_ROWS = 12  # rows of the scratch block hypot_exact works in


def veltkamp_split(x: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Veltkamp's split into ``hi``/``lo``: ``hi + lo == x`` exactly (CPython's ``dl_split``)."""
    np.multiply(x, _SPLITTER, out=lo)
    np.subtract(lo, x, out=hi)
    np.subtract(lo, hi, out=hi)
    np.subtract(x, hi, out=lo)


def _square(x: np.ndarray, hi: np.ndarray, lo: np.ndarray, z: np.ndarray, zz: np.ndarray, w: np.ndarray) -> None:
    """Dekker's exact square: ``z + zz == x * x`` (CPython's ``dl_mul(x, x)``), ``x`` split into ``hi``/``lo``.

    ``dl_mul`` adds the two cross products ``hi * lo`` and ``lo * hi``; for a
    square they are one product, and adding it to itself doubles it exactly.
    """
    veltkamp_split(x, hi, lo)
    np.multiply(hi, hi, out=zz)
    np.multiply(hi, lo, out=w)
    w += w
    np.add(zz, w, out=z)
    zz -= z
    zz += w
    np.multiply(lo, lo, out=w)
    zz += w


def _fast_sum(a: np.ndarray, b: np.ndarray, s: np.ndarray, err: np.ndarray) -> None:
    """Fast two-sum for ``|a| >= |b|``: ``s + err == a + b`` exactly (CPython's ``dl_fast_sum``)."""
    np.add(a, b, out=s)
    np.subtract(a, s, out=err)
    err += b


def hypot_exact(dx: np.ndarray, dy: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """``math.hypot(dx[i], dy[i])`` for every ``i``, bit for bit, in array operations.

    ``np.hypot`` rounds differently in the last ulp, so this ports CPython
    3.11's two-argument ``vector_norm`` one array operation at a time: scale
    both magnitudes by the power of two that brings the larger into [0.5, 1),
    square each exactly, add the squares to ``csum = 1.0`` with their rounding
    errors kept in ``frac1``/``frac2``, take the square root and apply one
    correction step.  The port skips work whose result it knows: the first
    square is added to the constants ``1.0``, ``0.0``, ``0.0`` directly, and
    the correction's exact product of ``-h`` and ``h`` is the negated square
    of ``h``, so it is subtracted.  Either changes at most the sign of a zero
    in the accumulators, which cannot reach the result of a lane the port
    computes (``csum - 1.0`` there is at least 0.25, and ``h`` is positive).
    Lanes the port does not cover -- a larger magnitude that is zero,
    subnormal, infinite or NaN -- go through :func:`math.hypot` one at a time.
    All intermediates live in the first ``n = dx.size`` columns of
    ``scratch``, a float block of ``SCRATCH_ROWS`` rows and at least ``n``
    columns; each is written before it is read, so the block may hold
    anything and may be reused from call to call.  Without it a fresh block
    is allocated.  The result is always a new array.
    """
    n = dx.size
    if scratch is None:
        scratch = np.empty((SCRATCH_ROWS, n))
    elif scratch.dtype != np.float64 or scratch.ndim != 2 or scratch.shape[0] != SCRATCH_ROWS or scratch.shape[1] < n:
        raise ValueError(f"scratch must be a float64 {SCRATCH_ROWS} x >= {n} block, got {scratch.dtype} {scratch.shape}")
    a, b, big, scale, hi, lo, z, zz, w, csum, frac1, frac2 = scratch[:, :n]
    h = np.empty(n)
    with np.errstate(all="ignore"):
        np.abs(dx, out=a)
        np.abs(dy, out=b)
        np.maximum(a, b, out=big)
        odd = np.flatnonzero(~((big >= _TINY) & (big <= _HUGE)))
        # big = m * 2**e with m in [0.5, 1), so m / big is 2**-e exactly.
        np.frexp(big, out=(scale, np.empty(n, dtype=np.intc)))
        scale /= big
        a *= scale
        _square(a, hi, lo, z, frac1, w)
        # _fast_sum(1.0, z) into csum and frac2; frac1 took zz above (frac1 and frac2 start at 0.0).
        np.add(z, 1.0, out=csum)
        np.subtract(1.0, csum, out=frac2)
        frac2 += z
        b *= scale
        _square(b, hi, lo, z, zz, w)
        _fast_sum(csum, z, w, hi)
        csum, w = w, csum  # the new sum is in w's row; the old csum row is scratch
        frac1 += zz
        frac2 += hi
        np.add(frac1, frac2, out=hi)
        np.subtract(csum, 1.0, out=lo)
        lo += hi
        np.sqrt(lo, out=h)
        # Correction: add -h*h exactly, then h += residual / (2 * h).
        _square(h, a, b, z, zz, lo)
        np.subtract(csum, z, out=w)
        np.subtract(csum, w, out=hi)
        hi -= z
        frac1 -= zz
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


def hypot_runs(dx: np.ndarray, dy: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """:func:`hypot_exact`, computed once per run of neighbouring lanes whose ``(dx, dy)`` are equal.

    Equal by value: ``-0.0`` and ``0.0`` share a run (hypot ignores signs), NaN never does.
    """
    first = np.ones(dx.size, dtype=bool)
    np.not_equal(dx[1:], dx[:-1], out=first[1:])
    first[1:] |= dy[1:] != dy[:-1]
    if np.count_nonzero(first) * 4 > dx.size * 3:  # too few repeats to pay for the gather and the repeat
        return hypot_exact(dx, dy, scratch)
    first = np.flatnonzero(first)
    return np.repeat(hypot_exact(dx[first], dy[first], scratch), np.diff(first, append=dx.size))


def count_beyond(dx: np.ndarray, dy: np.ndarray, limit: float, scratch: np.ndarray | None = None) -> int:
    """``np.count_nonzero(hypot_exact(dx, dy) > limit)``, with :func:`hypot_exact` only on lanes near ``limit``.

    A lane is beyond if ``s = dx*dx + dy*dy > lim2 * (1 + 2**-40)``, with
    ``lim2 = limit*limit``, and within if ``s < lim2 * (1 - 2**-40)``; the rest
    (NaN among them) go through :func:`hypot_exact`.  For ``lim2`` in
    ``[2**-900, inf)`` this is exact: ``s`` is within ``2u + u**2`` of ``r**2``
    (``u = 2**-53``, ``r`` the true distance) plus ``2**-1073`` of underflow,
    ``lim2`` within ``u`` of ``limit**2``, and :func:`math.hypot` within an ulp
    (``2u``) of ``r``, all far inside the band; an overflowed ``s`` is ``inf``,
    past any finite band.  Any other ``limit`` (0 included) sends every lane
    through :func:`hypot_exact`.
    """
    lim2 = limit * limit
    if not (limit > 0.0 and 2.0**-900 <= lim2 < math.inf):
        return int(np.count_nonzero(hypot_exact(dx, dy, scratch) > limit))
    with np.errstate(over="ignore"):
        s = dx * dx + dy * dy
    beyond = s > lim2 * (1.0 + 2.0**-40)
    near = np.flatnonzero(~(beyond | (s < lim2 * (1.0 - 2.0**-40))))
    return int(np.count_nonzero(beyond)) + int(np.count_nonzero(hypot_exact(dx[near], dy[near], scratch) > limit))


def localize(noise_max: float, rng: np.random.Generator, count: int) -> tuple[list[float], list[float]]:
    """Draw the displacements of ``count`` fixes from their true positions: a ``dx`` and a ``dy`` list.

    Each fix draws a magnitude uniform in [0, noise_max), then an angle
    uniform in [0, 2*pi), from ``rng``: two draws per fix, so a seeded stream
    yields the same fixes however it is split into calls.  ``uniform(0, high)``
    is exactly ``random() * high``, without ``uniform``'s per-call set-up for
    array bounds.  The displacement is ``(magnitude * cos(angle), magnitude *
    sin(angle))`` with :mod:`math`: ``np.cos`` is not bit for bit ``libm`` on
    every build.  A fix of a node at ``(x, y)`` measures ``(x + dx, y + dy)``;
    with ``noise_max`` zero it is ``(x, y)`` exactly.
    """
    cos, sin = math.cos, math.sin
    magnitudes, angles = (rng.random((count, 2)) * (noise_max, 2.0 * math.pi)).T.tolist()
    return [m * cos(a) for m, a in zip(magnitudes, angles)], [m * sin(a) for m, a in zip(magnitudes, angles)]


def threshold_accuracy(errors: Sequence[float] | np.ndarray, tolerance: float) -> float:
    """Fraction of error samples at or below ``tolerance``.

    This is the "was the node located well enough" metric: an application that
    can absorb errors up to ``tolerance`` meters considers a sample accurate
    when its error does not exceed that bound.
    """
    values = np.asarray(errors, dtype=float)
    if values.size == 0:
        raise ValueError("threshold_accuracy needs at least one error sample")
    require_nonnegative(tolerance, "tolerance")
    return float(np.count_nonzero(values <= tolerance) / values.size)
