"""Fix-driven simulation engine: drive one scheduler over one mobility trace.

The engine owns the clock and the measurement noise.  Localizations fire at
the first grid step at or after the scheduler's requested time (ceiling snap
onto the dt grid), at most one per step; the very first fix is forced at t=0.

Python steps once per fix, not once per grid step.  Each fix runs the
scheduler, and a binary search over the grid finds the step of the next fix.
The reported track is then filled in array form: SFR and DVM hold each fix
over its segment, MADRD dead-reckons ``fix + velocity * (t - t_fix)``.  With
backtracking on, every closed interval between two fixes is rewritten with
the time-linear interpolation of its bounding fixes, all intervals in one
array pass, computed in place.  Every float comes from the same IEEE
operations a per-step loop would apply (only the operands of one ``+`` or
``*`` may swap, which is exact), and distances go through
:func:`~dynloc.geometry.hypot_exact`, which equals :func:`math.hypot` bit for
bit (``np.hypot`` differs in the last ulp), so the result is bit-identical to
stepping the grid point by point.

A run returns per-step columns as read-only arrays, the fixes, and scalar
metrics; :attr:`RunResult.events` builds row tuples only when asked.  A run is
fully determined by its config and seed -- the noise stream is the only
randomness, and it is seeded explicitly.  The engine draws that stream
``_NOISE_CHUNK`` fixes at a time through :func:`~dynloc.geometry.draw_fix_noise`,
which yields the same draws in the same order as one
:func:`~dynloc.geometry.localize` call per fix.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .geometry import (
    LocalizationSample,
    NoiseModel,
    draw_fix_noise,
    hypot_exact,
    localize,  # noqa: F401 -- unused here; bound so perfbench's tracer can wrap it
    noisy_fix,
    threshold_accuracy,
)
from .mobility import MobilityTrace
from .protocols import (
    PROTOCOLS,
    ProtocolConfig,
    SchedulerState,
    backtrack_correct,  # noqa: F401 -- unused here; bound so perfbench's tracer can wrap it
    madrd_predict,  # noqa: F401 -- unused here; bound so perfbench's tracer can wrap it
)

__all__ = [
    "RunConfig",
    "RunMetrics",
    "EventRecord",
    "RunResult",
    "run",
]

_SCHED_EPS = 1e-9
# Fixes of noise drawn per refill.  Any size yields the same stream; a stock run
# takes 165-760 fixes, and the draws left over at the end of a run are dropped.
_NOISE_CHUNK = 256


@dataclass(frozen=True)
class RunConfig:
    trace: MobilityTrace
    protocol: str
    protocol_config: ProtocolConfig
    noise: NoiseModel = field(default_factory=NoiseModel)
    dist_tolerance: float = 5.0
    seed: int = 0
    backtracking_enabled: bool = False

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}, expected one of {tuple(PROTOCOLS)}")
        expected = PROTOCOLS[self.protocol].config
        if not isinstance(self.protocol_config, expected):
            raise ValueError(
                f"protocol {self.protocol!r} needs a {expected.__name__}, "
                f"got {type(self.protocol_config).__name__}"
            )
        if not math.isfinite(self.dist_tolerance) or self.dist_tolerance < 0:
            raise ValueError(f"dist_tolerance must be >= 0, got {self.dist_tolerance}")


class EventRecord(NamedTuple):
    """One row per dt step of the run; the fields name the columns of :class:`RunResult`."""

    t: float
    true_x: float
    true_y: float
    reported_x: float
    reported_y: float
    error: float
    localized: int
    period: float
    confidence: str


@dataclass(frozen=True)
class RunMetrics:
    localization_count: int
    accuracy: float
    mean_error: float
    max_error: float
    correction_count: int


@dataclass(frozen=True, eq=False)
class RunResult:
    """One run: scalar metrics, the fixes, and one read-only column per event field.

    Columns have one entry per grid step.  ``localized`` is 1 at fix steps;
    ``period`` is the scheduler's period after the step's latest fix;
    ``confidence`` holds MADRD's state name and is empty for SFR and DVM.
    Compare two results column by column (``np.array_equal``), not with ``==``.
    """

    metrics: RunMetrics
    samples: list[LocalizationSample]
    t: np.ndarray
    true_x: np.ndarray
    true_y: np.ndarray
    reported_x: np.ndarray
    reported_y: np.ndarray
    error: np.ndarray
    localized: np.ndarray
    period: np.ndarray
    confidence: np.ndarray

    def columns(self) -> list[list]:
        """The event columns as Python lists, in :class:`EventRecord` field order."""
        return [getattr(self, name).tolist() for name in EventRecord._fields]

    @property
    def events(self) -> list[EventRecord]:
        """Row view of the columns, built on each access."""
        return list(map(EventRecord._make, zip(*self.columns())))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _fix_noise(noise: NoiseModel, rng: np.random.Generator) -> Iterator[list[float]]:
    """Endless ``[magnitude, angle]`` rows of fix noise, drawn ``_NOISE_CHUNK`` fixes at a time."""
    while True:
        yield from draw_fix_noise(noise, rng, _NOISE_CHUNK).tolist()


def run(cfg: RunConfig) -> RunResult:
    """Simulate one node/protocol pair over the full trace.

    Per fix: take a noisy fix at the current grid step, advance the scheduler,
    and jump to the first step with ``t + eps >= next_localization_time``.
    The steps in between report the held fix (SFR/DVM) or its dead-reckoned
    extrapolation (MADRD).  With backtracking enabled, each fix then rewrites
    the reported points of the interval it closes with the time-linear
    interpolation of its two bounding fixes; rows after the last fix stay as
    reported.  Corrections larger than the noise bound are counted.  Errors
    are measured against ground truth after any correction.
    """
    trace = cfg.trace
    times, xs, ys = trace.times, trace.xs, trace.ys
    n = times.size
    # A fix requested at time r fires at the first step k with times[k] + eps >= r:
    # bisect_left over this list is np.searchsorted(times + eps, r) without the
    # per-call numpy overhead.
    due = (times + _SCHED_EPS).tolist()
    rng = np.random.default_rng(cfg.seed)
    noise = cfg.noise
    kind = PROTOCOLS[cfg.protocol]
    init, on_localize = kind.init, kind.on_localize
    pcfg = cfg.protocol_config

    fix_steps: list[int] = []
    states: list[SchedulerState] = []
    state: SchedulerState | None = None
    k = 0
    for magnitude, angle in _fix_noise(noise, rng):
        sample = noisy_fix(xs.item(k), ys.item(k), times.item(k), magnitude, angle)
        state = init(sample, pcfg) if state is None else on_localize(state, sample, pcfg)
        fix_steps.append(k)
        states.append(state)
        k = max(bisect_left(due, state.next_localization_time), k + 1)
        if k >= n:
            break

    samples = [s.last_sample for s in states]
    fixes = np.array(fix_steps)
    seg = np.diff(fixes, append=n)  # grid steps reported from each fix
    fix_t = np.array([s.t for s in samples])
    fix_x = np.array([s.measured.x for s in samples])
    fix_y = np.array([s.measured.y for s in samples])
    localized = np.zeros(n, dtype=np.int8)
    localized[fixes] = 1
    period = np.repeat(np.array([s.current_period for s in states], dtype=float), seg)
    if kind.predicts:
        # Same operations as madrd_predict: m + v * (t - t_fix), in place.
        elapsed = np.repeat(fix_t, seg)
        np.subtract(times, elapsed, out=elapsed)
        rep_x = np.repeat([s.velocity_estimate[0] for s in states], seg)
        rep_x *= elapsed
        rep_x += np.repeat(fix_x, seg)
        rep_y = np.repeat([s.velocity_estimate[1] for s in states], seg)
        rep_y *= elapsed
        rep_y += np.repeat(fix_y, seg)
        confidence = np.repeat([s.confidence.name for s in states], seg)
    else:
        rep_x = np.repeat(fix_x, seg)
        rep_y = np.repeat(fix_y, seg)
        confidence = np.full(n, "", dtype="<U2")

    correction_count = 0
    if cfg.backtracking_enabled:
        # Steps strictly inside a closed interval, and the fix that opens it.
        owner = np.repeat(np.arange(fixes.size), seg)
        inner = np.flatnonzero((localized == 0) & (owner < fixes.size - 1))
        j = owner[inner]
        # Same operations as backtrack_correct: a + frac * (b - a), in place;
        # np.diff(v)[j] is v[j + 1] - v[j].
        scratch = np.empty(j.size)
        frac = times[inner]
        frac -= fix_t.take(j, out=scratch)
        frac /= np.diff(fix_t).take(j, out=scratch)
        cx = np.diff(fix_x).take(j)
        cx *= frac
        cx += fix_x.take(j, out=scratch)
        cy = np.diff(fix_y).take(j)
        cy *= frac
        cy += fix_y.take(j, out=scratch)
        # frac and scratch are free again: they take how far each point moves.
        dx = np.subtract(cx, rep_x.take(inner, out=frac), out=frac)
        dy = np.subtract(cy, rep_y.take(inner, out=scratch), out=scratch)
        correction_count = int(np.count_nonzero(hypot_exact(dx, dy) > noise.max_magnitude))
        rep_x[inner] = cx
        rep_y[inner] = cy

    errors = hypot_exact(rep_x - trace.xs, rep_y - trace.ys)
    metrics = RunMetrics(
        localization_count=len(samples),
        accuracy=threshold_accuracy(errors, cfg.dist_tolerance),
        mean_error=float(errors.mean()),
        max_error=float(errors.max()),
        correction_count=correction_count,
    )
    return RunResult(
        metrics,
        samples,
        times,
        trace.xs,
        trace.ys,
        *(_readonly(c) for c in (rep_x, rep_y, errors, localized, period, confidence)),
    )
