"""Fix-driven simulation engine: drive one scheduler over one mobility trace.

The engine owns the clock and the measurement noise.  The clock is the trace's
time grid, step ``k`` at ``k * dt`` (:class:`~dynloc.mobility.MobilityTrace`).
Localizations fire at the first grid step at or after the scheduler's requested
time (ceiling snap onto the grid), at most one per step; the very first fix is
forced at t=0.

Python steps once per fix, not once per grid step, and only on plain floats:
each fix calls the protocol's ``step`` (:data:`~dynloc.protocols.PROTOCOLS`)
and appends the row it returns, and a binary search over the grid finds the
step of the next fix.  No object is built per fix.  SFR's fix times do not
depend on what it measures (``fixed_rate`` in its table row), so only its
first run on a time grid and period takes that walk; the workspace keeps the
walk's fix steps, and a later run calls ``step`` once, at the first fix, and
adds the same noise stream to the true positions at those steps in array
form.  Either way the fixes become per-fix columns (:class:`Fixes`), and the
reported track is then filled in array form: SFR and DVM hold each fix over
its segment, MADRD dead-reckons through one
:func:`~dynloc.protocols.madrd_predict` call on the fix columns repeated over
their segments.  With backtracking on,
:func:`backtrack_correct` rewrites every closed interval between two fixes
with the time-linear interpolation of its bounding fixes, all intervals in one
array pass, in place.  Every float comes from the same IEEE operations a
per-step loop would apply (only the operands of one ``+`` or ``*`` may swap,
which is exact), and every distance equals :func:`math.hypot` bit for bit
(``np.hypot`` differs in the last ulp), so the result is bit-identical to
stepping the grid point by point.  A distance is computed only where it is read:
each error once per run of equal offsets (:func:`~dynloc.geometry.hypot_runs`),
and a backtracking move only near ``noise_max`` (:func:`~dynloc.geometry.count_beyond`).

A run returns its config, its metrics, and its fixes, reported track and error
as read-only arrays.  A run is fully determined by its config and seed -- the noise
stream is the only randomness, and it is seeded explicitly.  The engine draws
that stream ``_NOISE_CHUNK`` fixes at a time through
:func:`~dynloc.geometry.localize` into a ``dx`` and a ``dy`` list, which yield
the same displacements in the same order however the stream is split into
calls; the walk indexes them, the array form slices them.

What a run costs before and besides its fixes -- the scratch block of
:func:`~dynloc.geometry.hypot_exact`, the fix schedule of the time grid, the
walked fix steps of each fixed-rate period, the noise stream -- lives in a
:class:`Workspace`.  A caller that makes many runs passes one workspace to
each, so runs on the same grid, the same ``(samples, dt)`` (every run of a
sweep), or the same noise seed (the protocols of one sweep cell) share that
work; :func:`run` without one builds a fresh workspace.  A result never refers
to workspace memory, and it is the same, bit for bit, with a fresh or a shared
workspace.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count
from typing import NamedTuple

import numpy as np

from .geometry import SCRATCH_ROWS, count_beyond, hypot_runs, localize, threshold_accuracy
from .mobility import ByName, MobilityTrace, grid_times
from .oracles import FieldError, require_nonnegative
from .protocols import FIX_COLUMNS, PROTOCOLS, ProtocolConfig, ProtocolKind, madrd_predict

__all__ = [
    "RunConfig",
    "RunMetrics",
    "Fixes",
    "RunResult",
    "Workspace",
    "backtrack_correct",
    "run",
]

_SCHED_EPS = 1e-9
# Fixes of noise drawn per refill.  Any size yields the same stream; a stock run takes
# 94-1,447 fixes (169-733 in the Gauss-Markov bundle), and the draws left over at the end
# of a run are dropped.
_NOISE_CHUNK = 256


@dataclass(frozen=True)
class RunConfig(ByName):
    """The inputs of one run.

    ``noise_max`` bounds each fix's displacement, in meters; the class of ``protocol_config`` names the
    protocol (:attr:`protocol`).  ``seed`` is the noise seed, never a flag's or a spec's: :meth:`of` is given it.
    """

    trace: MobilityTrace
    protocol_config: ProtocolConfig
    noise_max: float = 0.5
    dist_tolerance: float = 5.0
    seed: int = 0
    backtracking_enabled: bool = False

    def __post_init__(self) -> None:
        self.protocol  # a config of no known kind raises here
        require_nonnegative(self.noise_max, "noise_max")
        require_nonnegative(self.dist_tolerance, "dist_tolerance")

    @property
    def protocol(self) -> str:
        """The name of the :data:`~dynloc.protocols.PROTOCOLS` row whose config class ``protocol_config`` is."""
        for name, kind in PROTOCOLS.items():
            if type(self.protocol_config) is kind.config:
                return name
        configs = "/".join(kind.config.__name__ for kind in PROTOCOLS.values())
        raise FieldError("protocol_config", f"need a {configs}, got {type(self.protocol_config).__name__}")


@dataclass(frozen=True)
class RunMetrics:
    """A run's scalar outcome; the fields, in order, are the columns of the ``simulate`` row."""

    localization_count: int
    mean_error: float
    max_error: float
    accuracy: float
    correction_count: int


class Fixes(NamedTuple):
    """One read-only column per fix field: the grid ``step`` of each fix, then
    :data:`~dynloc.protocols.FIX_COLUMNS`, the row each scheduler step returns.

    ``x``/``y`` is the measured (noisy) position; ``confidence`` is ``int8``.
    """

    step: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    period: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    confidence: np.ndarray
    prediction_error: np.ndarray


@dataclass(frozen=True, eq=False)
class RunResult:
    """One run: the config it ran, its metrics and fixes, and read-only ``reported_x``, ``reported_y`` and
    ``error`` with one entry per grid step.  Compare results column by column (``np.array_equal``), not with ``==``."""

    config: RunConfig
    metrics: RunMetrics
    fixes: Fixes
    reported_x: np.ndarray
    reported_y: np.ndarray
    error: np.ndarray


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class Workspace:
    """What consecutive runs share: scratch memory, the schedules of a time grid, a noise stream.

    It keeps one grow-only :func:`~dynloc.geometry.hypot_exact` scratch block;
    as ``grid(samples, dt)``, keyed on the time grid's value (so the traces of a
    sweep share them), the fix schedule of the last grid it saw and the fix steps of
    the first walked run of every fixed-rate period on that grid (keyed by the
    bits of the period); and the fix displacements drawn so far from the last
    noise stream (keyed by the seed and the bits of the noise bound, since
    ``0.0 == -0.0``).  A run on the same stream reads the displacements from the
    first one, so it sees the same stream as on a fresh workspace.  Pass one
    workspace to one run at a time.
    """

    def __init__(self) -> None:
        self._block = np.empty((SCRATCH_ROWS, 0))
        # grid(samples, dt) is (due, kept).  A fix requested at ``r`` fires at step ``bisect_left(due, r)``: ``due``
        # is ``times + eps`` as a list, ``np.searchsorted`` without its per-call overhead.  ``kept`` holds read-only
        # fixed-rate fix steps keyed by the bits of a period; it starts empty for each grid, and run fills it.
        self.grid = lru_cache(maxsize=1)(lambda samples, dt: ((grid_times(samples, dt) + _SCHED_EPS).tolist(), {}))
        self._noise_key: tuple | None = None
        self._rng: np.random.Generator | None = None
        self._dx: list[float] = []
        self._dy: list[float] = []

    def scratch(self, n: int) -> np.ndarray:
        """The scratch block, grown to at least ``n`` columns if it is narrower."""
        if self._block.shape[1] < n:
            self._block = np.empty((SCRATCH_ROWS, n))
        return self._block

    def noise(self, noise_max: float, seed: int, fixes: int) -> tuple[list[float], list[float]]:
        """The ``dx`` and ``dy`` fix displacements of ``default_rng(seed)`` from the stream's first fix.

        Both lists hold at least ``fixes`` entries; a call on the same stream
        grows the same two lists, ``_NOISE_CHUNK`` fixes at a time, so the
        displacements drawn for an earlier run are reused.
        """
        key = (seed, struct.pack("<d", noise_max))
        if key != self._noise_key:
            self._noise_key = key
            self._rng = np.random.default_rng(seed)
            self._dx, self._dy = [], []
        while len(self._dx) < fixes:
            dx, dy = localize(noise_max, self._rng, _NOISE_CHUNK)
            self._dx += dx
            self._dy += dy
        return self._dx, self._dy


def _fixes(cfg: RunConfig, kind: ProtocolKind, ws: Workspace) -> Fixes:
    """The fixes of a run: one walk over the grid, one ``step`` call per fix.

    A fix at step ``k`` requesting the next one at ``r`` fires it at the first
    step ``j`` with ``times[j] + eps >= r``, or at ``k + 1`` if that is later.
    A fix whose request does not come after it raises naming the field that
    floors the period: ``t_min`` if the config has one (a period >= ``t_min``
    with ``t + period == t`` means ``t + t_min == t``), else ``period``.  A NaN
    request, which only a fix that overflowed gives (DVM's), names ``noise_max``.

    A ``fixed_rate`` run's fix steps depend on the grid and the period alone:
    the first such run on a grid and period is walked and its steps kept in
    the workspace; a later one calls ``step`` once, at the first fix, and
    adds the noise stream to the true positions at the kept steps in array
    form, every row after t/x/y repeating the first one.
    """
    times, xs, ys = cfg.trace.times, cfg.trace.xs, cfg.trace.ys
    n = times.size
    due, kept = ws.grid(n, cfg.trace.dt)
    pcfg, step = cfg.protocol_config, kind.step
    dxs, dys = ws.noise(cfg.noise_max, cfg.seed, 1)
    t = times.item(0)
    row = step(t, xs.item(0) + dxs[0], ys.item(0) + dys[0], None, pcfg)
    if kind.fixed_rate:
        key = struct.pack("<d", row[3])
        steps = kept.get(key)
        if steps is not None:
            m = steps.size
            ws.noise(cfg.noise_max, cfg.seed, m)
            # Plain float adds: an overflow gives inf, as in Python, and non-finite errors.
            with np.errstate(over="ignore", invalid="ignore"):
                fix_x = xs[steps] + dxs[:m]
                fix_y = ys[steps] + dys[:m]
            rest = np.repeat(np.array(row[3:], dtype=float)[:, None], m, axis=1)
            return Fixes(steps.copy(), times[steps], fix_x, fix_y, *rest[:3], rest[3].astype(np.int8), rest[4])

    fix_steps: list[int] = []
    rows: list[tuple] = []
    k = 0
    for i in count(1):
        next_t = t + row[3]  # the row's period (FIX_COLUMNS)
        if not next_t > t:
            if math.isnan(next_t):
                raise FieldError("noise_max", f"{cfg.noise_max} makes a fix non-finite by t={t}")
            floor = "t_min" if hasattr(pcfg, "t_min") else "period"
            raise FieldError(floor, f"the next fix must come after the fix at t={t}, got {next_t}")
        fix_steps.append(k)
        rows.append(row)
        j = bisect_left(due, next_t)
        k = j if j > k else k + 1
        if k >= n:
            break
        if i == len(dxs):
            ws.noise(cfg.noise_max, cfg.seed, i + 1)
        t = times.item(k)
        row = step(t, xs.item(k) + dxs[i], ys.item(k) + dys[i], row, pcfg)

    m = len(rows)
    width = len(FIX_COLUMNS)
    columns = np.fromiter(chain.from_iterable(rows), float, m * width).reshape(m, width).T.copy()
    steps = np.array(fix_steps)
    if kind.fixed_rate:
        kept[key] = _readonly(steps.copy())
    return Fixes(steps, *columns[:6], columns[6].astype(np.int8), columns[7])


def backtrack_correct(
    times: np.ndarray,
    fixes: Fixes,
    rep_x: np.ndarray,
    rep_y: np.ndarray,
    noise_max: float,
    scratch: np.ndarray | None = None,
) -> int:
    """Rewrite the reported track between each two fixes with their time-linear interpolation.

    Every grid step strictly between two consecutive fixes gets
    ``a + frac * (b - a)`` of the two measured fixes ``a`` and ``b``, with
    ``frac`` its share of the time between them; ``rep_x``/``rep_y`` are
    rewritten in place, and steps after the last fix keep their report.
    Returns the number of steps that moved by more than ``noise_max`` -- the
    corrections large enough to matter to a consumer of the track -- from
    :func:`~dynloc.geometry.count_beyond`, which measures only moves near
    that bound; ``scratch`` is the block it works in.
    """
    steps = fixes.step
    # Every step from the first fix up to the last, each in the interval its latest fix opens.
    span = slice(steps[0], steps[-1])
    seg = np.diff(steps)
    fix_t, fix_x, fix_y = fixes.t, fixes.x, fixes.y
    frac = times[span] - np.repeat(fix_t[:-1], seg)
    frac /= np.repeat(np.diff(fix_t), seg)
    cx = np.repeat(np.diff(fix_x), seg)
    cx *= frac
    cx += np.repeat(fix_x[:-1], seg)
    cy = np.repeat(np.diff(fix_y), seg)
    cy *= frac
    cy += np.repeat(fix_y[:-1], seg)
    # A fix step keeps its report, which then does not move: MADRD's fix + v * 0.0
    # may differ from the fix in the sign of a zero.
    at_fix = steps[:-1] - steps[0]
    cx[at_fix] = rep_x[steps[:-1]]
    cy[at_fix] = rep_y[steps[:-1]]
    dx = np.subtract(cx, rep_x[span], out=frac)
    dy = cy - rep_y[span]
    rep_x[span] = cx
    rep_y[span] = cy
    return count_beyond(dx, dy, noise_max, scratch)


def run(cfg: RunConfig, workspace: Workspace | None = None) -> RunResult:
    """Simulate one node/protocol pair over the full trace.

    Per fix: take a noisy fix at the current grid step, step the scheduler,
    and jump to the first step with ``t + eps >= t_fix + period``.  The steps
    in between report the held fix (SFR/DVM) or its dead-reckoned
    extrapolation (MADRD).  With backtracking enabled, :func:`backtrack_correct`
    then rewrites the reported points between each two fixes; rows after the
    last fix stay as reported.  Errors are measured against ground truth after
    any correction.

    ``workspace`` carries scratch memory and earlier work between runs (see
    :class:`Workspace`); without one the run builds its own.  The result is
    the same either way.
    """
    ws = Workspace() if workspace is None else workspace
    trace = cfg.trace
    times = trace.times
    n = times.size
    kind = PROTOCOLS[cfg.protocol]
    fixes = _fixes(cfg, kind, ws)
    for column in fixes:
        _readonly(column)
    steps, fix_t, fix_x, fix_y, _, fix_vx, fix_vy, _, _ = fixes
    seg = np.diff(steps, append=n)  # grid steps reported from each fix
    # A fix or track that overflows is caught by the finite check on its errors below.
    with np.errstate(over="ignore", invalid="ignore"):
        if kind.predicts:
            elapsed = np.repeat(fix_t, seg)
            np.subtract(times, elapsed, out=elapsed)
            rep_x, rep_y = madrd_predict(*(np.repeat(c, seg) for c in (fix_x, fix_y, fix_vx, fix_vy)), elapsed)
        else:
            rep_x = np.repeat(fix_x, seg)
            rep_y = np.repeat(fix_y, seg)

        correction_count = 0
        if cfg.backtracking_enabled:
            correction_count = backtrack_correct(times, fixes, rep_x, rep_y, cfg.noise_max, ws.scratch(n))

        errors = hypot_runs(rep_x - trace.xs, rep_y - trace.ys, ws.scratch(n))
        mean_error = float(errors.mean())
    if not math.isfinite(mean_error):  # a finite mean means every error is finite
        raise FieldError("noise_max", f"{cfg.noise_max} makes the run's errors non-finite (mean {mean_error})")
    metrics = RunMetrics(
        localization_count=steps.size,
        mean_error=mean_error,
        max_error=float(errors.max()),
        accuracy=threshold_accuracy(errors, cfg.dist_tolerance),
        correction_count=correction_count,
    )
    return RunResult(cfg, metrics, fixes, *(_readonly(c) for c in (rep_x, rep_y, errors)))
