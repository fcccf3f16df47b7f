"""Ground-truth mobility: trace container, generators, and a waypoint text format.

A :class:`MobilityTrace` is the true path of a single node sampled on a
uniform time grid: sample ``k`` is at ``k * dt``.  A trace that runs for
``duration`` seconds has ``n = ceil(duration / dt - 1e-9) + 1`` samples, so its
last one is at or just past ``duration``.  Traces come from three places:

* :func:`generate_random_waypoint` -- classic random-waypoint motion: pick a
  uniform destination in the area, walk to it at a per-leg uniform speed,
  pause, repeat.
* :func:`generate_gauss_markov` -- first-order autoregressive speed and
  heading with boundary reflection; tunable memory trades smooth motion
  against memoryless jitter.
* :func:`import_trace` -- a plain-text waypoint format, one node per line of
  whitespace-separated ``t x y`` triples, piecewise-linearly resampled onto
  the dt grid.  :func:`export_trace` writes the same format back out.

Both generators read a :class:`TraceSpec`, which checks each of its fields
when it is built.  Generation is deterministic: the same spec and generator
state always produce the same trace, bit for bit, and ends: a trace has at
most :data:`MAX_GRID_STEPS` samples, a random-waypoint spec at most as many
legs, and a Gauss-Markov step a bounded number of reflections.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .oracles import FieldError, number, require_nonnegative, require_positive

__all__ = [
    "MobilityTrace",
    "MAX_GRID_STEPS",
    "grid_times",
    "MOBILITY_MODELS",
    "GAUSS_MARKOV_FIELDS",
    "ByName",
    "TraceSpec",
    "generate_random_waypoint",
    "generate_gauss_markov",
    "trace_from_waypoints",
    "import_trace",
    "import_traces",
    "export_trace",
]

_TIME_EPS = 1e-9

# Grid steps a trace may span (it has one sample more).  A run holds about 280 bytes per
# step at its peak (measured for DVM with backtracking), so this caps one run near 560 MB.
MAX_GRID_STEPS = 2_000_000

# Reflection passes one Gauss-Markov step may take, each off at most one wall per axis;
# a step shorter than the area's sides takes one.
_MAX_REFLECTIONS = 64

# Waypoint triples per block of exported text.  A triple is at most 3 floats of <= 24 chars and
# 3 spaces, so a block and its line end are at most 37,501 chars, inside the 64 KiB a write may take.
_EXPORT_TRIPLES = 500


@dataclass(frozen=True)
class MobilityTrace:
    """True path of one node, immutable once built; its time grid is the value ``(len(trace), dt)``, and its
    ``times`` is derived from it, not given."""

    node_id: int
    xs: np.ndarray
    ys: np.ndarray
    dt: float
    area_w: float
    area_h: float
    times: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.size == 0:
            raise ValueError("trace needs at least one sample")
        if ys.shape != xs.shape:
            raise ValueError("xs, ys must have identical length")
        require_positive(self.dt, "dt")
        _require_area(self.area_w, self.area_h)
        if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(ys)):
            raise ValueError("trace samples must be finite")
        if (
            xs.min() < -_TIME_EPS
            or xs.max() > self.area_w + _TIME_EPS
            or ys.min() < -_TIME_EPS
            or ys.max() > self.area_h + _TIME_EPS
        ):
            raise ValueError("trace positions must lie within the area bounds")
        for arr, name in ((grid_times(xs.size, self.dt), "times"), (xs, "xs"), (ys, "ys")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.xs.size)

    def content_hash(self) -> str:
        """SHA-256 over the exact sample bytes; identical traces hash identically."""
        h = hashlib.sha256()
        h.update(f"{self.node_id}:{self.dt!r}:{self.area_w!r}:{self.area_h!r}:".encode())
        h.update(self.times.tobytes())
        h.update(self.xs.tobytes())
        h.update(self.ys.tobytes())
        return h.hexdigest()


MOBILITY_MODELS = ("rwp", "gauss_markov")

# The TraceSpec fields only a Gauss-Markov trace reads.
GAUSS_MARKOV_FIELDS = ("gm_memory", "gm_speed_sigma", "gm_direction_sigma")


def _require_area(area_w: float, area_h: float) -> None:
    if not (0 < area_w < math.inf and 0 < area_h < math.inf):
        raise FieldError(("area_w", "area_h"), f"must be finite and > 0, got {area_w}x{area_h}")


def _grid_size(duration: float, dt: float) -> int:
    """The samples ``n`` of a ``duration`` at ``dt`` (see the module doc), of fewer than ``MAX_GRID_STEPS`` steps."""
    require_positive(duration, "duration")
    require_positive(dt, "dt")
    steps = duration / dt
    if not steps < MAX_GRID_STEPS:
        raise FieldError(("duration", "dt"), f"{duration} s at dt={dt} is {steps:.4g} grid steps, over the cap")
    return int(math.ceil(steps - _TIME_EPS)) + 1


def grid_times(samples: int, dt: float) -> np.ndarray:
    """The time grid of ``samples`` samples ``dt`` apart: ``k * dt`` for ``k`` from 0."""
    return np.arange(samples, dtype=float) * dt


class ByName:
    """A dataclass built by field name: :meth:`of` takes each field it is not given from ``source``."""

    @classmethod
    def of(cls, source, **given):
        """Take ``given``, and every other field from the same-named attribute of ``source``."""
        taken = {f.name: getattr(source, f.name) for f in dataclasses.fields(cls) if f.name not in given}
        return cls(**taken, **given)


@dataclass(frozen=True)
class TraceSpec(ByName):
    """Everything that determines one generated trace, seed included.

    Random waypoint draws each leg's speed from ``speed_class`` and pauses
    ``pause_time`` at each waypoint.  Gauss-Markov moves at the midpoint of
    ``speed_class``, ignores ``pause_time`` and reads the ``gm_*`` fields,
    which are checked only for it; a random-waypoint spec bounds its legs
    instead, so a sweep, which builds each cell's spec first, refuses them
    before any cell runs.  Field names match the sweep spec's and the CLI's
    trace flags, which :meth:`of` relies on.
    """

    mobility: str
    speed_class: tuple[float, float]
    pause_time: float
    duration: float
    dt: float
    area_w: float
    area_h: float
    gm_memory: float
    gm_speed_sigma: float
    gm_direction_sigma: float
    seed: int

    def __post_init__(self) -> None:
        if self.mobility not in MOBILITY_MODELS:
            raise FieldError("mobility", f"must be {' or '.join(MOBILITY_MODELS)}, got {self.mobility!r}")
        lo, hi = self.speed_class
        if not (0 < lo <= hi < math.inf):
            raise FieldError("speed_class", f"must be finite with 0 < lo <= hi, got {lo}:{hi}")
        require_nonnegative(self.pause_time, "pause_time")
        _grid_size(self.duration, self.dt)
        _require_area(self.area_w, self.area_h)
        if self.seed < 0:
            raise FieldError("seed", f"must be >= 0, got {self.seed}")
        if self.mobility == "rwp":
            # A leg is on average over a third of the area's longer side; legs of that whole side at the
            # top speed, each with its pause, must cover the duration in at most MAX_GRID_STEPS legs.
            leg_time = self.pause_time + max(self.area_w, self.area_h) / hi
            legs = self.duration / leg_time if leg_time > 0 else math.inf
            if not legs <= MAX_GRID_STEPS:
                raise FieldError(("speed_class", "area_w", "area_h"), f"{legs:.4g} legs of the {self.area_w}x"
                                 f"{self.area_h} m area's longer side at {hi} m/s cover {self.duration} s, over "
                                 f"{MAX_GRID_STEPS}")
        else:
            if not (0 <= self.gm_memory <= 1):
                raise FieldError("gm_memory", f"must lie in [0, 1], got {self.gm_memory}")
            require_nonnegative(self.gm_speed_sigma, "gm_speed_sigma")
            require_nonnegative(self.gm_direction_sigma, "gm_direction_sigma")


def generate_random_waypoint(spec: TraceSpec, rng: np.random.Generator) -> MobilityTrace:
    """Generate a random-waypoint trace sampled every ``spec.dt`` seconds.

    The continuous path is a chain of constant-speed legs toward uniformly
    chosen destinations, each followed by a fixed pause, built until the whole
    run duration is covered and then resampled onto the dt grid.  The spec
    bounds the number of legs when it is built, so the loop ends.
    """
    v_min, v_max = spec.speed_class
    times = grid_times(_grid_size(spec.duration, spec.dt), spec.dt)
    x = rng.uniform(0.0, spec.area_w)
    y = rng.uniform(0.0, spec.area_h)
    knot_t = [0.0]
    knot_x = [x]
    knot_y = [y]
    t = 0.0
    while t < spec.duration:
        dest_x = rng.uniform(0.0, spec.area_w)
        dest_y = rng.uniform(0.0, spec.area_h)
        leg = math.hypot(dest_x - x, dest_y - y)
        speed = rng.uniform(v_min, v_max)
        if leg > 0.0:
            t += leg / speed
            knot_t.append(t)
            knot_x.append(dest_x)
            knot_y.append(dest_y)
            x, y = dest_x, dest_y
        if spec.pause_time > 0.0:
            t += spec.pause_time
            knot_t.append(t)
            knot_x.append(x)
            knot_y.append(y)
    xs = np.interp(times, knot_t, knot_x)
    ys = np.interp(times, knot_t, knot_y)
    return MobilityTrace(0, xs, ys, spec.dt, spec.area_w, spec.area_h)


def generate_gauss_markov(spec: TraceSpec, rng: np.random.Generator) -> MobilityTrace:
    """Generate a Gauss-Markov trace: AR(1) speed and heading, reflecting walls.

    Per step, with memory ``m = spec.gm_memory`` and ``mean_speed`` the
    midpoint of ``spec.speed_class``::

        v' = m*v + (1-m)*mean_speed     + sqrt(1-m^2) * gm_speed_sigma     * N(0,1)
        h' = m*h + (1-m)*mean_heading   + sqrt(1-m^2) * gm_direction_sigma * N(0,1)

    Speed is floored at zero.  Hitting a wall reflects the position and flips
    both the heading and the mean heading, so the walk stays in the area; a
    step still outside after ``_MAX_REFLECTIONS`` reflections raises.
    """
    dt, area_w, area_h = spec.dt, spec.area_w, spec.area_h
    n = _grid_size(spec.duration, dt)
    x = rng.uniform(0.0, area_w)
    y = rng.uniform(0.0, area_h)
    xs = [x]
    ys = [y]
    add_x, add_y, cos, sin, pi = xs.append, ys.append, math.cos, math.sin, math.pi
    lo, hi = spec.speed_class
    mean_speed = (lo + hi) / 2.0
    speed = mean_speed
    heading = rng.uniform(0.0, 2.0 * math.pi)
    mean_heading = heading
    m = spec.gm_memory
    drift = math.sqrt(max(0.0, 1.0 - m * m))
    speed_pull = (1.0 - m) * mean_speed
    heading_pull = (1.0 - m) * mean_heading  # changes only when a wall flips mean_heading
    # Every step's two normal draws at once, in the order a per-step
    # recurrence consumes them (speed, then heading); only the reflecting
    # recurrence itself stays in the loop.
    kicks = rng.standard_normal((n - 1, 2)) * [drift * spec.gm_speed_sigma, drift * spec.gm_direction_sigma]
    for speed_kick, heading_kick in zip(kicks[:, 0].tolist(), kicks[:, 1].tolist()):
        speed = m * speed + speed_pull + speed_kick
        # The floor is max(0.0, speed) without the builtin call: keep 0.0 unless
        # speed compares greater, so -0.0 and NaN floor to 0.0.  An
        # ``if speed < 0.0`` test would keep -0.0 (and NaN) instead.
        speed = speed if speed > 0.0 else 0.0
        heading = m * heading + heading_pull + heading_kick
        travel = speed * dt
        x += travel * cos(heading)
        y += travel * sin(heading)
        if not (0.0 <= x <= area_w and 0.0 <= y <= area_h):
            for _ in range(_MAX_REFLECTIONS):
                if x < 0.0 or x > area_w:
                    x = -x if x < 0.0 else 2.0 * area_w - x
                    heading = pi - heading
                    mean_heading = pi - mean_heading
                if y < 0.0 or y > area_h:
                    y = -y if y < 0.0 else 2.0 * area_h - y
                    heading = -heading
                    mean_heading = -mean_heading
                if 0.0 <= x <= area_w and 0.0 <= y <= area_h:
                    break
            else:
                raise FieldError(("speed_class", "gm_speed_sigma", "area_w", "area_h"), f"a {travel} m step at t="
                                 f"{len(xs) * dt} s is still outside the {area_w}x{area_h} m area after "
                                 f"{_MAX_REFLECTIONS} passes")
            heading_pull = (1.0 - m) * mean_heading
        add_x(x)
        add_y(y)
    return MobilityTrace(0, np.array(xs), np.array(ys), dt, area_w, area_h)


# ---------------------------------------------------------------------------
# Waypoint text format: one node per line, repeating "t x y" triples.
# ---------------------------------------------------------------------------


def _parse_waypoint_line(line: str) -> np.ndarray:
    """The ``(k, 3)`` array of a line's ``t x y`` triples; its first bad triple decides the refusal."""
    fields = line.split()
    if len(fields) % 3 != 0:
        raise ValueError(f"expected 't x y' triples, got {len(fields)} fields")
    numbers: list[float] = []
    try:  # a non-numeric field stops it, keeping the numbers before
        numbers.extend(map(number, fields))
    except ValueError:
        pass
    whole = len(numbers) // 3
    waypoints = np.array(numbers[: 3 * whole]).reshape(whole, 3)
    if not np.isfinite(waypoints).all():
        raise ValueError("waypoint fields must be finite")
    if len(numbers) < len(fields):
        raise ValueError(f"non-numeric field near {fields[3 * whole]!r}")
    return waypoints


def trace_from_waypoints(
    waypoints: np.ndarray | Sequence[Sequence[float]],
    dt: float,
    area_w: float,
    area_h: float,
    node_id: int = 0,
    duration: float | None = None,
) -> MobilityTrace:
    """Resample ``(t, x, y)`` waypoints, a ``(k, 3)`` array or ``k`` triples, piecewise-linearly onto the dt grid.

    The trace starts at t=0 (holding the first waypoint position if its time
    is later) and runs to the last waypoint time, or to ``duration`` with the
    final position held.  Times must be strictly increasing and positions must
    stay within the area.
    """
    waypoints = np.asarray(waypoints, dtype=float)
    if waypoints.size == 0:
        raise ValueError("need at least one waypoint")
    if waypoints.ndim != 2 or waypoints.shape[1] != 3:
        raise ValueError(f"waypoints must be (t, x, y) triples, got an array of shape {waypoints.shape}")
    wt, wx, wy = waypoints.T
    if np.any(np.diff(wt) <= 0):
        raise ValueError("waypoint times must be strictly increasing")
    if wt[0] < 0:
        raise ValueError("waypoint times must be >= 0")
    if np.any(wx < 0) or np.any(wx > area_w) or np.any(wy < 0) or np.any(wy > area_h):
        raise ValueError(f"waypoints must lie within the {area_w}x{area_h} area")
    end = float(wt[-1]) if duration is None else float(duration)
    times = grid_times(_grid_size(end, dt) if end > 0 or duration is not None else 1, dt)
    xs = np.interp(times, wt, wx)
    ys = np.interp(times, wt, wy)
    return MobilityTrace(node_id, xs, ys, dt, area_w, area_h)


def import_trace(
    text: str,
    dt: float,
    area_w: float,
    area_h: float,
    node_id: int = 0,
    duration: float | None = None,
) -> MobilityTrace:
    """Parse waypoint text and return the trace for line ``node_id`` (0-based)."""
    traces = import_traces(text, dt, area_w, area_h, duration=duration)
    if node_id < 0 or node_id >= len(traces):
        raise FieldError("node", f"node_id {node_id} out of range: source has {len(traces)} node line(s)")
    return traces[node_id]


def import_traces(
    text: str,
    dt: float,
    area_w: float,
    area_h: float,
    duration: float | None = None,
) -> list[MobilityTrace]:
    """Parse waypoint text, one node per line that is neither blank nor a ``#`` comment, resampled at ``dt``."""
    # Before any line, so an error a line raises is that line's.
    _require_area(area_w, area_h)
    require_positive(dt, "dt")
    if duration is not None:
        _grid_size(duration, dt)
    traces: list[MobilityTrace] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            waypoints = _parse_waypoint_line(line)
            traces.append(trace_from_waypoints(waypoints, dt, area_w, area_h, node_id=len(traces), duration=duration))
        except ValueError as exc:  # every refusal of a line, its own or its trace's
            raise ValueError(f"line {line_no}: {exc}") from exc
    if not traces:
        raise FieldError("text", "no waypoint line, only blank and '#' lines")
    return traces


def export_trace(trace: MobilityTrace) -> Iterator[str]:
    """Serialize a trace as one waypoint line, in blocks of ``_EXPORT_TRIPLES`` triples; floats keep full precision.

    Every sample is written as a waypoint, so re-importing at the same dt
    reproduces the trace exactly.
    """
    n = len(trace)
    for start in range(0, n, _EXPORT_TRIPLES):
        stop = min(start + _EXPORT_TRIPLES, n)
        columns = (c[start:stop].tolist() for c in (trace.times, trace.xs, trace.ys))
        text = " ".join(f"{t!r} {x!r} {y!r}" for t, x, y in zip(*columns))
        yield (" " if start else "") + text + ("\n" if stop == n else "")
