"""Experiment sweeps: cells, repetitions, summary CSVs, and provenance.

A sweep crosses speed classes x pause times x protocols x repetitions.  Every
cell derives its trace seed and noise seed from ``seed_base`` and the cell
coordinates alone, so any single run -- or the whole sweep -- can be
regenerated bit-exactly from the provenance header embedded in each output
file.  All protocols within a repetition share one ground-truth trace and one
noise seed, which makes their localization-count ratios paired comparisons.

Output files:

* ``runs.csv``     -- one row per (speed class, pause, protocol, repetition).
* ``summary.csv``  -- one row per cell, means and sample standard deviations
                      over repetitions, localization counts normalized to the
                      SFR baseline of the same cell.
* ``events_*.csv`` -- optional per-run event logs, one row per dt step.

Every file starts with ``# dynloc <kind> v1`` and a ``# config {json}`` line
carrying the exact configuration that produced it (:func:`run_provenance` for
a run).  Files are written under a ``.tmp`` name and renamed into place.
Every trace comes from :func:`make_trace`, keyed by :data:`MOBILITY_MODELS`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .engine import EventRecord, RunConfig, RunResult, run
from .geometry import NoiseModel
from .mobility import (
    GaussMarkovConfig,
    MobilityTrace,
    RandomWaypointConfig,
    generate_gauss_markov,
    generate_random_waypoint,
)
from .protocols import PROTOCOLS, ProtocolConfig

__all__ = [
    "MOBILITY_MODELS",
    "ProtocolSpec",
    "SweepSpec",
    "TraceSpec",
    "RunRecord",
    "SummaryRow",
    "WORKERS_ENV_VAR",
    "default_bundle",
    "default_gauss_markov_bundle",
    "class_label",
    "make_trace",
    "parse_speed_class",
    "resolve_protocol_config",
    "run_provenance",
    "run_sweep",
    "summarize",
    "write_runs_csv",
    "write_summary_csv",
    "write_events_csv",
    "header_lines",
    "read_provenance",
    "read_summary",
    "spec_to_dict",
    "spec_from_dict",
    "parse_spec_file",
]

WORKERS_ENV_VAR = "DYNLOC_WORKERS"

# Labels name output files and CSV cells, so they may not hold a path separator or a comma.
_LABEL_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")

EVENT_COLUMNS = EventRecord._fields

RUNS_COLUMNS = (
    "speed_class",
    "pause_time",
    "protocol",
    "upper_threshold",
    "rep",
    "trace_seed",
    "noise_seed",
    "trace_sha",
    "localization_count",
    "mean_error",
    "max_error",
    "accuracy",
    "correction_count",
)

SUMMARY_COLUMNS = (
    "speed_class",
    "pause_time",
    "protocol",
    "upper_threshold",
    "mean_localizations",
    "localizations_std",
    "ratio_to_sfr",
    "ratio_std",
    "mean_error",
    "error_std",
    "accuracy",
    "accuracy_std",
    "correction_count",
)


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol in a sweep: a display label, a kind, and its parameters.

    Any numeric parameter may be a list with one entry per speed class, which
    resolves per cell (the usual case is a per-class ``t_max``).  The label
    is made of ``[A-Za-z0-9_.-]`` only: it becomes part of file names and of
    unquoted CSV cells.
    """

    label: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _LABEL_PATTERN.fullmatch(self.label):
            raise ValueError(f"field 'protocols': label {self.label!r} must match {_LABEL_PATTERN.pattern}")
        if self.kind not in PROTOCOLS:
            raise ValueError(f"protocol kind must be {'/'.join(PROTOCOLS)}, got {self.kind!r}")


@dataclass(frozen=True)
class SweepSpec:
    speed_classes: tuple[tuple[float, float], ...]
    pause_times: tuple[float, ...]
    protocols: tuple[ProtocolSpec, ...]
    repetitions: int = 10
    duration: float = 900.0
    dt: float = 0.1
    area_w: float = 300.0
    area_h: float = 300.0
    noise_max: float = 0.5
    dist_tolerance: float = 5.0
    seed_base: int = 1000
    mobility: str = "rwp"
    gm_memory: float = 0.75
    gm_speed_sigma: float = 0.5
    gm_direction_sigma: float = 0.4
    backtracking_enabled: bool = False

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "speed_classes":
                value = [v for c in value for v in c]
            values = value if isinstance(value, tuple | list) else [value]
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ValueError(f"field {f.name!r}: must be finite, got {value!r}")
        if not self.speed_classes:
            raise ValueError("field 'speed_classes': need at least one class")
        for lo, hi in self.speed_classes:
            if not (0 < lo <= hi):
                raise ValueError(f"field 'speed_classes': need 0 < lo <= hi, got {lo}:{hi}")
        if not self.pause_times or any(p < 0 for p in self.pause_times):
            raise ValueError("field 'pause_times': need at least one value, all >= 0")
        if not self.protocols:
            raise ValueError("field 'protocols': need at least one protocol")
        labels = [p.label for p in self.protocols]
        if len(set(labels)) != len(labels):
            raise ValueError(f"field 'protocols': labels must be unique, got {labels}")
        if self.repetitions < 1:
            raise ValueError(f"field 'repetitions': must be >= 1, got {self.repetitions}")
        if self.seed_base < 0:
            raise ValueError(f"field 'seed_base': must be >= 0, got {self.seed_base}")
        if self.duration <= 0 or self.dt <= 0:
            raise ValueError("fields 'duration'/'dt': must be positive")
        if self.mobility not in MOBILITY_MODELS:
            raise ValueError(f"field 'mobility': must be {' or '.join(MOBILITY_MODELS)}, got {self.mobility!r}")
        if self.noise_max < 0 or self.dist_tolerance < 0:
            raise ValueError("fields 'noise'/'dist_tolerance': must be >= 0")
        for pspec in self.protocols:
            for class_index in range(len(self.speed_classes)):
                resolve_protocol_config(pspec, class_index, len(self.speed_classes))


@dataclass(frozen=True)
class RunRecord:
    """Flat per-run outcome; exactly one runs.csv row."""

    speed_class: str
    pause_time: float
    protocol: str
    upper_threshold: float | None
    rep: int
    trace_seed: int
    noise_seed: int
    trace_sha: str
    localization_count: int
    mean_error: float
    max_error: float
    accuracy: float
    correction_count: int


@dataclass(frozen=True)
class SummaryRow:
    speed_class: str
    pause_time: float
    protocol: str
    upper_threshold: float | None
    mean_localizations: float
    localizations_std: float
    ratio_to_sfr: float | None
    ratio_std: float | None
    mean_error: float
    error_std: float
    accuracy: float
    accuracy_std: float
    correction_count: float


def class_label(speed_class: tuple[float, float]) -> str:
    lo, hi = speed_class
    return f"{lo:g}:{hi:g}"


def _resolve(value, class_index: int, n_classes: int, name: str):
    if isinstance(value, (list, tuple)):
        if len(value) != n_classes:
            raise ValueError(
                f"field '{name}': per-class list needs {n_classes} entries, got {len(value)}"
            )
        return value[class_index]
    return value


def resolve_protocol_config(pspec: ProtocolSpec, class_index: int, n_classes: int) -> ProtocolConfig:
    """Materialize a protocol config for one speed class (per-class lists resolved)."""
    params = {
        key: _resolve(val, class_index, n_classes, f"{pspec.label}.{key}")
        for key, val in pspec.params.items()
    }
    try:
        return PROTOCOLS[pspec.kind].config(**params)
    except TypeError as exc:
        raise ValueError(f"field '{pspec.label}': bad parameter set {sorted(params)}: {exc}") from exc


def default_bundle() -> SweepSpec:
    """Random-waypoint scenario bundle used by the stock experiments.

    Three speed classes over a 300x300 m area for 900 s with 0.5 m fix noise
    and a 5 m accuracy tolerance.  The SFR baseline localizes every 2 s.  The
    adaptive protocols share the 5 m target/divergence threshold; their period
    caps shrink as the classes get faster, since a cap that lets a fast node
    run blind for several seconds can never keep it near tolerance (the
    fastest class caps below the SFR period, which is what prices prediction
    misses honestly there).
    """
    return SweepSpec(
        speed_classes=((0.5, 1.0), (4.0, 5.0), (8.0, 10.0)),
        pause_times=(0.0, 30.0, 60.0, 120.0, 300.0),
        protocols=(
            ProtocolSpec("sfr", "sfr", {"period": 2.0}),
            ProtocolSpec(
                "dvm",
                "dvm",
                {"target_error": 5.0, "t_min": 0.5, "t_max": [10.0, 6.0, 6.0]},
            ),
            ProtocolSpec(
                "madrd",
                "madrd",
                {
                    "divergence_threshold": 5.0,
                    "t_min": 0.5,
                    "t_max": [10.0, 6.0, 1.5],
                    "period_growth": 2.0,
                    "period_shrink": 0.5,
                },
            ),
        ),
        repetitions=10,
        seed_base=1000,
    )


def default_gauss_markov_bundle() -> SweepSpec:
    """Gauss-Markov counterpart of the stock bundle (single 4-5 m/s class)."""
    return SweepSpec(
        speed_classes=((4.0, 5.0),),
        pause_times=(0.0,),
        protocols=(
            ProtocolSpec("sfr", "sfr", {"period": 2.0}),
            ProtocolSpec("dvm", "dvm", {"target_error": 5.0, "t_min": 0.5, "t_max": 6.0}),
            ProtocolSpec(
                "madrd",
                "madrd",
                {"divergence_threshold": 5.0, "t_min": 0.5, "t_max": 6.0},
            ),
        ),
        repetitions=10,
        seed_base=2000,
        mobility="gauss_markov",
    )


# ---------------------------------------------------------------------------
# Traces and run provenance
# ---------------------------------------------------------------------------


class TraceSpec(NamedTuple):
    """Everything that determines one ground-truth trace, seed included.

    Gauss-Markov moves at the midpoint of ``speed_class`` and ignores
    ``pause_time``.  Field names match :class:`SweepSpec` and the CLI's trace
    flags, which :meth:`of` relies on.
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

    @classmethod
    def of(cls, source, **given) -> "TraceSpec":
        """Take ``given``, and every other field from the same-named attribute of ``source``."""
        taken = {name: getattr(source, name) for name in cls._fields if name not in given}
        return cls(**taken, **given)


def _random_waypoint(ts: TraceSpec, rng: np.random.Generator) -> MobilityTrace:
    lo, hi = ts.speed_class
    cfg = RandomWaypointConfig(
        area_w=ts.area_w, area_h=ts.area_h, v_min=lo, v_max=hi,
        pause_time=ts.pause_time, duration=ts.duration, dt=ts.dt,
    )
    return generate_random_waypoint(cfg, rng)


def _gauss_markov(ts: TraceSpec, rng: np.random.Generator) -> MobilityTrace:
    lo, hi = ts.speed_class
    cfg = GaussMarkovConfig(
        area_w=ts.area_w, area_h=ts.area_h, mean_speed=(lo + hi) / 2.0,
        memory=ts.gm_memory, speed_sigma=ts.gm_speed_sigma,
        direction_sigma=ts.gm_direction_sigma, duration=ts.duration, dt=ts.dt,
    )
    return generate_gauss_markov(cfg, rng)


# Mobility model name -> trace builder.  The builders look the generators up
# as module globals at call time, so a wrapper installed here sees every call.
MOBILITY_MODELS = {"rwp": _random_waypoint, "gauss_markov": _gauss_markov}


def make_trace(ts: TraceSpec) -> MobilityTrace:
    """The trace ``ts`` describes, generated from ``default_rng(ts.seed)``."""
    return MOBILITY_MODELS[ts.mobility](ts, np.random.default_rng(ts.seed))


def run_provenance(cfg: RunConfig, ts: TraceSpec, trace_sha: str, **extra) -> dict:
    """The ``# config`` header of one run: its trace, its run config, then the caller's ``extra`` keys."""
    return {
        "protocol_params": dataclasses.asdict(cfg.protocol_config),
        "mobility": ts.mobility,
        "speed_class": class_label(ts.speed_class),
        "pause_time": ts.pause_time,
        "duration": ts.duration,
        "dt": ts.dt,
        "area": [ts.area_w, ts.area_h],
        "noise": cfg.noise.max_magnitude,
        "dist_tolerance": cfg.dist_tolerance,
        "trace_seed": ts.seed,
        "noise_seed": cfg.seed,
        "trace_sha": trace_sha,
        "backtracking": cfg.backtracking_enabled,
        **extra,
    }


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------


def _cell_seeds(spec: SweepSpec, class_index: int, pause_index: int, rep: int) -> tuple[int, int]:
    ss = np.random.SeedSequence([spec.seed_base, class_index, pause_index, rep])
    trace_seed, noise_seed = (int(v) for v in ss.generate_state(2, np.uint64))
    return trace_seed, noise_seed


def _events_filename(speed: str, pause: float, label: str, rep: int) -> str:
    return f"events_s{speed.replace(':', '-')}_p{pause:g}_{label}_r{rep}.csv"


def _run_cell(
    spec: SweepSpec, class_index: int, pause_index: int, rep: int, events_dir: str | None
) -> list[RunRecord]:
    """All protocol runs for one (class, pause, rep) cell, sharing one trace."""
    trace_seed, noise_seed = _cell_seeds(spec, class_index, pause_index, rep)
    ts = TraceSpec.of(
        spec,
        speed_class=spec.speed_classes[class_index],
        pause_time=spec.pause_times[pause_index],
        seed=trace_seed,
    )
    trace = make_trace(ts)
    trace_sha = trace.content_hash()
    speed = class_label(ts.speed_class)
    pause = ts.pause_time
    noise = NoiseModel(spec.noise_max)
    records: list[RunRecord] = []
    for pspec in spec.protocols:
        config = resolve_protocol_config(pspec, class_index, len(spec.speed_classes))
        run_cfg = RunConfig(
            trace=trace,
            protocol=pspec.kind,
            protocol_config=config,
            noise=noise,
            dist_tolerance=spec.dist_tolerance,
            seed=noise_seed,
            backtracking_enabled=spec.backtracking_enabled,
        )
        result = run(run_cfg)
        records.append(
            RunRecord(
                speed_class=speed,
                pause_time=pause,
                protocol=pspec.label,
                upper_threshold=getattr(config, "t_max", None),
                rep=rep,
                trace_seed=trace_seed,
                noise_seed=noise_seed,
                trace_sha=trace_sha,
                **dataclasses.asdict(result.metrics),
            )
        )
        if events_dir is not None:
            provenance = run_provenance(run_cfg, ts, trace_sha, rep=rep, protocol=pspec.label, kind=pspec.kind)
            path = Path(events_dir) / _events_filename(speed, pause, pspec.label, rep)
            write_events_csv(path, provenance, result)
    return records


def _worker_count(workers: int | None, n_cells: int) -> int:
    """Processes to use: the request (or $DYNLOC_WORKERS), capped by cells and CPUs."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR, "")
        try:
            workers = int(env) if env else 1
        except ValueError as exc:
            raise ValueError(f"field '{WORKERS_ENV_VAR}': not an integer: {env!r}") from exc
    return max(1, min(workers, n_cells, os.cpu_count() or 1))


def run_sweep(
    spec: SweepSpec,
    workers: int | None = None,
    events_dir: str | os.PathLike | None = None,
) -> list[RunRecord]:
    """Execute the full sweep; records come back in deterministic cell order.

    ``workers`` > 1 fans cells out over a process pool (default comes from
    the ``DYNLOC_WORKERS`` environment variable, falling back to serial); the
    pool never gets more processes than there are cells or CPUs.  Results are
    identical regardless of worker count.
    """
    if events_dir is not None:
        events_dir = str(events_dir)
        Path(events_dir).mkdir(parents=True, exist_ok=True)
    cells = [
        (ci, pi, rep)
        for ci in range(len(spec.speed_classes))
        for pi in range(len(spec.pause_times))
        for rep in range(spec.repetitions)
    ]
    n = _worker_count(workers, len(cells))
    records: list[RunRecord] = []
    if n == 1:
        for ci, pi, rep in cells:
            records.extend(_run_cell(spec, ci, pi, rep, events_dir))
    else:
        with ProcessPoolExecutor(max_workers=n) as pool:
            for batch in pool.map(
                _run_cell,
                *zip(*[(spec, ci, pi, rep, events_dir) for ci, pi, rep in cells]),
            ):
                records.extend(batch)
    return records


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def summarize(spec: SweepSpec, records: Sequence[RunRecord]) -> list[SummaryRow]:
    """Aggregate per-run records into one row per cell.

    Ratios are paired per repetition against the first ``sfr``-kind protocol
    of the same (speed class, pause) cell and then averaged; when the sweep
    has no SFR baseline the ratio columns stay empty rather than inventing a
    denominator.
    """
    baseline_label = next((p.label for p in spec.protocols if p.kind == "sfr"), None)
    by_run: dict[tuple[str, float, str, int], RunRecord] = {}
    for r in records:
        by_run[(r.speed_class, r.pause_time, r.protocol, r.rep)] = r

    rows: list[SummaryRow] = []
    for ci, sc in enumerate(spec.speed_classes):
        speed = class_label(sc)
        for pause in spec.pause_times:
            for pspec in spec.protocols:
                cell = [
                    by_run[(speed, pause, pspec.label, rep)]
                    for rep in range(spec.repetitions)
                    if (speed, pause, pspec.label, rep) in by_run
                ]
                if not cell:
                    continue
                counts = [r.localization_count for r in cell]
                mean_n, std_n = _mean_std(counts)
                mean_e, std_e = _mean_std([r.mean_error for r in cell])
                mean_a, std_a = _mean_std([r.accuracy for r in cell])
                mean_c, _ = _mean_std([r.correction_count for r in cell])
                ratio = ratio_std = None
                if baseline_label is not None:
                    ratios = []
                    for r in cell:
                        base = by_run.get((speed, pause, baseline_label, r.rep))
                        if base is not None and base.localization_count > 0:
                            ratios.append(r.localization_count / base.localization_count)
                    if ratios:
                        ratio, ratio_std = _mean_std(ratios)
                rows.append(
                    SummaryRow(
                        speed_class=speed,
                        pause_time=pause,
                        protocol=pspec.label,
                        upper_threshold=cell[0].upper_threshold,
                        mean_localizations=mean_n,
                        localizations_std=std_n,
                        ratio_to_sfr=ratio,
                        ratio_std=ratio_std,
                        mean_error=mean_e,
                        error_std=std_e,
                        accuracy=mean_a,
                        accuracy_std=std_a,
                        correction_count=mean_c,
                    )
                )
    return rows


# ---------------------------------------------------------------------------
# Serialization: provenance headers, CSV writers/readers
# ---------------------------------------------------------------------------


def spec_to_dict(spec: SweepSpec) -> dict:
    d = dataclasses.asdict(spec)
    d["speed_classes"] = [list(c) for c in spec.speed_classes]
    d["pause_times"] = list(spec.pause_times)
    d["protocols"] = [dataclasses.asdict(p) for p in spec.protocols]
    return d


def spec_from_dict(d: dict) -> SweepSpec:
    fields = dataclasses.fields(SweepSpec)
    extra = sorted(set(d) - {f.name for f in fields})
    if extra:
        raise ValueError(f"field {extra[0]!r}: not a sweep parameter")
    try:
        return SweepSpec(
            speed_classes=tuple((float(lo), float(hi)) for lo, hi in d["speed_classes"]),
            pause_times=tuple(float(p) for p in d["pause_times"]),
            protocols=tuple(
                ProtocolSpec(p["label"], p["kind"], dict(p.get("params", {}))) for p in d["protocols"]
            ),
            # Every scalar field has a default, and its type casts the JSON value.
            **{f.name: type(f.default)(d[f.name]) for f in fields if f.default is not dataclasses.MISSING},
        )
    except KeyError as exc:
        raise ValueError(f"field {exc.args[0]!r}: missing from provenance config") from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def header_lines(kind: str, config: dict) -> list[str]:
    """The ``# dynloc <kind> v1`` and ``# config {json}`` lines of any dynloc output."""
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return [f"# dynloc {kind} v1", f"# config {payload}"]


def read_provenance(path: str | os.PathLike) -> dict:
    """Parse the ``# config {json}`` provenance line of any dynloc CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# config "):
                return json.loads(line[len("# config "):])
            if not line.startswith("#"):
                break
    raise ValueError(f"no provenance header found in {path}")


@contextlib.contextmanager
def _atomic_write(path: str | os.PathLike):
    """Write ``path`` through ``<path>.tmp`` and a rename; on error remove the temp, keep ``path``.

    A symlink (``/dev/stdout``), pipe or device is written in place: a rename
    would replace the link or node instead of writing through it.
    """
    path = os.fspath(path)
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_csv(path, kind: str, config: dict, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = header_lines(kind, config)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with _atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_runs_csv(path: str | os.PathLike, spec: SweepSpec, records: Sequence[RunRecord]) -> None:
    rows = [[getattr(r, c) for c in RUNS_COLUMNS] for r in records]
    _write_csv(path, "runs", spec_to_dict(spec), RUNS_COLUMNS, rows)


def write_summary_csv(path: str | os.PathLike, spec: SweepSpec, rows: Sequence[SummaryRow]) -> None:
    table = [[getattr(r, c) for c in SUMMARY_COLUMNS] for r in rows]
    _write_csv(path, "summary", spec_to_dict(spec), SUMMARY_COLUMNS, table)


def write_events_csv(path: str | os.PathLike, config: dict, result: RunResult) -> None:
    """Write a run's event log straight from its columns, one row per grid step."""
    # Floats print through repr of Python floats, as _fmt does; a numpy scalar's
    # repr would read "np.float64(...)".  Rows are formatted as they are written.
    cells = [col if isinstance(col[0], str) else map(repr, col) for col in result.columns()]
    with _atomic_write(path) as fh:
        fh.write("\n".join([*header_lines("events", config), ",".join(EVENT_COLUMNS)]) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _parse_number_list(raw: str, field_name: str) -> list[float]:
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(float(part))
        except ValueError as exc:
            raise ValueError(f"field '{field_name}': not a number: {part!r}") from exc
    if not out:
        raise ValueError(f"field '{field_name}': empty list")
    return out


def parse_speed_class(raw: str, field_name: str = "speed_classes") -> tuple[float, float]:
    """Parse one ``lo:hi`` speed class; errors name ``field_name``."""
    pieces = raw.split(":")
    if len(pieces) != 2:
        raise ValueError(f"field '{field_name}': expected lo:hi, got {raw!r}")
    try:
        return float(pieces[0]), float(pieces[1])
    except ValueError as exc:
        raise ValueError(f"field '{field_name}': not a number in {raw!r}") from exc


def _parse_speed_classes(raw: str) -> tuple[tuple[float, float], ...]:
    classes = [parse_speed_class(part.strip()) for part in raw.split(",") if part.strip()]
    if not classes:
        raise ValueError("field 'speed_classes': empty list")
    return tuple(classes)


def parse_area(raw: str) -> tuple[float, float]:
    pieces = raw.lower().split("x")
    if len(pieces) != 2:
        raise ValueError(f"field 'area': expected WxH, got {raw!r}")
    try:
        w, h = float(pieces[0]), float(pieces[1])
    except ValueError as exc:
        raise ValueError(f"field 'area': not a number in {raw!r}") from exc
    return w, h


def parse_spec_file(text: str) -> SweepSpec:
    """Parse a sweep spec file: flat key=value lines with per-protocol sections.

    The ``[sweep]`` section holds the scenario knobs; each additional section
    names one protocol (section name is the label, optional ``kind`` key
    defaults to the label).  Numeric protocol parameters accept a
    comma-separated list with one entry per speed class.
    """
    import configparser

    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"spec file is not parseable: {exc}") from exc
    if "sweep" not in parser:
        raise ValueError("field 'sweep': missing [sweep] section")
    sweep = parser["sweep"]

    kwargs: dict = {}
    if "speed_classes" in sweep:
        kwargs["speed_classes"] = _parse_speed_classes(sweep["speed_classes"])
    else:
        raise ValueError("field 'speed_classes': required in [sweep]")
    kwargs["pause_times"] = tuple(
        _parse_number_list(sweep.get("pause_times", "0"), "pause_times")
    )
    if "area" in sweep:
        kwargs["area_w"], kwargs["area_h"] = parse_area(sweep["area"])
    casters = (
        ("repetitions", int),
        ("duration", float),
        ("dt", float),
        ("noise", float),
        ("dist_tolerance", float),
        ("seed_base", int),
        ("mobility", str),
        ("gm_memory", float),
        ("gm_speed_sigma", float),
        ("gm_direction_sigma", float),
        ("backtracking", None),
    )
    known = {"speed_classes", "pause_times", "area"} | {key for key, _ in casters}
    unknown = sorted(set(sweep) - known)
    if unknown:
        raise ValueError(f"field '{unknown[0]}': not a [sweep] key")
    for key, caster in casters:
        if key not in sweep:
            continue
        target = {"noise": "noise_max", "backtracking": "backtracking_enabled"}.get(key, key)
        try:
            if key == "backtracking":
                kwargs[target] = sweep.getboolean(key)
            else:
                kwargs[target] = caster(sweep[key])
        except ValueError as exc:
            raise ValueError(f"field '{key}': {exc}") from exc

    protocols: list[ProtocolSpec] = []
    for section in parser.sections():
        if section == "sweep":
            continue
        body = parser[section]
        kind = body.get("kind", section)
        params: dict = {}
        for key, raw in body.items():
            if key == "kind":
                continue
            values = _parse_number_list(raw, f"{section}.{key}")
            params[key] = values[0] if len(values) == 1 else values
        protocols.append(ProtocolSpec(section, kind, params))
    if not protocols:
        raise ValueError("field 'protocols': no protocol sections found")
    kwargs["protocols"] = tuple(protocols)
    return SweepSpec(**kwargs)


def read_summary(path: str | os.PathLike) -> tuple[dict, list[dict]]:
    """Read a summary CSV back: (provenance config, rows as typed dicts)."""
    config: dict | None = None
    rows: list[dict] = []
    header: list[str] | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# config "):
                config = json.loads(line[len("# config "):])
                continue
            if line.startswith("#") or not line:
                continue
            if header is None:
                header = line.split(",")
                if list(header) != list(SUMMARY_COLUMNS):
                    raise ValueError(f"unexpected summary columns: {header}")
                continue
            values = line.split(",")
            row: dict = {}
            for key, raw in zip(header, values):
                if key in ("speed_class", "protocol"):
                    row[key] = raw
                elif raw == "":
                    row[key] = None
                else:
                    row[key] = float(raw)
            rows.append(row)
    if config is None or header is None:
        raise ValueError(f"{path} is not a dynloc summary CSV")
    return config, rows
