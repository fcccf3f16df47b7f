"""Experiment sweeps: cells, repetitions, summary CSVs, and provenance.

A sweep crosses speed classes x pause times x protocols x repetitions.  Every
cell derives its trace seed and noise seed (:func:`run_seeds`) from
``seed_base`` and the cell coordinates alone, so any single run -- or the
whole sweep -- can be regenerated bit-exactly from the provenance header
embedded in each output file.  All protocols within a repetition share one
ground-truth trace and one noise seed, which makes their localization-count
ratios paired comparisons.

Output files:

* ``runs.csv``     -- one row per (speed class, pause, protocol, repetition).
* ``summary.csv``  -- one row per cell, means and sample standard deviations
                      over repetitions, localization counts normalized to the
                      SFR baseline of the same cell.
* ``events_*.csv`` -- optional per-run event logs, one row per dt step.

Every file starts with ``# dynloc <kind> v1`` and a ``# config {json}`` line
carrying the exact configuration that produced it (:func:`run_provenance` for
a run).  One writer lays out every kind, the CLI's ``simulate`` rows and
oracle tables included, and every file, waypoint text too, is written under a
fresh ``.<name>.*.tmp`` name beside it and renamed into place, but stdout's own
file, which goes through stdout; :func:`check_output` refuses, before anything
runs, a path that write cannot take.  A sweep's files are written into a stage
(:func:`staged`) and renamed from it into their folder only when all are done.
Every trace comes from :func:`make_trace`, which picks the generator a
:class:`~dynloc.mobility.TraceSpec` names.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .engine import RunConfig, RunResult, Workspace, run
from .mobility import (
    GAUSS_MARKOV_FIELDS,
    MobilityTrace,
    TraceSpec,
    export_trace,
    generate_gauss_markov,
    generate_random_waypoint,
    grid_times,
)
from .oracles import FieldError, number, require_nonnegative
from .protocols import PROTOCOLS, Confidence, ProtocolConfig

__all__ = [
    "ProtocolSpec",
    "SweepSpec",
    "RunRecord",
    "SummaryRow",
    "default_bundle",
    "default_gauss_markov_bundle",
    "class_label",
    "make_trace",
    "parse_number_list",
    "parse_speed_class",
    "resolve_protocol_config",
    "run_provenance",
    "run_seeds",
    "run_sweep",
    "events_filenames",
    "EVENT_COLUMNS",
    "event_columns",
    "summarize",
    "write_runs_csv",
    "write_summary_csv",
    "write_events_csv",
    "write_csv",
    "write_waypoints",
    "check_output",
    "staged",
    "read_provenance",
    "spec_to_dict",
    "spec_from_dict",
    "parse_spec_file",
    "renaming",
]


@contextlib.contextmanager
def renaming(names: dict[str, str]):
    """Re-raise a :class:`~dynloc.oracles.FieldError` with each of its fields that ``names`` holds renamed: a sweep
    names its cells' ``speed_class`` ``speed_classes``, and a protocol's ``period`` ``<label>.period``."""
    try:
        yield
    except FieldError as exc:
        raise FieldError(tuple(names.get(name, name) for name in exc.fields), exc.reason) from exc


# Labels name output files and CSV cells, so they may not hold a path separator or a comma.
_LABEL_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")

# Rows per write of a table body.  Event rows are the widest: 7 floats of <= 24 chars
# (-2.2250738585072014e-308), `localized`, a 2-char `confidence`, 8 commas and "\n" are
# <= 180 chars, so a write is <= 46,080 chars, inside the 64 KiB a write may take.
_WRITE_ROWS = 256


def _typed(kind: type, value, name: str):
    """``value`` as a ``kind`` by :class:`SweepSpec`'s typing rule; anything else is a FieldError naming ``name``."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float) if kind is float else kind):
        what = {float: "a number", int: "an integer"}.get(kind, f"a {kind.__name__}")
        raise FieldError(name, f"expected {what}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise FieldError(name, f"an int of {value.bit_length()} bits is too large for a float") from None


def _entries(value, name: str, size: int | None = None) -> tuple:
    """The entries of a list or tuple ``value`` (of ``size`` entries, if given); anything else names ``name``."""
    if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
        raise FieldError(name, f"expected a list{f' of {size} entries' if size else ''}, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol in a sweep: a display label, a kind, and its parameters.

    Each parameter is a float, or a list of floats with one per speed class,
    which resolves per cell (the usual case is a per-class ``t_max``).  The
    label is made of ``[A-Za-z0-9_.-]`` only: it becomes part of file names
    and of unquoted CSV cells.
    """

    label: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not _LABEL_PATTERN.fullmatch(self.label):
            raise FieldError("protocols", f"label {self.label!r} must match {_LABEL_PATTERN.pattern}")
        if not isinstance(self.kind, str) or self.kind not in PROTOCOLS:
            raise FieldError(f"{self.label}.kind", f"must be {'/'.join(PROTOCOLS)}, got {self.kind!r}")
        if not isinstance(self.params, dict):
            raise FieldError("protocols", f"params of {self.label!r} must be a dict, got {self.params!r}")
        self.__dict__["params"] = {  # frozen blocks assignment, not the instance dict
            key: [_typed(float, v, f"{self.label}.{key}") for v in value] if isinstance(value, (list, tuple))
            else _typed(float, value, f"{self.label}.{key}") for key, value in self.params.items()
        }


# The sweep fields a cell's TraceSpec fields come from; the others have the same name.
_CELL_FIELDS = {"speed_class": "speed_classes", "pause_time": "pause_times", "seed": "seed_base"}


@dataclass(frozen=True)
class SweepSpec:
    """A sweep's speed classes, pause times and protocols, and the scenario every cell of it shares.

    However a spec is built (Python, a spec file, a header, ``dataclasses.replace``), its fields are typed
    as it is made: each scalar field as the type of its default, where an int counts as a number but a bool
    only as a bool, and the classes and pauses as tuples of floats.  The types are Python's own: numpy's
    ``float64`` subclasses ``float`` and passes, its ``int64`` does not subclass ``int`` and is refused.  Any
    other value, an int too large for a float too, is a FieldError naming its field.
    """

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
        self.__dict__.update(
            {f.name: _typed(type(f.default), getattr(self, f.name), f.name)
             for f in dataclasses.fields(self) if f.default is not dataclasses.MISSING},
            speed_classes=tuple(tuple(_typed(float, v, "speed_classes") for v in _entries(c, "speed_classes", 2))
                                for c in _entries(self.speed_classes, "speed_classes")),
            pause_times=tuple(_typed(float, p, "pause_times") for p in _entries(self.pause_times, "pause_times")),
            protocols=_entries(self.protocols, "protocols"),
        )
        if not all(isinstance(p, ProtocolSpec) for p in self.protocols):
            raise FieldError("protocols", f"expected ProtocolSpec entries, got {self.protocols!r}")
        # TraceSpec reads the gm_* fields of a Gauss-Markov trace only, but every header records them.
        for name in GAUSS_MARKOV_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise FieldError(name, f"must be finite, got {getattr(self, name)!r}")
        if not self.speed_classes:
            raise FieldError("speed_classes", "need at least one class")
        # Cells are keyed and their files named by class_label and the %g pause.
        labels = [class_label(c) for c in self.speed_classes]
        if len(set(labels)) < len(labels):
            raise FieldError("speed_classes", f"classes must be distinct as lo:hi (%g), got {labels}")
        if not self.pause_times:
            raise FieldError("pause_times", "need at least one value")
        pauses = list(self.pause_times)
        if len({f"{p:g}" for p in pauses}) < len(pauses) or len(set(pauses)) < len(pauses):
            raise FieldError("pause_times", f"values must be distinct, also as %g, got {pauses}")
        if not self.protocols:
            raise FieldError("protocols", "need at least one protocol")
        labels = [p.label for p in self.protocols]
        if len(set(labels)) != len(labels):
            raise FieldError("protocols", f"labels must be unique, got {labels}")
        if self.repetitions < 1:
            raise FieldError("repetitions", f"must be >= 1, got {self.repetitions}")
        require_nonnegative(self.noise_max, "noise_max")  # RunConfig's rule, checked before any run
        require_nonnegative(self.dist_tolerance, "dist_tolerance")
        # Each cell's trace spec and protocol configs are built here once, so they fail before any run.
        with renaming(_CELL_FIELDS):
            for class_index in range(len(self.speed_classes)):
                for pause_index in range(len(self.pause_times)):
                    self.trace_spec(class_index, pause_index, self.seed_base)
        for pspec in self.protocols:
            for class_index in range(len(self.speed_classes)):
                resolve_protocol_config(pspec, class_index, len(self.speed_classes))

    def trace_spec(self, class_index: int, pause_index: int, seed: int) -> TraceSpec:
        """The trace of the cells at ``(class_index, pause_index)``, generated from ``seed``."""
        return TraceSpec.of(
            self, speed_class=self.speed_classes[class_index], pause_time=self.pause_times[pause_index], seed=seed
        )


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


RUNS_COLUMNS = tuple(f.name for f in dataclasses.fields(RunRecord))


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


SUMMARY_COLUMNS = tuple(f.name for f in dataclasses.fields(SummaryRow))


def class_label(speed_class: tuple[float, float]) -> str:
    lo, hi = speed_class
    return f"{lo:g}:{hi:g}"


def _resolve(value, class_index: int, n_classes: int, name: str):
    if isinstance(value, (list, tuple)):
        if len(value) != n_classes:
            raise FieldError(name, f"per-class list needs {n_classes} entries, got {len(value)}")
        return value[class_index]
    return value


def _label_fields(pspec: ProtocolSpec) -> dict[str, str]:
    """Each config field and spec parameter of ``pspec`` by its name in a sweep, ``<label>.<name>``."""
    fields = (*PROTOCOLS[pspec.kind].config.__dataclass_fields__, *pspec.params)
    return {name: f"{pspec.label}.{name}" for name in fields}


def resolve_protocol_config(pspec: ProtocolSpec, class_index: int, n_classes: int) -> ProtocolConfig:
    """Materialize a protocol config for one speed class (per-class lists resolved)."""
    params = {
        key: _resolve(val, class_index, n_classes, f"{pspec.label}.{key}")
        for key, val in pspec.params.items()
    }
    with renaming(_label_fields(pspec)):
        return PROTOCOLS[pspec.kind].configure(pspec.kind, params)


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


def make_trace(ts: TraceSpec) -> MobilityTrace:
    """The trace ``ts`` describes, generated from ``default_rng(ts.seed)``.

    The generators are looked up as module globals at each call, so a wrapper
    installed here sees every call.
    """
    generate = generate_gauss_markov if ts.mobility == "gauss_markov" else generate_random_waypoint
    return generate(ts, np.random.default_rng(ts.seed))


def run_provenance(cfg: RunConfig, ts: TraceSpec | None, trace_sha: str, **extra) -> dict:
    """The ``# config`` header of one run: its trace, its run config, then the caller's ``extra`` keys.

    The grid step and area are the trace's own.  A generated trace is told by its spec ``ts``, with the
    Gauss-Markov parameters only if it reads them; a trace read from a file (``ts`` None) by ``extra``.
    """
    generated = {}
    if ts is not None:
        gauss_markov = {name: getattr(ts, name) for name in GAUSS_MARKOV_FIELDS if ts.mobility == "gauss_markov"}
        generated = {"mobility": ts.mobility, "speed_class": class_label(ts.speed_class), "pause_time": ts.pause_time,
                     "duration": ts.duration, **gauss_markov, "trace_seed": ts.seed}
    return {
        "protocol_params": dataclasses.asdict(cfg.protocol_config),
        **generated,
        "dt": cfg.trace.dt,
        "area": [cfg.trace.area_w, cfg.trace.area_h],
        "noise": cfg.noise_max,
        "dist_tolerance": cfg.dist_tolerance,
        "noise_seed": cfg.seed,
        "trace_sha": trace_sha,
        "backtracking": cfg.backtracking_enabled,
        **extra,
    }


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------


def run_seeds(*entropy: int) -> tuple[int, int]:
    """A run's ``(trace_seed, noise_seed)``: ``SeedSequence(entropy)``'s first two words.

    A sweep cell's entropy is ``(seed_base, class_index, pause_index, rep)``; ``simulate``'s is ``(seed,)``.
    """
    trace_seed, noise_seed = (int(v) for v in np.random.SeedSequence(entropy).generate_state(2, np.uint64))
    return trace_seed, noise_seed


def _events_filename(speed: str, pause: float, label: str, rep: int) -> str:
    return f"events_s{speed.replace(':', '-')}_p{pause:g}_{label}_r{rep}.csv"


def events_filenames(spec: SweepSpec) -> list[str]:
    """The name of every event log a sweep of ``spec`` writes with events on."""
    return [
        _events_filename(class_label(speed_class), pause, pspec.label, rep)
        for speed_class in spec.speed_classes
        for pause in spec.pause_times
        for rep in range(spec.repetitions)
        for pspec in spec.protocols
    ]


def _run_cell(
    spec: SweepSpec,
    class_index: int,
    pause_index: int,
    rep: int,
    events_dir: str | os.PathLike | None,
    workspace: Workspace,
    time_cells: Callable[[int, float], tuple],
) -> list[RunRecord]:
    """All protocol runs for one (class, pause, rep) cell: one trace, one noise seed, one workspace."""
    trace_seed, noise_seed = run_seeds(spec.seed_base, class_index, pause_index, rep)
    ts = spec.trace_spec(class_index, pause_index, trace_seed)
    with renaming(_CELL_FIELDS):  # a Gauss-Markov step may name speed_class
        trace = make_trace(ts)
    trace_sha = trace.content_hash()
    speed = class_label(ts.speed_class)
    pause = ts.pause_time
    # The protocol runs of a cell share the trace, so its event cells are formatted once.
    trace_cells = None
    if events_dir is not None:
        trace_cells = [time_cells(len(trace), trace.dt), _event_cells(trace.xs), _event_cells(trace.ys)]
    records: list[RunRecord] = []
    for pspec in spec.protocols:
        config = resolve_protocol_config(pspec, class_index, len(spec.speed_classes))
        run_cfg = RunConfig.of(spec, trace=trace, protocol_config=config, seed=noise_seed)
        with renaming(_label_fields(pspec)):  # the engine may name t_min or period
            result = run(run_cfg, workspace)
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
                # RunMetrics is flat: vars() reads its fields without asdict's deep copy.
                **vars(result.metrics),
            )
        )
        if events_dir is not None:
            provenance = run_provenance(run_cfg, ts, trace_sha, rep=rep, protocol=pspec.label, kind=pspec.kind)
            path = Path(events_dir) / _events_filename(speed, pause, pspec.label, rep)
            write_events_csv(path, provenance, result, trace_cells)
    return records


def _worker_count(workers: int, n_cells: int) -> int:
    """Processes to use: the request, capped by cells and CPUs."""
    return max(1, min(workers, n_cells, os.cpu_count() or 1))


# Pool tasks per worker.  Each task is a batch of cells that shares one
# workspace; several per worker, each taking every B-th cell so that every
# batch mixes slow and fast speed classes, keep the workers evenly loaded.
_BATCHES_PER_WORKER = 4


def _run_batch(
    spec: SweepSpec, cells: Sequence[tuple[int, int, int]], events_dir: str | os.PathLike | None
) -> list[list[RunRecord]]:
    """The records of each cell in ``cells``, in order, all run on one workspace and one ``t`` cell slot."""
    time_cells = functools.lru_cache(maxsize=1)(lambda samples, dt: _event_cells(grid_times(samples, dt)))
    workspace = Workspace()
    return [_run_cell(spec, ci, pi, rep, events_dir, workspace, time_cells) for ci, pi, rep in cells]


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    events_dir: str | os.PathLike | None = None,
) -> list[RunRecord]:
    """Execute the full sweep; one record per run, in the order :func:`summarize` pairs by.

    Cells come in order of class, then pause, then repetition, and each cell's
    records in the order of ``spec.protocols``, whatever the worker count.
    ``workers`` > 1 fans cells out over a process pool that never gets more
    processes than there are cells or CPUs.  Cells run in batches that each
    share one :class:`~dynloc.engine.Workspace` and the cells of the ``t``
    event column: one batch when serial, and ``_BATCHES_PER_WORKER`` strided
    batches per worker (cells ``b, b + B, ...``) in the pool.  Results are
    identical regardless of worker count.  With ``events_dir``, a folder that
    exists, each run's event log is written into it.
    """
    cells = [
        (ci, pi, rep)
        for ci in range(len(spec.speed_classes))
        for pi in range(len(spec.pause_times))
        for rep in range(spec.repetitions)
    ]
    n = _worker_count(workers, len(cells))
    if n == 1:
        per_cell = _run_batch(spec, cells, events_dir)
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded on first use: a serial sweep never needs it

        n_batches = min(len(cells), _BATCHES_PER_WORKER * n)
        strided = [cells[b::n_batches] for b in range(n_batches)]
        with ProcessPoolExecutor(max_workers=n) as pool:
            batches = list(pool.map(_run_batch, repeat(spec), strided, repeat(events_dir)))
        # Cell i is entry i // n_batches of batch i % n_batches.
        per_cell = [batches[i % n_batches][i // n_batches] for i in range(len(cells))]
    return list(chain.from_iterable(per_cell))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def summarize(spec: SweepSpec, records: Sequence[RunRecord]) -> list[SummaryRow]:
    """Aggregate the records of one whole :func:`run_sweep`, in its order, into one row per cell.

    Each metric is read once as a (cell, protocol, repetition) array, contiguous along repetitions, so a
    row's ``mean`` and ``std(ddof=1)`` are numpy's 1-D ones of its group, bit for bit.  Rows come cell by
    cell, protocol by protocol, labelled from the first record of their group.  Ratios pair each
    repetition with the same one of the cell's first ``sfr``-kind protocol and are then averaged; with
    no SFR baseline the ratio columns stay empty.  Every run fixes at t = 0, so no ratio divides by
    zero.  An empty list gives no rows; any other that does not fill the sweep's layout, by count or by
    the protocol label at each position, raises ValueError.
    """
    if not records:
        return []
    labels = [p.label for p in spec.protocols]
    cells, reps, width = len(spec.speed_classes) * len(spec.pause_times), spec.repetitions, len(labels)
    if len(records) != cells * reps * width or [r.protocol for r in records] != labels * (cells * reps):
        raise ValueError(f"need {cells} cells x {reps} repetitions x protocols {labels} in sweep order")

    def metric(name: str) -> np.ndarray:
        values = np.array([getattr(r, name) for r in records], dtype=float).reshape(cells, reps, width)
        return np.ascontiguousarray(values.transpose(0, 2, 1))

    def mean_std(values: np.ndarray) -> tuple[list[float], list[float]]:
        std = values.std(axis=-1, ddof=1) if reps > 1 else np.zeros(values.shape[:-1])
        return values.mean(axis=-1).ravel().tolist(), std.ravel().tolist()

    counts = metric("localization_count")
    base = next((i for i, p in enumerate(spec.protocols) if p.kind == "sfr"), None)
    ratios = mean_std(counts / counts[:, base : base + 1]) if base is not None else ([None] * cells * width,) * 2
    error, accuracy, corrections = (mean_std(metric(name)) for name in ("mean_error", "accuracy", "correction_count"))
    firsts = chain.from_iterable(records[i : i + width] for i in range(0, len(records), reps * width))
    columns = zip(firsts, *mean_std(counts), *ratios, *error, *accuracy, corrections[0], strict=True)
    return [SummaryRow(r.speed_class, r.pause_time, r.protocol, r.upper_threshold, *stats) for r, *stats in columns]


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
    """The spec of a dict as :func:`spec_to_dict` writes it, a header's ``# config`` line among them.

    This is the JSON adapter only: it refuses a ``d`` that is not an object, a key that is not a
    field, a missing field, and a protocol entry that is not a ``{label, kind, params}`` object.
    :class:`SweepSpec` and :class:`ProtocolSpec` type every value, as they do for any other caller.
    """
    if not isinstance(d, dict):
        raise FieldError("config", f"expected a JSON object, got {d!r}")
    names = {f.name for f in dataclasses.fields(SweepSpec)}
    if set(d) != names:
        key = min(set(d) - names or names - set(d))
        raise FieldError(key, "not a sweep parameter" if key in d else "missing from provenance config")
    protocols = d["protocols"]
    if not isinstance(protocols, list) or not all(
        isinstance(p, dict) and set(p) == {"label", "kind", "params"} for p in protocols
    ):
        raise FieldError("protocols", f"expected a list of {{label, kind, params}} objects, got {protocols!r}")
    return SweepSpec(**{**d, "protocols": tuple(ProtocolSpec(**p) for p in protocols)})


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def read_provenance(path: str | os.PathLike) -> dict:
    """Parse the ``# config {json}`` provenance line of any dynloc CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# config "):
                return json.loads(line[len("# config "):])
            if not line.startswith("#"):
                break
    raise ValueError(f"no provenance header found in {path}")


def _stdout_file(path: str | os.PathLike) -> bool:
    """Whether ``path`` is the file descriptor 1 has open: ``/dev/stdout``, or a file stdout is redirected to."""
    try:
        return os.path.samestat(os.fstat(1), os.stat(path))
    except OSError:  # no such file (or a dangling link), or no descriptor 1
        return False


def check_output(path: str | os.PathLike | None, field: str, beside: tuple[str, str | None] | None = None) -> None:
    """Refuse, naming ``field``, an output path :func:`_atomic_write` cannot take: a missing folder or a
    directory at the path.  None passes.  ``beside`` is the ``(field, path)`` of another output of the
    same command; the two may be one file only if it is stdout's, which takes both in turn, as the
    second would otherwise replace the first."""
    if path is None:
        return
    path = os.fspath(path)
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FieldError(field, f"directory {folder!r} does not exist")
    if os.path.isdir(path):
        raise FieldError(field, f"{path!r} is a directory")
    if beside is not None and beside[1] is not None and not _stdout_file(path):
        try:
            one_file = os.path.samefile(path, beside[1])
        except OSError:  # not both there yet: compare where each would be made
            one_file = os.path.realpath(path) == os.path.realpath(beside[1])
        if one_file:
            raise FieldError((beside[0], field), f"{beside[1]!r} and {path!r} are one file")


@contextlib.contextmanager
def _atomic_write(path: str | os.PathLike | None):
    """Write ``path`` through a fresh ``.<name>.<16 hex digits>.tmp`` beside it and a rename; on error
    remove the temp, keep ``path``.

    ``None`` writes to ``sys.stdout`` as it is at the call, and so does a path
    to the file descriptor 1 has open (``/dev/stdout``, or a file stdout is
    redirected to), after what stdout holds: opening that file anew would
    truncate it, and a rename would leave stdout writing to the replaced file.
    Any other symlink, pipe or device is written in place: a rename would
    replace the link or node instead of writing through it.  The temp is
    opened exclusively, with the mode ``open(path, "w")`` would give; anything
    already at its name fails the write untouched.
    """
    if path is None or _stdout_file(path):
        yield sys.stdout
        return
    path = os.fspath(path)
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    folder, name = os.path.split(path)
    tmp = os.path.join(folder, f".{name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")  # follows no link, opens no FIFO
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _refuse_directories(out_dir: Path, names: Iterable[str]) -> None:
    """Refuse, naming ``out``, a directory at any of ``names`` in ``out_dir``; a link to one is not refused,
    since a rename replaces the link."""
    for path in (out_dir / name for name in names):
        if path.is_dir() and not path.is_symlink():
            raise FieldError("out", f"{str(path)!r} is a directory")


@contextlib.contextmanager
def staged(out_dir: Path, names: Iterable[str]):
    """A fresh ``.dynloc-partial-*`` folder inside ``out_dir``, made with its missing parents, once no
    directory sits at any of ``names`` there.  When the block ends, the names the stage holds are
    checked the same way again, then each file is renamed into ``out_dir``, replacing whatever has its
    name, a link (to a directory too), pipe or device, rather than writing through it.  If the block or
    the check raises, anything at all, the stage and every folder made here are removed, so ``out_dir``
    is as it was.  A directory made at a name between that check and its rename still fails the
    publish part-way, with the earlier names already replaced."""
    made = [folder for folder in (out_dir, *out_dir.parents) if not os.path.lexists(folder)]  # the deepest first
    stage = None
    try:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise FieldError("out", f"cannot create directory {str(out_dir)!r}: {exc}") from exc
        _refuse_directories(out_dir, names)
        stage = Path(tempfile.mkdtemp(dir=out_dir, prefix=".dynloc-partial-"))
        yield stage
        held = sorted(os.listdir(stage))
        _refuse_directories(out_dir, held)
        for name in held:
            os.replace(stage / name, out_dir / name)
        stage.rmdir()
    except BaseException:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
        for folder in made:
            with contextlib.suppress(OSError):
                folder.rmdir()
        raise


def _write_table(
    path: str | os.PathLike | None, kind: str, config: dict, columns: Sequence[str], blocks: Iterable[str]
) -> None:
    """The layout of every dynloc table: ``# dynloc <kind> v1``, ``# config {json}``, the column line, ``blocks``.

    Each of ``blocks`` is the text of ``_WRITE_ROWS`` rows (fewer in the
    last), line ends included, and is one write.  The file is written
    through :func:`_atomic_write`, so ``path`` None is stdout.
    """
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    with _atomic_write(path) as fh:
        fh.write(f"# dynloc {kind} v1\n# config {payload}\n{','.join(columns)}\n")
        fh.writelines(blocks)


def write_csv(
    path: str | os.PathLike | None, kind: str, config: dict, columns: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """Write ``rows`` as a dynloc table of ``kind`` (stdout when ``path`` is None).

    A float prints as its ``repr``, ``None`` as an empty cell, anything else as ``str``.
    """
    lines = (",".join(map(_fmt, row)) + "\n" for row in rows)
    _write_table(path, kind, config, columns, iter(lambda: "".join(islice(lines, _WRITE_ROWS)), ""))


def write_runs_csv(path: str | os.PathLike, spec: SweepSpec, records: Sequence[RunRecord]) -> None:
    rows = [[getattr(r, c) for c in RUNS_COLUMNS] for r in records]
    write_csv(path, "runs", spec_to_dict(spec), RUNS_COLUMNS, rows)


def write_summary_csv(path: str | os.PathLike, spec: SweepSpec, rows: Sequence[SummaryRow]) -> None:
    table = [[getattr(r, c) for c in SUMMARY_COLUMNS] for r in rows]
    write_csv(path, "summary", spec_to_dict(spec), SUMMARY_COLUMNS, table)


def write_waypoints(path: str | os.PathLike | None, traces: Iterable[MobilityTrace]) -> None:
    """Write ``traces`` as waypoint text, one :func:`~dynloc.mobility.export_trace` block a write (stdout when None)."""
    with _atomic_write(path) as fh:
        fh.writelines(chain.from_iterable(map(export_trace, traces)))


def _event_cells(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~dynloc.floattext.column_cells` of one event column."""
    from . import floattext

    return floattext.column_cells(col)


# The columns of an event log, one row per grid step, and the `confidence` cell of each MADRD state.
EVENT_COLUMNS = ("t", "true_x", "true_y", "reported_x", "reported_y", "error", "localized", "period", "confidence")
_CONFIDENCE_NAMES = np.array([c.name for c in Confidence])


def event_columns(result: RunResult) -> dict[str, np.ndarray]:
    """The :data:`EVENT_COLUMNS` of a run, one entry per grid step: its trace, reported track and error, then
    its fixes held over the steps each reports (``localized`` 1 at a fix; ``confidence`` empty but for MADRD)."""
    trace, fixes = result.config.trace, result.fixes
    seg = np.diff(fixes.step, append=trace.times.size)
    localized = np.zeros(trace.times.size, dtype=np.int8)
    localized[fixes.step] = 1
    names = _CONFIDENCE_NAMES if PROTOCOLS[result.config.protocol].predicts else np.full_like(_CONFIDENCE_NAMES, "")
    columns = (trace.times, trace.xs, trace.ys, result.reported_x, result.reported_y, result.error, localized,
               np.repeat(fixes.period, seg), np.repeat(names[fixes.confidence], seg))
    return dict(zip(EVENT_COLUMNS, columns))


def write_events_csv(
    path: str | os.PathLike, config: dict, result: RunResult, trace_cells: Sequence[tuple] | None = None
) -> None:
    """Write a run's event log straight from its :func:`event_columns`, one row per grid step.

    The bytes are those of formatting every value.  Each column becomes its
    :func:`~dynloc.floattext.column_cells`, the cell of each run of equal
    values, formatted once; ``trace_cells`` are those of ``t,true_x,true_y``
    of the trace ``result`` ran on, shared by every run on it, or they are
    formatted here.  :func:`~dynloc.floattext.csv_blocks` lays the cells out
    as rows in bytes and hands ``_WRITE_ROWS`` rows to each write.  A column
    of another length raises ``ValueError`` before the first byte.
    """
    from . import floattext  # loaded on first use: a sweep without event logs never compiles it

    columns = list(event_columns(result).values())
    lengths = {col.size for col in columns} | {int(bounds[-1]) for _, bounds in trace_cells or ()}
    if len(lengths) > 1:
        raise ValueError(f"event columns must all have one length, got {sorted(lengths)}")
    cells = [*(trace_cells or map(floattext.column_cells, columns[:3])), *map(floattext.column_cells, columns[3:])]
    _write_table(path, "events", config, EVENT_COLUMNS, floattext.csv_blocks(cells, _WRITE_ROWS))


def parse_number_list(raw: str, field_name: str) -> list[float]:
    """Parse a comma list of numbers, blanks skipped; errors name ``field_name``."""
    try:
        out = [number(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise FieldError(field_name, str(exc)) from exc
    if not out:
        raise FieldError(field_name, "empty list")
    return out


def _parse_pair(raw: str, sep: str, field_name: str) -> tuple[float, float]:
    """The two numbers of ``raw`` split at ``sep``, unchecked (a TraceSpec checks them); errors name ``field_name``."""
    pieces = raw.lower().split(sep)
    if len(pieces) != 2:
        raise FieldError(field_name, f"expected two numbers joined by {sep!r}, got {raw!r}")
    try:
        return number(pieces[0]), number(pieces[1])
    except ValueError as exc:
        raise FieldError(field_name, f"not a number in {raw!r}") from exc


def parse_speed_class(raw: str, field_name: str = "speed_classes") -> tuple[float, float]:
    """Parse one ``lo:hi`` speed class; errors name ``field_name``."""
    return _parse_pair(raw, ":", field_name)


def parse_area(raw: str) -> tuple[float, float]:
    """Parse a ``WxH`` area; errors name ``area``."""
    return _parse_pair(raw, "x", "area")


# SweepSpec fields whose [sweep] key has another name.
FIELD_SPEC_KEYS = {"noise_max": "noise", "backtracking_enabled": "backtracking", "area_w": "area", "area_h": "area"}


def parse_spec_file(text: str) -> SweepSpec:
    """Parse a sweep spec file: flat key=value lines with per-protocol sections.

    The ``[sweep]`` section holds the scenario knobs; each additional section
    names one protocol (section name is the label, optional ``kind`` key
    defaults to the label).  Numeric protocol parameters accept a
    comma-separated list with one entry per speed class.  Values are literal
    (no ``%`` interpolation); :class:`SweepSpec` types them as it types every spec.
    """
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"spec file is not parseable: {exc}") from exc
    if parser.defaults():
        raise ValueError("section 'DEFAULT': not a spec section, write each key in [sweep] or its protocol's section")
    if "sweep" not in parser:
        raise FieldError("sweep", "missing [sweep] section")
    sweep = parser["sweep"]
    if "speed_classes" not in sweep:
        raise FieldError("speed_classes", "required in [sweep]")
    d = {f.name: f.default for f in dataclasses.fields(SweepSpec) if f.default is not dataclasses.MISSING}
    # Each other key sets the scalar field it names (see FIELD_SPEC_KEYS), read as the type of the
    # field's default, a number by oracles.number; area_w and area_h are set only through ``area``.
    scalars = {FIELD_SPEC_KEYS.get(name, name): name for name in d if name not in ("area_w", "area_h")}
    unknown = sorted(set(sweep) - {"speed_classes", "pause_times", "area", *scalars})
    if unknown:
        raise FieldError(unknown[0], "not a [sweep] key")
    d["speed_classes"] = [list(parse_speed_class(c.strip())) for c in sweep["speed_classes"].split(",") if c.strip()]
    d["pause_times"] = parse_number_list(sweep.get("pause_times", "0"), "pause_times")
    if "area" in sweep:
        d["area_w"], d["area_h"] = parse_area(sweep["area"])
    for key, name in scalars.items():
        try:
            if key in sweep:
                kind, value = type(d[name]), sweep[key]
                d[name] = sweep.getboolean(key) if kind is bool else value if kind is str else number(value, kind)
        except ValueError as exc:
            raise FieldError(key, str(exc)) from exc
    # A protocol parameter of one value is a number, of more a per-class list.
    d["protocols"] = tuple(
        ProtocolSpec(label, body.get("kind", label), {
            key: values[0] if len(values := parse_number_list(raw, f"{label}.{key}")) == 1 else values
            for key, raw in body.items() if key != "kind"
        })
        for label, body in parser.items() if label not in ("sweep", parser.default_section)
    )
    with renaming(FIELD_SPEC_KEYS):
        return SweepSpec(**d)
