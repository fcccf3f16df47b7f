#!/usr/bin/env python3
"""dynloc benchmark: time ``dynloc sweep`` end to end, or layer by layer when traced.

Run from the root of a checkout (dynloc is imported from its ``src/``)::

    python3 perfbench/run.py --workload rwp_stock --seed 0 --seconds 30 --trace 0

Each pass re-imports dynloc, writes the workload's spec file and calls
``dynloc.cli.main(["sweep", "--spec", ...])`` in this process, while
``speed.py`` samples how fast the core runs.  Untraced, passes repeat until
``--seconds`` is used up and the end-to-end metrics are pass medians of times
scaled to a reference core speed.  Traced, serial passes alternate with and
without the span recorder of ``spans.py`` and the per-layer metrics come from
the traced ones.
Every pass hashes its outputs against ``digests.json`` and checks the sweep's
invariants.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (output files checked / failing) and ``metrics``; the
line before it is a JSON report with the environment, every pass and the
digest status.  The exit code is 1 when an output check fails and 2 when the
benchmark cannot run.  See README.md beside this file for the workloads and
the metric map.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402


@dataclass(frozen=True)
class Workload:
    spec: str
    workers: int
    events: bool = False
    overrides: dict = field(default_factory=dict)


# Why each workload exists is in README.md.
WORKLOADS = {
    "rwp_stock": Workload("rwp_stock.ini", workers=2),
    "gm_backtrack": Workload("gm_backtrack.ini", workers=1),
    "rwp_events": Workload("rwp_stock.ini", workers=1, events=True, overrides={"repetitions": "1"}),
}

# --tiny shrinks every workload to a sub-second sweep for the self-test.
TINY = {"duration": "20", "pause_times": "0, 5"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PROTOCOL_KINDS = ("sfr", "dvm", "madrd")
PER_LAYER = {
    "mobility.rwp_ms.p50": "ms",
    "mobility.rwp_ms.p95": "ms",
    "mobility.gm_ms.p50": "ms",
    "mobility.gm_ms.p95": "ms",
    "mobility.hash_ms": "ms",
    "mobility.self_s": "s",
    **{
        f"engine.{family}.{kind}.{q}": "ms"
        for family in ("run_ms", "run_bt_ms")
        for kind in PROTOCOL_KINDS
        for q in ("p50", "p95")
    },
    "engine.self_s": "s",
    "engine.us_per_step": "us",
    "engine.steps": "count",
    "engine.fixes": "count",
    "engine.fix_ratio": "ratio",
    "engine.corrections": "count",
    "protocols.predict_calls": "count",
    "protocols.predict_s": "s",
    "protocols.backtrack_calls": "count",
    "protocols.backtrack_s": "s",
    "geometry.localize_calls": "count",
    "geometry.localize_s": "s",
    "experiments.write_events_ms.p50": "ms",
    "experiments.write_events_ms.p95": "ms",
    "experiments.events_mb": "MB",
    "experiments.write_runs_ms": "ms",
    "experiments.write_summary_ms": "ms",
    "experiments.summarize_ms": "ms",
    "experiments.sweep_self_s": "s",
    "experiments.pool_util": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "outputs_failed": "count",
}

MIN_PASSES = 3
# Set-up takes 30-50 ms, so each pass repeats it on its own to get a steady median.
SETUP_SAMPLES = 8


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Pass:
    """One sweep pass.  Times are as measured, less the time the speed probe took."""

    setup_s: list  # SETUP_SAMPLES set-up times; the last one is the pass's own
    wall_s: float
    cpu_s: float
    worker_cpu_s: float
    workers: int
    scale: float  # turns this pass's times into times at the reference speed (speed.py)
    probe_samples: int
    load_before: float
    load_after: float
    digests: dict
    failed: list
    tracer: Tracer | None = None

    def report(self) -> dict:
        return {
            "traced": self.tracer is not None,
            "workers": self.workers,
            "setup_s": statistics.median(self.setup_s),
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "scale": self.scale,
            "probe_samples": self.probe_samples,
            "load_before": self.load_before,
            "load_after": self.load_after,
            "failed": self.failed,
        }


# ---------------------------------------------------------------------------
# Inputs: spec file and pinned digests
# ---------------------------------------------------------------------------


def make_spec(workload: Workload, seed: int, tiny: bool) -> configparser.ConfigParser:
    """The workload's spec with ``seed`` added to its ``seed_base``."""
    spec = configparser.ConfigParser()
    spec.read(HERE / "specs" / workload.spec, encoding="utf-8")
    sweep = spec["sweep"]
    sweep.update(workload.overrides)
    if tiny:
        sweep.update(TINY)
    sweep["seed_base"] = str(int(sweep["seed_base"]) + seed)
    return spec


def pinned_digests(path: Path | None, name: str, seed: int, versions: dict) -> dict | None:
    """Pinned digests for this workload and seed, or None when there are none.

    Digests hold only for the Python and numpy versions recorded with them;
    under other versions the check is reported as unchecked.
    """
    if path is None or not path.is_file():
        return None
    table = json.loads(path.read_text(encoding="utf-8"))
    if {k: table.get(k) for k in versions} != versions:
        return None
    return table.get("workloads", {}).get(name, {}).get(str(seed))


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def sha256_file(path: Path, h=None) -> str:
    h = h or hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digests(out_dir: Path) -> dict:
    """sha256 of runs.csv and summary.csv, plus one over the event logs in name order."""
    digests = {name: sha256_file(out_dir / name) for name in ("runs.csv", "summary.csv")}
    events = sorted(out_dir.glob("events_*.csv"))
    if events:
        h = hashlib.sha256()
        for path in events:
            h.update(path.name.encode() + b"\0")
            sha256_file(path, h)
        digests["events"] = h.hexdigest()
    return digests


def _table(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def invariant_failures(out_dir: Path, spec: configparser.ConfigParser, events: bool) -> set[str]:
    """Output files that break an invariant every correct sweep keeps, at any seed.

    Row counts follow from the spec; runs of one cell share a trace; SFR fixes
    exactly once per period; DVM and MADRD fix at least once per ``t_max``
    plus a grid step and at most once per ``t_min``; errors and accuracies lie
    in range; corrections happen only with backtracking; SFR's ratio to itself
    is exactly 1.
    """
    sweep = spec["sweep"]
    n_classes = len(sweep["speed_classes"].split(","))
    n_pauses = len(sweep["pause_times"].split(","))
    protocols = {s: spec[s] for s in spec.sections() if s != "sweep"}
    duration = float(sweep["duration"])
    dt = float(sweep.get("dt", "0.1"))
    backtracking = sweep.getboolean("backtracking", fallback=False)
    bad: set[str] = set()

    runs = _table(out_dir / "runs.csv")
    if len(runs) != n_classes * n_pauses * int(sweep["repetitions"]) * len(protocols):
        bad.add("runs.csv")
    cell_trace: dict[tuple, str] = {}
    for row in runs:
        proto = protocols.get(row["protocol"])
        count = int(row["localization_count"])
        mean, worst, acc = float(row["mean_error"]), float(row["max_error"]), float(row["accuracy"])
        ok = proto is not None and 0.0 <= mean <= worst < math.inf and 0.0 <= acc <= 1.0
        ok = ok and (backtracking or int(row["correction_count"]) == 0)
        cell = (row["speed_class"], row["pause_time"], row["rep"])
        ok = ok and cell_trace.setdefault(cell, row["trace_sha"]) == row["trace_sha"]
        if ok and proto.get("kind", row["protocol"]) == "sfr":
            ok = count == math.floor(duration / float(proto["period"]) + 1e-9) + 1
        elif ok:
            t_min, t_max = float(proto["t_min"]), float(row["upper_threshold"])
            ok = duration / (t_max + dt) <= count <= duration / t_min + 2
        if not ok:
            bad.add("runs.csv")

    summary = _table(out_dir / "summary.csv")
    if len(summary) != n_classes * n_pauses * len(protocols):
        bad.add("summary.csv")
    for row in summary:
        if protocols.get(row["protocol"], {}).get("kind", row["protocol"]) == "sfr":
            if float(row["ratio_to_sfr"]) != 1.0:
                bad.add("summary.csv")

    if len(list(out_dir.glob("events_*.csv"))) != (len(runs) if events else 0):
        bad.add("events")
    return bad


# ---------------------------------------------------------------------------
# One sweep pass
# ---------------------------------------------------------------------------


def _fresh_dynloc(clock):
    """Import dynloc from this checkout anew; returns (cli, experiments, engine, mobility, seconds)."""
    for name in [m for m in sys.modules if m == "dynloc" or m.startswith("dynloc.")]:
        del sys.modules[name]
    t0 = clock()
    cli = importlib.import_module("dynloc.cli")
    elapsed = clock() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"dynloc was imported from {cli.__file__}, not from {SRC}")
    mods = sys.modules
    return cli, mods["dynloc.experiments"], mods["dynloc.engine"], mods["dynloc.mobility"], elapsed


def instrument(tracer: Tracer, experiments, engine, mobility) -> None:
    """Wrap each layer's public functions where their caller binds them."""

    def run_done(span, args, result):
        cfg, m = args[0], result.metrics
        span.attrs.update(
            kind=cfg.protocol,
            bt=cfg.backtracking_enabled,
            steps=len(cfg.trace),
            fixes=m.localization_count,
            corrections=m.correction_count,
        )

    def file_done(span, args, result):
        span.attrs["bytes"] = os.path.getsize(args[0])

    ex = experiments
    ex.run_sweep = tracer.wrap_sweep("experiments.sweep", ex.run_sweep)
    ex.summarize = tracer.wrap("experiments.summarize", ex.summarize)
    ex.write_runs_csv = tracer.wrap("experiments.write_runs", ex.write_runs_csv)
    ex.write_summary_csv = tracer.wrap("experiments.write_summary", ex.write_summary_csv)
    ex.write_events_csv = tracer.wrap("experiments.write_events", ex.write_events_csv, file_done)
    ex.generate_random_waypoint = tracer.wrap_cell_start("mobility.rwp", ex.generate_random_waypoint)
    ex.generate_gauss_markov = tracer.wrap_cell_start("mobility.gm", ex.generate_gauss_markov)
    ex.run = tracer.wrap_run("engine.run", ex.run, run_done)
    trace_cls = mobility.MobilityTrace
    trace_cls.content_hash = tracer.wrap("mobility.hash", trace_cls.content_hash)
    engine.madrd_predict = tracer.per_step("protocols.predict", engine.madrd_predict)
    engine.backtrack_correct = tracer.per_step("protocols.backtrack", engine.backtrack_correct)
    engine.localize = tracer.per_step("geometry.localize", engine.localize)


def _setup_only(argv: list[str], clock) -> float:
    """One set-up without the sweep: import dynloc anew and run the CLI up to ``run_sweep``."""
    cli, experiments, _, _, import_s = _fresh_dynloc(clock)
    called: list[float] = []

    def no_sweep(*args, **kwargs):
        called.append(clock())
        return []

    experiments.run_sweep = no_sweep
    t0 = clock()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0 or not called:
        raise BenchError(f"dynloc sweep exited with code {code}")
    return import_s + called[0] - t0


def sweep_pass(spec_path: Path, out_dir: Path, workers: int, events: bool, traced: bool) -> Pass:
    argv = ["sweep", "--spec", str(spec_path), "--out", str(out_dir), "--workers", str(workers)]
    if events:
        argv.append("--events")
    with SpeedProbe() as probe:
        return _probed_pass(argv, out_dir, workers, traced, probe)


def _probed_pass(argv: list[str], out_dir: Path, workers: int, traced: bool, probe: SpeedProbe) -> Pass:
    clock = probe.clock
    setups = [_setup_only(argv, clock) for _ in range(SETUP_SAMPLES - 1)]
    gc.collect()  # every pass starts without the previous pass's garbage
    cli, experiments, engine, mobility, import_s = _fresh_dynloc(clock)
    tracer = Tracer() if traced else None
    if tracer is not None:
        instrument(tracer, experiments, engine, mobility)
    sweep_started: list[float] = []
    run_sweep = experiments.run_sweep

    def timed_run_sweep(*args, **kwargs):
        sweep_started.append(clock())
        return run_sweep(*args, **kwargs)

    experiments.run_sweep = timed_run_sweep
    main = tracer.wrap("cli.main", cli.main) if tracer is not None else cli.main

    load_before = os.getloadavg()[0]
    probe_cpu0 = probe.paused_cpu_s
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = clock()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    t1 = clock()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if code != 0 or not sweep_started:
        raise BenchError(f"dynloc sweep exited with code {code}")
    parent_cpu = (self1.ru_utime - self0.ru_utime) + (self1.ru_stime - self0.ru_stime)
    parent_cpu -= probe.paused_cpu_s - probe_cpu0
    kids_cpu = (kids1.ru_utime - kids0.ru_utime) + (kids1.ru_stime - kids0.ru_stime)
    return Pass(
        setup_s=setups + [import_s + (sweep_started[0] - t0)],
        wall_s=t1 - sweep_started[0],
        cpu_s=parent_cpu + kids_cpu,
        worker_cpu_s=kids_cpu if workers > 1 else parent_cpu,
        workers=workers,
        scale=probe.scale,
        probe_samples=len(probe.samples),
        load_before=load_before,
        load_after=os.getloadavg()[0],
        digests=output_digests(out_dir),
        failed=[],
        tracer=tracer,
    )


class Runner:
    """Runs passes of one workload and checks every pass's outputs."""

    def __init__(self, name: str, seed: int, tiny: bool, digests_path: Path | None, env: dict):
        self.name = name
        self.workload = WORKLOADS[name]
        self.spec = make_spec(self.workload, seed, tiny)
        versions = {"python": env["python"], "numpy": env["numpy"]}
        self.pinned = pinned_digests(digests_path, name, seed, versions)
        self.work = OUT / f"work-{os.getpid()}"
        self.spec_path = self.work / "spec.ini"
        self.reference: dict | None = None
        self.passes: list[Pass] = []

    def __enter__(self) -> "Runner":
        self.work.mkdir(parents=True, exist_ok=True)
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            self.spec.write(fh)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def run(self, traced: bool = False, workers: int | None = None) -> Pass:
        out_dir = self.work / "out"
        workers = self.workload.workers if workers is None else workers
        p = sweep_pass(self.spec_path, out_dir, workers, self.workload.events, traced)
        failed = set()
        if self.reference is None:
            self.reference = p.digests
            failed |= invariant_failures(out_dir, self.spec, self.workload.events)
        for expected in (self.reference, self.pinned or p.digests):
            failed |= {k for k in expected.keys() | p.digests.keys() if expected.get(k) != p.digests.get(k)}
        p.failed = sorted(failed)
        shutil.rmtree(out_dir)
        self.passes.append(p)
        return p

    @property
    def attempted(self) -> int:
        return sum(len(p.digests) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(len(p.failed) for p in self.passes)

    def digest_status(self) -> str:
        if self.failed:
            return "failed"
        return "passed" if self.pinned is not None else "unchecked"


def repeat(step, started: float, seconds: float, minimum: int) -> None:
    """Call ``step`` at least ``minimum`` times, then while another call fits in ``seconds``."""
    took: list[float] = []
    while len(took) < minimum or perf_counter() - started + statistics.median(took) <= seconds:
        t0 = perf_counter()
        step()
        took.append(perf_counter() - t0)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _pct(values: list[float], q: float) -> float:
    return float(numpy.percentile(values, q)) if values else 0.0


def end_to_end(passes: list[Pass]) -> dict:
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Times at the reference speed: each pass scaled by its own probe (speed.py).
    return {
        "setup_s": statistics.median(t * p.scale for p in passes for t in p.setup_s),
        "wall_s": statistics.median(p.wall_s * p.scale for p in passes),
        "cpu_s": statistics.median(p.cpu_s * p.scale for p in passes),
        "peak_rss_mb": max(self_rss, kids_rss) / 1024.0,
    }


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass."""
    spans: dict[str, list] = {}
    for s in tracer.spans:
        spans.setdefault(s.name, []).append(s)

    def ms(name):
        return [s.duration * 1e3 for s in spans.get(name, [])]

    m = {}
    for name, key in (("mobility.rwp", "mobility.rwp_ms"), ("mobility.gm", "mobility.gm_ms")):
        m[f"{key}.p50"], m[f"{key}.p95"] = _pct(ms(name), 50), _pct(ms(name), 95)
    m["mobility.hash_ms"] = _pct(ms("mobility.hash"), 50)

    runs = spans.get("engine.run", [])
    for family, bt in (("run_ms", False), ("run_bt_ms", True)):
        for kind in PROTOCOL_KINDS:
            d = [r.duration * 1e3 for r in runs if r.attrs["kind"] == kind and r.attrs["bt"] == bt]
            m[f"engine.{family}.{kind}.p50"] = _pct(d, 50)
            m[f"engine.{family}.{kind}.p95"] = _pct(d, 95)
    steps = sum(r.attrs["steps"] for r in runs)
    fixes = sum(r.attrs["fixes"] for r in runs)
    m["engine.us_per_step"] = sum(r.duration for r in runs) / steps * 1e6 if steps else 0.0
    m["engine.steps"] = steps
    m["engine.fixes"] = fixes
    m["engine.fix_ratio"] = fixes / steps if steps else 0.0
    m["engine.corrections"] = sum(r.attrs["corrections"] for r in runs)

    calls = tracer.call_totals()
    for name in ("protocols.predict", "protocols.backtrack", "geometry.localize"):
        m[f"{name}_calls"], m[f"{name}_s"] = calls[name]

    writes = ms("experiments.write_events")
    m["experiments.write_events_ms.p50"] = _pct(writes, 50)
    m["experiments.write_events_ms.p95"] = _pct(writes, 95)
    m["experiments.events_mb"] = sum(s.attrs["bytes"] for s in spans.get("experiments.write_events", [])) / 1e6
    for name in ("write_runs", "write_summary", "summarize"):
        m[f"experiments.{name}_ms"] = sum(ms(f"experiments.{name}"))

    own = tracer.self_seconds()
    m["mobility.self_s"] = own["mobility"]
    m["engine.self_s"] = own["engine"]
    m["experiments.sweep_self_s"] = own["experiments"]
    m["cli.self_s"] = own["cli"]
    return m


def traced_metrics(runner: Runner) -> dict:
    traced = [p for p in runner.passes if p.tracer is not None]
    serial = [p for p in runner.passes if p.tracer is None and p.workers == 1]
    per_pass = [layer_metrics(p.tracer) for p in traced]
    # Counts repeat exactly from pass to pass; timings are pass medians.
    m = {k: v if PER_LAYER[k] == "count" else statistics.median(d[k] for d in per_pass)
         for k, v in per_pass[-1].items()}
    pool = [p for p in runner.passes if p.tracer is None and p.workers == runner.workload.workers]
    m["experiments.pool_util"] = statistics.median(p.worker_cpu_s / (p.wall_s * p.workers) for p in pool)
    m["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(
        p.wall_s for p in serial
    )
    m["outputs_failed"] = runner.failed
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="added to the spec's seed_base; 0 = stock seeds")
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="sub-second spec, for the self-test")
    parser.add_argument("--digests", type=Path, help="pinned digests (default digests.json; none with --tiny)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.digests is None and not args.tiny:
        args.digests = HERE / "digests.json"
    return args


def measure(args, env: dict) -> tuple[Runner, dict]:
    with Runner(args.workload, args.seed, args.tiny, args.digests, env) as runner:
        started = perf_counter()
        if not args.trace:
            repeat(runner.run, started, args.seconds, MIN_PASSES)
            return runner, end_to_end(runner.passes)
        # Traced: the untraced pass with the workload's own worker count gives
        # pool_util; serial untraced and traced passes alternate so their
        # difference is the tracing overhead.
        if runner.workload.workers > 1:
            runner.run()

        def pair():
            runner.run(workers=1)
            runner.run(traced=True, workers=1)

        repeat(pair, started, args.seconds, 1)
        metrics = traced_metrics(runner)
        OUT.mkdir(exist_ok=True)
        runner.passes[-1].tracer.dump(
            OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
            workload=args.workload,
            seed=args.seed,
            env=env,
        )
        return runner, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "dynloc" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no dynloc sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    try:
        env = environment()
        runner, metrics = measure(args, env)
    except (BenchError, ImportError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    # The 1-minute load average also counts this benchmark's own earlier passes.
    loaded = runner.passes[0].load_before > env["nproc"]
    if loaded:
        sys.stderr.write(f"perfbench: run started with load above nproc={env['nproc']}\n")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_base": int(runner.spec["sweep"]["seed_base"]),
        "digest_check": runner.digest_status(),
        "digests": runner.reference,
        "env": env,
        "started_loaded": loaded,
        "passes": [p.report() for p in runner.passes],
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
