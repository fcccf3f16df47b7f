"""Command-line front end.

Examples::

    # one run, summary row on stdout
    dynloc simulate --protocol sfr --period 2 --speed 4:5 --pause 0 \\
        --duration 900 --seed 7

    # full sweep from a spec file, flags win over file values
    dynloc sweep --spec bundle.ini --out results/ --repetitions 5

    # stock scenario bundle, no spec file needed
    dynloc sweep --out results/

    # analytic error tables
    dynloc oracle --turn --theta 90 --x 3 --nmax 10 --steps 11
    dynloc oracle --pause --d 5 --v 2 --horizon 8

    # waypoint text utilities
    dynloc import-trace --in path.txt --dt 0.1 --area 300x300
    dynloc export-trace --mobility rwp --speed 4:5 --pause 30 --seed 3 --out tr.txt

Exit codes: 0 success, 1 usage error, 2 validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments, mobility, oracles
from .engine import RunConfig, run
from .geometry import NoiseModel
from .mobility import export_trace, import_trace
from .protocols import PROTOCOLS, ProtocolConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns the exit code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# Stock sweep bundles by name; each names the mobility model it runs.
_BUNDLES = {"rwp": experiments.default_bundle, "gauss_markov": experiments.default_gauss_markov_bundle}


def _build_parser() -> _Parser:
    parser = _Parser(prog="dynloc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # Trace flags shared by simulate and export-trace; dests equal TraceSpec field names.
    trace = _Parser(add_help=False)
    trace.add_argument("--mobility", choices=tuple(experiments.MOBILITY_MODELS), default="rwp")
    trace.add_argument("--speed", type=str, default="4:5", help="speed class lo:hi, m/s")
    trace.add_argument("--pause", dest="pause_time", metavar="PAUSE", type=float, default=0.0,
                       help="waypoint pause time, seconds")
    trace.add_argument("--gm-memory", type=float, default=0.75)
    trace.add_argument("--gm-speed-sigma", type=float, default=0.5)
    trace.add_argument("--gm-direction-sigma", type=float, default=0.4)
    trace.add_argument("--duration", type=float, default=900.0)
    trace.add_argument("--dt", type=float, default=0.1)
    trace.add_argument("--area", type=str, default="300x300")
    trace.add_argument("--seed", type=int, default=0)

    # Protocol flags: each dest is the field name of a protocol config.
    sim = sub.add_parser("simulate", parents=[trace], help="run one node/protocol pair and print a summary row")
    sim.add_argument("--protocol", required=True, choices=tuple(PROTOCOLS))
    sim.add_argument("--period", type=float, default=2.0, help="SFR period, seconds")
    sim.add_argument("--target-error", type=float, default=5.0, help="DVM travel budget, meters")
    sim.add_argument("--divergence-threshold", type=float, default=5.0, help="MADRD prediction tolerance, meters")
    sim.add_argument("--t-min", type=float, default=0.5)
    sim.add_argument("--t-max", type=float, default=6.0)
    sim.add_argument("--period-growth", type=float, default=2.0)
    sim.add_argument("--period-shrink", type=float, default=0.5)
    sim.add_argument("--noise", type=float, default=0.5)
    sim.add_argument("--tolerance", type=float, default=5.0)
    sim.add_argument("--backtracking", action="store_true")
    sim.add_argument("--trace-file", type=str, default=None, help="waypoint text file instead of a generator")
    sim.add_argument("--node", type=int, default=0, help="node line to use from --trace-file")
    sim.add_argument("--events-out", type=str, default=None, help="write the per-step event log CSV here")
    sim.add_argument("--out", type=str, default=None, help="write the summary row CSV here instead of stdout")

    sw = sub.add_parser("sweep", help="run an experiment sweep and write runs/summary CSVs")
    sw.add_argument("--spec", type=str, default=None, help="spec file; omitted = stock bundle")
    sw.add_argument("--bundle", choices=tuple(_BUNDLES), default="rwp", help="stock bundle when no spec file is given")
    sw.add_argument("--out", type=str, required=True, help="output directory")
    sw.add_argument("--repetitions", type=int, default=None)
    sw.add_argument("--seed-base", type=int, default=None)
    sw.add_argument("--duration", type=float, default=None)
    sw.add_argument("--pause-times", type=str, default=None, help="comma list, overrides spec")
    sw.add_argument("--protocols", type=str, default=None, help="comma list of labels to keep")
    sw.add_argument("--workers", type=int, default=None, help=f"default ${experiments.WORKERS_ENV_VAR} or 1")
    sw.add_argument("--events", action="store_true", help="also write per-run event logs")

    orc = sub.add_parser("oracle", help="print closed-form error tables for a turn or pause maneuver")
    mode = orc.add_mutually_exclusive_group(required=True)
    mode.add_argument("--turn", action="store_true")
    mode.add_argument("--pause", action="store_true")
    orc.add_argument("--theta", type=float, default=90.0, help="turn angle, degrees")
    orc.add_argument("--x", type=float, default=3.0, help="straight distance before the turn, meters")
    orc.add_argument("--nmax", type=float, default=10.0, help="max distance past the turn, meters")
    orc.add_argument("--steps", type=int, default=21, help="table rows")
    orc.add_argument("--d", type=float, default=5.0, help="distance before the stop, meters")
    orc.add_argument("--v", type=float, default=1.0, help="speed, m/s")
    orc.add_argument("--horizon", type=float, default=None, help="pause table end time, seconds")
    orc.add_argument("--out", type=str, default=None)

    imp = sub.add_parser("import-trace", help="validate waypoint text and resample it onto the dt grid")
    imp.add_argument("--in", dest="infile", required=True)
    imp.add_argument("--dt", type=float, default=0.1)
    imp.add_argument("--area", type=str, default="300x300")
    imp.add_argument("--duration", type=float, default=None)
    imp.add_argument("--node", type=int, default=None, help="single node line to keep (default: all)")
    imp.add_argument("--out", type=str, default=None)

    exp = sub.add_parser("export-trace", parents=[trace], help="generate a trace and write it as waypoint text")
    exp.add_argument("--out", type=str, default=None)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _protocol_config(args) -> ProtocolConfig:
    config_cls = PROTOCOLS[args.protocol].config
    return config_cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(config_cls)})


def _seed(args) -> int:
    """``--seed``, checked before any seed sequence or generator sees it."""
    if args.seed < 0:
        raise ValueError(f"field 'seed': must be >= 0, got {args.seed}")
    return args.seed


def _trace_spec(args, seed: int) -> experiments.TraceSpec:
    """The trace the shared trace flags describe, generated from ``seed``."""
    area_w, area_h = experiments.parse_area(args.area)
    speed_class = experiments.parse_speed_class(args.speed, "speed")
    return experiments.TraceSpec.of(args, speed_class=speed_class, area_w=area_w, area_h=area_h, seed=seed)


def _cmd_simulate(args) -> int:
    seeds = np.random.SeedSequence([_seed(args)]).generate_state(2, np.uint64)
    trace_seed, noise_seed = int(seeds[0]), int(seeds[1])
    ts = _trace_spec(args, trace_seed)
    extra = {"protocol": args.protocol, "seed": args.seed}
    if args.trace_file is not None:
        try:
            text = Path(args.trace_file).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"field 'trace-file': cannot read {args.trace_file!r}: {exc}") from exc
        trace = import_trace(text, ts.dt, ts.area_w, ts.area_h, node_id=args.node, duration=ts.duration)
        extra["mobility"] = f"file:{args.trace_file}"
    else:
        trace = experiments.make_trace(ts)

    cfg = RunConfig(
        trace=trace,
        protocol=args.protocol,
        protocol_config=_protocol_config(args),
        noise=NoiseModel(args.noise),
        dist_tolerance=args.tolerance,
        seed=noise_seed,
        backtracking_enabled=args.backtracking,
    )
    result = run(cfg)
    provenance = experiments.run_provenance(cfg, ts, trace.content_hash(), **extra)
    m = result.metrics
    lines = [
        *experiments.header_lines("simulate", provenance),
        "localization_count,mean_error,max_error,accuracy,correction_count",
        f"{m.localization_count},{m.mean_error!r},{m.max_error!r},{m.accuracy!r},{m.correction_count}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    if args.events_out is not None:
        experiments.write_events_csv(args.events_out, provenance, result)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.spec is not None:
        try:
            text = Path(args.spec).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"field 'spec': cannot read {args.spec!r}: {exc}") from exc
        spec = experiments.parse_spec_file(text)
    else:
        spec = _BUNDLES[args.bundle]()

    updates: dict = {}
    if args.repetitions is not None:
        updates["repetitions"] = args.repetitions
    if args.seed_base is not None:
        updates["seed_base"] = args.seed_base
    if args.duration is not None:
        updates["duration"] = args.duration
    if args.pause_times is not None:
        updates["pause_times"] = tuple(
            experiments._parse_number_list(args.pause_times, "pause-times")
        )
    if args.protocols is not None:
        keep = [p.strip() for p in args.protocols.split(",") if p.strip()]
        chosen = tuple(p for p in spec.protocols if p.label in keep)
        missing = set(keep) - {p.label for p in chosen}
        if missing:
            raise ValueError(f"field 'protocols': unknown labels {sorted(missing)}")
        updates["protocols"] = chosen
    if updates:
        spec = dataclasses.replace(spec, **updates)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    events_dir = out_dir if args.events else None
    records = experiments.run_sweep(spec, workers=args.workers, events_dir=events_dir)
    experiments.write_runs_csv(out_dir / "runs.csv", spec, records)
    experiments.write_summary_csv(out_dir / "summary.csv", spec, experiments.summarize(spec, records))
    sys.stdout.write(f"wrote {len(records)} runs to {out_dir}\n")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    lines: list[str]
    if args.turn:
        theta = math.radians(args.theta)
        if args.steps < 2 or args.nmax <= 0:
            raise ValueError("fields 'steps'/'nmax': need steps >= 2 and nmax > 0")
        scenario = oracles.TurnScenario(
            straight_before_turn=args.x,
            turn_angle=theta,
            speed=args.v,
            period=(args.x + args.nmax) / args.v,
        )
        header = {
            "mode": "turn", "theta_deg": args.theta, "x": args.x,
            "v": args.v, "nmax": args.nmax, "steps": args.steps,
        }
        lines = [*experiments.header_lines("oracle", header), "past_turn,sfr_error,madrd_error"]
        for n in np.linspace(0.0, args.nmax, args.steps):
            n = float(n)
            lines.append(
                f"{n!r},{oracles.sfr_turn_error(scenario, n)!r},{oracles.madrd_turn_error(theta, n)!r}"
            )
    else:
        scenario = oracles.PauseScenario(travel_before_stop=args.d, speed=args.v)
        stop_t = args.d / args.v
        horizon = args.horizon if args.horizon is not None else 2.0 * stop_t
        if args.steps < 2 or horizon <= 0:
            raise ValueError("fields 'steps'/'horizon': need steps >= 2 and horizon > 0")
        header = {"mode": "pause", "d": args.d, "v": args.v, "horizon": horizon, "steps": args.steps}
        lines = [*experiments.header_lines("oracle", header), "t,sfr_error,madrd_error"]
        for t in np.linspace(0.0, horizon, args.steps):
            t = float(t)
            e_hold = oracles.sfr_pause_error(scenario, args.v * t)
            e_pred = oracles.madrd_pause_error(scenario, max(0.0, t - stop_t))
            lines.append(f"{t!r},{e_hold!r},{e_pred!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_import_trace(args) -> int:
    area_w, area_h = experiments.parse_area(args.area)
    try:
        text = Path(args.infile).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"field 'in': cannot read {args.infile!r}: {exc}") from exc
    if args.node is not None:
        traces = [import_trace(text, args.dt, area_w, area_h, node_id=args.node, duration=args.duration)]
    else:
        traces = mobility.import_traces(text, args.dt, area_w, area_h, duration=args.duration)
    out = "".join(export_trace(t) for t in traces)
    _emit(out, args.out)
    sys.stderr.write(
        f"imported {len(traces)} node(s), {len(traces[0])} samples each at dt={args.dt:g}\n"
    )
    return EXIT_OK


def _cmd_export_trace(args) -> int:
    _emit(export_trace(experiments.make_trace(_trace_spec(args, _seed(args)))), args.out)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "import-trace": _cmd_import_trace,
    "export-trace": _cmd_export_trace,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, mobility.WaypointParseError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"runtime error: {type(exc).__name__}: {exc}\n")
        return EXIT_RUNTIME


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
