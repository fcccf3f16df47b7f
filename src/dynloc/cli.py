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

Exit codes: 0 success, 1 usage error (a malformed numeric flag among them), 2 validation error,
3 runtime failure, 130 interrupted (Ctrl-C, which prints ``interrupted``).  Closing an output pipe
early (``dynloc export-trace | head``) exits 0, silently.

A validation error names the field its value fails, followed by the flag that set it
where the two differ: ``field 'noise_max' (--noise): must be finite and >= 0``.  The fields
are the ``.fields`` of the :class:`~dynloc.oracles.FieldError` a check raises.  Each flag's
dest is the field it sets, so the parser is the one map from field to flag; it also gives
the flags whose value may begin with "-" (``--noise -1e-3``, ``--area -1x300``).  A flag the
command would not read (``simulate --protocol sfr --t-max 3``, ``--node`` without
``--trace-file``, a generator flag such as ``--speed`` with it, ``sweep --bundle`` with
``--spec``) is a validation error too, and so are a waypoint file with no waypoint line, named
by its flag (``in``, ``trace-file``), and a table of more ``oracle --steps`` than a trace's
grid may have.  Every output path is checked before anything runs, a sweep's by
:func:`~dynloc.experiments.staged`, every other by :func:`~dynloc.experiments.check_output`.  A file reaches its name by one rename: from a fresh ``.<name>.*.tmp`` beside
it, or for a sweep from a fresh ``.dynloc-partial-*`` folder inside ``--out`` once both tables are
written, so a command that fails leaves its outputs as they were.  A path that is stdout's own file
(``/dev/stdout``, or the file stdout is redirected to) is written through stdout instead, but for a
sweep, whose rename replaces that file.  A process killed outright (SIGKILL) may leave the temp file
or the stage behind, to be deleted by hand.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments, mobility, oracles
from .engine import RunConfig, run
from .oracles import FieldError, number
from .protocols import PROTOCOLS, ProtocolConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_INTERRUPTED = 130  # a shell's 128 + SIGINT


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns the exit code.

    Every parser, each sub-parser included, takes its flags as written only:
    an abbreviation (``--dur``) is an unknown flag, not a second spelling.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def value_flags(self, command: str) -> dict[str, str]:
        """The flags of ``command`` that take a value, by dest: ``{"noise_max": "--noise", ...}``."""
        sub = self.commands.get(command)
        return {a.dest: a.option_strings[0] for a in sub._actions if a.option_strings and a.nargs != 0} if sub else {}


# The stock run is SweepSpec's: its field defaults are the flags' defaults.
_STOCK = {f.name: f.default for f in dataclasses.fields(experiments.SweepSpec)}

# The trace flags only a generator reads, by dest, each with the value it takes when left out.  Their
# parser default is None, so that simulate can refuse one given with --trace-file.
_GENERATOR_DEFAULTS = {
    "mobility": _STOCK["mobility"], "speed_class": "4:5", "pause_time": 0.0,
    **{name: _STOCK[name] for name in mobility.GAUSS_MARKOV_FIELDS},
}

# Stock sweep bundles by name; each names the mobility model it runs.
_BUNDLES = {"rwp": experiments.default_bundle, "gauss_markov": experiments.default_gauss_markov_bundle}


def _choices(keys) -> str:
    """The metavar ``choices=keys`` would show.  A flag with a fixed set of values keeps that help, but
    the value's owner refuses any other value, naming its field (exit 2), not argparse (exit 1)."""
    return "{" + ",".join(keys) + "}"


def _lookup(table: dict, key: str, field: str):
    """``table[key]``; a key not in it is an error naming ``field``."""
    if key not in table:
        raise FieldError(field, f"must be {'/'.join(table)}, got {key!r}")
    return table[key]


def _build_parser() -> _Parser:
    def integer(text: str) -> int:  # argparse names a value it refuses by the type's name: "invalid integer value"
        return number(text, int)

    parser = _Parser(prog="dynloc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    # Trace flags shared by simulate and export-trace; dests equal TraceSpec field names.
    stock_area = f"{_STOCK['area_w']!r}x{_STOCK['area_h']!r}"
    trace = _Parser(add_help=False)
    trace.add_argument("--mobility", metavar=_choices(mobility.MOBILITY_MODELS))
    trace.add_argument("--speed", dest="speed_class", type=str, help="speed class lo:hi, m/s")
    trace.add_argument("--pause", dest="pause_time", metavar="PAUSE", type=number, help="waypoint pause time, seconds")
    for name in mobility.GAUSS_MARKOV_FIELDS:
        trace.add_argument("--" + name.replace("_", "-"), type=number)
    for name in ("duration", "dt"):
        trace.add_argument("--" + name, type=number, default=_STOCK[name])
    trace.add_argument("--area", type=str, default=stock_area)
    trace.add_argument("--seed", type=integer, default=0)

    # Protocol flags: one per config field in PROTOCOLS, shared by the kinds that have it.  A flag
    # not given is None, and the config keeps its own default for it; a flag given that --protocol
    # does not read is refused (_protocol_config).
    sim = sub.add_parser("simulate", parents=[trace], help="run one node/protocol pair and print a summary row")
    sim.add_argument("--protocol", required=True, metavar=_choices(PROTOCOLS))
    readers: dict[str, list[str]] = {}
    for kind, entry in PROTOCOLS.items():
        for f in dataclasses.fields(entry.config):
            readers.setdefault(f.name, []).append(kind)
    for name, kinds in readers.items():
        sim.add_argument("--" + name.replace("_", "-"), type=number, help=f"{'/'.join(kinds)} parameter")
    sim.add_argument("--noise", dest="noise_max", type=number, default=_STOCK["noise_max"])
    sim.add_argument("--tolerance", dest="dist_tolerance", type=number, default=_STOCK["dist_tolerance"])
    sim.add_argument("--backtracking", dest="backtracking_enabled", action="store_true")
    sim.add_argument("--trace-file", type=str, default=None, help="waypoint text file instead of a generator")
    sim.add_argument("--node", type=integer, default=None, help="node line to use from --trace-file (default: 0)")
    sim.add_argument("--events-out", type=str, default=None, help="write the per-step event log CSV here")
    sim.add_argument("--out", type=str, default=None, help="write the summary row CSV here instead of stdout")

    sw = sub.add_parser("sweep", help="run an experiment sweep and write runs/summary CSVs")
    sw.add_argument("--spec", type=str, default=None, help="spec file; omitted = stock bundle")
    sw.add_argument("--bundle", metavar=_choices(_BUNDLES), help="stock bundle, without --spec (default: rwp)")
    sw.add_argument("--out", type=str, required=True, help="output directory")
    sw.add_argument("--repetitions", type=integer, default=None)
    sw.add_argument("--seed-base", type=integer, default=None)
    sw.add_argument("--duration", type=number, default=None)
    sw.add_argument("--pause-times", dest="pause_times", type=str, default=None, help="comma list, overrides spec")
    sw.add_argument("--protocols", type=str, default=None, help="comma list of labels to keep")
    sw.add_argument("--workers", type=integer, default=1, help="worker processes, >= 1")
    sw.add_argument("--events", action="store_true", help="also write per-run event logs")

    orc = sub.add_parser("oracle", help="print closed-form error tables for a turn or pause maneuver")
    mode = orc.add_mutually_exclusive_group(required=True)
    mode.add_argument("--turn", action="store_true")
    mode.add_argument("--pause", action="store_true")
    orc.add_argument("--theta", type=number, default=90.0, help="turn angle, degrees")
    orc.add_argument("--x", type=number, default=3.0, help="straight distance before the turn, meters")
    orc.add_argument("--nmax", type=number, default=10.0, help="max distance past the turn, meters")
    orc.add_argument("--steps", type=integer, default=21, help="table rows")
    orc.add_argument("--d", type=number, default=5.0, help="distance before the stop, meters")
    orc.add_argument("--v", type=number, default=1.0, help="speed, m/s")
    orc.add_argument("--horizon", type=number, default=None, help="pause table end time, seconds")
    orc.add_argument("--out", type=str, default=None)

    imp = sub.add_parser("import-trace", help="validate waypoint text and resample it onto the dt grid")
    imp.add_argument("--in", dest="infile", required=True)
    imp.add_argument("--dt", type=number, default=_STOCK["dt"])
    imp.add_argument("--area", type=str, default=stock_area)
    imp.add_argument("--duration", type=number, default=None)
    imp.add_argument("--node", type=integer, default=None, help="single node line to keep (default: all)")
    imp.add_argument("--out", type=str, default=None)

    exp = sub.add_parser("export-trace", parents=[trace], help="generate a trace and write it as waypoint text")
    exp.add_argument("--out", type=str, default=None)
    return parser


def _read_text(path: str, field: str) -> str:
    """The text of the file at ``path``; one that cannot be read is an error naming ``field``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FieldError(field, f"cannot read {path!r}: {exc}") from exc


def _protocol_config(args) -> ProtocolConfig:
    """The config of ``--protocol`` with the protocol flags given; a flag of another kind's field is an error."""
    given = {f.name: getattr(args, f.name) for kind in PROTOCOLS.values() for f in dataclasses.fields(kind.config)
             if getattr(args, f.name) is not None}
    return _lookup(PROTOCOLS, args.protocol, "protocol").configure(args.protocol, given)


def _trace_spec(args) -> mobility.TraceSpec:
    """The trace the shared trace flags describe, ``--seed`` included; a generator flag left out takes its default."""
    generator = {name: default if getattr(args, name) is None else getattr(args, name)
                 for name, default in _GENERATOR_DEFAULTS.items()}
    area_w, area_h = experiments.parse_area(args.area)
    speed_class = experiments.parse_speed_class(generator.pop("speed_class"), "speed")
    return mobility.TraceSpec.of(args, **generator, speed_class=speed_class, area_w=area_w, area_h=area_h)


def _cmd_simulate(args) -> int:
    experiments.check_output(args.out, "out")
    experiments.check_output(args.events_out, "events-out", beside=("out", args.out))
    if args.trace_file is None:
        ts = _trace_spec(args)  # checks --seed before a seed sequence sees it
    else:  # no generator spec: import_trace checks a file run's duration, dt and area
        ts = None
        unread = tuple(name for name in _GENERATOR_DEFAULTS if getattr(args, name) is not None)
        if unread:
            raise FieldError(unread, "not read with --trace-file, which replaces the generated trace")
        if args.seed < 0:
            raise FieldError("seed", f"must be >= 0, got {args.seed}")
    protocol_config = _protocol_config(args)  # before the trace is made or read
    if args.node is not None and args.trace_file is None:
        raise FieldError("node", f"selects a line of --trace-file, which is not given, got {args.node}")
    trace_seed, noise_seed = experiments.run_seeds(args.seed)
    extra = {"protocol": args.protocol, "seed": args.seed}
    if ts is None:
        text = _read_text(args.trace_file, "trace-file")
        node = args.node or 0
        area_w, area_h = experiments.parse_area(args.area)
        with experiments.renaming({"text": "trace-file"}):
            trace = mobility.import_trace(text, args.dt, area_w, area_h, node_id=node, duration=args.duration)
        extra.update(mobility=f"file:{args.trace_file}", node=node, duration=args.duration)
    else:
        ts = dataclasses.replace(ts, seed=trace_seed)
        trace = experiments.make_trace(ts)

    cfg = RunConfig.of(args, trace=trace, protocol_config=protocol_config, seed=noise_seed)
    result = run(cfg)
    provenance = experiments.run_provenance(cfg, ts, trace.content_hash(), **extra)
    metrics = dataclasses.asdict(result.metrics)
    experiments.write_csv(args.out, "simulate", provenance, list(metrics), [metrics.values()])
    if args.events_out is not None:
        experiments.write_events_csv(args.events_out, provenance, result)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        raise FieldError("workers", f"must be >= 1, got {args.workers}")
    if args.spec is not None:
        if args.bundle is not None:
            raise FieldError("bundle", "not read with --spec, whose file is the sweep")
        text = _read_text(args.spec, "spec")
        try:
            spec = experiments.parse_spec_file(text)
        except ValueError as exc:  # names the file's keys, not the flags given with it
            raise ValueError(f"spec file {args.spec!r}: {exc}") from exc
    else:
        spec = _lookup(_BUNDLES, args.bundle or "rwp", "bundle")()

    # Each flag given overrides the spec field it is named after.
    updates = {n: v for n in ("repetitions", "seed_base", "duration") if (v := getattr(args, n)) is not None}
    if args.pause_times is not None:
        updates["pause_times"] = tuple(experiments.parse_number_list(args.pause_times, "pause_times"))
    if args.protocols is not None:
        keep = [p.strip() for p in args.protocols.split(",") if p.strip()]
        chosen = tuple(p for p in spec.protocols if p.label in keep)
        missing = set(keep) - {p.label for p in chosen}
        if missing:
            raise FieldError("protocols", f"unknown labels {sorted(missing)}")
        updates["protocols"] = chosen
    out_dir = Path(args.out)
    with experiments.renaming(experiments.FIELD_SPEC_KEYS if args.spec is not None else {}):
        if updates:
            spec = dataclasses.replace(spec, **updates)
        names = ["runs.csv", "summary.csv", *(experiments.events_filenames(spec) if args.events else ())]
        with experiments.staged(out_dir, names) as stage:
            records = experiments.run_sweep(spec, workers=args.workers, events_dir=stage if args.events else None)
            experiments.write_runs_csv(stage / "runs.csv", spec, records)
            experiments.write_summary_csv(stage / "summary.csv", spec, experiments.summarize(spec, records))
    sys.stdout.write(f"wrote {len(records)} runs to {out_dir}\n")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    experiments.check_output(args.out, "out")
    oracles.require_positive(args.v, "v")
    if not 2 <= args.steps <= mobility.MAX_GRID_STEPS:  # no table longer than the longest run's grid
        raise FieldError("steps", f"need 2 <= steps <= {mobility.MAX_GRID_STEPS}, got {args.steps}")
    if args.turn:
        oracles.require_angle(args.theta, "theta")
        oracles.require_nonnegative(args.x, "x")
        oracles.require_positive(args.nmax, "nmax")
        theta = math.radians(args.theta)
        # The turn errors do not read the speed; the header records it all the same.
        header = {
            "mode": "turn", "theta_deg": args.theta, "x": args.x,
            "v": args.v, "nmax": args.nmax, "steps": args.steps,
        }
        columns = ("past_turn", "sfr_error", "madrd_error")
        try:
            rows = [
                (n, oracles.sfr_turn_error(args.x, theta, n), oracles.madrd_turn_error(theta, n))
                for n in np.linspace(0.0, args.nmax, args.steps).tolist()
            ]
            finite = all(math.isfinite(cell) for row in rows for cell in row)
        except OverflowError:  # (x - n) ** 2 past the largest float
            finite = False
        if not finite:
            raise FieldError(("x", "nmax"), f"the error table overflows a float at x={args.x}, nmax={args.nmax}")
    else:
        oracles.require_nonnegative(args.d, "d")
        stop_t = args.d / args.v
        horizon = args.horizon if args.horizon is not None else 2.0 * stop_t
        if not (math.isfinite(horizon) and horizon > 0):
            default = "" if args.horizon is not None else " (the default 2 * d / v)"
            raise FieldError("horizon", f"need a finite horizon > 0, got {horizon}{default}")
        # Every error in the table is at most the travel v * horizon.
        if not math.isfinite(args.v * horizon):
            raise FieldError(("v", "horizon"), f"the travel v * horizon = {args.v} * {horizon} overflows a float")
        header = {"mode": "pause", "d": args.d, "v": args.v, "horizon": horizon, "steps": args.steps}
        columns = ("t", "sfr_error", "madrd_error")
        rows = [
            (t, oracles.sfr_pause_error(args.d, args.v * t), oracles.madrd_pause_error(args.v, max(0.0, t - stop_t)))
            for t in np.linspace(0.0, horizon, args.steps).tolist()
        ]
    experiments.write_csv(args.out, "oracle", header, columns, rows)
    return EXIT_OK


def _cmd_import_trace(args) -> int:
    experiments.check_output(args.out, "out")
    area_w, area_h = experiments.parse_area(args.area)
    text = _read_text(args.infile, "in")
    with experiments.renaming({"text": "in"}):
        if args.node is not None:
            traces = [mobility.import_trace(text, args.dt, area_w, area_h, node_id=args.node, duration=args.duration)]
        else:
            traces = mobility.import_traces(text, args.dt, area_w, area_h, duration=args.duration)
    experiments.write_waypoints(args.out, traces)
    lo, hi = min(map(len, traces)), max(map(len, traces))
    samples = f"{lo} samples each" if lo == hi else f"{lo}-{hi} samples"
    sys.stderr.write(f"imported {len(traces)} node(s), {samples} at dt={args.dt:g}\n")
    return EXIT_OK


def _cmd_export_trace(args) -> int:
    experiments.check_output(args.out, "out")
    experiments.write_waypoints(args.out, [experiments.make_trace(_trace_spec(args))])
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "import-trace": _cmd_import_trace,
    "export-trace": _cmd_export_trace,
}


def _attach_dash_values(argv: list[str], flags) -> list[str]:
    """``argv`` with ``--area -1x300`` written as ``--area=-1x300`` for each of ``flags``: argparse
    would take a value that begins with "-" (``-1e-3``, ``-inf``) for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in flags and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _with_flags(exc: ValueError, flags: dict[str, str]) -> str:
    """``exc``'s message, with the flags that set a :class:`FieldError`'s fields after them, where named otherwise."""
    names = exc.fields if isinstance(exc, FieldError) else ()
    given = dict.fromkeys(flags[name] for name in names if flags.get(name, "--" + name) != "--" + name)
    return f"{exc.named} ({'/'.join(given)}): {exc.reason}" if given else str(exc)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    flags = parser.value_flags(argv[0] if argv else "")
    try:
        args = parser.parse_args(_attach_dash_values(argv, flags.values()))
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader gone from stdout shows here, not in the flush at exit
        return code
    except KeyboardInterrupt:
        sys.stderr.write("interrupted\n")
        return EXIT_INTERRUPTED
    except BrokenPipeError:  # the reader of an output pipe left early, with all it wanted
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the flush at exit cannot fail again
        os.close(devnull)
        return EXIT_OK
    except ValueError as exc:
        # A flag left out (None) leaves its field to a spec file or a config default, but a generator
        # flag's field to the flag's own default.
        given = {name: flag for name, flag in flags.items()
                 if getattr(args, name) is not None or name in _GENERATOR_DEFAULTS}
        if "area" in given:  # --area sets TraceSpec's and MobilityTrace's area_w and area_h
            given["area_w"] = given["area_h"] = given["area"]
        sys.stderr.write(f"validation error: {_with_flags(exc, given)}\n")
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"runtime error: {type(exc).__name__}: {exc}\n")
        return EXIT_RUNTIME


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
