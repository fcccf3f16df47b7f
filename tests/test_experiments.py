from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynloc import cli, experiments, floattext, mobility
from dynloc.engine import RunConfig, run
from dynloc.experiments import (
    EVENT_COLUMNS,
    SUMMARY_COLUMNS,
    ProtocolSpec,
    SweepSpec,
    _atomic_write,
    _run_batch,
    _worker_count,
    check_output,
    class_label,
    default_bundle,
    default_gauss_markov_bundle,
    parse_spec_file,
    read_provenance,
    resolve_protocol_config,
    run_sweep,
    spec_from_dict,
    spec_to_dict,
    summarize,
    write_csv,
    write_events_csv,
    write_runs_csv,
    write_summary_csv,
)
from dynloc.mobility import MOBILITY_MODELS, MobilityTrace, generate_random_waypoint
from dynloc.oracles import FieldError
from dynloc.protocols import DvmConfig, MadrdConfig, SfrConfig

from scenario_tools import read_table, reference_run, trace_spec


def _tiny_spec(**overrides) -> SweepSpec:
    base = dict(
        speed_classes=((0.5, 1.0), (4.0, 5.0)),
        pause_times=(0.0, 30.0),
        protocols=(
            ProtocolSpec("sfr", "sfr", {"period": 2.0}),
            ProtocolSpec("madrd", "madrd", {"t_max": [10.0, 6.0]}),
        ),
        repetitions=2,
        duration=60.0,
        seed_base=77,
    )
    base.update(overrides)
    return SweepSpec(**base)


def _one_class_spec(**overrides) -> SweepSpec:
    base = dict(
        speed_classes=((4.0, 5.0),),
        pause_times=(0.0,),
        protocols=(
            ProtocolSpec("sfr", "sfr", {"period": 2.0}),
            ProtocolSpec("madrd", "madrd", {"t_max": 6.0}),
        ),
        repetitions=1,
        duration=60.0,
        seed_base=77,
    )
    base.update(overrides)
    return SweepSpec(**base)


# ---------------------------------------------------------------------------
# Spec container and parameter resolution
# ---------------------------------------------------------------------------


def test_class_label_format():
    assert class_label((0.5, 1.0)) == "0.5:1"
    assert class_label((8.0, 10.0)) == "8:10"


def test_resolve_scalar_params_apply_to_every_class():
    pspec = ProtocolSpec("sfr", "sfr", {"period": 2.0})
    for ci in range(3):
        cfg = resolve_protocol_config(pspec, ci, 3)
        assert isinstance(cfg, SfrConfig) and cfg.period == 2.0


def test_resolve_list_params_select_by_class_index():
    pspec = ProtocolSpec("madrd", "madrd", {"t_max": [10.0, 6.0, 1.5]})
    caps = [resolve_protocol_config(pspec, ci, 3).t_max for ci in range(3)]
    assert caps == [10.0, 6.0, 1.5]


def test_resolve_rejects_wrong_length_list():
    pspec = ProtocolSpec("dvm", "dvm", {"t_max": [10.0, 6.0]})
    with pytest.raises(ValueError, match="t_max"):
        resolve_protocol_config(pspec, 0, 3)


def test_resolve_rejects_unknown_parameter():
    pspec = ProtocolSpec("sfr", "sfr", {"cadence": 2.0})
    with pytest.raises(ValueError, match="cadence"):
        resolve_protocol_config(pspec, 0, 1)


def test_a_parameter_its_kind_does_not_read_is_named_under_the_label():
    # One check for the sweep and simulate (--protocol sfr --t-max 3), each naming the key as it was written.
    pspec = ProtocolSpec("fast", "sfr", {"period": 2.0, "t_max": 3.0, "cadence": [1.0]})
    with pytest.raises(FieldError) as refused:
        resolve_protocol_config(pspec, 0, 1)
    assert refused.value.fields == ("fast.t_max", "fast.cadence")
    assert refused.value.reason == "not a parameter of the sfr protocol"


def test_spec_validation_messages_name_the_field():
    with pytest.raises(ValueError, match="speed_classes"):
        _tiny_spec(speed_classes=())
    with pytest.raises(ValueError, match="repetitions"):
        _tiny_spec(repetitions=0)
    with pytest.raises(ValueError, match="mobility"):
        _tiny_spec(mobility="teleport")
    with pytest.raises(ValueError, match="speed_classes"):
        _tiny_spec(speed_classes=((5.0, 4.0),))
    with pytest.raises(ValueError, match="area_w"):
        _tiny_spec(area_h=0.0)
    with pytest.raises(ValueError, match="label"):
        _tiny_spec(
            protocols=(
                ProtocolSpec("x", "sfr", {}),
                ProtocolSpec("x", "dvm", {}),
            )
        )


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("pause_times", {"pause_times": (0.0, float("nan"))}),
        ("speed_classes", {"speed_classes": ((4.0, float("inf")),)}),
        ("duration", {"duration": float("inf")}),
        ("dt", {"dt": float("nan")}),
        ("area_w", {"area_w": float("nan")}),
        ("noise_max", {"noise_max": float("nan")}),
        ("dist_tolerance", {"dist_tolerance": float("inf")}),
        ("gm_memory", {"gm_memory": float("nan")}),
    ],
)
def test_spec_rejects_non_finite_fields(field, overrides):
    with pytest.raises(ValueError, match=f"fields? '{field}'(/'area_h')?: must be finite"):
        _tiny_spec(**overrides)


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("pause_times", {"pause_times": (0.0, 0.0)}),
        ("pause_times", {"pause_times": (0.0, -0.0)}),  # one float key, two file names
        ("pause_times", {"pause_times": (1.0000001, 1.0000002)}),  # both "p1" in file names
        ("speed_classes", {"speed_classes": ((4.0, 5.0), (4.0, 5.0))}),
        ("speed_classes", {"speed_classes": ((4.0, 5.0000001), (4.0, 5.0000002))}),  # both "4:5"
    ],
)
def test_spec_rejects_cells_that_would_merge(field, overrides):
    with pytest.raises(ValueError, match=f"field '{field}': .* distinct"):
        _tiny_spec(**overrides)


def test_spec_rejects_bad_protocol_parameters_up_front():
    with pytest.raises(ValueError, match="period_growth"):
        _tiny_spec(protocols=(ProtocolSpec("m", "madrd", {"period_growth": float("nan")}),))
    with pytest.raises(ValueError, match="m.t_max"):
        _tiny_spec(protocols=(ProtocolSpec("m", "madrd", {"t_max": [6.0]}),))


@pytest.mark.parametrize(
    "requested, cells, cpus, expected",
    [(8, 100, 2, 2), (8, 3, 16, 3), (2, 100, 4, 2), (0, 10, 4, 1), (-3, 10, 4, 1), (4, 1, 4, 1), (4, 10, None, 1)],
)
def test_worker_count_is_capped_by_cells_and_cpus(monkeypatch, requested, cells, cpus, expected):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _worker_count(requested, cells) == expected


def test_default_bundle_shape():
    spec = default_bundle()
    assert [class_label(c) for c in spec.speed_classes] == ["0.5:1", "4:5", "8:10"]
    assert spec.pause_times == (0.0, 30.0, 60.0, 120.0, 300.0)
    assert [p.kind for p in spec.protocols] == ["sfr", "dvm", "madrd"]
    assert spec.repetitions == 10
    madrd = spec.protocols[2]
    assert resolve_protocol_config(madrd, 2, 3).t_max < resolve_protocol_config(madrd, 0, 3).t_max


def test_default_gauss_markov_bundle_shape():
    spec = default_gauss_markov_bundle()
    assert spec.mobility == "gauss_markov"
    assert len(spec.speed_classes) == 1 and spec.pause_times == (0.0,)


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------


def test_sweep_emits_one_record_per_cell_rep_protocol():
    spec = _tiny_spec()
    records = run_sweep(spec)
    assert len(records) == 2 * 2 * 2 * 2  # classes * pauses * protocols * reps
    keys = {(r.speed_class, r.pause_time, r.protocol, r.rep) for r in records}
    assert len(keys) == len(records)
    assert {r.speed_class for r in records} == {"0.5:1", "4:5"}


def test_sweep_pairs_protocols_on_identical_traces():
    records = run_sweep(_tiny_spec())
    by_cell_rep: dict[tuple, set[str]] = {}
    for r in records:
        by_cell_rep.setdefault((r.speed_class, r.pause_time, r.rep), set()).add(r.trace_sha)
    for shas in by_cell_rep.values():
        assert len(shas) == 1  # both protocols saw the same ground truth


def test_sweep_reps_use_distinct_traces():
    records = run_sweep(_tiny_spec())
    sfr = [r for r in records if r.protocol == "sfr" and r.speed_class == "4:5" and r.pause_time == 0.0]
    assert sfr[0].trace_sha != sfr[1].trace_sha
    assert sfr[0].noise_seed != sfr[1].noise_seed


def test_sweep_is_reproducible():
    spec = _tiny_spec()
    assert run_sweep(spec) == run_sweep(spec)


def test_sweep_changes_with_seed_base():
    a = run_sweep(_tiny_spec())
    b = run_sweep(_tiny_spec(seed_base=78))
    assert [r.trace_sha for r in a] != [r.trace_sha for r in b]


@pytest.fixture
def pools(monkeypatch) -> list[int]:
    """Let the sweep open a 2-process pool on a one-CPU host too; lists each pool's size."""
    sizes: list[int] = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_sweep_parallel_equals_serial(pools):
    spec = _tiny_spec()
    assert run_sweep(spec, workers=1) == run_sweep(spec, workers=2)
    assert pools == [2]


# Seven cells: one speed class, seven pauses, one repetition, three protocols.
_SEVEN_CELL_SPEC = """
[sweep]
speed_classes = 2:3
pause_times = 0, 5, 10, 20, 40, 80, 160
repetitions = 1
duration = 60
area = 80x80
seed_base = 41

[sfr]
period = 2

[dvm]
t_max = 6

[madrd]
t_max = 6
"""


@pytest.mark.parametrize("events", [False, True], ids=["plain", "events"])
@pytest.mark.parametrize("batches_per_worker", [1, 4])
def test_batched_pool_sweep_writes_the_serial_bytes(tmp_path, monkeypatch, pools, events, batches_per_worker):
    # One batch per worker strides the seven cells as 0, 2, 4, 6 and 1, 3, 5; four per
    # worker cap at seven one-cell batches.
    monkeypatch.setattr(experiments, "_BATCHES_PER_WORKER", batches_per_worker)
    spec_file = tmp_path / "seven.ini"
    spec_file.write_text(_SEVEN_CELL_SPEC)
    outputs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        argv = ["sweep", "--spec", str(spec_file), "--out", str(out), "--workers", workers]
        assert cli.main(argv + ["--events"] * events) == cli.EXIT_OK
        outputs[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert pools == [2]
    assert len(outputs["1"]) == 2 + 21 * events
    assert outputs["2"] == outputs["1"]


def test_sweep_writes_one_events_file_per_run(tmp_path):
    spec = _tiny_spec(repetitions=1)
    events_dir = tmp_path / "events"
    events_dir.mkdir()  # run_sweep writes into a folder that exists
    run_sweep(spec, events_dir=events_dir)
    names = sorted(p.name for p in events_dir.iterdir())
    assert len(names) == 2 * 2 * 2  # classes * pauses * protocols, 1 rep
    assert "events_s0.5-1_p0_sfr_r0.csv" in names
    assert "events_s4-5_p30_madrd_r0.csv" in names


def test_gauss_markov_sweep_runs():
    spec = _tiny_spec(
        mobility="gauss_markov",
        speed_classes=((4.0, 5.0),),
        pause_times=(0.0,),
        repetitions=1,
        protocols=(ProtocolSpec("sfr", "sfr", {"period": 2.0}),),
    )
    records = run_sweep(spec)
    assert len(records) == 1 and records[0].localization_count == 31


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def test_summary_has_one_row_per_cell_protocol():
    spec = _tiny_spec()
    rows = summarize(spec, run_sweep(spec))
    assert len(rows) == 2 * 2 * 2
    sfr_rows = [r for r in rows if r.protocol == "sfr"]
    assert all(r.ratio_to_sfr == 1.0 and r.ratio_std == 0.0 for r in sfr_rows)


def test_summary_ratio_is_paired_mean_over_reps():
    spec = _tiny_spec()
    records = run_sweep(spec)
    by_run = {(r.speed_class, r.pause_time, r.protocol, r.rep): r for r in records}
    rows = summarize(spec, records)
    row = next(r for r in rows if r.protocol == "madrd" and r.speed_class == "4:5" and r.pause_time == 0.0)
    manual = [
        by_run[("4:5", 0.0, "madrd", rep)].localization_count
        / by_run[("4:5", 0.0, "sfr", rep)].localization_count
        for rep in range(spec.repetitions)
    ]
    assert row.ratio_to_sfr == pytest.approx(sum(manual) / len(manual))


def test_summary_ratio_baseline_is_the_first_sfr_kind_protocol():
    spec = _tiny_spec(
        protocols=(
            ProtocolSpec("dvm", "dvm", {"t_max": 6.0}),
            ProtocolSpec("a", "sfr", {"period": 1.0}),
            ProtocolSpec("b", "sfr", {"period": 2.0}),
        )
    )
    records = run_sweep(spec)
    by_run = {(r.speed_class, r.pause_time, r.protocol, r.rep): r for r in records}
    rows = summarize(spec, records)
    assert [r.protocol for r in rows[:3]] == ["dvm", "a", "b"]
    for row in rows:
        manual = [
            by_run[(row.speed_class, row.pause_time, row.protocol, rep)].localization_count
            / by_run[(row.speed_class, row.pause_time, "a", rep)].localization_count
            for rep in range(spec.repetitions)
        ]
        assert row.ratio_to_sfr == pytest.approx(sum(manual) / len(manual))
        if row.protocol == "a":
            assert row.ratio_to_sfr == 1.0 and row.ratio_std == 0.0
        else:
            assert row.ratio_to_sfr != 1.0


def test_summary_without_sfr_leaves_ratios_empty():
    spec = _tiny_spec(protocols=(ProtocolSpec("dvm", "dvm", {"t_max": 6.0}),))
    rows = summarize(spec, run_sweep(spec))
    assert rows and all(r.ratio_to_sfr is None and r.ratio_std is None for r in rows)


def test_summary_single_rep_has_zero_std():
    spec = _one_class_spec()
    rows = summarize(spec, run_sweep(spec))
    assert all(r.localizations_std == 0.0 and r.error_std == 0.0 for r in rows)


# ---------------------------------------------------------------------------
# Serialization round trips
# ---------------------------------------------------------------------------


def test_spec_dict_round_trip():
    spec = _tiny_spec()
    assert spec_from_dict(spec_to_dict(spec)) == spec
    assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec
    for full in (default_bundle(), default_gauss_markov_bundle()):
        assert spec_from_dict(spec_to_dict(full)) == full
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(full)))) == full


def test_spec_from_dict_rejects_unknown_keys():
    d = spec_to_dict(_tiny_spec())
    d["warp_factor"] = 9
    with pytest.raises(ValueError, match="warp_factor"):
        spec_from_dict(d)
    # A value of another JSON type is refused naming its field, not cast.
    wrong = [
        ("repetitions", 2.5),
        ("backtracking_enabled", "false"),
        ("seed_base", True),
        ("repetitions", "x"),
        ("speed_classes", [[1]]),
        # List entries must be JSON numbers too: float() would take "5" and true.
        ("pause_times", ["5"]),
        ("pause_times", [True]),
        ("pause_times", "x"),
        ("speed_classes", [["4", 5]]),
        ("speed_classes", [[True, 5]]),
        ("speed_classes", "x"),
    ]
    for key, value in wrong:
        d = {**spec_to_dict(_tiny_spec()), key: value}
        with pytest.raises(ValueError, match=f"field '{key}'"):
            spec_from_dict(d)
    # A JSON int is a number, so a float field takes it.
    assert spec_from_dict({**spec_to_dict(_tiny_spec()), "duration": 60}).duration == 60.0


_SFR_ENTRY = {"label": "sfr", "kind": "sfr", "params": {"period": 2.0}}


@pytest.mark.parametrize(
    "protocols, field",
    [
        pytest.param([{"label": "dvm", "kind": "dvm", "params": {"target_error": True}}], "dvm.target_error",
                     id="bool_param"),
        pytest.param([{**_SFR_ENTRY, "params": {"period": [2.0, True]}}], "sfr.period", id="bool_in_class_list"),
        pytest.param([{**_SFR_ENTRY, "params": {"period": "2"}}], "sfr.period", id="string_param"),
        pytest.param(["sfr"], "protocols", id="string_entry"),
        pytest.param([{**_SFR_ENTRY, "params": [2.0]}], "protocols", id="params_list"),
        pytest.param([{**_SFR_ENTRY, "weight": 1}], "protocols", id="extra_key"),
        pytest.param({"sfr": _SFR_ENTRY}, "protocols", id="protocols_object"),
        pytest.param([{**_SFR_ENTRY, "kind": "zzz"}], "sfr.kind", id="unknown_kind"),
    ],
)
def test_spec_from_dict_rejects_mistyped_protocols(protocols, field):
    with pytest.raises(ValueError, match=f"field '{field}'"):
        spec_from_dict({**spec_to_dict(_tiny_spec()), "protocols": protocols})


def test_spec_from_dict_rejects_a_config_that_is_not_an_object():
    with pytest.raises(ValueError, match="field 'config'"):
        spec_from_dict([spec_to_dict(_tiny_spec())])


@pytest.mark.parametrize(
    "protocol, pcfg, noise",
    [
        pytest.param("sfr", SfrConfig(0.7), 0.5, id="sfr-pcfg0"),
        pytest.param("madrd", MadrdConfig(t_max=4.0), 0.5, id="madrd-pcfg1"),
        # Without noise the error is exactly 0.0 at each fix, a value the float kernel hands to repr.
        pytest.param("dvm", DvmConfig(), 0.0, id="dvm-zero-noise"),
    ],
)
def test_events_csv_from_columns_matches_row_writer(tmp_path, protocol, pcfg, noise):
    trace = generate_random_waypoint(trace_spec(duration=30.0), np.random.default_rng(3))
    cfg = RunConfig(trace=trace, protocol_config=pcfg, noise_max=noise,
                    seed=8, backtracking_enabled=True)
    config = {"protocol": protocol, "seed": 8}
    write_events_csv(tmp_path / "columns.csv", config, run(cfg))
    events, _, _ = reference_run(cfg)
    write_csv(tmp_path / "rows.csv", "events", config, EVENT_COLUMNS, events)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


# Float values whose text a merge by == would get wrong (-0.0 beside 0.0), or
# that need bit-level care: NaNs of either sign, infinities, subnormals.
_FLOAT_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310]),
)


def _cell_text(col: np.ndarray) -> list[str]:
    """A string column is its own text; every other value prints through repr."""
    return col.tolist() if col.dtype.kind == "U" else list(map(repr, col.tolist()))


def _row_cells(cells: tuple[np.ndarray, np.ndarray]) -> list[bytes]:
    """The cell of every row of :func:`~dynloc.floattext.column_cells`' ``(text, bounds)``, in order."""
    text, bounds = cells
    return text[np.searchsorted(bounds, np.arange(bounds[-1]), "right") - 1].tolist()


def _runs_column(values, dtype) -> st.SearchStrategy[np.ndarray]:
    """Columns made of runs of one value, up to 30 long, as held fixes and pauses make them."""
    runs = st.lists(st.tuples(values, st.integers(1, 30)), min_size=1, max_size=30)
    return runs.map(lambda rs: np.repeat(np.array([v for v, _ in rs], dtype=dtype), [k for _, k in rs]))


@settings(max_examples=300, deadline=None)
@given(
    col=st.one_of(
        _runs_column(_FLOAT_VALUES, np.float64),
        _runs_column(st.integers(0, 1), np.int8),
        _runs_column(st.sampled_from(["", "LC", "S1", "S2", "HC"]), "<U2"),
    ),
)
@example(col=np.array([0.0, 0.0, -0.0, -0.0, 0.0]))
@example(col=np.array([math.nan, math.nan, -math.nan, math.inf, math.inf, -math.inf, 5e-324, 5e-324]))
@example(col=np.arange(50) * 0.1)
@example(col=np.array(["", "", "S1", "S1", "HC"]))
@example(col=np.array(["", ""]))
@example(col=np.array(["LC"]))
def test_column_text_equals_formatting_every_value(col):
    text, bounds = floattext.column_cells(col)
    # One cell per run of equal bits, as wide as the widest cell (at least one byte).
    bits = col.view(np.int64) if col.dtype.kind == "f" else col
    assert bounds.tolist() == [0] + [i + 1 for i in range(col.size) if i + 1 == col.size or bits[i] != bits[i + 1]]
    expected = [cell.encode() for cell in _cell_text(col)]
    assert text.itemsize == max(1, *map(len, expected))
    assert _row_cells((text, bounds)) == expected


@st.composite
def _column_groups(draw) -> list[np.ndarray]:
    """1-3 columns of mixed kinds, each with its own runs, cut to the shortest."""
    kinds = [(_FLOAT_VALUES, np.float64), (st.integers(0, 1), np.int8), (st.sampled_from(["", "LC", "S1"]), "<U2")]
    cols = [draw(_runs_column(*draw(st.sampled_from(kinds)))) for _ in range(draw(st.integers(1, 3)))]
    size = min(col.size for col in cols)
    return [col[:size] for col in cols]


# 100 examples take about 0.8 s, which keeps tier-1 near its ~20 s budget.
@settings(max_examples=100, deadline=None)
@given(cols=_column_groups(), write_rows=st.integers(1, 40))
@example(cols=[np.array([0.0, 0.0, -0.0]), np.array([1, 1, 1], dtype=np.int8), np.array(["", "LC", "LC"])], write_rows=2)
@example(cols=[np.array([math.nan, -math.nan, -math.nan]), np.array([math.inf, math.inf, 5e-324])], write_rows=1)
@example(cols=[np.array(["", ""]), np.array(["", ""])], write_rows=3)
def test_grouped_column_text_equals_formatting_every_value(cols, write_rows):
    # Each column keeps its own runs; the rows join every column's cell and come write_rows to a string.
    reference = [",".join(cells) + "\n" for cells in zip(*map(_cell_text, cols))]
    blocks = list(floattext.csv_blocks([floattext.column_cells(col) for col in cols], write_rows))
    assert [block.count("\n") for block in blocks] == [
        min(write_rows, len(reference) - i) for i in range(0, len(reference), write_rows)
    ]
    assert "".join(blocks) == "".join(reference)


def test_an_empty_column_has_no_runs_and_no_rows():
    text, bounds = floattext.column_cells(np.array([]))
    assert bounds.tolist() == [0] and text.size == 0
    assert list(floattext.csv_blocks([(text, bounds), floattext.column_cells(np.array([], dtype="<U2"))], 256)) == []


_ALL_PROTOCOLS = (
    ProtocolSpec("sfr", "sfr", {"period": 2.0}),
    ProtocolSpec("dvm", "dvm", {"t_max": 6.0}),
    ProtocolSpec("madrd", "madrd", {"t_max": 6.0}),
)


@pytest.mark.parametrize(
    "overrides",
    [
        # Small area and short legs, so the pauses repeat the true position.
        dict(pause_times=(5.0,), area_w=60.0, area_h=60.0, duration=90.0, repetitions=2),
        dict(mobility="gauss_markov", backtracking_enabled=True),
    ],
    ids=["rwp_pause", "gm_backtrack"],
)
def test_sweep_event_logs_equal_the_row_writer(tmp_path, monkeypatch, overrides):
    written = _record_event_writes(monkeypatch)
    events_dir = tmp_path / "events"
    events_dir.mkdir()  # run_sweep writes into a folder that exists
    run_sweep(_one_class_spec(protocols=_ALL_PROTOCOLS, **overrides), workers=1, events_dir=events_dir)
    assert sorted(p for p, _, _ in written) == sorted(events_dir.glob("events_*.csv"))
    if overrides.get("pause_times"):
        assert any(np.any(r.config.trace.xs[1:] == r.config.trace.xs[:-1]) for _, _, r in written)
    for path, config, result in written:
        write_csv(tmp_path / "rows.csv", "events", config, EVENT_COLUMNS, _event_rows(result))
        assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes(), path.name


def _event_rows(result):
    """The rows of a run's event columns, in :data:`EVENT_COLUMNS` order, through the writer's own expansion."""
    return zip(*(col.tolist() for col in experiments.event_columns(result).values()))


def _record_event_writes(monkeypatch) -> list[tuple]:
    """Make the sweep's event writer also record ``(path, config, result)`` of each call."""
    written = []
    writer = experiments.write_events_csv

    def record(path, config, result, *rest):
        written.append((path, config, result))
        writer(path, config, result, *rest)

    monkeypatch.setattr(experiments, "write_events_csv", record)
    return written


def test_batch_over_alternating_grids_writes_each_cell_as_alone(tmp_path, monkeypatch):
    # Pause time -> (duration, dt): the second grid has the first one's length and
    # other values, the third is a prefix of the first.  A stale schedule or t text
    # of an earlier grid would show in the files or the records.
    grids = {0.0: (30.0, 0.1), 5.0: (60.0, 0.2), 10.0: (20.0, 0.1)}
    generate = experiments.generate_random_waypoint

    def on_grid(spec, rng):
        duration, dt = grids[spec.pause_time]
        return generate(dataclasses.replace(spec, duration=duration, dt=dt), rng)

    monkeypatch.setattr(experiments, "generate_random_waypoint", on_grid)
    written = _record_event_writes(monkeypatch)
    spec = _one_class_spec(protocols=_ALL_PROTOCOLS, pause_times=tuple(grids), repetitions=2)
    cells = [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 0), (0, 1, 1), (0, 2, 1)]
    batch_dir, alone_dir = tmp_path / "batch", tmp_path / "alone"
    batch_dir.mkdir()
    alone_dir.mkdir()
    batch = _run_batch(spec, cells, str(batch_dir))
    steps = [(r.config.trace.times.size, r.config.trace.times[-1]) for _, _, r in written[:: len(_ALL_PROTOCOLS)]]
    assert steps == [(301, 30.0), (301, 60.0), (301, 30.0), (201, 20.0), (301, 60.0), (201, 20.0)]
    for path, config, result in written:
        write_csv(tmp_path / "rows.csv", "events", config, EVENT_COLUMNS, _event_rows(result))
        assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes(), path.name
    for cell, records in zip(cells, batch):
        assert _run_batch(spec, [cell], str(alone_dir)) == [records]
    names = sorted(p.name for p in batch_dir.iterdir())
    assert len(names) == len(cells) * len(_ALL_PROTOCOLS)
    assert names == sorted(p.name for p in alone_dir.iterdir())
    for name in names:
        assert (batch_dir / name).read_bytes() == (alone_dir / name).read_bytes(), name


def _trace_cells(trace: MobilityTrace) -> list[tuple[np.ndarray, np.ndarray]]:
    """The cells of ``t,true_x,true_y`` as a sweep cell formats them once for all its runs."""
    return [floattext.column_cells(col) for col in (trace.times, trace.xs, trace.ys)]


@pytest.mark.parametrize("protocol, pcfg", [("sfr", SfrConfig(0.7)), ("madrd", MadrdConfig(t_max=4.0))])
def test_one_row_event_log_equals_the_row_writer(tmp_path, protocol, pcfg):
    trace = MobilityTrace(0, np.array([1.0]), np.array([2.0]), 0.1, 10.0, 10.0)
    result = run(RunConfig(trace=trace, protocol_config=pcfg, seed=4))
    config = {"protocol": protocol}
    write_csv(tmp_path / "rows.csv", "events", config, EVENT_COLUMNS, _event_rows(result))
    write_events_csv(tmp_path / "columns.csv", config, result)
    write_events_csv(tmp_path / "shared.csv", config, result, _trace_cells(trace))
    reference = (tmp_path / "rows.csv").read_bytes()
    assert reference.count(b"\n") == 4  # two header lines, the column names, one row
    assert (tmp_path / "columns.csv").read_bytes() == reference
    assert (tmp_path / "shared.csv").read_bytes() == reference


class _RecordingText(io.StringIO):
    """A text file in memory that records the length of every ``write``."""

    def __init__(self) -> None:
        super().__init__()
        self.sizes: list[int] = []

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        return super().write(text)


def _recorded(monkeypatch, write) -> _RecordingText:
    """What ``write()`` writes to any file or stdout, written into a :class:`_RecordingText` instead."""
    recorder = _RecordingText()

    @contextlib.contextmanager
    def into_recorder(path):
        yield recorder

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_atomic_write", into_recorder)
        write()
    return recorder


def _recorded_event_log(monkeypatch, result) -> _RecordingText:
    """The event log of ``result`` as written into a :class:`_RecordingText`."""
    return _recorded(monkeypatch, lambda: write_events_csv("unused.csv", {}, result))


def test_waypoint_text_is_streamed_not_joined_whole(tmp_path, monkeypatch):
    source = tmp_path / "trace.txt"

    def command(*argv):
        return lambda: cli.main(list(argv))

    exported = _recorded(monkeypatch, command("export-trace", "--duration", "2000"))
    text = exported.getvalue()
    # 20,001 samples on one line of about 1 MB, which would arrive in one write.
    assert text.count("\n") == 1 and text.count(" ") == 3 * 20_001 - 1 and len(text) > 8 * 65536
    source.write_text(text)
    imported = _recorded(monkeypatch, command("import-trace", "--in", str(source)))
    assert imported.getvalue() == text
    for recorder in (exported, imported):
        assert max(recorder.sizes) <= 65536
        assert len(recorder.sizes) == -(-20_001 // mobility._EXPORT_TRIPLES)


def test_event_log_is_streamed_not_joined_whole(tmp_path, monkeypatch):
    trace = generate_random_waypoint(trace_spec(duration=900.0), np.random.default_rng(6))
    result = run(RunConfig(trace=trace, protocol_config=MadrdConfig(), seed=2))
    assert result.error.size == 9001
    assert min(result.reported_x.min(), result.reported_y.min()) < 0  # dead reckoning past the edge
    write_events_csv(tmp_path / "events.csv", {}, result)
    # The row writer formats each cell on its own: the bytes hold across blocks of distinct values.
    write_csv(tmp_path / "rows.csv", "events", {}, EVENT_COLUMNS, _event_rows(result))
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "events.csv").read_bytes()
    recorder = _recorded_event_log(monkeypatch, result)
    text = recorder.getvalue()
    assert text == (tmp_path / "events.csv").read_text() and len(text) > 8 * 65536
    # A whole-file string (about 1 MB here) would arrive in one write, and rows one at a time in 9,001.
    assert max(recorder.sizes) <= 65536
    assert len(recorder.sizes) <= -(-result.error.size // experiments._WRITE_ROWS) + 1


# Rows around one and two assembly blocks of floattext.BLOCK (2048) rows, as well as around one write.
@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1), (8, -1), (8, 0), (8, 1), (16, 1)])
def test_event_log_blocks_hold_the_row_writer_bytes(tmp_path, monkeypatch, blocks, extra):
    rows = blocks * experiments._WRITE_ROWS + extra
    full = generate_random_waypoint(trace_spec(duration=max(60.0, rows * 0.1)), np.random.default_rng(9))
    trace = MobilityTrace(0, full.xs[:rows], full.ys[:rows], full.dt, full.area_w, full.area_h)
    result = run(RunConfig(trace=trace, protocol_config=MadrdConfig(), seed=3))
    assert result.error.size == rows
    write_csv(tmp_path / "rows.csv", "events", {}, EVENT_COLUMNS, _event_rows(result))
    recorder = _recorded_event_log(monkeypatch, result)
    assert recorder.getvalue() == (tmp_path / "rows.csv").read_text()
    assert len(recorder.sizes) == 1 + -(-rows // experiments._WRITE_ROWS)  # the header, then one write per block
    assert max(recorder.sizes) <= 65536


def test_event_log_of_the_widest_rows_fits_a_write(tmp_path, monkeypatch):
    # Every float cell 24 chars wide, as -2.2250738585072014e-308 is: a row is 180 chars, the widest there is.
    rng = np.random.default_rng(12)
    values = -rng.uniform(1.0, 10.0, 20_000) * 10.0 ** -rng.integers(100, 300, 20_000)
    values = values[[len(repr(v)) == 24 for v in values.tolist()]]
    rows = 2 * experiments._WRITE_ROWS + 1
    trace = MobilityTrace(0, np.zeros(rows), np.zeros(rows), 0.1, 10.0, 10.0)
    result = run(RunConfig(trace=trace, protocol_config=MadrdConfig(), seed=3))
    columns = experiments.event_columns(result)
    floats = [name for name, col in columns.items() if col.dtype.kind == "f"]
    assert len(floats) == 7 and values.size >= 7 * rows
    wide = {name: values[k * rows : (k + 1) * rows] for k, name in enumerate(floats)}
    wide["t"][0] = -2.2250738585072014e-308
    monkeypatch.setattr(experiments, "event_columns", lambda _: {**columns, **wide, "confidence": np.full(rows, "LC")})
    write_csv(tmp_path / "rows.csv", "events", {}, EVENT_COLUMNS, _event_rows(result))
    reference = (tmp_path / "rows.csv").read_text()
    assert {len(line) for line in reference.splitlines(keepends=True)[3:]} == {180}
    recorder = _recorded_event_log(monkeypatch, result)
    assert recorder.getvalue() == reference
    assert max(recorder.sizes) == experiments._WRITE_ROWS * 180 <= 65536


def test_trace_text_of_another_length_fails_and_keeps_the_old_file(tmp_path):
    trace = generate_random_waypoint(trace_spec(duration=30.0), np.random.default_rng(4))
    result = run(RunConfig(trace=trace, protocol_config=DvmConfig(), seed=1))
    short = generate_random_waypoint(trace_spec(duration=20.0), np.random.default_rng(4))
    path = tmp_path / "events.csv"
    path.write_text("old\n")
    with pytest.raises(ValueError):
        write_events_csv(path, {}, result, _trace_cells(short))
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["events.csv"]


@pytest.mark.parametrize("name", ["reported_y", "error", "localized", "confidence"])
@pytest.mark.parametrize("shared", [False, True])
def test_event_column_of_another_length_fails_before_any_byte(tmp_path, monkeypatch, name, shared):
    trace = generate_random_waypoint(trace_spec(duration=30.0), np.random.default_rng(4))
    result = run(RunConfig(trace=trace, protocol_config=MadrdConfig(), seed=1))
    columns = experiments.event_columns(result)
    monkeypatch.setattr(experiments, "event_columns", lambda _: {**columns, name: columns[name][:-1]})
    path = tmp_path / "events.csv"
    path.write_text("old\n")
    opened = []
    atomic_write = experiments._atomic_write
    monkeypatch.setattr(experiments, "_atomic_write", lambda target: opened.append(target) or atomic_write(target))
    with pytest.raises(ValueError, match="one length"):
        write_events_csv(path, {}, result, _trace_cells(trace) if shared else None)
    assert opened == []
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["events.csv"]


@pytest.mark.parametrize("label", ["", "a b", "a\\b"])
def test_protocol_label_rejects_unsafe_names(label):
    with pytest.raises(ValueError, match="label"):
        ProtocolSpec(label, "sfr")


@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_leaves_no_partial_or_temp_file(tmp_path, existing):
    path = tmp_path / "events_x.csv"
    if existing:
        path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with _atomic_write(path) as fh:
            fh.write("partial row\n")
            raise RuntimeError("disk gone")
    assert [p.name for p in tmp_path.iterdir()] == (["events_x.csv"] if existing else [])
    if existing:
        assert path.read_text() == "old\n"


def test_write_through_a_symlink_keeps_the_link(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    with _atomic_write(link) as fh:
        fh.write("new\n")
    assert link.is_symlink() and target.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("planted", ["symlink", "directory"])
def test_an_entry_planted_at_the_temp_name_after_the_check_fails_the_write_untouched(tmp_path, planted, existing):
    folder = tmp_path / "out"
    folder.mkdir()
    outside = tmp_path / "outside.csv"
    outside.write_text("keep\n")
    path, temp = folder / "runs.csv", folder / "runs.csv.tmp"
    if existing:
        path.write_text("old\n")
    check_output(path, "out")
    if planted == "symlink":
        temp.symlink_to(outside)
    else:
        temp.mkdir()
    with pytest.raises(FileExistsError):
        with _atomic_write(path) as fh:
            fh.write("new\n")
    assert sorted(p.name for p in folder.iterdir()) == (["runs.csv"] if existing else []) + ["runs.csv.tmp"]
    assert temp.is_symlink() == (planted == "symlink") and temp.is_dir() == (planted == "directory")
    assert outside.read_text() == "keep\n"
    if existing:
        assert path.read_text() == "old\n"


def test_a_stale_temp_file_is_replaced(tmp_path):
    path = tmp_path / "runs.csv"
    (tmp_path / "runs.csv.tmp").write_text("left by a killed write\n")
    check_output(path, "out")
    with _atomic_write(path) as fh:
        fh.write("new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["runs.csv"]
    assert path.read_text() == "new\n"


def test_csv_round_trip_with_provenance(tmp_path):
    spec = _tiny_spec(repetitions=1)
    records = run_sweep(spec)
    rows = summarize(spec, records)
    runs_path = tmp_path / "runs.csv"
    summary_path = tmp_path / "summary.csv"
    write_runs_csv(runs_path, spec, records)
    write_summary_csv(summary_path, spec, rows)

    assert read_provenance(runs_path) == spec_to_dict(spec)
    assert spec_from_dict(read_provenance(summary_path)) == spec
    parsed = read_table(summary_path)
    assert list(parsed[0]) == list(SUMMARY_COLUMNS)
    assert len(parsed) == len(rows)
    first = parsed[0]
    assert first["protocol"] == rows[0].protocol
    assert float(first["mean_localizations"]) == pytest.approx(rows[0].mean_localizations)


def test_missing_ratio_serializes_as_empty_field(tmp_path):
    spec = _tiny_spec(
        repetitions=1,
        speed_classes=((4.0, 5.0),),
        pause_times=(0.0,),
        protocols=(ProtocolSpec("dvm", "dvm", {"t_max": 6.0}),),
    )
    path = tmp_path / "summary.csv"
    write_summary_csv(path, spec, summarize(spec, run_sweep(spec)))
    data_line = [
        line for line in path.read_text().splitlines() if line and not line.startswith("#")
    ][1]
    fields = data_line.split(",")
    assert fields[6] == "" and fields[7] == ""  # ratio columns stay blank
    assert read_table(path)[0]["ratio_to_sfr"] == ""


def test_sweep_regenerated_from_provenance_is_byte_identical(tmp_path):
    spec = _one_class_spec(pause_times=(0.0, 30.0))
    first = tmp_path / "first.csv"
    write_runs_csv(first, spec, run_sweep(spec))

    recovered = spec_from_dict(read_provenance(first))
    second = tmp_path / "second.csv"
    write_runs_csv(second, recovered, run_sweep(recovered))
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# Spec files
# ---------------------------------------------------------------------------

GOOD_SPEC = """
[sweep]
speed_classes = 0.5:1, 4:5
pause_times = 0, 30
repetitions = 3
duration = 120
noise = 0.4
area = 250x200
backtracking = true

[sfr]
period = 2

[madrd]
t_max = 10, 6
divergence_threshold = 5
"""


def test_parse_spec_file_round_trip():
    spec = parse_spec_file(GOOD_SPEC)
    assert spec.speed_classes == ((0.5, 1.0), (4.0, 5.0))
    assert spec.pause_times == (0.0, 30.0)
    assert spec.repetitions == 3
    assert spec.noise_max == 0.4
    assert (spec.area_w, spec.area_h) == (250.0, 200.0)
    assert spec.backtracking_enabled is True
    assert spec.protocols[0] == ProtocolSpec("sfr", "sfr", {"period": 2.0})
    assert spec.protocols[1].params["t_max"] == [10.0, 6.0]
    assert spec.protocols[1].params["divergence_threshold"] == 5.0


def test_parse_spec_file_kind_key_overrides_section_name():
    spec = parse_spec_file(
        "[sweep]\nspeed_classes = 4:5\n\n[baseline]\nkind = sfr\nperiod = 1\n"
    )
    assert spec.protocols[0].label == "baseline"
    assert spec.protocols[0].kind == "sfr"


def test_parse_spec_file_errors_name_the_field():
    with pytest.raises(ValueError, match="speed_classes"):
        parse_spec_file("[sweep]\npause_times = 0\n\n[sfr]\nperiod = 2\n")
    with pytest.raises(ValueError, match="sweep"):
        parse_spec_file("[sfr]\nperiod = 2\n")
    with pytest.raises(ValueError, match="protocol"):
        parse_spec_file("[sweep]\nspeed_classes = 4:5\n")
    with pytest.raises(ValueError, match="madrd.t_max"):
        parse_spec_file(
            "[sweep]\nspeed_classes = 4:5\n\n[madrd]\nt_max = fast\n"
        )
    with pytest.raises(ValueError, match="not parseable"):
        parse_spec_file("speed_classes = 4:5\n[sweep")
    with pytest.raises(ValueError, match="repetitons"):
        parse_spec_file(
            "[sweep]\nspeed_classes = 4:5\nrepetitons = 50\n\n[sfr]\nperiod = 2\n"
        )
    # A field set through another key is not a key itself.
    for key in ("noise_max", "area_w", "backtracking_enabled"):
        with pytest.raises(ValueError, match=f"field '{key}': not a \\[sweep\\] key"):
            parse_spec_file(f"[sweep]\nspeed_classes = 4:5\n{key} = 1\n\n[sfr]\nperiod = 2\n")
    with pytest.raises(ValueError, match="field 'backtracking'"):
        parse_spec_file("[sweep]\nspeed_classes = 4:5\nbacktracking = maybe\n\n[sfr]\nperiod = 2\n")


def test_the_parse_helpers_only_turn_text_into_numbers_and_the_spec_names_its_keys():
    # The rules of a speed class, an area, a pause and the noise bound are TraceSpec's and
    # RunConfig's; a spec file names the key the value came from.
    assert experiments.parse_speed_class("5:-4") == (5.0, -4.0) and experiments.parse_area("0x-1") == (0.0, -1.0)
    for line, key in (("speed_classes = 5:4", "speed_classes"), ("area = 0x300", "area"), ("noise = -1", "noise"),
                      ("pause_times = -1", "pause_times"), ("seed_base = -1", "seed_base")):
        classes = "" if key == "speed_classes" else "speed_classes = 4:5\n"
        with pytest.raises(ValueError, match=f"^field '{key}': "):
            parse_spec_file(f"[sweep]\n{classes}{line}\n\n[sfr]\nperiod = 2\n")


@pytest.mark.parametrize(
    "name, bundle",
    [
        ("rwp_stock.ini", default_bundle),
        (
            "gm_backtrack.ini",
            lambda: dataclasses.replace(default_gauss_markov_bundle(), repetitions=20, backtracking_enabled=True),
        ),
    ],
)
def test_benchmark_spec_files_parse_to_their_bundles(name, bundle):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "specs" / name
    assert parse_spec_file(path.read_text(encoding="utf-8")) == bundle()


_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Valid values of each protocol parameter; any t_min here is <= any t_max.
_PARAMS = {
    "sfr": {"period": _POSITIVE},
    "dvm": {"target_error": _POSITIVE, "t_min": st.floats(1e-3, 1.0), "t_max": st.floats(1.0, 1e3)},
    "madrd": {
        "divergence_threshold": _POSITIVE,
        "t_min": st.floats(1e-3, 1.0),
        "t_max": st.floats(1.0, 1e3),
        "period_growth": st.floats(1.0, 10.0),
        "period_shrink": st.floats(1e-3, 1.0),
    },
}


@st.composite
def _sweep_specs(draw) -> SweepSpec:
    classes = draw(
        st.lists(st.tuples(_POSITIVE, _POSITIVE).map(sorted).map(tuple), min_size=1, max_size=3, unique_by=class_label)
    )
    n = len(classes)
    # Labels as _LABEL_PATTERN allows; with no "s" or "D" none names the [sweep] or [DEFAULT] section.
    labels = st.text("abcXYZ019_.-", min_size=1, max_size=8)
    protocols = []
    for label in draw(st.lists(labels, min_size=1, max_size=3, unique=True)):
        kind = draw(st.sampled_from(sorted(_PARAMS)))
        # A one-entry list is written as one value, which reads back as a number.
        optional = {
            k: st.one_of(v, st.lists(v, min_size=n, max_size=n)) if n > 1 else v for k, v in _PARAMS[kind].items()
        }
        protocols.append(ProtocolSpec(label, kind, draw(st.fixed_dictionaries({}, optional=optional))))
    # abs() keeps -0.0 out: it would equal a drawn 0.0 but print apart from it with %g.
    pauses = draw(st.lists(st.floats(0.0, 1e3).map(abs), min_size=1, max_size=3, unique_by="{:g}".format))
    mobility = draw(st.sampled_from(MOBILITY_MODELS))
    # Only a Gauss-Markov trace reads the gm_* fields, so only there must they be in range.
    gauss_markov = mobility == "gauss_markov"
    fields = draw(st.fixed_dictionaries({
        "repetitions": st.integers(1, 100),
        "duration": _POSITIVE,
        "dt": _POSITIVE,
        "area_w": _POSITIVE,
        "area_h": _POSITIVE,
        "noise_max": st.floats(0.0, 1e3),
        "dist_tolerance": st.floats(0.0, 1e3),
        "seed_base": st.integers(0, 2**63),
        "gm_memory": st.floats(0.0, 1.0) if gauss_markov else _FINITE,
        "gm_speed_sigma": st.floats(0.0, 1e3) if gauss_markov else _FINITE,
        "gm_direction_sigma": st.floats(0.0, 1e3) if gauss_markov else _FINITE,
        "backtracking_enabled": st.booleans(),
    }))
    try:
        return SweepSpec(tuple(classes), tuple(pauses), tuple(protocols), **fields, mobility=mobility)
    except FieldError as exc:
        # A random-waypoint cell whose legs of the area's longer side at the top speed outnumber
        # MAX_GRID_STEPS is refused with the spec (a 1e-3 m area at 1e3 m/s with no pause is one).
        assume(exc.fields != ("speed_classes", "area_w", "area_h"))
        raise


def _ini_value(value) -> str:
    if isinstance(value, list | tuple):
        return ", ".join(map(_ini_value, value))
    return repr(value) if isinstance(value, float) else str(value)


def _spec_ini(spec: SweepSpec) -> str:
    """``spec`` as spec-file text, every float as its ``repr``."""
    keys = {"noise_max": "noise", "backtracking_enabled": "backtracking"}
    lines = [
        "[sweep]",
        "speed_classes = " + ", ".join(f"{lo!r}:{hi!r}" for lo, hi in spec.speed_classes),
        f"area = {spec.area_w!r}x{spec.area_h!r}",
    ]
    for f in dataclasses.fields(spec):
        if f.name not in ("speed_classes", "protocols", "area_w", "area_h"):
            lines.append(f"{keys.get(f.name, f.name)} = {_ini_value(getattr(spec, f.name))}")
    for p in spec.protocols:
        lines += [f"[{p.label}]", f"kind = {p.kind}", *(f"{k} = {_ini_value(v)}" for k, v in p.params.items())]
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None)
@given(_sweep_specs())
def test_spec_file_and_config_dict_read_to_the_same_spec(spec):
    assert parse_spec_file(_spec_ini(spec)) == spec
    assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec


def test_parsed_spec_runs():
    spec = parse_spec_file(
        "[sweep]\nspeed_classes = 4:5\nrepetitions = 1\nduration = 30\n\n[sfr]\nperiod = 2\n"
    )
    records = run_sweep(spec)
    assert len(records) == 1 and records[0].localization_count == 16
