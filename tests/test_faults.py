"""Fault-injection subsystem: model validation, seed-stable + nested masks,
drift direction, redundancy remap, read-out saturation (including the
saturation=1 no-op), resident-vs-streamed bit-identity,
per-trial decorrelation and the ideal-mode no-op."""

import numpy as np
import pytest

from repro.context import ArchSpec, SimContext
from repro.engine import NetworkExecutor, program
from repro.engine.state import ProgrammedState
from repro.faults import FaultModel, FaultReport, apply_tile_faults
from repro.nn.models import build_model

STUCK = FaultModel(stuck_on_fraction=0.01, stuck_off_fraction=0.01, seed=0)


def _cell():
    return ArchSpec().cell_spec()


def _slices(shape=(32, 16), n=2, seed=0):
    cell = _cell()
    rng = np.random.default_rng(seed)
    return [
        rng.uniform(cell.g_min_s, cell.g_max_s, size=shape).astype(np.float64)
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# FaultModel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"stuck_on_fraction": -0.1},
        {"stuck_off_fraction": 1.5},
        {"stuck_on_fraction": 0.7, "stuck_off_fraction": 0.7},
        {"stuck_on_fraction": float("nan")},
        {"drift_nu": -1.0},
        {"drift_time_s": -1.0},
        {"drift_t0_s": 0.0},
        {"readout_saturation": 0.0},
        {"readout_saturation": 1.5},
        {"remap_threshold": -0.1},
        {"drift_t0_s": float("nan")},
    ],
)
def test_fault_model_rejects_bad_configuration(kwargs):
    with pytest.raises(ValueError):
        FaultModel(**kwargs)


def test_fault_model_activity_switches():
    assert not FaultModel().active
    assert FaultModel(stuck_on_fraction=0.01).cell_active
    assert FaultModel(drift_nu=0.1, drift_time_s=100.0).cell_active
    # drift needs both a non-zero exponent and elapsed time
    assert not FaultModel(drift_nu=0.1).cell_active
    sat = FaultModel(readout_saturation=0.9)
    assert sat.active and not sat.cell_active


def test_drift_factor_decays_with_time():
    model = FaultModel(drift_nu=0.1, drift_time_s=1e5)
    assert 0.0 < model.drift_factor() < 1.0
    sooner = FaultModel(drift_nu=0.1, drift_time_s=1e3)
    assert model.drift_factor() < sooner.drift_factor() < 1.0
    assert FaultModel().drift_factor() == 1.0


def test_for_trial_derives_distinct_reproducible_seeds():
    a, b = STUCK.for_trial(0), STUCK.for_trial(1)
    assert a.seed != b.seed
    assert a == STUCK.for_trial(0)


# ---------------------------------------------------------------------------
# apply_tile_faults
# ---------------------------------------------------------------------------

def test_masks_are_seed_stable_across_calls():
    first, second = _slices(), _slices()
    ra = apply_tile_faults(first, _cell(), STUCK, 0, ("t", 0))
    rb = apply_tile_faults(second, _cell(), STUCK, 0, ("t", 0))
    assert ra == rb
    for x, y in zip(first, second):
        np.testing.assert_array_equal(x, y)
    # a different salt picks different cells
    other = _slices()
    apply_tile_faults(other, _cell(), STUCK, 0, ("t", 1))
    assert any(not np.array_equal(x, y) for x, y in zip(first, other))


def test_masks_nest_across_severities():
    """Every cell stuck at a low fraction is also stuck at a higher one."""
    cell = _cell()
    mild_arrays, severe_arrays = _slices(), _slices()
    mild = FaultModel(stuck_on_fraction=0.01, stuck_off_fraction=0.01)
    severe = FaultModel(stuck_on_fraction=0.05, stuck_off_fraction=0.05)
    apply_tile_faults(mild_arrays, cell, mild, 0, ("t",))
    apply_tile_faults(severe_arrays, cell, severe, 0, ("t",))
    clean = _slices()
    for m, s, c in zip(mild_arrays, severe_arrays, clean):
        changed_mild = m != c
        changed_severe = s != c
        assert np.all(changed_severe[changed_mild])


def test_stuck_cells_pin_to_rail_conductances():
    cell = _cell()
    arrays = _slices()
    # shift the payload strictly inside the rails so pinned cells stand out
    for a in arrays:
        np.clip(a, cell.g_min_s * 1.01, cell.g_max_s * 0.99, out=a)
    report = apply_tile_faults(arrays, cell, STUCK, 0, ("t",))
    pinned = sum(
        int(np.sum((a == cell.g_max_s) | (a == cell.g_min_s))) for a in arrays
    )
    assert pinned == report.stuck_cells > 0
    assert report.cells == sum(a.size for a in arrays)
    assert report.remapped_rows == report.healed_cells == 0


def test_remap_heals_the_worst_rows():
    cell = _cell()
    arrays = _slices()
    clean = _slices()
    faults = FaultModel(
        stuck_on_fraction=0.02, stuck_off_fraction=0.02, remap_threshold=0.0
    )
    report = apply_tile_faults(arrays, cell, faults, 4, ("t",))
    assert report.remapped_rows == 4
    assert report.healed_cells > 0
    # remapped rows keep their programmed (unpinned) values
    unpinned = apply_tile_faults(clean, cell, faults, 0, ("t",))
    assert unpinned.stuck_cells == report.stuck_cells + report.healed_cells
    # below-threshold tiles never engage their spares
    spared = _slices()
    lenient = FaultModel(
        stuck_on_fraction=0.02, stuck_off_fraction=0.02, remap_threshold=0.5
    )
    assert apply_tile_faults(spared, cell, lenient, 4, ("t",)).remapped_rows == 0


def test_fault_report_merges_counts():
    merged = FaultReport(cells=10, stuck_cells=2, remapped_rows=1, healed_cells=3)
    merged.merge(FaultReport(cells=5, stuck_cells=1))
    assert merged == FaultReport(
        cells=15, stuck_cells=3, remapped_rows=1, healed_cells=3
    )
    assert merged.stuck_fraction == 3 / 15
    assert FaultReport().stuck_fraction == 0.0


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------

def _run(model="tiny_cnn", ctx=None, mode="analog"):
    network = build_model(model)
    ctx = ctx or SimContext()
    executor = NetworkExecutor(network, ctx, mode=mode)
    return executor.run()


def test_faults_degrade_accuracy_and_are_reported():
    clean = _run(ctx=SimContext())
    faulted = _run(ctx=SimContext(faults=STUCK))
    assert faulted.rel_error > clean.rel_error
    assert faulted.stuck_cells > 0
    assert clean.stuck_cells == clean.remapped_rows == 0
    assert sum(t.stuck_cells for t in faulted.traces) == faulted.stuck_cells


def test_faulted_run_is_bit_identical_across_executors():
    ctx = SimContext(faults=STUCK)
    a, b = _run(ctx=ctx), _run(ctx=ctx)
    assert a.rel_error == b.rel_error
    assert a.stuck_cells == b.stuck_cells


def test_remap_recovers_part_of_the_fault_error():
    faults = FaultModel(
        stuck_on_fraction=0.01, stuck_off_fraction=0.01, remap_threshold=0.0
    )
    faulted = _run(ctx=SimContext(faults=faults))
    remapped = _run(ctx=SimContext(arch=ArchSpec(spare_rows=16), faults=faults))
    assert remapped.remapped_rows > 0
    assert remapped.stuck_cells < faulted.stuck_cells
    assert remapped.rel_error < faulted.rel_error


def test_saturation_one_is_a_bit_exact_noop():
    clean = _run()
    saturated = _run(ctx=SimContext(faults=FaultModel(readout_saturation=1.0)))
    assert saturated.rel_error == clean.rel_error


def test_saturation_clipping_degrades_accuracy():
    clean = _run()
    saturated = _run(ctx=SimContext(faults=FaultModel(readout_saturation=0.05)))
    assert saturated.rel_error > clean.rel_error
    assert saturated.stuck_cells == 0  # saturation corrupts read-out, not cells


def test_ideal_mode_ignores_faults():
    clean = _run(mode="ideal")
    faulted = _run(mode="ideal", ctx=SimContext(faults=STUCK))
    assert faulted.rel_error == clean.rel_error
    assert faulted.stuck_cells == 0


def test_drift_alone_degrades_accuracy():
    drifted = _run(
        ctx=SimContext(faults=FaultModel(drift_nu=0.1, drift_time_s=1e6))
    )
    assert drifted.rel_error > _run().rel_error
    assert drifted.stuck_cells == 0  # drift shifts cells, none are pinned


def test_fault_seeds_decorrelate_realisations():
    a = _run(ctx=SimContext(faults=STUCK))
    b = _run(ctx=SimContext(faults=STUCK.for_trial(1)))
    assert a.rel_error != b.rel_error


def test_programmed_state_stays_fault_free(tmp_path):
    """Faults are wiring-time: the cached artifact serves faulty and clean
    executors alike, and a faulty run does not poison a later clean one."""
    network = build_model("tiny_cnn")
    ctx = SimContext()
    state = program(network, ctx, "analog")
    before = [[c.copy() for c in layer.conductances] for layer in state.layers]
    faulted = NetworkExecutor(
        network, SimContext(faults=STUCK), mode="analog", state=state
    ).run()
    assert faulted.stuck_cells > 0
    for layer, saved in zip(state.layers, before):
        for conductances, copy in zip(layer.conductances, saved):
            np.testing.assert_array_equal(conductances, copy)
    clean = NetworkExecutor(network, ctx, mode="analog", state=state).run()
    assert clean.rel_error == NetworkExecutor(network, ctx, mode="analog").run().rel_error


def test_streamed_faulted_run_matches_resident(tmp_path):
    network = build_model("tiny_cnn")
    ctx = SimContext(faults=STUCK)
    state = program(network, ctx, "analog")
    path = state.save(tmp_path / "state")
    disk = ProgrammedState.load(path, mmap=True)
    resident = NetworkExecutor.from_state(disk, network, ctx)
    streamed = NetworkExecutor.from_state(disk, network, ctx, stream=True)
    x = resident.random_input()
    a, b = resident.run(x), streamed.run(x)
    assert a.rel_error == b.rel_error
    assert a.stuck_cells == b.stuck_cells > 0


def test_context_for_trial_decorrelates_faults():
    ctx = SimContext(faults=STUCK)
    t0, t1 = ctx.for_trial(0), ctx.for_trial(1)
    assert t0.faults.seed != t1.faults.seed
    assert ctx.for_trial(0).faults == t0.faults


def test_spare_rows_do_not_change_state_identity():
    """spare_rows is a redundancy provision, not a content-key field: a
    cached state programs once and serves remapping and plain executors."""
    plain, spared = ArchSpec(), ArchSpec(spare_rows=16)
    assert plain == spared
    with pytest.raises(ValueError):
        ArchSpec(spare_rows=-1)
