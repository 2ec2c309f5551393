"""Runner determinism: serial == parallel, and the store round-trips."""

import pytest

from repro.cluster import ClusterScenarioConfig
from repro.errors import ConfigurationError
from repro.experiments import ScenarioConfig
from repro.sweep import run_sweep, SweepGrid, SweepResults

#: Compressed §5.3 timeline: full three-phase structure in 200 simulated s.
FAST = ScenarioConfig(
    duration=200.0, v20_active=(20.0, 180.0), v70_active=(60.0, 140.0)
)


@pytest.fixture(scope="module")
def small_grid() -> SweepGrid:
    return SweepGrid(
        {"scheduler": ["credit", "pas"], "v20_load": ["exact", "thrashing"]},
        base=FAST,
        vary_seed=True,
    )


@pytest.fixture(scope="module")
def serial(small_grid) -> "SweepResults":
    return run_sweep(small_grid, workers=1)


def test_results_in_grid_order(small_grid, serial):
    assert serial.labels == tuple(cell.label for cell in small_grid)
    assert [cell.index for cell in serial] == [0, 1, 2, 3]


def test_default_scenario_metrics_present(serial):
    cell = serial.cells[0]
    for key in ("v20_absolute_solo_early", "freq_mhz_both", "dvfs_transitions", "energy_joules"):
        assert key in cell.metrics


def test_serial_vs_parallel_identical(small_grid, serial):
    parallel = run_sweep(small_grid, workers=4)
    assert serial.to_json() == parallel.to_json()  # byte-identical export
    for a, b in zip(serial, parallel):
        assert a.metrics == b.metrics  # and value-identical, not just printed


def test_rerun_is_deterministic(small_grid, serial):
    again = run_sweep(small_grid, workers=1)
    assert again.to_json() == serial.to_json()


def test_json_round_trip(serial, tmp_path):
    path = serial.save(tmp_path / "results.json")
    loaded = SweepResults.load(path)
    assert loaded.labels == serial.labels
    assert loaded.to_json() == serial.to_json()


def test_csv_export_shape(serial, tmp_path):
    path = serial.save(tmp_path / "results.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(serial)
    header = lines[0].split(",")
    assert header[0] == "label"
    assert "energy_joules" in header


def test_metric_and_get_queries(serial):
    label = serial.labels[0]
    assert serial.metric(label, "energy_joules") > 0
    with pytest.raises(ConfigurationError, match="no sweep cell"):
        serial.get("nope")
    with pytest.raises(ConfigurationError, match="no metric"):
        serial.metric(label, "nope")


def test_filter_and_aggregate(serial):
    pas_only = serial.filter(scheduler="pas")
    assert len(pas_only) == 2
    assert all(cell.params["scheduler"] == "pas" for cell in pas_only)
    groups = serial.aggregate("energy_joules", by="scheduler")
    assert set(groups) == {"credit", "pas"}
    for summary in groups.values():
        assert summary["count"] == 2
        assert summary["min"] <= summary["mean"] <= summary["max"]


def test_pas_cells_hold_sla_credit_cells_do_not(serial):
    # The paper's core claim shows up even on the compressed timeline.
    for cell in serial.filter(scheduler="pas"):
        assert cell.metrics["v20_absolute_solo_early"] == pytest.approx(20.0, abs=1.5)
    for cell in serial.filter(scheduler="credit"):
        assert cell.metrics["v20_absolute_solo_early"] < 15.0


def test_cluster_grid_serial_vs_parallel_identical():
    grid = SweepGrid(
        {"policy": ["spread", "consolidate"], "dvfs": [False, True]},
        base=ClusterScenarioConfig(n_machines=2, n_vms=3, duration=100.0),
    )
    serial = run_sweep(grid, workers=1)
    parallel = run_sweep(grid, workers=2)
    assert serial.to_json() == parallel.to_json()
    for cell in serial:
        assert cell.metrics["fleet_energy_joules"] > 0
        assert 0.0 <= cell.metrics["mean_sla_fraction"] <= 1.0 + 1e-9


def test_aggregate_over_tuple_valued_axis():
    # Tuple-typed axes are described as JSON lists in cell params; grouping
    # by one must key on the canonical encoding, not crash as unhashable.
    grid = SweepGrid(
        {
            "scheduler": ["credit"],
            "v20_active": [[20.0, 180.0], [30.0, 170.0]],
        },
        base=FAST,
    )
    results = run_sweep(grid)
    groups = results.aggregate("energy_joules", by="v20_active")
    assert set(groups) == {"[20.0,180.0]", "[30.0,170.0]"}
    assert all(summary["count"] == 1 for summary in groups.values())


def test_replicate_aggregate_carries_confidence_intervals():
    # Poisson arrivals + replicates: the CI columns quantify the spread.
    grid = SweepGrid(
        {"scheduler": ["credit", "pas"]},
        base=FAST.with_changes(poisson=True, duration=100.0, v20_active=(10.0, 90.0), v70_active=(30.0, 70.0)),
        replicates=3,
    )
    results = run_sweep(grid, workers=2)
    assert len(results) == 6
    groups = results.aggregate("energy_joules", by="scheduler")
    for summary in groups.values():
        assert summary["count"] == 3
        assert summary["std"] >= 0.0
        assert summary["ci95"] == pytest.approx(1.96 * summary["std"] / 3**0.5)
        assert summary["min"] <= summary["mean"] <= summary["max"]
    by_rep = results.aggregate("energy_joules", by="rep")
    assert set(by_rep) == {0, 1, 2}


def test_single_member_groups_have_zero_ci(serial):
    groups = serial.filter(v20_load="exact").aggregate("energy_joules", by="scheduler")
    for summary in groups.values():
        assert summary["count"] == 1
        assert summary["std"] == 0.0
        assert summary["ci95"] == 0.0


def test_invalid_workers_rejected(small_grid):
    with pytest.raises(ConfigurationError, match="workers"):
        run_sweep(small_grid, workers=0)


def test_unknown_metric_rejected(small_grid):
    with pytest.raises(ConfigurationError, match="unknown metric"):
        run_sweep(
            SweepGrid.from_variants({"one": small_grid.cells[0].config}),
            metrics=("nope",),
        )
