"""Heterogeneous fleets end to end: big.LITTLE machines, placement, obs."""

import json

import pytest

from repro.cluster import ClusterScenarioConfig
from repro.cluster.machine import Machine, MachineSpec
from repro.cluster.scenario import run_cluster_scenario
from repro.cpu import catalog
from repro.errors import ConfigurationError
from repro.experiments import preset_config
from repro.experiments.claims import run_claim
from repro.obs import MetricsRegistry, observed, Tracer, validate_trace_text
from repro.obs.metrics import collect_cluster
from repro.sweep import run_sweep, SweepGrid, SweepRunner


MIXED = (
    MachineSpec(processor=catalog.CORE_I7_3770, count=2),
    MachineSpec(processor=catalog.BIG_LITTLE_44, count=2),
)


def mixed_config(**changes):
    base = dict(
        machines=MIXED,
        n_vms=8,
        policy="consolidate",
        duration=200.0,
        day_length=200.0,
    )
    base.update(changes)
    return ClusterScenarioConfig(**base)


# ------------------------------------------------------------ machine model


def test_big_little_machine_sums_its_clusters():
    machine = Machine("m0", MachineSpec(processor=catalog.BIG_LITTLE_44))
    assert machine.is_heterogeneous
    # little 0.30 + big 0.60 of the reference host, at top P-states.
    assert machine.capacity_percent == pytest.approx(90.0)
    assert {d.spec.name for d in machine.domains} == {"little", "big"}


def test_homogeneous_machine_has_no_domains():
    machine = Machine("m0", MachineSpec())
    assert not machine.is_heterogeneous
    assert machine.domains == []
    assert machine.capacity_percent == 100.0
    assert machine.cstate_residency() == {}


def test_big_little_undercuts_i7_on_efficiency_but_not_capacity():
    # The placement trade-off in one machine pair: the i7 delivers more
    # capacity, the big.LITTLE part delivers it cheaper per percent.
    i7 = Machine("a", MachineSpec())
    bl = Machine("b", MachineSpec(processor=catalog.BIG_LITTLE_44))
    assert i7.capacity_percent > bl.capacity_percent
    assert bl.efficiency_w_per_percent < i7.efficiency_w_per_percent


def test_hetero_freq_ladder_is_the_union_of_domain_tables():
    machine = Machine("m0", MachineSpec(processor=catalog.BIG_LITTLE_44))
    assert machine.freq_choices == (600, 1000, 1400, 1800, 2000)
    assert machine.min_freq_mhz == 600
    assert machine.max_freq_mhz == 2000


# --------------------------------------------------- homogeneous byte-identity


def test_machinespec_expansion_is_byte_identical_to_legacy_fleet():
    # The API-redesign compatibility criterion: declaring the same
    # homogeneous fleet through `machines` must not move a single sample.
    legacy = ClusterScenarioConfig(
        n_machines=4, n_vms=6, duration=200.0, day_length=200.0
    )
    explicit = ClusterScenarioConfig(
        n_vms=6, duration=200.0, day_length=200.0, machines=legacy.effective_machines()
    )
    a = run_cluster_scenario(legacy)
    b = run_cluster_scenario(explicit)
    assert a.epoch_records() == b.epoch_records()
    assert a.host_records() == b.host_records()
    assert a.migration_records() == b.migration_records()
    assert a.fleet_energy_joules == b.fleet_energy_joules


@pytest.mark.parametrize("policy", ["static", "consolidate", "power-budget"])
def test_expansion_identity_holds_for_every_hetero_aware_policy(policy):
    common = dict(
        n_vms=5, policy=policy, power_budget_w=300.0, duration=100.0, day_length=100.0
    )
    legacy = ClusterScenarioConfig(n_machines=3, **common)
    explicit = ClusterScenarioConfig(machines=legacy.effective_machines(), **common)
    a = run_cluster_scenario(legacy)
    b = run_cluster_scenario(explicit)
    assert a.host_records() == b.host_records()
    assert a.fleet_energy_joules == b.fleet_energy_joules


@pytest.mark.parametrize("path", ["constructor", "with_changes", "from_dict", "cli", "claim"])
def test_fleet_size_beside_machine_groups_is_an_error(path, capsys):
    # A fleet declared by machine groups has one size: the legacy triple
    # beside it would be ignored, so setting it is refused on every path.
    if path == "cli":
        from repro.cli import main

        assert main(["run", "--preset", "dc-hetero", "--set", "n_machines=64"]) == 2
        assert "in machines instead" in capsys.readouterr().err
        return
    hetero = preset_config("dc-hetero")
    attempts = {
        "constructor": lambda: ClusterScenarioConfig(machines=MIXED, machine_memory_mb=8192),
        "with_changes": lambda: hetero.with_changes(n_machines="x"),
        "from_dict": lambda: ClusterScenarioConfig.from_dict(
            {**hetero.to_dict(), "processor": catalog.BIG_LITTLE_44.name}
        ),
        "claim": lambda: run_claim("placement", n_machines=64),
    }
    with pytest.raises(ConfigurationError, match="in machines instead"):
        attempts[path]()


def test_homogeneous_fleet_emits_no_domain_records():
    sim = run_cluster_scenario(
        ClusterScenarioConfig(n_machines=2, n_vms=3, duration=50.0, day_length=50.0)
    )
    assert sim.domain_records() == []
    assert sim.cstate_residency() == {}


# ----------------------------------------------------- placement trade-off


def test_efficiency_placement_saves_energy_at_equal_or_better_sla():
    # The sweepable trade-off the issue demands be measurable: packing the
    # efficient big.LITTLE boxes first must beat performance-bursting on
    # energy without giving up SLA on this fleet.
    efficient = run_cluster_scenario(mixed_config(placement="efficiency"))
    bursting = run_cluster_scenario(mixed_config(placement="performance"))
    assert efficient.fleet_energy_joules < bursting.fleet_energy_joules
    assert efficient.mean_sla_fraction >= bursting.mean_sla_fraction - 1e-9


def test_power_budget_cap_holds_on_a_mixed_fleet():
    sim = run_cluster_scenario(
        mixed_config(policy="power-budget", power_budget_w=120.0)
    )
    assert sim.peak_power_w <= 120.0
    assert sim.mean_sla_fraction > 0.9


# ------------------------------------------------------------- observability


def test_hetero_run_traces_domain_frequencies_and_validates():
    tracer = Tracer()
    with observed(tracer=tracer):
        sim = run_cluster_scenario(mixed_config(duration=100.0))
    assert validate_trace_text(tracer.to_json()) == []
    tracks = {
        event["args"]["name"]
        for event in tracer.events
        if event["cat"] == "__metadata" and event["name"] == "thread_name"
    }
    domain_tracks = {name for name in tracks if name.startswith("domain.")}
    # One track per (machine, domain) on the two big.LITTLE boxes.
    assert domain_tracks == {
        "domain.m002/little",
        "domain.m002/big",
        "domain.m003/little",
        "domain.m003/big",
    }
    samples = [
        event
        for event in tracer.events
        if event["cat"] == "cluster" and event.get("ph") == "C"
        and event["name"].startswith("domain.")
    ]
    assert samples
    assert all(set(e["args"]) == {"freq_mhz", "power_w"} for e in samples)
    # Trace and query surface agree on volume: one record per sample.
    assert len(samples) == len(sim.domain_records())


def test_cstate_residency_sums_into_metrics_gauges():
    sim = run_cluster_scenario(mixed_config(duration=100.0))
    registry = MetricsRegistry()
    collect_cluster(registry, sim)
    snapshot = registry.snapshot()
    cstate_keys = {key for key in snapshot if key.startswith("cstate.")}
    assert "cstate.C0_s" in cstate_keys
    assert snapshot == json.loads(registry.to_json())  # JSON-able


def test_homogeneous_metrics_grow_no_cstate_keys():
    sim = run_cluster_scenario(
        ClusterScenarioConfig(n_machines=2, n_vms=3, duration=50.0, day_length=50.0)
    )
    registry = MetricsRegistry()
    collect_cluster(registry, sim)
    assert not any(key.startswith("cstate.") for key in registry.snapshot())


def test_fleet_cstate_residency_matches_per_machine_sums():
    sim = run_cluster_scenario(mixed_config(duration=100.0))
    totals: dict[str, float] = {}
    for machine in sim.machines:
        for name, seconds in machine.cstate_residency().items():
            totals[name] = totals.get(name, 0.0) + seconds
    fleet = sim.cstate_residency()
    assert set(fleet) == set(totals)
    for name in fleet:
        assert fleet[name] == pytest.approx(totals[name])


# ------------------------------------------------------------------- sweeps


METRICS = ("fleet", "cluster")


def hetero_grid() -> SweepGrid:
    return SweepGrid(
        {"placement": ["efficiency", "performance"]},
        base=mixed_config(duration=100.0, day_length=100.0),
    )


def test_hetero_sweep_serial_vs_parallel_identical():
    serial = run_sweep(hetero_grid(), metrics=METRICS, workers=1)
    parallel = run_sweep(hetero_grid(), metrics=METRICS, workers=2)
    assert serial.to_json() == parallel.to_json()


def test_hetero_sweep_cold_vs_resumed_identical(tmp_path):
    from repro.store import ExperimentStore

    reference = run_sweep(hetero_grid(), metrics=METRICS, workers=1).to_json()
    store = ExperimentStore(tmp_path / "st")
    cold = SweepRunner(hetero_grid(), metrics=METRICS, workers=1, store=store)
    assert cold.run().to_json() == reference
    assert (cold.cache_hits, cold.computed) == (0, 2)
    warm = SweepRunner(hetero_grid(), metrics=METRICS, workers=1, store=store)
    assert warm.run().to_json() == reference
    assert (warm.cache_hits, warm.computed) == (2, 0)
