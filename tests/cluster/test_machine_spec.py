"""MachineSpec groups and their expansion through ClusterScenarioConfig."""

import json

import pytest

from repro.cluster import ClusterScenarioConfig
from repro.cluster.machine import MachineSpec
from repro.cpu import catalog
from repro.errors import ConfigurationError


# ----------------------------------------------------------------- MachineSpec


def test_defaults_describe_the_reference_host():
    spec = MachineSpec()
    assert spec.processor is catalog.CORE_I7_3770
    assert spec.memory_mb == 16384
    assert spec.overhead_percent == 5.0
    assert spec.count == 1


def test_to_dict_omits_defaults():
    # Omit-when-default keeps store keys stable when new fields grow.
    spec = MachineSpec()
    assert spec.to_dict() == {
        "processor": catalog.CORE_I7_3770.name,
        "memory_mb": 16384,
    }


def test_to_dict_emits_non_defaults():
    spec = MachineSpec(
        processor=catalog.BIG_LITTLE_44,
        memory_mb=8192,
        overhead_percent=3.0,
        count=4,
    )
    assert spec.to_dict() == {
        "processor": catalog.BIG_LITTLE_44.name,
        "memory_mb": 8192,
        "overhead_percent": 3.0,
        "count": 4,
    }


@pytest.mark.parametrize(
    "spec",
    [
        MachineSpec(),
        MachineSpec(count=3),
        MachineSpec(processor=catalog.BIG_LITTLE_44, overhead_percent=2.5),
    ],
)
def test_round_trips_through_json(spec):
    assert MachineSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_from_dict_accepts_processor_by_catalog_name():
    spec = MachineSpec.from_dict({"processor": catalog.BIG_LITTLE_44.name})
    assert spec.processor is catalog.BIG_LITTLE_44


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="machine"):
        MachineSpec.from_dict({"procesor": "Intel Core i7-3770"})


def test_count_must_be_at_least_one():
    with pytest.raises(ConfigurationError):
        MachineSpec(count=0)


def test_describe_is_compact():
    spec = MachineSpec(count=2, memory_mb=8192)
    assert spec.describe() == f"2x{catalog.CORE_I7_3770.name}/8192MB"


# ---------------------------------------------------- config-level expansion


def test_legacy_triple_expands_to_one_group():
    config = ClusterScenarioConfig(n_machines=6, machine_memory_mb=8192)
    (group,) = config.effective_machines()
    assert group == MachineSpec(
        processor=config.processor, memory_mb=8192, count=6
    )
    assert config.total_machines == 6


def test_machines_field_replaces_the_legacy_triple():
    groups = (
        MachineSpec(count=2),
        MachineSpec(processor=catalog.BIG_LITTLE_44, count=3),
    )
    config = ClusterScenarioConfig(machines=groups)
    assert config.effective_machines() == groups
    assert config.total_machines == 5
    # A second fleet size beside the groups is refused, not ignored.
    with pytest.raises(ConfigurationError, match="in machines instead"):
        ClusterScenarioConfig(n_machines=99, machines=groups)


def test_legacy_config_serialises_without_new_keys():
    # The byte-identity guarantee: a pre-heterogeneity config must emit
    # exactly the keys it always did, so sweep-store sha keys survive.
    payload = ClusterScenarioConfig().to_dict()
    assert "machines" not in payload
    assert "placement" not in payload


def test_hetero_config_round_trips_through_json():
    config = ClusterScenarioConfig(
        machines=(
            MachineSpec(count=2),
            MachineSpec(processor=catalog.BIG_LITTLE_44, count=2),
        ),
        placement="efficiency",
    )
    text = json.dumps(config.to_dict())
    assert ClusterScenarioConfig.from_dict(json.loads(text)) == config


def test_machines_axis_coerces_from_json_lists():
    value = ClusterScenarioConfig.coerce_field(
        "machines",
        [{"processor": catalog.BIG_LITTLE_44.name, "memory_mb": 8192, "count": 2}],
    )
    assert value == (
        MachineSpec(processor=catalog.BIG_LITTLE_44, memory_mb=8192, count=2),
    )


def test_unknown_placement_is_rejected():
    with pytest.raises(ConfigurationError, match="placement"):
        ClusterScenarioConfig(placement="cheapest")


def test_describe_flags_mixed_fleets():
    homogeneous = ClusterScenarioConfig()
    mixed = ClusterScenarioConfig(
        machines=(MachineSpec(count=2), MachineSpec(processor=catalog.BIG_LITTLE_44))
    )
    assert "kinds" not in homogeneous.describe()
    assert "x2kinds" in mixed.describe()
    assert "3m" in mixed.describe()
