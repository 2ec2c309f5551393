"""Fleet populations: byte identity of every VM's footprint and demand."""

import hashlib
import json

import pytest

from repro.cluster import ClusterScenarioConfig
from repro.cluster.scenario import make_population
from repro.experiments import preset_config


def population_digest(config: ClusterScenarioConfig) -> str:
    """sha256 of each VM's name, footprint, class, credit and demand samples.

    The samples cover every epoch start plus two off-grid times: mid-day
    and a point three days in, so the repeat wrap is exercised too.
    """
    times = [
        index * config.epoch_s
        for index in range(round(config.duration / config.epoch_s))
    ] + [0.5 * config.day_length, 3.0 * config.day_length + 1.25]
    rows = [
        [
            vm.name,
            vm.memory_mb,
            vm.service_class,
            vm.credit,
            [vm.demand_at(t) for t in times],
        ]
        for vm in make_population(config)
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize(
    "config, digest",
    [
        pytest.param(
            ClusterScenarioConfig(n_machines=8, n_vms=12),
            "79ef83198ebff0a1d014744859bfb6cc027eedf66bd548a893853131cc2a30ca",
            id="synthetic-trace",
        ),
        pytest.param(
            preset_config("dc-fleet-large"),
            "fc866308591a0bc6aefe441d7227184bd29b242a6d9357f0df8c4ee436b164f5",
            id="dc-fleet-large",
        ),
        pytest.param(
            preset_config("dc-fleet-large").with_changes(
                n_machines=256, n_vms=768, seed=1532790208
            ),
            "1323550f614535e1caf5eeeb20490235477e83a8d0843da773f7efde731d97bb",
            id="fleet-256",
        ),
        pytest.param(
            preset_config("dc-diurnal"),
            "182cfebf1058f5dd7dbd07d1c206561af275b9a453eb7226da8976707b8b719c",
            id="dc-diurnal",
        ),
    ],
)
def test_population_is_byte_identical(config, digest):
    assert population_digest(config) == digest
