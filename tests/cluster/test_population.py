"""Fleet populations: byte identity of every VM's footprint and demand."""

import hashlib
import json

import pytest

from repro.cluster import ClusterScenarioConfig
from repro.cluster.scenario import make_population
from repro.experiments import preset_config
from repro.workloads import dayshape_names

#: The datacenter base with every catalog shape in the mix.
ALL_SHAPES = preset_config("dc-fleet-large").with_changes(dayshapes=dayshape_names())


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
        # Every catalog shape: at 0.5x and 2x (the clamp hits both ends)
        # and unscaled on an off-grid day.
        pytest.param(
            ALL_SHAPES.with_changes(dayshape_scale=0.5),
            "312ac0c92e307ffe81faab9b8249a6cb68913ed7b1a1da2cd65d20238c8cf9fd",
            id="scale-0.5",
        ),
        pytest.param(
            ALL_SHAPES.with_changes(dayshape_scale=2.0),
            "80b0dbd992bb77c9bb2ec48fb2edd0163e5236269f34da82268839d670c53f61",
            id="scale-2.0",
        ),
        pytest.param(
            ALL_SHAPES.with_changes(day_length=37.5, trace_step=2.5, dayshape_scale=1.0),
            "063f3569b8be67e7013a50701bd161e7c13d6bb23d22180db5eda1a18b14bf54",
            id="off-grid",
        ),
    ],
)
def test_population_is_byte_identical(config, digest):
    assert population_digest(config) == digest
