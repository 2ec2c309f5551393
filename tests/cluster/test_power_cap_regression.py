"""The power-budget policy keeps every fleet under its declared watt cap.

Replicated policy comparisons first surfaced an overshoot: on the
``dc-diurnal-small`` preset under the ``power-budget`` policy, some
replicates peaked well above the 80 W fleet budget — 91.9 W on the worst
one, and up to 1.23× the cap on ``dc-diurnal``.  The cause was an
uncounted drained source: the policy built its budget from the *new*
assignment only, so a host emptied by this epoch's migrations got no
frequency ceiling and no predicted watts, while the orchestrator keeps
every migration party powered through the epoch to send its dirty pages.
The fix budgets every migration party, drained sources included, at full
utilisation and pins its frequency like any other host.
"""

import pytest

from repro.cluster.scenario import run_cluster_scenario
from repro.experiments.presets import get_preset
from repro.sweep.grid import derive_cell_seed

#: Root seed 11 is what `repro sweep --preset dc-diurnal-small --replicates 10`
#: uses; replicate 0's derived cell seed is the first observed offender.
OFFENDING_SEED = derive_cell_seed(11, "policy=power-budget,rep=0")

#: Every datacenter preset with a declared cap, checked over 20 replicates.
CAPPED_PRESETS = (
    "dc-diurnal-small",
    "dc-diurnal",
    "dc-fleet-medium",
    "dc-fleet-large",
    "dc-hetero",
)
REPLICATES = 20


def test_power_budget_policy_respects_fleet_cap():
    assert OFFENDING_SEED == 202060482  # pin the derivation, not just the label
    config = get_preset("dc-diurnal-small").config.with_changes(
        policy="power-budget", seed=OFFENDING_SEED
    )
    sim = run_cluster_scenario(config)
    assert config.power_budget_w == 80.0
    assert sim.peak_power_w <= config.power_budget_w


@pytest.mark.parametrize("replicate", range(REPLICATES))
@pytest.mark.parametrize("preset", CAPPED_PRESETS)
def test_power_budget_cap_holds_across_presets(preset, replicate):
    seed = derive_cell_seed(11, f"policy=power-budget,rep={replicate}")
    config = get_preset(preset).config.with_changes(policy="power-budget", seed=seed)
    assert config.power_budget_w is not None
    sim = run_cluster_scenario(config)
    assert sim.peak_power_w <= config.power_budget_w
