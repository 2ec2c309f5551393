"""``dc-fleet-large`` runs: byte identity of every policy's exported records.

Each digest is the sha256 of the JSON of one record list, so any drift in
a planning or serving float, a host's power state or a migration's order
shows here, for every orchestration policy (the golden CSV fixtures cover
only ``consolidate`` and ``static`` on ``dc-diurnal-small``).
"""

import hashlib
import json

import pytest

from repro.cluster.scenario import run_cluster_scenario
from repro.experiments import preset_config


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


@pytest.mark.parametrize(
    "policy, epochs, hosts, migrations",
    [
        (
            "static",
            "4aa7630b7b228d76690ce9a0267bc42b7bf50c65f589fab6eef5786776b94db7",
            "51e27a9e02ac8cb8f93f3d7f47f8a5b041a85691c1168b568f1e234e4cbe2c72",
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        ),
        (
            "consolidate",
            "5b6948458f479d4d2f8b9ec81e2d099a4b1506189156e1340f24394a355b788a",
            "3a84d09ef3b913affd3c4e1e7d55383b44edfd2c98e28ba776a33d68b167dead",
            "f1783b94bf8efac130e432bfebf5b0c0e8881535faeb84c3f208c2335787294d",
        ),
        (
            "load-balance",
            "55d79076c27487f7d88f4fd2105cb8735b7d7d8c5f94f269993c55d11d411729",
            "2ce5d2b3ae8394c8644311facb3c3c1a74219448c4bd6e5ea438fad9a3f02b54",
            "b5a04079c4f71c09f6926de1ae125e0ca254d532801a07d4c31d848d05580173",
        ),
        (
            "power-budget",
            "98241caa6672ae997d18543122552bc86389c0783790b4c7885446bee4e3da3f",
            "0adcc5b1ddc7c260880647ff9cd420f06c22dac59b8eebbf6a989bf9236a035c",
            "f1783b94bf8efac130e432bfebf5b0c0e8881535faeb84c3f208c2335787294d",
        ),
    ],
)
def test_dc_fleet_large_records_are_byte_identical(policy, epochs, hosts, migrations):
    sim = run_cluster_scenario(preset_config("dc-fleet-large").with_changes(policy=policy))
    assert digest(sim.epoch_records()) == epochs
    assert digest(sim.host_records()) == hosts
    assert digest(sim.migration_records()) == migrations
