#!/usr/bin/env python3
"""Governor showdown: all six governors on the same credit-scheduled host.

Reproduces the §5.4 comparison (stock ondemand vs the authors' stable
governor) and extends it across the full governor zoo of §2.2: pin-high,
pin-low, one-step conservative, threshold-jumping ondemand, the paper's
averaged/dwelled variant, and userspace driven by the §4.1 user-level
manager.

For each governor: DVFS transition count (stability), mean frequency,
energy, and what happened to V20's 20 % SLA.

Run:  python examples/governor_showdown.py
"""

import sys

from repro import UserCreditManager
from repro.cli import run_piped
from repro.experiments import PHASE_SOLO_EARLY, ScenarioConfig, run_scenario
from repro.experiments.scenario import build_scenario, ScenarioResult
from repro.telemetry import table_to_text


def run_with_governor(governor: str) -> ScenarioResult:
    config = ScenarioConfig(scheduler="credit", governor=governor)
    if governor != "userspace":
        return run_scenario(config)
    # userspace alone never changes frequency; pair it with the §4.1
    # user-level credit manager to make it meaningful here.
    host = build_scenario(config)
    manager = UserCreditManager(host)
    host.start()
    manager.start()
    host.run(until=config.duration)
    return ScenarioResult(config=config, host=host)


def main() -> None:
    rows = []
    for governor in ("performance", "powersave", "conservative", "ondemand", "stable", "userspace"):
        result = run_with_governor(governor)
        freq_series = result.series("host.freq_mhz", smooth=False)
        sla = result.phase_mean("V20.absolute_load", PHASE_SOLO_EARLY)
        rows.append(
            [
                governor,
                result.frequency_transitions,
                f"{freq_series.mean():6.0f}",
                f"{result.energy_joules / 1000:6.1f}",
                f"{sla:5.1f}",
            ]
        )
    print(
        table_to_text(
            ["governor", "transitions", "mean MHz", "energy kJ", "V20 abs % (solo)"],
            rows,
            title="Six governors, credit scheduler, §5.3 exact-load profile (SLA: 20%)",
        )
    )
    print()
    print("Note the Fig. 3/Fig. 4 pair: ondemand's transition count vs stable's.")
    print("powersave never delivers the SLA; performance wastes energy;")
    print("no governor alone fixes the credit scheduler - that needs PAS.")


if __name__ == "__main__":
    sys.exit(run_piped(main))
