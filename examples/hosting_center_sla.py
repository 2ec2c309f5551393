#!/usr/bin/env python3
"""Hosting-center SLA audit: the paper's §5.3 scenario under every scheduler.

The scenario the paper's evaluation revolves around: two customers on one
host — V20 bought 20 % of max-frequency capacity, V70 bought 70 % — plus
Dom0.  V20 is busy the whole time (thrashing); V70 only in the middle
phase.  A provider cares about two numbers per scheduler:

* **SLA delivery** — does V20 get the 20 % absolute capacity it paid for,
  in every phase?
* **energy** — can the host clock down while V70 is lazy?

The run shows the paper's Table-of-contents in one screen: the fix-credit
scheduler saves energy but shorts V20; SEDF serves V20 but burns energy;
PAS does both.

Run:  python examples/hosting_center_sla.py
"""

import sys

from repro.cli import run_piped
from repro.experiments import (
    PHASE_BOTH,
    PHASE_SOLO_EARLY,
    PHASE_SOLO_LATE,
    ScenarioConfig,
    run_scenario,
)
from repro.telemetry import table_to_text

CONTENDERS = {
    "credit (fix, stable gov)": ScenarioConfig(
        scheduler="credit", governor="stable", v20_load="thrashing"
    ),
    "credit (fix, performance)": ScenarioConfig(
        scheduler="credit", governor="performance", v20_load="thrashing"
    ),
    "sedf (variable)": ScenarioConfig(
        scheduler="sedf", governor="stable", v20_load="thrashing"
    ),
    "credit2 (beta, variable)": ScenarioConfig(
        scheduler="credit2", governor="stable", v20_load="thrashing"
    ),
    "PAS (the paper)": ScenarioConfig(scheduler="pas", v20_load="thrashing"),
}


def main() -> None:
    rows = []
    for label, config in CONTENDERS.items():
        result = run_scenario(config)
        solo = result.phase_mean("V20.absolute_load", PHASE_SOLO_EARLY)
        both = result.phase_mean("V20.absolute_load", PHASE_BOTH)
        late = result.phase_mean("V20.absolute_load", PHASE_SOLO_LATE)
        sla_ok = all(abs(v - 20.0) <= 2.0 for v in (solo, both, late))
        v20_over = result.series("V20.absolute_load").max() > 23.0
        rows.append(
            [
                label,
                f"{solo:5.1f} / {both:5.1f} / {late:5.1f}",
                "held" if sla_ok else ("exceeded" if v20_over else "VIOLATED"),
                f"{result.energy_joules / 1000:7.1f}",
                result.frequency_transitions,
            ]
        )

    print(
        table_to_text(
            [
                "scheduler",
                "V20 absolute % (solo/both/solo)",
                "20% SLA",
                "energy kJ",
                "DVFS transitions",
            ],
            rows,
            title="Hosting-center audit: §5.3 profile, V20 thrashing (SLA target: 20%)",
        )
    )
    print()
    print("Reading: 'VIOLATED' = customer got less than they bought;")
    print("'exceeded' = customer got more than they bought (provider pays in energy);")
    print("'held' = exactly the booked capacity, at whatever frequency.")


if __name__ == "__main__":
    sys.exit(run_piped(main))
