#!/usr/bin/env python3
"""Capacity planning with the proportionality laws (Eqs. 1-4).

A provider-side calculator built on :mod:`repro.core.laws`: given a machine
from the catalog and a set of sold credits, print — for every P-state — the
compensated credits PAS would enforce, whether they still fit the machine,
and the power envelope.  Then validate the sheet against a live simulation
at one operating point.

Run:  python examples/capacity_planning.py
"""

import sys

from repro import Host, catalog
from repro.cli import run_piped
from repro.core import laws
from repro.telemetry import table_to_text
from repro.workloads import ConstantLoad

SOLD = {"customer-a": 20.0, "customer-b": 45.0, "dom0": 10.0}
MACHINE = catalog.CORE_I7_3770


def planning_sheet() -> None:
    table = MACHINE.table()
    rows = []
    for state in table:
        caps = laws.compensated_caps(table, state.freq_mhz, SOLD)
        total = sum(caps.values())
        power = MACHINE.power.power(state, table, utilization_fraction=min(1.0, total / 100.0))
        rows.append(
            [
                f"{state.freq_mhz} MHz",
                f"{state.capacity_fraction(table.max_state.freq_mhz) * 100:5.1f}%",
                " / ".join(f"{caps[name]:5.1f}" for name in SOLD),
                f"{total:6.1f}%",
                "fits" if total <= 100.0 else "over-committed",
                f"{power:5.1f} W",
            ]
        )
    print(
        table_to_text(
            ["P-state", "capacity", "Eq.4 caps (a/b/dom0)", "sum", "admission", "power@sum"],
            rows,
            title=f"PAS planning sheet for {MACHINE.name}, sold credits {SOLD}",
        )
    )


def validate_one_point() -> None:
    host = Host(processor=MACHINE, scheduler="pas", governor="userspace")
    for name, credit in SOLD.items():
        domain = host.create_domain(name, credit=credit, dom0=(name == "dom0"))
        domain.attach_workload(ConstantLoad(min(credit, 100.0), injection_period=0.01))
    host.run(until=60.0)
    print()
    print(f"live check @ {host.processor.frequency_mhz} MHz "
          f"(PAS picked it for the combined load):")
    for name, credit in SOLD.items():
        delivered = host.domain(name).work_done / 60.0 * 100.0
        print(f"  {name:12s} booked {credit:5.1f}%  delivered {delivered:5.1f}% absolute")


def main() -> None:
    planning_sheet()
    validate_one_point()


if __name__ == "__main__":
    sys.exit(run_piped(main))
