#!/usr/bin/env python3
"""Quickstart: a PAS-scheduled host keeping a VM's SLA under DVFS.

Builds the smallest interesting system: one physical host (the paper's
Optiplex 755 testbed), Dom0, and a single VM that bought 20 % of the
machine's *maximum-frequency* capacity and then demands more than that
(a thrashing web load).

Watch what PAS does:

* the host is globally underloaded, so PAS clocks the processor down to
  1600 MHz (energy saving);
* at 1600 MHz a nominal 20 % share would only deliver 12 % absolute
  capacity, so PAS raises the VM's credit to 20 / (1600/2667) = 33.3 %
  (Eq. 4) — the VM keeps exactly the capacity it bought;
* the VM can never consume *more* than its booked absolute capacity, so
  the frequency stays down.

Run:  python examples/quickstart.py
"""

import sys

from repro import Host, catalog, render_chart, rolling_mean
from repro.cli import run_piped
from repro.workloads import LoadProfile, WebApp, ConstantLoad, thrashing_rate


def main() -> None:
    host = Host(
        processor=catalog.OPTIPLEX_755,
        scheduler="pas",       # the paper's contribution
        governor="userspace",  # PAS drives the frequency itself
    )

    dom0 = host.create_domain("Dom0", credit=10, dom0=True)
    dom0.attach_workload(ConstantLoad(8.0))  # housekeeping + guest I/O

    vm = host.create_domain("V20", credit=20)
    rate = thrashing_rate(20, request_cost=0.005)  # demands 5x its credit
    vm.attach_workload(WebApp(LoadProfile.three_phase(10, 110, rate)))

    host.run(until=120)

    recorder = host.recorder
    nominal = rolling_mean(recorder.series("V20.global_load"), 3)
    absolute = rolling_mean(recorder.series("V20.absolute_load"), 3)
    freq = recorder.series("host.freq_mhz").map(lambda mhz: mhz / 2667 * 100)

    print(
        render_chart(
            [nominal, absolute, freq],
            title="PAS: V20 nominal vs absolute load (thrashing, 20% SLA)",
            y_max=100.0,
            labels=["V20 nominal %", "V20 absolute %", "frequency (% of max)"],
        )
    )

    active = (40.0, 100.0)
    print()
    print(f"frequency while active : {recorder.series('host.freq_mhz').window(*active).mean():6.0f} MHz")
    print(f"V20 nominal load       : {nominal.window(*active).mean():6.1f} %  (compensated credit)")
    print(f"V20 absolute load      : {absolute.window(*active).mean():6.1f} %  (the 20% SLA, held)")
    print(f"energy consumed        : {host.processor.energy_joules:6.0f} J")
    print(f"DVFS transitions       : {host.processor.transitions:6d}")


if __name__ == "__main__":
    sys.exit(run_piped(main))
