#!/usr/bin/env python3
"""Energy audit: what DVFS-aware credit enforcement is worth, in joules.

Two questions the paper raises but does not plot:

1. *How much energy does PAS actually save?*  We integrate the package
   power model over the thrashing profile for the four contenders
   (Ablation A).
2. *Does the correction factor cf matter?*  On frequency-proportional
   machines (Optiplex, cf = 1) it does not; on the Xeon E5-2620
   (cf_min = 0.803) ignoring it silently shorts every VM by ~20 % of its
   booked capacity (Ablation C).

Run:  python examples/energy_audit.py
"""

from repro.experiments import run_claims


def main() -> None:
    for _, report in run_claims(["energy", "cf"]).values():
        print(report.render())
        print()
    print("Take-away: PAS reaches the credit scheduler's energy level while")
    print("delivering SEDF's throughput guarantee - but only if it accounts")
    print("for the machine's measured cf (Table 1), not just the frequency ratio.")


if __name__ == "__main__":
    main()
