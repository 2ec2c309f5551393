"""Live-migration cost model: downtime plus dirty-page copy overhead.

Moving a VM between hosts is not free, and orchestration policies that
ignore that fact look better than they are.  A :class:`MigrationModel`
prices one migration the way live migration actually costs:

* **downtime** — the stop-and-copy blackout during which the VM serves
  nothing (seconds of lost service, charged against the epoch's served
  demand);
* **copy overhead** — the CPU the dirty-page copy burns on *both* the
  source and the destination host while the transfer runs (percent of
  max-frequency capacity, charged for ``copy_duration_s`` of the epoch).

The orchestrator charges these costs for every executed migration, so
policies are compared on churn as well as energy — a policy that repacks
the fleet every epoch pays for it in SLA and watts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..units import check_field_types, check_known_fields, check_non_negative


@dataclass(frozen=True)
class MigrationModel:
    """Cost of one live migration (JSON-round-trippable spec).

    Parameters
    ----------
    downtime_s:
        Stop-and-copy blackout: seconds the migrating VM serves nothing.
    copy_overhead_percent:
        CPU the pre-copy burns on the source and destination hosts, in
        percent of max-frequency capacity, while the copy runs.
    copy_duration_s:
        How long the copy load lasts (capped at one epoch when charged).
    """

    downtime_s: float = 0.3
    copy_overhead_percent: float = 8.0
    copy_duration_s: float = 10.0

    def __post_init__(self) -> None:
        check_non_negative(self.downtime_s, "downtime_s")
        check_non_negative(self.copy_overhead_percent, "copy_overhead_percent")
        check_non_negative(self.copy_duration_s, "copy_duration_s")

    # ------------------------------------------------------------- charging

    def host_overhead_percent(self, epoch_s: float) -> float:
        """Mean extra CPU percent one migration adds to a host this epoch.

        The copy runs for ``min(copy_duration_s, epoch_s)`` seconds at
        ``copy_overhead_percent``; averaged over the epoch that is the flat
        demand surcharge the source and destination hosts each absorb.
        """
        if epoch_s <= 0.0:
            return 0.0
        return self.copy_overhead_percent * min(self.copy_duration_s, epoch_s) / epoch_s

    def downtime_fraction(self, epoch_s: float) -> float:
        """Fraction of the epoch the migrating VM is blacked out."""
        if epoch_s <= 0.0:
            return 0.0
        return min(self.downtime_s, epoch_s) / epoch_s

    def describe(self) -> str:
        """Compact human-readable label (grid cell labelling)."""
        return (
            f"mig({self.downtime_s:g}s+{self.copy_overhead_percent:g}%"
            f"x{self.copy_duration_s:g}s)"
        )

    # ------------------------------------------------------------ serialise

    def to_dict(self) -> dict[str, float]:
        """JSON-able form; :meth:`from_dict` round-trips it exactly."""
        return {
            "downtime_s": self.downtime_s,
            "copy_overhead_percent": self.copy_overhead_percent,
            "copy_duration_s": self.copy_duration_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MigrationModel":
        """Rebuild a model from :meth:`to_dict` output or a scenario file."""
        check_known_fields(cls, data, "migration model")
        check_field_types(cls, data, "migration model")
        return cls(**data)


#: Default pricing: sub-second blackout, a modest copy surcharge.
DEFAULT_MIGRATION = MigrationModel()

#: Free migrations — the pre-orchestration behaviour, and the control for
#: "how much does churn cost" ablations.
FREE_MIGRATION = MigrationModel(
    downtime_s=0.0, copy_overhead_percent=0.0, copy_duration_s=0.0
)


@dataclass(frozen=True)
class MigrationEvent:
    """One executed migration (per-epoch telemetry)."""

    time: float
    vm: str
    source: str
    dest: str

    def record(self) -> dict[str, Any]:
        """Flat dict for :func:`repro.telemetry.export.records_to_csv`."""
        return {
            "time": self.time,
            "vm": self.vm,
            "source": self.source,
            "dest": self.dest,
        }
