"""Cluster-level VM: booked credit, memory footprint, demand trace."""

from __future__ import annotations

import math
from typing import Callable

from ..errors import ConfigurationError
from ..units import check_percent, check_positive


class ClusterVM:
    """A VM as the consolidation layer sees it.

    Parameters
    ----------
    name:
        Unique identifier.
    credit:
        Booked share in percent of one *max-frequency* processor — the same
        SLA notion as everywhere else in the library.
    memory_mb:
        Physical memory the VM needs wherever it is placed (the §2.3
        bottleneck: this is owed even when the VM idles).
    demand:
        ``demand(epoch_time) -> percent`` of max-frequency capacity the VM
        wants at that time — a function of time alone, since repeated
        queries at the same time reuse the last sample.  Delivery is capped
        at the booked credit.
    service_class:
        QoS class (``lc`` / ``be``); fleet QoS throttles only ``be`` VMs on
        machines whose ``lc`` VMs are short-served.  Inert without a fleet
        controller.
    """

    def __init__(
        self,
        name: str,
        *,
        credit: float,
        memory_mb: int,
        demand: Callable[[float], float],
        service_class: str = "be",
    ) -> None:
        if not name:
            raise ConfigurationError("VM name must be non-empty")
        if service_class not in ("lc", "be"):
            raise ConfigurationError(
                f"unknown service class {service_class!r}; use 'lc' or 'be'"
            )
        self.name = name
        self.credit = check_percent(credit, "credit", allow_zero=False)
        self.memory_mb = int(check_positive(memory_mb, "memory_mb"))
        self.service_class = service_class
        self._demand = demand
        # One-slot memo of the last (time, clamped demand) sample: planning
        # and serving query every VM at the same epoch time several times.
        self._sampled_at = math.nan
        self._sample = 0.0

    def demand_at(self, time: float) -> float:
        """Demand in percent at *time*, clamped to [0, credit].

        The clamp encodes fix-credit semantics at fleet scale: a VM can ask
        for at most what it bought (the thrashing case is a single-host
        scheduling problem, handled by :mod:`repro.core`).  A negative,
        NaN or infinite demand is a broken trace, not a request, and raises
        a :class:`~repro.errors.ConfigurationError`.  The demand callable
        runs once per distinct query time: a repeat query at the time of
        the previous one returns that sample.
        """
        if time == self._sampled_at:
            return self._sample
        demand = self._demand(time)
        if not 0.0 <= demand < math.inf:
            kind = "negative" if demand < 0 else "non-finite"
            raise ConfigurationError(
                f"VM {self.name!r} returned {kind} demand {demand} at t={time}"
            )
        # min(demand, credit) written out, bit for bit.
        credit = self.credit
        sample = self._sample = credit if credit < demand else demand
        self._sampled_at = time
        return sample

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterVM({self.name!r}, credit={self.credit}%, mem={self.memory_mb}MB)"
