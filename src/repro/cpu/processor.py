"""The runtime processor model.

A :class:`Processor` is the single physical CPU of the simulated host (the
paper's testbed ran "in single processor mode").  It converts wall-clock time
into *absolute seconds* of delivered work according to the paper's own
performance law (Eq. 1/2):

    work_delivered = dt * ratio_i * cf_i        [absolute seconds]

where ``ratio_i = F_i / F_max`` and ``cf_i`` is the per-P-state correction
factor.  The processor also integrates energy (via a :class:`PowerModel`) and
counts DVFS transitions — the statistics the governor benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from ..errors import ConfigurationError, FrequencyError
from ..units import check_fraction, check_non_negative
from .domains import DomainSpec
from .freq_table import FrequencyTable
from .power import PowerModel
from .pstate import PState

_INF = float("inf")


@dataclass(frozen=True)
class ProcessorSpec:
    """Immutable description of a processor model.

    Catalog entries (:mod:`repro.cpu.catalog`) are instances of this class;
    a :class:`Processor` is the mutable runtime object built from one.

    Heterogeneous parts additionally carry ``domains`` — per-cluster
    frequency domains (:class:`~repro.cpu.domains.DomainSpec`, big.LITTLE
    style).  For those parts the top-level ``states``/``power`` mirror the
    performance cluster, so every legacy single-table consumer still works;
    domain-aware consumers (the cluster machine model) branch on
    :attr:`is_heterogeneous`.
    """

    name: str
    states: tuple[PState, ...]
    power: PowerModel = field(default_factory=PowerModel)
    #: DVFS transition latency in seconds (tens of microseconds on real
    #: parts; kept for fidelity and ablation, negligible at default).
    transition_latency: float = 50e-6
    #: Per-cluster frequency domains; empty = homogeneous (every core
    #: scales with the one table above).
    domains: tuple[DomainSpec, ...] = ()

    def table(self) -> FrequencyTable:
        """The spec's frequency table, built once and shared.

        A table is immutable, so every runtime object built from this spec
        can use the one instance (and its precomputed ladders).
        """
        return self._table

    @cached_property
    def _table(self) -> FrequencyTable:
        return FrequencyTable(self.states)

    @property
    def is_heterogeneous(self) -> bool:
        """True when the part has per-cluster frequency domains."""
        return bool(self.domains)

    @property
    def total_cores(self) -> int:
        """Cores across all domains (1 for homogeneous single-table parts)."""
        if self.domains:
            return sum(domain.cores for domain in self.domains)
        return 1

    @property
    def max_freq_mhz(self) -> int:
        """Maximum frequency in MHz."""
        return max(state.freq_mhz for state in self.states)

    @property
    def min_freq_mhz(self) -> int:
        """Minimum frequency in MHz."""
        return min(state.freq_mhz for state in self.states)


class Processor:
    """Mutable runtime processor: current P-state, work, energy, transitions.

    The hypervisor calls :meth:`work_available` to convert a wall-clock slice
    into deliverable absolute work, and :meth:`account` after each slice to
    integrate energy.  Governors change the operating point through
    :meth:`set_frequency` (normally via :class:`~repro.cpu.cpufreq.CpuFreq`).
    """

    def __init__(self, spec: ProcessorSpec) -> None:
        self._spec = spec
        self._table = spec.table()
        self._state = self._table.max_state
        self._transitions = 0
        self._transition_time_total = 0.0
        self._energy_joules = 0.0
        self._busy_seconds = 0.0
        self._elapsed_seconds = 0.0
        self._time_in_state: dict[int, float] = {f: 0.0 for f in self._table.frequencies}
        # Per-state caches for the dispatch hot path.  All three are pure
        # functions of the (immutable) state, so serving them from a cache
        # is bit-identical to recomputing them on every slice boundary.
        max_freq = self._table.max_state.freq_mhz
        self._capacity_cache: dict[int, float] = {
            state.freq_mhz: state.capacity_fraction(max_freq)
            for state in self._table.states
        }
        self._power_cache: dict[tuple[int, float], float] = {
            (state.freq_mhz, util): spec.power.power(state, self._table, util)
            for state in self._table.states
            for util in (0.0, 1.0)
        }
        self._refresh_state_cache()

    def _refresh_state_cache(self) -> None:
        freq_mhz = self._state.freq_mhz
        #: Time-in-state key of the current state (read on every bill).
        self._freq_key = freq_mhz
        self._capacity = self._capacity_cache[freq_mhz]
        self._power_idle = self._power_cache[(freq_mhz, 0.0)]
        self._power_busy = self._power_cache[(freq_mhz, 1.0)]

    # ------------------------------------------------------------- identity

    @property
    def spec(self) -> ProcessorSpec:
        """The immutable spec this processor was built from."""
        return self._spec

    @property
    def table(self) -> FrequencyTable:
        """The processor's frequency table."""
        return self._table

    @property
    def state(self) -> PState:
        """Current P-state."""
        return self._state

    @property
    def frequency_mhz(self) -> int:
        """Current frequency in MHz."""
        return self._state.freq_mhz

    @property
    def max_frequency_mhz(self) -> int:
        """Maximum supported frequency in MHz."""
        return self._table.max_state.freq_mhz

    # -------------------------------------------------------------- capacity

    @property
    def ratio(self) -> float:
        """Paper's ``ratio_i = F_i / F_max`` for the current state."""
        return self._state.ratio_to(self.max_frequency_mhz)

    @property
    def cf(self) -> float:
        """Correction factor ``cf_i`` of the current state."""
        return self._state.cf

    @property
    def capacity_fraction(self) -> float:
        """Delivered speed as a fraction of maximum speed (``ratio * cf``)."""
        return self._capacity

    def work_available(self, dt: float) -> float:
        """Absolute seconds of work deliverable in *dt* wall seconds."""
        check_non_negative(dt, "dt")
        return dt * self._capacity

    def wall_time_for(self, work: float) -> float:
        """Wall seconds needed to deliver *work* absolute seconds now."""
        check_non_negative(work, "work")
        return work / self._capacity

    # ------------------------------------------------------------ transitions

    def set_frequency(self, freq_mhz: int) -> bool:
        """Switch to the P-state at *freq_mhz*.

        Returns True when the state actually changed.  Raises
        :class:`FrequencyError` for frequencies not in the table — governors
        must only request table entries (they use the table's own queries).
        """
        new_state = self._table.state_for(freq_mhz)
        if new_state is self._state:
            return False
        self._state = new_state
        self._refresh_state_cache()
        self._transitions += 1
        self._transition_time_total += self._spec.transition_latency
        return True

    @property
    def transitions(self) -> int:
        """Number of completed DVFS transitions."""
        return self._transitions

    @property
    def transition_overhead_seconds(self) -> float:
        """Total time spent switching states (latency * transitions)."""
        return self._transition_time_total

    # --------------------------------------------------------------- account

    def account(self, dt: float, busy_fraction: float) -> float:
        """Integrate *dt* wall seconds at the current state.

        *busy_fraction* is the share of *dt* during which a vCPU was
        dispatched (1.0 for a fully busy slice, 0.0 for idle time).
        Returns the energy consumed over the interval in joules, so the
        caller can attribute it (the host charges it to the running
        domain for per-VM energy accounting).

        The two utilisations the dispatch loop ever bills go to
        :meth:`_bill_busy` and :meth:`_bill_idle`, which the host also
        calls directly once it has established ``dt > 0``.
        """
        if not 0.0 < dt < _INF:
            check_non_negative(dt, "dt")  # negative or non-finite: raises
            return 0.0
        if busy_fraction == 1.0:
            return self._bill_busy(dt)
        if busy_fraction == 0.0:
            return self._bill_idle(dt)
        check_fraction(busy_fraction, "busy_fraction")
        self._elapsed_seconds += dt
        self._busy_seconds += dt * busy_fraction
        self._time_in_state[self._freq_key] += dt
        energy = self._spec.power.energy(self._state, self._table, busy_fraction, dt)
        self._energy_joules += energy
        return energy

    def _bill_busy(self, dt: float) -> float:
        """:meth:`account` for a fully busy interval; caller ensures ``dt > 0``.

        The power model is a pure function of (state, utilisation), so the
        per-state cached wattage times *dt* is bit-identical to the model's
        own ``power * dt``.
        """
        self._elapsed_seconds += dt
        self._busy_seconds += dt
        self._time_in_state[self._freq_key] += dt
        energy = self._power_busy * dt
        self._energy_joules += energy
        return energy

    def _bill_idle(self, dt: float) -> float:
        """:meth:`account` for a fully idle interval; caller ensures ``dt > 0``.

        Busy seconds are left alone: adding ``dt * 0.0`` to a non-negative
        total never changes it.
        """
        self._elapsed_seconds += dt
        self._time_in_state[self._freq_key] += dt
        energy = self._power_idle * dt
        self._energy_joules += energy
        return energy

    @property
    def energy_joules(self) -> float:
        """Total energy integrated so far."""
        return self._energy_joules

    @property
    def busy_seconds(self) -> float:
        """Total wall seconds with a vCPU dispatched."""
        return self._busy_seconds

    @property
    def elapsed_seconds(self) -> float:
        """Total wall seconds accounted."""
        return self._elapsed_seconds

    def time_in_state(self, freq_mhz: int) -> float:
        """Wall seconds spent at *freq_mhz*."""
        if freq_mhz not in self._time_in_state:
            raise FrequencyError(f"{freq_mhz} MHz not in table {list(self._table.frequencies)}")
        return self._time_in_state[freq_mhz]

    def residency(self) -> dict[int, float]:
        """Copy of the full time-in-state map (MHz -> seconds)."""
        return dict(self._time_in_state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Processor({self._spec.name!r}, {self._state}, "
            f"transitions={self._transitions}, energy={self._energy_joules:.1f}J)"
        )


def make_states(
    freqs_mhz: Sequence[int],
    *,
    cf: Sequence[float] | float = 1.0,
    voltages: Sequence[float] | None = None,
) -> tuple[PState, ...]:
    """Convenience constructor for a tuple of P-states.

    *cf* may be a single value applied everywhere or one value per frequency
    (ascending order).  Voltages default to a linear ramp from 0.85 V at the
    lowest frequency to 1.20 V at the highest, a typical desktop VID range.
    """
    freqs = sorted(freqs_mhz)
    if isinstance(cf, (int, float)):
        cfs = [float(cf)] * len(freqs)
    else:
        cfs = [float(value) for value in cf]
        if len(cfs) != len(freqs):
            raise ConfigurationError(f"got {len(cfs)} cf values for {len(freqs)} frequencies")
    if voltages is None:
        if len(freqs) == 1:
            volts = [1.2]
        else:
            low, high = 0.85, 1.20
            span = freqs[-1] - freqs[0]
            volts = [low + (high - low) * (f - freqs[0]) / span for f in freqs]
    else:
        volts = [float(value) for value in voltages]
        if len(volts) != len(freqs):
            raise ConfigurationError(f"got {len(volts)} voltages for {len(freqs)} frequencies")
    return tuple(
        PState(freq_mhz=f, voltage=v, cf=c) for f, v, c in zip(freqs, volts, cfs)
    )
