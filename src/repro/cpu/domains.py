"""Frequency domains: clusters of cores sharing one P-state.

On big.LITTLE parts (and most multi-cluster silicon — devlib's
``module/cpufreq.py`` exposes exactly this) cores do not scale frequency
independently: each *frequency domain* (cluster) has one clock, so setting
any core's P-state moves the whole cluster.  Governors and the PAS policy
must therefore reason per-domain, not per-core.

A :class:`DomainSpec` describes one cluster: its cores, P-state table,
power model, C-state ladder and its capacity relative to the reference
host (the homogeneous machine model's "100 %").  A
:class:`FrequencyDomain` is the runtime object: current shared P-state,
busy/idle accounting with residency-aware C-state selection
(:func:`~repro.cpu.cstate.deepest_cstate`), and an energy integrator.

The invariant the coupling guarantees — and the property tests assert —
is that a core's capacity is *always* the capacity of its domain's current
P-state: there is no per-core frequency to disagree with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..errors import ConfigurationError
from ..units import check_fraction, check_non_negative, check_positive
from .cstate import CState, deepest_cstate
from .freq_table import FrequencyTable
from .power import PowerModel
from .pstate import PState

__all__ = ["DomainSpec", "FrequencyDomain", "IDLE_GAP_QUANTUM_S"]

#: Nominal scheduling quantum the intra-epoch idle-gap model assumes: a
#: partially-utilised domain idles in gaps of ``(1 - util) * quantum``
#: rather than one contiguous block, so light load keeps the domain in
#: shallow C-states while a fully idle epoch reaches the deepest state.
IDLE_GAP_QUANTUM_S = 0.01


@dataclass(frozen=True)
class DomainSpec:
    """One frequency domain (cluster) of a heterogeneous processor."""

    name: str
    #: Cores in the cluster (they share the P-state; capacity is expressed
    #: at domain level, like the homogeneous model's machine level).
    cores: int
    states: tuple[PState, ...]
    power: PowerModel = field(default_factory=PowerModel)
    #: Idle-state ladder, ascending by target residency; empty = the
    #: legacy single-idle-watt behaviour.
    cstates: tuple[CState, ...] = ()
    #: Domain capacity at its top P-state as a fraction of the reference
    #: host capacity (the homogeneous machine's 100 %).  A big.LITTLE
    #: efficiency cluster sits well below its big sibling here.
    capacity_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a frequency domain needs a non-empty name")
        if self.cores < 1:
            raise ConfigurationError(f"domain {self.name!r} needs >= 1 core, got {self.cores}")
        check_positive(self.capacity_scale, "capacity_scale")
        residencies = [state.target_residency_s for state in self.cstates]
        if residencies != sorted(residencies):
            raise ConfigurationError(
                f"domain {self.name!r}: C-states must ascend by target residency"
            )
        names = [state.name for state in self.cstates]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"domain {self.name!r}: duplicate C-state names {names}"
            )

    def table(self) -> FrequencyTable:
        """The domain's frequency table, built once and shared.

        A table is immutable, so every runtime object built from this spec
        can use the one instance (and its precomputed ladders).
        """
        return self._table

    @cached_property
    def _table(self) -> FrequencyTable:
        return FrequencyTable(self.states)


class FrequencyDomain:
    """Runtime state of one cluster: shared P-state, residency, energy.

    All cores move together: :meth:`set_frequency` is the only frequency
    knob, and :meth:`core_capacity_fraction` answers identically for every
    core index — the domain coupling governors must reason about.
    """

    def __init__(self, spec: DomainSpec) -> None:
        self.spec = spec
        self._table = spec.table()
        self.freq_mhz = self._table.max_state.freq_mhz
        self.energy_joules = 0.0
        self.busy_seconds = 0.0
        self.elapsed_seconds = 0.0
        #: Idle seconds per C-state; "C0" collects shallow idle (gaps too
        #: short for any state, plus entry/exit transition time).
        self.residency_s: dict[str, float] = {"C0": 0.0}
        for cstate in spec.cstates:
            self.residency_s[cstate.name] = 0.0
        self.last_util_fraction = 0.0
        self.last_power_w = 0.0
        self.last_cstate = "C0"

    @property
    def table(self) -> FrequencyTable:
        """The domain's P-state table (shared by all its cores)."""
        return self._table

    @property
    def state(self) -> PState:
        """Current shared P-state."""
        return self._table.state_for(self.freq_mhz)

    def set_frequency(self, freq_mhz: int) -> bool:
        """Move the whole cluster to *freq_mhz*; True when it changed.

        The frequency must be a table entry (use the table's own clamp
        queries to snap policy bounds first), exactly like the
        single-processor :meth:`~repro.cpu.processor.Processor.set_frequency`.
        """
        state = self._table.state_for(freq_mhz)
        changed = state.freq_mhz != self.freq_mhz
        self.freq_mhz = state.freq_mhz
        return changed

    # -------------------------------------------------------------- capacity

    def capacity_percent_at(self, state: PState) -> float:
        """Domain capacity at *state*, in percent of the reference host."""
        max_freq = self._table.max_state.freq_mhz
        return state.capacity_fraction(max_freq) * 100.0 * self.spec.capacity_scale

    @property
    def capacity_percent(self) -> float:
        """Capacity at the current shared P-state."""
        return self.capacity_percent_at(self.state)

    @property
    def max_capacity_percent(self) -> float:
        """Capacity at the top P-state."""
        return self.capacity_percent_at(self._table.max_state)

    def core_capacity_fraction(self, core_index: int) -> float:
        """Per-core delivered-speed fraction — identical for every core.

        The domain coupling invariant: a core cannot run at a different
        P-state than its cluster, so every core answers with the domain
        state's ``ratio * cf``.
        """
        if not 0 <= core_index < self.spec.cores:
            raise ConfigurationError(
                f"domain {self.spec.name!r} has cores 0..{self.spec.cores - 1}, "
                f"got index {core_index}"
            )
        return self.state.capacity_fraction(self._table.max_state.freq_mhz)

    # ------------------------------------------------------------ accounting

    def account_epoch(
        self, dt: float, utilization_fraction: float, *, idle_quantum_s: float = IDLE_GAP_QUANTUM_S
    ) -> float:
        """Integrate *dt* seconds at *utilization_fraction*; returns joules.

        Busy time is billed at the current P-state's full-load power.  Idle
        time is billed through the C-state ladder: a fully idle epoch is
        one gap of length *dt*; a partially utilised one idles in gaps of
        ``(1 - utilization_fraction) * idle_quantum_s`` (the scheduling-quantum
        fragmentation model), so light load stays in shallow states.  Each
        gap's entry/exit transition time is billed as C0 at the P-state's
        shallow idle power.  Residency plus busy time always sums to the
        elapsed wall time — the accounting invariant the tests assert.
        """
        check_non_negative(dt, "dt")
        check_fraction(utilization_fraction, "utilization_fraction")
        check_positive(idle_quantum_s, "idle_quantum_s")
        if dt == 0.0:
            return 0.0
        state = self.state
        busy_s = dt * utilization_fraction
        idle_s = dt - busy_s
        busy_power_w = self.spec.power.power(state, self._table, 1.0)
        shallow_idle_w = self.spec.power.power(state, self._table, 0.0)
        energy = busy_s * busy_power_w
        chosen = "C0"
        if idle_s > 0.0:
            gap_s = (
                idle_s
                if utilization_fraction == 0.0
                else (1.0 - utilization_fraction) * idle_quantum_s
            )
            cstate = deepest_cstate(self.spec.cstates, gap_s)
            if cstate is None:
                self.residency_s["C0"] += idle_s
                energy += idle_s * shallow_idle_w
            else:
                chosen = cstate.name
                # Transition time never exceeds the gap it serves.
                shallow_share = min(1.0, cstate.transition_s / gap_s)
                shallow_s = idle_s * shallow_share
                deep_s = idle_s - shallow_s
                self.residency_s["C0"] += shallow_s
                self.residency_s[cstate.name] += deep_s
                energy += shallow_s * shallow_idle_w + deep_s * cstate.power_w
        self.busy_seconds += busy_s
        self.elapsed_seconds += dt
        self.energy_joules += energy
        self.last_util_fraction = utilization_fraction
        self.last_power_w = energy / dt
        self.last_cstate = chosen if idle_s > 0.0 else "C0"
        return energy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrequencyDomain({self.spec.name!r}, {self.freq_mhz}MHz, "
            f"cores={self.spec.cores}, energy={self.energy_joules:.1f}J)"
        )
