"""Orchestration policies: how the fleet re-evaluates itself each epoch.

An :class:`OrchestrationPolicy` is consulted by the
:class:`~repro.cluster.orchestrator.Orchestrator` at every epoch and answers
with an :class:`EpochPlan`: the VM→host assignment it wants (``None`` to
keep the current placement, so "no churn" is the explicit default) plus
per-host frequency floors and ceilings (the multi-host analogue of pinning
a cpufreq policy's ``scaling_min_freq``/``scaling_max_freq``).  The
orchestrator takes each epoch's facts once and hands them to the policy:
every VM's demand sample (by name) and the live VM→host assignment, so no
policy re-samples a VM or re-reads the fleet's placement.

Registry (:data:`POLICY_REGISTRY`, addressable by name from a
:class:`~repro.cluster.scenario.ClusterScenarioConfig`):

``static``
    Provision by *booked credit* once, never migrate.  The classic
    hosting-center baseline: SLA-safe by construction, blind to the fact
    that demand rarely reaches the booking.  Once the fleet holds the
    booked placement, its plans keep it (``assignment=None``).
``consolidate``
    Demand-aware incremental packing with power-off/on hysteresis:
    overloaded hosts spill immediately, but a host is only drained and
    powered down after ``hysteresis_epochs`` consecutive epochs agree the
    fleet fits on fewer machines — so a single quiet epoch never powers a
    host down just to drag it (and a batch of migrations) back up.
``load-balance``
    Spread demand evenly over the whole fleet, a bounded number of
    hot-to-cold migrations per epoch, triggered only when the hottest and
    coldest hosts drift more than ``imbalance_percent`` apart.
    SLA-friendliest, energy-worst.
``power-budget``
    Multi-host PAS: ``consolidate`` placement plus a cluster-wide watt
    cap, enforced by steering per-host frequency floors/ceilings.  Each
    epoch every used host starts at the P-state Listing 1.1 picks for its
    demand; while the fleet's predicted package power exceeds the budget,
    the highest-drawing host is stepped down one P-state.  Delivered
    utilisation can only be lower than the demand the prediction assumes,
    so the delivered per-epoch fleet power never exceeds the cap.
``spread``
    The pre-consolidation hosting centre: VMs dealt round-robin over the
    whole fleet, memory permitting.  A §2.3 baseline, out of
    :data:`ORCHESTRATION_POLICIES`.
``consolidate-ffd``
    First-fit-decreasing by memory, recomputed every epoch; empty hosts
    power off.  The memory-bound packer of the §2.3 ablation, blind to
    CPU demand, so packed hosts stay CPU-underloaded and DVFS still pays.
    Also a baseline, out of :data:`ORCHESTRATION_POLICIES`.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import attrgetter, is_
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import ConfigurationError, ReproError
from ..obs import hooks as _obs
from ..units import check_positive
from .machine import Machine
from .vm import ClusterVM

#: A VM→host assignment: ``{vm name: machine name}``.
Assignment = Mapping[str, str]


class PlacementError(ReproError):
    """The fleet cannot host the VM set (memory-infeasible)."""


def current_assignment(machines: Sequence[Machine]) -> dict[str, str]:
    """The live VM→host assignment of a fleet."""
    # Each machine's VM dict is keyed by VM name, in placement order: read
    # it in place rather than copying a list of VMs per machine.
    return {
        vm_name: machine.name for machine in machines for vm_name in machine._vms
    }


# --------------------------------------------------------- placement orders


def efficiency_order(machines: Sequence[Machine]) -> list[Machine]:
    """Machines cheapest-to-run first (full-load watts per capacity percent).

    Efficiency-packing: fill the big.LITTLE blades before waking an i7.
    Stable on homogeneous fleets — equal efficiency everywhere, so the
    original (name) order survives and legacy placements are unchanged.
    """
    indexed = sorted(
        enumerate(machines),
        key=lambda pair: (pair[1].efficiency_w_per_percent, pair[0]),
    )
    return [machine for _, machine in indexed]


def performance_order(machines: Sequence[Machine]) -> list[Machine]:
    """Machines highest-capacity first (performance-bursting).

    Stable on homogeneous fleets for the same reason as
    :func:`efficiency_order`.
    """
    indexed = sorted(
        enumerate(machines),
        key=lambda pair: (-pair[1].capacity_percent, pair[0]),
    )
    return [machine for _, machine in indexed]


#: The heterogeneity-aware placement preferences policies accept, by name.
PLACEMENT_ORDERS: dict[str, Callable[[Sequence[Machine]], list[Machine]]] = {
    "efficiency": efficiency_order,
    "performance": performance_order,
}


def _placement_order(
    placement: str | None, default: str
) -> Callable[[Sequence[Machine]], list[Machine]]:
    name = default if placement is None else placement
    if name not in PLACEMENT_ORDERS:
        raise ConfigurationError(
            f"unknown placement preference {name!r}; "
            f"use one of: {', '.join(PLACEMENT_ORDERS)}"
        )
    return PLACEMENT_ORDERS[name]


@dataclass
class EpochPlan:
    """What a policy wants done before the fleet serves one epoch.

    ``assignment=None`` keeps the current placement (zero migrations);
    floors/ceilings are MHz bounds per machine name, applied after the
    machine's own DVFS choice.
    """

    assignment: Assignment | None = None
    freq_floors: Mapping[str, int] = field(default_factory=dict)
    freq_ceilings: Mapping[str, int] = field(default_factory=dict)


class OrchestrationPolicy:
    """Base class: re-evaluated by the orchestrator every epoch."""

    #: Registry name (set by subclasses).
    name = "abstract"

    def plan(
        self,
        machines: Sequence[Machine],
        vms: Sequence[ClusterVM],
        demands: Mapping[str, float],
        current: Assignment,
        *,
        time: float,
        epoch_index: int,
        epoch_s: float,
        dvfs: bool,
    ) -> EpochPlan:
        """The plan for the epoch starting at *time*.

        *demands* holds every VM's demand sample at *time*, keyed by VM
        name (exactly the names of *vms*); *current* is the live placement
        (:func:`current_assignment` of *machines*).  Both are read-only.
        """
        raise NotImplementedError


# ------------------------------------------------------------------ packing


def pack_first_fit(
    machines: Sequence[Machine],
    vms: Sequence[ClusterVM],
    weight: Callable[[ClusterVM], float],
    *,
    limit_percent: float,
) -> dict[str, str]:
    """First-fit-decreasing by *weight* under memory + CPU-share limits.

    VMs are sorted by descending weight (name-tiebroken) and placed on the
    first machine where the memory footprint fits and the accumulated
    weight plus the hypervisor overhead stays within *limit_percent* of
    that machine's max-frequency capacity (its ``capacity_percent``, so a
    smaller big.LITTLE blade admits proportionally less than an i7).  A VM
    whose weight alone exceeds the limit is still placed — alone on an
    empty machine — so overloads degrade to clipped service rather than
    unplaceable fleets.  Machines are tried in the order given: pass an
    :func:`efficiency_order` / :func:`performance_order` view to steer
    heterogeneous packing.  A machine that can take no further VM is no
    longer visited: its free memory dropped below the smallest VM's
    footprint, or it holds load and even the smallest weight (the last to
    be placed) would no longer fit its budget.  Hosts are scanned by
    position in plain lists, not looked up by name.
    """
    names = [machine.name for machine in machines]
    loads = [0.0] * len(names)
    free_mb = [machine.spec.memory_mb for machine in machines]
    budgets = [
        limit_percent * (machine.capacity_percent / 100.0)
        - machine.spec.overhead_percent
        for machine in machines
    ]
    smallest_mb = min((vm.memory_mb for vm in vms), default=0)
    # Each weight is read once; names are unique, so no VM is compared.
    ordered = sorted([(-weight(vm), vm.name, vm) for vm in vms])
    smallest_share = -ordered[-1][0] if ordered else 0.0
    open_hosts = list(range(len(names)))
    assignment: dict[str, str] = {}
    for negated, vm_name, vm in ordered:
        share = -negated
        memory_mb = vm.memory_mb
        for position, host in enumerate(open_hosts):
            if memory_mb > free_mb[host]:
                continue
            load = loads[host]
            if load + share > budgets[host] and load > 0.0:
                continue
            assignment[vm_name] = names[host]
            load = loads[host] = load + share
            free = free_mb[host] = free_mb[host] - memory_mb
            if free < smallest_mb or (
                load > 0.0 and load + smallest_share > budgets[host]
            ):
                del open_hosts[position]
            break
        else:
            raise PlacementError(
                f"VM {vm_name!r} ({memory_mb} MB) fits no machine"
            )
    return assignment


def pack_balanced(
    machines: Sequence[Machine],
    vms: Sequence[ClusterVM],
    weight: Callable[[ClusterVM], float],
) -> dict[str, str]:
    """Worst-fit by *weight*: each VM goes to the least-loaded feasible host.

    Load is measured relative to each machine's capacity, so a half-full
    big.LITTLE blade is "hotter" than a half-full i7 of twice its size.
    Hosts sit in a heap keyed ``(relative load, name)``: each pick pops
    past the hosts too full for the VM, sets them aside and pushes them
    back afterwards, so it equals the ``min`` over the feasible hosts.  A
    host whose free memory drops below the smallest VM's footprint leaves
    the heap for good.
    """
    loads: dict[str, float] = {machine.name: 0.0 for machine in machines}
    free_mb: dict[str, int] = {machine.name: machine.spec.memory_mb for machine in machines}
    scales: dict[str, float] = {
        machine.name: machine.capacity_percent / 100.0 for machine in machines
    }
    smallest_mb = min((vm.memory_mb for vm in vms), default=0)
    heap = [(loads[name] / scales[name], name) for name in loads]
    heapify(heap)
    assignment: dict[str, str] = {}
    for vm in sorted(vms, key=lambda v: (-weight(v), v.name)):
        too_full = []
        while heap and vm.memory_mb > free_mb[heap[0][1]]:
            too_full.append(heappop(heap))
        if not heap:
            raise PlacementError(
                f"VM {vm.name!r} ({vm.memory_mb} MB) fits no machine"
            )
        _, name = heappop(heap)
        assignment[vm.name] = name
        loads[name] += weight(vm)
        free_mb[name] -= vm.memory_mb
        if free_mb[name] >= smallest_mb:
            heappush(heap, (loads[name] / scales[name], name))
        for entry in too_full:
            heappush(heap, entry)
    return assignment


def _hosts_used(assignment: Assignment) -> int:
    return len(set(assignment.values()))


class _FleetState:
    """A mutable scratch view of the fleet for incremental policies.

    Tracks per-host demand load and free memory as VMs are staged from
    host to host, starting from the *current* assignment (copied, never
    written); ``assignment`` is the final VM→host mapping handed to the
    orchestrator (which executes only the diff).  *order* is the host
    preference used when shopping for headroom (default: name order, which
    every placement order degenerates to on a homogeneous fleet).

    A policy keeps one state across epochs.  The constructor builds the
    parts fixed by the fleet and the population (machine and memory maps,
    capacity scales, host order); :meth:`refresh` reloads one epoch's
    loads, free memory and host → VMs index from its demands and live
    placement.  :meth:`describes` tells whether the kept state still
    matches the fleet and population a plan is handed.
    """

    def __init__(
        self,
        machines: Sequence[Machine],
        vms: Sequence[ClusterVM],
        *,
        order: Sequence[Machine] | None = None,
    ) -> None:
        self._fleet = list(machines)
        self._population = list(vms)
        self._machines = {machine.name: machine for machine in machines}
        self._memory_mb = {vm.name: vm.memory_mb for vm in vms}
        #: The host preference as machines (what ``pack_first_fit`` takes).
        self.order: list[Machine] = (
            list(order)
            if order is not None
            else sorted(machines, key=attrgetter("name"))
        )
        self._order = [machine.name for machine in self.order]
        self._names = sorted(self._machines)
        self._capacity_scale: dict[str, float] = {
            name: machine.capacity_percent / 100.0
            for name, machine in self._machines.items()
        }
        self._overhead: dict[str, float] = {
            name: machine.spec.overhead_percent
            for name, machine in self._machines.items()
        }
        self._memory_total: dict[str, int] = {
            name: machine.spec.memory_mb for name, machine in self._machines.items()
        }
        self._demands: Mapping[str, float] = {}
        self.assignment: dict[str, str] = {}
        self._position: dict[str, int] | None = None
        self._hosted: dict[str, list[str]] = {name: [] for name in self._machines}
        self._loads: dict[str, float] = dict.fromkeys(self._machines, 0.0)
        self._free_mb: dict[str, int] = dict(self._memory_total)

    def describes(self, machines: Sequence[Machine], vms: Sequence[ClusterVM]) -> bool:
        """True while *machines* and *vms* are the objects this state was built on."""
        fleet, population = self._fleet, self._population
        return (
            len(machines) == len(fleet)
            and all(map(is_, machines, fleet))
            and len(vms) == len(population)
            and all(map(is_, vms, population))
        )

    def refresh(self, demands: Mapping[str, float], current: Assignment) -> None:
        """Load one epoch: *demands* and the live *current* placement.

        Each host's load is summed from 0.0 in *current* order, as a fresh
        state would, so a kept state plans bit for bit like a rebuilt one.
        """
        self._demands = demands
        self.assignment = dict(current)
        # Host → VMs index, each list in assignment order (a VM's position
        # in ``assignment`` never changes, since ``move`` rebinds in place),
        # so ``vms_on`` answers without scanning the whole fleet.  The
        # positions are indexed on the first move.
        self._position = None
        hosted = self._hosted = {name: [] for name in self._machines}
        loads = self._loads = dict.fromkeys(self._machines, 0.0)
        free_mb = self._free_mb = dict(self._memory_total)
        memory_mb = self._memory_mb
        for vm_name, machine_name in self.assignment.items():
            hosted[machine_name].append(vm_name)
            loads[machine_name] += demands[vm_name]
            free_mb[machine_name] -= memory_mb[vm_name]

    @property
    def by_name(self) -> Mapping[str, Machine]:
        """The fleet's machines by name."""
        return self._machines

    def names(self) -> list[str]:
        """Host names in sorted order (kept, so callers must not mutate it)."""
        return self._names

    def hosts(self) -> list[str]:
        return list(self._machines)

    def used_hosts(self) -> int:
        return sum(1 for vms in self._hosted.values() if vms)

    def is_used(self, machine_name: str) -> bool:
        return bool(self._hosted[machine_name])

    def vms_on(self, machine_name: str) -> list[str]:
        return list(self._hosted[machine_name])

    def vm_count(self, machine_name: str) -> int:
        return len(self._hosted[machine_name])

    def demand(self, vm_name: str) -> float:
        return self._demands[vm_name]

    def load(self, machine_name: str) -> float:
        return self._loads[machine_name]

    def relative_load(self, machine_name: str) -> float:
        """Load as a fraction of the old 100 %-host scale (hetero-aware)."""
        return self._loads[machine_name] / self._capacity_scale[machine_name]

    def relative_loads(self) -> list[tuple[float, str]]:
        """``(relative load, name)`` of every host, in fleet order."""
        loads, scales = self._loads, self._capacity_scale
        return [(loads[name] / scales[name], name) for name in self._machines]

    def above(self, machine_name: str, limit_percent: float) -> bool:
        """True when load plus overhead exceeds *limit_percent* (capacity-scaled)."""
        return (
            self._loads[machine_name] + self._overhead[machine_name]
            > limit_percent * self._capacity_scale[machine_name]
        )

    def capacity_scale(self, machine_name: str) -> float:
        """``capacity_percent / 100`` — exactly 1.0 on legacy hosts."""
        return self._capacity_scale[machine_name]

    def overhead(self, machine_name: str) -> float:
        return self._overhead[machine_name]

    def fits(self, vm_name: str, machine_name: str) -> bool:
        return self._memory_mb[vm_name] <= self._free_mb[machine_name]

    def move(self, vm_name: str, dest: str) -> None:
        source = self.assignment[vm_name]
        self._loads[source] -= self._demands[vm_name]
        self._free_mb[source] += self._memory_mb[vm_name]
        self._loads[dest] += self._demands[vm_name]
        self._free_mb[dest] -= self._memory_mb[vm_name]
        self.assignment[vm_name] = dest
        self._hosted[source].remove(vm_name)
        if self._position is None:
            self._position = {vm: index for index, vm in enumerate(self.assignment)}
        insort(self._hosted[dest], vm_name, key=self._position.__getitem__)

    def host_with_headroom(
        self,
        vm_name: str,
        limit_percent: float,
        *,
        exclude: str,
        powered_only: bool = False,
    ) -> str | None:
        """First host that can absorb *vm_name* under *limit_percent*.

        Already-used hosts are preferred (in the state's placement order);
        an empty host — a power-on — is the fallback unless
        ``powered_only``.  The limit scales with each host's capacity, so
        a small blade fills up (proportionally) as fast as a big one.
        """
        share = self._demands[vm_name]
        memory_mb = self._memory_mb[vm_name]
        hosted, loads, free_mb = self._hosted, self._loads, self._free_mb
        # Used hosts first, then (unless powered_only) the empty ones.
        for used in (True,) if powered_only else (True, False):
            for name in self._order:
                if name == exclude or bool(hosted[name]) != used:
                    continue
                budget = limit_percent * self._capacity_scale[name] - self._overhead[name]
                if memory_mb <= free_mb[name] and loads[name] + share <= budget:
                    return name
        return None


def _kept_state(
    state: _FleetState | None,
    machines: Sequence[Machine],
    vms: Sequence[ClusterVM],
    order: Callable[[Sequence[Machine]], list[Machine]] | None = None,
) -> _FleetState:
    """*state* while it describes *machines* and *vms*, else a fresh one.

    A policy keeps its state, placement order included, across epochs;
    a new fleet or population (a list replaced, a VM swapped for another
    object) rebuilds it through the constructor.
    """
    if state is not None and state.describes(machines, vms):
        return state
    return _FleetState(machines, vms, order=None if order is None else order(machines))


# ----------------------------------------------------------------- policies


class StaticPolicy(OrchestrationPolicy):
    """Credit-reserved placement computed once; zero migrations forever.

    Defaults to *performance* placement on mixed fleets: a static booking
    is sized for the worst case, so it books the biggest machines first.
    """

    name = "static"

    def __init__(
        self,
        *,
        reserve_percent: float = 100.0,
        placement: str | None = None,
    ) -> None:
        self.reserve_percent = check_positive(reserve_percent, "reserve_percent")
        self._order = _placement_order(placement, "performance")
        self._assignment: dict[str, str] | None = None

    def plan(
        self, machines, vms, demands, current, *, time, epoch_index, epoch_s, dvfs
    ) -> EpochPlan:
        if self._assignment is None or self._assignment.keys() != demands.keys():
            self._assignment = pack_first_fit(
                self._order(machines),
                vms,
                lambda vm: vm.credit,
                limit_percent=self.reserve_percent,
            )
        if current == self._assignment:
            return EpochPlan()
        return EpochPlan(assignment=self._assignment)


class ConsolidatePolicy(OrchestrationPolicy):
    """Demand-aware incremental packing with host power-off/on hysteresis.

    Three incremental rules instead of wholesale repacking (a fresh FFD
    every epoch would migrate half the fleet on every demand wiggle):

    * **spill** — a host whose demand exceeds ``spill_percent`` sheds its
      largest VMs to hosts with headroom (powering one on if none has any)
      until it is back under ``target_percent``; immediate, no hysteresis,
      because unserved demand is an SLA breach *now*;
    * **drain** — when a first-fit packing says the fleet would fit on
      fewer hosts for ``hysteresis_epochs`` consecutive epochs, the
      least-loaded host is drained (one host per epoch) and powers off;
    * otherwise — do nothing: the explicit no-churn default.

    Defaults to *efficiency* placement on mixed fleets: consolidation
    exists to cut watts, so it fills the cheapest machines (full-load W
    per capacity percent) first and wakes the big burners last.
    """

    name = "consolidate"

    def __init__(
        self,
        *,
        target_percent: float = 75.0,
        spill_percent: float = 88.0,
        hysteresis_epochs: int = 3,
        placement: str | None = None,
    ) -> None:
        self._order = _placement_order(placement, "efficiency")
        self.target_percent = check_positive(target_percent, "target_percent")
        self.spill_percent = check_positive(spill_percent, "spill_percent")
        if spill_percent <= target_percent:
            raise ConfigurationError(
                f"spill_percent ({spill_percent}) must exceed target_percent "
                f"({target_percent}) or every epoch would both spill and drain"
            )
        if hysteresis_epochs < 1:
            raise ConfigurationError(
                f"hysteresis_epochs must be >= 1, got {hysteresis_epochs}"
            )
        self.hysteresis_epochs = hysteresis_epochs
        self._shrink_streak = 0
        self._state: _FleetState | None = None

    def plan(
        self, machines, vms, demands, current, *, time, epoch_index, epoch_s, dvfs
    ) -> EpochPlan:
        state = self._state = _kept_state(self._state, machines, vms, self._order)
        if current.keys() != demands.keys():
            # First epoch, or the VM population changed: pack from scratch.
            self._shrink_streak = 0
            return EpochPlan(
                assignment=pack_first_fit(
                    state.order,
                    vms,
                    lambda vm: demands[vm.name],
                    limit_percent=self.target_percent,
                )
            )
        state.refresh(demands, current)
        moved = self._spill(state)
        if moved:
            self._shrink_streak = 0
            return EpochPlan(assignment=state.assignment)
        desired_hosts = _hosts_used(
            pack_first_fit(
                state.order,
                vms,
                lambda vm: demands[vm.name],
                limit_percent=self.target_percent,
            )
        )
        if desired_hosts < state.used_hosts():
            self._shrink_streak += 1
            if self._shrink_streak >= self.hysteresis_epochs and self._drain(state):
                self._shrink_streak = 0
                return EpochPlan(assignment=state.assignment)
        else:
            self._shrink_streak = 0
        return EpochPlan()

    def _spill(self, state: "_FleetState") -> bool:
        """Shed load from every host above its (capacity-scaled) threshold."""
        moved = False
        for name in state.names():
            while state.above(name, self.spill_percent) and state.vm_count(name) > 1:
                vm = max(state.vms_on(name), key=lambda v: (state.demand(v), v))
                dest = state.host_with_headroom(
                    vm, self.target_percent, exclude=name
                )
                if dest is None:
                    break
                state.move(vm, dest)
                moved = True
        return moved

    def _drain(self, state: "_FleetState") -> bool:
        """Empty the least-loaded host into the others; False if it won't fit."""
        used = [name for name in state.hosts() if state.is_used(name)]
        if len(used) < 2:
            return False
        coldest = min(used, key=lambda name: (state.relative_load(name), name))
        staged: list[tuple[str, str]] = []
        for vm in sorted(
            state.vms_on(coldest), key=lambda v: (-state.demand(v), v)
        ):
            dest = state.host_with_headroom(
                vm, self.target_percent, exclude=coldest, powered_only=True
            )
            if dest is None:
                return False  # the drain would not fit; keep the host on
            state.move(vm, dest)
            staged.append((vm, dest))
        return bool(staged)


class LoadBalancePolicy(OrchestrationPolicy):
    """Even demand spread over the fleet, a few migrations at a time.

    When the hottest and coldest hosts drift more than
    ``imbalance_percent`` apart, up to ``max_moves_per_epoch`` VMs hop from
    hot to cold (each the VM whose demand best fills half the gap) — the
    classic iterative balancer, bounded so one noisy epoch never reshuffles
    the whole fleet.
    """

    name = "load-balance"

    def __init__(
        self, *, imbalance_percent: float = 15.0, max_moves_per_epoch: int = 2
    ) -> None:
        self.imbalance_percent = check_positive(imbalance_percent, "imbalance_percent")
        if max_moves_per_epoch < 1:
            raise ConfigurationError(
                f"max_moves_per_epoch must be >= 1, got {max_moves_per_epoch}"
            )
        self.max_moves_per_epoch = max_moves_per_epoch
        self._state: _FleetState | None = None

    def plan(
        self, machines, vms, demands, current, *, time, epoch_index, epoch_s, dvfs
    ) -> EpochPlan:
        if current.keys() != demands.keys():
            return EpochPlan(
                assignment=pack_balanced(machines, vms, lambda vm: demands[vm.name])
            )
        state = self._state = _kept_state(self._state, machines, vms)
        state.refresh(demands, current)
        moved = False
        for _ in range(self.max_moves_per_epoch):
            # Capacity-relative load, so a mixed fleet balances fill level
            # rather than absolute percent (identical on legacy fleets);
            # host names break ties.
            ranked = state.relative_loads()
            hot_load, hottest = max(ranked)
            cold_load, coldest = min(ranked)
            gap = hot_load - cold_load
            if gap <= self.imbalance_percent:
                break
            scale = state.capacity_scale(hottest)
            # Strictly less than the gap: a move of exactly the gap just
            # swaps which host is hot and ping-pongs the VM forever.
            candidates = [
                vm
                for vm in state.vms_on(hottest)
                if state.fits(vm, coldest) and 0.0 < state.demand(vm) / scale < gap
            ]
            if not candidates:
                break
            # The VM whose demand lands closest to half the gap evens the
            # pair best without overshooting into a reverse imbalance.
            vm = min(
                candidates,
                key=lambda v: (abs(state.demand(v) / scale - gap / 2.0), v),
            )
            state.move(vm, coldest)
            moved = True
        if moved:
            return EpochPlan(assignment=state.assignment)
        return EpochPlan()


class PowerBudgetPolicy(ConsolidatePolicy):
    """Cluster-wide watt cap via per-host frequency steering (multi-host PAS).

    Placement is inherited from :class:`ConsolidatePolicy` (packing shrinks
    the fleet's idle-power floor, which frequency steering alone cannot
    touch); on top of it, every epoch distributes the watt budget: each
    used host starts at the P-state Listing 1.1 picks for its demand, and
    while the fleet's predicted package power exceeds the budget the
    highest-drawing host is stepped down one P-state.  The resulting
    frequency is pinned per host (floor = ceiling), so delivered power is
    never above the prediction: delivered utilisation can only fall short
    of the demand the prediction assumes, and hosts touched by this
    epoch's own migrations (drained sources included) are predicted at
    full utilisation so dirty-page copy overhead cannot push them past the
    admitted draw.
    """

    name = "power-budget"

    def __init__(
        self,
        *,
        budget_w: float | None,
        target_percent: float = 75.0,
        spill_percent: float = 88.0,
        hysteresis_epochs: int = 3,
        placement: str | None = None,
    ) -> None:
        if budget_w is None:
            raise ConfigurationError(
                "the power-budget policy needs a cluster watt cap; "
                "set power_budget_w on the cluster scenario config"
            )
        super().__init__(
            target_percent=target_percent,
            spill_percent=spill_percent,
            hysteresis_epochs=hysteresis_epochs,
            placement=placement,
        )
        self.budget_w = check_positive(budget_w, "budget_w")

    def plan(
        self, machines, vms, demands, current, *, time, epoch_index, epoch_s, dvfs
    ) -> EpochPlan:
        placement = super().plan(
            machines,
            vms,
            demands,
            current,
            time=time,
            epoch_index=epoch_index,
            epoch_s=epoch_s,
            dvfs=dvfs,
        )
        assignment = (
            placement.assignment if placement.assignment is not None else current
        )
        # Hosts a migration touches this epoch carry copy overhead the
        # demand numbers do not show; budget them at full utilisation.
        migrating = (
            set()
            if placement.assignment is None
            else {
                host
                for vm_name, dest in assignment.items()
                if current.get(vm_name) not in (None, dest)
                for host in (current[vm_name], dest)
            }
        )
        hosted: dict[str, float] = {}
        for vm_name, machine_name in assignment.items():
            hosted[machine_name] = hosted.get(machine_name, 0.0) + demands[vm_name]
        # A source drained by this epoch's migrations hosts nothing in the
        # new assignment, yet stays powered through the epoch sending its
        # dirty pages: it must be budgeted (and pinned) like the rest.
        for machine_name in migrating:
            hosted.setdefault(machine_name, 0.0)
        by_name = self._state.by_name
        chosen: dict[str, int] = {}
        for machine_name, demand in sorted(hosted.items()):
            machine = by_name[machine_name]
            total = demand + machine.spec.overhead_percent
            if dvfs:
                chosen[machine_name] = machine.plan_frequency(total)
            else:
                chosen[machine_name] = machine.max_freq_mhz

        def predicted(machine_name: str) -> float:
            machine = by_name[machine_name]
            total = hosted[machine_name] + machine.spec.overhead_percent
            return machine.predict_power(
                total,
                chosen[machine_name],
                full_util=machine_name in migrating,
            )

        # Each host is predicted once, then again only when it steps down;
        # summing in ``chosen`` order keeps the float total bit-stable.
        watts = {name: predicted(name) for name in chosen}
        # The hottest host that can still step down, from a max-heap keyed
        # (watts, name): ``chosen`` is in name order, so its index breaks
        # ties exactly as a max over (watts, name) does.
        heap = [
            (-watts[name], -index, name)
            for index, name in enumerate(chosen)
            if chosen[name] > by_name[name].min_freq_mhz
        ]
        heapify(heap)
        while heap and sum(watts.values()) > self.budget_w:
            _, rank, hottest = heappop(heap)
            machine = by_name[hottest]
            chosen[hottest] = machine.step_down_choice(chosen[hottest])
            watts[hottest] = predicted(hottest)
            if chosen[hottest] > machine.min_freq_mhz:
                heappush(heap, (-watts[hottest], rank, hottest))
        # An empty heap over budget: the cap is infeasible even with every
        # host at its floor, so the fleet serves over it this epoch.
        if not heap and sum(watts.values()) > self.budget_w:
            metrics = _obs.METRICS
            if metrics is not None:
                metrics.inc("cluster.cap_infeasible_epochs")
        return EpochPlan(
            assignment=placement.assignment,
            freq_floors=dict(chosen),
            freq_ceilings=dict(chosen),
        )


def _memory_fit(
    vm: ClusterVM, candidates: Iterable[Machine], free_mb: dict[str, int]
) -> str:
    """Claim *vm*'s memory on the first candidate it fits; that host's name."""
    for machine in candidates:
        if vm.memory_mb <= free_mb[machine.name]:
            free_mb[machine.name] -= vm.memory_mb
            return machine.name
    raise PlacementError(f"VM {vm.name!r} ({vm.memory_mb} MB) fits no machine")


class SpreadPolicy(OrchestrationPolicy):
    """Round-robin placement over the whole fleet (no consolidation).

    VM *i*, in name order, goes to the first machine from ``machines[i %
    n]`` onwards that has memory left for it, so every machine hosts a VM
    whenever the population is at least as large as the fleet.  The plan
    is recomputed every epoch and moves nothing unless the population
    changes; a machine left empty powers off like under any other policy.
    """

    name = "spread"

    def plan(
        self, machines, vms, demands, current, *, time, epoch_index, epoch_s, dvfs
    ) -> EpochPlan:
        free_mb = {machine.name: machine.spec.memory_mb for machine in machines}
        count = len(machines)
        assignment = {
            vm.name: _memory_fit(
                vm,
                (machines[(index + offset) % count] for offset in range(count)),
                free_mb,
            )
            for index, vm in enumerate(sorted(vms, key=lambda v: v.name))
        }
        return EpochPlan(assignment=assignment)


class FirstFitPolicy(OrchestrationPolicy):
    """First-fit-decreasing by memory: the classic consolidation packer.

    VMs, largest footprint first (name-tiebroken), go to the first machine
    in fleet order with memory left for them; every machine left empty
    powers off.  CPU demand plays no part, which is the §2.3 point: the
    packing is memory-bound, so packed hosts stay CPU-underloaded.
    """

    name = "consolidate-ffd"

    def plan(
        self, machines, vms, demands, current, *, time, epoch_index, epoch_s, dvfs
    ) -> EpochPlan:
        free_mb = {machine.name: machine.spec.memory_mb for machine in machines}
        assignment = {
            vm.name: _memory_fit(vm, machines, free_mb)
            for vm in sorted(vms, key=lambda v: (-v.memory_mb, v.name))
        }
        return EpochPlan(assignment=assignment)


#: Every policy addressable by name, in documentation order.
POLICY_REGISTRY: dict[str, type[OrchestrationPolicy]] = {
    StaticPolicy.name: StaticPolicy,
    ConsolidatePolicy.name: ConsolidatePolicy,
    LoadBalancePolicy.name: LoadBalancePolicy,
    PowerBudgetPolicy.name: PowerBudgetPolicy,
    SpreadPolicy.name: SpreadPolicy,
    FirstFitPolicy.name: FirstFitPolicy,
}

#: The orchestration policies proper — the ones the ``dc-*`` presets and the
#: ``orchestration`` claim compare.  ``spread`` and ``consolidate-ffd`` are
#: §2.3 placement baselines: registered, but left out of the comparison.
ORCHESTRATION_POLICIES = ("static", "consolidate", "load-balance", "power-budget")


def make_policy(
    name: str,
    *,
    power_budget_w: float | None = None,
    placement: str | None = None,
) -> OrchestrationPolicy:
    """Instantiate the registered policy *name*.

    ``power_budget_w`` feeds the ``power-budget`` policy (required there,
    ignored elsewhere); ``placement`` overrides the policy's default
    heterogeneity preference (``"efficiency"`` / ``"performance"``,
    ``None`` keeps each policy's own default; policies without one ignore
    it).  Unknown names raise a :class:`ConfigurationError` listing the
    registry.
    """
    if name not in POLICY_REGISTRY:
        raise ConfigurationError(
            f"unknown orchestration policy {name!r}; "
            f"use one of: {', '.join(POLICY_REGISTRY)}"
        )
    if name == PowerBudgetPolicy.name:
        return PowerBudgetPolicy(budget_w=power_budget_w, placement=placement)
    if name in (StaticPolicy.name, ConsolidatePolicy.name):
        return POLICY_REGISTRY[name](placement=placement)
    return POLICY_REGISTRY[name]()
