"""Property-based checks that every inlined hot-path copy matches its original.

The dispatch loop writes a few small methods out in place to save call
frames: the Credit scheduler's cap rule (``_Account.cap_budget``, the
account's cached ``cap_limit`` less its period usage) inside
``pick_next`` / ``slice_for`` / ``charge``, its requeue (``put_back``), the
processor's busy and idle billing behind ``Processor.account``, and the
periodic-timer re-arm (``PeriodicTimer._fire``) inside the engine's
untraced ``run_until`` loop.  Each test drives the copy and the original
from the same random state and demands the same decision or the same bits.
"""

import heapq
import math

from hypothesis import given, settings, strategies as st

from repro import Host, catalog
from repro.cpu import Processor
from repro.obs.hooks import observed
from repro.obs.trace import Tracer
from repro.schedulers.credit import MIN_BUDGET
from repro.sim import Engine, PeriodicTimer

PERIOD = 0.03


def _exact_edges() -> list[tuple[float, float]]:
    """(cap, usage) pairs whose remaining budget is exactly ``MIN_BUDGET``.

    Random floats all but never land on the park threshold itself, so the
    ``>`` / ``<=`` choice in each copy would go untested without these.
    """
    edges = []
    for k in (1, 2):
        cap = k * MIN_BUDGET / PERIOD * 100.0
        for _ in range(8):
            if cap / 100.0 * PERIOD == k * MIN_BUDGET:
                break
            cap = math.nextafter(cap, math.inf)
        usage = (k - 1) * MIN_BUDGET
        if cap / 100.0 * PERIOD - usage == MIN_BUDGET:
            edges.append((cap, usage))
    assert edges, "no exact park-edge state found"
    return edges


EDGES = _exact_edges()


@st.composite
def cap_and_usage(draw):
    """A cap (0 = uncapped) and period usage, often right at the park edge."""
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        return draw(st.sampled_from(EDGES))
    # Caps past 100 % occur: PAS compensation can raise a cap beyond it.
    cap = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=200.0)))
    limit = cap / 100.0 * PERIOD
    usage = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=2 * PERIOD),
            st.sampled_from([0.0, 1e-12, MIN_BUDGET, 2 * MIN_BUDGET]).map(
                lambda off: max(limit - off, 0.0)
            ),
        )
    )
    return cap, usage


def credit_account(cap: float, usage: float):
    host = Host(scheduler="credit", governor="performance")
    domain = host.create_domain("vm", credit=50)
    scheduler = host.scheduler
    account = scheduler._accounts["vm"]
    # Through set_cap, which refreshes the account's cached cap limit.
    scheduler.set_cap(domain, cap)
    account.usage_in_period = usage
    return scheduler, domain.vcpu, account


def test_cap_limit_is_the_expression_the_copies_used():
    # The cached limit is the exact float the copies once computed inline,
    # and an uncapped account's limit is inf (cap_budget's uncapped value).
    for cap, _ in [*EDGES, (50.0, 0.0), (3.7, 0.0), (150.0, 0.0)]:
        scheduler, _, account = credit_account(cap, 0.0)
        assert account.cap_limit == cap / 100.0 * scheduler.accounting_period
    scheduler, _, account = credit_account(0.0, 0.01)
    assert account.cap_limit == math.inf and account.cap_budget() == math.inf


@given(state=cap_and_usage(), credit_s=st.floats(min_value=-0.1, max_value=0.1))
@settings(max_examples=200, deadline=None)
def test_pick_next_copy_matches_cap_budget(state, credit_s):
    scheduler, vcpu, account = credit_account(*state)
    account.credit_s = credit_s
    vcpu.mark_runnable()
    scheduler.wake(vcpu)
    eligible = account.cap_budget() > MIN_BUDGET
    assert (scheduler.pick_next(0.0) is vcpu) == eligible


@given(state=cap_and_usage())
@settings(max_examples=200, deadline=None)
def test_slice_for_copy_matches_cap_budget(state):
    scheduler, vcpu, account = credit_account(*state)
    expected = min(account.cap_budget(), scheduler.quantum)
    assert scheduler.slice_for(vcpu, 0.0) == expected


@given(state=cap_and_usage(), wall_dt=st.floats(min_value=0.0, max_value=PERIOD))
@settings(max_examples=200, deadline=None)
def test_charge_copy_matches_cap_budget(state, wall_dt):
    scheduler, vcpu, account = credit_account(*state)
    scheduler.charge(vcpu, wall_dt, 0.0)
    assert account.parked == (account.cap_budget() <= MIN_BUDGET)


@given(
    before=cap_and_usage(),
    after=cap_and_usage(),
    wall_dt=st.floats(min_value=0.0, max_value=PERIOD),
    credit_s=st.floats(min_value=-0.1, max_value=0.1),
)
@settings(max_examples=200, deadline=None)
def test_copies_match_cap_budget_after_a_mid_period_cap_change(before, after, wall_dt, credit_s):
    # Run on one cap, change it mid-period (as PAS and the QoS controllers
    # do through set_cap), then every copy must follow the new cap.
    scheduler, vcpu, account = credit_account(*before)
    scheduler.charge(vcpu, wall_dt, 0.0)
    cap, usage = after
    scheduler.set_cap(vcpu.domain, cap)
    assert account.cap_limit == (
        math.inf if cap <= 0.0 else cap / 100.0 * scheduler.accounting_period
    )
    account.usage_in_period = usage
    account.parked = False
    expected = min(account.cap_budget(), scheduler.quantum)
    assert scheduler.slice_for(vcpu, 0.0) == expected
    account.credit_s = credit_s
    vcpu.mark_runnable()
    scheduler.wake(vcpu)
    eligible = account.cap_budget() > MIN_BUDGET
    assert (scheduler.pick_next(0.0) is vcpu) == eligible
    scheduler.charge(vcpu, wall_dt, 0.0)
    assert account.parked == (account.cap_budget() <= MIN_BUDGET)


def two_guest_hosts():
    schedulers = []
    for _ in range(2):
        host = Host(scheduler="credit", governor="performance")
        host.create_domain("Dom0", credit=10, dom0=True)
        for name in ("a", "b", "c"):
            host.create_domain(name, credit=20)
        for domain in host.domains:
            domain.vcpu.mark_runnable()
        schedulers.append((host.scheduler, {d.name: d.vcpu for d in host.domains}))
    return schedulers


def queue_state(scheduler):
    return (
        [[account.vcpu.name for account in queue] for queue in scheduler._queue_scan],
        {name: account.queued for name, account in scheduler._accounts.items()},
    )


NAMES = st.sampled_from(["Dom0", "a", "b", "c"])


@given(
    ops=st.lists(st.tuples(st.sampled_from(["wake", "sleep", "pick"]), NAMES), max_size=12),
    target=NAMES,
)
@settings(max_examples=150, deadline=None)
def test_put_back_leaves_the_same_queues_as_wake(ops, target):
    (requeued, by_name), (woken, by_name_woken) = two_guest_hosts()
    for scheduler, vcpus in ((requeued, by_name), (woken, by_name_woken)):
        for op, name in ops:
            if op == "pick":
                scheduler.pick_next(0.0)
            else:
                getattr(scheduler, op)(vcpus[name])
    requeued.put_back(by_name[target])
    woken.wake(by_name_woken[target])
    assert queue_state(requeued) == queue_state(woken)


def books(processor: Processor) -> dict:
    return {
        "energy": processor.energy_joules.hex(),
        "busy": processor.busy_seconds.hex(),
        "elapsed": processor.elapsed_seconds.hex(),
        "residency": {f: s.hex() for f, s in processor.residency().items()},
    }


FREQS = [state.freq_mhz for state in catalog.OPTIPLEX_755.states]


@given(
    steps=st.lists(
        st.tuples(
            st.floats(min_value=1e-9, max_value=5.0),
            st.booleans(),
            st.sampled_from(FREQS),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_busy_and_idle_billing_match_account(steps):
    spec = catalog.OPTIPLEX_755
    via_account, direct = Processor(spec), Processor(spec)
    reference = {"energy": 0.0, "busy": 0.0, "elapsed": 0.0}
    residency = {f: 0.0 for f in FREQS}
    for dt, busy, freq in steps:
        for processor in (via_account, direct):
            processor.set_frequency(freq)
        fraction = 1.0 if busy else 0.0
        billed = direct._bill_busy(dt) if busy else direct._bill_idle(dt)
        assert via_account.account(dt, fraction).hex() == billed.hex()
        # The general formula, without the per-state caches.
        state = direct.state
        energy = spec.power.power(state, direct.table, fraction) * dt
        assert billed.hex() == energy.hex()
        reference["energy"] += energy
        reference["busy"] += dt * fraction
        reference["elapsed"] += dt
        residency[freq] += dt
    assert books(via_account) == books(direct)
    expected = {key: value.hex() for key, value in reference.items()}
    expected["residency"] = {f: s.hex() for f, s in residency.items()}
    assert books(direct) == expected


# ------------------------------------------------------- periodic-timer re-arm

#: Periods and one-shot delays on a coarse grid, so timers often fall due
#: at the same instant and the FIFO tie-break is exercised.
GRID = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.25])
#: What a timer's callback does on a given fire: nothing, stop, stop and
#: start again, change its period, or schedule a one-shot event that hands
#: its handle back to the free list when it fires (as the host's slice
#: events do).
ACTIONS = st.one_of(
    st.sampled_from([("none",), ("stop",), ("restart",)]),
    st.tuples(st.just("reschedule"), GRID),
    st.tuples(st.just("oneshot"), st.one_of(st.just(0.0), GRID)),
)
TIMER_SPECS = st.lists(
    st.tuples(
        GRID,
        st.booleans(),
        st.dictionaries(st.integers(min_value=1, max_value=8), ACTIONS, max_size=4),
    ),
    min_size=1,
    max_size=5,
)
HORIZON = 6.0


def timer_run(specs, mode):
    """Fire *specs* to :data:`HORIZON`; returns what each fire saw.

    *mode* is ``"inline"`` (untraced ``run_until``, which re-arms in
    place), ``"traced"`` (``run_until`` with a tracer installed) or
    ``"step"`` (``Engine.step``); the last two go through
    ``PeriodicTimer._fire``.
    """
    engine = Engine()
    fired = []
    timers = []
    #: Sequence number each timer's pending handle was armed with.
    armed = {}

    def oneshot(delay, tag):
        box = []

        def fire():
            handle = box[0]
            fired.append((engine.now, handle.sequence, handle.label))
            engine.release(handle)

        box.append(engine.schedule(delay, fire, label=f"oneshot.{tag}"))

    def make_callback(index, actions):
        def callback(now):
            timer = timers[index]
            assert now == engine.now
            fired.append((now, armed[index], f"timer.{index}"))
            armed[index] = timer._handle.sequence
            action = actions.get(timer.fire_count, ("none",))
            if action[0] == "stop":
                timer.stop()
            elif action[0] == "restart":
                timer.stop()
                timer.start()
                armed[index] = timer._handle.sequence
            elif action[0] == "reschedule":
                timer.reschedule(action[1])
            elif action[0] == "oneshot":
                oneshot(action[1], f"{index}.{timer.fire_count}")

        return callback

    for index, (period, immediately, actions) in enumerate(specs):
        timer = PeriodicTimer(
            engine,
            period,
            make_callback(index, actions),
            label=f"timer.{index}",
            fire_immediately=immediately,
        )
        timers.append(timer)
        timer.start()
        armed[index] = timer._handle.sequence
    oneshot(0.5, "seed")
    if mode == "step":
        heap = engine._heap
        while heap:
            if heap[0][2].cancelled:
                heapq.heappop(heap)
            elif heap[0][0] > HORIZON:
                break
            else:
                engine.step()
    elif mode == "traced":
        tracer = Tracer()
        with observed(tracer=tracer):
            for until in (1.0, 2.5, HORIZON):
                engine.run_until(until)
        labels = [event["name"] for event in tracer.events if event["cat"] == "engine"]
        assert labels == [label for _, _, label in fired]
    else:
        for until in (1.0, 2.5, HORIZON):
            engine.run_until(until)
    return {
        "fired": fired,
        "fire_counts": [timer.fire_count for timer in timers],
        "events_fired": engine.events_fired,
        "heap_peak": engine.heap_peak,
        "free_list_reuse": engine.free_list_reuse,
        "pending": sorted(
            (handle.time, handle.sequence, handle.label)
            for handle in engine.pending_events()
        ),
    }


@given(specs=TIMER_SPECS)
@settings(max_examples=150, deadline=None)
def test_run_until_timer_rearm_matches_fire(specs):
    inline = timer_run(specs, "inline")
    assert inline["events_fired"] == len(inline["fired"])
    assert inline == timer_run(specs, "step")
    assert inline == timer_run(specs, "traced")
