"""Unit tests for the Xen Credit scheduler."""

import pytest

from repro import CreditScheduler
from repro.errors import SchedulerError
from repro.workloads import ConstantLoad, PiApp

from ..conftest import make_host


def shares(host, duration, *names):
    host.run(until=duration)
    return {name: host.domain(name).cpu_seconds / duration for name in names}


def test_fix_credit_caps_consumption():
    # The paper's fix-credit property: at most the credit, even when alone.
    host = make_host(scheduler="credit")
    vm = host.create_domain("vm", credit=20)
    vm.attach_workload(ConstantLoad(100, injection_period=0.01))
    result = shares(host, 10.0, "vm")
    assert result["vm"] == pytest.approx(0.20, abs=0.01)


def test_credit_guaranteed_under_contention():
    host = make_host(scheduler="credit")
    small = host.create_domain("small", credit=20)
    big = host.create_domain("big", credit=70)
    small.attach_workload(ConstantLoad(100, injection_period=0.01))
    big.attach_workload(ConstantLoad(100, injection_period=0.01))
    result = shares(host, 10.0, "small", "big")
    assert result["small"] == pytest.approx(0.20, abs=0.015)
    assert result["big"] == pytest.approx(0.70, abs=0.015)


def test_null_credit_vm_is_work_conserving():
    # §3.1: a null-credit VM "can use any CPU time slices that are not used
    # by other VMs".
    host = make_host(scheduler="credit")
    capped = host.create_domain("capped", credit=30)
    free = host.create_domain("free", credit=0)
    capped.attach_workload(ConstantLoad(100, injection_period=0.01))
    free.attach_workload(ConstantLoad(100, injection_period=0.01))
    result = shares(host, 10.0, "capped", "free")
    assert result["capped"] == pytest.approx(0.30, abs=0.02)
    assert result["free"] >= 0.65


def test_unused_slices_not_redistributed_to_capped_vms():
    # Fix credit: the idle V70 share must NOT flow to the capped V20.
    host = make_host(scheduler="credit")
    v20 = host.create_domain("V20", credit=20)
    host.create_domain("V70", credit=70)  # idle
    v20.attach_workload(ConstantLoad(100, injection_period=0.01))
    result = shares(host, 10.0, "V20")
    assert result["V20"] == pytest.approx(0.20, abs=0.01)


def test_weights_divide_cpu_proportionally():
    host = make_host(scheduler="credit")
    a = host.create_domain("a", credit=0, weight=100)
    b = host.create_domain("b", credit=0, weight=200)
    a.attach_workload(ConstantLoad(100, injection_period=0.01))
    b.attach_workload(ConstantLoad(100, injection_period=0.01))
    result = shares(host, 10.0, "a", "b")
    assert result["b"] / result["a"] == pytest.approx(2.0, rel=0.1)


def test_dom0_runs_first():
    host = make_host(scheduler="credit")
    dom0 = host.create_domain("Dom0", credit=10, dom0=True)
    guest = host.create_domain("guest", credit=0)
    dom0.attach_workload(ConstantLoad(8, injection_period=0.05))
    guest.attach_workload(ConstantLoad(100, injection_period=0.01))
    result = shares(host, 10.0, "Dom0", "guest")
    # Dom0's full (light) demand served despite a saturating guest.
    assert result["Dom0"] == pytest.approx(0.08, abs=0.01)


def test_dom0_cap_still_applies():
    host = make_host(scheduler="credit")
    dom0 = host.create_domain("Dom0", credit=10, dom0=True)
    guest = host.create_domain("guest", credit=0)
    dom0.attach_workload(ConstantLoad(50, injection_period=0.01))  # wants 50%
    guest.attach_workload(ConstantLoad(100, injection_period=0.01))
    result = shares(host, 10.0, "Dom0", "guest")
    assert result["Dom0"] == pytest.approx(0.10, abs=0.015)


def test_set_cap_at_runtime():
    host = make_host(scheduler="credit")
    vm = host.create_domain("vm", credit=20)
    vm.attach_workload(ConstantLoad(100, injection_period=0.01))
    host.run(until=5.0)
    host.scheduler.set_cap(host.domain("vm"), 40.0)
    before = vm.cpu_seconds
    host.run(until=10.0)
    assert (vm.cpu_seconds - before) / 5.0 == pytest.approx(0.40, abs=0.02)


def test_cap_of_reports_current_cap():
    host = make_host(scheduler="credit")
    vm = host.create_domain("vm", credit=20)
    assert host.scheduler.cap_of(vm) == 20.0
    host.scheduler.set_cap(vm, 33.3)
    assert host.scheduler.cap_of(vm) == pytest.approx(33.3)


def test_negative_cap_rejected():
    host = make_host(scheduler="credit")
    vm = host.create_domain("vm", credit=20)
    with pytest.raises(SchedulerError):
        host.scheduler.set_cap(vm, -5.0)


def test_cap_above_100_effectively_uncapped():
    host = make_host(scheduler="credit")
    vm = host.create_domain("vm", credit=20)
    vm.attach_workload(ConstantLoad(100, injection_period=0.01))
    host.scheduler.set_cap(vm, 150.0)
    result = shares(host, 10.0, "vm")
    assert result["vm"] >= 0.95


def test_cap_enforced_per_accounting_window():
    # Within any 3 accounting periods, a 20% cap must hold (not just long-run).
    host = make_host(scheduler="credit")
    vm = host.create_domain("vm", credit=20)
    vm.attach_workload(ConstantLoad(100, injection_period=0.005))
    host.start()
    period = host.scheduler.accounting_period
    host.run(until=1.0)
    for k in range(10):
        start_usage = vm.cpu_seconds
        host.run(until=1.0 + (k + 1) * 3 * period)
        used = vm.cpu_seconds - start_usage
        assert used <= 0.20 * 3 * period + 0.002


def test_blocked_vcpu_accrues_no_credits():
    host = make_host(scheduler="credit")
    sleeper = host.create_domain("sleeper", credit=50)
    worker = host.create_domain("worker", credit=0)
    worker.attach_workload(ConstantLoad(100, injection_period=0.01))
    host.run(until=5.0)
    # Blocked throughout: balance must not exceed the hoard clamp and the
    # worker must have received effectively the whole machine.
    assert worker.cpu_seconds / 5.0 >= 0.95
    assert host.scheduler.credits_of(sleeper) <= host.scheduler.credit_clamp + 1e-9


def test_admission_rejects_duplicate_vcpu():
    host = make_host(scheduler="credit")
    vm = host.create_domain("vm", credit=10)
    with pytest.raises(SchedulerError):
        host.scheduler.add_vcpu(vm.vcpu)


def test_remove_vcpu_forgets_account():
    host = make_host(scheduler="credit")
    vm = host.create_domain("vm", credit=10)
    host.scheduler.remove_vcpu(vm.vcpu)
    with pytest.raises(SchedulerError):
        host.scheduler.cap_of(vm)


def test_charge_unknown_vcpu_raises():
    host = make_host(scheduler="credit")
    other_host = make_host(scheduler="credit")
    foreign = other_host.create_domain("foreign", credit=10)
    with pytest.raises(SchedulerError):
        host.scheduler.charge(foreign.vcpu, 0.01, 0.0)


def test_quantum_and_periods_configurable():
    scheduler = CreditScheduler(quantum=0.05, tick_interval=0.005, ticks_per_accounting=4)
    assert scheduler.quantum == 0.05
    assert scheduler.accounting_period == pytest.approx(0.02)


def test_pi_app_completion_time_under_cap():
    host = make_host(scheduler="credit")
    vm = host.create_domain("vm", credit=25)
    app = PiApp(1.0)
    vm.attach_workload(app)
    host.run(until=10.0)
    assert app.execution_time == pytest.approx(4.0, rel=0.02)


def test_stats_track_charges():
    host = make_host(scheduler="credit")
    vm = host.create_domain("vm", credit=50)
    vm.attach_workload(PiApp(0.5))
    host.run(until=5.0)
    # 0.5 absolute seconds at max frequency = 0.5 seconds of CPU time
    # (the 50% cap stretches the wall-clock, not the CPU time).
    assert host.scheduler.stats.charged_seconds == pytest.approx(0.5, rel=0.05)
    assert vm.cpu_seconds == pytest.approx(0.5, rel=0.05)
