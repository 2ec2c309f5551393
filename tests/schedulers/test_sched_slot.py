"""The vCPU's ``sched`` slot: each scheduler reads only accounts it owns.

Every per-vCPU hook reads the account from ``vcpu.sched`` instead of
looking it up by name, so each must still refuse a vCPU that another
scheduler admitted, even one with the same name as a local vCPU.
"""

import pytest

from repro.errors import SchedulerError

from ..conftest import make_host

SCHEDULERS = ["credit", "credit2", "sedf"]


def local_and_foreign(scheduler: str):
    host = make_host(scheduler=scheduler)
    local = host.create_domain("vm", credit=10)
    other = make_host(scheduler=scheduler)
    foreign = other.create_domain("vm", credit=10)
    for domain in (local, foreign):
        domain.vcpu.mark_runnable()
    return host.scheduler, local.vcpu, foreign.vcpu


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_slot_holds_an_account_the_scheduler_owns(scheduler):
    sched, local, foreign = local_and_foreign(scheduler)
    assert local.sched is not None and local.sched.owner is sched
    assert foreign.sched is not None and foreign.sched.owner is not sched
    assert sched._accounts["vm"] is local.sched


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize(
    "call",
    [
        lambda sched, vcpu, _: sched.wake(vcpu),
        lambda sched, vcpu, _: sched.put_back(vcpu),
        lambda sched, vcpu, _: sched.sleep(vcpu),
        lambda sched, vcpu, _: sched.slice_for(vcpu, 0.0),
        lambda sched, vcpu, _: sched.charge(vcpu, 0.001, 0.0),
        lambda sched, vcpu, local: sched.should_preempt(local, vcpu),
        lambda sched, vcpu, local: sched.should_preempt(vcpu, local),
        lambda sched, vcpu, _: sched.remove_vcpu(vcpu),
    ],
    ids=[
        "wake",
        "put_back",
        "sleep",
        "slice_for",
        "charge",
        "should_preempt-waking",
        "should_preempt-current",
        "remove_vcpu",
    ],
)
def test_hooks_refuse_a_foreign_vcpu(scheduler, call):
    sched, local, foreign = local_and_foreign(scheduler)
    with pytest.raises(SchedulerError, match="not admitted"):
        call(sched, foreign, local)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_admitting_a_vcpu_held_elsewhere_raises(scheduler):
    host = make_host(scheduler=scheduler)
    other = make_host(scheduler=scheduler)
    foreign = other.create_domain("foreign", credit=10)
    with pytest.raises(SchedulerError, match="already admitted"):
        host.scheduler.add_vcpu(foreign.vcpu)
    assert foreign.vcpu.sched.owner is other.scheduler


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_remove_vcpu_clears_the_slot(scheduler):
    sched, local, _ = local_and_foreign(scheduler)
    sched.remove_vcpu(local)
    assert local.sched is None
    assert "vm" not in sched._accounts
    with pytest.raises(SchedulerError, match="not admitted"):
        sched.charge(local, 0.001, 0.0)
    sched.add_vcpu(local)
    assert local.sched.owner is sched
