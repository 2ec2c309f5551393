"""Unit tests for pi-app."""

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.workloads import PiApp

from ..conftest import make_host


def test_execution_time_full_speed_uncapped():
    host = make_host()
    vm = host.create_domain("vm", credit=100)
    app = PiApp(2.0)
    vm.attach_workload(app)
    host.run(until=5.0)
    assert app.done
    assert app.execution_time == pytest.approx(2.0, rel=0.01)


def test_execution_time_scales_inverse_to_credit():
    # Eq. 3 at workload level.
    times = {}
    for credit in (25, 50):
        host = make_host()
        vm = host.create_domain("vm", credit=credit)
        app = PiApp(1.0)
        vm.attach_workload(app)
        host.run(until=20.0)
        times[credit] = app.execution_time
    assert times[25] / times[50] == pytest.approx(2.0, rel=0.03)


def test_start_at_delays_work():
    host = make_host()
    vm = host.create_domain("vm", credit=100)
    app = PiApp(0.5, start_at=3.0)
    vm.attach_workload(app)
    host.run(until=2.0)
    assert app.started_at is None
    host.run(until=5.0)
    assert app.started_at == pytest.approx(3.0)
    assert app.finished_at == pytest.approx(3.5, abs=0.01)


def test_execution_time_before_done_raises():
    host = make_host()
    vm = host.create_domain("vm", credit=1)
    app = PiApp(10.0)
    vm.attach_workload(app)
    host.run(until=1.0)
    assert not app.done
    with pytest.raises(WorkloadError):
        _ = app.execution_time


def test_nonpositive_work_rejected():
    with pytest.raises(ConfigurationError):
        PiApp(0.0)


def test_negative_start_rejected():
    with pytest.raises(ConfigurationError):
        PiApp(1.0, start_at=-1.0)


def test_done_flag_lifecycle():
    host = make_host()
    vm = host.create_domain("vm", credit=100)
    app = PiApp(0.5)
    vm.attach_workload(app)
    assert not app.done
    host.run(until=1.0)
    assert app.done


def test_two_pi_apps_on_separate_domains():
    host = make_host()
    a = host.create_domain("a", credit=50)
    b = host.create_domain("b", credit=50)
    app_a, app_b = PiApp(1.0), PiApp(1.0)
    a.attach_workload(app_a)
    b.attach_workload(app_b)
    host.run(until=10.0)
    assert app_a.execution_time == pytest.approx(2.0, rel=0.05)
    assert app_b.execution_time == pytest.approx(2.0, rel=0.05)


def test_injected_work_counter():
    host = make_host()
    vm = host.create_domain("vm", credit=100)
    app = PiApp(0.5, start_at=3.0)
    vm.attach_workload(app)
    host.run(until=2.0)
    assert app.injected_work == 0.0
    host.run(until=5.0)
    assert app.injected_work == 0.5


def test_work_is_conserved_on_every_eq2_pi_domain():
    from repro import catalog
    from repro.experiments import run_scenario
    from repro.experiments.claims import CLAIMS

    cells = CLAIMS["eq2"].cells(processor=catalog.CORE_I7_3770)
    checked = 0
    for config in cells.values():
        host = run_scenario(config).host
        for domain in host.domains:
            for app in domain.workloads:
                if isinstance(app, PiApp):
                    accounted = domain.work_done + domain.vcpu.pending_work
                    assert app.injected_work == pytest.approx(accounted, rel=1e-9, abs=0.0)
                    assert app.injected_work == app.work
                    checked += 1
    assert checked == len(cells)
