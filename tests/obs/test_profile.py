"""Sampling profiler: sampled runs export the same bytes; samples land right."""

import json
import signal
import sys

import pytest

from repro import Host
from repro.experiments import preset_config
from repro.obs import collect_outcome, MetricsRegistry
from repro.obs.profile import SamplingProfiler, TOP_FUNCTIONS, wall_now
from repro.schedulers.credit import CreditScheduler
from repro.sim.engine import Engine
from repro.sweep.metrics import reduce_outcome
from repro.sweep.runner import default_metrics_for, execute_config
from repro.workloads import ConstantLoad


def _name(function) -> str:
    code = function.__code__
    return getattr(code, "co_qualname", code.co_name)


def _export(config, outcome) -> str:
    """The run's metrics snapshot and its sweep-cell metrics, as JSON text."""
    registry = MetricsRegistry()
    collect_outcome(registry, outcome)
    cell = reduce_outcome(outcome, default_metrics_for(config))
    return registry.to_json() + json.dumps(cell, sort_keys=True)


def test_wall_now_is_monotonic():
    first = wall_now()
    second = wall_now()
    assert second >= first


@pytest.mark.parametrize(
    "config",
    [
        preset_config("paper-5.3").with_changes(duration=200.0),
        preset_config("dc-fleet-large"),
    ],
    ids=["paper-5.3", "dc-fleet-large"],
)
def test_sampled_run_exports_the_same_bytes(config):
    plain = _export(config, execute_config(config))
    profiler = SamplingProfiler()
    sampled = _export(config, profiler.run(config))
    assert profiler.total > 0
    assert sampled == plain


def test_handler_credits_the_engine_loop_for_an_event_callback():
    profiler = SamplingProfiler()
    engine = Engine()
    engine.schedule(1.0, lambda: profiler.handle(signal.SIGPROF, sys._getframe()))
    engine.run_until(2.0)
    # The lambda lives in this test file; the innermost repro frame is the
    # engine loop that fired it.
    assert dict(profiler.samples) == {("sim", f"engine:{_name(Engine.run_until)}"): 1}
    assert profiler.outside == 0


def test_handler_credits_the_scheduler_function_it_interrupts():
    profiler = SamplingProfiler()
    host = Host(scheduler="credit", governor="ondemand")
    domain = host.create_domain("a", credit=40)
    domain.attach_workload(ConstantLoad(40, injection_period=0.02))
    host.start()
    tick = CreditScheduler.tick.__code__

    def on_call(frame, event, arg):
        if event == "call" and frame.f_code is tick:
            sys.setprofile(None)
            profiler.handle(signal.SIGPROF, frame)

    sys.setprofile(on_call)
    try:
        host.run(until=1.0)
    finally:
        sys.setprofile(None)
    assert dict(profiler.samples) == {
        ("schedulers", f"credit:{_name(CreditScheduler.tick)}"): 1
    }


def test_handler_counts_a_stack_without_repro_frames_as_outside():
    profiler = SamplingProfiler()
    profiler.handle(signal.SIGPROF, sys._getframe())
    assert profiler.samples == {}
    assert profiler.outside == 1
    assert profiler.layer_rows() == [("(outside repro)", 1)]


def test_table_lists_layers_then_top_functions():
    profiler = SamplingProfiler()
    for index in range(TOP_FUNCTIONS + 3):
        profiler.samples[("hypervisor", f"host:f{index:02d}")] = 1
    profiler.samples[("schedulers", "credit:CreditScheduler.pick_next")] = 30
    profiler.run_wall_s = 1.5
    lines = profiler.render_table().splitlines()
    assert lines[0].split() == ["layer", "samples", "share"]
    assert lines[2].split() == ["schedulers", "30", "66.7%"]
    assert lines[3].split() == ["hypervisor", "15", "33.3%"]
    rows = lines[lines.index(f"top {TOP_FUNCTIONS} functions") + 3 : -2]
    assert len(rows) == TOP_FUNCTIONS
    assert rows[0].split() == ["30", "66.7%", "schedulers", "credit:CreditScheduler.pick_next"]
    assert lines[-1] == "45 samples over 1.500 s of run wall"


def test_table_without_samples_is_one_line():
    assert SamplingProfiler().render_table().startswith("no samples: ")
