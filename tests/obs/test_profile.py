"""Profiler smoke tests: phases populate, results stay untouched."""

import pytest

from repro import Host
from repro.experiments import get_preset, run_scenario, ScenarioConfig
from repro.obs.profile import PhaseProfiler, profile_cluster, profile_scenario, wall_now
from repro.workloads import ConstantLoad


def test_wall_now_is_monotonic():
    first = wall_now()
    second = wall_now()
    assert second >= first


def test_wrap_phase_self_time_excludes_children():
    profiler = PhaseProfiler()

    def inner() -> int:
        return 7

    wrapped_inner = profiler.wrap_phase("inner", inner)

    def outer() -> int:
        return wrapped_inner() + 1

    wrapped_outer = profiler.wrap_phase("outer", outer)
    assert wrapped_outer() == 8
    assert profiler.calls == {"inner": 1, "outer": 1}
    # Parent self-time excludes the child's elapsed time, so the two phases
    # sum to (roughly) the outer call's total elapsed wall time.
    assert profiler.self_s["outer"] >= 0.0
    assert profiler.self_s["inner"] >= 0.0


def test_profile_scenario_populates_subsystem_phases():
    config = ScenarioConfig().with_changes(duration=40.0)
    result, profiler = profile_scenario(config)
    assert result.host.now == pytest.approx(40.0)
    phases = set(profiler.self_s)
    assert {"scheduler", "dispatch", "accounting"} <= phases
    assert all(spent >= 0.0 for spent in profiler.self_s.values())
    assert profiler.calls["scheduler"] > 0


def test_dispatch_phase_counts_every_pick_and_slice_close():
    # Natural slice ends and preemptions close slices through one helper;
    # the dispatch phase must see both, plus every dispatch decision.
    host = Host(scheduler="credit", governor="ondemand")
    for name, load in (("a", 40), ("b", 30)):
        domain = host.create_domain(name, credit=load)
        domain.attach_workload(ConstantLoad(load, injection_period=0.02))
    host.start()
    stats = host.scheduler.stats

    def dispatched() -> int:
        return sum(domain.vcpu.dispatch_count for domain in host.domains)

    decisions, slices, in_flight = stats.decisions, dispatched(), host._current is not None
    profiler = PhaseProfiler()
    profiler.attach_host(host)
    host.run(until=5.0)
    closes = dispatched() - slices + in_flight - (host._current is not None)
    assert host.preemptions > 0
    assert profiler.calls["dispatch"] == stats.decisions - decisions + closes


def test_profile_scenario_result_matches_plain_run():
    config = ScenarioConfig().with_changes(duration=40.0)
    plain = run_scenario(config)
    profiled, _ = profile_scenario(config)
    assert profiled.energy_joules == pytest.approx(plain.energy_joules, abs=0.0)
    assert profiled.host.engine.events_fired == plain.host.engine.events_fired


def test_profile_cluster_populates_orchestration_phases():
    sim, profiler = profile_cluster(get_preset("dc-diurnal-small").config)
    assert len(sim.stats) > 0
    assert {"planning", "epoch", "serving"} <= set(profiler.self_s)
    assert profiler.calls["epoch"] == len(sim.stats)


def test_render_table_lists_phases_sorted_by_self_time():
    profiler = PhaseProfiler()
    profiler.self_s = {"governor": 0.5, "scheduler": 2.0}
    profiler.calls = {"governor": 10, "scheduler": 40}
    profiler.note_run_wall(3.0)
    table = profiler.render_table()
    lines = table.splitlines()
    assert "phase" in lines[0]
    body = "\n".join(lines)
    assert body.index("scheduler") < body.index("governor")
    # Unattributed remainder shows up as "other"; the footer notes run wall.
    assert "other" in body
    assert "run wall" in body


def test_phase_rows_shares_sum_to_one_with_other_row():
    profiler = PhaseProfiler()
    profiler.self_s = {"a": 1.0, "b": 1.0}
    profiler.calls = {"a": 1, "b": 1}
    profiler.note_run_wall(4.0)
    rows = profiler.phase_rows()
    assert [row["phase"] for row in rows] == ["other", "a", "b"]
    assert sum(row["share"] for row in rows) == pytest.approx(1.0)
