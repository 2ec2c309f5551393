"""Host-internal counters pinned bit for bit.

The golden fixtures and the benchmark fingerprints see only exported
series.  These tests pin the counters underneath them — engine, host,
scheduler, vCPU, per-domain energy and processor books — after short runs
of the ``mixed-guests`` cases (credit, sedf, pas) and of one ``credit2``
host, which no export covers.  Floats compare through ``float.hex``, so a
single moved low-order bit (an accounting fold added, dropped or
reordered on the dispatch path) fails here with the counter's name.
"""

from __future__ import annotations

import pytest

from repro.experiments import get_preset, run_scenario
from repro.workloads import ConstantLoad, PiApp

from ..conftest import make_host

#: Short horizon: the web guest (from 50 s) and the batch guest (from
#: 100 s) are both active, the trace guest throughout.
MIXED_GUESTS_DURATION = 150.0


def snapshot(host) -> dict:
    """Every pinned counter of *host*, floats as ``float.hex`` strings."""
    engine = host.engine
    scheduler = host.scheduler
    stats = scheduler.stats
    processor = host.processor
    counters = {
        "events_fired": engine.events_fired,
        "heap_peak": engine.heap_peak,
        "free_list_reuse": engine.free_list_reuse,
        "preemptions": host.preemptions,
        "sched.decisions": stats.decisions,
        "sched.idle_picks": stats.idle_picks,
        "sched.charged_seconds": stats.charged_seconds.hex(),
        "idle_energy": host.idle_energy_joules.hex(),
        "cpu.energy": processor.energy_joules.hex(),
        "cpu.busy_seconds": processor.busy_seconds.hex(),
        "cpu.elapsed_seconds": processor.elapsed_seconds.hex(),
    }
    for name, seconds in sorted(stats.charged_by_domain.items()):
        counters[f"sched.charged.{name}"] = seconds.hex()
    for domain in host.domains:
        vcpu = domain.vcpu
        name = domain.name
        counters[f"{name}.dispatch_count"] = vcpu.dispatch_count
        counters[f"{name}.cpu_seconds"] = vcpu.cpu_seconds.hex()
        counters[f"{name}.work_done"] = vcpu.work_done.hex()
        counters[f"{name}.energy"] = host.domain_energy_joules(name).hex()
    return counters


def mixed_guests_host(scheduler: str):
    config = get_preset("mixed-guests").config.with_changes(
        scheduler=scheduler, duration=MIXED_GUESTS_DURATION
    )
    return run_scenario(config).host


def credit2_host():
    host = make_host(scheduler="credit2", governor="ondemand")
    web = host.create_domain("web", credit=40)
    batch = host.create_domain("batch", credit=30)
    light = host.create_domain("light", credit=10)
    web.attach_workload(ConstantLoad(35, injection_period=0.02))
    batch.attach_workload(PiApp(6.0))
    light.attach_workload(ConstantLoad(5, injection_period=0.05))
    host.run(until=30.0)
    return host


#: Recorded on the tree before the dispatch-path refactor.
PINNED: dict[str, dict] = {'mixed-guests.credit': {'events_fired': 41470,
                         'heap_peak': 10,
                         'free_list_reuse': 14167,
                         'preemptions': 712,
                         'sched.decisions': 21315,
                         'sched.idle_picks': 6435,
                         'sched.charged_seconds': '0x1.19cc6a2c17c89p+6',
                         'idle_energy': '0x1.bc329ee2b4325p+10',
                         'cpu.energy': '0x1.4f903efa8da06p+12',
                         'cpu.busy_seconds': '0x1.19cc6a2c17c89p+6',
                         'cpu.elapsed_seconds': '0x1.2c00000000000p+7',
                         'sched.charged.B30': '0x1.e0189374bb100p+3',
                         'sched.charged.Dom0': '0x1.de147ae146533p+3',
                         'sched.charged.T25': '0x1.483be6210446ap+4',
                         'sched.charged.W20': '0x1.3fdf3b645a2a0p+4',
                         'Dom0.dispatch_count': 5033,
                         'Dom0.cpu_seconds': '0x1.de147ae146533p+3',
                         'Dom0.work_done': '0x1.49dcb3d89ec18p+3',
                         'Dom0.energy': '0x1.4d995e8c09848p+9',
                         'W20.dispatch_count': 3332,
                         'W20.cpu_seconds': '0x1.3fdf3b645a2a0p+4',
                         'W20.work_done': '0x1.cfc0d2b033ae6p+3',
                         'W20.energy': '0x1.e8accc8572b14p+9',
                         'B30.dispatch_count': 1675,
                         'B30.cpu_seconds': '0x1.e0189374bb100p+3',
                         'B30.work_done': '0x1.980e632fe50d4p+3',
                         'B30.energy': '0x1.e15c464b08400p+9',
                         'T25.dispatch_count': 4840,
                         'T25.cpu_seconds': '0x1.483be6210446ap+4',
                         'T25.work_done': '0x1.d71ef34f4a9d8p+3',
                         'T25.energy': '0x1.ec7a48b27eb30p+9'},
 'mixed-guests.sedf': {'events_fired': 35984,
                       'heap_peak': 10,
                       'free_list_reuse': 8681,
                       'preemptions': 2226,
                       'sched.decisions': 12908,
                       'sched.idle_picks': 2000,
                       'sched.charged_seconds': '0x1.5dc57aad871f2p+6',
                       'idle_energy': '0x1.46c005cb7db5bp+10',
                       'cpu.energy': '0x1.a4e3371e7e52ep+12',
                       'cpu.busy_seconds': '0x1.5dc57aad871f2p+6',
                       'cpu.elapsed_seconds': '0x1.2c00000000000p+7',
                       'sched.charged.B30': '0x1.a749932787e0cp+4',
                       'sched.charged.Dom0': '0x1.de147ae147cc5p+3',
                       'sched.charged.T25': '0x1.32767bd634510p+4',
                       'sched.charged.W20': '0x1.ae4b9e47bc648p+4',
                       'Dom0.dispatch_count': 1594,
                       'Dom0.cpu_seconds': '0x1.de147ae147cc5p+3',
                       'Dom0.work_done': '0x1.5f561404ee198p+3',
                       'Dom0.energy': '0x1.7c97a78996d3cp+9',
                       'W20.dispatch_count': 4144,
                       'W20.cpu_seconds': '0x1.ae4b9e47bc648p+4',
                       'W20.work_done': '0x1.3fd70a3d708d4p+4',
                       'W20.energy': '0x1.5dd12852e58f9p+10',
                       'B30.dispatch_count': 2147,
                       'B30.cpu_seconds': '0x1.a749932787e0cp+4',
                       'B30.work_done': '0x1.a231bfd4204f4p+4',
                       'B30.energy': '0x1.13fa8eb5b0648p+11',
                       'T25.dispatch_count': 3023,
                       'T25.cpu_seconds': '0x1.32767bd634510p+4',
                       'T25.work_done': '0x1.d71ef34f4aaf6p+3',
                       'T25.energy': '0x1.08babd2b6999ep+10'},
 'mixed-guests.pas': {'events_fired': 40608,
                      'heap_peak': 10,
                      'free_list_reuse': 13455,
                      'preemptions': 3267,
                      'sched.decisions': 20856,
                      'sched.idle_picks': 4133,
                      'sched.charged_seconds': '0x1.67c30df59e2e5p+6',
                      'idle_energy': '0x1.3b24dba9b6f3ep+10',
                      'cpu.energy': '0x1.2b4b057d3981dp+12',
                      'cpu.busy_seconds': '0x1.67c30df59e2e5p+6',
                      'cpu.elapsed_seconds': '0x1.2c00000000000p+7',
                      'sched.charged.B30': '0x1.30ea0fb5fac14p+4',
                      'sched.charged.Dom0': '0x1.2f4bb601ada7cp+4',
                      'sched.charged.T25': '0x1.67e6dc235553cp+4',
                      'sched.charged.W20': '0x1.d6ef95fb7afc6p+4',
                      'Dom0.dispatch_count': 6734,
                      'Dom0.cpu_seconds': '0x1.2f4bb601ada7cp+4',
                      'Dom0.work_done': '0x1.80000000002b5p+3',
                      'Dom0.energy': '0x1.5ff36a6fce702p+9',
                      'W20.dispatch_count': 3993,
                      'W20.cpu_seconds': '0x1.d6ef95fb7afc6p+4',
                      'W20.work_done': '0x1.2de49b0c7cff9p+4',
                      'W20.energy': '0x1.16554e33221f0p+10',
                      'B30.dispatch_count': 1835,
                      'B30.cpu_seconds': '0x1.30ea0fb5fac14p+4',
                      'B30.work_done': '0x1.a810426d1ed10p+3',
                      'B30.energy': '0x1.9d666b81d1d09p+9',
                      'T25.dispatch_count': 4161,
                      'T25.cpu_seconds': '0x1.67e6dc235553cp+4',
                      'T25.work_done': '0x1.d71ef34f4a996p+3',
                      'T25.energy': '0x1.ba0a023e79acfp+9'},
 'credit2': {'events_fired': 7847,
             'heap_peak': 8,
             'free_list_reuse': 2716,
             'preemptions': 2353,
             'sched.decisions': 6049,
             'sched.idle_picks': 979,
             'sched.charged_seconds': '0x1.56b1fc7831204p+4',
             'idle_energy': '0x1.0da6e031cdb84p+8',
             'cpu.energy': '0x1.9ba199bb6d59cp+10',
             'cpu.busy_seconds': '0x1.56b1fc7831204p+4',
             'cpu.elapsed_seconds': '0x1.e000000000000p+4',
             'sched.charged.batch': '0x1.83e42cbed9988p+2',
             'sched.charged.light': '0x1.d296a161db483p+0',
             'sched.charged.web': '0x1.b11f0e64ba0b2p+3',
             'web.dispatch_count': 3019,
             'web.cpu_seconds': '0x1.b11f0e64ba0b2p+3',
             'web.work_done': '0x1.5000000000108p+3',
             'web.energy': '0x1.7b044688e9035p+9',
             'batch.dispatch_count': 1206,
             'batch.cpu_seconds': '0x1.83e42cbed9988p+2',
             'batch.work_done': '0x1.8000000000005p+2',
             'batch.energy': '0x1.f9ace0b775ce1p+8',
             'light.dispatch_count': 845,
             'light.cpu_seconds': '0x1.d296a161db483p+0',
             'light.work_done': '0x1.7fffffffffd8fp+0',
             'light.energy': '0x1.c4a863ca7fbffp+6'}}


@pytest.mark.parametrize("scheduler", ["credit", "sedf", "pas"])
def test_mixed_guests_counters_pinned(scheduler):
    assert snapshot(mixed_guests_host(scheduler)) == PINNED[f"mixed-guests.{scheduler}"]


def test_credit2_host_counters_pinned():
    assert snapshot(credit2_host()) == PINNED["credit2"]
