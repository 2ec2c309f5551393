"""Unit tests for the Table 2 platform models."""

import pytest

from repro.experiments.claims import CLAIMS, run_claim, table2_rows
from repro.platforms import PLATFORMS
from repro.platforms.virt_platforms import platform_config


def platform(name):
    return next(p for p in PLATFORMS if p.name == name)


def test_seven_platforms_in_paper_order():
    assert [p.name for p in PLATFORMS] == [
        "Hyper-V",
        "VMware",
        "Xen/credit",
        "Xen/PAS",
        "Xen/SEDF",
        "KVM",
        "Vbox",
    ]


def test_disciplines_match_table2_layout():
    fix = [p.name for p in PLATFORMS if p.discipline == "fix"]
    variable = [p.name for p in PLATFORMS if p.discipline == "variable"]
    assert fix == ["Hyper-V", "VMware", "Xen/credit", "Xen/PAS"]
    assert variable == ["Xen/SEDF", "KVM", "Vbox"]


def test_paper_degradation_computed_from_times():
    hyperv = platform("Hyper-V")
    assert hyperv.paper_degradation == pytest.approx(50.0, abs=0.5)
    assert platform("Xen/PAS").paper_degradation == pytest.approx(0.0, abs=0.5)


def test_vendor_floor_ordering():
    # Hyper-V clocks the deepest, ESXi is most conservative.
    assert platform("Hyper-V").ondemand_floor_mhz < platform("Xen/credit").ondemand_floor_mhz
    assert platform("Xen/credit").ondemand_floor_mhz < platform("VMware").ondemand_floor_mhz


def test_platform_config_is_a_declarative_spec():
    config = platform_config(platform("Hyper-V"), "ondemand")
    assert [g.name for g in config.guests] == ["V20", "V70"]
    assert config.guests[0].workloads[0].kind == "pi"
    assert config.guests[1].workloads[0].kind == "web"
    assert config.cpufreq_min_mhz == 1600
    assert config.stop_when_batch_done
    # And it round-trips like any other scenario spec.
    from repro.experiments import ScenarioConfig

    assert ScenarioConfig.from_dict(config.to_dict()) == config


def test_platform_config_performance_mode_has_no_floor():
    config = platform_config(platform("Hyper-V"), "performance")
    assert config.cpufreq_min_mhz is None
    assert config.governor == "performance"


def test_platform_config_rejects_unknown_mode():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="mode"):
        platform_config(platform("Hyper-V"), "turbo")


@pytest.fixture(scope="module")
def quick_rows():
    """Table 2's rows in quick mode: Hyper-V, Xen/PAS and Xen/SEDF."""
    cells, _ = run_claim("table2", quick=True)
    return {row.platform: row for row in table2_rows(cells)}


def test_table2_pas_cancels_degradation(quick_rows):
    assert abs(quick_rows["Xen/PAS"].degradation) < 2.0


def test_table2_hyperv_degrades_most(quick_rows):
    assert quick_rows["Hyper-V"].degradation > 35.0


def test_table2_sedf_fast_and_flat(quick_rows):
    row = quick_rows["Xen/SEDF"]
    assert abs(row.degradation) < 2.0
    assert row.time_performance < 800.0


def test_table2_rows_reject_an_unfinished_batch():
    from repro.errors import ConfigurationError
    from repro.experiments.claims import ClaimCell

    times = {"Hyper-V/performance": 1601.0, "Hyper-V/ondemand": None}
    configs = CLAIMS["table2"].cells(quick=True)
    cells = {
        label: ClaimCell(f"table2/{label}", configs[label], {"v20_batch_time_s": time})
        for label, time in times.items()
    }
    with pytest.raises(ConfigurationError, match=r"Hyper-V \(ondemand\) did not finish"):
        table2_rows(cells)
