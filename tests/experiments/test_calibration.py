"""The §5.2 calibration procedure: Eq. 1 recovers each machine's cf from the
eq1 claim's load cells."""

import pytest

from repro import catalog
from repro.cli import main
from repro.experiments.claims import CLAIMS, measured_cfs, run_claim
from repro.sweep.runner import execute_config


def calibrate(spec, *demands):
    """The eq1 cells of *spec* at *demands* (15 % by default): ``(cells, cfs)``."""
    cells, _ = run_claim("eq1", processor=spec, demands=demands or (15.0,))
    return cells, measured_cfs(cells)


def test_recovers_cf_min_on_e5_2620():
    low = catalog.XEON_E5_2620.table().min_state
    _, cfs = calibrate(catalog.XEON_E5_2620)
    assert cfs[(15.0, low)] == pytest.approx(0.80338, rel=0.01)
    assert abs(cfs[(15.0, low)] - low.cf) / low.cf < 0.01


def test_recovers_cf_min_on_two_frequency_machine():
    low = catalog.OPTERON_6164_HE.table().min_state
    _, cfs = calibrate(catalog.OPTERON_6164_HE)
    assert cfs[(15.0, low)] == pytest.approx(0.99508, rel=0.01)


def test_calibrate_covers_all_non_max_states(capsys):
    assert main(["calibrate", catalog.OPTIPLEX_755.name]) == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    assert [row.split()[0] for row in rows] == ["1600", "1867", "2133", "2400"]


def test_cf_matches_spec_everywhere():
    _, cfs = calibrate(catalog.XEON_X3440)
    assert len(cfs) == len(catalog.XEON_X3440.table())
    for (_, state), cf in cfs.items():
        assert cf == pytest.approx(state.cf, rel=0.01)


def test_measurement_independent_of_demand_level():
    low = catalog.CORE_I7_3770.table().min_state
    _, cfs = calibrate(catalog.CORE_I7_3770, 8.0, 20.0)
    assert cfs[(8.0, low)] == pytest.approx(cfs[(20.0, low)], rel=0.01)


def test_cell_pins_its_frequency():
    table = catalog.XEON_L5420.table()
    cells, _ = calibrate(catalog.XEON_L5420)
    low, high = (15.0, table.min_state), (15.0, table.max_state)
    at_min = execute_config(CLAIMS["eq1"].cells(processor=catalog.XEON_L5420, demands=(15.0,))[low])
    assert at_min.host.processor.spec.name == catalog.XEON_L5420.name
    assert at_min.host.processor.state.freq_mhz == 2000
    assert at_min.frequency_transitions <= 1
    settled = "host_load_settled"
    assert cells[low].metrics[settled] > cells[high].metrics[settled]
