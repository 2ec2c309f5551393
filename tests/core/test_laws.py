"""Unit tests for the paper's proportionality laws (Eqs. 1-4, Listing 1.1)."""

import math

import pytest

from repro import FrequencyTable, PState, catalog
from repro.core import laws
from repro.errors import ConfigurationError


def test_frequency_ratio():
    assert laws.frequency_ratio(1600, 2667) == pytest.approx(1600 / 2667)
    assert laws.frequency_ratio(2667, 2667) == 1.0


def test_frequency_ratio_above_max_rejected():
    with pytest.raises(ConfigurationError):
        laws.frequency_ratio(3000, 2667)


def test_eq1_load_at_frequency_paper_example():
    # §4.2: Fmax 3000, Fi 1500, load 10% at max -> 20% at Fi.
    assert laws.load_at_frequency(10.0, 0.5) == pytest.approx(20.0)


def test_eq1_absolute_load_inverts():
    nominal = laws.load_at_frequency(30.0, 0.6, 0.95)
    assert laws.absolute_load(nominal, 0.6, 0.95) == pytest.approx(30.0)


def test_eq1_correction_factor_inverts_load_at_frequency():
    # §5.2: the two measured loads of one demand give back its cf.
    loaded = laws.load_at_frequency(15.0, 0.6, 0.80338)
    assert laws.correction_factor(15.0, loaded, 0.6) == pytest.approx(0.80338)


def test_eq1_correction_factor_rejects_zero_load():
    with pytest.raises(ConfigurationError):
        laws.correction_factor(15.0, 0.0, 0.6)


def test_eq2_execution_time_at_frequency():
    # Halving the frequency doubles the time (cf = 1).
    assert laws.execution_time_at_frequency(100.0, 0.5) == pytest.approx(200.0)


def test_eq2_with_cf():
    assert laws.execution_time_at_frequency(100.0, 0.5, 0.8) == pytest.approx(250.0)


def test_eq3_execution_time_at_credit_paper_example():
    # §4.2: credits 10% -> 20% halves the execution time.
    assert laws.execution_time_at_credit(100.0, 10.0, 20.0) == pytest.approx(50.0)


def test_eq4_paper_example():
    # §4.2: 20% credit, ratio 0.5, cf 1 -> 40% credit.
    assert laws.compensated_credit(20.0, 0.5) == pytest.approx(40.0)


def test_eq4_fig9_value():
    # Fig. 9: 20% at 1600/2667 -> 33.3%.
    ratio = 1600 / 2667
    assert laws.compensated_credit(20.0, ratio) == pytest.approx(33.34, abs=0.01)


def test_eq4_with_cf():
    assert laws.compensated_credit(20.0, 0.5, 0.8) == pytest.approx(50.0)


def test_eq4_may_exceed_100():
    # Listing 1.2 remark: "the sum of the VM credits may be more than 100%".
    assert laws.compensated_credit(70.0, 0.6) > 100.0


def test_eq4_round_trip_preserves_absolute_capacity():
    for ratio in (0.5, 0.6, 0.8):
        for cf in (0.8, 0.95, 1.0):
            credit = laws.compensated_credit(20.0, ratio, cf)
            assert credit * ratio * cf == pytest.approx(20.0)


def test_listing11_picks_lowest_absorbing():
    table = catalog.OPTIPLEX_755.table()
    assert laws.compute_new_frequency(table, 20.0) == 1600
    assert laws.compute_new_frequency(table, 55.0) == 1600
    assert laws.compute_new_frequency(table, 65.0) == 1867
    assert laws.compute_new_frequency(table, 95.0) == 2667


def test_listing11_strict_inequality():
    table = catalog.OPTIPLEX_755.table()
    capacity_1600 = 1600 / 2667 * 100
    # Exactly at capacity: NOT absorbed (strict >), go one state up.
    assert laws.compute_new_frequency(table, capacity_1600) == 1867


def test_listing11_saturates_at_max():
    table = catalog.OPTIPLEX_755.table()
    assert laws.compute_new_frequency(table, 150.0) == 2667


def test_listing11_margin():
    table = catalog.OPTIPLEX_755.table()
    assert laws.compute_new_frequency(table, 58.0, margin_percent=5.0) == 1867


def test_listing11_cf_blind_mode():
    table = FrequencyTable([PState(1000, cf=0.5), PState(2000)])
    # With cf: capacity(1000) = 25% -> cannot absorb 30%.
    assert laws.compute_new_frequency(table, 30.0, use_cf=True) == 2000
    # Blind: believes capacity is 50% -> wrongly picks 1000.
    assert laws.compute_new_frequency(table, 30.0, use_cf=False) == 1000


def test_compensated_caps_for_all_domains():
    table = catalog.OPTIPLEX_755.table()
    caps = laws.compensated_caps(table, 1600, {"V20": 20.0, "V70": 70.0, "Dom0": 10.0})
    ratio = 1600 / 2667
    assert caps["V20"] == pytest.approx(20.0 / ratio)
    assert caps["V70"] == pytest.approx(70.0 / ratio)
    assert caps["Dom0"] == pytest.approx(10.0 / ratio)


def test_compensated_caps_at_max_are_original_credits():
    table = catalog.OPTIPLEX_755.table()
    caps = laws.compensated_caps(table, 2667, {"V20": 20.0})
    assert caps["V20"] == pytest.approx(20.0)


def test_invalid_inputs_rejected():
    with pytest.raises(ConfigurationError):
        laws.load_at_frequency(-1.0, 0.5)
    with pytest.raises(ConfigurationError):
        laws.compensated_credit(20.0, 0.0)
    with pytest.raises(ConfigurationError):
        laws.execution_time_at_credit(10.0, 0.0, 20.0)


def _catalog_tables():
    """Every catalog table: each processor's, and each of its domains'."""
    for spec in catalog.ALL_PROCESSORS.values():
        yield spec.name, spec.table()
        for domain in spec.domains:
            yield f"{spec.name}/{domain.name}", domain.table()
    # Capacities that fall and rise again: the ladder keeps a running max.
    yield "non-monotone", FrequencyTable(
        [PState(1000), PState(1200, cf=0.5), PState(2000)]
    )


def _naive_listing(table, load, margin, use_cf):
    """Listing 1.1 as the paper writes it: scan up, ``ratio * 100 * cf``."""
    max_freq = table.max_state.freq_mhz
    for state in table:
        cf = state.cf if use_cf else 1.0
        if state.ratio_to(max_freq) * 100.0 * cf > load + margin:
            return state.freq_mhz
    return max_freq


def _naive_absorbing(table, load, margin):
    """The governors' scan: capacity ``(ratio * cf) * 100``."""
    for state in table:
        if state.capacity_fraction(table.max_state.freq_mhz) * 100.0 > load + margin:
            return state
    return table.max_state


def _probe_loads(table):
    """0..150 in steps of 0.25, plus every capacity in either rounding and
    its float neighbours, where the two roundings can disagree."""
    loads = {index * 0.25 for index in range(601)}
    max_freq = table.max_state.freq_mhz
    for state in table:
        for capacity in (
            state.ratio_to(max_freq) * 100.0 * state.cf,
            state.ratio_to(max_freq) * 100.0,
            state.capacity_fraction(max_freq) * 100.0,
        ):
            loads.update(
                (capacity, math.nextafter(capacity, 0.0), math.nextafter(capacity, 200.0))
            )
    return sorted(loads)


@pytest.mark.parametrize("name, table", list(_catalog_tables()), ids=lambda v: str(v)[:40])
@pytest.mark.parametrize("margin", [0.0, 5.0])
def test_listing11_ladders_match_the_naive_scans(name, table, margin):
    for load in _probe_loads(table):
        for use_cf in (True, False):
            assert laws.compute_new_frequency(
                table, load, margin_percent=margin, use_cf=use_cf
            ) == _naive_listing(table, load, margin, use_cf), (load, use_cf)
        assert table.lowest_absorbing(load, margin_percent=margin) is _naive_absorbing(
            table, load, margin
        ), load


def test_listing11_roundings_differ_in_the_last_bit():
    """Why the two ladders stay separate: on the i7 the lowest state's
    capacity is one ulp apart in the two roundings, so a load at exactly
    that value is absorbed by one and not the other."""
    table = catalog.CORE_I7_3770.table()
    state = table.min_state
    ratio = state.ratio_to(table.max_state.freq_mhz)
    listing = ratio * 100.0 * state.cf
    absorbing = (ratio * state.cf) * 100.0
    assert listing != absorbing
    load = min(listing, absorbing)
    assert laws.compute_new_frequency(table, load) != table.lowest_absorbing(load).freq_mhz
