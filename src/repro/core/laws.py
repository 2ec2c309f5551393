"""The paper's proportionality laws (§4.2), as pure functions.

Notation follows the paper: frequencies appear as subscripts, credits as
exponents.  ``ratio_i = F_i / F_max``; ``cf_i`` is the per-architecture
correction factor validated in §5.2 and measured per machine in Table 1.

* **Eq. 1** (frequency vs load): ``L_max / L_i = ratio_i * cf_i`` — a demand
  that loads the processor ``L_max`` at full speed loads it
  ``L_max / (ratio_i * cf_i)`` at P-state *i*; solved for ``cf_i`` it is
  how §5.2 measures the correction factor.
* **Eq. 2** (frequency vs time): ``T_max / T_i = ratio_i * cf_i`` — execution
  times stretch by the same factor.
* **Eq. 3** (credit vs time): ``T_init / T_j = C_j / C_init`` — doubling a
  VM's credit halves its execution time.
* **Eq. 4** (compensation): ``C_j = C_init / (ratio_i * cf_i)`` — the credit
  that, at P-state *i*, restores the computing capacity the VM had with
  ``C_init`` at full frequency.
* **Listing 1.1**: the lowest frequency whose capacity exceeds the current
  absolute load.

These functions are the single source of truth: the PAS scheduler, both
user-level managers, the stable governor and the validation experiments all
call into this module.
"""

from __future__ import annotations

from bisect import bisect_right

from ..cpu.freq_table import FrequencyTable
from ..errors import ConfigurationError
from ..units import check_non_negative, check_positive


def frequency_ratio(freq_mhz: float, max_freq_mhz: float) -> float:
    """``ratio_i = F_i / F_max`` (paper §4.2)."""
    check_positive(freq_mhz, "freq_mhz")
    check_positive(max_freq_mhz, "max_freq_mhz")
    if freq_mhz > max_freq_mhz:
        raise ConfigurationError(
            f"freq {freq_mhz} exceeds the maximum {max_freq_mhz}"
        )
    return freq_mhz / max_freq_mhz


def load_at_frequency(load_at_max_percent: float, ratio: float, cf: float = 1.0) -> float:
    """Eq. 1 solved for ``L_i``: the load the same demand imposes at P-state i.

    The result may exceed 100 — that means the demand does not fit at this
    frequency (callers decide whether to clamp).
    """
    check_non_negative(load_at_max_percent, "load_at_max_percent")
    check_positive(ratio, "ratio")
    check_positive(cf, "cf")
    return load_at_max_percent / (ratio * cf)


def absolute_load(nominal_load: float, ratio: float, cf: float = 1.0) -> float:
    """Eq. 1 solved for ``L_max`` — the paper's *Absolute load* (§4.2).

    ``Absolute_load = Global_load * CurrentFreq / Freq[max] * cf``.
    """
    check_non_negative(nominal_load, "nominal_load")
    check_positive(ratio, "ratio")
    check_positive(cf, "cf")
    return nominal_load * ratio * cf


def correction_factor(
    load_at_max_percent: float, load_at_freq_percent: float, ratio: float
) -> float:
    """Eq. 1 solved for ``cf_i``: ``cf_i = L_max / (L_i * ratio_i)``.

    How §5.2 derives a machine's correction factor: the same demand's load
    measured at the maximum frequency and at P-state *i*.
    """
    check_non_negative(load_at_max_percent, "load_at_max_percent")
    check_positive(load_at_freq_percent, "load_at_freq_percent")
    check_positive(ratio, "ratio")
    return load_at_max_percent / (load_at_freq_percent * ratio)


def execution_time_at_frequency(time_at_max_s: float, ratio: float, cf: float = 1.0) -> float:
    """Eq. 2: execution time at P-state i, given the time at full speed."""
    check_positive(time_at_max_s, "time_at_max_s")
    check_positive(ratio, "ratio")
    check_positive(cf, "cf")
    return time_at_max_s / (ratio * cf)


def execution_time_at_credit(
    time_at_initial_credit_s: float, initial_credit: float, new_credit: float
) -> float:
    """Eq. 3: execution time after changing the credit at fixed frequency."""
    check_positive(time_at_initial_credit_s, "time_at_initial_credit_s")
    check_positive(initial_credit, "initial_credit")
    check_positive(new_credit, "new_credit")
    return time_at_initial_credit_s * initial_credit / new_credit


def compensated_credit(initial_credit: float, ratio: float, cf: float = 1.0) -> float:
    """Eq. 4: ``C_j = C_init / (ratio_i * cf_i)``.

    The credit that gives a VM the same computing capacity at P-state *i*
    that ``initial_credit`` gave it at the maximum frequency.  The result may
    exceed 100 when the frequency is low — the paper notes the sum of VM
    credits may then exceed 100 %, which is fine for *limits* (Listing 1.2).
    """
    check_non_negative(initial_credit, "initial_credit")
    check_positive(ratio, "ratio")
    check_positive(cf, "cf")
    return initial_credit / (ratio * cf)


def compute_new_frequency(
    table: FrequencyTable,
    absolute_load_percent: float,
    *,
    margin_percent: float = 0.0,
    use_cf: bool = True,
) -> int:
    """Listing 1.1: the lowest frequency that absorbs *absolute_load_percent*.

    Returns the first P-state, in ascending order, whose capacity
    ``ratio * 100 * cf`` strictly exceeds the absolute load (plus an
    optional *margin*); the maximum frequency if none qualifies.  The
    capacities are the table's precomputed
    :meth:`~repro.cpu.freq_table.FrequencyTable.listing_ladder`.

    ``use_cf=False`` implements the cf-blind variant for the ablation that
    quantifies what ignoring Table 1's correction factors costs.
    """
    check_non_negative(absolute_load_percent, "absolute_load_percent")
    check_non_negative(margin_percent, "margin_percent")
    ladder = table.listing_ladder(use_cf=use_cf)
    index = bisect_right(ladder, absolute_load_percent + margin_percent)
    return table.frequencies[min(index, len(ladder) - 1)]


def compensated_caps(
    table: FrequencyTable,
    freq_mhz: int,
    initial_credits: dict[str, float],
    *,
    use_cf: bool = True,
) -> dict[str, float]:
    """Listing 1.2's loop body: Eq.-4 credits for every VM at *freq_mhz*.

    Returns ``{domain_name: new_cap_percent}``.  Pure helper shared by the
    PAS scheduler and both user-level managers.
    """
    state = table.state_for(freq_mhz)
    ratio = state.ratio_to(table.max_state.freq_mhz)
    cf = state.cf if use_cf else 1.0
    return {
        name: compensated_credit(credit, ratio, cf)
        for name, credit in initial_credits.items()
    }
