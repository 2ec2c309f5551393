"""Catalog of the processors measured in the paper.

* ``OPTIPLEX_755`` — the evaluation testbed (§5.1): DELL Optiplex 755 with an
  Intel Core 2 Duo at 2.66 GHz run in single-processor mode.  The five
  frequencies are read off the right-hand axes of Figs. 2–10
  (1600/1867/2133/2400/2667 MHz); ``cf`` is 1.0, consistent with the paper
  using this machine to validate the pure proportionality law.
* Table 1 machines (§5.8, Grid'5000): Xeon X3440, Xeon L5420, Xeon E5-2620,
  Opteron 6164 HE — each with the paper's measured ``cf_min`` at its lowest
  frequency.  The paper notes many of these parts expose only two
  frequencies; we model L5420 and 6164 HE that way.
* ``CORE_I7_3770`` — the HP Elite 8300 used for Table 2 (§5.8).

``cf`` between the endpoints is interpolated linearly in frequency: the
correction factor captures the memory-bound share of the workload, which
grows as the core slows relative to the (constant-speed) memory — a smooth,
monotone effect.  Power figures are plausible desktop/server envelopes; only
relative energy matters in the benchmarks.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..errors import ConfigurationError
from .cstate import make_cstates
from .domains import DomainSpec
from .power import PowerModel
from .processor import ProcessorSpec, make_states


def _interpolated_cf(freqs: Sequence[int], cf_min: float) -> list[float]:
    """Linear ramp from ``cf_min`` at the lowest frequency to 1.0 at the top."""
    freqs = sorted(freqs)
    low, high = freqs[0], freqs[-1]
    if low == high:
        return [1.0]
    return [1.0 - (1.0 - cf_min) * (high - f) / (high - low) for f in freqs]


def spec_with_cf_min(
    name: str,
    freqs_mhz: Sequence[int],
    cf_min: float,
    *,
    power: PowerModel | None = None,
) -> ProcessorSpec:
    """Build a spec whose ``cf`` ramps linearly from *cf_min* up to 1.0."""
    cfs = _interpolated_cf(freqs_mhz, cf_min)
    return ProcessorSpec(
        name=name,
        states=make_states(sorted(freqs_mhz), cf=cfs),
        power=power or PowerModel(),
    )


#: The paper's evaluation testbed (DELL Optiplex 755, §5.1).
OPTIPLEX_755 = ProcessorSpec(
    name="Intel Core 2 Duo E6750 (Optiplex 755)",
    states=make_states([1600, 1867, 2133, 2400, 2667], cf=1.0),
    power=PowerModel(idle_watts=40.0, busy_watts=85.0),
)

#: Table 1, column 1: cf_min = 0.94867.
XEON_X3440 = spec_with_cf_min(
    "Intel Xeon X3440",
    [1200, 1467, 1733, 2000, 2267, 2533],
    0.94867,
    power=PowerModel(idle_watts=50.0, busy_watts=110.0),
)

#: Table 1, column 2: cf_min = 0.99903 (two frequencies only).
XEON_L5420 = spec_with_cf_min(
    "Intel Xeon L5420",
    [2000, 2500],
    0.99903,
    power=PowerModel(idle_watts=45.0, busy_watts=100.0),
)

#: Table 1, column 3: cf_min = 0.80338 — the strongly memory-bound outlier.
XEON_E5_2620 = spec_with_cf_min(
    "Intel Xeon E5-2620",
    [1200, 1400, 1600, 1800, 2000],
    0.80338,
    power=PowerModel(idle_watts=55.0, busy_watts=120.0),
)

#: Table 1, column 4: cf_min = 0.99508 (two frequencies only).
OPTERON_6164_HE = spec_with_cf_min(
    "AMD Opteron 6164 HE",
    [800, 1700],
    0.99508,
    power=PowerModel(idle_watts=50.0, busy_watts=115.0),
)

#: Table 1, column 5 and the Table 2 testbed (HP Elite 8300): cf_min = 0.86206.
CORE_I7_3770 = spec_with_cf_min(
    "Intel Core i7-3770",
    [1600, 2000, 2400, 2800, 3100, 3400],
    0.86206,
    power=PowerModel(idle_watts=35.0, busy_watts=95.0),
)

#: Idle ladder of the big.LITTLE clusters: clock-gate (C1) for sub-ms
#: gaps, cluster retention (C2) past 2 ms, cluster off (C3) past 50 ms —
#: the arm_idle ordering devlib's ``module/cpuidle.py`` manages.
_BL_BIG_CSTATES = make_cstates(
    [("C1", 4.0, 0.0005), ("C2", 1.5, 0.002), ("C3", 0.4, 0.05)]
)
_BL_LITTLE_CSTATES = make_cstates(
    [("C1", 1.0, 0.0005), ("C2", 0.4, 0.002), ("C3", 0.1, 0.05)]
)

_BL_BIG_STATES = make_states([1000, 1400, 1800, 2000], cf=1.0)
_BL_LITTLE_STATES = make_states([600, 1000, 1400], cf=1.0)

#: A 4+4 big.LITTLE server blade (Cortex-A15/A7 class clusters).  The
#: little cluster is listed first — machines fill domains in catalog order
#: at equal efficiency, and the cheap cluster should absorb light load
#: while the big cluster sleeps.  The big cluster alone delivers 60 % of a
#: reference host's capacity, the little one 30 %: the part trades peak
#: capacity for a full-load draw of ~47 W against the i7's 95 W — the
#: efficiency-packing side of the placement trade-off.
BIG_LITTLE_44 = ProcessorSpec(
    name="ARM big.LITTLE 4+4 (A15/A7)",
    states=_BL_BIG_STATES,
    power=PowerModel(idle_watts=10.5, busy_watts=47.0),
    domains=(
        DomainSpec(
            name="little",
            cores=4,
            states=_BL_LITTLE_STATES,
            power=PowerModel(idle_watts=2.5, busy_watts=9.0),
            cstates=_BL_LITTLE_CSTATES,
            capacity_scale=0.30,
        ),
        DomainSpec(
            name="big",
            cores=4,
            states=_BL_BIG_STATES,
            power=PowerModel(idle_watts=8.0, busy_watts=38.0),
            cstates=_BL_BIG_CSTATES,
            capacity_scale=0.60,
        ),
    ),
)

#: All Table 1 machines keyed by the paper's column headers.
TABLE1_PROCESSORS: dict[str, ProcessorSpec] = {
    "Intel Xeon X3440": XEON_X3440,
    "Intel Xeon L5420": XEON_L5420,
    "Intel Xeon E5-2620": XEON_E5_2620,
    "AMD Opteron 6164 HE": OPTERON_6164_HE,
    "Intel Core i7-3770": CORE_I7_3770,
}

#: Every catalog entry by name.
ALL_PROCESSORS: dict[str, ProcessorSpec] = {
    OPTIPLEX_755.name: OPTIPLEX_755,
    **{spec.name: spec for spec in TABLE1_PROCESSORS.values()},
    BIG_LITTLE_44.name: BIG_LITTLE_44,
}


def as_processor(value: Any) -> ProcessorSpec:
    """*value* as a processor spec: a spec passes as is, a string names a
    catalog entry.  An unknown name, or any other value, raises a
    :class:`ConfigurationError` listing the catalog."""
    if isinstance(value, ProcessorSpec):
        return value
    if isinstance(value, str) and value in ALL_PROCESSORS:
        return ALL_PROCESSORS[value]
    known = ", ".join(sorted(ALL_PROCESSORS))
    raise ConfigurationError(f"unknown processor {value!r}; catalog: {known}")
