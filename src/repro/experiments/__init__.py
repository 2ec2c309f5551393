"""Experiment harness (subsystem S10).

Every result of the paper's evaluation (§5) and our ablations is one entry
of the :data:`~.claims.CLAIMS` registry: the cells it runs (mostly the
shared §5.3 scenario, V20/V70 three-phase execution profile) and the
reducer to its paper-vs-measured :class:`~.report.ExperimentReport`.
``python -m repro reproduce`` and ``benchmarks/bench_claims.py`` run them
and assert each report's shape checks.
"""

from .scenario import (
    analysis_windows,
    build_scenario,
    effective_guests,
    guest_active_span,
    guest_window,
    GuestSpec,
    PHASE_BOTH,
    PHASE_SOLO_EARLY,
    PHASE_SOLO_LATE,
    ScenarioConfig,
    ScenarioResult,
    run_scenario,
    WorkloadSpec,
)
from .presets import get_preset, Preset, preset_config, preset_grid, PRESETS
from .report import Check, ExperimentReport
from .claims import Claim, CLAIMS, run_claim, run_claims

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "GuestSpec",
    "WorkloadSpec",
    "run_scenario",
    "build_scenario",
    "analysis_windows",
    "effective_guests",
    "guest_active_span",
    "guest_window",
    "PRESETS",
    "Preset",
    "get_preset",
    "preset_config",
    "preset_grid",
    "PHASE_SOLO_EARLY",
    "PHASE_BOTH",
    "PHASE_SOLO_LATE",
    "Check",
    "ExperimentReport",
    "Claim",
    "CLAIMS",
    "run_claim",
    "run_claims",
]
