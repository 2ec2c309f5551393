"""The lint rule registry.

Every rule is an instance of :class:`Rule` with a stable ``RPL###`` code.
Families are grouped by hundreds:

* ``RPL0xx`` — the framework's own checks (unused/unknown suppressions,
  emitted by the runner, declared here so ``--select``/``--ignore`` and the
  catalogue see them).
* ``RPL1xx`` — determinism (:mod:`.determinism`)
* ``RPL2xx`` — spec round-trip (:mod:`.roundtrip`)
* ``RPL3xx`` — registry contract (:mod:`.registry_contract`)
* ``RPL4xx`` — slots discipline (:mod:`.slots`)
* ``RPL5xx`` — error hygiene (:mod:`.hygiene`)
* ``RPL6xx`` — float purity (:mod:`.floatpurity`)
* ``RPL7xx`` — unit purity (:mod:`.unitpurity`)
* ``RPL8xx`` — transitive determinism (:mod:`.reachability`)

Rules are *tuned to this codebase*: path scopes below name the actual
modules whose invariants back the golden fixtures and store keys, not a
generic ideal of Python style.  ``docs/invariants.md`` is the prose
catalogue.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..finding import Finding
from ..source import Project, SourceModule

__all__ = [
    "FRAMEWORK_CODES",
    "RULES",
    "Rule",
    "WALL_CLOCK_SANCTIONED",
    "all_codes",
    "in_accounting",
    "in_hot_path",
    "in_library",
    "in_library_core",
    "in_order_sensitive",
    "in_wall_clock_sanctioned",
    "rule_catalog",
]


class Rule:
    """One checkable invariant with a stable code.

    Subclasses override :meth:`check` (per-module) and/or
    :meth:`check_project` (cross-file).  ``applies_to`` gates per-module
    checks by path scope so rules stay cheap and targeted.
    """

    code: str = "RPL000"
    name: str = "rule"
    summary: str = ""

    def applies_to(self, module: SourceModule) -> bool:
        return True

    def check(self, module: SourceModule) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        return iter(())

    # ----------------------------------------------------------- helpers

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


# ------------------------------------------------------------ path scopes
#
# Scopes are repo-relative POSIX path predicates.  Tests exercise them with
# virtual paths ("src/repro/sim/fake.py"), so no fixture file on disk ever
# carries a live violation.


def in_library(path: str) -> bool:
    """All library code shipped under ``src/repro``."""
    return path.startswith("src/repro/")


#: The one module allowed to read a wall clock: the opt-in sampling
#: profiler.  Only the CLI imports it and its sampler runs as a signal
#: handler, so the RPL8xx reachability walk never sees it from the
#: determinism roots — the sanction is a *rule-scope* carve-out, not a
#: suppression comment, and tests/lint/test_meta.py proves the same source
#: is flagged anywhere else.
WALL_CLOCK_SANCTIONED = frozenset({"src/repro/obs/profile.py"})


def in_wall_clock_sanctioned(path: str) -> bool:
    """True for the profiler module, where wall-clock reads are the point."""
    return path in WALL_CLOCK_SANCTIONED


def in_library_core(path: str) -> bool:
    """Library code minus the presentation boundary.

    ``cli.py`` and ``__main__.py`` talk to a terminal — printing and
    argparse-style ValueErrors are their job, so the error-hygiene rules
    stop at that boundary.
    """
    return in_library(path) and not path.endswith(("/cli.py", "/__main__.py"))


def in_order_sensitive(path: str) -> bool:
    """Modules whose iteration order reaches exports or event scheduling.

    The simulator heap, telemetry export, and sweep enumeration all feed
    byte-compared artefacts (golden fixtures, store keys, CSV exports); an
    unordered iteration here reorders output across interpreter runs.
    """
    return (
        path.startswith("src/repro/sim/")
        or path.startswith("src/repro/sweep/")
        or path == "src/repro/telemetry/export.py"
    )


#: Hot-path modules: the slice-dispatch loop plus the latency tracker the
#: web app feeds on every poll.  Allocation discipline is load-bearing here.
_HOT_PATH = frozenset(
    {
        "src/repro/sim/events.py",
        "src/repro/sim/timers.py",
        "src/repro/hypervisor/vcpu.py",
        "src/repro/workloads/latency.py",
    }
)


def in_hot_path(path: str) -> bool:
    """The per-event hot path (slotted, allocation-audited)."""
    return path in _HOT_PATH


def in_accounting(path: str) -> bool:
    """Paths whose float arithmetic lands in Eq. 1-3 accounting output."""
    return (
        path.startswith("src/repro/cpu/")
        or path.startswith("src/repro/core/")
        or path.startswith("src/repro/hypervisor/")
        or path.startswith("src/repro/telemetry/")
        or path == "src/repro/cluster/orchestrator.py"
        or path == "src/repro/sweep/metrics.py"
        or path == "src/repro/workloads/latency.py"
    )


# --------------------------------------------------------------- registry

from .determinism import (  # noqa: E402
    EntropySourceRule,
    UnorderedIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from .floatpurity import SetAccumulationRule, SetSumRule  # noqa: E402
from .hygiene import NonLibraryRaiseRule, PrintRule  # noqa: E402
from .reachability import (  # noqa: E402
    TransitiveEntropyRule,
    TransitiveRandomRule,
    TransitiveWallClockRule,
)
from .registry_contract import RegistryHooksRule, RegistryTestedRule  # noqa: E402
from .roundtrip import FromDictRule, ToDictRule  # noqa: E402
from .slots import MissingSlotsRule, SlotsAssignmentRule  # noqa: E402
from .unitpurity import (  # noqa: E402
    PercentFractionRule,
    UnitAssignRule,
    UnitMixRule,
    UnsuffixedParamRule,
)

#: Codes emitted by the runner itself rather than a visitor.
FRAMEWORK_CODES: dict[str, str] = {
    "RPL001": "unused suppression: the comment silences nothing on its line",
    "RPL002": "unknown rule code in a repro-lint suppression comment",
}

#: Every rule, in code order.  The tuple is the single source of truth the
#: runner, the CLI ``--select``/``--ignore`` validation, the catalogue in
#: ``docs/invariants.md``, and the tests all draw from.
RULES: tuple[Rule, ...] = (
    WallClockRule(),
    EntropySourceRule(),
    UnseededRandomRule(),
    UnorderedIterationRule(),
    ToDictRule(),
    FromDictRule(),
    RegistryHooksRule(),
    RegistryTestedRule(),
    SlotsAssignmentRule(),
    MissingSlotsRule(),
    NonLibraryRaiseRule(),
    PrintRule(),
    SetSumRule(),
    SetAccumulationRule(),
    UnitMixRule(),
    UnitAssignRule(),
    PercentFractionRule(),
    UnsuffixedParamRule(),
    TransitiveWallClockRule(),
    TransitiveEntropyRule(),
    TransitiveRandomRule(),
)


def all_codes() -> frozenset[str]:
    """Every valid code: registered rules plus the framework's own."""
    return frozenset(rule.code for rule in RULES) | frozenset(FRAMEWORK_CODES)


def rule_catalog() -> list[dict]:
    """The machine-readable catalogue (``repro lint --list-rules``)."""
    entries = [
        {"code": code, "name": "suppression-audit", "summary": summary}
        for code, summary in sorted(FRAMEWORK_CODES.items())
    ]
    entries.extend(
        {"code": rule.code, "name": rule.name, "summary": rule.summary}
        for rule in RULES
    )
    entries.sort(key=lambda entry: entry["code"])
    return entries
