"""RPL4xx — slots discipline on the per-event hot path.

``sim/events.py``, ``sim/timers.py`` and ``hypervisor/vcpu.py`` sit inside
the slice-dispatch loop that PR 5 audited allocation-by-allocation, and
``workloads/latency.py`` runs on every web-app poll; their classes are
slotted so instances stay dict-free (smaller, faster attribute access, and
— the invariant that actually matters — no drive-by attribute grows the
per-event footprint unreviewed).  A ``@dataclass(slots=True)`` class counts
as slotted, its fields being its slots.  A ``self.x = ...`` outside
``__slots__`` raises AttributeError at runtime only on the path that
executes it; statically it is always visible.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..finding import Finding
from ..source import ClassInfo, Project, SourceModule, _collect_classes

from . import Rule, in_hot_path

#: Base classes whose instances legitimately carry a dict (or manage their
#: own storage): enums and exceptions are exempt from the slots rules.
_EXEMPT_BASES = frozenset({"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"})


def _is_exempt(info: ClassInfo) -> bool:
    if any(base in _EXEMPT_BASES for base in info.bases):
        return True
    return any(base.endswith(("Error", "Exception", "Warning")) for base in info.bases)


class MissingSlotsRule(Rule):
    code = "RPL402"
    name = "hot-path-slots"
    summary = (
        "every class in the hot-path modules (sim/events, sim/timers, "
        "hypervisor/vcpu, workloads/latency) must declare __slots__"
    )

    def applies_to(self, module: SourceModule) -> bool:
        return in_hot_path(module.path)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for info in _collect_classes(module):
            if _is_exempt(info):
                continue
            if info.slots is None:
                yield self.finding(
                    module,
                    info.node,
                    f"hot-path class {info.name} has no __slots__; instances "
                    "grow a per-object dict inside the dispatch loop",
                )


class SlotsAssignmentRule(Rule):
    code = "RPL401"
    name = "slots-assignment"
    summary = (
        "hot-path classes must not assign self attributes outside their "
        "declared __slots__ (the names are the audited footprint)"
    )

    def applies_to(self, module: SourceModule) -> bool:
        return in_hot_path(module.path)

    def check_project(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if not self.applies_to(module):
                continue
            for info in _collect_classes(module):
                if _is_exempt(info) or info.slots is None:
                    continue
                allowed = set(info.slots)
                for ancestor in project.ancestry(info):
                    if ancestor.slots is not None:
                        allowed.update(ancestor.slots)
                for func in info.methods.values():
                    self_name = _self_param(func)
                    if self_name is None:
                        continue
                    for node in ast.walk(func):
                        target = _self_attr_target(node, self_name)
                        if target is not None and target.attr not in allowed:
                            yield self.finding(
                                module,
                                target,
                                f"assignment to {self_name}.{target.attr} "
                                f"outside __slots__ of {info.name}; add the "
                                "slot or drop the attribute",
                            )


def _self_param(func: ast.AST) -> str | None:
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    args = func.args.posonlyargs + func.args.args
    if not args:
        return None
    for decorator in func.decorator_list:
        name = decorator.id if isinstance(decorator, ast.Name) else None
        if name in ("staticmethod", "classmethod"):
            return None
    return args[0].arg


def _self_attr_target(node: ast.AST, self_name: str) -> ast.Attribute | None:
    """The ``self.x`` target of an assignment statement, if any."""
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for target in targets:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == self_name
        ):
            return target
    return None
