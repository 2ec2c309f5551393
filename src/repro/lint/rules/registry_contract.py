"""RPL3xx — registry contract: registered names are implemented and tested.

The CLI, scenario configs, and sweep grids address schedulers, governors,
orchestration policies, and presets purely by registry name.  A registered
class missing a required hook fails only when that name is first exercised
— possibly hours into a sweep; a name no test references can rot silently.
These are project rules: they read the actual registry modules (this is a
codebase-specific linter, the locations are pinned) and cross-check against
the class table and the string corpus of the linted test modules.

Registries checked:

* ``src/repro/schedulers/registry.py`` — ``SCHEDULER_NAMES`` +
  ``make_scheduler`` if-chain; hooks = ``Scheduler`` abstract methods.
* ``src/repro/governors/registry.py`` — ``_FACTORIES`` dict literal;
  hooks = ``Governor`` abstract methods.
* ``src/repro/cluster/policies.py`` — ``POLICY_REGISTRY`` dict keyed by
  ``<Class>.name``; hooks = ``OrchestrationPolicy`` NotImplementedError
  methods.
* ``src/repro/experiments/presets.py`` — ``Preset(name=...)`` factories;
  names only (presets are data, they have no hooks).
* ``src/repro/qos/controllers.py`` — ``CONTROLLER_REGISTRY`` dict keyed by
  ``<Class>.name``; hooks = ``QosController`` abstract methods.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from ..finding import Finding
from ..source import ClassInfo, Project, SourceModule

from . import Rule


@dataclass(frozen=True)
class _Registered:
    """One registry entry: a public name, where it is declared, and (for
    class-backed registries) the implementing class name."""

    kind: str
    name: str
    module: SourceModule
    node: ast.AST
    class_name: str | None = None


def _str_const(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _scheduler_entries(module: SourceModule) -> Iterator[_Registered]:
    """``SCHEDULER_NAMES`` paired with the classes ``make_scheduler`` builds."""
    names: list[tuple[str, ast.AST]] = []
    class_for_name: dict[str, str] = {}
    for node in module.walk():
        # ``SCHEDULER_NAMES = (...)`` or, annotated, ``SCHEDULER_NAMES: ... = (...)``.
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            if isinstance(target, ast.Name) and target.id == "SCHEDULER_NAMES":
                if isinstance(node.value, (ast.Tuple, ast.List)):
                    for element in node.value.elts:
                        if (name := _str_const(element)) is not None:
                            names.append((name, element))
        elif isinstance(node, ast.FunctionDef) and node.name == "make_scheduler":
            # if name == "credit": return CreditScheduler(**kwargs)
            for inner in ast.walk(node):
                if not isinstance(inner, ast.If):
                    continue
                test = inner.test
                if not (
                    isinstance(test, ast.Compare)
                    and (name := _str_const(test.comparators[0])) is not None
                ):
                    continue
                for stmt in ast.walk(inner):
                    if (
                        isinstance(stmt, ast.Call)
                        and isinstance(stmt.func, ast.Name)
                        and stmt.func.id[:1].isupper()
                    ):
                        class_for_name[name] = stmt.func.id
                        break
    for name, node in names:
        yield _Registered(
            kind="scheduler",
            name=name,
            module=module,
            node=node,
            class_name=class_for_name.get(name),
        )


def _dict_registry_entries(
    module: SourceModule, kind: str, registry_name: str
) -> Iterator[_Registered]:
    """Entries of a ``{name: Class}`` dict literal (governors, policies).

    Keys are either string constants (``_FACTORIES``) or ``Class.name``
    attribute references (``POLICY_REGISTRY``), resolved against the class
    body's ``name = "..."`` attribute.
    """
    for node in module.walk():
        if not (
            isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == registry_name
            and isinstance(node.value, ast.Dict)
        ):
            continue
        class_names = _module_classes(module)
        for key, value in zip(node.value.keys, node.value.values):
            class_name = value.id if isinstance(value, ast.Name) else None
            name = _str_const(key) if key is not None else None
            if (
                name is None
                and isinstance(key, ast.Attribute)
                and key.attr == "name"
                and isinstance(key.value, ast.Name)
            ):
                info = class_names.get(key.value.id)
                if info is not None:
                    name = _str_const(info.class_attrs.get("name"))
            if name is not None:
                yield _Registered(
                    kind=kind,
                    name=name,
                    module=module,
                    node=key if key is not None else node,
                    class_name=class_name,
                )


def _module_classes(module: SourceModule) -> dict[str, ClassInfo]:
    from ..source import _collect_classes

    return {info.name: info for info in _collect_classes(module)}


def _preset_entries(module: SourceModule) -> Iterator[_Registered]:
    """Every ``Preset(name="...")`` construction."""
    for node in module.walk():
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Preset"
        ):
            continue
        for keyword in node.keywords:
            if keyword.arg == "name" and (name := _str_const(keyword.value)):
                yield _Registered(
                    kind="preset", name=name, module=module, node=node
                )


#: registry module path → (kind, entry extractor, base class with hooks)
_REGISTRIES: tuple[tuple[str, str, str | None], ...] = (
    ("src/repro/schedulers/registry.py", "scheduler", "Scheduler"),
    ("src/repro/governors/registry.py", "governor", "Governor"),
    ("src/repro/cluster/policies.py", "policy", "OrchestrationPolicy"),
    ("src/repro/experiments/presets.py", "preset", None),
    ("src/repro/qos/controllers.py", "qos-controller", "QosController"),
)


def _entries_for(module: SourceModule, kind: str) -> Iterator[_Registered]:
    if kind == "scheduler":
        yield from _scheduler_entries(module)
    elif kind == "governor":
        yield from _dict_registry_entries(module, kind, "_FACTORIES")
    elif kind == "policy":
        yield from _dict_registry_entries(module, kind, "POLICY_REGISTRY")
    elif kind == "qos-controller":
        yield from _dict_registry_entries(module, kind, "CONTROLLER_REGISTRY")
    elif kind == "preset":
        yield from _preset_entries(module)


class RegistryHooksRule(Rule):
    code = "RPL301"
    name = "registry-hooks"
    summary = (
        "every registered scheduler/governor/policy class must implement "
        "its base's abstract hooks (missing ones fail mid-sweep)"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        for path, kind, base_name in _REGISTRIES:
            module = project.module_at(path)
            if module is None or base_name is None:
                continue
            base = project.class_named(base_name)
            if base is None or not base.abstract_methods:
                continue
            for entry in _entries_for(module, kind):
                if entry.class_name is None:
                    continue
                info = project.class_named(entry.class_name)
                if info is None:
                    # Implementation not in the lint run (e.g. lazy import
                    # target outside the linted paths): nothing to judge.
                    continue
                implemented: set[str] = set()
                for ancestor in project.ancestry(info):
                    for method in ancestor.methods:
                        if method not in ancestor.abstract_methods:
                            implemented.add(method)
                missing = sorted(base.abstract_methods - implemented)
                if missing:
                    yield self.finding(
                        info.module,
                        info.node,
                        f"{kind} `{entry.name}` ({entry.class_name}) does not "
                        f"implement required hook(s): {', '.join(missing)}",
                    )


class RegistryTestedRule(Rule):
    code = "RPL302"
    name = "registry-tested"
    summary = (
        "every registered scheduler/governor/policy/preset name must be "
        "referenced by at least one test (unreferenced names rot silently)"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        if not project.has_tests:
            # Without tests in the lint set there is no corpus to check
            # against; partial runs (e.g. `repro lint src/repro/cpu`) must
            # not fabricate coverage findings.
            return
        corpus = project.test_strings
        for path, kind, _ in _REGISTRIES:
            module = project.module_at(path)
            if module is None:
                continue
            for entry in _entries_for(module, kind):
                if not any(entry.name in text for text in corpus):
                    yield self.finding(
                        module,
                        entry.node,
                        f"registered {kind} `{entry.name}` is not referenced "
                        "by any linted test",
                    )
