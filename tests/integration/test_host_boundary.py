"""One place builds a host: the spec interpreter.

Every experiment is a config, so outside the hypervisor package itself the
only ``Host(...)`` call in the library is
:func:`repro.experiments.scenario.build_scenario`.  A module that builds its
own host is a second run driver and skips what the interpreter sets up
(Dom0, pinned frequency limits, managers, QoS).
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).resolve().parent


class _HostCalls(ast.NodeVisitor):
    """``(module, enclosing function)`` of every ``Host(...)`` call."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.scope: list[str] = []
        self.found: list[tuple[str, str]] = []

    def _visit_scope(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_scope

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "Host":
            self.found.append((self.module, ".".join(self.scope) or "<module>"))
        self.generic_visit(node)


def test_only_build_scenario_constructs_a_host():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        if module.startswith("hypervisor/"):
            continue
        calls = _HostCalls(module)
        calls.visit(ast.parse(path.read_text(), filename=str(path)))
        found.extend(calls.found)
    assert found == [("experiments/scenario.py", "build_scenario")]
