"""Parsed source files and the project-wide view rules check against.

A :class:`SourceModule` is one file: its repo-relative path, source text,
AST, and the per-line ``# repro-lint: disable=RPL###`` suppressions.  A
:class:`Project` groups the modules of one lint run and lazily builds the
cross-file indexes project rules need: a class table (name → definitions,
bases, methods, ``__slots__``, abstract hooks) and the corpus of string
constants appearing in test modules (the registry-contract rule checks
registered names against it).

Paths are normalised to repo-relative POSIX form so rule scoping
(``src/repro/sim/...``) and report output are identical however the linter
was invoked.  Tests construct modules from in-memory source with virtual
paths, which is how path-scoped rules are exercised without touching real
library files.
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
from dataclasses import dataclass, field as dataclass_field
from typing import Iterator, Mapping, Sequence

from ..errors import ConfigurationError

#: Shape of a suppression comment, anchored at the start of the comment
#: token so prose that merely *mentions* the syntax never counts.
_SUPPRESSION_RE = re.compile(r"^#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: A well-formed rule code.
CODE_RE = re.compile(r"^RPL\d{3}$")


@dataclass(frozen=True)
class Suppression:
    """One code suppressed on one line (``# repro-lint: disable=...``)."""

    line: int
    code: str


def parse_suppressions(source: str) -> tuple[Suppression, ...]:
    """Every per-line suppression in *source*, malformed codes included.

    Only genuine COMMENT tokens count (a docstring quoting the syntax is
    prose, not a directive).  Malformed entries (anything not matching
    ``RPL###``) are kept — the runner turns them into findings rather than
    silently ignoring them.
    """
    found: list[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenizeError, IndentationError):  # pragma: no cover
        return ()
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_RE.match(token.string)
        if match is None:
            continue
        for raw in match.group(1).split(","):
            code = raw.strip()
            if code:
                found.append(Suppression(line=token.start[0], code=code))
    return tuple(found)


class SourceModule:
    """One parsed file of a lint run."""

    def __init__(self, path: str, source: str) -> None:
        #: Repo-relative POSIX path (or the virtual path a test supplied).
        self.path = path
        self.source = source
        try:
            self.tree: ast.Module = ast.parse(source, filename=path)
        except SyntaxError as error:
            raise ConfigurationError(f"cannot lint {path}: {error}") from None
        self.suppressions: tuple[Suppression, ...] = parse_suppressions(source)
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._aliases: dict[str, str] | None = None

    def suppressed_codes(self, line: int) -> set[str]:
        """Codes suppressed on *line*."""
        return {s.code for s in self.suppressions if s.line == line}

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of *node* (None for the module root)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for outer in ast.walk(self.tree):
                for inner in ast.iter_child_nodes(outer):
                    parents[inner] = outer
            self._parents = parents
        return self._parents.get(node)

    def walk(self) -> Iterator[ast.AST]:
        """All nodes of the module tree."""
        return ast.walk(self.tree)

    def import_aliases(self) -> dict[str, str]:
        """Local name → canonical dotted prefix, from this module's imports.

        ``import time as _wall`` maps ``_wall`` to ``time``; ``from datetime
        import datetime as dt`` maps ``dt`` to ``datetime.datetime``.  Rules
        canonicalise call names through this so aliasing an import is not a
        lint evasion.  Relative imports are skipped — they name repo modules,
        never the stdlib modules the determinism rules ban.
        """
        if self._aliases is None:
            aliases: dict[str, str] = {}
            for node in self.walk():
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname is not None:
                            aliases[alias.asname] = alias.name
                elif (
                    isinstance(node, ast.ImportFrom)
                    and node.module
                    and node.level == 0
                ):
                    for alias in node.names:
                        local = alias.asname or alias.name
                        aliases[local] = f"{node.module}.{alias.name}"
            self._aliases = aliases
        return self._aliases

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SourceModule({self.path!r}, {len(self.source)} chars)"


# ------------------------------------------------------------- class table


def _base_name(node: ast.expr) -> str | None:
    """The bare name of a base-class expression (``a.b.C`` → ``C``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_abstract_method(node: ast.FunctionDef) -> bool:
    """True for ``@abstractmethod`` hooks or NotImplementedError-only bodies."""
    for decorator in node.decorator_list:
        name = _base_name(decorator) or (
            decorator.func and _base_name(decorator.func)
            if isinstance(decorator, ast.Call)
            else None
        )
        if name in ("abstractmethod", "abstractproperty"):
            return True
    body = [stmt for stmt in node.body if not _is_docstring(stmt)]
    if len(body) == 1 and isinstance(body[0], ast.Raise):
        exc = body[0].exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(target, ast.Name) and target.id == "NotImplementedError":
            return True
    return False


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


@dataclass
class ClassInfo:
    """Static facts about one class definition."""

    module: SourceModule
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    methods: dict = dataclass_field(default_factory=dict)
    class_attrs: dict = dataclass_field(default_factory=dict)
    slots: tuple[str, ...] | None = None
    abstract_methods: frozenset = frozenset()

    @property
    def name(self) -> str:
        return self.node.name


def _collect_classes(module: SourceModule) -> Iterator[ClassInfo]:
    for node in module.walk():
        if not isinstance(node, ast.ClassDef):
            continue
        info = ClassInfo(
            module=module,
            node=node,
            bases=tuple(
                name for base in node.bases if (name := _base_name(base)) is not None
            ),
        )
        abstract = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = stmt
                if isinstance(stmt, ast.FunctionDef) and _is_abstract_method(stmt):
                    abstract.add(stmt.name)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    info.class_attrs[target.id] = stmt.value
                    if target.id == "__slots__":
                        info.slots = _slot_names(stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if stmt.value is not None:
                    info.class_attrs[stmt.target.id] = stmt.value
                if stmt.target.id == "__slots__" and stmt.value is not None:
                    info.slots = _slot_names(stmt.value)
        if info.slots is None and _is_slotted_dataclass(node):
            info.slots = _dataclass_fields(node)
        info.abstract_methods = frozenset(abstract)
        yield info


def _is_slotted_dataclass(node: ast.ClassDef) -> bool:
    """True for a class decorated ``@dataclass(..., slots=True)``."""
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call) or _base_name(decorator.func) != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> tuple[str, ...]:
    """The slots ``@dataclass(slots=True)`` makes: its annotated fields.

    ``ClassVar`` and ``InitVar`` annotations name no instance field.
    """
    names = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        annotation = stmt.annotation
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            kind = annotation.value.split("[")[0].split(".")[-1]
        else:
            kind = _base_name(annotation)
        if kind not in ("ClassVar", "InitVar"):
            names.append(stmt.target.id)
    return tuple(names)


def _slot_names(value: ast.expr) -> tuple[str, ...]:
    """Names listed by a ``__slots__`` assignment (tuple/list/str/dict)."""
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return (value.value,)
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        return tuple(
            element.value
            for element in value.elts
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        )
    if isinstance(value, ast.Dict):
        return tuple(
            key.value
            for key in value.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        )
    return ()


# ----------------------------------------------------------------- project


class Project:
    """The full module set of one lint run, with lazy cross-file indexes."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules = tuple(sorted(modules, key=lambda m: m.path))
        self._by_path: Mapping[str, SourceModule] = {m.path: m for m in self.modules}
        self._classes: dict[str, list[ClassInfo]] | None = None
        self._test_strings: frozenset[str] | None = None
        self._symbols = None
        self._callgraph = None

    def module_at(self, path: str) -> SourceModule | None:
        """The module with exactly this repo-relative *path*, if linted."""
        return self._by_path.get(path)

    @property
    def has_tests(self) -> bool:
        """True when the lint set includes test modules (``tests/...``)."""
        return any(m.path.startswith("tests/") for m in self.modules)

    # ------------------------------------------------------------- indexes

    @property
    def classes(self) -> Mapping[str, list[ClassInfo]]:
        """Every class definition in the run, keyed by bare class name."""
        if self._classes is None:
            table: dict[str, list[ClassInfo]] = {}
            for module in self.modules:
                for info in _collect_classes(module):
                    table.setdefault(info.name, []).append(info)
            self._classes = table
        return self._classes

    def class_named(self, name: str) -> ClassInfo | None:
        """The first definition of class *name* (None when not linted)."""
        candidates = self.classes.get(name)
        return candidates[0] if candidates else None

    def ancestry(self, info: ClassInfo) -> list[ClassInfo]:
        """*info* plus every project-visible ancestor, MRO-ish order."""
        seen: list[ClassInfo] = []
        names: set[str] = set()
        stack = [info]
        while stack:
            current = stack.pop(0)
            if current.name in names:
                continue
            names.add(current.name)
            seen.append(current)
            for base in current.bases:
                parent = self.class_named(base)
                if parent is not None:
                    stack.append(parent)
        return seen

    @property
    def symbols(self):
        """The interprocedural symbol table (lazy; see ``lint/symbols.py``)."""
        if self._symbols is None:
            from .symbols import SymbolTable  # local: avoids an import cycle

            self._symbols = SymbolTable(self)
        return self._symbols

    @property
    def callgraph(self):
        """The resolved call graph (lazy; see ``lint/callgraph.py``)."""
        if self._callgraph is None:
            from .callgraph import CallGraph  # local: avoids an import cycle

            self._callgraph = CallGraph(self)
        return self._callgraph

    @property
    def test_strings(self) -> frozenset[str]:
        """Every string constant appearing in a test module."""
        if self._test_strings is None:
            strings: set[str] = set()
            for module in self.modules:
                if not module.path.startswith("tests/"):
                    continue
                for node in module.walk():
                    if isinstance(node, ast.Constant) and isinstance(node.value, str):
                        strings.add(node.value)
            self._test_strings = frozenset(strings)
        return self._test_strings


# -------------------------------------------------------------- collection

#: Directory names never linted (caches, VCS internals, virtualenvs).
_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".pytest_cache", ".venv", "node_modules"}


def _repo_relative(path: pathlib.Path) -> str:
    """*path* relative to the repo root (the dir holding ``pyproject.toml``).

    Falls back to the path as given when no marker is found, so linting
    loose files outside a checkout still works (with absolute-path output).
    """
    resolved = path.resolve()
    for parent in resolved.parents:
        if (parent / "pyproject.toml").exists():
            return resolved.relative_to(parent).as_posix()
    return path.as_posix()


def collect_files(paths: Sequence[str]) -> list[pathlib.Path]:
    """Expand *paths* (files or directories) to a sorted ``.py`` file list."""
    files: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if not path.exists():
            raise ConfigurationError(f"no such file or directory: {raw}")
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise ConfigurationError(f"not a python file: {raw}")
    return sorted(files)


def load_project(paths: Sequence[str]) -> Project:
    """Parse every ``.py`` file under *paths* into a :class:`Project`."""
    modules = []
    for file in collect_files(paths):
        source = file.read_text(encoding="utf-8")
        modules.append(SourceModule(_repo_relative(file), source))
    return Project(modules)
