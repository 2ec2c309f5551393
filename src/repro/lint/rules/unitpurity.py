"""RPL7xx — unit purity: the `units.py` naming conventions, enforced.

The paper's model juggles four-plus physical dimensions — MHz P-states,
watt curves, credit percentages, absolute work-seconds (Eq. 1–3) — and
``repro/units.py`` pins the naming conventions that keep them apart
(``*_s``, ``*_mhz``, ``*_w``, ``*_percent``, …; bare ``credit``/``cap``/
``load`` names are percentages).  These rules *infer* a dimension for every
name from those conventions and flag the places where dimensions mix:

* RPL701 — arithmetic (``+``/``-``, comparisons) between two names of
  different inferred dimensions (``power_w + energy_kwh``);
* RPL702 — assigning a value of one dimension to a name of another with no
  conversion expression in between;
* RPL703 — percent↔fraction confusion: a ``[0, 100]`` name compared against
  a ``(0, 1)`` literal bound, or a percent-dimensioned argument handed to
  ``check_fraction``/``percent_to_fraction`` (and vice versa);
* RPL704 — a public ``float`` parameter in an accounting module whose name
  carries no dimension suffix at all, so none of the rules above can see it.

Inference is deliberately name-based and conservative: products, quotients
and unrecognised names infer *no* dimension and never flag, so a genuine
conversion (``load_percent / 100.0``, ``percent_to_fraction(cap)``) is
always a sanctioned escape.  The lattice and suffix table live in
``docs/invariants.md``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..finding import Finding
from ..source import SourceModule
from . import Rule, in_accounting, in_library

#: Suffix token → dimension label.  Matched against the last ``_``-separated
#: token of a name; a single-token name matches only when the token is at
#: least three characters (so loop variables ``w``/``s``/``t`` stay inert —
#: ``t`` is claimed by the simulated-time names below instead).
_SUFFIX_UNITS: dict[str, str] = {
    "s": "s",
    "sec": "s",
    "secs": "s",
    "seconds": "s",
    "mhz": "MHz",
    "ghz": "GHz",
    "w": "W",
    "watt": "W",
    "watts": "W",
    "kwh": "kWh",
    "wh": "Wh",
    "j": "J",
    "joules": "J",
    "percent": "%",
    "pct": "%",
    "fraction": "frac",
    "frac": "frac",
    "mb": "MB",
    "gb": "GB",
    "rps": "req/s",
}

#: Stems that are percentages by convention (units.py: "credits, caps and
#: loads are percentages in [0, 100]").  Matched as the whole name or its
#: last token.
_PERCENT_STEMS = frozenset(
    {
        "cap",
        "caps",
        "credit",
        "credits",
        "load",
        "loads",
        "util",
        "utilisation",
        "utilization",
    }
)

#: Names that are simulated seconds by convention even without a suffix —
#: the engine's own vocabulary (``Engine.now``, ``dt``, ``run_until``).
_TIME_NAMES = frozenset(
    {
        "deadline",
        "delay",
        "dt",
        "duration",
        "elapsed",
        "end",
        "horizon",
        "now",
        "period",
        "start",
        "t",
        "time",
        "until",
        "wall_dt",
        "when",
    }
)

#: Last tokens that mark a compound name as seconds (``boot_time``,
#: ``epoch_duration``); ``*_s`` is still the preferred spelling.
_TIME_LAST_TOKENS = frozenset(
    {"deadline", "delay", "duration", "elapsed", "horizon", "interval", "period", "time"}
)

#: Conversion helpers from units.py: callee name → dimension of the result.
_CONVERSIONS = {
    "percent_to_fraction": "frac",
    "fraction_to_percent": "%",
}

#: Dimensionless names a public float parameter may use without a suffix
#: (RPL704): pure ratios, curve-fit coefficients, interpolation bounds.
_DIMENSIONLESS_PARAMS = frozenset(
    {
        "alpha",
        "beta",
        "epsilon",
        "eps",
        "cf",  # paper notation: the calibration frequency-capacity ratio
        "cf_min",
        "cf_max",
        "factor",
        "gamma",
        "hi",
        "lo",
        "requests",  # a (fractional) request count, not a physical quantity
        "mean",
        "ratio",
        "scale",
        "sigma",
        "slope",
        "std",
        "tolerance",
        "value",
        "weight",
        "y_max",  # chart axis bounds take whatever unit the series has
        "y_min",
    }
)


#: Tokens that join a quantity to what it is measured at or of
#: (``time_at_credit``, ``share_of_load``): the name is the head's quantity.
_QUALIFIERS = frozenset({"at", "of"})


def _is_time_word(tokens: list[str]) -> bool:
    """Whether the name made of *tokens* is simulated-time vocabulary."""
    return "_".join(tokens) in _TIME_NAMES or (
        len(tokens) >= 2 and tokens[-1] in _TIME_LAST_TOKENS
    )


def infer_unit_of_name(name: str) -> str | None:
    """The dimension a bare name carries by convention, or None.

    Precedence: a one-letter subscript on a time word (the paper's
    ``T_j``: ``time_j``) reads as seconds; then an explicit suffix beats
    the head of an ``_at_``/``_of_`` name (``time_at_credit`` is a time),
    which beats stem conventions, which beat the simulated-time vocabulary
    — ``utilization_fraction`` is a fraction even though the
    ``utilization`` stem alone would read as a percentage.
    """
    lowered = name.lower()
    tokens = lowered.split("_")
    if "per" in tokens:
        return None  # rates (work_per_period, moves_per_epoch) are ratios
    last = tokens[-1]
    if len(tokens) >= 2 and len(last) == 1 and _is_time_word(tokens[:-1]):
        return "s"
    if last in _SUFFIX_UNITS and (len(tokens) >= 2 or len(last) >= 3):
        return _SUFFIX_UNITS[last]
    for index in range(1, len(tokens) - 1):
        if tokens[index] in _QUALIFIERS:
            return infer_unit_of_name("_".join(tokens[:index]))
    if lowered in _PERCENT_STEMS or last in _PERCENT_STEMS:
        return "%"
    if _is_time_word(tokens):
        return "s"
    if tokens[0] == "work" or last == "work":
        return "work-s"
    return None


def _callee_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def infer_unit_of_expr(node: ast.expr) -> str | None:
    """The dimension of an expression, or None when it cannot be known.

    Products, quotients, unrecognised calls and bare literals infer None —
    the conservative answer that makes every conversion expression a
    sanctioned escape from the assignment/arithmetic rules.
    """
    if isinstance(node, ast.Name):
        return infer_unit_of_name(node.id)
    if isinstance(node, ast.Attribute):
        return infer_unit_of_name(node.attr)
    if isinstance(node, ast.UnaryOp):
        return infer_unit_of_expr(node.operand)
    if isinstance(node, ast.Call):
        callee = _callee_name(node.func)
        if callee is None:
            return None
        if callee in _CONVERSIONS:
            return _CONVERSIONS[callee]
        return infer_unit_of_name(callee)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left = infer_unit_of_expr(node.left)
        right = infer_unit_of_expr(node.right)
        if left == right:
            return left
        if left is None:
            return right
        if right is None:
            return left
        return None  # mixed: RPL701's business, not a usable dimension
    if isinstance(node, ast.IfExp):
        body = infer_unit_of_expr(node.body)
        orelse = infer_unit_of_expr(node.orelse)
        return body if body == orelse else None
    return None


def _operand_label(node: ast.expr) -> str:
    """A short human label for an operand in a finding message."""
    name = _callee_name(node) if isinstance(node, ast.Call) else None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.UnaryOp):
        return _operand_label(node.operand)
    if name is not None:
        return f"`{name}`"
    return "expression"


class UnitMixRule(Rule):
    code = "RPL701"
    name = "no-dimension-mixing"
    summary = (
        "additive arithmetic and comparisons must not mix inferred "
        "dimensions (power_w + energy_kwh); convert explicitly first"
    )

    def applies_to(self, module: SourceModule) -> bool:
        return in_library(module.path)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.walk():
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                yield from self._check_pair(module, node, node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                yield from self._check_pair(module, node, node.target, node.value)
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for left, right in zip(operands, operands[1:]):
                    yield from self._check_pair(module, node, left, right)

    def _check_pair(
        self,
        module: SourceModule,
        node: ast.AST,
        left: ast.expr,
        right: ast.expr,
    ) -> Iterator[Finding]:
        left_unit = infer_unit_of_expr(left)
        right_unit = infer_unit_of_expr(right)
        if left_unit is None or right_unit is None or left_unit == right_unit:
            return
        yield self.finding(
            module,
            node,
            f"dimension mix: {_operand_label(left)} is [{left_unit}] but "
            f"{_operand_label(right)} is [{right_unit}]; convert one side "
            "explicitly before combining",
        )


class UnitAssignRule(Rule):
    code = "RPL702"
    name = "no-cross-dimension-assignment"
    summary = (
        "a name of one inferred dimension must not be assigned a value of "
        "another without a conversion expression"
    )

    def applies_to(self, module: SourceModule) -> bool:
        return in_library(module.path)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.walk():
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            value_unit = infer_unit_of_expr(value)
            if value_unit is None:
                continue
            for target in targets:
                if not isinstance(target, (ast.Name, ast.Attribute)):
                    continue
                target_unit = infer_unit_of_expr(target)
                if target_unit is None or target_unit == value_unit:
                    continue
                yield self.finding(
                    module,
                    node,
                    f"cross-dimension assignment: {_operand_label(target)} is "
                    f"[{target_unit}] but the value is [{value_unit}]; insert "
                    "an explicit conversion",
                )


def _float_literal(node: ast.expr) -> float | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
    ):
        return None  # negative bounds are out of both ranges anyway
    return None


class PercentFractionRule(Rule):
    code = "RPL703"
    name = "no-percent-fraction-confusion"
    summary = (
        "percent names ([0,100]) must not meet (0,1) literal bounds or "
        "check_fraction/percent_to_fraction, and vice versa"
    )

    def applies_to(self, module: SourceModule) -> bool:
        return in_library(module.path)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.walk():
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for left, right in zip(operands, operands[1:]):
                    yield from self._check_bound(module, node, left, right)
                    yield from self._check_bound(module, node, right, left)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)

    def _check_bound(
        self,
        module: SourceModule,
        node: ast.Compare,
        name_side: ast.expr,
        literal_side: ast.expr,
    ) -> Iterator[Finding]:
        unit = infer_unit_of_expr(name_side)
        if unit not in ("%", "frac"):
            return
        bound = _float_literal(literal_side)
        if bound is None:
            return
        if unit == "%" and 0.0 < bound < 1.0:
            yield self.finding(
                module,
                node,
                f"{_operand_label(name_side)} is a percentage in [0, 100] but "
                f"is compared against {bound!r}, a fraction-range bound; "
                "scale one side",
            )
        elif unit == "frac" and 1.0 < bound <= 100.0:
            yield self.finding(
                module,
                node,
                f"{_operand_label(name_side)} is a fraction in [0, 1] but is "
                f"compared against {bound!r}, a percent-range bound; "
                "scale one side",
            )

    def _check_call(self, module: SourceModule, node: ast.Call) -> Iterator[Finding]:
        callee = _callee_name(node.func)
        if callee not in (
            "check_fraction",
            "check_percent",
            "percent_to_fraction",
            "fraction_to_percent",
        ):
            return
        if not node.args:
            return
        arg = node.args[0]
        unit = infer_unit_of_expr(arg)
        expects_fraction = callee in ("check_fraction", "fraction_to_percent")
        if expects_fraction and unit == "%":
            yield self.finding(
                module,
                node,
                f"`{callee}` expects a fraction in [0, 1] but "
                f"{_operand_label(arg)} is named as a percentage; rename the "
                "value or convert with percent_to_fraction",
            )
        elif not expects_fraction and unit == "frac":
            yield self.finding(
                module,
                node,
                f"`{callee}` expects a percentage in [0, 100] but "
                f"{_operand_label(arg)} is named as a fraction; rename the "
                "value or convert with fraction_to_percent",
            )


def _is_float_annotation(node: ast.expr | None) -> bool:
    """Exactly ``float``, ``float | None`` or ``Optional[float]``."""
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        stripped = node.value.replace(" ", "")
        return stripped in ("float", "float|None", "Optional[float]")
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = (node.left, node.right)
        has_float = any(isinstance(s, ast.Name) and s.id == "float" for s in sides)
        has_none = any(
            isinstance(s, ast.Constant) and s.value is None for s in sides
        )
        return has_float and has_none
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        return (
            node.value.id == "Optional"
            and isinstance(node.slice, ast.Name)
            and node.slice.id == "float"
        )
    return False


class UnsuffixedParamRule(Rule):
    code = "RPL704"
    name = "no-unsuffixed-float-param"
    summary = (
        "public float parameters in accounting modules must carry a unit "
        "suffix or convention name so the dimension rules can see them"
    )

    def applies_to(self, module: SourceModule) -> bool:
        return in_accounting(module.path)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func, class_name in self._public_functions(module):
            args = func.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.arg in ("self", "cls"):
                    continue
                if not _is_float_annotation(arg.annotation):
                    continue
                if arg.arg in _DIMENSIONLESS_PARAMS:
                    continue
                if infer_unit_of_name(arg.arg) is not None:
                    continue
                owner = f"{class_name}.{func.name}" if class_name else func.name
                yield self.finding(
                    module,
                    arg,
                    f"float parameter `{arg.arg}` of public `{owner}` carries "
                    "no unit; suffix it per units.py (`_s`, `_mhz`, `_w`, "
                    "`_percent`, `_fraction`, ...)",
                )

    def _public_functions(
        self, module: SourceModule
    ) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str | None]]:
        def is_public(name: str) -> bool:
            return not name.startswith("_") or name == "__init__"

        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if is_public(stmt.name):
                    yield stmt, None
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                for item in stmt.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and is_public(item.name):
                        yield item, stmt.name
