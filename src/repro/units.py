"""Unit conventions and validation helpers.

The whole library uses three scalar conventions:

* **time** — simulated seconds, as ``float``;
* **frequency** — MHz, as ``int`` (matching the paper's 1600..2667 tables);
* **work** — *absolute seconds*: CPU-seconds of a processor running at its
  maximum frequency.  A processor at P-state *i* delivers
  ``ratio_i * cf_i`` absolute seconds per wall second (paper Eq. 1/2).

Credits, caps and loads are percentages in ``[0, 100]`` unless a docstring
says otherwise (a *fraction* is in ``[0, 1]``).

These conventions are *enforced*, not just documented: the RPL7xx lint
rules (``repro lint``; catalogue in ``docs/invariants.md``) infer a
dimension for every name from its suffix (``_s``, ``_mhz``, ``_w``,
``_percent``, ``_fraction``, ...) or stem (``credit``/``cap``/``load`` →
percent) and flag dimension-mixing arithmetic, cross-dimension
assignments, and percent↔fraction confusion at the
:func:`check_percent`/:func:`check_fraction` boundary.

These helpers centralise range checks so constructors across the library
produce uniform, actionable error messages.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import sys
from typing import Any, Iterable, Mapping

from .errors import ConfigurationError

#: Tolerance used when comparing floating-point loads/credits across the
#: library.  One part in 10^9 — far below any physically meaningful delta.
EPSILON = 1e-9


def check_positive(value: float, name: str) -> float:
    """Return *value* if it is finite and strictly positive, else raise."""
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_known_fields(cls, data: Iterable[str], what: str) -> None:
    """Raise unless every key of *data* names a field of dataclass *cls*."""
    known = tuple(f.name for f in dataclasses.fields(cls))
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown {what} field(s) {', '.join(map(repr, unknown))}; "
            f"valid fields: {', '.join(known)}"
        )


#: The JSON value types a config field accepts, by its annotation, and
#: their wording: ``"seed": "abc"`` fails up front instead of seeding a run
#: with a string.  ``tuple[...]`` fields take a JSON array.
_FIELD_TYPES: dict[str, tuple[tuple[type, ...], str]] = {
    "bool": ((bool,), "true or false"),
    "int": ((int,), "an integer"),
    "int | None": ((int, type(None)), "an integer or null"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float, type(None)), "a number or null"),
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "dict": ((dict,), "a JSON object"),
    "MigrationModel": ((dict,), "a JSON object"),
    "ProcessorSpec": ((str,), "a catalog processor name"),
}


#: The largest integer a float holds (``float(n)`` overflows beyond it).
_LARGEST_FLOAT_INT = int(sys.float_info.max)


def check_field_types(cls, data: Mapping[str, Any], what: str) -> None:
    """Raise unless each value of *data* has a JSON type its field accepts.

    Fields of dataclass *cls* (or, for any other class, the parameters of
    its constructor) are judged by their (string) annotation, per
    :data:`_FIELD_TYPES`; other annotations and unknown names pass.  The
    error reads ``"<what>: <field> takes <type>, got <value>"``.  An
    integer too large for a float (JSON allows any) is refused too: the
    range checks downstream compare it as a float.
    """
    if dataclasses.is_dataclass(cls):
        annotations = {f.name: f.type for f in dataclasses.fields(cls)}
    else:
        parameters = inspect.signature(cls).parameters.values()
        annotations = {p.name: p.annotation for p in parameters}
    _check_value_types(annotations, data, what)


def _check_value_types(annotations: Mapping[str, Any], data: Mapping[str, Any], what: str) -> None:
    for name, value in data.items():
        annotation = annotations.get(name, "")
        if not isinstance(annotation, str):
            continue  # unannotated: nothing to judge by
        expected = _FIELD_TYPES.get(annotation)
        if annotation.startswith("tuple["):
            expected = ((list,), "a JSON array")
        if expected is None:
            continue
        if type(value) not in expected[0]:
            raise ConfigurationError(
                f"{what}: {name} takes {expected[1]}, got {value!r}"
            )
        if type(value) is int and abs(value) > _LARGEST_FLOAT_INT:
            raise ConfigurationError(
                f"{what}: {name} takes {expected[1]} within the float range, "
                f"got an integer of {value.bit_length()} bits"
            )


def check_keywords(
    cls: type, keywords: Mapping[str, Any], what: str, *, supplied: int = 0
) -> None:
    """Raise unless constructing *cls* accepts every item of *keywords*.

    Each name must be a constructor parameter, and each value must have a
    JSON type its parameter's annotation accepts (as in
    :func:`check_field_types`).  A constructor taking ``**kwargs`` is read
    as forwarding them to its base class (as ``PasScheduler`` does to
    ``CreditScheduler``), whose parameters are then accepted too.  The
    first *supplied* parameters are the ones the caller passes itself (a
    manager's ``host``, say), so they are not accepted as keywords.  An
    unknown name's error names the accepted ones.
    """
    accepted: dict[str, Any] = {}
    skip = supplied + 1  # and ``self``
    for klass in cls.__mro__[:-1]:  # object.__init__ takes no keywords
        init = vars(klass).get("__init__")
        if init is None:
            continue
        parameters = list(inspect.signature(init).parameters.values())[skip:]
        skip = 1
        for p in parameters:
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY):
                accepted.setdefault(p.name, p.annotation)
        if not any(p.kind is p.VAR_KEYWORD for p in parameters):
            break
    unknown = sorted(set(keywords) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"unknown {what} parameter(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(accepted) or 'none'}"
        )
    _check_value_types(accepted, keywords, what)


def check_non_negative(value: float, name: str) -> float:
    """Return *value* if it is finite and >= 0, else raise."""
    if not math.isfinite(value) or value < 0:
        raise ConfigurationError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Return *value* if it is a fraction in [0, 1], else raise."""
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be within [0, 1], got {value!r}")
    return value


def check_percent(value: float, name: str, *, allow_zero: bool = True) -> float:
    """Return *value* if it is a percentage in [0, 100], else raise.

    ``allow_zero=False`` additionally rejects 0 (useful for credits where a
    null credit has special "uncapped" semantics handled elsewhere).
    """
    if not math.isfinite(value) or not 0.0 <= value <= 100.0:
        raise ConfigurationError(f"{name} must be within [0, 100], got {value!r}")
    if not allow_zero and value == 0.0:
        raise ConfigurationError(f"{name} must be non-zero")
    return value


def percent_to_fraction(value: float) -> float:
    """Convert a percentage to a fraction."""
    return value / 100.0


def fraction_to_percent(value: float) -> float:
    """Convert a fraction to a percentage."""
    return value * 100.0


def approx_equal(a: float, b: float, *, tolerance: float = EPSILON) -> bool:
    """True when *a* and *b* differ by at most *tolerance* (absolute)."""
    return abs(a - b) <= tolerance
