"""Governor factory by name, for experiment configs and the public API."""

from __future__ import annotations

from ..errors import ConfigurationError
from ..units import check_keywords
from .base import Governor
from .conservative import ConservativeGovernor
from .ondemand import OndemandGovernor
from .performance import PerformanceGovernor
from .powersave import PowersaveGovernor
from .stable import StableGovernor
from .userspace import UserspaceGovernor

_FACTORIES: dict[str, type[Governor]] = {
    "performance": PerformanceGovernor,
    "powersave": PowersaveGovernor,
    "userspace": UserspaceGovernor,
    "ondemand": OndemandGovernor,
    "conservative": ConservativeGovernor,
    "stable": StableGovernor,
}

#: Names accepted by :func:`make_governor` (and ``Host(governor=...)``).
GOVERNOR_NAMES: tuple[str, ...] = tuple(sorted(_FACTORIES))


def make_governor(name: str, **kwargs) -> Governor:
    """Instantiate a governor by its registry *name*.

    Keyword arguments are forwarded to the governor constructor, so callers
    can tune thresholds: ``make_governor("ondemand", up_threshold=70)``;
    one it does not take raises a :class:`ConfigurationError` naming those
    it does.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown governor {name!r}; choose one of {', '.join(GOVERNOR_NAMES)}"
        ) from None
    check_keywords(factory, kwargs, f"{name} governor")
    return factory(**kwargs)
