"""Scheduler factory by name, for experiment configs and the public API."""

from __future__ import annotations

from ..errors import ConfigurationError
from ..units import check_keywords
from .base import Scheduler
from .credit import CreditScheduler
from .credit2 import Credit2Scheduler
from .sedf import SedfScheduler

#: Names accepted by :func:`make_scheduler` (and ``Host(scheduler=...)``).
SCHEDULER_NAMES: tuple[str, ...] = ("credit", "credit2", "pas", "sedf")


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler by its registry *name*.

    Keyword arguments are forwarded to the scheduler constructor; one it
    does not take raises a :class:`ConfigurationError` naming those it
    does.  The PAS scheduler is imported lazily: it lives in
    :mod:`repro.core` (it is the paper's contribution, not a baseline) and
    extends the Credit scheduler, so a module-level import here would be
    circular.
    """
    # Each branch calls its class by name: the registry lint (RPL301)
    # reads the name -> class map from these calls.
    what = f"{name} scheduler"
    if name == "credit":
        check_keywords(CreditScheduler, kwargs, what)
        return CreditScheduler(**kwargs)
    if name == "credit2":
        check_keywords(Credit2Scheduler, kwargs, what)
        return Credit2Scheduler(**kwargs)
    if name == "sedf":
        check_keywords(SedfScheduler, kwargs, what)
        return SedfScheduler(**kwargs)
    if name == "pas":
        from ..core.pas import PasScheduler

        check_keywords(PasScheduler, kwargs, what)
        return PasScheduler(**kwargs)
    raise ConfigurationError(
        f"unknown scheduler {name!r}; choose one of {', '.join(SCHEDULER_NAMES)}"
    )
