"""The seven virtualization platforms of Table 2 (subsystem S9).

:mod:`~repro.platforms.virt_platforms` reduces each platform, as the paper
does, to a credit discipline plus its vendor's governor aggressiveness, and
describes its §5.8 run as an ordinary scenario config; the ``table2`` claim
(:mod:`repro.experiments.claims`) runs and tabulates them.
"""

from .virt_platforms import PLATFORMS, Table2Row, VirtPlatform

__all__ = [
    "PLATFORMS",
    "VirtPlatform",
    "Table2Row",
]
