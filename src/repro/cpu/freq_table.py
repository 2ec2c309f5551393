"""The ordered set of P-states a processor supports.

Mirrors the kernel's ``scaling_available_frequencies``: an immutable,
ascending-by-frequency table with lookups by exact frequency, neighbours for
conservative (one-step) governors, and the "lowest state that can absorb a
given absolute load" query at the heart of the paper's Listing 1.1.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from ..errors import ConfigurationError, FrequencyError
from .pstate import PState


class FrequencyTable:
    """Immutable ascending table of :class:`PState` entries.

    >>> table = FrequencyTable([PState(1600), PState(2667)])
    >>> table.min_state.freq_mhz, table.max_state.freq_mhz
    (1600, 2667)
    """

    def __init__(self, states: Sequence[PState]) -> None:
        if not states:
            raise ConfigurationError("a frequency table needs at least one P-state")
        ordered = sorted(states, key=lambda state: state.freq_mhz)
        freqs = [state.freq_mhz for state in ordered]
        if len(set(freqs)) != len(freqs):
            raise ConfigurationError(f"duplicate frequencies in table: {freqs}")
        self._states: tuple[PState, ...] = tuple(ordered)
        self._freqs: tuple[int, ...] = tuple(freqs)
        self._by_freq = {state.freq_mhz: state for state in ordered}
        # Listing 1.1's capacity ladders, built once (the table is
        # immutable), each in the rounding of the function that walks it:
        # ``(ratio * cf) * 100`` for :meth:`lowest_absorbing`,
        # ``ratio * 100 * cf`` (or cf-blind ``ratio * 100 * 1.0``) for
        # :func:`repro.core.laws.compute_new_frequency`.
        max_freq = ordered[-1].freq_mhz
        self._absorbing_ladder = _running_max(
            state.capacity_fraction(max_freq) * 100.0 for state in ordered
        )
        self._listing_ladders = {
            use_cf: _running_max(
                state.ratio_to(max_freq) * 100.0 * (state.cf if use_cf else 1.0)
                for state in ordered
            )
            for use_cf in (True, False)
        }

    # ------------------------------------------------------------- accessors

    @property
    def states(self) -> tuple[PState, ...]:
        """All P-states, ascending by frequency."""
        return self._states

    @property
    def min_state(self) -> PState:
        """The lowest-frequency P-state."""
        return self._states[0]

    @property
    def max_state(self) -> PState:
        """The highest-frequency P-state."""
        return self._states[-1]

    @property
    def frequencies(self) -> tuple[int, ...]:
        """All frequencies in MHz, ascending."""
        return self._freqs

    def listing_ladder(self, *, use_cf: bool = True) -> tuple[float, ...]:
        """Listing 1.1's capacities ``ratio * 100 * cf``, one per state.

        Entry *i* is the largest capacity among states ``0..i`` (on every
        catalog table the capacities ascend, so it is state *i*'s own), so
        the first state whose capacity exceeds a load is the first entry
        exceeding it: ``bisect_right(ladder, load)``, the state an
        ascending scan returns.  ``use_cf=False`` drops the correction
        factors (``cf = 1.0``).
        """
        return self._listing_ladders[use_cf]

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[PState]:
        return iter(self._states)

    def __contains__(self, freq_mhz: int) -> bool:
        return freq_mhz in self._by_freq

    # --------------------------------------------------------------- lookups

    def state_for(self, freq_mhz: int) -> PState:
        """The P-state at exactly *freq_mhz*, or raise :class:`FrequencyError`."""
        try:
            return self._by_freq[freq_mhz]
        except KeyError:
            raise FrequencyError(
                f"{freq_mhz} MHz is not in the table {list(self.frequencies)}"
            ) from None

    def index_of(self, freq_mhz: int) -> int:
        """Position of *freq_mhz* in the ascending table."""
        state = self.state_for(freq_mhz)
        return self._states.index(state)

    def clamp(self, freq_mhz: int) -> PState:
        """The lowest P-state with frequency >= *freq_mhz* (max state if none)."""
        for state in self._states:
            if state.freq_mhz >= freq_mhz:
                return state
        return self.max_state

    def clamp_down(self, freq_mhz: int) -> PState:
        """The highest P-state with frequency <= *freq_mhz* (min state if none)."""
        for state in reversed(self._states):
            if state.freq_mhz <= freq_mhz:
                return state
        return self.min_state

    def step_up(self, freq_mhz: int) -> PState:
        """One P-state above *freq_mhz* (saturates at the top)."""
        index = self.index_of(freq_mhz)
        return self._states[min(index + 1, len(self._states) - 1)]

    def step_down(self, freq_mhz: int) -> PState:
        """One P-state below *freq_mhz* (saturates at the bottom)."""
        index = self.index_of(freq_mhz)
        return self._states[max(index - 1, 0)]

    def capacity_fraction(self, freq_mhz: int) -> float:
        """``ratio * cf`` of the state at *freq_mhz* (fraction of max speed)."""
        return self.state_for(freq_mhz).capacity_fraction(self.max_state.freq_mhz)

    def lowest_absorbing(self, absolute_load_percent: float, *, margin_percent: float = 0.0) -> PState:
        """Paper Listing 1.1: the lowest P-state whose capacity absorbs a load.

        The first state, ascending, with capacity
        ``(ratio * cf) * 100 > absolute_load_percent + margin_percent``; the
        maximum state if none qualifies.  One ``bisect`` over the ladder
        built at construction (see :meth:`listing_ladder`).  *margin_percent*
        (percentage points) implements the head-room used by hysteretic
        governors.
        """
        index = bisect_right(self._absorbing_ladder, absolute_load_percent + margin_percent)
        return self._states[min(index, len(self._states) - 1)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrequencyTable({list(self.frequencies)})"


def _running_max(values: Iterable[float]) -> tuple[float, ...]:
    """Each value replaced by the largest value up to it (non-decreasing)."""
    return tuple(accumulate(values, max))
