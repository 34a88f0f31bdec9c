"""Pulse and segment primitives of the initialization sequence.

MW and RF pi pulses are modeled as ideal population swaps on one of the
four addressed transitions; the laser pulse is the only continuous
dynamics and is delegated to the rate model.  seg1 polishes the m_I=-1
population into |0,0>, seg2 does the same for m_I=+1:

    seg1 = [MW (0,-1)<->(-1,-1), RF (-1,-1)<->(-1,0), laser t1]
    seg2 = [MW (0,+1)<->(-1,+1), RF (-1,+1)<->(-1,0), laser t2]
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import REFERENCE_TRANSITIONS
from .spinmodel import (LEVEL_INDEX, RateParams, _check_number, _propagate, _shown,
                        validate_population)

__all__ = [
    "MwPi",
    "RfPi",
    "Laser",
    "Segment",
    "TraceRecord",
    "MW_PAIRS",
    "RF_PAIRS",
    "seg1",
    "seg2",
    "apply_pulse",
    "run_segment",
    "run_sequence",
    "initial_state",
]

Level = tuple[int, int]
Pair = tuple[Level, Level]

#: Allowed MW swap transitions (electron flip at fixed m_I), then the allowed
#: RF swap transitions (nuclear flip inside m_s=-1), in reference-table order.
MW_PAIRS, RF_PAIRS = (tuple(ref.pair for ref in REFERENCE_TRANSITIONS if ref.kind == kind)
                      for kind in ("MW", "RF"))


def _check_swap(pulse, allowed, kind: str) -> None:
    # Compared by equality, never hashed, so a list is refused like any other non-pair.
    if not any(pulse.pair in (pair, pair[::-1]) for pair in allowed):
        raise ValueError(f"invalid transition pair for {kind}: {_shown(pulse.pair)}")
    _check_number("swap_fidelity", pulse.swap_fidelity, 0, 1)


@dataclass(frozen=True)
class MwPi:
    """Ideal microwave pi swap on one of the two MW transitions.

    swap_fidelity f in [0, 1] mixes the two populations:
    p_a' = (1-f) p_a + f p_b and symmetrically.  f=1 is a clean swap.
    """

    pair: Pair
    swap_fidelity: float = 1.0

    def __post_init__(self) -> None:
        _check_swap(self, MW_PAIRS, "MW pulse")


@dataclass(frozen=True)
class RfPi:
    """Ideal radio-frequency pi swap on one of the two RF transitions."""

    pair: Pair
    swap_fidelity: float = 1.0

    def __post_init__(self) -> None:
        _check_swap(self, RF_PAIRS, "RF pulse")


@dataclass(frozen=True)
class Laser:
    """Laser pulse of the given duration in us."""

    duration: float

    def __post_init__(self) -> None:
        _check_number("laser duration", self.duration, 0)


Pulse = MwPi | RfPi | Laser


@dataclass(frozen=True)
class Segment:
    """Ordered pulse list with a label (seg1, seg2 or custom)."""

    label: str
    pulses: tuple = ()


@dataclass(frozen=True)
class TraceRecord:
    """State snapshot after one pulse of a segment run."""

    index: int
    description: str
    state: np.ndarray = field(repr=False)


#: The swaps of each segment, everything but its laser: index 0 is seg1, 1 is seg2.
_SWAPS = tuple((MwPi(mw), RfPi(rf)) for mw, rf in zip(MW_PAIRS, RF_PAIRS))


def seg1(t1: float) -> Segment:
    """Segment addressing m_I=-1: MW swap, RF swap, laser of length t1."""
    return Segment("seg1", _SWAPS[0] + (Laser(t1),))


def seg2(t2: float) -> Segment:
    """Segment addressing m_I=+1: MW swap, RF swap, laser of length t2."""
    return Segment("seg2", _SWAPS[1] + (Laser(t2),))


def _describe(pulse: Pulse) -> str:
    if isinstance(pulse, Laser):
        return f"laser {pulse.duration:g} us"
    kind = "MW pi" if isinstance(pulse, MwPi) else "RF pi"
    (a, b) = pulse.pair
    return f"{kind} {a}<->{b}"


def _step(state: np.ndarray, pulse: Pulse, rates: RateParams) -> np.ndarray:
    """One pulse on an already validated state; it is not checked again."""
    if isinstance(pulse, Laser):
        return _propagate(state, pulse.duration, rates)
    i = LEVEL_INDEX[pulse.pair[0]]
    j = LEVEL_INDEX[pulse.pair[1]]
    f = pulse.swap_fidelity
    out = state.copy()
    out[i] = (1.0 - f) * state[i] + f * state[j]
    out[j] = (1.0 - f) * state[j] + f * state[i]
    return out


def apply_pulse(p, pulse: Pulse, rates: RateParams = RateParams()) -> np.ndarray:
    """Apply a single pulse to a population vector.

    Swaps exchange exactly two entries (softened by swap_fidelity); a
    laser pulse propagates the full vector under the rate model.
    """
    return _step(validate_population(p), pulse, rates)


def run_segment(p, segment: Segment, rates: RateParams = RateParams()):
    """Left-fold apply_pulse over a segment, checking the input state once.

    Returns
    -------
    (numpy.ndarray, list of TraceRecord)
        The final state and one trace record per pulse.
    """
    state = validate_population(p)
    trace = []
    for idx, pulse in enumerate(segment.pulses):
        state = _step(state, pulse, rates)
        trace.append(TraceRecord(idx, _describe(pulse), state.copy()))
    return state, trace


def run_sequence(p, pulses, rates: RateParams = RateParams()):
    """Run a bare pulse list (no segment labels); same contract as run_segment."""
    return run_segment(p, Segment("custom", tuple(pulses)), rates)


def initial_state(rates: RateParams = RateParams(), init_laser: float = 5.0) -> np.ndarray:
    """State prepared by the initial laser pulse.

    Starts from the fully mixed six-level state (1/6 everywhere; any
    start converges since the pulse is much longer than 1/k_s) and pumps
    for init_laser us.  With the default 5 us this lands within 1e-4 of
    (1/3, 1/3, 1/3, 0, 0, 0).
    """
    _check_number("init_laser", init_laser, 0, strict=True)
    mixed = np.full(6, 1.0 / 6.0)
    return _propagate(mixed, init_laser, rates)
