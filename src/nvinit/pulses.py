"""Pulse and segment primitives of the initialization sequence.

MW and RF pi pulses are ideal swaps on one of the four addressed
transitions (one _Swap record; MwPi and RfPi set only kind and pairs);
the laser pulse, the only continuous dynamics, is the rate model's.
seg1 polishes the m_I=-1 population into |0,0>, seg2 that of m_I=+1:

    seg1 = [MW (0,-1)<->(-1,-1), RF (-1,-1)<->(-1,0), laser t1]
    seg2 = [MW (0,+1)<->(-1,+1), RF (-1,+1)<->(-1,0), laser t2]

One pulse step, _step, runs on a state as a list of six Python floats, as
spinmodel's laser step does; the public functions make the arrays they return
(each trace record's state, the final state) from those lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import REFERENCE_TRANSITIONS
from .spinmodel import (LEVEL_INDEX, RateParams, _check_number, _check_record, _is_level,
                        _propagate, _shown, validate_population)

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


@dataclass(frozen=True)
class _Swap:
    """Ideal pi swap on one of its kind's allowed transitions, in either order.

    swap_fidelity f in [0, 1] mixes the two populations:
    p_a' = (1-f) p_a + f p_b and symmetrically.  f=1 is a clean swap.
    A subclass sets its _kind ("MW" or "RF") and its allowed _pairs.
    """

    pair: Pair
    swap_fidelity: float = 1.0

    def __post_init__(self) -> None:
        pair = self.pair    # each level a tuple of two integers before it is compared
        if not (isinstance(pair, tuple) and len(pair) == 2 and all(map(_is_level, pair))
                and any(pair in (p, p[::-1]) for p in self._pairs)):
            raise ValueError(f"invalid transition pair for {self._kind} pulse: {_shown(pair)}")
        f = float(_check_number("swap_fidelity", self.swap_fidelity, 0, 1))
        # The step's indices and f, and the trace text, resolved once; not fields,
        # so repr, eq and hash ignore them.
        object.__setattr__(self, "_resolved", (LEVEL_INDEX[pair[0]], LEVEL_INDEX[pair[1]], f))
        object.__setattr__(self, "_text", f"{self._kind} pi {pair[0]}<->{pair[1]}")


class MwPi(_Swap):
    """Ideal microwave pi swap on one of the two MW transitions (see _Swap)."""

    _kind, _pairs = "MW", MW_PAIRS


class RfPi(_Swap):
    """Ideal radio-frequency pi swap on one of the two RF transitions (see _Swap)."""

    _kind, _pairs = "RF", RF_PAIRS


@dataclass(frozen=True)
class Laser:
    """Laser pulse of the given duration in us."""

    duration: float

    def __post_init__(self) -> None:
        _check_number("laser duration", self.duration, 0)
        # The trace text, resolved once and not a field, as a swap's.
        object.__setattr__(self, "_text", f"laser {self.duration:g} us")


Pulse = MwPi | RfPi | Laser


@dataclass(frozen=True)
class Segment:
    """Ordered pulse list with a label (seg1, seg2 or custom)."""

    label: str
    pulses: tuple = ()

    def __post_init__(self) -> None:
        for i, pulse in enumerate(_check_record("segment pulses", self.pulses, tuple)):
            if not isinstance(pulse, (MwPi, RfPi, Laser)):     # the name is built only to refuse
                _check_record(f"pulses[{i}]", pulse, MwPi, RfPi, Laser)


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


def _step(state: list, pulse: Pulse, rates: RateParams) -> list:
    """One pulse on an already validated state of six floats; it is not checked again."""
    if isinstance(pulse, Laser):
        return _propagate(state, pulse.duration, rates)
    i, j, f = pulse._resolved
    values = list(state)        # a swap never writes to the state it was given
    a, b = values[i], values[j]
    values[i], values[j] = (1.0 - f) * a + f * b, (1.0 - f) * b + f * a
    return values


def apply_pulse(p, pulse: Pulse, rates: RateParams = RateParams()) -> np.ndarray:
    """Apply a single pulse to a population vector.

    Swaps exchange exactly two entries (softened by swap_fidelity); a
    laser pulse propagates the full vector under the rate model.
    """
    return np.array(_step(validate_population(p).tolist(),
                          _check_record("pulse", pulse, MwPi, RfPi, Laser),
                          _check_record("rates", rates, RateParams)))


def run_segment(p, segment: Segment, rates: RateParams = RateParams()):
    """Left-fold apply_pulse over a segment, checking the input state once.

    Returns
    -------
    (numpy.ndarray, list of TraceRecord)
        The final state and one trace record per pulse.  Each record holds
        its own array, and the final state another one, never the input.
    """
    state = validate_population(p).tolist()
    _check_record("segment", segment, Segment)
    _check_record("rates", rates, RateParams)
    trace = []
    for idx, pulse in enumerate(segment.pulses):
        state = _step(state, pulse, rates)
        trace.append(TraceRecord(idx, pulse._text, np.array(state)))
    return np.array(state), trace


def run_sequence(p, pulses, rates: RateParams = RateParams()):
    """Run a bare pulse list (no segment labels); same contract as run_segment."""
    try:
        pulses = tuple(pulses)
    except TypeError:       # not iterable
        raise ValueError(f"pulses must be an iterable, got {type(pulses).__name__}") from None
    return run_segment(p, Segment("custom", pulses), rates)


def initial_state(rates: RateParams = RateParams(), init_laser: float = 5.0) -> np.ndarray:
    """State prepared by the initial laser pulse.

    Starts from the fully mixed six-level state (1/6 everywhere; any
    start converges since the pulse is much longer than 1/k_s) and pumps
    for init_laser us.  With the default 5 us this lands within 1e-4 of
    (1/3, 1/3, 1/3, 0, 0, 0).
    """
    _check_record("rates", rates, RateParams)
    _check_number("init_laser", init_laser, 0, strict=True)
    return np.array(_propagate([1.0 / 6.0] * 6, init_laser, rates))
