"""Laser-duration optimization for the initialization protocol.

Each segment ends with a laser pulse whose duration trades electron
repolarization against nuclear depolarization.  The optimizer maximizes
a scalar objective of the propagated state over the duration, one
segment at a time, and chains segments into multi-cycle schedules as
one fold over a list of laser passes, ordered by the strategy:

    interleaved:  [seg1, seg2] x N
    blocked:      [seg1] x N + [seg2] x N

Both objectives are linear functionals w . p of the state, so along a
laser pulse each is a constant plus three exponential modes with at most
one stationary point, spinmodel._stationary_time: the optimum over a
duration interval is at an end or at that point.  A searched pass scores
the line search's candidates on its state's four mode coefficients,
spinmodel._mode_values, and runs the laser step, spinmodel._propagate, once
for the winner's duration.  The fold carries its state as a list of six
Python floats from pass to pass, against the objective's weights as a tuple
of six floats: no pass makes a numpy projection or an array, and each row's
end state becomes an array only in its CycleResult.  Public functions check
their inputs once, and identical inputs give bit-identical schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .pulses import _SWAPS, _step
from .spinmodel import (RateParams, _check_number, _check_record, _mode_values, _mode_weights,
                        _propagate, _shown, _stationary_time, validate_population)

__all__ = [
    "P00",
    "A0",
    "CycleOverrides",
    "REFERENCE_CYCLE1_OVERRIDES",
    "CycleResult",
    "Schedule",
    "objective_value",
    "optimize_laser",
    "run_cycle",
    "optimize_schedule",
    "INTERLEAVED",
    "BLOCKED",
]

#: Objective kinds.
P00 = "p00"   # population of the target state |0,0>
A0 = "a0"     # spectral amplitude of the m_I=0 line, p[2] - p[5]

INTERLEAVED = "interleaved"
BLOCKED = "blocked"

_TIE_TOL = 1e-6      # objective value; ties resolve to the smallest t
_T_MAX = 10.0        # us; the default search interval is [0, _T_MAX]

#: Weight vector w of each objective w . p, as six floats.
_WEIGHTS = {P00: (0.0, 0.0, 1.0, 0.0, 0.0, 0.0), A0: (0.0, 0.0, 1.0, 0.0, 0.0, -1.0)}


def _check_rules(objective: str, t_max: float = _T_MAX, strategy: str = INTERLEAVED,
                 n_cycles: int = 1, overrides=None) -> tuple:
    """The one check of the schedule rules; returns the objective's weights.

    Every public optimizer function and config.OptimizerSettings call it first.
    overrides, the first-cycle overrides, is a CycleOverrides or None.
    """
    _check_number("t_max", t_max, 0, strict=True)
    # Names must be str: an array would compare elementwise and pass.
    if not isinstance(objective, str) or objective not in (P00, A0):
        raise ValueError(f"unknown objective {_shown(objective)}")
    if not isinstance(strategy, str) or strategy not in (INTERLEAVED, BLOCKED):
        raise ValueError(f"unknown strategy {_shown(strategy)}")
    _check_number("n_cycles", n_cycles, 1, 20, integer=True)
    if overrides is not None and not isinstance(overrides, CycleOverrides):
        # A type name: an array's repr spans lines.
        raise ValueError("cycle1_overrides must be a CycleOverrides or None, "
                         f"got {type(overrides).__name__}")
    return _WEIGHTS[objective]


def objective_value(p, objective: str = P00) -> float:
    """Evaluate an objective on a population vector."""
    return float(_check_rules(objective) @ validate_population(p))


@dataclass(frozen=True)
class CycleOverrides:
    """Fixed choices for one cycle instead of optimizer-picked values.

    t1 / t2 pin the laser durations (us); None leaves the optimizer in
    charge.  seg2_start, when set, replaces the state handed to seg2 by
    the given population vector.  That reproduces the measured
    first-cycle operating point, where the state between the segments is
    the tabulated two-decimal vector (0.07, 0.33, 0.55, 0, 0, 0.05)
    rather than the model-propagated one; downstream cycles then follow
    the documented reference chain.
    """

    t1: float | None = None
    t2: float | None = None
    seg2_start: tuple | None = None

    def __post_init__(self) -> None:
        for name, val in (("t1", self.t1), ("t2", self.t2)):
            if val is not None:
                _check_number(f"{name} override", val, 0)
        if self.seg2_start is not None:
            validate_population(self.seg2_start)


#: Measured first-cycle operating point: 500 ns / 460 ns laser pulses
#: and the tabulated intermediate state handed to seg2.
REFERENCE_CYCLE1_OVERRIDES = CycleOverrides(
    t1=0.5, t2=0.46, seg2_start=(0.07, 0.33, 0.55, 0.0, 0.0, 0.05))


@dataclass(frozen=True)
class CycleResult:
    """Chosen durations and purities of one cycle (one row of a schedule)."""

    cycle: int
    t1: float
    purity_after_seg1: float
    t2: float
    purity_after_seg2: float
    end_state: np.ndarray


@dataclass(frozen=True)
class Schedule:
    """Full multi-cycle optimization result."""

    strategy: str
    cycles: tuple
    final_purity: float

    @property
    def end_state(self) -> np.ndarray:
        return self.cycles[-1].end_state


def optimize_laser(p_post_swaps, rates: RateParams = RateParams(),
                   objective: str = P00, t_max: float = _T_MAX):
    """Best laser duration for a state that already had its swaps applied.

    Along the pulse the objective is a constant plus three exponential
    modes with at most one stationary point, spinmodel._stationary_time.
    The candidates 0, that point when below t_max and t_max are scored on
    the four-mode expansion, ties within 1e-6 going to the shortest (an
    already-pumped state yields t* = 0); only the winner is propagated.
    An unknown objective is refused before anything is propagated.

    Returns
    -------
    (float, float)
        Optimal duration t_star in us and the objective value there.
    """
    w, p = _check_rules(objective, t_max), validate_population(p_post_swaps).tolist()
    _check_record("rates", rates, RateParams)
    t = _line_search(w, p, rates, t_max)
    return t, float(np.dot(w, _propagate(p, t, rates)))


def _line_search(w: tuple, p: list, rates: RateParams, t_max: float) -> float:
    """optimize_laser's duration t for weights w and state p, six floats each;
    scores on spinmodel._mode_values, projects and propagates nothing."""
    m0, m1, m2, m3 = modes = _mode_values(w, p)
    t_root = _stationary_time(modes, rates)
    times = [0.0] + ([t_root] if t_root is not None and t_root < t_max else []) + [float(t_max)]
    scored = [(a * m0 + b * m1 + c * m2 + d * m3, t)
              for t in times for a, b, c, d in [_mode_weights(t, rates)]]
    top = max(value for value, _ in scored)
    return next(t for value, t in scored if value >= top - _TIE_TOL)


def _fold(state: list, passes, rates: RateParams, w: tuple, t_max: float) -> tuple:
    """Run laser passes in order; row i pairs the i-th seg1 and seg2 passes.

    state is a list of six floats.  A pass is (segment index, pinned duration
    or None, start state or None), the index 0 for seg1 and 1 for seg2.  A
    start state replaces the incoming one, the segment's pulses._SWAPS run,
    and its laser runs once, for the pinned duration or the line search's pick
    on w (the objective's weights), through the pulse step of
    pulses.apply_pulse; the callers checked every input.
    """
    done = ([], [])
    for k, t_pinned, start in passes:
        if start is not None:
            state = [float(v) for v in start]
        for pulse in _SWAPS[k]:
            state = _step(state, pulse, rates)
        t = t_pinned if t_pinned is not None else _line_search(w, state, rates, t_max)
        state = _propagate(state, t, rates)
        done[k].append((t, state[2], state))
    return tuple(
        CycleResult(cycle=i, t1=t1, purity_after_seg1=purity1,
                    t2=t2, purity_after_seg2=purity2, end_state=np.array(end))
        for i, ((t1, purity1, _), (t2, purity2, end)) in enumerate(zip(*done), 1))


def run_cycle(p, rates: RateParams = RateParams(), objective: str = P00,
              overrides=None, cycle: int = 1) -> CycleResult:
    """One [seg1 + seg2] cycle with per-segment duration choice.

    The one cycle of an interleaved optimize_schedule, numbered cycle:
    applies the seg1 swaps, picks t1 (override, or optimizer on [0, _T_MAX],
    the default 10 us) and runs the laser; then the same for seg2.  overrides
    is that schedule's cycle1_overrides, None or a CycleOverrides (which may
    pin seg2's start).
    """
    _check_number("cycle", cycle, 1, integer=True)
    schedule = optimize_schedule(p, rates, objective, 1, INTERLEAVED, overrides)
    return replace(schedule.cycles[0], cycle=cycle)


def optimize_schedule(p0, rates: RateParams = RateParams(), objective: str = P00,
                      n_cycles: int = 3, strategy: str = INTERLEAVED,
                      cycle1_overrides=None, t_max: float = _T_MAX) -> Schedule:
    """Optimize a full N-cycle schedule.

    interleaved runs N [seg1, seg2] cycles, blocked N seg1 passes then N
    seg2 passes; each pass optimizes its laser on [0, t_max].  cycle1_overrides
    is a CycleOverrides or None (no overrides); its t1 and t2 pin the first pass
    of each segment, and its seg2 start state is honoured only when interleaved
    (it describes the state between the segments of an interleaved first cycle).

    Returns
    -------
    Schedule
        Per-cycle rows and the final |0,0> purity.  In the blocked
        schedule row i pairs the i-th seg1 pass with the i-th seg2 pass
        even though all seg1 passes run first.
    """
    w = _check_rules(objective, t_max, strategy, n_cycles, cycle1_overrides)
    _check_record("rates", rates, RateParams)
    ov1 = CycleOverrides() if cycle1_overrides is None else cycle1_overrides
    seg2_start = ov1.seg2_start if strategy == INTERLEAVED else None
    firsts = [(0, ov1.t1, None)] + [(0, None, None)] * (n_cycles - 1)
    seconds = [(1, ov1.t2, seg2_start)] + [(1, None, None)] * (n_cycles - 1)
    passes = (firsts + seconds if strategy == BLOCKED
              else [p for cycle in zip(firsts, seconds) for p in cycle])
    rows = _fold(validate_population(p0).tolist(), passes, rates, w, t_max)
    return Schedule(strategy, rows, rows[-1].purity_after_seg2)
