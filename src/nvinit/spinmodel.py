"""Six-level rate model of laser-driven population redistribution.

The working subspace is spanned by |m_s, m_I> with m_s in {0, -1} and
m_I in {-1, +1, 0}.  Canonical index order of the population vector:

    0: |0,-1>   1: |0,+1>   2: |0,0>   3: |-1,-1>   4: |-1,+1>   5: |-1,0>

During laser illumination the electron repolarizes (-1 -> 0) at rate k_s
while the nuclear spin hops between the m_I levels of the m_s=0 manifold
at rate k_i.  All times are in microseconds, rates in 1/us.  Under the
laser exp(M t) is four constant _MODES against four weights of t (see
propagator); _stationary_time solves where w . exp(M t) p is stationary,
from the four coefficients w . P_k p that _mode_values forms.  Both
_mode_values and the laser step, _propagate, apply the modes to a state in
closed form (the means of the m_s = 0 and m_s = -1 entries, then one line
per result): neither forms a matrix or makes a numpy projection, and only
propagator reads _MODES.

Between the public boundaries a state is a list of six Python floats: the
private steps (_propagate, _clamp_dust, and pulses._step and the optimizer's
fold on top of them) take and return such lists and never touch numpy.  A
public entry point turns its input into one with validate_population(p).tolist(),
and a public function makes an array only for the state it returns.

_check_number, defined here, is the package's one rule for a public
scalar input (a rate, a duration, a count, a record field): a finite real
number in its range, else a one-line ValueError naming it.  Its siblings
_check_record (a record argument of the right type) and _is_level (a
tuple of two integers, never an array compared) guard the other inputs.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LEVELS",
    "LEVEL_INDEX",
    "RateParams",
    "validate_population",
    "rate_matrix",
    "propagator",
    "propagate",
    "propagate_numeric",
    "steady_state",
    "seg1_reference_solution",
    "seg2_reference_solution",
    "NUCLEAR_MIRROR",
]

#: (m_s, m_I) pairs in canonical index order.
LEVELS = ((0, -1), (0, +1), (0, 0), (-1, -1), (-1, +1), (-1, 0))

#: Map (m_s, m_I) -> canonical index.
LEVEL_INDEX = {lvl: i for i, lvl in enumerate(LEVELS)}

#: Index permutation that swaps the nuclear labels m_I = -1 <-> +1
#: (indices 0<->1 and 3<->4).  The generator commutes with it.
NUCLEAR_MIRROR = (1, 0, 2, 4, 3, 5)

# Below this separation the denominator (3*k_i - k_s) of the transcribed
# reference solutions is treated as singular.
_DEGENERACY_EPS = 1e-6

_SUM_TOL = 1e-9


def _eigenmodes() -> np.ndarray:
    """P0, P3, Ps and Pc of propagator, as one read-only (4, 6, 6) array."""
    t, i, o = np.full((3, 3), 1.0 / 3.0), np.eye(3), np.zeros((3, 3))
    modes = np.array([np.block(m) for m in ([[t, t], [o, o]], [[i - t, o], [o, o]],
                                            [[o, -t], [o, i]], [[o, i - t], [o, o]])])
    modes.setflags(write=False)
    return modes


_MODES = _eigenmodes()


def _shown(value) -> str:
    """repr(value) with its line breaks folded, for a one-line refusal message."""
    return re.sub(r"\s*\n\s*", " ", repr(value))


def _check_number(name: str, value, low: float = -math.inf, high: float = math.inf,
                  strict: bool = False, integer: bool = False):
    """The one scalar rule of the package: return value, or refuse it in one line.

    value must be a real number (an integer when integer), not a bool and not
    an array (a 0-d one included: the readout caches key on FidParams, so
    fields must be hashable), finite, and in [low, high], or (low, high] when
    strict.  Each refusal is a one-line ValueError that starts with name.
    """
    if not (_is_integer(value) if integer
            else (isinstance(value, numbers.Real) and not isinstance(value, bool))):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a real number'}, "
                         f"got {_shown(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:           # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")
    if value > high or (value <= low if strict else value < low):
        if math.isfinite(high):
            bounds = f"in {'(' if strict else '['}{low:g}, {high:g}]"
        elif low == 0:
            bounds = "positive" if strict else "nonnegative"
        else:
            bounds = f"{'greater than' if strict else 'at least'} {low:g}"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return value


def _check_record(name: str, value, *kinds: type):
    """Return value when it is one of kinds, else refuse it in one line naming its type."""
    if not isinstance(value, kinds):
        wanted = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"{name} must be a {wanted}, got {type(value).__name__}")
    return value


def _is_integer(value) -> bool:
    """The package's one integer rule: a numbers.Integral but not a bool.

    numpy's integers are Integral and np.bool_ is not.  An int is settled by its
    type alone, before the ABC check, which costs some thirty times as much.
    """
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def _is_level(level) -> bool:
    """True for one of LEVELS as a tuple of two integers (_is_integer); an array is
    never compared."""
    return (isinstance(level, tuple) and len(level) == 2 and all(map(_is_integer, level))
            and level in LEVEL_INDEX)


@dataclass(frozen=True)
class RateParams:
    """Optical pumping rates in 1/us.

    Parameters
    ----------
    k_s : float
        Electron repolarization rate (m_s = -1 to 0).  Must be positive.
    k_i : float
        Nuclear hop rate between the m_I levels of the m_s = 0 manifold.
        Must be nonnegative; zero disables nuclear depolarization.

    The defaults correspond to lifetimes 1/k_s = 0.27 us and
    1/k_i = 4.76 us.
    """

    k_s: float = 1.0 / 0.27
    k_i: float = 1.0 / 4.76

    def __post_init__(self) -> None:
        _check_number("k_s", self.k_s, 0, strict=True)
        _check_number("k_i", self.k_i, 0)

    @property
    def degenerate(self) -> bool:
        """True when |3*k_i - k_s| is too small for the reference solutions."""
        return abs(3.0 * self.k_i - self.k_s) < _DEGENERACY_EPS


def validate_population(p) -> np.ndarray:
    """Check and return a population vector as a float array of length 6.

    Entries must be ints or floats (a bool entry of a list or tuple is
    refused too), lie in [0, 1] and sum to 1, both within 1e-9.  The checks
    run on the six entries as Python floats: on six numbers numpy's
    reductions cost several times the arithmetic.
    """
    try:
        arr = np.asarray(p)
    except ValueError:      # a ragged nesting: numpy's own message spans its reasons
        raise ValueError(f"population vector must be a flat sequence of numbers, "
                         f"got {_shown(p)}") from None
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"population vector must hold real numbers, got dtype {arr.dtype}")
    if isinstance(p, (list, tuple)):    # numpy reads a bool among numbers as 0 or 1
        for i, entry in enumerate(p):
            if isinstance(entry, (bool, np.bool_)) or getattr(entry, "dtype", None) == bool:
                raise ValueError(f"population vector must hold real numbers, "
                                 f"got {entry!r} at index {i}")
    arr = arr.astype(float, copy=False)
    if arr.shape != (6,):
        raise ValueError(f"population vector must have 6 entries, got shape {arr.shape}")
    values = arr.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("population vector must be finite")
    if min(values) < -_SUM_TOL or max(values) > 1.0 + _SUM_TOL:
        raise ValueError(f"population entries must lie in [0, 1]: {values}")
    a, b, c, d, e, f = values
    # Left to right from +0.0, the order numpy sums six entries in, bit for bit;
    # the builtin sum compensates its rounding from Python 3.12 on.
    total = 0.0 + a + b + c + d + e + f
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"population vector must sum to 1, got {total!r}")
    return arr


def _clamp_dust(values: list) -> list:
    """values (six floats) with negative dust zeroed, as a new list when there is dust.

    A laser step multiplies by exp(M t), whose entries lie in [0, 1], so no result
    entry falls below the sum of the input's negative entries, which validate_population
    keeps at -4e-9 or above (each >= -1e-9, the largest <= 1 + 1e-9 and the sum
    within 1e-9 of 1).  Dust below -5e-9, that bound with a margin for rounding,
    is a bug, refused in one line.
    """
    low = min(values)       # a clean state is returned as it is, with no numpy call
    if low < -5 * _SUM_TOL:
        raise ValueError(f"propagation produced a negative population {low!r}")
    if low < 0.0:           # the largest entry pays for the zeroed dust: the sum is kept
        a, b, c, d, e, f = (min(v, 0.0) for v in values)
        top, values = values.index(max(values)), [max(v, 0.0) for v in values]
        # left to right from 0.0, numpy's sum of a few entries bit for bit; the
        # builtin sum compensates its rounding from Python 3.12 on
        values[top] += 0.0 + a + b + c + d + e + f
    return values


def rate_matrix(rates: RateParams = RateParams()) -> np.ndarray:
    """Generator matrix M of the rate equation dP/dt = M P.

    Column j holds the flows out of state j; entry (i, j) is the flow
    into state i from state j.  Blocks: the m_s=0 manifold mixes its
    nuclear levels at k_i, each m_s=-1 level feeds its m_I partner in
    m_s=0 at k_s, and nothing flows into m_s=-1.

    Returns
    -------
    numpy.ndarray, shape (6, 6)
        All column sums are exactly zero.
    """
    ks, ki = _check_record("rates", rates, RateParams).k_s, rates.k_i
    hop = ki * (np.ones((3, 3)) - 3.0 * np.eye(3))
    m = np.zeros((6, 6))
    m[:3, :3] = hop
    m[:3, 3:] = ks * np.eye(3)
    m[3:, 3:] = -ks * np.eye(3)
    return m


def propagator(t: float, rates: RateParams = RateParams()) -> np.ndarray:
    """Propagator exp(M t) of the rate equation.

    M has eigenvalues 0, -3*k_i twice and -k_s three times, so for every
    pair of rates exp(M t) = P0 + e^{-3k_i t} P3 + e^{-k_s t} Ps + phi Pc,
    the four constant matrices of _MODES: the m_I-uniform steady state,
    the nuclear modes, the m_s=-1 decay and its feed into the nuclear
    modes.  phi = k_s (e^{-k_s t} - e^{-3k_i t}) / (3k_i - k_s) is
    evaluated as k_s e^{-min(k_s, 3k_i) t} phi_1 with phi_1 =
    -expm1(-g t)/g, g = |3k_i - k_s| (t at g = 0), which neither cancels
    near 3k_i = k_s nor overflows at long t.

    Parameters
    ----------
    t : float
        Duration in us, finite and t >= 0.
    rates : RateParams
        Pumping rates.

    Returns
    -------
    numpy.ndarray, shape (6, 6)
        Columns are probability vectors (sum to 1); the identity at t = 0.
    """
    weights = _mode_weights(_check_number("duration", t, 0),
                            _check_record("rates", rates, RateParams))
    return np.dot(weights, _MODES.reshape(4, 36)).reshape(6, 6)


def _mode_weights(t: float, rates: RateParams) -> tuple[float, float, float, float]:
    """The weights (1, e^{-3k_i t}, e^{-k_s t}, phi) of the four _MODES at t, as floats.

    Exactly (1, 1, 1, 0) at t = 0, also where a rate times 3 overflows and inf * 0
    would make them NaN.
    """
    if t == 0.0:
        return 1.0, 1.0, 1.0, 0.0
    ks, ki = rates.k_s, rates.k_i
    e3 = math.exp(-3.0 * ki * t)
    es = math.exp(-ks * t)
    g = abs(3.0 * ki - ks)
    phi1 = -math.expm1(-g * t) / g if g > 0.0 else t
    # max(es, e3) is e^{-min(k_s, 3 k_i) t}: the slower of the two decays.
    return 1.0, e3, es, ks * max(es, e3) * phi1


def _stationary_time(modes, rates: RateParams) -> float | None:
    """The t > 0 where f(t) = _mode_weights(t, rates) @ modes is stationary, or None.

    For modes = _mode_values(w, p), f(t) = w . propagator(t) @ p = c0 + e^{-m t} [A
    + B e^{-g t} + C phi_1(t)]: m = min(k_s, 3k_i), g = |3k_i - k_s|, phi_1 as in
    propagator, C = k_s w Pc p, and A, B are w P3 p and w Ps p, the slower decay
    first.  f'(t) = 0 has at most one root, e^{-g t} = 1 + g K / D with K = m A -
    C + (m + g) B and D = g (C - (m + g) B) + m C; at g = 0 its limit t = -K / D.
    """
    ks, ki = rates.k_s, rates.k_i
    _, nuclear, electron, feed = modes
    a, b = (nuclear, electron) if 3.0 * ki <= ks else (electron, nuclear)
    c, m, g = ks * feed, min(ks, 3.0 * ki), abs(3.0 * ki - ks)
    k = m * a - c + (m + g) * b
    d = g * (c - (m + g) * b) + m * c
    if d == 0.0 or g * k / d <= -1.0:
        return None
    t = -math.log1p(g * k / d) / g if g > 0.0 else -k / d
    return t if t > 0.0 else None


def _mode_values(w, values) -> tuple[float, float, float, float]:
    """The four coefficients w . P_k p of the _MODES, on six Python floats each.

    With w = (w_u, w_v), values = (u, v) and the means s_u, s_v of u and v that
    _propagate forms: w P0 p = (s_u + s_v) sum(w_u), w P3 p = sum(w_u,i (u_i - s_u)),
    w Ps p = w_v . v - s_v sum(w_u) and w Pc p = sum(w_u,i (v_i - s_v)), the
    _MODES @ p @ w that _stationary_time reads, without a numpy projection.
    Sums run left to right, as in _propagate.
    """
    a, b, c, x, y, z = w
    u0, u1, u2, v0, v1, v2 = values
    su = (u0 + u1 + u2) / 3.0
    sv = (v0 + v1 + v2) / 3.0
    wu = a + b + c
    return ((su + sv) * wu, a * (u0 - su) + b * (u1 - su) + c * (u2 - su),
            x * v0 + y * v1 + z * v2 - sv * wu, a * (v0 - sv) + b * (v1 - sv) + c * (v2 - sv))


def _propagate(values: list, t: float, rates: RateParams) -> list:
    """Unchecked laser step propagator(t) @ values, clamped, on six Python floats.

    With u = values[:3], v = values[3:], (1, e3, es, phi) = _mode_weights(t) and the
    means s_u, s_v of u and v, the four _MODES give exp(M t) p = (c + e3 u_i +
    phi v_i, es v_i) with c = s_u + s_v - e3 s_u - (es + phi) s_v: about 25
    flops, where a numpy projection costs microseconds.
    Sums run left to right, never through the builtin sum, which compensates
    its rounding from Python 3.12 on.
    """
    if t == 0.0:        # propagator(0) is exactly the identity: nothing to round
        return _clamp_dust(values)
    _, e3, es, phi = _mode_weights(t, rates)
    u0, u1, u2, v0, v1, v2 = values
    su = (u0 + u1 + u2) / 3.0
    sv = (v0 + v1 + v2) / 3.0
    c = su + sv - e3 * su - (es + phi) * sv
    return _clamp_dust([c + e3 * u0 + phi * v0, c + e3 * u1 + phi * v1,
                        c + e3 * u2 + phi * v2, es * v0, es * v1, es * v2])


def propagate(p, t: float, rates: RateParams = RateParams()) -> np.ndarray:
    """Evolve a population vector for time t under laser illumination.

    Equivalent to propagator(t, rates) @ p with simplex cleanup: negative
    dust is clamped to zero and taken from the largest entry.  From a vector
    that validate_population accepts the dust stays at -4e-9 or above, up to
    rounding; dust below -5e-9 is refused as a bug.
    """
    return np.array(_propagate(validate_population(p).tolist(), _check_number("duration", t, 0),
                               _check_record("rates", rates, RateParams)))


def propagate_numeric(p, t: float, rates: RateParams = RateParams(),
                      step: float = 1e-3) -> np.ndarray:
    """Classic fixed-step 4th-order Runge-Kutta integration of dP/dt = M P.

    Serves only as the independent cross-check of the closed-form
    propagator; no production path calls it.  The interval is split into
    ceil(t/step) uniform steps of width h.  For this linear system one
    RK4 step is the matrix I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24,
    built once and applied step after step.  It is stable only while h times
    the fastest decay rate, max(k_s, 3 k_i), is at most 2.785 (M's eigenvalues
    are 0, -3k_i and -k_s), so a longer step is refused, at t > 0.

    Parameters
    ----------
    p : array_like
        Valid population vector.
    t : float
        Duration in us, finite and t >= 0.
    rates : RateParams
        Pumping rates.
    step : float
        Maximum step size in us, in (0, 1e-2] and at least t / 1e7.
    """
    _check_number("step", step, 0, 1e-2, strict=True)
    _check_number("duration", t, 0)
    _check_record("rates", rates, RateParams)
    if t / step > 1e7:
        raise ValueError(f"step must be at least {t / 1e7:g} for duration {t:g} "
                         f"(at most 1e7 steps), got {step}")
    vec = validate_population(p)
    if t == 0.0:        # the identity, under the same dust rule as propagate
        return np.array(_clamp_dust(vec.tolist()))
    n = int(np.ceil(t / step))
    # RK4 is stable on the negative real axis down to h * rate = -2.7853, the real
    # root of z^3 + 4 z^2 + 12 z + 24, where its step polynomial reaches 1 again.
    if (t / n) * max(rates.k_s, 3.0 * rates.k_i) > 2.785:
        raise ValueError(f"step {t / n:g} is beyond RK4's stability bound for these rates "
                         "(step * max(k_s, 3 k_i) must be at most 2.785)")
    hm = (t / n) * rate_matrix(rates)
    hm2 = hm @ hm
    s = np.eye(6) + hm + hm2 / 2.0 + hm2 @ hm / 6.0 + hm2 @ hm2 / 24.0
    for _ in range(n):
        vec = s @ vec
    return np.array(_clamp_dust(vec.tolist()))


def steady_state(rates: RateParams = RateParams()) -> np.ndarray:
    """Unique stationary distribution (1/3, 1/3, 1/3, 0, 0, 0).

    Requires k_i > 0; without nuclear hopping the kernel of M is
    degenerate and no single steady state exists.
    """
    if _check_record("rates", rates, RateParams).k_i == 0:
        raise ValueError("steady state is not unique when k_i = 0")
    return np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) / 3.0


def _exp_pair(t: float, rates: RateParams) -> tuple[float, float, float]:
    if _check_record("rates", rates, RateParams).degenerate:
        raise ValueError(
            "reference solution is singular at 3*k_i = k_s; "
            "use propagate instead")
    _, e3, es, _ = _mode_weights(t, rates)
    return es, e3, 3.0 * rates.k_i - rates.k_s


def seg1_reference_solution(t: float, rates: RateParams = RateParams()) -> np.ndarray:
    """Transcribed closed-form solution for the seg1 laser dynamics.

    Kept verbatim as a historical cross-check, including its known
    transcription defect: components 1 and 2 come out exchanged relative
    to the stated initial condition (0,1,1,0,0,1)/3, so the vector at
    t=0 reads (1/3, 0, 1/3, 0, 0, 1/3).  After exchanging those two
    components it matches propagate() from (0,1,1,0,0,1)/3 exactly.
    Never used as the production path.
    """
    _check_number("duration", t, 0)
    es, e3, den = _exp_pair(t, rates)
    ks, ki = rates.k_s, rates.k_i
    c1 = 1.0 - ki * (es - e3) / den
    c2 = 1.0 - ((2.0 * ki - ks) * e3 + ki * es) / den
    c3 = 1.0 - ((ki - ks) * es + (ks - ki) * e3) / den
    return np.array([c1, c2, c3, 0.0, 0.0, es]) / 3.0


def seg2_reference_solution(t: float, rates: RateParams = RateParams()) -> np.ndarray:
    """Transcribed closed-form solution for the seg2 laser dynamics.

    Evaluates the tabulated expressions for the initial condition
    (0.07, 0, 0.55, 0, 0.05, 0.33) verbatim, typos included: the
    asymptote constant is 0.34 per level (the exact value is 1/3), the
    rate coefficients carry only two decimals, and component 2 fails its
    own initial condition (it evaluates to about 0.61 at t=0 instead
    of 0).  Components 1, 3, 4, 5, 6 track propagate() within 0.015;
    component 2 is good for nothing beyond documenting the defect.
    Never used as the production path.
    """
    _check_number("duration", t, 0)
    es, e3, den = _exp_pair(t, rates)
    ks, ki = rates.k_s, rates.k_i
    c1 = 0.34 + (e3 * (0.26 * ks - 0.4 * ki) - 0.38 * ki * es) / den
    c2 = 0.34 - (es * (0.38 * ki - 0.05 * ks) - e3 * (0.63 * ki - 0.29 * ks)) / den
    c3 = 0.34 + (e3 * (1.03 * ki - 0.55 * ks) - es * (0.38 * ki - 0.33 * ks)) / den
    return np.array([c1, c2, c3, 0.0, 0.05 * es, 0.33 * es])
