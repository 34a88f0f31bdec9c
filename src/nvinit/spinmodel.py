"""Six-level rate model of laser-driven population redistribution.

The working subspace is spanned by |m_s, m_I> with m_s in {0, -1} and
m_I in {-1, +1, 0}.  Canonical index order of the population vector:

    0: |0,-1>   1: |0,+1>   2: |0,0>   3: |-1,-1>   4: |-1,+1>   5: |-1,0>

During laser illumination the electron repolarizes (-1 -> 0) at rate k_s
while the nuclear spin hops between the m_I levels of the m_s=0 manifold
at rate k_i.  All times are in microseconds, rates in 1/us.
"""

from __future__ import annotations

import math
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
_NEG_CLAMP = 1e-12

# 3x3 blocks of the propagator: the m_I-uniform projector, the identity
# and their difference (the decaying nuclear modes).
_THIRD = np.full((3, 3), 1.0 / 3.0)
_EYE3 = np.eye(3)
_EYE3_MINUS_THIRD = _EYE3 - _THIRD


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
        if not (np.isfinite(self.k_s) and np.isfinite(self.k_i)):
            raise ValueError("rates must be finite")
        if self.k_s <= 0:
            raise ValueError(f"k_s must be positive, got {self.k_s}")
        if self.k_i < 0:
            raise ValueError(f"k_i must be nonnegative, got {self.k_i}")

    @property
    def degenerate(self) -> bool:
        """True when |3*k_i - k_s| is too small for the reference solutions."""
        return abs(3.0 * self.k_i - self.k_s) < _DEGENERACY_EPS


def validate_population(p) -> np.ndarray:
    """Check and return a population vector as a float array of length 6.

    Entries must lie in [0, 1] and sum to 1, both within 1e-9.
    """
    arr = np.asarray(p, dtype=float)
    if arr.shape != (6,):
        raise ValueError(f"population vector must have 6 entries, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("population vector must be finite")
    if arr.min() < -_SUM_TOL or arr.max() > 1.0 + _SUM_TOL:
        raise ValueError(f"population entries must lie in [0, 1]: {arr}")
    total = arr.sum()
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"population vector must sum to 1, got {float(total)!r}")
    return arr


def _check_duration(t: float) -> None:
    if not 0.0 <= t < math.inf:
        raise ValueError(f"duration must be finite and nonnegative, got {t}")


def _clamp_dust(p: np.ndarray) -> np.ndarray:
    """Zero out tiny negative float dust; larger negatives are a bug."""
    low = p.min()
    if low < -_NEG_CLAMP:
        raise ValueError(f"propagation produced a negative population {low!r}")
    return np.where(p < 0.0, 0.0, p)


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
    ks, ki = rates.k_s, rates.k_i
    hop = ki * (np.ones((3, 3)) - 3.0 * np.eye(3))
    m = np.zeros((6, 6))
    m[:3, :3] = hop
    m[:3, 3:] = ks * np.eye(3)
    m[3:, 3:] = -ks * np.eye(3)
    return m


def propagator(t: float, rates: RateParams = RateParams()) -> np.ndarray:
    """Propagator exp(M t) of the rate equation.

    Built from the known eigenstructure of M (eigenvalues 0, -3*k_i twice
    and -k_s three times), one closed form for every pair of rates.  The
    m_s=-1 feed into the nuclear modes, k_s (e^{-k_s t} - e^{-3k_i t}) /
    (3k_i - k_s), is evaluated as k_s e^{-min(k_s, 3k_i) t} phi_1 with
    phi_1 = -expm1(-g t)/g, g = |3k_i - k_s| (t at g = 0), which neither
    cancels near 3k_i = k_s nor overflows at long t.

    Parameters
    ----------
    t : float
        Duration in us, finite and t >= 0.
    rates : RateParams
        Pumping rates.

    Returns
    -------
    numpy.ndarray, shape (6, 6)
        Columns are probability vectors (sum to 1).
    """
    _check_duration(t)
    u = np.zeros((6, 6))
    ks, ki = rates.k_s, rates.k_i
    e3 = math.exp(-3.0 * ki * t)
    es = math.exp(-ks * t)
    g = abs(3.0 * ki - ks)
    phi1 = -math.expm1(-g * t) / g if g > 0.0 else t
    # max(es, e3) is e^{-min(k_s, 3 k_i) t}: the slower of the two decays.
    phi = ks * max(es, e3) * phi1
    u[:3, :3] = _THIRD + e3 * _EYE3_MINUS_THIRD
    u[:3, 3:] = (1.0 - es) * _THIRD + phi * _EYE3_MINUS_THIRD
    u[3:, 3:] = es * _EYE3
    return u


def _line_coefficients(w: np.ndarray, p: np.ndarray, rates: RateParams) -> tuple:
    """Eigenmode coefficients of f(t) = w . propagator(t, rates) @ p.

    f(t) = c0 + e^{-m t} [A + B e^{-g t} + C phi_1(t)] with
    m = min(k_s, 3k_i), g = |3k_i - k_s| and phi_1 as in propagator.
    Returns (c0, A, B, C, m, g) as floats.
    """
    ks, ki = rates.k_s, rates.k_i
    u_mean = w[:3].mean()
    u_mode = w[:3] - u_mean             # weight on the decaying nuclear modes
    c0 = u_mean * p.sum()
    nuclear = u_mode @ p[:3]            # amplitude of e^{-3 k_i t}
    electron = w[3:] @ p[3:] - u_mean * p[3:].sum()   # amplitude of e^{-k_s t}
    c = ks * (u_mode @ p[3:])
    a, b = (nuclear, electron) if 3.0 * ki <= ks else (electron, nuclear)
    return (float(c0), float(a), float(b), float(c),
            min(ks, 3.0 * ki), abs(3.0 * ki - ks))


def propagate(p, t: float, rates: RateParams = RateParams()) -> np.ndarray:
    """Evolve a population vector for time t under laser illumination.

    Equivalent to propagator(t, rates) @ p with simplex cleanup: float
    dust in [-1e-12, 0) is clamped to zero.
    """
    vec = validate_population(p)
    out = propagator(t, rates) @ vec
    return _clamp_dust(out)


def propagate_numeric(p, t: float, rates: RateParams = RateParams(),
                      step: float = 1e-3) -> np.ndarray:
    """Classic fixed-step 4th-order Runge-Kutta integration of dP/dt = M P.

    Serves only as the independent cross-check of the closed-form
    propagator; no production path calls it.  The interval is split into
    ceil(t/step) uniform steps of width h.  For this linear system one
    RK4 step is the matrix I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24,
    built once and applied step after step.

    Parameters
    ----------
    p : array_like
        Valid population vector.
    t : float
        Duration in us, finite and t >= 0.
    rates : RateParams
        Pumping rates.
    step : float
        Maximum step size in us; must satisfy 0 < step <= 1e-2.
    """
    if not 0.0 < step <= 1e-2:
        raise ValueError(f"step must be in (0, 1e-2] us, got {step}")
    _check_duration(t)
    vec = validate_population(p)
    if t == 0.0:
        return vec.copy()
    n = int(np.ceil(t / step))
    hm = (t / n) * rate_matrix(rates)
    hm2 = hm @ hm
    s = np.eye(6) + hm + hm2 / 2.0 + hm2 @ hm / 6.0 + hm2 @ hm2 / 24.0
    y = vec
    for _ in range(n):
        y = s @ y
    return _clamp_dust(y)


def steady_state(rates: RateParams = RateParams()) -> np.ndarray:
    """Unique stationary distribution (1/3, 1/3, 1/3, 0, 0, 0).

    Requires k_i > 0; without nuclear hopping the kernel of M is
    degenerate and no single steady state exists.
    """
    if rates.k_i == 0:
        raise ValueError("steady state is not unique when k_i = 0")
    return np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) / 3.0


def _exp_pair(t: float, rates: RateParams) -> tuple[float, float, float]:
    if rates.degenerate:
        raise ValueError(
            "reference solution is singular at 3*k_i = k_s; "
            "use propagate instead")
    es = np.exp(-rates.k_s * t)
    e3 = np.exp(-3.0 * rates.k_i * t)
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
    _check_duration(t)
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
    _check_duration(t)
    es, e3, den = _exp_pair(t, rates)
    ks, ki = rates.k_s, rates.k_i
    c1 = 0.34 + (e3 * (0.26 * ks - 0.4 * ki) - 0.38 * ki * es) / den
    c2 = 0.34 - (es * (0.38 * ki - 0.05 * ks) - e3 * (0.63 * ki - 0.29 * ks)) / den
    c3 = 0.34 + (e3 * (1.03 * ki - 0.55 * ks) - es * (0.38 * ki - 0.33 * ks)) / den
    return np.array([c1, c2, c3, 0.0, 0.05 * es, 0.33 * es])
