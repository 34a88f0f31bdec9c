"""Independent reference model, numpy only.

Nothing here calls into nvinit: the generator is assembled from the
transition list of the rate model, propagation is a scaling-and-squaring
matrix exponential, swaps are 6x6 mixing matrices, level energies come
from the Hamiltonian formula and spectra are direct DFT sums.  The
benchmark compares the program's outputs against these.

Level order: 0..5 = (0,-1), (0,+1), (0,0), (-1,-1), (-1,+1), (-1,0).
"""

from __future__ import annotations

import math

import numpy as np

LEVELS = ((0, -1), (0, +1), (0, 0), (-1, -1), (-1, +1), (-1, 0))
INDEX = {lvl: i for i, lvl in enumerate(LEVELS)}
MI_ORDER = (-1, +1, 0)

SEG1_SWAPS = (((0, -1), (-1, -1)), ((-1, -1), (-1, 0)))
SEG2_SWAPS = (((0, +1), (-1, +1)), ((-1, +1), (-1, 0)))


def generator(k_s: float, k_i: float) -> np.ndarray:
    """dP/dt = G P from the model's flows.

    Each (-1, m) level empties into (0, m) at k_s; inside m_s = 0 every
    nuclear level hops to each of the other two at k_i.
    """
    g = np.zeros((6, 6))

    def flow(src, dst, rate):
        g[INDEX[dst], INDEX[src]] += rate
        g[INDEX[src], INDEX[src]] -= rate

    for mi in MI_ORDER:
        flow((-1, mi), (0, mi), k_s)
        for mj in MI_ORDER:
            if mj != mi:
                flow((0, mi), (0, mj), k_i)
    return g


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for one matrix or a stack (..., n, n): Taylor + squaring."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=-2).max()) if a.size else 0.0
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    x = a / 2.0 ** squarings
    eye = np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    out = eye.copy()
    for k in range(18, 0, -1):          # Horner: I + x/1 (I + x/2 (I + ...))
        out = eye + (x @ out) / k
    for _ in range(squarings):
        out = out @ out
    return out


def laser(t, k_s: float, k_i: float) -> np.ndarray:
    """Laser propagator exp(G t); t may be a scalar or a 1-d grid."""
    g = generator(k_s, k_i)
    t = np.asarray(t, dtype=float)
    return expm(g * t[..., None, None])


def swap(pair, fidelity: float = 1.0) -> np.ndarray:
    """Population swap of two levels as a doubly stochastic 6x6 matrix."""
    i, j = INDEX[pair[0]], INDEX[pair[1]]
    m = np.eye(6)
    m[i, i] = m[j, j] = 1.0 - fidelity
    m[i, j] = m[j, i] = fidelity
    return m


def swaps(pairs, fidelity: float = 1.0) -> np.ndarray:
    out = np.eye(6)
    for pair in pairs:
        out = swap(pair, fidelity) @ out
    return out


def laser_initialized(k_s: float, k_i: float, duration: float = 5.0) -> np.ndarray:
    return laser(duration, k_s, k_i) @ np.full(6, 1.0 / 6.0)


def objective(p, kind: str):
    """p00 = P(|0,0>); a0 = P(|0,0>) - P(|-1,0>).  p may be (..., 6)."""
    p = np.asarray(p)
    return p[..., 2] if kind == "p00" else p[..., 2] - p[..., 5]


def line_amplitudes(p) -> np.ndarray:
    """(A_-1, A_+1, A_0) with A_m = P(0,m) - P(-1,m)."""
    p = np.asarray(p, dtype=float)
    return np.array([p[INDEX[(0, m)]] - p[INDEX[(-1, m)]] for m in MI_ORDER])


def energy(level, d_zfs, gamma_e, gamma_n, quadrupole, hyperfine, b_field) -> float:
    """E = D ms^2 - ge B ms + Q mI^2 - gn B mI + A ms mI, in MHz."""
    ms, mi = level
    return (d_zfs * ms ** 2 - gamma_e * b_field * ms + quadrupole * mi ** 2
            - gamma_n * b_field * mi + hyperfine * ms * mi)


def transition(pair, **constants) -> float:
    return abs(energy(pair[0], **constants) - energy(pair[1], **constants))


def fid(amps, detuning, split, t2star, dt, n_samples) -> np.ndarray:
    """s(k dt) = sum_m a_m exp(2 pi i (detuning + split m) k dt) exp(-k dt / T2*)."""
    tau = np.arange(n_samples) * dt
    lines = sum(a * np.exp(2j * np.pi * (detuning + split * m) * tau)
                for a, m in zip(amps, MI_ORDER))
    return lines * np.exp(-tau / t2star)


def line_bins(detuning, split, dt, padded) -> list[int]:
    """Index, in the zero-centred spectrum, of the bin nearest each line."""
    return [int(round((detuning + split * m) * padded * dt)) + padded // 2
            for m in MI_ORDER]


def direct_dft(series, padded: int, index: int) -> complex:
    """Zero-padded forward DFT of `series` at zero-centred bin `index`."""
    k = index - padded // 2
    n = np.arange(len(series))
    return complex(np.sum(series * np.exp(-2j * np.pi * k * n / padded)))


def self_check(rates, hamiltonian) -> list[str]:
    """Published anchors the reference must reproduce; returns problems."""
    problems = []
    ks, ki = rates.k_s, rates.k_i
    g = generator(ks, ki)
    if np.abs(g.sum(axis=0)).max() > 1e-12:
        problems.append("reference generator has nonzero column sums")
    null = np.linalg.svd(g)[2][-1]
    null = null / null.sum()
    if np.abs(null - np.array([1, 1, 1, 0, 0, 0]) / 3.0).max() > 1e-12:
        problems.append(f"reference steady state is {null}")
    start = laser_initialized(ks, ki)
    p00 = (laser(0.5, ks, ki) @ swaps(SEG1_SWAPS) @ start)[2]
    if abs(p00 - 0.550) > 0.003:
        problems.append(f"reference seg1 endpoint P00={p00:.6f}, published 0.550")
    zero_field = dict(d_zfs=hamiltonian.d_zfs, gamma_e=hamiltonian.gamma_e,
                      gamma_n=hamiltonian.gamma_n, quadrupole=hamiltonian.quadrupole,
                      hyperfine=hamiltonian.hyperfine, b_field=0.0)
    split = abs(transition(SEG1_SWAPS[0], **zero_field)
                - transition(SEG2_SWAPS[0], **zero_field))
    if abs(split - 4.32) > 1e-9:
        problems.append(f"reference B=0 MW split {split:.6f} MHz, published 4.32")
    return problems
