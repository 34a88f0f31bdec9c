"""Static spin Hamiltonian of the NV electron-nuclear register.

Level energies follow

    E = D m_s^2 - gamma_e B m_s + Q m_I^2 - gamma_n B m_I + A m_s m_I

with D the zero-field splitting, Q the nuclear quadrupole coupling and A
the hyperfine coupling.  Energies and frequencies are in MHz, the field
in mT.  Computed transition frequencies are compared against measured
reference values; the residuals (computed minus measured) are reported
as-is because the quoted constants do not reproduce the measured table
exactly.  On the RF pair they are about -0.4 to -0.5 MHz, consistent with
an effective |Q| closer to 4.95 MHz.  On the MW pair they are +1.04 and
+7.36 MHz: the table puts its two MW lines 2 MHz apart with m_I = +1 below
m_I = -1, where the Hamiltonian puts m_I = +1 4.32 MHz above.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spinmodel import _check_number, _check_record, _is_level, _shown

__all__ = [
    "HamiltonianParams",
    "TransitionRef",
    "REFERENCE_TRANSITIONS",
    "energy",
    "transition_frequency",
    "transition_table",
]


@dataclass(frozen=True)
class HamiltonianParams:
    """Constants of the static Hamiltonian.

    d_zfs and quadrupole/hyperfine are in MHz, the gyromagnetic ratios
    in MHz/mT and b_field in mT.
    """

    d_zfs: float = 2870.0
    gamma_e: float = -28.0
    gamma_n: float = -3.1e-3
    quadrupole: float = 4.5
    hyperfine: float = -2.16
    b_field: float = 6.1

    def __post_init__(self) -> None:
        _check_number("d_zfs", self.d_zfs, 0, strict=True)
        for name in ("gamma_e", "gamma_n", "quadrupole", "hyperfine"):
            _check_number(name, getattr(self, name))
        _check_number("b_field", self.b_field, 0)


@dataclass(frozen=True)
class TransitionRef:
    """A driven transition with its measured reference data.

    reference_freq and rabi_freq are in MHz, finite and positive; kind is
    "MW" for electron flips (m_s changes) and "RF" for nuclear flips (m_I
    changes).
    """

    pair: tuple[tuple[int, int], tuple[int, int]]
    reference_freq: float
    rabi_freq: float
    kind: str

    def __post_init__(self) -> None:
        pair = self.pair    # each level a tuple of two integers before it is compared
        if not (isinstance(pair, tuple) and len(pair) == 2 and all(map(_is_level, pair))):
            raise ValueError(f"pair must be two known (m_s, m_I) levels, got {_shown(pair)}")
        _check_number("reference_freq", self.reference_freq, 0, strict=True)
        _check_number("rabi_freq", self.rabi_freq, 0, strict=True)
        (ms_a, mi_a), (ms_b, mi_b) = pair
        if self.kind == "MW":
            if ms_a == ms_b or mi_a != mi_b:
                raise ValueError(f"MW pair must differ only in m_s: {_shown(self.pair)}")
        elif self.kind == "RF":
            if ms_a != ms_b or mi_a == mi_b:
                raise ValueError(f"RF pair must differ only in m_I: {_shown(self.pair)}")
        else:
            raise ValueError(f"kind must be MW or RF, got {_shown(self.kind)}")


#: The four addressed transitions with their measured frequencies.
REFERENCE_TRANSITIONS = (
    TransitionRef(((0, -1), (-1, -1)), 2696.0, 8.3, "MW"),
    TransitionRef(((0, +1), (-1, +1)), 2694.0, 8.3, "MW"),
    TransitionRef(((-1, -1), (-1, 0)), 2.801, 3.87e-3, "RF"),
    TransitionRef(((-1, +1), (-1, 0)), 7.095, 3.55e-3, "RF"),
)


def energy(level: tuple[int, int], params: HamiltonianParams = HamiltonianParams()) -> float:
    """Energy of |m_s, m_I> in MHz; refused when it overflows to an infinity or NaN."""
    if not _is_level(level):
        raise ValueError(f"unknown level {_shown(level)}")
    _check_record("params", params, HamiltonianParams)
    ms, mi = level
    return _check_number(f"energy of {level}", params.d_zfs * ms * ms
                         - params.gamma_e * params.b_field * ms
                         + params.quadrupole * mi * mi
                         - params.gamma_n * params.b_field * mi
                         + params.hyperfine * ms * mi)


def transition_frequency(a: tuple[int, int], b: tuple[int, int],
                         params: HamiltonianParams = HamiltonianParams()) -> float:
    """Absolute energy difference |E(a) - E(b)| in MHz, refused when it overflows."""
    e_a, e_b = energy(a, params), energy(b, params)     # both levels checked before a == b
    if a == b:
        raise ValueError(f"transition needs two distinct levels, got {_shown(a)} twice")
    return _check_number(f"transition frequency {a}<->{b}", abs(e_a - e_b))


def transition_table(params: HamiltonianParams = HamiltonianParams()):
    """Computed frequency and residual for every reference transition.

    Returns
    -------
    list of (TransitionRef, float, float)
        One row per reference transition: the reference record, the
        frequency computed from the Hamiltonian, and the deviation
        computed - reference.  Deviations are never folded back into
        the computed values.
    """
    rows = []
    for ref in REFERENCE_TRANSITIONS:
        computed = transition_frequency(ref.pair[0], ref.pair[1], params)
        rows.append((ref, computed, computed - ref.reference_freq))
    return rows
