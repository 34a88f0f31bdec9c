"""Readout map: spectral amplitudes, FID synthesis and line unmixing.

The readout observable per nuclear sublevel is the population difference

    A_mI = P(|0, m_I>) - P(|-1, m_I>),

which appears as the height of one line in the Fourier spectrum of a
Ramsey-type free induction decay.  This module computes the amplitudes
directly, synthesizes a complex FID placing line m at
detuning + split * m, and recovers the amplitudes from the discrete
spectrum by exact linear unmixing.

The quadrature (complex) signal model keeps line sign and position
unambiguous.  With the default decay constant (2 us) the Lorentzian
linewidth is about 0.08 MHz against a 2.16 MHz line spacing, so every
line leaks a few percent of its height into the bins of its neighbors.
The spectrum is linear in the three amplitudes and the line frequencies
are known, so extraction solves the 3x3 system of unit-line templates
sampled at the three line bins (variable projection with known
frequencies, Golub & Pereyra 1973).  This removes the leakage and keeps
the sign: a noise-free FID round-trips to rounding error, for negative
amplitudes too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spinmodel import validate_population

__all__ = [
    "SpectralAmplitudes",
    "FidParams",
    "Spectrum",
    "amplitudes",
    "synthesize_fid",
    "spectrum",
    "extract_amplitudes",
    "calibration_spectrum",
]

#: m_I order used throughout this module: the line of a_minus1 sits at
#: detuning - split, a_plus1 at detuning + split, a_zero at detuning.
_MI_ORDER = (-1, +1, 0)


@dataclass(frozen=True)
class SpectralAmplitudes:
    """Line amplitudes A_mI = P(|0,mI>) - P(|-1,mI>), each finite.

    They lie in [-1, 1] up to rounding, which exact extraction can exceed.
    """

    a_minus1: float
    a_plus1: float
    a_zero: float

    def __post_init__(self) -> None:
        for name in ("a_minus1", "a_plus1", "a_zero"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.a_minus1, self.a_plus1, self.a_zero])


@dataclass(frozen=True)
class FidParams:
    """Synthesis parameters of the simulated free induction decay.

    detuning is the carrier offset of the line triplet in MHz and
    hyperfine_split the per-m_I spacing coefficient (line m sits at
    detuning + hyperfine_split * m).  t2star is the decay constant in
    us, dt the sample interval in us and n_samples the number of time
    samples; the transform zero-pads to 4 * n_samples bins.

    The defaults (detuning 4 MHz, t2star 2 us, dt 0.02 us, 2048 samples
    padded to 8192) are declared simulation choices, reported in the
    output metadata of the command-line front end.
    """

    detuning: float = 4.0
    hyperfine_split: float = -2.16
    t2star: float = 2.0
    dt: float = 0.02
    n_samples: int = 2048

    def __post_init__(self) -> None:
        for name in ("detuning", "hyperfine_split", "t2star", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.t2star > 0:
            raise ValueError(f"t2star must be positive, got {self.t2star}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_samples < 256:
            raise ValueError(f"n_samples must be at least 256, got {self.n_samples}")
        if abs(self.detuning) + abs(self.hyperfine_split) >= 0.5 / self.dt:
            raise ValueError(
                "line frequencies violate the Nyquist limit: "
                f"|{self.detuning}| + |{self.hyperfine_split}| >= {0.5 / self.dt}")

    @property
    def padded_length(self) -> int:
        return 4 * self.n_samples

    def line_frequency(self, mi: int) -> float:
        return self.detuning + self.hyperfine_split * mi


@dataclass(frozen=True)
class Spectrum:
    """Discrete spectrum on a uniform, monotonically increasing grid.

    fid_length is the FID's sample count before zero padding.
    """

    freqs_mhz: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    fid_length: int

    def __post_init__(self) -> None:
        if self.freqs_mhz.shape != self.values.shape:
            raise ValueError("frequency grid and values must have equal length")

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


def amplitudes(p) -> SpectralAmplitudes:
    """Direct spectral amplitudes of a population vector."""
    vec = validate_population(p)
    return SpectralAmplitudes(a_minus1=vec[0] - vec[3],
                              a_plus1=vec[1] - vec[4],
                              a_zero=vec[2] - vec[5])


def synthesize_fid(amps: SpectralAmplitudes, fp: FidParams = FidParams()) -> np.ndarray:
    """Complex FID time series for the given line amplitudes.

    s(tau_k) = sum_m a_m exp(2j pi (detuning + split m) tau_k)
               * exp(-tau_k / t2star),  tau_k = k dt.
    """
    tau = np.arange(fp.n_samples) * fp.dt
    series = np.zeros(fp.n_samples, dtype=complex)
    for a, mi in zip(amps.as_array(), _MI_ORDER):
        series += a * np.exp(2j * np.pi * fp.line_frequency(mi) * tau)
    return series * np.exp(-tau / fp.t2star)


def spectrum(fid: np.ndarray, fp: FidParams = FidParams()) -> Spectrum:
    """Zero-padded discrete Fourier transform of an FID.

    Unnormalized forward transform (numpy convention), so Parseval reads
    sum |time|^2 = mean |spectrum|^2 over the padded length.  The grid
    is shifted to run from negative to positive frequencies.
    """
    fid = np.asarray(fid, dtype=complex)
    if fid.ndim != 1 or len(fid) > fp.padded_length:
        raise ValueError("FID must be a 1-d series no longer than the padded length")
    if not np.isfinite(fid).all():
        raise ValueError("FID must be finite")
    padded = np.zeros(fp.padded_length, dtype=complex)
    padded[: len(fid)] = fid
    values = np.fft.fftshift(np.fft.fft(padded))
    freqs = np.fft.fftshift(np.fft.fftfreq(fp.padded_length, fp.dt))
    return Spectrum(freqs_mhz=freqs, values=values, fid_length=len(fid))


def calibration_spectrum(fp: FidParams = FidParams()) -> Spectrum:
    """Spectrum of the fully depolarized reference state (1/3, 1/3, 1/3)."""
    ref = SpectralAmplitudes(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    return spectrum(synthesize_fid(ref, fp), fp)


def _check_grid(spec: Spectrum, fp: FidParams, name: str) -> None:
    n = fp.padded_length
    step = 1.0 / (n * fp.dt)
    freqs = spec.freqs_mhz
    if len(freqs) != n or abs((freqs[1] - freqs[0]) - step) > 1e-9 * step:
        raise ValueError(f"{name} is not on the grid of the FID parameters "
                         f"({n} bins of {step:.9g} MHz)")


def _line_template(dt: float, n_samples: int, t2star: float,
                   f_line: np.ndarray, f_bin: np.ndarray) -> np.ndarray:
    """DFT at f_bin of a unit line at f_line: sum_k z^k = (1 - z^N)/(1 - z).

    z = exp(dt (2 pi i (f_line - f_bin) - 1/t2star)); expm1 keeps both
    numerator and denominator accurate when z is close to 1.
    """
    w = dt * (2j * np.pi * (f_line - f_bin) - 1.0 / t2star)
    return np.expm1(n_samples * w) / np.expm1(w)


def extract_amplitudes(spec: Spectrum, fp: FidParams,
                       calibration: Spectrum) -> SpectralAmplitudes:
    """Recover line amplitudes from a spectrum by exact linear unmixing.

    The spectrum of an FID synthesized with fp is linear in the three
    amplitudes.  The bin nearest each line frequency is taken, the 3x3
    complex matrix T[b, m] holds the closed-form DFT of a unit line m at
    bin b, and T a = spectrum[b] is solved; the real parts are returned.
    A noise-free spectrum is recovered to rounding error, whatever the
    signs of the amplitudes.

    calibration is the reference spectrum (calibration_spectrum(fp));
    the unmixing needs no reference, so it is only checked to lie on
    fp's grid, as spec is.  Raises ValueError when either spectrum is off
    that grid, when spec is not of an FID of fp.n_samples samples, when a
    line lies outside the grid, or when two lines share a bin.
    """
    if calibration is None:
        raise ValueError("extraction requires a calibration spectrum")
    _check_grid(spec, fp, "spectrum")
    if spec.fid_length != fp.n_samples:
        raise ValueError(f"spectrum is of {spec.fid_length} FID samples, "
                         f"the FID parameters have {fp.n_samples}")
    _check_grid(calibration, fp, "calibration spectrum")
    freqs = spec.freqs_mhz
    lines = np.array([fp.line_frequency(mi) for mi in _MI_ORDER])
    for f0 in lines:
        if f0 < freqs[0] or f0 > freqs[-1]:
            raise ValueError(f"line frequency {f0} MHz is outside the spectral grid")
    bins = np.rint((lines - freqs[0]) / (freqs[1] - freqs[0])).astype(int)
    if len(set(bins.tolist())) < len(bins):
        raise ValueError("two lines share a spectral bin; their amplitudes "
                         "cannot be separated (hyperfine_split too small)")
    templates = _line_template(fp.dt, fp.n_samples, fp.t2star,
                               lines[np.newaxis, :], freqs[bins][:, np.newaxis])
    # Cramer's rule: row m of the inverse is the cross product of the other
    # two template columns over the determinant (cond(T) is 1.1 at the default
    # 2.16 MHz spacing).  Elementwise sums keep BLAS and LAPACK, and the
    # memory they map, out of a 3x3 solve.
    cols = templates.T
    adjugate = np.cross(cols[[1, 2, 0]], cols[[2, 0, 1]])
    amps = (adjugate * spec.values[bins]).sum(axis=1) / (adjugate[0] * cols[0]).sum()
    return SpectralAmplitudes(*(float(a) for a in amps.real))
