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
are known, so extraction solves the 3x3 system of unit-line templates,
the spectra of unit lines, sampled at the three line bins (variable
projection with known frequencies, Golub & Pereyra 1973).  This removes
the leakage and keeps the sign: a noise-free FID round-trips to rounding
error, for negative amplitudes too.

Everything that depends on the FidParams alone is computed once per
FidParams and kept in two bounded caches of read-only arrays: the basis
(unit lines, decay, grid and calibration spectrum), which never refuses,
and the 3x3 unmixing, which refuses lines it cannot separate.
Extraction accepts only spectra on exactly the basis grid.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass, field

import numpy as np

from .spinmodel import _check_number, _check_record, validate_population

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

#: Distinct FidParams each cache keeps, least recently used dropped first.
_CACHE_SIZE = 4


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
            _check_number(name, getattr(self, name))

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
        _check_number("detuning", self.detuning)
        _check_number("hyperfine_split", self.hyperfine_split)
        _check_number("t2star", self.t2star, 0, strict=True)
        _check_number("dt", self.dt, 0, strict=True)
        _check_number("n_samples", self.n_samples, 256, integer=True)
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
        for name in ("freqs_mhz", "values"):
            array = getattr(self, name)
            if not isinstance(array, np.ndarray):
                raise ValueError(f"{name} must be a numpy array, got {type(array).__name__}")
            if array.dtype.kind not in "iufc":      # text would fail only at extraction
                raise ValueError(f"{name} must hold numbers, got dtype {array.dtype}")
        if self.freqs_mhz.shape != self.values.shape:
            raise ValueError("frequency grid and values must have equal length")
        _check_number("fid_length", self.fid_length, 1, integer=True)

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


def amplitudes(p) -> SpectralAmplitudes:
    """Direct spectral amplitudes of a population vector."""
    vec = validate_population(p)
    return SpectralAmplitudes(*(vec[:3] - vec[3:]))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _synthesize(amps, lines, decay: np.ndarray) -> np.ndarray:
    """sum_m amps[m] lines[m], times the decay; unchecked."""
    series = np.zeros(len(decay), dtype=complex)
    for a, line in zip(amps, lines):
        series += a * line
    return series * decay


def _transform(fid: np.ndarray, fp: FidParams) -> np.ndarray:
    """Padded FFT of a complex FID, halves swapped in place (fftshift, no copy); unchecked."""
    values = np.fft.fft(fid, n=fp.padded_length)
    half = fp.padded_length // 2
    values[:half], values[half:] = values[half:], values[:half].copy()
    return values


_Basis = collections.namedtuple("_Basis", "lines decay freqs calibration")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _basis(fp: FidParams) -> _Basis:
    """Unit lines exp(2j pi f_m tau) in _MI_ORDER, decay exp(-tau / t2star), freqs
    (the shifted grid in MHz) and the calibration spectrum on freqs: 56 bytes per
    sample plus 24 per padded bin, 2.5 MB at 16384 samples."""
    tau = np.arange(fp.n_samples) * fp.dt
    lines = tuple(_read_only(np.exp(2j * np.pi * fp.line_frequency(mi) * tau))
                  for mi in _MI_ORDER)
    decay = _read_only(np.exp(-tau / fp.t2star))
    freqs = _read_only(np.fft.fftshift(np.fft.fftfreq(fp.padded_length, fp.dt)))
    fid = _synthesize(np.full(3, 1.0 / 3.0), lines, decay)
    # A copy made once the transform's buffers are freed: without it glibc trims and regrows
    # the heap top on each large round trip (perfbench readout: 93 vs 46 page faults per op).
    calibration = Spectrum(freqs, _read_only(_transform(fid, fp).copy()), fp.n_samples)
    return _Basis(lines=lines, decay=decay, freqs=freqs, calibration=calibration)


def synthesize_fid(amps: SpectralAmplitudes, fp: FidParams = FidParams()) -> np.ndarray:
    """Complex FID time series for the given line amplitudes.

    s(tau_k) = sum_m a_m exp(2j pi (detuning + split m) tau_k)
               * exp(-tau_k / t2star),  tau_k = k dt.
    """
    _check_record("amps", amps, SpectralAmplitudes)
    basis = _basis(_check_record("fp", fp, FidParams))
    return _synthesize(amps.as_array(), basis.lines, basis.decay)


def spectrum(fid: np.ndarray, fp: FidParams = FidParams()) -> Spectrum:
    """Zero-padded discrete Fourier transform of an FID.

    Unnormalized forward transform (numpy convention), so Parseval reads
    sum |time|^2 = mean |spectrum|^2 over the padded length.  The values
    and the grid run from negative to positive frequencies (fftshift); the
    grid is shared between spectra of equal FidParams and read-only.
    """
    _check_record("fp", fp, FidParams)
    fid = np.asarray(fid)
    if fid.dtype.kind not in "iufc":        # text such as "1+2j" is refused, not parsed
        raise ValueError(f"FID must hold numbers, got dtype {fid.dtype}")
    fid = fid.astype(complex, copy=False)
    if fid.ndim != 1 or len(fid) > fp.padded_length:
        raise ValueError("FID must be a 1-d series no longer than the padded length")
    if not np.isfinite(fid).all():
        raise ValueError("FID must be finite")
    return Spectrum(_basis(fp).freqs, _transform(fid, fp), len(fid))


def calibration_spectrum(fp: FidParams = FidParams()) -> Spectrum:
    """Spectrum of the fully depolarized reference state (1/3, 1/3, 1/3).

    Computed once per FidParams: equal parameters return the same
    Spectrum, whose arrays are read-only.
    """
    return _basis(_check_record("fp", fp, FidParams)).calibration


def _check_grid(spec: Spectrum, fp: FidParams, name: str) -> None:
    grid = _basis(fp).freqs   # spectrum(fid, fp) shares it: identity settles most calls
    if spec.freqs_mhz is not grid and not np.array_equal(spec.freqs_mhz, grid):
        raise ValueError(f"{name} is not on the grid of the FID parameters "
                         f"({fp.padded_length} bins of "
                         f"{1.0 / (fp.padded_length * fp.dt):.9g} MHz)")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _unmixing(fp: FidParams) -> tuple[np.ndarray, np.ndarray, complex]:
    """Line bins, adjugate and determinant of the 3x3 unit-line templates.

    Template column m is the transform of line_m * decay at the line bins.
    Read-only; 184 bytes of arrays per entry, whatever the sample count.
    Refuses a line outside the grid and two lines in one bin.
    """
    basis = _basis(fp)
    freqs = basis.freqs
    lines = np.array([fp.line_frequency(mi) for mi in _MI_ORDER])
    for f0 in lines:
        if f0 < freqs[0] or f0 > freqs[-1]:
            raise ValueError(f"line frequency {f0} MHz is outside the spectral grid")
    bins = np.rint((lines - freqs[0]) / (freqs[1] - freqs[0])).astype(int)
    if len(set(bins.tolist())) < len(bins):
        raise ValueError("two lines share a spectral bin; their amplitudes "
                         "cannot be separated (hyperfine_split too small)")
    cols = np.array([_transform(line * basis.decay, fp)[bins] for line in basis.lines])
    # Cramer's rule: row m of the inverse is the cross product of the other
    # two template columns over the determinant (cond(T) is 1.1 at the default
    # 2.16 MHz spacing).  Elementwise sums keep BLAS and LAPACK, and the
    # memory they map, out of a 3x3 solve.
    adjugate = np.cross(cols[[1, 2, 0]], cols[[2, 0, 1]])
    return _read_only(bins), _read_only(adjugate), (adjugate[0] * cols[0]).sum()


def extract_amplitudes(spec: Spectrum, fp: FidParams,
                       calibration: Spectrum) -> SpectralAmplitudes:
    """Recover line amplitudes from a spectrum by exact linear unmixing.

    The spectrum of an FID synthesized with fp is linear in the three
    amplitudes.  T[b, m] holds the spectrum of a unit line m at the bin b
    nearest line b, T a = spectrum[b] is solved (once per FidParams) and
    the real parts are returned: exact to rounding error, whatever their signs.

    calibration is the reference spectrum (calibration_spectrum(fp)).
    The unmixing needs no reference, so it is only checked to lie on the
    grid of spectrum(fid, fp), element for element, as spec is.  Raises
    ValueError when either spectrum is off that grid, when spec is not of
    an FID of fp.n_samples samples, when a line lies outside the grid, or
    when two lines share a bin.
    """
    if calibration is None:
        raise ValueError("extraction requires a calibration spectrum")
    _check_record("spec", spec, Spectrum)
    _check_record("fp", fp, FidParams)
    _check_record("calibration", calibration, Spectrum)
    _check_grid(spec, fp, "spectrum")
    if spec.fid_length != fp.n_samples:
        raise ValueError(f"spectrum is of {spec.fid_length} FID samples, "
                         f"the FID parameters have {fp.n_samples}")
    _check_grid(calibration, fp, "calibration spectrum")
    bins, adjugate, det = _unmixing(fp)
    amps = (adjugate * spec.values[bins]).sum(axis=1) / det
    return SpectralAmplitudes(*(float(a) for a in amps.real))
