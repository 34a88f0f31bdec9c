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

The spectrum is the zero-padded, shifted FFT fftshift(fft(fid, n=4n)),
n = n_samples, of an FID of 1 to n samples, pruned for the padding it
knows to be zero (Markel 1971; Sorensen & Burrus 1993).  Sample m is
multiplied by (-1)^m, so the shift is exact sign flips; row r of four
rows of n is that signed FID times w^(m r), w = exp(-2 pi i / 4n); and
one batched call runs the four n-point FFTs, row r filling bins r, r + 4,
... of the result.  It rounds differently from numpy's padded FFT, within
2e-15 of the largest magnitude (tested for FID lengths 1 to n, n prime
too).  The spectrum, the calibration and the unmixing templates share
this one transform.  Both FFTs run in place in the first
4n entries of one complex work buffer that each thread keeps, grown to
the longest transform it has run and never shrunk (64 bytes times the
largest n_samples that thread has transformed, 1 MB at 16384 samples); a
transform allocates only the array it returns, which never shares memory
with the work buffer.

Everything that depends on the FidParams alone is computed once per
FidParams and kept in one bounded cache of read-only arrays, the basis:
unit lines, decay, the transform's phasor, grid, calibration spectrum
and the 3x3 unmixing.  It never refuses; extraction refuses, from the
cached unmixing, two lines in one bin.  The spectrum is periodic in
frequency (Oppenheim & Schafer, Discrete-Time Signal Processing, sec.
8.1), so each line is read at its nearest bin modulo the padded length: a
line whose nearest bin is the one past the last is read at bin 0, its
alias at -0.5 / dt.  Extraction accepts only spectra on exactly the basis
grid.
"""

from __future__ import annotations

import collections
import functools
import threading
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

#: Distinct FidParams the basis cache keeps; least recently used dropped first.
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
    product = np.empty_like(series)
    for a, line in zip(amps, lines):
        series += np.multiply(a, line, out=product)
    series *= decay
    return series


class _Work(threading.local):
    """This thread's complex work buffer, grown to 4 n for the largest n it transforms.

    Rows allocated afresh on every transform let glibc trim the heap top and
    fault it in again on the next call, about 700 pages at 16384 samples.
    """

    buffer = np.empty(0, dtype=complex)


_work = _Work()


def _transform(fid: np.ndarray, phasor: np.ndarray) -> np.ndarray:
    """fftshift(fft(fid, n=4n)) pruned for the zero padding, n = len(phasor) >= len(fid);
    unchecked.

    With bin i = 4k + r, the shifted bin is X[4k + r] = sum_m W_n^(k m) w^(m r)
    (-1)^m fid[m], where w = exp(-2 pi i / 4n) and phasor[m] = w^m: the shift is a
    sign flip, and row r of the four n-point FFTs, run as one batch, fills bins
    r, r + 4, ...  Both FFTs run in place in the first 4n entries of this thread's
    work buffer; the result is a fresh array gathered from it.
    """
    n = len(phasor)
    if len(_work.buffer) < 4 * n:       # grown to the longest transform, never shrunk
        _work.buffer = np.empty(4 * n, dtype=complex)
    rows = _work.buffer[:4 * n].reshape(4, n)
    signed = rows[0, :len(fid)]
    signed[:] = fid
    signed[1::2] *= -1
    rows[0, len(fid):] = 0
    for r in (1, 2, 3):
        np.multiply(rows[r - 1], phasor, out=rows[r])
    np.fft.fft(rows, axis=1, out=rows)
    return rows.T.reshape(-1)


_Basis = collections.namedtuple("_Basis",
                                "lines decay phasor freqs calibration bins adjugate det")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _basis(fp: FidParams) -> _Basis:
    """Unit lines exp(2j pi f_m tau) in _MI_ORDER, decay exp(-tau / t2star), the
    transform's phasor exp(-2j pi m / padded_length), freqs (the shifted grid in MHz),
    the calibration spectrum on freqs, and the line bins and the adjugate and
    determinant of the 3x3 unit-line templates: 72 bytes per sample plus 24 per
    padded bin, 2.8 MB at 16384 samples.

    Template column m is the transform of line_m * decay at the line bins.  The
    spectrum is periodic, so a line nearest the bin past the last one is read at
    bin 0.  Two lines in one bin make two template rows equal, and det exactly 0.
    """
    tau = np.arange(fp.n_samples) * fp.dt
    lines = tuple(_read_only(np.exp(2j * np.pi * fp.line_frequency(mi) * tau))
                  for mi in _MI_ORDER)
    decay = _read_only(np.exp(-tau / fp.t2star))
    phasor = _read_only(np.exp(-2j * np.pi / fp.padded_length * np.arange(fp.n_samples)))
    freqs = _read_only(np.fft.fftshift(np.fft.fftfreq(fp.padded_length, fp.dt)))
    fid = _synthesize(np.full(3, 1.0 / 3.0), lines, decay)
    calibration = Spectrum(freqs, _read_only(_transform(fid, phasor)), fp.n_samples)
    centers = np.array([fp.line_frequency(mi) for mi in _MI_ORDER])
    bins = np.rint((centers - freqs[0]) / (freqs[1] - freqs[0])).astype(int) % fp.padded_length
    cols = np.array([_transform(line * decay, phasor)[bins] for line in lines])
    # Cramer's rule: row m of the inverse is the cross product of the other
    # two template columns over the determinant (cond(T) is 1.1 at the default
    # 2.16 MHz spacing).  Elementwise sums keep BLAS and LAPACK, and the
    # memory they map, out of a 3x3 solve.
    adjugate = np.cross(cols[[1, 2, 0]], cols[[2, 0, 1]])
    return _Basis(lines=lines, decay=decay, phasor=phasor, freqs=freqs,
                  calibration=calibration, bins=_read_only(bins),
                  adjugate=_read_only(adjugate), det=(adjugate[0] * cols[0]).sum())


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
    if fid.ndim != 1 or not 1 <= len(fid) <= fp.n_samples:
        raise ValueError(f"FID must be a 1-d series of 1 to {fp.n_samples} samples, "
                         f"got shape {fid.shape}")
    fid = fid.astype(complex, copy=False)
    if not np.isfinite(fid).all():
        raise ValueError("FID must be finite")
    basis = _basis(fp)
    return Spectrum(basis.freqs, _transform(fid, basis.phasor), len(fid))


def calibration_spectrum(fp: FidParams = FidParams()) -> Spectrum:
    """Spectrum of the fully depolarized reference state (1/3, 1/3, 1/3).

    Computed once per FidParams: equal parameters return the same
    Spectrum, whose arrays are read-only.
    """
    return _basis(_check_record("fp", fp, FidParams)).calibration


def _check_grid(spec: Spectrum, grid: np.ndarray, fp: FidParams, name: str) -> None:
    # spectrum(fid, fp) shares the cached grid: identity settles most calls
    if spec.freqs_mhz is not grid and not np.array_equal(spec.freqs_mhz, grid):
        raise ValueError(f"{name} is not on the grid of the FID parameters "
                         f"({fp.padded_length} bins of "
                         f"{1.0 / (fp.padded_length * fp.dt):.9g} MHz)")


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
    an FID of fp.n_samples samples, or when two lines share a bin (bins
    wrap around the periodic spectrum).
    """
    _check_record("spec", spec, Spectrum)
    _check_record("fp", fp, FidParams)
    _check_record("calibration", calibration, Spectrum)
    basis = _basis(fp)
    _check_grid(spec, basis.freqs, fp, "spectrum")
    if spec.fid_length != fp.n_samples:
        raise ValueError(f"spectrum is of {spec.fid_length} FID samples, "
                         f"the FID parameters have {fp.n_samples}")
    _check_grid(calibration, basis.freqs, fp, "calibration spectrum")
    if basis.det == 0:
        raise ValueError("two lines share a spectral bin; their amplitudes cannot be separated "
                         "(hyperfine_split too small, or two lines one sampling rate apart)")
    amps = (basis.adjugate * spec.values[basis.bins]).sum(axis=1) / basis.det
    return SpectralAmplitudes(*(float(a) for a in amps.real))
