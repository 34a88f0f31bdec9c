import re
import sys
import threading

import numpy as np
import pytest

from nvinit import tomography
from nvinit.pulses import initial_state, run_segment, seg1, seg2
from nvinit.tomography import (FidParams, SpectralAmplitudes, Spectrum, amplitudes,
                               calibration_spectrum, extract_amplitudes,
                               spectrum, synthesize_fid)

PUBLISHED = np.array([0.07, 0.33, 0.55, 0.0, 0.0, 0.05])
THIRD = SpectralAmplitudes(1 / 3, 1 / 3, 1 / 3)


def roundtrip(p, fp=FidParams()):
    amps = amplitudes(p)
    spec = spectrum(synthesize_fid(amps, fp), fp)
    return amps, extract_amplitudes(spec, fp, calibration_spectrum(fp))


class TestAmplitudes:
    def test_published_state(self):
        a = amplitudes(PUBLISHED)
        assert (a.a_minus1, a.a_plus1, a.a_zero) == (0.07, 0.33, 0.5)

    def test_pumped_state(self):
        a = amplitudes(np.array([1, 1, 1, 0, 0, 0]) / 3.0).as_array()
        assert np.abs(a - 1 / 3).max() < 1e-15

    def test_balanced_pair_cancels(self):
        a = amplitudes(np.array([0, 1, 1, 0, 0, 1]) / 3.0)
        assert a.a_minus1 == 0.0
        assert a.a_zero == 0.0
        assert a.a_plus1 == pytest.approx(1 / 3, abs=1e-15)

    def test_linear(self):
        rng = np.random.default_rng(12)
        p, q = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
        mix = 0.25 * p + 0.75 * q
        direct = amplitudes(mix).as_array()
        combined = 0.25 * amplitudes(p).as_array() + 0.75 * amplitudes(q).as_array()
        assert np.abs(direct - combined).max() < 1e-12

    def test_sum_rule(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            total = amplitudes(p).as_array().sum()
            assert total == pytest.approx(p[:3].sum() - p[3:].sum(), abs=1e-12)


class TestFidParams:
    def test_defaults(self):
        fp = FidParams()
        assert fp.padded_length == 8192
        assert fp.line_frequency(-1) == pytest.approx(6.16)
        assert fp.line_frequency(+1) == pytest.approx(1.84)
        assert fp.line_frequency(0) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FidParams(t2star=0.0)
        with pytest.raises(ValueError):
            FidParams(dt=0.0)
        with pytest.raises(ValueError):
            FidParams(n_samples=128)
        with pytest.raises(ValueError):
            FidParams(detuning=24.0, dt=0.02)  # beyond Nyquist

    def test_non_finite_fields_refused(self):
        nan = float("nan")
        for kwargs in ({"t2star": nan}, {"dt": nan}, {"detuning": nan},
                       {"hyperfine_split": float("inf")}):
            with pytest.raises(ValueError, match="must be finite"):
                FidParams(**kwargs)

    @pytest.mark.parametrize("n", [300.5, float("nan"), float("inf"), True])
    def test_non_integer_sample_count_refused(self, n):
        with pytest.raises(ValueError, match=f"^n_samples must be an integer, got {n!r}$"):
            FidParams(n_samples=n)

    @pytest.mark.parametrize("value", [np.array(4.0), "4", None, 4 + 0j])
    def test_non_real_fields_refused(self, value):
        for name in ("detuning", "hyperfine_split", "t2star", "dt"):
            with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
                FidParams(**{name: value})

    def test_numpy_scalars_accepted(self):
        fp = FidParams(detuning=np.float64(4.0), t2star=np.int64(2))
        assert fp == FidParams()
        assert calibration_spectrum(fp) is calibration_spectrum(FidParams())

    def test_numpy_integer_sample_count_accepted(self):
        assert len(synthesize_fid(THIRD, FidParams(n_samples=np.int64(300)))) == 300

    def test_nyquist_boundary(self):
        FidParams(detuning=22.0, dt=0.02, hyperfine_split=-2.16)  # 24.16 < 25
        with pytest.raises(ValueError):
            FidParams(detuning=23.0, dt=0.02, hyperfine_split=-2.16)

    @pytest.mark.parametrize("detuning, split, below", [(15.5, 0.5, 0.484375),
                                                        (-15.5, -0.5, -0.484375)])
    def test_line_exactly_at_nyquist_is_refused(self, detuning, split, below):
        # dt = 1/32 us: Nyquist is exactly 16 MHz, which 15.5 + 0.5 reaches exactly;
        # a split 1/64 MHz smaller is accepted
        FidParams(detuning=detuning, hyperfine_split=below, dt=0.03125, n_samples=256)
        with pytest.raises(ValueError, match=re.escape(
                "line frequencies violate the Nyquist limit: "
                f"|{detuning}| + |{split}| >= 16.0")):
            FidParams(detuning=detuning, hyperfine_split=split, dt=0.03125, n_samples=256)


class TestSynthesize:
    def test_zero_amplitudes(self):
        fid = synthesize_fid(SpectralAmplitudes(0.0, 0.0, 0.0))
        assert np.abs(fid).max() == 0.0

    def test_first_sample_is_amplitude_sum(self):
        fid = synthesize_fid(THIRD)
        assert fid[0] == pytest.approx(1.0, abs=1e-12)
        fid = synthesize_fid(amplitudes(PUBLISHED))
        assert fid[0] == pytest.approx(0.9, abs=1e-12)

    def test_single_tone_envelope(self):
        fp = FidParams()
        fid = synthesize_fid(SpectralAmplitudes(0.0, 0.25, 0.0), fp)
        taus = np.arange(fp.n_samples) * fp.dt
        assert np.abs(np.abs(fid) - 0.25 * np.exp(-taus / fp.t2star)).max() < 1e-12

    def test_length(self):
        assert synthesize_fid(THIRD).shape == (2048,)


class TestNonFiniteReadout:
    def test_amplitudes_must_be_finite(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="a_minus1 must be finite") as exc:
                synthesize_fid(SpectralAmplitudes(bad, 0.3, 0.5))
            assert "\n" not in str(exc.value)
            with pytest.raises(ValueError, match="a_zero must be finite"):
                SpectralAmplitudes(0.07, 0.3, bad)

    def test_amplitudes_past_the_range_are_kept(self):
        # Exact extraction can round just past [-1, 1]; only finiteness is checked.
        amps = SpectralAmplitudes(1.0 + 1e-15, -1.0 - 1e-15, 0.5)
        assert amps.as_array()[0] > 1.0

    def test_fid_must_be_finite(self):
        with pytest.raises(ValueError, match="FID must be finite") as exc:
            spectrum(np.full(2048, np.nan))
        assert "\n" not in str(exc.value)
        fid = synthesize_fid(THIRD)
        fid[7] = complex(0.0, float("inf"))
        with pytest.raises(ValueError, match="FID must be finite"):
            spectrum(fid)


class TestSpectrum:
    def test_zero_in_zero_out(self):
        fid = np.zeros(2048, dtype=complex)
        spec = spectrum(fid)
        assert np.abs(spec.values).max() == 0.0

    def test_grid(self):
        spec = spectrum(synthesize_fid(THIRD))
        df = np.diff(spec.freqs_mhz)
        assert spec.freqs_mhz.shape == (8192,)
        assert np.abs(df - df[0]).max() < 1e-12
        assert df[0] == pytest.approx(1.0 / (8192 * 0.02), abs=1e-15)

    def test_parseval(self):
        # unnormalized forward transform: sum |s|^2 == mean |S|^2
        fid = synthesize_fid(amplitudes(PUBLISHED))
        spec = spectrum(fid)
        time_power = float(np.sum(np.abs(fid) ** 2))
        freq_power = float(np.mean(np.abs(spec.values) ** 2))
        assert freq_power == pytest.approx(time_power, rel=1e-12)

    def test_three_lines_resolved(self):
        fp = FidParams()
        spec = spectrum(synthesize_fid(THIRD, fp), fp)
        mag = spec.magnitude()
        top = mag.max()
        peaks = [i for i in range(1, len(mag) - 1)
                 if mag[i] > 0.1 * top and mag[i - 1] < mag[i] > mag[i + 1]]
        assert len(peaks) == 3
        bin_width = spec.freqs_mhz[1] - spec.freqs_mhz[0]
        found = sorted(spec.freqs_mhz[i] for i in peaks)
        for freq, line in zip(found, (1.84, 4.0, 6.16)):
            assert abs(freq - line) < bin_width
        # neighboring-line leakage can push the two spacings up to about
        # 1.1 bins away from the nominal 2.16 MHz even for equal tones
        for spacing in np.diff(found):
            assert abs(spacing - 2.16) < 2 * bin_width


class TestExtraction:
    def test_requires_calibration(self):
        fp = FidParams()
        spec = spectrum(synthesize_fid(THIRD, fp), fp)
        with pytest.raises(ValueError, match="^calibration must be a Spectrum, got NoneType$"):
            extract_amplitudes(spec, fp, None)

    @pytest.mark.parametrize("split, bins", [(0.484375, [992, 0, 1008]),
                                             (-15.96875, [1023, 1, 512])],
                             ids=["past-the-last-bin", "on-the-last-bin"])
    def test_lines_at_the_top_of_the_grid_read_exactly(self, split, bins):
        # dt = 1/32 us: 1024 bins from -16 to 15.96875 MHz.  A line at 15.984375
        # MHz rounds to bin 1024, which wraps to bin 0 (-16 MHz, its alias); a
        # line at 15.96875 MHz sits on the last bin.
        detuning = 15.5 if split > 0 else 0.0
        fp = FidParams(detuning=detuning, hyperfine_split=split, dt=0.03125, n_samples=256)
        assert tomography._basis(fp).bins.tolist() == bins
        amps = SpectralAmplitudes(0.1, -0.2, 0.3)
        got = extract_amplitudes(spectrum(synthesize_fid(amps, fp), fp), fp,
                                 calibration_spectrum(fp))
        assert np.abs(got.as_array() - amps.as_array()).max() <= 1e-15

    def test_calibration_self_extraction_is_exact(self):
        fp = FidParams()
        cal = calibration_spectrum(fp)
        got = extract_amplitudes(cal, fp, cal).as_array()
        assert np.abs(got - 1 / 3).max() < 1e-12

    def test_pumped_state_round_trip_is_exact(self):
        direct, got = roundtrip(np.array([1, 1, 1, 0, 0, 0]) / 3.0)
        assert np.abs(got.as_array() - direct.as_array()).max() < 1e-12

    def test_published_state_round_trip(self):
        direct, got = roundtrip(PUBLISHED)
        err = np.abs(got.as_array() - direct.as_array())
        assert err.max() < 1e-12
        assert np.abs(got.as_array() - [0.07, 0.33, 0.5]).max() < 1e-12

    def test_empty_line_leakage_floor(self):
        # the Lorentzian tails at T2*=2 us put a few percent of the 1/3
        # line into the bins of its empty neighbors; unmixing removes
        # that leakage, so the empty lines read back as zero
        direct, got = roundtrip(np.array([0, 1, 1, 0, 0, 1]) / 3.0)
        assert direct.a_zero == 0.0
        assert got.a_minus1 == pytest.approx(0.0, abs=1e-12)
        assert got.a_zero == pytest.approx(0.0, abs=1e-12)
        assert got.a_zero < 0.02

    def test_round_trip_envelope_nonnegative_amplitudes(self):
        rng = np.random.default_rng(8)
        errs = []
        while len(errs) < 60:
            p = rng.dirichlet(np.ones(6))
            direct = amplitudes(p).as_array()
            if direct.min() < 0.0:
                continue
            _, got = roundtrip(p)
            errs.append(np.abs(got.as_array() - direct).max())
        errs = np.array(errs)
        assert errs.max() <= 1e-12
        assert errs.max() < 0.02
        assert errs.mean() < 0.006

    def test_negative_amplitude_protocol_state_round_trip(self):
        # a short seg1 pulse leaves m_S = -1 population that the seg2 swaps
        # turn into a negative line: the sign must survive the readout
        state, _ = run_segment(initial_state(), seg1(0.05))
        state, _ = run_segment(state, seg2(0.05))
        direct, got = roundtrip(state)
        assert direct.a_plus1 < -0.1
        assert np.abs(got.as_array() - direct.as_array()).max() <= 1e-12

    def test_lines_sharing_a_bin_are_refused(self):
        fp = FidParams(hyperfine_split=0.0)
        cal = calibration_spectrum(fp)
        for _ in range(3):
            with pytest.raises(ValueError, match="^two lines share a spectral bin") as info:
                extract_amplitudes(cal, fp, cal)
            assert "\n" not in str(info.value)

    def test_fid_of_other_length_is_refused(self):
        # a 256-sample FID on the default grid used to read back as
        # (0.185, 0.278, 0.370)
        fp = FidParams()
        fid = synthesize_fid(SpectralAmplitudes(0.2, 0.3, 0.4), FidParams(n_samples=256))
        spec = spectrum(fid, fp)
        assert spec.fid_length == 256
        with pytest.raises(ValueError, match="256 FID samples"):
            extract_amplitudes(spec, fp, calibration_spectrum(fp))

    def test_spectrum_off_the_grid_is_refused(self):
        fp, other = FidParams(), FidParams(n_samples=1024)
        short = spectrum(synthesize_fid(THIRD, other), other)
        with pytest.raises(ValueError):
            extract_amplitudes(short, fp, calibration_spectrum(fp))
        with pytest.raises(ValueError):
            extract_amplitudes(calibration_spectrum(fp), fp, short)

    @pytest.mark.parametrize("warp", ["shifted by 40 bins", "uniform up to bin 100"])
    def test_spectrum_near_the_grid_is_refused(self, warp):
        # Same length and first step as the grid: both used to be accepted,
        # and the shifted one read (0.0046, 0.044, 0.051) for (0.07, 0.33, 0.5).
        fp = FidParams()
        spec = spectrum(synthesize_fid(SpectralAmplitudes(0.07, 0.33, 0.5), fp), fp)
        cal = calibration_spectrum(fp)
        step = spec.freqs_mhz[1] - spec.freqs_mhz[0]
        if warp == "shifted by 40 bins":
            freqs = spec.freqs_mhz + 40 * step
        else:
            freqs = spec.freqs_mhz.copy()
            freqs[101:] += 0.5 * step
        grid = "is not on the grid of the FID parameters (8192 bins of 0.00610351562 MHz)"
        with pytest.raises(ValueError, match="^" + re.escape("spectrum " + grid) + "$"):
            extract_amplitudes(Spectrum(freqs, spec.values, spec.fid_length), fp, cal)
        with pytest.raises(ValueError,
                           match="^" + re.escape("calibration spectrum " + grid) + "$"):
            extract_amplitudes(spec, fp, Spectrum(freqs, cal.values, cal.fid_length))

    def test_equal_grid_that_is_not_the_cached_one_is_accepted(self):
        fp = FidParams()
        spec = spectrum(synthesize_fid(amplitudes(PUBLISHED), fp), fp)
        fresh = np.fft.fftshift(np.fft.fftfreq(fp.padded_length, fp.dt))
        assert fresh is not spec.freqs_mhz
        got = extract_amplitudes(Spectrum(fresh, spec.values, spec.fid_length), fp,
                                 calibration_spectrum(fp))
        assert got == extract_amplitudes(spec, fp, calibration_spectrum(fp))


def formula_fid(amps, fp):
    """The FID with every exponential computed in place, line by line."""
    tau = np.arange(fp.n_samples) * fp.dt
    series = np.zeros(fp.n_samples, dtype=complex)
    for a, mi in zip(amps.as_array(), (-1, +1, 0)):
        series += a * np.exp(2j * np.pi * fp.line_frequency(mi) * tau)
    return series * np.exp(-tau / fp.t2star)


def formula_spectrum(fid, fp):
    """Values and grid from an explicit zero pad and fftshift: numpy's padded FFT."""
    padded = np.zeros(fp.padded_length, dtype=complex)
    padded[: len(fid)] = fid
    return (np.fft.fftshift(np.fft.fft(padded)),
            np.fft.fftshift(np.fft.fftfreq(fp.padded_length, fp.dt)))


def formula_amplitudes(spec, fp):
    """The 3x3 unmixing solved in place, from spec's own grid and unit-line spectra."""
    freqs = spec.freqs_mhz
    lines = np.array([fp.line_frequency(mi) for mi in (-1, +1, 0)])
    bins = np.rint((lines - freqs[0]) / (freqs[1] - freqs[0])).astype(int)
    units = (SpectralAmplitudes(*unit) for unit in np.eye(3))
    cols = np.array([formula_spectrum(formula_fid(u, fp), fp)[0][bins] for u in units])
    adjugate = np.cross(cols[[1, 2, 0]], cols[[2, 0, 1]])
    amps = (adjugate * spec.values[bins]).sum(axis=1) / (adjugate[0] * cols[0]).sum()
    return amps.real


def closed_form_templates(fp, bins):
    """T[b, m], the DFT at bin b of a unit line m, as a geometric sum.

    sum_k z^k = (1 - z^N)/(1 - z) with z = exp(dt (2 pi i (f_m - f_b) -
    1/t2star)); expm1 keeps numerator and denominator accurate when z is
    close to 1.
    """
    freqs = formula_spectrum(np.zeros(1), fp)[1]
    lines = np.array([fp.line_frequency(mi) for mi in (-1, +1, 0)])
    w = fp.dt * (2j * np.pi * (lines[np.newaxis, :] - freqs[bins][:, np.newaxis])
                 - 1.0 / fp.t2star)
    return np.expm1(fp.n_samples * w) / np.expm1(w)


def bit_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: spectrum prunes the padded FFT, so it rounds differently from numpy's
#: padded FFT: their gap is bounded by SPECTRUM_TOL * max|value|, and the
#: amplitudes extracted from either by AMPLITUDE_TOL.  A prime n_samples runs
#: both through Bluestein's algorithm; the widest gap measured, 1.9e-15, is
#: at n = 257 with a single sample.
SPECTRUM_TOL = 2e-15
AMPLITUDE_TOL = 1e-14


def spectrum_close(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.abs(got - want).max() <= SPECTRUM_TOL * np.abs(want).max())


CACHE = tomography._basis
# 3000 samples: a padded length (12000) that is not a power of two.
OTHER = FidParams(detuning=-3.1, hyperfine_split=1.7, t2star=0.8, dt=0.05, n_samples=3000)
FORMULA_PARAMS = [FidParams(n_samples=n) for n in (256, 2048, 4096, 16384)] + [OTHER]


def fp_id(fp):
    return f"n{fp.n_samples}-dt{fp.dt}"


class TestCaches:
    def test_equal_params_share_the_calibration(self):
        cal = calibration_spectrum(FidParams())
        assert calibration_spectrum(FidParams()) is cal
        assert calibration_spectrum() is cal
        assert calibration_spectrum(fp=FidParams(n_samples=np.int64(2048))) is cal
        assert calibration_spectrum(OTHER) is not cal

    def test_cached_arrays_are_read_only(self):
        cal = calibration_spectrum(OTHER)
        spec = spectrum(synthesize_fid(THIRD, OTHER), OTHER)
        basis = tomography._basis(OTHER)
        for array in (cal.values, cal.freqs_mhz, spec.freqs_mhz, basis.bins, basis.adjugate):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert spectrum_close(cal.values, formula_spectrum(formula_fid(THIRD, OTHER), OTHER)[0])

    def test_results_are_fresh_and_writeable(self):
        fp = FidParams(n_samples=256)
        fid = synthesize_fid(THIRD, fp)
        spec = spectrum(fid, fp)
        first = spec.values.copy()
        assert fid.flags.writeable and spec.values.flags.writeable
        fid[:] = 7.0
        spec.values[:] = 7.0
        assert bit_equal(synthesize_fid(THIRD, fp), formula_fid(THIRD, fp))
        again = spectrum(synthesize_fid(THIRD, fp), fp)
        assert again.values is not spec.values
        # the transform runs in this thread's work buffer; its results are gathered out of it
        work = tomography._work.buffer
        for values in (spec.values, again.values):
            assert not np.shares_memory(values, work)
        assert not np.shares_memory(spec.values, again.values)
        assert bit_equal(again.values, first)
        assert spectrum_close(again.values, formula_spectrum(formula_fid(THIRD, fp), fp)[0])

    def test_cache_is_bounded(self):
        assert 0 < CACHE.cache_info().maxsize <= 8
        for k in range(CACHE.cache_info().maxsize + 3):
            fp = FidParams(detuning=1.0 + 0.25 * k, n_samples=256)
            extract_amplitudes(calibration_spectrum(fp), fp, calibration_spectrum(fp))
            info = CACHE.cache_info()
            assert info.currsize <= info.maxsize

    def test_round_trip_fills_the_cache_once(self):
        # _basis serves synthesis, transform, calibration, the grid check and the unmixing
        CACHE.cache_clear()
        fp = FidParams(detuning=2.5, n_samples=512)
        for _ in range(2):
            roundtrip(PUBLISHED, fp)
            assert CACHE.cache_info().misses == 1

    @pytest.mark.parametrize("fp", [
        FidParams(hyperfine_split=0.0, n_samples=512),
        # lines at -15.99 and 15.99 MHz, one 32 MHz sampling rate apart but for
        # 0.02 MHz, both wrap to bin 0
        FidParams(detuning=0.0, hyperfine_split=15.99, dt=0.03125, n_samples=256),
        # the m_I = +1 and 0 lines 0.02 bins apart in bin 4196, the -1 line in bin 4197
        FidParams(detuning=100.49 / 163.84, hyperfine_split=-0.02 / 163.84),
    ], ids=["shared-bin", "one-sampling-rate-apart", "two-of-three"])
    def test_unreadable_params_are_refused_from_one_basis(self, fp, monkeypatch):
        # such params still synthesize, transform and calibrate; each extraction
        # is refused from the cached determinant, with no transform run
        CACHE.cache_clear()
        cal = calibration_spectrum(fp)
        spec = spectrum(synthesize_fid(THIRD, fp), fp)
        transforms = []
        transform = tomography._transform

        def counted(fid, phasor):
            transforms.append(len(fid))
            return transform(fid, phasor)

        monkeypatch.setattr(tomography, "_transform", counted)
        for _ in range(3):
            with pytest.raises(ValueError, match="^" + re.escape(
                    "two lines share a spectral bin; their amplitudes cannot be separated "
                    "(hyperfine_split too small, or two lines one sampling rate apart)") + "$"):
                extract_amplitudes(spec, fp, cal)
        assert transforms == []
        assert tomography._basis(fp).det == 0
        info = CACHE.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    @pytest.mark.parametrize("fp", FORMULA_PARAMS, ids=fp_id)
    def test_within_bounds_of_the_formulas(self, fp):
        rng = np.random.default_rng(fp.n_samples)
        amps = SpectralAmplitudes(*rng.uniform(-1.0, 1.0, 3))
        fid = synthesize_fid(amps, fp)
        assert bit_equal(fid, formula_fid(amps, fp))
        for series in (fid, fid[: fp.n_samples // 3]):
            values, freqs = formula_spectrum(series, fp)
            spec = spectrum(series, fp)
            assert spectrum_close(spec.values, values)
            assert bit_equal(spec.freqs_mhz, freqs)
            assert spec.fid_length == len(series)
        values, freqs = formula_spectrum(formula_fid(THIRD, fp), fp)
        cal = calibration_spectrum(fp)
        assert spectrum_close(cal.values, values) and bit_equal(cal.freqs_mhz, freqs)

    @pytest.mark.parametrize("fp", FORMULA_PARAMS, ids=fp_id)
    def test_extraction_matches_the_solve_in_place(self, fp):
        rng = np.random.default_rng(fp.n_samples + 1)
        draws = rng.uniform(-1.0, 1.0, (20, 3))
        draws[0] = -np.abs(draws[0])
        cal = calibration_spectrum(fp)
        for amps in draws:
            spec = spectrum(synthesize_fid(SpectralAmplitudes(*amps), fp), fp)
            got = extract_amplitudes(spec, fp, cal).as_array()
            assert np.abs(got - formula_amplitudes(spec, fp)).max() <= AMPLITUDE_TOL

    @pytest.mark.parametrize("fp", FORMULA_PARAMS, ids=fp_id)
    def test_templates_match_the_closed_form_dft(self, fp):
        # The cache keeps the inverse of the templates as adjugate / det;
        # rebuilt from the closed-form DFT, both agree to 1e-13 relative.
        basis = tomography._basis(fp)
        cols = closed_form_templates(fp, basis.bins).T
        want = np.cross(cols[[1, 2, 0]], cols[[2, 0, 1]])
        want_det = (want[0] * cols[0]).sum()
        assert np.abs(basis.adjugate - want).max() <= 1e-13 * np.abs(want).max()
        assert abs(basis.det - want_det) <= 1e-13 * abs(want_det)


def counted_ffts(monkeypatch):
    """The length of each FFT that numpy.fft.fft runs from now on, along its axis."""
    sizes = []
    fft = np.fft.fft

    def counted(a, *args, axis=-1, **kwargs):
        sizes.append(np.shape(a)[axis])
        return fft(a, *args, axis=axis, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    return sizes


class TestPrunedTransform:
    """spectrum against numpy's padded, shifted FFT at every FID length it accepts."""

    @pytest.mark.parametrize("n", [257, 3000])
    @pytest.mark.parametrize("length", [lambda n: 1, lambda n: n // 3, lambda n: n],
                             ids=["1", "n//3", "n"])
    def test_lengths_match_the_padded_fft(self, n, length, monkeypatch):
        fp = FidParams(n_samples=n)
        size = length(n)
        fid = synthesize_fid(THIRD, fp)[:size]
        want = formula_spectrum(fid, fp)[0]
        # synthesize_fid filled the basis, so only spectrum's own transform is counted
        sizes = counted_ffts(monkeypatch)
        spec = spectrum(fid, fp)
        assert spec.fid_length == size
        assert spectrum_close(spec.values, want)
        # no padded transform: four n-point rows, run as one batch
        assert sizes == [n]

    @pytest.mark.parametrize("n", [257, 3000])
    @pytest.mark.parametrize("length", [lambda n: 0, lambda n: n + 1, lambda n: 2 * n + 7,
                                        lambda n: 4 * n], ids=["0", "n+1", "2n+7", "4n"])
    def test_other_lengths_are_refused_before_any_fft(self, n, length, monkeypatch):
        fp = FidParams(n_samples=n)
        sizes = counted_ffts(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(
                f"FID must be a 1-d series of 1 to {n} samples, got shape ({length(n)},)")):
            spectrum(np.ones(length(n), dtype=complex), fp)
        assert sizes == []


def in_new_thread(fn, *args):
    """fn(*args) run in a thread of its own, so with a work buffer of its own."""
    results = []
    thread = threading.Thread(target=lambda: results.append(fn(*args)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(results) == 1
    return results[0]


class TestWorkArrays:
    """Each thread transforms in one work buffer of its own, reused from call to call and
    grown to 4 n for the largest n it has transformed."""

    @staticmethod
    def buffers_after(*sample_counts):
        """This thread's work buffer after a transform at each sample count in turn."""
        buffers = []
        for n in sample_counts:
            fp = FidParams(n_samples=n)
            spectrum(synthesize_fid(THIRD, fp), fp)
            buffers.append(tomography._work.buffer)
        return buffers

    def test_one_buffer_grown_to_the_longest_transform(self):
        buffers = in_new_thread(self.buffers_after, 16384, 2048, 4096)
        assert all(buffer is buffers[0] for buffer in buffers)
        assert buffers[0].shape == (4 * 16384,) and buffers[0].dtype == complex

    def test_a_thread_holds_only_what_it_transforms(self):
        [buffer] = in_new_thread(self.buffers_after, 2048)
        assert buffer.shape == (4 * 2048,)

    def test_threads_match_serial_results(self):
        fp = FidParams(n_samples=2048)
        rng = np.random.default_rng(8)
        fids = [synthesize_fid(SpectralAmplitudes(*rng.uniform(-1.0, 1.0, 3)), fp)
                for _ in range(8)]
        want = [spectrum(fid, fp).values for fid in fids]
        start = threading.Barrier(len(fids), timeout=60)
        mismatches = [0] * len(fids)

        def worker(t):
            start.wait()
            for _ in range(200):
                mismatches[t] += not bit_equal(spectrum(fids[t], fp).values, want[t])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(fids))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == [0] * len(fids)

    def test_no_stale_rows(self):
        # A full FID fills all of row 0 and a short one its head alone: each call
        # must clear what an earlier call, at any sample count, left behind.
        fp, other = FidParams(n_samples=509), FidParams(n_samples=300)
        rng = np.random.default_rng(509)
        noise = rng.normal(size=509) + 1j * rng.normal(size=509)
        calls = [(noise, fp), (noise[:300], other), (noise[:509 // 3], fp),
                 (noise, fp), (noise[:7], other), (noise[:508], fp)]
        got = [spectrum(fid, params).values for fid, params in calls]
        for values, (fid, params) in zip(got, calls):
            assert bit_equal(values, in_new_thread(spectrum, fid, params).values)
