import numpy as np
import pytest

from nvinit.pulses import initial_state, run_segment, seg1, seg2
from nvinit.tomography import (FidParams, SpectralAmplitudes, amplitudes,
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

    def test_nyquist_boundary(self):
        FidParams(detuning=22.0, dt=0.02, hyperfine_split=-2.16)  # 24.16 < 25
        with pytest.raises(ValueError):
            FidParams(detuning=23.0, dt=0.02, hyperfine_split=-2.16)


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
        with pytest.raises(ValueError):
            extract_amplitudes(spec, fp, None)

    def test_line_must_be_inside_grid(self):
        fp = FidParams()
        spec = spectrum(synthesize_fid(THIRD, fp), fp)
        narrow = FidParams(detuning=24.0, dt=0.01)
        with pytest.raises(ValueError):
            extract_amplitudes(spec, narrow, calibration_spectrum(fp))

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
        with pytest.raises(ValueError) as info:
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
        fp = FidParams()
        short = spectrum(synthesize_fid(THIRD, fp), FidParams(n_samples=1024))
        with pytest.raises(ValueError):
            extract_amplitudes(short, fp, calibration_spectrum(fp))
        with pytest.raises(ValueError):
            extract_amplitudes(calibration_spectrum(fp), fp, short)
