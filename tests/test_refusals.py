"""One-line messages of refusal branches that no other test reaches.

Each test drives one input past the checks before it and pins the full
message of the check it stops at.
"""

import re

import numpy as np
import pytest

from nvinit.cli import main
from nvinit.config import ConfigError, parse_config, parse_sequence
from nvinit.tomography import (FidParams, SpectralAmplitudes, Spectrum,
                               calibration_spectrum, extract_amplitudes, spectrum,
                               synthesize_fid)


def refused(exc_type, message):
    return pytest.raises(exc_type, match="^" + re.escape(message) + "$")


def test_cli_state_with_a_non_numeric_part(tmp_path, capsys):
    assert main(["spectrum", "--out", str(tmp_path),
                 "--state", "0.1,0.2,x,0,0,0.7"]) == 1
    assert capsys.readouterr().err == (
        "error: state must be six comma-separated numbers, got '0.1,0.2,x,0,0,0.7'\n")


@pytest.mark.parametrize("text, message", [
    ("optimizer: {objective: 3}\n", "optimizer.objective must be a string"),
    ("optimizer:\n  cycle1: {seg2_start: 0.5}\n",
     "optimizer.cycle1.seg2_start must be a list of 6 numbers"),
    ("rates: {k_i_per_us: -1}\n", "rates.k_i_per_us must be nonnegative, got -1"),
])
def test_config_value_refused(text, message):
    with refused(ConfigError, message):
        parse_config(text)


def test_pulse_pair_that_is_not_two_levels():
    with refused(ConfigError, "pulses[0].pair must be two (m_s, m_I) pairs"):
        parse_sequence("pulses:\n  - {kind: mw_pi, pair: [1, 2]}\n")


@pytest.mark.parametrize("fid", [np.zeros((2, 256)), np.zeros(1025)])
def test_spectrum_of_a_fid_of_the_wrong_shape(fid):
    with refused(ValueError, "FID must be a 1-d series no longer than the padded length"):
        spectrum(fid, FidParams(n_samples=256))


def test_spectrum_grid_and_values_of_different_length():
    with refused(ValueError, "frequency grid and values must have equal length"):
        Spectrum(freqs_mhz=np.zeros(3), values=np.zeros(4), fid_length=3)


def test_line_between_the_last_bin_and_nyquist():
    # dt = 1/32 us: Nyquist 16 MHz, last bin 16 - 1/32 MHz; the m_I = +1 line
    # sits at 15.984375 MHz, inside the Nyquist limit but past the last bin.
    fp = FidParams(detuning=15.5, hyperfine_split=0.484375, dt=0.03125, n_samples=256)
    spec = spectrum(synthesize_fid(SpectralAmplitudes(0.1, 0.1, 0.1), fp), fp)
    with refused(ValueError, "line frequency 15.984375 MHz is outside the spectral grid"):
        extract_amplitudes(spec, fp, calibration_spectrum(fp))


@pytest.mark.parametrize("key", ["k_s_per_us", "inv_k_s_us", "k_i_per_us", "inv_k_i_us"])
def test_non_finite_rate_names_its_key(key):
    # These used to raise a bare "rates must be finite", "k_s must be
    # positive, got 0.0", or (inv_k_i_us: .inf) to give k_i = 0.
    for value, shown in ((".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf")):
        with refused(ConfigError, f"rates.{key} must be finite, got {shown}"):
            parse_config(f"rates: {{{key}: {value}}}\n")


@pytest.mark.parametrize("kind, shown", [("[1]", "[1]"), ("{a: 1}", "{'a': 1}")])
def test_unhashable_pulse_kind(kind, shown):
    with refused(ConfigError, f"pulses[0].kind: unknown pulse kind {shown}"):
        parse_sequence(f"pulses:\n  - {{kind: {kind}}}\n")


def test_cli_unhashable_pulse_kind(tmp_path, capsys):
    seq = tmp_path / "seq.yaml"
    seq.write_text("pulses: [{kind: [1]}]\n")
    assert main(["simulate", "--out", str(tmp_path), str(seq)]) == 1
    assert capsys.readouterr().err == "error: pulses[0].kind: unknown pulse kind [1]\n"
