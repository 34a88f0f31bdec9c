"""One-line messages of refusal branches that no other test reaches.

Each test drives one input past the checks before it and pins the full
message of the check it stops at.
"""

import re

import numpy as np
import pytest

from nvinit.cli import main
from nvinit.config import ConfigError, OptimizerSettings, parse_config, parse_sequence
from nvinit.hamiltonian import (HamiltonianParams, TransitionRef, energy, transition_frequency,
                                transition_table)
from nvinit.optimizer import CycleOverrides, optimize_laser, optimize_schedule, run_cycle
from nvinit.pulses import (MW_PAIRS, RF_PAIRS, Laser, MwPi, RfPi, Segment, apply_pulse,
                           initial_state, run_segment, run_sequence)
from nvinit.spinmodel import (RateParams, propagate, propagate_numeric, propagator,
                              rate_matrix, seg1_reference_solution, seg2_reference_solution,
                              steady_state, validate_population)
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
    ("rates: {k_i_per_us: -1}\n", "rates.k_i_per_us must be nonnegative, got -1.0"),
    # These used to raise a bare "k_s must be finite, got inf" naming no key.
    ("rates: {inv_k_s_us: 1.0e-320}\n", "1 / rates.inv_k_s_us must be finite, got inf"),
    ("rates: {inv_k_i_us: 1.0e-320}\n", "1 / rates.inv_k_i_us must be finite, got inf"),
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


AMPS = {"a_minus1": 0.1, "a_plus1": 0.2, "a_zero": 0.3}
REF = {"reference_freq": 1.0, "rabi_freq": 1.0, "kind": "MW"}


@pytest.mark.parametrize("record, kwargs, message", [
    # These used to raise a TypeError, "The truth value of an array with
    # more than one element is ambiguous", or a bare "rates must be finite".
    (RateParams, {"k_s": "3"}, "k_s must be a real number, got '3'"),
    (RateParams, {"k_s": np.array([3.0, 4.0])},
     "k_s must be a real number, got array([3., 4.])"),
    (RateParams, {"k_s": float("nan")}, "k_s must be finite, got nan"),
    (RateParams, {"k_i": float("inf")}, "k_i must be finite, got inf"),
    (HamiltonianParams, {"d_zfs": None}, "d_zfs must be a real number, got None"),
    (HamiltonianParams, {"b_field": np.array(6.1)},
     "b_field must be a real number, got array(6.1)"),
    (SpectralAmplitudes, {**AMPS, "a_plus1": 1j}, "a_plus1 must be a real number, got 1j"),
    (FidParams, {"dt": "0.02"}, "dt must be a real number, got '0.02'"),
])
def test_parameter_record_field_that_is_not_a_finite_real(record, kwargs, message):
    with refused(ValueError, message):
        record(**kwargs)


P = (1 / 3, 1 / 3, 1 / 3, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("entry, kwargs, message", [
    # One row per public scalar input, each checked by the one scalar rule.
    # The string, bool and array rows used to raise a TypeError, numpy's
    # "truth value is ambiguous", or nothing at all.
    (RateParams, {"k_s": True}, "k_s must be a real number, got True"),
    (RateParams, {"k_s": 0}, "k_s must be positive, got 0"),
    (propagator, {"t": "1"}, "duration must be a real number, got '1'"),
    (propagate, {"p": P, "t": "1"}, "duration must be a real number, got '1'"),
    (propagate_numeric, {"p": P, "t": -1}, "duration must be nonnegative, got -1"),
    (propagate_numeric, {"p": P, "t": 1.0, "step": 0.1},
     "step must be in (0, 0.01], got 0.1"),
    # This used to raise an OverflowError forming ceil(t / step).
    (propagate_numeric, {"p": P, "t": 0.01, "step": 5e-324},
     "step must be at least 1e-09 for duration 0.01 (at most 1e7 steps), got 5e-324"),
    (seg1_reference_solution, {"t": float("nan")}, "duration must be finite, got nan"),
    (seg2_reference_solution, {"t": -0.5}, "duration must be nonnegative, got -0.5"),
    (HamiltonianParams, {"d_zfs": 0.0}, "d_zfs must be positive, got 0.0"),
    (HamiltonianParams, {"hyperfine": True}, "hyperfine must be a real number, got True"),
    (HamiltonianParams, {"b_field": -1}, "b_field must be nonnegative, got -1"),
    (energy, {"level": [0, -1]}, "unknown level [0, -1]"),
    (Laser, {"duration": "1"}, "laser duration must be a real number, got '1'"),
    (Laser, {"duration": True}, "laser duration must be a real number, got True"),
    (MwPi, {"pair": MW_PAIRS[0], "swap_fidelity": "1"},
     "swap_fidelity must be a real number, got '1'"),
    (RfPi, {"pair": RF_PAIRS[0], "swap_fidelity": 1.5},
     "swap_fidelity must be in [0, 1], got 1.5"),
    (MwPi, {"pair": [[0, -1], [-1, -1]]},
     "invalid transition pair for MW pulse: [[0, -1], [-1, -1]]"),
    (initial_state, {"init_laser": "5"}, "init_laser must be a real number, got '5'"),
    (optimize_laser, {"p_post_swaps": P, "t_max": "3"},
     "t_max must be a real number, got '3'"),
    (optimize_schedule, {"p0": P, "t_max": 0}, "t_max must be positive, got 0"),
    (optimize_schedule, {"p0": P, "n_cycles": 21}, "n_cycles must be in [1, 20], got 21"),
    (OptimizerSettings, {"t_max": "3"}, "t_max must be a real number, got '3'"),
    (CycleOverrides, {"t1": "0.5"}, "t1 override must be a real number, got '0.5'"),
    (CycleOverrides, {"t2": np.array([1.0, 2.0])},
     "t2 override must be a real number, got array([1., 2.])"),
    (run_cycle, {"p": P, "cycle": "x"}, "cycle must be an integer, got 'x'"),
    (run_cycle, {"p": P, "cycle": 0}, "cycle must be at least 1, got 0"),
    (SpectralAmplitudes, {**AMPS, "a_zero": True}, "a_zero must be a real number, got True"),
    (FidParams, {"t2star": 0}, "t2star must be positive, got 0"),
    (FidParams, {"n_samples": 255}, "n_samples must be at least 256, got 255"),
    pytest.param(FidParams, {"n_samples": 10 ** 400},
                 f"n_samples must be finite, got {10 ** 400}", id="beyond-float-range"),
    (Spectrum, {"freqs_mhz": [1, 2], "values": [1, 2], "fid_length": 2},
     "freqs_mhz must be a numpy array, got list"),
    (Spectrum, {"freqs_mhz": np.zeros(2), "values": np.zeros(2), "fid_length": 2.0},
     "fid_length must be an integer, got 2.0"),
    (parse_config, {"text": "rates: {inv_k_i_us: 0}\n"},
     "rates.inv_k_i_us must be positive, got 0.0"),
    # A multi-line repr or str is shown on one line.  These used to span 2 to 3 lines.
    (RateParams, {"k_s": np.zeros((2, 2))},
     "k_s must be a real number, got array([[0., 0.], [0., 0.]])"),
    (Laser, {"duration": np.ones((3, 3))}, "laser duration must be a real number, "
     "got array([[1., 1., 1.], [1., 1., 1.], [1., 1., 1.]])"),
    (MwPi, {"pair": "a\nb"}, "invalid transition pair for MW pulse: 'a\\nb'"),
    (energy, {"level": "a\nb"}, "unknown level 'a\\nb'"),
    (transition_frequency, {"a": "a\nb", "b": "a\nb"}, "unknown level 'a\\nb'"),
    (TransitionRef, {"pair": np.array([[0, -1], [0, -1]]), **REF},
     "pair must be two known (m_s, m_I) levels, got array([[ 0, -1], [ 0, -1]])"),
    # A level or a pair that is not a tuple is refused before it is compared.  These
    # used to leak numpy's "truth value ... is ambiguous" or a TypeError, or were accepted.
    (energy, {"level": np.zeros(2)}, "unknown level array([0., 0.])"),
    (MwPi, {"pair": np.zeros((2, 2))},
     "invalid transition pair for MW pulse: array([[0., 0.], [0., 0.]])"),
    (transition_frequency, {"a": np.zeros(2), "b": np.ones(2)},
     "unknown level array([0., 0.])"),
    (transition_frequency, {"a": (0, 0), "b": (0, 0)},
     "transition needs two distinct levels, got (0, 0) twice"),
    (TransitionRef, {"pair": 5, **REF}, "pair must be two known (m_s, m_I) levels, got 5"),
    (TransitionRef, {"pair": ((0, 7), (-1, 7)), **REF},
     "pair must be two known (m_s, m_I) levels, got ((0, 7), (-1, 7))"),
    (OptimizerSettings, {"cycle1": 5},
     "cycle1_overrides must be a CycleOverrides or None, got int"),
    (propagate, {"p": (-0.123456789, 1e-12, 0.5, 0.3, 0.2, 0.123456789), "t": 0.0},
     "population entries must lie in [0, 1]: "
     "[-0.123456789, 1e-12, 0.5, 0.3, 0.2, 0.123456789]"),
    # Overrides are a CycleOverrides or None.  The int used to leak a TypeError, the
    # dict and the array were read as positional fields, and the tuple was accepted.
    *[(entry, {first: P, key: value},
       f"cycle1_overrides must be a CycleOverrides or None, got {shown}")
      for entry, first, key in ((optimize_schedule, "p0", "cycle1_overrides"),
                                (run_cycle, "p", "overrides"))
      for value, shown in ((5, "int"), ((0.5, 0.46), "tuple"), ({"t1": 0.5}, "dict"),
                           (np.zeros((2, 2)), "ndarray"))],
    # A record of the wrong type is refused where it enters.  These used to leak an
    # AttributeError ("'int' object has no attribute 'k_s'", "pair", ...).
    *[(entry, {**kwargs, "rates": RateParams}, "rates must be a RateParams, got type")
      for entry, kwargs in ((propagator, {"t": 1.0}), (propagate, {"p": P, "t": 1.0}),
                            (propagate_numeric, {"p": P, "t": 0.01}), (rate_matrix, {}),
                            (steady_state, {}), (seg1_reference_solution, {"t": 1.0}),
                            (seg2_reference_solution, {"t": 1.0}),
                            (apply_pulse, {"p": P, "pulse": Laser(1.0)}),
                            (run_segment, {"p": P, "segment": Segment("s")}),
                            (run_sequence, {"p": P, "pulses": []}), (initial_state, {}),
                            (optimize_laser, {"p_post_swaps": P}),
                            (optimize_schedule, {"p0": P}), (run_cycle, {"p": P}))],
    (propagate, {"p": P, "t": 1.0, "rates": 5}, "rates must be a RateParams, got int"),
    (optimize_laser, {"p_post_swaps": P, "rates": 5}, "rates must be a RateParams, got int"),
    (apply_pulse, {"p": P, "pulse": 5}, "pulse must be a MwPi or RfPi or Laser, got int"),
    (apply_pulse, {"p": P, "pulse": Laser(1.0), "rates": None},
     "rates must be a RateParams, got NoneType"),
    (run_sequence, {"p": P, "pulses": [Laser(1.0), 5]},
     "pulses[1] must be a MwPi or RfPi or Laser, got int"),
    (run_segment, {"p": P, "segment": 5}, "segment must be a Segment, got int"),
    (Segment, {"label": "s", "pulses": [Laser(1.0)]},
     "segment pulses must be a tuple, got list"),
    (spectrum, {"fid": np.zeros(256), "fp": 5}, "fp must be a FidParams, got int"),
    (synthesize_fid, {"amps": 5}, "amps must be a SpectralAmplitudes, got int"),
    (synthesize_fid, {"amps": SpectralAmplitudes(**AMPS), "fp": {}},
     "fp must be a FidParams, got dict"),
    (calibration_spectrum, {"fp": 5}, "fp must be a FidParams, got int"),
    (extract_amplitudes, {"spec": 5, "fp": FidParams(), "calibration": 5},
     "spec must be a Spectrum, got int"),
    (extract_amplitudes, {"spec": calibration_spectrum(), "fp": 5, "calibration": 5},
     "fp must be a FidParams, got int"),
    (extract_amplitudes, {"spec": calibration_spectrum(), "fp": FidParams(),
                          "calibration": np.zeros(3)},
     "calibration must be a Spectrum, got ndarray"),
    (transition_table, {"params": 5}, "params must be a HamiltonianParams, got int"),
    (energy, {"level": (0, -1), "params": 5}, "params must be a HamiltonianParams, got int"),
    # Each level is a tuple of two integers before it is compared.  The arrays used
    # to leak numpy's "truth value ... is ambiguous"; (0, True) read as (0, 1).
    (MwPi, {"pair": (np.zeros(2), np.zeros(2))},
     "invalid transition pair for MW pulse: (array([0., 0.]), array([0., 0.]))"),
    (RfPi, {"pair": ((-1, -1), (-1, np.zeros(2)))},
     "invalid transition pair for RF pulse: ((-1, -1), (-1, array([0., 0.])))"),
    (MwPi, {"pair": ((0, True), (-1, True))},
     "invalid transition pair for MW pulse: ((0, True), (-1, True))"),
    (energy, {"level": (np.zeros(2), 0)}, "unknown level (array([0., 0.]), 0)"),
    (energy, {"level": (0, True)}, "unknown level (0, True)"),
    (transition_frequency, {"a": (0, -1), "b": (np.zeros(2), 0)},
     "unknown level (array([0., 0.]), 0)"),
    (TransitionRef, {"pair": ((np.zeros(2), 0), (0, -1)), **REF},
     "pair must be two known (m_s, m_I) levels, got ((array([0., 0.]), 0), (0, -1))"),
])
def test_scalar_refused_in_one_line(entry, kwargs, message):
    with refused(ValueError, message):
        entry(**kwargs)


@pytest.mark.parametrize("entry, kwargs, message", [
    # Populations are ints or floats and FIDs also complex: other dtypes are refused,
    # not converted.  The complex population used to lose its imaginary part with
    # only a ComplexWarning, the bool and text arrays were converted, and the dict
    # and the list of complex numbers leaked a TypeError.  A list or tuple that
    # mixes bools with numbers was converted too, each bool to 1 or 0.
    (validate_population, {"p": np.array(P, dtype=complex)},
     "population vector must hold real numbers, got dtype complex128"),
    (validate_population, {"p": [False, False, True, False, False, False]},
     "population vector must hold real numbers, got dtype bool"),
    (validate_population, {"p": np.zeros(6, dtype=bool)},
     "population vector must hold real numbers, got dtype bool"),
    (validate_population, {"p": [True, False, 0, 0, 0, 0]},
     "population vector must hold real numbers, got True at index 0"),
    (validate_population, {"p": (0.5, 0.5, 0.0, 0.0, 0.0, np.False_)},
     f"population vector must hold real numbers, got {np.False_!r} at index 5"),
    (validate_population, {"p": [0.0, 0.0, np.True_, 0.0, 0.0, 0.0]},
     f"population vector must hold real numbers, got {np.True_!r} at index 2"),
    (validate_population, {"p": [0.0, 0.0, np.array(True), 0.0, 0.0, 0.0]},
     "population vector must hold real numbers, got array(True) at index 2"),
    (propagate, {"p": [0, 0, 1.0, 0, 0, False], "t": 1.0},
     "population vector must hold real numbers, got False at index 5"),
    (run_sequence, {"p": (0.0, 0.0, True, 0.0, 0.0, 0.0), "pulses": ()},
     "population vector must hold real numbers, got True at index 2"),
    (validate_population, {"p": ["0", "0", "1", "0", "0", "0"]},
     "population vector must hold real numbers, got dtype <U1"),
    (validate_population, {"p": {"p00": 1.0}},
     "population vector must hold real numbers, got dtype object"),
    (validate_population, {"p": [0j, 0j, 1 + 0j, 0j, 0j, 0j]},
     "population vector must hold real numbers, got dtype complex128"),
    (propagate, {"p": np.array(P, dtype=complex), "t": 1.0},
     "population vector must hold real numbers, got dtype complex128"),
    (optimize_schedule, {"p0": np.array(P, dtype=complex)},
     "population vector must hold real numbers, got dtype complex128"),
    (spectrum, {"fid": np.array(["1+2j"] * 256), "fp": FidParams(n_samples=256)},
     "FID must hold numbers, got dtype <U4"),
    (spectrum, {"fid": np.ones(256, dtype=bool), "fp": FidParams(n_samples=256)},
     "FID must hold numbers, got dtype bool"),
    # A Spectrum of text used to be built and leak numpy's UFuncTypeError at extraction.
    (Spectrum, {"freqs_mhz": np.zeros(2), "values": np.array(["1", "2"]), "fid_length": 2},
     "values must hold numbers, got dtype <U1"),
    # Names are str.  The objective used to pass the name check and leak a TypeError
    # (unhashable), and the strategy was accepted and returned in Schedule.strategy.
    (optimize_schedule, {"p0": P, "objective": np.array(["p00"])},
     "unknown objective array(['p00'], dtype='<U3')"),
    (optimize_schedule, {"p0": P, "strategy": np.array(["blocked"])},
     "unknown strategy array(['blocked'], dtype='<U7')"),
])
def test_array_of_the_wrong_kind_refused(entry, kwargs, message):
    with refused(ValueError, message):
        entry(**kwargs)
