"""Model invariants as property tests: simplex, semigroup, mirror, involution
and linear unmixing; and the one scalar rule at every public scalar input."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nvinit.config import OptimizerSettings  # noqa: E402
from nvinit.hamiltonian import HamiltonianParams  # noqa: E402
from nvinit.optimizer import (CycleOverrides, optimize_laser,  # noqa: E402
                              optimize_schedule, run_cycle)
from nvinit.pulses import (MW_PAIRS, RF_PAIRS, Laser, MwPi, RfPi,  # noqa: E402
                           apply_pulse, initial_state)
from nvinit.spinmodel import (NUCLEAR_MIRROR, RateParams, propagate,  # noqa: E402
                              propagate_numeric, propagator, seg1_reference_solution,
                              seg2_reference_solution)
from nvinit.tomography import (FidParams, SpectralAmplitudes, Spectrum,  # noqa: E402
                               calibration_spectrum, extract_amplitudes, spectrum,
                               synthesize_fid)

settings.register_profile("derandomized", derandomize=True, deadline=None,
                          database=None)
DERANDOMIZED = settings(settings.get_profile("derandomized"))

durations = st.floats(0.0, 30.0)
k_s = st.floats(0.05, 20.0)


@st.composite
def rates(draw):
    """Rates anywhere, or within 1e-7 of the degeneracy 3 k_i = k_s."""
    s = draw(k_s)
    if draw(st.booleans()):
        return RateParams(k_s=s, k_i=draw(st.floats(0.0, 10.0)))
    return RateParams(k_s=s, k_i=(s + draw(st.floats(-1e-7, 1e-7))) / 3.0)


@st.composite
def populations(draw):
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6)))
    weights[draw(st.integers(0, 5))] += 1.0
    return weights / weights.sum()


@DERANDOMIZED
@given(populations(), durations, rates())
def test_simplex_is_preserved(p, t, r):
    q = propagate(p, t, r)
    assert q.min() >= -1e-9
    assert abs(q.sum() - 1.0) <= 1e-9


@DERANDOMIZED
@given(durations, durations, rates())
def test_semigroup(s, t, r):
    u = propagator(s + t, r)
    v = propagator(s, r) @ propagator(t, r)
    assert np.abs(u - v).max() <= 1e-12


@DERANDOMIZED
@given(durations, rates())
def test_nuclear_mirror_symmetry(t, r):
    u = propagator(t, r)
    assert np.array_equal(u[np.ix_(NUCLEAR_MIRROR, NUCLEAR_MIRROR)], u)


@DERANDOMIZED
@given(populations(), st.sampled_from([(MwPi, pair) for pair in MW_PAIRS]
                                      + [(RfPi, pair) for pair in RF_PAIRS]),
       st.booleans())
def test_swap_is_an_involution(p, kind_pair, reverse):
    cls, (a, b) = kind_pair
    pulse = cls((b, a) if reverse else (a, b))
    once = apply_pulse(p, pulse)
    assert np.array_equal(apply_pulse(once, pulse), p)


line_amplitudes = st.tuples(*[st.floats(-1.0, 1.0)] * 3)
weights = st.floats(-2.0, 2.0)
fid_params = st.sampled_from([
    FidParams(),
    FidParams(n_samples=256),
    FidParams(detuning=-3.1, hyperfine_split=1.7, t2star=0.8, dt=0.05, n_samples=1000),
])


@DERANDOMIZED
@given(fid_params, line_amplitudes, line_amplitudes, weights, weights)
def test_unmixing_is_linear(fp, a1, a2, alpha, beta):
    fid = (alpha * synthesize_fid(SpectralAmplitudes(*a1), fp)
           + beta * synthesize_fid(SpectralAmplitudes(*a2), fp))
    got = extract_amplitudes(spectrum(fid, fp), fp, calibration_spectrum(fp))
    want = alpha * np.array(a1) + beta * np.array(a2)
    assert np.abs(got.as_array() - want).max() <= 1e-12


P = (1 / 3, 1 / 3, 1 / 3, 0.0, 0.0, 0.0)
AMPS = {"a_minus1": 0.1, "a_plus1": 0.2, "a_zero": 0.3}

#: Every public scalar input: (entry point, its other arguments, the scalar's
#: keyword).  propagate_numeric gets t = 0, so a tiny step costs no integration.
SCALAR_INPUTS = (
    [(RateParams, {}, name) for name in ("k_s", "k_i")]
    + [(propagator, {}, "t"), (propagate, {"p": P}, "t"),
       (propagate_numeric, {"p": P, "t": 0.0}, "step"),
       (seg1_reference_solution, {}, "t"), (seg2_reference_solution, {}, "t")]
    + [(HamiltonianParams, {}, name) for name in
       ("d_zfs", "gamma_e", "gamma_n", "quadrupole", "hyperfine", "b_field")]
    + [(Laser, {}, "duration"), (MwPi, {"pair": MW_PAIRS[0]}, "swap_fidelity"),
       (initial_state, {}, "init_laser"),
       (optimize_laser, {"p_post_swaps": P}, "t_max"),
       (optimize_schedule, {"p0": P, "n_cycles": 1}, "t_max"),
       (optimize_schedule, {"p0": P}, "n_cycles"),
       (OptimizerSettings, {}, "t_max"), (OptimizerSettings, {}, "n_cycles"),
       (CycleOverrides, {}, "t1"), (CycleOverrides, {}, "t2"),
       (run_cycle, {"p": P}, "cycle")]
    + [(SpectralAmplitudes, AMPS, name) for name in AMPS]
    + [(FidParams, {}, name) for name in
       ("detuning", "hyperfine_split", "t2star", "dt", "n_samples")]
    + [(Spectrum, {"freqs_mhz": np.zeros(2), "values": np.zeros(2)}, "fid_length")])

# A 2-D array, whose repr spans lines, must still be refused on one line.
scalars = st.one_of(st.floats(), st.integers(), st.booleans(), st.text(), st.none(),
                    st.just(np.ones((3, 3))))


@pytest.mark.parametrize("entry, others, key", SCALAR_INPUTS,
                         ids=[f"{entry.__name__}.{key}" for entry, _, key in SCALAR_INPUTS])
@DERANDOMIZED
@given(scalars)
def test_scalar_is_accepted_or_refused_in_one_line(entry, others, key, x):
    try:
        entry(**{**others, key: x})
    except ValueError as exc:
        assert "\n" not in str(exc)
