"""Model invariants as property tests: simplex, semigroup, mirror, involution."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nvinit.pulses import MW_PAIRS, RF_PAIRS, MwPi, RfPi, apply_pulse  # noqa: E402
from nvinit.spinmodel import NUCLEAR_MIRROR, RateParams, propagate, propagator  # noqa: E402

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
