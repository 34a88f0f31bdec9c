import dataclasses
import itertools

import numpy as np
import pytest

from nvinit.optimizer import optimize_schedule
from nvinit.pulses import (MW_PAIRS, RF_PAIRS, Laser, MwPi, RfPi, apply_pulse,
                           initial_state, run_segment, run_sequence, seg1, seg2)
from nvinit.spinmodel import RateParams, propagate, propagate_numeric, steady_state

UNIFORM_MS0 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) / 3.0
MIRROR = [1, 0, 2, 4, 3, 5]


def test_pulse_pair_validation():
    with pytest.raises(ValueError, match="invalid transition pair"):
        MwPi(((0, 0), (-1, -1)))
    with pytest.raises(ValueError, match="invalid transition pair"):
        RfPi(((0, -1), (-1, -1)))
    # either orientation of a legal pair is accepted
    MwPi(((-1, -1), (0, -1)))
    RfPi(((-1, 0), (-1, +1)))


def test_swap_records_keep_their_dataclass_behaviour():
    mw, rf = MwPi(MW_PAIRS[0]), RfPi(RF_PAIRS[1], 0.5)
    assert repr(mw) == "MwPi(pair=((0, -1), (-1, -1)), swap_fidelity=1.0)"
    assert repr(rf) == "RfPi(pair=((-1, 1), (-1, 0)), swap_fidelity=0.5)"
    assert mw == MwPi(((0, -1), (-1, -1)), 1.0) and mw != MwPi(MW_PAIRS[0], 0.5)
    assert mw != rf and mw != (MW_PAIRS[0], 1.0)
    assert hash(mw) == hash((MW_PAIRS[0], 1.0)) and len({mw, MwPi(MW_PAIRS[0])}) == 1
    assert dataclasses.replace(rf, swap_fidelity=1.0) == RfPi(RF_PAIRS[1])
    assert type(dataclasses.replace(mw)) is MwPi
    assert [f.name for f in dataclasses.fields(rf)] == ["pair", "swap_fidelity"]
    with pytest.raises(ValueError, match="^invalid transition pair for MW pulse: "):
        dataclasses.replace(mw, pair=RF_PAIRS[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        rf.swap_fidelity = 1.0


def test_swap_levels_resolved_when_built():
    # numpy integers name the same levels; replace resolves the new pair again
    p = np.array([0.1, 0.2, 0.3, 0.15, 0.05, 0.2])
    levels = tuple(tuple(np.int64(q) for q in level) for level in MW_PAIRS[1])
    mw = MwPi(levels, 0.7)
    assert mw == MwPi(MW_PAIRS[1], 0.7) and hash(mw) == hash(MwPi(MW_PAIRS[1], 0.7))
    assert np.array_equal(apply_pulse(p, mw), apply_pulse(p, MwPi(MW_PAIRS[1], 0.7)))
    moved = dataclasses.replace(mw, pair=MW_PAIRS[0][::-1])
    assert np.array_equal(apply_pulse(p, moved), apply_pulse(p, MwPi(MW_PAIRS[0], 0.7)))
    assert not np.array_equal(apply_pulse(p, moved), apply_pulse(p, mw))


def reference_text(pulse) -> str:
    """The trace text run_segment used to format for each pulse it ran."""
    if isinstance(pulse, Laser):
        return f"laser {pulse.duration:g} us"
    kind = "MW" if isinstance(pulse, MwPi) else "RF"
    return f"{kind} pi {pulse.pair[0]}<->{pulse.pair[1]}"


TRACED_PULSES = ([cls(pair, 0.8) for cls, pairs in ((MwPi, MW_PAIRS), (RfPi, RF_PAIRS))
                  for pair in pairs + tuple(pair[::-1] for pair in pairs)]
                 + [Laser(0.5), Laser(1e-07), Laser(np.float64(0.46)), Laser(3)])


@pytest.mark.parametrize("pulse", TRACED_PULSES, ids=repr)
def test_trace_text_resolved_when_built(pulse):
    _, trace = run_sequence(UNIFORM_MS0, [pulse])
    assert trace[0].description == reference_text(pulse)


def test_trace_text_follows_replace_and_stays_out_of_the_fields():
    mw, laser = MwPi(MW_PAIRS[0]), Laser(0.5)
    for pulse, want in ((dataclasses.replace(mw, pair=MW_PAIRS[1][::-1]), "MW pi (-1, 1)<->(0, 1)"),
                        (dataclasses.replace(laser, duration=3), "laser 3 us"),
                        (dataclasses.replace(laser, duration=1e-07), "laser 1e-07 us")):
        assert run_sequence(UNIFORM_MS0, [pulse])[1][0].description == want
    assert [run_sequence(UNIFORM_MS0, [p])[1][0].description for p in (mw, laser)] == [
        "MW pi (0, -1)<->(-1, -1)", "laser 0.5 us"]
    assert repr(laser) == "Laser(duration=0.5)"
    assert [f.name for f in dataclasses.fields(laser)] == ["duration"]
    assert hash(laser) == hash((0.5,)) and hash(mw) == hash((MW_PAIRS[0], 1.0))
    for pulse in (mw, laser):               # the same fields, another text: still equal
        other = dataclasses.replace(pulse)
        object.__setattr__(other, "_text", "another text")
        assert other == pulse and hash(other) == hash(pulse) and repr(other) == repr(pulse)


def test_trace_records_and_final_state_are_distinct_arrays():
    # The zero-length laser and the zero-fidelity swap leave the values as they are.
    # Every public state return is a fresh, writeable float64 array of shape (6,),
    # made at the boundary from the core's six floats: the trace records and the
    # final state, propagate (at t = 0 too), propagate_numeric at t = 0, apply_pulse,
    # initial_state and each end state of a schedule.
    pulses = [MwPi(MW_PAIRS[0]), Laser(0.0), RfPi(RF_PAIRS[0], 0.0), Laser(0.5)]
    p = np.array([0.2, 0.2, 0.2, 0.2, 0.1, 0.1])
    final, trace = run_sequence(p, pulses)
    schedule = optimize_schedule(p, n_cycles=3)
    returns = [final, *(record.state for record in trace), propagate(p, 0.0), propagate(p, 0.5),
               propagate_numeric(p, 0.0), apply_pulse(p, MwPi(MW_PAIRS[1], 0.0)),
               apply_pulse(p, Laser(0.0)), apply_pulse(p, Laser(0.5)), initial_state(),
               *(row.end_state for row in schedule.cycles)]
    for state in returns:
        assert type(state) is np.ndarray and state.dtype == np.float64 and state.shape == (6,)
        assert state.flags.writeable and state.flags.owndata
    arrays = [p] + returns
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))
    assert np.array_equal(final, trace[-1].state)
    assert schedule.end_state is schedule.cycles[-1].end_state


@pytest.mark.parametrize("pulses", [(), (Laser(0.0),), seg1(0.5).pulses],
                         ids=["empty", "zero-laser", "seg1"])
def test_mutating_the_result_leaves_input_and_trace_alone(pulses):
    p = np.array([0.2, 0.2, 0.2, 0.2, 0.1, 0.1])
    before = p.copy()
    final, trace = run_sequence(p, pulses)
    states = [record.state.copy() for record in trace]
    assert final is not p
    final[:] = -1.0
    assert np.array_equal(p, before)
    assert all(np.array_equal(record.state, state) for record, state in zip(trace, states))


def test_pulse_parameter_validation():
    with pytest.raises(ValueError):
        MwPi(((0, -1), (-1, -1)), swap_fidelity=1.2)
    with pytest.raises(ValueError):
        RfPi(((-1, -1), (-1, 0)), swap_fidelity=-0.1)
    with pytest.raises(ValueError):
        Laser(-0.5)


def test_segment_builders():
    s1, s2 = seg1(0.5), seg2(0.46)
    assert s1.label == "seg1" and s2.label == "seg2"
    assert [type(p) for p in s1.pulses] == [MwPi, RfPi, Laser]
    assert s1.pulses[0].pair == ((0, -1), (-1, -1))
    assert s1.pulses[1].pair == ((-1, -1), (-1, 0))
    assert s2.pulses[0].pair == ((0, +1), (-1, +1))
    assert s2.pulses[1].pair == ((-1, +1), (-1, 0))
    assert s1.pulses[2].duration == 0.5
    assert s2.pulses[2].duration == 0.46


def test_mw_swap_moves_exactly_one_pair():
    out = apply_pulse(UNIFORM_MS0, MwPi(((0, -1), (-1, -1))))
    assert np.abs(out - np.array([0, 1, 1, 1, 0, 0]) / 3.0).max() < 1e-15


def test_swap_is_involution():
    rng = np.random.default_rng(0)
    for pulse in (MwPi(((0, -1), (-1, -1))), RfPi(((-1, +1), (-1, 0)))):
        p = rng.dirichlet(np.ones(6))
        back = apply_pulse(apply_pulse(p, pulse), pulse)
        assert np.abs(back - p).max() < 1e-15


def test_partial_fidelity_mixes_the_pair():
    p = np.array([0.5, 0.0, 0.2, 0.1, 0.0, 0.2])
    out = apply_pulse(p, MwPi(((0, -1), (-1, -1)), swap_fidelity=0.9))
    assert out[0] == pytest.approx(0.1 * 0.5 + 0.9 * 0.1, abs=1e-15)
    assert out[3] == pytest.approx(0.1 * 0.1 + 0.9 * 0.5, abs=1e-15)
    assert np.abs(out[[1, 2, 4, 5]] - p[[1, 2, 4, 5]]).max() == 0.0


def test_zero_fidelity_is_identity():
    p = np.array([0.5, 0.0, 0.2, 0.1, 0.0, 0.2])
    out = apply_pulse(p, RfPi(((-1, -1), (-1, 0)), swap_fidelity=0.0))
    assert np.abs(out - p).max() == 0.0


def test_laser_duration_must_be_finite():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="must be finite"):
            Laser(bad)


def test_laser_zero_is_identity():
    p = np.array([0.3, 0.2, 0.1, 0.1, 0.1, 0.2])
    assert np.abs(apply_pulse(p, Laser(0.0)) - p).max() == 0.0


def test_swaps_never_touch_target_population():
    rng = np.random.default_rng(1)
    swaps = list(seg1(0.0).pulses[:-1]) + list(seg2(0.0).pulses[:-1])
    for _ in range(100):
        p = rng.dirichlet(np.ones(6))
        for pulse in swaps:
            assert apply_pulse(p, pulse)[2] == p[2]


def test_run_segment_trace_and_endpoint():
    final, trace = run_segment(UNIFORM_MS0, seg1(0.5))
    assert len(trace) == 3
    assert [r.index for r in trace] == [0, 1, 2]
    assert "MW" in trace[0].description
    assert "RF" in trace[1].description
    assert "laser" in trace[2].description
    want = [0.077051022263, 0.320283318887, 0.550350240244,
            0.0, 0.0, 0.052315418607]
    assert np.abs(final - want).max() < 1e-9
    assert np.abs(trace[2].state - final).max() == 0.0
    # swaps-only intermediate
    assert np.abs(trace[1].state - np.array([0, 1, 1, 0, 0, 1]) / 3.0).max() < 1e-15


def test_run_segment_conserves_probability():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = rng.dirichlet(np.ones(6))
        t = float(rng.uniform(0.0, 2.0))
        _, trace = run_segment(p, seg2(t))
        for record in trace:
            assert abs(record.state.sum() - 1.0) < 1e-9


def test_seg2_endpoint_from_tabulated_state():
    start = np.array([0.07, 0.33, 0.55, 0.0, 0.0, 0.05])
    final, _ = run_segment(start, seg2(0.46))
    assert final[2] == pytest.approx(0.7059690847074123, abs=1e-9)


def test_seg1_zero_duration_is_pure_swaps():
    final, _ = run_segment(UNIFORM_MS0, seg1(0.0))
    assert np.abs(final - np.array([0, 1, 1, 0, 0, 1]) / 3.0).max() < 1e-15


def test_mirror_symmetry_between_segments():
    rng = np.random.default_rng(4)
    for _ in range(30):
        p = rng.dirichlet(np.ones(6))
        t = float(rng.uniform(0.0, 2.0))
        a, _ = run_segment(p, seg1(t))
        b, _ = run_segment(p[MIRROR], seg2(t))
        assert np.abs(a[MIRROR] - b).max() < 1e-12


def test_run_sequence_empty_echoes_input():
    p = np.array([0.2, 0.2, 0.2, 0.2, 0.1, 0.1])
    final, trace = run_sequence(p, ())
    assert trace == []
    assert np.abs(final - p).max() == 0.0


def test_run_sequence_trace_equals_chained_apply_pulse():
    rng = np.random.default_rng(21)
    for rates in (RateParams(), RateParams(k_s=0.75, k_i=0.25)):
        for _ in range(40):
            pulses = []
            for _ in range(int(rng.integers(1, 9))):
                kind = int(rng.integers(3))
                if kind == 0:
                    pulses.append(Laser(float(rng.uniform(0.0, 3.0))))
                else:
                    cls, pairs = (MwPi, MW_PAIRS) if kind == 1 else (RfPi, RF_PAIRS)
                    pulses.append(cls(pairs[int(rng.integers(2))],
                                      float(rng.uniform(0.5, 1.0))))
            p = rng.dirichlet(np.ones(6))
            final, trace = run_sequence(p, pulses, rates)
            state = p
            for pulse, record in zip(pulses, trace, strict=True):
                state = apply_pulse(state, pulse, rates)
                assert np.array_equal(record.state, state)
            assert np.array_equal(final, state)


def test_swap_leaves_tiny_negative_entries_alone():
    # validate_population accepts entries down to -1e-9; only a laser
    # clamps float dust, so a swap must neither clamp nor refuse them.
    p = np.array([0.5, 0.3, 0.2 + 5e-10, -5e-10, 0.0, 0.0])
    rf = RfPi(((-1, +1), (-1, 0)))
    assert apply_pulse(p, rf)[3] == -5e-10
    final, _ = run_sequence(p, [rf, MwPi(((0, +1), (-1, +1)), 0.9)])
    assert final[3] == -5e-10


def test_initial_state_reaches_pumped_mixture():
    state = initial_state()
    assert np.abs(state - steady_state()).max() < 1e-4
    assert np.abs(state - steady_state()).max() < 2e-9  # 5 us is deep in saturation


def test_initial_state_monotone_approach():
    devs = [np.abs(initial_state(init_laser=d) - steady_state()).max()
            for d in (0.05, 0.5, 5.0)]
    assert devs[0] > devs[1] > devs[2]
    assert initial_state(init_laser=40.0)[2] == pytest.approx(1 / 3, abs=1e-9)


def test_initial_state_requires_positive_duration():
    with pytest.raises(ValueError):
        initial_state(init_laser=0.0)


def test_initial_state_refuses_non_finite_duration():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="init_laser must be finite"):
            initial_state(init_laser=bad)


def test_initial_state_custom_rates():
    fast = RateParams(k_s=20.0, k_i=0.01)
    state = initial_state(fast, init_laser=5.0)
    # slow nuclear hopping: electron pumped but m_I stays nearly uniform
    assert state[:3].sum() > 0.999
    assert np.abs(state[:3] - 1 / 3).max() < 0.2
