import numpy as np
import pytest

from nvinit.hamiltonian import (REFERENCE_TRANSITIONS, HamiltonianParams,
                                TransitionRef, energy, transition_frequency,
                                transition_table)


def test_params_validation():
    with pytest.raises(ValueError):
        HamiltonianParams(d_zfs=0.0)
    with pytest.raises(ValueError):
        HamiltonianParams(b_field=-0.1)


def test_params_must_be_finite():
    for kwargs in ({"b_field": float("nan")}, {"d_zfs": float("inf")},
                   {"hyperfine": float("nan")}):
        with pytest.raises(ValueError, match="must be finite"):
            HamiltonianParams(**kwargs)


def test_target_level_energy_is_zero():
    assert energy((0, 0)) == 0.0


def test_energy_spot_values():
    # direct substitution: 2870 - 170.8 + 4.5 - 0.01891 - 2.16
    assert energy((-1, -1)) == pytest.approx(2701.52109, abs=1e-9)
    assert energy((0, -1)) == pytest.approx(4.48109, abs=1e-9)
    assert energy((0, +1)) == pytest.approx(4.51891, abs=1e-9)


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        energy((1, 0))


def test_ms0_energies_free_of_electron_terms():
    # changing D or A must not move any m_S=0 level
    base = HamiltonianParams()
    moved = HamiltonianParams(d_zfs=3000.0, hyperfine=-4.0)
    for mi in (-1, 0, +1):
        assert energy((0, mi), base) == energy((0, mi), moved)


def test_energy_affine_in_field():
    fields = (0.0, 3.05, 6.1)
    for level in ((0, -1), (-1, +1), (-1, 0)):
        e = [energy(level, HamiltonianParams(b_field=b)) for b in fields]
        assert e[1] == pytest.approx((e[0] + e[2]) / 2, abs=1e-9)


def test_transition_frequency_symmetric():
    a, b = (0, -1), (-1, -1)
    assert transition_frequency(a, b) == transition_frequency(b, a)


def test_transition_frequency_needs_distinct_levels():
    with pytest.raises(ValueError):
        transition_frequency((0, 0), (0, 0))


def test_reference_transitions_metadata():
    kinds = [ref.kind for ref in REFERENCE_TRANSITIONS]
    assert kinds == ["MW", "MW", "RF", "RF"]
    rabi = [ref.rabi_freq for ref in REFERENCE_TRANSITIONS]
    assert rabi == [8.3, 8.3, 3.87e-3, 3.55e-3]


def test_transition_ref_pair_validation():
    with pytest.raises(ValueError):
        TransitionRef(((0, -1), (-1, 0)), 1.0, 1.0, "MW")
    with pytest.raises(ValueError):
        TransitionRef(((0, -1), (-1, -1)), 1.0, 1.0, "RF")
    with pytest.raises(ValueError):
        TransitionRef(((0, -1), (-1, -1)), 1.0, 1.0, "optical")


def test_table_computed_and_deviation_values():
    rows = transition_table()
    computed = [row[1] for row in rows]
    deviations = [row[2] for row in rows]
    assert computed == pytest.approx(
        [2697.04, 2701.36, 2.32109, 6.67891], abs=1e-9)
    assert deviations == pytest.approx(
        [1.04, 7.36, -0.47991, -0.41609], abs=1e-9)


def test_table_deviation_bounds():
    for ref, _, deviation in transition_table():
        bound = 8.0 if ref.kind == "MW" else 0.5
        assert abs(deviation) <= bound
        assert deviation != 0.0  # residuals are reported, never zeroed out


def test_mw_lines_split_by_twice_hyperfine():
    for b in (0.0, 6.1, 12.0):
        params = HamiltonianParams(b_field=b)
        f_m1 = transition_frequency((0, -1), (-1, -1), params)
        f_p1 = transition_frequency((0, +1), (-1, +1), params)
        assert abs(abs(f_m1 - f_p1) - 4.32) < 1e-9


def test_zero_field_mw_frequencies():
    params = HamiltonianParams(b_field=0.0)
    assert transition_frequency((0, -1), (-1, -1), params) == pytest.approx(
        2867.84, abs=1e-9)
    assert transition_frequency((0, +1), (-1, +1), params) == pytest.approx(
        2872.16, abs=1e-9)


def test_quadrupole_override_shrinks_rf_residuals():
    # the tabulated RF lines are reproduced far better with |Q| near 4.95
    params = HamiltonianParams(quadrupole=4.95)
    for ref, _, deviation in transition_table(params):
        if ref.kind == "RF":
            assert abs(deviation) < 0.05


def test_table_linear_in_params():
    rng = np.random.default_rng(2)
    for _ in range(10):
        params = HamiltonianParams(b_field=float(rng.uniform(0.0, 10.0)))
        for ref, computed, deviation in transition_table(params):
            assert deviation == computed - ref.reference_freq


def test_overflowing_energies_and_frequencies_are_refused():
    # gamma_e B overflows at 1e308 mT: inf * 0 gave NaN energies, frequencies and
    # deviations; every level and line must be finite, or refused in one line.
    with pytest.raises(ValueError, match=r"^energy of \(0, -1\) must be finite, got nan$"):
        transition_table(HamiltonianParams(b_field=1e308))
    with pytest.raises(ValueError, match=r"^energy of \(-1, 0\) must be finite, got inf$"):
        energy((-1, 0), HamiltonianParams(d_zfs=1.7e308, gamma_e=1.7e308, b_field=1.0))
    # two finite energies of opposite sign whose difference overflows
    params = HamiltonianParams(gamma_n=-1.7e308, b_field=1.0)
    assert energy((0, -1), params) == -energy((0, +1), params) + 2 * params.quadrupole
    with pytest.raises(ValueError, match=r"^transition frequency \(0, -1\)<->\(0, 1\) "
                                         r"must be finite, got inf$"):
        transition_frequency((0, -1), (0, +1), params)
