import math

import numpy as np
import pytest

from nvinit.pulses import Laser, apply_pulse, run_sequence
from nvinit.spinmodel import (_MODES, NUCLEAR_MIRROR, RateParams, _clamp_dust, _mode_values,
                              _mode_weights, _stationary_time, propagate, propagate_numeric,
                              propagator,
                              rate_matrix, seg1_reference_solution, seg2_reference_solution,
                              steady_state, validate_population)

STEADY = np.array([1 / 3, 1 / 3, 1 / 3, 0.0, 0.0, 0.0])
SEG1_START = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0]) / 3.0
SEG2_START = np.array([0.07, 0.0, 0.55, 0.0, 0.05, 0.33])


def random_simplex(rng):
    return rng.dirichlet(np.ones(6))


class TestRateParams:
    def test_defaults_are_inverse_lifetimes(self):
        r = RateParams()
        assert r.k_s == pytest.approx(1 / 0.27, rel=0, abs=1e-15)
        assert r.k_i == pytest.approx(1 / 4.76, rel=0, abs=1e-15)

    def test_invalid(self):
        with pytest.raises(ValueError):
            RateParams(k_s=0.0)
        with pytest.raises(ValueError):
            RateParams(k_s=-1.0)
        with pytest.raises(ValueError):
            RateParams(k_s=float("nan"))
        with pytest.raises(ValueError):
            RateParams(k_i=-0.1)

    def test_degenerate_flag(self):
        ki = 0.2
        assert RateParams(k_s=3 * ki, k_i=ki).degenerate
        assert RateParams(k_s=3 * ki + 1e-7, k_i=ki).degenerate
        assert not RateParams(k_s=3 * ki + 1e-3, k_i=ki).degenerate


class TestRateMatrix:
    def test_spot_values(self):
        m = rate_matrix()
        assert m[2][5] == pytest.approx(3.7037037037037033, abs=1e-12)
        assert m[0][0] == pytest.approx(-0.42016806722689076, abs=1e-12)

    def test_generator_structure(self):
        m = rate_matrix()
        assert np.abs(m.sum(axis=0)).max() == 0.0
        off = m - np.diag(np.diag(m))
        assert off.min() >= 0.0
        # electron decay feeds each m_S=-1 level into its m_S=0 partner
        assert np.allclose(m[:3, 3:], RateParams().k_s * np.eye(3))
        assert np.all(m[3:, :3] == 0.0)

    def test_eigenvalues(self):
        r = RateParams()
        eig = np.sort(np.linalg.eigvals(rate_matrix(r)).real)
        expected = np.sort([0.0, -3 * r.k_i, -3 * r.k_i, -r.k_s, -r.k_s, -r.k_s])
        assert np.abs(eig - expected).max() < 1e-9

    def test_no_nuclear_hopping(self):
        m = rate_matrix(RateParams(k_i=0.0))
        assert np.all(m[:3, :3] == 0.0)


class TestValidate:
    def test_accepts_tuple(self):
        v = validate_population((0.07, 0.33, 0.55, 0, 0, 0.05))
        assert v.shape == (6,)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            validate_population([0.5, 0.5])
        with pytest.raises(ValueError):
            validate_population([0.5, 0.6, 0, 0, 0, -0.1])
        with pytest.raises(ValueError):
            validate_population([0.3, 0.3, 0.3, 0, 0, 0])
        with pytest.raises(ValueError):
            validate_population([np.nan, 0.5, 0.5, 0, 0, 0])


def reference_validate(p) -> np.ndarray:
    """validate_population as numpy reductions: the rule its Python-float checks must keep."""
    arr = np.asarray(p)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"population vector must hold real numbers, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if arr.shape != (6,):
        raise ValueError(f"population vector must have 6 entries, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("population vector must be finite")
    if arr.min() < -1e-9 or arr.max() > 1.0 + 1e-9:
        raise ValueError(f"population entries must lie in [0, 1]: {arr.tolist()}")
    total = arr.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"population vector must sum to 1, got {float(total)!r}")
    return arr


def boundary_vectors(rng):
    """Seeded vectors within a few ulps of each bound, non-finite, int and float32 ones."""
    ulps = (1.0 + np.arange(-4, 5) * 2.0**-52)
    for _ in range(300):
        p = rng.dirichlet(np.ones(6))
        i, j = rng.choice(6, 2, replace=False)
        for scale in ulps:
            for sign in (1.0, -1.0):
                total = p.copy()                    # sum at 1 +- 1e-9
                total[i] += sign * 1e-9 * scale
                yield total
            low = p.copy()                          # an entry at -1e-9, the rest summing to 1
            low[i], low[j] = -1e-9 * scale, low[j] + low[i] + 1e-9 * scale
            yield low
            high = np.zeros(6)                      # an entry at 1 + 1e-9
            high[i], high[j] = 1.0 + 1e-9 * scale, -1e-9 * scale
            yield high
        bad = p.copy()
        bad[i] = rng.choice([np.nan, np.inf, -np.inf])
        yield bad
        yield p.astype(np.float32)
        yield p.tolist()
        yield np.eye(6, dtype=int)[i] * int(rng.choice([1, 2, -1]))
    yield [-0.0] * 6
    yield np.zeros(6, dtype=np.int64)


class TestValidateMatchesTheNumpyRule:
    def test_accepts_and_refuses_as_the_reduction(self):
        cases = refused = 0
        for p in boundary_vectors(np.random.default_rng(20)):
            cases += 1
            try:
                want = reference_validate(p)
            except ValueError as exc:
                refused += 1
                with pytest.raises(ValueError) as got:
                    validate_population(p)
                assert str(got.value) == str(exc)
            else:
                got = validate_population(p)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert cases > 8000 and 0.2 < refused / cases < 0.8


class TestPropagator:
    def test_zero_time_identity(self):
        assert np.array_equal(propagator(0.0), np.eye(6))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagator(-0.1)

    def test_long_time_columns_reach_steady(self):
        u = propagator(40.0)
        for col in range(6):
            assert np.abs(u[:, col] - STEADY).max() < 1e-6

    def test_semigroup(self):
        u = propagator(0.3 + 0.7)
        v = propagator(0.7) @ propagator(0.3)
        assert np.abs(u - v).max() < 1e-10

    def test_degenerate_rates_match_numeric(self):
        r = RateParams(k_s=0.6302521008403361, k_i=0.21008403361344538)
        assert r.degenerate
        p = np.array([0.1, 0.2, 0.1, 0.25, 0.15, 0.2])
        for t in (0.5, 2.0, 7.0):
            a = propagator(t, r) @ p
            b = propagate_numeric(p, t, r)
            assert np.abs(a - b).max() < 1e-8

    def test_rates_just_off_degeneracy_match_numeric(self):
        # 1.01e-6 off 3k_i = k_s, just outside RateParams.degenerate, phi_1
        # divides by g ~ 1e-6; the closed form must still agree with RK4
        ki = 0.21008403361344538
        outside = RateParams(k_s=3 * ki + 1.01e-6, k_i=ki)
        assert not outside.degenerate
        p = np.array([0.1, 0.2, 0.1, 0.25, 0.15, 0.2])
        for t in (0.5, 2.0, 7.0):
            a = propagator(t, outside) @ p
            b = propagate_numeric(p, t, outside)
            assert np.abs(a - b).max() < 1e-8


class TestSingleClosedForm:
    # 3 * 0.25 == 0.75 in floating point, so phi_1 takes its g = 0 branch
    EXACT = RateParams(k_s=0.75, k_i=0.25)

    def test_semigroup_at_exact_degeneracy(self):
        assert 3.0 * self.EXACT.k_i == self.EXACT.k_s
        for s, t in ((0.3, 0.7), (1.5, 4.0), (10.0, 20.0)):
            u = propagator(s + t, self.EXACT)
            v = propagator(s, self.EXACT) @ propagator(t, self.EXACT)
            assert np.abs(u - v).max() < 1e-14

    def test_long_durations_reach_steady_state(self):
        # e^{-k_s t} underflows long before e^{-3 k_i t}; the mixing term
        # must not turn into 0 * inf
        for t, rates in ((300.0, RateParams()), (1e4, self.EXACT)):
            u = propagator(t, rates)
            assert np.isfinite(u).all()
            for col in range(6):
                assert np.abs(u[:, col] - STEADY).max() < 1e-12

    def test_non_finite_duration_rejected(self):
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="must be finite"):
                propagate(SEG1_START, t)


class TestModes:
    # exp(M t) = _mode_weights(t) . _MODES, so the weights' slope at t = 0
    # applied to the modes is M, which rate_matrix writes out on its own.
    EDGES = (RateParams(), RateParams(k_s=0.75, k_i=0.25), RateParams(k_i=0.0))

    def rates(self):
        rng = np.random.default_rng(13)
        drawn = [RateParams(k_s=rng.uniform(0.5, 5.0), k_i=rng.uniform(0.0, 1.0))
                 for _ in range(200)]
        return drawn + list(self.EDGES)

    def test_generator_is_the_slope_of_the_weights_at_zero(self):
        assert 3.0 * self.EDGES[1].k_i == self.EDGES[1].k_s
        for rates in self.rates():
            ks, ki = rates.k_s, rates.k_i
            slope = np.array([0.0, -3.0 * ki, -ks, ks])
            # second-order one-sided difference: the weights hold for t >= 0
            h = 1e-6
            weights = [np.array(_mode_weights(t, rates)) for t in (0.0, h, 2.0 * h)]
            ahead = (4.0 * weights[1] - weights[2] - 3.0 * weights[0]) / (2.0 * h)
            assert np.abs(ahead - slope).max() <= 1e-9
            assert np.abs(slope @ _MODES.reshape(4, 36)
                          - rate_matrix(rates).ravel()).max() <= 1e-15

    def test_stationary_modes_sum_to_the_identity(self):
        p0, p3, ps, _ = _MODES
        assert np.array_equal(p0 + p3 + ps, np.eye(6))

    def test_zero_duration_is_exactly_the_identity(self):
        for rates in self.rates():
            assert np.array_equal(propagator(0.0, rates), np.eye(6))

    @pytest.mark.parametrize("rates", [RateParams(k_s=1e308, k_i=1e308),
                                       RateParams(k_s=1.0, k_i=1e308), RateParams(k_s=1e308)])
    def test_zero_duration_survives_overflowing_rates(self, rates):
        # 3 k_i (or k_s t) overflows to inf, and inf * 0 would make every weight NaN.
        assert _mode_weights(0.0, rates) == (1.0, 1.0, 1.0, 0.0)
        assert np.array_equal(propagator(0.0, rates), np.eye(6))
        assert np.isfinite(propagator(1.0, rates)).all()

    @pytest.mark.parametrize("rates", EDGES, ids=["default", "3ki=ks", "ki=0"])
    def test_zero_length_laser_returns_the_state(self, rates):
        # no product is formed at t = 0, so nothing is rounded
        rng = np.random.default_rng(17)
        for p in [SEG1_START, STEADY] + [random_simplex(rng) for _ in range(50)]:
            got = propagate(p, 0.0, rates)
            assert np.array_equal(got, p) and got is not p

    def test_table_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            _MODES[0, 0, 0] = 1.0


class TestStationaryTime:
    # f(t) = _mode_weights(t) @ modes is w . propagator(t) @ p for modes = _MODES @ p @ w.
    DEFAULT, NO_HOPPING = RateParams(), RateParams(k_i=0.0)
    DEGENERATE = RateParams(k_s=0.75, k_i=0.25)     # 3k_i = k_s

    def draws(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            w, p = rng.normal(size=6), random_simplex(rng)
            yield w, _MODES @ p @ w

    @pytest.mark.parametrize("rates", [DEFAULT, DEGENERATE], ids=["default", "3ki=ks"])
    def test_slope_vanishes_at_the_stationary_time(self, rates):
        assert 3.0 * self.DEGENERATE.k_i == self.DEGENERATE.k_s
        found = 0
        for w, modes in self.draws(8):
            t = _stationary_time(modes, rates)
            if t is None:
                continue
            found += 1
            assert t > 0.0
            h = 1e-5
            slope = (_mode_weights(t + h, rates) @ modes
                     - _mode_weights(t - h, rates) @ modes) / (2.0 * h)
            # at most 2e-11 here, while at t / 2 the slope is above 1e-3 of this scale
            assert abs(slope) <= 1e-9 * np.abs(w).max() * rates.k_s
        assert found >= 30

    @pytest.mark.parametrize("rates", [DEFAULT, NO_HOPPING], ids=["default", "ki=0"])
    def test_none_when_the_slope_keeps_its_sign(self, rates):
        # At k_i = 0, f is a constant plus one exponential, so every draw is None.
        grid = np.linspace(0.0, 20.0, 401)
        nones = 0
        for w, modes in self.draws(9):
            if _stationary_time(modes, rates) is not None:
                continue
            nones += 1
            f = np.array([_mode_weights(t, rates) @ modes for t in grid])
            steps = np.diff(f)[np.abs(np.diff(f)) > 1e-15]
            assert (steps > 0).all() or (steps < 0).all()
        assert nones == 100 if rates is self.NO_HOPPING else nones >= 30

    def test_none_for_a_pumped_state(self):
        # p00 of the steady state is constant: every mode but the first is 0 up to rounding.
        modes = _MODES @ STEADY @ np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        assert _stationary_time(modes, self.DEFAULT) is None


class TestPropagate:
    def test_seg1_laser_endpoint(self):
        got = propagate(SEG1_START, 0.5)
        want = [0.077051022263, 0.320283318887, 0.550350240244,
                0.0, 0.0, 0.052315418607]
        assert np.abs(got - want).max() < 1e-9

    def test_seg2_laser_endpoint(self):
        got = propagate(SEG2_START, 0.46)
        assert got[2] == pytest.approx(0.7059690847074123, abs=1e-9)
        want = [0.121564096862, 0.103303713893, 0.705969084707,
                0.0, 0.009100408492, 0.060062696046]
        assert np.abs(got - want).max() < 1e-9

    def test_zero_time(self):
        p = np.array([0.2, 0.1, 0.3, 0.15, 0.05, 0.2])
        assert np.abs(propagate(p, 0.0) - p).max() == 0.0

    def test_simplex_preserved(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            p = random_simplex(rng)
            t = rng.uniform(0.0, 10.0)
            q = propagate(p, t)
            assert q.min() >= 0.0
            assert abs(q.sum() - 1.0) < 1e-9

    def test_semigroup_on_states(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_simplex(rng)
            t1, t2 = rng.uniform(0.0, 3.0, size=2)
            a = propagate(propagate(p, t1), t2)
            b = propagate(p, t1 + t2)
            assert np.abs(a - b).max() < 1e-9

    def test_nuclear_label_symmetry(self):
        perm = [1, 0, 2, 4, 3, 5]
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_simplex(rng)
            t = rng.uniform(0.0, 5.0)
            assert np.abs(propagate(p[perm], t) - propagate(p, t)[perm]).max() < 1e-12


def dust_clamped(q):
    """q with its negative entries zeroed and their sum added to the largest entry."""
    q = q.copy()
    dust = q < 0.0
    if dust.any():
        q[q.argmax()] += q[dust].sum()
        q[dust] = 0.0
    return q


def test_float_clamp_matches_the_numpy_rule_bit_for_bit():
    # One to five dust entries in [-1e-9, 0), ties among them and the largest
    # entry included: a left-to-right sum from 0.0 is numpy's sum of the dust.
    # Entries of the dust's own size make the order of that sum show.
    rng = np.random.default_rng(31)
    for c in range(5000):
        q = rng.random(6) * (1e-9 if c % 2 else 1.0)
        dust = rng.choice(6, rng.integers(1, 6), replace=False)
        q[dust] = -1e-9 * rng.random(dust.size) ** rng.choice([1, 8])
        if c % 5 == 0:
            q[rng.integers(0, 6)] = q[rng.integers(0, 6)]
        if q.max() <= 0.0:
            continue
        got = _clamp_dust(q.tolist())
        assert type(got) is list and all(type(v) is float for v in got)
        assert np.array(got).tobytes() == dust_clamped(q).tobytes()


class TestFloatLaserStep:
    """propagate is the closed form of the four modes on six Python floats."""

    def cases(self, n=20000):
        # Five kinds of 4000: any rates, k_i = 0, 3 k_i = k_s exactly, t = 0,
        # t >= 100 us; every third state carries dust in [-1e-9, 0).
        rng = np.random.default_rng(20211)
        kind = np.arange(n) % 5
        ks, ki = rng.uniform(0.05, 20.0, n), rng.uniform(0.0, 10.0, n)
        ki[kind == 1] = 0.0
        ki[kind == 2] = rng.uniform(0.01, 7.0, (kind == 2).sum())
        ks[kind == 2] = 3.0 * ki[kind == 2]
        t = rng.uniform(0.0, 30.0, n)
        t[kind == 3] = 0.0
        t[kind == 4] = rng.uniform(100.0, 1e4, (kind == 4).sum())
        p = rng.random((n, 6))
        p[np.arange(n), rng.integers(0, 6, n)] += 1.0
        p /= p.sum(axis=1, keepdims=True)
        pairs = rng.permuted(np.tile(np.arange(6), (n, 1)), axis=1)[:, :2]
        dust = rng.uniform(1e-18, 1e-9, n)
        for c in range(0, n, 3):        # the sum is kept: the dust moves to another entry
            i, j = pairs[c]
            p[c, j] += p[c, i] + dust[c]
            p[c, i] = -dust[c]
        assert np.all(3.0 * ki[kind == 2] == ks[kind == 2])
        for c in range(n):
            yield p[c], float(t[c]), RateParams(k_s=float(ks[c]), k_i=float(ki[c]))

    def test_matches_the_propagator_keeps_the_sum_and_the_mirror(self):
        mirror = list(NUCLEAR_MIRROR)
        worst = worst_sum = 0.0
        for p, t, rates in self.cases():
            q = propagate(p, t, rates)
            worst = max(worst, np.abs(q - dust_clamped(propagator(t, rates) @ p)).max())
            worst_sum = max(worst_sum, abs(math.fsum(q.tolist()) - 1.0))
            assert q.min() >= 0.0
            assert np.array_equal(propagate(p[mirror], t, rates)[mirror], q)
        assert worst <= 1e-15
        assert worst_sum <= 1e-15


class TestDustFromAcceptedInput:
    """A laser step on a state that validate_population accepts is never refused."""

    # |-1,0>'s dust is pumped onto the dust already at |0,0>; with k_i = 0 no hop
    # refills that entry, so it lands near -2e-9, below the -1e-9 of one entry.
    STATE = [0.5 + 2e-9, 0.5, -1e-9, 0.0, 0.0, -1e-9]

    @pytest.mark.parametrize("step", [
        lambda p, rates: propagate(p, 1.0, rates),
        lambda p, rates: apply_pulse(p, Laser(1.0), rates),
        lambda p, rates: run_sequence(p, [Laser(1.0)], rates)[0],
    ], ids=["propagate", "apply_pulse", "run_sequence"])
    def test_pumped_dust_is_clamped(self, step):
        rates = RateParams(k_i=0.0)
        q = step(self.STATE, rates)
        assert q.tolist() == [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]
        assert np.array_equal(q, dust_clamped(propagator(1.0, rates) @ self.STATE))

    def test_the_refusal_bound_is_what_a_step_can_reach(self):
        # Accepted input keeps the sum of its negative entries at -4e-9 or above,
        # and the bound leaves a margin for rounding on top.
        q = [0.5 + 5e-9, 0.5, 0.0, 0.0, 0.0, -5e-9]
        assert _clamp_dust(q) == dust_clamped(np.array(q)).tolist()
        with pytest.raises(ValueError, match="negative population -5.1e-09"):
            _clamp_dust([0.5 + 5.1e-9, 0.5, 0.0, 0.0, 0.0, -5.1e-9])


class TestModeValues:
    """_mode_values is the projection _MODES @ p @ w, on six Python floats."""

    def test_matches_the_projection(self):
        # Each case of TestFloatLaserStep, as given (dusty every third) and after
        # its laser step (k_i = 0 and 3 k_i = k_s among the rates), against the
        # weights of both objectives and a random w in [-1, 1]^6 in turn.
        rng = np.random.default_rng(20212)
        objectives = [np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
                      np.array([0.0, 0.0, 1.0, 0.0, 0.0, -1.0])]
        worst, n = 0.0, 0
        for c, (p, t, rates) in enumerate(TestFloatLaserStep().cases()):
            w = objectives[c % 3] if c % 3 < 2 else rng.uniform(-1.0, 1.0, 6)
            for state in (p, propagate(p, t, rates)):
                got = np.array(_mode_values(w.tolist(), state.tolist()))
                worst = max(worst, np.abs(got - _MODES @ state @ w).max())
                n += 1
        assert n == 40000
        assert worst <= 1e-15


class TestPropagateNumeric:
    def test_matches_closed_form(self):
        for t in (0.1, 0.5, 1.0, 4.0):
            a = propagate(SEG1_START, t)
            b = propagate_numeric(SEG1_START, t)
            assert np.abs(a - b).max() < 1e-6

    def test_zero_time(self):
        assert np.abs(propagate_numeric(SEG1_START, 0.0) - SEG1_START).max() == 0.0

    def test_zero_time_clamps_dust_as_propagate(self):
        p = [0.5, 0.5 + 5e-10, 0.0, 0.0, 0.0, -5e-10]
        q = propagate_numeric(p, 0.0)
        assert q[5] == 0.0 and q.min() >= 0.0
        assert np.array_equal(q, propagate(p, 0.0))

    def test_step_validation(self):
        with pytest.raises(ValueError):
            propagate_numeric(SEG1_START, 1.0, step=0.0)
        with pytest.raises(ValueError):
            propagate_numeric(SEG1_START, 1.0, step=0.02)

    def test_non_finite_duration_rejected(self):
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="must be finite") as exc:
                propagate_numeric(SEG1_START, t)
            assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("rates", [
        RateParams(k_s=1e4, k_i=0.2), RateParams(k_s=3000.0, k_i=0.2),
        RateParams(k_s=1.0, k_i=1000.0), RateParams(k_i=1e308)])
    def test_refuses_a_step_beyond_the_stability_bound(self, rates):
        # h * max(k_s, 3 k_i) > 2.785 grew the m_s = -1 modes step after step: NaN
        # at k_s = 1e4, a negative population of -3e129 at k_s = 3000.
        with pytest.raises(ValueError, match=r"^step 0\.001 is beyond RK4's stability bound "
                           r"for these rates \(step \* max\(k_s, 3 k_i\) must be at most "
                           r"2\.785\)$"):
            propagate_numeric(SEG1_START, 1.0, rates)
        assert np.array_equal(propagate_numeric(SEG1_START, 0.0, rates), SEG1_START)

    def test_a_stiff_step_inside_the_bound_is_accepted(self):
        # h k_s = 2.5 at the default step: stable, and both forms reach the steady state.
        rates = RateParams(k_s=2500.0, k_i=0.2)
        assert np.abs(propagate_numeric(SEG1_START, 1.0, rates)
                      - propagate(SEG1_START, 1.0, rates)).max() < 1e-12
        at_the_bound = propagate_numeric(SEG1_START, 1.0, RateParams(k_s=2785.0, k_i=0.2))
        assert at_the_bound.min() >= 0.0 and abs(at_the_bound.sum() - 1.0) < 1e-12
        with pytest.raises(ValueError, match="stability bound"):
            propagate_numeric(SEG1_START, 1.0, RateParams(k_s=2786.0, k_i=0.2))

    def test_degenerate_rates_regular(self):
        ki = 0.2
        r = RateParams(k_s=3 * ki, k_i=ki)
        q = propagate_numeric(SEG1_START, 2.0, r)
        assert np.isfinite(q).all()
        assert q.min() >= 0.0
        assert abs(q.sum() - 1.0) < 1e-9

    def test_random_agreement_with_closed_form(self):
        rng = np.random.default_rng(11)
        for i in range(50):
            p = random_simplex(rng)
            t = rng.uniform(0.0, 8.0)
            if i % 3 == 0:
                ki = rng.uniform(0.1, 0.4)
                r = RateParams(k_s=3 * ki + rng.uniform(-5e-7, 5e-7), k_i=ki)
            else:
                r = RateParams()
            assert np.abs(propagate(p, t, r)
                          - propagate_numeric(p, t, r)).max() < 1e-6


class TestSteadyState:
    def test_value(self):
        assert np.abs(steady_state() - STEADY).max() < 1e-15

    def test_kernel(self):
        assert np.abs(rate_matrix() @ steady_state()).max() < 1e-12

    def test_long_time_limit(self):
        rng = np.random.default_rng(5)
        p = random_simplex(rng)
        assert np.abs(propagate(p, 40.0) - steady_state()).max() < 1e-6

    def test_requires_nuclear_hopping(self):
        with pytest.raises(ValueError):
            steady_state(RateParams(k_i=0.0))


class TestSeg1Reference:
    def test_start_has_swapped_components(self):
        # the tabulated expressions carry a transposition of the first
        # two components; at t=0 they give (1/3, 0, ...) not (0, 1/3, ...)
        got = seg1_reference_solution(0.0)
        assert np.abs(got - [1 / 3, 0, 1 / 3, 0, 0, 1 / 3]).max() < 1e-12

    def test_long_time(self):
        assert np.abs(seg1_reference_solution(100.0) - STEADY).max() < 1e-12

    def test_exchange_identity(self):
        for t in np.linspace(0.0, 5.0, 101):
            ref = seg1_reference_solution(t)[[1, 0, 2, 3, 4, 5]]
            assert np.abs(ref - propagate(SEG1_START, t)).max() < 1e-9

    def test_degenerate_rates_rejected(self):
        with pytest.raises(ValueError):
            seg1_reference_solution(1.0, RateParams(k_s=0.6, k_i=0.2))

    def test_non_finite_duration_rejected(self):
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="duration must be finite"):
                seg1_reference_solution(t)


class TestSeg2Reference:
    def test_non_finite_duration_rejected(self):
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="duration must be finite"):
                seg2_reference_solution(t)

    def test_component2_breaks_its_initial_condition(self):
        got = seg2_reference_solution(0.0)
        assert got[1] == pytest.approx(0.612126582278481, abs=1e-12)
        assert abs(got[1] - SEG2_START[1]) > 0.5

    def test_start_spot_values(self):
        got = seg2_reference_solution(0.0)
        assert got[0] == pytest.approx(0.08, abs=1e-12)
        assert got[2] == pytest.approx(0.5606835443037975, abs=1e-9)
        assert got[4] == pytest.approx(0.05, abs=1e-12)
        assert got[5] == pytest.approx(0.33, abs=1e-12)

    def test_component1_spot_value(self):
        assert seg2_reference_solution(0.46)[0] == pytest.approx(
            0.13072518502693742, abs=1e-9)

    def test_exponential_tail_components(self):
        r = RateParams()
        for t in (0.0, 0.46, 2.0):
            got = seg2_reference_solution(t)
            assert got[3] == 0.0
            assert got[4] == pytest.approx(0.05 * np.exp(-r.k_s * t), abs=1e-12)
            assert got[5] == pytest.approx(0.33 * np.exp(-r.k_s * t), abs=1e-12)

    def test_agreement_excluding_component2(self):
        keep = [0, 2, 3, 4, 5]
        worst = 0.0
        for t in np.linspace(0.0, 4.0, 201):
            dev = np.abs(seg2_reference_solution(t) - propagate(SEG2_START, t))
            worst = max(worst, dev[keep].max())
        assert worst < 0.015
        # frozen regression: the 2-decimal coefficients cost about 0.011
        assert worst == pytest.approx(0.0106835443, abs=2e-4)
