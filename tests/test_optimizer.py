import importlib
import pkgutil

import numpy as np
import pytest

import nvinit
from nvinit import optimizer, spinmodel
from nvinit.optimizer import (A0, BLOCKED, INTERLEAVED, P00,
                              REFERENCE_CYCLE1_OVERRIDES, CycleOverrides,
                              objective_value, optimize_laser, optimize_schedule,
                              run_cycle)
from nvinit.pulses import (Laser, apply_pulse, initial_state, run_segment, run_sequence,
                           seg1, seg2)
from nvinit.spinmodel import RateParams, propagate, propagator, steady_state

PUBLISHED = np.array([0.07, 0.33, 0.55, 0.0, 0.0, 0.05])
SEG2_POST_SWAP = np.array([0.07, 0.0, 0.55, 0.0, 0.05, 0.33])
MIRROR = [1, 0, 2, 4, 3, 5]


class TestObjective:
    def test_values(self):
        assert objective_value(PUBLISHED, P00) == pytest.approx(0.55, abs=1e-12)
        assert objective_value(PUBLISHED, A0) == pytest.approx(0.50, abs=1e-12)
        assert objective_value(steady_state(), P00) == pytest.approx(1 / 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            objective_value(PUBLISHED, "fidelity")


class TestOptimizeLaser:
    def test_seg2_cycle1(self):
        t, v = optimize_laser(SEG2_POST_SWAP)
        assert 0.38 <= t <= 0.50
        assert v == pytest.approx(0.706, abs=0.004)
        assert t == pytest.approx(0.4267845561836888, abs=1e-9)
        assert v == pytest.approx(0.7064271583347368, abs=1e-12)

    def test_seg1_cycle2(self):
        raw = np.array([0.0, 0.10329, 0.70598, 0.060073, 0.009102, 0.12155])
        p = raw / raw.sum()
        t, v = optimize_laser(p)
        assert 0.12 <= t <= 0.19
        assert v == pytest.approx(0.717, abs=0.005)
        assert t == pytest.approx(0.14247869698777874, abs=1e-9)
        assert v == pytest.approx(0.7172339706303306, abs=1e-12)

    def test_already_pumped_states_pick_zero(self):
        t, v = optimize_laser(steady_state())
        assert t == 0.0
        assert v == pytest.approx(1 / 3, abs=1e-12)
        t, v = optimize_laser(np.array([0.0, 0, 1, 0, 0, 0]))
        assert (t, v) == (0.0, 1.0)

    def test_never_below_start(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            for obj in (P00, A0):
                _, v = optimize_laser(p, objective=obj)
                assert v >= objective_value(p, obj) - 1e-12

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            p = rng.dirichlet(np.ones(6))
            t_a, v_a = optimize_laser(p)
            t_b, v_b = optimize_laser(p[MIRROR])
            assert abs(t_a - t_b) < 1e-9
            assert abs(v_a - v_b) < 1e-12

    def test_t_max_validation(self):
        with pytest.raises(ValueError):
            optimize_laser(PUBLISHED, t_max=0.0)

    def test_deterministic(self):
        out1 = optimize_laser(SEG2_POST_SWAP)
        out2 = optimize_laser(SEG2_POST_SWAP)
        assert out1 == out2


class TestRunCycle:
    def test_reference_cycle1(self):
        result = run_cycle(initial_state(), overrides=REFERENCE_CYCLE1_OVERRIDES)
        assert result.t1 == 0.5 and result.t2 == 0.46
        assert result.purity_after_seg1 == pytest.approx(0.550, abs=0.002)
        assert result.purity_after_seg2 == pytest.approx(0.706, abs=0.004)
        assert result.purity_after_seg2 == pytest.approx(0.7059690847074123,
                                                        abs=1e-12)

    def test_duration_only_overrides_follow_the_model(self):
        # without the pinned hand-off state the first cycle ends lower
        result = run_cycle(initial_state(), overrides=CycleOverrides(0.5, 0.46))
        assert result.purity_after_seg2 == pytest.approx(0.6998865396766997,
                                                        abs=1e-12)

    def test_cycle2_optimized(self):
        first = run_cycle(initial_state(), overrides=REFERENCE_CYCLE1_OVERRIDES)
        second = run_cycle(first.end_state, cycle=2)
        assert 0.12 <= second.t1 <= 0.19
        assert 0.09 <= second.t2 <= 0.19
        assert second.purity_after_seg2 >= 0.725

    def test_never_degrades_a_pumped_state(self):
        result = run_cycle(steady_state())
        assert result.purity_after_seg1 >= 1 / 3 - 1e-12
        assert result.purity_after_seg2 >= 1 / 3 - 1e-12

    def test_override_validation(self):
        with pytest.raises(ValueError):
            CycleOverrides(t1=-0.1)
        with pytest.raises(ValueError):
            CycleOverrides(seg2_start=(0.5, 0.5, 0.5, 0, 0, 0))


class TestSchedules:
    def test_interleaved_reference_rows(self):
        s = optimize_schedule(initial_state(), n_cycles=3,
                              cycle1_overrides=REFERENCE_CYCLE1_OVERRIDES)
        assert s.strategy == INTERLEAVED
        assert [c.cycle for c in s.cycles] == [1, 2, 3]
        r1, r2, r3 = s.cycles
        assert (r1.t1, r1.t2) == (0.5, 0.46)
        assert r2.t1 == pytest.approx(0.1425170132019432, abs=1e-9)
        assert r2.purity_after_seg1 == pytest.approx(0.717226008257829, abs=1e-12)
        assert r2.t2 == pytest.approx(0.13234499412321357, abs=1e-9)
        assert r2.purity_after_seg2 == pytest.approx(0.7270267696808125, abs=1e-12)
        assert r3.t1 <= 0.05 and r3.t2 == 0.0
        assert s.final_purity == pytest.approx(0.7270315245614376, abs=1e-12)
        want_end = [0.0230836417, 0.0434038291, 0.7270315246,
                    0.0740830285, 0.0780884157, 0.0543095604]
        assert np.abs(s.end_state - want_end).max() < 1e-9

    def test_interleaved_model_chained_rows(self):
        s = optimize_schedule(initial_state(), n_cycles=3,
                              cycle1_overrides=CycleOverrides(0.5, 0.46))
        r1, r2, _ = s.cycles
        assert r1.purity_after_seg2 == pytest.approx(0.6998865396766997, abs=1e-12)
        assert r2.t1 == pytest.approx(0.1575799341349062, abs=1e-9)
        assert r2.t2 == pytest.approx(0.14249729645264592, abs=1e-9)
        assert r2.purity_after_seg2 == pytest.approx(0.7253403442007925, abs=1e-12)
        assert s.final_purity == pytest.approx(0.7255262844115328, abs=1e-12)

    def test_purity_non_decreasing_interleaved(self):
        s = optimize_schedule(initial_state(), n_cycles=5,
                              cycle1_overrides=REFERENCE_CYCLE1_OVERRIDES)
        purities = [c.purity_after_seg2 for c in s.cycles]
        assert all(b >= a - 1e-12 for a, b in zip(purities, purities[1:]))

    def test_single_cycle_matches_run_cycle(self):
        s = optimize_schedule(initial_state(), n_cycles=1,
                              cycle1_overrides=REFERENCE_CYCLE1_OVERRIDES)
        direct = run_cycle(initial_state(), overrides=REFERENCE_CYCLE1_OVERRIDES)
        assert s.final_purity == direct.purity_after_seg2
        assert np.array_equal(s.end_state, direct.end_state)

    def test_blocked_rows(self):
        s = optimize_schedule(initial_state(), n_cycles=3, strategy=BLOCKED,
                              cycle1_overrides=REFERENCE_CYCLE1_OVERRIDES)
        assert s.strategy == BLOCKED
        t1s = [c.t1 for c in s.cycles]
        p1s = [c.purity_after_seg1 for c in s.cycles]
        t2s = [c.t2 for c in s.cycles]
        p2s = [c.purity_after_seg2 for c in s.cycles]
        assert t1s == pytest.approx([0.5, 0.1609567582086976,
                                     0.047649105175433915], abs=1e-9)
        assert p1s == pytest.approx([0.5503502380389131, 0.5590362353806421,
                                     0.5596792527242477], abs=1e-12)
        assert t2s == pytest.approx([0.46, 0.08880721791766089, 0.0], abs=1e-9)
        assert p2s == pytest.approx([0.7043939933870942, 0.708328541133853,
                                     0.708328541133853], abs=1e-12)
        want_end = [0.1361279601064348, 0.0416578686663863, 0.708328541133853,
                    0.0046610195969375, 0.0704347924609172, 0.0387898180354713]
        assert np.abs(s.end_state - want_end).max() < 1e-9

    def test_blocked_never_beats_interleaved(self):
        start = initial_state()
        for overrides in (None, REFERENCE_CYCLE1_OVERRIDES):
            inter = optimize_schedule(start, n_cycles=3,
                                      cycle1_overrides=overrides)
            blocked = optimize_schedule(start, n_cycles=3, strategy=BLOCKED,
                                        cycle1_overrides=overrides)
            assert blocked.final_purity <= inter.final_purity + 1e-9

    def test_deterministic(self):
        a = optimize_schedule(initial_state(), n_cycles=2)
        b = optimize_schedule(initial_state(), n_cycles=2)
        assert a.final_purity == b.final_purity
        assert np.array_equal(a.end_state, b.end_state)
        for ra, rb in zip(a.cycles, b.cycles):
            assert (ra.t1, ra.t2) == (rb.t1, rb.t2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            optimize_schedule(initial_state(), n_cycles=0)
        with pytest.raises(ValueError):
            optimize_schedule(initial_state(), n_cycles=21)
        with pytest.raises(ValueError):
            optimize_schedule(initial_state(), strategy="round-robin")

    def test_a0_objective_runs(self):
        s = optimize_schedule(initial_state(), objective=A0, n_cycles=2,
                              cycle1_overrides=REFERENCE_CYCLE1_OVERRIDES)
        # A0-optimal durations differ from the P00 ones but stay sane
        assert 0.0 <= s.cycles[1].t1 <= 1.0
        assert s.final_purity > 0.70


class TestNonFiniteInput:
    def test_override_duration_must_be_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="t1 override must be finite"):
                CycleOverrides(t1=bad)

    def test_t_max_must_be_finite(self):
        with pytest.raises(ValueError, match="t_max must be finite"):
            optimize_laser(PUBLISHED, t_max=float("inf"))


class TestBoundaryChecks:
    """Every schedule rule is refused up front, even when no duration is optimized."""

    P0 = initial_state()

    @pytest.mark.parametrize("call, match", [
        (lambda p: optimize_schedule(p, n_cycles=1, t_max=float("nan"),
                                     cycle1_overrides=REFERENCE_CYCLE1_OVERRIDES),
         "t_max must be finite"),
        (lambda p: optimize_schedule(p, objective="bogus", n_cycles=1,
                                     cycle1_overrides=REFERENCE_CYCLE1_OVERRIDES),
         "unknown objective"),
        (lambda p: run_cycle(p, objective="bogus", overrides=CycleOverrides(0.5, 0.46)),
         "unknown objective"),
        (lambda p: optimize_schedule(p, n_cycles=True), "n_cycles must be an integer"),
        (lambda p: optimize_schedule(p, n_cycles=2.5), "n_cycles must be an integer"),
    ])
    def test_refused_with_one_line(self, call, match):
        with pytest.raises(ValueError, match=match) as exc:
            call(self.P0)
        assert "\n" not in str(exc.value)

    def test_zero_nuclear_rate_schedule_runs(self):
        # Without nuclear hopping the pumping is perfect and the purity can
        # round to 1 + 2e-16; the rows are results, not inputs to refuse.
        rates = RateParams(k_s=1.0, k_i=0.0)
        s = optimize_schedule(initial_state(rates), rates, n_cycles=2, t_max=50.0,
                              cycle1_overrides=CycleOverrides(0.3, None, PUBLISHED))
        assert s.final_purity == pytest.approx(1.0, abs=1e-12)


class TestFoldMatchesPublicPath:
    """Every row replays bit for bit through optimize_laser and run_segment."""

    @pytest.mark.parametrize("rates", [RateParams(), RateParams(k_s=0.75, k_i=0.25)])
    @pytest.mark.parametrize("strategy", [INTERLEAVED, BLOCKED])
    @pytest.mark.parametrize("overrides", [None, REFERENCE_CYCLE1_OVERRIDES])
    @pytest.mark.parametrize("objective", [P00, A0])
    @pytest.mark.parametrize("n_cycles", [1, 4])
    def test_rows_replay_through_run_segment(self, rates, strategy, overrides,
                                             objective, n_cycles):
        p0 = initial_state(rates)
        s = optimize_schedule(p0, rates, objective, n_cycles, strategy, overrides)
        ov = overrides or CycleOverrides()
        seg2_start = ov.seg2_start if strategy == INTERLEAVED else None
        firsts = [(seg1, ov.t1)] + [(seg1, None)] * (n_cycles - 1)
        seconds = [(seg2, ov.t2)] + [(seg2, None)] * (n_cycles - 1)
        order = (firsts + seconds if strategy == BLOCKED
                 else [p for pair in zip(firsts, seconds) for p in pair])
        after = {seg1: [], seg2: []}
        state = p0
        for builder, t in order:
            if builder is seg2 and not after[seg2] and seg2_start is not None:
                state = np.array(seg2_start)
            if t is None:
                swapped = run_sequence(state, builder(0.0).pulses[:-1], rates)[0]
                t = optimize_laser(swapped, rates, objective)[0]
            state = run_segment(state, builder(t), rates)[0]
            after[builder].append((t, state))
        rows = list(zip(s.cycles, after[seg1], after[seg2], strict=True))
        assert len(rows) == n_cycles
        for row, (t1, end1), (t2, end2) in rows:
            assert (row.t1, row.t2) == (t1, t2)
            assert row.purity_after_seg1 == end1[2]
            assert row.purity_after_seg2 == end2[2]
            assert np.array_equal(row.end_state, end2)


class TestOnePropagationPerPass:
    """The line search only chooses, on the state's four mode coefficients as
    floats; the fold and optimize_laser propagate once, projecting nothing."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, laser_step = [], optimizer._propagate

        def counted(vec, t, rates):
            calls.append(t)
            return laser_step(vec, t, rates)

        monkeypatch.setattr(optimizer, "_propagate", counted)
        return calls

    @pytest.fixture
    def projections(self, monkeypatch):
        # Any ufunc on _MODES, @ and np.matmul included, is a projection.
        # spinmodel is the one module that holds the modes, so patching it
        # there leaves no unpatched copy to project with.
        holders = [info.name for info in pkgutil.iter_modules(nvinit.__path__)
                   if hasattr(importlib.import_module(f"nvinit.{info.name}"), "_MODES")]
        assert holders == ["spinmodel"]
        made = []

        class Modes(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                made.append(ufunc.__name__)
                return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

        monkeypatch.setattr(spinmodel, "_MODES", spinmodel._MODES.view(Modes))
        return made

    @pytest.mark.parametrize("strategy", [INTERLEAVED, BLOCKED])
    @pytest.mark.parametrize("overrides", [None, REFERENCE_CYCLE1_OVERRIDES])
    @pytest.mark.parametrize("n_cycles", [1, 3])
    def test_schedule_propagates_each_pass_once(self, calls, strategy, overrides, n_cycles):
        s = optimize_schedule(initial_state(), n_cycles=n_cycles, strategy=strategy,
                              cycle1_overrides=overrides)
        assert len(calls) == 2 * n_cycles
        assert sorted(calls) == sorted(t for row in s.cycles for t in (row.t1, row.t2))

    def test_optimize_laser_propagates_once(self, calls):
        # an interior optimum: the root and t_max are both candidates
        t, _ = optimize_laser(SEG2_POST_SWAP)
        assert 0.0 < t < 10.0
        assert calls == [t]

    def test_the_counter_sees_a_projection(self, projections):
        p = SEG2_POST_SWAP
        spinmodel._MODES @ p
        np.matmul(spinmodel._MODES, p)
        assert projections == ["matmul", "matmul"]

    @pytest.mark.parametrize("strategy", [INTERLEAVED, BLOCKED])
    @pytest.mark.parametrize("overrides", [
        None, REFERENCE_CYCLE1_OVERRIDES, CycleOverrides(t1=0.0), CycleOverrides(t1=0.0, t2=0.0)])
    def test_schedule_never_projects(self, projections, strategy, overrides):
        # Searched passes score on spinmodel._mode_values; pinned passes, at
        # t = 0 or not, and every laser step run on floats too.
        s = optimize_schedule(initial_state(), n_cycles=4, strategy=strategy,
                              cycle1_overrides=overrides)
        assert len(projections) == 0
        durations = [t for row in s.cycles for t in (row.t1, row.t2)]
        assert 0.0 in durations and any(t > 0.0 for t in durations)

    def test_optimize_laser_never_projects(self, projections):
        for p in (SEG2_POST_SWAP, steady_state()):      # t* > 0, then t* = 0
            t, _ = optimize_laser(p)
            assert (t > 0.0) == (p is SEG2_POST_SWAP)
        assert len(projections) == 0

    def test_laser_step_never_projects(self, projections):
        p = SEG2_POST_SWAP
        for t in (0.0, 0.5):
            propagate(p, t)
            apply_pulse(p, Laser(t))
            run_sequence(p, [Laser(t)])
            assert len(projections) == 0


class TestValidatedDust:
    """validate_population accepts entries down to -1e-9, and so does every laser step."""

    @staticmethod
    def dusty(dust):
        # in |-1,-1>, which a short laser leaves negative
        return np.array([0.25, 0.25, 0.0, dust, 0.25, 0.25 - dust])

    @staticmethod
    def dusty_before_swaps(dust):
        # in |0,-1>, which the seg1 swaps move into m_s = -1
        return np.array([dust, 0.25, 0.25, 0.25, 0.25, -dust])

    @pytest.mark.parametrize("dust", [-5e-10, -1e-9])
    @pytest.mark.parametrize("t", [0.0, 1e-6])
    def test_laser_steps_clamp_it(self, dust, t):
        p = self.dusty(dust)
        want = np.where(p < 0.0, 0.0, p)
        for got in (propagate(p, t), apply_pulse(p, Laser(t)),
                    run_sequence(p, [Laser(t)])[0]):
            assert got.min() >= 0.0
            assert np.abs(got - want).max() <= 1e-5

    @pytest.mark.parametrize("dust", [-5e-10, -1e-9])
    @pytest.mark.parametrize("t_max, want", [(1e-10, 0.0), (1e-5, 1e-5)])
    def test_optimize_laser_accepts_it(self, dust, t_max, want):
        # t_max = 1e-10 ties with t = 0 within 1e-6; 1e-5 gains about 9e-6
        t, v = optimize_laser(self.dusty(dust), t_max=t_max)
        assert t == want
        assert v == propagate(self.dusty(dust), t)[2]

    @pytest.mark.parametrize("dust", [-5e-10, -1e-9])
    @pytest.mark.parametrize("t1", [None, 0.0, 1e-6])
    def test_optimize_schedule_accepts_it(self, dust, t1):
        s = optimize_schedule(self.dusty_before_swaps(dust), n_cycles=2,
                              cycle1_overrides=CycleOverrides(t1=t1))
        if t1 is not None:
            assert s.cycles[0].t1 == t1
        assert all(row.end_state.min() >= 0.0 for row in s.cycles)

    @pytest.mark.parametrize("dust", [-5e-10, -1e-9])
    @pytest.mark.parametrize("t2", [0.0, 1e-6])
    def test_seg2_start_accepts_it(self, dust, t2):
        overrides = CycleOverrides(t2=t2, seg2_start=self.dusty(dust))
        s = optimize_schedule(initial_state(), n_cycles=2, cycle1_overrides=overrides)
        assert s.cycles[0].t2 == t2
        assert all(row.end_state.min() >= 0.0 for row in s.cycles)

    @pytest.mark.parametrize("p", [(0.25, 0.25, 0.0, -1e-9, 0.25, 0.25 + 1e-9),
                                   (0.25, 0.25, 0.0, -8e-10, -8e-10, 0.5 + 1.6e-9)])
    def test_clamp_keeps_the_sum_so_calls_chain(self, p):
        # zeroing the dust alone gave sums of 1 + 1e-9 and 1 + 1.6e-9,
        # which objective_value then refused
        q = propagate(p, 0.0)
        assert q.min() >= 0.0 and abs(q.sum() - 1.0) <= 1e-15
        assert objective_value(q) == q[2]
        assert objective_value(apply_pulse(q, Laser(0.5))) > q[2]


class TestBatchedGrid:
    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objective"):
            optimize_laser(PUBLISHED, objective="fidelity")

    def test_exact_degeneracy(self):
        # 3 * 0.25 == 0.75 exactly: g = 0, so the stationary point is -K / D
        rates = RateParams(k_s=0.75, k_i=0.25)
        for obj in (P00, A0):
            for t_max in (0.1, 10.0, 50.0):
                t, v = optimize_laser(SEG2_POST_SWAP, rates, obj, t_max)
                assert 0.0 <= t <= t_max and np.isfinite(v)

    def test_value_is_the_objective_at_the_returned_duration(self):
        rng = np.random.default_rng(5)
        for obj in (P00, A0):
            for _ in range(10):
                p = rng.dirichlet(np.ones(6))
                t, v = optimize_laser(p, objective=obj)
                assert abs(v - objective_value(propagate(p, t), obj)) <= 1e-15


class TestLineSearchIsAMaximizer:
    """optimize_laser against a 10001-point dense grid on random cases.

    The state at grid point j = 100 a + b is U(100 a h) U(b h) p by the
    semigroup law, so 201 propagator calls stand in for 10001 propagate
    calls (spot-checked against propagate).  The grid misses the peak by
    O(h^2), so the optimizer may score above the grid maximum but never
    below it: by at most the tie rule's 1e-6 (+1e-12 rounding), and by at
    most 1e-12 wherever the tie rule did not move the choice.
    """

    READ = {P00: lambda s: s[:, 2], A0: lambda s: s[:, 2] - s[:, 5]}

    @staticmethod
    def _grid_states(p, rates, t_max):
        h = t_max / 10000
        fine = np.stack([propagator(b * h, rates) @ p for b in range(100)])
        coarse = np.stack([propagator(100 * a * h, rates) for a in range(101)])
        return (coarse @ fine.T).transpose(0, 2, 1).reshape(-1, 6)[:10001]

    def test_never_below_the_dense_grid(self, monkeypatch):
        rng = np.random.default_rng(2026)
        default = RateParams()
        for i in range(300):
            kind = i % 3
            if kind == 0:      # around the defaults
                rates = RateParams(default.k_s * rng.uniform(0.5, 2.0),
                                   default.k_i * rng.uniform(0.5, 2.0))
            elif kind == 1:    # exactly 3 k_i = k_s: g = 0
                k_i = rng.uniform(0.05, 2.0)
                rates = RateParams(3.0 * k_i, k_i)
                assert 3.0 * rates.k_i == rates.k_s
            else:              # no nuclear hopping: m = 0
                rates = RateParams(rng.uniform(0.5, 8.0), 0.0)
            objective = (P00, A0)[(i // 3) % 2]
            t_max = (0.1, 3.0, 10.0, 50.0)[(i // 6) % 4]
            # odd cases favour |0,0> and its feeder |-1,0>, where interior
            # optima live; every 25th case is the pumped state, where f is
            # constant and D = 0
            boost = 1 + 3 * (i % 2)
            alpha = rng.choice([0.3, 1.0, 4.0]) * np.array([1, 1, boost, 1, 1, boost])
            p = steady_state() if i % 25 == 0 else rng.dirichlet(alpha)
            states = self._grid_states(p, rates, t_max)
            for j in (1, 5000, 10000):
                assert np.abs(states[j] - propagate(p, j * t_max / 10000, rates)).max() \
                    <= 1e-14
            grid_max = float(self.READ[objective](states).max())

            t, v = optimize_laser(p, rates, objective, t_max)
            assert 0.0 <= t <= t_max
            assert v == objective_value(propagate(p, t, rates), objective)
            assert v >= grid_max - 1e-6 - 1e-12
            with monkeypatch.context() as m:
                m.setattr(optimizer, "_TIE_TOL", 0.0)
                t_strict, v_strict = optimize_laser(p, rates, objective, t_max)
            assert v_strict >= grid_max - 1e-12
            if t == t_strict:      # no candidate tied within 1e-6
                assert v >= grid_max - 1e-12


def test_a0_objective_prefers_longer_first_pulse():
    # from the post-swap seg1 state the A0 curve peaks later than P00
    start = np.array([0, 1, 1, 0, 0, 1]) / 3.0
    t_p00, _ = optimize_laser(start, objective=P00)
    t_a0, _ = optimize_laser(start, objective=A0)
    assert t_a0 > t_p00
    assert t_a0 == pytest.approx(0.78156, abs=5e-3)
