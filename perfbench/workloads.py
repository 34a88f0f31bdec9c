"""The four seeded workloads: inputs, one round of operations, checks.

Constructing a workload is its set-up: it draws every input from the
seed (the readout panel excepted, see `Readout`) and writes the files
the CLI needs.  `ops(mode)` returns one round, a fixed list of
operations; a run repeats whole rounds.  Each operation calls the
package through module attributes (``nvinit.propagate``, never a name
bound here), so a tracer that rebinds those attributes sees every call.
`check` compares the outputs of the first round with the independent
reference in `reference.py`; run.py compares later rounds with the first.
"""

from __future__ import annotations

import csv
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

import nvinit
import reference as ref

DEFAULT_RATES = nvinit.RateParams()
DEFAULT_HAMILTONIAN = nvinit.HamiltonianParams()
TABULATED_SEG2_START = (0.07, 0.33, 0.55, 0.0, 0.0, 0.05)
READOUT_TOL = 0.01          # criterion 9's round-trip tolerance
SIMPLEX_TOL = 1e-9
STATE_TOL = 1e-10           # program vs reference propagation
CSV_TOL = 1e-8              # outputs printed with 9 significant digits
# The optimizer breaks ties within 1e-6 toward the shorter pulse, so a
# chosen duration may score up to 1e-6 below the dense-grid maximum.
OPT_TOL = 1e-6 + 1e-9
T_MAX = 10.0                # optimize_laser's default search interval
GRID = np.linspace(0.0, T_MAX, 10001)


@dataclass
class Op:
    kind: str
    fn: Callable[[], Any]
    units: int
    collect: Callable[[Any], Any] | None = None   # runs after the timer stops
    info: dict = field(default_factory=dict)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _around_default(rng, low=0.8, high=1.25) -> nvinit.RateParams:
    return nvinit.RateParams(DEFAULT_RATES.k_s * rng.uniform(low, high),
                             DEFAULT_RATES.k_i * rng.uniform(low, high))


def _simplex(rng) -> np.ndarray:
    p = rng.dirichlet(np.ones(6))
    return p / p.sum()


def _nonnegative_amplitude_state(rng) -> np.ndarray:
    """Random populations with P(0, m) >= P(-1, m) for every m."""
    w = _simplex(rng)
    return np.concatenate([np.maximum(w[:3], w[3:]), np.minimum(w[:3], w[3:])])


PULSE_KINDS = ("laser",) * 3 + ("mw",) * 4 + ("rf",) * 3


def _random_pulses(rng, lasers) -> tuple:
    """PULSE_KINDS in a seeded order; `lasers` yields the laser durations."""
    lasers, pulses = iter(lasers), []
    for kind in rng.permutation(PULSE_KINDS):
        if kind == "laser":
            pulses.append(nvinit.Laser(float(next(lasers))))
            continue
        cls, pairs = ((nvinit.MwPi, nvinit.MW_PAIRS) if kind == "mw"
                      else (nvinit.RfPi, nvinit.RF_PAIRS))
        pair = pairs[rng.integers(len(pairs))]
        if rng.integers(2):
            pair = (pair[1], pair[0])
        pulses.append(cls(pair, float(rng.uniform(0.9, 1.0))))
    return tuple(pulses)


def _reference_trace(p, pulses, rates) -> np.ndarray:
    """Reference state after each pulse."""
    states, state = [], np.asarray(p, dtype=float)
    for pulse in pulses:
        if isinstance(pulse, nvinit.Laser):
            state = ref.laser(pulse.duration, rates.k_s, rates.k_i) @ state
        else:
            state = ref.swap(pulse.pair, pulse.swap_fidelity) @ state
        states.append(state)
    return np.array(states)


def _simplex_problems(label, states) -> list[str]:
    states = np.atleast_2d(np.asarray(states, dtype=float))
    low = states.min()
    drift = np.abs(states.sum(axis=1) - 1.0).max()
    if low < -SIMPLEX_TOL or drift > SIMPLEX_TOL:
        return [f"{label}: left the simplex (min {low:.3g}, |sum-1| {drift:.3g})"]
    return []


def _close(label, got, want, tol) -> list[str]:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if np.size(want) else 0.0
    return [] if err <= tol else [f"{label}: off the reference by {err:.3g} (tol {tol:g})"]


class _UGrid:
    """Reference laser propagators on GRID, one stack per rate pair."""

    def __init__(self):
        self._cache = {}

    def __call__(self, rates) -> np.ndarray:
        key = (rates.k_s, rates.k_i)
        if key not in self._cache:
            self._cache[key] = ref.laser(GRID, *key)
        return self._cache[key]


def _schedule_problems(label, sched, p0, rates, objective, n_cycles, strategy,
                       overrides, ugrid):
    """Re-propagate a schedule from its durations and score its choices.

    `sched` is a list of (t1, purity1, t2, purity2) rows.  Returns the
    problems found and the reference end state.
    """
    problems = []
    if len(sched) != n_cycles:
        return [f"{label}: {len(sched)} rows for {n_cycles} cycles"], None
    ov = overrides or nvinit.CycleOverrides()
    ks, ki = rates.k_s, rates.k_i
    s1, s2 = ref.swaps(ref.SEG1_SWAPS), ref.swaps(ref.SEG2_SWAPS)
    decisions = []      # (pre-laser state, chosen t, pinned value or None)
    purities = []
    state = np.asarray(p0, dtype=float)
    if strategy == nvinit.INTERLEAVED:
        for i, (t1, _, t2, _) in enumerate(sched):
            pre = s1 @ state
            decisions.append((pre, t1, ov.t1 if i == 0 else None))
            state = ref.laser(t1, ks, ki) @ pre
            pur1 = state[2]
            if i == 0 and ov.seg2_start is not None:
                state = np.asarray(ov.seg2_start, dtype=float)
            pre = s2 @ state
            decisions.append((pre, t2, ov.t2 if i == 0 else None))
            state = ref.laser(t2, ks, ki) @ pre
            purities.append((pur1, state[2]))
    else:
        firsts = []
        for i, (t1, _, _, _) in enumerate(sched):
            pre = s1 @ state
            decisions.append((pre, t1, ov.t1 if i == 0 else None))
            state = ref.laser(t1, ks, ki) @ pre
            firsts.append(state[2])
        for i, (_, _, t2, _) in enumerate(sched):
            pre = s2 @ state
            decisions.append((pre, t2, ov.t2 if i == 0 else None))
            state = ref.laser(t2, ks, ki) @ pre
            purities.append((firsts[i], state[2]))
    got = [(row[1], row[3]) for row in sched]
    tol = CSV_TOL if label.startswith("cli") else SIMPLEX_TOL
    problems += _close(f"{label} purities", got, purities, tol)
    grid = ugrid(rates)
    for pre, t, pinned in decisions:
        if pinned is not None:
            if t != pinned:
                problems.append(f"{label}: override {pinned} not honoured (got {t})")
            continue
        if not 0.0 <= t <= T_MAX:
            problems.append(f"{label}: duration {t} outside [0, {T_MAX}]")
            continue
        best = float(ref.objective(grid @ pre, objective).max())
        value = float(ref.objective(ref.laser(t, ks, ki) @ pre, objective))
        if value < best - OPT_TOL:
            problems.append(f"{label}: t={t:.6g} scores {value:.9g}, "
                            f"dense-grid maximum {best:.9g}")
    return problems, state


def fingerprint(out) -> bytes:
    """Bit pattern of an output, for comparing rounds exactly."""
    if isinstance(out, np.ndarray):
        return out.tobytes()
    if isinstance(out, (tuple, list)):
        return b"|".join(fingerprint(x) for x in out)
    if isinstance(out, nvinit.TraceRecord):
        return out.state.tobytes()
    if isinstance(out, CliOutput):
        return out.stdout + b"".join(k.encode() + v for k, v in out.files.items())
    if isinstance(out, nvinit.Schedule):
        return fingerprint([np.array([r.t1, r.purity_after_seg1, r.t2, r.purity_after_seg2])
                             for r in out.cycles])
    if isinstance(out, (bytes, str)):
        return out if isinstance(out, bytes) else out.encode()
    return repr(out).encode()


class Workload:
    name = ""
    salt = 0

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.rng = _rng(seed, self.salt)

    def ops(self, mode: str = "plain") -> list[Op]:
        """One round.  Only the CLI workload runs differently when traced."""
        return self._ops

    def failed(self, op: Op, out) -> bool:
        return isinstance(out, BaseException)

    def check(self, ops: list[Op], first: list) -> list[str]:
        """Problems in the outputs of the first round."""
        problems = []
        for op, out in zip(ops, first):
            if not self.failed(op, out):
                problems += self.check_op(op, out)
        return problems + self.check_round(ops, first)

    def check_op(self, op: Op, out) -> list[str]:
        return []

    def check_round(self, ops: list[Op], outs: list) -> list[str]:
        return []

    def details(self, ops, times) -> dict:
        """Workload-specific end-to-end figures: name -> (value, unit)."""
        return {}

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that runs the package."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_extras(self, ops, first) -> dict:
        """Per-layer figures the spans cannot give, from the first round."""
        return {}


def kind_stats(ops, times, kinds=None):
    """Units per second of operation time, and the median op time in s.

    `times[r][i]` is the duration of op i in round r; `kinds` selects ops.
    """
    idx = [i for i, op in enumerate(ops) if kinds is None or op.kind in kinds]
    units = sum(ops[i].units for i in idx) * len(times)
    busy = sum(r[i] for r in times for i in idx)
    return units / busy, statistics.median(r[i] for r in times for i in idx)


class ScheduleScan(Workload):
    name = "schedule_scan"
    salt = 1
    # (n_cycles, overrides, both strategies?).  Fixed so that a round does
    # the same optimisation work on every seed; the seed draws the rates,
    # the objectives, the lone n=20 run's strategy and the order.
    CASES = ((1, nvinit.REFERENCE_CYCLE1_OVERRIDES, True),
             (2, None, True),
             (5, nvinit.CycleOverrides(t1=0.5, t2=0.46), True),
             (20, None, False))

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = self.rng
        objectives = rng.permutation([nvinit.P00, nvinit.P00, nvinit.A0, nvinit.A0])
        self._ops = []
        for case, ((n, ov, pair), objective) in enumerate(zip(self.CASES, objectives)):
            rates = _around_default(rng)
            p0 = ref.laser_initialized(rates.k_s, rates.k_i)
            strategies = ((nvinit.INTERLEAVED, nvinit.BLOCKED) if pair else
                          (str(rng.choice([nvinit.INTERLEAVED, nvinit.BLOCKED])),))
            for strategy in strategies:
                args = (p0, rates, str(objective), n, strategy, ov)
                self._ops.append(Op("schedule", self._call(args), n,
                                    info={"args": args, "case": case}))
        self._ops = [self._ops[i] for i in rng.permutation(len(self._ops))]
        self.ugrid = _UGrid()

    @staticmethod
    def _call(args):
        return lambda: nvinit.optimize_schedule(*args)

    def check_op(self, op, out):
        p0, rates, objective, n, strategy, ov = op.info["args"]
        label = f"schedule {strategy}/{objective}/n={n}"
        rows = [(r.t1, r.purity_after_seg1, r.t2, r.purity_after_seg2) for r in out.cycles]
        problems, end = _schedule_problems(label, rows, p0, rates, objective, n,
                                           strategy, ov, self.ugrid)
        if out.strategy != strategy or out.final_purity != rows[-1][3]:
            problems.append(f"{label}: strategy or final purity mislabelled")
        problems += _simplex_problems(label, out.end_state)
        if end is not None:
            problems += _close(f"{label} end state", out.end_state, end, STATE_TOL)
        return problems

    def check_round(self, ops, outs):
        # blocked <= interleaved on matched inputs.  A pinned seg2 start
        # state only exists in the interleaved ordering, so that case is
        # not matched.
        problems, by_case = [], {}
        for op, out in zip(ops, outs):
            if not isinstance(out, BaseException):
                by_case.setdefault(op.info["case"], {})[op.info["args"][4]] = out
        for case, runs in by_case.items():
            ov = self.CASES[case][1]
            if len(runs) == 2 and (ov is None or ov.seg2_start is None):
                b, i = runs[nvinit.BLOCKED].final_purity, runs[nvinit.INTERLEAVED].final_purity
                if b > i + 1e-9:
                    problems.append(f"case {case}: blocked {b:.9g} beats interleaved {i:.9g}")
        return problems

    def details(self, ops, times):
        rate, p50 = kind_stats(ops, times, {"schedule"})
        return {"schedule_cycles_per_s": (rate, "cycles/s"), "schedule_s_p50": (p50, "s")}


class PulseSequences(Workload):
    name = "pulse_sequences"
    salt = 2
    N_SEQUENCES = 240
    N_DEGENERATE = 4             # rate draws exactly at 3 k_i = k_s
    DEGENERATE_LASER_US = 0.3    # total laser time of a degenerate sequence
    N_SWEEPS = 8
    SWEEP_STEPS = 401

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = self.rng
        degenerate = set(rng.choice(self.N_SEQUENCES, self.N_DEGENERATE, replace=False).tolist())
        self._ops = []
        for i in range(self.N_SEQUENCES):
            if i in degenerate:
                k_s = DEFAULT_RATES.k_s * rng.uniform(0.8, 1.25)
                rates = nvinit.RateParams(k_s=k_s, k_i=k_s / 3.0)
                lasers = self.DEGENERATE_LASER_US * rng.dirichlet(np.ones(3))
            else:
                rates = _around_default(rng, 0.5, 2.0)
                lasers = rng.uniform(0.02, 2.0, 3)
            pulses = _random_pulses(rng, lasers)
            args = (_simplex(rng), pulses, rates)
            self._ops.append(Op("sequence", self._sequence(args), len(pulses),
                                info={"args": args, "degenerate": i in degenerate}))
        for i in range(self.N_SWEEPS):
            seg = (nvinit.seg1, nvinit.seg2)[i % 2]
            rates = _around_default(rng, 0.5, 2.0)
            grid = np.linspace(0.0, rng.uniform(2.0, 8.0), self.SWEEP_STEPS)
            args = (_simplex(rng), seg(0.0).pulses[:-1], grid, rates)
            self._ops.append(Op("sweep", self._sweep(args), self.SWEEP_STEPS,
                                info={"args": args}))
        self._ops = [self._ops[i] for i in rng.permutation(len(self._ops))]

    @staticmethod
    def _sequence(args):
        return lambda: nvinit.run_sequence(*args)

    @staticmethod
    def _sweep(args):
        p, swaps, grid, rates = args

        def sweep():
            # The CLI's sweep: swaps once, then one propagate per duration.
            state = p
            for pulse in swaps:
                state = nvinit.apply_pulse(state, pulse, rates)
            return np.array([nvinit.propagate(state, float(t), rates) for t in grid])
        return sweep

    def check_op(self, op, out):
        if op.kind == "sweep":
            p, swaps, grid, rates = op.info["args"]
            start = ref.swaps([s.pair for s in swaps]) @ p
            want = ref.laser(grid, rates.k_s, rates.k_i) @ start
            return (_simplex_problems("sweep", out)
                    + _close("sweep states", out, want, STATE_TOL))
        p, pulses, rates = op.info["args"]
        final, trace = out
        label = "degenerate sequence" if op.info["degenerate"] else "sequence"
        if len(trace) != len(pulses):
            return [f"{label}: {len(trace)} trace records for {len(pulses)} pulses"]
        want = _reference_trace(p, pulses, rates)
        got = np.array([rec.state for rec in trace])
        return (_simplex_problems(label, got)
                + _close(f"{label} states", got, want, STATE_TOL)
                + ([] if np.array_equal(final, got[-1]) else [f"{label}: final != last trace"]))

    def check_round(self, ops, outs):
        # Semigroup law U(s+t) = U(s) U(t) on the program's propagator, at
        # the first three ordinary rate draws and one degenerate draw.
        problems = []
        picked = [op for op in ops if op.kind == "sequence" and not op.info["degenerate"]][:3]
        picked += [op for op in ops if op.info.get("degenerate")][:1]
        rng = _rng(self.seed, 100 + self.salt)
        for op in picked:
            rates = op.info["args"][2]
            s, t = rng.uniform(0.05, 0.15, 2)
            lhs = nvinit.propagator(s + t, rates)
            rhs = nvinit.propagator(s, rates) @ nvinit.propagator(t, rates)
            problems += _close(f"semigroup at k_s={rates.k_s:.4g}, k_i={rates.k_i:.4g}",
                               lhs, rhs, 1e-12)
        return problems

    def details(self, ops, times):
        seq_rate, _ = kind_stats(ops, times, {"sequence"})
        sweep_rate, _ = kind_stats(ops, times, {"sweep"})
        return {"sequence_pulses_per_s": (seq_rate, "pulses/s"),
                "sweep_points_per_s": (sweep_rate, "points/s")}


class Readout(Workload):
    name = "readout"
    salt = 3
    # (n_samples, states per round).  Most round trips use the default length.
    LENGTHS = ((2048, 600), (4096, 150), (16384, 80))
    # The panel of states is fixed, not drawn from --seed: some of its
    # round trips exceed the tolerance because of the extractor's fault,
    # and that count has to be the same on every seed.  The seed orders
    # the round.
    PANEL_SEED = 20210705
    PROTOCOL_DURATIONS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0)
    FAULT = ("tomography.extract_amplitudes: nearest-bin magnitude readout leaks "
             "between the overlapping lines, so some round trips miss 0.01")

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        ks, ki = DEFAULT_RATES.k_s, DEFAULT_RATES.k_i
        s1, s2 = ref.swaps(ref.SEG1_SWAPS), ref.swaps(ref.SEG2_SWAPS)
        start = ref.laser_initialized(ks, ki)
        states = [start]
        for t1 in self.PROTOCOL_DURATIONS:
            after1 = ref.laser(t1, ks, ki) @ s1 @ start
            states.append(after1)
            states += [ref.laser(t2, ks, ki) @ s2 @ after1 for t2 in self.PROTOCOL_DURATIONS]
        # Short pulses leave m_s = -1 population that the next swaps turn
        # into negative line amplitudes, which extraction does not cover.
        states = [p for p in states if ref.line_amplitudes(p).min() >= 0.0]
        panel_rng = np.random.default_rng(self.PANEL_SEED)
        self._ops = []
        for n, count in self.LENGTHS:
            fp = nvinit.FidParams(n_samples=n)
            bins = np.array(ref.line_bins(fp.detuning, fp.hyperfine_split, fp.dt,
                                          fp.padded_length))
            for _ in range(count):
                p = states.pop() if states else _nonnegative_amplitude_state(panel_rng)
                self._ops.append(Op(f"readout-{n}", self._roundtrip(p, fp, bins), 1,
                                    info={"fp": fp, "bins": bins,
                                          "amps": ref.line_amplitudes(p)}))
        self._ops = [self._ops[i] for i in self.rng.permutation(len(self._ops))]

    @staticmethod
    def _roundtrip(p, fp, bins):
        def roundtrip():
            # Extraction needs the calibration spectrum; like the CLI, each
            # round trip computes it.
            amps = nvinit.amplitudes(p)
            spec = nvinit.spectrum(nvinit.synthesize_fid(amps, fp), fp)
            got = nvinit.extract_amplitudes(spec, fp, nvinit.calibration_spectrum(fp))
            return got.as_array(), spec.values[bins]
        return roundtrip

    def error(self, op, out) -> float:
        return float(np.abs(out[0] - op.info["amps"]).max())

    def failed(self, op, out):
        return isinstance(out, BaseException) or self.error(op, out) > READOUT_TOL

    def check_op(self, op, out):
        fp, bins = op.info["fp"], op.info["bins"]
        series = ref.fid(op.info["amps"], fp.detuning, fp.hyperfine_split, fp.t2star,
                         fp.dt, fp.n_samples)
        want = [ref.direct_dft(series, fp.padded_length, int(b)) for b in bins]
        return _close(f"{op.kind} line bins vs direct DFT", out[1], want, CSV_TOL)

    def check_round(self, ops, outs):
        # Whole FIDs against the formula for a few round trips of each length.
        problems = []
        for n, _ in self.LENGTHS:
            for op in [op for op in ops if op.kind == f"readout-{n}"][:2]:
                fp, amps = op.info["fp"], op.info["amps"]
                got = nvinit.synthesize_fid(nvinit.SpectralAmplitudes(*amps), fp)
                want = ref.fid(amps, fp.detuning, fp.hyperfine_split, fp.t2star,
                               fp.dt, fp.n_samples)
                problems += _close(f"FID n={n}", got, want, 1e-12)
        return problems

    def details(self, ops, times):
        rate, p50 = kind_stats(ops, times)
        return {"readouts_per_s": (rate, "readouts/s"), "readout_ms_p50": (p50 * 1e3, "ms")}

    def layer_extras(self, ops, outs):
        return {"tomography.spectrum.fft_points":
                sum(2 * op.info["fp"].padded_length for op in ops),
                "tomography.roundtrip_err_max":
                max((self.error(op, out) for op, out in zip(ops, outs)
                     if not isinstance(out, BaseException)), default=0.0)}


class Cli(Workload):
    name = "cli"
    salt = 4
    SUBCOMMANDS = ("transitions", "sweep", "spectrum", "optimize", "simulate")

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = self.rng
        self.dir = workdir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.rates = rates = _around_default(rng)
        self.b_field = float(rng.uniform(0.0, 10.0))
        self.detuning = float(rng.uniform(3.0, 5.0))
        self.t2star = float(rng.uniform(1.5, 3.0))
        self.objective = str(rng.choice([nvinit.P00, nvinit.A0]))
        self.strategy = str(rng.choice([nvinit.INTERLEAVED, nvinit.BLOCKED]))
        config = {
            "rates": {"k_s_per_us": rates.k_s, "k_i_per_us": rates.k_i},
            "hamiltonian": {"b_field_mt": self.b_field},
            "fid": {"detuning_mhz": self.detuning, "t2star_us": self.t2star},
            "optimizer": {"objective": self.objective, "strategy": self.strategy,
                          "n_cycles": 3},
        }
        self.config = self.dir / "config.yaml"
        self.config.write_text(yaml.safe_dump(config, sort_keys=False))
        self.segment = str(rng.choice(["seg1", "seg2"]))
        self.t_max = float(rng.uniform(2.0, 6.0))
        self.state = _nonnegative_amplitude_state(rng)
        self.seq_start = _simplex(rng)
        self.pulses = _random_pulses(rng, rng.uniform(0.02, 2.0, 3))
        doc = [{"kind": "laser", "duration_us": pulse.duration}
               if isinstance(pulse, nvinit.Laser) else
               {"kind": "mw_pi" if isinstance(pulse, nvinit.MwPi) else "rf_pi",
                "pair": [list(level) for level in pulse.pair], "fidelity": pulse.swap_fidelity}
               for pulse in self.pulses]
        self.sequence = self.dir / "sequence.yaml"
        self.sequence.write_text(yaml.safe_dump(
            {"initial_state": [float(v) for v in self.seq_start], "pulses": doc},
            sort_keys=False))
        self.order = [self.SUBCOMMANDS[i] for i in rng.permutation(len(self.SUBCOMMANDS))]
        self.env = None         # environment of the child processes
        self.tracer = None      # receives the spans of traced children
        self.peak_rss_kb = 0    # largest child seen
        self.main_s = {sub: [] for sub in self.SUBCOMMANDS}   # untraced probes

    def argv(self, sub: str) -> list[str]:
        out = ["--config", str(self.config), "--out", str(self.dir / "out" / sub)]
        extra = {"transitions": [],
                 "sweep": [self.segment, "--t-max", repr(self.t_max), "--steps", "201"],
                 "spectrum": ["--state", ",".join(repr(float(v)) for v in self.state)],
                 "optimize": [],
                 "simulate": [str(self.sequence)]}[sub]
        return [sub] + extra + out

    def ops(self, mode="plain"):
        """mode: plain = python -m nvinit; probe / probe-traced = cli_probe.py."""
        ops = []
        for sub in self.order:
            if mode == "plain":
                cmd = [sys.executable, "-m", "nvinit"] + self.argv(sub)
            else:
                timing = self.dir / f"probe-{sub}.json"
                spans = self.dir / f"spans-{sub}.npz" if mode == "probe-traced" else "-"
                cmd = ([sys.executable, str(Path(__file__).with_name("cli_probe.py")),
                        str(timing), str(spans)] + self.argv(sub))
            ops.append(Op(f"cli-{sub}", self._run(cmd), 1, collect=self._collect(sub, mode),
                          info={"sub": sub}))
        return ops

    def _run(self, cmd):
        def run():
            # wait4 rather than subprocess.run: it gives this child's own
            # peak memory.  stderr goes to a file so one pipe cannot block.
            with open(self.dir / "stderr.txt", "wb") as err:
                proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                        stdout=subprocess.PIPE, stderr=err)
                with proc.stdout:
                    stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, stdout, usage.ru_maxrss
        return run

    def _collect(self, sub, mode):
        def collect(result):
            code, stdout, rss_kb = result
            if code != 0:
                err = (self.dir / "stderr.txt").read_text(errors="replace").strip()
                return RuntimeError(f"nvinit {sub} exited {code}: {err}")
            outdir = self.dir / "out" / sub
            files = {p.name: p.read_bytes() for p in sorted(outdir.glob("*"))} \
                if outdir.exists() else {}
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
            if mode == "probe":
                timing = json.loads((self.dir / f"probe-{sub}.json").read_text())
                self.main_s[sub].append(timing["main_s"])
            if mode == "probe-traced":
                with np.load(self.dir / f"spans-{sub}.npz") as spans:
                    self.tracer.extend({k: spans[k] for k in spans.files})
            return CliOutput(stdout, files)
        return collect

    def check_op(self, op, out):
        return getattr(self, "_check_" + op.info["sub"])(out)

    def _reference_start(self, segment):
        if segment == "seg1":
            return ref.laser_initialized(self.rates.k_s, self.rates.k_i)
        return np.array(TABULATED_SEG2_START)

    def _hamiltonian(self):
        h = DEFAULT_HAMILTONIAN
        return dict(d_zfs=h.d_zfs, gamma_e=h.gamma_e, gamma_n=h.gamma_n,
                    quadrupole=h.quadrupole, hyperfine=h.hyperfine, b_field=self.b_field)

    def _check_transitions(self, out):
        rows = list(csv.DictReader(io.StringIO(out.files["transitions.csv"].decode())))
        problems = [] if len(rows) == 4 else [f"transitions.csv has {len(rows)} rows"]
        for row in rows:
            a, b = row["pair"].split("<->")
            pair = tuple(tuple(int(x) for x in lv.strip("()").split(",")) for lv in (a, b))
            want = ref.transition(pair, **self._hamiltonian())
            got = float(row["computed_mhz"])
            if abs(got - want) > CSV_TOL * abs(want):
                problems.append(f"transitions.csv {row['pair']}: {got} vs formula {want}")
            dev = got - float(row["reference_mhz"])
            if abs(float(row["deviation_mhz"]) - dev) > CSV_TOL * max(1.0, abs(want)):
                problems.append(f"transitions.csv {row['pair']}: deviation column wrong")
        return problems

    def _check_sweep(self, out):
        rows = np.loadtxt(io.StringIO(out.files[f"sweep_{self.segment}.csv"].decode()),
                          delimiter=",", skiprows=1, ndmin=2)
        pairs = ref.SEG1_SWAPS if self.segment == "seg1" else ref.SEG2_SWAPS
        start = ref.swaps(pairs) @ self._reference_start(self.segment)
        want = ref.laser(rows[:, 0], self.rates.k_s, self.rates.k_i) @ start
        amps = np.array([ref.line_amplitudes(p) for p in want])
        problems = [] if len(rows) == 201 else [f"sweep csv has {len(rows)} rows"]
        problems += _close("sweep csv durations", rows[:, 0],
                           np.linspace(0.0, self.t_max, 201), CSV_TOL)
        problems += _close("sweep csv states", rows[:, 1:7], want, CSV_TOL)
        problems += _close("sweep csv amplitudes", rows[:, 7:10], amps, CSV_TOL)
        problems += _close("sweep csv m_s=0 total", rows[:, 10], want[:, :3].sum(axis=1),
                           CSV_TOL)
        return problems

    def _check_spectrum(self, out):
        doc = yaml.safe_load(out.stdout)
        fp = nvinit.FidParams(detuning=self.detuning, t2star=self.t2star)
        amps = ref.line_amplitudes(self.state)
        model = doc["model_amplitudes"]
        problems = _close("spectrum model amplitudes",
                          [model["a_minus1"], model["a_plus1"], model["a_zero"]], amps, CSV_TOL)
        series = ref.fid(amps, fp.detuning, fp.hyperfine_split, fp.t2star, fp.dt, fp.n_samples)
        fid = np.loadtxt(io.StringIO(out.files["fid.csv"].decode()), delimiter=",",
                         skiprows=1, ndmin=2)
        problems += _close("fid.csv", fid[:, 1] + 1j * fid[:, 2], series, CSV_TOL)
        spec = np.loadtxt(io.StringIO(out.files["spectrum.csv"].decode()), delimiter=",",
                          skiprows=1, ndmin=2)
        for b in ref.line_bins(fp.detuning, fp.hyperfine_split, fp.dt, fp.padded_length):
            want = abs(ref.direct_dft(series, fp.padded_length, b))
            if abs(spec[b, 1] - want) > CSV_TOL * max(1.0, want):
                problems.append(f"spectrum.csv bin {b}: {spec[b, 1]} vs direct DFT {want}")
        return problems

    def _check_optimize(self, out):
        doc = yaml.safe_load(out.files["schedule.yaml"])
        if doc != yaml.safe_load(out.stdout):
            return ["optimize: stdout and schedule.yaml disagree"]
        if (doc["strategy"], doc["objective"], doc["n_cycles"]) != \
                (self.strategy, self.objective, 3):
            return [f"optimize: settings not taken from the config: {doc['strategy']}, "
                    f"{doc['objective']}, {doc['n_cycles']}"]
        rows = [(c["t1_us"], c["purity_after_seg1"], c["t2_us"], c["purity_after_seg2"])
                for c in doc["cycles"]]
        problems, end = _schedule_problems(
            "cli optimize", rows, self._reference_start("seg1"), self.rates,
            self.objective, 3, self.strategy, nvinit.REFERENCE_CYCLE1_OVERRIDES, _UGrid())
        if end is not None:
            problems += _close("cli optimize end state", doc["end_state"], end, CSV_TOL)
        return problems

    def _check_simulate(self, out):
        doc = yaml.safe_load(out.stdout)
        want = _reference_trace(self.seq_start, self.pulses, self.rates)
        got = [step["state"] for step in doc["trace"]]
        if len(got) != len(want):
            return [f"simulate: {len(got)} trace steps for {len(want)} pulses"]
        return (_close("simulate trace", got, want, CSV_TOL)
                + _close("simulate initial state", doc["initial_state"], self.seq_start,
                         CSV_TOL))

    def details(self, ops, times):
        out = {}
        for sub in self.SUBCOMMANDS:
            _, p50 = kind_stats(ops, times, {f"cli-{sub}"})
            out[f"cli_{sub}_s"] = (p50, "s")
        return out

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024.0

    def layer_extras(self, ops, outs):
        extras = {"cli.output_bytes": sum(o.size for o in outs if isinstance(o, CliOutput)),
                  "tomography.spectrum.fft_points": 2 * nvinit.FidParams().padded_length}
        for sub, times in self.main_s.items():
            # In-process time of main(), from the untraced half.
            if times:
                extras[f"cli.main.{sub}.ms"] = statistics.median(times) * 1e3
        spec = next(o for op, o in zip(ops, outs) if op.info["sub"] == "spectrum")
        if isinstance(spec, CliOutput):
            doc = yaml.safe_load(spec.stdout)
            diff = [doc["extracted_amplitudes"][k] - doc["model_amplitudes"][k]
                    for k in ("a_minus1", "a_plus1", "a_zero")]
            extras["tomography.roundtrip_err_max"] = float(np.abs(diff).max())
        return extras


@dataclass
class CliOutput:
    stdout: bytes
    files: dict

    @property
    def size(self) -> int:
        return len(self.stdout) + sum(len(v) for v in self.files.values())



WORKLOADS = {w.name: w for w in (ScheduleScan, PulseSequences, Readout, Cli)}
