"""nvinit benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, one after another

One process, one thread (BLAS/OpenMP pools pinned to 1), closed loop:
each operation starts when the previous one has finished, and a run
repeats whole rounds of its workload's operations until S seconds have
passed.  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics; with --trace 1 the run measures S/2
seconds untraced, then S/2 seconds with every public function of the
package wrapped, and reports the per-layer metrics and the tracing
overhead.  The package is imported from ./src of the checkout.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("schedule_scan", "pulse_sequences", "readout", "cli")


def _import_nvinit():
    sys.path.insert(0, str(SRC))
    import nvinit
    if not Path(nvinit.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"nvinit was imported from {nvinit.__file__}, not {SRC}")
    return nvinit


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in
                                         env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            path = ROOT / ".git" / ref
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return text
    except OSError:
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy as np
    return {"seed": seed, "git_commit": _git_commit(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


class Runner:
    """Runs whole rounds of a workload's operations and keeps the tallies.

    Only the first round's outputs are kept; later rounds are compared
    with it as they finish, so the benchmark's own memory stays the same
    however many rounds a run makes.
    """

    def __init__(self, wl, fingerprint):
        self.wl = wl
        self.fingerprint = fingerprint
        self.first = None
        self._prints = None
        self.rounds = self.attempted = self.failed = 0
        self.problems = []

    def measure(self, ops, seconds: float, tracer=None, between_rounds=None):
        """Run rounds until `seconds` have passed; returns op durations per round.

        `between_rounds(elapsed)` runs after each round, outside op timing.
        """
        clock = time.perf_counter
        times = []
        start = clock()
        while True:
            outs, durations = [], []
            for op in ops:
                if tracer is not None:
                    tracer.run_id += 1
                t0 = clock()
                try:
                    out = op.fn()
                except Exception as exc:   # counted as a failed operation
                    out = exc
                durations.append(clock() - t0)
                if op.collect is not None and not isinstance(out, Exception):
                    out = op.collect(out)
                self._tally(op, len(outs), out)
                outs.append(out)
            self.rounds += 1
            if self.first is None:
                self.first = outs
                self._prints = [self.fingerprint(o) for o in outs]
            times.append(durations)
            elapsed = clock() - start
            if between_rounds is not None:
                between_rounds(elapsed)
            if elapsed >= seconds:
                return times

    def _tally(self, op, i, out):
        self.attempted += 1
        if self.wl.failed(op, out):
            self.failed += 1
            if isinstance(out, BaseException) and self.failed <= 5:
                print(f"failed: {op.kind}: {type(out).__name__}: {out}")
        if self._prints is not None and self.fingerprint(out) != self._prints[i]:
            self.problems.append(f"round {self.rounds + 1} op {i} ({op.kind}) "
                                 "differs from round 1")


class SetupProbes:
    """Set-up timed in fresh interpreters, spread over the run.

    The machine's speed drifts over tens of seconds, so probe k runs after
    the first round that ends past k/SETUP_PROBES of the run; those not
    run by the end of the window run then.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.marks = [k * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.imports, self.setups = [], []

    def __call__(self, elapsed: float) -> None:
        if len(self.setups) < SETUP_PROBES and elapsed >= self.marks[len(self.setups)]:
            self._probe()

    def _probe(self) -> None:
        proc = subprocess.run(self.cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=True)
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        self.imports.append(result["import_s"])
        self.setups.append(result["setup_s"])

    def medians(self):
        while len(self.setups) < SETUP_PROBES:
            self._probe()
        return statistics.median(self.imports), statistics.median(self.setups)


def per_layer(summary: dict, rounds: int, extras: dict) -> dict:
    import numpy as np
    from tracer import DEGENERATE

    empty = {"calls": 0, "self_s": 0.0, "durations": np.empty(0)}

    def get(name):
        return summary.get(name, empty)

    def calls(name):
        return get(name)["calls"] / rounds

    def self_us(name):
        return get(name)["self_s"] * 1e6 / rounds

    def p50(name, scale):
        d = get(name)["durations"]
        return float(np.median(d)) * scale if len(d) else 0.0

    def ratio(a, b):
        return get(a)["calls"] / get(b)["calls"] if get(b)["calls"] else 0.0

    prop = "spinmodel.propagator"
    m = {
        "spinmodel.propagate.calls": (calls("spinmodel.propagate"), "count"),
        "spinmodel.propagate.self_us": (self_us("spinmodel.propagate"), "us"),
        "spinmodel.propagator.calls": (calls(prop) + calls(DEGENERATE), "count"),
        "spinmodel.propagator.self_us": (self_us(prop) + self_us(DEGENERATE), "us"),
        "spinmodel.propagator.degenerate_calls": (calls(DEGENERATE), "count"),
        "spinmodel.propagator.degenerate_self_us": (self_us(DEGENERATE), "us"),
        "spinmodel.validate_population.calls": (calls("spinmodel.validate_population"),
                                                "count"),
        "spinmodel.validate_population.self_us": (self_us("spinmodel.validate_population"),
                                                  "us"),
        "spinmodel.validations_per_propagate": (
            ratio("spinmodel.validate_population", "spinmodel.propagate"), "ratio"),
        "pulses.apply_pulse.calls": (calls("pulses.apply_pulse"), "count"),
        "pulses.apply_pulse.self_us": (self_us("pulses.apply_pulse"), "us"),
        "pulses.run_sequence.self_us": (self_us("pulses.run_sequence"), "us"),
        "optimizer.optimize_laser.calls": (calls("optimizer.optimize_laser"), "count"),
        "optimizer.optimize_laser.us_p50": (p50("optimizer.optimize_laser", 1e6), "us"),
        "optimizer.propagations_per_laser_opt": (
            ratio("spinmodel.propagate", "optimizer.optimize_laser"), "ratio"),
        "optimizer.objective_value.calls": (calls("optimizer.objective_value"), "count"),
        "optimizer.objective_value.self_us": (self_us("optimizer.objective_value"), "us"),
        "optimizer.optimize_schedule.self_us": (self_us("optimizer.optimize_schedule"), "us"),
        "tomography.synthesize_fid.us_p50": (p50("tomography.synthesize_fid", 1e6), "us"),
        "tomography.spectrum.us_p50": (p50("tomography.spectrum", 1e6), "us"),
        "tomography.spectrum.fft_points": (extras.get("tomography.spectrum.fft_points", 0),
                                           "count"),
        "tomography.extract_amplitudes.us_p50": (p50("tomography.extract_amplitudes", 1e6),
                                                 "us"),
        "tomography.calibration_spectrum.calls": (calls("tomography.calibration_spectrum"),
                                                  "count"),
        "tomography.calibration_spectrum.self_us": (
            self_us("tomography.calibration_spectrum"), "us"),
        "tomography.roundtrip_err_max": (extras.get("tomography.roundtrip_err_max", 0.0),
                                         "abs"),
        "hamiltonian.transition_table.us_p50": (p50("hamiltonian.transition_table", 1e6),
                                                "us"),
        "config.load_config.ms": (p50("config.load_config", 1e3), "ms"),
        "config.parse_sequence.ms": (p50("config.parse_sequence", 1e3), "ms"),
    }
    for sub in ("transitions", "sweep", "spectrum", "optimize", "simulate"):
        m[f"cli.main.{sub}.ms"] = (extras.get(f"cli.main.{sub}.ms", 0.0), "ms")
    m["cli.output_bytes"] = (extras.get("cli.output_bytes", 0), "bytes")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    t0 = time.perf_counter()
    try:
        nvinit = _import_nvinit()
    except ImportError as exc:
        print(f"perfbench: cannot import nvinit from {SRC}: {exc}", file=sys.stderr)
        return 2
    import reference
    import workloads
    wl = workloads.WORKLOADS[name](seed, ROOT, WORKDIR)
    wl.env = _child_env()
    main_setup_s = time.perf_counter() - t0

    print(f"perfbench: workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("env " + json.dumps(environment(seed)))

    runner = Runner(wl, workloads.fingerprint)
    if not trace:
        ops = wl.ops("plain")
        probes = SetupProbes(name, seed, seconds)
        times = runner.measure(ops, seconds, between_rounds=probes)
        rss = wl.peak_rss_mb()
        import_s, setup_s = probes.medians()
    else:
        from tracer import Tracer
        untraced_ops = wl.ops("probe")
        times_u = runner.measure(untraced_ops, seconds / 2)
        tracer = Tracer()
        wl.tracer = tracer
        ops = wl.ops("probe-traced")
        rounds_before = runner.rounds
        tracer.install()
        try:
            times = runner.measure(ops, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        traced_rounds = runner.rounds - rounds_before

    problems = reference.self_check(nvinit.RateParams(), nvinit.HamiltonianParams())
    problems += wl.check(ops, runner.first) + runner.problems
    fault = getattr(wl, "FAULT", None)
    print(f"operations: attempted={runner.attempted} failed={runner.failed}"
          + (f" (expected fault: {fault})" if runner.failed and fault else ""))
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(f"checks: {'passed' if not problems else f'{len(problems)} problems'}")

    if not trace:
        rate, p50 = workloads.kind_stats(ops, times)
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
            "work_units_per_s": (rate, "units/s"),
            "op_ms_p50": (p50 * 1e3, "ms"),
        }
        details = {"import_s": (import_s, "s"), "setup_in_run_s": (main_setup_s, "s")}
        for key, (value, unit) in {**wl.details(ops, times), **details}.items():
            print(f"detail {key} {value!r} {unit}")
    else:
        metrics = per_layer(tracer.summary(), traced_rounds, wl.layer_extras(ops, runner.first))
        overhead = (workloads.kind_stats(untraced_ops, times_u)[0]
                    / workloads.kind_stats(ops, times)[0] - 1.0)
        metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
        metrics["trace.spans"] = (len(tracer.name) / traced_rounds, "count")
        WORKDIR.mkdir(parents=True, exist_ok=True)
        tracer.write(WORKDIR / f"spans-{name}.npz")

    for key, (value, unit) in metrics.items():
        print(f"metric {key} {value!r} {unit}")
    result = {"correct": not problems, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; prints a combined summary last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                               name, "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["workloads"][name] = result
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
