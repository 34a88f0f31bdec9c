"""Span recorder that wraps nvinit's public functions from outside.

`Tracer.install()` replaces each traced function at every place a
module of the package binds it (``nvinit.optimizer.propagate`` is the
same object as ``nvinit.spinmodel.propagate``), so inner calls are seen
without editing the package.  Spans (name, start, end, parent, run id)
are kept in flat arrays and written out once, at the end.  Untraced runs
never construct a Tracer, so they install no wrappers.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Public functions traced, per layer.  propagate_numeric is left
# unwrapped on purpose: it only runs as the propagator's per-column RK4
# fallback, so its time is counted as the propagator's self time.
TRACED = {
    "spinmodel": ("validate_population", "propagator", "propagate"),
    "pulses": ("apply_pulse", "run_sequence"),
    "optimizer": ("objective_value", "optimize_laser", "run_cycle", "optimize_schedule"),
    "tomography": ("amplitudes", "synthesize_fid", "spectrum",
                   "calibration_spectrum", "extract_amplitudes"),
    "hamiltonian": ("transition_table",),
    "config": ("load_config", "parse_config", "parse_sequence"),
    "cli": ("main",),
}

DEGENERATE = "spinmodel.propagator.degenerate"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        degenerate_id = self._name_id(DEGENERATE) if name == "spinmodel.propagator" else None
        clock = time.perf_counter
        stack, names, parents, runs = self._stack, self.name, self.parent, self.run
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = nid
            if degenerate_id is not None:
                rates = args[1] if len(args) > 1 else kwargs.get("rates")
                if rates is not None and rates.degenerate:
                    sid = degenerate_id
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            stack.append(idx)
            starts.append(0.0)
            ends.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer, funcs in TRACED.items():
            module = sys.modules.get(f"nvinit.{layer}")
            if module is None:          # nvinit.cli is only loaded by the CLI
                continue
            for func in funcs:
                original = getattr(module, func)
                wrappers[id(original)] = (original, self._wrap(original, f"{layer}.{func}"))
        for modname, module in list(sys.modules.items()):
            if modname != "nvinit" and not modname.startswith("nvinit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def extend(self, spans: dict) -> None:
        """Append spans recorded by another process (see `arrays`)."""
        offset = len(self.name)
        remap = np.array([self._name_id(n) for n in spans["names"]], dtype=np.int32)
        parent = np.asarray(spans["parent"])
        self.name.extend(remap[np.asarray(spans["name"])].tolist())
        self.parent.extend(np.where(parent >= 0, parent + offset, -1).tolist())
        self.run.extend(np.full(len(parent), self.run_id, dtype=np.int32).tolist())
        self.start.extend(np.asarray(spans["start"]).tolist())
        self.end.extend(np.asarray(spans["end"]).tolist())

    def arrays(self) -> dict:
        return {"names": np.array(self.names),
                "name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "run": np.array(self.run, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def write(self, path) -> None:
        np.savez(path, **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, total self time (s) and inclusive durations (s).

        Self time is a span's duration minus the time its child spans
        cover; calls run on one thread, so children never overlap.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(a["name"], minlength=n_names)
        self_sum = np.bincount(a["name"], weights=self_time, minlength=n_names)
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "self_s": float(self_sum[i]),
                         "durations": dur[a["name"] == i]}
        return out
