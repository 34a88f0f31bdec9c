"""Time one workload set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints {"import_s": ..., "setup_s": ...}: the time of `import nvinit`,
and of that import plus building the workload's seeded inputs.  run.py
starts several of these and reports their medians as import_s and
setup_s.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import nvinit  # noqa: E402,F401

T1 = time.perf_counter()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), ROOT, ROOT / ".perfbench_work" / "probe")
T2 = time.perf_counter()
print(json.dumps({"import_s": T1 - T0, "setup_s": T2 - T0}))
