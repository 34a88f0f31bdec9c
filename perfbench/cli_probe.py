"""Run one nvinit subcommand in-process, timing its parts.

Usage: python3 perfbench/cli_probe.py TIMING.json SPANS.npz|- SUBCOMMAND ARGS...

Times `import nvinit` and `nvinit.cli.main(argv)` separately and writes
both to TIMING.json.  Given a spans path, it also wraps the package's
public functions (see tracer.py) and writes the recorded spans there.
Standard output is the subcommand's own, byte for byte.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import nvinit  # noqa: E402,F401
import nvinit.cli  # noqa: E402

T1 = time.perf_counter()


def main() -> int:
    timing_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = None
    if spans_path != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t2 = time.perf_counter()
    code = nvinit.cli.main(argv)
    t3 = time.perf_counter()
    sys.stdout.flush()
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spans_path)
    Path(timing_path).write_text(json.dumps({"import_s": T1 - T0, "main_s": t3 - t2}))
    return code


if __name__ == "__main__":
    sys.exit(main())
