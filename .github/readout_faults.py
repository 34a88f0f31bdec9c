"""Minor page faults per readout round trip, as a Markdown code block.

A round trip synthesizes the FID of a fixed state's line amplitudes, takes
its spectrum and extracts the amplitudes against the calibration spectrum,
as the readout does.  At each sample count, 20 round trips warm the caches
and the heap, and the next 200 are counted with resource.getrusage of this
process.  The count depends on the C library's allocator, so it is reported,
not gated.  PYTHONPATH selects the tree that is measured:

    PYTHONPATH=src python3 .github/readout_faults.py

Imports the standard library, numpy and nvinit only.
"""

import platform
import resource

import numpy as np

import nvinit

WARM_UP, COUNTED = 20, 200
amps = nvinit.amplitudes(np.array([0.07, 0.33, 0.55, 0.0, 0.0, 0.05]))


def round_trip(fp):
    spec = nvinit.spectrum(nvinit.synthesize_fid(amps, fp), fp)
    return nvinit.extract_amplitudes(spec, fp, nvinit.calibration_spectrum(fp))


print("```")
for n in (2048, 4096, 16384):
    fp = nvinit.FidParams(n_samples=n)
    for _ in range(WARM_UP):
        round_trip(fp)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(COUNTED):
        round_trip(fp)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(f"readout round trip, {n} samples: {faults / COUNTED:.1f} minor page faults "
          f"({faults} in {COUNTED}, after {WARM_UP} to warm up)")
print(f"Python {platform.python_version()}, numpy {np.__version__}")
print("```")
