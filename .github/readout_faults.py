"""Minor page faults per readout round trip, as a Markdown code block.

A round trip synthesizes the FID of a fixed state's line amplitudes, takes
its spectrum and extracts the amplitudes against the calibration spectrum,
as the readout does.  At each sample count, 20 round trips warm the caches
and the heap, and the next 200 are counted with resource.getrusage of this
process.  A last line counts mixed lengths: a seeded shuffle of 2048, 4096 and
16384 samples in the proportions 600:150:80 of perfbench's readout workload,
run once to warm up and once counted, since a work buffer's policy shows only
when lengths interleave.  The count depends on the C library's allocator, so
it is reported, not gated.  PYTHONPATH selects the tree that is measured:

    PYTHONPATH=src python3 .github/readout_faults.py

Imports the standard library, numpy and nvinit only.
"""

import platform
import resource

import numpy as np

import nvinit

WARM_UP, COUNTED = 20, 200
MIX = ((2048, 600), (4096, 150), (16384, 80))
amps = nvinit.amplitudes(np.array([0.07, 0.33, 0.55, 0.0, 0.0, 0.05]))


def round_trip(fp):
    spec = nvinit.spectrum(nvinit.synthesize_fid(amps, fp), fp)
    return nvinit.extract_amplitudes(spec, fp, nvinit.calibration_spectrum(fp))


def faults_per_round_trip(fps, warm_up):
    """Minor page faults per round trip over fps, after round trips over warm_up."""
    for fp in warm_up:
        round_trip(fp)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for fp in fps:
        round_trip(fp)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return faults / len(fps), faults


print("```")
for n in (2048, 4096, 16384):
    fp = nvinit.FidParams(n_samples=n)
    per_trip, faults = faults_per_round_trip([fp] * COUNTED, [fp] * WARM_UP)
    print(f"readout round trip, {n} samples: {per_trip:.1f} minor page faults "
          f"({faults} in {COUNTED}, after {WARM_UP} to warm up)")
mix = [nvinit.FidParams(n_samples=n) for n, count in MIX for _ in range(count)]
mix = [mix[i] for i in np.random.default_rng(830).permutation(len(mix))]
per_trip, faults = faults_per_round_trip(mix, mix)
print(f"readout round trip, shuffled mix of {'/'.join(str(n) for n, _ in MIX)} samples "
      f"({':'.join(str(count) for _, count in MIX)}): {per_trip:.2f} minor page faults "
      f"({faults} in {len(mix)}, after {len(mix)} to warm up)")
print(f"Python {platform.python_version()}, numpy {np.__version__}")
print("```")
