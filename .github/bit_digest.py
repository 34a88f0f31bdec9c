"""Bit digest: one sha256 over the IEEE bytes of a seeded set of nvinit results.

The set: optimize_schedule calls (both strategies and objectives, k_i = 0 in
about half, t_max in {0.3, 10, 21} us, three kinds of first-cycle overrides,
starts with dust down to -1e-9), optimize_laser, run_sequence traces with swap
fidelities in [0, 1], propagate and apply_pulse, and the rows of nvinit sweep
before they are rounded.  A second sha256, the readout digest, covers each
calibration spectrum, the spectra of FIDs of 1, 7, n//3, n - 1 and n samples,
and the amplitudes extracted from the n-sample ones, for the default FidParams
at n in {256, 257, 509, 1000, 2048, 4096, 16384}, one at n = 3000 with other
lines, decay and step, and one with a line past the last bin of its grid.  Run on
two trees on one machine, equal digests show a change bit-identical; libm may
differ between machines, so the Python and numpy versions are printed beside
them.  PYTHONPATH selects the tree that is measured:

    PYTHONPATH=src python3 .github/bit_digest.py

Imports the standard library, numpy and nvinit only.
"""
import contextlib, hashlib, io, pathlib, platform, random, struct, tempfile
import numpy as np
import nvinit
from nvinit import cli
digest, rng, counts = hashlib.sha256(), random.Random(20261020), {}
T_MAX = (0.3, 10.0, 21.0)
def feed(name, *values):    # every float of the values, as its 8 IEEE bytes
    flat = [float(v) for value in values for v in np.ravel(value)]
    digest.update(struct.pack(f"<{len(flat)}d", *flat))
    counts[name] = counts.get(name, 0) + 1
def rates():                # k_i = 0 in about half, 3 k_i = k_s exactly in 1 of 20
    k_s = nvinit.RateParams().k_s * rng.uniform(0.3, 3.0)
    k_i = 0.0 if rng.random() < 0.5 else nvinit.RateParams().k_i * rng.uniform(0.1, 10.0)
    return nvinit.RateParams(k_s, k_s / 3.0 if rng.random() < 0.05 else k_i)
def start():                # a random state; about half carry one dust entry >= -1e-9
    p = [rng.random() for _ in range(6)]
    p = [v / sum(p) for v in p]
    for i in rng.sample(range(6), rng.randint(0, 1)):
        top = p.index(max(p))
        if i != top:
            dust = -rng.uniform(0.0, 1e-9)
            p[top] += p[i] - dust
            p[i] = dust
    return p
def pulse():                # a swap of fidelity 0, 1 or between, or a laser of 0 us or more
    kind, f = rng.randrange(3), rng.choice((0.0, 1.0, rng.random(), rng.random()))
    if kind == 2:
        return nvinit.Laser(rng.choice((0.0, rng.uniform(0.0, 0.05), rng.uniform(0.0, 6.0))))
    cls, pairs = ((nvinit.MwPi, nvinit.MW_PAIRS), (nvinit.RfPi, nvinit.RF_PAIRS))[kind]
    pair = rng.choice(pairs)
    return cls(pair if rng.random() < 0.5 else pair[::-1], f)
for _ in range(2400):
    r, objective = rates(), rng.choice((nvinit.P00, nvinit.A0))
    pinned = nvinit.CycleOverrides(t1=rng.choice((0.0, rng.uniform(0.0, 2.0))),
                                   t2=rng.choice((None, 0.0, 0.46)),
                                   seg2_start=rng.choice((None, start())))
    overrides = rng.choice((None, nvinit.REFERENCE_CYCLE1_OVERRIDES, pinned))
    p0 = nvinit.initial_state(r) if rng.random() < 0.3 else start()
    s = nvinit.optimize_schedule(p0, r, objective, rng.randint(1, 20),
                                 rng.choice((nvinit.INTERLEAVED, nvinit.BLOCKED)),
                                 overrides, rng.choice(T_MAX))
    feed("schedules", s.final_purity, *[v for c in s.cycles for v in (
        c.t1, c.purity_after_seg1, c.t2, c.purity_after_seg2, c.end_state)])
    feed("optimize_laser", nvinit.optimize_laser(start(), r, objective, rng.choice(T_MAX)))
for _ in range(600):
    r, p = rates(), start()
    final, trace = nvinit.run_sequence(p, [pulse() for _ in range(rng.randint(0, 12))], r)
    feed("traces", final, *[record.state for record in trace])
    t = rng.choice((0.0, rng.uniform(0.0, 0.01), rng.uniform(0.0, 30.0)))
    feed("propagate", nvinit.propagate(p, t, r))
    feed("apply_pulse", nvinit.apply_pulse(p, pulse(), r))
def capture(path, header, rows, labels=None):   # the rows of nvinit sweep, unrounded
    for row in rows:
        feed("sweep rows", row)
cli._write_csv = capture
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    config = pathlib.Path(out, "k_i_zero.yaml")
    config.write_text("rates: {k_i_per_us: 0.0}\n", encoding="utf-8")
    for args in (["seg1"], ["seg2"], ["seg1", "--t-max", "21", "--steps", "333"],
                 ["seg2", "--t-max", "0.3", "--steps", "7"],
                 ["seg1", "--config", str(config)], ["seg2", "--config", str(config)]):
        assert cli.main(["sweep", *args, "--out", out]) == 0
readout, draws = hashlib.sha256(), random.Random(20261021)
def feed_readout(name, values):     # complex values, as two little-endian IEEE doubles each
    readout.update(np.asarray(values, dtype="<c16").tobytes())
    counts[name] = counts.get(name, 0) + 1
READOUT_PARAMS = [nvinit.FidParams(n_samples=n) for n in (256, 257, 509, 1000, 2048, 4096, 16384)]
READOUT_PARAMS += [nvinit.FidParams(detuning=-3.1, hyperfine_split=1.7, t2star=0.8, dt=0.05,
                                    n_samples=3000),     # a padded length not a power of two
                   nvinit.FidParams(detuning=15.5, hyperfine_split=0.484375, dt=0.03125,
                                    n_samples=256)]      # a line past the last bin, read at bin 0
for fp in READOUT_PARAMS:
    calibration = nvinit.calibration_spectrum(fp)
    feed_readout("calibrations", calibration.values)
    n = fp.n_samples
    for _ in range(3):
        fid = nvinit.synthesize_fid(nvinit.SpectralAmplitudes(
            *(draws.uniform(-1.0, 1.0) for _ in range(3))), fp)
        for length in (1, 7, n // 3, n - 1, n):      # the n-sample spectrum is extracted
            spec = nvinit.spectrum(fid[:length], fp)
            feed_readout("spectra", spec.values)
        feed_readout("extractions", nvinit.extract_amplitudes(spec, fp, calibration).as_array())
print("```")
print(f"bit digest {digest.hexdigest()}")
print(f"readout digest {readout.hexdigest()}")
print(f"Python {platform.python_version()}, numpy {np.__version__}; "
      + ", ".join(f"{count} {name}" for name, count in counts.items()))
print("```")
