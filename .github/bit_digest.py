"""Bit digest: one sha256 over the IEEE bytes of a seeded set of nvinit results.

The set: optimize_schedule calls (both strategies and objectives, k_i = 0 in
about half, t_max in {0.3, 10, 21} us, three kinds of first-cycle overrides,
starts with dust down to -1e-9), optimize_laser, run_sequence traces with swap
fidelities in [0, 1], propagate and apply_pulse, and the rows of nvinit sweep
before they are rounded.  Run on two trees on one machine, equal digests show a
change bit-identical; libm may differ between machines, so the Python and numpy
versions are printed beside it.  PYTHONPATH selects the tree that is measured:

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
print("```")
print(f"bit digest {digest.hexdigest()}")
print(f"Python {platform.python_version()}, numpy {np.__version__}; "
      + ", ".join(f"{count} {name}" for name, count in counts.items()))
print("```")
