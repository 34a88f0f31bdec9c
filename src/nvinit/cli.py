"""Command-line front end.

Five subcommands cover the data products of the initialization study:

    transitions   reference-vs-computed transition frequency table (CSV)
    sweep         populations and line amplitudes vs laser duration (CSV)
    spectrum      FID synthesis, Fourier transform and amplitude readout
    optimize      multi-cycle laser-duration schedule (CSV + YAML)
    simulate      run a pulse-sequence document and dump the trace

Global flags --config/--out/--seed may appear before or after the
subcommand.  --seed is reserved: the model is deterministic, the flag is
accepted so batch drivers can pass it uniformly.  Every command is
deterministic given its inputs; numbers are serialized with 9
significant digits, and population entries below 1e-15 as 0.0; errors
produce a single-line diagnostic on stderr and a nonzero exit status.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np
import yaml

from .config import _read, load_config, parse_sequence
from .hamiltonian import transition_table
from .optimizer import REFERENCE_CYCLE1_OVERRIDES, optimize_schedule
from .pulses import _SWAPS, _step, initial_state, run_sequence
from .spinmodel import _check_number, _propagate, validate_population
from .tomography import (amplitudes, calibration_spectrum, extract_amplitudes,
                         spectrum, synthesize_fid)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors stay on one stderr line."""

    def error(self, message):
        self.exit(2, "error: " + " ".join(message.split()) + "\n")


def _fmt(value: float) -> str:
    return f"{float(value):.9g}"


def _round9(value: float) -> float:
    return float(_fmt(value))


def _rounded_fields(record) -> dict:
    return {name: _round9(value) for name, value in dataclasses.asdict(record).items()}


def _state_list(state) -> list:
    """The entries rounded to 9 digits; below 1e-15 an entry is rounding residue,
    whose digits depend on summation order, and is written as 0.0."""
    return [0.0 if abs(v) < 1e-15 else _round9(v) for v in np.asarray(state, dtype=float)]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _emit_yaml(doc: dict) -> None:
    sys.stdout.write(yaml.safe_dump(doc, sort_keys=False))


def _setup(args, need_out: bool = True):
    cfg = load_config(getattr(args, "config", None))
    if not need_out:
        return cfg, None
    out = Path(getattr(args, "out", None) or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _pair_text(pair) -> str:
    (a, b) = pair
    return f"({a[0]},{a[1]})<->({b[0]},{b[1]})"


def _cmd_transitions(args) -> int:
    cfg, out = _setup(args)
    rows = []
    for ref, computed, deviation in transition_table(cfg.hamiltonian):
        rows.append([_pair_text(ref.pair), ref.kind, _fmt(computed),
                     _fmt(ref.reference_freq), _fmt(deviation)])
    path = out / "transitions.csv"
    _write_csv(path, ["pair", "kind", "computed_mhz",
                      "reference_mhz", "deviation_mhz"], rows)
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg, out = _setup(args)
    _check_number("--steps", args.steps, 2, integer=True)
    _check_number("--t-max", args.t_max, 0, strict=True)
    if args.segment == "seg1":
        k, state = 0, initial_state(cfg.rates)
    else:
        # The tabulated post-seg1 state (checked when it was built), so the
        # sweep reproduces the reference figure rather than a model-chained run.
        k, state = 1, np.asarray(REFERENCE_CYCLE1_OVERRIDES.seg2_start, dtype=float)
    for pulse in _SWAPS[k]:     # both starts are valid: no state is checked again
        state = _step(state, pulse, cfg.rates)
    rows = []
    for t in np.linspace(0.0, args.t_max, args.steps):
        p = _propagate(state, float(t), cfg.rates)      # p[:3] - p[3:] is amplitudes(p)
        rows.append([_fmt(v) for v in (t, *p, *(p[:3] - p[3:]), p[0] + p[1] + p[2])])
    path = out / f"sweep_{args.segment}.csv"
    _write_csv(path, ["duration_us", "p0", "p1", "p2", "p3", "p4", "p5",
                      "a_minus1", "a_plus1", "a_zero", "total_ms0"], rows)
    print(f"wrote {path}")
    return 0


def _parse_state_arg(text: str) -> np.ndarray:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:          # refused below with the wrong-count message
        values = ()
    if len(values) != 6:
        raise ValueError(f"state must be six comma-separated numbers, got {text!r}")
    return validate_population(values)


def _cmd_spectrum(args) -> int:
    cfg, out = _setup(args)
    state = (_parse_state_arg(args.state) if args.state is not None
             else initial_state(cfg.rates))
    fp = cfg.fid
    model = amplitudes(state)
    fid = synthesize_fid(model, fp)
    spec = spectrum(fid, fp)
    extracted = extract_amplitudes(spec, fp, calibration_spectrum(fp))

    taus = np.arange(fp.n_samples) * fp.dt
    fid_path = out / "fid.csv"
    _write_csv(fid_path, ["tau_us", "re", "im"],
               ([_fmt(t), _fmt(z.real), _fmt(z.imag)] for t, z in zip(taus, fid)))
    spec_path = out / "spectrum.csv"
    magnitude = spec.magnitude()
    _write_csv(spec_path, ["freq_mhz", "magnitude"],
               ([_fmt(f), _fmt(m)] for f, m in zip(spec.freqs_mhz, magnitude)))

    _emit_yaml({
        "fid_csv": str(fid_path),
        "spectrum_csv": str(spec_path),
        "state": _state_list(state),
        "fid_params": {
            "detuning_mhz": _round9(fp.detuning),
            "hyperfine_split_mhz": _round9(fp.hyperfine_split),
            "t2star_us": _round9(fp.t2star),
            "dt_us": _round9(fp.dt),
            "n_samples": fp.n_samples,
            "padded_length": fp.padded_length,
        },
        "fft_convention": "unnormalized forward sum, zero-padded, "
                          "zero frequency centered",
        "line_frequencies_mhz": {
            "mi_minus1": _round9(fp.line_frequency(-1)),
            "mi_plus1": _round9(fp.line_frequency(+1)),
            "mi_zero": _round9(fp.line_frequency(0)),
        },
        "model_amplitudes": _rounded_fields(model),
        "extracted_amplitudes": _rounded_fields(extracted),
    })
    return 0


def _cmd_optimize(args) -> int:
    cfg, out = _setup(args)
    settings = cfg.optimizer
    schedule = optimize_schedule(initial_state(cfg.rates), cfg.rates,
                                 settings.objective, settings.n_cycles,
                                 settings.strategy, settings.cycle1,
                                 t_max=settings.t_max)
    rows = [{
        "cycle": row.cycle,
        "t1_us": _round9(row.t1),
        "purity_after_seg1": _round9(row.purity_after_seg1),
        "t2_us": _round9(row.t2),
        "purity_after_seg2": _round9(row.purity_after_seg2),
    } for row in schedule.cycles]
    # _fmt(_round9(x)) == _fmt(x), so the CSV cells come from the YAML rows.
    csv_path = out / "schedule.csv"
    _write_csv(csv_path, list(rows[0]),
               ([_fmt(v) for v in row.values()] for row in rows))
    doc = {
        "strategy": schedule.strategy,
        "objective": settings.objective,
        "n_cycles": settings.n_cycles,
        "final_purity": _round9(schedule.final_purity),
        "end_state": _state_list(schedule.end_state),
        "cycles": rows,
    }
    text = yaml.safe_dump(doc, sort_keys=False)
    (out / "schedule.yaml").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _cmd_simulate(args) -> int:
    cfg, _ = _setup(args, need_out=False)
    start, pulses = parse_sequence(_read(args.sequence, "sequence"))
    state = start if start is not None else initial_state(cfg.rates)
    final, trace = run_sequence(state, pulses, cfg.rates)
    _emit_yaml({
        "initial_state": _state_list(state),
        "trace": [{"step": record.index, "pulse": record.description,
                   "state": _state_list(record.state)} for record in trace],
        "final_state": _state_list(final),
    })
    return 0


def _build_parser() -> _Parser:
    # Subcommands take the global flags too, with SUPPRESS defaults so a flag
    # absent after the subcommand keeps the value given before it.
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--config", metavar="PATH", help="YAML configuration file")
    flags.add_argument("--out", metavar="DIR", help="output directory (default from config)")
    flags.add_argument("--seed", type=int, metavar="N", help="reserved; accepted but unused")
    parser = _Parser(prog="nvinit", parents=[flags],
                     description="Nuclear-spin initialization model tools")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("transitions", parents=[flags],
                       help="write the transition table CSV")
    p.set_defaults(func=_cmd_transitions)

    p = sub.add_parser("sweep", parents=[flags], help="sweep a segment's laser duration")
    p.add_argument("segment", choices=("seg1", "seg2"))
    p.add_argument("--t-max", type=float, default=4.0, metavar="US",
                   help="largest duration in us (default 4)")
    p.add_argument("--steps", type=int, default=201, metavar="N",
                   help="number of grid points (default 201)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("spectrum", parents=[flags],
                       help="synthesize an FID and read amplitudes back")
    p.add_argument("--state", metavar="P0,..,P5",
                   help="six comma-separated populations "
                        "(default: laser-initialized state)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("optimize", parents=[flags], help="optimize a multi-cycle schedule")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", parents=[flags], help="run a pulse-sequence document")
    p.add_argument("sequence", metavar="SEQUENCE.yaml")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
