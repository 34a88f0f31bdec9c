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
deterministic given its inputs.

main owns what the commands share: it loads the config once, resolves the
output directory (--out, else the config's output_dir, each refused when
empty) and sets the exit status.  Each command, _cmd_*(args, cfg, out),
only computes and writes.
Errors produce a single-line diagnostic on stderr and exit status 1; a
config error comes before any argument error of the command.

The two writers, _write_csv and _emit_yaml, write every number by one rule
(_fmt): 9 significant digits, and any magnitude below 1e-15 as 0, the
rounding residue of order-1 numbers.  They also own the output directory:
each makes its file's directory through _make_dir when it writes, which
refuses a path that is not a directory in one line.  Every command writes
its files before it prints, so a command refused before it writes creates
no file and no directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import _FID_KEYS, _output_dir, _read, load_config, parse_sequence
from .hamiltonian import transition_table
from .optimizer import REFERENCE_CYCLE1_OVERRIDES, optimize_schedule
from .pulses import _SWAPS, initial_state, run_sequence
from .spinmodel import _check_number, _propagate, validate_population
from .tomography import (amplitudes, calibration_spectrum, extract_amplitudes,
                         spectrum, synthesize_fid)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors stay on one stderr line."""

    def error(self, message):
        self.exit(2, "error: " + " ".join(message.split()) + "\n")


def _fmt(value) -> str:
    value = float(value)
    return "0" if -1e-15 < value < 1e-15 else f"{value:.9g}"     # NaN fails both tests


def _make_dir(path: Path) -> None:
    """Make the directory of path when it is missing; refuse one that is not a directory."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValueError(f"output directory '{path.parent}' is not a directory") from None


def _write_csv(path: Path, header, rows, labels=None) -> None:
    """Rows of numbers, each after its text cells from labels when those are given,
    to path; its directory is made first when it is missing."""
    cells = (map(_fmt, row) for row in rows)
    _make_dir(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(cells if labels is None else
                         ([*text, *row] for text, row in zip(labels, cells)))


def _plain(node):
    """A document as YAML plain data: records as dicts, arrays and tuples as lists,
    floats by _fmt's rule; ints and strings are kept."""
    if dataclasses.is_dataclass(node):
        node = dataclasses.asdict(node)
    if isinstance(node, dict):
        return {key: _plain(value) for key, value in node.items()}
    if isinstance(node, (list, tuple, np.ndarray)):
        return [_plain(value) for value in node]
    return float(_fmt(node)) if isinstance(node, float) else node


def _emit_yaml(doc: dict, path: Path | None = None) -> None:
    """Write a document to stdout, and first to path when one is given (making
    its directory when it is missing)."""
    import yaml     # only the commands that write YAML pay for the parser
    text = yaml.safe_dump(_plain(doc), sort_keys=False)
    if path is not None:
        _make_dir(path)
        path.write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _pair_text(pair) -> str:
    return "<->".join(f"({m_s},{m_i})" for m_s, m_i in pair)


def _cmd_transitions(args, cfg, out: Path) -> None:
    table = transition_table(cfg.hamiltonian)
    path = out / "transitions.csv"
    _write_csv(path, ["pair", "kind", "computed_mhz", "reference_mhz", "deviation_mhz"],
               ([computed, ref.reference_freq, deviation] for ref, computed, deviation in table),
               [(_pair_text(ref.pair), ref.kind) for ref, _, _ in table])
    print(f"wrote {path}")


def _cmd_sweep(args, cfg, out: Path) -> None:
    _check_number("--steps", args.steps, 2, integer=True)
    _check_number("--t-max", args.t_max, 0, strict=True)
    if args.segment == "seg1":
        start, swaps = initial_state(cfg.rates), _SWAPS[0]
    else:
        # The tabulated post-seg1 state, so the sweep reproduces the
        # reference figure rather than a model-chained run.
        start, swaps = REFERENCE_CYCLE1_OVERRIDES.seg2_start, _SWAPS[1]
    # The segment's swaps check the start once; no grid point is checked, and
    # each runs the laser step on the swapped state's six floats.
    state = run_sequence(start, swaps, cfg.rates)[0].tolist()
    rows = []
    for t in np.linspace(0.0, args.t_max, args.steps).tolist():
        p = _propagate(state, t, cfg.rates)     # p[i] - p[i + 3] is amplitudes(p)
        rows.append([t, *p, *(p[i] - p[i + 3] for i in range(3)), p[0] + p[1] + p[2]])
    path = out / f"sweep_{args.segment}.csv"
    _write_csv(path, ["duration_us", "p0", "p1", "p2", "p3", "p4", "p5",
                      "a_minus1", "a_plus1", "a_zero", "total_ms0"], rows)
    print(f"wrote {path}")


def _parse_state_arg(text: str) -> np.ndarray:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:          # refused below with the wrong-count message
        values = ()
    if len(values) != 6:
        raise ValueError(f"state must be six comma-separated numbers, got {text!r}")
    return validate_population(values)


def _cmd_spectrum(args, cfg, out: Path) -> None:
    state = (_parse_state_arg(args.state) if args.state is not None
             else initial_state(cfg.rates))
    fp = cfg.fid
    model = amplitudes(state)
    fid = synthesize_fid(model, fp)
    spec = spectrum(fid, fp)
    extracted = extract_amplitudes(spec, fp, calibration_spectrum(fp))

    taus = np.arange(fp.n_samples) * fp.dt
    fid_path = out / "fid.csv"
    _write_csv(fid_path, ["tau_us", "re", "im"], zip(taus, fid.real, fid.imag))
    spec_path = out / "spectrum.csv"
    _write_csv(spec_path, ["freq_mhz", "magnitude"], zip(spec.freqs_mhz, spec.magnitude()))

    _emit_yaml({
        "fid_csv": str(fid_path),
        "spectrum_csv": str(spec_path),
        "state": state,
        "fid_params": {**{key: getattr(fp, name) for key, (name, _) in _FID_KEYS.items()},
                       "padded_length": fp.padded_length},
        "fft_convention": "unnormalized forward sum, zero-padded, zero frequency centered",
        "line_frequencies_mhz": {
            "mi_minus1": fp.line_frequency(-1),
            "mi_plus1": fp.line_frequency(+1),
            "mi_zero": fp.line_frequency(0),
        },
        "model_amplitudes": model,
        "extracted_amplitudes": extracted,
    })


def _cmd_optimize(args, cfg, out: Path) -> None:
    settings = cfg.optimizer
    schedule = optimize_schedule(initial_state(cfg.rates), cfg.rates,
                                 settings.objective, settings.n_cycles,
                                 settings.strategy, settings.cycle1,
                                 t_max=settings.t_max)
    rows = [{"cycle": row.cycle, "t1_us": row.t1, "purity_after_seg1": row.purity_after_seg1,
             "t2_us": row.t2, "purity_after_seg2": row.purity_after_seg2}
            for row in schedule.cycles]
    _write_csv(out / "schedule.csv", list(rows[0]), (row.values() for row in rows))
    _emit_yaml({
        "strategy": schedule.strategy,
        "objective": settings.objective,
        "n_cycles": settings.n_cycles,
        "final_purity": schedule.final_purity,
        "end_state": schedule.end_state,
        "cycles": rows,
    }, out / "schedule.yaml")


def _cmd_simulate(args, cfg, out: Path) -> None:
    start, pulses = parse_sequence(_read(args.sequence, "sequence"))
    state = start if start is not None else initial_state(cfg.rates)
    final, trace = run_sequence(state, pulses, cfg.rates)
    _emit_yaml({
        "initial_state": state,
        "trace": [{"step": record.index, "pulse": record.description,
                   "state": record.state} for record in trace],
        "final_state": final,
    })


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
        cfg = load_config(getattr(args, "config", None))
        out = _output_dir(args.out, "--out") if hasattr(args, "out") else cfg.output_dir
        args.func(args, cfg, Path(out))
    except (ValueError, OSError) as exc:
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
