"""YAML configuration and sequence documents.

One YAML schema drives every command.  All keys are optional; omitted
sections fall back to the built-in defaults (the measured rates and
spin-Hamiltonian constants).  Unknown keys are rejected with the full
dotted path so typos surface instead of silently using a default.  One
reader, _parse_section, reads every mapping from a key table (a rate key
and its inverse fill one field, so they exclude each other) and checks
values by the library's own rules.  _read alone opens a document file: a
missing or non-UTF-8 one is a ConfigError naming its path.

    rates:
      k_s_per_us: 3.7037     # or inv_k_s_us: 0.27 (not both)
      k_i_per_us: 0.21008    # or inv_k_i_us: 4.76
    hamiltonian:
      d_zfs_mhz: 2870.0
      gamma_e_mhz_per_mt: -28.0
      gamma_n_mhz_per_mt: -3.1e-3
      quadrupole_mhz: 4.5
      hyperfine_mhz: -2.16
      b_field_mt: 6.1
    fid:
      detuning_mhz: 4.0
      hyperfine_split_mhz: -2.16
      t2star_us: 2.0
      dt_us: 0.02
      n_samples: 2048
    optimizer:
      t_max_us: 10.0
      objective: p00         # or a0
      n_cycles: 3
      strategy: interleaved  # or blocked
      cycle1:                # null or {}: no first-cycle overrides
        t1_us: 0.5
        t2_us: 0.46
        seg2_start: [0.07, 0.33, 0.55, 0.0, 0.0, 0.05]
    output_dir: out

Pulse sequences for the simulate command use a second small schema:

    initial_state: [...]     # optional, 6 populations
    pulses:
      - {kind: mw_pi, pair: [[0, -1], [-1, -1]], fidelity: 1.0}
      - {kind: rf_pi, pair: [[-1, -1], [-1, 0]]}
      - {kind: laser, duration_us: 0.5}
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .hamiltonian import HamiltonianParams
from .optimizer import (INTERLEAVED, P00, REFERENCE_CYCLE1_OVERRIDES, _T_MAX, CycleOverrides,
                        _check_rules)
from .pulses import Laser, MwPi, RfPi
from .spinmodel import RateParams, _check_number, validate_population
from .tomography import FidParams

__all__ = [
    "ConfigError",
    "OptimizerSettings",
    "Config",
    "parse_config",
    "load_config",
    "parse_sequence",
]


class ConfigError(ValueError):
    """Malformed or invalid configuration; message names the offending key."""


@dataclass(frozen=True)
class OptimizerSettings:
    """Schedule-level knobs for the optimize command."""

    t_max: float = _T_MAX
    objective: str = P00
    n_cycles: int = 3
    strategy: str = INTERLEAVED
    cycle1: CycleOverrides = REFERENCE_CYCLE1_OVERRIDES

    def __post_init__(self) -> None:
        _check_rules(self.objective, self.t_max, self.strategy, self.n_cycles, self.cycle1)


@dataclass(frozen=True)
class Config:
    """Everything a command needs, with defaults for what is not set."""

    rates: RateParams = RateParams()
    hamiltonian: HamiltonianParams = HamiltonianParams()
    fid: FidParams = FidParams()
    optimizer: OptimizerSettings = OptimizerSettings()
    output_dir: str = "out"


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _mapping(node, path: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{path or 'document'} must be a mapping")
    return node


def _number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{path} must be a number")
    try:
        return float(node)
    except OverflowError:           # an integer beyond the float range
        raise ConfigError(f"{path} must be finite, got {node}") from None


def _integer(node, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(f"{path} must be an integer")
    return node


def _string(node, path: str) -> str:
    if not isinstance(node, str):
        raise ConfigError(f"{path} must be a string")
    return node


def _state_vector(node, path: str):
    if node is None:                # null: no state given
        return None
    if not isinstance(node, (list, tuple)):
        raise ConfigError(f"{path} must be a list of 6 numbers")
    values = tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(node))
    try:
        validate_population(values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return values


def _rate(strict: bool = False, inverse: bool = False):
    """Reader of a rate key: a rate >= 0 (> 0 when strict), or a lifetime > 0 when inverse."""
    def read(node, path: str) -> float:
        try:
            value = _check_number(path, _number(node, path), 0, strict=strict or inverse)
            return _check_number(f"1 / {path}", 1.0 / value) if inverse else value
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return read


def _output_dir(node, path: str) -> str:
    if not _string(node, path):
        raise ConfigError(f"{path} must be a non-empty string")
    return node


def _parse_section(node, path: str, table: dict, cls, required: str | None = None):
    """Build cls from a mapping; table maps each key to (field, reader), read in table order."""
    section = _mapping(node, path)
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown key {_join(path, str(key))!r}")
    if required is not None and required not in section:
        raise ConfigError(f"{_join(path, required)} is required")
    kwargs = {}
    for key, (field, reader) in table.items():
        if key in section:
            given = [_join(path, k) for k, (f, _) in table.items() if f == field and k in section]
            if len(given) > 1:      # two keys that fill one field exclude each other
                raise ConfigError(" and ".join(given) + " are mutually exclusive")
            kwargs[field] = reader(section[key], _join(path, key))
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


_RATE_KEYS = {
    "k_s_per_us": ("k_s", _rate(strict=True)),
    "inv_k_s_us": ("k_s", _rate(inverse=True)),
    "k_i_per_us": ("k_i", _rate()),
    "inv_k_i_us": ("k_i", _rate(inverse=True)),
}

_HAMILTONIAN_KEYS = {
    "d_zfs_mhz": ("d_zfs", _number),
    "gamma_e_mhz_per_mt": ("gamma_e", _number),
    "gamma_n_mhz_per_mt": ("gamma_n", _number),
    "quadrupole_mhz": ("quadrupole", _number),
    "hyperfine_mhz": ("hyperfine", _number),
    "b_field_mt": ("b_field", _number),
}

_FID_KEYS = {
    "detuning_mhz": ("detuning", _number),
    "hyperfine_split_mhz": ("hyperfine_split", _number),
    "t2star_us": ("t2star", _number),
    "dt_us": ("dt", _number),
    "n_samples": ("n_samples", _integer),
}

_CYCLE1_KEYS = {
    "t1_us": ("t1", _number),
    "t2_us": ("t2", _number),
    "seg2_start": ("seg2_start", _state_vector),
}


def _section(table: dict, cls):
    """Reader of a nested section built from table."""
    return lambda node, path: _parse_section(node, path, table, cls)


_OPTIMIZER_KEYS = {
    "t_max_us": ("t_max", _number),
    "objective": ("objective", _string),
    "n_cycles": ("n_cycles", _integer),
    "strategy": ("strategy", _string),
    "cycle1": ("cycle1", _section(_CYCLE1_KEYS, CycleOverrides)),
}

# Keys are read in table order, so an output_dir error is reported before a
# section's.
_ROOT_KEYS = {
    "output_dir": ("output_dir", _output_dir),
    "rates": ("rates", _section(_RATE_KEYS, RateParams)),
    "hamiltonian": ("hamiltonian", _section(_HAMILTONIAN_KEYS, HamiltonianParams)),
    "fid": ("fid", _section(_FID_KEYS, FidParams)),
    "optimizer": ("optimizer", _section(_OPTIMIZER_KEYS, OptimizerSettings)),
}


@functools.cache
def _loader():
    """yaml.SafeLoader that also reads YAML 1.2 exponent floats: 1e-3, 2E5, 1.5e3.

    PyYAML follows YAML 1.1, where an exponent needs a dot and a sign, and
    reads these as text; a quoted "1e-3" stays text.
    """
    import yaml     # here, not at module level: import nvinit loads no YAML parser

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"), list("-+.0123456789"))
    return Loader


def _load_yaml(text: str):
    if not (isinstance(text, (str, bytes)) or hasattr(text, "read")):    # text or a stream
        raise ConfigError(f"a document must be text or a stream, got {type(text).__name__}")
    import yaml
    try:
        return yaml.load(text, Loader=_loader())
    # RecursionError: nested too deeply; ValueError: a constructor refused a value (2001-13-45)
    except (yaml.YAMLError, RecursionError, ValueError) as exc:
        raise ConfigError("malformed document: " + " ".join(str(exc).split())) from None


def parse_config(text: str) -> Config:
    """Parse a YAML configuration document; empty input means all defaults."""
    return _parse_section(_load_yaml(text), "", _ROOT_KEYS, Config)


def _read(path: str, kind: str) -> str:
    """The text of a document file; the one place a document is opened."""
    if isinstance(path, int):   # open() would take it (a bool too) as a file descriptor
        raise ConfigError(f"{kind} path must be a str, bytes or os.PathLike, "
                          f"got {type(path).__name__}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {kind} {path}: {reason}") from None


def load_config(path: str | None) -> Config:
    """Read and parse a configuration file; None gives the defaults."""
    return Config() if path is None else parse_config(_read(path, "config"))


def _parse_pair(node, path: str):
    if (not isinstance(node, (list, tuple)) or len(node) != 2
            or not all(isinstance(lv, (list, tuple)) and len(lv) == 2 for lv in node)):
        raise ConfigError(f"{path} must be two (m_s, m_I) pairs")
    return tuple((_integer(lv[0], f"{path}[{i}][0]"), _integer(lv[1], f"{path}[{i}][1]"))
                 for i, lv in enumerate(node))


_SWAP_KEYS = {"pair": ("pair", _parse_pair), "fidelity": ("swap_fidelity", _number)}

#: Pulse kind -> (class, key table, required key); "kind" itself is read first.
_PULSES = {
    "mw_pi": (MwPi, _SWAP_KEYS, "pair"),
    "rf_pi": (RfPi, _SWAP_KEYS, "pair"),
    "laser": (Laser, {"duration_us": ("duration", _number)}, "duration_us"),
}


def _parse_pulse(node, path: str):
    entry = dict(_mapping(node, path))
    kind = entry.pop("kind", None)
    if not isinstance(kind, str) or kind not in _PULSES:
        raise ConfigError(f"{_join(path, 'kind')}: unknown pulse kind {kind!r}")
    cls, table, required = _PULSES[kind]
    return _parse_section(entry, path, table, cls, required)


def _pulse_list(node, path: str) -> tuple:
    if node is None:                # null: no pulses
        return ()
    if not isinstance(node, list):
        raise ConfigError(f"{path} must be a list")
    return tuple(_parse_pulse(entry, f"{path}[{i}]") for i, entry in enumerate(node))


_SEQUENCE_KEYS = {
    "initial_state": ("state", _state_vector),
    "pulses": ("pulses", _pulse_list),
}


def parse_sequence(text: str):
    """Parse a pulse-sequence document.

    Returns
    -------
    (tuple | None, tuple)
        Optional initial state and the pulse list, in order.  An absent,
        null or empty pulse list is allowed (the input state passes through).
    """
    return _parse_section(_load_yaml(text), "", _SEQUENCE_KEYS,
                          lambda state=None, pulses=(): (state, pulses))
