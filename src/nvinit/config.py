"""YAML configuration and sequence documents.

One YAML schema drives every command.  All keys are optional; omitted
sections fall back to the built-in defaults (the measured rates and
spin-Hamiltonian constants).  Unknown keys are rejected with the full
dotted path so typos surface instead of silently using a default.

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
      cycle1:                # null disables the first-cycle overrides
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

import math
from dataclasses import dataclass

import yaml

from .hamiltonian import HamiltonianParams
from .optimizer import (A0, BLOCKED, INTERLEAVED, P00, REFERENCE_CYCLE1_OVERRIDES,
                        CycleOverrides)
from .pulses import Laser, MwPi, RfPi
from .spinmodel import RateParams, validate_population
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

    t_max: float = 10.0
    objective: str = P00
    n_cycles: int = 3
    strategy: str = INTERLEAVED
    cycle1: CycleOverrides | None = REFERENCE_CYCLE1_OVERRIDES

    def __post_init__(self) -> None:
        if not 0.0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be finite and positive, got {self.t_max}")
        if self.objective not in (P00, A0):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.strategy not in (INTERLEAVED, BLOCKED):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 1 <= self.n_cycles <= 20:
            raise ValueError(f"n_cycles must be in [1, 20], got {self.n_cycles}")


@dataclass(frozen=True)
class Config:
    """Everything a command needs, with defaults for what is not set."""

    rates: RateParams = RateParams()
    hamiltonian: HamiltonianParams = HamiltonianParams()
    fid: FidParams = FidParams()
    optimizer: OptimizerSettings = OptimizerSettings()
    output_dir: str = "out"


def _check_keys(mapping: dict, allowed, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {_join(path, str(key))!r}")


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
    return float(node)


def _integer(node, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(f"{path} must be an integer")
    return node


def _string(node, path: str) -> str:
    if not isinstance(node, str):
        raise ConfigError(f"{path} must be a string")
    return node


def _state_vector(node, path: str):
    if not isinstance(node, (list, tuple)):
        raise ConfigError(f"{path} must be a list of 6 numbers")
    values = tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(node))
    try:
        validate_population(values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return values


def _positive(value: float, path: str) -> float:
    if value <= 0:
        raise ConfigError(f"{path} must be positive, got {value:g}")
    return value


def _rate(section: dict, direct: str, inverse: str, path: str,
          default: float, allow_zero: bool) -> float:
    d_key, i_key = _join(path, direct), _join(path, inverse)
    if direct in section and inverse in section:
        raise ConfigError(f"{d_key} and {i_key} are mutually exclusive")
    if inverse in section:
        return 1.0 / _positive(_number(section[inverse], i_key), i_key)
    if direct in section:
        value = _number(section[direct], d_key)
        if allow_zero:
            if value < 0:
                raise ConfigError(f"{d_key} must be nonnegative, got {value:g}")
            return value
        return _positive(value, d_key)
    return default


def _parse_rates(node) -> RateParams:
    section = _mapping(node, "rates")
    _check_keys(section, {"k_s_per_us", "inv_k_s_us", "k_i_per_us", "inv_k_i_us"},
                "rates")
    defaults = RateParams()
    k_s = _rate(section, "k_s_per_us", "inv_k_s_us", "rates", defaults.k_s,
                allow_zero=False)
    k_i = _rate(section, "k_i_per_us", "inv_k_i_us", "rates", defaults.k_i,
                allow_zero=True)
    return RateParams(k_s=k_s, k_i=k_i)


_HAMILTONIAN_KEYS = {
    "d_zfs_mhz": "d_zfs",
    "gamma_e_mhz_per_mt": "gamma_e",
    "gamma_n_mhz_per_mt": "gamma_n",
    "quadrupole_mhz": "quadrupole",
    "hyperfine_mhz": "hyperfine",
    "b_field_mt": "b_field",
}

_FID_KEYS = {
    "detuning_mhz": "detuning",
    "hyperfine_split_mhz": "hyperfine_split",
    "t2star_us": "t2star",
    "dt_us": "dt",
    "n_samples": "n_samples",
}


def _parse_section(node, path: str, key_map: dict, cls, int_keys=()):
    section = _mapping(node, path)
    _check_keys(section, key_map.keys(), path)
    kwargs = {}
    for key, field in key_map.items():
        if key not in section:
            continue
        full = _join(path, key)
        if key in int_keys:
            kwargs[field] = _integer(section[key], full)
        else:
            kwargs[field] = _number(section[key], full)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_cycle1(node, path: str) -> CycleOverrides | None:
    if node is None:
        return None
    section = _mapping(node, path)
    _check_keys(section, {"t1_us", "t2_us", "seg2_start"}, path)
    kwargs = {}
    if "t1_us" in section:
        kwargs["t1"] = _number(section["t1_us"], _join(path, "t1_us"))
    if "t2_us" in section:
        kwargs["t2"] = _number(section["t2_us"], _join(path, "t2_us"))
    if "seg2_start" in section and section["seg2_start"] is not None:
        kwargs["seg2_start"] = _state_vector(section["seg2_start"],
                                             _join(path, "seg2_start"))
    try:
        return CycleOverrides(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_optimizer(node) -> OptimizerSettings:
    section = _mapping(node, "optimizer")
    _check_keys(section, {"t_max_us", "objective", "n_cycles", "strategy", "cycle1"},
                "optimizer")
    kwargs = {}
    if "t_max_us" in section:
        kwargs["t_max"] = _number(section["t_max_us"], "optimizer.t_max_us")
    if "objective" in section:
        kwargs["objective"] = _string(section["objective"], "optimizer.objective")
    if "n_cycles" in section:
        kwargs["n_cycles"] = _integer(section["n_cycles"], "optimizer.n_cycles")
    if "strategy" in section:
        kwargs["strategy"] = _string(section["strategy"], "optimizer.strategy")
    if "cycle1" in section:
        kwargs["cycle1"] = _parse_cycle1(section["cycle1"], "optimizer.cycle1")
    try:
        return OptimizerSettings(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from None


def _load_yaml(text: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("malformed document: " + " ".join(str(exc).split())) from None


def parse_config(text: str) -> Config:
    """Parse a YAML configuration document; empty input means all defaults."""
    root = _mapping(_load_yaml(text), "")
    _check_keys(root, {"rates", "hamiltonian", "fid", "optimizer", "output_dir"}, "")
    output_dir = "out"
    if "output_dir" in root:
        output_dir = _string(root["output_dir"], "output_dir")
        if not output_dir:
            raise ConfigError("output_dir must be a non-empty string")
    return Config(
        rates=_parse_rates(root.get("rates")),
        hamiltonian=_parse_section(root.get("hamiltonian"), "hamiltonian",
                                   _HAMILTONIAN_KEYS, HamiltonianParams),
        fid=_parse_section(root.get("fid"), "fid", _FID_KEYS, FidParams,
                           int_keys={"n_samples"}),
        optimizer=_parse_optimizer(root.get("optimizer")),
        output_dir=output_dir,
    )


def load_config(path: str | None) -> Config:
    """Read and parse a configuration file; None gives the defaults."""
    if path is None:
        return Config()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
    return parse_config(text)


def _parse_pair(node, path: str):
    if (not isinstance(node, (list, tuple)) or len(node) != 2
            or not all(isinstance(lv, (list, tuple)) and len(lv) == 2 for lv in node)):
        raise ConfigError(f"{path} must be two (m_s, m_I) pairs")
    return tuple((_integer(lv[0], f"{path}[{i}][0]"), _integer(lv[1], f"{path}[{i}][1]"))
                 for i, lv in enumerate(node))


_PULSE_KEYS = {
    "mw_pi": {"kind", "pair", "fidelity"},
    "rf_pi": {"kind", "pair", "fidelity"},
    "laser": {"kind", "duration_us"},
}


def _parse_pulse(node, path: str):
    entry = _mapping(node, path)
    kind = entry.get("kind")
    if kind not in _PULSE_KEYS:
        raise ConfigError(f"{_join(path, 'kind')}: unknown pulse kind {kind!r}")
    _check_keys(entry, _PULSE_KEYS[kind], path)
    try:
        if kind == "laser":
            if "duration_us" not in entry:
                raise ConfigError(f"{_join(path, 'duration_us')} is required")
            return Laser(_number(entry["duration_us"], _join(path, "duration_us")))
        if "pair" not in entry:
            raise ConfigError(f"{_join(path, 'pair')} is required")
        pair = _parse_pair(entry["pair"], _join(path, "pair"))
        fidelity = 1.0
        if "fidelity" in entry:
            fidelity = _number(entry["fidelity"], _join(path, "fidelity"))
        cls = MwPi if kind == "mw_pi" else RfPi
        return cls(pair, fidelity)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def parse_sequence(text: str):
    """Parse a pulse-sequence document.

    Returns
    -------
    (tuple | None, tuple)
        Optional initial state and the pulse list, in order.  An absent
        or empty pulse list is allowed (the input state passes through).
    """
    root = _mapping(_load_yaml(text), "")
    _check_keys(root, {"initial_state", "pulses"}, "")
    state = None
    if root.get("initial_state") is not None:
        state = _state_vector(root["initial_state"], "initial_state")
    pulses_node = root.get("pulses")
    if pulses_node is None:
        return state, ()
    if not isinstance(pulses_node, list):
        raise ConfigError("pulses must be a list")
    pulses = tuple(_parse_pulse(entry, f"pulses[{i}]")
                   for i, entry in enumerate(pulses_node))
    return state, pulses
