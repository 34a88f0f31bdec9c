import re

import pytest

from nvinit.config import (Config, ConfigError, OptimizerSettings, load_config,
                           parse_config, parse_sequence)
from nvinit.optimizer import REFERENCE_CYCLE1_OVERRIDES, CycleOverrides, optimize_schedule
from nvinit.pulses import Laser, MwPi, RfPi, initial_state


class TestDefaults:
    def test_empty_document(self):
        cfg = parse_config("")
        assert cfg == Config()
        assert cfg.rates.k_s == pytest.approx(1 / 0.27)
        assert cfg.rates.k_i == pytest.approx(1 / 4.76)
        assert cfg.optimizer.cycle1 == REFERENCE_CYCLE1_OVERRIDES
        assert cfg.output_dir == "out"

    def test_empty_mapping(self):
        assert parse_config("{}") == Config()

    def test_load_without_path(self):
        assert load_config(None) == Config()


class TestRates:
    def test_inverse_forms_are_exact_reciprocals(self):
        cfg = parse_config("rates:\n  inv_k_s_us: 0.27\n  inv_k_i_us: 4.76\n")
        assert cfg.rates.k_s == 1.0 / 0.27
        assert cfg.rates.k_i == 1.0 / 4.76

    def test_direct_forms(self):
        cfg = parse_config("rates:\n  k_s_per_us: 2.0\n  k_i_per_us: 0.0\n")
        assert cfg.rates.k_s == 2.0
        assert cfg.rates.k_i == 0.0

    def test_both_forms_rejected(self):
        with pytest.raises(ConfigError,
                           match="rates.k_s_per_us and rates.inv_k_s_us"):
            parse_config("rates:\n  k_s_per_us: 2.0\n  inv_k_s_us: 0.5\n")

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError, match="rates.k_s_per_us"):
            parse_config("rates:\n  k_s_per_us: 0\n")
        with pytest.raises(ConfigError, match="rates.inv_k_i_us"):
            parse_config("rates:\n  inv_k_i_us: -4.76\n")


class TestSections:
    def test_hamiltonian_overrides(self):
        cfg = parse_config("hamiltonian:\n  quadrupole_mhz: 4.95\n  b_field_mt: 0\n")
        assert cfg.hamiltonian.quadrupole == 4.95
        assert cfg.hamiltonian.b_field == 0.0
        assert cfg.hamiltonian.d_zfs == 2870.0

    def test_fid_overrides(self):
        cfg = parse_config("fid:\n  detuning_mhz: 6\n  n_samples: 4096\n")
        assert cfg.fid.detuning == 6.0
        assert cfg.fid.n_samples == 4096

    def test_fid_validation_is_wrapped(self):
        with pytest.raises(ConfigError, match="^fid:"):
            parse_config("fid:\n  n_samples: 100\n")

    def test_n_samples_must_be_integer(self):
        with pytest.raises(ConfigError, match="fid.n_samples must be an integer"):
            parse_config("fid:\n  n_samples: 2048.5\n")

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ConfigError, match="hamiltonian.d_zfs_mhz must be a number"):
            parse_config("hamiltonian:\n  d_zfs_mhz: true\n")

    def test_output_dir(self):
        assert parse_config("output_dir: results\n").output_dir == "results"
        with pytest.raises(ConfigError, match="output_dir"):
            parse_config("output_dir: ''\n")


class TestOptimizerSection:
    def test_all_fields(self):
        cfg = parse_config(
            "optimizer:\n"
            "  t_max_us: 2.5\n"
            "  objective: a0\n"
            "  n_cycles: 5\n"
            "  strategy: blocked\n"
        )
        opt = cfg.optimizer
        assert opt == OptimizerSettings(t_max=2.5, objective="a0", n_cycles=5,
                                        strategy="blocked")
        assert opt.cycle1 == REFERENCE_CYCLE1_OVERRIDES

    def test_cycle1_null_disables_overrides(self):
        cfg = parse_config("optimizer:\n  cycle1: null\n")
        assert cfg.optimizer.cycle1 == CycleOverrides()

    def test_cycle1_partial(self):
        cfg = parse_config("optimizer:\n  cycle1:\n    t1_us: 0.4\n")
        assert cfg.optimizer.cycle1 == CycleOverrides(t1=0.4)

    def test_cycle1_full(self):
        cfg = parse_config(
            "optimizer:\n"
            "  cycle1:\n"
            "    t1_us: 0.5\n"
            "    t2_us: 0.46\n"
            "    seg2_start: [0.07, 0.33, 0.55, 0.0, 0.0, 0.05]\n"
        )
        assert cfg.optimizer.cycle1 == REFERENCE_CYCLE1_OVERRIDES

    def test_cycle1_bad_state(self):
        with pytest.raises(ConfigError, match="optimizer.cycle1.seg2_start"):
            parse_config("optimizer:\n  cycle1:\n    seg2_start: [1, 0, 0]\n")

    def test_invalid_settings_are_wrapped(self):
        with pytest.raises(ConfigError, match="^optimizer:"):
            parse_config("optimizer:\n  n_cycles: 0\n")
        with pytest.raises(ConfigError, match="^optimizer:"):
            parse_config("optimizer:\n  strategy: round-robin\n")

    def test_t_max_must_be_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="t_max must be finite"):
                OptimizerSettings(t_max=bad)
        with pytest.raises(ConfigError, match="^optimizer:"):
            parse_config("optimizer:\n  t_max_us: .nan\n")

    @pytest.mark.parametrize("kwargs", [
        {"n_cycles": True}, {"n_cycles": 2.5}, {"n_cycles": 21}, {"objective": "bogus"},
        {"strategy": "round-robin"}, {"t_max": float("nan")}])
    def test_settings_follow_the_optimizer_rules(self, kwargs):
        # One set of rules: OptimizerSettings refuses exactly what
        # optimize_schedule refuses, with the same message.
        with pytest.raises(ValueError) as settings_exc:
            OptimizerSettings(**kwargs)
        with pytest.raises(ValueError) as schedule_exc:
            optimize_schedule(initial_state(), **kwargs)
        assert str(settings_exc.value) == str(schedule_exc.value)


class TestDocumentErrors:
    def test_unknown_root_key(self):
        with pytest.raises(ConfigError, match="unknown key 'outputdir'"):
            parse_config("outputdir: out\n")

    def test_unknown_nested_key_uses_dotted_path(self):
        with pytest.raises(ConfigError, match="unknown key 'rates.ks'"):
            parse_config("rates:\n  ks: 2\n")
        with pytest.raises(ConfigError, match="unknown key 'optimizer.cycle1.t1'"):
            parse_config("optimizer:\n  cycle1:\n    t1: 0.5\n")

    def test_malformed_yaml(self):
        with pytest.raises(ConfigError, match="malformed document"):
            parse_config("rates: [1, 2\n")

    def test_non_mapping_root(self):
        with pytest.raises(ConfigError, match="must be a mapping"):
            parse_config("- 1\n- 2\n")

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)


BIG = "1" + "0" * 400     # an integer beyond the float range


#: Dotted key -> document setting it to BIG, per parser.
CONFIG_OVERFLOWS = {
    "fid.dt_us": f"fid: {{dt_us: {BIG}}}",
    "hamiltonian.b_field_mt": f"hamiltonian: {{b_field_mt: {BIG}}}",
    "rates.k_s_per_us": f"rates: {{k_s_per_us: {BIG}}}",
    "rates.inv_k_i_us": f"rates: {{inv_k_i_us: {BIG}}}",
    "optimizer.t_max_us": f"optimizer: {{t_max_us: {BIG}}}",
    "optimizer.cycle1.t1_us": f"optimizer: {{cycle1: {{t1_us: {BIG}}}}}",
    "optimizer.cycle1.seg2_start[0]":
        f"optimizer: {{cycle1: {{seg2_start: [{BIG}, 0, 0, 0, 0, 0]}}}}",
}
SEQUENCE_OVERFLOWS = {
    "initial_state[1]": f"initial_state: [0, {BIG}, 0, 0, 0, 0]",
    "pulses[0].duration_us": f"pulses:\n  - {{kind: laser, duration_us: {BIG}}}",
    "pulses[0].fidelity":
        f"pulses:\n  - {{kind: rf_pi, pair: [[-1, -1], [-1, 0]], fidelity: {BIG}}}",
}


class TestOversizedInput:
    @pytest.mark.parametrize("key", CONFIG_OVERFLOWS)
    def test_config_integer_beyond_float_range(self, key):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be finite, got {BIG}$"):
            parse_config(CONFIG_OVERFLOWS[key])

    @pytest.mark.parametrize("key", SEQUENCE_OVERFLOWS)
    def test_sequence_integer_beyond_float_range(self, key):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be finite, got {BIG}$"):
            parse_sequence(SEQUENCE_OVERFLOWS[key])

    @pytest.mark.parametrize("parse", [parse_config, parse_sequence])
    def test_document_nested_too_deep(self, parse):
        with pytest.raises(ConfigError, match="^malformed document: .*recursion") as info:
            parse("a: " + "[" * 500 + "]" * 500)
        assert "\n" not in str(info.value)

    # PyYAML's constructors refuse these with a ValueError of their own.
    @pytest.mark.parametrize("parse, text, message", [
        (parse_config, "output_dir: 2001-13-45", "month must be in 1..12"),
        (parse_config, "fid: {dt_us: 1" + "0" * 4400 + "}", "4300 digits"),
        (parse_sequence, "initial_state: 2001-13-45", "month must be in 1..12"),
        (parse_sequence, "pulses:\n  - {kind: laser, duration_us: 1" + "0" * 4400 + "}",
         "4300 digits"),
    ], ids=["config-date", "config-digits", "sequence-date", "sequence-digits"])
    def test_value_refused_by_yaml_is_malformed(self, parse, text, message):
        with pytest.raises(ConfigError, match=f"^malformed document: .*{re.escape(message)}"):
            parse(text)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("rates:\n  inv_k_s_us: 0.27\noutput_dir: run1\n")
        cfg = load_config(str(path))
        assert cfg.rates.k_s == 1.0 / 0.27
        assert cfg.output_dir == "run1"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "nope.yaml"))

    def test_non_utf8_file_names_its_path(self, tmp_path):
        # This used to raise a bare UnicodeDecodeError, not a ConfigError.
        path = tmp_path / "img.png"
        path.write_bytes(b"\x89PNG\r\n\x1a\n")
        message = (f"cannot read config {path}: 'utf-8' codec can't decode byte 0x89 "
                   "in position 0: invalid start byte")
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            load_config(str(path))


SEQUENCE = """\
initial_state: [0.07, 0.33, 0.55, 0.0, 0.0, 0.05]
pulses:
  - {kind: mw_pi, pair: [[0, -1], [-1, -1]], fidelity: 0.98}
  - {kind: rf_pi, pair: [[-1, -1], [-1, 0]]}
  - {kind: laser, duration_us: 0.5}
"""


class TestParseSequence:
    def test_full_document(self):
        state, pulses = parse_sequence(SEQUENCE)
        assert state == (0.07, 0.33, 0.55, 0.0, 0.0, 0.05)
        assert [type(p) for p in pulses] == [MwPi, RfPi, Laser]
        assert pulses[0].pair == ((0, -1), (-1, -1))
        assert pulses[0].swap_fidelity == 0.98
        assert pulses[1].swap_fidelity == 1.0
        assert pulses[2].duration == 0.5

    def test_empty_document(self):
        assert parse_sequence("") == (None, ())

    def test_pulses_without_state(self):
        state, pulses = parse_sequence("pulses:\n  - {kind: laser, duration_us: 1}\n")
        assert state is None
        assert len(pulses) == 1

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown pulse kind 'ramsey'"):
            parse_sequence("pulses:\n  - {kind: ramsey}\n")

    def test_missing_pair(self):
        with pytest.raises(ConfigError, match="pulses\\[0\\].pair is required"):
            parse_sequence("pulses:\n  - {kind: mw_pi}\n")

    def test_missing_duration(self):
        with pytest.raises(ConfigError, match="duration_us is required"):
            parse_sequence("pulses:\n  - {kind: laser}\n")

    def test_invalid_pair_is_wrapped(self):
        text = "pulses:\n  - {kind: rf_pi, pair: [[0, -1], [-1, -1]]}\n"
        with pytest.raises(ConfigError, match="^pulses\\[0\\]:"):
            parse_sequence(text)

    def test_unknown_pulse_key(self):
        text = "pulses:\n  - {kind: laser, duration_us: 1, power: 3}\n"
        with pytest.raises(ConfigError, match="pulses\\[0\\].power"):
            parse_sequence(text)

    def test_pulses_must_be_list(self):
        with pytest.raises(ConfigError, match="pulses must be a list"):
            parse_sequence("pulses: {kind: laser}\n")

    def test_bad_fidelity_is_wrapped(self):
        text = "pulses:\n  - {kind: mw_pi, pair: [[0, -1], [-1, -1]], fidelity: 1.5}\n"
        with pytest.raises(ConfigError, match="^pulses\\[0\\]:"):
            parse_sequence(text)
