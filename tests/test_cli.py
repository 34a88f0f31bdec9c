import csv
import hashlib
import math

import pytest
import yaml

from nvinit import cli, config, optimizer, pulses, spinmodel, tomography
from nvinit.cli import main

SEG1_SEQUENCE = """\
pulses:
  - {kind: mw_pi, pair: [[0, -1], [-1, -1]]}
  - {kind: rf_pi, pair: [[-1, -1], [-1, 0]]}
  - {kind: laser, duration_us: 0.5}
"""


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestTransitions:
    def test_table(self, tmp_path, capsys):
        assert main(["transitions", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("wrote ") and "transitions.csv" in out
        rows = read_rows(tmp_path / "transitions.csv")
        assert rows[0] == ["pair", "kind", "computed_mhz",
                           "reference_mhz", "deviation_mhz"]
        assert len(rows) == 5
        assert rows[1] == ["(0,-1)<->(-1,-1)", "MW", "2697.04", "2696", "1.04"]
        kinds = [r[1] for r in rows[1:]]
        assert kinds == ["MW", "MW", "RF", "RF"]

    def test_pair_field_survives_csv_quoting(self, tmp_path):
        main(["transitions", "--out", str(tmp_path)])
        text = (tmp_path / "transitions.csv").read_text()
        assert '"(0,-1)<->(-1,-1)"' in text


class TestSweep:
    def test_seg1_defaults(self, tmp_path):
        assert main(["sweep", "seg1", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "sweep_seg1.csv")
        assert rows[0] == ["duration_us", "p0", "p1", "p2", "p3", "p4", "p5",
                           "a_minus1", "a_plus1", "a_zero", "total_ms0"]
        data = [[float(v) for v in r] for r in rows[1:]]
        assert len(data) == 201
        assert data[0][0] == 0.0 and data[-1][0] == 4.0
        # t=0 row is the swapped initialized state
        first = data[0]
        assert first[1] == pytest.approx(0.0, abs=1e-6)
        assert first[2] == pytest.approx(1 / 3, abs=1e-6)
        assert first[3] == pytest.approx(1 / 3, abs=1e-6)
        assert first[6] == pytest.approx(1 / 3, abs=1e-6)
        # frozen value at t=0.5
        at_half = data[25]
        assert at_half[0] == 0.5
        assert at_half[3] == pytest.approx(0.550350240244, abs=1e-6)
        # pumping completes by the end of the sweep
        assert data[-1][10] >= 0.99

    def test_seg1_a_zero_peak_location(self, tmp_path):
        main(["sweep", "seg1", "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "sweep_seg1.csv")[1:]
        best = max(rows, key=lambda r: float(r[9]))
        assert float(best[0]) == pytest.approx(0.78, abs=1e-9)
        assert float(best[9]) == pytest.approx(0.5254621, abs=1e-6)

    def test_seg2_start_and_frozen_point(self, tmp_path):
        assert main(["sweep", "seg2", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "sweep_seg2.csv")
        data = [[float(v) for v in r] for r in rows[1:]]
        assert data[0][1:7] == pytest.approx([0.07, 0.0, 0.55, 0.0, 0.05, 0.33],
                                             abs=1e-12)
        assert data[0][7:10] == pytest.approx([0.07, -0.05, 0.22], abs=1e-12)
        at_t2 = data[23]
        assert at_t2[0] == 0.46
        assert at_t2[3] == pytest.approx(0.7059690847074123, abs=1e-8)

    def test_custom_grid(self, tmp_path):
        main(["sweep", "seg1", "--out", str(tmp_path), "--t-max", "1", "--steps", "3"])
        rows = read_rows(tmp_path / "sweep_seg1.csv")[1:]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]

    def test_step_validation(self, tmp_path, capsys):
        assert main(["sweep", "seg1", "--out", str(tmp_path), "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: --steps must be at least 2, got 1\n"
        assert main(["sweep", "seg1", "--out", str(tmp_path), "--t-max", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: --t-max must be positive")

    def test_non_finite_t_max_is_refused(self, tmp_path, capsys):
        for bad in ("nan", "inf"):
            assert main(["sweep", "seg1", "--out", str(tmp_path), "--t-max", bad]) == 1
            err = capsys.readouterr().err
            assert err == f"error: --t-max must be finite, got {bad}\n"

    @pytest.mark.parametrize("segment", ["seg1", "seg2"])
    def test_checks_no_state_it_built(self, segment, tmp_path, monkeypatch, capsys):
        """Both starts are valid already, so no grid point is checked again."""
        checked = {"validate_population": spinmodel.validate_population,
                   "propagate": spinmodel.propagate, "amplitudes": tomography.amplitudes}
        calls = []

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)
            return wrapper

        for module in (cli, config, optimizer, pulses, spinmodel, tomography):
            for name, func in checked.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, func))
        assert main(["sweep", segment, "--out", str(tmp_path)]) == 0
        assert calls.count("validate_population") <= 1
        assert "propagate" not in calls and "amplitudes" not in calls

    def test_unknown_segment_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "seg3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestSpectrum:
    def test_published_state(self, tmp_path, capsys):
        rc = main(["spectrum", "--out", str(tmp_path),
                   "--state", "0.07,0.33,0.55,0,0,0.05"])
        assert rc == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["state"] == [0.07, 0.33, 0.55, 0.0, 0.0, 0.05]
        assert doc["model_amplitudes"] == {"a_minus1": 0.07, "a_plus1": 0.33,
                                           "a_zero": 0.5}
        got = doc["extracted_amplitudes"]
        assert got["a_minus1"] == pytest.approx(0.07, abs=1e-9)
        assert got["a_plus1"] == pytest.approx(0.33, abs=1e-9)
        assert got["a_zero"] == pytest.approx(0.5, abs=1e-9)
        assert doc["line_frequencies_mhz"] == {"mi_minus1": 6.16,
                                               "mi_plus1": 1.84, "mi_zero": 4.0}
        assert doc["fid_params"]["n_samples"] == 2048
        assert doc["fid_params"]["padded_length"] == 8192
        assert "zero frequency centered" in doc["fft_convention"]
        fid_rows = read_rows(tmp_path / "fid.csv")
        assert len(fid_rows) == 2049
        assert float(fid_rows[1][1]) == pytest.approx(0.9, abs=1e-9)
        assert float(fid_rows[1][2]) == 0.0
        spec_rows = read_rows(tmp_path / "spectrum.csv")
        assert len(spec_rows) == 8193

    def test_default_state_extracts_thirds(self, tmp_path, capsys):
        assert main(["spectrum", "--out", str(tmp_path)]) == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        for value in doc["extracted_amplitudes"].values():
            assert value == pytest.approx(1 / 3, abs=1e-6)

    def test_nan_decay_constant_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("fid:\n  t2star_us: .nan\n")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fid:") and "finite" in err
        assert err.count("\n") == 1

    def test_state_argument_validation(self, tmp_path, capsys):
        assert main(["spectrum", "--out", str(tmp_path), "--state", "0.1,0.2"]) == 1
        assert "six comma-separated numbers" in capsys.readouterr().err
        assert main(["spectrum", "--out", str(tmp_path),
                     "--state", "0.5,0.6,0,0,0,0.1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestOptimize:
    def test_default_schedule(self, tmp_path, capsys):
        assert main(["optimize", "--out", str(tmp_path)]) == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["strategy"] == "interleaved"
        assert doc["objective"] == "p00"
        assert doc["n_cycles"] == 3
        assert doc["final_purity"] == pytest.approx(0.727031525, abs=1e-9)
        assert len(doc["cycles"]) == 3
        assert doc["cycles"][0]["t1_us"] == 0.5
        assert doc["cycles"][0]["purity_after_seg2"] == pytest.approx(0.705969085,
                                                                     abs=1e-9)
        rows = read_rows(tmp_path / "schedule.csv")
        assert rows[0] == ["cycle", "t1_us", "purity_after_seg1",
                           "t2_us", "purity_after_seg2"]
        assert rows[1][:2] == ["1", "0.5"]
        on_disk = yaml.safe_load((tmp_path / "schedule.yaml").read_text())
        assert on_disk == doc

    def test_single_cycle_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("optimizer:\n  n_cycles: 1\n")
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["n_cycles"] == 1
        assert doc["final_purity"] == pytest.approx(0.705969085, abs=1e-9)

    def test_blocked_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("optimizer:\n  strategy: blocked\n")
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["strategy"] == "blocked"
        assert doc["final_purity"] == pytest.approx(0.708328541, abs=1e-9)
        assert doc["final_purity"] <= 0.727031525 + 1e-9

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["optimize", "--out", str(a)])
        main(["optimize", "--out", str(b)])
        capsys.readouterr()
        assert (a / "schedule.csv").read_bytes() == (b / "schedule.csv").read_bytes()
        assert (a / "schedule.yaml").read_bytes() == (b / "schedule.yaml").read_bytes()


    def test_t_max_bounds_the_durations(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("optimizer:\n  t_max_us: 0.1\n  n_cycles: 1\n  cycle1: null\n")
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        row = yaml.safe_load(capsys.readouterr().out)["cycles"][0]
        assert 0.0 <= row["t1_us"] <= 0.1
        assert 0.0 <= row["t2_us"] <= 0.1

    def test_rates_at_the_degeneracy(self, tmp_path, capsys):
        # k_s = 3 k_i: the propagator's two decay rates coincide
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("rates:\n  k_s_per_us: 0.6\n  k_i_per_us: 0.2\n"
                       "optimizer:\n  n_cycles: 1\n  cycle1: null\n")
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        row = doc["cycles"][0]
        assert all(math.isfinite(v) for v in doc["end_state"])
        assert all(math.isfinite(row[k]) for k in ("t1_us", "purity_after_seg1",
                                                   "t2_us", "purity_after_seg2"))
        assert main(["sweep", "seg1", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "sweep_seg1.csv")[1:]
        assert len(rows) == 201
        assert all(math.isfinite(float(v)) for r in rows for v in r)


class TestSimulate:
    def test_seg1_from_default_state(self, tmp_path, capsys):
        seq = tmp_path / "seq.yaml"
        seq.write_text(SEG1_SEQUENCE)
        assert main(["simulate", str(seq)]) == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        assert len(doc["trace"]) == 3
        assert [r["step"] for r in doc["trace"]] == [0, 1, 2]
        descriptions = " ".join(r["pulse"] for r in doc["trace"])
        assert "MW" in descriptions and "RF" in descriptions
        assert "laser" in descriptions
        assert doc["final_state"][2] == pytest.approx(0.550350240244, abs=5e-9)
        assert doc["trace"][-1]["state"] == doc["final_state"]

    def test_explicit_initial_state(self, tmp_path, capsys):
        seq = tmp_path / "seq.yaml"
        seq.write_text("initial_state: [0.07, 0.33, 0.55, 0.0, 0.0, 0.05]\n"
                       + SEG1_SEQUENCE)
        assert main(["simulate", str(seq)]) == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["initial_state"] == [0.07, 0.33, 0.55, 0.0, 0.0, 0.05]
        # after the two swaps the laser pumps from (0, .33, .55, .05, 0, .07)
        assert doc["trace"][1]["state"] == [0.0, 0.33, 0.55, 0.05, 0.0, 0.07]
        assert doc["final_state"][2] == pytest.approx(0.5350503744232245, abs=1e-9)

    def test_empty_sequence_echoes_state(self, tmp_path, capsys):
        seq = tmp_path / "seq.yaml"
        seq.write_text("initial_state: [0, 0, 1, 0, 0, 0]\n")
        assert main(["simulate", str(seq)]) == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["trace"] == []
        assert doc["final_state"] == doc["initial_state"] == [0, 0, 1, 0, 0, 0]

    # Stdout digests of an empty and a seven-pulse sequence (a reversed pair, a
    # lossy swap, lasers of 1e-7, 2 and 0 us): the trace text and states are pinned.
    @pytest.mark.parametrize("text, want", [
        ("initial_state: [0.1, 0.2, 0.3, 0.15, 0.05, 0.2]\npulses: []\n",
         "14309a64e2af5f9f872b118da54538c05e6230696f6ef7ce33bb67ca8661051f"),
        ("initial_state: [0.1, 0.2, 0.3, 0.15, 0.05, 0.2]\npulses:\n"
         "  - {kind: mw_pi, pair: [[0, -1], [-1, -1]]}\n"
         "  - {kind: laser, duration_us: 1.0e-7}\n"
         "  - {kind: rf_pi, pair: [[-1, 0], [-1, 1]], fidelity: 0.5}\n"
         "  - {kind: laser, duration_us: 2}\n"
         "  - {kind: mw_pi, pair: [[-1, 1], [0, 1]], fidelity: 0.9}\n"
         "  - {kind: laser, duration_us: 0}\n"
         "  - {kind: rf_pi, pair: [[-1, -1], [-1, 0]]}\n",
         "d741252fa3735cd99211385d33fd8cef8179d8b8681ff57d09848089b1e57c66"),
    ], ids=["empty", "seven-pulses"])
    def test_stdout_bytes(self, text, want, tmp_path, capsys):
        seq = tmp_path / "seq.yaml"
        seq.write_text(text)
        assert main(["simulate", str(seq)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want

    def test_missing_file(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.yaml")]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read sequence")

    def test_bad_pulse_kind(self, tmp_path, capsys):
        seq = tmp_path / "seq.yaml"
        seq.write_text("pulses:\n  - {kind: ramsey}\n")
        assert main(["simulate", str(seq)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ramsey" in err


    def test_nan_laser_duration_is_refused(self, tmp_path, capsys):
        seq = tmp_path / "seq.yaml"
        seq.write_text("pulses:\n  - {kind: laser, duration_us: .nan}\n")
        assert main(["simulate", str(seq)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pulses[0]:") and "finite" in err
        assert err.count("\n") == 1


BIG = "1" + "0" * 400     # an integer beyond the float range


@pytest.mark.parametrize("command, text, message", [
    ("transitions", f"fid: {{dt_us: {BIG}}}", "error: fid.dt_us must be finite"),
    ("simulate", f"pulses:\n  - {{kind: laser, duration_us: {BIG}}}",
     "error: pulses[0].duration_us must be finite"),
    ("simulate", "a: " + "[" * 500 + "]" * 500, "error: malformed document:"),
    ("transitions", "output_dir: 2001-13-45", "error: malformed document: month"),
    ("simulate", "pulses:\n  - {kind: laser, duration_us: 1" + "0" * 4400 + "}",
     "error: malformed document: Exceeds the limit (4300 digits)"),
], ids=["config-overflow", "sequence-overflow", "nested-too-deep", "config-bad-date",
        "sequence-too-many-digits"])
def test_oversized_input_is_one_line(tmp_path, capsys, command, text, message):
    doc = tmp_path / "doc.yaml"
    doc.write_text(text)
    args = ["--config", str(doc)] if command == "transitions" else [str(doc)]
    assert main([command, *args, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("command, kind", [("transitions", "config"),
                                           ("simulate", "sequence")])
def test_non_utf8_document_names_its_path(tmp_path, capsys, command, kind):
    # This used to print the codec error without the path.
    doc = tmp_path / "img.png"
    doc.write_bytes(b"\x89PNG\r\n\x1a\n")
    args = ["--config", str(doc)] if command == "transitions" else [str(doc)]
    assert main([command, *args, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read {kind} {doc}: 'utf-8' codec can't decode byte 0x89 "
        "in position 0: invalid start byte\n")


class TestGlobalFlags:
    def test_config_before_or_after_subcommand(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("output_dir: fromcfg\n")
        assert main(["--config", str(cfg), "transitions"]) == 0
        assert (tmp_path / "fromcfg" / "transitions.csv").exists()
        assert main(["transitions", "--config", str(cfg)]) == 0
        capsys.readouterr()

    def test_out_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("output_dir: fromcfg\n")
        dest = tmp_path / "flag"
        assert main(["transitions", "--config", str(cfg), "--out", str(dest)]) == 0
        capsys.readouterr()
        assert (dest / "transitions.csv").exists()
        assert not (tmp_path / "fromcfg").exists()

    def test_seed_flag_is_accepted(self, tmp_path, capsys):
        assert main(["--seed", "3", "transitions", "--out", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_bad_config_file_reports_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("rates:\n  ks: 2\n")
        assert main(["transitions", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rates.ks" in err

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transitions", "--frequency", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1


MW_SWAP_SEQUENCE = """\
pulses:
  - {kind: mw_pi, pair: [[0, -1], [-1, -1]], fidelity: 0.95}
  - {kind: rf_pi, pair: [[-1, -1], [-1, 0]]}
  - {kind: laser, duration_us: 0.5}
"""


class TestOutputDigests:
    """SHA-256 of stdout and of every written file on a fixed command set.

    Each command runs in a fresh directory with a relative --out, so the
    paths echoed on stdout do not vary.  A digest may only change together
    with an intended change of that command's output, logged in CHANGES.md.
    """

    @pytest.mark.parametrize("argv, want", [
        (["sweep", "seg1"], {
            "stdout": "3f5a39ca823427c2a65d5fe69a54004cab58dcfdf87a0e98b70106382167b610",
            "sweep_seg1.csv":
                "6ecb1c8287f1d07bd175fb79d434a21384cbe6f404658a8d8dac3c0faa608181"}),
        (["sweep", "seg2", "--t-max", "7", "--steps", "1001"], {
            "stdout": "d51cfca06e698c1936f5da74c1f09de1d9faf52f74eba39bf681abe8a18ba7bd",
            "sweep_seg2.csv":
                "d7684c87044f779228f20c94b501b3d042b5b61133681999e55df396eaa426dd"}),
        (["simulate", "seq.yaml"], {
            "stdout": "e44a105c334241f5f82969473d2acad9d2806b0340b64560a427b04aa3dd5e06"}),
        (["spectrum"], {
            "stdout": "7332825dbb4c0a849c7d53dc69aa6fbf214e89a9ecaaa868bbcb791c2eaf8755",
            "fid.csv": "f5054ac41504ee8e41c6b10b8d988f7d03d1db7f0b9a4af95194fa8ccca3dfe0",
            "spectrum.csv":
                "ea17873f5184ba1167cca6c4d002edc8ea8669d9e62300e8e910a0fc57159177"}),
        (["transitions"], {
            "stdout": "8bfb70be1b21f2e6590c482289ff5a7253a40f4c6c7c79119ff38ad485acf3e6",
            "transitions.csv":
                "8b7d814be7e444782b024ab0e169438ab2e449da7197cdb1ea23b08d6617387b"}),
        (["optimize"], {
            "stdout": "76e85de66ab7e25fa923813d633769acab32a5f063076493adeae5ad09cbbfa5",
            "schedule.csv":
                "60e4d80f6b2f81d3b9e52d6bec4e8e6b8504e41bcdad0f17409843aa09a29008",
            "schedule.yaml":
                "76e85de66ab7e25fa923813d633769acab32a5f063076493adeae5ad09cbbfa5"}),
    ], ids=["sweep-seg1", "sweep-seg2", "simulate", "spectrum", "transitions", "optimize"])
    def test_outputs_are_byte_identical(self, argv, want, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "seq.yaml").write_text(MW_SWAP_SEQUENCE)
        assert main(argv + ["--out", "out"]) == 0
        got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
        for path in sorted((tmp_path / "out").glob("*")):
            got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == want
