"""Scenario runner: validation, determinism, output formats, exit codes."""

import json
import math

import numpy as np
import pytest

from singleatom.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main


def run(tmp_path, args, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


class TestListAndValidate:
    def test_list_contains_scenarios(self, capsys):
        assert main(["list"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "g2" in text and "magic" in text

    def test_list_order_stable(self, capsys):
        main(["list"])
        first = capsys.readouterr().out
        main(["list"])
        second = capsys.readouterr().out
        assert first == second

    def test_validate_only_ok(self, capsys):
        code = main(["trap", "--power-mw", "44", "--waist-um", "3.5",
                     "--validate-only"])
        assert code == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_missing_key_named(self, tmp_path, capsys):
        code, out = run(tmp_path, ["g2", "--delta-mhz", "-31"])
        assert code == EXIT_VALIDATION
        assert "icl" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_grid_no_output(self, tmp_path, capsys):
        code, out = run(tmp_path, ["stirap", "--alpha-deg", "oops"])
        assert code == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("args", [
        ["g2", "--delta-mhz", "-31", "--icl", "103", "--points", "11", "--tau-max-ns"],
        ["trap", "--waist-um", "3.5", "--power-mw"],
        ["lightshift", "--power-mw", "44", "--waist-um"],
    ], ids=["g2-tau-max-ns", "trap-power-mw", "lightshift-waist-um"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, args, value):
        code, out = run(tmp_path, args + [value])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and args[-1] in err
        assert not out.exists()

    def test_out_of_range_eta_named(self, tmp_path, capsys):
        code, out = run(tmp_path, ["pair-rate", "--eta", "1.5"])
        assert code == EXIT_VALIDATION
        assert "eta" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["trap", "--power-mw", "44", "--waist-um", "3.5"]
        _, first = run(tmp_path, args, "a.csv")
        _, second = run(tmp_path, args, "b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_metadata_sidecar_deterministic(self, tmp_path):
        args = ["stirap", "--alpha-deg", "0..90:45", "--metadata"]
        _, first = run(tmp_path, args, "a.csv")
        _, second = run(tmp_path, args, "b.csv")
        meta1 = (tmp_path / "a.csv.meta.json").read_text()
        meta2 = (tmp_path / "b.csv.meta.json").read_text()
        assert meta1.replace("a.csv", "") == meta2.replace("b.csv", "")
        parsed = json.loads(meta1)
        assert parsed["scenario"] == "stirap"
        assert "alpha_deg" in parsed["parameters"]


class TestScenarios:
    def test_trap_depth_row(self, tmp_path):
        code, out = run(tmp_path, ["trap", "--power-mw", "44", "--waist-um", "3.5"])
        assert code == EXIT_OK
        header, row = out.read_text().strip().split("\n")
        values = dict(zip(header.split(","), map(float, row.split(","))))
        assert values["depth_mk"] == pytest.approx(1.0, rel=0.1)
        assert values["scatter_per_s"] == pytest.approx(24.0, rel=0.15)

    def test_stirap_sin_squared_column(self, tmp_path):
        code, out = run(tmp_path, ["stirap", "--alpha-deg", "0..180:5"])
        assert code == EXIT_OK
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 37
        for row in rows:
            alpha_deg, p = map(float, row.split(","))
            assert p == pytest.approx(math.sin(math.radians(alpha_deg)) ** 2,
                                      abs=1e-12)

    def test_g2_four_level_exceeds_two(self, tmp_path):
        code, out = run(tmp_path, [
            "g2", "--model", "four-level", "--delta-mhz", "-31",
            "--icl", "103", "--irl", "12", "--tau-max-ns", "150",
            "--points", "301"])
        assert code == EXIT_OK
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data[0, 1] == 0.0
        assert data[:, 1].max() > 2.0

    def test_bell_canonical_s_value(self, tmp_path):
        code, out = run(tmp_path, ["bell"])
        assert code == EXIT_OK
        last = out.read_text().strip().split("\n")[-1]
        assert last.startswith("S")
        assert float(last.split(",")[-1]) == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_correlations_curve(self, tmp_path):
        code, out = run(tmp_path, ["correlations", "--basis", "y",
                                   "--beta-deg", "0..90:45",
                                   "--visibility", "0.81"])
        assert code == EXIT_OK
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data[1, 1] == pytest.approx(0.5 * (1 + 0.81), abs=1e-9)

    def test_loading_rows(self, tmp_path):
        code, out = run(tmp_path, ["loading", "--rate-per-s", "1",
                                   "--power-mw", "44", "--waist-um", "3.5"])
        assert code == EXIT_OK
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        probs = data[2:]
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert probs[2:].sum() < 0.05

    def test_magic_wavelength(self, tmp_path):
        code, out = run(tmp_path, ["magic"])
        assert code == EXIT_OK
        magic = float(out.read_text().strip().split("\n")[1].split(",")[-1])
        assert magic == pytest.approx(1.40, abs=0.05)

    def test_magic_without_root_numerical_exit(self, tmp_path, capsys):
        code, out = run(tmp_path, ["magic", "--bracket-um", "2.0,2.5"])
        assert code == EXIT_NUMERICAL
        assert not out.exists()

    def test_spectrum_fit(self, tmp_path):
        from singleatom.analysis import (
            convolve_profiles, gaussian_profile, lorentzian_profile)
        from singleatom.constants import KB, RB87_LAMBDA_D2, RB87_MASS
        f = np.arange(-8e6, 8e6, 0.02e6)
        ref = convolve_profiles(lorentzian_profile(f, 0.45e6),
                                gaussian_profile(f, 0.6e6 / 2.3548))
        sigma_true = math.sqrt(2 * KB * 110e-6 / (3 * RB87_MASS)) / RB87_LAMBDA_D2
        fluor = convolve_profiles(
            ref, gaussian_profile(ref.frequency - ref.frequency.mean(), sigma_true))
        ref_path, fluor_path = tmp_path / "ref.csv", tmp_path / "fluor.csv"
        np.savetxt(ref_path, np.column_stack([ref.frequency, ref.amplitude]),
                   delimiter=",")
        np.savetxt(fluor_path, np.column_stack([fluor.frequency, fluor.amplitude]),
                   delimiter=",")
        code, out = run(tmp_path, ["spectrum-fit", "--reference", str(ref_path),
                                   "--fluorescence", str(fluor_path)])
        assert code == EXIT_OK
        rows = dict(line.split(",") for line in out.read_text().strip().split("\n")[1:])
        assert float(rows["e_kin_over_kb_uk"]) == pytest.approx(110.0, abs=15.0)

    def test_pair_rate(self, tmp_path):
        code, out = run(tmp_path, ["pair-rate", "--eta", "5e-4"])
        assert code == EXIT_OK
        rate = float(out.read_text().strip().split("\n")[1].split(",")[-1])
        assert rate == pytest.approx(3.5625, rel=1e-6)


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"power_mw": 44.0, "waist_um": 3.5}))
        code, out = run(tmp_path, ["trap", "--config", str(config)])
        assert code == EXIT_OK
        assert out.exists()

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"alpha_deg": "0", "visibility": 0.5}))
        code, out = run(tmp_path, ["stirap", "--config", str(config),
                                   "--alpha-deg", "90"])
        assert code == EXIT_OK
        row = out.read_text().strip().split("\n")[1]
        alpha, p = map(float, row.split(","))
        assert alpha == 90.0
        assert p == pytest.approx(0.5, abs=1e-12)  # visibility from the file

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"power_mw": 44.0, "frobnicate": 1}))
        code, out = run(tmp_path, ["trap", "--config", str(config),
                                   "--waist-um", "3.5"])
        assert code == EXIT_VALIDATION
        assert "frobnicate" in capsys.readouterr().err
        assert not out.exists()
