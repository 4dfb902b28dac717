"""Scenario runner: validation, determinism, output formats, exit codes."""

import contextlib
import io
import json
import math
import pathlib
import re
import warnings
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singleatom.cli import (
    COMMANDS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    MAX_POINTS,
    SCENARIOS,
    SPECS,
    ValidationError,
    _COMMON,
    _args,
    _parse_grid,
    _plain_args,
    build_parser,
    main,
)
from singleatom.cli_common import _named


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

    def test_bare_invocation_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_VALIDATION and captured.out == ""
        assert captured.err == "validation: the following arguments are required: scenario\n"

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

    @pytest.mark.parametrize("args", [
        ["larmor", "--points", "3", "--b-mgauss", "nan"],
        ["larmor", "--b-mgauss", "100", "--points", "3", "--g-f", "inf"],
        ["bell", "--phi-a-deg", "nan"],
        ["bell", "--noise-p=-inf"],
        ["stirap", "--alpha-deg", "nan"],
        ["stirap", "--alpha-deg", "0..nan:5"],
        ["stirap", "--alpha-deg", "0..90:inf"],
        ["correlations", "--beta-deg=-inf..0:5"],
        ["loading", "--power-mw", "44", "--waist-um", "3.5", "--rate-per-s", "nan"],
        ["magic", "--bracket-um", "nan,1.6"],
        ["magic", "--bracket-um", "1.2,inf"],
        ["g2", "--icl", "103", "--points", "5", "--delta-mhz", "nan"],
        ["pair-rate", "--eta", "0.001", "--cycle-us", "nan"],
    ], ids=lambda args: "-".join(args[:1] + args[-2:]))
    def test_every_non_finite_flag_rejected(self, tmp_path, capsys, args):
        flag = args[-1].split("=")[0] if "=" in args[-1] else args[-2]
        code, out = run(tmp_path, args)
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation: ") and err.count("\n") == 1
        assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize("args,flag", [
        (["magic", "--bracket-um=1.2"], "--bracket-um"),
        (["magic", "--bracket-um=a,b"], "--bracket-um"),
        (["g2", "--delta-mhz", "-31", "--icl", "103", "--points=abc"], "--points"),
        (["trap", "--power-mw", "44", "--waist-um", "3.5", "--frobnicate"], "--frobnicate"),
    ], ids=["bracket-one-value", "bracket-not-numbers", "points-not-int", "unknown-flag"])
    def test_malformed_command_line_one_line(self, tmp_path, capsys, args, flag):
        # argparse's own refusals: exit 2 with one line, no usage block
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, args)
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_VALIDATION and not (tmp_path / "out.csv").exists()
        assert err.startswith("validation: ") and err.count("\n") == 1 and flag in err

    @pytest.mark.parametrize("args", [
        ["g2", "--delta-mhz", "-31", "--icl", "103", "--points"],
        ["larmor", "--b-mgauss", "100", "--points"],
    ], ids=["g2", "larmor"])
    def test_points_bounded(self, tmp_path, capsys, args):
        code, out = run(tmp_path, args + [str(MAX_POINTS + 1)])
        assert code == EXIT_VALIDATION
        assert "--points" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_length_bounded(self, tmp_path, capsys):
        code, out = run(tmp_path, ["stirap", "--alpha-deg", "0..1e300:1e-300"])
        assert code == EXIT_VALIDATION
        assert "--alpha-deg" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_eta_named(self, tmp_path, capsys):
        code, out = run(tmp_path, ["pair-rate", "--eta", "1.5"])
        assert code == EXIT_VALIDATION
        assert "eta" in capsys.readouterr().err
        assert not out.exists()


class TestPerScenarioParser:
    """A run builds the flags of its own scenario alone; what the parser
    prints is what a parser with every scenario's flags prints."""

    @staticmethod
    def printed(capsys, parse, argv):
        """(exit code, stdout, stderr) of a parse that exits."""
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scenario_help_lists_its_flags(self, capsys, scenario):
        code, out, err = self.printed(capsys, main, [scenario, "--help"])
        assert code == EXIT_OK and err == ""
        expected = {"--help"} | {f"--{name}" for flag in _COMMON + tuple(SPECS[scenario][2:])
                                 for name in (flag.name, flag.alias) if name}
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", out)) == expected
        assert (code, out, err) == self.printed(capsys, build_parser().parse_args,
                                                [scenario, "--help"])

    @pytest.mark.parametrize("argv", [["--help"], [], ["nosuch"], ["--version"],
                                      ["list", "--help"], ["trap", "--model", "full"]],
                             ids=["help", "bare", "unknown", "version", "list-help",
                                  "other-scenarios-flag"])
    def test_top_level_text_unchanged(self, capsys, argv):
        printed = self.printed(capsys, main, argv)
        assert printed == self.printed(capsys, build_parser().parse_args, argv)
        assert printed[0] == (EXIT_OK if argv[:1] in (["--help"], ["--version"], ["list"])
                              else EXIT_VALIDATION)
        if argv == ["nosuch"]:
            assert printed[2] == ("validation: argument scenario: invalid choice: 'nosuch'"
                                  f" (choose from {', '.join(map(repr, ('list', *SCENARIOS)))})\n")

    def test_run_parser_has_the_invoked_flags_only(self):
        parser = build_parser(["trap"])
        assert set(re.findall(r"\{[^}]*\}", parser.format_help())) == {"{trap}"}
        # a parse holds the flags the line gives, no defaults
        assert vars(parser.parse_args(["trap", "--pow", "44"])) == {"scenario": "trap",
                                                                    "power_mw": 44.0}

    @pytest.mark.parametrize("argv,flag", [
        (["lightshift", "--power-mw=--", "--waist-um=3"], "--power-mw"),
        (["bell", "--config=--"], "--config"),
        (["trap", "--pow=--"], "--power-mw"),
    ], ids=["number", "config", "abbreviated"])
    def test_double_dash_value_is_a_usage_error(self, capsys, argv, flag):
        for line in (argv, argv + ["--validate-only"]):
            assert self.printed(capsys, main, line) == (
                EXIT_VALIDATION, "", f"validation: argument {flag}: expected one argument\n")

    @pytest.mark.parametrize("scenario,values,flags", [
        ("trap", {"power_mw": 44, "waist_um": 9.0}, ["--waist-um", "3.5"]),
        ("g2", {"delta_mhz": -31, "icl_mw_cm2": 103, "points": 3}, ["--points", "5"]),
        # an abbreviated flag: argparse reads the line
        ("bell", {"noise_p": 0.7, "phi_b_deg": 30}, ["--noi", "0.9"]),
    ])
    def test_config_loses_to_the_command_line(self, tmp_path, scenario, values, flags):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        code, out = run(tmp_path, [scenario, "--config", str(config), *flags], "a.csv")
        assert code == EXIT_OK
        plain = {**{k.replace("_", "-"): v for k, v in values.items()},
                 **dict(zip(flags[::2], flags[1::2]))}
        argv = [scenario] + [f"--{k.lstrip('-')}={v}" for k, v in plain.items()]
        _, expected = run(tmp_path, argv, "b.csv")
        assert out.read_bytes() == expected.read_bytes()


G2_TINY_STEP = ["g2", "--delta-mhz", "-31", "--icl", "103", "--tau-max-ns", "1e-314",
                "--points", "1001"]
G2_MODELS = {"four-level": ["--model", "four-level"],
             "full": ["--model", "full", "--env-a", "0.3", "--env-tau-us", "2"],
             "two-level-obe": ["--model", "two-level-obe"],
             "two-level-analytic": ["--model", "two-level-analytic"]}
# g2 drives whose rates (rad/s) overflow: the runs failed with exit 3 and a
# wrong cause, such as "the matrix has an entry that is not finite"
G2_RATE_OVERFLOWS = [
    *((["g2", "--delta-mhz", "1e302", "--icl", "103", "--points", "3", *G2_MODELS[model]],
       "--delta-mhz 1e+302: the cooling detuning (rad/s) overflows", f"{model}-detuning-overflow")
      for model in G2_MODELS),
    *((["g2", "--delta-mhz", "-31", "--icl", "1e308", "--points", "3", *G2_MODELS[model]],
       "--icl-mw-cm2 1e+308: the cooling Rabi rate", f"{model}-cooling-rabi-overflow")
      for model in G2_MODELS),
    *((["g2", "--delta-mhz", "-31", "--icl", "103", "--points", "3", flag, value,
        *G2_MODELS[model]], message, f"{model}-{name}")
      for model in ("four-level", "full")
      for flag, value, message, name in (
          ("--delta-rl-mhz", "1e302", "--delta-rl-mhz 1e+302: the repump detuning (rad/s)"
           " overflows", "repump-detuning-overflow"),
          ("--irl", "1e308", "--irl-mw-cm2 1e+308: the repump Rabi rate on F=1 -> F'=2 (rad/s)"
           " overflows", "repump-rabi-overflow"))),
    # a cooling Rabi rate that underflows to 0 leaves no steady-state excitation
    (["g2", "--delta-mhz", "-31", "--icl", "5e-324", "--points", "3", *G2_MODELS["four-level"]],
     "--icl-mw-cm2 4.94066e-324: the cooling Rabi rate on F=2 -> F'=2 (rad/s) underflows to 0",
     "four-level-cooling-rabi-underflow"),
]


class TestValidateOnlyAgreesWithRun:
    TRAP = ["g2", "--delta-mhz", "-31", "--icl", "103", "--points", "3",
            "--trap-power-mw", "40", "--trap-waist-um", "3.5"]

    @pytest.mark.parametrize("args,flag", [
        (TRAP + ["--trap-power-mw=-40"], "--trap-power-mw"),
        (TRAP + ["--trap-waist-um", "0"], "--trap-waist-um"),
        (TRAP + ["--trap-wavelength-nm=-856"], "--trap-wavelength-nm"),
        (TRAP + ["--kinetic-uk=-500"], "--kinetic-uk"),
        (["g2", "--model", "full", "--delta-mhz", "-31", "--icl", "103", "--points", "3",
          "--env-a=-1", "--env-tau-us", "2"], "--env-a"),
        (["stirap", "--alpha-deg", "oops"], "--alpha-deg"),
        (["loading", "--rate-per-s", "1..0:1", "--power-mw", "44", "--waist-um", "3.5"],
         "--rate-per-s"),
        (["loading", "--rate-per-s=-5", "--power-mw", "44", "--waist-um", "3.5"],
         "--rate-per-s"),
        (["loading", "--rate-per-s=-5..5:5", "--power-mw", "44", "--waist-um", "3.5"],
         "--rate-per-s"),
        (["correlations", "--beta-deg", "0..90"], "--beta-deg"),
        # a trap beam exactly on a D line of the table
        (["trap", "--power-mw", "40", "--waist-um", "3.5", "--wavelength-nm", "780.246"],
         "--wavelength-nm 780.246 is on the D2 line"),
        (["lightshift", "--power-mw", "40", "--waist-um", "3.5", "--wavelength-nm", "780.246"],
         "--wavelength-nm 780.246 is on the D2 line"),
        (["loading", "--rate-per-s", "1", "--power-mw", "40", "--waist-um", "3.5",
          "--wavelength-nm", "780.246"], "--wavelength-nm 780.246 is on the D2 line"),
        (TRAP + ["--trap-wavelength-nm", "794.979"],
         "--trap-wavelength-nm 794.979 is on the D1 line"),
        # the atom mass times z_R^2 underflows, or omega_z^2 overflows
        (["trap", "--power-mw", "44", "--waist-um", "1e-75"], "--waist-um 1e-75"),
        (["trap", "--power-mw", "44", "--waist-um", "1e-60"], "--waist-um 1e-60"),
        (["loading", "--rate-per-s", "1", "--power-mw", "44", "--waist-um", "1e-60"],
         "--waist-um 1e-60"),
        (TRAP[:-4] + ["--trap-power-mw", "44", "--trap-waist-um", "1e-75"],
         "--trap-waist-um 1e-75"),
        # 1529.26 nm meets 5P3/2 -> 4D5/2 at a hyperfine-resolved detuning of
        # the four-level trap shifts
        (TRAP + ["--trap-wavelength-nm", "1529.26"],
         "--trap-wavelength-nm 1529.26: laser resonant with a line"),
        (TRAP + ["--model", "full", "--env-a", "0.3", "--env-tau-us", "2",
                 "--trap-wavelength-nm", "1529.26"],
         "--trap-wavelength-nm 1529.26: laser resonant with a line"),
        # the pairs per minute overflow: the run wrote inf
        (["pair-rate", "--eta", "0.5", "--cycle-us", "1e-310"],
         "--eta 0.5 with --cycle-us 1e-310: the pair rate (1/min) overflows"),
        # kB T / U >= 1: no sample is trapped, which the run refused with exit 3
        (["loading", "--rate-per-s", "1", "--power-mw", "44", "--waist-um", "3.5",
          "--temperature-uk", "1e30"],
         "--temperature-uk 1e+30 with --power-mw 44 and --waist-um 3.5: the ratio kB T / U"
         " = 9.9e+26 is not below 1"),
        # the grid step underflows to 0, so the grid is not uniform: 1001 rows
        # would hold 3 distinct delays, 10^6 rows 202 403 distinct times
        *((G2_TINY_STEP + model,
           "--tau-max-ns 1e-314 with --points 1001: the delay step (s) underflows to 0")
          for model in (["--model", "four-level"], ["--model", "two-level-obe"],
                        ["--model", "two-level-analytic"],
                        ["--model", "full", "--env-a", "0.3", "--env-tau-us", "2"])),
        (["larmor", "--b-mgauss", "100", "--t-max-us", "1e-312", "--points", "1000000"],
         "--t-max-us 1e-312 with --points 1000000: the time step (s) underflows to 0"),
        # the Larmor phase overflows, and the cosine of inf is not defined
        (["larmor", "--b-mgauss", "3.7e10", "--t-max-us", "3.7e300", "--points", "21"],
         "--b-mgauss 3.7e+10 with --g-f -0.5 and --t-max-us 3.7e+300: the Larmor phase at the"
         " longest time (rad) overflows"),
        # the phase is finite, but its rounding error is about 4e284 rad: the
        # survival the run printed moved by 3.3 under a 2-ulp nudge
        (["larmor", "--b-mgauss", "100", "--t-max-us", "3.7e300", "--points", "3"],
         "--b-mgauss 100 with --g-f -0.5 and --t-max-us 3.7e+300"),
        *((args, flag) for args, flag, _ in G2_RATE_OVERFLOWS),
        # the generalized Rabi phase is finite, but its rounding error is
        # about 6e59 rad: g2 at 120 ns printed 0.968 (two-level-obe) and 0.973
        # (two-level-analytic), and moved by 4e-2 under a nudge of --icl
        *((["g2", *G2_MODELS[model], "--delta-mhz", delta, "--icl", icl, "--points", points],
          f"--icl-mw-cm2 {icl} with --delta-mhz {delta} and --tau-max-ns 200: the generalized"
          " Rabi phase at the longest delay")
          for model in ("two-level-obe", "two-level-analytic")
          for delta, icl, points in (("-31", "1e+150", "6"), ("0", "1e+300", "3"))),
        # a cooling drive that is off: two-level-analytic printed g2 = 0, 0.72,
        # 0.96, and the other models exited 3
        *((["g2", "--delta-mhz", "0", "--icl", "0", "--points", "3", *G2_MODELS[model]],
           "--icl-mw-cm2 0: no steady-state excitation: the cooling drive is off")
          for model in G2_MODELS),
    ], ids=["trap-power", "trap-waist", "trap-wavelength", "kinetic", "env-a",
            "stirap-grid", "loading-grid", "loading-negative-rate",
            "loading-negative-grid-point", "correlations-grid", "trap-on-d2",
            "lightshift-on-d2", "loading-on-d2", "g2-trap-on-d1",
            "trap-mass-rayleigh-underflow", "trap-axial-overflow",
            "loading-axial-overflow", "g2-trap-mass-rayleigh-underflow",
            "g2-trap-on-hyperfine-line", "full-trap-on-hyperfine-line", "pair-rate-overflow",
            "loading-untrapped", "four-level-step-underflow", "two-level-obe-step-underflow",
            "two-level-analytic-step-underflow", "full-step-underflow",
            "larmor-step-underflow", "larmor-phase-overflow", "larmor-phase-unresolved",
            *(name for _, _, name in G2_RATE_OVERFLOWS),
            *(f"{model}-phase-unresolved-{icl}" for model in ("two-level-obe", "two-level-analytic")
              for icl in ("1e150", "1e300")),
            *(f"{model}-drive-off" for model in G2_MODELS)])
    def test_out_of_range_flag_exits_two(self, tmp_path, capsys, args, flag):
        code, out = run(tmp_path, args)
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION and not out.exists()
        assert err.startswith("validation: ") and err.count("\n") == 1 and flag in err
        assert main(args + ["--validate-only"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == err


class TestNegativeCoolingIntensity:
    @pytest.mark.parametrize("model", [
        ["--model", "two-level-analytic"], ["--model", "two-level-obe"],
        ["--model", "four-level"], ["--model", "full", "--env-a", "0.3", "--env-tau-us", "2"],
    ], ids=["two-level-analytic", "two-level-obe", "four-level", "full"])
    def test_refused_in_validation(self, tmp_path, capsys, model):
        args = ["g2", *model, "--delta-mhz", "-31", "--icl", "-1", "--points", "3"]
        line = "validation: --icl-mw-cm2 -1 must be nonnegative\n"
        code, out = run(tmp_path, args)
        assert code == EXIT_VALIDATION and not out.exists()
        assert capsys.readouterr().err == line
        assert main(args + ["--validate-only"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == line and captured.out == ""


class TestMagicBracketBelowResolution:
    @pytest.mark.parametrize("bracket", ["1e-20,1.6", "1e-16,1.6", "3e-16,1.6"])
    def test_refused_in_validation(self, tmp_path, capsys, bracket):
        # there 1/(w0 - w) + 1/(w0 + w) cancels to 0 or to noise, whose sign
        # changes the search took for crossings
        args = ["magic", "--bracket-um", bracket]
        line = (f"validation: --bracket-um {bracket} reaches below 3.4e-16 um, where the"
                " light shifts cancel to rounding noise\n")
        code, out = run(tmp_path, args)
        assert code == EXIT_VALIDATION and not out.exists()
        assert capsys.readouterr().err == line
        assert main(args + ["--validate-only"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == line

    def test_resolved_short_edge_finds_the_crossing(self, tmp_path):
        code, out = run(tmp_path, ["magic", "--bracket-um", "1e-15,1.6"])
        assert code == EXIT_OK
        assert out.read_text() == "bracket_lo_um,bracket_hi_um,magic_um\n1e-15,1.6,0.791341035913\n"


class TestOverflowingSquares:
    """A value derived from the flags that the run would overflow, or
    underflow to 0, is refused in validation, naming its flags and the
    quantity, on the run and on --validate-only.  The underflowing runs
    divided by zero, failed with library text or printed every delay as 0.
    So is a beam whose Rayleigh length squared times the atom mass underflows
    to 0 (the trap run divided by zero) or whose radial or axial trap
    frequency squared overflows (the trap run printed inf) or underflows to 0
    (the trap run printed 0), for every beam scenario."""

    G2 = ["--delta-mhz", "-31", "--icl", "103", "--points", "3"]
    FULL = ["--model", "full", "--env-a", "0.5", "--env-tau-us", "2"]

    @pytest.mark.parametrize("args,line", [
        (["trap", "--power-mw", "44", "--waist-um", "1e300"],
         "--waist-um 1e+300: the beam waist squared (m^2) overflows"),
        (["loading", "--rate-per-s", "0.1", "--power-mw", "44", "--waist-um", "1e300"],
         "--waist-um 1e+300: the beam waist squared (m^2) overflows"),
        (["g2", "--model", "two-level-obe", "--delta-mhz", "1e300", "--icl", "1"],
         "--delta-mhz 1e+300: the detuning squared ((rad/s)^2) overflows"),
        # the phase over 1e-160 ns is resolved, but Omega0^2 + Delta^2 overflows:
        # both models exited 3 with a NaN in column g2 on resonance, and so did
        # two-level-analytic off resonance
        *((["g2", *G2_MODELS[model], "--delta-mhz", delta, "--icl", icl, "--tau-max-ns",
            "1e-160", "--points", "3"],
           f"--icl-mw-cm2 {icl} with --delta-mhz {delta}: the generalized Rabi rate squared"
           " ((rad/s)^2) overflows")
          for model in ("two-level-obe", "two-level-analytic")
          for delta, icl in (("0", "1e+300"), ("1.5e+147", "4.5e+293"))),
        (["trap", "--power-mw", "44", "--waist-um", "1e100"],
         "--waist-um 1e+100 with --wavelength-nm 856: the Rayleigh length squared (m^2)"
         " overflows"),
        (["g2", "--delta-mhz", "-31", "--icl", "103", "--trap-power-mw", "44",
          "--trap-waist-um", "1e200"],
         "--trap-waist-um 1e+200: the beam waist squared (m^2) overflows"),
        (["lightshift", "--power-mw", "1", "--waist-um", "1e-310"],
         "--waist-um 1e-310: the beam waist squared (m^2) underflows to 0"),
        (["trap", "--power-mw", "44", "--waist-um", "1e-300"],
         "--waist-um 1e-300: the beam waist squared (m^2) underflows to 0"),
        (["g2", "--delta-mhz", "1e10", "--icl", "103", "--delta-rl-mhz", "3.7e10",
          "--trap-power-mw", "1e300", "--trap-waist-um", "1e-310", "--points", "5"],
         "--trap-waist-um 1e-310: the beam waist squared (m^2) underflows to 0"),
        (["trap", "--power-mw", "40", "--waist-um", "1e-154", "--wavelength-nm", "1e300"],
         "--waist-um 1e-154 with --wavelength-nm 1e+300: the Rayleigh length squared (m^2)"
         " underflows to 0"),
        (["trap", "--power-mw", "44", "--waist-um", "1e-100"],
         "--waist-um 1e-100 with --wavelength-nm 856: the Rayleigh length squared (m^2)"
         " underflows to 0"),
        (["trap", "--power-mw", "44", "--waist-um", "1e-75"],
         "--waist-um 1e-75 with --wavelength-nm 856: the atom mass times the Rayleigh length"
         " squared (kg m^2) underflows to 0"),
        (["g2", "--delta-mhz", "-31", "--icl", "103", "--points", "3", "--trap-power-mw", "44",
          "--trap-waist-um", "1e-75"],
         "--trap-waist-um 1e-75 with --trap-wavelength-nm 856: the atom mass times the"
         " Rayleigh length squared (kg m^2) underflows to 0"),
        (["trap", "--power-mw", "44", "--waist-um", "1e-60"],
         "--waist-um 1e-60 with --wavelength-nm 856 and --power-mw 44: the axial trap"
         " frequency squared ((rad/s)^2) overflows"),
        (["lightshift", "--power-mw", "44", "--waist-um", "1e-50"],
         "--waist-um 1e-50 with --wavelength-nm 856 and --power-mw 44: the axial trap"
         " frequency squared ((rad/s)^2) overflows"),
        (["trap", "--power-mw", "1e300", "--waist-um", "3.5"],
         "--waist-um 3.5 with --power-mw 1e+300: the radial trap frequency squared ((rad/s)^2)"
         " overflows"),
        # the peak intensity overflows: the depth is the first quantity that is not finite
        (["trap", "--power-mw", "1e300", "--waist-um", "1"],
         "--power-mw 1e+300 with --waist-um 1: the trap depth (J) overflows"),
        (["trap", "--power-mw", "1000", "--waist-um", "1e76"],
         "--waist-um 1e+76 with --wavelength-nm 856 and --power-mw 1000: the axial trap"
         " frequency squared ((rad/s)^2) underflows to 0"),
        # pi w0^2 / lambda is inf, not an OverflowError, and so is its square
        (["trap", "--power-mw", "44", "--waist-um", "1e150", "--wavelength-nm", "1e-11"],
         "--waist-um 1e+150 with --wavelength-nm 1e-11: the Rayleigh length squared (m^2)"
         " overflows"),
        (["g2", *G2, "--tau-max-ns", "1e-320"],
         "--tau-max-ns 9.99989e-321: the longest delay (s) underflows to 0"),
        (["g2", "--model", "two-level-analytic", *G2, "--tau-max-ns", "1e-320"],
         "--tau-max-ns 9.99989e-321: the longest delay (s) underflows to 0"),
        (["g2", "--model", "two-level-obe", *G2, "--tau-max-ns", "1e-320"],
         "--tau-max-ns 9.99989e-321: the longest delay (s) underflows to 0"),
        (["g2", *FULL, *G2, "--tau-max-ns", "1e-320"],
         "--tau-max-ns 9.99989e-321: the longest delay (s) underflows to 0"),
        (["g2", *FULL, *G2, "--env-tau-us", "5e-324"],
         "--env-tau-us 4.94066e-324: the envelope decay time (s) underflows to 0"),
        (["larmor", "--b-mgauss", "100", "--t-max-us", "1e-320", "--points", "3"],
         "--t-max-us 9.99989e-321: the longest time (s) underflows to 0"),
        # a finite Larmor phase of 1.6e300 rad, known to no better than 4e284 rad
        (["larmor", "--b-mgauss", "100", "--t-max-us", "3.7e300", "--points", "3"],
         "--b-mgauss 100 with --g-f -0.5 and --t-max-us 3.7e+300: the Larmor phase at the"
         " longest time (1.63e+300 rad) has a rounding error above 0.001 rad"),
        (["pair-rate", "--eta", "0.5", "--cycle-us", "5e-324"],
         "--cycle-us 4.94066e-324: the cycle time (s) underflows to 0"),
        # the cycle time is not 0 in s, but the pairs per minute overflow
        (["pair-rate", "--eta", "0.5", "--cycle-us", "1e-310"],
         "--eta 0.5 with --cycle-us 1e-310: the pair rate (1/min) overflows"),
        (["loading", "--rate-per-s", "1", "--power-mw", "44", "--waist-um", "3.5",
          "--temperature-uk", "30000"],
         "--temperature-uk 30000 with --power-mw 44 and --waist-um 3.5: the ratio kB T / U"
         " = 29.7 is not below 1: sample not trapped"),
        (["loading", "--rate-per-s", "1", "--power-mw", "44", "--waist-um", "3.5",
          "--temperature-uk", "5e-324"],
         "--temperature-uk 4.94066e-324 with --power-mw 44 and --waist-um 3.5: the ratio"
         " kB T / U underflows to 0"),
        # the temperature is not 0 in K, but kB T is 0 in J
        (["loading", "--rate-per-s", "1", "--power-mw", "44", "--waist-um", "3.5",
          "--temperature-uk", "1e-310"],
         "--temperature-uk 1e-310 with --power-mw 44 and --waist-um 3.5: the ratio"
         " kB T / U underflows to 0"),
        # the trap volume is subnormal: the run printed p2 = 4.90158035733e-305
        # where the law's T^1.5 scaling gives 4.90148496123e-305
        (["loading", "--rate-per-s", "1", "--power-mw", "44", "--waist-um", "3.5",
          "--n-max", "3", "--temperature-uk", "1e-200"],
         "--temperature-uk 1e-200 with --power-mw 44 and --waist-um 3.5: the trap volume"
         " 5.39e-320 m^3 is subnormal"),
        # the trap volume is 0, which the run refused with exit 3, naming no flag
        (["loading", "--rate-per-s", "1", "--power-mw", "44", "--waist-um", "3.5",
          "--n-max", "3", "--temperature-uk", "1e-210"],
         "--temperature-uk 1e-210 with --power-mw 44 and --waist-um 3.5: the trap volume"
         " underflows to 0"),
    ], ids=["trap-waist", "loading-waist", "two-level-obe-detuning",
            *(f"{model}-rabi-squared{case}" for model in ("two-level-obe", "two-level-analytic")
              for case in ("", "-with-detuning")),
            "trap-rayleigh",
            "g2-trap-waist", "lightshift-waist-underflow", "trap-waist-underflow",
            "g2-trap-waist-underflow",
            "trap-rayleigh-underflow", "trap-rayleigh-square-underflow",
            "trap-mass-rayleigh-underflow", "g2-trap-mass-rayleigh-underflow",
            "trap-axial-overflow", "lightshift-axial-overflow", "trap-radial-overflow",
            "trap-depth-overflow", "trap-axial-underflow", "trap-rayleigh-inf",
            "g2-tau-max", "two-level-analytic-tau-max", "two-level-obe-tau-max",
            "full-tau-max", "full-env-tau", "larmor-t-max", "larmor-phase-unresolved",
            "pair-rate-cycle",
            "pair-rate-overflow", "loading-untrapped",
            "loading-temperature-zero-in-k", "loading-thermal-energy-zero-in-j",
            "loading-trap-volume-subnormal", "loading-trap-volume-zero"])
    def test_named_and_refused_in_validation(self, tmp_path, capsys, args, line):
        code, out = run(tmp_path, args)
        assert code == EXIT_VALIDATION and not out.exists()
        assert capsys.readouterr().err == f"validation: {line}\n"
        assert main(args + ["--validate-only"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation: {line}\n"


class TestNamed:
    """``_named`` writes the flags of every refusal with their values: a
    float by "%g" or in full where "%g" rounds it, an int flag whole, a
    bracket as "lo,hi"."""

    ARGS = SimpleNamespace(power_mw=1e300, waist_um=3.5, cycle_us=5e-324, points=1000000,
                           bracket_um=(1.2, 1.6), visibility=1.0000001, eta=math.nan,
                           t_max_us=-2.0)

    @pytest.mark.parametrize("names,text", [
        (("power-mw",), "--power-mw 1e+300"),
        (("cycle-us",), "--cycle-us 4.94066e-324"),
        (("points",), "--points 1000000"),
        (("visibility",), "--visibility 1.0000001"),
        (("eta",), "--eta nan"),
        (("t-max-us",), "--t-max-us -2"),
        (("bracket-um",), "--bracket-um 1.2,1.6"),
        (("waist-um", "power-mw"), "--waist-um 3.5 with --power-mw 1e+300"),
        (("waist-um", "points", "bracket-um"),
         "--waist-um 3.5 with --points 1000000 and --bracket-um 1.2,1.6"),
    ], ids=["overflowing", "subnormal", "int", "rounded-by-g", "nan", "whole", "bracket", "two",
            "three"])
    def test_text(self, names, text):
        assert _named(self.ARGS, names) == text


class TestGridParsedOnce:
    """Validation parses each grid flag once; the runner and the loading
    check read its points."""

    @pytest.mark.parametrize("args", [
        ["loading", "--rate-per-s", "0..2:0.5", "--power-mw", "44", "--waist-um", "3.5"],
        ["stirap", "--alpha-deg", "0..90:15"],
        ["correlations", "--beta-deg", "0..180:30"],
    ], ids=["loading", "stirap", "correlations"])
    def test_one_parse_per_grid_flag(self, tmp_path, monkeypatch, args):
        from singleatom import cli

        calls = []
        monkeypatch.setattr(cli, "_parse_grid",
                            lambda spec, name: calls.append(name) or _parse_grid(spec, name))
        code, out = run(tmp_path, args, "grid.csv")
        assert code == EXIT_OK and out.exists()
        assert calls == [args[1]]


class TestBeamWavelengthBelowResolution:
    """A trap beam below ``lightshift.shortest_resolved_wavelength`` (3.4e-13
    nm for the bundled table) is refused in validation, naming its flag, on
    the run and on --validate-only; these runs divided by zero."""

    @pytest.mark.parametrize("args,flag", [
        (["lightshift", "--power-mw", "44", "--waist-um", "3.5", "--wavelength-nm", "3.7e-30"],
         "--wavelength-nm 3.7e-30"),
        (["loading", "--rate-per-s", "0..1:0.25", "--power-mw", "1.85", "--waist-um", "0.5",
          "--wavelength-nm", "1e-30", "--temperature-uk", "1e30"], "--wavelength-nm 1e-30"),
        (["g2", "--delta-mhz", "-31", "--icl", "103", "--points", "3", "--trap-power-mw", "40",
          "--trap-waist-um", "3.5", "--trap-wavelength-nm", "1e-20"],
         "--trap-wavelength-nm 1e-20"),
        (["trap", "--power-mw", "40", "--waist-um", "3.5", "--wavelength-nm", "5e-324"],
         "--wavelength-nm 4.94066e-324"),
    ], ids=["lightshift", "loading", "g2-trap", "trap-wavelength-zero-in-m"])
    def test_refused_in_validation(self, tmp_path, capsys, args, flag):
        line = (f"validation: {flag} is below 3.4e-13 nm, where the light shift is lost"
                " in rounding noise\n")
        code, out = run(tmp_path, args)
        assert code == EXIT_VALIDATION and not out.exists()
        assert capsys.readouterr().err == line
        assert main(args + ["--validate-only"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == line

    def test_resolved_wavelength_runs(self, tmp_path):
        code, out = run(tmp_path, ["lightshift", "--power-mw", "44", "--waist-um", "3.5",
                                   "--wavelength-nm", "3.5e-13"])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[1].startswith("3.5e-13,44,3.5,")


class TestSubnormalGridStep:
    """A delay or time grid whose step is below the smallest normal float is
    refused in validation, naming the flags, on the run and on
    --validate-only: the runs exited 0 and printed delays or times that had
    lost digits (the two-level-obe delay 1.49998330077e-310 ns for 1.5e-310,
    and a four-level g2 of -1.72851210429e-15)."""

    @pytest.mark.parametrize("args,line", [
        (["g2", "--model", "two-level-obe", "--delta-mhz", "-31", "--icl", "103",
          "--tau-max-ns", "3e-310", "--points", "3"],
         "--tau-max-ns 3e-310 with --points 3: the delay step (s) 1.5e-319 is subnormal"),
        (["g2", "--delta-mhz", "-31", "--icl", "103", "--tau-max-ns", "1e-305", "--points", "3"],
         "--tau-max-ns 1e-305 with --points 3: the delay step (s) 5e-315 is subnormal"),
        (["larmor", "--b-mgauss", "100", "--t-max-us", "1e-305", "--points", "3"],
         "--t-max-us 1e-305 with --points 3: the time step (s) 5e-312 is subnormal"),
        (["g2", "--model", "two-level-analytic", "--delta-mhz", "-31", "--icl", "103",
          "--tau-max-ns", "1e-300", "--points", "3"],
         "--tau-max-ns 1e-300 with --points 3: the delay step (s) 5e-310 is subnormal"),
    ], ids=["two-level-obe", "four-level", "larmor", "two-level-analytic"])
    def test_refused_in_validation(self, tmp_path, capsys, args, line):
        code, out = run(tmp_path, args)
        assert code == EXIT_VALIDATION and not out.exists()
        assert capsys.readouterr().err == f"validation: {line}\n"
        assert main(args + ["--validate-only"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation: {line}\n"

    def test_normal_step_runs(self, tmp_path):
        # a step of 5e-302 s is normal: the times print in full
        code, out = run(tmp_path, ["larmor", "--b-mgauss", "100", "--t-max-us", "1e-295",
                                   "--points", "3"])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[1:] == ["0,1", "5e-293,1", "1e-292,1"]


class TestSubnormalTrapPower:
    """A trap-beam power so small that the trap depth underflows to 0 J, or a
    power or waist that is 0 in SI units, is refused in validation, naming the
    flag, on the run and on --validate-only.  The runs failed with library
    text (trap, loading), divided by zero (g2) or printed a depth of 0
    (lightshift)."""

    DEPTH = ": the trap depth (J) underflows to 0"

    @pytest.mark.parametrize("args,line", [
        (["trap", "--power-mw", "3.7e-310", "--waist-um", "3.7", "--wavelength-nm", "0.5"],
         "--power-mw 3.7e-310 with --waist-um 3.7" + DEPTH),
        (["loading", "--rate-per-s", "1", "--power-mw", "3.7e-310", "--waist-um", "3.5"],
         "--power-mw 3.7e-310 with --waist-um 3.5" + DEPTH),
        (["g2", "--delta-mhz", "-31", "--icl", "103", "--trap-power-mw", "3.7e-310",
          "--trap-waist-um", "3.5", "--points", "5"],
         "--trap-power-mw 3.7e-310 with --trap-waist-um 3.5" + DEPTH),
        (["lightshift", "--power-mw", "3.7e-310", "--waist-um", "3.7", "--wavelength-nm", "0.5"],
         "--power-mw 3.7e-310 with --waist-um 3.7" + DEPTH),
        (["trap", "--power-mw", "1e-300", "--waist-um", "3.5"],
         "--power-mw 1e-300 with --waist-um 3.5" + DEPTH),
        (["trap", "--power-mw", "5e-324", "--waist-um", "3.5"],
         "--power-mw 4.94066e-324: the power (W) underflows to 0"),
        (["trap", "--power-mw", "40", "--waist-um", "5e-324"],
         "--waist-um 4.94066e-324: the beam waist (m) underflows to 0"),
    ], ids=["trap", "loading", "g2-trap", "lightshift", "trap-normal-power",
            "trap-power-zero-in-w", "trap-waist-zero-in-m"])
    def test_refused_in_validation(self, tmp_path, capsys, args, line):
        line = f"validation: {line}\n"
        code, out = run(tmp_path, args)
        assert code == EXIT_VALIDATION and not out.exists()
        assert capsys.readouterr().err == line
        assert main(args + ["--validate-only"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == line

    def test_subnormal_depth_runs(self, tmp_path):
        # the depth is subnormal but not 0: the trap is computed
        code, out = run(tmp_path, ["trap", "--power-mw", "1e-290", "--waist-um", "3.5"])
        assert code == EXIT_OK
        assert 0 < float(out.read_text().splitlines()[1].split(",")[0]) < 1e-290


def test_spectrum_fit_overflowing_energy_named(tmp_path, capsys, fuzz_dir):
    # the squared axial velocity overflows; the kinetic energy is inf and the
    # CSV formatting refuses it, as for any non-finite result
    code, out = run(tmp_path, overflowing_energy(fuzz_dir))
    assert code == EXIT_NUMERICAL and not out.exists()
    assert capsys.readouterr().err == "numerical failure: non-finite value inf in column value\n"


class TestUnreadableInputsAndOutputs:
    TRAP = ["trap", "--power-mw", "44", "--waist-um", "3.5"]

    @pytest.mark.parametrize("content", [None, b"a,b\n1,2\n", b"1\n2\n3\n"],
                             ids=["missing", "malformed", "one-column"])
    def test_bad_profile_named(self, tmp_path, capsys, fuzz_dir, content):
        path = tmp_path / "ref.csv"
        if content is not None:
            path.write_bytes(content)
        code, out = run(tmp_path, ["spectrum-fit", "--reference", str(path),
                                   "--fluorescence", str(fuzz_dir / "fluor.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION and not out.exists()
        assert err.startswith("validation: ") and err.count("\n") == 1 and str(path) in err

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    def test_empty_profile_one_line(self, tmp_path, capsys, fuzz_dir):
        path = tmp_path / "ref.csv"
        path.write_bytes(b"# header only\n")
        code, out = run(tmp_path, ["spectrum-fit", "--reference", str(path),
                                   "--fluorescence", str(fuzz_dir / "fluor.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION and not out.exists()
        assert err.startswith("validation: ") and err.count("\n") == 1 and str(path) in err

    def test_one_row_profile_reaches_profile_checks(self, tmp_path, capsys, fuzz_dir):
        path = tmp_path / "ref.csv"
        path.write_bytes(b"1,2\n")
        code, out = run(tmp_path, ["spectrum-fit", "--reference", str(path),
                                   "--fluorescence", str(fuzz_dir / "fluor.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION and not out.exists()
        assert err.startswith("validation: ") and err.count("\n") == 1 and str(path) in err
        assert "column" not in err and "two samples" in err

    @pytest.mark.parametrize("column, value, message", [
        (1, "nan", "must be finite"), (0, "inf", "must be finite"),
        (1, "0", "no positive peak")], ids=["nan-amplitude", "inf-frequency", "all-zero"])
    def test_bad_profile_values_named(self, tmp_path, capsys, fuzz_dir, column, value, message):
        data = np.loadtxt(fuzz_dir / "fluor.csv", delimiter=",")
        data[slice(None) if value == "0" else -1, column] = float(value)
        path = tmp_path / "fluor.csv"
        np.savetxt(path, data, delimiter=",")
        code, out = run(tmp_path, ["spectrum-fit", "--reference", str(fuzz_dir / "ref.csv"),
                                   "--fluorescence", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION and not out.exists()
        assert err.startswith(f"validation: {path}: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("name", ["absent/x.csv", "."], ids=["no-directory", "directory"])
    def test_unwritable_csv_named(self, tmp_path, capsys, name):
        out = tmp_path / name
        assert main(self.TRAP + ["--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation: ") and err.count("\n") == 1 and str(out) in err

    def test_unwritable_sidecar_leaves_no_csv(self, tmp_path, capsys):
        (tmp_path / "x.csv.meta.json").mkdir()
        code, out = run(tmp_path, self.TRAP + ["--metadata"], "x.csv")
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION and not out.exists()
        assert err.startswith("validation: ") and err.count("\n") == 1
        assert str(tmp_path / "x.csv.meta.json") in err

    @pytest.mark.parametrize("mode", [[], ["--validate-only"]], ids=["run", "validate-only"])
    def test_metadata_without_out_refused(self, tmp_path, capsys, monkeypatch, mode):
        # the sidecar is written next to the CSV: without --out it would be lost
        monkeypatch.chdir(tmp_path)
        assert main(self.TRAP + ["--metadata"] + mode) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        assert captured.err.startswith("validation: ") and captured.err.count("\n") == 1
        assert "--metadata" in captured.err and "--out" in captured.err


class TestListTruth:
    SAMPLE = {"power-mw": "44", "waist-um": "3.5", "rate-per-s": "1",
              "delta-mhz": "-31", "icl-mw-cm2": "103", "alpha-deg": "0",
              "b-mgauss": "100", "beta-deg": "0", "reference": "ref.csv",
              "fluorescence": "fluor.csv", "eta": "0.001"}

    def listed(self, capsys):
        main(["list"])
        keys = {}
        for line in capsys.readouterr().out.splitlines():
            name, text = line.split(": ", 1)
            text = text.split(";")[0]
            keys[name] = [] if text.startswith("(") else text.split(", ")
        return keys

    def test_names_in_order(self, capsys):
        assert list(self.listed(capsys)) == list(SCENARIOS)

    def test_defaulted_keys_not_listed(self, capsys):
        keys = self.listed(capsys)
        assert keys["trap"] == keys["lightshift"] == ["power-mw", "waist-um"]
        assert keys["g2"] == ["delta-mhz", "icl-mw-cm2"]
        assert keys["magic"] == keys["bell"] == []

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_listed_keys_are_exactly_the_required_ones(self, capsys, monkeypatch, fuzz_dir,
                                                       scenario):
        monkeypatch.chdir(fuzz_dir)  # --validate-only reads the sample profiles there
        required = self.listed(capsys)[scenario]

        def argv(keys):
            return [scenario, "--validate-only"] + [
                item for k in keys for item in (f"--{k}", self.SAMPLE[k])]

        assert main(argv(required)) == EXIT_OK
        capsys.readouterr()
        for key in required:
            assert main(argv([k for k in required if k != key])) == EXIT_VALIDATION
            assert f"--{key}" in capsys.readouterr().err

    def test_full_model_keys_listed(self, capsys):
        main(["list"])
        g2_line = capsys.readouterr().out.splitlines()[SCENARIOS.index("g2")]
        assert "env-a" in g2_line and "env-tau-us" in g2_line
        code = main(["g2", "--model", "full", "--delta-mhz", "-31", "--icl", "103",
                     "--validate-only"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "--env-a" in err and "--env-tau-us" in err


class TestLineDataErrors:
    @pytest.mark.parametrize("content", [
        None, b"\xff\xfe not json", b"{not json", b"[1, 2]", b"{}",
        b'{"lines": [{"label": "D2", "lower": "5S1/2"}]}',
    ], ids=["missing", "undecodable", "malformed", "not-an-object",
            "no-lines", "line-missing-keys"])
    def test_exit_two_naming_path(self, tmp_path, capsys, monkeypatch, content):
        path = tmp_path / "lines.json"
        if content is not None:
            path.write_bytes(content)
        monkeypatch.setenv("SINGLEATOM_LINE_DATA", str(path))
        code, out = run(tmp_path, ["trap", "--power-mw", "44", "--waist-um", "3.5"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation: ") and err.count("\n") == 1
        assert str(path) in err
        assert not out.exists()

    def test_g2_trap_shifts_read_line_data(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SINGLEATOM_LINE_DATA", str(tmp_path / "absent.json"))
        code, out = run(tmp_path, ["g2", "--delta-mhz", "-31", "--icl", "103",
                                   "--points", "5", "--trap-power-mw", "40",
                                   "--trap-waist-um", "3.5"])
        assert code == EXIT_VALIDATION
        assert "absent.json" in capsys.readouterr().err
        assert not out.exists()

    def test_nuclear_spin_other_than_rb87_rejected(self, tmp_path, capsys, monkeypatch):
        bundled = resources.files("singleatom.data").joinpath("rb87_lines.json")
        raw = json.loads(bundled.read_text())
        raw["nuclear_two_i"] = 5
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(raw))
        monkeypatch.setenv("SINGLEATOM_LINE_DATA", str(path))
        code, out = run(tmp_path, ["g2", "--delta-mhz", "-31", "--icl", "103",
                                   "--points", "3", "--trap-power-mw", "40",
                                   "--trap-waist-um", "3.5"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation: ") and err.count("\n") == 1
        assert str(path) in err and "nuclear_two_i" in err
        assert not out.exists()

    def test_spectrum_fit_default_wavelength_reads_line_data(self, tmp_path, capsys,
                                                             monkeypatch, fuzz_dir):
        # without --wavelength-nm the D2 wavelength comes from the table
        monkeypatch.setenv("SINGLEATOM_LINE_DATA", str(tmp_path / "absent.json"))
        code, out = run(tmp_path, ["spectrum-fit", "--reference", str(fuzz_dir / "ref.csv"),
                                   "--fluorescence", str(fuzz_dir / "fluor.csv")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation: ") and err.count("\n") == 1
        assert "absent.json" in err
        assert not out.exists()

    @pytest.mark.parametrize("label, upper", [("D1", "5P1/2"), ("D2", "5P3/2")])
    @pytest.mark.parametrize("args", [
        ["trap", "--power-mw", "44", "--waist-um", "3.5"],
        ["lightshift", "--power-mw", "44", "--waist-um", "3.5"],
        ["g2", "--delta-mhz", "-31", "--icl", "103", "--points", "3",
         "--trap-power-mw", "40", "--trap-waist-um", "3.5"],
    ], ids=["trap", "lightshift", "g2-trap"])
    def test_missing_d_line_refused(self, tmp_path, capsys, monkeypatch, args, label, upper):
        # a table without a D line is refused when it is read, so the run and
        # --validate-only exit 2 with the same line
        raw = json.loads(resources.files("singleatom.data").joinpath("rb87_lines.json")
                         .read_text())
        raw["lines"] = [line for line in raw["lines"] if line["label"] != label]
        path = tmp_path / f"no_{label}.json"
        path.write_text(json.dumps(raw))
        monkeypatch.setenv("SINGLEATOM_LINE_DATA", str(path))
        code, out = run(tmp_path, args)
        run_err = capsys.readouterr().err
        assert code == EXIT_VALIDATION and not out.exists()
        assert run_err == (f"validation: line data {path}: no line data for the coupling "
                           f"5S1/2 -> {upper}, a D line of the ground state\n")
        assert main(args + ["--validate-only"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == run_err and captured.out == ""

    def test_g2_without_trap_ignores_broken_override(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "lines.json"
        path.write_bytes(b"{not json")
        monkeypatch.setenv("SINGLEATOM_LINE_DATA", str(path))
        code, out = run(tmp_path, ["g2", "--delta-mhz", "-31", "--icl", "103", "--points", "5"])
        assert code == EXIT_OK and out.exists()
        assert capsys.readouterr().err == ""


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

    def test_bell_orthogonal_analyzers_print_zero(self, tmp_path):
        # cos(90 degrees) is 0 exactly, not math.cos(math.radians(90)) = 6.1e-17
        code, out = run(tmp_path, ["bell", "--phi-b-deg", "90", "--phi-a2-deg", "180"])
        assert code == EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[1] == "a,b,0,90,0" and rows[3] == "a2,b,180,90,0"

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

    @pytest.mark.parametrize("n_max", ["1", "5"])
    def test_loading_without_rates_numerical_exit(self, tmp_path, capsys, n_max):
        # R = gamma = 0: pair loss alone leaves N = 0 and N = 1 absorbing
        # (or, at n_max 1, no rate at all), so there is no unique law
        code, out = run(tmp_path, ["loading", "--rate-per-s", "0", "--gamma-per-s", "0",
                                   "--n-max", n_max, "--power-mw", "44", "--waist-um", "3.5"])
        assert code == EXIT_NUMERICAL and not out.exists()
        assert capsys.readouterr().err.startswith("numerical failure: ")

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
        from singleatom.constants import KB, RB87_MASS
        lambda_d2 = 780.246e-9  # m, the D2 line of the bundled table
        f = np.arange(-8e6, 8e6, 0.02e6)
        ref = convolve_profiles(lorentzian_profile(f, 0.45e6),
                                gaussian_profile(f, 0.6e6 / 2.3548))
        sigma_true = math.sqrt(2 * KB * 110e-6 / (3 * RB87_MASS)) / lambda_d2
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

    def test_spectrum_fit_wavelength_from_line_table(self, tmp_path, monkeypatch):
        # without --wavelength-nm the D2 line of the table in use sets the
        # kinetic energy, and the sidecar records the wavelength used
        from singleatom.analysis import gaussian_profile
        f = np.linspace(-5e6, 5e6, 201)
        for name, sigma in (("ref.csv", 0.5e6), ("fluor.csv", 0.7e6)):
            profile = gaussian_profile(f, sigma)
            np.savetxt(tmp_path / name, np.column_stack([profile.frequency, profile.amplitude]),
                       delimiter=",")
        args = ["spectrum-fit", "--reference", str(tmp_path / "ref.csv"),
                "--fluorescence", str(tmp_path / "fluor.csv"), "--metadata"]

        def fit(name, extra=()):
            code, out = run(tmp_path, args + list(extra), name)
            assert code == EXIT_OK
            rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
            meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
            return float(rows["e_kin_over_kb_uk"]), meta["parameters"]["wavelength_nm"]

        bundled = fit("bundled.csv")
        assert bundled[1] == 780.246
        raw = json.loads(resources.files("singleatom.data").joinpath("rb87_lines.json").read_text())
        next(line for line in raw["lines"] if line["label"] == "D2")["lambda_nm"] = 790.0
        (tmp_path / "lines.json").write_text(json.dumps(raw))
        monkeypatch.setenv("SINGLEATOM_LINE_DATA", str(tmp_path / "lines.json"))
        e_kin, wavelength = fit("moved.csv")
        assert wavelength == pytest.approx(790.0, rel=1e-15)
        assert e_kin / bundled[0] == pytest.approx((790.0 / 780.246) ** 2, rel=1e-9)
        # an explicit wavelength wins over the table
        assert fit("explicit.csv", ["--wavelength-nm", "780.246"]) == bundled

    def test_pair_rate(self, tmp_path):
        code, out = run(tmp_path, ["pair-rate", "--eta", "5e-4"])
        assert code == EXIT_OK
        rate = float(out.read_text().strip().split("\n")[1].split(",")[-1])
        assert rate == pytest.approx(3.5625, rel=1e-6)


class TestHugeAngles:
    """A degree input is reduced exactly modulo 360 before it becomes
    radians; the reduced angle below comes from integer arithmetic."""

    def test_stirap(self, tmp_path):
        code, out = run(tmp_path, ["stirap", "--alpha-deg", "1e20"])
        assert code == EXIT_OK
        alpha_deg, p = map(float, out.read_text().strip().split("\n")[1].split(","))
        assert alpha_deg == 1e20
        reduced = int(1e20) % 360
        assert p == pytest.approx(math.sin(math.radians(reduced)) ** 2, abs=1e-12)

    def test_correlations(self, tmp_path):
        code, out = run(tmp_path, ["correlations", "--beta-deg", "1e300"])
        assert code == EXIT_OK
        beta_deg, p = map(float, out.read_text().strip().split("\n")[1].split(","))
        assert beta_deg == pytest.approx(1e300, rel=1e-12)
        reduced = int(1e300) % 360
        assert p == pytest.approx(0.5 * (1.0 + math.cos(2.0 * math.radians(reduced))),
                                  abs=1e-12)

    def test_bell(self, tmp_path):
        code, out = run(tmp_path, ["bell", "--phi-a-deg", "1e300"])
        assert code == EXIT_OK
        rows = [row.split(",") for row in out.read_text().strip().split("\n")[1:]]
        reduced = int(1e300) % 360
        for setting_a, setting_b, phi_a, phi_b, value in rows[:2]:
            assert setting_a == "a"
            assert float(phi_a) == pytest.approx(1e300, rel=1e-12)
            # the singlet's correlation -cos(phi_a - phi_b)
            expected = -math.cos(math.radians(reduced) - math.radians(float(phi_b)))
            assert float(value) == pytest.approx(expected, abs=1e-12)
        assert float(rows[-1][-1]) == pytest.approx(2 * math.sqrt(2), abs=1e-9)


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

    def test_flag_at_its_default_overrides_config(self, tmp_path):
        # --wavelength-nm 856 is also the flag's default; the file's 900 must
        # not replace it
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"wavelength_nm": 900}))
        beam = ["trap", "--power-mw", "44", "--waist-um", "3.5"]
        code, out = run(tmp_path, beam + ["--wavelength-nm", "856", "--config", str(config)],
                        "a.csv")
        assert code == EXIT_OK
        _, plain = run(tmp_path, beam, "b.csv")
        assert out.read_bytes() == plain.read_bytes()
        depth = float(out.read_text().splitlines()[1].split(",")[0])
        assert depth == pytest.approx(1.0098, abs=1e-4)
        _, from_file = run(tmp_path, beam + ["--config", str(config)], "c.csv")
        assert from_file.read_bytes() != plain.read_bytes()

    def test_string_values_coerced_through_flag_type(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"power_mw": "44", "waist_um": "3.5"}))
        code, from_file = run(tmp_path, ["trap", "--config", str(config)], "a.csv")
        assert code == EXIT_OK
        _, from_flags = run(tmp_path, ["trap", "--power-mw", "44", "--waist-um", "3.5"],
                            "b.csv")
        assert from_file.read_bytes() == from_flags.read_bytes()

    @pytest.mark.parametrize("bracket", ["1.2,1.6", [1.2, 1.6]], ids=["string", "list"])
    def test_bracket_from_config(self, tmp_path, bracket):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"bracket_um": bracket}))
        code, from_file = run(tmp_path, ["magic", "--config", str(config)], "a.csv")
        assert code == EXIT_OK
        _, from_flags = run(tmp_path, ["magic", "--bracket-um", "1.2,1.6"], "b.csv")
        assert from_file.read_bytes() == from_flags.read_bytes()

    @pytest.mark.parametrize("scenario,values,key", [
        ("trap", {"power_mw": "44 mW", "waist_um": 3.5}, "power_mw"),
        ("trap", {"power_mw": [44], "waist_um": 3.5}, "power_mw"),
        ("trap", {"power_mw": True, "waist_um": 3.5}, "power_mw"),
        ("trap", {"power_mw": 10**400, "waist_um": 3.5}, "power_mw"),
        ("trap", {"power_mw": 44, "waist_um": 3.5, "metadata": "yes"}, "metadata"),
        ("larmor", {"b_mgauss": 100, "points": 5.5}, "points"),
        ("stirap", {"alpha_deg": 0}, "alpha_deg"),
        ("magic", {"bracket_um": [1.2, "x"]}, "bracket_um"),
        ("magic", {"bracket_um": "1.2"}, "bracket_um"),
    ], ids=["unparsable", "list", "bool", "huge-int", "switch", "float-int",
            "number-for-string", "bracket-element", "bracket-string"])
    def test_type_mismatch_named(self, tmp_path, capsys, scenario, values, key):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        code, out = run(tmp_path, [scenario, "--config", str(config)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation: ") and err.count("\n") == 1
        assert key in err
        assert not out.exists()

    def test_null_is_a_flag_not_given(self, tmp_path, capsys):
        # the sidecar writes an unset flag as null, so a null reads as the
        # flag's absence: a required flag is missing, an optional one keeps
        # its default
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"power_mw": None, "waist_um": 3.5}))
        code, out = run(tmp_path, ["trap", "--config", str(config)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "validation: missing required key --power-mw\n"
        assert not out.exists()
        config.write_text(json.dumps({"power_mw": 44, "waist_um": 3.5, "wavelength_nm": None}))
        _, from_file = run(tmp_path, ["trap", "--config", str(config)], "a.csv")
        _, plain = run(tmp_path, ["trap", "--power-mw", "44", "--waist-um", "3.5"], "b.csv")
        assert from_file.read_bytes() == plain.read_bytes()

    def test_sidecar_holds_a_config_number_as_its_flag(self, tmp_path):
        # a JSON integer for a float flag is held as the command line's float
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"phi_b_deg": 30}))
        _, from_file = run(tmp_path, ["bell", "--config", str(config), "--metadata"], "a.csv")
        _, from_flag = run(tmp_path, ["bell", "--phi-b-deg", "30", "--metadata"], "b.csv")
        assert from_file.read_bytes() == from_flag.read_bytes()
        sidecars = [pathlib.Path(f"{out}.meta.json").read_text() for out in (from_file, from_flag)]
        assert sidecars[0] == sidecars[1] and '"phi_b_deg": 30.0' in sidecars[0]

    def test_undecodable_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_bytes(b"\xff\xfe{}")
        code, out = run(tmp_path, ["trap", "--config", str(config)])
        assert code == EXIT_VALIDATION
        assert str(config) in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_config_value_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text('{"power_mw": NaN, "waist_um": 3.5}')
        code, out = run(tmp_path, ["trap", "--config", str(config)])
        assert code == EXIT_VALIDATION
        assert "--power-mw" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"power_mw": 44.0, "frobnicate": 1}))
        code, out = run(tmp_path, ["trap", "--config", str(config),
                                   "--waist-um", "3.5"])
        assert code == EXIT_VALIDATION
        assert "frobnicate" in capsys.readouterr().err
        assert not out.exists()


class TestTwoLevelExceptionalPoint:
    def test_resonant_exceptional_point_answered(self, tmp_path):
        # Omega0 = Gamma/4 on resonance: the closed form answers where the
        # eigen-propagator refuses
        code, out = run(tmp_path, ["g2", "--model", "two-level-obe", "--delta-mhz", "0",
                                   "--icl", "0.4475", "--points", "101"])
        assert code == EXIT_OK
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (101, 2) and np.all(np.isfinite(data))
        assert data[0, 1] == 0.0

    @pytest.mark.parametrize("icl,method", [("0.4475", "closed-form"),
                                            ("103", "eigen-propagator")])
    def test_sidecar_names_the_path_taken(self, tmp_path, icl, method):
        code, out = run(tmp_path, ["g2", "--model", "two-level-obe", "--delta-mhz", "0",
                                   "--icl", icl, "--points", "11", "--metadata"])
        assert code == EXIT_OK
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["integrator"] == {"method": method}


class TestDiagnostics:
    """The sidecar's diagnostics are the numbers the g2 kernels report."""

    BASE = ["g2", "--delta-mhz", "-31", "--icl", "103", "--points", "11", "--metadata"]

    @pytest.mark.parametrize("extra,keys", [
        ([], {"min_overlap", "steady_residual"}),
        (["--trap-power-mw", "44", "--trap-waist-um", "3.5"], {"min_overlap", "steady_residual"}),
        (["--model", "full", "--env-a", "0.3", "--env-tau-us", "2"],
         {"min_overlap", "steady_residual"}),
        (["--model", "two-level-obe"], {"min_overlap"}),
        (["--model", "two-level-analytic"], set()),
    ], ids=["four-level", "four-level-trap", "full", "two-level-obe", "two-level-analytic"])
    def test_sidecar_holds_the_kernel_report(self, tmp_path, extra, keys):
        from singleatom.obe import _four_level_rabi, four_level_g2, two_level_obe_g2
        from singleatom.constants import (RB87_GAMMA_D2, RB87_ISAT_F2_F3, TWO_PI,
                                          rabi_frequency)
        from singleatom.cli_g2 import _check_g2

        argv = self.BASE + extra
        code, _ = run(tmp_path, argv)
        assert code == EXIT_OK
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert set(meta["diagnostics"]) == keys
        args = _args(argv)
        _check_g2(args)  # reads the line data and computes the trap shifts
        report = {}
        if keys == {"min_overlap"}:
            omega3 = rabi_frequency(103.0 * 10.0, RB87_ISAT_F2_F3)  # 103 mW/cm^2
            two_level_obe_g2(omega3, TWO_PI * -31.0 * 1e6, RB87_GAMMA_D2, 200e-9, 11, report)
        elif keys:
            rabi = _four_level_rabi(103.0 * 10.0, 12.0 * 10.0)
            four_level_g2(rabi, TWO_PI * -31.0 * 1e6, 0.0, args.shifts, 200e-9, 11, report)
        report.pop("method", None)
        assert meta["diagnostics"] == report
        assert all(math.isfinite(v) for v in report.values())

    def test_other_scenarios_report_none(self, tmp_path):
        code, _ = run(tmp_path, ["trap", "--power-mw", "44", "--waist-um", "3.5", "--metadata"])
        assert code == EXIT_OK
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["diagnostics"] == {} and meta["integrator"] == {"method": "none"}


class TestGridParsing:
    """Grids are parsed with the standard library; numpy is the oracle here."""

    @staticmethod
    def assert_matches_arange(start, stop, step):
        got = _parse_grid(f"{start!r}..{stop!r}:{step!r}", "--x")
        expected = start + step * np.arange(int(round((stop - start) / step)) + 1)
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == expected.tobytes()

    def test_seeded_random_grids_bit_for_bit(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            start = float(rng.uniform(-1e3, 1e3)) * 10.0 ** int(rng.integers(-6, 6))
            step = float(rng.uniform(0.1, 1.0)) * 10.0 ** int(rng.integers(-6, 6))
            stop = start + step * float(rng.uniform(0.0, 5000.0))
            self.assert_matches_arange(start, stop, step)

    def test_negative_start(self):
        self.assert_matches_arange(-7.3, 2.9, 0.3)

    def test_single_value(self):
        got = _parse_grid("-0.0", "--x")
        assert got == [-0.0] and math.copysign(1.0, got[0]) == -1.0
        assert _parse_grid("42", "--x") == [42.0]

    def test_max_points_minus_one_intervals(self):
        self.assert_matches_arange(-3.0, -3.0 + 0.7 * (MAX_POINTS - 1), 0.7)

    def test_refusal_messages(self):
        with pytest.raises(ValidationError) as exc:
            _parse_grid(f"0..{MAX_POINTS}:1", "--x")
        assert str(exc.value) == f"--x: more than {MAX_POINTS} grid points"
        for spec in ("nan", "inf", "0..inf:1", "nan..1:1", "0..1:nan", "0..1:0", "2..1:1"):
            with pytest.raises(ValidationError) as exc:
                _parse_grid(spec, "--x")
            assert str(exc.value) == (
                f"--x: expected a finite number or 'start..stop:step', got {spec!r}")


def overflowing_energy(directory) -> list:
    """A spectrum-fit run whose kinetic energy overflows to inf."""
    return ["spectrum-fit", "--reference", str(directory / "ref.csv"),
            "--fluorescence", str(directory / "fluor.csv"), "--wavelength-nm", "1e300"]


class TestNonFiniteResults:
    """The CSV writer refuses a non-finite result.  Its witness on the
    command line is spectrum-fit's overflowing kinetic energy: the two-level
    g2 drives whose squared rates overflowed to NaN are refused in validation."""

    def test_exit_three_and_no_csv(self, tmp_path, capsys, fuzz_dir):
        code, out = run(tmp_path, overflowing_energy(fuzz_dir))
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "column value" in err
        assert not out.exists()

    def test_nothing_written_to_stdout(self, capsys, fuzz_dir):
        assert main(overflowing_energy(fuzz_dir)) == EXIT_NUMERICAL
        assert capsys.readouterr().out == ""

    def test_runner_warnings_silenced_under_warnings_as_errors(self, tmp_path, capsys,
                                                               monkeypatch):
        # a runner that overflows in numpy: its warnings must neither print a
        # second stderr line nor, under -W error, become the failure reported
        from singleatom import cli_readout

        def overflowing(args):
            return ["value"], [[float(np.float64(1e300) * np.float64(1e300))]]

        monkeypatch.setitem(cli_readout.RUNS, "bell", (overflowing, None))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, ["bell"])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL and not out.exists()
        assert err == "numerical failure: non-finite value inf in column value\n"


def four_level_refusal(tmp_path, capsys, kernel, extra):
    """The stderr line of the four-level g2 run of the flags ``extra``, which
    must exit 3 without a CSV; for the "library" kernel, the steady-state
    ValueError of ``FourLevelLiouvillian`` for the same drive, in that form."""
    if kernel == "cli":
        code, out = run(tmp_path, ["g2", *extra, "--points", "3"])
        assert code == EXIT_NUMERICAL and not out.exists()
        return capsys.readouterr().err
    from singleatom.bloch import FourLevelParams
    from singleatom.bloch.four_level import FourLevelLiouvillian
    from singleatom.constants import TWO_PI, intensity_from_mw_cm2

    flags = {"--irl": "12", "--delta-rl-mhz": "0", **dict(zip(extra[::2], extra[1::2]))}
    params = FourLevelParams(i_cl=intensity_from_mw_cm2(float(flags["--icl"])),
                             i_rl=intensity_from_mw_cm2(float(flags["--irl"])),
                             delta_cl=TWO_PI * float(flags["--delta-mhz"]) * 1e6,
                             delta_rl=TWO_PI * float(flags["--delta-rl-mhz"]) * 1e6)
    with pytest.raises(ValueError) as exc:
        FourLevelLiouvillian(params).steady_state()
    return f"numerical failure: {exc.value}\n"


def over_kernels(rows, ids, kernels=("cli", "library")):
    """(extra, kernel) of each row for the CLI's kernel (obe.four_level_g2)
    and the library's (bloch.four_level), which share the steady-state rule
    and so must give the same refusal; the library's ids end in -library."""
    return [pytest.param(extra, kernel, id=name if kernel == "cli" else f"{name}-library")
            for kernel in kernels for extra, name in zip(rows, ids)]


class TestExtremeFourLevelDrives:
    @pytest.mark.parametrize("extra,kernel", over_kernels([
        ["--delta-mhz", "1e100", "--icl", "103"],
        ["--delta-mhz", "-31", "--icl", "1e300"],
        ["--delta-mhz", "-31", "--icl", "103", "--irl", "1e300"],
        ["--delta-mhz", "-31", "--icl", "103", "--delta-rl-mhz", "1e300"],
    ], ["delta", "icl", "irl", "delta-rl"]))
    def test_unresolvable_linewidth_named(self, tmp_path, capsys, extra, kernel):
        # the generator's entries span more than 1/eps: its rounding hides
        # the decays, which is the reason given, not a second steady state
        err = four_level_refusal(tmp_path, capsys, kernel, extra)
        assert err.startswith("numerical failure: drive or detuning exceeds the linewidth "
                              "by more than float64 can resolve: ")
        assert err.count("\n") == 1


class TestSteadyExcitationAtRoundingLevel:
    @pytest.mark.parametrize("extra,kernel", over_kernels([
        ["--delta-mhz", "1e6", "--icl", "103"],
        ["--delta-mhz", "1e11", "--icl", "103"],
        ["--delta-mhz", "1e12", "--icl", "103"],
    ], ["delta-1e6", "delta-1e11", "delta-1e12"]) + over_kernels([
        # the CLI refuses a cooling drive that is off in validation
        ["--delta-mhz", "-31", "--icl", "0"],
        ["--model", "full", "--env-a", "0.3", "--env-tau-us", "2", "--delta-mhz", "-31",
         "--icl", "0"],
    ], ["icl-0", "full-icl-0"], kernels=("library",)))
    def test_refused(self, tmp_path, capsys, extra, kernel):
        # the excited population is within the null vector's rounding error,
        # so g2 would divide noise by noise
        err = four_level_refusal(tmp_path, capsys, kernel, extra)
        assert err.startswith("numerical failure: no steady-state excitation: the excited "
                              "population is not above the null vector's rounding error ")
        assert err.count("\n") == 1

    def test_two_level_obe_without_drive(self):
        # the kernel's own rule, for library callers: the CLI refuses
        # --icl-mw-cm2 0 in validation
        from singleatom.constants import RB87_GAMMA_D2, TWO_PI
        from singleatom.obe import two_level_obe_g2

        with pytest.raises(ValueError, match="^no steady-state excitation: drive is off$"):
            two_level_obe_g2(0.0, TWO_PI * -31e6, RB87_GAMMA_D2, 200e-9, 3, {})

    def test_resolved_excitation_kept(self, tmp_path):
        # 1e5 MHz: an excited population of 2.3e-8 against a rounding error of 6.5e-10
        code, _ = run(tmp_path, ["g2", "--delta-mhz", "1e5", "--icl", "103", "--points", "3"])
        assert code == EXIT_OK


class TestLongDelays:
    @pytest.mark.parametrize("model", ["four-level", "two-level-obe"])
    @pytest.mark.parametrize("tau_max_ns", ["1e7", "1e12"])
    def test_g2_settles_at_one(self, tmp_path, model, tau_max_ns):
        # the stationary mode's rate is exactly 0, so nothing grows at long delays
        code, out = run(tmp_path, ["g2", "--model", model, "--delta-mhz", "-31",
                                   "--icl", "103", "--points", "3", "--tau-max-ns", tau_max_ns])
        assert code == EXIT_OK
        rows = out.read_text().splitlines()[2:]
        assert [float(row.split(",")[1]) for row in rows] == [1.0, 1.0]


class TestAllocationFailure:
    @pytest.mark.parametrize("message,line", [
        ("", "numerical failure: out of memory\n"),
        ("Unable to allocate 7.45 GiB", "numerical failure: out of memory: Unable to allocate"
                                        " 7.45 GiB\n"),
    ])
    def test_exit_three_one_line_and_no_csv(self, tmp_path, capsys, monkeypatch, message,
                                             line):
        def runner(args):
            raise MemoryError(message)

        _, check, *flags = SPECS["pair-rate"]
        monkeypatch.setitem(SPECS, "pair-rate", (runner, check, *flags))
        code, out = run(tmp_path, ["pair-rate", "--eta", "0.5", "--metadata"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL and captured.err == line and captured.out == ""
        assert not out.exists() and not (tmp_path / "out.csv.meta.json").exists()

    def test_failed_write_removes_the_csv(self, tmp_path, capsys, monkeypatch):
        def failing_dump(*args, **kwargs):
            raise MemoryError

        # the CSV is written, then the sidecar's allocation fails
        monkeypatch.setattr(json, "dump", failing_dump)
        code, out = run(tmp_path, ["pair-rate", "--eta", "0.5", "--metadata"])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical failure: out of memory\n"
        assert not out.exists()


class TestValidateOnlyReadsLineData:
    TRAP = ["--power-mw", "40", "--waist-um", "3.5"]

    @pytest.mark.parametrize("args", [
        ["lightshift"] + TRAP,
        ["magic"],
        ["trap"] + TRAP,
        ["loading", "--rate-per-s", "1"] + TRAP,
        ["g2", "--delta-mhz", "-31", "--icl", "103", "--points", "3",
         "--trap-power-mw", "40", "--trap-waist-um", "3.5"],
        ["spectrum-fit", "--reference", "ref.csv", "--fluorescence", "fluor.csv"],
    ], ids=["lightshift", "magic", "trap", "loading", "g2-trap", "spectrum-fit"])
    def test_same_exit_and_line_as_the_run(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.setenv("SINGLEATOM_LINE_DATA", str(tmp_path / "absent.json"))
        code, out = run(tmp_path, args)
        run_err = capsys.readouterr().err
        assert code == EXIT_VALIDATION and not out.exists()
        assert main(args + ["--validate-only"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == run_err and "absent.json" in run_err
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    @pytest.mark.parametrize("role, name, content, message", [
        ("fluorescence", "nope.csv", None, "cannot read"),
        ("fluorescence", "nan.csv", "0,1\n1,nan\n", "must be finite"),
        ("reference", "uneven.csv", "0,0.5\n1,1\n3,0.5\n", "profile grid must be uniform"),
        ("reference", "wide.csv", "-1e308,0.5\n1e308,1\n", "grid spacing inf is too large"),
        ("reference", "coarse.csv", "-1e308,0.5\n0,1\n1e308,0.5\n",
         "grid spacing 1e+308 is too large"),
        ("fluorescence", "wide.csv", "-1e308,0.5\n1e308,1\n", "frequency span is not finite"),
    ], ids=["missing", "nan", "non-uniform-reference", "reference-steps-overflow",
            "reference-kernel-overflows", "fluorescence-span-overflows"])
    def test_spectrum_fit_profiles_read(self, tmp_path, capsys, fuzz_dir, role, name,
                                        content, message):
        # the profiles are read and their grids checked by --validate-only too,
        # so it fails as the run does
        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        profiles = {"reference": str(fuzz_dir / "ref.csv"),
                    "fluorescence": str(fuzz_dir / "fluor.csv"), role: str(path)}
        args = ["spectrum-fit", "--reference", profiles["reference"],
                "--fluorescence", profiles["fluorescence"]]
        code, out = run(tmp_path, args)
        run_err = capsys.readouterr().err
        assert code == EXIT_VALIDATION and not out.exists()
        assert main(args + ["--validate-only"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == run_err and run_err.count("\n") == 1
        assert run_err.startswith("validation: ") and str(path) in run_err and message in run_err
        assert captured.out == ""

    @pytest.mark.parametrize("mode", [[], ["--validate-only"]], ids=["run", "validate-only"])
    def test_spectrum_fit_kernel_bounded(self, tmp_path, capsys, fuzz_dir, mode):
        # at the search's upper bound, sigma = span / 2, the blur kernel on the
        # reference's 5e4 Hz grid would hold 1.2e16 points
        path = tmp_path / "huge.csv"
        f = np.linspace(-5e19, 5e19, 201)
        np.savetxt(path, np.column_stack([f, np.exp(-(f / 2e19) ** 2)]), delimiter=",")
        code, out = run(tmp_path, ["spectrum-fit", "--reference", str(fuzz_dir / "ref.csv"),
                                   "--fluorescence", str(path)] + mode)
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION and not out.exists() and captured.out == ""
        assert captured.err.startswith(f"validation: {path}: ")
        assert captured.err.count("\n") == 1 and f"more than {MAX_POINTS} points" in captured.err

    @pytest.mark.parametrize("args", [
        ["g2", "--delta-mhz", "-31", "--icl", "103", "--points", "3"],
        ["bell"],
        ["spectrum-fit", "--reference", "{dir}/ref.csv", "--fluorescence", "{dir}/fluor.csv",
         "--wavelength-nm", "780.246"],
    ], ids=["g2-no-trap", "bell", "spectrum-fit-wavelength"])
    def test_line_data_not_read_when_unused(self, capsys, monkeypatch, tmp_path, fuzz_dir,
                                            args):
        monkeypatch.setenv("SINGLEATOM_LINE_DATA", str(tmp_path / "absent.json"))
        args = [a.format(dir=fuzz_dir) for a in args]
        assert main(args + ["--validate-only"]) == EXIT_OK
        assert capsys.readouterr().out == "configuration ok\n"

    @pytest.mark.parametrize("args", [
        ["trap"] + TRAP,
        ["g2", "--delta-mhz", "-31", "--icl", "103", "--points", "3",
         "--trap-power-mw", "40", "--trap-waist-um", "3.5"],
    ], ids=["trap", "g2-trap"])
    def test_override_read_once_per_run(self, tmp_path, monkeypatch, args):
        from singleatom import lightshift
        path = tmp_path / "lines.json"
        path.write_text(resources.files("singleatom.data").joinpath("rb87_lines.json").read_text())
        monkeypatch.setenv("SINGLEATOM_LINE_DATA", str(path))
        calls = []
        load_lines = lightshift.load_lines
        monkeypatch.setattr(lightshift, "load_lines",
                            lambda p: calls.append(p) or load_lines(p))
        code, _ = run(tmp_path, args)
        assert code == EXIT_OK and calls == [str(path)]


@pytest.mark.parametrize("rates, n_max, ok", [
    ("0..999998:1", "1000", False),
    ("0..2000:1", "997", False),
    ("0..1999:1", "997", True),
    ("1", "1000", True),
], ids=["1e9-cells", "one-row-over", "at-the-bound", "one-rate"])
def test_loading_csv_cells_bounded(capsys, rates, n_max, ok):
    # rates x (n_max + 3) cells, at most 2 * MAX_POINTS; checked with
    # --validate-only alone, since a run past the bound would take minutes
    code = main(["loading", "--rate-per-s", rates, "--n-max", n_max, "--power-mw", "44",
                 "--waist-um", "3.5", "--validate-only"])
    captured = capsys.readouterr()
    if ok:
        assert code == EXIT_OK and captured.out == "configuration ok\n"
        return
    assert code == EXIT_VALIDATION and captured.out == ""
    assert captured.err.startswith("validation: --rate-per-s and --n-max: ")
    assert captured.err.count("\n") == 1 and f"more than {2 * MAX_POINTS}" in captured.err


def test_n_max_bounded(capsys):
    code = main(["loading", "--rate-per-s", "1", "--power-mw", "44", "--waist-um", "3.5",
                 "--n-max", "100000000", "--validate-only"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation: ") and err.count("\n") == 1
    assert "--n-max" in err



class TestMetadataParameters:
    """The sidecar's parameters, recorded before the scenario table existed."""

    CANONICAL = {
        "lightshift": (["--power-mw", "44", "--waist-um", "3.5"],
                       {"power_mw": 44.0, "waist_um": 3.5, "wavelength_nm": 856.0}),
        "magic": ([], {"bracket_um": [1.2, 1.6]}),
        "trap": (["--power-mw", "44", "--waist-um", "3.5"],
                 {"power_mw": 44.0, "waist_um": 3.5, "wavelength_nm": 856.0}),
        "loading": (["--rate-per-s", "0.1..1:0.1", "--power-mw", "44", "--waist-um", "3.5"],
                    {"beta_cm3_s": 5e-10, "gamma_per_s": 0.2, "n_max": 5,
                     "power_mw": 44.0, "rate_per_s": "0.1..1:0.1",
                     "temperature_uk": 100.0, "waist_um": 3.5, "wavelength_nm": 856.0}),
        "g2": (["--delta-mhz", "-31", "--icl", "103", "--points", "11"],
               {"delta_mhz": -31.0, "delta_rl_mhz": 0.0, "env_a": None,
                "env_tau_us": None, "icl_mw_cm2": 103.0, "irl_mw_cm2": 12.0,
                "kinetic_uk": 100.0, "model": "four-level", "points": 11,
                "tau_max_ns": 200.0, "trap_power_mw": None, "trap_waist_um": None,
                "trap_wavelength_nm": 856.0}),
        "stirap": (["--alpha-deg", "0..180:5"],
                   {"alpha_deg": "0..180:5", "prep_phase_rad": 0.0, "visibility": 1.0}),
        "larmor": (["--b-mgauss", "132"],
                   {"b_mgauss": 132.0, "g_f": -0.5, "points": 501, "t_max_us": 10.0}),
        "bell": ([], {"noise_p": 1.0, "phi_a2_deg": 90.0, "phi_a_deg": 0.0,
                      "phi_b2_deg": 135.0, "phi_b_deg": 45.0}),
        "correlations": (["--beta-deg", "0..180:5"],
                         {"basis": "x", "beta_deg": "0..180:5", "visibility": 1.0}),
        "spectrum-fit": (["--reference", "ref.csv", "--fluorescence", "fluor.csv"],
                         {"fluorescence": "fluor.csv", "reference": "ref.csv",
                          "wavelength_nm": 780.246}),
        "pair-rate": (["--eta", "5e-4"],
                      {"cycle_us": 1.0, "duty_factor": 1.0, "eta": 0.0005,
                       "t_fiber": 0.9746794344808963}),
    }

    def test_every_scenario_pinned(self):
        assert set(self.CANONICAL) == set(SCENARIOS)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_parameters_keys_and_defaults(self, tmp_path, monkeypatch, scenario):
        from singleatom.analysis import gaussian_profile
        monkeypatch.chdir(tmp_path)
        f = np.linspace(-5e6, 5e6, 201)
        for name, sigma in (("ref.csv", 0.5e6), ("fluor.csv", 0.7e6)):
            profile = gaussian_profile(f, sigma)
            np.savetxt(name, np.column_stack([profile.frequency, profile.amplitude]),
                       delimiter=",")
        argv, expected = self.CANONICAL[scenario]
        assert main([scenario, *argv, "--metadata", "--out", "out.csv"]) == EXIT_OK
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["parameters"] == expected


# required keys of each scenario, with grids and --points small enough that
# every fuzzed run stays cheap
FUZZ_BASE = {
    "lightshift": ["--power-mw", "44", "--waist-um", "3.5"],
    "magic": [],
    "trap": ["--power-mw", "44", "--waist-um", "3.5"],
    "loading": ["--rate-per-s", "0.5", "--power-mw", "44", "--waist-um", "3.5"],
    "g2": ["--delta-mhz", "-31", "--icl", "103", "--points", "21"],
    "stirap": ["--alpha-deg", "0..90:45"],
    "larmor": ["--b-mgauss", "100", "--points", "21"],
    "bell": [],
    "correlations": ["--beta-deg", "0..90:45"],
    "spectrum-fit": ["--reference", "{dir}/ref.csv", "--fluorescence", "{dir}/fluor.csv"],
    "pair-rate": ["--eta", "0.001"],
}

FUZZ_FLOATS = st.one_of(
    st.floats(min_value=-1e4, max_value=1e4),
    st.sampled_from([0.0, 1e-310, -1e-310, 5e-324, 1e300, -1e300,
                     math.nan, math.inf, -math.inf,
                     780.246, 794.979]),  # the table's D2 and D1 lines, in nm
)

# string-valued flags draw from bounded sets: small, malformed, non-finite
# and (for grids) over MAX_POINTS points, so no run gets expensive
FUZZ_STRINGS = {
    "grid": ["0.5", "0..2:0.5", "-1", "-5..5:5", "1e300", "1e-300", "2..1:1",
             "0..90", "1..2:0", "oops", "", "nan", "inf", "0..inf:1", "nan..1:1",
             f"0..{2 * MAX_POINTS}:1", "0..1:1e-7"],
    "bracket": ["1.2,1.6", "1.3,1.5", "1.6,1.2", "1.2,1.2", "0,1.6", "-1,2",
                "nan,1.6", "1.2,inf", "1.2", "a,b", "1,2,3"],
    "str": ["{dir}/ref.csv", "{dir}/fluor.csv", "{dir}/missing.csv", "{dir}",
            "{dir}/bad.csv", "{dir}/empty.csv", ""],
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    from singleatom.analysis import gaussian_profile
    path = tmp_path_factory.mktemp("fuzz")
    f = np.linspace(-5e6, 5e6, 201)
    for name, sigma in (("ref.csv", 0.5e6), ("fluor.csv", 0.7e6)):
        profile = gaussian_profile(f, sigma)
        np.savetxt(path / name, np.column_stack([profile.frequency, profile.amplitude]),
                   delimiter=",")
    (path / "bad.csv").write_text("a,b\nc,d\n")
    (path / "empty.csv").write_text("")
    return path


def exit_and_stderr(argv) -> tuple[int, str]:
    """``main``'s exit code and stderr; argparse refuses a malformed typed
    value with SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), scenario=st.sampled_from(SCENARIOS))
def test_fuzzed_flags_exit_cleanly(fuzz_dir, data, scenario):
    """Any mix of finite, non-finite and malformed flag values: exit 0, 2 or
    3, never a non-finite value in the CSV, no CSV at all unless the run
    succeeded, and exactly one stderr line when it did not.  --validate-only
    refuses what the run refuses in validation, with the same line: a
    nonzero --validate-only exit is the run's exit and line, and so is a
    run's exit 2.  A run may still fail numerically where validation passed."""
    out = fuzz_dir / "out.csv"
    if out.exists():
        out.unlink()
    argv = [scenario] + [a.format(dir=fuzz_dir) for a in FUZZ_BASE[scenario]]
    for flag in SPECS[scenario][2:]:
        if not data.draw(st.booleans()):
            continue
        if flag.kind == "float":
            value = repr(data.draw(FUZZ_FLOATS))
        elif flag.kind == "int":
            value = data.draw(st.integers(min_value=-2, max_value=50))
        elif flag.kind == "choice":
            value = data.draw(st.sampled_from([*flag.check, "bogus", ""]))
        elif flag.kind in FUZZ_STRINGS:
            value = data.draw(st.sampled_from(FUZZ_STRINGS[flag.kind])).format(dir=fuzz_dir)
        else:
            continue
        argv.append(f"--{flag.name}={value}")
    argv += ["--out", str(out)]
    assert_table_agrees(argv)
    checked = exit_and_stderr(argv + ["--validate-only"])
    assert not out.exists()
    code, err = exit_and_stderr(argv)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL)
    if code != EXIT_OK:
        assert not out.exists()
        assert err.count("\n") == 1 and err.endswith("\n")
    elif out.exists():
        text = out.read_text().lower()
        assert "nan" not in text and "inf" not in text
    if checked[0] != EXIT_OK or code == EXIT_VALIDATION:
        assert checked == (code, err)


def given_of(read, argv) -> dict | None:
    """The flags ``read(argv)`` finds as {dest: (type, repr)}, so NaN equals
    NaN and 44 differs from 44.0; None where it returns None or exits
    (argparse's usage errors and texts)."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            given = read(list(argv))
    except SystemExit:
        return None
    return None if given is None else {k: (type(v), repr(v)) for k, v in given.items()}


def assert_table_agrees(argv) -> dict | None:
    """The table parser leaves ``argv`` to argparse (None), or reads the
    flags it gives as argparse reads them; the config file is not read."""
    table = given_of(_plain_args, argv)
    if table is not None:
        assert table == given_of(lambda a: vars(build_parser().parse_args(a)), argv), argv
    return table


# the command lines of the golden corpus (its library cases have none)
GOLDEN = [case for case in
          json.loads((pathlib.Path(__file__).parent / "golden" / "manifest.json").read_text())
          if "argv" in case]
# the golden lines that argparse reads: its texts, its usage errors and an abbreviation
ARGPARSE_LINES = {"help", "version", "bare", "unknown-scenario", "unknown-flag", "malformed-int",
                  "malformed-bracket", *(f"help-{command}" for command in COMMANDS),
                  "parser-abbreviated-flag", "parser-exponent-token", "parser-switch-with-value",
                  "parser-missing-value", "parser-double-dash", "parser-list-extra",
                  "parser-abbreviated-with-config", "parser-abbreviated-config-flag"}


@pytest.mark.parametrize("case", GOLDEN, ids=[case["id"] for case in GOLDEN])
def test_table_reads_golden_line_as_argparse(case):
    assert (assert_table_agrees(case["argv"]) is None) == (case["id"] in ARGPARSE_LINES)


EXPECTED = json.loads((pathlib.Path(__file__).parent / "golden" / "expected.json").read_text())
# the golden lines that the table reads and validation refuses
PLAIN_REFUSALS = [case for case in GOLDEN
                  if EXPECTED["cases"][case["id"]]["exit"] == EXIT_VALIDATION
                  and _plain_args(case["argv"]) is not None]


@pytest.mark.parametrize("case", PLAIN_REFUSALS, ids=[case["id"] for case in PLAIN_REFUSALS])
def test_golden_refusal_names_flags_of_its_scenario(case):
    flags = _COMMON + SPECS[case["argv"][0]][2:]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", EXPECTED["cases"][case["id"]]["stderr"]))
    assert named <= {f"--{flag.name}" for flag in flags}


def test_golden_refusals_name_flags():
    # the check above would pass vacuously if no refusal named a flag: each
    # names one, but those of the config file itself
    unnamed = {case["id"] for case in PLAIN_REFUSALS
               if "--" not in EXPECTED["cases"][case["id"]]["stderr"]}
    assert unnamed == {"config-unknown-key", "config-type-mismatch", "config-not-object",
                       "config-missing-file"}


# separate value tokens: negative numbers by argparse's rule and not, options, empty
DRAWN_VALUES = ["1", "44", "0.5", "-5", "-.5", "-2.5", "-1e5", "1e5", "-5.", "-", "--", "",
                "-x", "--out", "nan", "-inf", "0..1:0.5", "1.2,1.6", "1.2", "x", "y",
                "two-level-obe", "full", "3 4", "-1 2", "\uff15", "-\uff15", "5\n", "-5\n"]
STRAY_TOKENS = ["--", "-h", "--help", "--version", "extra", "-5", "--nosuch", "--nosuch=1"]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), command=st.sampled_from(COMMANDS))
def test_table_reads_drawn_lines_as_argparse(data, command):
    """Lines of every form: ``--name=value`` and ``--name value``, names,
    aliases and abbreviations, switches with and without a value, a flag
    given twice, and stray tokens."""
    flags = _COMMON + tuple(SPECS[command][2:]) if command != "list" else ()
    names = [name for flag in flags for name in (flag.name, flag.alias) if name]
    argv = [command]
    for _ in range(data.draw(st.integers(0, 6))):
        if not names or data.draw(st.integers(0, 5)) == 0:
            argv.append(data.draw(st.sampled_from(STRAY_TOKENS)))
            continue
        name = data.draw(st.sampled_from(names))
        if data.draw(st.integers(0, 5)) == 0:
            name = name[:data.draw(st.integers(1, len(name)))]
        value = data.draw(st.sampled_from(DRAWN_VALUES))
        form = data.draw(st.sampled_from(["=", " ", "none"]))
        argv += ([f"--{name}={value}"] if form == "=" else
                 [f"--{name}", value] if form == " " else [f"--{name}"])
    assert_table_agrees(argv)
