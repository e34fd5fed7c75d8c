"""Tests for the command-line front end: config handling, determinism, exit codes."""

import argparse
import json
import math

import numpy as np
import pytest

from qmet.cem import g_bound, generator_pair
from qmet.cli import _PARSER, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, _fmt, main, resolve_config
from qmet.fisher import classical_fisher, qfi
from qmet.models import (
    jc_readout_model,
    make_nv_spin1,
    make_qubit_direction,
    reference,
)
from qmet.numdiff import DiffSpec
from qmet.phasesim import PhaseSimConfig, fisher_phase_readout

# cem._solution's typed error for a G beyond the float range.
G_OVERFLOWS = "InvalidParameter: G = (sigma(g_dyn) + sigma(g_diag))^2 overflows"
MAX_QFI_OVERFLOWS = "InvalidParameter: sigma(g_dyn)^2 overflows"
PROBE_COMMANDS = ("gbound", "qfi", "optimize", "phase-sim")


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestConfigHandling:
    def test_unknown_model_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "qfi", "--model", "no-such-model",
                      "--theta", "0.5:1.5:2", "--t", "1:2:2")
        assert code == EXIT_CONFIG

    def test_empty_grid_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "qfi", "--theta", "0.5:1.5:0", "--t", "1:2:2")
        assert code == EXIT_CONFIG

    def test_grid_over_1e5_points_is_config_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "qfi", "--theta", "0.5:1.5:100001", "--t", "1:2:1")
        assert code == EXIT_CONFIG
        assert "exceeds 1e5 points" in capsys.readouterr().err

    def test_malformed_grid_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "qfi", "--theta", "0.5,1.5,3", "--t", "1:2:2")
        assert code == EXIT_CONFIG

    def test_missing_config_file_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "qfi", "--config", str(tmp_path / "absent.ini"))
        assert code == EXIT_CONFIG

    def test_unknown_model_parameter_rejected(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nname = qubit-direction\nkappa = 0.5\n")
        code, _ = run(tmp_path, "qfi", "--config", str(ini))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("restarts", ["0", "abc"])
    def test_bad_optimizer_restarts_is_config_error(self, tmp_path, capsys, restarts):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[optimizer]\nrestarts = {restarts}\n")
        code, _ = run(tmp_path, "optimize", "--config", str(ini),
                      "--theta", "1.0:1.0:1", "--t", "1.0:1.0:1")
        assert code == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--n", "20"), ("--m", "0"), ("--tau", "-1")])
    def test_bad_phase_sim_input_is_config_error(self, tmp_path, capsys, flag, value):
        code, _ = run(tmp_path, "phase-sim", "--theta", "1.0:1.0:1", "--t", "1.0:1.0:1",
                      flag, value)
        assert code == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--n", "x", "--n must be int, got 'x'"),
        ("--tau", "abc", "--tau must be float, got 'abc'"),
        ("--seed", "1.5", "--seed must be int, got '1.5'"),
        ("--format", "xml", "format must be csv or json, got 'xml'"),
    ])
    def test_bad_flag_value_is_config_error(self, tmp_path, capsys, flag, value, message):
        """A flag value goes through its setting's parser, as the INI value does, so main
        returns exit 2 with a config error instead of the parser exiting."""
        code, text = run(tmp_path, "phase-sim", "--theta", "1:1:1", "--t", "1:1:1", flag, value)
        assert (code, text) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_bad_ini_value_names_its_section(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[phasesim]\nn = x\n")
        code, text = run(tmp_path, "phase-sim", "--config", str(ini), "--theta", "1:1:1",
                         "--t", "1:1:1")
        assert (code, text) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err == "config error: [phasesim] n must be int, got 'x'\n"

    @pytest.mark.parametrize("line", ["alpha1_sq = 1.5", "alpha1_sq = -0.2",
                                      "n_max = 0", "n_max = 8.5"])
    def test_bad_jc_parameter_is_config_error(self, tmp_path, capsys, line):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\nname = jaynes-cummings\n{line}\n")
        code, _ = run(tmp_path, "jc", "--config", str(ini),
                      "--theta", "0.8:1.4:2", "--t", "0.7:1.9:2")
        assert code == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,line", [
        ("oscillator", "omega = 0"),
        ("oscillator", "mass = -1"),
        ("jc", "kappa = -1"),
        ("jc", "omega = 3"),  # the frequency is the grid; no model key sets it
    ])
    def test_bad_measurement_model_parameter_is_config_error(self, tmp_path, capsys,
                                                             command, line):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\n{line}\n")
        code, _ = run(tmp_path, command, "--config", str(ini),
                      "--theta", "0.8:1.4:2", "--t", "0.7:1.9:2")
        assert code == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["nan:1:2", "0.5:inf:2", "-1e308:1e308:3"])
    def test_non_finite_grid_is_config_error(self, tmp_path, capsys, spec):
        """Through --theta and [grid] t; the last grid has finite ends but an infinite span."""
        ini = tmp_path / "run.ini"
        ini.write_text(f"[grid]\nt = {spec}\n")
        for argv in ((f"--theta={spec}", "--t", "1:1:1"), ("--config", str(ini))):
            code, text = run(tmp_path, "gbound", *argv)
            assert code == EXIT_CONFIG and text == ""
            assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", ["step = 0", "step = -1e-3", "step = nan", "levels = 0",
                                       "method = bogus", "method = analytic"])
    def test_bad_diff_setting_is_config_error(self, tmp_path, capsys, lines):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[diff]\n{lines}\n")
        code, _ = run(tmp_path, "qfi", "--config", str(ini),
                      "--theta", "0.5:1.5:2", "--t", "1:2:2")
        assert code == EXIT_CONFIG
        assert "config error: [diff]" in capsys.readouterr().err

    @pytest.mark.parametrize("model,line", [("qubit-direction", "omega = -1"),
                                            ("nv-spin1", "mu = 0"), ("nv-spin1", "D = -1")])
    def test_bad_probe_model_parameter_is_config_error(self, tmp_path, capsys, model, line):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\nname = {model}\n{line}\n")
        code, _ = run(tmp_path, "gbound", "--config", str(ini),
                      "--theta", "0.5:1.5:2", "--t", "1:2:2")
        assert code == EXIT_CONFIG
        assert "config error: [model]" in capsys.readouterr().err

    @pytest.mark.parametrize("command,lines", [
        ("gbound", "name = qubit-direction\nomega = nan"),
        ("gbound", "name = nv-spin1\nE = inf"),
        ("jc", "name = jaynes-cummings\nkappa = inf"),
        ("oscillator", "name = oscillator\nmass = nan"),
    ], ids=lambda v: v.split("\n")[-1] if "\n" in v else v)
    def test_non_finite_model_parameter_is_config_error(self, tmp_path, capsys, command,
                                                         lines):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\n{lines}\n")
        code, text = run(tmp_path, command, "--config", str(ini),
                         "--theta", "0.5:1.5:2", "--t", "1:2:2")
        assert (code, text) == (EXIT_CONFIG, "")
        assert "must be finite" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        """Through --seed and [run] seed; numpy's default_rng takes no negative seed."""
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nseed = -1\n")
        grid = ("--theta", "1:1:1", "--t", "1:1:1")
        for argv in (("--seed", "-1"), ("--config", str(ini))):
            code, text = run(tmp_path, "optimize", *grid, *argv)
            assert (code, text) == (EXIT_CONFIG, "")
            assert "seed >= 0, got 8, 400 and -1" in capsys.readouterr().err

    def test_unknown_format_is_config_error(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nformat = xml\n")
        code, text = run(tmp_path, "gbound", "--config", str(ini), "--theta", "1:1:1",
                         "--t", "1:1:1")
        assert (code, text) == (EXIT_CONFIG, "")
        assert "format must be csv or json, got 'xml'" in capsys.readouterr().err

    def test_out_in_a_missing_directory_is_config_error(self, tmp_path, capsys):
        """Rejected before the sweep runs, and nothing is created."""
        out = tmp_path / "no" / "such" / "x.csv"
        code = main(["gbound", "--theta", "1:1:1", "--t", "1:1:1", "--out", str(out)])
        assert code == EXIT_CONFIG and not (tmp_path / "no").exists()
        assert capsys.readouterr().err == (
            f"config error: output path {str(out)!r}: no directory {str(out.parent)!r}\n")

    def test_out_that_is_a_directory_is_config_error(self, tmp_path, capsys):
        code = main(["gbound", "--theta", "1:1:1", "--t", "1:1:1", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG and list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err == (
            f"config error: output path {str(tmp_path)!r} names a directory, not a file\n")

    def test_jc_rejects_a_probe_model(self, tmp_path, capsys):
        code, text = run(tmp_path, "jc", "--model", "qubit-direction",
                         "--theta", "0.8:1.4:2", "--t", "0.7:1.9:2")
        assert (code, text) == (EXIT_CONFIG, "")
        assert "command 'jc' supports models jaynes-cummings" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["kappa = -0.5", "n_max = 1"])
    def test_jc_range_comes_from_the_read_out_model(self, tmp_path, capsys, line):
        """jc_readout_model owns kappa >= 0 and n_max >= 2; nothing is written."""
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\n{line}\n")
        code, text = run(tmp_path, "jc", "--config", str(ini),
                         "--theta", "0.8:1.4:2", "--t", "0.7:1.9:2")
        assert (code, text) == (EXIT_CONFIG, "")
        assert "config error: [model] kappa must be >= 0 and n_max >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", ["1e9", "501"])
    def test_jc_truncation_has_an_upper_bound(self, tmp_path, capsys, n_max):
        """n_max above JC_N_MAX is rejected before any Fock matrix is allocated."""
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\nn_max = {n_max}\n")
        code, text = run(tmp_path, "jc", "--config", str(ini), "--theta", "1:1:1", "--t", "1:1:1")
        assert (code, text) == (EXIT_CONFIG, "")
        assert "n_max >= 2 and <= 500" in capsys.readouterr().err

    def test_flags_may_precede_the_command(self, tmp_path):
        flags = ("--model", "nv-spin1", "--theta", "0.4:1.6:3", "--t", "0.5:2:2")
        code_after, after = run(tmp_path, "gbound", *flags)
        code_before, before = run(tmp_path, *flags, "gbound")
        assert code_after == code_before == EXIT_OK
        assert after == before

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        calls = []
        original = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        for _ in range(2):
            code, _ = run(tmp_path, "gbound", "--theta", "1:1:1", "--t", "1:1:1")
            assert code == EXIT_OK
        assert calls == []

    def test_config_file_with_flag_override(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[model]\nname = qubit-direction\nomega = 1.0\n"
            "[grid]\ntheta = 0.5:1.5:2\nt = 0.8:1.6:2\n"
            "[run]\nseed = 3\n"
        )
        code, text = run(tmp_path, "qfi", "--config", str(ini), "--theta", "0.6:1.2:3")
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        assert len(rows) == 3 * 2
        assert float(rows[0]["theta"]) == pytest.approx(0.6)

    @pytest.mark.parametrize("text, reason", [
        (b"theta = 1:2:3\n", "File contains no section headers."),
        (b"[grid]\ntheta = 1:2:3\ntheta = 1:2:4\n",
         "option 'theta' in section 'grid' already exists"),
        (b"[run]\nout = 50%.csv\n", "'%' must be followed by '%' or '('"),
        (b"[grid]\ntheta = 1:2:3\xff\n", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["no-section-header", "duplicate-key", "lone-percent", "not-utf-8"])
    def test_malformed_config_file_is_config_error(self, tmp_path, capsys, text, reason):
        ini = tmp_path / "run.ini"
        ini.write_bytes(text)
        code, out = run(tmp_path, "gbound", "--config", str(ini))
        assert (code, out) == (EXIT_CONFIG, "")
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot parse config file {str(ini)!r}: ")
        assert reason in err

    @pytest.mark.parametrize("text, message", [
        ("[grid]\nthetta = 0.5:1:2\n", "unknown key [grid] thetta"),
        ("[grid]\ntheta 0.5:1:2\n", "unknown key [grid] theta 0.5"),  # ':' splits too
        ("[diff]\nstep = 1e-3\nmethods = central-fd\n", "unknown key [diff] methods"),
        ("[grid]\nt = 1:1:1\n[grids]\ntheta = 1:1:1\n", "unknown section [grids]"),
    ], ids=["misspelt-key", "no-equals-sign", "misspelt-diff-key", "unknown-section"])
    def test_undeclared_config_key_is_config_error(self, tmp_path, capsys, text, message):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        code, out = run(tmp_path, "gbound", "--config", str(ini))
        assert (code, out) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_default_section_keys_are_not_unknown_keys(self, tmp_path):
        """configparser copies [DEFAULT] keys into every section: seed is read in [run]
        and is not an unknown key of [grid]."""
        ini = tmp_path / "run.ini"
        ini.write_text("[DEFAULT]\nseed = 4\n[grid]\ntheta = 1:1:1\nt = 1:1:1\n[run]\n")
        cfg = resolve_config(_PARSER.parse_args(["gbound", "--config", str(ini)]))
        assert cfg.seed == 4 and cfg.theta.tolist() == [1.0]

    @pytest.mark.parametrize("command, digest", [
        ("qfi", "62a785ee2f43"), ("gbound", "43b3947aa216"), ("optimize", "a4d8d07e2f22"),
        ("phase-sim", "318e6735a254"), ("jc", "81f08503d564"), ("oscillator", "26b47fce3807"),
    ])
    def test_default_config_hash_is_pinned(self, command, digest):
        """Every file carries this hash, so a default run's output stays byte-identical."""
        assert resolve_config(_PARSER.parse_args([command])).config_hash() == digest


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        args = ("gbound", "--model", "qubit-direction",
                "--theta", "0.4:2.6:4", "--t", "0.5:2.5:3", "--seed", "11")
        _, first = run(tmp_path, *args)
        _, second = run(tmp_path, *args)
        assert first == second
        assert first.startswith("# qmet ")

    def test_identical_optimize_runs_identical_bytes(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[optimizer]\nrestarts = 1\niterations = 6\n")
        args = ("optimize", "--config", str(ini), "--theta", "1.0:1.0:1",
                "--t", "1.0:1.0:1", "--seed", "5", "--format", "json")
        _, first = run(tmp_path, *args)
        _, second = run(tmp_path, *args)
        assert first == second

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_equals_the_out_file(self, tmp_path, capsys, fmt):
        """Without --out the records go to stdout, byte for byte as --out writes them."""
        args = ["gbound", "--theta", "0.4:2.6:3", "--t", "0.5:2.5:2", "--format", fmt]
        capsys.readouterr()
        assert main(args) == EXIT_OK
        printed = capsys.readouterr().out
        code, _ = run(tmp_path, *args)
        assert code == EXIT_OK
        assert printed.encode("utf-8") == (tmp_path / "out.txt").read_bytes()
        assert capsys.readouterr().out == ""


class TestNumericalFailures:
    def test_domain_boundary_is_exit_three(self, tmp_path, capsys):
        """The Richardson stencil leaves (0, pi) at theta = 1e-6; the analytic path at 0."""
        ini = tmp_path / "run.ini"
        ini.write_text("[diff]\nmethod = richardson-fd\n")
        code, _ = run(tmp_path, "qfi", "--config", str(ini), "--model", "qubit-direction",
                      "--theta", "0.000001:1:3", "--t", "1:2:2")
        assert code == EXIT_NUMERICAL
        assert "grid point" in capsys.readouterr().err
        code, _ = run(tmp_path, "qfi", "--model", "qubit-direction",
                      "--theta", "0:1:3", "--t", "1:2:2")
        assert code == EXIT_NUMERICAL
        assert "grid point" in capsys.readouterr().err

    def test_domain_message_names_the_point_or_the_real_stencil(self, tmp_path, capsys):
        """An analytic path has no stencil to name; the [diff] oracle names its own."""
        ini = tmp_path / "run.ini"
        ini.write_text("[diff]\nmethod = richardson-fd\n")
        grid = ("--theta", "0:1:3", "--t", "1:1:1")
        point = f"parameter value 0.0 is outside the open domain (0.0, {math.pi})"
        for argv in [("gbound",), ("gbound", "--config", str(ini)), ("qfi",), ("optimize",)]:
            assert run(tmp_path, *argv, *grid)[0] == EXIT_NUMERICAL
            err = capsys.readouterr().err
            assert point in err and "stencil" not in err
        assert run(tmp_path, "jc", "--theta", "0:1:2", "--t", "1:1:1")[0] == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "parameter value 0.0 is outside the open domain (0.0, inf)" in err
        assert "theta" not in err and "stencil" not in err
        assert run(tmp_path, "qfi", "--config", str(ini), *grid)[0] == EXIT_NUMERICAL
        assert (f"stencil [-0.0001, 0.0001] leaves the open domain (0.0, {math.pi})"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("theta", ["0:1:2", "-1:-0.5:2"])
    def test_jc_frequency_outside_domain_is_exit_three(self, tmp_path, capsys, theta):
        """The read-out's (0, inf) frequency check runs before any closed form."""
        code, _ = run(tmp_path, "jc", f"--theta={theta}", "--t", "1:1:1")
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "grid point" in err and "DomainBoundary" in err


    @pytest.mark.parametrize("command, model, key, theta", [
        ("gbound", "qubit-direction", "omega", "1"),
        ("optimize", "qubit-direction", "omega", "1"),
        ("phase-sim", "qubit-direction", "omega", "1"),
        ("qfi", "qubit-direction", "omega", "1"),
        ("gbound", "nv-spin1", "mu", "0.6"),
    ])
    def test_overflowing_spectral_range_is_exit_three(self, tmp_path, capsys, command, model,
                                                      key, theta):
        """A spectral range beyond the float range is a typed error at its point, raised
        without a NumPy overflow warning (tier-1 turns warnings into errors)."""
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\n{key} = 1e308\n")
        code, text = run(tmp_path, command, "--config", str(ini), "--model", model,
                         "--theta", f"{theta}:{theta}:1", "--t", "1:1:1")
        assert (code, text) == (EXIT_NUMERICAL, "")
        assert (f"at grid point ({float(theta)}, 1.0): InvalidParameter: spectral range of "
                f"H({float(theta)}) overflows" in capsys.readouterr().err)

    @pytest.mark.parametrize("command, key, value, point, cause", [
        ("gbound", "omega", "1e200", "(1.0, 1.0)", G_OVERFLOWS),
        ("qfi", "omega", "1e200", "(1.0, 1.0)", MAX_QFI_OVERFLOWS),
        ("qfi", "omega", "1e307", "(1.0, 1.0)", MAX_QFI_OVERFLOWS),  # before the trace check
        ("qfi", "omega", "1e100", "(1.0, 1.0)", "ArithmeticError: non-finite qfi_err = inf"),
        ("qfi", "omega", "1e150", "(1.0, 1.0)", "ArithmeticError: non-finite qfi_err = inf"),
        ("optimize", "omega", "1e200", "(1.0, 1.0)", G_OVERFLOWS),
        ("phase-sim", "omega", "1e200", "(1.0, 1.0)", G_OVERFLOWS),
        ("phase-sim", "omega", "1e150", "(1.0, 1.0)",
         "ArithmeticError: non-finite fi_ideal_err = inf"),
        ("oscillator", "omega", "1e150", "1.0", "OverflowError"),
        ("oscillator", "omega", "1e-150", "1.0", "ZeroDivisionError"),
    ])
    def test_overflow_is_exit_three(self, tmp_path, capsys, command, key, value, point, cause):
        """A value that leaves the float range, by a Python float raising or by a NumPy
        result that is inf or NaN in a column not declared non-finite, is exit 3 at its
        point; no NumPy warning escapes (tier-1 turns warnings into errors)."""
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\n{key} = {value}\n[optimizer]\nrestarts = 1\niterations = 4\n")
        code, text = run(tmp_path, command, "--config", str(ini),
                         "--theta", "1:1:1", "--t", "1:1:1")
        assert (code, text) == (EXIT_NUMERICAL, "")
        assert f"numerical failure at grid point {point}: {cause}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, model, key, value, t, point", [
        ("gbound", "qubit-xcomponent", "omega", "1e155", "1", "(1.0, 1.0)"),
        ("qfi", "qubit-xcomponent", "omega", "1e155", "1", "(1.0, 1.0)"),
        ("gbound", "nv-spin1", "E", "1e155", "1", "(1.0, 1.0)"),
        ("qfi", "nv-spin1", "E", "1e155", "1", "(1.0, 1.0)"),
        ("oscillator", "oscillator", "omega", "1e100", "1e300", "1e+300"),
    ])
    def test_closed_form_overflow_is_exit_three(self, tmp_path, capsys, command, model, key,
                                                value, t, point):
        """A closed form whose sine or cosine argument overflows to inf raises OverflowError,
        not math's ValueError, so the point is exit 3."""
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\nname = {model}\n{key} = {value}\n")
        code, text = run(tmp_path, command, "--config", str(ini),
                         "--theta", "1:1:1", f"--t={t}:{t}:1")
        assert (code, text) == (EXIT_NUMERICAL, "")
        assert (f"numerical failure at grid point {point}: OverflowError: trigonometric "
                "argument inf is not finite" in capsys.readouterr().err)

    @pytest.mark.parametrize("command", PROBE_COMMANDS)
    def test_failure_mid_grid_names_the_first_failing_point(self, tmp_path, capsys, command):
        """The first two rows succeed; (3.5, 1.0) and every later point leave (0, pi).  The
        first failing point in grid order is named, and nothing is written."""
        ini = tmp_path / "run.ini"
        ini.write_text("[optimizer]\nrestarts = 2\niterations = 20\n")
        code, text = run(tmp_path, command, "--config", str(ini), "--model", "qubit-direction",
                         "--theta", "2.5:4.5:3", "--t", "1:2:2")
        assert code == EXIT_NUMERICAL
        assert not (tmp_path / "out.txt").exists()
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("numerical failure at grid point (3.5, 1.0): DomainBoundary: parameter "
                       f"value 3.5 is outside the open domain (0.0, {math.pi})\n")

    @pytest.mark.parametrize("command", PROBE_COMMANDS)
    def test_degenerate_point_mid_grid_is_exit_three(self, tmp_path, capsys, command):
        """nv-spin1 at E = 0 has its S_z = 0 and S_z = -1 levels cross at theta = 2 D / mu,
        the middle theta here.  Its first t names the point; nothing is written."""
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nE = 0\n[optimizer]\nrestarts = 2\niterations = 20\n")
        code, text = run(tmp_path, command, "--config", str(ini), "--model", "nv-spin1",
                         "--theta", "8.047786842338604:10.047786842338604:3", "--t", "1:2:2")
        assert (code, text) == (EXIT_NUMERICAL, "")
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("numerical failure at grid point (9.047786842338605, 1.0): "
                       "DegenerateSpectrum: minimum eigenvalue spacing 0.000e+00 below "
                       "1.0e-08*(1+gap)\n")

    def test_infinite_hamiltonian_entry_is_exit_three(self, tmp_path, capsys):
        """nv-spin1's own arithmetic overflows H(1) to inf at mu = 1e308; the Hermiticity
        check rejects it before eigh, and no NumPy warning escapes."""
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nmu = 1e308\n")
        code, text = run(tmp_path, "gbound", "--config", str(ini), "--model", "nv-spin1",
                         "--theta", "1:1:1", "--t", "1:1:1")
        assert (code, text) == (EXIT_NUMERICAL, "")
        assert ("at grid point (1.0, 1.0): NonHermitianInput: matrix has a NaN or infinite "
                "entry" in capsys.readouterr().err)


class TestSweepOutputs:
    def test_qfi_columns_and_reference_agreement(self, tmp_path):
        code, text = run(tmp_path, "qfi", "--model", "qubit-direction",
                         "--theta", "0.5:2.5:3", "--t", "0.4:2.0:3")
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header == ["theta", "t", "qfi", "qfi_err", "qfi_ref", "abs_err",
                          "max_qfi", "max_qfi_ref", "max_abs_err"]
        for row in rows:
            assert float(row["abs_err"]) < 1e-5
            assert float(row["max_abs_err"]) < 1e-5
            assert 0.0 < float(row["qfi_err"]) <= 1e-9 * max(float(row["qfi"]), 1.0)

    def test_gbound_gamma_below_one(self, tmp_path):
        code, text = run(tmp_path, "gbound", "--model", "qubit-direction",
                         "--theta", "0.5:2.5:3", "--t", "0.4:2.0:3")
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header == ["theta", "t", "g", "g_ref", "abs_err",
                          "condition", "max_qfi", "gamma"]
        for row in rows:
            assert row["condition"] == "1"
            assert float(row["gamma"]) <= 1.0 + 1e-9
            ratio = float(row["max_qfi"]) / float(row["g"])
            assert float(row["gamma"]) == pytest.approx(ratio, abs=1e-12)

    def test_phase_sim_columns(self, tmp_path):
        code, text = run(tmp_path, "phase-sim", "--model", "qubit-direction",
                         "--theta", "1.0:1.0:1", "--t", "1.0:1.0:1",
                         "--n", "4", "--m", "2")
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header == ["n", "m", "tau", "theta", "t", "fi_ideal", "fi_ideal_err",
                          "fi_realistic", "fi_realistic_err", "g", "ratio_ideal",
                          "ratio_realistic"]
        row = rows[0]
        assert 0 <= float(row["ratio_realistic"]) <= 1.001
        assert 0 <= float(row["ratio_ideal"]) <= 1.001
        for mode in ("ideal", "realistic"):
            value, err = float(row[f"fi_{mode}"]), float(row[f"fi_{mode}_err"])
            assert 0.0 < err <= 1e-9 * max(value, 1.0)

    def test_phase_sim_ratios_are_nan_where_g_vanishes(self, tmp_path):
        """nv-spin1 with E = 0 has a theta-independent eigenbasis, so G = 0 at t = 0."""
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nE = 0\n")
        code, text = run(tmp_path, "phase-sim", "--config", str(ini), "--model", "nv-spin1",
                         "--theta", "0.7:0.7:1", "--t", "0:0:1")
        assert code == EXIT_OK
        _, (row,) = parse_csv(text)
        assert row["g"] == "0"
        assert (row["ratio_ideal"], row["ratio_realistic"]) == ("nan", "nan")
        assert math.isfinite(float(row["fi_ideal"])) and math.isfinite(float(row["fi_realistic"]))

    def test_optimize_report(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[optimizer]\nrestarts = 1\niterations = 30\n")
        code, text = run(tmp_path, "optimize", "--config", str(ini),
                         "--model", "qubit-direction", "--theta", "1.0:1.0:1",
                         "--t", "1.0:1.0:1", "--seed", "5")
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header == ["restarts", "iterations", "seed", "theta", "t", "best_fi", "g",
                          "rel_gap", "condition"]
        assert rows[0]["restarts"] == "1"
        assert float(rows[0]["rel_gap"]) <= 0.01  # seeded restart reaches the bound

    def test_jc_divergent_flag(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nname = jaynes-cummings\nalpha1_sq = 1.0\nkappa = 0.5\n")
        code, text = run(tmp_path, "jc", "--config", str(ini),
                         "--theta", "0.8:1.4:2", "--t", "0.7:1.9:2")
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        for row in rows:
            assert row["gamma_divergent"] == "1"
            assert float(row["fq_ref"]) == 0.0
            omega, t = float(row["omega"]), float(row["t"])
            expected = (0.5 * math.sqrt(omega) * t / omega) ** 2
            assert float(row["fc_sim"]) == pytest.approx(expected, rel=1e-6)

    def test_jc_excited_preparation_at_a_full_sine(self, tmp_path):
        """At alpha1_sq = 1 the read-out factor is 1 for every t, also where sin^2(Omega t)
        rounds to 1, so fc_ref is (Omega t / omega)^2."""
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nkappa = 1\nalpha1_sq = 1\n")
        t = math.pi / 2.0
        code, text = run(tmp_path, "jc", "--config", str(ini), "--theta", "1:1:1",
                         "--t", f"{t!r}:{t!r}:1")
        assert code == EXIT_OK
        _, (row,) = parse_csv(text)
        assert math.sin(t) ** 2 == 1.0
        assert row["fc_ref"] == _fmt(t ** 2)
        assert (row["fq_ref"], row["gamma"], row["gamma_divergent"]) == ("0", "inf", "1")

    def test_jc_simulation_tracks_closed_form(self, tmp_path):
        code, text = run(tmp_path, "jc", "--model", "jaynes-cummings",
                         "--theta", "0.6:1.8:3", "--t", "0.5:2.5:3")
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header == ["omega", "t", "fq_ref", "fc_sim", "fc_sim_err", "fc_ref", "gamma",
                          "gamma_gt1", "alpha0sq_threshold", "enhancement_region",
                          "gamma_divergent"]
        for row in rows:
            assert float(row["fc_sim"]) == pytest.approx(float(row["fc_ref"]),
                                                         rel=1e-6, abs=1e-9)
            assert 0.0 < float(row["fc_sim_err"]) <= 1e-9 * max(float(row["fc_sim"]), 1.0)

    def test_oscillator_region(self, tmp_path):
        code, text = run(tmp_path, "oscillator", "--t", "0.3:12.0:40")
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header == ["omega", "t", "fq_ref", "fc_ref", "gamma",
                          "gamma_gt1", "small_sine_region"]
        for row in rows:
            assert row["gamma_gt1"] == row["small_sine_region"]
            gamma = reference("oscillator_gamma")(omega=1.0, t=float(row["t"]))
            assert float(row["gamma"]) == pytest.approx(gamma, rel=1e-12)

    def test_oscillator_gamma_infinite_where_sine_vanishes(self, tmp_path):
        code, text = run(tmp_path, "oscillator", "--t", "0:1:3")
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        assert rows[0]["gamma"] == "inf"
        for row in rows:
            assert row["gamma_gt1"] == row["small_sine_region"]

    @pytest.mark.parametrize("argv", [("qfi",), ("gbound",), ("optimize",),
                                      ("phase-sim", "--n", "4", "--m", "2"),
                                      ("jc",), ("oscillator",)], ids=lambda argv: argv[0])
    def test_json_format(self, tmp_path, argv):
        ini = tmp_path / "run.ini"
        ini.write_text("[optimizer]\nrestarts = 1\niterations = 6\n")
        code, text = run(tmp_path, *argv, "--config", str(ini), "--theta", "1.0:1.0:1",
                         "--t", "0.3:2.0:3", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(text)
        assert set(payload) == {"version", "config_sha256", "columns", "records"}
        assert len(payload["records"]) == 3
        assert all(len(rec) == len(payload["columns"]) for rec in payload["records"])


class TestDiffOracleSwitch:
    """A [diff] section puts qfi, jc and phase-sim back on the Richardson stencil, bit for bit."""

    MODELS = {"qubit-direction": lambda: make_qubit_direction(1.0),
              "nv-spin1": lambda: make_nv_spin1(1.0, 1.44 * math.pi, 5e-5 * math.pi)}

    @pytest.mark.parametrize("model_name", list(MODELS))
    def test_qfi_columns_are_the_richardson_values(self, tmp_path, model_name):
        ini = tmp_path / "run.ini"
        ini.write_text("[diff]\nmethod = richardson-fd\n")
        grid = ("--theta", "0.4:2.1:3", "--t", "0.5:2.6:2")
        code, text = run(tmp_path, "qfi", "--config", str(ini), "--model", model_name, *grid)
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        _, fast_rows = parse_csv(run(tmp_path, "qfi", "--model", model_name, *grid)[1])
        model = self.MODELS[model_name]()
        rho0 = np.diag([1.0] + [0.0] * (model.dim - 1)).astype(complex)
        for row, fast in zip(rows, fast_rows):
            theta, t = float(row["theta"]), float(row["t"])

            def rho_of(x, t=t):
                u = model.u_of(x, t)
                return u @ rho0 @ u.conj().T

            oracle = qfi(rho_of, theta, DiffSpec(), model.theta_domain)
            assert row["qfi"] == _fmt(oracle.value)
            assert row["qfi_err"] == _fmt(oracle.error_estimate)
            assert row["max_qfi"] == _fmt(generator_pair(model, theta, t).gaps[0] ** 2)
            assert fast["max_qfi"] == row["max_qfi"]
            assert float(fast["qfi"]) == pytest.approx(oracle.value, rel=1e-8, abs=1e-8)
            assert float(fast["qfi_err"]) < oracle.error_estimate

    def test_jc_columns_are_the_richardson_values(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[diff]\nlevels = 2\n")  # method defaults to richardson-fd
        grid = ("--theta", "0.6:1.8:3", "--t", "0.5:2.5:2")
        code, text = run(tmp_path, "jc", "--config", str(ini), *grid)
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        _, fast_rows = parse_csv(run(tmp_path, "jc", *grid)[1])
        for row, fast in zip(rows, fast_rows):
            omega, t = float(row["omega"]), float(row["t"])
            pm = jc_readout_model(0.5, t, math.sqrt(0.5), math.sqrt(0.5), 8)
            oracle = classical_fisher(pm, omega, DiffSpec())
            assert row["fc_sim"] == _fmt(oracle.value)
            assert row["fc_sim_err"] == _fmt(oracle.error_estimate)
            assert float(fast["fc_sim"]) == pytest.approx(oracle.value, rel=1e-8, abs=1e-8)
            assert float(fast["fc_sim_err"]) < oracle.error_estimate

    @pytest.mark.parametrize("model_name", list(MODELS))
    def test_phase_sim_columns_are_the_richardson_values(self, tmp_path, model_name):
        ini = tmp_path / "run.ini"
        ini.write_text("[diff]\nmethod = richardson-fd\n")
        grid = ("--model", model_name, "--theta", "0.5:1.5:2", "--t", "0.8:2.0:2",
                "--n", "6", "--m", "3")
        code, text = run(tmp_path, "phase-sim", "--config", str(ini), *grid)
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        _, fast_rows = parse_csv(run(tmp_path, "phase-sim", *grid)[1])
        model = self.MODELS[model_name]()
        for row, fast in zip(rows, fast_rows):
            theta, t, tau = float(row["theta"]), float(row["t"]), float(row["tau"])
            sol = g_bound(model, theta, t)
            cfg = PhaseSimConfig(n=6, m=3, tau=tau, t=t, V=sol.V_opt,
                                 rho0=np.outer(sol.psi_opt, sol.psi_opt.conj()))
            for mode in ("ideal", "realistic"):
                oracle = fisher_phase_readout(cfg, model, theta, DiffSpec(), mode)
                assert row[f"fi_{mode}"] == _fmt(oracle.value)
                assert row[f"fi_{mode}_err"] == _fmt(oracle.error_estimate)
                value = float(fast[f"fi_{mode}"])
                assert value == pytest.approx(oracle.value, rel=1e-7, abs=1e-7)
                assert 0.0 < float(fast[f"fi_{mode}_err"]) <= 1e-9 * max(value, 1.0)

    def test_diff_section_enters_the_config_hash(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[diff]\nmethod = richardson-fd\n")
        grid = ("--theta", "1.0:1.0:1", "--t", "1.0:1.0:1")
        oracle = run(tmp_path, "qfi", "--config", str(ini), *grid)[1].splitlines()[0]
        fast = run(tmp_path, "qfi", *grid)[1].splitlines()[0]
        assert oracle != fast


class TestSelftest:
    @pytest.mark.parametrize("results,code", [
        ([("alpha", True, "ok"), ("beta", True, "ok")], EXIT_OK),
        ([("alpha", True, "ok"), ("beta", False, "off by 1")], EXIT_NUMERICAL),
    ], ids=["all-pass", "one-fails"])
    def test_exit_code_follows_the_suites(self, monkeypatch, capsys, results, code):
        monkeypatch.setattr("qmet.selftest.run_all", lambda: results)
        assert main(["selftest"]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
                         for name, ok, detail in results]


class TestDecompositionCounts:
    def test_optimize_point(self, decompositions, tmp_path):
        """Three: one jet and one solution feed both the g column and the search."""
        ini = tmp_path / "run.ini"
        ini.write_text("[optimizer]\nrestarts = 2\niterations = 20\n")
        decompositions[0] = 0
        code, _ = run(tmp_path, "optimize", "--config", str(ini), "--model", "nv-spin1",
                      "--theta", "0.8:0.8:1", "--t", "1.7:1.7:1")
        assert code == EXIT_OK
        assert decompositions[0] == 3

    def test_phase_sim_point(self, decompositions, tmp_path):
        """Four per point: the jet and two generators, and rho0's factor; both read-out
        modes and the default tau read that jet.  None per run."""
        counts = []
        for points in (1, 2):
            decompositions[0] = 0
            code, _ = run(tmp_path, "phase-sim", "--model", "nv-spin1", "--theta",
                          f"0.8:1.2:{points}", "--t", "1.7:1.7:1", "--n", "6", "--m", "3")
            assert code == EXIT_OK
            counts.append(decompositions[0])
        assert counts == [4, 8]

    def test_jc_point(self, decompositions, tmp_path):
        """The read-out jet decomposes the hopping at most once per run, never per point."""
        decompositions[0] = 0
        code, _ = run(tmp_path, "jc", "--theta", "0.6:1.8:3", "--t", "0.5:2.5:2")
        assert code == EXIT_OK
        assert decompositions[0] <= 1
