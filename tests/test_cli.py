"""Command-line interface: output formats, file artifacts, exit codes.

Commands run in-process through ``main(argv)`` so stdout/stderr land in
capsys.  Two subprocess tests pin the entry points: ``python -m
ultraflow.cli`` always, and the ``ultraflow`` console script only where
the distribution is installed (``pip install -e . --no-build-isolation``);
from a plain source checkout that test is skipped.  Two more run the
README's command lines in a fresh interpreter: none loads scipy, and verify
and flow run where importing scipy raises.
The JSON emitter renders non-finite floats as the strings "inf"/"-inf"/"nan",
which ``json.loads`` hands back unchanged.
"""
from __future__ import annotations

import importlib.metadata
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import ultraflow
from ultraflow import AccuracyWarning, NumericalError, cli
from ultraflow.cli import main


def _distribution_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def _readme_command_lines() -> list[list[str]]:
    """The argv of every ``ultraflow`` line in the README's "Command line" block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("ultraflow ")]


# runs argv lists in one fresh interpreter; "block" makes import scipy raise ImportError
_README_CHILD = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
from ultraflow.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _run_in_child(tmp_path, lines, scipy_import):
    root = os.path.dirname(os.path.dirname(ultraflow.__file__))
    env = {k: v for k, v in os.environ.items() if k != "ULTRAFLOW_NODES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _README_CHILD, scipy_import, json.dumps(lines)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_json_renders_non_finite_floats_as_strings():
    text = cli._to_json({"a": [math.nan, math.inf], "b": -math.inf, "c": 0.5})
    assert json.loads(text) == {"a": ["nan", "inf"], "b": "-inf", "c": 0.5}


class TestRange:
    def test_generic_point_json(self, capsys):
        code, data = run_json(capsys, ["range", "--n", "3", "--p", "4"])
        assert code == 0
        assert data["p_sharp"] == pytest.approx(4.75)
        assert data["p_crit"] == pytest.approx(6.0)
        assert data["A"] == pytest.approx(-0.56)
        assert data["B"] == pytest.approx(0.4)
        assert data["C"] == 1.0
        assert data["disc"] == pytest.approx(0.72)
        sqrt2 = math.sqrt(2.0)
        assert data["m_minus"] == pytest.approx((14 - 3 * sqrt2) / 20, rel=1e-15)
        assert data["m_plus"] == pytest.approx((14 + 3 * sqrt2) / 20, rel=1e-15)
        assert data["beta_excluded"] == pytest.approx(5.0)
        assert data["status"] == "ok"
        lo_ray, hi_ray = data["beta_intervals"]
        assert lo_ray[0] == "-inf"
        assert lo_ray[1] == pytest.approx(-2.2295145311140403)
        assert hi_ray[0] == pytest.approx(0.8009431025426018)
        assert hi_ray[1] == "inf"

    def test_critical_exponent_is_special(self, capsys):
        code, data = run_json(capsys, ["range", "--n", "3", "--p", "6"])
        assert code == 0
        assert data["A"] == 0.0
        assert data["B"] == 0.0
        assert data["constant_delta"] is True
        assert data["status"] == "special"
        assert data["m_minus"] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert data["m_plus"] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert data["beta_intervals"] == []
        assert data["beta_excluded"] == pytest.approx(-5.0)

    def test_beyond_critical_is_empty(self, capsys):
        code, data = run_json(capsys, ["range", "--n", "4", "--p", "4.5"])
        assert code == 0
        assert data["status"] == "empty"
        assert data["m_minus"] is None
        assert data["beta_intervals"] == []

    def test_text_mode(self, capsys):
        assert main(["range", "--n", "3", "--p", "4"]) == 0
        out = capsys.readouterr().out
        # match a 14-digit prefix; the last couple of digits are ulp-level
        assert "m_minus = 0.48786796564403" in out
        assert "m_plus = 0.91213203435596" in out
        assert "beta excluded value: 5" in out
        assert "status = ok" in out

    def test_special_note_in_text_mode(self, capsys):
        assert main(["range", "--n", "3", "--p", "6"]) == 0
        out = capsys.readouterr().out
        assert "A = B = 0" in out
        assert "status = special" in out

    def test_empty_range_in_text_mode(self, capsys):
        # p = 7 lies beyond p_crit = 6 at n = 3
        assert main(["range", "--n", "3", "--p", "7"]) == 0
        out = capsys.readouterr().out
        assert "m range: empty" in out
        assert "beta intervals: empty" in out
        assert "status = empty" in out

    @pytest.mark.parametrize("n, p", [("3", "nan"), ("inf", "4")])
    def test_non_finite_inputs_rejected(self, capsys, n, p):
        assert main(["range", "--n", n, "--p", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: m_range requires a finite")
        assert captured.err.count("\n") == 1

    def test_nodes_is_not_an_option(self, capsys):
        # the report is closed-form; a resolution flag would be ignored
        with pytest.raises(SystemExit) as excinfo:
            main(["range", "--n", "3", "--p", "4", "--nodes", "8"])
        assert excinfo.value.code == 2
        assert "--nodes" in capsys.readouterr().err


class TestFigure1:
    def test_csv_contents(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["figure1", "--n", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,m_minus,m_plus,n/(n+2),(n-2)/n"
        assert len(lines) == 61  # header + 60 rows
        last = lines[-1].split(",")
        # the band collapses onto (n-1)/n at the critical exponent p = 6
        assert float(last[0]) == 6.0
        assert float(last[1]) == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert float(last[2]) == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert float(last[3]) == pytest.approx(0.6, rel=1e-15)
        assert float(last[4]) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_manifest(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["figure1", "--n", "3", "--out", str(out)])
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["command"] == "figure1"
        assert manifest["parameters"]["n"] == 3.0
        assert manifest["parameters"]["steps"] == 60
        assert manifest["outputs"] == [str(out), str(out) + ".manifest.json"]
        assert "tool_version" in manifest

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["figure1", "--n", "2.5", "--out", str(a)])
        main(["figure1", "--n", "2.5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_low_dimension_defaults_to_p_max_8(self, capsys, tmp_path):
        out = tmp_path / "n2.csv"
        code, data = run_json(capsys, ["figure1", "--n", "2", "--out", str(out)])
        assert code == 0
        assert data["rows"] == 60
        last = out.read_text().splitlines()[-1].split(",")
        assert float(last[0]) == 8.0
        assert last[1] != ""  # band still nonempty below p_sharp = 9

    def test_band_is_empty_beyond_the_critical_exponent(self, capsys, tmp_path):
        out = tmp_path / "wide.csv"
        assert main(["figure1", "--n", "3", "--p-max", "8", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert float(rows[-1][0]) == 8.0
        for p, m_minus, m_plus, _, _ in rows:
            assert (m_minus == m_plus == "") == (float(p) > 6.0), p

    def test_nodes_is_not_an_option(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure1", "--n", "3", "--nodes", "8", "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2

    def test_default_filename(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["figure1", "--n", "3"])
        assert (tmp_path / "figure1_n3.csv").exists()
        assert (tmp_path / "figure1_n3.csv.manifest.json").exists()

    def test_non_finite_dimension_rejected(self, capsys, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["figure1", "--n", "nan", "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_inverted_range_rejected(self, capsys, tmp_path):
        code = main(["figure1", "--n", "3", "--p-max", "1.5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_steps_below_one_rejected(self, capsys, tmp_path, steps):
        out = tmp_path / "x.csv"
        code = main(["figure1", "--n", "3", "--steps", steps, "--out", str(out), "--json"])
        assert code == 2
        assert "--steps must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_extremal_function_has_zero_deficit(self, capsys):
        code, data = run_json(
            capsys, ["verify", "--n", "4", "--p", "4", "--fn", "fab(1,0.5)"]
        )
        assert code == 0
        assert data["lambda"] == 4.0
        assert abs(data["deficit"]) < 1e-8

    def test_quadratic_exponent_routes_to_the_entropy_form(self, capsys):
        code, data = run_json(
            capsys, ["verify", "--n", "3", "--p", "2", "--fn", "1+0.2*z"]
        )
        assert code == 0
        assert data["lambda"] == 1.5  # n/2 for the p = 2 functional
        assert data["deficit"] > 0

    def test_lambda_override(self, capsys):
        code, data = run_json(
            capsys,
            ["verify", "--n", "3", "--p", "4", "--fn", "1+0.1*z",
             "--lambda", "2.5"],
        )
        assert code == 0
        assert data["lambda"] == 2.5

    def test_text_mode(self, capsys):
        assert main(["verify", "--n", "3", "--p", "4", "--fn", "1+0.1*z"]) == 0
        out = capsys.readouterr().out
        assert "deficit = " in out
        assert "fisher = " in out

    def test_parse_error_exit_code(self, capsys):
        code = main(["verify", "--n", "3", "--p", "4", "--fn", "1+$"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "position" in err

    def test_unresolved_function_warns_on_stderr(self):
        # a fresh interpreter, with Python's default warning filters: the
        # deficit of 1/z is still printed, and the warning says not to trust it
        root = os.path.dirname(os.path.dirname(ultraflow.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "ultraflow.cli", "verify", "--n", "3", "--p", "4", "--fn", "1/z"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "deficit = " in proc.stdout
        assert "AccuracyWarning: spectral tail fraction 3.23e-02" in proc.stderr

    def test_unresolved_function_warns_at_the_line_that_called_main(self, capsys):
        # in-process the CLI is package code too: the warning names this line
        with pytest.warns(AccuracyWarning, match="spectral tail fraction") as record:
            assert main(["verify", "--n", "3", "--p", "4", "--fn", "1/z"]) == 0
        assert [w.filename for w in record] == [__file__]
        assert "deficit = " in capsys.readouterr().out

    def test_deep_nesting_is_a_parse_error(self, capsys):
        code = main(["verify", "--n", "3", "--p", "4", "--fn", "(" * 2000 + "z" + ")" * 2000])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: nesting deeper than")
        assert len(err.splitlines()) == 1  # no traceback


class TestFlow:
    def test_heat_run_writes_trace_and_manifest(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code, data = run_json(
            capsys,
            ["flow", "--kind", "heat", "--n", "3", "--p", "3",
             "--t-end", "0.2", "--u0", "1+0.3*z", "--out", str(out)],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,mass,F,fisher_beta,u_min,u_max,grad_max"
        assert len(lines) == 1 + data["records"]
        assert data["mass_drift"] < 1e-13
        assert data["bound_events"] == []
        assert data["F_final"] < data["F_initial"]
        manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
        assert manifest["command"] == "flow"
        assert manifest["parameters"]["beta"] == 1.0  # heat forces beta = 1
        assert manifest["parameters"]["nodes"] == 64

    def test_text_report(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            ["flow", "--kind", "heat", "--n", "3", "--p", "3",
             "--t-end", "0.1", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "lambda = 3" in text
        assert "F: " in text
        assert "terminal gap = " in text

    def test_heat_rejects_beta_other_than_one(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["flow", "--kind", "heat", "--n", "3", "--p", "3", "--beta", "2",
                     "--t-end", "0.1", "--out", str(out)])
        assert code == 2
        assert "beta = 1" in capsys.readouterr().err
        assert not out.exists()
        code, _ = run_json(capsys, ["flow", "--kind", "heat", "--n", "3", "--p", "3",
                                    "--beta", "1", "--t-end", "0.1", "--out", str(out)])
        assert code == 0

    def test_nonlinear_requires_beta(self, capsys):
        code = main(["flow", "--kind", "nonlinear", "--n", "3", "--p", "4"])
        assert code == 2
        assert "--beta is required" in capsys.readouterr().err

    def test_positivity_failure_exit_code(self, capsys, tmp_path):
        out = tmp_path / "bad.csv"
        code = main(
            ["flow", "--kind", "nonlinear", "--n", "3", "--p", "4",
             "--beta", "-3", "--u0", "1+0.9*z", "--t-end", "0.5",
             "--out", str(out)]
        )
        assert code == 3
        assert "positivity lost at t=0" in capsys.readouterr().err
        assert not out.exists()  # failure at t = 0 leaves nothing to flush

    def test_numerical_error_exit_code(self, capsys, monkeypatch, tmp_path):
        def fail(u0, cfg):
            raise NumericalError("stepper diverged")

        monkeypatch.setitem(cli._FLOW_RUNNERS, "heat", fail)
        code = main(["flow", "--kind", "heat", "--n", "3", "--p", "3",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 3
        assert "error: stepper diverged" in capsys.readouterr().err

    def test_positivity_failure_flushes_the_partial_trace(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code = main(
            ["flow", "--kind", "nonlinear", "--n", "3", "--p", "4", "--beta", "0.5",
             "--nodes", "8", "--u0", "0.05+0.9*((1+z)/2)^5", "--t-end", "0.5",
             "--record-every", "1", "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "positivity lost at t=0.019" in err
        assert f"partial trace flushed to {out}" in err
        lines = out.read_text().splitlines()
        assert lines[0] == "t,mass,F,fisher_beta,u_min,u_max,grad_max"
        assert len(lines) == 1 + 20
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        assert manifest["outputs"] == [str(out), str(out) + ".manifest.json"]

    def test_regularized_run(self, capsys, tmp_path):
        out = tmp_path / "reg.csv"
        code, data = run_json(
            capsys,
            ["flow", "--kind", "regularized", "--n", "2.5", "--p", "5",
             "--beta", "4", "--eps", "1e-3", "--t-end", "0.005",
             "--out", str(out)],
        )
        assert code == 0
        assert data["h0"] == pytest.approx(0.882, abs=1e-3)
        assert data["h1"] == pytest.approx(0.105, abs=1e-3)
        assert data["lambda"] == pytest.approx(2.49991, abs=1e-4)
        assert out.exists()

    def test_text_report_lists_bound_events(self, capsys, tmp_path):
        # u0 = 1 + 0.1 z leaves h0 = 0.95 and h1 = 0.05 at every record
        code = main(
            ["flow", "--kind", "regularized", "--n", "2.5", "--p", "5", "--beta", "4",
             "--eps", "1e-3", "--t-end", "0.005", "--h0", "0.95", "--h1", "0.05",
             "--out", str(tmp_path / "reg.csv")]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("bound events (9):")
        events = lines[start + 1:]
        assert len(events) == 9
        assert events[:3] == [
            "  t = 0: u_min 0.9 fell below h0 0.95",
            "  t = 0: u_max 1.1 exceeded 1/h0 1.05263",
            "  t = 0: max |u'| 0.1 exceeded h1 0.05",
        ]


class TestIdentities:
    def test_integer_dimension_runs_all_four(self, capsys):
        code, data = run_json(capsys, ["identities", "--n", "3", "--trials", "2"])
        assert code == 0
        assert sorted(data["worst_residuals"]) == [
            "Gamma2", "Gamma2-eps", "L-Gamma", "L-Gamma-eps"
        ]
        assert all(v < 1e-6 for v in data["worst_residuals"].values())
        assert data["status"] == "ok"
        assert data["neumann"] is True

    def test_fractional_dimension_without_eps_runs_the_plain_pair(self, capsys):
        code, data = run_json(capsys, ["identities", "--n", "2.5", "--trials", "2"])
        assert code == 0
        assert sorted(data["worst_residuals"]) == ["Gamma2", "L-Gamma"]

    def test_fractional_dimension_with_eps_runs_all_four(self, capsys):
        code, data = run_json(
            capsys, ["identities", "--n", "2.5", "--eps", "0.01", "--trials", "2"]
        )
        assert code == 0
        assert sorted(data["worst_residuals"]) == [
            "Gamma2", "Gamma2-eps", "L-Gamma", "L-Gamma-eps"
        ]

    def test_no_neumann_probe_reports_no_violation(self, capsys):
        # the weight kills the boundary terms for n > 0, so functions
        # without the Neumann property pass the same residual gate
        code, data = run_json(
            capsys, ["identities", "--n", "3", "--trials", "3", "--no-neumann"]
        )
        assert code == 0
        assert data["status"] == "ok"
        assert data["neumann"] is False

    def test_no_neumann_applies_the_residual_gate(self, capsys):
        # six nodes under-resolve u = exp(P): the L-Gamma residual is
        # about 3e-4, far above the 1e-6 gate, and --no-neumann must not hide it
        code, data = run_json(
            capsys, ["identities", "--n", "2.5", "--nodes", "6", "--trials", "3", "--no-neumann"]
        )
        assert code == 4
        assert data["status"] == "residual gate exceeded"
        assert data["worst_residuals"]["L-Gamma"] > 1e-6

    def test_text_report_of_the_readme_command(self, capsys):
        code = main(["identities", "--n", "3", "--trials", "50", "--seed", "7"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n = 3, eps = 0, trials = 50, seed = 7"
        assert lines[-1] == "status = ok"
        tags = [line.split(":")[0] for line in lines[1:-1]]
        assert tags == [f"worst residual {tag}" for tag in ("Gamma2", "Gamma2-eps", "L-Gamma", "L-Gamma-eps")]
        assert all(float(line.split(": ")[1]) < 1e-12 for line in lines[1:-1])

    def test_trials_validated(self, capsys):
        code = main(["identities", "--n", "3", "--trials", "0"])
        assert code == 2

    def test_negative_seed_rejected(self, capsys):
        assert main(["identities", "--n", "3", "--trials", "2", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the test-function seed must be >= 0, got -1\n"

    def test_each_family_resamples_on_one_key(self, capsys):
        # resample keeps the tables of one (n, eps, N) key: finishing the plain
        # family before the eps family builds them once per family, not per trial;
        # both checks of a trial share one resample, so 10 functions make 10 calls
        from ultraflow.spectral import _discretization

        _discretization.cache_clear()
        assert main(["identities", "--n", "2.5", "--eps", "1e-2", "--trials", "5"]) == 0
        info = _discretization.cache_info()
        assert (info.misses, info.hits) == (2, 8)

    def test_deterministic_for_a_fixed_seed(self, capsys):
        argv = ["identities", "--n", "3", "--trials", "2", "--seed", "7", "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestNodeResolution:
    def flow_manifest_nodes(self, tmp_path, extra):
        out = tmp_path / "t.csv"
        code = main(
            ["flow", "--kind", "heat", "--n", "3", "--p", "3",
             "--t-end", "0.01", "--out", str(out)] + extra
        )
        assert code == 0
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        return manifest["parameters"]["nodes"]

    def test_environment_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ULTRAFLOW_NODES", "32")
        assert self.flow_manifest_nodes(tmp_path, []) == 32

    def test_flag_overrides_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ULTRAFLOW_NODES", "32")
        assert self.flow_manifest_nodes(tmp_path, ["--nodes", "48"]) == 48

    def test_invalid_environment_value(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ULTRAFLOW_NODES", "abc")
        out = tmp_path / "t.csv"
        code = main(["flow", "--kind", "heat", "--n", "3", "--p", "3",
                     "--out", str(out)])
        assert code == 2
        assert "ULTRAFLOW_NODES" in capsys.readouterr().err


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "ultraflow" in capsys.readouterr().out

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_module_execution(self):
        # the child does not inherit pytest's pythonpath setting, so hand it
        # the directory that holds the imported package
        root = os.path.dirname(os.path.dirname(ultraflow.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "ultraflow.cli", "--version"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "ultraflow" in proc.stdout

    def test_readme_commands_load_no_scipy(self, tmp_path):
        # a fresh interpreter runs all README lines; scipy is a test dependency only
        lines = _readme_command_lines()
        assert len(lines) == 11 and {argv[0] for argv in lines} == {"range", "figure1", "verify", "flow", "identities"}
        loaded = _run_in_child(tmp_path, lines, "allow")
        assert loaded == {"codes": [0] * 11, "scipy": []}

    def test_verify_and_flow_run_where_scipy_cannot_import(self, tmp_path):
        lines = [argv for argv in _readme_command_lines() if argv[0] in ("verify", "flow")]
        assert len(lines) == 6
        loaded = _run_in_child(tmp_path, lines, "block")
        assert loaded == {"codes": [0] * 6, "scipy": ["scipy"]}  # only the blocking entry

    @pytest.mark.skipif(
        not _distribution_installed("ultraflow"),
        reason="the ultraflow distribution is not installed "
        "(importlib.metadata raises PackageNotFoundError); "
        "run pip install -e . --no-build-isolation to test the console script",
    )
    def test_console_script_installed(self):
        dist = importlib.metadata.distribution("ultraflow")
        scripts = [ep.value for ep in dist.entry_points
                   if ep.group == "console_scripts" and ep.name == "ultraflow"]
        assert scripts == ["ultraflow.cli:main"]
        exe = (shutil.which("ultraflow")
               or shutil.which("ultraflow", path=sysconfig.get_path("scripts")))
        assert exe is not None
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert ultraflow.__version__ in proc.stdout
