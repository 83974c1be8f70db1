"""Tests for the command-line interface: file ingestion, reports, exit codes."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import slognorm.cli as cli_module
from slognorm.cases import TABLE1_CASES, TABLE1_REFERENCE, table1_system
from slognorm.cli import cli
from slognorm.matcore import EigenConvergenceError
from slognorm.slognorm import SdeSystem, default_h_sequence

runner = CliRunner()


def matrix_obj(rows):
    rows = [list(r) for r in rows]
    data = []
    for row in rows:
        for entry in row:
            if isinstance(entry, complex):
                data.append([entry.real, entry.imag])
            else:
                data.append(entry)
    return {"rows": len(rows), "cols": len(rows[0]), "data": data}


def write_matrix(tmp_path, rows, name="mat.json"):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_obj(rows)))
    return str(path)


def write_system(tmp_path, a, bs=(), filename="sys.json", **meta):
    payload = {"A": matrix_obj(a), "B": [matrix_obj(b) for b in bs], **meta}
    path = tmp_path / filename
    path.write_text(json.dumps(payload))
    return str(path)


def run(args, env=None):
    return runner.invoke(cli, args, env=env, catch_exceptions=False)


def report_of(result):
    return json.loads(result.stdout)


#: every setting of every command, in declaration order: the keys of the
#: "invocation" echo in each report.  Adding or removing a setting edits this.
SETTINGS = {
    "lognorm": ["matrix_file", "p"],
    "slognorm": ["system_file", "p", "l", "method", "samples", "seed", "h0", "hsteps", "tol",
                 "antithetic"],
    "simulate": ["system_file", "x0", "h", "t_end", "paths", "checkpoints", "scheme", "p", "l",
                 "seed", "out"],
    "table1": ["seed", "samples", "antithetic"],
    "examples": ["which", "g_over_l", "eps", "b", "sigma2", "samples", "seed", "antithetic"],
}


def test_settings_inventory(tmp_path):
    assert {name: [p.name for p in cmd.params] for name, cmd in cli.commands.items()} == SETTINGS
    rep = report_of(run(["lognorm", write_matrix(tmp_path, [[-1.0]])]))
    assert list(rep["invocation"]) == SETTINGS["lognorm"]


class TestLognormCommand:
    def test_diagonal_matrix(self, tmp_path):
        path = write_matrix(tmp_path, [[-100.0, 0.0], [0.0, -200.0]])
        result = run(["lognorm", path])
        assert result.exit_code == 0
        rep = report_of(result)
        entry = rep["results"]["mu"]
        assert entry["value"] == pytest.approx(-100.0, abs=1e-12)
        assert entry["identity"] == "mu_p2_closed_form"
        assert "mu_2(A) = -100" in result.stderr

    def test_off_diagonal_coupling(self, tmp_path):
        path = write_matrix(tmp_path, [[0.0, 1.0], [10.0, 0.0]])
        result = run(["lognorm", path])
        assert report_of(result)["results"]["mu"]["value"] == pytest.approx(5.5, abs=1e-12)

    def test_zero_matrix(self, tmp_path):
        path = write_matrix(tmp_path, [[0.0]])
        assert report_of(run(["lognorm", path]))["results"]["mu"]["value"] == 0.0

    def test_complex_entries(self, tmp_path):
        path = write_matrix(tmp_path, [[1j]])
        result = run(["lognorm", path])
        assert report_of(result)["results"]["mu"]["value"] == pytest.approx(0.0, abs=1e-15)

    def test_inf_norm(self, tmp_path):
        path = write_matrix(tmp_path, [[1.0, -2.0], [3.0, 4.0]])
        result = run(["lognorm", path, "--p", "inf"])
        assert report_of(result)["results"]["mu"]["value"] == pytest.approx(7.0, abs=1e-12)

    def test_missing_file(self):
        result = run(["lognorm", "/nonexistent/mat.json"])
        assert result.exit_code == 2

    def test_nonsquare_matrix(self, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"rows": 2, "cols": 3, "data": [1, 2, 3, 4, 5, 6]}))
        result = run(["lognorm", str(path)])
        assert result.exit_code == 2


class TestInputDiagnostics:
    def test_invalid_json_is_located(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        result = run(["lognorm", str(path)])
        assert result.exit_code == 2
        assert "line 1" in result.stderr and "not valid JSON" in result.stderr

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "data": [1, 2, 3]}))
        result = run(["lognorm", str(path)])
        assert result.exit_code == 2
        assert "expected 4 entries for 2x2, got 3" in result.stderr

    def test_boolean_entry_rejected(self, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"rows": 1, "cols": 1, "data": [True]}))
        result = run(["lognorm", str(path)])
        assert result.exit_code == 2
        assert "boolean" in result.stderr

    @pytest.mark.parametrize("rows,cols", [(True, True), (1, False)])
    def test_non_integer_dimensions_rejected(self, tmp_path, rows, cols):
        # JSON true is a Python bool, which is an int subclass
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"rows": rows, "cols": cols, "data": [-1.0]}))
        result = run(["lognorm", str(path)])
        assert result.exit_code == 2
        assert "rows/cols must be integers" in result.stderr

    @pytest.mark.parametrize("rows,cols", [(0, 0), (-2, 3)])
    def test_nonpositive_dimensions_rejected(self, tmp_path, rows, cols):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"rows": rows, "cols": cols, "data": []}))
        result = run(["lognorm", str(path)])
        assert result.exit_code == 2
        assert "dimensions must be positive" in result.stderr

    def test_string_entry_rejected(self, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"rows": 1, "cols": 1, "data": ["x"]}))
        result = run(["lognorm", str(path)])
        assert result.exit_code == 2
        assert "data[0]" in result.stderr

    def test_nonfinite_entry_rejected(self, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [Infinity]}')
        result = run(["lognorm", str(path)])
        assert result.exit_code == 2
        assert "finite" in result.stderr

    @pytest.mark.parametrize("entry", ["1" + "0" * 400, "[1, -1" + "0" * 400 + "]"],
                             ids=["number", "pair"])
    def test_oversized_integer_entry_rejected(self, tmp_path, entry):
        # beyond binary64 range: used to exit 1 with an OverflowError traceback
        path = tmp_path / "mat.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [%s]}' % entry)
        result = run(["lognorm", str(path)])
        assert result.exit_code == 2
        assert "matrix.data[0]" in result.stderr and "finite" in result.stderr
        big = json.loads('{"rows": 1, "cols": 1, "data": [%s]}' % entry)
        system = tmp_path / "sys.json"
        system.write_text(json.dumps({"A": matrix_obj([[-1.0]]), "B": [big]}))
        result = run(["slognorm", str(system), "--samples", "8"])
        assert result.exit_code == 2
        assert "B[0].data[0]" in result.stderr and "finite" in result.stderr

    def test_missing_field(self, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"rows": 1, "data": [1]}))
        result = run(["lognorm", str(path)])
        assert result.exit_code == 2
        assert "cols" in result.stderr

    def test_system_without_drift(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"B": []}))
        result = run(["slognorm", str(path)])
        assert result.exit_code == 2
        assert "'A'" in result.stderr

    def test_system_diffusion_not_a_list(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"A": matrix_obj([[1.0]]), "B": matrix_obj([[1.0]])}))
        result = run(["slognorm", str(path)])
        assert result.exit_code == 2
        assert "list" in result.stderr

    def test_system_dimension_mismatch(self, tmp_path):
        path = write_system(tmp_path, [[1.0, 0.0], [0.0, 1.0]],
                            [[[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]])
        result = run(["slognorm", path])
        assert result.exit_code == 2
        assert "B(1)" in result.stderr


class TestSlognormCommand:
    def test_deterministic_system_both_estimators_agree(self, tmp_path):
        path = write_system(tmp_path, [[-1.0, 0.0], [0.0, -2.0]])
        result = run(["slognorm", path, "--samples", "64"])
        assert result.exit_code == 0
        rep = report_of(result)
        estimates = rep["results"]["estimates"]
        assert [e["estimator"] for e in estimates] == ["direct", "definitional"]
        assert estimates[0]["value"] == pytest.approx(-2.0, abs=1e-12)
        assert estimates[1]["value"] == pytest.approx(-2.0, abs=1e-9)
        assert estimates[0]["identity"] == "nu_p2_l2_direct"
        assert estimates[1]["identity"] == "nu_p2_l2_definitional"
        assert "h_used" in estimates[1] and "h_used" not in estimates[0]
        assert rep["results"]["classification"] == {
            "direct": "asymptotically_stable",
            "definitional": "asymptotically_stable",
        }
        assert rep["warnings"] == []

    def test_estimator_disagreement_warning(self, tmp_path):
        # scalar noise makes the two estimators measure different limits:
        # direct 2a - b^2 = -300, definitional 2a + b^2 = -100
        path = write_system(tmp_path, [[-100.0]], [[[10.0]]])
        result = run(["slognorm", path, "--samples", "4096"])
        assert result.exit_code == 0
        rep = report_of(result)
        direct, definitional = rep["results"]["estimates"]
        assert direct["value"] == pytest.approx(-300.0, abs=1e-9)
        assert definitional["value"] == pytest.approx(
            -100.0, abs=max(4 * definitional["std_error"], 0.5)
        )
        assert any("disagree" in w for w in rep["warnings"])
        assert "warning" in result.stderr

    def test_single_method_selection(self, tmp_path):
        path = write_system(tmp_path, [[-1.0]], [[[0.5]]])
        rep = report_of(run(["slognorm", path, "--method", "direct",
                             "--samples", "256"]))
        assert len(rep["results"]["estimates"]) == 1
        assert list(rep["results"]["classification"]) == ["direct"]

    def test_custom_h_sequence(self, tmp_path):
        path = write_system(tmp_path, [[-1.0]], [[[0.5]]])
        rep = report_of(run(["slognorm", path, "--method", "definitional",
                             "--samples", "256", "--h0", "1e-3", "--hsteps", "5"]))
        h_used = rep["results"]["estimates"][0]["h_used"]
        assert h_used == [1e-3 * 0.5**k for k in range(5)]

    def test_hsteps_without_h0_sets_the_default_sequence_length(self, tmp_path):
        a = [[-1.0, 20.0], [0.0, -2.0]]
        path = write_system(tmp_path, a, [[[0.5, 0.0], [0.0, 0.5]]])
        rep = report_of(run(["slognorm", path, "--method", "definitional",
                             "--samples", "256", "--hsteps", "3"]))
        h_used = rep["results"]["estimates"][0]["h_used"]
        assert rep["invocation"]["hsteps"] == 3 and len(h_used) == 3
        assert h_used == list(default_h_sequence(SdeSystem(a), 2, count=3))

    @pytest.mark.parametrize("flag", [["--h0", "10"], ["--h0", "1e-3"], ["--hsteps", "7"]])
    def test_direct_method_rejects_step_flags(self, tmp_path, flag):
        # the steps belong to the definitional estimator; an explicit flag
        # with --method direct would be echoed and ignored
        path = write_system(tmp_path, [[-1.0]], [[[0.5]]])
        result = run(["slognorm", path, "--method", "direct", *flag])
        assert result.exit_code == 2
        assert "--h0 and --hsteps set the definitional estimator's steps" in result.stderr
        assert result.stdout == ""
        # the defaults pass, and the definitional methods take the flags
        assert run(["slognorm", path, "--method", "direct"]).exit_code == 0
        assert run(["slognorm", path, "--method", "both", "--hsteps", "7"]).exit_code == 0

    def test_bounds_and_applicability(self, tmp_path):
        path = write_system(tmp_path, [[-100.0]], [[[10.0]]])
        rep = report_of(run(["slognorm", path, "--method", "direct",
                             "--samples", "64"]))
        bounds = rep["results"]["bounds"]
        assert bounds["mu_upper"] == pytest.approx(-300.0, abs=1e-9)
        assert bounds["lpest_upper"] == pytest.approx(70.0, abs=1e-9)
        assert set(rep["results"]["bound_applicability"]) == set(bounds)

    def test_system_metadata_passthrough(self, tmp_path):
        path = write_system(tmp_path, [[-1.0]], filename="named.json",
                            **{"name": "demo", "source": "handbook"})
        rep = report_of(run(["slognorm", path, "--samples", "64"]))
        assert rep["results"]["system"]["name"] == "demo"
        assert rep["results"]["system"]["source"] == "handbook"

    @pytest.mark.parametrize("extra", [
        ["--h0", "-1e-3"],
        ["--tol", "-0.5"],
        ["--h0", "10.0"],       # outside the expansion regime for ||A|| = 1
        ["--samples", "3"],     # antithetic pairing needs at least 4
    ])
    def test_flag_validation(self, tmp_path, extra):
        path = write_system(tmp_path, [[-1.0]], [[[0.5]]])
        result = run(["slognorm", path, *extra])
        assert result.exit_code == 2

    @pytest.mark.parametrize("extra", [
        ["--h0", "nan"],
        ["--h0", "inf"],
        ["--tol", "nan"],
        ["--tol", "inf"],
    ])
    def test_nonfinite_flags_exit_two(self, tmp_path, extra):
        # NaN slips through "must be positive" checks; it used to print a
        # NaN estimate or an "unstable" verdict with exit 0
        path = write_system(tmp_path, [[-1.0]], [[[0.5]]])
        result = run(["slognorm", path, "--samples", "64", *extra])
        assert result.exit_code == 2
        assert "finite" in result.stderr

    def test_workers_do_not_change_output(self, tmp_path, block_threads):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        b1, b2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        path = write_system(tmp_path, a.tolist(), [b1.tolist(), b2.tolist()])
        # 8200 samples make two blocks per estimator
        outs = block_threads.across(
            lambda: run(["slognorm", path, "--samples", "8200"]).stdout, cores=(1, 4))
        assert outs[1] == outs[4]


class TestEstimateMethods:
    """Each direct estimate says how it was computed: the ``method`` key
    follows ``estimator``, and every summary line names it."""

    def test_default_single_channel_is_quadrature(self, tmp_path):
        path = write_system(tmp_path, [[-1.0, 0.5], [0.0, -2.0]],
                            [[[0.3, 0.0], [0.1, 0.2]]])
        result = run(["slognorm", path, "--method", "direct"])
        direct = report_of(result)["results"]["estimates"][0]
        assert list(direct)[:3] == ["identity", "estimator", "method"]
        # samples counts the rule's nodes: here it converged in its first round
        assert direct["method"] == "quadrature" and direct["samples"] == 12 * 17
        assert "(Gauss-Kronrod quadrature)" in result.stderr

    def test_explicit_samples_run_monte_carlo(self, tmp_path):
        path = write_system(tmp_path, [[-1.0, 0.5], [0.0, -2.0]],
                            [[[0.3, 0.0], [0.1, 0.2]]])
        result = run(["slognorm", path, "--samples", "256"])
        estimates = report_of(result)["results"]["estimates"]
        assert [e["method"] for e in estimates] == ["monte_carlo", "monte_carlo"]
        assert result.stderr.count("(Monte Carlo)") == 2

    def test_deterministic_system_is_exact(self, tmp_path):
        path = write_system(tmp_path, [[-1.0]])
        result = run(["slognorm", path, "--method", "direct"])
        assert report_of(result)["results"]["estimates"][0]["method"] == "closed_form"
        assert "(exact)" in result.stderr

    def test_table1_default_rows_are_quadrature(self):
        result = run(["table1"])
        cases = report_of(result)["results"]["cases"]
        assert {c["nu"]["method"] for c in cases} == {"quadrature"}
        assert all(c["nu"]["samples"] >= 2 for c in cases)
        lines = [ln for ln in result.stderr.splitlines() if ln.startswith("case (")]
        assert len(lines) == 9
        assert all("(Gauss-Kronrod quadrature)" in ln for ln in lines)

    def test_table1_error_is_not_below_the_rounding_bound(self):
        # case (a) used to report -225 +/- 8.7e-19, below the ulp of 225
        rep = report_of(run(["table1", "--samples", "64", "--seed", "7"]))
        case_a = rep["results"]["cases"][0]["nu"]
        assert case_a["method"] == "monte_carlo"
        assert case_a["std_error"] >= math.ulp(225.0)

    def test_examples_name_their_method(self):
        pend = run(["examples", "--which", "pendulum", "--samples", "512"])
        assert "(closed form)" in pend.stderr and "(Monte Carlo)" in pend.stderr
        assert report_of(pend)["results"]["nu_estimate"]["method"] == "monte_carlo"
        # the pendulum's kink in zeta no longer forces a Monte Carlo run
        pend = run(["examples", "--which", "pendulum"])
        assert report_of(pend)["results"]["nu_estimate"]["method"] == "quadrature"
        assert "(Gauss-Kronrod quadrature)" in pend.stderr
        nonnormal = run(["examples", "--which", "nonnormal", "--sigma2", "0.5", "--b", "0"])
        estimate = report_of(nonnormal)["results"]["nu_estimate"]
        assert estimate["method"] == "quadrature"
        assert "cross-check:" in nonnormal.stderr
        assert "(Gauss-Kronrod quadrature)" in nonnormal.stderr
        assert "Monte Carlo cross-check" not in nonnormal.stderr

    @pytest.mark.parametrize("command", ["slognorm", "table1", "examples"])
    def test_samples_help_names_the_quadrature_default(self, command):
        # click may wrap a line at the hyphen
        text = " ".join(run([command, "--help"]).stdout.split()).replace("Gauss- ", "Gauss-")
        assert "Gauss-Kronrod quadrature" in text
        assert "Gauss-Hermite" not in text

    def test_default_definitional_is_quadrature(self, tmp_path):
        path = write_system(tmp_path, [[-1.0, 0.5], [0.0, -2.0]],
                            [[[0.3, 0.0], [0.1, 0.2]]])
        result = run(["slognorm", path, "--method", "definitional"])
        estimate = report_of(result)["results"]["estimates"][0]
        assert estimate["method"] == "quadrature" and estimate["samples"] >= 15
        assert "(Gauss-Kronrod quadrature)" in result.stderr

    @pytest.mark.parametrize("args, source", [
        (["--samples", "100000"], "Monte Carlo"),
        ([], "Gauss-Kronrod quadrature"),
    ])
    def test_bias_warning_names_the_estimates_error(self, tmp_path, args, source):
        # case (e) at the default steps: the extrapolation residual dominates
        path = write_system(tmp_path, [[-100.0, 20.0], [7.0, -200.0]],
                            [[[5.0, 2.0], [4.0, 6.0]]])
        rep = report_of(run(["slognorm", path, "--method", "definitional", *args]))
        assert rep["results"]["estimates"][0]["bias_warning"] is True
        (warning,) = rep["warnings"]
        assert warning == ("definitional estimator: extrapolation residual exceeds 10x "
                           f"the error of the {source} quotients")


    @pytest.mark.parametrize("l, error", [(400, "inf"), (100000, "nan")])
    def test_non_finite_estimate_is_named(self, tmp_path, l, error):
        # case (f) at a high moment: the quadrature gives up on overflow, and
        # the Monte Carlo spread (l = 400) or the quotients (l = 100000) pass
        # the float range, quietly: numpy's warnings stay off stderr
        path = write_system(tmp_path, [[-100.0]], [[[10.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run(["slognorm", path, "--l", str(l)])
        assert result.exit_code == 0
        rep = report_of(result)
        direct, definitional = rep["results"]["estimates"]
        assert math.isfinite(direct["value"]) and math.isfinite(direct["std_error"])
        value = definitional["value"]
        assert definitional["std_error"] == error and (value == "nan") == (error == "nan")
        warning = (f"definitional estimate is not finite ({float(value):.6g} +/- "
                   f"{float(error):.3g}): the terms of its mean or their spread pass "
                   "the float range")
        assert warning in rep["warnings"]
        assert f"warning: {warning}" in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert not any("direct estimate is not finite" in w for w in rep["warnings"])
        # no verdict for the estimate that is not finite, and no disagreement
        # with it: the warning above already explains it
        assert rep["results"]["classification"] == {
            "direct": "asymptotically_stable", "definitional": None}
        line, = (s for s in result.stderr.splitlines() if "(definitional) =" in s)
        assert line.endswith("[no verdict]")
        assert not any("disagree" in w for w in rep["warnings"])


class TestSimulateCommand:
    def test_single_noisy_path_has_no_standard_error(self, tmp_path):
        path = write_system(tmp_path, [[-1.0]], [[[0.5]]])
        result = run(["simulate", path, "--h", "0.01", "--t-end", "0.1",
                      "--paths", "1", "--checkpoints", "5"])
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["results"]["trajectory"]["std_errors"] == [0.0] + ["nan"] * 5
        assert rep["results"]["growth_rate"]["std_error"] == "nan"
        assert any("one path" in w for w in rep["warnings"])

    def test_single_deterministic_path_is_exact(self, tmp_path):
        path = write_system(tmp_path, [[-1.0]])
        rep = report_of(run(["simulate", path, "--h", "0.01", "--t-end", "0.1",
                             "--paths", "1", "--checkpoints", "5"]))
        assert rep["results"]["trajectory"]["std_errors"] == [0.0] * 6
        assert rep["warnings"] == []

    def test_growth_rate_and_csv(self, tmp_path):
        path = write_system(tmp_path, [[-5.0]], [[[1.0]]])
        out = tmp_path / "traj.csv"
        result = run(["simulate", path, "--h", "0.01", "--t-end", "0.2",
                      "--paths", "2000", "--checkpoints", "5", "--out", str(out)])
        assert result.exit_code == 0
        rep = report_of(result)
        traj = rep["results"]["trajectory"]
        assert len(traj["times"]) == 6 and traj["moments"][0] == 1.0
        rate = rep["results"]["growth_rate"]
        assert rate["identity"] == "ols_log_moment_slope"
        assert rate["value"] == pytest.approx(-9.0, abs=2.5)
        assert rep["results"]["csv_path"] == str(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "time,moment,stderr,paths,scheme"
        assert len(lines) == 7
        assert "trajectory written" in result.stderr

    def test_divergence_warning_names_power_overflow(self, tmp_path):
        # norm near 6e105 stays below 1e150, but its cube overflows
        path = write_system(tmp_path, [[2000]], [[[0.1]]])
        result = run(["simulate", path, "--h", "0.01", "--t-end", "0.8", "--paths", "100",
                      "--checkpoints", "2", "--l", "3"])
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["results"]["trajectory"]["diverged"] == [0, 0, 100]
        assert ("100 of 100 paths diverged (norm beyond 1e150 or norm^3 beyond the float "
                "range); affected checkpoints report infinite moments") in rep["warnings"]

    def test_overflowed_standard_error_is_named(self, tmp_path):
        # at t = 0.4 no path has diverged and the mean of norm^3 (about 5e158)
        # is finite, but the squared deviations behind its error bar overflow
        path = write_system(tmp_path, [[2000]], [[[0.1]]])
        result = run(["simulate", path, "--h", "0.01", "--t-end", "0.8", "--paths", "100",
                      "--checkpoints", "2", "--l", "3"])
        assert result.exit_code == 0
        traj = report_of(result)["results"]["trajectory"]
        assert traj["diverged"][1] == 0 and 1e158 < traj["moments"][1] < 1e159
        assert traj["std_errors"][1] == "inf"
        warning = ("standard error overflowed at t = 0.4: the moment is finite, but the "
                   "squared spread of norm^3 over the paths passes the float range")
        assert warning in report_of(result)["warnings"]
        assert f"warning: {warning}" in result.stderr

    def test_divergence_reports_inf_and_exits_zero(self, tmp_path):
        path = write_system(tmp_path, [[1e160]])
        result = run(["simulate", path, "--h", "0.1", "--t-end", "0.2",
                      "--paths", "8", "--checkpoints", "2"])
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["results"]["trajectory"]["moments"][1:] == ["inf", "inf"]
        assert any("diverged" in w for w in rep["warnings"])
        assert any("growth rate not fitted" in w for w in rep["warnings"])
        assert rep["results"]["growth_rate"] is None

    def test_x0_parsing(self, tmp_path):
        path = write_system(tmp_path, [[-1.0, 0.0], [0.0, -1.0]])
        result = run(["simulate", path, "--x0", "1, -2", "--h", "0.1",
                      "--t-end", "0.5", "--paths", "1", "--checkpoints", "5"])
        assert result.exit_code == 0
        # ||x0||_2^2 = 5 at t = 0
        start = report_of(result)["results"]["trajectory"]["moments"][0]
        assert start == pytest.approx(5.0, rel=1e-15)

    @pytest.mark.parametrize("x0", ["1,2,3", "abc", "", "1,,2", "1,2,"])
    def test_bad_x0(self, tmp_path, x0):
        path = write_system(tmp_path, [[-1.0, 0.0], [0.0, -1.0]])
        result = run(["simulate", path, "--x0", x0, "--paths", "1"])
        assert result.exit_code == 2

    def test_checkpoints_must_divide_steps(self, tmp_path):
        path = write_system(tmp_path, [[-1.0]])
        result = run(["simulate", path, "--h", "0.01", "--t-end", "0.2",
                      "--paths", "1", "--checkpoints", "7"])
        assert result.exit_code == 2
        assert "checkpoints" in result.stderr

    @pytest.mark.parametrize("extra, field", [
        (["--h", "1e-320", "--t-end", "1"], "step size h"),   # t_end/h overflows
        (["--t-end", "inf"], "t_end must be finite"),
        (["--h", "nan"], "step size h must be finite"),
    ])
    def test_nonfinite_or_overflowing_steps_exit_two(self, tmp_path, extra, field):
        # these used to exit 1 with an OverflowError traceback, or 2 with a
        # message naming no field
        path = write_system(tmp_path, [[-1.0]], [[[0.5]]])
        result = run(["simulate", path, "--paths", "10", *extra])
        assert result.exit_code == 2
        assert field in result.stderr

    def test_out_into_missing_directory_exits_two(self, tmp_path):
        # the write used to end in a FileNotFoundError traceback and exit 1
        path = write_system(tmp_path, [[-1.0]], [[[0.5]]])
        out = tmp_path / "missing" / "traj.csv"
        result = run(["simulate", path, "--h", "0.01", "--t-end", "0.02",
                      "--paths", "10", "--checkpoints", "2", "--out", str(out)])
        assert result.exit_code == 2
        assert f"cannot write {out}" in result.stderr
        assert not out.parent.exists()


class TestTable1Command:
    def test_benchmark_verdicts(self):
        result = run(["table1", "--samples", "256"])
        assert result.exit_code == 0
        rep = report_of(result)
        cases = {c["case"]: c for c in rep["results"]["cases"]}
        assert list(cases) == list("abcdefghi")

        for case in "bcdefi":
            assert cases[case]["verdicts"]["nu_matches_reference"], case
        # the printed reference nu for (a) and (g) is not what the
        # white-noise statistic concentrates on
        assert not cases["a"]["verdicts"]["nu_matches_reference"]
        assert cases["a"]["verdicts"]["matches_closed_form"]
        assert cases["a"]["closed_form_value"] == -225.0
        assert not cases["g"]["verdicts"]["nu_matches_reference"]
        assert cases["f"]["verdicts"]["matches_closed_form"]
        # case h is a regenerated smoke case with no comparable reference
        assert cases["h"]["verdicts"] is None
        assert cases["h"]["dimension"] == 100

        for case in "afgh":
            assert cases[case]["annotations"], case
        assert any("Lbound" in note for note in rep["annotations"])

        # the printed bound columns match the sandwich bounds only sometimes
        assert cases["f"]["verdicts"]["lower_matches_reference"]
        assert not cases["f"]["verdicts"]["upper_matches_reference"]
        assert cases["i"]["verdicts"]["upper_matches_reference"]
        assert not cases["i"]["verdicts"]["lower_matches_reference"]

        assert "MISMATCH" in result.stderr and "case (b)" in result.stderr

    def test_reference_table_is_complete(self):
        assert set(TABLE1_REFERENCE) == set("abcdefghi")
        assert set(TABLE1_CASES) == set("abcdefgi")  # h is generated, not stored
        assert TABLE1_REFERENCE["f"] == (-300.00, -300.26, -100.00)

    def test_case_systems_have_expected_shapes(self):
        assert table1_system("g").dim == 6
        assert table1_system("h", seed=1).dim == 100
        assert table1_system("f").dim == 1
        # case h regenerates deterministically from the seed
        one = table1_system("h", seed=7)
        two = table1_system("h", seed=7)
        other = table1_system("h", seed=8)
        assert np.array_equal(one.A, two.A)
        assert not np.array_equal(one.A, other.A)


class TestExamplesCommand:
    def test_pendulum_default_amplitude(self):
        result = run(["examples", "--which", "pendulum", "--samples", "4096"])
        assert result.exit_code == 0
        res = report_of(result)["results"]
        c, s, eps, b = 11.0, 50.1, 0.1, 50.0
        closed = (
            s * math.sqrt(2 / math.pi) * math.exp(-c * c / (2 * s * s))
            + c * math.erf(c / (s * math.sqrt(2)))
            - eps * b
        )
        assert res["nu_closed_form"]["value"] == pytest.approx(closed, rel=1e-12)
        assert res["amplitude_threshold"]["value"] == pytest.approx(110.0, abs=1e-12)
        assert res["estimate_matches_closed_form"]
        assert res["classification"] == "unstable"
        assert "necessary amplitude" in result.stderr

    def test_pendulum_large_noise_stabilizes(self):
        result = run(["examples", "--which", "pendulum", "--eps", "0.9",
                      "--b", "50", "--samples", "4096"])
        res = report_of(result)["results"]
        assert res["nu_closed_form"]["value"] < 0
        assert res["classification"] == "asymptotically_stable"
        assert res["estimate_matches_closed_form"]

    @pytest.mark.parametrize("extra", [
        ["--eps", "1.5"],
        ["--eps", "0"],
        ["--g-over-l", "-1"],
        ["--b", "-5"],
    ])
    def test_pendulum_validation(self, extra):
        result = run(["examples", "--which", "pendulum", *extra])
        assert result.exit_code == 2

    @pytest.mark.parametrize("which, flag, value", [
        ("pendulum", "--b", "nan"),
        ("pendulum", "--b", "inf"),
        ("pendulum", "--g-over-l", "nan"),
        ("nonnormal", "--b", "nan"),
        ("nonnormal", "--sigma2", "nan"),
    ])
    def test_nonfinite_parameters_exit_two(self, which, flag, value):
        result = run(["examples", "--which", which, flag, value, "--samples", "64"])
        assert result.exit_code == 2
        assert flag in result.stderr

    def test_nonnormal_boundary(self):
        result = run(["examples", "--which", "nonnormal", "--samples", "512"])
        res = report_of(result)["results"]
        assert res["nu_closed_form"]["value"] == 0.0
        assert res["stability_condition"]["value"] == pytest.approx(1.0, abs=1e-15)
        assert res["stability_condition"]["satisfied"]
        assert not res["no_real_sigma_stabilizes"]
        assert res["nu_estimate"]["value"] == pytest.approx(0.0, abs=1e-9)
        assert res["estimate_matches_closed_form"]

    def test_nonnormal_negative_sigma2_skips_monte_carlo(self):
        result = run(["examples", "--which", "nonnormal", "--sigma2", "-0.5",
                      "--samples", "512"])
        res = report_of(result)["results"]
        assert res["nu_closed_form"]["value"] == pytest.approx(-1.5, abs=1e-15)
        assert "nu_estimate" not in res
        assert res["stability_condition"]["satisfied"]

    def test_nonnormal_strong_coupling_has_no_real_stabilizer(self):
        result = run(["examples", "--which", "nonnormal", "--b", "3",
                      "--samples", "512"])
        res = report_of(result)["results"]
        assert res["no_real_sigma_stabilizes"]
        assert not res["stability_condition"]["satisfied"]
        assert res["nu_estimate"]["value"] == pytest.approx(2.0, abs=1e-9)
        assert "no real sigma" in result.stderr


class TestSeedHandling:
    def test_env_seed_is_used(self, tmp_path):
        path = write_system(tmp_path, [[-1.0]], [[[0.5]]])
        rep = report_of(run(["slognorm", path, "--method", "direct",
                             "--samples", "256"], env={"SLOGNORM_SEED": "99"}))
        assert rep["invocation"]["seed"] == 99

    def test_flag_overrides_env(self, tmp_path):
        path = write_system(tmp_path, [[-1.0]], [[[0.5]]])
        rep = report_of(run(["slognorm", path, "--method", "direct", "--seed", "5",
                             "--samples", "256"], env={"SLOGNORM_SEED": "99"}))
        assert rep["invocation"]["seed"] == 5

    def test_seed_changes_noisy_estimates(self, tmp_path):
        path = write_system(tmp_path, [[-1.0, 0.5], [0.0, -2.0]],
                            [[[0.3, 0.0], [0.1, 0.2]]])
        values = {
            report_of(run(["slognorm", path, "--method", "direct",
                           "--samples", "512", "--seed", s]))
            ["results"]["estimates"][0]["value"]
            for s in ("1", "2")
        }
        assert len(values) == 2


class TestExitCodes:
    def test_numerical_failure_exits_three(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise EigenConvergenceError("eigensolver failed to converge")

        monkeypatch.setattr(cli_module, "nu_direct", explode)
        path = write_system(tmp_path, [[-1.0]], [[[0.5]]])
        result = run(["slognorm", path, "--method", "direct"])
        assert result.exit_code == 3
        assert "failed to converge" in result.stderr

    @pytest.mark.parametrize("args", [
        ["slognorm", "SYSTEM"], ["simulate", "SYSTEM"], ["table1"],
        ["examples", "--which", "pendulum"],
    ])
    def test_workers_option_is_unknown(self, tmp_path, args):
        # the thread count is not a setting
        path = write_system(tmp_path, [[-1.0]], [[[0.5]]])
        argv = [path if a == "SYSTEM" else a for a in args]
        result = run([*argv, "--workers", "2"])
        assert result.exit_code == 2
        assert "No such option" in result.stderr and "--workers" in result.stderr

    def test_version_flag(self):
        result = run(["--version"])
        assert result.exit_code == 0
        assert "slognorm" in result.stdout
