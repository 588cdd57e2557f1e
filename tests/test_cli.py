"""Command-line surface: flags, exit codes, file formats, determinism."""

import csv
import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ksol import _jit, cli, phase


def run_cli(argv):
    return cli.main(argv)


def run_proc(argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ksol.cli", *argv], capture_output=True, text=True, env=env
    )


class TestClassify:
    def test_expander_is_type_gamma(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            ["classify", "--n", "4", "--k", "1", "--rho", "-1", "--theta", "1",
             "--alpha", "1", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["class"]["kind"] == "TypeGamma"
        assert doc["config"]["rho"] == -1.0
        assert doc["monitors"] == {
            "x_monotone_below_XB": 0,
            "z_lower_bound": 0,
            "log_z_identity": 0,
            "self_intersections": 0,
        }

    def test_subcritical_non_admissible(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            ["classify", "--n", "3", "--k", "2", "--rho", "1", "--theta", "1",
             "--alpha", "1", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["class"]["kind"] == "NonAdmissible"
        assert doc["class"]["s_exit"] is not None

    def test_missing_theta_usage_error(self):
        proc = run_proc(["classify", "--n", "4", "--k", "1", "--rho", "1"])
        assert proc.returncode == 2

    def test_invalid_params_exit_2(self):
        proc = run_proc(
            ["classify", "--n", "4", "--k", "1", "--rho", "-3", "--theta", "1"]
        )
        assert proc.returncode == 2
        assert "2*theta + rho" in proc.stderr

    def test_stable_key_order(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli(["classify", "--n", "4", "--k", "1", "--rho", "1", "--theta", "1",
                 "--out", str(out)])
        text = out.read_text()
        keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
        assert keys == sorted(keys)

    def test_tail_rate_keys(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli(["classify", "--n", "4", "--k", "1", "--rho", "0", "--theta", "1",
                 "--out", str(out)])
        rate = json.loads(out.read_text())["tail_rate"]
        assert set(rate) == {
            "fitted_exponent",
            "log_correction_power",
            "predicted_exponent",
            "predicted_log_power",
            "agreement",
        }
        assert rate["log_correction_power"] == pytest.approx(1.5, abs=1e-3)


class TestBackend:
    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_report_names_the_backend(self, tmp_path, command):
        out = tmp_path / "r.json"
        run_cli([command, "--n", "4", "--k", "1", "--rho", "-1", "--theta", "1",
                 "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["backend"] == ("numba" if _jit.JIT_ENABLED else "python")
        if importlib.util.find_spec("numba") is None:
            assert doc["backend"] == "python"

    def test_disabled_jit_reports_python(self):
        proc = run_proc(
            ["classify", "--n", "4", "--k", "1", "--rho", "-1", "--theta", "1"],
            {"KSOL_DISABLE_JIT": "1"},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["backend"] == "python"


class TestProfileCommand:
    def test_header_rows_and_positivity(self, tmp_path):
        out = tmp_path / "p.csv"
        code = run_cli(
            ["profile", "--n", "4", "--k", "1", "--rho", "1", "--theta", "1",
             "--alpha", "1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,u,u_r,u_rr,lambda1,lambda2,sigma_k"
        assert len(lines) - 1 >= 100
        rows = list(csv.DictReader(out.open()))
        assert all(float(r["sigma_k"]) > 0.0 for r in rows)
        assert all(float(r["u"]) > 0.0 for r in rows)
        sidecar = json.loads((tmp_path / "p.csv.json").read_text())
        assert sidecar["elliptic_max_rel"] < 1e-6

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "p.csv"
        run_cli(["profile", "--n", "4", "--k", "1", "--rho", "0", "--theta", "1",
                 "--out", str(out)])
        blob = out.read_bytes()
        assert b"\r" not in blob


class TestPortrait:
    def test_contents(self, tmp_path):
        out = tmp_path / "port.csv"
        code = run_cli(
            ["portrait", "--n", "4", "--k", "1", "--rho", "1", "--theta", "1",
             "--grid", "9", "--orbits", "1.0", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        kinds = {r["record"] for r in rows}
        assert {"field", "nullcline_X", "nullcline_Z", "critical", "orbit"} <= kinds
        assert all(r["dX"] and r["dZ"] for r in rows if r["record"] == "field")
        # the Z_s = 0 nullcline is the vertical line X = X_B plus the axis
        p = phase.make_params(4, 1, 1.0, 1.0)
        vert = [r for r in rows if r["record"] == "nullcline_Z" and r["label"] == "X=X_B"]
        assert vert and all(float(r["X"]) == pytest.approx(p.X_B) for r in vert)
        crits = {r["label"].split(":")[0]: r for r in rows if r["record"] == "critical"}
        assert set(crits) == {"O", "A", "B"}
        assert float(crits["B"]["X"]) == pytest.approx(3.0)
        assert float(crits["B"]["Z"]) == pytest.approx(1.0)

    def test_no_interior_critical_point_for_expander(self, tmp_path):
        out = tmp_path / "port.csv"
        run_cli(["portrait", "--n", "4", "--k", "1", "--rho", "-1", "--theta", "1",
                 "--grid", "5", "--orbits", "1.0", "--out", str(out)])
        rows = list(csv.DictReader(out.open()))
        p = phase.make_params(4, 1, -1.0, 1.0)
        for r in rows:
            if r["record"] != "critical":
                continue
            X, Z = float(r["X"]), float(r["Z"])
            assert not phase.in_admissible_region((X, Z), p)

    @pytest.mark.parametrize("n,k,rho", [(4, 1, 5.0), (3, 2, 3.0)])
    def test_field_cells_at_X_A_are_empty(self, tmp_path, n, k, rho):
        # for rho > 2 theta the grid's last column is X = x_cap = X_A, where
        # the field is undefined for Z > 0
        out = tmp_path / "port.csv"
        code = run_cli(["portrait", "--n", str(n), "--k", str(k), "--rho", str(rho),
                        "--theta", "1", "--grid", "9", "--orbits", "1.0", "--out", str(out)])
        assert code == 0
        p = phase.make_params(n, k, rho, 1.0)
        field = [r for r in csv.DictReader(out.open()) if r["record"] == "field"]
        assert len(field) == 81
        empty = [r for r in field if not r["dX"]]
        assert len(empty) == 8
        for r in empty:
            assert r["dZ"] == "" and float(r["Z"]) > 0.0
            assert float(r["X"]) == pytest.approx(p.X_A)


class TestVerify:
    def test_three_regimes_pass(self, tmp_path):
        for rho in ("-1", "0", "1"):
            out = tmp_path / f"v{rho}.json"
            code = run_cli(["verify", "--n", "4", "--k", "1", "--rho", rho,
                            "--theta", "1", "--out", str(out)])
            doc = json.loads(out.read_text())
            failed = {k: v for k, v in doc["checks"].items() if not v["pass"]}
            assert code == 0 and doc["all_pass"], failed

    def test_n_eq_2k_suite_passes(self, tmp_path):
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--n", "4", "--k", "2", "--rho", "1",
                        "--theta", "1", "--out", str(out)])
        assert code == 0

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 3)])
    def test_steady_log_power_checked(self, tmp_path, n, k):
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--n", str(n), "--k", str(k), "--rho", "0",
                        "--theta", "1", "--out", str(out)])
        check = json.loads(out.read_text())["checks"]["tail_log_power_agreement"]
        assert code == 0 and check["pass"] and check["threshold"] == 1e-2

    @pytest.mark.parametrize("n,k,rho", [(4, 1, -1.0), (4, 1, 1.0), (4, 2, 1.0), (4, 2, 0.0)])
    def test_no_log_power_check_without_a_log_power(self, tmp_path, n, k, rho):
        # expanders and shrinkers have none; (4,2,0) has a predicted power of 0
        out = tmp_path / "v.json"
        run_cli(["verify", "--n", str(n), "--k", str(k), "--rho", str(rho),
                 "--theta", "1", "--out", str(out)])
        checks = json.loads(out.read_text())["checks"]
        assert "tail_rate_agreement" in checks
        assert "tail_log_power_agreement" not in checks

    def test_barrier_reuses_local_solution(self, tmp_path, monkeypatch):
        # rho > 2 theta and n >= 2k: the barrier comparison takes the origin's
        # local solution from the run instead of solving it again
        from ksol import picard

        calls = []
        solve = picard.picard_solve
        monkeypatch.setattr(
            picard, "picard_solve", lambda *a, **kw: calls.append(a) or solve(*a, **kw)
        )
        out = tmp_path / "v.json"
        run_cli(["verify", "--n", "4", "--k", "1", "--rho", "5", "--theta", "1",
                 "--alpha", "0.7", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["checks"]["barrier_ordering"]["pass"]
        assert len(calls) == 1

    def test_barrier_reuses_main_run(self, tmp_path, monkeypatch):
        # the barrier comparison cuts the run's own origin orbit at X_B
        # instead of integrating it a second time; only the A-orbit is new
        from ksol import orbit

        charts = []
        integrate = orbit.integrate

        def spy(start, *a, **kw):
            charts.append(start.chart)
            return integrate(start, *a, **kw)

        monkeypatch.setattr(orbit, "integrate", spy)
        out = tmp_path / "v.json"
        run_cli(["verify", "--n", "4", "--k", "1", "--rho", "5", "--theta", "1",
                 "--alpha", "0.7", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["checks"]["barrier_ordering"]["pass"]
        assert sorted(charts) == ["WV", "XZ"]


class TestSweep:
    def test_regime_table_and_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "--n", "4", "--k", "1", "--theta", "1",
                "--rhos=-1,0,1", "--alphas", "1.0"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = list(csv.DictReader(a.open()))
        classes = [r["class"] for r in rows]
        assert classes[0] == "TypeGamma" and classes[1] == "TypeGamma"
        assert classes[2] in ("TypeB", "GeneralizedB")

    def test_log_power_on_steady_rows_only(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["sweep", "--n", "4", "--k", "1", "--theta", "1", "--rhos=-1,0,1",
                 "--alphas", "1.0", "--out", str(out)])
        powers = [r["log_power"] for r in csv.DictReader(out.open())]
        assert powers[0] == powers[2] == ""
        assert float(powers[1]) == pytest.approx(1.5, abs=1e-3)

    def test_partial_failure_recorded(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--n", "4", "--k", "1", "--theta", "1",
                        "--rhos=-5,1", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["status"] == "error" and "2*theta" in rows[0]["error"]
        assert rows[1]["status"] == "ok"

    def test_supercritical_rho_dichotomy_columns(self, tmp_path):
        # the rho > 2 theta table must be able to express both outcomes of
        # the shrinker dichotomy: the class column and X_inf where applicable
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--n", "3", "--k", "2", "--theta", "1",
                        "--rhos", "5", "--alphas", "0.5,1.0", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert {"class", "X_inf", "exponent"} <= set(rows[0].keys())
        assert all(r["class"] == "TypeA" and r["X_inf"] for r in rows)

    def test_one_integration_per_rho(self, tmp_path, monkeypatch):
        from ksol import orbit

        calls = []
        integrate = orbit.integrate
        monkeypatch.setattr(
            orbit, "integrate", lambda *a, **kw: calls.append(1) or integrate(*a, **kw)
        )
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--n", "4", "--k", "1", "--theta", "1", "--rhos=0,1",
                        "--alphas=0.5,1.0,2.0", "--out", str(out)])
        assert code == 0 and len(calls) == 2
        rows = list(csv.DictReader(out.open()))
        assert [r["idx"] for r in rows] == [str(i) for i in range(6)]
        assert [(r["rho"], r["alpha"]) for r in rows] == [
            (rho, a) for rho in ("0.0", "1.0") for a in ("0.5", "1.0", "2.0")
        ]
        assert all(r["status"] == "ok" for r in rows)

    def test_jobs_env_default(self, tmp_path):
        out = tmp_path / "s.csv"
        proc = run_proc(
            ["sweep", "--n", "4", "--k", "1", "--theta", "1", "--rhos=0,1",
             "--out", str(out)],
            env_extra={"KSOL_JOBS": "2"},
        )
        assert proc.returncode == 0
        assert len(list(csv.DictReader(out.open()))) == 2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "case", ["missing_config", "non_numeric_config", "non_numeric_list", "sweep_shared_config"]
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, case):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=four\nk=1\nrho=1.0\ntheta=1.0\n")
        shared = tmp_path / "sweep.cfg"
        shared.write_text("n=4\nk=1\ntheta=1.0\ntol=x\n")
        argv = {
            "missing_config": ["classify", "--config", str(tmp_path / "absent.cfg")],
            "non_numeric_config": ["classify", "--config", str(cfg)],
            "non_numeric_list": ["sweep", "--n", "4", "--k", "1", "--theta", "1",
                                 "--rhos=1", "--alphas=abc"],
            # a value every row shares fails the command, not each row
            "sweep_shared_config": ["sweep", "--config", str(shared), "--rhos=1,5"],
        }[case]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["classify", "verify"])
    @pytest.mark.parametrize("rho", ["100", "-1.99"])
    def test_picard_overflow_is_reported(self, capsys, command, rho):
        # the Picard tail of (33, 16) needs e^(-2k s_min) beyond the float range
        code = run_cli([command, "--n", "33", "--k", "16", "--rho", rho, "--theta", "1"])
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert err.startswith("error: ") and "Traceback" not in err

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        from ksol import orbit

        def fault(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(orbit, "run_orbits", fault)
        code = run_cli(["classify", "--n", "4", "--k", "1", "--rho", "1", "--theta", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "internal error in classify: ZeroDivisionError: float division by zero\n"


class TestConfigPrecedence:
    def test_file_then_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=4\nk=1\nrho=1.0\ntheta=1.0\nalpha=2.0\n")
        out = tmp_path / "r.json"
        run_cli(["classify", "--config", str(cfg), "--out", str(out)])
        assert json.loads(out.read_text())["config"]["alpha"] == 2.0
        # a flag overrides the file
        run_cli(["classify", "--config", str(cfg), "--alpha", "3.0", "--out", str(out)])
        assert json.loads(out.read_text())["config"]["alpha"] == 3.0

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_profile_reads_s_max(self, tmp_path, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=4\nk=1\nrho=1.0\ntheta=1.0\n" + ("s_max=5\n" if source == "config" else ""))
        flag = ["--s-max", "5"] if source == "flag" else []
        out = tmp_path / "p.csv"
        assert run_cli(["profile", "--config", str(cfg), *flag, "--out", str(out)]) == 0
        r = [float(row["r"]) for row in csv.DictReader(out.open())]
        assert r and max(r) <= math.exp(5.0) * (1.0 + 1e-12)
