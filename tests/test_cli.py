"""Command-line surface: flags, exit codes, file formats, determinism."""

import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from ksol import _jit, cli, orbit, phase, picard


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
        assert 0.0 < doc["solver"]["h_min"] <= doc["solver"]["h_max"]
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

    def test_picard_certificate(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["classify", "--n", "4", "--k", "1", "--rho", "1", "--theta", "1",
                        "--out", str(out)]) == 0
        local = json.loads(out.read_text())["local_solution"]
        assert set(local) == {
            "s0", "iterations", "contraction_rate", "sup_residual", "weighted_limits",
            "u0", "retries", "terms", "err",
        }
        # one validation at N terms, within the box edge s1, and the hand-off
        # bound relative to X and Z
        assert (local["iterations"], local["retries"]) == (1, 0)
        assert 2 <= local["terms"] <= picard.MAX_TERMS
        assert local["s0"] <= picard.box_edge(1.0, phase.make_params(4, 1, 1.0, 1.0))
        assert 0.0 < local["err"] <= picard.HAND_OFF_TOL * picard.DEFAULT_TOL
        assert local["contraction_rate"] <= 0.5 and local["sup_residual"] <= local["err"]

    def test_tiny_picard_x_passes_the_monitors(self, tmp_path):
        # the hand-off of (33, 16) at rho = 10, theta = 1e-3 has X(s0) ~ 1e-285;
        # the log Z identity's tolerance must not overflow there (the suite
        # turns RuntimeWarning into an error, which the CLI reports as exit 3),
        # and the run, whose e^W underflows at the start, ends at A
        out = tmp_path / "r.json"
        code = run_cli(["classify", "--n", "33", "--k", "16", "--rho", "10",
                        "--theta", "1e-3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["class"]["kind"] == "TypeA"
        assert doc["status"] == "converged_axis"
        assert set(doc["monitors"].values()) == {0}

    @pytest.mark.parametrize(
        "n,k,rho,theta,kind,criterion",
        [("4", "2", "1e-4", "1", "Undetermined", None), ("4", "1", "1", "1e3", "TypeB", "funnel"),
         ("4", "1", "1", "1", "TypeB", "poincare_return"),
         ("6", "1", "1", "1", "GeneralizedB", None),
         ("4", "1", "0", "1", "TypeGamma", "asymptote_trap"),
         ("5", "2", "-1", "1", "TypeGamma", "asymptote_trap"),
         ("4", "2", "-1", "1", "TypeGamma", "asymptote_trap")],
    )
    def test_class_reason(self, tmp_path, n, k, rho, theta, kind, criterion):
        # an Undetermined class says why; a decided one carries reason null.
        # n = 2k has no B, so its slow passage stays Undetermined, while its
        # expander (4,2,-1), like (5,2,-1) and the steady (4,1,0), is decided
        # at its hand-off by the asymptote trap; the theta 1e3 corner is
        # decided at its hand-off by the funnel certificate,
        # and (4,1,1) at its second upward return to X = X_B, which the class
        # names with its margin; (6,1,1), whose fences fail, runs into B with
        # no certificate to s_max, GeneralizedB, and its criterion and margin
        # are null
        out = tmp_path / "r.json"
        run_cli(["classify", "--n", n, "--k", k, "--rho", rho, "--theta", theta,
                 "--out", str(out)])
        cls = json.loads(out.read_text())["class"]
        assert cls["kind"] == kind
        if kind == "Undetermined":
            assert "slow passage" in cls["reason"]
        else:
            assert cls["reason"] is None
        assert cls["criterion"] == criterion
        if criterion is None:
            assert cls["margin"] is None
        else:
            assert cls["margin"] > 1.0

    def test_no_end_signature_reason(self, tmp_path):
        # n = 2k has no B; at rho/theta = 1e-2 the run ends at s_max on no
        # signature the classifier reads
        out = tmp_path / "r.json"
        run_cli(["classify", "--n", "4", "--k", "2", "--rho", "0.01", "--theta", "1",
                 "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["status"] == "s_max"
        assert doc["class"]["kind"] == "Undetermined"
        assert "no end signature" in doc["class"]["reason"]

    def test_certified_class_names_its_criterion(self, tmp_path):
        # theta = 1e-6 makes B a weak focus: two contracting returns to X_B
        # certify TypeB at s ~ 16.7, and the class names the criterion and
        # the margin of the gap between the returns over their error bound
        out = tmp_path / "r.json"
        run_cli(["classify", "--n", "4", "--k", "1", "--rho", "1", "--theta", "1e-6",
                 "--out", str(out)])
        doc = json.loads(out.read_text())
        cls = doc["class"]
        assert doc["status"] == "certified_B"
        assert doc["events"][-1]["kind"] == "certified_B"
        assert cls["kind"] == "TypeB" and cls["reason"] is None
        assert cls["criterion"] == "poincare_return" and cls["margin"] > 1.0

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


class TestImports:
    def test_cli_loads_no_thread_pool(self):
        # concurrent.futures pulls in logging; neither belongs in the start-up
        # of every command
        code = (
            "import sys, ksol.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()


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

    @pytest.mark.parametrize("n,rho,criterion", [(6, 0.3, "funnel"), (4, 5.0, "poincare_return")])
    def test_table_runs_past_a_certified_end(self, tmp_path, n, rho, criterion):
        # the run at s_max 30 ends certified_B at its hand-off, r = 0.354
        # (6,1,0.3), or at its second upward return to X = X_B, r = 313
        # (4,1,5); the table runs on to r = e^30, and the class stays TypeB
        p = phase.make_params(n, 1, rho, 1.0)
        _sol, _tr, oc = orbit.run_orbit(p, controls=orbit.OrbitControls(s_max=30.0))
        assert oc.diagnostics["criterion"] == criterion
        out = tmp_path / "p.csv"
        code = run_cli(["profile", "--n", str(n), "--k", "1", "--rho", str(rho), "--theta", "1",
                        "--out", str(out)])
        assert code == 0
        r = [float(row["r"]) for row in csv.DictReader(out.open())]
        assert r[-1] == pytest.approx(math.exp(30.0), rel=1e-12)
        sidecar = json.loads((tmp_path / "p.csv.json").read_text())
        assert sidecar["class"] == "TypeB" and sidecar["rows"] == len(r)
        assert sidecar["elliptic_max_rel"] <= 4e-15

    def test_table_runs_past_the_steady_end(self, tmp_path):
        # (6,1,0) has no end short of s_max: the series' arc takes its one
        # run there, and the table runs on to r = e^30
        p = phase.make_params(6, 1, 0.0, 1.0)
        _sol, tr, _oc = orbit.run_orbit(p, controls=orbit.OrbitControls(s_max=30.0))
        assert tr.status == "s_max" and tr.s[-1] == 30.0 and tr.hand_over is not None
        out = tmp_path / "p.csv"
        code = run_cli(["profile", "--n", "6", "--k", "1", "--rho", "0", "--theta", "1",
                        "--out", str(out)])
        assert code == 0
        r = [float(row["r"]) for row in csv.DictReader(out.open())]
        assert r[-1] == pytest.approx(math.exp(30.0), rel=1e-12)

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


class TestHandOverReport:
    def test_classify_reports_the_hand_over(self, tmp_path):
        # the solver block carries where the run handed over to the
        # slow-manifold series: an expander's, and none on a shrinker
        docs = []
        for rho in ("-1", "1"):
            out = tmp_path / f"c{rho}.json"
            assert run_cli(["classify", "--n", "4", "--k", "1", "--rho", rho, "--theta", "1",
                            "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        hand = docs[0]["solver"]["hand_over"]
        assert set(hand) == {"s", "terms", "distance", "omitted"}
        assert hand["distance"] <= 1e-10 and hand["omitted"] <= picard.HAND_OFF_TOL * 1e-10
        assert docs[0]["solver"]["newton_iterations"] == 0
        assert docs[1]["solver"]["hand_over"] is None

    def test_verify_checks_the_series_arc(self, tmp_path):
        # slow_manifold_defect reads the series' arc against the field in
        # units of its error estimate, on expanders only
        checks = []
        for rho in ("-1", "1"):
            out = tmp_path / f"v{rho}.json"
            assert run_cli(["verify", "--n", "4", "--k", "1", "--rho", rho, "--theta", "1",
                            "--out", str(out)]) == 0
            checks.append(json.loads(out.read_text())["checks"])
        defect = checks[0]["slow_manifold_defect"]
        assert defect["pass"] and defect["threshold"] == 1.0 and 0.0 < defect["value"] < 1.0
        assert "slow_manifold_defect" not in checks[1]


class TestVerify:
    def test_three_regimes_pass(self, tmp_path):
        for rho in ("-1", "0", "1"):
            out = tmp_path / f"v{rho}.json"
            code = run_cli(["verify", "--n", "4", "--k", "1", "--rho", rho,
                            "--theta", "1", "--out", str(out)])
            doc = json.loads(out.read_text())
            failed = {k: v for k, v in doc["checks"].items() if not v["pass"]}
            assert code == 0 and doc["all_pass"], failed

    @pytest.mark.parametrize("alpha", ["0.5", "1", "2"])
    def test_theta_corner_passes(self, tmp_path, alpha):
        # (4,1,1) at theta = 1e-6 ends certified_B after one and a half
        # loops; the barrier gap there is 5.3e-8, which chords between the
        # samples read as -1.1e-4
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--n", "4", "--k", "1", "--rho", "1", "--theta", "1e-6",
                        "--alpha", alpha, "--out", str(out)])
        doc = json.loads(out.read_text())
        failed = {k: v for k, v in doc["checks"].items() if not v["pass"]}
        assert code == 0 and doc["all_pass"], failed
        assert {"barrier_ordering", "monitor_self_intersections"} <= set(doc["checks"])

    def test_theta_1e6_corner_passes(self, tmp_path):
        # (4,1,1) at theta = 1e6: gamma - x_B = x_B rho/(2 theta) cancels in
        # the profile at B, where |F| read 4.19e-10 against the check's former
        # absolute 1e-12; against its rounding estimate it reads 0.04
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--n", "4", "--k", "1", "--rho", "1", "--theta", "1e6",
                        "--out", str(out)])
        doc = json.loads(out.read_text())
        failed = {k: v for k, v in doc["checks"].items() if not v["pass"]}
        assert code == 0 and doc["all_pass"], failed
        assert doc["checks"]["critical_points_rhs_zero"]["threshold"] == 1.0

    def test_forged_b_is_flagged(self):
        # B moved by 1e-6 relative, in X or in Z, fails the check on every
        # corpus set that has B, while B itself passes on each
        from test_corpus import PAIRS, RATIOS

        sets = 0
        for n, k in PAIRS:
            for ratio in RATIOS:
                p = phase.make_params(n, k, ratio, 1.0)
                points = phase.critical_points(p)
                assert cli.critical_point_residual(p, points) <= 1.0, (n, k, ratio)
                for b in (cp for cp in points if cp.name == "B"):
                    sets += 1
                    for loc in ((p.X_B * (1.0 + 1e-6), p.Z_B), (p.X_B, p.Z_B * (1.0 + 1e-6))):
                        forged = replace(b, location=loc)
                        assert cli.critical_point_residual(p, [forged]) > 1.0, (n, k, ratio, loc)
        assert sets == 153

    @staticmethod
    def _checks(tmp_path, n, k, rho, theta=1.0):
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--n", str(n), "--k", str(k), f"--rho={rho!r}",
                        "--theta", repr(theta), "--out", str(out)])
        return code, json.loads(out.read_text())["checks"]

    def test_forged_repulsion_is_flagged(self, tmp_path, monkeypatch):
        # F with its sign flipped on X = gamma^k reads attraction, at every
        # margin: (33,16,-1.99) has F = -1.3e-32 there, -1.8e15 rF
        sets = [(4, 1, -1.0), (9, 4, 1.0), (33, 16, -1.99)]
        for n, k, rho in sets:
            check = self._checks(tmp_path, n, k, rho)[1]["asymptote_repulsion"]
            assert check["pass"] and check["threshold"] == -1.0 and check["value"] < -1e6
        field = phase.field_in_domain
        monkeypatch.setattr(phase, "field_in_domain", lambda X, Z, p: (-field(X, Z, p)[0], field(X, Z, p)[1]))
        for n, k, rho in sets:
            code, checks = self._checks(tmp_path, n, k, rho)
            assert code == 1 and not checks["asymptote_repulsion"]["pass"]

    def test_forged_field_at_b_is_flagged(self, monkeypatch):
        # F off by 10 times its rounding bound at B
        sets = [(4, 1, 1.0), (5, 2, 1e-4), (12, 4, 10.0), (64, 8, 1.0), (33, 16, 1e2), (7, 3, -1.0)]
        points = {}
        for n, k, rho in sets:
            p = phase.make_params(n, k, rho, 1.0)
            points[p] = [cp for cp in phase.critical_points(p) if cp.name == "B"]
            assert cli.critical_point_residual(p, points[p]) <= 1.0
        rhs = phase.system_rhs

        def forged(state, p):
            F, G = rhs(state, p)
            return F + 10.0 * phase.field_rounding(*state, p)[0], G

        monkeypatch.setattr(phase, "system_rhs", forged)
        for p, b in points.items():
            assert cli.critical_point_residual(p, b) > 1.0, (p.n, p.k, p.rho)

    def test_forged_g_at_x_b_is_flagged(self, tmp_path, monkeypatch):
        # G off by 10 times its rounding bound on X = X_B
        sets = [(4, 1, 1.0), (5, 2, -1.0), (12, 4, 10.0), (33, 16, 1.0)]
        for n, k, rho in sets:
            check = self._checks(tmp_path, n, k, rho)[1]["zs_sign_structure"]
            assert check["pass"] and check["threshold"] == 1.0 and check["value"] <= 1.0
        field = phase.vector_field

        def forged(X, Z, p):
            F, G = field(X, Z, p)
            if np.iscomplexobj(X) or np.ndim(X) == 0:
                return F, G
            return F, G + np.where(X == p.X_B, 10.0 * phase.field_rounding(X, Z, p)[1], 0.0)

        monkeypatch.setattr(phase, "vector_field", forged)
        for n, k, rho in sets:
            check = self._checks(tmp_path, n, k, rho)[1]["zs_sign_structure"]
            assert not check["pass"] and check["value"] > 5.0

    def test_jacobian_check_takes_the_complex_step(self, tmp_path, monkeypatch):
        # (33,16,10) reaches X = 5e9, where a central difference rounded to 0
        # (the check read 1.2e91); the complex step agrees to 1e-11
        for n, k, rho in [(4, 1, 1.0), (33, 16, 10.0), (64, 8, 1.0)]:
            check = self._checks(tmp_path, n, k, rho)[1]["jacobian_matches_fd"]
            assert check["pass"] and check["threshold"] == 1e-6 and check["value"] < 1e-10
        # one entry off by 1e-5 is caught
        jacobian = phase.jacobian

        def forged(state, p):
            J = jacobian(state, p)
            if J.ndim == 3:
                J[0, 1] += 1e-5 * (1.0 + np.abs(J[0, 1]))
            return J

        monkeypatch.setattr(phase, "jacobian", forged)
        code, checks = self._checks(tmp_path, 4, 1, 1.0)
        check = checks["jacobian_matches_fd"]
        assert code == 1 and not check["pass"] and check["value"] == pytest.approx(1e-5, rel=1e-3)

    def test_weighted_limits_are_checked_relative(self, tmp_path):
        # each limit against its own size: (6,3,-1) at alpha 1.7 has
        # alpha_k = 4.913, and its X limit is off by 4.55e-8, 9.3e-9 of it
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--n", "6", "--k", "3", "--rho=-1", "--theta", "1",
                        "--alpha", "1.7", "--out", str(out)])
        check = json.loads(out.read_text())["checks"]["picard_weighted_limits"]
        assert code == 0 and check["pass"] and check["threshold"] == 1e-8

    def test_n_eq_2k_suite_passes(self, tmp_path):
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--n", "4", "--k", "2", "--rho", "1",
                        "--theta", "1", "--out", str(out)])
        assert code == 0

    @pytest.mark.parametrize(
        "n,k,rho,theta", [(4, 1, 2.0, 1.0), (12, 4, 2.0, 1.0), (4, 1, 2e-3, 1e-3)]
    )
    def test_asymptote_line_is_stationary_at_rho_eq_2theta(self, tmp_path, n, k, rho, theta):
        # gamma = x_A: X_s vanishes on X = gamma^k, where |F| must stay
        # within its rounding bound
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--n", str(n), "--k", str(k), "--rho", str(rho),
                        "--theta", str(theta), "--out", str(out)])
        doc = json.loads(out.read_text())
        check = doc["checks"]["asymptote_repulsion"]
        assert check["threshold"] == 1.0 and check["pass"] and 0.0 <= check["value"] <= 1.0
        assert code == 0 and doc["all_pass"]

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 3)])
    def test_steady_log_power_checked(self, tmp_path, n, k):
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--n", str(n), "--k", str(k), "--rho", "0",
                        "--theta", "1", "--out", str(out)])
        checks = json.loads(out.read_text())["checks"]
        check = checks["tail_log_power_agreement"]
        assert code == 0 and check["pass"] and check["threshold"] == 1e-2
        # at n > 2k the tail is the slow-manifold series' arc, which carries
        # the steady law itself: the defect against the field checks it
        if n > 2 * k:
            assert checks["slow_manifold_defect"]["pass"]
        else:
            assert "slow_manifold_defect" not in checks

    @pytest.mark.parametrize(
        "n,k,rho", [(33, 16, 1e-4), (33, 16, 1e-2), (33, 16, 0.3), (64, 8, 1e-4), (64, 8, 1e-2),
                    (64, 8, 0.3), (64, 8, 1.0)]
    )
    def test_short_funnel_trace_is_verified(self, tmp_path, n, k, rho):
        # these funnel ends keep a trace (tail and hand-off) that spans less
        # than 1 in s: the origin check reads Z/X at its last sample, and
        # verify reports, with exit 0 or 1, never an internal error (3)
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--n", str(n), "--k", str(k), "--rho", str(rho),
                        "--theta", "1", "--out", str(out)])
        assert code in (0, 1)
        assert "origin_zx_ratio" in json.loads(out.read_text())["checks"]

    @pytest.mark.parametrize("n,k,rho", [(4, 1, -1.0), (4, 1, 1.0), (4, 2, 1.0), (4, 2, 0.0)])
    def test_no_log_power_check_without_a_log_power(self, tmp_path, n, k, rho):
        # expanders and shrinkers have none; (4,2,0) has a predicted power of 0
        out = tmp_path / "v.json"
        run_cli(["verify", "--n", str(n), "--k", str(k), "--rho", str(rho),
                 "--theta", "1", "--out", str(out)])
        checks = json.loads(out.read_text())["checks"]
        assert "tail_rate_agreement" in checks
        assert "tail_log_power_agreement" not in checks

    @pytest.mark.parametrize(
        "n,k,rho,theta,kind",
        [("4", "2", "1e-4", "1", "Undetermined"), ("4", "1", "1", "1e3", "TypeB"),
         ("4", "1", "5", "1", "TypeB")],
    )
    def test_class_reason(self, tmp_path, n, k, rho, theta, kind):
        # as in classify: an Undetermined class says why, a decided one
        # carries reason null
        out = tmp_path / "v.json"
        run_cli(["verify", "--n", n, "--k", k, "--rho", rho, "--theta", theta,
                 "--out", str(out)])
        cls = json.loads(out.read_text())["class"]
        assert set(cls) == {"kind", "reason"} and cls["kind"] == kind
        assert (cls["reason"] is None) == (kind != "Undetermined")

    def test_barrier_reuses_local_solution(self, tmp_path, monkeypatch):
        # rho > 2 theta and n >= 2k: the barrier comparison takes the origin's
        # local solution from the run instead of solving it again
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

    def test_anchor_row_is_its_classify_run(self, tmp_path):
        # the largest alpha anchors each rho group (one Picard solve): its row
        # is the run classify makes at that alpha, bit for bit. The other
        # rows are read off its run, shifted in s, which moves their ends by
        # rounding: the steady exponent by up to 3e-13 and its log power by
        # up to 3e-11. A row reads its rate off the trace's admissible
        # samples, with no profile table
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--n", "4", "--k", "1", "--theta", "1", "--rhos=0,1,5",
                        "--alphas=0.5,1.0,2.0", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert [(r["class"], r["status"]) for r in rows] == (
            [("TypeGamma", "ok")] * 3 + [("TypeB", "ok")] * 6
        )
        for row in rows:
            rep = tmp_path / "c.json"
            assert run_cli(["classify", "--n", "4", "--k", "1", "--theta", "1",
                            "--rho", row["rho"], "--alpha", row["alpha"], "--out", str(rep)]) == 0
            doc = json.loads(rep.read_text())
            # a run ends at s_max or at its terminal event
            s_end = 200.0 if doc["status"] == "s_max" else doc["events"][-1]["s"]
            rate = doc["tail_rate"]
            got = [float(row["s_end"]), float(row["exponent"])]
            want = [s_end, rate["fitted_exponent"]]
            if row["log_power"]:
                got.append(float(row["log_power"]))
                want.append(rate["log_correction_power"])
            else:
                assert rate["log_correction_power"] is None
            assert row["class"] == doc["class"]["kind"]
            if row["alpha"] == "2.0":
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_rows_build_no_profile_table(self, tmp_path, monkeypatch):
        from ksol import profile

        def no_table(*args, **kwargs):
            raise AssertionError("a sweep row built a profile table")

        monkeypatch.setattr(profile, "reconstruct_u", no_table)
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--n", "4", "--k", "1", "--theta", "1", "--rhos=-1,0,1,5",
                        "--alphas=0.5,2.0", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 8
        assert all(r["status"] == "ok" and r["exponent"] for r in rows)

    def test_row_without_admissible_samples_is_an_error(self, tmp_path, monkeypatch):
        # the message comes from profile.admissible_samples; a failed rate,
        # by contrast, keeps its row ok (test_rate_error_keeps_the_row_ok)
        from ksol import profile

        x_cap = phase.make_params(4, 1, 1.0, 1.0).x_cap
        admissible_samples = profile.admissible_samples

        def off_the_strip(trace, p):
            return admissible_samples(replace(trace, X=np.full_like(trace.X, x_cap)), p)

        monkeypatch.setattr(profile, "admissible_samples", off_the_strip)
        out = tmp_path / "s.csv"
        assert run_cli(["sweep", "--n", "4", "--k", "1", "--theta", "1", "--rhos=1",
                        "--alphas=1.0", "--out", str(out)]) == 0
        [row] = csv.DictReader(out.open())
        assert row["status"] == "error" and row["error"] == "trace has no admissible samples"

    def test_rate_error_keeps_the_row_ok(self, tmp_path):
        # (4,1,1e-2) ends at its hand-off on a funnel certificate: TypeB,
        # with no tail span to read a rate from
        out = tmp_path / "s.csv"
        assert run_cli(["sweep", "--n", "4", "--k", "1", "--theta", "1", "--rhos=0.01",
                        "--alphas=1.0", "--out", str(out)]) == 0
        [row] = csv.DictReader(out.open())
        assert (row["class"], row["status"], row["exponent"]) == ("TypeB", "ok", "")
        assert "no tail span" in row["error"]

    def test_jobs_do_not_change_the_table(self, tmp_path):
        # --jobs is still accepted and has no effect on the table
        args = ["sweep", "--n", "4", "--k", "1", "--theta", "1", "--rhos=0,1,5",
                "--alphas=0.5,2"]
        tables = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            assert run_cli(args + ["--jobs", jobs, "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]
        assert len(list(csv.DictReader(io.StringIO(tables[0].decode())))) == 6

    def test_rows_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        # the rho groups run in order on the caller's thread, whatever --jobs
        # says, and the sweep leaves no thread behind
        from ksol import orbit

        threads = []
        run_orbits = orbit.run_orbits

        def spy(*a, **kw):
            threads.append(threading.get_ident())
            return run_orbits(*a, **kw)

        monkeypatch.setattr(orbit, "run_orbits", spy)
        before = threading.active_count()
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--n", "4", "--k", "1", "--theta", "1", "--rhos=0,1,5",
                        "--alphas=0.5,2", "--jobs", "2", "--out", str(out)])
        assert code == 0
        assert threads == [threading.get_ident()] * 3
        assert threading.active_count() == before


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
    def test_former_picard_overflow_sets_run(self, capsys, command, rho):
        # the grid operator needed e^(-2k s_min) beyond the float range on
        # (33, 16) here; the series solves them, and classify exits 0
        code = run_cli([command, "--n", "33", "--k", "16", "--rho", rho, "--theta", "1"])
        assert code == 0 if command == "classify" else code in (0, 1)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["classify", "verify"])
    @pytest.mark.parametrize("k,alpha", [(64, "1e-8"), (64, "1e8"), (37, "1e-8"), (37, "1e8")])
    def test_ends_of_the_alpha_range_at_large_k(self, capsys, command, k, alpha):
        # alpha^((1-m)k) leaves the floats inside [1e-8, 1e8] once (1-m)k
        # exceeds about 38.5: a report, or a DomainError that names the
        # usable range, never an internal error
        code = run_cli([command, "--n", "64", "--k", str(k), "--rho", "1", "--theta", "1",
                        "--alpha", alpha])
        out, err = capsys.readouterr()
        if (k, alpha) != (37, "1e-8"):
            assert code == 2 and err.startswith("error: alpha") and "range usable at" in err
            return
        # alpha_k = 3.6e-318 is a float; n alpha_k / f(0) underflows to 0,
        # and verify reads that limit as unreadable, not as a pass
        assert err == ""
        if command == "classify":
            assert code == 0
        else:
            assert code == 1
            check = json.loads(out)["checks"]["picard_weighted_limits"]
            assert check["value"] == math.inf and not check["pass"]

    def test_sweep_mixes_the_ends_of_the_alpha_range(self, tmp_path, capsys):
        for k, want in ((64, ["error", "ok", "error"]), (37, ["ok", "ok", "error"])):
            out = tmp_path / f"{k}.csv"
            code = run_cli(["sweep", "--n", "64", "--k", str(k), "--theta", "1", "--rhos=1",
                            "--alphas=1e-8,1,1e8", "--out", str(out)])
            assert code == 0 and capsys.readouterr().err == ""
            rows = list(csv.DictReader(out.open()))
            assert [row["status"] for row in rows] == want
            errors = [row["error"] for row in rows if row["status"] == "error"]
            assert all("range usable at" in error for error in errors)

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
