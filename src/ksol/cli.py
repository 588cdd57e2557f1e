"""Command-line front end.

Subcommands: classify, portrait, profile, verify, sweep. Reports are JSON
(UTF-8, sorted keys), bulk numeric tables are CSV (comma separated, '.'
decimal, header row, LF endings). Exit codes: 0 success, 1 verification
failure, 2 usage or parameter error.

Option precedence: command-line flags > config file (flat key=value lines)
> built-in defaults. KSOL_JOBS sets the default for --jobs.
"""

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import orbit as orbit_mod
from . import phase, picard, profile, sigma
from .errors import KsolError, ParameterError

DEFAULTS = {
    "theta": None,
    "rho": None,
    "n": None,
    "k": None,
    "alpha": 1.0,
    "alpha_bar": 1.0,
    "s_max": 200.0,
    "rtol": 1e-10,
    "tol": 1e-10,
    "out": None,
    "grid": 25,
    "orbits": "0.5,1.0,2.0",
    "rhos": None,
    "alphas": "1.0",
    "jobs": None,
    "profile_s_max": 30.0,
}


def _read_config(path):
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


def _resolve(args, keys):
    """flags > config file > defaults, with type coercion from defaults."""
    file_cfg = _read_config(args.config) if getattr(args, "config", None) else {}
    out = {}
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in file_cfg:
            out[key] = file_cfg[key]
        else:
            out[key] = DEFAULTS.get(key)
    return out


def _require(cfg, *keys):
    for key in keys:
        if cfg.get(key) is None:
            raise ParameterError(f"missing required parameter --{key.replace('_', '-')}")


def _params(cfg):
    _require(cfg, "n", "k", "rho", "theta")
    return phase.make_params(
        int(cfg["n"]), int(cfg["k"]), float(cfg["rho"]), float(cfg["theta"])
    )


def _controls(cfg):
    return orbit_mod.OrbitControls(rtol=float(cfg["rtol"]), s_max=float(cfg["s_max"]))


def _write_json(payload, path):
    text = json.dumps(payload, sort_keys=True, indent=2, default=_jsonify)
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _open_csv(path):
    fh = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
    return fh, csv.writer(fh, lineterminator="\n")


def _derived_dict(p):
    return {
        "m": p.m,
        "beta": p.beta,
        "gamma": p.gamma,
        "c_nk": p.c_nk,
        "X_A": p.X_A,
        "X_B": p.X_B,
        "Z_B": p.Z_B,
        "nu": p.nu,
        "gamma_k": p.gamma_k,
        "f0": p.f0,
    }


def _classify_payload(cfg):
    p = _params(cfg)
    controls = _controls(cfg)
    sol, trace, oc = orbit_mod.run_orbit(p, float(cfg["alpha"]), controls, float(cfg["tol"]))
    payload = {
        "config": {k: cfg[k] for k in ("n", "k", "rho", "theta", "alpha", "s_max", "rtol", "tol")},
        "params": _derived_dict(p),
        "class": {"kind": oc.kind, "X_inf": oc.X_inf, "s_exit": oc.s_exit},
        "status": trace.status,
        "events": [{"s": s, "kind": kind} for s, kind in trace.events],
        "local_solution": {
            "s0": sol.tail.s0,
            "iterations": sol.iterations,
            "contraction_rate": sol.contraction_rate,
            "sup_residual": sol.sup_residual,
            "weighted_limits": list(sol.weighted_limits),
            "u0": sol.u0,
        },
        "monitors": orbit_mod.monitor_report(trace, p),
    }
    if oc.kind not in (orbit_mod.NON_ADMISSIBLE, orbit_mod.UNDETERMINED):
        table = profile.reconstruct_u(trace, p)
        res = profile.elliptic_residual(table, p)
        payload["residuals"] = {
            "elliptic_max_rel": res.max_rel,
            "rows": res.n_rows,
            "rejected": res.n_rejected,
            "potential_identity": profile.potential_identity_residual(table, p),
        }
        try:
            rr = profile.tail_rate(table, p, oc)
            payload["tail_rate"] = {
                "fitted_exponent": rr.fitted_exponent,
                "log_correction_power": rr.log_correction_power,
                "predicted_exponent": rr.predicted.exponent if rr.predicted else None,
                "predicted_log_power": rr.predicted.log_power if rr.predicted else None,
                "agreement": rr.agreement,
                "r2": rr.r2,
                "model": rr.details["selected"],
            }
        except KsolError as exc:
            payload["tail_rate"] = {"error": str(exc)}
        if oc.kind == orbit_mod.TYPE_GAMMA:
            payload["z_tail_rate"] = {
                "fitted": profile.z_tail_rate(trace),
                "predicted": -p.k * p.rho / p.theta,
            }
    return payload


def cmd_classify(args):
    cfg = _resolve(args, ["n", "k", "rho", "theta", "alpha", "s_max", "rtol", "tol", "out"])
    payload = _classify_payload(cfg)
    _write_json(payload, cfg["out"])
    return 0


def cmd_portrait(args):
    cfg = _resolve(
        args, ["n", "k", "rho", "theta", "s_max", "rtol", "tol", "grid", "orbits", "out"]
    )
    p = _params(cfg)
    controls = _controls(cfg)
    alphas = [float(a) for a in str(cfg["orbits"]).split(",") if a]
    n_grid = int(cfg["grid"])

    orbits = []
    z_hi = 0.0
    for a in alphas:
        sol, trace, _oc = orbit_mod.run_orbit(p, a, controls)
        orbits.append((a, trace))
        finite = trace.Z[np.isfinite(trace.Z)]
        z_hi = max(z_hi, float(np.percentile(finite, 97.0)))
    z_hi = min(max(z_hi, 1.0), 10.0 * (p.Z_B or z_hi or 1.0)) if p.Z_B else max(z_hi, 1.0)

    fh, writer = _open_csv(cfg["out"])
    try:
        writer.writerow(["record", "label", "s", "X", "Z", "dX", "dZ"])
        xs = np.linspace(0.0, p.x_cap, n_grid)
        zs = np.linspace(0.0, z_hi, n_grid)
        for X in xs:
            for Z in zs:
                F, G = phase.system_rhs((X, Z), p)
                writer.writerow(["field", "", "", f"{X:.12g}", f"{Z:.12g}", f"{F:.12g}", f"{G:.12g}"])
        # X_s = 0 nullcline: Z = (n-2k)(1 - x/x_A) X / f(x) where positive
        X = np.linspace(1e-9, p.x_cap * 0.999, 400)
        x = phase.kth_root(X, p.k)
        fx = phase.profile_value(x, p)
        keep = fx > 0.0
        X, x, fx = X[keep], x[keep], fx[keep]
        Z = (p.n - 2 * p.k) * (1.0 - x / p.x_A) * X / fx
        for Xi, Zi in zip(X, Z):
            if 0.0 <= Zi <= z_hi:
                writer.writerow(["nullcline_X", "X_s=0", "", f"{Xi:.12g}", f"{Zi:.12g}", "", ""])
        for Z in np.linspace(0.0, z_hi, 100):
            writer.writerow(["nullcline_Z", "X=X_B", "", f"{p.X_B:.12g}", f"{Z:.12g}", "", ""])
        for X in np.linspace(0.0, p.x_cap, 100):
            writer.writerow(["nullcline_Z", "Z=0", "", f"{X:.12g}", "0", "", ""])
        for cp in phase.critical_points(p):
            writer.writerow(
                ["critical", f"{cp.name}:{cp.kind}", "", f"{cp.location[0]:.12g}", f"{cp.location[1]:.12g}", "", ""]
            )
        for a, trace in orbits:
            step = max(1, trace.s.size // 2000)
            for s, X, Z in zip(trace.s[::step], trace.X[::step], trace.Z[::step]):
                writer.writerow(
                    ["orbit", f"alpha={a:g}", f"{s:.12g}", f"{X:.12g}", f"{Z:.12g}", "", ""]
                )
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def cmd_profile(args):
    cfg = _resolve(args, ["n", "k", "rho", "theta", "alpha", "rtol", "tol", "out", "profile_s_max"])
    cfg["s_max"] = cfg["profile_s_max"]
    p = _params(cfg)
    controls = _controls(cfg)
    sol, trace, oc = orbit_mod.run_orbit(p, float(cfg["alpha"]), controls, float(cfg["tol"]))
    table = profile.reconstruct_u(trace, p)
    lam1, lam2 = sigma.schouten_pair(table.u, table.u_r, table.u_rr, table.r, p.n, p.k)
    sig, cond = sigma.split_sigma_l(lam1, lam2, p.n, p.k)
    # keep rows where sigma_k is a well-conditioned combination of the
    # eigenvalues (it cancels to O(Z) on axis-bound tails)
    keep = cond < 1e6
    fh, writer = _open_csv(cfg["out"])
    try:
        writer.writerow(["r", "u", "u_r", "u_rr", "lambda1", "lambda2", "sigma_k"])
        for i in np.nonzero(keep)[0]:
            writer.writerow(
                [
                    f"{table.r[i]:.16g}",
                    f"{table.u[i]:.16g}",
                    f"{table.u_r[i]:.16g}",
                    f"{table.u_rr[i]:.16g}",
                    f"{lam1[i]:.16g}",
                    f"{lam2[i]:.16g}",
                    f"{sig[i]:.16g}",
                ]
            )
    finally:
        if fh is not sys.stdout:
            fh.close()
    res = profile.elliptic_residual(table, p)
    sidecar = {
        "config": {k: cfg[k] for k in ("n", "k", "rho", "theta", "alpha")},
        "class": oc.kind,
        "rows": int(np.sum(keep)),
        "dropped_ill_conditioned": int(np.sum(~keep)),
        "alpha_recovered": table.alpha,
        "u0_expected": sol.u0,
        "elliptic_max_rel": res.max_rel,
    }
    if cfg["out"]:
        _write_json(sidecar, str(cfg["out"]) + ".json")
    return 0


def _verify_checks(cfg):
    p = _params(cfg)
    controls = _controls(cfg)
    tol = float(cfg["tol"])
    alpha = float(cfg["alpha"])
    checks = {}

    def record(name, value, threshold, ok=None):
        checks[name] = {
            "value": value,
            "threshold": threshold,
            "pass": bool(value <= threshold) if ok is None else bool(ok),
        }

    # stationarity of the reported critical points / non-vanishing elsewhere
    rng = np.random.default_rng(7)
    worst = 0.0
    for cp in phase.critical_points(p):
        if cp.kind == phase.DEGENERATE_LINE:
            locs = [(x, 0.0) for x in np.linspace(0.0, p.x_cap, 7)]
        elif cp.chart == "WV":
            locs = []
            worst = max(worst, max(abs(v) for v in phase.system_rhs_A((0.0, 0.0), p)))
        else:
            locs = [cp.location]
        for loc in locs:
            F, G = phase.system_rhs(loc, p)
            worst = max(worst, abs(F), abs(G))
    record("critical_points_rhs_zero", worst, 1e-12)
    min_norm = math.inf
    for _ in range(1000):
        X = rng.uniform(0.05, p.x_cap * 0.95)
        Z = rng.uniform(0.05, 2.0)
        if p.Z_B is not None and max(abs(X - p.X_B), abs(Z - p.Z_B)) < 1e-3:
            continue
        if p.n == 2 * p.k and Z < 1e-3:
            continue
        F, G = phase.system_rhs((X, Z), p)
        min_norm = min(min_norm, max(abs(F), abs(G)))
    record("field_nonzero_off_critical", min_norm, math.inf, ok=min_norm > 0.0)

    # analytic Jacobian vs central differences
    worst = 0.0
    for _ in range(200):
        X = rng.uniform(0.05, p.x_cap * 0.95)
        Z = rng.uniform(0.05, 2.0)
        J = phase.jacobian((X, Z), p)
        eps = 1e-6
        fd = np.empty((2, 2))
        for j, d in enumerate(((eps, 0.0), (0.0, eps))):
            hi = phase.system_rhs((X + d[0], Z + d[1]), p)
            lo = phase.system_rhs((X - d[0], Z - d[1]), p)
            fd[:, j] = [(hi[0] - lo[0]) / (2 * eps), (hi[1] - lo[1]) / (2 * eps)]
        worst = max(worst, float(np.max(np.abs(J - fd) / (1.0 + np.abs(fd)))))
    record("jacobian_matches_fd", worst, 1e-6)

    # repulsion at the asymptote and the Z_s sign structure
    if p.n >= 2 * p.k and p.rho <= 2.0 * p.theta:
        worst = -math.inf
        for Z in np.linspace(0.1, 5.0, 25):
            F, _ = phase.system_rhs((p.gamma_k, Z), p)
            worst = max(worst, F)
        limit = 0.0 if p.n == 2 * p.k else -1e-12
        record("asymptote_repulsion", worst, limit, ok=worst <= limit + 1e-15)
    sign_ok = True
    for X in np.linspace(0.0, p.x_cap * 0.999, 200):
        _, G = phase.system_rhs((X, 1.0), p)
        sign_ok &= (G > 0) == (X < p.X_B) or abs(X - p.X_B) < 1e-9
    _, g_at_b = phase.system_rhs((p.X_B, 1.0), p)
    record("zs_sign_structure", abs(g_at_b), 1e-12, ok=sign_ok and abs(g_at_b) < 1e-12)

    # local solution certificate
    sol, trace, oc = orbit_mod.run_orbit(p, alpha, controls, tol)
    record("picard_residual", sol.sup_residual, tol)
    record("picard_rate", sol.contraction_rate, 0.9)
    ak = picard.alpha_weight(alpha, p)
    lim_err = max(
        abs(sol.weighted_limits[0] - ak), abs(sol.weighted_limits[1] - p.n * ak / p.f0)
    )
    record("picard_weighted_limits", lim_err, 1e-8)
    record("picard_derivative_defect", picard.derivative_residual(sol, p), 10.0 * tol)

    # orbit, classification, monitors
    record(
        "classification_in_regime_table",
        0.0,
        0.5,
        ok=oc.kind in orbit_mod.expected_kinds(p),
    )
    mon = orbit_mod.monitor_report(trace, p)
    for name, count in mon.items():
        record(f"monitor_{name}", float(count), 0.0, ok=count == 0)

    if oc.kind not in (orbit_mod.NON_ADMISSIBLE, orbit_mod.UNDETERMINED):
        table = profile.reconstruct_u(trace, p)
        x_back = (-table.r * table.u_r / table.u) ** p.k
        z_back = (table.r**2 * table.u ** (1.0 - p.m)) ** p.k
        rt = max(
            float(np.max(np.abs(x_back - table.X) / (1.0 + table.X))),
            float(np.max(np.abs(z_back - table.Z) / (1.0 + table.Z))),
        )
        record("profile_round_trip", rt, 1e-8)
        record("u_positive_decreasing", 0.0, 0.5, ok=bool(np.all(table.u > 0) and np.all(table.u_r < 0)))
        res = profile.elliptic_residual(table, p)
        record("elliptic_residual", res.max_rel, 1e-6)
        record("potential_identity", profile.potential_identity_residual(table, p), 1e-6)
        org = profile.origin_expansion_check(table, table.alpha, p)
        record("origin_expansion_slope", org.rel_err, 1e-2)
        record("origin_zx_ratio", org.zx_ratio_err, 1e-5)
        try:
            rr = profile.tail_rate(table, p, oc)
            if rr.agreement is not None:
                record("tail_rate_agreement", rr.agreement, 0.02)
        except KsolError:
            pass
    if p.rho > 2.0 * p.theta and p.n >= 2 * p.k:
        rep = orbit_mod.barrier_compare(p, alpha, float(cfg["alpha_bar"]), controls)
        record("barrier_ordering", -rep.min_gap, 0.0, ok=rep.ordered)
        record("barrier_f_gt_h", -rep.f_minus_h_min, 0.0, ok=rep.f_gt_h)
    return p, checks


def cmd_verify(args):
    cfg = _resolve(args, ["n", "k", "rho", "theta", "alpha", "alpha_bar", "s_max", "rtol", "tol", "out"])
    p, checks = _verify_checks(cfg)
    all_pass = all(c["pass"] for c in checks.values())
    payload = {
        "config": {k: cfg[k] for k in ("n", "k", "rho", "theta", "alpha")},
        "checks": checks,
        "all_pass": all_pass,
    }
    _write_json(payload, cfg["out"])
    return 0 if all_pass else 1


def _sweep_row(idx, rho, alpha, base):
    row = {"idx": idx, "rho": rho, "alpha": alpha}
    try:
        p = _params(dict(base, rho=rho))
        sol, trace, oc = orbit_mod.run_orbit(p, alpha, _controls(base), float(base["tol"]))
        row.update(
            {"class": oc.kind, "s_end": float(trace.s[-1]), "X_inf": oc.X_inf, "status": "ok"}
        )
        if oc.kind not in (orbit_mod.NON_ADMISSIBLE, orbit_mod.UNDETERMINED):
            table = profile.reconstruct_u(trace, p)
            try:
                rr = profile.tail_rate(table, p, oc)
                row["exponent"] = rr.fitted_exponent
                row["log_power"] = rr.log_correction_power
            except KsolError as exc:
                row["error"] = str(exc)
    except KsolError as exc:
        row["status"] = "error"
        row["error"] = str(exc)
    return row


def cmd_sweep(args):
    cfg = _resolve(
        args,
        ["n", "k", "theta", "rhos", "alphas", "s_max", "rtol", "tol", "jobs", "out"],
    )
    _require(cfg, "n", "k", "theta", "rhos")
    rhos = [float(v) for v in str(cfg["rhos"]).split(",") if v]
    alphas = [float(v) for v in str(cfg["alphas"]).split(",") if v]
    jobs = cfg["jobs"]
    if jobs is None:
        jobs = os.environ.get("KSOL_JOBS", "1")
    jobs = max(1, int(jobs))
    grid = [(i, r, a) for i, (r, a) in enumerate((r, a) for r in rhos for a in alphas)]
    if jobs == 1:
        rows = [_sweep_row(i, r, a, cfg) for i, r, a in grid]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(lambda t: _sweep_row(t[0], t[1], t[2], cfg), grid))
    rows.sort(key=lambda r: r["idx"])
    cols = ["idx", "rho", "alpha", "class", "s_end", "X_inf", "exponent", "log_power", "status", "error"]
    fh, writer = _open_csv(cfg["out"])
    try:
        writer.writerow(cols)
        for row in rows:
            writer.writerow(["" if row.get(c) is None else row.get(c) for c in cols])
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def _add_common(sp):
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--rtol", type=float)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--s-max", dest="s_max", type=float)
    sp.add_argument("--out")
    sp.add_argument("--config")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ksol",
        description="phase-plane laboratory for radial k-Yamabe gradient solitons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="classify the orbit for one parameter set")
    _add_common(sp)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--alpha", type=float)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("portrait", help="vector field, nullclines, critical points, orbits")
    _add_common(sp)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--grid", type=int)
    sp.add_argument("--orbits", help="comma list of alpha seeds")
    sp.set_defaults(func=cmd_portrait)

    sp = sub.add_parser("profile", help="CSV table of the reconstructed conformal factor")
    _add_common(sp)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--profile-s-max", dest="profile_s_max", type=float)
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("verify", help="run the invariant suite; exit 1 on any failure")
    _add_common(sp)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--alpha-bar", dest="alpha_bar", type=float)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="classification table over a (rho, alpha) grid")
    _add_common(sp)
    sp.add_argument("--rhos", help="comma list of rho values")
    sp.add_argument("--alphas", help="comma list of alpha seeds")
    sp.add_argument("--jobs", type=int)
    sp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KsolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
