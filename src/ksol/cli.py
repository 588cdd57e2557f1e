"""Command-line front end.

Subcommands: classify, portrait, profile, verify, sweep. Reports are JSON
(UTF-8, sorted keys), bulk numeric tables are CSV (comma separated, '.'
decimal, header row, LF endings). Exit codes: 0 success, 1 verification
failure (only ``verify``), 2 usage or parameter error, or a stage that
reports it cannot proceed, 3 internal error (any other exception; stderr
names the command and the exception).

Option precedence: command-line flags > config file (flat key=value lines)
> built-in defaults. KSOL_JOBS sets the default for --jobs.

A sweep groups its rows by rho: the alphas of one rho share one
continuation (see orbit.run_orbits), and the --jobs threads run over the
rho values.
"""

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import orbit as orbit_mod
from . import _jit, phase, picard, profile, sigma
from .errors import DomainError, KsolError, ParameterError

# the kernel path of this process, named in the classify and verify reports
BACKEND = "numba" if _jit.JIT_ENABLED else "python"

# an option missing here defaults to None
DEFAULTS = {
    "alpha": 1.0,
    "alpha_bar": 1.0,
    "s_max": 200.0,
    "rtol": 1e-10,
    "tol": 1e-10,
    "grid": 25,
    "orbits": "0.5,1.0,2.0",
    "alphas": "1.0",
}


def _read_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path!r}: {exc}") from None
    cfg = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"config line without '=': {line!r}")
        key, val = line.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


def _resolve(args, defaults=DEFAULTS):
    """The subcommand's own options: flags > config file > defaults.

    Text from the config file (or a default read from the environment) is
    converted with the type of the flag of the same name, so a value has
    one type wherever it came from.
    """
    file_cfg = _read_config(args.config) if args.config else {}
    cfg = {}
    for key, flag in vars(args).items():
        if key in ("command", "func", "config", "types"):
            continue
        value = flag if flag is not None else file_cfg.get(key, defaults.get(key))
        kind = args.types.get(key)
        cfg[key] = _number(value, key, kind) if kind and isinstance(value, str) else value
    return cfg


def _number(text, key, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ParameterError(f"--{key.replace('_', '-')} is not a number: {text!r}") from None


def _numbers(cfg, key):
    """A comma-list option (rhos, alphas, orbits) as floats."""
    return [_number(v, key) for v in str(cfg[key]).split(",") if v]


def _require(cfg, *keys):
    for key in keys:
        if cfg.get(key) is None:
            raise ParameterError(f"missing required parameter --{key.replace('_', '-')}")


def _params(cfg):
    _require(cfg, "n", "k", "rho", "theta")
    return phase.make_params(cfg["n"], cfg["k"], cfg["rho"], cfg["theta"])


def _controls(cfg):
    return orbit_mod.OrbitControls(rtol=cfg["rtol"], s_max=cfg["s_max"])


def _analyse(p, alphas, cfg):
    """One run per alpha, the alphas sharing one continuation. Yields in
    order (sol, trace, oc, table, rate, rate_error), with the profile table
    and its tail rate for an admissible orbit (rate_error is the message of
    a failed fit), or the KsolError that ended that alpha's run. Stages are
    called through their modules, so a tracer can wrap them."""
    for run in orbit_mod.run_orbits(p, alphas, _controls(cfg), cfg["tol"]):
        if isinstance(run, KsolError):
            yield run
            continue
        sol, trace, oc = run
        table = rate = rate_error = None
        if oc.kind not in (orbit_mod.NON_ADMISSIBLE, orbit_mod.UNDETERMINED):
            try:
                table = profile.reconstruct_u(trace, p)
            except KsolError as exc:
                yield exc
                continue
            try:
                rate = profile.tail_rate(table, p, oc)
            except KsolError as exc:
                rate_error = str(exc)
        yield sol, trace, oc, table, rate, rate_error


def _analyse_one(p, alpha, cfg):
    """The run of classify and verify; a failed alpha raises its KsolError."""
    [result] = _analyse(p, [alpha], cfg)
    if isinstance(result, KsolError):
        raise result
    return result


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


@contextlib.contextmanager
def _csv_writer(path):
    """A CSV writer on the file at path, or on stdout without one."""
    fh = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
    try:
        yield csv.writer(fh, lineterminator="\n")
    finally:
        if fh is not sys.stdout:
            fh.close()


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


def cmd_classify(args):
    cfg = _resolve(args)
    p = _params(cfg)
    sol, trace, oc, table, rate, rate_error = _analyse_one(p, cfg["alpha"], cfg)
    payload = {
        "backend": BACKEND,
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
        "solver": {
            "accepted_steps": trace.accepted_steps,
            "rejected_steps": trace.rejected_steps,
            "rhs_evals": trace.rhs_evals,
            "h_min": trace.h_min,
            "stiff_from_s": None if math.isnan(trace.stiff_from_s) else trace.stiff_from_s,
            "events_dropped": trace.events_dropped,
        },
    }
    if table is not None:
        res = profile.elliptic_residual(table, p)
        payload["residuals"] = {
            "elliptic_max_rel": res.max_rel,
            "rows": res.n_rows,
            "rejected": res.n_rejected,
            "potential_identity": profile.potential_identity_residual(table, p),
        }
        if rate is None:
            payload["tail_rate"] = {"error": rate_error}
        else:
            payload["tail_rate"] = {
                "fitted_exponent": rate.fitted_exponent,
                "log_correction_power": rate.log_correction_power,
                "predicted_exponent": rate.predicted.exponent if rate.predicted else None,
                "predicted_log_power": rate.predicted.log_power if rate.predicted else None,
                "agreement": rate.agreement,
            }
        if oc.kind == orbit_mod.TYPE_GAMMA:
            payload["z_tail_rate"] = {
                "fitted": profile.z_tail_rate(trace),
                "predicted": -p.k * p.rho / p.theta,
            }
    _write_json(payload, cfg["out"])
    return 0


def cmd_portrait(args):
    cfg = _resolve(args)
    p = _params(cfg)
    controls = _controls(cfg)
    tol = cfg["tol"]
    alphas = _numbers(cfg, "orbits")
    n_grid = cfg["grid"]

    orbits = []
    z_hi = 0.0
    for a, run in zip(alphas, orbit_mod.run_orbits(p, alphas, controls, tol)):
        if isinstance(run, KsolError):
            raise run
        _sol, trace, _oc = run
        orbits.append((a, trace))
        finite = trace.Z[np.isfinite(trace.Z)]
        z_hi = max(z_hi, float(np.percentile(finite, 97.0)))
    z_hi = min(max(z_hi, 1.0), 10.0 * (p.Z_B or z_hi or 1.0)) if p.Z_B else max(z_hi, 1.0)

    with _csv_writer(cfg["out"]) as writer:
        writer.writerow(["record", "label", "s", "X", "Z", "dX", "dZ"])
        xs = np.linspace(0.0, p.x_cap, n_grid)
        zs = np.linspace(0.0, z_hi, n_grid)
        for X in xs:
            for Z in zs:
                try:
                    F, G = phase.system_rhs((X, Z), p)
                    dX, dZ = f"{F:.12g}", f"{G:.12g}"
                except DomainError:
                    # the field is undefined at X = x_cap = X_A, Z > 0 (rho > 2 theta)
                    dX = dZ = ""
                writer.writerow(["field", "", "", f"{X:.12g}", f"{Z:.12g}", dX, dZ])
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
    return 0


def cmd_profile(args):
    cfg = _resolve(args, dict(DEFAULTS, s_max=30.0))
    p = _params(cfg)
    sol, trace, oc = orbit_mod.run_orbit(p, cfg["alpha"], _controls(cfg), cfg["tol"])
    table = profile.reconstruct_u(trace, p)
    lam1, lam2 = sigma.schouten_pair(table.u, table.u_r, table.u_rr, table.r, p.n, p.k)
    sig, cond = sigma.split_sigma_l(lam1, lam2, p.n, p.k)
    # keep rows where sigma_k is a well-conditioned combination of the
    # eigenvalues (it cancels to O(Z) on axis-bound tails)
    keep = cond < 1e6
    with _csv_writer(cfg["out"]) as writer:
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


def cmd_verify(args):
    cfg = _resolve(args)
    p = _params(cfg)
    tol = cfg["tol"]
    alpha = cfg["alpha"]
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
    # random points off the critical points, one array call per check
    X = rng.uniform(0.05, 0.95, 1000) * p.x_cap
    Z = rng.uniform(0.05, 2.0, 1000)
    if p.Z_B is not None:
        off_b = np.maximum(np.abs(X - p.X_B), np.abs(Z - p.Z_B)) >= 1e-3
        X, Z = X[off_b], Z[off_b]
    F, G = phase.vector_field(X, Z, p)
    min_norm = float(np.min(np.maximum(np.abs(F), np.abs(G))))
    record("field_nonzero_off_critical", min_norm, math.inf, ok=min_norm > 0.0)

    # analytic Jacobian vs central differences, the step in X relative to X;
    # the rows of the stencil are X+, X-, Z+, Z-
    X = rng.uniform(0.05, 0.95, 200) * p.x_cap
    Z = rng.uniform(0.05, 2.0, 200)
    eps_x = 1e-6 * np.minimum(1.0, X)
    eps_z = 1e-6
    F, G = phase.vector_field(
        X + np.array([[1.0], [-1.0], [0.0], [0.0]]) * eps_x,
        Z + np.array([[0.0], [0.0], [1.0], [-1.0]]) * eps_z,
        p,
    )
    fd = np.array(
        [
            [(F[0] - F[1]) / (2.0 * eps_x), (F[2] - F[3]) / (2.0 * eps_z)],
            [(G[0] - G[1]) / (2.0 * eps_x), (G[2] - G[3]) / (2.0 * eps_z)],
        ]
    )
    J = phase.jacobian((X, Z), p)
    worst = float(np.max(np.abs(J - fd) / (1.0 + np.abs(fd))))
    record("jacobian_matches_fd", worst, 1e-6)

    # repulsion at the asymptote and the Z_s sign structure
    if p.n >= 2 * p.k and p.rho <= 2.0 * p.theta:
        worst = -math.inf
        for Z in np.linspace(0.1, 5.0, 25):
            F, _ = phase.system_rhs((p.gamma_k, Z), p)
            worst = max(worst, F)
        limit = 0.0 if p.n == 2 * p.k else -1e-12
        record("asymptote_repulsion", worst, limit, ok=worst <= limit + 1e-15)
    # the last point is B's X
    X = np.append(np.linspace(0.0, p.x_cap * 0.999, 200), p.X_B)
    _, G = phase.vector_field(X, np.ones_like(X), p)
    sign_ok = bool(np.all(((G[:-1] > 0) == (X[:-1] < p.X_B)) | (np.abs(X[:-1] - p.X_B) < 1e-9)))
    g_at_b = abs(float(G[-1]))
    record("zs_sign_structure", g_at_b, 1e-12, ok=sign_ok and g_at_b < 1e-12)

    # local solution certificate
    sol, trace, oc, table, rate, _rate_error = _analyse_one(p, alpha, cfg)
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

    if table is not None:
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
        if rate is not None and rate.agreement is not None:
            record("tail_rate_agreement", rate.agreement, 0.02)
            want = rate.predicted.log_power
            if want and rate.log_correction_power is not None:
                err = abs(rate.log_correction_power - want) / abs(want)
                record("tail_log_power_agreement", err, 1e-2)
    if p.rho > 2.0 * p.theta and p.n >= 2 * p.k:
        rep = orbit_mod.barrier_compare(
            p, alpha_bar=cfg["alpha_bar"], controls=_controls(cfg), tol=tol, trace=trace
        )
        record("barrier_ordering", -rep.min_gap, 0.0, ok=rep.ordered)
        record("barrier_f_gt_h", -rep.f_minus_h_min, 0.0, ok=rep.f_gt_h)
    all_pass = all(c["pass"] for c in checks.values())
    payload = {
        "backend": BACKEND,
        "config": {k: cfg[k] for k in ("n", "k", "rho", "theta", "alpha")},
        "checks": checks,
        "all_pass": all_pass,
    }
    _write_json(payload, cfg["out"])
    return 0 if all_pass else 1


def _sweep_rows(rho, alphas, base):
    """The rows of one rho; its alphas share one continuation."""
    rows = [{"rho": rho, "alpha": alpha} for alpha in alphas]
    try:
        results = _analyse(_params(dict(base, rho=rho)), alphas, base)
    except KsolError as exc:  # a rho that the shared theta rejects
        results = [exc] * len(alphas)
    for row, result in zip(rows, results):
        if isinstance(result, KsolError):
            row.update({"status": "error", "error": str(result)})
            continue
        _sol, trace, oc, _table, rate, rate_error = result
        row.update(
            {"class": oc.kind, "s_end": float(trace.s[-1]), "X_inf": oc.X_inf, "status": "ok"}
        )
        row["error"] = rate_error
        if rate is not None:
            row["exponent"] = rate.fitted_exponent
            row["log_power"] = rate.log_correction_power
    return rows


def cmd_sweep(args):
    cfg = _resolve(args, dict(DEFAULTS, jobs=os.environ.get("KSOL_JOBS", "1")))
    _require(cfg, "n", "k", "theta", "rhos")
    rhos = _numbers(cfg, "rhos")
    alphas = _numbers(cfg, "alphas")
    jobs = max(1, cfg["jobs"])
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        groups = list(pool.map(lambda rho: _sweep_rows(rho, alphas, cfg), rhos))
    cols = ["idx", "rho", "alpha", "class", "s_end", "X_inf", "exponent", "log_power", "status", "error"]
    with _csv_writer(cfg["out"]) as writer:
        writer.writerow(cols)
        for idx, row in enumerate(row for rows in groups for row in rows):
            row["idx"] = idx
            writer.writerow(["" if row.get(c) is None else row.get(c) for c in cols])
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
    for sp in sub.choices.values():
        # each flag's type, for _resolve to convert config-file text with
        sp.set_defaults(types={a.dest: a.type for a in sp._actions if a.type is not None})
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KsolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of the input
        print(f"internal error in {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
