"""Reconstruction of the soliton conformal factor u(r) from orbits, the
soliton potential, self-similar flow snapshots, and asymptotic rate
estimation against the predicted decay laws.

All reconstruction happens in log space (ln u is linear in ln Z and s)
so that far tails, where u underflows double precision, still carry their
decay rates; the linear-space table keeps only representable rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import orbit as orbit_mod
from . import phase
from .errors import DomainError
from .sigma import binomial, schouten_pair, split_sigma_l

LN_FLOOR = -680.0  # linear-space columns must stay representable
MIN_TAIL_SPAN = 2.0 * math.log(10.0)  # two decades of r before a rate is read


@dataclass(frozen=True)
class ProfileTable:
    """Samples (r, u, u_r, u_rr) of the reconstructed conformal factor.

    ``s_full``, ``x_full`` and ``ln_u_full`` cover the whole admissible
    trace (log space, no underflow filtering). ``x_full`` is x = X^(1/k) =
    -d ln u/ds, from which ``tail_rate`` reads the decay.
    """

    r: np.ndarray
    u: np.ndarray
    u_r: np.ndarray
    u_rr: np.ndarray
    alpha: float
    params: object
    X: np.ndarray
    Z: np.ndarray
    s: np.ndarray
    s_full: np.ndarray
    x_full: np.ndarray
    ln_u_full: np.ndarray
    excluded_inadmissible: int = 0
    excluded_unrepresentable: int = 0


def reconstruct_u(trace, p):
    """Build the profile from an orbit trace.

    u = (Z^(1/k)/r^2)^(1/(1-m)), u_r = -u x / r, and u_rr comes from the
    analytic slope of x = X^(1/k) along the flow rather than from second
    differences of u.
    """
    k, m = p.k, p.m
    s, X, Z = trace.s, trace.X, trace.Z
    admissible = (Z > 0.0) & (X > 0.0) & (X < p.x_cap)
    n_in = int(np.sum(~admissible))
    s, X, Z = s[admissible], X[admissible], Z[admissible]
    if s.size == 0:
        raise DomainError("trace has no admissible samples")
    x = phase.kth_root(X, k)
    ln_u = ((1.0 / k) * np.log(Z) - 2.0 * s) / (1.0 - m)

    # representable subset for the linear-space columns (u_rr ~ u / r^2)
    ok = (ln_u > LN_FLOOR) & (ln_u + np.log(x) - s > LN_FLOOR) & (ln_u - 2.0 * s > LN_FLOOR)
    n_rep = int(np.sum(~ok))
    sr, Xr, Zr, xr, ln_ur = s[ok], X[ok], Z[ok], x[ok], ln_u[ok]
    r = np.exp(sr)
    u = np.exp(ln_ur)
    u_r = -u * xr / r
    F, _G = phase.vector_field(Xr, Zr, p)
    x_slope = F / (k * Xr ** ((k - 1.0) / k))
    u_rr = -(u / r**2) * (x_slope - xr - xr**2)

    # u(0) by quadratic extrapolation of the smallest-r samples
    j = min(16, r.size)
    alpha = float(np.polynomial.polynomial.polyfit(r[:j] ** 2, u[:j], 1)[0])
    return ProfileTable(
        r=r,
        u=u,
        u_r=u_r,
        u_rr=u_rr,
        alpha=alpha,
        params=p,
        X=Xr,
        Z=Zr,
        s=sr,
        s_full=s,
        x_full=x,
        ln_u_full=ln_u,
        excluded_inadmissible=n_in,
        excluded_unrepresentable=n_rep,
    )


@dataclass(frozen=True)
class OriginReport:
    slope: float
    slope_expected: float
    rel_err: float
    # deviation of u^(3-m) from its quadratic model, scaled by r^2, at the
    # smallest and at a 5x larger radius: must shrink with r
    dev_small: float
    dev_large: float
    zx_ratio_err: float


def origin_expansion_check(table, alpha, p):
    """Verify the quadratic behaviour of u^(3-m) near r = 0.

    The small-r slope relation u_r / u^(2-m) ~ -(f(0)/n)^(1/k) r (forced by
    Z/X -> n/f(0)) integrates to u^(m-1) = alpha^(m-1) + (1-m)/2 c r^2, so
    the quadratic coefficient of alpha^(3-m) - u^(3-m) is
    ((3-m)/2) (f(0)/n)^(1/k) alpha^(4-2m).
    """
    e = 3.0 - p.m
    r2 = table.r**2
    y = alpha**e - table.u**e
    c = (p.f0 / p.n) ** (1.0 / p.k)
    expected = ((3.0 - p.m) / 2.0) * c * alpha ** (4.0 - 2.0 * p.m)
    # stay where the quadratic term is a <=1e-3 relative perturbation of u
    r2_cap = 2e-3 / (c * alpha ** (1.0 - p.m))
    small = r2 <= r2_cap
    if np.sum(small) < 8:
        small = np.zeros_like(small)
        small[: min(8, small.size)] = True
    slope = float(np.sum(y[small] * r2[small]) / np.sum(r2[small] ** 2))
    dev = np.abs(y - expected * r2) / r2
    j_small = min(8, dev.size - 1)
    j_large = min(np.searchsorted(table.r, table.r[0] * 5.0), dev.size - 1)
    # Z/X carries an O(e^(2s)) correction; remove it by two-point
    # extrapolation before comparing with n/f(0)
    zx = table.Z / table.X
    j = max(1, np.searchsorted(table.s, table.s[0] + 1.0))
    ea, eb = math.exp(2.0 * table.s[0]), math.exp(2.0 * table.s[j])
    zx0 = (zx[0] * eb - zx[j] * ea) / (eb - ea)
    return OriginReport(
        slope=slope,
        slope_expected=expected,
        rel_err=abs(slope - expected) / expected,
        dev_small=float(dev[j_small]),
        dev_large=float(dev[j_large]),
        zx_ratio_err=float(abs(zx0 - p.n / p.f0) / (p.n / p.f0)),
    )


@dataclass(frozen=True)
class RatePrediction:
    exponent: float
    log_power: float | None
    description: str


def expected_rate(p, orbit_class):
    """The decay law the asymptotic analysis predicts for this orbit type,
    or None where the regime table does not allow the type.

    The expander exponent is the one forced by the unambiguous two-sided
    bound Z ~ e^(-k rho/theta s), namely u ~ r^(-(2+rho/theta)/(1-m));
    quoted closed forms for it vary, so the Z-rate is what gets verified.
    On steady n = 2k orbits eps = gamma - x obeys eps_s ~ -c Z eps^k with
    (ln Z)_s = 2k eps/gamma, so eps ~ gamma (k-2)/(2k s), and gamma = 2:
    the log power is (k-2)/k. At k = 2 it is 0, and s eps decays like 1/ln s.

    Two of these exponents cannot disagree with ``tail_rate``. The expander
    exponent is -gamma, and the run stops at gamma - x = asym_tol gamma, so
    the agreement is asym_tol (1e-5) by construction. The GeneralizedA
    exponent -2(1 + d) = -X_inf^(1/k) is -x(s_end) itself, so the agreement
    is 0.
    """
    n, k, m = p.n, p.k, p.m
    kind = orbit_class.kind
    if kind not in orbit_mod.expected_kinds(p):
        return None
    if kind == orbit_mod.TYPE_GAMMA:
        if p.rho < 0.0:
            return RatePrediction(
                -(2.0 + p.rho / p.theta) / (1.0 - m),
                None,
                "expander: u ~ r^(-(2+rho/theta)/(1-m)) from Z ~ e^(-k rho/theta s)",
            )
        if n > 2 * k:
            return RatePrediction(
                -2.0 / (1.0 - m), 1.0 / (1.0 - m), "steady: u ~ (ln r / r^2)^(1/(1-m))"
            )
        return RatePrediction(-2.0, (k - 2.0) / k, "steady n=2k: u ~ (ln r)^((k-2)/k)/r^2")
    if kind in (orbit_mod.TYPE_B, orbit_mod.GENERALIZED_B):
        return RatePrediction(-2.0 / (1.0 - m), None, "shrinker slow decay: u ~ r^(-2/(1-m))")
    if kind == orbit_mod.TYPE_A:
        return RatePrediction(-4.0 / (1.0 - m), None, "fast decay at A: u ~ r^(-4/(1-m))")
    if kind == orbit_mod.GENERALIZED_A and orbit_class.X_inf is not None:
        d = orbit_class.X_inf ** (1.0 / k) / 2.0 - 1.0
        return RatePrediction(
            -2.0 * (1.0 + d), None, f"n=2k shrinker: u ~ r^(-2(1+d)), d={d:.6f}"
        )
    return None


@dataclass(frozen=True)
class RateReport:
    fitted_exponent: float
    log_correction_power: float | None
    predicted: RatePrediction | None
    agreement: float | None


def tail_rate(table, p, orbit_class):
    """The decay exponent of u, and on steady orbits its log power, read off
    the flow.

    Along the orbit d ln u/ds = -x exactly (u_r = -u x/r), so u decays like
    r^(-lim x). An orbit that converges exponentially gives the exponent
    -x(s_end). A steady orbit (TypeGamma at rho = 0) approaches gamma like
    p/s, which is u ~ r^(-gamma) (ln r)^p: the log power p = lim s (gamma - x)
    comes from one c0 + c1/s fit of s (gamma - x) over s >= s_end/2, and the
    exponent is x's limit with the fitted correction taken out,
    -(x + (c0 + c1/s)/s) at s_end: -gamma up to the fit's residual there.

    The agreement with ``expected_rate`` checks nothing on two orbit types:
    on expanders it is the asymptote tolerance asym_tol (1e-5), where the
    run stops, and on GeneralizedA orbits it is 0.0, because the prediction
    is read from x(s_end) itself.
    """
    s, x = table.s_full, table.x_full
    if s[-1] - s[0] < MIN_TAIL_SPAN or s[-1] <= 1.0:
        raise DomainError(
            f"tail span {s[-1] - s[0]:.2f} too short to read a decay rate; increase s_max"
        )
    limit, log_power = float(x[-1]), None
    if orbit_class.kind == orbit_mod.TYPE_GAMMA and p.rho == 0.0:
        late = s >= 0.5 * s[-1]
        c1, c0 = np.polyfit(1.0 / s[late], s[late] * (p.gamma - x[late]), 1)
        log_power = float(c0)
        limit += (c0 + c1 / s[-1]) / s[-1]
    predicted = expected_rate(p, orbit_class)
    agreement = None
    if predicted is not None:
        agreement = abs(limit + predicted.exponent) / abs(predicted.exponent)
    return RateReport(
        fitted_exponent=-limit,
        log_correction_power=log_power,
        predicted=predicted,
        agreement=agreement,
    )


def z_tail_rate(trace, span=5.0):
    """Slope of ln Z over the last ``span`` units of s."""
    s, Z = trace.s, trace.Z
    sel = (s >= s[-1] - span) & (Z > 0.0)
    if np.sum(sel) < 8:
        raise DomainError("not enough tail samples for a Z-rate fit")
    coef = np.polyfit(s[sel], np.log(Z[sel]), 1)
    return float(coef[0])


def affine_z_root_fit(trace, p, frac=0.5):
    """Fit Z^(1/k) ~ a s + b over the trailing fraction of a steady orbit.

    Returns (a, b, r2); the steady regime predicts an asymptotically
    affine Z^(1/k) with slope 2 C^(1/k) / gamma.
    """
    s, Z = trace.s, trace.Z
    sel = s >= s[0] + (1.0 - frac) * (s[-1] - s[0])
    y = phase.kth_root(Z[sel], p.k)
    coef = np.polyfit(s[sel], y, 1)
    pred = np.polyval(coef, s[sel])
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(coef[0]), float(coef[1]), 1.0 - ss_res / ss_tot


def steady_slope_constant(p):
    """The constant C with Z (gamma - x)^k -> C on steady orbits."""
    g = p.gamma
    return (p.n - 2 * p.k) / p.cb * (1.0 - g / p.x_A) ** p.k * g**p.k


@dataclass(frozen=True)
class ResidualReport:
    max_rel: float
    n_rows: int
    n_rejected: int


def elliptic_residual(table, p):
    """Max relative defect of the eigenvalue form of the soliton equation.

    Both sides are evaluated from (u, u_r, u_rr); the right-hand side spans
    hundreds of decades along a full orbit, so the comparison is done via
    logarithms. Rows with lambda2 <= 0 are rejected.
    """
    n, k, m = p.n, p.k, p.m
    u, u_r, u_rr, r = table.u, table.u_r, table.u_rr, table.r
    lam1, lam2 = schouten_pair(u, u_r, u_rr, r, n, k)
    q = u_r / u
    good = lam2 > 0.0
    if not np.any(good):
        raise DomainError("no rows with lambda2 > 0")
    lam1, lam2, u, q, r = lam1[good], lam2[good], u[good], q[good], r[good]
    u_rr_g = u_rr[good]
    lhs = lam1 + ((n - k) / k) * lam2
    bracket = 2.0 * p.theta + p.rho + (1.0 - m) * p.theta * r * q
    ok = bracket > 0.0
    ln_rhs = (
        -math.log(binomial(n - 1, k - 1))
        + (1.0 - k) * np.log(lam2[ok])
        + (4.0 * k * k / (n + 2.0 * k)) * np.log(u[ok])
        + k * np.log(bracket[ok])
    )
    rhs = np.exp(ln_rhs)
    # both sides cancel to O(sigma_k) on axis-bound tails while the raw
    # curvature terms stay O(1/r^2), and the eigenvalue formulas themselves
    # are cancelling combinations there; the defect is measured against the
    # pre-cancellation constituent scale, the honest double-precision claim
    half = (1.0 - m) / 2.0
    sc1 = half * (np.abs(u_rr_g[ok] / u[ok]) + ((5.0 - m) / 4.0) * q[ok] ** 2)
    sc2 = half * np.abs(q[ok]) * (1.0 / r[ok] + ((1.0 - m) / 4.0) * np.abs(q[ok]))
    scale = sc1 + ((n - k) / k) * sc2 + rhs
    resid = np.abs(lhs[ok] - rhs) / scale
    n_rej = int(np.sum(~good)) + int(np.sum(~ok))
    max_rel = float(np.max(resid)) if resid.size else math.inf
    return ResidualReport(max_rel=max_rel, n_rows=int(resid.size), n_rejected=n_rej)


def sigma_k_column(table, p):
    """sigma_k of the Schouten spectrum along the profile (Euclidean gauge)."""
    lam1, lam2 = schouten_pair(table.u, table.u_r, table.u_rr, table.r, p.n, p.k)
    return lam1, lam2, split_sigma_l(lam1, lam2, p.n, p.k)[0]


@dataclass(frozen=True)
class PotentialTable:
    s: np.ndarray
    phi: np.ndarray
    phi_s: np.ndarray
    w: np.ndarray


def potential_phi(trace, p):
    """Soliton potential from phi_s = 2 theta w, w = r^2 u^((1-m)) = Z^(1/k).

    phi is gauged to phi = 0 at the first sample; the additive constant is
    immaterial to every identity involving phi derivatives.
    """
    good = trace.Z > 0.0
    s = trace.s[good]
    w = phase.kth_root(trace.Z[good], p.k)
    phi_s = 2.0 * p.theta * w
    phi = np.empty_like(phi_s)
    phi[0] = 0.0
    np.cumsum(0.5 * (phi_s[1:] + phi_s[:-1]) * np.diff(s), out=phi[1:])
    return PotentialTable(s=s, phi=phi, phi_s=phi_s, w=w)


def potential_identity_residual(table, p):
    """Defect of phi_ss - w_s phi_s/(2w) = (sigma_k^(1/k) - rho) w.

    With phi_s = 2 theta w this reduces to theta w_s = (sigma_k^(1/k) - rho) w;
    w_s is analytic ((1/k) w (ln Z)_s) and sigma_k is evaluated from the
    eigenvalues of the reconstructed ``table`` in the metric gauge.
    """
    lam1, lam2 = schouten_pair(table.u, table.u_r, table.u_rr, table.r, p.n, p.k)
    sig, cond = split_sigma_l(lam1, lam2, p.n, p.k)
    # sigma_k is a cancelling combination of the eigenvalues (it vanishes
    # like Z on axis-bound tails while the eigenvalues stay O(1/r^2)); only
    # rows where that combination is well-conditioned are verifiable
    good = (sig > 0.0) & (cond < 1e4)
    u, Z, X = table.u[good], table.Z[good], table.X[good]
    w = phase.kth_root(Z, p.k)
    _F, G = phase.vector_field(X, Z, p)
    w_s = w * (G / Z) / p.k
    # metric-gauge sigma_k^(1/k): the Euclidean-gauge eigenvalues carry u^(1-m)
    sig_root = phase.kth_root(sig[good], p.k) / u ** (1.0 - p.m)
    lhs = p.theta * w_s
    rhs = (sig_root - p.rho) * w
    # both sides vanish together whenever the orbit crosses X = X_B
    # (w_s = 0 there forces sigma^(1/k) = rho); normalize by the term scale
    scale = p.theta * np.abs(w_s) + (sig_root + abs(p.rho)) * w + 1e-300
    return float(np.max(np.abs(lhs - rhs) / scale))


@dataclass(frozen=True)
class FlowSolution:
    """Evaluator for the self-similar flow snapshot at one time t."""

    kind: str  # shrinker / expander / steady
    amplitude: float
    eta_scale: float  # |x| is multiplied by this before interpolation
    table: ProfileTable

    def __call__(self, radii):
        radii = np.asarray(radii, dtype=float)
        eta = np.abs(radii) * self.eta_scale
        s_full, ln_u = self.table.s_full, self.table.ln_u_full
        if np.any(eta > np.exp(s_full[-1])):
            raise DomainError("requested radius outside the profile range")
        ln_eta = np.where(eta > 0.0, np.log(np.maximum(eta, 1e-300)), s_full[0])
        ln_eta = np.maximum(ln_eta, s_full[0])
        vals = np.exp(np.interp(ln_eta, s_full, ln_u))
        small = eta < np.exp(s_full[0])
        if np.any(small):
            vals = np.where(small, self.table.alpha, vals)
        return self.amplitude * vals


def flow_solution(table, p, t, T=1.0):
    """Self-similar solution of the curvature flow built from the profile.

    shrinker (rho > 0): u(x, t) = (T-t)^(beta gamma~) u(|x| (T-t)^beta),
    expander (rho < 0): t^(-beta gamma~) u(|x| t^(-beta)),
    steady (rho = 0):   e^(-beta gamma~ t) u(|x| e^(-beta t)),
    with beta = (1-m) theta and beta gamma~ = 2 theta + rho.
    """
    bg = 2.0 * p.theta + p.rho  # beta * gamma~ collapses to 2 theta + rho
    if p.rho > 0.0:
        if not t < T:
            raise DomainError("shrinker snapshots require t < T")
        return FlowSolution("shrinker", (T - t) ** bg, (T - t) ** p.beta, table)
    if p.rho < 0.0:
        if not t > 0.0:
            raise DomainError("expander snapshots require t > 0")
        return FlowSolution("expander", t**-bg, t**-p.beta, table)
    return FlowSolution("steady", math.exp(-bg * t), math.exp(-p.beta * t), table)
