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
from .sigma import binomial, schouten_pair, sigma_l_bracket, split_sigma_l

LN_FLOOR = -680.0  # linear-space columns must stay representable
MIN_TAIL_SPAN = 2.0 * math.log(10.0)  # two decades of r before a rate is read


@dataclass(frozen=True)
class AdmissibleSamples:
    """The trace's samples (s, X, Z) with Z > 0 and 0 < X < x_cap, and
    x = X^(1/k) = -d ln u/ds there, from which ``tail_rate`` reads the
    decay and ``reconstruct_u`` builds the profile."""

    s: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    x: np.ndarray


def admissible_samples(trace, p):
    """The :class:`AdmissibleSamples` of an orbit trace."""
    keep = (trace.Z > 0.0) & (trace.X > 0.0) & (trace.X < p.x_cap)
    if not np.any(keep):
        raise DomainError("trace has no admissible samples")
    X = trace.X[keep]
    return AdmissibleSamples(trace.s[keep], X, trace.Z[keep], phase.kth_root(X, p.k))


@dataclass(frozen=True)
class ProfileTable:
    """Samples (r, u, u_r, u_rr) of the reconstructed conformal factor.

    ``samples`` are the admissible samples it was built from, and
    ``ln_u_full`` is ln u at each of them (log space, no underflow
    filtering); ``s``, ``X`` and ``Z`` are those of the representable rows.
    ``origin_fit`` holds the coefficients of u as a polynomial in
    (r/r[0])^2 near the table's start (:func:`_origin_fit`): the origin
    expansion, with ``alpha`` = u(0) its constant.
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
    samples: AdmissibleSamples
    ln_u_full: np.ndarray
    excluded_unrepresentable: int = 0
    origin_fit: np.ndarray | None = None


def reconstruct_u(samples, p):
    """Build the profile from a trace's :func:`admissible_samples`.

    u = (Z^(1/k)/r^2)^(1/(1-m)), u_r = -u x / r, and u_rr comes from the
    analytic slope of x = X^(1/k) along the flow rather than from second
    differences of u.
    """
    k, m = p.k, p.m
    s, x = samples.s, samples.x
    ln_u = ((1.0 / k) * np.log(samples.Z) - 2.0 * s) / (1.0 - m)

    # representable subset for the linear-space columns (u_rr ~ u / r^2)
    ok = (ln_u > LN_FLOOR) & (ln_u + np.log(x) - s > LN_FLOOR) & (ln_u - 2.0 * s > LN_FLOOR)
    n_rep = int(np.sum(~ok))
    sr, Xr, Zr, xr, ln_ur = s[ok], samples.X[ok], samples.Z[ok], x[ok], ln_u[ok]
    r = np.exp(sr)
    u = np.exp(ln_ur)
    u_r = -u * xr / r
    F, _G = phase.vector_field(Xr, Zr, p)
    x_slope = F / (k * Xr ** ((k - 1.0) / k))
    u_rr = -(u / r**2) * (x_slope - xr - xr**2)

    fit = _origin_fit(sr, u, k)
    return ProfileTable(
        r=r,
        u=u,
        u_r=u_r,
        u_rr=u_rr,
        alpha=float(fit[0]),
        params=p,
        X=Xr,
        Z=Zr,
        s=sr,
        samples=samples,
        ln_u_full=ln_u,
        excluded_unrepresentable=n_rep,
        origin_fit=fit,
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


# C(i, l) at row l, column i, for _origin_fit's degrees
_PASCAL = np.array([[binomial(i, l) for i in range(9)] for l in range(9)], dtype=float)


def _origin_fit(s, values, k, deg=8):
    """The coefficients of the polynomial of degree deg in e^(2(s - s[0]))
    fitted to values over s <= s[0] + min(1/2, 4/k), at least 2 deg
    samples: near r = 0 the orbit is analytic in r^2 = e^(2s), and the
    table starts where the local series hands off, for k >= 3 up to a few
    percent from the leading term, so a line in r^2 through the first
    samples misses u(0) by up to 4e-3 and Z/X's limit by up to 0.8.

    The least squares run in t mapped onto [-1, 1], where the powers are
    well conditioned (at k = 50 the span in t is [1, 1.17], on which the
    powers of t are nearly parallel), and the coefficients are then carried
    back to powers of t."""
    span = min(0.5, 4.0 / k)
    j = min(max(int(np.searchsorted(s, s[0] + span, side="right")), 2 * deg), s.size)
    t = np.exp(2.0 * (s[:j] - s[0]))
    deg = min(deg, j - 1)
    # tau = a + b t maps [t[0], t[-1]] onto [-1, 1]
    b = 2.0 / (t[-1] - t[0]) if j > 1 else 1.0
    a = -1.0 - b * t[0]
    coef = np.linalg.lstsq(np.vander(a + b * t, deg + 1, increasing=True), values[:j], rcond=None)[0]
    # tau^i = sum_l C(i, l) a^(i-l) b^l t^l
    i = np.arange(deg + 1)
    to_t = _PASCAL[: deg + 1, : deg + 1] * a ** np.abs(i - i[:, None]) * b ** i[:, None]
    return to_t @ coef


def origin_expansion_check(table, alpha, p):
    """Verify the quadratic behaviour of u^(3-m) near r = 0.

    The small-r slope relation u_r / u^(2-m) ~ -(f(0)/n)^(1/k) r (forced by
    Z/X -> n/f(0)) integrates to u^(m-1) = alpha^(m-1) + (1-m)/2 c r^2, so
    the quadratic coefficient of alpha^(3-m) - u^(3-m) is
    ((3-m)/2) (f(0)/n)^(1/k) alpha^(4-2m). The coefficient, and the limit
    of Z/X, are read off :func:`_origin_fit`.
    """
    e = 3.0 - p.m
    r2 = table.r**2
    y = alpha**e - table.u**e
    c = (p.f0 / p.n) ** (1.0 / p.k)
    expected = ((3.0 - p.m) / 2.0) * c * alpha ** (4.0 - 2.0 * p.m)
    # both readings from one fit, of y and of Z/X
    fit = _origin_fit(table.s, np.column_stack([y, table.Z / table.X]), p.k)
    slope = float(fit[1, 0]) / r2[0]
    dev = np.abs(y - expected * r2) / r2
    j_small = min(8, dev.size - 1)
    j_large = min(np.searchsorted(table.r, table.r[0] * 5.0), dev.size - 1)
    zx0 = float(fit[0, 1])
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


# the log power lim s (gamma - x) of a steady tail is fitted with
# LOG_POWER_TERMS powers of 1/s to s (gamma - x) at the samples
LOG_POWER_TERMS = 6


def log_power_fit(s, X, p, S):
    """The log power lim s (gamma - x) of a steady orbit, fitted over
    [S/2, S], which the samples (s, X) must cover.

    y = s (gamma - x) at the samples in [S/2, S) is fitted by least squares
    with LOG_POWER_TERMS powers of 1/s, with 1/s over [1/S, 2/S] mapped
    onto t in [-1, 1], where the powers are well conditioned: 1/s = 0 lies
    at t = -3 and s = S at t = -1. Extrapolated to 1/s = 0, the fit
    magnifies an error in X about 1,000-fold, so it reads the samples alone,
    within 1e-13 of the flow on a steady tail, and no point between them:
    the cubic Hermite through the field's slopes misses by up to SAMPLE_TOL
    between samples about 1 apart, and a trace cut at s = S ends on such a
    point. Returns the polynomial at 1/s = 0, the log power, and at s = S.
    """
    i0 = int(np.searchsorted(s, 0.5 * S))
    i1 = int(np.searchsorted(s, S))
    s = s[i0:i1]
    y = s * (p.gamma - phase.kth_root(X[i0:i1], p.k))
    coef = np.linalg.lstsq(np.vander(2.0 * S / s - 3.0, LOG_POWER_TERMS), y, rcond=None)[0]
    log_power, y_end = np.vander([-3.0, -1.0], LOG_POWER_TERMS) @ coef
    return float(log_power), float(y_end)


def tail_rate(samples, p, orbit_class):
    """The decay exponent of u, and on steady orbits its log power, read off
    the flow at a trace's :func:`admissible_samples`.

    Along the orbit d ln u/ds = -x exactly (u_r = -u x/r), so u decays like
    r^(-lim x). An orbit that converges exponentially gives the exponent
    -x(s_end). A steady orbit (TypeGamma at rho = 0) approaches gamma like
    p/s, which is u ~ r^(-gamma) (ln r)^p: the log power p = lim s (gamma - x)
    comes from :func:`log_power_fit` over [s_end/2, s_end], and the exponent
    is x's limit with the fitted correction y(s_end) taken out, -(x + y/s)
    at s_end: -gamma up to the fit's residual there. At n > 2k the tail is
    the slow-manifold series' arc (``manifold``), whose samples carry the
    steady law s (gamma - x) -> x_B/2 = 1/(1-m) itself, so the fit agrees
    with the prediction by construction there; ``manifold.defect`` checks
    the arc against the field.

    The agreement with ``expected_rate`` checks nothing on two orbit types
    and one end: on expanders it is the asymptote tolerance asym_tol (1e-5),
    where the run stops, on GeneralizedA orbits it is 0.0, because the
    prediction is read from x(s_end) itself, and on a certified_B end it is
    0 up to rounding, because the run stops at X = X_B, where x = x_B.

    A run that ended at the Picard hand-off on a funnel certificate has no
    tail span: its trace stops at s0, long before x nears x_B, and the
    DomainError says so.
    """
    if orbit_class.diagnostics.get("criterion") == "funnel":
        raise DomainError(
            "the run ended at the Picard hand-off on a funnel certificate: "
            "no tail span to read a decay rate from"
        )
    s, x = samples.s, samples.x
    if s[-1] - s[0] < MIN_TAIL_SPAN or s[-1] <= 1.0:
        raise DomainError(
            f"tail span {s[-1] - s[0]:.2f} too short to read a decay rate; increase s_max"
        )
    limit, log_power = float(x[-1]), None
    if orbit_class.kind == orbit_mod.TYPE_GAMMA and p.rho == 0.0:
        s_end = float(s[-1])
        log_power, y_end = log_power_fit(s, samples.X, p, s_end)
        limit += y_end / s_end
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


Z_RATE_POINTS = 65  # equally spaced points of the Z-rate fit


def z_tail_rate(trace, p, span=5.0):
    """Least-squares slope of ln Z over the last ``span`` units of s, read at
    Z_RATE_POINTS equally spaced points off the cubic Hermite in ln Z
    (``orbit.hermite``), with the slopes G/Z of the field at the samples:
    the integrator's interpolant, which the samples keep within
    ``_kernels.SAMPLE_TOL``. The fit then does not depend on where the
    integrator put its steps: a stiff tail's Radau steps are up to
    ``_kernels.MAX_STEP`` long, and DOP853's crowd where it slows down."""
    s, X, Z = trace.s, trace.X, trace.Z
    i0 = int(np.searchsorted(s, s[-1] - span, side="right")) - 1
    if i0 < 0 or not np.all(Z[i0:] > 0.0):
        raise DomainError("the trace does not cover the Z-rate window with Z > 0")
    s, X, Z = s[i0:], X[i0:], Z[i0:]
    _F, G = phase.vector_field(X, Z, p)
    grid = np.linspace(s[-1] - span, s[-1], Z_RATE_POINTS)
    coef = np.polyfit(grid, orbit_mod.hermite(s, np.log(Z), G / Z, grid), 1)
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

    Each piece between samples integrates 2 theta e^(ln Z / k), ln Z on the
    trace's interpolant (``orbit.hermite``), by 8-point Gauss-Legendre, exact
    to rounding: |(ln w)_s| <= 2 and pieces are at most about MAX_STEP long.
    phi is 0 at the first sample; the additive constant is immaterial.
    """
    good = trace.Z > 0.0
    s, Z = trace.s[good], trace.Z[good]
    w = phase.kth_root(Z, p.k)
    _F, G = phase.vector_field(trace.X[good], Z, p)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    h = np.diff(s)
    ln_z = orbit_mod.hermite(s, np.log(Z), G / Z, s[:-1, None] + np.outer(h, 0.5 + 0.5 * nodes))
    phi = 2.0 * p.theta * np.concatenate(([0.0], np.cumsum(np.exp(ln_z / p.k) @ weights * h / 2)))
    return PotentialTable(s=s, phi=phi, phi_s=2.0 * p.theta * w, w=w)


def potential_identity_residual(table, p):
    """Defect of phi_ss - w_s phi_s/(2w) = (sigma_k^(1/k) - rho) w.

    With phi_s = 2 theta w this reduces to theta w_s = (sigma_k^(1/k) - rho) w;
    w_s is analytic ((1/k) w (ln Z)_s) and sigma_k is evaluated from the
    eigenvalues of the reconstructed ``table`` in the metric gauge.
    """
    lam1, lam2 = schouten_pair(table.u, table.u_r, table.u_rr, table.r, p.n, p.k)
    bracket, cond = sigma_l_bracket(lam1, lam2, p.n, p.k)
    # sigma_k = lambda2^(k-1) bracket cancels (like Z on axis-bound tails,
    # the eigenvalues O(1/r^2)): only rows with a well-conditioned bracket
    # are verifiable. The product underflows at k >= 3 near B, so its sign
    # is read off the factors and its root taken in logs
    good = (np.sign(lam2) ** (p.k - 1) * bracket > 0.0) & (lam2 != 0.0) & (cond < 1e4)
    u, Z, X = table.u[good], table.Z[good], table.X[good]
    w = phase.kth_root(Z, p.k)
    _F, G = phase.vector_field(X, Z, p)
    w_s = w * (G / Z) / p.k
    ln_sig = (p.k - 1) * np.log(np.abs(lam2[good])) + np.log(bracket[good])
    # metric-gauge sigma_k^(1/k): the Euclidean-gauge eigenvalues carry u^(1-m)
    sig_root = np.exp(ln_sig / p.k) / u ** (1.0 - p.m)
    lhs = p.theta * w_s
    rhs = (sig_root - p.rho) * w
    # both sides vanish together whenever the orbit crosses X = X_B
    # (w_s = 0 there forces sigma^(1/k) = rho); normalize by the term scale
    scale = p.theta * np.abs(w_s) + (sig_root + abs(p.rho)) * w + 1e-300
    return float(np.max(np.abs(lhs - rhs) / scale))


@dataclass(frozen=True)
class FlowSolution:
    """Evaluator for the self-similar flow snapshot at one time t. Past the
    table's first radius r0 the profile is read off the trace's interpolant
    (``orbit.hermite``) of ln u, slopes ((G/Z)/k - 2)/(1 - m); below it, off
    the origin expansion, the table's ``origin_fit`` in (r/r0)^2, which meets
    the table at r0 and is u(0) at r = 0."""

    kind: str  # shrinker / expander / steady
    amplitude: float
    eta_scale: float  # |x| is multiplied by this before interpolation
    table: ProfileTable

    def __call__(self, radii):
        radii = np.asarray(radii, dtype=float)
        eta = np.abs(radii) * self.eta_scale
        tab, p = self.table, self.table.params
        s, X, Z = tab.samples.s, tab.samples.X, tab.samples.Z
        if np.any(eta > np.exp(s[-1])):
            raise DomainError("requested radius outside the profile range")
        ln_eta = np.clip(np.log(np.maximum(eta, 1e-300)), s[0], s[-1])
        _F, G = phase.vector_field(X, Z, p)
        slopes = ((G / Z) / p.k - 2.0) / (1.0 - p.m)
        vals = np.exp(orbit_mod.hermite(s, tab.ln_u_full, slopes, ln_eta))
        r0 = math.exp(self.table.s[0])
        small = eta < r0
        if np.any(small):
            t = (np.minimum(eta, r0) / r0) ** 2
            vals = np.where(small, np.polynomial.polynomial.polyval(t, self.table.origin_fit), vals)
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
