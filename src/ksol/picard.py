"""Local existence by contraction mapping: the unique orbit leaving the
origin, and its mirror converging to the corner point A.

The integral operator acts on pairs (X, Z) over (-inf, s0] stored in
weighted form wX = e^(-2ks) X, wZ = e^(-2ks) Z. The admissible function
space demands

    alpha_k/2 <= wX <= 2 alpha_k,   n alpha_k/(2 f(0)) <= wZ <= 2 n alpha_k/f(0)

with alpha_k = alpha^((1-m)k). The same machinery solves the mirrored
problem at A: reversing s turns the A-chart system into the origin system
with f replaced by h, so everything below is generic over that profile.

Normalization note: the operator pins the weighted X-limit to alpha_k, which
forces the weighted Z-limit to n alpha_k / f(0) (the slow eigendirection is
(1, n/f(0))). The reconstructed conformal factor then has
u(0) = (n alpha_k / f(0))^(1/((1-m)k)), exposed as ``u0``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NotApplicableError, ParameterError
from .phase import PROF_F, PROF_H, kth_root, profile_slope, profile_value, vector_field

GRID_POINTS = 512
WINDOW_FACTOR = 12.0  # s_min = s0 - WINDOW_FACTOR/(2k)
DEFAULT_TOL = 1e-10
MAX_RETRIES = 8
MAX_SWEEPS = 200
RATE_LIMIT = 0.9


def _prof0(p, prof):
    return p.f0 if prof == PROF_F else p.h0


def alpha_weight(alpha, p):
    """alpha_k = alpha^((1-m)k), the weighted amplitude matching u(0)-scaling."""
    return alpha ** ((1.0 - p.m) * p.k)


@dataclass(frozen=True)
class Thresholds:
    s1: float
    s2: float
    s3: float
    s0: float
    contraction_bound: float  # C such that the contraction constant is C e^(2 s0)


def _constants(alpha_k, p, prof):
    """Explicit constants of the mapping and contraction estimates.

    All bounds are taken in the weighted sup norm; the mapped-image bounds
    give K1, K2 with |wE1 - alpha_k| <= K1 e^(2s), and the Lipschitz
    estimate gives C with ||E u - E v|| <= C e^(2 s0) ||u - v||.
    """
    n, k, m = p.n, p.k, p.m
    p0 = _prof0(p, prof)
    cap_x = min(p.gamma_k, p.X_B) if prof == PROF_F else p.X_B
    y_max = cap_x ** (1.0 / k)
    # numeric Lipschitz constant of the profile on [0, y_max], with margin
    M = 1.05 * float(np.max(np.abs(profile_slope(np.linspace(0.0, y_max, 1024), p, prof))))
    two_ak = 2.0 * alpha_k
    zc = 2.0 * n * alpha_k / p0  # weighted Z upper bound
    # integrand amplitudes: |F1|, |G1| <= c e^((2k+2)t)
    c_G = k * (1.0 - m) * zc * two_ak ** (1.0 / k)
    c_F = abs(k * m) * two_ak ** ((k + 1.0) / k) + zc * M * two_ak ** (1.0 / k)
    K1 = (c_F + (p0 / n) * c_G) / (n + 2.0) + (p0 / n) * c_G / 2.0
    K2 = c_G / 2.0
    # Lipschitz coefficients against the weighted norm
    kappa = 1.0 / (k * (alpha_k / 2.0) ** ((k - 1.0) / k))
    l_G = k * (1.0 - m) * (zc * kappa + two_ak ** (1.0 / k))
    l_F = (
        abs(m) * (k + 1.0) * two_ak ** (1.0 / k)
        + zc * M * kappa
        + M * two_ak ** (1.0 / k)
    )
    C = max(
        l_G / 2.0,
        (l_F + (p0 / n) * l_G) / (n + 2.0) + (p0 / n) * l_G / 2.0,
    )
    return cap_x, M, K1, K2, C


def thresholds(alpha, p, prof=PROF_F):
    """The admissible right endpoints (s1, s2, s3) and s0 = min of the three.

    s1 keeps X below min(gamma^k, X_B) (closed form); s2 makes the operator
    map the space into itself; s3 makes it a contraction with constant
    below 1/2. s2 and s3 are found constructively by stepping a trial
    endpoint left until the explicit bounds hold.
    """
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    alpha_k = alpha_weight(alpha, p)
    p0 = _prof0(p, prof)
    cap_x, _M, K1, K2, C = _constants(alpha_k, p, prof)
    s1 = math.log(cap_x / (2.0 * alpha_k)) / (2.0 * p.k)

    step = 0.5 * math.log(2.0)
    s2 = min(s1, 0.0)
    while K1 * math.exp(2.0 * s2) > alpha_k / 2.0 or K2 * math.exp(2.0 * s2) > (
        p.n * alpha_k / (2.0 * p0)
    ):
        s2 -= step
    s3 = min(s1, 0.0)
    while C * math.exp(2.0 * s3) >= 0.5:
        s3 -= step
    s0 = min(s1, s2, s3)
    return Thresholds(s1, s2, s3, s0, C)


@dataclass(frozen=True)
class WeightedTail:
    """Weighted samples of an orbit tail on [s_min, s0].

    X_samples[j] = e^(-2k grid[j]) X(grid[j]) and likewise for Z; grid is
    uniform and strictly increasing with grid[-1] = s0.
    """

    s0: float
    s_min: float
    grid: np.ndarray
    X_samples: np.ndarray
    Z_samples: np.ndarray

    def unweighted(self, k):
        w = np.exp(2.0 * k * self.grid)
        return self.X_samples * w, self.Z_samples * w


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    min_slack_X: float
    min_slack_Z: float


def affine_seed(alpha, p, s0, prof=PROF_F, n_points=GRID_POINTS):
    """The seed tail: constant weighted values (alpha_k, n alpha_k / f(0))."""
    alpha_k = alpha_weight(alpha, p)
    s_min = s0 - WINDOW_FACTOR / (2.0 * p.k)
    grid = np.linspace(s_min, s0, n_points)
    p0 = _prof0(p, prof)
    return WeightedTail(
        s0,
        s_min,
        grid,
        np.full(n_points, alpha_k),
        np.full(n_points, p.n * alpha_k / p0),
    )


def verify_membership(tail, alpha, p, prof=PROF_F):
    """Pointwise check of the four weighted space bounds, with worst slack."""
    alpha_k = alpha_weight(alpha, p)
    p0 = _prof0(p, prof)
    wx, wz = tail.X_samples, tail.Z_samples
    slack_x = float(min(np.min(wx - alpha_k / 2.0), np.min(2.0 * alpha_k - wx)))
    zc = p.n * alpha_k / p0
    slack_z = float(min(np.min(wz - zc / 2.0), np.min(2.0 * zc - wz)))
    return MembershipReport(slack_x >= 0.0 and slack_z >= 0.0, slack_x, slack_z)


def _exp_moments(z):
    """m_j(z) = int_0^1 xi^j e^(z xi) d xi for j = 0..3, cancellation-safe."""
    if abs(z) <= 1.0:
        out = np.zeros(4)
        term = 1.0
        i = 0
        while True:
            contrib = np.array([term / (i + 1.0), term / (i + 2.0), term / (i + 3.0), term / (i + 4.0)])
            out += contrib
            if abs(term) < 1e-19:
                break
            i += 1
            term *= z / i
        return out
    ez = math.exp(z)
    m0 = (ez - 1.0) / z
    m1 = (ez * (z - 1.0) + 1.0) / z**2
    m2 = (ez * (z * z - 2.0 * z + 2.0) - 2.0) / z**3
    m3 = (ez * (z**3 - 3.0 * z * z + 6.0 * z - 6.0) + 6.0) / z**4
    return np.array([m0, m1, m2, m3])


def _product_weights(z, offsets):
    """Weights w with sum(w * g[stencil]) ~= (1/h) int over one interval of
    p(tau) e^(mu tau), where p is the cubic through the de-exponentiated
    samples g_j e^(-z xi_j). Exact for g = (cubic) * e^(mu tau)."""
    V = np.vander(offsets, 4, increasing=True)
    coef = np.linalg.solve(V.T @ V, V.T)  # exact 4x4 interpolation, solved stably
    w = _exp_moments(z) @ coef
    return w * np.exp(-z * offsets)


def _cumulative_product(y, h, mu):
    """Cumulative integral at every node of an integrand y(t) ~ (smooth) *
    e^(mu t); exponentially-fitted cubic product rule per interval.

    Plain cumulative Simpson leaves an O(h^3 mu^3) bias that dominates the
    fixed point's derivative defect; weighting the interpolation by the
    known exponential removes it.
    """
    n = y.size
    z = mu * h
    w_first = _product_weights(z, np.array([0.0, 1.0, 2.0, 3.0]))
    w_mid = _product_weights(z, np.array([-1.0, 0.0, 1.0, 2.0]))
    w_last = _product_weights(z, np.array([-2.0, -1.0, 0.0, 1.0]))
    inc = np.empty(n - 1)
    inc[0] = w_first @ y[:4]
    inc[1 : n - 2] = (
        w_mid[0] * y[0 : n - 3]
        + w_mid[1] * y[1 : n - 2]
        + w_mid[2] * y[2 : n - 1]
        + w_mid[3] * y[3:n]
    )
    inc[n - 2] = w_last @ y[n - 4 :]
    inc *= h
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def _tail_integral(vals, t, two_k, mu):
    """int_(-inf)^(s_min) e^(-lam (t - s_min)) vals(t) dt where the kernel
    exponent satisfies (2k+2) - lam = mu.

    vals decays like e^((2k+2)t); fitting b1 e^((2k+2)(t-s_min)) +
    b2 e^((2k+4)(t-s_min)) through two left-end nodes integrates in closed
    form to b1/mu + b2/(mu+2).
    """
    j = max(1, t.size // 8)
    delta = t[j] - t[0]
    e1 = math.exp((two_k + 2.0) * delta)
    e2 = math.exp((two_k + 4.0) * delta)
    b2 = (vals[j] - vals[0] * e1) / (e2 - e1)
    b1 = vals[0] - b2
    return b1 / mu + b2 / (mu + 2.0)


def apply_E(tail, alpha, p, prof=PROF_F, check=True):
    """One application of the integral operator, weighted in and out.

    The integral over (-inf, s_min] uses the leading e^((2k+2)t) decay of
    the integrands in closed form; the rest is cumulative Simpson on the
    uniform grid with the exponential kernels evaluated exactly at nodes.
    """
    if check:
        rep = verify_membership(tail, alpha, p, prof)
        if not rep.ok:
            raise DomainError(
                f"tail violates the weighted space bounds (slack X {rep.min_slack_X:.3e}, "
                f"Z {rep.min_slack_Z:.3e})"
            )
    n, k = p.n, p.k
    alpha_k = alpha_weight(alpha, p)
    p0 = _prof0(p, prof)
    t = tail.grid
    h = t[1] - t[0]
    shift = t - tail.s_min
    ew = np.exp(2.0 * k * t)
    X = tail.X_samples * ew
    Z = tail.Z_samples * ew
    x = kth_root(X, k)

    F1 = k * p.m * X ** ((k + 1.0) / k) + Z * (profile_value(x, p, prof) - p0)
    G1 = -k * (1.0 - p.m) * Z * x
    P1 = F1 - (p0 / n) * G1

    g1 = P1 * np.exp(-(2.0 * k - n) * shift)
    g2 = G1 * np.exp(-2.0 * k * shift)
    # the integrands decay like e^((2k+2)t), so g1 ~ e^((n+2) shift) and
    # g2 ~ e^(2 shift); the product rule is fitted to those exponentials
    C1 = _cumulative_product(g1, h, n + 2.0)
    C2 = _cumulative_product(g2, h, 2.0)
    # analytic tails over (-inf, s_min]: two-term exponential model
    # b1 e^((2k+2)(t-s_min)) + b2 e^((2k+4)(t-s_min)) fitted at two nodes,
    # integrated against the kernels in closed form
    T1 = _tail_integral(P1, t, 2.0 * k, n + 2.0)
    T2 = _tail_integral(G1, t, 2.0 * k, 2.0)

    scale = math.exp(-2.0 * k * tail.s_min)
    A1 = np.exp(-n * shift) * (T1 + C1)
    A2 = T2 + C2
    wE1 = alpha_k + scale * (A1 + (p0 / n) * A2)
    wE2 = n * alpha_k / p0 + scale * A2
    return WeightedTail(tail.s0, tail.s_min, t, wE1, wE2)


def _extrapolate_limit(tail):
    """Limit of the weighted samples as s -> -inf.

    The corrections form a power series in e^(2s); interpolating
    w = a + sum_j c_j e^(2js), j = 1..3, at four nodes near s_min leaves
    an O(e^(8 s_min)) error in a.
    """
    n = tail.grid.size
    idx = [0, n // 8, n // 4, 3 * n // 8]
    s = tail.grid[idx]
    V = np.column_stack([np.exp(2.0 * j * s) for j in range(4)])
    out = []
    for w in (tail.X_samples, tail.Z_samples):
        out.append(float(np.linalg.solve(V, w[idx])[0]))
    return tuple(out)


@dataclass(frozen=True)
class LocalSolution:
    """A converged fixed point of the tail operator with its certificate."""

    tail: WeightedTail
    alpha: float
    contraction_rate: float
    iterations: int
    sup_residual: float
    thresholds: Thresholds
    weighted_limits: tuple
    u0: float | None
    chart: str = "XZ"
    retries: int = 0
    first_sweep_change: float = 0.0

    def state_at_s0(self, p):
        """Unweighted (X, Z) at the right endpoint, the hand-off to the
        global integrator. For the A-chart the pair is (W, V) at s = -s0."""
        w = math.exp(2.0 * p.k * self.tail.s0)
        return self.tail.X_samples[-1] * w, self.tail.Z_samples[-1] * w


def _picard(alpha, p, tol, prof, n_points):
    if not 1e-8 <= alpha <= 1e8:
        raise DomainError("alpha outside the supported range [1e-8, 1e8]")
    th = thresholds(alpha, p, prof)
    s0 = th.s0
    retries = 0
    while True:
        seed = affine_seed(alpha, p, s0, prof, n_points)
        cur = seed
        prev_change = None
        rate_max = 0.0
        first_change = 0.0
        failed = False
        sweeps = 0
        for i in range(MAX_SWEEPS):
            nxt = apply_E(cur, alpha, p, prof, check=False)
            if not verify_membership(nxt, alpha, p, prof).ok:
                failed = True
                break
            change = float(
                max(
                    np.max(np.abs(nxt.X_samples - cur.X_samples)),
                    np.max(np.abs(nxt.Z_samples - cur.Z_samples)),
                )
            )
            if i == 0:
                first_change = change
            if prev_change is not None and prev_change > 0.0:
                rate = change / prev_change
                rate_max = max(rate_max, rate)
                if rate >= RATE_LIMIT:
                    failed = True
                    break
            prev_change = change
            cur = nxt
            sweeps = i + 1
            if change < tol:
                break
        else:
            failed = True
        if not failed and prev_change is not None and prev_change < tol:
            break
        retries += 1
        if retries > MAX_RETRIES:
            raise ConvergenceError(
                f"contraction failed after {MAX_RETRIES} retries (rate {rate_max:.3f})"
            )
        s0 -= 0.5 * math.log(2.0)

    final = apply_E(cur, alpha, p, prof, check=False)
    residual = float(
        max(
            np.max(np.abs(final.X_samples - cur.X_samples)),
            np.max(np.abs(final.Z_samples - cur.Z_samples)),
        )
    )
    limits = _extrapolate_limit(cur)
    p0 = _prof0(p, prof)
    if prof == PROF_F:
        u0 = (p.n * alpha_weight(alpha, p) / p0) ** (1.0 / ((1.0 - p.m) * p.k))
    else:
        u0 = None
    return LocalSolution(
        tail=cur,
        alpha=alpha,
        contraction_rate=rate_max,
        iterations=sweeps,
        sup_residual=residual,
        thresholds=Thresholds(th.s1, th.s2, th.s3, s0, th.contraction_bound),
        weighted_limits=limits,
        u0=u0,
        chart="XZ" if prof == PROF_F else "WV",
        retries=retries,
        first_sweep_change=first_change,
    )


def picard_solve(alpha, p, tol=DEFAULT_TOL, n_points=GRID_POINTS):
    """Construct the orbit leaving the origin for u(0)-parameter alpha.

    Iterates the operator from the affine seed until the weighted sup-norm
    change drops below tol, shifting s0 left (at most 8 times) if the
    empirical contraction rate reaches 0.9.
    """
    return _picard(alpha, p, tol, PROF_F, n_points)


def picard_solve_at_A(alpha_bar, p, tol=DEFAULT_TOL, n_points=GRID_POINTS):
    """Mirrored construction at A: the orbit converging to (X_A, 0).

    Reversing s turns the A-chart system into the origin system with f
    replaced by h, so the fixed point is built in sigma = -s on
    (-inf, sigma0] and read backwards. Requires rho > 2 theta so that
    h(0) > 0; rho = 2 theta is degenerate (nu = 0 kills the eigendirection).
    """
    if p.rho < 2.0 * p.theta:
        raise NotApplicableError("orbit at A requires rho >= 2 theta")
    if p.rho == 2.0 * p.theta:
        raise ParameterError("rho = 2 theta is degenerate: h(0) = 0")
    return _picard(alpha_bar, p, tol, PROF_H, n_points)


def derivative_residual(sol, p, prof=None):
    """Max pointwise defect of the tail against the differential system.

    Sixth-order Richardson extrapolation of centered differences on the
    uniform grid, compared with the analytic right-hand side.
    """
    if prof is None:
        prof = PROF_F if sol.chart == "XZ" else PROF_H
    tail = sol.tail
    X, Z = tail.unweighted(p.k)
    h = tail.grid[1] - tail.grid[0]

    def central(y, stride):
        return (y[2 * stride :] - y[: -2 * stride]) / (2.0 * stride * h)

    def richardson(y):
        d1 = central(y, 1)[3:-3]
        d2 = central(y, 2)[2:-2]
        d4 = central(y, 4)
        ra = (4.0 * d1 - d2) / 3.0
        rb = (4.0 * d2 - d4) / 3.0
        return (16.0 * ra - rb) / 15.0

    F, G = vector_field(X[4:-4], Z[4:-4], p, prof)
    return float(max(np.max(np.abs(richardson(X) - F)), np.max(np.abs(richardson(Z) - G))))
