"""Local existence by contraction mapping: the unique orbit leaving the
origin, and its mirror converging to the corner point A.

The integral operator acts on pairs (X, Z) over (-inf, s0] stored in
weighted form wX = e^(-2ks) X, wZ = e^(-2ks) Z. The admissible function
space demands

    alpha_k/2 <= wX <= 2 alpha_k,   n alpha_k/(2 f(0)) <= wZ <= 2 n alpha_k/f(0)

with alpha_k = alpha^((1-m)k). The same machinery solves the mirrored
problem at A: reversing s turns the A-chart system into the origin system
with f replaced by h; everything below reads the profile from p's chart.

Normalization note: the operator pins the weighted X-limit to alpha_k, which
forces the weighted Z-limit to n alpha_k / f(0) (the slow eigendirection is
(1, n/f(0))). The reconstructed conformal factor then has
u(0) = (n alpha_k / f(0))^(1/((1-m)k)), exposed as ``u0``.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError, NotApplicableError, ParameterError
from .phase import kth_root, profile_slope, profile_value, vector_field

GRID_POINTS = 512
WINDOW_FACTOR = 12.0  # s_min = s0 - WINDOW_FACTOR/(2k)
DEFAULT_TOL = 1e-10
MAX_RETRIES = 8
MAX_SWEEPS = 200
RATE_LIMIT = 0.9
THRESHOLD_STEP = 0.5 * math.log(2.0)  # left step of a trial endpoint
MAX_THRESHOLD_STEPS = 2048  # to s ~ -710; e^(2s) is 0 in floats below s ~ -373


def alpha_weight(alpha, p):
    """alpha_k = alpha^((1-m)k), the weighted amplitude matching u(0)-scaling."""
    return alpha ** ((1.0 - p.m) * p.k)


def gauge(alpha, p):
    """c = ln(alpha_k)/(2k), the shift in s that alpha makes. The system is
    autonomous and the orbit leaving the origin is unique, so
    X(s; alpha) = X(s + c; 1)."""
    return math.log(alpha_weight(alpha, p)) / (2.0 * p.k)


def gauge_map(sol, alpha, p):
    """The LocalSolution of alpha, read off sol, the solution of the same
    parameter set at another alpha.

    With d = c(alpha) - c(sol.alpha) (see :func:`gauge`) and
    r = alpha_k / alpha_k(sol.alpha) = e^(2kd), alpha's orbit is sol's
    shifted by -d in s, so its weighted samples are sol's times r on sol's
    grid shifted by -d; the residual and the weighted limits scale by r too.
    The thresholds shift by -d. The contraction bound C of ``_constants``
    scales as alpha_k^(1/k) = e^(2c), and K1 as alpha_k^(1+1/k), so
    C e^(2 s0) and K1 e^(2 s0)/alpha_k, and with them the self-map and
    contraction inequalities, are sol's at the shifted s0. The contraction
    rate, iterations and retries are sol's; u0 is alpha's. alpha is checked
    as :func:`picard_solve` checks it.
    """
    check_alpha(alpha)
    d = gauge(alpha, p) - gauge(sol.alpha, p)
    r = alpha_weight(alpha, p) / alpha_weight(sol.alpha, p)
    tail, th = sol.tail, sol.thresholds
    return replace(
        sol,
        tail=WeightedTail(
            tail.s0 - d, tail.s_min - d, tail.grid - d, tail.X_samples * r, tail.Z_samples * r
        ),
        alpha=alpha,
        sup_residual=sol.sup_residual * r,
        thresholds=Thresholds(
            th.s1 - d, th.s2 - d, th.s3 - d, th.s0 - d, th.contraction_bound * math.exp(2.0 * d)
        ),
        weighted_limits=tuple(w * r for w in sol.weighted_limits),
        u0=_u0(alpha, p.in_chart(sol.chart)),
    )


def check_alpha(alpha):
    """Raise DomainError unless alpha lies in the supported range."""
    if not 1e-8 <= alpha <= 1e8:
        raise DomainError("alpha outside the supported range [1e-8, 1e8]")


def _u0(alpha, p):
    """u(0) of the profile at the origin; the A chart has none."""
    if p.chart != "XZ":
        return None
    return (p.n * alpha_weight(alpha, p) / p.profile0) ** (1.0 / ((1.0 - p.m) * p.k))


@dataclass(frozen=True)
class Thresholds:
    s1: float
    s2: float
    s3: float
    s0: float
    contraction_bound: float  # C such that the contraction constant is C e^(2 s0)


def _constants(alpha_k, p):
    """Explicit constants of the mapping and contraction estimates.

    All bounds are taken in the weighted sup norm; the mapped-image bounds
    give K1, K2 with |wE1 - alpha_k| <= K1 e^(2s), and the Lipschitz
    estimate gives C with ||E u - E v|| <= C e^(2 s0) ||u - v||.
    """
    n, k, m = p.n, p.k, p.m
    p0 = p.profile0
    y_max = p.picard_cap ** (1.0 / k)
    # numeric Lipschitz constant of the profile on [0, y_max], with margin
    M = 1.05 * float(np.max(np.abs(profile_slope(np.linspace(0.0, y_max, 1024), p))))
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
    return K1, K2, C


def thresholds(alpha, p):
    """The admissible right endpoints (s1, s2, s3) and s0 = min of the three.

    s1 keeps X below min(gamma^k, X_B) (closed form); s2 makes the operator
    map the space into itself; s3 makes it a contraction with constant
    below 1/2. s2 and s3 are found constructively by stepping a trial
    endpoint left until the explicit bounds hold, in at most
    MAX_THRESHOLD_STEPS steps (ConvergenceError beyond).
    """
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    alpha_k = alpha_weight(alpha, p)
    K1, K2, C = _constants(alpha_k, p)
    s1 = math.log(p.picard_cap / (2.0 * alpha_k)) / (2.0 * p.k)

    def step_left(name, fails):
        s = min(s1, 0.0)
        for _ in range(MAX_THRESHOLD_STEPS):
            if not fails(s):
                return s
            s -= THRESHOLD_STEP
        raise ConvergenceError(
            f"Picard thresholds: {name} not found in {MAX_THRESHOLD_STEPS} steps "
            f"(alpha {alpha:g}, s {s:.6g})"
        )

    s2 = step_left(
        "s2 (self-map)",
        lambda s: K1 * math.exp(2.0 * s) > alpha_k / 2.0
        or K2 * math.exp(2.0 * s) > p.n * alpha_k / (2.0 * p.profile0),
    )
    s3 = step_left("s3 (contraction)", lambda s: C * math.exp(2.0 * s) >= 0.5)
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


def affine_seed(alpha, p, s0, n_points=GRID_POINTS):
    """The seed tail: constant weighted values (alpha_k, n alpha_k / f(0)),
    with h(0) for f(0) in the A chart."""
    alpha_k = alpha_weight(alpha, p)
    s_min = s0 - WINDOW_FACTOR / (2.0 * p.k)
    grid = np.linspace(s_min, s0, n_points)
    return WeightedTail(
        s0,
        s_min,
        grid,
        np.full(n_points, alpha_k),
        np.full(n_points, p.n * alpha_k / p.profile0),
    )


def verify_membership(tail, alpha, p):
    """Pointwise check of the four weighted space bounds, with worst slack."""
    alpha_k = alpha_weight(alpha, p)
    wx, wz = tail.X_samples, tail.Z_samples
    slack_x = float(min(np.min(wx - alpha_k / 2.0), np.min(2.0 * alpha_k - wx)))
    zc = p.n * alpha_k / p.profile0
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
    samples g_j e^(-z xi_j). Exact for g = (cubic) * e^(mu tau).

    The weights depend on mu and h only through z = mu h; the operator
    reads them through the per-z cache of ``_stencil_weights``."""
    V = np.vander(offsets, 4, increasing=True)
    coef = np.linalg.solve(V.T @ V, V.T)  # exact 4x4 interpolation, solved stably
    w = _exp_moments(z) @ coef
    return w * np.exp(-z * offsets)


# node offsets of the first, interior and last interval's stencil
_STENCIL_OFFSETS = ((0.0, 1.0, 2.0, 3.0), (-1.0, 0.0, 1.0, 2.0), (-2.0, -1.0, 0.0, 1.0))


@functools.lru_cache
def _stencil_weights(z):
    """The first, interior and last stencil weights of ``_cumulative_product``
    for z = mu h, read-only. A solve sweeps one grid with two values of mu, so
    after its first sweep every lookup on that grid hits."""
    out = []
    for offsets in _STENCIL_OFFSETS:
        w = _product_weights(z, np.array(offsets))
        w.flags.writeable = False
        out.append(w)
    return tuple(out)


def _cumulative_product(y, h, mu):
    """Cumulative integral at every node of an integrand y(t) ~ (smooth) *
    e^(mu t); exponentially-fitted cubic product rule per interval.

    Plain cumulative Simpson leaves an O(h^3 mu^3) bias that dominates the
    fixed point's derivative defect; weighting the interpolation by the
    known exponential removes it. The weights depend only on z = mu h and
    are cached per z (``_stencil_weights``).
    """
    n = y.size
    w_first, w_mid, w_last = _stencil_weights(mu * h)
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


def apply_E(tail, alpha, p, check=True):
    """One application of the integral operator, weighted in and out.

    The integral over (-inf, s_min] uses the leading e^((2k+2)t) decay of
    the integrands in closed form; the rest is the exponentially fitted
    cumulative product rule on the uniform grid, with the exponential
    kernels evaluated exactly at nodes.
    """
    if check:
        rep = verify_membership(tail, alpha, p)
        if not rep.ok:
            raise DomainError(
                f"tail violates the weighted space bounds (slack X {rep.min_slack_X:.3e}, "
                f"Z {rep.min_slack_Z:.3e})"
            )
    n, k = p.n, p.k
    alpha_k = alpha_weight(alpha, p)
    p0 = p.profile0
    t = tail.grid
    h = t[1] - t[0]
    shift = t - tail.s_min
    ew = np.exp(2.0 * k * t)
    X = tail.X_samples * ew
    Z = tail.Z_samples * ew
    x = kth_root(X, k)

    F1 = k * p.m * X ** ((k + 1.0) / k) + Z * (profile_value(x, p) - p0)
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

    try:
        scale = math.exp(-2.0 * k * tail.s_min)
    except OverflowError:
        raise ConvergenceError(
            f"Picard tail: e^(-2k s_min) overflows (alpha {alpha:g}, s_min {tail.s_min:.6g})"
        ) from None
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

    def state_at_s0(self, p):
        """The hand-off to the global integrator in its chart: (X, W) at the
        right endpoint, W = ln(c_nk beta^k Z), -inf on the axis Z = 0. For
        the A-chart the pair is (W-, ln(c_nk beta^k V-)) at s = -s0. W is
        summed from logs of the weighted sample: the product c_nk beta^k Z
        underflows where both factors are tiny."""
        two_ks0 = 2.0 * p.k * self.tail.s0
        wz = float(self.tail.Z_samples[-1])
        w0 = math.log(p.cb) + math.log(wz) + two_ks0 if wz > 0.0 else -math.inf
        return self.tail.X_samples[-1] * math.exp(two_ks0), w0


def _picard(alpha, p, tol, n_points):
    check_alpha(alpha)
    th = thresholds(alpha, p)
    s0 = th.s0
    retries = 0
    while True:
        seed = affine_seed(alpha, p, s0, n_points)
        cur = seed
        prev_change = None
        rate_max = 0.0
        failed = False
        sweeps = 0
        for i in range(MAX_SWEEPS):
            nxt = apply_E(cur, alpha, p, check=False)
            if not verify_membership(nxt, alpha, p).ok:
                failed = True
                break
            change = float(
                max(
                    np.max(np.abs(nxt.X_samples - cur.X_samples)),
                    np.max(np.abs(nxt.Z_samples - cur.Z_samples)),
                )
            )
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

    final = apply_E(cur, alpha, p, check=False)
    residual = float(
        max(
            np.max(np.abs(final.X_samples - cur.X_samples)),
            np.max(np.abs(final.Z_samples - cur.Z_samples)),
        )
    )
    limits = _extrapolate_limit(cur)
    return LocalSolution(
        tail=cur,
        alpha=alpha,
        contraction_rate=rate_max,
        iterations=sweeps,
        sup_residual=residual,
        thresholds=Thresholds(th.s1, th.s2, th.s3, s0, th.contraction_bound),
        weighted_limits=limits,
        u0=_u0(alpha, p),
        chart=p.chart,
        retries=retries,
    )


def picard_solve(alpha, p, tol=DEFAULT_TOL, n_points=GRID_POINTS):
    """Construct the orbit leaving the origin for u(0)-parameter alpha.

    Iterates the operator from the affine seed until the weighted sup-norm
    change drops below tol, shifting s0 left (at most 8 times) if the
    empirical contraction rate reaches 0.9.
    """
    return _picard(alpha, p, tol, n_points)


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
    return _picard(alpha_bar, p.in_chart("WV"), tol, n_points)


def derivative_residual(sol, p):
    """Max pointwise defect of the tail against the differential system of
    its chart.

    Sixth-order Richardson extrapolation of centered differences on the
    uniform grid, compared with the analytic right-hand side.
    """
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

    F, G = vector_field(X[4:-4], Z[4:-4], p.in_chart(sol.chart))
    return float(max(np.max(np.abs(richardson(X) - F)), np.max(np.abs(richardson(Z) - G))))
