"""Local existence: the unique orbit leaving the origin, and its mirror
converging to the corner point A, as validated power series in tau = e^(2s).

With x = X^(1/k), x = sum_{j>=1} a_j tau^j and Z = tau^k sum_{j>=0} b_j tau^j,
a_1 = alpha_k^(1/k), b_0 = n alpha_k / f(0), alpha_k = alpha^((1-m)k). By
(ln Z)_s = 2k (1 - x/x_B), 2j b_j = -(2k/x_B) sum_{i=1..j} a_i b_{j-i}; by
x_s = -(n-2k) q x / k + Z f(x) / (k x^(k-1)), q = 1 - x/x_A, (2j + n - 2) a_j
is the tau^j coefficient of the right side formed with a_j = 0: an explicit
recursion with no resonance, by the O(N^2) recurrences for products,
quotients and powers of series (Jorba & Zou, *Exp. Math.* 14, 2005).

The truncation at N terms is validated on coefficient space (van den Berg &
Lessard, *Notices AMS* 62, 2015). With y = x/tau and Y = Z/tau^k, the omitted
tail of (y, Y) is the fixed point of the recursion itself, an operator T on
tails in the norm sum |c_j| tau0^j, which bounds a series on |tau| <= tau0.
T is lower triangular in the order, so its iterates reach the tail
coefficient by coefficient, and a ball T maps into itself holds it. The
Lipschitz matrix L of T on a trial ball, from its multipliers carried as
polynomials plus a norm bound of the rest, gives such a ball,
r = (I - L)^(-1) T(0). The hand-off s0 is the largest s <= s1, the box edge,
where that bound meets HAND_OFF_TOL * tol relative to X and Z; with the
coefficients' rounding it is the hand-off's ``err``.

alpha only shifts s (:func:`gauge`): the series is built once, at alpha_k = 1,
in u = e^(2(s - s0)), where every alpha has the same coefficients, and
:func:`gauge_map` alone moves it to an alpha. Reversing s turns the A-chart
system into the origin system with f replaced by h, so the same code, reading
the profile's numerator num_a + num_b x from p's chart, builds the orbit at A.
The weighted limits of (X, Z) e^(-2ks) are alpha_k and n alpha_k / f(0), and
``u0`` is u(0) = (n alpha_k / f(0))^(1/((1-m)k)).
"""

import math
import sys
from dataclasses import dataclass, replace
from operator import mul

import numpy as np

from .errors import ConvergenceError, DomainError, NotApplicableError, ParameterError
from .phase import vector_field

GRID_POINTS = 512  # samples of the head below s0 in a trace
WINDOW_FACTOR = 12.0  # the head spans s0 - WINDOW_FACTOR/(2k) to s0
DEFAULT_TOL = 1e-10
HAND_OFF_TOL = 1e-2  # the hand-off's bound meets HAND_OFF_TOL * tol
MAX_TERMS = 24  # the cap on the order N
MAX_TRIALS = 64  # validated hand-offs tried before a ConvergenceError
SAFETY = 8.0  # the next terms' share of tol when N is chosen
_EPS = np.finfo(float).eps


def alpha_weight(alpha, p):
    """alpha_k = alpha^((1-m)k), the weighted amplitude matching u(0)-scaling.
    It checks alpha's range: DomainError outside [1e-8, 1e8], and where
    alpha_k underflows to 0 or it or the weighted Z limit n alpha_k / f(0)
    (h(0) at A) overflows, which at n = 64 narrows the range from k = 37 on;
    the message names the range that p can use."""
    if not 1e-8 <= alpha <= 1e8:
        raise DomainError("alpha outside the supported range [1e-8, 1e8]")
    e, b0 = (1.0 - p.m) * p.k, max(1.0, p.n / p.profile0)
    try:
        alpha_k = alpha**e
        if 0.0 < alpha_k and alpha_k * b0 < math.inf:
            return alpha_k
    except OverflowError:
        pass
    # the ends (alpha^e is 0 below half the least float), moved well inward
    lo = max(1e-8, 2.0 ** (-1075.0 / e) * (1.0 + 1e-4))
    hi = min(1e8, (sys.float_info.max / b0) ** (1.0 / e) * (1.0 - 1e-4))
    raise DomainError(
        f"alpha {alpha:g} is outside [{lo:.6g}, {hi:.6g}], the range usable at (n, k, rho) = "
        f"({p.n}, {p.k}, {p.rho:g}), where alpha^{e:.6g} and the weighted limits are floats"
    )


def gauge(alpha, p):
    """c = ln(alpha_k)/(2k), the shift in s that alpha makes. The system is
    autonomous and the orbit leaving the origin is unique, so
    X(s; alpha) = X(s + c; 1)."""
    return math.log(alpha_weight(alpha, p)) / (2.0 * p.k)


def gauge_map(sol, alpha, p):
    """The LocalSolution of alpha, read off sol, the solution of the same
    parameter set at another alpha; the one map between alphas.

    With d = c(alpha) - c(sol.alpha) (see :func:`gauge`), alpha's orbit is
    sol's shifted by -d in s: a_j scales by e^(2dj) and b_j by e^(2d(j+k)),
    which leaves the coefficients in u = e^(2(s - s0)) as they are once s0
    moves by -d. The hand-off is the same state, with the same bound; the
    weighted limits are the unit gauge's times alpha_k, with no ratio of two
    alpha_k, which underflows where the alphas span more than the float
    range, and u0 is alpha's u(0) (none in the A chart). alpha is checked by
    :func:`alpha_weight`.
    """
    alpha_k = alpha_weight(alpha, p)
    d = gauge(alpha, p) - gauge(sol.alpha, p)
    return replace(
        sol,
        s0=sol.s0 - d,
        alpha=alpha,
        weighted_limits=tuple(w * alpha_k for w in sol.unit_limits),
        u0=(p.n * alpha_k / p.f0) ** (1.0 / ((1.0 - p.m) * p.k)) if sol.chart == "XZ" else None,
    )


def box_edge(alpha, p):
    """s1, where the leading term alpha_k e^(2ks) of X is half the box's
    cap min(gamma^k, X_B) (X_B in the A chart); the hand-off lies at or
    left of it."""
    return math.log(p.picard_cap / (2.0 * alpha_weight(alpha, p))) / (2.0 * p.k)


@dataclass(frozen=True)
class LocalSolution:
    """The orbit below its hand-off s0 as a truncated series, with the
    certificate of its validation.

    With u = e^(2(s - s0)), x = sum_j x_coef[j] u^j and
    Z = e^(log_z0) u^k sum_j z_coef[j] u^j (z_coef[0] = 1). ``err`` bounds
    the distance of the hand-off (X, Z) from the orbit in both, ``terms``
    is N, ``sup_residual`` the relative size of T(0), the first omitted
    terms, and ``contraction_rate`` T's Lipschitz constant on the ball.
    ``iterations`` counts the validations, ``retries`` the hand-offs they
    refused. ``unit_limits`` are the weighted limits at alpha_k = 1.
    """

    s0: float
    k: int
    x_coef: np.ndarray
    z_coef: np.ndarray
    log_z0: float
    alpha: float
    contraction_rate: float
    iterations: int
    sup_residual: float
    err: float
    terms: int
    weighted_limits: tuple
    unit_limits: tuple
    u0: float | None
    chart: str = "XZ"
    retries: int = 0
    # the head's X and Z (see :meth:`head`), the same for every alpha
    head_X: np.ndarray | None = None
    head_Z: np.ndarray | None = None

    def state(self, s):
        """(X, Z) on the series at s <= s0; floats or arrays."""
        u = np.exp(2.0 * (np.asarray(s, dtype=float) - self.s0))
        x = np.polynomial.polynomial.polyval(u, self.x_coef)
        z = np.polynomial.polynomial.polyval(u, self.z_coef)
        return x**self.k, np.exp(self.log_z0 + 2.0 * self.k * (s - self.s0)) * z

    def head(self):
        """The trace's samples below s0: (s, X, Z) on GRID_POINTS - 1 uniform
        points of [s0 - WINDOW_FACTOR/(2k), s0)."""
        return self.s0 + _head_offsets(self.k), self.head_X, self.head_Z

    def state_at_s0(self, p):
        """The hand-off to the global integrator in its chart: (X, W) at s0,
        W = ln(c_nk beta^k Z), -inf on the axis Z = 0. For the A-chart the
        pair is (W-, ln(c_nk beta^k V-)) at s = -s0. W is summed from logs:
        the product c_nk beta^k Z underflows where both factors are tiny."""
        x = float(np.sum(self.x_coef))
        z = float(np.sum(self.z_coef))
        w0 = math.log(p.cb) + self.log_z0 + math.log(z) if z > 0.0 else -math.inf
        return x**self.k, w0


def _head_offsets(k):
    return np.linspace(-WINDOW_FACTOR / (2.0 * k), 0.0, GRID_POINTS)[:-1]


def product(a, b):
    """The order-j coefficient sum_i a_i b_(j-i) of the product of two
    series, a and b holding their orders 0 .. j."""
    return sum(map(mul, a, reversed(b)))


def quotient(num_j, den, quo):
    """The order-j coefficient of quo = num/den, (num_j - sum_(i<j) quo_i
    den_(j-i)) / den_0, with num_j num's, den holding orders 0 .. j and quo
    orders 0 .. j-1."""
    return (num_j - sum(map(mul, quo, reversed(den[1:])))) / den[0]


def power(base, pw, e):
    """The order-j coefficient (j >= 1) of pw = base^e, e an integer,
    base_0 != 0, base holding orders 0 .. j and pw orders 0 .. j-1:
    j base_0 pw_j = sum_(i<j) (e (j - i) - i) base_(j-i) pw_i, from
    pw' base = e base' pw."""
    j = len(pw)
    weights = range(e * j, -j, -e - 1)
    return sum(map(mul, map(mul, weights, reversed(base[1:])), pw)) / (j * base[0])


def _coefficients(p, order):
    """(y, b, ey, eb) at alpha_k = 1: y[j] = a_(j+1) for j < order, b[j]
    for j <= order, and estimates ey, eb of their rounding.

    Order j forms b_j, then the tau^j coefficient of phi = (x_s right
    side)/tau with y_j = 0 through m = q y, v = (num_a + num_b x)/m,
    w = v^(k-1), nw = num w and phi = -(n-2k)/k m + (c_nk beta^k/k) b nw;
    phi's y_j-coefficient is 2 - n, so y_j = phi_j / (2j + n), and m_j to
    nw_j then take y_j's share. The orders are few and sequential, so plain
    floats serve. y_j's rounding estimate is (j + 2) eps times the size of
    the terms it sums, four times over for the series they come from; b_j's
    carries y's and its own through its linear recursion; both take num_a's
    rounding (y_j is about j-fold sensitive) and b_0's. A bound carried
    through the whole recursion (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 3.3) grows like the series of the terms' sizes,
    and exceeds alternating coefficients within ten orders.
    """
    n, k = p.n, p.k
    c_m, c_p = -(n - 2.0 * k) / k, p.cb / k
    y, b = [1.0], [n / p.profile0]
    m, num, v = [1.0], [p.num_a], [p.num_a]
    w = [p.num_a ** (k - 1)]
    nw = [p.num_a * w[0]]
    for j in range(1, order + 1):
        b.append(-(k / (j * p.x_B)) * product(y, b))
        if j == order:
            break
        m.append(-product(y, y) / p.x_A)
        num.append(p.num_b * y[j - 1])
        v.append(quotient(num[j], m, v))
        w.append(power(v, w, k - 1))
        nw.append(product(num, w))
        y.append((c_m * m[j] + c_p * product(b, nw)) / (2.0 * j + n))
        dw = -(k - 1.0) * w[0] * y[j]
        m[j] += y[j]
        v[j] -= v[0] * y[j]
        w[j] += dw
        nw[j] += num[0] * dw
    y, b = np.array(y), np.array(b)
    ay, ab, j = np.abs(y), np.abs(b), np.arange(1, order)
    # the relative rounding of num_a (nu = gamma - x_A cancels in the A
    # chart), and that of b_0 = n / f(0), f(0) some 3k + 10 operations
    d_num = _EPS * (4.0 * abs(p.gamma) + abs(p.num_a - p.gamma)) / abs(p.num_a)
    terms = abs(c_m) * np.convolve(ay, ay)[: order - 1] / p.x_A
    terms += abs(c_p) * np.convolve(ab[:order], np.abs(nw))[1:order]
    ey = np.zeros(order)
    ey[1:] = 4.0 * (j + 2.0) * _EPS * terms / (2.0 * j + n) + (j + 1.0) * d_num * ay[1:]
    t_b, carried = np.convolve(ay, ab), np.convolve(ey, ab)
    eb = np.zeros(order + 1)
    eb[0] = ((3.0 * k + 12.0) * _EPS + k * d_num) * b[0]
    for i in range(1, order + 1):
        eb[i] = k / (i * p.x_B) * ((i + 2.0) * _EPS * t_b[i - 1] + carried[i - 1] + ay[:i] @ eb[i - 1 :: -1])
    return y, b, ey, eb


class _Balls:
    """Series on |tau| <= nu in the norm ||c|| = sum |c_j| nu^j, as balls
    (c, e): a polynomial of degree <= M plus any series of norm <= e. The
    arithmetic is in floats; ``tests/test_oracle.py`` redoes it in
    intervals."""

    def __init__(self, nu, M):
        self.M = M
        self.w = nu ** np.arange(2 * M + 1)
        self.nu = nu

    def norm(self, c, start=0):
        """The norm of c read as the orders start, start + 1, ..."""
        return float(np.abs(c) @ self.w[start : start + c.size])

    def ball(self, c, e=0.0):
        out = np.zeros(self.M + 1)
        out[: np.size(c)] = c
        return out, e

    @staticmethod
    def lin(*terms):
        """sum of coefficient * ball."""
        c = sum(s * t[0] for s, t in terms)
        return c, sum(abs(s) * t[1] for s, t in terms)

    def shift(self, a):
        """tau a."""
        c, e = a
        return np.concatenate(([0.0], c[:-1])), self.nu * (e + abs(c[-1]) * self.w[self.M])

    def mul(self, a, b):
        (ca, ea), (cb, eb) = a, b
        full = np.convolve(ca, cb)
        na, nb = self.norm(ca), self.norm(cb)
        e = self.norm(full[self.M + 1 :], self.M + 1) + na * eb + ea * nb + ea * eb
        return full[: self.M + 1], e

    def power(self, a, exponent):
        out = None
        for bit in bin(exponent)[2:]:
            if out is not None:
                out = self.mul(out, out)
            if bit == "1":
                out = a if out is None else self.mul(out, a)
        return self.ball(1.0) if out is None else out

    def inverse(self, a):
        """1/a, or None where the ball holds no invertible series: with P
        the reciprocal polynomial and D = 1 - a P, 1/a = P/(1 - D) lies
        within ||P|| ||D|| / (1 - ||D||) of P."""
        c = a[0]
        inv = np.array([1.0 / c[0]])
        while inv.size < c.size:
            size = min(2 * inv.size, c.size)
            ci = np.convolve(c[:size], inv)[:size]
            inv = np.concatenate((2.0 * inv, np.zeros(size - inv.size))) - np.convolve(inv, ci)[:size]
        dc, de = self.mul(a, (inv, 0.0))
        dc = -dc
        dc[0] += 1.0
        rho = self.norm(dc) + de
        if not rho < 1.0:
            return None
        return inv, self.norm(inv) * rho / (1.0 - rho)


def _field(balls, y, B, p, multipliers=False):
    """Balls of phi = (x_s right side)/tau at (y, Y = B) and of its
    multiplier M_B = d phi/dY; with ``multipliers``, those of
    M_y = d phi/dy + (n - 2) and M_B. None where a reciprocal fails. M_y
    has no constant term: y_j's share of phi_j is 2 - n."""
    n, k = p.n, p.k
    c_m, c_p = -(n - 2.0 * k) / k, p.cb / k
    one = balls.ball(1.0)
    tau, x = balls.shift(one), balls.shift(y)
    m = balls.lin((1.0, y), (-1.0 / p.x_A, balls.mul(x, y)))
    im = balls.inverse(m)
    if im is None:
        return None
    num = balls.lin((p.num_a, one), (p.num_b, x))
    v = balls.mul(num, im)
    vk2 = balls.power(v, k - 2) if k >= 2 else None
    w = balls.mul(vk2, v) if k >= 2 else one
    nw = balls.mul(num, w)
    M_B = balls.lin((c_p, nw))
    if not multipliers:
        return balls.lin((c_m, m), (c_p, balls.mul(B, nw))), M_B
    # d/dy: m' = 1 - 2x/x_A, v' = (num_b tau - v m')/m, w' = (k-1) v^(k-2) v'
    dm = balls.lin((1.0, one), (-2.0 / p.x_A, x))
    dnw = balls.lin((p.num_b, balls.shift(w)))
    if k >= 2:
        dv = balls.mul(balls.lin((p.num_b, tau), (-1.0, balls.mul(v, dm))), im)
        dnw = balls.lin((1.0, dnw), (k - 1.0, balls.mul(num, balls.mul(vk2, dv))))
    M_y = balls.lin((c_m, dm), (c_p, balls.mul(B, dnw)), (n - 2.0, one))
    return M_y, M_B


@dataclass(frozen=True)
class _Validation:
    err_x: float  # relative bounds on X and Z at the hand-off,
    err_z: float
    tail: float  # the truncation's share of them,
    defect: float  # T(0)'s size and
    rate: float  # T's Lipschitz constant


def _validate(y, b, nu, p, ey, eb):
    """The :class:`_Validation` at tau = nu of the truncation y (orders < N),
    b (orders <= N), with the rounding estimates ey, eb, or None where the
    trial ball does not hold the radii or T's Lipschitz constant on it, the
    spectral radius of L, exceeds 1/2. T(t) is (phi(y + t))_j / (2j + n) on
    the y-tail (orders >= N), -(k/(j x_B)) (tau y Y)_j on the Y-tail
    (orders >= N + 1). The lower orders' defect in the same equations, the
    recursion's rounding or a wrong coefficient, joins T(0).
    """
    n, k, N = p.n, p.k, y.size
    balls = _Balls(nu, 2 * N)
    yb, Bb = balls.ball(y), balls.ball(b)
    j = np.arange(balls.M + 1)
    norm_y, norm_b = balls.norm(y), balls.norm(b)
    # T(0): phi's orders >= N, and the tail of tau y Y
    point = _field(balls, yb, Bb, p)
    if point is None:
        return None
    phi = point[0]
    t_y = float(np.abs(phi[0][N:]) @ (balls.w[N : balls.M + 1] / (2.0 * j[N:] + n)))
    t_y += phi[1] / (2.0 * N + n)
    yB = np.convolve(y, b)
    jb = np.arange(N + 1, yB.size + 1)
    t_b = k / p.x_B * float(np.abs(yB[N:]) @ (balls.w[jb] / jb))
    low_y = np.abs(phi[0][:N] - (2.0 * j[:N] + 2.0) * y) @ (balls.w[:N] / (2.0 * j[:N] + n))
    low_b = np.abs(b[1:] + k / p.x_B * yB[:N] / j[1 : N + 1]) @ balls.w[1 : N + 1]
    T0 = np.array([t_y, t_b])
    low = np.array([low_y, low_b])
    gain_y, gain_b = 1.0 / (2.0 * N + n), k * nu / (p.x_B * (N + 1.0))

    def radii(M_y, M_B, trial):
        """r = (I - L)^(-1) T(0) with T's Lipschitz matrix L on the trial
        ball, which T maps into itself, and L's spectral radius."""
        L_yy = 0.0 if M_y is None else (balls.norm(M_y[0]) + M_y[1]) * gain_y
        L_yb = (balls.norm(M_B[0]) + M_B[1]) * gain_y
        L = np.array([[L_yy, L_yb], [gain_b * (norm_b + trial[1]), gain_b * (norm_y + trial[0])]])
        half = 0.5 * (L[0, 0] - L[1, 1])
        rate = 0.5 * (L[0, 0] + L[1, 1]) + math.sqrt(half * half + L[0, 1] * L[1, 0])
        if not rate < 1.0:
            return None, rate
        det = (1.0 - L[0, 0]) * (1.0 - L[1, 1]) - L[0, 1] * L[1, 0]
        return np.array([[1.0 - L[1, 1], L[0, 1]], [L[1, 0], 1.0 - L[0, 0]]]) @ (T0 + low) / det, rate

    # a trial ball twice the radii of T without its y-y block, which is
    # small: M_y has no constant term
    r, rate = radii(None, point[1], np.zeros(2))
    if r is None:
        return None
    trial = 2.0 * r + _EPS * np.array([norm_y, norm_b])
    spread = _field(balls, balls.ball(y, trial[0]), balls.ball(b, trial[1]), p, True)
    if spread is None:
        return None
    r, rate = radii(*spread, trial)
    if r is None or np.any(r > trial) or rate > 0.5:
        return None
    y_nu = float(np.polynomial.polynomial.polyval(nu, y))
    b_nu = float(np.polynomial.polynomial.polyval(nu, b))
    if not (y_nu > 0.0 and b_nu > 0.0):
        return None
    # with the coefficients' and the sums' rounding, and then X = x^k's
    round_y = (N + 2.0) * _EPS * norm_y + balls.norm(ey)
    round_b = (N + 3.0) * _EPS * norm_b + balls.norm(eb)
    rel_y = (r[0] + round_y) / y_nu
    rel_b = (r[1] + round_b) / b_nu
    return _Validation(
        err_x=math.expm1(k * math.log1p(rel_y)) + 2.0 * _EPS,
        err_z=rel_b,
        tail=max(k * r[0] / y_nu, r[1] / b_nu),
        defect=max(k * (T0[0] + low[0]) / y_nu, (T0[1] + low[1]) / b_nu),
        rate=rate,
    )


def _order(y, b, nu, k, tol):
    """The least N in [2, MAX_TERMS] whose largest omitted term at tau = nu,
    relative to the sum of the kept ones in X and Z, is below tol / SAFETY
    (None where none is), and that measure at MAX_TERMS."""
    ty = y * nu ** np.arange(y.size)
    tb = b * nu ** np.arange(b.size)
    # the largest term from each order on, and the partial sums
    ry = np.maximum.accumulate(np.abs(ty[::-1]))[::-1]
    rb = np.maximum.accumulate(np.abs(tb[::-1]))[::-1]
    N = np.arange(2, MAX_TERMS + 1)
    nxt = np.maximum(
        k * ry[N] / np.abs(np.cumsum(ty)[N - 1]), rb[N + 1] / np.abs(np.cumsum(tb)[N])
    )
    ok = np.flatnonzero(nxt <= tol / SAFETY)
    return (int(ok[0]) + 2 if ok.size else None), float(nxt[-1])


def _solve(p, tol):
    """The solution at alpha_k = 1, the unit gauge."""
    target = HAND_OFF_TOL * tol
    y, b, ey, eb = _coefficients(p, MAX_TERMS + 2)
    nu = math.exp(2.0 * box_edge(1.0, p))  # tau at s1
    retries = 0
    for trial in range(1, MAX_TRIALS + 1):
        N, last = _order(y, b, nu, p.k, target)
        while N is None:
            nu *= min(0.9, (target / (SAFETY * last)) ** (1.0 / MAX_TERMS))
            N, last = _order(y, b, nu, p.k, target)
        val = _validate(y[:N], b[: N + 1], nu, p, ey[:N], eb[: N + 1])
        # the rounding does not fall as s0 moves left: tol bounds it
        if val is not None and val.tail <= target and max(val.err_x, val.err_z) <= tol:
            break
        retries += 1
        nu *= 0.8
    else:
        raise ConvergenceError(f"series hand-off not validated in {MAX_TRIALS} trials")
    powers = nu ** np.arange(N + 1)
    log_z0 = math.log(b[0]) + p.k * math.log(nu)
    # the hand-off's W = ln(c_nk beta^k) + log_z0 + ln(z) rounds too
    err_w = 4.0 * _EPS * (abs(math.log(p.cb)) + abs(log_z0) + 1.0)
    sol = LocalSolution(
        s0=0.5 * math.log(nu),
        k=p.k,
        x_coef=np.concatenate(([0.0], y[:N] * powers[1:])),
        z_coef=b[: N + 1] * powers / b[0],
        log_z0=log_z0,
        alpha=1.0,
        contraction_rate=val.rate,
        iterations=trial,
        sup_residual=val.defect,
        err=max(val.err_x, val.err_z + err_w),
        terms=N,
        weighted_limits=(1.0, b[0]),
        unit_limits=(1.0, b[0]),
        u0=None,  # set by gauge_map
        chart=p.chart,
        retries=retries,
    )
    head_X, head_Z = sol.state(sol.s0 + _head_offsets(p.k))
    return replace(sol, head_X=head_X, head_Z=head_Z)


def picard_solve(alpha, p, tol=DEFAULT_TOL):
    """Construct the orbit leaving the origin for u(0)-parameter alpha: the
    unit-gauge series, validated at its hand-off to HAND_OFF_TOL * tol
    relative to X and Z, moved to alpha by :func:`gauge_map`."""
    alpha_weight(alpha, p)  # alpha's range, checked before the solve
    return gauge_map(_solve(p, tol), alpha, p)


def picard_solve_at_A(alpha_bar, p, tol=DEFAULT_TOL):
    """Mirrored construction at A: the orbit converging to (X_A, 0).

    Reversing s turns the A-chart system into the origin system with f
    replaced by h, so the series is built in sigma = -s and read backwards.
    Requires rho > 2 theta so that h(0) > 0; rho = 2 theta is degenerate
    (nu = 0 kills the eigendirection).
    """
    if p.rho < 2.0 * p.theta:
        raise NotApplicableError("orbit at A requires rho >= 2 theta")
    if p.rho == 2.0 * p.theta:
        raise ParameterError("rho = 2 theta is degenerate: h(0) = 0")
    q = p.in_chart("WV")
    alpha_weight(alpha_bar, q)
    return gauge_map(_solve(q, tol), alpha_bar, q)


def derivative_residual(sol, p):
    """Max pointwise defect of the series against the differential system
    of its chart on the head's grid: the series' derivative in s, term by
    term, against the field, relative to X and to Z, as ``err`` is: Z
    scales like theta^-k, so an absolute defect grows with it."""
    s, X, Z = sol.head()
    j = np.arange(sol.x_coef.size)
    V = np.vander(np.exp(2.0 * (s - sol.s0)), j.size, increasing=True)
    coef = np.column_stack([sol.x_coef, 2.0 * j * sol.x_coef, sol.z_coef, 2.0 * (j + sol.k) * sol.z_coef])
    x, x_s, z, z_s = (V @ coef).T
    F, G = vector_field(X, Z, p.in_chart(sol.chart))
    X_s = sol.k * x ** (sol.k - 1) * x_s
    return float(max(np.max(np.abs(X_s - F) / X), np.max(np.abs(Z * z_s / z - G) / Z)))
