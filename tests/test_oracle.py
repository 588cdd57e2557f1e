"""An interval oracle for the funnel and the asymptote-trap certificates.

``orbit.funnel_certificate`` samples the fences in floats. Here every
certificate it issues on the slow passages and the theta corners is proved
again with ``mpmath.iv`` from the parameters, the hand-off point and its
error bound alone:

- F > 0 on the whole error box of the hand-off, (X (1 +- err), Z (1 +- err));
- on [0, 1 - FUNNEL_DELTA] of the chord C(t) = L + t (B - L), with L the
  box's upper left corner, enclosures of F and sigma F - G are positive,
  the chord cut by bisection until they are;
- on [1 - FUNNEL_DELTA, 1] both vanish at B, and the mean-value form
  F(C(t)) = -int_t^1 dF/dt' shows them positive: enclosures of their slopes
  along the chord, from the Jacobian, are negative there.

The asymptote traps that ``orbit.trap_certificate`` issues at the hand-off
of every n >= 2k pair at rho/theta -1, -1e-2 and 0 are proved from the
hand-off point and its error bound: the box's lower left corner
(X1, Z1) = (X (1 - err), Z (1 - err)) lies in the region,
X (1 + err) < gamma^k, and
f(x1) > 0 and F(X1, Z1) > 0 there. rho <= 0 and n >= 2k are checked
exactly: they make gamma = x_B (1 + rho/(2 theta)) <= x_B < x_A, so G > 0
on Z = Z1 below gamma and F <= 0 on X = gamma^k (F = 0 at n = 2k, where
the side is an invariant line).

The field, its Jacobian and B are written out here from the formulas, with
the float parameters as exact inputs; none of it is read from ``ksol``.
"""

import contextlib
import math
from dataclasses import replace

import pytest

from ksol import orbit, phase, picard

mpmath = pytest.importorskip("mpmath")
iv = mpmath.iv

pytestmark = pytest.mark.slow

# the n > 2k pairs of the regime corpus at rho/theta 1e-4, 1e-2 and 0.3
# (theta 1), then the node (64,8,1) and (4,1,1) at the theta corners 1e3 and
# 1e6, as (n, k, rho, theta)
N_GT_2K = ((3, 1), (4, 1), (6, 1), (5, 2), (7, 3), (9, 4), (12, 4), (33, 16), (64, 8))
CASES = [(n, k, r, 1.0) for n, k in N_GT_2K for r in (1e-4, 1e-2, 0.3)] + [
    (64, 8, 1.0, 1.0),
    (4, 1, 1.0, 1e3),
    (4, 1, 1.0, 1e6),
]
ALPHAS = (0.5, 1.0, 2.0)
PREC = 80  # bits of the interval arithmetic
MAX_SEGMENTS = 20_000  # bisection budget per certificate


class _Field:
    """The origin field (F, G), its slopes along a direction and B, in
    interval arithmetic from (n, k, rho, theta)."""

    def __init__(self, n, k, rho, theta):
        self.n, self.k = n, k
        rho, theta = iv.mpf(rho), iv.mpf(theta)
        self.m = iv.mpf(n - 2 * k) / (n + 2 * k)
        beta = (1 - self.m) * theta
        self.gamma = iv.mpf(n + 2 * k) / k * (2 * theta + rho) / (4 * theta)
        binom = math.comb(n - 1, k - 1)
        c_nk = iv.mpf(n + 2 * k) / (2**k * binom) * (iv.mpf(k) / (n + 2 * k)) ** (1 - k)
        self.cb = c_nk * beta**k
        self.x_A = iv.mpf(n + 2 * k) / k
        self.x_B = self.x_A / 2
        self.X_B = self.x_B**k
        self.Z_B = iv.mpf((n - 2 * k) * binom) / (k * (2 * rho) ** k)

    def _root(self, X):
        return X if self.k == 1 else iv.exp(iv.log(X) / self.k)

    def _profile(self, x):
        """(f, g) with g = (gamma - x)/(1 - x/x_A)."""
        q = 1 - x / self.x_A
        g = (self.gamma - x) / q
        return self.cb * q * g**self.k, g

    def values(self, X, Z):
        n, k = self.n, self.k
        x = self._root(X)
        f, _g = self._profile(x)
        F = -(n - 2 * k) * (1 - x / self.x_A) * X + Z * f
        G = 2 * k * Z * (1 - x / self.x_B)
        return F, G

    def slopes(self, X, Z, dX, dZ):
        """(dF, dG) along (dX, dZ): J (dX, dZ) with J the Jacobian."""
        n, k, m = self.n, self.k, self.m
        x = self._root(X)
        f, g = self._profile(x)
        # f'(x) = c_nk beta^k k g^(k-1) ((k-1)/(n+2k) g - 1), and dx/dX = x/(kX)
        f_x = self.cb * k * g ** (k - 1) * (iv.mpf(k - 1) / (n + 2 * k) * g - 1)
        xpow = x / X
        F_X = (2 * k - n) + m * (k + 1) * x + Z * f_x * xpow / k
        G_X = -(1 - m) * Z * xpow
        G_Z = 2 * k - (1 - m) * k * x
        return F_X * dX + f * dZ, G_X * dX + G_Z * dZ


@contextlib.contextmanager
def _precision(bits):
    saved = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = saved


def proves_funnel(p, cert):
    """Whether interval arithmetic proves the funnel certificate ``cert``
    of the parameter set ``p``; returns (proved, segments used)."""
    with _precision(PREC):
        fld = _Field(p.n, p.k, p.rho, p.theta)
        X, Z, err = iv.mpf(cert.X), iv.mpf(cert.Z), iv.mpf(cert.err)
        # the hand-off's error box, relative, rounded outward
        box_X = iv.mpf([(X * (1 - err)).a, (X * (1 + err)).b])
        box_Z = iv.mpf([(Z * (1 - err)).a, (Z * (1 + err)).b])
        xl, zl = X * (1 - err), Z * (1 + err)
        if not (xl.a > 0 and (X * (1 + err)).b < fld.X_B.a and zl.b < fld.Z_B.a):
            return False, 0
        if not fld.values(box_X, box_Z)[0].a > 0:
            return False, 0
        dX, dZ = fld.X_B - xl, fld.Z_B - zl
        sigma = dZ / dX
        delta = iv.mpf(orbit.FUNNEL_DELTA)
        used = 0

        def chord(t):
            return xl + t * dX, zl + t * dZ

        def inside(t):  # F and sigma F - G, positive on the chord short of B
            F, G = fld.values(*chord(t))
            return F, sigma * F - G

        def near_b(t):  # minus their slopes along it, positive near B
            dF, dG = fld.slopes(*chord(t), dX, dZ)
            return -dF, dG - sigma * dF

        for enclose, lo, hi in ((inside, iv.mpf(0), 1 - delta), (near_b, 1 - delta, iv.mpf(1))):
            stack = [(lo.a, hi.b)]
            while stack:
                a, b = stack.pop()
                used += 1
                if used > MAX_SEGMENTS:
                    return False, used
                if all(v.a > 0 for v in enclose(iv.mpf([a, b]))):
                    continue
                # a value that is not positive at a point refuses at once
                mid = (a + b) / 2
                if not a < mid < b or any(v.b <= 0 for v in enclose(iv.mpf(mid))):
                    return False, used
                stack += [(mid, b), (a, mid)]
    return True, used


@pytest.mark.parametrize("n,k,rho,theta", CASES, ids=[f"{n}-{k}-{r:g}-{t:g}" for n, k, r, t in CASES])
def test_interval_arithmetic_proves_every_funnel_certificate(n, k, rho, theta):
    p = phase.make_params(n, k, rho, theta)
    certified = 0
    for alpha, (_sol, trace, oc) in zip(ALPHAS, orbit.run_orbits(p, ALPHAS)):
        cert = trace.certificate
        if not isinstance(cert, orbit.FunnelCertificate):
            continue
        certified += 1
        assert oc.kind == orbit.TYPE_B and oc.diagnostics["criterion"] == "funnel"
        proved, segments = proves_funnel(p, cert)
        assert proved, (alpha, segments)
    # the float check certifies every alpha of these sets
    assert certified == len(ALPHAS)


def test_oracle_refuses_a_point_above_the_fence():
    # (4,1,1e-2) at X = 0.2 X_B, Z = 0.999 Z_B: the chord to B is nearly
    # flat, and the flow crosses it upward at its start
    p = phase.make_params(4, 1, 1e-2, 1.0)
    cert = orbit.FunnelCertificate(0.2 * p.X_B, 0.999 * p.Z_B, 0.0, 1.0)
    assert not proves_funnel(p, cert)[0]


def proves_trap(p, cert):
    """Whether interval arithmetic proves the asymptote trap ``cert`` of
    the parameter set ``p``."""
    if not (p.rho <= 0.0 and p.n >= 2 * p.k):
        return False
    with _precision(PREC):
        fld = _Field(p.n, p.k, p.rho, p.theta)
        X, Z, err = iv.mpf(cert.X), iv.mpf(cert.Z), iv.mpf(cert.err)
        X1, Z1 = X * (1 - err), Z * (1 - err)
        if not (X1.a > 0 and Z1.a > 0 and (X * (1 + err)).b < (fld.gamma**p.k).a):
            return False
        f, _g = fld._profile(fld._root(X1))
        F, _G = fld.values(X1, Z1)
        return bool(f.a > 0 and F.a > 0)


N_EQ_2K = ((4, 2), (6, 3), (16, 8), (10, 5))
TRAP_CASES = [(n, k, r) for n, k in N_GT_2K + N_EQ_2K for r in (-1.0, -1e-2, 0.0)]


@pytest.mark.parametrize("n,k,rho", TRAP_CASES, ids=[f"{n}-{k}-{r:g}" for n, k, r in TRAP_CASES])
def test_interval_arithmetic_proves_every_trap_certificate(n, k, rho):
    p = phase.make_params(n, k, rho, 1.0)
    _gauges, sols = orbit._local_solutions(p, ALPHAS, picard.DEFAULT_TOL)
    for sol in sols:
        cert = orbit.asymptote_trap(sol, p)
        assert cert is not None and cert.margin > 1.0
        assert proves_trap(p, cert)


def test_oracle_refuses_a_forged_trap():
    # (4,1,0): a box that reaches the asymptote, and a point below the
    # nullcline F = 0, where X decreases
    p = phase.make_params(4, 1, 0.0, 1.0)
    assert not proves_trap(p, orbit.TrapCertificate(p.gamma_k, 1.0, 1e-12, 2.0))
    X = 0.1
    F0, _G = phase.vector_field(X, 0.0, p)
    z_null = -F0 / phase.profile_value(X, p)
    assert proves_trap(p, orbit.TrapCertificate(X, 2.0 * z_null, 1e-12, 2.0))
    assert not proves_trap(p, orbit.TrapCertificate(X, 0.5 * z_null, 1e-12, 2.0))


# The local series' hand-off, proved again from (n, k, rho, theta) alone:
# the coefficients below N exactly, in interval arithmetic, and the bound of
# the omitted tail by the same self-map of a ball on coefficient space as
# ``picard._validate``'s, every sum and product of it enclosed; the sets of
# the origin orbit, then an A-chart set
SERIES_CASES = [
    (4, 1, -1.0, "XZ"), (12, 4, 0.0, "XZ"), (9, 4, -0.3, "XZ"), (16, 8, -1.0, "XZ"),
    (64, 8, 1.0, "XZ"), (33, 16, -0.3, "XZ"), (4, 1, 5.0, "WV"),
]
SERIES_IDS = [f"{n}-{k}-{r:g}-{c}" for n, k, r, c in SERIES_CASES]
# bits for the series: at PREC the enclosures of the omitted terms, sums of
# far larger terms of both signs, come out wider than the bound on
# (64,8,1) and (33,16,-0.3)
SERIES_PREC = 200


def _chart_constants(ctx, n, k, rho, theta, chart):
    """(num_a, num_b, c_nk beta^k, x_A, x_B, profile at 0) of the chart, in
    the number type of ``ctx`` (mpmath.iv or mpmath.mp)."""
    rho, theta = ctx.mpf(rho), ctx.mpf(theta)
    m = ctx.mpf(n - 2 * k) / (n + 2 * k)
    gamma = ctx.mpf(n + 2 * k) / k * (2 * theta + rho) / (4 * theta)
    c_nk = ctx.mpf(n + 2 * k) / (2**k * math.comb(n - 1, k - 1)) * (ctx.mpf(k) / (n + 2 * k)) ** (1 - k)
    cb = c_nk * ((1 - m) * theta) ** k
    x_A = ctx.mpf(n + 2 * k) / k
    num_a, num_b = (gamma, -1) if chart == "XZ" else (gamma - x_A, 1)
    return num_a, num_b, cb, x_A, x_A / 2, cb * num_a**k


def _series(ctx, n, k, consts, order):
    """y_j = a_(j+1) (j < order) and b_j (j <= order) at alpha_k = 1, by
    the recursion of ``picard``'s module docstring written out again."""
    num_a, num_b, cb, x_A, x_B, f0 = consts
    c_m, c_p = ctx.mpf(2 * k - n) / k, cb / k
    y, b = [ctx.mpf(1)], [n / f0]
    m, num, v, w = [ctx.mpf(1)], [num_a], [num_a], [num_a ** (k - 1)]
    nw = [num_a * w[0]]
    for j in range(1, order + 1):
        b.append(-(ctx.mpf(k) / (j * x_B)) * sum(y[i] * b[j - 1 - i] for i in range(j)))
        if j == order:
            break
        m.append(-sum(y[i] * y[j - 1 - i] for i in range(j)) / x_A)
        num.append(num_b * y[j - 1])
        v.append(num[j] - sum(v[i] * m[j - i] for i in range(j)))
        w.append(sum(((k - 1) * (j - i) - i) * v[j - i] * w[i] for i in range(j)) / (j * v[0]))
        nw.append(sum(num[i] * w[j - i] for i in range(j + 1)))
        y.append((c_m * m[j] + c_p * sum(b[i] * nw[j - i] for i in range(j + 1))) / (2 * j + n))
        # y_j's share of the series formed with y_j = 0 (m_0 = 1)
        dw = -(k - 1) * w[0] * y[j]
        m[j] += y[j]
        v[j] -= v[0] * y[j]
        w[j] += dw
        nw[j] += num[0] * dw
    return y, b


class _Balls:
    """Series on |tau| <= nu as (c, e): the polynomial c of degree <= M plus
    any series of norm sum |c_j| nu^j <= e, every entry an interval."""

    def __init__(self, nu, M):
        self.M, self.nu = M, nu
        self.w = [nu**j for j in range(2 * M + 2)]

    def norm(self, c, start=0):
        return sum((abs(cj) * self.w[start + j] for j, cj in enumerate(c)), iv.mpf(0))

    def ball(self, c, e=0):
        return list(c) + [iv.mpf(0)] * (self.M + 1 - len(c)), iv.mpf(e)

    def const(self, value):
        return self.ball([iv.mpf(value)])

    def lin(self, *terms):
        c = [sum((s * t[0][j] for s, t in terms), iv.mpf(0)) for j in range(self.M + 1)]
        return c, sum((abs(iv.mpf(s)) * t[1] for s, t in terms), iv.mpf(0))

    def shift(self, a):
        c, e = a
        return [iv.mpf(0)] + c[:-1], self.nu * (e + abs(c[-1]) * self.w[self.M])

    def mul(self, a, b):
        (ca, ea), (cb, eb) = a, b
        M = self.M
        full = [
            sum((ca[i] * cb[j - i] for i in range(max(0, j - M), min(j, M) + 1)), iv.mpf(0))
            for j in range(2 * M + 1)
        ]
        na, nb = self.norm(ca), self.norm(cb)
        return full[: M + 1], self.norm(full[M + 1:], M + 1) + na * eb + ea * nb + ea * eb

    def power(self, a, exponent):
        out = self.const(1)
        for _ in range(exponent):
            out = self.mul(out, a)
        return out

    def inverse(self, a):
        c = a[0]
        inv = [1 / c[0]]
        for j in range(1, self.M + 1):
            inv.append(-sum(c[i] * inv[j - i] for i in range(1, j + 1)) / c[0])
        dc, de = self.mul(a, (inv, iv.mpf(0)))
        rho = self.norm([1 - dc[0]] + [-d for d in dc[1:]]) + de
        assert rho.b < 1
        return inv, self.norm(inv) * rho / (1 - rho)


def _field(balls, y, B, n, k, consts, multipliers):
    """phi = (x_s right side)/tau and d phi/dY, or d phi/dy + (n - 2) and
    d phi/dY, as balls."""
    num_a, num_b, cb, x_A, _x_B, _f0 = consts
    c_m, c_p = iv.mpf(2 * k - n) / k, cb / k
    one = balls.const(1)
    x = balls.shift(y)
    m = balls.lin((1, y), (-1 / x_A, balls.mul(x, y)))
    im = balls.inverse(m)
    num = balls.lin((num_a, one), (num_b, x))
    v = balls.mul(num, im)
    vk2 = balls.power(v, k - 2) if k >= 2 else None
    w = balls.mul(vk2, v) if k >= 2 else one
    nw = balls.mul(num, w)
    M_B = balls.lin((c_p, nw))
    if not multipliers:
        return balls.lin((c_m, m), (c_p, balls.mul(B, nw))), M_B
    dm = balls.lin((1, one), (-2 / x_A, x))
    dnw = balls.lin((num_b, balls.shift(w)))
    if k >= 2:
        dv = balls.mul(balls.lin((num_b, balls.shift(one)), (-1, balls.mul(v, dm))), im)
        dnw = balls.lin((1, dnw), (k - 1, balls.mul(num, balls.mul(vk2, dv))))
    return balls.lin((c_m, dm), (c_p, balls.mul(B, dnw)), (n - 2, one)), M_B


def proves_hand_off(sol, p):
    """Whether interval arithmetic proves that sol's hand-off (X, W) lies
    within its relative bound ``err`` of the orbit of alpha = 1."""
    n, k, N = p.n, p.k, sol.terms
    with _precision(SERIES_PREC):
        consts = _chart_constants(iv, n, k, p.rho, p.theta, sol.chart)
        x_B = consts[4]
        y, b = _series(iv, n, k, consts, N)
        nu = iv.exp(2 * iv.mpf(sol.s0))
        balls = _Balls(nu, N + 4)
        # T(0): phi's orders >= N, and the tail of tau y Y
        phi, M_B = _field(balls, balls.ball(y), balls.ball(b), n, k, consts, False)
        t_y = sum(
            (abs(phi[0][j]) * balls.w[j] / (2 * j + n) for j in range(N, balls.M + 1)),
            phi[1] / (2 * N + n),
        )
        yB = [sum(y[i] * b[j - i] for i in range(max(0, j - N), min(j, N - 1) + 1)) for j in range(2 * N)]
        t_b = k / x_B * sum((abs(yB[j - 1]) * balls.w[j] / j for j in range(N + 1, 2 * N + 1)), iv.mpf(0))
        norm_y, norm_b = balls.norm(y), balls.norm(b)
        gain_y, gain_b = iv.mpf(1) / (2 * N + n), k * nu / (x_B * (N + 1))
        # a trial ball twice the radii of T without its y-y block, then
        # the radii that the Lipschitz matrix on it proves
        L01, L10, L11 = (balls.norm(M_B[0]) + M_B[1]) * gain_y, gain_b * norm_b, gain_b * norm_y
        det = 1 - L11 - L01 * L10
        trial = (
            2 * (((1 - L11) * t_y + L01 * t_b) / det).b + 1e-300,
            2 * ((t_b + L10 * t_y) / det).b + 1e-300,
        )
        M_y, M_B = _field(
            balls, balls.ball(y, trial[0]), balls.ball(b, trial[1]), n, k, consts, True
        )
        L00, L01 = (balls.norm(M_y[0]) + M_y[1]) * gain_y, (balls.norm(M_B[0]) + M_B[1]) * gain_y
        L10, L11 = gain_b * (norm_b + trial[1]), gain_b * (norm_y + trial[0])
        det = (1 - L00) * (1 - L11) - L01 * L10
        if not (L00.b < 1 and L11.b < 1 and det.a > 0):
            return False
        r_y = ((1 - L11) * t_y + L01 * t_b) / det
        r_b = ((1 - L00) * t_b + L10 * t_y) / det
        if not (r_y.b <= trial[0] and r_b.b <= trial[1]):
            return False
        # the orbit at s0, and the hand-off's distance from it
        rad_y, rad_b = iv.mpf([-r_y.b, r_y.b]), iv.mpf([-r_b.b, r_b.b])
        X_orbit = (nu * (sum(y[j] * nu**j for j in range(N)) + rad_y)) ** k
        Z_orbit = nu**k * (sum(b[j] * nu**j for j in range(N + 1)) + rad_b)
        X, W = sol.state_at_s0(p)
        err_X = abs(iv.mpf(X) / X_orbit - 1)
        err_Z = abs(iv.exp(iv.mpf(W) - iv.log(consts[2] * Z_orbit)) - 1)
        return bool(err_X.b <= sol.err and err_Z.b <= sol.err)


def _local(n, k, rho, chart):
    p = phase.make_params(n, k, rho, 1.0)
    if chart == "XZ":
        return p, picard.picard_solve(1.0, p)
    return p.in_chart("WV"), picard.picard_solve_at_A(1.0, p)


@pytest.mark.parametrize("n,k,rho,chart", SERIES_CASES, ids=SERIES_IDS)
def test_interval_arithmetic_proves_the_hand_off_bound(n, k, rho, chart):
    p, sol = _local(n, k, rho, chart)
    assert proves_hand_off(sol, p)


def test_oracle_refuses_a_forged_coefficient():
    # a_2 moved by 1e-8 relative moves the hand-off off its orbit
    p, sol = _local(4, 1, -1.0, "XZ")
    x_coef = sol.x_coef.copy()
    x_coef[2] *= 1.0 + 1e-8
    assert not proves_hand_off(replace(sol, x_coef=x_coef), p)


@pytest.mark.parametrize("n,k,rho,chart", SERIES_CASES, ids=SERIES_IDS)
def test_hand_off_lies_within_its_bound_of_a_30_digit_flow(n, k, rho, chart):
    # mpmath.odefun (a Taylor method) at 30 digits from the exact series'
    # point half a unit of s below s0, in (ln X, ln Z)
    p, sol = _local(n, k, rho, chart)
    mp = mpmath.mp.clone()
    mp.dps = 30
    num_a, num_b, cb, x_A, x_B, _f0 = consts = _chart_constants(mp, n, k, p.rho, p.theta, chart)
    y, b = _series(mp, n, k, consts, 40)
    s_start = mp.mpf(sol.s0) - mp.mpf(1) / 2
    tau = mp.exp(2 * s_start)
    start = [
        k * mp.log(tau * sum(c * tau**j for j, c in enumerate(y))),
        k * mp.log(tau) + mp.log(sum(c * tau**j for j, c in enumerate(b))),
    ]

    def field(_s, v):
        x = mp.exp(v[0] / k)
        q = 1 - x / x_A
        f = cb * q * ((num_a + num_b * x) / q) ** k
        return [-(n - 2 * k) * q + mp.exp(v[1] - v[0]) * f, 2 * k * (1 - x / x_B)]

    ln_X, ln_Z = mp.odefun(field, s_start, start)(mp.mpf(sol.s0))
    X, W = sol.state_at_s0(p)
    dist = max(abs(X / mp.exp(ln_X) - 1), abs(mp.exp(W - mp.log(cb) - ln_Z) - 1))
    assert dist <= sol.err, float(dist / sol.err)
