"""An interval oracle for the funnel and the asymptote-trap certificates.

``orbit.funnel_certificate`` samples the fences in floats. Here every
certificate it issues on the slow passages and the theta corners is proved
again with ``mpmath.iv`` from the parameters, the hand-off point and its
error bound alone:

- F > 0 on the whole error box of the hand-off;
- on [0, 1 - FUNNEL_DELTA] of the chord C(t) = L + t (B - L), with L the
  box's upper left corner, enclosures of F and sigma F - G are positive,
  the chord cut by bisection until they are;
- on [1 - FUNNEL_DELTA, 1] both vanish at B, and the mean-value form
  F(C(t)) = -int_t^1 dF/dt' shows them positive: enclosures of their slopes
  along the chord, from the Jacobian, are negative there.

The asymptote traps that ``orbit.trap_certificate`` issues at the hand-off
of every n >= 2k pair at rho/theta -1, -1e-2 and 0 are proved from the
hand-off point and its error bound: the box's lower left corner
(X1, Z1) = (X - err, Z - err) lies in the region, X + err < gamma^k, and
f(x1) > 0 and F(X1, Z1) > 0 there. rho <= 0 and n >= 2k are checked
exactly: they make gamma = x_B (1 + rho/(2 theta)) <= x_B < x_A, so G > 0
on Z = Z1 below gamma and F <= 0 on X = gamma^k (F = 0 at n = 2k, where
the side is an invariant line).

The field, its Jacobian and B are written out here from the formulas, with
the float parameters as exact inputs; none of it is read from ``ksol``.
"""

import contextlib
import math

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
        # the hand-off's error box, rounded outward
        box_X = iv.mpf([(X - err).a, (X + err).b])
        box_Z = iv.mpf([(Z - err).a, (Z + err).b])
        xl, zl = X - err, Z + err
        if not (xl.a > 0 and (X + err).b < fld.X_B.a and zl.b < fld.Z_B.a):
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
        X1, Z1 = X - err, Z - err
        if not (X1.a > 0 and Z1.a > 0 and (X + err).b < (fld.gamma**p.k).a):
            return False
        f, _g = fld._profile(fld._root(X1))
        F, _G = fld.values(X1, Z1)
        return bool(f.a > 0 and F.a > 0)


N_EQ_2K = ((4, 2), (6, 3), (16, 8), (10, 5))
TRAP_CASES = [(n, k, r) for n, k in N_GT_2K + N_EQ_2K for r in (-1.0, -1e-2, 0.0)]


@pytest.mark.parametrize("n,k,rho", TRAP_CASES, ids=[f"{n}-{k}-{r:g}" for n, k, r in TRAP_CASES])
def test_interval_arithmetic_proves_every_trap_certificate(n, k, rho):
    p = phase.make_params(n, k, rho, 1.0)
    _anchor, sols = orbit._local_solutions(p, ALPHAS, picard.DEFAULT_TOL)
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
