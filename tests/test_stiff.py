"""The continuation: the DOP853 step and its continuous extension, the
kernel's closed-form Jacobian, the Radau IIA step and its collocation
cubic, the switch from DOP853 to it, and the orbits it produces against
scipy's implicit solvers."""

import collections
import fractions
import itertools
import math
import re

import numpy as np
import pytest

from ksol import _jit, _kernels, orbit, phase, picard

# with their accepted steps at alpha 1: their DOP853 arcs end while the
# step shrinks with h rho(J) above STIFF_HRHO_SHRINK, below the step cap,
# after 72, 86 and 44 steps, and Radau takes 28, 27 and 212 steps after it,
# the last up to s_max. The steps are those of the kernel's run without the
# slow-manifold series (``integrated``): ``orbit.integrate`` hands the
# expanders over to the series before the switch (see EXPANDER_HAND_OVERS),
# and the steady set after it, at s = 6.21
STIFF_SETS = [(4, 1, -1.0, 100), (5, 2, -1.0, 113), (4, 1, 0.0, 256)]
# the expanders of STIFF_SETS as the pipeline runs them: the accepted steps
# up to the hand-over to the series, and its s
EXPANDER_HAND_OVERS = [(4, 1, -1.0, 69, 2.191), (5, 2, -1.0, 75, 2.478)]
NON_STIFF_SETS = [(4, 1, 1.0), (4, 1, 5.0), (4, 2, 1.0), (3, 2, 3.0), (5, 2, 1.0), (3, 2, 1.0)]
# the spirals into B whose arc past the Poincare-return certificate a test
# reads: the controls that run them with the ends at B off, up to about
# where the band test alone would end them
SPIRAL_ARCS = {
    (4, 1, 5.0): {"s_max": 110.0, "end_at_b": False},
    (5, 2, 1.0): {"s_max": 45.0, "end_at_b": False},
}
# the spirals of NON_STIFF_SETS end at their second return to X_B, at s =
# 5.7 to 9.0; with the ends at B off they run on into B (72 to 243 accepted
# steps), where the stiffness switch could fire
SPIRAL_APPROACH = {
    (4, 1, 1.0): {"s_max": 23.5, "end_at_b": False},
    (4, 1, 5.0): {"s_max": 110.1, "end_at_b": False},
    (5, 2, 1.0): {"s_max": 44.4, "end_at_b": False},
}
# the sets the pipeline benchmark runs: the stiff sets, the regime table
# at theta = 1 and (4,1,1) at the theta corners, as (n, k, rho, theta)
BENCH_SETS = (
    [(n, k, rho, 1.0) for n, k, rho, _steps in STIFF_SETS]
    + [(n, k, rho, 1.0) for n, k, rho in NON_STIFF_SETS + [(4, 2, -1.0)]]
    + [(4, 1, 1.0, theta) for theta in (1e-6, 1e3, 1e6)]
)


@pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (7, 3), (12, 4)])
class TestKernelJacobian:
    def test_matches_phase_jacobian(self, n, k):
        # the (X, Z) Jacobian in the log chart W = ln(c_nk beta^k Z):
        # dF/dW = Z dF/dZ, dW_s/dX = (dG/dX)/Z and dW_s/dW = 0
        p = phase.make_params(n, k, -0.5, 1.0)
        pp = _kernels.pack_params(p)
        rng = np.random.default_rng(n + k)
        for _ in range(100):
            X = float(rng.uniform(0.02, 0.98) * p.x_cap)
            Z = float(rng.uniform(1e-3, 1e3))
            J = np.reshape(_kernels.jac(X, math.log(p.cb * Z), pp), (2, 2))
            JZ = phase.jacobian((X, Z), p)
            ref = np.array([[JZ[0, 0], JZ[0, 1] * Z], [JZ[1, 0] / Z, 0.0]])
            np.testing.assert_allclose(J, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))

    def test_h_profile_matches_central_differences(self, n, k):
        p = phase.make_params(n, k, 3.0, 1.0)
        pp = _kernels.pack_params(p.in_chart("WV"))
        rng = np.random.default_rng(10 * n + k)
        for _ in range(100):
            X = float(rng.uniform(0.05, 0.95) * p.x_A) ** k
            W = math.log(p.cb * float(rng.uniform(0.05, 3.0)))
            J = np.reshape(_kernels.jac(X, W, pp), (2, 2))
            fd = np.empty((2, 2))
            for j, (dx, dw) in enumerate(((1e-6 * X, 0.0), (0.0, 1e-6))):
                hi = _kernels.rhs(X + dx, W + dw, pp)
                lo = _kernels.rhs(X - dx, W - dw, pp)
                fd[:, j] = (np.array(hi) - np.array(lo)) / (2.0 * (dx + dw))
            assert np.max(np.abs(J - fd) / (1.0 + np.abs(fd))) < 1e-6


def _general_field(X, W, pp):
    """``rhs`` and ``jac`` evaluated the general way: k an int, the root
    through ``_kernels.kth_root``, g^(k-1) by the power loop from 1.0, and
    every other operation as in the kernels and in their order."""
    n = pp[_kernels.PP_N]
    k = int(pp[_kernels.PP_K])
    x = _kernels.kth_root(X, k)
    q = 1.0 - x / pp[_kernels.PP_XA_ROOT]
    g = (pp[_kernels.PP_NUM_A] + pp[_kernels.PP_NUM_B] * x) / q
    g_km1 = 1.0
    for _ in range(k - 1):
        g_km1 *= g
    ez = math.exp(W) if W < _kernels.EXP_W_MAX else math.inf
    F = -(n - 2.0 * k) * (1.0 - x / pp[_kernels.PP_XA_ROOT]) * X + ez * (q * (g_km1 * g))
    field = (F, 2.0 * k * (1.0 - x / pp[_kernels.PP_XB_ROOT]))
    if k > 1 and X == 0.0:
        return field, None  # X^((1-k)/k) is infinite: jac is taken at X > 0
    m = (n - 2.0 * k) / (n + 2.0 * k)
    slope = k * g_km1 * (((k - 1) / (n + 2.0 * k)) * g + pp[_kernels.PP_NUM_B])
    xpow = x / X if k > 1 else 1.0
    dFdX = (2.0 * k - n) + m * (k + 1) * x + ez * (slope * xpow / k)
    dGdX = -(1.0 - m) * xpow
    return field, (dFdX, ez * (q * (g_km1 * g)), dGdX, 0.0)


@pytest.mark.skipif(
    _jit.JIT_ENABLED, reason="compiled exp and log need not round as numpy's and CPython's do"
)
class TestStraightLineField:
    @pytest.mark.parametrize("n,k,rho", [(4, 1, 1.0), (6, 1, -1.0), (5, 2, 1.0), (7, 3, -0.5)])
    @pytest.mark.parametrize("chart", ["XZ", "WV"])
    def test_rhs_and_jac_equal_the_general_evaluation(self, n, k, rho, chart):
        # bit for bit, signed zeros and NaN included: repr tells -0.0 from
        # 0.0 and shows every NaN as nan. The edge grid meets each guard;
        # the random states, where e^W, q and g are all far from 1, catch a
        # regrouped product
        p = phase.make_params(n, k, rho, 1.0)
        pp = _kernels.pack_params(p.in_chart(chart))
        edges = itertools.product(
            (0.0, -0.0, -1e-3, 1e-300, 0.5 * p.X_B, math.nan),
            (-math.inf, -800.0, 0.0, 708.9, 709.0, 710.0),
        )
        rng = np.random.default_rng(n + 10 * k)
        states = zip(
            (rng.uniform(0.01, 0.99, 200) * p.x_cap).tolist(), rng.uniform(-30.0, 30.0, 200).tolist()
        )
        for X, W in itertools.chain(edges, states):
            field, jacobian = _general_field(X, W, pp)
            assert repr(_kernels.rhs(X, W, pp)) == repr(field), (X, W)
            if jacobian is not None:
                assert repr(_kernels.jac(X, W, pp)) == repr(jacobian), (X, W)

    @pytest.mark.parametrize("k", range(2, 17))
    def test_kth_root_agrees_with_the_array_root(self, k):
        values = np.geomspace(1e-300, 1e300, 1201)
        roots = phase.kth_root(values, k)
        for i, v in enumerate(values.tolist()):
            got = _kernels.kth_root(v, k)
            assert type(got) is float
            assert got == phase.kth_root(np.array([v]), k)[0] == roots[i], (v, k)
            if k == 2:
                # the double nearest sqrt(v): v lies between the squares of
                # the midpoints to got's neighbours, exactly
                r = fractions.Fraction(got)
                below = r - fractions.Fraction(math.nextafter(got, 0.0))
                above = fractions.Fraction(math.nextafter(got, math.inf)) - r
                assert (r - below / 2) ** 2 <= fractions.Fraction(v) <= (r + above / 2) ** 2, v

    @pytest.mark.parametrize(
        "n,k,rho,calls", [(4, 1, 1.0, False), (5, 2, 1.0, True), (7, 3, -0.5, True)]
    )
    def test_k1_run_takes_no_root(self, n, k, rho, calls, monkeypatch):
        # k = 1 takes no root; k = 2 takes sqrt, and only k >= 3 numpy's
        # exp and log, counted through the kernels' own numpy name
        counter = collections.Counter()
        root = _kernels.kth_root
        monkeypatch.setattr(
            _kernels, "kth_root", lambda *a: counter.update(["kth_root"]) or root(*a)
        )

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, *a):
                counter.update(["exp"])
                return np.exp(*a)

            def log(self, *a):
                counter.update(["log"])
                return np.log(*a)

        monkeypatch.setattr(_kernels, "np", CountingNumpy())
        orbit.run_orbit(phase.make_params(n, k, rho, 1.0))
        assert (counter["kth_root"] > 0) == calls
        assert (counter["exp"] > 0) == (counter["log"] > 0) == (k >= 3)


def _dop853(X, W, h, fX, fW, pp):
    """The DOP853 step in the (X1, W1, errX, errW, fX1, fW1) form of
    ``_fixed_steps``."""
    X1, W1, e5x, e5w, _e3x, _e3w, KX, KW = _kernels._dop853_step(X, W, h, fX, fW, pp)
    return X1, W1, e5x, e5w, KX[-1], KW[-1]


def _radau_stepper(rtol=1e-10):
    """The Radau step in the form of ``_fixed_steps``, each step's Newton
    started from the previous one's collocation cubic, as in the
    integrator. From the zero start of the first step Newton can fail where
    the integrator would never try that step; such a step is taken as two
    halves. Returns (X1, W1, err, 0, fX1, fW1)."""
    zero = (0.0,) * 7
    last = {"cx": zero, "cw": zero, "h": math.inf}

    def step(X, W, h, fX, fW, pp):
        X1, W1, err, _n_iter, _n_f, cx, cw = _kernels._radau_step(
            X, W, h, fX, fW, last["cx"], last["cw"], h / last["h"], rtol, 1.0, False, pp
        )
        if err == math.inf:
            X1, W1, _e, _z, fX1, fW1 = step(X, W, 0.5 * h, fX, fW, pp)
            return step(X1, W1, 0.5 * h, fX1, fW1, pp)
        last.update(cx=cx, cw=cw, h=h)
        return (X1, W1, err, 0.0) + _kernels.rhs(X1, W1, pp)

    return step


def _fixed_steps(step, n_steps, X, W, pp, s_span=1.0):
    """The state (X, W) after n_steps equal steps over s_span."""
    fX, fW = _kernels.rhs(X, W, pp)
    for _ in range(n_steps):
        X, W, _ex, _ew, fX, fW = step(X, W, s_span / n_steps, fX, fW, pp)
    return np.array([X, W])


def _chart_error(got, ref):
    """The integrator's error measure: X relative, W absolute."""
    return max(abs(got[0] - ref[0]) / abs(ref[0]), abs(got[1] - ref[1]))


def _piece_error(h, X0, W0, cx, cw, pp, pieces):
    """The largest miss, X relative and W absolute, of the dense output
    (coefficients cx, cw) of a step of length h at the midpoints of its
    pieces by ``orbit.hermite`` through the dense output's values at the
    piece ends and the field there. ``pieces`` is a count of equal pieces
    or the fractions of the step where they end, 0 and 1 included."""
    t = np.arange(pieces + 1) / pieces if np.isscalar(pieces) else np.asarray(pieces)
    ends = np.array([(_kernels._dense(tj, X0, cx), _kernels._dense(tj, W0, cw)) for tj in t])
    slopes = np.array([_kernels.rhs(X, W, pp) for X, W in ends])
    mid = 0.5 * (t[:-1] + t[1:])
    out = 0.0
    for i, (y0, c) in enumerate(((X0, cx), (W0, cw))):
        got = orbit.hermite(h * t, ends[:, i], slopes[:, i], h * mid)
        ref = np.array([_kernels._dense(tm, y0, c) for tm in mid])
        miss = np.abs(got - ref) / (np.abs(ref) if i == 0 else 1.0)
        out = max(out, float(np.max(miss)))
    return out


def _start(n, k, rho):
    """Parameters, packed parameters and the state (0.3 X_B, ln(c_nk beta^k / 2))."""
    p = phase.make_params(n, k, rho, 1.0)
    return p, _kernels.pack_params(p), 0.3 * p.X_B, math.log(0.5 * p.cb)


class TestDop853Step:
    def test_coefficients_match_scipy(self):
        # bit for bit against the tableau scipy ships from Hairer's dop853.f
        coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")

        def const(name):
            return getattr(_kernels, name)

        n = coef.N_STAGES
        named = []
        for i in range(1, coef.N_STAGES_EXTENDED):
            for j in range(i):
                if coef.A[i, j] != 0.0:
                    name = f"_B{j}" if i == n else f"_A{i}_{j}"
                    assert const(name) == coef.A[i, j], name
                    named.append(name)
        for j in range(n):
            if coef.E5[j] != 0.0:
                assert const(f"_E5_{j}") == coef.E5[j]
                named.append(f"_E5_{j}")
            if coef.E3[j] != 0.0:
                # E3 = B - BHH; where BHH is zero the step reads B itself
                name = f"_E3_{j}" if coef.E3[j] != coef.B[j] else f"_B{j}"
                assert const(name) == coef.E3[j], name
                named.append(name)
        for r in range(coef.D.shape[0]):
            for j in range(coef.N_STAGES_EXTENDED):
                if coef.D[r, j] != 0.0:
                    assert const(f"_D{r + 3}_{j}") == coef.D[r, j]
                    named.append(f"_D{r + 3}_{j}")
        # and no coefficient beyond scipy's
        pattern = r"_(A\d+_\d+|B\d+|E[35]_\d+|D\d_\d+)"
        ours = {name for name in vars(_kernels) if re.fullmatch(pattern, name)}
        assert ours == set(named)

    def test_eighth_order(self):
        # fixed steps over s in [0, 1]: halving h divides the error by ~256;
        # a wrong coefficient drops the order and the ratio with it
        _p, pp, X0, W0 = _start(5, 2, -1.0)
        ref = _fixed_steps(_dop853, 2048, X0, W0, pp)
        errs = [_chart_error(_fixed_steps(_dop853, n, X0, W0, pp), ref) for n in (8, 16)]
        assert errs[0] / errs[1] >= 200.0

    def test_extension_is_order_seven(self):
        # one step of length h, the extension read at theta = 0.3 against 64
        # fixed steps to that point: the interpolation error is O(h^8), so
        # halving h divides it by ~256, where the cubic Hermite alone gives ~16
        _p, pp, X0, W0 = _start(5, 2, -1.0)
        fX, fW = _kernels.rhs(X0, W0, pp)
        errs = []
        for h in (0.5, 0.25):
            X1, W1, _a, _b, _c, _d, KX, KW = _kernels._dop853_step(
                X0, W0, h, fX, fW, pp
            )
            cx, cw = _kernels._dop853_dense(X0, W0, h, fX, fW, X1, W1, KX, KW, pp)
            got = (_kernels._dense(0.3, X0, cx), _kernels._dense(0.3, W0, cw))
            ref = _fixed_steps(_dop853, 64, X0, W0, pp, s_span=0.3 * h)
            errs.append(_chart_error(got, ref))
        assert errs[0] / errs[1] >= 150.0

    @pytest.mark.parametrize("n,k,rho", [(5, 2, -1.0), (4, 1, 1.0)])
    def test_sample_count_keeps_the_hermite_within_tol(self, n, k, rho):
        # an accepted step of h = 0.1 cut into _sample_count pieces: the
        # cubic Hermite of each piece, from the extension's values and the
        # field there, stays near SAMPLE_TOL of the extension at the piece
        # midpoint (X relative, W absolute), and one piece fewer misses
        # SAMPLE_TOL
        _p, pp, X0, W0 = _start(n, k, rho)
        h = 0.1
        fX, fW = _kernels.rhs(X0, W0, pp)
        X1, W1, e5x, e5w, e3x, e3w, KX, KW = _kernels._dop853_step(X0, W0, h, fX, fW, pp)
        magX = max(abs(X0), abs(X1))
        assert _kernels._dop853_error(e5x, e5w, e3x, e3w, 1e-10 * magX, 1e-10) < 1.0
        cx, cw = _kernels._dop853_dense(X0, W0, h, fX, fW, X1, W1, KX, KW, pp)

        pieces = _kernels._sample_count(cx, cw, magX, 1.0)
        assert pieces > 1
        assert _piece_error(h, X0, W0, cx, cw, pp, pieces) <= 2.0 * _kernels.SAMPLE_TOL
        assert _piece_error(h, X0, W0, cx, cw, pp, pieces - 1) > _kernels.SAMPLE_TOL


def _radau_tableau(mp):
    """The five-stage Radau IIA method derived in ``mp`` at its precision:
    the nodes, the inverse of the stage matrix A, its eigenvalues (MU_REAL,
    and MU1 and MU2 = alpha - i beta, beta ascending), the transformation T
    whose columns are the eigenvectors scaled to a last entry 1 (the real
    one, then the real and imaginary parts of the eigenvector of
    alpha + i beta), the error weights E of Hairer's embedded estimate, the
    weights Q1 of the collocation polynomial's slope at the step start, and
    the coefficients F1..F4 of ``_kernels._dense`` per stage (rows of P)."""
    s = 5
    # the right Radau nodes: the roots of d^4/dt^4 [t^4 (t - 1)^5]
    poly = [mp.mpf(0)] * (s - 1)
    poly += [mp.mpf(math.comb(s, j) * (-1) ** (s - j)) for j in range(s + 1)]
    for _ in range(s - 1):
        poly = [i * poly[i] for i in range(1, len(poly))]
    C = sorted(mp.re(r) for r in mp.polyroots(poly[::-1], maxsteps=200, extraprec=200))
    L = mp.matrix([[c**m for m in range(s)] for c in C]) ** -1  # Lagrange basis
    A = mp.matrix(
        [[sum(L[m, j] * c ** (m + 1) / (m + 1) for m in range(s)) for j in range(s)] for c in C]
    )
    A_inv = A**-1
    eig = mp.eig(A_inv)[0]
    mu_real = mp.re(min(eig, key=lambda e: abs(mp.im(e))))
    mus = sorted((e for e in eig if mp.im(e) < -1e-20), key=lambda e: -mp.im(e))

    def eigenvector(lam):
        M = A_inv - lam * mp.eye(s)
        v = mp.lu_solve(M[: s - 1, : s - 1], -M[: s - 1, s - 1])
        return [v[i] for i in range(s - 1)] + [mp.mpf(1)]

    columns = [eigenvector(mu_real)]
    for mu in mus:
        v = eigenvector(mp.conj(mu))
        columns += [[mp.re(x) for x in v], [mp.im(x) for x in v]]
    T = mp.matrix([[columns[j][i] for j in range(s)] for i in range(s)])
    # the embedded method of order s: gamma0 = 1/MU_REAL at the node 0 and
    # weights bh at the nodes, E = MU_REAL (bh - b) A^-1 with b = A's last row
    V = mp.matrix([[c ** (q - 1) for c in C] for q in range(1, s + 1)])
    rhs = [mp.mpf(1) / q - (1 / mu_real if q == 1 else 0) for q in range(1, s + 1)]
    bh = mp.lu_solve(V, mp.matrix(rhs))
    E = [mu_real * sum((bh[i] - A[s - 1, i]) * A_inv[i, j] for i in range(s)) for j in range(s)]
    # the collocation polynomial u = sum_j Q_j t^j through the stages, u(C_i)
    # = u_i, and its coefficients in the form of _dense
    Q = mp.matrix([[c ** (j + 1) for j in range(s)] for c in C]) ** -1

    def q(j, i):
        return Q[j - 1, i]

    P = [
        [-(q(2, i) + q(3, i) + q(4, i) + q(5, i)) for i in range(s)],
        [-(q(3, i) + 2 * q(4, i) + 3 * q(5, i)) for i in range(s)],
        [q(4, i) + 2 * q(5, i) for i in range(s)],
        [q(5, i) for i in range(s)],
    ]
    return C, A_inv, mu_real, mus, T, E, [q(1, i) for i in range(s)], P


class TestRadauStep:
    def test_tableau_matches_mpmath(self):
        # every constant within 2 ulp of the tableau derived at 30 digits
        mpmath = pytest.importorskip("mpmath")
        const = vars(_kernels)

        def near(name, value, imag=None):
            got = const[name]
            parts = [(got, value)] if imag is None else [(got.real, value), (got.imag, imag)]
            for g, v in parts:
                assert abs(g - v) <= 2.0 * math.ulp(g), (name, got, value, imag)

        with mpmath.workdps(30):
            C, A_inv, mu_real, mus, T, E, slope, P = _radau_tableau(mpmath)
            tiny = mpmath.mpf(10) ** -25
            assert abs(C[4] - 1) < tiny
            for i in range(4):
                near(f"_C{i + 1}", C[i])
            near("_MU_REAL", mu_real)
            for j, mu in enumerate(mus):
                near(f"_MU{j + 1}", mpmath.re(mu), mpmath.im(mu))
            TI = T**-1
            # TI A^-1 T is block-diagonal: MU_REAL, then per MU = alpha - i
            # beta the block [[alpha, beta], [-beta, alpha]]
            blocks = mpmath.zeros(5, 5)
            blocks[0, 0] = const["_MU_REAL"]
            for j in range(2):
                alpha, beta = const[f"_MU{j + 1}"].real, -const[f"_MU{j + 1}"].imag
                r = 1 + 2 * j
                blocks[r, r] = blocks[r + 1, r + 1] = alpha
                blocks[r, r + 1], blocks[r + 1, r] = beta, -beta
            assert mpmath.norm(TI * A_inv * T - blocks) < 1e-14
            for i in range(4):
                for j in range(5):
                    near(f"_T{i + 1}_{j + 1}", T[i, j])
            assert [T[4, j] for j in range(5)] == [1, 1, 0, 1, 0]
            for j in range(5):
                near(f"_TI{j + 1}", TI[0, j])
                near(f"_TZ1_{j + 1}", TI[1, j], TI[2, j])
                near(f"_TZ2_{j + 1}", TI[3, j], TI[4, j])
                for r in range(4):
                    near(f"_P{r + 1}_{j + 1}", P[r][j])
                # the step reads sum_i E_i u_i as -(F0 + F1), minus the
                # collocation polynomial's slope at the step start
                assert abs(E[j] + slope[j]) < tiny
        # the kernel's TI and T are inverses, T's fifth row (1, 1, 0, 1, 0)
        T_k = [[const[f"_T{i}_{j}"] for j in range(1, 6)] for i in range(1, 5)] + [[1, 1, 0, 1, 0]]
        TI_k = [[const[f"_TI{j}"] for j in range(1, 6)]]
        for pair in ("_TZ1_", "_TZ2_"):
            rows = [const[f"{pair}{j}"] for j in range(1, 6)]
            TI_k += [[z.real for z in rows], [z.imag for z in rows]]
        assert np.max(np.abs(np.array(TI_k) @ np.array(T_k) - np.eye(5))) < 1e-13
        # the kernel's constants are these and no more
        pattern = r"_(C\d|MU\w*|T\d_\d|TI\d|TZ\d_\d|P\d_\d)"
        names = [name for name in const if re.fullmatch(pattern, name)]
        assert len(names) == 4 + 3 + 20 + 5 + 10 + 20

    def test_collocation_passes_through_the_stages(self):
        # P maps each stage increment to the quintic through it: the
        # polynomial of a unit increment at one stage is 1 at its node and 0
        # at the others and at theta = 0
        nodes = [_kernels._C1, _kernels._C2, _kernels._C3, _kernels._C4, 1.0]
        for j in range(5):
            unit = [0.0] * 5
            unit[j] = 1.0
            c = _kernels._collocation(*unit)
            assert _kernels._dense(0.0, 0.0, c) == 0.0
            for i, t in enumerate(nodes):
                assert abs(_kernels._dense(t, 0.0, c) - (i == j)) <= 1e-12

    def test_ninth_order(self):
        # fixed steps over s in [0, 1]: halving h divides the error by ~512;
        # a wrong coefficient drops the order and the ratio with it. The
        # finer error stays 1e4 times above rounding
        _p, pp, X0, W0 = _start(5, 2, -1.0)
        ref = _fixed_steps(_dop853, 2048, X0, W0, pp)
        errs = [
            _chart_error(_fixed_steps(_radau_stepper(), n, X0, W0, pp), ref) for n in (4, 8)
        ]
        assert errs[1] > 1e-12
        assert errs[0] / errs[1] >= 300.0

    def test_keeps_its_order_on_the_stiff_arc(self, integrated):
        # 50 fixed steps of h = 0.054 along the expander's stiff arc from its
        # first sample with h rho(J) >= 23 (s = 4.86), against DOP853 at
        # h = 1.35e-4, below its stability limit: RODAS4, of stage order 1,
        # ends 5.3e-11 off in X; Radau, of stage order 5, keeps the bound
        # in X and in ln Z (0 and 1.3e-13: X ends on DOP853's double; from
        # s = 4.83 4.4e-14 in X, 6.5e-14 at three stages). From the switch
        # (s = 2.24, h rho(J) = 1.8) the same steps end 2.1e-15 off in X
        # (1.0e-11 at three). The arc is the kernel's, run without the
        # slow-manifold series
        p, tr = integrated(4, 1, -1.0)
        pp = _kernels.pack_params(p)
        W = np.log(p.cb * tr.Z)
        h_rho = [
            0.054 * _kernels._spectral_radius(*_kernels.jac(X, w, pp))
            for X, w in zip(tr.X.tolist(), W.tolist())
        ]
        i = int(np.argmax(np.array(h_rho) >= 23.0))
        assert tr.s[i] > tr.stiff_from_s
        X0, W0 = tr.X[i], math.log(p.cb * tr.Z[i])
        span = 50 * 0.054
        ref = _fixed_steps(_dop853, 20_000, X0, W0, pp, s_span=span)
        got = _fixed_steps(_radau_stepper(), 50, X0, W0, pp, s_span=span)
        assert abs(got[0] - ref[0]) <= 1e-12 * ref[0]
        assert abs(got[1] - ref[1]) <= 1e-12

    @pytest.mark.parametrize("n,k,rho,h", [(5, 2, -1.0, 0.05), (4, 1, 1.0, 0.02)])
    def test_sample_count_keeps_the_hermite_within_tol(self, n, k, rho, h):
        # as for DOP853, on a step accepted at the integrator's rtol: the
        # cubic Hermite between the step ends, from the collocation
        # quintic's values and the field there, misses SAMPLE_TOL of the
        # quintic at the midpoint (1.4e-8 and 5.4e-9), so the step takes
        # interior samples, at the nodes C2, C3 and C4 (no piece between
        # them needs cutting here), and the Hermite of each piece then
        # stays within SAMPLE_TOL of the quintic at its midpoint
        _p, pp, X0, W0 = _start(n, k, rho)
        fX, fW = _kernels.rhs(X0, W0, pp)
        zero = (0.0,) * 7
        X1, _W1, err, _n_iter, _n_f, cx, cw = _kernels._radau_step(
            X0, W0, h, fX, fW, zero, zero, 0.0, 1e-10, 1.0, False, pp
        )
        assert err < 1.0
        magX = max(abs(X0), abs(X1))

        s, x, z = np.full(8, -1.0), np.zeros(8), np.zeros(8)
        m = _kernels._collocation_interior(
            s, x, z, 1, 0.0, h, 0.0, 1.0, X0, W0, cx, cw, 1.0, magX, 1.0, 0.0
        )
        t = np.concatenate(([0.0], s[1:m] / h, [1.0]))
        np.testing.assert_allclose(t[1:-1], [_kernels._C2, _kernels._C3, _kernels._C4], rtol=1e-15)
        assert _piece_error(h, X0, W0, cx, cw, pp, 1) > _kernels.SAMPLE_TOL
        assert _piece_error(h, X0, W0, cx, cw, pp, t) <= _kernels.SAMPLE_TOL

    def test_collocation_quintic_meets_the_stages(self):
        # the dense output passes through the step end exactly, and its
        # derivative meets the field at the five nodes
        _p, pp, X0, W0 = _start(5, 2, -1.0)
        fX, fW = _kernels.rhs(X0, W0, pp)
        zero = (0.0,) * 7
        h = 0.01
        X1, W1, err, _n_iter, _n_f, cx, cw = _kernels._radau_step(
            X0, W0, h, fX, fW, zero, zero, 0.0, 1e-10, 1.0, False, pp
        )
        assert err < 1.0
        assert _kernels._dense(1.0, X0, cx) == X1 and _kernels._dense(1.0, W0, cw) == W1
        for t in (_kernels._C1, _kernels._C2, _kernels._C3, _kernels._C4, 1.0):
            g = _kernels.rhs(_kernels._dense(t, X0, cx), _kernels._dense(t, W0, cw), pp)
            for c, gi in zip((cx, cw), g):
                # the quintic's monomial coefficients Q1..Q5 from F0..F4
                f0, f1, f2, f3, f4 = c[:5]
                Q = (f0 + f1, -f1 + f2 + f3, -f2 - 2.0 * f3 + f4, f3 - 2.0 * f4, f4)
                slope = sum((j + 1) * Q[j] * t**j for j in range(5))
                assert abs(slope / h - gi) <= 1e-8 * abs(gi), t


class TestStiffSwitch:
    @pytest.mark.parametrize(
        "n,k,rho,steps", STIFF_SETS, ids=[f"{n}-{k}-{rho}" for n, k, rho, _ in STIFF_SETS]
    )
    def test_stiff_sets_switch(self, n, k, rho, steps, integrated):
        _p, tr = integrated(n, k, rho)
        assert math.isfinite(tr.stiff_from_s)
        assert tr.s[tr.tail_end_index] < tr.stiff_from_s < tr.s[-1]
        assert tr.accepted_steps == steps

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n,k,rho", NON_STIFF_SETS)
    def test_non_stiff_sets_stay_explicit(self, n, k, rho, alpha, run):
        controls = SPIRAL_APPROACH.get((n, k, rho), {})
        _p, _sol, tr, _oc = run(n, k, rho, alpha=alpha, **controls)
        assert math.isnan(tr.stiff_from_s)
        if controls:
            assert tr.status == "s_max"

    @staticmethod
    def _dop853_steps(monkeypatch, n, k, rho, controls=None):
        """The trace at alpha 1 and, for each accepted DOP853 step, its
        length h and h rho(J) at its end, read where the step builds its
        extension (only on the Python kernels). A run into the asymptote
        trap is the kernel's without the slow-manifold series
        (``integrated``)."""
        if _jit.JIT_ENABLED:
            pytest.skip("compiled kernels call each other directly")
        p = phase.make_params(n, k, rho, 1.0)
        pp = _kernels.pack_params(p)
        steps = []
        dense = _kernels._dop853_dense

        def spy(X, W, h, fX, fW, X1, W1, *rest):
            steps.append((h, h * _kernels._spectral_radius(*_kernels.jac(X1, W1, pp))))
            return dense(X, W, h, fX, fW, X1, W1, *rest)

        monkeypatch.setattr(_kernels, "_dop853_dense", spy)
        if rho <= 0.0:
            sol = picard.picard_solve(1.0, p)
            x0, w0 = sol.state_at_s0(p)
            out = orbit._integrate_raw(x0, w0, sol.s0, p, controls or orbit.OrbitControls())
            return orbit.OrbitTrace(*out[:5], **out[5]), steps
        _sol, tr, _oc = orbit.run_orbit(p, controls=controls)
        return tr, steps

    @pytest.mark.parametrize("n,k,rho", [s[:3] for s in STIFF_SETS])
    def test_stiff_sets_switch_while_the_step_shrinks(self, n, k, rho, monkeypatch):
        # the last STIFF_SPAN DOP853 steps each shrink with h rho(J) above
        # STIFF_HRHO_SHRINK, far below the stability limit STIFF_HRHO
        tr, steps = self._dop853_steps(monkeypatch, n, k, rho)
        assert math.isfinite(tr.stiff_from_s)
        span = steps[-_kernels.STIFF_SPAN - 1:]
        for (h_before, _), (h, h_rho) in zip(span, span[1:]):
            assert h < h_before
            assert _kernels.STIFF_HRHO_SHRINK < h_rho < _kernels.STIFF_HRHO

    REGROWTH_SETS = [(4, 1, -1.99, 9), (5, 2, -1.99, 8), (3, 1, -1.99, 10)]

    @pytest.mark.parametrize(
        "n,k,rho,rejected", REGROWTH_SETS, ids=[f"{n}-{k}-{rho}" for n, k, rho, _ in REGROWTH_SETS]
    )
    def test_no_regrowth_after_a_newton_failure(self, n, k, rho, rejected, integrated):
        # Newton fails on the near-degenerate expanders (2 theta + rho =
        # 0.01) where the step regrows at once: the controller rejects 16, 12
        # and 17 steps there with the regrowth allowed. On (4,1,-1) and
        # (5,2,-1) it rejects none either way (11 and 9 Newton failures with
        # the Jacobian at the step start). The arcs are the kernel's, run
        # without the slow-manifold series
        _p, tr = integrated(n, k, rho)
        assert tr.rejected_steps == rejected
        for expander in ((4, 1, -1.0), (5, 2, -1.0)):
            assert integrated(*expander)[1].rejected_steps == 0

    @pytest.mark.parametrize(
        "n,k,rho,steps,s_hand", EXPANDER_HAND_OVERS, ids=["4-1--1.0", "5-2--1.0"]
    )
    def test_expanders_hand_over_before_the_switch(self, n, k, rho, steps, s_hand, run):
        # the slow-manifold series takes the run over while DOP853 still
        # runs (the switch would come at s = 2.24 and 2.67): Radau takes no
        # step, and the kernel's run ends at the hand-over, after 69 and 75
        # accepted steps (100 and 113 up to the asymptote event without it)
        _p, _sol, tr, _oc = run(n, k, rho)
        assert tr.hand_over.s == pytest.approx(s_hand, abs=1e-3)
        assert math.isnan(tr.stiff_from_s) and tr.newton_iterations == 0
        assert tr.accepted_steps == steps

    @pytest.mark.parametrize(
        "n,k,rho,iterations", [(4, 1, -1.0, 197), (5, 2, -1.0, 182)], ids=["4-1--1.0", "5-2--1.0"]
    )
    def test_expanders_take_no_newton_failure(self, n, k, rho, iterations, integrated):
        # up the asymptote the stiff eigenvalue grows like e^W across a
        # step; with the Jacobian at the Newton start's third stage, near
        # the middle of the step, Newton converges on every attempt (343 and
        # 297 iterations with 11 and 9 failures at the step start), on the
        # kernel's run without the slow-manifold series
        _p, tr = integrated(n, k, rho)
        assert tr.newton_failures == 0
        assert tr.newton_iterations == iterations

    def test_accepted_step_shrinks_the_next_at_most_fivefold(self, monkeypatch):
        # the predictive factor reads h/h_acc, h_acc the last accepted step:
        # after a rejection chain the first accepted step would shrink the
        # next by h/h_acc. With the asymptote event off, (64,8,-1) is
        # rejected from h = 0.62 down to 7.2e-11, where h_acc is 1.0, and
        # its next step was 3e-10 times that, under the step floor; radau5
        # bounds the factor below at 0.2 (FACL = 5)
        if _jit.JIT_ENABLED:
            pytest.skip("the spy sees the Python kernels only")
        calls = []
        step = _kernels._radau_step

        def spy(X, W, h, *args):
            calls.append((X, W, h))
            return step(X, W, h, *args)

        monkeypatch.setattr(_kernels, "_radau_step", spy)
        p = phase.make_params(64, 8, -1.0, 1.0)
        _sol, tr, _oc = orbit.run_orbit(p, controls=orbit.OrbitControls(asym_tol=-1.0, s_max=2000.0))
        # a step that starts from a new state follows an accepted one
        accepted = [(a[2], b[2]) for a, b in zip(calls, calls[1:]) if a[:2] != b[:2]]
        assert len(accepted) > 50
        assert all(h_next >= 0.2 * h * (1.0 - 1e-12) for h, h_next in accepted)
        # and the run ends on refused steps at the floor, where its last
        # step started, not on a step after an accepted one
        assert tr.status == "step_floor"
        assert (tr.X[-1], math.log(p.cb * tr.Z[-1])) == pytest.approx(calls[-1][:2], rel=1e-12)

    def test_node_B_switches_by_stability(self, monkeypatch):
        # (12,1,1) still switches where h rho(J) > STIFF_HRHO held on
        # STIFF_SPAN steps that grow toward B, not shrink; the funnel ends the
        # default run at its hand-off, so the ends at B are off, up to about
        # where the band test alone would end it
        controls = orbit.OrbitControls(s_max=23.3, end_at_b=False)
        tr, steps = self._dop853_steps(monkeypatch, 12, 1, 1.0, controls)
        assert tr.stiff_from_s == pytest.approx(12.21, abs=5e-3)
        span = steps[-_kernels.STIFF_SPAN - 1:]
        for (h_before, _), (h, h_rho) in zip(span, span[1:]):
            assert h > h_before and h_rho > _kernels.STIFF_HRHO

    def test_expander_step_count(self, monkeypatch):
        # DOPRI5 alone took 47,265 steps at its stability limit, DOP853 and
        # RODAS4 961. Every rhs call is the start's, 12 of a DOP853 attempt,
        # 3 of a continuous extension, 5 of a Newton iteration of a Radau
        # attempt, 1 per accepted Radau step (at the end of each the run
        # goes on from, and at the asymptote event that ends the last, for
        # the defect there), or 1 of a refined error estimate (counted only
        # on the Python kernels: compiled kernels call each other directly).
        # The run is the kernel's own from the Picard hand-off, without the
        # slow-manifold series, which leaves Radau no step here
        calls = collections.Counter()
        if not _jit.JIT_ENABLED:

            def spy(name, fn):
                def call(*args):
                    out = fn(*args)
                    calls[name] += 1
                    if name == "_radau_step":
                        n_iter, n_f = out[3], out[4]
                        calls["newton"] += n_iter
                        calls["refined"] += n_f - 5 * n_iter
                    return out

                return call

            for name in ("rhs", "_dop853_step", "_radau_step", "_dop853_dense"):
                monkeypatch.setattr(_kernels, name, spy(name, getattr(_kernels, name)))
        p = phase.make_params(4, 1, -1.0, 1.0)
        sol = picard.picard_solve(1.0, p)
        x0, w0 = sol.state_at_s0(p)
        out = orbit._integrate_raw(x0, w0, sol.s0, p, orbit.OrbitControls())
        tr = orbit.OrbitTrace(*out[:5], **out[5])
        assert tr.status == "reached_asymptote" and tr.newton_iterations > 0
        assert tr.accepted_steps <= 290
        if not _jit.JIT_ENABLED:
            # every accepted DOP853 step builds its extension once; events
            # are bisected on the dense output and take no step
            assert calls["_dop853_step"] + calls["_radau_step"] == (
                tr.accepted_steps + tr.rejected_steps
            )
            assert tr.newton_iterations == calls["newton"]
            radau_steps = tr.accepted_steps - calls["_dop853_dense"]
            assert tr.rhs_evals == calls["rhs"] == (
                1 + 12 * calls["_dop853_step"] + 3 * calls["_dop853_dense"]
                + 5 * calls["newton"] + radau_steps + calls["refined"]
            )

    def test_node_B_takes_no_spurious_crossings(self, run):
        # B is a stable node for (12,1,1) (eigenvalues -34.7 and -0.29):
        # the orbit meets X_B at most a few times; DOPRI5 held at its
        # stability limit there chattered across X_B 2,623 times by s = 2000
        _p, _sol, tr, _oc = run(12, 1, 1.0, s_max=2000.0, end_at_b=False)
        assert math.isfinite(tr.stiff_from_s)
        assert len(tr.event_s("crossed_X_B")) < 10
        assert tr.events_dropped == 0


@pytest.fixture(scope="module")
def continued(run, integrated):
    """(n, k, rho, theta) -> (p, trace) of the continuation at alpha 1: the
    trace of ``run_orbit``, or, where the funnel certificate ends that run
    at its hand-off (the theta corners 1e3 and 1e6 of (4,1,1)), a plain
    ``integrate`` from the same Picard tail, which still runs the stiff
    Radau arc to s_max; an expander's or a steady soliton's at theta 1 is
    the kernel's run to its end (``integrated``), whose Radau arc
    ``orbit.integrate`` leaves to the slow-manifold series."""
    cache = {}

    def _continued(n, k, rho, theta):
        key = (n, k, rho, theta)
        if key not in cache:
            if rho <= 0.0 and n > 2 * k and theta == 1.0:
                cache[key] = integrated(n, k, rho)
                return cache[key]
            p, sol, tr, _oc = run(n, k, rho, theta=theta)
            if isinstance(tr.certificate, orbit.FunnelCertificate):
                tr = orbit.integrate(sol, p)
            cache[key] = (p, tr)
        return cache[key]

    return _continued


class TestStepCaps:
    @pytest.mark.parametrize(
        "n,k,rho,most", [(4, 1, 5.0, 260), (4, 2, 1.0, 150), (5, 2, 1.0, 130)]
    )
    def test_dop853_steps_are_accuracy_limited(self, n, k, rho, most, run):
        # spirals into B and the approach to the axis, where a cap of 0.25
        # held DOP853 to 464, 290 and 210 steps. The Poincare return ends the
        # spirals within 70 steps, so they run their SPIRAL_ARCS
        _p, _sol, tr, _oc = run(n, k, rho, **SPIRAL_ARCS.get((n, k, rho), {}))
        assert tr.accepted_steps <= most
        assert tr.h_max > 0.25

    @pytest.mark.parametrize("n,k,rho,theta", [(4, 1, -1.0, 1.0), (4, 1, 0.0, 1.0), (4, 1, 1.0, 1e3)])
    def test_radau_samples_keep_sample_tol(self, n, k, rho, theta, continued):
        # after the switch the samples lie at most MAX_STEP apart (up to
        # the rounding of s), and the cubic Hermite between neighbours, from
        # the samples and the field there, meets the flow from the left one
        # (DOP853 at h rho(J) <= 2, below its stability limit) at the
        # midpoint within SAMPLE_TOL, X relative and ln Z absolute; measured:
        # 9.52e-10, 9.54e-10 and 9.53e-10 at most (at s = 2.38, 3.96 and
        # 3.96): a piece count holds the Hermite within SAMPLE_TOL of the
        # quintic, not far inside it. The expander's and the steady set's
        # arcs are the kernel's runs without the slow-manifold series
        # (``continued``), the steady one to s_max
        p, tr = continued(n, k, rho, theta)
        pp = _kernels.pack_params(p)
        i0 = int(np.searchsorted(tr.s, tr.stiff_from_s))
        s, X = tr.s[i0:], tr.X[i0:]
        W = np.log(p.cb * tr.Z[i0:])
        assert s.size > 80
        h = np.diff(s)
        assert np.all(h <= _kernels.MAX_STEP + np.spacing(s[1:]))
        slopes = np.array([_kernels.rhs(X[j], W[j], pp) for j in range(s.size)])
        mids = s[:-1] + 0.5 * h
        got = [orbit.hermite(s, y, slopes[:, i], mids) for i, y in enumerate((X, W))]
        for j in range(h.size):
            rho_j = _kernels._spectral_radius(*_kernels.jac(X[j], W[j], pp))
            steps = 8 + int(h[j] * (20.0 + 0.25 * rho_j))
            mid = _fixed_steps(_dop853, steps, X[j], W[j], pp, s_span=0.5 * h[j])
            assert _chart_error((got[0][j], got[1][j]), mid) <= _kernels.SAMPLE_TOL, s[j]

    @pytest.mark.parametrize("n,k,rho,theta", BENCH_SETS)
    def test_longest_step(self, n, k, rho, theta, continued):
        _p, tr = continued(n, k, rho, theta)
        assert tr.h_min <= tr.h_max <= _kernels.MAX_STEP


@pytest.fixture(scope="module")
def oracle(run, log_chart):
    """scipy Radau and LSODA (rtol = atol = 1e-13 in (X, ln Z), analytic
    Jacobian) from the first integrator sample X0 to 1 past its last (at
    most to s_max), with the integrator's terminal event: the asymptote for
    n >= 2k, the exit at X = x_cap for n < 2k. The solution's second component is ln Z. LSODA holds X's atol
    at 1e-13 X0 (X only grows from X0): at 1e-13 it lets an X0 of 1e-11
    drift, and its (6,4) exit moves by 6e-9, where Radau's moves by 1e-13."""
    integrate = pytest.importorskip("scipy.integrate")
    cache = {}

    def _solve(n, k, rho, alpha, method, **ctrl):
        key = (n, k, rho, alpha, method, tuple(sorted(ctrl.items())))
        if key not in cache:
            p, _sol, tr, _oc = run(n, k, rho, alpha=alpha, **ctrl)
            asym_tol = orbit.OrbitControls().asym_tol

            def asymptote(_s, y):
                return p.gamma - phase.kth_root(max(y[0], 0.0), p.k) - asym_tol * p.gamma

            asymptote.terminal = True
            asymptote.direction = -1.0

            def exit_(_s, y):
                return y[0] - p.x_cap

            exit_.terminal = True
            exit_.direction = 1.0
            fun, jac = log_chart(p)
            i0 = tr.tail_end_index
            res = integrate.solve_ivp(
                fun,
                (tr.s[i0], min(tr.s[-1] + 1.0, orbit.OrbitControls().s_max)),
                [tr.X[i0], math.log(tr.Z[i0])],
                method=method,
                rtol=1e-13,
                atol=[1e-13 * tr.X[i0], 1e-13] if method == "LSODA" else 1e-13,
                jac=jac,
                events=asymptote if p.n >= 2 * p.k else exit_,
                dense_output=True,
            )
            assert res.success
            cache[key] = (tr, res)
        return cache[key]

    return _solve


@pytest.mark.slow
@pytest.mark.parametrize("method", ["Radau", "LSODA"])
class TestScipyOracle:
    @pytest.mark.parametrize(
        "n,k,rho,targets",
        [
            # 3.5, 3.0 and 4.0, and 10: Radau samples between the switch and
            # the stability limit (s = 4.79, 5.23 and 22.2)
            (4, 1, -1.0, (3.5, 4, 8, 10)),
            (5, 2, -1.0, (3.0, 4, 8, 10)),
            (4, 1, 0.0, (10, 20, 100, 199)),
            # interior samples of DOP853 steps 0.39-1.0 long
            (4, 1, 5.0, (29.5, 52.2, 76.6)),
            (4, 2, 1.0, (6.2, 9.0, 13.0)),
            (5, 2, 1.0, (8.5, 17.0, 23.0)),
        ],
    )
    def test_samples_match(self, n, k, rho, targets, method, oracle):
        # the spirals' targets lie past their certificates, on SPIRAL_ARCS,
        # and (4,1,0)'s on the slow-manifold series' arc past its hand-over
        # at s = 6.21
        ctrl = SPIRAL_ARCS.get((n, k, rho), {})
        tr, res = oracle(n, k, rho, 1.0, method, **ctrl)
        for target in targets:
            j = int(np.argmin(np.abs(tr.s - target)))
            x_ref, ln_z_ref = res.sol(tr.s[j])
            assert abs(tr.X[j] - x_ref) <= 1e-8 * abs(x_ref)
            assert abs(tr.Z[j] - math.exp(ln_z_ref)) <= 1e-8 * math.exp(ln_z_ref)

    @pytest.mark.parametrize("n,k,rho,alpha", [(4, 1, -1.0, 1.0), (5, 2, -1.0, 1.0), (4, 2, -1.0, 0.5)])
    def test_asymptote_is_bisected(self, n, k, rho, alpha, method, oracle):
        # stopping at the step end left s_end 2.0e-5, 3.9e-5 and 1.3e-2 late
        tr, res = oracle(n, k, rho, alpha, method)
        assert tr.status == "reached_asymptote"
        assert abs(tr.s[-1] - res.t_events[0][0]) <= 1e-5

    @pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (6, 4)])
    def test_exit_is_located(self, n, k, method, oracle):
        # the exit is bisected on the continuous extension; on the cubic
        # Hermite s_exit was 2-4e-11 off
        tr, res = oracle(n, k, 1.0, 1.0, method)
        assert tr.status == "exited_region"
        assert abs(tr.s[-1] - res.t_events[0][0]) <= 1e-9


@pytest.mark.slow
@pytest.mark.parametrize(
    "n,k,rho", [(4, 1, 5.0), (5, 2, 1.0), (4, 1, 10.0), (4, 1, 1.0), (7, 3, 2.0), (9, 4, 1.99)]
)
def test_upward_returns_lie_within_the_certificate_bound(n, k, rho, run, oracle):
    # the Z of every upward return to X = X_B against Radau's, within the
    # bound the Poincare-return certificate puts on it: CERT_SAFETY rtol Z
    # per accepted step up to the return. The steps are counted by a run
    # that stops there. Each set ends certified at its second return
    brentq = pytest.importorskip("scipy.optimize").brentq
    p, sol, tr, _oc = run(n, k, rho)
    _tr, res = oracle(n, k, rho, 1.0, "Radau")
    controls = orbit.OrbitControls()
    ups = [s for s in tr.event_s("crossed_X_B") if tr.X[np.searchsorted(tr.s, s) - 1] < p.X_B]
    assert len(ups) >= 2
    for s in ups:
        steps = orbit.integrate(sol, p, orbit.OrbitControls(s_max=s)).accepted_steps
        z = tr.Z[np.searchsorted(tr.s, s)]
        s_ref = brentq(lambda t: res.sol(t)[0] - p.X_B, s - 0.05, s + 0.05, xtol=1e-14)
        z_ref = math.exp(res.sol(s_ref)[1])
        assert abs(z - z_ref) <= _kernels.CERT_SAFETY * controls.rtol * steps * z_ref, s
    assert tr.status == "certified_B" and tr.certificate[2] == ups[-1]
