"""Phase-plane layer: derived constants, the vector field and its charts,
Jacobians and critical points, pinned to hand-derived values."""

import math

import numpy as np
import pytest

from ksol import _kernels, phase
from ksol.errors import DomainError, NotApplicableError, ParameterError

RNG = np.random.default_rng(42)


def fd_jacobian(state, p, eps=1e-6):
    X, Z = state
    out = np.empty((2, 2))
    for j, d in enumerate(((eps, 0.0), (0.0, eps))):
        hi = phase.system_rhs((X + d[0], Z + d[1]), p)
        lo = phase.system_rhs((X - d[0], Z - d[1]), p)
        out[:, j] = [(hi[0] - lo[0]) / (2 * eps), (hi[1] - lo[1]) / (2 * eps)]
    return out


class TestMakeParams:
    def test_steady_reference_values(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        assert p.m == pytest.approx(1.0 / 3.0)
        assert p.beta == pytest.approx(2.0 / 3.0)
        assert p.gamma == pytest.approx(3.0)
        assert p.X_A == pytest.approx(6.0)
        assert p.X_B == pytest.approx(3.0)
        assert p.c_nk == pytest.approx(3.0)
        assert p.Z_B is None

    def test_shrinker_reference_values(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        assert p.gamma == pytest.approx(4.5)
        assert p.Z_B == pytest.approx(1.0)

    def test_precondition_violations(self):
        with pytest.raises(ParameterError, match="2\\*theta \\+ rho"):
            phase.make_params(4, 1, -3.0, 1.0)
        with pytest.raises(ParameterError, match="theta"):
            phase.make_params(4, 1, 1.0, 0.0)
        with pytest.raises(ParameterError):
            phase.make_params(2, 1, 0.0, 1.0)
        with pytest.raises(ParameterError):
            phase.make_params(4, 5, 0.0, 1.0)

    def test_gamma_xb_ordering_tracks_rho_sign(self):
        for rho, theta in [(-0.5, 1.0), (0.0, 0.7), (1.3, 1.0), (4.0, 1.5)]:
            for n, k in [(4, 1), (5, 2), (4, 2), (3, 2)]:
                p = phase.make_params(n, k, rho, theta)
                if rho < 0:
                    assert p.gamma < p.x_B
                elif rho == 0:
                    assert p.gamma == pytest.approx(p.x_B)
                else:
                    assert p.gamma > p.x_B

    def test_zb_only_above_critical_dimension(self):
        assert phase.make_params(4, 2, 1.0, 1.0).Z_B is None
        assert phase.make_params(3, 2, 1.0, 1.0).Z_B is None
        assert phase.make_params(5, 2, -1.0, 1.0).Z_B is not None

    def test_charts_differ_only_in_the_profile_data(self):
        p = phase.make_params(5, 2, 3.0, 1.0)
        a = p.in_chart("WV")
        assert p.chart == "XZ" and p.in_chart("XZ") is p and a.in_chart("XZ") == p
        assert (p.num_a, p.num_b, p.profile0) == (p.gamma, -1.0, p.f0)
        assert (a.num_a, a.num_b, a.profile0) == (p.nu, 1.0, p.h0)
        assert (p.picard_cap, a.picard_cap) == (min(p.gamma_k, p.X_B), p.X_B)
        assert p.b_attracts and not a.b_attracts
        assert (a.gamma, a.X_B, a.Z_B, a.x_cap) == (p.gamma, p.X_B, p.Z_B, p.x_cap)
        with pytest.raises(ParameterError):
            p.in_chart("AB")


class TestProfiles:
    def test_f_reference_values(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        assert phase.profile_at(0.0, p) == pytest.approx(6.0)
        assert phase.profile_at(1.0, p) == pytest.approx(4.0)
        assert phase.profile_at(p.gamma, p) == pytest.approx(0.0, abs=1e-14)

    def test_f_vanishes_at_gamma_all_k(self):
        for n, k, rho in [(5, 2, 1.0), (4, 2, -0.5), (7, 3, 0.0)]:
            p = phase.make_params(n, k, rho, 1.0)
            assert phase.profile_at(p.gamma, p) == pytest.approx(0.0, abs=1e-12)

    def test_f_strictly_decreasing_k1(self):
        p = phase.make_params(6, 1, 0.8, 1.2)
        xs = np.linspace(0.0, p.gamma, 400)
        vals = [phase.profile_at(x, p) for x in xs]
        assert np.all(np.diff(vals) < 0.0)

    def test_h_reference_values(self):
        p = phase.make_params(4, 1, 5.0, 1.0)
        assert p.nu == pytest.approx(4.5)
        assert phase.profile_at(0.0, p.in_chart("WV")) == pytest.approx(9.0)
        p2 = phase.make_params(4, 1, 2.0, 1.0)
        assert p2.nu == pytest.approx(0.0)
        assert phase.profile_at(0.0, p2.in_chart("WV")) == pytest.approx(0.0)

    def test_h_nonnegative_on_domain(self):
        p = phase.make_params(5, 2, 5.0, 1.0)
        for w in np.linspace(0.0, p.x_A * 0.99, 300):
            assert phase.profile_at(w, p.in_chart("WV")) >= 0.0

    def test_domain_errors(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        with pytest.raises(DomainError):
            phase.profile_at(p.x_A, p)
        with pytest.raises(DomainError):
            phase.profile_at(-0.1, p.in_chart("WV"))


class TestSystemRHS:
    def test_origin_is_critical(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        assert phase.system_rhs((0.0, 0.0), p) == (0.0, 0.0)

    def test_A_is_critical_for_n_above_2k(self):
        for n, k in [(4, 1), (5, 2), (7, 3)]:
            p = phase.make_params(n, k, 0.5, 1.0)
            F, G = phase.system_rhs((p.X_A, 0.0), p)
            assert abs(F) < 1e-10 and G == 0.0

    def test_B_is_critical(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        F, G = phase.system_rhs((3.0, 1.0), p)
        assert abs(F) < 1e-12 and abs(G) < 1e-12
        assert phase.profile_at(3.0, p) == pytest.approx(3.0)

    def test_first_term_vanishes_for_n_eq_2k(self):
        p = phase.make_params(4, 2, 1.0, 1.0)
        for X in (0.5, 2.0, 5.0):
            F, _ = phase.system_rhs((X, 0.0), p)
            assert F == 0.0

    def test_negative_X_rejected(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        with pytest.raises(DomainError):
            phase.system_rhs((-0.1, 1.0), p)

    def test_A_chart_reference(self):
        p = phase.make_params(4, 1, 5.0, 1.0)
        W_s, V_s = phase.system_rhs((1.0, 0.0), p.in_chart("WV"))
        assert W_s == pytest.approx(5.0 / 3.0)
        assert V_s == 0.0
        assert phase.system_rhs((0.0, 0.0), p.in_chart("WV")) == (0.0, 0.0)

    def test_A_chart_domain(self):
        # off the axis the A chart needs w < x_A: h's numerator nu + x never
        # vanishes there, unlike f's gamma - x at rho = 2 theta
        for rho in (2.0, 5.0):
            a = phase.make_params(4, 1, rho, 1.0).in_chart("WV")
            with pytest.raises(DomainError):
                phase.system_rhs((a.X_A, 1.0), a)
            # on the axis every w is evaluated: W_s = (n-2k) W (1 - w/x_A), x_A = 6
            assert phase.system_rhs((9.0, 0.0), a) == (-9.0, 0.0)

    # rho = 2 theta: the stationary line at X_A; rho = 5 theta: no field there
    @pytest.mark.parametrize("n,k,rho", [(4, 1, 2.0), (9, 4, 2.0), (4, 1, 5.0), (4, 2, 1.0)])
    @pytest.mark.parametrize("chart", ["XZ", "WV"])
    def test_array_domain_is_system_rhs(self, n, k, rho, chart):
        # field_in_domain is system_rhs on arrays, bit for bit, NaN where
        # it raises: on the axis, at X = X_A and past it, and at X < 0
        p = phase.make_params(n, k, rho, 1.0).in_chart(chart)
        X = np.repeat(np.append(np.linspace(-0.5, 1.0, 7) * p.X_A, p.X_A * 1.5), 4)
        Z = np.tile([0.0, 1e-3, 1.0, 7.0], 8)
        F, G = phase.field_in_domain(X, Z, p)
        for i in range(X.size):
            try:
                want = phase.system_rhs((X[i], Z[i]), p)
            except DomainError:
                assert np.isnan(F[i]) and np.isnan(G[i]), (X[i], Z[i])
            else:
                got = (F[i], G[i])
                assert got == want and np.array_equal(np.signbit(got), np.signbit(want)), got

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (7, 3), (12, 4)])
    # ids 0 and 1 name the origin and the A chart
    @pytest.mark.parametrize("chart", ["XZ", "WV"], ids=["0", "1"])
    @pytest.mark.parametrize("rho", [-0.5, 3.0])
    def test_array_field_matches_kernel(self, n, k, chart, rho):
        # the integrator's scalar field runs in the log chart W = ln(c_nk
        # beta^k Z): its X_s is the array field's F with e^W for c_nk beta^k Z,
        # which differ by an ulp that the cancellation in X_s can amplify, and
        # its W_s is G/Z
        p = phase.make_params(n, k, rho, 1.0)
        cp = p.in_chart(chart)
        pp = _kernels.pack_params(cp)
        X, Z = np.meshgrid(
            np.linspace(0.0, 0.999 * p.x_cap, 41), np.geomspace(1e-6, 1e3, 30)
        )
        X, Z = X.ravel(), Z.ravel()
        F, G = phase.vector_field(X, Z, cp)
        ref = np.array([_kernels.rhs(a, math.log(p.cb * b), pp) for a, b in zip(X, Z)])
        scale = np.max(np.abs(ref[:, 0]))
        np.testing.assert_allclose(F, ref[:, 0], rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(G / Z, ref[:, 1], rtol=1e-13, atol=1e-13 * 2 * k)
        if chart == "WV":
            for i in range(0, X.size, 37):
                assert phase.system_rhs((X[i], Z[i]), cp) == (-F[i], -G[i])

    @pytest.mark.parametrize("n,k,rho", [(4, 1, 5.0), (5, 2, 3.0), (6, 1, 10.0)])
    @pytest.mark.parametrize("chart", ["XZ", "WV"])
    def test_profile_slope_matches_central_differences(self, n, k, rho, chart):
        # the slope sets Picard's Lipschitz constant M and dF/dX of the Jacobian
        p = phase.make_params(n, k, rho, 1.0).in_chart(chart)
        x = np.linspace(0.0, 0.95 * p.x_B, 97)
        d = 1e-6 * p.x_B
        fd = (phase.profile_value(x + d, p) - phase.profile_value(x - d, p)) / (2.0 * d)
        np.testing.assert_allclose(
            phase.profile_slope(x, p), fd, rtol=1e-7, atol=1e-7 * np.max(np.abs(fd))
        )

    def test_A_chart_pullback_consistency(self):
        # X = (x_A - w)^k, Z = V maps the A-chart field to the XZ field:
        # dX/ds = -k (x_A - w)^(k-1) dw/ds with dw/ds = W_s W^((1-k)/k)/k
        for n, k, rho in [(4, 1, 5.0), (5, 2, 6.0), (3, 2, 5.0)]:
            p = phase.make_params(n, k, rho, 1.0)
            for _ in range(100):
                w = float(RNG.uniform(0.05, 0.95) * p.x_A)
                V = float(RNG.uniform(0.01, 2.0))
                W = w**k
                X = (p.x_A - w) ** k
                if X >= p.x_cap or X <= 0.0:
                    continue
                W_s, V_s = phase.system_rhs((W, V), p.in_chart("WV"))
                F, G = phase.system_rhs((X, V), p)
                # chain rule: dX/ds = -k (x_A - w)^(k-1) dw/ds
                dxds = -k * (p.x_A - w) ** (k - 1) * (W_s * w ** (1 - k) / k)
                assert F == pytest.approx(dxds, rel=1e-9, abs=1e-9)
                # V = Z evolves identically in both charts (same flow, same s)
                assert V_s == pytest.approx(G, rel=1e-9, abs=1e-12)


def _exact_field(X, Z, p):
    """(F, G) of the exact parameter set (n, k, rho, theta) at the float
    point (X, Z), in mpmath at 50 digits, in the chart of ``p``; None at
    x = x_A."""
    import mpmath as mp

    with mp.workdps(50):
        n, k = p.n, p.k
        rho, theta = mp.mpf(p.rho), mp.mpf(p.theta)
        beta = (1 - mp.mpf(n - 2 * k) / (n + 2 * k)) * theta
        gamma = (mp.mpf(n + 2 * k) / k) * (2 * theta + rho) / (4 * theta)
        cnk = mp.mpf(n + 2 * k) / (2**k * mp.binomial(n - 1, k - 1)) * (mp.mpf(k) / (n + 2 * k)) ** (1 - k)
        x_A = mp.mpf(n + 2 * k) / k
        num = gamma - x_A + mp.mpf(X) ** (mp.mpf(1) / k) if p.chart == "WV" else gamma - mp.mpf(X) ** (mp.mpf(1) / k)
        x = mp.mpf(X) ** (mp.mpf(1) / k)
        q = 1 - x / x_A
        if q == 0:
            return None  # exactly x_A: off the domain
        f = cnk * beta**k * q * (num / q) ** k
        return -(n - 2 * k) * q * X + Z * f, 2 * k * Z * (1 - 2 * x / x_A)


class TestFieldRounding:
    @pytest.mark.slow
    @pytest.mark.parametrize("chart", ["XZ", "WV"])
    @pytest.mark.parametrize(
        "n,k,rho,theta",
        [
            (4, 1, 1.0, 1.0), (3, 1, -1e-3, 1e-3), (6, 1, 5.0, 1.0), (5, 2, -1.0, 1.0),
            (4, 2, 1.0, 1.0), (9, 4, 2.0, 1.0), (7, 3, 1.0, 1.0), (9, 3, -0.5, 1e3),
            (33, 16, -1.99, 1.0), (33, 16, 1.0, 1.0), (64, 16, 3e-3, 1e-3), (64, 60, 10.0, 1e-3),
        ],
    )
    def test_bound_against_mpmath(self, n, k, rho, theta, chart):
        # the float field against the exact one at 50 digits: x near gamma
        # (and near -nu, where h vanishes), near x_A and spread over
        # (0, x_A), X over 1e-300 to 1e9, Z over 1e-300 to 1e8
        p = phase.make_params(n, k, rho, theta).in_chart(chart)
        rng = np.random.default_rng(n * 100 + k)
        xs = list(rng.uniform(0.0, 1.0, 12) * p.x_A)
        for j in range(1, 14):
            near = 10.0**-j
            xs += [p.x_A * (1.0 - near)]
            xs += [p.gamma * (1.0 - near), p.gamma * (1.0 + near)]
            xs += [-p.nu * (1.0 - near), -p.nu * (1.0 + near)]
        Xs = [x**k for x in xs if 0.0 < x < p.x_A] + [p.gamma_k, p.X_B] + list(np.logspace(-300, 9, 12))
        Xs = np.array([X for X in Xs if phase.kth_root(X, k) < p.x_A])
        X = np.repeat(Xs, 4)
        Z = np.tile([1e-300, 1e-20, 1.0, 1e8], Xs.size)
        F, G = phase.vector_field(X, Z, p)
        rF, rG = phase.field_rounding(X, Z, p)
        checked, worst = 0, 0.0
        for i in np.flatnonzero(np.isfinite(F)):
            exact = _exact_field(X[i], Z[i], p)
            if exact is None:
                continue
            F_exact, G_exact = exact
            assert abs(F[i] - F_exact) <= rF[i], (X[i], Z[i], F[i], float(F_exact), rF[i])
            assert abs(G[i] - G_exact) <= rG[i], (X[i], Z[i], G[i], float(G_exact), rG[i])
            checked += 1
            worst = max(worst, abs(F[i] - F_exact) / rF[i], abs(G[i] - G_exact) / rG[i])
        # and not a vacuous one: within 30 times the worst error seen
        assert checked > 100 and worst > 1.0 / 30.0

    def test_finite_where_the_profile_vanishes(self):
        # at n = 2k and x = gamma in floats F reads 0, and so may its bound;
        # the bound is the numerator's mean value term there, not 0 * inf
        for n, k, rho in [(4, 2, 1.0), (4, 1, -1.0), (33, 16, -1.99)]:
            p = phase.make_params(n, k, rho, 1.0)
            rF, rG = phase.field_rounding(np.array([p.gamma_k]), np.array([2.0]), p)
            assert np.isfinite(rF[0]) and rF[0] > 0.0 and np.isfinite(rG[0])

    def test_profile_past_the_float_range(self):
        # (64,60) with rho/theta = 1e4: near x_A the k-fold power of g
        # overflows. At theta 1e-3, c_nk beta^k = 1.2e-166 brings f back
        # into range, and the power is formed in logs; at theta 1 f itself
        # is past the range and reads inf. Neither warns
        for theta in (1e-3, 1.0):
            p = phase.make_params(64, 60, 1e4 * theta, theta)
            x = p.x_A * np.array([0.3, 0.6, 0.9, 0.95, 0.99, 0.999])
            q, g = phase._profile_ratio(x, p)
            log_f = math.log(p.cb) + np.log(q) + p.k * np.log(g)
            f = phase.profile_value(x, p)
            inside = log_f < 709.0
            np.testing.assert_allclose(np.log(f[inside]), log_f[inside], rtol=1e-13)
            assert np.all(np.isinf(f[~inside]))
            assert phase.profile_value(float(x[-2]), p) == f[-2]
            assert not np.any(np.isnan(phase.profile_slope(x, p)))
            # verify's field points
            rng = np.random.default_rng(7)
            X = rng.uniform(0.05, 0.95, 1000) * p.x_cap
            Z = rng.uniform(0.05, 2.0, 1000)
            F, G = phase.vector_field(X, Z, p)
            rF, rG = phase.field_rounding(X, Z, p)
            phase.jacobian((X, Z), p)
            assert np.all(np.isfinite(G) & np.isfinite(rG)) and not np.any(np.isnan(rF))
        p = phase.make_params(64, 60, 10.0, 1e-3)
        assert np.any(p.k * np.log(phase._profile_ratio(x, p)[1]) > 709.8)


class TestJacobian:
    def test_matches_finite_differences(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        J = phase.jacobian((1.0, 1.0), p)
        np.testing.assert_allclose(J, fd_jacobian((1.0, 1.0), p), rtol=1e-6, atol=1e-6)

    def test_matches_fd_randomized(self):
        for n, k, rho in [(4, 1, -0.5), (5, 2, 1.0), (4, 2, 0.3), (3, 2, 4.0)]:
            p = phase.make_params(n, k, rho, 1.0)
            for _ in range(250):
                X = float(RNG.uniform(0.05, 0.95) * p.x_cap)
                Z = float(RNG.uniform(0.05, 3.0))
                J = phase.jacobian((X, Z), p)
                fd = fd_jacobian((X, Z), p)
                assert np.max(np.abs(J - fd) / (1.0 + np.abs(fd))) < 1e-6

    def test_structural_entries(self):
        p = phase.make_params(5, 2, 1.0, 1.0)
        J = phase.jacobian((p.X_B, 0.7), p)
        assert J[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert J[0, 1] == pytest.approx(phase.profile_at(p.x_B, p))

    def test_boundary_rejected(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        with pytest.raises(DomainError):
            phase.jacobian((0.0, 1.0), p)
        with pytest.raises(DomainError):
            phase.jacobian((p.X_A, 1.0), p)


class TestRestrictedJacobians:
    def test_origin_reference(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        lin = phase.restricted_jacobian_origin(p)
        assert sorted(e.real for e in lin.eigenvalues) == [-2.0, 2.0]
        assert lin.eigenvectors[0] == pytest.approx((1.0, 2.0 / 3.0))
        assert lin.kind == phase.SADDLE

    def test_origin_degenerate_and_source(self):
        assert phase.restricted_jacobian_origin(phase.make_params(4, 2, 0.0, 1.0)).kind == phase.DEGENERATE
        lin = phase.restricted_jacobian_origin(phase.make_params(3, 2, 1.0, 1.0))
        assert lin.kind == phase.SOURCE
        assert all(e.real > 0 for e in lin.eigenvalues)

    def test_A_restricted(self):
        p = phase.make_params(4, 1, 5.0, 1.0)
        lin = phase.restricted_jacobian_origin(p.in_chart("WV"))
        assert lin.kind == phase.SADDLE
        assert lin.eigenvectors[0] == pytest.approx((1.0, p.n / p.h0))

    # n > 2k, n = 2k, n < 2k, and h(0) = 0 at rho = 2 theta for n > 2k and n = 2k
    @pytest.mark.parametrize(
        "n,k,rho", [(4, 1, 5.0), (4, 2, 5.0), (3, 2, 5.0), (4, 1, 2.0), (4, 2, 2.0)]
    )
    def test_A_closed_form_without_negative_zero(self, n, k, rho):
        p = phase.make_params(n, k, rho, 1.0)
        lin = phase.restricted_jacobian_origin(p.in_chart("WV"))
        np.testing.assert_array_equal(lin.matrix, [[n - 2 * k, -p.h0], [0.0, -2 * k]])
        assert lin.eigenvalues == (complex(-2 * k), complex(n - 2 * k))
        want = (1.0, n / p.h0) if p.h0 > 0.0 else None
        assert lin.eigenvectors == (want, (1.0, 0.0))
        kinds = {1: phase.SADDLE, 0: phase.DEGENERATE, -1: phase.ATTRACTOR}
        assert lin.kind == kinds[int(np.sign(n - 2 * k))]
        zeros = [float(v) for v in lin.matrix.ravel()]
        zeros += [part for e in lin.eigenvalues for part in (e.real, e.imag)]
        zeros += [v for vec in lin.eigenvectors if vec is not None for v in vec]
        assert all(math.copysign(1.0, v) > 0.0 for v in zeros if v == 0.0)

    def test_B_reference(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        lin = phase.jacobian_B(p)
        assert lin.trace == pytest.approx(-3.0)
        assert lin.determinant == pytest.approx(2.0)
        assert sorted(e.real for e in lin.eigenvalues) == pytest.approx([-2.0, -1.0])
        assert all(abs(e.imag) < 1e-14 for e in lin.eigenvalues)
        assert lin.kind == phase.ATTRACTOR

    def test_B_determinant_positive_and_offdiag_product(self):
        for n, k, rho in [(4, 1, 0.5), (5, 2, 2.0), (7, 2, 1.0)]:
            p = phase.make_params(n, k, rho, 1.0)
            lin = phase.jacobian_B(p)
            assert lin.determinant == pytest.approx(n - 2 * k)
            assert lin.matrix[0, 1] * lin.matrix[1, 0] == pytest.approx(-(n - 2 * k))
            assert lin.trace < 0.0

    def test_B_not_applicable(self):
        with pytest.raises(NotApplicableError):
            phase.jacobian_B(phase.make_params(4, 2, 1.0, 1.0))
        with pytest.raises(NotApplicableError):
            phase.jacobian_B(phase.make_params(4, 1, 0.0, 1.0))


class TestDulacFunction:
    """mu = Z^b q^(k-1), with b + 1 = (n-2k)/(2k) and q = 1 - x/x_A, turns
    the field into one of divergence

        div(mu (F, G)) = -c_nk beta^k Z^(b+1) (gamma - x)^(k-1) x/X,

    negative on the admissible region: by the Bendixson-Dulac criterion it
    holds no periodic orbit. The Poincare-return certificate of convergence
    to B (``_kernels.certifies_b``) rests on this."""

    # the corpus pairs with n > 2k, where B exists at rho > 0
    PAIRS = [(3, 1), (4, 1), (6, 1), (5, 2), (7, 3), (9, 4), (12, 4), (33, 16), (64, 8)]

    @pytest.mark.parametrize("n,k", PAIRS)
    @pytest.mark.parametrize("ratio", [1e-2, 1.0, 1e2, 1e4, 1e6])
    def test_divergence_is_negative_and_closed_form(self, n, k, ratio):
        p = phase.make_params(n, k, ratio, 1.0)
        b = (n - 2 * k) / (2 * k) - 1.0
        rng = np.random.default_rng(19)
        # 4,000 admissible points, at least 1e-3 x_cap inside the X-range:
        # there central differences with steps 1e-5 X and 1e-5 Z keep their
        # error below 1e-3 of the terms they sum (measured: 9e-5)
        X = p.x_cap * rng.uniform(1e-3, 1.0 - 1e-3, 4000)
        Z = p.Z_B * 10.0 ** rng.uniform(-3.0, 3.0, 4000)

        def mu_field(X, Z):
            F, G = phase.vector_field(X, Z, p)
            mu = Z**b * (1.0 - phase.kth_root(X, k) / p.x_A) ** (k - 1)
            return mu * F, mu * G

        hx, hz = 1e-5 * X, 1e-5 * Z
        d_x = (mu_field(X + hx, Z)[0] - mu_field(X - hx, Z)[0]) / (2.0 * hx)
        d_z = (mu_field(X, Z + hz)[1] - mu_field(X, Z - hz)[1]) / (2.0 * hz)
        div = d_x + d_z
        tol = 1e-3 * (np.abs(d_x) + np.abs(d_z))
        x = phase.kth_root(X, k)
        closed = -p.cb * Z ** (b + 1.0) * (p.gamma - x) ** (k - 1) * x / X
        assert np.all(closed < 0.0)
        assert np.all(div <= tol)
        assert np.all(np.abs(div - closed) <= tol)


class TestCriticalPoints:
    def test_shrinker_membership(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        pts = {cp.name: cp for cp in phase.critical_points(p)}
        assert pts["B"].location == pytest.approx((3.0, 1.0))
        assert pts["B"].in_admissible_region
        assert not pts["A"].in_admissible_region  # gamma^k = 4.5 < 6
        assert not pts["O"].in_admissible_region

    def test_B_absent_for_steady(self):
        names = {cp.name for cp in phase.critical_points(phase.make_params(4, 1, 0.0, 1.0))}
        assert names == {"O", "A"}

    def test_A_inside_for_large_rho(self):
        pts = {cp.name: cp for cp in phase.critical_points(phase.make_params(4, 1, 5.0, 1.0))}
        assert pts["A"].in_admissible_region

    def test_degenerate_line_for_n_eq_2k(self):
        p = phase.make_params(4, 2, 1.0, 1.0)
        pts = {cp.name: cp for cp in phase.critical_points(p)}
        assert pts["axis"].kind == phase.DEGENERATE_LINE
        assert pts["axis"].extent == pytest.approx((0.0, p.x_cap))
        # every point of the segment is genuinely critical
        for X in np.linspace(0.0, p.x_cap, 9):
            F, G = phase.system_rhs((X, 0.0), p)
            assert abs(F) < 1e-12 and G == 0.0

    def test_n_below_2k_has_O_and_A_only(self):
        names = {cp.name for cp in phase.critical_points(phase.make_params(3, 2, 5.0, 1.0))}
        assert names == {"O", "A"}

    def test_field_vanishes_only_at_critical_points(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        for _ in range(1000):
            X = float(RNG.uniform(0.01, 0.99) * p.x_cap)
            Z = float(RNG.uniform(0.01, 3.0))
            if max(abs(X - p.X_B), abs(Z - p.Z_B)) < 1e-3:
                continue
            F, G = phase.system_rhs((X, Z), p)
            assert max(abs(F), abs(G)) > 0.0


class TestRegionAndStructure:
    def test_membership_examples(self):
        p0 = phase.make_params(4, 1, 0.0, 1.0)
        assert phase.in_admissible_region((p0.gamma_k / 2.0, 1.0), p0)
        p = phase.make_params(4, 1, 5.0, 1.0)
        assert not phase.in_admissible_region((1.0, 0.0), p)
        # gamma^k = 10.5 but X_A = 6 caps the region
        assert not phase.in_admissible_region((7.0, 1.0), p)
        assert phase.in_admissible_region((5.9, 1.0), p)

    def test_asymptote_repulsion(self):
        for n, k, rho, theta in [(4, 1, -1.0, 1.0), (4, 1, 1.5, 1.0), (5, 2, 0.0, 0.8), (4, 2, 1.0, 1.0)]:
            p = phase.make_params(n, k, rho, theta)
            for Z in np.linspace(0.1, 10.0, 23):
                F, _ = phase.system_rhs((p.gamma_k, Z), p)
                if n > 2 * k:
                    assert F < 0.0
                else:
                    assert F == pytest.approx(0.0, abs=1e-12)

    def test_asymptote_repulsion_degenerates_at_rho_eq_2theta(self):
        # at rho = 2 theta the asymptote coincides with X_A and the strict
        # repulsion degenerates: X_s = 0 exactly on the line
        p = phase.make_params(4, 1, 2.0, 1.0)
        for Z in (0.5, 2.0, 10.0):
            F, G = phase.system_rhs((p.gamma_k, Z), p)
            assert F == 0.0
            assert G < 0.0

    def test_zs_sign_structure(self):
        p = phase.make_params(5, 2, 1.0, 1.0)
        for X in np.linspace(0.01, p.x_cap * 0.99, 200):
            _, G = phase.system_rhs((X, 1.3), p)
            assert (G > 0.0) == (X < p.X_B)
        _, G = phase.system_rhs((p.X_B, 1.3), p)
        assert G == pytest.approx(0.0, abs=1e-12)

    def test_eig2x2_complex_pair(self):
        ev = phase.eig2x2(((0.0, 1.0), (-1.0, 0.0)))
        assert ev[0] == pytest.approx(1j)
        assert ev[1] == pytest.approx(-1j)

    @pytest.mark.parametrize("n,k", [(6, 1), (12, 4)])
    def test_eig2x2_double_root_at_B(self, n, k):
        # rho = theta: B is a node with the double eigenvalue -2; on (12,4)
        # the discriminant rounds to -3.6e-15, which is no complex pair
        p = phase.make_params(n, k, 1.0, 1.0)
        assert phase.eig2x2(phase.jacobian((p.X_B, p.Z_B), p)) == (-2.0, -2.0)

    def test_phase_state_unpacks(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        state = phase.PhaseState(3.0, 1.0, s=0.0)
        assert phase.system_rhs(state, p) == phase.system_rhs((3.0, 1.0), p)
        assert phase.in_admissible_region(state, p)
