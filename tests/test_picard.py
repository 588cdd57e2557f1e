"""Contraction-mapping layer. The quadrature is pinned by manufactured
integrands with closed-form integrals, and the k=1 fixed point by an
independent power-series oracle derived directly from the ODE system."""

import math

import numpy as np
import pytest

from ksol import phase, picard, profile
from ksol.errors import DomainError, NotApplicableError, ParameterError
from ksol.picard import _cumulative_product

RNG = np.random.default_rng(7)


def exact_cumulative(coeffs, mu, tau):
    """int_0^tau (c0 + c1 s + c2 s^2 + c3 s^3) e^(mu s) ds, exact."""
    out = np.zeros_like(tau)
    M = None
    for j, c in enumerate(coeffs):
        if j == 0:
            M = (np.exp(mu * tau) - 1.0) / mu
        else:
            M = (tau**j * np.exp(mu * tau) - j * M) / mu
        out += c * M
    return out


class TestQuadrature:
    @pytest.mark.parametrize("mu", [2.0, 7.0, 11.0])
    def test_exact_on_cubic_times_exponential(self, mu):
        # the production integrands behave like (smooth) * e^(mu t); the
        # rule must integrate the cubic class exactly
        h = 12.0 / 511.0
        t = np.arange(512) * h
        coeffs = (0.7, -1.3, 0.25, 0.04)
        y = (coeffs[0] + coeffs[1] * t + coeffs[2] * t**2 + coeffs[3] * t**3) * np.exp(mu * t)
        got = _cumulative_product(y, h, mu)
        want = exact_cumulative(coeffs, mu, t)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) / scale < 1e-10

    def test_order_on_transcendental_factor(self):
        mu = 6.0
        want_fn = lambda t: (np.exp(mu * t) * (mu * np.sin(t) - np.cos(t)) + 1.0) / (mu * mu + 1.0)
        errs = []
        for n_pts in (512, 1024):
            h = 12.0 / (n_pts - 1)
            t = np.arange(n_pts) * h
            y = np.sin(t) * np.exp(mu * t)
            got = _cumulative_product(y, h, mu)
            errs.append(np.max(np.abs(got - want_fn(t))) / np.max(np.abs(want_fn(t))))
        assert errs[0] < 1e-8
        # fourth-order convergence, give or take
        assert errs[1] < errs[0] / 8.0


class TestThresholds:
    def test_s1_reference(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        th = picard.thresholds(1.0, p)
        assert th.s1 == pytest.approx(0.5 * math.log(1.5), rel=1e-12)
        assert th.s0 == min(th.s1, th.s2, th.s3)

    def test_s1_monotone_in_alpha(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        prev = math.inf
        for alpha in (0.5, 1.0, 2.0, 4.0):
            s1 = picard.thresholds(alpha, p).s1
            assert s1 <= prev
            prev = s1

    def test_contraction_bound_below_half(self):
        for n, k, rho in [(4, 1, 0.0), (5, 2, 1.0), (3, 2, -0.5)]:
            p = phase.make_params(n, k, rho, 1.0)
            th = picard.thresholds(1.0, p)
            assert th.contraction_bound * math.exp(2.0 * th.s0) < 0.5


class TestSpaceAndOperator:
    def setup_method(self):
        self.p = phase.make_params(4, 1, 0.0, 1.0)
        self.th = picard.thresholds(1.0, self.p)
        self.seed = picard.affine_seed(1.0, self.p, self.th.s0)

    def test_affine_seed_slack_exact(self):
        rep = picard.verify_membership(self.seed, 1.0, self.p)
        ak = picard.alpha_weight(1.0, self.p)
        assert rep.ok
        assert rep.min_slack_X == pytest.approx(ak / 2.0)
        assert rep.min_slack_Z == pytest.approx(self.p.n * ak / (2.0 * self.p.f0))

    def test_scaled_tail_fails_membership(self):
        tail = picard.WeightedTail(
            self.seed.s0,
            self.seed.s_min,
            self.seed.grid,
            3.0 * self.seed.X_samples,
            3.0 * self.seed.Z_samples,
        )
        assert not picard.verify_membership(tail, 1.0, self.p).ok
        with pytest.raises(DomainError):
            picard.apply_E(tail, 1.0, self.p)

    def test_zero_tail_maps_to_affine_part(self):
        zero = picard.WeightedTail(
            self.seed.s0,
            self.seed.s_min,
            self.seed.grid,
            np.zeros_like(self.seed.X_samples),
            np.zeros_like(self.seed.Z_samples),
        )
        out = picard.apply_E(zero, 1.0, self.p, check=False)
        ak = picard.alpha_weight(1.0, self.p)
        np.testing.assert_allclose(out.X_samples, ak, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.Z_samples, self.p.n * ak / self.p.f0, rtol=0, atol=1e-15)

    def test_image_limit_property(self):
        # e^(-2ks) E(tail) -> alpha_k (1, n/f(0)) as s -> -inf for any
        # admissible tail; the deviation must shrink toward s_min
        out = picard.apply_E(self.seed, 1.0, self.p)
        ak = picard.alpha_weight(1.0, self.p)
        dev = np.abs(out.X_samples - ak)
        assert dev[0] < 1e-6 * ak
        assert dev[0] < dev[-1]
        rep = picard.verify_membership(out, 1.0, self.p)
        assert rep.ok

    def test_image_limit_for_random_admissible_tail(self):
        ak = picard.alpha_weight(1.0, self.p)
        zc = self.p.n * ak / self.p.f0
        g = self.seed.grid
        wob = 0.4 * np.sin(3.0 * (g - g[0]))
        tail = picard.WeightedTail(
            self.seed.s0, self.seed.s_min, g, ak * (1.0 + wob), zc * (1.0 - wob)
        )
        assert picard.verify_membership(tail, 1.0, self.p).ok
        out = picard.apply_E(tail, 1.0, self.p)
        assert abs(out.X_samples[0] - ak) < 1e-5 * ak
        assert abs(out.Z_samples[0] - zc) < 1e-5 * zc


PICARD_CASES = [(4, 1), (5, 2), (4, 2), (3, 2)]


class TestPicardSolve:
    @pytest.mark.parametrize("n,k", PICARD_CASES)
    @pytest.mark.parametrize("rho", [-1.0, 0.0, 1.0])
    def test_certificate(self, n, k, rho):
        p = phase.make_params(n, k, rho, 1.0)
        sol = picard.picard_solve(1.0, p)
        assert sol.contraction_rate < 0.9
        assert sol.sup_residual < 1e-10
        ak = picard.alpha_weight(1.0, p)
        assert sol.weighted_limits[0] == pytest.approx(ak, abs=1e-8)
        assert sol.weighted_limits[1] == pytest.approx(p.n * ak / p.f0, abs=1e-8)
        assert picard.verify_membership(sol.tail, 1.0, p).ok
        assert picard.derivative_residual(sol, p) < 10.0 * 1e-10

    def test_empirical_rate_below_certified_bound(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        sol = picard.picard_solve(1.0, p)
        cert = sol.thresholds.contraction_bound * math.exp(2.0 * sol.tail.s0)
        assert cert < 0.5
        assert sol.contraction_rate <= cert

    def test_a_priori_geometric_bound(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        th = picard.thresholds(1.0, p)
        seed = picard.affine_seed(1.0, p, th.s0)
        iterates = [seed]
        for _ in range(12):
            iterates.append(picard.apply_E(iterates[-1], 1.0, p, check=False))
        fix = iterates[-1]

        def dist(a, b):
            return max(
                float(np.max(np.abs(a.X_samples - b.X_samples))),
                float(np.max(np.abs(a.Z_samples - b.Z_samples))),
            )

        c = th.contraction_bound * math.exp(2.0 * th.s0)
        first = dist(iterates[1], iterates[0])
        for m in range(1, 8):
            bound = (c**m / (1.0 - c)) * first
            assert dist(iterates[m], fix) <= 2.0 * bound

    def test_zx_ratio_richardson(self):
        p = phase.make_params(5, 2, 1.0, 1.0)
        sol = picard.picard_solve(1.0, p)
        X, Z = sol.tail.unweighted(p.k)
        ratio = Z / X
        s = sol.tail.grid
        j = sol.tail.grid.size // 4
        ea, eb = math.exp(2.0 * s[0]), math.exp(2.0 * s[j])
        extrap = (ratio[0] * eb - ratio[j] * ea) / (eb - ea)
        assert abs(extrap - p.n / p.f0) / (p.n / p.f0) < 1e-6

    def test_u0_scaling_coherence(self):
        # u(0) reconstructed through the profile equals the solution's u0
        from ksol import orbit

        p = phase.make_params(4, 1, 0.0, 1.0)
        sol, trace, _oc = orbit.run_orbit(p, 2.0)
        table = profile.reconstruct_u(trace, p)
        assert table.alpha == pytest.approx(sol.u0, abs=1e-8)

    def test_tail_glues_into_integrator(self):
        # starting the global integrator from an interior tail node must
        # reproduce the remaining tail and the continued orbit: the local
        # fixed point and the RK machinery describe one and the same orbit
        from ksol import orbit

        p = phase.make_params(4, 1, 1.0, 1.0)
        sol = picard.picard_solve(1.0, p)
        tail = sol.tail
        X, Z = tail.unweighted(p.k)
        j = int(np.searchsorted(tail.grid, tail.s0 - 2.0))
        ctl = orbit.OrbitControls(s_max=tail.s0 + 3.0)
        s_arr, x_arr, z_arr, _ev, _st, _dropped = orbit._integrate_raw(
            X[j], Z[j], tail.grid[j], p, ctl, 0
        )
        # cubic Hermite interpolation of the integrator output (linear
        # interpolation between adaptive samples would swamp the comparison)
        from ksol import _kernels

        pp = _kernels.pack_params(p)

        def hermite_eval(s_query):
            out_x, out_z = [], []
            for sq in s_query:
                i = max(0, min(np.searchsorted(s_arr, sq) - 1, s_arr.size - 2))
                h = s_arr[i + 1] - s_arr[i]
                th = (sq - s_arr[i]) / h
                f0 = _kernels.rhs(x_arr[i], z_arr[i], pp, 0)
                f1 = _kernels.rhs(x_arr[i + 1], z_arr[i + 1], pp, 0)
                out_x.append(_kernels._hermite(th, h, x_arr[i], f0[0], x_arr[i + 1], f1[0]))
                out_z.append(_kernels._hermite(th, h, z_arr[i], f0[1], z_arr[i + 1], f1[1]))
            return np.array(out_x), np.array(out_z)

        on_tail = tail.grid >= tail.grid[j]
        xi, zi = hermite_eval(tail.grid[on_tail])
        assert np.max(np.abs(xi - X[on_tail]) / X[on_tail]) < 1e-8
        assert np.max(np.abs(zi - Z[on_tail]) / Z[on_tail]) < 1e-8

    def test_alpha_validation(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        with pytest.raises(DomainError):
            picard.picard_solve(0.0, p)
        with pytest.raises(DomainError):
            picard.picard_solve(1e12, p)


class TestSeriesOracle:
    def test_k1_n3_matches_independent_expansion(self):
        # second-order expansion of the classical (k=1, n=3) system derived
        # by balancing powers of e^(2s):
        #   X = x0 e^(2s) + x1 e^(4s) + x2 e^(6s) + ...,  Z likewise
        n = 3
        rho, theta = 1.0, 1.0
        p = phase.make_params(n, 1, rho, theta)
        alpha = 1.3
        sol = picard.picard_solve(alpha, p)
        f0 = p.f0
        x0 = picard.alpha_weight(alpha, p)
        z0 = n * x0 / f0
        z1 = -2.0 * z0 * x0 / (n + 2.0)
        x1 = (((n - 2.0) / (n + 2.0)) * x0**2 + f0 * z1 - 2.0 * theta * z0 * x0) / (n + 2.0)
        z2 = -(z0 * x1 + z1 * x0) / (n + 2.0)
        x2 = (
            (2.0 * (n - 2.0) / (n + 2.0)) * x0 * x1
            + f0 * z2
            - 2.0 * theta * (z0 * x1 + z1 * x0)
        ) / (n + 4.0)

        s = sol.tail.grid
        window = s <= s[0] + 1.0
        sw = s[window]
        e2 = np.exp(2.0 * sw)
        X, Z = sol.tail.unweighted(1)
        x_series = x0 * e2 + x1 * e2**2 + x2 * e2**3
        z_series = z0 * e2 + z1 * e2**2 + z2 * e2**3
        assert np.max(np.abs(X[window] - x_series) / e2) < 1e-8 * x0
        assert np.max(np.abs(Z[window] - z_series) / e2) < 1e-8 * x0


class TestPicardAtA:
    def test_mirrored_limits_and_positivity(self):
        p = phase.make_params(4, 1, 5.0, 1.0)
        sol = picard.picard_solve_at_A(1.0, p)
        assert sol.chart == "WV"
        ak = picard.alpha_weight(1.0, p)
        # weighted limits (alpha_bar, n alpha_bar / h(0)): the decaying
        # eigendirection at A is (1, n/h(0))
        assert sol.weighted_limits[0] == pytest.approx(ak, abs=1e-8)
        assert sol.weighted_limits[1] == pytest.approx(p.n * ak / p.h0, abs=1e-8)
        W, V = sol.tail.unweighted(p.k)
        assert np.all(W > 0.0) and np.all(V > 0.0)
        # W, V decrease in s, i.e. increase along the sigma grid
        assert np.all(np.diff(W) > 0.0) and np.all(np.diff(V) > 0.0)
        assert picard.derivative_residual(sol, p) < 1e-9

    def test_not_applicable_and_degenerate(self):
        with pytest.raises(NotApplicableError):
            picard.picard_solve_at_A(1.0, phase.make_params(4, 1, 1.0, 1.0))
        with pytest.raises(ParameterError):
            picard.picard_solve_at_A(1.0, phase.make_params(4, 1, 2.0, 1.0))
