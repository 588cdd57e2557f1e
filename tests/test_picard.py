"""Contraction-mapping layer. The quadrature is pinned by manufactured
integrands with closed-form integrals, and the k=1 fixed point by an
independent power-series oracle derived directly from the ODE system."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ksol import phase, picard, profile
from ksol.errors import ConvergenceError, DomainError, NotApplicableError, ParameterError
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

    def test_cold_and_warm_cache_give_the_same_tail(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        picard._stencil_weights.cache_clear()
        cold = picard.picard_solve(1.0, p).tail
        warm = picard.picard_solve(1.0, p).tail
        assert picard._stencil_weights.cache_info().hits > 0
        for a, b in [(cold.grid, warm.grid), (cold.X_samples, warm.X_samples),
                     (cold.Z_samples, warm.Z_samples)]:
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mu", [2.0, 6.0])
    def test_cached_weights_equal_fresh_ones(self, mu, monkeypatch):
        h = 6.0 / 511.0
        t = np.arange(512) * h
        y = np.cos(t) * np.exp(mu * t)
        picard._stencil_weights(mu * h)
        hits = picard._stencil_weights.cache_info().hits
        cached = _cumulative_product(y, h, mu)
        assert picard._stencil_weights.cache_info().hits == hits + 1
        # the undecorated helper calls _product_weights afresh
        monkeypatch.setattr(picard, "_stencil_weights", picard._stencil_weights.__wrapped__)
        assert np.array_equal(cached, _cumulative_product(y, h, mu))

    def test_second_solve_on_a_grid_builds_no_weights(self, monkeypatch):
        p = phase.make_params(5, 2, 1.0, 1.0)
        calls = []
        build = picard._product_weights
        monkeypatch.setattr(
            picard, "_product_weights", lambda *a: calls.append(a[0]) or build(*a)
        )
        picard._stencil_weights.cache_clear()
        assert picard.picard_solve(0.7, p).retries == 0
        # two values of z = mu h on the solve's one grid, three stencils each
        assert len(calls) == 6
        calls.clear()
        picard.picard_solve(0.7, p)
        assert calls == []

    def test_threads_share_the_cache(self):
        # more threads than cores on a short switch interval; each result must
        # equal the one computed on a single thread
        h = 6.0 / 511.0
        t = np.arange(512) * h
        y = np.cos(t) * np.exp(2.0 * t)
        mus = [2.0 + 0.25 * j for j in range(16)] * 4
        want = [_cumulative_product(y, h, mu) for mu in mus]
        picard._stencil_weights.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda mu: _cumulative_product(y, h, mu), mus, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    def test_cache_is_bounded(self):
        assert picard._stencil_weights.cache_parameters()["maxsize"] is not None

    def test_cached_weights_are_read_only(self):
        for w in picard._stencil_weights(0.3):
            with pytest.raises(ValueError):
                w[0] = 0.0


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

    def test_step_cap_is_reported(self, monkeypatch):
        p = phase.make_params(4, 1, 1.0, 1.0)
        assert picard.thresholds(1.0, p).s3 < -picard.THRESHOLD_STEP
        monkeypatch.setattr(picard, "MAX_THRESHOLD_STEPS", 1)
        with pytest.raises(ConvergenceError, match="not found in 1 steps"):
            picard.thresholds(1.0, p)


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
        s_arr, x_arr, z_arr, _ev, _st, _counters = orbit._integrate_raw(
            X[j], np.log(p.cb * Z[j]), tail.grid[j], p, ctl
        )
        # cubic Hermite interpolation of the integrator output in its chart
        # (X, W = ln(c_nk beta^k Z)), where the samples keep SAMPLE_TOL (linear
        # interpolation between adaptive samples would swamp the comparison)
        from ksol import _kernels

        pp = _kernels.pack_params(p)
        w_arr = np.log(p.cb * z_arr)
        slopes = np.array([_kernels.rhs(x, w, pp) for x, w in zip(x_arr, w_arr)])

        def hermite_eval(s_query):
            xi = orbit.hermite(s_arr, x_arr, slopes[:, 0], s_query)
            wi = orbit.hermite(s_arr, w_arr, slopes[:, 1], s_query)
            return xi, np.exp(wi) / p.cb

        on_tail = tail.grid >= tail.grid[j]
        xi, zi = hermite_eval(tail.grid[on_tail])
        assert np.max(np.abs(xi - X[on_tail]) / X[on_tail]) < 1e-8
        assert np.max(np.abs(zi - Z[on_tail]) / Z[on_tail]) < 1e-8

    def test_overflow_is_a_convergence_error(self):
        # s_min is near -39 for (33, 16, 100), so e^(-32 s_min) exceeds the float range
        p = phase.make_params(33, 16, 100.0, 1.0)
        with pytest.raises(ConvergenceError, match=r"overflows \(alpha 0.5, s_min -"):
            picard.picard_solve(0.5, p)

    def test_alpha_validation(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        with pytest.raises(DomainError):
            picard.picard_solve(0.0, p)
        with pytest.raises(DomainError):
            picard.picard_solve(1e12, p)


class TestGaugeMap:
    """An alpha's local solution is the anchor's shifted by the gauge
    (``picard.gauge_map``): the anchor is solved at alpha 2 and mapped down."""

    @pytest.mark.parametrize("n,k,rho", [(4, 1, -1.0), (4, 1, 0.0), (5, 2, -1.0), (4, 1, 1.0)])
    def test_mapped_solution_is_certified(self, n, k, rho):
        p = phase.make_params(n, k, rho, 1.0)
        anchor = picard.picard_solve(2.0, p)
        X_a, Z_a = anchor.tail.unweighted(k)
        res_a = picard.derivative_residual(anchor, p)
        eps = np.finfo(float).eps
        for alpha in (0.3, 0.5, 1.0):
            sol = picard.gauge_map(anchor, alpha, p)
            ak = picard.alpha_weight(alpha, p)
            s0 = sol.tail.s0
            assert sol.alpha == alpha and sol.sup_residual <= anchor.sup_residual
            assert picard.verify_membership(sol.tail, alpha, p).ok
            # the self-map and contraction bounds at the target's own constants
            K1, K2, C = picard._constants(ak, p)
            assert K1 * math.exp(2.0 * s0) <= ak / 2.0
            assert K2 * math.exp(2.0 * s0) <= p.n * ak / (2.0 * p.f0)
            assert C * math.exp(2.0 * s0) < 0.5
            assert sol.thresholds.contraction_bound == pytest.approx(C, rel=1e-14)
            # a shift in s leaves the unweighted orbit as it was, to rounding,
            # and the derivative defect is measured on it: it moves by at most
            # the Richardson stencil's weights (their sum is below 2/h) times
            # the samples' change, plus the field's
            X, Z = sol.tail.unweighted(k)
            assert np.all(np.abs(X - X_a) <= 8.0 * eps * X_a)
            assert np.all(np.abs(Z - Z_a) <= 8.0 * eps * Z_a)
            h = sol.tail.grid[1] - sol.tail.grid[0]
            change = max(np.max(np.abs(X - X_a)), np.max(np.abs(Z - Z_a)))
            assert abs(picard.derivative_residual(sol, p) - res_a) <= 4.0 * change / h
            own = picard.picard_solve(alpha, p)
            assert sol.weighted_limits == pytest.approx(own.weighted_limits, rel=1e-9)
            assert sol.u0 == own.u0

    def test_the_map_onto_its_own_alpha_is_the_identity(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        sol = picard.picard_solve(0.7, p)
        same = picard.gauge_map(sol, 0.7, p)
        assert np.array_equal(same.tail.grid, sol.tail.grid)
        assert np.array_equal(same.tail.X_samples, sol.tail.X_samples)
        assert np.array_equal(same.tail.Z_samples, sol.tail.Z_samples)
        assert same.thresholds == sol.thresholds and same.sup_residual == sol.sup_residual

    def test_alpha_validation(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        sol = picard.picard_solve(1.0, p)
        for alpha in (0.0, -1.0, 1e12):
            with pytest.raises(DomainError, match="alpha"):
                picard.gauge_map(sol, alpha, p)


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
