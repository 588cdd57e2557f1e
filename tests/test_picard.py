"""The local series. The recursion is pinned by an independent k = 1
expansion derived directly from the ODE system and by the field itself,
the validated bound by a longer series and by a forged coefficient, and
the gauge map by a solve at each alpha."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from ksol import _kernels, orbit, phase, picard, profile
from ksol.errors import ConvergenceError, DomainError, NotApplicableError, ParameterError

HAND_OFF_BOUND = picard.HAND_OFF_TOL * picard.DEFAULT_TOL


class TestThresholds:
    def test_s1_reference(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        s1 = picard.box_edge(1.0, p)
        assert s1 == pytest.approx(0.5 * math.log(1.5), rel=1e-12)
        assert picard.picard_solve(1.0, p).s0 <= s1

    def test_s1_monotone_in_alpha(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        prev = math.inf
        for alpha in (0.5, 1.0, 2.0, 4.0):
            s1 = picard.box_edge(alpha, p)
            assert s1 <= prev
            prev = s1

    def test_contraction_bound_below_half(self):
        for n, k, rho in [(4, 1, 0.0), (5, 2, 1.0), (3, 2, -0.5)]:
            p = phase.make_params(n, k, rho, 1.0)
            assert 0.0 < picard.picard_solve(1.0, p).contraction_rate <= 0.5

    def test_step_cap_is_reported(self, monkeypatch):
        p = phase.make_params(4, 1, 1.0, 1.0)
        monkeypatch.setattr(picard, "_validate", lambda *args: None)
        with pytest.raises(ConvergenceError, match=f"not validated in {picard.MAX_TRIALS} trials"):
            picard.picard_solve(1.0, p)


PICARD_CASES = [(4, 1), (5, 2), (4, 2), (3, 2)]


def _longer(sol, p, alpha, order=60):
    """(X, Z) at sol's s0 from the recursion's first ``order`` terms."""
    y, b, _ey, _eb = picard._coefficients(p, order)
    tau = math.exp(2.0 * (sol.s0 + picard.gauge(alpha, p)))
    x = tau * np.polynomial.polynomial.polyval(tau, y)
    return x**p.k, tau**p.k * np.polynomial.polynomial.polyval(tau, b)


class TestPicardSolve:
    @pytest.mark.parametrize("n,k", PICARD_CASES)
    @pytest.mark.parametrize("rho", [-1.0, 0.0, 1.0])
    def test_certificate(self, n, k, rho):
        p = phase.make_params(n, k, rho, 1.0)
        sol = picard.picard_solve(1.0, p)
        assert sol.contraction_rate <= 0.5
        assert sol.sup_residual < 1e-10
        assert 0.0 < sol.err <= HAND_OFF_BOUND
        assert 2 <= sol.terms <= picard.MAX_TERMS and sol.s0 <= picard.box_edge(1.0, p)
        ak = picard.alpha_weight(1.0, p)
        assert sol.weighted_limits == pytest.approx((ak, p.n * ak / p.f0), rel=1e-14)
        assert picard.derivative_residual(sol, p) < 10.0 * 1e-10

    @pytest.mark.parametrize(
        "n,k,rho", [(4, 1, -1.0), (12, 4, 0.0), (9, 4, -0.3), (64, 8, 1.0), (33, 16, -0.3)]
    )
    def test_bound_holds_against_a_longer_series(self, n, k, rho):
        # 60 terms leave a tail far below the bound at s0
        p = phase.make_params(n, k, rho, 1.0)
        sol = picard.picard_solve(1.0, p)
        X, W = sol.state_at_s0(p)
        X_l, Z_l = _longer(sol, p, 1.0)
        assert abs(X - X_l) <= sol.err * X
        assert abs(math.exp(W) / p.cb - Z_l) <= sol.err * Z_l

    def test_validation_refuses_a_forged_coefficient(self):
        # a_2 moved by 1e-8 relative: the orders below N no longer solve the
        # recursion, and their defect joins the bound
        p = phase.make_params(4, 1, -1.0, 1.0)
        sol = picard.picard_solve(1.0, p)
        n_terms, tau0 = sol.terms, math.exp(2.0 * (sol.s0 + picard.gauge(1.0, p)))
        y, b, ey, eb = picard._coefficients(p, n_terms)
        assert picard._validate(y, b, tau0, p, ey, eb).err_x <= HAND_OFF_BOUND
        y[1] *= 1.0 + 1e-8
        assert picard._validate(y, b, tau0, p, ey, eb).err_x > 1e3 * HAND_OFF_BOUND

    @pytest.mark.parametrize(
        "n,k,rho,theta", [(4, 2, -1.5e-3, 1e-3), (4, 1, 1e-6, 1e-6), (4, 1, 1.0, 1.0)]
    )
    def test_derivative_defect_is_relative(self, n, k, rho, theta):
        # Z scales like theta^-k: the defect relative to X and Z passes at
        # every theta, and x_coef[1] or z_coef[1] moved by 1e-8 relative
        # still fails the 10 tol bound
        p = phase.make_params(n, k, rho, theta)
        sol = picard.picard_solve(1.0, p)
        assert picard.derivative_residual(sol, p) < 1e-11
        for name in ("x_coef", "z_coef"):
            coef = getattr(sol, name).copy()
            coef[1] *= 1.0 + 1e-8
            forged = replace(sol, **{name: coef})
            assert picard.derivative_residual(forged, p) > 10.0 * 1e-10, name

    def test_next_term_lies_within_the_bound(self):
        # the first omitted term of x, relative to x and carried to X = x^k,
        # is the first term of T(0), so the bound holds it
        p = phase.make_params(4, 2, 0.0, 1.0)
        sol = picard.picard_solve(1.0, p)
        y = picard._coefficients(p, sol.terms + 1)[0]
        tau0 = math.exp(2.0 * (sol.s0 + picard.gauge(1.0, p)))
        x0 = float(np.sum(sol.x_coef))
        assert p.k * abs(y[sol.terms]) * tau0 ** (sol.terms + 1) / x0 <= sol.err

    def test_zx_ratio_richardson(self):
        p = phase.make_params(5, 2, 1.0, 1.0)
        sol = picard.picard_solve(1.0, p)
        s, X, Z = sol.head()
        ratio = Z / X
        j = s.size // 4
        ea, eb = math.exp(2.0 * s[0]), math.exp(2.0 * s[j])
        extrap = (ratio[0] * eb - ratio[j] * ea) / (eb - ea)
        assert abs(extrap - p.n / p.f0) / (p.n / p.f0) < 1e-6

    def test_u0_scaling_coherence(self):
        # u(0) reconstructed through the profile equals the solution's u0
        p = phase.make_params(4, 1, 0.0, 1.0)
        sol, trace, _oc = orbit.run_orbit(p, 2.0)
        table = profile.reconstruct_u(profile.admissible_samples(trace, p), p)
        assert table.alpha == pytest.approx(sol.u0, abs=1e-8)

    def test_tail_glues_into_integrator(self):
        # starting the global integrator from a point of the head must
        # reproduce the rest of the head: the series and the RK machinery
        # describe one and the same orbit
        p = phase.make_params(4, 1, 1.0, 1.0)
        sol = picard.picard_solve(1.0, p)
        s, X, Z = sol.head()
        j = int(np.searchsorted(s, sol.s0 - 2.0))
        ctl = orbit.OrbitControls(s_max=sol.s0 + 3.0)
        s_arr, x_arr, z_arr, _ev, _st, _counters = orbit._integrate_raw(
            X[j], np.log(p.cb * Z[j]), s[j], p, ctl
        )
        # cubic Hermite interpolation of the integrator output in its chart
        # (X, W = ln(c_nk beta^k Z)), where the samples keep SAMPLE_TOL
        pp = _kernels.pack_params(p)
        w_arr = np.log(p.cb * z_arr)
        slopes = np.array([_kernels.rhs(x, w, pp) for x, w in zip(x_arr, w_arr)])
        xi = orbit.hermite(s_arr, x_arr, slopes[:, 0], s[j:])
        zi = np.exp(orbit.hermite(s_arr, w_arr, slopes[:, 1], s[j:])) / p.cb
        assert np.max(np.abs(xi - X[j:]) / X[j:]) < 1e-8
        assert np.max(np.abs(zi - Z[j:]) / Z[j:]) < 1e-8

    @pytest.mark.parametrize("rho,alpha", [(100.0, 0.5), (-1.99, 1.0), (1e4, 1.0)])
    def test_former_overflow_sets_solve(self, rho, alpha):
        # the grid operator formed e^(-2k s_min), beyond the float range for
        # (33, 16) here; the series never forms it
        p = phase.make_params(33, 16, rho, 1.0)
        sol = picard.picard_solve(alpha, p)
        X, W = sol.state_at_s0(p)
        # the truncation meets HAND_OFF_BOUND; the rounding of (33, 16)'s
        # coefficients takes the bound to 1.8e-12 on two of them
        assert 0.0 < sol.err <= picard.DEFAULT_TOL and X > 0.0 and math.isfinite(W)
        assert np.all(np.isfinite(sol.head()[1:]))

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
        for alpha in (0.3, 0.5, 1.0):
            sol = picard.gauge_map(anchor, alpha, p)
            own = picard.picard_solve(alpha, p)
            # the series in u = e^(2(s - s0)) is the same for every alpha,
            # and so is the hand-off state with its bound
            assert sol.alpha == alpha and sol.s0 == pytest.approx(own.s0, abs=1e-14)
            assert np.array_equal(sol.x_coef, own.x_coef) and np.array_equal(sol.z_coef, own.z_coef)
            assert sol.state_at_s0(p) == anchor.state_at_s0(p)
            assert (sol.err, sol.contraction_rate) == (anchor.err, anchor.contraction_rate)
            assert sol.weighted_limits == own.weighted_limits
            assert sol.u0 == own.u0
            assert picard.derivative_residual(sol, p) < 10.0 * 1e-10

    def test_the_map_onto_its_own_alpha_is_the_identity(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        sol = picard.picard_solve(0.7, p)
        same = picard.gauge_map(sol, 0.7, p)
        assert same.s0 == sol.s0
        assert np.array_equal(same.x_coef, sol.x_coef) and np.array_equal(same.z_coef, sol.z_coef)
        assert same.err == sol.err and same.sup_residual == sol.sup_residual

    def test_alpha_validation(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        sol = picard.picard_solve(1.0, p)
        for alpha in (0.0, -1.0, 1e12):
            with pytest.raises(DomainError, match="alpha"):
                picard.gauge_map(sol, alpha, p)

    def test_limits_of_alphas_a_float_range_apart(self):
        # a shared run maps the anchor 1e8 to 1e-8: alpha_k reads 8.7e+304
        # and 1.1e-305, whose ratio underflows; the limits are the unit
        # gauge's times alpha_k, those of 1e-8's own solve bit for bit
        p = phase.make_params(64, 36, 1.0, 1.0)
        own = picard.picard_solve(1e-8, p)
        [_anchor, sol] = orbit._local_solutions(p, [1e8, 1e-8], picard.DEFAULT_TOL)[1]
        assert sol.weighted_limits == own.weighted_limits
        assert 0.0 < own.weighted_limits[1] < own.weighted_limits[0] < 1e-300


class TestAlphaRange:
    """alpha_k = alpha^((1-m)k) leaves the floats inside [1e-8, 1e8] once
    (1-m)k exceeds about 38.5, at n = 64 from k = 37 on, and the weighted Z
    limit n alpha_k / f(0) can overflow first. There the range narrows, and
    its DomainError names the usable range."""

    @pytest.mark.parametrize("n,k,rho", [(64, 64, 1.0), (64, 37, 1.0), (64, 37, -1.9)])
    def test_named_range_is_usable_to_its_ends(self, n, k, rho):
        p = phase.make_params(n, k, rho, 1.0)
        with pytest.raises(DomainError, match="usable") as exc:
            picard.alpha_weight(1e8, p)
        lo, hi = map(float, re.search(r"\[(\S+), (\S+)\]", str(exc.value)).groups())
        for alpha in (lo, hi):
            limits = picard.picard_solve(alpha, p).weighted_limits
            assert limits[0] > 0.0 and all(math.isfinite(w) for w in limits)
        for alpha in (lo / 1.001, hi * 1.001):
            if 1e-8 <= alpha <= 1e8:
                with pytest.raises(DomainError, match="usable"):
                    picard.picard_solve(alpha, p)


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

        s, X, Z = sol.head()
        window = s <= s[0] + 1.0
        e2 = np.exp(2.0 * s[window])
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
        _s, W, V = sol.head()
        assert np.all(W > 0.0) and np.all(V > 0.0)
        # W, V decrease in s, i.e. increase along the sigma grid
        assert np.all(np.diff(W) > 0.0) and np.all(np.diff(V) > 0.0)
        assert picard.derivative_residual(sol, p) < 1e-9
        assert 0.0 < sol.err <= HAND_OFF_BOUND

    def test_not_applicable_and_degenerate(self):
        with pytest.raises(NotApplicableError):
            picard.picard_solve_at_A(1.0, phase.make_params(4, 1, 1.0, 1.0))
        with pytest.raises(ParameterError):
            picard.picard_solve_at_A(1.0, phase.make_params(4, 1, 2.0, 1.0))
