"""Profile reconstruction, decay-rate estimation and residual checks."""

import math

import numpy as np
import pytest

from ksol import orbit, phase, profile
from ksol.errors import DomainError


class TestReconstruction:
    def test_round_trip(self, run):
        for case in [(4, 1, 1.0), (4, 2, 1.0), (5, 2, 0.0)]:
            p, _sol, tr, _oc = run(*case)
            tab = profile.reconstruct_u(tr, p)
            x_back = (-tab.r * tab.u_r / tab.u) ** p.k
            z_back = (tab.r**2 * tab.u ** (1.0 - p.m)) ** p.k
            assert np.max(np.abs(x_back - tab.X) / (1.0 + tab.X)) < 1e-8
            assert np.max(np.abs(z_back - tab.Z) / (1.0 + tab.Z)) < 1e-8

    def test_u_positive_and_decreasing(self, run):
        for case in [(4, 1, -1.0), (4, 1, 1.0), (3, 2, 5.0)]:
            p, _sol, tr, _oc = run(*case)
            tab = profile.reconstruct_u(tr, p)
            assert np.all(tab.u > 0.0)
            assert np.all(tab.u_r < 0.0)
            assert np.all(np.diff(tab.r) > 0.0)

    def test_lambda2_positive_along_admissible_profiles(self, run):
        for case in [(4, 1, 0.0), (4, 1, 1.0), (4, 2, 1.0)]:
            p, _sol, tr, _oc = run(*case)
            tab = profile.reconstruct_u(tr, p)
            _l1, lam2, _sig = profile.sigma_k_column(tab, p)
            assert np.all(lam2 > 0.0)

    def test_u0_recovery(self, run):
        p, sol, tr, _oc = run(4, 1, 1.0)
        tab = profile.reconstruct_u(tr, p)
        assert tab.alpha == pytest.approx(sol.u0, abs=1e-6)

    def test_non_admissible_samples_excluded(self, run):
        p, _sol, tr, _oc = run(3, 2, 1.0)  # exits the region
        tab = profile.reconstruct_u(tr, p)
        assert np.all(tab.X < p.x_cap)


class TestOriginExpansion:
    @pytest.mark.parametrize("case", [(4, 1, 1.0), (4, 1, -1.0), (4, 2, 1.0), (5, 2, 0.0)])
    def test_quadratic_coefficient(self, case, run):
        p, _sol, tr, _oc = run(*case)
        tab = profile.reconstruct_u(tr, p)
        rep = profile.origin_expansion_check(tab, tab.alpha, p)
        assert rep.rel_err < 0.01
        # deviation from the quadratic model is o(r^2)
        assert rep.dev_small < rep.dev_large or rep.dev_large < 1e-12
        assert rep.zx_ratio_err < 1e-5

    def test_exponent_positive(self):
        for n, k in [(4, 1), (3, 2), (64, 32)]:
            p = phase.make_params(n, k, 0.0, 1.0)
            assert 3.0 - p.m == pytest.approx(2.0 * (n + 4 * k) / (n + 2 * k))
            assert 3.0 - p.m > 0.0


class TestExpectedRates:
    def test_reference_predictions(self, run):
        p, _sol, _tr, oc = run(4, 1, -1.0)
        pred = profile.expected_rate(p, oc)
        assert pred.exponent == pytest.approx(-1.5)
        assert pred.log_power is None

        p, _sol, _tr, oc = run(4, 1, 0.0)
        pred = profile.expected_rate(p, oc)
        assert pred.exponent == pytest.approx(-3.0)
        assert pred.log_power == pytest.approx(1.5)

        p, _sol, _tr, oc = run(3, 2, 5.0)
        pred = profile.expected_rate(p, oc)
        assert pred.exponent == pytest.approx(-3.5)

    def test_no_prediction_for_non_admissible(self, run):
        p, _sol, _tr, oc = run(3, 2, 1.0)
        assert profile.expected_rate(p, oc) is None

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_n2k_steady_log_power(self, k):
        # (k-2)/k: eps = gamma - x ~ gamma (k-2)/(2k s) with gamma = 2
        p = phase.make_params(2 * k, k, 0.0, 1.0)
        pred = profile.expected_rate(p, orbit.OrbitClass(orbit.TYPE_GAMMA))
        assert pred.exponent == pytest.approx(-2.0)
        assert pred.log_power == pytest.approx((k - 2.0) / k)

    @pytest.mark.parametrize("n,k,rho", [(4, 1, 1.0), (3, 2, 1.0)])
    def test_no_prediction_outside_regime_table(self, n, k, rho):
        # TypeGamma is impossible for rho > 0 and for n < 2k
        p = phase.make_params(n, k, rho, 1.0)
        assert profile.expected_rate(p, orbit.OrbitClass(orbit.TYPE_GAMMA)) is None


class TestTailRates:
    def test_expander_z_rate(self, run):
        p, _sol, tr, _oc = run(4, 1, -1.0)
        rate = profile.z_tail_rate(tr, 5.0)
        assert rate == pytest.approx(-p.k * p.rho / p.theta, rel=0.01)

    def test_expander_u_exponent(self, run):
        p, _sol, tr, oc = run(4, 1, -1.0)
        tab = profile.reconstruct_u(tr, p)
        rr = profile.tail_rate(tab, p, oc)
        assert rr.fitted_exponent == pytest.approx(-1.5, rel=0.01)
        assert rr.log_correction_power is None

    def test_steady_affine_z_root_and_log_power(self, run):
        p, _sol, tr, oc = run(4, 1, 0.0)
        a, _b, r2 = profile.affine_z_root_fit(tr, p)
        assert r2 > 0.999
        C = profile.steady_slope_constant(p)
        lo = C / (2.0 * p.k * p.gamma) * 0.95
        hi = 2.0 * C / (p.k * p.gamma) * 1.05
        # the asymptotic slope 2 C^(1/k)/gamma sits exactly on the bracket's
        # upper edge at k = 1, hence the 5% slack on the edges
        assert lo <= a <= hi
        assert a == pytest.approx(2.0 * C ** (1.0 / p.k) / p.gamma, rel=1e-3)
        tab = profile.reconstruct_u(tr, p)
        rr = profile.tail_rate(tab, p, oc)
        assert rr.fitted_exponent == pytest.approx(-3.0, rel=0.02)
        assert rr.log_correction_power == pytest.approx(1.5, rel=0.02)

    def test_type_b_exponent(self, run):
        p, _sol, tr, oc = run(4, 1, 1.0)
        tab = profile.reconstruct_u(tr, p)
        rr = profile.tail_rate(tab, p, oc)
        assert rr.fitted_exponent == pytest.approx(-3.0, rel=0.01)
        assert rr.log_correction_power is None

    def test_n2k_shrinker_d_consistency(self, run):
        p, _sol, tr, oc = run(4, 2, 1.0)
        d = oc.X_inf ** 0.5 / 2.0 - 1.0
        assert 0.0 < d <= 0.5
        tab = profile.reconstruct_u(tr, p)
        rr = profile.tail_rate(tab, p, oc)
        assert rr.fitted_exponent == pytest.approx(-2.0 * (1.0 + d), rel=0.02)

    def test_rate_is_read_from_x(self, run):
        # d ln u/ds = -x along the flow: the exponent of an exponentially
        # converging orbit is -x at the end of the trace (k = 2, so x != X)
        p, _sol, tr, oc = run(4, 2, 1.0)
        tab = profile.reconstruct_u(tr, p)
        np.testing.assert_allclose(np.gradient(tab.ln_u_full, tab.s_full), -tab.x_full, atol=1e-3)
        assert profile.tail_rate(tab, p, oc).fitted_exponent == -tab.x_full[-1]

    def test_short_tail_raises(self, run):
        p = phase.make_params(4, 1, 0.0, 1.0)
        controls = orbit.OrbitControls(s_max=0.5)
        _sol, tr, oc = orbit.run_orbit(p, 1.0, controls)
        tab = profile.reconstruct_u(tr, p)
        with pytest.raises(DomainError, match="s_max"):
            profile.tail_rate(tab, p, oc)


class TestEllipticResidual:
    @pytest.mark.parametrize(
        "case", [(4, 1, -1.0), (4, 1, 0.0), (4, 1, 1.0), (4, 2, 1.0), (3, 2, 5.0)]
    )
    def test_small_along_converged_orbits(self, case, run):
        p, _sol, tr, _oc = run(*case)
        tab = profile.reconstruct_u(tr, p)
        rep = profile.elliptic_residual(tab, p)
        assert rep.max_rel < 1e-6
        assert rep.n_rows > 100

    def test_sigma_k_positive(self, run):
        p, _sol, tr, _oc = run(4, 1, 1.0)
        tab = profile.reconstruct_u(tr, p)
        _l1, _l2, sig = profile.sigma_k_column(tab, p)
        assert np.all(sig > 0.0)

    def test_rejects_constant_non_solution(self, run):
        # a constant conformal factor solves nothing: lambda2 = 0 rows are
        # rejected and the check refuses to bless it
        p, _sol, tr, _oc = run(4, 1, 1.0)
        tab = profile.reconstruct_u(tr, p)
        fake = profile.ProfileTable(
            r=tab.r,
            u=np.full_like(tab.u, 0.7),
            u_r=np.zeros_like(tab.u_r),
            u_rr=np.zeros_like(tab.u_rr),
            alpha=0.7,
            params=p,
            X=tab.X,
            Z=tab.Z,
            s=tab.s,
            s_full=tab.s_full,
            x_full=tab.x_full,
            ln_u_full=tab.ln_u_full,
        )
        with pytest.raises(DomainError):
            profile.elliptic_residual(fake, p)


class TestPotential:
    def test_phi_monotone_and_identity(self, run):
        p, _sol, tr, _oc = run(4, 1, 1.0)
        pot = profile.potential_phi(tr, p)
        assert np.all(pot.phi_s > 0.0)
        assert np.all(np.diff(pot.phi) > 0.0)
        assert profile.potential_identity_residual(profile.reconstruct_u(tr, p), p) < 1e-6

    def test_gauge_shift_changes_nothing(self, run):
        p, _sol, tr, _oc = run(4, 1, 0.0)
        pot = profile.potential_phi(tr, p)
        shifted = pot.phi + 17.0
        # derivative content is identical up to float granularity
        np.testing.assert_allclose(np.diff(shifted), np.diff(pot.phi), rtol=1e-6, atol=1e-12)


class TestFlowSolutions:
    def test_scale_one_reproduces_u(self, run):
        p, _sol, tr, _oc = run(4, 1, 1.0)
        tab = profile.reconstruct_u(tr, p)
        fs = profile.flow_solution(tab, p, t=0.0, T=1.0)
        radii = np.array([1e-3, 0.3, 1.0, 4.0])
        want = np.exp(np.interp(np.log(radii), tab.s_full, tab.ln_u_full))
        np.testing.assert_allclose(fs(radii), want, rtol=1e-12)

    def test_self_similarity(self, run):
        p, _sol, tr, _oc = run(4, 1, 1.0)
        tab = profile.reconstruct_u(tr, p)
        beta = (1.0 - p.m) * p.theta
        eta = np.array([0.05, 0.4, 1.3])
        ratios = []
        for t in (0.0, 0.5, 0.9):
            fs = profile.flow_solution(tab, p, t=t, T=1.0)
            x = eta / (1.0 - t) ** beta  # fixed eta across snapshots
            ratios.append(fs(x) / fs(np.array([0.0]))[0])
        np.testing.assert_allclose(ratios[0], ratios[1], rtol=1e-9)
        np.testing.assert_allclose(ratios[0], ratios[2], rtol=1e-9)

    def test_steady_amplitude_affine_in_t(self, run):
        p, _sol, tr, _oc = run(4, 1, 0.0)
        tab = profile.reconstruct_u(tr, p)
        ts = np.array([-1.0, 0.0, 1.0, 2.0])
        vals = [math.log(profile.flow_solution(tab, p, t)(np.array([0.0]))[0]) for t in ts]
        slopes = np.diff(vals) / np.diff(ts)
        np.testing.assert_allclose(slopes, -(2.0 * p.theta + p.rho), rtol=1e-12)

    def test_time_domain_errors(self, run):
        p, _sol, tr, _oc = run(4, 1, 1.0)
        tab = profile.reconstruct_u(tr, p)
        with pytest.raises(DomainError):
            profile.flow_solution(tab, p, t=1.5, T=1.0)
        pe, _sol2, tr2, _oc2 = run(4, 1, -1.0)
        tab2 = profile.reconstruct_u(tr2, pe)
        with pytest.raises(DomainError):
            profile.flow_solution(tab2, pe, t=0.0)
        fs = profile.flow_solution(tab, p, t=0.0, T=1.0)
        with pytest.raises(DomainError):
            fs(np.array([1e30]))


@pytest.mark.slow
class TestSteadyN2kOracle:
    """The n = 2k steady log power against scipy Radau (rtol 1e-13, analytic
    Jacobian). Radau starts from the trace at s = 5, where the orbit has left
    the origin, and integrates to s = 200, far enough to tell (k-2)/k from
    (k-1)/k."""

    @pytest.mark.parametrize("k", [3, 4])
    def test_radau_gives_k_minus_2_over_k(self, k, run):
        integrate = pytest.importorskip("scipy.integrate")
        p, _sol, tr, oc = run(2 * k, k, 0.0)
        j = int(np.searchsorted(tr.s, 5.0))
        res = integrate.solve_ivp(
            lambda _s, y: phase.vector_field(y[0], y[1], p),
            (tr.s[j], 200.0),
            [tr.X[j], tr.Z[j]],
            method="Radau",
            rtol=1e-13,
            atol=1e-300,
            jac=lambda _s, y: phase.jacobian(y, p),
            dense_output=True,
        )
        assert res.success
        s = np.linspace(100.0, 200.0, 201)
        x = phase.kth_root(res.sol(s)[0], k)
        _c1, c0 = np.polyfit(1.0 / s, s * (p.gamma - x), 1)
        assert c0 == pytest.approx((k - 2.0) / k, abs=2e-3)
        assert abs(c0 - (k - 1.0) / k) > 0.2
        rr = profile.tail_rate(profile.reconstruct_u(tr, p), p, oc)
        assert rr.log_correction_power == pytest.approx(c0, abs=1e-4)
        assert rr.predicted.log_power == pytest.approx(c0, abs=2e-3)
