"""Profile reconstruction, decay-rate estimation and residual checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ksol import orbit, phase, profile
from ksol.errors import DomainError


class TestReconstruction:
    def test_round_trip(self, run):
        for case in [(4, 1, 1.0), (4, 2, 1.0), (5, 2, 0.0)]:
            p, _sol, tr, _oc = run(*case)
            tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
            x_back = (-tab.r * tab.u_r / tab.u) ** p.k
            z_back = (tab.r**2 * tab.u ** (1.0 - p.m)) ** p.k
            assert np.max(np.abs(x_back - tab.X) / (1.0 + tab.X)) < 1e-8
            assert np.max(np.abs(z_back - tab.Z) / (1.0 + tab.Z)) < 1e-8

    def test_u_positive_and_decreasing(self, run):
        for case in [(4, 1, -1.0), (4, 1, 1.0), (3, 2, 5.0)]:
            p, _sol, tr, _oc = run(*case)
            tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
            assert np.all(tab.u > 0.0)
            assert np.all(tab.u_r < 0.0)
            assert np.all(np.diff(tab.r) > 0.0)

    def test_lambda2_positive_along_admissible_profiles(self, run):
        for case in [(4, 1, 0.0), (4, 1, 1.0), (4, 2, 1.0)]:
            p, _sol, tr, _oc = run(*case)
            tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
            _l1, lam2, _sig = profile.sigma_k_column(tab, p)
            assert np.all(lam2 > 0.0)

    def test_u0_recovery(self, run):
        p, sol, tr, _oc = run(4, 1, 1.0)
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        assert tab.alpha == pytest.approx(sol.u0, abs=1e-6)

    def test_non_admissible_samples_excluded(self, run):
        p, _sol, tr, _oc = run(3, 2, 1.0)  # exits the region
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        assert np.all(tab.X < p.x_cap)


class TestOriginExpansion:
    @pytest.mark.parametrize("case", [(4, 1, 1.0), (4, 1, -1.0), (4, 2, 1.0), (5, 2, 0.0)])
    def test_quadratic_coefficient(self, case, run):
        p, _sol, tr, _oc = run(*case)
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        rep = profile.origin_expansion_check(tab, tab.alpha, p)
        assert rep.rel_err < 0.01
        # deviation from the quadratic model is o(r^2)
        assert rep.dev_small < rep.dev_large or rep.dev_large < 1e-12
        assert rep.zx_ratio_err < 1e-5

    @pytest.mark.parametrize("case", [(4, 1, 1.0), (12, 4, 2.0), (64, 8, 1.0)])
    def test_forged_table_is_flagged(self, case, run):
        # the readings fit the next orders of the expansion, and still see a
        # Z moved by 1e-4 or a quadratic term moved by 2 %
        p, _sol, tr, _oc = run(*case)
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        forged_z = replace(tab, Z=tab.Z * (1.0 + 1e-4))
        assert profile.origin_expansion_check(forged_z, tab.alpha, p).zx_ratio_err > 1e-5
        u = np.where(tab.r < 1.0, tab.alpha - 1.02 * (tab.alpha - tab.u), tab.u)
        assert profile.origin_expansion_check(replace(tab, u=u), tab.alpha, p).rel_err > 1e-2

    @pytest.mark.parametrize("n,k,rho", [(64, 50, 3.0), (64, 48, 2.01)])
    def test_origin_fit_raises_no_warning(self, n, k, rho, tmp_path):
        # at k = 50 the fit spans t = e^(2(s - s0)) in [1, 1.17], where the
        # powers of t are nearly parallel (numpy warned RankWarning); mapped
        # onto [-1, 1] they are not
        import warnings

        from ksol import cli

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["classify", "--n", str(n), "--k", str(k), "--rho", str(rho),
                             "--theta", "1", "--out", str(tmp_path / "c.json")])
        assert code == 0

    def test_origin_fit_in_powers_of_t(self):
        # the fit in the mapped variable comes back as powers of t: a
        # polynomial of the fit's degree is recovered, on a short span too
        for span in (0.5, 0.08):
            s = np.linspace(0.0, span, 40)
            t = np.exp(2.0 * s)
            coef = np.array([2.0, -1.0, 0.5, 0.25, -0.125, 0.0, 0.01, 0.0, -0.001])
            fit = profile._origin_fit(s, np.polynomial.polynomial.polyval(t, coef), 4.0 / span)
            np.testing.assert_allclose(np.polynomial.polynomial.polyval(t, fit),
                                       np.polynomial.polynomial.polyval(t, coef), rtol=1e-12)
            assert fit[0] == pytest.approx(coef[0], rel=1e-5 if span < 0.1 else 1e-9)

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
        rate = profile.z_tail_rate(tr, p, 5.0)
        assert rate == pytest.approx(-p.k * p.rho / p.theta, rel=0.01)

    @pytest.mark.parametrize("rho", [-1.0, 0.0])
    def test_z_rate_does_not_depend_on_the_sample_placement(self, rho, run):
        # every other sample dropped moves the rate by 2.6e-11 (expander)
        # and 2.4e-9 (steady, samples 1.0 apart) relative; linear
        # interpolation of ln Z between the samples moved it by 1.4e-7 and
        # 1.2e-4
        p, _sol, tr, _oc = run(4, 1, rho)
        keep = np.ones(tr.s.size, dtype=bool)
        keep[-2::-2] = False
        thin = replace(tr, s=tr.s[keep], X=tr.X[keep], Z=tr.Z[keep])
        rate = profile.z_tail_rate(tr, p, 5.0)
        assert profile.z_tail_rate(thin, p, 5.0) == pytest.approx(rate, rel=1e-8)

    def test_expander_u_exponent(self, run):
        p, _sol, tr, oc = run(4, 1, -1.0)
        rr = profile.tail_rate(profile.admissible_samples(tr, p), p, oc)
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
        rr = profile.tail_rate(profile.admissible_samples(tr, p), p, oc)
        assert rr.fitted_exponent == pytest.approx(-3.0, rel=0.02)
        assert rr.log_correction_power == pytest.approx(1.5, rel=0.02)

    def test_type_b_exponent(self, run):
        p, _sol, tr, oc = run(4, 1, 1.0)
        rr = profile.tail_rate(profile.admissible_samples(tr, p), p, oc)
        assert rr.fitted_exponent == pytest.approx(-3.0, rel=0.01)
        assert rr.log_correction_power is None

    def test_n2k_shrinker_d_consistency(self, run):
        p, _sol, tr, oc = run(4, 2, 1.0)
        d = oc.X_inf ** 0.5 / 2.0 - 1.0
        assert 0.0 < d <= 0.5
        rr = profile.tail_rate(profile.admissible_samples(tr, p), p, oc)
        assert rr.fitted_exponent == pytest.approx(-2.0 * (1.0 + d), rel=0.02)

    def test_rate_is_read_from_x(self, run):
        # d ln u/ds = -x along the flow: the exponent of an exponentially
        # converging orbit is -x at the end of the trace (k = 2, so x != X)
        p, _sol, tr, oc = run(4, 2, 1.0)
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        s, x = tab.samples.s, tab.samples.x
        np.testing.assert_allclose(np.gradient(tab.ln_u_full, s), -x, atol=1e-3)
        assert profile.tail_rate(tab.samples, p, oc).fitted_exponent == -x[-1]

    def test_short_tail_raises(self, run):
        p = phase.make_params(4, 1, 0.0, 1.0)
        controls = orbit.OrbitControls(s_max=0.5)
        _sol, tr, oc = orbit.run_orbit(p, 1.0, controls)
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        with pytest.raises(DomainError, match="s_max"):
            profile.tail_rate(tab.samples, p, oc)


class TestEllipticResidual:
    @pytest.mark.parametrize(
        "case", [(4, 1, -1.0), (4, 1, 0.0), (4, 1, 1.0), (4, 2, 1.0), (3, 2, 5.0)]
    )
    def test_small_along_converged_orbits(self, case, run):
        p, _sol, tr, _oc = run(*case)
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        rep = profile.elliptic_residual(tab, p)
        assert rep.max_rel < 1e-6
        assert rep.n_rows > 100

    def test_sigma_k_positive(self, run):
        p, _sol, tr, _oc = run(4, 1, 1.0)
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        _l1, _l2, sig = profile.sigma_k_column(tab, p)
        assert np.all(sig > 0.0)

    def test_rejects_constant_non_solution(self, run):
        # a constant conformal factor solves nothing: lambda2 = 0 rows are
        # rejected and the check refuses to bless it
        p, _sol, tr, _oc = run(4, 1, 1.0)
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
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
            samples=tab.samples,
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
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        assert profile.potential_identity_residual(tab, p) < 1e-6

    # the steady arc runs to s_max on the slow-manifold series; at rho = 1
    # the ends at B, which cut the arc short, are off
    @pytest.mark.parametrize("rho,ctrl", [(0.0, {}), (1.0, {"end_at_b": False})])
    def test_identity_holds_where_sigma_k_underflows(self, rho, ctrl, run):
        # at k = 4 the product lambda2^3 [bracket] underflows to subnormals:
        # on (12,4,1), held at B up to s = 200, sigma_k reads 1.5e-321 at
        # s = 92.6, and the residual read off the product was 1.8e-5
        p, _sol, tr, _oc = run(12, 4, rho, **ctrl)
        assert tr.status == "s_max"
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        assert profile.potential_identity_residual(tab, p) < 1e-12

    def test_gauge_shift_changes_nothing(self, run):
        p, _sol, tr, _oc = run(4, 1, 0.0)
        pot = profile.potential_phi(tr, p)
        shifted = pot.phi + 17.0
        # derivative content is identical up to float granularity
        np.testing.assert_allclose(np.diff(shifted), np.diff(pot.phi), rtol=1e-6, atol=1e-12)


class TestFlowSolutions:
    def test_scale_one_reproduces_u(self, run):
        p, _sol, tr, _oc = run(4, 1, 1.0)
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        fs = profile.flow_solution(tab, p, t=0.0, T=1.0)
        # the table's own radii, where the snapshot is u itself, and 1e-3,
        # below the table's first radius r0, where it is the origin
        # expansion, the table's polynomial in (r/r0)^2 (the local series
        # hands off at s0 = -0.10, and its head starts 6 units of s below)
        i = np.linspace(0, tab.r.size - 1, 9).astype(int)
        radii = np.append(tab.r[i], 1e-3)
        r0 = tab.r[0]
        expansion = np.polynomial.polynomial.polyval((1e-3 / r0) ** 2, tab.origin_fit)
        np.testing.assert_allclose(fs(radii), np.append(tab.u[i], expansion), rtol=1e-12)

    @pytest.mark.parametrize("n,k,rho", [(4, 1, 1.0), (12, 4, 2.0), (64, 8, 1.0)])
    def test_continuous_at_the_table_start(self, n, k, rho, run):
        # u(0) alone below the table jumped by 2.5e-6 relative at r = 1e-3
        # on (4,1,1); the origin expansion meets the table at its first
        # radius, and lies between it and u(0) below
        p, _sol, tr, _oc = run(n, k, rho)
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        fs = profile.flow_solution(tab, p, t=0.0, T=1.0)
        r0 = math.exp(tab.s[0])
        below, at = fs(np.array([r0 * (1.0 - 1e-12), r0]))
        assert abs(below - at) <= 1e-10 * at
        assert at == pytest.approx(tab.u[0], rel=1e-10)
        inner = fs(np.geomspace(1e-3 * r0, r0, 7))
        assert np.all(np.diff(inner) < 0.0) and tab.alpha > inner[0] > inner[-1]
        assert fs(np.array([0.0]))[0] == tab.alpha

    def test_self_similarity(self, run):
        p, _sol, tr, _oc = run(4, 1, 1.0)
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
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
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        ts = np.array([-1.0, 0.0, 1.0, 2.0])
        vals = [math.log(profile.flow_solution(tab, p, t)(np.array([0.0]))[0]) for t in ts]
        slopes = np.diff(vals) / np.diff(ts)
        np.testing.assert_allclose(slopes, -(2.0 * p.theta + p.rho), rtol=1e-12)

    def test_time_domain_errors(self, run):
        p, _sol, tr, _oc = run(4, 1, 1.0)
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        with pytest.raises(DomainError):
            profile.flow_solution(tab, p, t=1.5, T=1.0)
        pe, _sol2, tr2, _oc2 = run(4, 1, -1.0)
        tab2 = profile.reconstruct_u(profile.admissible_samples(tr2, pe), pe)
        with pytest.raises(DomainError):
            profile.flow_solution(tab2, pe, t=0.0)
        fs = profile.flow_solution(tab, p, t=0.0, T=1.0)
        with pytest.raises(DomainError):
            fs(np.array([1e30]))


@pytest.mark.slow
class TestHermiteReadersOracle:
    """``FlowSolution`` and ``potential_phi`` read the trace between its
    samples off the cubic Hermite with the field's slopes, which the samples
    keep within SAMPLE_TOL of the flow, in (X, ln Z). scipy Radau (rtol
    1e-13, atol 1e-13 in X and ln Z and 1e-16 of the piece's scale in phi),
    started from the sample before, gives the flow at 41 pieces spread over
    the trace: ln u at their midpoints, where linear interpolation in s was
    off by up to 8.5e-5 (on (4,1,1)), and phi's increment over the piece,
    where the trapezoid rule was off by up to 2e-2 relative (on (4,2,1))."""

    SETS = [(4, 1, 1.0), (4, 1, 0.0), (4, 2, 1.0), (5, 2, -1.0)]

    @staticmethod
    def _flow(p, s, X, Z, ends):
        """(ln Z, phi - phi(s)) of the flow from (X, Z) at s, at ``ends``."""
        integrate = pytest.importorskip("scipy.integrate")

        def fun(_s, y):
            z = math.exp(y[1])
            F, G = phase.vector_field(y[0], z, p)
            return [F, G / z, 2.0 * p.theta * math.exp(y[1] / p.k)]

        scale = 2.0 * p.theta * phase.kth_root(Z, p.k) * (ends[-1] - s)
        res = integrate.solve_ivp(
            fun, (s, ends[-1]), [X, math.log(Z), 0.0], method="Radau", rtol=1e-13,
            atol=[1e-13, 1e-13, 1e-16 * scale], t_eval=ends,
        )
        assert res.success
        return res.y[1], res.y[2]

    @pytest.mark.parametrize("n,k,rho", SETS)
    def test_u_between_samples(self, n, k, rho, run):
        p, _sol, tr, _oc = run(n, k, rho)
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        u = profile.FlowSolution("profile", 1.0, 1.0, tab)  # the snapshot at scale one
        s, X, Z = tab.samples.s, tab.samples.X, tab.samples.Z
        for i in np.linspace(0, s.size - 2, 41).astype(int):
            mid = 0.5 * (s[i] + s[i + 1])
            [ln_z], _phi = self._flow(p, s[i], X[i], Z[i], [mid])
            ln_u = (ln_z / k - 2.0 * mid) / (1.0 - p.m)
            assert abs(math.log(u(np.array([math.exp(mid)]))[0]) - ln_u) <= 1e-8, mid

    @pytest.mark.parametrize("n,k,rho", SETS)
    def test_phi_pieces(self, n, k, rho, run):
        p, _sol, tr, _oc = run(n, k, rho)
        pot = profile.potential_phi(tr, p)
        good = tr.Z > 0.0
        X, Z = tr.X[good], tr.Z[good]
        for i in np.linspace(0, pot.s.size - 2, 41).astype(int):
            _ln_z, [piece] = self._flow(p, pot.s[i], X[i], Z[i], [pot.s[i + 1]])
            # phi is a running sum: its difference rounds to a few ulps of phi
            slack = 4.0 * np.finfo(float).eps * pot.phi[i + 1]
            assert abs(pot.phi[i + 1] - pot.phi[i] - piece) <= 1e-8 * piece + slack, pot.s[i]


@pytest.mark.slow
class TestSteadyN2kOracle:
    """The n = 2k steady log power against scipy Radau (rtol = atol = 1e-13
    in (X, ln Z), analytic Jacobian). Radau starts from the trace at s = 5,
    where the orbit has left the origin, and integrates to s = 200, far
    enough to tell (k-2)/k from (k-1)/k."""

    @pytest.mark.parametrize("k", [3, 4])
    def test_radau_gives_k_minus_2_over_k(self, k, run, log_chart):
        integrate = pytest.importorskip("scipy.integrate")
        p, _sol, tr, oc = run(2 * k, k, 0.0)
        j = int(np.searchsorted(tr.s, 5.0))
        fun, jac = log_chart(p)
        res = integrate.solve_ivp(
            fun,
            (tr.s[j], 200.0),
            [tr.X[j], np.log(tr.Z[j])],
            method="Radau",
            rtol=1e-13,
            atol=1e-13,
            jac=jac,
            dense_output=True,
        )
        assert res.success
        # the fit of tail_rate: six powers of 1/s over [100, 200], here with
        # 1/s mapped onto [-1, 1], where 1/s = 0 lies at -3
        s = np.linspace(100.0, 200.0, 201)
        x = phase.kth_root(res.sol(s)[0], k)
        c0 = np.polyval(np.polyfit(400.0 / s - 3.0, s * (p.gamma - x), 5), -3.0)
        assert c0 == pytest.approx((k - 2.0) / k, abs=2e-3)
        assert abs(c0 - (k - 1.0) / k) > 0.2
        rr = profile.tail_rate(profile.admissible_samples(tr, p), p, oc)
        assert rr.log_correction_power == pytest.approx(c0, abs=1e-4)
        assert rr.predicted.log_power == pytest.approx(c0, abs=2e-3)
