"""Robustness across the parameter space: scaling invariance, higher k,
theta away from 1, and the near-degenerate corner 2 theta + rho -> 0+."""

import numpy as np
import pytest

from ksol import orbit, phase, profile


class TestScalingInvariance:
    """The unstable manifold of the origin is one-dimensional, so every
    alpha parametrizes the same phase orbit up to an s-translation:
    classification and decay exponents cannot depend on alpha."""

    @pytest.mark.parametrize("n,k,rho", [(4, 1, 1.0), (4, 2, 1.0)])
    def test_class_and_exponent_alpha_independent(self, n, k, rho, run):
        kinds, exps, xinfs = [], [], []
        for alpha in (0.2, 1.0, 5.0):
            p, _sol, tr, oc = run(n, k, rho, 1.0, alpha)
            kinds.append(oc.kind)
            xinfs.append(oc.X_inf)
            exps.append(profile.tail_rate(profile.admissible_samples(tr, p), p, oc).fitted_exponent)
        assert len(set(kinds)) == 1
        assert max(exps) - min(exps) < 1e-4 * abs(exps[0])
        if xinfs[0] is not None:
            assert max(xinfs) - min(xinfs) < 1e-5 * xinfs[0]

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 1)])
    def test_steady_log_power_alpha_independent(self, n, k, run):
        powers = []
        for alpha in (0.5, 1.0, 2.0):
            p, _sol, tr, oc = run(n, k, 0.0, 1.0, alpha)
            rr = profile.tail_rate(profile.admissible_samples(tr, p), p, oc)
            assert rr.log_correction_power == pytest.approx(rr.predicted.log_power, abs=1e-3)
            powers.append(rr.log_correction_power)
        assert max(powers) - min(powers) <= 2e-4

    def test_orbit_is_translation_of_itself(self, run):
        # Z as a function of X is the alpha-free signature of the orbit
        grid = np.linspace(0.5, 2.5, 50)
        curves = []
        for alpha in (1.0, 3.0):
            p, _sol, tr, _oc = run(4, 1, 1.0, 1.0, alpha)
            climb = tr.s <= tr.event_s("crossed_X_B")[0]
            X, Z = tr.X[climb], tr.Z[climb]
            F, G = phase.vector_field(X, Z, p)
            curves.append(orbit.hermite(X, Z, G / F, grid))
        # rescaling u by lambda composes with r -> lambda^((1-m)/2) r into a
        # pure s-translation, so the Z(X) curve is literally the same; read
        # off the cubic Hermite in X with slopes dZ/dX = G/F, the two agree
        # to 9.2e-10 (chords between the samples: 1.1e-5)
        np.testing.assert_allclose(curves[1], curves[0], rtol=1e-8)


class TestHigherK:
    def test_k3_shrinker_converges_to_B(self, run):
        # the Poincare return ends the default run; the rate is read on the
        # arc with the ends at B off, up to s = 47.7, about where the band
        # test alone would end it
        p, _sol, _tr, oc = run(7, 3, 1.0)
        assert oc.kind == orbit.TYPE_B and oc.diagnostics["criterion"] == "poincare_return"
        p, _sol, tr, _oc = run(7, 3, 1.0, s_max=47.7, end_at_b=False)
        X_end, Z_end = tr.end_state
        assert abs(X_end - p.X_B) < 1e-6 and abs(Z_end - p.Z_B) < 1e-6
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        assert profile.elliptic_residual(tab, p).max_rel < 1e-6
        rr = profile.tail_rate(tab.samples, p, oc)
        assert rr.fitted_exponent == pytest.approx(-2.0 / (1.0 - p.m), rel=0.01)

    def test_k3_n2k_shrinker_d_window(self, run):
        p, _sol, tr, oc = run(6, 3, 1.0)
        assert oc.kind == orbit.GENERALIZED_A
        d = oc.X_inf ** (1.0 / 3.0) / 2.0 - 1.0
        assert 0.0 < d <= p.rho / (2.0 * p.theta)
        rr = profile.tail_rate(profile.admissible_samples(tr, p), p, oc)
        assert rr.fitted_exponent == pytest.approx(-2.0 * (1.0 + d), rel=0.02)

    def test_k3_subcritical_fast_decay(self, run):
        p, _sol, tr, oc = run(5, 3, 5.0)
        assert oc.kind == orbit.TYPE_A
        rr = profile.tail_rate(profile.admissible_samples(tr, p), p, oc)
        assert rr.fitted_exponent == pytest.approx(-4.0 / (1.0 - p.m), rel=0.02)

    def test_k4_monitors_clean(self, run):
        p, _sol, tr, _oc = run(9, 4, 1.0)
        assert orbit.monitor_report(tr, p) == {
            "x_monotone_below_XB": 0,
            "z_lower_bound": 0,
            "log_z_identity": 0,
            "self_intersections": 0,
        }

    def test_k_equals_n_corner(self, run):
        # k = n kills the lambda2 term of the identity (its coefficient is
        # (n-k)/k) and the deep tail cancels below double precision; the
        # residual must still verify against the constituent scale
        p, _sol, tr, oc = run(3, 3, 5.0)
        assert oc.kind == orbit.TYPE_A
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        assert profile.elliptic_residual(tab, p).max_rel < 1e-6
        rr = profile.tail_rate(tab.samples, p, oc)
        assert rr.fitted_exponent == pytest.approx(-3.0, rel=0.02)

    def test_large_n_classical(self, run):
        # the funnel ends the default run at its hand-off; the rate is read on
        # the arc with the ends at B off, up to s = 23.3, about where the band
        # test alone would end it
        p, _sol, _tr, oc = run(12, 1, 1.0)
        assert oc.kind == orbit.TYPE_B and oc.diagnostics["criterion"] == "funnel"
        p, _sol, tr, arc_oc = run(12, 1, 1.0, s_max=23.3, end_at_b=False)
        rr = profile.tail_rate(profile.admissible_samples(tr, p), p, arc_oc)
        assert rr.fitted_exponent == pytest.approx(-2.0 / (1.0 - p.m), rel=0.01)

    def test_k5_critical_dimension(self, run):
        p, _sol, tr, oc = run(10, 5, 1.0)
        assert oc.kind == orbit.GENERALIZED_A
        d = oc.X_inf ** (1.0 / 5.0) / 2.0 - 1.0
        assert 0.0 < d <= 0.5
        rr = profile.tail_rate(profile.admissible_samples(tr, p), p, oc)
        assert rr.fitted_exponent == pytest.approx(-2.0 * (1.0 + d), rel=0.02)


class TestThetaScaling:
    def test_expander_rate_tracks_theta(self, run):
        for theta in (0.5, 2.0):
            rho = -0.9 * theta
            p, _sol, tr, oc = run(4, 1, rho, theta)
            assert oc.kind == orbit.TYPE_GAMMA
            rate = profile.z_tail_rate(tr, p, 4.0)
            assert rate == pytest.approx(-p.k * p.rho / p.theta, rel=0.01)

    def test_steady_slope_tracks_theta(self, run):
        # the slope is read on the arc to s_max, the slow-manifold series'
        p, _sol, tr, _oc = run(5, 1, 0.0, 2.0)
        assert tr.status == "s_max" and tr.hand_over is not None
        a, _b, r2 = profile.affine_z_root_fit(tr, p)
        assert r2 > 0.999
        C = profile.steady_slope_constant(p)
        assert a == pytest.approx(2.0 * C ** (1.0 / p.k) / p.gamma, rel=1e-3)


class TestNearDegenerateCorner:
    def test_barely_admissible_expander(self, run):
        # 2 theta + rho = 0.01: gamma is tiny, the asymptote sits close to
        # the origin and the machinery must still deliver a type-gamma orbit
        p, sol, tr, oc = run(4, 1, -1.99, 1.0)
        assert sol.sup_residual < 1e-10
        assert oc.kind == orbit.TYPE_GAMMA
        assert orbit.monitor_report(tr, p)["log_z_identity"] == 0

    def test_huge_rho(self, run):
        p, _sol, tr, oc = run(4, 1, 40.0)
        assert oc.kind in orbit.expected_kinds(p)
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        assert profile.elliptic_residual(tab, p).max_rel < 1e-6
