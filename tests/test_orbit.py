"""Global continuation, event location, classification and monitors.

Integrator accuracy is pinned against two exact solutions of the full
nonlinear system: the logistic flow on the invariant axis Z = 0 (k = 1)
and the exponential solution riding the asymptote when n = 2k.
"""

import math

import numpy as np
import pytest

from ksol import _kernels, orbit, phase, picard
from ksol.errors import NotApplicableError

RNG = np.random.default_rng(11)


def integrate_state(x0, z0, s0, p, controls, stop_at_xb=False):
    s, X, Z, events, status, counters = orbit._integrate_raw(
        x0, z0, s0, p, controls, 0, stop_at_xb
    )
    return orbit.OrbitTrace(s, X, Z, events, status, **counters)


def all_pairs_crossings(px, pz, block=256):
    """Reference count for the sweep: every segment against every later one
    that shares no endpoint, with the same bounding-box and orientation
    tests and no pruning."""
    ax, az = px[:-1], pz[:-1]
    bx, bz = px[1:], pz[1:]
    x_lo, x_hi = np.minimum(ax, bx), np.maximum(ax, bx)
    z_lo, z_hi = np.minimum(az, bz), np.maximum(az, bz)
    n = ax.size
    crossings = 0
    for i0 in range(0, n - 2, block):
        r = np.arange(i0, min(i0 + block, n - 2))[:, None]
        c = np.arange(i0 + 2, n)
        near = (
            (c >= r + 2)
            & (x_lo[c] <= x_hi[r])
            & (x_hi[c] >= x_lo[r])
            & (z_lo[c] <= z_hi[r])
            & (z_hi[c] >= z_lo[r])
        )
        i, j = np.nonzero(near)
        i, j = i + i0, j + i0 + 2
        o1 = (bx[i] - ax[i]) * (az[j] - az[i]) - (bz[i] - az[i]) * (ax[j] - ax[i])
        o2 = (bx[i] - ax[i]) * (bz[j] - az[i]) - (bz[i] - az[i]) * (bx[j] - ax[i])
        o3 = (bx[j] - ax[j]) * (az[i] - az[j]) - (bz[j] - az[j]) * (ax[i] - ax[j])
        o4 = (bx[j] - ax[j]) * (bz[i] - az[j]) - (bz[j] - az[j]) * (bx[i] - ax[j])
        crossings += int(np.count_nonzero((o1 * o2 < 0.0) & (o3 * o4 < 0.0)))
    return crossings


class TestIntegratorOracles:
    def test_axis_logistic_closed_form(self):
        # on Z = 0 with k = 1 the system is logistic:
        # X(s) = K Y(s), Y' = -a Y (1 - Y), a = n-2, K = n+2
        n = 4
        p = phase.make_params(n, 1, 2.0, 1.0)
        a, K = n - 2.0, n + 2.0
        y0 = 0.8
        ctl = orbit.OrbitControls(s_max=10.0, asym_tol=-1.0)
        tr = integrate_state(K * y0, 0.0, 0.0, p, ctl)
        assert tr.status == "s_max"
        efold = np.exp(-a * tr.s)
        exact = K * y0 * efold / (1.0 - y0 + y0 * efold)
        assert np.max(np.abs(tr.X - exact)) < 1e-8
        np.testing.assert_array_equal(tr.Z, 0.0)
        # the X_B crossing happens at s* = ln(y0/(1-y0))/a, located by
        # bisection on the dense output
        crossings = tr.event_s("crossed_X_B")
        assert len(crossings) == 1
        assert crossings[0] == pytest.approx(math.log(y0 / (1.0 - y0)) / a, abs=1e-7)

    def test_n_eq_2k_asymptote_solution(self):
        # X = gamma^k, Z = Z(0) e^(-k rho/theta s) solves the system exactly
        p = phase.make_params(4, 2, 1.0, 1.0)
        ctl = orbit.OrbitControls(s_max=5.0, asym_tol=-1.0)
        tr = integrate_state(p.gamma_k, 1.0, 0.0, p, ctl)
        assert tr.status == "s_max"
        assert np.max(np.abs(tr.X - p.gamma_k)) < 1e-9
        exact = np.exp(-p.k * p.rho / p.theta * tr.s)
        assert np.max(np.abs(tr.Z - exact) / exact) < 1e-9

    def test_tolerance_controls_error(self):
        n = 5
        p = phase.make_params(n, 1, 2.5, 1.0)
        a, K = n - 2.0, n + 2.0
        errs = []
        for rtol in (1e-6, 1e-10):
            ctl = orbit.OrbitControls(s_max=8.0, rtol=rtol, asym_tol=-1.0)
            tr = integrate_state(K * 0.7, 0.0, 0.0, p, ctl)
            efold = np.exp(-a * tr.s)
            exact = K * 0.7 * efold / (0.3 + 0.7 * efold)
            errs.append(np.max(np.abs(tr.X - exact)))
        assert errs[1] < errs[0] / 100.0


class TestIntegratorEdges:
    def test_step_floor_reported(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        ctl = orbit.OrbitControls(s_max=5.0, step_floor=0.5, max_step=0.25)
        tr = integrate_state(1.0, 0.5, 0.0, p, ctl)
        assert tr.status == "step_floor"
        assert tr.event_s("step_floor")

    def test_sample_overflow_is_explicit(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        ctl = orbit.OrbitControls(s_max=50.0, max_samples=40, max_step=0.05)
        tr = integrate_state(1.0, 0.5, 0.0, p, ctl)
        assert tr.status == "sample_overflow"
        oc = orbit.classify_orbit(tr, p)
        assert oc.kind == orbit.UNDETERMINED  # never silently guessed

    def test_generalized_b_abstention(self):
        # with convergence detection disabled the orbit keeps circling B;
        # the classifier must report the bounded band, not convergence
        p = phase.make_params(4, 1, 1.0, 1.0)
        ctl = orbit.OrbitControls(s_max=40.0, conv_dist=0.0)
        tr = integrate_state(1.0, 0.5, 0.0, p, ctl)
        assert tr.status == "s_max"
        oc = orbit.classify_orbit(tr, p)
        assert oc.kind == orbit.GENERALIZED_B

    def test_dropped_events_are_counted(self):
        # events past the buffer are counted, not lost silently; no orbit
        # crosses X_B often enough to fill it (B damps every spiral within
        # ~20 crossings), so the kernel's logger is driven directly
        cap = _kernels.EV_CAP
        ev_s = np.empty(cap)
        ev_code = np.zeros(cap, dtype=np.int64)
        n_ev = 0
        for i in range(cap + 100):
            n_ev = _kernels._log_event(ev_s, ev_code, n_ev, float(i), _kernels.EV_CROSS_XB)
        assert n_ev == cap + 100
        np.testing.assert_array_equal(ev_s, np.arange(cap))
        np.testing.assert_array_equal(ev_code, _kernels.EV_CROSS_XB)


class TestEventsPerRegime:
    def test_expander_monotone_to_asymptote(self, run):
        p, _sol, tr, oc = run(4, 1, -1.0)
        assert tr.status == "reached_asymptote"
        assert oc.kind == orbit.TYPE_GAMMA
        assert np.all(np.diff(tr.X) > -1e-12)
        assert tr.X[-1] == pytest.approx(p.gamma_k, rel=1e-4)

    def test_shrinker_crosses_and_z_turns(self, run):
        p, _sol, tr, oc = run(4, 1, 1.0)
        crossings = tr.event_s("crossed_X_B")
        assert crossings and crossings[0] < math.inf
        assert oc.kind == orbit.TYPE_B
        # Z decreases right after the first crossing
        j = int(np.searchsorted(tr.s, crossings[0]))
        seg = tr.Z[j : j + 40]
        assert seg[-1] < seg[0]

    @pytest.mark.parametrize("alpha", [1.0, 1.15, 1.18])
    def test_subcritical_dimension_exits(self, alpha, run):
        # X_s > 0 on X = x_cap for n < 2k: the orbit exits, whatever alpha
        p, _sol, tr, oc = run(3, 2, 1.0, alpha=alpha)
        assert oc.kind == orbit.NON_ADMISSIBLE
        assert oc.s_exit is not None and math.isfinite(oc.s_exit)
        assert tr.X[-1] == pytest.approx(p.x_cap, rel=1e-9)
        # every sample before the exit is admissible
        from ksol.phase import in_admissible_region

        for X, Z in zip(tr.X[:-1], tr.Z[:-1]):
            assert in_admissible_region((X, Z), p)

    def test_converged_B_certificate(self, run):
        p, _sol, tr, _oc = run(4, 1, 1.0)
        X_end, Z_end = tr.end_state
        assert abs(X_end - p.X_B) < 1e-6
        assert abs(Z_end - p.Z_B) < 1e-6

    def test_n2k_shrinker_axis_collapse(self, run):
        p, _sol, tr, oc = run(4, 2, 1.0)
        assert oc.kind == orbit.GENERALIZED_A
        assert p.X_B < oc.X_inf <= p.x_cap
        d = oc.X_inf ** 0.5 / 2.0 - 1.0
        assert 0.0 < d <= p.rho / (2.0 * p.theta)


EXPECTED_GRID_CASES = [(4, 1), (4, 2), (3, 2)]


class TestRegimeTable:
    @pytest.mark.parametrize("n,k", EXPECTED_GRID_CASES)
    def test_classification_grid(self, n, k, run):
        # 5x5 in (theta, rho/theta), spanning every column of the taxonomy
        for theta in (0.5, 0.7, 1.0, 1.6, 2.0):
            for c in (-1.0, 0.0, 1.0, 2.0, 4.0):
                rho = c * theta
                _p, _sol, _tr, oc = run(n, k, rho, theta)
                expected = orbit.expected_kinds(phase.make_params(n, k, rho, theta))
                assert oc.kind in expected, (n, k, rho, theta, oc.kind, expected)

    def test_expected_kinds_reference(self):
        assert orbit.expected_kinds(phase.make_params(4, 1, -1.0, 1.0)) == {orbit.TYPE_GAMMA}
        assert orbit.expected_kinds(phase.make_params(4, 1, 1.0, 1.0)) == {
            orbit.TYPE_B,
            orbit.GENERALIZED_B,
        }
        assert orbit.TYPE_A in orbit.expected_kinds(phase.make_params(4, 1, 5.0, 1.0))
        assert orbit.expected_kinds(phase.make_params(3, 2, 1.0, 1.0)) == {orbit.NON_ADMISSIBLE}
        assert orbit.expected_kinds(phase.make_params(3, 2, 4.0, 1.0)) == {orbit.TYPE_A}


class TestMonitors:
    CASES = [(4, 1, -1.0), (4, 1, 0.0), (4, 1, 1.0), (4, 1, 5.0), (4, 2, 1.0), (5, 2, 0.0)]

    @pytest.mark.parametrize("n,k,rho", CASES)
    def test_clean_traces_have_no_violations(self, n, k, rho, run):
        p, _sol, tr, _oc = run(n, k, rho)
        rep = orbit.monitor_report(tr, p)
        assert rep == {
            "x_monotone_below_XB": 0,
            "z_lower_bound": 0,
            "log_z_identity": 0,
            "self_intersections": 0,
        }

    def test_log_identity_holds_across_spacing_jumps(self, run):
        # (4,1,5) at alpha 0.7 has a sample spacing that drops from 0.049 to
        # 0.041 at s = 3.396; a g'' taken from np.gradient twice there left
        # a clean trace with one violation of 6.7e-7
        p, _sol, tr, _oc = run(4, 1, 5.0, alpha=0.7)
        assert orbit.log_z_identity_check(tr, p) == []

    def test_perturbed_z_flags_log_identity(self, run):
        p, _sol, tr, _oc = run(4, 1, 1.0)
        Z = tr.Z.copy()
        j = tr.Z.size // 2
        Z[j] *= 1.01
        bad = orbit.OrbitTrace(tr.s, tr.X, Z, tr.events, tr.status)
        assert len(orbit.log_z_identity_check(bad, p)) >= 1

    def test_manufactured_monotonicity_violation(self, run):
        p, _sol, tr, _oc = run(4, 1, 1.0)
        Z = tr.Z.copy()
        # pre-crossing sample pushed to the axis: the field then points left
        j = int(np.searchsorted(tr.X, 1.0))
        Z[j] = 1e-6
        bad = orbit.OrbitTrace(tr.s, tr.X, Z, tr.events, tr.status)
        assert len(orbit.monotonicity_monitor(bad, p)) >= 1

    def test_manufactured_z_bound_violation(self, run):
        p, _sol, tr, _oc = run(4, 1, -1.0)
        Z = tr.Z.copy()
        # push the final sample below the exponential lower bound
        rate = -p.k * p.rho / p.theta
        Z[-1] = 0.5 * tr.Z[0] * math.exp(rate * (tr.s[-1] - tr.s[0]))
        bad = orbit.OrbitTrace(tr.s, tr.X, Z, tr.events, tr.status)
        assert len(orbit.z_lower_bound_check(bad, p)) >= 1

    def test_figure_eight_detected(self):
        s = np.arange(5.0)
        X = np.array([0.0, 1.0, 1.0, 0.0, 0.3])
        Z = np.array([0.0, 1.0, 0.0, 1.0, 0.9])
        fake = orbit.OrbitTrace(s, X, Z, [], "s_max")
        assert orbit.self_intersection_check(fake) >= 1

    def test_sweep_matches_all_pairs(self, run):
        # grid-snapped random walks: ties in x_lo, vertical, zero-length and
        # collinear overlapping segments, shared endpoints; 700 points span
        # three SELF_X_BLOCK blocks
        rng = np.random.default_rng(2024)
        for grid, size in [(4, 40), (7, 700), (25, 700), (300, 700)]:
            px = rng.integers(0, grid, size).astype(float)
            pz = rng.integers(0, grid, size).astype(float)
            want = all_pairs_crossings(px, pz)
            assert orbit._crossings(px, pz) == want
            if grid <= 7:
                assert want > 0
        s = np.arange(5.0)
        X = np.array([0.0, 1.0, 1.0, 0.0, 0.3])
        Z = np.array([0.0, 1.0, 0.0, 1.0, 0.9])
        cases = [(orbit.OrbitTrace(s, X, Z, [], "s_max"), None)]
        for n, k, rho, theta in [(4, 1, 1.0, 1e-6), (4, 1, 0.0, 1.0)]:
            p, _sol, tr, _oc = run(n, k, rho, theta=theta)
            cases.append((tr, p))
        counts = []
        for tr, p in cases:
            px, pz = orbit._monitor_polyline(tr, p, 4000)
            counts.append(orbit.self_intersection_check(tr, p))
            assert counts[-1] == all_pairs_crossings(px, pz)
        assert counts == [1, 15767, 0]


class TestBarrier:
    def test_reference_case(self):
        p = phase.make_params(4, 1, 5.0, 1.0)
        rep = orbit.barrier_compare(p)
        assert rep.ordered and rep.min_gap > 0.0
        assert rep.slope_origin == pytest.approx(p.n / p.f0)
        assert rep.slope_A == pytest.approx(p.n / p.h0)
        assert rep.slope_origin <= rep.slope_A
        assert rep.f_gt_h and rep.f_minus_h_min > 0.0

    def test_not_applicable(self):
        with pytest.raises(NotApplicableError):
            orbit.barrier_compare(phase.make_params(4, 1, 1.0, 1.0))
        with pytest.raises(NotApplicableError):
            orbit.barrier_compare(phase.make_params(3, 2, 5.0, 1.0))

    def test_k2_barrier(self):
        p = phase.make_params(5, 2, 5.0, 1.0)
        rep = orbit.barrier_compare(p)
        assert rep.ordered and rep.f_gt_h

    def test_k3_barrier(self):
        p = phase.make_params(7, 3, 8.0, 1.0)
        rep = orbit.barrier_compare(p)
        assert rep.ordered and rep.f_gt_h

    def test_barrier_just_above_threshold(self):
        # rho barely above 2 theta: h(0) is small but the comparison stands
        p = phase.make_params(4, 1, 2.2, 1.0)
        rep = orbit.barrier_compare(p)
        assert rep.ordered and rep.f_gt_h
        assert rep.slope_A > rep.slope_origin

    @pytest.mark.parametrize("rho,theta", [(5.0, 1.0), (1.0, 1e-6)])
    @pytest.mark.parametrize("alpha", [0.5, 0.7, 2.0])
    def test_main_trace_matches_stopped_run(self, rho, theta, alpha):
        # the origin curve cut from a full run at its first X_B crossing
        # against a run of its own stopped there
        p = phase.make_params(4, 1, rho, theta)
        _sol, tr, _oc = orbit.run_orbit(p, alpha)
        cut = orbit.barrier_compare(p, alpha, trace=tr)
        own = orbit.barrier_compare(p, alpha)
        assert (cut.ordered, cut.f_gt_h) == (own.ordered, own.f_gt_h)
        assert abs(cut.min_gap - own.min_gap) <= 1e-9
