"""Global continuation, event location, classification and monitors.

Integrator accuracy is pinned against two exact solutions of the full
nonlinear system: the logistic flow on the invariant axis Z = 0 (k = 1)
and the exponential solution riding the asymptote when n = 2k.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ksol import _kernels, orbit, phase, picard
from ksol.errors import NotApplicableError

RNG = np.random.default_rng(11)


def integrate_state(x0, z0, s0, p, controls):
    w0 = math.log(p.cb * z0) if z0 > 0.0 else -math.inf
    s, X, Z, events, status, counters = orbit._integrate_raw(x0, w0, s0, p, controls)
    return orbit.OrbitTrace(s, X, Z, events, status, **counters)


class TestHermite:
    def test_reads_the_kernels_hermite_bit_for_bit(self):
        rng = np.random.default_rng(5)
        knots = np.cumsum(rng.uniform(0.01, 0.5, 40))
        values, slopes = rng.normal(size=40), rng.normal(size=40)
        at = rng.uniform(knots[0], knots[-1], 200)
        got = orbit.hermite(knots, values, slopes, at)
        i = np.searchsorted(knots, at, side="right") - 1
        for g, j, a in zip(got, i, at):
            h = knots[j + 1] - knots[j]
            c = _kernels._hermite_coeffs(h, values[j], slopes[j], values[j + 1], slopes[j + 1])
            assert g == _kernels._dense((a - knots[j]) / h, values[j], c)

    def test_exact_on_cubics_and_clipped_to_the_end_pieces(self):
        knots = np.array([0.0, 0.3, 1.0, 1.7])
        at = np.array([-0.2, 0.0, 0.5, 1.7, 2.0])
        got = orbit.hermite(knots, knots**3 - knots, 3.0 * knots**2 - 1.0, at)
        np.testing.assert_allclose(got, at**3 - at, rtol=0.0, atol=1e-14)

    def test_equal_values_read_without_warnings(self):
        # ln Z = -inf on the invariant axis: d = 0, no inf - inf (the suite
        # turns RuntimeWarning into an error)
        got = orbit.hermite(
            np.array([0.0, 1.0]), np.array([-np.inf, -np.inf]), np.array([2.0, 2.0]),
            np.array([0.5]),
        )
        assert got[0] == -np.inf


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
        ctl = orbit.OrbitControls(s_max=5.0, step_floor=0.5)
        tr = integrate_state(1.0, 0.5, 0.0, p, ctl)
        assert tr.status == "step_floor"
        assert tr.event_s("step_floor")

    def test_sample_overflow_is_explicit(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        ctl = orbit.OrbitControls(s_max=50.0, max_samples=40)
        tr = integrate_state(1.0, 0.5, 0.0, p, ctl)
        assert tr.status == "sample_overflow"
        oc = orbit.classify_orbit(tr, p)
        assert oc.kind == orbit.UNDETERMINED  # never silently guessed

    def test_truncated_type_gamma_run_is_undetermined(self):
        # the expander (4,1,-1) is TypeGamma; cut at half its integrator
        # samples, its tail still climbs toward gamma, but the run never
        # reached the asymptote and must not be labelled
        p = phase.make_params(4, 1, -1.0, 1.0)
        _sol, tr, oc = orbit.run_orbit(p)
        assert oc.kind == orbit.TYPE_GAMMA
        half = (tr.s.size - tr.tail_end_index) // 2
        _sol, cut, oc = orbit.run_orbit(p, controls=orbit.OrbitControls(max_samples=half))
        assert cut.status == "sample_overflow"
        assert cut.s.size - cut.tail_end_index == half
        assert oc.kind == orbit.UNDETERMINED
        assert oc.diagnostics["reason"] == "trace cut short (sample_overflow)"

    @pytest.mark.parametrize("n,k,rho", [(4, 1, 1.0), (4, 2, 1e-2), (4, 1, 5.0)])
    def test_asymptote_end_at_positive_rho_is_undetermined(self, n, k, rho, run):
        # at rho > 0, gamma > x_B and Z decays along the asymptote, so no
        # orbit is TypeGamma: an end there is a slow passage cut short
        p, _sol, tr, _oc = run(n, k, rho)
        oc = orbit.classify_orbit(replace(tr, status="reached_asymptote"), p)
        assert oc.kind == orbit.UNDETERMINED
        assert oc.diagnostics["reason"].startswith("slow passage")

    def test_exp_w_max_is_the_bound_on_w(self):
        # nothing bounds Z but the float range: on the exact asymptote
        # solution of n = 2k, rho < 0, W = ln(c_nk beta^k Z) climbs at the
        # rate 2 until a step would take e^W past EXP_W_MAX, a bad state,
        # and the rejected steps shrink to the step floor
        p = phase.make_params(4, 2, -1.0, 1.0)
        ctl = orbit.OrbitControls(s_max=2000.0, asym_tol=-1.0)
        tr = integrate_state(p.gamma_k, 1.0, 0.0, p, ctl)
        assert tr.status == "step_floor"
        assert np.all(tr.X == p.gamma_k)
        assert math.log(p.cb * tr.Z[-1]) == pytest.approx(_kernels.EXP_W_MAX, abs=1e-9)
        assert math.isfinite(tr.Z[-1])

    def test_asymptote_event_off_ends_cut_short(self):
        # without the asymptote event the expander (64,8,-1) climbs the
        # asymptote until its steps fail at the step floor (at W ~ 261,
        # where gamma - x is lost to rounding), and the cut trace is not
        # labelled
        p = phase.make_params(64, 8, -1.0, 1.0)
        ctl = orbit.OrbitControls(asym_tol=-1.0, s_max=2000.0)
        _sol, tr, oc = orbit.run_orbit(p, controls=ctl)
        assert tr.status == "step_floor" and tr.s[-1] < 2000.0
        assert oc.kind == orbit.UNDETERMINED
        assert oc.diagnostics["reason"] == "trace cut short (step_floor)"

    def test_start_where_c_nk_beta_k_z_underflows(self):
        # (33,16) at rho = 10, theta = 1e-3: c_nk beta^k = 1.9e-51. The
        # hand-off has W = -170, but the series' point 19 units of s below
        # it has W = -776 < EXP_W_MIN (Z = 4.0e-287 there, and its product
        # with c_nk beta^k underflows to 0): W is summed from logs, and below
        # EXP_W_MIN the field's f-term and the samples' Z are too, so the run
        # climbs out of the range where e^W underflows and collapses onto
        # the axis at A: TypeA, as the table has it
        p = phase.make_params(33, 16, 10.0, 1e-3)
        sol = picard.picard_solve(1.0, p)
        s = sol.s0 - 19.0
        u = math.exp(2.0 * (s - sol.s0))
        X, Z = sol.state(s)
        w = math.log(p.cb) + sol.log_z0 + 2.0 * p.k * (s - sol.s0)
        w += math.log(np.polynomial.polynomial.polyval(u, sol.z_coef))
        assert p.cb * Z == 0.0 < Z and w < _kernels.EXP_W_MIN
        assert w == pytest.approx(math.log(p.cb) + math.log(Z), rel=1e-14)
        out = orbit._integrate_raw(float(X), w, s, p, orbit.OrbitControls())
        tr = orbit.OrbitTrace(*out[:5], **out[5])
        assert tr.status == "converged_axis" and orbit.classify_orbit(tr, p).kind == orbit.TYPE_A
        assert tr.Z[0] == pytest.approx(Z, rel=1e-10)

    def test_generalized_b_abstention(self):
        # with convergence detection disabled the orbit keeps circling B;
        # the classifier must report the bounded band, not convergence
        p = phase.make_params(4, 1, 1.0, 1.0)
        ctl = orbit.OrbitControls(s_max=40.0, end_at_b=False)
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

    def test_uncertified_node_settles_at_B(self, run):
        p, _sol, tr, _oc = run(6, 1, 1.0)
        X_end, Z_end = tr.end_state
        assert abs(X_end - p.X_B) < 1e-6
        assert abs(Z_end - p.Z_B) < 1e-6

    def test_n2k_shrinker_axis_collapse(self, run):
        p, _sol, tr, oc = run(4, 2, 1.0)
        assert oc.kind == orbit.GENERALIZED_A
        assert p.X_B < oc.X_inf <= p.x_cap
        d = oc.X_inf ** 0.5 / 2.0 - 1.0
        assert 0.0 < d <= p.rho / (2.0 * p.theta)


class TestReturnCertificate:
    """A focus ends at two contracting upward returns to X = X_B
    (``_kernels.certifies_b``); a run that no return certifies ends at the
    funnel or the band test."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9])
    def test_weak_focus_is_certified_at_its_second_return(self, alpha, run):
        # B damps at 1e-6 per unit s: the band test would need s ~ 1e7, and
        # the run reached s_max = 200 Undetermined after 1,181 steps
        p, _sol, tr, oc = run(4, 1, 1.0, theta=1e-6, alpha=alpha)
        assert (oc.kind, tr.status) == (orbit.TYPE_B, "certified_B")
        assert tr.accepted_steps <= 120 and 16.0 < tr.s[-1] < 17.5
        s1, z1, s2, z2, bound = tr.certificate
        ups = [s for s in tr.event_s("crossed_X_B") if tr.X[np.searchsorted(tr.s, s) - 1] < p.X_B]
        assert ups == [s1, s2] and s2 == tr.s[-1] and tr.X[-1] == p.X_B
        assert tr.events[-1] == (s2, "certified_B")
        for s, z in ((s1, z1), (s2, z2)):
            assert tr.Z[np.searchsorted(tr.s, s)] == z
        diag = oc.diagnostics
        assert diag["criterion"] == "poincare_return"
        assert diag["returns"] == ((s1, z1), (s2, z2))
        assert 0.999 < diag["contraction"] < 1.0
        assert diag["margin"] == (z1 - z2) / bound > 1.0

    @pytest.mark.parametrize(
        "n,k,rho", [(4, 1, -1.0), (4, 1, 0.0), (5, 2, -1.0), (6, 1, -1.0), (6, 1, 1.0)]
    )
    def test_no_certificate_without_a_spiral_into_B(self, n, k, rho, run):
        # rho <= 0: no B draws the run (at (6,1,-1) the field's B is a source
        # outside the region), and its one certificate is the asymptote
        # trap; (6,1,1): a node (double eigenvalue -2) whose funnel fences
        # fail, approached without a return
        p, _sol, tr, oc = run(n, k, rho)
        assert tr.status != "certified_B"
        if rho <= 0.0:
            assert isinstance(tr.certificate, orbit.TrapCertificate)
            assert oc.diagnostics["criterion"] == "asymptote_trap"
        else:
            assert tr.certificate is None and "criterion" not in oc.diagnostics
        assert (_kernels.pack_params(p)[_kernels.PP_BZ] > 0.0) == (rho > 0.0)

    @pytest.mark.parametrize("n,k,rho,most", [(4, 1, 1.0, 60), (4, 1, 5.0, 60), (5, 2, 1.0, 70)])
    def test_spiral_ends_at_its_second_upward_return(self, n, k, rho, most, run):
        # the band test alone ends these runs after 72, 241 and 107 steps
        p, _sol, tr, oc = run(n, k, rho)
        assert (oc.kind, tr.status) == (orbit.TYPE_B, "certified_B")
        assert oc.diagnostics["criterion"] == "poincare_return"
        assert tr.accepted_steps <= most
        s1, _z1, s2, _z2, _bound = tr.certificate
        ups = [s for s in tr.event_s("crossed_X_B") if tr.X[np.searchsorted(tr.s, s) - 1] < p.X_B]
        assert ups == [s1, s2] and s2 == tr.s[-1]

    def test_end_at_b_false_turns_the_certificate_off(self):
        p = phase.make_params(4, 1, 1.0, 1e-6)
        sol = picard.picard_solve(1.0, p)
        tr = orbit.integrate(sol, p, orbit.OrbitControls(s_max=40.0, end_at_b=False))
        assert tr.status == "s_max" and tr.certificate is None

    # certifies_b(z1, z2, z_b, bound) with Z_B = 1
    def test_predicate_accepts_a_slow_contracting_pair(self):
        assert _kernels.certifies_b(2.0, 1.99, 1.0, 1e-6)

    @pytest.mark.parametrize(
        "z1,z2,bound",
        [
            (1.99, 2.0, 1e-6),  # moving away from B
            (1.5, 0.5, 1e-6),  # straddling Z_B
            (1.5, 1.0, 1e-6),  # the second return at Z_B
            (2.0, 1.99, 0.02),  # a gap below the error bound
            (math.nan, 1.99, math.nan),  # no earlier return
        ],
    )
    def test_predicate_rejects(self, z1, z2, bound):
        assert not _kernels.certifies_b(z1, z2, 1.0, bound)


EXPECTED_GRID_CASES = [(4, 1), (4, 2), (3, 2)]


class TestAsymptoteTrap:
    @pytest.mark.parametrize(
        "n,k,rho",
        [(4, 1, -1.0), (4, 1, 0.0), (5, 2, -1.0), (64, 8, 0.0), (4, 2, -1.0), (4, 2, 0.0),
         (10, 5, 0.0)],
    )
    def test_hand_off_lies_in_the_trap(self, n, k, rho, run):
        p, sol, _tr, oc = run(n, k, rho)
        cert = orbit.asymptote_trap(sol, p)
        assert cert is not None and cert.margin > 1.0
        assert oc.kind == orbit.TYPE_GAMMA
        assert oc.diagnostics["criterion"] == "asymptote_trap"
        assert oc.diagnostics["margin"] == cert.margin
        assert oc.diagnostics["hand_off"] == (cert.X, cert.Z)

    @pytest.mark.parametrize("n,k", [(4, 1), (9, 4)])
    def test_refuses_forged_points(self, n, k, run):
        # x >= gamma: on the asymptote itself, and a point whose box reaches
        # it; F <= 0: on the nullcline F = 0 and below it
        p, sol, _tr, _oc = run(n, k, 0.0)
        X, Z, err = orbit._hand_off(sol, p)
        assert orbit.trap_certificate(X, Z, err, p) is not None
        assert orbit.trap_certificate(p.gamma_k, Z, err, p) is None
        assert orbit.trap_certificate(p.gamma_k * (1.0 - 1e-9), Z, 1e-9 * p.gamma_k, p) is None
        F0, _G = phase.vector_field(X, 0.0, p)
        f = phase.profile_value(phase.kth_root(X, k), p)
        z_null = -F0 / f  # F = -(n-2k) q X + Z f vanishes here
        assert orbit.trap_certificate(X, z_null, 0.0, p) is None
        assert orbit.trap_certificate(X, 0.5 * z_null, 0.0, p) is None
        assert orbit.trap_certificate(X, 2.0 * z_null, 0.0, p) is not None

    @pytest.mark.parametrize("n,k,rho", [(4, 1, 1.0), (3, 2, -1.0)])
    def test_checked_only_at_rho_le_0_and_n_ge_2k(self, n, k, rho, run):
        p, sol, tr, oc = run(n, k, rho)
        assert orbit.asymptote_trap(sol, p) is None
        assert not isinstance(tr.certificate, orbit.TrapCertificate)
        assert oc.diagnostics.get("criterion") != "asymptote_trap"


class TestSteadyEnd:
    def test_steps_are_the_full_runs_bit_for_bit(self, run):
        # up to its hand-over to the slow-manifold series at s = 6.21,
        # (4,1,0) takes the steps of the kernel's run to s_max (the
        # asymptote event off, so no series), and its trace is that run's
        # samples; the series' arc then takes it to s_max
        p, _sol, tr, _oc = run(4, 1, 0.0)
        _p, _sol, full, _oc = run(4, 1, 0.0, asym_tol=0.0)
        assert tr.status == full.status == "s_max" and tr.s[-1] == full.s[-1] == 200.0
        assert full.hand_over is None and tr.hand_over.s == pytest.approx(6.210, abs=1e-3)
        n = int(np.searchsorted(tr.s, tr.hand_over.s)) + 1
        for a, b in ((tr.s, full.s), (tr.X, full.X), (tr.Z, full.Z)):
            assert np.array_equal(a[:n], b[:n])
        assert tr.accepted_steps == 55 < full.accepted_steps == 256
        assert tr.newton_iterations == 35 and not tr.events

    def test_rows_hand_over_at_their_own_s(self):
        # (9,4,0): the alphas read one shared continuation, hand-over
        # included, each shifted into its own frame and ended at s_max
        p = phase.make_params(9, 4, 0.0, 1.0)
        runs = orbit.run_orbits(p, [0.5, 1.0, 2.0])
        shift = [picard.gauge(1.0, p) - picard.gauge(a, p) for a in (0.5, 1.0, 2.0)]
        hand = runs[1][1].hand_over
        for (_sol, tr, oc), d in zip(runs, shift):
            assert tr.status == "s_max" and tr.s[-1] == 200.0 and not tr.events
            assert tr.hand_over[1:] == hand[1:]
            assert tr.hand_over.s == pytest.approx(hand.s + d, abs=1e-12)
            assert oc.kind == orbit.TYPE_GAMMA
            assert oc.diagnostics["criterion"] == "asymptote_trap"

    def test_unconverged_run_goes_on_to_s_max(self, run):
        # cut at s_max = 20, (4,1,0) ends there on the series' arc, still
        # TypeGamma on the trap
        p, _sol, tr, oc = run(4, 1, 0.0, s_max=20.0)
        assert tr.status == "s_max" and tr.s[-1] == 20.0
        assert tr.hand_over == run(4, 1, 0.0)[2].hand_over
        assert oc.diagnostics["criterion"] == "asymptote_trap"


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

    def test_forged_return_past_the_one_before_is_flagged(self, run):
        # (4,1,5) spirals into B: its upward returns to X = X_B fall toward
        # Z_B. One moved 1e-3 Z_B above the return before it reverses that
        # order, far beyond the error bound (2.4e-7 Z here). The certificate
        # ends the default run at its second return, so the arc is read with
        # the ends at B off, up to s = 110, about where the band test alone
        # would end it
        p, _sol, tr, _oc = run(4, 1, 5.0, s_max=110.0, end_at_b=False)
        assert orbit.self_intersection_check(tr, p) == 0
        i = np.searchsorted(tr.s, tr.event_s("crossed_X_B"))
        up = i[tr.Z[i] > p.Z_B]
        assert up.size >= 4
        Z = tr.Z.copy()
        Z[up[3]] = Z[up[2]] + 1e-3 * p.Z_B
        assert orbit.self_intersection_check(replace(tr, Z=Z), p) == 1

    def test_rounding_returns_near_B_are_not_flagged(self, run):
        # (64,8,10) sits at B to rounding: some of its returns to X = X_B
        # (23 at the default rtol) reverse their half-line's order, all within 4e-12 Z_B of the one
        # before, against a bound of about 1.6e-6 Z. The certificate ends the
        # default run before it sits there, so the ends at B are off
        p, _sol, tr, _oc = run(64, 8, 10.0, end_at_b=False)
        assert orbit.self_intersection_check(tr, p) == 0
        assert orbit.self_intersection_check(replace(tr, rtol=0.0), p) >= 1
        i = np.searchsorted(tr.s, tr.event_s("crossed_X_B"))
        z = tr.Z[i]
        for side in (z > p.Z_B, z < p.Z_B):
            step = np.diff(z[side])
            back = step * np.sign(z[side][-1] - z[side][0]) < 0.0
            assert np.max(np.abs(step[back])) <= 4e-12 * p.Z_B

    @pytest.mark.parametrize("n,k,rho", [(4, 1, -1.0), (3, 2, 3.0), (4, 1, 5.0)])
    def test_fewer_than_two_returns_per_half_line_read_zero(self, n, k, rho, run):
        # no crossing (the expander), one (TypeA), or the first crossing of
        # each half-line of (4,1,5): there is no order to break, even with
        # no error bound and the crossings' Z forged far off
        p, _sol, tr, _oc = run(n, k, rho)
        crossings = [ev for ev in tr.events if ev[1] == "crossed_X_B"][:2]
        i = np.searchsorted(tr.s, [se for se, _name in crossings])
        Z = tr.Z.copy()
        Z[i] *= 1.5
        lone = replace(tr, Z=Z, events=crossings, rtol=0.0)
        assert orbit.self_intersection_check(lone, p) == 0


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

    @pytest.mark.parametrize("n,k,rho", [(4, 1, 5.0), (5, 2, 3.0), (12, 4, 10.0)])
    def test_A_chart_run_stops_at_X_B(self, n, k, rho):
        # the A-orbit's run ends at X_B by its chart; the origin orbit's goes on
        p = phase.make_params(n, k, rho, 1.0)
        tr_a = orbit.integrate(picard.picard_solve_at_A(1.0, p), p)
        assert tr_a.status == "stopped_at_X_B" and tr_a.X[-1] == p.X_B
        _sol, tr, _oc = orbit.run_orbit(p, 1.0)
        assert tr.status != "stopped_at_X_B"
        assert tr.s[-1] > tr.event_s("crossed_X_B")[0]

    @pytest.mark.parametrize("rho,theta", [(5.0, 1.0), (1.0, 1e-6)])
    @pytest.mark.parametrize("alpha", [0.5, 0.7, 2.0])
    def test_main_trace_matches_stopped_run(self, rho, theta, alpha):
        # the origin curve is the run's trace cut at its first X_B crossing; the
        # kernel stopped there, as it stops an A-chart run, emits the same samples
        p = phase.make_params(4, 1, rho, theta)
        sol, tr, _oc = orbit.run_orbit(p, alpha)
        ctl = orbit.OrbitControls()
        x0, w0 = sol.state_at_s0(p)
        out = _kernels.integrate_core(
            float(x0), float(w0), float(sol.s0), ctl.s_max, _kernels.pack_params(p),
            ctl.rtol, ctl.step_floor, ctl.asym_tol, ctl.end_at_b, True,
            ctl.max_samples, _kernels.NO_SERIES,
        )
        assert out[6] == _kernels.ST_XB_STOP
        i0 = tr.tail_end_index
        stop = i0 + out[0].size
        assert tr.s[stop - 1] == tr.event_s("crossed_X_B")[0]
        for got, want in zip((tr.s, tr.X, tr.Z), out[:3]):
            np.testing.assert_array_equal(got[i0:stop], want)

    @pytest.mark.parametrize(
        "n,k,rho,gap",
        [
            (5, 2, 5.0, 0.0016205165895436368),
            (7, 3, 8.0, 9.585209628158756e-05),
            (12, 4, 10.0, 1.637239823461686e-05),
        ],
        ids=["5-2-5", "7-3-8", "12-4-10"],
    )
    def test_min_gap_pinned(self, n, k, rho, gap):
        # min_gap as a run stopped at the origin orbit's first X_B crossing
        # gave it, read off the cubic Hermite in X
        rep = orbit.barrier_compare(phase.make_params(n, k, rho, 1.0))
        assert rep.ordered and rep.min_gap == pytest.approx(gap, rel=1e-9)

    def test_z_of_x_takes_a_chord_where_the_field_vanishes(self):
        # at B the field vanishes (exactly at (X_B, Z_B) of (4,1,5)), and
        # dZ/dX = G/F is undefined there: the slope is the chord to the
        # sample before, with no division by zero
        p = phase.make_params(4, 1, 5.0, 1.0)
        X = np.array([1.0, 2.0, p.X_B])
        Z = np.array([0.1, 0.15, p.Z_B])
        assert phase.vector_field(X, Z, p)[0][-1] == 0.0
        z = orbit._z_of_x(X, Z, p, X)
        np.testing.assert_array_equal(z, Z)
        mid = orbit._z_of_x(X, Z, p, np.array([0.5 * (2.0 + p.X_B)]))
        assert np.all(np.isfinite(mid))

    def test_min_gap_is_finite_where_the_origin_orbit_crosses_at_B(self):
        # the origin orbit of (64,8,2.01) crosses X_B at the node B, to
        # rounding, where F may read exactly 0 (it did at the crossing
        # sample, and min_gap was NaN)
        rep = orbit.barrier_compare(phase.make_params(64, 8, 2.01, 1.0))
        assert math.isfinite(rep.min_gap) and rep.ordered

    def test_min_gap_does_not_depend_on_rtol_or_alpha(self):
        # (4,1,1) at theta = 1e-6: the true gap is 5.31 theta. Chords
        # between the samples read -1.09e-4 to -1.31e-4 here, and moved
        # with rtol and alpha; the origin curve is read off a run at alpha
        p = phase.make_params(4, 1, 1.0, 1e-6)
        gaps = []
        for rtol, alpha in [(1e-8, 1.0), (1e-10, 1.0), (1e-12, 1.0), (1e-10, 0.5), (1e-10, 2.0)]:
            controls = orbit.OrbitControls(rtol=rtol)
            trace = orbit.run_orbit(p, alpha, controls)[1]
            gaps.append(orbit.barrier_compare(p, controls=controls, trace=trace).min_gap)
        assert max(gaps) - min(gaps) <= 1e-6 * min(gaps)
        assert gaps[1] == pytest.approx(5.312617e-8, rel=1e-6)
