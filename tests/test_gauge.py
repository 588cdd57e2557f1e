"""The gauges of the orbit: alpha and theta.

Alpha gauge reuse: the alphas of one parameter set share one Picard tail
and one continuation. The system is autonomous and the orbit leaving the
origin is unique, so alpha only shifts it in s. ``orbit.run_orbits`` solves
the anchor, the largest alpha, maps its tail to the other alphas
(``picard.gauge_map``), integrates once per group and reads every alpha off
that run; each row is checked against the run of that alpha on its own.

Theta gauge: in the integrator's chart (X, W = ln(c_nk beta^k Z)) theta
enters only through gamma = x_B (1 + rho/(2 theta)), so the orbit depends
on rho/theta, not on theta. Runs at theta = 1e-3 and 1e3 are checked
against theta = 1 at the same rho/theta (a metamorphic relation: Chen et
al., Metamorphic Testing: A Review of Challenges and Opportunities, ACM
CSUR 2018).
"""

import math

import numpy as np
import pytest

from ksol import _kernels, orbit, phase, picard
from ksol.errors import ConvergenceError, DomainError

ALPHAS = (0.3, 0.5, 1.0, 2.0)
# the stiff sets, then the regime table at theta = 1
SETS = (
    (4, 1, -1.0),
    (4, 1, 0.0),
    (5, 2, -1.0),
    (4, 1, 1.0),
    (4, 1, 5.0),
    (4, 2, 1.0),
    (3, 2, 3.0),
    (5, 2, 1.0),
    (3, 2, 1.0),
    (4, 2, -1.0),
    # a weak focus, certified at its second upward return to X_B
    (4, 1, 10.0),
    # a slow passage into a stiff node, ended at its hand-off by the funnel
    (4, 1, 1e-2),
)
EXACT_ENDS = ("reached_asymptote", "exited_region", "s_max", "certified_B")


class TestSharedContinuation:
    @pytest.mark.parametrize("n,k,rho", SETS)
    def test_rows_match_one_run_per_alpha(self, n, k, rho, run):
        # the largest alpha is the anchor: its row is its own run, bit for
        # bit, and every row's local solution is the anchor's under the map
        p = phase.make_params(n, k, rho, 1.0)
        anchor = max(ALPHAS)
        _p, sol_a, _trace_a, _oc_a = run(n, k, rho, alpha=anchor)
        X_a, W_a = sol_a.state_at_s0(p)
        for alpha, (sol, trace, oc) in zip(ALPHAS, orbit.run_orbits(p, ALPHAS)):
            _p, sol_1, trace_1, oc_1 = run(n, k, rho, alpha=alpha)
            _assert_same_solution(sol, picard.gauge_map(sol_a, alpha, p))
            if alpha == anchor:
                _assert_same_trace(trace, trace_1)
                assert oc == oc_1
            assert (oc.kind, trace.status) == (oc_1.kind, trace_1.status), alpha
            if oc_1.X_inf is not None:
                assert oc.X_inf == pytest.approx(oc_1.X_inf, rel=1e-10)
            if isinstance(trace.certificate, orbit.FunnelCertificate):
                # ended on the anchor's hand-off, at the mapped s0
                d = picard.gauge(alpha, p) - picard.gauge(anchor, p)
                assert trace.s[-1] == sol_a.s0 - d
                assert trace.end_state == (float(X_a), math.exp(W_a) / p.cb)
            else:
                ds = abs(trace.s[-1] - trace_1.s[-1])
                assert ds <= (1e-5 if trace.status in EXACT_ENDS else _kernels.MAX_STEP), alpha
            assert np.all(np.diff(trace.s) > 0.0)
            assert trace.s[-1] <= 200.0

    @pytest.mark.parametrize("n,k,rho", [(4, 1, -1.0), (4, 1, 5.0), (3, 2, 1.0)])
    def test_one_alpha_is_a_plain_integration(self, n, k, rho):
        # Picard, integrate, classify: the pipeline without a shared run
        p = phase.make_params(n, k, rho, 1.0)
        for alpha in (0.5, 2.0):
            sol_1 = picard.picard_solve(alpha, p)
            trace_1 = orbit.integrate(sol_1, p)
            oc_1 = orbit.classify_orbit(trace_1, p)
            [(sol, trace, oc)] = orbit.run_orbits(p, [alpha])
            _assert_same_trace(trace, trace_1)
            assert oc == oc_1
            _assert_same_solution(sol, sol_1)

    def test_rows_are_cut_at_their_own_s_max(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        controls = orbit.OrbitControls(s_max=6.0)
        alphas = [0.3, 1.0, 3.0]
        shared = orbit.run_orbits(p, alphas, controls)
        for alpha, (_sol, trace, _oc) in zip(alphas, shared):
            _sol_1, trace_1, _oc_1 = orbit.run_orbit(p, alpha, controls)
            assert trace.s[-1] == 6.0 and trace.status == "s_max"
            assert all(s <= 6.0 for s, _name in trace.events)
            # the closing Hermite point against the step that lands on s_max
            assert trace.X[-1] == pytest.approx(trace_1.X[-1], rel=1e-8)
            assert trace.Z[-1] == pytest.approx(trace_1.Z[-1], rel=1e-8)

    def test_one_picard_solve_per_set(self, monkeypatch):
        p = phase.make_params(4, 1, 1.0, 1.0)
        calls = []
        solve = picard.picard_solve

        def spy(alpha, *a, **kw):
            calls.append(alpha)
            return solve(alpha, *a, **kw)

        monkeypatch.setattr(picard, "picard_solve", spy)
        runs = orbit.run_orbits(p, list(ALPHAS))
        assert calls == [max(ALPHAS)]
        assert all(oc.kind == orbit.TYPE_B for _sol, _trace, oc in runs)
        # an alpha out of Picard's range keeps its error, and no solve
        calls.clear()
        _good, bad = orbit.run_orbits(p, [1.0, 1e9])
        assert calls == [1.0] and isinstance(bad, DomainError)

    def test_a_failed_solve_fails_every_alpha(self, monkeypatch):
        # the solve reads no alpha, so one failure is every alpha's: no retry
        p = phase.make_params(4, 1, 1.0, 1.0)
        calls = []
        solve = picard.picard_solve

        def spy(alpha, *a, **kw):
            calls.append(alpha)
            return solve(alpha, *a, **kw)

        def forged(*a, **kw):
            raise ConvergenceError("forged")

        monkeypatch.setattr(picard, "picard_solve", spy)
        monkeypatch.setattr(picard, "_solve", forged)
        low, mid, top, bad = orbit.run_orbits(p, [0.5, 1.0, 2.0, 1e9])
        assert calls == [2.0]
        assert all(isinstance(run, ConvergenceError) for run in (low, mid, top))
        assert isinstance(bad, DomainError)

    def test_picard_error_fails_only_its_alpha(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        good, bad = orbit.run_orbits(p, [1.0, 1e9])
        assert isinstance(bad, DomainError)
        assert good[2].kind == orbit.TYPE_B
        with pytest.raises(DomainError, match="alpha"):
            orbit.run_orbit(p, 1e9)


def _assert_same_solution(a, b):
    """Every field of two LocalSolutions equal, the series' coefficients
    element by element."""
    _assert_same_trace(a, b)


def _assert_same_trace(a, b):
    """Every field equal; arrays element by element, NaN equal to NaN."""
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, (np.ndarray, float)):
            assert np.array_equal(x, y, equal_nan=True), name
        else:
            assert x == y, name


# expanders and steady solitons, n > 2k and n = 2k: each runs up the
# asymptote X = gamma^k with Z unbounded
THETA_PAIRS = ((4, 1), (5, 2), (4, 2), (7, 3), (9, 4), (10, 5))
THETA_RATIOS = (-1.0, -0.3, 0.0)


@pytest.mark.slow
class TestThetaGauge:
    @pytest.mark.parametrize("n,k", THETA_PAIRS)
    def test_orbit_depends_on_rho_over_theta(self, n, k, run):
        # step counts are not compared: Picard's s0 moves with theta, since
        # its contraction bound mixes X and Z in one sup norm
        for ratio in THETA_RATIOS:
            _p, _sol, trace_1, oc_1 = run(n, k, ratio)
            assert oc_1.kind == orbit.TYPE_GAMMA, ratio
            for theta in (1e-3, 1e3):
                _p, _sol, trace, oc = run(n, k, ratio * theta, theta)
                case = (ratio, theta)
                assert (oc.kind, trace.status) == (oc_1.kind, trace_1.status), case
                assert abs(trace.s[-1] - trace_1.s[-1]) <= 1e-6, case
