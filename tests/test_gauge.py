"""The gauges of the orbit: alpha and theta.

Alpha gauge reuse: the alphas of one parameter set share one continuation.
The system is autonomous and the orbit leaving the origin is unique, so
alpha only shifts it in s. ``orbit.run_orbits`` integrates once per group
and reads every alpha off that run; each row is checked against the run
of that alpha on its own.

Theta gauge: in the integrator's chart (X, W = ln(c_nk beta^k Z)) theta
enters only through gamma = x_B (1 + rho/(2 theta)), so the orbit depends
on rho/theta, not on theta. Runs at theta = 1e-3 and 1e3 are checked
against theta = 1 at the same rho/theta (a metamorphic relation: Chen et
al., Metamorphic Testing: A Review of Challenges and Opportunities, ACM
CSUR 2018).
"""

import numpy as np
import pytest

from ksol import _kernels, orbit, phase, picard
from ksol.errors import DomainError

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
        p = phase.make_params(n, k, rho, 1.0)
        integrated = 0  # rows equal to their own run up to the last sample
        for alpha, (sol, trace, oc) in zip(ALPHAS, orbit.run_orbits(p, ALPHAS)):
            _p, sol_1, trace_1, oc_1 = run(n, k, rho, alpha=alpha)
            integrated += trace.s.size == trace_1.s.size and np.array_equal(
                trace.X[:-1], trace_1.X[:-1]
            )
            assert sol.alpha == alpha and sol.sup_residual == sol_1.sup_residual
            assert (oc.kind, trace.status) == (oc_1.kind, trace_1.status), alpha
            if oc_1.X_inf is not None:
                assert oc.X_inf == pytest.approx(oc_1.X_inf, rel=1e-10)
            ds = abs(trace.s[-1] - trace_1.s[-1])
            assert ds <= (1e-5 if trace.status in EXACT_ENDS else _kernels.CONV_SPAN), alpha
            assert np.all(np.diff(trace.s) > 0.0)
            assert trace.s[-1] <= 200.0
        assert integrated >= 1

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
            assert oc == oc_1 and np.array_equal(sol.tail.X_samples, sol_1.tail.X_samples)

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

    def test_picard_error_fails_only_its_alpha(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        good, bad = orbit.run_orbits(p, [1.0, 1e9])
        assert isinstance(bad, DomainError)
        assert good[2].kind == orbit.TYPE_B
        with pytest.raises(DomainError, match="alpha"):
            orbit.run_orbit(p, 1e9)


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
