"""The funnel certificate: a run into a stiff node B ends at its Picard
hand-off where the chord to B and the nullcline F = 0 fence the orbit in.

``orbit.funnel_end`` checks it wherever B attracts the run and is a node,
whatever s_max; every other run is continued exactly as without it. The
interval oracle that re-proves the certificates is ``tests/test_oracle.py``.
"""

import math

import numpy as np
import pytest

from ksol import orbit, phase, picard
from test_gauge import _assert_same_trace

# the n > 2k pairs of the regime corpus; at rho/theta 1e-4 and 1e-2 (theta
# 1) their slow passages end at the funnel
N_GT_2K = ((3, 1), (4, 1), (6, 1), (5, 2), (7, 3), (9, 4), (12, 4), (33, 16), (64, 8))
SLOW_PASSAGES = [(n, k, r) for n, k in N_GT_2K for r in (1e-4, 1e-2)]
# (n, k, rho, theta): a focus, and the weak focus of the theta 1e-6 corner,
# whose slow passage only the eigenvalue test keeps out
NOT_GATED = [(4, 1, 1.0, 1.0), (4, 1, 1.0, 1e-6)]


def _hand_off(p, alpha=1.0):
    sol = picard.picard_solve(alpha, p)
    X, W = sol.state_at_s0(p)
    return sol, float(X), math.exp(W) / p.cb


def _nullcline_z(X, p):
    """The Z where F = 0 at X."""
    x = phase.kth_root(X, p.k)
    return (p.n - 2 * p.k) * (1.0 - x / p.x_A) * X / phase.profile_value(x, p)


class TestForgedPoints:
    P = phase.make_params(4, 1, 1e-2, 1.0)

    def test_the_hand_off_is_certified(self):
        _sol, X, Z = _hand_off(self.P)
        cert = orbit.funnel_certificate(X, Z, 0.0, self.P)
        assert cert is not None and cert.margin > 1.0

    @pytest.mark.parametrize(
        "rho,fx,fz", [(1e-2, 0.2, 0.999), (0.3, 0.3, 0.1), (0.3, 0.5, 0.2)]
    )
    def test_above_the_fence_is_refused(self, rho, fx, fz):
        # the flow crosses the chord to B upward at its start (sigma F - G < 0
        # there) although F > 0: at 0.999 Z_B the chord is nearly flat; on
        # (4,1,0.3) the slope of the flow is the only fence that fails
        p = phase.make_params(4, 1, rho, 1.0)
        X, Z = fx * p.X_B, fz * p.Z_B
        F, G = phase.vector_field(X, Z, p)
        assert F > 0.0 and (p.Z_B - Z) / (p.X_B - X) * F - G < 0.0
        assert orbit.funnel_certificate(X, Z, 0.0, p) is None

    def test_the_chord_starts_above_the_error_box(self):
        # at X = 0.2 X_B the chord fences the flow from Z below 99.19996
        # (Z_B = 100): Z = 99.19 is certified as a point, and refused with an
        # error of 0.02, which lifts the chord's start past that level
        p = self.P
        X = 0.2 * p.X_B
        assert orbit.funnel_certificate(X, 99.19, 0.0, p) is not None
        assert orbit.funnel_certificate(X, 99.19, 0.02, p) is None

    @pytest.mark.parametrize("frac", [0.2, 0.5, 0.9])
    def test_below_the_nullcline_is_refused(self, frac):
        p = self.P
        X = frac * p.X_B
        for Z in (0.99 * _nullcline_z(X, p), _nullcline_z(X, p)):
            assert phase.vector_field(X, Z, p)[0] <= 0.0
            assert orbit.funnel_certificate(X, Z, 0.0, p) is None
        # just above it the flow points into the funnel
        assert orbit.funnel_certificate(X, 1.01 * _nullcline_z(X, p), 0.0, p) is not None

    def test_an_error_box_that_reaches_the_nullcline_is_refused(self):
        p = self.P
        X = 0.5 * p.X_B
        Z = 1.01 * _nullcline_z(X, p)
        assert orbit.funnel_certificate(X, Z, 0.0, p) is not None
        assert orbit.funnel_certificate(X, Z, 0.02 * Z, p) is None

    @pytest.mark.parametrize("fx,fz", [(1.0, 0.5), (1.1, 0.5), (0.5, 1.0), (0.5, 1.2)])
    def test_outside_the_box_below_b_is_refused(self, fx, fz):
        p = self.P
        assert orbit.funnel_certificate(fx * p.X_B, fz * p.Z_B, 0.0, p) is None


@pytest.mark.parametrize("n,k,rho", SLOW_PASSAGES)
def test_jacobian_at_B_matches_central_differences(n, k, rho):
    # the node test reads B's eigenvalues off phase.jacobian, the field's own
    # linearization. f varies on the scale gamma - x_B = x_B rho/(2 theta)
    # in x, so the step in X is 1e-4 of that; the field is linear in Z
    p = phase.make_params(n, k, rho, 1.0)
    hx, hz = 1e-4 * p.X_B * (p.gamma - p.x_B) / p.x_B, 1e-6 * p.Z_B
    F, G = phase.vector_field(
        p.X_B + np.array([hx, -hx, 0.0, 0.0]), p.Z_B + np.array([0.0, 0.0, hz, -hz]), p
    )
    fd = np.array(
        [[(F[0] - F[1]) / (2 * hx), (F[2] - F[3]) / (2 * hz)],
         [(G[0] - G[1]) / (2 * hx), (G[2] - G[3]) / (2 * hz)]]
    )
    J = phase.jacobian((p.X_B, p.Z_B), p)
    # each entry against the scale of its row, in the units of the state
    scale = np.abs(fd) * np.array([[p.X_B, p.Z_B]]) + 1e-300
    err = np.abs(J - fd) * np.array([[p.X_B, p.Z_B]])
    assert np.all(err <= 1e-6 * scale.max(axis=1, keepdims=True)), err / scale


@pytest.mark.parametrize("n,k,rho", [(4, 1, 1e-2), (7, 3, 1e-4), (64, 8, 1e-2)])
def test_funnel_end_is_the_tail_and_the_hand_off(n, k, rho):
    p = phase.make_params(n, k, rho, 1.0)
    sol, tr, oc = orbit.run_orbit(p)
    plain = orbit.integrate(sol, p, orbit.OrbitControls(s_max=sol.s0 + 1.0))
    i = tr.tail_end_index
    # the head below s0 and the integrator's first sample, bit for bit
    assert i == plain.tail_end_index == tr.s.size - 1
    for name in ("s", "X", "Z"):
        assert np.array_equal(getattr(tr, name), getattr(plain, name)[: i + 1]), name
    assert tr.status == "certified_B" and tr.events == [(sol.s0, "certified_B")]
    assert tr.accepted_steps == 0 and tr.rhs_evals == 0
    cert = tr.certificate
    # err is relative: the box's half-width is below 1e-12 X (and 1e-12 Z)
    assert (cert.X, cert.Z) == (tr.X[-1], tr.Z[-1]) and 0.0 <= cert.err < 1e-12
    assert oc.kind == orbit.TYPE_B
    assert oc.diagnostics["criterion"] == "funnel" and oc.diagnostics["margin"] == cert.margin > 1.0


@pytest.mark.parametrize("n,k,rho,theta", NOT_GATED)
def test_runs_outside_the_gate_are_continued_as_before(n, k, rho, theta):
    # the traces are those of a plain integrate call, the pipeline's before
    # the funnel check, bit for bit
    p = phase.make_params(n, k, rho, theta)
    controls = orbit.OrbitControls()
    # a focus: the field's Jacobian at B has complex eigenvalues
    assert phase.eig2x2(phase.jacobian((p.X_B, p.Z_B), p))[0].imag != 0.0
    for alpha in (0.5, 1.0, 2.0):
        sol = picard.picard_solve(alpha, p)
        assert orbit.funnel_end(sol, p, controls) is None
        [(_sol, trace, oc)] = orbit.run_orbits(p, [alpha])
        assert oc.diagnostics.get("criterion") != "funnel"
        _assert_same_trace(trace, orbit.integrate(sol, p))


def test_end_at_b_false_turns_the_funnel_end_off():
    # end_at_b is the switch of every end at B
    p = phase.make_params(4, 1, 1e-2, 1.0)
    sol = picard.picard_solve(1.0, p)
    controls = orbit.OrbitControls(end_at_b=False, s_max=5.0)
    assert orbit.funnel_end(sol, p, orbit.OrbitControls()) is not None
    assert orbit.funnel_end(sol, p, controls) is None
    _sol, tr, _oc = orbit.run_orbit(p, controls=controls)
    assert tr.status == "s_max" and tr.accepted_steps > 0


def test_the_funnel_end_does_not_read_s_max():
    # (6,1,0.3) converges to B at the slow rate 0.31; the funnel closes at
    # its hand-off whether the run is given s_max = 200 or 10
    p = phase.make_params(6, 1, 0.3, 1.0)
    sol = picard.picard_solve(1.0, p)
    cert = orbit.funnel_end(sol, p, orbit.OrbitControls())
    assert cert is not None
    assert orbit.funnel_end(sol, p, orbit.OrbitControls(s_max=10.0)) == cert


def test_the_fences_are_checked_once_per_set(monkeypatch):
    # the alphas of a set share the anchor's hand-off and its error bound
    p = phase.make_params(4, 1, 1e-2, 1.0)
    calls = []
    check = orbit.funnel_certificate
    monkeypatch.setattr(orbit, "funnel_certificate", lambda *a: calls.append(a) or check(*a))
    runs = orbit.run_orbits(p, [0.3, 0.5, 1.0, 2.0])
    assert len(calls) == 1
    assert all(oc.diagnostics["criterion"] == "funnel" for _sol, _trace, oc in runs)


def test_a_funnel_set_is_not_continued(monkeypatch):
    # the certificate holds for every alpha of a set or for none: the funnel
    # set (6,1,0.3) runs no continuation, and (4,1,1) one that all its
    # alphas share
    calls = []
    continue_ = orbit.integrate
    monkeypatch.setattr(orbit, "integrate", lambda *a: calls.append(a) or continue_(*a))
    alphas = [0.3, 0.5, 1.0, 2.0]
    runs = orbit.run_orbits(phase.make_params(6, 1, 0.3, 1.0), alphas)
    assert calls == []
    assert all(oc.diagnostics["criterion"] == "funnel" for _sol, _trace, oc in runs)
    runs = orbit.run_orbits(phase.make_params(4, 1, 1.0, 1.0), alphas)
    assert len(calls) == 1
    assert all(oc.diagnostics["criterion"] == "poincare_return" for _sol, _trace, oc in runs)
