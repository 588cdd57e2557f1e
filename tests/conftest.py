import math

import pytest

from ksol import orbit, phase, picard

# orbit pipelines are the expensive part of the suite; share them per-session
_CACHE = {}


def pipeline(n, k, rho, theta=1.0, alpha=1.0, **ctrl):
    key = (n, k, rho, theta, alpha, tuple(sorted(ctrl.items())))
    if key not in _CACHE:
        p = phase.make_params(n, k, rho, theta)
        controls = orbit.OrbitControls(**ctrl) if ctrl else None
        _CACHE[key] = (p,) + orbit.run_orbit(p, alpha, controls)
    return _CACHE[key]


@pytest.fixture(scope="session")
def run():
    return pipeline


@pytest.fixture(scope="session")
def integrated(run):
    """(n, k, rho) -> (p, trace): the Picard hand-off at alpha 1 run by the
    kernel alone, with no slow-manifold series to hand over to, to the end
    of an ``orbit.OrbitControls()`` run. Up the asymptote of an expander or
    a steady soliton with n > 2k this is the Radau arc that
    ``orbit.integrate`` leaves to the series, step for step. The trace has
    no head below s0 and no certificate."""
    cache = {}

    def _integrated(n, k, rho):
        if (n, k, rho) not in cache:
            p, sol, _tr, _oc = run(n, k, rho)
            x0, w0 = sol.state_at_s0(p)
            out = orbit._integrate_raw(x0, w0, sol.s0, p, orbit.OrbitControls())
            cache[n, k, rho] = (p, orbit.OrbitTrace(*out[:5], **out[5]))
        return cache[n, k, rho]

    return _integrated


@pytest.fixture(scope="session")
def solve_local():
    cache = {}

    def _solve(n, k, rho, theta=1.0, alpha=1.0):
        key = (n, k, rho, theta, alpha)
        if key not in cache:
            p = phase.make_params(n, k, rho, theta)
            cache[key] = (p, picard.picard_solve(alpha, p))
        return cache[key]

    return _solve


@pytest.fixture(scope="session")
def log_chart():
    """p -> (fun, jac) of the field in (X, ln Z) for scipy's solve_ivp: the
    integrator's chart up to a constant in ln Z, where Z's exponential arcs
    are straight lines and an absolute tolerance on ln Z is a relative one
    on Z."""

    def _chart(p):
        def fun(_s, y):
            Z = math.exp(y[1])
            F, G = phase.vector_field(y[0], Z, p)
            return [F, G / Z]

        def jac(_s, y):
            Z = math.exp(y[1])
            J = phase.jacobian((y[0], Z), p)
            return [[J[0, 0], J[0, 1] * Z], [J[1, 0] / Z, 0.0]]

        return fun, jac

    return _chart
