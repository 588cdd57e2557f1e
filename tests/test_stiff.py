"""The stiff continuation: the kernel's closed-form Jacobian, the RODAS4
step, the switch from DOPRI5 to it, and the orbits it produces against
scipy's implicit solvers."""

import math

import numpy as np
import pytest

from ksol import _kernels, orbit, phase

STIFF_SETS = [(4, 1, -1.0), (5, 2, -1.0), (4, 1, 0.0)]
NON_STIFF_SETS = [(4, 1, 1.0), (4, 1, 5.0), (4, 2, 1.0), (3, 2, 3.0), (5, 2, 1.0), (3, 2, 1.0)]


@pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (7, 3), (12, 4)])
class TestKernelJacobian:
    def test_matches_phase_jacobian(self, n, k):
        p = phase.make_params(n, k, -0.5, 1.0)
        pp = _kernels.pack_params(p)
        rng = np.random.default_rng(n + k)
        for _ in range(100):
            X = float(rng.uniform(0.02, 0.98) * p.x_cap)
            Z = float(rng.uniform(1e-3, 1e3))
            J = np.reshape(_kernels.jac(X, Z, pp, _kernels.PROF_F), (2, 2))
            ref = phase.jacobian((X, Z), p)
            np.testing.assert_allclose(J, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))

    def test_h_profile_matches_central_differences(self, n, k):
        p = phase.make_params(n, k, 3.0, 1.0)
        pp = _kernels.pack_params(p)
        prof = _kernels.PROF_H
        rng = np.random.default_rng(10 * n + k)
        for _ in range(100):
            X = float(rng.uniform(0.05, 0.95) * p.x_A) ** k
            Z = float(rng.uniform(0.05, 3.0))
            J = np.reshape(_kernels.jac(X, Z, pp, prof), (2, 2))
            fd = np.empty((2, 2))
            for j, (dx, dz) in enumerate(((1e-6 * X, 0.0), (0.0, 1e-6 * Z))):
                hi = _kernels.rhs(X + dx, Z + dz, pp, prof)
                lo = _kernels.rhs(X - dx, Z - dz, pp, prof)
                fd[:, j] = (np.array(hi) - np.array(lo)) / (2.0 * (dx + dz))
            assert np.max(np.abs(J - fd) / (1.0 + np.abs(fd))) < 1e-6


class TestRodasStep:
    def test_fourth_order(self):
        # fixed steps over s in [0, 1]: halving h divides the error by ~16;
        # a wrong coefficient drops the order and the ratio with it
        p = phase.make_params(5, 2, -1.0, 1.0)
        pp = _kernels.pack_params(p)
        X0, Z0 = 0.3 * p.X_B, 0.5

        def final(step, n_steps):
            X, Z = X0, Z0
            fX, fZ = _kernels.rhs(X, Z, pp, _kernels.PROF_F)
            for _ in range(n_steps):
                X, Z, _ex, _ez, fX, fZ = step(X, Z, 1.0 / n_steps, fX, fZ, pp, _kernels.PROF_F)
            return np.array([X, Z])

        ref = final(_kernels._dopri_step, 2048)
        errs = [np.max(np.abs(final(_kernels._rodas_step, n) - ref) / ref) for n in (16, 32)]
        assert errs[0] / errs[1] >= 12.0


class TestStiffSwitch:
    @pytest.mark.parametrize("n,k,rho", STIFF_SETS)
    def test_stiff_sets_switch(self, n, k, rho, run):
        _p, _sol, tr, _oc = run(n, k, rho)
        assert math.isfinite(tr.stiff_from_s)
        assert tr.s[tr.tail_end_index] < tr.stiff_from_s < tr.s[-1]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n,k,rho", NON_STIFF_SETS)
    def test_non_stiff_sets_stay_explicit(self, n, k, rho, alpha, run):
        _p, _sol, tr, _oc = run(n, k, rho, alpha=alpha)
        assert math.isnan(tr.stiff_from_s)

    def test_expander_step_count(self, run):
        # DOPRI5 alone took 47,265 steps at its stability limit
        _p, _sol, tr, oc = run(4, 1, -1.0)
        assert oc.kind == orbit.TYPE_GAMMA
        assert tr.accepted_steps <= 2500
        assert tr.rhs_evals == 1 + 6 * (tr.accepted_steps + tr.rejected_steps)

    def test_node_B_takes_no_spurious_crossings(self, run):
        # B is a stable node for (12,1,1) (eigenvalues -34.7 and -0.29):
        # the orbit meets X_B at most a few times; DOPRI5 held at its
        # stability limit there chattered across X_B 2,623 times by s = 2000
        _p, _sol, tr, _oc = run(12, 1, 1.0, s_max=2000.0, conv_dist=0.0)
        assert math.isfinite(tr.stiff_from_s)
        assert len(tr.event_s("crossed_X_B")) < 10
        assert tr.events_dropped == 0


@pytest.fixture(scope="module")
def oracle(run):
    """scipy Radau and LSODA (rtol 1e-13, analytic Jacobian) from the first
    integrator sample, with the asymptote as a terminal event."""
    integrate = pytest.importorskip("scipy.integrate")
    cache = {}

    def _solve(n, k, rho, alpha, method):
        key = (n, k, rho, alpha, method)
        if key not in cache:
            p, _sol, tr, _oc = run(n, k, rho, alpha=alpha)
            asym_tol = orbit.OrbitControls().asym_tol

            def asymptote(_s, y):
                return p.gamma - phase.kth_root(max(y[0], 0.0), p.k) - asym_tol * p.gamma

            asymptote.terminal = True
            asymptote.direction = -1.0
            i0 = tr.tail_end_index
            res = integrate.solve_ivp(
                lambda _s, y: phase.vector_field(y[0], y[1], p),
                (tr.s[i0], orbit.OrbitControls().s_max),
                [tr.X[i0], tr.Z[i0]],
                method=method,
                rtol=1e-13,
                atol=1e-300,
                jac=lambda _s, y: phase.jacobian(y, p),
                events=asymptote,
                dense_output=True,
            )
            assert res.success
            cache[key] = (tr, res)
        return cache[key]

    return _solve


@pytest.mark.parametrize("method", ["Radau", "LSODA"])
class TestScipyOracle:
    @pytest.mark.parametrize(
        "n,k,rho,targets",
        [(4, 1, -1.0, (4, 8, 10)), (5, 2, -1.0, (4, 8, 10)), (4, 1, 0.0, (20, 100, 199))],
    )
    def test_samples_match(self, n, k, rho, targets, method, oracle):
        tr, res = oracle(n, k, rho, 1.0, method)
        for target in targets:
            j = int(np.argmin(np.abs(tr.s - target)))
            ref = res.sol(tr.s[j])
            assert abs(tr.X[j] - ref[0]) <= 1e-8 * abs(ref[0])
            assert abs(tr.Z[j] - ref[1]) <= 1e-8 * abs(ref[1])

    @pytest.mark.parametrize("n,k,rho,alpha", [(4, 1, -1.0, 1.0), (5, 2, -1.0, 1.0), (4, 2, -1.0, 0.5)])
    def test_asymptote_is_bisected(self, n, k, rho, alpha, method, oracle):
        # stopping at the step end left s_end 2.0e-5, 3.9e-5 and 1.3e-2 late
        tr, res = oracle(n, k, rho, alpha, method)
        assert tr.status == "reached_asymptote"
        assert abs(tr.s[-1] - res.t_events[0][0]) <= 1e-5
