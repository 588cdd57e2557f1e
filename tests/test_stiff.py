"""The continuation: the DOP853 step and its continuous extension, the
kernel's closed-form Jacobian, the RODAS4 step, the switch from DOP853 to
it, and the orbits it produces against scipy's implicit solvers."""

import collections
import math
import re

import numpy as np
import pytest

from ksol import _jit, _kernels, orbit, phase

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


def _dop853(X, Z, h, fX, fZ, pp, prof):
    """The DOP853 step in the (X1, Z1, errX, errZ, fX1, fZ1) form of RODAS4."""
    X1, Z1, e5x, e5z, _e3x, _e3z, KX, KZ = _kernels._dop853_step(X, Z, h, fX, fZ, pp, prof)
    return X1, Z1, e5x, e5z, KX[-1], KZ[-1]


def _fixed_steps(step, n_steps, X, Z, pp, s_span=1.0):
    """The state after n_steps equal steps over s_span."""
    fX, fZ = _kernels.rhs(X, Z, pp, _kernels.PROF_F)
    for _ in range(n_steps):
        X, Z, _ex, _ez, fX, fZ = step(X, Z, s_span / n_steps, fX, fZ, pp, _kernels.PROF_F)
    return np.array([X, Z])


class TestDop853Step:
    def test_coefficients_match_scipy(self):
        # bit for bit against the tableau scipy ships from Hairer's dop853.f
        coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")

        def const(name):
            return getattr(_kernels, name)

        n = coef.N_STAGES
        named = []
        for i in range(1, coef.N_STAGES_EXTENDED):
            for j in range(i):
                if coef.A[i, j] != 0.0:
                    name = f"_B{j}" if i == n else f"_A{i}_{j}"
                    assert const(name) == coef.A[i, j], name
                    named.append(name)
        for j in range(n):
            if coef.E5[j] != 0.0:
                assert const(f"_E5_{j}") == coef.E5[j]
                named.append(f"_E5_{j}")
            if coef.E3[j] != 0.0:
                # E3 = B - BHH; where BHH is zero the step reads B itself
                name = f"_E3_{j}" if coef.E3[j] != coef.B[j] else f"_B{j}"
                assert const(name) == coef.E3[j], name
                named.append(name)
        for r in range(coef.D.shape[0]):
            for j in range(coef.N_STAGES_EXTENDED):
                if coef.D[r, j] != 0.0:
                    assert const(f"_D{r + 3}_{j}") == coef.D[r, j]
                    named.append(f"_D{r + 3}_{j}")
        # and no coefficient beyond scipy's
        pattern = r"_(A\d+_\d+|B\d+|E[35]_\d+|D\d_\d+)"
        ours = {name for name in vars(_kernels) if re.fullmatch(pattern, name)}
        assert ours == set(named)

    def test_eighth_order(self):
        # fixed steps over s in [0, 1]: halving h divides the error by ~256;
        # a wrong coefficient drops the order and the ratio with it
        p = phase.make_params(5, 2, -1.0, 1.0)
        pp = _kernels.pack_params(p)
        X0, Z0 = 0.3 * p.X_B, 0.5
        ref = _fixed_steps(_dop853, 2048, X0, Z0, pp)
        errs = [np.max(np.abs(_fixed_steps(_dop853, n, X0, Z0, pp) - ref) / ref) for n in (8, 16)]
        assert errs[0] / errs[1] >= 200.0

    def test_extension_is_order_seven(self):
        # one step of length h, the extension read at theta = 0.3 against 64
        # fixed steps to that point: the interpolation error is O(h^8), so
        # halving h divides it by ~256, where the cubic Hermite alone gives ~16
        p = phase.make_params(5, 2, -1.0, 1.0)
        pp = _kernels.pack_params(p)
        X0, Z0 = 0.3 * p.X_B, 0.5
        fX, fZ = _kernels.rhs(X0, Z0, pp, _kernels.PROF_F)
        errs = []
        for h in (0.5, 0.25):
            X1, Z1, _a, _b, _c, _d, KX, KZ = _kernels._dop853_step(
                X0, Z0, h, fX, fZ, pp, _kernels.PROF_F
            )
            cx, cz = _kernels._dop853_dense(X0, Z0, h, fX, fZ, X1, Z1, KX, KZ, pp, _kernels.PROF_F)
            got = np.array([_kernels._dense(0.3, X0, cx), _kernels._dense(0.3, Z0, cz)])
            ref = _fixed_steps(_dop853, 64, X0, Z0, pp, s_span=0.3 * h)
            errs.append(np.max(np.abs(got - ref) / ref))
        assert errs[0] / errs[1] >= 150.0

    @pytest.mark.parametrize("n,k,rho", [(5, 2, -1.0), (4, 1, 1.0)])
    def test_sample_count_keeps_the_hermite_within_tol(self, n, k, rho):
        # an accepted step of h = 0.1 cut into _sample_count pieces: the
        # cubic Hermite of each piece, from the extension's values and the
        # field there, stays near SAMPLE_TOL of the extension at the piece
        # midpoint, and one piece fewer misses SAMPLE_TOL
        p = phase.make_params(n, k, rho, 1.0)
        pp = _kernels.pack_params(p)
        X0, Z0, h = 0.3 * p.X_B, 0.5, 0.1
        fX, fZ = _kernels.rhs(X0, Z0, pp, _kernels.PROF_F)
        X1, Z1, e5x, e5z, e3x, e3z, KX, KZ = _kernels._dop853_step(X0, Z0, h, fX, fZ, pp, 0)
        magX, magZ = max(abs(X0), abs(X1)), max(abs(Z0), abs(Z1))
        assert _kernels._dop853_error(e5x, e5z, e3x, e3z, 1e-10 * magX, 1e-10 * magZ) < 1.0
        cx, cz = _kernels._dop853_dense(X0, Z0, h, fX, fZ, X1, Z1, KX, KZ, pp, 0)

        def worst(pieces):
            out = 0.0
            for j in range(pieces):
                t0, t1 = j / pieces, (j + 1) / pieces
                a = (_kernels._dense(t0, X0, cx), _kernels._dense(t0, Z0, cz))
                b = (_kernels._dense(t1, X0, cx), _kernels._dense(t1, Z0, cz))
                fa, fb = _kernels.rhs(*a, pp, 0), _kernels.rhs(*b, pp, 0)
                for i, (y0, c) in enumerate(((X0, cx), (Z0, cz))):
                    ref = _kernels._dense(0.5 * (t0 + t1), y0, c)
                    mid = _kernels._hermite(0.5, h / pieces, a[i], fa[i], b[i], fb[i])
                    out = max(out, abs(mid - ref) / abs(ref))
            return out

        pieces = _kernels._sample_count(cx, cz, magX, magZ)
        assert pieces > 1
        assert worst(pieces) <= 2.0 * _kernels.SAMPLE_TOL
        assert worst(pieces - 1) > _kernels.SAMPLE_TOL


class TestRodasStep:
    def test_fourth_order(self):
        # fixed steps over s in [0, 1]: halving h divides the error by ~16;
        # a wrong coefficient drops the order and the ratio with it
        p = phase.make_params(5, 2, -1.0, 1.0)
        pp = _kernels.pack_params(p)
        X0, Z0 = 0.3 * p.X_B, 0.5
        ref = _fixed_steps(_dop853, 2048, X0, Z0, pp)
        errs = [
            np.max(np.abs(_fixed_steps(_kernels._rodas_step, n, X0, Z0, pp) - ref) / ref)
            for n in (16, 32)
        ]
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

    def test_expander_step_count(self, monkeypatch):
        # DOPRI5 alone took 47,265 steps at its stability limit; every rhs
        # call is the start's, 12 of a DOP853 attempt, 6 of a RODAS4 attempt
        # or 3 of a continuous extension (counted only on the Python
        # kernels: compiled kernels call each other directly)
        calls = collections.Counter()
        if not _jit.JIT_ENABLED:
            for name in ("_dop853_step", "_rodas_step", "_dop853_dense"):
                fn = getattr(_kernels, name)
                monkeypatch.setattr(
                    _kernels, name, lambda *a, _fn=fn, _name=name: calls.update([_name]) or _fn(*a)
                )
        _sol, tr, oc = orbit.run_orbit(phase.make_params(4, 1, -1.0, 1.0))
        assert oc.kind == orbit.TYPE_GAMMA
        assert tr.accepted_steps <= 2500
        if not _jit.JIT_ENABLED:
            assert calls["_dop853_step"] + calls["_rodas_step"] == tr.accepted_steps + tr.rejected_steps
            assert tr.rhs_evals == (
                1 + 12 * calls["_dop853_step"] + 6 * calls["_rodas_step"] + 3 * calls["_dop853_dense"]
            )

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
    integrator sample, with the integrator's terminal event: the asymptote
    for n >= 2k, the exit at X = x_cap for n < 2k."""
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

            def exit_(_s, y):
                return y[0] - p.x_cap

            exit_.terminal = True
            exit_.direction = 1.0
            i0 = tr.tail_end_index
            res = integrate.solve_ivp(
                lambda _s, y: phase.vector_field(y[0], y[1], p),
                (tr.s[i0], orbit.OrbitControls().s_max),
                [tr.X[i0], tr.Z[i0]],
                method=method,
                rtol=1e-13,
                atol=1e-300,
                jac=lambda _s, y: phase.jacobian(y, p),
                events=asymptote if p.n >= 2 * p.k else exit_,
                dense_output=True,
            )
            assert res.success
            cache[key] = (tr, res)
        return cache[key]

    return _solve


@pytest.mark.slow
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

    @pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (6, 4)])
    def test_exit_is_located(self, n, k, method, oracle):
        # the exit is bisected on the continuous extension; on the cubic
        # Hermite s_exit was 2-4e-11 off
        tr, res = oracle(n, k, 1.0, 1.0, method)
        assert tr.status == "exited_region"
        assert abs(tr.s[-1] - res.t_events[0][0]) <= 1e-9
