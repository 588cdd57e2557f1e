"""Phase-plane layer: derived constants, the vector field and its charts,
Jacobians and critical points, pinned to hand-derived values."""

import numpy as np
import pytest

from ksol import _kernels, phase
from ksol._jit import JIT_ENABLED
from ksol.errors import DomainError, NotApplicableError, ParameterError

RNG = np.random.default_rng(42)


def fd_jacobian(state, p, eps=1e-6):
    X, Z = state
    out = np.empty((2, 2))
    for j, d in enumerate(((eps, 0.0), (0.0, eps))):
        hi = phase.system_rhs((X + d[0], Z + d[1]), p)
        lo = phase.system_rhs((X - d[0], Z - d[1]), p)
        out[:, j] = [(hi[0] - lo[0]) / (2 * eps), (hi[1] - lo[1]) / (2 * eps)]
    return out


class TestMakeParams:
    def test_steady_reference_values(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        assert p.m == pytest.approx(1.0 / 3.0)
        assert p.beta == pytest.approx(2.0 / 3.0)
        assert p.gamma == pytest.approx(3.0)
        assert p.X_A == pytest.approx(6.0)
        assert p.X_B == pytest.approx(3.0)
        assert p.c_nk == pytest.approx(3.0)
        assert p.Z_B is None

    def test_shrinker_reference_values(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        assert p.gamma == pytest.approx(4.5)
        assert p.Z_B == pytest.approx(1.0)

    def test_precondition_violations(self):
        with pytest.raises(ParameterError, match="2\\*theta \\+ rho"):
            phase.make_params(4, 1, -3.0, 1.0)
        with pytest.raises(ParameterError, match="theta"):
            phase.make_params(4, 1, 1.0, 0.0)
        with pytest.raises(ParameterError):
            phase.make_params(2, 1, 0.0, 1.0)
        with pytest.raises(ParameterError):
            phase.make_params(4, 5, 0.0, 1.0)

    def test_gamma_xb_ordering_tracks_rho_sign(self):
        for rho, theta in [(-0.5, 1.0), (0.0, 0.7), (1.3, 1.0), (4.0, 1.5)]:
            for n, k in [(4, 1), (5, 2), (4, 2), (3, 2)]:
                p = phase.make_params(n, k, rho, theta)
                if rho < 0:
                    assert p.gamma < p.x_B
                elif rho == 0:
                    assert p.gamma == pytest.approx(p.x_B)
                else:
                    assert p.gamma > p.x_B

    def test_zb_only_above_critical_dimension(self):
        assert phase.make_params(4, 2, 1.0, 1.0).Z_B is None
        assert phase.make_params(3, 2, 1.0, 1.0).Z_B is None
        assert phase.make_params(5, 2, -1.0, 1.0).Z_B is not None


class TestProfiles:
    def test_f_reference_values(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        assert phase.f_profile(0.0, p) == pytest.approx(6.0)
        assert phase.f_profile(1.0, p) == pytest.approx(4.0)
        assert phase.f_profile(p.gamma, p) == pytest.approx(0.0, abs=1e-14)

    def test_f_vanishes_at_gamma_all_k(self):
        for n, k, rho in [(5, 2, 1.0), (4, 2, -0.5), (7, 3, 0.0)]:
            p = phase.make_params(n, k, rho, 1.0)
            assert phase.f_profile(p.gamma, p) == pytest.approx(0.0, abs=1e-12)

    def test_f_strictly_decreasing_k1(self):
        p = phase.make_params(6, 1, 0.8, 1.2)
        xs = np.linspace(0.0, p.gamma, 400)
        vals = [phase.f_profile(x, p) for x in xs]
        assert np.all(np.diff(vals) < 0.0)

    def test_h_reference_values(self):
        p = phase.make_params(4, 1, 5.0, 1.0)
        assert p.nu == pytest.approx(4.5)
        assert phase.h_profile(0.0, p) == pytest.approx(9.0)
        p2 = phase.make_params(4, 1, 2.0, 1.0)
        assert p2.nu == pytest.approx(0.0)
        assert phase.h_profile(0.0, p2) == pytest.approx(0.0)

    def test_h_nonnegative_on_domain(self):
        p = phase.make_params(5, 2, 5.0, 1.0)
        for w in np.linspace(0.0, p.x_A * 0.99, 300):
            assert phase.h_profile(w, p) >= 0.0

    def test_domain_errors(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        with pytest.raises(DomainError):
            phase.f_profile(p.x_A, p)
        with pytest.raises(DomainError):
            phase.h_profile(-0.1, p)


class TestSystemRHS:
    def test_origin_is_critical(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        assert phase.system_rhs((0.0, 0.0), p) == (0.0, 0.0)

    def test_A_is_critical_for_n_above_2k(self):
        for n, k in [(4, 1), (5, 2), (7, 3)]:
            p = phase.make_params(n, k, 0.5, 1.0)
            F, G = phase.system_rhs((p.X_A, 0.0), p)
            assert abs(F) < 1e-10 and G == 0.0

    def test_B_is_critical(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        F, G = phase.system_rhs((3.0, 1.0), p)
        assert abs(F) < 1e-12 and abs(G) < 1e-12
        assert phase.f_profile(3.0, p) == pytest.approx(3.0)

    def test_first_term_vanishes_for_n_eq_2k(self):
        p = phase.make_params(4, 2, 1.0, 1.0)
        for X in (0.5, 2.0, 5.0):
            F, _ = phase.system_rhs((X, 0.0), p)
            assert F == 0.0

    def test_negative_X_rejected(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        with pytest.raises(DomainError):
            phase.system_rhs((-0.1, 1.0), p)

    def test_A_chart_reference(self):
        p = phase.make_params(4, 1, 5.0, 1.0)
        W_s, V_s = phase.system_rhs_A((1.0, 0.0), p)
        assert W_s == pytest.approx(5.0 / 3.0)
        assert V_s == 0.0
        assert phase.system_rhs_A((0.0, 0.0), p) == (0.0, 0.0)

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (7, 3), (12, 4)])
    @pytest.mark.parametrize("prof", [phase.PROF_F, phase.PROF_H])
    @pytest.mark.parametrize("rho", [-0.5, 3.0])
    def test_array_field_matches_kernel(self, n, k, prof, rho):
        # the integrator's scalar copy of the field is the reference; for
        # k >= 3 a k-fold product and **k round differently
        p = phase.make_params(n, k, rho, 1.0)
        pp = _kernels.pack_params(p)
        X, Z = np.meshgrid(
            np.linspace(0.0, 0.999 * p.x_cap, 41), np.geomspace(1e-6, 1e3, 30)
        )
        X, Z = X.ravel(), Z.ravel()
        F, G = phase.vector_field(X, Z, p, prof)
        ref = np.array([_kernels.rhs(a, b, pp, prof) for a, b in zip(X, Z)])
        if JIT_ENABLED:
            # compiled exp and log are LLVM's, not numpy's: x moves by an
            # ulp, which the cancellation in X_s can amplify
            scale = np.max(np.abs(ref), axis=0)
            np.testing.assert_allclose(F, ref[:, 0], rtol=1e-12, atol=1e-12 * scale[0])
            np.testing.assert_allclose(G, ref[:, 1], rtol=1e-12, atol=1e-12 * scale[1])
        else:
            np.testing.assert_array_equal(F, ref[:, 0])
            np.testing.assert_array_equal(G, ref[:, 1])
        if prof == phase.PROF_H:
            for i in range(0, X.size, 37):
                assert phase.system_rhs_A((X[i], Z[i]), p) == (-F[i], -G[i])

    def test_A_chart_pullback_consistency(self):
        # X = (x_A - w)^k, Z = V maps the A-chart field to the XZ field:
        # dX/ds = -k (x_A - w)^(k-1) dw/ds with dw/ds = W_s W^((1-k)/k)/k
        for n, k, rho in [(4, 1, 5.0), (5, 2, 6.0), (3, 2, 5.0)]:
            p = phase.make_params(n, k, rho, 1.0)
            for _ in range(100):
                w = float(RNG.uniform(0.05, 0.95) * p.x_A)
                V = float(RNG.uniform(0.01, 2.0))
                W = w**k
                X = (p.x_A - w) ** k
                if X >= p.x_cap or X <= 0.0:
                    continue
                W_s, V_s = phase.system_rhs_A((W, V), p)
                F, G = phase.system_rhs((X, V), p)
                # chain rule: dX/ds = -k (x_A - w)^(k-1) dw/ds
                dxds = -k * (p.x_A - w) ** (k - 1) * (W_s * w ** (1 - k) / k)
                assert F == pytest.approx(dxds, rel=1e-9, abs=1e-9)
                # V = Z evolves identically in both charts (same flow, same s)
                assert V_s == pytest.approx(G, rel=1e-9, abs=1e-12)


class TestJacobian:
    def test_matches_finite_differences(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        J = phase.jacobian((1.0, 1.0), p)
        np.testing.assert_allclose(J, fd_jacobian((1.0, 1.0), p), rtol=1e-6, atol=1e-6)

    def test_matches_fd_randomized(self):
        for n, k, rho in [(4, 1, -0.5), (5, 2, 1.0), (4, 2, 0.3), (3, 2, 4.0)]:
            p = phase.make_params(n, k, rho, 1.0)
            for _ in range(250):
                X = float(RNG.uniform(0.05, 0.95) * p.x_cap)
                Z = float(RNG.uniform(0.05, 3.0))
                J = phase.jacobian((X, Z), p)
                fd = fd_jacobian((X, Z), p)
                assert np.max(np.abs(J - fd) / (1.0 + np.abs(fd))) < 1e-6

    def test_structural_entries(self):
        p = phase.make_params(5, 2, 1.0, 1.0)
        J = phase.jacobian((p.X_B, 0.7), p)
        assert J[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert J[0, 1] == pytest.approx(phase.f_profile(p.x_B, p))

    def test_boundary_rejected(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        with pytest.raises(DomainError):
            phase.jacobian((0.0, 1.0), p)
        with pytest.raises(DomainError):
            phase.jacobian((p.X_A, 1.0), p)


class TestRestrictedJacobians:
    def test_origin_reference(self):
        p = phase.make_params(4, 1, 0.0, 1.0)
        lin = phase.restricted_jacobian_origin(p)
        assert sorted(e.real for e in lin.eigenvalues) == [-2.0, 2.0]
        assert lin.eigenvectors[0] == pytest.approx((1.0, 2.0 / 3.0))
        assert lin.kind == phase.SADDLE

    def test_origin_degenerate_and_source(self):
        assert phase.restricted_jacobian_origin(phase.make_params(4, 2, 0.0, 1.0)).kind == phase.DEGENERATE
        lin = phase.restricted_jacobian_origin(phase.make_params(3, 2, 1.0, 1.0))
        assert lin.kind == phase.SOURCE
        assert all(e.real > 0 for e in lin.eigenvalues)

    def test_A_restricted(self):
        p = phase.make_params(4, 1, 5.0, 1.0)
        lin = phase.restricted_jacobian_A(p)
        assert lin.kind == phase.SADDLE
        assert lin.eigenvectors[0] == pytest.approx((1.0, p.n / p.h0))

    def test_B_reference(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        lin = phase.jacobian_B(p)
        assert lin.trace == pytest.approx(-3.0)
        assert lin.determinant == pytest.approx(2.0)
        assert sorted(e.real for e in lin.eigenvalues) == pytest.approx([-2.0, -1.0])
        assert all(abs(e.imag) < 1e-14 for e in lin.eigenvalues)
        assert lin.kind == phase.ATTRACTOR

    def test_B_determinant_positive_and_offdiag_product(self):
        for n, k, rho in [(4, 1, 0.5), (5, 2, 2.0), (7, 2, 1.0)]:
            p = phase.make_params(n, k, rho, 1.0)
            lin = phase.jacobian_B(p)
            assert lin.determinant == pytest.approx(n - 2 * k)
            assert lin.matrix[0, 1] * lin.matrix[1, 0] == pytest.approx(-(n - 2 * k))
            assert lin.trace < 0.0

    def test_B_not_applicable(self):
        with pytest.raises(NotApplicableError):
            phase.jacobian_B(phase.make_params(4, 2, 1.0, 1.0))
        with pytest.raises(NotApplicableError):
            phase.jacobian_B(phase.make_params(4, 1, 0.0, 1.0))


class TestCriticalPoints:
    def test_shrinker_membership(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        pts = {cp.name: cp for cp in phase.critical_points(p)}
        assert pts["B"].location == pytest.approx((3.0, 1.0))
        assert pts["B"].in_admissible_region
        assert not pts["A"].in_admissible_region  # gamma^k = 4.5 < 6
        assert not pts["O"].in_admissible_region

    def test_B_absent_for_steady(self):
        names = {cp.name for cp in phase.critical_points(phase.make_params(4, 1, 0.0, 1.0))}
        assert names == {"O", "A"}

    def test_A_inside_for_large_rho(self):
        pts = {cp.name: cp for cp in phase.critical_points(phase.make_params(4, 1, 5.0, 1.0))}
        assert pts["A"].in_admissible_region

    def test_degenerate_line_for_n_eq_2k(self):
        p = phase.make_params(4, 2, 1.0, 1.0)
        pts = {cp.name: cp for cp in phase.critical_points(p)}
        assert pts["axis"].kind == phase.DEGENERATE_LINE
        assert pts["axis"].extent == pytest.approx((0.0, p.x_cap))
        # every point of the segment is genuinely critical
        for X in np.linspace(0.0, p.x_cap, 9):
            F, G = phase.system_rhs((X, 0.0), p)
            assert abs(F) < 1e-12 and G == 0.0

    def test_n_below_2k_has_O_and_A_only(self):
        names = {cp.name for cp in phase.critical_points(phase.make_params(3, 2, 5.0, 1.0))}
        assert names == {"O", "A"}

    def test_field_vanishes_only_at_critical_points(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        for _ in range(1000):
            X = float(RNG.uniform(0.01, 0.99) * p.x_cap)
            Z = float(RNG.uniform(0.01, 3.0))
            if max(abs(X - p.X_B), abs(Z - p.Z_B)) < 1e-3:
                continue
            F, G = phase.system_rhs((X, Z), p)
            assert max(abs(F), abs(G)) > 0.0


class TestRegionAndStructure:
    def test_membership_examples(self):
        p0 = phase.make_params(4, 1, 0.0, 1.0)
        assert phase.in_admissible_region((p0.gamma_k / 2.0, 1.0), p0)
        p = phase.make_params(4, 1, 5.0, 1.0)
        assert not phase.in_admissible_region((1.0, 0.0), p)
        # gamma^k = 10.5 but X_A = 6 caps the region
        assert not phase.in_admissible_region((7.0, 1.0), p)
        assert phase.in_admissible_region((5.9, 1.0), p)

    def test_asymptote_repulsion(self):
        for n, k, rho, theta in [(4, 1, -1.0, 1.0), (4, 1, 1.5, 1.0), (5, 2, 0.0, 0.8), (4, 2, 1.0, 1.0)]:
            p = phase.make_params(n, k, rho, theta)
            for Z in np.linspace(0.1, 10.0, 23):
                F, _ = phase.system_rhs((p.gamma_k, Z), p)
                if n > 2 * k:
                    assert F < 0.0
                else:
                    assert F == pytest.approx(0.0, abs=1e-12)

    def test_asymptote_repulsion_degenerates_at_rho_eq_2theta(self):
        # at rho = 2 theta the asymptote coincides with X_A and the strict
        # repulsion degenerates: X_s = 0 exactly on the line
        p = phase.make_params(4, 1, 2.0, 1.0)
        for Z in (0.5, 2.0, 10.0):
            F, G = phase.system_rhs((p.gamma_k, Z), p)
            assert F == 0.0
            assert G < 0.0

    def test_zs_sign_structure(self):
        p = phase.make_params(5, 2, 1.0, 1.0)
        for X in np.linspace(0.01, p.x_cap * 0.99, 200):
            _, G = phase.system_rhs((X, 1.3), p)
            assert (G > 0.0) == (X < p.X_B)
        _, G = phase.system_rhs((p.X_B, 1.3), p)
        assert G == pytest.approx(0.0, abs=1e-12)

    def test_eig2x2_complex_pair(self):
        ev = phase.eig2x2(((0.0, 1.0), (-1.0, 0.0)))
        assert ev[0] == pytest.approx(1j)
        assert ev[1] == pytest.approx(-1j)

    def test_phase_state_unpacks(self):
        p = phase.make_params(4, 1, 1.0, 1.0)
        state = phase.PhaseState(3.0, 1.0, s=0.0)
        assert phase.system_rhs(state, p) == phase.system_rhs((3.0, 1.0), p)
        assert phase.in_admissible_region(state, p)
