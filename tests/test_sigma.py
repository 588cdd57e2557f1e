"""Symmetric-function layer: every production value is pinned against a
brute-force subset-enumeration oracle or a frozen hand computation."""

import math
import warnings

import numpy as np
import pytest

from ksol import sigma
from ksol.errors import DomainError

RNG = np.random.default_rng(20240811)


class TestSigmaK:
    def test_all_ones_binomial_count(self):
        assert sigma.sigma_k([1.0, 1.0, 1.0], 2) == pytest.approx(3.0)

    def test_single_nonzero_vanishes_for_k2(self):
        for n in (3, 5, 9):
            lam = np.zeros(n)
            lam[0] = 2.0
            assert sigma.sigma_k(lam, 2) == 0.0

    def test_frozen_enumeration_value(self):
        # oracle: 1*2 + 1*3 + 2*3 = 11
        assert sigma.sigma_k_enumerated([1.0, 2.0, 3.0], 2) == pytest.approx(11.0)
        assert sigma.sigma_k([1.0, 2.0, 3.0], 2) == pytest.approx(11.0)

    def test_recurrence_matches_enumeration_randomized(self):
        # acceptance-grade property at reduced volume; the acceptance suite
        # runs the full 10^4 draw
        for _ in range(500):
            n = int(RNG.integers(2, 9))
            lam = RNG.normal(size=n) * 3.0
            k = int(RNG.integers(1, n + 1))
            a = sigma.sigma_k(lam, k)
            b = sigma.sigma_k_enumerated(lam, k)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            sigma.sigma_k([1.0, 2.0], 3)
        with pytest.raises(DomainError):
            sigma.sigma_k([1.0, 2.0], 0)


class TestNewtonDiag:
    def test_delete_one_rule(self):
        np.testing.assert_allclose(sigma.newton_tensor_diag([1.0, 1.0, 1.0], 1), [2, 2, 2])
        np.testing.assert_allclose(sigma.newton_tensor_diag([1.0, 2.0, 3.0], 1), [5, 4, 3])

    def test_k0_is_identity(self):
        np.testing.assert_allclose(sigma.newton_tensor_diag(RNG.normal(size=6), 0), np.ones(6))

    def test_alternating_sum_equivalence(self):
        # T_k diag entry i = sum_j (-1)^j sigma_(k-j)(lam) lam_i^j
        for _ in range(50):
            n = int(RNG.integers(2, 8))
            lam = RNG.normal(size=n) * 2.0
            k = int(RNG.integers(0, n))
            e = sigma.sigma_all(lam)
            direct = np.array(
                [sum((-1.0) ** j * e[k - j] * lam[i] ** j for j in range(k + 1)) for i in range(n)]
            )
            np.testing.assert_allclose(
                sigma.newton_tensor_diag(lam, k), direct, rtol=1e-10, atol=1e-10
            )

    def test_gradient_identity_finite_differences(self):
        # T_(k-1) diagonal equals d sigma_k / d lam_i
        step = 1e-6
        for _ in range(100):
            n = int(RNG.integers(2, 8))
            lam = RNG.normal(size=n) * 2.0
            k = int(RNG.integers(1, n + 1))
            diag = sigma.newton_tensor_diag(lam, k - 1)
            for i in range(n):
                up = lam.copy()
                up[i] += step
                dn = lam.copy()
                dn[i] -= step
                fd = (sigma.sigma_k(up, k) - sigma.sigma_k(dn, k)) / (2 * step)
                assert diag[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestPositiveCone:
    def test_ones_always_inside(self):
        for n in (3, 4, 7):
            for k in range(1, n + 1):
                assert sigma.in_positive_cone(np.ones(n), k)

    def test_negative_ones_outside(self):
        assert not sigma.in_positive_cone(-np.ones(4), 1)

    def test_mixed_example(self):
        assert sigma.in_positive_cone([3.0, 1.0, -0.5], 2)

    def test_nesting(self):
        for _ in range(300):
            n = int(RNG.integers(2, 9))
            lam = RNG.normal(size=n) * 2.0 + 0.5
            for k in range(n, 0, -1):
                if sigma.in_positive_cone(lam, k):
                    for j in range(1, k):
                        assert sigma.in_positive_cone(lam, j)
                    break

    def test_midpoint_convexity(self):
        found = 0
        while found < 100:
            n = int(RNG.integers(3, 8))
            k = int(RNG.integers(1, n + 1))
            a = RNG.normal(size=n) + 1.0
            b = RNG.normal(size=n) + 1.0
            if sigma.in_positive_cone(a, k) and sigma.in_positive_cone(b, k):
                assert sigma.in_positive_cone((a + b) / 2.0, k)
                found += 1


class TestRadialEigenvalues:
    def test_flat_factor_is_zero(self):
        pair = sigma.radial_schouten_eigenvalues(1.0, 0.0, 0.0, 2.0, 4, 1)
        assert pair.lambda1 == 0.0 and pair.lambda2 == 0.0

    def test_frozen_substitution(self):
        # oracle: direct substitution, m = 1/3:
        # lambda1 = -(1/3)(0 - (14/3)/4) = 7/18
        # lambda2 = -(1/3)(-1)(1 + (1/6)(-1)) = 5/18
        pair = sigma.radial_schouten_eigenvalues(1.0, -1.0, 0.0, 1.0, 4, 1)
        assert pair.lambda1 == pytest.approx(7.0 / 18.0, rel=1e-14)
        assert pair.lambda2 == pytest.approx(5.0 / 18.0, rel=1e-14)

    def test_independent_conformal_oracle(self):
        # Schouten tensor of e^(2 phi) delta with phi = ((1-m)/2) ln u,
        # Euclidean gauge: A_rr = -phi'' + phi'^2/2, A_tt = -phi'/r - phi'^2/2
        def oracle(u, u_r, u_rr, r, n, k):
            m = (n - 2 * k) / (n + 2 * k)
            c0 = (1.0 - m) / 2.0
            phi_r = c0 * u_r / u
            phi_rr = c0 * (u_rr / u - (u_r / u) ** 2)
            return -phi_rr + 0.5 * phi_r**2, -phi_r / r - 0.5 * phi_r**2

        for _ in range(200):
            n = int(RNG.integers(3, 9))
            k = int(RNG.integers(1, n + 1))
            u = float(RNG.uniform(0.2, 3.0))
            u_r = float(RNG.normal())
            u_rr = float(RNG.normal())
            r = float(RNG.uniform(0.1, 5.0))
            pair = sigma.radial_schouten_eigenvalues(u, u_r, u_rr, r, n, k)
            l1, l2 = oracle(u, u_r, u_rr, r, n, k)
            assert pair.lambda1 == pytest.approx(l1, rel=1e-12, abs=1e-12)
            assert pair.lambda2 == pytest.approx(l2, rel=1e-12, abs=1e-12)

    def test_r_zero_rejected(self):
        with pytest.raises(DomainError):
            sigma.radial_schouten_eigenvalues(1.0, -1.0, 0.0, 0.0, 4, 1)


class TestRadialSigma:
    def test_frozen_examples(self):
        assert sigma.radial_sigma_l(sigma.RadialEigenPair(1, 1, 3, 2), 2) == pytest.approx(3.0)
        assert sigma.radial_sigma_l(sigma.RadialEigenPair(5.0, 0.0, 6, 3), 2) == 0.0
        assert sigma.radial_sigma_l(sigma.RadialEigenPair(0.0, 1.0, 4, 2), 2) == pytest.approx(3.0)

    def test_array_spectrum_matches_enumeration(self):
        # the array evaluators behind the profile residuals agree with the
        # scalar path and with subset enumeration on the expanded list
        rng = np.random.default_rng(7)
        size = 12
        for n in range(3, 9):
            for k in range(1, n + 1):
                u = rng.uniform(0.2, 3.0, size)
                u_r = rng.normal(size=size)
                u_rr = rng.normal(size=size)
                r = rng.uniform(0.1, 5.0, size)
                lam1, lam2 = sigma.schouten_pair(u, u_r, u_rr, r, n, k)
                pairs = [
                    sigma.radial_schouten_eigenvalues(u[i], u_r[i], u_rr[i], r[i], n, k)
                    for i in range(size)
                ]
                assert list(lam1) == [pair.lambda1 for pair in pairs]
                assert list(lam2) == [pair.lambda2 for pair in pairs]
                for l in range(1, n + 1):
                    sig, cond = sigma.split_sigma_l(lam1, lam2, n, l)
                    for i, pair in enumerate(pairs):
                        full = sigma.sigma_k_enumerated(pair.expand(), l)
                        assert sig[i] == pytest.approx(full, rel=1e-12, abs=1e-12)
                    # no cancellation when both eigenvalues share a sign
                    assert np.all(cond >= 1.0 - 1e-12)
                    np.testing.assert_allclose(cond[lam1 * lam2 > 0.0], 1.0, rtol=1e-12)

    def test_condition_past_the_float_range_is_inf(self):
        # a bracket that cancels to 0 exactly at n = 64, l = 50, where the
        # eigenvalues are O(10): their sum over the 1e-300 floor exceeds
        # the float range, as on (64,50,3) and (64,48,2.01)
        b1, b2 = float(sigma.binomial(63, 49)), float(sigma.binomial(63, 50))
        c = 2.0**-40
        lam1, lam2 = np.array([-b2 * c, 1.0]), np.array([b1 * c, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            combo, cond = sigma.sigma_l_bracket(lam1, lam2, 64, 50)
        assert combo[0] == 0.0 and cond[0] == math.inf
        assert cond[1] == 1.0

    def test_matches_expanded_list(self):
        for _ in range(400):
            n = int(RNG.integers(3, 9))
            k = int(RNG.integers(1, n + 1))
            pair = sigma.RadialEigenPair(float(RNG.normal()), float(RNG.normal()), n, k)
            for l in range(1, n + 1):
                split = sigma.radial_sigma_l(pair, l)
                full = sigma.sigma_k(pair.expand(), l)
                assert split == pytest.approx(full, rel=1e-12, abs=1e-12)


class TestAdmissibility:
    def test_examples(self):
        assert sigma.is_admissible_radial(sigma.RadialEigenPair(1.0, 1.0, 4, 2))
        assert not sigma.is_admissible_radial(sigma.RadialEigenPair(1.0, -1.0, 3, 1))
        assert sigma.is_admissible_radial(sigma.RadialEigenPair(-0.1, 1.0, 4, 2))

    def test_equivalent_to_full_cone_check(self):
        # the two-sided equivalence (admissible <-> cone) needs k >= 2: its
        # proof extracts lambda2 > 0 from the l = 2 Newton tensor. For k = 1
        # the cone is the half-space sigma_1 > 0, which admits lambda2 <= 0,
        # and only the forward implication survives.
        for _ in range(2000):
            n = int(RNG.integers(3, 9))
            k = int(RNG.integers(2, n + 1))
            pair = sigma.RadialEigenPair(
                float(RNG.normal() * 2.0), float(RNG.normal() * 2.0), n, k
            )
            assert sigma.is_admissible_radial(pair) == sigma.in_positive_cone(pair.expand(), k)

    def test_k1_one_sided(self):
        for _ in range(500):
            n = int(RNG.integers(3, 9))
            pair = sigma.RadialEigenPair(
                float(RNG.normal() * 2.0), float(RNG.normal() * 2.0), n, 1
            )
            if sigma.is_admissible_radial(pair):
                assert sigma.in_positive_cone(pair.expand(), 1)
            if sigma.in_positive_cone(pair.expand(), 1) and pair.lambda2 > 0.0:
                assert sigma.is_admissible_radial(pair)
        # the k = 1 counterexample to the naive two-sided reading
        pair = sigma.RadialEigenPair(10.0, -1.0, 4, 1)
        assert sigma.in_positive_cone(pair.expand(), 1)
        assert not sigma.is_admissible_radial(pair)
