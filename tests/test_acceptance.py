"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one PASS line on success (run with -s or look at -v output).

Criteria 6-13 share the session-cached orbit pipelines, so the whole module
stays well under a minute per item.
"""

import math

import numpy as np
import pytest

from ksol import orbit, phase, picard, profile, sigma

RNG = np.random.default_rng(123456)

REGIME_GRID = {
    (4, 1): [(-1.0, orbit.TYPE_GAMMA), (0.0, orbit.TYPE_GAMMA),
             (1.0, "B_or_genB"), (2.0, "B_or_genB"), (5.0, "A_or_B")],
    (4, 2): [(-1.0, orbit.TYPE_GAMMA), (0.0, orbit.TYPE_GAMMA),
             (1.0, "genA"), (5.0, "genA")],
    (3, 2): [(-1.0, orbit.NON_ADMISSIBLE), (0.0, orbit.NON_ADMISSIBLE),
             (1.0, orbit.NON_ADMISSIBLE), (2.0, orbit.TYPE_A), (5.0, orbit.TYPE_A)],
}

RATE_CASES = [(4, 1, -1.0), (4, 1, 0.0), (4, 1, 1.0), (4, 2, 1.0)]


def _kind_matches(kind, expected):
    if expected == "B_or_genB":
        return kind in (orbit.TYPE_B, orbit.GENERALIZED_B)
    if expected == "A_or_B":
        return kind in (orbit.TYPE_A, orbit.TYPE_B, orbit.GENERALIZED_B)
    if expected == "genA":
        return kind in (orbit.GENERALIZED_A, orbit.TYPE_A)
    return kind == expected


def test_criterion_01_sigma_oracle_equivalence():
    worst = 0.0
    for _ in range(10_000):
        n = int(RNG.integers(2, 9))
        lam = RNG.normal(size=n) * 3.0
        k = int(RNG.integers(1, n + 1))
        a = sigma.sigma_k(lam, k)
        b = sigma.sigma_k_enumerated(lam, k)
        worst = max(worst, abs(a - b) / max(1e-30, abs(b), abs(a)))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
    print(f"\nPASS criterion 1: recurrence vs enumeration on 10^4 lists, worst rel {worst:.2e}")


def test_criterion_02_newton_gradient_identity():
    step = 1e-6
    worst = 0.0
    for _ in range(1000):
        n = int(RNG.integers(2, 9))
        lam = RNG.normal(size=n) * 2.0
        k = int(RNG.integers(1, n + 1))
        diag = sigma.newton_tensor_diag(lam, k - 1)
        i = int(RNG.integers(0, n))
        up, dn = lam.copy(), lam.copy()
        up[i] += step
        dn[i] -= step
        fd = (sigma.sigma_k(up, k) - sigma.sigma_k(dn, k)) / (2 * step)
        err = abs(diag[i] - fd) / max(1.0, abs(fd))
        worst = max(worst, err)
        assert err < 1e-6
    print(f"PASS criterion 2: Newton diagonal = grad sigma_k (FD), worst rel {worst:.2e}")


def test_criterion_03_admissibility_equivalence():
    # Lemma 3.2 is two-sided for k >= 2; for k = 1 the cone is the half
    # space sigma_1 > 0 and only the forward implication holds (the lemma's
    # own proof needs the l = 2 Newton tensor), so k = 1 draws check the
    # valid one-sided statements.
    n_two_sided = 0
    for _ in range(10_000):
        n = int(RNG.integers(3, 9))
        k = int(RNG.integers(1, n + 1))
        pair = sigma.RadialEigenPair(float(RNG.normal() * 2), float(RNG.normal() * 2), n, k)
        adm = sigma.is_admissible_radial(pair)
        cone = sigma.in_positive_cone(pair.expand(), k)
        if k >= 2:
            assert adm == cone
            n_two_sided += 1
        else:
            assert not adm or cone
            assert not (cone and pair.lambda2 > 0.0) or adm
    print(f"PASS criterion 3: admissibility == cone membership on 10^4 draws "
          f"({n_two_sided} two-sided k>=2 cases)")


def test_criterion_04_critical_point_certificate():
    p = phase.make_params(4, 1, 1.0, 1.0)
    F, G = phase.system_rhs((3.0, 1.0), p)
    assert max(abs(F), abs(G)) < 1e-12
    lin = phase.jacobian_B(p)
    assert lin.trace == pytest.approx(-3.0, abs=1e-14)
    assert lin.determinant == pytest.approx(2.0, abs=1e-14)
    eig = sorted(e.real for e in lin.eigenvalues)
    assert eig == pytest.approx([-2.0, -1.0], abs=1e-14)
    assert all(e.imag == 0.0 for e in lin.eigenvalues)
    print(f"PASS criterion 4: B=(3,1), |RHS|={max(abs(F), abs(G)):.2e}, "
          f"J(B) trace -3 det 2 eigenvalues (-1,-2)")


@pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (4, 2), (3, 2)])
@pytest.mark.parametrize("rho", [-1.0, 0.0, 1.0])
def test_criterion_05_picard_convergence(n, k, rho, solve_local):
    p, sol = solve_local(n, k, rho)
    assert sol.contraction_rate < 0.9
    assert sol.sup_residual < 1e-10
    ak = picard.alpha_weight(1.0, p)
    err = max(abs(sol.weighted_limits[0] - ak),
              abs(sol.weighted_limits[1] - p.n * ak / p.f0))
    assert err < 1e-8
    print(f"PASS criterion 5 ({n},{k},rho={rho}): rate {sol.contraction_rate:.3f}, "
          f"residual {sol.sup_residual:.1e}, limit err {err:.1e}")


def test_criterion_06_regime_table(run):
    for (n, k), entries in REGIME_GRID.items():
        for rho, expected in entries:
            _p, _sol, _tr, oc = run(n, k, rho)
            assert _kind_matches(oc.kind, expected), (n, k, rho, oc.kind, expected)
    print("PASS criterion 6: classification matches the regime table on all "
          f"{sum(len(v) for v in REGIME_GRID.values())} grid points")


def test_criterion_07_expander_rate(run):
    p, _sol, tr, oc = run(4, 1, -1.0)
    assert oc.kind == orbit.TYPE_GAMMA
    fitted = profile.z_tail_rate(tr, p, 5.0)
    expected = -p.k * p.rho / p.theta
    assert fitted == pytest.approx(expected, rel=0.01)
    print(f"PASS criterion 7: expander Z-rate {fitted:.5f} vs {expected} (<=1%)")


def test_criterion_08_steady_rate(run):
    p, _sol, tr, oc = run(4, 1, 0.0)
    slope, _b, r2 = profile.affine_z_root_fit(tr, p)
    assert r2 > 0.999
    rr = profile.tail_rate(profile.admissible_samples(tr, p), p, oc)
    assert rr.fitted_exponent == pytest.approx(-3.0, rel=0.02)
    assert rr.log_correction_power == pytest.approx(1.5, rel=0.02)
    print(f"PASS criterion 8: Z affine (R2={r2:.6f}); u ~ (ln r/r^2)^(3/2): "
          f"exponent {rr.fitted_exponent:.4f}, log power {rr.log_correction_power:.4f}")


def test_criterion_09_shrinker_slow_rate(run):
    p, _sol, tr, oc = run(4, 1, 1.0)
    assert oc.kind == orbit.TYPE_B
    rr = profile.tail_rate(profile.admissible_samples(tr, p), p, oc)
    assert rr.fitted_exponent == pytest.approx(-2.0 / (1.0 - p.m), rel=0.01)
    print(f"PASS criterion 9: type-B exponent {rr.fitted_exponent:.5f} vs -3 (<=1%)")


def test_criterion_10_n2k_shrinker(run):
    p, _sol, tr, oc = run(4, 2, 1.0)
    assert oc.X_inf is not None
    d = oc.X_inf ** 0.5 / 2.0 - 1.0
    assert 0.0 < d <= 0.5
    rr = profile.tail_rate(profile.admissible_samples(tr, p), p, oc)
    assert rr.fitted_exponent == pytest.approx(-2.0 * (1.0 + d), rel=0.02)
    print(f"PASS criterion 10: d={d:.5f} in (0, 1/2], exponent {rr.fitted_exponent:.5f} "
          f"vs {-2 * (1 + d):.5f} (<=2%)")


def test_criterion_11_barrier():
    p = phase.make_params(4, 1, 5.0, 1.0)
    rep = orbit.barrier_compare(p, x_lo=0.01)
    assert rep.ordered, f"min gap {rep.min_gap}"
    assert rep.f_gt_h
    assert rep.slope_origin <= rep.slope_A
    print(f"PASS criterion 11: Z(X) <= V-(X) on [0.01, X_B] (min gap {rep.min_gap:.4f}), "
          f"f > h (min {rep.f_minus_h_min:.4f})")


def test_criterion_12_pde_residual(run):
    worst = 0.0
    cases = [(4, 1, -1.0), (4, 1, 0.0), (4, 1, 1.0), (4, 1, 2.0), (4, 1, 5.0),
             (4, 2, 1.0), (4, 2, 5.0), (3, 2, 2.0), (3, 2, 5.0), (4, 2, -1.0)]
    for n, k, rho in cases:
        p, _sol, tr, oc = run(n, k, rho)
        if oc.kind == orbit.NON_ADMISSIBLE:
            continue
        tab = profile.reconstruct_u(profile.admissible_samples(tr, p), p)
        rep = profile.elliptic_residual(tab, p)
        worst = max(worst, rep.max_rel)
        assert rep.max_rel < 1e-6, (n, k, rho, rep.max_rel)
    print(f"PASS criterion 12: elliptic residual < 1e-6 along all converged orbits "
          f"(worst {worst:.2e})")


def test_criterion_13_invariant_monitors(run):
    all_cases = []
    for (n, k), entries in REGIME_GRID.items():
        all_cases += [(n, k, rho) for rho, _ in entries]
    for n, k, rho in all_cases:
        p, _sol, tr, _oc = run(n, k, rho)
        rep = orbit.monitor_report(tr, p)
        assert all(v == 0 for v in rep.values()), (n, k, rho, rep)
    print(f"PASS criterion 13: zero monitor violations across {len(all_cases)} runs")


def test_criterion_14_k1_classical_cross_check(run):
    # the k = 1 pipeline reproduces the classical Yamabe phase plane
    for n in (3, 4, 6):
        p = phase.make_params(n, 1, 1.0, 1.0)
        lin_o = phase.restricted_jacobian_origin(p)
        assert lin_o.kind == phase.SADDLE
        assert sorted(e.real for e in lin_o.eigenvalues) == [-(n - 2.0), 2.0]
        lin_b = phase.jacobian_B(p)
        assert lin_b.kind == phase.ATTRACTOR
        assert lin_b.determinant == pytest.approx(n - 2.0)
        assert lin_b.trace == pytest.approx(-(n - 2.0) * (n + 2.0) / 4.0)
    _p, _sol, _tr, oc = run(4, 1, 1.0)
    assert oc.kind == orbit.TYPE_B
    _p, _sol, _tr, oc = run(4, 1, -1.0)
    assert oc.kind == orbit.TYPE_GAMMA
    print("PASS criterion 14: k=1 classical phase plane (O saddle, B attractor, "
          "closed forms) reproduced")
