"""The slow-manifold series up the asymptote of the expanders and the
steady solitons (n > 2k, rho <= 0): its coefficients, the kernel's
hand-over to it, the arc it gives a trace, the verify check on that arc,
and oracles for the arc (scipy Radau at rtol 1e-13, mpmath at 30 and 40
digits)."""

import math

import mpmath
import numpy as np
import pytest

from test_corpus import PAIRS, RATIOS

from ksol import _kernels, manifold, orbit, phase, picard

RTOL = orbit.OrbitControls().rtol
ASYM_TOL = orbit.OrbitControls().asym_tol
# expanders of k = 1, 3 and 8, and a near-steady one whose arc ends at s_max
ORACLE_SETS = [(4, 1, -1.0), (7, 3, -0.3), (64, 8, -1.0), (4, 1, -1e-2)]
EXPANDERS = ORACLE_SETS + [
    (5, 2, -1.0), (9, 4, -1.0), (33, 16, -0.3), (64, 8, -0.3), (4, 1, -1.99), (33, 16, -1.99),
    (4, 1, -1e-4),
]
# steady sets (a = 0) of k = 1, 4 and 8, whose arcs run to s_max, and
# (6,1,0), whose series is one term, C = (8, 0, 0, ...)
STEADY_SETS = [(4, 1, 0.0), (12, 4, 0.0), (64, 8, 0.0)]
ARCS = EXPANDERS + STEADY_SETS + [(6, 1, 0.0)]
IDS = [f"{n}-{k}-{rho:g}" for n, k, rho in ARCS]
ORACLE_IDS = IDS[: len(ORACLE_SETS)]
STEADY_IDS = IDS[len(EXPANDERS) : len(EXPANDERS) + len(STEADY_SETS)]
# the corpus sets (``tests/test_corpus.py``) that hand over at theta 1
CORPUS_HAND_OVERS = [
    (n, k, r) for n, k in PAIRS if n > 2 * k for r in RATIOS if r <= 0.0
]


def _mp_series(mp, n, k, rho, order):
    """C_0 .. C_(order-1) at mp's precision, by the invariance equation
    written out in plain series products and an inverse, each order closed
    by its residual: independent of ``picard``'s recurrences."""
    gamma = mp.mpf(n + 2 * k) / k * (2 + mp.mpf(rho)) / 4
    x_A = mp.mpf(n + 2 * k) / k
    x_B = x_A / 2
    q0 = 1 - gamma / x_A
    C = [q0 * gamma * mp.mpf(n - 2 * k) ** (mp.mpf(1) / k)] + [mp.mpf(0)] * (order - 1)

    def mul(a, b):
        return [mp.fsum(a[i] * b[j - i] for i in range(j + 1)) for j in range(order)]

    def pw(a, e):
        out = [mp.mpf(1)] + [mp.mpf(0)] * (order - 1)
        for _ in range(e):
            out = mul(out, a)
        return out

    def inv(a):
        out = [1 / a[0]]
        for j in range(1, order):
            out.append(-mp.fsum(a[i] * out[j - i] for i in range(1, j + 1)) / a[0])
        return out

    factor = k * q0 ** (1 - k) * C[0] ** (k - 1)
    for j in range(1, order):
        x = [gamma] + [-c for c in C[:-1]]
        q = [1 - x[0] / x_A] + [-xi / x_A for xi in x[1:]]
        b = [1 - x[0] / x_B] + [-xi / x_B for xi in x[1:]]
        D = [mp.mpf(0)] + [(i + 1) * C[i] for i in range(order - 1)]
        lhs = mul(pw(inv(q), k - 1), pw(C, k))
        rhs = [
            (n - 2 * k) * u + 2 * k * v
            for u, v in zip(mul(q, pw(x, k)), mul(mul(pw(x, k - 1), b), D))
        ]
        C[j] = (rhs[j] - lhs[j]) / factor
    return C, gamma, x_B


_MP_CACHE = {}


def _mp_manifold(n, k, rho):
    """(mp, C, gamma, x_B): the 40-digit series of 25 terms."""
    if (n, k, rho) not in _MP_CACHE:
        mp = mpmath.mp.clone()
        mp.dps = 40
        _MP_CACHE[n, k, rho] = (mp,) + _mp_series(mp, n, k, rho, 25)
    return _MP_CACHE[n, k, rho]


def _arc(tr):
    """The index of the hand-over sample; the arc's samples follow it."""
    i = int(np.searchsorted(tr.s, tr.hand_over.s))
    assert tr.s[i] == tr.hand_over.s
    return i


class TestCoefficients:
    def test_leading_terms(self):
        # C_0 = q_0 gamma (n-2k)^(1/k); the later ones grow like j! (Gevrey)
        p = phase.make_params(4, 1, -1.0, 1.0)
        C, xk = manifold._coefficients(p, 9)
        assert C[0] == (1.0 - p.gamma / p.x_A) * p.gamma * 2.0
        assert C[1] == 0.0
        np.testing.assert_allclose(
            C[2:], [1.688, 3.375, 17.72, 91.12, 593.3, 4402.0, 37210.0], rtol=5e-4
        )
        # X = x^k = x at k = 1: xk_j = x_j = -C_(j-1)
        np.testing.assert_array_equal(xk[1:], -C)

    @pytest.mark.parametrize("n,k,rho", ORACLE_SETS + [(33, 16, -0.3)])
    def test_sum_matches_a_40_digit_series(self, n, k, rho, run):
        # gamma - x over the arc's terms, at the hand-over's eps, where they
        # are largest; single coefficients differ by up to 9e-11 relative
        # where they cancel (C_24 of (64,8,-1))
        p, _sol, tr, _oc = run(n, k, rho)
        mp, Cm, _gamma, _x_B = _mp_manifold(n, k, rho)
        N = tr.hand_over.terms
        eps = math.exp(-tr.hand_over.W / k)
        got = manifold.slow_manifold(p, RTOL).delta(np.array([tr.hand_over.W]), N)[0]
        want = eps * mp.fsum(c * mp.mpf(eps) ** j for j, c in enumerate(Cm[:N]))
        assert abs(got - want) <= 1e-14 * want

    def test_packs_python_floats(self):
        man = manifold.slow_manifold(phase.make_params(5, 2, -1.0, 1.0), RTOL)
        packed = man.packed()
        assert len(packed) == _kernels.SM_SIZE and all(type(v) is float for v in packed)
        assert packed[_kernels.SM_TERMS] == man.terms <= manifold.MAX_TERMS
        assert len(_kernels.NO_SERIES) == _kernels.SM_SIZE


class TestHandOver:
    @pytest.mark.parametrize("n,k,rho", ARCS, ids=IDS)
    def test_meets_both_tolerances(self, n, k, rho, run):
        # the last integrated state lies within rtol X of the kernel's
        # series, whose omitted terms meet HAND_OFF_TOL rtol there,
        # and the arc's samples are the series at their own W
        p, _sol, tr, oc = run(n, k, rho)
        hand = tr.hand_over
        man = manifold.slow_manifold(p, RTOL)
        assert hand.distance <= RTOL
        assert hand.omitted <= picard.HAND_OFF_TOL * RTOL
        assert hand.W >= man.W_min and 1 <= hand.terms <= man.terms
        i = _arc(tr)
        assert tr.X[i] == hand.X and tr.Z[i] == pytest.approx(math.exp(hand.W) / p.cb, rel=1e-15)
        W = np.log(p.cb * tr.Z[i + 1 :])
        X = (p.gamma - man.delta(W, hand.terms)) ** k
        np.testing.assert_allclose(tr.X[i + 1 : -1], X[:-1], rtol=1e-13)
        assert oc.kind == orbit.TYPE_GAMMA and oc.diagnostics["criterion"] == "asymptote_trap"
        if rho > -0.1:
            assert tr.status == "s_max" and tr.s[-1] == 200.0 and not tr.events
        else:
            assert tr.status == "reached_asymptote"
            assert tr.events[-1] == (tr.s[-1], "reached_asymptote")
            assert tr.X[-1] == (p.gamma - ASYM_TOL * p.gamma) ** k

    @pytest.mark.parametrize(
        "n,k,rho,ctrl",
        [
            (4, 2, -1.0, {}),
            (4, 1, 0.0, {}),
            (4, 1, 1.0, {}),
            (4, 1, -1.0, {"asym_tol": -1.0, "s_max": 30.0}),
        ],
    )
    def test_only_expanders_with_the_event_hand_over(self, n, k, rho, ctrl, run):
        # n = 2k and the shrinker have no slow manifold in eps; the steady
        # set has one, at a = 0, and hands over like an expander; with the
        # asymptote event off the run has no end the series could reach,
        # and the kernel takes it to its own end
        _p, _sol, tr, _oc = run(n, k, rho, **ctrl)
        assert (tr.hand_over is not None) == (rho == 0.0)

    def test_a_forged_coefficient_is_refused(self, run, monkeypatch):
        # C_3 moved so that x moves by 10 rtol at the hand-over: the kernel
        # refuses the state it handed over from, the run keeps integrating
        # and hands over later, and verify's defect reads the forgery
        p, _sol, tr, oc = run(4, 1, -1.0)
        hand = tr.hand_over
        eps = math.exp(-hand.W)
        x = p.gamma - manifold.slow_manifold(p, RTOL).delta(np.array([hand.W]), hand.terms)[0]
        coefficients = manifold._coefficients

        def forged(q, order):
            C, xk = coefficients(q, order)
            C = C.copy()
            C[3] += 10.0 * RTOL * x / eps**4
            return C, xk

        monkeypatch.setattr(manifold, "_coefficients", forged)
        packed = manifold.slow_manifold(p, RTOL).packed()
        assert not _kernels._on_series(hand.X, hand.W, _kernels.pack_params(p), RTOL, packed)
        _sol, tr_f, oc_f = orbit.run_orbit(p)
        assert tr_f.hand_over.s > hand.s and tr_f.accepted_steps > tr.accepted_steps
        assert (oc_f.kind, tr_f.status) == (oc.kind, tr.status)
        assert manifold.defect(tr_f, p) > 10.0

    def test_rows_of_a_shared_run_hand_over_at_their_own_s(self, run):
        # the rows of a shared continuation are shifted copies of the
        # anchor's run, hand-over included
        p = phase.make_params(4, 1, -1.0, 1.0)
        for alpha, (_sol, tr, _oc) in zip((0.5, 1.0, 2.0), orbit.run_orbits(p, [0.5, 1.0, 2.0])):
            own = run(4, 1, -1.0, alpha=alpha)[2].hand_over
            assert tr.hand_over.s == pytest.approx(own.s, abs=1e-12)
            assert tr.hand_over[1:] == own[1:]


class TestArc:
    def test_ends_at_s_max(self, run):
        # cut at s_max = 6 the arc ends there, on the series, and agrees
        # with the full arc's Hermite at s = 6
        p, _sol, full, _oc = run(4, 1, -1.0)
        _p, _sol, tr, _oc = run(4, 1, -1.0, s_max=6.0)
        assert tr.status == "s_max" and tr.s[-1] == 6.0 and not tr.events
        assert tr.hand_over == full.hand_over
        _s, X, Z = orbit._cut_at(full.s, full.X, full.Z, 6.0, p)
        assert tr.X[-1] == pytest.approx(X[-1], rel=_kernels.SAMPLE_TOL)
        assert math.log(tr.Z[-1] / Z[-1]) == pytest.approx(0.0, abs=_kernels.SAMPLE_TOL)

    @pytest.mark.parametrize("n,k,rho", ARCS, ids=IDS)
    def test_hermite_keeps_sample_tol_of_the_series(self, n, k, rho, run):
        # at the midpoint of each piece the cubic Hermite through the
        # samples and the field there, against the series at the W whose
        # quadrature s is the midpoint (Newton's method): X relative and
        # ln Z absolute; at most 5.6e-10
        p, _sol, tr, _oc = run(n, k, rho)
        man = manifold.slow_manifold(p, RTOL)
        N = tr.hand_over.terms
        i = _arc(tr)
        s, X, Z = tr.s[i:], tr.X[i:], tr.Z[i:]
        W = np.log(p.cb * Z)
        F, G = phase.vector_field(X, Z, p)
        mid = 0.5 * (s[1:] + s[:-1])
        got_x = orbit.hermite(s, X, F, mid)
        got_w = orbit.hermite(s, W, G / Z, mid)
        W_s = 2.0 * k * (man.a + (p.gamma - phase.kth_root(X[:-1], k)) / p.x_B)
        w = W[:-1] + (mid - s[:-1]) * W_s
        for _ in range(6):
            miss = s[:-1] + man._s_gain(W[:-1], w, N) - mid
            w = w - miss / man._ds_dw(man.delta(w, N))
        want_x = (p.gamma - man.delta(w, N)) ** k
        assert np.max(np.abs(got_x - want_x) / want_x) <= _kernels.SAMPLE_TOL
        assert np.max(np.abs(got_w - w)) <= _kernels.SAMPLE_TOL

    def test_an_event_at_the_hand_over_ends_the_run_there(self, run, monkeypatch):
        # where the kernel's state ends within the series' distance short of
        # the event, the series puts the event at or before the hand-over's
        # W: the arc has no sample, and the hand-over sample becomes the
        # event, X clipped to its level
        p, _sol, tr, _oc = run(4, 1, -1.0)
        man = manifold.slow_manifold(p, RTOL)
        late = tr.hand_over._replace(W=tr.hand_over.W + 20.0)
        s, X, Z, at_event = man.arc(late, 200.0, ASYM_TOL)
        assert at_event and s.size == X.size == Z.size == 0
        monkeypatch.setattr(manifold.SlowManifold, "arc", lambda *a: (s, X, Z, True))
        _sol, cut, _oc = orbit.run_orbit(p)
        i = _arc(cut)
        assert cut.s.size == i + 1 and cut.status == "reached_asymptote"
        assert cut.events[-1] == (cut.hand_over.s, "reached_asymptote")
        assert cut.X[-1] == (p.gamma - ASYM_TOL * p.gamma) ** p.k

    def test_gaps_follow_the_density(self, run):
        # the samples equidistribute the density's integral, read at
        # candidates k/8 apart in W: a gap exceeds its pieces' length, at
        # most MAX_STEP, by the growth of ds/dW over one candidate interval,
        # e^(1/8) = 1.13 at leading order. Over the 63 corpus hand-overs at
        # theta 1 the widest gap is 1.104 ((6,1,-1e-4)); the steady arcs'
        # are 1.055 to 1.096
        bound = _kernels.MAX_STEP * math.exp(1.0 / manifold.CANDIDATES_PER_K)
        widest = 0.0
        for n, k, rho in CORPUS_HAND_OVERS:
            _p, _sol, tr, _oc = run(n, k, rho)
            gaps = np.diff(tr.s[_arc(tr) :])
            assert gaps.size and np.all(gaps > 0.0), (n, k, rho)
            widest = max(widest, float(np.max(gaps)))
        assert 1.0 < widest <= bound


class TestDefect:
    @pytest.mark.parametrize("n,k,rho", ARCS, ids=IDS)
    def test_within_its_estimate(self, n, k, rho, run):
        # 0.02 to 0.30 of the estimate (0.02 to 0.30 over the 63 corpus
        # hand-overs too; 0.02 on (6,1,0), 0.12 to 0.21 on the other steady
        # sets)
        p, _sol, tr, _oc = run(n, k, rho)
        assert manifold.defect(tr, p) <= 1.0

    def test_none_without_an_arc(self, run):
        p, _sol, tr, _oc = run(4, 1, 1.0)
        assert manifold.defect(tr, p) is None


@pytest.fixture(scope="module")
def radau(run, log_chart):
    """(n, k, rho) -> (trace, solution): scipy Radau at rtol = atol = 1e-13
    in (X, ln Z) from the trace's Picard hand-off, with the asymptote event,
    to 1 past the trace's end (at most s_max)."""
    integrate = pytest.importorskip("scipy.integrate")
    cache = {}

    def _solve(n, k, rho):
        if (n, k, rho) not in cache:
            p, _sol, tr, _oc = run(n, k, rho)

            def asymptote(_s, y):
                return p.gamma - phase.kth_root(max(y[0], 0.0), k) - ASYM_TOL * p.gamma

            asymptote.terminal = True
            asymptote.direction = -1.0
            fun, jac = log_chart(p)
            i0 = tr.tail_end_index
            res = integrate.solve_ivp(
                fun, (tr.s[i0], min(tr.s[-1] + 1.0, 200.0)), [tr.X[i0], math.log(tr.Z[i0])],
                method="Radau", rtol=1e-13, atol=1e-13, jac=jac, events=asymptote,
                dense_output=True,
            )
            assert res.success
            cache[n, k, rho] = (tr, res)
        return cache[n, k, rho]

    return _solve


def _mp_field(mp, n, k, rho):
    """The field in (ln X, W) at mp's precision."""
    gamma = mp.mpf(n + 2 * k) / k * (2 + mp.mpf(rho)) / 4
    x_A = mp.mpf(n + 2 * k) / k

    def field(_s, v):
        x = mp.exp(v[0] / k)
        q = 1 - x / x_A
        f = q * ((gamma - x) / q) ** k
        return [-(n - 2 * k) * q + mp.exp(v[1] - v[0]) * f, 2 * k * (1 - 2 * x / x_A)]

    return field


@pytest.mark.slow
@pytest.mark.parametrize("n,k,rho", ORACLE_SETS, ids=ORACLE_IDS)
class TestOracles:
    def test_arc_samples_match_scipy(self, n, k, rho, radau):
        # worst: 6.8e-13 in X and 1.7e-12 in ln Z ((64,8,-1)); the Radau arc
        # it replaces read up to 6.3e-12 and 4.8e-12 on (4,1,-1)
        tr, res = radau(n, k, rho)
        i = _arc(tr)
        x_ref, ln_z_ref = res.sol(tr.s[i + 1 :])
        assert np.max(np.abs(tr.X[i + 1 :] / x_ref - 1.0)) <= 2e-11
        assert np.max(np.abs(np.log(tr.Z[i + 1 :]) - ln_z_ref)) <= 2e-11

    def test_fixed_s_matches_scipy(self, n, k, rho, run, radau):
        # read off the trace by ``orbit._cut_at``, the cubic Hermite between
        # samples: within SAMPLE_TOL of the samples, and they within 2e-11
        # of the flow (at most 4.9e-10 in all)
        p, _sol, tr, _oc = run(n, k, rho)
        tr, res = radau(n, k, rho)
        for target in np.linspace(tr.hand_over.s, tr.s[-1], 9)[1:-1] + 0.01:
            _s, X, Z = orbit._cut_at(tr.s, tr.X, tr.Z, target, p)
            x_ref, ln_z_ref = res.sol(target)
            assert abs(X[-1] / x_ref - 1.0) <= _kernels.SAMPLE_TOL + 2e-11, target
            assert abs(math.log(Z[-1]) - ln_z_ref) <= _kernels.SAMPLE_TOL + 2e-11, target

    def test_end_matches_scipy(self, n, k, rho, radau):
        # the asymptote event within 1e-8 of scipy's terminal event (6.2e-9
        # at most; the Radau arc's was 2.7e-8 off on (4,1,-1)); the
        # near-steady arc ends at s_max, short of it
        tr, res = radau(n, k, rho)
        if tr.status == "s_max":
            assert tr.s[-1] == 200.0 and res.t_events[0].size == 0
            return
        assert abs(tr.s[-1] - res.t_events[0][0]) <= 1e-8

    def test_arc_matches_a_25_digit_flow(self, n, k, rho, run):
        # mpmath.odefun (Taylor) from the hand-over state over the first
        # half unit of s (a quarter at k = 8, where each Taylor step costs
        # more), where the series' truncation is largest: at most 4.7e-13
        # in X and 2.4e-13 in ln Z at the samples. The event lies too far up
        # the stiff arc for a Taylor method (its steps shrink like 1/rho(J),
        # 1.5e5 there on (4,1,-1)); the next test reads it off the series
        p, _sol, tr, _oc = run(n, k, rho)
        hand = tr.hand_over
        mp = mpmath.mp.clone()
        mp.dps = 25
        start = [mp.log(hand.X), mp.mpf(hand.W)]
        flow = mp.odefun(_mp_field(mp, n, k, rho), mp.mpf(hand.s), start)
        i = _arc(tr)
        span = 0.25 if k >= 8 else 0.5
        for j in range(i + 1, int(np.searchsorted(tr.s, hand.s + span))):
            ln_x, w = flow(mp.mpf(tr.s[j]))
            assert abs(tr.X[j] / mp.exp(ln_x) - 1) <= 2e-12, tr.s[j]
            assert abs(mp.log(p.cb * tr.Z[j]) - w) <= 2e-12, tr.s[j]
        # and between the samples, read by ``orbit._cut_at``
        for target in hand.s + span * np.array([0.3, 0.6, 0.9]):
            _s, X, Z = orbit._cut_at(tr.s, tr.X, tr.Z, target, p)
            ln_x, w = flow(mp.mpf(target))
            assert abs(X[-1] / mp.exp(ln_x) - 1) <= _kernels.SAMPLE_TOL + 2e-12, target
            assert abs(mp.log(p.cb * Z[-1]) - w) <= _kernels.SAMPLE_TOL + 2e-12, target

    def test_end_matches_a_40_digit_series(self, n, k, rho, run):
        # from the hand-over's (s, W): the event where eps C(eps) = asym_tol
        # gamma by findroot, its s by tanh-sinh quadrature of ds/dW, both on
        # the 40-digit series (1.2e-13 at most); the near-steady arc's W at
        # s_max the same way (2.1e-14)
        p, _sol, tr, _oc = run(n, k, rho)
        hand = tr.hand_over
        mp, Cm, gamma, x_B = _mp_manifold(n, k, rho)

        def delta(eps):
            return eps * mp.fsum(c * eps**j for j, c in enumerate(Cm))

        def s_of(W):
            return hand.s + mp.quad(
                lambda w: 1 / (2 * k * (1 - (gamma - delta(mp.exp(-w / k))) / x_B)), [hand.W, W]
            )

        if tr.status == "s_max":
            W = mp.findroot(lambda w: s_of(w) - tr.s[-1], mp.log(p.cb * tr.Z[-1]))
            assert abs(mp.log(p.cb * tr.Z[-1]) - W) <= 1e-12
            return
        eps = mp.findroot(lambda e: delta(e) - ASYM_TOL * gamma, mp.mpf(ASYM_TOL) * gamma / Cm[0])
        assert abs(mp.log(p.cb * tr.Z[-1]) + k * mp.log(eps)) <= 1e-12
        assert abs(tr.s[-1] - s_of(-k * mp.log(eps))) <= 1e-11


def _hermite_misses_of_the_flow(p, tr):
    """The worst miss of the cubic Hermite between the arc's samples, at
    each piece's midpoint, against scipy Radau (rtol 1e-13) from the
    piece's left sample: X relative and W absolute."""
    integrate = pytest.importorskip("scipy.integrate")
    pp = _kernels.pack_params(p)
    i = _arc(tr)
    s, X = tr.s[i:], tr.X[i:]
    W = np.log(p.cb * tr.Z[i:])
    slopes = np.array([_kernels.rhs(x, w, pp) for x, w in zip(X.tolist(), W.tolist())])
    mid = 0.5 * (s[1:] + s[:-1])
    got = [orbit.hermite(s, y, slopes[:, c], mid) for c, y in enumerate((X, W))]

    def fun(_s, y):
        return list(_kernels.rhs(y[0], y[1], pp))

    def jac(_s, y):
        a, b, c, d = _kernels.jac(y[0], y[1], pp)
        return [[a, b], [c, d]]

    miss_x = miss_w = 0.0
    for j in range(mid.size):
        res = integrate.solve_ivp(
            fun, (s[j], mid[j]), [X[j], W[j]], method="Radau", rtol=1e-13,
            atol=[1e-13 * X[j], 1e-13], jac=jac,
        )
        x_ref, w_ref = res.y[:, -1]
        miss_x = max(miss_x, abs(got[0][j] / x_ref - 1.0))
        miss_w = max(miss_w, abs(got[1][j] - w_ref))
    return miss_x, miss_w


@pytest.mark.slow
@pytest.mark.parametrize("n,k,rho", [(64, 8, -0.3), (64, 8, -1.5), (64, 8, -1.0)])
def test_64_8_arcs_keep_sample_tol_of_the_flow(n, k, rho, run):
    # the Radau samples of these expanders missed SAMPLE_TOL by up to 5.6e-9
    # up the asymptote (h rho(J) ~ 6e5). The series now takes the run over
    # before Radau would (s = 2.21, 0.78 and 1.33, against switches at 3.5,
    # 2.7 and 2.15), and its arc keeps SAMPLE_TOL of the flow: the cubic
    # Hermite between samples at their midpoint against scipy Radau (rtol
    # 1e-13) from the left one, X relative and ln Z absolute, at most
    # 5.6e-10
    p, _sol, tr, _oc = run(n, k, rho)
    assert math.isnan(tr.stiff_from_s) and tr.newton_iterations == 0
    assert max(_hermite_misses_of_the_flow(p, tr)) <= _kernels.SAMPLE_TOL


@pytest.mark.slow
@pytest.mark.parametrize("n,k", [(6, 1), (4, 1), (12, 4)])
def test_steady_arcs_keep_sample_tol_of_the_flow(n, k, run):
    # at a = 0 each d/ds raises the order in eps by one, so the density's
    # majorant of the fourth derivatives runs to order N + 4: cut at the
    # series' N = 1 terms, (6,1,0)'s read 0, and its samples, 1.09 apart,
    # missed the flow by 1.3e-5. Now at most 3.4e-10, 1.6e-10 and 1.1e-10
    # in X, 5.0e-10 in W
    p, _sol, tr, _oc = run(n, k, 0.0)
    assert tr.status == "s_max" and tr.s[-1] == 200.0
    miss_x, miss_w = _hermite_misses_of_the_flow(p, tr)
    assert miss_x <= _kernels.SAMPLE_TOL and miss_w <= _kernels.SAMPLE_TOL


@pytest.fixture(scope="module")
def steady_flow(run, log_chart):
    """(n, k) -> (p, trace, solution): scipy Radau at rtol 1e-13 (atol
    1e-13 X and 1e-13 in ln Z) in (X, ln Z) from the steady trace's
    hand-over to s_max."""
    integrate = pytest.importorskip("scipy.integrate")
    cache = {}

    def _solve(n, k):
        if (n, k) not in cache:
            p, _sol, tr, _oc = run(n, k, 0.0)
            hand = tr.hand_over
            fun, jac = log_chart(p)
            res = integrate.solve_ivp(
                fun, (hand.s, tr.s[-1]), [hand.X, hand.W - math.log(p.cb)], method="Radau",
                rtol=1e-13, atol=[1e-13 * hand.X, 1e-13], jac=jac, dense_output=True,
            )
            assert res.success
            cache[n, k] = (p, tr, res)
        return cache[n, k]

    return _solve


@pytest.mark.slow
@pytest.mark.parametrize("n,k,rho", STEADY_SETS, ids=STEADY_IDS)
class TestSteadyOracles:
    def test_arc_samples_match_scipy(self, n, k, rho, steady_flow):
        # the bounds of the expanders' oracle; worst 6.6e-13 in X and
        # 8.0e-13 in ln Z
        p, tr, res = steady_flow(n, k)
        i = _arc(tr)
        x_ref, ln_z_ref = res.sol(tr.s[i + 1 :])
        assert np.max(np.abs(tr.X[i + 1 :] / x_ref - 1.0)) <= 2e-11
        assert np.max(np.abs(np.log(tr.Z[i + 1 :]) - ln_z_ref)) <= 2e-11

    @pytest.mark.parametrize("target", [16.0, 64.0, 200.0])
    def test_fixed_s_matches_scipy(self, n, k, rho, target, steady_flow):
        # read off the trace by ``orbit._cut_at``: within SAMPLE_TOL + 2e-11
        # of the flow, as on the expanders (at most 6.1e-11 in X and
        # 4.9e-10 in ln Z; s = 200 is the last sample)
        p, tr, res = steady_flow(n, k)
        _s, X, Z = orbit._cut_at(tr.s, tr.X, tr.Z, target, p)
        x_ref, ln_z_ref = res.sol(target)
        assert abs(X[-1] / x_ref - 1.0) <= _kernels.SAMPLE_TOL + 2e-11
        assert abs(math.log(Z[-1]) - ln_z_ref) <= _kernels.SAMPLE_TOL + 2e-11
