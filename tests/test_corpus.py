"""The regime corpus: 16 (n, k) pairs times 18 values of rho/theta, at
theta = 1 and alpha = 1, against the paper's regime table.

Every run must end in ``orbit.expected_kinds``. The runs that do not yet are
strict xfails, each pinned under its cause; a fix turns its pins into
unexpected passes, and they must then come out. A run may raise a KsolError
(it then counts as a result outside the table), but no other exception,
pinned or not.

Every run into an attracting B ends at B on a certificate (certified_B),
except on the nodes that no certificate reaches, named in
UNCERTIFIED_NODES with their cause: they run to s_max, where their bounded
band reads GeneralizedB. Every run at rho <= 0 and n >= 2k is decided by
the asymptote trap at its hand-off, and at n > 2k it hands over to the
slow-manifold series (``ksol.manifold``). At rho = 0 the runs end at
s_max: with n > 2k on the series' arc, whose log power 1/(1-m) an
integrated run confirms, and with n = 2k, which has no series, on the
kernel's, where the log power (k-2)/k of (10,5) and (16,8) has converged
(that of (4,2) and (6,3) has not).
"""

import json

import pytest

from ksol import cli, manifold, orbit, phase, profile
from ksol.errors import KsolError

PAIRS = [
    (3, 1), (4, 1), (6, 1), (4, 2), (5, 2), (3, 2), (6, 3), (7, 3),
    (5, 3), (9, 4), (12, 4), (16, 8), (33, 16), (64, 8), (6, 4), (10, 5),
]
RATIOS = [
    -1.99, -1.5, -1.0, -0.3, -1e-2, -1e-4, 0.0, 1e-4, 1e-2, 0.3, 1.0, 1.99, 2.0, 2.01, 3.0,
    10.0, 1e2, 1e4,
]

SLOW_PASSAGE = (
    "n = 2k, rho/theta -> 0+: there is no B to end the run at a funnel, the passage "
    "along x ~ gamma ~ x_B lasts of order theta/rho, beyond s_max, and its tail is "
    "Undetermined"
)
WEAK_FOCUS = (
    "B is a focus with Re(lambda) = -5e-3 (rho/theta 1e2) or -5e-5 (1e4): the first "
    "loop around it takes Z down some 26 orders, and the run ends there on the axis "
    "stop, converged_axis (TypeA), before any return to X = X_B"
)
DOUBLE_NODE = (
    "B is a node with the double eigenvalue -2: the funnel refuses the hand-off, "
    "and the orbit approaches B with no return to X = X_B"
)
ROUNDING_RETURNS = (
    "B is a node the orbit overshoots in X, so the funnel refuses the hand-off; its "
    "returns to X = X_B near B are rounding, which no Poincare return certifies"
)
UNCERTIFIED_NODES = {(6, 1, 1.0): DOUBLE_NODE, (12, 4, 1.0): DOUBLE_NODE}
UNCERTIFIED_NODES.update({(64, 8, r): ROUNDING_RETURNS for r in (1.99, 2.0, 2.01, 3.0)})

KNOWN = {}
for _n, _k in PAIRS:
    if _n == 2 * _k:
        KNOWN.update({(_n, _k, r): SLOW_PASSAGE for r in (1e-4, 1e-2)})
KNOWN.update({(33, 16, r): WEAK_FOCUS for r in (1e2, 1e4)})


def _case(n, k, ratio):
    cause = KNOWN.get((n, k, ratio))
    marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=cause)] if cause else []
    return pytest.param(n, k, ratio, marks=marks, id=f"{n}-{k}-{ratio:g}")


@pytest.mark.slow
@pytest.mark.parametrize("n,k,ratio", [_case(n, k, r) for n, k in PAIRS for r in RATIOS])
def test_result_is_in_the_regime_table(n, k, ratio):
    p = phase.make_params(n, k, ratio, 1.0)
    try:
        _sol, trace, oc = orbit.run_orbit(p)
        result = (oc.kind, trace.status)
    except KsolError as exc:
        result = (type(exc).__name__, str(exc))
    assert result[0] in orbit.expected_kinds(p), result
    if p.b_attracts and (n, k, ratio) in UNCERTIFIED_NODES:
        assert result == (orbit.GENERALIZED_B, "s_max"), result
    elif p.b_attracts:
        assert result[1] == "certified_B", result
    # the asymptote trap decides every run at rho <= 0 and n >= 2k, and at
    # n > 2k the slow-manifold series takes it over. The steady runs end
    # at s_max; at n = 2k and k >= 5 the log power there lies within 1e-6
    # of its prediction (k-2)/k (1.8e-11 and 8.2e-13 on (10,5) and (16,8);
    # 5.3e-2 and 2.1e-4 on (4,2) and (6,3))
    if n >= 2 * k and ratio <= 0.0:
        assert oc.diagnostics["criterion"] == "asymptote_trap", result
        assert (trace.hand_over is not None) == (n > 2 * k), result
    if n >= 2 * k and ratio == 0.0:
        assert result[1] == "s_max" and trace.s[-1] == 200.0, result
    if n == 2 * k and ratio == 0.0 and k >= 5:
        rate = profile.tail_rate(profile.admissible_samples(trace, p), p, oc)
        assert rate.log_correction_power == pytest.approx((k - 2.0) / k, abs=1e-6), result


@pytest.mark.slow
@pytest.mark.parametrize("n,k", [(n, k) for n, k in PAIRS if n > 2 * k])
def test_steady_log_power_is_one_over_one_minus_m(n, k, run, integrated):
    # the series' arc carries the steady law s (gamma - x) -> x_B/2 =
    # 1/(1-m) itself, so the power read off it agrees by construction
    # (1.1e-10 at most); its defect against the field checks the arc
    # (0.02 to 0.21). The independent evidence is the kernel's run without
    # the series (``integrated``) to s_max, DOP853 and Radau: the same fit
    # over [100, 200] reads the power within 1e-6 (1.1e-10 at most; the
    # two-term fit at s = 200 was off by up to 3.2e-4)
    p, _sol, trace, oc = run(n, k, 0.0)
    rate = profile.tail_rate(profile.admissible_samples(trace, p), p, oc)
    assert trace.status == "s_max" and trace.hand_over is not None
    assert rate.log_correction_power == pytest.approx(1.0 / (1.0 - p.m), abs=1e-6)
    assert manifold.defect(trace, p) <= 1.0
    _p, kernel_run = integrated(n, k, 0.0)
    assert kernel_run.hand_over is None and kernel_run.s[-1] == 200.0
    fit = profile.log_power_fit(kernel_run.s, kernel_run.X, p, 200.0)[0]
    assert fit == pytest.approx(1.0 / (1.0 - p.m), abs=1e-6)


# ``ksol verify`` over the corpus at three thetas: the checks that fail, by
# (n, k, ratio, theta), each under its cause; every other run passes
THETAS = (1.0, 1e-3, 1e3)
ORIGIN_ZX = (
    "Z/X read off the profile's origin fit misses n/f(0) by 6.7e-3 against 1e-5; "
    "which side is wrong is not diagnosed"
)
LOG_Z_BUDGET = (
    "the three-point budget 0.5 h+ h- |g''| of (ln Z)_s omits the formula's next "
    "order: at s = 26.1 on the slow-manifold arc g'' nearly vanishes, and the "
    "defect, 1.3e-6 at every theta, reads 1.07 of the budget at theta 1e3 only"
)
VERIFY_FAILS = {}
for _theta in THETAS:
    for (_n, _k, _r), _cause in KNOWN.items():
        _check = "classification_in_regime_table" if _cause == SLOW_PASSAGE else "tail_rate_agreement"
        VERIFY_FAILS[_n, _k, _r, _theta] = {_check: _cause}
    VERIFY_FAILS[33, 16, -1.99, _theta] = {"origin_zx_ratio": ORIGIN_ZX}
VERIFY_FAILS[64, 8, -0.3, 1e3] = {"monitor_log_z_identity": LOG_Z_BUDGET}


@pytest.mark.slow
@pytest.mark.parametrize("theta", THETAS)
def test_verify_fails_only_where_pinned(theta, tmp_path):
    # exit 1 with exactly the pinned checks failing, else exit 0; a
    # RuntimeWarning (an error in this suite) would exit 3
    out = tmp_path / "v.json"
    got, want = {}, {}
    for n, k in PAIRS:
        for ratio in RATIOS:
            code = cli.main(["verify", "--n", str(n), "--k", str(k), f"--rho={ratio * theta!r}",
                             "--theta", repr(theta), "--out", str(out)])
            checks = json.loads(out.read_text())["checks"]
            failed = sorted(name for name, check in checks.items() if not check["pass"])
            assert code == (1 if failed else 0), (n, k, ratio, code)
            if failed:
                got[n, k, ratio] = failed
            if (n, k, ratio, theta) in VERIFY_FAILS:
                want[n, k, ratio] = sorted(VERIFY_FAILS[n, k, ratio, theta])
    assert got == want


def test_pins_name_corpus_cases():
    # 0 wrong labels, 8 Undetermined and 0 errors at the last count; the
    # two weak foci read TypeA, in the table, off their axis stop
    assert len(KNOWN) == 10
    assert set(KNOWN) <= {(n, k, r) for n, k in PAIRS for r in RATIOS}
    assert set(UNCERTIFIED_NODES) <= {(n, k, r) for n, k in PAIRS for r in RATIOS}
