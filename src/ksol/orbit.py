"""Global continuation of local orbits, event detection, orbit-type
classification, the barrier comparison for rho > 2 theta, and the runtime
invariant monitors.

Orbit taxonomy: type gamma reaches the asymptote X = gamma^k with Z
unbounded, which a run at rho <= 0 and n >= 2k certifies by a trap at the
Picard hand-off, the only route to the class; type B converges to the
interior attractor, which a run certifies by two contracting returns to the
section X = X_B (a focus) or by a funnel into a node B that closes at the
Picard hand-off; generalized type B stays in a bounded band around it up to
s_max with no certificate, the only class read off a tail; type A (or
generalized type A when n = 2k) collapses onto the Z = 0 axis at X = X_inf;
non-admissible orbits leave the region at a finite s_exit.

A run into the asymptote trap with n > 2k, an expander (rho < 0) or a
steady soliton (rho = 0), is handed over to the slow-manifold series of
``manifold``, whose arc ends the trace at the asymptote event or at s_max.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import _kernels, manifold, phase, picard
from .errors import DomainError, KsolError, NotApplicableError

TYPE_GAMMA = "TypeGamma"
TYPE_B = "TypeB"
GENERALIZED_B = "GeneralizedB"
TYPE_A = "TypeA"
GENERALIZED_A = "GeneralizedA"
NON_ADMISSIBLE = "NonAdmissible"
UNDETERMINED = "Undetermined"

_EVENT_NAMES = {
    _kernels.EV_CROSS_XB: "crossed_X_B",
    _kernels.EV_ASYMPTOTE: "reached_asymptote",
    _kernels.EV_EXITED: "exited_region",
    _kernels.EV_CONVERGED: "converged_critical",
    _kernels.EV_CERTIFIED: "certified_B",
    _kernels.EV_STEP_FLOOR: "step_floor",
}

_STATUS_NAMES = {
    _kernels.ST_SMAX: "s_max",
    _kernels.ST_ASYMPTOTE: "reached_asymptote",
    _kernels.ST_EXITED: "exited_region",
    _kernels.ST_CONV_AXIS: "converged_axis",
    _kernels.ST_CERT_B: "certified_B",
    _kernels.ST_STEP_FLOOR: "step_floor",
    _kernels.ST_XB_STOP: "stopped_at_X_B",
    _kernels.ST_OVERFLOW: "sample_overflow",
}


BOUNDED_RATIO = 100.0  # max/min of Z over the tail window of a bounded band

# the funnel certificate: the fences are sampled at FUNNEL_POINTS points of
# the chord on [0, 1 - FUNNEL_DELTA], and their slopes along it at
# FUNNEL_END_POINTS points of [1 - FUNNEL_DELTA, 1], where the values fall
# toward rounding; each sample must exceed FUNNEL_SAFETY times its rounding
# estimate
FUNNEL_POINTS = 4000
FUNNEL_END_POINTS = 64
FUNNEL_DELTA = 1e-3
FUNNEL_SAFETY = 4.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class OrbitControls:
    """Integrator settings; the fixed ones are constants in ``_kernels``."""

    # both components stay strictly positive along admissible orbits, so the
    # error control is relative: X relative to X and W = ln(c_nk beta^k Z)
    # absolutely, which is Z relative to Z at first order; an absolute floor
    # on Z would wreck its relative accuracy on its way down to the axis
    rtol: float = 1e-10
    s_max: float = 200.0
    step_floor: float = 1e-13
    # terminal proximity to the asymptote, relative in x = X^(1/k), bisected
    # on the step's dense output or found on the slow-manifold series
    # (<= 0: no event and no hand-over to the series)
    asym_tol: float = 1e-5
    # the switch of every end at B, the funnel and the Poincare return
    end_at_b: bool = True
    max_samples: int = 400_000


@dataclass(frozen=True)
class OrbitTrace:
    """Adaptive samples of one orbit plus the located events.

    Samples are strictly increasing in s: the local series' head below s0, then the
    ends of the integrator's steps and, between them, interior points of
    each step's dense output (DOP853's continuous extension, Radau's
    collocation quintic), enough that the cubic Hermite between consecutive
    samples keeps ``_kernels.SAMPLE_TOL`` in (X, ln Z), the integrator's
    chart up to a constant in ln Z; past a hand-over to the slow-manifold
    series (``hand_over``), the series' own samples, spaced to the same
    tolerance. Each crossing of X_B is a sample too. Z is read off
    the integrated W = ln(c_nk beta^k Z) as e^W/(c_nk beta^k). In the WV
    chart the rows hold (sigma, W-, V-) for the reversed A-chart flow
    (sigma = -s).
    """

    s: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    events: list
    status: str
    chart: str = "XZ"
    tail_end_index: int = 0
    # integrator counters (the local series' head samples are not steps)
    events_dropped: int = 0  # fired beyond the kernel's event buffer
    accepted_steps: int = 0
    rejected_steps: int = 0
    # field evaluations: the start's, 12 per DOP853 attempt and 3 per
    # continuous extension, 5 per Newton iteration of a Radau attempt, 1 at
    # the end of each accepted Radau step the run goes on from, 1 at a
    # terminal event on a Radau step and 1 per refined error estimate
    rhs_evals: int = 0
    # Radau's Newton iterations, over all its attempts, and the attempts on
    # which Newton did not converge
    newton_iterations: int = 0
    newton_failures: int = 0
    h_min: float = math.nan  # shortest accepted step
    h_max: float = math.nan  # longest accepted step
    stiff_from_s: float = math.nan  # where Radau took over; NaN if it never did
    rtol: float = 0.0  # the integrator's rtol (0 where no run made the trace)
    # a certified_B end, the one end at B: (s1, Z1, s2, Z2, bound), the two
    # upward returns to X = X_B that certified convergence to B and the
    # error bound on their Z, or, for a run ended at the Picard hand-off,
    # its FunnelCertificate (the hand-off point, its error bound, the
    # margin); on a run into the asymptote, its TrapCertificate
    certificate: tuple | None = None
    # where the run handed over to the slow-manifold series, the
    # ``manifold.HandOver``: the samples past its s are the series' arc;
    # None where the integrator ran to the end
    hand_over: manifold.HandOver | None = None

    @property
    def end_state(self):
        return float(self.X[-1]), float(self.Z[-1])

    def event_s(self, kind):
        return [s for s, name in self.events if name == kind]


class TrapCertificate(NamedTuple):
    """The asymptote trap that the hand-off point (X, Z) lies in.

    ``err`` is the local series' relative error bound on X and Z at s0.
    With the box's lower left corner (X (1 - err), Z (1 - err)), F > 0 there
    and X (1 + err) < gamma^k;
    ``margin`` is the least ratio of the two values to FUNNEL_SAFETY times
    their rounding estimates, above 1 on every certificate.
    """

    X: float
    Z: float
    err: float
    margin: float


class FunnelCertificate(NamedTuple):
    """The funnel into B that the hand-off point (X, Z) lies in.

    ``err`` is the local series' relative error bound on X and Z at s0, so
    the orbit starts in the box (X (1 +- err), Z (1 +- err)). The chord from
    the box's upper left corner to B
    is an upper fence and the nullcline F = 0 a lower one; ``margin`` is the
    least ratio of a fence value (or of its slope near B) to FUNNEL_SAFETY
    times its rounding estimate, above 1 on every certificate.
    """

    X: float
    Z: float
    err: float
    margin: float


@dataclass(frozen=True)
class OrbitClass:
    kind: str
    X_inf: float | None = None
    s_exit: float | None = None
    diagnostics: dict = field(default_factory=dict)


def _integrate_raw(x0, w0, s0, p, controls, series=None):
    """One run of the kernel in the chart of ``p`` from (X, W) = (x0, w0) at
    s0, with W = ln(c_nk beta^k Z) (-inf on the axis Z = 0); an A-chart run
    ends at its first crossing of X_B (``p.stops_at_xb``). Given
    the ``manifold.SlowManifold`` ``series``, the kernel hands the run over
    to it, and the series' arc (``SlowManifold.arc``) ends the trace at the
    asymptote event or at s_max."""
    # for n < 2k the region boundary X = x_cap is crossed in finite s (X_s > 0
    # there): the run must end at the exit, not at an asymptote tolerance
    asym_tol = controls.asym_tol if p.n >= 2 * p.k else -1.0
    args = (
        _kernels.pack_params(p),
        controls.rtol,
        controls.step_floor,
        asym_tol,
        controls.end_at_b,
        p.stops_at_xb,
    )
    # callers may hand over numpy scalars, and Python floats keep the
    # uncompiled kernel's arithmetic off numpy's scalar path
    start = (float(x0), float(w0), float(s0))
    packed = _kernels.NO_SERIES if series is None else series.packed()
    out = _kernels.integrate_core(*start, controls.s_max, *args, controls.max_samples, packed)
    s_arr, x_arr, z_arr, ev_s, ev_code, n_ev, status, cert, hand = out[:9]
    n_acc, n_rej, n_rhs, n_newton, n_newton_fail, h_min, h_max, stiff_s = out[9:]
    events = [(float(se), _EVENT_NAMES[int(ce)]) for se, ce in zip(ev_s, ev_code)]
    dropped = int(n_ev) - len(events)
    hand_over = None
    if status == _kernels.ST_SERIES:
        hand_over = series.hand_over(*hand, controls.rtol)
        s_a, x_a, z_a, at_event = series.arc(hand_over, controls.s_max, controls.asym_tol)
        s_arr = np.concatenate((s_arr, s_a))
        x_arr = np.concatenate((x_arr, x_a))
        z_arr = np.concatenate((z_arr, z_a))
        status = _kernels.ST_ASYMPTOTE if at_event else _kernels.ST_SMAX
        if at_event:
            if not s_a.size:
                # the event at the hand-over itself, clipped as the kernel clips it
                x_arr[-1] = (p.gamma - controls.asym_tol * p.gamma) ** p.k
            events.append((float(s_arr[-1]), _EVENT_NAMES[_kernels.EV_ASYMPTOTE]))
    status = _STATUS_NAMES[int(status)]
    fields = {
        "events_dropped": dropped,
        "accepted_steps": int(n_acc),
        "rejected_steps": int(n_rej),
        "rhs_evals": int(n_rhs),
        "newton_iterations": int(n_newton),
        "newton_failures": int(n_newton_fail),
        "h_min": float(h_min),
        "h_max": float(h_max),
        "stiff_from_s": float(stiff_s),
        "rtol": controls.rtol,
        "certificate": tuple(map(float, cert)) if status == "certified_B" else None,
        "hand_over": hand_over,
    }
    return s_arr, x_arr, z_arr, events, status, fields


def integrate(start, p, controls=None):
    """Continue a local solution into a global orbit trace.

    ``start`` is a LocalSolution; XZ charts continue the origin orbit
    forward in s, WV charts continue the A-orbit backwards (forward in
    sigma = -s), which is the orientation the barrier comparison needs, and
    end at X_B, where that comparison ends (status "stopped_at_X_B").

    Where the hand-off lies in the asymptote trap (:func:`asymptote_trap`),
    the trace carries its certificate. There, at n > 2k (rho <= 0) and with
    the asymptote event on, the kernel hands the run over to the
    slow-manifold series (``manifold.slow_manifold``) where the state meets
    it within rtol, and the series' arc takes the trace to the asymptote
    event or to s_max; ``hand_over`` says where. On a steady arc (rho = 0)
    gamma - x falls only like x_B/(2s), which meets the event near
    s = 1/(2 asym_tol), far past the default s_max, where the arc ends. At
    n = 2k there is no series, and the kernel takes the run to its end.
    """
    controls = controls or OrbitControls()
    trap = asymptote_trap(start, p) if start.chart == "XZ" else None
    series = None
    if trap is not None and p.n > 2 * p.k and controls.asym_tol > 0.0:
        series = manifold.slow_manifold(p, controls.rtol)
    x0, w0 = start.state_at_s0(p)
    s_arr, x_arr, z_arr, events, status, fields = _integrate_raw(
        x0, w0, start.s0, p.in_chart(start.chart), controls, series
    )
    if trap is not None:
        fields["certificate"] = trap
    s_arr, x_arr, z_arr, tail_end = _with_tail(start, s_arr, x_arr, z_arr)
    return OrbitTrace(s_arr, x_arr, z_arr, events, status, start.chart, tail_end, **fields)


def _with_tail(start, s_arr, x_arr, z_arr):
    """Samples from s0 on, preceded by the local solution's head below s0;
    also returns the number of head samples."""
    hs, hx, hz = start.head()
    s_arr = np.concatenate([hs, s_arr])
    x_arr = np.concatenate([hx, x_arr])
    z_arr = np.concatenate([hz, z_arr])
    return s_arr, x_arr, z_arr, hs.size


def _tail_window(trace, frac=0.25):
    s = trace.s
    cut = s[-1] - frac * (s[-1] - s[0])
    i0 = int(np.searchsorted(s, cut))
    return slice(max(trace.tail_end_index, min(i0, s.size - 8)), s.size)


def _axis_class(x_end, p, diag):
    """Orbit type for a collapse onto the Z = 0 axis beyond X_B.

    Away from n = 2k the corner point A is the only axis limit compatible
    with a sustained Z-collapse (for n < 2k the axis flow drives X to X_A;
    for n > 2k only the stable manifold of A admits Z -> 0 with X > X_B),
    so the reported limit is X_A and the truncated end value is kept as a
    diagnostic. On the critical dimension the whole axis segment is
    critical and the measured stall point is the limit.
    """
    diag["x_at_z_floor"] = x_end
    if p.n != 2 * p.k:
        return OrbitClass(TYPE_A, X_inf=p.X_A, diagnostics=diag)
    if abs(x_end - p.X_A) <= 1e-6 * p.X_A:
        return OrbitClass(TYPE_A, X_inf=x_end, diagnostics=diag)
    return OrbitClass(GENERALIZED_A, X_inf=x_end, diagnostics=diag)


def classify_orbit(trace, p):
    """Orbit type per the regime taxonomy; never guesses silently.

    Every decided class rests on a certificate, a located event or, where B
    attracts the run, its bounded band:

    - a run whose hand-off lies in the asymptote trap is TypeGamma at any
      end but a budget's; its diagnostics name the criterion
      ("asymptote_trap"), the hand-off point and the
      :class:`TrapCertificate`'s margin;
    - a certified_B end is TypeB. Where ``_kernels.certifies_b`` accepted
      two returns to X = X_B, its diagnostics name the criterion
      ("poincare_return"), the returns ((s1, Z1), (s2, Z2)), the contraction
      (Z2 - Z_B)/(Z1 - Z_B) per loop and the margin (Z1 - Z2)/bound of the
      gap over the error bound. Where the run ended at the Picard hand-off
      on a :class:`FunnelCertificate`, they name the criterion ("funnel"),
      the hand-off point and the certificate's margin;
    - an exited_region end is NonAdmissible, a converged_axis end TypeA or
      GeneralizedA (:func:`_axis_class`);
    - a run into an attracting B that no certificate ends reaches s_max,
      where its bounded band reads GeneralizedB.

    Anything else is Undetermined, and ``diagnostics["reason"]`` says why: a
    trace cut short by the sample buffer or the step floor names its
    status; at rho > 0, an end at the asymptote, or an end at s_max on
    n = 2k, is the slow passage along x ~ gamma ~ x_B cut short; an end at
    the asymptote that no trap decided says so; any other end has no end
    signature.
    """
    status = trace.status
    diag = {"status": status, "s_end": float(trace.s[-1])}
    if status == "exited_region":
        return OrbitClass(NON_ADMISSIBLE, s_exit=float(trace.s[-1]), diagnostics=diag)
    if status in ("sample_overflow", "step_floor"):
        # a budget cut the trace short: its tail says nothing of the orbit's end
        diag["reason"] = f"trace cut short ({status})"
        return OrbitClass(UNDETERMINED, diagnostics=diag)
    if isinstance(trace.certificate, TrapCertificate):
        cert = trace.certificate
        diag.update(criterion="asymptote_trap", hand_off=(cert.X, cert.Z), margin=cert.margin)
        return OrbitClass(TYPE_GAMMA, diagnostics=diag)
    if status == "certified_B" and isinstance(trace.certificate, FunnelCertificate):
        cert = trace.certificate
        diag.update(
            B=(p.X_B, p.Z_B), criterion="funnel", hand_off=(cert.X, cert.Z), margin=cert.margin
        )
        return OrbitClass(TYPE_B, diagnostics=diag)
    if status == "certified_B":
        s1, z1, s2, z2, bound = trace.certificate
        diag.update(
            B=(p.X_B, p.Z_B),
            criterion="poincare_return",
            returns=((s1, z1), (s2, z2)),
            contraction=(z2 - p.Z_B) / (z1 - p.Z_B),
            margin=(z1 - z2) / bound,
        )
        return OrbitClass(TYPE_B, diagnostics=diag)
    if status == "converged_axis":
        return _axis_class(trace.end_state[0], p, diag)
    if status == "s_max" and p.b_attracts:
        zw = trace.Z[_tail_window(trace)]
        z_min, z_max = float(np.min(zw)), float(np.max(zw))
        diag["z_tail"] = (z_min, z_max)
        if z_min > 0.0 and z_max / z_min < BOUNDED_RATIO:
            return OrbitClass(GENERALIZED_B, diagnostics=diag)
    if p.rho > 0.0 and (status == "reached_asymptote" or p.n == 2 * p.k):
        # gamma > x_B at rho > 0, where Z_s/Z = 2k (1 - x/x_B) < 0: Z cannot
        # grow up the asymptote, and at n = 2k, where F = Z f(x) > 0, X
        # crosses X_B only after the passage
        why = "slow passage along x ~ gamma ~ x_B, of order theta/rho in s, not ended"
    elif status == "reached_asymptote":
        why = "the hand-off lies in no asymptote trap"
    else:
        why = "no certificate, no collapse onto the axis, no bounded band"
    diag["reason"] = f"{why}: no end signature at {status}"
    return OrbitClass(UNDETERMINED, diagnostics=diag)


def expected_kinds(p):
    """The classification the regime table predicts for these parameters."""
    n, k, rho, theta = p.n, p.k, p.rho, p.theta
    if n > 2 * k:
        if rho <= 0.0:
            return {TYPE_GAMMA}
        if rho <= 2.0 * theta:
            return {TYPE_B, GENERALIZED_B}
        return {TYPE_A, TYPE_B, GENERALIZED_B}
    if n == 2 * k:
        if rho <= 0.0:
            return {TYPE_GAMMA}
        return {GENERALIZED_A, TYPE_A}
    if rho < 2.0 * theta:
        return {NON_ADMISSIBLE}
    return {TYPE_A}


def run_orbits(p, alphas, controls=None, tol=picard.DEFAULT_TOL):
    """Local solution, continuation and classification for each alpha.

    The system is autonomous and the orbit leaving the origin is unique, so
    alpha only shifts it in s: X(s; alpha) = X(s + c; 1) with
    c = ln(alpha_k)/(2k) (``picard.gauge``). One local series serves every
    alpha (:func:`_local_solutions`): the anchor, the largest alpha in its
    range, is solved, and every other alpha's series is the anchor's under
    ``picard.gauge_map``. All of them hand off the same state, each at its
    own s0, so one continuation from the anchor's hand-off serves them all;
    it runs until every alpha reaches its own s_max. Where the hand-off lies
    in a funnel into B (:func:`funnel_end`), nothing is continued: every
    alpha's trace is its head and the hand-off, ended certified_B. Returns
    one (sol, trace, oc) per alpha, in order; an alpha out of its range gets
    its DomainError in place of the tuple, and where the solve fails, every
    alpha in range gets its KsolError.
    """
    controls = controls or OrbitControls()
    gauges, sols = _local_solutions(p, alphas, tol)
    ok = [sol for sol in sols if not isinstance(sol, KsolError)]
    if not ok:
        return sols
    anchor = max(ok, key=lambda sol: sol.alpha)
    cert = funnel_end(anchor, p, controls)
    # the anchor's c is the largest, so its row runs longest: to s_max
    shared = integrate(anchor, p, controls) if cert is None else None
    for i, sol in enumerate(sols):
        if isinstance(sol, KsolError):
            continue
        if cert is not None:
            trace = _hand_off_trace(sol, p, cert)
        else:
            # the shift c_anchor - c is the negated d of the gauge map, so the
            # hand-off lands on sol's s0 exactly, and the anchor's shift is 0
            shift = gauges[anchor.alpha] - gauges[sol.alpha]
            trace = _shifted_trace(shared, sol, shift, controls.s_max, p)
        sols[i] = (sol, trace, classify_orbit(trace, p))
    return sols


def _local_solutions(p, alphas, tol):
    """The gauge c of each alpha in range (``picard.gauge`` raises outside
    it), keyed by alpha, and one LocalSolution or KsolError per alpha, in
    order. The anchor, the largest alpha in range (the largest alpha_k),
    is solved once; the solve reads no alpha, so its error is every alpha's."""
    gauges, by_alpha = {}, {}
    for alpha in set(alphas):
        try:
            gauges[alpha] = picard.gauge(alpha, p)
        except KsolError as exc:
            by_alpha[alpha] = exc
    try:
        anchor = picard.picard_solve(max(gauges), p, tol) if gauges else None
    except KsolError as exc:
        by_alpha.update(dict.fromkeys(gauges, exc))
    else:
        by_alpha.update({alpha: picard.gauge_map(anchor, alpha, p) for alpha in gauges})
    return gauges, [by_alpha[alpha] for alpha in alphas]


def funnel_end(sol, p, controls):
    """The :class:`FunnelCertificate` that ends sol's run at its hand-off,
    or None, where the run is continued.

    It is checked where B attracts the run and ``controls.end_at_b`` is set,
    and B is a node: the field's Jacobian there has real
    eigenvalues, which spares a focus the chord. The error bound is the
    local series' validated one, ``sol.err``: its truncation and rounding at
    s0. The alphas of one parameter set hand off the same state with the
    same error bound (``picard.gauge_map``), so one check serves them all.
    """
    if not (p.b_attracts and controls.end_at_b):
        return None
    X, Z, err = _hand_off(sol, p)
    if not Z < p.Z_B:
        return None
    lam = phase.eig2x2(phase.jacobian((p.X_B, p.Z_B), p))
    if lam[0].imag != 0.0:
        return None
    return funnel_certificate(X, Z, err, p)


def _hand_off(sol, p):
    """The integrator's first sample (X, Z) at sol's s0 and the local
    series' validated bound on its distance from the orbit, relative to X
    and to Z: the truncation's tail, proved on coefficient space, and the
    rounding (``picard`` module docstring)."""
    X, W = sol.state_at_s0(p)
    return float(X), math.exp(W) / p.cb, sol.err


def asymptote_trap(sol, p):
    """The :class:`TrapCertificate` of sol's hand-off, or None, checked
    where rho <= 0 and n >= 2k; the error bound is :func:`funnel_end`'s."""
    if not (p.rho <= 0.0 and p.n >= 2 * p.k):
        return None
    return trap_certificate(*_hand_off(sol, p), p)


def trap_certificate(X, Z, err, p):
    """The :class:`TrapCertificate` of an orbit through the box
    (X (1 +- err), Z (1 +- err)), at rho <= 0 and n >= 2k, or None where the
    check refuses it.

    Take the box's lower left corner (X1, Z1) = (X (1 - err), Z (1 - err)).
    If F(X1, Z1) > 0 and X (1 + err) < gamma^k, the rectangle X1 <= X < gamma^k,
    Z >= Z1 holds the box and is forward-invariant (fences: Hubbard & West,
    *Differential Equations: A Dynamical Systems Approach*, Part I). On
    X = X1, F grows with Z, since f(x1) > 0. On Z = Z1, G = 2k Z (1 - x/x_B)
    > 0, since x < gamma <= x_B at rho <= 0. On X = gamma^k, f vanishes and
    F = -(n-2k)(1 - gamma/x_A) X < 0; at n = 2k, F = 0 there, and the side
    is an invariant line. Inside, G > 0 and there is no critical point, so
    x tends to gamma and Z grows without bound: TypeGamma. At n = 2k and
    rho = 0 the line is critical, and Z still grows without bound: were it
    bounded, eps = gamma - x would decay no faster than s^(-1/(k-1)) (eps_s
    ~ -c Z eps^k, and k >= 2 since n >= 3), whose integral, that of
    (ln Z)_s = 2k eps/gamma, diverges. Both
    values must exceed FUNNEL_SAFETY times their rounding estimates, those
    of ``funnel_certificate``; ``tests/test_oracle.py`` re-proves each
    certificate with interval arithmetic.
    """
    X1, Z1 = X * (1.0 - err), Z * (1.0 - err)
    x1 = phase.kth_root(X1, p.k)
    gap = p.gamma_k - X * (1.0 + err)
    if not (p.rho <= 0.0 and p.n >= 2 * p.k and X1 > 0.0 and Z1 > 0.0 and x1 < p.gamma):
        return None
    F, _G = phase.vector_field(X1, Z1, p)
    round_F = phase.field_rounding(X1, Z1, p)[0]
    # gamma^k is a k-fold product, then the sum
    round_gap = (p.k + 2.0) * _EPS * p.gamma_k
    margin = min(F / round_F, gap / round_gap) / FUNNEL_SAFETY
    if not margin > 1.0:
        return None
    return TrapCertificate(X, Z, err, float(margin))


def funnel_certificate(X, Z, err, p):
    """The :class:`FunnelCertificate` of an orbit through the box
    (X (1 +- err), Z (1 +- err)) below B, or None where the check refuses it.

    Fences and funnels (Hubbard & West, *Differential Equations: A Dynamical
    Systems Approach*, Part I, ch. 1). Where F > 0 the orbit is a graph
    Z(X) with dZ/dX = G/F. On the nullcline F = 0 the flow points straight
    up, into F > 0, since dF/dZ = f > 0: a lower fence. On the chord from
    L = (X (1 - err), Z (1 + err)) to B, of slope sigma > 0, it points below the
    chord where F > 0 and sigma F - G > 0: an upper fence. If F > 0 on the
    box and both values are positive on the chord short of B, the region
    between the fences right of L holds the orbit, X increases in it, and
    it closes at B, its only critical point: the orbit converges to B.

    The chord C(t) = L + t (B - L) is sampled on [0, 1 - FUNNEL_DELTA] in
    one call to ``phase.vector_field``. Both values vanish at B, so on
    [1 - FUNNEL_DELTA, 1] the mean-value form F(C(t)) = -int_t^1 dF/dt'
    reads them off their slopes along the chord, which ``phase.jacobian``
    gives and which must be negative. Every sample must exceed
    FUNNEL_SAFETY times its rounding estimate. This is a sampled check;
    ``tests/test_oracle.py`` re-proves what it certifies with interval
    arithmetic.
    """
    xl, zl = X * (1.0 - err), Z * (1.0 + err)
    if not (0.0 < xl and X * (1.0 + err) < p.X_B and zl < p.Z_B):
        return None
    k, n2k, m = p.k, p.n - 2.0 * p.k, p.m
    dx, dz = p.X_B - xl, p.Z_B - zl
    sigma = dz / dx
    # the chord short of B, then the four corners of the box
    t = np.linspace(0.0, 1.0 - FUNNEL_DELTA, FUNNEL_POINTS)
    Xs = np.concatenate([xl + t * dx, X * (1.0 + err * np.array([1.0, 1.0, -1.0, -1.0]))])
    Zs = np.concatenate([zl + t * dz, Z * (1.0 + err * np.array([1.0, -1.0, 1.0, -1.0]))])
    F, G = phase.vector_field(Xs, Zs, p)
    H = sigma * F[:-4] - G[:-4]
    round_F, round_G = phase.field_rounding(Xs, Zs, p)
    round_H = sigma * round_F[:-4] + round_G[:-4] + _EPS * (sigma * np.abs(F[:-4]) + np.abs(H))
    # the slopes along the chord near B
    t = np.linspace(1.0 - FUNNEL_DELTA, 1.0, FUNNEL_END_POINTS)
    Xe, Ze = xl + t * dx, zl + t * dz
    J = phase.jacobian((Xe, Ze), p)
    x = phase.kth_root(Xe, k)
    dF = J[0, 0] * dx + J[0, 1] * dz
    dH = sigma * dF - (J[1, 0] * dx + J[1, 1] * dz)
    # dF/dX = (2k - n) + m (k+1) x + Z f'(x) x/(kX): its three terms
    f_x = np.abs(n2k) + m * (k + 1) * x + np.abs(J[0, 0] + n2k - m * (k + 1) * x)
    round_dF = phase.profile_condition(x, p) * (f_x * dx + J[0, 1] * dz)
    round_dG = 8.0 * (np.abs(J[1, 0]) * dx + (2.0 * k + (1.0 - m) * k * x) * dz)
    round_dH = sigma * round_dF + round_dG + sigma * np.abs(dF) + np.abs(dH)
    margin = float(
        min(
            np.min(F / round_F),
            np.min(H / round_H),
            np.min(-dF / (_EPS * round_dF)),
            np.min(-dH / (_EPS * round_dH)),
        )
    ) / FUNNEL_SAFETY
    if not margin > 1.0:
        return None
    return FunnelCertificate(X, Z, err, margin)


def _hand_off_trace(sol, p, cert):
    """The trace of a run ended at its hand-off by the funnel certificate
    ``cert``: sol's head below s0, then the hand-off state, the
    integrator's first sample."""
    s0 = sol.s0
    X, Z = np.array([cert.X]), np.array([cert.Z])
    s, X, Z, tail_end = _with_tail(sol, np.array([s0]), X, Z)
    return OrbitTrace(
        s, X, Z, [(s0, "certified_B")], "certified_B", "XZ", tail_end, certificate=cert
    )


def _shifted_trace(shared, sol, shift, s_max, p):
    """The trace of sol's alpha read off a shared continuation.

    It is sol's own head below s0, then the shared samples from the
    hand-off on, shifted by ``shift`` in s, which puts the hand-off at sol's
    s0. A row shifted to later s (shift > 0) that the run took past s_max is
    cut there, with status s_max, and loses a Poincare-return certificate
    and a hand-over at or past s_max. The cut drops the later samples and
    events, and a cubic Hermite point closes the trace. The solver counters
    are the shared run's, with stiff_from_s and the certificate's returns
    shifted into the row's frame.
    """
    i0 = shared.tail_end_index
    s = shared.s[i0:] + shift
    X, Z = shared.X[i0:], shared.Z[i0:]
    events = [(se + shift, name) for se, name in shared.events]
    status = shared.status
    certificate = shared.certificate
    if status == "certified_B":
        s1, z1, s2, z2, bound = certificate
        certificate = (s1 + shift, z1, s2 + shift, z2, bound)
    hand_over = shared.hand_over
    if hand_over is not None:
        hand_over = hand_over._replace(s=hand_over.s + shift)
    if shift > 0.0 and s[-1] > s_max:
        s, X, Z = _cut_at(s, X, Z, s_max, p)
        events = [(se, name) for se, name in events if se <= s_max]
        if status == "certified_B":
            certificate = None
        if hand_over is not None and not hand_over.s < s_max:
            hand_over = None
        status = "s_max"
    s, X, Z, tail_end = _with_tail(sol, s, X, Z)
    return replace(
        shared,
        s=s,
        X=X,
        Z=Z,
        events=events,
        status=status,
        tail_end_index=tail_end,
        stiff_from_s=shared.stiff_from_s + shift,
        certificate=certificate,
        hand_over=hand_over,
    )


def _cut_at(s, X, Z, s_cut, p):
    """The samples up to s_cut (within the trace), closed by the point at
    s_cut that :func:`hermite` reads in (X, ln Z) over s, unless a sample
    sits there. (X, ln Z) is the integrator's chart up to a constant in
    ln Z, where the samples keep ``_kernels.SAMPLE_TOL``."""
    i = int(np.searchsorted(s, s_cut, side="right")) - 1  # s[i] <= s_cut < s[i + 1]
    if s[i] == s_cut:
        return s[: i + 1], X[: i + 1], Z[: i + 1]
    piece = slice(i, i + 2)
    F, G = phase.vector_field(X[piece], Z[piece], p)
    at = np.array([s_cut])
    X = np.append(X[: i + 1], hermite(s[piece], X[piece], F, at))
    ln_z = hermite(s[piece], np.log(Z[piece]), G / Z[piece], at)
    Z = np.append(Z[: i + 1], math.exp(ln_z[0]))
    return np.append(s[: i + 1], s_cut), X, Z


def hermite(knots, values, slopes, at):
    """The cubic Hermite through ``values`` at the strictly increasing
    ``knots`` with the given ``slopes``, read at the points ``at`` (arrays).
    A point is read on the piece whose left knot is the last at or below
    it, clipped to the first and the last piece. The operation order is
    ``_kernels._dense``'s on the coefficients d, h f0 - d and
    2d - h (f0 + f1) of ``_kernels._hermite_coeffs``, with d = 0 between
    equal values (also -inf ones, on the invariant axis in ln Z), so it
    reads what the kernel reads, bit for bit."""
    i = np.clip(np.searchsorted(knots, at, side="right") - 1, 0, knots.size - 2)
    y0, y1 = values[i], values[i + 1]
    h = knots[i + 1] - knots[i]
    t = (at - knots[i]) / h
    d = np.subtract(y1, y0, out=np.zeros_like(h), where=y1 != y0)
    c1 = h * slopes[i] - d
    c2 = 2.0 * d - h * (slopes[i] + slopes[i + 1])
    return y0 + t * (d + (1.0 - t) * (c1 + t * c2))


def run_orbit(p, alpha=1.0, controls=None, tol=picard.DEFAULT_TOL):
    """Local solution, continuation and classification for one alpha."""
    run = run_orbits(p, [alpha], controls, tol)[0]
    if isinstance(run, KsolError):
        raise run
    return run


# ---------------------------------------------------------------------------
# invariant monitors


def monotonicity_monitor(trace, p, tol=1e-9):
    """Samples violating 'X increasing while X <= X_B' on the initial climb.

    Applies up to the first crossing of X_B only; after re-entry from the
    right the orbit legitimately has decreasing arcs below X_B (that is how
    it spirals into B).
    """
    crossings = trace.event_s("crossed_X_B")
    s_stop = crossings[0] if crossings else math.inf
    climb = (trace.s <= s_stop) & (trace.X <= p.X_B)
    s, X = trace.s[climb], trace.X[climb]
    F, _G = phase.vector_field(X, trace.Z[climb], p)
    bad = np.nonzero(F < -tol * np.maximum(1.0, np.abs(X)))[0]
    return [(float(s[i]), float(X[i]), float(F[i])) for i in bad]


def z_lower_bound_check(trace, p, slack=1e-6):
    """Violations of Z(s) >= Z(s0) e^(-k rho/theta (s - s0)) (1 - slack)."""
    s0 = trace.s[0]
    z0 = trace.Z[0]
    rate = -p.k * p.rho / p.theta
    bound = z0 * np.exp(rate * (trace.s - s0)) * (1.0 - slack)
    bad = np.nonzero(trace.Z < bound)[0]
    return [(float(trace.s[i]), float(trace.Z[i]), float(bound[i])) for i in bad]


def log_z_identity_check(trace, p, base_tol=1e-7):
    """Defect of the exact relation (ln Z)_s = g = 2k (1 - x/x_B) on the samples.

    Uses nonuniform central differences of ln Z, whose truncation error is
    (h+ h- / 6) g''. The tolerance budgets it from g'' in closed form: g
    depends on X alone, so g'' = g_XX F^2 + g_X (J (F, G))_X with J the
    field's Jacobian. A clean trace then reports no violations whatever
    its spacing, while a perturbed one does.
    """
    s, Z = trace.s, trace.Z
    good = Z > 0.0
    s, Z, X = s[good], Z[good], trace.X[good]
    if s.size < 5:
        return []
    F, G = phase.vector_field(X, Z, p)
    g = G / Z
    ln_z = np.log(Z)
    hp = s[2:] - s[1:-1]
    hm = s[1:-1] - s[:-2]
    # nonuniform 3-point first derivative, exact for quadratics
    d = (
        ln_z[2:] * hm / (hp * (hp + hm))
        + ln_z[1:-1] * (hp - hm) / (hp * hm)
        - ln_z[:-2] * hp / (hm * (hp + hm))
    )
    Xi, Fi = X[1:-1], F[1:-1]
    J = phase.jacobian((Xi, Z[1:-1]), p)
    g_X = -(2.0 / p.x_B) * phase.kth_root(Xi, p.k) / Xi
    # g_XX F^2 with g_XX = g_X (1/k - 1) / X, formed through F/X: where X is
    # tiny, g_X / X overflows while F/X stays of order one
    g2 = g_X * (1.0 / p.k - 1.0) * (Fi / Xi) * Fi + g_X * (J[0, 0] * Fi + J[0, 1] * G[1:-1])
    tol = base_tol * (1.0 + np.abs(g[1:-1])) + 0.5 * (hp * hm) * np.abs(g2) + 1e-12
    bad = np.nonzero(np.abs(d - g[1:-1]) > 3.0 * tol)[0]
    return [(float(s[i + 1]), float(d[i] - g[i + 1])) for i in bad]


def self_intersection_check(trace, p):
    """Returns to the section X = X_B that break the order a planar orbit
    keeps on it.

    On the line X = X_B the field's F changes sign only at B, so the
    crossings where F > 0 and those where F < 0 each lie on one transversal
    half-line. A planar orbit crosses a transversal in a monotone sequence
    (Perko, *Differential Equations and Dynamical Systems*, 3.7): were it
    to cross itself, a later return would reverse the order. Z is read at
    the logged crossed_X_B samples (each crossing is a sample, at exactly
    its event s); on each half-line the direction is that of the last
    crossing from the first, and every return that moves against it by more
    than the error bound that ``_kernels.certifies_b`` trusts, CERT_SAFETY
    rtol Z per accepted step, is counted. Near B the returns are
    rounding, far below that bound.
    """
    i = np.searchsorted(trace.s, trace.event_s("crossed_X_B"))
    Z = trace.Z[i]
    F, _G = phase.vector_field(trace.X[i], Z, p)
    per_z = _kernels.CERT_SAFETY * trace.rtol * trace.accepted_steps
    count = 0
    for z in (Z[F > 0.0], Z[F < 0.0]):
        if z.size < 2:
            continue
        back = -np.diff(z) * np.sign(z[-1] - z[0])
        count += int(np.count_nonzero(back > per_z * np.maximum(z[:-1], z[1:])))
    return count


def monitor_report(trace, p):
    """All runtime monitors bundled, as name -> violation count."""
    return {
        "x_monotone_below_XB": len(monotonicity_monitor(trace, p)),
        "z_lower_bound": len(z_lower_bound_check(trace, p)),
        "log_z_identity": len(log_z_identity_check(trace, p)),
        "self_intersections": self_intersection_check(trace, p),
    }


# ---------------------------------------------------------------------------
# barrier comparison for rho > 2 theta


@dataclass(frozen=True)
class BarrierReport:
    X_grid: np.ndarray
    Z_of_X: np.ndarray
    V_of_X: np.ndarray
    min_gap: float
    ordered: bool
    slope_origin: float  # dZ/dX at 0, equals n/f(0)
    slope_A: float  # dV-/dX at 0, equals n/h(0)
    f_minus_h_min: float
    f_gt_h: bool


def _z_of_x(X, Z, p, grid):
    """Z(X) on ``grid`` off a curve's samples up to its first crossing of
    X_B, where X increases strictly: the cubic Hermite in X with the slopes
    dZ/dX = G/F of the field in p's chart. At a sample where F vanishes, a
    critical point, G/F is undefined, and the slope is the chord to the
    sample before (the origin orbit of (64,8,2.01) crosses X_B at the node
    B, to rounding)."""
    F, G = phase.vector_field(X, Z, p)
    slopes = np.divide(G, F, out=np.zeros_like(Z), where=F != 0.0)
    for i in np.flatnonzero(F == 0.0):
        j = i - 1 if i > 0 else 1
        slopes[i] = (Z[i] - Z[j]) / (X[i] - X[j])
    return hermite(X, Z, slopes, grid)


def barrier_compare(p, controls=None, n_grid=400, x_lo=0.01, tol=picard.DEFAULT_TOL, trace=None):
    """Compare the origin orbit Z(X) with the reversed A-orbit V-(X).

    Both curves are parametrized by X on [x_lo, X_B] (X is strictly
    increasing there for each); the A-orbit must dominate pointwise, and
    f > h on the same interval. The local solutions are solved at ``tol``.
    The gauge alpha only shifts an orbit in s, so neither curve depends on
    it, and both runs are at alpha 1. The origin curve is the origin orbit's
    trace, ``trace`` when the caller already has it, else :func:`run_orbit`'s,
    read up to its first crossing of X_B, a sample at X = X_B exactly, where
    the A-orbit's run ends by its chart. Each curve is
    read on the grid off the cubic Hermite in X (:func:`hermite`) with the
    slopes dZ/dX = G/F of its own chart, which the samples keep to the
    integrator's accuracy; chords between them would not.
    """
    if not p.rho > 2.0 * p.theta:
        raise NotApplicableError("barrier comparison requires rho > 2 theta")
    if p.n < 2 * p.k:
        raise NotApplicableError("barrier comparison requires n >= 2k")
    controls = controls or OrbitControls()
    if trace is None:
        trace = run_orbit(p, 1.0, controls, tol)[1]
    crossings = trace.event_s("crossed_X_B")
    tr_a = integrate(picard.picard_solve_at_A(1.0, p, tol), p, controls)
    if not crossings or tr_a.status != "stopped_at_X_B":
        origin = "crossed_X_B" if crossings else trace.status
        raise DomainError(f"barrier orbits did not reach X_B (origin: {origin}, A: {tr_a.status})")
    climb = trace.s <= crossings[0]
    grid = np.linspace(x_lo, p.X_B, n_grid)
    z_on = _z_of_x(trace.X[climb], trace.Z[climb], p, grid)
    v_on = _z_of_x(tr_a.X, tr_a.Z, p.in_chart("WV"), grid)
    gap = v_on - z_on
    # f and h coincide exactly at x_B (nu + x_B = gamma - x_B), so the
    # strict comparison runs over the open interval
    xs = np.linspace(x_lo ** (1.0 / p.k), p.x_B, n_grid, endpoint=False)
    fmh = phase.profile_value(xs, p) - phase.profile_value(xs, p.in_chart("WV"))
    return BarrierReport(
        X_grid=grid,
        Z_of_X=z_on,
        V_of_X=v_on,
        min_gap=float(np.min(gap)),
        ordered=bool(np.all(gap >= 0.0)),
        slope_origin=p.n / p.f0,
        slope_A=p.n / p.h0,
        f_minus_h_min=float(np.min(fmh)),
        f_gt_h=bool(np.all(fmh > 0.0)),
    )
