"""Global continuation of local orbits, event detection, orbit-type
classification, the barrier comparison for rho > 2 theta, and the runtime
invariant monitors.

Orbit taxonomy: type gamma reaches the asymptote X = gamma^k with Z
unbounded; type B converges to the interior attractor; generalized type B
stays in a bounded band around it; type A (or generalized type A when
n = 2k) collapses onto the Z = 0 axis at X = X_inf; non-admissible orbits
leave the region at a finite s_exit.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels, phase, picard
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
    _kernels.EV_BLOWUP: "blow_up_Z",
    _kernels.EV_STEP_FLOOR: "step_floor",
}

_STATUS_NAMES = {
    _kernels.ST_SMAX: "s_max",
    _kernels.ST_ASYMPTOTE: "reached_asymptote",
    _kernels.ST_EXITED: "exited_region",
    _kernels.ST_CONV_B: "converged_B",
    _kernels.ST_CONV_AXIS: "converged_axis",
    _kernels.ST_BLOWUP: "blow_up_Z",
    _kernels.ST_STEP_FLOOR: "step_floor",
    _kernels.ST_XB_STOP: "stopped_at_X_B",
    _kernels.ST_OVERFLOW: "sample_overflow",
}


# classification tolerances
GAMMA_NEAR_REL = 0.05  # an end point within 5 % of gamma in x counts as near
BOUNDED_RATIO = 100.0  # max/min of Z over the tail window of a bounded band


@dataclass(frozen=True)
class OrbitControls:
    """Integrator settings; the fixed ones are constants in ``_kernels``."""

    # both components stay strictly positive along admissible orbits, so the
    # error control is purely relative; an absolute floor would wreck the
    # relative accuracy of Z on its way down to the axis
    rtol: float = 1e-10
    s_max: float = 200.0
    max_step: float = 0.25
    step_floor: float = 1e-13
    # terminal proximity to the asymptote, relative in x = X^(1/k), located
    # by bisection; the transverse contraction rate grows with Z, which the
    # stiff RODAS4 step absorbs (<= 0 turns asymptote handling off)
    asym_tol: float = 1e-5
    conv_dist: float = 1e-7
    max_samples: int = 400_000


@dataclass(frozen=True)
class OrbitTrace:
    """Adaptive samples of one orbit plus the located events.

    Samples are strictly increasing in s: the Picard tail below s0, then the
    ends of the integrator's steps and, between them, interior points of
    each DOP853 step's continuous extension, enough that the cubic Hermite
    between consecutive samples keeps ``_kernels.SAMPLE_TOL`` (RODAS4 steps
    give their ends only). In the WV chart the rows hold (sigma, W-, V-)
    for the reversed A-chart flow (sigma = -s).
    """

    s: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    events: list
    status: str
    chart: str = "XZ"
    tail_end_index: int = 0
    # integrator counters (the Picard tail samples are not steps)
    events_dropped: int = 0  # fired beyond the kernel's event buffer
    accepted_steps: int = 0
    rejected_steps: int = 0
    rhs_evals: int = 0
    h_min: float = math.nan  # shortest accepted step
    stiff_from_s: float = math.nan  # where RODAS4 took over; NaN if it never did

    @property
    def end_state(self):
        return float(self.X[-1]), float(self.Z[-1])

    def event_s(self, kind):
        return [s for s, name in self.events if name == kind]


@dataclass(frozen=True)
class OrbitClass:
    kind: str
    X_inf: float | None = None
    s_exit: float | None = None
    diagnostics: dict = field(default_factory=dict)


def _integrate_raw(x0, z0, s0, p, controls, prof, stop_at_xb=False):
    pp = _kernels.pack_params(p)
    has_b = prof == _kernels.PROF_F and p.Z_B is not None and p.rho > 0.0
    b_x = p.X_B if has_b else 0.0
    b_z = p.Z_B if has_b else 0.0
    # for n < 2k the region boundary X = x_cap is crossed in finite s (X_s > 0
    # there): the run must end at the exit, not at an asymptote tolerance
    asym_tol = controls.asym_tol if p.n >= 2 * p.k else -1.0
    # the Picard tail hands over numpy scalars; Python floats keep the
    # uncompiled kernel's arithmetic off numpy's scalar path
    out = _kernels.integrate_core(
        float(x0),
        float(z0),
        float(s0),
        controls.s_max,
        pp,
        prof,
        controls.rtol,
        controls.max_step,
        controls.step_floor,
        asym_tol,
        controls.conv_dist,
        b_x,
        b_z,
        has_b,
        stop_at_xb,
        controls.max_samples,
    )
    s_arr, x_arr, z_arr, ev_s, ev_code, n_ev, status, n_acc, n_rej, n_rhs, h_min, stiff_s = out
    events = [(float(se), _EVENT_NAMES[int(ce)]) for se, ce in zip(ev_s, ev_code)]
    counters = {
        "events_dropped": int(n_ev) - len(events),
        "accepted_steps": int(n_acc),
        "rejected_steps": int(n_rej),
        "rhs_evals": int(n_rhs),
        "h_min": float(h_min),
        "stiff_from_s": float(stiff_s),
    }
    return s_arr, x_arr, z_arr, events, _STATUS_NAMES[int(status)], counters


def integrate(start, p, controls=None, stop_at_xb=False):
    """Continue a local solution into a global orbit trace.

    ``start`` is a LocalSolution; XZ charts continue the origin orbit
    forward in s, WV charts continue the A-orbit backwards (forward in
    sigma = -s), which is the orientation the barrier comparison needs.
    """
    controls = controls or OrbitControls()
    prof = _kernels.PROF_F if start.chart == "XZ" else _kernels.PROF_H
    x0, z0 = start.state_at_s0(p)
    s0 = start.tail.s0
    s_arr, x_arr, z_arr, events, status, counters = _integrate_raw(
        x0, z0, s0, p, controls, prof, stop_at_xb
    )
    s_arr, x_arr, z_arr, tail_end = _with_tail(start, p.k, s_arr, x_arr, z_arr)
    return OrbitTrace(s_arr, x_arr, z_arr, events, status, start.chart, tail_end, **counters)


def _with_tail(start, k, s_arr, x_arr, z_arr):
    """Samples from s0 on, preceded by the local solution's tail below s0;
    also returns the number of tail samples."""
    tx, tz = start.tail.unweighted(k)
    keep = start.tail.grid < start.tail.s0
    s_arr = np.concatenate([start.tail.grid[keep], s_arr])
    x_arr = np.concatenate([tx[keep], x_arr])
    z_arr = np.concatenate([tz[keep], z_arr])
    return s_arr, x_arr, z_arr, int(np.sum(keep))


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

    An orbit ending at s_max must show a clear signature (asymptote
    approach with growing Z, collapse onto the axis, or a bounded band)
    to be classified; anything else is reported Undetermined together
    with the tail diagnostics.
    """
    x_end, z_end = trace.end_state
    status = trace.status
    diag = {"status": status, "s_end": float(trace.s[-1])}
    near_gamma = p.gamma - phase.kth_root(x_end, p.k) < GAMMA_NEAR_REL * p.gamma

    if status == "exited_region":
        return OrbitClass(NON_ADMISSIBLE, s_exit=float(trace.s[-1]), diagnostics=diag)
    if status == "converged_B":
        diag["B"] = (p.X_B, p.Z_B)
        return OrbitClass(TYPE_B, diagnostics=diag)
    if status == "converged_axis":
        return _axis_class(x_end, p, diag)
    if status in ("reached_asymptote", "blow_up_Z"):
        if near_gamma:
            diag["Z_end"] = z_end
            return OrbitClass(TYPE_GAMMA, diagnostics=diag)
        return OrbitClass(UNDETERMINED, diagnostics=diag)

    # ran to s_max (or stalled): read the tail
    win = _tail_window(trace)
    zw = trace.Z[win]
    z_min, z_max = float(np.min(zw)), float(np.max(zw))
    z_peak = float(np.max(trace.Z))
    diag.update(z_tail=(z_min, z_max), x_end=x_end)
    if near_gamma and zw[-1] >= zw[0] > 0.0:
        diag["Z_end"] = z_end
        return OrbitClass(TYPE_GAMMA, diagnostics=diag)
    if x_end > p.X_B and z_end < 1e-6 * z_peak and zw[-1] <= zw[0]:
        return _axis_class(x_end, p, diag)
    if status == "s_max" and z_min > 0.0 and z_max / z_min < BOUNDED_RATIO and not near_gamma:
        return OrbitClass(GENERALIZED_B, diagnostics=diag)
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
    c = ln(alpha_k)/(2k). Each alpha gets its own Picard tail, and one
    continuation serves them all: it starts from the alpha whose s0 + c
    comes first and runs until every alpha reaches its own s_max. Returns
    one (sol, trace, oc) per alpha, in order; an alpha whose local solution
    fails gets its KsolError in place of the tuple.
    """
    controls = controls or OrbitControls()
    sols = []
    for alpha in alphas:
        try:
            sols.append(picard.picard_solve(alpha, p, tol))
        except KsolError as exc:
            sols.append(exc)
    ok = [sol for sol in sols if not isinstance(sol, KsolError)]
    if not ok:
        return sols

    def gauge(sol):
        return math.log(picard.alpha_weight(sol.alpha, p)) / (2.0 * p.k)

    first = min(ok, key=lambda sol: sol.tail.s0 + gauge(sol))
    c0 = gauge(first)
    c_max = max(gauge(sol) for sol in ok)
    shared = integrate(first, p, replace(controls, s_max=controls.s_max + (c_max - c0)))
    runs = []
    for sol in sols:
        if not isinstance(sol, KsolError):
            # shift by the difference, so the integrated alpha's is exactly 0
            c = gauge(sol)
            trace = _shifted_trace(shared, sol, c0 - c, c < c_max, controls.s_max, p)
            sol = (sol, trace, classify_orbit(trace, p))
        runs.append(sol)
    return runs


def _shifted_trace(shared, sol, shift, ends_early, s_max, p):
    """The trace of sol's alpha read off a shared continuation.

    It is sol's own tail below s0, then the shared samples shifted by
    ``shift`` in s from s0 on. A row that ends before the shared run
    (``ends_early``) and that the run went past is cut at s_max: the later
    samples and events are dropped, a cubic Hermite point closes it and its
    status is s_max. The solver counters are the shared run's, with
    stiff_from_s shifted into the row's frame.
    """
    i0 = shared.tail_end_index
    s = shared.s[i0:] + shift
    X, Z = shared.X[i0:], shared.Z[i0:]
    events = [(se + shift, name) for se, name in shared.events]
    status = shared.status
    lo = int(np.searchsorted(s, sol.tail.s0))
    if ends_early and s[-1] > s_max:
        s, X, Z = _cut_at(s, X, Z, s_max, p)
        events = [(se, name) for se, name in events if se <= s_max]
        status = "s_max"
    s, X, Z, tail_end = _with_tail(sol, p.k, s[lo:], X[lo:], Z[lo:])
    return replace(
        shared,
        s=s,
        X=X,
        Z=Z,
        events=events,
        status=status,
        tail_end_index=tail_end,
        stiff_from_s=shared.stiff_from_s + shift,
    )


def _cut_at(s, X, Z, s_cut, p):
    """The samples up to s_cut (within the trace), closed by the cubic
    Hermite point at s_cut unless a sample sits there."""
    i = int(np.searchsorted(s, s_cut, side="right")) - 1  # s[i] <= s_cut < s[i + 1]
    if s[i] == s_cut:
        return s[: i + 1], X[: i + 1], Z[: i + 1]
    h = s[i + 1] - s[i]
    th = (s_cut - s[i]) / h
    F, G = phase.vector_field(X[i : i + 2], Z[i : i + 2], p)
    X = np.append(X[: i + 1], _kernels._hermite(th, h, X[i], F[0], X[i + 1], F[1]))
    Z = np.append(Z[: i + 1], _kernels._hermite(th, h, Z[i], G[0], Z[i + 1], G[1]))
    return np.append(s[: i + 1], s_cut), X, Z


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
    g_XX = g_X * (1.0 / p.k - 1.0) / Xi
    g2 = g_XX * Fi * Fi + g_X * (J[0, 0] * Fi + J[0, 1] * G[1:-1])
    tol = base_tol * (1.0 + np.abs(g[1:-1])) + 0.5 * (hp * hm) * np.abs(g2) + 1e-12
    bad = np.nonzero(np.abs(d - g[1:-1]) > 3.0 * tol)[0]
    return [(float(s[i + 1]), float(d[i] - g[i + 1])) for i in bad]


SELF_X_BLOCK = 256  # sorted segments per block of the self-intersection count


def _arc_decimate(x, z, n_keep):
    """Indices spaced uniformly in polyline arc length (loop-preserving)."""
    dx = np.diff(x)
    dz = np.diff(z)
    arc = np.concatenate([[0.0], np.cumsum(np.hypot(dx, dz))])
    if arc[-1] == 0.0:
        return np.array([0, x.size - 1])
    targets = np.linspace(0.0, arc[-1], n_keep)
    idx = np.unique(np.searchsorted(arc, targets))
    idx[-1] = x.size - 1
    return idx


def self_intersection_check(trace, p=None, n_keep=4000):
    """Count proper self-crossings of the orbit polyline.

    Runs in coordinates normalized by the trace extents (spiral turns around
    B are strongly anisotropic ellipses) and decimates uniformly in the
    normalized arc length so loops keep their shape. The trace is truncated
    at its first entry into a small box around B: inside, the linearization
    certifies an inward spiral and chords of successive turns degenerate
    numerically.

    The count is a sort-and-sweep over x-ranges (Shamos & Hoey 1976;
    Bentley & Ottmann 1979): with the segments sorted by their left end,
    the segments whose x-range meets that of a given one and that sort
    after it form one contiguous run, found by a binary search. Only those
    pairs are enumerated, and only those that also overlap in z and share
    no endpoint get the four orientation products. The cost follows the
    number of x-overlapping pairs, not n^2/2: 325-3,693 pairs on the
    theta = 1 workload sets at alpha = 1, 114,841 at (4,1,1) with
    theta = 1e-6, against about 8M pairs of a 4,000-point polyline. The
    pairs are built SELF_X_BLOCK sorted segments at a time, so one block
    holds at most SELF_X_BLOCK * n pairs of an n-segment polyline.
    """
    return _crossings(*_monitor_polyline(trace, p, n_keep))


def _monitor_polyline(trace, p, n_keep):
    """The normalized, truncated and decimated polyline whose crossings
    ``self_intersection_check`` counts."""
    x, z = trace.X, trace.Z
    sx = max(float(np.ptp(x)), 1e-300)
    sz = max(float(np.ptp(z)), 1e-300)
    x = (x - x.min()) / sx
    z = (z - z.min()) / sz
    if p is not None and p.Z_B is not None and p.rho > 0.0:
        bx = (p.X_B - trace.X.min()) / sx
        bz = (p.Z_B - trace.Z.min()) / sz
        keep = np.hypot(x - bx, z - bz) > 0.01
        if not keep.all():
            first_bad = int(np.argmin(keep))
            x, z = x[: max(first_bad, 8)], z[: max(first_bad, 8)]
    idx = _arc_decimate(x, z, n_keep)
    return x[idx], z[idx]


def _crossings(px, pz):
    """Proper crossings between non-adjacent segments of the polyline."""
    ax, az = px[:-1], pz[:-1]
    bx, bz = px[1:], pz[1:]
    x_lo, x_hi = np.minimum(ax, bx), np.maximum(ax, bx)
    z_lo, z_hi = np.minimum(az, bz), np.maximum(az, bz)
    n = ax.size
    crossings = 0
    # in x_lo order, the segments whose x-range meets that of sorted segment a
    # and that sort after it are a+1 .. end[a]-1, so every x-overlapping pair
    # is met once
    order = np.argsort(x_lo, kind="stable")
    end = np.searchsorted(x_lo[order], x_hi[order], side="right")
    for a0 in range(0, n, SELF_X_BLOCK):
        rows = np.arange(a0, min(a0 + SELF_X_BLOCK, n))
        run = end[rows] - rows - 1
        # sorted pairs (a, b), b over a+1 .. end[a]-1 for each row a
        a = np.repeat(rows, run)
        b = np.arange(a.size) + np.repeat(rows + 1 - (np.cumsum(run) - run), run)
        i, j = order[a], order[b]
        i, j = np.minimum(i, j), np.maximum(i, j)
        # a proper crossing needs overlapping z-ranges too, and segments that
        # share no endpoint; only those pairs get the four orientation products
        near = (j >= i + 2) & (z_lo[j] <= z_hi[i]) & (z_hi[j] >= z_lo[i])
        i, j = i[near], j[near]
        o1 = (bx[i] - ax[i]) * (az[j] - az[i]) - (bz[i] - az[i]) * (ax[j] - ax[i])
        o2 = (bx[i] - ax[i]) * (bz[j] - az[i]) - (bz[i] - az[i]) * (bx[j] - ax[i])
        o3 = (bx[j] - ax[j]) * (az[i] - az[j]) - (bz[j] - az[j]) * (ax[i] - ax[j])
        o4 = (bx[j] - ax[j]) * (bz[i] - az[j]) - (bz[j] - az[j]) * (bx[i] - ax[j])
        crossings += int(np.count_nonzero((o1 * o2 < 0.0) & (o3 * o4 < 0.0)))
    return crossings


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


def _z_of_x_curve(x, z, x_hi):
    """Monotone (X, Z) curve up to x_hi from samples that end at X_B."""
    keep = x <= x_hi * (1.0 + 1e-12)
    x, z = x[keep], z[keep]
    inc = np.concatenate([[True], np.diff(x) > 0.0])
    return x[inc], z[inc]


def barrier_compare(
    p, alpha=1.0, alpha_bar=1.0, controls=None, n_grid=400, x_lo=0.01, tol=picard.DEFAULT_TOL,
    trace=None,
):
    """Compare the origin orbit Z(X) with the reversed A-orbit V-(X).

    Both curves are parametrized by X on [x_lo, X_B] (X is strictly
    increasing there for each); the A-orbit must dominate pointwise, and
    f > h on the same interval. The local solutions are solved at ``tol``.
    ``trace``, the origin orbit's trace for ``alpha`` when the caller
    already has it, is cut at its first crossing of X_B instead of
    integrating that orbit again; only the A side is then solved here.
    """
    if not p.rho > 2.0 * p.theta:
        raise NotApplicableError("barrier comparison requires rho > 2 theta")
    if p.n < 2 * p.k:
        raise NotApplicableError("barrier comparison requires n >= 2k")
    controls = controls or OrbitControls()
    if trace is None:
        trace = integrate(picard.picard_solve(alpha, p, tol), p, controls, stop_at_xb=True)
    crossings = trace.event_s("crossed_X_B")
    sol_a = picard.picard_solve_at_A(alpha_bar, p, tol)
    tr_a = integrate(sol_a, p, controls, stop_at_xb=True)
    if not crossings or tr_a.status != "stopped_at_X_B":
        origin = "stopped_at_X_B" if crossings else trace.status
        raise DomainError(f"barrier orbits did not reach X_B (origin: {origin}, A: {tr_a.status})")
    # the crossing point itself is X_B exactly, as a stopped run ends
    _s, xo, zo = _cut_at(trace.s, trace.X, trace.Z, crossings[0], p)
    xo = np.append(xo[:-1], p.X_B)
    xo, zo = _z_of_x_curve(xo, zo, p.X_B)
    xa, va = _z_of_x_curve(tr_a.X, tr_a.Z, p.X_B)
    grid = np.linspace(x_lo, p.X_B, n_grid)
    z_on = np.interp(grid, xo, zo)
    v_on = np.interp(grid, xa, va)
    gap = v_on - z_on
    # f and h coincide exactly at x_B (nu + x_B = gamma - x_B), so the
    # strict comparison runs over the open interval
    xs = np.linspace(x_lo ** (1.0 / p.k), p.x_B, n_grid, endpoint=False)
    fmh = phase.profile_value(xs, p, phase.PROF_F) - phase.profile_value(xs, p, phase.PROF_H)
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
