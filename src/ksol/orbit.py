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
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, phase, picard
from .errors import DomainError, NotApplicableError

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
    # terminal proximity to the asymptote, relative in x = X^(1/k); the
    # transverse contraction rate grows with Z, so this cannot be pushed
    # much further with an explicit pair (<= 0 turns asymptote handling off)
    asym_tol: float = 1e-5
    conv_dist: float = 1e-7
    max_samples: int = 400_000


@dataclass(frozen=True)
class OrbitTrace:
    """Adaptive samples of one orbit plus the located events.

    Samples are strictly increasing in s. In the WV chart the rows hold
    (sigma, W-, V-) for the reversed A-chart flow (sigma = -s).
    """

    s: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    events: list
    status: str
    chart: str = "XZ"
    tail_end_index: int = 0
    events_dropped: int = 0  # fired beyond the kernel's event buffer

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
    out = _kernels.integrate_core(
        x0,
        z0,
        s0,
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
    s_arr, x_arr, z_arr, ev_s, ev_code, n_ev, status = out
    events = [(float(se), _EVENT_NAMES[int(ce)]) for se, ce in zip(ev_s, ev_code)]
    return s_arr, x_arr, z_arr, events, _STATUS_NAMES[int(status)], int(n_ev) - len(events)


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
    s_arr, x_arr, z_arr, events, status, dropped = _integrate_raw(
        x0, z0, s0, p, controls, prof, stop_at_xb
    )
    tx, tz = start.tail.unweighted(p.k)
    keep = start.tail.grid < s0
    s_arr = np.concatenate([start.tail.grid[keep], s_arr])
    x_arr = np.concatenate([tx[keep], x_arr])
    z_arr = np.concatenate([tz[keep], z_arr])
    tail_end = int(np.sum(keep))
    return OrbitTrace(s_arr, x_arr, z_arr, events, status, start.chart, tail_end, dropped)


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


def run_orbit(p, alpha=1.0, controls=None, tol=picard.DEFAULT_TOL):
    """Convenience pipeline: local solution, continuation, classification."""
    sol = picard.picard_solve(alpha, p, tol)
    trace = integrate(sol, p, controls)
    return sol, trace, classify_orbit(trace, p)


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
    """Defect of the exact relation (ln Z)_s = 2k (1 - x/x_B) on the samples.

    Uses nonuniform central differences of ln Z; the tolerance budgets the
    finite-difference truncation from the analytic curvature of the target,
    so a clean trace reports no violations while a perturbed one does.
    """
    s, Z = trace.s, trace.Z
    good = Z > 0.0
    s, Z, X = s[good], Z[good], trace.X[good]
    if s.size < 5:
        return []
    g = phase.vector_field(X, Z, p)[1] / Z
    ln_z = np.log(Z)
    hp = s[2:] - s[1:-1]
    hm = s[1:-1] - s[:-2]
    # nonuniform 3-point first derivative, exact for quadratics
    d = (
        ln_z[2:] * hm / (hp * (hp + hm))
        + ln_z[1:-1] * (hp - hm) / (hp * hm)
        - ln_z[:-2] * hp / (hm * (hp + hm))
    )
    g1 = np.gradient(g, s)
    g2 = np.gradient(g1, s)
    tol = base_tol * (1.0 + np.abs(g[1:-1])) + 0.5 * (hp * hm) * np.abs(g2[1:-1]) + 1e-12
    bad = np.nonzero(np.abs(d - g[1:-1]) > 3.0 * tol)[0]
    return [(float(s[i + 1]), float(d[i] - g[i + 1])) for i in bad]


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
    """
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
    px, pz = x[idx], z[idx]
    ax, az = px[:-1], pz[:-1]
    bx, bz = px[1:], pz[1:]
    n = ax.size
    crossings = 0
    for i in range(n - 2):
        j0 = i + 2
        cx, cz = ax[j0:], az[j0:]
        dxx, dzz = bx[j0:], bz[j0:]
        o1 = (bx[i] - ax[i]) * (cz - az[i]) - (bz[i] - az[i]) * (cx - ax[i])
        o2 = (bx[i] - ax[i]) * (dzz - az[i]) - (bz[i] - az[i]) * (dxx - ax[i])
        o3 = (dxx - cx) * (az[i] - cz) - (dzz - cz) * (ax[i] - cx)
        o4 = (dxx - cx) * (bz[i] - cz) - (dzz - cz) * (bx[i] - cx)
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


def _z_of_x_curve(trace, x_hi):
    """Monotone (X, Z) curve up to x_hi from a stopped-at-X_B trace."""
    x, z = trace.X, trace.Z
    keep = x <= x_hi * (1.0 + 1e-12)
    x, z = x[keep], z[keep]
    inc = np.concatenate([[True], np.diff(x) > 0.0])
    return x[inc], z[inc]


def barrier_compare(p, alpha=1.0, alpha_bar=1.0, controls=None, n_grid=400, x_lo=0.01):
    """Compare the origin orbit Z(X) with the reversed A-orbit V-(X).

    Both curves are parametrized by X on [x_lo, X_B] (X is strictly
    increasing there for each); the A-orbit must dominate pointwise, and
    f > h on the same interval.
    """
    if not p.rho > 2.0 * p.theta:
        raise NotApplicableError("barrier comparison requires rho > 2 theta")
    if p.n < 2 * p.k:
        raise NotApplicableError("barrier comparison requires n >= 2k")
    controls = controls or OrbitControls()
    sol_o = picard.picard_solve(alpha, p)
    tr_o = integrate(sol_o, p, controls, stop_at_xb=True)
    sol_a = picard.picard_solve_at_A(alpha_bar, p)
    tr_a = integrate(sol_a, p, controls, stop_at_xb=True)
    if tr_o.status != "stopped_at_X_B" or tr_a.status != "stopped_at_X_B":
        raise DomainError(
            f"barrier orbits did not reach X_B (origin: {tr_o.status}, A: {tr_a.status})"
        )
    xo, zo = _z_of_x_curve(tr_o, p.X_B)
    xa, va = _z_of_x_curve(tr_a, p.X_B)
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
