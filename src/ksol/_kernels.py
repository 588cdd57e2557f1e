"""Hot numeric kernels: the adaptive integrator with event location, and
its private scalar copy of the phase-plane field and its Jacobian.

Everything here reads its parameters from the tuple of PP_SIZE floats that
``pack_params`` builds, and does its scalar work on Python floats with the
``math`` module, so the same source compiles under numba and runs as plain
Python wherever numba is absent (or KSOL_DISABLE_JIT=1); uncompiled, an
operation on numpy scalars costs several times as much as on floats, for
the same IEEE result. numba cannot call the array evaluators of ``phase``, so
``kth_root``, ``profile_value``, ``rhs`` and ``jac`` repeat them for the
integrator alone, in the same operation order. ``kth_root`` alone keeps
numpy's exp and log: they round differently from libm's on some inputs,
and ``phase.kth_root`` must agree with it bit for bit on arrays.

Integrator: Dormand-Prince 5(4) pair, fifth-order propagation with a
fourth-order error estimate and PI step-size control. Once its step is
stability-limited (h times the spectral radius of the closed-form 2x2
Jacobian above STIFF_HRHO on STIFF_SPAN consecutive accepted steps) the
rest of the run takes RODAS4 steps: linearly implicit, L-stable, order 4
with an embedded order-3 estimate, its stage systems solved in closed
form. Both feed a cubic Hermite dense output on which every event,
the terminal asymptote included, is located by bisection.
"""

import math

import numpy as np

from ._jit import njit

# packed parameter layout
PP_N = 0
PP_K = 1
PP_GAMMA = 2
PP_CB = 3  # c_nk * beta^k
PP_XB = 4  # X_B
PP_GK = 5  # gamma^k
PP_XCAP = 6  # min(gamma^k, X_A)
PP_NU = 7
PP_XA_ROOT = 8  # x_A = (n+2k)/k
PP_XB_ROOT = 9  # x_B = (n+2k)/(2k)
PP_SIZE = 10

# profile selector for the shared rhs kernel
PROF_F = 0  # origin chart, numerator gamma - x
PROF_H = 1  # reversed A chart, numerator nu + x

# terminal status codes
ST_SMAX = 0
ST_ASYMPTOTE = 1
ST_EXITED = 2
ST_CONV_B = 3
ST_CONV_AXIS = 4
ST_BLOWUP = 5
ST_STEP_FLOOR = 6
ST_XB_STOP = 7
ST_OVERFLOW = 8

# event codes logged along a trace
EV_CROSS_XB = 1
EV_ASYMPTOTE = 2
EV_EXITED = 3
EV_CONVERGED = 4
EV_BLOWUP = 5
EV_STEP_FLOOR = 6

# integrator settings no caller varies (numba freezes module globals at
# compile time)
BLOWUP_Z = 1e12
# Z collapses toward the axis much faster than X finishes its approach
# (rates 2k vs |n-2k|); a deep floor keeps the measured X_inf and the
# tail-rate window inside the asymptotic regime
Z_FLOOR_REL = 1e-26
# sustained convergence to B: |rhs| below CONV_RHS for an s-span CONV_SPAN
CONV_RHS = 1e-9
CONV_SPAN = 2.0
EV_CAP = 512  # logged events kept; later ones are only counted
# stiffness switch: DOPRI5's real stability boundary is h |lambda| ~ 3.3, so
# h rho(J) > STIFF_HRHO on STIFF_SPAN consecutive accepted steps marks a
# step held by stability, not accuracy; RODAS4 then takes the rest of the run
STIFF_HRHO = 1.0
STIFF_SPAN = 15


def pack_params(p):
    """The parameters the kernels read, as a tuple of PP_SIZE floats in the
    PP_* order; numba types it as UniTuple(float64, 10)."""
    return (
        float(p.n),
        float(p.k),
        float(p.gamma),
        float(p.cb),
        float(p.X_B),
        float(p.gamma_k),
        float(p.x_cap),
        float(p.nu),
        float(p.x_A),
        float(p.x_B),
    )


@njit
def kth_root(value, k):
    if value <= 0.0:
        return 0.0
    if k == 1:
        return value
    return float(np.exp(np.log(value) / k))


@njit
def _profile_ratio(x, pp, prof):
    """(q, g): q = 1 - x/x_A and g the profile's numerator over q."""
    q = 1.0 - x / pp[PP_XA_ROOT]
    if prof == PROF_H:
        num = pp[PP_NU] + x
    else:
        num = pp[PP_GAMMA] - x
    return q, num / q


@njit
def profile_value(x, pp, prof):
    """f(x) for prof=0, h(x) for prof=1, at x = X^(1/k)."""
    k = int(pp[PP_K])
    q, base = _profile_ratio(x, pp, prof)
    r = 1.0
    for _ in range(k):
        r *= base
    return pp[PP_CB] * q * r


@njit
def rhs(X, Z, pp, prof):
    """(X_s, Z_s); with prof=1 this is the reversed A-chart field in (W-, V-)."""
    n = pp[PP_N]
    k = pp[PP_K]
    x = kth_root(X, int(k))
    F = -(n - 2.0 * k) * (1.0 - x / pp[PP_XA_ROOT]) * X + Z * profile_value(x, pp, prof)
    G = 2.0 * k * Z * (1.0 - x / pp[PP_XB_ROOT])
    return F, G


@njit
def jac(X, Z, pp, prof):
    """Jacobian of ``rhs`` at X > 0 as (dF/dX, dF/dZ, dG/dX, dG/dZ), by the
    formulas of ``phase.jacobian`` with either profile; X^((1-k)/k) is x/X."""
    n = pp[PP_N]
    k = int(pp[PP_K])
    m = (n - 2.0 * k) / (n + 2.0 * k)
    x = kth_root(X, k)
    q, g = _profile_ratio(x, pp, prof)
    g_km1 = 1.0
    for _ in range(k - 1):
        g_km1 *= g
    sign = 1.0 if prof == PROF_F else -1.0
    slope = pp[PP_CB] * k * g_km1 * (((k - 1) / (n + 2.0 * k)) * g - sign)
    xpow = x / X if k > 1 else 1.0
    dFdX = (2.0 * k - n) + m * (k + 1) * x + Z * (slope * xpow / k)
    dFdZ = pp[PP_CB] * q * (g_km1 * g)  # profile_value, same product order
    dGdX = -(1.0 - m) * Z * xpow
    dGdZ = 2.0 * k - (1.0 - m) * k * x
    return dFdX, dFdZ, dGdX, dGdZ


@njit
def _spectral_radius(a, b, c, d):
    """Largest eigenvalue modulus of [[a, b], [c, d]] from trace and determinant."""
    t = a + d
    det = a * d - b * c
    disc = t * t - 4.0 * det
    if disc >= 0.0:
        return 0.5 * (abs(t) + math.sqrt(disc))
    return math.sqrt(det)


# Dormand-Prince 5(4) tableau
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


@njit
def _dopri_step(X, Z, h, fX, fZ, pp, prof):
    """One DOPRI5 step from (X, Z) with derivative (fX, fZ) already known.

    Returns (X1, Z1, errX, errZ, fX1, fZ1); the last pair is the FSAL
    derivative at the step end.
    """
    k2x, k2z = rhs(X + h * _A21 * fX, Z + h * _A21 * fZ, pp, prof)
    k3x, k3z = rhs(X + h * (_A31 * fX + _A32 * k2x), Z + h * (_A31 * fZ + _A32 * k2z), pp, prof)
    k4x, k4z = rhs(
        X + h * (_A41 * fX + _A42 * k2x + _A43 * k3x),
        Z + h * (_A41 * fZ + _A42 * k2z + _A43 * k3z),
        pp,
        prof,
    )
    k5x, k5z = rhs(
        X + h * (_A51 * fX + _A52 * k2x + _A53 * k3x + _A54 * k4x),
        Z + h * (_A51 * fZ + _A52 * k2z + _A53 * k3z + _A54 * k4z),
        pp,
        prof,
    )
    k6x, k6z = rhs(
        X + h * (_A61 * fX + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x),
        Z + h * (_A61 * fZ + _A62 * k2z + _A63 * k3z + _A64 * k4z + _A65 * k5z),
        pp,
        prof,
    )
    X1 = X + h * (_B1 * fX + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
    Z1 = Z + h * (_B1 * fZ + _B3 * k3z + _B4 * k4z + _B5 * k5z + _B6 * k6z)
    k7x, k7z = rhs(X1, Z1, pp, prof)
    errX = h * (_E1 * fX + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x)
    errZ = h * (_E1 * fZ + _E3 * k3z + _E4 * k4z + _E5 * k5z + _E6 * k6z + _E7 * k7z)
    return X1, Z1, errX, errZ, k7x, k7z


# RODAS4 (Hairer & Wanner, rodas.f METH=1), in the transformed form whose
# stages u_i solve (I/(gamma h) - J) u_i = f(y + sum a_ij u_j) + sum c_ij u_j / h;
# y + sum a_5j u_j + u5 is the order-3 solution and u6 its error
_RGAMMA = 0.25
_RA21 = 1.544
_RA31, _RA32 = 0.9466785280815826, 0.2557011698983284
_RA41, _RA42, _RA43 = 3.314825187068521, 2.896124015972201, 0.9986419139977817
_RA51, _RA52, _RA53, _RA54 = (
    1.221224509226641,
    6.019134481288629,
    12.53708332932087,
    -0.6878860361058950,
)
_RC21 = -5.6688
_RC31, _RC32 = -2.430093356833875, -0.2063599157091915
_RC41, _RC42, _RC43 = -0.1073529058151375, -9.594562251023355, -20.47028614809616
_RC51, _RC52, _RC53, _RC54 = (
    7.496443313967647,
    -10.24680431464352,
    -33.99990352819905,
    11.70890893206160,
)
_RC61, _RC62, _RC63, _RC64, _RC65 = (
    8.083246795921522,
    -7.981132988064893,
    -31.52159432874371,
    16.31930543123136,
    -6.058818238834054,
)


@njit
def _solve2(E, rx, rz):
    """Cramer's rule for E u = r, with E = (e11, e12, e21, e22, det)."""
    e11, e12, e21, e22, det = E
    return (e22 * rx - e12 * rz) / det, (e11 * rz - e21 * rx) / det


@njit
def _rodas_step(X, Z, h, fX, fZ, pp, prof):
    """One RODAS4 step from (X, Z) with derivative (fX, fZ) already known.

    One Jacobian per step; each stage's 2x2 system is solved by Cramer's
    rule. Returns (X1, Z1, errX, errZ, fX1, fZ1) like ``_dopri_step``; the
    last pair is one extra rhs call at the step end.
    """
    a, b, c, d = jac(X, Z, pp, prof)
    diag = 1.0 / (_RGAMMA * h)
    E = (diag - a, -b, -c, diag - d, (diag - a) * (diag - d) - b * c)

    u1x, u1z = _solve2(E, fX, fZ)

    gx, gz = rhs(X + _RA21 * u1x, Z + _RA21 * u1z, pp, prof)
    u2x, u2z = _solve2(E, gx + _RC21 * u1x / h, gz + _RC21 * u1z / h)

    gx, gz = rhs(X + _RA31 * u1x + _RA32 * u2x, Z + _RA31 * u1z + _RA32 * u2z, pp, prof)
    rx = gx + (_RC31 * u1x + _RC32 * u2x) / h
    rz = gz + (_RC31 * u1z + _RC32 * u2z) / h
    u3x, u3z = _solve2(E, rx, rz)

    gx, gz = rhs(
        X + _RA41 * u1x + _RA42 * u2x + _RA43 * u3x,
        Z + _RA41 * u1z + _RA42 * u2z + _RA43 * u3z,
        pp,
        prof,
    )
    rx = gx + (_RC41 * u1x + _RC42 * u2x + _RC43 * u3x) / h
    rz = gz + (_RC41 * u1z + _RC42 * u2z + _RC43 * u3z) / h
    u4x, u4z = _solve2(E, rx, rz)

    y5x = X + _RA51 * u1x + _RA52 * u2x + _RA53 * u3x + _RA54 * u4x
    y5z = Z + _RA51 * u1z + _RA52 * u2z + _RA53 * u3z + _RA54 * u4z
    gx, gz = rhs(y5x, y5z, pp, prof)
    rx = gx + (_RC51 * u1x + _RC52 * u2x + _RC53 * u3x + _RC54 * u4x) / h
    rz = gz + (_RC51 * u1z + _RC52 * u2z + _RC53 * u3z + _RC54 * u4z) / h
    u5x, u5z = _solve2(E, rx, rz)

    # embedded order-3 solution; its correction u6 gives the order-4 one
    y6x = y5x + u5x
    y6z = y5z + u5z
    gx, gz = rhs(y6x, y6z, pp, prof)
    rx = gx + (_RC61 * u1x + _RC62 * u2x + _RC63 * u3x + _RC64 * u4x + _RC65 * u5x) / h
    rz = gz + (_RC61 * u1z + _RC62 * u2z + _RC63 * u3z + _RC64 * u4z + _RC65 * u5z) / h
    u6x, u6z = _solve2(E, rx, rz)

    X1 = y6x + u6x
    Z1 = y6z + u6z
    fX1, fZ1 = rhs(X1, Z1, pp, prof)
    return X1, Z1, u6x, u6z, fX1, fZ1


@njit
def _hermite(theta, h, y0, f0, y1, f1):
    """Cubic Hermite dense output on one step, theta in [0, 1]."""
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + theta
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


@njit
def _event_value(code, X, Z, pp, asym_tol, x_cap):
    """Signed event functions; a root marks the event location."""
    k = int(pp[PP_K])
    if code == EV_CROSS_XB:
        return X - pp[PP_XB]
    if code == EV_ASYMPTOTE:
        return (pp[PP_GAMMA] - kth_root(X, k)) - asym_tol * pp[PP_GAMMA]
    if code == EV_EXITED:
        return X - x_cap
    return Z - BLOWUP_Z  # EV_BLOWUP


@njit
def _bisect_event(code, h, X0, Z0, fX0, fZ0, X1, Z1, fX1, fZ1, pp, asym_tol, x_cap):
    """Bisection for the event root on the Hermite interpolant; returns theta."""
    lo = 0.0
    hi = 1.0
    vlo = _event_value(code, X0, Z0, pp, asym_tol, x_cap)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        xm = _hermite(mid, h, X0, fX0, X1, fX1)
        zm = _hermite(mid, h, Z0, fZ0, Z1, fZ1)
        vm = _event_value(code, xm, zm, pp, asym_tol, x_cap)
        if (vm > 0.0) == (vlo > 0.0):
            lo = mid
            vlo = vm
        else:
            hi = mid
    return 0.5 * (lo + hi)


@njit
def _log_event(ev_s, ev_code, n_ev, s, code):
    """Store the event while the buffer has room, count it either way."""
    if n_ev < ev_s.size:
        ev_s[n_ev] = s
        ev_code[n_ev] = code
    return n_ev + 1


@njit
def integrate_core(
    X0,
    Z0,
    s0,
    s_max,
    pp,
    prof,
    rtol,
    max_step,
    step_floor,
    asym_tol,
    conv_dist,
    b_x,
    b_z,
    has_b,
    stop_at_xb,
    max_samples,
):
    """Adaptive integration of the phase-plane field with event detection.

    Returns (s_arr, x_arr, z_arr, ev_s, ev_code, n_ev, status, n_acc,
    n_rej, n_rhs, h_min, stiff_from_s): the event arrays keep the first
    EV_CAP of the n_ev events that fired; then the accepted and rejected
    steps, the rhs evaluations, the shortest accepted step and the s where
    RODAS4 took over (NaN if it never did).
    """
    s_out = np.empty(max_samples)
    x_out = np.empty(max_samples)
    z_out = np.empty(max_samples)
    ev_s = np.empty(EV_CAP)
    ev_code = np.zeros(EV_CAP, dtype=np.int64)
    n_ev = 0

    k = int(pp[PP_K])
    x_cap = pp[PP_XCAP]
    s = s0
    X = X0
    Z = Z0
    m = 0
    s_out[m] = s
    x_out[m] = X
    z_out[m] = Z
    m += 1

    fX, fZ = rhs(X, Z, pp, prof)
    h = min(1e-3, max_step)
    err_prev = 1.0
    z_peak = Z
    conv_since = math.inf
    status = ST_SMAX
    stiff = False
    n_limited = 0  # consecutive accepted DOPRI steps with h rho(J) > STIFF_HRHO
    stiff_from_s = math.nan
    n_acc = 0
    n_rej = 0
    n_rhs = 1
    h_min = math.nan

    while s < s_max:
        if h > s_max - s:
            h = s_max - s
        # resolve the approach to the asymptote X = gamma^k (asym_tol <= 0
        # disables all asymptote handling)
        if asym_tol > 0.0:
            x_root = kth_root(X, k)
            if pp[PP_GAMMA] - x_root < 1e-3 and abs(fX) > 0.0:
                relax = abs(pp[PP_GK] - X) / abs(fX)
                if relax < h:
                    h = max(relax, 4.0 * step_floor)
        if h < step_floor:
            n_ev = _log_event(ev_s, ev_code, n_ev, s, EV_STEP_FLOOR)
            status = ST_STEP_FLOOR
            break

        if stiff:
            X1, Z1, errX, errZ, fX1, fZ1 = _rodas_step(X, Z, h, fX, fZ, pp, prof)
        else:
            X1, Z1, errX, errZ, fX1, fZ1 = _dopri_step(X, Z, h, fX, fZ, pp, prof)
        n_rhs += 6

        # a vanishing scale only happens for an identically-zero component
        # (the invariant Z = 0 axis), which then carries no error
        scX = rtol * max(abs(X), abs(X1))
        scZ = rtol * max(abs(Z), abs(Z1))
        ex = errX / scX if scX > 0.0 else 0.0
        ez = errZ / scZ if scZ > 0.0 else 0.0
        err = math.sqrt(0.5 * (ex * ex + ez * ez))
        bad_state = (X1 < 0.0) or (Z1 < 0.0) or (not math.isfinite(X1)) or (not math.isfinite(Z1))
        if err > 1.0 or bad_state:
            n_rej += 1
            if bad_state:
                fac = 0.2
            else:
                fac = max(0.2, 0.9 * err ** (-0.25 if stiff else -0.2))
            h *= fac
            continue

        # accepted; PI controller for DOPRI, I controller for RODAS4 (an
        # exact step, err = 0, takes the largest growth the clip allows)
        n_acc += 1
        if n_acc == 1 or h < h_min:
            h_min = h
        if err == 0.0:
            fac = 5.0
        else:
            fac = 0.9 * err**-0.25 if stiff else 0.9 * err**-0.14 * err_prev**0.08
            if fac > 5.0:
                fac = 5.0
            if fac < 0.2:
                fac = 0.2
        h_next = min(h * fac, max_step)
        err_prev = max(err, 1e-10)
        s1 = s + h

        # a crossing of X = X_B is logged; with stop_at_xb it ends the run
        crossed = (X - pp[PP_XB]) * (X1 - pp[PP_XB]) < 0.0
        if crossed and not stop_at_xb:
            th = _bisect_event(EV_CROSS_XB, h, X, Z, fX, fZ, X1, Z1, fX1, fZ1, pp, asym_tol, x_cap)
            n_ev = _log_event(ev_s, ev_code, n_ev, s + th * h, EV_CROSS_XB)

        # terminal events by precedence: X_B stop > exit of the admissible
        # X-range > asymptote proximity in x = X^(1/k) > blow-up of Z
        code = 0
        if crossed and stop_at_xb:
            code, status = EV_CROSS_XB, ST_XB_STOP
        elif X1 > x_cap:
            code, status = EV_EXITED, ST_EXITED
        elif asym_tol > 0.0 and pp[PP_GAMMA] - kth_root(X1, k) < asym_tol * pp[PP_GAMMA]:
            code, status = EV_ASYMPTOTE, ST_ASYMPTOTE
        elif Z1 > BLOWUP_Z:
            code, status = EV_BLOWUP, ST_BLOWUP
        if code != 0:
            # clip the state to the event point on the Hermite interpolant:
            # the event's own coordinate to its level, the other interpolated
            th = _bisect_event(code, h, X, Z, fX, fZ, X1, Z1, fX1, fZ1, pp, asym_tol, x_cap)
            s1 = s + th * h
            if code == EV_BLOWUP:
                X1, Z1 = _hermite(th, h, X, fX, X1, fX1), BLOWUP_Z
            else:
                Z1 = _hermite(th, h, Z, fZ, Z1, fZ1)
                if code == EV_CROSS_XB:
                    X1 = pp[PP_XB]
                elif code == EV_EXITED:
                    X1 = x_cap
                else:
                    X1 = (pp[PP_GAMMA] - asym_tol * pp[PP_GAMMA]) ** k
            n_ev = _log_event(ev_s, ev_code, n_ev, s1, code)

        s = s1
        X = X1
        Z = Z1
        fX, fZ = fX1, fZ1
        if s > s_out[m - 1]:
            s_out[m] = s
            x_out[m] = X
            z_out[m] = Z
            m += 1
        if code != 0:
            break
        if m >= max_samples:
            status = ST_OVERFLOW
            break

        if Z > z_peak:
            z_peak = Z

        # sustained convergence to the interior attractor B
        if has_b:
            dist = max(abs(X - b_x), abs(Z - b_z))
            rn = max(abs(fX), abs(fZ))
            if dist < conv_dist and rn < CONV_RHS:
                if not math.isfinite(conv_since):
                    conv_since = s
                elif s - conv_since >= CONV_SPAN:
                    n_ev = _log_event(ev_s, ev_code, n_ev, s, EV_CONVERGED)
                    status = ST_CONV_B
                    break
            else:
                conv_since = math.inf

        # collapse onto the Z = 0 axis beyond X_B (orbits toward A or the
        # degenerate line)
        if X > pp[PP_XB] and Z < Z_FLOOR_REL * z_peak:
            n_ev = _log_event(ev_s, ev_code, n_ev, s, EV_CONVERGED)
            status = ST_CONV_AXIS
            break

        # stiffness test on the accepted DOPRI step at the new state
        if not stiff and X > 0.0:
            a, b, c, d = jac(X, Z, pp, prof)
            if h * _spectral_radius(a, b, c, d) > STIFF_HRHO:
                n_limited += 1
                if n_limited >= STIFF_SPAN:
                    stiff = True
                    stiff_from_s = s
            else:
                n_limited = 0

        h = h_next

    n_kept = min(n_ev, EV_CAP)
    return (
        s_out[:m],
        x_out[:m],
        z_out[:m],
        ev_s[:n_kept],
        ev_code[:n_kept],
        n_ev,
        status,
        n_acc,
        n_rej,
        n_rhs,
        h_min,
        stiff_from_s,
    )
