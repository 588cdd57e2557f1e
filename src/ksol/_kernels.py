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

Integrator: DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5, II.10),
an explicit 12-stage pair of order 8 whose error estimate combines
embedded order-5 and order-3 solutions, with PI step-size control. Each
accepted DOP853 step builds its order-7 continuous extension from three
more stages: every event is located on it by bisection, and it supplies
interior samples wherever the cubic Hermite between the step ends would
miss SAMPLE_TOL. Once the step is stability-limited (h times the spectral
radius of the closed-form 2x2 Jacobian above STIFF_HRHO on STIFF_SPAN
consecutive accepted steps) the rest of the run takes RODAS4 steps:
linearly implicit, L-stable, order 4 with an embedded order-3 estimate,
its stage systems solved in closed form. Their events, the terminal
asymptote included, are bisected on the cubic Hermite of the step ends.
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
# stiffness switch: h rho(J) > STIFF_HRHO on STIFF_SPAN consecutive accepted
# steps marks a step held by stability, not accuracy; RODAS4 then takes the
# rest of the run. DOP853's real stability boundary is h |lambda| ~ 6.39,
# DOPRI5's 3.31, for which 1.0 was tuned: the ratio keeps the switch points
STIFF_HRHO = 1.93
STIFF_SPAN = 15
# interior samples: an accepted DOP853 step is cut into pieces short enough
# that the cubic Hermite between consecutive samples stays within
# SAMPLE_TOL, relative, of the order-7 extension at the midpoint
SAMPLE_TOL = 1e-9


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


# DOP853 (Hairer, Norsett & Wanner, dop853.f): 12 stages K0..K11 with K0 the
# derivative at the step start, K12 = f(y1) the FSAL derivative, and
# _Ai_j = a_ij of stage i
_A1_0 = 5.26001519587677318785587544488e-2
_A2_0, _A2_1 = (
    1.97250569845378994544595329183e-2,
    5.91751709536136983633785987549e-2,
)
_A3_0, _A3_2 = (
    2.95875854768068491816892993775e-2,
    8.87627564304205475450678981324e-2,
)
_A4_0, _A4_2, _A4_3 = (
    2.41365134159266685502369798665e-1,
    -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
)
_A5_0, _A5_3, _A5_4 = (
    3.7037037037037037037037037037e-2,
    1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
)
_A6_0, _A6_3, _A6_4, _A6_5 = (
    3.7109375e-2,
    1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2,
    -1.7578125e-2,
)
_A7_0, _A7_3, _A7_4, _A7_5, _A7_6 = (
    3.70920001185047927108779319836e-2,
    1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1,
    -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
)
_A8_0, _A8_3, _A8_4, _A8_5, _A8_6, _A8_7 = (
    6.24110958716075717114429577812e-1,
    -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1,
    -4.34898841810699588477366255144e1,
)
_A9_0, _A9_3, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = (
    4.77662536438264365890433908527e-1,
    -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1,
    -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
)
_A10_0, _A10_3, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    -9.3714243008598732571704021658e-1,
    5.18637242884406370830023853209,
    1.09143734899672957818500254654,
    -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1,
    2.27394870993505042818970056734e1,
    2.49360555267965238987089396762,
    -3.0467644718982195003823669022,
)
_A11_0, _A11_3, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    2.27331014751653820792359768449,
    -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674,
    -8.87285693353062954433549289258,
    1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
)
# the order-8 weights (scipy's A[12], the FSAL row)
_B0, _B5, _B6, _B7, _B8, _B9, _B10, _B11 = (
    5.42937341165687622380535766363e-2,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
)
# the three extra stages of the continuous extension
_A13_0, _A13_6, _A13_7, _A13_8, _A13_9, _A13_10, _A13_11, _A13_12 = (
    5.61675022830479523392909219681e-2,
    2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1,
    -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1,
    8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3,
    -8.298e-3,
)
_A14_0, _A14_5, _A14_6, _A14_7, _A14_10, _A14_11, _A14_12, _A14_13 = (
    3.18346481635021405060768473261e-2,
    2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2,
    -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4,
    3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4,
    1.41312443674632500278074618366e-1,
)
_A15_0, _A15_5, _A15_6, _A15_7, _A15_8, _A15_12, _A15_13, _A15_14 = (
    -4.28896301583791923408573538692e-1,
    -4.69762141536116384314449447206,
    7.68342119606259904184240953878,
    4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1,
    -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149,
    -9.15095847217987001081870187138,
)
# error estimates: order 5 (E5) and order 3 (E3 = B - BHH, where they differ)
_E5_0, _E5_5, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11 = (
    0.1312004499419488073250102996e-1,
    -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
)
_E3_0, _E3_8, _E3_11 = (
    _B0 - 0.244094488188976377952755905512,
    _B8 - 0.733846688281611857341361741547,
    _B11 - 0.220588235294117647058823529412e-1,
)
# continuous extension: F3..F6 = h sum_j D_ij K_j (F0..F2 are the cubic Hermite)
_D3_0, _D3_5, _D3_6, _D3_7, _D3_8, _D3_9, _D3_10, _D3_11, _D3_12, _D3_13, _D3_14, _D3_15 = (
    -0.84289382761090128651353491142e+1,
    0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1,
    0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1,
    -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1,
    0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1,
    0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1,
    -0.44360363875948939664310572000e+1,
)
_D4_0, _D4_5, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13, _D4_14, _D4_15 = (
    0.10427508642579134603413151009e+2,
    0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3,
    -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2,
    0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2,
    -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2,
    -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1,
    0.35816841486394083752465898540e+2,
)
_D5_0, _D5_5, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13, _D5_14, _D5_15 = (
    0.19985053242002433820987653617e+2,
    -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3,
    0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2,
    0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1,
    0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1,
    -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2,
    0.11992291136182789328035130030e+2,
)
_D6_0, _D6_5, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13, _D6_14, _D6_15 = (
    -0.25693933462703749003312586129e+2,
    -0.15418974869023643374053993627e+3,
    -0.23152937917604549567536039109e+3,
    0.35763911791061412378285349910e+3,
    0.93405324183624310003907691704e+2,
    -0.37458323136451633156875139351e+2,
    0.10409964950896230045147246184e+3,
    0.29840293426660503123344363579e+2,
    -0.43533456590011143754432175058e+2,
    0.96324553959188282948394950600e+2,
    -0.39177261675615439165231486172e+2,
    -0.14972683625798562581422125276e+3,
)


@njit
def _dop853_step(X, Z, h, fX, fZ, pp, prof):
    """One DOP853 step from (X, Z) with derivative (fX, fZ) already known.

    Returns (X1, Z1, e5X, e5Z, e3X, e3Z, KX, KZ): the order-8 solution, the
    order-5 and order-3 error estimates, and per component the stages
    K5..K11 and the FSAL derivative K12 at the step end, which the
    continuous extension reuses (K1..K4 enter neither).
    """
    k1x, k1z = rhs(X + h * _A1_0 * fX, Z + h * _A1_0 * fZ, pp, prof)
    k2x, k2z = rhs(X + h * (_A2_0 * fX + _A2_1 * k1x), Z + h * (_A2_0 * fZ + _A2_1 * k1z), pp, prof)
    k3x, k3z = rhs(X + h * (_A3_0 * fX + _A3_2 * k2x), Z + h * (_A3_0 * fZ + _A3_2 * k2z), pp, prof)
    k4x, k4z = rhs(
        X + h * (_A4_0 * fX + _A4_2 * k2x + _A4_3 * k3x),
        Z + h * (_A4_0 * fZ + _A4_2 * k2z + _A4_3 * k3z),
        pp,
        prof,
    )
    k5x, k5z = rhs(
        X + h * (_A5_0 * fX + _A5_3 * k3x + _A5_4 * k4x),
        Z + h * (_A5_0 * fZ + _A5_3 * k3z + _A5_4 * k4z),
        pp,
        prof,
    )
    k6x, k6z = rhs(
        X + h * (_A6_0 * fX + _A6_3 * k3x + _A6_4 * k4x + _A6_5 * k5x),
        Z + h * (_A6_0 * fZ + _A6_3 * k3z + _A6_4 * k4z + _A6_5 * k5z),
        pp,
        prof,
    )
    k7x, k7z = rhs(
        X + h * (_A7_0 * fX + _A7_3 * k3x + _A7_4 * k4x + _A7_5 * k5x + _A7_6 * k6x),
        Z + h * (_A7_0 * fZ + _A7_3 * k3z + _A7_4 * k4z + _A7_5 * k5z + _A7_6 * k6z),
        pp,
        prof,
    )
    k8x, k8z = rhs(
        X + h * (_A8_0 * fX + _A8_3 * k3x + _A8_4 * k4x + _A8_5 * k5x + _A8_6 * k6x + _A8_7 * k7x),
        Z + h * (_A8_0 * fZ + _A8_3 * k3z + _A8_4 * k4z + _A8_5 * k5z + _A8_6 * k6z + _A8_7 * k7z),
        pp,
        prof,
    )
    k9x, k9z = rhs(
        X
        + h
        * (
            _A9_0 * fX + _A9_3 * k3x + _A9_4 * k4x + _A9_5 * k5x + _A9_6 * k6x + _A9_7 * k7x
            + _A9_8 * k8x
        ),
        Z
        + h
        * (
            _A9_0 * fZ + _A9_3 * k3z + _A9_4 * k4z + _A9_5 * k5z + _A9_6 * k6z + _A9_7 * k7z
            + _A9_8 * k8z
        ),
        pp,
        prof,
    )
    k10x, k10z = rhs(
        X
        + h
        * (
            _A10_0 * fX + _A10_3 * k3x + _A10_4 * k4x + _A10_5 * k5x + _A10_6 * k6x
            + _A10_7 * k7x + _A10_8 * k8x + _A10_9 * k9x
        ),
        Z
        + h
        * (
            _A10_0 * fZ + _A10_3 * k3z + _A10_4 * k4z + _A10_5 * k5z + _A10_6 * k6z
            + _A10_7 * k7z + _A10_8 * k8z + _A10_9 * k9z
        ),
        pp,
        prof,
    )
    k11x, k11z = rhs(
        X
        + h
        * (
            _A11_0 * fX + _A11_3 * k3x + _A11_4 * k4x + _A11_5 * k5x + _A11_6 * k6x
            + _A11_7 * k7x + _A11_8 * k8x + _A11_9 * k9x + _A11_10 * k10x
        ),
        Z
        + h
        * (
            _A11_0 * fZ + _A11_3 * k3z + _A11_4 * k4z + _A11_5 * k5z + _A11_6 * k6z
            + _A11_7 * k7z + _A11_8 * k8z + _A11_9 * k9z + _A11_10 * k10z
        ),
        pp,
        prof,
    )
    X1 = X + h * (
        _B0 * fX + _B5 * k5x + _B6 * k6x + _B7 * k7x + _B8 * k8x + _B9 * k9x + _B10 * k10x
        + _B11 * k11x
    )
    Z1 = Z + h * (
        _B0 * fZ + _B5 * k5z + _B6 * k6z + _B7 * k7z + _B8 * k8z + _B9 * k9z + _B10 * k10z
        + _B11 * k11z
    )
    k12x, k12z = rhs(X1, Z1, pp, prof)
    e5x = h * (
        _E5_0 * fX + _E5_5 * k5x + _E5_6 * k6x + _E5_7 * k7x + _E5_8 * k8x + _E5_9 * k9x
        + _E5_10 * k10x + _E5_11 * k11x
    )
    e5z = h * (
        _E5_0 * fZ + _E5_5 * k5z + _E5_6 * k6z + _E5_7 * k7z + _E5_8 * k8z + _E5_9 * k9z
        + _E5_10 * k10z + _E5_11 * k11z
    )
    e3x = h * (
        _E3_0 * fX + _B5 * k5x + _B6 * k6x + _B7 * k7x + _E3_8 * k8x + _B9 * k9x + _B10 * k10x
        + _E3_11 * k11x
    )
    e3z = h * (
        _E3_0 * fZ + _B5 * k5z + _B6 * k6z + _B7 * k7z + _E3_8 * k8z + _B9 * k9z + _B10 * k10z
        + _E3_11 * k11z
    )
    KX = (k5x, k6x, k7x, k8x, k9x, k10x, k11x, k12x)
    KZ = (k5z, k6z, k7z, k8z, k9z, k10z, k11z, k12z)
    return X1, Z1, e5x, e5z, e3x, e3z, KX, KZ


@njit
def _dop853_error(e5x, e5z, e3x, e3z, scX, scZ):
    """Hairer's combined error norm err5^2 / sqrt(err5^2 + 0.01 err3^2) of
    the scaled estimates; the order-3 term damps it where the order-5
    estimate is unreliably small."""
    a = 0.0
    b = 0.0
    if scX > 0.0:
        a += (e5x / scX) ** 2
        b += (e3x / scX) ** 2
    if scZ > 0.0:
        a += (e5z / scZ) ** 2
        b += (e3z / scZ) ** 2
    if a == 0.0 and b == 0.0:
        return 0.0
    return a / math.sqrt(2.0 * (a + 0.01 * b))


@njit
def _dop853_dense(X, Z, h, fX, fZ, X1, Z1, KX, KZ, pp, prof):
    """The order-7 continuous extension of an accepted DOP853 step, as the
    coefficients (F0, ..., F6) of ``_dense`` for X and for Z; its three
    extra stages cost three rhs calls."""
    k5x, k6x, k7x, k8x, k9x, k10x, k11x, k12x = KX
    k5z, k6z, k7z, k8z, k9z, k10z, k11z, k12z = KZ
    k13x, k13z = rhs(
        X
        + h
        * (
            _A13_0 * fX + _A13_6 * k6x + _A13_7 * k7x + _A13_8 * k8x + _A13_9 * k9x
            + _A13_10 * k10x + _A13_11 * k11x + _A13_12 * k12x
        ),
        Z
        + h
        * (
            _A13_0 * fZ + _A13_6 * k6z + _A13_7 * k7z + _A13_8 * k8z + _A13_9 * k9z
            + _A13_10 * k10z + _A13_11 * k11z + _A13_12 * k12z
        ),
        pp,
        prof,
    )
    k14x, k14z = rhs(
        X
        + h
        * (
            _A14_0 * fX + _A14_5 * k5x + _A14_6 * k6x + _A14_7 * k7x + _A14_10 * k10x
            + _A14_11 * k11x + _A14_12 * k12x + _A14_13 * k13x
        ),
        Z
        + h
        * (
            _A14_0 * fZ + _A14_5 * k5z + _A14_6 * k6z + _A14_7 * k7z + _A14_10 * k10z
            + _A14_11 * k11z + _A14_12 * k12z + _A14_13 * k13z
        ),
        pp,
        prof,
    )
    k15x, k15z = rhs(
        X
        + h
        * (
            _A15_0 * fX + _A15_5 * k5x + _A15_6 * k6x + _A15_7 * k7x + _A15_8 * k8x
            + _A15_12 * k12x + _A15_13 * k13x + _A15_14 * k14x
        ),
        Z
        + h
        * (
            _A15_0 * fZ + _A15_5 * k5z + _A15_6 * k6z + _A15_7 * k7z + _A15_8 * k8z
            + _A15_12 * k12z + _A15_13 * k13z + _A15_14 * k14z
        ),
        pp,
        prof,
    )
    cx = _extension(h, X, X1, fX, KX, k13x, k14x, k15x)
    cz = _extension(h, Z, Z1, fZ, KZ, k13z, k14z, k15z)
    return cx, cz


@njit
def _extension(h, y0, y1, k0, K, k13, k14, k15):
    """(F0, ..., F6) of one component: the cubic Hermite terms and the four
    order-7 corrections F3..F6 = h sum_j D_ij k_j."""
    k5, k6, k7, k8, k9, k10, k11, k12 = K
    f0, f1, f2, _f3, _f4, _f5, _f6 = _hermite_coeffs(h, y0, k0, y1, k12)
    return (
        f0,
        f1,
        f2,
        h
        * (
            _D3_0 * k0 + _D3_5 * k5 + _D3_6 * k6 + _D3_7 * k7 + _D3_8 * k8 + _D3_9 * k9
            + _D3_10 * k10 + _D3_11 * k11 + _D3_12 * k12 + _D3_13 * k13 + _D3_14 * k14
            + _D3_15 * k15
        ),
        h
        * (
            _D4_0 * k0 + _D4_5 * k5 + _D4_6 * k6 + _D4_7 * k7 + _D4_8 * k8 + _D4_9 * k9
            + _D4_10 * k10 + _D4_11 * k11 + _D4_12 * k12 + _D4_13 * k13 + _D4_14 * k14
            + _D4_15 * k15
        ),
        h
        * (
            _D5_0 * k0 + _D5_5 * k5 + _D5_6 * k6 + _D5_7 * k7 + _D5_8 * k8 + _D5_9 * k9
            + _D5_10 * k10 + _D5_11 * k11 + _D5_12 * k12 + _D5_13 * k13 + _D5_14 * k14
            + _D5_15 * k15
        ),
        h
        * (
            _D6_0 * k0 + _D6_5 * k5 + _D6_6 * k6 + _D6_7 * k7 + _D6_8 * k8 + _D6_9 * k9
            + _D6_10 * k10 + _D6_11 * k11 + _D6_12 * k12 + _D6_13 * k13 + _D6_14 * k14
            + _D6_15 * k15
        ),
    )


@njit
def _sample_count(cx, cz, magX, magZ):
    """Pieces of a DOP853 step between emitted samples. At theta = 1/2 the
    extension exceeds the cubic Hermite by (F3 + (F4 + (F5 + F6/2)/2)/2)/16;
    that gap shrinks with the fourth power of the piece length."""
    gap = 0.0
    if magX > 0.0:
        gap = abs(cx[3] + 0.5 * (cx[4] + 0.5 * (cx[5] + 0.5 * cx[6]))) / magX
    if magZ > 0.0:
        gap = max(gap, abs(cz[3] + 0.5 * (cz[4] + 0.5 * (cz[5] + 0.5 * cz[6]))) / magZ)
    gap *= 0.0625
    if not SAMPLE_TOL < gap < math.inf:
        return 1
    return int(math.ceil((gap / SAMPLE_TOL) ** 0.25))


@njit
def _hermite_coeffs(h, y0, f0, y1, f1):
    """The cubic Hermite through (y0, f0) and (y1, f1) in the form of
    ``_dense``: the first three coefficients, the corrections zero."""
    d = y1 - y0
    return (d, h * f0 - d, 2.0 * d - h * (f0 + f1), 0.0, 0.0, 0.0, 0.0)


@njit
def _dense(theta, y0, c):
    """Dense output y0 + theta (F0 + (1-theta) (F1 + theta (F2 + ...))) at
    theta in [0, 1] of a step, for coefficients c = (F0, ..., F6)."""
    t1 = 1.0 - theta
    inner = c[3] + theta * (c[4] + t1 * (c[5] + theta * c[6]))
    return y0 + theta * (c[0] + t1 * (c[1] + theta * (c[2] + t1 * inner)))


@njit
def _hermite(theta, h, y0, f0, y1, f1):
    """Cubic Hermite dense output on one step, theta in [0, 1]."""
    return _dense(theta, y0, _hermite_coeffs(h, y0, f0, y1, f1))


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
    rule. Returns (X1, Z1, errX, errZ, fX1, fZ1): the order-4 solution, its
    error against the order-3 one, and the derivative at the step end, one
    extra rhs call.
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
def _bisect_event(code, X0, Z0, cx, cz, pp, asym_tol, x_cap):
    """Bisection for the event root on the step's dense output (coefficients
    cx, cz of ``_dense``); returns theta."""
    lo = 0.0
    hi = 1.0
    vlo = _event_value(code, X0, Z0, pp, asym_tol, x_cap)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        vm = _event_value(code, _dense(mid, X0, cx), _dense(mid, Z0, cz), pp, asym_tol, x_cap)
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
    n_limited = 0  # consecutive accepted DOP853 steps with h rho(J) > STIFF_HRHO
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
            n_rhs += 6
        else:
            X1, Z1, e5x, e5z, e3x, e3z, KX, KZ = _dop853_step(X, Z, h, fX, fZ, pp, prof)
            fX1 = KX[7]
            fZ1 = KZ[7]
            n_rhs += 12

        # a vanishing scale only happens for an identically-zero component
        # (the invariant Z = 0 axis), which then carries no error
        magX = max(abs(X), abs(X1))
        magZ = max(abs(Z), abs(Z1))
        scX = rtol * magX
        scZ = rtol * magZ
        if stiff:
            ex = errX / scX if scX > 0.0 else 0.0
            ez = errZ / scZ if scZ > 0.0 else 0.0
            err = math.sqrt(0.5 * (ex * ex + ez * ez))
        else:
            err = _dop853_error(e5x, e5z, e3x, e3z, scX, scZ)
        bad_state = (X1 < 0.0) or (Z1 < 0.0) or (not math.isfinite(X1)) or (not math.isfinite(Z1))
        if err > 1.0 or bad_state:
            n_rej += 1
            if bad_state:
                fac = 0.2
            else:
                fac = max(0.2, 0.9 * err ** (-0.25 if stiff else -0.125))
            h *= fac
            continue

        # accepted; PI controller for DOP853 (the order-5 exponents 0.7/5 and
        # 0.4/5 rescaled to order 8), I controller for RODAS4 (an exact step,
        # err = 0, takes the largest growth the clip allows)
        n_acc += 1
        if n_acc == 1 or h < h_min:
            h_min = h
        if err == 0.0:
            fac = 5.0
        else:
            fac = 0.9 * err**-0.25 if stiff else 0.9 * err**-0.0875 * err_prev**0.05
            if fac > 5.0:
                fac = 5.0
            if fac < 0.2:
                fac = 0.2
        h_next = min(h * fac, max_step)
        err_prev = max(err, 1e-10)
        s1 = s + h

        # dense output of the step: the order-7 extension after DOP853, which
        # also sets how many samples the step emits, the cubic Hermite of the
        # step ends after RODAS4
        n_sub = 1
        if stiff:
            cx = _hermite_coeffs(h, X, fX, X1, fX1)
            cz = _hermite_coeffs(h, Z, fZ, Z1, fZ1)
        else:
            cx, cz = _dop853_dense(X, Z, h, fX, fZ, X1, Z1, KX, KZ, pp, prof)
            n_rhs += 3
            n_sub = _sample_count(cx, cz, magX, magZ)

        # a crossing of X = X_B is logged; with stop_at_xb it ends the run
        crossed = (X - pp[PP_XB]) * (X1 - pp[PP_XB]) < 0.0
        if crossed and not stop_at_xb:
            th = _bisect_event(EV_CROSS_XB, X, Z, cx, cz, pp, asym_tol, x_cap)
            n_ev = _log_event(ev_s, ev_code, n_ev, s + th * h, EV_CROSS_XB)

        # terminal events by precedence: X_B stop > exit of the admissible
        # X-range > asymptote proximity in x = X^(1/k) > blow-up of Z
        code = 0
        th = 1.0
        if crossed and stop_at_xb:
            code, status = EV_CROSS_XB, ST_XB_STOP
        elif X1 > x_cap:
            code, status = EV_EXITED, ST_EXITED
        elif asym_tol > 0.0 and pp[PP_GAMMA] - kth_root(X1, k) < asym_tol * pp[PP_GAMMA]:
            code, status = EV_ASYMPTOTE, ST_ASYMPTOTE
        elif Z1 > BLOWUP_Z:
            code, status = EV_BLOWUP, ST_BLOWUP
        if code != 0:
            # clip the state to the event point on the dense output: the
            # event's own coordinate to its level, the other interpolated
            th = _bisect_event(code, X, Z, cx, cz, pp, asym_tol, x_cap)
            s1 = s + th * h
            if code == EV_BLOWUP:
                X1, Z1 = _dense(th, X, cx), BLOWUP_Z
            else:
                Z1 = _dense(th, Z, cz)
                if code == EV_CROSS_XB:
                    X1 = pp[PP_XB]
                elif code == EV_EXITED:
                    X1 = x_cap
                else:
                    X1 = (pp[PP_GAMMA] - asym_tol * pp[PP_GAMMA]) ** k
            n_ev = _log_event(ev_s, ev_code, n_ev, s1, code)

        # interior samples at equal fractions of the step (of its part
        # before a terminal event), then the step end; the buffer keeps room
        # for the end sample
        n_sub = min(n_sub, max_samples - m)
        for j in range(1, n_sub):
            tj = th * j / n_sub
            sj = s + tj * h
            if sj > s_out[m - 1]:
                s_out[m] = sj
                x_out[m] = _dense(tj, X, cx)
                z_out[m] = _dense(tj, Z, cz)
                m += 1
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

        # stiffness test on the accepted DOP853 step at the new state
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
