"""Hot numeric kernels: the adaptive integrator with event location, and
its private scalar copy of the phase-plane field and its Jacobian.

Everything here reads its parameters from the tuple of PP_SIZE floats that
``pack_params`` builds, and does its scalar work on Python floats with the
``math`` module, so the same source compiles under numba and runs as plain
Python wherever numba is absent (or KSOL_DISABLE_JIT=1); uncompiled, an
operation on numpy scalars costs several times as much as on floats, for
the same IEEE result. numba cannot call the array evaluators of ``phase``, so
``kth_root``, ``rhs`` and ``jac`` repeat them for the integrator alone.
``rhs`` and ``jac`` evaluate the field in one straight line, with no helper
call: at k = 1, where x = X and g^k = g, they take neither the root nor the
power loop, and the step loop's asymptote test reads X itself. At k = 2 they
take x = sqrt(X), which IEEE 754 rounds correctly, so math.sqrt and np.sqrt
agree bit for bit, and g^2 = g * g, again with no power loop. At k >= 3
``kth_root`` keeps numpy's exp and log: they round differently from libm's
on some inputs, and ``phase.kth_root`` must agree with it bit for bit on
arrays.

Chart: the integrator's state is (X, W), W = ln(c_nk beta^k Z), where
X_s = -(n-2k)(1 - x/x_A) X + e^W q g^k and W_s = 2k (1 - x/x_B) depends on
x alone: the exponential arcs of Z are straight lines in W. X's error is
held relative to X and W's absolutely, both at rtol, which is to first
order the relative control of Z. The axis Z = 0 is W = -inf, where W stays.
The samples are returned in Z = e^W/(c_nk beta^k), and the threshold on Z
(Z_FLOOR_REL) is applied as its exact image. Below EXP_W_MIN, where e^W
would lose its bits to underflow, the f-term and Z are summed from logs.
No bound on Z stops a run: W grows only linearly up the asymptote, and a
step whose e^W would overflow (W > EXP_W_MAX) is rejected as a bad state,
so the step floor is the one stop left there.

Integrator: DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5, II.10),
an explicit 12-stage pair of order 8 whose error estimate combines
embedded order-5 and order-3 solutions, with PI step-size control. Each
accepted DOP853 step builds its order-7 continuous extension from three
more stages. Once the step is stability-limited on STIFF_SPAN consecutive
accepted steps (h times the spectral radius of the closed-form 2x2 Jacobian
above STIFF_HRHO, or above STIFF_HRHO_SHRINK on a step shorter than the one
before) the rest of the run takes five-stage Radau IIA steps (Hairer &
Wanner, Solving ODEs II, IV.8, and "Stiff differential equations solved
by Radau methods", 1999; the structure of scipy's radau.py): implicit,
L-stable and stiffly accurate, order 9 with stage order 5, so it keeps its
order on the stiff arcs, where the stage order 1 of Rosenbrock methods
loses it (IV.7, IV.15). Simplified Newton solves its collocation system as
one real and two complex 2x2 systems by Cramer's rule, starting from the
previous step's collocation quintic, with the Jacobian at that start's
third stage, near the middle of the step: up the asymptote the stiff
eigenvalue grows like e^W across a step, and at the step start it slowed
Newton down and made it fail on longer steps. The same Jacobian gives
Hairer's filtered estimate, of order 5, for the error, and Gustafsson's
predictive controller gives the next step. A Newton failure halves the
step, or retries it from the zero start where the extrapolated start
failed on a step no longer than the last, which moved the state; the step
after a failure does not grow where the state moves. Both methods have a
dense output: the order-7 extension, the collocation quintic. Every event
is located on it by bisection, and it supplies interior samples wherever
the cubic Hermite between the step ends would miss SAMPLE_TOL in (X, W),
Radau's at its collocation nodes, where the quintic's slope is the
field's. So the steps are limited by accuracy, up to MAX_STEP.

Hand-over: up the asymptote of an expander or a steady soliton (n > 2k) the
run need not be integrated to its end. Given the slow-manifold series of
``manifold`` packed as floats (SM_* layout), the step loop ends the run
ST_SERIES at the first accepted step past the series' least W whose end lies
within rtol X of it (``_on_series``); the series gives the rest of the trace.

Ends at B: where B attracts the run, its one end there is certified_B, at
the first upward crossing of X = X_B where ``certifies_b`` proves
convergence from that return and the one before (Bendixson-Dulac and
Poincare-Bendixson). A run that no such return reaches (a node the funnel
at the Picard hand-off refuses) goes on to s_max.
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
PP_XCAP = 5  # min(gamma^k, X_A)
PP_NUM_A = 6  # the chart's profile numerator num_a + num_b x:
PP_NUM_B = 7  # (gamma, -1) for f, (nu, +1) for the A-chart h
PP_XA_ROOT = 8  # x_A = (n+2k)/k
PP_XB_ROOT = 9  # x_B = (n+2k)/(2k)
PP_BZ = 10  # Z_B where B attracts the run, else 0.0
PP_SIZE = 11

# the slow-manifold series the run hands over to (``manifold.SlowManifold``),
# as ``pack_series`` packs it
SM_W_MIN = 0
SM_TERMS = 1
SM_COEF = 2
SM_MAX_TERMS = 24
SM_SIZE = SM_COEF + SM_MAX_TERMS

# terminal status codes
ST_SMAX = 0
ST_ASYMPTOTE = 1
ST_EXITED = 2
ST_CONV_AXIS = 4
ST_CERT_B = 5
ST_STEP_FLOOR = 6
ST_XB_STOP = 7
ST_OVERFLOW = 8
ST_SERIES = 9  # handed over to the slow-manifold series (``manifold``)

# event codes logged along a trace
EV_CROSS_XB = 1
EV_ASYMPTOTE = 2
EV_EXITED = 3
EV_CONVERGED = 4
EV_CERTIFIED = 5
EV_STEP_FLOOR = 6

# integrator settings no caller varies (numba freezes module globals at
# compile time)
# Z collapses toward the axis much faster than X finishes its approach
# (rates 2k vs |n-2k|); a deep floor keeps the measured X_inf and the
# tail-rate window inside the asymptotic regime
Z_FLOOR_REL = 1e-26
# the error bound of the Poincare-return certificate on the Z of an upward
# X_B crossing: CERT_SAFETY rtol Z per accepted step since the run's start.
# Against scipy Radau (rtol 1e-13) the crossings of (4,1,5), (5,2,1) and
# (4,1,10) lie within 0.0064 rtol Z per step, 1/1,500 of the bound
CERT_SAFETY = 10.0
# the longest step. Its samples come from the dense output; only the end
# tested at step ends, converged_axis, needs a cap: it keeps a run read off
# a shared continuation within MAX_STEP of its own run
MAX_STEP = 1.0
EV_CAP = 512  # logged events kept; later ones are only counted
# a sign change of X - X_B between step ends that both lie within XB_ROUND
# X_B of X_B (4.5 to 9 ulps) is rounding and no crossing: held at B, the
# state lands an ulp either side of X_B from one step to the next
XB_ROUND = 1e-15
# stiffness switch: Radau takes the rest of the run once STIFF_SPAN
# consecutive accepted DOP853 steps were each held by stability, that is
# h rho(J) > STIFF_HRHO, or h rho(J) > STIFF_HRHO_SHRINK with h shorter than
# the step before. DOP853's real stability boundary is h |lambda| ~ 6.39,
# DOPRI5's 3.31, for which 1.0 was tuned: the ratio gives STIFF_HRHO. Up
# the asymptote rho(J) grows with Z, and DOP853's steps shrink as
# h ~ rho^-0.58 long before h rho(J) reaches STIFF_HRHO ((4,1,-1): from
# h rho = 0.46 to 1.95 over 350 steps); the shrinking route hands those arcs
# over there. Lowering STIFF_HRHO to 0.75 instead hands spirals into B to
# Radau ((4,1,5): 241 to 351 steps), and the shrinking route alone
# relabels four (64,8) corpus runs
STIFF_HRHO = 1.93
STIFF_HRHO_SHRINK = 0.5
STIFF_SPAN = 15
# interior samples: an accepted step is cut into pieces short enough that
# the cubic Hermite between consecutive samples, through the field there,
# stays within SAMPLE_TOL of the dense output at the midpoint, relative in
# X and absolute in W (relative in Z); a Radau step's pieces end at its
# collocation nodes
SAMPLE_TOL = 1e-9
# e^W overflows beyond this; the field takes e^W = inf there, a bad state
EXP_W_MAX = 709.0
# below this, e^W nears the subnormal range (from W = -708.4) and then
# underflows to 0, so the field forms its f-term e^W q g^k as
# exp(W + ln(q g^k)), and a sample's Z = e^W/(c_nk beta^k) as
# exp(W - ln(c_nk beta^k)); above it, both keep the product form
EXP_W_MIN = -700.0


def pack_params(p):
    """The parameters the kernels read from ``p`` in its chart, as a tuple of
    PP_SIZE = 11 floats in the PP_* order; numba types it as
    UniTuple(float64, 11)."""
    return (
        float(p.n),
        float(p.k),
        float(p.gamma),
        float(p.cb),
        float(p.X_B),
        float(p.x_cap),
        float(p.num_a),
        float(p.num_b),
        float(p.x_A),
        float(p.x_B),
        float(p.Z_B) if p.b_attracts else 0.0,
    )


def pack_series(W_min, coefficients):
    """The slow-manifold series the kernels read, as a tuple of SM_SIZE
    floats in the SM_* order: the least W of a hand-over, the number N of
    ``coefficients`` (at most SM_MAX_TERMS), C_0 .. C_(N-1) and zeros; numba
    types it as UniTuple(float64, SM_SIZE)."""
    coef = [float(c) for c in coefficients]
    return (float(W_min), float(len(coef)), *coef) + (0.0,) * (SM_MAX_TERMS - len(coef))


# no series: no W reaches the least W of a hand-over
NO_SERIES = pack_series(math.inf, ())


@njit
def kth_root(value, k):
    """x^(1/k), 0 at x <= 0 and NaN passed through: at k = 1 the value
    itself, at k = 2 the correctly rounded sqrt, at k >= 3 exp(ln x / k).
    math.sqrt and np.sqrt both round correctly, and numpy's exp and log
    round alike on scalars and arrays, so this agrees bit for bit with
    ``phase.kth_root`` on arrays; the quotient is taken on a Python float,
    the same IEEE division as on numpy's scalar."""
    if value <= 0.0:
        return 0.0
    if k == 1:
        return value
    if k == 2:
        return math.sqrt(value)
    return float(np.exp(float(np.log(value)) / k))


@njit
def rhs(X, W, pp):
    """(X_s, W_s) in the log chart W = ln(c_nk beta^k Z): e^W q g^k is the
    term Z f(x) of X_s, and W_s = Z_s/Z = 2k (1 - x/x_B) depends on x alone.
    Packed in the A chart, this is the reversed A-chart field in
    (W-, ln(c_nk beta^k V-)). At k = 1, x is X and g^k is g: neither the
    root nor the power loop runs. At k = 2, x is sqrt(X) and g^k is g * g,
    the product the loop forms. Every other operation is the same. Below
    EXP_W_MIN the f-term is exp(W + ln(q g^k)), where q g^k > 0."""
    n = pp[PP_N]
    k = pp[PP_K]
    if k == 1.0:
        x = 0.0 if X <= 0.0 else X
    elif k == 2.0:
        x = 0.0 if X <= 0.0 else math.sqrt(X)
    else:
        x = kth_root(X, k)
    q = 1.0 - x / pp[PP_XA_ROOT]
    g = (pp[PP_NUM_A] + pp[PP_NUM_B] * x) / q
    gk = g
    if k != 1.0:
        if k == 2.0:
            gk = g * g
        else:
            for _ in range(int(k) - 1):
                gk *= g
    fq = q * gk
    if W < EXP_W_MIN and fq > 0.0:
        fz = math.exp(W + math.log(fq))
    else:
        fz = (math.exp(W) if W < EXP_W_MAX else math.inf) * fq
    F = -(n - 2.0 * k) * q * X + fz
    return F, 2.0 * k * (1.0 - x / pp[PP_XB_ROOT])


@njit
def jac(X, W, pp):
    """Jacobian of ``rhs`` at X > 0 as (dF/dX, dF/dW, dW_s/dX, dW_s/dW): the
    entries of ``phase.jacobian`` in the log chart, with dF/dW = e^W q g^k
    the f-term of F and dW_s/dW = 0; X^((1-k)/k) is x/X, and 1 at k = 1,
    where x and g^(k-1) = 1 take no root and no power loop. At k = 2, x is
    sqrt(X) and g^(k-1) is g, with no power loop either."""
    n = pp[PP_N]
    k = pp[PP_K]
    m = (n - 2.0 * k) / (n + 2.0 * k)
    if k == 1.0:
        x = 0.0 if X <= 0.0 else X
        xpow = 1.0
    else:
        if k == 2.0:
            x = 0.0 if X <= 0.0 else math.sqrt(X)
        else:
            x = kth_root(X, k)
        xpow = x / X
    q = 1.0 - x / pp[PP_XA_ROOT]
    g = (pp[PP_NUM_A] + pp[PP_NUM_B] * x) / q
    g_km1 = 1.0
    if k != 1.0:
        g_km1 = g
        if k != 2.0:
            for _ in range(int(k) - 2):
                g_km1 *= g
    ez = math.exp(W) if W < EXP_W_MAX else math.inf
    slope = k * g_km1 * (((k - 1.0) / (n + 2.0 * k)) * g + pp[PP_NUM_B])
    dFdX = (2.0 * k - n) + m * (k + 1.0) * x + ez * (slope * xpow / k)
    # the f-term of rhs, in the same product order and form
    fq = q * (g_km1 * g)
    dFdW = math.exp(W + math.log(fq)) if W < EXP_W_MIN and fq > 0.0 else ez * fq
    dGdX = -(1.0 - m) * xpow
    return dFdX, dFdW, dGdX, 0.0


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
def _dop853_step(X, W, h, fX, fW, pp):
    """One DOP853 step from (X, W) with derivative (fX, fW) already known.

    Returns (X1, W1, e5X, e5W, e3X, e3W, KX, KW): the order-8 solution, the
    order-5 and order-3 error estimates, and per component the stages
    K5..K11 and the FSAL derivative K12 at the step end, which the
    continuous extension reuses (K1..K4 enter neither).
    """
    k1x, k1w = rhs(X + h * _A1_0 * fX, W + h * _A1_0 * fW, pp)
    k2x, k2w = rhs(X + h * (_A2_0 * fX + _A2_1 * k1x), W + h * (_A2_0 * fW + _A2_1 * k1w), pp)
    k3x, k3w = rhs(X + h * (_A3_0 * fX + _A3_2 * k2x), W + h * (_A3_0 * fW + _A3_2 * k2w), pp)
    k4x, k4w = rhs(
        X + h * (_A4_0 * fX + _A4_2 * k2x + _A4_3 * k3x),
        W + h * (_A4_0 * fW + _A4_2 * k2w + _A4_3 * k3w),
        pp,
    )
    k5x, k5w = rhs(
        X + h * (_A5_0 * fX + _A5_3 * k3x + _A5_4 * k4x),
        W + h * (_A5_0 * fW + _A5_3 * k3w + _A5_4 * k4w),
        pp,
    )
    k6x, k6w = rhs(
        X + h * (_A6_0 * fX + _A6_3 * k3x + _A6_4 * k4x + _A6_5 * k5x),
        W + h * (_A6_0 * fW + _A6_3 * k3w + _A6_4 * k4w + _A6_5 * k5w),
        pp,
    )
    k7x, k7w = rhs(
        X + h * (_A7_0 * fX + _A7_3 * k3x + _A7_4 * k4x + _A7_5 * k5x + _A7_6 * k6x),
        W + h * (_A7_0 * fW + _A7_3 * k3w + _A7_4 * k4w + _A7_5 * k5w + _A7_6 * k6w),
        pp,
    )
    k8x, k8w = rhs(
        X + h * (_A8_0 * fX + _A8_3 * k3x + _A8_4 * k4x + _A8_5 * k5x + _A8_6 * k6x + _A8_7 * k7x),
        W + h * (_A8_0 * fW + _A8_3 * k3w + _A8_4 * k4w + _A8_5 * k5w + _A8_6 * k6w + _A8_7 * k7w),
        pp,
    )
    k9x, k9w = rhs(
        X
        + h
        * (
            _A9_0 * fX + _A9_3 * k3x + _A9_4 * k4x + _A9_5 * k5x + _A9_6 * k6x + _A9_7 * k7x
            + _A9_8 * k8x
        ),
        W
        + h
        * (
            _A9_0 * fW + _A9_3 * k3w + _A9_4 * k4w + _A9_5 * k5w + _A9_6 * k6w + _A9_7 * k7w
            + _A9_8 * k8w
        ),
        pp,
    )
    k10x, k10w = rhs(
        X
        + h
        * (
            _A10_0 * fX + _A10_3 * k3x + _A10_4 * k4x + _A10_5 * k5x + _A10_6 * k6x
            + _A10_7 * k7x + _A10_8 * k8x + _A10_9 * k9x
        ),
        W
        + h
        * (
            _A10_0 * fW + _A10_3 * k3w + _A10_4 * k4w + _A10_5 * k5w + _A10_6 * k6w
            + _A10_7 * k7w + _A10_8 * k8w + _A10_9 * k9w
        ),
        pp,
    )
    k11x, k11w = rhs(
        X
        + h
        * (
            _A11_0 * fX + _A11_3 * k3x + _A11_4 * k4x + _A11_5 * k5x + _A11_6 * k6x
            + _A11_7 * k7x + _A11_8 * k8x + _A11_9 * k9x + _A11_10 * k10x
        ),
        W
        + h
        * (
            _A11_0 * fW + _A11_3 * k3w + _A11_4 * k4w + _A11_5 * k5w + _A11_6 * k6w
            + _A11_7 * k7w + _A11_8 * k8w + _A11_9 * k9w + _A11_10 * k10w
        ),
        pp,
    )
    X1 = X + h * (
        _B0 * fX + _B5 * k5x + _B6 * k6x + _B7 * k7x + _B8 * k8x + _B9 * k9x + _B10 * k10x
        + _B11 * k11x
    )
    W1 = W + h * (
        _B0 * fW + _B5 * k5w + _B6 * k6w + _B7 * k7w + _B8 * k8w + _B9 * k9w + _B10 * k10w
        + _B11 * k11w
    )
    k12x, k12w = rhs(X1, W1, pp)
    e5x = h * (
        _E5_0 * fX + _E5_5 * k5x + _E5_6 * k6x + _E5_7 * k7x + _E5_8 * k8x + _E5_9 * k9x
        + _E5_10 * k10x + _E5_11 * k11x
    )
    e5w = h * (
        _E5_0 * fW + _E5_5 * k5w + _E5_6 * k6w + _E5_7 * k7w + _E5_8 * k8w + _E5_9 * k9w
        + _E5_10 * k10w + _E5_11 * k11w
    )
    e3x = h * (
        _E3_0 * fX + _B5 * k5x + _B6 * k6x + _B7 * k7x + _E3_8 * k8x + _B9 * k9x + _B10 * k10x
        + _E3_11 * k11x
    )
    e3w = h * (
        _E3_0 * fW + _B5 * k5w + _B6 * k6w + _B7 * k7w + _E3_8 * k8w + _B9 * k9w + _B10 * k10w
        + _E3_11 * k11w
    )
    KX = (k5x, k6x, k7x, k8x, k9x, k10x, k11x, k12x)
    KW = (k5w, k6w, k7w, k8w, k9w, k10w, k11w, k12w)
    return X1, W1, e5x, e5w, e3x, e3w, KX, KW


@njit
def _dop853_error(e5x, e5w, e3x, e3w, scX, scW):
    """Hairer's combined error norm err5^2 / sqrt(err5^2 + 0.01 err3^2) of
    the scaled estimates; the order-3 term damps it where the order-5
    estimate is unreliably small."""
    a = 0.0
    b = 0.0
    if scX > 0.0:
        a += (e5x / scX) ** 2
        b += (e3x / scX) ** 2
    if scW > 0.0:
        a += (e5w / scW) ** 2
        b += (e3w / scW) ** 2
    if a == 0.0 and b == 0.0:
        return 0.0
    return a / math.sqrt(2.0 * (a + 0.01 * b))


@njit
def _dop853_dense(X, W, h, fX, fW, X1, W1, KX, KW, pp):
    """The order-7 continuous extension of an accepted DOP853 step, as the
    coefficients (F0, ..., F6) of ``_dense`` for X and for W; its three
    extra stages cost three rhs calls."""
    k5x, k6x, k7x, k8x, k9x, k10x, k11x, k12x = KX
    k5w, k6w, k7w, k8w, k9w, k10w, k11w, k12w = KW
    k13x, k13w = rhs(
        X
        + h
        * (
            _A13_0 * fX + _A13_6 * k6x + _A13_7 * k7x + _A13_8 * k8x + _A13_9 * k9x
            + _A13_10 * k10x + _A13_11 * k11x + _A13_12 * k12x
        ),
        W
        + h
        * (
            _A13_0 * fW + _A13_6 * k6w + _A13_7 * k7w + _A13_8 * k8w + _A13_9 * k9w
            + _A13_10 * k10w + _A13_11 * k11w + _A13_12 * k12w
        ),
        pp,
    )
    k14x, k14w = rhs(
        X
        + h
        * (
            _A14_0 * fX + _A14_5 * k5x + _A14_6 * k6x + _A14_7 * k7x + _A14_10 * k10x
            + _A14_11 * k11x + _A14_12 * k12x + _A14_13 * k13x
        ),
        W
        + h
        * (
            _A14_0 * fW + _A14_5 * k5w + _A14_6 * k6w + _A14_7 * k7w + _A14_10 * k10w
            + _A14_11 * k11w + _A14_12 * k12w + _A14_13 * k13w
        ),
        pp,
    )
    k15x, k15w = rhs(
        X
        + h
        * (
            _A15_0 * fX + _A15_5 * k5x + _A15_6 * k6x + _A15_7 * k7x + _A15_8 * k8x
            + _A15_12 * k12x + _A15_13 * k13x + _A15_14 * k14x
        ),
        W
        + h
        * (
            _A15_0 * fW + _A15_5 * k5w + _A15_6 * k6w + _A15_7 * k7w + _A15_8 * k8w
            + _A15_12 * k12w + _A15_13 * k13w + _A15_14 * k14w
        ),
        pp,
    )
    cx = _extension(h, X, X1, fX, KX, k13x, k14x, k15x)
    cw = _extension(h, W, W1, fW, KW, k13w, k14w, k15w)
    return cx, cw


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
def _sample_count(cx, cw, magX, magW):
    """Pieces of a DOP853 step between emitted samples. At theta = 1/2 the
    extension exceeds the cubic Hermite by (F3 + (F4 + (F5 + F6/2)/2)/2)/16;
    that gap shrinks with the fourth power of the piece length."""
    gap = 0.0
    if magX > 0.0:
        gap = abs(cx[3] + 0.5 * (cx[4] + 0.5 * (cx[5] + 0.5 * cx[6]))) / magX
    if magW > 0.0:
        gap = max(gap, abs(cw[3] + 0.5 * (cw[4] + 0.5 * (cw[5] + 0.5 * cw[6]))) / magW)
    gap *= 0.0625
    if not SAMPLE_TOL < gap < math.inf:
        return 1
    return int(math.ceil((gap / SAMPLE_TOL) ** 0.25))


@njit
def _quintic_miss(cx, cw, magX, magW, ta, tb):
    """How far the cubic Hermite through the collocation quintic's values and
    slopes at the fractions ta and tb of a Radau step misses the quintic at
    the midpoint, X relative (to magX) and W absolute (magW): a^4/16 times
    u^(4)/24 = F3 - 2 F4 + 5 F4 t for a = tb - ta, which is linear in t and
    so at most its larger value at ta or tb."""
    a4 = (tb - ta) ** 4 / 16.0
    miss = 0.0
    if magX > 0.0:
        d4 = cx[3] - 2.0 * cx[4]
        miss = a4 * max(abs(d4 + 5.0 * cx[4] * ta), abs(d4 + 5.0 * cx[4] * tb)) / magX
    if magW > 0.0:
        d4 = cw[3] - 2.0 * cw[4]
        miss = max(miss, a4 * max(abs(d4 + 5.0 * cw[4] * ta), abs(d4 + 5.0 * cw[4] * tb)) / magW)
    return miss


@njit
def _quintic_slope(theta, c):
    """The derivative in theta of the collocation quintic with coefficients
    c of ``_dense``, from its monomial coefficients F0 + F1,
    F2 + F3 - F1, F4 - F2 - 2 F3, F3 - 2 F4 and F4."""
    q3 = c[4] - c[2] - 2.0 * c[3]
    q4 = c[3] - 2.0 * c[4]
    inner = 3.0 * q3 + theta * (4.0 * q4 + theta * 5.0 * c[4])
    return c[0] + c[1] + theta * (2.0 * (c[2] + c[3] - c[1]) + theta * inner)


@njit
def _hermite_coeffs(h, y0, f0, y1, f1):
    """The cubic Hermite through (y0, f0) and (y1, f1) in the form of
    ``_dense``: the first three coefficients, the corrections zero. Equal
    ends give d = 0, also at W = -inf on the invariant axis."""
    d = y1 - y0 if y1 != y0 else 0.0
    return (d, h * f0 - d, 2.0 * d - h * (f0 + f1), 0.0, 0.0, 0.0, 0.0)


@njit
def _dense(theta, y0, c):
    """Dense output y0 + theta (F0 + (1-theta) (F1 + theta (F2 + ...))) at
    theta in [0, 1] of a step, for coefficients c = (F0, ..., F6)."""
    t1 = 1.0 - theta
    inner = c[3] + theta * (c[4] + t1 * (c[5] + theta * c[6]))
    return y0 + theta * (c[0] + t1 * (c[1] + theta * (c[2] + t1 * inner)))


# Radau IIA of order 9 (Hairer & Wanner, Solving ODEs II, IV.8; the
# five-stage method of Hairer's radau.f): the nodes C1..C4 (C5 = 1), the
# eigenvalues of the inverse of the stage matrix (one real, two complex
# pairs MU1, MU2), the transformation T that block-diagonalises it (rows 1-4;
# the fifth is (1, 1, 0, 1, 0)), TI's first row and its rows 2 + i 3 and
# 4 + i 5, and the rows P1..P4 that map the stage increments to the
# coefficients F1..F4 of the collocation quintic in the form of ``_dense``
_C1, _C2, _C3, _C4 = 0.05710419611451768, 0.2768430136381238, 0.5835904323689168, 0.8602401356562195
_MU_REAL = 6.2867047517292765
_MU1 = 5.70095329867179 - 3.2102656003085497j
_MU2 = 3.655694325463572 - 6.543736899360077j
_T1_1, _T1_2, _T1_3, _T1_4, _T1_5 = (
    0.013576867344947943,
    -0.011478515255229515,
    0.01401985889287541,
    -0.010242047817908826,
    -0.04767387729029572,
)
_T2_1, _T2_2, _T2_3, _T2_4, _T2_5 = (
    0.0016179004017190875,
    -0.007668830749180163,
    -0.024708578426518527,
    0.05017286451737106,
    0.09433181918161143,
)
_T3_1, _T3_2, _T3_3, _T3_4, _T3_5 = (
    0.07915785334744721,
    0.01939846399882895,
    -0.08180035370375117,
    -0.23053953404341795,
    -0.1027030453801259,
)
_T4_1, _T4_2, _T4_3, _T4_4, _T4_5 = (
    0.41225608268046143,
    0.40760117128019907,
    -0.19968242788680252,
    0.37789390224886127,
    -0.46674413033249434,
)
_TI1, _TI2, _TI3, _TI4, _TI5 = (
    27.697693775684087,
    12.783337911304406,
    3.20848938671343,
    -0.9514904122489162,
    0.7415504960259897,
)
_TZ1_1, _TZ1_2, _TZ1_3, _TZ1_4, _TZ1_5 = (
    -33.041880213519 + 8.611443979875292j,
    -17.376953479063566 - 9.699991409528808j,
    -0.17212906325400557 - 1.9147286396968743j,
    -0.09916977798254265 - 2.41869200608494j,
    0.5312281158383066 + 1.0474634879353375j,
)
_TZ2_1, _TZ2_2, _TZ2_3, _TZ2_4, _TZ2_5 = (
    5.344186437834912 - 3.748059807439805j,
    4.593615567759161 + 3.984965736343885j,
    -3.0363603234594243 + 1.0444156416080188j,
    1.050660190231459 - 1.1840985681379486j,
    -0.27277861186429625 + 0.44991777015678036j,
)
_P1_1, _P1_2, _P1_3, _P1_4, _P1_5 = (
    27.78093394406464,
    -3.641478498049213,
    1.2525477211691187,
    -0.5920031671845428,
    -0.8,
)
_P2_1, _P2_2, _P2_3, _P2_4, _P2_5 = (
    -36.19335816765893,
    10.611734614705874,
    -10.029661925319592,
    18.811285478272644,
    -11.2,
)
_P3_1, _P3_2, _P3_3, _P3_4, _P3_5 = (
    -144.05356518917776,
    63.63016294236274,
    -17.885204671340986,
    -5.291393081843982,
    5.6,
)
_P4_1, _P4_2, _P4_3, _P4_4, _P4_5 = (
    199.88739542347736,
    -127.022853068795,
    92.10283313613321,
    -64.16737549081559,
    25.2,
)
# radau.f's default for five stages, 7 + 2.5 (s - 3)
NEWTON_MAXITER = 12
_EPS = 2.220446049250313e-16  # the spacing of doubles at 1


@njit
def _radau_step(X, W, h, fX, fW, cx, cw, ratio, rtol, magW, refine, pp):
    """One Radau IIA step from (X, W) with derivative (fX, fW).

    The stage increments u_i = y(s + C_i h) - y solve the collocation system
    by simplified Newton in TI's coordinates, where it splits into one real
    and two complex 2x2 systems, each solved by Cramer's rule. Newton starts
    from the previous step's collocation quintic (coefficients cx, cw of
    ``_dense``), ``ratio`` times shorter than h, extrapolated to the nodes:
    read at 1 + C_i ratio less its value at 1 (ratio = 0 starts from zero).
    Its iteration matrix holds the Jacobian J = (a, b, c, d) at that start's
    third stage, (X + u3x, W + u3w), at node C3 = 0.58 near the middle of the
    step (the step start where ratio = 0 or where that stage has X <= 0):
    up the asymptote the stiff eigenvalue grows like e^W across the step,
    and a J frozen at the step start slows Newton down there until a longer
    step makes it diverge.
    The error is Hairer's filtered estimate
    (MU_REAL/h - J)^-1 (f + sum_i E_i u_i / h), of order 5; sum_i E_i u_i is
    exactly minus the slope F0 + F1 of the collocation quintic at the step
    start, so no E is stored. It is refined once through f when ``refine``
    (an attempt of this step was rejected) and it fails rtol.

    Returns (X1, W1, err, n_iter, n_f, cx1, cw1): the solution, the error
    norm (inf where Newton did not converge), the Newton iterations and the
    rhs calls made, and the collocation quintic as coefficients of ``_dense``.
    """
    u1x = _dense(1.0 + _C1 * ratio, 0.0, cx) - cx[0]
    u2x = _dense(1.0 + _C2 * ratio, 0.0, cx) - cx[0]
    u3x = _dense(1.0 + _C3 * ratio, 0.0, cx) - cx[0]
    u4x = _dense(1.0 + _C4 * ratio, 0.0, cx) - cx[0]
    u5x = _dense(1.0 + ratio, 0.0, cx) - cx[0]
    u1w = _dense(1.0 + _C1 * ratio, 0.0, cw) - cw[0]
    u2w = _dense(1.0 + _C2 * ratio, 0.0, cw) - cw[0]
    u3w = _dense(1.0 + _C3 * ratio, 0.0, cw) - cw[0]
    u4w = _dense(1.0 + _C4 * ratio, 0.0, cw) - cw[0]
    u5w = _dense(1.0 + ratio, 0.0, cw) - cw[0]

    if X + u3x > 0.0:
        a, b, c, d = jac(X + u3x, W + u3w, pp)
    else:
        a, b, c, d = jac(X, W, pp)
    mr = _MU_REAL / h
    m1 = _MU1 / h
    m2 = _MU2 / h
    det_r = (mr - a) * (mr - d) - b * c
    det_1 = (m1 - a) * (m1 - d) - b * c
    det_2 = (m2 - a) * (m2 - d) - b * c
    scX = rtol * abs(X)
    scW = rtol * magW
    # Newton's tolerance on the scaled update, as scipy sets it, with a
    # floor on the rounding of W, which is held absolutely: an update within
    # 10 ulps of W is rounding, more than 10 eps where |W| > 1
    tol = max(10.0 * _EPS * max(1.0, abs(W)) / rtol, min(0.03, math.sqrt(rtol)))
    # v = TI u: its real first entry, and v2 + i v3 and v4 + i v5
    vx = _TI1 * u1x + _TI2 * u2x + _TI3 * u3x + _TI4 * u4x + _TI5 * u5x
    vw = _TI1 * u1w + _TI2 * u2w + _TI3 * u3w + _TI4 * u4w + _TI5 * u5w
    zx = _TZ1_1 * u1x + _TZ1_2 * u2x + _TZ1_3 * u3x + _TZ1_4 * u4x + _TZ1_5 * u5x
    zw = _TZ1_1 * u1w + _TZ1_2 * u2w + _TZ1_3 * u3w + _TZ1_4 * u4w + _TZ1_5 * u5w
    yx = _TZ2_1 * u1x + _TZ2_2 * u2x + _TZ2_3 * u3x + _TZ2_4 * u4x + _TZ2_5 * u5x
    yw = _TZ2_1 * u1w + _TZ2_2 * u2w + _TZ2_3 * u3w + _TZ2_4 * u4w + _TZ2_5 * u5w

    converged = False
    norm_old = -1.0
    rate = 0.0
    n_iter = 0
    while n_iter < NEWTON_MAXITER:
        n_iter += 1
        g1x, g1w = rhs(X + u1x, W + u1w, pp)
        g2x, g2w = rhs(X + u2x, W + u2w, pp)
        g3x, g3w = rhs(X + u3x, W + u3w, pp)
        g4x, g4w = rhs(X + u4x, W + u4w, pp)
        g5x, g5w = rhs(X + u5x, W + u5w, pp)
        if not math.isfinite(g1x + g2x + g3x + g4x + g5x + g1w + g2w + g3w + g4w + g5w):
            break
        rx = _TI1 * g1x + _TI2 * g2x + _TI3 * g3x + _TI4 * g4x + _TI5 * g5x - mr * vx
        rw = _TI1 * g1w + _TI2 * g2w + _TI3 * g3w + _TI4 * g4w + _TI5 * g5w - mr * vw
        sx = _TZ1_1 * g1x + _TZ1_2 * g2x + _TZ1_3 * g3x + _TZ1_4 * g4x + _TZ1_5 * g5x - m1 * zx
        sw = _TZ1_1 * g1w + _TZ1_2 * g2w + _TZ1_3 * g3w + _TZ1_4 * g4w + _TZ1_5 * g5w - m1 * zw
        tx = _TZ2_1 * g1x + _TZ2_2 * g2x + _TZ2_3 * g3x + _TZ2_4 * g4x + _TZ2_5 * g5x - m2 * yx
        tw = _TZ2_1 * g1w + _TZ2_2 * g2w + _TZ2_3 * g3w + _TZ2_4 * g4w + _TZ2_5 * g5w - m2 * yw
        dvx = ((mr - d) * rx + b * rw) / det_r
        dvw = ((mr - a) * rw + c * rx) / det_r
        dzx = ((m1 - d) * sx + b * sw) / det_1
        dzw = ((m1 - a) * sw + c * sx) / det_1
        dyx = ((m2 - d) * tx + b * tw) / det_2
        dyw = ((m2 - a) * tw + c * tx) / det_2

        sq = 0.0
        if scX > 0.0:
            sq += ((dvx * dvx + (dzx * dzx.conjugate() + dyx * dyx.conjugate()).real) / scX) / scX
        if scW > 0.0:
            sq += ((dvw * dvw + (dzw * dzw.conjugate() + dyw * dyw.conjugate()).real) / scW) / scW
        norm = math.sqrt(sq / 10.0)
        # scipy's tests on the rate of convergence, except that an update
        # below tol is converged whatever the rate: it moves the stages by
        # less than Newton's tolerance, and near a fixed point it and the
        # rate are rounding (scipy halves the step there: 154 of 2,217
        # attempts on (12,1,1) held at B to s = 2000)
        if norm_old >= 0.0:
            rate = norm / norm_old
            if norm > tol and (
                rate >= 1.0 or rate ** (NEWTON_MAXITER - n_iter + 1) / (1.0 - rate) * norm > tol
            ):
                break

        vx += dvx
        vw += dvw
        zx += dzx
        zw += dzw
        yx += dyx
        yw += dyw
        p2, p3, p4, p5 = zx.real, zx.imag, yx.real, yx.imag
        u1x = _T1_1 * vx + _T1_2 * p2 + _T1_3 * p3 + _T1_4 * p4 + _T1_5 * p5
        u2x = _T2_1 * vx + _T2_2 * p2 + _T2_3 * p3 + _T2_4 * p4 + _T2_5 * p5
        u3x = _T3_1 * vx + _T3_2 * p2 + _T3_3 * p3 + _T3_4 * p4 + _T3_5 * p5
        u4x = _T4_1 * vx + _T4_2 * p2 + _T4_3 * p3 + _T4_4 * p4 + _T4_5 * p5
        u5x = vx + p2 + p4
        p2, p3, p4, p5 = zw.real, zw.imag, yw.real, yw.imag
        u1w = _T1_1 * vw + _T1_2 * p2 + _T1_3 * p3 + _T1_4 * p4 + _T1_5 * p5
        u2w = _T2_1 * vw + _T2_2 * p2 + _T2_3 * p3 + _T2_4 * p4 + _T2_5 * p5
        u3w = _T3_1 * vw + _T3_2 * p2 + _T3_3 * p3 + _T3_4 * p4 + _T3_5 * p5
        u4w = _T4_1 * vw + _T4_2 * p2 + _T4_3 * p3 + _T4_4 * p4 + _T4_5 * p5
        u5w = vw + p2 + p4

        if norm == 0.0 or (norm_old >= 0.0 and (rate >= 1.0 or rate / (1.0 - rate) * norm < tol)):
            converged = True
            break
        norm_old = norm

    n_f = 5 * n_iter
    if not converged:
        return X, W, math.inf, n_iter, n_f, cx, cw

    X1 = X + u5x
    W1 = W + u5w
    cx1 = _collocation(u1x, u2x, u3x, u4x, u5x)
    cw1 = _collocation(u1w, u2w, u3w, u4w, u5w)
    scX = rtol * max(abs(X), abs(X1))
    qx = (cx1[0] + cx1[1]) / h
    qw = (cw1[0] + cw1[1]) / h
    errx = ((mr - d) * (fX - qx) + b * (fW - qw)) / det_r
    errw = ((mr - a) * (fW - qw) + c * (fX - qx)) / det_r
    err = _rms(errx, errw, scX, scW)
    if refine and err > 1.0:
        gx, gw = rhs(X + errx, W + errw, pp)
        n_f += 1
        errx = ((mr - d) * (gx - qx) + b * (gw - qw)) / det_r
        errw = ((mr - a) * (gw - qw) + c * (gx - qx)) / det_r
        err = _rms(errx, errw, scX, scW)
    return X1, W1, err, n_iter, n_f, cx1, cw1


@njit
def _radau_safety(n_iter):
    """scipy's safety factor of the step controller, smaller the more Newton
    iterations the step took."""
    return 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)


@njit
def _predict_factor(h, h_acc, err, err_acc):
    """Gustafsson's predictive step factor (Hairer & Wanner II, IV.8), as
    scipy's ``predict_factor`` for an error estimate of order 5:
    err^(-1/6), times min(1, (h/h_acc) (err_acc/err)^(1/6)) once a previous
    step (h_acc > 0) was accepted with error err_acc; inf at err = 0."""
    if err == 0.0:
        return math.inf
    mult = 1.0
    if h_acc > 0.0:
        mult = min(1.0, h / h_acc * (err_acc / err) ** (1.0 / 6.0))
    return mult * err ** (-1.0 / 6.0)


@njit
def _rms(ex, ew, scX, scW):
    """Root mean square of the two scaled components (one with scale 0
    counts as 0)."""
    a = ex / scX if scX > 0.0 else 0.0
    b = ew / scW if scW > 0.0 else 0.0
    return math.sqrt(0.5 * (a * a + b * b))


@njit
def _collocation(u1, u2, u3, u4, u5):
    """The collocation quintic through the stage increments of one
    component, as coefficients of ``_dense``: F0 is its value u5 at the step
    end, F1..F4 = P u."""
    return (
        u5,
        _P1_1 * u1 + _P1_2 * u2 + _P1_3 * u3 + _P1_4 * u4 + _P1_5 * u5,
        _P2_1 * u1 + _P2_2 * u2 + _P2_3 * u3 + _P2_4 * u4 + _P2_5 * u5,
        _P3_1 * u1 + _P3_2 * u2 + _P3_3 * u3 + _P3_4 * u4 + _P3_5 * u5,
        _P4_1 * u1 + _P4_2 * u2 + _P4_3 * u3 + _P4_4 * u4 + _P4_5 * u5,
        0.0,
        0.0,
    )


@njit
def _event_value(code, X, pp, asym_tol):
    """Signed event functions of X; a root marks the event location."""
    k = int(pp[PP_K])
    if code == EV_CROSS_XB:
        return X - pp[PP_XB]
    if code == EV_EXITED:
        return X - pp[PP_XCAP]
    return (pp[PP_GAMMA] - kth_root(X, k)) - asym_tol * pp[PP_GAMMA]  # EV_ASYMPTOTE


@njit
def _bisect_event(code, X0, cx, pp, asym_tol):
    """Bisection for the event root on the step's dense output in X
    (coefficients cx of ``_dense``); returns theta."""
    lo = 0.0
    hi = 1.0
    vlo = _event_value(code, X0, pp, asym_tol)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        vm = _event_value(code, _dense(mid, X0, cx), pp, asym_tol)
        if (vm > 0.0) == (vlo > 0.0):
            lo = mid
            vlo = vm
        else:
            hi = mid
    return 0.5 * (lo + hi)


@njit
def _sample(s_out, x_out, z_out, m, s, X, W, cb, room):
    """Store the sample (s, X, Z = e^W/cb) if s lies beyond the last one and
    more than ``room`` slots are free; returns the new sample count."""
    if s > s_out[m - 1] and m < s_out.size - room:
        s_out[m] = s
        x_out[m] = X
        z_out[m] = math.exp(W) / cb if W >= EXP_W_MIN else math.exp(W - math.log(cb))
        m += 1
    return m


@njit
def _interior(s_out, x_out, z_out, m, s, h, t0, t1, n_sub, X, W, cx, cw, cb):
    """Samples at n_sub - 1 equal divisions of the fractions [t0, t1] of the
    step, keeping one slot free for the step's end."""
    for j in range(1, n_sub):
        t = t0 + (t1 - t0) * j / n_sub
        m = _sample(s_out, x_out, z_out, m, s + t * h, _dense(t, X, cx), _dense(t, W, cw), cb, 1)
    return m


@njit
def _collocation_interior(
    s_out, x_out, z_out, m, s, h, t0, t1, X, W, cx, cw, cb, magX, magW, d1
):
    """Samples of a Radau step at fractions in (t0, t1), keeping one slot
    free for the sample at t1, where the field misses the quintic's slope
    by d1 (X relative to magX, W absolute to magW; 0 at the step end).

    A step whose cubic Hermite between t0 and t1 keeps SAMPLE_TOL of the
    collocation quintic (``_quintic_miss``) takes none. Any other takes them
    at the nodes C2, C3 and C4, which cut it into pieces of at most 0.31 h
    (C1 lies 0.06 h from the start). At a node the quintic's slope is the
    field's, so the Hermite through the samples and the field there misses
    the quintic by its own fourth derivative alone. Between the nodes the
    field misses the quintic's slope by the collocation defect, which a
    stiff Jacobian magnifies: up the asymptote the Hermite through samples
    at equal fractions of the step missed the flow by 3e-9, and twice as
    many of them by 2.9e-9. A piece that still misses SAMPLE_TOL is cut
    into the fewest equal pieces that keep it; on the piece of length a
    that ends at t1, the slope missed by d1 there adds a d1/8."""
    miss = _quintic_miss(cx, cw, magX, magW, t0, t1) + (t1 - t0) * d1 / 8.0
    if not SAMPLE_TOL < miss < math.inf:
        return m
    ta = t0
    for c in (_C2, _C3, _C4, 1.0):
        if c <= t0:
            continue
        c = min(c, t1)
        q = _quintic_miss(cx, cw, magX, magW, ta, c)
        e = (c - ta) * d1 / 8.0 if c >= t1 else 0.0
        if q + e > SAMPLE_TOL:
            n_sub = int(math.ceil(max((q / SAMPLE_TOL) ** 0.25, e / SAMPLE_TOL)))
            while q / n_sub**4 + e / n_sub > SAMPLE_TOL:
                n_sub += 1
            m = _interior(s_out, x_out, z_out, m, s, h, ta, c, n_sub, X, W, cx, cw, cb)
        if c >= t1:
            break
        m = _sample(
            s_out, x_out, z_out, m, s + c * h, _dense(c, X, cx), _dense(c, W, cw), cb, 1
        )
        ta = c
    return m


@njit
def _log_event(ev_s, ev_code, n_ev, s, code):
    """Store the event while the buffer has room, count it either way."""
    if n_ev < ev_s.size:
        ev_s[n_ev] = s
        ev_code[n_ev] = code
    return n_ev + 1


@njit
def certifies_b(z1, z2, z_b, bound):
    """Whether the upward crossings of X = X_B at Z = z1 and then z2 prove
    that the orbit converges to B.

    Upward crossings lie on the half-line Z > Z_B of the section, where the
    flow crosses it one way only. If z_b < z2 < z1, the loop from the first
    crossing to the second, closed by the segment [z2, z1], bounds a
    forward-invariant region around B. It holds no periodic orbit, by the
    Bendixson-Dulac criterion with mu = Z^b q^(k-1), and B is its only
    critical point, so by Poincare-Bendixson the orbit converges to B. The
    gap z1 - z2 must exceed ``bound``, the error bound on the two values.
    """
    return z_b < z2 < z1 and z1 - z2 > bound


@njit
def _on_series(X, W, pp, rtol, series):
    """Whether the state (X, W) lies within rtol X of the slow-manifold
    series packed in ``series`` at its own W: with eps = e^(-W/k), the series
    has x = gamma - eps sum_(j<N) C_j eps^j, and X = x^k."""
    k = pp[PP_K]
    eps = math.exp(-W / k)
    c = 0.0
    for j in range(int(series[SM_TERMS]) - 1, -1, -1):
        c = c * eps + series[SM_COEF + j]
    x = pp[PP_GAMMA] - eps * c
    return x > 0.0 and abs(X - x**k) <= rtol * X


@njit
def integrate_core(
    X0,
    W0,
    s0,
    s_max,
    pp,
    rtol,
    step_floor,
    asym_tol,
    end_at_b,
    stop_at_xb,
    max_samples,
    series,
):
    """Adaptive integration of the phase-plane field in the log chart, with
    event detection: a run from (X0, W0) at s0 to its end. The first step
    is 1e-3 long.

    The state is (X, W), W = ln(c_nk beta^k Z); W0 = -inf starts on the
    invariant axis Z = 0, where W stays. X's error is held relative to X,
    W's absolutely, both at rtol. Steps are at most MAX_STEP long.

    Where B attracts the run (pp[PP_BZ] > 0) and end_at_b is set, the run
    ends at B only on a certificate. At each upward crossing of X = X_B
    after the first, ``certifies_b`` reads the Z of this crossing and of the
    one before; the error bound is CERT_SAFETY rtol Z per accepted step so
    far. Where it holds, the run ends certified_B at the crossing; a run
    that no return certifies goes on to s_max.

    Where ``series`` packs a slow-manifold series (SM_* layout; NO_SERIES
    packs none), the run ends ST_SERIES at the first accepted step past the
    series' least W whose end lies within rtol X of the series at its own W
    (:func:`_on_series`): the series takes the rest of the run
    (``manifold.SlowManifold.arc``).

    Returns (s_arr, x_arr, z_arr, ev_s, ev_code, n_ev, status, cert, hand,
    n_acc, n_rej, n_rhs, n_newton, n_newton_fail, h_min, h_max,
    stiff_from_s): the samples, with Z = e^W/(c_nk beta^k); the event
    arrays, which keep the first EV_CAP of the n_ev events that fired; the
    status; the certificate (s1, Z1, s2, Z2, bound) of the two returns of a
    certified_B end, NaNs otherwise; the state (s, X, W) of an ST_SERIES
    end, NaNs otherwise; then the accepted and rejected steps, the rhs evaluations,
    the Newton iterations of all Radau attempts and the attempts on which
    Newton did not converge, the shortest and the longest accepted step and
    the s where Radau took over (NaN if it never did). The rhs evaluations
    are one at the start, 12 per DOP853 attempt and 3 per continuous
    extension, 5 per Newton iteration of a Radau attempt, one at the end of
    each accepted Radau step that the run goes on from, one at a terminal
    event on a Radau step (the defect there), and one per refined error
    estimate.
    """
    s_out = np.empty(max_samples)
    x_out = np.empty(max_samples)
    z_out = np.empty(max_samples)
    ev_s = np.empty(EV_CAP)
    ev_code = np.zeros(EV_CAP, dtype=np.int64)
    s_out[0] = s0
    x_out[0] = X0
    cb = pp[PP_CB]
    z_out[0] = math.exp(W0) / cb if W0 >= EXP_W_MIN else math.exp(W0 - math.log(cb))
    m, n_ev = 1, 0  # the sample and event counts; the start is the first sample
    k = int(pp[PP_K])
    w_floor = math.log(Z_FLOOR_REL)

    # the state (s, X, W) and its derivative, the step, the last error and
    # the peak of W
    s, X, W = s0, X0, W0
    fX, fW = rhs(X, W, pp)
    h, err_prev, w_peak, status = 1e-3, 1.0, W, ST_SMAX
    # whether Radau runs, the consecutive accepted DOP853 steps held by
    # stability, the last accepted DOP853 step and where Radau took over
    stiff, n_limited, h_last, stiff_from_s = False, 0, math.inf, math.nan
    # Radau's last accepted step (0 before the first; its error is
    # err_prev), whether an attempt of the current step was rejected,
    # whether Newton failed on one, whether the step is retried from the
    # zero start, and the dense output (cx, cw) of the last accepted step
    h_acc, rejected, newton_failed, zero_start = 0.0, False, False, False
    cx = cw = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    # the step, rhs and Newton counters and the extreme steps
    n_acc, n_rej, n_rhs, n_newton, n_newton_fail = 0, 0, 1, 0, 0
    h_min = h_max = math.nan
    # where x = gamma ends the region of the origin chart (g = gamma - x,
    # gamma <= x_A, so q >= 0 there) and n >= 2k, g^k vanishes on it and
    # X_s = -(n-2k) q X <= 0: the flow cannot leave there, and a step that
    # ends beyond gamma^k has lost gamma - x to rounding, a bad state and no
    # exit of the region
    gamma_edge = pp[PP_N] >= 2.0 * pp[PP_K] and pp[PP_NUM_B] < 0.0 and pp[PP_GAMMA] <= pp[PP_XA_ROOT]
    X_gamma = pp[PP_XCAP] if gamma_edge else math.inf
    # where n < 2k and gamma < x_A the region ends at gamma^k before A, and
    # the axis flow (2k-n)(1 - x/x_A) X > 0 carries X on to that exit: no
    # collapse onto the axis ends the run there
    axis_end = not (pp[PP_N] < 2.0 * pp[PP_K] and pp[PP_GAMMA] < pp[PP_XA_ROOT])
    # W carries no error on the axis, where it stays -inf
    magW = 1.0 if W > -math.inf else 0.0
    # the Poincare-return certificate, from the last upward X_B crossing
    # (s_up, z_up)
    certify = pp[PP_BZ] > 0.0 and end_at_b
    s_up = z_up = math.nan
    cert = (math.nan, math.nan, math.nan, math.nan, math.nan)

    while s < s_max:
        if h > s_max - s:
            h = s_max - s
        if h < step_floor:
            n_ev = _log_event(ev_s, ev_code, n_ev, s, EV_STEP_FLOOR)
            status = ST_STEP_FLOOR
            break

        if stiff:
            ratio = h / h_acc if h_acc > 0.0 and not zero_start else 0.0
            X1, W1, err, n_iter, n_f, rx, rw = _radau_step(
                X, W, h, fX, fW, cx, cw, ratio, rtol, magW, rejected, pp
            )
            n_rhs += n_f
            n_newton += n_iter
        else:
            X1, W1, e5x, e5w, e3x, e3w, KX, KW = _dop853_step(X, W, h, fX, fW, pp)
            fX1 = KX[7]
            fW1 = KW[7]
            n_rhs += 12

        # X is relative, W absolute: an absolute error in W = ln(c_nk beta^k
        # Z) is, to first order, the same error in Z relative to Z
        magX = max(abs(X), abs(X1))
        scX = rtol * magX
        scW = rtol * magW
        if not stiff:
            err = _dop853_error(e5x, e5w, e3x, e3w, scX, scW)
        # W1 = -inf is the axis; NaN or +inf is not a state
        bad_state = (X1 < 0.0) or (not math.isfinite(X1)) or (not W1 < math.inf) or X1 > X_gamma
        if err > 1.0 or bad_state:
            n_rej += 1
            if bad_state:
                fac = 0.2
            elif not stiff:
                fac = max(0.2, 0.9 * err**-0.125)
            elif err == math.inf:
                # Newton did not converge. Where its start, the last step's
                # quintic extrapolated, reached no further than that step
                # (h <= h_acc) and that step moved the state beyond its error
                # scale, the start failed, not the step (up the asymptote
                # the quintic extrapolates the rounding of its stages): the
                # step is retried from the zero start. At rest the two starts
                # coincide. Otherwise the step is halved
                if not zero_start and 0.0 < h <= h_acc and _rms(cx[0], cw[0], scX, scW) > 1.0:
                    fac = 1.0
                    zero_start = True
                else:
                    fac = 0.5
                    zero_start = False
                newton_failed = True
                n_newton_fail += 1
            else:
                fac = max(0.2, _radau_safety(n_iter) * _predict_factor(h, h_acc, err, err_prev))
                rejected = True
            h *= fac
            continue

        # accepted; PI controller for DOP853 (the order-5 exponents 0.7/5 and
        # 0.4/5 rescaled to order 8), Gustafsson's predictive controller for
        # Radau, as scipy has it
        n_acc += 1
        if n_acc == 1 or h < h_min:
            h_min = h
        if n_acc == 1 or h > h_max:
            h_max = h
        if stiff:
            # bounded below as on a rejection (radau5's FACL = 5): the
            # predictive factor reads h/h_acc, and after a rejection chain
            # h_acc is far larger than h
            fac = min(10.0, max(0.2, _radau_safety(n_iter) * _predict_factor(h, h_acc, err, err_prev)))
            # no regrowth right after a Newton failure, which would fail
            # again, except where the step leaves the state within its
            # error scale: held at B, Newton fails on rounding, at any h
            if newton_failed and _rms(X1 - X, W1 - W, scX, scW) > 1.0:
                fac = min(fac, 1.0)
            h_acc = h
            rejected = False
            newton_failed = False
            zero_start = False
        elif err == 0.0:
            fac = 5.0
        else:
            fac = 0.9 * err**-0.0875 * err_prev**0.05
            if fac > 5.0:
                fac = 5.0
            if fac < 0.2:
                fac = 0.2
        h_next = min(h * fac, MAX_STEP)
        err_prev = max(err, 1e-10)
        s1 = s + h

        # dense output of the step: the collocation quintic after Radau, the
        # order-7 extension after DOP853 (three rhs calls), which also sets
        # how many samples the step emits
        n_sub = 1
        if stiff:
            cx, cw = rx, rw
        else:
            cx, cw = _dop853_dense(X, W, h, fX, fW, X1, W1, KX, KW, pp)
            n_rhs += 3
            n_sub = _sample_count(cx, cw, magX, magW)

        # terminal events by precedence: X_B stop > exit of the admissible
        # X-range > asymptote proximity in x = X^(1/k) (asym_tol <= 0 turns
        # it off), each bisected on the dense output; the state is clipped to
        # the event: X to its level, W read off the dense output there
        crossed = (X - pp[PP_XB]) * (X1 - pp[PP_XB]) < 0.0 and max(
            abs(X - pp[PP_XB]), abs(X1 - pp[PP_XB])
        ) > XB_ROUND * pp[PP_XB]
        code = 0
        th = 1.0
        d1 = 0.0
        if crossed and stop_at_xb:
            code, status = EV_CROSS_XB, ST_XB_STOP
        elif X1 > pp[PP_XCAP]:
            code, status = EV_EXITED, ST_EXITED
        elif (
            asym_tol > 0.0
            and pp[PP_GAMMA] - (X1 if k == 1 else kth_root(X1, k)) < asym_tol * pp[PP_GAMMA]
        ):
            code, status = EV_ASYMPTOTE, ST_ASYMPTOTE
        if code != 0:
            th = _bisect_event(code, X, cx, pp, asym_tol)
            W1 = _dense(th, W, cw)
            s1 = s + th * h
            if code == EV_CROSS_XB:
                X1 = pp[PP_XB]
            elif code == EV_EXITED:
                X1 = pp[PP_XCAP]
            else:
                X1 = (pp[PP_GAMMA] - asym_tol * pp[PP_GAMMA]) ** k
            if stiff and code != EV_EXITED:
                # the event lies off the nodes, where the field misses the
                # quintic's slope by the collocation defect: up the
                # asymptote of (64,8,-1) the Hermite to it missed the flow
                # by 2.4e-8 on its piece alone (at an exit through X_A the
                # field is singular)
                gx, gw = rhs(X1, W1, pp)
                n_rhs += 1
                d1 = abs(_quintic_slope(th, cx) - h * gx) / magX
                if magW > 0.0:
                    d1 = max(d1, abs(_quintic_slope(th, cw) - h * gw) / magW)

        # samples: interior points at equal fractions of the step (of its
        # part before a terminal event), then the step end. A crossing of
        # X = X_B is logged, and is a sample itself, with the interior points
        # before it those a run stopped there emits. An upward crossing that
        # certifies convergence to B ends the run there, before any other
        # event of the step
        t0 = 0.0
        if crossed and not stop_at_xb:
            tc = _bisect_event(EV_CROSS_XB, X, cx, pp, asym_tol)
            wc = _dense(tc, W, cw)
            if tc < th:
                sc = s + tc * h
                n_ev = _log_event(ev_s, ev_code, n_ev, sc, EV_CROSS_XB)
                if stiff:
                    m = _collocation_interior(
                        s_out, x_out, z_out, m, s, h, 0.0, tc, X, W, cx, cw, cb, magX, magW, 0.0
                    )
                else:
                    m = _interior(s_out, x_out, z_out, m, s, h, 0.0, tc, n_sub, X, W, cx, cw, cb)
                m = _sample(s_out, x_out, z_out, m, sc, pp[PP_XB], wc, cb, 1)
                t0 = tc
                if certify and X < pp[PP_XB]:
                    zc = math.exp(wc) / cb
                    bound = CERT_SAFETY * rtol * n_acc * z_up
                    if certifies_b(z_up, zc, pp[PP_BZ], bound):
                        cert = (s_up, z_up, sc, zc, bound)
                        code, status, th = EV_CERTIFIED, ST_CERT_B, tc
                        s1, X1, W1 = sc, pp[PP_XB], wc
                    s_up, z_up = sc, zc
        if stiff:
            m = _collocation_interior(
                s_out, x_out, z_out, m, s, h, t0, th, X, W, cx, cw, cb, magX, magW, d1
            )
        else:
            m = _interior(s_out, x_out, z_out, m, s, h, t0, th, n_sub, X, W, cx, cw, cb)
        if code != 0:
            n_ev = _log_event(ev_s, ev_code, n_ev, s1, code)
        s = s1
        X = X1
        W = W1
        m = _sample(s_out, x_out, z_out, m, s, X, W, cb, 0)
        if code != 0:
            break
        if W >= series[SM_W_MIN] and s < s_max and _on_series(X, W, pp, rtol, series):
            status = ST_SERIES
            break
        if stiff:
            # the derivative at a Radau step's end, where the run goes on
            fX1, fW1 = rhs(X, W, pp)
            n_rhs += 1
        fX, fW = fX1, fW1
        if m >= max_samples:
            status = ST_OVERFLOW
            break

        if W > w_peak:
            w_peak = W

        # collapse onto the Z = 0 axis beyond X_B (orbits toward A or the
        # degenerate line): Z below Z_FLOOR_REL times its peak
        if axis_end and X > pp[PP_XB] and W - w_peak < w_floor:
            n_ev = _log_event(ev_s, ev_code, n_ev, s, EV_CONVERGED)
            status = ST_CONV_AXIS
            break

        # the stiffness test on the accepted DOP853 step, by the Jacobian at
        # its end (Radau takes its own at each step)
        if not stiff and X > 0.0:
            a, b, c, d = jac(X, W, pp)
            hrho = h * _spectral_radius(a, b, c, d)
            if hrho > STIFF_HRHO or (hrho > STIFF_HRHO_SHRINK and h < h_last):
                n_limited += 1
                if n_limited >= STIFF_SPAN:
                    stiff = True
                    stiff_from_s = s
            else:
                n_limited = 0
            h_last = h

        h = h_next

    n_kept = min(n_ev, EV_CAP)
    nan = math.nan
    hand = (s, X, W) if status == ST_SERIES else (nan, nan, nan)
    return (
        s_out[:m],
        x_out[:m],
        z_out[:m],
        ev_s[:n_kept],
        ev_code[:n_kept],
        n_ev,
        status,
        cert,
        hand,
        n_acc,
        n_rej,
        n_rhs,
        n_newton,
        n_newton_fail,
        h_min,
        h_max,
        stiff_from_s,
    )
