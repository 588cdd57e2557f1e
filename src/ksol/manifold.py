"""The end of the runs up the asymptote: the slow manifold up x -> gamma as
a series in eps = e^(-W/k), and the arc of a trace read off it.

For n > 2k and rho <= 0, the expanders and the steady solitons, an orbit
in the asymptote trap runs up x -> gamma while W = ln(c_nk beta^k Z)
grows without bound, and the two terms of X_s balance: the orbit is drawn
onto a slow manifold, along which the field's stiff eigenvalue grows like
e^(W/k). There e^W = eps^(-k) and
gamma - x = eps C(eps), C = sum_j C_j eps^j. With q = 1 - x/x_A and
eps_s = -2 (1 - x/x_B) eps, X_s = k x^(k-1) x_s turns the field into the
invariance equation

    q^(1-k) C^k = (n-2k) q x^k + 2k x^(k-1) (1 - x/x_B) eps (C + eps C').

At eps = 0 it fixes C_0 = q_0 gamma (n-2k)^(1/k), q_0 = 1 - gamma/x_A, and at
each order j >= 1 it is linear in C_j, whose factor k q_0^(1-k) C_0^(k-1)
is nonzero: everything else of order j depends on C_0 .. C_(j-1) alone,
since x_j = -C_(j-1). The coefficients are formed by ``picard``'s product,
quotient and power recurrences, writing q^(1-k) C^k as C (C/q)^(k-1). They
are polynomial in a = 1 - gamma/x_B = -rho/(2 theta), so the steady case
a = 0 is no special one: there W_s = 2k delta/x_B to leading order, and
the series gives the steady law s (gamma - x) -> x_B/2 = 1/(1-m).

The singular point eps = 0 is irregular, so the series is Gevrey: its
coefficients grow like j! (Wasow, *Asymptotic Expansions for Ordinary
Differential Equations*), and a truncation is as good as its omitted
terms, which fall with eps. The kernel ends the integrated part of a run
at the first accepted step, past W_min, whose end lies within rtol X of
the series at its own W (``_kernels._on_series``); W_min is where the
next TAIL_TERMS terms after the best truncation fall below
HAND_OFF_TOL * rtol relative to X. The rest of the trace is the series: X = x(eps)^k,
Z = e^W/(c_nk beta^k), s(W) by Gauss-Legendre quadrature of
ds/dW = 1/W_s = 1/(2k (1 - x/x_B)), samples placed so that the cubic
Hermite between them keeps ``_kernels.SAMPLE_TOL``, up to the asymptote
event, where gamma - x = asym_tol gamma, or to s_max; a steady arc, where
gamma - x falls like x_B/(2s), meets the event only near s = 1/(2 asym_tol).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels, phase
from .picard import HAND_OFF_TOL, power, product, quotient

# the cap on the number N of terms the kernel sums: the size of its packed
# series
MAX_TERMS = _kernels.SM_MAX_TERMS
# the truncation after N terms is measured by the TAIL_TERMS omitted terms
# that follow, summed in modulus: the coefficients need not fall smoothly
# ((33,16,-1e-4) at the hand-over: 3.0e-14, 8.2e-14, 7.2e-15 and 8.9e-13 for
# orders 19 to 22), so the first one or two can read 8 times too small
TAIL_TERMS = 5
# the sample density is set by a majorant of the fourth derivatives in s,
# taken SAMPLE_SAFETY times over
SAMPLE_SAFETY = 2.0
# candidate points of the sample density lie CANDIDATES_PER_K apart per
# unit W/k
CANDIDATES_PER_K = 8
# the defect's error estimate is taken DEFECT_SAFETY times over
DEFECT_SAFETY = 4.0
_EPS = float(np.finfo(float).eps)
# the 6-point Gauss-Legendre rule on [-1, 1] (Abramowitz & Stegun, Table
# 25.4), by which the s of each piece of W is summed
_GL_T = np.array(
    [-0.9324695142031521, -0.6612093864662645, -0.2386191860831969,
     0.2386191860831969, 0.6612093864662645, 0.9324695142031521]
)
_GL_W = np.array(
    [0.1713244923791704, 0.3607615730481386, 0.4679139345726910,
     0.4679139345726910, 0.3607615730481386, 0.1713244923791704]
)


def _coefficients(p, order):
    """(C, xk): C_0 .. C_(order-1), and the coefficients of X = x^k in eps
    of orders 0 .. order.

    Order j first forms x_j = -C_(j-1), q_j = C_(j-1)/x_A, (1 - x/x_B)_j =
    C_(j-1)/x_B and D_j = j C_(j-1), D = eps (C + eps C'), then x^(k-1),
    x^k, q x^k and (1 - x/x_B) x^(k-1) D, the right side; the left side
    C w, w = G^(k-1), G = C/q, is formed with C_j = 0, whose share
    k w_0 C_j closes the order, and G_j and w_j then take C_j's share. At
    k = 1, x^(k-1) = w = 1: the right side alone is C_j, and neither G nor
    a power is formed.
    """
    n, k, gamma = p.n, p.k, p.gamma
    q0 = 1.0 - gamma / p.x_A
    C = [q0 * gamma * (n - 2.0 * k) ** (1.0 / k)]
    x, q, b, D = [gamma], [q0], [1.0 - gamma / p.x_B], [0.0]
    xk = [gamma]
    if k > 1:
        xk1 = [gamma ** (k - 1)]
        xk = [gamma * xk1[0]]
        bx, bxD = [b[0] * xk1[0]], [0.0]
        G = [C[0] / q0]
        w = [G[0] ** (k - 1)]
    qxk = [q0 * xk[0]]
    for j in range(1, order + 1):
        c = C[j - 1]
        x.append(-c)
        q.append(c / p.x_A)
        b.append(c / p.x_B)
        D.append(j * c)
        if k == 1:
            xk.append(0.0 - c)  # x_j = -c, +0.0 at c = 0 as the product with x^0 sums it
        else:
            xk1.append(power(x, xk1, k - 1))
            xk.append(product(x, xk1))
        if j == order:
            break
        qxk.append(product(q, xk))
        if k == 1:
            C.append((n - 2.0) * qxk[j] + 2.0 * product(b, D))
            continue
        bx.append(product(b, xk1))
        bxD.append(product(bx, D))
        C.append(0.0)
        G.append(quotient(0.0, q, G))
        w.append(power(G, w, k - 1))
        C[j] = ((n - 2.0 * k) * qxk[j] + 2.0 * k * bxD[j] - product(C, w)) / (k * w[0])
        G[j] += C[j] / q0
        w[j] += (k - 1.0) * w[0] * C[j] / (G[0] * q0)
    return np.array(C), np.array(xk)


def _powers(eps, order):
    """eps^0 .. eps^order at the points of the array eps, one row per power."""
    V = np.empty((order + 1, eps.size))
    V[0] = 1.0
    V[1:] = eps
    np.cumprod(V[1:], axis=0, out=V[1:])
    return V


def _gauss_nodes(W0, W1):
    """The Gauss-Legendre nodes of each interval [W0_i, W1_i], as rows, and
    the intervals' half lengths."""
    mid, half = 0.5 * (W0 + W1), 0.5 * (W1 - W0)
    return mid[:, None] + half[:, None] * _GL_T, half


class HandOver(NamedTuple):
    """Where a run handed over to the series: the last integrated state
    (s, X, W), the number of terms the arc sums, the measured distance
    |X - X_series| / X there (the kernel's series, of
    ``SlowManifold.terms`` terms) and the TAIL_TERMS omitted terms' size
    relative to X."""

    s: float
    X: float
    W: float
    terms: int
    distance: float
    omitted: float


@dataclass(frozen=True, eq=False)
class SlowManifold:
    """The series of one parameter set: ``C`` holds C_j for j < MAX_TERMS +
    TAIL_TERMS and ``xk`` the coefficients of X = x^k in eps; the kernel
    sums ``terms`` of them from ``W_min`` on, where the TAIL_TERMS omitted
    ones meet HAND_OFF_TOL * rtol."""

    k: int
    gamma: float
    x_B: float
    cb: float
    a: float  # 1 - gamma/x_B = -rho/(2 theta): W_s/(2k) at x = gamma
    C: np.ndarray
    xk: np.ndarray
    terms: int
    W_min: float

    def packed(self):
        """The series as the kernels read it (``_kernels.pack_series``)."""
        return _kernels.pack_series(self.W_min, self.C[: self.terms])

    def hand_over(self, s, X, W, rtol):
        """The :class:`HandOver` of the kernel's last state (s, X, W): the
        arc sums the fewest terms N whose omitted ones,
        k sum_(N <= j < N + TAIL_TERMS) |C_j| eps^(j+1) / x, meet
        HAND_OFF_TOL * rtol at the state's eps."""
        T, k = self.terms, self.k
        eps = math.exp(-W / k)
        t = self.C[: T + TAIL_TERMS] * _powers(np.array([eps]), T + TAIL_TERMS)[1:, 0]
        part = np.cumsum(t[:T])
        tail = np.cumsum(np.abs(t))
        omitted = k * (tail[TAIL_TERMS:] - tail[:T]) / (self.gamma - part)
        N = int(np.argmax(omitted <= HAND_OFF_TOL * rtol)) + 1
        if not omitted[N - 1] <= HAND_OFF_TOL * rtol:
            N = T
        distance = abs(X - (self.gamma - part[-1]) ** k) / X
        return HandOver(s, X, W, N, float(distance), float(omitted[N - 1]))

    def _at(self, W, terms, columns):
        """The series in eps = e^(-W/k) whose coefficients of orders
        0 .. terms are the columns of ``columns``, at the points W."""
        return columns.T @ _powers(np.exp(-W / self.k), terms)

    def delta(self, W, terms):
        """gamma - x = eps C(eps), summed over ``terms`` terms, at the points
        W (an array)."""
        return self._at(W, terms, np.concatenate(([0.0], self.C[:terms])))

    def _ds_dw(self, delta):
        """ds/dW = 1/W_s = 1/(2k (a + (gamma - x)/x_B)) at gamma - x = delta."""
        return 1.0 / (2.0 * self.k * (self.a + delta / self.x_B))

    def _s_gain(self, W0, W1, terms):
        """The s gained from W0 to W1 (arrays): the 6-point Gauss-Legendre
        sum of ds/dW over each interval."""
        nodes, half = _gauss_nodes(W0, W1)
        delta = self.delta(nodes.ravel(), terms).reshape(nodes.shape)
        return half * (self._ds_dw(delta) @ _GL_W)

    def _event_eps(self, target, terms):
        """The eps where eps C(eps) = target, by Newton from target/C_0."""
        C = self.C[:terms].tolist()
        eps = target / C[0]
        for _ in range(50):
            value = slope = 0.0
            for j in range(terms - 1, -1, -1):
                value = value * eps + C[j]
                slope = slope * eps + (j + 1) * C[j]
            step = (eps * value - target) / slope
            eps -= step
            if abs(step) <= 4.0 * _EPS * eps:
                break
        return eps

    def _fourth_derivatives(self, terms):
        """The coefficients of X_ssss and W_ssss in eps, from order 0 to the
        order that holds the leading image of each of the series' ``terms``
        orders. On the series d/ds is the operator -lam eps d/deps, lam =
        2 (a + delta/x_B) = W_s / k, applied to the series of X four times and
        to that of W_s three times. At a > 0 it maps eps^j to -2a j eps^j and
        higher orders, and the coefficients stop at order ``terms``. At a = 0,
        the steady arc, each application raises the order by one, so they
        run to order terms + 4: cut at ``terms`` they would lose every term
        of a short series ((6,1,0) sums one, C = (8, 0, 0, ...))."""
        order = terms if self.a != 0.0 else terms + 4
        lam = np.concatenate(([2.0 * self.a], 2.0 * self.C[:order] / self.x_B))
        orders = np.arange(order + 1)
        x4, w4 = self.xk[: order + 1], self.k * lam
        for i in range(4):
            x4 = -np.convolve(lam, orders * x4)[: order + 1]
            if i < 3:
                w4 = -np.convolve(lam, orders * w4)[: order + 1]
        return x4, w4

    def arc(self, hand, s_max, asym_tol):
        """The trace past the hand-over ``hand``, read off the series: the
        samples (s, X, Z) and whether the arc ends at the asymptote event
        (gamma - x = asym_tol gamma, where X is set to its level, as the
        kernel sets it) rather than at s_max. Where the series puts the
        event at or before the hand-over's W (the kernel's state ended within
        the series' distance short of it), the arc has no sample.

        Candidate points CANDIDATES_PER_K per unit W/k apart carry s, by
        Gauss-Legendre quadrature of ds/dW, and the sample density: pieces
        of length h = (384 SAMPLE_TOL / d4)^(1/4) in s, at most MAX_STEP,
        keep the cubic Hermite in (X, W) over s within SAMPLE_TOL, where d4
        majorizes X_ssss / X and W_ssss (:meth:`_fourth_derivatives`, the
        moduli of their coefficients summed) SAMPLE_SAFETY times over. Both
        fall with eps, so the density at a piece's left end holds over it.
        An end at s_max is found on the candidates by Newton's method. The
        samples equidistribute the density's trapezoid integral from the
        hand-over to the end, and their s are quadratures again. So a gap
        between samples follows h at the candidates up to the growth of
        ds/dW over one candidate interval, e^(1/CANDIDATES_PER_K) = 1.13 at
        leading order: where h is MAX_STEP, a gap may exceed it by that
        much (1.104 at most on the corpus hand-overs). Nothing reads the
        arc against MAX_STEP, which caps the kernel's steps for its
        converged_axis end alone."""
        N, k = hand.terms, self.k
        W_end = max(-k * math.log(self._event_eps(asym_tol * self.gamma, N)), hand.W)
        n_c = max(2, math.ceil((W_end - hand.W) * CANDIDATES_PER_K / k) + 1)
        W = np.linspace(hand.W, W_end, n_c)
        x4, w4 = self._fourth_derivatives(N)
        d = np.zeros(x4.size)
        d[1 : N + 1] = self.C[:N]
        nodes, half = _gauss_nodes(W[:-1], W[1:])
        columns = np.column_stack((d, np.abs(x4), np.abs(w4)))
        delta, x4, w4 = self._at(np.concatenate((W, nodes.ravel())), x4.size - 1, columns)
        ds_dw = self._ds_dw(delta)
        gain = half * (ds_dw[n_c:].reshape(nodes.shape) @ _GL_W)
        s = hand.s + np.concatenate(([0.0], np.cumsum(gain)))
        X = (self.gamma - delta[:n_c]) ** k
        d4 = SAMPLE_SAFETY * np.maximum(x4[:n_c] / X, w4[:n_c])
        h = np.minimum(_kernels.MAX_STEP, (384.0 * _kernels.SAMPLE_TOL / d4) ** 0.25)
        rho = ds_dw[:n_c] / h
        at_event = not s[-1] > s_max
        if not at_event:
            i = int(np.searchsorted(s, s_max)) - 1
            w = np.array([W[i] + (s_max - s[i]) / ds_dw[i]])
            for _ in range(50):
                miss = s[i] + self._s_gain(W[i : i + 1], w, N)[0] - s_max
                step = miss / self._ds_dw(self.delta(w, N))[0]
                w -= step
                if abs(step) <= 4.0 * _EPS * abs(w[0]):
                    break
            W, rho = np.append(W[: i + 1], w), np.append(rho[: i + 1], rho[i])
        count = np.concatenate(([0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(W))))
        m = max(1, math.ceil(count[-1]))
        Ws = np.interp(count[-1] * np.arange(1, m + 1) / m, count, W)
        Ws[-1] = W[-1]
        Ws = Ws[Ws > hand.W]
        nodes, half = _gauss_nodes(np.concatenate(([hand.W], Ws[:-1])), Ws)
        delta = self.delta(np.concatenate((Ws, nodes.ravel())), N)
        gain = half * (self._ds_dw(delta[Ws.size :]).reshape(nodes.shape) @ _GL_W)
        s = hand.s + np.cumsum(gain)
        X = (self.gamma - delta[: Ws.size]) ** k
        if Ws.size and at_event:
            X[-1] = (self.gamma - asym_tol * self.gamma) ** k
        elif Ws.size:
            s[-1] = s_max
        return s, X, np.exp(Ws) / self.cb, at_event


def slow_manifold(p, rtol):
    """The :class:`SlowManifold` of p (n > 2k, rho <= 0) at the integrator's
    rtol.

    For each N <= MAX_TERMS, the largest eps where each of the TAIL_TERMS
    omitted terms, k eps^(j+1) |C_j| / x for N <= j < N + TAIL_TERMS, is at
    most HAND_OFF_TOL * rtol / TAIL_TERMS with x bounded below by gamma/2;
    W_min is -k ln eps at the N with the largest such eps (the fewest terms
    that reach it), which the kernel then sums."""
    C, xk = _coefficients(p, MAX_TERMS + TAIL_TERMS)
    tol = HAND_OFF_TOL * rtol * p.gamma / (2.0 * TAIL_TERMS * p.k)
    j = np.arange(C.size)
    with np.errstate(divide="ignore"):
        reach = (tol / np.abs(C)) ** (1.0 / (j + 1.0))
    eps_n = np.lib.stride_tricks.sliding_window_view(reach[1:], TAIL_TERMS).min(axis=1)
    terms = int(np.argmax(eps_n)) + 1
    return SlowManifold(
        k=p.k,
        gamma=p.gamma,
        x_B=p.x_B,
        cb=p.cb,
        a=-p.rho / (2.0 * p.theta),
        C=C,
        xk=xk,
        terms=terms,
        W_min=-p.k * math.log(float(eps_n[terms - 1])),
    )


def defect(trace, p):
    """The worst ratio, over the samples of the trace's series arc, of the
    defect of the series' derivative against the field to its error
    estimate: 1 or less on a sound series. None where the trace has no arc.

    At a sample's W the series gives x = gamma - delta and, with
    eps_s = -(W_s/k) eps, X_s = x^(k-1) W_s eps delta'(eps), which must
    equal F(X, Z) of ``phase.vector_field``. The series is cut after N
    terms, and its TAIL_TERMS omitted terms, tau = sum_j |C_j| eps^(j+1),
    move F by k |Z f(x)| tau / delta, since Z f(x) carries delta^k, and X_s
    by at most x^(k-1) W_s (N + TAIL_TERMS) tau. F's rounding is
    ``phase.field_rounding``'s. The sum of the three is taken DEFECT_SAFETY
    times over."""
    hand = trace.hand_over
    if hand is None:
        return None
    series, N, k = slow_manifold(p, trace.rtol), hand.terms, p.k
    arc = trace.s > hand.s
    Z = trace.Z[arc]
    eps = np.exp(-np.log(p.cb * Z) / k)
    V = _powers(eps, N + TAIL_TERMS)
    d = np.concatenate(([0.0], series.C[:N]))
    delta = d @ V[: N + 1]
    slope = (np.arange(N + 1) * d) @ V[: N + 1]
    x = p.gamma - delta
    X = x**k
    W_s = 1.0 / series._ds_dw(delta)
    X_s = x ** (k - 1) * W_s * slope
    F, _G = phase.vector_field(X, Z, p)
    term = (p.n - 2.0 * k) * (1.0 - x / p.x_A) * X
    tau = np.abs(series.C[N : N + TAIL_TERMS]) @ V[N + 1 :]
    estimate = (
        k * (F + term) * tau / delta
        + x ** (k - 1) * W_s * (N + TAIL_TERMS) * tau
        + phase.field_rounding(X, Z, p)[0]
    )
    return float(np.max(np.abs(X_s - F) / (DEFECT_SAFETY * estimate)))
