"""The autonomous phase-plane system in (X, Z), its chart at the far corner
point A in (W, V), derived parameter constants, critical points and the
admissible region.

Conventions: s is the cylindrical coordinate (r = e^s), X = (-r u_r/u)^k,
Z = (r^2 u^(1-m))^k with m = (n-2k)/(n+2k). Lower-case x, w always denote
k-th roots X^(1/k), W^(1/k).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import PROF_F, PROF_H
from .errors import DomainError, NotApplicableError, ParameterError
from .sigma import MAX_DIM, binomial

# Critical point kinds.
SADDLE = "saddle"
SOURCE = "source"
ATTRACTOR = "attractor"
DEGENERATE = "degenerate"
DEGENERATE_LINE = "degenerate-line"


def kth_root(value, k):
    """x^(1/k) as exp(ln x / k), guarded to return 0 at x <= 0; floats or arrays.

    numpy's exp and log round alike on scalars and arrays, unlike the math
    module's, so every evaluation matches the uncompiled integrator kernel.
    """
    if not isinstance(value, np.ndarray):
        if value <= 0.0:
            return 0.0
        return float(value) if k == 1 else float(np.exp(np.log(value) / k))
    pos = value > 0.0
    if k == 1:
        return np.where(pos, value, 0.0)
    return np.where(pos, np.exp(np.log(np.where(pos, value, 1.0)) / k), 0.0)


@dataclass(frozen=True)
class SolitonParams:
    """Parameter tuple (n, k, rho, theta) plus every derived constant.

    Built through :func:`make_params`, which enforces theta > 0 and
    2*theta + rho > 0 (necessary for any admissible soliton).
    """

    n: int
    k: int
    rho: float
    theta: float
    # derived
    m: float = field(init=False)
    beta: float = field(init=False)
    gamma: float = field(init=False)
    c_nk: float = field(init=False)
    X_A: float = field(init=False)
    X_B: float = field(init=False)
    Z_B: float | None = field(init=False)
    nu: float = field(init=False)
    # conveniences (k-th roots and region cap)
    x_A: float = field(init=False)
    x_B: float = field(init=False)
    gamma_k: float = field(init=False)
    x_cap: float = field(init=False)

    def __post_init__(self):
        n, k = self.n, self.k
        rho, theta = self.rho, self.theta
        m = (n - 2 * k) / (n + 2 * k)
        beta = (1.0 - m) * theta
        gamma = ((n + 2 * k) / k) * (2.0 * theta + rho) / (4.0 * theta)
        c_nk = (n + 2 * k) / (2.0**k * binomial(n - 1, k - 1)) * (
            k / (n + 2 * k)
        ) ** (1 - k)
        x_A = (n + 2 * k) / k
        x_B = (n + 2 * k) / (2.0 * k)
        X_A = x_A**k
        X_B = x_B**k
        if n > 2 * k and rho != 0.0:
            Z_B = (n - 2 * k) * binomial(n - 1, k - 1) / (k * (2.0 * rho) ** k)
        else:
            Z_B = None
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "c_nk", c_nk)
        object.__setattr__(self, "X_A", X_A)
        object.__setattr__(self, "X_B", X_B)
        object.__setattr__(self, "Z_B", Z_B)
        object.__setattr__(self, "nu", gamma - x_A)
        object.__setattr__(self, "x_A", x_A)
        object.__setattr__(self, "x_B", x_B)
        object.__setattr__(self, "gamma_k", gamma**k)
        object.__setattr__(self, "x_cap", min(gamma**k, X_A))

    @property
    def cb(self):
        """c_nk * beta^k, the prefactor shared by f and h."""
        return self.c_nk * self.beta**self.k

    @property
    def f0(self):
        """f(0) = c_nk beta^k gamma^k, positive for every valid parameter set."""
        return self.cb * self.gamma**self.k

    @property
    def h0(self):
        """h(0) = c_nk beta^k nu^k (nu >= 0 requires rho >= 2 theta)."""
        return self.cb * self.nu**self.k


def make_params(n, k, rho, theta):
    """Validate (n, k, rho, theta) and populate all derived constants."""
    if int(n) != n or int(k) != k:
        raise ParameterError("n and k must be integers")
    n, k = int(n), int(k)
    if not 3 <= n <= MAX_DIM:
        raise ParameterError(f"require 3 <= n <= {MAX_DIM}, got n={n}")
    if not 1 <= k <= n:
        raise ParameterError(f"require 1 <= k <= n, got k={k}")
    theta = float(theta)
    rho = float(rho)
    if not theta > 0.0:
        raise ParameterError(f"admissibility requires theta > 0, got theta={theta}")
    if not 2.0 * theta + rho > 0.0:
        raise ParameterError(
            f"admissibility requires 2*theta + rho > 0, got {2.0 * theta + rho}"
        )
    return SolitonParams(n, k, rho, theta)


@dataclass(frozen=True)
class PhaseState:
    """A phase-plane point, optionally tagged with its coordinate s (r = e^s)."""

    X: float
    Z: float
    s: float | None = None

    def __iter__(self):
        yield self.X
        yield self.Z


def _unpack(state):
    it = iter(state)
    a = float(next(it))
    b = float(next(it))
    return a, b


def _profile_ratio(x, p, prof):
    """(q, g) with q = 1 - x/x_A and g the profile's numerator over q: gamma - x
    for f (prof=PROF_F), nu + x for the A-chart h (prof=PROF_H)."""
    q = 1.0 - x / p.x_A
    return q, (p.gamma - x if prof == PROF_F else p.nu + x) / q


def profile_value(x, p, prof=PROF_F):
    """f or h at x = X^(1/k), c_nk beta^k q g^k with (q, g) from
    :func:`_profile_ratio`; floats or arrays, no domain check. g^k is a
    k-fold product, in the operation order of the integrator's kernel."""
    q, g = _profile_ratio(x, p, prof)
    power = g
    for _ in range(p.k - 1):
        power = power * g
    return p.cb * q * power


def profile_slope(x, p, prof=PROF_F):
    """d/dx of :func:`profile_value`: c_nk beta^k k g^(k-1) (((k-1)/(n+2k)) g -+ 1),
    with - for f and + for h. Takes floats or arrays."""
    _q, g = _profile_ratio(x, p, prof)
    sign = 1.0 if prof == PROF_F else -1.0
    return p.cb * p.k * g ** (p.k - 1) * (((p.k - 1) / (p.n + 2 * p.k)) * g - sign)


def vector_field(X, Z, p, prof=PROF_F):
    """(X_s, Z_s) with profile f, or with h the reversed A-chart field;
    floats or arrays, no domain check, in the operation order of the
    integrator's scalar kernel."""
    x = kth_root(X, p.k)
    F = -(p.n - 2.0 * p.k) * (1.0 - x / p.x_A) * X + Z * profile_value(x, p, prof)
    G = 2.0 * p.k * Z * (1.0 - x / p.x_B)
    return F, G


def f_profile(x, p):
    """Nonlinearity f evaluated at x = X^(1/k).

    f(x) = c_nk beta^k (1 - x/x_A) ((gamma - x)/(1 - x/x_A))^k;
    vanishes at x = gamma and is singular at x = x_A.
    """
    if x < 0.0 or x >= p.x_A:
        raise DomainError(f"f domain is 0 <= x < {p.x_A}, got {x}")
    return profile_value(x, p, PROF_F)


def h_profile(w, p):
    """A-chart nonlinearity h at w = W^(1/k); h(0) = c_nk beta^k nu^k."""
    if w < 0.0 or w >= p.x_A:
        raise DomainError(f"h domain is 0 <= w < {p.x_A}, got {w}")
    return profile_value(w, p, PROF_H)


def system_rhs(state, p):
    """Right-hand side (X_s, Z_s) of the autonomous system.

    X_s = -(n-2k)(1 - x/x_A) X + Z f(x),  Z_s = 2k Z (1 - x/x_B).
    The first term of X_s vanishes identically for n = 2k. States on the
    Z = 0 axis are accepted up to X = X_A (the f-term carries the factor Z).
    """
    X, Z = _unpack(state)
    if X < 0.0:
        raise DomainError("X must be nonnegative (k-th root undefined)")
    x = kth_root(X, p.k)
    if Z == 0.0:
        return -(p.n - 2 * p.k) * (1.0 - x / p.x_A) * X, 0.0
    if x >= p.x_A:
        # the corner gamma = x_A (rho = 2 theta): f -> 0 there, so the
        # asymptote line X = gamma^k = X_A is stationary in X
        if p.gamma == p.x_A and X <= p.X_A * (1.0 + 1e-12):
            return 0.0, 2.0 * p.k * Z * (1.0 - x / p.x_B)
        raise DomainError(f"state with X^(1/k) = {x} >= x_A = {p.x_A} and Z > 0")
    return vector_field(X, Z, p, PROF_F)


def system_rhs_A(state, p):
    """Right-hand side (W_s, V_s) of the A-chart system.

    W_s = (n-2k) W (1 - w/x_A) - V h(w),  V_s = -2k V (1 - w/x_B): the
    negated field with profile h.
    """
    W, V = _unpack(state)
    if W < 0.0:
        raise DomainError("W must be nonnegative (k-th root undefined)")
    w = kth_root(W, p.k)
    if w >= p.x_A:
        raise DomainError(f"h domain is 0 <= w < {p.x_A}, got {w}")
    F, G = vector_field(W, V, p, PROF_H)
    return -F, -G


def df_dX(X, p):
    """Analytic derivative d f(X^(1/k)) / dX for the Jacobian."""
    k = p.k
    xpow = X ** ((1 - k) / k) if k > 1 else 1.0
    return profile_slope(kth_root(X, k), p, PROF_F) * xpow / k


def jacobian(state, p):
    """Analytic Jacobian of (F, G) at an interior point 0 < X < X_A.

    Matches central finite differences; at the corner points O and A the
    field is not differentiable, use the restricted forms instead.
    """
    X, Z = _unpack(state)
    if X <= 0.0 or X >= p.X_A:
        raise DomainError("Jacobian defined for 0 < X < X_A; use restricted forms")
    n, k, m = p.n, p.k, p.m
    x = kth_root(X, k)
    dFdX = (2 * k - n) + m * (k + 1) * x + Z * df_dX(X, p)
    dFdZ = f_profile(x, p)
    dGdX = -(1.0 - m) * Z * (X ** ((1 - k) / k) if k > 1 else 1.0)
    dGdZ = 2.0 * k - (1.0 - m) * k * x
    return np.array([[dFdX, dFdZ], [dGdX, dGdZ]])


def eig2x2(mat):
    """Closed-form eigenvalues of a 2x2 matrix via trace/determinant."""
    t = mat[0][0] + mat[1][1]
    d = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    disc = t * t - 4.0 * d
    if disc >= 0.0:
        root = math.sqrt(disc)
        return complex((t + root) / 2.0), complex((t - root) / 2.0)
    root = math.sqrt(-disc)
    return complex(t / 2.0, root / 2.0), complex(t / 2.0, -root / 2.0)


@dataclass(frozen=True)
class Linearization:
    """A Jacobian together with its closed-form eigen data and stability kind."""

    matrix: np.ndarray
    eigenvalues: tuple
    eigenvectors: tuple | None
    kind: str

    @property
    def trace(self):
        return float(self.matrix[0, 0] + self.matrix[1, 1])

    @property
    def determinant(self):
        return float(np.linalg.det(self.matrix))


def restricted_jacobian_origin(p):
    """Restricted Jacobian at O = (0, 0), taken through sectors Z < K X.

    [[-(n-2k), f(0)], [0, 2k]]; saddle for n > 2k, degenerate for n = 2k,
    source for n < 2k.
    """
    n, k = p.n, p.k
    f0 = p.f0
    mat = np.array([[-(n - 2 * k), f0], [0.0, 2.0 * k]])
    eigenvalues = (complex(2.0 * k), complex(-(n - 2 * k)))
    eigenvectors = ((1.0, n / f0), (1.0, 0.0))
    if n > 2 * k:
        kind = SADDLE
    elif n == 2 * k:
        kind = DEGENERATE
    else:
        kind = SOURCE
    return Linearization(mat, eigenvalues, eigenvectors, kind)


def restricted_jacobian_A(p):
    """Restricted Jacobian of the A-chart system at (W, V) = (0, 0).

    [[n-2k, -h(0)], [0, -2k]]; the decaying direction (eigenvalue -2k) is
    spanned by (1, n/h(0)).
    """
    n, k = p.n, p.k
    h0 = p.h0
    mat = np.array([[float(n - 2 * k), -h0], [0.0, -2.0 * k]])
    eigenvalues = (complex(-2.0 * k), complex(n - 2 * k))
    eigenvectors = ((1.0, n / h0) if h0 > 0.0 else None, (1.0, 0.0))
    if n > 2 * k:
        kind = SADDLE
    elif n == 2 * k:
        kind = DEGENERATE
    else:
        # both eigenvalues negative: a stable node
        kind = ATTRACTOR
    return Linearization(mat, eigenvalues, eigenvectors, kind)


def jacobian_B(p):
    """Closed-form linearization at the interior critical point B.

    Off-diagonal entries are f(x_B) and -(n-2k)/f(x_B); the reported trace
    T = -((n-2k)/2) [x_B^k - (k-1)/k] and determinant D = n-2k give
    T < 0 < D, so B is an attractor whenever it exists (n > 2k, rho != 0).
    """
    n, k = p.n, p.k
    if n <= 2 * k:
        raise NotApplicableError("B is a distinguished critical point only for n > 2k")
    if p.rho == 0.0:
        raise NotApplicableError("B escapes to infinity for rho = 0")
    fb = f_profile(p.x_B, p)
    T = -((n - 2 * k) / 2.0) * (p.x_B**k - (k - 1) / k)
    mat = np.array([[T, fb], [-(n - 2 * k) / fb, 0.0]])
    eigenvalues = eig2x2(((T, fb), (-(n - 2 * k) / fb, 0.0)))
    return Linearization(mat, eigenvalues, None, ATTRACTOR)


@dataclass(frozen=True)
class CriticalPoint:
    name: str
    location: tuple
    kind: str
    eigenvalues: tuple | None
    eigenvectors: tuple | None
    in_admissible_region: bool
    chart: str = "XZ"
    # for the n = 2k degenerate line: the X-range [lo, hi] of critical axis points
    extent: tuple | None = None


def in_admissible_region(state, p):
    """Strict membership: Z > 0 and 0 < X < min(gamma^k, X_A)."""
    X, Z = _unpack(state)
    return Z > 0.0 and 0.0 < X < p.x_cap


def critical_points(p):
    """All critical points of the system with region-membership flags.

    n > 2k: O, A and (for rho != 0) B. n = 2k: the whole axis segment
    (X, 0) is critical and is reported as a single degenerate line.
    n < 2k: O and A only.
    """
    n, k = p.n, p.k
    pts = []
    lin_o = restricted_jacobian_origin(p)
    pts.append(
        CriticalPoint(
            "O",
            (0.0, 0.0),
            lin_o.kind,
            lin_o.eigenvalues,
            lin_o.eigenvectors,
            in_admissible_region=False,
        )
    )
    if n == 2 * k:
        # every (X, 0) with 0 <= X <= min(gamma^k, X_A) is critical; no
        # distinguished interior point exists, only the axis segment
        pts.append(
            CriticalPoint(
                "axis",
                (p.x_cap / 2.0, 0.0),
                DEGENERATE_LINE,
                None,
                None,
                in_admissible_region=False,
                extent=(0.0, p.x_cap),
            )
        )
        return pts
    lin_a = restricted_jacobian_A(p)
    pts.append(
        CriticalPoint(
            "A",
            (p.X_A, 0.0),
            lin_a.kind,
            lin_a.eigenvalues,
            lin_a.eigenvectors,
            # A sits on the orbit-relevant side exactly when X_A < gamma^k
            in_admissible_region=p.X_A < p.gamma_k,
            chart="WV",
        )
    )
    if n > 2 * k and p.rho != 0.0:
        lin_b = jacobian_B(p)
        pts.append(
            CriticalPoint(
                "B",
                (p.X_B, p.Z_B),
                lin_b.kind,
                lin_b.eigenvalues,
                None,
                in_admissible_region=p.rho > 0.0,
            )
        )
    return pts
