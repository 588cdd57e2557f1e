"""The autonomous phase-plane system in (X, Z), its chart at the far corner
point A in (W, V), derived parameter constants, critical points and the
admissible region.

Reversing s turns the A-chart system into the origin system with f replaced
by h, which differs from f only in its numerator; a parameter set is built
in one chart ("XZ" or "WV") and carries that difference as data. Every
entry point reads the chart from the parameter set: ``profile_at`` gives f
or h, ``system_rhs`` the origin system or the negated field with h, and
``restricted_jacobian_origin`` the linearization at O or at A.

Conventions: s is the cylindrical coordinate (r = e^s), X = (-r u_r/u)^k,
Z = (r^2 u^(1-m))^k with m = (n-2k)/(n+2k). Lower-case x, w always denote
k-th roots X^(1/k), W^(1/k).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, NotApplicableError, ParameterError
from .sigma import MAX_DIM, binomial

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)

# Critical point kinds.
SADDLE = "saddle"
SOURCE = "source"
ATTRACTOR = "attractor"
DEGENERATE = "degenerate"
DEGENERATE_LINE = "degenerate-line"


def kth_root(value, k):
    """x^(1/k), guarded to return 0 at x <= 0; floats or arrays. The value
    itself at k = 1, sqrt at k = 2, exp(ln x / k) at k >= 3.

    IEEE 754 rounds sqrt correctly, so math.sqrt and np.sqrt agree bit for
    bit; numpy's exp and log round alike on scalars and arrays, unlike the
    math module's. So every evaluation matches the integrator kernel's.
    """
    if not isinstance(value, np.ndarray):
        if value <= 0.0:
            return 0.0
        if k == 1:
            return float(value)
        if k == 2:
            return math.sqrt(value)
        return float(np.exp(np.log(value) / k))
    pos = value > 0.0
    if k == 1:
        return np.where(pos, value, 0.0)
    safe = np.where(pos, value, 1.0)
    return np.where(pos, np.sqrt(safe) if k == 2 else np.exp(np.log(safe) / k), 0.0)


@dataclass(frozen=True)
class SolitonParams:
    """Parameter tuple (n, k, rho, theta) plus every derived constant, in
    the chart ``chart``: "XZ" at the origin, "WV" at the corner point A.

    Built through :func:`make_params`, which enforces theta > 0 and
    2*theta + rho > 0 (necessary for any admissible soliton), in the origin
    chart; :meth:`in_chart` gives the same set in the other chart.
    """

    n: int
    k: int
    rho: float
    theta: float
    chart: str = "XZ"
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
    # the chart's profile numerator num_a + num_b x (gamma - x for f, nu + x
    # for h), the profile at 0, the Picard box's cap on X, whether the run is
    # drawn to B (origin chart, B in the region) and whether it ends at X_B
    # (A chart: the barrier compares the two orbits on [0, X_B])
    num_a: float = field(init=False)
    num_b: float = field(init=False)
    profile0: float = field(init=False)
    picard_cap: float = field(init=False)
    b_attracts: bool = field(init=False)
    stops_at_xb: bool = field(init=False)

    def __post_init__(self):
        n, k = self.n, self.k
        rho, theta = self.rho, self.theta
        if self.chart not in ("XZ", "WV"):
            raise ParameterError(f"chart must be 'XZ' or 'WV', got {self.chart!r}")
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
        origin = self.chart == "XZ"
        object.__setattr__(self, "num_a", gamma if origin else self.nu)
        object.__setattr__(self, "num_b", -1.0 if origin else 1.0)
        object.__setattr__(self, "profile0", self.f0 if origin else self.h0)
        object.__setattr__(self, "picard_cap", min(gamma**k, X_B) if origin else X_B)
        object.__setattr__(self, "b_attracts", origin and Z_B is not None and rho > 0.0)
        object.__setattr__(self, "stops_at_xb", not origin)

    def in_chart(self, chart):
        """This parameter set in the chart labelled ``chart`` ("XZ" or "WV")."""
        return self if chart == self.chart else replace(self, chart=chart)

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


def _profile_ratio(x, p):
    """(q, g) with q = 1 - x/x_A and g the chart's profile numerator
    num_a + num_b x over q: gamma - x for f, nu + x for the A-chart h."""
    q = 1.0 - x / p.x_A
    return q, (p.num_a + p.num_b * x) / q


def _in_logs(value, c, g, j):
    """``value``, the float product c g^j, where it is finite; where g^j
    left the float range (large k, g near x_A), c g^j formed in logs
    instead, and inf, with no warning, where c g^j is past the range too.
    The callers pass values they formed under ``np.errstate(over="ignore")``
    and call this only where one of them is not finite."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        spilled = np.sign(c) * np.sign(g) ** j * np.exp(np.log(np.abs(c)) + j * np.log(np.abs(g)))
        return np.where(np.isfinite(value) | ~np.isfinite(g), value, spilled)


def _profile(x, p):
    """:func:`profile_value`, for callers that hold ``np.errstate(over="ignore",
    invalid="ignore")``."""
    q, g = _profile_ratio(x, p)
    power = g
    for _ in range(p.k - 1):
        power = power * g
    value = p.cb * q * power
    return value if np.isfinite(value).all() else _in_logs(value, p.cb * q, g, p.k)


def profile_value(x, p):
    """The chart's profile (f at the origin, h at A) at x = X^(1/k),
    c_nk beta^k q g^k with (q, g) from :func:`_profile_ratio`; floats or
    arrays, no domain check. g^k is a k-fold product, in the operation order
    of the integrator's kernel, and in logs where it leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _profile(x, p)


def profile_slope(x, p):
    """d/dx of :func:`profile_value`: c_nk beta^k k g^(k-1) (((k-1)/(n+2k)) g + num_b),
    num_b = -1 for f and +1 for h. Takes floats or arrays."""
    _q, g = _profile_ratio(x, p)
    with np.errstate(over="ignore", invalid="ignore"):
        tail = ((p.k - 1) / (p.n + 2 * p.k)) * g + p.num_b
        value = p.cb * p.k * g ** (p.k - 1) * tail
    return value if np.isfinite(value).all() else _in_logs(value, p.cb * p.k * tail, g, p.k - 1)


def _root_rounding(x, k):
    """A bound on the relative rounding of x = ``kth_root``(X, k) in units
    of eps: none at k = 1, sqrt's half ulp at k = 2; at k >= 3 ln X and its
    quotient by k each err by an ulp, |ln x| eps in the exponent, which exp
    carries into x with an ulp of its own."""
    if k <= 2:
        return 0.5 * (k - 1)
    return 2.0 * np.abs(np.log(np.where(x > 0.0, x, 1.0))) + 2.0


def _rounding_parts(x, p):
    """The terms of the profile's rounding at x = ``kth_root``(X, k) in
    units of eps, first order: (q, N, ex, dq, dN, rest), with q = 1 - x/x_A
    and its absolute rounding dq, the numerator N = num_a + num_b x and its
    absolute rounding dN, x's relative rounding ex, and ``rest``, the
    profile's relative rounding from all but N: that of c_nk beta^k (the
    powers of k/(n+2k) and of beta = (1 - m) theta, m rounded relative to
    1 - m), of q^(1-k) and of the operations around the power. num_a = gamma
    is four operations from the parameters, and nu = gamma - x_A a fifth."""
    k = p.k
    ex = _root_rounding(x, k)
    q = 1.0 - x / p.x_A
    N = p.num_a + p.num_b * x
    dq = x / p.x_A * (ex + 1.0) + np.abs(q)
    dN = (2.0 * p.gamma if p.chart == "XZ" else 3.0 * p.gamma + p.x_A) + x * ex + np.abs(N)
    rest = abs(p.n - 2 * k) / 8.0 + 3.5 * k + 5.0 + (k + 1.0) * dq / np.abs(q)
    return q, N, ex, dq, dN, rest


def profile_condition(x, p):
    """The relative rounding of the chart's profile at x in units of eps, to
    first order (:func:`_rounding_parts`): k dN/|N| from the k-fold power of
    the numerator N, which carries its cancellation (gamma - x near gamma),
    plus the rest. Floats or arrays."""
    with np.errstate(divide="ignore"):
        _q, N, _ex, _dq, dN, rest = _rounding_parts(x, p)
        return rest + p.k * dN / np.abs(N)


def field_rounding(X, Z, p):
    """(rF, rG): bounds on the rounding of :func:`vector_field`'s F and G
    at (X, Z), absolute, floats or arrays, in the chart of ``p``.

    The error model is the standard one (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3), each operation off by at most half an ulp
    and each library function by an ulp, carried term by term through
    vector_field to first order in eps (:func:`_rounding_parts`): the k-th
    root x, q = 1 - x/x_A, the term (n-2k) q X, the profile term Z f(x) and
    the final sum. The profile's numerator N enters as a k-th power, whose
    rounding the mean value theorem bounds by
    Z c_nk beta^k k eps dN ((|N| + eps dN)/|q|)^(k-1): finite where f
    vanishes (N = 0), and k dN/|N| relative to Z f elsewhere, the
    cancellation of gamma - x. G rounds as 2k Z (1 - x/x_B). The rounding of
    the parameters' derived constants is included, so the bound holds
    against the field of the exact (n, k, rho, theta);
    ``tests/test_phase.py`` checks it against mpmath at 50 digits. It is
    first order: near q = 0 (x within some k eps of x_A) it is an estimate.
    """
    eps, k = _EPS, p.k
    x = kth_root(X, k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q, N, ex, dq, dN, rest = _rounding_parts(x, p)
        t1 = (p.n - 2.0 * k) * q * X
        t2 = Z * _profile(x, p)
        Z = np.abs(Z)
        numerator = Z * (p.cb * k * eps) * dN
        if k > 1:
            G1 = (np.abs(N) + eps * dN) / np.abs(q)
            power = numerator * G1 ** (k - 1)
            numerator = power if np.isfinite(power).all() else _in_logs(power, numerator, G1, k - 1)
        rF = eps * (abs(p.n - 2.0 * k) * np.abs(X) * (dq + np.abs(q)) + rest * np.abs(t2) + 0.5 * np.abs(t2 - t1))
        # gradual underflow: each operation is also off by up to half the
        # least subnormal, the k-fold power's carried by Z c_nk beta^k q
        rF = rF + numerator + _TINY * (k * Z * (p.cb * np.abs(q) + 1.0) + 4.0)
    r_b = x / p.x_B
    rG = (eps * 2.0 * k) * Z * (r_b * (ex + 1.0) + 2.0 * np.abs(1.0 - r_b)) + 2.0 * _TINY
    return rF, rG


def vector_field(X, Z, p):
    """(X_s, Z_s) with the chart's profile: the origin field with f, or with
    h the reversed A-chart field; floats or arrays, no domain check. The
    integrator's scalar kernel evaluates the same field in the log chart
    W = ln(c_nk beta^k Z). F is inf, with no warning, where it leaves the
    float range (large k near x_A)."""
    x = kth_root(X, p.k)
    with np.errstate(over="ignore", invalid="ignore"):
        F = -(p.n - 2.0 * p.k) * (1.0 - x / p.x_A) * X + Z * _profile(x, p)
    G = 2.0 * p.k * Z * (1.0 - x / p.x_B)
    return F, G


def profile_at(x, p):
    """The chart's profile at x = X^(1/k) (W^(1/k) in the A chart), checked
    against its domain 0 <= x < x_A: f at the origin,

    f(x) = c_nk beta^k (1 - x/x_A) ((gamma - x)/(1 - x/x_A))^k,

    which vanishes at x = gamma, and h at A, with nu + x for gamma - x and
    h(0) = c_nk beta^k nu^k. Both are singular at x = x_A.
    """
    if x < 0.0 or x >= p.x_A:
        raise DomainError(f"profile domain is 0 <= x < {p.x_A}, got {x}")
    return profile_value(x, p)


def system_rhs(state, p):
    """Right-hand side of the system in the chart of ``p``, with a domain check.

    Origin chart: X_s = -(n-2k)(1 - x/x_A) X + Z f(x),  Z_s = 2k Z (1 - x/x_B);
    the first term of X_s vanishes identically for n = 2k. A chart: the
    negated field with h, W_s = (n-2k) W (1 - w/x_A) - V h(w),
    V_s = -2k V (1 - w/x_B). States on the axis Z = 0 are evaluated at every
    X >= 0 (the profile term carries the factor Z). Off the axis x < x_A is
    required, except on the line x = x_A when the chart's profile numerator
    vanishes at x_A: the origin chart at rho = 2 theta (gamma = x_A).
    """
    X, Z = _unpack(state)
    if X < 0.0:
        raise DomainError("X must be nonnegative (k-th root undefined)")
    sign = 1.0 if p.chart == "XZ" else -1.0
    x = kth_root(X, p.k)
    if Z == 0.0:
        return sign * -(p.n - 2 * p.k) * (1.0 - x / p.x_A) * X, 0.0
    if x < p.x_A:
        F, G = vector_field(X, Z, p)
        return sign * F, sign * G
    if p.num_a + p.num_b * p.x_A == 0.0 and X <= p.X_A * (1.0 + 1e-12):
        # the profile tends to 0 at x_A, so the line X = X_A is stationary in X
        return 0.0, sign * 2.0 * p.k * Z * (1.0 - x / p.x_B)
    raise DomainError(f"state with X^(1/k) = {x} >= x_A = {p.x_A} and Z > 0")


def field_in_domain(X, Z, p):
    """:func:`system_rhs` on arrays, NaN where it raises: one :func:`vector_field`
    call, with the points on the axis Z = 0 or off 0 <= x < x_A read off system_rhs."""
    with np.errstate(divide="ignore", invalid="ignore"):
        F, G = ((1.0 if p.chart == "XZ" else -1.0) * v for v in vector_field(X, Z, p))
    for i in np.flatnonzero((Z == 0.0) | (X < 0.0) | ~(kth_root(X, p.k) < p.x_A)):
        try:
            F.flat[i], G.flat[i] = system_rhs((X.flat[i], Z.flat[i]), p)
        except DomainError:
            F.flat[i] = G.flat[i] = np.nan
    return F, G


def jacobian(state, p):
    """Analytic Jacobian of (F, G) = ``vector_field`` at interior points
    0 < X < X_A.

    ``state`` is one point, or (X, Z) as two arrays of one shape, which
    gives the entries as arrays: shape (2, 2) + X.shape. Matches the
    complex-step derivative of vector_field; at the corner points O and A
    the field is not differentiable, use the restricted forms instead.
    """
    X, Z = state
    if np.ndim(X) == 0:
        X, Z = _unpack(state)
    if np.any(X <= 0.0) or np.any(X >= p.X_A):
        raise DomainError("Jacobian defined for 0 < X < X_A; use restricted forms")
    n, k, m = p.n, p.k, p.m
    x = kth_root(X, k)
    xpow = X ** ((1 - k) / k) if k > 1 else 1.0  # dx/dX = xpow/k
    dFdX = (2 * k - n) + m * (k + 1) * x + Z * (profile_slope(x, p) * xpow / k)
    dFdZ = profile_value(x, p)
    dGdX = -(1.0 - m) * Z * xpow
    dGdZ = 2.0 * k - (1.0 - m) * k * x
    return np.array([[dFdX, dFdZ], [dGdX, dGdZ]])


def eig2x2(mat):
    """Closed-form eigenvalues of a 2x2 matrix via trace/determinant; a
    discriminant within the rounding of t^2 - 4d is the double root t/2."""
    t = mat[0][0] + mat[1][1]
    d = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    disc = t * t - 4.0 * d
    if abs(disc) <= 4.0 * np.finfo(float).eps * (t * t + 4.0 * abs(d)):
        return complex(t / 2.0), complex(t / 2.0)
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
    """Restricted Jacobian at the origin of the chart of ``p``, taken through
    sectors Z < K X: O = (X, Z) = (0, 0) in "XZ", A = (W, V) = (0, 0) in "WV".

    [[-(n-2k), P(0)], [0, 2k]] with P the chart's profile, negated in the A
    chart, whose system is the negated field; the direction of eigenvalue
    2k (-2k at A) is spanned by (1, n/P(0)). Saddle for n > 2k, degenerate
    for n = 2k; for n < 2k a source at O and a stable node at A.
    """
    n, k = p.n, p.k
    sign = 1.0 if p.chart == "XZ" else -1.0
    p0 = p.profile0
    # + 0.0 takes the sign off a negated zero (n = 2k, h(0) at rho = 2 theta)
    mat = sign * np.array([[-(n - 2.0 * k), p0], [0.0, 2.0 * k]]) + 0.0
    eigenvalues = (complex(mat[1, 1]), complex(mat[0, 0]))
    eigenvectors = ((1.0, n / p0) if p0 > 0.0 else None, (1.0, 0.0))
    if n > 2 * k:
        kind = SADDLE
    elif n == 2 * k:
        kind = DEGENERATE
    else:
        kind = SOURCE if p.chart == "XZ" else ATTRACTOR
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
    fb = profile_at(p.x_B, p.in_chart("XZ"))
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
    lin_o = restricted_jacobian_origin(p.in_chart("XZ"))
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
    lin_a = restricted_jacobian_origin(p.in_chart("WV"))
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
