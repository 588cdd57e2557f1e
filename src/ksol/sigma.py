"""Elementary symmetric functions, Newton transformations and positive-cone
tests, plus the Schouten-eigenvalue formulas of a radial conformal factor.

Eigenvalue lists are plain 1-d arrays; the ambient dimension is their length.
The radial eigenvalues are carried in the Euclidean gauge, i.e. scaled by a
positive conformal power of u, which leaves every sign/cone test unchanged.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError

# Largest ambient dimension for which binomials are formed exactly in int64.
MAX_DIM = 64

# Brute-force subset enumeration is the oracle path; keep it small.
MAX_ENUM_DIM = 12


def _check_lam(lam):
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise DomainError("eigenvalue list must be a non-empty 1-d sequence")
    if lam.size > MAX_DIM:
        raise DomainError(f"dimension {lam.size} exceeds supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(lam)):
        raise DomainError("eigenvalue list contains non-finite entries")
    return lam


def binomial(n, k):
    """Exact integer binomial coefficient, converted to float by callers."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def sigma_all(lam):
    """All elementary symmetric functions e_0..e_n of ``lam``.

    One-eigenvalue-at-a-time polynomial multiplication; O(n^2), exact up to
    float rounding. This is the production path.
    """
    lam = _check_lam(lam)
    n = lam.size
    e = np.zeros(n + 1)
    e[0] = 1.0
    for i in range(n):
        top = min(i + 1, n)
        for j in range(top, 0, -1):
            e[j] += lam[i] * e[j - 1]
    return e


def sigma_k(lam, k):
    """k-th elementary symmetric function of the eigenvalues."""
    lam = _check_lam(lam)
    n = lam.size
    if not 1 <= k <= n:
        raise DomainError(f"k={k} out of range 1..{n}")
    return sigma_all(lam)[k]


def sigma_k_enumerated(lam, k):
    """Brute-force subset enumeration of sigma_k. Oracle path, n <= 12."""
    lam = _check_lam(lam)
    n = lam.size
    if n > MAX_ENUM_DIM:
        raise DomainError(f"enumeration oracle limited to n <= {MAX_ENUM_DIM}")
    if not 1 <= k <= n:
        raise DomainError(f"k={k} out of range 1..{n}")
    total = 0.0
    for idx in combinations(range(n), k):
        prod = 1.0
        for i in idx:
            prod *= lam[i]
        total += prod
    return total


def newton_tensor_diag(lam, k):
    """Diagonal of the k-th Newton transformation evaluated on diag(lam).

    The i-th entry equals sigma_k of the list with the i-th eigenvalue
    removed (checked in the test suite against the alternating-sum form).
    """
    lam = _check_lam(lam)
    n = lam.size
    if not 0 <= k <= n - 1:
        raise DomainError(f"k={k} out of range 0..{n - 1}")
    if k == 0:
        return np.ones(n)
    out = np.empty(n)
    for i in range(n):
        out[i] = sigma_all(np.delete(lam, i))[k]
    return out


def in_positive_cone(lam, k):
    """True iff sigma_j(lam) > 0 for every j = 1..k."""
    lam = _check_lam(lam)
    n = lam.size
    if not 1 <= k <= n:
        raise DomainError(f"k={k} out of range 1..{n}")
    e = sigma_all(lam)
    return bool(np.all(e[1 : k + 1] > 0.0))


@dataclass(frozen=True)
class RadialEigenPair:
    """Schouten eigenvalues of a radial conformal factor.

    ``lambda1`` has multiplicity 1 (radial direction), ``lambda2`` has
    multiplicity n-1 (spherical directions).
    """

    lambda1: float
    lambda2: float
    n: int
    k: int

    def __post_init__(self):
        if not (math.isfinite(self.lambda1) and math.isfinite(self.lambda2)):
            raise DomainError("eigenvalues must be finite")
        if not 3 <= self.n <= MAX_DIM:
            raise DomainError(f"n={self.n} outside supported range 3..{MAX_DIM}")
        if not 1 <= self.k <= self.n:
            raise DomainError(f"k={self.k} out of range 1..{self.n}")

    def expand(self):
        """Full eigenvalue list (lambda1, lambda2, ..., lambda2)."""
        lam = np.full(self.n, self.lambda2)
        lam[0] = self.lambda1
        return lam


def schouten_pair(u, u_r, u_rr, r, n, k):
    """(lambda1, lambda2) in the Euclidean gauge from radial derivatives of u;
    floats or arrays, no validation."""
    m = (n - 2 * k) / (n + 2 * k)
    q = u_r / u
    lam1 = -((1.0 - m) / 2.0) * (u_rr / u - ((5.0 - m) / 4.0) * q * q)
    lam2 = -((1.0 - m) / 2.0) * q * (1.0 / r + ((1.0 - m) / 4.0) * q)
    return lam1, lam2


def split_sigma_l(lam1, lam2, n, l):
    """sigma_l of the split spectrum, lambda2^(l-1) [C(n-1,l-1) lambda1 +
    C(n-1,l) lambda2], and the condition number of the bracket's sum;
    floats or arrays, no validation."""
    b1 = float(binomial(n - 1, l - 1))
    b2 = float(binomial(n - 1, l))
    combo = b1 * lam1 + b2 * lam2
    cond = (b1 * np.abs(lam1) + b2 * np.abs(lam2)) / np.maximum(np.abs(combo), 1e-300)
    return lam2 ** (l - 1) * combo, cond


def radial_schouten_eigenvalues(u, u_r, u_rr, r, n, k):
    """Schouten eigenvalues (Euclidean gauge) from radial derivatives of u.

    Undefined at r = 0 because of the 1/r factor in the spherical eigenvalue;
    callers needing the origin must go through the small-r expansion instead.
    """
    if r <= 0.0:
        raise DomainError("r must be positive; use the origin expansion at r=0")
    if u <= 0.0:
        raise DomainError("conformal factor u must be positive")
    return RadialEigenPair(*schouten_pair(u, u_r, u_rr, r, n, k), n, k)


def radial_sigma_l(pair, l):
    """sigma_l of the split spectrum (lambda1 once, lambda2 with multiplicity n-1).

    Closed form: lambda2^(l-1) * [C(n-1,l-1) lambda1 + C(n-1,l) lambda2].
    """
    n = pair.n
    if not 1 <= l <= n:
        raise DomainError(f"l={l} out of range 1..{n}")
    return split_sigma_l(pair.lambda1, pair.lambda2, n, l)[0]


def is_admissible_radial(pair):
    """Positive-cone membership of the radial spectrum.

    Equivalent to the full cone test on the expanded list: sigma_k > 0
    together with lambda2 > 0.
    """
    return radial_sigma_l(pair, pair.k) > 0.0 and pair.lambda2 > 0.0
