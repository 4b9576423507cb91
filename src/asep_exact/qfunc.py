"""q-deformed special functions used by the exact moment formulas.

Everything here is double precision.  Infinite q-products are truncated
where their geometric tail bound falls below the target.  Finite ones come
from prefix tables (a;q)_j, j = 0..n, from which every integer-order ratio is
a quotient of two entries.  Inputs may be scalars or numpy arrays; array
inputs are evaluated elementwise with broadcasting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "PoleError",
    "ModelParams",
    "DEFAULT_TOL",
    "MAX_TERMS",
    "poch_inf",
    "poch_table",
    "q_factorial",
    "q_binomial",
    "q_exp",
    "germ_f",
    "germ_g",
]


class DomainError(ValueError):
    """Parameter outside the domain of an operation."""


class PoleError(ArithmeticError):
    """Evaluation requested at (or numerically on top of) a pole."""


@dataclass(frozen=True)
class ModelParams:
    """Asymmetric exclusion rates: jump right with rate p, left with rate q.

    Normalized so p + q = 1 with 0 < p < q (drift toward -infinity).  The
    deformation parameter is tau = p/q in (0, 1) and the time scale is
    gamma = q - p.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p < self.q):
            raise DomainError(f"need 0 < p < q, got p={self.p}, q={self.q}")
        if abs(self.p + self.q - 1.0) > 1e-12:
            raise DomainError(f"rates must satisfy p + q = 1, got {self.p + self.q}")

    @classmethod
    def from_p(cls, p: float) -> "ModelParams":
        return cls(p=float(p), q=1.0 - float(p))

    @classmethod
    def from_tau(cls, tau: float) -> "ModelParams":
        if not (0.0 < tau < 1.0):
            raise DomainError(f"need tau in (0,1), got {tau}")
        return cls(p=tau / (1.0 + tau), q=1.0 / (1.0 + tau))

    @property
    def tau(self) -> float:
        return self.p / self.q

    @property
    def gamma(self) -> float:
        return self.q - self.p


# Target error of node counts (quad.circle_nodes), Laplace series and q-products.
DEFAULT_TOL = 1e-14

# Most factors one infinite product may take; a tail bound that needs more
# is refused rather than truncated.
MAX_TERMS = 4096


def _num_terms(a_max: float, q: float, tol: float) -> int:
    # Geometric tail: |log prod_{n>N}| <= |a| q^{N+1} / (1-q) < tol.
    if not (0.0 < tol < 1.0):
        raise DomainError(f"need 0 < tol < 1, got {tol}")
    if a_max == 0.0:
        return 1
    n = math.ceil(math.log(tol * (1.0 - q) / max(1.0, a_max)) / math.log(q))
    n = max(n, 1) + 2
    if n > MAX_TERMS:
        raise ArithmeticError(
            f"q-product at q={q:.6g} needs {n} terms for tol={tol}, cap is {MAX_TERMS}"
        )
    return n


def poch_inf(a, q: float, tol: float = DEFAULT_TOL):
    """Infinite q-Pochhammer symbol prod_{n>=0} (1 - q^n a).

    Parameters
    ----------
    a : complex or ndarray
        Argument(s); any magnitude is allowed since only q^n a must shrink.
    q : float
        Base, strictly inside (0, 1).
    tol : float
        Target error, in (0, 1); the product stops once the geometric tail
        bound drops below it.

    Raises
    ------
    DomainError
        If q or tol lies outside (0, 1).
    ArithmeticError
        If that bound needs more than MAX_TERMS factors.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"need 0 < q < 1, got {q}")
    arr = np.asarray(a)
    a_max = float(np.max(np.abs(arr))) if arr.size else 0.0
    n = _num_terms(a_max, q, tol)
    out = np.ones_like(arr, dtype=complex)
    qn = 1.0
    for _ in range(n):
        out = out * (1.0 - qn * arr)
        qn *= q
    return out if np.ndim(a) else complex(out)


def poch_table(a, q: float, n: int):
    """Prefix table of finite q-Pochhammer symbols (a;q)_j = prod_{i<j} (1 - q^i a).

    Entries j = 0..n are stacked on a new first axis.  For integer orders
    (q^b a;q)_c = P[b+c] / P[b], so every finite ratio is a quotient of two
    entries.  Raises DomainError unless n is an integer >= 0, and PoleError if
    the last entry vanishes, as it does whenever any factor does.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"need an integer order n >= 0, got {n!r}")
    arr = np.asarray(a, dtype=complex)
    out = np.empty((n + 1,) + arr.shape, dtype=complex)
    out[0] = 1.0
    qj = 1.0
    for j in range(n):
        out[j + 1] = out[j] * (1.0 - qj * arr)
        qj *= q
    if np.any(np.abs(out[n]) < 1e-250):
        raise PoleError(f"(a;q)_{n} vanishes: a = q^-i for some i < {n}")
    return out


def q_factorial(m: int, q: float) -> float:
    """q-factorial prod_{a=1}^m (1-q^a) / (1-q)^m, with 0 -> 1."""
    if m < 0:
        raise DomainError(f"need m >= 0, got {m}")
    out = 1.0
    for a in range(1, m + 1):
        out *= (1.0 - q**a) / (1.0 - q)
    return out


def q_binomial(n: int, k: int, q: float) -> float:
    """Gaussian binomial coefficient n_q! / (k_q! (n-k)_q!)."""
    if k < 0 or k > n:
        raise DomainError(f"need 0 <= k <= n, got n={n}, k={k}")
    # Evaluate as a product of ratios to avoid overflow for larger n.
    out = 1.0
    for j in range(1, k + 1):
        out *= (1.0 - q ** (n - k + j)) / (1.0 - q**j)
    return out


def q_exp(x, q: float, tol: float = DEFAULT_TOL):
    """q-exponential 1 / ((1-q) x; q)_inf.

    Agrees with sum_k x^k / k_q! for |x| < 1 and continues it beyond.
    """
    den = poch_inf((1.0 - q) * np.asarray(x, dtype=complex), q, tol)
    if np.any(np.abs(den) < 1e-250):
        raise PoleError(f"q_exp pole at x={x}")
    out = np.asarray(1.0 / den)
    return out if np.ndim(x) else complex(out)


def _tau_pow(n, tau: float):
    return np.exp(np.asarray(n, dtype=complex) * math.log(tau))


def germ_f(w, n, x: int, t: float, params: ModelParams):
    """Single-variable weight combining the jump measure and the site factor.

    Returns (1-tau)^n exp(gamma t [1/(1+w) - 1/(1+tau^n w)])
    ((1+tau^n w)/(1+w))^(x-1).  n may be complex (a Mellin-Barnes variable);
    powers use the principal branch.
    """
    tau = params.tau
    warr = np.asarray(w, dtype=complex)
    if np.any(np.abs(1.0 + warr) == 0.0):
        raise PoleError("germ_f pole at w=-1")
    tn = _tau_pow(n, tau)
    shifted = 1.0 + tn * warr
    if np.any(np.abs(shifted) == 0.0):
        raise PoleError("germ_f essential singularity at 1 + tau^n w = 0")
    ratio = shifted / (1.0 + warr)
    val = (
        np.exp(np.asarray(n, dtype=complex) * math.log1p(-tau))
        * np.exp(params.gamma * t * (1.0 / (1.0 + warr) - 1.0 / shifted))
        * ratio ** (x - 1)
    )
    out = np.asarray(val)
    return out if (np.ndim(w) or np.ndim(n)) else complex(out)


def germ_g(w, n, tau: float, tol: float = DEFAULT_TOL):
    """Single-variable Pochhammer weight.

    (-w;tau)_inf/(-tau^n w;tau)_inf * (tau^{2n} w^2;tau)_inf/(tau^n w^2;tau)_inf.
    """
    warr = np.asarray(w, dtype=complex)
    tn = _tau_pow(n, tau)
    num = poch_inf(-warr, tau, tol) * poch_inf(tn * tn * warr**2, tau, tol)
    den = poch_inf(-tn * warr, tau, tol) * poch_inf(tn * warr**2, tau, tol)
    if np.any(np.abs(den) < 1e-250):
        raise PoleError(f"germ_g pole at w={w}, n={n}")
    out = np.asarray(num / den)
    return out if (np.ndim(w) or np.ndim(n)) else complex(out)
