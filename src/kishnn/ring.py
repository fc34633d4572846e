"""Exact arithmetic in the evaluation ring Z_P.

Parameter selection, base-p digit decomposition and the standard-normal
quantile used to turn k/n into a threshold offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ParameterError(ValueError):
    pass


@dataclass(frozen=True)
class RingParams:
    """Evaluation ring and value bounds for one protocol instance.

    All server-side arithmetic lives in Z_modulus.  The modulus exceeds
    twice the largest distance so that differences of in-range values keep
    their sign under the upper-half-is-negative convention.
    """

    modulus: int
    coord_bound: int  # grid size g; coordinates live in [0, g)
    dim: int
    dist_bound: int  # largest L1 distance: dim * (coord_bound - 1)
    n: int

    def __post_init__(self):
        if self.coord_bound < 2 or self.dim < 1 or self.n < 1:
            raise ParameterError("need coord_bound >= 2, dim >= 1, n >= 1")
        if not is_prime(self.modulus):
            raise ParameterError(f"modulus {self.modulus} is not prime")
        if self.modulus <= 2 * self.dist_bound:
            raise ParameterError("modulus must exceed 2 * dist_bound")

    def reduce(self, v: int) -> int:
        """Embed a (possibly negative) integer into Z_modulus."""
        return v % self.modulus

    def signed(self, v: int) -> int:
        """Interpret a ring element as a signed value (upper half negative)."""
        v %= self.modulus
        return v if v <= self.modulus // 2 else v - self.modulus


@dataclass(frozen=True)
class DigitPair:
    """Base-p digits of a value v < coord_bound**2: v = high*p + low."""

    low: int
    high: int


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    The first twelve prime bases decide every m below 3.18 * 10^23
    (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
    2017), far past any 64-bit modulus the wire can carry, in O(log^3 m)
    time.
    """
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def select_ring_params(grid_size: int, dim: int, n: int) -> RingParams:
    """Pick the smallest prime modulus compatible with the grid.

    The modulus is the smallest prime strictly greater than twice the
    maximal L1 distance, so comparisons of any two in-range values are
    unambiguous.
    """
    if grid_size < 2 or dim < 1 or n < 1:
        raise ParameterError("need grid_size >= 2, dim >= 1, n >= 1")
    dist_bound = dim * (grid_size - 1)
    m = 2 * dist_bound + 1
    while not is_prime(m):
        m += 1
    return RingParams(modulus=m, coord_bound=grid_size, dim=dim,
                      dist_bound=dist_bound, n=n)


def base_p_decompose(v: int, params: RingParams) -> DigitPair:
    """Split v < coord_bound**2 into (v mod p, v div p) digits."""
    p = params.coord_bound
    if not 0 <= v < p * p:
        raise ParameterError(f"value {v} outside [0, {p * p})")
    return DigitPair(low=v % p, high=v // p)


# Coefficients of Acklam's rational approximation to the normal quantile.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def phi_inverse(q: float) -> float:
    """Standard-normal quantile, |Phi(result) - q| <= 1e-9.

    Rational approximation plus one Halley refinement step against the
    exact erf-based CDF.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError(f"quantile argument {q} outside (0, 1)")
    q_low = 0.02425
    if q < q_low:
        u = math.sqrt(-2.0 * math.log(q))
        z = ((((((_C[0] * u + _C[1]) * u + _C[2]) * u + _C[3]) * u + _C[4]) * u
              + _C[5]) /
             ((((_D[0] * u + _D[1]) * u + _D[2]) * u + _D[3]) * u + 1.0))
    elif q <= 1.0 - q_low:
        u = q - 0.5
        r = u * u
        z = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r
              + _A[5]) * u /
             (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r
              + 1.0))
    else:
        u = math.sqrt(-2.0 * math.log(1.0 - q))
        z = -((((((_C[0] * u + _C[1]) * u + _C[2]) * u + _C[3]) * u + _C[4]) * u
               + _C[5]) /
              ((((_D[0] * u + _D[1]) * u + _D[2]) * u + _D[3]) * u + 1.0))
    # One Halley step: e = Phi(z) - q, refine against the exact CDF.
    e = normal_cdf(z) - q
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    if pdf > 0.0:
        u = e / pdf
        z = z - u / (1.0 + z * u / 2.0)
    return z
