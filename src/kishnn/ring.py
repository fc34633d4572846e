"""Exact arithmetic in the evaluation ring Z_P.

Parameter selection, primality and base-p digit decomposition.
"""

from __future__ import annotations

import functools
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
    n: int

    def __post_init__(self):
        if self.coord_bound < 2 or self.dim < 1 or self.n < 1:
            raise ParameterError("need coord_bound >= 2, dim >= 1, n >= 1")
        if not is_prime(self.modulus):
            raise ParameterError(f"modulus {self.modulus} is not prime")
        if self.modulus <= 2 * self.dist_bound:
            raise ParameterError("modulus must exceed 2 * dist_bound")

    @property
    def dist_bound(self) -> int:  # the largest L1 distance on the grid
        return self.dim * (self.coord_bound - 1)

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


@functools.lru_cache(maxsize=256)
def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    The first twelve prime bases decide every m below 3.18 * 10^23
    (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
    2017), far past any 64-bit modulus the wire can carry, in O(log^3 m)
    time.  Memoised, as select_ring_params and then RingParams test the
    same modulus.
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
    m = 2 * dim * (grid_size - 1) + 1
    while not is_prime(m):
        m += 1
    return RingParams(modulus=m, coord_bound=grid_size, dim=dim, n=n)


def base_p_decompose(v: int, params: RingParams) -> DigitPair:
    """Split v < coord_bound**2 into (v mod p, v div p) digits."""
    p = params.coord_bound
    if not 0 <= v < p * p:
        raise ParameterError(f"value {v} outside [0, {p * p})")
    return DigitPair(low=v % p, high=v // p)

