"""Exact arithmetic in the evaluation ring Z_P.

Parameter selection and primality.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field


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
    # hashed once: every query looks its ring up in the table caches
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.coord_bound < 2 or self.dim < 1 or self.n < 1:
            raise ParameterError("need coord_bound >= 2, dim >= 1, n >= 1")
        if not is_prime(self.modulus):
            raise ParameterError(f"modulus {self.modulus} is not prime")
        if self.modulus <= 2 * self.dist_bound:
            raise ParameterError("modulus must exceed 2 * dist_bound")
        object.__setattr__(self, "_hash", hash(
            (self.modulus, self.coord_bound, self.dim, self.n)))

    def __hash__(self):
        return self._hash

    @property
    def dist_bound(self) -> int:  # the largest L1 distance on the grid
        return self.dim * (self.coord_bound - 1)

    def signed(self, v: int) -> int:
        """Interpret a ring element as a signed value (upper half negative)."""
        v %= self.modulus
        return v if v <= self.modulus // 2 else v - self.modulus


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
    unambiguous.  The arguments may be any integers (numpy's too).
    """
    try:
        grid_size, dim, n = map(operator.index, (grid_size, dim, n))
    except TypeError:
        raise ParameterError("grid_size, dim and n must be integers") from None
    if grid_size < 2 or dim < 1 or n < 1:
        raise ParameterError("need grid_size >= 2, dim >= 1, n >= 1")
    m = 2 * dim * (grid_size - 1) + 1
    while not is_prime(m):
        m += 1
    return _selected(m, grid_size, dim, n)


@functools.lru_cache(maxsize=64)
def _selected(*fields) -> RingParams:
    """One RingParams per selection, so the memos keyed on rings find a
    selected ring by identity and do not compare it with an equal one."""
    return RingParams(*fields)
