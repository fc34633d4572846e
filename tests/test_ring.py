
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kishnn.ring import (ParameterError, RingParams, is_prime,
                         select_ring_params)

from conftest import DigitPair, base_p_decompose


def brute_is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, m))


@pytest.mark.parametrize("m", list(range(0, 200)))
def test_is_prime_matches_brute_force(m):
    assert is_prime(m) == brute_is_prime(m)


def test_select_ring_params_grid_100():
    ring = select_ring_params(100, dim=2, n=569)
    assert ring.dist_bound == 2 * 99
    assert ring.modulus == 397  # smallest prime above 2 * 198
    assert ring.coord_bound == 100 and ring.n == 569


def test_select_ring_params_small_grids():
    assert select_ring_params(6, dim=2, n=5).modulus == 23
    assert select_ring_params(24, dim=2, n=5).modulus == 97


def test_ring_params_validation():
    with pytest.raises(ParameterError):
        RingParams(modulus=24, coord_bound=6, dim=2, n=5)
    with pytest.raises(ParameterError):  # modulus too small for the range
        RingParams(modulus=19, coord_bound=6, dim=2, n=5)
    with pytest.raises(ParameterError):
        RingParams(modulus=23, coord_bound=1, dim=2, n=5)


def test_a_ring_is_hashed_once_and_selected_once():
    # the table and plan memos key on rings: a selection returns the
    # ring selected before, and an equal ring hashes by its stored hash
    ring = select_ring_params(100, dim=2, n=40)
    assert select_ring_params(100, dim=2, n=40) is ring
    twin = RingParams(ring.modulus, 100, 2, 40)
    assert twin == ring and twin is not ring
    assert hash(twin) == hash(ring) == ring._hash
    assert ring._hash == hash((ring.modulus, 100, 2, 40))
    assert repr(ring) == f"RingParams(modulus={ring.modulus}, " \
        "coord_bound=100, dim=2, n=40)"
    assert [f.name for f in fields(RingParams) if f.compare] == [
        "modulus", "coord_bound", "dim", "n"]
    assert RingParams(ring.modulus, 100, 2, 41) != ring


def test_numpy_integer_arguments_select_the_python_int_ring():
    ring = select_ring_params(250, dim=2, n=569)
    assert select_ring_params(np.int64(250), np.int64(2),
                              np.int64(569)) is ring
    assert select_ring_params(np.int32(250), 2, np.uint16(569)) is ring
    assert type(ring.coord_bound) is type(ring.n) is int
    for bad in ((250.0, 2, 569), ("250", 2, 569), (250, 2.0, 569),
                (250, 2, 569.0), (250, 2, None)):
        with pytest.raises(ParameterError, match="integers"):
            select_ring_params(*bad)


def test_every_ring_checks_its_modulus_through_the_memoised_test():
    # select_ring_params and RingParams test the same modulus; the second
    # test is a cache hit, and a composite modulus is refused every time
    before = is_prime.cache_info()
    ring = select_ring_params(250, dim=2, n=569)
    assert is_prime.cache_info().hits > before.hits
    assert RingParams(ring.modulus, 250, 2, 569) == ring
    assert is_prime.cache_info().maxsize is not None
    for _ in range(2):
        with pytest.raises(ParameterError):
            RingParams(modulus=999, coord_bound=250, dim=2, n=569)


@given(st.integers(-500, 500))
def test_reduce_signed_round_trip(v):
    ring = select_ring_params(6, dim=2, n=5)
    r = v % ring.modulus
    assert 0 <= r < ring.modulus
    s = ring.signed(r)
    assert -ring.modulus // 2 <= s <= ring.modulus // 2
    assert (s - v) % ring.modulus == 0


def test_signed_upper_half_is_negative():
    ring = select_ring_params(6, dim=2, n=5)  # modulus 23
    assert ring.signed(22) == -1
    assert ring.signed(11) == 11
    assert ring.signed(12) == -11


def test_base_p_decompose():
    ring = select_ring_params(6, dim=2, n=5)  # p = 6
    assert base_p_decompose(0, ring) == DigitPair(0, 0)
    assert base_p_decompose(35, ring) == DigitPair(5, 5)
    d = base_p_decompose(17, ring)
    assert d.high * 6 + d.low == 17 and 0 <= d.low < 6


def test_base_p_decompose_range_check():
    ring = select_ring_params(6, dim=2, n=5)
    with pytest.raises(ParameterError):
        base_p_decompose(36, ring)  # >= p^2
    with pytest.raises(ParameterError):
        base_p_decompose(-1, ring)


def trial_division_is_prime(m: int) -> bool:
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def test_is_prime_matches_trial_division_below_20000():
    assert [m for m in range(20000) if is_prime(m)] == \
        [m for m in range(20000) if trial_division_is_prime(m)]


@pytest.mark.parametrize("m,prime", [
    (2 ** 61 - 1, True),                    # Mersenne prime
    (2 ** 63 - 25, True),                   # largest prime below 2^63
    (561, False), (41041, False),           # Carmichael numbers
    (3215031751, False),                    # strong pseudoprime to 2, 3, 5, 7
    (1000000007 * 998244353, False),        # semiprime of two large primes
])
def test_is_prime_on_large_and_adversarial_inputs(m, prime):
    assert is_prime(m) is prime


def test_a_ring_near_two_to_the_63_is_checked_quickly():
    # trial division would take minutes on this modulus
    ring = RingParams(modulus=2 ** 63 - 25, coord_bound=2, dim=1, n=1)
    assert ring.modulus == 2 ** 63 - 25
