import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kishnn import he_sim, interp, primitives
from kishnn.primitives import (CoinSpec, coin_toss, compute_dist_l1,
                               compute_dists, derive_seed, prob_avg)
from kishnn.ring import ParameterError, select_ring_params


@pytest.fixture(scope="module")
def ring():
    return select_ring_params(24, dim=2, n=50)  # modulus 97, dist_bound 46


@pytest.fixture(scope="module")
def keys(ring):
    return he_sim.keygen(ring, seed=4)


def test_derive_seed_repeatable_and_labelled():
    assert derive_seed(5, "a") == derive_seed(5, "a")
    assert derive_seed(5, "a") != derive_seed(5, "b")
    assert derive_seed(5, "a") != derive_seed(6, "a")


def test_coin_spec_validation():
    with pytest.raises(ParameterError):
        CoinSpec("cube", 10, 0)
    with pytest.raises(ParameterError):
        CoinSpec("identity", 0, 0)


@given(st.sampled_from(["identity", "square"]), st.integers(1, 500))
def test_inverse_ceil_is_minimal_preimage(f, r):
    spec = CoinSpec(f, 1000, 0)
    t = spec.inverse_ceil(r)
    # smallest integer whose image reaches r
    assert spec.apply(t) >= r
    assert t == 0 or spec.apply(t - 1) < r


@pytest.mark.parametrize("x,f,m", [(10, "identity", 46), (3, "square", 46),
                                   (20, "identity", 30), (5, "square", 97)])
def test_coin_toss_unbiased(ring, keys, x, f, m):
    tosses = 4000
    c = he_sim.encrypt(keys.pk, x)
    ones = 0
    for i in range(tosses):
        spec = CoinSpec(f, m, derive_seed(i, "toss"))
        ones += he_sim.decrypt(keys.sk, coin_toss(c, spec, ring))
    expect = min(spec.apply(x), m) / m
    se = math.sqrt(expect * (1 - expect) / tosses) + 1e-9
    assert abs(ones / tosses - expect) <= 4 * se + 1e-6


def test_coin_on_zero_and_saturated(ring, keys):
    zero = he_sim.encrypt(keys.pk, 0)
    full = he_sim.encrypt(keys.pk, 40)
    for i in range(50):
        spec = CoinSpec("identity", 40, derive_seed(i, "edge"))
        assert he_sim.decrypt(keys.sk, coin_toss(zero, spec, ring)) == 0
        assert he_sim.decrypt(keys.sk, coin_toss(full, spec, ring)) == 1


def test_prob_avg_expectation(ring, keys):
    # the estimator is unbiased for sum(x)/m when every x <= m
    rng = np.random.default_rng(9)
    xs_plain = [int(v) for v in rng.integers(0, 47, size=50)]
    xs = he_sim.encrypt(keys.pk, xs_plain)
    runs = 400
    total = 0
    for i in range(runs):
        spec = CoinSpec("identity", len(xs_plain), derive_seed(i, "pa"))
        est = he_sim.decrypt(keys.sk, prob_avg(xs, spec, ring))
        total += ring.signed(est)
    mean = total / runs
    expect = sum(xs_plain) / len(xs_plain)
    assert abs(mean - expect) < 0.8


def test_prob_avg_numerators_cover_every_stratum(ring, keys):
    # with m = n the stratified numerators are a permutation of 1..n, so
    # a constant distance x gives exactly x ones, whatever the seed
    xs = he_sim.encrypt(keys.pk, [20] * 40)
    for i in range(50):
        spec = CoinSpec("identity", 40, derive_seed(i, "strata"))
        assert he_sim.decrypt(keys.sk, prob_avg(xs, spec, ring)) == 20


@pytest.mark.parametrize("x", [1, 10, 20, 30, 39])
def test_prob_avg_numerators_are_marginally_uniform(ring, keys, x):
    # one coin on x in slot 0, zeros elsewhere: the sum is [r_0 <= x],
    # which lands 1 with probability x / m iff r_0 is uniform on [1, m]
    m, runs = 40, 2000
    xs = he_sim.encrypt(keys.pk, [x] + [0] * (m - 1))
    ones = sum(he_sim.decrypt(keys.sk, prob_avg(
        xs, CoinSpec("identity", m, derive_seed(i, "marginal")), ring))
        for i in range(runs))
    expect = x / m
    se = math.sqrt(expect * (1 - expect) / runs)
    assert abs(ones / runs - expect) <= 4 * se


def test_coin_spec_folds_a_distance_map():
    # the coin on x fires on t(x): r' is the least x with t(x) >= r
    tmap = (0, 2, 2, 5, 7)
    spec = CoinSpec("identity", 10, 0, tmap)
    assert [spec.apply(x) for x in range(5)] == list(tmap)
    for r in range(1, 9):
        t = spec.inverse_ceil(r)
        assert all(spec.apply(x) < r for x in range(min(t, 5)))
        assert t == 5 or spec.apply(t) >= r
    square = CoinSpec("square", 30, 0, tmap)
    assert square.apply(3) == 25 and square.inverse_ceil(26) == 4


@pytest.mark.parametrize("f", ["identity", "square"])
@pytest.mark.parametrize("mapped", [False, True])
def test_inverse_ceil_array_matches_scalar_for_every_numerator(f, mapped):
    # the moment coins' shapes at grid 250, n = 5690: m = n or n * p
    ring = select_ring_params(250, dim=2, n=5690)
    m = ring.n * (ring.coord_bound if f == "square" else 1)
    spec = CoinSpec(f, m, 0, interp.dist_map(ring) if mapped else ())
    rs = np.arange(1, m + 1, dtype=np.int64)
    expect = [spec.inverse_ceil(r) for r in range(1, m + 1)]
    assert spec.inverse_ceil_array(rs).tolist() == expect


def test_inverse_ceil_array_is_exact_beyond_float_precision():
    # around squares above 2**52 a float square root rounds up to k
    spec = CoinSpec("square", 2 ** 62, 0)
    roots = (2 ** 26 + 1, 2 ** 29 + 7, 2 ** 31 - 1)
    rs = np.array([k * k + d + 1 for k in roots for d in (-1, 0, 1)],
                  dtype=np.int64)
    expect = [spec.inverse_ceil(int(r)) for r in rs]
    assert spec.inverse_ceil_array(rs).tolist() == expect


def test_prob_avg_is_seed_deterministic(ring, keys):
    xs = he_sim.encrypt(keys.pk, [7, 9, 11])
    spec = CoinSpec("identity", 3, derive_seed(1, "d"))
    a = he_sim.decrypt(keys.sk, prob_avg(xs, spec, ring))
    b = he_sim.decrypt(keys.sk, prob_avg(xs, spec, ring))
    assert a == b


def test_prob_avg_outcome_stays_encrypted(ring, keys):
    xs = he_sim.encrypt(keys.pk, [7, 9, 11])
    spec = CoinSpec("identity", 3, 0)
    out = prob_avg(xs, spec, ring)
    assert isinstance(out, he_sim.Cipher) and out.size == 1


def test_compute_dists_matches_numpy_oracle(ring, keys):
    rng = np.random.default_rng(3)
    for trial in range(10):
        pts = rng.integers(0, 24, size=(8, 2))
        q = rng.integers(0, 24, size=2)
        enc_q = [he_sim.encrypt(keys.pk, int(v)) for v in q]
        got = he_sim.decrypt(keys.sk, compute_dists(enc_q, pts, ring))
        expect = np.abs(pts - q).sum(axis=1)
        assert got == list(expect)


def test_compute_dist_l1_single_point(ring, keys):
    enc_q = [he_sim.encrypt(keys.pk, 3), he_sim.encrypt(keys.pk, 20)]
    d = compute_dist_l1(enc_q, (10, 4), ring)
    assert he_sim.decrypt(keys.sk, d) == 7 + 16


def test_compute_dists_dimension_mismatch(ring, keys):
    enc_q = [he_sim.encrypt(keys.pk, 1)]
    with pytest.raises(ParameterError):
        compute_dists(enc_q, np.zeros((4, 2), dtype=int), ring)


def test_compute_dists_gate_count_linear_in_n(ring, keys):
    rng = np.random.default_rng(5)
    q = [he_sim.encrypt(keys.pk, 5), he_sim.encrypt(keys.pk, 6)]

    def gates(n):
        pts = rng.integers(0, 24, size=(n, 2))
        with he_sim.metering() as m:
            compute_dists(q, pts, ring)
        return m.mult_gates

    g40, g80 = gates(40), gates(80)
    assert g80 == 2 * g40


def test_server_side_needs_no_secret_key(ring, keys):
    # the whole distance + estimator path runs on pk-only material
    pts = np.array([[1, 2], [3, 4], [5, 6]])
    enc_q = [he_sim.encrypt(keys.pk, 7), he_sim.encrypt(keys.pk, 8)]
    with he_sim.metering() as m:
        xs = compute_dists(enc_q, pts, ring)
        prob_avg(xs, CoinSpec("identity", 3, 1), ring)
    assert m.decrypt_calls == 0
