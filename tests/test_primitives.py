import bisect
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kishnn import classifier, data_eval, he_sim, interp, primitives
from kishnn.classifier import (LabeledDatabase, classify_with_majority,
                               make_protocol_params)
from kishnn.primitives import CoinSpec, compute_dists, derive_seed, prob_avg
from kishnn.ring import ParameterError, RingParams, select_ring_params

from conftest import WDBC_PATH


# Scalar oracles of the coins: the circuit draws and inverts its numerators
# as arrays (CoinSpec.inverse_ceil_array, primitives.prob_avg).
@functools.lru_cache(maxsize=8)
def tmap_of(ring) -> tuple:
    """The distance map t of a ring, as a tuple of ints."""
    return tuple(interp.dist_map(ring).tolist())


def apply(spec, x: int) -> int:
    """The coin function of spec at x: f(x), or f(t(x)) with a map t."""
    if spec.map_of is not None:
        x = tmap_of(spec.map_of)[x]
    return x * x if spec.f == "square" else x


def inverse_ceil(spec, r: int) -> int:
    """Smallest x with apply(spec, x) >= r, in exact integer arithmetic.

    r >= 1.  Without a map this is ceil(f^-1(r)); with one it is
    min{x : t(x) >= ceil(f^-1(r))}, or dist_bound + 1 when no distance
    reaches r.
    """
    c = math.isqrt(r - 1) + 1 if spec.f == "square" else r
    if spec.map_of is not None:
        return bisect.bisect_left(tmap_of(spec.map_of), c)
    return c


def coin_points(rs, spec, dist_bound):
    """The comparison points min(r' - 1, dist_bound) of the numerators
    rs, r' = spec.inverse_ceil_array(rs)."""
    return np.minimum(spec.inverse_ceil_array(rs) - 1, dist_bound)


def coin_batch(xs, rs, spec, params):
    """One coin per slot of xs, with pre-drawn numerators rs in [1, m]:
    [r <= f(x)] = [x >= r'], by one sign test of min(r' - 1, B) - x."""
    diff = he_sim.rsub(coin_points(rs, spec, params.dist_bound), xs, params)
    return interp.is_smaller(diff, 0, params)


def coin_toss(x, spec, params):
    """One doubly-blinded coin: Pr[bit = 1] = min(f(x), m) / m."""
    rng = np.random.default_rng(spec.seeds[0])
    r = int(rng.integers(1, spec.m + 1))
    return coin_batch(x, np.array([r]), spec, params)


@pytest.fixture(scope="module")
def ring():
    return select_ring_params(24, dim=2, n=50)  # modulus 97, dist_bound 46


@pytest.fixture(scope="module")
def keys(ring):
    return he_sim.keygen(ring, seed=4)


def coords(pts):
    """compute_dists' operand for the (n, d) points pts."""
    return LabeledDatabase(pts, np.zeros(len(pts))).coords


def test_derive_seed_repeatable_and_labelled():
    assert derive_seed(5, "a") == derive_seed(5, "a")
    assert derive_seed(5, "a") != derive_seed(5, "b")
    assert derive_seed(5, "a") != derive_seed(6, "a")


def test_coin_spec_validation():
    with pytest.raises(ParameterError):
        CoinSpec("cube", 10, (0,))
    with pytest.raises(ParameterError):
        CoinSpec("identity", 0, (0,))
    for seeds in (0, ()):  # one form: a non-empty tuple
        with pytest.raises(ParameterError):
            CoinSpec("identity", 10, seeds)


@given(st.sampled_from(["identity", "square"]), st.integers(1, 500))
def test_inverse_ceil_is_minimal_preimage(f, r):
    spec = CoinSpec(f, 1000, (0,))
    t = inverse_ceil(spec, r)
    # smallest integer whose image reaches r
    assert apply(spec, t) >= r
    assert t == 0 or apply(spec, t - 1) < r


@pytest.mark.parametrize("x,f,m", [(10, "identity", 46), (3, "square", 46),
                                   (20, "identity", 30), (5, "square", 97)])
def test_coin_toss_unbiased(ring, keys, x, f, m):
    tosses = 4000
    c = he_sim.encrypt(keys.pk, x)
    ones = 0
    for i in range(tosses):
        spec = CoinSpec(f, m, (derive_seed(i, "toss"),))
        ones += he_sim.decrypt(keys.sk, coin_toss(c, spec, ring))
    expect = min(apply(spec, x), m) / m
    se = math.sqrt(expect * (1 - expect) / tosses) + 1e-9
    assert abs(ones / tosses - expect) <= 4 * se + 1e-6


def test_coin_on_zero_and_saturated(ring, keys):
    zero = he_sim.encrypt(keys.pk, 0)
    full = he_sim.encrypt(keys.pk, 40)
    for i in range(50):
        spec = CoinSpec("identity", 40, (derive_seed(i, "edge"),))
        assert he_sim.decrypt(keys.sk, coin_toss(zero, spec, ring)) == 0
        assert he_sim.decrypt(keys.sk, coin_toss(full, spec, ring)) == 1


@pytest.mark.parametrize("grid, slack", [(24, 5), (100, 1), (250, 1)])
def test_coins_are_exact_at_the_sign_safe_edge(grid, slack):
    # every distance x in [0, B] against every comparison point r' in
    # [1, B + 1], x = 0 and r' = B + 1 included: the one sign test on
    # (r' - 1) - x spans [-B, B], which P = 2B + 1 only just keeps signed
    ring = select_ring_params(grid, dim=2, n=50)
    B = ring.dist_bound
    assert ring.modulus == 2 * B + slack
    keys = he_sim.keygen(ring, 1)
    x = np.tile(np.arange(B + 1), B + 1)
    rprime = np.repeat(np.arange(1, B + 2), B + 1)
    spec = CoinSpec("identity", B + 1, (0,))  # no map: r' = r
    assert np.array_equal(spec.inverse_ceil_array(rprime), rprime)
    bits = he_sim.decrypt(keys.sk, coin_batch(
        he_sim.encrypt(keys.pk, x), rprime, spec, ring))
    assert bits == (x >= rprime).astype(int).tolist()


def test_coins_past_the_distance_bound_are_zero(ring, keys):
    # a map-less square coin's r' reaches B + 4 > B + 1: every coin whose
    # r' no distance reaches is 0, and every other one is [x * x >= r]
    B = ring.dist_bound
    rs = np.arange(1, (B + 4) ** 2)
    spec = CoinSpec("square", len(rs), (0,))
    assert spec.inverse_ceil_array(rs).max() == B + 4
    x = np.tile(np.arange(B + 1), len(rs))
    r = np.repeat(rs, B + 1)
    bits = he_sim.decrypt(keys.sk, coin_batch(he_sim.encrypt(keys.pk, x), r,
                                              spec, ring))
    assert bits == (x * x >= r).astype(int).tolist()


@pytest.mark.parametrize("f", ["identity", "square"])
@pytest.mark.parametrize("grid", [100, 250])
def test_mapped_comparison_points_lie_in_one_to_b_plus_one(f, grid):
    # t(0) = 0 and every numerator is at least 1, so with the map every
    # r' lies in [1, B + 1], and the plan min(r' - 1, B) in [0, B]
    ring = select_ring_params(grid, dim=2, n=568)
    m = ring.n * (ring.coord_bound if f == "square" else 1)
    spec = CoinSpec(f, m, (0,), ring)
    rprime = spec.inverse_ceil_array(np.arange(1, m + 1))
    assert rprime.min() == 1 and rprime.max() <= ring.dist_bound + 1
    points = coin_points(np.arange(1, m + 1), spec, ring.dist_bound)
    assert points.min() == 0 and points.max() <= ring.dist_bound
    assert plan_of(spec, ring.n, ring.dist_bound).bound == ring.dist_bound


def test_a_coin_spec_hashes_once(monkeypatch):
    # a spec's hash is found at construction, so a plan-store lookup does
    # not hash its ring again; equal specs still hash and compare equal
    ring = select_ring_params(24, dim=2, n=50)
    spec = CoinSpec("square", 40, (1, 2), ring)
    same = CoinSpec("square", 40, (1, 2), ring)
    hashed = []
    ring_hash = RingParams.__hash__
    monkeypatch.setattr(RingParams, "__hash__",
                        lambda self: hashed.append(1) or ring_hash(self))
    assert {spec: 1}[same] == 1 and hash(spec) == hash(same)
    assert hashed == []
    assert spec == same and spec != CoinSpec("square", 40, (1, 3), ring)
    assert spec != CoinSpec("square", 40, (1, 2))


def test_prob_avg_expectation(ring, keys):
    # the estimator is unbiased for sum(x)/m when every x <= m
    rng = np.random.default_rng(9)
    xs_plain = [int(v) for v in rng.integers(0, 47, size=50)]
    xs = he_sim.encrypt(keys.pk, xs_plain)
    runs = 400
    total = 0
    for i in range(runs):
        spec = CoinSpec("identity", len(xs_plain),
                        (derive_seed(i, "pa"),))
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
        spec = CoinSpec("identity", 40, (derive_seed(i, "strata"),))
        assert he_sim.decrypt(keys.sk, prob_avg(xs, spec, ring)) == 20


@pytest.mark.parametrize("x", [1, 10, 20, 30, 39])
def test_prob_avg_numerators_are_marginally_uniform(ring, keys, x):
    # one coin on x in slot 0, zeros elsewhere: the sum is [r_0 <= x],
    # which lands 1 with probability x / m iff r_0 is uniform on [1, m]
    m, runs = 40, 2000
    xs = he_sim.encrypt(keys.pk, [x] + [0] * (m - 1))
    ones = sum(he_sim.decrypt(keys.sk, prob_avg(
        xs, CoinSpec("identity", m, (derive_seed(i, "marginal"),)), ring))
        for i in range(runs))
    expect = x / m
    se = math.sqrt(expect * (1 - expect) / runs)
    assert abs(ones / runs - expect) <= 4 * se


def test_coin_spec_folds_a_distance_map():
    # the coin on x fires on t(x): r' is the least x with t(x) >= r
    ring = select_ring_params(6, dim=2, n=20)
    tmap = [0, 3, 5, 6, 7, 7, 8, 9, 9, 10, 10]
    assert interp.dist_map(ring).tolist() == tmap
    spec = CoinSpec("identity", 12, (0,), ring)
    assert [apply(spec, x) for x in range(11)] == tmap
    for r in range(1, 13):
        t = inverse_ceil(spec, r)
        assert all(apply(spec, x) < r for x in range(min(t, 11)))
        assert t == 11 or apply(spec, t) >= r
    square = CoinSpec("square", 120, (0,), ring)
    assert apply(square, 3) == 36 and inverse_ceil(square, 37) == 4


@pytest.mark.parametrize("f", ["identity", "square"])
@pytest.mark.parametrize("mapped", [False, True])
def test_inverse_ceil_array_matches_scalar_for_every_numerator(f, mapped):
    # the moment coins' shapes at grid 250, n = 5690: m = n or n * p
    ring = select_ring_params(250, dim=2, n=5690)
    m = ring.n * (ring.coord_bound if f == "square" else 1)
    spec = CoinSpec(f, m, (0,), ring if mapped else None)
    rs = np.arange(1, m + 1, dtype=np.int64)
    expect = [inverse_ceil(spec, r) for r in range(1, m + 1)]
    assert spec.inverse_ceil_array(rs).tolist() == expect


def test_inverse_ceil_array_is_exact_beyond_float_precision():
    # around squares above 2**52 a float square root rounds up to k
    spec = CoinSpec("square", 2 ** 62, (0,))
    roots = (2 ** 26 + 1, 2 ** 29 + 7, 2 ** 31 - 1)
    rs = np.array([k * k + d + 1 for k in roots for d in (-1, 0, 1)],
                  dtype=np.int64)
    expect = [inverse_ceil(spec, int(r)) for r in rs]
    assert spec.inverse_ceil_array(rs).tolist() == expect


def test_prob_avg_is_seed_deterministic(ring, keys):
    xs = he_sim.encrypt(keys.pk, [7, 9, 11])
    spec = CoinSpec("identity", 3, (derive_seed(1, "d"),))
    a = he_sim.decrypt(keys.sk, prob_avg(xs, spec, ring))
    b = he_sim.decrypt(keys.sk, prob_avg(xs, spec, ring))
    assert a == b


def test_prob_avg_segments_draw_from_their_own_seeds(ring, keys):
    # one batch over r segments, one seed each, is r one-seed batches
    rng = np.random.default_rng(4)
    x = rng.integers(0, 47, size=40)
    seeds = tuple(derive_seed(s, "segments") for s in range(3))
    packed = prob_avg(he_sim.encrypt(keys.pk, np.tile(x, 3)),
                      CoinSpec("square", 40 * 24, seeds), ring)
    alone = [he_sim.decrypt(keys.sk, prob_avg(
        he_sim.encrypt(keys.pk, x), CoinSpec("square", 40 * 24, (s,)), ring))
        for s in seeds]
    assert he_sim.decrypt(keys.sk, packed) == alone
    assert len(set(alone)) > 1
    with pytest.raises(ParameterError):
        prob_avg(he_sim.encrypt(keys.pk, x[:5]),
                 CoinSpec("identity", 5, seeds[:2]), ring)


def test_prob_avg_outcome_stays_encrypted(ring, keys):
    xs = he_sim.encrypt(keys.pk, [7, 9, 11])
    spec = CoinSpec("identity", 3, (0,))
    out = prob_avg(xs, spec, ring)
    assert isinstance(out, he_sim.Cipher) and out.size == 1


def test_compute_dists_matches_numpy_oracle(ring, keys):
    rng = np.random.default_rng(3)
    for trial in range(10):
        pts = rng.integers(0, 24, size=(8, 2))
        q = rng.integers(0, 24, size=2)
        enc_q = [he_sim.encrypt(keys.pk, int(v)) for v in q]
        got = he_sim.decrypt(keys.sk, compute_dists(enc_q, coords(pts), ring))
        expect = np.abs(pts - q).sum(axis=1)
        assert got == list(expect)


def test_compute_dists_dimension_mismatch(ring, keys):
    enc_q = [he_sim.encrypt(keys.pk, 1)]
    with pytest.raises(ParameterError):
        compute_dists(enc_q, coords(np.zeros((4, 2), dtype=int)), ring)


def test_compute_dists_gate_count_affine_in_n():
    # the |.| table's powers are paid once per coordinate, on the packed
    # query, at its degree on the grid [0, grid); every coordinate slot
    # pays the products of the table's schedule, and nothing else
    rng = np.random.default_rng(5)
    for grid, n in itertools.product((24, 250), (1, 40, 80, 569)):
        ring = select_ring_params(grid, dim=2, n=n)
        keys = he_sim.keygen(ring, 5)
        q = [he_sim.encrypt(keys.pk, int(v)) for v in rng.integers(0, grid, 2)]
        pts = rng.integers(0, grid, size=(n, 2))
        with he_sim.metering() as m:
            compute_dists(q, coords(pts), ring)
        _, power, block, _, depth = interp.ps_cost(
            min(interp.build_named_tables(ring).abs.degree, grid - 1), 0)
        assert m.mult_gates == power * 2 + block * 2 * n
        assert (m.cipher_mults, m.max_depth) == (power + block, depth)
        if grid == 250:  # the split (4, 128): 18 * d + 15 * d * n gates
            assert (power, block, depth) == (18, 15, 8)


@pytest.mark.parametrize("grid", [4, 6, 100, 250])
def test_compute_dists_is_exact_on_the_grid_corners(grid):
    # every query and point with each coordinate 0 or coord_bound - 1:
    # the differences reach -(coord_bound - 1) and coord_bound - 1, the
    # ends of the |.| table's range, and the distances reach dist_bound
    corners = np.array(list(itertools.product((0, grid - 1), repeat=2)))
    ring = select_ring_params(grid, dim=2, n=len(corners))
    keys = he_sim.keygen(ring, grid)
    for q in corners:
        enc_q = [he_sim.encrypt(keys.pk, int(v)) for v in q]
        got = he_sim.decrypt(keys.sk, compute_dists(enc_q, coords(corners),
                                                    ring))
        assert got == np.abs(corners - q).sum(axis=1).tolist()


def test_server_side_needs_no_secret_key(ring, keys):
    # the whole distance + estimator path runs on pk-only material
    pts = np.array([[1, 2], [3, 4], [5, 6]])
    enc_q = [he_sim.encrypt(keys.pk, 7), he_sim.encrypt(keys.pk, 8)]
    with he_sim.metering() as m:
        xs = compute_dists(enc_q, coords(pts), ring)
        prob_avg(xs, CoinSpec("identity", 3, (1,)), ring)
    assert m.decrypt_calls == 0


def _numerators(spec, seeds, n):
    """The stratified numerators prob_avg draws, drawn here from _strata:
    floor(m * u) + 1, kept in the stratum of pi(i)."""
    pi, u = primitives._strata(seeds, n)
    r = (spec.m * u).astype(np.int64) + 1
    return np.clip(r, spec.m * pi // n + 1, -(-spec.m * (pi + 1) // n))


@pytest.mark.parametrize("segments", [1, 3])
@pytest.mark.parametrize("mapped", [False, True])
def test_prob_avg_is_the_coin_batch_on_its_strata(ring, keys, segments,
                                                  mapped):
    n, m = 40, 40 * 24
    x = np.random.default_rng(segments).integers(0, ring.dist_bound + 1,
                                                 size=segments * n)
    xs = he_sim.encrypt(keys.pk, x)
    seeds = tuple(derive_seed(s, f"plan-{mapped}") for s in range(segments))
    # both functions with one m and one set of seeds: only f tells the
    # two plans apart
    for f in ("identity", "square"):
        spec = CoinSpec(f, m, seeds, ring if mapped else None)
        bits = he_sim.decrypt(keys.sk, coin_batch(
            xs, _numerators(spec, seeds, n), spec, ring))
        expect = np.reshape(bits, (segments, n)).sum(axis=1).tolist()
        got = he_sim.decrypt(keys.sk, prob_avg(xs, spec, ring))
        assert (got if segments > 1 else [got]) == expect


@pytest.mark.parametrize("n", [1, 50, 568])
@pytest.mark.parametrize("segments", [1, 3])
def test_strata_are_a_permutation_plus_uniforms_per_seed(n, segments):
    seeds = tuple(derive_seed(s, f"strata-{n}") for s in range(segments))
    perms, expect = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        perms.extend(rng.permutation(n))
        expect.extend((perms[-n:] + rng.random(n)) / n)
    pi, u = primitives._strata(seeds, n)
    assert pi.dtype == np.int64 and np.array_equal(pi, perms)
    assert np.array_equal(u, expect)


@pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
def test_identity_numerators_keep_one_stratum_each(monkeypatch, u):
    # hand-built strata with every u_i = 0 or every u_i the largest float
    # below 1: m * (pi(i) + u_i) / n rounds out of pi(i)'s stratum at many
    # n, yet with m = n each segment's numerators are exactly 1..n, one
    # per stratum
    def strata(seeds, n):
        pi = np.concatenate([np.random.default_rng(s).permutation(n)
                             for s in seeds])
        return pi, (pi + u) / n

    monkeypatch.setattr(primitives, "_strata", strata)
    seeds = (1, 2)
    for n in range(3, 200):
        spec = CoinSpec("identity", n, seeds)
        plan = primitives._plan_coins([(spec,)], n, n)[spec, n, n]
        for segment in (plan.values + 1).reshape(len(seeds), n):
            assert sorted(segment) == list(range(1, n + 1)), n


def plan_of(spec, n, dist_bound):
    """The plan of one batch, straight from the planner."""
    return primitives._plan_coins([(spec,)], n, dist_bound)[
        spec, n, dist_bound]


@pytest.mark.parametrize("mapped", [False, True])
@pytest.mark.parametrize("f", ["identity", "square"])
def test_coin_plan_bounds_cover_the_scanned_values(ring, f, mapped):
    # the plan's bounds come from its construction, not from a scan
    seeds = (derive_seed(0, f"bounds-{f}-{mapped}"),)
    spec = CoinSpec(f, 40 * 24, seeds, ring if mapped else None)
    p = plan_of(spec, 40, ring.dist_bound)
    scanned = he_sim.Plain(p.values)
    assert np.array_equal(p.values, scanned.values)
    assert p.bound >= scanned.bound


def test_coin_plan_arrays_are_read_only(ring):
    seeds = (derive_seed(0, "read-only"),)
    spec = CoinSpec("square", 40 * 24, seeds)
    with pytest.raises(ValueError):
        plan_of(spec, 40, ring.dist_bound).values[0] = 0


def test_coin_plans_of_two_grids_differ(ring):
    # same spec, seeds and n; only dist_bound (46 and 58) differs
    seeds = (derive_seed(0, "grids"),)
    spec = CoinSpec("identity", 50 * 30, seeds)
    rings = (ring, select_ring_params(30, dim=2, n=50))
    plans = [plan_of(spec, 50, r.dist_bound) for r in rings]
    assert not np.array_equal(plans[0].values, plans[1].values)
    for r, plan in zip(rings, plans):
        expect = coin_points(_numerators(spec, seeds, 50), spec,
                             r.dist_bound)
        assert np.array_equal(plan.values, expect)


def test_the_map_inverse_is_the_least_preimage():
    # grids 6 to 250 and n from 3 to 5,690: the least x with t(x) >= c for
    # every c up to t(B) + 1, B + 1 standing for no x at all
    for grid in (6, 24, 100, 250):
        for n in (3, 50, 569, 5690):
            ring = select_ring_params(grid, dim=2, n=n)
            tmap, B = tmap_of(ring), ring.dist_bound
            assert len(tmap) == B + 1
            inverse = interp.build_named_tables(ring).map_inverse
            assert inverse.tolist() == [
                min(x for x in range(B + 2) if x == B + 1 or tmap[x] >= c)
                for c in range(tmap[-1] + 2)]
            assert not inverse.flags.writeable


def test_a_second_n_sweep_pass_reuses_every_coin_plan(monkeypatch):
    # WDBC repeated to 569 * j points, j = 1..10, at grid 250: one query
    # per size, one repetition, one seed
    base = data_eval.grid_dataset(data_eval.load_wdbc(WDBC_PATH),
                                  250).database()
    rng = np.random.default_rng(0)
    jobs = []
    for j in range(1, 11):
        idx = np.arange(j * base.n) % base.n
        db = LabeledDatabase(base.points[idx], base.labels[idx])
        pp = make_protocol_params(select_ring_params(250, dim=2, n=db.n),
                                  k=13, n=db.n, repetitions=1, rng_seed=3)
        jobs.append((db, pp, rng.integers(0, 250, size=2)))

    def one_pass():
        out = []
        for db, pp, q in jobs:
            with he_sim.metering() as m:
                bit = classify_with_majority(q, db, pp)
            out.append((bit, m.mult_gates, m.max_depth))
        return out

    first = one_pass()
    # the second pass plans no coins and builds no table
    calls = []
    plan, lagrange = primitives._plan_coins, interp.lagrange_table
    monkeypatch.setattr(primitives, "_plan_coins",
                        lambda *a: calls.append("plan") or plan(*a))
    monkeypatch.setattr(interp, "lagrange_table",
                        lambda *a: calls.append("table") or lagrange(*a))
    assert one_pass() == first
    assert calls == []


def test_a_plan_prepared_at_grid_100_is_never_served_at_grid_250(monkeypatch):
    # one database, one seed, one n: only the grid differs, and with it
    # the map, the mu_2 denominator and dist_bound in the plan key
    pts = np.random.default_rng(6).integers(0, 100, size=(40, 2))
    db = LabeledDatabase(pts, np.arange(40) % 2)
    pps = [make_protocol_params(select_ring_params(g, dim=2, n=40), k=5,
                                n=40, repetitions=1, rng_seed=9)
           for g in (100, 250)]
    plain = []
    for pp in pps:
        with he_sim.metering() as m:
            plain.append((classify_with_majority((30, 40), db, pp),
                          m.mult_gates, m.max_depth))
    pp100, pp250 = pps
    monkeypatch.setattr(primitives, "_plans", {})
    primitives.plan_coins([pp100.coins], 40, pp100.ring.dist_bound)
    plan, rows_seen = primitives._plan_coins, []

    def counted(rows, n, dist_bound):
        rows_seen.extend(rows)
        return plan(rows, n, dist_bound)

    monkeypatch.setattr(primitives, "_plan_coins", counted)
    with he_sim.metering() as m:
        bit = classify_with_majority((30, 40), db, pp250)
    assert len(rows_seen) == 2
    assert (bit, m.mult_gates, m.max_depth) == plain[1]
    with he_sim.metering() as m:
        bit = classify_with_majority((30, 40), db, pp100)
    assert len(rows_seen) == 2
    assert (bit, m.mult_gates, m.max_depth) == plain[0]


def test_the_plan_store_keeps_its_newest_plans(ring, monkeypatch):
    # oldest out past PLAN_STORE; fewer than that are all kept
    store = {}
    monkeypatch.setattr(primitives, "_plans", store)
    keys = []
    for s in range(primitives.PLAN_STORE + 8):
        seeds = (derive_seed(s, "store"),)
        keys += primitives.plan_coins(
            [(CoinSpec("identity", 40, seeds),)], 40, ring.dist_bound)
        assert list(store) == keys[-primitives.PLAN_STORE:]
    assert primitives.PLAN_STORE == 32
