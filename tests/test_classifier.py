import math

import numpy as np
import pytest

from kishnn import he_sim, classifier, interp
from kishnn.classifier import (LabeledDatabase, ProtocolParams,
                               classify_with_majority, count_classes,
                               estimate_mu, estimate_mu2_digits,
                               estimate_sigma, make_protocol_params,
                               moment_coins, server_classify,
                               square_mu_digits, threshold)
from kishnn.ring import ParameterError, select_ring_params

from conftest import (base_p_decompose, kappa_of_run, sqrt_of_digit_diff,
                      two_cluster_db)


@pytest.fixture(scope="module")
def ring100():
    return select_ring_params(100, dim=2, n=40)  # modulus 397


@pytest.fixture(scope="module")
def keys(ring100):
    return he_sim.keygen(ring100, seed=21)


def make_pp(ring, k, n, reps=1, seed=0):
    return make_protocol_params(ring, k=k, n=n, repetitions=reps,
                                rng_seed=seed)


def test_protocol_params_validation(ring100):
    with pytest.raises(ParameterError):
        ProtocolParams(ring100, k=0, n=10)
    with pytest.raises(ParameterError):
        ProtocolParams(ring100, k=10, n=10)
    with pytest.raises(ParameterError):
        ProtocolParams(ring100, k=3, n=10, repetitions=4)


@pytest.mark.parametrize("reps", [-1, -3, 0])
def test_protocol_params_refuse_a_repetition_count_below_one(ring100, reps):
    # -1 % 2 == 1, so an odd-only check let -1 through, and server_classify
    # then failed with an IndexError packing zero repetitions
    with pytest.raises(ParameterError):
        ProtocolParams(ring100, k=3, n=10, repetitions=reps)


@pytest.mark.parametrize("field,value", [
    ("k", 2.5), ("rng_seed", 1.5),  # classified silently
    ("rng_seed", "7"),  # drew the coins of 7
    ("repetitions", 3.0),  # then every query raised a bare TypeError
    ("n", 40.0), ("k", None),
])
def test_protocol_params_take_integers_only(ring100, field, value):
    args = {**dict(k=3, n=40, repetitions=3, rng_seed=7), field: value}
    with pytest.raises(ParameterError, match=f"{field} must be an integer"):
        ProtocolParams(ring100, **args)


def test_protocol_params_read_numpy_integers_as_python_ints(ring100):
    pp = ProtocolParams(ring100, k=np.int64(3), n=np.int32(40),
                        repetitions=np.uint8(3), rng_seed=np.uint64(7))
    ref = ProtocolParams(ring100, k=3, n=40, repetitions=3, rng_seed=7)
    assert pp == ref and hash(pp) == hash(ref) and pp.coins == ref.coins
    assert {type(getattr(pp, f)) for f in ("k", "n", "repetitions",
                                           "rng_seed")} == {int}


def test_make_protocol_params_rounds_quantile():
    pp = make_pp(select_ring_params(100, dim=2, n=568), k=13, n=568)
    assert pp.z_k == -2


def normal_quantile_by_bisection(q):
    """Independent oracle: bisect the erf-based normal CDF."""
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < q:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_z_k_matches_a_bisection_oracle():
    for n in (2, 8, 40, 100, 568, 569, 1000, 5690):
        ring = select_ring_params(100, dim=2, n=n)
        for k in range(1, min(n, 60)):
            pp = make_pp(ring, k=k, n=n)
            assert pp.z_k == round(normal_quantile_by_bisection(k / n)), (k, n)


@pytest.mark.parametrize("k,n", [(0, 10), (10, 10), (11, 10)])
def test_make_protocol_params_rejects_k_outside_1_to_n(ring100, k, n):
    with pytest.raises(ParameterError, match="1 <= k < n"):
        make_pp(ring100, k=k, n=n)


def test_labeled_database_without():
    db = LabeledDatabase(np.array([[1, 2], [3, 4], [5, 6]]),
                         np.array([0, 1, 0]))
    rest = db.without(1)
    assert rest.n == 2 and (rest.points == [[1, 2], [5, 6]]).all()
    assert list(rest.labels) == [0, 0]
    for i in (0, 1, 2):  # first, middle and last, as np.delete drops them
        rest = db.without(i)
        assert np.array_equal(rest.points, np.delete(db.points, i, axis=0))
        assert np.array_equal(rest.labels, np.delete(db.labels, i))
        # the operands are the parent's minus slot i, with the parent's
        # bounds, which cover the held-out values
        fresh = LabeledDatabase(rest.points, rest.labels)
        for got, expect in ((rest.coords, fresh.coords),
                            (rest.label_signs, fresh.label_signs)):
            assert np.array_equal(got.values, expect.values)
            assert got.bound >= expect.bound
            with pytest.raises(ValueError):
                got.values[0] = 0


@pytest.mark.parametrize("i", [-1, 3, 7])
def test_labeled_database_without_refuses_a_missing_point(i):
    # -1 used to drop nothing and append points; 3 and 7 dropped nothing
    db = LabeledDatabase(np.array([[1, 2], [3, 4], [5, 6]]),
                         np.array([0, 1, 0]))
    with pytest.raises(ParameterError, match="no point"):
        db.without(i)


def test_held_out_rows_are_the_databases_without_each_point():
    # 9 points, so held_out(range(9)) takes the first, middle and last
    # rows of one gather; each row must be without(i) in every respect
    rng = np.random.default_rng(8)
    db = LabeledDatabase(rng.integers(0, 30, size=(9, 2)),
                         rng.integers(0, 2, size=9))
    rows = db.held_out(range(9))
    assert len(rows) == 9 and db.held_out([]) == []
    for i in (0, 4, 8):
        got, expect = rows[i], db.without(i)
        assert np.array_equal(got.points, np.delete(db.points, i, axis=0))
        for a, b in ((got.points, expect.points),
                     (got.labels, expect.labels)):
            assert np.array_equal(a, b)
            assert not a.flags.writeable and not b.flags.writeable
        for a, b in ((got.coords, expect.coords),
                     (got.label_signs, expect.label_signs)):
            assert np.array_equal(a.values, b.values)
            assert a.bound == b.bound
            assert not a.values.flags.writeable
            assert not b.values.flags.writeable
    for bad in ([0, 9], [-1], [3, 12, 4]):
        with pytest.raises(ParameterError, match="no point"):
            db.held_out(bad)


def test_labeled_database_operands_cannot_go_stale():
    pts, labels = np.array([[1, 2], [3, 4]]), np.array([0, 1])
    db = LabeledDatabase(pts, labels)
    pts[0, 0], labels[0] = 9, 1  # the database holds its own copies
    assert db.coords.values.tolist() == [1, 3, 2, 4]  # dimension-major
    assert db.label_signs.values.tolist() == [1, -1]
    for a in (db.points, db.labels):
        with pytest.raises(ValueError):
            a[0] = 0
    assert db.coords is db.coords and db.label_signs is db.label_signs
    # the coordinates are held once: points is a view of the operand
    assert np.shares_memory(db.points, db.coords.values)


def test_a_warm_query_scans_no_plaintext(ring100, monkeypatch):
    # the coin plan, coordinates and label signs are bounded when first
    # built; a second query on the same database rescans none of them
    pts, labels = two_cluster_db(20, 100, gap=1)
    db = LabeledDatabase(pts, labels)
    pp = make_pp(ring100, k=5, n=40, reps=3, seed=2)
    first = classify_with_majority((40, 50), db, pp)
    scans = []
    magnitude = he_sim._magnitude

    def counted(v):
        scans.append(v.size)
        return magnitude(v)

    monkeypatch.setattr(he_sim, "_magnitude", counted)
    assert classify_with_majority((40, 50), db, pp) == first
    assert scans == []


@pytest.mark.parametrize("points,labels", [
    ([[1, 2], [3, 4]], [0, 5]),  # made the label masks -4 and 5
    ([[1, 2], [3, 4]], [-1, 1]),
    ([[1, -2], [3, 4]], [0, 1]),
    ([1, 2], [0, 1]),  # not an (n, d) array
    # values int64 does not hold exactly, once truncated or let escape
    ([[3.9, 2], [3, 4]], [0, 1]),  # was the coordinate 3
    ([[1, 2], [3, 4]], [0.7, 1]),  # was class 0
    ([[1, 2], [3, 4]], ["1", "0"]),  # were parsed as labels
    ([[float("nan"), 2], [3, 4]], [0, 1]),  # was a bare ValueError
    ([[2 ** 63 + 5, 2], [3, 4]], [0, 1]),  # was an OverflowError
])
def test_labeled_database_refuses_what_the_ring_cannot_read(points, labels):
    with pytest.raises(ParameterError, match="labels|coordinates"):
        LabeledDatabase(np.array(points), np.array(labels))
    with pytest.raises(ParameterError, match="labels|coordinates"):
        LabeledDatabase(points, labels)


@pytest.mark.parametrize("points,labels", [
    ([[1, 2], [3]], [0, 1]),  # was numpy's bare ValueError
    ([[1, 2], [3, 4]], [[0], [1, 1]]),
])
def test_labeled_database_refuses_ragged_rows(points, labels):
    with pytest.raises(ParameterError, match="an \\(n, d\\) array"):
        LabeledDatabase(points, labels)


def test_labeled_database_refuses_labels_of_another_length():
    with pytest.raises(ParameterError, match="length mismatch"):
        LabeledDatabase(np.array([[1, 2], [3, 4]]), np.array([0]))


def test_labeled_database_takes_integral_floats():
    db = LabeledDatabase(np.zeros((2, 3)), np.array([1.0, 0.0]))
    assert db.points.dtype == db.labels.dtype == np.int64
    assert db.points.tolist() == [[0] * 3] * 2 and db.labels.tolist() == [1, 0]


def test_a_held_out_query_scans_no_plaintext(ring100, monkeypatch):
    # after the parent's first without, a leave-one-out query (fresh seeds,
    # fresh held-out database) derives every operand and coin plan bound
    pts, labels = two_cluster_db(20, 100, gap=1)
    db = LabeledDatabase(np.vstack([pts, [[50, 50]]]), np.append(labels, 1))
    db.without(0)
    scans = []
    magnitude = he_sim._magnitude

    def counted(v):
        scans.append(v.size)
        return magnitude(v)

    monkeypatch.setattr(he_sim, "_magnitude", counted)
    for i in (0, 20, 40):
        pp = make_pp(ring100, k=5, n=40, reps=3, seed=1000 + i)
        classify_with_majority(db.points[i], db.without(i), pp)
    assert scans == []


def test_protocol_params_derive_their_moment_coins_once(ring100,
                                                        monkeypatch):
    # mu and mu_2 share one derivation of the moment seeds, made by the
    # first query of a ProtocolParams and read by every later one
    pts, labels = two_cluster_db(20, 100, gap=1)
    db = LabeledDatabase(pts, labels)
    calls = []
    derive = classifier.moment_coins

    def counted(*args):
        calls.append(args)
        return derive(*args)

    monkeypatch.setattr(classifier, "moment_coins", counted)
    pp = make_pp(ring100, k=5, n=40, reps=3, seed=4)
    with he_sim.metering() as before:
        bit = classify_with_majority((40, 50), db, pp)
    with he_sim.metering() as after:
        assert classify_with_majority((40, 50), db, pp) == bit
    assert [seeds for _, seeds in calls] == [classifier.repetition_seeds(pp)]
    assert pp.coins == derive(pp, classifier.repetition_seeds(pp))
    assert (after.mult_gates, after.max_depth) == (before.mult_gates,
                                                   before.max_depth)
    # an equal ProtocolParams derives its own, once
    again = make_pp(ring100, k=5, n=40, reps=3, seed=4)
    for _ in range(2):
        assert classify_with_majority((40, 50), db, again) == bit
    assert len(calls) == 2 and again.coins == pp.coins


def test_estimate_mu_tracks_sample_mean(ring100, keys):
    # mu* estimates the mean of the mapped distances t(x); the map keeps
    # every t(x) within the coin denominator n
    rng = np.random.default_rng(1)
    xs_plain = rng.integers(0, ring100.dist_bound + 1, size=40)
    xs = he_sim.encrypt(keys.pk, xs_plain)
    values = []
    for s in range(120):
        pp = make_pp(ring100, k=5, n=40, seed=s)
        est = estimate_mu(xs, pp, moment_coins(pp, (s,))[0])
        values.append(ring100.signed(he_sim.decrypt(keys.sk, est)))
    mean = float(np.asarray(interp.dist_map(ring100))[xs_plain].mean())
    assert abs(np.mean(values) - mean) < 3.0
    assert np.std(values) < 2.5 * math.sqrt(mean)


def test_square_mu_digits_matches_base_p_oracle(ring100, keys):
    # base-p digits of v^2 with a signed low digit: v^2 = high*p + low
    pp = make_pp(ring100, k=5, n=40)
    vs = list(range(ring100.dist_bound + 1))
    low, high = square_mu_digits(he_sim.encrypt(keys.pk, vs), pp)
    got_low = he_sim.decrypt(keys.sk, low)
    got_high = he_sim.decrypt(keys.sk, high)
    for v, lo, hi in zip(vs, got_low, got_high):
        assert hi == round(v * v / 100 + 1e-9) % 397
        assert hi * 100 + ring100.signed(lo) == v * v, v


def test_sqrt_of_digit_diff_sandwich(ring100, keys):
    # 500 derived digit instances a >= b: sigma* within
    # [sqrt(a-b)/sqrt(2), 3 sqrt(a-b)/sqrt(2)]
    pp = make_pp(ring100, k=5, n=40)
    p = 100
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(500):
        a = int(rng.integers(0, p * p))
        b = int(rng.integers(0, a + 1))
        da, db_ = base_p_decompose(a, pp.ring), base_p_decompose(b, pp.ring)
        enc = [he_sim.encrypt(keys.pk, v % 397)
               for v in (da.high, da.low, db_.high, db_.low)]
        got = sqrt_of_digit_diff(enc[0], enc[1], enc[2], enc[3], pp)
        sigma_star = pp.ring.signed(he_sim.decrypt(keys.sk, got))
        exact = math.sqrt(a - b)
        if not (exact / math.sqrt(2) - 1e-9 <= sigma_star
                <= 3 * exact / math.sqrt(2) + 1e-9):
            violations += 1
    assert violations == 0


def test_estimate_sigma_is_the_digit_diff_with_a_zero_low_digit(ring100,
                                                                keys):
    # mu_2 has no low digit: estimate_sigma(h2, ls, hs) is
    # sqrt_of_digit_diff(h2, 0, hs, ls), at the same gates and depth
    pp = make_pp(ring100, k=5, n=40)
    rng = np.random.default_rng(3)
    mu = he_sim.encrypt(keys.pk, rng.integers(0, 41, size=200))
    mu2_high = he_sim.encrypt(keys.pk, rng.integers(0, 20, size=200))
    zero = he_sim.encrypt(keys.pk, np.zeros(200, dtype=np.int64))
    musq_low, musq_high = square_mu_digits(mu, pp)
    with he_sim.metering() as got_m:
        got = estimate_sigma(mu2_high, musq_low, musq_high, pp)
    with he_sim.metering() as want_m:
        want = sqrt_of_digit_diff(mu2_high, zero, musq_high, musq_low, pp)
    assert he_sim.decrypt(keys.sk, got) == he_sim.decrypt(keys.sk, want)
    assert (got_m.mult_gates, got_m.max_depth) == (want_m.mult_gates,
                                                   want_m.max_depth)


@pytest.mark.parametrize("a_digits,b_digits", [
    ((0, 0), (4, 0)),     # a - b = -400, high difference below zero
    ((0, 0), (2, 50)),    # a - b = -250, high and low differences negative
    ((3, 10), (3, 30)),   # a - b = -20, equal high digits, low below zero
])
def test_sqrt_of_digit_diff_is_zero_below_zero(ring100, keys, a_digits,
                                               b_digits):
    # a variance estimate that coin noise drives negative means a spread
    # of 0, not a wrapped-around residue
    pp = make_pp(ring100, k=5, n=40)
    (ha, la), (hb, lb) = a_digits, b_digits
    enc = [he_sim.encrypt(keys.pk, v % 397) for v in (ha, la, hb, lb)]
    got = sqrt_of_digit_diff(enc[0], enc[1], enc[2], enc[3], pp)
    assert he_sim.decrypt(keys.sk, got) == 0


def test_sqrt_of_digits_is_the_three_branch_rule_on_every_residue_pair():
    # grid 24: P = 97, p = 24, all P^2 (dh, dl) pairs in one cipher, each
    # read as signed residues
    ring = select_ring_params(24, dim=2, n=50)
    P, p = ring.modulus, ring.coord_bound
    assert (P, p) == (97, 24)
    keys = he_sim.keygen(ring, seed=24)
    dh = np.repeat(np.arange(P), P)
    dl = np.tile(np.arange(P), P)
    got = he_sim.decrypt(keys.sk, classifier._sqrt_of_digits(
        he_sim.encrypt(keys.pk, dh), he_sim.encrypt(keys.pk, dl),
        make_pp(ring, k=5, n=50)))

    def rsqrt(v):  # round(sqrt(max(v, 0)))
        r = math.isqrt(max(v, 0))
        return r + (max(v, 0) - r * r > r)

    expect = []
    for h, lo in zip(dh.tolist(), dl.tolist()):
        h, lo = ring.signed(h), ring.signed(lo)
        expect.append(((h == 0) * rsqrt(lo) + (h == 1) * rsqrt(p + lo)
                       + (h not in (0, 1)) * rsqrt(h * p)) % P)
    assert got == expect


def test_mu2_digits_are_unbiased_for_the_second_moment():
    # p * high estimates mu_2 = mean(t(x)^2) on the criterion-9 profile,
    # where t(x)^2 > n for almost every slot: a low digit with coin
    # denominator n would saturate and add about n mod P to the estimate
    n = 569
    ring = select_ring_params(100, dim=2, n=n)
    keys = he_sim.keygen(ring, 5)
    rng = np.random.default_rng(6)
    x = np.clip(np.rint(rng.normal(60, 20, size=n)), 0,
                ring.dist_bound).astype(np.int64)
    tx = np.asarray(interp.dist_map(ring))[x]
    mu2 = float((tx * tx).mean())
    xs = he_sim.encrypt(keys.pk, x)
    ests = []
    for s in range(400):
        pp = make_pp(ring, k=13, n=n, seed=s)
        mu2_coins = moment_coins(pp, (s,))[1]
        ests.append(100 * he_sim.decrypt(
            keys.sk, estimate_mu2_digits(xs, pp, mu2_coins)))
    se = np.std(ests, ddof=1) / math.sqrt(len(ests))
    assert abs(np.mean(ests) - mu2) <= 3 * se


def test_threshold_combines_linearly(keys):
    # ring100's keys serve: a key depends only on the modulus, 397
    ring = select_ring_params(100, dim=2, n=568)
    pp = make_pp(ring, k=13, n=568)  # z = -2
    mu = he_sim.encrypt(keys.pk, 50)
    sigma = he_sim.encrypt(keys.pk, 10)
    with he_sim.metering() as m:
        t = threshold(mu, sigma, pp)
    assert pp.ring.signed(he_sim.decrypt(keys.sk, t)) == 30
    assert m.mult_gates == 0  # plaintext scalar: free


def test_count_classes_matches_plain_count(keys):
    # the threshold is in mapped units: a point counts when t(x) < 6, and
    # the one cipher is C0 - C1, read as a signed residue.  The ring for
    # n = 8 maps [0, 198] onto [0, 8], so the threshold lies inside the
    # map's range, and the mapped and raw counts differ
    ring = select_ring_params(100, dim=2, n=8)
    pp = make_pp(ring, k=5, n=8)
    xs_plain = [5, 40, 12, 80, 3, 33, 60, 9]
    labels = [0, 1, 0, 1, 1, 0, 1, 0]
    tmap = interp.dist_map(ring)
    assert tmap[-1] == 8

    def plain_counts(t):
        below = [l for x, l in zip(xs_plain, labels) if t(x) < 6]
        return below.count(0), below.count(1)

    expect0, expect1 = plain_counts(lambda x: tmap[x])
    assert (expect0, expect1) != plain_counts(lambda x: x)
    assert 0 < expect0 + expect1 < len(xs_plain)
    xs = he_sim.encrypt(keys.pk, xs_plain)
    t = he_sim.encrypt(keys.pk, 6)
    signs = LabeledDatabase(np.zeros((8, 2)), labels).label_signs
    diff = count_classes(xs, t, signs, pp)
    assert ring.signed(he_sim.decrypt(keys.sk, diff)) == expect0 - expect1


def test_server_classify_validates_shapes(ring100, keys):
    pts, labels = two_cluster_db(20, 100, gap=1)
    db = LabeledDatabase(pts, labels)
    pp = make_pp(ring100, k=5, n=40)
    with pytest.raises(ParameterError):
        server_classify([he_sim.encrypt(keys.pk, 1)], db, pp)
    with pytest.raises(ParameterError):
        server_classify([he_sim.encrypt(keys.pk, 1)] * 2,
                        LabeledDatabase(pts[:10], labels[:10]), pp)


def test_server_classify_refuses_a_database_of_another_dimension(ring100,
                                                                   keys):
    # 40 points of 3 coordinates, on the 2-D ring selected for 40 points
    pts = np.random.default_rng(0).integers(0, 100, (40, 3))
    db = LabeledDatabase(pts, np.zeros(40, dtype=np.int64))
    with pytest.raises(ParameterError, match="dimension does not match"):
        server_classify([he_sim.encrypt(keys.pk, 1)] * 2, db,
                        make_pp(ring100, k=5, n=40))


def test_make_protocol_params_rejects_a_ring_for_another_size():
    # a ring selected for n = 569 maps distances for 569 points; serving a
    # 50-point database with it would let the mu coins saturate silently,
    # so the params are refused where they are made
    ring = select_ring_params(100, dim=2, n=569)
    with pytest.raises(ParameterError, match="database size"):
        make_pp(ring, k=5, n=50)


def test_server_classify_refuses_points_off_the_grid():
    # grid 24 (P = 97) reads 60..62 as residues: the query (1, 1) got 1
    # from the circuit and 0 from plain_knn
    ring = select_ring_params(24, dim=2, n=6)
    pts = np.array([[c, c] for c in (1, 2, 3, 60, 61, 62)])
    db = LabeledDatabase(pts, np.array([0, 0, 0, 1, 1, 1]))
    pp = make_pp(ring, k=1, n=6)
    with pytest.raises(ParameterError, match="off the ring's grid"):
        classify_with_majority((1, 1), db, pp)
    inside = LabeledDatabase(np.minimum(pts, 23), db.labels)
    assert classify_with_majority((1, 1), inside, pp) == 0


@pytest.mark.parametrize("point", [(-1, 5), (100, 5), (1, 2, 3)])
def test_client_refuses_a_point_off_the_grid(ring100, point):
    # (100, 5) used to be classified without an error, as a point of the
    # grid it is not on
    pts, labels = two_cluster_db(20, 100, gap=1)
    db = LabeledDatabase(pts, labels)
    pp = make_pp(ring100, k=5, n=40)
    with pytest.raises(ParameterError, match="not a grid point"):
        classify_with_majority(point, db, pp)


@pytest.mark.parametrize("point", [(3.9, 5), (np.float64(3.0), 5), ("7", 5)])
def test_client_refuses_a_coordinate_that_is_not_an_integer(ring100, point):
    # int() used to encrypt (3.9, 5) as (3, 5) and accept ('7', 5)
    with pytest.raises(ParameterError, match="not a grid point"):
        classifier.encrypt_query(he_sim.keygen(ring100, 1).pk, point, ring100)


def test_client_takes_numpy_integer_coordinates(ring100):
    keys = he_sim.keygen(ring100, 1)
    enc = classifier.encrypt_query(keys.pk, np.array([3, 5]), ring100)
    assert [he_sim.decrypt(keys.sk, c) for c in enc] == [3, 5]
    enc = classifier.encrypt_query(keys.pk, (np.int32(7), 5), ring100)
    assert [he_sim.decrypt(keys.sk, c) for c in enc] == [7, 5]


def test_server_never_decrypts(ring100, keys):
    pts, labels = two_cluster_db(20, 100, gap=1)
    db = LabeledDatabase(pts, labels)
    pp = make_pp(ring100, k=5, n=40)
    enc_q = [he_sim.encrypt(keys.pk, 3), he_sim.encrypt(keys.pk, 4)]
    with he_sim.metering() as m:
        bit = server_classify(enc_q, db, pp)
    assert m.decrypt_calls == 0
    assert isinstance(bit, he_sim.Cipher)


def plaintext_same_rule_oracle(db, q, z, ring):
    """The threshold classifier with exact moments, same distance map and
    tie rule; returns (label, number of selected neighbors)."""
    x = np.abs(db.points - np.asarray(q)).sum(axis=1)
    x = np.asarray(interp.dist_map(ring))[x]
    t = x.mean() + z * x.std()
    sel = x < t
    c0 = int(((db.labels == 0) & sel).sum())
    c1 = int(((db.labels == 1) & sel).sum())
    return (1 if c0 < c1 else 0), int(sel.sum())


def test_two_cluster_majority_recovers_cluster_label():
    # query inside one of two separated clusters; the majority vote over
    # five repetitions recovers the local label.  The distance profile is
    # balanced bimodal, where mu - 2 sigma lies below both modes, so k is
    # the cluster size: then z = 0 and the threshold mu* falls between
    # the clusters.  n exceeds the distance bound so the coin estimators
    # cannot saturate.
    ring = select_ring_params(100, dim=2, n=200)
    pts, labels = two_cluster_db(100, 100, gap=1, seed=3)
    db = LabeledDatabase(pts, labels)
    pp = make_pp(ring, k=100, n=200, reps=5, seed=11)
    q = pts[150]  # inside the label-1 cluster
    assert classify_with_majority(q, db, pp) == 1


def test_same_rule_oracle_agrees_on_unimodal_geometry():
    # overlapping clusters give a unimodal distance distribution, the
    # regime where the exact-moment threshold is meaningful; the secure
    # majority then matches the plaintext same-rule oracle.
    rng = np.random.default_rng(2)
    ring = select_ring_params(100, dim=2, n=200)
    a = np.clip(rng.normal(35, 12, size=(100, 2)), 0, 99).astype(np.int64)
    b = np.clip(rng.normal(65, 12, size=(100, 2)), 0, 99).astype(np.int64)
    db = LabeledDatabase(np.vstack([a, b]),
                         np.array([0] * 100 + [1] * 100, dtype=np.int64))
    pp = make_pp(ring, k=13, n=200, reps=5, seed=4)
    q = (68, 62)
    oracle, selected = plaintext_same_rule_oracle(db, q, pp.z_k, ring)
    assert selected > 0  # the threshold decides, not the tie rule
    assert classify_with_majority(q, db, pp) == oracle


def test_depth_constant_in_database_size():
    depths = set()
    for n in (50, 100, 569):
        ring = select_ring_params(100, dim=2, n=n)
        rng = np.random.default_rng(n)
        db = LabeledDatabase(rng.integers(0, 100, size=(n, 2)),
                             rng.integers(0, 2, size=n))
        pp = make_pp(ring, k=5, n=n)
        keys = he_sim.keygen(ring, 1)
        enc_q = [he_sim.encrypt(keys.pk, 10), he_sim.encrypt(keys.pk, 20)]
        with he_sim.metering() as m:
            server_classify(enc_q, db, pp)
        depths.add(m.max_depth)
    assert len(depths) == 1


def test_depth_grows_sublinearly_in_grid():
    rng = np.random.default_rng(5)
    base = rng.integers(0, 50, size=(60, 2))
    labels = rng.integers(0, 2, size=60)
    depths = []
    for grid in (50, 100, 200):
        ring = select_ring_params(grid, dim=2, n=60)
        db = LabeledDatabase(base * (grid - 1) // 49, labels)
        pp = make_pp(ring, k=3, n=60)
        keys = he_sim.keygen(ring, 1)
        q = rng.integers(0, grid, size=2)
        enc_q = [he_sim.encrypt(keys.pk, int(c)) for c in q]
        with he_sim.metering() as m:
            server_classify(enc_q, db, pp)
        depths.append(m.max_depth)
    assert depths[0] <= depths[1] <= depths[2]
    assert depths[2] - depths[1] <= depths[1] - depths[0] + 1


def test_kappa_of_run_counts_selected_neighbors(ring100):
    pts, labels = two_cluster_db(20, 100, gap=1)
    db = LabeledDatabase(pts, labels)
    pp = make_pp(ring100, k=5, n=40)
    kappa = kappa_of_run(db, (1, 1), pp, seed=3)
    assert 0 <= kappa <= 40


def test_classify_is_seed_deterministic(ring100):
    pts, labels = two_cluster_db(20, 100, gap=1, seed=5)
    db = LabeledDatabase(pts, labels)
    pp = make_pp(ring100, k=5, n=40, reps=3, seed=17)
    assert classify_with_majority((2, 2), db, pp) \
        == classify_with_majority((2, 2), db, pp)


@pytest.mark.parametrize("grid", [100, 250])
@pytest.mark.parametrize("reps", [1, 5])
def test_every_powers_record_declares_the_tables_that_read_it(grid, reps,
                                                               monkeypatch):
    # a record's split is chosen for the count of tables it declares, so
    # that count must be the number of tables one query evaluates on its
    # images: the packed query's 1 (the distances' |.| table), mu*'s 1
    # (the square_div_p table), the distances' 3 (the mu coins, the mu_2
    # coins, the map), dh's 3 and dl's 2 (sigma's digit tables)
    n = 40
    ring = select_ring_params(grid, dim=2, n=n)
    rng = np.random.default_rng(grid + reps)
    db = LabeledDatabase(rng.integers(0, grid, size=(n, 2)),
                         rng.integers(0, 2, size=n))
    records, reads = {}, {}
    evaluate = interp.eval_poly_ps

    def counted(table, x, params):
        if x._powers is not None:
            records[id(x._powers)] = x._powers
            reads[id(x._powers)] = reads.get(id(x._powers), 0) + 1
        return evaluate(table, x, params)

    monkeypatch.setattr(interp, "eval_poly_ps", counted)
    classify_with_majority((3, grid - 2), db, make_pp(ring, k=5, n=n,
                                                      reps=reps))
    assert {key: r.tables for key, r in records.items()} == reads
    assert sorted(reads.values()) == [1, 1, 2, 3, 3]
