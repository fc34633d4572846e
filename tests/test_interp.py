import functools
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kishnn import he_sim, interp
from kishnn.interp import (PolyTable, build_named_tables, eval_poly_ps,
                           is_smaller, lagrange_table, ps_cost)
from kishnn.primitives import CoinSpec
from kishnn.ring import ParameterError, RingParams, is_prime, \
    select_ring_params


def vandermonde_interpolate(values, modulus):
    """Independent oracle: solve V c = f over Z_modulus by Gaussian
    elimination with Fermat inverses."""
    n = modulus
    a = [[pow(x, j, n) for j in range(n)] for x in range(n)]
    b = list(values)
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] % n)
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = pow(a[col][col], n - 2, n)
        a[col] = [v * inv % n for v in a[col]]
        b[col] = b[col] * inv % n
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(v - f * w) % n for v, w in zip(a[r], a[col])]
                b[r] = (b[r] - f * b[col]) % n
    return tuple(b)


def table_from_coeffs(P, coeffs):
    """The table of the polynomial with these coefficients (Horner)."""
    x = np.arange(P, dtype=np.int64)
    values = np.zeros(P, dtype=np.int64)
    for c in reversed(coeffs):
        values = (values * x + c) % P
    return PolyTable(values)


@functools.lru_cache(maxsize=2)
def _power_matrix(P):
    """V[e, i] = i^e mod P (with 0^0 = 1); V @ y is exact in int64 for
    every modulus PolyTable accepts."""
    idx = np.arange(P, dtype=np.int64)
    V = np.empty((P, P), dtype=np.int64)
    V[0] = 1
    for e in range(1, P):
        V[e] = V[e - 1] * idx % P
    return V


@functools.lru_cache(maxsize=64)
def poly_coeffs(table):
    """alpha_0 .. alpha_(P-1) of the polynomial through a table's values.

    With the full residue domain the master polynomial is x^P - x and all
    interpolation denominators reduce to -1, so the explicit formula
    collapses to alpha_j = -sum_i y_i * i^(P-1-j) for j >= 1 and
    alpha_0 = y_0.
    """
    P, y = table.values.size, table.values
    w = _power_matrix(P) @ y % P  # w[e] = sum_i y_i * i^e
    out = np.empty(P, dtype=np.int64)
    out[0] = y[0]
    out[1:] = -w[P - 2::-1] % P  # out[j] = -w[P - 1 - j]
    return tuple(int(c) for c in out)


def eval_plain(table, x):
    """Direct plaintext evaluation of the table's coefficients (Horner)."""
    acc = 0
    for c in reversed(poly_coeffs(table)):
        acc = (acc * x + c) % table.values.size
    return acc


def _balanced_powers(x, top, ring):
    """x^1 .. x^top with a product tree, depth(x^j) = depth(x)+ceil(log2 j)."""
    xp = {1: x}
    for j in range(2, top + 1):
        xp[j] = he_sim.mul(xp[j // 2], xp[(j + 1) // 2], ring)
    return xp


def eval_poly_ps_reference(table, x, params):
    """Literal baby-step/giant-step evaluation of a table's coefficients,
    the oracle eval_poly_ps and ps_cost are checked against.

    Block size ~ sqrt(degree+1); block contents use only plaintext-scalar
    multiplications, blocks are combined through precomputed giant powers.
    """
    if table.values.size != params.modulus:
        raise ParameterError("table interpolated over a different ring")
    deg, coeffs = table.degree, poly_coeffs(table)
    if deg == 0:
        return he_sim.embed_like(x, np.full(x.size, coeffs[0],
                                            dtype=np.int64))
    s, t = interp._ps_split(deg)
    kmax = min(s, deg)
    xp = _balanced_powers(x, kmax, ring=params)
    # Block i holds coefficients c[i*s] .. c[i*s+s-1]; the x^j weights are
    # plaintext, so the whole block matrix is one free linear combination.
    weights = np.zeros((t, kmax), dtype=np.int64)
    consts = np.zeros(t, dtype=np.int64)
    for i in range(t):
        consts[i] = coeffs[i * s]
        for j in range(1, s):
            k = i * s + j
            if k <= deg:
                weights[i, j - 1] = coeffs[k]
    blocks = he_sim.linear_combine([xp[j] for j in range(1, kmax + 1)],
                                   weights, params)
    blocks = [he_sim.add(b, int(consts[i]), params)
              for i, b in enumerate(blocks)]
    if t == 1:
        return blocks[0]
    yp = _balanced_powers(xp[s], t - 1, ring=params)
    acc = blocks[0]
    for i in range(1, t):
        acc = he_sim.add(acc, he_sim.mul(blocks[i], yp[i], params), params)
    return acc


@pytest.fixture(scope="module")
def ring():
    return select_ring_params(6, dim=2, n=20)  # modulus 23


@pytest.fixture(scope="module")
def keys(ring):
    return he_sim.keygen(ring, seed=11)


def test_lagrange_matches_vandermonde_oracle(ring):
    rng = np.random.default_rng(0)
    values = rng.integers(0, 23, size=23)
    table = lagrange_table(lambda x: values[x], ring)
    assert poly_coeffs(table) == vandermonde_interpolate(values, 23)


def test_lagrange_reproduces_function_everywhere(ring):
    table = lagrange_table(lambda x: (x * x + 3) % 23, ring)
    assert all(eval_plain(table, x) == (x * x + 3) % 23 for x in range(23))


def test_eval_poly_ps_agrees_with_plain_everywhere(ring, keys):
    rng = np.random.default_rng(1)
    table = lagrange_table(lambda x: rng.integers(0, 23, size=x.shape), ring)
    for x in range(23):
        c = he_sim.encrypt(keys.pk, x)
        got = he_sim.decrypt(keys.sk, eval_poly_ps(table, c, ring))
        assert got == eval_plain(table, x)


def test_eval_poly_ps_vectorized_slots(ring, keys):
    table = build_named_tables(ring).is_neg
    xs = list(range(23))
    c = he_sim.encrypt(keys.pk, xs)
    got = he_sim.decrypt(keys.sk, eval_poly_ps(table, c, ring))
    assert got == [eval_plain(table, x) for x in xs]


@pytest.mark.parametrize("grid,modulus", [(6, 23), (24, 97), (100, 397)])
def test_cost_bounds(grid, modulus, keys):
    ring = select_ring_params(grid, dim=2, n=20)
    k = he_sim.keygen(ring, 1)
    table = build_named_tables(ring).is_neg
    c = he_sim.encrypt(k.pk, 1)
    with he_sim.metering() as m:
        eval_poly_ps(table, c, ring)
    assert m.mult_gates <= 3 * math.isqrt(modulus - 1) + 3
    assert m.max_depth <= math.ceil(math.log2(modulus)) + 4


def test_named_tables_against_plain_definitions(ring):
    P, p = 23, 6
    t = build_named_tables(ring)

    def near_sqrt(v):
        r = math.isqrt(v)
        return r + 1 if v - r * r > r else r

    for x in range(P):
        # every square-root table reads its argument as signed, 0 below 0;
        # sqrt_times_p is 0 up to 1, where the other digit branches rule
        signed = x if x <= P // 2 else x - P
        expect_sqrt = near_sqrt(signed) if signed >= 0 else 0
        assert eval_plain(t.sqrt, x) == expect_sqrt
        assert eval_plain(t.square_div_p, x) == round(x * x / p + 1e-9) % P
        assert eval_plain(t.is_zero, x) == (1 if x == 0 else 0)
        assert eval_plain(t.is_neg, x) == (1 if x > P / 2 else 0)
        expect_times = near_sqrt(signed * p) if signed > 1 else 0
        assert eval_plain(t.sqrt_times_p, x) == expect_times
        expect_shift = near_sqrt(p + signed) if p + signed >= 0 else 0
        assert eval_plain(t.sqrt_plus_p, x) == expect_shift

    # the distance map: monotone from t(0) = 0, squares within n * p
    n, B = ring.n, ring.dist_bound
    R = min(B, n, math.isqrt(n * p))
    tmap = [eval_plain(t.dist_map, x) for x in range(B + 1)]
    assert tmap == [math.floor(R * math.log1p(x) / math.log1p(B) + 0.5)
                    for x in range(B + 1)]
    assert tmap == interp.dist_map(ring).tolist()
    assert tmap[0] == 0
    assert all(a <= b for a, b in zip(tmap, tmap[1:]))
    assert max(tmap) ** 2 <= n * p


def test_is_smaller_exhaustive(ring, keys):
    bound = ring.dist_bound
    for x in range(bound + 1):
        for y in range(bound + 1):
            cx = he_sim.encrypt(keys.pk, x)
            cy = he_sim.encrypt(keys.pk, y)
            bit = he_sim.decrypt(keys.sk, is_smaller(cx, cy, ring))
            assert bit == (1 if x < y else 0), (x, y)


def test_is_smaller_accepts_plaintext_rhs(ring, keys):
    cx = he_sim.encrypt(keys.pk, 3)
    assert he_sim.decrypt(keys.sk, is_smaller(cx, 5, ring)) == 1
    assert he_sim.decrypt(keys.sk, is_smaller(cx, 3, ring)) == 0


@given(st.integers(0, 22), st.integers(0, 22))
@settings(max_examples=40, deadline=None)
def test_ps_equals_horner_property(x, seed):
    ring = select_ring_params(6, dim=2, n=20)
    keys = he_sim.keygen(ring, 2)
    rng = np.random.default_rng(seed)
    table = table_from_coeffs(23, rng.integers(0, 23, 23))
    c = he_sim.encrypt(keys.pk, x)
    assert he_sim.decrypt(keys.sk, eval_poly_ps(table, c, ring)) \
        == eval_plain(table, x)


def test_table_values_are_the_polynomial_everywhere(ring):
    rng = np.random.default_rng(3)
    coeffs = tuple(int(v) for v in rng.integers(0, 23, 23))
    from_coeffs = table_from_coeffs(23, coeffs)
    interpolated = lagrange_table(lambda x: (5 * x + 1) % 23, ring)
    for x in range(23):
        assert from_coeffs.values[x] == eval_plain(from_coeffs, x)
        assert interpolated.values[x] == eval_plain(interpolated, x)
    assert poly_coeffs(from_coeffs) == coeffs
    assert not from_coeffs.values.flags.writeable


# Rings of modulus 23, 97, 397 and 997 (grid 6, 24, 100 and 250).
DIFF_GRIDS = (6, 24, 100, 250)
NAMED = ("sqrt", "square_div_p", "is_zero", "sqrt_plus_p", "sqrt_times_p",
         "is_neg", "dist_map")


def _both_paths(table, xs, depth, ring):
    """(values, output depth, mult gates, add gates, max depth) of the
    lookup and of the literal evaluation on the same input."""
    keys = he_sim.keygen(ring, 5)
    out = []
    for evaluate in (eval_poly_ps, eval_poly_ps_reference):
        c = he_sim.encrypt(keys.pk, xs)
        c.depth = depth
        with he_sim.metering() as m:
            r = evaluate(table, c, ring)
        out.append((he_sim.decrypt(keys.sk, r), r.depth, m.mult_gates,
                    m.add_gates, m.max_depth))
    return out


@given(grid=st.sampled_from(DIFF_GRIDS),
       kind=st.sampled_from(NAMED + ("random",)),
       degree_frac=st.floats(0, 1), seed=st.integers(0, 2 ** 32 - 1),
       slots=st.integers(1, 6), depth=st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_lookup_matches_reference_schedule(grid, kind, degree_frac, seed,
                                           slots, depth):
    ring = select_ring_params(grid, dim=2, n=50)
    P = ring.modulus
    rng = np.random.default_rng(seed)
    if kind == "random":
        degree = int(degree_frac * (P - 1))
        coeffs = np.zeros(P, dtype=np.int64)
        coeffs[:degree + 1] = rng.integers(0, P, degree + 1)
        coeffs[degree] = rng.integers(1, P)
        table = table_from_coeffs(P, coeffs)
    else:
        table = getattr(build_named_tables(ring), kind)
    xs = [int(v) for v in rng.integers(0, P, slots)]
    lookup, reference = _both_paths(table, xs, depth, ring)
    assert lookup == reference


@pytest.mark.parametrize("grid", DIFF_GRIDS)
@pytest.mark.parametrize("degree", [0, 1])
def test_lookup_matches_reference_on_constant_and_linear(grid, degree):
    ring = select_ring_params(grid, dim=2, n=50)
    P = ring.modulus
    coeffs = (7, 3)[:degree + 1] + (0,) * (P - 1 - degree)
    table = table_from_coeffs(P, coeffs)
    for depth in (0, 1, 5, 12):
        lookup, reference = _both_paths(table, [0, 1, P - 1], depth, ring)
        assert lookup == reference


# The plaintext shifts x of a cipher u that share u's powers, by the signs
# (of u, of c) of x = c + u, c - u or u - c for a plaintext vector c.
FORMS = {"c+u": (1, 1), "c-u": (-1, 1), "u-c": (1, -1)}


def _laid_out(u, size, layout, params):
    """u to size slots: tiled end to end, or each slot repeated over a run
    of consecutive slots (broadcast)."""
    if layout == "tile":
        return he_sim.pack([u] * (size // u.size), params)
    return he_sim.broadcast(u, size)


def _shifted(u, shift, form, params):
    """The cipher c + u, c - u or u - c for the plaintext c = shift."""
    if form == "c+u":
        return he_sim.add(u, shift, params)
    if form == "c-u":
        return he_sim.rsub(shift, u, params)
    return he_sim.sub(u, shift, params)


def eval_shared_reference(jobs, u, params):
    """Literal evaluation of tables on plaintext shifts of one cipher u,
    tiled or broadcast, from one set of u's powers: the oracle of
    eval_poly_ps on images of a cipher that carries a powers record.

    jobs holds (table, shift, form, layout) tuples: the table is evaluated
    at the form (FORMS) of the vector shift and u laid out to its length
    (_laid_out).  In slot i that is a polynomial in u of the table's
    degree whose coefficients are plaintext, interpolated here from the
    table's values at the form of shift_i and v for every v.  The first
    table with powers to share computes u's baby and giant powers on u's
    slots; each table of its split combines the powers, laid out like u,
    by per-slot plaintext weights (one linear_combine per single slot)
    and multiplies the blocks by the giant powers.  A table of another
    split is evaluated alone.
    """
    P, claimed, out = params.modulus, None, []
    for table, shift, form, layout in jobs:
        size = len(shift)
        laid = _laid_out(u, size, layout, params)
        deg, split = table.degree, interp._ps_split(table.degree)
        if claimed is None and deg:
            claimed, (s, t) = split, split
            xp = _balanced_powers(u, min(s, deg), params)
            yp = _balanced_powers(xp[s], t - 1, params) if t > 1 else {}
        if not deg or split != claimed:
            out.append(eval_poly_ps_reference(
                table, _shifted(laid, shift, form, params), params))
            continue
        s, t = split
        kmax = min(s, deg)
        slots = [he_sim.split(_laid_out(xp[j], size, layout, params), size)
                 for j in range(1, kmax + 1)]
        su, sc = FORMS[form]
        rows = []  # rows[i][b]: block b in slot i
        for i in range(size):
            v = (sc * int(shift[i]) + su * np.arange(P)) % P
            coeffs = poly_coeffs(PolyTable(table.values[v]))
            weights = np.zeros((t, kmax), dtype=np.int64)
            for b in range(t):
                for j in range(1, s):
                    if b * s + j <= deg:
                        weights[b, j - 1] = coeffs[b * s + j]
            blocks = he_sim.linear_combine([c[i] for c in slots], weights,
                                           params)
            rows.append([he_sim.add(blk, coeffs[b * s], params)
                         for b, blk in enumerate(blocks)])
        acc = he_sim.pack([r[0] for r in rows], params)
        for b in range(1, t):
            block = he_sim.pack([r[b] for r in rows], params)
            giant = _laid_out(yp[b], size, layout, params)
            acc = he_sim.add(acc, he_sim.mul(block, giant, params), params)
        out.append(acc)
    return out


def _shared_paths(jobs, us, depth, ring):
    """([(value, output depth) per table], mult gates, add gates, max
    depth, cipher mults) of the lookups on images of one cipher that
    carries a powers record and of the literal shared schedule, on the
    same inputs."""
    keys = he_sim.keygen(ring, 5)
    results = []
    for literal in (False, True):
        u = he_sim.encrypt(keys.pk, us)
        u.depth = depth
        with he_sim.metering() as m:
            if literal:
                outs = eval_shared_reference(jobs, u, ring)
            else:
                u, outs = he_sim.share_powers(u), []
                for table, shift, form, layout in jobs:
                    x = _shifted(_laid_out(u, len(shift), layout, ring),
                                 shift, form, ring)
                    outs.append(eval_poly_ps(table, x, ring))
        results.append(([(he_sim.decrypt(keys.sk, r), r.depth) for r in outs],
                        m.mult_gates, m.add_gates, m.max_depth,
                        m.cipher_mults))
    return results


def _expected(jobs, us, P):
    """Each job's table at the form of its shift and us laid out, in
    plaintext."""
    out = []
    for table, shift, form, layout in jobs:
        reps = len(shift) // len(us)
        laid = np.tile(us, reps) if layout == "tile" else np.repeat(us, reps)
        su, sc = FORMS[form]
        out.append(table.values[(sc * shift + su * laid) % P].tolist())
    return out


# Rings of modulus 23 and 97, and of 13 and 17 (grid 4 and 5), where the
# distance map's split can differ from the other tables'
SHARED_GRIDS = (4, 5, 6, 24)


@given(grid=st.sampled_from(SHARED_GRIDS), n=st.integers(2, 60),
       kinds=st.lists(st.sampled_from(NAMED + ("random",)), min_size=1,
                      max_size=3),
       seed=st.integers(0, 2 ** 32 - 1), slots=st.integers(1, 4),
       depth=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_shared_powers_match_the_literal_schedule(grid, n, kinds, seed,
                                                  slots, depth):
    # one to three tables, each on a shift of u tiled or broadcast 1 to 3
    # times, in any of the three forms
    ring = select_ring_params(grid, dim=2, n=n)
    P = ring.modulus
    rng = np.random.default_rng(seed)
    jobs = []
    for kind in kinds:
        if kind == "random":
            degree = int(rng.integers(0, P))
            coeffs = np.zeros(P, dtype=np.int64)
            coeffs[:degree + 1] = rng.integers(0, P, degree + 1)
            coeffs[degree] = rng.integers(1, P)
            table = table_from_coeffs(P, coeffs)
        else:
            table = getattr(build_named_tables(ring), kind)
        reps = int(rng.integers(1, 4))
        jobs.append((table, rng.integers(0, P, reps * slots),
                     str(rng.choice(list(FORMS))),
                     str(rng.choice(["tile", "repeat"]))))
    us = [int(v) for v in rng.integers(0, P, slots)]
    lookup, literal = _shared_paths(jobs, us, depth, ring)
    assert lookup == literal
    values = [np.atleast_1d(value).tolist() for value, _ in lookup[0]]
    assert values == _expected(jobs, us, P)


@pytest.mark.parametrize("grid, n", [(6, 3), (24, 5), (24, 50)])
def test_the_distance_sign_test_reads_the_packed_querys_powers(grid, n):
    # compute_dists' pattern: the sign test on the packed 2-slot query,
    # broadcast over n slots per coordinate, minus the points' coordinates;
    # the powers are paid on the query's 2 slots, the blocks on all 2n
    ring = select_ring_params(grid, dim=2, n=n)
    is_neg = build_named_tables(ring).is_neg
    rng = np.random.default_rng(n)
    jobs = [(is_neg, rng.integers(0, grid, 2 * n), "u-c", "repeat")]
    us = [int(v) for v in rng.integers(0, grid, 2)]
    lookup, literal = _shared_paths(jobs, us, 0, ring)
    assert lookup == literal
    assert [np.atleast_1d(lookup[0][0][0]).tolist()] == _expected(
        jobs, us, ring.modulus)
    _, power, block, *_ = ps_cost(is_neg.degree, 0)
    assert lookup[1] == 2 * power + 2 * n * block
    assert lookup[4] == power + block


def test_a_cipher_that_is_no_image_of_the_record_pays_its_own_powers():
    # grid 250, n = 568: the sign test on a broadcast shift of a shared
    # 2-slot cipher u pays 61 powers on u's 2 slots and 31 block products
    # on each of 1,136; an unrelated 1,136-slot cipher pays all 92 per
    # slot, before u's powers are claimed and after
    ring = select_ring_params(250, dim=2, n=568)
    is_neg = build_named_tables(ring).is_neg
    keys = he_sim.keygen(ring, 5)
    rng = np.random.default_rng(0)
    u = he_sim.share_powers(he_sim.encrypt(keys.pk, [40, 60]))
    shifted = he_sim.sub(he_sim.broadcast(u, 1136),
                         rng.integers(0, 250, 1136), ring)
    unrelated = he_sim.encrypt(keys.pk, rng.integers(0, ring.modulus, 1136))
    gates = []
    for x in (unrelated, shifted, unrelated):
        with he_sim.metering() as m:
            eval_poly_ps(is_neg, x, ring)
        gates.append(m.mult_gates)
    assert gates == [104_512, 35_338, 104_512]


@pytest.mark.parametrize("grid, n, shared", [(4, 50, False), (5, 3, False),
                                             (5, 50, True), (6, 50, True),
                                             (24, 50, True)])
def test_the_circuit_tables_share_powers_when_their_splits_match(grid, n,
                                                                 shared):
    # the circuit's pattern: two coin batches on shifts of the tiled
    # distances, then the map on the distances; at grid 4, and at grid 5
    # for n = 3, the map's split differs, and it pays its full cost
    ring = select_ring_params(grid, dim=2, n=n)
    tables = build_named_tables(ring)
    P, reps, slots, depth = ring.modulus, 3, 4, 12
    rng = np.random.default_rng(grid)
    coins = [(tables.is_neg, rng.integers(0, P, reps * slots), "c-u", "tile")
             for _ in range(2)]
    jobs = coins + [(tables.dist_map, np.zeros(slots, dtype=np.int64), "c+u",
                     "tile")]
    us = [int(v) for v in rng.integers(0, ring.dist_bound + 1, slots)]
    lookup, literal = _shared_paths(jobs, us, depth, ring)
    assert lookup == literal
    split, power, block, *_ = ps_cost(tables.is_neg.degree, depth)
    map_split, map_power, map_block, *_ = ps_cost(tables.dist_map.degree,
                                                  depth)
    assert (map_split == split) == shared
    map_cost = map_block + (0 if shared else map_power)
    assert lookup[1] == slots * (power + 2 * reps * block + map_cost)


def test_a_rings_tables_are_built_once(monkeypatch):
    # the tables, the map and its inverse are one memo entry per ring; at
    # grid 250 both rings have the map range R = dist_bound = 498, yet a
    # ring that differs only in n owns its set
    a = select_ring_params(250, dim=2, n=1000)
    b = select_ring_params(250, dim=2, n=5690)
    built, lagrange = [], interp.lagrange_table

    def counted(f, params):
        built.append(lagrange(f, params))
        return built[-1]

    monkeypatch.setattr(interp, "lagrange_table", counted)
    build_named_tables.cache_clear()
    tables = build_named_tables(a)
    assert built == [getattr(tables, name) for name in NAMED]
    for _ in range(2):
        assert build_named_tables(a) is tables
        assert np.shares_memory(interp.dist_map(a), tables.dist_map.values)
        CoinSpec("identity", 1000, (0,), a).inverse_ceil_array(np.arange(1, 9))
    assert len(built) == 7
    other = build_named_tables(b)
    assert other is not tables and len(built) == 14
    assert np.array_equal(other.dist_map.values, tables.dist_map.values)
    assert build_named_tables.cache_info().maxsize >= 10


def test_degree_from_power_sums_matches_coefficients():
    # every degree 0..22 at P = 23, from random coefficients
    rng = np.random.default_rng(7)
    for degree in range(23):
        coeffs = [int(c) for c in rng.integers(0, 23, degree + 1)]
        coeffs[degree] = int(rng.integers(1, 23))
        table = table_from_coeffs(23, coeffs)
        assert table.degree == degree
        assert poly_coeffs(table) == tuple(coeffs) + (0,) * (22 - degree)


@pytest.mark.parametrize("grid", [24, 100, 250])
def test_named_table_degrees_match_interpolated_coefficients(grid):
    tables = build_named_tables(select_ring_params(grid, dim=2, n=50))
    for name in NAMED:
        table = getattr(tables, name)
        top = max(i for i, c in enumerate(poly_coeffs(table)) if c)
        assert table.degree == top, name
        if grid == 250:
            assert ps_cost(table.degree, 0) == ((32, 32), 61, 31, 31,
                                                  11), name


def test_table_refuses_values_outside_the_ring(ring, keys):
    for bad in (np.full(23, 40), np.full(23, -1), np.zeros((23, 1))):
        with pytest.raises(ParameterError):
            PolyTable(bad)
    # no values, no ring: was a bare ValueError from min()
    with pytest.raises(ParameterError, match="one row in \\[0, P\\)"):
        PolyTable(np.array([], dtype=np.int64))
    # lagrange_table reduces what f returns, so a lookup stays in Z_P
    table = lagrange_table(lambda x: np.full(x.shape, 40), ring)
    c = he_sim.encrypt(keys.pk, 5)
    assert he_sim.decrypt(keys.sk, eval_poly_ps(table, c, ring)) == 40 % 23
    # a table's ring is its size: one of 97 values is not looked up mod 23
    other = build_named_tables(select_ring_params(24, dim=2, n=20)).is_neg
    with pytest.raises(ParameterError, match="different ring"):
        eval_poly_ps(other, c, ring)


@given(st.lists(st.integers(0, 2 ** 62), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_isqrt_is_the_exact_floor_square_root(vs):
    # near 2^31 float sqrt rounds s^2 - 1 up to s; the corrections undo it
    s = np.arange(2 ** 31 - 64, 2 ** 31 + 1, dtype=np.int64)
    v = np.concatenate([np.array(vs, dtype=np.int64), s * s, s * s - 1])
    assert interp.isqrt(v).tolist() == [math.isqrt(int(x)) for x in v]


def test_lagrange_refuses_inexact_modulus_before_calling_f():
    P = next(m for m in itertools.count(2 ** 21 + 1) if is_prime(m))
    assert P ** 3 >= 2 ** 63
    big = RingParams(modulus=P, coord_bound=2, dim=1, n=1)

    def f(x):
        raise AssertionError("f called")

    with pytest.raises(ParameterError):
        lagrange_table(f, big)


def test_lagrange_calls_f_once_on_every_residue(ring):
    calls = []

    def f(x):
        calls.append(x.copy())
        return 3 * x + 1

    table = lagrange_table(f, ring)
    assert len(calls) == 1
    assert calls[0].tolist() == list(range(23))
    assert table.values.tolist() == [(3 * x + 1) % 23 for x in range(23)]


def test_named_table_values_are_the_scalar_builds():
    # sha256 of every named table's values, in NAMED order, grids 24, 30,
    # 100 and 250 by n = 50, 569 and 5,690, recorded from the build that
    # called each table's function once per residue in Python, and again
    # when sqrt_times_p became 0 at residue 1, its only changed entry
    h = hashlib.sha256()
    for grid in (24, 30, 100, 250):
        for n in (50, 569, 5690):
            tables = build_named_tables(select_ring_params(grid, dim=2, n=n))
            for name in NAMED:
                h.update(getattr(tables, name).values.astype("<i8").tobytes())
    assert h.hexdigest() == ("b01c274f3906a18f414090f5e85ebc2d"
                             "e452f62322b598730337cd641e0750a3")
