import dataclasses
import functools
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kishnn import he_sim, interp
from kishnn.interp import (NamedTables, PolyTable, build_named_tables,
                           eval_poly_ps, is_smaller, lagrange_table, ps_cost)
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


def _random_table(P, degree, rng):
    """A table of a polynomial of exactly this degree, random
    coefficients."""
    coeffs = np.zeros(P, dtype=np.int64)
    coeffs[:degree + 1] = rng.integers(0, P, degree + 1)
    coeffs[degree] = rng.integers(1, P)
    return table_from_coeffs(P, coeffs)


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


def schedule_powers(x, split, mul):
    """{j: x^j} for every power the schedule of split = (l, top) reads:
    the baby powers x^1 .. x^min(2^l - 1, top), each x^j the product
    mul(x^(j//2), x^ceil(j/2)), and the giant powers x^(2^l) .. x^top,
    each the square of the one before."""
    l, top = split
    xp = {1: x}
    for j in range(2, min((1 << l) - 1, top) + 1):
        xp[j] = mul(xp[j // 2], xp[(j + 1) // 2])
    j = max(1 << l, 2)
    while j <= top:
        xp[j] = mul(xp[j // 2], xp[j // 2])
        j *= 2
    return xp


def schedule_walk(split, deg, leaf, join):
    """The recursive schedule of leaf exponent l = split[0] on the
    coefficients 0 .. deg: p = A + x^(2^j) * B, 2^j the largest power of
    two <= deg p, split again until a part is of degree < 2^l, the leaf
    leaf(lo, hi) of its coefficients lo .. hi; join(A, 2^j, B) is
    A + x^(2^j) * B."""
    size = 1 << split[0]

    def part(lo, hi):
        if hi - lo < size:
            return leaf(lo, hi)
        half = 1 << ((hi - lo).bit_length() - 1)
        return join(part(lo, lo + half - 1), half, part(lo + half, hi))

    return part(0, deg)


def schedule_combine(coeffs, split, deg, xp, params):
    """The schedule on the powers xp with real products and adds; coeffs
    holds one row of deg + 1 plaintext coefficients per slot.  A leaf of
    one coefficient is that plaintext, so its product is free; any other
    leaf is the free per-slot plaintext combination of the baby powers it
    reads, as deep as the deepest of them."""
    P = params.modulus
    reads = range(1, min((1 << split[0]) - 1, split[1]) + 1)
    baby = np.array([xp[j]._values % P for j in reads]).T  # (slots, j)
    depths = list(itertools.accumulate((xp[j].depth for j in reads), max))

    def leaf(lo, hi):
        if lo == hi:
            return coeffs[:, lo]
        vals = coeffs[:, lo] + (coeffs[:, lo + 1:hi + 1]
                                * baby[:, :hi - lo]).sum(axis=1)
        he_sim._note(depths[hi - lo - 1])  # free, as linear_combine notes
        return he_sim.Cipher(vals % P, depths[hi - lo - 1], xp[1].key_id)

    def join(a, j, b):
        product = he_sim.mul(xp[j], b, params)
        if isinstance(a, he_sim.Cipher):
            return he_sim.add(a, product, params)
        return he_sim.add(product, a, params)

    return schedule_walk(split, deg, leaf, join)


def eval_poly_ps_reference(table, x, params):
    """Literal evaluation of a table's coefficients by the recursive
    schedule (schedule_walk) at ps_cost's split: the oracle eval_poly_ps
    and ps_cost are checked against.  The powers are real products of x,
    the leaves free plaintext combinations of them."""
    if table.values.size != params.modulus:
        raise ParameterError("table interpolated over a different ring")
    deg, coeffs = table.degree, np.array([poly_coeffs(table)])
    if deg == 0:
        return he_sim.embed_like(x, np.full(x.size, coeffs[0, 0],
                                            dtype=np.int64))
    split = ps_cost(deg, x.depth)[0]
    xp = schedule_powers(x, split, lambda a, b: he_sim.mul(a, b, params))
    return schedule_combine(np.repeat(coeffs, x.size, axis=0), split, deg,
                            xp, params)


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
        # sqrt_times_p reads its argument as signed and is 0 up to 1, where
        # the is_bit branch rules; the low-digit roots are of the negated
        # low digit -low of x^2 = p * round(x^2 / p) + low, 0 below 0
        signed = x if x <= P // 2 else x - P
        high = round(x * x / p + 1e-9)
        neg_low = p * high - x * x
        assert abs(neg_low) <= p / 2
        assert eval_plain(t.square_div_p, x) == high % P
        low_sqrt = near_sqrt(neg_low) if neg_low >= 0 else 0
        assert eval_plain(t.low_sqrt, x) == low_sqrt
        assert eval_plain(t.low_step, x) == (near_sqrt(p + neg_low)
                                             - low_sqrt) % P
        assert eval_plain(t.is_bit, x) == (1 if x in (0, 1) else 0)
        assert eval_plain(t.is_neg, x) == (1 if x > P / 2 else 0)
        assert eval_plain(t.abs, x) == abs(signed)
        expect_times = near_sqrt(signed * p) if signed > 1 else 0
        assert eval_plain(t.sqrt_times_p, x) == expect_times

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


@pytest.mark.parametrize("grid", [4, 6, 100, 250])
def test_the_abs_table_is_the_magnitude_of_every_residue(grid):
    # |signed(x)|: the upper half of Z_P read as negative, on a cipher of
    # every residue, as compute_dists reads it on q_j - s_ij
    ring = select_ring_params(grid, dim=2, n=20)
    keys, P = he_sim.keygen(ring, 4), ring.modulus
    residues = he_sim.encrypt(keys.pk, np.arange(P))
    got = he_sim.decrypt(keys.sk, eval_poly_ps(
        build_named_tables(ring).abs, residues, ring))
    assert got == [abs(ring.signed(x)) for x in range(P)]


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
# Every table of NamedTables, in build order: all its fields but the last,
# the map's inverse.
NAMED = tuple(f.name for f in dataclasses.fields(NamedTables))[:-1]


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
        table = _random_table(P, int(degree_frac * (P - 1)), rng)
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


@functools.lru_cache(maxsize=None)
def _walked(deg, l):
    """(powers, products, adds, output depth) of the schedule of leaf
    exponent l at degree deg on an input of depth 0, walked by
    schedule_powers and schedule_walk on depths as he_sim meters them: a
    product of two ciphers is one mult, one level deeper than its deeper
    factor, and one by a plaintext (None) is free; an add of two ciphers
    is one add."""
    m, mults, adds = deg.bit_length(), [], []

    def mul(a, b):
        if b is None:
            return a
        mults.append(1)
        return (a if a > b else b) + 1

    split = (l, deg if l == m else 1 << (m - 1))
    xp = schedule_powers(0, split, mul)
    powers = len(mults)
    reads = range(1, min((1 << l) - 1, split[1]) + 1)
    depths = [None] + list(itertools.accumulate((xp[j] for j in reads), max))

    def join(a, j, b):
        product = mul(xp[j], b)
        if a is None:
            return product
        adds.append(1)
        return a if a > product else product

    out = schedule_walk(split, deg, lambda lo, hi: depths[hi - lo], join)
    return powers, len(mults) - powers, len(adds), out


def _cheapest(deg, tables):
    """The leaf exponent of fewest powers + tables * products, then of
    fewest products, of the walked schedules at degree deg."""
    return min((p + tables * b, b, l) for l in range(1, deg.bit_length() + 1)
               for p, b, _, _ in [_walked(deg, l)])[2]


def test_the_closed_form_is_the_walked_schedule_at_every_degree():
    # every degree up to 1,200 and every leaf exponent l: interp's closed
    # form is the literal schedule's count, walked as the references walk
    # it, every l is ceil(log2 deg) deep, and l = 0 costs what l = 1 does
    for deg in range(1, 1201):
        assert _walked(deg, 0) == _walked(deg, 1)
        for l in range(1, deg.bit_length() + 1):
            powers, products, leaves = interp._schedule(deg, l)
            assert _walked(deg, l) == (powers, products, leaves - 1,
                                       (deg - 1).bit_length()), (deg, l)


def test_the_split_is_the_cheapest_no_deeper_than_the_square_one():
    # every degree up to 1,200, one table: ps_cost takes the walked
    # schedule of fewest powers + products, then of fewest products, and
    # it is no deeper and no dearer than the square one, whose leaves of
    # 2^l0 >= isqrt(deg) + 1 coefficients are the fewest of at least the
    # square block size
    for deg in range(1, 1201):
        m, l0 = deg.bit_length(), math.isqrt(deg).bit_length()
        assert (1 << l0) > math.isqrt(deg) >= (1 << l0) >> 1
        best = _cheapest(deg, 1)
        split, powers, products, adds, out = ps_cost(deg, 0)
        assert split == (best, deg if best == m else 1 << (m - 1))
        assert (powers, products, adds, out) == _walked(deg, best)
        square = _walked(deg, l0)
        assert out <= square[3]
        assert powers + products <= square[0] + square[1]


def test_a_records_split_is_the_cheapest_for_all_its_tables():
    # every degree of a table at P = 997, 1 .. 996, which covers those at
    # P = 397, 1 .. 396, for one to four tables on one powers record: the
    # leaf exponent of fewest powers plus tables * products (the record's
    # ciphertext mults), then of fewest products; one table keeps the
    # lone table's split, and no record is deeper than a lone table
    for deg in range(1, 997):
        m = deg.bit_length()
        assert ps_cost(deg, 3, 1) == ps_cost(deg, 3)
        for tables in range(1, 5):
            best = _cheapest(deg, tables)
            split, *cost = ps_cost(deg, 3, tables)
            assert split == (best, deg if best == m else 1 << (m - 1)), (
                deg, tables)
            assert cost == [*_walked(deg, best)[:3], 3 + _walked(deg, best)[3]]
            assert cost[3] <= ps_cost(deg, 3)[4]


def test_lookup_matches_reference_where_the_split_is_not_square():
    # P = 97: a degree-96 table takes leaf exponent 3, split (3, 64): 10
    # powers and 11 products, cheaper than the square l0 = 4 (17 and 5),
    # as deep, and the literal schedule runs that split
    ring = select_ring_params(24, dim=2, n=50)
    table = build_named_tables(ring).is_neg
    assert ring.modulus == 97 and table.degree == 96
    assert math.isqrt(96).bit_length() == 4
    assert ps_cost(96, 0)[:3] == ((3, 64), 10, 11)
    assert [_walked(96, l)[:2] for l in (3, 4)] == [(10, 11), (17, 5)]
    assert _walked(96, 3)[3] == _walked(96, 4)[3] == 7
    for depth in (0, 3):
        lookup, reference = _both_paths(table, list(range(97)), depth, ring)
        assert lookup == reference
        assert lookup[1] == depth + 7


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


def span_interpolant(ys, P):
    """c_0 .. c_(m-1) of the polynomial of degree at most m - 1 through
    (v, ys[v]) for v in [0, m), m = len(ys) <= P, over Z_P: Newton's
    divided differences on the nodes 0 .. m-1 (level k divides by k),
    expanded into powers of the variable."""
    a = np.array(ys, dtype=np.int64) % P
    newton = [int(a[0])]
    for k in range(1, a.size):
        a = (a[1:] - a[:-1]) * pow(k, P - 2, P) % P
        newton.append(int(a[0]))
    c = np.zeros(len(newton), dtype=np.int64)
    c[0] = newton[-1]
    for k in range(len(newton) - 2, -1, -1):  # c <- c * (x - k) + a_k
        c = (np.concatenate(([0], c[:-1])) - k * c) % P
        c[0] = (c[0] + newton[k]) % P
    return tuple(int(v) for v in c)


def _slot_coeffs(table, c, form, P, span):
    """The coefficients, in u, of the table at the form (FORMS) of the
    plaintext c and u: interpolated over all of Z_P, or over [0, span)
    only."""
    su, sc = FORMS[form]
    v = (sc * c + su * np.arange(P if span is None else span)) % P
    if span is None:
        return poly_coeffs(PolyTable(table.values[v]))
    return span_interpolant(table.values[v], P)


def eval_shared_reference(jobs, u, params, span=None, tables=1):
    """Literal evaluation of tables on plaintext shifts of one cipher u,
    tiled or broadcast, from u's powers: the oracle of eval_poly_ps on
    images of a cipher that carries a powers record that `tables` tables
    read.

    jobs holds (table, shift, form, layout) tuples: the table is evaluated
    at the form (FORMS) of the vector shift and u laid out to its length
    (_laid_out).  In slot i that is a polynomial in u whose coefficients
    are plaintext, interpolated here from the table's values at the form
    of shift_i and v: for every v in Z_P, of the table's degree, or, when
    every slot of u lies in [0, span), for v in [0, span) only, of degree
    at most min(table degree, span - 1), at that degree's split for
    `tables` tables.  The first table with powers to share computes u's
    baby and giant powers on u's slots; each table of its split runs the
    recursive schedule (schedule_combine) on the powers laid out like u.
    A table of another split computes its own powers of u laid out, on
    all of its slots.
    """
    P, claimed, out = params.modulus, {}, []

    def mul(a, b):
        return he_sim.mul(a, b, params)

    for table, shift, form, layout in jobs:
        size = len(shift)
        laid = _laid_out(u, size, layout, params)
        deg = table.degree if span is None else min(table.degree, span - 1)
        coeffs = np.array([_slot_coeffs(table, int(c), form, P, span)
                           for c in shift])
        assert not coeffs[:, deg + 1:].any()
        if not deg:
            out.append(he_sim.embed_like(laid, coeffs[:, 0]))
            continue
        split = ps_cost(deg, u.depth, tables)[0]
        if not claimed:
            claimed[split] = schedule_powers(u, split, mul)
        if split in claimed:
            xp = {j: _laid_out(p, size, layout, params)
                  for j, p in claimed[split].items()}
        else:
            xp = schedule_powers(laid, split, mul)
        out.append(schedule_combine(coeffs, split, deg, xp, params))
    return out


def _shared_paths(jobs, us, depth, ring, span=None, tables=1):
    """([(value, output depth) per table], mult gates, add gates, max
    depth, cipher mults) of the lookups on images of one cipher that
    carries a powers record, of this span and count of tables, and of
    the literal shared schedule, on the same inputs.  Both paths make
    the same images of the cipher, free ops at its depth, so a constant
    table's output does not hide the input's depth from one of them."""
    keys = he_sim.keygen(ring, 5)
    results = []
    for literal in (False, True):
        u = he_sim.encrypt(keys.pk, us)
        u.depth = depth
        with he_sim.metering() as m:
            if not literal:
                u = he_sim.share_powers(u, span, tables)
            xs = [_shifted(_laid_out(u, len(shift), layout, ring), shift,
                           form, ring) for _, shift, form, layout in jobs]
            if literal:
                outs = eval_shared_reference(jobs, u, ring, span, tables)
            else:
                outs = [eval_poly_ps(job[0], x, ring)
                        for job, x in zip(jobs, xs)]
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
            table = _random_table(P, int(rng.integers(0, P)), rng)
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
    # 2-slot cipher u pays its powers on u's 2 slots and its block
    # products on each of 1,136; an unrelated 1,136-slot cipher pays both
    # on every slot, before u's powers are claimed and after
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
    _, power, block, *_ = ps_cost(is_neg.degree, 0)
    full, shared = 1136 * (power + block), 2 * power + 1136 * block
    assert gates == [full, shared, full] == [74_976, 35_286, 74_976]


@pytest.mark.parametrize("grid, n, shared", [(4, 50, True), (5, 3, False),
                                             (5, 50, True), (6, 50, True),
                                             (24, 50, True)])
def test_the_circuit_tables_share_powers_when_their_splits_match(grid, n,
                                                                 shared):
    # the circuit's pattern: two coin batches on shifts of the tiled
    # distances, then the map on the distances; at grid 5 for n = 3 the
    # map's split differs, and it pays its full cost; at grid 4 the map,
    # of degree 11, shares the split (2, 8) of the sign test, of degree 12
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


def test_three_tables_on_the_distances_match_the_literal_schedule():
    # grid 250: the circuit's two coin batches and the map on distances
    # whose record has the span [0, 498] and three readers, so every
    # table, of degree 996, is a polynomial of degree 498 in the
    # distances, at the split (5, 256) that a lone table takes too: baby
    # powers x^2 .. x^31, giant powers x^32 .. x^256, 16 leaves, depth 9
    # (degree 996 alone takes (5, 512), with three readers (6, 512)); the
    # literal schedule at that split costs what the lookups are charged
    ring = select_ring_params(250, dim=2, n=568)
    tables = build_named_tables(ring)
    P, span, slots, reps, depth = ring.modulus, ring.dist_bound + 1, 2, 2, 12
    rng = np.random.default_rng(3)
    jobs = [(tables.is_neg, rng.integers(0, span, reps * slots), "c-u",
             "tile") for _ in range(2)]
    jobs.append((tables.dist_map, np.zeros(slots, dtype=np.int64), "c+u",
                 "tile"))
    us = [int(v) for v in rng.integers(0, span, slots)]
    lookup, literal = _shared_paths(jobs, us, depth, ring, span, tables=3)
    assert lookup == literal
    values = [np.atleast_1d(value).tolist() for value, _ in lookup[0]]
    assert values == _expected(jobs, us, P)
    split, power, block, _, out = ps_cost(span - 1, depth, 3)
    assert (split, power, block) == ((5, 256), 34, 15)
    assert ps_cost(span - 1, depth)[:3] == ((5, 256), 34, 15)
    assert ps_cost(P - 1, depth)[:3] == ((5, 512), 35, 31)
    assert ps_cost(P - 1, depth, 3)[:3] == ((6, 512), 66, 15)
    assert out == depth + 9 == lookup[3]
    assert lookup[1] == slots * power + (2 * reps + 1) * slots * block
    assert lookup[4] == power + 3 * block


def _spans(ring):
    """The spans the span tests use: 2, 7 and the distances' B + 1."""
    return (2, 7, ring.dist_bound + 1)


def test_the_span_interpolant_is_the_one_through_its_points():
    # degree at most m - 1 through m points, and the table's own
    # coefficients when its degree is lower
    rng = np.random.default_rng(4)
    for m in (1, 2, 7, 23):
        ys = rng.integers(0, 23, m)
        c = span_interpolant(ys, 23)
        assert len(c) == m
        assert [sum(cj * v ** j for j, cj in enumerate(c)) % 23
                for v in range(m)] == ys.tolist()
    table = table_from_coeffs(23, (5, 0, 3, 1))
    assert span_interpolant(table.values[:9], 23) == (5, 0, 3, 1) + (0,) * 5


@pytest.mark.parametrize("grid", [6, 100])
@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_tables_on_a_span_match_the_literal_per_slot_interpolants(grid, which,
                                                                  seed):
    # the circuit's pattern on a cipher whose slots lie in [0, span): two
    # coin batches on tiled shifts, the map, and a named or random table
    # in a random form and layout; each slot's polynomial in u is
    # interpolated on the span's points only, and the literal schedule of
    # its degree, at most span - 1, is what the lookups are charged
    ring = select_ring_params(grid, dim=2, n=50)
    span = _spans(ring)[which]
    tables = build_named_tables(ring)
    P, slots, reps = ring.modulus, 3, 2
    rng = np.random.default_rng(seed)
    kind = NAMED[seed * 3 + which]
    extra = (getattr(tables, kind) if seed else
             _random_table(P, int(rng.integers(1, P)), rng))
    jobs = [(tables.is_neg, rng.integers(0, P, reps * slots), "c-u", "tile")
            for _ in range(2)]
    jobs += [(tables.dist_map, np.zeros(slots, dtype=np.int64), "c+u",
              "tile"),
             (extra, rng.integers(0, P, reps * slots),
              str(rng.choice(list(FORMS))),
              str(rng.choice(["tile", "repeat"])))]
    us = [int(v) for v in rng.integers(0, span, slots)]
    depth = int(rng.integers(0, 12))
    lookup, literal = _shared_paths(jobs, us, depth, ring, span)
    assert lookup == literal
    values = [np.atleast_1d(value).tolist() for value, _ in lookup[0]]
    assert values == _expected(jobs, us, P)


@pytest.mark.parametrize("grid", [6, 100])
def test_a_table_on_a_span_is_charged_at_its_degree_there(grid):
    # on a cipher whose record has a span, every table is charged
    # ps_cost(min(degree, span - 1), depth); with a record of no span, or
    # no record, its full degree
    ring = select_ring_params(grid, dim=2, n=50)
    keys = he_sim.keygen(ring, 5)
    P, named = ring.modulus, build_named_tables(ring)
    rng = np.random.default_rng(grid)
    tables = [getattr(named, name) for name in NAMED]
    tables += [_random_table(P, d, rng) for d in (0, 1, 5, P - 1)]

    def charged(table, c):
        with he_sim.metering() as m:
            r = eval_poly_ps(table, c, ring)
        return (m.mult_gates, m.add_gates, m.cipher_mults, m.max_depth,
                r.depth)

    def expected(degree, depth, slots):
        _, power, block, adds, out = ps_cost(degree, depth)
        return slots * (power + block), slots * adds, power + block, out, out

    for table in tables:
        for depth in (0, 5):
            for span in (1,) + _spans(ring) + (P,):
                c = he_sim.encrypt(keys.pk, rng.integers(0, span, 4))
                c.depth = depth
                assert charged(table, he_sim.share_powers(c, span)) == \
                    expected(min(table.degree, span - 1), depth, 4)
            c = he_sim.encrypt(keys.pk, rng.integers(0, P, 4))
            c.depth = depth
            full = expected(table.degree, depth, 4)
            assert charged(table, he_sim.share_powers(c)) == full
            assert charged(table, c) == full


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
    assert len(built) == len(dataclasses.fields(NamedTables)) - 1
    other = build_named_tables(b)
    assert other is not tables and len(built) == 2 * len(NAMED)
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
            assert ps_cost(table.degree, 0) == ((5, 512), 35, 31, 31,
                                                  10), name


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
    # sha256 of the values of the seven tables named here, in this order,
    # grids 24, 30, 100 and 250 by n = 50, 569 and 5,690, recorded from the
    # build that called each table's function once per residue in Python,
    # and again when sqrt_times_p became 0 at residue 1, its only changed
    # entry; abs came later and is checked against its definition alone.
    # sqrt, is_zero and sqrt_plus_p left the named tables when sigma's
    # low-digit roots moved onto mu*'s powers, and are built here from
    # their definitions: round(sqrt(x)), [x = 0] and round(sqrt(p + x)),
    # x read as signed and a negative root argument as 0
    h = hashlib.sha256()
    for grid in (24, 30, 100, 250):
        for n in (50, 569, 5690):
            ring = select_ring_params(grid, dim=2, n=n)
            P, p = ring.modulus, ring.coord_bound
            tables = build_named_tables(ring)

            def root(x, shift=0):
                return interp._nearest_isqrt(shift + np.where(
                    x > P // 2, x - P, x))

            gone = {"sqrt": lagrange_table(root, ring),
                    "is_zero": lagrange_table(lambda x: x == 0, ring),
                    "sqrt_plus_p": lagrange_table(lambda x: root(x, p),
                                                  ring)}
            for name in ("sqrt", "square_div_p", "is_zero", "sqrt_plus_p",
                         "sqrt_times_p", "is_neg", "dist_map"):
                table = gone.get(name) or getattr(tables, name)
                h.update(table.values.astype("<i8").tobytes())
    assert h.hexdigest() == ("b01c274f3906a18f414090f5e85ebc2d"
                             "e452f62322b598730337cd641e0750a3")
