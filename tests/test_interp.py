import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kishnn import classifier, he_sim, interp
from kishnn.data_eval import grid_dataset, load_wdbc
from kishnn.interp import (PolyTable, build_named_tables, eval_poly_ps,
                           is_smaller, lagrange_table, ps_cost)
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


def table_from_coeffs(P, coeffs, name):
    """The table of the polynomial with these coefficients (Horner)."""
    x = np.arange(P, dtype=np.int64)
    values = np.zeros(P, dtype=np.int64)
    for c in reversed(coeffs):
        values = (values * x + c) % P
    return PolyTable(P, values, name)


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
    if table.modulus != params.modulus:
        raise ParameterError("table interpolated over a different ring")
    deg = table.degree()
    if deg == 0:
        return he_sim.embed_like(x, np.full(x.size, table.coeffs[0],
                                            dtype=np.int64))
    s, t = interp._ps_split(deg)
    kmax = min(s, deg)
    xp = _balanced_powers(x, kmax, ring=params)
    # Block i holds coefficients c[i*s] .. c[i*s+s-1]; the x^j weights are
    # plaintext, so the whole block matrix is one free linear combination.
    weights = np.zeros((t, kmax), dtype=np.int64)
    consts = np.zeros(t, dtype=np.int64)
    for i in range(t):
        consts[i] = table.coeffs[i * s]
        for j in range(1, s):
            k = i * s + j
            if k <= deg:
                weights[i, j - 1] = table.coeffs[k]
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
    table = lagrange_table(lambda x: values[x], ring, "rand")
    assert table.coeffs == vandermonde_interpolate(values, 23)


def test_lagrange_reproduces_function_everywhere(ring):
    table = lagrange_table(lambda x: (x * x + 3) % 23, ring, "sq3")
    assert all(table.eval_plain(x) == (x * x + 3) % 23 for x in range(23))


def test_eval_poly_ps_agrees_with_plain_everywhere(ring, keys):
    rng = np.random.default_rng(1)
    table = lagrange_table(lambda x: rng.integers(0, 23, size=x.shape), ring,
                           "r")
    for x in range(23):
        c = he_sim.encrypt(keys.pk, x)
        got = he_sim.decrypt(keys.sk, eval_poly_ps(table, c, ring))
        assert got == table.eval_plain(x)


def test_eval_poly_ps_vectorized_slots(ring, keys):
    table = build_named_tables(ring).is_neg
    xs = list(range(23))
    c = he_sim.encrypt(keys.pk, xs)
    got = he_sim.decrypt(keys.sk, eval_poly_ps(table, c, ring))
    assert got == [table.eval_plain(x) for x in xs]


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
        # every square-root table reads its argument as signed, 0 below 0
        signed = x if x <= P // 2 else x - P
        expect_sqrt = near_sqrt(signed) if signed >= 0 else 0
        assert t.sqrt.eval_plain(x) == expect_sqrt
        assert t.square_div_p.eval_plain(x) == round(x * x / p + 1e-9) % P
        assert t.is_zero.eval_plain(x) == (1 if x == 0 else 0)
        assert t.is_neg.eval_plain(x) == (1 if x > P / 2 else 0)
        expect_times = near_sqrt(signed * p) if signed >= 0 else 0
        assert t.sqrt_times_p.eval_plain(x) == expect_times
        expect_shift = near_sqrt(p + signed) if p + signed >= 0 else 0
        assert t.sqrt_plus_p.eval_plain(x) == expect_shift

    # the distance map: monotone from t(0) = 0, squares within n * p
    n, B = ring.n, ring.dist_bound
    R = min(B, n, math.isqrt(n * p))
    tmap = [t.dist_map.eval_plain(x) for x in range(B + 1)]
    assert tmap == [math.floor(R * math.log1p(x) / math.log1p(B) + 0.5)
                    for x in range(B + 1)]
    assert tmap == list(interp.dist_map(ring))
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
    table = table_from_coeffs(23, rng.integers(0, 23, 23), "h")
    c = he_sim.encrypt(keys.pk, x)
    assert he_sim.decrypt(keys.sk, eval_poly_ps(table, c, ring)) \
        == table.eval_plain(x)


def test_table_values_are_the_polynomial_everywhere(ring):
    rng = np.random.default_rng(3)
    coeffs = tuple(int(v) for v in rng.integers(0, 23, 23))
    from_coeffs = table_from_coeffs(23, coeffs, "c")
    interpolated = lagrange_table(lambda x: (5 * x + 1) % 23, ring, "lin")
    for x in range(23):
        assert from_coeffs.values[x] == from_coeffs.eval_plain(x)
        assert interpolated.values[x] == interpolated.eval_plain(x)
    assert from_coeffs.coeffs == coeffs
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
        table = table_from_coeffs(P, coeffs, "random")
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
    table = table_from_coeffs(P, coeffs, "low")
    for depth in (0, 1, 5, 12):
        lookup, reference = _both_paths(table, [0, 1, P - 1], depth, ring)
        assert lookup == reference


def test_rings_differing_only_in_n_share_tables():
    # at grid 250 every n >= 993 has the map range R = dist_bound = 498
    a = select_ring_params(250, dim=2, n=1000)
    b = select_ring_params(250, dim=2, n=5690)
    assert build_named_tables(a) is build_named_tables(b)
    assert interp.dist_map(a) is interp.dist_map(b)
    c = select_ring_params(250, dim=2, n=569)  # R = isqrt(569 * 250) = 377
    assert build_named_tables(c) is not build_named_tables(a)


def test_degree_from_power_sums_matches_coefficients():
    # every degree 0..22 at P = 23, from random coefficients
    rng = np.random.default_rng(7)
    for degree in range(23):
        coeffs = [int(c) for c in rng.integers(0, 23, degree + 1)]
        coeffs[degree] = int(rng.integers(1, 23))
        table = table_from_coeffs(23, coeffs, "random")
        assert table.degree() == degree
        assert table.coeffs == tuple(coeffs) + (0,) * (22 - degree)


@pytest.mark.parametrize("grid", [24, 100, 250])
def test_named_table_degrees_match_interpolated_coefficients(grid):
    tables = build_named_tables(select_ring_params(grid, dim=2, n=50))
    for name in NAMED:
        table = getattr(tables, name)
        top = max(i for i, c in enumerate(table.coeffs) if c)
        assert table.degree() == top, name
        if grid == 250:
            assert ps_cost(table.degree(), 0) == (92, 31, 11), name


def test_setup_and_query_never_interpolate(wdbc_path, monkeypatch):
    # the lookup and ps_cost need only each table's values and degree
    def refuse(P):
        raise AssertionError("coefficients interpolated")

    monkeypatch.setattr(interp, "_power_matrix", refuse)
    interp.build_named_tables.cache_clear()
    interp._build_named_tables.cache_clear()
    db = grid_dataset(load_wdbc(wdbc_path), 250).database()
    ring = select_ring_params(250, dim=2, n=db.n)
    build_named_tables(ring)
    pp = classifier.make_protocol_params(ring, k=13, n=db.n, repetitions=1,
                                         rng_seed=3)
    assert classifier.classify_with_majority(db.points[0], db, pp) in (0, 1)


def test_table_refuses_values_outside_the_ring(ring, keys):
    for bad in (np.full(23, 40), np.full(23, -1)):
        with pytest.raises(ParameterError):
            PolyTable(modulus=23, values=bad, name="bad")
    # lagrange_table reduces what f returns, so a lookup stays in Z_P
    table = lagrange_table(lambda x: np.full(x.shape, 40), ring, "forty")
    c = he_sim.encrypt(keys.pk, 5)
    assert he_sim.decrypt(keys.sk, eval_poly_ps(table, c, ring)) == 40 % 23


def test_lagrange_refuses_inexact_modulus_before_calling_f():
    P = next(m for m in itertools.count(2 ** 21 + 1) if is_prime(m))
    assert P ** 3 >= 2 ** 63
    big = RingParams(modulus=P, coord_bound=2, dim=1, n=1)

    def f(x):
        raise AssertionError("f called")

    with pytest.raises(ParameterError):
        lagrange_table(f, big, "big")


def test_lagrange_calls_f_once_on_every_residue(ring):
    calls = []

    def f(x):
        calls.append(x.copy())
        return 3 * x + 1

    table = lagrange_table(f, ring, "affine")
    assert len(calls) == 1
    assert calls[0].tolist() == list(range(23))
    assert table.values.tolist() == [(3 * x + 1) % 23 for x in range(23)]


def test_named_table_values_are_the_scalar_builds():
    # sha256 of every named table's values, in NAMED order, grids 24, 30,
    # 100 and 250 by n = 50, 569 and 5,690, recorded from the build that
    # called each table's function once per residue in Python
    h = hashlib.sha256()
    for grid in (24, 30, 100, 250):
        for n in (50, 569, 5690):
            tables = build_named_tables(select_ring_params(grid, dim=2, n=n))
            for name in NAMED:
                h.update(getattr(tables, name).values.astype("<i8").tobytes())
    assert h.hexdigest() == ("7d9a3165365f9fbc18f14e1065fe522c"
                             "dc777471adf67f799cb1f607d283c3d6")
