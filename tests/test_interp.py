import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kishnn import he_sim, interp
from kishnn.interp import (PolyTable, build_named_tables, eval_poly_ps,
                           eval_poly_ps_reference, is_smaller, lagrange_table,
                           load_table, save_table)
from kishnn.ring import ParameterError, select_ring_params


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


@pytest.fixture(scope="module")
def ring():
    return select_ring_params(6, dim=2, n=20)  # modulus 23


@pytest.fixture(scope="module")
def keys(ring):
    return he_sim.keygen(ring, seed=11)


def test_lagrange_matches_vandermonde_oracle(ring):
    rng = np.random.default_rng(0)
    values = rng.integers(0, 23, size=23)
    table = lagrange_table(lambda x: int(values[x]), ring, "rand")
    assert table.coeffs == vandermonde_interpolate(values, 23)


def test_lagrange_reproduces_function_everywhere(ring):
    table = lagrange_table(lambda x: (x * x + 3) % 23, ring, "sq3")
    assert all(table.eval_plain(x) == (x * x + 3) % 23 for x in range(23))


def test_eval_poly_ps_agrees_with_plain_everywhere(ring, keys):
    rng = np.random.default_rng(1)
    table = lagrange_table(lambda x: int(rng.integers(0, 23)), ring, "r")
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
    table = PolyTable(23, tuple(int(v) for v in rng.integers(0, 23, 23)), "h")
    c = he_sim.encrypt(keys.pk, x)
    assert he_sim.decrypt(keys.sk, eval_poly_ps(table, c, ring)) \
        == table.eval_plain(x)


def test_table_values_are_the_polynomial_everywhere(ring):
    rng = np.random.default_rng(3)
    coeffs = tuple(int(v) for v in rng.integers(0, 23, 23))
    from_coeffs = PolyTable(23, coeffs, "c")
    interpolated = lagrange_table(lambda x: (5 * x + 1) % 23, ring, "lin")
    for x in range(23):
        assert from_coeffs.values[x] == from_coeffs.eval_plain(x)
        assert interpolated.values[x] == interpolated.eval_plain(x)
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
        table = PolyTable(P, tuple(int(c) for c in coeffs), "random")
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
    table = PolyTable(P, coeffs, "low")
    for depth in (0, 1, 5, 12):
        lookup, reference = _both_paths(table, [0, 1, P - 1], depth, ring)
        assert lookup == reference


def test_save_load_round_trip(ring, tmp_path):
    table = build_named_tables(ring).sqrt
    path = tmp_path / "sqrt.tbl"
    save_table(table, path)
    assert load_table(path, "sqrt") == table


def test_load_rejects_bad_magic(ring, tmp_path):
    table = build_named_tables(ring).sqrt
    path = tmp_path / "t.tbl"
    save_table(table, path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ParameterError, match="magic"):
        load_table(path, "sqrt")


def test_load_rejects_wrong_name(ring, tmp_path):
    path = tmp_path / "t.tbl"
    save_table(build_named_tables(ring).sqrt, path)
    with pytest.raises(ParameterError, match="different function"):
        load_table(path, "is_neg")


def test_load_rejects_truncation(ring, tmp_path):
    path = tmp_path / "t.tbl"
    save_table(build_named_tables(ring).sqrt, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ParameterError, match="truncated"):
        load_table(path, "sqrt")
