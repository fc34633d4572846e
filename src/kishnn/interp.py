"""Polynomial interpolation over Z_P and metered table evaluation.

Any integer function on [0, P) is a table of its P values, which is a
polynomial of degree at most P-1; its coefficients are interpolated only
by the tests.  On a ciphertext a table is evaluated by lookup in its values
and charged the exact gates and depth of a baby-step/giant-step
(Paterson-Stockmeyer) evaluation of that polynomial with power-of-two
giant steps (ps_cost), which keeps the non-scalar multiplication count
O(sqrt(P)) and puts the output ceil(log2 degree) levels above the input;
the literal evaluation is the oracle in tests/test_interp.py.  Tables
evaluated on plaintext shifts of one input share that input's powers
(he_sim.share_powers), so each one after the first pays only its
products, at the split cheapest for all the tables that read them, and
on an input known to lie in [0, span), such as the distances or the
query, at degree at most span - 1.  Includes the named tables the
classifier needs, among them the upper-half sign test that realizes
strict comparison.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import he_sim
from .he_sim import Cipher
from .ring import ParameterError, RingParams


def _require_exact(P: int) -> None:
    """Refuse a modulus whose power sums could overflow int64: a sum of P
    products of residues stays below P^3, so P^3 < 2^63 keeps it exact."""
    if P ** 3 >= 2 ** 63:
        raise ParameterError(f"modulus {P} too large to interpolate in int64")


def _degree(y: np.ndarray, P: int) -> int:
    """Degree of the polynomial through (i, y[i]) for all i in Z_P.

    Its coefficient of x^(P-1-e) is -sum_i y_i * i^e for e < P-1 (with
    0^0 = 1), so the degree is P-1-e for the first nonzero power sum, and
    0 if there is none: one dot product when the degree is P-1.
    """
    idx = np.arange(P, dtype=np.int64)
    power = np.ones(P, dtype=np.int64)
    for e in range(P - 1):
        if power @ y % P:
            return P - 1 - e
        power = power * idx % P
    return 0


@dataclass(frozen=True, eq=False)
class PolyTable:
    """One function over Z_P, P = values.size, held as its table of values.

    values[x] is the function's value at x for every x in [0, P),
    read-only, and the table's only data: degree, the interpolating
    polynomial's, is found once, at construction, from power sums of the
    values.  Tables compare by identity.
    """

    values: np.ndarray = field(repr=False)
    degree: int = field(init=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.int64)
        P = values.size
        _require_exact(P)
        if (values.ndim != 1 or not P or values.min() < 0
                or values.max() >= P):
            raise ParameterError("table values must be one row in [0, P)")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "degree", _degree(values, P))


def lagrange_table(f, params: RingParams) -> PolyTable:
    """The table of f over all of Z_P, each value reduced mod P.

    f is called once, on the array of all P residues, and returns the
    array of their values.  The modulus is checked before f is called;
    the interpolating polynomial stays implicit in the values (see
    PolyTable).
    """
    P = params.modulus
    _require_exact(P)
    return PolyTable(np.asarray(f(np.arange(P, dtype=np.int64)),
                                dtype=np.int64) % P)


def _schedule(degree: int, l: int) -> tuple:
    """(powers, products, leaves) of the schedule of leaf exponent l in
    [1, bit_length(degree)] at degree >= 1, in closed form (ps_cost)."""
    leaves = -(-(degree + 1) >> l)
    return (min((1 << l) - 1, degree) - 1 + degree.bit_length() - l,
            leaves - 1 - (leaves > 1 and degree % (1 << l) == 0), leaves)


@functools.lru_cache(maxsize=4096)
def ps_cost(degree: int, depth_in: int, tables: int = 1) -> tuple:
    """(split, power mults, products, cipher adds, output depth) of the
    baby-step/giant-step evaluation of a polynomial of this degree on an
    input of depth depth_in whose powers `tables` tables read, gates per
    slot, in closed form (_schedule).

    The schedule of leaf exponent l in [1, m], m = bit_length(degree)
    (Paterson-Stockmeyer with power-of-two giant steps): p = A + x^(2^j)
    * B, 2^j the largest power of two <= deg p, split again in A and B
    until a part is of degree < 2^l, a leaf: a free plaintext combination
    of the baby powers x^2 .. x^(2^l - 1), or x^2 .. x^degree when l = m.
    The giant powers x^(2^l) .. x^(2^(m-1)) come by squaring, each baby
    power x^j as x^(j//2) * x^ceil(j/2).  The L = ceil((degree+1)/2^l)
    leaves take L - 1 adds and L - 1 products, one fewer when 2^l divides
    the degree, since a leaf of one coefficient multiplies for free (a
    leaf exponent of 0 costs what 1 does).  Every l gives the output
    depth ceil(log2 degree) above the input's, and nothing it meters is
    deeper.  l is the one of fewest powers plus tables * products, what
    the record pays in ciphertext mults, then of fewest products.  The
    split (l, top), top the highest power read, names the powers, which
    depend only on the input and the split, so tables of one split on one
    input can share them (he_sim.SharedPowers).  The tests run the
    schedule literally and check it against this count.
    """
    if degree == 0:
        return None, 0, 0, 0, 0  # the constant, embedded for free
    m = degree.bit_length()
    costs = {l: _schedule(degree, l) for l in range(1, m + 1)}
    l = min(costs, key=lambda l: (costs[l][0] + tables * costs[l][1],
                                  costs[l][1]))
    powers, products, leaves = costs[l]
    top = degree if l == m else 1 << (m - 1)
    return ((l, top), powers, products, leaves - 1,
            depth_in + (degree - 1).bit_length())


def eval_poly_ps(table: PolyTable, x: Cipher, params: RingParams) -> Cipher:
    """Evaluate a table on a ciphertext.

    The result is the lookup table.values[x], and the gates and depth
    metered are exactly those of the baby-step/giant-step evaluation of
    the table's polynomial, from ps_cost: for a table alone on its input,
    at most 3*isqrt(degree) + 3 non-scalar gates per slot, and an output
    exactly ceil(log2 degree) levels above the input's (0 for a
    constant).

    When x carries the powers record of a cipher u (he_sim.share_powers),
    x is c + u, c - u or u - c for a plaintext vector c, u tiled or
    broadcast.  The table at x is then a polynomial in u of the same
    degree with per-slot plaintext coefficients, evaluated on the powers
    of u laid out the same way, for free; on a record with a span, u's
    slots lie in [0, span), so that polynomial is the one through span
    points and is charged at degree min(degree, span - 1).  The split is
    the one for the record's count of tables, so that the record's
    powers and all its tables' products together cost the fewest
    ciphertext mults.  The first table evaluated on the record claims it
    and is charged the powers on u's slots; every later one of the same
    split is charged only its products, and one of another split its
    full cost (he_sim.table_lookup).  The output depth is the same either
    way.
    """
    if table.values.size != params.modulus:
        raise ParameterError("table interpolated over a different ring")
    degree, record, tables = table.degree, x._powers, 1
    if record is not None:
        tables = record.tables
        if record.span:
            degree = min(degree, record.span - 1)
    return he_sim.table_lookup(x, table.values,
                               *ps_cost(degree, x.depth, tables))


def isqrt(v: np.ndarray) -> np.ndarray:
    """floor(sqrt(v)) of each entry of an int64 array v, exactly, for
    0 <= v <= 2^62."""
    r = np.sqrt(v).astype(np.int64)
    r -= r * r > v  # float sqrt is off by at most one
    return r + ((r + 1) * (r + 1) <= v)


def _nearest_isqrt(v: np.ndarray) -> np.ndarray:
    """round(sqrt(v)) of each entry of v, exactly, and 0 where v < 0."""
    v = np.maximum(v, 0)
    r = isqrt(v)
    return r + (v - r * r > r)


def dist_map(params: RingParams) -> np.ndarray:
    """The Gaussianizing distance map t(x) for x in [0, dist_bound], a
    read-only view of the dist_map table's values.

    t(x) = round(R * ln(1 + x) / ln(1 + B)) with B = dist_bound and
    R = min(B, n, isqrt(n * p)).  The threshold rule is applied to t(x),
    not x: in the plane, the number of points within r of a query grows
    like r^2, so raw distances have a lower tail far thinner than a
    Gaussian's and mu - 2 sigma falls below the nearest neighbor; the
    logarithm stretches that tail.  R keeps
    t(x) <= n and t(x)^2 <= n * p, so neither moment's coins saturate.
    The map is nondecreasing with t(0) = 0.
    """
    return build_named_tables(params).dist_map.values[:params.dist_bound + 1]


@dataclass(frozen=True, eq=False)
class NamedTables:
    """The interpolated polynomials used by the classifier circuit (abs,
    |signed(x)|, makes the distances), and the inverse of the distance
    map: map_inverse[c] = min{x : t(x) >= c} for c in [0, t(B) + 1],
    read-only, its last entry B + 1 also standing for every larger c
    (read it with take(..., mode="clip"))."""

    square_div_p: PolyTable
    low_sqrt: PolyTable
    low_step: PolyTable
    is_bit: PolyTable
    sqrt_times_p: PolyTable
    is_neg: PolyTable
    dist_map: PolyTable
    abs: PolyTable
    map_inverse: np.ndarray = field(repr=False)


@functools.lru_cache(maxsize=64)
def build_named_tables(params: RingParams) -> NamedTables:
    """The classifier's tables for a ring, and the only memo of a ring's
    constants: the distance map t (see dist_map) is computed here, once,
    and the tables and t's inverse are built from it.  Every ring, even
    one that differs from another only in n, owns its set; the memo holds
    64, far more than the rings a run uses (the n-sweep's ten).
    """
    P, p, B, n = (params.modulus, params.coord_bound, params.dist_bound,
                  params.n)
    scale = min(B, n, math.isqrt(n * p)) / math.log1p(B)
    tmap = np.array([math.floor(scale * math.log1p(x) + 0.5)
                     for x in range(B + 1)], dtype=np.int64)
    inverse = np.searchsorted(tmap, np.arange(tmap[-1] + 2))
    inverse.flags.writeable = False

    def signed(x):  # params.signed of every residue: upper half negative
        return np.where(x > P // 2, x - P, x)

    def table(f):
        return lagrange_table(f, params)

    def high(x):  # round(x^2 / p), the high base-p digit of x^2
        return (2 * x * x + p) // (2 * p)

    def low_root(x, shift=0):  # round(sqrt(shift - low)), low = x^2 - p*high
        return _nearest_isqrt(shift + p * high(x) - x * x)

    # A square root reads a negative argument as 0: a coin-noise variance
    # estimate below zero means a spread of 0, not a wrapped-around large
    # one.  sqrt(-low) and the step from it to sqrt(p - low) are functions
    # of mu* alone, so they read mu*'s powers beside its high digit.
    # sqrt(x * p) is 0 up to x = 1 too, where the is_bit branch takes
    # over.  Only [0, dist_bound] holds distances, so the map clamps the
    # rest monotonely (t(0) = 0).
    return NamedTables(
        square_div_p=table(high),
        low_sqrt=table(low_root),
        low_step=table(lambda x: low_root(x, p) - low_root(x)),
        is_bit=table(lambda x: x < 2),
        sqrt_times_p=table(lambda x: _nearest_isqrt(
            np.where(signed(x) > 1, signed(x) * p, 0))),
        is_neg=table(lambda x: x > P / 2),
        dist_map=table(lambda x: tmap[np.clip(signed(x), 0, B)]),
        abs=table(lambda x: np.abs(signed(x))),
        map_inverse=inverse,
    )


def is_smaller(x: Cipher, y, params: RingParams) -> Cipher:
    """Strict encrypted comparison bit: 1 iff value(x) < value(y).

    Realized as the upper-half test on x - y, so x - y must lie in
    (-P/2, P/2) to keep its sign in the ring: two values in
    [0, dist_bound] do, and so does a difference of class counts while
    both stay below P/2.
    """
    tables = build_named_tables(params)
    diff = he_sim.sub(x, y, params)
    return eval_poly_ps(tables.is_neg, diff, params)

