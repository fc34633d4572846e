"""Polynomial interpolation over Z_P and metered table evaluation.

Any integer function on [0, P) becomes a degree P-1 coefficient table.
On a ciphertext a table is evaluated by lookup in its values over all of
Z_P and charged the exact gates and depth of a baby-step/giant-step
(Paterson-Stockmeyer) evaluation, which keeps the non-scalar
multiplication count O(sqrt(P)) and the depth O(log P); the literal
evaluation is kept as the reference.  Includes the named tables the
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


@dataclass(frozen=True)
class PolyTable:
    """Dense coefficient table of one interpolated function over Z_modulus.

    values[x] is the polynomial's value at x for every x in [0, modulus),
    read-only; a table built from coefficients alone gets them from one
    vectorised Horner pass.  The degree is found once, at construction.
    """

    modulus: int
    coeffs: tuple
    name: str
    values: np.ndarray = field(default=None, compare=False, repr=False)
    _degree: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        nonzero = [i for i, c in enumerate(self.coeffs) if c != 0]
        object.__setattr__(self, "_degree", nonzero[-1] if nonzero else 0)
        if self.values is None:
            x = np.arange(self.modulus, dtype=np.int64)
            values = np.zeros(self.modulus, dtype=np.int64)
            for c in reversed(self.coeffs):
                values = (values * x + c) % self.modulus
        else:
            values = np.array(self.values, dtype=np.int64)
            if values.shape != (self.modulus,):
                raise ParameterError("table values must cover Z_modulus")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def eval_plain(self, x: int) -> int:
        """Direct plaintext evaluation (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.modulus
        return acc

    def degree(self) -> int:
        return self._degree


@functools.lru_cache(maxsize=2)
def _power_matrix(P: int) -> np.ndarray:
    """V[e, i] = i^e mod P (with 0^0 = 1), read-only.

    A row of V times a vector of residues sums P products below P^2, so
    P^3 < 2^63 keeps V @ y exact in int64.
    """
    if P ** 3 >= 2 ** 63:
        raise ParameterError(f"modulus {P} too large to interpolate in int64")
    idx = np.arange(P, dtype=np.int64)
    V = np.empty((P, P), dtype=np.int64)
    V[0] = 1
    for e in range(1, P):
        V[e] = V[e - 1] * idx % P
    V.flags.writeable = False
    return V


def lagrange_table(f, params: RingParams, name: str = "f") -> PolyTable:
    """Interpolate f over all of Z_P.

    With the full residue domain the master polynomial is x^P - x and all
    interpolation denominators reduce to -1, so the explicit formula
    collapses to alpha_j = -sum_i f(i) * i^(P-1-j) for j >= 1 and
    alpha_0 = f(0).
    """
    P = params.modulus
    y = np.array([int(f(i)) % P for i in range(P)], dtype=np.int64)
    w = _power_matrix(P) @ y % P  # w[e] = sum_i y_i * i^e
    coeffs = np.empty(P, dtype=np.int64)
    coeffs[0] = y[0]
    coeffs[1:] = -w[P - 2::-1] % P  # coeffs[j] = -w[P - 1 - j]
    return PolyTable(modulus=P, coeffs=tuple(int(c) for c in coeffs),
                     name=name, values=y)


def _balanced_powers(x: Cipher, top: int, ring: RingParams) -> dict:
    """x^1 .. x^top with a product tree, depth(x^j) = depth(x)+ceil(log2 j)."""
    xp = {1: x}
    for j in range(2, top + 1):
        xp[j] = he_sim.mul(xp[j // 2], xp[(j + 1) // 2], ring)
    return xp


def _ps_split(deg: int) -> tuple:
    """Block size s ~ sqrt(deg+1) and block count t of the schedule."""
    s = math.isqrt(deg)
    if s * s < deg + 1:
        s += 1
    return s, -(-(deg + 1) // s)


def _power_depths(depth: int, top: int) -> list:
    """Depths of x^0 (unused) .. x^top from _balanced_powers on an input
    of the given depth."""
    d = [depth, depth]
    for j in range(2, top + 1):
        d.append(max(d[j // 2], d[(j + 1) // 2]) + 1)
    return d


@functools.lru_cache(maxsize=4096)
def ps_cost(degree: int, depth_in: int) -> tuple:
    """(mults per slot, cipher adds per slot, output depth) that
    eval_poly_ps_reference meters on a table of this degree and an input
    of depth depth_in, replayed from the schedule's integer recurrences.

    Every intermediate of the schedule is at most as deep as its output,
    so the output depth is also the deepest level it meters.
    """
    if degree == 0:
        return 0, 0, 0  # the constant, embedded for free
    s, t = _ps_split(degree)
    kmax = min(s, degree)
    baby = _power_depths(depth_in, kmax)
    block = max(baby[1:])  # linear_combine tags every block this deep
    if t == 1:
        return kmax - 1, 0, block
    giant = _power_depths(baby[s], t - 1)
    depth = max(max(block, giant[i]) + 1 for i in range(1, t))
    # baby powers x^2..x^kmax, giant powers y^2..y^(t-1), t-1 block products
    return (kmax - 1) + (t - 2) + (t - 1), t - 1, depth


def eval_poly_ps(table: PolyTable, x: Cipher, params: RingParams) -> Cipher:
    """Evaluate an interpolated table on a ciphertext.

    The result is the lookup table.values[x], and the gates and depth
    metered are exactly those of the baby-step/giant-step evaluation
    (eval_poly_ps_reference) on the same input, from ps_cost: non-scalar
    gates <= 3*ceil(sqrt(P)) and depth <= log2(P)+4 above the input's.
    """
    if table.modulus != params.modulus:
        raise ParameterError("table interpolated over a different ring")
    mults, adds, depth = ps_cost(table.degree(), x.depth)
    return he_sim.table_lookup(x, table.values, mults, adds, depth)


def eval_poly_ps_reference(table: PolyTable, x: Cipher,
                           params: RingParams) -> Cipher:
    """Literal baby-step/giant-step evaluation of an interpolated table,
    the reference eval_poly_ps is checked against.

    Block size ~ sqrt(degree+1); block contents use only plaintext-scalar
    multiplications, blocks are combined through precomputed giant powers.
    """
    if table.modulus != params.modulus:
        raise ParameterError("table interpolated over a different ring")
    deg = table.degree()
    if deg == 0:
        return he_sim.embed_like(x, np.full(x.size, table.coeffs[0],
                                            dtype=np.int64))
    s, t = _ps_split(deg)
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


def _nearest_isqrt(v: int) -> int:
    r = math.isqrt(v)
    return r + 1 if v - r * r > r else r


def _round_div(a: int, b: int) -> int:
    return (2 * a + b) // (2 * b)


def _map_range(params: RingParams) -> int:
    """R = min(B, n, isqrt(n * p)), the largest value of the distance map
    and the only way the named tables depend on n."""
    n, p = params.n, params.coord_bound
    return min(params.dist_bound, n, math.isqrt(n * p))


@functools.lru_cache(maxsize=64)
def dist_map(params: RingParams) -> tuple:
    """The Gaussianizing distance map t(x) for x in [0, dist_bound].

    t(x) = round(R * ln(1 + x) / ln(1 + B)) with B = dist_bound and
    R = min(B, n, isqrt(n * p)).  The threshold rule is applied to t(x),
    not x: in the plane, the number of points within r of a query grows
    like r^2, so raw distances have a lower tail far thinner than a
    Gaussian's and mu - 2 sigma falls below the nearest neighbor; the
    logarithm stretches that tail.  R keeps
    t(x) <= n and t(x)^2 <= n * p, so neither moment's coins saturate.
    The map is nondecreasing with t(0) = 0.  Memoised per ring; rings
    with the same (B, R) share one tuple.
    """
    return _dist_map(params.dist_bound, _map_range(params))


@functools.lru_cache(maxsize=8)
def _dist_map(B: int, R: int) -> tuple:
    scale = R / math.log1p(B)
    return tuple(int(math.floor(scale * math.log1p(x) + 0.5))
                 for x in range(B + 1))


@dataclass(frozen=True)
class NamedTables:
    """The interpolated polynomials used by the classifier circuit."""

    sqrt: PolyTable
    square_div_p: PolyTable
    is_zero: PolyTable
    sqrt_plus_p: PolyTable
    sqrt_times_p: PolyTable
    is_neg: PolyTable
    dist_map: PolyTable


class _TablesKey:
    """What the named tables depend on -- modulus, coord_bound, dist_bound
    and the distance map's range R -- carrying the ring to build them from.
    n enters only through R, so databases of different sizes share tables.
    """

    __slots__ = ("params", "key")

    def __init__(self, params: RingParams):
        self.params = params
        self.key = (params.modulus, params.coord_bound, params.dist_bound,
                    _map_range(params))

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key


@functools.lru_cache(maxsize=64)
def build_named_tables(params: RingParams) -> NamedTables:
    """The classifier's tables for a ring, built once per _TablesKey.

    Memoised per ring in front of that cache, so repeated lookups skip the
    key; rings that differ only in n still share one set of tables.
    """
    return _build_named_tables(_TablesKey(params))


@functools.lru_cache(maxsize=8)
def _build_named_tables(key: _TablesKey) -> NamedTables:
    params = key.params
    P = params.modulus
    p = params.coord_bound
    tmap = dist_map(params)

    # The square-root tables read upper-half arguments as negative numbers
    # and clamp them to 0: a coin-noise variance estimate below zero means
    # a spread of 0, not a wrapped-around large one.
    def sqrt_f(x):
        v = params.signed(x)
        return _nearest_isqrt(v) if v >= 0 else 0

    def square_div_p_f(x):
        return _round_div(x * x, p)

    def is_zero_f(x):
        return 1 if x == 0 else 0

    def sqrt_plus_p_f(x):
        # Upper-half arguments are negative representatives; the shifted
        # square root must see p + signed(x), else the digit-couple branch
        # for a negative low difference breaks.
        v = p + params.signed(x)
        return _nearest_isqrt(v) if v >= 0 else 0

    def sqrt_times_p_f(x):
        v = params.signed(x)
        return _nearest_isqrt(v * p) if v >= 0 else 0

    def is_neg_f(x):
        return 1 if x > P / 2 else 0

    def dist_map_f(x):
        # Only [0, dist_bound] holds distances; clamp the rest monotonely.
        v = params.signed(x)
        return tmap[min(v, params.dist_bound)] if v >= 0 else 0

    return NamedTables(
        sqrt=lagrange_table(sqrt_f, params, "sqrt"),
        square_div_p=lagrange_table(square_div_p_f, params, "square_div_p"),
        is_zero=lagrange_table(is_zero_f, params, "is_zero"),
        sqrt_plus_p=lagrange_table(sqrt_plus_p_f, params, "sqrt_plus_p"),
        sqrt_times_p=lagrange_table(sqrt_times_p_f, params, "sqrt_times_p"),
        is_neg=lagrange_table(is_neg_f, params, "is_neg"),
        dist_map=lagrange_table(dist_map_f, params, "dist_map"),
    )


def is_smaller(x: Cipher, y, params: RingParams) -> Cipher:
    """Strict encrypted comparison bit: 1 iff value(x) < value(y).

    Realized as the upper-half test on x - y; both values must lie in
    [0, dist_bound] so the difference keeps its sign in the ring.
    """
    tables = build_named_tables(params)
    diff = he_sim.sub(x, y, params)
    return eval_poly_ps(tables.is_neg, diff, params)

