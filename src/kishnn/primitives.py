"""Probabilistic building blocks of the classifier circuit.

The L1 distance sub-circuit, the doubly-blinded coin toss (success
probability depends on a ciphertext, outcome is a ciphertext) and the
coin-sum moment estimator built from it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from . import he_sim, interp
from .he_sim import Cipher
from .ring import ParameterError, RingParams

def derive_seed(base: int, label: str) -> int:
    """Named sub-stream seed; all randomness flows from one base seed."""
    h = hashlib.blake2b(f"{base}:{label}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class CoinSpec:
    """Parameters of one batch of doubly-blinded coins.

    f names an increasing invertible integer function; m is the
    probability denominator, so a coin on x lands 1 with probability
    min(f(x), m) / m.  With a dist_map t (a nondecreasing table over
    [0, dist_bound]) the coin is on t(x) instead: probability
    min(f(t(x)), m) / m, at no extra cost, because the map is folded into
    the plaintext comparison point.
    """

    f: str  # "identity" | "square"
    m: int
    rng_seed: int | tuple  # prob_avg: a tuple gives one seed per segment
    dist_map: tuple = ()

    def __post_init__(self):
        if self.f not in ("identity", "square"):
            raise ParameterError(f"unknown coin function {self.f!r}")
        if self.m < 1:
            raise ParameterError("coin denominator m must be >= 1")

    def __hash__(self):
        # the map enters by its length only, as hashing every entry would
        # cost most of a plan lookup; equality still compares the whole
        # map, so plan keys stay exact
        return hash((self.f, self.m, self.rng_seed, len(self.dist_map)))

    def inverse_ceil_array(self, rs: np.ndarray) -> np.ndarray:
        """The smallest x with f(x) >= r for each entry r >= 1 of rs
        (int64), in exact integer arithmetic: ceil(f^-1(r)) without a map,
        and with one min{x : t(x) >= ceil(f^-1(r))}, or len(dist_map) when
        no distance reaches it."""
        c = np.asarray(rs, dtype=np.int64)
        if self.f == "square":
            v = c - 1
            s = np.sqrt(v.astype(np.float64)).astype(np.int64)
            s -= s * s > v  # float sqrt is off by at most one
            s += (s + 1) * (s + 1) <= v
            c = s + 1
        if self.dist_map:
            return _map_inverse(_MapKey(self.dist_map)).take(c, mode="clip")
        return c


class _MapKey:
    """A distance map as a cache key.  It hashes in O(1), by its length
    and last entry, but compares the whole map, so keys stay exact."""

    __slots__ = ("tmap",)

    def __init__(self, tmap: tuple):
        self.tmap = tmap

    def __hash__(self):
        return hash((len(self.tmap), self.tmap[-1]))

    def __eq__(self, other):
        return self.tmap is other.tmap or self.tmap == other.tmap


@functools.lru_cache(maxsize=8)
def _map_inverse(key: _MapKey) -> np.ndarray:
    """inv[c] = min{x : tmap[x] >= c} for c in [0, max + 1] of a
    nondecreasing map tmap = key.tmap; the last entry, len(tmap), also
    stands for every larger c (read with take(..., mode="clip")).
    interp.dist_map gives one tuple per map range (B, R), so this is one
    table per (B, R).
    """
    tmap = key.tmap
    inv = np.searchsorted(np.asarray(tmap), np.arange(tmap[-1] + 2),
                          side="left")
    inv.flags.writeable = False
    return inv


def compute_dists(enc_q: list, columns: tuple, params: RingParams) -> Cipher:
    """All n L1 distances |q - s_i| as one packed ciphertext, from the
    points' coordinates as one he_sim.Plain of n slots per dimension
    (LabeledDatabase.columns).

    Per coordinate: b = [q < s] via the sign test, then (1 - 2b)(q - s)
    recovers the absolute difference with a single non-scalar mult.
    """
    d = len(columns)
    if len(enc_q) != d:
        raise ParameterError(f"query has {len(enc_q)} coords, points have {d}")
    tables = interp.build_named_tables(params)
    total = None
    for qj, col in zip(enc_q, columns):
        qj = he_sim.broadcast(qj, col.size, params)
        diff = he_sim.sub(qj, col, params)  # q_j - s_ij, free
        b = interp.eval_poly_ps(tables.is_neg, diff, params)  # [q_j < s_ij]
        sign = he_sim.rsub(1, he_sim.mul(b, 2, params), params)  # 1 - 2b
        term = he_sim.mul(sign, diff, params)  # |q_j - s_ij|
        total = term if total is None else he_sim.add(total, term, params)
    return total


def _coin_points(rs: np.ndarray, spec: CoinSpec, dist_bound: int) -> tuple:
    """(r' capped at dist_bound, [r' <= dist_bound]) as he_sim.Plains of
    the shape of the numerators rs, r' = spec.inverse_ceil_array(rs) >= 0,
    so their bounds are dist_bound and 1."""
    rprime = spec.inverse_ceil_array(rs)
    return (he_sim.Plain._bounded(np.minimum(rprime, dist_bound), dist_bound),
            he_sim.Plain._bounded((rprime <= dist_bound).astype(np.int64), 1))


def _coins(xs: Cipher, clamped: he_sim.Plain, mask: he_sim.Plain,
           params: RingParams) -> Cipher:
    """One coin [x >= r'] per slot of xs, the complement of the strict
    comparison.  Draws whose r' exceeds the distance bound are 0 and get
    masked out in plaintext, which keeps every comparison sign-safe."""
    tables = interp.build_named_tables(params)
    arg = he_sim.sub(xs, clamped, params)
    neg = interp.eval_poly_ps(tables.is_neg, arg, params)  # [x < r']
    bit = he_sim.rsub(1, neg, params)  # [x >= r']
    return he_sim.mul(bit, mask, params)  # free plaintext mask


def prob_avg(xs: Cipher, spec: CoinSpec, params: RingParams) -> Cipher:
    """Estimate (1/m) * sum_i f(x_i) over the slots of xs as a sum of coins.

    The numerators are stratified: r_i = floor(m * (pi(i) + u_i) / n) + 1,
    with pi a random permutation of the n slots and u_i uniform in [0, 1).
    Each r_i is uniform on [1, m], so each coin keeps probability
    min(f(x_i), m) / m and the sum stays unbiased; but the n numerators
    cover [1, m] one stratum each, like sampling without replacement,
    which obeys the same tail bounds as independent draws (Hoeffding,
    1963) and has a smaller variance.  Two batches with the same seed
    share (pi, u), so their errors are correlated.  All numerators are
    drawn up front from the seeded generator, so the evaluated circuit
    family member is deterministic for a given seed.

    With a tuple of seeds in spec.rng_seed, xs holds one equal segment
    per seed, segment s draws its numerators from seed s alone, and the
    result holds one estimate per segment: one coin batch evaluates them
    all side by side.
    """
    seeds = spec.rng_seed
    if not isinstance(seeds, tuple):
        seeds = (seeds,)
    if xs.size % len(seeds):
        raise ParameterError("slots do not split into one segment per seed")
    key = (spec, seeds, xs.size // len(seeds), params.dist_bound)
    plan = _prepared.get(key) or _coin_plan(*key)
    return he_sim.slot_sum(_coins(xs, *plan, params), params, len(seeds))


_prepared = {}  # the plans planned() serves, keyed as _coin_plan's cache


@functools.lru_cache(maxsize=32)
def _coin_plan(spec: CoinSpec, seeds: tuple, n: int, dist_bound: int) -> tuple:
    """prob_avg's (clamped, mask) he_sim.Plains for n-slot segments, seeds
    being spec.rng_seed as a tuple: _plan_coins on one row.  The numerators
    are plaintext draws, so this never depends on the query.  At 16 B per
    slot, the cache holds at most 32 * 16 = 512 B per slot of the widest
    batch."""
    return _plan_coins([(seeds, (spec,))], n, dist_bound)[
        spec, seeds, n, dist_bound]


def _plan_coins(rows: list, n: int, dist_bound: int) -> dict:
    """prob_avg's plans for n-slot segments of a block of queries, by
    (spec, seeds, n, dist_bound).

    rows holds one (seeds, specs) pair per query, the seeds being its
    specs' rng_seed as a tuple; the j-th specs of all rows must share f,
    m and map.  Each query's seeds get one strata draw, and each spec's
    numerators, inverses, clamps and masks are computed over the whole
    block at once.
    """
    u = _strata(sum((seeds for seeds, _ in rows), ()), n)
    plans = {}
    for j, spec in enumerate(rows[0][1]):
        # float rounding of m * u may reach m; clamp to keep r_i in [1, m]
        rs = np.minimum((spec.m * u).astype(np.int64), spec.m - 1) + 1
        clamped, mask = _coin_points(rs, spec, dist_bound)
        for (seeds, specs), c, k in zip(
                rows, clamped.values.reshape(len(rows), -1),
                mask.values.reshape(len(rows), -1)):
            plans[specs[j], seeds, n, dist_bound] = (
                he_sim.Plain._bounded(c, dist_bound),
                he_sim.Plain._bounded(k, 1))
    return plans


@contextlib.contextmanager
def planned(rows: list, n: int, dist_bound: int):
    """Serve _plan_coins(rows, n, dist_bound) to prob_avg for the body of a
    with statement only: no plan outlives it."""
    plans = _plan_coins(rows, n, dist_bound)
    _prepared.update(plans)
    try:
        yield
    finally:
        for key in plans:
            _prepared.pop(key, None)


def _strata(seeds: tuple, n: int) -> np.ndarray:
    """(pi(i) + u_i) / n for slot i of each seed's n-slot segment."""
    u = np.empty(len(seeds) * n)
    for s, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        seg = u[s * n:(s + 1) * n]
        seg[:] = np.arange(n)
        rng.shuffle(seg)  # what rng.permutation(n) does, without its copy
        seg += rng.random(n)
    u /= n
    return u
