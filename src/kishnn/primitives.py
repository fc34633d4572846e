"""Probabilistic building blocks of the classifier circuit.

The L1 distance sub-circuit, the doubly-blinded coin toss (success
probability depends on a ciphertext, outcome is a ciphertext) and the
coin-sum moment estimator built from it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

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
    min(f(x), m) / m.  With map_of a ring, the coin is on that ring's
    distance map t(x) (interp.dist_map) instead: probability
    min(f(t(x)), m) / m, at no extra cost, because the map is folded into
    the plaintext comparison point.
    """

    f: str  # "identity" | "square"
    m: int
    seeds: tuple  # prob_avg: one numerator seed per segment
    map_of: RingParams | None = None
    # hashed once: every coin batch looks its plan up by its spec
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.f not in ("identity", "square"):
            raise ParameterError(f"unknown coin function {self.f!r}")
        if self.m < 1:
            raise ParameterError("coin denominator m must be >= 1")
        if not isinstance(self.seeds, tuple) or not self.seeds:
            raise ParameterError("coin seeds must be a non-empty tuple")
        object.__setattr__(self, "_hash", hash(
            (self.f, self.m, self.seeds, self.map_of)))

    def __hash__(self):
        return self._hash

    def inverse_ceil_array(self, rs: np.ndarray) -> np.ndarray:
        """The smallest x with f(x) >= r for each entry r >= 1 of rs
        (int64), in exact integer arithmetic: ceil(f^-1(r)) without a map,
        and with one min{x : t(x) >= ceil(f^-1(r))}, or dist_bound + 1
        when no distance reaches it."""
        c = np.asarray(rs, dtype=np.int64)
        if self.f == "square":
            c = interp.isqrt(c - 1) + 1
        if self.map_of is not None:
            return interp.build_named_tables(self.map_of).map_inverse.take(
                c, mode="clip")
        return c


def compute_dists(enc_q: list, coords: he_sim.Plain,
                  params: RingParams) -> Cipher:
    """All n L1 distances |q - s_i| as one packed ciphertext, from the d
    single-slot query ciphers and the points' coordinates as one
    dimension-major he_sim.Plain of d*n slots, coordinate j of point i in
    slot j*n + i (LabeledDatabase.coords).

    The query is packed and each coordinate broadcast over its run of n
    slots, so one batch over all d*n slots does every coordinate: the abs
    table, |signed(v)|, at v = q_j - s_ij.  That is a polynomial in q_j
    with per-slot plaintext coefficients, so it reads the baby and giant
    powers of the packed query, paid once on its d slots
    (he_sim.share_powers), and each of the d*n slots pays only its
    products.  The query's record has the grid as its span, so the table
    is charged at degree coord_bound - 1, and a query off the grid is
    refused from its own coordinates alone, whatever the points: every
    distance of an on-grid query lies in [0, dist_bound].  The result is
    split into its d runs, which d - 1 cipher adds sum.
    """
    d = len(enc_q)
    if d != params.dim or coords.size % d:
        raise ParameterError(f"query has {d} coordinates, points "
                             f"{coords.size} coordinate slots, ring "
                             f"dimension {params.dim}")
    try:
        packed = he_sim.share_powers(he_sim.pack(enc_q, params),
                                     params.coord_bound)
    except ParameterError:
        raise ParameterError("query is off the grid: a coordinate lies "
                             "outside [0, coord_bound)") from None
    diff = he_sim.sub(he_sim.broadcast(packed, coords.size), coords,
                      params)  # q_j - s_ij, free
    total, *rest = he_sim.split(interp.eval_poly_ps(
        interp.build_named_tables(params).abs, diff, params), d)
    for term in rest:  # |q_j - s_ij|, summed over j
        total = he_sim.add(total, term, params)
    return total


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

    xs holds one equal segment per seed of spec.seeds, segment s draws
    its numerators from seed s alone, and the result holds one estimate
    per segment: one coin batch evaluates them all side by side.

    Each coin [x >= r'], r' = spec.inverse_ceil_array(r) >= 1 (every
    numerator is at least 1, and with a map t(0) = 0), is one sign test
    on (r' - 1) - x against the plan min(r' - 1, dist_bound), a plaintext
    shift of xs, so it reads the powers record xs carries, if any.  For
    r' in [1, dist_bound + 1] the argument lies in [-dist_bound,
    dist_bound], which keeps its sign in the ring (P > 2 * dist_bound),
    and is negative iff x >= r'.  A draw with r' > dist_bound + 1
    compares against dist_bound and gives 0, as no distance reaches it.

    The numerators never depend on the query, so a batch's plan, one
    he_sim.Plain of comparison points, is kept in the plan store, keyed
    by (spec, slots per segment, dist_bound), and a missing one is made
    and stored by plan_coins.  The store keeps the PLAN_STORE = 32 newest
    plans, enough for the n-sweep's ten sizes or one leave-one-out block;
    at 8 B per slot, that is at most 256 B per slot of the widest batch.
    """
    segments, size = len(spec.seeds), xs.size
    if size % segments:
        raise ParameterError("slots do not split into one segment per seed")
    key = (spec, size // segments, params.dist_bound)
    plan = _plans.get(key) or plan_coins([(spec,)], *key[1:])[key]
    tables = interp.build_named_tables(params)
    coins = interp.eval_poly_ps(tables.is_neg, he_sim.rsub(plan, xs, params),
                                params)
    return he_sim.slot_sum(coins, params, segments)


PLAN_STORE = 32
_plans = {}  # prob_avg's plans, he_sim.Plains, oldest first


def plan_coins(rows: list, n: int, dist_bound: int) -> dict:
    """Plan a block of queries' coins (_plan_coins), at most PLAN_STORE
    plans, into the plan store as its newest, first dropping as many of
    its oldest plans as they need room, and return them."""
    plans = _plan_coins(rows, n, dist_bound)
    for key in list(_plans)[:max(0, len(_plans) + len(plans) - PLAN_STORE)]:
        del _plans[key]
    _plans.update(plans)
    return plans


def _plan_coins(rows: list, n: int, dist_bound: int) -> dict:
    """prob_avg's plans for n-slot segments of a block of queries, by
    (spec, n, dist_bound).

    rows holds one tuple of specs per query, all with the same seeds
    (each seed one segment); the j-th specs of all rows must share f, m,
    map and seed count.  Each query's seeds get one strata draw, and each
    spec's numerators and comparison points are computed over the whole
    block at once: one read-only he_sim.Plain of 8 B per slot per plan.
    """
    pi, u = _strata(sum((specs[0].seeds for specs in rows), ()), n)
    plans = {}
    for j, spec in enumerate(rows[0]):
        # float rounding of m * u may leave its stratum; clamp r_i into it
        rs = np.clip((spec.m * u).astype(np.int64) + 1, spec.m * pi // n + 1,
                     -(-spec.m * (pi + 1) // n))
        points = np.minimum(spec.inverse_ceil_array(rs) - 1, dist_bound)
        for specs, row in zip(rows, points.reshape(len(rows), -1)):
            plans[specs[j], n, dist_bound] = he_sim.Plain._bounded(
                row, dist_bound)
    return plans


def _strata(seeds: tuple, n: int) -> tuple:
    """pi(i), and (pi(i) + u_i) / n, for slot i of each seed's segment."""
    u, pi = np.empty(len(seeds) * n), np.empty(len(seeds) * n, np.int64)
    for s, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        seg = u[s * n:(s + 1) * n]
        seg[:] = np.arange(n)
        rng.shuffle(seg)  # what rng.permutation(n) does, without its copy
        pi[s * n:(s + 1) * n] = seg
        seg += rng.random(n)
    u /= n
    return pi, u
