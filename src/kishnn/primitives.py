"""Probabilistic building blocks of the classifier circuit.

The L1 distance sub-circuit, the doubly-blinded coin toss (success
probability depends on a ciphertext, outcome is a ciphertext) and the
coin-sum moment estimator built from it.
"""

from __future__ import annotations

import bisect
import hashlib
import math
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
    rng_seed: int
    dist_map: tuple = ()

    def __post_init__(self):
        if self.f not in ("identity", "square"):
            raise ParameterError(f"unknown coin function {self.f!r}")
        if self.m < 1:
            raise ParameterError("coin denominator m must be >= 1")

    def apply(self, x: int) -> int:
        if self.dist_map:
            x = self.dist_map[x]
        return x * x if self.f == "square" else x

    def inverse_ceil(self, r: int) -> int:
        """Smallest x with apply(x) >= r, in exact integer arithmetic.

        r >= 1.  Without a map this is ceil(f^-1(r)); with one it is
        min{x : t(x) >= ceil(f^-1(r))}, or len(dist_map) when no distance
        reaches r.
        """
        c = math.isqrt(r - 1) + 1 if self.f == "square" else r
        if self.dist_map:
            return bisect.bisect_left(self.dist_map, c)
        return c

    def inverse_ceil_array(self, rs: np.ndarray) -> np.ndarray:
        """inverse_ceil of every entry of rs (int64, each >= 1)."""
        c = np.asarray(rs, dtype=np.int64)
        if self.f == "square":
            v = c - 1
            s = np.sqrt(v.astype(np.float64)).astype(np.int64)
            s -= s * s > v  # float sqrt is off by at most one
            s += (s + 1) * (s + 1) <= v
            c = s + 1
        if self.dist_map:
            return np.searchsorted(np.asarray(self.dist_map), c, side="left")
        return c


def compute_dists(enc_q: list, points: np.ndarray, params: RingParams) -> Cipher:
    """All n L1 distances |q - s_i| as one packed ciphertext.

    Per coordinate: b = [q < s] via the sign test, then (1 - 2b)(q - s)
    recovers the absolute difference with a single non-scalar mult.
    """
    points = np.asarray(points, dtype=np.int64)
    n, d = points.shape
    if len(enc_q) != d:
        raise ParameterError(f"query has {len(enc_q)} coords, points have {d}")
    tables = interp.build_named_tables(params)
    total = None
    for j in range(d):
        qj = he_sim.broadcast(enc_q[j], n, params)
        diff = he_sim.sub(qj, points[:, j], params)  # q_j - s_ij, free
        b = interp.eval_poly_ps(tables.is_neg, diff, params)  # [q_j < s_ij]
        sign = he_sim.rsub(1, he_sim.mul(b, 2, params), params)  # 1 - 2b
        term = he_sim.mul(sign, diff, params)  # |q_j - s_ij|
        total = term if total is None else he_sim.add(total, term, params)
    return total


def compute_dist_l1(enc_q: list, point, params: RingParams) -> Cipher:
    """L1 distance between an encrypted query and one plaintext point."""
    pts = np.asarray(point, dtype=np.int64).reshape(1, -1)
    return compute_dists(enc_q, pts, params)


def _coin_batch(xs: Cipher, rs: np.ndarray, spec: CoinSpec,
                params: RingParams) -> Cipher:
    """One coin per slot of xs, with pre-drawn numerators rs in [1, m].

    The coin is [r <= f(x)] = [x >= ceil(f^-1(r))], realized as the
    complement of the strict comparison.  Draws whose inverse exceeds the
    distance bound are deterministically 0 and get masked out in
    plaintext, which keeps every comparison argument sign-safe.
    """
    tables = interp.build_named_tables(params)
    rprime = spec.inverse_ceil_array(rs)
    mask = (rprime <= params.dist_bound).astype(np.int64)
    clamped = np.minimum(rprime, params.dist_bound)
    arg = he_sim.sub(xs, clamped, params)
    neg = interp.eval_poly_ps(tables.is_neg, arg, params)  # [x < r']
    bit = he_sim.rsub(1, neg, params)  # [x >= r']
    return he_sim.mul(bit, mask, params)  # free plaintext mask


def coin_toss(x: Cipher, spec: CoinSpec, params: RingParams) -> Cipher:
    """One doubly-blinded coin: Pr[bit = 1] = min(f(x), m) / m."""
    rng = np.random.default_rng(spec.rng_seed)
    r = int(rng.integers(1, spec.m + 1))
    return _coin_batch(x, np.array([r]), spec, params)


def prob_avg(xs, spec: CoinSpec, params: RingParams) -> Cipher:
    """Estimate (1/m) * sum_i f(x_i) as a sum of coins.

    xs is either a packed ciphertext or a list of single-slot ciphers.
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
    """
    if not isinstance(xs, Cipher):
        xs = he_sim.pack(list(xs), params)
    n = xs.size
    rng = np.random.default_rng(spec.rng_seed)
    u = (rng.permutation(n) + rng.random(n)) / n
    # float rounding of m * u may reach m; clamp to keep r_i in [1, m]
    rs = np.minimum((spec.m * u).astype(np.int64), spec.m - 1) + 1
    bits = _coin_batch(xs, rs, spec, params)
    return he_sim.slot_sum(bits, params)
