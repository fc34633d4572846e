"""Server-side k-ish nearest-neighbor circuit and the client role.

The server estimates the mean and spread of the encrypted distance
distribution with coin-sum estimators, derives a quantile threshold, and
counts class labels among the points falling under it -- all without
decrypting anything.  The rule runs on distances sent through a fixed
Gaussianizing map t (interp.dist_map), because the rule selects about k
points only when the distances are close to Gaussian.  The protocol is
repeated and the client takes a majority to damp the estimator noise;
the repetitions differ only in their coins, so the server evaluates them
as one circuit, one slot segment per repetition.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import he_sim, interp, primitives
from .he_sim import Cipher
from .primitives import CoinSpec, derive_seed
from .ring import ParameterError, RingParams


@dataclass(frozen=True)
class ProtocolParams:
    ring: RingParams
    k: int
    n: int
    z_k: int = field(init=False)  # round(Phi^-1(k/n)), plaintext
    repetitions: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise ParameterError("need 1 <= k < n")
        if self.repetitions % 2 != 1:
            raise ParameterError("repetition count must be odd")
        object.__setattr__(self, "z_k",
                           round(NormalDist().inv_cdf(self.k / self.n)))


make_protocol_params = ProtocolParams


@dataclass(frozen=True)
class LabeledDatabase:
    """Points and labels, each a private read-only int64 copy, so the
    plaintext operands built from them on first use cannot go stale.
    Coordinates must be non-negative and labels bits."""

    points: np.ndarray  # (n, d) grid coordinates
    labels: np.ndarray  # (n,) bits

    def __post_init__(self):
        if len(self.points) != len(self.labels):
            raise ParameterError("points and labels length mismatch")
        for name in ("points", "labels"):
            a = np.array(getattr(self, name), dtype=np.int64)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if (self.labels >> 1).any():
            raise ParameterError("labels must be 0 or 1")
        if (self.points < 0).any():
            raise ParameterError("coordinates must be non-negative")

    @property
    def n(self) -> int:
        return len(self.labels)

    # Built on first use, not at construction, which would add their
    # scans to every database's set-up: 32 B per point at d = 2.
    @functools.cached_property
    def columns(self) -> tuple:
        """compute_dists' operand: one he_sim.Plain per coordinate."""
        return tuple(he_sim.Plain(col) for col in self.points.T)

    @functools.cached_property
    def label_masks(self) -> tuple:
        """count_classes' operand: the he_sim.Plains (1 - labels, labels)."""
        return he_sim.Plain(1 - self.labels), he_sim.Plain(self.labels)

    def held_out(self, indices) -> list:
        """[self.without(i) for i in indices], from one gather per operand.

        Their points passed this database's checks, and their operands
        are this database's minus slot i, each keeping its parent's bound
        (a subset's magnitude is at most its parent's), so nothing is
        checked or scanned again.
        """
        for i in indices:
            if not 0 <= i < self.n:
                raise ParameterError(f"no point {i} in a database of {self.n}")
        keep = np.arange(self.n - 1)
        keep = keep + (keep >= np.reshape(indices, (-1, 1)))  # row r skips i_r

        def rows(a):
            a = a.take(keep, axis=0)
            a.flags.writeable = False
            return a

        def plains(ops):  # one tuple of he_sim.Plains per row
            ops = [(rows(p.values), p.bound) for p in ops]
            return [tuple(he_sim.Plain._bounded(v[r], b) for v, b in ops)
                    for r in range(len(keep))]

        out = []
        for points, labels, columns, masks in zip(
                rows(self.points), rows(self.labels), plains(self.columns),
                plains(self.label_masks)):
            db = LabeledDatabase.__new__(LabeledDatabase)
            # fields and cached operands, as the frozen class stores them
            vars(db).update(points=points, labels=labels, columns=columns,
                            label_masks=masks)
            out.append(db)
        return out

    def without(self, i: int) -> "LabeledDatabase":
        """The database minus point i, 0 <= i < n, in the same order: the
        one-row case of held_out."""
        return self.held_out((i,))[0]


def repetition_seeds(pp: ProtocolParams) -> tuple:
    """The seed of each repetition: repetition r is the one-repetition
    circuit of a ProtocolParams whose rng_seed is entry r."""
    return tuple(derive_seed(pp.rng_seed, f"rep-{r}")
                 for r in range(pp.repetitions))


def moment_coins(pp: ProtocolParams, seeds: tuple) -> tuple:
    """The CoinSpecs of the mu and mu_2 batches on the mapped distances
    t(x), one numerator seed per repetition seed in seeds.  Both batches
    share one numerator draw, so the errors of mu* and mu_2* largely
    cancel in mu_2* - mu*^2."""
    moments = tuple(derive_seed(s, "moments") for s in seeds)
    return (CoinSpec("identity", pp.n, moments, pp.ring),
            CoinSpec("square", pp.n * pp.ring.coord_bound, moments, pp.ring))


def estimate_mu(xs: Cipher, pp: ProtocolParams, coins=None) -> Cipher:
    """Coin-sum estimate of the mean of the mapped distances t(x) (see
    interp.dist_map), denominator n.

    xs holds one copy of the distances per repetition seed of the coins,
    moment_coins' first spec (default: the one repetition seeded by
    pp.rng_seed), and the estimate holds one slot per repetition.
    """
    coins = coins or moment_coins(pp, (pp.rng_seed,))[0]
    return primitives.prob_avg(xs, coins, pp.ring)


def estimate_mu2_digits(xs: Cipher, pp: ProtocolParams, coins=None) -> Cipher:
    """High base-p digit of the second moment mu_2 = mean(t(x)^2).

    One coin batch with denominator n*p gives the high digit, and
    p * high is unbiased for mu_2 as long as no coin saturates, i.e.
    while every squared mapped distance is at most n*p; the map
    guarantees this.  The high digit alone counts all of mu_2, so mu_2
    has no low digit.  xs and coins, moment_coins' second spec, are laid
    out as for estimate_mu.
    """
    coins = coins or moment_coins(pp, (pp.rng_seed,))[1]
    return primitives.prob_avg(xs, coins, pp.ring)


def square_mu_digits(mu_star: Cipher, pp: ProtocolParams):
    """Digits (low, high) of the squared mean: mu*^2 = p * high + low.

    high = round(mu*^2 / p) comes from a table; low = mu*^2 - p * high is
    the signed remainder, |low| <= p/2, from one non-scalar mult and a free
    plaintext-scalar one.
    """
    ring = pp.ring
    tables = interp.build_named_tables(ring)
    square = he_sim.mul(mu_star, mu_star, ring)
    high = interp.eval_poly_ps(tables.square_div_p, mu_star, ring)
    low = he_sim.sub(square, he_sim.mul(high, ring.coord_bound, ring), ring)
    return low, high


def _sqrt_of_digits(dh: Cipher, dl: Cipher, pp: ProtocolParams) -> Cipher:
    """sqrt(max(dh * p + dl, 0)) by a three-way branch on dh: sqrt(dl)
    when dh = 0, sqrt(p + dl) when dh = 1, sqrt(dh * p) otherwise.

    dl may be signed.  Every square-root table reads its argument as
    signed and returns 0 below zero, so a negative difference (a variance
    estimate that coin noise pushed below zero) gives 0.  Selector bits
    come from the is-zero table and every branch is combined by
    multiply-and-add, so nothing is revealed.
    """
    ring = pp.ring
    tables = interp.build_named_tables(ring)
    b0 = interp.eval_poly_ps(tables.is_zero, dh, ring)
    b1 = interp.eval_poly_ps(tables.is_zero, he_sim.sub(dh, 1, ring), ring)
    b2 = he_sim.rsub(1, he_sim.add(b0, b1, ring), ring)
    v0 = interp.eval_poly_ps(tables.sqrt, dl, ring)
    v1 = interp.eval_poly_ps(tables.sqrt_plus_p, dl, ring)
    v2 = interp.eval_poly_ps(tables.sqrt_times_p, dh, ring)
    acc = he_sim.mul(b0, v0, ring)
    acc = he_sim.add(acc, he_sim.mul(b1, v1, ring), ring)
    acc = he_sim.add(acc, he_sim.mul(b2, v2, ring), ring)
    return acc


def estimate_sigma(mu2_high: Cipher, musq_low: Cipher, musq_high: Cipher,
                   pp: ProtocolParams) -> Cipher:
    """Spread sqrt(max(mu_2 - mu^2, 0)) of the mapped distances, from the
    high digit of mu_2 and the digit couple of mu*^2.  mu_2 has no low
    digit, so the low difference is -low(mu*^2), which is free."""
    ring = pp.ring
    return _sqrt_of_digits(he_sim.sub(mu2_high, musq_high, ring),
                           he_sim.rsub(0, musq_low, ring), pp)


def threshold(mu_star: Cipher, sigma_star: Cipher, pp: ProtocolParams) -> Cipher:
    """T* = mu* + z_k * sigma*; z_k is plaintext, so this is free."""
    return he_sim.add(mu_star, he_sim.mul(sigma_star, pp.z_k, pp.ring),
                      pp.ring)


def count_classes(xs: Cipher, t_star: Cipher, masks: tuple,
                  pp: ProtocolParams):
    """Per-class counts of points whose mapped distance t(x) lies strictly
    below the threshold; masks is the plaintext pair (1 - labels, labels)
    as LabeledDatabase.label_masks gives it.

    The distances first go through the dist_map table, so they are
    compared in the units the threshold was estimated in.  t_star holds
    one threshold per repetition: the n mapped distances are laid out
    once per repetition and compared against that repetition's threshold
    in one batched sign test, whose bits are reused for both sums.  The
    counts hold one slot per repetition.
    """
    ring = pp.ring
    tables = interp.build_named_tables(ring)
    reps = t_star.size
    xs = interp.eval_poly_ps(tables.dist_map, xs, ring)
    xs = he_sim.pack([xs] * reps, ring)
    tb = he_sim.broadcast(t_star, xs.size, ring)
    bits = interp.eval_poly_ps(tables.is_neg, he_sim.sub(xs, tb, ring), ring)
    c0, c1 = (he_sim.slot_sum(he_sim.mul(bits, mask.tile(reps), ring), ring,
                              reps) for mask in masks)
    return c0, c1


def _threshold_pipeline(enc_q: list, db: LabeledDatabase, pp: ProtocolParams,
                        seeds: tuple):
    """Distances (n slots) and thresholds (one slot per repetition seed).
    The distances are computed once and laid out once per repetition for
    the moment coins."""
    xs = primitives.compute_dists(enc_q, db.columns, pp.ring)
    tiled = he_sim.pack([xs] * len(seeds), pp.ring)
    mu_coins, mu2_coins = moment_coins(pp, seeds)
    mu_star = estimate_mu(tiled, pp, mu_coins)
    mu2_high = estimate_mu2_digits(tiled, pp, mu2_coins)
    musq_low, musq_high = square_mu_digits(mu_star, pp)
    sigma_star = estimate_sigma(mu2_high, musq_low, musq_high, pp)
    t_star = threshold(mu_star, sigma_star, pp)
    return xs, t_star


def server_classify(enc_q: list, db: LabeledDatabase,
                    pp: ProtocolParams) -> Cipher:
    """The full server circuit; returns one encrypted class bit per
    repetition, packed one per slot.

    All pp.repetitions repetitions run as one circuit.  The distances and
    their map t(x) are computed once; repetition r's coins come from
    repetition_seeds(pp)[r], and its stages run on slot segment r, so its
    bit is the one-repetition circuit's bit for that seed.  The threshold
    is estimated on the mapped distances t(x) (see interp.dist_map), and a
    point counts when t(x) < T*.  Ties (C0 == C1, including the
    zero-neighbor corner) resolve to class 0 because the final comparison
    is strict.
    """
    if len(enc_q) != pp.ring.dim:
        raise ParameterError("query dimension does not match ring params")
    if db.n != pp.n:
        raise ParameterError("database size does not match protocol params")
    if pp.ring.n != pp.n:
        # the distance map's range and the coin denominators would then
        # disagree, and the moment coins could saturate without an error
        raise ParameterError("ring was selected for a different database size")
    # a column's bound is its largest coordinate (a held-out one's parent's)
    if any(col.bound >= pp.ring.coord_bound for col in db.columns):
        raise ParameterError("database points lie off the ring's grid")
    xs, t_star = _threshold_pipeline(enc_q, db, pp, repetition_seeds(pp))
    c0, c1 = count_classes(xs, t_star, db.label_masks, pp)
    return interp.is_smaller(c0, c1, pp.ring)


def encrypt_query(pk, query, ring: RingParams) -> list:
    """The client's query, one fresh cipher per coordinate; a point off the
    grid is refused, not classified as some other point."""
    coords = [int(c) for c in query]
    if len(coords) != ring.dim or not all(0 <= c < ring.coord_bound
                                          for c in coords):
        raise ParameterError(f"query {coords} is not a grid point: need "
                             f"{ring.dim} coordinates in "
                             f"[0, {ring.coord_bound})")
    return [he_sim.encrypt(pk, c) for c in coords]


def classify_with_majority(query, db: LabeledDatabase,
                           pp: ProtocolParams) -> int:
    """Client-side wrapper: run the protocol, majority-vote its bits."""
    keys = he_sim.keygen(pp.ring, derive_seed(pp.rng_seed, "keys"))
    bits = server_classify(encrypt_query(keys.pk, query, pp.ring), db, pp)
    votes = sum(he_sim.decrypt(keys.sk, b) for b in he_sim.unpack(bits))
    return 1 if 2 * votes > pp.repetitions else 0

