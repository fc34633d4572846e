"""Server-side k-ish nearest-neighbor circuit and the client role.

The server estimates the mean and spread of the encrypted distance
distribution with coin-sum estimators, derives a quantile threshold, and
counts class labels among the points falling under it -- all without
decrypting anything.  The rule runs on distances sent through a fixed
Gaussianizing map t (interp.dist_map), because the rule selects about k
points only when the distances are close to Gaussian.  The client wrapper
repeats the protocol and takes a majority to damp the estimator noise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import he_sim, interp, primitives
from .he_sim import Cipher
from .primitives import CoinSpec, derive_seed
from .ring import ParameterError, RingParams, phi_inverse


@dataclass(frozen=True)
class ProtocolParams:
    ring: RingParams
    k: int
    n: int
    z_k: int  # round(Phi^-1(k/n)), plaintext
    repetitions: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise ParameterError("need 1 <= k < n")
        if self.repetitions % 2 != 1:
            raise ParameterError("repetition count must be odd")


def make_protocol_params(ring: RingParams, k: int, n: int,
                         repetitions: int = 5, rng_seed: int = 0) -> ProtocolParams:
    z = int(round(phi_inverse(k / n)))
    return ProtocolParams(ring=ring, k=k, n=n, z_k=z,
                          repetitions=repetitions, rng_seed=rng_seed)


@dataclass(frozen=True)
class LabeledDatabase:
    points: np.ndarray  # (n, d) grid coordinates
    labels: np.ndarray  # (n,) bits

    def __post_init__(self):
        if len(self.points) != len(self.labels):
            raise ParameterError("points and labels length mismatch")

    @property
    def n(self) -> int:
        return len(self.labels)

    def without(self, i: int) -> "LabeledDatabase":
        keep = np.arange(self.n) != i
        return LabeledDatabase(self.points[keep], self.labels[keep])


@dataclass(frozen=True)
class SigmaDigits:
    """Digit-couple ciphertexts feeding the spread estimate."""

    mu2_low: Cipher
    mu2_high: Cipher
    musq_low: Cipher
    musq_high: Cipher


def _moment_coins(f: str, m: int, pp: ProtocolParams,
                  mapped: bool) -> CoinSpec:
    """Coins of one moment batch.  Every batch shares one numerator draw,
    so the errors of mu* and mu_2* largely cancel in mu_2* - mu*^2."""
    return CoinSpec(f, m, derive_seed(pp.rng_seed, "moments"),
                    interp.dist_map(pp.ring) if mapped else ())


def estimate_mu(xs: Cipher, pp: ProtocolParams,
                mapped: bool = False) -> Cipher:
    """Coin-sum estimate of the mean distance (denominator n).

    With mapped, the mean of t(x) (see interp.dist_map), at the same cost.
    """
    return primitives.prob_avg(
        xs, _moment_coins("identity", pp.n, pp, mapped), pp.ring)


def estimate_mu2_digits(xs: Cipher, pp: ProtocolParams,
                        mapped: bool = False):
    """Digit couple (low, high) of the second moment mu_2 of the distances.

    With mapped, of mu_2 = mean(t(x)^2), at the same cost.  One coin batch
    with denominator n*p gives the high digit, and p * high is unbiased
    for mu_2 as long as no coin saturates, i.e. while every squared
    (mapped) distance is at most n*p; the map guarantees this.  The high
    digit alone already counts all of mu_2, so the low digit is the
    constant 0.
    """
    high = primitives.prob_avg(
        xs, _moment_coins("square", pp.n * pp.ring.coord_bound, pp, mapped),
        pp.ring)
    return he_sim.embed_like(high, [0]), high


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


def sqrt_of_digit_diff(high_a: Cipher, low_a: Cipher, high_b: Cipher,
                       low_b: Cipher, pp: ProtocolParams) -> Cipher:
    """Oblivious sqrt(max(a - b, 0)) from base-p digit couples of a and b.

    Three-way branch on dh = high(a) - high(b): sqrt(dl) when dh = 0,
    sqrt(p + dl) when dh = 1, sqrt(dh * p) otherwise, with dl the low
    digit difference.  Low digits may be signed.  Every square-root table
    reads its argument as signed and returns 0 below zero, so a negative
    difference (a variance estimate that coin noise pushed below zero)
    gives 0.  Selector bits come from the is-zero table and every branch
    is combined by multiply-and-add, so nothing is revealed.
    """
    ring = pp.ring
    tables = interp.build_named_tables(ring)
    dh = he_sim.sub(high_a, high_b, ring)
    dl = he_sim.sub(low_a, low_b, ring)
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


def estimate_sigma(sd: SigmaDigits, pp: ProtocolParams) -> Cipher:
    """Spread of the distance distribution from the moment digit-couples.

    The variance is mu_2 - mu^2, so the digit difference is taken with the
    second moment on the positive side.
    """
    return sqrt_of_digit_diff(sd.mu2_high, sd.mu2_low,
                              sd.musq_high, sd.musq_low, pp)


def threshold(mu_star: Cipher, sigma_star: Cipher, pp: ProtocolParams) -> Cipher:
    """T* = mu* + z_k * sigma*; z_k is plaintext, so this is free."""
    z = pp.ring.reduce(pp.z_k)
    return he_sim.add(mu_star, he_sim.mul(sigma_star, z, pp.ring), pp.ring)


def count_classes(xs: Cipher, t_star: Cipher, labels, pp: ProtocolParams,
                  mapped: bool = False):
    """Per-class counts of points strictly below the threshold.

    With mapped, the distances first go through the dist_map table, so
    they are compared in the units a mapped threshold was estimated in.
    The n comparison bits are computed once (one batched sign test) and
    reused for both sums; the label masks are plaintext.
    """
    ring = pp.ring
    tables = interp.build_named_tables(ring)
    labels = np.asarray(labels, dtype=np.int64)
    if mapped:
        xs = interp.eval_poly_ps(tables.dist_map, xs, ring)
    tb = he_sim.broadcast(t_star, xs.size, ring)
    bits = interp.eval_poly_ps(tables.is_neg, he_sim.sub(xs, tb, ring), ring)
    c0 = he_sim.slot_sum(he_sim.mul(bits, 1 - labels, ring), ring)
    c1 = he_sim.slot_sum(he_sim.mul(bits, labels, ring), ring)
    return c0, c1


def _threshold_pipeline(enc_q: list, db: LabeledDatabase, pp: ProtocolParams):
    """Distances and threshold ciphertexts shared by classify and kappa."""
    xs = primitives.compute_dists(enc_q, db.points, pp.ring)
    mu_star = estimate_mu(xs, pp, mapped=True)
    mu2_low, mu2_high = estimate_mu2_digits(xs, pp, mapped=True)
    musq_low, musq_high = square_mu_digits(mu_star, pp)
    sd = SigmaDigits(mu2_low=mu2_low, mu2_high=mu2_high,
                     musq_low=musq_low, musq_high=musq_high)
    sigma_star = estimate_sigma(sd, pp)
    t_star = threshold(mu_star, sigma_star, pp)
    return xs, t_star


def server_classify(pk, enc_q: list, db: LabeledDatabase,
                    pp: ProtocolParams) -> Cipher:
    """The full server circuit; returns one encrypted class bit.

    The threshold is estimated on the mapped distances t(x) (see
    interp.dist_map), and a point counts when t(x) < T*.  Ties (C0 == C1,
    including the zero-neighbor corner) resolve to class 0 because the
    final comparison is strict.
    """
    if len(enc_q) != pp.ring.dim:
        raise ParameterError("query dimension does not match ring params")
    if db.n != pp.n:
        raise ParameterError("database size does not match protocol params")
    if pp.ring.n != pp.n:
        # the distance map's range and the coin denominators would then
        # disagree, and the moment coins could saturate without an error
        raise ParameterError("ring was selected for a different database size")
    xs, t_star = _threshold_pipeline(enc_q, db, pp)
    c0, c1 = count_classes(xs, t_star, db.labels, pp, mapped=True)
    return interp.is_smaller(c0, c1, pp.ring)


def classify_with_majority(query, db: LabeledDatabase,
                           pp: ProtocolParams) -> int:
    """Client-side wrapper: run the protocol repeatedly, majority-vote."""
    keys = he_sim.keygen(pp.ring, derive_seed(pp.rng_seed, "keys"))
    enc_q = [he_sim.encrypt(keys.pk, int(c)) for c in query]
    votes = 0
    for rep in range(pp.repetitions):
        pp_rep = replace(pp, rng_seed=derive_seed(pp.rng_seed, f"rep-{rep}"))
        bit = server_classify(keys.pk, enc_q, db, pp_rep)
        votes += he_sim.decrypt(keys.sk, bit)
    return 1 if 2 * votes > pp.repetitions else 0


def kappa_of_run(db: LabeledDatabase, query, pp: ProtocolParams,
                 seed: int) -> int:
    """Diagnostic: how many neighbors one run's threshold actually selects,
    that is how many points have a mapped distance t(x) below T*.

    Decrypts the threshold through the test trapdoor, so it refuses to run
    unless KISHNN_TEST_TRAPDOOR=1 is set in the environment.
    """
    if os.environ.get("KISHNN_TEST_TRAPDOOR") != "1":
        raise RuntimeError("kappa_of_run is a test-build diagnostic; "
                           "set KISHNN_TEST_TRAPDOOR=1 to enable")
    pp_run = replace(pp, rng_seed=seed)
    keys = he_sim.keygen(pp.ring, derive_seed(seed, "kappa-keys"))
    enc_q = [he_sim.encrypt(keys.pk, int(c)) for c in query]
    _, t_star = _threshold_pipeline(enc_q, db, pp_run)
    t_val = pp.ring.signed(he_sim.decrypt(keys.sk, t_star))
    dists = np.abs(np.asarray(db.points, dtype=np.int64)
                   - np.asarray(query, dtype=np.int64)).sum(axis=1)
    mapped = np.asarray(interp.dist_map(pp.ring))[dists]
    return int((mapped < t_val).sum())
