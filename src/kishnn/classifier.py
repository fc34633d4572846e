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
import operator
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import he_sim, interp, primitives
from .he_sim import Cipher
from .primitives import CoinSpec, derive_seed
from .ring import ParameterError, RingParams


@functools.lru_cache(maxsize=256)
def _z_k(k: int, n: int) -> int:
    """round(Phi^-1(k/n)), memoised: leave-one-out and the n-sweep make
    one ProtocolParams per query, with few distinct (k, n)."""
    return round(NormalDist().inv_cdf(k / n))


@dataclass(frozen=True)
class ProtocolParams:
    ring: RingParams
    k: int
    n: int
    z_k: int = field(init=False)  # round(Phi^-1(k/n)), plaintext
    repetitions: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        for f in ("k", "n", "repetitions", "rng_seed"):  # numpy's ints too
            try:  # 2.5, 3.0 or "7" is refused, not truncated or parsed
                object.__setattr__(self, f, operator.index(getattr(self, f)))
            except TypeError:
                raise ParameterError(f"{f} must be an integer") from None
        if not 1 <= self.k < self.n:
            raise ParameterError("need 1 <= k < n")
        if self.repetitions < 1 or self.repetitions % 2 != 1:
            raise ParameterError("repetition count must be odd and positive")
        if self.ring.n != self.n:  # else the map's range and the coin
            # denominators disagree, and the coins could saturate silently
            raise ParameterError("ring selected for another database size")
        object.__setattr__(self, "z_k", _z_k(self.k, self.n))

    @functools.cached_property
    def coins(self) -> tuple:
        """The mu and mu_2 CoinSpecs of all repetitions,
        moment_coins(self, repetition_seeds(self)), derived on first use
        and then read by every query with these parameters."""
        return moment_coins(self, repetition_seeds(self))


make_protocol_params = ProtocolParams


@dataclass(frozen=True)
class LabeledDatabase:
    """Points and labels, held as the circuit's plaintext operands:
    coords (compute_dists'), the coordinates dimension-major in one
    he_sim.Plain, coordinate j of point i in slot j*n + i, of which points
    is a read-only (n, d) view, and label_signs (count_classes'), the
    he_sim.Plain 1 - 2 * labels.  labels is a private read-only int64
    copy.  Coordinates must be non-negative and labels bits, each held
    exactly by int64: 3.9 or "1" is refused, not truncated or parsed."""

    points: np.ndarray  # (n, d) grid coordinates
    labels: np.ndarray  # (n,) bits
    coords: he_sim.Plain = field(init=False, repr=False)
    label_signs: he_sim.Plain = field(init=False, repr=False)

    def __post_init__(self):
        try:
            raw = [np.asarray(a) for a in (self.points, self.labels)]
        except ValueError:  # ragged rows, which numpy refuses
            raise ParameterError("coordinates must form an (n, d) array "
                                 "and labels an (n,) one") from None
        if any(a.dtype.kind not in "biuf" for a in raw):
            raise ParameterError("coordinates and labels must be numbers")
        with np.errstate(invalid="ignore"):  # NaN and inf: refused below
            points, labels = (a.astype(np.int64) for a in raw)
        if not ((points == raw[0]).all() and (labels == raw[1]).all()):
            raise ParameterError("coordinates and labels must be integers "
                                 "that int64 holds")
        if points.ndim != 2:
            raise ParameterError("coordinates must form an (n, d) array")
        if len(points) != len(labels):
            raise ParameterError("points and labels length mismatch")
        if (labels >> 1).any():
            raise ParameterError("labels must be 0 or 1")
        if (points < 0).any():
            raise ParameterError("coordinates must be non-negative")
        self._store(points.shape[1], he_sim.Plain(points.T.ravel()), labels)

    def _store(self, d: int, coords: he_sim.Plain, labels: np.ndarray):
        """Set the fields from the dimension, the coordinates' operand and
        the labels, which become read-only: points is a view of coords,
        and label_signs is derived with the bound 1."""
        labels.flags.writeable = False
        vars(self).update(points=coords.values.reshape(d, len(labels)).T,
                          labels=labels, coords=coords,
                          label_signs=he_sim.Plain._bounded(1 - 2 * labels, 1))

    @property
    def n(self) -> int:
        return len(self.labels)

    def held_out(self, indices) -> list:
        """[self.without(i) for i in indices], from one gather of the
        coordinates and one of the labels.

        Their points passed this database's checks, and their operands
        are this database's minus slot i: the coordinates keep their
        parent's bound (a subset's magnitude is at most its parent's), and
        the label signs, derived from the gathered labels, take the bound
        1.  Nothing is checked or scanned again; each point array is a view
        of its coordinates.
        """
        n, coords = self.n, self.coords
        for i in indices:
            if not 0 <= i < n:
                raise ParameterError(f"no point {i} in a database of {n}")
        keep = np.arange(n - 1)
        keep = keep + (keep >= np.reshape(indices, (-1, 1)))  # row r skips i_r
        if not len(keep):
            return []
        d = self.points.shape[1]
        # row r's coordinate j of its point i: the parent's slot j*n + keep
        slots = (keep[:, None, :] + n * np.arange(d)[:, None]).reshape(
            len(keep), -1)
        out = []
        for c, lab in zip(coords.values.take(slots), self.labels.take(keep)):
            db = LabeledDatabase.__new__(LabeledDatabase)
            db._store(d, he_sim.Plain._bounded(c, coords.bound), lab)
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


def estimate_mu(xs: Cipher, pp: ProtocolParams, coins: CoinSpec) -> Cipher:
    """Coin-sum estimate of the mean of the mapped distances t(x) (see
    interp.dist_map), denominator n.

    xs holds one copy of the distances per repetition seed of the coins,
    moment_coins' first spec, and the estimate holds one slot per
    repetition.  If xs carries the distances' powers record, the coins
    read their powers (primitives.prob_avg).
    """
    return primitives.prob_avg(xs, coins, pp.ring)


def estimate_mu2_digits(xs: Cipher, pp: ProtocolParams,
                        coins: CoinSpec) -> Cipher:
    """High base-p digit of the second moment mu_2 = mean(t(x)^2).

    One coin batch with denominator n*p gives the high digit, and
    p * high is unbiased for mu_2 as long as no coin saturates, i.e.
    while every squared mapped distance is at most n*p; the map
    guarantees this.  The high digit alone counts all of mu_2, so mu_2
    has no low digit.  xs and coins (moment_coins' second spec) are as
    for estimate_mu.
    """
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
    estimate that coin noise pushed below zero) gives 0.  The sqrt(dh * p)
    table is also 0 at dh = 0 and dh = 1, so only the other two branches
    need selector bits: two from the is-zero table, each combined by
    multiply-and-add, so nothing is revealed.  The three tables on dh and
    the two on dl are polynomials in dh or dl, so each shares its input's
    powers (he_sim.share_powers).
    """
    ring = pp.ring
    tables = interp.build_named_tables(ring)
    dh = he_sim.share_powers(dh, tables=3)  # b0, b1 and v2 read it
    dl = he_sim.share_powers(dl, tables=2)  # v0 and v1
    b0 = interp.eval_poly_ps(tables.is_zero, dh, ring)
    b1 = interp.eval_poly_ps(tables.is_zero, he_sim.sub(dh, 1, ring), ring)
    v0 = interp.eval_poly_ps(tables.sqrt, dl, ring)
    v1 = interp.eval_poly_ps(tables.sqrt_plus_p, dl, ring)
    v2 = interp.eval_poly_ps(tables.sqrt_times_p, dh, ring)
    acc = he_sim.add(he_sim.mul(b0, v0, ring), he_sim.mul(b1, v1, ring), ring)
    return he_sim.add(acc, v2, ring)


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


def count_classes(xs: Cipher, t_star: Cipher, signs: he_sim.Plain,
                  pp: ProtocolParams) -> Cipher:
    """C0 - C1 mod P, where Cc counts the points of class c whose mapped
    distance t(x) lies strictly below the threshold: one signed sum of the
    sign-test bits, with signs the plaintext 1 - 2 * labels as
    LabeledDatabase.label_signs gives it.

    The distances first go through the dist_map table, so they are
    compared in the units the threshold was estimated in; if xs carries
    the distances' powers record, the map reads their powers.  t_star holds
    one threshold per repetition: the n mapped distances are laid out
    once per repetition and compared against that repetition's threshold
    in one batched sign test.  The difference holds one slot per
    repetition.
    """
    ring = pp.ring
    tables = interp.build_named_tables(ring)
    reps = t_star.size
    xs = interp.eval_poly_ps(tables.dist_map, xs, ring)
    xs = he_sim.pack([xs] * reps, ring)
    tb = he_sim.broadcast(t_star, xs.size)
    bits = interp.eval_poly_ps(tables.is_neg, he_sim.sub(xs, tb, ring), ring)
    return he_sim.slot_sum(he_sim.mul(bits, signs.tile(reps), ring), ring,
                           reps)


def _threshold_pipeline(enc_q: list, db: LabeledDatabase, pp: ProtocolParams,
                        coins: tuple):
    """Distances (n slots), carrying the record of their powers, which the
    mu coins claim and the mu_2 coins share, and thresholds (one slot per
    seed of coins, the mu and mu_2 CoinSpecs of moment_coins).  The
    distances are computed once and laid out once per seed for the
    moment coins.  The record's span is dist_bound + 1, which every
    distance of a query on the grid keeps (compute_dists refuses one off
    it), and so is mu*'s, for its square_div_p table: the mu coins'
    numerators are 1..n, one each, and only those at most
    t(B) <= dist_bound can hit."""
    dists = primitives.compute_dists(enc_q, db.coords, pp.ring)
    xs = he_sim.share_powers(dists, pp.ring.dist_bound + 1, tables=3)
    mu_coins, mu2_coins = coins
    tiled = he_sim.pack([xs] * len(mu_coins.seeds), pp.ring)
    mu_star = he_sim.share_powers(estimate_mu(tiled, pp, mu_coins),
                                  pp.ring.dist_bound + 1)
    mu2_high = estimate_mu2_digits(tiled, pp, mu2_coins)
    musq_low, musq_high = square_mu_digits(mu_star, pp)
    sigma_star = estimate_sigma(mu2_high, musq_low, musq_high, pp)
    t_star = threshold(mu_star, sigma_star, pp)
    return xs, t_star


def server_classify(enc_q: list, db: LabeledDatabase,
                    pp: ProtocolParams) -> Cipher:
    """The full server circuit; returns one encrypted class bit per
    repetition, packed one per slot.

    All pp.repetitions repetitions run as one circuit.  The distances
    (one |.| table on the powers of the packed query), their baby- and
    giant-step powers and their map t(x) are computed once; the mu coins,
    the mu_2 coins and the map are each a polynomial in the distances of
    degree at most dist_bound, so they share those powers and pay only
    their own products (he_sim.share_powers).  Repetition r's coins come
    from repetition_seeds(pp)[r] (pp.coins), and its stages run on slot
    segment r, so its bit is the one-repetition circuit's bit for that
    seed.  The threshold is estimated on the mapped distances t(x) (see
    interp.dist_map), a point counts when t(x) < T*, and the bit is
    [C0 - C1 < 0].  Ties (C0 == C1, including the zero-neighbor corner)
    resolve to class 0 because the final comparison is strict.
    """
    if db.n != pp.n:
        raise ParameterError("database size does not match protocol params")
    coords = db.coords
    if coords.size != pp.ring.dim * pp.n:
        raise ParameterError("database dimension does not match ring params")
    # the bound is the largest coordinate (a held-out one's parent's)
    if coords.bound >= pp.ring.coord_bound:
        raise ParameterError("database points lie off the ring's grid")
    xs, t_star = _threshold_pipeline(enc_q, db, pp, pp.coins)
    diff = count_classes(xs, t_star, db.label_signs, pp)
    return interp.is_smaller(diff, 0, pp.ring)


def encrypt_query(pk, query, ring: RingParams) -> list:
    """The client's query, one fresh cipher per coordinate; a point off the
    grid, or a coordinate that is not an integer, is refused, not
    classified as some other point."""
    try:
        coords = [operator.index(c) for c in query]
    except TypeError:
        raise ParameterError(f"query {query!r} is not a grid point: "
                             "coordinates must be integers") from None
    if len(coords) != ring.dim or not all(0 <= c < ring.coord_bound
                                          for c in coords):
        raise ParameterError(f"query {coords} is not a grid point: need "
                             f"{ring.dim} coordinates in "
                             f"[0, {ring.coord_bound})")
    return [he_sim.encrypt(pk, c) for c in coords]


def client_keys(pp: ProtocolParams) -> he_sim.KeyPair:
    """The client's key pair, derived from pp.rng_seed: the one derivation
    that classify_with_majority and protocol_io.make_query share."""
    return he_sim.keygen(pp.ring, derive_seed(pp.rng_seed, "keys"))


def classify_with_majority(query, db: LabeledDatabase,
                           pp: ProtocolParams) -> int:
    """Client-side wrapper: run the protocol, majority-vote its bits."""
    keys = client_keys(pp)
    bits = server_classify(encrypt_query(keys.pk, query, pp.ring), db, pp)
    votes = sum(he_sim.decrypt(keys.sk, b)
                for b in he_sim.split(bits, bits.size))
    return 1 if 2 * votes > pp.repetitions else 0

