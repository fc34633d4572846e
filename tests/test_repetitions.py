"""The packed repetitions of server_classify against one-repetition
circuits built stage by stage, and the wire path against the in-process
one."""

import functools
from dataclasses import replace

import numpy as np
import pytest

from kishnn import data_eval, he_sim, interp, primitives, protocol_io
from kishnn.classifier import (classify_with_majority, count_classes,
                               estimate_mu, estimate_mu2_digits,
                               estimate_sigma, make_protocol_params,
                               moment_coins, server_classify,
                               square_mu_digits, threshold)
from kishnn.primitives import derive_seed
from kishnn.ring import select_ring_params

from conftest import WDBC_PATH


@functools.lru_cache(maxsize=None)
def wdbc_grid(grid):
    return data_eval.grid_dataset(data_eval.load_wdbc(WDBC_PATH), grid)


def database(grid, n):
    gd = wdbc_grid(grid)
    return data_eval.GridDataset(gd.points[:n], gd.labels[:n], grid,
                                 gd.quant_meta).database()


def one_repetition(enc_q, db, pp):
    """The one-repetition circuit seeded by pp.rng_seed, built stage by
    stage: (bit, gates, depth, gates of what a packed circuit computes
    once for all its repetitions)."""
    ring = pp.ring
    with he_sim.metering() as m:
        with he_sim.metering() as dist:
            xs = primitives.compute_dists(enc_q, db.coords, ring)
        xs = he_sim.share_powers(xs)
        mu_coins, mu2_coins = moment_coins(pp, (pp.rng_seed,))
        mu = estimate_mu(xs, pp, mu_coins)
        musq_low, musq_high = square_mu_digits(mu, pp)
        sigma = estimate_sigma(estimate_mu2_digits(xs, pp, mu2_coins),
                               musq_low, musq_high, pp)
        diff = count_classes(xs, threshold(mu, sigma, pp), db.label_signs,
                             pp)
        bit = interp.is_smaller(diff, 0, ring)
    # computed once: the distances, the powers of the distances that the
    # mu coins claim, and the map's block products, or the whole map if
    # its split differs from the coins'
    tables = interp.build_named_tables(ring)
    split, power, *_ = interp.ps_cost(tables.is_neg.degree, xs.depth)
    map_split, map_power, map_blocks, *_ = interp.ps_cost(
        tables.dist_map.degree, xs.depth)
    once = dist.mult_gates + db.n * (
        power + map_blocks + (0 if map_split == split else map_power))
    return bit, m.mult_gates, m.max_depth, once


CASES = [(grid, n, seed, reps)
         for grid, sizes in ((100, (40, 151)), (250, (60, 300)))
         for n in sizes
         for seed in (0, 9)
         for reps in (1, 3, 5)]


@pytest.mark.parametrize("grid,n,seed,reps", CASES)
def test_packed_repetitions_match_independent_circuits(grid, n, seed, reps):
    db = database(grid, n)
    ring = select_ring_params(grid, dim=2, n=n)
    pp = make_protocol_params(ring, k=5, n=n, repetitions=reps,
                              rng_seed=seed)
    keys = he_sim.keygen(ring, derive_seed(seed, "keys"))
    rng = np.random.default_rng(derive_seed(seed, f"query-{n}"))
    queries = [rng.integers(0, grid, size=2) for _ in range(3)]
    seen = set()
    for q in queries:
        enc_q = [he_sim.encrypt(keys.pk, int(c)) for c in q]
        with he_sim.metering() as packed:
            bits = server_classify(enc_q, db, pp)
        got = [he_sim.decrypt(keys.sk, b)
               for b in he_sim.split(bits, bits.size)]
        singles = [one_repetition(
            enc_q, db, replace(pp, repetitions=1,
                               rng_seed=derive_seed(seed, f"rep-{r}")))
            for r in range(reps)]
        assert got == [he_sim.decrypt(keys.sk, s[0]) for s in singles]
        _, g1, depth, once = singles[0]
        assert {s[1:] for s in singles} == {singles[0][1:]}
        assert packed.mult_gates == reps * g1 - (reps - 1) * once
        assert packed.max_depth == depth
        seen.update(got)

        # the wire path answers with the same bits at the same cost
        _, msg = protocol_io.make_query(q, pp)
        with he_sim.metering() as served:
            reply = protocol_io.answer_query(msg, db, pp)
        with he_sim.metering() as local:
            label = classify_with_majority(q, db, pp)
        assert [he_sim.decrypt(keys.sk, c) for c in reply.enc_class] == got
        assert served.mult_gates == local.mult_gates == packed.mult_gates
        assert served.max_depth == local.max_depth == depth
        assert label == (1 if 2 * sum(got) > reps else 0)
    if reps == 5:
        assert seen == {0, 1}  # so a mixed-up segment could not hide


def test_serve_shaped_query_cost():
    # WDBC, 569 points, grid 250, the server's 5 repetitions: distances
    # (36,538 gates), their 61 powers per slot (34,709) and the map's 31
    # block products per slot (17,639) once, the rest five times
    db = database(250, 569)
    ring = select_ring_params(250, dim=2, n=569)
    pp = make_protocol_params(ring, k=13, n=569, repetitions=5, rng_seed=0)
    with he_sim.metering() as m:
        classify_with_majority((40, 60), db, pp)
    assert m.mult_gates == 5 * 177_159 - 4 * 88_886 == 530_251
    assert m.max_depth == 68
