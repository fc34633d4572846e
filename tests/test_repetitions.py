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
        xs = he_sim.share_powers(xs, ring.dist_bound + 1, tables=3)
        mu_coins, mu2_coins = moment_coins(pp, (pp.rng_seed,))
        mu = he_sim.share_powers(estimate_mu(xs, pp, mu_coins),
                                 ring.dist_bound + 1, tables=3)
        musq_high, f0, step = square_mu_digits(mu, pp)
        sigma = estimate_sigma(estimate_mu2_digits(xs, pp, mu2_coins),
                               musq_high, f0, step, pp)
        diff = count_classes(xs, threshold(mu, sigma, pp), db.label_signs,
                             pp)
        bit = interp.is_smaller(diff, 0, ring)
    # computed once: the distances, the powers of the distances that the
    # mu coins claim, and the map's block products, or the whole map if
    # its split differs from the coins'; each table on the distances is
    # charged at its degree on their span [0, dist_bound], at a split for
    # the three tables that read the distances' powers
    tables = interp.build_named_tables(ring)
    split, power, *_ = interp.ps_cost(
        min(tables.is_neg.degree, ring.dist_bound), xs.depth, 3)
    map_split, map_power, map_blocks, *_ = interp.ps_cost(
        min(tables.dist_map.degree, ring.dist_bound), xs.depth, 3)
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
    # (each coordinate's powers once, then its products per slot), their
    # powers and the map's products per slot once, the rest five times.
    # The query's |.| table is charged at its degree on the grid
    # [0, 250), 249; the tables on the distances at their degree on
    # the distances' span [0, 498], at the split (5, 256) that their
    # three tables share and a lone table would take too
    db = database(250, 569)
    ring = select_ring_params(250, dim=2, n=569)
    pp = make_protocol_params(ring, k=13, n=569, repetitions=5, rng_seed=0)
    tables = interp.build_named_tables(ring)
    assert (tables.abs.degree, tables.is_neg.degree,
            tables.dist_map.degree) == (996, 996, 996)
    _, power, block, *_ = interp.ps_cost(ring.coord_bound - 1, 0)
    assert interp.ps_cost(ring.dist_bound, 9)[:3] == ((5, 256), 34, 15)
    split, span_power, span_block, *_ = interp.ps_cost(ring.dist_bound, 9, 3)
    assert (split, span_power, span_block) == ((5, 256), 34, 15)
    dists = 2 * power + 2 * 569 * block
    once = dists + 569 * (span_power + span_block)
    with he_sim.metering() as m:
        classify_with_majority((40, 60), db, pp)
    with he_sim.metering() as one:
        classify_with_majority((40, 60), db, replace(pp, repetitions=1))
    assert (dists, once) == (17_106, 44_987)
    assert m.mult_gates == 5 * one.mult_gates - 4 * once == 319_322
    assert m.max_depth == one.max_depth == 57
