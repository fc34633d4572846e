"""The benchmark's three shapes at grid 250 and k = 13, and leave-one-out
at the CLI's default grid 100, pinned: the predictions
(perfbench/workloads.digest, the first 16 hex digits of sha256 over the
prediction bytes), mult gates, cipher add gates, ciphertext mults and slot
moves per query, depth, and one leave-one-out query's gates by stage.  A
change to how the plaintext side is prepared or cached, or to how the
circuit's ops are batched, must leave every one of these exactly as
recorded."""

import collections
import importlib
import pathlib

import pytest

from kishnn import classifier, data_eval, he_sim, interp, primitives

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"

# Mult and cipher add gates per leave-one-out query, by repetition count.
LOO_GATES = {1: 99_679, 5: 318_763}
LOO_ADDS = {1: 61_454, 5: 202_758}
# The served shape's mult gates, and the depth of every shape.
SERVED_GATES = 319_322
DEPTH = 57
# Ciphertext mults and slot moves per query (he_sim.EvalMetrics) at grid
# 250, at any n: the repetitions share every ciphertext, so the mults do
# not grow with R, and R > 1 adds the moves of laying the distances out
# R times, spreading the thresholds and splitting the bits.
CIPHER_MULTS = 421
SLOT_MOVES = {1: 7, 5: 10}


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("reps, seed, digest", [
    (1, 0, "8f84e8d50cbbe252"),
    (1, 1, "37e3fce361bed2d8"),
    (5, 0, "3a3543f0a2d0a006"),
    (5, 1, "f5ab5f2d1d6611a6"),
])
def test_leave_one_out_bits_are_pinned(workloads, reps, seed, digest):
    gd = workloads.load_grid()
    report = data_eval.leave_one_out_f1(gd, workloads.K, "secure",
                                        repetitions=reps, seed=seed)
    assert workloads.digest(report.per_point_predictions) == digest
    assert report.metrics.mult_gates == LOO_GATES[reps] * gd.n
    assert report.metrics.add_gates == LOO_ADDS[reps] * gd.n
    assert report.metrics.cipher_mults == CIPHER_MULTS * gd.n
    assert report.metrics.slot_moves == SLOT_MOVES[reps] * gd.n
    assert report.metrics.max_depth == DEPTH


@pytest.mark.parametrize("seed, digest, f1", [
    (0, "50b206133d32d6c5", 0.8125),
    (1, "4edac43eac3a89d2", 0.8467),
])
def test_grid_100_leave_one_out_bits_are_pinned(workloads, seed, digest, f1):
    # P = 397, so a threshold that selects more than P/2 points of one
    # class wraps its count: some of these bits are wrong, and a change
    # to how the classes are counted must keep even those
    gd = data_eval.grid_dataset(data_eval.load_wdbc(workloads.DATASET), 100)
    report = data_eval.leave_one_out_f1(gd, workloads.K, "secure",
                                        repetitions=1, seed=seed)
    assert workloads.digest(report.per_point_predictions) == digest
    assert report.f1 == pytest.approx(f1, abs=5e-5)
    assert report.metrics.mult_gates == 67_198 * gd.n
    assert report.metrics.add_gates == 38_694 * gd.n
    # P = 397: a full table evaluation alone, of degree 396, pays 19
    # powers and 24 products, the split (4, 256); sigma's two tables on
    # dh share the split (5, 256), 34 powers and 12 products each; a
    # table on the distances, of degree 198 on their span [0, 198], pays
    # the split (5, 128)'s 33 and 6, and so do the three tables of mu*^2's
    # digits on mu*'s span [0, 198]; the query's |.|
    # table, of degree 99 on the grid [0, 100), the split (3, 64)'s 10
    # and 12; every table is ceil(log2 degree) deep
    assert report.metrics.cipher_mults == 270 * gd.n
    assert report.metrics.slot_moves == SLOT_MOVES[1] * gd.n
    assert report.metrics.max_depth == 51


def test_n_sweep_bits_are_pinned(workloads):
    # WDBC x j for j = 1..10, one query point per size from default_rng(0)
    bits, gates, adds = [], [], []
    for db, point in workloads.setup_nsweep(0, False):
        with he_sim.metering() as m:
            bits.append(classifier.classify_with_majority(
                point, db, workloads.protocol(db.n, 1, 0)))
        gates.append(m.mult_gates)
        adds.append(m.add_gates)
        assert (m.cipher_mults, m.slot_moves, m.max_depth) == (
            CIPHER_MULTS, SLOT_MOVES[1], DEPTH)
    assert workloads.digest(bits) == "3192b11429125bfa"
    assert sum(gates) == 5_479_415  # a mean of 547,941.5
    assert adds == [61_562, 123_014, 184_466, 245_918, 307_370, 368_822,
                    430_274, 491_726, 553_178, 614_630]


def test_served_shape_gates_are_pinned(workloads):
    db = workloads.load_grid().database()
    with he_sim.metering() as m:
        classifier.classify_with_majority(
            db.points[0], db, workloads.protocol(db.n, workloads.SERVE_REPS, 0))
    assert (db.n, m.mult_gates, m.add_gates, m.max_depth) == (
        569, SERVED_GATES, 203_114, DEPTH)
    assert (m.cipher_mults, m.slot_moves) == (CIPHER_MULTS, SLOT_MOVES[5])


# he_sim's public ops, one call each per use; a warm query's calls of each.
# An op added to or removed from the circuit changes this pin on purpose.
OPS = ("mul", "add", "sub", "rsub", "slot_sum", "broadcast", "pack", "split",
       "table_lookup")
QUERY_OPS = {"mul": 4, "add": 4, "sub": 4, "rsub": 2, "slot_sum": 3,
             "broadcast": 2, "pack": 3, "split": 2, "table_lookup": 11}


@pytest.mark.parametrize("reps", [1, 5])
def test_a_warm_query_makes_the_pinned_ops(workloads, monkeypatch, reps):
    # a leave-one-out query (n = 568, one repetition) and the served shape
    # (n = 569, five): the repetitions share every op
    db = workloads.load_grid().database()
    point, db = db.points[0], db.without(0) if reps == 1 else db
    pp = workloads.protocol(db.n, reps, 0)
    bit = classifier.classify_with_majority(point, db, pp)  # tables, plans
    calls = collections.Counter()

    def counted(name, op):
        def call(*args):
            calls[name] += 1
            return op(*args)
        return call

    for name in OPS:
        monkeypatch.setattr(he_sim, name, counted(name, getattr(he_sim, name)))
    assert classifier.classify_with_majority(point, db, pp) == bit
    assert dict(calls) == QUERY_OPS
    assert sum(calls.values()) == 35


# A leave-one-out query's (mult gates, ciphertext mults, slot moves, depth)
# by stage, at n = 568 and one repetition.  The distances' |.| table pays
# the powers of the packed query once on its 2 slots, at degree 249 on
# the grid [0, 250): the split (4, 128), 18 powers and 15 products; the
# mu coins claim the powers of the distances, so their stage carries
# them; the mu_2 coins and the map pay only products; so do the tables
# after the first on mu* and on sigma's high digit difference dh.  The
# three tables on the distances are charged at degree 498, their degree
# on the distances' span [0, 498], at the split (5, 256): 34 powers and
# 15 products per slot, 9 levels deep, and so are the three tables of
# mu*^2's digits on mu*'s span [0, 498].  sigma's two full-degree tables
# on dh share the split (6, 512), 66 powers and 15 products each, 10
# levels deep, and its two selecting products are one level each.  A
# full-degree table alone takes (5, 512), 35 and 31.
STAGES = {
    (interp, "is_smaller"): (66, 66, 0, 57),
    (primitives, "compute_dists"): (17_076, 33, 3, 8),
    (classifier, "estimate_mu"): (27_832, 49, 1, 17),
    (classifier, "estimate_mu2_digits"): (8_520, 15, 1, 17),
    (classifier, "square_mu_digits"): (79, 79, 0, 26),
    (classifier, "estimate_sigma"): (98, 98, 0, 37),
    (classifier, "threshold"): (0, 0, 0, 37),
    (classifier, "count_classes"): (46_008, 81, 2, 47),
}


def test_a_leave_one_out_query_splits_its_gates_by_stage(workloads,
                                                          monkeypatch):
    db = workloads.load_grid().database()
    point, db = db.points[0], db.without(0)
    seen = {}

    def metered(key, stage):
        def call(*args):
            with he_sim.metering() as m:
                out = stage(*args)
            seen[key] = (m.mult_gates, m.cipher_mults, m.slot_moves,
                         m.max_depth)
            return out
        return call

    for module, name in STAGES:
        monkeypatch.setattr(module, name,
                            metered((module, name), getattr(module, name)))
    with he_sim.metering() as total:
        classifier.classify_with_majority(point, db,
                                          workloads.protocol(db.n, 1, 0))
    assert seen == STAGES
    gates, ciphers, moves, _ = map(sum, zip(*seen.values()))
    assert gates == total.mult_gates == LOO_GATES[1]
    assert ciphers == total.cipher_mults == CIPHER_MULTS
    assert moves == total.slot_moves == SLOT_MOVES[1]
