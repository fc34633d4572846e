"""The benchmark's three shapes at grid 250 and k = 13, and leave-one-out
at the CLI's default grid 100, pinned: the predictions
(perfbench/workloads.digest, the first 16 hex digits of sha256 over the
prediction bytes), mult gates and cipher add gates per query, depth, and
one leave-one-out query's gates by stage.  A change to how the plaintext
side is prepared or cached, or to how the circuit's ops are batched, must
leave every one of these exactly as recorded."""

import collections
import importlib
import pathlib

import pytest

from kishnn import classifier, data_eval, he_sim, interp, primitives

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"

# Mult and cipher add gates per leave-one-out query, by repetition count.
LOO_GATES = {1: 246_023, 5: 598_499}
LOO_ADDS = {1: 107_006, 5: 321_462}


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
    assert report.metrics.max_depth == 68


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
    assert report.metrics.mult_gates == 150_347 * gd.n
    assert report.metrics.add_gates == 66_026 * gd.n
    assert report.metrics.max_depth == 68


def test_n_sweep_bits_are_pinned(workloads):
    # WDBC x j for j = 1..10, one query point per size from default_rng(0)
    bits, gates, adds = [], [], []
    for db, point in workloads.setup_nsweep(0, False):
        with he_sim.metering() as m:
            bits.append(classifier.classify_with_majority(
                point, db, workloads.protocol(db.n, 1, 0)))
        gates.append(m.mult_gates)
        adds.append(m.add_gates)
        assert m.max_depth == 68
    assert workloads.digest(bits) == "3192b11429125bfa"
    assert sum(gates) == 10 * 1_352_591
    assert adds == [107_194, 214_166, 321_138, 428_110, 535_082, 642_054,
                    749_026, 855_998, 962_970, 1_069_942]


def test_served_shape_gates_are_pinned(workloads):
    db = workloads.load_grid().database()
    with he_sim.metering() as m:
        classifier.classify_with_majority(
            db.points[0], db, workloads.protocol(db.n, workloads.SERVE_REPS, 0))
    assert (db.n, m.mult_gates, m.add_gates, m.max_depth) == (
        569, 599_547, 322_026, 68)


# he_sim's public ops, one call each per use; a warm query's calls of each.
# An op added to or removed from the circuit changes this pin on purpose.
OPS = ("mul", "add", "sub", "rsub", "slot_sum", "broadcast", "pack", "split",
       "table_lookup")
QUERY_OPS = {"mul": 8, "add": 4, "sub": 6, "rsub": 4, "slot_sum": 3,
             "broadcast": 2, "pack": 3, "split": 2, "table_lookup": 12}


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
    assert sum(calls.values()) == 44


# A leave-one-out query's (mult gates, depth) by stage, at n = 568 and one
# repetition.  The mu coins claim the powers of the distances, so their
# stage carries them; the mu_2 coins and the map pay only block products.
STAGES = {
    (interp, "is_smaller"): (92, 68),
    (primitives, "compute_dists"): (105_648, 12),
    (classifier, "estimate_mu"): (52_256, 23),
    (classifier, "estimate_mu2_digits"): (17_608, 23),
    (classifier, "square_mu_digits"): (93, 34),
    (classifier, "estimate_sigma"): (462, 46),
    (classifier, "threshold"): (0, 46),
    (classifier, "count_classes"): (69_864, 57),
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
            seen[key] = (m.mult_gates, m.max_depth)
            return out
        return call

    for module, name in STAGES:
        monkeypatch.setattr(module, name,
                            metered((module, name), getattr(module, name)))
    with he_sim.metering() as total:
        classifier.classify_with_majority(point, db,
                                          workloads.protocol(db.n, 1, 0))
    assert seen == STAGES
    assert sum(g for g, _ in seen.values()) == total.mult_gates == 246_023
