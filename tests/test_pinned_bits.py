"""The benchmark's three shapes at grid 250 and k = 13, pinned: the
predictions (perfbench/workloads.digest, the first 16 hex digits of
sha256 over the prediction bytes), mult gates per query and depth.  A
change to how the plaintext side is prepared or cached must leave every
one of these exactly as recorded."""

import importlib
import pathlib

import pytest

from kishnn import classifier, data_eval, he_sim

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("reps, seed, digest, gates", [
    (1, 0, "8f84e8d50cbbe252", 315_320),
    (1, 1, "37e3fce361bed2d8", 315_320),
    (5, 0, "3a3543f0a2d0a006", 944_984),
    (5, 1, "f5ab5f2d1d6611a6", 944_984),
])
def test_leave_one_out_bits_are_pinned(workloads, reps, seed, digest, gates):
    gd = workloads.load_grid()
    report = data_eval.leave_one_out_f1(gd, workloads.K, "secure",
                                        repetitions=reps, seed=seed)
    assert workloads.digest(report.per_point_predictions) == digest
    assert report.metrics.mult_gates == gates * gd.n
    assert report.metrics.max_depth == 68


def test_n_sweep_bits_are_pinned(workloads):
    # WDBC x j for j = 1..10, one query point per size from default_rng(0)
    bits, gates = [], []
    for db, point in workloads.setup_nsweep(0, False):
        with he_sim.metering() as m:
            bits.append(classifier.classify_with_majority(
                point, db, workloads.protocol(db.n, 1, 0)))
        gates.append(m.mult_gates)
        assert m.max_depth == 68
    assert workloads.digest(bits) == "3192b11429125bfa"
    assert sum(gates) == 10 * 1_734_391


def test_served_shape_gates_are_pinned(workloads):
    db = workloads.load_grid().database()
    with he_sim.metering() as m:
        classifier.classify_with_majority(
            db.points[0], db, workloads.protocol(db.n, workloads.SERVE_REPS, 0))
    assert (db.n, m.mult_gates, m.max_depth) == (569, 946_642, 68)
