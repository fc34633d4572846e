import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kishnn import classifier, data_eval, he_sim, primitives
from kishnn.classifier import LabeledDatabase
from kishnn.data_eval import (DataFormatError, RawDataset, f1_score,
                              gaussian_sd_diagnostic, grid_dataset,
                              leave_one_out_f1, load_wdbc, plain_knn,
                              project_2d, quantize)
from kishnn.ring import ParameterError, RingParams, select_ring_params

from conftest import kappa_of_run



# --------------------------------------------------------------- loading


def test_load_wdbc_canonical_counts(wdbc_path):
    raw = load_wdbc(wdbc_path)
    assert raw.n == 569
    assert int(raw.labels.sum()) == 212          # malignant
    assert int((1 - raw.labels).sum()) == 357    # benign
    assert raw.features.shape == (569, 30)


def test_load_wdbc_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="no records"):
        load_wdbc(path)


def test_load_wdbc_wrong_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    good = "1,M," + ",".join(["1.0"] * 30)
    short = "2,B," + ",".join(["1.0"] * 29)
    path.write_text(good + "\n" + short + "\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_wdbc(path)


def test_load_wdbc_bad_diagnosis_and_float(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,X," + ",".join(["1.0"] * 30) + "\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_wdbc(path)
    path.write_text("1,M," + ",".join(["1.0"] * 29) + ",zap\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_wdbc(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_wdbc_refuses_non_finite_features(tmp_path, value):
    # once accepted, then evaluate failed in the projection's SVD
    path = tmp_path / "bad.csv"
    good = "1,M," + ",".join(["1.0"] * 30)
    path.write_text(good + "\n2,B," + ",".join(["1.0"] * 29 + [value]) + "\n")
    with pytest.raises(DataFormatError,
                       match=re.escape(f"{path}: line 2") + ".*finite"):
        load_wdbc(path)


# ------------------------------------------------------------ projection


def synthetic_raw(n_per, offset, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 1, size=(n_per, 30))
    b = rng.normal(0, 1, size=(n_per, 30))
    b[:, 0] += offset  # separable along feature 1
    feats = np.vstack([a, b])
    diags = ("B",) * n_per + ("M",) * n_per
    ids = tuple(str(i) for i in range(2 * n_per))
    return RawDataset(ids, diags, feats)


def test_projection_separates_separable_classes():
    raw = synthetic_raw(50, offset=20.0)
    proj = project_2d(raw)
    axis1 = proj[:, 0]
    assert axis1[raw.labels == 1].min() > axis1[raw.labels == 0].max()


def test_projection_identical_class_means_falls_back_to_the_first_axis():
    rng = np.random.default_rng(1)
    feats = np.vstack([rng.normal(0, 1, size=(40, 30))] * 2)
    raw = RawDataset(tuple(map(str, range(80))),
                     ("B",) * 40 + ("M",) * 40, feats)
    with pytest.warns(UserWarning, match="class means coincide"):
        proj = project_2d(raw)  # must not crash; direction is arbitrary
    assert proj.shape == (80, 2) and np.isfinite(proj).all()


def test_projection_singular_scatter_uses_ridge_path():
    # a constant feature standardizes to a zero column, so the within-class
    # scatter has a zero row and column and solve() refuses it
    raw = synthetic_raw(50, offset=3.0)
    feats = raw.features.copy()
    feats[:, 7] = 4.2
    raw = RawDataset(raw.ids, raw.diagnoses, feats)
    with pytest.warns(UserWarning, match="within-class scatter is singular"):
        proj = project_2d(raw)
    assert proj.shape == (100, 2) and np.isfinite(proj).all()


def test_projection_axes_deterministic_sign(wdbc_path):
    raw = load_wdbc(wdbc_path)
    p1 = project_2d(raw)
    p2 = project_2d(raw)
    assert (p1 == p2).all()


def test_wdbc_projection_linearly_separable_to_90_percent(wdbc_path):
    raw = load_wdbc(wdbc_path)
    axis1 = project_2d(raw)[:, 0]
    labels = raw.labels
    # threshold sweep oracle on axis 1
    best = 0
    for t in np.unique(axis1):
        for sgn in (1, -1):
            acc = ((sgn * axis1 > sgn * t) == labels).mean()
            best = max(best, acc)
    assert best >= 0.90


# ---------------------------------------------------------- quantization


def test_quantize_endpoints_and_midpoint():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    cells, meta = quantize(pts, 11)
    assert list(cells[0]) == [0, 0]
    assert list(cells[1]) == [10, 10]
    assert list(cells[2]) == [5, 5]


def test_quantize_degenerate_axis_warns():
    pts = np.array([[1.0, 2.0], [1.0, 5.0]])
    with pytest.warns(UserWarning, match="degenerate"):
        cells, _ = quantize(pts, 10)
    assert list(cells[:, 0]) == [0, 0]


@given(st.integers(2, 64), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_quantize_dequantize_error_bounded(g, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-5, 5, size=(100, 2))
    cells, meta = quantize(pts, g)
    assert cells.min() >= 0 and cells.max() <= g - 1
    for axis in range(2):
        offset, scale = meta[axis]
        if scale == 0:
            continue
        back = cells[:, axis] / scale + offset
        assert np.abs(back - pts[:, axis]).max() <= 0.5 / scale + 1e-9


# -------------------------------------------------------------- plain kNN


def brute_knn(points, labels, q, k):
    scored = sorted((abs(int(p[0]) - q[0]) + abs(int(p[1]) - q[1]), i)
                    for i, p in enumerate(points))
    chosen = [labels[i] for _, i in scored[:k]]
    ones = sum(chosen)
    return 1 if 2 * ones > k else 0


def test_plain_knn_identity_point():
    db = LabeledDatabase(np.array([[5, 5], [1, 1], [9, 9]]),
                         np.array([1, 0, 0]))
    assert plain_knn(db, (5, 5), 1) == 1


def test_plain_knn_k_equals_n_is_global_majority():
    db = LabeledDatabase(np.array([[1, 1], [2, 2], [3, 3]]),
                         np.array([1, 1, 0]))
    assert plain_knn(db, (9, 9), 3) == 1


def test_plain_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = 30
        pts = rng.integers(0, 50, size=(n, 2))
        labels = rng.integers(0, 2, size=n)
        q = tuple(rng.integers(0, 50, size=2))
        k = int(rng.integers(1, n + 1))
        db = LabeledDatabase(pts, labels)
        assert plain_knn(db, q, k) == brute_knn(pts, labels, q, k)


@pytest.mark.parametrize("k", [-3, 0])
def test_plain_knn_refuses_k_below_one(k):
    # -3 used to vote over all but the last three neighbours, and 0 over
    # none; secure mode refuses both
    db = LabeledDatabase(np.array([[1, 1], [2, 2], [3, 3]]),
                         np.array([1, 1, 0]))
    with pytest.raises(ParameterError, match="1 <= k"):
        plain_knn(db, (9, 9), k)


def test_plain_knn_class_tie_resolves_to_zero():
    db = LabeledDatabase(np.array([[0, 1], [1, 0]]), np.array([0, 1]))
    assert plain_knn(db, (0, 0), 2) == 0


# ------------------------------------------------------------------- F1


def test_f1_properties():
    a = np.array([1, 1, 0, 0], dtype=bool)
    b = np.array([1, 0, 1, 0], dtype=bool)
    assert f1_score(a, b) == f1_score(b, a)
    assert f1_score(a, a) == 1.0
    assert f1_score(a, ~a) == 0.0
    assert f1_score(np.zeros(4, bool), np.zeros(4, bool)) == 0.0


@given(st.lists(st.booleans(), min_size=1, max_size=30),
       st.lists(st.booleans(), min_size=1, max_size=30))
def test_f1_range_property(xs, ys):
    n = min(len(xs), len(ys))
    v = f1_score(np.array(xs[:n]), np.array(ys[:n]))
    assert 0.0 <= v <= 1.0


# ------------------------------------------------------- leave one out


def test_loo_perfect_db_scores_one():
    pts = np.vstack([np.full((10, 2), 2), np.full((10, 2), 90)])
    labels = np.array([0] * 10 + [1] * 10)
    gd = data_eval.GridDataset(pts, labels, grid=100,
                               quant_meta=((0.0, 1.0), (0.0, 1.0)))
    report = leave_one_out_f1(gd, 3, "plain")
    assert report.f1 == 1.0


def test_loo_all_benign_predictions_scores_zero():
    # the lone malignant point's neighbors are all benign
    pts = np.vstack([np.full((12, 2), 5), [[6, 6]]])
    labels = np.array([0] * 12 + [1])
    gd = data_eval.GridDataset(pts, labels, grid=100,
                               quant_meta=((0.0, 1.0), (0.0, 1.0)))
    report = leave_one_out_f1(gd, 3, "plain")
    assert report.f1 == 0.0


def test_loo_refuses_an_unknown_mode_and_two_points():
    pts, labels = np.array([[1, 2], [3, 4], [5, 6]]), np.array([0, 1, 0])
    gd = data_eval.GridDataset(pts, labels, grid=100,
                               quant_meta=((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ParameterError, match="unknown mode 'fast'"):
        leave_one_out_f1(gd, 1, "fast")
    two = data_eval.GridDataset(pts[:2], labels[:2], grid=100,
                                quant_meta=gd.quant_meta)
    with pytest.raises(ParameterError, match="at least three points"):
        leave_one_out_f1(two, 1, "plain")


@pytest.mark.parametrize("mode", ["plain", "secure"])
def test_loo_on_eight_points_returns_a_report(mode):
    # fewer than ten points used to classify every point and then raise
    # from a Gaussianity diagnostic the report no longer carries
    rng = np.random.default_rng(5)
    gd = data_eval.GridDataset(rng.integers(0, 20, size=(8, 2)),
                               np.array([0, 1] * 4), grid=20,
                               quant_meta=((0.0, 1.0), (0.0, 1.0)))
    report = leave_one_out_f1(gd, 3, mode, repetitions=1)
    assert report.per_point_predictions.shape == (8,)
    assert set(report.per_point_predictions.tolist()) <= {0, 1}
    assert 0.0 <= report.f1 <= 1.0


def test_loo_plain_matches_paper_span(wdbc_path):
    raw = load_wdbc(wdbc_path)
    gd = grid_dataset(raw, 100)
    report = leave_one_out_f1(gd, 13, "plain")
    assert abs(report.f1 - 0.98) <= 0.015


def test_loo_secure_is_bit_exact_against_recorded_values(wdbc_path):
    # predictions and depth recorded from the implementation before its
    # per-call overhead was cut, and must come out the same; the gates
    # were re-recorded when the moment coins and the distance map began
    # to share the powers of the distances, 122 fewer per slot at P = 997,
    # again when sigma lost its third selector, one fewer per query,
    # again when the distances' sign test began to read the powers of the
    # packed query, 61 fewer per coordinate slot less 61 per coordinate,
    # again when every table took its cheapest split no deeper than the
    # square one and sigma's digit tables began to share powers, again
    # when the tables on the distances were charged at their degree on
    # the distances' span, 498 instead of 996, and again when each powers
    # record took one split for all the tables that read it, and again
    # when every table took power-of-two giant steps and the packed query
    # the span of the grid, and again when the distances became one |.|
    # table and mu* took the span [0, dist_bound], and again when sigma's
    # low-digit roots moved onto mu*'s powers, 82 fewer per query, and
    # again when the sign tests of no powers record, the count's and the
    # final compare's, took the odd schedule, 11 fewer per slot
    gd = grid_dataset(load_wdbc(wdbc_path), 250)
    head = data_eval.GridDataset(gd.points[:60], gd.labels[:60], gd.grid,
                                 gd.quant_meta)
    report = leave_one_out_f1(head, 13, "secure", repetitions=1, seed=0)
    digest = hashlib.sha256(
        bytes(int(b) for b in report.per_point_predictions)).hexdigest()
    assert digest == ("aaf7b08f1c42d29f5d17d54954d84fbc"
                      "2f9f110f01d1840e8db1219dcb4e57f1")
    assert report.metrics.mult_gates == 596_640
    assert report.metrics.max_depth == 57


def _wdbc_head(wdbc_path, n, grid=100):
    gd = grid_dataset(load_wdbc(wdbc_path), grid)
    return data_eval.GridDataset(gd.points[:n], gd.labels[:n], gd.grid,
                                 gd.quant_meta)


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_blocked_leave_one_out_is_the_point_by_point_one(wdbc_path, seed,
                                                         reps, monkeypatch):
    # 37 points: two full blocks and a short one
    gd = _wdbc_head(wdbc_path, 37)
    assert gd.n % data_eval._LOO_BLOCK
    db = gd.database()
    ring = select_ring_params(gd.grid, dim=2, n=gd.n - 1)
    expect = []
    for i in range(gd.n):
        pp = classifier.make_protocol_params(
            ring, k=5, n=gd.n - 1, repetitions=reps,
            rng_seed=primitives.derive_seed(seed, f"loo-{i}"))
        with he_sim.metering() as m:
            bit = classifier.classify_with_majority(db.points[i],
                                                    db.without(i), pp)
        expect.append((bit, m.mult_gates, m.max_depth))
    calls = []
    classify = data_eval.classify_with_majority

    def metered(*args):
        with he_sim.metering() as m:
            bit = classify(*args)
        calls.append((bit, m.mult_gates, m.max_depth))
        return bit

    monkeypatch.setattr(data_eval, "classify_with_majority", metered)
    report = leave_one_out_f1(gd, 5, "secure", repetitions=reps, seed=seed)
    assert calls == expect
    assert report.per_point_predictions.tolist() == [b for b, _, _ in expect]
    assert report.f1 == f1_score(report.per_point_predictions, gd.labels)


def test_a_leave_one_out_pass_plans_each_block_once(wdbc_path, monkeypatch):
    # the pass plans a block's coins before its queries run, so no query
    # plans any; the store never holds more than PLAN_STORE plans.  20
    # points: a full block and a short one, whose plans the next pass's
    # first block must not push out of the store
    gd = _wdbc_head(wdbc_path, 20)
    monkeypatch.setattr(primitives, "_plans", {})
    plan, classify, events = primitives._plan_coins, \
        data_eval.classify_with_majority, []

    def counted(rows, n, dist_bound):
        events.append(("plan", len(rows)))
        return plan(rows, n, dist_bound)

    def watched(*args):
        events.append(("query", len(primitives._plans)))
        bit = classify(*args)
        events.append(("done", len(primitives._plans)))
        return bit

    monkeypatch.setattr(primitives, "_plan_coins", counted)
    monkeypatch.setattr(data_eval, "classify_with_majority", watched)
    leave_one_out_f1(gd, 5, "secure", repetitions=1, seed=2)
    plans = [e for e in events if e[0] == "plan"]
    assert plans == [("plan", 16), ("plan", 4)]
    queries = [e for e in events if e[0] != "plan"]
    assert len(queries) == 2 * 20
    assert all(size <= primitives.PLAN_STORE for _, size in queries)
    assert queries[:2] == [("query", 2 * data_eval._LOO_BLOCK),
                           ("done", 2 * data_eval._LOO_BLOCK)]
    assert data_eval._LOO_BLOCK == primitives.PLAN_STORE // 2
    # a second pass plans its blocks again, and still no query plans
    del events[:]
    leave_one_out_f1(gd, 5, "secure", repetitions=1, seed=2)
    assert [e[0] for e in events][:3] == ["plan", "query", "done"]
    assert [e for e in events if e[0] == "plan"] == plans


def test_a_leave_one_out_pass_never_compares_rings(wdbc_path, monkeypatch):
    # a pass selects its ring again, as the selected ring it was, so the
    # table and map caches find it without comparing it with an equal one
    gd = _wdbc_head(wdbc_path, 20)
    leave_one_out_f1(gd, 5, "secure", repetitions=1)
    compared = []
    eq = RingParams.__eq__

    def counted(a, b):
        compared.append(1)
        return eq(a, b)

    monkeypatch.setattr(RingParams, "__eq__", counted)
    leave_one_out_f1(gd, 5, "secure", repetitions=1)
    assert compared == []


def _wide_query(wdbc_path):
    """WDBC grown cyclically to 5,690 points, the widest n-sweep shape,
    with one query point and one repetition."""
    base = grid_dataset(load_wdbc(wdbc_path), 250).database()
    idx = np.arange(10 * base.n) % base.n
    db = LabeledDatabase(base.points[idx], base.labels[idx])
    point = np.random.default_rng(27).integers(0, 250, size=2)
    pp = classifier.make_protocol_params(
        select_ring_params(250, dim=2, n=db.n), k=13, n=db.n,
        repetitions=1, rng_seed=27)
    return db, point, pp


def test_wide_query_is_bit_exact_against_recorded_values(wdbc_path):
    # recorded from the implementation that reduced every op's result,
    # the gates re-recorded when the tables on the distances began to
    # share their powers, when the distances' sign test began to read the
    # powers of the packed query, and when every table took its cheapest
    # split no deeper than the square one and sigma's digit tables began
    # to share powers, when the tables on the distances were charged at
    # their degree on the distances' span, when each powers record took
    # one split for all its tables, when every table took power-of-two
    # giant steps and the packed query the span of the grid, when the
    # distances became one |.| table and mu* took the span
    # [0, dist_bound], when sigma's low-digit roots moved onto mu*'s
    # powers, and when the count's and the final compare's sign tests
    # took the odd schedule.  The run's threshold selects
    # 140 points, all of class 1: the class counts stay below P/2 = 498,
    # so the pinned bit is the true majority
    db, point, pp = _wide_query(wdbc_path)
    with he_sim.metering() as m:
        bit = classifier.classify_with_majority(point, db, pp)
    assert (bit, m.mult_gates, m.max_depth) == (1, 933_428, 57)
    run_seed = classifier.repetition_seeds(pp)[0]
    assert kappa_of_run(db, point, pp, run_seed) == 140
    assert 2 * 140 < pp.ring.modulus


def test_wide_query_reduces_its_slots_only_where_they_are_read(
        wdbc_path, monkeypatch):
    # every slot this query looks up lies in [-P, P), where values[v]
    # already reads the entry of v mod P, so no pass reduces, over n slots
    # or over one.  Reducing wherever a slot's bound reached P took 6
    # n-slot and 7 one-slot passes; reducing every op's result, 26
    db, point, pp = _wide_query(wdbc_path)
    mod, sizes = he_sim._mod, []

    def counted(v, modulus):
        sizes.append(v.size)
        return mod(v, modulus)

    monkeypatch.setattr(he_sim, "_mod", counted)
    assert classifier.classify_with_majority(point, db, pp) == 1
    assert sizes == []


# ------------------------------------------------------------ diagnostic


def test_gaussian_diagnostic_on_gaussian_sample():
    rng = np.random.default_rng(0)
    n = 10000
    # place points on a line so L1 distance to 0 is the coordinate itself
    xs = np.clip(np.rint(rng.normal(500, 60, size=n)), 0, 999).astype(int)
    db = LabeledDatabase(np.column_stack([xs, np.zeros(n, int)]),
                         np.zeros(n, dtype=np.int64))
    sd = gaussian_sd_diagnostic(db, (0, 0))
    assert sd <= 0.01


def test_gaussian_diagnostic_degenerate_warns():
    db = LabeledDatabase(np.full((12, 2), 4), np.zeros(12, dtype=np.int64))
    with pytest.warns(UserWarning, match="degenerate"):
        assert gaussian_sd_diagnostic(db, (0, 0)) == 1.0


def test_distance_histogram_counts():
    db = LabeledDatabase(np.array([[0, 1], [1, 0], [2, 2]]),
                         np.zeros(3, dtype=np.int64))
    rows = data_eval.distance_histogram(db, (0, 0))
    assert rows == [(1, 2), (4, 1)]
