"""The benchmark's span tracer (perfbench/spans.py) against this source:
every function it wraps still exists, the stage spans of a traced query
or leave-one-out pass account for every mult gate of server_classify, and
the codec spans of a served query see every byte on the wire."""

import dataclasses
import importlib.util
import pathlib
import threading

import numpy as np

from kishnn import classifier, data_eval, interp, protocol_io
from kishnn import ring as kring
from kishnn.classifier import LabeledDatabase, make_protocol_params
from kishnn.ring import select_ring_params

from conftest import WDBC_PATH, two_cluster_db

SPANS_PY = pathlib.Path(__file__).parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_this_source():
    spans = _load_spans()
    pts, labels = two_cluster_db(20, 100, gap=1)
    db = LabeledDatabase(pts, labels)
    ring = select_ring_params(100, dim=2, n=db.n)
    pp = make_protocol_params(ring, k=5, n=db.n, repetitions=3)
    untraced = classifier.classify_with_majority
    tracer = spans.Tracer()
    try:
        tracer.install()
        classifier.classify_with_majority((3, 4), db, pp)
    finally:
        tracer.restore()
    assert classifier.classify_with_majority is untraced
    recs = tracer.records()
    assert set(spans.STAGE_SPANS) <= {r["name"] for r in recs}
    assert spans.stage_gate_errors(recs) == []


def test_traced_leave_one_out_accounts_for_every_gate():
    # loo_g250's path: held-out databases with derived operands, fresh
    # coin plans for every query
    spans = _load_spans()
    pts, labels = two_cluster_db(20, 100, gap=1)
    gd = data_eval.GridDataset(pts, labels, 100, ((0.0, 1.0), (0.0, 1.0)))
    untraced = data_eval.leave_one_out_f1(gd, 5, "secure", repetitions=1)
    tracer = spans.Tracer()
    try:
        tracer.install()
        traced = data_eval.leave_one_out_f1(gd, 5, "secure", repetitions=1)
    finally:
        tracer.restore()
    recs = tracer.records()
    assert set(spans.STAGE_SPANS) <= {r["name"] for r in recs}
    assert spans.stage_gate_errors(recs) == []
    assert sum(r["name"] == "classifier.server_classify"
               for r in recs) == gd.n
    assert np.array_equal(traced.per_point_predictions,
                          untraced.per_point_predictions)


def test_codec_spans_see_every_wire_byte():
    # read_message decodes what it framed through protocol_io's
    # decode_message, which the tracer wraps for the benchmark's
    # codec_us and bytes_per_query
    spans = _load_spans()
    pts, labels = two_cluster_db(20, 100, gap=1)
    db = LabeledDatabase(pts, labels)
    ring = select_ring_params(100, dim=2, n=db.n)
    pp = make_protocol_params(ring, k=5, n=db.n, repetitions=5)
    tracer = spans.Tracer()
    try:
        tracer.install()
        client_end, server_end = protocol_io.loopback_pair()
        server = threading.Thread(target=protocol_io.run_server,
                                  args=(server_end, db, pp))
        server.start()
        with client_end:
            bit = protocol_io.run_client(client_end, (3, 4), pp)
        server.join(timeout=10)
    finally:
        tracer.restore()
    assert not server.is_alive() and bit in (0, 1)
    tags = [r["tag"] for r in tracer.records() if r["name"] in
            ("protocol_io.encode_message", "protocol_io.decode_message")]
    assert sorted(tags) == [["QueryMessage", 102], ["ResponseMessage", 120],
                            ["received", 102], ["received", 120]]


def test_a_traced_cold_setup_gives_the_process_layers():
    # loo_g250's set-up with the table memo cleared: the tracer must see
    # each table build through interp.lagrange_table, and a ring selection
    spans = _load_spans()
    interp.build_named_tables.cache_clear()
    tracer = spans.Tracer()
    try:
        tracer.install()
        gd = data_eval.grid_dataset(data_eval.load_wdbc(WDBC_PATH), 250)
        db = gd.database()
        rest = db.without(0)
        ring = kring.select_ring_params(250, dim=2, n=rest.n)
        pp = make_protocol_params(ring, k=13, n=rest.n, repetitions=1)
        classifier.classify_with_majority(db.points[0], rest, pp)
    finally:
        tracer.restore()
    recs = tracer.records()
    layers = spans.process_layers(recs)
    assert sum(r["name"] == "interp.lagrange_table" for r in recs) == len(
        dataclasses.fields(interp.NamedTables)) - 1
    assert layers["interp.lagrange_table.ms"] > 0
    assert layers["data_eval.setup_ms"] > 0
