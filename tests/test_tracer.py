"""The benchmark's span tracer (perfbench/spans.py) against this source:
every function it wraps still exists, the stage spans of a traced query
account for every mult gate of server_classify, and the codec spans of a
served query see every byte on the wire."""

import importlib.util
import pathlib
import threading

from kishnn import classifier, protocol_io
from kishnn.classifier import LabeledDatabase, make_protocol_params
from kishnn.ring import select_ring_params

from conftest import two_cluster_db

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
