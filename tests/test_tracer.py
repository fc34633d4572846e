"""The benchmark's span tracer (perfbench/spans.py) against this source:
every function it wraps still exists, and the stage spans of a traced
query account for every mult gate of server_classify."""

import importlib.util
import pathlib

from kishnn import classifier
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
