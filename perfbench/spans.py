"""Span tracing of kishnn, installed from outside the package.

Each wrapper replaces a module attribute under the name its callers look
the function up by: a function imported by name (``from .classifier
import server_classify``) is patched in the importing module, one looked
up through its module (``interp.eval_poly_ps``) is patched on that module.
Nothing under ``src/kishnn`` changes and no private name is touched.

A span records name, start, end, parent, query id and the gates metered
while it ran.  The homomorphic operations of ``he_sim`` are called about
2,000 times per circuit, so they are not spans: each call adds its count
and time to the innermost open span (``ops``).  Self time is a span's
duration minus the time its child spans and operations cover.  Spans stay
in memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

from kishnn import classifier, cli, data_eval, he_sim, interp, primitives
from kishnn import protocol_io, ring

clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes

# Operations charged to the enclosing span rather than recorded one by one.
OPS = {
    he_sim: ("mul", "add", "sub", "rsub", "linear_combine", "slot_sum",
             "broadcast", "pack", "embed_like", "keygen", "encrypt",
             "decrypt"),
    ring: ("select_ring_params",),
    data_eval: ("select_ring_params",),
    cli: ("select_ring_params",),
}

# Spans: module -> attributes, each patched where its callers look it up.
SPANS = {
    interp: ("eval_poly_ps", "is_smaller", "build_named_tables",
             "lagrange_table"),
    primitives: ("compute_dists", "prob_avg"),
    classifier: ("estimate_mu", "estimate_mu2_digits", "square_mu_digits",
                 "estimate_sigma", "threshold", "count_classes",
                 "server_classify", "classify_with_majority"),
    data_eval: ("classify_with_majority", "leave_one_out_f1", "load_wdbc",
                "grid_dataset"),
    protocol_io: ("server_classify", "answer_query", "make_query",
                  "encode_message", "decode_message"),
}

# A query root opens a new query id for everything called beneath it.
ROOTS = {"classify_with_majority", "answer_query"}


def _tag(attr, args, result):
    """Extra value kept on a span: key ids to join client and server
    spans of one query, and message kinds and sizes on the wire."""
    if attr == "answer_query":
        return args[0].pk.hex()
    if attr == "make_query":
        return result[1].pk.hex()
    if attr == "encode_message":
        return [type(args[0]).__name__, len(result)]
    if attr == "decode_message":
        return ["received", len(args[0])]
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "qid", "tag",
                 "mult_gates", "add_gates", "depth", "child", "ops")

    def __init__(self, name, start, parent, qid):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.qid = qid
        self.tag = None
        self.mult_gates = self.add_gates = self.depth = 0
        self.child = 0.0
        self.ops = {}

    def record(self, index):
        return {"i": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "qid": self.qid,
                "tag": self.tag, "mult_gates": self.mult_gates,
                "add_gates": self.add_gates, "depth": self.depth,
                "self_s": self.end - self.start - self.child,
                "ops": self.ops}


class Tracer:
    """In-memory span recorder; span 0 stands for the whole process."""

    def __init__(self):
        self.spans = [Span("trace", clock(), None, None)]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_qid = 0
        self._patches = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = [0]
        return self._local.stack

    def _open(self, name, qid, root):
        stack = self._stack()
        parent = self.spans[stack[-1]]
        if qid is None:
            qid = parent.qid
        if qid is None and root:
            with self._lock:
                qid = self._next_qid
                self._next_qid += 1
        span = Span(name, clock(), stack[-1], qid)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return span

    def _close(self, span):
        stack = self._stack()
        stack.pop()
        span.end = clock()
        with self._lock:  # span 0 is shared by every thread
            self.spans[stack[-1]].child += span.end - span.start

    def call(self, name, fn, *args, qid=None, root=False, attr=None):
        """Run fn(*args) inside a metered span."""
        span = self._open(name, qid, root)
        try:
            with he_sim.metering() as m:
                result = fn(*args)
        finally:
            self._close(span)
        span.mult_gates, span.add_gates = m.mult_gates, m.add_gates
        span.depth = m.max_depth
        if attr is not None:
            span.tag = _tag(attr, args, result)
        return result

    def _span_wrapper(self, name, fn, attr):
        root = attr in ROOTS

        def traced(*args, **kwargs):
            return self.call(name, lambda *a: fn(*a, **kwargs), *args,
                             root=root, attr=attr)
        return traced

    def _op_wrapper(self, name, fn, attr):
        def op(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                with self._lock:
                    top = self.spans[self._stack()[-1]]
                    agg = top.ops.setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dt
                    top.child += dt
        return op

    def install(self):
        """Wrap every function in OPS and SPANS; undo with restore()."""
        for table, make in ((OPS, self._op_wrapper),
                            (SPANS, self._span_wrapper)):
            for module, attrs in table.items():
                for attr in attrs:
                    fn = getattr(module, attr)
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, make(name, fn, attr))

    def restore(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def records(self):
        self.spans[0].end = clock()
        return [s.record(i) for i, s in enumerate(self.spans)]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# Per-layer figures from span records.

# Stages of server_classify, and the call itself: time and gates of each.
STAGE_SPANS = ("primitives.compute_dists", "classifier.estimate_mu",
               "classifier.estimate_mu2_digits", "classifier.square_mu_digits",
               "classifier.estimate_sigma", "classifier.count_classes",
               "interp.is_smaller", "classifier.server_classify")
CLIENT_OPS = ("he_sim.keygen", "he_sim.encrypt", "he_sim.decrypt")


def _children(recs):
    kids = defaultdict(list)
    for r in recs:
        if r["parent"] is not None:
            kids[r["parent"]].append(r["i"])
    return kids


def _subtrees(recs, kids, roots):
    out, todo = [], list(roots)
    while todo:
        i = todo.pop()
        out.append(recs[i])
        todo.extend(kids[i])
    return out


def _is_build(r, recs, kids):
    """A build_named_tables call that missed the cache and built tables."""
    return (r["name"] == "interp.build_named_tables"
            and any(recs[c]["name"] == "interp.lagrange_table"
                    for c in kids[r["i"]]))


def _ms(spans, q, key=None):
    if key == "self":
        return 1e3 * sum(r["self_s"] for r in spans) / q
    return 1e3 * sum(r["end"] - r["start"] for r in spans) / q


def stage_gate_errors(recs):
    """(span, child sum, own count) for each server_classify span whose
    direct child spans do not account for every mult gate it metered."""
    kids = _children(recs)
    bad = []
    for r in recs:
        if r["name"] == "classifier.server_classify":
            total = sum(recs[c]["mult_gates"] for c in kids[r["i"]])
            if total != r["mult_gates"]:
                bad.append((r["i"], total, r["mult_gates"]))
    return bad


def circuit_layers(recs, roots):
    """Per-layer figures per server_classify call under the query roots.

    recs are one process's span records; roots are the indices of the
    timed query root spans in it.
    """
    kids = _children(recs)
    sub = _subtrees(recs, kids, roots)
    calls = [r for r in sub if r["name"] == "classifier.server_classify"]
    q = len(calls)
    if q == 0:
        raise RuntimeError("no server_classify span under the timed queries")
    by_name = defaultdict(list)
    for r in sub:
        by_name[r["name"]].append(r)
    ops = defaultdict(lambda: [0, 0.0])
    for r in _subtrees(recs, kids, [r["i"] for r in calls]):
        for name, (count, secs) in r["ops"].items():
            ops[name][0] += count
            ops[name][1] += secs
    he_ops = [v for k, v in ops.items() if k.startswith("he_sim.")]
    op_calls = sum(c for c, _ in he_ops)
    out = {
        "he_sim.mul.self_ms": 1e3 * ops["he_sim.mul"][1] / q,
        "he_sim.add.self_ms": 1e3 * ops["he_sim.add"][1] / q,
        "he_sim.linear_combine.self_ms":
            1e3 * ops["he_sim.linear_combine"][1] / q,
        "he_sim.op_calls": op_calls / q,
        "he_sim.us_per_op_call": 1e6 * sum(s for _, s in he_ops) / op_calls,
        "he_sim.add_gates": sum(r["add_gates"] for r in calls) / q,
        "interp.eval_poly_ps.self_ms":
            _ms(by_name["interp.eval_poly_ps"], q, "self"),
        "interp.eval_poly_ps.ms": _ms(by_name["interp.eval_poly_ps"], q),
        "interp.table_builds_per_query":
            sum(_is_build(r, recs, kids) for r in sub) / q,
        "primitives.prob_avg.ms": _ms(by_name["primitives.prob_avg"], q),
        "primitives.prob_avg.self_ms":
            _ms(by_name["primitives.prob_avg"], q, "self"),
    }
    for name in STAGE_SPANS:
        out[f"{name}.ms"] = _ms(by_name[name], q)
        out[f"{name}.mult_gates"] = (
            sum(r["mult_gates"] for r in by_name[name]) / q)
    return out


def process_layers(recs):
    """Figures over a whole process: table builds, set-up, ring selection."""
    kids = _children(recs)
    builds = sum(_is_build(r, recs, kids) for r in recs)
    ring_calls, ring_secs = 0, 0.0
    for r in recs:
        count, secs = r["ops"].get("ring.select_ring_params", (0, 0.0))
        ring_calls += count
        ring_secs += secs
    if not builds or not ring_calls:
        raise RuntimeError("trace holds no table build or ring selection")
    setup = [r for r in recs
             if r["name"] in ("data_eval.load_wdbc", "data_eval.grid_dataset")]
    lagrange = [r for r in recs if r["name"] == "interp.lagrange_table"]
    return {
        "interp.lagrange_table.ms": _ms(lagrange, builds),
        "data_eval.setup_ms": _ms(setup, 1),
        "ring.select_ring_params.us": 1e6 * ring_secs / ring_calls,
    }


def client_ms(recs, roots):
    """keygen + encrypt + decrypt time per query root, in ms."""
    secs = sum(r["ops"].get(name, (0, 0.0))[1]
               for r in _subtrees(recs, _children(recs), roots)
               for name in CLIENT_OPS)
    return 1e3 * secs / len(roots)


def wire_layers(recs, window, queries):
    """Codec time, bytes and error replies per query inside a time window."""
    t0, t1 = window
    codec = [r for r in recs if t0 <= r["start"] <= t1 and r["name"] in
             ("protocol_io.encode_message", "protocol_io.decode_message")]
    return {
        "protocol_io.codec_us": 1e3 * _ms(codec, queries),
        "protocol_io.bytes_per_query": sum(r["tag"][1] for r in codec) / queries,
        "protocol_io.error_replies":
            sum(1 for r in codec if r["tag"][0] == "ErrorMessage"),
    }
