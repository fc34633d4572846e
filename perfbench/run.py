"""kishnn benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload loo_g250 --seed 0 --seconds 30 --trace 0

Run from a source checkout; the program is imported from src/.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones from a traced
run (see README.md in this directory).  --short shrinks the LOO and
n-sweep inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "mult_gates_per_query": "count",
    "depth": "count",
}

PER_LAYER = {
    "he_sim.mul.self_ms": "ms",
    "he_sim.add.self_ms": "ms",
    "he_sim.linear_combine.self_ms": "ms",
    "he_sim.op_calls": "count",
    "he_sim.us_per_op_call": "us",
    "he_sim.add_gates": "count",
    "he_sim.client_ms": "ms",
    "interp.eval_poly_ps.self_ms": "ms",
    "interp.eval_poly_ps.ms": "ms",
    "interp.table_builds_per_query": "count",
    "interp.lagrange_table.ms": "ms",
    "interp.is_smaller.ms": "ms",
    "interp.is_smaller.mult_gates": "count",
    "primitives.compute_dists.ms": "ms",
    "primitives.compute_dists.mult_gates": "count",
    "primitives.prob_avg.ms": "ms",
    "primitives.prob_avg.self_ms": "ms",
    "classifier.estimate_mu.ms": "ms",
    "classifier.estimate_mu.mult_gates": "count",
    "classifier.estimate_mu2_digits.ms": "ms",
    "classifier.estimate_mu2_digits.mult_gates": "count",
    "classifier.square_mu_digits.ms": "ms",
    "classifier.square_mu_digits.mult_gates": "count",
    "classifier.estimate_sigma.ms": "ms",
    "classifier.estimate_sigma.mult_gates": "count",
    "classifier.count_classes.ms": "ms",
    "classifier.count_classes.mult_gates": "count",
    "classifier.server_classify.ms": "ms",
    "classifier.server_classify.mult_gates": "count",
    "protocol_io.bytes_per_query": "count",
    "protocol_io.error_replies": "count",
    "data_eval.setup_ms": "ms",
    "ring.select_ring_params.us": "us",
    "bench.trace_overhead": "ratio",
}

WORKLOADS = ("loo_g250", "serve_g250", "nsweep_g250")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    return p.parse_args(argv)


class Result:
    def __init__(self):
        self.metrics = {}      # declared metrics, name -> value
        self.report = {}       # further figures, name -> (value, unit)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add_phase(self, phase):
        self.attempted += phase.attempted
        self.failed += phase.failed
        self.problems += phase.problems


def nearest_rank(values, q):
    """The q-quantile by nearest rank: at least (1-q)*n values lie above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values):
    """(label, value) of the highest of p90, p75 and p50 that has at least
    ten samples beyond it (p50 when none has)."""
    n = len(values)
    q = next((q for q in (0.9, 0.75) if n - math.ceil(q * n) >= 10), 0.5)
    return f"p{round(100 * q)}", nearest_rank(values, q)


def end_to_end(res, phase, setup_s):
    """Declared end-to-end metrics of one untraced phase, plus the tail.

    The tail latency is reported, not declared: an open loop's tail
    doubles any slowdown of a shared machine, and on serve_g250 it rests on
    ~45 queries, so it spreads too far across runs for a bound of 0.25.
    """
    lat = [1e3 * s for s in phase.latencies]
    res.metrics = {
        "setup_s": setup_s,
        "queries_per_s": (phase.attempted - phase.failed) / phase.elapsed,
        "latency_p50_ms": statistics.median(lat),
        "mult_gates_per_query": phase.gates,
        "depth": phase.depth,
    }
    label, value = tail(lat)
    res.report[f"latency_{label}_ms"] = (value, "ms")
    res.report["latency_samples"] = (len(lat), "count")


def run_closed(name, seed, seconds, short, traced):
    """loo_g250 and nsweep_g250: in-process closed loops."""
    import spans
    import workloads
    phase_fn = {"loo_g250": workloads.loo_phase,
                "nsweep_g250": workloads.nsweep_phase}[name]
    res = Result()
    if not traced:
        setup_s = workloads.probe_setup(name, seed, short)
        phase = phase_fn(seed, seconds, short)
        res.add_phase(phase)
        end_to_end(res, phase, setup_s)
        res.report.update(phase.report)
        return res
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_phase = phase_fn(seed, seconds, short)
    finally:
        tracer.restore()
    plain = phase_fn(seed, seconds, short)
    for phase in (traced_phase, plain):
        res.add_phase(phase)
    recs = tracer.records()
    workloads.OUT.mkdir(exist_ok=True)
    tracer.dump(workloads.OUT / f"{name}-seed{seed}-main.jsonl")
    t0, t1 = traced_phase.window
    roots = [r["i"] for r in recs
             if r["name"] == "classifier.classify_with_majority"
             and t0 <= r["start"] <= t1]
    res.problems += [f"stage gates {got} != server_classify {want}"
                     for _, got, want in spans.stage_gate_errors(recs)]
    qps = [(p.attempted - p.failed) / p.elapsed for p in (traced_phase, plain)]
    res.metrics = {
        **spans.circuit_layers(recs, roots),
        **spans.process_layers(recs),
        "he_sim.client_ms": spans.client_ms(recs, roots),
        "protocol_io.bytes_per_query": 0,
        "protocol_io.error_replies": 0,
        "bench.trace_overhead": qps[1] / qps[0] - 1.0,
    }
    res.report.update(traced_phase.report)
    return res


def run_serve(seed, seconds, traced):
    """serve_g250: a kishnn server subprocess under an open-loop schedule."""
    import spans
    import workloads
    res = Result()
    inputs = workloads.ServeInputs(seed, seconds)
    if not traced:
        startups, setups = [], []
        for k in range(workloads.SETUP_SAMPLES):
            server, startup, setup = inputs.start(seed, f"{seed}-{k}")
            startups.append(startup)
            setups.append(setup)
            if k < workloads.SETUP_SAMPLES - 1:
                server.stop()
        try:
            phase = workloads.serve_phase(inputs, server)
        finally:
            server.stop()
        res.add_phase(phase)
        end_to_end(res, phase, statistics.median(setups))
        res.report.update(phase.report)
        res.report["cli.startup_s"] = (statistics.median(startups), "s")
        return res

    server_trace = workloads.OUT / f"serve_g250-seed{seed}-server.jsonl"
    server, startup, _ = inputs.start(seed, f"{seed}-traced", server_trace)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_phase = workloads.serve_phase(inputs, server, tracer)
    finally:
        tracer.restore()
        server.stop()
    server, _, _ = inputs.start(seed, f"{seed}-plain")
    try:
        plain = workloads.serve_phase(inputs, server)
    finally:
        server.stop()
    for phase in (traced_phase, plain):
        res.add_phase(phase)
    gen = tracer.records()
    tracer.dump(workloads.OUT / f"serve_g250-seed{seed}-main.jsonl")
    srv = spans.load(server_trace)
    by_key = {r["tag"]: r for r in srv
              if r["name"] == "protocol_io.answer_query"}
    keys = {r["qid"]: r["tag"] for r in gen
            if r["name"] == "protocol_io.make_query"}
    answers = {qid: by_key[key] for qid, key in keys.items() if key in by_key}
    if len(answers) != inputs.count:
        res.problems.append(f"{len(answers)} of {inputs.count} queries "
                            "found in the server trace")
    for qid, r in answers.items():
        if r["mult_gates"] != inputs.gates[qid]:
            res.problems.append(f"query {qid}: served {r['mult_gates']} gates, "
                                f"reference {inputs.gates[qid]}")
    res.problems += [f"stage gates {got} != server_classify {want}"
                     for _, got, want in spans.stage_gate_errors(srv)]
    roots = [r["i"] for r in answers.values()]
    clients = [r["i"] for r in gen if r["name"] == "client.query"]
    waits = [1e3 * (r["start"] - traced_phase.outcomes[qid].connected)
             for qid, r in answers.items()]
    p50 = [statistics.median(p.latencies) for p in (traced_phase, plain)]
    wire = spans.wire_layers(srv, traced_phase.window, len(roots))
    wait_label, wait_tail = tail(waits)
    res.metrics = {
        **spans.circuit_layers(srv, roots),
        **spans.process_layers(srv),
        "he_sim.client_ms": spans.client_ms(gen, clients),
        "protocol_io.bytes_per_query": wire["protocol_io.bytes_per_query"],
        "protocol_io.error_replies": wire["protocol_io.error_replies"],
        "bench.trace_overhead": p50[0] / p50[1] - 1.0,
    }
    res.report.update(traced_phase.report)
    res.report.update({
        "protocol_io.answer_query.ms":
            (1e3 * statistics.mean(r["end"] - r["start"]
                                   for r in answers.values()), "ms"),
        "protocol_io.queue_wait_ms_p50": (statistics.median(waits), "ms"),
        f"protocol_io.queue_wait_ms_{wait_label}": (wait_tail, "ms"),
        "protocol_io.codec_us": (wire["protocol_io.codec_us"], "us"),
        "cli.startup_s": (startup, "s"),
    })
    return res


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "kishnn" / "__init__.py",
                           ROOT / "tests" / "data" / "wdbc.csv")
               if not p.is_file()]
    if missing:
        print(f"error: not a kishnn checkout, missing {missing[0]}",
              file=sys.stderr)
        return 2
    # OpenBLAS's thread pool adds 0-0.25 s at random to the first float
    # linear-algebra call (the WDBC projection) on a 2-core machine; the
    # circuit itself never calls BLAS.  Children inherit the setting.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "serve_g250":
        res = run_serve(args.seed, args.seconds, bool(args.trace))
    else:
        res = run_closed(args.workload, args.seed, args.seconds, args.short,
                         bool(args.trace))
    declared = PER_LAYER if args.trace else END_TO_END
    if set(res.metrics) != set(declared):
        raise RuntimeError("metrics differ from the declared set: "
                           f"{sorted(set(res.metrics) ^ set(declared))}")
    res.report.setdefault("failed_share", (res.failed / res.attempted, "ratio"))
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} queries={res.attempted}")
    for name, unit in declared.items():
        print(f"{name:42s} {res.metrics[name]!r:>24} {unit}")
    for name, (value, unit) in sorted(res.report.items()):
        print(f"{name:42s} {value!r:>24} {unit}  (reported)")
    for problem in res.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not res.problems and res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": res.metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
