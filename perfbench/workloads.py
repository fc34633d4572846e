"""The three benchmark workloads.

loo_g250     secure leave-one-out over all 569 WDBC points, in process.
serve_g250   `kishnn serve` in a subprocess, driven over TCP by an open-loop
             Poisson schedule from this process.
nsweep_g250  in-process closed loop over databases of 569*j points.

Every input is made from the workload seed.  Each workload runs one timed
phase untraced; with tracing it first runs the same phase with the span
tracer installed, so the two figures give the tracing overhead.
"""

from __future__ import annotations

import hashlib
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kishnn import classifier, data_eval, he_sim, protocol_io
from kishnn import ring as kring
from kishnn.primitives import derive_seed

import spans

ROOT = Path(__file__).resolve().parent.parent
DATASET = ROOT / "tests" / "data" / "wdbc.csv"
OUT = ROOT / ".perfbench-out"
HERE = Path(__file__).resolve().parent

GRID = 250
K = 13
SETUP_SAMPLES = 5
SHORT_LOO_POINTS = 60       # --short: leave-one-out over the first points
NSWEEP_SIZES = 10           # databases of 569*j points, j = 1..10
SHORT_NSWEEP_SIZES = 2
SERVE_REPS = 5              # the CLI default; see README.md
SERVE_RATE = 1.5            # queries/s, ~20% of one server's capacity
IN_FLIGHT = 2               # open connections at most (nproc = 2)
HOST = "127.0.0.1"
QUERY_TIMEOUT = 60.0
clock = spans.clock


@dataclass
class Phase:
    """What one timed phase measured."""

    elapsed: float
    latencies: list          # seconds, one per completed query
    attempted: int
    gates: float             # mult gates per query
    depth: int
    failed: int = 0
    window: tuple = (0.0, 0.0)
    report: dict = field(default_factory=dict)  # name -> (value, unit)
    problems: list = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)  # serve_g250: qid -> Outcome


# ---------------------------------------------------------------------------
# Helpers.


def measured(fn, *args):
    """(result, seconds, EvalMetrics) of one metered call."""
    with he_sim.metering() as m:
        t0 = clock()
        result = fn(*args)
        dt = clock() - t0
    return result, dt, m


@contextmanager
def call_log(module, attr):
    """Time and meter each call of module.attr; yields [(seconds, metrics)]."""
    original = getattr(module, attr)
    log = []

    def logged(*args):
        result, dt, m = measured(original, *args)
        log.append((dt, m))
        return result

    setattr(module, attr, logged)
    try:
        yield log
    finally:
        setattr(module, attr, original)


def repeat_whole(unit, seconds):
    """Run unit() whole, again while one more run should end within
    `seconds`; at least once.  Returns the elapsed time."""
    t0 = clock()
    while True:
        start = clock()
        unit()
        now = clock()
        if now - t0 + (now - start) > seconds:
            return now - t0


def digest(bits):
    return hashlib.sha256(bytes(int(b) for b in bits)).hexdigest()[:16]


def protocol(n, reps, seed):
    """Protocol parameters built as the CLI and leave_one_out_f1 build them."""
    ring = kring.select_ring_params(GRID, dim=2, n=n)
    return classifier.make_protocol_params(ring, k=K, n=n, repetitions=reps,
                                           rng_seed=seed)


def load_grid(points=None):
    gd = data_eval.grid_dataset(data_eval.load_wdbc(DATASET), GRID)
    if points is None:
        return gd
    return data_eval.GridDataset(gd.points[:points], gd.labels[:points],
                                 gd.grid, gd.quant_meta)


def single(values, what, problems):
    """The one value all of `values` share; notes a problem if they differ."""
    distinct = sorted(set(values))
    if len(distinct) != 1:
        problems.append(f"{what} differs between queries: {distinct[:4]}")
    return distinct[0]


# ---------------------------------------------------------------------------
# Set-up, shared by the timed run and by the set-up probe.


def setup_loo(seed, short):
    """Load, project and quantize; warm the table cache LOO will use."""
    gd = load_grid(SHORT_LOO_POINTS if short else None)
    db = gd.database()
    rest = db.without(0)
    classifier.classify_with_majority(db.points[0], rest,
                                      protocol(rest.n, 1, seed))
    return gd


def setup_nsweep(seed, short):
    """Load, project and quantize; grow the databases by cyclic duplication.
    One query point per size, drawn from the seed, repeated every cycle."""
    base = load_grid().database()
    sizes = SHORT_NSWEEP_SIZES if short else NSWEEP_SIZES
    rng = np.random.default_rng(seed)
    jobs = []
    for j in range(1, sizes + 1):
        idx = np.arange(j * base.n) % base.n
        db = classifier.LabeledDatabase(base.points[idx], base.labels[idx])
        jobs.append((db, rng.integers(0, GRID, size=2)))
    return jobs


SETUPS = {"loo_g250": setup_loo, "nsweep_g250": setup_nsweep}


def probe_setup(workload, seed, short):
    """Median seconds of cold set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), str(int(short))],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# loo_g250


def loo_phase(seed, seconds, short):
    gd = setup_loo(seed, short)
    problems, reports = [], []
    with call_log(data_eval, "classify_with_majority") as log:
        def one_pass():
            reports.append(data_eval.leave_one_out_f1(
                gd, K, "secure", repetitions=1, seed=seed))
        t0 = clock()
        elapsed = repeat_whole(one_pass, seconds)
    if len(log) != gd.n * len(reports):
        problems.append(f"{len(log)} classifications for {len(reports)} passes")
    for p, report in enumerate(reports):
        part = log[p * gd.n:(p + 1) * gd.n]
        if sum(m.mult_gates for _, m in part) != report.metrics.mult_gates:
            problems.append("per-query gates do not sum to the LOO total")
    f1 = single([r.f1 for r in reports], "F1 across passes", problems)
    bits = single([digest(r.per_point_predictions) for r in reports],
                  "predictions across passes", problems)
    latencies = [dt for dt, _ in log]
    return Phase(
        elapsed=elapsed, latencies=latencies, attempted=len(log),
        gates=single([m.mult_gates for _, m in log], "mult gates", problems),
        depth=single([m.max_depth for _, m in log], "depth", problems),
        window=(t0, t0 + elapsed), problems=problems,
        report={"f1": (f1, "ratio"), "bits_digest": (bits, "sha256"),
                "passes": (len(reports), "count"),
                "data_eval.loo_overhead_ms_per_query":
                    (1e3 * (elapsed - sum(latencies)) / len(log), "ms")})


# ---------------------------------------------------------------------------
# nsweep_g250


def nsweep_phase(seed, seconds, short):
    jobs = setup_nsweep(seed, short)
    gates, depths, cycles, latencies = defaultdict(list), [], [], []

    def cycle():
        bits = []
        for db, point in jobs:
            bit, dt, m = measured(classifier.classify_with_majority, point,
                                  db, protocol(db.n, 1, seed))
            bits.append(bit)
            latencies.append(dt)
            gates[db.n].append(m.mult_gates)
            depths.append(m.max_depth)
        cycles.append(digest(bits))

    t0 = clock()
    elapsed = repeat_whole(cycle, seconds)
    problems = []
    per_size = [single(g, f"mult gates at n={n}", problems)
                for n, g in gates.items()]
    bits = single(cycles, "predictions across cycles", problems)
    return Phase(
        elapsed=elapsed, latencies=latencies, attempted=len(latencies),
        gates=sum(per_size) / len(per_size),
        depth=single(depths, "depth", problems), window=(t0, t0 + elapsed),
        problems=problems,
        report={"bits_digest": (bits, "sha256"),
                "cycles": (len(cycles), "count")})


# ---------------------------------------------------------------------------
# serve_g250


@dataclass
class Outcome:
    start: float
    connected: float
    done: float
    bit: int
    error: str = ""


class Server:
    """`kishnn serve` on an ephemeral loopback port, in a subprocess."""

    def __init__(self, seed, tag, trace_path=None):
        OUT.mkdir(exist_ok=True)
        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_path is not None:
            cmd += ["--trace-out", str(trace_path)]
        cmd += ["serve", "--dataset", str(DATASET), "--grid", str(GRID),
                "--k", str(K), "--reps", str(SERVE_REPS), "--seed", str(seed),
                "--listen", f"{HOST}:0"]
        self.spawned = clock()
        with open(OUT / f"server-{tag}.log", "wb") as log:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                         stderr=log)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline().decode() if ready else ""
            if not line.startswith("serving"):
                raise RuntimeError(f"server did not get ready: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.ready = clock()
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def ask(port, point, pp, tracer=None, qid=None):
    """One query on a fresh connection, as `kishnn query` sends it."""
    socket.setdefaulttimeout(QUERY_TIMEOUT)  # a stalled server fails the query
    start = clock()
    try:
        with protocol_io.tcp_connect(HOST, port) as transport:
            connected = clock()
            if tracer is None:
                bit = protocol_io.run_client(transport, point, pp)
            else:
                bit = tracer.call("client.query", protocol_io.run_client,
                                  transport, point, pp, qid=qid)
        return Outcome(start, connected, clock(), bit)
    except Exception as exc:  # one failed query is counted; the run goes on
        return Outcome(start, start, clock(), -1,
                       f"{type(exc).__name__}: {exc}")


def drive(port, jobs, t0, tracer=None):
    """Send jobs [(qid, due offset, point, pp)] at their due times from
    IN_FLIGHT threads; a job whose thread is busy starts late."""
    outcomes = {}
    lock = threading.Lock()
    pending = iter(jobs)

    def worker():
        while True:
            with lock:
                job = next(pending, None)
            if job is None:
                return
            qid, due, point, pp = job
            pause = t0 + due - clock()
            if pause > 0:
                time.sleep(pause)
            outcomes[qid] = ask(port, point, pp, tracer, qid)

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(IN_FLIGHT)]
    for t in threads:
        t.start()
    deadline = t0 + jobs[-1][1] + QUERY_TIMEOUT * len(jobs)
    for t in threads:
        t.join(timeout=max(0.0, deadline - clock()))
    if any(t.is_alive() for t in threads):
        raise RuntimeError("query threads did not finish")
    return outcomes


class ServeInputs:
    """Schedule, query points and reference bits for one seed."""

    def __init__(self, seed, seconds):
        db = load_grid().database()
        rng = np.random.default_rng(seed)
        count = max(1, round(SERVE_RATE * seconds))
        self.due = sorted(rng.uniform(0.0, seconds, size=count).tolist())
        self.points = rng.integers(0, GRID, size=(count + 1, 2))  # last: warm-up
        # Each query gets its own client key, so server spans can be joined
        # to the client's by key id.
        self.client_pp = [protocol(db.n, SERVE_REPS,
                                   derive_seed(seed, f"client-{i}"))
                          for i in range(count + 1)]
        server_pp = protocol(db.n, SERVE_REPS, seed)
        ref = [measured(classifier.classify_with_majority, p, db, server_pp)
               for p in self.points]
        self.bits = [bit for bit, _, _ in ref]
        self.gates = [m.mult_gates for _, _, m in ref]
        self.depths = [m.max_depth for _, _, m in ref]
        self.count = count

    def start(self, seed, tag, trace_path=None):
        """Start a server and answer one warm-up query.
        Returns (server, spawn-to-ready s, spawn-to-answer s)."""
        server = Server(seed, tag, trace_path)
        warm = ask(server.port, self.points[-1], self.client_pp[-1])
        if warm.error or warm.bit != self.bits[-1]:
            server.stop()
            raise RuntimeError(f"warm-up query failed: {warm}")
        return server, server.ready - server.spawned, warm.done - server.spawned


def serve_phase(inputs, server, tracer=None):
    jobs = [(i, inputs.due[i], inputs.points[i], inputs.client_pp[i])
            for i in range(inputs.count)]
    t0 = clock() + 0.05
    outcomes = drive(server.port, jobs, t0, tracer)
    problems = []
    ok = [i for i, o in outcomes.items()
          if not o.error and o.bit == inputs.bits[i]]
    for i, o in sorted(outcomes.items()):
        if o.error or o.bit != inputs.bits[i]:
            problems.append(f"query {i}: {o.error or 'wrong bit'}")
    if not ok:
        raise RuntimeError(f"every served query failed: {problems[:3]}")
    end = max(outcomes[i].done for i in ok)
    late = [o.start - (t0 + inputs.due[i]) for i, o in outcomes.items()]
    return Phase(
        elapsed=end - t0,
        latencies=[outcomes[i].done - (t0 + inputs.due[i]) for i in ok],
        attempted=inputs.count, failed=inputs.count - len(ok),
        gates=single(inputs.gates, "reference mult gates", problems),
        depth=single(inputs.depths, "reference depth", problems),
        window=(t0, end), problems=problems, outcomes=outcomes,
        report={"bits_digest": (digest(inputs.bits[:-1]), "sha256"),
                "generator_late_ms_p50": (1e3 * statistics.median(late), "ms"),
                "generator_late_ms_max": (1e3 * max(late), "ms")})
