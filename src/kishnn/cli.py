"""Command-line entry points: serve, query, evaluate, diagnose.

Every command takes a single --seed; all randomness flows from it through
named sub-streams, so any run is bit-reproducible.
"""

from __future__ import annotations

import argparse
import sys
import threading

import numpy as np

from . import data_eval, protocol_io
from .classifier import make_protocol_params
from .primitives import derive_seed
from .ring import ParameterError, select_ring_params

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _add_common(sub, *names):
    if "dataset" in names:
        sub.add_argument("--dataset", required=True,
                         help="comma-separated diagnostic data file")
    if "grid" in names:
        sub.add_argument("--grid", type=int, default=100,
                         help="grid size g (coordinates in [0, g))")
    if "k" in names:
        sub.add_argument("--k", type=int, default=13,
                         help="number of neighbors targeted")
    if "reps" in names:
        sub.add_argument("--reps", type=int, default=5,
                         help="odd number of protocol repetitions")
    if "seed" in names:
        sub.add_argument("--seed", type=int, default=0,
                         help="base seed for every random sub-stream")
    if "out" in names:
        sub.add_argument("--out", default=None,
                         help="output CSV path (default: stdout summary only)")


def build_parser() -> _Parser:
    parser = _Parser(prog="kishnn", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = subs.add_parser("serve", help="answer encrypted queries over TCP")
    _add_common(p, "dataset", "grid", "k", "reps", "seed")
    p.add_argument("--listen", default="127.0.0.1:7878",
                   help="host:port to listen on")

    p = subs.add_parser(
        "query", help="classify one 2D grid query point",
        description="Classify one 2D grid query point.  --k and --reps "
                    "shape only the loopback server: over tcp the client "
                    "only checks them, as its query needs only the ring "
                    "and the seed, and it takes the majority of whatever "
                    "bits the server returns.")
    # one metavar: a tuple one breaks argparse's help for a positional
    p.add_argument("coords", nargs=2, type=int, metavar="COORD",
                   help="the query's x and y grid coordinates")
    _add_common(p, "grid", "k", "reps", "seed")
    p.add_argument("--transport", choices=("tcp", "loopback"), default="tcp")
    p.add_argument("--connect", default="127.0.0.1:7878",
                   help="host:port of the server (tcp transport)")
    p.add_argument("--dataset", default=None,
                   help="data file (required for the loopback transport)")
    p.add_argument("--n", type=int, default=None,
                   help="database size the remote server holds "
                        "(tcp transport)")

    p = subs.add_parser("evaluate",
                        help="leave-one-out F1 in plain or secure mode")
    _add_common(p, "dataset", "grid", "k", "reps", "seed", "out")
    p.add_argument("--mode", choices=("plain", "secure"), default="plain")

    p = subs.add_parser("diagnose",
                        help="distance-distribution Gaussianity diagnostic")
    _add_common(p, "dataset", "grid", "seed", "out")
    return parser


def _host_port(text: str) -> tuple:
    host, sep, port = text.rpartition(":")
    if not (sep and port.isdecimal() and int(port) <= 65535):
        raise ParameterError(f"expected host:port, port in 0-65535: {text!r}")
    return host, int(port)


def _load_grid(args) -> data_eval.GridDataset:
    raw = data_eval.load_wdbc(args.dataset)
    return data_eval.grid_dataset(raw, args.grid)


def _protocol(args, n: int):
    """The protocol params of args' grid, k, reps and seed, on the ring
    selected for a database of n points."""
    ring = select_ring_params(args.grid, dim=2, n=n)
    return make_protocol_params(ring, k=args.k, n=n, repetitions=args.reps,
                                rng_seed=args.seed)


def cmd_serve(args) -> int:
    gd = _load_grid(args)
    pp = _protocol(args, gd.n)
    db = gd.database()
    host, port = _host_port(args.listen)

    def announce(addr):
        print(f"serving {gd.n} points on {addr[0]}:{addr[1]}", flush=True)

    protocol_io.serve_tcp(host, port, db, pp, ready=announce)
    return 0


def cmd_query(args) -> int:
    if args.transport == "loopback":
        if args.dataset is None:
            raise ParameterError("loopback transport needs --dataset")
        gd = _load_grid(args)
        pp = _protocol(args, gd.n)
        client_end, server_end = protocol_io.loopback_pair()
        server = threading.Thread(
            target=protocol_io.run_server,
            args=(server_end, gd.database(), pp), daemon=True)
        server.start()
        try:
            bit = protocol_io.run_client(client_end, args.coords, pp)
        finally:
            client_end.close()
            server.join(timeout=30)
            server_end.close()
    else:
        if args.n is None:
            raise ParameterError("tcp transport needs --n (the served "
                                 "database size, used for ring agreement)")
        pp = _protocol(args, args.n)
        host, port = _host_port(args.connect)
        with protocol_io.tcp_connect(host, port) as transport:
            bit = protocol_io.run_client(transport, args.coords, pp)
    print(bit)
    return 0


def cmd_evaluate(args) -> int:
    gd = _load_grid(args)
    report = data_eval.leave_one_out_f1(
        gd, args.k, args.mode, repetitions=args.reps, seed=args.seed)
    if args.out:
        rows = [{"index": i, "label": int(l), "predicted": int(p)}
                for i, (l, p) in enumerate(zip(gd.labels,
                                               report.per_point_predictions))]
        data_eval.write_csv(args.out, ("index", "label", "predicted"), rows)
    print(f"mode={args.mode} grid={args.grid} k={args.k} n={gd.n} "
          f"F1={report.f1:.4f} mult_gates={report.metrics.mult_gates} "
          f"max_depth={report.metrics.max_depth}")
    return 0


def cmd_diagnose(args) -> int:
    gd = _load_grid(args)
    db = gd.database()
    rng = np.random.default_rng(derive_seed(args.seed, "diagnose-query"))
    q = rng.integers(0, gd.grid, size=2)
    sd = data_eval.gaussian_sd_diagnostic(db, q)
    if args.out:
        data_eval.write_csv(args.out, ("distance", "count"),
                            [{"distance": d, "count": c}
                             for d, c in data_eval.distance_histogram(db, q)])
    print(f"query=({q[0]},{q[1]}) sd_gaussian={sd:.4f}")
    return 0


_COMMANDS = {"serve": cmd_serve, "query": cmd_query, "evaluate": cmd_evaluate,
             "diagnose": cmd_diagnose}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParameterError, data_eval.DataFormatError, OSError,
            protocol_io.ProtocolError, protocol_io.TransportError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
