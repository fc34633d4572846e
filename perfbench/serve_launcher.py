"""Start `kishnn serve` from a source checkout, optionally traced.

    python3 perfbench/serve_launcher.py [--trace-out FILE] serve ARGS...

With --trace-out the span wrappers are installed before the CLI serve path
is entered, and the spans are written to FILE when SIGTERM ends the server.
"""

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kishnn import cli  # noqa: E402

import spans  # noqa: E402


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = spans.Tracer() if trace_out else None
    if tracer is not None:
        tracer.install()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.restore()
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
