"""The benchmark's server process: an ``AttentionServer`` behind a
``NetworkFrontend`` on an ephemeral loopback port.

Started by ``run.py``; speaks a line protocol on stdin/stdout:

* prints ``READY <host> <port>`` once the socket listens;
* ``MARK`` — the timed phase starts (traced: discard set-up
  measurements); answers ``MARKED``;
* ``STOP`` (or stdin closing) — drain-stop the frontend and the server,
  write the server's spans as JSONL (traced), print ``LAYERS <json>``
  and exit.

With ``--trace 0`` the server is built exactly as a user would build
it.  With ``--trace 1`` the layer entry points are wrapped first
(:mod:`perfbench.layers`), a ``StageProfiler`` is installed, and every
request is traced (``trace_sample_rate=1.0``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import ServerProbe  # noqa: E402
from repro.serve import AttentionServer, NetworkFrontend, ServerConfig  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-spans", type=int, default=16384)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)

    probe = None
    config = ServerConfig()
    if args.trace:
        probe = ServerProbe()
        config = ServerConfig(
            trace_sample_rate=1.0, trace_max_spans=args.max_spans
        )
    server = AttentionServer(config).start()
    frontend = NetworkFrontend(server).start()
    try:
        host, port = frontend.address
        print(f"READY {host} {port}", flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "MARK":
                if probe is not None:
                    probe.mark(server)
                print("MARKED", flush=True)
            elif command == "STOP":
                break
    finally:
        frontend.stop()
        server.stop()
    report = {}
    if probe is not None:
        report = probe.report(server)
        if args.spans_out is not None:
            with open(args.spans_out, "w", encoding="utf-8") as out:
                for span in server.trace_spans():
                    out.write(json.dumps(span, sort_keys=True) + "\n")
    print("LAYERS " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
