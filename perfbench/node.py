"""Node launcher: runs one logstore ServerNode in a process of its own.

    python3 perfbench/node.py --config FILE [--trace]

run.py starts it; it is not meant to be run by hand.  It prints
``ready <port>`` on stdout once the node listens, then answers one-line
commands on stdin with one line of JSON on stdout:

    dump   span aggregates (with --trace), engine counters, cache statistics
           and the replica LSN state of every partition
    state  the replica LSN state only (cheap enough to sample while loaded)
    reset  clear the span aggregates

With --trace the layer spans are installed before the node is built, so the
recovery the constructor runs is traced too.  The process exits as soon as
stdin closes: a node never outlives the benchmark that started it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _replica_state(node) -> list[dict]:
    return [
        {
            "flushed": r.state.flushed,
            "commit": r.state.potential_commit,
            "records_held": len(r.records),
        }
        for _, r in sorted(node.replicas.items())
    ]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from logstore.config import NodeConfig
    from logstore.server import ServerNode

    tracer = None
    if args.trace:
        from tracer import Tracer, install_node_spans

        tracer = Tracer()
        install_node_spans(tracer)

    node = ServerNode(NodeConfig.load(args.config))
    node.start()
    out = sys.stdout
    out.write(f"ready {node.port}\n")
    out.flush()

    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "state":
            reply = {"replicas": _replica_state(node)}
        elif cmd == "reset":
            if tracer is not None:
                tracer.reset()
            reply = {}
        elif cmd == "dump":
            reply = {
                "replicas": _replica_state(node),
                "counters": node.store.counters.snapshot(),
                "cache": [p.cache.stats() for p in node.store.partitions],
                "trace": tracer.dump() if tracer is not None else None,
            }
        else:
            reply = {"error": f"unknown command {cmd!r}"}
        out.write(json.dumps(reply) + "\n")
        out.flush()
    # stdin closed: the benchmark is gone or done; skip the graceful stop,
    # which would write a checkpoint the run never asked for
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
