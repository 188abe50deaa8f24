"""Command-line entry points: serve a node, or talk to one."""

from __future__ import annotations

import argparse
import logging
import signal
import sys
import threading

from .client import Client
from .config import NodeConfig
from .errors import LogStoreError


def _cmd_serve(args) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    overrides = {}
    if args.node_id is not None:
        overrides["node_id"] = str(args.node_id)
    if args.data_dir is not None:
        overrides["data_dir"] = args.data_dir
    config = NodeConfig.load(args.config, overrides)
    from .server import ServerNode

    node = ServerNode(config)
    node.start()
    done = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: done.set())
    done.wait()
    node.stop()
    return 0


def _number(text: str, what: str) -> int:
    """`text` as an int >= 0; LogStoreError (an `error:` line) otherwise."""
    if not (text.isascii() and text.isdigit()):
        raise LogStoreError(f"{what} must be a whole number, not {text!r}")
    return int(text)


def _cmd_cli(args) -> int:
    host, _, port_text = args.addr.rpartition(":")
    port = _number(port_text, "the --addr port")
    if not 0 < port <= 0xFFFF:
        raise LogStoreError(f"the --addr port {port} is out of range")
    try:
        with Client(host or "127.0.0.1", port) as client:
            return _run_command(client, args)
    except OSError as exc:  # refused, reset or timed out
        raise LogStoreError(f"{args.addr}: {exc.strerror or exc}") from None


def _run_command(client: Client, args) -> int:
    cmd, rest = args.command[0], args.command[1:]
    if cmd == "put" and len(rest) == 2:
        lsn = client.put(rest[0].encode(), rest[1].encode())
        print(f"OK lsn={lsn}")
    elif cmd == "get" and len(rest) == 1:
        value = client.get(rest[0].encode(), view_lsn=args.view_lsn)
        print(value.decode(errors="replace") if value is not None else "(nil)")
    elif cmd == "del" and len(rest) == 1:
        print("OK" if client.delete(rest[0].encode()) else "(not found)")
    elif cmd == "range" and len(rest) in (2, 3):
        limit = _number(rest[2], "the range limit") if len(rest) == 3 else 0
        for key, value in client.range(rest[0].encode(), rest[1].encode(), limit):
            print(f"{key.decode(errors='replace')}\t"
                  f"{value.decode(errors='replace')}")
    elif cmd == "batchget" and rest:
        for key, value in zip(rest, client.batch_get([k.encode() for k in rest])):
            print(f"{key}\t"
                  f"{value.decode(errors='replace') if value is not None else '(nil)'}")
    elif cmd == "stats" and not rest:
        print(client.stats())
    elif cmd == "promote" and len(rest) == 1:
        lsn = client.promote(_number(rest[0], "the partition"))
        print(f"promoted; flushed={lsn}")
    else:
        print(f"bad command: {' '.join(args.command)}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="logstore")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("serve", help="run a storage node")
    p.add_argument("--config", required=True)
    p.add_argument("--node-id", type=int, default=None)
    p.add_argument("--data-dir", default=None)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("cli", help="issue a command against a node")
    p.add_argument("--addr", required=True, help="host:port")
    p.add_argument("--view-lsn", type=int, default=None,
                   help="minimum LSN a follower get must reflect in its key's partition")
    p.add_argument("command", nargs="+",
                   help="put K V | get K | del K | range LO HI [N] | "
                        "batchget K... | stats | promote P")
    p.set_defaults(fn=_cmd_cli)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LogStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
