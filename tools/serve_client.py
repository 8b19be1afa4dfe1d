#!/usr/bin/env python3
"""Minimal radiocast_serve client — the CI smoke driver.

Speaks the daemon's wire protocol (u32 little-endian length-prefixed JSON
frames, see src/serve/server.hpp) from the Python standard library alone.
Subcommands:

  batch     send a spec batch (or --batches N of them back-to-back before
            reading any response) and print the last "done" frame's cache
            stats as JSON on stdout; non-zero exit if any spec fails to
            return.  --encoding binary opts into the compact
            radiocast-resbin/1 result frames.
  stats     print the server's stats frame
  compact   GC the daemon's plan store down to --max-bytes
  shutdown  request a clean server shutdown (expects "bye")

Connection: --unix PATH or --tcp PORT (loopback).  Every socket operation
is bounded by --timeout seconds, and the initial connect retries with
exponential backoff (--retries) so CI can start the client while the
daemon is still binding its socket.

Examples:
  python3 tools/serve_client.py --tcp 7171 batch \
      --scheme b --scheme ack --graph grid:8:8 --count 100
  python3 tools/serve_client.py --tcp 7171 --timeout 30 stats
  python3 tools/serve_client.py --tcp 7171 batch --scheme ack \
      --graph path:256 --faults edge-loss:0.1:7 --resilient
  python3 tools/serve_client.py --tcp 7171 shutdown
"""

import argparse
import json
import socket
import struct
import sys
import time

WIRE_VERSION = 2


class Connection:
    """A framed JSON conversation with one radiocast_serve daemon."""

    def __init__(self, sock):
        self.sock = sock
        self.buffer = b""

    @classmethod
    def open(cls, unix_path=None, tcp_port=None, timeout=None, retries=0):
        """Connects, retrying with exponential backoff on refusal.

        A daemon that is still starting up refuses or resets the connect;
        anything else (bad path, wrong port semantics) fails immediately.
        """
        delay = 0.1
        attempt = 0
        while True:
            try:
                if unix_path:
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.settimeout(timeout)
                    sock.connect(unix_path)
                else:
                    sock = socket.create_connection(
                        ("127.0.0.1", tcp_port), timeout=timeout
                    )
                    sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                sock.settimeout(timeout)
                return cls(sock)
            except (ConnectionRefusedError, ConnectionResetError,
                    FileNotFoundError, socket.timeout) as exc:
                attempt += 1
                if attempt > retries:
                    raise ConnectionError(
                        f"connect failed after {attempt} attempt(s): {exc}"
                    ) from exc
                time.sleep(delay)
                delay = min(delay * 2, 2.0)

    def send(self, message):
        payload = json.dumps(message, separators=(",", ":")).encode()
        self.sock.sendall(struct.pack("<I", len(payload)) + payload)

    def receive_raw(self):
        """The next frame's payload bytes, without JSON-parsing them."""
        while True:
            if len(self.buffer) >= 4:
                (length,) = struct.unpack("<I", self.buffer[:4])
                if len(self.buffer) >= 4 + length:
                    payload = self.buffer[4 : 4 + length]
                    self.buffer = self.buffer[4 + length :]
                    return payload
            try:
                chunk = self.sock.recv(65536)
            except socket.timeout:
                raise ConnectionError(
                    "timed out waiting for a frame from the server"
                ) from None
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk

    def receive(self):
        return json.loads(self.receive_raw())


RESBIN_MAGIC = b"RBIN"
RESBIN_VERSION = 1
RESBIN_RECORD = struct.Struct("<B6Q")  # flags + 6 fixed-width counters


def decode_results_binary(payload):
    """radiocast-resbin/1 (src/runtime/wire.hpp) -> list of result dicts.

    Strict, mirroring the C++ decoder: bad magic, unknown version, unknown
    flag bits, truncation, and trailing bytes all raise.
    """
    if payload[:4] != RESBIN_MAGIC:
        raise ValueError("binary results: bad magic")
    (version, count) = struct.unpack("<II", payload[4:12])
    if version != RESBIN_VERSION:
        raise ValueError(f"binary results: unsupported version {version}")
    records = []
    offset = 12
    for _ in range(count):
        if offset + RESBIN_RECORD.size > len(payload):
            raise ValueError("binary results: truncated")
        (flags, rounds, completion, ack, tx_total, polls, wall_ns) = (
            RESBIN_RECORD.unpack_from(payload, offset)
        )
        if flags & ~0x07:
            raise ValueError("binary results: unknown flag bits")
        records.append(
            {
                "ok": bool(flags & 0x01),
                "all_informed": bool(flags & 0x02),
                "labeling_found": bool(flags & 0x04),
                "rounds": rounds,
                "completion_round": completion,
                "ack_round": ack,
                "tx_total": tx_total,
                "polls": polls,
                "wall_ns": wall_ns,
            }
        )
        offset += RESBIN_RECORD.size
    if offset != len(payload):
        raise ValueError("binary results: trailing bytes")
    return records


def parse_faults(text):
    """CLI fault clauses -> the wire "faults" object (sim/faults.hpp).

    Grammar mirrors radiocast_cli --faults:
      edge-loss:P[:SEED]   P as probability ("0.1") or percent ("10%")
      crash:V:R0:R1        node V crashed for rounds [R0, R1]
      jam:R0[:R1]          every listener jammed for rounds [R0, R1]
    """
    out = {}
    for clause in text.split(","):
        parts = clause.split(":")
        kind = parts[0]
        if kind == "edge-loss" and len(parts) in (2, 3):
            p = parts[1]
            if p.endswith("%"):
                ppm = round(float(p[:-1]) * 10_000)
            else:
                ppm = round(float(p) * 1_000_000)
            out["loss_ppm"] = ppm
            if len(parts) == 3:
                out["seed"] = int(parts[2])
        elif kind == "crash" and len(parts) == 4:
            out.setdefault("crash", []).append(
                [int(parts[1]), int(parts[2]), int(parts[3])]
            )
        elif kind == "jam" and len(parts) in (2, 3):
            r0 = int(parts[1])
            r1 = int(parts[2]) if len(parts) == 3 else r0
            out.setdefault("jam", []).append([r0, r1])
        else:
            raise ValueError(f"bad fault clause: {clause!r}")
    return out


def make_specs(args):
    """One spec per (scheme, source) until --count specs exist."""
    specs = []
    source = 0
    faults = parse_faults(args.faults) if args.faults else None
    while len(specs) < args.count:
        for scheme in args.scheme:
            if len(specs) >= args.count:
                break
            spec = {
                "v": args.wire_version,
                "scheme": scheme,
                "graph": {"gen": args.graph},
            }
            if source:
                spec["source"] = source % args.sources
            config = {}
            if args.compiled:
                config["compiled"] = True
            if faults:
                config["faults"] = faults
            if args.max_rounds:
                config["max_rounds"] = args.max_rounds
            if config:
                spec["config"] = config
            if args.resilient:
                spec["options"] = {"resilient": True}
            specs.append(spec)
            source += 1
    return specs


def report_error(frame, args):
    """Prints a server error frame; 0 iff --expect-error matches it."""
    code = frame.get("code", "")
    print(f"server error [{code}]: {frame.get('error')}", file=sys.stderr)
    if args.expect_error:
        haystack = f"{code} {frame.get('error', '')}"
        if args.expect_error in haystack:
            return 0
    return 1


def read_batch_response(conn, batch_id, count, args):
    """Collects one batch's response frames; (exit code, done frame)."""
    if args.encoding == "binary":
        frame = conn.receive()
        kind = frame.get("type")
        if kind == "error":
            return report_error(frame, args), None
        if kind != "results" or frame.get("encoding") != "binary":
            print(f"unexpected frame: {frame}", file=sys.stderr)
            return 1, None
        if frame.get("id") != batch_id or frame.get("count") != count:
            print(f"announce mismatch: {frame}", file=sys.stderr)
            return 1, None
        records = decode_results_binary(conn.receive_raw())
        if len(records) != count:
            print(f"short batch: {len(records)}/{count}", file=sys.stderr)
            return 1, None
        done = conn.receive()
        if done.get("type") != "done" or done.get("count") != count:
            print(f"unexpected frame: {done}", file=sys.stderr)
            return 1, None
        return 0, done
    results = 0
    while True:
        frame = conn.receive()
        kind = frame.get("type")
        if kind == "result":
            if frame.get("id") != batch_id or frame.get("index") != results:
                print(f"out-of-order result: {frame}", file=sys.stderr)
                return 1, None
            results += 1
        elif kind == "done":
            if frame.get("count") != count or results != count:
                print(f"short batch: {results}/{count}", file=sys.stderr)
                return 1, None
            return 0, frame
        elif kind == "error":
            return report_error(frame, args), None
        else:
            print(f"unexpected frame: {frame}", file=sys.stderr)
            return 1, None


def cmd_batch(conn, args):
    specs = make_specs(args)
    # Send every batch before reading any response: with --batches > 1 the
    # requests wait in the socket buffer while earlier batches run, so the
    # daemon answers back-to-back batches in order.
    for b in range(args.batches):
        request = {
            "v": WIRE_VERSION,
            "type": "batch",
            "id": args.id + b,
            "specs": specs,
        }
        if args.encoding != "json":
            request["encoding"] = args.encoding
        conn.send(request)
    done = None
    for b in range(args.batches):
        rc, done = read_batch_response(conn, args.id + b, len(specs), args)
        if rc != 0:
            return rc
        if done is None:
            return 0  # the expected error arrived; nothing more to read
    if args.expect_error:
        print(f"expected error '{args.expect_error}', batch succeeded",
              file=sys.stderr)
        return 1
    print(json.dumps(done.get("stats", {}), sort_keys=True))
    return 0


def cmd_stats(conn, _args):
    conn.send({"v": WIRE_VERSION, "type": "stats"})
    frame = conn.receive()
    if frame.get("type") != "stats":
        print(f"unexpected frame: {frame}", file=sys.stderr)
        return 1
    print(json.dumps(frame, sort_keys=True))
    return 0


def cmd_compact(conn, args):
    conn.send(
        {"v": WIRE_VERSION, "type": "compact", "max_bytes": args.max_bytes}
    )
    frame = conn.receive()
    if frame.get("type") == "error":
        return report_error(frame, args)
    if frame.get("type") != "compacted":
        print(f"unexpected frame: {frame}", file=sys.stderr)
        return 1
    if args.expect_error:
        print(f"expected error '{args.expect_error}', compact succeeded",
              file=sys.stderr)
        return 1
    print(json.dumps(frame, sort_keys=True))
    return 0


def cmd_shutdown(conn, _args):
    conn.send({"v": WIRE_VERSION, "type": "shutdown"})
    frame = conn.receive()
    if frame.get("type") != "bye":
        print(f"unexpected frame: {frame}", file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--unix", help="Unix-domain socket path")
    target.add_argument("--tcp", type=int, help="loopback TCP port")
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="seconds to wait for connect and for each frame (default 60)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=5,
        help="connect retries with exponential backoff (default 5)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    batch = sub.add_parser("batch", help="run a spec batch")
    batch.add_argument(
        "--scheme",
        action="append",
        default=None,
        help="scheme name (repeatable; default: b, ack, arb)",
    )
    batch.add_argument("--graph", default="grid:8:8", help="graph descriptor")
    batch.add_argument("--count", type=int, default=10, help="specs to send")
    batch.add_argument(
        "--sources", type=int, default=4, help="distinct sources to cycle"
    )
    batch.add_argument(
        "--compiled", action="store_true", help="use the compiled fast path"
    )
    batch.add_argument(
        "--faults",
        default=None,
        help="fault clauses, e.g. edge-loss:0.1:7,crash:3:5:9,jam:4",
    )
    batch.add_argument(
        "--resilient",
        action="store_true",
        help="enable B_ack's loss-resilient retransmission mode",
    )
    batch.add_argument(
        "--max-rounds",
        type=int,
        default=0,
        help="engine round budget (0 = scheme default)",
    )
    batch.add_argument(
        "--wire-version",
        type=int,
        default=WIRE_VERSION,
        help="version to stamp on each spec (for rejection testing)",
    )
    batch.add_argument(
        "--expect-error",
        default=None,
        help="succeed iff the server rejects the batch with this substring "
        "(matched against the error code and message)",
    )
    batch.add_argument("--id", type=int, default=1, help="batch id")
    batch.add_argument(
        "--batches",
        type=int,
        default=1,
        help="send this many copies of the batch back-to-back before "
        "reading responses",
    )
    batch.add_argument(
        "--encoding",
        choices=["json", "binary"],
        default="json",
        help="result encoding (binary = radiocast-resbin/1 frames)",
    )

    sub.add_parser("stats", help="print server stats")
    compact = sub.add_parser("compact", help="GC the daemon's plan store")
    compact.add_argument(
        "--max-bytes",
        type=int,
        required=True,
        help="evict least-recently-read records until at most this many "
        "bytes remain",
    )
    compact.add_argument(
        "--expect-error",
        default=None,
        help="succeed iff the server rejects the compact with this "
        "substring",
    )
    sub.add_parser("shutdown", help="stop the server")

    args = parser.parse_args()
    if args.command == "batch" and not args.scheme:
        args.scheme = ["b", "ack", "arb"]

    conn = Connection.open(
        unix_path=args.unix,
        tcp_port=args.tcp,
        timeout=args.timeout,
        retries=args.retries,
    )
    handler = {
        "batch": cmd_batch,
        "stats": cmd_stats,
        "compact": cmd_compact,
        "shutdown": cmd_shutdown,
    }[args.command]
    return handler(conn, args)


if __name__ == "__main__":
    sys.exit(main())
