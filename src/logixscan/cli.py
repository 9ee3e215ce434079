"""Command-line tool: tag debugging, scan running, and the simulator.

Exit codes: 0 success, 1 usage or input error, 2 connection failure,
3 CIP error status, 4 timeout.
"""

from __future__ import annotations

import argparse
import csv
import sys
import threading
import time

from . import cip, plcsim
from .cip import CipStatusError, CipType, CipValue
from .client import (
    PlcClient,
    PlcConnectError,
    PlcEndpoint,
    PlcError,
    PlcTimeout,
)
from .encap import DEFAULT_PORT
from .config import ConfigError, apply_scan_config, parse_scan_config
from .scanner import TagScanner
from .tags import TagError, parse_tag

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONNECT = 2
EXIT_CIP = 3
EXIT_TIMEOUT = 4


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the options it reads
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port (default {DEFAULT_PORT})")
    target.add_argument("--slot", type=int, default=0,
                        help="backplane slot of the processor (default 0)")
    target.add_argument("--limit", type=int, default=500,
                        help="PLC buffer limit in bytes (default 500)")
    session = argparse.ArgumentParser(add_help=False)
    session.add_argument("--timeout-ms", type=int, default=3000,
                         help="request timeout in milliseconds (default 3000)")
    session.add_argument("--connected", action="store_true",
                         help="use a Forward_Open connection for data transfer")
    client_options = [target, session]

    parser = argparse.ArgumentParser(
        prog="logixscan",
        description="EtherNet/IP tag access, scanning, and a soft PLC.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", parents=client_options, help="print the target's product name")
    p.add_argument("host")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("read", parents=client_options, help="read a tag")
    p.add_argument("host")
    p.add_argument("tag")
    p.add_argument("count", type=int, nargs="?", default=1,
                   help="element count (default 1)")
    p.set_defaults(fn=_cmd_read)

    p = sub.add_parser("write", parents=client_options, help="write a tag")
    p.add_argument("host")
    p.add_argument("tag")
    p.add_argument("values", nargs="+", help="one value per element")
    p.set_defaults(fn=_cmd_write)

    p = sub.add_parser("scan", help="run scan lists from a config file")
    p.add_argument("config", help="scan configuration file")
    p.add_argument("--no-coalesce", action="store_true",
                   help="disable array-element coalescing")
    p.add_argument("--duration", type=float, default=None,
                   help="seconds to run (default: until interrupted)")
    p.add_argument("--samples-out", default=None,
                   help="CSV file for per-cycle transfer times")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("sim", parents=[target], help="run the soft PLC")
    p.add_argument("tags", nargs="?", default=None, help="tag definition file")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--latency-ms", type=float, default=0.0,
                   help="added delay per data round trip")
    p.add_argument("--faults", default="",
                   help="comma list: refuse-sessions, drop-after=N, close-idle-ms=T")
    p.set_defaults(fn=_cmd_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        return args.fn(args)
    except PlcTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except CipStatusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CIP
    except (PlcConnectError, PlcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONNECT
    except (TagError, ConfigError, plcsim.SimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return EXIT_OK


def _endpoint(args, host: str) -> PlcEndpoint:
    return PlcEndpoint(
        host=host,
        port=args.port,
        slot=args.slot,
        buffer_limit=args.limit,
        request_timeout=args.timeout_ms / 1000.0,
    )


def _client(args, host: str) -> PlcClient:
    client = PlcClient(_endpoint(args, host), prefer_connected=args.connected)
    client.connect()
    return client


def format_value(value: CipValue) -> str:
    return f"{value.type.name}[{len(value)}] " + " ".join(
        _format_element(value.type, v) for v in value.elements
    )


def _format_element(elem_type: CipType, v) -> str:
    if elem_type is CipType.REAL:
        return f"{v:.6g}"
    if elem_type is CipType.BOOL:
        return "1" if v else "0"
    return str(v)


def _cmd_info(args) -> int:
    client = _client(args, args.host)
    try:
        print(client.read_identity_name())
    finally:
        client.close()
    return EXIT_OK


def _cmd_read(args) -> int:
    ref = parse_tag(args.tag)
    client = _client(args, args.host)
    try:
        value = client.read_tag(ref, args.count)
        print(format_value(value))
    finally:
        client.close()
    return EXIT_OK


def _cmd_write(args) -> int:
    ref = parse_tag(args.tag)
    client = _client(args, args.host)
    try:
        current = client.read_tag(ref, 1)  # the tag's type decides the encoding
        values = [cip.parse_literal(current.type, text) for text in args.values]
        client.write_tag(ref, CipValue(current.type, values))
    finally:
        client.close()
    return EXIT_OK


def _cmd_scan(args) -> int:
    with open(args.config) as f:
        config = parse_scan_config(f.read())
    if args.no_coalesce:
        for tag in config.tags:
            tag.coalesce = False
    scanner = TagScanner()
    apply_scan_config(scanner, config)

    csv_file = None
    if args.samples_out:
        csv_file = open(args.samples_out, "w", newline="")
        writer = csv.writer(csv_file)
        writer.writerow(["timestamp_ms", "list_period_ms", "transfer_ms"])
        lock = threading.Lock()

        def on_sample(ts_ms, period_ms, transfer_ms):
            with lock:
                writer.writerow([ts_ms, period_ms, f"{transfer_ms:.3f}"])

        scanner.on_sample = on_sample

    scanner.start()
    try:
        deadline = None if args.duration is None else time.monotonic() + args.duration
        while deadline is None or time.monotonic() < deadline:
            wait = 1.0 if deadline is None else min(1.0, deadline - time.monotonic())
            if wait > 0:
                time.sleep(wait)
            _print_stats(scanner, config)
    except KeyboardInterrupt:
        pass
    finally:
        scanner.stop()
        if csv_file is not None:
            csv_file.close()
    return EXIT_OK


def _print_stats(scanner: TagScanner, config) -> None:
    seen = set()
    for tag in config.tags:
        key = (tag.plc, tag.period_ms)
        if key in seen:
            continue
        seen.add(key)
        stats = scanner.stats(tag.plc, tag.period_ms / 1000.0)
        print(
            f"{tag.plc}/{tag.period_ms:g}ms count={stats.count} "
            f"errors={stats.errors} overruns={stats.overruns} "
            f"last={_ms(stats.last_s)} min={_ms(stats.min_s)} max={_ms(stats.max_s)}",
            flush=True,
        )


def _ms(seconds: float | None) -> str:
    return "-" if seconds is None else f"{seconds * 1000.0:.1f}ms"


def _parse_faults(text: str, latency_ms: float) -> plcsim.FaultPlan:
    faults = plcsim.FaultPlan(latency_s=latency_ms / 1000.0)
    for item in filter(None, (part.strip() for part in text.split(","))):
        key, _, value = item.partition("=")
        if key == "refuse-sessions":
            faults.refuse_sessions = True
        elif key == "drop-after":
            faults.drop_after = int(value)
        elif key == "close-idle-ms":
            faults.close_idle_after_s = float(value) / 1000.0
        else:
            raise ValueError(f"unknown fault {item!r}")
    return faults


def _cmd_sim(args) -> int:
    store = plcsim.TagStore(limit=args.limit, route_slots={args.slot})
    if args.tags:
        with open(args.tags) as f:
            plcsim.load_tag_file(store, f.read())
    faults = _parse_faults(args.faults, args.latency_ms)
    sim = plcsim.PlcSim(store=store, faults=faults, host=args.host, port=args.port)
    sim.start()
    try:
        # a SIGINT as soon as the line is out still stops the sim
        print(f"listening on {sim.host}:{sim.port}", flush=True)
        while True:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        sim.stop()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
