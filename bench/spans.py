"""Span tracing installed from outside the package.

The benchmark measures layers without editing them: it replaces layer
entry points (module functions and class methods) with wrappers that time
each call, and restores the originals afterwards.  A span's self time is
its duration minus the time covered by the spans it caused, so summing
self time per layer splits a cycle without double counting.
"""

from __future__ import annotations

import inspect
import time
from array import array
from dataclasses import dataclass, field


@dataclass
class SpanStat:
    """Totals for one span name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: int = 0
    durations_ns: array | None = None


@dataclass
class Tracer:
    """Records spans of wrapped callables; `restore` undoes every wrap."""

    clock: object = time.perf_counter_ns
    stats: dict[str, SpanStat] = field(default_factory=dict)
    _stack: list[list[int]] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, owner, attr: str, name: str, keep_durations: bool = False) -> None:
        """Replace owner.attr by a timing wrapper recorded under `name`."""
        fn = vars(owner)[attr]
        stat = self.stats.setdefault(name, SpanStat())
        if keep_durations and stat.durations_ns is None:
            stat.durations_ns = array("q")
        clock, stack = self.clock, self._stack

        def traced(*args, **kwargs):
            children = [0]
            stack.append(children)
            started = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                duration = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - children[0]
                if stat.durations_ns is not None:
                    stat.durations_ns.append(duration)

        self.patch(owner, attr, traced)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set owner.attr until `restore`."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer(self, prefix: str, predicate=None) -> SpanStat:
        """Sum of the spans named `<prefix>.*` (optionally filtered by name)."""
        total = SpanStat()
        for name, stat in self.stats.items():
            layer, _, fn = name.partition(".")
            if layer == prefix and (predicate is None or predicate(fn)):
                total.calls += stat.calls
                total.total_ns += stat.total_ns
                total.self_ns += stat.self_ns
                total.errors += stat.errors
        return total


def _public_functions(module, defined_in=None):
    home = (defined_in or module).__name__
    for attr, obj in sorted(vars(module).items()):
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == home:
            yield attr


# Client methods that carry a cycle's traffic.  `_exchange` is the socket
# send/receive; its self time is the wait for the peer.
CLIENT_METHODS = (
    "connect", "ensure_connected", "open_connection",
    "round_trip", "round_trip_unconnected", "round_trip_connected",
    "read_tag", "write_tag", "_exchange",
)


def wrap_layers(tracer: Tracer) -> None:
    """Wrap the entry points of encap, cip, tags, client and scanner."""
    from logixscan import cip, client, encap, scanner, tags

    for attr in _public_functions(encap):
        tracer.wrap(encap, attr, f"encap.{attr}")
    for attr in _public_functions(cip):
        tracer.wrap(cip, attr, f"cip.{attr}")
    # scanner and client bind tags functions by name at import
    for module in (scanner, client):
        for attr in _public_functions(module, defined_in=tags):
            tracer.wrap(module, attr, f"tags.{attr}")
    for attr in CLIENT_METHODS:
        tracer.wrap(client.PlcClient, attr, f"client.{attr}",
                    keep_durations=attr == "round_trip")
    for attr, obj in sorted(vars(scanner.TagScanner).items()):
        if not attr.startswith("_") and inspect.isfunction(obj):
            tracer.wrap(scanner.TagScanner, attr, f"scanner.{attr}")


@dataclass
class WireCount:
    round_trips: int = 0
    request_bytes: int = 0
    reply_bytes: int = 0


def count_wire(tracer: Tracer) -> WireCount:
    """Count encapsulation exchanges and their bytes, both directions."""
    from logixscan import client, encap

    count = WireCount()
    exchange = client.PlcClient._exchange

    def counted(self, packet, context, expect=None):
        header, payload = exchange(self, packet, context, expect)
        count.round_trips += 1
        count.request_bytes += len(packet)
        count.reply_bytes += encap.HEADER_SIZE + len(payload)
        return header, payload

    tracer.patch(client.PlcClient, "_exchange", counted)
    return count
