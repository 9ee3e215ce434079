"""Periodic tag scanning: subscriptions, scan lists, the public API, and
each PLC's lock and worker thread.

Subscriptions are grouped into per-period scan lists.  Each subscription
derives its wire address once, when its tag is set: the group it coalesces
with, the element as transferred (the DINT word for a BOOL-array bit), the
bit, and the symbol path up to the final subscript; a scanner derives the
group and the symbol path once per base chain, for all its subscriptions.
Its current value is one immutable (value, timestamp, quality) cell that
every update replaces whole, so `snapshot()` reads a consistent triple
without a lock.

A list is planned by `plan.plan_list` before its first cycle and again
after its membership or a discovered type changes, and each plan gets a
`cycle.Executor`, which keeps what the list's steps keep of that plan's
replies, so a new plan starts with nothing kept.  A cycle and a flush are
each one step (`cycle.Step`), and every transfer of a step goes through
one loop, `cycle.send`: a step first sends the discovery reads of the
members whose type is not yet known (reads that expect no type), packed as
reads are, and plans the list again when a reply fixed a type; so a list
with undeclared members sends one extra packed round trip on its first
cycle and none after, and a member whose discovery read failed reports
ERROR (an output stays dirty, unwritten) and is read again next time.  A
cycle then sends the planned reads; a flush (`cycle.flush`) builds and
sends its writes.  Every read's reply is stored whole or refused: one that
does not carry exactly the elements its read asked for fails every target
of the read, as an error reply does.  `cycle` describes how each reply is
stored and kept.

Every call on a PLC (`write`, `flush`, `scan_once`, `plan_info`, `add_tag`,
`replace_tag`) does its work under the PLC's one reentrant lock, on the
thread that made it.  So one thread at a time uses a PLC's session, a flush
under way settles no value staged after its writes were built, and a
callback may call back into the scanner.  The schedule lives in one
method, `run_due`, a function of a clock its caller passes: under the lock
it scans each list that is due, counts an overrun for each tick a slow
cycle missed and skips them, and returns when the next list comes due.
The PLC's worker only calls it and waits, without the lock, until then; a
PLC with no list waits with no timeout, so an idle worker does not poll,
and only a new list or `stop()` wakes it.  Outputs are staged by `write`,
written on demand and read back every cycle, with drift notifications for
watched outputs when the PLC side changed, run once the step's replies are
all stored.  A list's stats take each step's errors when the step is done,
and a cycle that stored any reply records its duration and calls
`on_sample`, whose exceptions are logged, as a drift callback's are, so the
worker keeps scanning.  A list keeps its failing state per cause (not
connected, a transfer failed, a member's read failed) and logs a WARNING
when it starts failing for a cause and an INFO when it recovers from it, so
a member that always fails hides no session loss; a reply of another type
than declared, and a member that no request under the buffer limit can
carry, count an error each cycle but log once per plan.  A flush with no
session counts one `not connected` error for each list whose outputs it
fails, and logs one WARNING.  Scan config files are parsed and applied by
`config`.
"""

from __future__ import annotations

import functools
import logging
import math
import threading
import time
from dataclasses import dataclass, field, replace

from .cip import CipType, CipValue, Element, Epath
from .client import PlcClient, PlcEndpoint
from .cycle import Executor, Quality, Step, flush, notify, send
from .plan import Direction, ScanPlan, plan_list
from .tags import BITS_PER_DINT, TagPart, TagRef, format_tag, parse_tag, to_epath

log = logging.getLogger(__name__)

_BASE_CACHE_SIZE = 1024  # base chains whose address a scanner keeps

_OUTPUT = Direction.OUTPUT  # an enum member lookup is not free

# why a list fails, in the order a cycle meets them: a cycle that fails for
# one did not run (all of) the steps behind the later ones
_CAUSES = ("not connected", "transfer failed", "read failed")


@dataclass
class TransferStats:
    count: int = 0
    errors: int = 0
    overruns: int = 0
    last_s: float | None = None
    min_s: float | None = None
    max_s: float | None = None

    def record(self, duration: float) -> None:
        self.count += 1
        self.last_s = duration
        self.min_s = duration if self.min_s is None else min(self.min_s, duration)
        self.max_s = duration if self.max_s is None else max(self.max_s, duration)


def _base_address(head: tuple[TagPart, ...], symbol: str) -> tuple[str, tuple]:
    """The coalescing group and symbol path of the chain `head` + `symbol`."""
    chain = TagRef(head + (TagPart(symbol),))
    return format_tag(chain), to_epath(chain).segments


class Subscription:
    """One scanned tag: address, expectations, and the current value cell."""

    def __init__(
        self,
        plc_name: str,
        ref: TagRef,
        period_s: float,
        direction: Direction,
        elem_type: CipType | None,
        coalesce: bool,
        on_drift=None,
        base_address=_base_address,
    ):
        self.plc_name = plc_name
        # derives the address of a tag's base chain; a scanner passes its
        # cache of `_base_address`, shared by all its subscriptions
        self._base_address = base_address
        self.ref = ref  # the setter derives the wire address
        self.period_s = period_s
        self.direction = direction
        self.elem_type = elem_type
        # what replace_tag restores: None, for a type discovery learns again
        self.declared_type = elem_type
        self.coalesce = coalesce
        self._on_drift = on_drift
        # (value, timestamp, quality), replaced whole on every update; only
        # a thread that holds the PLC's lock writes it
        self.cell: tuple[CipValue | None, float | None, Quality] = (
            None, None, Quality.STALE
        )
        self.dirty = False
        self.pending = None

    def __repr__(self):
        return f"<Subscription {self.plc_name}:{format_tag(self.ref)} @{self.period_s}s>"

    @property
    def on_drift(self):
        """fn(sub, old, new) on a read-back that changed; fixed at
        construction, because the plan routes an output by it."""
        return self._on_drift

    @property
    def value(self) -> CipValue | None:
        return self.cell[0]

    @property
    def timestamp(self) -> float | None:
        return self.cell[1]

    @property
    def quality(self) -> Quality:
        return self.cell[2]

    def fail(self) -> None:
        """Mark the cell ERROR, keeping the last value and its timestamp."""
        value, timestamp, _quality = self.cell
        self.cell = (value, timestamp, Quality.ERROR)

    @property
    def ref(self) -> TagRef:
        return self._ref

    @ref.setter
    def ref(self, ref: TagRef) -> None:
        """Set the tag and derive its wire address, once per tag."""
        self._ref = ref
        parts = ref.parts
        # coalescing group: the chain without its final subscript
        self.group, self._base_segments = self._base_address(parts[:-1], parts[-1].symbol)
        # element as transferred: BOOL-array bits ride on DINT words
        self.element: int | None = ref.final_element
        self.bit: int | None = None
        if ref.bool_array:
            self.element, self.bit = divmod(self.element, BITS_PER_DINT)

    def wire_path(self, element: int | None) -> Epath:
        """Path to one element of this subscription's group (None: unindexed)."""
        if element is None:
            return Epath(self._base_segments)
        return Epath(self._base_segments + (Element(element),))

    def wire_type(self) -> CipType | None:
        """Element type as transferred: DINT words for BOOL-array bits."""
        if self.bit is not None:
            return CipType.DINT
        return self.elem_type


@dataclass
class ScanList:
    period_s: float
    members: list[Subscription] = field(default_factory=list)
    stats: TransferStats = field(default_factory=TransferStats)
    plan: ScanPlan | None = None
    # what its cycles and flushes keep of the plan's replies, made with it
    executor: Executor | None = None
    next_tick: float | None = None
    # why the list is failing, by cause
    faults: dict[str, str] = field(default_factory=dict)


def _fail_unconnected(step: Step, subs) -> None:
    """Count the step's `not connected` error, with why, and fail `subs`."""
    step.error("not connected", step.unit.client.connect_error or "reconnect paced")
    for sub in subs:
        sub.fail()


class _PlcUnit:
    """Per-PLC state: client, scan lists, caches, lock and worker."""

    def __init__(self, name: str, client: PlcClient):
        self.name = name
        self.client = client
        self.lists: dict[float, ScanList] = {}
        # (base chain, wire type) -> {element index: raw value}, one per
        # PLC so that every list's writes build on the others'
        self.span_cache: dict[tuple[str, CipType], dict[int, object]] = {}
        # held by every call on this PLC and by its worker while it scans;
        # reentrant, so that a callback may call back into the scanner
        self.lock = threading.RLock()
        self.wake = threading.Event()  # a list was added, or the worker stops
        self.thread: threading.Thread | None = None
        self.running = False


class TagScanner:
    """Scan-list manager and executor for any number of PLCs.

    With batching disabled every read and write is its own wire round trip;
    the default packs them into Multi-Requests under the buffer limit.
    """

    def __init__(self, batching: bool = True):
        self.batching = batching
        self.on_sample = None  # fn(wall_ms, period_ms, transfer_ms)
        self._units: dict[str, _PlcUnit] = {}
        # one address derivation per base chain, e.g. for all bits of an array
        self._base_address = functools.lru_cache(maxsize=_BASE_CACHE_SIZE)(_base_address)
        self._stats_lock = threading.Lock()
        self._started = False

    # -- membership ----------------------------------------------------------

    def add_plc(
        self, name: str, endpoint: PlcEndpoint, connected: bool = False
    ) -> None:
        if name in self._units:
            raise ValueError(f"plc {name!r} already defined")
        unit = _PlcUnit(name, PlcClient(endpoint, prefer_connected=connected))
        self._units[name] = unit
        if self._started:
            self._start_unit(unit)

    def add_tag(
        self,
        plc_name: str,
        ref: TagRef | str,
        period_s: float,
        direction: Direction | str = Direction.INPUT,
        elem_type: CipType | None = None,
        coalesce: bool = True,
        bool_array: bool = False,
        on_drift=None,
    ) -> Subscription:
        if isinstance(ref, str):
            ref = parse_tag(ref, bool_array=bool_array)
        elif bool_array and not ref.bool_array:
            ref = replace(ref, bool_array=True)
        if isinstance(direction, str):
            direction = Direction(direction)
        if not 0 < period_s < math.inf:  # a NaN or infinite period never comes due
            raise ValueError("period must be positive and finite")
        if ref.bool_array and elem_type not in (None, CipType.BOOL):
            raise ValueError("bool-array tags carry BOOL elements")
        unit = self._unit(plc_name)
        sub = Subscription(
            plc_name, ref, period_s, direction,
            CipType.BOOL if ref.bool_array else elem_type,
            coalesce, on_drift, self._base_address,
        )
        with unit.lock:
            sl = unit.lists.get(period_s)
            if sl is None:
                sl = unit.lists[period_s] = ScanList(period_s)
                unit.wake.set()  # due at once
            sl.members.append(sub)
            sl.plan = None
        return sub

    def replace_tag(self, sub: Subscription, new_ref: TagRef | str) -> None:
        """Point an existing subscription at a different tag, in place."""
        if isinstance(new_ref, str):
            new_ref = parse_tag(new_ref, bool_array=sub.ref.bool_array)
        unit = self._unit(sub.plc_name)
        with unit.lock:
            sub.ref = new_ref
            sub.cell = (None, sub.timestamp, Quality.STALE)
            sub.elem_type = sub.declared_type
            sl = unit.lists.get(sub.period_s)
            if sl is not None:
                sl.plan = None

    # -- value access ----------------------------------------------------------

    def snapshot(self, sub: Subscription):
        """Consistent (value, timestamp, quality) triple."""
        return sub.cell

    def value_of(self, sub: Subscription):
        value, _ts, _q = self.snapshot(sub)
        return value.scalar if value is not None else None

    def stats(self, plc_name: str, period_s: float) -> TransferStats:
        unit = self._unit(plc_name)
        sl = unit.lists.get(period_s)
        if sl is None:
            raise KeyError(f"no scan list with period {period_s} on {plc_name}")
        with self._stats_lock:
            return replace(sl.stats)

    def stat_value(self, path: str):
        """Pseudo-tag access, per list:
        <plc>/<period_ms>/count|errors|overruns|last_ms|min_ms|max_ms;
        and per PLC, the state of its session: <plc>/phase (its `Phase`
        value: "disconnected", "registered" or "connected"),
        <plc>/reconnects (connection attempts, the first included),
        <plc>/consecutive_errors (round trips failed since the last that
        succeeded or the last connect) and <plc>/last_transfer_ms (the
        wall time of the last round trip that got a reply; None before
        one)."""
        parts = path.split("/")
        if len(parts) == 2:
            plc_name, item = parts
            client = self._unit(plc_name).client
            if item == "phase":
                return client.phase.value
            if item == "reconnects":
                return client.reconnect_attempts
            if item == "consecutive_errors":
                return client.consecutive_errors
            if item == "last_transfer_ms":
                seconds = client.last_transfer_s
                return None if seconds is None else seconds * 1000.0
            raise KeyError(f"unknown stats item {item!r}")
        try:
            plc_name, period_ms, item = parts
            period_s = float(period_ms) / 1000.0
        except ValueError:
            raise KeyError(f"bad stats path {path!r}") from None
        stats = self.stats(plc_name, period_s)
        if item == "errors":
            return stats.errors
        if item == "count":
            return stats.count
        if item == "overruns":
            return stats.overruns
        if item in ("last_ms", "min_ms", "max_ms"):
            seconds = getattr(stats, item.replace("_ms", "_s"))
            return None if seconds is None else seconds * 1000.0
        raise KeyError(f"unknown stats item {item!r}")

    def plan_info(self, plc_name: str, period_s: float) -> list[int]:
        """Reads per planned transfer for one list (planning it if needed);
        a member of unknown type is in none until its discovery read."""
        unit = self._unit(plc_name)
        with unit.lock:
            plan = self._executor(unit, unit.lists[period_s]).plan
            return [len(ops) for ops, _request in plan.transfers]

    def _executor(self, unit: _PlcUnit, sl: ScanList) -> Executor:
        """The executor of the list's plan, planned again after membership
        or a type changed."""
        if sl.plan is None:
            limit = unit.client.endpoint.buffer_limit
            sl.plan = plan_list(sl.members, limit, self.batching)
            sl.executor = Executor(sl.plan)
            # a configuration fault, not the list failing: logged once per plan
            for sub in sl.plan.unplannable:
                log.warning("%s: %s does not fit the %d-byte limit",
                            unit.name, format_tag(sub.ref), limit)
        return sl.executor

    def _discover(self, unit: _PlcUnit, sl: ScanList, step: Step) -> Executor:
        """The list's executor once its members of unknown type have had
        their discovery reads, sent in the step: a reply that fixes a
        member's type plans the list again, and a member whose read failed
        reports ERROR and is read again next time.  Unplannable members
        report ERROR."""
        executor = self._executor(unit, sl)
        if executor.discovery and send(step, executor.discovery, executor.discovery_replies):
            sl.plan = None
            executor = self._executor(unit, sl)
        for sub in executor.plan.unplannable:
            sub.fail()
        return executor

    # -- scanning -------------------------------------------------------------

    def scan_once(self, plc_name: str, period_s: float | None = None) -> None:
        """Run one cycle of one list (or all lists) on the calling thread."""
        unit = self._unit(plc_name)
        with unit.lock:
            lists = [unit.lists[period_s]] if period_s is not None else list(unit.lists.values())
            for sl in lists:
                self._scan_list(unit, sl)

    def _scan_list(self, unit: _PlcUnit, sl: ScanList) -> None:
        """One cycle of a list.  Each cause logs a WARNING when the list
        starts failing for it, and an INFO when a cycle that ran its step
        is clear of it; a cycle that fails for one cause keeps the state of
        the later ones, whose steps it did not all run."""
        causes = self._read_list(unit, sl)
        if not (sl.faults or causes):
            return
        for cause in _CAUSES:
            fault, error = sl.faults.pop(cause, None), causes.get(cause)
            if error is not None:
                if fault is None:
                    log.warning("%s: list %g s failing: %s", unit.name, sl.period_s, error)
                sl.faults[cause] = error
                break
            if fault is not None:
                log.info("%s: list %g s recovered from: %s", unit.name, sl.period_s, fault)

    def _read_list(self, unit: _PlcUnit, sl: ScanList) -> dict[str, str]:
        """One cycle's reads, as one step; returns the causes it failed for."""
        step = Step(unit, logging.DEBUG)
        client = unit.client
        stored = False
        if client.ensure_connected():
            started = time.monotonic()
            executor = self._discover(unit, sl, step)
            for _sub in executor.plan.unplannable:  # counted each cycle, as a type mismatch is
                step.error()
            stored = send(step, executor.transfers, executor.replies)
            duration = time.monotonic() - started
        else:
            _fail_unconnected(step, sl.members)
        with self._stats_lock:
            sl.stats.errors += step.errors
            if stored:
                sl.stats.record(duration)
        if stored and self.on_sample is not None:
            try:
                self.on_sample(
                    int(step.now * 1000), round(sl.period_s * 1000), duration * 1000.0
                )
            except Exception:
                log.exception("on_sample failed for %s", unit.name)
        if step.drifts:
            notify(step.drifts)
        return step.causes

    # -- writing --------------------------------------------------------------

    def write(self, sub: Subscription, value, immediate: bool = True) -> None:
        """Stage a value for an output tag; immediate flushes right away,
        on the calling thread.  The value is staged under the PLC's lock, so
        a flush under way settles it only if it was staged before that
        flush built its writes."""
        if sub.direction is not _OUTPUT:
            raise ValueError(f"{format_tag(sub.ref)} is not an output")
        unit = self._unit(sub.plc_name)
        with unit.lock:
            sub.pending = value
            sub.dirty = True
            if immediate:
                self._flush_unit(unit)

    def flush(self, plc_name: str | None = None) -> None:
        """Write out all dirty output values."""
        units = [self._unit(plc_name)] if plc_name else list(self._units.values())
        for unit in units:
            with unit.lock:
                self._flush_unit(unit)

    def _flush_unit(self, unit: _PlcUnit) -> None:
        """Flush each list's dirty outputs, as one step per list.  With no
        session, each list they are in counts one `not connected` error,
        and the flush logs one WARNING."""
        connected = unit.client.ensure_connected()
        if not connected and any(sub.dirty for sl in unit.lists.values() for sub in sl.members):
            log.warning("flush failed on %s: not connected: %s", unit.name,
                        unit.client.connect_error or "reconnect paced")
        for sl in unit.lists.values():
            if any(sub.dirty for sub in sl.members):
                step = Step(unit, logging.WARNING)
                if connected:
                    flush(step, self._discover(unit, sl, step))
                else:
                    _fail_unconnected(step, [sub for sub in sl.members if sub.dirty])
                if step.errors:
                    with self._stats_lock:
                        sl.stats.errors += step.errors

    # -- worker threads ---------------------------------------------------------

    def start(self) -> None:
        self._started = True
        for unit in self._units.values():
            self._start_unit(unit)

    def stop(self) -> None:
        self._started = False
        for unit in self._units.values():
            unit.running = False
            unit.wake.set()
        for unit in self._units.values():
            if unit.thread is not None:
                unit.thread.join(timeout=10)
                unit.thread = None
            unit.client.close()

    def _start_unit(self, unit: _PlcUnit) -> None:
        if unit.thread is not None and unit.thread.is_alive():
            return
        unit.running = True
        unit.thread = threading.Thread(
            target=self._worker, args=(unit,), name=f"scan-{unit.name}", daemon=True
        )
        unit.thread.start()

    def run_due(self, plc_name: str, clock=time.monotonic) -> float | None:
        """Scan, under the PLC's lock, each of its lists that is due at
        `clock()`; return when the next list comes due (None: the PLC has
        no list).  A list's first tick is the first call that sees it.  A
        list still scanning at its next tick counts an overrun for each
        tick it missed, read from `clock()` once it is done, and skips
        them.  `clock` is any monotonic clock in seconds; a test may pass
        a fake one."""
        unit = self._unit(plc_name)
        with unit.lock:
            now = clock()
            lists = list(unit.lists.values())
            for sl in lists:
                if sl.next_tick is None:
                    sl.next_tick = now
                if sl.next_tick <= now:
                    self._scan_list(unit, sl)
                    sl.next_tick += sl.period_s
                    finished = clock()
                    if sl.next_tick <= finished:
                        missed = int((finished - sl.next_tick) // sl.period_s) + 1
                        with self._stats_lock:
                            sl.stats.overruns += missed
                        sl.next_tick += missed * sl.period_s
            return min((sl.next_tick for sl in lists), default=None)

    def _worker(self, unit: _PlcUnit) -> None:
        """Run the PLC's due lists (`run_due`), then wait, without the
        lock, until the next comes due.  A PLC with no list waits with no
        timeout: only a new list or `stop()` wakes it, so an idle worker
        does not poll."""
        while unit.running:
            next_due = self.run_due(unit.name)
            unit.wake.wait(None if next_due is None else max(0.0, next_due - time.monotonic()))
            # cleared before `running` and the lists are read again, so no
            # stop() and no new list that comes after is missed
            unit.wake.clear()

    def _unit(self, plc_name: str) -> _PlcUnit:
        try:
            return self._units[plc_name]
        except KeyError:
            raise KeyError(f"unknown plc {plc_name!r}") from None
