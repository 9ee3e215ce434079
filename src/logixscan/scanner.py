"""Periodic tag scanning: execution, the write path and the worker threads.

Subscriptions are grouped into per-period scan lists.  Each subscription
derives its wire address once, when its tag is set: the group it coalesces
with, the element as transferred (the DINT word for a BOOL-array bit), the
bit, and the symbol path up to the final subscript.  Its current value is
one immutable (value, timestamp, quality) cell that every update replaces
whole, so `snapshot()` reads a consistent triple without a lock.

A list is planned by `plan.plan_list` before its first cycle and again
after its membership or a discovered type changes.  The plan holds each
transfer as the bytes it sends, encoded once, each read's routing of reply
elements into cells, and each coalesced output span, so a cycle only sends,
decodes and stores.  Outputs are written on demand (whole-span when more
than one element of a coalesced span is dirty) and read back every cycle
with drift notifications when the PLC side changed.  A flush groups its
dirty outputs by the planner's rule, a lone output being a group of one,
builds all its writes with one builder, then packs them in order with the
planner's packer and sends them through the same transfer loop as reads;
each embedded write lands and settles, or fails and stays dirty, alone.
Scan config files are parsed and applied by `config`.
"""

from __future__ import annotations

import enum
import logging
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace

from . import cip
from .cip import CipType, CipValue, Element, Epath
from .client import PlcClient, PlcEndpoint, PlcError, Phase
from .plan import Direction, ReadOp, ScanPlan, group, pack, plan_list
from .tags import BITS_PER_DINT, TagRef, format_tag, parse_tag, to_epath

log = logging.getLogger(__name__)

# BOOL-array bit cells; values are frozen, so every bit cell shares these
_BOOL_CELLS = (CipValue(CipType.BOOL, (False,)), CipValue(CipType.BOOL, (True,)))


class Quality(enum.Enum):
    STALE = "stale"
    OK = "ok"
    ERROR = "error"


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
    ):
        self.plc_name = plc_name
        self.ref = ref  # the setter derives the wire address
        self.period_s = period_s
        self.direction = direction
        self.elem_type = elem_type
        self.type_declared = elem_type is not None
        self.coalesce = coalesce
        self.on_drift = on_drift
        # (value, timestamp, quality), replaced whole on every update; one
        # thread writes it (the PLC's worker, or the caller before start())
        self.cell: tuple[CipValue | None, float | None, Quality] = (
            None, None, Quality.STALE
        )
        self.dirty = False
        self.pending = None

    def __repr__(self):
        return f"<Subscription {self.plc_name}:{format_tag(self.ref)} @{self.period_s}s>"

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
        base = ref.base()
        # coalescing group: the chain without its final subscript
        self.group = format_tag(base)
        self._base_segments = to_epath(base).segments
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
    next_tick: float | None = None


class _PlcUnit:
    """Per-PLC worker state: client, scan lists, caches, command queue."""

    def __init__(self, name: str, client: PlcClient):
        self.name = name
        self.client = client
        self.lists: dict[float, ScanList] = {}
        # (base chain, wire type) -> {element index: raw value}, one per
        # PLC so that every list's writes build on the others'
        self.span_cache: dict[tuple[str, CipType], dict[int, object]] = {}
        self.queue: queue.Queue = queue.Queue()
        self.thread: threading.Thread | None = None
        self.running = False


@dataclass(slots=True)
class WriteOp:
    """One write a flush built, and the subscriptions it settles on landing."""

    encoded: bytes
    subs: list[Subscription]
    # span-cache elements this write already set, so that later
    # read-modify-writes of the same flush build on it
    cache: dict[int, object]
    written: range
    response_estimate = 4  # a write reply is its status header alone

    def settle(self) -> None:
        """The write landed: each subscription holds what it wrote, OK."""
        now = time.time()
        for sub in self.subs:
            if sub.bit is not None:
                value = _BOOL_CELLS[bool(sub.pending)]
            else:
                value = CipValue(sub.elem_type, (sub.pending,))
            sub.cell = (value, now, Quality.OK)
            sub.dirty = False

    def fail(self) -> None:
        for sub in self.subs:
            sub.fail()
        for element in self.written:  # unknown on the PLC: read again first
            self.cache.pop(element, None)


def _stage_write(
    ops: list[WriteOp], path: Epath, value: CipValue, subs: list[Subscription],
    cache: dict[int, object], first: int | None,
) -> None:
    """Add one write to a flush, its elements starting at `first` (None: an
    unindexed tag, which the span cache does not hold)."""
    written = range(0) if first is None else range(first, first + len(value.elements))
    encoded = cip.encode_request(cip.build_write_request(path, value))
    ops.append(WriteOp(encoded, subs, cache, written))
    cache.update(zip(written, value.elements))


class TagScanner:
    """Scan-list manager and executor for any number of PLCs.

    With batching disabled every read and write is its own wire round trip;
    the default packs them into Multi-Requests under the buffer limit.
    """

    def __init__(self, batching: bool = True):
        self.batching = batching
        self.on_sample = None  # fn(wall_ms, period_ms, transfer_ms)
        self._units: dict[str, _PlcUnit] = {}
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
        if period_s <= 0:
            raise ValueError("period must be positive")
        if ref.bool_array and elem_type not in (None, CipType.BOOL):
            raise ValueError("bool-array tags carry BOOL elements")
        unit = self._unit(plc_name)
        sub = Subscription(
            plc_name, ref, period_s, direction,
            CipType.BOOL if ref.bool_array else elem_type,
            coalesce, on_drift,
        )

        def attach():
            sl = unit.lists.get(period_s)
            if sl is None:
                sl = ScanList(period_s)
                unit.lists[period_s] = sl
            sl.members.append(sub)
            sl.plan = None
            return sub

        return self._submit(unit, attach)

    def replace_tag(self, sub: Subscription, new_ref: TagRef | str) -> None:
        """Point an existing subscription at a different tag, in place."""
        if isinstance(new_ref, str):
            new_ref = parse_tag(new_ref, bool_array=sub.ref.bool_array)
        unit = self._unit(sub.plc_name)

        def swap():
            sub.ref = new_ref
            sub.cell = (None, sub.timestamp, Quality.STALE)
            if not sub.type_declared:
                sub.elem_type = None
            sl = unit.lists.get(sub.period_s)
            if sl is not None:
                sl.plan = None

        self._submit(unit, swap)

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
        """Pseudo-tag access: <plc>/<period_ms>/errors|last_ms|min_ms|max_ms."""
        try:
            plc_name, period_ms, item = path.split("/")
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

    def connection_phase(self, plc_name: str) -> Phase:
        return self._unit(plc_name).client.phase

    def plan_info(self, plc_name: str, period_s: float) -> list[int]:
        """Reads per planned transfer for one list (planning it if needed)."""
        unit = self._unit(plc_name)

        def inspect():
            plan = self._plan(unit, unit.lists[period_s])
            return [len(ops) for ops, _request in plan.transfers]

        return self._submit(unit, inspect)

    def _plan(self, unit: _PlcUnit, sl: ScanList) -> ScanPlan:
        """The list's plan, planned again after membership or a type changed."""
        if sl.plan is None:
            sl.plan = plan_list(sl.members, unit.client.endpoint.buffer_limit, self.batching)
        return sl.plan

    # -- scanning -------------------------------------------------------------

    def scan_once(self, plc_name: str, period_s: float | None = None) -> None:
        """Run one cycle of one list (or all lists) synchronously."""
        unit = self._unit(plc_name)

        def run():
            lists = (
                [unit.lists[period_s]] if period_s is not None
                else list(unit.lists.values())
            )
            for sl in lists:
                self._scan_list(unit, sl)

        self._submit(unit, run)

    def _scan_list(self, unit: _PlcUnit, sl: ScanList) -> None:
        now = time.time()
        if not unit.client.ensure_connected():
            with self._stats_lock:
                sl.stats.errors += 1
            for sub in sl.members:
                sub.fail()
            return
        plan = self._plan(unit, sl)
        for sub in plan.unplannable:
            sub.fail()
        started = time.monotonic()
        any_ok = False
        for op, resp in self._send(unit, sl, plan.transfers):
            if self._absorb_read(unit, sl, op, resp, now):
                any_ok = True
        duration = time.monotonic() - started
        if any_ok:
            with self._stats_lock:
                sl.stats.record(duration)
            if self.on_sample is not None:
                self.on_sample(
                    int(now * 1000), round(sl.period_s * 1000), duration * 1000.0
                )

    def _send(
        self, unit: _PlcUnit, sl: ScanList, transfers: list,
        level: int = logging.DEBUG,
    ):
        """Send transfers in order; yield (op, reply) for each op of each
        transfer that got a reply, and fail the ops of each that did not."""
        for i, (ops, message) in enumerate(transfers):
            try:
                reply = unit.client.round_trip(message)
                if len(ops) == 1:
                    responses = [reply]
                else:
                    responses = cip.split_multi_response(reply, len(ops))
            except (PlcError, cip.CipError) as exc:
                log.log(level, "transfer failed on %s: %s", unit.name, exc)
                # with the session gone, the transfers not yet sent fail too
                gone = unit.client.phase is Phase.DISCONNECTED
                with self._stats_lock:
                    sl.stats.errors += 1
                for lost, _message in transfers[i:] if gone else [(ops, message)]:
                    for op in lost:
                        op.fail()
                if gone:
                    return
                continue
            yield from zip(ops, responses)

    def _absorb_read(
        self, unit: _PlcUnit, sl: ScanList, op: ReadOp, resp: cip.CipResponse, now: float
    ) -> bool:
        try:
            value = cip.parse_read_response(resp)
        except cip.CipError as exc:
            log.debug("read failed on %s: %s", unit.name, exc)
            with self._stats_lock:
                sl.stats.errors += 1
            op.fail()
            return False
        elements, value_type = value.elements, value.type
        if op.expected_type is not None and value_type is not op.expected_type:
            with self._stats_lock:
                sl.stats.errors += 1
            op.fail()
            log.warning(
                "%s: expected %s, PLC sent %s", unit.name,
                op.expected_type.name, value_type.name,
            )
            return False
        count = len(elements)
        if op.cache_key is not None:
            start = op.start_element
            unit.span_cache.setdefault(op.cache_key, {}).update(
                zip(range(start, start + count), elements)
            )
        ok = Quality.OK
        if op.bit_inputs:
            bit_cells = ((_BOOL_CELLS[0], now, ok), (_BOOL_CELLS[1], now, ok))
            for sub, offset, bit in op.bit_inputs:
                if offset >= count:
                    sub.fail()
                    continue
                sub.cell = bit_cells[(elements[offset] >> bit) & 1]
        for sub, offset in op.typed_inputs:
            if offset >= count:
                sub.fail()
                continue
            sub.cell = (CipValue(value_type, (elements[offset],)), now, ok)
        for sub, offset, bit in op.other_targets:
            if offset >= count:
                sub.fail()
                continue
            raw = elements[offset]
            if bit is not None:
                cell = _BOOL_CELLS[(raw >> bit) & 1]
            else:
                cell = CipValue(value_type, (raw,))
                if sub.elem_type is None:
                    sub.elem_type = value_type
                    sl.plan = None  # the type now sizes and routes this read
            if sub.direction is Direction.INPUT:
                sub.cell = (cell, now, ok)
            else:
                self._apply_cell(sub, cell, now)
        return True

    def _apply_cell(self, sub: Subscription, cell: CipValue, now: float) -> None:
        """Store a freshly read output value, with drift detection."""
        old = sub.value
        if old is not None:
            if old.elements == cell.elements:
                sub.cell = (old, now, Quality.OK)
                return
            if not sub.dirty:
                sub.cell = (cell, now, Quality.OK)
                if sub.on_drift is not None:
                    self._notify_drift(sub, old, cell)
                return
        sub.cell = (cell, now, Quality.OK)

    def _notify_drift(self, sub: Subscription, old: CipValue, new: CipValue) -> None:
        try:
            sub.on_drift(sub, old, new)
        except Exception:
            log.exception("drift callback failed for %s", format_tag(sub.ref))

    # -- writing --------------------------------------------------------------

    def write(self, sub: Subscription, value, immediate: bool = True) -> None:
        """Queue a value for an output tag; immediate flushes right away."""
        if sub.direction is not Direction.OUTPUT:
            raise ValueError(f"{format_tag(sub.ref)} is not an output")
        unit = self._unit(sub.plc_name)

        def stage():
            sub.pending = value
            sub.dirty = True
            if immediate:
                self._flush_unit(unit)

        self._submit(unit, stage)

    def flush(self, plc_name: str | None = None) -> None:
        """Write out all dirty output values."""
        units = [self._unit(plc_name)] if plc_name else list(self._units.values())
        for unit in units:
            self._submit(unit, lambda u=unit: self._flush_unit(u))

    def _flush_unit(self, unit: _PlcUnit) -> None:
        if not unit.client.ensure_connected():
            for sl in unit.lists.values():
                for sub in sl.members:
                    if sub.dirty:
                        sub.fail()
            return
        for sl in unit.lists.values():
            groups, singles = group([sub for sub in sl.members if sub.dirty])
            # build every write first (prerequisite reads go out inline),
            # then send them packed, in order: groups, then singles, each a
            # group of one
            ops: list[WriteOp] = []
            for key, subs in groups.items():
                self._write_group(unit, sl, key, subs, ops)
            for sub in singles:
                if sub.wire_type() is None:  # discover the type
                    found = self._read_before_write(
                        unit, sl, sub.wire_path(sub.element), 1, [sub]
                    )
                    if found is None:
                        continue
                    sub.elem_type = found.type
                    sl.plan = None
                self._write_group(unit, sl, (sub.group, sub.wire_type()), [sub], ops)
            transfers = pack(ops, unit.client.endpoint.buffer_limit, self.batching)
            for op, resp in self._send(unit, sl, transfers, logging.WARNING):
                try:
                    cip.parse_write_response(resp)
                except cip.CipError as exc:
                    log.warning("write failed on %s: %s", unit.name, exc)
                    with self._stats_lock:
                        sl.stats.errors += 1
                    op.fail()
                    continue
                op.settle()

    def _write_group(
        self,
        unit: _PlcUnit,
        sl: ScanList,
        key: tuple[str, CipType],
        dirty_subs: list[Subscription],
        ops: list[WriteOp],
    ) -> None:
        """Build the writes of one group's dirty outputs into `ops`; a lone
        output is a group of one (an unindexed one: element None)."""
        wire_type = key[1]
        path_of = dirty_subs[0].wire_path
        cache = unit.span_cache.setdefault(key, {})

        # fold pending values into per-element words
        pending: dict[int | None, object] = {}
        for sub in dirty_subs:
            element = sub.element
            if sub.bit is None:
                pending[element] = sub.pending
                continue
            word = pending.get(element)
            if word is None:
                word = cache.get(element)
            if word is None:
                found = self._read_before_write(unit, sl, path_of(element), 1, dirty_subs)
                if found is None:
                    return
                word = cache[element] = found.elements[0]
            word = int(word) & 0xFFFFFFFF
            if sub.pending:
                word |= 1 << sub.bit
            else:
                word &= ~(1 << sub.bit) & 0xFFFFFFFF
            if word >= 1 << 31:
                word -= 1 << 32
            pending[element] = word

        touched = sorted(pending)
        if len(touched) == 1:
            element = touched[0]
            value = CipValue(wire_type, (pending[element],))
            _stage_write(ops, path_of(element), value, dirty_subs, cache, element)
            return

        # more than one element dirty: write the whole first-to-highest span
        # of the subscribed outputs, if that fits in one request
        first, high = self._plan(unit, sl).write_spans[key]
        first, high = min(first, touched[0]), max(high, touched[-1])
        count = high - first + 1
        # service + path + type and count + data
        size = 1 + len(cip.encode_epath(path_of(first))) + 4 + wire_type.width * count
        if cip.wrapped_request_size(size) > unit.client.endpoint.buffer_limit:
            # write the dirty elements one by one; each settles on its own
            for element in touched:
                subs = [s for s in dirty_subs if s.element == element]
                value = CipValue(wire_type, (pending[element],))
                _stage_write(ops, path_of(element), value, subs, cache, element)
            return
        span_range = range(first, high + 1)
        if any(e not in pending and e not in cache for e in span_range):
            found = self._read_before_write(unit, sl, path_of(first), count, dirty_subs)
            if found is None:
                return
            cache.update(zip(span_range, found.elements))
        elements = [pending[e] if e in pending else cache[e] for e in span_range]
        value = CipValue(wire_type, elements)
        _stage_write(ops, path_of(first), value, dirty_subs, cache, first)

    def _read_before_write(
        self, unit: _PlcUnit, sl: ScanList, path: Epath, count: int,
        subs: list[Subscription],
    ) -> CipValue | None:
        """A read the flush's writes depend on, sent ahead of them."""
        try:
            request = cip.encode_request(cip.build_read_request(path, count))
            return cip.parse_read_response(unit.client.round_trip(request))
        except (PlcError, cip.CipError) as exc:
            log.warning("read of %s before write failed on %s: %s",
                        subs[0].group, unit.name, exc)
            with self._stats_lock:
                sl.stats.errors += 1
            for sub in subs:
                sub.fail()
            return None

    # -- worker threads ---------------------------------------------------------

    def start(self) -> None:
        self._started = True
        for unit in self._units.values():
            self._start_unit(unit)

    def stop(self) -> None:
        self._started = False
        for unit in self._units.values():
            unit.running = False
            unit.queue.put(None)
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

    def _worker(self, unit: _PlcUnit) -> None:
        while unit.running:
            now = time.monotonic()
            due: list[ScanList] = []
            next_due = now + 0.2
            for sl in unit.lists.values():
                if sl.next_tick is None:
                    sl.next_tick = now
                if sl.next_tick <= now:
                    due.append(sl)
                else:
                    next_due = min(next_due, sl.next_tick)
            for sl in due:
                self._scan_list(unit, sl)
                sl.next_tick += sl.period_s
                finished = time.monotonic()
                if sl.next_tick <= finished:
                    missed = int((finished - sl.next_tick) // sl.period_s) + 1
                    with self._stats_lock:
                        sl.stats.overruns += missed
                    sl.next_tick += missed * sl.period_s
            if due:
                continue  # membership may have changed timing; recompute
            timeout = max(0.0, min(next_due - time.monotonic(), 0.2))
            try:
                item = unit.queue.get(timeout=timeout)
            except queue.Empty:
                continue
            if item is None:
                break
            fn, future = item
            try:
                future.set_result(fn())
            except BaseException as exc:  # propagate to the submitting thread
                future.set_exception(exc)

    def _submit(self, unit: _PlcUnit, fn):
        """Run fn on the unit's worker; inline when there is none, or when
        already on it (a callback calling back in must not wait on itself)."""
        thread = unit.thread
        if (
            thread is not None and thread.is_alive()
            and thread is not threading.current_thread()
        ):
            future: Future = Future()
            unit.queue.put((fn, future))
            return future.result(timeout=60)
        return fn()

    def _unit(self, plc_name: str) -> _PlcUnit:
        try:
            return self._units[plc_name]
        except KeyError:
            raise KeyError(f"unknown plc {plc_name!r}") from None
