"""Periodic tag scanning: execution, the write path and the worker threads.

Subscriptions are grouped into per-period scan lists.  Each subscription
derives its wire address once, when its tag is set: the group it coalesces
with, the element as transferred (the DINT word for a BOOL-array bit), the
bit, and the symbol path up to the final subscript; a scanner derives the
group and the symbol path once per base chain, for all its subscriptions.
Its current value is one immutable (value, timestamp, quality) cell that
every update replaces whole, so `snapshot()` reads a consistent triple
without a lock.

A list is planned by `plan.plan_list` before its first cycle and again
after its membership or a discovered type changes.  A member declared
without a type is in no transfer until its type is known: before a list's
reads or writes go out, a cycle and a flush take one discovery step, which
sends one single-element read per such member, packed like any reads; each
reply fixes its member's type and the list is planned again.  So a list
with undeclared members sends one extra packed round trip on its first
cycle and none after; a member whose read fails reports ERROR (an output
stays dirty, unwritten) and is read again next time.  The plan holds each
transfer as the bytes it sends, encoded once, each read's routing of reply
elements into cells (an output without `on_drift` is stored as an input
is), and each planned write, a run's span or a lone output's, with its
encoded head, so a cycle only sends, decodes and stores.  Each planned
transfer keeps its last reply (`plan.TransferReply`): the client compares
the next reply's bytes with it and, when they are equal, returns the kept
decoded reply.  Once the same reply has come back and every read in the
transfer stored it whole (no short reply, no type mismatch, no drift
callback), the transfer also keeps a flat restamp record, built from the
reads' last replies: the typed cells with their values, the bit cells with
their bits, and the span-cache refreshes of reads of outputs.  The one
transfer loop, `_send`, used by a cycle and by a flush's list read, stores
a repeated reply with a record in one pass, with no reply decoded or split
and no read called; any other reply drops the record and is split and
stored read by read.  Each planned read keeps the payload of its last
accepted reply and the cells it decoded to: a reply whose bytes are the
same again is not decoded, and its cells take the same immutable values
with this cycle's timestamp; a reply that changed but keeps its type and
element count builds a value only for each element whose wire bytes
changed, and the rest keep theirs.  Discovery reads keep nothing, and a
new plan starts with nothing kept.
Outputs are staged by `write` (in place, or through the worker's queue from
another thread while a worker runs), written on demand and read back every
cycle, with drift notifications for watched outputs when the PLC side
changed, run once the step's replies are all stored.  A flush walks the
plan's writes that carry dirty outputs and, batched, cuts each at every gap
that costs more bytes than a write of its own (`plan.cut_writes`: never
into more transfers or more bytes than one write per planned write).  It
builds, with no I/O, one write per part, from its first dirty element to
its last: staged values on the dirty elements, and the span cache that the
list's reads fill on the short gaps the part keeps, so no element outside a
part is written; a BOOL word's dirty bits apply as one mask of bits to set
and one to clear.  Its head is the planned one with a new element segment
and count, composed once per plan, so a flush encodes no path.  An output
the plan left out (unplannable, or of a type still unknown) is in no
planned write, so no flush sends it.  If a write builds on an element the
cache lacks (a gap not yet read, or a BOOL word to modify), the flush sends
the list's own planned reads once, through the same transfer loop and the
same reply handling as a cycle, then builds every write again; a write that
still lacks an element fails, its outputs ERROR and still dirty.  The
writes are packed in order with the planner's packer.  A reply whose writes
all landed depends only on how many it carries, so it is known by its
bytes and settles them all with no embedded reply split or decoded; in any
other, each embedded write lands and settles to its elements as packed, or
fails and stays dirty, alone.  An output whose staged value cannot be
encoded fails alone, unwritten.  Once a step loses the session, the later
steps' requests fail unsent, so the loss counts one error.  A list keeps
its failing state per cause (not connected, a transfer failed, a member's
read failed) and logs a WARNING when it starts failing for a cause and an
INFO when it recovers from it, so a member that always fails hides no
session loss; a reply of another type than declared, and a member that no
request under the buffer limit can carry, count an error each cycle but log
once per plan.  Scan config files are parsed and applied by `config`.
"""

from __future__ import annotations

import enum
import functools
import logging
import math
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace

from . import cip
from .cip import CipType, CipValue, Element, Epath
from .client import PlcClient, PlcEndpoint, PlcError, Phase
from .plan import Direction, ReadOp, ScanPlan, WriteSpan, cut_writes, pack, plan_list
from .tags import BITS_PER_DINT, TagPart, TagRef, format_tag, parse_tag, to_epath

log = logging.getLogger(__name__)

# BOOL-array bit cells; values are frozen, so every bit cell shares these
_BOOL_CELLS = (CipValue(CipType.BOOL, (False,)), CipValue(CipType.BOOL, (True,)))

_BASE_CACHE_SIZE = 1024  # base chains whose address a scanner keeps

# what `cip.pack_elements` raises for an element it cannot encode
_UNENCODABLE = (cip.CipError, TypeError, ValueError, OverflowError)

# a BOOL word to modify that the span cache does not hold
_LACKING = object()

_SIGN = 1 << (BITS_PER_DINT - 1)  # a DINT word's sign bit

# an enum member lookup is not free
_OUTPUT = Direction.OUTPUT
_DISCONNECTED = Phase.DISCONNECTED

# what a write that landed replies: its status header alone
_LANDED = cip.CipResponse(cip.WRITE_DATA | cip.REPLY_FLAG)


# n, the writes one transfer holds, stays under 128 at any buffer limit
@functools.lru_cache(maxsize=128)
def _all_landed(n: int) -> tuple[cip.CipResponse, tuple]:
    """The Multi-Request reply to n writes that all landed, which depends
    on n alone, and the embedded replies it splits into."""
    return cip.build_multi_response([_LANDED] * n), (_LANDED,) * n


# why a list fails, in the order a cycle meets them: a cycle that fails for
# one did not run (all of) the steps behind the later ones
_CAUSES = ("not connected", "transfer failed", "read failed")


class Quality(enum.Enum):
    STALE = "stale"
    OK = "ok"
    ERROR = "error"


_OK = Quality.OK


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
    next_tick: float | None = None
    # why the list is failing, by cause, and the first error of each cause
    # in the cycle under way, which the cycle's end makes its fault
    faults: dict[str, str] = field(default_factory=dict)
    causes: dict[str, str] = field(default_factory=dict)


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
    # the element the write starts at (None: an unindexed tag, which the
    # span cache does not hold), and its elements as packed: what the PLC
    # holds once it lands
    first: int | None
    values: tuple
    response_estimate = 4  # a write reply is its status header alone

    def settle(self) -> None:
        """The write landed: each subscription holds what went on the wire
        for it (a bit, from its written word), OK."""
        now, ok = time.time(), _OK
        first, values = self.first, self.values
        for sub in self.subs:
            raw = values[0 if first is None else sub.element - first]
            bit = sub.bit
            if bit is not None:
                value = _BOOL_CELLS[(raw >> bit) & 1]
            else:
                value = CipValue(sub.elem_type, (raw,))
            sub.cell = (value, now, ok)
            sub.dirty = False

    def fail(self) -> None:
        for sub in self.subs:
            sub.fail()
        if self.first is not None:  # unknown on the PLC: read again first
            for element in range(self.first, self.first + len(self.values)):
                self.cache.pop(element, None)


def _same_wire(a: CipValue, b: CipValue) -> bool:
    """Whether two values go on the wire as the same bytes: a NaN equals
    itself, and -0.0 is not 0.0."""
    return a.type is b.type and (
        cip.pack_elements(a.type, a.elements) == cip.pack_elements(b.type, b.elements)
    )


def _wire_words(value_type: CipType, payload: bytes, elements: tuple) -> tuple:
    """Per element of a read reply, a value that two elements of this type
    share only if they decode to values of the same wire bytes, as
    `_same_wire` compares them: a REAL's bits (a NaN equals itself, and
    -0.0 is not 0.0), any other element itself."""
    if value_type is CipType.REAL:
        return cip.unpack_elements(CipType.DINT, payload[2:])
    return elements


def _restamp_record(ops: list[ReadOp], responses) -> tuple | None:
    """The restamp record of a transfer whose reply its ops just stored
    again, built from each op's `last_reply`; None unless every op stored
    its reply whole: accepted (no error status, no other service, no type
    mismatch), covering every target, and with no drift callback to run."""
    typed_subs, values, zeros, ones, refreshes = [], [], [], [], []
    for op, resp in zip(ops, responses):
        last = op.last_reply
        if (
            op.checked_targets or last is None or last[7] or resp.payload != last[0]
            or resp.general_status != cip.STATUS_OK or resp.service_reply != cip.READ_REPLY
        ):
            return None
        _payload, _type, elements, subs, op_values, bit_subs, bits, _past = last
        typed_subs += subs
        values += op_values
        for sub, bit in zip(bit_subs, bits):
            (ones if bit else zeros).append(sub)
        if op.cache_key is not None:
            start = op.start_element
            refreshes.append(
                (op.cache_key, dict(zip(range(start, start + len(elements)), elements)))
            )
    return typed_subs, values, zeros, ones, refreshes


def _restamp(unit: _PlcUnit, record: tuple, now: float) -> None:
    """Store a transfer's repeated reply from its restamp record: the cells
    and span cache that its ops would store from the same reply, stamped
    `now`."""
    typed_subs, values, zeros, ones, refreshes = record
    ok = _OK
    for sub, value in zip(typed_subs, values):
        sub.cell = (value, now, ok)
    cell = (_BOOL_CELLS[0], now, ok)
    for sub in zeros:
        sub.cell = cell
    cell = (_BOOL_CELLS[1], now, ok)
    for sub in ones:
        sub.cell = cell
    for key, elements in refreshes:
        unit.span_cache.setdefault(key, {}).update(elements)


def _encoding_error(wire_type: CipType, value) -> Exception | None:
    """Why one staged value cannot be packed as wire_type, or None."""
    try:
        cip.pack_elements(wire_type, (value,))
    except _UNENCODABLE as exc:
        return exc
    return None


def _notify_drift(drifts: list) -> None:
    """Run the drift callback of each (sub, old, new), in order."""
    for sub, old, new in drifts:
        try:
            sub.on_drift(sub, old, new)
        except Exception:
            log.exception("drift callback failed for %s", format_tag(sub.ref))


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
            sub.elem_type = sub.declared_type
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

    def connection_phase(self, plc_name: str) -> Phase:
        return self._unit(plc_name).client.phase

    def plan_info(self, plc_name: str, period_s: float) -> list[int]:
        """Reads per planned transfer for one list (planning it if needed);
        a member of unknown type is in none until its discovery read."""
        unit = self._unit(plc_name)

        def inspect():
            plan = self._plan(unit, unit.lists[period_s])
            return [len(ops) for ops, _request in plan.transfers]

        return self._submit(unit, inspect)

    def _plan(self, unit: _PlcUnit, sl: ScanList) -> ScanPlan:
        """The list's plan, planned again after membership or a type changed."""
        if sl.plan is None:
            limit = unit.client.endpoint.buffer_limit
            sl.plan = plan_list(sl.members, limit, self.batching)
            # a configuration fault, not the list failing: logged once per plan
            for sub in sl.plan.unplannable:
                log.warning("%s: %s does not fit the %d-byte limit",
                            unit.name, format_tag(sub.ref), limit)
        return sl.plan

    def _discover(self, unit: _PlcUnit, sl: ScanList, level: int = logging.DEBUG) -> ScanPlan:
        """The list's plan once its members of unknown type have had their
        discovery reads, sent packed: each reply fixes its member's type and
        plans the list again, and a member whose read failed reports ERROR
        and is read again next time.  Unplannable members report ERROR."""
        plan = self._plan(unit, sl)
        if plan.discovery:
            transfers = pack(plan.discovery, unit.client.endpoint.buffer_limit, self.batching)
            for op, resp in self._send(unit, sl, transfers, level):
                try:
                    op.targets[0][0].elem_type = cip.parse_read_reply(resp)[0]
                    sl.plan = None
                except cip.CipError as exc:
                    log.log(level, "read failed on %s: %s", unit.name, exc)
                    self._error(sl, "read failed", exc)
                    op.fail()
            plan = self._plan(unit, sl)
        for sub in plan.unplannable:
            sub.fail()
        return plan

    # -- scanning -------------------------------------------------------------

    def scan_once(self, plc_name: str, period_s: float | None = None) -> None:
        """Run one cycle of one list (or all lists) synchronously."""
        unit = self._unit(plc_name)

        self._submit(unit, self._scan_lists, unit, period_s)

    def _scan_lists(self, unit: _PlcUnit, period_s: float | None) -> None:
        lists = [unit.lists[period_s]] if period_s is not None else list(unit.lists.values())
        for sl in lists:
            self._scan_list(unit, sl)

    def _scan_list(self, unit: _PlcUnit, sl: ScanList) -> None:
        """One cycle of a list.  Each cause logs a WARNING when the list
        starts failing for it, and an INFO when a cycle that ran its step
        is clear of it; a cycle that fails for one cause keeps the state of
        the later ones, whose steps it did not all run."""
        sl.causes = {}
        self._read_list(unit, sl)
        if not (sl.faults or sl.causes):
            return
        for cause in _CAUSES:
            fault, error = sl.faults.pop(cause, None), sl.causes.get(cause)
            if error is not None:
                if fault is None:
                    log.warning("%s: list %g s failing: %s", unit.name, sl.period_s, error)
                sl.faults[cause] = error
                break
            if fault is not None:
                log.info("%s: list %g s recovered from: %s", unit.name, sl.period_s, fault)

    def _read_list(self, unit: _PlcUnit, sl: ScanList) -> None:
        now = time.time()
        client = unit.client
        if not client.ensure_connected():
            self._error(sl, "not connected", client.connect_error or "reconnect paced")
            for sub in sl.members:
                sub.fail()
            return
        started = time.monotonic()
        plan = self._discover(unit, sl)
        for _sub in plan.unplannable:  # counted each cycle, as a type mismatch is
            self._error(sl)
        any_ok = False
        drifts: list = []
        for op, resp in self._send(unit, sl, plan.transfers, kept=plan.replies, now=now):
            if op is None or self._absorb_read(unit, sl, op, resp, now, drifts):
                any_ok = True
        duration = time.monotonic() - started
        if any_ok:
            with self._stats_lock:
                sl.stats.record(duration)
            if self.on_sample is not None:
                self.on_sample(
                    int(now * 1000), round(sl.period_s * 1000), duration * 1000.0
                )
        _notify_drift(drifts)

    def _error(self, sl: ScanList, cause: str | None = None, detail=None) -> None:
        """Count one error of the list; the cycle's first of a cause is kept
        with its detail (a fault without a cause, such as a member's, fails
        no list)."""
        with self._stats_lock:
            sl.stats.errors += 1
        if cause is not None and cause not in sl.causes:
            sl.causes[cause] = f"{cause}: {detail}"

    def _send(
        self, unit: _PlcUnit, sl: ScanList, transfers: list,
        level: int = logging.DEBUG, kept: list | None = None, now: float | None = None,
        expect: list | None = None,
    ):
        """Send transfers in order; yield (op, reply) for each op of each
        transfer that got a reply, and fail the ops of each that did not.
        Once the session is gone, lost here or in an earlier step, the
        transfers left fail unsent and uncounted: its loss counted once.
        With `kept`, a plan's `replies` for its reads, the client returns a
        transfer's kept reply when the bytes repeat.  A repeated reply whose
        slot holds a restamp record is stored from it at `now`, with no op
        called, and yields (None, None) once; a repeated one without a
        record is yielded op by op, and then gets a record if every op
        stored it whole; any other reply drops the record.  With `expect`,
        per transfer a Multi-Request reply and the embedded replies it
        splits into (the replies a flush expects), a reply equal to it is
        not split."""
        client = unit.client
        for i, (ops, message) in enumerate(transfers):
            if client.phase is _DISCONNECTED:
                for lost, _message in transfers[i:]:
                    for op in lost:
                        op.fail()
                return
            repeated = False
            try:
                if kept is None:
                    reply = client.round_trip(message)
                else:
                    slot = kept[i]
                    before = slot.resp
                    reply = client.round_trip(message, slot)
                    repeated = reply is before
                    if not repeated:
                        slot.restamp = None
                    elif slot.restamp is not None:
                        _restamp(unit, slot.restamp, now)
                        yield None, None
                        continue
                if len(ops) == 1:
                    responses = (reply,)
                elif expect is not None and expect[i][0] == reply:
                    responses = expect[i][1]
                else:
                    responses = cip.split_multi_response(reply, len(ops))
            except (PlcError, cip.CipError) as exc:
                log.log(level, "transfer failed on %s: %s", unit.name, exc)
                self._error(sl, "transfer failed", exc)
                for op in ops:
                    op.fail()
                continue
            yield from zip(ops, responses)
            if repeated:
                slot.restamp = _restamp_record(ops, responses)

    def _absorb_read(
        self, unit: _PlcUnit, sl: ScanList, op: ReadOp, resp: cip.CipResponse, now: float,
        drifts: list, level: int = logging.DEBUG,
    ) -> bool:
        """Store one read's reply; a watched output whose value the PLC
        changed while it had nothing staged adds (sub, old, new) to `drifts`,
        for its callback to run once the step's every reply is stored."""
        last = op.last_reply
        if (
            last is None or resp.payload != last[0]
            or resp.general_status != cip.STATUS_OK or resp.service_reply != cip.READ_REPLY
        ):
            # not the bytes of the last accepted reply: decode them
            try:
                value_type, elements = cip.parse_read_reply(resp)
            except cip.CipError as exc:
                log.log(level, "read failed on %s: %s", unit.name, exc)
                self._error(sl, "read failed", exc)
                op.fail()
                return False
            if value_type is not op.expected_type:
                # a configuration fault, not the list failing: logged once per plan
                self._error(sl)
                op.fail()
                if not op.mismatch_logged:
                    op.mismatch_logged = True
                    log.warning(
                        "%s: %s expected %s, PLC sent %s", unit.name,
                        op.targets[0][0].group, op.expected_type.name, value_type.name,
                    )
                return False
            count = len(elements)
            typed, bits = op.typed_targets, op.bit_targets
            typed_subs, bit_subs, past = op.typed_subs, op.bit_subs, []
            if count < op.reach:  # a short reply: only the targets it covers are stored
                past = [t[0] for t in typed + bits if t[1] >= count]
                typed = [t for t in typed if t[1] < count]
                bits = [t for t in bits if t[1] < count]
                typed_subs, bit_subs = [t[0] for t in typed], [t[0] for t in bits]
            if last is not None and last[1] is value_type and len(last[2]) == count:
                # the kept reply's layout: a typed target whose element has
                # the same wire bytes keeps the value it decoded to
                new = _wire_words(value_type, resp.payload, elements)
                old = _wire_words(value_type, last[0], last[2])
                values = [
                    kept if new[o] == old[o] else CipValue(value_type, (elements[o],))
                    for (_sub, o), kept in zip(typed, last[4])
                ]
            else:
                values = [CipValue(value_type, (elements[o],)) for _sub, o in typed]
            last = op.last_reply = (
                resp.payload, value_type, elements, typed_subs, values,
                bit_subs, [(elements[o] >> bit) & 1 for _sub, o, bit in bits], past,
            )
        _payload, value_type, elements, typed_subs, values, bit_subs, bits, past = last
        count = len(elements)
        if op.cache_key is not None:
            start = op.start_element
            unit.span_cache.setdefault(op.cache_key, {}).update(
                zip(range(start, start + count), elements)
            )
        ok = _OK
        for sub, value in zip(typed_subs, values):
            sub.cell = (value, now, ok)
        if bits:
            bit_cells = ((_BOOL_CELLS[0], now, ok), (_BOOL_CELLS[1], now, ok))
            for sub, bit in zip(bit_subs, bits):
                sub.cell = bit_cells[bit]
        for sub in past:  # a short reply: the targets past it fail
            sub.fail()
        for sub, offset, bit in op.checked_targets:
            if offset >= count:
                sub.fail()
                continue
            raw = elements[offset]
            if bit is not None:
                cell = _BOOL_CELLS[(raw >> bit) & 1]
            else:
                cell = CipValue(value_type, (raw,))
            old = sub.value
            if old is not None and _same_wire(old, cell):
                sub.cell = (old, now, ok)
                continue
            sub.cell = (cell, now, ok)
            if old is not None and not sub.dirty:
                drifts.append((sub, old, cell))
        return True

    # -- writing --------------------------------------------------------------

    def write(self, sub: Subscription, value, immediate: bool = True) -> None:
        """Stage a value for an output tag; immediate flushes right away.
        A value staged from a thread other than a running worker goes
        through its queue, so that no flush under way settles a value
        staged after its writes were built; otherwise it is set in place."""
        if sub.direction is not _OUTPUT:
            raise ValueError(f"{format_tag(sub.ref)} is not an output")
        unit = self._unit(sub.plc_name)
        if immediate or (unit.thread is not None and self._queued(unit)):
            self._submit(unit, self._stage, unit, sub, value, immediate)
            return
        sub.pending = value
        sub.dirty = True

    def _stage(self, unit: _PlcUnit, sub: Subscription, value, immediate: bool) -> None:
        sub.pending = value
        sub.dirty = True
        if immediate:
            self._flush_unit(unit)

    def flush(self, plc_name: str | None = None) -> None:
        """Write out all dirty output values."""
        units = [self._unit(plc_name)] if plc_name else list(self._units.values())
        for unit in units:
            self._submit(unit, self._flush_unit, unit)

    def _flush_unit(self, unit: _PlcUnit) -> None:
        if not unit.client.ensure_connected():
            for sl in unit.lists.values():
                for sub in sl.members:
                    if sub.dirty:
                        sub.fail()
            return
        for sl in unit.lists.values():
            if not any(sub.dirty for sub in sl.members):
                continue
            plan = self._discover(unit, sl, logging.WARNING)
            ops, lacking = self._build_flush(unit, sl)
            if lacking:
                # a write builds on an element the span cache lacks: read the
                # list once, then build every write again, so that no span
                # write carries a gap just read over a write staged before it
                now = time.time()
                drifts: list = []
                for op, resp in self._send(
                    unit, sl, plan.transfers, logging.WARNING, plan.replies, now
                ):
                    if op is not None:
                        self._absorb_read(unit, sl, op, resp, now, drifts, logging.WARNING)
                _notify_drift(drifts)
                ops, lacking = self._build_flush(unit, sl)
                for sub in lacking:
                    sub.fail()
            transfers = pack(ops, unit.client.endpoint.buffer_limit, self.batching)
            # a reply whose writes all landed is known by its bytes: it
            # settles them with no split and no embedded reply decoded
            landed = [_all_landed(len(writes)) for writes, _message in transfers]
            for op, resp in self._send(unit, sl, transfers, logging.WARNING, expect=landed):
                if resp is not _LANDED:
                    try:
                        cip.parse_write_response(resp)
                    except cip.CipError as exc:
                        log.warning("write failed on %s: %s", unit.name, exc)
                        self._error(sl)
                        op.fail()
                        continue
                op.settle()

    def _build_flush(self, unit: _PlcUnit, sl: ScanList) -> tuple[list[WriteOp], list]:
        """The writes of the planned writes that carry dirty outputs, cut
        by `plan.cut_writes` and built with no I/O, in plan order; and the
        outputs whose write builds on an element the span cache lacks,
        unbuilt.  An output the plan left out (unplannable, or of a type
        still unknown) is in no planned write, so it stays dirty, unwritten."""
        plan = self._plan(unit, sl)
        writes = []
        for span in plan.write_spans:
            dirty = [sub for sub in span.outputs if sub.dirty]
            if dirty:
                writes.append((span, dirty))
        ops: list[WriteOp] = []
        lacking = []
        limit = unit.client.endpoint.buffer_limit
        for span, dirty in cut_writes(writes, limit, self.batching, WriteOp.response_estimate):
            lacking += self._build_write(unit, sl, plan, span, dirty, ops)
        return ops, lacking

    def _build_write(
        self, unit: _PlcUnit, sl: ScanList, plan: ScanPlan, span: WriteSpan,
        dirty: list[Subscription], ops: list[WriteOp],
    ) -> list[Subscription]:
        """Build one write of a planned write's dirty outputs into `ops`,
        from the first of them to the last: staged values on dirty
        elements, the span cache on the gaps between them.  Returns the
        outputs, unbuilt, if it builds on an element the cache lacks.  An
        output whose own staged value cannot be encoded fails alone, and the
        write is built without it."""
        wire_type = span.key[1]
        cache = unit.span_cache.setdefault(span.key, {})

        # staged values per element; a BOOL word's dirty bits fold, in
        # order, into one mask of bits to set and one of bits to clear
        pending: dict[int | None, object] = {}
        masks: dict[int, list[int]] = {}
        for sub in dirty:
            element, bit = sub.element, sub.bit
            if bit is None:
                pending[element] = sub.pending
                if masks:  # a word staged whole after bits of it drops them
                    masks.pop(element, None)
                continue
            mask = masks.get(element)
            if mask is None:
                mask = masks[element] = [0, 0]
            flag = 1 << bit
            if sub.pending:
                mask[0] |= flag
                mask[1] &= ~flag
            else:
                mask[1] |= flag
                mask[0] &= ~flag
        for element, (set_bits, clear_bits) in masks.items():
            word = pending[element] if element in pending else cache.get(element, _LACKING)
            if word is _LACKING:
                return dirty
            # kept in the signed DINT range, which packs with no fallback
            pending[element] = (
                (((int(word) | set_bits) & ~clear_bits) & 0xFFFFFFFF) ^ _SIGN
            ) - _SIGN

        covered, head = plan.part(span, dirty[0].element, dirty[-1].element)
        try:
            elements = [pending[e] if e in pending else cache[e] for e in covered]
        except KeyError:  # a gap the cache lacks
            return dirty
        try:
            data = cip.pack_elements(wire_type, elements)
        except _UNENCODABLE:
            rest = []
            for sub in dirty:
                error = None if sub.bit is not None else _encoding_error(wire_type, sub.pending)
                if error is None:
                    rest.append(sub)
                    continue
                log.warning("cannot write %r to %s on %s: %s",
                            sub.pending, format_tag(sub.ref), unit.name, error)
                self._error(sl)
                sub.fail()
                sub.dirty = False
            if len(rest) == len(dirty):
                raise
            return self._build_write(unit, sl, plan, span, rest, ops) if rest else []
        values = cip.unpack_elements(wire_type, data)
        first = covered[0]
        ops.append(WriteOp(head + data, dirty, cache, first, values))
        if first is not None:
            cache.update(zip(covered, values))
        return []

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
            fn, args, future = item
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # propagate to the submitting thread
                future.set_exception(exc)

    @staticmethod
    def _queued(unit: _PlcUnit) -> bool:
        """Whether a call must go through the unit's worker: it has a live
        one, and the caller is not on it (a callback calling back in must
        not wait on itself)."""
        thread = unit.thread
        return (
            thread is not None and thread is not threading.current_thread()
            and thread.is_alive()
        )

    def _submit(self, unit: _PlcUnit, fn, *args):
        """Run fn(*args) on the unit's worker, or inline when the call need
        not be queued."""
        if self._queued(unit):
            future: Future = Future()
            unit.queue.put((fn, args, future))
            return future.result(timeout=60)
        return fn(*args)

    def _unit(self, plc_name: str) -> _PlcUnit:
        try:
            return self._units[plc_name]
        except KeyError:
            raise KeyError(f"unknown plc {plc_name!r}") from None
