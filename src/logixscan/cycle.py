"""One step of a scan list: sending its transfers and storing their replies.

A step is one cycle of a list's reads, or one flush of its outputs with the
list read the flush may need first.  It carries what its ops share
(`Step`): its unit, its start time, which stamps every cell it stores, its
log level, the drift events its reads found, and the errors it counted,
with the first of each cause.  Every transfer of every step goes through
one loop, `send(step, transfers, slots)`.  Each op kind stores its own
reply in `absorb(resp, step)`, or fails its targets in `fail()`, and the
loop calls them directly: a read (`Read`, the plan's `ReadOp` with what it
keeps) and a flush's write (`WriteOp`).  A read of a member of unknown type
(a discovery read, its op expecting no type) is a `Read` too: its reply
fixes the member's type and stores nothing.  Once a step loses the
session, the transfers left fail unsent, so the loss counts one error.

Every transfer keeps its last reply in a slot (`TransferReply`).  A plan's
`Executor` holds its reads and discovery reads as op kinds, one slot per
transfer and per discovery transfer, and one slot per write count for its
flushes, because a reply to n writes that all landed always has the same
bytes.  The client compares the next reply's bytes with the kept ones and,
when they are equal, returns the kept decoded reply; the loop then hands
out the embedded replies that reply split into, so a repeated reply is
neither decoded nor split twice, whether its ops stored it or refused it.
A failed transfer keeps no reply.  When a read transfer's reply repeats
and each of its reads stored it (no refused reply, no type mismatch, no
drift callback), the slot also keeps a flat record, its reads' records
joined; from then on the repeated reply is stored from that record in one
pass, with no read called, and any other reply drops it.

A read stores its reply through the same routine, `store`, from a record
of its own: the typed cells with their values, the bit cells of the bits
that are 0 and of those that are 1, and the span-cache elements of a read
of outputs.  A reply is stored whole or refused: one that does not carry
exactly the elements its read asked for fails every target of the read
with one `read failed` error, as an error reply does, and stores nothing.
A read keeps its last accepted reply: the payload and elements, and that
record.  A reply whose payload is the same again is not decoded, and its
cells take the same immutable values with this step's time; one that
changed builds a value only for each element whose wire bytes changed.  A
watched output whose value the PLC changed while it had nothing staged
adds a drift event; the events run once the step's replies are all stored
(`notify`).

A flush (`flush`) builds its writes with no I/O (`build_flush`): it walks
the plan's writes that carry dirty outputs, cut by `plan.cut_writes` at
every gap that costs more bytes than a write of its own, and builds one
write per part, from its first dirty element to its last: staged values on
the dirty elements, and the span cache that the list's reads fill on the
short gaps the part keeps; a BOOL word's dirty bits apply as one mask of
bits to set and one to clear.  Its head is the planned one with a new
element segment and count, composed once per plan, so a flush encodes no
path.  An output the plan left out (unplannable, or of a type still
unknown) is in no planned write, so no flush sends it.  If a write builds
on an element the cache lacks, the flush sends the list's planned reads
once, through the same loop, runs their drift events, and builds every
write again; a write that still lacks an element fails, its outputs ERROR
and still dirty.  The writes are packed with the planner's packer.  A write
whose reply is the write reply with an OK status lands, and settles each of
its outputs to what went on the wire for it; any other fails alone and
stays dirty.  An output whose staged value cannot be encoded fails alone,
unwritten.
"""

from __future__ import annotations

import enum
import logging
import time
from collections import defaultdict
from dataclasses import dataclass

from . import cip
from .cip import CipType, CipValue
from .client import Phase, PlcError
from .plan import ReadOp, ScanPlan, WriteSpan, cut_writes, pack
from .tags import BITS_PER_DINT, format_tag

log = logging.getLogger(__name__)


class Quality(enum.Enum):
    STALE = "stale"
    OK = "ok"
    ERROR = "error"


# an enum member lookup is not free
_OK = Quality.OK
_DISCONNECTED = Phase.DISCONNECTED

# BOOL-array bit cells; values are frozen, so every bit cell shares these
_BOOL_CELLS = (CipValue(CipType.BOOL, (False,)), CipValue(CipType.BOOL, (True,)))

# what `cip.pack_elements` raises for an element it cannot encode
_UNENCODABLE = (cip.CipError, TypeError, ValueError, OverflowError)

# a BOOL word to modify that the span cache does not hold
_LACKING = object()

_SIGN = 1 << (BITS_PER_DINT - 1)  # a DINT word's sign bit

_WRITE_REPLY = cip.WRITE_DATA | cip.REPLY_FLAG


class Step:
    """What one step of a list shares with its ops."""

    __slots__ = ("unit", "level", "now", "drifts", "errors", "causes")

    def __init__(self, unit, level: int):
        # the PLC's unit: its client, name and span cache
        self.unit = unit
        self.level = level  # of the log lines of a failed transfer or read
        self.now = time.time()  # the timestamp of every cell the step stores
        self.drifts: list = []  # (sub, old, new) of each watched output that drifted
        # errors counted, and the first error of each cause: the list's
        # stats and failing state take them once the step is done
        self.errors = 0
        self.causes: dict[str, str] = {}

    def error(self, cause: str | None = None, detail=None) -> None:
        """Count one error; the step's first of a cause is kept with its
        detail (a fault without a cause, such as a member's, fails no list)."""
        self.errors += 1
        if cause is not None and cause not in self.causes:
            self.causes[cause] = f"{cause}: {detail}"


@dataclass(slots=True)
class TransferReply:
    """A transfer's last reply, as a client round trip keeps it, the
    embedded replies it split into, and its flat record."""

    # the encapsulation payload the reply came in (None: none kept), and
    # the CIP reply it decoded to
    wire: bytes | None = None
    resp: cip.CipResponse | None = None
    # the reply per op: the embedded replies, or the one op's reply
    split: tuple | list = ()
    # the reads' records joined (as `store` takes one); None: not yet
    # tried for this reply, False: this reply is not stored flat
    record: tuple | bool | None = None


def store(record: tuple, step: Step) -> None:
    """Store a read's or a transfer's cells and span-cache elements from its
    record, stamped with the step's time.  A record holds the typed cells'
    subscriptions and their values, the subscriptions of the bits that are
    0 and of those that are 1, and the span-cache refreshes, each a cache
    key with its elements and their raw values."""
    typed_subs, values, zeros, ones, refreshes = record
    now, ok = step.now, _OK
    for sub, value in zip(typed_subs, values):
        sub.cell = (value, now, ok)
    cell = (_BOOL_CELLS[0], now, ok)
    for sub in zeros:
        sub.cell = cell
    cell = (_BOOL_CELLS[1], now, ok)
    for sub in ones:
        sub.cell = cell
    for key, elements, raw in refreshes:
        step.unit.span_cache.setdefault(key, {}).update(zip(elements, raw))


def _join(ops: list) -> tuple | bool:
    """A transfer's flat record, its reads' records joined part by part;
    False unless each of them stored its reply whole."""
    records = [op.whole for op in ops]
    if None in records:
        return False
    return tuple([item for record in records for item in record[part]] for part in range(5))


def send(step: Step, transfers: list, slots: list) -> bool:
    """Send transfers in order, each with its slot; hand each op of each
    transfer that got a reply its own to `absorb`, and `fail` the ops of
    each that did not.  Once the session is gone, lost here or in an
    earlier step, the transfers left fail unsent and uncounted.  Returns
    whether any reply was stored."""
    client = step.unit.client
    stored = False
    for i, (ops, message) in enumerate(transfers):
        if client.phase is _DISCONNECTED:
            for lost, _message in transfers[i:]:
                for op in lost:
                    op.fail()
            break
        slot = slots[i]
        previous = slot.resp
        try:
            reply = client.round_trip(message, slot)
            if reply is not previous:
                slot.record = None
                count = len(ops)
                slot.split = (reply,) if count == 1 else cip.split_multi_response(reply, count)
            elif slot.record:
                store(slot.record, step)
                stored = True
                continue
        except (PlcError, cip.CipError) as exc:
            slot.wire = None
            log.log(step.level, "transfer failed on %s: %s", step.unit.name, exc)
            step.error("transfer failed", exc)
            for op in ops:
                op.fail()
            continue
        for op, resp in zip(ops, slot.split):
            if op.absorb(resp, step):
                stored = True
        if reply is previous and slot.record is None:
            slot.record = _join(ops)
    return stored


def notify(drifts: list) -> None:
    """Run the drift callback of each (sub, old, new), in order."""
    for sub, old, new in drifts:
        try:
            sub.on_drift(sub, old, new)
        except Exception:
            log.exception("drift callback failed for %s", format_tag(sub.ref))


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


@dataclass(slots=True)
class Read:
    """A read as steps run it, with its last accepted reply: a planned read,
    or the discovery read of a member whose type is not yet known (its op
    expects no type), whose reply fixes the member's type and stores
    nothing, so the list is planned again."""

    op: ReadOp
    # the last accepted reply: its payload and elements, and its record
    # (as `store` takes one)
    last_reply: tuple | None = None
    # the record of the reply just absorbed, if the read stored it whole
    whole: tuple | None = None
    # whether a reply of another type than expected was logged
    mismatch_logged: bool = False

    def fail(self) -> None:
        self.whole = None
        self.op.fail()

    def refuse(self, exc: cip.CipError, step: Step) -> bool:
        """The reply is an error, or no read reply, or does not carry the
        elements the read asked for: every target fails."""
        log.log(step.level, "read failed on %s: %s", step.unit.name, exc)
        step.error("read failed", exc)
        self.fail()
        return False

    def absorb(self, resp: cip.CipResponse, step: Step) -> bool:
        """Store this read's reply through `store`: from the last record if
        its payload is the last accepted one's, otherwise from a record of
        the decoded reply.  A reply is stored whole or refused: one that
        does not carry exactly the elements the read asked for is refused,
        as an error reply is.  A watched output whose value the PLC changed
        while it had nothing staged adds a drift event to the step."""
        op, last = self.op, self.last_reply
        value_type = op.expected_type
        if (
            last is None or resp.payload != last[0]
            or resp.general_status != cip.STATUS_OK or resp.service_reply != cip.READ_REPLY
        ):
            try:
                reply_type, elements = cip.parse_read_reply(resp)
            except cip.CipError as exc:
                return self.refuse(exc, step)
            if value_type is not None and reply_type is not value_type:
                # a configuration fault, not the list failing: logged once per plan
                step.error()
                self.fail()
                if not self.mismatch_logged:
                    self.mismatch_logged = True
                    log.warning(
                        "%s: %s expected %s, PLC sent %s", step.unit.name,
                        op.targets[0][0].group, value_type.name, reply_type.name,
                    )
                return False
            count = len(elements)
            if count != op.count:
                return self.refuse(
                    cip.CipError(f"{count} elements for a read of {op.count}"), step
                )
            if value_type is None:  # a discovery read
                op.targets[0][0].elem_type = reply_type
                return True
            typed = op.typed_targets
            if last is not None:
                # a typed target whose element has the same wire bytes as
                # in the kept reply keeps the value it decoded to
                new = _wire_words(value_type, resp.payload, elements)
                old = _wire_words(value_type, last[0], last[1])
                values = [
                    kept if new[o] == old[o] else CipValue(value_type, (elements[o],))
                    for (_sub, o), kept in zip(typed, last[2][1])
                ]
            else:
                values = [CipValue(value_type, (elements[o],)) for _sub, o in typed]
            bits = op.bit_targets
            zeros = ones = ()
            if bits:
                zeros = [sub for sub, o, bit in bits if not (elements[o] >> bit) & 1]
                ones = [sub for sub, o, bit in bits if (elements[o] >> bit) & 1]
            key, start = op.cache_key, op.start_element
            refresh = () if key is None else ((key, range(start, start + count), elements),)
            last = self.last_reply = (
                resp.payload, elements, (op.typed_subs, values, zeros, ones, refresh),
            )
        _payload, elements, record = last
        store(record, step)
        checked = op.checked_targets
        self.whole = None if checked else record
        now, ok = step.now, _OK
        for sub, offset, bit in checked:
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
                step.drifts.append((sub, old, cell))
        return True


class Executor:
    """What a list's steps keep for one plan: its reads and discovery reads
    as steps run them, and a slot for the last reply of each of their
    transfers and of a flush's transfer of n writes, by n.  A new plan gets
    a new one, so it starts with nothing kept."""

    def __init__(self, plan: ScanPlan):
        self.plan = plan
        self.transfers = [([Read(op) for op in ops], m) for ops, m in plan.transfers]
        self.discovery = [([Read(op) for op in ops], m) for ops, m in plan.discovery]
        self.replies = [TransferReply() for _transfer in self.transfers]
        self.discovery_replies = [TransferReply() for _transfer in self.discovery]
        self.write_replies: defaultdict[int, TransferReply] = defaultdict(TransferReply)


@dataclass(slots=True)
class WriteOp:
    """One write a flush built, and the subscriptions it settles on landing."""

    encoded: bytes
    subs: list
    # span-cache elements this write already set, so that later
    # read-modify-writes of the same flush build on it
    cache: dict[int, object]
    # the element the write starts at (None: an unindexed tag, which the
    # span cache does not hold), and its elements as packed: what the PLC
    # holds once it lands
    first: int | None
    values: tuple
    response_estimate = 4  # a write reply is its status header alone
    whole = None  # a write's reply is never stored flat

    def absorb(self, resp: cip.CipResponse, step: Step) -> bool:
        if resp.general_status != cip.STATUS_OK or resp.service_reply != _WRITE_REPLY:
            try:
                cip.parse_write_response(resp)  # raises, saying why
            except cip.CipError as exc:
                log.log(step.level, "write failed on %s: %s", step.unit.name, exc)
                step.error()
                self.fail()
                return False
        self.settle(step.now)
        return True

    def settle(self, now: float) -> None:
        """The write landed: each subscription holds what went on the wire
        for it (a bit, from its written word), OK."""
        ok, first, values = _OK, self.first, self.values
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


def flush(step: Step, executor: Executor) -> None:
    """Write out the dirty outputs of a list."""
    plan = executor.plan
    ops, lacking = build_flush(step, plan)
    if lacking:
        # a write builds on an element the span cache lacks: read the list
        # once, then build every write again, so that no span write carries
        # a gap just read over a write staged before it
        send(step, executor.transfers, executor.replies)
        notify(step.drifts)
        ops, lacking = build_flush(step, plan)
        for sub in lacking:
            sub.fail()
    transfers = pack(ops, plan.limit, plan.batching)
    send(step, transfers, [executor.write_replies[len(writes)] for writes, _m in transfers])


def build_flush(step: Step, plan: ScanPlan) -> tuple[list[WriteOp], list]:
    """The writes of the planned writes that carry dirty outputs, cut by
    the plan and built with no I/O, in plan order; and the outputs whose
    write builds on an element the span cache lacks, unbuilt.  An output
    the plan left out (unplannable, or of a type still unknown) is in no
    planned write, so it stays dirty, unwritten."""
    writes = []
    for span in plan.write_spans:
        dirty = [sub for sub in span.outputs if sub.dirty]
        if dirty:
            writes.append((span, dirty))
    ops: list[WriteOp] = []
    lacking = []
    for span, dirty in cut_writes(writes, plan.limit, plan.batching, WriteOp.response_estimate):
        lacking += _build_write(step, plan, span, dirty, ops)
    return ops, lacking


def _build_write(
    step: Step, plan: ScanPlan, span: WriteSpan, dirty: list, ops: list[WriteOp],
) -> list:
    """Build one write of a planned write's dirty outputs into `ops`,
    from the first of them to the last: staged values on dirty
    elements, the span cache on the gaps between them.  Returns the
    outputs, unbuilt, if it builds on an element the cache lacks.  An
    output whose own staged value cannot be encoded fails alone, and the
    write is built without it."""
    wire_type = span.key[1]
    cache = step.unit.span_cache.setdefault(span.key, {})

    # staged values per element; a BOOL word's dirty bits fold, in
    # subscription order, into one mask of bits to set and one of bits
    # to clear
    pending: dict[int | None, object] = {}
    masks: dict[int, list[int]] = {}
    for sub in dirty:
        element, bit = sub.element, sub.bit
        if bit is None:
            pending[element] = sub.pending
            if masks:  # a word subscribed after bits of it drops them
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
            try:
                if sub.bit is None:  # a bit always packs into its word
                    cip.pack_elements(wire_type, (sub.pending,))
            except _UNENCODABLE as error:
                log.warning("cannot write %r to %s on %s: %s",
                            sub.pending, format_tag(sub.ref), step.unit.name, error)
                step.error()
                sub.fail()
                sub.dirty = False
                continue
            rest.append(sub)
        if len(rest) == len(dirty):
            raise
        return _build_write(step, plan, span, rest, ops) if rest else []
    values = cip.unpack_elements(wire_type, data)
    first = covered[0]
    ops.append(WriteOp(head + data, dirty, cache, first, values))
    if first is not None:
        cache.update(zip(covered, values))
    return []
