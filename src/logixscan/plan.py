"""Scan planning: which requests a scan list's cycle sends.

Planning is a pure function of a list's members, the PLC's buffer limit and
whether batching is on; it opens no session and takes no lock.  Members
that share a coalescing group (the same chain up to the final subscript and
the same wire type) are read in spans, BOOL-array bits riding on their
underlying DINT words.  One rule cuts every group, whatever its size:
greedily, in element order, into runs whose read fits the limit and, when
the run holds outputs, whose span write of them fits too.  Each run is one
read from its first to its highest element, and each run with outputs has
one span write, from its first to its highest output, inside that read; a
group that fits whole is one run.  A lone output (not coalesced, or
unindexed) has one write of its own element.  A member whose own read, or
own write, cannot fit is reported unplannable, coalesced or alone.  A
member whose type is not yet known is kept out of the transfers: the plan
hands back its discovery read, one element sized as `UNKNOWN_TYPE_SIZING`,
which the scanner sends before the list's reads or writes and then plans
the list again with the type the reply carried.  The reads, and apart from
them the discovery reads, are packed in order into Multi-Requests until
either the wrapped request or the estimated reply would cross the limit; a
flush packs its writes with the same packer, under the limit and batching
switch the plan records.  Every request is encoded once, when its op is
built, and each transfer is planned as the bytes it sends; each write, a
run's or a lone output's, is planned with the outputs it carries and its
encoded head.  A flush cuts each planned write's dirty outputs into parts
(`WriteSpan.parts`) at every gap whose elements cost more bytes than a
write of its own adds, and `cut_writes` keeps the cut only where the
batched writes then pack into no more transfers and no more bytes than one
write per planned write; unbatched, nothing is cut.  Each part is one
write, from its first dirty output to its last: `WriteSpan.part` composes
its head from the planned one, whose service, symbol segments and type it
keeps, with a new element segment and count, and the plan keeps each part
it composed (`ScanPlan.part`), so a flush encodes no path and only packs
the elements behind the head.  Each read also routes its targets by how
a reply element reaches the cell, so a reply is stored with no routing
decided per reply.  A plan holds no reply: what a list keeps of its
replies is the `cycle` module's.

A member needs only its addressing and its routing: `group`, `element`,
`bit`, `wire_type()`, `wire_path()`, `coalesce`, `direction` and
`on_drift`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from . import cip
from .cip import CipType

# sizes a discovery read, whose reply fixes its member's type (4 bytes, as DINT)
UNKNOWN_TYPE_SIZING = CipType.DINT

# the composed writes a plan keeps (`ScanPlan.part`); past it, it starts over
PARTS_KEPT = 1024

# a Multi-Request and its reply: the size of each with no op, and what each
# op adds beside its own bytes (its offset)
_MULTI_REQUEST = cip.multi_request_size([])
_REQUEST_OFFSET = cip.multi_request_size([0]) - _MULTI_REQUEST
_MULTI_RESPONSE = cip.multi_response_size([])
_RESPONSE_OFFSET = cip.multi_response_size([0]) - _MULTI_RESPONSE

GroupKey = tuple[str, CipType]


class Direction(enum.Enum):
    INPUT = "in"
    OUTPUT = "out"


@dataclass
class ReadOp:
    """One planned read and where its elements go."""

    encoded: bytes
    response_estimate: int
    # None: a discovery read, whose reply fixes its member's type
    expected_type: CipType | None
    # (subscription, element offset within the read, bit index or None)
    targets: list[tuple[object, int, int | None]]
    # the elements the read asks for, which its reply must carry
    count: int
    # span cache key; kept only when an output reads here, since the
    # cache serves the flush's writes alone
    cache_key: GroupKey | None = None
    start_element: int | None = None
    # targets split by how a reply element reaches the cell, inputs and
    # unwatched outputs alike: BOOL bits into the shared bit cells, and
    # typed elements into a value of their own, with their subscriptions,
    # which a reply stores as they are
    bit_targets: list[tuple[object, int, int]] = field(init=False)
    typed_targets: list[tuple[object, int]] = field(init=False)
    typed_subs: list = field(init=False)
    # outputs with a drift callback
    checked_targets: list[tuple[object, int, int | None]] = field(init=False)

    def __post_init__(self) -> None:
        output = Direction.OUTPUT
        bit_targets, typed_targets, checked_targets = [], [], []
        for target in self.targets:
            sub, offset, bit = target
            if sub.direction is output and sub.on_drift is not None:
                checked_targets.append(target)
            elif bit is not None:
                bit_targets.append(target)
            else:
                typed_targets.append((sub, offset))
        self.bit_targets, self.typed_targets = bit_targets, typed_targets
        self.typed_subs = [sub for sub, _offset in typed_targets]
        self.checked_targets = checked_targets
        if not any(sub.direction is output for sub, _offset, _bit in self.targets):
            self.cache_key = None

    def fail(self) -> None:
        for sub, _offset, _bit in self.targets:
            sub.fail()


# a transfer: its ops, and the encoded message it sends (the one op's
# request bare, or a Multi-Request of them)
Transfer = tuple[list, bytes]


class WriteSpan(NamedTuple):
    """One planned write: a run's span write, from its first to its highest
    output, or a lone output's own write of its one element."""

    key: GroupKey
    # the elements it writes, in order: (None,) for an unindexed output
    elements: range | tuple
    # the encoded write request up to its data: service, path, type code
    # and count
    head: bytes
    # the outputs it carries, in element order
    outputs: list

    def part(self, first: int | None, high: int | None) -> tuple[range | tuple, bytes]:
        """The elements and head of a write of this span's elements from
        `first` to `high`.  The head is the planned one with only its
        element segment and count new: its service, symbol segments and
        type are kept, so no path is encoded."""
        elements, head = self.elements, self.head
        if first == elements[0] and high == elements[-1]:
            return elements, head
        first, element, grown = self._start(first, high)
        # service, path size in words, symbol segments | element | type, count
        symbols = head[2:len(head) - 4 - len(element) + grown]
        return range(first, high + 1), (
            bytes((head[0], head[1] + grown // 2)) + symbols + element
            + head[-4:-2] + (high - first + 1).to_bytes(2, "little")
        )

    def size(self, first: int | None, high: int | None) -> int:
        """The encoded size of the write `part` composes, head and data."""
        elements, width = self.elements, self.key[1].width
        if first == elements[0] and high == elements[-1]:
            return len(self.head) + width * len(elements)
        first, _element, grown = self._start(first, high)
        return len(self.head) + grown + width * (high - first + 1)

    def _start(self, first: int, high: int) -> tuple[int, bytes, int]:
        """The element a write from `first` to `high` starts at, its
        element segment, and how many bytes longer than the planned head
        its head is.  It is never longer than the planned write, so it fits
        wherever that does: one that a wider element segment would make
        longer (a one-byte type starting just past 255 or 65535) starts
        where the planned one does."""
        elements = self.elements
        planned = cip.encode_element(elements[0])
        element = cip.encode_element(first)
        grown = len(element) - len(planned)
        if grown > self.key[1].width * (len(elements) - (high - first + 1)):
            return elements[0], planned, 0
        return first, element, grown

    def parts(self, dirty: list, reply: int) -> list[list]:
        """Cut this span's dirty outputs, in element order, into the outputs
        of the writes that carry them: at every gap whose elements cost more
        bytes than a write of its own adds to a Multi-Request and its reply
        (its head, its reply of `reply` bytes, and an offset for each).  On
        a tie the gap stays joined.  A write after a cut starts at its
        first output, because its element segment costs less than the gap
        it skips."""
        if len(dirty) == 1 or dirty[-1].element - dirty[0].element < 2:
            return [dirty]  # no gap
        width = self.key[1].width
        # what a write of its own adds, but for its element segment: its
        # head's service, path size, symbols, type and count, one offset
        # in the request, and its reply with an offset in the reply
        adds = (
            len(self.head) - len(cip.encode_element(self.elements[0]))
            + _REQUEST_OFFSET + reply + _RESPONSE_OFFSET
        )
        last = dirty[0].element
        if width * (dirty[-1].element - last - 1) <= adds:
            return [dirty]  # no gap can cost more
        parts, start = [], 0
        for i, sub in enumerate(dirty):
            element = sub.element
            gap = width * (element - last - 1)
            # (the first test spares encoding the segment of a short gap)
            if gap > adds and gap > adds + len(cip.encode_element(element)):
                parts.append(dirty[start:i])
                start = i
            last = element
        parts.append(dirty[start:])
        return parts


@dataclass
class ScanPlan:
    transfers: list[Transfer]
    unplannable: list
    # every planned write, in plan order: each typed output of a planned
    # run or lone member is in exactly one
    write_spans: list[WriteSpan]
    # one read per member of unknown type, packed as the reads are: sent
    # before the transfers
    discovery: list[Transfer]
    # the buffer limit and batching switch it was planned under, which a
    # flush cuts and packs its writes by
    limit: int
    batching: bool
    # (planned head, first, high) -> `WriteSpan.part(first, high)`: a head
    # fixes its write's elements, so it keys the write
    parts: dict = field(default_factory=dict)

    def part(
        self, span: WriteSpan, first: int | None, high: int | None
    ) -> tuple[range | tuple, bytes]:
        """`span.part(first, high)`, composed once per plan."""
        key = (span.head, first, high)
        part = self.parts.get(key)
        if part is None:
            if len(self.parts) >= PARTS_KEPT:
                self.parts.clear()
            part = self.parts[key] = span.part(first, high)
        return part


def group(subs) -> tuple[dict[GroupKey, list], list]:
    """Split subscriptions, in order, into the spans they coalesce into and
    the ones that go alone; reads and writes share this rule."""
    groups: dict[GroupKey, list] = {}
    singles = []
    for sub in subs:
        wire_type = sub.wire_type()
        if sub.coalesce and sub.element is not None and wire_type is not None:
            groups.setdefault((sub.group, wire_type), []).append(sub)
        else:
            singles.append(sub)
    return groups, singles


def read_op(subs: list, first: int | None, count: int) -> ReadOp:
    """One read of `count` elements from `first` of the group `subs` share
    (a lone unindexed member: `first` None)."""
    head = subs[0]
    wire_type = head.wire_type()
    sizing = UNKNOWN_TYPE_SIZING if wire_type is None else wire_type
    encoded = cip.encode_read_request(head.wire_path(first), count)
    targets = [(s, 0 if first is None else s.element - first, s.bit) for s in subs]
    known = first is not None and wire_type is not None
    return ReadOp(
        encoded, cip.estimate_response_size(sizing, count), wire_type, targets, count,
        cache_key=(head.group, wire_type) if known else None,
        start_element=first,
    )


def cut(subs: list, wire_type: CipType, limit: int) -> tuple[list[list], list]:
    """Cut a coalesced group greedily, in element order, into runs, and
    return them with the members that fit no run.  A member joins the last
    run if the run's read would still fit the limit and, for an output, so
    would the span write of the run's outputs; otherwise it starts a run
    of its own, if its own read and write fit."""
    # the most elements one read's reply carries under the limit: the
    # reply's estimate grows by one element's width per element
    most = (limit - cip.estimate_response_size(wire_type, 0)) // wire_type.width
    most = min(most, cip.MAX_ELEMENT_COUNT)
    runs: list[list] = []
    unfit = []
    # the last run's first element, and its first output element with the
    # size of its span write's head
    first, out = 0, None
    out_direction = Direction.OUTPUT  # an enum member lookup is not free
    for sub in sorted(subs, key=lambda s: s.element):
        element = sub.element
        output = sub.direction is out_direction
        if runs and element - first < most:
            writes = (out or _span_head(sub, wire_type)) if output else None
            if writes is None or _write_fits(wire_type, limit, writes, element):
                runs[-1].append(sub)
                out = out or writes
                continue
        writes = _span_head(sub, wire_type) if output else None
        if most > 0 and (writes is None or _write_fits(wire_type, limit, writes, element)):
            runs.append([sub])
            first, out = element, writes
        else:
            unfit.append(sub)
    return runs, unfit


def _span_head(sub, wire_type: CipType) -> tuple[int, int]:
    """The element a span write from `sub` starts at, and its head's size."""
    return sub.element, len(cip.encode_write_head(sub.wire_path(sub.element), wire_type, 1))


def _write_fits(wire_type: CipType, limit: int, writes: tuple[int, int], high: int) -> bool:
    """Whether the span write from `writes` (as `_span_head` gives it) up
    to `high` fits the limit."""
    start, head_size = writes
    return cip.wrapped_request_size(head_size + wire_type.width * (high - start + 1)) <= limit


def write_span(run: list, wire_type: CipType) -> WriteSpan | None:
    """The planned write of a run's outputs, from its first to its highest
    (a lone output's alone), or None if it has none."""
    output = Direction.OUTPUT
    outputs = [s for s in run if s.direction is output]
    if not outputs:
        return None
    first, high = outputs[0].element, outputs[-1].element
    elements = (None,) if first is None else range(first, high + 1)
    head = cip.encode_write_head(run[0].wire_path(first), wire_type, len(elements))
    return WriteSpan((run[0].group, wire_type), elements, head, outputs)


def plan_list(members: list, limit: int, batching: bool) -> ScanPlan:
    """The transfers one cycle of a list with these members sends, and the
    writes a flush of its outputs may send."""
    groups, singles = group(members)
    runs: list[list] = []
    unplannable = []
    for (_name, wire_type), subs in groups.items():
        cuts, unfit = cut(subs, wire_type, limit)
        runs += cuts
        unplannable += unfit
    ops: list[ReadOp] = []
    discovery = []
    writes = []
    for run in runs + [[sub] for sub in singles]:
        first = run[0].element
        op = read_op(run, first, 1 if first is None else run[-1].element - first + 1)
        wire_type = op.expected_type
        write = None if wire_type is None else write_span(run, wire_type)
        sizes = [len(op.encoded)]
        if write is not None:  # a run's write fits by its cut; a lone one's may not
            sizes.append(len(write.head) + wire_type.width * len(write.elements))
        if any(cip.wrapped_request_size(size) > limit for size in sizes):
            unplannable += run
        elif wire_type is None:
            discovery.append(op)
        else:
            ops.append(op)
            if write is not None:
                writes.append(write)
    return ScanPlan(
        pack(ops, limit, batching), unplannable, writes, pack(discovery, limit, batching),
        limit, batching,
    )


def pack(ops: list, limit: int, batching: bool) -> list[Transfer]:
    """Group read or write ops (anything with `encoded` and
    `response_estimate`), in order, into transfers under the limit; without
    batching, every op is its own transfer."""
    transfers = []
    for first, end in _group([(len(op.encoded), op.response_estimate) for op in ops],
                             limit, batching):
        t = ops[first:end]
        transfers.append(
            (t, t[0].encoded if len(t) == 1 else cip.encode_multi_request([op.encoded for op in t]))
        )
    return transfers


def cut_writes(writes: list, limit: int, batching: bool, reply: int) -> list:
    """The writes a flush sends: `writes` holds each planned write that
    carries dirty outputs with those outputs, in plan order, and each
    (planned write, outputs) returned is one write, from its first output
    to its last.  Batched, each planned write is cut into its
    `WriteSpan.parts`, unless the cut writes would pack into more transfers,
    or more request and reply bytes, than one write per planned write (say
    a lone write that cutting would turn into a Multi-Request); unbatched,
    every write is a round trip of its own, so none is cut."""
    if not batching:
        return writes
    cut = [(span, part) for span, dirty in writes for part in span.parts(dirty, reply)]
    if len(cut) == len(writes):
        return writes
    if len(writes) > 1 and _fits(
        [(len(span.head) + span.key[1].width * len(span.elements), reply) for span, _ in writes],
        limit,
    ):
        # the planned writes fit one Multi-Request, so the ones from first
        # to last dirty output, never longer, do too, and so do the cut
        # ones, whose requests are smaller still; there every cut saves at
        # least the byte a first part can add (a one-byte type starting
        # just past element 255, where one write would start a byte lower)
        return cut
    whole_sizes = [(span.size(dirty[0].element, dirty[-1].element), reply)
                   for span, dirty in writes]
    cut_sizes = [(span.size(part[0].element, part[-1].element), reply) for span, part in cut]
    transfers, size = _cost(cut_sizes, limit)
    whole_transfers, whole_size = _cost(whole_sizes, limit)
    return cut if transfers <= whole_transfers and size <= whole_size else writes


def _cost(sizes: list[tuple[int, int]], limit: int) -> tuple[int, int]:
    """The transfers a batched packer groups ops, as (request, reply)
    sizes, into, and their request and reply bytes."""
    groups = _group(sizes, limit, True)
    total = 0
    for first, end in groups:
        if end - first == 1:  # a lone op: its request and its reply
            total += sum(sizes[first])
        else:
            requests, replies = zip(*sizes[first:end])
            total += cip.multi_request_size(requests) + cip.multi_response_size(replies)
    return len(groups), total


def _group(sizes: list[tuple[int, int]], limit: int, batching: bool) -> list[list[int]]:
    """Group ops, as (request, reply) sizes, in order, into transfers under
    the limit, as `_fits` sizes them: each the [first, end) of its ops."""
    groups: list[list[int]] = []
    # the last group's ops, as a Multi-Request's and its reply's bytes
    # less their empty size
    requests = replies = 0
    for i, (request, reply) in enumerate(sizes):
        request += _REQUEST_OFFSET
        reply += _RESPONSE_OFFSET
        if (
            groups and batching
            and cip.wrapped_request_size(_MULTI_REQUEST + requests + request) <= limit
            and _MULTI_RESPONSE + replies + reply <= limit
        ):
            groups[-1][1] = i + 1
            requests += request
            replies += reply
        else:
            groups.append([i, i + 1])
            requests, replies = request, reply
    return groups


def _fits(sizes: list[tuple[int, int]], limit: int) -> bool:
    """Whether one Multi-Request of ops, as (request, reply) sizes, and its
    reply fit the limit."""
    requests, replies = zip(*sizes)
    return (
        cip.wrapped_request_size(cip.multi_request_size(requests)) <= limit
        and cip.multi_response_size(replies) <= limit
    )
