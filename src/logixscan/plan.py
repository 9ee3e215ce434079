"""Scan planning: which requests a scan list's cycle sends.

Planning is a pure function of a list's members, the PLC's buffer limit and
whether batching is on; it opens no session and takes no lock.  Members
that share a coalescing group (the same chain up to the final subscript and
the same wire type) become one read from the first to the highest requested
element, BOOL-array bits riding on their underlying DINT words.  A span too
large for one transfer falls back to one read per member, and a member
whose single read cannot fit is reported unplannable.  A member whose type
is not yet known is kept out of the transfers: the plan hands back its
discovery read, one element sized as `UNKNOWN_TYPE_SIZING`, which the
scanner sends before the list's reads or writes and then plans the list
again with the type the reply carried.  The reads are then
packed, in order, into Multi-Requests until either the wrapped request or
the estimated reply would cross the limit; a flush packs its writes with
the same packer.  Every request is encoded once, when its op is built, and
each transfer is planned as the bytes it sends.  Each coalesced group
with outputs also records its write span, from the first to the highest
output element, with the span write's encoded head when it fits one
request, so a flush only packs the elements behind it.

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

GroupKey = tuple[str, CipType]


class Direction(enum.Enum):
    INPUT = "in"
    OUTPUT = "out"


@dataclass
class ReadOp:
    """One planned read and where its elements go."""

    encoded: bytes
    response_estimate: int
    expected_type: CipType | None
    # (subscription, element offset within the read, bit index or None)
    targets: list[tuple[object, int, int | None]]
    # span cache key; kept only when an output reads here, since the
    # cache serves read-before-write alone
    cache_key: GroupKey | None = None
    start_element: int | None = None
    # targets split by how a reply element reaches the cell, inputs and
    # unwatched outputs alike: BOOL bits into the shared bit cells, and
    # typed elements into a value of their own
    bit_targets: list[tuple[object, int, int]] = field(init=False)
    typed_targets: list[tuple[object, int]] = field(init=False)
    # outputs with a drift callback
    checked_targets: list[tuple[object, int, int | None]] = field(init=False)
    # the last accepted reply: its payload, and what it decoded to (type,
    # elements, and per typed target its value, or None past the reply);
    # a new plan starts without one
    last_reply: tuple[bytes, CipType, tuple, list] | None = field(default=None, init=False)
    # whether a reply of another type than expected was logged
    mismatch_logged: bool = field(default=False, init=False)

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
    """The elements a coalesced group's span write covers, and its head."""

    first: int
    high: int
    # the encoded write request up to its data (service, path, type code
    # and count), or None when the span cannot fit one request
    head: bytes | None


@dataclass
class ScanPlan:
    transfers: list[Transfer]
    unplannable: list
    # coalescing group -> the span of its output subscriptions
    write_spans: dict[GroupKey, WriteSpan]
    # one read per member of unknown type, unpacked: sent before the transfers
    discovery: list[ReadOp]


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


def read_op(subs: list, first: int | None, count: int, limit: int) -> ReadOp | None:
    """One read of `count` elements from `first` of the group `subs` share
    (a lone unindexed member: `first` None), or None if it cannot fit."""
    head = subs[0]
    wire_type = head.wire_type()
    sizing = UNKNOWN_TYPE_SIZING if wire_type is None else wire_type
    estimate = cip.estimate_response_size(sizing, count)
    if count > cip.MAX_ELEMENT_COUNT or estimate > limit:
        return None
    encoded = cip.encode_read_request(head.wire_path(first), count)
    if cip.wrapped_request_size(len(encoded)) > limit:
        return None
    targets = [(s, 0 if first is None else s.element - first, s.bit) for s in subs]
    known = first is not None and wire_type is not None
    return ReadOp(
        encoded, estimate, wire_type, targets,
        cache_key=(head.group, wire_type) if known else None,
        start_element=first,
    )


def write_span(subs: list, wire_type: CipType, first: int, high: int, limit: int) -> WriteSpan:
    """The span write from `first` to `high` of the group `subs` share."""
    count = high - first + 1
    # data alone past the limit: no head to build (its count may not fit 16 bits)
    if wire_type.width * count > limit:
        return WriteSpan(first, high, None)
    head = cip.encode_write_head(subs[0].wire_path(first), wire_type, count)
    if cip.wrapped_request_size(len(head) + wire_type.width * count) > limit:
        head = None
    return WriteSpan(first, high, head)


def plan_list(members: list, limit: int, batching: bool) -> ScanPlan:
    """The transfers one cycle of a list with these members sends."""
    groups, singles = group(members)
    ops: list[ReadOp] = []
    write_spans: dict[GroupKey, WriteSpan] = {}
    for key, subs in groups.items():
        outputs = [s.element for s in subs if s.direction is Direction.OUTPUT]
        if outputs:
            write_spans[key] = write_span(subs, key[1], min(outputs), max(outputs), limit)
        elements = [s.element for s in subs]
        first = min(elements)
        op = read_op(subs, first, max(elements) - first + 1, limit)
        if op is None:  # span too large for one transfer: element reads
            singles.extend(subs)
        else:
            ops.append(op)
    unplannable, discovery = [], []
    for sub in singles:
        op = read_op([sub], sub.element, 1, limit)
        if op is None:
            unplannable.append(sub)
        elif op.expected_type is None:
            discovery.append(op)
        else:
            ops.append(op)
    return ScanPlan(pack(ops, limit, batching), unplannable, write_spans, discovery)


def pack(ops: list, limit: int, batching: bool) -> list[Transfer]:
    """Group read or write ops (anything with `encoded` and
    `response_estimate`), in order, into transfers under the limit; without
    batching, every op is its own transfer."""
    packed: list[list] = []
    for op in ops:
        if packed and batching and _fits(packed[-1] + [op], limit):
            packed[-1].append(op)
        else:
            packed.append([op])
    return [
        (t, t[0].encoded if len(t) == 1 else cip.encode_multi_request([op.encoded for op in t]))
        for t in packed
    ]


def _fits(ops: list, limit: int) -> bool:
    """Whether one Multi-Request of ops, and its reply, fit the limit."""
    request_size = cip.multi_request_size([len(op.encoded) for op in ops])
    reply_size = cip.multi_response_size([op.response_estimate for op in ops])
    return cip.wrapped_request_size(request_size) <= limit and reply_size <= limit
