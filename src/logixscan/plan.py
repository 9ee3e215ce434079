"""Scan planning: which requests a scan list's cycle sends.

Planning is a pure function of a list's members, the PLC's buffer limit and
whether batching is on; it opens no session and takes no lock.  Members
that share a coalescing group (the same chain up to the final subscript and
the same wire type) become one read from the first to the highest requested
element, BOOL-array bits riding on their underlying DINT words.  A span too
large for one transfer falls back to one read per member, and a member
whose single read cannot fit is reported unplannable.  The reads are then
packed, in order, into Multi-Requests until either the wrapped request or
the estimated reply would cross the limit; a flush packs its writes with
the same packer.  Every request is encoded once, when its op is built, and
each transfer is planned as the bytes it sends.

A member needs only its addressing: `group`, `element`, `bit`,
`wire_type()`, `wire_path()`, `coalesce`, `direction` and `elem_type`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import cip
from .cip import CipType

# sizes a read until the first reply fixes its type (4 bytes, as DINT)
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
    # targets split by how a reply element reaches the cell
    bit_inputs: list[tuple[object, int, int]] = field(init=False)
    typed_inputs: list[tuple[object, int]] = field(init=False)
    # outputs (drift rules) and subscriptions whose type is still unknown
    other_targets: list[tuple[object, int, int | None]] = field(init=False)

    def __post_init__(self) -> None:
        output = Direction.OUTPUT
        bit_inputs, typed_inputs, other_targets = [], [], []
        for target in self.targets:
            sub, offset, bit = target
            if sub.direction is output or sub.elem_type is None:
                other_targets.append(target)
            elif bit is not None:
                bit_inputs.append(target)
            else:
                typed_inputs.append((sub, offset))
        self.bit_inputs, self.typed_inputs = bit_inputs, typed_inputs
        self.other_targets = other_targets
        if not any(sub.direction is output for sub, _offset, _bit in other_targets):
            self.cache_key = None

    def fail(self) -> None:
        for sub, _offset, _bit in self.targets:
            sub.fail()


# a transfer: its ops, and the encoded message it sends (the one op's
# request bare, or a Multi-Request of them)
Transfer = tuple[list, bytes]


@dataclass
class ScanPlan:
    transfers: list[Transfer]
    unplannable: list
    # coalescing group -> (first, highest) element of its output subscriptions
    write_spans: dict[GroupKey, tuple[int, int]]


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
    encoded = cip.encode_request(cip.build_read_request(head.wire_path(first), count))
    sizing = UNKNOWN_TYPE_SIZING if wire_type is None else wire_type
    estimate = cip.estimate_response_size(sizing, count)
    if cip.wrapped_request_size(len(encoded)) > limit or estimate > limit:
        return None
    targets = [(s, 0 if first is None else s.element - first, s.bit) for s in subs]
    known = first is not None and wire_type is not None
    return ReadOp(
        encoded, estimate, wire_type, targets,
        cache_key=(head.group, wire_type) if known else None,
        start_element=first,
    )


def plan_list(members: list, limit: int, batching: bool) -> ScanPlan:
    """The transfers one cycle of a list with these members sends."""
    groups, singles = group(members)
    ops: list[ReadOp] = []
    write_spans: dict[GroupKey, tuple[int, int]] = {}
    for key, subs in groups.items():
        outputs = [s.element for s in subs if s.direction is Direction.OUTPUT]
        if outputs:
            write_spans[key] = (min(outputs), max(outputs))
        elements = [s.element for s in subs]
        first = min(elements)
        op = read_op(subs, first, max(elements) - first + 1, limit)
        if op is None:  # span too large for one transfer: element reads
            singles.extend(subs)
        else:
            ops.append(op)
    unplannable = []
    for sub in singles:
        op = read_op([sub], sub.element, 1, limit)
        if op is None:
            unplannable.append(sub)
        else:
            ops.append(op)
    return ScanPlan(pack(ops, limit, batching), unplannable, write_spans)


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
        (t, t[0].encoded if len(t) == 1 else cip.encode_request(
            cip.build_multi_request_encoded([op.encoded for op in t])
        ))
        for t in packed
    ]


def _fits(ops: list, limit: int) -> bool:
    """Whether one Multi-Request of ops, and its reply, fit the limit."""
    request_size = cip.multi_request_size([len(op.encoded) for op in ops])
    reply_size = cip.multi_response_size([op.response_estimate for op in ops])
    return cip.wrapped_request_size(request_size) <= limit and reply_size <= limit
