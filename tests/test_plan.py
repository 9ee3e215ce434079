"""The scan planner on its own: no scanner, no sockets.

Property tests draw random scan lists (coalesced and lone members, BOOL-array
bits, unknown types, outputs, names long enough to be unplannable) and check
what every plan must hold, the cut rule among it; example tests pin the C06
and mixed-list plans and the edges of the cut rule.
"""

import ast
import collections
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from logixscan import cip, plan
from logixscan.cip import CipType, CipValue
from logixscan.plan import Direction, pack, plan_list
from logixscan.scanner import Subscription
from logixscan.tags import parse_tag

# fixed examples, derandomized, no database: the same cases on every run
PROPERTIES = settings(
    max_examples=100, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# short to long symbol paths, the longest unplannable under small limits
NAMES = [
    "a", "bits", "Tag_07_23456789", "x" * 40,
    "m" * 24 + ".n" + "n" * 29, "s" * 40 + ".y" + "y" * 39,
]


def member(name, element, bool_array, elem_type, output, coalesce) -> Subscription:
    """A subscription as `TagScanner.add_tag` builds it."""
    text = name if element is None else f"{name}[{element}]"
    ref = parse_tag(text, bool_array=bool_array)
    direction = Direction.OUTPUT if output else Direction.INPUT
    return Subscription(
        "plc", ref, 1.0, direction, CipType.BOOL if bool_array else elem_type, coalesce
    )


# a list's members share a few groups: (name, element type or bool-array)
group_specs = st.tuples(
    st.sampled_from(NAMES), st.sampled_from([None, "bool-array", *CipType])
)
# (group index, element or unindexed, output, coalesce)
member_specs = st.tuples(
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(0, 40), st.integers(0, 400)),
    st.booleans(),
    st.sampled_from([True, True, False]),
)
scan_lists = st.tuples(
    st.tuples(
        st.lists(group_specs, min_size=4, max_size=4), st.lists(member_specs, max_size=40)
    ),
    st.one_of(st.integers(64, 128), st.integers(64, 511)),  # small limits bind
    st.booleans(),
)


def members_of(specs):
    groups, members = specs
    subs = []
    for index, element, output, coalesce in members:
        name, kind = groups[index]
        bool_array = kind == "bool-array" and element is not None
        elem_type = None if kind == "bool-array" else kind
        subs.append(member(name, element, bool_array, elem_type, output, coalesce))
    return subs


def flat_ops(scan_plan):
    return [op for ops, _request in scan_plan.transfers for op in ops]


def discovery_ops(scan_plan):
    return [op for ops, _request in scan_plan.discovery for op in ops]


def sent(scan_plan):
    return [message for _ops, message in scan_plan.transfers]


@PROPERTIES
@given(scan_lists)
def test_each_member_is_planned_once_or_unplannable(case):
    """Once across transfers, discovery reads and `unplannable`; a member of
    unknown type only in a discovery read of one element."""
    specs, limit, batching = case
    members = members_of(specs)
    scan_plan = plan_list(members, limit, batching)
    ops, discovery = flat_ops(scan_plan), discovery_ops(scan_plan)
    seen = collections.Counter(id(sub) for op in ops + discovery for sub, _o, _b in op.targets)
    seen.update(id(sub) for sub in scan_plan.unplannable)
    assert seen == collections.Counter(id(sub) for sub in members)
    for op in ops + discovery:
        count = int.from_bytes(cip.decode_request(op.encoded).payload, "little")
        for sub, offset, bit in op.targets:
            assert 0 <= offset < count and bit == sub.bit
            if op.start_element is not None:
                assert op.start_element + offset == sub.element
    assert all(sub.wire_type() is not None for op in ops for sub, _o, _b in op.targets)
    for op in discovery:
        (sub, _offset, _bit), = op.targets
        assert sub.wire_type() is None and op.expected_type is None
        assert cip.decode_request(op.encoded).payload == (1).to_bytes(2, "little")


@PROPERTIES
@given(scan_lists)
def test_each_transfer_and_its_reply_fit_the_limit(case):
    specs, limit, batching = case
    scan_plan = plan_list(members_of(specs), limit, batching)
    for ops, request in scan_plan.transfers:
        assert cip.wrapped_request_size(len(request)) <= limit
        if len(ops) == 1:
            assert request is ops[0].encoded
            assert ops[0].response_estimate <= limit
        else:
            assert batching
            assert request == cip.encode_multi_request([op.encoded for op in ops])
            assert cip.multi_response_size([op.response_estimate for op in ops]) <= limit


@PROPERTIES
@given(scan_lists)
def test_packing_keeps_op_order_and_fills_each_transfer(case):
    specs, limit, batching = case
    ops = flat_ops(plan_list(members_of(specs), limit, False))
    transfers = pack(ops, limit, batching)
    assert [op for packed, _request in transfers for op in packed] == ops
    if not batching:
        assert all(len(packed) == 1 for packed, _request in transfers)
        return
    # greedy: the next transfer's first op would not have fitted the one before
    for (before, _r1), (after, _r2) in zip(transfers, transfers[1:]):
        grown = [len(op.encoded) for op in before + after[:1]]
        replies = [op.response_estimate for op in before + after[:1]]
        assert (
            cip.wrapped_request_size(cip.multi_request_size(grown)) > limit
            or cip.multi_response_size(replies) > limit
        )


def write_shape(scan_plan, members):
    """The planned writes, each output as its index in `members`."""
    index = {id(sub): i for i, sub in enumerate(members)}
    return [
        (key, elements, head, [index[id(sub)] for sub in outputs])
        for key, elements, head, outputs in scan_plan.write_spans
    ]


@PROPERTIES
@given(scan_lists)
def test_planning_is_deterministic(case):
    specs, limit, batching = case
    members = members_of(specs)
    first = plan_list(members, limit, batching)
    again = plan_list(members, limit, batching)
    fresh_members = members_of(specs)
    fresh = plan_list(fresh_members, limit, batching)
    assert sent(first) == sent(again) == sent(fresh)
    assert [op.targets for op in flat_ops(first)] == [op.targets for op in flat_ops(again)]
    assert first.unplannable == again.unplannable
    assert first.write_spans == again.write_spans
    assert write_shape(first, members) == write_shape(fresh, fresh_members)
    assert [[(o, b) for _s, o, b in op.targets] for op in flat_ops(first)] == [
        [(o, b) for _s, o, b in op.targets] for op in flat_ops(fresh)
    ]


@PROPERTIES
@given(scan_lists)
def test_write_spans_hold_their_outputs_and_head_their_writes(case):
    """Every typed planned output is in exactly one planned write, and no
    untyped or unplannable member is in any.  A coalesced group's span
    writes run in element order from an output to an output, each carrying
    the outputs it covers; a lone output's write is of its one element.
    Each head is its write's up to the data."""
    specs, limit, batching = case
    members = members_of(specs)
    scan_plan = plan_list(members, limit, batching)
    groups, singles = plan.group(members)
    unplannable = {id(sub) for sub in scan_plan.unplannable}
    carried = [sub for write in scan_plan.write_spans for sub in write.outputs]
    assert not any(id(sub) in unplannable or sub.wire_type() is None for sub in carried)
    typed_outputs = [
        s for s in members
        if s.direction is Direction.OUTPUT and s.wire_type() is not None and id(s) not in unplannable
    ]
    assert collections.Counter(map(id, carried)) == collections.Counter(map(id, typed_outputs))
    outputs = {
        key: [s for s in subs if s.direction is Direction.OUTPUT and id(s) not in unplannable]
        for key, subs in groups.items()
    }
    lone = {id(sub) for sub in singles}
    spans: dict = {}
    for write in scan_plan.write_spans:
        assert all(write.key == (s.group, s.wire_type()) for s in write.outputs)
        if id(write.outputs[0]) in lone:
            (sub,) = write.outputs
            assert tuple(write.elements) == (sub.element,)
        else:
            spans.setdefault(write.key, []).append(write)
    assert spans.keys() == {key for key, subs in outputs.items() if subs}
    for key, writes in spans.items():
        elements = sorted({s.element for s in outputs[key]})
        assert [e for write in writes for e in elements if e in write.elements] == elements
        assert all(
            before.elements[-1] < after.elements[0] for before, after in zip(writes, writes[1:])
        )
        in_order = sorted(outputs[key], key=lambda s: s.element)
        for write in writes:
            assert write.elements[0] in elements and write.elements[-1] in elements
            assert write.outputs == [s for s in in_order if s.element in write.elements]
    for key, covered, head, carried_outputs in scan_plan.write_spans:
        wire_type, count = key[1], len(covered)
        fresh = cip.encode_write_request(
            carried_outputs[0].wire_path(covered[0]), CipValue(wire_type, [0] * count)
        )
        assert fresh[:len(head)] == head
        assert len(fresh) - len(head) == wire_type.width * count


def read_count(op) -> int:
    return int.from_bytes(cip.decode_request(op.encoded).payload, "little")


# 40 dense DINT outputs under a 128-byte limit: a read would carry 30 of
# them but a span write fewer, so the write decides the cut
DENSE_OUTPUTS = (([("a", CipType.DINT)] * 4, [(0, i, True, True) for i in range(40)]), 128, True)
# an unindexed DINT output named with 40 characters under a 64-byte limit:
# its read (60 bytes) would fit, its own write (66) would not
LONE_OUTPUT = (([("x" * 40, CipType.DINT)] * 4, [(0, None, True, True)]), 64, True)


@PROPERTIES
@given(scan_lists)
@example(DENSE_OUTPUTS)
@example(LONE_OUTPUT)
def test_every_read_and_span_write_fits_and_each_span_lies_in_one_read(case):
    """The cut rule: every read request and its reply fit the limit, every
    planned write, lone ones included, fits it with its data, and each
    write of indexed elements lies inside one read of the same group, so
    the reads that fill the span cache cover it; an unindexed output's
    write is of the member one read reads alone."""
    specs, limit, batching = case
    scan_plan = plan_list(members_of(specs), limit, batching)
    ops = flat_ops(scan_plan)
    for op in ops + discovery_ops(scan_plan):
        assert cip.wrapped_request_size(len(op.encoded)) <= limit
        assert op.response_estimate <= limit
    for key, covered, head, outputs in scan_plan.write_spans:
        data = key[1].width * len(covered)
        assert cip.wrapped_request_size(len(head) + data) <= limit
        first, high = covered[0], covered[-1]
        if first is None:
            assert any(op.targets == [(outputs[0], 0, None)] for op in ops)
            continue
        assert any(
            op.cache_key == key and op.start_element <= first
            and high < op.start_element + read_count(op)
            for op in ops
        )


@PROPERTIES
@given(scan_lists)
def test_a_group_whose_read_and_span_write_fit_is_not_cut(case):
    specs, limit, batching = case
    members = members_of(specs)
    ops = flat_ops(plan_list(members, limit, batching))
    groups, _singles = plan.group(members)
    for (_name, wire_type), subs in groups.items():
        first = min(s.element for s in subs)
        count = max(s.element for s in subs) - first + 1
        if count > cip.MAX_ELEMENT_COUNT:
            continue
        whole = plan.read_op(subs, first, count)
        if cip.wrapped_request_size(len(whole.encoded)) > limit or whole.response_estimate > limit:
            continue
        outputs = [s.element for s in subs if s.direction is Direction.OUTPUT]
        if outputs:
            span = max(outputs) - min(outputs) + 1
            head = cip.encode_write_head(subs[0].wire_path(min(outputs)), wire_type, span)
            if cip.wrapped_request_size(len(head) + wire_type.width * span) > limit:
                continue
        reading = [op for op in ops if any(sub in subs for sub, _o, _b in op.targets)]
        assert [op.encoded for op in reading] == [whole.encoded]


@PROPERTIES
@given(scan_lists)
def test_no_plan_has_more_reads_than_the_element_read_plan(case):
    """Nor, unbatched, more transfers; batched, see the sparse example."""
    specs, limit, batching = case
    scan_plan = plan_list(members_of(specs), limit, batching)
    planned = [sub for op in flat_ops(scan_plan) for sub, _o, _b in op.targets]
    element_reads = [plan.read_op([sub], sub.element, 1) for sub in planned]
    assert len(flat_ops(scan_plan)) <= len(element_reads)
    if not batching:
        assert len(scan_plan.transfers) <= len(pack(element_reads, limit, batching))


def test_sparse_spans_can_pack_into_more_transfers_than_their_element_reads():
    # a fitting group is never cut, so a span reads its gaps: two REAL
    # spans of 101 elements take a transfer each, where the four element
    # reads would share one
    members = [member(name, i, False, CipType.REAL, False, True) for name in "ab" for i in (0, 100)]
    assert shape(members) == [1, 1]
    element_reads = [plan.read_op([sub], sub.element, 1) for sub in members]
    assert [len(ops) for ops, _request in pack(element_reads, 500, True)] == [4]


def shape(members, limit=500, batching=True):
    return [len(ops) for ops, _request in plan_list(members, limit, batching).transfers]


def test_c06_plans():
    bits = [member("binp", i, True, None, False, True) for i in range(352)]
    reals = [
        member(name, i, False, CipType.REAL, False, True)
        for name in ("ra", "rb", "rc") for i in range(40)
    ]
    assert shape(bits) == [1]
    assert shape(reals) == [2, 1]
    assert shape(reals, batching=False) == [1, 1, 1]


def test_mixed_scan_plan():
    members = [
        member(f"Tag_{i:02d}_23456789", None, False, CipType.DINT, False, True)
        for i in range(15)
    ]
    members += [member("rspan", i, False, CipType.REAL, False, True) for i in range(100)]
    members += [member("bits", i, True, None, False, True) for i in range(352)]
    assert shape(members) == [4, 13]


def test_a_span_past_16_bits_of_count_is_cut():
    # a[0] to a[70001] would need a count of 70002, which no read can carry
    members = [member("a", i, False, CipType.SINT, False, True) for i in (70001, 0, 70000, 1)]
    scan_plan = plan_list(members, 500, True)
    assert scan_plan.unplannable == []
    ops = flat_ops(scan_plan)
    assert [(op.start_element, [t[1] for t in op.targets]) for op in ops] == [
        (0, [0, 1]), (70000, [0, 1])
    ]
    assert shape(members) == [2]


@pytest.mark.parametrize("wire_type, most", [
    (CipType.SINT, 494), (CipType.INT, 247), (CipType.DINT, 123), (CipType.REAL, 123),
])
def test_one_read_carries_at_most_what_fits_500_bytes(wire_type, most):
    members = [member("a", i, False, wire_type, False, True) for i in range(most + 1)]
    assert [read_count(op) for op in flat_ops(plan_list(members, 500, True))] == [most, 1]


def test_dense_outputs_are_cut_where_their_span_write_stops_fitting():
    # 120 DINTs fit one read, but not one span write: the group is cut
    # where the write stops fitting, for reads and writes alike
    members = [member("d", i, False, CipType.DINT, True, True) for i in range(120)]
    scan_plan = plan_list(members, 500, True)
    assert [(op.start_element, read_count(op)) for op in flat_ops(scan_plan)] == [
        (0, 118), (118, 2)
    ]
    assert [(key, elements) for key, elements, _head, _outputs in scan_plan.write_spans] == [
        (("d", CipType.DINT), range(0, 118)), (("d", CipType.DINT), range(118, 120))
    ]
    assert [outputs for _key, _elements, _head, outputs in scan_plan.write_spans] == [
        members[:118], members[118:]
    ]
    assert shape(members) == [1, 1]


def test_a_lone_output_whose_own_write_cannot_fit_is_unplannable():
    # an unindexed DINT named with 39 characters: its read is 60 bytes, its
    # write 66; at 64 an input of it is planned, an output is not
    name = "o" * 39
    out = member(name, None, False, CipType.DINT, True, True)
    assert shape([member(name, None, False, CipType.DINT, False, True)], limit=64) == [1]
    scan_plan = plan_list([out], 64, True)
    assert (scan_plan.transfers, scan_plan.unplannable, scan_plan.write_spans) == ([], [out], [])
    # at 66 it fits: one read, and one write of its one element
    scan_plan = plan_list([out], 66, True)
    head = cip.encode_write_head(out.wire_path(None), CipType.DINT, 1)
    assert scan_plan.write_spans == [plan.WriteSpan((name, CipType.DINT), (None,), head, [out])]
    assert shape([out], limit=66) == [1]


def test_planner_imports_no_client_socket_or_threading():
    """plan.py and every logixscan module it pulls in, read from source."""
    package = Path(plan.__file__).parent
    seen, todo, imported = set(), ["plan"], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse((package / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
            elif isinstance(node, ast.ImportFrom):
                local = [node.module] if node.module else [a.name for a in node.names]
                todo.extend(local)
                imported.update(f"logixscan.{m}" for m in local)
    assert seen == {"plan", "cip"}
    assert not imported & {"logixscan.client", "socket", "threading"}
