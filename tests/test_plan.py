"""The scan planner on its own: no scanner, no sockets.

Property tests draw random scan lists (coalesced and lone members, BOOL-array
bits, unknown types, outputs, names long enough to be unplannable) and check
what every plan must hold; example tests pin the C06 and mixed-list plans.
"""

import ast
import collections
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logixscan import cip, plan
from logixscan.cip import CipType
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


def sent(scan_plan):
    return [message for _ops, message in scan_plan.transfers]


@PROPERTIES
@given(scan_lists)
def test_each_member_is_planned_once_or_unplannable(case):
    specs, limit, batching = case
    members = members_of(specs)
    scan_plan = plan_list(members, limit, batching)
    seen = collections.Counter(id(sub) for op in flat_ops(scan_plan) for sub, _o, _b in op.targets)
    seen.update(id(sub) for sub in scan_plan.unplannable)
    assert seen == collections.Counter(id(sub) for sub in members)
    for op in flat_ops(scan_plan):
        count = int.from_bytes(cip.decode_request(op.encoded).payload, "little")
        for sub, offset, bit in op.targets:
            assert 0 <= offset < count and bit == sub.bit
            if op.start_element is not None:
                assert op.start_element + offset == sub.element


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
            assert request == cip.encode_request(
                cip.build_multi_request_encoded([op.encoded for op in ops])
            )
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


@PROPERTIES
@given(scan_lists)
def test_planning_is_deterministic(case):
    specs, limit, batching = case
    members = members_of(specs)
    first = plan_list(members, limit, batching)
    again = plan_list(members, limit, batching)
    fresh = plan_list(members_of(specs), limit, batching)
    assert sent(first) == sent(again) == sent(fresh)
    assert [op.targets for op in flat_ops(first)] == [op.targets for op in flat_ops(again)]
    assert first.unplannable == again.unplannable
    assert first.write_spans == again.write_spans == fresh.write_spans
    assert [[(o, b) for _s, o, b in op.targets] for op in flat_ops(first)] == [
        [(o, b) for _s, o, b in op.targets] for op in flat_ops(fresh)
    ]


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
