"""What a flush builds from its plan, with no I/O and no socket.

A property test draws random scan lists, mostly of outputs, random dirty
outputs and random span-cache contents, builds a flush's writes and checks
each against a reference made from fresh encodings: a planned write that
carries dirty outputs is cut at every gap that costs more bytes than a
write of its own, each part goes out from its first dirty element to its
last, gaps from the cache, and nothing outside that range.  Other
properties check the cut itself against fresh encodings, and that a
batched flush never packs worse than one write per planned write.
"""

import collections
import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logixscan import cip
from logixscan.cip import CipType
from logixscan.client import PlcEndpoint
from logixscan.plan import Direction, cut_writes, pack
from logixscan.cycle import Step, WriteOp, build_flush
from logixscan.scanner import ScanList, TagScanner

from test_plan import PROPERTIES, member, members_of

# staged values: encodable as every type (a bit takes their truth)
STAGED = st.integers(0, 100)

# scan lists of mostly outputs in two groups, dense enough for planned
# writes to carry several, some across the 8- to 16-bit element segment
# boundary at 256, and some sparse enough for gaps worth a cut; (group
# index, element, output, coalesce) as the planner tests draw them
flush_lists = st.tuples(
    st.tuples(
        st.lists(
            st.tuples(st.sampled_from(["a", "Tag_07_23456789"]),
                      st.sampled_from(["bool-array", *CipType])),
            min_size=2, max_size=2,
        ),
        st.lists(
            st.tuples(
                st.integers(0, 1),
                st.one_of(st.integers(0, 40), st.integers(250, 262), st.none(),
                          st.integers(0, 160)),
                st.sampled_from([True] * 4 + [False]),
                st.sampled_from([True] * 4 + [False]),
            ),
            min_size=1, max_size=40,
        ),
    ),
    st.integers(64, 511),
    st.booleans(),
)

# a few coalesced outputs of two groups, far enough apart for many gaps to
# be worth a cut, some in a lone write that a cut would make a Multi-Request
sparse_lists = st.tuples(
    st.tuples(
        st.lists(
            st.tuples(st.sampled_from(["a", "Tag_07_23456789"]),
                      st.sampled_from(["bool-array", *CipType])),
            min_size=2, max_size=2,
        ),
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 60), st.just(True), st.just(True)),
                 min_size=2, max_size=8),
    ),
    st.integers(128, 511),
    st.just(True),
)


def flush_of(members, limit=500, batching=True):
    """A scanner unit holding one list of `members`, never connected, and
    the list's plan."""
    sc = TagScanner(batching)
    sc.add_plc("plc", PlcEndpoint("127.0.0.1", buffer_limit=limit))
    unit = sc._units["plc"]
    sl = ScanList(1.0, list(members))
    unit.lists[1.0] = sl
    return sc, unit, sl, sc._executor(unit, sl).plan


def build(unit, scan_plan):
    """A flush's writes and the outputs it left unbuilt, built with no I/O."""
    return build_flush(Step(unit, logging.WARNING), scan_plan)


def cached(element) -> int:
    """The value a drawn span cache holds for an element."""
    return (element * 37 + 11) % 101


def reference_write(span, dirty, cache):
    """The elements and bytes the write of `dirty` in `span` should carry,
    encoded afresh, or None if it builds on an element `cache` lacks."""
    wire_type = span.key[1]
    lo, hi = dirty[0].element, dirty[-1].element
    if lo is None:
        covered = (None,)
        head = cip.encode_write_head(dirty[0].wire_path(None), wire_type, 1)
    else:
        covered = range(lo, hi + 1)
        head = cip.encode_write_head(dirty[0].wire_path(lo), wire_type, len(covered))
        planned = len(span.head) + wire_type.width * len(span.elements)
        if len(head) + wire_type.width * len(covered) > planned:
            # a wider element segment than the planned write's start costs
            # more than the elements it skips: start where the plan does
            covered = range(span.elements[0], hi + 1)
            head = cip.encode_write_head(dirty[0].wire_path(covered[0]), wire_type, len(covered))
    words: dict = {}
    for sub in dirty:  # staged values, bits folded into their words in order
        if sub.bit is None:
            words[sub.element] = sub.pending
            continue
        word = words[sub.element] if sub.element in words else cache.get(sub.element)
        if word is not None:
            word = int(word) & 0xFFFFFFFF
            word = word | 1 << sub.bit if sub.pending else word & ~(1 << sub.bit)
        words[sub.element] = word
    values = [words[e] if e in words else cache.get(e) for e in covered]
    if None in values:
        return None
    return covered, head, cip.pack_elements(wire_type, values)


def draw_dirty(data, members):
    """Stage a drawn value on a drawn set of the outputs."""
    for sub in members:
        if sub.direction is Direction.OUTPUT and data.draw(st.booleans()):
            sub.pending, sub.dirty = data.draw(STAGED), True


def dirty_writes(scan_plan):
    """Each planned write that carries dirty outputs, with them."""
    writes = []
    for span in scan_plan.write_spans:
        dirty = [sub for sub in span.outputs if sub.dirty]
        if dirty:
            writes.append((span, dirty))
    return writes


def warm(unit, scan_plan):
    """Fill the span cache with every planned element, and return a copy."""
    model = {}
    for span in scan_plan.write_spans:
        model.setdefault(span.key, {}).update(
            (e, cached(e)) for e in span.elements if e is not None
        )
    for key, elements in model.items():
        unit.span_cache[key] = dict(elements)
    return model


# what a write of its own adds beyond its head: an offset in the
# Multi-Request, and its reply (a status header alone) with an offset
SPLIT_ADDS = 2 + 4 + 2


def split_cost(sub, wire_type) -> int:
    """What a write of its own, starting at `sub`'s element, adds to a
    Multi-Request and its reply, from a fresh encoding of its head."""
    return len(cip.encode_write_head(sub.wire_path(sub.element), wire_type, 1)) + SPLIT_ADDS


@PROPERTIES
@given(flush_lists, st.data())
def test_each_built_write_runs_from_its_first_dirty_output_to_its_last(case, data):
    """Each built write covers exactly its part's first to last dirty
    element, inside the planned span, with staged values on dirty elements
    and cached ones on gaps, under a head equal to a fresh
    `cip.encode_write_head`; a write that builds on an element the cache
    lacks is not built, and its dirty outputs are handed back."""
    specs, limit, batching = case
    members = members_of(specs)
    sc, unit, sl, scan_plan = flush_of(members, limit, batching)
    draw_dirty(data, members)
    model = {}
    for span in scan_plan.write_spans:
        indexed = sorted(e for e in span.elements if e is not None)
        fill = data.draw(st.sampled_from(["cold", "warm", "holes"]))
        if fill == "warm":
            held = indexed
        elif fill == "holes" and indexed:
            held = data.draw(st.sets(st.sampled_from(indexed)))
        else:
            held = []
        model.setdefault(span.key, {}).update((e, cached(e)) for e in held)
    for key, elements in model.items():
        unit.span_cache[key] = dict(elements)

    ops, lacking = build(unit, scan_plan)
    built, unbuilt = iter(ops), []
    writes = dirty_writes(scan_plan)
    for span, dirty in cut_writes(writes, limit, batching, WriteOp.response_estimate):
        cache = model[span.key]
        expected = reference_write(span, dirty, cache)
        if expected is None:
            unbuilt += dirty
            continue
        covered, head, packed = expected
        op = next(built)
        assert (op.encoded, op.subs, op.first) == (head + packed, dirty, covered[0])
        assert set(covered) <= set(span.elements)
        if covered[0] is not None:
            if covered[0] != dirty[0].element:  # the one exception, as above
                assert span.key[1].width == 1 and covered[0] == span.elements[0]
            assert covered[-1] == dirty[-1].element
            # what the PLC holds once it lands, for the writes built after it
            cache.update(zip(covered, cip.unpack_elements(span.key[1], packed)))
    assert next(built, None) is None
    assert lacking == unbuilt
    assert unit.span_cache == model


@PROPERTIES
@given(st.one_of(flush_lists, sparse_lists), st.data())
def test_the_parts_of_a_planned_write_hold_each_dirty_output_once_in_order(case, data):
    """A planned write's parts hold its dirty outputs, each once and in
    order; their writes are disjoint, ordered and inside the planned span,
    so every dirty element is in exactly one; and a gap is kept inside a
    part exactly when it costs no more bytes than a write of its own adds."""
    specs, limit, batching = case
    members = members_of(specs)
    _sc, _unit, _sl, scan_plan = flush_of(members, limit, batching)
    draw_dirty(data, members)
    for span, dirty in dirty_writes(scan_plan):
        parts = span.parts(dirty, WriteOp.response_estimate)
        assert all(parts) and [sub for part in parts for sub in part] == dirty
        ranges = [span.part(part[0].element, part[-1].element)[0] for part in parts]
        for covered in ranges:
            assert set(covered) <= set(span.elements)
        for before, after in zip(ranges, ranges[1:]):
            assert before[-1] < after[0]
        for part, covered in zip(parts, ranges):
            assert {sub.element for sub in part} <= set(covered)
        wire_type = span.key[1]
        for part, after in zip(parts, parts[1:]):  # every cut costs more
            gap = after[0].element - part[-1].element - 1
            assert wire_type.width * gap > split_cost(after[0], wire_type)
        for part in parts:  # every kept gap costs no more
            for low, high in zip(part, part[1:]):
                if high.element - low.element > 1:
                    gap = high.element - low.element - 1
                    assert wire_type.width * gap <= split_cost(high, wire_type)


def packed_cost(ops, limit) -> tuple[int, int]:
    """The transfers a batched flush packs ops into, and their request and
    reply bytes."""
    transfers = pack(ops, limit, True)
    size = 0
    for t, message in transfers:
        replies = [op.response_estimate for op in t]
        size += len(message) + (replies[0] if len(t) == 1 else cip.multi_response_size(replies))
    return len(transfers), size


Write = collections.namedtuple("Write", "encoded response_estimate")


@PROPERTIES
@given(st.one_of(flush_lists, sparse_lists), st.data())
def test_a_batched_flush_packs_no_worse_than_one_write_per_planned_write(case, data):
    """Warm, a batched flush packs into no more transfers and no more
    request and reply bytes than one write per planned write from its
    first dirty output to its last; an unbatched one sends exactly those."""
    specs, limit, batching = case
    members = members_of(specs)
    sc, unit, sl, scan_plan = flush_of(members, limit, batching)
    draw_dirty(data, members)
    model = warm(unit, scan_plan)
    whole = []
    for span, dirty in dirty_writes(scan_plan):
        covered, head, packed = reference_write(span, dirty, model[span.key])
        whole.append(Write(head + packed, WriteOp.response_estimate))
        if covered[0] is not None:  # later writes build on what this one set
            model[span.key].update(zip(covered, cip.unpack_elements(span.key[1], packed)))
    ops, lacking = build(unit, scan_plan)
    assert lacking == []
    if batching:
        transfers, size = packed_cost(ops, limit)
        whole_transfers, whole_size = packed_cost(whole, limit)
        assert transfers <= whole_transfers and size <= whole_size
    else:
        assert [op.encoded for op in ops] == [write.encoded for write in whole]


def reference_pack(writes, limit, batching) -> list[bytes]:
    """The messages `writes` go out in: in order, each transfer grown while
    one Multi-Request of its writes and its reply, sized afresh, fit the
    limit (unbatched, one write each)."""
    groups: list[list] = []
    for write in writes:
        grown = groups[-1] + [write] if groups and batching else None
        if grown and (
            cip.wrapped_request_size(cip.multi_request_size([len(w.encoded) for w in grown]))
            <= limit
            and cip.multi_response_size([w.response_estimate for w in grown]) <= limit
        ):
            groups[-1] = grown
        else:
            groups.append([write])
    return [
        group[0].encoded if len(group) == 1
        else cip.encode_multi_request([w.encoded for w in group])
        for group in groups
    ]


@PROPERTIES
@given(st.one_of(flush_lists, sparse_lists), st.data())
def test_a_schedule_of_flushes_sends_the_reference_bytes(case, data):
    """Warm, each flush of a random schedule sends, message for message,
    the bytes of its writes encoded afresh by `reference_write` and packed
    afresh; each lands, so no planned write is left dirty, and the next
    builds on what it wrote."""
    specs, limit, batching = case
    members = members_of(specs)
    sc, unit, sl, scan_plan = flush_of(members, limit, batching)
    model = warm(unit, scan_plan)
    for _flush in range(data.draw(st.integers(1, 5))):
        draw_dirty(data, members)
        expected = []
        writes = cut_writes(dirty_writes(scan_plan), limit, batching, WriteOp.response_estimate)
        for span, dirty in writes:
            covered, head, packed = reference_write(span, dirty, model[span.key])
            expected.append(Write(head + packed, WriteOp.response_estimate))
            if covered[0] is not None:
                model[span.key].update(zip(covered, cip.unpack_elements(span.key[1], packed)))
        ops, lacking = build(unit, scan_plan)
        assert lacking == []
        sent = [message for _ops, message in pack(ops, limit, batching)]
        assert sent == reference_pack(expected, limit, batching)
        for op in ops:
            op.settle(0.0)
        assert dirty_writes(scan_plan) == []


def test_a_gap_that_costs_exactly_a_write_of_its_own_stays_joined():
    # INT outputs of `big`: a one-element write of its own adds a 14-byte
    # head and 8 bytes of offsets and reply, so a gap of 11 elements (22
    # bytes) stays joined and one of 12 (24 bytes) is cut
    outputs = [member("big", e, False, CipType.INT, True, True) for e in (0, 12, 25)]
    _sc, _unit, _sl, scan_plan = flush_of(outputs)
    (span,) = scan_plan.write_spans
    assert split_cost(outputs[1], CipType.INT) == 22
    assert span.parts(outputs, WriteOp.response_estimate) == [outputs[:2], outputs[2:]]


@pytest.mark.parametrize("high, writes", [(10, 1), (20, 2)])
def test_a_lone_write_is_cut_only_where_the_multi_request_pays(high, writes):
    # DINT outputs at 0 and `high` of one planned write, dirty and alone in
    # the flush: a gap of 9 (36 bytes) costs more than a write of its own
    # (22), but cutting it makes the lone write a Multi-Request, whose
    # request and reply (48 + 18 bytes) outweigh the one write (58 + 4);
    # a gap of 19 (76 bytes) pays for it
    outputs = [member("big", e, False, CipType.DINT, True, True) for e in (0, high)]
    sc, unit, sl, scan_plan = flush_of(outputs)
    (span,) = scan_plan.write_spans
    assert len(span.parts(outputs, WriteOp.response_estimate)) == 2
    for sub in outputs:
        sub.pending, sub.dirty = 1, True
    warm(unit, scan_plan)
    ops, _lacking = build(unit, scan_plan)
    assert [op.subs for op in ops] == ([outputs] if writes == 1 else [[sub] for sub in outputs])


def test_a_write_never_outgrows_its_planned_write():
    # SINT outputs at 255 and 256: a write of 256 alone would need a
    # 16-bit element segment, two bytes more than the planned write's
    # 8-bit one, to save one data byte, so it starts at 255 as planned
    low, high = (member("a", e, False, CipType.SINT, True, True) for e in (255, 256))
    sc, unit, sl, scan_plan = flush_of([low, high])
    (span,) = scan_plan.write_spans
    unit.span_cache[span.key] = {255: 5}
    high.pending, high.dirty = 6, True
    (op,), lacking = build(unit, scan_plan)
    assert lacking == [] and op.first == 255 and op.values == (5, 6)
    assert op.encoded == span.head + bytes((5, 6))
