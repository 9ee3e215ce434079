"""What a flush builds from its plan, with no I/O and no socket.

A property test draws random scan lists, mostly of outputs, random dirty
outputs and random span-cache contents, builds a flush's
writes and checks each against a reference made from fresh encodings: a
planned write that carries dirty outputs goes out from its first dirty
element to its last, gaps from the cache, and nothing outside that range.
"""

from hypothesis import given
from hypothesis import strategies as st

from logixscan import cip
from logixscan.cip import CipType
from logixscan.client import PlcEndpoint
from logixscan.plan import Direction
from logixscan.scanner import ScanList, TagScanner

from test_plan import PROPERTIES, member, members_of

# staged values: encodable as every type (a bit takes their truth)
STAGED = st.integers(0, 100)

# scan lists of mostly outputs in two groups, dense enough for planned
# writes to carry several, some across the 8- to 16-bit element segment
# boundary at 256; (group index, element, output, coalesce) as the
# planner tests draw them
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
                st.one_of(st.integers(0, 40), st.integers(250, 262), st.none()),
                st.sampled_from([True] * 4 + [False]),
                st.sampled_from([True] * 4 + [False]),
            ),
            min_size=1, max_size=40,
        ),
    ),
    st.integers(64, 511),
    st.booleans(),
)


def flush_of(members, limit=500, batching=True):
    """A scanner unit holding one list of `members`, never connected, and
    the list's plan."""
    sc = TagScanner(batching)
    sc.add_plc("plc", PlcEndpoint("127.0.0.1", buffer_limit=limit))
    unit = sc._units["plc"]
    sl = ScanList(1.0, list(members))
    unit.lists[1.0] = sl
    return sc, unit, sl, sc._plan(unit, sl)


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


@PROPERTIES
@given(flush_lists, st.data())
def test_each_built_write_runs_from_its_first_dirty_output_to_its_last(case, data):
    """Each built write covers exactly its planned write's first to last
    dirty element, inside the planned span, with staged values on dirty
    elements and cached ones on gaps, under a head equal to a fresh
    `cip.encode_write_head`; a write that builds on an element the cache
    lacks is not built, and its dirty outputs are handed back."""
    specs, limit, batching = case
    members = members_of(specs)
    sc, unit, sl, scan_plan = flush_of(members, limit, batching)
    for sub in members:
        if sub.direction is Direction.OUTPUT and data.draw(st.booleans()):
            sub.pending, sub.dirty = data.draw(STAGED), True
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

    ops, lacking = sc._build_flush(unit, sl)
    built, unbuilt = iter(ops), []
    for span in scan_plan.write_spans:
        dirty = [sub for sub in span.outputs if sub.dirty]
        if not dirty:
            continue
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


def test_a_write_never_outgrows_its_planned_write():
    # SINT outputs at 255 and 256: a write of 256 alone would need a
    # 16-bit element segment, two bytes more than the planned write's
    # 8-bit one, to save one data byte, so it starts at 255 as planned
    low, high = (member("a", e, False, CipType.SINT, True, True) for e in (255, 256))
    sc, unit, sl, scan_plan = flush_of([low, high])
    (span,) = scan_plan.write_spans
    unit.span_cache[span.key] = {255: 5}
    high.pending, high.dirty = 6, True
    (op,), lacking = sc._build_flush(unit, sl)
    assert lacking == [] and op.first == 255 and op.values == (5, 6)
    assert op.encoded == span.head + bytes((5, 6))
