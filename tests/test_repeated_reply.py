"""Reads and transfers that reuse a repeated reply, against ones that
remember nothing.

Two copies of the same subscriptions absorb the same sequence of replies:
one through a single read, which keeps the last reply it accepted, the
other through a fresh read built for every reply.  Replies repeat, come short
or long, carry error statuses, another service's reply flag, another type, or a
malformed payload.  In the same way, a transfer of two reads that keeps its
last reply, and stores a reply that repeats from its flat record, is
fed the same outer replies as one that decodes and splits every reply with
fresh reads and a fresh slot: repeated, with one embedded reply changed, with an embedded
error, a wrong item count, a truncated offset table or an embedded reply cut
short; between two replies, the outputs' writes may land.  After every
reply both copies must hold the same cells (values
compared by their wire bytes, so NaN payloads and -0.0 count), the same span
cache, drift events and error count.
"""

import logging
import struct
import threading

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from logixscan import cip, encap, plan
from logixscan.cip import CipResponse, CipType
from logixscan.client import Phase, PlcClient, PlcEndpoint
from logixscan.cycle import Read, Step, TransferReply, notify, send
from logixscan.plan import Direction
from logixscan.scanner import Quality, Subscription, _PlcUnit
from logixscan.tags import parse_tag

from conftest import counted_on, offset_table

PROPERTIES = settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
LIMIT = 500

# (tag, bool array, element type, direction, watched): one coalesced read each
LAYOUTS = {
    "reals": [
        ("r[0]", False, CipType.REAL, Direction.INPUT, False),
        ("r[2]", False, CipType.REAL, Direction.OUTPUT, False),
        ("r[3]", False, CipType.REAL, Direction.OUTPUT, True),
        ("r[5]", False, CipType.REAL, Direction.INPUT, False),
    ],
    # the same with no drift callback, so its transfers can be stored flat
    "plain reals": [
        ("r[0]", False, CipType.REAL, Direction.INPUT, False),
        ("r[2]", False, CipType.REAL, Direction.OUTPUT, False),
        ("r[3]", False, CipType.REAL, Direction.OUTPUT, False),
        ("r[5]", False, CipType.REAL, Direction.INPUT, False),
    ],
    "bits": [
        ("b[1]", True, None, Direction.INPUT, False),
        ("b[40]", True, None, Direction.OUTPUT, False),
        ("b[70]", True, None, Direction.INPUT, False),
        ("b[170]", True, None, Direction.INPUT, False),
    ],
}
# elements each read asks for: r[0] to r[5], and the bits' words 0 to 5, so
# that one payload can be whole for both
WORDS = 6

SPECIAL_REALS = [
    struct.pack("<f", x) for x in (0.0, -0.0, 1.0, float("inf"))
] + [
    bytes.fromhex(h) for h in ("0000c07f", "0100c07f", "0000c0ff", "0100807f")
]

# a few distinct payloads: (type code, None as read; elements; stray byte);
# as often as not, as many elements as a read asks for, since a reply of
# any other count is refused whole
element_specs = st.one_of(st.sampled_from(SPECIAL_REALS), st.binary(min_size=4, max_size=4))
payload_specs = st.tuples(
    st.sampled_from([None] * 5 + [CipType.DINT, CipType.REAL, CipType.INT]),
    st.one_of(
        st.lists(element_specs, min_size=WORDS, max_size=WORDS),
        st.lists(element_specs, min_size=0, max_size=WORDS + 1),
    ),
    st.sampled_from([b""] * 7 + [b"\x00"]),  # a stray byte: a malformed payload
)
# the replies in the order they arrive: (payload index, status, service)
reply_specs = st.tuples(
    st.integers(0, 2),
    st.sampled_from([cip.STATUS_OK] * 5 + [cip.STATUS_PATH_UNKNOWN, cip.STATUS_PARTIAL_TRANSFER]),
    st.sampled_from([cip.READ_REPLY] * 5 + [cip.WRITE_DATA | cip.REPLY_FLAG]),
)
cases = st.tuples(
    st.sampled_from(sorted(LAYOUTS)),
    st.lists(payload_specs, min_size=1, max_size=3),
    st.lists(reply_specs, min_size=1, max_size=16),
)


def subscriptions(layout, events):
    subs = []
    for text, bool_array, elem_type, direction, watched in LAYOUTS[layout]:
        def on_drift(sub, old, new):
            events.append((sub.ref, cip.pack_elements(old.type, old.elements),
                           cip.pack_elements(new.type, new.elements)))
        subs.append(Subscription(
            "plc", parse_tag(text, bool_array=bool_array), 1.0, direction,
            CipType.BOOL if bool_array else elem_type, True,
            on_drift if watched else None,
        ))
    return subs


def fresh_read(subs):
    first = min(s.element for s in subs)
    return Read(plan.read_op(subs, first, max(s.element for s in subs) - first + 1))


def payload(read, spec):
    type_code, elements, stray = spec
    code = read.op.expected_type if type_code is None else type_code
    return struct.pack("<H", code) + b"".join(elements) + stray


def wire(value):
    """A cell value as its type and wire bytes (None when there is none)."""
    return None if value is None else (value.type, cip.pack_elements(value.type, value.elements))


def cached(unit):
    """The span cache with REAL elements as their float32 bytes."""
    return {
        key: {e: struct.pack("<f", v) if key[1] is CipType.REAL else v for e, v in words.items()}
        for key, words in unit.span_cache.items()
    }


class ReplayClient(PlcClient):
    """A client whose every exchange answers with the CIP reply bytes it was
    last given, in a SendRRData carrier: its round trips decode and keep
    replies as a session's do."""

    def __init__(self):
        super().__init__(PlcEndpoint("127.0.0.1"))
        self.phase = Phase.REGISTERED
        self._sock = True  # a session that needs no socket
        self.reply = b""

    def _exchange(self, packet, context, expect=None):
        # each reply in a buffer of its own, as every exchange reads one
        return None, bytes(bytearray(encap.build_rr_data(0, self.reply)[encap.HEADER_SIZE:]))


class Side:
    """One copy of the layouts' subscriptions, its unit, errors and events."""

    def __init__(self, *layouts):
        self.events = []
        self.subs = [sub for layout in layouts for sub in subscriptions(layout, self.events)]
        self.unit = _PlcUnit("plc", ReplayClient())
        self.errors = 0

    def step(self, now):
        step = Step(self.unit, logging.DEBUG)
        step.now = now
        return step

    def done(self, step):
        """Run the step's drift callbacks and count its errors, as a cycle does."""
        notify(step.drifts)
        self.errors += step.errors

    def absorb(self, read, resp, now):
        """Store one reply in a step of its own."""
        step = self.step(now)
        stored = read.absorb(resp, step)
        self.done(step)
        return stored

    def transfer(self, reads, reply, now, slot):
        """Send one transfer of reads with its slot, answered by the CIP
        bytes `reply`, as a cycle does; returns whether it stored any read's
        reply."""
        self.unit.client.reply = reply
        step = self.step(now)
        message = cip.encode_multi_request([read.op.encoded for read in reads])
        stored = send(step, [(reads, message)], [slot])
        self.done(step)
        return stored

    def state(self):
        cells = [(wire(s.value), s.timestamp, s.quality) for s in self.subs]
        return cells, cached(self.unit), self.events, self.errors


@PROPERTIES
@given(cases)
def test_a_remembering_op_stores_what_a_fresh_op_stores(case):
    layout, payloads, replies = case
    kept, fresh = Side(layout), Side(layout)
    read = fresh_read(kept.subs)
    for step, (index, status, service) in enumerate(replies):
        data = payload(read, payloads[index % len(payloads)])
        now = 1000.0 + step
        # each side its own copy of the reply, so equal bytes are not one object
        assert kept.absorb(read, CipResponse(service, status, (), bytes(bytearray(data))), now) \
            == fresh.absorb(fresh_read(fresh.subs), CipResponse(service, status, (), data), now)
        assert kept.state() == fresh.state()


def test_a_repeated_reply_reuses_the_values_it_built():
    side = Side("reals")
    read = fresh_read(side.subs)
    data = struct.pack("<H6f", CipType.REAL, *range(6))
    assert side.absorb(read, CipResponse(cip.READ_REPLY, 0, (), data), 1.0)
    first = [s.value for s in side.subs]
    # an equal payload in another buffer: compared by bytes, not identity
    assert side.absorb(read, CipResponse(cip.READ_REPLY, 0, (), bytes(bytearray(data))), 2.0)
    assert len(read.op.typed_targets) == 3
    for sub, before in zip(side.subs, first):
        assert sub.timestamp == 2.0 and sub.quality is Quality.OK
        assert sub.value is before  # the watched output keeps its value too


# how a Multi-Request reply is malformed, if it is
MALFORMED = [None] * 4 + ["item count", "offset table", "short item", "outer status"]
transfer_specs = st.tuples(reply_specs, reply_specs, st.sampled_from(MALFORMED))
# each step: the same reply again (None, as often as the others together,
# so that replies repeat enough to be stored flat), one embedded reply
# changed (its index and its spec), a new reply, or no reply but the
# outputs' writes landing between two cycles ("landed")
steps = st.one_of(
    st.none(),
    st.none(),
    st.tuples(st.integers(0, 1), reply_specs),
    transfer_specs,
    st.just("landed"),
)
# the first payload, which a transfer's replies carry until a step changes
# them, is as often as not one that covers every target, so that both reads
# can store it whole
whole_payload_specs = st.tuples(
    st.none(),
    st.lists(st.sampled_from(SPECIAL_REALS), min_size=WORDS, max_size=WORDS),
    st.just(b""),
)
transfer_cases = st.tuples(
    # with a drift callback, which keeps a record away, or none
    st.sampled_from(["reals", "plain reals", "plain reals"]),
    st.tuples(
        st.one_of(whole_payload_specs, payload_specs), st.lists(payload_specs, max_size=2)
    ).map(lambda specs: [specs[0], *specs[1]]),
    st.lists(steps, min_size=1, max_size=16),
)


def multi_reply(reads, payloads, spec):
    """The outer reply to a Multi-Request of reads, as its CIP bytes."""
    *items, malformed = spec
    embedded = [
        cip.encode_response(
            CipResponse(service, status, (), payload(read, payloads[index % len(payloads)]))
        )
        for read, (index, status, service) in zip(reads, items)
    ]
    if malformed == "item count":
        embedded = embedded[:1]
    elif malformed == "short item":
        embedded[-1] = embedded[-1][:3]
    ok = all(item[2:3] == bytes((cip.STATUS_OK,)) for item in embedded)
    general = cip.STATUS_OK if ok else cip.STATUS_EMBEDDED_SERVICE_ERROR
    body = offset_table(embedded)
    if malformed == "offset table":
        body = body[:3]
    elif malformed == "outer status":  # the same items under an error status
        general = cip.STATUS_SERVICE_NOT_SUPPORTED
    return bytes((cip.MULTI_REQUEST | cip.REPLY_FLAG, 0, general, 0)) + body


def transfer_reads(side):
    """One read per layout of a two-layout side, in layout order."""
    reals = len(LAYOUTS["reals"])
    return [fresh_read(side.subs[:reals]), fresh_read(side.subs[reals:])]


GOOD = (0, cip.STATUS_OK, cip.READ_REPLY)
WHOLE = (None, [struct.pack("<f", x) for x in range(WORDS)], b"")


@PROPERTIES
@given(transfer_cases)
# a reply short of the bits' output, repeated: the output fails every cycle,
# even after its write landed
@example(("plain reals", [WHOLE, (None, [b"\x01\x00\x00\x00"], b"")], [
    (GOOD, (1, cip.STATUS_OK, cip.READ_REPLY), None), None, "landed", None,
]))
def test_a_remembering_transfer_stores_what_a_splitting_one_stores(case):
    reals, payloads, changes = case
    kept, fresh = Side(reals, "bits"), Side(reals, "bits")
    reads = transfer_reads(kept)
    slot = TransferReply()  # the remembering transfer's, kept across replies
    spec = (GOOD, GOOD, None)
    for step, change in enumerate(changes):
        now = 1000.0 + step
        if change == "landed":  # each output holds its value, OK, as a flush settles it
            for side in (kept, fresh):
                for sub in side.subs:
                    if sub.direction is Direction.OUTPUT:
                        sub.cell = (sub.value, now, Quality.OK)
            continue
        if change is not None and len(change) == 2:  # one embedded reply changed
            items = list(spec[:2])
            items[change[0]] = change[1]
            spec = (*items, None)
        elif change is not None:
            spec = change
        fresh_reads = transfer_reads(fresh)
        assert kept.transfer(reads, multi_reply(reads, payloads, spec), now, slot) \
            == fresh.transfer(
                fresh_reads, multi_reply(fresh_reads, payloads, spec), now, TransferReply()
            )
        assert kept.state() == fresh.state()
        if slot.record:  # only a drift callback keeps a record away
            assert reals == "plain reals"


def test_a_transfer_whose_reply_repeats_is_stored_flat(monkeypatch):
    kept, fresh = Side("plain reals", "bits"), Side("plain reals", "bits")
    reads = transfer_reads(kept)
    slot = TransferReply()
    payloads = [WHOLE]
    calls = counted_on(
        threading.current_thread(), monkeypatch, (encap, "parse_rr_data"), "decode_response",
        "split_multi_response", (Read, "absorb"),
    )
    for step in range(4):
        fresh_reads = transfer_reads(fresh)
        kept.transfer(reads, multi_reply(reads, payloads, (GOOD, GOOD, None)), 10.0 + step, slot)
        fresh.transfer(
            fresh_reads, multi_reply(fresh_reads, payloads, (GOOD, GOOD, None)), 10.0 + step,
            TransferReply(),
        )
        assert kept.state() == fresh.state()
        # the fresh side decodes, splits and absorbs all it gets; the kept
        # side: a new reply, decoded and split; the same again, its kept
        # split absorbed read by read to build its record; then only its
        # record
        fresh_calls = ["parse_rr_data", "decode_response", "split_multi_response"] \
            + ["decode_response"] * 2 + ["absorb"] * 2
        kept_calls = [
            fresh_calls, ["absorb"] * 2, [], [],
        ][step]
        assert calls == kept_calls + fresh_calls
        calls.clear()
        assert bool(slot.record) == (step >= 1)
    assert all(sub.quality is Quality.OK and sub.timestamp == 13.0 for sub in kept.subs)

