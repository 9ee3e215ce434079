"""Scan planning, batching, coalescing, writes, stats, config parsing."""

import math
import os
import socket
import struct
import sys
import threading
import time

import pytest

from logixscan import cip
from logixscan.cip import CipType, CipValue
from logixscan.client import Phase, PlcEndpoint
from logixscan.config import ConfigError, apply_scan_config, parse_scan_config
from logixscan.plcsim import FaultPlan, PlcSim, TagStore
from logixscan.scanner import Direction, Quality, TagScanner
from logixscan.tags import bool_remap, parse_tag, to_epath

from conftest import make_store


_SCANNERS: list[TagScanner] = []


@pytest.fixture(autouse=True)
def stop_scanners():
    """Stop every scanner a test made, so none leaves its socket open."""
    yield
    while _SCANNERS:
        _SCANNERS.pop().stop()


def new_scanner(**kwargs) -> TagScanner:
    """A TagScanner that is stopped when the test ends."""
    sc = TagScanner(**kwargs)
    _SCANNERS.append(sc)
    return sc


def scanner_for(sim, name="plc", batching=True, **endpoint_kwargs):
    kwargs = dict(port=sim.port, request_timeout=2.0, reconnect_period=0.2)
    kwargs.update(endpoint_kwargs)
    sc = new_scanner(batching=batching)
    sc.add_plc(name, PlcEndpoint("127.0.0.1", **kwargs))
    return sc


def wide_store():
    store = make_store()
    store.define("wide", CipType.REAL, [float(i) for i in range(200)])
    bits = [False] * 352
    bits[5] = bits[160] = bits[191] = True
    store.define("bits", CipType.BOOL, bits)
    return store


def planned(sc, period_s, plc="plc"):
    """The plan of one list, planning it first if needed."""
    sc.plan_info(plc, period_s)
    return sc._units[plc].lists[period_s].plan


def read_of(tag, count, bool_array=False):
    """A read request built from tag text, independently of the scanner."""
    ref = parse_tag(tag, bool_array=bool_array)
    if bool_array:
        ref = bool_remap(ref)[0]
    return cip.build_read_request(to_epath(ref), count)


def wire_bytes(requests):
    """Encoded transfer: the single read, or a Multi-Request of several."""
    encoded = [cip.encode_request(r) for r in requests]
    if len(encoded) == 1:
        return encoded[0]
    return cip.encode_request(cip.build_multi_request_encoded(encoded))


def sent(plan):
    """What each transfer of a plan sends, encoded."""
    return [message for _ops, message in plan.transfers]


# ---------------------------------------------------------------------------
# planning and reading

def test_coalesced_span_is_one_read(sim):
    sc = scanner_for(sim)
    subs = [
        sc.add_tag("plc", f"counts[{i}]", 1.0, elem_type=CipType.DINT)
        for i in range(5)
    ]
    assert sc.plan_info("plc", 1.0) == [1]
    before = sim.store.round_trips
    sc.scan_once("plc")
    assert sim.store.round_trips == before + 1
    assert [sc.value_of(s) for s in subs] == [10, 20, 30, 40, 50]
    assert all(s.quality is Quality.OK for s in subs)


def test_sparse_span_reads_first_to_highest(sim):
    sc = scanner_for(sim)
    first = sc.add_tag("plc", "counts[1]", 1.0, elem_type=CipType.DINT)
    last = sc.add_tag("plc", "counts[4]", 1.0, elem_type=CipType.DINT)
    assert sc.plan_info("plc", 1.0) == [1]
    sc.scan_once("plc")
    assert sc.value_of(first) == 20
    assert sc.value_of(last) == 50


def test_bool_array_bits_ride_dint_words():
    with PlcSim(wide_store()) as sim:
        sc = scanner_for(sim)
        subs = {
            i: sc.add_tag("plc", f"bits[{i}]", 1.0, bool_array=True)
            for i in (0, 5, 160, 191, 351)
        }
        assert sc.plan_info("plc", 1.0) == [1]
        before = sim.store.round_trips
        sc.scan_once("plc")
        assert sim.store.round_trips == before + 1
        assert sc.value_of(subs[5]) is True
        assert sc.value_of(subs[160]) is True
        assert sc.value_of(subs[191]) is True
        assert sc.value_of(subs[0]) is False
        assert sc.value_of(subs[351]) is False


def test_full_bool_array_is_one_round_trip():
    with PlcSim(wide_store()) as sim:
        sc = scanner_for(sim)
        subs = [
            sc.add_tag("plc", f"bits[{i}]", 1.0, bool_array=True)
            for i in range(352)
        ]
        assert sc.plan_info("plc", 1.0) == [1]
        before = sim.store.round_trips
        sc.scan_once("plc")
        assert sim.store.round_trips == before + 1
        on = {i for i, s in enumerate(subs) if sc.value_of(s)}
        assert on == {5, 160, 191}


def test_three_real40_blocks_need_two_transfers():
    store = make_store()
    for name in ("ai", "bi", "ci"):
        store.define(name, CipType.REAL, [0.5] * 40)
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        for name in ("ai", "bi", "ci"):
            for i in range(40):
                sc.add_tag("plc", f"{name}[{i}]", 1.0, elem_type=CipType.REAL)
        # each block's reply is ~166 bytes; two fit under 500, the third can't
        assert sc.plan_info("plc", 1.0) == [2, 1]
        before = sim.store.round_trips
        sc.scan_once("plc")
        assert sim.store.round_trips == before + 2


def test_no_coalesce_reads_each_element(sim):
    sc = scanner_for(sim)
    subs = [
        sc.add_tag("plc", f"counts[{i}]", 1.0, elem_type=CipType.DINT, coalesce=False)
        for i in range(5)
    ]
    assert sc.plan_info("plc", 1.0) == [5]  # five reads, one multi
    before = sim.store.round_trips
    sc.scan_once("plc")
    assert sim.store.round_trips == before + 1
    assert [sc.value_of(s) for s in subs] == [10, 20, 30, 40, 50]
    assert sim.store.service_counts[cip.READ_DATA] >= 5


def test_batching_disabled_one_read_per_round_trip(sim):
    sc = new_scanner(batching=False)
    sc.add_plc("plc", PlcEndpoint("127.0.0.1", port=sim.port, request_timeout=2.0))
    for i in range(5):
        sc.add_tag("plc", f"counts[{i}]", 1.0, elem_type=CipType.DINT, coalesce=False)
    assert sc.plan_info("plc", 1.0) == [1, 1, 1, 1, 1]
    before = sim.store.round_trips
    sc.scan_once("plc")
    assert sim.store.round_trips == before + 5


def test_unknown_types_go_solo_then_coalesce_after_discovery(sim):
    sc = scanner_for(sim)
    a = sc.add_tag("plc", "counts[0]", 1.0)
    b = sc.add_tag("plc", "counts[1]", 1.0)
    assert sc.plan_info("plc", 1.0) == [2]  # two solo reads in one multi
    sc.scan_once("plc")
    assert a.elem_type is CipType.DINT and b.elem_type is CipType.DINT
    # discovery invalidated the plan and its cached request
    assert sc._units["plc"].lists[1.0].plan is None
    # the new one coalesces into one read of both elements
    assert sc.plan_info("plc", 1.0) == [1]
    plan = planned(sc, 1.0)
    assert sent(plan) == [wire_bytes([read_of("counts[0]", 2)])]
    assert sc.value_of(a) == 10 and sc.value_of(b) == 20


def test_oversized_span_falls_back_to_element_reads():
    with PlcSim(wide_store()) as sim:
        sc = scanner_for(sim)
        lo = sc.add_tag("plc", "wide[0]", 1.0, elem_type=CipType.REAL)
        hi = sc.add_tag("plc", "wide[199]", 1.0, elem_type=CipType.REAL)
        # a 200-element REAL span estimates past the 500-byte limit
        assert sc.plan_info("plc", 1.0) == [2]
        sc.scan_once("plc")
        assert sc.value_of(lo) == 0.0
        assert sc.value_of(hi) == 199.0


def test_unplannable_tag_is_error(sim):
    sc = scanner_for(sim, buffer_limit=64)
    long_chain = ".".join(["x" * 40, "y" * 40])
    sub = sc.add_tag("plc", long_chain, 1.0, elem_type=CipType.DINT)
    sc.scan_once("plc")
    _value, _ts, quality = sc.snapshot(sub)
    assert quality is Quality.ERROR


def test_replace_tag_rescans(sim):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.DINT)
    sc.scan_once("plc")
    assert sc.value_of(sub) == 10
    sc.replace_tag(sub, "counts[4]")
    assert sub.quality is Quality.STALE
    sc.scan_once("plc")
    assert sc.value_of(sub) == 50


def test_replace_tag_rederives_address_and_request():
    with PlcSim(wide_store()) as sim:
        sc = scanner_for(sim)
        sub = sc.add_tag("plc", "bits[5]", 1.0, bool_array=True)
        assert (sub.group, sub.element, sub.bit) == ("bits", 0, 5)
        (before,) = sent(planned(sc, 1.0))
        assert before == wire_bytes([read_of("bits[5]", 1, bool_array=True)])
        sc.scan_once("plc")
        assert sc.value_of(sub) is True
        sc.replace_tag(sub, "bits[160]")
        assert (sub.group, sub.element, sub.bit) == ("bits", 5, 0)
        (after,) = sent(planned(sc, 1.0))
        assert after == wire_bytes([read_of("bits[160]", 1, bool_array=True)])
        assert after != before
        sc.scan_once("plc")
        assert sc.value_of(sub) is True
        sc.replace_tag(sub, "bits[161]")
        sc.scan_once("plc")
        assert sc.value_of(sub) is False
        sc.stop()


def test_wire_address_matches_bool_remap():
    sc = new_scanner()
    sc.add_plc("plc", PlcEndpoint("127.0.0.1"))
    for text in ("bits[0]", "bits[31]", "bits[32]", "a[2].flags[4099]"):
        sub = sc.add_tag("plc", text, 1.0, bool_array=True)
        word_ref, bit = bool_remap(sub.ref)
        assert (sub.element, sub.bit) == (word_ref.final_element, bit)
        assert sub.wire_path(sub.element) == to_epath(word_ref)
    for text, element in (("counts[3]", 3), ("motor.speed", None), ("a[1].b[7]", 7)):
        sub = sc.add_tag("plc", text, 1.0, elem_type=CipType.DINT)
        assert (sub.element, sub.bit) == (element, None)
        assert sub.group == str(sub.ref.base())
        assert sub.wire_path(sub.element) == to_epath(sub.ref)


def c06_reads():
    """C06's planned transfers per period, as independently built reads."""
    return {
        0.1: [[read_of("binp[0]", 11)]],
        0.5: [[read_of("ra[0]", 40), read_of("rb[0]", 40)], [read_of("rc[0]", 40)]],
    }


MIXED_NAMES = [f"Tag_{i:02d}_23456789" for i in range(15)]


def mixed_reads():
    """The [4, 13] mixed list's planned transfers, as independently built reads."""
    scalars = [read_of(name, 1) for name in MIXED_NAMES]
    return [
        [read_of("rspan[0]", 100), read_of("bits[0]", 11)] + scalars[:2],
        scalars[2:],
    ]


def test_cached_requests_match_fresh_encoding_c06():
    sc = new_scanner()
    sc.add_plc("plc", PlcEndpoint("127.0.0.1"))
    for i in range(352):
        sc.add_tag("plc", f"binp[{i}]", 0.1, bool_array=True)
    for name in ("ra", "rb", "rc"):
        for i in range(40):
            sc.add_tag("plc", f"{name}[{i}]", 0.5, elem_type=CipType.REAL)
    for period_s, transfers in c06_reads().items():
        plan = planned(sc, period_s)
        assert [len(ops) for ops, _request in plan.transfers] == [len(t) for t in transfers]
        assert sent(plan) == [wire_bytes(t) for t in transfers]


def test_cached_requests_match_fresh_encoding_mixed_list():
    sc = new_scanner()
    sc.add_plc("plc", PlcEndpoint("127.0.0.1"))
    for name in MIXED_NAMES:
        sc.add_tag("plc", name, 1.0, elem_type=CipType.DINT)
    for i in range(100):
        sc.add_tag("plc", f"rspan[{i}]", 1.0, elem_type=CipType.REAL)
    for i in range(352):
        sc.add_tag("plc", f"bits[{i}]", 1.0, bool_array=True)
    assert sc.plan_info("plc", 1.0) == [4, 13]
    plan = planned(sc, 1.0)
    assert sent(plan) == [wire_bytes(t) for t in mixed_reads()]


def test_a_planned_scan_cycle_encodes_nothing(monkeypatch):
    store = make_store()
    for name in MIXED_NAMES:
        store.define(name, CipType.DINT, [7])
    store.define("rspan", CipType.REAL, [0.5] * 100)
    store.define("bits", CipType.BOOL, [True] * 352)
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        subs = [sc.add_tag("plc", name, 1.0, elem_type=CipType.DINT) for name in MIXED_NAMES]
        subs += [
            sc.add_tag("plc", f"rspan[{i}]", 1.0, elem_type=CipType.REAL) for i in range(100)
        ]
        subs += [sc.add_tag("plc", f"bits[{i}]", 1.0, bool_array=True) for i in range(352)]
        assert sc.plan_info("plc", 1.0) == [4, 13]
        encoded = []
        encode_request = cip.encode_request
        monkeypatch.setattr(
            cip, "encode_request", lambda req: encoded.append(req) or encode_request(req)
        )
        sc.scan_once("plc", 1.0)
        assert encoded == []
        assert all(sub.quality is Quality.OK for sub in subs)


def offset_table(items):
    """Item count, offsets and items, packed independently of cip."""
    offsets, pos = [], 2 + 2 * len(items)
    for item in items:
        offsets.append(pos)
        pos += len(item)
    return struct.pack(f"<{1 + len(items)}H", len(items), *offsets) + b"".join(items)


def test_multi_builders_lay_out_c06_and_mixed_list_byte_for_byte():
    router = bytes((cip.MULTI_REQUEST, 2, 0x20, 0x02, 0x24, 0x01))
    transfers = [t for ts in c06_reads().values() for t in ts] + mixed_reads()
    for requests in transfers:
        encoded = [cip.encode_request(r) for r in requests]
        multi = cip.build_multi_request_encoded(encoded)
        assert cip.encode_request(multi) == router + offset_table(encoded)
        replies = [
            cip.CipResponse(
                cip.READ_DATA | cip.REPLY_FLAG, 0, (),
                struct.pack("<H", CipType.DINT) + bytes(4 * struct.unpack("<H", r.payload)[0]),
            )
            for r in requests
        ]
        replies[-1] = cip.CipResponse(cip.READ_DATA | cip.REPLY_FLAG, cip.STATUS_PATH_UNKNOWN)
        header = bytes((cip.MULTI_REQUEST | cip.REPLY_FLAG, 0, cip.STATUS_EMBEDDED_SERVICE_ERROR, 0))
        assert cip.encode_response(cip.build_multi_response(replies)) == header + offset_table(
            [cip.encode_response(r) for r in replies]
        )


def test_bit_31_of_negative_word_reads_true():
    store = make_store()
    bits = [False] * 64
    bits[31] = bits[63] = bits[32] = True
    store.define("bits", CipType.BOOL, bits)
    with PlcSim(store) as sim:
        assert all(word < 0 for word in sim.store.get_tag("bits").elements)
        sc = scanner_for(sim)
        subs = {
            i: sc.add_tag("plc", f"bits[{i}]", 1.0, bool_array=True)
            for i in (0, 30, 31, 32, 62, 63)
        }
        sc.scan_once("plc")
        values = {i: sc.value_of(s) for i, s in subs.items()}
        assert values == {0: False, 30: False, 31: True, 32: True, 62: False, 63: True}
        assert all(s.value.type is CipType.BOOL for s in subs.values())
        sc.stop()


def test_real_negative_zero_and_nan_pass_through():
    store = make_store()
    store.define("reals", CipType.REAL, [-0.0, math.nan, 1.5])
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        zero, nan, plain = (
            sc.add_tag("plc", f"reals[{i}]", 1.0, elem_type=CipType.REAL)
            for i in range(3)
        )
        sc.scan_once("plc")
        assert sc.value_of(zero) == 0.0 and math.copysign(1.0, sc.value_of(zero)) == -1.0
        assert math.isnan(sc.value_of(nan))
        assert sc.value_of(plain) == 1.5
        assert all(s.quality is Quality.OK for s in (zero, nan, plain))
        sc.stop()


def test_short_reply_marks_only_the_missing_cell_error(sim):
    sc = scanner_for(sim)
    near = sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.DINT)
    far = sc.add_tag("plc", "counts[4]", 1.0, elem_type=CipType.DINT)
    (op,), _request = planned(sc, 1.0).transfers[0]
    assert [offset for _s, offset, _b in op.targets] == [0, 4]
    # a reply carrying three of the five requested elements
    payload = struct.pack("<H", CipType.DINT) + cip.pack_elements(CipType.DINT, [7, 8, 9])
    short = cip.CipResponse(cip.READ_DATA | cip.REPLY_FLAG, cip.STATUS_OK, (), payload)
    unit = sc._units["plc"]
    now = time.time()
    assert sc._absorb_read(unit, unit.lists[1.0], op, short, now)
    assert (near.value.elements, near.timestamp, near.quality) == ((7,), now, Quality.OK)
    assert far.quality is Quality.ERROR and far.value is None


def test_plan_routes_targets_by_kind_and_records_output_spans():
    with PlcSim(wide_store()) as sim:
        sc = scanner_for(sim)
        typed_in = sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.DINT)
        out_lo = sc.add_tag("plc", "counts[2]", 1.0, direction="out", elem_type=CipType.DINT)
        out_hi = sc.add_tag("plc", "counts[3]", 1.0, direction="out", elem_type=CipType.DINT)
        far_in = sc.add_tag("plc", "counts[4]", 1.0, elem_type=CipType.DINT)
        bit_in = sc.add_tag("plc", "bits[40]", 1.0, bool_array=True)
        unknown = sc.add_tag("plc", "TEST", 1.0)
        plan = planned(sc, 1.0)
        ops = {op.targets[0][0]: op for transfer, _request in plan.transfers for op in transfer}
        counts, bits, solo = ops[typed_in], ops[bit_in], ops[unknown]
        assert counts.typed_inputs == [(typed_in, 0), (far_in, 4)]
        assert counts.other_targets == [(out_lo, 2, None), (out_hi, 3, None)]
        assert counts.bit_inputs == [] and counts.cache_key is not None
        # input-only reads leave the span cache alone: it serves writes only
        assert bits.bit_inputs == [(bit_in, 0, 8)] and bits.cache_key is None
        assert solo.other_targets == [(unknown, 0, None)] and solo.cache_key is None
        # the write span covers the outputs only, not the inputs around them
        assert plan.write_spans == {("counts", CipType.DINT): (2, 3)}
        sc.scan_once("plc")
        assert sc.value_of(bit_in) is False and sc.value_of(typed_in) == 10
        assert sc._units["plc"].span_cache.keys() == {("counts", CipType.DINT)}
        sc.stop()


def test_session_drop_mid_cycle_marks_unsent_transfers_error(sim):
    sc = new_scanner(batching=False)
    sc.add_plc("plc", PlcEndpoint(
        "127.0.0.1", port=sim.port, request_timeout=2.0, reconnect_period=0.2
    ))
    subs = [
        sc.add_tag("plc", f"counts[{i}]", 1.0, elem_type=CipType.DINT, coalesce=False)
        for i in range(3)
    ]
    assert sc.plan_info("plc", 1.0) == [1, 1, 1]
    sc.scan_once("plc")  # data requests 1-3 on this session
    assert all(s.quality is Quality.OK for s in subs)
    first_stamps = [s.timestamp for s in subs]
    # next cycle: the first transfer lands, the session drops on the second
    sim.faults.drop_after = 5
    started = time.time()
    sc.scan_once("plc")
    assert sc.connection_phase("plc") is Phase.DISCONNECTED
    assert subs[0].quality is Quality.OK and subs[0].timestamp >= started
    assert subs[1].quality is Quality.ERROR
    # never sent this cycle: its value was not refreshed, so it is not OK
    assert subs[2].quality is Quality.ERROR
    assert subs[2].timestamp == first_stamps[2]
    assert sc.stats("plc", 1.0).errors == 1
    sc.stop()


def test_declared_type_mismatch_is_error(sim):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.REAL)
    sc.scan_once("plc")
    assert sub.quality is Quality.ERROR
    assert sc.stats("plc", 1.0).errors == 1


def test_missing_tag_counts_error_not_cycle(sim):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "missing", 1.0)
    sc.scan_once("plc")
    stats = sc.stats("plc", 1.0)
    assert stats.errors == 1
    assert stats.count == 0  # no successful transfer, cycle doesn't count
    assert sub.quality is Quality.ERROR


def test_unreachable_plc_marks_all_error():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    sc = new_scanner()
    sc.add_plc("plc", PlcEndpoint(
        "127.0.0.1", port=port, request_timeout=0.2, reconnect_period=0.1
    ))
    sub = sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.DINT)
    sc.scan_once("plc")
    assert sub.quality is Quality.ERROR
    assert sc.stats("plc", 1.0).errors == 1
    assert sc.connection_phase("plc") is Phase.DISCONNECTED


def test_scan_uses_connected_messaging_when_asked(sim):
    sc = new_scanner()
    sc.add_plc(
        "plc",
        PlcEndpoint("127.0.0.1", port=sim.port, request_timeout=2.0),
        connected=True,
    )
    sub = sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.DINT)
    sc.scan_once("plc")
    assert sc.value_of(sub) == 10
    assert sc.connection_phase("plc") is Phase.CONNECTED


# ---------------------------------------------------------------------------
# writes

def test_single_element_write(sim):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "counts[0]", 1.0, direction="out", elem_type=CipType.DINT)
    writes_before = sim.store.service_counts[cip.WRITE_DATA]
    sc.write(sub, 99)
    assert sim.store.get_tag("counts").elements == (99, 20, 30, 40, 50)
    assert sim.store.service_counts[cip.WRITE_DATA] == writes_before + 1
    assert not sub.dirty
    assert sub.quality is Quality.OK
    assert sc.value_of(sub) == 99


def test_write_discovers_undeclared_type(sim):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "TEST", 1.0, direction="out")
    sc.write(sub, 1.5)
    assert sim.store.get_tag("TEST").scalar == 1.5
    assert sub.elem_type is CipType.REAL


def test_two_dirty_elements_write_whole_span(sim):
    sc = scanner_for(sim)
    lo = sc.add_tag("plc", "counts[0]", 1.0, direction="out", elem_type=CipType.DINT)
    hi = sc.add_tag("plc", "counts[4]", 1.0, direction="out", elem_type=CipType.DINT)
    reads_before = sim.store.service_counts[cip.READ_DATA]
    writes_before = sim.store.service_counts[cip.WRITE_DATA]
    sc.write(lo, 111, immediate=False)
    sc.write(hi, 222, immediate=False)
    assert sim.store.get_tag("counts").elements == (10, 20, 30, 40, 50)  # staged only
    sc.flush("plc")
    # cache was cold: one span read to fill the gaps, then one span write
    assert sim.store.service_counts[cip.READ_DATA] == reads_before + 1
    assert sim.store.service_counts[cip.WRITE_DATA] == writes_before + 1
    assert sim.store.get_tag("counts").elements == (111, 20, 30, 40, 222)


def test_span_write_uses_scan_cache(sim):
    sc = scanner_for(sim)
    lo = sc.add_tag("plc", "counts[0]", 1.0, direction="out", elem_type=CipType.DINT)
    hi = sc.add_tag("plc", "counts[4]", 1.0, direction="out", elem_type=CipType.DINT)
    sc.scan_once("plc")  # fills the span cache with elements 0..4
    reads_before = sim.store.service_counts[cip.READ_DATA]
    sc.write(lo, 7, immediate=False)
    sc.write(hi, 8, immediate=False)
    sc.flush("plc")
    assert sim.store.service_counts[cip.READ_DATA] == reads_before  # no extra read
    assert sim.store.get_tag("counts").elements == (7, 20, 30, 40, 8)


def test_oversize_span_write_falls_back_to_element_writes():
    store = make_store()
    store.define("big", CipType.DINT, list(range(126)))
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        lo = sc.add_tag("plc", "big[0]", 1.0, direction="out", elem_type=CipType.DINT)
        hi = sc.add_tag("plc", "big[125]", 1.0, direction="out", elem_type=CipType.DINT)
        reads_before = sim.store.service_counts[cip.READ_DATA]
        writes_before = sim.store.service_counts[cip.WRITE_DATA]
        sc.write(lo, -1, immediate=False)
        sc.write(hi, -2, immediate=False)
        sc.flush("plc")
        # a 126-DINT span write exceeds the 500-byte limit: no gap read,
        # one write per dirty element
        assert sim.store.service_counts[cip.READ_DATA] == reads_before
        assert sim.store.service_counts[cip.WRITE_DATA] == writes_before + 2
        assert sim.store.get_tag("big").elements == (-1,) + tuple(range(1, 125)) + (-2,)
        for sub, value in ((lo, -1), (hi, -2)):
            assert not sub.dirty and sub.quality is Quality.OK
            assert sc.value_of(sub) == value
        assert sc.stats("plc", 1.0).errors == 0
        sc.stop()


def test_element_write_fallback_settles_only_what_landed():
    store = make_store()
    store.define("big", CipType.DINT, list(range(126)))
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        lo = sc.add_tag("plc", "big[0]", 1.0, direction="out", elem_type=CipType.DINT)
        # past the end of the array: the PLC rejects this element's write
        off = sc.add_tag("plc", "big[200]", 1.0, direction="out", elem_type=CipType.DINT)
        sc.write(lo, 42, immediate=False)
        sc.write(off, 43, immediate=False)
        sc.flush("plc")
        assert sim.store.get_tag("big").elements[0] == 42
        assert not lo.dirty and lo.quality is Quality.OK and sc.value_of(lo) == 42
        assert off.dirty and off.quality is Quality.ERROR and off.value is None
        assert sc.stats("plc", 1.0).errors == 1
        sc.stop()


def test_no_coalesce_writes_each_element(sim):
    sc = scanner_for(sim)
    lo = sc.add_tag(
        "plc", "counts[0]", 1.0, direction="out",
        elem_type=CipType.DINT, coalesce=False,
    )
    hi = sc.add_tag(
        "plc", "counts[4]", 1.0, direction="out",
        elem_type=CipType.DINT, coalesce=False,
    )
    writes_before = sim.store.service_counts[cip.WRITE_DATA]
    sc.write(lo, 1, immediate=False)
    sc.write(hi, 2, immediate=False)
    sc.flush("plc")
    assert sim.store.service_counts[cip.WRITE_DATA] == writes_before + 2
    assert sim.store.get_tag("counts").elements == (1, 20, 30, 40, 2)


def test_bool_write_is_read_modify_write():
    store = make_store()
    bits = [False] * 65
    bits[0] = bits[33] = True
    store.define("bits", CipType.BOOL, bits)
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        b3 = sc.add_tag("plc", "bits[3]", 1.0, direction="out", bool_array=True)
        b40 = sc.add_tag("plc", "bits[40]", 1.0, direction="out", bool_array=True)
        sc.write(b3, True, immediate=False)
        sc.write(b40, True, immediate=False)
        sc.flush("plc")
        words = sim.store.get_tag("bits").elements
        assert words[0] == (1 << 0) | (1 << 3)  # preexisting bit 0 kept
        assert words[1] == (1 << 1) | (1 << 8)  # preexisting bit 33 kept
        # clearing one bit leaves its neighbors alone
        sc.write(b3, False)
        assert sim.store.get_tag("bits").elements[0] == 1 << 0


def bits_store():
    store = make_store()
    store.define("big", CipType.DINT, list(range(126)))
    bits = [False] * 64
    bits[0] = True
    store.define("bits", CipType.BOOL, bits)
    return store


def test_flush_packs_span_bool_word_and_single_into_one_round_trip():
    with PlcSim(bits_store()) as sim:
        sc = scanner_for(sim)
        lo = sc.add_tag("plc", "counts[0]", 1.0, direction="out", elem_type=CipType.DINT)
        hi = sc.add_tag("plc", "counts[4]", 1.0, direction="out", elem_type=CipType.DINT)
        bit = sc.add_tag("plc", "bits[3]", 1.0, direction="out", bool_array=True)
        real = sc.add_tag(
            "plc", "TEST", 1.0, direction="out", elem_type=CipType.REAL, coalesce=False
        )
        sc.scan_once("plc")  # warm span cache: the flush needs no reads
        before = sim.store.round_trips
        writes_before = sim.store.service_counts[cip.WRITE_DATA]
        for sub, value in ((lo, 11), (hi, 55), (bit, True), (real, 2.5)):
            sc.write(sub, value, immediate=False)
        sc.flush("plc")
        assert sim.store.round_trips == before + 1
        assert sim.store.service_counts[cip.WRITE_DATA] == writes_before + 3
        assert sim.store.get_tag("counts").elements == (11, 20, 30, 40, 55)
        assert sim.store.get_tag("bits").elements[0] == (1 << 0) | (1 << 3)
        assert sim.store.get_tag("TEST").scalar == 2.5
        for sub, value in ((lo, 11), (hi, 55), (bit, True), (real, 2.5)):
            assert not sub.dirty and sub.quality is Quality.OK
            assert sc.value_of(sub) == value


def test_packed_flush_settles_each_write_on_its_own():
    with PlcSim(bits_store()) as sim:
        sc = scanner_for(sim)
        one = sc.add_tag("plc", "counts[1]", 1.0, direction="out", elem_type=CipType.DINT)
        real = sc.add_tag(
            "plc", "TEST", 1.0, direction="out", elem_type=CipType.REAL, coalesce=False
        )
        # past the end of the array: the PLC refuses this embedded write
        off = sc.add_tag(
            "plc", "big[200]", 1.0, direction="out",
            elem_type=CipType.DINT, coalesce=False,
        )
        before = sim.store.round_trips
        for sub, value in ((one, 21), (off, 7), (real, -1.5)):
            sc.write(sub, value, immediate=False)
        sc.flush("plc")
        assert sim.store.round_trips == before + 1
        assert sim.store.get_tag("counts").elements[1] == 21
        assert sim.store.get_tag("TEST").scalar == -1.5
        for sub, value in ((one, 21), (real, -1.5)):
            assert not sub.dirty and sub.quality is Quality.OK
            assert sc.value_of(sub) == value
        assert off.dirty and off.quality is Quality.ERROR and off.value is None
        assert sc.stats("plc", 1.0).errors == 1


def test_writes_over_the_limit_split_into_transfers():
    store = wide_store()
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        subs = [
            sc.add_tag(
                "plc", f"wide[{i}]", 1.0, direction="out",
                elem_type=CipType.REAL, coalesce=False,
            )
            for i in range(0, 120, 3)
        ]
        client = sc._units["plc"].client
        sent = []
        round_trip = client.round_trip
        client.round_trip = lambda message: sent.append(message) or round_trip(message)
        for sub in subs:
            sc.write(sub, float(sub.element) + 0.5, immediate=False)
        sc.flush("plc")
        assert len(sent) >= 2
        for message in sent:
            assert cip.wrapped_request_size(len(message)) <= 500
        requests = [cip.decode_request(message) for message in sent]
        assert sum(
            len(cip.split_multi_request(req)) if req.service == cip.MULTI_REQUEST else 1
            for req in requests
        ) == len(subs)
        elements = sim.store.get_tag("wide").elements
        for sub in subs:
            assert elements[sub.element] == sub.element + 0.5
            assert not sub.dirty and sub.quality is Quality.OK


def test_batching_disabled_one_write_per_round_trip(sim):
    sc = scanner_for(sim, batching=False)
    subs = [
        sc.add_tag(
            "plc", f"counts[{i}]", 1.0, direction="out",
            elem_type=CipType.DINT, coalesce=False,
        )
        for i in range(3)
    ]
    before = sim.store.round_trips
    for i, sub in enumerate(subs):
        sc.write(sub, -i, immediate=False)
    sc.flush("plc")
    assert sim.store.round_trips == before + 3
    assert sim.store.get_tag("counts").elements == (0, -1, -2, 40, 50)


def test_session_drop_mid_flush_fails_unsent_writes_until_reconnect(sim):
    sc = scanner_for(sim, batching=False)
    subs = [
        sc.add_tag(
            "plc", f"counts[{i}]", 1.0, direction="out",
            elem_type=CipType.DINT, coalesce=False,
        )
        for i in range(3)
    ]
    # the first write lands, the session drops on the second
    sim.faults.drop_after = 2
    for i, sub in enumerate(subs):
        sc.write(sub, 100 + i, immediate=False)
    sc.flush("plc")
    assert sc.connection_phase("plc") is Phase.DISCONNECTED
    assert not subs[0].dirty and subs[0].quality is Quality.OK
    for sub in subs[1:]:
        assert sub.dirty and sub.quality is Quality.ERROR
    assert sim.store.get_tag("counts").elements == (100, 20, 30, 40, 50)
    assert sc.stats("plc", 1.0).errors == 1
    sim.faults.drop_after = None
    time.sleep(0.3)  # past reconnect_period
    sc.flush("plc")
    assert sim.store.get_tag("counts").elements == (100, 101, 102, 40, 50)
    for sub in subs:
        assert not sub.dirty and sub.quality is Quality.OK


def test_read_modify_writes_of_one_word_in_one_flush_keep_each_bit():
    with PlcSim(bits_store()) as sim:
        sc = scanner_for(sim)
        grouped = sc.add_tag("plc", "bits[3]", 1.0, direction="out", bool_array=True)
        solo = [
            sc.add_tag(
                "plc", f"bits[{i}]", 1.0, direction="out",
                bool_array=True, coalesce=False,
            )
            for i in (5, 7)
        ]
        for sub in [grouped] + solo:
            sc.write(sub, True, immediate=False)
        sc.flush("plc")
        assert sim.store.get_tag("bits").elements[0] == 0b10101001
        assert all(not s.dirty and s.quality is Quality.OK for s in [grouped] + solo)


def test_read_modify_writes_from_two_scan_lists_keep_each_bit():
    # one span cache per (group, wire type) on a PLC: the second list's
    # read-modify-write builds on the word the first list just wrote
    with PlcSim(bits_store()) as sim:
        sc = scanner_for(sim)
        fast = sc.add_tag("plc", "bits[3]", 1.0, direction="out", bool_array=True)
        slow = sc.add_tag("plc", "bits[5]", 2.0, direction="out", bool_array=True)
        sc.scan_once("plc")
        sc.write(fast, True, immediate=False)
        sc.write(slow, True, immediate=False)
        sc.flush("plc")
        assert sim.store.get_tag("bits").elements[0] == 0b101001
        assert fast.quality is Quality.OK and slow.quality is Quality.OK
        assert sc.value_of(fast) is True and sc.value_of(slow) is True


def test_no_coalesce_write_updates_its_groups_span_cache():
    store = make_store()
    store.define("counts", CipType.DINT, [1, 2, 3, 4, 5])
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        lo = sc.add_tag("plc", "counts[0]", 1.0, direction="out", elem_type=CipType.DINT)
        hi = sc.add_tag("plc", "counts[4]", 1.0, direction="out", elem_type=CipType.DINT)
        mid = sc.add_tag(
            "plc", "counts[2]", 1.0, direction="out",
            elem_type=CipType.DINT, coalesce=False,
        )
        sc.scan_once("plc")
        sc.write(mid, 333)
        sc.write(lo, 10, immediate=False)
        sc.write(hi, 50, immediate=False)
        sc.flush("plc")
        assert sim.store.get_tag("counts").elements == (10, 2, 333, 4, 50)
        assert sc.value_of(mid) == 333 and mid.quality is Quality.OK


def test_write_to_input_rejected(sim):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.DINT)
    with pytest.raises(ValueError):
        sc.write(sub, 1)


def test_output_drift_notification(sim):
    events = []
    sc = scanner_for(sim)
    sub = sc.add_tag(
        "plc", "counts[2]", 1.0, direction="out", elem_type=CipType.DINT,
        on_drift=lambda s, old, new: events.append((old.scalar, new.scalar)),
    )
    sc.scan_once("plc")  # first readback is just a baseline
    assert events == []
    assert sc.value_of(sub) == 30
    sim.store.set_tag("counts[2]", 77)
    sc.scan_once("plc")
    assert events == [(30, 77)]
    assert sc.value_of(sub) == 77


def test_own_write_does_not_drift(sim):
    events = []
    sc = scanner_for(sim)
    sub = sc.add_tag(
        "plc", "counts[2]", 1.0, direction="out", elem_type=CipType.DINT,
        on_drift=lambda s, old, new: events.append((old, new)),
    )
    sc.scan_once("plc")
    sc.write(sub, 55)
    sc.scan_once("plc")  # readback equals what we wrote
    assert events == []
    assert sc.value_of(sub) == 55


# ---------------------------------------------------------------------------
# stats

def test_stats_and_pseudo_tags(sim):
    sc = scanner_for(sim)
    sc.add_tag("plc", "counts[0]", 0.5, elem_type=CipType.DINT)
    sc.scan_once("plc")
    sc.scan_once("plc")
    stats = sc.stats("plc", 0.5)
    assert stats.count == 2
    assert stats.errors == 0
    assert stats.min_s <= stats.last_s <= stats.max_s
    assert sc.stat_value("plc/500/count") == 2
    assert sc.stat_value("plc/500/errors") == 0
    assert sc.stat_value("plc/500/overruns") == 0
    assert sc.stat_value("plc/500/last_ms") == pytest.approx(stats.last_s * 1000)
    assert sc.stat_value("plc/500/min_ms") <= sc.stat_value("plc/500/max_ms")
    with pytest.raises(KeyError):
        sc.stat_value("plc/500/bogus")
    with pytest.raises(KeyError):
        sc.stat_value("nope/500/errors")


def test_stats_copy_is_detached(sim):
    sc = scanner_for(sim)
    sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.DINT)
    sc.scan_once("plc")
    snap = sc.stats("plc", 1.0)
    sc.scan_once("plc")
    assert snap.count == 1
    assert sc.stats("plc", 1.0).count == 2


# ---------------------------------------------------------------------------
# worker threads

def test_threaded_scan_runs_at_period(sim):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "counts[0]", 0.05, elem_type=CipType.DINT)
    sc.start()
    try:
        deadline = time.monotonic() + 2.0
        while sc.stats("plc", 0.05).count < 4:
            assert time.monotonic() < deadline, "scans did not accumulate"
            time.sleep(0.01)
        assert sc.value_of(sub) == 10
        assert sc.stats("plc", 0.05).errors == 0
    finally:
        sc.stop()


def test_slow_plc_counts_overruns():
    with PlcSim(make_store(), FaultPlan(latency_s=0.12)) as sim:
        sc = scanner_for(sim)
        sc.add_tag("plc", "counts[0]", 0.05, elem_type=CipType.DINT)
        sc.start()
        try:
            deadline = time.monotonic() + 3.0
            while sc.stats("plc", 0.05).overruns < 2:
                assert time.monotonic() < deadline, "overruns not counted"
                time.sleep(0.02)
        finally:
            sc.stop()


def test_add_tag_while_running(sim):
    sc = scanner_for(sim)
    sc.add_tag("plc", "counts[0]", 0.05, elem_type=CipType.DINT)
    sc.start()
    try:
        late = sc.add_tag("plc", "counts[4]", 0.05, elem_type=CipType.DINT)
        deadline = time.monotonic() + 2.0
        while sc.value_of(late) is None:
            assert time.monotonic() < deadline, "late tag never scanned"
            time.sleep(0.01)
        assert sc.value_of(late) == 50
    finally:
        sc.stop()


def test_write_while_running(sim):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "counts[1]", 0.05, direction="out", elem_type=CipType.DINT)
    sc.start()
    try:
        sc.write(sub, -5)
        assert sim.store.get_tag("counts[1]").scalar == -5
    finally:
        sc.stop()


def test_drift_callback_may_write_back_while_running(sim):
    # the callback runs on the worker thread, and write() submits to it
    sc = scanner_for(sim)
    restored = threading.Event()

    def put_back(sub, old, new):
        sc.write(sub, old.scalar)
        restored.set()

    sub = sc.add_tag(
        "plc", "counts[2]", 0.05, direction="out", elem_type=CipType.DINT,
        on_drift=put_back,
    )
    sc.start()
    try:
        deadline = time.monotonic() + 2.0
        while sub.value is None:
            assert time.monotonic() < deadline, "no baseline readback"
            time.sleep(0.01)
        sim.store.set_tag("counts[2]", 77)
        assert restored.wait(5.0), "write from the drift callback did not return"
        assert sim.store.get_tag("counts[2]").scalar == 30
        assert sc.value_of(sub) == 30
    finally:
        sc.stop()


def test_snapshot_is_consistent_under_contention():
    period = 0.002
    with PlcSim(wide_store()) as sim:
        sc = scanner_for(sim)
        types = {}
        for i in range(5):
            types[sc.add_tag("plc", f"counts[{i}]", period, elem_type=CipType.DINT)] = CipType.DINT
        for i in range(0, 60, 3):
            types[sc.add_tag("plc", f"wide[{i}]", period, elem_type=CipType.REAL)] = CipType.REAL
        for i in (0, 5, 31, 160, 191, 351):
            types[sc.add_tag("plc", f"bits[{i}]", period, bool_array=True)] = CipType.BOOL
        subs = list(types)
        stop = threading.Event()
        problems: list[str] = []
        ok_reads = []

        def read():
            last: dict = {}
            ok = 0
            while not stop.is_set():
                for sub in subs:
                    value, stamp, quality = sc.snapshot(sub)
                    if quality is Quality.OK:
                        ok += 1
                        if value is None or value.type is not types[sub]:
                            problems.append(f"{sub}: OK with {value!r}")
                        if stamp is None:
                            problems.append(f"{sub}: OK without a timestamp")
                    if stamp is not None:
                        if stamp < last.get(sub, stamp):
                            problems.append(f"{sub}: timestamp went back")
                        last[sub] = stamp
            ok_reads.append(ok)

        readers = [
            threading.Thread(target=read, daemon=True)
            for _ in range(len(os.sched_getaffinity(0)) + 2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sc.start()
            worker = sc._units["plc"].thread
            deadline = time.monotonic() + 5.0
            while sc.stats("plc", period).count == 0:
                assert time.monotonic() < deadline, "no scan completed"
                time.sleep(0.01)
            for thread in readers:
                thread.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=5.0)
            sc.stop()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers + [worker])
        assert problems == []
        assert sc.stats("plc", period).count > 0
        assert len(ok_reads) == len(readers) and all(n > 0 for n in ok_reads)


# ---------------------------------------------------------------------------
# scan configuration

GOOD_CONFIG = """\
# two controllers
plc main 10.0.0.5 slot=0 limit=480 connected
plc aux 10.0.0.6:2222 slot=3

tag main motor.speed period=100 dir=in type=REAL
tag main counts[1] period=100 dir=out type=DINT elements=3
tag main flags[0] period=50 dir=in bool-array elements=4
tag aux raw period=1000 dir=in no-coalesce
"""


def test_parse_scan_config():
    config = parse_scan_config(GOOD_CONFIG)
    main, aux = config.plcs
    assert (main.name, main.endpoint.host, main.endpoint.port) == ("main", "10.0.0.5", 0xAF12)
    assert main.endpoint.slot == 0 and main.endpoint.buffer_limit == 480 and main.connected
    assert (aux.endpoint.host, aux.endpoint.port, aux.endpoint.slot) == ("10.0.0.6", 2222, 3)
    assert not aux.connected and aux.endpoint.buffer_limit == 500

    speed, counts, flags, raw = config.tags
    assert speed.elem_type is CipType.REAL
    assert speed.period_ms == 100 and speed.direction is Direction.INPUT
    assert counts.direction is Direction.OUTPUT and counts.elements == 3
    assert flags.bool_array and flags.elements == 4
    assert not raw.coalesce and raw.elem_type is None

    bracketed = parse_scan_config(
        "plc b [::1]:44818 slot=0\n"
        "plc c [::1] slot=0\n"
        "plc d [fe80::1]:2222 slot=1\n"
        "plc e [10.0.0.7] slot=0\n"
    )
    assert [(p.endpoint.host, p.endpoint.port) for p in bracketed.plcs] == [
        ("::1", 0xAF12), ("::1", 0xAF12), ("fe80::1", 2222), ("10.0.0.7", 0xAF12),
    ]


@pytest.mark.parametrize("line,fragment", [
    ("widget main 1.2.3.4 slot=0", "unknown directive"),
    ("plc main 1.2.3.4", "missing slot"),
    ("plc main 1.2.3.4:abc slot=0", "bad port"),
    ("plc main 1.2.3.4 slot=0 turbo", "unknown plc option"),
    ("plc main 1.2.3.4:99999 slot=0", "port 99999 outside"),
    ("plc main 1.2.3.4:-1 slot=0", "port -1 outside"),
    ("plc main :44818 slot=0", "host must not be empty"),
    ("plc main 1.2.3.4 slot=17", "slot 17 outside"),
    ("plc main 1.2.3.4 slot=0 limit=20", "buffer_limit 20 outside"),
    ("tag main x period=100 dir=in", "undefined plc"),
    ("tag main", "tag needs"),
    ("plc main ::1 slot=0", "IPv6 host '::1' needs brackets"),
    ("plc main fe80::1:44818 slot=0", "IPv6 host 'fe80::1:44818' needs brackets"),
    ("plc main [::1 slot=0", "bad host"),
    ("plc main [::1]x slot=0", "bad host"),
    ("plc main []:44818 slot=0", "host must not be empty"),
    ("plc main [::1]:abc slot=0", "bad port"),
])
def test_config_errors_carry_line_numbers(line, fragment):
    with pytest.raises(ConfigError) as info:
        parse_scan_config("# comment\n" + line + "\n")
    assert "line 2" in str(info.value)
    assert fragment in str(info.value)


@pytest.mark.parametrize("tagline,fragment", [
    ("tag main x dir=in", "missing period"),
    ("tag main x period=100", "missing dir"),
    ("tag main x period=100 dir=sideways", "dir must be"),
    ("tag main x period=100 dir=in type=FLOAT", "unknown type"),
    ("tag main x period=100 dir=in elements=0", "at least 1"),
    ("tag main x period=100 dir=in speed=9", "unknown tag option"),
    ("tag main x..y period=100 dir=in", "bad tag"),
    ("tag main x period=100 dir=in bool-array type=DINT", "must be type BOOL"),
    ("tag main x period=abc dir=in", "needs a number"),
])
def test_tag_line_errors(tagline, fragment):
    text = "plc main 1.2.3.4 slot=0\n" + tagline + "\n"
    with pytest.raises(ConfigError) as info:
        parse_scan_config(text)
    assert "line 2" in str(info.value)
    assert fragment in str(info.value)


def test_duplicate_plc_rejected():
    text = "plc main 1.2.3.4 slot=0\nplc main 1.2.3.5 slot=0\n"
    with pytest.raises(ConfigError) as info:
        parse_scan_config(text)
    assert "defined twice" in str(info.value)


def test_apply_config_expands_elements(sim):
    text = (
        f"plc plc 127.0.0.1:{sim.port} slot=0\n"
        "tag plc counts[1] period=100 dir=in type=DINT elements=3\n"
        "tag plc TEST period=200 dir=in\n"
    )
    sc = new_scanner()
    subs = apply_scan_config(sc, parse_scan_config(text))
    assert [str(s.ref) for s in subs] == ["counts[1]", "counts[2]", "counts[3]", "TEST"]
    sc.scan_once("plc")
    assert [sc.value_of(s) for s in subs[:3]] == [20, 30, 40]
    assert sc.value_of(subs[3]) == pytest.approx(0.00281524658203125, abs=1e-12)


def test_apply_config_expands_unindexed_base(sim):
    text = (
        f"plc plc 127.0.0.1:{sim.port} slot=0\n"
        "tag plc counts period=100 dir=in type=DINT elements=5\n"
    )
    sc = new_scanner()
    subs = apply_scan_config(sc, parse_scan_config(text))
    assert [str(s.ref) for s in subs] == [f"counts[{i}]" for i in range(5)]
    sc.scan_once("plc")
    assert [sc.value_of(s) for s in subs] == [10, 20, 30, 40, 50]
