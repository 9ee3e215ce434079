"""Scan planning, batching, coalescing, writes, stats, config parsing."""

import gc
import logging
import math
import os
import socket
import struct
import sys
import threading
import time

import pytest

from logixscan import cip, encap
from logixscan import cycle as cycle_module
from logixscan import scanner as scanner_module
from logixscan.cip import CipType, CipValue
from logixscan.client import Phase, PlcEndpoint
from logixscan.cycle import Read, Step
from logixscan.config import ConfigError, apply_scan_config, parse_scan_config
from logixscan.plan import WriteSpan
from logixscan.plcsim import FaultPlan, PlcSim, TagStore
from logixscan.scanner import Direction, Quality, TagScanner
from logixscan.tags import bool_remap, format_tag, parse_tag, to_epath

from conftest import connect_to, counted_on, make_store, offset_table
from reference import build_read_request


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
    return build_read_request(to_epath(ref), count)


def wire_bytes(requests):
    """Encoded transfer: the single read, or a Multi-Request of several."""
    encoded = [cip.encode_request(r) for r in requests]
    if len(encoded) == 1:
        return encoded[0]
    return cip.encode_multi_request(encoded)


def sent(plan):
    """What each transfer of a plan sends, encoded."""
    return [message for _ops, message in plan.transfers]


def discovery_targets(plan):
    """The targets of each discovery read of a plan, in packed order."""
    return [op.targets for ops, _request in plan.discovery for op in ops]


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
    # no transfer reads a member of unknown type: each has a discovery read
    assert sc.plan_info("plc", 1.0) == []
    assert discovery_targets(planned(sc, 1.0)) == [[(a, 0, None)], [(b, 0, None)]]
    before = sim.store.round_trips
    sc.scan_once("plc")
    assert a.elem_type is CipType.DINT and b.elem_type is CipType.DINT
    assert [(sc.value_of(s), s.quality) for s in (a, b)] == [(10, Quality.OK), (20, Quality.OK)]
    # the plan after discovery coalesces into one read of both elements
    assert sc.plan_info("plc", 1.0) == [1]
    plan = planned(sc, 1.0)
    assert sent(plan) == [wire_bytes([read_of("counts[0]", 2)])]
    assert plan.discovery == []
    # one packed discovery round trip on the first cycle, none after
    assert sim.store.round_trips == before + 2
    sc.scan_once("plc")
    assert sim.store.round_trips == before + 3


def test_an_oversized_span_is_cut_into_reads_that_fit():
    with PlcSim(wide_store()) as sim:
        sc = scanner_for(sim)
        lo = sc.add_tag("plc", "wide[0]", 1.0, elem_type=CipType.REAL)
        hi = sc.add_tag("plc", "wide[199]", 1.0, elem_type=CipType.REAL)
        # a 200-element REAL span estimates past the 500-byte limit: cut
        # into a run per member, packed into one transfer
        assert sc.plan_info("plc", 1.0) == [2]
        assert sent(planned(sc, 1.0)) == [
            wire_bytes([read_of("wide[0]", 1), read_of("wide[199]", 1)])
        ]
        sc.scan_once("plc")
        assert sc.value_of(lo) == 0.0
        assert sc.value_of(hi) == 199.0


@pytest.mark.parametrize("count, round_trips", [(100, 1), (200, 2), (400, 4)])
def test_dense_real_inputs_take_the_fewest_reads_that_fit(count, round_trips):
    store = make_store()
    store.define("dense", CipType.REAL, [i * 0.25 - 7.0 for i in range(count)])
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        subs = [
            sc.add_tag("plc", f"dense[{i}]", 1.0, elem_type=CipType.REAL) for i in range(count)
        ]
        assert sc.plan_info("plc", 1.0) == [1] * round_trips
        sc.scan_once("plc")  # connects
        before = sim.store.round_trips
        sc.scan_once("plc")
        assert sim.store.round_trips == before + round_trips
        # C07's oracle: each value equals the element read alone
        oracle = connect_to(sim)
        try:
            for sub in subs:
                assert sub.quality is Quality.OK
                assert sc.value_of(sub) == oracle.read_tag(f"dense[{sub.element}]").scalar
        finally:
            oracle.close()


def test_unplannable_tag_is_error(sim, caplog):
    sc = scanner_for(sim, buffer_limit=64)
    long_chain = ".".join(["x" * 40, "y" * 40])
    sub = sc.add_tag("plc", long_chain, 1.0, elem_type=CipType.DINT)
    with caplog.at_level(logging.INFO, logger="logixscan"):
        for _cycle in range(3):
            sc.scan_once("plc")
            _value, _ts, quality = sc.snapshot(sub)
            assert quality is Quality.ERROR
    # one error per cycle, and one WARNING per plan naming the tag and the
    # limit; a configuration fault, so the list itself is not failing
    assert sc.stats("plc", 1.0).errors == 3
    assert levels(caplog) == [logging.WARNING]
    message = caplog.records[0].getMessage()
    assert long_chain in message and "64" in message and "failing" not in message
    assert sc._units["plc"].lists[1.0].faults == {}


@pytest.mark.parametrize("tag, read_size, write_size", [
    ("o" * 39, 60, 66),  # its read fits the limit, its write does not
    (".".join(["x" * 40, "y" * 40]), 102, 108),  # neither fits
])
def test_an_output_whose_own_write_cannot_fit_is_unplannable_and_never_sent(
    sim, caplog, monkeypatch, tag, read_size, write_size,
):
    sc = scanner_for(sim, buffer_limit=64)
    sub = sc.add_tag("plc", tag, 1.0, direction="out", elem_type=CipType.DINT)
    path = sub.wire_path(None)
    assert cip.wrapped_request_size(len(cip.encode_read_request(path, 1))) == read_size
    write = cip.encode_write_request(path, CipValue(CipType.DINT, [0]))
    assert cip.wrapped_request_size(len(write)) == write_size
    client = sc._units["plc"].client
    client.ensure_connected()
    messages = []
    send = client.round_trip
    monkeypatch.setattr(
        client, "round_trip", lambda m, kept: messages.append(m) or send(m, kept)
    )
    with caplog.at_level(logging.INFO, logger="logixscan"):
        assert sc.plan_info("plc", 1.0) == []
        assert planned(sc, 1.0).unplannable == [sub]
        for value in (1, 2, 3):
            sc.write(sub, value)
    # one WARNING, from the plan; the flushes send, count and log nothing
    assert messages == []
    assert levels(caplog) == [logging.WARNING]
    assert "does not fit the 64-byte limit" in caplog.records[0].getMessage()
    assert sc.stats("plc", 1.0).errors == 0
    assert sub.dirty and sub.quality is Quality.ERROR


def test_replace_tag_rescans(sim):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.DINT)
    sc.scan_once("plc")
    assert sc.value_of(sub) == 10
    sc.replace_tag(sub, "counts[4]")
    assert sub.quality is Quality.STALE
    sc.scan_once("plc")
    assert sc.value_of(sub) == 50


def test_replace_tag_rediscovers_an_undeclared_type(sim, caplog):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "counts[0]", 1.0)
    sc.scan_once("plc")
    assert (sub.elem_type, sc.value_of(sub)) == (CipType.DINT, 10)
    sc.replace_tag(sub, "TEST")
    assert sub.elem_type is None
    with caplog.at_level(logging.INFO, logger="logixscan"):
        sc.scan_once("plc")
    assert (sub.elem_type, sub.quality) == (CipType.REAL, Quality.OK)
    assert sc.value_of(sub) == pytest.approx(0.0028152466)
    assert levels(caplog) == []


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


def test_bits_of_one_array_derive_their_address_once(monkeypatch):
    paths = []
    epath_of = scanner_module.to_epath
    monkeypatch.setattr(scanner_module, "to_epath", lambda ref: paths.append(ref) or epath_of(ref))
    sc = new_scanner()
    sc.add_plc("plc", PlcEndpoint("127.0.0.1"))
    subs = [sc.add_tag("plc", f"bits[{i}]", 1.0, bool_array=True) for i in range(352)]
    assert paths == [parse_tag("bits")]
    assert {(s.group, s.wire_path(0)) for s in subs} == {("bits", to_epath(parse_tag("bits[0]")))}
    sc.add_tag("plc", "motor.cfg[3]", 1.0)
    sc.add_tag("plc", "motor.cfg[4]", 1.0)
    assert paths == [parse_tag("bits"), parse_tag("motor.cfg")]
    other = new_scanner()  # each scanner derives for itself
    other.add_plc("plc", PlcEndpoint("127.0.0.1"))
    other.add_tag("plc", "bits[0]", 1.0, bool_array=True)
    assert len(paths) == 3


def test_replace_tag_into_another_group_sends_that_groups_bytes():
    store = wide_store()
    store.define("more", CipType.DINT, [7, 8, 9])
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        keep = sc.add_tag("plc", "counts[1]", 1.0, elem_type=CipType.DINT)
        sub = sc.add_tag("plc", "counts[2]", 1.0, elem_type=CipType.DINT)
        assert sent(planned(sc, 1.0)) == [wire_bytes([read_of("counts[1]", 2)])]
        sc.replace_tag(sub, "more[2]")
        assert (sub.group, sub.element) == ("more", 2)
        assert sent(planned(sc, 1.0)) == [
            wire_bytes([read_of("counts[1]", 1), read_of("more[2]", 1)])
        ]
        sc.scan_once("plc")
        assert (sc.value_of(keep), sc.value_of(sub)) == (20, 9)
        sc.replace_tag(sub, "counts[3]")  # and back, onto the cached address
        assert sent(planned(sc, 1.0)) == [wire_bytes([read_of("counts[1]", 3)])]
        sc.scan_once("plc")
        assert sc.value_of(sub) == 40
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
        assert sub.group == str(sub.ref.with_final_element(None))
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


def mixed_sim():
    """A sim holding the [4, 13] mixed list's tags."""
    store = make_store()
    for name in MIXED_NAMES:
        store.define(name, CipType.DINT, [7])
    store.define("rspan", CipType.REAL, [0.5] * 100)
    store.define("bits", CipType.BOOL, [True] * 352)
    return PlcSim(store)


def add_mixed_list(sc):
    """Subscribe the [4, 13] mixed list at 1 s; returns its subscriptions."""
    subs = [sc.add_tag("plc", name, 1.0, elem_type=CipType.DINT) for name in MIXED_NAMES]
    subs += [sc.add_tag("plc", f"rspan[{i}]", 1.0, elem_type=CipType.REAL) for i in range(100)]
    subs += [sc.add_tag("plc", f"bits[{i}]", 1.0, bool_array=True) for i in range(352)]
    assert sc.plan_info("plc", 1.0) == [4, 13]
    return subs


def test_a_planned_scan_cycle_encodes_nothing(monkeypatch):
    with mixed_sim() as sim:
        sc = scanner_for(sim)
        subs = add_mixed_list(sc)
        encoded = []
        encode_request = cip.encode_request
        monkeypatch.setattr(
            cip, "encode_request", lambda req: encoded.append(req) or encode_request(req)
        )
        sc.scan_once("plc", 1.0)
        assert encoded == []
        assert all(sub.quality is Quality.OK for sub in subs)


REPLY_WORK = (
    (encap, "parse_rr_data"), "decode_response", "split_multi_response",
    (Read, "absorb"),
)


def test_a_repeated_scan_cycle_decodes_splits_and_absorbs_nothing(monkeypatch):
    with mixed_sim() as sim:
        sc = scanner_for(sim)
        subs = add_mixed_list(sc)
        calls = counted_on(threading.current_thread(), monkeypatch, *REPLY_WORK)
        sc.scan_once("plc", 1.0)  # each reply decoded, split and absorbed
        assert calls.count("absorb") == 17
        calls.clear()
        # the same bytes: the kept split absorbed read by read, to be recorded
        sc.scan_once("plc", 1.0)
        assert calls == ["absorb"] * 17
        assert all(reply.record for reply in sc._units["plc"].lists[1.0].executor.replies)
        calls.clear()
        for _cycle in range(3):
            started = time.time()
            sc.scan_once("plc", 1.0)
            assert calls == []
            assert all(sub.quality is Quality.OK and sub.timestamp >= started for sub in subs)
        sim.store.set_tag("rspan[3]", 2.5)  # one embedded reply changes
        sc.scan_once("plc", 1.0)
        rspan_3 = subs[len(MIXED_NAMES) + 3]
        assert calls.count("split_multi_response") == 1 and sc.value_of(rspan_3) == 2.5


def test_a_plc_side_change_after_repeated_cycles_shows_in_the_next(monkeypatch):
    with mixed_sim() as sim:
        sc = scanner_for(sim)
        subs = add_mixed_list(sc)
        for _cycle in range(5):
            sc.scan_once("plc", 1.0)
        calls = counted_on(threading.current_thread(), monkeypatch, *REPLY_WORK)
        scalar, real, bit = subs[4], subs[len(MIXED_NAMES) + 99], subs[-1]
        # the sim holds a BOOL array as DINT words: bits[351] is bit 31 of word 10
        for sub, element, stored, value in (
            (scalar, format_tag(scalar.ref), 8, 8), (real, "rspan[99]", -0.25, -0.25),
            (bit, "bits[10]", 0x7FFFFFFF, False),
        ):
            sim.store.set_tag(element, stored)
            started = time.time()
            sc.scan_once("plc", 1.0)
            assert sc.value_of(sub) == value
            assert calls.count("split_multi_response") == 1  # only its transfer changed
            calls.clear()
            sc.scan_once("plc", 1.0)  # the changed reply repeats: its kept split is used
            sc.scan_once("plc", 1.0)
            assert calls.count("split_multi_response") == 0
            calls.clear()
            assert all(s.quality is Quality.OK and s.timestamp >= started for s in subs)
            assert sc.value_of(sub) == value


def span_outputs(sc):
    """counts[0], [2] and [4] as unwatched outputs, and TEST as an input."""
    outs = [
        sc.add_tag("plc", f"counts[{i}]", 1.0, direction="out", elem_type=CipType.DINT)
        for i in (0, 2, 4)
    ]
    return outs + [sc.add_tag("plc", "TEST", 1.0, elem_type=CipType.REAL)]


def test_a_flush_between_cycles_leaves_the_span_cache_as_the_per_op_path_does(monkeypatch):
    def run(flat):
        with PlcSim(make_store()) as sim:
            sc = scanner_for(sim)
            if not flat:  # no transfer ever gets a record
                monkeypatch.setattr(cycle_module, "_join", lambda ops: False)
            subs = span_outputs(sc)
            unit = sc._units["plc"]
            seen = []

            def look():
                seen.append((
                    {key: dict(cache) for key, cache in unit.span_cache.items()},
                    [(s.value, s.quality, s.dirty) for s in subs],
                    sc.stats("plc", 1.0).errors,
                ))

            for _cycle in range(3):
                sc.scan_once("plc")
            look()
            sim.faults.error_inject[cip.WRITE_DATA] = cip.STATUS_PATH_UNKNOWN
            sc.write(subs[0], -5, immediate=False)
            sc.write(subs[2], -6, immediate=False)
            sc.flush("plc")  # refused: the written elements leave the cache
            look()
            sc.scan_once("plc")  # the same reply again: read back into the cache
            look()
            sim.faults.error_inject.clear()
            sc.flush("plc")  # lands: the cache holds what was written
            look()
            for _cycle in range(3):
                sc.scan_once("plc")
            look()
            monkeypatch.undo()
            return seen

    flat, per_op = run(True), run(False)
    assert flat == per_op
    cache_after_refusal = flat[1][0][("counts", CipType.DINT)]
    assert 0 not in cache_after_refusal and flat[2][0][("counts", CipType.DINT)][0] == 10
    assert flat[-1][0][("counts", CipType.DINT)] == {0: -5, 1: 20, 2: 30, 3: 40, 4: -6}


def test_a_flush_whose_writes_all_land_splits_no_reply(sim, monkeypatch):
    sc = scanner_for(sim)
    outs = [
        sc.add_tag("plc", f"counts[{i}]", 1.0, direction="out", elem_type=CipType.DINT)
        for i in (0, 4)
    ]
    test = sc.add_tag("plc", "TEST", 1.0, direction="out", elem_type=CipType.REAL)
    sc.scan_once("plc")  # the span write's gap is cached: no read in the flush
    calls = counted_on(
        threading.current_thread(), monkeypatch,
        "split_multi_response", "decode_response", "parse_write_response",
    )
    for sub, value in zip(outs + [test], (1, 2, 0.5)):
        sc.write(sub, value, immediate=False)
    sc.flush("plc")
    # the first reply to two writes: decoded and split, each write settled
    # on its status alone
    assert calls == ["decode_response", "split_multi_response"] + ["decode_response"] * 2
    calls.clear()
    staged = {outs[0]: 7, outs[1]: -9, test: 2.5}
    for sub, value in staged.items():
        sc.write(sub, value, immediate=False)
    before, started = sim.store.round_trips, time.time()
    sc.flush("plc")
    assert sim.store.round_trips == before + 1  # one Multi-Request of the writes
    # the same bytes as the last reply to two writes: nothing decoded or split
    assert calls == []
    for sub, value in staged.items():
        assert not sub.dirty and sub.quality is Quality.OK and sub.timestamp >= started
        assert sc.value_of(sub) == value
    assert sim.store.get_tag("counts").elements == (7, 20, 30, 40, -9)
    assert sim.store.get_tag("TEST").elements == (2.5,)


def test_a_refused_flush_fails_alike_each_time_and_lands_once_cleared(sim, monkeypatch):
    sc = scanner_for(sim)
    outs = [
        sc.add_tag("plc", f"counts[{i}]", 1.0, direction="out", elem_type=CipType.DINT)
        for i in (0, 1)
    ]
    sc.scan_once("plc")
    sim.faults.error_inject[cip.WRITE_DATA] = cip.STATUS_PATH_UNKNOWN
    calls = counted_on(threading.current_thread(), monkeypatch, "decode_response")
    for value, errors in ((5, 1), (6, 2)):  # one write each, refused alike
        for sub in outs:
            sc.write(sub, value, immediate=False)
        sc.flush("plc")
        assert [(sub.quality, sub.dirty) for sub in outs] == [(Quality.ERROR, True)] * 2
        assert sc.stats("plc", 1.0).errors == errors
    # the second refusal repeats the first one's bytes: kept, not decoded
    assert calls == ["decode_response"]
    assert sim.store.get_tag("counts").elements == (10, 20, 30, 40, 50)
    sim.faults.error_inject.clear()
    started = time.time()
    sc.flush("plc")
    assert [(sub.quality, sub.dirty) for sub in outs] == [(Quality.OK, False)] * 2
    sc.scan_once("plc")
    for sub in outs:
        assert (sc.value_of(sub), sub.quality) == (6, Quality.OK) and sub.timestamp >= started
    assert sim.store.get_tag("counts").elements == (6, 6, 30, 40, 50)
    assert sc.stats("plc", 1.0).errors == 2


def test_a_changed_read_back_builds_values_only_for_the_elements_that_changed(sim):
    sc = scanner_for(sim)
    subs = [sc.add_tag("plc", f"counts[{i}]", 1.0, elem_type=CipType.DINT) for i in range(5)]
    sc.scan_once("plc")
    first = [sub.value for sub in subs]
    sim.store.set_tag("counts[2]", 33)  # one element changes on the PLC side
    started = time.time()
    sc.scan_once("plc")
    assert all(sub.quality is Quality.OK and sub.timestamp >= started for sub in subs)
    assert [sc.value_of(sub) for sub in subs] == [10, 20, 33, 40, 50]
    assert [sub.value is value for sub, value in zip(subs, first)] == [
        True, True, False, True, True
    ]


def test_a_changed_read_back_of_reals_compares_their_wire_bytes():
    store = make_store()
    store.define("r", CipType.REAL, [1.0, 0.0, 2.0])
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        subs = [sc.add_tag("plc", f"r[{i}]", 1.0, elem_type=CipType.REAL) for i in range(3)]
        sc.scan_once("plc")
        sim.store.set_tag("r[1]", -0.0)  # equal to 0.0 as a float, not as bytes
        sim.store.set_tag("r[2]", math.nan)
        held = [sub.value for sub in subs]
        sc.scan_once("plc")
        assert subs[0].value is held[0]
        assert math.copysign(1.0, sc.value_of(subs[1])) == -1.0
        assert math.isnan(sc.value_of(subs[2]))
        sim.store.set_tag("r[0]", 3.0)  # the NaN and the -0.0 repeat beside it
        held = [sub.value for sub in subs]
        started = time.time()
        sc.scan_once("plc")
        assert sc.value_of(subs[0]) == 3.0
        assert subs[1].value is held[1] and subs[2].value is held[2]
        assert all(sub.quality is Quality.OK and sub.timestamp >= started for sub in subs)


def test_a_thousand_flushes_leave_no_state_behind(sim):
    sc = scanner_for(sim)
    outs = [
        sc.add_tag("plc", f"counts[{i}]", 1.0, direction="out", elem_type=CipType.DINT)
        for i in (0, 2, 4)
    ]
    test = sc.add_tag("plc", "TEST", 1.0, direction="out", elem_type=CipType.REAL)
    sc.scan_once("plc")
    unit = sc._units["plc"]

    def held():
        """What the scanner holds that a flush could add to."""
        gc.collect()
        replies = sum(isinstance(o, cip.CipResponse) for o in gc.get_objects())
        executor = unit.lists[1.0].executor
        return replies, len(executor.replies), len(executor.write_replies), {
            key: len(cache) for key, cache in unit.span_cache.items()
        }

    for value in range(1000):
        for sub in outs:
            sc.write(sub, value, immediate=False)
        sc.write(test, value, immediate=False)
        sc.flush("plc")  # one Multi-Request: the span write and TEST's
        if value == 9:
            before = held()
    assert held() == before
    assert sim.store.get_tag("counts").elements == (999, 20, 999, 40, 999)
    assert sim.store.get_tag("TEST").elements == (999.0,)


def test_multi_builders_lay_out_c06_and_mixed_list_byte_for_byte():
    router = bytes((cip.MULTI_REQUEST, 2, 0x20, 0x02, 0x24, 0x01))
    transfers = [t for ts in c06_reads().values() for t in ts] + mixed_reads()
    for requests in transfers:
        encoded = [cip.encode_request(r) for r in requests]
        assert cip.encode_multi_request(encoded) == router + offset_table(encoded)
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


def dint_reply(*elements):
    """An OK read reply of DINT elements."""
    payload = struct.pack("<H", CipType.DINT) + cip.pack_elements(CipType.DINT, elements)
    return cip.CipResponse(cip.READ_DATA | cip.REPLY_FLAG, cip.STATUS_OK, (), payload)


def test_a_short_reply_fails_every_target_of_its_read(sim):
    sc = scanner_for(sim)
    near = sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.DINT)
    far = sc.add_tag("plc", "counts[4]", 1.0, elem_type=CipType.DINT)
    (op,), _request = planned(sc, 1.0).transfers[0]
    assert [offset for _s, offset, _b in op.targets] == [0, 4] and op.count == 5
    unit = sc._units["plc"]
    read = Read(op)
    # a reply carrying three of the five requested elements, then the same again
    for _time in range(2):
        step = Step(unit, logging.DEBUG)
        assert not read.absorb(dint_reply(7, 8, 9), step)
        assert all(s.quality is Quality.ERROR and s.value is None for s in (near, far))
        assert step.errors == 1
        assert step.causes == {"read failed": "read failed: 3 elements for a read of 5"}
        assert read.whole is None and read.last_reply is None
    # the next whole reply stores every target
    step = Step(unit, logging.DEBUG)
    assert read.absorb(dint_reply(7, 8, 9, 10, 11), step)
    assert [(s.value.elements, s.timestamp, s.quality) for s in (near, far)] == [
        ((7,), step.now, Quality.OK), ((11,), step.now, Quality.OK),
    ]
    assert step.errors == 0 and read.whole is not None


def test_a_long_reply_is_refused_and_caches_nothing_past_its_read():
    store = make_store()
    store.define("w", CipType.DINT, [0, 1, 2, 3, 4, 5])
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        low = [
            sc.add_tag("plc", f"w[{i}]", 1.0, direction="out", elem_type=CipType.DINT)
            for i in (0, 2)
        ]
        high = [
            sc.add_tag("plc", f"w[{i}]", 2.0, direction="out", elem_type=CipType.DINT)
            for i in (3, 5)
        ]
        (op,), _request = planned(sc, 1.0).transfers[0]
        assert op.count == 3
        unit = sc._units["plc"]
        step = Step(unit, logging.DEBUG)
        # five elements for a read of w[0..2]
        assert not Read(op).absorb(dint_reply(10, 11, 12, 13, 14), step)
        assert step.causes == {"read failed": "read failed: 5 elements for a read of 3"}
        assert all(sub.quality is Quality.ERROR for sub in low)
        assert unit.span_cache.get(("w", CipType.DINT), {}) == {}
        # the other list's cold flush of w[3] and w[5] lacks w[4]: it reads
        # its list first and writes the PLC's own w[4] back
        sc.write(high[0], 30, immediate=False)
        sc.write(high[1], 50, immediate=False)
        reads = sim.store.service_counts[cip.READ_DATA]
        sc.flush("plc")
        assert sim.store.service_counts[cip.READ_DATA] == reads + 1
        assert sim.store.get_tag("w").elements == (0, 1, 2, 30, 4, 50)
        assert all(sub.quality is Quality.OK and not sub.dirty for sub in high)


def test_a_discovery_reply_of_two_elements_is_refused(sim):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "counts[1]", 1.0)
    # the one op kind a plan's executor runs, discovery reads included
    executor = cycle_module.Executor(planned(sc, 1.0))
    ((read,), _request), = executor.discovery
    assert type(read) is Read and read.op.count == 1
    unit = sc._units["plc"]
    step = Step(unit, logging.DEBUG)
    assert not read.absorb(dint_reply(20, 30), step)
    assert step.causes == {"read failed": "read failed: 2 elements for a read of 1"}
    assert sub.elem_type is None and sub.quality is Quality.ERROR
    # one element fixes the type, and stores nothing
    step = Step(unit, logging.DEBUG)
    assert read.absorb(dint_reply(20), step)
    assert step.errors == 0
    assert sub.elem_type is CipType.DINT and sub.value is None


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
        counts, bits = ops[typed_in], ops[bit_in]
        # unwatched outputs are stored as inputs are
        assert counts.typed_targets == [(typed_in, 0), (out_lo, 2), (out_hi, 3), (far_in, 4)]
        assert counts.checked_targets == []
        assert counts.bit_targets == [] and counts.cache_key is not None
        # input-only reads leave the span cache alone: it serves writes only
        assert bits.bit_targets == [(bit_in, 0, 8)] and bits.cache_key is None
        # a member of unknown type is in no transfer before its discovery read
        assert unknown not in {sub for op in ops.values() for sub, _o, _b in op.targets}
        assert discovery_targets(plan) == [[(unknown, 0, None)]]
        # the write span covers the outputs only, not the inputs around them,
        # and its head is the write of counts[2..3] up to its data
        head = bytes.fromhex("53 05 91 06 636f756e7473 28 02 c400 0200")
        assert plan.write_spans == [
            WriteSpan(("counts", CipType.DINT), range(2, 4), head, [out_lo, out_hi])
        ]
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
    assert sc.stat_value("plc/phase") == "disconnected"
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


def levels(caplog):
    return [r.levelno for r in caplog.records]


def test_a_list_that_cannot_connect_warns_once_and_recovers_once(caplog):
    with PlcSim(make_store(), FaultPlan(refuse_sessions=True)) as sim:
        sc = scanner_for(sim, reconnect_period=0.05)
        sub = sc.add_tag("plc", "counts[0]", 1.0)
        with caplog.at_level(logging.INFO, logger="logixscan"):
            for _cycle in range(5):
                sc.scan_once("plc")
                time.sleep(0.06)  # past reconnect_period: every cycle tries again
            assert sub.quality is Quality.ERROR
            assert sc.stats("plc", 1.0).errors == 5
            assert sc._units["plc"].client.reconnect_attempts == 5
            assert levels(caplog) == [logging.WARNING]
            message = caplog.records[0].getMessage()
            assert "plc: list 1 s failing: not connected: register failed" in message
            sim.faults.refuse_sessions = False
            for _cycle in range(3):
                sc.scan_once("plc")
        assert sc.value_of(sub) == 10
        assert levels(caplog) == [logging.WARNING, logging.INFO]
        assert "recovered from: not connected" in caplog.records[1].getMessage()


def test_a_list_whose_session_keeps_dropping_warns_once_and_recovers_once(sim, caplog):
    sc = scanner_for(sim, reconnect_period=0.05)
    sub = sc.add_tag("plc", "counts[0]", 1.0)
    sc.scan_once("plc")
    sim.faults.drop_after = 1  # every session drops on its next data request
    with caplog.at_level(logging.INFO, logger="logixscan"):
        for _cycle in range(6):
            sc.scan_once("plc")
            time.sleep(0.06)
        assert sub.quality is Quality.ERROR
        assert sc._units["plc"].client.reconnect_attempts >= 5
        assert levels(caplog) == [logging.WARNING]
        assert "failing: transfer failed" in caplog.records[0].getMessage()
        sim.faults.drop_after = None
        for _cycle in range(3):
            sc.scan_once("plc")
    assert sub.quality is Quality.OK
    assert levels(caplog) == [logging.WARNING, logging.INFO]


def test_a_reply_cut_short_by_a_close_warns_once_and_recovers_once(sim, caplog):
    sc = scanner_for(sim, reconnect_period=0.05)
    sub = sc.add_tag("plc", "counts[0]", 1.0)
    sc.scan_once("plc")
    client = sc._units["plc"].client
    with caplog.at_level(logging.INFO, logger="logixscan"):
        sim.faults.truncate_replies = True  # half a reply, then the session closes
        for _cycle in range(3):
            sc.scan_once("plc")
            assert client.phase is Phase.DISCONNECTED and client.consecutive_errors == 1
            time.sleep(0.06)  # past reconnect_period: every cycle connects again
        assert sub.quality is Quality.ERROR
        assert sc.stats("plc", 1.0).errors == 3
        assert levels(caplog) == [logging.WARNING]
        assert "failing: transfer failed: transport error" in caplog.records[0].getMessage()
        sim.faults.truncate_replies = False
        for _cycle in range(3):
            sc.scan_once("plc")
    assert sub.quality is Quality.OK and sc.value_of(sub) == 10
    assert levels(caplog) == [logging.WARNING, logging.INFO]
    assert "recovered from: transfer failed" in caplog.records[1].getMessage()


def test_a_list_with_a_failing_member_still_logs_a_session_loss_and_its_recovery(sim, caplog):
    sc = scanner_for(sim, reconnect_period=0.05)
    missing = sc.add_tag("plc", "missing", 1.0)
    counts = sc.add_tag("plc", "counts[0]", 1.0)
    with caplog.at_level(logging.INFO, logger="logixscan"):
        sc.scan_once("plc")
        assert levels(caplog) == [logging.WARNING]
        assert "failing: read failed" in caplog.records[0].getMessage()
        sim.faults.drop_after = 1  # every session drops on its next data request
        for _cycle in range(4):
            sc.scan_once("plc")
            time.sleep(0.06)  # past reconnect_period: every cycle connects again
        assert counts.quality is Quality.ERROR
        assert levels(caplog) == [logging.WARNING] * 2
        assert "failing: transfer failed" in caplog.records[1].getMessage()
        sim.faults.drop_after = None
        for _cycle in range(3):
            sc.scan_once("plc")
    # the member still fails, and the session's recovery is logged alone
    assert sc.value_of(counts) == 10 and missing.quality is Quality.ERROR
    assert levels(caplog) == [logging.WARNING] * 2 + [logging.INFO]
    assert "recovered from: transfer failed" in caplog.records[2].getMessage()


def test_a_malformed_read_reply_fails_its_cells_warns_once_and_recovers_once(sim, caplog):
    sc = scanner_for(sim)
    counts = [sc.add_tag("plc", f"counts[{i}]", 1.0, elem_type=CipType.DINT) for i in range(3)]
    test = sc.add_tag("plc", "TEST", 1.0, elem_type=CipType.REAL)
    subs = counts + [test]
    sc.scan_once("plc")
    sc.scan_once("plc")  # the same reply again: kept, and not decoded
    with caplog.at_level(logging.INFO, logger="logixscan"):
        sim.faults.malformed_reads = True  # each read's data loses its last byte
        for _cycle in range(3):
            sc.scan_once("plc")
            assert all(sub.quality is Quality.ERROR for sub in subs)
        assert sc.stats("plc", 1.0).errors == 6  # two reads a cycle
        assert levels(caplog) == [logging.WARNING]
        assert "failing: read failed" in caplog.records[0].getMessage()
        sim.faults.malformed_reads = False
        sc.scan_once("plc")
    assert [(sc.value_of(sub), sub.quality) for sub in counts] == [
        (10, Quality.OK), (20, Quality.OK), (30, Quality.OK)
    ]
    assert test.quality is Quality.OK
    assert levels(caplog) == [logging.WARNING, logging.INFO]
    assert "recovered from: read failed" in caplog.records[1].getMessage()


def test_a_type_mismatch_warns_once_per_plan(sim, caplog):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.REAL)
    with caplog.at_level(logging.INFO, logger="logixscan"):
        for _cycle in range(4):
            sc.scan_once("plc")
        assert levels(caplog) == [logging.WARNING]
        assert "counts expected REAL, PLC sent DINT" in caplog.records[0].getMessage()
        sc.add_tag("plc", "TEST", 1.0, elem_type=CipType.REAL)  # a new plan
        for _cycle in range(3):
            sc.scan_once("plc")
    assert sub.quality is Quality.ERROR
    assert sc.stats("plc", 1.0).errors == 7
    assert levels(caplog) == [logging.WARNING] * 2


def test_a_type_mismatch_beside_an_undeclared_member_warns_once(sim, caplog, monkeypatch):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.REAL)
    test = sc.add_tag("plc", "TEST", 1.0)
    client = sc._units["plc"].client
    messages = []
    send = client.round_trip
    monkeypatch.setattr(
        client, "round_trip", lambda m, kept: messages.append(m) or send(m, kept)
    )
    with caplog.at_level(logging.INFO, logger="logixscan"):
        sc.scan_once("plc")
        # TEST's type is learned first, so only the plan it leads to reads
        assert messages == [wire_bytes([read_of("TEST", 1)])] + sent(planned(sc, 1.0))
        for _cycle in range(3):
            sc.scan_once("plc")
    assert levels(caplog) == [logging.WARNING]
    assert "counts expected REAL, PLC sent DINT" in caplog.records[0].getMessage()
    assert sub.quality is Quality.ERROR and test.quality is Quality.OK
    assert sc.stats("plc", 1.0).errors == 4


def test_a_session_lost_in_discovery_counts_one_error(sim, caplog):
    sc = scanner_for(sim)
    counts = sc.add_tag("plc", "counts[0]", 1.0)
    test = sc.add_tag("plc", "TEST", 1.0, elem_type=CipType.REAL)
    sim.faults.drop_after = 1  # the discovery read loses the session
    with caplog.at_level(logging.INFO, logger="logixscan"):
        sc.scan_once("plc")
    # the list's reads then fail unsent, and are not counted again
    assert sc.stats("plc", 1.0).errors == 1
    assert counts.quality is Quality.ERROR and test.quality is Quality.ERROR
    assert levels(caplog) == [logging.WARNING]


def test_a_session_lost_in_a_flushs_list_read_counts_one_error(sim):
    sc = scanner_for(sim)
    lo = sc.add_tag("plc", "counts[0]", 1.0, direction="out", elem_type=CipType.DINT)
    hi = sc.add_tag("plc", "counts[4]", 1.0, direction="out", elem_type=CipType.DINT)
    # built alone, on no cached element: ready to send before the read
    solo = sc.add_tag(
        "plc", "counts[2]", 1.0, direction="out", elem_type=CipType.DINT, coalesce=False,
    )
    for sub, value in ((lo, 1), (hi, 2), (solo, 3)):
        sc.write(sub, value, immediate=False)
    sim.faults.drop_after = 1  # the read the span write needs loses the session
    sc.flush("plc")
    assert sc.stat_value("plc/phase") == "disconnected"
    assert sc.stats("plc", 1.0).errors == 1
    for sub in (lo, hi, solo):
        assert sub.dirty and sub.quality is Quality.ERROR
    assert sim.store.get_tag("counts").elements == (10, 20, 30, 40, 50)


def test_a_missing_undeclared_input_warns_once_and_recovers_once(sim, caplog):
    sc = scanner_for(sim)
    keep = sc.add_tag("plc", "counts[0]", 1.0)
    sub = sc.add_tag("plc", "later", 1.0)
    with caplog.at_level(logging.INFO, logger="logixscan"):
        for _cycle in range(3):
            sc.scan_once("plc")
        assert sub.quality is Quality.ERROR and sc.value_of(keep) == 10
        assert levels(caplog) == [logging.WARNING]
        assert "failing: read failed" in caplog.records[0].getMessage()
        sim.store.define("later", CipType.INT, [-3])
        sc.scan_once("plc")
    assert (sc.value_of(sub), sub.quality, sub.elem_type) == (-3, Quality.OK, CipType.INT)
    assert levels(caplog) == [logging.WARNING, logging.INFO]


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
    assert sc.stat_value("plc/phase") == "disconnected"


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
    assert sc.stat_value("plc/phase") == "connected"


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


def test_undeclared_outputs_of_one_array_are_discovered_then_span_written(sim):
    sc = scanner_for(sim)
    lo = sc.add_tag("plc", "counts[2]", 1.0, direction="out")
    hi = sc.add_tag("plc", "counts[3]", 1.0, direction="out")
    sc.write(lo, 7, immediate=False)
    sc.write(hi, 8, immediate=False)
    before, writes = sim.store.round_trips, sim.store.service_counts[cip.WRITE_DATA]
    sc.flush("plc")
    # one packed discovery read of both, then one span write of counts[2..3]
    assert sim.store.round_trips == before + 2
    assert sim.store.service_counts[cip.WRITE_DATA] == writes + 1
    assert sim.store.get_tag("counts").elements == (10, 20, 7, 8, 50)
    assert [(s.elem_type, sc.value_of(s), s.quality, s.dirty) for s in (lo, hi)] == [
        (CipType.DINT, 7, Quality.OK, False), (CipType.DINT, 8, Quality.OK, False)
    ]


def test_an_undeclared_output_of_a_missing_tag_stays_dirty_until_it_lands(sim):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "later", 1.0, direction="out")
    sc.write(sub, 5)
    assert (sub.quality, sub.dirty, sub.elem_type) == (Quality.ERROR, True, None)
    assert sc.stats("plc", 1.0).errors == 1
    sim.store.define("later", CipType.DINT, [0])
    sc.flush("plc")
    assert sim.store.get_tag("later").elements == (5,)
    assert (sc.value_of(sub), sub.quality, sub.dirty) == (5, Quality.OK, False)


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


def big_outputs(sc, count=100):
    """Every element of `big`, a DINT[count], as an output of one list."""
    return [
        sc.add_tag("plc", f"big[{i}]", 1.0, direction="out", elem_type=CipType.DINT)
        for i in range(count)
    ]


def big_sim(count=100):
    store = make_store()
    store.define("big", CipType.DINT, list(range(count)))
    store.define("bout", CipType.BOOL, [False] * 32)
    return PlcSim(store)


def test_a_plc_side_change_outside_the_dirty_range_survives_a_flush():
    with big_sim() as sim:
        sc = scanner_for(sim)
        subs = big_outputs(sc)
        sc.scan_once("plc")  # the span cache holds every element
        sim.store.set_tag("big[50]", 999)  # changed on the PLC after the read
        sc.write(subs[10], -10, immediate=False)
        sc.write(subs[12], -12, immediate=False)
        sc.flush("plc")
        landed = sim.store.get_tag("big").elements
        assert landed[10:13] == (-10, 11, -12)  # the gap from the cache
        assert landed[50] == 999
        assert landed[:10] + landed[13:50] + landed[51:] == tuple(
            i for i in range(100) if i not in (10, 11, 12, 50)
        )


def test_a_warm_flush_of_two_of_a_hundred_outputs_writes_three_elements(monkeypatch):
    with big_sim() as sim:
        sc = scanner_for(sim)
        subs = big_outputs(sc)
        sc.scan_once("plc")
        client = sc._units["plc"].client
        messages = []
        round_trip = client.round_trip
        monkeypatch.setattr(
            client, "round_trip",
            lambda message, kept: messages.append(message) or round_trip(message, kept),
        )
        sc.write(subs[10], -10, immediate=False)
        sc.write(subs[12], -12, immediate=False)
        sc.flush("plc")
        # Write_Data, big[10] (4 path words), DINT, 3 elements, the gap as read
        assert messages == [bytes.fromhex(
            "53 04 9103 626967 00 280a c400 0300 f6ffffff 0b000000 f4ffffff"
        )]
        assert [(sc.value_of(sub), sub.quality, sub.dirty) for sub in subs[10:13:2]] == [
            (-10, Quality.OK, False), (-12, Quality.OK, False)
        ]


@pytest.mark.parametrize("tags, reads_first", [
    (("big[10]", "big[11]", "big[12]"), False),  # contiguous: nothing to read
    (("big[10]", "big[12]"), True),  # big[11] is a gap: the list is read first
    (("bout[3]",), True),  # a BOOL bit: its word is read first
])
def test_a_cold_flush_reads_its_list_only_for_a_gap_or_a_bit(tags, reads_first):
    with big_sim() as sim:
        sc = scanner_for(sim)
        outputs = {f"big[{i}]": sub for i, sub in enumerate(big_outputs(sc))}
        outputs.update({
            f"bout[{i}]": sc.add_tag("plc", f"bout[{i}]", 1.0, direction="out", bool_array=True)
            for i in range(32)
        })
        sc._units["plc"].client.ensure_connected()
        staged = [outputs[tag] for tag in tags]
        for sub in staged:
            sc.write(sub, 1, immediate=False)
        before = sim.store.round_trips
        reads = sim.store.service_counts[cip.READ_DATA]
        sc.flush("plc")
        # one packed write, after one packed read of the list if it must
        assert sim.store.round_trips == before + 1 + reads_first
        assert (sim.store.service_counts[cip.READ_DATA] > reads) is reads_first
        assert all(sc.value_of(sub) == 1 and not sub.dirty for sub in staged)


def far_outputs(sc):
    """`big[0]` and `big[100]` of a DINT[200]: one planned write, whose 99
    elements between them cost 396 bytes, more than the 22 a write of its
    own adds."""
    subs = [
        sc.add_tag("plc", f"big[{i}]", 1.0, direction="out", elem_type=CipType.DINT)
        for i in (0, 100)
    ]
    (span,) = planned(sc, 1.0).write_spans
    assert (span.elements, span.outputs) == (range(0, 101), subs)
    return subs


def recorded(monkeypatch, sc):
    """The messages the scanner's client sends from now on."""
    client = sc._units["plc"].client
    messages = []
    round_trip = client.round_trip
    monkeypatch.setattr(
        client, "round_trip",
        lambda message, kept: messages.append(message) or round_trip(message, kept),
    )
    return messages


def test_a_warm_flush_cuts_a_long_gap_into_writes_of_their_own(monkeypatch):
    with big_sim(200) as sim:
        sc = scanner_for(sim)
        lo, hi = far_outputs(sc)
        sc.scan_once("plc")
        messages = recorded(monkeypatch, sc)
        sc.write(lo, -1, immediate=False)
        sc.write(hi, -101, immediate=False)
        sc.flush("plc")
        # one Multi-Request to the Message Router of two one-element
        # writes: Write_Data, big[0] and big[100] (4 path words), DINT, 1
        assert messages == [bytes.fromhex("0a 02 2002 2401") + offset_table([
            bytes.fromhex("53 04 9103 626967 00 2800 c400 0100 ffffffff"),
            bytes.fromhex("53 04 9103 626967 00 2864 c400 0100 9bffffff"),
        ])]
        assert [(sc.value_of(sub), sub.quality, sub.dirty) for sub in (lo, hi)] == [
            (-1, Quality.OK, False), (-101, Quality.OK, False)
        ]


def test_a_plc_side_change_inside_a_long_gap_survives_a_flush():
    with big_sim(200) as sim:
        sc = scanner_for(sim)
        lo, hi = far_outputs(sc)
        sc.scan_once("plc")  # the span cache holds every element
        sim.store.set_tag("big[50]", 999)  # changed on the PLC after the read
        sc.write(lo, -1, immediate=False)
        sc.write(hi, -101, immediate=False)
        sc.flush("plc")
        expected = list(range(200))
        expected[0], expected[50], expected[100] = -1, 999, -101
        assert sim.store.get_tag("big").elements == tuple(expected)


def test_an_unbatched_flush_writes_across_a_long_gap(monkeypatch):
    # each cut write would cost a round trip of its own: one write, from
    # the first dirty output to the last, the gap as read
    with big_sim(200) as sim:
        sc = scanner_for(sim, batching=False)
        lo, hi = far_outputs(sc)
        sc.scan_once("plc")
        messages = recorded(monkeypatch, sc)
        sc.write(lo, -1, immediate=False)
        sc.write(hi, -101, immediate=False)
        sc.flush("plc")
        gap = struct.pack("<99i", *range(1, 100))
        assert messages == [
            bytes.fromhex("53 04 9103 626967 00 2800 c400 6500 ffffffff")
            + gap + bytes.fromhex("9bffffff")
        ]
        assert sim.store.get_tag("big").elements[:101] == (-1, *range(1, 100), -101)


def test_an_oversize_span_write_is_cut_into_writes_that_fit():
    store = make_store()
    store.define("big", CipType.DINT, list(range(126)))
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        lo = sc.add_tag("plc", "big[0]", 1.0, direction="out", elem_type=CipType.DINT)
        hi = sc.add_tag("plc", "big[125]", 1.0, direction="out", elem_type=CipType.DINT)
        head = {e: cip.encode_write_head(lo.wire_path(e), CipType.DINT, 1) for e in (0, 125)}
        assert planned(sc, 1.0).write_spans == [
            WriteSpan(("big", CipType.DINT), range(0, 1), head[0], [lo]),
            WriteSpan(("big", CipType.DINT), range(125, 126), head[125], [hi]),
        ]
        reads_before = sim.store.service_counts[cip.READ_DATA]
        writes_before = sim.store.service_counts[cip.WRITE_DATA]
        sc.write(lo, -1, immediate=False)
        sc.write(hi, -2, immediate=False)
        sc.flush("plc")
        # a 126-DINT span write exceeds the 500-byte limit: the group is cut
        # into two runs, so each dirty element is written alone, no gap read
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


@pytest.mark.parametrize("count", [120, 200])
def test_a_flush_of_dense_dint_outputs_takes_a_span_write_per_run(count):
    store = make_store()
    store.define("dense", CipType.DINT, list(range(count)))
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        subs = [
            sc.add_tag("plc", f"dense[{i}]", 1.0, direction="out", elem_type=CipType.DINT)
            for i in range(count)
        ]
        # the cost of one rule: 120 DINTs would fit one read, but their span
        # write would not, so the group is cut in two for reads too
        assert sc.plan_info("plc", 1.0) == [1, 1]
        sc._units["plc"].client.ensure_connected()
        for sub in subs:
            sc.write(sub, -sub.element - 1, immediate=False)
        before = sim.store.round_trips
        reads_before = sim.store.service_counts[cip.READ_DATA]
        sc.flush("plc")
        # every element is dirty, so no gap is read: two span writes
        assert sim.store.round_trips == before + 2
        assert sim.store.service_counts[cip.READ_DATA] == reads_before
        assert sim.store.get_tag("dense").elements == tuple(-i - 1 for i in range(count))
        assert all(not sub.dirty and sub.quality is Quality.OK for sub in subs)


def test_span_writes_across_a_cut_land_whole():
    store = make_store()
    store.define("big", CipType.DINT, list(range(200)))
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        subs = [
            sc.add_tag("plc", f"big[{i}]", 1.0, direction="out", elem_type=CipType.DINT)
            for i in (0, 100, 150, 199)
        ]
        assert [(key, elements[0], elements[-1], outputs) for key, elements, _head, outputs in
                planned(sc, 1.0).write_spans] == [
            (("big", CipType.DINT), 0, 100, subs[:2]), (("big", CipType.DINT), 150, 199, subs[2:])
        ]
        for sub in subs:
            sc.write(sub, -sub.element - 1, immediate=False)
        reads_before = sim.store.service_counts[cip.READ_DATA]
        writes_before = sim.store.service_counts[cip.WRITE_DATA]
        sc.flush("plc")
        # a cold cache, but every gap costs more than a write of its own:
        # one write per output, none with a gap to read first
        assert sim.store.service_counts[cip.READ_DATA] == reads_before
        assert sim.store.service_counts[cip.WRITE_DATA] == writes_before + 4
        expected = list(range(200))
        for i in (0, 100, 150, 199):
            expected[i] = -i - 1
        assert sim.store.get_tag("big").elements == tuple(expected)
        assert all(not sub.dirty and sub.quality is Quality.OK for sub in subs)


def test_a_flush_whose_list_read_fails_lands_on_the_next_flush(sim, caplog):
    sc = scanner_for(sim)
    lo = sc.add_tag("plc", "counts[0]", 1.0, direction="out", elem_type=CipType.DINT)
    hi = sc.add_tag("plc", "counts[4]", 1.0, direction="out", elem_type=CipType.DINT)
    sc.write(lo, 1, immediate=False)
    sc.write(hi, 2, immediate=False)
    sim.faults.error_inject[cip.READ_DATA] = cip.STATUS_PATH_UNKNOWN
    writes_before = sim.store.service_counts[cip.WRITE_DATA]
    with caplog.at_level(logging.INFO, logger="logixscan"):
        sc.flush("plc")
    # the span write cannot build on gaps it could not read: nothing sent
    assert sim.store.service_counts[cip.WRITE_DATA] == writes_before
    assert levels(caplog) == [logging.WARNING]
    assert "read failed" in caplog.records[0].getMessage()
    assert sc.stats("plc", 1.0).errors == 1
    for sub in (lo, hi):
        assert sub.dirty and sub.quality is Quality.ERROR
    sim.faults.error_inject.clear()
    sc.flush("plc")
    assert sim.store.get_tag("counts").elements == (1, 20, 30, 40, 2)
    for sub in (lo, hi):
        assert not sub.dirty and sub.quality is Quality.OK


@pytest.mark.parametrize("immediate", [False, True])
def test_a_drift_callback_that_writes_during_a_flushs_list_read_lands(sim, immediate):
    sc = scanner_for(sim)

    def put_back(sub, old, new):
        sc.write(sub, 5, immediate=immediate)

    watched = sc.add_tag(
        "plc", "counts[0]", 1.0, direction="out", elem_type=CipType.DINT, on_drift=put_back,
    )
    lo = sc.add_tag("plc", "counts[2]", 1.0, direction="out", elem_type=CipType.DINT)
    hi = sc.add_tag("plc", "counts[4]", 1.0, direction="out", elem_type=CipType.DINT)
    sc.write(watched, 1)  # written alone: the cache holds element 0 only
    sim.store.set_tag("counts[0]", 99)  # the PLC side changes it
    sc.write(lo, 7, immediate=False)
    sc.write(hi, 8, immediate=False)
    # the span write lacks elements 1 and 3: the flush reads the list,
    # which sees the drift, and the callback stages a write of its own
    sc.flush("plc")
    assert sim.store.get_tag("counts").elements == (5, 20, 7, 40, 8)
    for sub, value in ((watched, 5), (lo, 7), (hi, 8)):
        assert not sub.dirty and sub.quality is Quality.OK and sc.value_of(sub) == value


def test_a_drift_callback_write_is_not_undone_by_the_rest_of_its_cycle():
    store = make_store()
    store.define("vals", CipType.DINT, [10, 20, 30, 40])
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        vals = {}

        def write_one(sub, old, new):
            sc.write(vals[1], 7)

        sc.add_tag(
            "plc", "counts[0]", 1.0, direction="out", elem_type=CipType.DINT, on_drift=write_one,
        )
        for i in (1, 2, 3):
            vals[i] = sc.add_tag("plc", f"vals[{i}]", 1.0, direction="out", elem_type=CipType.DINT)
        # the watched output's read comes first in the one transfer
        assert sc.plan_info("plc", 1.0) == [2]
        sc.scan_once("plc")  # the baseline
        sim.store.set_tag("counts[0]", 99)
        sc.scan_once("plc")  # drifts: the callback writes vals[1]
        assert sim.store.get_tag("vals").elements == (10, 7, 30, 40)
        assert (sc.value_of(vals[1]), vals[1].quality) == (7, Quality.OK)
        # a span write of vals[1..3] carries vals[1] as the span cache holds it
        sc.write(vals[2], 8, immediate=False)
        sc.write(vals[3], 9, immediate=False)
        sc.flush("plc")
        assert sim.store.get_tag("vals").elements == (10, 7, 8, 9)
        assert all(sc.value_of(vals[i]) == v for i, v in ((1, 7), (2, 8), (3, 9)))


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
        client.round_trip = (
            lambda message, kept: sent.append(message) or round_trip(message, kept)
        )
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
    assert sc.stat_value("plc/phase") == "disconnected"
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


def test_a_flush_with_no_session_fails_its_dirty_outputs_and_lands_once_accepted():
    with PlcSim(make_store(), FaultPlan(refuse_sessions=True)) as sim:
        sc = scanner_for(sim, reconnect_period=0.05)
        dirty = sc.add_tag("plc", "counts[1]", 1.0, direction="out", elem_type=CipType.DINT)
        clean = sc.add_tag("plc", "counts[3]", 2.0, direction="out", elem_type=CipType.DINT)
        sc.write(dirty, 7)
        assert dirty.dirty and dirty.quality is Quality.ERROR
        assert clean.quality is Quality.STALE
        time.sleep(0.06)  # past reconnect_period: the flush tries again
        sc.flush("plc")
        assert dirty.dirty and dirty.quality is Quality.ERROR
        assert sim.store.service_counts[cip.WRITE_DATA] == 0
        assert sim.store.get_tag("counts").elements == (10, 20, 30, 40, 50)
        sim.faults.refuse_sessions = False
        time.sleep(0.06)
        sc.flush("plc")
        assert sim.store.get_tag("counts").elements == (10, 7, 30, 40, 50)
        assert not dirty.dirty and dirty.quality is Quality.OK and sc.value_of(dirty) == 7
        assert clean.quality is Quality.STALE


def test_a_flush_with_no_session_counts_one_error_per_list_it_fails(caplog):
    with PlcSim(make_store(), FaultPlan(refuse_sessions=True)) as sim:
        sc = scanner_for(sim, reconnect_period=0.05)
        out = sc.add_tag("plc", "counts[1]", 1.0, direction="out", elem_type=CipType.DINT)
        other = sc.add_tag("plc", "counts[3]", 2.0, direction="out", elem_type=CipType.DINT)
        sc.add_tag("plc", "counts[4]", 3.0, direction="out", elem_type=CipType.DINT)
        with caplog.at_level(logging.INFO, logger="logixscan"):
            for value in (1, 2, 3):  # each an immediate flush
                sc.write(out, value)
                assert out.dirty and out.quality is Quality.ERROR
            assert sc.stats("plc", 1.0).errors == 3
            assert levels(caplog) == [logging.WARNING] * 3
            assert all("not connected: register failed" in r.getMessage() for r in caplog.records)
            # one flush failing two lists' outputs: an error for each, one line
            sc.write(other, 5, immediate=False)
            sc.flush("plc")
        assert [sc.stats("plc", period).errors for period in (1.0, 2.0, 3.0)] == [4, 1, 0]
        assert levels(caplog) == [logging.WARNING] * 4
        assert sim.store.service_counts[cip.WRITE_DATA] == 0

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


def test_a_words_staged_value_and_its_bits_apply_in_subscription_order():
    # bout[3] staged True, then its DINT word bout[0] staged 1, in one
    # flush: the subscription added later applies last
    for word_first, held in ((True, 0b1001), (False, 0b0001)):
        with big_sim() as sim:
            sim.store.set_tag("bout[0]", 0b100000)  # the word, as the PLC holds it
            sc = scanner_for(sim)
            tags = [("bout[0]", dict(elem_type=CipType.DINT)), ("bout[3]", dict(bool_array=True))]
            subs = {
                tag: sc.add_tag("plc", tag, 1.0, direction="out", **kwargs)
                for tag, kwargs in (tags if word_first else tags[::-1])
            }
            word, bit = subs["bout[0]"], subs["bout[3]"]
            sc.scan_once("plc")
            sc.write(bit, True, immediate=False)
            sc.write(word, 1, immediate=False)
            sc.flush("plc")
            assert sim.store.get_tag("bout").elements == (held,), word_first
            assert not word.dirty and not bit.dirty

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


def test_own_write_does_not_drift():
    store = make_store()
    store.define("ints", CipType.INT, [1, 2])
    float32_of_0_1 = struct.unpack("<f", struct.pack("<f", 0.1))[0]
    # (tag, type, value written, value the PLC holds): a REAL goes out
    # float32-rounded, the unsigned top range as its two's complement
    cases = [
        ("counts[2]", CipType.DINT, 55, 55),
        ("TEST", CipType.REAL, 0.1, float32_of_0_1),
        ("counts[3]", CipType.DINT, 0xFFFFFFFF, -1),
        ("ints[1]", CipType.INT, 0xFFFF, -1),
    ]
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        for tag, elem_type, written, held in cases:
            events = []
            sub = sc.add_tag(
                "plc", tag, 1.0, direction="out", elem_type=elem_type,
                on_drift=lambda s, old, new: events.append((old, new)),
            )
            sc.scan_once("plc")
            sc.write(sub, written)
            assert sim.store.get_tag(tag).scalar == held
            assert sc.value_of(sub) == held and sub.quality is Quality.OK
            sc.scan_once("plc")  # readback equals what we wrote
            assert events == [], tag
            assert sc.value_of(sub) == held and sub.quality is Quality.OK


def test_a_nan_written_to_a_watched_output_does_not_drift():
    events = []
    store = make_store()
    store.define("reals", CipType.REAL, [1.0, 0.0])
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        sub = sc.add_tag(
            "plc", "reals[0]", 1.0, direction="out", elem_type=CipType.REAL,
            on_drift=lambda s, old, new: events.append((old.scalar, new.scalar)),
        )
        sc.scan_once("plc")
        sc.write(sub, math.nan)
        assert math.isnan(sim.store.get_tag("reals[0]").scalar)
        sc.scan_once("plc")  # the read-back of our own NaN
        sc.scan_once("plc")
        assert events == [] and sub.quality is Quality.OK
        sim.store.set_tag("reals[0]", 1.0)  # a real change on the PLC
        sc.scan_once("plc")
        sim.store.set_tag("reals[0]", 2.0)
        sc.scan_once("plc")
        sc.scan_once("plc")
        assert len(events) == 2 and math.isnan(events[0][0])
        assert events[0][1] == 1.0 and events[1] == (1.0, 2.0)


def test_a_watched_bool_array_output_drifts_on_a_plc_side_change_only():
    events = []
    with PlcSim(bits_store()) as sim:
        sc = scanner_for(sim)
        sub = sc.add_tag(
            "plc", "bits[3]", 1.0, direction="out", bool_array=True,
            on_drift=lambda s, old, new: events.append((s, old, new)),
        )
        sc.scan_once("plc")  # the first read-back is just a baseline
        assert sc.value_of(sub) is False and events == []
        sim.store.set_tag("bits[0]", 0b1001)  # bit 3 set on the PLC side
        sc.scan_once("plc")
        false, true = CipValue(CipType.BOOL, (False,)), CipValue(CipType.BOOL, (True,))
        assert events == [(sub, false, true)]
        assert sc.value_of(sub) is True and sub.quality is Quality.OK
        sc.write(sub, False)  # its own write lands: no drift
        sc.scan_once("plc")
        assert sim.store.get_tag("bits").elements[0] == 0b0001
        assert events == [(sub, false, true)]
        assert sc.value_of(sub) is False and sub.quality is Quality.OK


def test_a_drift_callback_that_raises_is_logged_and_the_later_ones_run(sim, caplog):
    events = []

    def raising(sub, old, new):
        raise RuntimeError("callback bug")

    sc = scanner_for(sim)
    first = sc.add_tag(
        "plc", "counts[1]", 1.0, direction="out", elem_type=CipType.DINT, on_drift=raising,
    )
    second = sc.add_tag(
        "plc", "counts[2]", 1.0, direction="out", elem_type=CipType.DINT,
        on_drift=lambda s, old, new: events.append((s, old.scalar, new.scalar)),
    )
    sc.scan_once("plc")
    sim.store.set_tag("counts", [10, 21, 31, 40, 50])
    with caplog.at_level(logging.INFO, logger="logixscan"):
        sc.scan_once("plc")
    assert events == [(second, 30, 31)]
    (record,) = caplog.records
    assert record.levelno == logging.ERROR
    assert record.getMessage() == "drift callback failed for counts[1]"
    assert record.exc_info[0] is RuntimeError
    assert sc.value_of(first) == 21 and first.quality is Quality.OK

def test_duplicate_output_subscriptions_settle_to_the_value_written(sim):
    sc = scanner_for(sim)
    first, second = (
        sc.add_tag("plc", "counts[2]", 1.0, direction="out", elem_type=CipType.DINT)
        for _ in range(2)
    )
    sc.write(first, 5, immediate=False)
    sc.write(second, 7, immediate=False)
    sc.flush("plc")
    assert sim.store.get_tag("counts").elements == (10, 20, 7, 40, 50)
    for sub in (first, second):
        assert not sub.dirty and sub.quality is Quality.OK and sc.value_of(sub) == 7


def test_unencodable_staged_value_fails_alone(sim, caplog):
    sc = scanner_for(sim)
    lo, mid, hi = (
        sc.add_tag("plc", f"counts[{i}]", 1.0, direction="out", elem_type=CipType.DINT)
        for i in (0, 2, 4)
    )
    real = sc.add_tag(
        "plc", "TEST", 1.0, direction="out", elem_type=CipType.REAL, coalesce=False
    )
    for sub, value in ((lo, 11), (mid, 1 << 40), (hi, 55), (real, 2.5)):
        sc.write(sub, value, immediate=False)
    with caplog.at_level(logging.WARNING, logger="logixscan.scanner"):
        sc.flush("plc")
    assert mid.quality is Quality.ERROR and not mid.dirty
    assert sc.stats("plc", 1.0).errors == 1
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert sim.store.get_tag("counts").elements == (11, 20, 30, 40, 55)
    assert sim.store.get_tag("TEST").scalar == 2.5
    for sub, value in ((lo, 11), (hi, 55), (real, 2.5)):
        assert not sub.dirty and sub.quality is Quality.OK and sc.value_of(sub) == value
    sc.flush("plc")  # nothing left to write, nothing raised
    assert sc.stats("plc", 1.0).errors == 1


def test_on_drift_is_fixed_at_construction(sim):
    sc = scanner_for(sim)
    sub = sc.add_tag("plc", "counts[2]", 1.0, direction="out", elem_type=CipType.DINT)
    with pytest.raises(AttributeError):
        sub.on_drift = lambda s, old, new: None
    assert sub.on_drift is None


def test_watched_and_unwatched_outputs_of_one_span():
    events = []
    with PlcSim(make_store()) as sim:
        sc = scanner_for(sim)
        watched = sc.add_tag(
            "plc", "counts[1]", 1.0, direction="out", elem_type=CipType.DINT,
            on_drift=lambda s, old, new: events.append((s, old.scalar, new.scalar)),
        )
        unwatched = sc.add_tag(
            "plc", "counts[3]", 1.0, direction="out", elem_type=CipType.DINT
        )
        (op,), _request = planned(sc, 1.0).transfers[0]
        assert op.typed_targets == [(unwatched, 2)]
        assert op.checked_targets == [(watched, 0, None)]
        cache = sc._units["plc"].span_cache
        for counts in ((10, 20, 30, 40, 50), (10, 21, 30, 41, 50), (10, 22, 30, 42, 50)):
            sim.store.set_tag("counts[1]", counts[1])
            sim.store.set_tag("counts[3]", counts[3])
            started = time.time()
            sc.scan_once("plc")
            for sub in (watched, unwatched):
                assert sub.quality is Quality.OK and sub.timestamp >= started
                assert sc.value_of(sub) == counts[sub.element]
            assert cache[("counts", CipType.DINT)] == {1: counts[1], 2: 30, 3: counts[3]}
        assert events == [(watched, 20, 21), (watched, 21, 22)]


def test_a_planned_flush_encodes_no_path(monkeypatch):
    store = make_store()
    store.define("wout", CipType.DINT, list(range(40)))
    store.define("bout", CipType.BOOL, [False] * 64)
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        words = [
            sc.add_tag("plc", f"wout[{i}]", 1.0, direction="out", elem_type=CipType.DINT)
            for i in range(40)
        ]
        bits = [
            sc.add_tag("plc", f"bout[{i}]", 1.0, direction="out", bool_array=True)
            for i in range(64)
        ]
        solo = sc.add_tag(
            "plc", "TEST", 1.0, direction="out", elem_type=CipType.REAL, coalesce=False
        )
        sc.scan_once("plc")  # plans, and warms the span cache
        encoded = []
        encode_epath = cip.encode_epath
        monkeypatch.setattr(
            cip, "encode_epath", lambda path: encoded.append(path) or encode_epath(path)
        )
        staged = [(words[i], -i) for i in range(0, 40, 4)]
        staged += [(bits[i], True) for i in range(0, 64, 4)]  # both DINT words
        staged += [(solo, 2.5)]  # a lone output: its head too is planned
        for sub, value in staged:
            sc.write(sub, value, immediate=False)
        sc.flush("plc")
        sc.scan_once("plc")
        assert encoded == []
        for sub, value in staged:
            assert not sub.dirty and sub.quality is Quality.OK and sc.value_of(sub) == value


# ---------------------------------------------------------------------------
# repeated replies

def test_a_repeated_reply_builds_no_value(monkeypatch):
    store = wide_store()
    store.define("ints", CipType.DINT, [7, -8])
    with PlcSim(store) as sim:
        sc = scanner_for(sim)
        subs = [sc.add_tag("plc", f"wide[{i}]", 1.0, elem_type=CipType.REAL) for i in range(50)]
        subs += [sc.add_tag("plc", f"ints[{i}]", 1.0, elem_type=CipType.DINT) for i in (0, 1)]
        subs += [sc.add_tag("plc", f"bits[{i}]", 1.0, bool_array=True) for i in (5, 6, 160)]
        built, decoded = [], []
        monkeypatch.setattr(
            cycle_module, "CipValue", lambda *args: built.append(args) or CipValue(*args)
        )
        parse_read_reply = cip.parse_read_reply
        monkeypatch.setattr(
            cip, "parse_read_reply", lambda resp: decoded.append(resp) or parse_read_reply(resp)
        )
        sc.scan_once("plc")
        assert len(built) == 52 and len(decoded) == 3
        first = [(sub.value, sub.timestamp) for sub in subs]
        built.clear(), decoded.clear()
        sc.scan_once("plc")
        assert built == [] and decoded == []
        for sub, (value, timestamp) in zip(subs, first):
            assert sub.quality is Quality.OK and sub.timestamp > timestamp
            assert sub.value is value
        assert [sc.value_of(s) for s in subs[50:]] == [7, -8, True, False, True]


def test_a_repeated_reply_after_an_error_cycle_reads_ok_again():
    faults = FaultPlan()
    with PlcSim(make_store(), faults=faults) as sim:
        sc = scanner_for(sim)
        sub = sc.add_tag("plc", "counts[2]", 1.0, elem_type=CipType.DINT)
        sc.scan_once("plc")
        faults.error_inject[cip.READ_DATA] = cip.STATUS_PATH_UNKNOWN
        sc.scan_once("plc")
        assert sub.quality is Quality.ERROR and sc.value_of(sub) == 30
        failed_at = sub.timestamp
        faults.error_inject.clear()
        started = time.time()
        sc.scan_once("plc")  # the reply of the cycle before the error, byte for byte
        assert sub.quality is Quality.OK and sc.value_of(sub) == 30
        assert sub.timestamp >= started > failed_at


def test_a_sign_bit_change_of_a_real_updates_its_cell(sim):
    sc = scanner_for(sim)
    sim.store.set_tag("TEST", 0.0)
    sub = sc.add_tag("plc", "TEST", 1.0, elem_type=CipType.REAL)
    sc.scan_once("plc")
    assert math.copysign(1.0, sc.value_of(sub)) == 1.0
    sim.store.set_tag("TEST", -0.0)  # equal as a float, not as bytes
    sc.scan_once("plc")
    assert math.copysign(1.0, sc.value_of(sub)) == -1.0 and sub.quality is Quality.OK


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


def test_client_state_stat_paths_follow_a_dropping_session():
    with PlcSim(make_store(), FaultPlan(drop_after=2)) as sim:
        sc = scanner_for(sim, reconnect_period=0.05)
        sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.DINT)

        def client_state():
            return [sc.stat_value(f"plc/{item}")
                    for item in ("phase", "reconnects", "consecutive_errors")]

        assert client_state() == ["disconnected", 0, 0]
        sc.scan_once("plc")  # connects; the session's first data request lands
        assert client_state() == ["registered", 1, 0]
        sc.scan_once("plc")  # its second drops the session
        assert client_state() == ["disconnected", 1, 1]
        time.sleep(0.06)
        sc.scan_once("plc")  # connects again, and lands
        assert client_state() == ["registered", 2, 0]
        with pytest.raises(KeyError):
            sc.stat_value("plc/bogus")
        with pytest.raises(KeyError):
            sc.stat_value("nope/phase")


def test_a_raising_on_sample_hook_leaves_the_worker_scanning(sim, caplog):
    sc = scanner_for(sim)
    sc.add_tag("plc", "counts[0]", 0.05, elem_type=CipType.DINT)
    samples = []

    def on_sample(wall_ms, period_ms, transfer_ms):
        samples.append(period_ms)
        raise RuntimeError("hook failed")

    sc.on_sample = on_sample
    with caplog.at_level(logging.ERROR, logger="logixscan"):
        sc.start()
        deadline = time.monotonic() + 5.0
        while sc.stats("plc", 0.05).count < 5 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert sc.stats("plc", 0.05).count >= 5  # cycles go on while the hook raises
        assert sc._units["plc"].thread.is_alive()
        sc.stop()
    assert len(samples) >= 5 and set(samples) == {50}
    assert "on_sample failed" in caplog.text


def test_last_transfer_stat_path_serves_the_clients_last_round_trip():
    with PlcSim(make_store(), FaultPlan(latency_s=0.05)) as sim:
        sc = scanner_for(sim)
        sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.DINT)
        assert sc.stat_value("plc/last_transfer_ms") is None  # no round trip yet
        sc.scan_once("plc")
        client = sc._units["plc"].client
        last_ms = sc.stat_value("plc/last_transfer_ms")
        assert last_ms >= 50.0
        assert last_ms == pytest.approx(client.last_transfer_s * 1000.0)


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


class ParkedWake(threading.Event):
    """A worker's wake event that holds the worker at its first wait until
    `release()`, then records whether that wait was woken."""

    def __init__(self):
        super().__init__()
        self.parked = threading.Event()
        self.released = threading.Event()
        self.woken = None

    def wait(self, timeout=None):
        if self.parked.is_set():
            return super().wait(timeout)
        self.parked.set()
        self.released.wait(5.0)
        self.woken = super().wait(timeout)
        return self.woken

    def release(self):
        self.released.set()


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


def test_a_list_added_while_the_worker_waits_is_scanned_at_once(sim):
    sc = scanner_for(sim)
    sc.add_tag("plc", "counts[0]", 10.0, elem_type=CipType.DINT)
    wake = sc._units["plc"].wake = ParkedWake()
    sc.start()
    try:
        assert wake.parked.wait(5.0), "the worker never waited"
        late = sc.add_tag("plc", "counts[4]", 0.05, elem_type=CipType.DINT)  # a new list
        wake.release()
        deadline = time.monotonic() + 2.0
        while sc.value_of(late) is None:
            assert time.monotonic() < deadline, "late list never scanned"
            time.sleep(0.01)
        # the new list cut the worker's wait short: it did not wait out its
        # timeout first
        assert wake.woken is True
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


def test_a_value_staged_from_another_thread_during_a_flush_waits_for_the_next():
    # a flush under way on the worker settles what it built; a newer value
    # staged meanwhile from another thread must stay dirty, not be settled
    with PlcSim(make_store(), FaultPlan(latency_s=0.3)) as sim:
        sc = scanner_for(sim)
        sub = sc.add_tag("plc", "counts[1]", 10.0, direction="out", elem_type=CipType.DINT)
        sc.start()
        try:
            flushing = threading.Thread(target=sc.write, args=(sub, 1))
            flushing.start()
            deadline = time.monotonic() + 5
            while not sub.dirty:  # staged on the worker: its flush is under way
                assert time.monotonic() < deadline, "the flush never started"
                time.sleep(0.001)
            sc.write(sub, 2, immediate=False)
            flushing.join(5)
            assert not flushing.is_alive()
            assert sim.store.get_tag("counts[1]").scalar == 1
            assert sub.dirty and sub.pending == 2
            sc.flush("plc")
            assert sim.store.get_tag("counts[1]").scalar == 2 and not sub.dirty
        finally:
            sc.stop()


def test_drift_callback_may_write_back_while_running(sim):
    # the callback runs on the worker thread, which holds the PLC's lock
    # that write() takes again
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


def run_together(*jobs, timeout=30.0):
    """Run each job on a thread of its own, all released at once and
    switching often; returns the exceptions they raised."""
    start = threading.Barrier(len(jobs), timeout=timeout)
    raised = []

    def run(job):
        try:
            start.wait()
            job()
        except Exception as exc:
            raised.append(exc)

    threads = [threading.Thread(target=run, args=(job,)) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return raised


def test_two_threads_scanning_two_lists_of_one_plc_store_only_their_own_replies():
    # with no worker started, each scan_once runs on its caller's thread,
    # and the two threads share the PLC's one session
    with PlcSim(make_store(), FaultPlan(latency_s=0.005)) as sim:
        sc = scanner_for(sim)
        first = sc.add_tag("plc", "counts[0]", 1.0, elem_type=CipType.DINT)
        fourth = sc.add_tag("plc", "counts[3]", 2.0, elem_type=CipType.DINT)
        wrong = []

        def scan(period_s, sub, expected):
            for _ in range(30):
                sc.scan_once("plc", period_s)
                value, _stamp, quality = sc.snapshot(sub)
                if quality is not Quality.OK or value.scalar != expected:
                    wrong.append((format_tag(sub.ref), value, quality))

        assert run_together(
            lambda: scan(1.0, first, 10), lambda: scan(2.0, fourth, 40)
        ) == []
        assert wrong == []
        for period_s in (1.0, 2.0):
            stats = sc.stats("plc", period_s)
            assert (stats.count, stats.errors) == (30, 0)


def test_user_threads_write_flush_and_scan_beside_the_worker(sim):
    sc = scanner_for(sim)
    now = sc.add_tag("plc", "counts[0]", 0.01, direction="out", elem_type=CipType.DINT)
    staged = sc.add_tag("plc", "counts[1]", 0.01, direction="out", elem_type=CipType.DINT)
    sc.add_tag("plc", "counts[4]", 0.02, elem_type=CipType.DINT)
    lost = []

    def write_now():
        for value in range(100, 130):
            sc.write(now, value)
            if sim.store.get_tag("counts[0]").scalar != value:
                lost.append(("counts[0]", value))

    def stage_and_flush():
        for value in range(200, 230):
            sc.write(staged, value, immediate=False)
            sc.flush("plc")
            if sim.store.get_tag("counts[1]").scalar != value:
                lost.append(("counts[1]", value))

    def scan():
        for _ in range(30):
            sc.scan_once("plc")

    sc.start()
    assert run_together(write_now, stage_and_flush, scan) == []
    assert lost == []
    assert sc.stat_value("plc/consecutive_errors") == 0
    sc.scan_once("plc")
    assert (sc.value_of(now), sc.value_of(staged)) == (129, 229)
    assert not (now.dirty or staged.dirty)
    assert sc.stats("plc", 0.01).errors == sc.stats("plc", 0.02).errors == 0


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


@pytest.mark.parametrize("period,fragment", [
    *((p, "period needs a finite number") for p in ("nan", "NaN", "inf", "-inf", "infinity", "1e999")),
    ("0", "period must be positive, not 0"),
    ("-5", "period must be positive, not -5"),
])
def test_a_period_that_is_not_positive_and_finite_is_refused(period, fragment):
    text = f"plc main 1.2.3.4 slot=0\ntag main x period={period} dir=in\n"
    with pytest.raises(ConfigError) as info:
        parse_scan_config(text)
    assert "line 2" in str(info.value)
    assert fragment in str(info.value)


@pytest.mark.parametrize("period_s", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_add_tag_refuses_a_period_that_is_not_positive_and_finite(period_s):
    # a NaN period never comes due again once scanned, and an infinite one
    # never does: the list would stop scanning with no overrun or error
    sc = new_scanner()
    sc.add_plc("plc", PlcEndpoint("127.0.0.1"))
    with pytest.raises(ValueError, match="period must be positive and finite"):
        sc.add_tag("plc", "x", period_s)
    assert sc._units["plc"].lists == {}


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
