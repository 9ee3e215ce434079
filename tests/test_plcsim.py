"""Simulator behavior: tag store, CIP dispatch, TCP sessions, fault plan."""

import random
import socket
import struct
import threading
import time

import pytest

from logixscan import cip, encap, plcsim
from logixscan.cip import (
    Attribute,
    CipRequest,
    CipType,
    CipValue,
    Epath,
    Instance,
    ObjectClass,
    Symbol,
    build_get_attribute_single,
    decode_response,
    encode_request,
    parse_read_response,
    parse_short_string,
)
from logixscan.client import PlcError
from logixscan.plcsim import (
    CipEngine,
    FaultPlan,
    PlcSim,
    SimError,
    TagStore,
    load_tag_file,
    parse_tag_file,
)
from logixscan.tags import parse_tag, to_epath

from conftest import connect_to, make_store
from reference import build_read_request, wrap_unconnected_send


# ---------------------------------------------------------------------------
# tag store

def test_define_and_get():
    store = make_store()
    value = store.get_tag("TEST")
    assert value.type is CipType.REAL
    assert value.elements == pytest.approx((0.0028152466,), abs=1e-9)


def test_reals_snap_to_float32():
    store = TagStore()
    store.define("x", CipType.REAL, [0.1])
    stored = store.get_tag("x").scalar
    assert stored == struct.unpack("<f", struct.pack("<f", 0.1))[0]
    assert stored != 0.1  # 0.1 is not representable in 32 bits


def test_bool_array_stored_as_packed_dints():
    bits = [False] * 352
    bits[5] = bits[160] = bits[191] = True
    store = TagStore()
    store.define("test", CipType.BOOL, bits)
    stored = store.get_tag("test")
    assert stored.type is CipType.DINT
    assert len(stored.elements) == 11
    assert stored.elements[0] == 1 << 5
    # bits 160 and 191 live in word 5, offsets 0 and 31; bit 31 makes it negative
    word5 = stored.elements[5] & 0xFFFFFFFF
    assert word5 == (1 << 0) | (1 << 31)
    assert stored.elements[5] < 0


def test_scalar_bool_stays_bool():
    store = make_store()
    assert store.get_tag("flag").type is CipType.BOOL


def test_set_tag_element_and_whole():
    store = make_store()
    store.set_tag("counts[2]", 99)
    assert store.get_tag("counts").elements == (10, 20, 99, 40, 50)
    store.set_tag("counts", [1, 2, 3, 4, 5])
    assert store.get_tag("counts").elements == (1, 2, 3, 4, 5)


def test_set_tag_errors():
    store = make_store()
    with pytest.raises(SimError):
        store.set_tag("nope", 1)
    with pytest.raises(SimError):
        store.set_tag("counts[9]", 1)
    with pytest.raises(SimError):
        store.set_tag("counts", [1, 2])  # length mismatch
    with pytest.raises(SimError):
        store.define("counts[3]", CipType.DINT, [0])  # no subscripts in definitions


def test_store_read_write_statuses():
    store = make_store()
    assert store.read("nope", None, 1) == cip.STATUS_PATH_UNKNOWN
    assert store.read("counts", 4, 2) == cip.STATUS_PATH_SEGMENT_ERROR
    assert store.write("counts", None, CipValue(CipType.REAL, (1.0,))) == \
        cip.STATUS_INVALID_PARAMETER
    assert store.write("counts", 3, CipValue(CipType.DINT, (7, 8, 9))) == \
        cip.STATUS_PATH_SEGMENT_ERROR
    assert store.write("counts", 3, CipValue(CipType.DINT, (7, 8))) == cip.STATUS_OK
    assert store.get_tag("counts").elements == (10, 20, 30, 7, 8)


# ---------------------------------------------------------------------------
# CIP engine

def engine(limit=500, **fault_kwargs):
    return CipEngine(make_store(limit), FaultPlan(**fault_kwargs))


def serve_cip(eng, request: CipRequest) -> bytes:
    return eng.handle(encode_request(request), {})


def test_read_reply_bytes():
    raw = serve_cip(engine(), build_read_request(to_epath(parse_tag("TEST")), 1))
    assert raw == bytes.fromhex("cc 00 00 00 ca 00 00 80 38 3b")
    value = parse_read_response(decode_response(raw))
    assert value.scalar == pytest.approx(0.00281524658203125, abs=1e-12)


def test_read_element_slice():
    req = build_read_request(to_epath(parse_tag("counts[2]")), 2)
    value = parse_read_response(decode_response(serve_cip(engine(), req)))
    assert value.type is CipType.DINT
    assert value.elements == (30, 40)


def test_write_then_read():
    eng = engine()
    req = cip.decode_request(cip.encode_write_request(
        to_epath(parse_tag("counts[1]")), CipValue(CipType.DINT, (-7,))
    ))
    resp = decode_response(serve_cip(eng, req))
    assert resp.ok
    assert eng.store.get_tag("counts").elements == (10, -7, 30, 40, 50)


@pytest.mark.parametrize("tag,elements,status", [
    ("nothere", 1, cip.STATUS_PATH_UNKNOWN),
    ("counts[4]", 2, cip.STATUS_PATH_SEGMENT_ERROR),
    ("counts[9]", 1, cip.STATUS_PATH_SEGMENT_ERROR),
])
def test_read_error_statuses(tag, elements, status):
    req = build_read_request(to_epath(parse_tag(tag)), elements)
    resp = decode_response(serve_cip(engine(), req))
    assert resp.general_status == status


def test_write_type_mismatch():
    req = cip.decode_request(cip.encode_write_request(
        to_epath(parse_tag("counts")), CipValue(CipType.REAL, (1.0,))
    ))
    resp = decode_response(serve_cip(engine(), req))
    assert resp.general_status == cip.STATUS_INVALID_PARAMETER


def test_unknown_service():
    raw = serve_cip(engine(), CipRequest(0x63, to_epath(parse_tag("TEST"))))
    resp = decode_response(raw)
    assert resp.service_reply == 0x63 | cip.REPLY_FLAG
    assert resp.general_status == cip.STATUS_SERVICE_NOT_SUPPORTED


def test_identity_product_name():
    raw = serve_cip(engine(), build_get_attribute_single(cip.CLASS_IDENTITY, 1, cip.ATTR_PRODUCT_NAME))
    resp = decode_response(raw)
    assert resp.ok
    assert parse_short_string(resp) == "1756-ENET/A "


def test_identity_fixed_attributes():
    eng = engine()
    for attr, size in ((1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 4)):
        path = Epath((ObjectClass(cip.CLASS_IDENTITY), Instance(1), Attribute(attr)))
        resp = decode_response(serve_cip(eng, CipRequest(cip.GET_ATTRIBUTE_SINGLE, path)))
        assert resp.ok and len(resp.payload) == size
    path = Epath((ObjectClass(cip.CLASS_IDENTITY), Instance(1), Attribute(99)))
    resp = decode_response(serve_cip(eng, CipRequest(cip.GET_ATTRIBUTE_SINGLE, path)))
    assert resp.general_status == cip.STATUS_ATTRIBUTE_NOT_SUPPORTED


def test_get_attribute_on_unknown_object():
    path = Epath((ObjectClass(0x99), Instance(1), Attribute(1)))
    resp = decode_response(serve_cip(engine(), CipRequest(cip.GET_ATTRIBUTE_SINGLE, path)))
    assert resp.general_status == cip.STATUS_PATH_UNKNOWN


def test_error_injection():
    eng = engine(error_inject={cip.READ_DATA: cip.STATUS_PATH_UNKNOWN})
    resp = decode_response(serve_cip(eng, build_read_request(to_epath(parse_tag("TEST")), 1)))
    assert resp.general_status == cip.STATUS_PATH_UNKNOWN


def test_malformed_reads_fault_cuts_a_read_replys_last_data_byte():
    eng = engine(malformed_reads=True)
    raw = serve_cip(eng, build_read_request(to_epath(parse_tag("counts[1]")), 2))
    # a well-framed OK reply whose data is not whole DINTs
    assert raw == bytes.fromhex("cc 00 00 00 c4 00 14000000 1e0000")
    with pytest.raises(cip.CipError, match="not a multiple"):
        parse_read_response(decode_response(raw))


def test_unconnected_send_is_transparent():
    eng = engine()
    inner = build_read_request(to_epath(parse_tag("TEST")), 1)
    bare = serve_cip(eng, inner)
    wrapped = serve_cip(eng, wrap_unconnected_send(inner, slot=0))
    assert wrapped == bare


def test_unconnected_send_bad_slot():
    eng = engine()
    inner = build_read_request(to_epath(parse_tag("TEST")), 1)
    resp = decode_response(serve_cip(eng, wrap_unconnected_send(inner, slot=3)))
    assert resp.general_status == cip.STATUS_CONNECTION_FAILURE
    assert resp.extended_status == (cip.EXT_INVALID_LINK,)


def test_route_depth_guard():
    eng = engine()
    req = build_read_request(to_epath(parse_tag("TEST")), 1)
    for _ in range(6):
        req = wrap_unconnected_send(req, slot=0)
    resp = decode_response(serve_cip(eng, req))
    assert resp.general_status == cip.STATUS_NO_RESOURCES


def test_multi_request_dispatch():
    eng = engine()
    multi = cip.decode_request(cip.encode_multi_request([
        cip.encode_request(build_read_request(to_epath(parse_tag("TEST")), 1)),
        cip.encode_request(build_read_request(to_epath(parse_tag("counts")), 5)),
    ]))
    resp = decode_response(serve_cip(eng, multi))
    assert resp.ok
    inner = cip.split_multi_response(resp, 2)
    assert parse_read_response(inner[0]).type is CipType.REAL
    assert parse_read_response(inner[1]).elements == (10, 20, 30, 40, 50)


def test_multi_request_partial_failure():
    eng = engine()
    multi = cip.decode_request(cip.encode_multi_request([
        cip.encode_request(build_read_request(to_epath(parse_tag("TEST")), 1)),
        cip.encode_request(build_read_request(to_epath(parse_tag("missing")), 1)),
    ]))
    resp = decode_response(serve_cip(eng, multi))
    assert resp.general_status == cip.STATUS_EMBEDDED_SERVICE_ERROR
    inner = cip.split_multi_response(resp, 2)
    assert inner[0].ok
    assert inner[1].general_status == cip.STATUS_PATH_UNKNOWN


def test_multi_request_items_decode_once(monkeypatch):
    eng = engine()
    decoded = []
    decode_epath = cip.decode_epath
    monkeypatch.setattr(cip, "decode_epath", lambda data: decoded.append(1) or decode_epath(data))
    reads = [build_read_request(to_epath(parse_tag(t)), 1) for t in ("TEST", "counts", "flag")]
    multi = cip.encode_multi_request([cip.encode_request(r) for r in reads])
    resp = decode_response(eng.handle(multi, {}))
    assert [r.ok for r in cip.split_multi_response(resp, 3)] == [True] * 3
    assert len(decoded) == 1 + len(reads)  # the envelope's path, then each item's
    assert eng.store.service_counts[cip.READ_DATA] == 3


def test_multi_request_with_a_malformed_item_serves_none():
    eng = engine(error_inject={cip.WRITE_DATA: cip.STATUS_PATH_UNKNOWN})
    good = encode_request(build_read_request(to_epath(parse_tag("TEST")), 1))
    truncated = bytes((cip.READ_DATA, 3, 0x91, 4)) + b"TE"
    for items in ([good, truncated], [truncated, good]):
        resp = decode_response(eng.handle(
            cip.encode_multi_request(items), {}
        ))
        assert resp.service_reply == cip.MULTI_REQUEST | cip.REPLY_FLAG
        assert resp.general_status == cip.STATUS_NOT_ENOUGH_DATA
    assert eng.store.service_counts[cip.READ_DATA] == 0
    assert eng.store.service_counts[cip.MULTI_REQUEST] == 2
    # error injection still applies to each embedded service alone
    write = cip.encode_write_request(to_epath(parse_tag("counts")), CipValue(CipType.DINT, (1,)))
    multi = cip.decode_request(cip.encode_multi_request([good, write]))
    inner = cip.split_multi_response(decode_response(serve_cip(eng, multi)), 2)
    assert inner[0].ok and inner[1].general_status == cip.STATUS_PATH_UNKNOWN
    assert eng.store.service_counts[cip.WRITE_DATA] == 1


def test_forward_close_names_serial_vendor_and_originator():
    eng = engine()
    connections = {}
    params = cip.ForwardOpenParams(slot=0, t_to_o_id=0xBEEF, serial=0x1234)
    resp = decode_response(eng.handle(encode_request(cip.build_forward_open(params)), connections))
    grant = cip.parse_forward_open_reply(resp)
    assert grant.serial == 0x1234  # echoed, as a controller does
    identity = (0x1234, cip.ORIGINATOR_VENDOR, cip.ORIGINATOR_SERIAL)
    close = cip.build_forward_close(0, 0x1234)
    for stray in (
        cip.build_forward_close(0, 0x1235),
        CipRequest(close.service, close.path,
                   close.payload[:4] + b"\x4e\x00" + close.payload[6:]),  # vendor
        CipRequest(close.service, close.path,
                   close.payload[:6] + b"\x02\x00\xad\x13" + close.payload[10:]),
    ):
        assert decode_response(eng.handle(encode_request(stray), connections)).ok
        assert list(connections) == [grant.o_to_t_id]
    reply = decode_response(eng.handle(encode_request(close), connections))
    assert connections == {}
    assert struct.unpack("<HHIBB", reply.payload) == identity + (0, 0)


def test_request_over_limit_rejected():
    eng = engine(limit=500)
    big = cip.encode_write_request(
        to_epath(parse_tag("counts")), CipValue(CipType.DINT, tuple(range(130)))
    )
    assert len(big) > 500
    resp = decode_response(eng.handle(big, {}))
    assert resp.general_status == cip.STATUS_REQUEST_TOO_LARGE


def test_reply_over_limit_rejected():
    store = TagStore(limit=500)
    store.define("wide", CipType.REAL, [0.0] * 130)
    eng = CipEngine(store, FaultPlan())
    req = build_read_request(to_epath(parse_tag("wide")), 124)
    resp = decode_response(eng.handle(encode_request(req), {}))
    assert resp.general_status == cip.STATUS_REPLY_TOO_LARGE
    # one element fewer fits: 4 + 2 + 4 * 123 = 498
    req = build_read_request(to_epath(parse_tag("wide")), 123)
    assert decode_response(eng.handle(encode_request(req), {})).ok


def test_forward_open_and_close_manage_connections():
    eng = engine()
    connections = {}
    params = cip.ForwardOpenParams(slot=0, t_to_o_id=0xBEEF, serial=0x1234)
    resp = decode_response(eng.handle(encode_request(cip.build_forward_open(params)), connections))
    grant = cip.parse_forward_open_reply(resp)
    assert grant.t_to_o_id == 0xBEEF
    assert list(connections) == [grant.o_to_t_id]
    close = cip.build_forward_close(0, grant.serial)
    assert decode_response(eng.handle(encode_request(close), connections)).ok
    assert connections == {}


def test_garbage_never_crashes_engine():
    eng = engine()
    rng = random.Random(0xD15EA5E)
    good = encode_request(build_read_request(to_epath(parse_tag("TEST")), 1))
    for _ in range(2000):
        if rng.random() < 0.5:
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
        else:
            mutated = bytearray(good)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            data = bytes(mutated)
        raw = eng.handle(data, {})
        decode_response(raw)  # reply is always a parseable CIP response


# ---------------------------------------------------------------------------
# TCP sessions

def read_packet(sock):
    header = encap.decode_header(recv_exact(sock, encap.HEADER_SIZE))
    return header, recv_exact(sock, header.payload_length)


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed")
        buf += chunk
    return buf


def open_session(sim):
    sock = socket.create_connection((sim.host, sim.port), timeout=3)
    sock.sendall(encap.build_register_session())
    header, payload = read_packet(sock)
    handle = encap.parse_register_reply(header, payload)
    return sock, handle


def closed_by_peer(sock) -> bool:
    sock.settimeout(3)
    try:
        return sock.recv(1) == b""
    except ConnectionError:
        return True


def test_register_session_over_tcp(sim):
    sock, handle = open_session(sim)
    assert handle != 0
    sock.close()


def test_refused_sessions():
    with PlcSim(make_store(), FaultPlan(refuse_sessions=True)) as sim:
        sock = socket.create_connection((sim.host, sim.port), timeout=3)
        sock.sendall(encap.build_register_session())
        header, _ = read_packet(sock)
        assert header.status == encap.STATUS_NO_RESOURCES
        sock.close()


def test_rr_data_round_trip(sim):
    sock, handle = open_session(sim)
    request = encode_request(
        wrap_unconnected_send(build_read_request(to_epath(parse_tag("TEST")), 1), slot=0)
    )
    sock.sendall(encap.build_rr_data(handle, request, b"ctx00001"))
    header, payload = read_packet(sock)
    assert header.status == encap.STATUS_OK
    assert header.sender_context == b"ctx00001"
    value = parse_read_response(decode_response(encap.parse_rr_data(payload)))
    assert value.type is CipType.REAL
    sock.close()


def test_data_before_register_rejected(sim):
    sock = socket.create_connection((sim.host, sim.port), timeout=3)
    sock.sendall(encap.build_rr_data(0x1234, b"\x00"))
    header, _ = read_packet(sock)
    assert header.status == encap.STATUS_INVALID_SESSION
    sock.close()


def test_wrong_session_handle_rejected(sim):
    sock, handle = open_session(sim)
    sock.sendall(encap.build_rr_data(handle + 1, b"\x00"))
    header, _ = read_packet(sock)
    assert header.status == encap.STATUS_INVALID_SESSION
    sock.close()


def test_unknown_command_status(sim):
    sock, handle = open_session(sim)
    packet = encap.encode_packet(encap.EncapsHeader(0x0004, session_handle=handle))
    sock.sendall(packet)
    header, _ = read_packet(sock)
    assert header.status == encap.STATUS_INVALID_COMMAND
    sock.close()


def test_malformed_cpf_drops_connection(sim):
    sock, handle = open_session(sim)
    packet = encap.encode_packet(
        encap.EncapsHeader(encap.CMD_SEND_RR_DATA, session_handle=handle),
        b"\x01\x02\x03",
    )
    sock.sendall(packet)
    assert closed_by_peer(sock)
    sock.close()


def test_unknown_connection_id_drops_connection(sim):
    sock, handle = open_session(sim)
    packet = encap.build_unit_data(handle, 0xDEAD_BEEF, 1, b"\x00")
    sock.sendall(packet)
    assert closed_by_peer(sock)
    sock.close()


def test_drop_after_counts_data_requests():
    with PlcSim(make_store(), FaultPlan(drop_after=2)) as sim:
        sock, handle = open_session(sim)
        request = encode_request(
            wrap_unconnected_send(build_read_request(to_epath(parse_tag("TEST")), 1), slot=0)
        )
        sock.sendall(encap.build_rr_data(handle, request))
        header, _ = read_packet(sock)
        assert header.status == encap.STATUS_OK
        sock.sendall(encap.build_rr_data(handle, request))
        assert closed_by_peer(sock)
        sock.close()


def test_latency_fault_delays_data():
    with PlcSim(make_store(), FaultPlan(latency_s=0.1)) as sim:
        sock, handle = open_session(sim)
        request = encode_request(
            wrap_unconnected_send(build_read_request(to_epath(parse_tag("TEST")), 1), slot=0)
        )
        started = time.monotonic()
        sock.sendall(encap.build_rr_data(handle, request))
        read_packet(sock)
        assert time.monotonic() - started >= 0.1
        sock.close()


def test_round_trip_counter(sim):
    before = sim.store.round_trips
    sock, handle = open_session(sim)
    request = encode_request(
        wrap_unconnected_send(build_read_request(to_epath(parse_tag("TEST")), 1), slot=0)
    )
    for _ in range(3):
        sock.sendall(encap.build_rr_data(handle, request))
        read_packet(sock)
    assert sim.store.round_trips == before + 3
    sock.close()


def test_connected_exchange_over_tcp(sim):
    sock, handle = open_session(sim)
    params = cip.ForwardOpenParams(slot=0, t_to_o_id=0x4000_0001, serial=0x77)
    sock.sendall(encap.build_rr_data(handle, encode_request(cip.build_forward_open(params))))
    _, payload = read_packet(sock)
    grant = cip.parse_forward_open_reply(decode_response(encap.parse_rr_data(payload)))

    request = encode_request(build_read_request(to_epath(parse_tag("counts")), 5))
    sock.sendall(encap.build_unit_data(handle, grant.o_to_t_id, 41, request))
    header, payload = read_packet(sock)
    assert header.command == encap.CMD_SEND_UNIT_DATA
    conn_id, sequence, message = encap.parse_unit_data(payload)
    assert conn_id == grant.t_to_o_id
    assert sequence == 41
    assert parse_read_response(decode_response(message)).elements == (10, 20, 30, 40, 50)
    sock.close()


def test_close_idle_expires_connections():
    with PlcSim(make_store(), FaultPlan(close_idle_after_s=0.1)) as sim:
        sock, handle = open_session(sim)
        params = cip.ForwardOpenParams(slot=0, t_to_o_id=0x4000_0002, serial=0x78)
        sock.sendall(encap.build_rr_data(handle, encode_request(cip.build_forward_open(params))))
        _, payload = read_packet(sock)
        grant = cip.parse_forward_open_reply(decode_response(encap.parse_rr_data(payload)))
        request = encode_request(build_read_request(to_epath(parse_tag("TEST")), 1))
        sock.sendall(encap.build_unit_data(handle, grant.o_to_t_id, 1, request))
        read_packet(sock)
        time.sleep(0.25)
        sock.sendall(encap.build_unit_data(handle, grant.o_to_t_id, 2, request))
        assert closed_by_peer(sock)
        sock.close()


# ---------------------------------------------------------------------------
# tag definition files

TAG_FILE = """\
# startup values
TEST REAL = 0.0028152466
counts DINT[5] = 10, 20, 30, 40, 50
zeros INT[4] = 0          # broadcast
bits BOOL[65] = 0
flag BOOL = true
"""


def test_parse_tag_file():
    parsed = parse_tag_file(TAG_FILE)
    assert [name for name, _, _ in parsed] == ["TEST", "counts", "zeros", "bits", "flag"]
    assert parsed[1][1] is CipType.DINT
    assert parsed[2][2] == (0, 0, 0, 0)
    assert len(parsed[3][2]) == 65


def test_load_tag_file_defines_tags():
    store = TagStore()
    load_tag_file(store, TAG_FILE)
    assert store.get_tag("counts").elements == (10, 20, 30, 40, 50)
    assert store.get_tag("bits").type is CipType.DINT  # packed
    assert len(store.get_tag("bits").elements) == 3
    assert store.get_tag("flag").scalar is True


@pytest.mark.parametrize("line,fragment", [
    ("TEST REAL", "expected"),              # missing '='
    ("x FLOAT = 1", "unknown type"),
    ("x DINT[3] = 1, 2", "expected 3 values"),
    ("x DINT = ", "no values"),
    ("x DINT = ten", "bad DINT"),
    ("x REAL = --", "bad REAL"),
    ("x BOOL = maybe", "bad BOOL"),
    ("x[3] DINT = 1", "bare name"),
    ("x DINT[0] = 1", "at least 1"),
])
def test_tag_file_errors(line, fragment):
    with pytest.raises(SimError) as info:
        parse_tag_file("# header\n" + line + "\n")
    assert "line 2" in str(info.value)
    assert fragment in str(info.value)


def stopper(sim) -> threading.Thread:
    """A started thread stopping the sim, left behind if stopping hangs."""
    thread = threading.Thread(target=sim.stop, daemon=True)
    thread.start()
    return thread


def test_stop_severs_a_session_whose_handler_has_not_run_yet(monkeypatch):
    # a connection accepted just before stop() whose handler thread has not
    # started: stop() severs it too, so the stopped sim looks dead to that
    # peer and its handler, blocked on the idle peer, returns before stop()
    # does
    entered, release = threading.Event(), threading.Event()
    setup = plcsim._SessionHandler.setup
    handlers = []

    def late_setup(handler):
        handlers.append(threading.current_thread())
        entered.set()
        release.wait(5)
        setup(handler)

    monkeypatch.setattr(plcsim._SessionHandler, "setup", late_setup)
    sim = PlcSim(make_store()).start()
    peer = socket.create_connection(("127.0.0.1", sim.port), timeout=5)
    try:
        assert entered.wait(5)
        stopping = stopper(sim)
        time.sleep(0.3)  # stop() severs the sessions it knows of
        release.set()
        stopping.join(5)
        assert not stopping.is_alive()
        assert not handlers[0].is_alive()
        assert peer.recv(1) == b""  # the peer sees the session end
    finally:
        release.set()
        peer.close()


def test_stop_waits_for_every_session_handler_to_end(monkeypatch):
    # each handler takes a while to end once its session is severed; stop()
    # returns only once none is left running
    handlers = []
    setup, finish = plcsim._SessionHandler.setup, plcsim._SessionHandler.finish

    def recorded_setup(handler):
        handlers.append(threading.current_thread())
        setup(handler)

    def slow_finish(handler):
        time.sleep(0.2)
        finish(handler)

    monkeypatch.setattr(plcsim._SessionHandler, "setup", recorded_setup)
    monkeypatch.setattr(plcsim._SessionHandler, "finish", slow_finish)
    sim = PlcSim(make_store()).start()
    peers = [connect_to(sim) for _ in range(3)]  # registered, and idle
    try:
        assert len(handlers) == 3
        stopping = stopper(sim)
        stopping.join(5)
        assert not stopping.is_alive()
        assert not any(thread.is_alive() for thread in handlers)
    finally:
        for peer in peers:
            peer.close()


def test_stop_ends_a_handler_waiting_out_injected_latency_at_once():
    sim = PlcSim(make_store(), FaultPlan(latency_s=2.0)).start()
    client = connect_to(sim, request_timeout=5.0)
    failed = []

    def read():
        try:
            client.read_tag("TEST")
        except PlcError as exc:
            failed.append(exc)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        time.sleep(0.3)  # the request is in the sim's latency
        started = time.monotonic()
        sim.stop()
        assert time.monotonic() - started < 0.5
        reader.join(5)
        assert not reader.is_alive() and len(failed) == 1  # the session ended
    finally:
        client.close()
        sim.stop()


def test_a_sim_never_started_stops_at_once():
    stopping = stopper(PlcSim(make_store()))
    stopping.join(5)
    assert not stopping.is_alive()


def test_each_sim_grants_its_own_first_connection_id():
    # the ids a sim grants depend on no other sim that ran in the process
    for _sim in range(2):
        with PlcSim(make_store()) as sim:
            c = connect_to(sim)
            try:
                assert [c.open_connection().o_to_t_id for _ in range(2)] == [0x1001, 0x1002]
            finally:
                c.close()
