"""Session client: lifecycle, round trips, error policy, paced reconnect."""

import dataclasses
import socket
import struct
import sys
import threading
import time

import pytest

from logixscan import cip, encap, plcsim
from logixscan import client as client_module
from logixscan.cip import CipType, CipValue
from logixscan.client import (
    Phase,
    PlcClient,
    PlcConnectError,
    PlcEndpoint,
    PlcError,
    PlcProtocolError,
    PlcTimeout,
    RequestTooLarge,
)
from logixscan.cycle import TransferReply
from logixscan.plcsim import FaultPlan, PlcSim, TagStore

from conftest import connect_to, counted_on, make_store
from reference import build_read_request, decode_packet


def test_endpoint_validation():
    PlcEndpoint("h", buffer_limit=64)
    PlcEndpoint("h", buffer_limit=511)
    with pytest.raises(ValueError):
        PlcEndpoint("h", buffer_limit=63)
    with pytest.raises(ValueError):
        PlcEndpoint("h", buffer_limit=512)
    with pytest.raises(ValueError):
        PlcEndpoint("h", slot=17)
    with pytest.raises(ValueError):
        PlcEndpoint("h", request_timeout=0)
    PlcEndpoint("h", port=1)
    PlcEndpoint("h", port=65535)
    for port in (0, -1, 65536):
        with pytest.raises(ValueError, match=f"port {port} outside"):
            PlcEndpoint("h", port=port)
    with pytest.raises(ValueError, match="host must not be empty"):
        PlcEndpoint("")


def test_connect_registers_session(client):
    assert client.phase is Phase.REGISTERED
    assert client.session_handle != 0


def test_connect_twice_rejected(client):
    with pytest.raises(PlcError):
        client.connect()


def test_connect_refused_port():
    # grab a port and close it so nothing listens there
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    c = PlcClient(PlcEndpoint("127.0.0.1", port=port, request_timeout=0.5))
    with pytest.raises(PlcConnectError):
        c.connect()
    assert c.phase is Phase.DISCONNECTED


def test_register_refused_by_fault_plan():
    with PlcSim(make_store(), FaultPlan(refuse_sessions=True)) as sim:
        c = PlcClient(PlcEndpoint("127.0.0.1", port=sim.port, request_timeout=1.0))
        with pytest.raises(PlcConnectError):
            c.connect()
        assert c.phase is Phase.DISCONNECTED


def test_read_tag(client):
    value = client.read_tag("TEST")
    assert value.type is CipType.REAL
    assert value.scalar == pytest.approx(0.00281524658203125, abs=1e-12)


def test_read_tag_slice(client):
    value = client.read_tag("counts[1]", count=3)
    assert value.elements == (20, 30, 40)


def test_write_tag(client):
    client.write_tag("counts[0]", CipValue(CipType.DINT, (-1,)))
    assert client.read_tag("counts[0]").scalar == -1


def test_cip_status_error_does_not_disconnect(client):
    with pytest.raises(cip.CipStatusError) as info:
        client.read_tag("missing")
    assert info.value.general == cip.STATUS_PATH_UNKNOWN
    # application-level errors keep the session; only transport faults drop it
    assert client.phase is Phase.REGISTERED
    assert client.read_tag("TEST").type is CipType.REAL


def test_identity_name(client):
    assert client.read_identity_name() == "1756-ENET/A "


def test_request_too_large_guard(client):
    big = cip.encode_write_request(
        cip.Epath((cip.Symbol("counts"),)), CipValue(CipType.DINT, tuple(range(130)))
    )
    with pytest.raises(RequestTooLarge):
        client.round_trip_unconnected(big)
    assert client.phase is Phase.REGISTERED  # guard fires before anything is sent


def test_timeout_disconnects(sim):
    sim.faults.latency_s = 1.0
    c = connect_to(sim, request_timeout=0.2)
    with pytest.raises(PlcTimeout):
        c.read_tag("TEST")
    assert c.phase is Phase.DISCONNECTED
    assert c.consecutive_errors == 1
    sim.faults.latency_s = 0.0
    c.close()


def test_peer_close_disconnects():
    with PlcSim(make_store(), FaultPlan(drop_after=1)) as sim:
        c = connect_to(sim)
        with pytest.raises(PlcError):
            c.read_tag("TEST")
        assert c.phase is Phase.DISCONNECTED
        c.close()


def test_a_reply_cut_short_by_a_close_drops_the_session():
    # the reply's header and half its payload arrive, then the peer closes:
    # the receive loop sees the close before the reply's end
    with PlcSim(make_store(), FaultPlan(truncate_replies=True)) as sim:
        c = connect_to(sim)  # registering is not a data request: it lands
        try:
            with pytest.raises(PlcError, match="closed by peer"):
                c.read_tag("TEST")
            assert c.phase is Phase.DISCONNECTED
            assert c.consecutive_errors == 1
            sim.faults.truncate_replies = False
            assert c.ensure_connected()
            assert c.read_tag("TEST").type is CipType.REAL
            assert c.consecutive_errors == 0
        finally:
            c.close()


def test_ensure_connected_pacing():
    # endpoint that can never connect: pacing must hold attempts to one per period
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    c = PlcClient(PlcEndpoint(
        "127.0.0.1", port=port, request_timeout=0.2, reconnect_period=5.0
    ))
    assert c.ensure_connected(now=100.0) is False
    assert c.reconnect_attempts == 1
    for now in (100.1, 101.0, 104.9):
        assert c.ensure_connected(now=now) is False
    assert c.reconnect_attempts == 1  # still inside the pacing window
    assert c.ensure_connected(now=105.0) is False
    assert c.reconnect_attempts == 2


def test_ensure_connected_noop_when_up(client):
    attempts = client.reconnect_attempts
    assert client.ensure_connected() is True
    assert client.reconnect_attempts == attempts


def test_reconnect_gets_fresh_session(sim):
    c = connect_to(sim, reconnect_period=0.05)
    first = c.session_handle
    c.disconnect()
    assert c.phase is Phase.DISCONNECTED
    time.sleep(0.06)
    assert c.ensure_connected() is True
    assert c.phase is Phase.REGISTERED
    assert c.session_handle != first
    c.close()


def test_open_connection_and_connected_round_trips(sim):
    c = connect_to(sim)
    grant = c.open_connection()
    assert c.phase is Phase.CONNECTED
    assert grant.o_to_t_id != 0

    value = c.read_tag("counts", count=5)
    # read_tag goes unconnected unless prefer_connected is set
    assert value.elements == (10, 20, 30, 40, 50)

    resp = c.round_trip_connected(cip.encode_request(build_read_request(
        cip.Epath((cip.Symbol("TEST"),)), 1
    )))
    assert cip.parse_read_response(resp).type is CipType.REAL
    assert c.next_sequence == 2
    c.round_trip_connected(cip.encode_request(
        build_read_request(cip.Epath((cip.Symbol("TEST"),)), 1)
    ))
    assert c.next_sequence == 3
    c.close()


def test_prefer_connected_path(sim):
    c = PlcClient(
        PlcEndpoint("127.0.0.1", port=sim.port, request_timeout=2.0),
        prefer_connected=True,
    )
    c.connect()
    assert c.read_tag("TEST").type is CipType.REAL  # opens on first use
    assert c.phase is Phase.CONNECTED
    assert c.next_sequence == 2
    c.close()


def record_connection_tables(monkeypatch) -> list[dict]:
    """The sim's per-session connection tables, in session order."""
    tables: list[dict] = []
    setup = plcsim._SessionHandler.setup

    def recording_setup(handler):
        setup(handler)
        tables.append(handler.connections)

    monkeypatch.setattr(plcsim._SessionHandler, "setup", recording_setup)
    return tables


def test_close_sends_forward_close_for_an_open_connection(monkeypatch):
    tables = record_connection_tables(monkeypatch)
    with PlcSim(make_store()) as sim:
        c = connect_to(sim)
        c.open_connection()
        assert [len(t) for t in tables] == [1]
        c.close()
        assert c.phase is Phase.DISCONNECTED
        assert tables == [{}]
        assert sim.store.service_counts[cip.FORWARD_CLOSE] == 1


def test_forward_close_with_another_serial_leaves_the_connection_open(monkeypatch):
    tables = record_connection_tables(monkeypatch)
    requested = []
    build_forward_open = cip.build_forward_open
    monkeypatch.setattr(
        cip, "build_forward_open",
        lambda params: requested.append(params.serial) or build_forward_open(params),
    )
    with PlcSim(make_store()) as sim:
        c = connect_to(sim)
        grant = c.open_connection()
        assert grant.serial == requested[0]
        stray = cip.build_forward_close(c.endpoint.slot, grant.serial ^ 0x1)
        assert cip.decode_response(
            sim.engine.handle(cip.encode_request(stray), tables[0])
        ).ok
        assert list(tables[0]) == [grant.o_to_t_id]
        c.close()
        assert tables == [{}]


def test_close_without_connection_sends_no_forward_close(monkeypatch):
    tables = record_connection_tables(monkeypatch)
    with PlcSim(make_store()) as sim:
        c = connect_to(sim)
        c.close()
        assert tables == [{}]
        assert sim.store.service_counts[cip.FORWARD_CLOSE] == 0


def test_close_swallows_a_failed_forward_close():
    sim = PlcSim(make_store()).start()
    c = connect_to(sim, request_timeout=0.5)
    c.open_connection()
    sim.stop()  # the peer is gone: the Forward_Close cannot land
    started = time.monotonic()
    c.close()
    assert time.monotonic() - started < 2.0
    assert c.phase is Phase.DISCONNECTED


def test_sequence_number_wraps(sim):
    c = connect_to(sim)
    c.open_connection()
    c.next_sequence = 0xFFFF
    c.round_trip_connected(cip.encode_request(
        build_read_request(cip.Epath((cip.Symbol("TEST"),)), 1)
    ))
    assert c.next_sequence == 0
    c.close()


def test_round_trip_measures_latency():
    with PlcSim(make_store(), FaultPlan(latency_s=0.05)) as sim:
        c = connect_to(sim)
        c.read_tag("TEST")
        assert c.last_transfer_s is not None
        assert c.last_transfer_s >= 0.05
        c.close()


def test_recovery_after_sim_restart():
    sim = PlcSim(make_store())
    sim.start()
    port = sim.port
    c = connect_to(sim, reconnect_period=0.1)
    assert c.read_tag("TEST").type is CipType.REAL
    sim.stop()

    with pytest.raises(PlcError):
        c.read_tag("TEST")
    assert c.phase is Phase.DISCONNECTED

    sim2 = PlcSim(make_store(), port=port)
    sim2.start()
    try:
        deadline = time.monotonic() + 2.0
        while not c.ensure_connected():
            assert time.monotonic() < deadline, "did not reconnect in time"
            time.sleep(0.02)
        assert c.read_tag("TEST").type is CipType.REAL
        c.close()
    finally:
        sim2.stop()


# -- reply framing on the stream ----------------------------------------------

def read_frame(sock) -> bytes:
    """One whole encapsulation packet from a stream."""
    data = b""
    end = encap.HEADER_SIZE
    while len(data) < end:
        chunk = sock.recv(end - len(data))
        if not chunk:
            raise ConnectionError("peer closed")
        data += chunk
        if len(data) == encap.HEADER_SIZE:
            end += encap.decode_header(data).payload_length
    return data


def relay(sim, deliver):
    """A peer in front of the sim that hands each of its replies to
    `deliver(sock, reply)`; returns its port and its thread."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            conn, _ = listener.accept()
        with conn, socket.create_connection((sim.host, sim.port)) as upstream:
            try:
                while True:
                    upstream.sendall(read_frame(conn))
                    deliver(conn, read_frame(upstream))
            except OSError:  # either side closed
                pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


def test_reply_arriving_one_byte_at_a_time_completes_the_round_trip(sim):
    def trickle(sock, reply):
        for i in range(len(reply)):
            sock.sendall(reply[i:i + 1])
            time.sleep(0.0005)

    port, thread = relay(sim, trickle)
    c = PlcClient(PlcEndpoint("127.0.0.1", port=port, request_timeout=2.0))
    c.connect()
    assert c.read_tag("counts[1]").scalar == 20
    assert c.phase is Phase.REGISTERED
    c.close()
    thread.join(timeout=5)


def test_bytes_past_the_declared_reply_drop_the_session(sim):
    def with_surplus(sock, reply):
        if encap.decode_header(reply).command == encap.CMD_SEND_RR_DATA:
            reply += b"\x00" * 4
        sock.sendall(reply)

    port, thread = relay(sim, with_surplus)
    c = PlcClient(PlcEndpoint("127.0.0.1", port=port, request_timeout=2.0))
    c.connect()
    with pytest.raises(PlcProtocolError, match="4 bytes past the declared reply"):
        c.read_tag("counts[1]")
    assert c.phase is Phase.DISCONNECTED
    assert c.consecutive_errors == 1
    c.close()
    thread.join(timeout=5)


def test_a_reply_to_another_request_drops_the_session(sim):
    # a reply whose sender context is not the request's answers some other
    # request (one left unread, say), so its payload must not be used
    rewritten = []

    def other_context(sock, reply):
        header, payload = decode_packet(reply)
        if header.command == encap.CMD_SEND_RR_DATA and not rewritten:
            rewritten.append(header.sender_context)
            header = dataclasses.replace(header, sender_context=b"stranger")
            reply = encap.encode_packet(header, payload)
        sock.sendall(reply)

    port, thread = relay(sim, other_context)
    c = PlcClient(PlcEndpoint("127.0.0.1", port=port, request_timeout=2.0))
    c.connect()
    with pytest.raises(PlcProtocolError, match="sender context mismatch"):
        c.read_tag("counts[3]")
    assert rewritten and c.phase is Phase.DISCONNECTED and c._sock is None
    assert c.consecutive_errors == 1
    c.close()
    thread.join(timeout=5)


@pytest.mark.parametrize("field,value,fragment", [
    ("session_handle", 0, "session handle 0"),
    ("version", 2, "protocol version mismatch"),
])
def test_bad_register_reply_drops_the_socket(sim, field, value, fragment):
    def rewrite(sock, reply):
        header, payload = decode_packet(reply)
        if header.command == encap.CMD_REGISTER_SESSION:
            if field == "version":
                payload = struct.pack("<H", value) + payload[2:]
            else:
                header = dataclasses.replace(header, session_handle=value)
            reply = encap.encode_packet(header, payload)
        sock.sendall(reply)

    port, thread = relay(sim, rewrite)
    c = PlcClient(PlcEndpoint("127.0.0.1", port=port, request_timeout=2.0))
    with pytest.raises(PlcConnectError, match=fragment):
        c.connect()
    assert c.phase is Phase.DISCONNECTED and c._sock is None
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_a_reply_in_two_segments_a_tenth_of_a_second_apart_is_read_whole(sim):
    def in_two(sock, reply):
        sock.sendall(reply[:30])
        time.sleep(0.1)
        sock.sendall(reply[30:])

    port, thread = relay(sim, in_two)
    c = PlcClient(PlcEndpoint("127.0.0.1", port=port, request_timeout=0.5))
    c.connect()
    assert c.read_tag("counts", 5).elements == (10, 20, 30, 40, 50)
    assert c.phase is Phase.REGISTERED and c.consecutive_errors == 0
    c.close()
    thread.join(timeout=5)


def test_a_silent_peer_times_out_within_its_request_timeout(sim):
    def registering_only(sock, reply):
        if encap.decode_header(reply).command == encap.CMD_REGISTER_SESSION:
            sock.sendall(reply)

    port, thread = relay(sim, registering_only)
    c = PlcClient(PlcEndpoint("127.0.0.1", port=port, request_timeout=0.3))
    c.connect()
    started = time.monotonic()
    with pytest.raises(PlcTimeout):
        c.read_tag("TEST")
    assert time.monotonic() - started < 1.5 * 0.3
    assert c.phase is Phase.DISCONNECTED and c._sock is None
    assert c.consecutive_errors == 1
    c.close()
    thread.join(timeout=5)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="timeval layout of Linux")
def test_the_session_socket_blocks_with_kernel_timeouts(client):
    sock = client._sock
    assert sock.gettimeout() is None  # no poll before each send and receive
    for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
        timeval = sock.getsockopt(socket.SOL_SOCKET, option, struct.calcsize("@ll"))
        assert struct.unpack("@ll", timeval) == (2, 0)  # request_timeout=2.0


# the branch a platform with no known timeval layout (such as Windows) takes,
# forced here on any platform

def test_without_kernel_timeouts_a_round_trip_runs_under_a_python_timeout(sim, monkeypatch):
    monkeypatch.setattr(client_module, "_KERNEL_TIMEOUTS", False)
    c = connect_to(sim)
    try:
        assert c._sock.gettimeout() == 2.0  # request_timeout=2.0
        assert c.read_tag("counts", 5).elements == (10, 20, 30, 40, 50)
        assert c.phase is Phase.REGISTERED and c.consecutive_errors == 0
    finally:
        c.close()


def test_without_kernel_timeouts_a_silent_peer_times_out_within_its_request_timeout(
    sim, monkeypatch
):
    monkeypatch.setattr(client_module, "_KERNEL_TIMEOUTS", False)
    test_a_silent_peer_times_out_within_its_request_timeout(sim)


def test_a_repeated_connected_reply_returns_the_kept_one_undecoded(sim, monkeypatch):
    c = connect_to(sim)
    c.open_connection()
    request = cip.encode_read_request(cip.encode_epath(cip.Epath((cip.Symbol("counts"),))), 5)
    kept = TransferReply()
    first = c.round_trip_connected(request, kept)
    assert kept.resp is first and kept.wire is not None
    calls = counted_on(
        threading.current_thread(), monkeypatch,
        (encap, "parse_unit_data"), (encap, "parse_rr_data"), "decode_response",
    )
    # the same reply but for its sequence: the kept one, with nothing decoded
    assert c.round_trip_connected(request, kept) is first
    assert calls == [] and c.next_sequence == 3
    sim.store.set_tag("counts[1]", 21)
    changed = c.round_trip_connected(request, kept)
    assert calls == ["parse_unit_data", "decode_response"]
    assert cip.parse_read_response(changed).elements == (10, 21, 30, 40, 50)
    assert kept.resp is changed
    c.close()


def test_a_connected_reply_that_repeats_the_kept_one_with_its_old_sequence_is_refused(sim):
    replies = []

    def replay_first(sock, reply):
        # every connected reply after the first is the first's payload again,
        # old sequence and all, under this reply's header (its context)
        header = encap.decode_header(reply)
        if header.command == encap.CMD_SEND_UNIT_DATA:
            replies.append(reply)
            reply = reply[:encap.HEADER_SIZE] + replies[0][encap.HEADER_SIZE:]
        sock.sendall(reply)

    port, thread = relay(sim, replay_first)
    c = PlcClient(PlcEndpoint("127.0.0.1", port=port, request_timeout=2.0))
    c.connect()
    c.open_connection()
    request = cip.encode_read_request(cip.encode_epath(cip.Epath((cip.Symbol("TEST"),))), 1)
    kept = TransferReply()
    c.round_trip_connected(request, kept)
    with pytest.raises(PlcProtocolError, match="sequence mismatch: sent 2, got 1"):
        c.round_trip_connected(request, kept)
    assert c.phase is Phase.DISCONNECTED and c.consecutive_errors == 1
    c.close()
    thread.join(timeout=5)


def test_a_repeated_unconnected_reply_returns_the_kept_one_undecoded(client, monkeypatch):
    request = cip.encode_read_request(cip.encode_epath(cip.Epath((cip.Symbol("TEST"),))), 1)
    kept = TransferReply()
    first = client.round_trip(request, kept)
    calls = counted_on(
        threading.current_thread(), monkeypatch, (encap, "parse_rr_data"), "decode_response",
    )
    assert client.round_trip(request, kept) is first and calls == []
    assert client.round_trip(request) is not first  # nothing kept: decoded
    assert calls == ["parse_rr_data", "decode_response"]


def test_a_reply_that_repeats_the_kept_one_but_for_its_carrier_is_refused(sim):
    # the second reply carries the same CIP bytes, but its address item is
    # of the connected type: every byte the carrier's parse reads is compared
    rr_replies = []

    def retype_second(sock, reply):
        if encap.decode_header(reply).command == encap.CMD_SEND_RR_DATA:
            rr_replies.append(reply)
            if len(rr_replies) == 2:
                at = encap.HEADER_SIZE + 8  # handle, timeout, item count
                reply = reply[:at] + struct.pack("<H", encap.ITEM_CONNECTED_ADDRESS) + reply[at + 2:]
        sock.sendall(reply)

    port, thread = relay(sim, retype_second)
    c = PlcClient(PlcEndpoint("127.0.0.1", port=port, request_timeout=2.0))
    c.connect()
    request = cip.encode_read_request(cip.encode_epath(cip.Epath((cip.Symbol("TEST"),))), 1)
    kept = TransferReply()
    c.round_trip(request, kept)
    with pytest.raises(PlcProtocolError, match="unconnected carrier item types"):
        c.round_trip(request, kept)
    assert c.phase is Phase.DISCONNECTED and c.consecutive_errors == 1
    c.close()
    thread.join(timeout=5)
