"""Soft PLC speaking the same wire protocol as the client stack.

Sessions, Connection Manager routing, tag reads/writes with type and bounds
checks, Multi-Request dispatch, buffer-limit enforcement, and a small fault
plan (latency, dropped connections, refused sessions, injected error
statuses, malformed read replies, replies cut short by a close) so the
failure paths can be tested without hardware.  `PlcSim.stop()` severs every
session and waits, bounded, for their handler threads to end.

The sim serves a request the way the client handles a reply: what depends
only on bytes it has seen before is worked out once, and nothing is decoded
only to be encoded again.  Each tag is held as wire
bytes: its type, its element count and one array of its packed elements (a
BOOL array as DINT words), so a read reply is the type code and a slice of
that array, and a write whose type, count and bounds check out splices the
request's data in; a REAL keeps the bits it was written with.  What a
request path names depends only on its bytes, so `CipEngine` decodes each
distinct path once and keeps what it names in a table of PATH_TABLE_SIZE
entries, emptied when full; service counts, injected errors, buffer limits,
route slots, tag lookup and bounds are checked for every request.  Replies
are built as bytes, and an Unconnected Send answers with its embedded reply
as built.  A session handler receives a request that arrives whole with one
receive into the session's buffer, and keeps any bytes past it for the next
request, so a peer's pipelined requests are served in order.
"""

from __future__ import annotations

import itertools
import logging
import socket
import socketserver
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from . import cip, encap
from .cip import (
    Attribute,
    CipRequest,
    CipResponse,
    CipType,
    CipValue,
    Element,
    Epath,
    Instance,
    ObjectClass,
    Symbol,
)
from .tags import dint_span_for_bools, parse_tag

log = logging.getLogger(__name__)

DEFAULT_PRODUCT_NAME = "1756-ENET/A "
MAX_ROUTE_DEPTH = 4
# how long `PlcSim.stop()` waits in all for severed sessions' handlers to end
HANDLER_JOIN_S = 2.0

# fixed Identity attribute constants (only the product name is contractual)
_IDENTITY_ATTRS = {
    1: struct.pack("<H", 0x0001),   # vendor
    2: struct.pack("<H", 0x000C),   # device type: communications adapter
    3: struct.pack("<H", 0x00A6),   # product code
    4: bytes((20, 11)),             # revision major.minor
    5: struct.pack("<H", 0x0060),   # status
    6: struct.pack("<I", 0x006B5ED4),  # serial
}


class SimError(Exception):
    """Bad simulator configuration (tag file, store misuse)."""


@dataclass
class FaultPlan:
    """Deterministic misbehavior switches for tests."""

    latency_s: float = 0.0
    drop_after: int | None = None       # close TCP on the Nth data request
    refuse_sessions: bool = False
    close_idle_after_s: float | None = None  # stale connected sessions die
    error_inject: dict[int, int] = field(default_factory=dict)  # service -> status
    # every read reply, well framed and OK, loses its last data byte: data
    # that is not whole elements (of a one-byte type, one element short)
    malformed_reads: bool = False
    # every data reply sends its header and half its payload, then the
    # session closes
    truncate_replies: bool = False


_TYPE_CODE = struct.Struct("<H")
# any nonzero BOOL byte is true, and is stored as a packed true is
_BOOL_BYTES = bytes((0,)) + bytes((0xFF,)) * 255


class _Tag:
    """A tag as the store holds it: its type, its element count and its
    elements packed as on the wire, in one array that writes splice."""

    __slots__ = ("type", "count", "code", "data")

    def __init__(self, elem_type: CipType, data: bytes):
        self.type = elem_type
        self.count = len(data) // elem_type.width
        self.code = _TYPE_CODE.pack(elem_type)  # as a read reply carries it
        self.data = bytearray(data)

    def value(self, element: int | None = None) -> CipValue:
        """The whole tag, or one element of it, unpacked."""
        data, width = self.data, self.type.width
        if element is not None:
            data = data[element * width:(element + 1) * width]
        return CipValue(self.type, cip.unpack_elements(self.type, data))


class TagStore:
    """Shared tag state plus counters; one lock covers a whole request."""

    def __init__(
        self,
        limit: int = 500,
        product_name: str = DEFAULT_PRODUCT_NAME,
        route_slots=(0,),
    ):
        self.limit = limit
        self.product_name = product_name
        self.route_slots = set(route_slots)
        self.lock = threading.RLock()
        self.round_trips = 0
        self.service_counts: Counter = Counter()
        self._tags: dict[str, _Tag] = {}

    # -- definition and out-of-band access --------------------------------

    def define(self, name: str, elem_type: CipType, values) -> None:
        """Create or replace a tag.  BOOL arrays are stored packed as DINTs."""
        key = self._key_for(name)
        values = tuple(values)
        if not values:
            raise SimError(f"{name}: a tag needs at least one element")
        if elem_type is CipType.BOOL and len(values) > 1:
            tag = _Tag(CipType.DINT, _pack_bits(values))
        else:
            tag = _Tag(elem_type, cip.pack_elements(elem_type, values))
        with self.lock:
            self._tags[key] = tag

    def set_tag(self, name: str, value) -> None:
        """Direct mutation for tests: whole tag, or one element via name[i]."""
        key, element = self._split_name(name)
        with self.lock:
            tag = self._tag(name, key, element)
            if element is None:
                if isinstance(value, CipValue):
                    if value.type is not tag.type:
                        raise SimError(
                            f"{name}: stored {tag.type.name}, got {value.type.name}"
                        )
                    new = value.elements
                else:
                    new = tuple(value) if isinstance(value, (list, tuple)) else (value,)
                if len(new) != tag.count:
                    raise SimError(f"{name}: stored {tag.count} elements, got {len(new)}")
                tag.data[:] = cip.pack_elements(tag.type, new)
            else:
                scalar = value.scalar if isinstance(value, CipValue) else value
                width = tag.type.width
                tag.data[element * width:(element + 1) * width] = cip.pack_elements(
                    tag.type, (scalar,)
                )

    def get_tag(self, name: str) -> CipValue:
        key, element = self._split_name(name)
        with self.lock:
            return self._tag(name, key, element).value(element)

    def _tag(self, name: str, key: str, element: int | None) -> _Tag:
        tag = self._tags.get(key)
        if tag is None:
            raise SimError(f"unknown tag {name!r}")
        if element is not None and not 0 <= element < tag.count:
            raise SimError(f"{name}: element out of range")
        return tag

    @staticmethod
    def _key_for(name: str) -> str:
        ref = parse_tag(name)
        if any(part.element is not None for part in ref.parts):
            raise SimError(f"{name!r}: definitions take a bare name, no subscripts")
        return ".".join(part.symbol for part in ref.parts)

    @staticmethod
    def _split_name(name: str) -> tuple[str, int | None]:
        ref = parse_tag(name)
        if any(part.element is not None for part in ref.parts[:-1]):
            raise SimError(f"{name!r}: only the final part may carry an index")
        return ".".join(part.symbol for part in ref.parts), ref.final_element

    # -- wire-facing access (caller holds the lock) -------------------------

    def read(self, key: str, start: int | None, count: int) -> bytes | int:
        """A read reply's data: the tag's type code and `count` packed
        elements from `start`; or the error status."""
        tag = self._tags.get(key)
        if tag is None:
            return cip.STATUS_PATH_UNKNOWN
        begin = start or 0
        if begin + count > tag.count or count < 1:
            return cip.STATUS_PATH_SEGMENT_ERROR
        width = tag.type.width
        return tag.code + tag.data[begin * width:(begin + count) * width]

    def write(self, key: str, start: int | None, elem_type: CipType, data: bytes) -> int:
        """Splice packed elements of `elem_type` into a tag from `start`;
        returns the status.  A BOOL byte is stored as 0x00 or 0xFF."""
        tag = self._tags.get(key)
        if tag is None:
            return cip.STATUS_PATH_UNKNOWN
        if elem_type is not tag.type:
            return cip.STATUS_INVALID_PARAMETER
        begin = (start or 0) * elem_type.width
        end = begin + len(data)
        if end > len(tag.data):
            return cip.STATUS_PATH_SEGMENT_ERROR
        if elem_type is CipType.BOOL:
            data = data.translate(_BOOL_BYTES)
        tag.data[begin:end] = data
        return cip.STATUS_OK


def _pack_bits(bits) -> bytearray:
    """Bits packed into little-endian DINT words: bit i is bit i % 8 of byte i // 8."""
    data = bytearray(4 * dint_span_for_bools(len(bits)))
    for i, bit in enumerate(bits):
        if bit:
            data[i // 8] |= 1 << (i % 8)
    return data


# ---------------------------------------------------------------------------
# CIP dispatch

# distinct request paths an engine keeps resolved; the table is emptied when
# full, so traffic that never repeats a path cannot grow it
PATH_TABLE_SIZE = 1024


@dataclass
class _Connection:
    o_to_t_id: int
    t_to_o_id: int
    serial: int
    vendor: int
    originator_serial: int
    last_sequence: int | None = None
    last_used: float = field(default_factory=time.monotonic)


@dataclass(frozen=True, slots=True)
class _Target:
    """What a request path names, worked out once per distinct path: the
    decoded path, and the tag key and element it addresses, if any."""

    path: Epath
    tag: str | None = None
    element: int | None = None


def _target(path: Epath) -> _Target:
    names: list[str] = []
    element: int | None = None
    for seg in path.segments:
        if isinstance(seg, Symbol):
            if element is not None:
                return _Target(path)  # subscripts only on the final part
            names.append(seg.name)
        elif isinstance(seg, Element):
            if element is not None or not names:
                return _Target(path)
            element = seg.index
        else:
            return _Target(path)
    if not names:
        return _Target(path)
    return _Target(path, ".".join(names), element)


def _error(service: int, general: int, extended: tuple[int, ...] = ()) -> bytes:
    return cip.encode_response(CipResponse((service | cip.REPLY_FLAG) & 0xFF, general, extended))


def _ok(service: int, payload: bytes = b"") -> bytes:
    return bytes((service | cip.REPLY_FLAG, 0, cip.STATUS_OK, 0)) + payload


_READ_OK = _ok(cip.READ_DATA)
_WRITE_OK = _ok(cip.WRITE_DATA)
_COUNT = struct.Struct("<H")


class CipEngine:
    """Serves CIP messages against a TagStore; transport-independent.

    Every reply is built as wire bytes.  What a request's path names
    depends only on its bytes, so it is worked out once per distinct path
    and kept in a table of PATH_TABLE_SIZE entries; everything that depends
    on state (service counts, injected errors, buffer limits, route slots,
    tag lookup and bounds) runs for every request."""

    def __init__(self, store: TagStore, faults: FaultPlan):
        self.store = store
        self.faults = faults
        self._ids = itertools.count(0x1001)  # O->T connection ids, per engine
        self._targets: dict[bytes, _Target] = {}  # path bytes, size byte first

    def handle(self, data: bytes, connections: dict | None = None, depth: int = 0) -> bytes:
        """Process one message, enforcing the buffer limit on it and its reply."""
        service = data[0] if data else 0
        limit = self.store.limit
        if len(data) > limit:
            return _error(service, cip.STATUS_REQUEST_TOO_LARGE)
        try:
            request = self._split(data)
        except cip.CipError:
            return _error(service, cip.STATUS_NOT_ENOUGH_DATA)
        reply = self._serve(*request, connections, depth)
        if len(reply) > limit and reply[2] == cip.STATUS_OK:
            return _error(service, cip.STATUS_REPLY_TOO_LARGE)
        return reply

    def _split(self, data: bytes) -> tuple[int, _Target, bytes]:
        """A request's service, what its path names, and its payload; raises
        CipError for bytes that do not decode as a request."""
        if len(data) < 2:
            raise cip.CipError("request shorter than service byte + path size")
        service = data[0]
        if service & cip.REPLY_FLAG:
            raise cip.CipError(f"service byte 0x{service:02X} has the reply flag set")
        end = 2 + 2 * data[1]
        path = data[1:end]
        target = self._targets.get(path)
        if target is None:
            target = _target(cip.decode_epath(path)[0])
            if len(self._targets) >= PATH_TABLE_SIZE:
                self._targets.clear()
            self._targets[path] = target
        return service, target, data[end:]

    def _serve(self, service: int, target: _Target, payload: bytes, connections,
               depth: int) -> bytes:
        self.store.service_counts[service] += 1
        injected = self.faults.error_inject.get(service)
        if injected:
            return _error(service, injected)
        if service == cip.READ_DATA:
            return self._read(target, payload)
        if service == cip.WRITE_DATA:
            return self._write(target, payload)
        if service == cip.MULTI_REQUEST:
            return self._multi(payload, connections, depth)
        if service == cip.UNCONNECTED_SEND:
            return self._unconnected_send(target, payload, connections, depth)
        if service == cip.GET_ATTRIBUTE_SINGLE:
            return self._get_attribute(target)
        if service == cip.FORWARD_OPEN:
            return self._forward_open(CipRequest(service, target.path, payload), connections)
        if service == cip.FORWARD_CLOSE:
            return self._forward_close(CipRequest(service, target.path, payload), connections)
        return _error(service, cip.STATUS_SERVICE_NOT_SUPPORTED)

    def _unconnected_send(self, target: _Target, payload: bytes, connections,
                          depth: int) -> bytes:
        service = cip.UNCONNECTED_SEND
        if depth >= MAX_ROUTE_DEPTH:
            return _error(service, cip.STATUS_NO_RESOURCES)
        try:
            message, route = cip.parse_unconnected_send(
                CipRequest(service, target.path, payload)
            )
        except cip.CipError:
            return _error(service, cip.STATUS_NOT_ENOUGH_DATA)
        if route.port != cip.BACKPLANE_PORT or route.link not in self.store.route_slots:
            return _error(service, cip.STATUS_CONNECTION_FAILURE, (cip.EXT_INVALID_LINK,))
        # the router is transparent: the embedded reply goes back bare
        return self.handle(message, connections, depth + 1)

    def _multi(self, payload: bytes, connections, depth: int) -> bytes:
        # items already passed the limit check as part of their envelope, and
        # are served as decoded: every item decodes before any one runs
        try:
            items = [self._split(item) for item in cip.split_offset_table(payload)]
        except cip.CipError:
            return _error(cip.MULTI_REQUEST, cip.STATUS_NOT_ENOUGH_DATA)
        replies = [self._serve(*item, connections, depth + 1) for item in items]
        ok = all(reply[2] == cip.STATUS_OK for reply in replies)
        general = cip.STATUS_OK if ok else cip.STATUS_EMBEDDED_SERVICE_ERROR
        head = bytes((cip.MULTI_REQUEST | cip.REPLY_FLAG, 0, general, 0))
        return head + cip.offset_table(replies)

    def _get_attribute(self, target: _Target) -> bytes:
        service = cip.GET_ATTRIBUTE_SINGLE
        segments = target.path.segments
        if (
            len(segments) == 3
            and segments[0] == ObjectClass(cip.CLASS_IDENTITY)
            and segments[1] == Instance(1)
            and isinstance(segments[2], Attribute)
        ):
            attr = segments[2].id
            if attr == cip.ATTR_PRODUCT_NAME:
                name = self.store.product_name.encode("ascii")
                return _ok(service, bytes((len(name),)) + name)
            fixed = _IDENTITY_ATTRS.get(attr)
            if fixed is not None:
                return _ok(service, fixed)
            return _error(service, cip.STATUS_ATTRIBUTE_NOT_SUPPORTED)
        return _error(service, cip.STATUS_PATH_UNKNOWN)

    def _read(self, target: _Target, payload: bytes) -> bytes:
        if target.tag is None:
            return _error(cip.READ_DATA, cip.STATUS_PATH_UNKNOWN)
        if len(payload) < 2:
            return _error(cip.READ_DATA, cip.STATUS_NOT_ENOUGH_DATA)
        (count,) = _COUNT.unpack_from(payload)
        data = self.store.read(target.tag, target.element, count)
        if data.__class__ is int:
            return _error(cip.READ_DATA, data)
        if self.faults.malformed_reads:
            data = data[:-1]
        return _READ_OK + data

    def _write(self, target: _Target, payload: bytes) -> bytes:
        if target.tag is None:
            return _error(cip.WRITE_DATA, cip.STATUS_PATH_UNKNOWN)
        try:
            elem_type, data = cip.split_write_payload(payload)
        except cip.CipError:
            return _error(cip.WRITE_DATA, cip.STATUS_NOT_ENOUGH_DATA)
        status = self.store.write(target.tag, target.element, elem_type, data)
        if status != cip.STATUS_OK:
            return _error(cip.WRITE_DATA, status)
        return _WRITE_OK

    def _forward_open(self, req: CipRequest, connections) -> bytes:
        try:
            parsed = cip.parse_forward_open_request(req)
        except cip.CipError:
            return _error(req.service, cip.STATUS_NOT_ENOUGH_DATA)
        if (
            parsed.route.port != cip.BACKPLANE_PORT
            or parsed.route.link not in self.store.route_slots
        ):
            return _error(
                req.service, cip.STATUS_CONNECTION_FAILURE, (cip.EXT_INVALID_LINK,)
            )
        if connections is None:
            return _error(req.service, cip.STATUS_NO_RESOURCES)
        conn = _Connection(
            o_to_t_id=next(self._ids),
            t_to_o_id=parsed.t_to_o_id,
            serial=parsed.serial,  # a controller echoes the originator's serial
            vendor=parsed.vendor,
            originator_serial=parsed.originator_serial,
        )
        connections[conn.o_to_t_id] = conn
        return cip.encode_response(cip.build_forward_open_reply(
            conn.o_to_t_id,
            conn.t_to_o_id,
            conn.serial,
            conn.vendor,
            conn.originator_serial,
            parsed.update_interval_us,
        ))

    def _forward_close(self, req: CipRequest, connections) -> bytes:
        try:
            identity = cip.parse_forward_close(req)
        except cip.CipError:
            return _error(req.service, cip.STATUS_NOT_ENOUGH_DATA)
        if connections:
            for conn_id, conn in list(connections.items()):
                if (conn.serial, conn.vendor, conn.originator_serial) == identity:
                    del connections[conn_id]
        # serial, vendor, originator serial
        return _ok(req.service, req.payload[2:10] + bytes((0, 0)))


# ---------------------------------------------------------------------------
# TCP server

class _SimTcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, addr, handler):
        self.active_lock = threading.Lock()
        self.active: set[socket.socket] = set()
        # the session handler threads not yet ended (`server_close` joins
        # no daemon thread)
        self.handlers: set[threading.Thread] = set()
        super().__init__(addr, handler)

    def process_request(self, request, client_address):
        # kept from accept, before its handler thread runs, so that once
        # serving has stopped every accepted session is here to be severed
        # and every handler here to be waited for
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self.active_lock:
            self.active.add(request)
            self.handlers.add(thread)
        thread.start()

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self.active_lock:
                self.handlers.discard(threading.current_thread())

    def shutdown_request(self, request):
        with self.active_lock:
            self.active.discard(request)
        super().shutdown_request(request)

    def close_all_sessions(self) -> None:
        """Sever every accepted session, so a stopped sim looks dead to its
        peers and every handler thread returns."""
        with self.active_lock:
            sessions = list(self.active)
        for sock in sessions:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def join_handlers(self, timeout: float) -> None:
        """Wait up to `timeout` seconds in all for every handler to end."""
        deadline = time.monotonic() + timeout
        with self.active_lock:
            handlers = list(self.handlers)
        for thread in handlers:
            thread.join(max(0.0, deadline - time.monotonic()))


class _SessionHandler(socketserver.BaseRequestHandler):
    def setup(self):
        self.sim: PlcSim = self.server.sim
        self.session_handle = 0
        self.connections: dict[int, _Connection] = {}
        self.data_requests = 0
        # what has arrived and is not yet served: any request fits whole
        self.rx = bytearray(encap.HEADER_SIZE + encap.MAX_PAYLOAD)
        self.view = memoryview(self.rx)
        self.got = 0

    def handle(self):
        while True:
            try:
                request = self._receive()
            except OSError:
                return
            if request is None or not self._serve_packet(*request):
                return

    def _receive(self) -> tuple[encap.EncapsHeader, bytes] | None:
        """The next request, receiving into the session buffer until it is
        whole: one receive for a request that arrives in one piece, none for
        one a pipelining peer already sent.  Bytes past it stay for the next
        request.  None: the peer closed or the session was severed."""
        got, end = self.got, encap.HEADER_SIZE
        header = None
        while True:
            if header is None and got >= encap.HEADER_SIZE:
                header = encap.decode_header(self.rx)
                end += header.payload_length
            if header is not None and got >= end:
                break
            n = self.request.recv_into(self.view[got:])
            if not n:
                return None
            got += n
        payload = bytes(self.view[encap.HEADER_SIZE:end])
        self.got = got - end
        if self.got:
            self.rx[:self.got] = self.rx[end:got]
        return header, payload

    def _serve_packet(self, header: encap.EncapsHeader, payload: bytes) -> bool:
        sim = self.sim
        if header.command == encap.CMD_REGISTER_SESSION:
            if sim.faults.refuse_sessions:
                self._reply(header, encap.STATUS_NO_RESOURCES, payload)
                return True
            self.session_handle = sim.allocate_session()
            reply = encap.EncapsHeader(
                header.command,
                session_handle=self.session_handle,
                sender_context=header.sender_context,
            )
            self.request.sendall(
                encap.encode_packet(reply, struct.pack("<HH", encap.PROTOCOL_VERSION, 0))
            )
            return True
        if header.command == encap.CMD_UNREGISTER_SESSION:
            return False
        if header.command in (encap.CMD_SEND_RR_DATA, encap.CMD_SEND_UNIT_DATA):
            return self._serve_data(header, payload)
        self._reply(header, encap.STATUS_INVALID_COMMAND)
        return True

    def _serve_data(self, header: encap.EncapsHeader, payload: bytes) -> bool:
        sim = self.sim
        if self.session_handle == 0 or header.session_handle != self.session_handle:
            self._reply(header, encap.STATUS_INVALID_SESSION)
            return True
        self.data_requests += 1
        if sim.faults.drop_after is not None and self.data_requests >= sim.faults.drop_after:
            log.debug("fault plan: dropping connection on request %d", self.data_requests)
            return False
        # a stopping sim ends a handler in its latency at once
        if sim.faults.latency_s > 0 and sim.stopping.wait(sim.faults.latency_s):
            return False
        with sim.store.lock:
            sim.store.round_trips += 1
            if header.command == encap.CMD_SEND_RR_DATA:
                try:
                    message = encap.parse_rr_data(payload)
                except encap.EncapError:
                    return False  # malformed CPF: drop the session
                reply_cip = sim.engine.handle(message, self.connections)
                packet = encap.build_rr_data(
                    self.session_handle, reply_cip, header.sender_context
                )
            else:
                try:
                    conn_id, sequence, message = encap.parse_unit_data(payload)
                except encap.EncapError:
                    return False
                conn = self.connections.get(conn_id)
                if conn is None:
                    return False  # unknown connection: peer must reopen
                now = time.monotonic()
                idle = sim.faults.close_idle_after_s
                if idle is not None and now - conn.last_used > idle:
                    del self.connections[conn_id]
                    return False
                conn.last_used = now
                conn.last_sequence = sequence
                reply_cip = sim.engine.handle(message, self.connections)
                packet = encap.build_unit_data(
                    self.session_handle, conn.t_to_o_id, sequence,
                    reply_cip, header.sender_context,
                )
        truncate = sim.faults.truncate_replies
        if truncate:
            packet = packet[:encap.HEADER_SIZE + (len(packet) - encap.HEADER_SIZE) // 2]
        try:
            self.request.sendall(packet)
        except OSError:
            return False
        return not truncate

    def _reply(self, header: encap.EncapsHeader, status: int, payload: bytes = b"") -> None:
        reply = encap.EncapsHeader(
            header.command,
            session_handle=header.session_handle,
            status=status,
            sender_context=header.sender_context,
        )
        try:
            self.request.sendall(encap.encode_packet(reply, payload))
        except OSError:
            pass


class PlcSim:
    """Running simulator bound to a TCP port."""

    def __init__(
        self,
        store: TagStore | None = None,
        faults: FaultPlan | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.store = store if store is not None else TagStore()
        self.faults = faults if faults is not None else FaultPlan()
        self.engine = CipEngine(self.store, self.faults)
        self._session_counter = itertools.count(0x0101_0001)
        self._server = _SimTcpServer((host, port), _SessionHandler)
        self._server.sim = self
        self.host, self.port = self._server.server_address[:2]
        self._thread: threading.Thread | None = None
        # set by `stop()`: a session handler waiting out injected latency ends
        self.stopping = threading.Event()

    def allocate_session(self) -> int:
        with self.store.lock:
            return next(self._session_counter)

    def start(self) -> "PlcSim":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"plcsim-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.stopping.set()
        if self._thread is not None:  # shutdown() waits for serving to stop
            self._server.shutdown()
        self._server.close_all_sessions()
        self._server.join_handlers(HANDLER_JOIN_S)
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "PlcSim":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# tag definition files

_TYPE_NAMES = {t.name: t for t in CipType}


def parse_tag_file(text: str) -> list[tuple[str, CipType, tuple]]:
    """Parse tag definitions, one per line:

    <name> <TYPE>[<len>] = v1, v2, ...
    <name> <TYPE> = v

    '#' starts a comment; a single value broadcasts across the length.
    """
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(_parse_tag_line(line))
        except SimError as exc:
            raise SimError(f"line {lineno}: {exc}") from None
    return out


def _parse_tag_line(line: str) -> tuple[str, CipType, tuple]:
    head, eq, values_text = line.partition("=")
    fields = head.split()
    if len(fields) != 2 or not eq:
        raise SimError("expected '<name> <TYPE>[<len>] = values'")
    name, type_text = fields
    length = 1
    if "[" in type_text:
        if not type_text.endswith("]"):
            raise SimError(f"bad type {type_text!r}")
        type_name, _, len_text = type_text[:-1].partition("[")
        try:
            length = int(len_text)
        except ValueError:
            raise SimError(f"bad array length {len_text!r}") from None
        if length < 1:
            raise SimError("array length must be at least 1")
    else:
        type_name = type_text
    elem_type = _TYPE_NAMES.get(type_name.upper())
    if elem_type is None:
        raise SimError(f"unknown type {type_name!r}")
    raw_values = [v.strip() for v in values_text.split(",") if v.strip()]
    if not raw_values:
        raise SimError("no values given")
    try:
        values = [cip.parse_literal(elem_type, v) for v in raw_values]
    except ValueError as exc:
        raise SimError(str(exc)) from None
    if len(values) == 1 and length > 1:
        values = values * length
    if len(values) != length:
        raise SimError(f"expected {length} values, got {len(values)}")
    try:
        TagStore._key_for(name)
    except Exception as exc:
        raise SimError(str(exc)) from None
    return name, elem_type, tuple(values)


def load_tag_file(store: TagStore, text: str) -> None:
    for name, elem_type, values in parse_tag_file(text):
        store.define(name, elem_type, values)
