"""Soft PLC speaking the same wire protocol as the client stack.

Sessions, Connection Manager routing, tag reads/writes with type and bounds
checks, Multi-Request dispatch, buffer-limit enforcement, and a small fault
plan (latency, dropped connections, refused sessions, injected error
statuses, malformed read replies, replies cut short by a close) so the
failure paths can be tested without hardware.  `PlcSim.stop()` severs every
session and waits, bounded, for their handler threads to end.
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
from .tags import BITS_PER_DINT, dint_span_for_bools, parse_tag

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
        self._tags: dict[str, CipValue] = {}

    # -- definition and out-of-band access --------------------------------

    def define(self, name: str, elem_type: CipType, values) -> None:
        """Create or replace a tag.  BOOL arrays are stored packed as DINTs."""
        key = self._key_for(name)
        values = tuple(values)
        if not values:
            raise SimError(f"{name}: a tag needs at least one element")
        if elem_type is CipType.BOOL and len(values) > 1:
            stored = CipValue(CipType.DINT, _pack_bits(values))
        else:
            stored = CipValue(elem_type, _normalize(elem_type, values))
        with self.lock:
            self._tags[key] = stored

    def set_tag(self, name: str, value) -> None:
        """Direct mutation for tests: whole tag, or one element via name[i]."""
        key, element = self._split_name(name)
        with self.lock:
            stored = self._tags.get(key)
            if stored is None:
                raise SimError(f"unknown tag {name!r}")
            if element is None:
                if isinstance(value, CipValue):
                    if value.type is not stored.type:
                        raise SimError(
                            f"{name}: stored {stored.type.name}, got {value.type.name}"
                        )
                    new = value.elements
                else:
                    new = tuple(value) if isinstance(value, (list, tuple)) else (value,)
                if len(new) != len(stored.elements):
                    raise SimError(
                        f"{name}: stored {len(stored.elements)} elements, got {len(new)}"
                    )
                self._tags[key] = CipValue(stored.type, _normalize(stored.type, new))
            else:
                if not 0 <= element < len(stored.elements):
                    raise SimError(f"{name}: element out of range")
                scalar = value.scalar if isinstance(value, CipValue) else value
                elements = list(stored.elements)
                elements[element] = _normalize(stored.type, (scalar,))[0]
                self._tags[key] = CipValue(stored.type, elements)

    def get_tag(self, name: str) -> CipValue:
        key, element = self._split_name(name)
        with self.lock:
            stored = self._tags.get(key)
            if stored is None:
                raise SimError(f"unknown tag {name!r}")
            if element is None:
                return stored
            if not 0 <= element < len(stored.elements):
                raise SimError(f"{name}: element out of range")
            return CipValue(stored.type, (stored.elements[element],))

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

    def read(self, key: str, start: int | None, count: int) -> CipValue | int:
        stored = self._tags.get(key)
        if stored is None:
            return cip.STATUS_PATH_UNKNOWN
        begin = start or 0
        if begin + count > len(stored.elements) or count < 1:
            return cip.STATUS_PATH_SEGMENT_ERROR
        return CipValue(stored.type, stored.elements[begin:begin + count])

    def write(self, key: str, start: int | None, value: CipValue) -> int:
        stored = self._tags.get(key)
        if stored is None:
            return cip.STATUS_PATH_UNKNOWN
        if value.type is not stored.type:
            return cip.STATUS_INVALID_PARAMETER
        begin = start or 0
        if begin + len(value.elements) > len(stored.elements):
            return cip.STATUS_PATH_SEGMENT_ERROR
        elements = list(stored.elements)
        elements[begin:begin + len(value.elements)] = value.elements
        self._tags[key] = CipValue(stored.type, elements)
        return cip.STATUS_OK


def _normalize(elem_type: CipType, values) -> tuple:
    """Snap values to their wire representation (REALs become float32)."""
    return cip.unpack_elements(elem_type, cip.pack_elements(elem_type, values))


def _pack_bits(bits) -> tuple[int, ...]:
    words = [0] * dint_span_for_bools(len(bits))
    for i, bit in enumerate(bits):
        if bit:
            words[i // BITS_PER_DINT] |= 1 << (i % BITS_PER_DINT)
    return tuple(w - (1 << 32) if w >= 1 << 31 else w for w in words)


# ---------------------------------------------------------------------------
# CIP dispatch

@dataclass
class _Connection:
    o_to_t_id: int
    t_to_o_id: int
    serial: int
    vendor: int
    originator_serial: int
    last_sequence: int | None = None
    last_used: float = field(default_factory=time.monotonic)


_ids = itertools.count(0x1001)


def _error(service: int, general: int, extended: tuple[int, ...] = ()) -> CipResponse:
    return CipResponse((service | cip.REPLY_FLAG) & 0xFF, general, extended)


class CipEngine:
    """Serves CIP messages against a TagStore; transport-independent."""

    def __init__(self, store: TagStore, faults: FaultPlan):
        self.store = store
        self.faults = faults

    def handle(self, data: bytes, connections: dict | None = None, depth: int = 0) -> bytes:
        """Process one message, enforcing the buffer limit on it and its reply."""
        service = data[0] if data else 0
        if len(data) > self.store.limit:
            return cip.encode_response(_error(service, cip.STATUS_REQUEST_TOO_LARGE))
        resp = self._dispatch(data, connections, depth)
        encoded = cip.encode_response(resp)
        if len(encoded) > self.store.limit and resp.ok:
            encoded = cip.encode_response(_error(service, cip.STATUS_REPLY_TOO_LARGE))
        return encoded

    def _dispatch(self, data: bytes, connections, depth: int) -> CipResponse:
        try:
            req = cip.decode_request(data)
        except cip.CipError:
            service = data[0] if data else 0
            return _error(service, cip.STATUS_NOT_ENOUGH_DATA)
        return self._serve(req, connections, depth)

    def _serve(self, req: CipRequest, connections, depth: int) -> CipResponse:
        self.store.service_counts[req.service] += 1
        injected = self.faults.error_inject.get(req.service)
        if injected:
            return _error(req.service, injected)
        if req.service == cip.UNCONNECTED_SEND:
            return self._unconnected_send(req, connections, depth)
        if req.service == cip.MULTI_REQUEST:
            return self._multi(req, connections, depth)
        if req.service == cip.GET_ATTRIBUTE_SINGLE:
            return self._get_attribute(req)
        if req.service == cip.READ_DATA:
            return self._read(req)
        if req.service == cip.WRITE_DATA:
            return self._write(req)
        if req.service == cip.FORWARD_OPEN:
            return self._forward_open(req, connections)
        if req.service == cip.FORWARD_CLOSE:
            return self._forward_close(req, connections)
        return _error(req.service, cip.STATUS_SERVICE_NOT_SUPPORTED)

    def _unconnected_send(self, req: CipRequest, connections, depth: int) -> CipResponse:
        if depth >= MAX_ROUTE_DEPTH:
            return _error(req.service, cip.STATUS_NO_RESOURCES)
        try:
            message, route = cip.parse_unconnected_send(req)
        except cip.CipError:
            return _error(req.service, cip.STATUS_NOT_ENOUGH_DATA)
        if route.port != cip.BACKPLANE_PORT or route.link not in self.store.route_slots:
            return _error(
                req.service, cip.STATUS_CONNECTION_FAILURE, (cip.EXT_INVALID_LINK,)
            )
        # the router is transparent: the embedded reply goes back bare
        reply = self.handle(message, connections, depth + 1)
        return cip.decode_response(reply)

    def _multi(self, req: CipRequest, connections, depth: int) -> CipResponse:
        try:
            items = cip.split_multi_request(req)
        except cip.CipError:
            return _error(req.service, cip.STATUS_NOT_ENOUGH_DATA)
        # items already passed the limit check as part of their envelope, and
        # are served as decoded: every item decodes before any one runs
        replies = [self._serve(item, connections, depth + 1) for item in items]
        return cip.build_multi_response(replies)

    def _get_attribute(self, req: CipRequest) -> CipResponse:
        segments = req.path.segments
        if (
            len(segments) == 3
            and segments[0] == ObjectClass(cip.CLASS_IDENTITY)
            and segments[1] == Instance(1)
            and isinstance(segments[2], Attribute)
        ):
            attr = segments[2].id
            if attr == cip.ATTR_PRODUCT_NAME:
                name = self.store.product_name.encode("ascii")
                payload = bytes((len(name),)) + name
                return CipResponse(req.service | cip.REPLY_FLAG, cip.STATUS_OK, (), payload)
            fixed = _IDENTITY_ATTRS.get(attr)
            if fixed is not None:
                return CipResponse(req.service | cip.REPLY_FLAG, cip.STATUS_OK, (), fixed)
            return _error(req.service, cip.STATUS_ATTRIBUTE_NOT_SUPPORTED)
        return _error(req.service, cip.STATUS_PATH_UNKNOWN)

    def _resolve(self, path: Epath) -> tuple[str, int | None] | None:
        names: list[str] = []
        element: int | None = None
        for seg in path.segments:
            if isinstance(seg, Symbol):
                if element is not None:
                    return None  # subscripts only on the final part
                names.append(seg.name)
            elif isinstance(seg, Element):
                if element is not None or not names:
                    return None
                element = seg.index
            else:
                return None
        if not names:
            return None
        return ".".join(names), element

    def _read(self, req: CipRequest) -> CipResponse:
        resolved = self._resolve(req.path)
        if resolved is None:
            return _error(req.service, cip.STATUS_PATH_UNKNOWN)
        if len(req.payload) < 2:
            return _error(req.service, cip.STATUS_NOT_ENOUGH_DATA)
        (count,) = struct.unpack_from("<H", req.payload)
        key, element = resolved
        result = self.store.read(key, element, count)
        if isinstance(result, int):
            return _error(req.service, result)
        payload = struct.pack("<H", int(result.type))
        payload += cip.pack_elements(result.type, result.elements)
        if self.faults.malformed_reads:
            payload = payload[:-1]
        return CipResponse(req.service | cip.REPLY_FLAG, cip.STATUS_OK, (), payload)

    def _write(self, req: CipRequest) -> CipResponse:
        resolved = self._resolve(req.path)
        if resolved is None:
            return _error(req.service, cip.STATUS_PATH_UNKNOWN)
        try:
            value = cip.decode_write_payload(req.payload)
        except cip.CipError:
            return _error(req.service, cip.STATUS_NOT_ENOUGH_DATA)
        key, element = resolved
        status = self.store.write(key, element, value)
        if status != cip.STATUS_OK:
            return _error(req.service, status)
        return CipResponse(req.service | cip.REPLY_FLAG, cip.STATUS_OK)

    def _forward_open(self, req: CipRequest, connections) -> CipResponse:
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
            o_to_t_id=next(_ids),
            t_to_o_id=parsed.t_to_o_id,
            serial=parsed.serial,  # a controller echoes the originator's serial
            vendor=parsed.vendor,
            originator_serial=parsed.originator_serial,
        )
        connections[conn.o_to_t_id] = conn
        return cip.build_forward_open_reply(
            conn.o_to_t_id,
            conn.t_to_o_id,
            conn.serial,
            conn.vendor,
            conn.originator_serial,
            parsed.update_interval_us,
        )

    def _forward_close(self, req: CipRequest, connections) -> CipResponse:
        try:
            identity = cip.parse_forward_close(req)
        except cip.CipError:
            return _error(req.service, cip.STATUS_NOT_ENOUGH_DATA)
        if connections:
            for conn_id, conn in list(connections.items()):
                if (conn.serial, conn.vendor, conn.originator_serial) == identity:
                    del connections[conn_id]
        payload = req.payload[2:10] + bytes((0, 0))  # serial, vendor, originator serial
        return CipResponse(req.service | cip.REPLY_FLAG, cip.STATUS_OK, (), payload)


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

    def handle(self):
        while True:
            try:
                raw = self._recv_exact(encap.HEADER_SIZE)
                if raw is None:
                    return
                header = encap.decode_header(raw)
                payload = self._recv_exact(header.payload_length)
                if payload is None:
                    return
            except (OSError, encap.EncapError):
                return
            if not self._serve_packet(header, payload):
                return

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

    def _recv_exact(self, n: int) -> bytes | None:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self.request.recv(n - len(buf))
            except OSError:
                return None
            if not chunk:
                return None
            buf += chunk
        return bytes(buf)


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
