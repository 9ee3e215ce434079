"""TCP session client for one PLC endpoint.

Owns the socket and the encapsulation session, performs single-outstanding
request/reply round trips (unconnected by default, connected after an
explicit open), and implements the disconnect-on-error plus paced-reconnect
policy.  One thread at a time may use a client; the class itself does no
locking (the scanner holds one lock per PLC around every use).

Round trips take encoded CIP messages, built once by their callers.  Every
SendRRData exchange (a routed request, Forward_Open, Forward_Close) goes
through one helper that frames, exchanges, times and decodes it.  Each
round trip frames its request in one pass and reads its reply into the one
receive buffer the session owns, usually with one `recv_into`.  Bytes past
the reply its header declares are a protocol error that drops the session,
so they are never read as the start of the next reply, and so is a reply
whose sender context is not its request's, which answers another request
(one whose reply a call cut short left unread); every fault that
drops the session is counted and raised in one place, `_fail`.  The socket
blocks with kernel-side send and receive timeouts (`SO_SNDTIMEO` and
`SO_RCVTIMEO`, from `request_timeout`), so each send and receive is one
system call with no poll before it; where their option format is not known
(any platform but Linux, such as Windows), it keeps a Python timeout.  A
round trip may be given a transfer's kept reply: an object whose `wire`
holds the encapsulation payload of the transfer's last accepted reply (None:
none yet) and whose `resp` holds the CIP reply it decoded to, such as
`cycle.TransferReply`.  When the reply's bytes equal `wire` (a connected
reply's but for its sequence), the round trip returns `resp`, with no
carrier parsed and no CIP reply decoded; the header's status, command and
context, and a connected reply's connection id and sequence, are checked on
either path, and any other reply is decoded and kept.
`read_tag` and `write_tag` take tag text or a `TagRef`, and each client
keeps the encoded paths of the tags it last addressed, so a repeated call
parses and encodes no path; a failure is never kept.
"""

from __future__ import annotations

import enum
import functools
import logging
import socket
import struct
import sys
import time
from dataclasses import dataclass
from typing import NoReturn

from . import cip, encap
from .cip import CipResponse, CipValue, ConnectionGrant
from .tags import TagRef, parse_tag, to_epath

log = logging.getLogger(__name__)

DEFAULT_BUFFER_LIMIT = 500
MIN_BUFFER_LIMIT = 64
MAX_BUFFER_LIMIT = 511
MAX_SLOT = 16


_TAG_PATH_CACHE_SIZE = 256  # encoded tag paths kept per client

# SO_RCVTIMEO and SO_SNDTIMEO take a struct timeval of two C longs on Linux;
# elsewhere their format may differ (Windows takes milliseconds)
_KERNEL_TIMEOUTS = sys.platform.startswith("linux")
_TIMEVAL = struct.Struct("@ll")


def _set_timeouts(sock: socket.socket, seconds: float) -> None:
    """Bound each send and receive on `sock` by `seconds`: in the kernel on
    a blocking socket, so each is one system call, or else as a Python
    timeout, which polls before each."""
    if not _KERNEL_TIMEOUTS:
        sock.settimeout(seconds)
        return
    sock.settimeout(None)
    # at least a microsecond: a zero timeval would block for ever
    timeval = _TIMEVAL.pack(*divmod(max(1, round(seconds * 1e6)), 1_000_000))
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)


def _encode_tag_path(ref: TagRef | str) -> bytes:
    """The encoded path of a tag that `read_tag`/`write_tag` address whole."""
    if isinstance(ref, str):
        ref = parse_tag(ref)
    elif ref.bool_array:
        raise ValueError(
            f"{ref} is a BOOL-array bit: map it with tags.bool_remap and "
            "address its DINT word"
        )
    return cip.encode_epath(to_epath(ref))


class PlcError(Exception):
    """Transport, session, or protocol failure talking to the PLC."""


class PlcConnectError(PlcError):
    """Could not establish TCP, register a session, or open a connection."""


class PlcTimeout(PlcError):
    """No reply within request_timeout."""


class PlcProtocolError(PlcError):
    """The peer answered with something the codec rejects."""


class RequestTooLarge(PlcError):
    """Encoded request would exceed the endpoint's buffer limit."""


@dataclass(frozen=True)
class PlcEndpoint:
    host: str
    port: int = encap.DEFAULT_PORT
    slot: int = 0
    buffer_limit: int = DEFAULT_BUFFER_LIMIT
    request_timeout: float = 3.0
    reconnect_period: float = 5.0

    def __post_init__(self):
        if not self.host:
            raise ValueError("host must not be empty")
        if not 1 <= self.port <= 0xFFFF:
            raise ValueError(f"port {self.port} outside [1, 65535]")
        if not MIN_BUFFER_LIMIT <= self.buffer_limit <= MAX_BUFFER_LIMIT:
            raise ValueError(
                f"buffer_limit {self.buffer_limit} outside "
                f"[{MIN_BUFFER_LIMIT}, {MAX_BUFFER_LIMIT}]"
            )
        if not 0 <= self.slot <= MAX_SLOT:
            raise ValueError(f"slot {self.slot} outside [0, {MAX_SLOT}]")
        if self.request_timeout <= 0 or self.reconnect_period <= 0:
            raise ValueError("timeouts must be positive")


class Phase(enum.Enum):
    DISCONNECTED = "disconnected"
    REGISTERED = "registered"
    CONNECTED = "connected"


# an enum member lookup is not free, and round trips test the phase
_DISCONNECTED, _REGISTERED, _CONNECTED = Phase.DISCONNECTED, Phase.REGISTERED, Phase.CONNECTED


class PlcClient:
    """Session to one PLC.  Not thread-safe: one thread at a time uses it."""

    def __init__(self, endpoint: PlcEndpoint, prefer_connected: bool = False):
        self.endpoint = endpoint
        self.prefer_connected = prefer_connected
        self.phase = Phase.DISCONNECTED
        self.session_handle = 0
        self.grant: ConnectionGrant | None = None
        self.next_sequence = 1
        self.consecutive_errors = 0
        self.reconnect_attempts = 0
        # why the last reconnect attempt failed; None once one succeeds
        self.connect_error: PlcError | None = None
        self.last_transfer_s: float | None = None
        self._sock: socket.socket | None = None
        self._context_counter = 0
        self._last_connect_attempt: float | None = None
        # the one receive buffer: a reply's header and its largest payload
        self._rx = memoryview(bytearray(encap.HEADER_SIZE + encap.MAX_PAYLOAD))
        # tag text or TagRef -> its encoded path, the most recent kept
        self._tag_path = functools.lru_cache(maxsize=_TAG_PATH_CACHE_SIZE)(_encode_tag_path)

    # -- lifecycle ---------------------------------------------------------

    def connect(self) -> None:
        if self.phase is not Phase.DISCONNECTED:
            raise PlcError(f"connect() while {self.phase.value}")
        try:
            sock = socket.create_connection(
                (self.endpoint.host, self.endpoint.port),
                timeout=self.endpoint.request_timeout,
            )
        except OSError as exc:
            raise PlcConnectError(f"{self.endpoint.host}: {exc}") from exc
        _set_timeouts(sock, self.endpoint.request_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        try:
            context = self._next_context()
            header, payload = self._exchange(
                encap.build_register_session(context), context,
                expect=encap.CMD_REGISTER_SESSION,
            )
        except PlcTimeout:
            raise
        except PlcError as exc:
            raise PlcConnectError(f"register failed: {exc}") from exc
        try:
            self.session_handle = encap.parse_register_reply(header, payload)
        except encap.EncapError as exc:
            self._drop_socket()
            raise PlcConnectError(f"register failed: {exc}") from exc
        self.phase = Phase.REGISTERED
        self.next_sequence = 1
        self.grant = None
        log.debug("registered session 0x%08X with %s", self.session_handle, self.endpoint.host)

    def disconnect(self) -> None:
        """Close any open connection, then drop the session.

        Forward_Close waits at most request_timeout for its reply; the
        session is unregistered without waiting for the peer.
        """
        if self.grant is not None:
            self._close_connection()
        if self._sock is not None and self.phase is not Phase.DISCONNECTED:
            try:
                self._sock.sendall(encap.build_unregister_session(self.session_handle))
            except OSError:
                pass
        self._drop_socket()

    close = disconnect

    def _close_connection(self) -> None:
        """Best-effort Forward_Close, so the controller frees the connection."""
        request = cip.build_forward_close(self.endpoint.slot, self.grant.serial)
        try:
            self._send_rr_data(cip.encode_request(request))
        except PlcError as exc:
            log.debug("Forward_Close failed: %s", exc)
        self.grant = None

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self.phase = Phase.DISCONNECTED
        self.session_handle = 0
        self.grant = None

    def ensure_connected(self, now: float | None = None) -> bool:
        """Reconnect when down, at most once per reconnect_period."""
        if self.phase is not _DISCONNECTED:
            return True
        if now is None:
            now = time.monotonic()
        if (
            self._last_connect_attempt is not None
            and now - self._last_connect_attempt < self.endpoint.reconnect_period
        ):
            return False
        self._last_connect_attempt = now
        self.reconnect_attempts += 1
        try:
            self.connect()
            if self.prefer_connected:
                self.open_connection()
        except PlcError as exc:
            log.debug("reconnect attempt %d failed: %s", self.reconnect_attempts, exc)
            self.connect_error = exc
            self._drop_socket()
            return False
        self.connect_error = None
        self.consecutive_errors = 0
        return True

    # -- round trips -------------------------------------------------------

    def round_trip_unconnected(self, message: bytes, kept=None) -> CipResponse:
        """Send one encoded request routed to the slot, return the reply
        (with `kept`, the kept one if its bytes repeat)."""
        self._require_session()
        return self._send_rr_data(
            self._fit(cip.encode_unconnected_send(message, self.endpoint.slot)), kept
        )

    def open_connection(self) -> ConnectionGrant:
        self._require_session()
        params = cip.ForwardOpenParams(
            slot=self.endpoint.slot,
            t_to_o_id=(self.session_handle ^ 0x5A5A0000) & 0xFFFFFFFF or 1,
            serial=(self.session_handle + self._context_counter) & 0xFFFF or 1,
        )
        resp = self._send_rr_data(cip.encode_request(cip.build_forward_open(params)))
        try:
            grant = cip.parse_forward_open_reply(resp)
        except cip.CipStatusError as exc:
            raise PlcConnectError(f"connection refused: {exc}") from exc
        except cip.CipError as exc:
            self._fail(PlcProtocolError(f"malformed Forward_Open reply: {exc}"))
        self.grant = grant
        self.next_sequence = 1
        self.phase = Phase.CONNECTED
        return grant

    def round_trip_connected(self, message: bytes, kept=None) -> CipResponse:
        """Send one encoded request bare over the open connection, return
        the reply (with `kept`, the kept one if its bytes repeat but for
        the sequence)."""
        if self.phase is not _CONNECTED or self.grant is None:
            raise PlcError("no open connection")
        wire = self._fit(message)
        sequence = self.next_sequence
        self.next_sequence = (self.next_sequence + 1) & 0xFFFF
        context = self._next_context()
        packet = encap.build_unit_data(
            self.session_handle, self.grant.o_to_t_id, sequence, wire, context
        )
        started = time.monotonic()
        header, payload = self._exchange(packet, context, expect=encap.CMD_SEND_UNIT_DATA)
        self.last_transfer_s = time.monotonic() - started
        repeated = (
            kept is not None and kept.wire is not None
            and encap.same_unit_data(payload, kept.wire)
        )
        if repeated:
            conn_id, seq = encap.unit_data_ids(payload)
            resp = kept.resp
        else:
            try:
                conn_id, seq, reply_bytes = encap.parse_unit_data(payload)
                resp = cip.decode_response(reply_bytes)
            except (encap.EncapError, cip.CipError) as exc:
                self._fail(PlcProtocolError(f"malformed connected reply: {exc}"))
        if conn_id != self.grant.t_to_o_id:
            self._fail(PlcProtocolError(f"reply on unknown connection 0x{conn_id:08X}"))
        if seq != sequence:
            self._fail(PlcProtocolError(f"sequence mismatch: sent {sequence}, got {seq}"))
        if kept is not None and not repeated:
            kept.wire, kept.resp = payload, resp
        self.consecutive_errors = 0
        return resp

    def round_trip(self, message: bytes, kept=None) -> CipResponse:
        """Send one encoded request: connected when preferred, opening the
        connection first if needed, otherwise unconnected.  With `kept`, the
        transfer's last accepted reply, a reply of the same bytes returns
        the kept decoded one, and any other is decoded and kept."""
        if self.prefer_connected:
            if self.phase is _REGISTERED:
                self.open_connection()
            return self.round_trip_connected(message, kept)
        return self.round_trip_unconnected(message, kept)

    # -- tag conveniences ---------------------------------------------------

    def read_tag(self, ref: TagRef | str, count: int = 1) -> CipValue:
        request = cip.encode_read_request(self._tag_path(ref), count)
        return cip.parse_read_response(self.round_trip(request))

    def write_tag(self, ref: TagRef | str, value: CipValue) -> None:
        request = cip.encode_write_request(self._tag_path(ref), value)
        cip.parse_write_response(self.round_trip(request))

    def read_identity_name(self) -> str:
        request = cip.encode_request(cip.build_get_attribute_single(
            cip.CLASS_IDENTITY, 1, cip.ATTR_PRODUCT_NAME
        ))
        return cip.parse_short_string(self.round_trip_unconnected(request))

    # -- plumbing ------------------------------------------------------------

    def _require_session(self) -> None:
        if self.phase is _DISCONNECTED or self._sock is None:
            raise PlcError("not connected")

    def _next_context(self) -> bytes:
        self._context_counter += 1
        return struct.pack("<Q", self._context_counter)

    def _fit(self, wire: bytes) -> bytes:
        """The request as sent, if it fits the endpoint's buffer limit."""
        if len(wire) > self.endpoint.buffer_limit:
            raise RequestTooLarge(
                f"request of {len(wire)} bytes exceeds limit {self.endpoint.buffer_limit}"
            )
        return wire

    def _fail(self, error: PlcError) -> NoReturn:
        """Drop the session, count the error and raise it."""
        self._drop_socket()
        self.consecutive_errors += 1
        raise error

    def _send_rr_data(self, message: bytes, kept=None) -> CipResponse:
        """Frame one unconnected message in SendRRData, exchange it, time it
        and decode the reply (with `kept`: unless its bytes are the kept
        ones, whose decoded reply it returns)."""
        context = self._next_context()
        packet = encap.build_rr_data(self.session_handle, message, context)
        started = time.monotonic()
        _header, payload = self._exchange(packet, context, expect=encap.CMD_SEND_RR_DATA)
        self.last_transfer_s = time.monotonic() - started
        if kept is not None and payload == kept.wire:
            resp = kept.resp
        else:
            try:
                resp = cip.decode_response(encap.parse_rr_data(payload))
            except (encap.EncapError, cip.CipError) as exc:
                self._fail(PlcProtocolError(f"malformed reply: {exc}"))
            if kept is not None:
                kept.wire, kept.resp = payload, resp
        self.consecutive_errors = 0
        return resp

    def _exchange(self, packet: bytes, context: bytes, expect: int | None = None):
        """One request/reply exchange; any transport fault tears the session down."""
        sock = self._sock
        if sock is None:
            raise PlcError("not connected")
        rx = self._rx
        try:
            sock.sendall(packet)
            header = None
            got, end = 0, encap.HEADER_SIZE
            while got < end:
                n = sock.recv_into(rx[got:])
                if not n:
                    raise OSError("connection closed by peer")
                got += n
                if header is None and got >= encap.HEADER_SIZE:
                    header = encap.decode_header(rx)
                    end += header.payload_length
            if got > end:
                raise encap.EncapError(f"{got - end} bytes past the declared reply")
            payload = bytes(rx[encap.HEADER_SIZE:end])
        except (socket.timeout, BlockingIOError):  # a Python or a kernel timeout
            self._fail(PlcTimeout(f"no reply within {self.endpoint.request_timeout} s"))
        except OSError as exc:
            self._fail(PlcError(f"transport error: {exc}"))
        except encap.EncapError as exc:
            self._fail(PlcProtocolError(f"bad frame: {exc}"))
        if header.status != encap.STATUS_OK:
            self._fail(PlcProtocolError(f"encapsulation status 0x{header.status:08X}"))
        if expect is not None and header.command != expect:
            self._fail(PlcProtocolError(
                f"expected command 0x{expect:04X}, got 0x{header.command:04X}"
            ))
        if header.sender_context != context:  # a reply to another request
            self._fail(PlcProtocolError(
                f"sender context mismatch: sent {context.hex()}, "
                f"got {header.sender_context.hex()}"
            ))
        return header, payload
