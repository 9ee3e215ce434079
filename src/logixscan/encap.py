"""EtherNet/IP encapsulation layer.

The 24-byte encapsulation header frames everything on the TCP stream;
session registration and the Common Packet Format (CPF) carriers for
unconnected (SendRRData) and connected (SendUnitData) CIP payloads live
here.  All functions are pure byte-sequence transforms; every multi-byte
integer on the wire is little-endian.

Each carrier is framed in one pass: one precompiled struct packs the header,
the CPF prefix and both item headers ahead of the CIP bytes.  A reply's
two-item layout is checked on one path, `_two_items`: an item count of 2,
then an address item of any length, then a data item that ends the payload
exactly; each carrier then checks its item types and sizes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

DEFAULT_PORT = 0xAF12  # 44818

HEADER_SIZE = 24
MAX_PAYLOAD = 0xFFFF

CMD_REGISTER_SESSION = 0x0065
CMD_UNREGISTER_SESSION = 0x0066
CMD_SEND_RR_DATA = 0x006F
CMD_SEND_UNIT_DATA = 0x0070

ITEM_NULL_ADDRESS = 0x0000
ITEM_CONNECTED_ADDRESS = 0x00A1
ITEM_CONNECTED_DATA = 0x00B1
ITEM_UNCONNECTED_DATA = 0x00B2

PROTOCOL_VERSION = 1

# encapsulation status codes we emit or expect
STATUS_OK = 0x0000
STATUS_INVALID_COMMAND = 0x0001
STATUS_NO_RESOURCES = 0x0002
STATUS_INVALID_SESSION = 0x0064
STATUS_INVALID_LENGTH = 0x0065
STATUS_UNSUPPORTED_VERSION = 0x0069

_HEADER = struct.Struct("<HHII8sI")
# CPF prefix (interface handle, timeout, item count) and the first item's
# header; then the second item's header
_FIRST_ITEM = struct.Struct("<IHH HH")
_ITEM_HEADER = struct.Struct("<HH")
# the carriers' fixed item layouts as sent: CPF prefix with an item count of
# 2, the address item (with the connection id, connected), the data item
# header (with the sequence, connected)
_RR_ITEMS = struct.Struct("<IHH HH HH")
_UNIT_ITEMS = struct.Struct("<IHH HHI HHH")
_RR_FRAME = struct.Struct(_HEADER.format + _RR_ITEMS.format[1:])
_UNIT_FRAME = struct.Struct(_HEADER.format + _UNIT_ITEMS.format[1:])

ZERO_CONTEXT = b"\x00" * 8


class EncapError(Exception):
    """Malformed or unexpected encapsulation traffic."""

    def __init__(self, message: str, status: int = 0):
        super().__init__(message)
        self.status = status


@dataclass
class EncapsHeader:
    """The fixed 24-byte frame header."""

    command: int
    payload_length: int = 0
    session_handle: int = 0
    status: int = 0
    sender_context: bytes = ZERO_CONTEXT
    options: int = 0


def _check_frame(payload_length: int, sender_context: bytes) -> None:
    if payload_length > MAX_PAYLOAD:
        raise EncapError(f"payload of {payload_length} bytes exceeds 16-bit length field")
    if len(sender_context) != 8:
        raise EncapError("sender_context must be exactly 8 bytes")


def encode_packet(header: EncapsHeader, payload: bytes = b"") -> bytes:
    """Frame a payload; the header's payload_length is rewritten to match."""
    _check_frame(len(payload), header.sender_context)
    return _HEADER.pack(
        header.command,
        len(payload),
        header.session_handle,
        header.status,
        header.sender_context,
        header.options,
    ) + payload


def decode_header(data: bytes) -> EncapsHeader:
    """Parse a bare 24-byte header (payload read separately by the caller)."""
    if len(data) < HEADER_SIZE:
        raise EncapError(f"truncated header: {len(data)} of {HEADER_SIZE} bytes")
    command, length, session, status, context, options = _HEADER.unpack_from(data)
    return EncapsHeader(command, length, session, status, context, options)


def decode_packet(data: bytes) -> tuple[EncapsHeader, bytes]:
    """Split one framed packet into (header, payload).

    Strict: the buffer must contain exactly the declared payload, no more.
    """
    if len(data) < HEADER_SIZE:
        raise EncapError(f"truncated header: {len(data)} of {HEADER_SIZE} bytes")
    command, length, session, status, context, options = _HEADER.unpack_from(data)
    end = HEADER_SIZE + length
    if len(data) < end:
        raise EncapError(f"payload truncated: have {len(data) - HEADER_SIZE}, declared {length}")
    if len(data) > end:
        raise EncapError(f"{len(data) - end} trailing bytes after declared payload")
    header = EncapsHeader(command, length, session, status, context, options)
    return header, data[HEADER_SIZE:end]


def build_register_session(sender_context: bytes = ZERO_CONTEXT) -> bytes:
    """RegisterSession request: protocol version 1, options 0."""
    payload = struct.pack("<HH", PROTOCOL_VERSION, 0)
    return encode_packet(EncapsHeader(CMD_REGISTER_SESSION, sender_context=sender_context), payload)


def parse_register_reply(header: EncapsHeader, payload: bytes) -> int:
    """Return the server-assigned session handle from a RegisterSession reply."""
    if header.command != CMD_REGISTER_SESSION:
        raise EncapError(f"expected RegisterSession reply, got command 0x{header.command:04X}")
    if header.status != 0:
        raise EncapError(f"session refused with status 0x{header.status:04X}", header.status)
    if len(payload) >= 2:
        (version,) = struct.unpack_from("<H", payload)
        if version != PROTOCOL_VERSION:
            raise EncapError(f"protocol version mismatch: {version}")
    if header.session_handle == 0:
        raise EncapError("server assigned session handle 0")
    return header.session_handle


def build_unregister_session(session_handle: int) -> bytes:
    return encode_packet(EncapsHeader(CMD_UNREGISTER_SESSION, session_handle=session_handle))


def _two_items(payload: bytes) -> tuple[int, int, int, int]:
    """(address item type, address item length, data item type, data offset)
    of a CPF payload of exactly two items, the second ending the payload."""
    if len(payload) < _FIRST_ITEM.size:
        raise EncapError("CPF truncated")
    _handle, _timeout, count, addr_type, addr_len = _FIRST_ITEM.unpack_from(payload)
    if count != 2:
        raise EncapError(f"carrier needs 2 CPF items, got {count}")
    offset = _FIRST_ITEM.size + addr_len
    if len(payload) < offset + _ITEM_HEADER.size:
        raise EncapError("CPF truncated")
    data_type, data_len = _ITEM_HEADER.unpack_from(payload, offset)
    offset += _ITEM_HEADER.size
    if offset + data_len != len(payload):
        raise EncapError(f"data item of {data_len} bytes in {len(payload) - offset}")
    return addr_type, addr_len, data_type, offset


def build_rr_data(
    session_handle: int,
    cip: bytes,
    sender_context: bytes = ZERO_CONTEXT,
    status: int = 0,
) -> bytes:
    """SendRRData packet carrying an unconnected CIP message."""
    length = _RR_ITEMS.size + len(cip)
    _check_frame(length, sender_context)
    return _RR_FRAME.pack(
        CMD_SEND_RR_DATA, length, session_handle, status, sender_context, 0,
        0, 0, 2, ITEM_NULL_ADDRESS, 0, ITEM_UNCONNECTED_DATA, len(cip),
    ) + cip


def parse_rr_data(payload: bytes) -> bytes:
    """Extract the CIP bytes from a SendRRData payload (a null address item
    of any length, then the unconnected data item)."""
    addr_type, _addr_len, data_type, offset = _two_items(payload)
    if addr_type != ITEM_NULL_ADDRESS or data_type != ITEM_UNCONNECTED_DATA:
        raise EncapError(f"unconnected carrier item types 0x{addr_type:04X}/0x{data_type:04X}")
    return payload[offset:]


def build_unit_data(
    session_handle: int,
    connection_id: int,
    sequence: int,
    cip: bytes,
    sender_context: bytes = ZERO_CONTEXT,
) -> bytes:
    """SendUnitData packet: connected carrier with a 16-bit sequence prefix."""
    length = _UNIT_ITEMS.size + len(cip)
    _check_frame(length, sender_context)
    return _UNIT_FRAME.pack(
        CMD_SEND_UNIT_DATA, length, session_handle, 0, sender_context, 0,
        0, 0, 2, ITEM_CONNECTED_ADDRESS, 4, connection_id,
        ITEM_CONNECTED_DATA, 2 + len(cip), sequence & 0xFFFF,
    ) + cip


def parse_unit_data(payload: bytes) -> tuple[int, int, bytes]:
    """Return (connection_id, sequence, cip bytes) from a SendUnitData payload."""
    addr_type, addr_len, data_type, offset = _two_items(payload)
    if addr_type != ITEM_CONNECTED_ADDRESS or data_type != ITEM_CONNECTED_DATA:
        raise EncapError(f"connected carrier item types 0x{addr_type:04X}/0x{data_type:04X}")
    if addr_len != 4:
        raise EncapError("connected address item must carry a 32-bit connection id")
    if len(payload) < offset + 2:
        raise EncapError("connected data item missing sequence prefix")
    (connection_id,) = struct.unpack_from("<I", payload, _FIRST_ITEM.size)
    (sequence,) = struct.unpack_from("<H", payload, offset)
    return connection_id, sequence, payload[offset + 2:]
