"""CIP explicit-message codec.

EPATH routing paths, typed tag values, the tag read/write services,
Multi-Request packing, Connection Manager routing (Unconnected Send) and
Forward_Open.  Everything here is a pure transform between dataclasses and
wire bytes; the transport lives in `client`, the server side in `plcsim`.
The per-round-trip encoders (`encode_unconnected_send`,
`encode_multi_request`, `pack_elements`) build their bytes in one pass with
precompiled structs and heads encoded once; the tag read and write
encoders also take a path already encoded, so its owner encodes it once.
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass, field

# service codes
GET_ATTRIBUTE_SINGLE = 0x0E
MULTI_REQUEST = 0x0A
READ_DATA = 0x4C
WRITE_DATA = 0x53
FORWARD_CLOSE = 0x4E
UNCONNECTED_SEND = 0x52
FORWARD_OPEN = 0x54

REPLY_FLAG = 0x80
READ_REPLY = READ_DATA | REPLY_FLAG

# object classes addressed by this stack
CLASS_IDENTITY = 0x01
CLASS_MESSAGE_ROUTER = 0x02
CLASS_CONNECTION_MANAGER = 0x06
ATTR_PRODUCT_NAME = 7

BACKPLANE_PORT = 1

# general status codes
STATUS_OK = 0x00
STATUS_CONNECTION_FAILURE = 0x01
STATUS_NO_RESOURCES = 0x02
STATUS_INVALID_PARAMETER = 0x03
STATUS_PATH_SEGMENT_ERROR = 0x04
STATUS_PATH_UNKNOWN = 0x05
STATUS_PARTIAL_TRANSFER = 0x06
STATUS_SERVICE_NOT_SUPPORTED = 0x08
STATUS_REPLY_TOO_LARGE = 0x11
STATUS_NOT_ENOUGH_DATA = 0x13
STATUS_ATTRIBUTE_NOT_SUPPORTED = 0x14
STATUS_EMBEDDED_SERVICE_ERROR = 0x1E
STATUS_REQUEST_TOO_LARGE = 0x1A

# extended status used with STATUS_CONNECTION_FAILURE for a bad backplane link
EXT_INVALID_LINK = 0x0311

# Unconnected Send timing (priority/tick + timeout ticks); the firmware
# accepts a wide range, these stay generous.
UCMM_PRIORITY_TICK = 0x0A
UCMM_TIMEOUT_TICKS = 0x05

# Unconnected Send framing overhead around the embedded message, excluding
# the pad byte added for odd-length messages: service+pathsize (2) +
# CM path (4) + timing (2) + size (2) + route size/reserved (2) + port pair (2).
UNCONNECTED_SEND_OVERHEAD = 14

MAX_SYMBOL_LEN = 40
MAX_ELEMENT_COUNT = 0xFFFF  # a read or write carries a 16-bit count


class CipError(Exception):
    """Malformed CIP wire data or unencodable request."""


class CipStatusError(CipError):
    """A reply carried a nonzero general status."""

    def __init__(self, service_reply: int, general: int, extended: tuple[int, ...] = ()):
        ext = "".join(f" 0x{w:04X}" for w in extended)
        super().__init__(
            f"service 0x{service_reply:02X} failed: general status 0x{general:02X}{ext}"
        )
        self.service_reply = service_reply
        self.general = general
        self.extended = extended


# ---------------------------------------------------------------------------
# EPATH

@dataclass(frozen=True)
class ObjectClass:
    id: int


@dataclass(frozen=True)
class Instance:
    id: int


@dataclass(frozen=True)
class Attribute:
    id: int


@dataclass(frozen=True)
class Symbol:
    name: str


@dataclass(frozen=True)
class Element:
    index: int


@dataclass(frozen=True)
class PortLink:
    port: int
    link: int


Segment = ObjectClass | Instance | Attribute | Symbol | Element | PortLink


@dataclass(frozen=True)
class Epath:
    segments: tuple[Segment, ...]

    def __init__(self, segments=()):
        object.__setattr__(self, "segments", tuple(segments))


_LOGICAL_BYTES = {ObjectClass: 0x20, Instance: 0x24, Attribute: 0x30}


def _encode_segment(seg: Segment) -> bytes:
    if isinstance(seg, (ObjectClass, Instance, Attribute)):
        base = _LOGICAL_BYTES[type(seg)]
        if not 0 <= seg.id <= 0xFFFF:
            raise CipError(f"logical segment id {seg.id} out of 16-bit range")
        if seg.id <= 0xFF:
            return bytes((base, seg.id))
        return bytes((base | 0x01, 0x00)) + struct.pack("<H", seg.id)
    if isinstance(seg, Symbol):
        name = seg.name
        if not name:
            raise CipError("empty symbol name")
        if len(name) > MAX_SYMBOL_LEN:
            raise CipError(f"symbol {name!r} longer than {MAX_SYMBOL_LEN} characters")
        try:
            raw = name.encode("ascii")
        except UnicodeEncodeError:
            raise CipError(f"symbol {name!r} is not ASCII") from None
        out = bytes((0x91, len(raw))) + raw
        if len(out) % 2:
            out += b"\x00"
        return out
    if isinstance(seg, Element):
        return encode_element(seg.index)
    if isinstance(seg, PortLink):
        if not 1 <= seg.port <= 14:
            raise CipError(f"port {seg.port} outside single-byte form")
        if not 0 <= seg.link <= 0xFF:
            raise CipError(f"link {seg.link} out of 8-bit range")
        return bytes((seg.port, seg.link))
    raise CipError(f"unknown path segment {seg!r}")


def encode_element(index: int) -> bytes:
    """An element segment, in the narrowest of its 8-, 16- and 32-bit forms."""
    if not 0 <= index <= 0xFFFFFFFF:
        raise CipError(f"element index {index} out of 32-bit range")
    if index <= 0xFF:
        return bytes((0x28, index))
    if index <= 0xFFFF:
        return b"\x29\x00" + struct.pack("<H", index)
    return b"\x2A\x00" + struct.pack("<I", index)


def encode_epath(path: Epath) -> bytes:
    """Encode a path, prefixed with its size in 16-bit words."""
    body = b"".join(_encode_segment(seg) for seg in path.segments)
    if len(body) % 2:  # every segment encodes to an even length
        raise CipError("path body has odd byte count")
    words = len(body) // 2
    if words > 0xFF:
        raise CipError(f"path of {words} words exceeds 8-bit size field")
    return bytes((words,)) + body


def decode_epath(data: bytes) -> tuple[Epath, int]:
    """Decode a word-count-prefixed path; returns (path, bytes consumed)."""
    if not data:
        raise CipError("missing path size byte")
    end = 1 + data[0] * 2
    if len(data) < end:
        raise CipError(f"path truncated: declared {data[0]} words")
    segments: list[Segment] = []
    pos = 1
    while pos < end:
        b0 = data[pos]
        if b0 in (0x20, 0x24, 0x30):
            _require(pos + 2 <= end, "logical segment truncated")
            cls = {0x20: ObjectClass, 0x24: Instance, 0x30: Attribute}[b0]
            segments.append(cls(data[pos + 1]))
            pos += 2
        elif b0 in (0x21, 0x25, 0x31):
            _require(pos + 4 <= end, "16-bit logical segment truncated")
            cls = {0x21: ObjectClass, 0x25: Instance, 0x31: Attribute}[b0]
            segments.append(cls(struct.unpack_from("<H", data, pos + 2)[0]))
            pos += 4
        elif b0 == 0x91:
            _require(pos + 2 <= end, "symbol segment truncated")
            n = data[pos + 1]
            _require(n > 0, "empty symbol segment")
            total = 2 + n + (n % 2)
            _require(pos + total <= end, "symbol characters truncated")
            segments.append(Symbol(data[pos + 2:pos + 2 + n].decode("ascii", "replace")))
            pos += total
        elif b0 == 0x28:
            _require(pos + 2 <= end, "element segment truncated")
            segments.append(Element(data[pos + 1]))
            pos += 2
        elif b0 == 0x29:
            _require(pos + 4 <= end, "16-bit element segment truncated")
            segments.append(Element(struct.unpack_from("<H", data, pos + 2)[0]))
            pos += 4
        elif b0 == 0x2A:
            _require(pos + 6 <= end, "32-bit element segment truncated")
            segments.append(Element(struct.unpack_from("<I", data, pos + 2)[0]))
            pos += 6
        elif b0 & 0xE0 == 0 and b0 & 0x10 == 0:
            _require(pos + 2 <= end, "port segment truncated")
            segments.append(PortLink(b0 & 0x0F, data[pos + 1]))
            pos += 2
        else:
            raise CipError(f"unsupported path segment byte 0x{b0:02X}")
    return Epath(segments), end


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CipError(message)


# ---------------------------------------------------------------------------
# typed values

class CipType(enum.IntEnum):
    """Element type with its wire type code as the enum value."""

    BOOL = 0x00C1
    SINT = 0x00C2
    INT = 0x00C3
    DINT = 0x00C4
    REAL = 0x00CA

    @property
    def width(self) -> int:
        return _WIDTHS[self]


_WIDTHS = {
    CipType.BOOL: 1,
    CipType.SINT: 1,
    CipType.INT: 2,
    CipType.DINT: 4,
    CipType.REAL: 4,
}

# struct codes for decoding; "?" reads any nonzero BOOL byte as True
_UNPACK_CODES = {
    CipType.BOOL: "?",
    CipType.SINT: "b",
    CipType.INT: "h",
    CipType.DINT: "i",
    CipType.REAL: "f",
}
_TYPES_BY_CODE = {int(t): t for t in CipType}
_BOOL = CipType.BOOL  # an enum member lookup is not free
_UNPACK_CACHE_SIZE = 128  # (type, size) layouts kept compiled


@dataclass(frozen=True)
class CipValue:
    """A typed scalar or array as carried by the tag services."""

    type: CipType
    elements: tuple

    def __init__(self, type: CipType, elements):
        # coerce only what needs it: callers on the scan path pass a
        # CipType and a tuple already
        if type.__class__ is not CipType:
            type = CipType(type)
        if elements.__class__ is not tuple:
            elements = tuple(elements)
        # what object.__setattr__ does for a frozen field, at a third the cost
        fields = self.__dict__
        fields["type"] = type
        fields["elements"] = elements

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def scalar(self):
        if len(self.elements) != 1:
            raise CipError(f"value holds {len(self.elements)} elements, not a scalar")
        return self.elements[0]


def pack_elements(elem_type: CipType, elements) -> bytes:
    """Pack element values; integers accept both signed and unsigned ranges.

    One cached struct packs the run.  If that fails, the elements are retried
    one by one, so the error raised is the first offending element's.
    """
    if elem_type is _BOOL:
        return bytes([0xFF if v else 0x00 for v in elements])
    try:  # values in the type's own range and kind pack as they are
        return _elements_layout(elem_type, _WIDTHS[elem_type] * len(elements)).pack(*elements)
    except (TypeError, OverflowError, struct.error):
        pass
    elements = tuple(elements)
    half = 1 << (8 * _WIDTHS[elem_type] - 1)
    try:
        if elem_type is CipType.REAL:
            values = [float(v) for v in elements]
        else:
            values = [int(v) for v in elements]
            if values and not -half <= min(values) <= max(values) < half:
                # the unsigned top range goes out as its two's complement
                values = [v - 2 * half if half <= v < 2 * half else v for v in values]
        return _elements_layout(elem_type, _WIDTHS[elem_type] * len(values)).pack(*values)
    except (TypeError, ValueError, OverflowError, struct.error):
        for v in elements:
            if elem_type is CipType.REAL:
                struct.pack("<f", float(v))
            elif not -half <= (v := int(v)) < 2 * half:
                raise CipError(f"{v} out of range for {elem_type.name}") from None
        raise


@functools.lru_cache(maxsize=_UNPACK_CACHE_SIZE)
def _elements_layout(elem_type: CipType, size: int) -> struct.Struct:
    """The one struct that unpacks `size` data bytes of elem_type."""
    width = _WIDTHS[elem_type]
    count, extra = divmod(size, width)
    if extra:
        raise CipError(f"{size} data bytes not a multiple of {elem_type.name} width {width}")
    return struct.Struct(f"<{count}{_UNPACK_CODES[elem_type]}")


def unpack_elements(elem_type: CipType, data: bytes) -> tuple:
    return _elements_layout(elem_type, len(data)).unpack(data)


def decode_typed_elements(payload: bytes) -> tuple[CipType, tuple]:
    """The type and elements of a type-code-prefixed data block (the read
    reply layout)."""
    if len(payload) < 2:
        raise CipError("typed data shorter than its type code")
    (code,) = struct.unpack_from("<H", payload)
    elem_type = _TYPES_BY_CODE.get(code)
    if elem_type is None:
        raise CipError(f"unknown type code 0x{code:04X}")
    layout = _elements_layout(elem_type, len(payload) - 2)
    if not layout.size:
        raise CipError("typed data carries no elements")
    return elem_type, layout.unpack_from(payload, 2)


_BOOL_LITERALS = {"1": True, "true": True, "on": True, "0": False, "false": False, "off": False}


def parse_literal(elem_type: CipType, text: str):
    """One element value from its text: a REAL as a float, a BOOL as
    0/1/true/false/on/off in any case, an integer in any Python base."""
    try:
        if elem_type is CipType.REAL:
            return float(text)
        if elem_type is CipType.BOOL:
            return _BOOL_LITERALS[text.lower()]
        return int(text, 0)
    except (KeyError, ValueError):
        raise ValueError(f"bad {elem_type.name} {text!r}") from None


# ---------------------------------------------------------------------------
# requests and responses

@dataclass
class CipRequest:
    service: int
    path: Epath
    payload: bytes = b""


@dataclass
class CipResponse:
    service_reply: int
    general_status: int = 0
    extended_status: tuple[int, ...] = ()
    payload: bytes = b""

    @property
    def ok(self) -> bool:
        return self.general_status == STATUS_OK

    def raise_for_status(self) -> None:
        if self.general_status != STATUS_OK:
            raise CipStatusError(self.service_reply, self.general_status, self.extended_status)


def encode_request(req: CipRequest) -> bytes:
    if not 0 <= req.service < REPLY_FLAG:
        raise CipError(f"service 0x{req.service:02X} outside request space")
    return bytes((req.service,)) + encode_epath(req.path) + req.payload


def decode_request(data: bytes) -> CipRequest:
    if len(data) < 2:
        raise CipError("request shorter than service byte + path size")
    service = data[0]
    if service & REPLY_FLAG:
        raise CipError(f"service byte 0x{service:02X} has the reply flag set")
    path, consumed = decode_epath(data[1:])
    return CipRequest(service, path, data[1 + consumed:])


def encode_response(resp: CipResponse) -> bytes:
    out = bytearray((
        resp.service_reply,
        0x00,
        resp.general_status,
        len(resp.extended_status),
    ))
    for word in resp.extended_status:
        out += struct.pack("<H", word)
    out += resp.payload
    return bytes(out)


def decode_response(data: bytes) -> CipResponse:
    if len(data) < 4:
        raise CipError("response shorter than its status header")
    service_reply, _reserved, general, ext_count = data[0], data[1], data[2], data[3]
    if not service_reply & REPLY_FLAG:
        raise CipError(f"reply byte 0x{service_reply:02X} missing the reply flag")
    end = 4 + 2 * ext_count
    if len(data) < end:
        raise CipError("extended status words truncated")
    extended = struct.unpack_from(f"<{ext_count}H", data, 4) if ext_count else ()
    return CipResponse(service_reply, general, extended, data[end:])


# ---------------------------------------------------------------------------
# tag services

_READ_HEAD = bytes((READ_DATA,))
_COUNT = struct.Struct("<H")


def _path_bytes(path: Epath | bytes) -> bytes:
    """A path as encoded by `encode_epath`; bytes are taken as encoded."""
    return path if isinstance(path, bytes) else encode_epath(path)


def _read_count(element_count: int) -> bytes:
    if element_count < 1:
        raise CipError("element count must be at least 1")
    if element_count > MAX_ELEMENT_COUNT:
        raise CipError("element count exceeds 16 bits")
    return _COUNT.pack(element_count)


def encode_read_request(path: Epath | bytes, element_count: int) -> bytes:
    """An encoded read of `element_count` elements at `path` (an Epath, or
    its bytes from `encode_epath`)."""
    return _READ_HEAD + _path_bytes(path) + _read_count(element_count)


def parse_read_reply(resp: CipResponse) -> tuple[CipType, tuple]:
    """The type and elements a read reply carries; raises for an error
    status or another service's reply."""
    resp.raise_for_status()
    if resp.service_reply != READ_REPLY:
        raise CipError(f"not a read reply: service 0x{resp.service_reply:02X}")
    return decode_typed_elements(resp.payload)


def parse_read_response(resp: CipResponse) -> CipValue:
    return CipValue(*parse_read_reply(resp))


_WRITE_TYPE_COUNT = struct.Struct("<HH")


def encode_write_head(path: Epath | bytes, elem_type: CipType, count: int) -> bytes:
    """An encoded write request up to its data: service, path (an Epath, or
    its bytes from `encode_epath`), type code and element count; the packed
    elements follow."""
    return bytes((WRITE_DATA,)) + _path_bytes(path) + _WRITE_TYPE_COUNT.pack(elem_type, count)


def encode_write_request(path: Epath | bytes, value: CipValue) -> bytes:
    if not value.elements:
        raise CipError("write value holds no elements")
    data = pack_elements(value.type, value.elements)
    return encode_write_head(path, value.type, len(value.elements)) + data


def parse_write_response(resp: CipResponse) -> None:
    resp.raise_for_status()
    if resp.service_reply != (WRITE_DATA | REPLY_FLAG):
        raise CipError(f"not a write reply: service 0x{resp.service_reply:02X}")


def split_write_payload(payload: bytes) -> tuple[CipType, bytes]:
    """Server-side check of a write request's type+count+data payload: its
    type, and its data, which holds exactly `count` packed elements."""
    if len(payload) < 4:
        raise CipError("write payload shorter than type code + element count")
    code, count = _WRITE_TYPE_COUNT.unpack_from(payload)
    elem_type = _TYPES_BY_CODE.get(code)
    if elem_type is None:
        raise CipError(f"unknown type code 0x{code:04X}")
    if count < 1:
        raise CipError("write element count must be at least 1")
    data = payload[4:]
    if len(data) != count * elem_type.width:
        raise CipError(
            f"write payload holds {len(data)} data bytes, expected {count * elem_type.width}"
        )
    return elem_type, data


def build_get_attribute_single(cls: int, instance: int, attribute: int) -> CipRequest:
    path = Epath((ObjectClass(cls), Instance(instance), Attribute(attribute)))
    return CipRequest(GET_ATTRIBUTE_SINGLE, path)


def parse_short_string(resp: CipResponse) -> str:
    """Parse a length-prefixed string reply (Identity product name)."""
    resp.raise_for_status()
    payload = resp.payload
    if not payload:
        raise CipError("short string reply is empty")
    n = payload[0]
    if len(payload) < 1 + n:
        raise CipError(f"short string declares {n} characters, {len(payload) - 1} present")
    return payload[1:1 + n].decode("ascii", "replace")


# ---------------------------------------------------------------------------
# Connection Manager routing

def connection_manager_path() -> Epath:
    return Epath((ObjectClass(CLASS_CONNECTION_MANAGER), Instance(1)))


def message_router_path() -> Epath:
    return Epath((ObjectClass(CLASS_MESSAGE_ROUTER), Instance(1)))


# how every Unconnected Send starts: the service and the Connection Manager path
_UNCONNECTED_SEND_HEAD = bytes((UNCONNECTED_SEND,)) + encode_epath(connection_manager_path())
_UCMM_TIMING = struct.Struct("<BBH")  # priority/tick, timeout ticks, message size


def encode_unconnected_send(message: bytes, slot: int) -> bytes:
    """The encoded Unconnected Send routing an encoded request to the given slot."""
    size = len(message)
    if size > 0xFFFF:
        raise CipError("embedded message exceeds 16-bit size field")
    if not 0 <= slot <= 0xFF:
        raise CipError(f"link {slot} out of 8-bit range")
    # an odd message gets a pad byte its size leaves out; then the route:
    # its size in words, a reserved byte, and the backplane port segment
    route = bytes((0, 1, 0, BACKPLANE_PORT, slot) if size % 2 else (1, 0, BACKPLANE_PORT, slot))
    timing = _UCMM_TIMING.pack(UCMM_PRIORITY_TICK, UCMM_TIMEOUT_TICKS, size)
    return _UNCONNECTED_SEND_HEAD + timing + message + route


def parse_unconnected_send(req: CipRequest) -> tuple[bytes, PortLink]:
    """Server-side unwrap: returns (embedded message bytes, route)."""
    if req.service != UNCONNECTED_SEND:
        raise CipError(f"not an Unconnected Send: service 0x{req.service:02X}")
    p = req.payload
    if len(p) < 4:
        raise CipError("Unconnected Send payload truncated")
    (size,) = struct.unpack_from("<H", p, 2)
    pos = 4
    if len(p) < pos + size:
        raise CipError("embedded message truncated")
    message = p[pos:pos + size]
    pos += size + (size % 2)
    if len(p) < pos + 2:
        raise CipError("route path header truncated")
    route_words = p[pos]
    pos += 2
    if len(p) < pos + route_words * 2:
        raise CipError("route path truncated")
    route_bytes = p[pos:pos + route_words * 2]
    if route_words != 1:
        raise CipError(f"route path of {route_words} words unsupported")
    b0 = route_bytes[0]
    if b0 & 0xE0 or b0 & 0x10:
        raise CipError(f"route segment byte 0x{b0:02X} is not a simple port segment")
    return message, PortLink(b0 & 0x0F, route_bytes[1])


# ---------------------------------------------------------------------------
# Multi-Request

def offset_table(items: list[bytes]) -> bytes:
    """Item count, offset table and items: a Multi-Request body or its reply's."""
    n = len(items)
    offsets = []
    pos = 2 + 2 * n  # from the start of the count field
    for item in items:
        offsets.append(pos)
        pos += len(item)
    return struct.pack(f"<{n + 1}H", n, *offsets) + b"".join(items)


# how every Multi-Request starts: the service and the Message Router path
_MULTI_REQUEST_HEAD = bytes((MULTI_REQUEST,)) + encode_epath(message_router_path())


def encode_multi_request(items: list[bytes]) -> bytes:
    """The encoded Multi-Request around inner requests that are already encoded."""
    if not items:
        raise CipError("multi-request needs at least one inner request")
    return _MULTI_REQUEST_HEAD + offset_table(items)


def split_offset_table(payload: bytes) -> list[bytes]:
    """The items of a Multi-Request body or its reply's, as `offset_table` lays them out."""
    if len(payload) < 2:
        raise CipError("multi payload missing item count")
    (count,) = struct.unpack_from("<H", payload)
    table_end = 2 + 2 * count
    if count < 1 or len(payload) < table_end:
        raise CipError(f"multi offset table inconsistent (count {count})")
    bounds = struct.unpack_from(f"<{count}H", payload, 2) + (len(payload),)
    items = []
    for i in range(count):
        start, end = bounds[i], bounds[i + 1]
        if not table_end <= start <= end <= len(payload):
            raise CipError(f"multi offset {start} outside payload bounds")
        items.append(payload[start:end])
    return items


def split_multi_request(req: CipRequest) -> list[CipRequest]:
    """Server-side split of a Multi-Request into its inner requests."""
    if req.service != MULTI_REQUEST:
        raise CipError(f"not a multi-request: service 0x{req.service:02X}")
    return [decode_request(item) for item in split_offset_table(req.payload)]


def build_multi_response(replies: list[CipResponse]) -> CipResponse:
    payload = offset_table([encode_response(r) for r in replies])
    general = STATUS_OK if all(r.ok for r in replies) else STATUS_EMBEDDED_SERVICE_ERROR
    return CipResponse(MULTI_REQUEST | REPLY_FLAG, general, (), payload)


def split_multi_response(resp: CipResponse, n: int) -> list[CipResponse]:
    """Split a Multi-Request reply into inner replies, ordered as submitted."""
    if resp.service_reply != (MULTI_REQUEST | REPLY_FLAG):
        raise CipError(f"not a multi reply: service 0x{resp.service_reply:02X}")
    if resp.general_status not in (STATUS_OK, STATUS_EMBEDDED_SERVICE_ERROR):
        resp.raise_for_status()
    items = split_offset_table(resp.payload)
    if len(items) != n:
        raise CipError(f"multi reply carries {len(items)} items, expected {n}")
    return [decode_response(item) for item in items]


# ---------------------------------------------------------------------------
# Forward_Open / Forward_Close

# Connection parameter word: point-to-point, low priority, variable size 500.
_CONNECTION_PARAMS = 0x43F4
# Class 3 (explicit), application-triggered, server end bit set by originator.
_TRANSPORT_CLASS_TRIGGER = 0xA3
_TIMEOUT_MULTIPLIER = 0x03  # x32 of the update interval before the PLC gives up

DEFAULT_UPDATE_INTERVAL_US = 10_000_000

ORIGINATOR_VENDOR = 0x004D
ORIGINATOR_SERIAL = 0x13AD0001


@dataclass
class ForwardOpenParams:
    slot: int = 0
    t_to_o_id: int = 1
    serial: int = 1
    update_interval_us: int = DEFAULT_UPDATE_INTERVAL_US


@dataclass(frozen=True)
class ConnectionGrant:
    o_to_t_id: int
    t_to_o_id: int
    serial: int
    update_interval_us: int


_FO_BODY = struct.Struct("<BBIIHHIB3xIHIHB")


def build_forward_open(params: ForwardOpenParams) -> CipRequest:
    conn_path = (
        _encode_segment(PortLink(BACKPLANE_PORT, params.slot))
        + _encode_segment(ObjectClass(CLASS_MESSAGE_ROUTER))
        + _encode_segment(Instance(1))
    )
    body = _FO_BODY.pack(
        UCMM_PRIORITY_TICK,
        UCMM_TIMEOUT_TICKS,
        0,  # O->T connection id: assigned by the target
        params.t_to_o_id,
        params.serial,
        ORIGINATOR_VENDOR,
        ORIGINATOR_SERIAL,
        _TIMEOUT_MULTIPLIER,
        params.update_interval_us,
        _CONNECTION_PARAMS,
        params.update_interval_us,
        _CONNECTION_PARAMS,
        _TRANSPORT_CLASS_TRIGGER,
    )
    body += bytes((len(conn_path) // 2,)) + conn_path
    return CipRequest(FORWARD_OPEN, connection_manager_path(), body)


@dataclass
class ForwardOpenRequest:
    """Server-side view of a Forward_Open body."""

    t_to_o_id: int
    serial: int
    vendor: int
    originator_serial: int
    update_interval_us: int
    route: PortLink
    target: Epath


def parse_forward_open_request(req: CipRequest) -> ForwardOpenRequest:
    if req.service != FORWARD_OPEN:
        raise CipError(f"not a Forward_Open: service 0x{req.service:02X}")
    p = req.payload
    if len(p) < _FO_BODY.size + 1:
        raise CipError("Forward_Open body truncated")
    fields = _FO_BODY.unpack_from(p)
    (_pri, _ticks, _o2t, t2o, serial, vendor, orig_serial,
     _mult, o2t_rpi, _o2t_params, _t2o_rpi, _t2o_params, _trigger) = fields
    path_words = p[_FO_BODY.size]
    path_bytes = p[_FO_BODY.size + 1:]
    if len(path_bytes) != path_words * 2:
        raise CipError("Forward_Open connection path length mismatch")
    if path_words < 1:
        raise CipError("Forward_Open connection path empty")
    b0 = path_bytes[0]
    if b0 & 0xE0 or b0 & 0x10:
        raise CipError("Forward_Open connection path must start with a port segment")
    route = PortLink(b0 & 0x0F, path_bytes[1])
    target, consumed = decode_epath(bytes((path_words - 1,)) + path_bytes[2:])
    if consumed != 1 + len(path_bytes) - 2:
        raise CipError("Forward_Open connection path has trailing bytes")
    return ForwardOpenRequest(t2o, serial, vendor, orig_serial, o2t_rpi, route, target)


_FO_REPLY = struct.Struct("<IIHHIIIBB")


def build_forward_open_reply(
    o_to_t_id: int,
    t_to_o_id: int,
    serial: int,
    vendor: int,
    originator_serial: int,
    update_interval_us: int,
) -> CipResponse:
    payload = _FO_REPLY.pack(
        o_to_t_id,
        t_to_o_id,
        serial,
        vendor,
        originator_serial,
        update_interval_us,
        update_interval_us,
        0,
        0,
    )
    return CipResponse(FORWARD_OPEN | REPLY_FLAG, STATUS_OK, (), payload)


def parse_forward_open_reply(resp: CipResponse) -> ConnectionGrant:
    resp.raise_for_status()
    if resp.service_reply != (FORWARD_OPEN | REPLY_FLAG):
        raise CipError(f"not a Forward_Open reply: service 0x{resp.service_reply:02X}")
    if len(resp.payload) < _FO_REPLY.size:
        raise CipError("Forward_Open reply truncated")
    o2t, t2o, serial, _vendor, _orig, o2t_api, _t2o_api, _app, _rsv = _FO_REPLY.unpack_from(
        resp.payload
    )
    return ConnectionGrant(o2t, t2o, serial, o2t_api)


def build_forward_close(slot: int, serial: int) -> CipRequest:
    conn_path = (
        _encode_segment(PortLink(BACKPLANE_PORT, slot))
        + _encode_segment(ObjectClass(CLASS_MESSAGE_ROUTER))
        + _encode_segment(Instance(1))
    )
    body = struct.pack(
        "<BBHHI", UCMM_PRIORITY_TICK, UCMM_TIMEOUT_TICKS,
        serial, ORIGINATOR_VENDOR, ORIGINATOR_SERIAL,
    )
    body += bytes((len(conn_path) // 2, 0x00)) + conn_path
    return CipRequest(FORWARD_CLOSE, connection_manager_path(), body)


_FC_IDENTITY = struct.Struct("<HHI")


def parse_forward_close(req: CipRequest) -> tuple[int, int, int]:
    """Connection identity of a Forward_Close: (serial, vendor, originator serial)."""
    if req.service != FORWARD_CLOSE or len(req.payload) < 2 + _FC_IDENTITY.size:
        raise CipError("malformed Forward_Close")
    return _FC_IDENTITY.unpack_from(req.payload, 2)


# ---------------------------------------------------------------------------
# size arithmetic for transfer planning

def estimate_response_size(elem_type: CipType, element_count: int) -> int:
    """Upper bound on the encoded read reply: status header + type + data."""
    return 4 + 2 + elem_type.width * element_count


def wrapped_request_size(inner_size: int) -> int:
    """Size of an Unconnected Send carrying a message of inner_size bytes."""
    return inner_size + UNCONNECTED_SEND_OVERHEAD + (inner_size % 2)


def multi_request_size(inner_sizes: list[int]) -> int:
    """Encoded size of a Multi-Request around the given inner request sizes."""
    return 2 + 4 + 2 + 2 * len(inner_sizes) + sum(inner_sizes)


def multi_response_size(inner_sizes: list[int]) -> int:
    """Encoded size of a Multi-Request reply around the given inner reply sizes."""
    return 4 + 2 + 2 * len(inner_sizes) + sum(inner_sizes)
