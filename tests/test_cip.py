"""CIP codec: EPATH, typed values, services, routing, size arithmetic."""

import math
import random
import struct

import pytest

from logixscan import cip
from logixscan.cip import (
    Attribute,
    CipError,
    CipRequest,
    CipResponse,
    CipStatusError,
    CipType,
    CipValue,
    Element,
    Epath,
    Instance,
    ObjectClass,
    PortLink,
    Symbol,
)

from reference import build_read_request, decode_typed_data, wrap_unconnected_send


def decode_epath_by_hand(data: bytes) -> list:
    """Independent table-driven decoder for word-count-prefixed paths."""
    words = data[0]
    body = data[1:1 + words * 2]
    assert len(body) == words * 2
    segments = []
    pos = 0
    while pos < len(body):
        b0 = body[pos]
        if b0 == 0x91:
            n = body[pos + 1]
            segments.append(("sym", body[pos + 2:pos + 2 + n].decode()))
            pos += 2 + n + (n % 2)
        elif b0 in (0x20, 0x24, 0x30):
            kind = {0x20: "class", 0x24: "inst", 0x30: "attr"}[b0]
            segments.append((kind, body[pos + 1]))
            pos += 2
        elif b0 in (0x21, 0x25, 0x31):
            kind = {0x21: "class", 0x25: "inst", 0x31: "attr"}[b0]
            segments.append((kind, body[pos + 2] | body[pos + 3] << 8))
            pos += 4
        elif b0 == 0x28:
            segments.append(("elem", body[pos + 1]))
            pos += 2
        elif b0 == 0x29:
            segments.append(("elem", body[pos + 2] | body[pos + 3] << 8))
            pos += 4
        elif b0 == 0x2A:
            value = int.from_bytes(body[pos + 2:pos + 6], "little")
            segments.append(("elem", value))
            pos += 6
        elif b0 < 0x10:
            segments.append(("port", b0, body[pos + 1]))
            pos += 2
        else:
            raise AssertionError(f"hand decoder hit byte 0x{b0:02X}")
    return segments


SYMBOL_TEST_PATH = bytes.fromhex("03 91 04 54 45 53 54".replace(" ", ""))
IDENTITY_NAME_PATH = bytes.fromhex("03 20 01 24 01 30 07".replace(" ", ""))


def test_symbol_path_golden_bytes():
    encoded = cip.encode_epath(Epath([Symbol("TEST")]))
    assert encoded == SYMBOL_TEST_PATH
    assert decode_epath_by_hand(encoded) == [("sym", "TEST")]


def test_identity_attribute_path_golden_bytes():
    path = Epath([ObjectClass(0x01), Instance(1), Attribute(7)])
    encoded = cip.encode_epath(path)
    assert encoded == IDENTITY_NAME_PATH
    assert decode_epath_by_hand(encoded) == [("class", 1), ("inst", 1), ("attr", 7)]


def test_symbol_padded_to_even_length():
    encoded = cip.encode_epath(Epath([Symbol("abc")]))
    assert encoded == b"\x03\x91\x03abc\x00"


def test_element_segment_smallest_form():
    assert cip.encode_epath(Epath([Symbol("ab"), Element(5)]))[-2:] == b"\x28\x05"
    encoded = cip.encode_epath(Epath([Symbol("ab"), Element(0x1234)]))
    assert encoded[-4:] == b"\x29\x00\x34\x12"
    encoded = cip.encode_epath(Epath([Symbol("ab"), Element(0x12345678)]))
    assert encoded[-6:] == b"\x2a\x00\x78\x56\x34\x12"


def test_epath_decode_matches_encode():
    path = Epath([
        PortLink(1, 3),
        ObjectClass(0x02),
        Instance(1),
        Symbol("Local:1:I"),
        Symbol("Ch0Data"),
        Element(400),
        Attribute(0x123),
    ])
    encoded = cip.encode_epath(path)
    decoded, consumed = cip.decode_epath(encoded)
    assert consumed == len(encoded)
    assert decoded == path


def test_epath_rejects_bad_input():
    with pytest.raises(CipError):
        cip.encode_epath(Epath([Symbol("")]))
    with pytest.raises(CipError):
        cip.encode_epath(Epath([Symbol("x" * 41)]))
    with pytest.raises(CipError):
        cip.encode_epath(Epath([Symbol("ünïcode")]))
    with pytest.raises(CipError):
        cip.decode_epath(b"\x02\x91\x04TE")  # declared two words, body short
    with pytest.raises(CipError):
        cip.decode_epath(b"")


def test_fuzz_epath_roundtrip():
    rng = random.Random(0xEA7)
    letters = "ABCdef_:0123456789"
    for _ in range(2000):
        segments = []
        for _ in range(rng.randrange(1, 6)):
            kind = rng.randrange(5)
            if kind == 0:
                name = rng.choice("AZ_f") + "".join(
                    rng.choice(letters) for _ in range(rng.randrange(0, 12))
                )
                segments.append(Symbol(name))
            elif kind == 1:
                segments.append(Element(rng.choice([0, 1, 255, 256, 65535, 65536, 2**32 - 1])))
            elif kind == 2:
                segments.append(ObjectClass(rng.choice([1, 2, 6, 0xFF, 0x100, 0xFFFF])))
            elif kind == 3:
                segments.append(Instance(rng.randrange(0x10000)))
            else:
                segments.append(Attribute(rng.randrange(0x100)))
        path = Epath(segments)
        decoded, consumed = cip.decode_epath(cip.encode_epath(path))
        assert decoded == path
        assert consumed == len(cip.encode_epath(path))


# -- typed values -----------------------------------------------------------

def test_real_decode_golden_bytes():
    value = decode_typed_data(bytes.fromhex("ca 00 00 80 38 3b"))
    assert value.type is CipType.REAL
    assert value.scalar == pytest.approx(0.0028152466, abs=1e-9)


def test_real_encode_golden_bytes():
    assert cip.pack_elements(CipType.REAL, [1.0]) == b"\x00\x00\x80\x3f"
    assert cip.pack_elements(CipType.REAL, [0.0028152466]) == b"\x00\x80\x38\x3b"


def test_integer_widths_and_signs():
    assert cip.pack_elements(CipType.SINT, [-1]) == b"\xff"
    assert cip.pack_elements(CipType.INT, [-2]) == b"\xfe\xff"
    assert cip.pack_elements(CipType.DINT, [-3]) == b"\xfd\xff\xff\xff"
    assert cip.unpack_elements(CipType.DINT, b"\xfd\xff\xff\xff") == (-3,)


def test_unsigned_aliases_normalized_to_twos_complement():
    assert cip.pack_elements(CipType.DINT, [0xFFFFFFFF]) == b"\xff\xff\xff\xff"
    assert cip.unpack_elements(CipType.DINT, b"\xff\xff\xff\xff") == (-1,)
    assert cip.pack_elements(CipType.SINT, [255]) == b"\xff"
    with pytest.raises(CipError):
        cip.pack_elements(CipType.SINT, [256])


def test_bool_wire_form():
    assert cip.pack_elements(CipType.BOOL, [True, False]) == b"\xff\x00"
    # any nonzero byte reads back as true
    assert cip.unpack_elements(CipType.BOOL, b"\x01\x00\xff") == (True, False, True)


def test_typed_data_rejects_garbage():
    with pytest.raises(CipError):
        decode_typed_data(b"\xc4")
    with pytest.raises(CipError):
        decode_typed_data(b"\x99\x09\x00")  # unknown type code
    with pytest.raises(CipError):
        decode_typed_data(b"\xc4\x00\x01\x02")  # partial DINT
    with pytest.raises(CipError):
        decode_typed_data(b"\xc4\x00")  # no elements


def test_bool_decode_reads_any_nonzero_byte_as_true():
    assert cip.unpack_elements(CipType.BOOL, b"\x02\x80\x00") == (True, True, False)
    value = decode_typed_data(b"\xc1\x00\x80")
    assert value.type is CipType.BOOL and value.elements == (True,)


def test_decode_different_counts_of_one_type_back_to_back():
    three = cip.pack_elements(CipType.DINT, [1, -2, 3])
    five = cip.pack_elements(CipType.DINT, [5, 6, -7, 8, 9])
    assert decode_typed_data(b"\xc4\x00" + three).elements == (1, -2, 3)
    assert decode_typed_data(b"\xc4\x00" + five).elements == (5, 6, -7, 8, 9)
    assert decode_typed_data(b"\xc4\x00" + three).elements == (1, -2, 3)


def test_decode_beyond_the_compiled_layout_cache():
    size = cip._UNPACK_CACHE_SIZE
    # a count above the cache size, then more distinct counts than it holds
    big = tuple(float(i) for i in range(size + 1))
    assert cip.unpack_elements(CipType.REAL, cip.pack_elements(CipType.REAL, big)) == big
    for n in range(1, size + 3):
        values = tuple(range(n))
        assert cip.unpack_elements(CipType.INT, cip.pack_elements(CipType.INT, values)) == values
    assert cip.unpack_elements(CipType.INT, b"\x01\x00\xff\xff") == (1, -1)


def test_fuzz_value_roundtrip():
    rng = random.Random(0x7A9)
    for _ in range(2000):
        elem_type = rng.choice(list(CipType))
        n = rng.randrange(1, 20)
        if elem_type is CipType.BOOL:
            values = tuple(rng.random() < 0.5 for _ in range(n))
        elif elem_type is CipType.REAL:
            values = tuple(
                struct.unpack("<f", struct.pack("<f", rng.uniform(-1e6, 1e6)))[0]
                for _ in range(n)
            )
        else:
            bits = {CipType.SINT: 8, CipType.INT: 16, CipType.DINT: 32}[elem_type]
            values = tuple(
                rng.randrange(-(1 << (bits - 1)), 1 << (bits - 1)) for _ in range(n)
            )
        packed = cip.pack_elements(elem_type, values)
        assert len(packed) == elem_type.width * n
        assert cip.unpack_elements(elem_type, packed) == values


def pack_each(elem_type, elements):
    """Reference packer: one element at a time."""
    out = bytearray()
    for v in elements:
        if elem_type is CipType.BOOL:
            out.append(0xFF if v else 0x00)
        elif elem_type is CipType.REAL:
            out += struct.pack("<f", float(v))
        else:
            bits = 8 * elem_type.width
            v = int(v)
            if not -(1 << (bits - 1)) <= v < (1 << bits):
                raise CipError(f"{v} out of range for {elem_type.name}")
            if v >= 1 << (bits - 1):
                v -= 1 << bits
            out += struct.pack({8: "<b", 16: "<h", 32: "<i"}[bits], v)
    return bytes(out)


def packed_or_error(elem_type, elements):
    try:
        return cip.pack_elements(elem_type, elements)
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


def reference_or_error(elem_type, elements):
    try:
        return pack_each(elem_type, elements)
    except Exception as exc:
        return type(exc), str(exc)


def test_pack_elements_matches_element_by_element_packing():
    rng = random.Random(0x9AC4)
    cases = {
        CipType.BOOL: [[True, False], [1, 0, 2, "", "x", None, 0.0]],
        CipType.REAL: [
            [1.0, -0.0, math.nan, math.inf, -math.inf, 3, True],
            [rng.uniform(-1e6, 1e6) for _ in range(100)],
            [1e39], [1.0, 1e39, "x"], ["1.5", 2], [1.0, "x"], [None],
        ],
    }
    for elem_type in (CipType.SINT, CipType.INT, CipType.DINT):
        bits = 8 * elem_type.width
        low, high, top = -(1 << (bits - 1)), (1 << (bits - 1)) - 1, (1 << bits) - 1
        cases[elem_type] = [
            [low, high, 0, -1, True],
            [high + 1, top, low],               # the unsigned top range
            [rng.randrange(low, top + 1) for _ in range(40)],
            [0, top + 1, low - 1], [low - 1], [0, 1.9, -1.9, "12"],
            [low - 1, "x"], [math.nan], [math.inf], [1, "x", top + 1], [None],
        ]
    for elem_type, runs in cases.items():
        for elements in runs + [[]]:
            expected = reference_or_error(elem_type, elements)
            assert packed_or_error(elem_type, elements) == expected, (elem_type, elements)
            assert packed_or_error(elem_type, iter(elements)) == expected
    assert reference_or_error(CipType.DINT, [0, 1 << 32]) == (
        CipError, f"{1 << 32} out of range for DINT"
    )


# -- requests / responses --------------------------------------------------

def test_read_request_golden_bytes():
    req = build_read_request(Epath([Symbol("TEST")]), 1)
    encoded = cip.encode_request(req)
    assert encoded == b"\x4c" + SYMBOL_TEST_PATH + b"\x01\x00"
    assert len(encoded) == 10
    assert len(cip.encode_request(req)) == 10


def test_request_roundtrip_and_reply_flag_guard():
    req = CipRequest(0x4C, Epath([Symbol("abc"), Element(2)]), b"\x05\x00")
    assert cip.decode_request(cip.encode_request(req)) == req
    with pytest.raises(CipError):
        cip.encode_request(CipRequest(0xCC, Epath([Symbol("x")])))
    with pytest.raises(CipError):
        cip.decode_request(b"\xcc\x00")  # reply flag set


def test_response_layout_and_extended_status():
    resp = CipResponse(0xD2, 0x01, (0x0311,), b"")
    encoded = cip.encode_response(resp)
    assert encoded == b"\xd2\x00\x01\x01\x11\x03"
    assert cip.decode_response(encoded) == resp


def test_response_raise_for_status():
    resp = CipResponse(0xCC, 0x05, ())
    with pytest.raises(CipStatusError) as err:
        resp.raise_for_status()
    assert err.value.general == 0x05
    with pytest.raises(CipError):
        cip.decode_response(b"\x4c\x00\x00\x00")  # reply flag missing


def test_write_request_payload_layout():
    req = cip.decode_request(cip.encode_write_request(
        Epath([Symbol("counts"), Element(1)]), CipValue(CipType.DINT, [7, -7])
    ))
    assert req.payload == b"\xc4\x00\x02\x00" + struct.pack("<ii", 7, -7)
    assert cip.split_write_payload(req.payload) == (CipType.DINT, struct.pack("<ii", 7, -7))


def test_write_payload_rejects_length_mismatch():
    with pytest.raises(CipError):
        cip.split_write_payload(b"\xc4\x00\x02\x00" + b"\x00" * 4)


def test_short_string_parsing():
    resp = CipResponse(0x8E, 0, (), b"\x0c1756-ENET/A ")
    assert cip.parse_short_string(resp) == "1756-ENET/A "
    bad = CipResponse(0x8E, 0, (), b"\x14only-12-chars")
    with pytest.raises(CipError):
        cip.parse_short_string(bad)


# -- unconnected send -------------------------------------------------------

def test_unconnected_send_wrapping_overhead():
    inner = build_read_request(Epath([Symbol("TEST")]), 1)
    inner_size = len(cip.encode_request(inner))  # 10, even
    wrapped = wrap_unconnected_send(inner, slot=3)
    encoded = cip.encode_request(wrapped)
    assert len(encoded) == inner_size + 14
    assert cip.wrapped_request_size(inner_size) == len(encoded)
    # odd inner sizes gain a pad byte
    odd_inner = build_read_request(Epath([Symbol("abc"), Element(1)]), 1)
    odd_size = len(cip.encode_request(odd_inner))
    assert cip.wrapped_request_size(11) == 11 + 14 + 1
    assert odd_size % 2 == 0  # symbol padding keeps real requests even


def test_unconnected_send_parse_recovers_inner():
    inner = build_read_request(Epath([Symbol("TEST")]), 2)
    wrapped = wrap_unconnected_send(inner, slot=0)
    message, route = cip.parse_unconnected_send(wrapped)
    assert message == cip.encode_request(inner)
    assert route == PortLink(1, 0)
    assert wrapped.path.segments == (ObjectClass(0x06), Instance(1))


def test_unconnected_send_addressed_to_connection_manager():
    inner = build_read_request(Epath([Symbol("x")]), 1)
    encoded = cip.encode_request(wrap_unconnected_send(inner, slot=0))
    assert encoded[0] == 0x52
    assert encoded[1:6] == b"\x02\x20\x06\x24\x01"


def unconnected_send_by_hand(message: bytes, slot: int) -> bytes:
    """Service, Connection Manager path, timing, size, message, pad, route."""
    out = bytearray(b"\x52\x02\x20\x06\x24\x01")
    out += bytes((cip.UCMM_PRIORITY_TICK, cip.UCMM_TIMEOUT_TICKS))
    out += struct.pack("<H", len(message)) + message
    if len(message) % 2:
        out.append(0)
    out += bytes((1, 0, cip.BACKPLANE_PORT, slot))
    return bytes(out)


def test_encode_unconnected_send_matches_the_wrapped_request():
    even = build_read_request(Epath([Symbol("TEST")]), 1)
    odd = CipRequest(cip.READ_DATA, Epath([Symbol("TEST")]), b"\x01")
    for inner in (even, odd):
        message = cip.encode_request(inner)
        for slot in range(17):
            wire = cip.encode_unconnected_send(message, slot)
            assert wire == unconnected_send_by_hand(message, slot)
            assert wire == cip.encode_request(wrap_unconnected_send(inner, slot))
            assert len(wire) == cip.wrapped_request_size(len(message))
    assert len(cip.encode_request(odd)) % 2 == 1
    with pytest.raises(CipError, match="16-bit size"):
        cip.encode_unconnected_send(bytes(0x10000), 0)
    for slot in (-1, 256):
        with pytest.raises(CipError, match="8-bit range"):
            cip.encode_unconnected_send(b"\x4c\x00", slot)


# -- multi-request ----------------------------------------------------------

def read_req(name: str) -> CipRequest:
    return build_read_request(Epath([Symbol(name)]), 1)


def test_multi_request_offsets_golden():
    multi = cip.decode_request(cip.encode_multi_request(
        [cip.encode_request(read_req("A")), cip.encode_request(read_req("B"))]
    ))
    count = struct.unpack_from("<H", multi.payload)[0]
    offsets = list(struct.unpack_from("<HH", multi.payload, 2))
    assert count == 2
    assert offsets == [6, 14]


def test_multi_request_split_identity():
    rng = random.Random(0x0A)
    for _ in range(200):
        inner = [
            read_req("tag" + "".join(rng.choice("ABC") for _ in range(rng.randrange(1, 10))))
            for _ in range(rng.randrange(1, 20))
        ]
        multi = cip.encode_multi_request([cip.encode_request(r) for r in inner])
        assert cip.split_multi_request(cip.decode_request(multi)) == inner


def test_multi_fifteen_reads_fits_in_limit():
    names = [f"Tag_{i:02d}_8chr_pad"[:15] for i in range(15)]
    assert all(len(n) == 15 for n in names)
    requests = [read_req(n) for n in names]
    sizes = [len(cip.encode_request(r)) for r in requests]
    assert sizes == [22] * 15
    encoded = cip.encode_multi_request([cip.encode_request(r) for r in requests])
    assert len(encoded) == 38 + 15 * 22 == 368
    assert cip.multi_request_size(sizes) == 368
    assert len(encoded) <= 500


def test_multi_response_split_and_embedded_error_status():
    ok = CipResponse(0xCC, 0, (), b"\xc4\x00\x01\x00\x00\x00")
    bad = CipResponse(0xCC, 0x05, ())
    combined = cip.build_multi_response([ok, bad])
    assert combined.general_status == 0x1E
    parts = cip.split_multi_response(combined, 2)
    assert parts == [ok, bad]
    all_ok = cip.build_multi_response([ok, ok])
    assert all_ok.general_status == 0


def test_multi_response_size_arithmetic():
    inner = [10, 12, 14]
    assert cip.multi_response_size(inner) == 4 + 2 + 6 + 36


def test_split_multi_response_checks_count():
    combined = cip.build_multi_response([CipResponse(0xCC, 0, (), b"")])
    with pytest.raises(CipError):
        cip.split_multi_response(combined, 2)


# -- forward open -----------------------------------------------------------

def test_forward_open_connection_path_golden():
    req = cip.build_forward_open(cip.ForwardOpenParams(slot=0))
    # path size word + port 1 link 0 + message router class 2 instance 1
    assert req.payload[-7:] == b"\x03\x01\x00\x20\x02\x24\x01"
    assert req.service == 0x54
    assert req.path.segments == (ObjectClass(0x06), Instance(1))


def test_forward_open_request_parse():
    params = cip.ForwardOpenParams(slot=4, t_to_o_id=0x11223344, serial=0x0102)
    parsed = cip.parse_forward_open_request(cip.build_forward_open(params))
    assert parsed.t_to_o_id == 0x11223344
    assert parsed.serial == 0x0102
    assert parsed.route == PortLink(1, 4)
    assert parsed.update_interval_us == cip.DEFAULT_UPDATE_INTERVAL_US


def test_forward_open_reply_roundtrip():
    reply = cip.build_forward_open_reply(0x10, 0x20, 0x3040, 0x4D, 0x99, 2_000_000)
    grant = cip.parse_forward_open_reply(reply)
    assert grant.o_to_t_id == 0x10
    assert grant.t_to_o_id == 0x20
    assert grant.serial == 0x3040
    assert grant.update_interval_us == 2_000_000


def test_forward_close_carries_serial():
    req = cip.build_forward_close(slot=2, serial=0xBEEF)
    assert cip.parse_forward_close(req) == (
        0xBEEF, cip.ORIGINATOR_VENDOR, cip.ORIGINATOR_SERIAL
    )


# -- size estimates ---------------------------------------------------------

def test_response_size_estimates():
    assert cip.estimate_response_size(CipType.REAL, 40) == 166
    assert cip.estimate_response_size(CipType.DINT, 11) == 50
    assert cip.estimate_response_size(CipType.INT, 1) == 8


@pytest.mark.parametrize("elem_type,text,value", [
    (CipType.REAL, "-2.5", -2.5),
    (CipType.REAL, "1e3", 1000.0),
    (CipType.BOOL, "ON", True),
    (CipType.BOOL, "false", False),
    (CipType.BOOL, "1", True),
    (CipType.DINT, "-12", -12),
    (CipType.DINT, "0x1F", 31),
    (CipType.SINT, "0b101", 5),
])
def test_parse_literal(elem_type, text, value):
    assert cip.parse_literal(elem_type, text) == value


@pytest.mark.parametrize("elem_type,text", [
    (CipType.REAL, "--"), (CipType.BOOL, "maybe"), (CipType.BOOL, "2"), (CipType.INT, "1.5"),
])
def test_parse_literal_rejects_bad_text(elem_type, text):
    with pytest.raises(ValueError, match=f"bad {elem_type.name} {text!r}"):
        cip.parse_literal(elem_type, text)
