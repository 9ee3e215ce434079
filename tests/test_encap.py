"""Encapsulation framing: header layout, session packets, CPF items."""

import random
import struct
from dataclasses import dataclass

import pytest

from logixscan import encap
from logixscan.encap import EncapError, EncapsHeader


@dataclass
class CpfItem:
    item_type: int
    data: bytes = b""


def decode_cpf(data: bytes) -> list[CpfItem]:
    """Item-by-item CPF parsing: the reference the one-path carrier parsers
    accept and reject as."""
    if len(data) < 8:
        raise EncapError("CPF prefix truncated")
    _handle, _timeout, count = struct.unpack_from("<IHH", data)
    offset = 8
    items: list[CpfItem] = []
    for _ in range(count):
        if len(data) < offset + 4:
            raise EncapError(f"CPF truncated: {len(items)} of {count} items")
        item_type, length = struct.unpack_from("<HH", data, offset)
        offset += 4
        if len(data) < offset + length:
            raise EncapError("CPF item data truncated")
        items.append(CpfItem(item_type, data[offset:offset + length]))
        offset += length
    if offset != len(data):
        raise EncapError(f"{len(data) - offset} trailing bytes after CPF items")
    return items


def encode_cpf(items: list[CpfItem]) -> bytes:
    """Item-by-item CPF framing: interface handle 0, timeout 0, item table.
    The reference the one-pass carriers are compared against."""
    out = bytearray(struct.pack("<IHH", 0, 0, len(items)))
    for item in items:
        out += struct.pack("<HH", item.item_type, len(item.data))
        out += item.data
    return bytes(out)


def decode_header_by_hand(data: bytes) -> dict:
    """Independent decoder: plain byte arithmetic, no struct."""
    u16 = lambda off: data[off] | data[off + 1] << 8
    u32 = lambda off: u16(off) | u16(off + 2) << 16
    return {
        "command": u16(0),
        "payload_length": u16(2),
        "session_handle": u32(4),
        "status": u32(8),
        "sender_context": data[12:20],
        "options": u32(20),
    }


def test_header_layout_against_hand_decoder():
    header = EncapsHeader(
        command=0x006F,
        session_handle=0xDEADBEEF,
        status=0x00000065,
        sender_context=b"ctx-8byt",
        options=0x01020304,
    )
    packet = encap.encode_packet(header, b"\x11\x22\x33")
    assert len(packet) == encap.HEADER_SIZE + 3
    fields = decode_header_by_hand(packet)
    assert fields["command"] == 0x006F
    assert fields["payload_length"] == 3
    assert fields["session_handle"] == 0xDEADBEEF
    assert fields["status"] == 0x65
    assert fields["sender_context"] == b"ctx-8byt"
    assert fields["options"] == 0x01020304


def test_register_session_golden_bytes():
    packet = encap.build_register_session()
    # 24-byte header + 4-byte payload: version 1, options 0
    assert len(packet) == 28
    assert packet[0:2] == b"\x65\x00"
    assert packet[2:4] == b"\x04\x00"
    assert packet[24:28] == b"\x01\x00\x00\x00"


def test_register_reply_roundtrip():
    reply = encap.encode_packet(
        EncapsHeader(encap.CMD_REGISTER_SESSION, session_handle=0x1234),
        b"\x01\x00\x00\x00",
    )
    assert encap.parse_register_reply(*encap.decode_packet(reply)) == 0x1234


def test_register_reply_rejects_zero_handle_and_bad_status():
    ok_payload = b"\x01\x00\x00\x00"
    zero = encap.encode_packet(EncapsHeader(encap.CMD_REGISTER_SESSION), ok_payload)
    with pytest.raises(EncapError):
        encap.parse_register_reply(*encap.decode_packet(zero))
    refused = encap.encode_packet(
        EncapsHeader(encap.CMD_REGISTER_SESSION, session_handle=1, status=0x0002),
        ok_payload,
    )
    with pytest.raises(EncapError) as err:
        encap.parse_register_reply(*encap.decode_packet(refused))
    assert "0x0002" in str(err.value)


def test_decode_packet_strictness():
    packet = encap.encode_packet(EncapsHeader(0x006F, session_handle=1), b"abcd")
    with pytest.raises(EncapError):
        encap.decode_packet(packet[:-1])  # payload truncated
    with pytest.raises(EncapError):
        encap.decode_packet(packet + b"\x00")  # trailing bytes
    with pytest.raises(EncapError):
        encap.decode_packet(packet[:10])  # header truncated


def test_payload_too_large_rejected():
    with pytest.raises(EncapError):
        encap.encode_packet(EncapsHeader(0x006F), b"\x00" * 0x10000)


def test_context_must_be_eight_bytes():
    with pytest.raises(EncapError):
        encap.encode_packet(EncapsHeader(0x006F, sender_context=b"short"))


def test_cpf_roundtrip_and_prefix():
    items = [
        CpfItem(encap.ITEM_NULL_ADDRESS),
        CpfItem(encap.ITEM_UNCONNECTED_DATA, b"\x0e\x02\x20\x01\x24\x01"),
    ]
    body = encode_cpf(items)
    # interface handle 0 (4 bytes) + timeout 0 (2) + item count 2 (2)
    assert body[:8] == b"\x00\x00\x00\x00\x00\x00\x02\x00"
    assert decode_cpf(body) == items


def test_cpf_rejects_trailing_bytes():
    body = encode_cpf([CpfItem(encap.ITEM_NULL_ADDRESS)])
    with pytest.raises(EncapError):
        decode_cpf(body + b"\x00")


def test_rr_data_roundtrip():
    cip_bytes = b"\x4c\x03\x91\x04TEST\x01\x00"
    packet = encap.build_rr_data(0x99, cip_bytes, b"AAAABBBB")
    header, payload = encap.decode_packet(packet)
    assert header.command == encap.CMD_SEND_RR_DATA
    assert header.session_handle == 0x99
    assert encap.parse_rr_data(payload) == cip_bytes


def test_rr_data_rejects_wrong_items():
    items = [CpfItem(encap.ITEM_NULL_ADDRESS), CpfItem(encap.ITEM_CONNECTED_DATA, b"x")]
    with pytest.raises(EncapError):
        encap.parse_rr_data(encode_cpf(items))


def test_unit_data_roundtrip_and_sequence_mask():
    packet = encap.build_unit_data(7, 0xABCD1234, 0x1FFFF, b"\x4c\x00", b"\x00" * 8)
    _header, payload = encap.decode_packet(packet)
    conn_id, seq, cip_bytes = encap.parse_unit_data(payload)
    assert conn_id == 0xABCD1234
    assert seq == 0xFFFF  # wrapped to 16 bits
    assert cip_bytes == b"\x4c\x00"


def test_unit_data_rejects_bad_address_item():
    items = [
        CpfItem(encap.ITEM_NULL_ADDRESS),
        CpfItem(encap.ITEM_CONNECTED_DATA, b"\x01\x00x"),
    ]
    with pytest.raises(EncapError):
        encap.parse_unit_data(encode_cpf(items))


def test_fuzz_header_roundtrip():
    rng = random.Random(0xE1B)
    for _ in range(2000):
        header = EncapsHeader(
            command=rng.randrange(0x10000),
            session_handle=rng.randrange(2**32),
            status=rng.randrange(2**32),
            sender_context=bytes(rng.randrange(256) for _ in range(8)),
            options=rng.randrange(2**32),
        )
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        decoded, decoded_payload = encap.decode_packet(encap.encode_packet(header, payload))
        assert decoded_payload == payload
        assert decoded.command == header.command
        assert decoded.session_handle == header.session_handle
        assert decoded.status == header.status
        assert decoded.sender_context == header.sender_context
        assert decoded.options == header.options


def test_fuzz_mutated_packets_never_crash():
    rng = random.Random(0xE1C)
    base = encap.build_rr_data(5, b"\x4c\x03\x91\x04TEST\x01\x00", b"\x00" * 8)
    for _ in range(2000):
        mutated = bytearray(base)
        for _ in range(rng.randrange(1, 6)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        try:
            header, payload = encap.decode_packet(bytes(mutated))
            encap.parse_rr_data(payload)
        except EncapError:
            pass


# -- one-pass carriers against item-by-item framing ---------------------------

RR_ITEMS_SIZE = 16    # CPF prefix + null address item + data item header
UNIT_ITEMS_SIZE = 22  # CPF prefix + address item with its id + data item header + sequence


def rr_by_items(session, cip_bytes, context, status=0):
    header = EncapsHeader(
        encap.CMD_SEND_RR_DATA, session_handle=session, status=status, sender_context=context
    )
    return encap.encode_packet(header, encode_cpf([
        CpfItem(encap.ITEM_NULL_ADDRESS), CpfItem(encap.ITEM_UNCONNECTED_DATA, cip_bytes),
    ]))


def unit_by_items(session, connection_id, sequence, cip_bytes, context):
    header = EncapsHeader(encap.CMD_SEND_UNIT_DATA, session_handle=session, sender_context=context)
    return encap.encode_packet(header, encode_cpf([
        CpfItem(encap.ITEM_CONNECTED_ADDRESS, connection_id.to_bytes(4, "little")),
        CpfItem(encap.ITEM_CONNECTED_DATA, (sequence & 0xFFFF).to_bytes(2, "little") + cip_bytes),
    ]))


def outcome(fn, *args):
    """What a call returns, or the EncapError class it raises."""
    try:
        return fn(*args)
    except EncapError:
        return EncapError


def test_carriers_match_item_by_item_framing():
    rng = random.Random(0xCA221E)
    rr_max, unit_max = encap.MAX_PAYLOAD - RR_ITEMS_SIZE, encap.MAX_PAYLOAD - UNIT_ITEMS_SIZE
    lengths = [0, 1, 2, 3, 11, 499, rr_max, unit_max] + [rng.randrange(600) for _ in range(200)]
    for n in lengths:
        cip_bytes = rng.randbytes(n)
        session, context = rng.randrange(2**32), rng.randbytes(8)
        status = rng.choice((0, rng.randrange(2**32)))
        assert encap.build_rr_data(session, cip_bytes, context, status) == rr_by_items(
            session, cip_bytes, context, status
        )
        if n <= unit_max:
            connection_id, sequence = rng.randrange(2**32), rng.randrange(2**17)
            assert encap.build_unit_data(
                session, connection_id, sequence, cip_bytes, context
            ) == unit_by_items(session, connection_id, sequence, cip_bytes, context)
    # one byte past the 16-bit length field, and a short context, still refused
    for build, args in (
        (encap.build_rr_data, (1, bytes(rr_max + 1))),
        (encap.build_unit_data, (1, 2, 3, bytes(unit_max + 1))),
        (encap.build_rr_data, (1, b"", b"short")),
        (encap.build_unit_data, (1, 2, 3, b"", b"short")),
    ):
        with pytest.raises(EncapError):
            build(*args)


def rr_by_cpf(payload):
    """The SendRRData check done on decode_cpf alone."""
    items = decode_cpf(payload)
    if len(items) != 2 or (items[0].item_type, items[1].item_type) != (
        encap.ITEM_NULL_ADDRESS, encap.ITEM_UNCONNECTED_DATA
    ):
        raise EncapError("not an unconnected carrier")
    return items[1].data


def unit_by_cpf(payload):
    """The SendUnitData check done on decode_cpf alone."""
    items = decode_cpf(payload)
    if len(items) != 2 or (items[0].item_type, items[1].item_type) != (
        encap.ITEM_CONNECTED_ADDRESS, encap.ITEM_CONNECTED_DATA
    ):
        raise EncapError("not a connected carrier")
    addr, data = items[0].data, items[1].data
    if len(addr) != 4 or len(data) < 2:
        raise EncapError("connected item sizes")
    return int.from_bytes(addr, "little"), int.from_bytes(data[:2], "little"), data[2:]


def mutations(rng, payload):
    """C11-style damage: bytes flipped, cut, appended, item fields rewritten."""
    for _ in range(150):
        mutated = bytearray(payload)
        kind = rng.randrange(5)
        if kind == 0:
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        elif kind == 1:
            del mutated[rng.randrange(len(mutated)):]
        elif kind == 2:
            mutated += rng.randbytes(rng.randrange(1, 6))
        else:
            # item count, first item's type or length, second item's length
            offset = rng.choice((6, 8, 10, 14 if len(mutated) > 15 else 6))
            mutated[offset:offset + 2] = rng.randrange(5).to_bytes(2, "little")
        yield bytes(mutated)


def test_carrier_parsers_accept_and_reject_as_decode_cpf_does():
    rng = random.Random(0xC11)
    items = CpfItem(encap.ITEM_NULL_ADDRESS, b"xy"), CpfItem(encap.ITEM_UNCONNECTED_DATA, b"ab")
    odd_layouts = [encode_cpf(list(items)), encode_cpf([items[1], items[0]])]
    accepted = 0
    for _ in range(40):
        cip_bytes = rng.randbytes(rng.randrange(24))
        rr = encap.build_rr_data(1, cip_bytes)[encap.HEADER_SIZE:]
        unit = encap.build_unit_data(1, rng.randrange(2**32), rng.randrange(2**16), cip_bytes)
        unit = unit[encap.HEADER_SIZE:]
        for payload in [rr, *mutations(rng, rr), *odd_layouts]:
            expected = outcome(rr_by_cpf, payload)
            assert outcome(encap.parse_rr_data, payload) == expected, payload.hex()
            accepted += expected is not EncapError
        for payload in [unit, *mutations(rng, unit), *odd_layouts]:
            expected = outcome(unit_by_cpf, payload)
            assert outcome(encap.parse_unit_data, payload) == expected, payload.hex()
            accepted += expected is not EncapError
    assert accepted > 80  # the damage left some payloads well formed
