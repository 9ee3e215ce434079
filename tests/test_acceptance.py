"""Acceptance gate: the guarantees the stack is sold on, one test per line item.

Each test records one PASS/FAIL line, printed after the run as a verdict table.
"""

import random
import struct
import time
from contextlib import contextmanager

import pytest

from logixscan import cip, encap
from logixscan.cip import (
    Attribute,
    CipRequest,
    CipType,
    CipValue,
    Element,
    Epath,
    Instance,
    ObjectClass,
    PortLink,
    Symbol,
    decode_response,
    encode_request,
)
from logixscan.cli import main
from logixscan.client import PlcClient, PlcEndpoint, PlcError
from logixscan.plcsim import CipEngine, FaultPlan, PlcSim, TagStore
from logixscan.scanner import Quality, TagScanner
from logixscan.tags import bool_remap, dint_span_for_bools, parse_tag, to_epath

import conftest
from conftest import make_store
from reference import build_read_request, decode_packet, decode_typed_data, wrap_unconnected_send


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        conftest.VERDICTS.append(f"C{num:02d} FAIL  {title}")
        raise
    conftest.VERDICTS.append(f"C{num:02d} PASS  {title}")


def test_c01_real_wire_decode():
    with criterion(1, "REAL wire decode"):
        value = decode_typed_data(bytes.fromhex("ca 00 00 80 38 3b"))
        assert value.type is CipType.REAL
        assert abs(value.scalar - 0.002815) <= 1e-6


def test_c02_identity_string(sim, capsys):
    with criterion(2, "identity product name over CLI"):
        code = main(["info", "127.0.0.1", "--port", str(sim.port)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "1756-ENET/A \n"
        assert len(out.rstrip("\n")) == 12


def test_c03_reply_bit_rule():
    with criterion(3, "reply code is request code | 0x80 for every service"):
        eng = CipEngine(make_store(), FaultPlan())
        read = build_read_request(to_epath(parse_tag("TEST")), 1)
        requests = [
            read,                                                     # 0x4C
            cip.decode_request(cip.encode_write_request(
                to_epath(parse_tag("counts[0]")), CipValue(CipType.DINT, (1,))
            )),                                                       # 0x53
            cip.build_get_attribute_single(
                cip.CLASS_IDENTITY, 1, cip.ATTR_PRODUCT_NAME
            ),                                                        # 0x0E
            cip.decode_request(
                cip.encode_multi_request([encode_request(read)] * 2)
            ),                                                        # 0x0A
            cip.build_forward_open(cip.ForwardOpenParams()),          # 0x54
            cip.build_forward_close(0, 1),                            # 0x4E
            wrap_unconnected_send(read, slot=9),                  # 0x52, bad route
            CipRequest(0x63, to_epath(parse_tag("TEST"))),            # unsupported
            build_read_request(to_epath(parse_tag("missing")), 1),    # error reply
        ]
        for req in requests:
            resp = decode_response(eng.handle(encode_request(req), {}))
            assert resp.service_reply == (req.service | cip.REPLY_FLAG), hex(req.service)
        # on success the router is transparent: the reply carries the inner code
        wrapped = wrap_unconnected_send(read, slot=0)
        resp = decode_response(eng.handle(encode_request(wrapped), {}))
        assert resp.service_reply == (cip.READ_DATA | cip.REPLY_FLAG)


def test_c04_bool_remap():
    with criterion(4, "BOOL bit to DINT word remap"):
        for bit, word, offset in ((5, 0, 5), (160, 5, 0), (191, 5, 31)):
            ref, bit_in_word = bool_remap(parse_tag(f"test[{bit}]", bool_array=True))
            assert str(ref) == f"test[{word}]"
            assert bit_in_word == offset
        assert dint_span_for_bools(352) == 11


def test_c05_batching_economy():
    with criterion(5, "15 scalar reads: 1 round trip batched, 15 unbatched"):
        store = TagStore()
        names = [f"Tag_{i:02d}_23456789" for i in range(15)]
        assert all(len(n) == 15 for n in names)
        for i, name in enumerate(names):
            store.define(name, CipType.DINT, [i])

        # the bundle itself stays under the 500-byte transaction cap
        reads = [build_read_request(to_epath(parse_tag(n)), 1) for n in names]
        multi = cip.encode_multi_request([encode_request(r) for r in reads])
        assert len(multi) <= 500
        assert cip.wrapped_request_size(len(multi)) <= 500

        with PlcSim(store, FaultPlan(latency_s=0.011)) as sim:
            def build(batching):
                sc = TagScanner(batching=batching)
                sc.add_plc("plc", PlcEndpoint(
                    "127.0.0.1", port=sim.port, request_timeout=2.0
                ))
                subs = [
                    sc.add_tag("plc", n, 1.0, elem_type=CipType.DINT) for n in names
                ]
                return sc, subs

            batched, subs = build(True)
            assert batched.plan_info("plc", 1.0) == [15]
            batched.scan_once("plc")  # warm-up: TCP connect and register
            before = sim.store.round_trips
            started = time.perf_counter()
            batched.scan_once("plc")
            batched_wall = time.perf_counter() - started
            assert sim.store.round_trips == before + 1
            assert [batched.value_of(s) for s in subs] == list(range(15))
            assert batched_wall < 0.040, f"batched scan took {batched_wall * 1000:.1f} ms"

            unbatched, _ = build(False)
            assert unbatched.plan_info("plc", 1.0) == [1] * 15
            unbatched.scan_once("plc")
            before = sim.store.round_trips
            started = time.perf_counter()
            unbatched.scan_once("plc")
            unbatched_wall = time.perf_counter() - started
            assert sim.store.round_trips == before + 15
            assert unbatched_wall > 0.150, (
                f"unbatched scan took {unbatched_wall * 1000:.1f} ms"
            )
            batched.stop()
            unbatched.stop()


def test_c06_sixty_second_scan_scenario():
    with criterion(6, "60 s mixed scan: zero errors, zero overruns, 1 rt/cycle"):
        store = TagStore()
        bits = [i % 7 == 0 for i in range(352)]
        store.define("binp", CipType.BOOL, bits)
        for name in ("ra", "rb", "rc"):
            store.define(name, CipType.REAL, [float(i) / 8 for i in range(40)])

        with PlcSim(store, FaultPlan(latency_s=0.005)) as sim:
            sc = TagScanner()
            sc.add_plc("plc", PlcEndpoint(
                "127.0.0.1", port=sim.port, request_timeout=2.0
            ))
            fast = [
                sc.add_tag("plc", f"binp[{i}]", 0.1, bool_array=True)
                for i in range(352)
            ]
            slow = []
            for name in ("ra", "rb", "rc"):
                slow += [
                    sc.add_tag("plc", f"{name}[{i}]", 0.5, elem_type=CipType.REAL)
                    for i in range(40)
                ]
            # 352 bits ride 11 DINTs in a single read; the REAL blocks need 2 rts
            assert sc.plan_info("plc", 0.1) == [1]
            assert sc.plan_info("plc", 0.5) == [2, 1]

            sc.start()
            time.sleep(60.0)
            sc.stop()

            fast_stats = sc.stats("plc", 0.1)
            slow_stats = sc.stats("plc", 0.5)
            assert fast_stats.errors == 0 and slow_stats.errors == 0
            assert fast_stats.overruns == 0 and slow_stats.overruns == 0
            assert 590 <= fast_stats.count <= 610, fast_stats.count
            assert 115 <= slow_stats.count <= 125, slow_stats.count
            # every fast cycle cost exactly 1 round trip, every slow cycle 2
            assert sim.store.round_trips == fast_stats.count + 2 * slow_stats.count
            assert all(s.quality is Quality.OK for s in fast + slow)
            assert sc.value_of(fast[0]) is True and sc.value_of(fast[1]) is False


def test_c07_coalescing_matches_element_reads():
    with criterion(7, "coalesced reads equal per-element reads, splits included"):
        rng = random.Random(0xC0A1E5CE)
        store = TagStore()
        cases = []
        int_ranges = {
            CipType.SINT: (-128, 127),
            CipType.INT: (-(1 << 15), (1 << 15) - 1),
            CipType.DINT: (-(1 << 31), (1 << 31) - 1),
        }
        for case in range(200):
            elem_type = rng.choice(
                [CipType.SINT, CipType.INT, CipType.DINT, CipType.REAL]
            )
            length = rng.randint(150, 200) if case % 9 == 0 else rng.randint(1, 60)
            if elem_type is CipType.REAL:
                values = [rng.uniform(-1e6, 1e6) for _ in range(length)]
            else:
                lo, hi = int_ranges[elem_type]
                values = [rng.randint(lo, hi) for _ in range(length)]
            name = f"a{case}"
            store.define(name, elem_type, values)
            indices = sorted(rng.sample(range(length), rng.randint(1, min(length, 12))))
            cases.append((name, elem_type, indices))

        split_seen = False
        with PlcSim(store) as sim:
            sc = TagScanner()
            sc.add_plc("plc", PlcEndpoint(
                "127.0.0.1", port=sim.port, request_timeout=2.0
            ))
            oracle = PlcClient(PlcEndpoint(
                "127.0.0.1", port=sim.port, request_timeout=2.0
            ))
            oracle.connect()
            for i, (name, elem_type, indices) in enumerate(cases):
                period = 1000.0 + i  # distinct scan list per case
                subs = [
                    sc.add_tag("plc", f"{name}[{k}]", period, elem_type=elem_type)
                    for k in indices
                ]
                if len(sc.plan_info("plc", period)) > 1 or (
                    cip.estimate_response_size(elem_type, max(indices) - min(indices) + 1)
                    > 500
                ):
                    split_seen = True
                sc.scan_once("plc", period)
                for sub, k in zip(subs, indices):
                    expected = oracle.read_tag(f"{name}[{k}]").scalar
                    assert sc.value_of(sub) == expected, f"{name}[{k}]"
            oracle.close()
            sc.stop()
        assert split_seen, "no case exercised the oversized-span split"


def test_c08_whole_span_write_caveat(sim):
    with criterion(8, "two dirty elements: one span write; coalesce off: two"):
        sc = TagScanner()
        sc.add_plc("plc", PlcEndpoint("127.0.0.1", port=sim.port, request_timeout=2.0))
        lo = sc.add_tag("plc", "counts[0]", 1.0, direction="out", elem_type=CipType.DINT)
        hi = sc.add_tag("plc", "counts[3]", 1.0, direction="out", elem_type=CipType.DINT)
        writes_before = sim.store.service_counts[cip.WRITE_DATA]
        sc.write(lo, 111, immediate=False)
        sc.write(hi, 222, immediate=False)
        sc.flush("plc")
        assert sim.store.service_counts[cip.WRITE_DATA] == writes_before + 1
        # the single transfer covered first-to-highest, carrying the gap values
        assert sim.store.get_tag("counts").elements == (111, 20, 30, 222, 50)
        sc.stop()

        sim.store.set_tag("counts", [10, 20, 30, 40, 50])
        sc2 = TagScanner()
        sc2.add_plc("plc", PlcEndpoint("127.0.0.1", port=sim.port, request_timeout=2.0))
        lo2 = sc2.add_tag(
            "plc", "counts[0]", 1.0, direction="out",
            elem_type=CipType.DINT, coalesce=False,
        )
        hi2 = sc2.add_tag(
            "plc", "counts[3]", 1.0, direction="out",
            elem_type=CipType.DINT, coalesce=False,
        )
        writes_before = sim.store.service_counts[cip.WRITE_DATA]
        sc2.write(lo2, 5, immediate=False)
        sc2.write(hi2, 6, immediate=False)
        sc2.flush("plc")
        assert sim.store.service_counts[cip.WRITE_DATA] == writes_before + 2
        assert sim.store.get_tag("counts").elements == (5, 20, 30, 6, 50)
        sc2.stop()


def test_c09_reconnect_after_sim_restart():
    with criterion(9, "scanning resumes within 2x reconnect_period after restart"):
        reconnect_period = 0.5
        sim = PlcSim(make_store())
        sim.start()
        port = sim.port
        sc = TagScanner()
        sc.add_plc("plc", PlcEndpoint(
            "127.0.0.1", port=port,
            request_timeout=0.5, reconnect_period=reconnect_period,
        ))
        sub = sc.add_tag("plc", "counts[0]", 0.05, elem_type=CipType.DINT)
        sc.start()
        try:
            deadline = time.monotonic() + 5.0
            while sc.stats("plc", 0.05).count < 3:
                assert time.monotonic() < deadline, "never started scanning"
                time.sleep(0.01)

            errors_before = sc.stats("plc", 0.05).errors
            sim.stop()
            deadline = time.monotonic() + 5.0
            while True:
                stats = sc.stats("plc", 0.05)
                _v, _ts, quality = sc.snapshot(sub)
                if stats.errors > errors_before and quality is Quality.ERROR:
                    break
                assert time.monotonic() < deadline, "outage never surfaced"
                time.sleep(0.01)

            sim2 = PlcSim(make_store(), port=port)
            sim2.start()
            try:
                recovered_at = None
                restart = time.monotonic()
                deadline = restart + 4 * reconnect_period
                while time.monotonic() < deadline:
                    _v, _ts, quality = sc.snapshot(sub)
                    if quality is Quality.OK:
                        recovered_at = time.monotonic()
                        break
                    time.sleep(0.005)
                assert recovered_at is not None, "never recovered"
                assert recovered_at - restart <= 2 * reconnect_period, (
                    f"recovery took {recovered_at - restart:.2f} s"
                )
                assert sc.value_of(sub) == 10
            finally:
                sim2.stop()
        finally:
            sc.stop()


def test_c10_connected_unconnected_parity(sim):
    with criterion(10, "connected and unconnected reads agree; sequence +1"):
        plain = PlcClient(PlcEndpoint("127.0.0.1", port=sim.port, request_timeout=2.0))
        plain.connect()
        conn = PlcClient(
            PlcEndpoint("127.0.0.1", port=sim.port, request_timeout=2.0),
            prefer_connected=True,
        )
        conn.connect()
        conn.open_connection()
        assert conn.next_sequence == 1
        for tag, count in (("TEST", 1), ("counts[0]", 5), ("flag", 1)):
            a = plain.read_tag(tag, count)
            b = conn.read_tag(tag, count)
            assert a.type is b.type
            assert a.elements == b.elements
        assert conn.next_sequence == 4  # one increment per connected message
        plain.close()
        conn.close()


def test_c11_codec_fuzz_10k():
    with criterion(11, "10,000 codec round trips and mutations, no panics"):
        rng = random.Random(0xF022)
        done = 0

        def random_context():
            return bytes(rng.randrange(256) for _ in range(8))

        for _ in range(2500):  # encapsulation header round trips
            header = encap.EncapsHeader(
                rng.choice([0x0065, 0x0066, 0x006F, 0x0070, 0x0004]),
                session_handle=rng.randrange(1 << 32),
                status=rng.randrange(1 << 16),
                sender_context=random_context(),
                options=rng.randrange(1 << 32),
            )
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 60)))
            decoded, decoded_payload = decode_packet(
                encap.encode_packet(header, payload)
            )
            assert decoded_payload == payload
            assert decoded.command == header.command
            assert decoded.session_handle == header.session_handle
            assert decoded.sender_context == header.sender_context
            done += 1

        first = "ABCDEFghij_"
        rest = first + "0123456789:"

        def random_segment():
            kind = rng.randrange(6)
            if kind == 0:
                name = rng.choice(first) + "".join(
                    rng.choice(rest) for _ in range(rng.randrange(0, 12))
                )
                return Symbol(name)
            if kind == 1:
                return ObjectClass(rng.randrange(1, 1 << 16))
            if kind == 2:
                return Instance(rng.randrange(0, 1 << 16))
            if kind == 3:
                return Attribute(rng.randrange(1, 1 << 16))
            if kind == 4:
                return Element(rng.choice([0, 1, 255, 256, 65535, 65536, (1 << 32) - 1]))
            return PortLink(rng.randrange(1, 15), rng.randrange(256))

        for _ in range(2500):  # EPATH round trips
            path = Epath(tuple(random_segment() for _ in range(rng.randrange(1, 5))))
            encoded = cip.encode_epath(path)
            decoded, consumed = cip.decode_epath(encoded)
            assert consumed == len(encoded)
            assert decoded == path
            done += 1

        int_ranges = {
            CipType.SINT: (-128, 127),
            CipType.INT: (-(1 << 15), (1 << 15) - 1),
            CipType.DINT: (-(1 << 31), (1 << 31) - 1),
        }
        for _ in range(2500):  # typed value round trips
            elem_type = rng.choice(list(CipType))
            n = rng.randrange(1, 30)
            if elem_type is CipType.REAL:
                elements = cip.unpack_elements(
                    elem_type,
                    cip.pack_elements(
                        elem_type, [rng.uniform(-1e12, 1e12) for _ in range(n)]
                    ),
                )
            elif elem_type is CipType.BOOL:
                elements = tuple(rng.random() < 0.5 for _ in range(n))
            else:
                lo, hi = int_ranges[elem_type]
                elements = tuple(rng.randint(lo, hi) for _ in range(n))
            packed = cip.pack_elements(elem_type, elements)
            assert cip.unpack_elements(elem_type, packed) == elements
            done += 1

        for _ in range(1250):  # multi-request split round trips
            inner = [
                CipRequest(
                    rng.randrange(1, 0x80),
                    Epath(tuple(random_segment() for _ in range(rng.randrange(1, 3)))),
                    bytes(rng.randrange(256) for _ in range(rng.randrange(0, 20))),
                )
                for _ in range(rng.randrange(1, 8))
            ]
            multi = cip.encode_multi_request([encode_request(r) for r in inner])
            split = cip.split_multi_request(cip.decode_request(multi))
            assert split == inner
            done += 1

        seed_read = encode_request(build_read_request(to_epath(parse_tag("TEST")), 1))
        seed_packet = encap.build_rr_data(0x1234, seed_read)
        for _ in range(1250):  # mutated inputs either decode or raise cleanly
            target = rng.randrange(3)
            if target == 0:
                blob = bytearray(seed_packet)
                decoder = decode_packet
                error = encap.EncapError
            elif target == 1:
                blob = bytearray(seed_read)
                decoder = cip.decode_request
                error = cip.CipError
            else:
                blob = bytearray(cip.encode_epath(to_epath(parse_tag("a.b[3]"))))
                decoder = cip.decode_epath
                error = cip.CipError
            for _ in range(rng.randrange(1, 5)):
                blob[rng.randrange(len(blob))] = rng.randrange(256)
            try:
                decoder(bytes(blob))
            except error:
                pass
            done += 1

        assert done == 10_000


def test_c12_output_is_endian_independent():
    with criterion(12, "wire bytes match an endian-flipped reference"):
        # reference path: big-endian packing with explicit per-field byte flips,
        # so it cannot inherit the host's byte order
        def le16(v):
            return struct.pack(">H", v)[::-1]

        def le32(v):
            return struct.pack(">I", v)[::-1]

        context = b"CTX-ref!"
        header = encap.EncapsHeader(
            encap.CMD_SEND_RR_DATA,
            session_handle=0x11223344,
            status=0x0055,
            sender_context=context,
            options=0,
        )
        payload = b"\xaa\xbb\xcc"
        reference = (
            le16(encap.CMD_SEND_RR_DATA) + le16(len(payload)) + le32(0x11223344)
            + le32(0x0055) + context + le32(0) + payload
        )
        assert encap.encode_packet(header, payload) == reference

        real = cip.pack_elements(CipType.REAL, [0.00281524658203125])
        assert real == struct.pack(">f", 0.00281524658203125)[::-1]
        assert real == bytes.fromhex("00 80 38 3b")

        dint = cip.pack_elements(CipType.DINT, [-123456789])
        assert dint == (-123456789).to_bytes(4, "big", signed=True)[::-1]

        path = Epath((Symbol("TEST"), Element(300)))
        reference_path = bytes((5, 0x91, 4)) + b"TEST" + bytes((0x29, 0x00)) + le16(300)
        assert cip.encode_epath(path) == reference_path

        request = build_read_request(path, 7)
        assert encode_request(request) == bytes((cip.READ_DATA,)) + reference_path + le16(7)

        decoded, _ = cip.decode_epath(reference_path)
        assert decoded == path
        assert cip.unpack_elements(CipType.REAL, real) == (0.00281524658203125,)
