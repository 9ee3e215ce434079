"""`read_tag`/`write_tag` encode each tag address once per client.

Every request a client sends from its path cache must be the bytes the
uncached encoders build from the same text, on the first call and on every
repeat; bad text must raise on every call, the cache must stay within its
bound, and a BOOL-array bit reference must be refused rather than read as
the DINT word of its bit index.  The round trip is stubbed: no sockets.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logixscan import cip
from logixscan import client as client_module
from logixscan.cip import CipResponse, CipType, CipValue
from logixscan.client import PlcClient, PlcEndpoint
from logixscan.plcsim import PlcSim
from logixscan.tags import TagError, parse_tag, to_epath

from conftest import connect_to, make_store
from reference import build_read_request

PROPERTIES = settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

READ_REPLY = CipResponse(cip.READ_REPLY, cip.STATUS_OK, (), b"\xc4\x00\x07\x00\x00\x00")
WRITE_REPLY = CipResponse(cip.WRITE_DATA | cip.REPLY_FLAG, cip.STATUS_OK)

_FIRST = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
names = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from(_FIRST),
    st.text(_FIRST + "0123456789:", max_size=cip.MAX_SYMBOL_LEN - 1),
)
parts = st.builds(
    lambda name, index: name if index is None else f"{name}[{index}]",
    names, st.none() | st.integers(0, 0xFFFFFFFF),
)
tag_texts = st.lists(parts, min_size=1, max_size=4).map(".".join)
bad_texts = st.sampled_from([
    "", ".", "a..b", "1abc", "a[", "a[]", "a[-1]", "a b", "a[1]x",
    "a[4294967296]", "x" * (cip.MAX_SYMBOL_LEN + 1), "ok.é",
])


def stubbed() -> tuple[PlcClient, list[bytes]]:
    """A client whose round trips record the message and answer it OK."""
    client = PlcClient(PlcEndpoint("127.0.0.1"))
    sent: list[bytes] = []

    def round_trip(message: bytes) -> CipResponse:
        sent.append(message)
        return READ_REPLY if message[0] == cip.READ_DATA else WRITE_REPLY

    client.round_trip = round_trip
    return client, sent


@PROPERTIES
@given(st.lists(st.tuples(tag_texts, st.integers(1, cip.MAX_ELEMENT_COUNT)), min_size=1, max_size=6))
def test_cached_requests_are_the_uncached_bytes(calls):
    reader, reads = stubbed()
    writer, writes = stubbed()
    for _repeat in range(3):
        for text, count in calls:
            path = to_epath(parse_tag(text))
            reader.read_tag(text, count)
            assert reads[-1] == cip.encode_request(build_read_request(path, count))
            value = CipValue(CipType.DINT, tuple(range(count % 7 + 1)))
            writer.write_tag(text, value)
            assert writes[-1] == cip.encode_write_request(path, value)
            ref = parse_tag(text)  # a TagRef key reads as its text does
            reader.read_tag(ref, count)
            assert reads[-1] == reads[-2]


@PROPERTIES
@given(bad_texts)
def test_bad_text_raises_on_every_call_and_is_not_kept(text):
    client, sent = stubbed()
    for _call in range(3):
        with pytest.raises(TagError):
            client.read_tag(text)
        with pytest.raises(TagError):
            client.write_tag(text, CipValue(CipType.DINT, (1,)))
    assert sent == []
    assert client._tag_path.cache_info().currsize == 0


def test_the_path_cache_keeps_no_more_than_its_bound():
    bound = client_module._TAG_PATH_CACHE_SIZE
    client, sent = stubbed()
    for i in range(3 * bound):
        client.read_tag(f"t{i}")
    assert client._tag_path.cache_info().currsize == bound
    # an evicted text is encoded again, to the same bytes
    client.read_tag("t0")
    assert sent[-1] == sent[0]
    other, _sent = stubbed()  # each client has a cache of its own
    assert other._tag_path.cache_info().currsize == 0


def test_a_repeated_read_parses_and_encodes_no_path(monkeypatch):
    client, sent = stubbed()
    client.read_tag("motor.cfg[3]")
    calls = []
    parse, encode = client_module.parse_tag, cip.encode_epath
    monkeypatch.setattr(client_module, "parse_tag", lambda *a: calls.append(a) or parse(*a))
    monkeypatch.setattr(cip, "encode_epath", lambda p: calls.append(p) or encode(p))
    client.read_tag("motor.cfg[3]")
    client.read_tag("motor.cfg[3]", 2)
    client.write_tag("motor.cfg[3]", CipValue(CipType.DINT, (5,)))
    assert calls == []
    assert sent[1] == sent[0]


@pytest.fixture
def bits_sim():
    store = make_store()
    store.define("bits", CipType.BOOL, [i % 3 == 0 for i in range(64)])
    with PlcSim(store) as sim:
        yield sim


def test_read_tag_refuses_a_bool_array_bit_reference(bits_sim):
    client = connect_to(bits_sim)
    try:
        bit = parse_tag("bits[40]", bool_array=True)
        for _call in range(2):
            with pytest.raises(ValueError, match="bool_remap"):
                client.read_tag(bit)
            with pytest.raises(ValueError, match="bool_remap"):
                client.write_tag(bit, CipValue(CipType.BOOL, (True,)))
        # the plain reference of the same text is the DINT word it names
        word = client.read_tag(parse_tag("bits[1]"))
        assert word.type is CipType.DINT
        with pytest.raises(ValueError, match="bool_remap"):
            client.read_tag(parse_tag("bits[1]", bool_array=True))
        assert bits_sim.store.get_tag("bits").elements[1] == word.elements[0]
    finally:
        client.close()
