"""Tag address grammar, EPATH rendering, BOOL-array remapping."""

import random

import pytest

from logixscan.cip import Element, Symbol
from logixscan.tags import (
    TagError,
    TagPart,
    TagRef,
    bool_remap,
    dint_span_for_bools,
    format_tag,
    parse_tag,
    to_epath,
)


def test_parse_plain_name():
    ref = parse_tag("TEST")
    assert ref.parts == (TagPart("TEST", None),)
    assert not ref.bool_array


def test_parse_io_module_tag():
    ref = parse_tag("Local:1:I.Ch0Data")
    assert ref.parts == (TagPart("Local:1:I", None), TagPart("Ch0Data", None))


def test_parse_nested_subscripts():
    ref = parse_tag("arr[5].sub[2]")
    assert ref.parts == (TagPart("arr", 5), TagPart("sub", 2))


@pytest.mark.parametrize("bad", [
    "",
    "1abc",          # leading digit
    "a..b",          # empty part
    "a[",
    "a[]",
    "a[-1]",
    "a[1.5]",
    "a b",
    "a[999999999999]",  # over 32 bits
    "tag.",
    ".tag",
    "a[2]x",         # trailing junk after subscript
])
def test_parse_rejects_bad_addresses(bad):
    with pytest.raises(TagError):
        parse_tag(bad)


def test_symbol_length_limit():
    parse_tag("x" * 40)
    with pytest.raises(TagError):
        parse_tag("x" * 41)


def test_bool_array_requires_final_index():
    ref = parse_tag("test[5]", bool_array=True)
    assert ref.bool_array
    with pytest.raises(TagError):
        parse_tag("test", bool_array=True)


def test_format_roundtrip_examples():
    for text in ("TEST", "arr[5].sub[2]", "Local:1:I.Ch0Data", "a[0]"):
        assert format_tag(parse_tag(text)) == text


def test_fuzz_parse_format_identity():
    rng = random.Random(0x7A6)
    first = "ABCwxyz_"
    rest = "ABCwxyz_019:"
    for _ in range(1000):
        parts = []
        for _ in range(rng.randrange(1, 4)):
            name = rng.choice(first) + "".join(
                rng.choice(rest) for _ in range(rng.randrange(0, 12))
            )
            index = rng.choice([None, 0, 1, 31, 32, 352, 2**16, 2**32 - 1])
            parts.append((name, index))
        text = ".".join(n if i is None else f"{n}[{i}]" for n, i in parts)
        ref = parse_tag(text)
        assert format_tag(ref) == text
        assert parse_tag(format_tag(ref)) == ref


def test_to_epath_symbols_and_elements():
    assert to_epath(parse_tag("TEST")).segments == (Symbol("TEST"),)
    assert to_epath(parse_tag("arr[5]")).segments == (Symbol("arr"), Element(5))
    assert to_epath(parse_tag("Local:1:I.Ch0Data")).segments == (
        Symbol("Local:1:I"), Symbol("Ch0Data"),
    )


@pytest.mark.parametrize("bit,word,offset", [
    (5, 0, 5),
    (160, 5, 0),
    (191, 5, 31),
    (0, 0, 0),
    (31, 0, 31),
    (32, 1, 0),
])
def test_bool_remap(bit, word, offset):
    dint_ref, bit_in_word = bool_remap(parse_tag(f"test[{bit}]", bool_array=True))
    assert dint_ref.final_element == word
    assert bit_in_word == offset
    assert dint_ref.parts[0].symbol == "test"
    assert not dint_ref.bool_array


def test_bool_remap_preserves_symbol_chain():
    rng = random.Random(0x5E1)
    for _ in range(500):
        bit = rng.randrange(0, 100000)
        ref = parse_tag(f"plc.block.bits[{bit}]", bool_array=True)
        dint_ref, bit_in_word = bool_remap(ref)
        assert [p.symbol for p in dint_ref.parts] == ["plc", "block", "bits"]
        assert dint_ref.final_element * 32 + bit_in_word == bit


def test_bool_remap_requires_flag():
    with pytest.raises(TagError):
        bool_remap(parse_tag("test[5]"))


def test_dint_span_for_bools():
    assert dint_span_for_bools(352) == 11
    assert dint_span_for_bools(32) == 1
    assert dint_span_for_bools(33) == 2
    assert dint_span_for_bools(1) == 1
    with pytest.raises(TagError):
        dint_span_for_bools(0)


def test_with_final_element():
    ref = parse_tag("a.b[7]")
    assert format_tag(ref.with_final_element(9)) == "a.b[9]"
    assert format_tag(parse_tag("a.b").with_final_element(3)) == "a.b[3]"
