"""Tag address handling.

Parses dotted tag text like ``motor.cfg[3]`` or ``Local:1:I.Ch0Data`` into a
structured reference, renders the matching EPATH, and remaps BOOL-array bit
indices onto the DINT words the controller actually transfers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .cip import MAX_SYMBOL_LEN, CipError, Element, Epath, Symbol

# name, optionally subscripted; colon is an ordinary name character so
# I/O-module tags like Local:1:I parse as a single symbol
_PART_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_:]*)(?:\[(\d+)\])?\Z")

BITS_PER_DINT = 32


class TagError(ValueError):
    """Tag text that does not follow the address grammar."""


@dataclass(frozen=True)
class TagPart:
    symbol: str
    element: int | None = None


@dataclass(frozen=True)
class TagRef:
    parts: tuple[TagPart, ...]
    bool_array: bool = False

    def __post_init__(self):
        if not self.parts:
            raise TagError("tag reference needs at least one part")
        if self.bool_array and self.parts[-1].element is None:
            raise TagError("bool_array requires an element index on the final part")

    @property
    def final_element(self) -> int | None:
        return self.parts[-1].element

    def with_final_element(self, element: int | None) -> "TagRef":
        parts = self.parts[:-1] + (TagPart(self.parts[-1].symbol, element),)
        return replace(self, parts=parts)

    def __str__(self) -> str:
        return format_tag(self)


def parse_tag(text: str, bool_array: bool = False) -> TagRef:
    if not text:
        raise TagError("empty tag")
    parts = []
    for chunk in text.split("."):
        m = _PART_RE.match(chunk)
        if not m:
            raise TagError(f"bad tag part {chunk!r} in {text!r}")
        name, index = m.group(1), m.group(2)
        if len(name) > MAX_SYMBOL_LEN:
            raise TagError(f"tag part {name!r} longer than {MAX_SYMBOL_LEN} characters")
        element = None
        if index is not None:
            element = int(index)
            if element > 0xFFFFFFFF:
                raise TagError(f"element index {element} out of range in {text!r}")
        parts.append(TagPart(name, element))
    return TagRef(tuple(parts), bool_array)


def format_tag(ref: TagRef) -> str:
    out = []
    for part in ref.parts:
        if part.element is None:
            out.append(part.symbol)
        else:
            out.append(f"{part.symbol}[{part.element}]")
    return ".".join(out)


def to_epath(ref: TagRef) -> Epath:
    segments = []
    for part in ref.parts:
        segments.append(Symbol(part.symbol))
        if part.element is not None:
            segments.append(Element(part.element))
    return Epath(segments)


def bool_remap(ref: TagRef) -> tuple[TagRef, int]:
    """Map a BOOL-array bit reference onto (DINT element reference, bit)."""
    if not ref.bool_array:
        raise TagError(f"{format_tag(ref)} is not marked as a BOOL array reference")
    bit_index = ref.final_element
    if bit_index is None:
        raise TagError(f"{format_tag(ref)} has no element index to remap")
    dint_ref = replace(
        ref.with_final_element(bit_index // BITS_PER_DINT), bool_array=False
    )
    return dint_ref, bit_index % BITS_PER_DINT


def dint_span_for_bools(bit_count: int) -> int:
    """DINT elements needed to carry the given number of packed bits."""
    if bit_count < 1:
        raise TagError("bit count must be at least 1")
    return -(-bit_count // BITS_PER_DINT)
