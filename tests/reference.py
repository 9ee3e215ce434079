"""Reference encoders and decoders that only the tests use.

The library builds every request as bytes on one path and parses replies
and frames in place (`cip.encode_read_request`, `cip.encode_unconnected_send`,
`encap.decode_header` with the carrier parsers).  These helpers build and
take apart the `CipRequest`, `CipValue` and framed-packet forms the tests
compare those bytes against.
"""

import struct

from logixscan import cip, encap
from logixscan.cip import CipRequest, CipValue, Epath


def build_read_request(path: Epath, element_count: int) -> CipRequest:
    """A Read Tag request for `element_count` elements at `path`."""
    return CipRequest(cip.READ_DATA, path, struct.pack("<H", element_count))


def decode_typed_data(payload: bytes) -> CipValue:
    """A type-code-prefixed data block (the read reply layout) as one value."""
    return CipValue(*cip.decode_typed_elements(payload))


def wrap_unconnected_send(inner: CipRequest, slot: int) -> CipRequest:
    """An Unconnected Send routing `inner` across the backplane to `slot`."""
    path = cip.connection_manager_path()
    wire = cip.encode_unconnected_send(cip.encode_request(inner), slot)
    head = cip.encode_request(CipRequest(cip.UNCONNECTED_SEND, path, b""))
    return CipRequest(cip.UNCONNECTED_SEND, path, wire[len(head):])


def decode_packet(data: bytes) -> tuple[encap.EncapsHeader, bytes]:
    """Split one framed packet into (header, payload); the buffer must hold
    exactly the declared payload, no more."""
    header = encap.decode_header(data)
    end = encap.HEADER_SIZE + header.payload_length
    if len(data) < end:
        raise encap.EncapError(
            f"payload truncated: have {len(data) - encap.HEADER_SIZE}, "
            f"declared {header.payload_length}"
        )
    if len(data) > end:
        raise encap.EncapError(f"{len(data) - end} trailing bytes after declared payload")
    return header, data[encap.HEADER_SIZE:end]
