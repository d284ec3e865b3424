"""Variable-byte (vbyte) integer coding.

vbyte stores an unsigned integer in base 128, one digit per byte, using the
high bit of each byte as a continuation flag: bytes with the high bit clear
are continuation bytes, and the final byte of each codeword has the high bit
set.  Small values therefore occupy a single byte, which is why the paper
uses vbyte for the length stream — Figure 3 shows the vast majority of
factor lengths are small.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..errors import DecodingError
from .base import IntegerCodec, check_non_negative

__all__ = ["VByteCodec", "encode_vbyte", "decode_vbyte"]

_TERMINATOR = 0x80


def encode_vbyte(values: Iterable[int]) -> bytes:
    """Encode an iterable of non-negative integers with vbyte."""
    out = bytearray()
    for value in values:
        if value < 0:
            raise ValueError(f"vbyte cannot encode negative value {value}")
        while value >= 128:
            out.append(value & 0x7F)
            value >>= 7
        out.append(value | _TERMINATOR)
    return bytes(out)


def decode_vbyte(data: bytes, count: int | None = None) -> List[int]:
    """Decode vbyte data into a list of integers.

    Parameters
    ----------
    data:
        The encoded byte string.
    count:
        When given, exactly this many integers are decoded and trailing bytes
        are an error; when ``None`` the whole buffer is decoded.
    """
    values: List[int] = []
    current = 0
    shift = 0
    for byte in data:
        if byte & _TERMINATOR:
            if len(values) == count:
                raise DecodingError(f"vbyte stream has trailing bytes after {count} values")
            values.append(current | ((byte & 0x7F) << shift))
            current = 0
            shift = 0
        else:
            current |= byte << shift
            shift += 7
    if shift != 0:
        raise DecodingError("truncated vbyte stream")
    if count is not None and len(values) != count:
        raise DecodingError(
            f"vbyte stream contained {len(values)} values, expected {count}"
        )
    return values


class VByteCodec(IntegerCodec):
    """Codec wrapper around :func:`encode_vbyte` / :func:`decode_vbyte`."""

    name = "v"

    def encode(self, values: Sequence[int]) -> bytes:
        check_non_negative(values, "vbyte")
        return encode_vbyte(values)

    def max_encoded_size(self, count: int) -> int:
        return count * 10  # ceil(64 / 7) bytes per value below 2**64

    def decode(self, data: bytes, count: int) -> List[int]:
        return decode_vbyte(data, count)

    def decode_all(self, data: bytes) -> List[int]:
        return decode_vbyte(data)
