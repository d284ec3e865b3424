"""Hostile blobs end in a typed error with memory bounded by the header.

A blob's header declares its factor count, which bounds the size of each
decoded stream.  A zlib stream that inflates past that bound is rejected
after inflating at most one byte more, and a fixed-width stream with bytes
left over after ``count`` values is rejected outright.
"""

from __future__ import annotations

import tracemalloc
import zlib

import pytest

from repro.coding import U32Codec, VByteCodec, ZlibCodec, encode_vbyte
from repro.core import PairEncoder
from repro.errors import DecodingError, ReproError


def _zlib_of_zeros(size: int, chunk: int = 1 << 20) -> bytes:
    """A zlib stream of ``size`` zero bytes, built without holding them."""
    deflater = zlib.compressobj(1)
    zeros = bytes(chunk)
    parts = [deflater.compress(zeros) for _ in range(size // chunk)]
    parts.append(deflater.compress(bytes(size % chunk)))
    parts.append(deflater.flush())
    return b"".join(parts)


def test_crafted_blob_inflating_to_200_mb_is_rejected_with_bounded_memory():
    bomb = _zlib_of_zeros(200_000_000)
    lengths = ZlibCodec(inner=VByteCodec()).encode([5])
    blob = encode_vbyte([1, len(bomb)]) + bomb + lengths
    tracemalloc.start()
    try:
        with pytest.raises(DecodingError) as caught:
            PairEncoder("ZZ").decode_streams(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(caught.value, ReproError)
    assert "inflates past" in str(caught.value)
    assert peak < 8 * 1024 * 1024, peak


@pytest.mark.parametrize("inner", [U32Codec(), VByteCodec()])
def test_zlib_stream_one_byte_over_the_bound_is_rejected(inner):
    codec = ZlibCodec(inner=inner)
    limit = inner.max_encoded_size(3)
    with pytest.raises(DecodingError):
        codec.decode(zlib.compress(bytes(limit + 1)), 3)


def test_zlib_round_trip_at_the_bound():
    codec = ZlibCodec(inner=U32Codec())
    values = [0, 1, 2**32 - 1]
    assert codec.decode(codec.encode(values), 3) == values
    big = [2**64 - 1, 0, 2**63]
    vbyte = ZlibCodec(inner=VByteCodec())
    assert vbyte.decode(vbyte.encode(big), 3) == big


def test_truncated_zlib_stream_is_a_decoding_error():
    codec = ZlibCodec(inner=U32Codec())
    data = codec.encode(list(range(100)))
    with pytest.raises(DecodingError):
        codec.decode(data[: len(data) // 2], 100)


def test_absurd_count_is_a_decoding_error_not_an_overflow():
    codec = ZlibCodec(inner=U32Codec())
    with pytest.raises(DecodingError):
        codec.decode(codec.encode([1, 2, 3]), 2**62)


def test_fixed_width_rejects_trailing_bytes():
    data = U32Codec().encode([1, 2, 3])
    assert U32Codec().decode(data, 3) == [1, 2, 3]
    with pytest.raises(DecodingError, match="trailing"):
        U32Codec().decode(data + b"\x00", 3)
    with pytest.raises(DecodingError, match="trailing"):
        U32Codec().decode(data, 2)


def test_pair_blob_with_trailing_length_bytes_is_rejected():
    encoder = PairEncoder("UU")
    blob = encoder.encode_streams([7, 8], [3, 0])
    assert encoder.decode_streams(blob) == ([7, 8], [3, 0])
    with pytest.raises(DecodingError):
        encoder.decode_streams(blob + b"\x01\x00\x00\x00")
