"""Tests for variable-byte coding."""

import pytest

from repro.coding import VByteCodec, decode_vbyte, encode_vbyte
from repro.errors import DecodingError


def test_small_values_use_one_byte():
    assert len(encode_vbyte([0])) == 1
    assert len(encode_vbyte([127])) == 1
    assert len(encode_vbyte([128])) == 2


def test_roundtrip_simple():
    values = [0, 1, 127, 128, 300, 16384, 2**31, 2**40]
    assert decode_vbyte(encode_vbyte(values)) == values


def test_empty_sequence():
    assert encode_vbyte([]) == b""
    assert decode_vbyte(b"") == []


def test_negative_value_rejected():
    with pytest.raises(ValueError):
        encode_vbyte([-1])


def test_truncated_stream_raises():
    data = encode_vbyte([300])
    with pytest.raises(DecodingError):
        decode_vbyte(data[:-1])


def test_decode_with_count_checks_exactness():
    data = encode_vbyte([1, 2, 3])
    assert decode_vbyte(data, count=3) == [1, 2, 3]
    with pytest.raises(DecodingError):
        decode_vbyte(data, count=5)


def test_decode_with_count_rejects_trailing_bytes():
    # ``count`` values must use the whole buffer: a trailing complete
    # value and a trailing partial one are both decoding errors.
    data = encode_vbyte([1, 2, 3])
    with pytest.raises(DecodingError, match="trailing"):
        decode_vbyte(data, count=2)
    with pytest.raises(DecodingError):
        decode_vbyte(encode_vbyte([1, 2]) + b"\x01", count=2)
    with pytest.raises(DecodingError):
        VByteCodec().decode(data, 2)


def test_codec_interface_roundtrip():
    codec = VByteCodec()
    values = [5, 500, 50000]
    encoded = codec.encode(values)
    assert codec.decode(encoded, 3) == values
    assert codec.decode_all(encoded) == values
    assert codec.name == "v"


def test_codec_rejects_negative():
    with pytest.raises(ValueError):
        VByteCodec().encode([1, -2])


def test_typical_factor_lengths_are_single_bytes():
    """The paper's rationale: most factor lengths are < 128 and cost 1 byte."""
    lengths = list(range(1, 101))
    assert len(encode_vbyte(lengths)) == 100
