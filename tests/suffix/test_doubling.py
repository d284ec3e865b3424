"""Tests for the prefix-doubling suffix array construction."""

import random

import numpy as np
import pytest

from repro.suffix.doubling import suffix_array_doubling
from repro.suffix.sais import sais
from repro.suffix.verify import is_valid_suffix_array, naive_suffix_array


def test_empty_input():
    assert suffix_array_doubling(b"").tolist() == []


def test_single_character():
    assert suffix_array_doubling(b"x").tolist() == [0]


def test_banana():
    assert suffix_array_doubling(b"banana").tolist() == naive_suffix_array(b"banana")


def test_all_same_character():
    text = b"z" * 40
    assert suffix_array_doubling(text).tolist() == list(range(39, -1, -1))


def test_returns_int64_array():
    result = suffix_array_doubling(b"hello world")
    assert isinstance(result, np.ndarray)
    assert result.dtype == np.int64


def test_numpy_array_input():
    data = np.array([5, 3, 5, 1, 2], dtype=np.int64)
    expected = naive_suffix_array(bytes(data.tolist()))
    assert suffix_array_doubling(data).tolist() == expected


def test_rejects_negative_symbols():
    with pytest.raises(ValueError):
        suffix_array_doubling(np.array([1, -1], dtype=np.int64))


@pytest.mark.parametrize("seed", range(10))
def test_agrees_with_sais_on_random_input(seed):
    rng = random.Random(seed)
    alphabet = [b"ab", b"abcd", bytes(range(256))][seed % 3]
    text = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 400)))
    assert suffix_array_doubling(text).tolist() == sais(text)


@pytest.mark.parametrize("seed", range(5))
def test_valid_on_random_binary(seed):
    rng = random.Random(200 + seed)
    text = bytes(rng.randrange(256) for _ in range(rng.randint(1, 500)))
    assert is_valid_suffix_array(text, suffix_array_doubling(text))


def test_highly_repetitive_input():
    text = b"abab" * 100 + b"b"
    assert is_valid_suffix_array(text, suffix_array_doubling(text))


@pytest.mark.parametrize(
    "text",
    [
        b"ab\x00\x00ab",
        b"\x00" * 20,
        b"a\x00" * 10 + b"a",
        b"xyz\x00\x00\x00\x00\x00\x00\x00xyz",
        bytes(range(16)) * 3,
        b"\xff" * 9 + b"\x00" + b"\xff" * 7,
    ],
)
def test_short_suffixes_sort_before_the_zero_continued_ones(text):
    """The first round ranks by 8-byte zero-padded keys, where a suffix
    shorter than 8 bytes ties with every suffix it prefixes followed by
    zeros; it must still sort first."""
    assert suffix_array_doubling(text).tolist() == naive_suffix_array(text)


def test_large_symbols_take_the_generic_path():
    data = np.array([300, 2, 300, 2, 1000], dtype=np.int64)
    ranks = {300: 1, 2: 0, 1000: 2}
    expected = sorted(range(5), key=lambda i: [ranks[v] for v in data[i:].tolist()])
    assert suffix_array_doubling(data).tolist() == expected
