"""Unit tests for word/block address arithmetic."""

import dataclasses
import pickle

import pytest

from repro.errors import ConfigError
from repro.mem.addresses import (
    BlockMap,
    CACHE_BLOCK_BYTES,
    PAPER_BLOCK_SIZES,
    VSM_BLOCK_BYTES,
    bytes_to_words,
    is_power_of_two,
    words_to_bytes,
)


class TestIsPowerOfTwo:
    def test_powers(self):
        assert all(is_power_of_two(1 << k) for k in range(12))

    @pytest.mark.parametrize("n", [0, -1, 3, 6, 12, 1000])
    def test_non_powers(self, n):
        assert not is_power_of_two(n)


class TestBlockMap:
    def test_words_per_block(self):
        assert BlockMap(4).words_per_block == 1
        assert BlockMap(64).words_per_block == 16
        assert BlockMap(1024).words_per_block == 256

    def test_block_of(self):
        bm = BlockMap(16)  # 4 words per block
        assert bm.block_of(0) == 0
        assert bm.block_of(3) == 0
        assert bm.block_of(4) == 1
        assert bm.block_of(1023) == 255

    def test_word_offset(self):
        bm = BlockMap(16)
        assert bm.word_offset(0) == 0
        assert bm.word_offset(5) == 1
        assert bm.word_offset(7) == 3

    def test_base_word_and_words_of(self):
        bm = BlockMap(16)
        assert bm.base_word(3) == 12
        assert list(bm.words_of(3)) == [12, 13, 14, 15]

    def test_roundtrip(self):
        bm = BlockMap(32)
        for w in (0, 1, 7, 8, 100, 12345):
            assert bm.base_word(bm.block_of(w)) + bm.word_offset(w) == w

    def test_same_block(self):
        bm = BlockMap(8)
        assert bm.same_block(0, 1)
        assert not bm.same_block(1, 2)

    def test_contains(self):
        bm = BlockMap(8)
        assert bm.contains(1, 2) and bm.contains(1, 3)
        assert not bm.contains(1, 4)

    def test_word_block_is_identity(self):
        bm = BlockMap(4)
        assert bm.block_of(17) == 17
        assert bm.word_offset(17) == 0

    @pytest.mark.parametrize("bad", [0, 2, 3, 6, 12, -8])
    def test_invalid_sizes_rejected(self, bad):
        with pytest.raises(ConfigError):
            BlockMap(bad)

    def test_frozen(self):
        bm = BlockMap(8)
        with pytest.raises(Exception):
            bm.block_bytes = 16

    def test_cached_shift_is_not_a_field(self):
        bm = BlockMap(64)
        assert [f.name for f in dataclasses.fields(bm)] == ["block_bytes"]
        assert bm == BlockMap(64) and hash(bm) == hash(BlockMap(64))
        clone = pickle.loads(pickle.dumps(bm))
        assert clone == bm
        assert clone.block_of(100) == 6 and clone.word_offset(100) == 4


class TestConversions:
    def test_bytes_to_words_rounds_up(self):
        assert bytes_to_words(1) == 1
        assert bytes_to_words(4) == 1
        assert bytes_to_words(5) == 2
        assert bytes_to_words(36) == 9

    def test_bytes_to_words_strict(self):
        assert bytes_to_words(8, round_up=False) == 2
        with pytest.raises(ConfigError):
            bytes_to_words(9, round_up=False)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            bytes_to_words(-1)
        with pytest.raises(ConfigError):
            words_to_bytes(-1)

    def test_words_to_bytes(self):
        assert words_to_bytes(9) == 36


class TestPaperConstants:
    def test_sweep_range(self):
        assert PAPER_BLOCK_SIZES[0] == 4
        assert PAPER_BLOCK_SIZES[-1] == 1024
        assert all(is_power_of_two(b) for b in PAPER_BLOCK_SIZES)

    def test_figure6_sizes(self):
        assert CACHE_BLOCK_BYTES == 64
        assert VSM_BLOCK_BYTES == 1024
