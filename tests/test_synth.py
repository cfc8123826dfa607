"""Unit tests for synthetic trace generators, checking their analytically

known classification results."""

import pytest

from repro.classify import DuboisClassifier
from repro.errors import ConfigError
from repro.mem import BlockMap
from repro.trace import synth


class TestPrivateBlocks:
    def test_only_cold_misses(self):
        t = synth.private_blocks(4, words_per_proc=8, iterations=3)
        bd = DuboisClassifier.classify_trace(t, BlockMap(4))
        assert bd.total == bd.pc == 4 * 8
        assert bd.pts == bd.pfs == bd.cts == bd.cfs == 0

    def test_cold_misses_shrink_with_block_size(self):
        t = synth.private_blocks(2, words_per_proc=8, iterations=1)
        bd = DuboisClassifier.classify_trace(t, BlockMap(16))
        assert bd.pc == 2 * 2  # 8 words -> 2 blocks of 4 words each


class TestProducerConsumer:
    def test_pure_true_sharing(self):
        t = synth.producer_consumer(3, words=8, rounds=4)
        bd = DuboisClassifier.classify_trace(t, BlockMap(16))
        assert bd.pfs == 0, "consumers read every word: no false sharing"
        assert bd.pts > 0

    def test_needs_two_procs(self):
        with pytest.raises(ConfigError):
            synth.producer_consumer(1, words=4, rounds=1)

    def test_miss_count_formula(self):
        # 2 blocks of 4 words; each of 2 consumers misses each block each
        # round (cold in round 0); producer misses each block each round
        # after round 0 (consumers' loads don't invalidate, but its own
        # re-writes find the block still owned... producer keeps copy).
        t = synth.producer_consumer(3, words=8, rounds=3)
        bd = DuboisClassifier.classify_trace(t, BlockMap(16))
        # producer: 2 cold; consumers: 2 each cold + 2 each per later round
        assert bd.cold == 6
        assert bd.pts == 2 * 2 * 2


class TestFalseSharingPingpong:
    def test_all_coherence_misses_useless(self, pingpong_trace):
        bd = DuboisClassifier.classify_trace(pingpong_trace, BlockMap(16))
        assert bd.pts == 0
        assert bd.pfs > 0
        assert bd.essential == bd.cold

    def test_no_sharing_at_word_blocks(self, pingpong_trace):
        bd = DuboisClassifier.classify_trace(pingpong_trace, BlockMap(4))
        assert bd.pfs == 0
        assert bd.total == bd.cold


class TestMigratory:
    def test_handoff_misses(self, migratory_trace):
        bd = DuboisClassifier.classify_trace(migratory_trace, BlockMap(32))
        assert bd.pfs == 0, "whole record read+written by each visitor"
        assert bd.pts > 0


class TestUniformRandom:
    def test_deterministic(self):
        a = synth.uniform_random(4, 64, 500, seed=9)
        b = synth.uniform_random(4, 64, 500, seed=9)
        assert list(a) == list(b)

    def test_store_fraction_zero_is_read_only(self):
        t = synth.uniform_random(4, 64, 500, store_fraction=0.0, seed=1)
        assert all(op == 0 for _, op, _ in t)
        bd = DuboisClassifier.classify_trace(t, BlockMap(64))
        assert bd.total == bd.pc

    def test_bad_store_fraction(self):
        with pytest.raises(ConfigError):
            synth.uniform_random(2, 8, 10, store_fraction=1.5)


class TestReadMostly:
    def test_updates_cause_pts_bursts(self):
        t = synth.read_mostly(4, words=8, rounds=6, writes_per_round=1, seed=2)
        bd = DuboisClassifier.classify_trace(t, BlockMap(4))
        assert bd.pts > 0
        assert bd.pfs == 0  # B=4: no false sharing possible


class TestValidation:
    @pytest.mark.parametrize("fn,args", [
        (synth.private_blocks, (0, 1, 1)),
        (synth.private_blocks, (1, 0, 1)),
        (synth.producer_consumer, (2, 0, 1)),
        (synth.migratory, (2, 1, 0)),
        (synth.uniform_random, (2, 8, 0)),
        (synth.read_mostly, (2, 8, 0)),
    ])
    def test_nonpositive_params_rejected(self, fn, args):
        with pytest.raises(ConfigError):
            fn(*args)
