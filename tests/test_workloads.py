"""Unit tests for the four paper workloads and the two extras."""

import pytest

from repro.classify import DuboisClassifier
from repro.errors import ConfigError
from repro.mem import BlockMap
from repro.trace.validate import check_races, sync_pairs_balanced
from repro.workloads import FFT, Jacobi, LU, MP3D, MatMul, SOR, Water


class TestLU:
    def test_determinism(self):
        a = LU(8, num_procs=4).generate()
        b = LU(8, num_procs=4).generate()
        assert list(a) == list(b)

    def test_race_free(self, lu_trace):
        assert check_races(lu_trace).is_race_free

    def test_sync_balanced(self, lu_trace):
        assert sync_pairs_balanced(lu_trace) is None

    def test_label_and_meta(self, lu_trace):
        assert lu_trace.name == "LU12"
        assert lu_trace.meta["workload"] == "lu"
        assert lu_trace.meta["data_set_bytes"] > 12 * 12 * 8

    def test_column_phase_structure(self, lu_trace):
        """Columns are single-writer: every store to a column's words comes
        from its round-robin owner."""
        n, procs, ew = 12, 4, 2
        for proc, op, addr in lu_trace:
            if op != 1:
                continue
            col = addr // (n * ew)
            if col >= n:
                continue  # flag words
            assert proc == col % procs

    def test_cts_to_pts_conversion(self, lu_trace):
        """Paper: as blocks grow past the column size, CTS turns into PTS."""
        small = DuboisClassifier.classify_trace(lu_trace, BlockMap(8))
        large = DuboisClassifier.classify_trace(lu_trace, BlockMap(256))
        assert small.cts > large.cts
        assert large.pts > small.pts

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            LU(1)
        with pytest.raises(ConfigError):
            LU(8, elem_words=0)


class TestJacobi:
    def test_race_free(self, jacobi_trace):
        assert check_races(jacobi_trace).is_race_free

    def test_determinism(self):
        a = Jacobi(8, iterations=2, num_procs=4).generate()
        b = Jacobi(8, iterations=2, num_procs=4).generate()
        assert list(a) == list(b)

    def test_true_sharing_halves_from_4_to_8_bytes(self, jacobi_trace):
        """8-byte elements: the paper's B=4 -> B=8 halving."""
        b4 = DuboisClassifier.classify_trace(jacobi_trace, BlockMap(4))
        b8 = DuboisClassifier.classify_trace(jacobi_trace, BlockMap(8))
        ratio = (b8.pts + b8.cts) / max(1, b4.pts + b4.cts)
        assert 0.4 < ratio < 0.75

    def test_subgrid_row_false_sharing_jump(self):
        """A subgrid row is (dim/side)*8 bytes; PFS jumps once blocks span
        two processors' partitions."""
        tr = Jacobi(16, iterations=3, num_procs=4).generate()
        row_bytes = (16 // 2) * 8  # 64 bytes
        below = DuboisClassifier.classify_trace(tr, BlockMap(row_bytes))
        above = DuboisClassifier.classify_trace(tr, BlockMap(row_bytes * 2))
        assert above.pfs > 2 * max(1, below.pfs)

    def test_nonsquare_proc_count_rejected(self):
        with pytest.raises(ConfigError):
            Jacobi(16, num_procs=6)

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ConfigError):
            Jacobi(10, num_procs=16)

    def test_padded_barrier_option(self):
        tr = Jacobi(8, iterations=2, num_procs=4, padded_barrier=True).generate()
        assert check_races(tr).is_race_free


class TestMP3D:
    def test_race_free(self, mp3d_trace):
        assert check_races(mp3d_trace).is_race_free

    def test_determinism_and_seed_sensitivity(self):
        a = MP3D(30, num_cells=8, time_steps=2, num_procs=4, seed=1).generate()
        b = MP3D(30, num_cells=8, time_steps=2, num_procs=4, seed=1).generate()
        c = MP3D(30, num_cells=8, time_steps=2, num_procs=4, seed=2).generate()
        assert list(a) == list(b)
        assert list(a) != list(c)

    def test_locking_produces_acquires(self, mp3d_trace):
        counts = mp3d_trace.counts()
        assert counts.acquires > 0
        # per barrier episode: num_procs-1 waiters acquire the flag without
        # releasing it, while the last arriver releases it without an
        # acquire, so acquires exceed releases by num_procs-2 per episode
        steps = mp3d_trace.meta["config"]["time_steps"]
        assert counts.acquires == counts.releases \
            + steps * (mp3d_trace.num_procs - 2)

    def test_particle_false_sharing_appears_at_8_bytes(self, mp3d_trace):
        """36-byte interleaved particles: PFS at B>=8."""
        b4 = DuboisClassifier.classify_trace(mp3d_trace, BlockMap(4))
        b8 = DuboisClassifier.classify_trace(mp3d_trace, BlockMap(8))
        assert b4.pfs == 0
        assert b8.pfs > 0

    def test_reads_dominate_writes(self, mp3d_trace):
        counts = mp3d_trace.counts()
        assert counts.loads > 1.5 * counts.stores

    def test_bad_configs(self):
        with pytest.raises(ConfigError):
            MP3D(4, num_procs=16)
        with pytest.raises(ConfigError):
            MP3D(100, num_cells=0)
        with pytest.raises(ConfigError):
            MP3D(100, time_steps=0)
        with pytest.raises(ConfigError):
            MP3D(100, collision_rate=1.5)


class TestWater:
    def test_race_free(self, water_trace):
        assert check_races(water_trace).is_race_free

    def test_determinism(self):
        a = Water(6, time_steps=1, num_procs=3).generate()
        b = Water(6, time_steps=1, num_procs=3).generate()
        assert list(a) == list(b)

    def test_molecule_false_sharing_near_record_size(self, water_trace):
        """680-byte molecules: PFS grows as blocks approach the record."""
        small = DuboisClassifier.classify_trace(water_trace, BlockMap(64))
        large = DuboisClassifier.classify_trace(water_trace, BlockMap(1024))
        assert large.pfs > small.pfs

    def test_reads_heavily_dominate(self, water_trace):
        counts = water_trace.counts()
        assert counts.loads > 2.5 * counts.stores

    def test_bad_configs(self):
        with pytest.raises(ConfigError):
            Water(1)
        with pytest.raises(ConfigError):
            Water(8, time_steps=0)


class TestExtras:
    def test_matmul_race_free(self, matmul_trace):
        assert check_races(matmul_trace).is_race_free

    def test_matmul_single_touch_breaks_torrellas(self, matmul_trace):
        """Non-iterative access: Torrellas classifies essentially all
        misses as cold (the paper's section 3.1 criticism)."""
        from repro.classify import compare_classifications
        c = compare_classifications(matmul_trace, 32)
        assert c.torrellas.cold > 0.9 * c.torrellas.total
        assert c.ours.pts + c.ours.pfs > 0 or c.ours.cold == c.ours.total

    def test_fft_race_free(self, fft_trace):
        assert check_races(fft_trace).is_race_free

    def test_fft_power_of_two_enforced(self):
        with pytest.raises(ConfigError):
            FFT(100, num_procs=4)
        with pytest.raises(ConfigError):
            FFT(8, num_procs=16)

    def test_fft_stage_structure(self, fft_trace):
        # log2(64) stages + init barrier, 4 procs
        counts = fft_trace.counts()
        assert counts.acquires > 0


class TestSOR:
    @pytest.fixture(scope="class")
    def sor_trace(self):
        return SOR(16, iterations=2, num_procs=4).generate()

    def test_race_free(self, sor_trace):
        assert check_races(sor_trace).is_race_free

    def test_determinism(self):
        a = SOR(8, iterations=1, num_procs=4).generate()
        b = SOR(8, iterations=1, num_procs=4).generate()
        assert list(a) == list(b)

    def test_in_place_single_writer(self, sor_trace):
        """Every grid cell is written only by its owning processor."""
        dim, ew, side = 16, 2, 2
        sub = dim // side
        for proc, op, addr in sor_trace:
            if op != 1:
                continue
            cell = addr // ew
            if cell >= dim * dim:
                continue  # sync words
            r, c = divmod(cell, dim)
            owner = (r // sub) * side + (c // sub)
            assert proc == owner

    def test_partition_row_false_sharing_jump(self, sor_trace):
        """Same decomposition shape as Jacobi: PFS jumps when blocks span
        two processors' subgrid rows (8 elements x 8 B = 64 B here)."""
        below = DuboisClassifier.classify_trace(sor_trace, BlockMap(64))
        above = DuboisClassifier.classify_trace(sor_trace, BlockMap(128))
        assert above.pfs > 10 * max(1, below.pfs)

    def test_two_barriers_per_iteration(self, sor_trace):
        # 2 colors x 2 iterations = 4 barrier episodes; the last arrivers
        # release the flag once per episode.
        releases = [a for p, op, a in sor_trace if op == 3]
        iterations = sor_trace.meta["config"]["iterations"]
        assert len(releases) >= 2 * iterations

    def test_bad_configs(self):
        with pytest.raises(ConfigError):
            SOR(16, num_procs=6)
        with pytest.raises(ConfigError):
            SOR(10, num_procs=16)
        with pytest.raises(ConfigError):
            SOR(16, iterations=0, num_procs=4)


class TestWorkloadMeta:
    def test_all_traces_have_cycles_and_data_set(self, workload_traces):
        for name, tr in workload_traces.items():
            assert tr.meta["cycles"] > 0, name
            assert tr.meta["data_set_bytes"] > 0, name
            assert tr.meta["config"]["num_procs"] == tr.num_procs

    def test_speedup_positive_and_bounded(self, workload_traces):
        from repro.trace.stats import benchmark_stats
        for name, tr in workload_traces.items():
            st = benchmark_stats(tr)
            assert 1.0 <= st.speedup <= tr.num_procs + 1e-9, name
