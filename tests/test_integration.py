"""Integration tests: whole-pipeline checks across workloads, classifiers

and protocols — the paper's claims verified end to end on generated
traces."""

import pytest

from repro.analysis.invariants import (
    check_block_size_monotonicity,
    check_eggers_tsm_subset_torrellas,
    check_min_is_essential,
    check_protocol_ordering,
)
from repro.analysis.sweep import sweep_block_sizes
from repro.classify import DuboisClassifier, compare_classifications
from repro.mem import BlockMap
from repro.protocols import run_protocol, run_protocols
from repro.trace.validate import check_races

SIZES = (4, 16, 64, 256)


class TestWorkloadsAreValidInputs:
    def test_all_generated_traces_race_free(self, workload_traces):
        for name, trace in workload_traces.items():
            report = check_races(trace)
            assert report.is_race_free, f"{name}: {report.describe()}"


class TestClassifierInvariantsOnWorkloads:
    def test_block_size_monotonicity(self, workload_traces):
        for name, trace in workload_traces.items():
            sweep = sweep_block_sizes(trace, SIZES)
            assert check_block_size_monotonicity(sweep) == [], name

    def test_three_way_totals_agree(self, workload_traces):
        for name, trace in workload_traces.items():
            for bb in (16, 64):
                c = compare_classifications(trace, bb)
                assert c.ours.total == c.eggers.total == c.torrellas.total, \
                    (name, bb)

    def test_eggers_torrellas_per_miss_implication(self, workload_traces):
        for name, trace in workload_traces.items():
            assert check_eggers_tsm_subset_torrellas(trace, 32) == [], name


class TestProtocolsOnWorkloads:
    def test_otf_matches_appendix_a_everywhere(self, workload_traces):
        for name, trace in workload_traces.items():
            for bb in (16, 64):
                bd = DuboisClassifier.classify_trace(trace, BlockMap(bb))
                r = run_protocol("OTF", trace, bb)
                assert r.breakdown.as_dict() == bd.as_dict(), (name, bb)

    def test_min_achieves_essential_on_paper_workloads(self, workload_traces):
        """On the benchmark generators MIN hits the essential count
        exactly (the fuzzed corner case where it undercuts does not arise
        in these structured programs at these block sizes)."""
        for name, trace in workload_traces.items():
            for bb in (16, 64):
                bd = DuboisClassifier.classify_trace(trace, BlockMap(bb))
                r = run_protocol("MIN", trace, bb)
                assert r.misses <= bd.essential, (name, bb)
                gap = bd.essential - r.misses
                assert gap <= 0.01 * bd.essential + 2, (name, bb, gap)

    def test_protocol_ordering_on_synchronized_traces(self, workload_traces):
        for name, trace in workload_traces.items():
            for bb in (16, 64):
                res = run_protocols(trace, bb)
                violations = check_protocol_ordering(res, synchronized=True)
                assert violations == [], (name, bb, violations)
                assert check_min_is_essential(trace, res["MIN"]) == [], name

    def test_delayed_protocols_keep_essential_components(self, workload_traces):
        """Paper section 7: the essential (TRUE+COLD) components of OTF,
        RD, SD and SRD differ only marginally — the protocols differ in
        the useless misses they eliminate."""
        for name, trace in workload_traces.items():
            res = run_protocols(trace, 64, ["OTF", "RD", "SD", "SRD"])
            essentials = [r.breakdown.essential for r in res.values()]
            assert max(essentials) - min(essentials) \
                <= 0.15 * max(essentials) + 5, (name, essentials)


class TestFigure6Shapes:
    """The headline protocol-comparison shapes at cache (64B) and VSM
    (1024B) block sizes, on one representative workload each."""

    def test_cache_blocks_protocols_near_essential(self, jacobi_trace):
        res = run_protocols(jacobi_trace, 64)
        mn, wbwi, otf = (res[k].misses for k in ("MIN", "WBWI", "OTF"))
        assert wbwi <= otf
        assert wbwi - mn <= 0.35 * mn  # ownership cost small at B=64

    def test_vsm_blocks_show_ownership_gap(self, jacobi_trace):
        res = run_protocols(jacobi_trace, 1024)
        mn, wbwi, rd = (res[k].misses for k in ("MIN", "WBWI", "RD"))
        assert wbwi > 2 * mn, "ownership cost large at B=1024"
        assert abs(rd - wbwi) <= 0.25 * wbwi, "RD tracks WBWI (paper 7.0)"

    def test_srd_best_delayed_protocol_at_vsm(self, jacobi_trace):
        res = run_protocols(jacobi_trace, 1024)
        assert res["SRD"].misses <= res["RD"].misses
        assert res["SRD"].misses <= res["SD"].misses
        assert res["SRD"].misses >= res["MIN"].misses

    def test_max_blows_up_at_vsm_blocks(self, lu_trace):
        res = run_protocols(lu_trace, 1024, ["OTF", "MAX"])
        assert res["MAX"].misses > res["OTF"].misses


class TestEndToEndDeterminism:
    def test_full_pipeline_reproducible(self):
        from repro.workloads import MP3D
        wl = lambda: MP3D(24, num_cells=8, time_steps=2, num_procs=4, seed=5)
        t1, t2 = wl().generate(), wl().generate()
        assert list(t1) == list(t2)
        r1 = run_protocols(t1, 32)
        r2 = run_protocols(t2, 32)
        for name in r1:
            assert r1[name].breakdown.as_dict() == r2[name].breakdown.as_dict()
