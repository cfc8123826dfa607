"""Unit tests for breakdown/result types."""

import pytest

from repro.classify.breakdown import (
    DuboisBreakdown,
    MissClass,
    SimpleBreakdown,
)


class TestMissClass:
    def test_cold_classes(self):
        assert MissClass.PC.is_cold
        assert MissClass.CTS.is_cold
        assert MissClass.CFS.is_cold
        assert not MissClass.PTS.is_cold
        assert not MissClass.PFS.is_cold

    def test_essential_classes(self):
        assert all(mc.is_essential for mc in MissClass if mc != MissClass.PFS)
        assert not MissClass.PFS.is_essential


class TestDuboisBreakdown:
    @pytest.fixture
    def bd(self):
        return DuboisBreakdown(pc=10, cts=5, cfs=3, pts=7, pfs=25,
                               data_refs=1000)

    def test_aggregates(self, bd):
        assert bd.cold == 18
        assert bd.essential == 25
        assert bd.useless == 25
        assert bd.total == 50

    def test_rates(self, bd):
        assert bd.miss_rate == pytest.approx(5.0)
        assert bd.essential_rate == pytest.approx(2.5)
        assert bd.rate(bd.pfs) == pytest.approx(2.5)

    def test_zero_refs_rate(self):
        bd = DuboisBreakdown(0, 0, 0, 0, 0, data_refs=0)
        assert bd.miss_rate == 0.0

    def test_count_by_class(self, bd):
        assert bd.count(MissClass.PC) == 10
        assert bd.count(MissClass.PFS) == 25

    def test_as_dict(self, bd):
        d = bd.as_dict()
        assert d["PTS"] == 7 and d["data_refs"] == 1000

    def test_addition(self, bd):
        total = bd + bd
        assert total.total == 100
        assert total.data_refs == 2000

    def test_describe_mentions_essential(self, bd):
        assert "essential=25" in bd.describe()

    def test_frozen(self, bd):
        with pytest.raises(Exception):
            bd.pc = 0


class TestSimpleBreakdown:
    @pytest.fixture
    def sb(self):
        return SimpleBreakdown(cold=10, true_sharing=4, false_sharing=6,
                               data_refs=200)

    def test_total(self, sb):
        assert sb.total == 20

    def test_essential_estimate(self, sb):
        assert sb.essential_estimate == 14

    def test_rates(self, sb):
        assert sb.miss_rate == pytest.approx(10.0)

    def test_as_dict(self, sb):
        assert sb.as_dict() == {"CM": 10, "TSM": 4, "FSM": 6,
                                "data_refs": 200}

    def test_describe(self, sb):
        assert "TSM=4" in sb.describe()

