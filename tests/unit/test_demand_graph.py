"""Tests for repro.network.demand.DemandGraph."""

import pytest

from repro.network.demand import DemandGraph, DemandPair, canonical_pair


class TestDemandPair:
    def test_pair_is_canonical(self):
        pair = DemandPair(source="b", target="a", demand=3.0)
        assert pair.pair == canonical_pair("a", "b")

    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            DemandPair(source="a", target="a", demand=1.0)

    def test_rejects_non_positive_demand(self):
        with pytest.raises(ValueError):
            DemandPair(source="a", target="b", demand=0.0)


class TestAddAndAggregate:
    def test_add_single(self):
        demand = DemandGraph()
        demand.add("a", "b", 4.0)
        assert demand.demand("a", "b") == 4.0
        assert len(demand) == 1

    def test_reverse_direction_aggregates(self):
        demand = DemandGraph()
        demand.add("a", "b", 4.0)
        demand.add("b", "a", 6.0)
        assert demand.demand("a", "b") == 10.0
        assert len(demand) == 1

    def test_zero_demand_rejected(self):
        demand = DemandGraph()
        with pytest.raises(ValueError):
            demand.add("a", "b", 0.0)

    @pytest.mark.parametrize("amount", [float("nan"), float("inf")])
    def test_non_finite_demand_rejected(self, amount):
        demand = DemandGraph()
        with pytest.raises(ValueError):
            demand.add("a", "b", amount)
        assert len(demand) == 0

    def test_self_pair_rejected(self):
        demand = DemandGraph()
        with pytest.raises(ValueError):
            demand.add("a", "a", 1.0)

    def test_constructor_from_pairs(self):
        pairs = [DemandPair("a", "b", 2.0), DemandPair("c", "d", 3.0)]
        demand = DemandGraph(pairs)
        assert demand.total_demand == 5.0


class TestReduce:
    def test_partial_reduce(self):
        demand = DemandGraph()
        demand.add("a", "b", 10.0)
        demand.reduce("a", "b", 4.0)
        assert demand.demand("a", "b") == pytest.approx(6.0)

    def test_full_reduce_removes_pair(self):
        demand = DemandGraph()
        demand.add("a", "b", 10.0)
        demand.reduce("b", "a", 10.0)
        assert not demand.has_pair("a", "b")
        assert demand.is_empty

    def test_near_full_reduce_removes_pair(self):
        demand = DemandGraph()
        demand.add("a", "b", 10.0)
        demand.reduce("a", "b", 10.0 - 1e-12)
        assert not demand.has_pair("a", "b")

    def test_over_reduce_rejected(self):
        demand = DemandGraph()
        demand.add("a", "b", 5.0)
        with pytest.raises(ValueError):
            demand.reduce("a", "b", 6.0)

    def test_reduce_unknown_pair_rejected(self):
        demand = DemandGraph()
        with pytest.raises(KeyError):
            demand.reduce("a", "b", 1.0)

    def test_remove_pair(self):
        demand = DemandGraph()
        demand.add("a", "b", 5.0)
        demand.remove_pair("b", "a")
        assert demand.is_empty

    def test_remove_missing_pair_is_noop(self):
        demand = DemandGraph()
        demand.remove_pair("a", "b")
        assert demand.is_empty


class TestSplit:
    def test_split_moves_demand(self):
        demand = DemandGraph()
        demand.add("s", "t", 10.0)
        demand.split("s", "t", "v", 4.0)
        assert demand.demand("s", "t") == pytest.approx(6.0)
        assert demand.demand("s", "v") == pytest.approx(4.0)
        assert demand.demand("v", "t") == pytest.approx(4.0)

    def test_split_preserves_total_plus_amount(self):
        demand = DemandGraph()
        demand.add("s", "t", 10.0)
        demand.split("s", "t", "v", 4.0)
        # Splitting adds one extra copy of the split amount (two legs).
        assert demand.total_demand == pytest.approx(14.0)

    def test_full_split_removes_original(self):
        demand = DemandGraph()
        demand.add("s", "t", 10.0)
        demand.split("s", "t", "v", 10.0)
        assert not demand.has_pair("s", "t")
        assert len(demand) == 2

    def test_split_on_endpoint_rejected(self):
        demand = DemandGraph()
        demand.add("s", "t", 10.0)
        with pytest.raises(ValueError):
            demand.split("s", "t", "s", 5.0)

    def test_split_more_than_demand_rejected(self):
        demand = DemandGraph()
        demand.add("s", "t", 10.0)
        with pytest.raises(ValueError):
            demand.split("s", "t", "v", 11.0)


class TestAccessors:
    def test_endpoints(self):
        demand = DemandGraph()
        demand.add("a", "b", 1.0)
        demand.add("b", "c", 1.0)
        assert demand.endpoints == {"a", "b", "c"}

    def test_total_demand(self):
        demand = DemandGraph()
        demand.add("a", "b", 1.5)
        demand.add("c", "d", 2.5)
        assert demand.total_demand == pytest.approx(4.0)

    def test_iteration_yields_pairs(self):
        demand = DemandGraph()
        demand.add("a", "b", 1.0)
        pairs = list(demand)
        assert len(pairs) == 1
        assert isinstance(pairs[0], DemandPair)

    def test_contains(self):
        demand = DemandGraph()
        demand.add("a", "b", 1.0)
        assert ("b", "a") in demand
        assert ("a", "c") not in demand

    def test_copy_is_independent(self):
        demand = DemandGraph()
        demand.add("a", "b", 5.0)
        clone = demand.copy()
        clone.reduce("a", "b", 5.0)
        assert demand.demand("a", "b") == 5.0

    def test_as_dict_snapshot(self):
        demand = DemandGraph()
        demand.add("a", "b", 5.0)
        snapshot = demand.as_dict()
        snapshot.clear()
        assert demand.demand("a", "b") == 5.0

    def test_validate_against_passes(self):
        demand = DemandGraph()
        demand.add("a", "b", 1.0)
        demand.validate_against(["a", "b", "c"])

    def test_validate_against_fails(self):
        demand = DemandGraph()
        demand.add("a", "z", 1.0)
        with pytest.raises(ValueError, match="z"):
            demand.validate_against(["a", "b"])

    def test_demand_of_unknown_pair_is_zero(self):
        demand = DemandGraph()
        assert demand.demand("x", "y") == 0.0
