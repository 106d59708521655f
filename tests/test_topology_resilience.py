"""Tests for partition-resistance analysis and Theorem 2.1."""

import numpy as np
import pytest

from repro.topology import (
    FaultSet,
    analyze,
    diameter_ring,
    enumerate_elements,
    fault_sets_of_size,
    min_faults_to_partition,
    naive_ring,
    worst_case,
)


class TestFaultSet:
    def test_of_builds_kinds(self):
        fs = FaultSet.of(("switch", 1), ("node", 2), ("link", ("ns", 2, 1)))
        assert fs.switches == {1} and fs.nodes == {2}
        assert fs.size == 3

    def test_of_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSet.of(("gateway", 0))


class TestAnalyze:
    def test_healthy_network_one_component(self):
        report = analyze(diameter_ring(10))
        assert report.component_sizes == (10,)
        assert report.nodes_lost == 0
        assert not report.is_partitioned

    def test_node_fault_counts_as_lost(self):
        report = analyze(diameter_ring(10), FaultSet(nodes=frozenset({3})))
        assert report.nodes_lost == 1
        assert report.faulted_nodes == 1
        assert not report.is_partitioned  # 9 survivors in one component

    def test_isolating_switch_pair_detaches_one_node(self):
        # node 0 attaches to s0 and s6 (n=10); killing both isolates it
        report = analyze(diameter_ring(10), FaultSet(switches=frozenset({0, 6})))
        assert report.component_sizes == (9, 1)
        assert report.nodes_lost == 1
        assert report.is_partitioned

    def test_single_switch_fault_harmless(self):
        for j in range(10):
            report = analyze(diameter_ring(10), FaultSet(switches=frozenset({j})))
            assert report.nodes_lost == 0

    def test_link_fault_by_edge_id(self):
        topo = diameter_ring(6)
        # cut node 0's link to switch 0: node 0 still reachable via its
        # other switch
        report = analyze(topo, FaultSet(links=frozenset({("ns", 0, 0)})))
        assert report.nodes_lost == 0

    def test_touched_counts_attachments(self):
        # killing one switch touches exactly its 2 attached nodes
        report = analyze(diameter_ring(10), FaultSet(switches=frozenset({0})))
        assert report.nodes_touched == 2


class TestEnumeration:
    def test_enumerate_elements_counts(self):
        topo = diameter_ring(8)
        els = enumerate_elements(topo)
        # 8 switches + 8 nodes + (16 node links + 8 ring links)
        assert len(els) == 8 + 8 + 24

    def test_fault_sets_exhaustive_count(self):
        topo = diameter_ring(6)
        sets = list(fault_sets_of_size(topo, 2, kinds=("switch",)))
        assert len(sets) == 15  # C(6,2)

    def test_fault_sets_sampled(self):
        topo = diameter_ring(10)
        rng = np.random.default_rng(0)
        sets = list(fault_sets_of_size(topo, 3, sample=20, rng=rng))
        assert len(sets) == 20
        assert all(fs.size == 3 for fs in sets)

    def test_k_larger_than_elements_yields_nothing(self):
        topo = diameter_ring(4)
        assert list(fault_sets_of_size(topo, 100, kinds=("switch",))) == []


class TestTheorem21:
    """Executable form of Theorem 2.1 and the surrounding claims."""

    def test_any_three_switch_faults_touch_at_most_six(self):
        wc = worst_case(diameter_ring(10), 3, kinds=("switch",))
        assert wc.max_touched == 6  # the paper's min(n, 6) constant

    def test_three_faults_never_split_nonconstant(self):
        # True connectivity: any 3 faults leave all but <= 3 nodes in one
        # component, and never split off a group larger than 1.
        wc = worst_case(diameter_ring(10), 3)
        assert wc.max_lost <= 6  # within the paper's bound
        assert wc.max_split_minority <= 2

    def test_thirty_nodes_triple_the_constant(self):
        wc = worst_case(diameter_ring(10, num_nodes=30), 3, kinds=("switch",))
        assert wc.max_touched == 18  # the paper's "triples ... to 18"

    def test_four_switch_faults_partition_nonconstant(self):
        # Optimality: some 4-fault set splits the nodes into two sets
        # whose sizes grow with n.
        minorities = {}
        for n in (10, 16, 20):
            wc = worst_case(diameter_ring(n), 4, kinds=("switch",))
            assert wc.partition_found
            minorities[n] = wc.max_split_minority
        assert minorities[16] > minorities[10]
        assert minorities[20] > minorities[16]
        assert minorities[20] >= 20 // 2 - 2  # about half the cluster

    def test_constant_loss_invariant_of_n(self):
        # The headline scaling claim: worst 3-switch-fault connectivity
        # loss does not grow with n for the diameter construction.
        losses = [
            worst_case(diameter_ring(n), 3, kinds=("switch",)).max_lost
            for n in (8, 10, 14, 18)
        ]
        assert max(losses) <= 3
        assert losses[-1] <= losses[0] + 1


class TestFig4Naive:
    def test_two_switch_faults_partition_half(self):
        # Fig. 4b: the naive attachment splits with two switch failures.
        wc = worst_case(naive_ring(10), 2, kinds=("switch",))
        assert wc.partition_found
        assert wc.max_lost == 5  # half the nodes lost

    def test_naive_loss_grows_with_n(self):
        l10 = worst_case(naive_ring(10), 2, kinds=("switch",)).max_lost
        l20 = worst_case(naive_ring(20), 2, kinds=("switch",)).max_lost
        assert l20 == 2 * l10  # ~n/2: non-constant

    def test_single_fault_fine(self):
        wc = worst_case(naive_ring(10), 1, kinds=("switch",))
        assert wc.max_lost == 0


class TestMinFaultsToPartition:
    def test_naive_partitions_at_two(self):
        assert min_faults_to_partition(naive_ring(12), max_faults=3) == 2

    def test_none_within_budget(self):
        # single-switch star cannot partition at all with 0 allowed faults
        from repro.topology import clique_construction

        topo = clique_construction(6, num_nodes=6, node_degree=3)
        assert min_faults_to_partition(topo, max_faults=1) is None


class TestWorstCaseBookkeeping:
    def test_histogram_sums_to_sets_examined(self):
        wc = worst_case(diameter_ring(8), 2, kinds=("switch",))
        assert sum(wc.lost_histogram.values()) == wc.sets_examined == 28

    def test_sampled_sweep(self):
        rng = np.random.default_rng(7)
        wc = worst_case(diameter_ring(30), 3, kinds=("switch",), sample=100, rng=rng)
        assert wc.sets_examined == 100
        assert wc.max_lost <= 6
