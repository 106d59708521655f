"""Tests for fault-tolerant counting networks (paper ref. [44])."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting import (
    Balancer,
    CountingNetwork,
    bitonic_network,
    has_step_property,
    smoothness,
)


class TestBalancer:
    def test_alternates_top_first(self):
        b = Balancer(0, 1)
        assert [b.route(0) for _ in range(4)] == [0, 1, 0, 1]

    def test_rejects_same_wires(self):
        with pytest.raises(ValueError):
            Balancer(2, 2)

    def test_rejects_foreign_wire(self):
        b = Balancer(0, 1)
        with pytest.raises(ValueError):
            b.route(5)

    def test_stuck_fault_and_repair(self):
        b = Balancer(0, 1)
        b.fail_stuck(to_top=False)
        assert [b.route(0) for _ in range(3)] == [1, 1, 1]
        b.repair()
        assert b.route(0) == 0  # toggle resumes


class TestBitonicConstruction:
    def test_width_must_be_power_of_two(self):
        for bad in (0, 3, 6, 12):
            with pytest.raises(ValueError):
                bitonic_network(bad)

    def test_depth_is_log_squared(self):
        # depth of B[2^p] = p(p+1)/2
        for p, width in ((1, 2), (2, 4), (3, 8), (4, 16)):
            net = CountingNetwork(width)
            assert net.depth == p * (p + 1) // 2

    def test_width_one_is_trivial(self):
        net = CountingNetwork(1)
        assert net.depth == 0
        assert net.traverse(0) == 0

    def test_balancer_count(self):
        net = CountingNetwork(8)
        assert net.size == net.depth * 4  # w/2 balancers per layer


class TestStepProperty:
    @pytest.mark.parametrize("width", [2, 4, 8, 16])
    def test_step_property_random_arrivals(self, width):
        rng = np.random.default_rng(width)
        for _ in range(30):
            net = CountingNetwork(width)
            arrivals = rng.integers(0, width, size=int(rng.integers(0, 120)))
            counts = net.run(int(a) for a in arrivals)
            assert has_step_property(counts), counts

    def test_single_wire_arrivals(self):
        # all tokens entering one wire still spread perfectly
        net = CountingNetwork(8)
        counts = net.run([3] * 17)
        assert has_step_property(counts)
        assert sum(counts) == 17

    def test_counts_conserved(self):
        net = CountingNetwork(4)
        net.run([0, 1, 2, 3] * 5)
        assert sum(net.output_counts) == 20 == net.tokens_routed

    @given(st.lists(st.integers(0, 7), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_property_step_for_any_arrival_sequence(self, arrivals):
        net = CountingNetwork(8)
        counts = net.run(arrivals)
        assert has_step_property(counts)
        assert sum(counts) == len(arrivals)


class TestFaults:
    def test_stuck_fault_breaks_step_property(self):
        rng = np.random.default_rng(5)
        broken = 0
        for _trial in range(20):
            net = CountingNetwork(8)
            net.inject_stuck_faults(2, rng)
            counts = net.run(int(x) for x in rng.integers(0, 8, size=200))
            if not has_step_property(counts):
                broken += 1
        assert broken > 0  # faults observably corrupt counting

    def test_faults_lose_no_tokens_but_skew_grows_with_traffic(self):
        # stuck balancers misroute, never drop: counts are conserved,
        # while the skew grows with the traffic through the fault —
        # which is why [44] needs a correction network, not just slack
        rng = np.random.default_rng(6)
        for tokens in (100, 400):
            net = CountingNetwork(8)
            net.inject_stuck_faults(2, rng)
            counts = net.run(int(x) for x in rng.integers(0, 8, size=tokens))
            assert sum(counts) == tokens
        # and the skew under faults far exceeds the fault-free bound of 1
        net = CountingNetwork(8)
        net.inject_stuck_faults(4, rng, to_top=True)
        counts = net.run(int(x) for x in rng.integers(0, 8, size=400))
        assert smoothness(counts) > 1

    def test_correction_restores_step_property(self):
        # ref. [44]: append a healthy counting stage after the faulty one
        rng = np.random.default_rng(7)
        for _ in range(15):
            net = CountingNetwork(8)
            corrected = net.with_correction()
            # fault only the ORIGINAL layers
            original = [b for layer in net.layers for b in layer]
            idx = rng.choice(len(original), size=3, replace=False)
            for i in idx:
                original[int(i)].fail_stuck(bool(rng.integers(2)))
            counts = corrected.run(int(x) for x in rng.integers(0, 8, size=300))
            assert has_step_property(counts), counts

    def test_correction_doubles_depth(self):
        net = CountingNetwork(8)
        assert net.with_correction().depth == 2 * net.depth

    def test_too_many_faults_rejected(self):
        net = CountingNetwork(2)
        with pytest.raises(ValueError):
            net.inject_stuck_faults(10, np.random.default_rng(0))

    def test_repair_restores_counting(self):
        rng = np.random.default_rng(8)
        net = CountingNetwork(4)
        failed = net.inject_stuck_faults(2, rng)
        for b in failed:
            b.repair()
        counts = net.run(int(x) for x in rng.integers(0, 4, size=100))
        assert has_step_property(counts)


def test_smoothness_helper():
    assert smoothness([3, 3, 2, 2]) == 1
    assert smoothness([]) == 0
    assert smoothness([5, 0]) == 5
