"""Cross-module property tests (hypothesis) on structural invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codes import BCode, XCode
from repro.codes.gf256 import MUL_TABLE, gf_vandermonde, gf_mat_inv, gf_matmul
from repro.net import FaultInjector, Network, PortsExhausted
from repro.sim import Simulator
from repro.topology import FaultSet, analyze, diameter_ring, naive_ring

from .test_net_routing_multihop import all_nics, assert_matches_reference


class TestGF256Exhaustive:
    def test_commutativity_full_table(self):
        assert np.array_equal(MUL_TABLE, MUL_TABLE.T)

    def test_zero_and_one_rows(self):
        assert not MUL_TABLE[0].any()
        assert np.array_equal(MUL_TABLE[1], np.arange(256, dtype=np.uint8))

    def test_no_zero_divisors(self):
        # a*b == 0 iff a == 0 or b == 0
        nz = MUL_TABLE[1:, 1:]
        assert (nz != 0).all()

    def test_each_nonzero_row_is_permutation(self):
        for a in range(1, 256):
            assert len(set(MUL_TABLE[a].tolist())) == 256

    @given(st.integers(2, 8))
    @settings(max_examples=7, deadline=None)
    def test_vandermonde_invertible(self, k):
        v = gf_vandermonde(k, k)
        inv = gf_mat_inv(v)
        assert np.array_equal(gf_matmul(v, inv), np.eye(k, dtype=np.uint8))


class TestTopologyProperties:
    @given(st.sampled_from([6, 8, 10, 12, 14, 16, 20]))
    @settings(max_examples=7, deadline=None)
    def test_diameter_pairs_unique_and_degrees(self, n):
        topo = diameter_ring(n)
        pairs = list(topo.node_switch_pairs().values())
        assert len(set(pairs)) == n  # unique switch pair per node
        nd, sd = topo.degrees()
        assert set(nd.values()) == {2}
        assert set(sd.values()) == {4}

    @given(
        st.sampled_from([8, 10, 12]),
        st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_loss_metrics_consistent(self, n, seed):
        # for any random fault set: touched >= faulted nodes;
        # components partition the survivors; lost >= 0
        rng = np.random.default_rng(seed)
        topo = diameter_ring(n)
        switches = frozenset(rng.choice(n, size=2, replace=False).tolist())
        nodes = frozenset(rng.choice(n, size=1).tolist())
        report = analyze(topo, FaultSet(switches=switches, nodes=nodes))
        alive = n - len(nodes)
        assert sum(report.component_sizes) == alive
        assert report.nodes_lost >= len(nodes)
        assert report.nodes_touched >= 0

    @given(st.sampled_from([6, 10, 14, 18]))
    @settings(max_examples=4, deadline=None)
    def test_single_fault_never_disconnects_diameter(self, n):
        topo = diameter_ring(n)
        for j in range(n):
            report = analyze(topo, FaultSet(switches=frozenset({j})))
            assert report.nodes_lost == 0

    @given(st.sampled_from([6, 8, 12]))
    @settings(max_examples=3, deadline=None)
    def test_naive_weaker_than_diameter(self, n):
        from repro.topology import worst_case

        wn = worst_case(naive_ring(n), 2, kinds=("switch",))
        wd = worst_case(diameter_ring(n), 2, kinds=("switch",))
        assert wd.max_lost <= wn.max_lost


class TestDecodingChainProperties:
    @given(st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda t: t[0] != t[1]))
    @settings(max_examples=15, deadline=None)
    def test_chain_steps_well_formed(self, pair):
        code = BCode(6)
        steps = code.decoding_chain(sorted(pair))
        solved = set()
        erased = set(pair)
        for step in steps:
            # the parity used must survive the erasure
            assert step.parity[0] not in erased
            # every operand is either intact or previously solved
            for op in step.operands:
                assert op[0] not in erased or op in solved
            solved.add(step.solved)
        # all erased data cells are eventually solved
        lost = {c for c in code.data_cells if c[0] in erased}
        assert solved == lost

    @given(st.sampled_from([5, 7]))
    @settings(max_examples=2, deadline=None)
    def test_xcode_chains_exist_for_all_pairs(self, p):
        import itertools

        code = XCode(p)
        for pair in itertools.combinations(range(p), 2):
            steps = code.decoding_chain(pair)
            assert len(steps) == 2 * (p - 2)


class TestCodeSizing:
    @given(st.integers(0, 2000))
    @settings(max_examples=50, deadline=None)
    def test_share_sizes_uniform_and_sufficient(self, data_len):
        code = BCode(6)
        data = bytes(data_len)
        shares = code.encode(data)
        sizes = {len(s) for s in shares}
        assert len(sizes) == 1
        assert sizes.pop() == code.share_size(data_len)
        # MDS storage bound: k shares hold at least the original data
        assert code.k * code.share_size(data_len) >= data_len


# (kind of end, index) pairs; indices wrap modulo what the topology has
_cable_end = st.tuples(st.sampled_from(["nic", "switch"]), st.integers(0, 20))
_fault_step = st.tuples(
    st.sampled_from(["link", "switch", "nic", "host", "cable"]),
    st.integers(0, 40),
    st.booleans(),
)


class TestRoutingMatchesTheDeviceGraphBfs:
    """The switch-tree router against the whole-graph BFS it replaced."""

    @given(
        ports=st.lists(st.integers(3, 10), min_size=1, max_size=7),
        nics=st.lists(st.integers(1, 3), min_size=2, max_size=7),
        cables=st.lists(st.tuples(_cable_end, _cable_end), min_size=1, max_size=40),
        script=st.lists(_fault_step, max_size=12),
    )
    @example(  # h1's first cable goes to s1, but a walk from h0 visits s0 first
        ports=[3, 3],
        nics=[1, 1],
        cables=[
            (("switch", 0), ("switch", 1)),
            (("nic", 0), ("switch", 0)),
            (("nic", 1), ("switch", 1)),
            (("nic", 1), ("switch", 0)),
        ],
        script=[],
    )
    @settings(max_examples=150, deadline=None)
    def test_identical_links_after_every_fault_step(self, ports, nics, cables, script):
        sim = Simulator(seed=0)
        net = Network(sim)
        switches = [net.add_switch(f"s{i}", ports=p) for i, p in enumerate(ports)]
        hosts = [net.add_host(f"h{i}", nics=n) for i, n in enumerate(nics)]
        nic_list = all_nics(net)
        ends = {"nic": nic_list, "switch": switches}

        def cable(a, b):
            # NIC-switch, switch-switch, NIC-NIC and parallel cables alike;
            # self-loops and full switches are refused and leave no trace
            a, b = (ends[kind][i % len(ends[kind])] for kind, i in (a, b))
            try:
                net.link(a, b)
            except (ValueError, PortsExhausted):
                pass

        for a, b in cables:
            cable(a, b)
        for nic in nic_list:
            assert all(nic in (lk.a, lk.b) and lk in net.links for lk in nic.links)
        assert_matches_reference(net)

        fi = FaultInjector(net)
        flippable = {"link": net.links, "switch": switches, "nic": nic_list, "host": hosts}
        for kind, i, up in script:
            if kind == "cable":  # re-cabling mid-run, drawn from the same pool
                cable(*cables[i % len(cables)])
            elif flippable[kind]:
                target = flippable[kind][i % len(flippable[kind])]
                (fi.repair if up else fi.fail)(target)
            assert_matches_reference(net)
