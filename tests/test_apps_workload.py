"""Tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.apps import FlowModel, VideoSpec, synthetic_block


class TestSyntheticBlock:
    def test_deterministic(self):
        assert synthetic_block("x", 100) == synthetic_block("x", 100)

    def test_distinct_tags(self):
        assert synthetic_block("x", 100) != synthetic_block("y", 100)

    def test_size(self):
        assert len(synthetic_block("t", 4096)) == 4096

    def test_content_spread(self):
        # pseudo-random, not degenerate
        data = synthetic_block("spread", 10_000)
        assert len(set(data)) > 200


class TestVideoSpec:
    def test_block_ids_unique(self):
        spec = VideoSpec("v", blocks=5)
        ids = [spec.block_id(i) for i in range(5)]
        assert len(set(ids)) == 5

    def test_duration(self):
        spec = VideoSpec("v", blocks=10, block_duration=0.25)
        assert spec.duration == 2.5

    def test_two_videos_different_content(self):
        a = VideoSpec("a")
        b = VideoSpec("b")
        assert a.block_data(0) != b.block_data(0)


class TestFlowModel:
    def test_rates_sum_to_total(self):
        fm = FlowModel(np.random.default_rng(2), [f"v{i}" for i in range(6)], 300.0)
        assert sum(fm.rates().values()) == pytest.approx(300.0)
        fm.step()
        assert sum(fm.rates().values()) == pytest.approx(300.0)

    def test_step_changes_split(self):
        fm = FlowModel(np.random.default_rng(3), ["a", "b", "c"], 100.0)
        before = fm.rates()
        after = fm.step()
        assert before != after

    def test_requires_vips(self):
        with pytest.raises(ValueError):
            FlowModel(np.random.default_rng(0), [], 100.0)

    def test_rates_positive(self):
        fm = FlowModel(np.random.default_rng(4), ["a", "b"], 50.0)
        for _ in range(100):
            assert all(r > 0 for r in fm.step().values())
