"""Workload streams: a pure function of the seed; unknown mixes refused."""

import pytest

from repro.loadgen.workload import Workload


class TestDeterminism:
    def test_workload_stream_is_seed_deterministic(self):
        ops_a = [Workload("xmark-rw", 5).operation() for _ in range(50)]
        ops_b = [Workload("xmark-rw", 5).operation() for _ in range(50)]
        assert ops_a == ops_b
        ops_c = [Workload("xmark-rw", 6).operation() for _ in range(50)]
        assert ops_a != ops_c


class TestProfileValidation:
    def test_rejects_unknown_mix(self):
        with pytest.raises(ValueError, match="unknown mix"):
            Workload("xmark-nope", 1)
