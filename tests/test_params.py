"""Tests for configuration validation and unit helpers."""

import pytest

from repro.analysis import metrics
from repro.params import CmmuParams, MachineConfig, NetworkParams


class TestMachineConfig:
    def test_defaults_are_paper_values(self):
        cfg = MachineConfig()
        assert cfg.n_nodes == 64
        assert metrics.DEFAULT_CLOCK_MHZ == 33.0
        assert cfg.line_size == 16
        assert cfg.cmmu.interrupt_entry == 5  # paper §3
        assert cfg.cmmu.window_words == 16    # paper §3

    def test_bad_n_nodes(self):
        with pytest.raises(ValueError):
            MachineConfig(n_nodes=0)

    def test_bad_line_size(self):
        with pytest.raises(ValueError):
            MachineConfig(line_size=24)

    def test_bad_cache_lines(self):
        with pytest.raises(ValueError):
            MachineConfig(cache_lines=0)

    # the clock lives in repro.analysis.metrics: no simulation code
    # reads it, only the unit conversions of the reported figures
    def test_bad_clock(self):
        with pytest.raises(ValueError):
            metrics.cycles_to_usec(33, clock_mhz=0)

    def test_cycles_to_usec(self):
        assert metrics.cycles_to_usec(33) == pytest.approx(1.0)
        assert metrics.cycles_to_msec(33_000) == pytest.approx(1.0)

    def test_mbytes_per_sec(self):
        # the Fig. 7 anchor: 4 KB in 2440 cycles
        assert metrics.mbytes_per_sec(4096, 2440) == pytest.approx(55.4, rel=0.01)

    def test_mbytes_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            metrics.mbytes_per_sec(100, 0)


class TestCmmuParams:
    def test_describe_cost_formula(self):
        p = CmmuParams(describe_base=2, describe_per_operand=1, describe_per_block=2)
        assert p.describe_cost(3, 2) == 2 + 3 + 4


class TestNetworkParams:
    def test_defaults(self):
        p = NetworkParams()
        assert p.hop_latency > 0
        assert p.bandwidth_bytes_per_cycle > 0
