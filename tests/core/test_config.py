"""Tests for configuration validation."""

from __future__ import annotations

import pytest

from repro.core.config import (
    GroupWorkloadConfig,
    PointToPointWorkloadConfig,
    RunConfig,
    SystemConfig,
)
from repro.errors import ConfigurationError
from repro.net.params import NetworkParams


class TestSystemConfig:
    def test_paper_defaults(self):
        c = SystemConfig()
        assert c.n_processes == 16
        assert c.n_mss == 1
        assert c.checkpoint_interval == 900.0
        assert c.checkpoint_size_bytes == 512 * 1024

    def test_from_params_rebuilds_nested_network(self):
        c = SystemConfig.from_params(
            {"n_processes": 4, "network": {"shared_cell_medium": False}},
            seed=9,
        )
        assert c.n_processes == 4
        assert c.seed == 9
        assert isinstance(c.network, NetworkParams)
        assert c.network.shared_cell_medium is False

    def test_from_params_accepts_network_instance(self):
        params = NetworkParams(wired_latency=0.001)
        c = SystemConfig.from_params({"network": params})
        assert c.network is params
        assert c.seed == SystemConfig().seed

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_processes": 0},
            {"n_mss": 0},
            {"checkpoint_interval": 0.0},
            {"checkpoint_size_bytes": 0},
            {"trace_debug_capacity": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SystemConfig(**kwargs)


class TestWorkloadConfigs:
    def test_point_to_point_rate(self):
        c = PointToPointWorkloadConfig(mean_send_interval=20.0)
        assert c.rate == pytest.approx(0.05)

    def test_point_to_point_invalid(self):
        with pytest.raises(ConfigurationError):
            PointToPointWorkloadConfig(mean_send_interval=0.0)

    def test_group_defaults(self):
        c = GroupWorkloadConfig()
        assert c.n_groups == 4
        assert c.intra_inter_ratio == 1000.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mean_send_interval": -1.0},
            {"n_groups": 0},
            {"intra_inter_ratio": 0.5},
        ],
    )
    def test_group_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            GroupWorkloadConfig(**kwargs)


class TestRunConfig:
    def test_defaults(self):
        c = RunConfig()
        assert c.max_initiations == 10
        assert c.warmup_initiations == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_initiations": 0},
            {"warmup_initiations": -1},
            {"max_initiations": 2, "warmup_initiations": 2},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            RunConfig(**kwargs)


class TestNetworkParams:
    def test_paper_constants(self):
        p = NetworkParams()
        assert p.wireless_bandwidth_bps == 2_000_000.0
        assert p.mutable_save_time == 0.0025

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wireless_bandwidth_bps": 0.0},
            {"wired_latency": -1.0},
            {"mutable_save_time": -0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            NetworkParams(**kwargs)
