"""Tests for the traffic generators."""

from __future__ import annotations

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import (
    GroupWorkloadConfig,
    PointToPointWorkloadConfig,
    SystemConfig,
)
from repro.core.system import MobileSystem
from repro.errors import ConfigurationError
from repro.workload.group import GroupWorkload
from repro.workload.point_to_point import PointToPointWorkload


def build(n=8, seed=5):
    return MobileSystem(SystemConfig(n_processes=n, seed=seed), MutableCheckpointProtocol())


class TestPointToPoint:
    def test_rate_matches_configuration(self):
        system = build()
        workload = PointToPointWorkload(system, PointToPointWorkloadConfig(2.0))
        workload.start()
        system.sim.run(until=2000.0)
        workload.stop()
        # 8 processes at 0.5 msg/s for 2000 s ~ 8000 messages
        assert workload.messages_generated == pytest.approx(8000, rel=0.1)

    def test_destinations_cover_all_other_processes(self):
        system = build()
        workload = PointToPointWorkload(system, PointToPointWorkloadConfig(1.0))
        destinations = set()
        system.add_deliver_hook(lambda proc, msg: destinations.add(proc.pid))
        workload.start()
        system.sim.run(until=300.0)
        workload.stop()
        system.run_until_quiescent()
        assert destinations == set(range(8))

    def test_no_self_messages(self):
        system = build()
        received = []
        system.add_deliver_hook(lambda proc, msg: received.append((msg.src_pid, proc.pid)))
        workload = PointToPointWorkload(system, PointToPointWorkloadConfig(1.0))
        workload.start()
        system.sim.run(until=100.0)
        workload.stop()
        system.run_until_quiescent()
        assert all(src != dst for src, dst in received)

    def test_stop_prevents_new_sends(self):
        system = build()
        workload = PointToPointWorkload(system, PointToPointWorkloadConfig(1.0))
        workload.start()
        system.sim.run(until=50.0)
        workload.stop()
        count = workload.messages_generated
        system.run_until_quiescent()
        assert workload.messages_generated == count

    def test_start_is_idempotent(self):
        system = build()
        workload = PointToPointWorkload(system, PointToPointWorkloadConfig(10.0))
        workload.start()
        workload.start()
        system.sim.run(until=500.0)
        workload.stop()
        # double-start must not double the rate
        assert workload.messages_generated == pytest.approx(8 * 50, rel=0.3)


class TestGroup:
    def test_group_partition(self):
        system = build()
        workload = GroupWorkload(system, GroupWorkloadConfig(n_groups=4))
        assert workload.groups == [[0, 1], [2, 3], [4, 5], [6, 7]]
        assert workload.leaders == [0, 2, 4, 6]
        assert workload.is_leader(2) and not workload.is_leader(3)

    def test_uneven_groups_rejected(self):
        system = MobileSystem(SystemConfig(n_processes=6, seed=1), MutableCheckpointProtocol())
        with pytest.raises(ConfigurationError):
            GroupWorkload(system, GroupWorkloadConfig(n_groups=4))

    def test_non_leaders_never_cross_groups(self):
        system = build()
        crossings = []
        workload = GroupWorkload(
            system, GroupWorkloadConfig(mean_send_interval=1.0, intra_inter_ratio=10.0)
        )

        def check(proc, msg):
            src_group = workload.group_of[msg.src_pid]
            dst_group = workload.group_of[proc.pid]
            if src_group != dst_group:
                crossings.append(msg.src_pid)

        system.add_deliver_hook(check)
        workload.start()
        system.sim.run(until=500.0)
        workload.stop()
        system.run_until_quiescent()
        assert crossings, "expected some intergroup traffic at 10x ratio"
        assert all(workload.is_leader(pid) for pid in crossings)

    def test_intergroup_rate_scaled_down(self):
        system = build()
        intra, inter = [], []
        workload = GroupWorkload(
            system, GroupWorkloadConfig(mean_send_interval=1.0, intra_inter_ratio=100.0)
        )

        def classify(proc, msg):
            same = workload.group_of[msg.src_pid] == workload.group_of[proc.pid]
            (intra if same else inter).append(msg.msg_id)

        system.add_deliver_hook(classify)
        workload.start()
        system.sim.run(until=2000.0)
        workload.stop()
        system.run_until_quiescent()
        # 8 intra senders vs 4 leaders at 1/100 rate: ~200x fewer inter
        assert len(intra) > 50 * len(inter) > 0
