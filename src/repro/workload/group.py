"""Group-communication workload (paper §5.1).

Processes are arranged into groups, each with a leader. Intragroup
traffic: every process sends to a uniformly random member of its own
group at the base rate. Intergroup traffic: only leaders send to other
leaders, at ``intra_inter_ratio`` times lower rate (the paper evaluates
ratios of 1 000 and 10 000).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import GroupWorkloadConfig
from repro.core.system import MobileSystem
from repro.errors import ConfigurationError
from repro.workload.base import Workload, _Slot


class GroupWorkload(Workload):
    """Four-group (by default) leader-mediated traffic: slot = pid for a
    process's intragroup sends, n + g for leader g's intergroup sends."""

    def __init__(self, system: MobileSystem, config: GroupWorkloadConfig) -> None:
        super().__init__(system)
        self.config = config
        n = system.config.n_processes
        if n % config.n_groups != 0:
            raise ConfigurationError(
                f"{n} processes do not divide into {config.n_groups} equal groups"
            )
        size = n // config.n_groups
        self.groups: List[List[int]] = [
            list(range(g * size, (g + 1) * size)) for g in range(config.n_groups)
        ]
        #: pid -> group index
        self.group_of: Dict[int, int] = {
            pid: g for g, members in enumerate(self.groups) for pid in members
        }
        #: the leader of each group is its lowest pid
        self.leaders: List[int] = [members[0] for members in self.groups]

    def is_leader(self, pid: int) -> bool:
        """Whether ``pid`` is its group's leader."""
        return pid in self.leaders

    def _bind(self, slot: int) -> _Slot:
        n = len(self.group_of)
        mean = self.config.mean_send_interval
        if slot < n:  # intragroup: every process, to its own group
            members = self.groups[self.group_of[slot]]
            return self._make_slot(slot, f"workload.group.intra.{slot}",
                                   f"workload.group.intra.dst.{slot}",
                                   members, slot - members[0], mean)
        group = slot - n  # intergroup: group's leader, to the other leaders
        leader = self.leaders[group]
        return self._make_slot(leader, f"workload.group.inter.{leader}",
                               f"workload.group.inter.dst.{leader}",
                               self.leaders, group, mean * self.config.intra_inter_ratio)

    def _schedule_initial(self) -> None:
        for pid in self.system.processes:
            self._arm(pid)
        for group in range(len(self.leaders)):
            self._arm(len(self.group_of) + group)

    # the send callbacks an image pickled before sends had slots
    _fire_intra = Workload._fire

    def _fire_inter(self, leader: int) -> None:
        self._fire(len(self.group_of) + self.group_of[leader])
