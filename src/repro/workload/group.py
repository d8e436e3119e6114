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
from repro.workload.base import Workload, _Others, _others_by_pid


class GroupWorkload(Workload):
    """Four-group (by default) leader-mediated traffic."""

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

    def _bind(self, pid: int):
        # (delay stream, destination stream, candidates) for intragroup
        # traffic and, when ``pid`` leads its group, for intergroup.
        # Names and per-stream draw order are those of per-call
        # ``streams.exponential(name, mean)`` / ``streams.choice``.
        stream = self.system.streams.stream
        group = self.group_of[pid]
        if pid not in self._views:
            self._views.update(_others_by_pid(self.groups[group]))
        intra = (
            stream(f"workload.group.intra.{pid}"),
            stream(f"workload.group.intra.dst.{pid}"),
            self._views[pid],
        )
        if self.leaders[group] != pid:
            return intra, None
        inter = (
            stream(f"workload.group.inter.{pid}"),
            stream(f"workload.group.inter.dst.{pid}"),
            _Others(self.leaders, group),
        )
        return intra, inter

    def _schedule_initial(self) -> None:
        for pid in self.system.processes:
            self._schedule_intra(pid)
        for leader in self.leaders:
            self._schedule_inter(leader)

    # -- intragroup ---------------------------------------------------------
    def _schedule_intra(self, pid: int) -> None:
        stream, _, _ = self._bindings(pid)[0]
        delay = stream.expovariate(1.0 / self.config.mean_send_interval)
        self.system.sim.schedule(delay, self._fire_intra, pid)

    def _fire_intra(self, pid: int) -> None:
        if not self.running:
            return
        _, dst, members = self._bindings(pid)[0]
        if members:
            self._send(pid, dst.choice(members))
        self._schedule_intra(pid)

    # -- intergroup (leaders only) ---------------------------------------------
    def _schedule_inter(self, leader: int) -> None:
        stream, _, _ = self._bindings(leader)[1]
        mean = self.config.mean_send_interval * self.config.intra_inter_ratio
        self.system.sim.schedule(
            stream.expovariate(1.0 / mean), self._fire_inter, leader
        )

    def _fire_inter(self, leader: int) -> None:
        if not self.running:
            return
        _, dst, others = self._bindings(leader)[1]
        if others:
            self._send(leader, dst.choice(others))
        self._schedule_inter(leader)
