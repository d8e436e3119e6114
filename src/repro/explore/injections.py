"""Adversarial injection grids: failures, mobility, concurrency.

An *injection* is a plain-data dict describing one adversarial action
inside a run — picklable and JSON-serializable so it can live in a
:class:`~repro.campaign.spec.RunPoint`'s explore payload, be content-
hashed, and cross a worker boundary. :func:`draw_injections` samples a
schedule of them from a seeded RNG; :class:`InjectionDriver` arms them
on a built system before the run starts.

Kinds
-----
``fail_mid_coordination``
    Crash a host a fixed delay after the k-th initiation starts, resolve
    the active coordination with the §3.6 policy (abort or Kim-Park
    partial commit), restart the host later, then run the distributed
    rollback protocol to a consistent line.
``handoff``
    Move a host to another cell at a chosen time (requires >= 2 MSSs).
``disconnect``
    §2.2 voluntary disconnection for a bounded duration, with the MSS
    proxy answering checkpoint requests on the host's behalf.
``concurrent_initiation``
    Ask the runner for an extra initiation at a chosen time. Routed
    through the runner's serialization (§3.3's presentation assumption)
    so it probes timing, not the known §3.5 unrestricted-concurrency
    hazard.

Every action is guarded against conflicting system state (already
failed, already disconnected, …); a suppressed action is traced as
``injection_skipped`` so runs stay deterministic and auditable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.checkpointing.disconnect_support import (
    disconnect_process,
    reconnect_process,
)
from repro.checkpointing.failures import FailureInjector, FailurePolicy
from repro.checkpointing.recovery import DistributedRecovery
from repro.errors import ConfigurationError
from repro.net.mh import MobileHost
from repro.sim.rng import raw_rng
from repro.net.mobility import handoff

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runner import ExperimentRunner
    from repro.core.system import MobileSystem

#: all injection kinds, in the order the grid samples them
INJECTION_KINDS = (
    "fail_mid_coordination",
    "handoff",
    "disconnect",
    "concurrent_initiation",
)

#: retry delay while waiting for the system to be recoverable
_RECOVER_RETRY = 1.0


def draw_injections(
    seed: int,
    n_processes: int,
    n_mss: int,
    horizon: float,
    kinds: Optional[Sequence[str]] = None,
    max_injections: int = 3,
) -> List[Dict[str, Any]]:
    """Sample a deterministic injection schedule from ``seed``.

    ``horizon`` is the expected run length in simulated seconds (timed
    injections land in its middle 85%). Kinds that the topology cannot
    support (``handoff`` with one MSS) are dropped from the grid. The
    count is drawn from ``[0, max_injections]`` — zero keeps a share of
    pure schedule-fuzz runs in every batch.
    """
    grid = [k for k in (kinds if kinds is not None else INJECTION_KINDS)]
    for kind in grid:
        if kind not in INJECTION_KINDS:
            raise ConfigurationError(
                f"unknown injection kind {kind!r}; "
                f"available: {', '.join(INJECTION_KINDS)}"
            )
    if n_mss < 2:
        grid = [k for k in grid if k != "handoff"]
    rng = raw_rng(seed)
    injections: List[Dict[str, Any]] = []
    if not grid:
        return injections
    for _ in range(rng.randint(0, max_injections)):
        kind = rng.choice(grid)
        when = round(rng.uniform(0.05, 0.9) * horizon, 6)
        if kind == "fail_mid_coordination":
            injections.append(
                {
                    "kind": kind,
                    "at_initiation": rng.randint(1, 3),
                    "delay": round(rng.uniform(0.0, 3.0), 6),
                    "victim_offset": rng.randrange(n_processes),
                    "policy": rng.choice(
                        [FailurePolicy.ABORT.value, FailurePolicy.PARTIAL_COMMIT.value]
                    ),
                    "restart_after": round(rng.uniform(2.0, 8.0), 6),
                    "recover_after": round(rng.uniform(0.5, 3.0), 6),
                }
            )
        elif kind == "handoff":
            injections.append(
                {
                    "kind": kind,
                    "time": when,
                    "pid": rng.randrange(n_processes),
                    "mss_offset": rng.randrange(1, n_mss),
                }
            )
        elif kind == "disconnect":
            injections.append(
                {
                    "kind": kind,
                    "time": when,
                    "pid": rng.randrange(n_processes),
                    "duration": round(rng.uniform(0.05, 0.2) * horizon, 6),
                }
            )
        else:  # concurrent_initiation
            injections.append(
                {"kind": kind, "time": when, "pid": rng.randrange(n_processes)}
            )
    return injections


class InjectionDriver:
    """Arm an injection schedule on a built system before the run.

    Construction wires the failure injector and the distributed
    recovery layer; :meth:`install` schedules the actions. Every fail is
    always followed by a restart and a coordinated rollback, so no run
    is left with a permanently dead host (which would turn every later
    initiation into a termination false positive).
    """

    def __init__(
        self,
        system: "MobileSystem",
        runner: "ExperimentRunner",
        injections: Sequence[Dict[str, Any]],
    ) -> None:
        self.system = system
        self.runner = runner
        self.injections = [dict(injection) for injection in injections]
        self.injector = FailureInjector(system)
        self.recovery = DistributedRecovery(system)
        self.fired: List[Dict[str, Any]] = []
        self.skipped: List[Dict[str, Any]] = []
        self._initiations_seen = 0
        self._fail_pending: List[Dict[str, Any]] = []

    def install(self) -> None:
        """Schedule every injection; call once, before the run starts."""
        sim = self.system.sim
        for injection in self.injections:
            kind = injection["kind"]
            if kind == "fail_mid_coordination":
                self._fail_pending.append(injection)
            elif kind == "handoff":
                sim.schedule_at(injection["time"], self._do_handoff, injection)
            elif kind == "disconnect":
                sim.schedule_at(injection["time"], self._do_disconnect, injection)
            elif kind == "concurrent_initiation":
                sim.schedule_at(injection["time"], self._do_initiation, injection)
            else:
                raise ConfigurationError(f"unknown injection kind {kind!r}")
        if self._fail_pending:
            self.system.protocol.observers.append(self._on_wave)

    # -- bookkeeping -----------------------------------------------------
    def _fire(self, injection: Dict[str, Any], **extra: Any) -> None:
        self.fired.append(injection)
        self.system.sim.trace.record(
            self.system.sim.now, "injection", injection=injection["kind"], **extra
        )

    def _skip(self, injection: Dict[str, Any], reason: str) -> None:
        self.skipped.append(injection)
        self.system.sim.trace.record(
            self.system.sim.now,
            "injection_skipped",
            injection=injection["kind"],
            reason=reason,
        )

    def _mobile_host(self, pid: int) -> Optional[MobileHost]:
        host = self.system.processes[pid].host
        return host if isinstance(host, MobileHost) else None

    # -- failures --------------------------------------------------------
    def _on_wave(self, now: float, kind: str, fields: Dict[str, Any]) -> None:
        if kind != "initiation":
            return
        self._initiations_seen += 1
        due = [
            injection
            for injection in self._fail_pending
            if injection["at_initiation"] == self._initiations_seen
        ]
        for injection in due:
            self._fail_pending.remove(injection)
            self.system.sim.schedule(
                injection["delay"], self._do_fail, injection, fields["pid"]
            )

    def _do_fail(self, injection: Dict[str, Any], initiator_pid: int) -> None:
        victim = (initiator_pid + injection["victim_offset"]) % len(
            self.system.processes
        )
        host = self._mobile_host(victim)
        if victim in self.injector.failed_pids:
            self._skip(injection, "victim already failed")
            return
        if host is not None and host.disconnected:
            self._skip(injection, "victim disconnected")
            return
        self.injector.policy = FailurePolicy(injection["policy"])
        self._fire(injection, pid=victim, policy=injection["policy"])
        self.injector.fail_process(victim)
        self.system.sim.schedule(
            injection["restart_after"],
            self._do_restart,
            victim,
            injection["recover_after"],
        )

    def _do_restart(self, victim: int, recover_after: float) -> None:
        if victim not in self.injector.failed_pids:
            return
        self.injector.restart_process(victim)
        self.system.sim.schedule(recover_after, self._do_recover, victim)

    def _do_recover(self, victim: int) -> None:
        if (
            self.recovery.active
            or self.injector.failed_pids
            or any(
                host is not None and host.disconnected
                for host in map(self._mobile_host, self.system.processes)
            )
        ):
            # Another rollback is running, another host is still down
            # (its handlers would drop the rollback_request and stall the
            # round), or a host is voluntarily disconnected: try again
            # shortly. (The MSS holding a disconnected host's record would
            # roll it back and ack for it, but waiting for its return is
            # the rule the explore schedules were recorded under.)
            # Restarts and reconnections are always scheduled, so this
            # terminates.
            self.system.sim.schedule(_RECOVER_RETRY, self._do_recover, victim)
            return
        self.recovery.recover(victim)

    # -- mobility --------------------------------------------------------
    def _do_handoff(self, injection: Dict[str, Any]) -> None:
        pid = injection["pid"]
        host = self._mobile_host(pid)
        if host is None:
            self._skip(injection, "not a mobile host")
            return
        if host.disconnected or pid in self.injector.failed_pids:
            self._skip(injection, "host unavailable")
            return
        mss_list = self.system.mss_list
        current = host.mss
        if current is None:
            self._skip(injection, "host detached")
            return
        target = mss_list[
            (mss_list.index(current) + injection["mss_offset"]) % len(mss_list)
        ]
        if target is current:
            self._skip(injection, "same cell")
            return
        self._fire(injection, pid=pid, dst=target.name)
        handoff(self.system.network, host, target)

    def _do_disconnect(self, injection: Dict[str, Any]) -> None:
        pid = injection["pid"]
        host = self._mobile_host(pid)
        if host is None:
            self._skip(injection, "not a mobile host")
            return
        if host.disconnected or pid in self.injector.failed_pids:
            self._skip(injection, "host unavailable")
            return
        if self.system.processes[pid].blocked:
            self._skip(injection, "host blocked (recovery in progress)")
            return
        self._fire(injection, pid=pid, duration=injection["duration"])
        home = host.mss
        disconnect_process(self.system, pid)
        self.system.sim.schedule(injection["duration"], self._do_reconnect, pid, home)

    def _do_reconnect(self, pid: int, home) -> None:
        host = self._mobile_host(pid)
        if host is None or not host.disconnected:
            return
        reconnect_process(self.system, pid, new_mss=home)

    # -- concurrency -----------------------------------------------------
    def _do_initiation(self, injection: Dict[str, Any]) -> None:
        self._fire(injection, pid=injection["pid"])
        self.runner.request_initiation(injection["pid"])
