"""The MSS acting for a disconnected host (§2.2) is the host's own env.

While pid 1's MH (homed at mss1 of two) is disconnected, the MSS that
holds its disconnect record answers checkpoint requests for it. It does
so through the process's one ``RuntimeEnv``, so what holds for a
connected process holds here too: an image taken meanwhile resumes and
can still send, the checkpoint lives and dies at the holder's storage,
and its control messages carry their wave's trigger.
"""

from __future__ import annotations

from repro.campaign import RunPoint, build_point_runtime
from repro.checkpointing.disconnect_support import disconnect_process
from repro.checkpointing.recovery import DistributedRecovery
from repro.checkpointing.types import CheckpointKind
from repro.core.process import RuntimeEnv
from repro.obs.forensics import build_forensics
from repro.snapshot.state import SimulationImage, capture, restore
from tests.snapshot import _old_images as old

ABSENT = 1  # homed at mss1: pid % n_mss


def build(trace_messages=False):
    point = RunPoint(
        protocol="mutable",
        workload_params={"mean_send_interval": 1.0},
        system_params={"n_processes": 4, "n_mss": 2, "checkpoint_interval": 1000.0,
                       "trace_messages": trace_messages},
        run_params={"max_initiations": 2},
        seed=5,
    )
    system, _, runner = build_point_runtime(point)
    # P0 z-depends on the process about to leave, so P0's wave asks it
    system.processes[ABSENT].send_computation(0)
    settle(system)
    record = disconnect_process(system, ABSENT)
    holder = system.mss_list[1]
    assert system.network.custody[f"mh{ABSENT}"] is record
    assert record.holder is holder
    return system, runner, record, holder


def settle(system):
    """Run 60 s of sim time: a wave ends well within it, and the runner's
    first initiation comes far later."""
    system.sim.run(until=system.sim.now + 60.0)


def checkpoints_at(mss, pid=ABSENT):
    return mss.stable_storage.checkpoints_of(pid)


def test_an_image_taken_while_disconnected_resumes_and_acts_for_the_host():
    system, runner, _, _ = build()
    image = restore(capture(runner))
    system = image.system
    record = system.network.custody[f"mh{ABSENT}"]
    assert system.protocol.processes[0].initiate()
    settle(system)
    assert record.checkpoint_taken_on_behalf
    assert system.sim.trace.count("tentative", pid=ABSENT) == 1
    assert system.sim.trace.count("commit") == 1
    assert system.sim.trace.count("permanent", pid=ABSENT) == 2  # csn 0, csn 1


def test_an_image_holding_the_old_proxy_env_resumes_with_one_env():
    """An image written while the MSS acted through a second env, an
    ``MssProxyEnv`` swapped onto the protocol process, loads with the
    process's own ``RuntimeEnv`` in its place."""
    system, runner, _, holder = build()
    app = system.processes[ABSENT]
    protocol_process = app.protocol_process
    protocol_process.env = old.MssProxyEnv(app, holder)
    payload = old.dumps(SimulationImage(runner))
    protocol_process.env = app.env
    image = restore(payload)
    system = image.system
    app = system.processes[ABSENT]
    assert app.protocol_process.env is app.env
    assert type(app.env) is RuntimeEnv
    record = system.network.custody[f"mh{ABSENT}"]
    assert system.protocol.processes[0].initiate()
    settle(system)
    assert record.checkpoint_taken_on_behalf
    assert system.sim.trace.count("commit") == 1


def test_commit_collects_garbage_at_the_holder():
    system, _, record, holder = build()
    assert system.protocol.processes[0].initiate()
    settle(system)
    assert record.checkpoint_taken_on_behalf
    permanents = [r for r in checkpoints_at(holder) if r.kind is CheckpointKind.PERMANENT]
    # the initial csn-0 permanent is gone: only the one taken on behalf
    assert len(permanents) == 1 and permanents[0].csn > 0
    assert not checkpoints_at(system.mss_list[0])
    assert system.stable_storage_for(ABSENT) is holder.stable_storage


def test_abort_removes_the_checkpoint_from_the_holder():
    system, _, _, holder = build()
    initiator = system.protocol.processes[0]
    assert initiator.initiate()
    trace = system.sim.trace
    while not trace.count("tentative", pid=ABSENT):
        assert system.sim.step()
    (taken,) = [r["ckpt_id"] for r in trace.where("tentative", pid=ABSENT)]
    assert any(r.ckpt_id == taken for r in checkpoints_at(holder))
    initiator.abort_initiation()
    settle(system)
    assert trace.count("tentative_discarded", pid=ABSENT) == 1
    assert all(r.ckpt_id != taken for r in checkpoints_at(holder))


def test_control_messages_sent_on_behalf_carry_their_wave():
    system, _, _, _ = build(trace_messages=True)
    assert system.protocol.processes[0].initiate()
    settle(system)
    trigger = system.sim.trace.last("commit")["trigger"]
    replies = system.sim.trace.where("sys_send", src=ABSENT, subkind="reply")
    assert [r["trigger"] for r in replies] == [trigger]
    (wave,) = build_forensics(system.sim.trace).waves
    assert wave.trigger == trigger
    assert wave.control_messages.get("reply") == len(
        system.sim.trace.where("sys_send", subkind="reply")
    )


def test_a_recovery_round_completes_while_a_host_is_disconnected():
    """The holder hands a rollback request to the absent process's own
    entry point, where the recovery handlers are: the process rolls
    back, its ack leaves from the holder, and the round completes."""
    system, _, record, _ = build()
    round_ = DistributedRecovery(system).recover(0)
    settle(system)
    assert round_.complete and round_.acked == set(system.processes)
    absent = system.processes[ABSENT]
    assert absent.incarnation == round_.incarnation and not absent.blocked
    assert system.sim.trace.count("rolled_back", pid=ABSENT) == 1
    assert not record.buffered  # request and resume were both consumed
