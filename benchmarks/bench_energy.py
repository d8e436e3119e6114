"""Energy ablation: the §1/§5.3.2 motivation quantified.

* checkpoint data dominates wireless energy (why min-process matters);
* broadcast commits wake dozing hosts that update commits spare.
"""

from __future__ import annotations

from benchmarks.bench_util import build_bench, build_system
from repro.analysis.energy import DozeManager, EnergyModel
from repro.campaign.spec import DEFAULT_MAX_EVENTS
from repro.checkpointing.elnozahy import ElnozahyProtocol
from repro.checkpointing.mutable import MutableCheckpointProtocol


def run_with_energy(protocol, mean_interval=200.0, seed=5, initiations=8):
    system, _, runner = build_bench(
        protocol, workload_params={"mean_send_interval": mean_interval},
        seed=seed, initiations=initiations, warmup=1,
    )
    result = runner.run(max_events=DEFAULT_MAX_EVENTS)
    return system, result, EnergyModel(system).totals()


def test_min_process_saves_wireless_energy():
    """Fewer stable checkpoints -> fewer 512 KB transfers -> less tx
    energy than the all-process baseline on the same workload."""

    def run_both():
        _, mu_result, mu = run_with_energy(MutableCheckpointProtocol())
        _, ejz_result, ejz = run_with_energy(ElnozahyProtocol())
        return mu_result, mu, ejz_result, ejz

    mu_result, mu, ejz_result, ejz = run_both()
    print(
        f"\nwireless tx energy: mutable={mu['tx_mj']:.0f} mJ "
        f"(N_min={mu_result.tentative_summary().mean:.1f}) vs "
        f"elnozahy={ejz['tx_mj']:.0f} mJ (N=16)"
    )
    if mu_result.tentative_summary().mean < 15.5:
        assert mu["tx_mj"] < ejz["tx_mj"]


def test_checkpoint_data_dominates_message_energy():
    """The §1 argument: stable-storage transfers, not control messages,
    are the wireless energy story."""

    def run():
        system, result, totals = run_with_energy(MutableCheckpointProtocol())
        ckpt_bytes = sum(mh.background_bytes for mh in system.mhs)
        msg_bytes = sum(
            mh.uplink.bytes_sent for mh in system.mhs if mh.uplink is not None
        )
        return ckpt_bytes, msg_bytes

    ckpt_bytes, msg_bytes = run()
    print(f"\ncheckpoint bytes={ckpt_bytes:,} vs message bytes={msg_bytes:,}")
    assert ckpt_bytes > 10 * msg_bytes


def test_update_commit_spares_dozing_hosts():
    """§5.3.2's broadcast-vs-update energy argument with real dozing."""

    def run(mode):
        system = build_system(MutableCheckpointProtocol(commit_mode=mode), seed=3)
        # a sparse clique: only 0..3 talk, the rest doze
        for src, dst in [(1, 0), (2, 0), (3, 1)]:
            system.processes[src].send_computation(dst)
        system.sim.run_until_idle()
        manager = DozeManager(system, idle_timeout=5.0, poll_interval=1.0)
        manager.start()
        system.sim.run(until=30.0)
        assert system.protocol.processes[0].initiate()
        system.sim.run(until=120.0)
        manager.stop()
        system.run_until_quiescent()
        return sum(mh.wakeups for mh in system.mhs)

    def run_both():
        return run("broadcast"), run("update")

    broadcast_wakeups, update_wakeups = run_both()
    print(f"\nwakeups: broadcast={broadcast_wakeups} update={update_wakeups}")
    assert update_wakeups < broadcast_wakeups
