"""``TraceIndex``: verdict parity, walk counts, truncated logs.

Verdict parity, pinned before the rewrite: the digests in ``PARITY`` were
recorded at the parent commit (PR 17),
when each verifier still walked the trace with a loop of its own. The
rewrite over :class:`repro.analysis.trace_index.TraceIndex` must
reproduce them unedited: same violations, same minimality reports, same
orphans, same forensic document, same run statistics, on simulated
runs of three protocols, adversarial explore seeds (one with a
rollback), the shrunk counterexamples of both planted mutations and the
scripted scenarios of the paper's Figs. 1-4.

``python tests/analysis/test_trace_index.py`` prints the table.

The figure cases were re-pinned when checkpoint and message ids stopped
being process-wide counters: a ``ScenarioHarness`` numbers both from 0
now, where it used to continue whatever the process had handed out, so
nine digests of the five figure cases moved (ids show up in verdict
texts and renderings). Every one of the 81 values equals what commit
ebedd78 — the last with the global counters — produces with both
counters started at 0 before each case; at that commit, from the repo
root::

    PYTHONPATH=src:. python -c "
    import json
    from repro.checkpointing.types import restore_checkpoint_ids
    from repro.net.message import restore_message_ids
    from tests.analysis.test_trace_index import CASES
    table = {}
    for name in CASES:
        restore_checkpoint_ids(0); restore_message_ids(0)
        table[name] = CASES[name]()
    print(json.dumps(table, indent=4))"

prints ``PARITY`` exactly as pinned below.

Walk counts: every reader iterates the ``TraceLog`` once, however many
initiations it holds (the parent walked it once or twice per commit).

Truncated logs: a flight-recorder log has evicted its oldest message
records; what they would have decided is left unjudged, never reported
as an orphan or an unjustified checkpoint.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.consistency import find_orphans, latest_permanent_line
from repro.analysis.metrics import committed_stats, per_initiation_stats
from repro.analysis.minimality import check_minimality
from repro.analysis.trace_index import TraceIndex
from repro.campaign.engine import build_point_runtime
from repro.campaign.spec import RunPoint
from repro.explore import (
    ExploreSpec,
    check_invariants,
    replay_counterexample,
    run_explore_once,
    run_explore_point,
)
from repro.obs.forensics import build_forensics
from repro.scenarios import figures
from repro.scenarios.harness import ScenarioHarness
from repro.sim.trace import TraceLog


def _sha(document) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()
    ).hexdigest()


def _digests(trace, line, result=None) -> dict:
    report = build_forensics(trace)
    out = {
        "invariants": _sha([v.to_dict() for v in check_invariants(trace)]),
        "minimality": _sha([str(r) for r in check_minimality(trace)]),
        "orphans": _sha([str(o) for o in find_orphans(trace, line)]),
        "forensics": _sha(report.to_json()),
        # what `repro-sim inspect` prints: narrative, per-wave chains
        # (happened-before verified), Mermaid and DOT
        "renderings": _sha(
            [report.narrative()]
            + [
                [report.wave_narrative(i), report.to_mermaid(i), report.to_dot(i)]
                for i in range(len(report.waves))
            ]
        ),
        "stats": _sha(
            [s.to_dict() for s in per_initiation_stats(trace).values()]
        ),
    }
    if result is not None:
        out["result"] = _sha(result.to_dict())
    return out


def _line(system):
    return latest_permanent_line(system.all_stable_storages(), system.processes)


def _simulated(protocol: str, n: int, seed: int, initiations: int) -> dict:
    system, _, runner = build_point_runtime(RunPoint(
        protocol=protocol, workload="p2p",
        workload_params={"mean_send_interval": 15.0},
        system_params={"n_processes": n, "trace_messages": True},
        run_params={"max_initiations": initiations, "warmup_initiations": 1},
        seed=seed,
    ))
    result = runner.run(max_events=10_000_000)
    return _digests(system.sim.trace, _line(system), result)


def _explored(seed_index: int) -> dict:
    run = run_explore_once(ExploreSpec(name="quick").expand()[seed_index])
    return _digests(run.trace, _line(run.system))


def _counterexample(mutation: str, seed_index: int) -> dict:
    point = ExploreSpec(name="quick", mutation=mutation).expand()[seed_index]
    found = run_explore_point(point)
    run = replay_counterexample(found["counterexample"])
    assert run.violations, "the planted mutation must still be caught"
    return _digests(run.trace, _line(run.system))


def _figure(name: str) -> dict:
    made = []
    original = ScenarioHarness.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    ScenarioHarness.__init__ = recording_init
    try:
        getattr(figures, name)()
    finally:
        ScenarioHarness.__init__ = original
    harness = made[-1]
    return _digests(harness.trace, harness.recovery_line())


CASES = {
    "mutable-16p": lambda: _simulated("mutable", 16, 7, 6),
    "koo-toueg-8p": lambda: _simulated("koo-toueg", 8, 42, 4),
    "elnozahy-8p": lambda: _simulated("elnozahy", 8, 42, 4),
    # fail_mid_coordination + disconnect + concurrent initiation: the
    # rollback exercises IncarnationHygiene and the disturbance cut
    "explore-7-rollback": lambda: _explored(7),
    "explore-8-handoffs": lambda: _explored(8),
    "explore-19-handoff-disconnect": lambda: _explored(19),
    "skip-mutable-16-shrunk": lambda: _counterexample("skip-mutable", 16),
    "forget-sent-7-shrunk": lambda: _counterexample("forget-sent", 7),
    "figure1": lambda: _figure("figure1"),
    "figure2": lambda: _figure("figure2"),
    "figure2-mutable": lambda: _figure("figure2_with_mutable"),
    "figure3": lambda: _figure("figure3"),
    "figure4": lambda: _figure("figure4"),
}

#: recorded at the parent commit (figure cases: with both id counters at
#: 0, see the module docstring); a change must pass them unedited
PARITY = {
    "mutable-16p": {
        "invariants":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "minimality":
            "dc54409803d6f3fd6088309c58b98b100a10c6963a345e5580919db5bd16bf34",
        "orphans":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "forensics":
            "60e476ecfed4652701138b94138febb08b1f9c1c5e9bc60cd3427a36a12d04ef",
        "renderings":
            "fa1038ea4a1f5a438799ffe515033cd3b00e041a6ed1654d70196811e72ba4c9",
        "stats":
            "415eb4f79ebdbcbfbdd8cf7e94e7c96ec23873e358159b181a55f94452ee898e",
        "result":
            "a44edb984fc2073e1955d66e26d2ad68a6d0c59b9a085fc56acaaa92faefd206",
    },
    "koo-toueg-8p": {
        "invariants":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "minimality":
            "3a3d9b4a0ce3973cb7e27bc83ba843be29508b1b4a7194895adcb431bd68161e",
        "orphans":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "forensics":
            "c3a28a2801164b504c78f99233a59d7ef52324f44d7a75d0732690f621795d51",
        "renderings":
            "9291594aa2fa10f82d6c4331ca3fcf2a39dc694ee97ae3a8bf90f750a0f5f69d",
        "stats":
            "8ba35af87ff7df631c2f0102630a77119c5a695464c4718b74714631f814209e",
        "result":
            "fd6ddb955362e91e4aac87e163266c8aa47d66bd2943f68601ba9ee4004aad93",
    },
    "elnozahy-8p": {
        "invariants":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "minimality":
            "b322a3feed24d3498cd51a5614ba2ce8a0fd5fee33fbeb5281d4ebff68638461",
        "orphans":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "forensics":
            "0e79ba763e3b862932ac59757381940a2fc0cf5facada53c1c13009f5f8302fc",
        "renderings":
            "ae89a4c352c26c481c963ba026fe194d9c6e1db2df2954e15fb9028448abe88e",
        "stats":
            "9771a342de5fdbb8c87207ac81b1ba0ace2230b378742b64d760676d790634f0",
        "result":
            "4ce6f880f6fea545daedc354169187f00076cbd4481f53eb34a782e2bc1bc592",
    },
    "explore-7-rollback": {
        "invariants":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "minimality":
            "b752b5adc2cfa6afa03048ec2daa73134f2de629e551fcbfe3e8d1c4ca355350",
        "orphans":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "forensics":
            "aa65b087933b0dedfaf1714c0c550dd4e9503808af3b93d4b66010b0aa054af3",
        "renderings":
            "582c2d59a8b2071b619459c4d57b4a3f8f0011004da160f4e2c228db860b64b8",
        "stats":
            "bfb27eb5fb77ff781cf499f3088f2cf381fe33e9a05b85bd328cc7d8c2ada752",
    },
    "explore-8-handoffs": {
        "invariants":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "minimality":
            "e5bd0e8acd6a3f110c39808934db70d36542e5862a055a286a389e38d252eedc",
        "orphans":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "forensics":
            "af3fe3bdd890ca1379e56ac06d138ab9b0251e571702b4e396420121ce7adcd9",
        "renderings":
            "3ef51b7403dfae6ed267af9be1bd70fe90f474a6ec4ef12b931ed456d3fc2adc",
        "stats":
            "091488342eb5fdd8c0d9caa87407e9e5c2bf6896dfd2392d4d530846ba4e1b64",
    },
    "explore-19-handoff-disconnect": {
        "invariants":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "minimality":
            "cfa36b89a708eae0c068ddd3b8daaf9734fb92320430742206177ee71222a3e9",
        "orphans":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "forensics":
            "3ab6e47bdf2cbae5a7ffb04f66583262d508867a5b1d3ed91ca9ecdbfa3cab51",
        "renderings":
            "6acfa65a4bc7585a9268c0ef0f7367dc2e9f2f1648b112433dad7b5ef949fc64",
        "stats":
            "14a8053b62f45df7cbfacb2d3bf453f0bcc19d2c13269da364b2685143084a1d",
    },
    "skip-mutable-16-shrunk": {
        "invariants":
            "fc5c8c10e39dce23c1e5bc89cf2959b2cd80639f2f4656592136ea8ff767777d",
        "minimality":
            "254533434bac6028dd3cf77d97a72295642abc201cf5c4286efd477d6e92d853",
        "orphans":
            "7421f5ac3a413ff6d6415d98cc9dc5d78a86a459330503966465b10ffe6ad5e5",
        "forensics":
            "3a7c06269f62fdcab07f88bd7c2104f563b89028380f4a414ed8db75585bc322",
        "renderings":
            "a533cfb07952c48ce20ecdcf075131d58f1d3735f31b3044cdd1029ef3e31b44",
        "stats":
            "85047b97a8cdca5be36f7d10bbd38af08100a5ab8cea5cdb00e2e4e5cc1fe466",
    },
    "forget-sent-7-shrunk": {
        "invariants":
            "0831fa84fea03ab413c0986ec51cbfee0365fe91439b73e904c9281e5bbaf287",
        "minimality":
            "2335c83a22fe4f29501d3ef2ae12865c81cfd1e49aee783ae184c3caa5c89196",
        "orphans":
            "9fec14c463d1ba5d1a941ff16044bf0438028286f48b1a1e8af1a566f8526f5b",
        "forensics":
            "452f068f34c17c0807bbad1b4a655c6fc3ea41c6a704853a9215b56dcb30a778",
        "renderings":
            "95f4263b11b103730aa27f57fe063c14c49da2ffba16cc4fe4e1796eceee2fec",
        "stats":
            "0a1a7bc83d1e1cbfc67af3374bb647aeb85d53fc502b87af861ce1e3849e8aa8",
    },
    "figure1": {
        "invariants":
            "298336a118167e059b502622baf4c6f4666ee458861efdc01628d316986ea3e5",
        "minimality":
            "83f02437c5031181a951f3d249a90e6383a22c6cccd9535c9d13667326d90020",
        "orphans":
            "19137677e5e1350d455763aa62254cdfcc5de950bf8f07d5ffb5364ce212471f",
        "forensics":
            "978da5e01dc627ae7f40b5b65f9a4b8dac6724aa0d9803d0ceb8c303542b13e6",
        "renderings":
            "19a6355f575655cd79ad66de62764d6ea953eea08e7e096d93390d3edc92f50a",
        "stats":
            "ae13dd95894eb37598529ae243da539c15cce68b90f58f054c6da87826474a4e",
    },
    "figure2": {
        "invariants":
            "47a92be6bc080609d55da8a626a6d0fccb31e626b338cc68df03a13b8e5ce691",
        "minimality":
            "e4b0ddd9cda13b84ae984a0f785e85a6e74ffd0f3342f0658be958f0376f4d92",
        "orphans":
            "2f6795dac9c0b84431b69f42b5d0907e5d78214ff3e989364e4b95877794f66e",
        "forensics":
            "2034dded530f5a797e0daa4648fa596c81682720570c60b57ae6efa5dfa482e4",
        "renderings":
            "7f9acaec0060e6eaae08bb3234b9c758709d7233ac6cc5b200dba05581dfdfb3",
        "stats":
            "6628f9472a0661efc4fdad2e755380fd561780d6094bac6d6d923bf6e29dde59",
    },
    "figure2-mutable": {
        "invariants":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "minimality":
            "6676e6799b1778fbdf15b277e16126e437d317b8785b6eb897c65cb1d867f17c",
        "orphans":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "forensics":
            "76d7ae3daa6db2cbffad272524a4640571cf65feb1a6533fdd02c260fc316172",
        "renderings":
            "76f5a536d86c34618300591351c11646b529ee9087a9e0c63404efe5c771dbda",
        "stats":
            "79af81aed6841db4447b3ba86c5e34d69b1c7eb67706889887121b8bf4013621",
    },
    "figure3": {
        "invariants":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "minimality":
            "cc51fac6ee2bc98d07b8a14a063e77a73f7ee04fedc45e3363b7e94955ff7885",
        "orphans":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "forensics":
            "68f6607ecd1fdec84c940a721c49c9953546d0956d1251aaad8e93d2edc8a95a",
        "renderings":
            "8b34b2fe916ddfc2f0b8ee12348491f5a61f1b4ca87253b378b9287b835726ec",
        "stats":
            "74ea7316d736c0089d9bfb018a95b09bd8e4452b755c99fafedc6b6bba74acd2",
    },
    "figure4": {
        "invariants":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "minimality":
            "22848f16d4493abb696397bc7121211fb2e7f8adfac098b1458b909a1e9bf7d6",
        "orphans":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "forensics":
            "9bcade637fd9a8d4509235ee519321d453488bd6bcad2e7d7b69bc5ebe9b44f8",
        "renderings":
            "37ecb7e1fd1c74d9cc821301d3e662c0a235b43c04e6383d86d548b7e68cfec0",
        "stats":
            "7fa639e93131d6f1557884e529cb9db9223131f0a1ab62897d47af6a66e057ec",
    },
}


@pytest.mark.parametrize("name", CASES)
def test_verdicts_match_the_parent(name):
    assert CASES[name]() == PARITY[name]


# -- walk counts -----------------------------------------------------------


class CountingLog(TraceLog):
    """A TraceLog that counts how often it is iterated."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _debug_trace(point: RunPoint) -> TraceLog:
    system, _, runner = build_point_runtime(point)
    runner.run(max_events=10_000_000)
    return system.sim.trace


def _walks_per_reader(commits: int) -> dict:
    trace = _debug_trace(RunPoint(
        protocol="mutable", workload="p2p",
        workload_params={"mean_send_interval": 15.0},
        system_params={"n_processes": 8, "trace_messages": True},
        run_params={"max_initiations": commits, "warmup_initiations": 1},
        seed=11,
    ))
    log = CountingLog()
    for record in trace:
        log.record(record.time, record.kind, **record.fields)
    assert len(TraceIndex(log).commits()) == commits
    walks = {}
    for reader in (
        check_invariants, check_minimality, build_forensics, committed_stats
    ):
        log.walks = 0
        reader(log)
        walks[reader.__name__] = log.walks
    return walks


def test_walk_counts_do_not_grow_with_commits():
    few, many = _walks_per_reader(3), _walks_per_reader(8)
    assert few == many  # parent: 18 / 28, 7 / 17, 11 / 21, 1 / 1
    assert many["check_invariants"] <= 3
    assert many["check_minimality"] <= 2
    assert many["build_forensics"] <= 5
    assert many["committed_stats"] == 1


def test_run_statistics_do_not_pair_messages():
    """``_collect`` runs on every run, DEBUG-traced ones included: it
    fills the wave table and nothing else."""
    index = TraceIndex(_debug_trace(_flight_point(None)))
    assert committed_stats(index)
    assert "waves" in vars(index)
    assert "messages" not in vars(index) and "captures" not in vars(index)


# -- truncated logs ----------------------------------------------------------


def _flight_point(capacity):
    return RunPoint(
        protocol="mutable", workload="p2p",
        workload_params={"mean_send_interval": 2.0},
        system_params={
            "n_processes": 8, "trace_messages": True,
            "trace_debug_capacity": capacity,
        },
        run_params={"max_initiations": 3, "warmup_initiations": 1},
        seed=11,
    )


def test_truncated_live_log_yields_no_false_verdict():
    """Parent: 1 false orphan and 2 false "no dependency basis"."""
    trace = _debug_trace(_flight_point(400))
    assert trace.debug_evicted > 10_000
    assert check_invariants(trace) == []
    assert not any(report.unjustified for report in check_minimality(trace))
    # control: the same run with nothing evicted is clean, and judged
    full = _debug_trace(_flight_point(None))
    assert check_invariants(full) == []
    assert all(report.judged for report in check_minimality(full))


def test_run_verify_with_a_flight_recorder_exits_0(capsys):
    """Parent: InconsistentCheckpointError traceback on a consistent run."""
    from repro.cli import main

    code = main(
        "run --protocol mutable --processes 8 --rate 0.5 --initiations 3 "
        "--seed 11 --flight-recorder 400 --verify".split()
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "recovery line           : consistent (" in out
    assert "retained window" in out and "evicted" in out


def test_time_travel_does_not_call_an_unjudged_wave_a_bug(tmp_path, capsys):
    """Parent: "UNJUSTIFIED participants [...] (protocol bug?)" for the
    waves whose messages predate the replayed window."""
    from repro.cli import main
    from repro.snapshot import replay_window

    snaps = str(tmp_path / "snaps")
    assert main(
        "run --protocol mutable --processes 8 --rate 0.5 --initiations 3 "
        "--seed 11 --flight-recorder 400 --snapshot-every 20000 "
        f"--snapshot-dir {snaps}".split()
    ) == 0
    capsys.readouterr()
    replayed = replay_window(snaps)
    assert replayed.trace.debug_evicted > 0  # survives the ring's release
    narrative = build_forensics(replayed.trace).narrative()
    assert "protocol bug" not in narrative
    assert "not judged: message records evicted" in narrative
    assert "forced set == justified closure" in narrative
    assert "truncated trace" in narrative


def _bounded_log_with_a_planted_orphan(capacity):
    """p0 -> p1 twice: m5's send is evicted from a bounded ring while its
    receive is retained; m9 is sent after p0's line checkpoint and
    received before p1's — an orphan with both records retained."""
    log = TraceLog(debug_capacity=capacity)
    log.record(0.0, "permanent", pid=0, trigger=None, ckpt_id=1)
    log.record(0.0, "permanent", pid=1, trigger=None, ckpt_id=2)
    log.debug(1.0, "comp_send", src=0, dst=1, msg_id=5)
    log.debug(1.1, "comp_send", src=1, dst=0, msg_id=6)  # never delivered
    log.record(2.0, "permanent", pid=0, trigger=None, ckpt_id=3)
    log.debug(3.0, "comp_recv", src=0, dst=1, msg_id=5)
    log.debug(4.0, "comp_send", src=0, dst=1, msg_id=9)
    log.debug(5.0, "comp_recv", src=0, dst=1, msg_id=9)
    log.record(6.0, "permanent", pid=1, trigger=None, ckpt_id=4)
    return log


def test_an_orphan_inside_the_retained_window_is_still_reported():
    from repro.analysis.offline import verify_archived_trace

    truncated = _bounded_log_with_a_planted_orphan(3)
    assert truncated.debug_evicted == 2  # m5's and m6's sends
    assert [o.msg_id for o in verify_archived_trace(truncated).orphans] == [9]
    assert TraceIndex(truncated).first_message == 3
    # control: nothing evicted, m5's send is inside p0's checkpoint
    complete = _bounded_log_with_a_planted_orphan(None)
    assert [o.msg_id for o in verify_archived_trace(complete).orphans] == [9]


def test_a_receive_with_no_send_is_an_orphan_on_a_complete_log():
    from repro.analysis.offline import verify_archived_trace

    complete = TraceLog()
    for record in _bounded_log_with_a_planted_orphan(3):
        complete.record(record.time, record.kind, **record.fields)
    assert complete.debug_evicted == 0
    orphans = verify_archived_trace(complete).orphans
    assert [(o.msg_id, o.send_position) for o in orphans] == [(5, None), (9, 4)]


if __name__ == "__main__":
    print(json.dumps({name: CASES[name]() for name in CASES}, indent=4))
