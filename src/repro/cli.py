"""Command-line interface.

Installed as ``repro-sim``; also runnable as ``python -m repro.cli``.

Subcommands::

    repro-sim protocols                    list available protocols
    repro-sim run --protocol mutable ...   run one experiment
    repro-sim figures                      reproduce Figs. 1-4
    repro-sim table1                       the three-way comparison
    repro-sim campaign --preset fig5 ...   parallel sweep with resume
    repro-sim explore --seeds 100 ...      adversarial schedule fuzzing
    repro-sim profile ...                  kernel profile of one run
    repro-sim inspect trace.jsonl ...      causal wave forensics on a trace
    repro-sim snapshots snaps/ ...         inspect simulator snapshots
    repro-sim serve --data-dir data ...    always-on campaign service (HTTP)
    repro-sim submit --preset smoke ...    submit a grid to a running service
    repro-sim top --url http://...         live terminal view of the service
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional

from repro.campaign.engine import build_point_runtime, run_preset
from repro.campaign.spec import PRESETS, WORKLOAD_KINDS, RunPoint
from repro.core.registry import available_protocols, build_protocol
from repro.errors import (
    ConfigurationError,
    InconsistentCheckpointError,
    SnapshotError,
    StoreFormatError,
    TraceFormatError,
)
from repro.workload.bursty import BurstyWorkloadConfig


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _explore_preset(name: str) -> str:
    """``explore --preset``: checked here so other commands skip the import."""
    from repro.explore.fuzz import EXPLORE_PRESETS

    if name not in EXPLORE_PRESETS:
        raise argparse.ArgumentTypeError(
            f"unknown preset {name!r} (choose from {', '.join(sorted(EXPLORE_PRESETS))})"
        )
    return name


def _point_flags() -> argparse.ArgumentParser:
    """The flags that describe one run, shared by ``run`` and ``profile``."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--protocol", default="mutable",
                       choices=available_protocols())
    flags.add_argument("--processes", "--hosts", dest="processes",
                       type=int, default=16,
                       help="number of mobile hosts / processes (the "
                       "protocol scales to thousands; see docs/SCALING.md)")
    flags.add_argument("--seed", type=int, default=42)
    flags.add_argument("--cells", type=int, default=1, metavar="M",
                       help="number of cells / support stations "
                       "(SystemConfig.n_mss; default 1, the paper's "
                       "single-LAN model)")
    flags.add_argument("--shards", type=int, default=1, metavar="N",
                       help="assign cells to N shards and report the "
                       "traffic that crosses them; the run itself is the "
                       "--shards 1 run (see docs/SCALING.md)")
    flags.add_argument("--rate", type=_positive_float, default=0.01,
                       help="messages per second per process (bursty: "
                       "the long-run average)")
    flags.add_argument("--initiations", type=int, default=10)
    flags.add_argument("--workload", choices=sorted(WORKLOAD_KINDS),
                       default="p2p")
    flags.add_argument("--group-ratio", type=float, default=1000.0)
    flags.add_argument("--interval", type=float, default=900.0,
                       help="checkpoint interval in seconds")
    return flags


def _point_from_args(args: argparse.Namespace, **system_params: Any) -> RunPoint:
    """The :class:`RunPoint` a ``run`` / ``profile`` command line describes."""
    if args.workload == "bursty":
        # Keep the default ON/OFF duty cycle; scale the in-burst interval
        # so the long-run average comes out at --rate.
        shape = BurstyWorkloadConfig()
        burst = shape.burst_send_interval * shape.average_rate / args.rate
        workload_params = {"burst_send_interval": burst}
    else:
        workload_params = {"mean_send_interval": 1.0 / args.rate}
        if args.workload == "group":
            workload_params["intra_inter_ratio"] = args.group_ratio
    return RunPoint(
        protocol=args.protocol,
        workload=args.workload,
        workload_params=workload_params,
        system_params={
            "n_processes": args.processes,
            "n_mss": args.cells,
            "checkpoint_interval": args.interval,
            "shards": args.shards,
            **system_params,
        },
        run_params={"max_initiations": args.initiations},
        seed=args.seed,
        max_events=None,  # a hand-launched run is unbounded
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Mutable-checkpoints reproduction (Cao & Singhal)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    point_flags = _point_flags()

    sub.add_parser("protocols", help="list available checkpointing protocols")

    run = sub.add_parser("run", parents=[point_flags],
                         help="run one experiment and print the summary")
    run.add_argument("--export-trace", "--trace-out", dest="export_trace",
                     metavar="PATH",
                     help="write the run's trace as JSON lines")
    run.add_argument("--verify", action="store_true",
                     help="check the final recovery line for consistency")
    run.add_argument("--flight-recorder", type=int, metavar="N", default=None,
                     help="flight-recorder tracing: keep only the most "
                     "recent N DEBUG records in memory (implies message "
                     "tracing; --export-trace still archives every record "
                     "via the streaming sink)")
    run.add_argument("--snapshot-every", type=int, metavar="N", default=None,
                     help="snapshot the whole simulation every N events")
    run.add_argument("--snapshot-interval", type=float, metavar="S",
                     default=None,
                     help="snapshot every S simulated seconds")
    run.add_argument("--snapshot-dir", metavar="DIR", default="snapshots",
                     help="where .rsnap files go (default: snapshots/)")
    run.add_argument("--snapshot-keep", type=int, metavar="K", default=None,
                     help="keep only the newest K snapshots (default: all)")
    run.add_argument("--resume-from", metavar="PATH", default=None,
                     help="resume from a .rsnap file (or the latest one in "
                     "a directory) instead of starting fresh; the snapshot "
                     "carries the full configuration, so the other run "
                     "flags are ignored")
    run.add_argument("--timeseries-window", type=float, metavar="S",
                     default=None,
                     help="sample windowed telemetry every S simulated "
                     "seconds (deterministic; trace hashes are unchanged)")
    run.add_argument("--timeseries-out", metavar="PATH", default=None,
                     help="write the windowed telemetry (JSON lines, or "
                     "TSV if PATH ends in .tsv; needs --timeseries-window)")
    run.add_argument("--metrics-out", metavar="PATH", default=None,
                     help="dump the final metrics registry snapshot as "
                     "canonical JSON (sorted keys)")

    sub.add_parser("figures", help="reproduce the paper's Figs. 1-4")
    sub.add_parser("table1", help="run the three-way Table 1 comparison")

    report = sub.add_parser(
        "report", help="regenerate the full paper-vs-measured report"
    )
    report.add_argument("--output", default="report.md")
    report.add_argument("--scale", choices=["quick", "default", "full"],
                        default="default")

    verify = sub.add_parser(
        "verify-trace", help="re-verify an archived trace (JSON lines)"
    )
    verify.add_argument("path")

    campaign = sub.add_parser(
        "campaign",
        help="run a sweep of experiments on a worker pool, with a "
        "durable result store and crash resume",
    )
    source = campaign.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", metavar="PATH",
                        help="campaign spec as a JSON file")
    source.add_argument("--preset", choices=sorted(PRESETS),
                        help="a built-in campaign")
    campaign.add_argument("--store", metavar="PATH",
                          help="JSONL result store (default: "
                          "campaign-<name>.jsonl; completed points in it "
                          "are skipped)")
    campaign.add_argument("--no-store", action="store_true",
                          help="keep results in memory only")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes (results are identical "
                          "for any worker count)")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress per-point progress lines")
    campaign.add_argument("--list", action="store_true",
                          help="print the expanded points and exit")
    campaign.add_argument("--trace-out", metavar="DIR",
                          help="save every executed point's full trace as "
                          "DIR/<point_hash>.jsonl")
    campaign.add_argument("--snapshot-dir", metavar="DIR",
                          help="snapshot in-progress points under "
                          "DIR/<point_hash>/, at most once per 10 s of wall "
                          "time (a shorter point writes none); a killed "
                          "campaign resumes them mid-run instead of "
                          "restarting")

    explore = sub.add_parser(
        "explore",
        help="adversarial schedule exploration: seeded fuzz batches with "
        "invariant checking and counterexample shrinking",
    )
    explore.add_argument("--preset", type=_explore_preset,
                         default="quick", help="a built-in explore batch")
    explore.add_argument("--seeds", type=int, default=None,
                         help="number of seeds (overrides the preset)")
    explore.add_argument("--seed", type=int, default=None,
                         help="master seed (overrides the preset)")
    explore.add_argument("--mutation", metavar="NAME",
                         help="plant a protocol mutation (self-test mode); "
                         "see repro.explore.mutations")
    explore.add_argument("--no-shrink", action="store_true",
                         help="report violations without minimizing them")
    explore.add_argument("--workers", type=int, default=1,
                         help="worker processes (verdicts are identical "
                         "for any worker count)")
    explore.add_argument("--store", metavar="PATH",
                         help="JSONL result store (default: in-memory; "
                         "completed seeds in it are skipped)")
    explore.add_argument("--out", metavar="DIR", default="explore-out",
                         help="where violation counterexamples and their "
                         "replayed traces are written")
    explore.add_argument("--quiet", action="store_true",
                         help="suppress per-seed progress lines")

    profile = sub.add_parser(
        "profile",
        parents=[point_flags],
        help="run one experiment under the kernel profiler and print "
        "per-event-kind timing, heap stats, and the metrics snapshot",
    )
    profile.add_argument("--trace-messages", action="store_true",
                         help="profile with DEBUG message tracing on "
                         "(default: off, the throughput configuration)")
    profile.add_argument("--top", type=int, default=15,
                         help="event kinds to show (by total time)")
    profile.add_argument("--json", metavar="PATH",
                         help="also dump profile + metrics as JSON")
    profile.add_argument("--flamegraph", metavar="PATH",
                         help="also write the event timings in collapsed-"
                         "stack format (flamegraph.pl / speedscope input)")

    inspect = sub.add_parser(
        "inspect",
        help="causal wave forensics on an exported trace: per-wave "
        "reports, causal chains back to the initiator, Mermaid/DOT "
        "diagrams",
    )
    inspect.add_argument("path", nargs="?", default=None,
                         help="trace file (JSON lines, e.g. from "
                         "run --export-trace); optional with "
                         "--from-snapshot")
    inspect.add_argument("--wave", type=int, metavar="N", default=None,
                         help="restrict to one wave (0-based index)")
    inspect.add_argument("--explain", type=int, metavar="PID", default=None,
                         help="print the causal chain explaining why PID "
                         "checkpointed")
    inspect.add_argument("--processes", type=int, default=None,
                         help="process count (default: inferred from the "
                         "trace)")
    inspect.add_argument("--from-snapshot", metavar="DIR", default=None,
                         help="time-travel: instead of trusting the trace "
                         "file (which a flight recorder may have truncated), "
                         "resume the nearest .rsnap in DIR and regenerate "
                         "the records at full DEBUG fidelity, then inspect "
                         "the replayed trace")
    inspect.add_argument("--window-start", type=float, metavar="T",
                         default=None,
                         help="sim time the window of interest starts at; "
                         "picks the nearest snapshot at or before T "
                         "(default: the earliest snapshot)")
    fmt = inspect.add_mutually_exclusive_group()
    fmt.add_argument("--mermaid", action="store_true",
                     help="emit a Mermaid sequence diagram (needs --wave)")
    fmt.add_argument("--dot", action="store_true",
                     help="emit a Graphviz digraph (needs --wave)")
    fmt.add_argument("--json", dest="as_json", action="store_true",
                     help="emit the full report as JSON")

    serve = sub.add_parser(
        "serve",
        help="run the always-on campaign service: an HTTP front end over "
        "a durable SQLite result store with a global dedup cache, async "
        "job queue, and crash-durable jobs",
    )
    serve.add_argument("--data-dir", metavar="DIR", default="service-data",
                       help="where results.sqlite and point snapshots live "
                       "(default: service-data/)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (default: 8765; 0 picks a free one)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes shared across jobs")
    serve.add_argument("--import", dest="import_jsonl", metavar="PATH",
                       action="append", default=[],
                       help="seed the cache from a JSONL campaign store "
                       "before serving (repeatable)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    submit = sub.add_parser(
        "submit",
        help="submit a grid to a running campaign service and (by "
        "default) wait for the results",
    )
    what = submit.add_mutually_exclusive_group(required=True)
    what.add_argument("--preset", choices=sorted(PRESETS),
                      help="a built-in campaign")
    what.add_argument("--spec", metavar="PATH",
                      help="campaign spec as a JSON file")
    submit.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service base URL (default: "
                        "http://127.0.0.1:8765)")
    submit.add_argument("--name", default=None,
                        help="job name shown in listings (default: the "
                        "spec name)")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and return immediately")
    submit.add_argument("--timeout", type=float, default=None,
                        help="give up waiting after this many seconds")
    submit.add_argument("--tolerate-outages", action="store_true",
                        help="keep polling through service restarts "
                        "(crash-durable jobs finish on their own)")
    submit.add_argument("--results-json", metavar="PATH", default=None,
                        help="write the job's canonical results document "
                        "(sorted-key JSON, byte-stable across identical "
                        "resubmissions) to PATH")
    submit.add_argument("--quiet", action="store_true",
                        help="suppress per-point result lines")

    top = sub.add_parser(
        "top",
        help="live terminal view of a running campaign service: jobs, "
        "rates, and per-job activity sparklines, refreshed in place",
    )
    top.add_argument("--url", default="http://127.0.0.1:8765",
                     help="service base URL (default: "
                     "http://127.0.0.1:8765)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes (default: 2)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (no ANSI "
                     "clearing; what CI's metrics-smoke job uses)")

    snapshots = sub.add_parser(
        "snapshots",
        help="inspect simulator snapshots: list a directory, show one "
        "snapshot's header and protocol state, verify integrity",
    )
    snapshots.add_argument("target",
                           help="a .rsnap file or a directory of them")
    snapshots.add_argument("--show", action="store_true",
                           help="also print each snapshot's full header "
                           "and, for a single file, the per-process "
                           "protocol state")
    snapshots.add_argument("--verify", action="store_true",
                           help="read each payload, check its hash, and "
                           "test that it restores to a live simulation")
    return parser


def _check_workers(args: argparse.Namespace) -> None:
    if args.workers < 1:
        raise ConfigurationError("--workers must be at least 1")


def _cmd_explore(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.campaign.store import ResultStore
    from repro.explore import (
        explore_preset,
        replay_counterexample,
        run_explore_batch,
    )
    from repro.sim.export import save_trace

    spec = explore_preset(args.preset)
    overrides = {}
    if args.seeds is not None:
        overrides["n_seeds"] = args.seeds
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.mutation is not None:
        overrides["mutation"] = args.mutation
    if args.no_shrink:
        overrides["shrink"] = False
    if overrides:
        spec = type(spec).from_dict({**spec.to_dict(), **overrides})
    _check_workers(args)

    store = ResultStore(args.store)
    with store:
        report = run_explore_batch(
            spec, store=store, workers=args.workers, quiet=args.quiet
        )

    for record in report.failed:
        print(f"{record.point_hash}  CRASHED: {record.error}")
    for point, result in report.violations:
        names = sorted({v["invariant"] for v in result["violations"]})
        line = (
            f"seed {result['seed_index']:4d}  VIOLATION  {', '.join(names)}"
        )
        counterexample = result.get("counterexample")
        if counterexample is not None:
            os.makedirs(args.out, exist_ok=True)
            stem = os.path.join(
                args.out, f"counterexample-seed{result['seed_index']}"
            )
            with open(f"{stem}.json", "w", encoding="utf-8") as fh:
                json.dump(counterexample, fh, indent=2, sort_keys=True)
            replayed = replay_counterexample(counterexample)
            save_trace(replayed.trace, f"{stem}.trace.jsonl")
            # Forensic narrative: what the waves looked like causally
            # at the violation, next to the machine-readable artifacts.
            from repro.obs.forensics import build_forensics

            with open(f"{stem}.narrative.txt", "w", encoding="utf-8") as fh:
                fh.write(build_forensics(replayed.trace).narrative())
            line += (
                f"  shrunk {counterexample['original_decisions']}->"
                f"{counterexample['shrunk_decisions']} perturbations, "
                f"{counterexample['original_injections']}->"
                f"{counterexample['shrunk_injections']} injections "
                f"-> {stem}.json"
            )
        print(line)
    print(report.summary())
    return 0 if report.clean else 1


def _print_rows(rows: List[dict]) -> None:
    """One line per campaign point: identity, then the paper's numbers."""
    for row in rows:
        ident = f"{row['hash']}  {row['label']:40s}"
        if row["status"] == "ok":
            metrics = "  ".join(
                f"{key}={row[key]}"
                for key in ("tentative_mean", "redundant_mutable_mean",
                            "redundant_ratio", "duration_s", "initiations")
            )
            print(f"{ident} {metrics}")
        else:
            print(f"{ident} FAILED: {row['error']}")


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignEngine, CampaignSpec, ResultStore, preset_spec

    try:
        if args.spec:
            spec = CampaignSpec.from_json_file(args.spec)
        else:
            spec = preset_spec(args.preset)
        points = spec.expand()
    except (ValueError, KeyError) as exc:
        # a spec file that is not JSON, or JSON of the wrong shape
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _check_workers(args)

    if args.list:
        for point in points:
            print(f"{point.point_hash}  {point.label()}")
        return 0

    store_path = None if args.no_store else (
        args.store or f"campaign-{spec.name}.jsonl"
    )
    executor = None
    if args.trace_out or args.snapshot_dir:
        import functools

        from repro.campaign.engine import execute_point

        executor = functools.partial(
            execute_point,
            trace_dir=args.trace_out,
            snapshot_dir=args.snapshot_dir,
        )
    with ResultStore(store_path) as store:
        engine = CampaignEngine(
            spec, store=store, workers=args.workers, quiet=args.quiet,
            executor=executor,
        )
        report = engine.run()

    _print_rows(report.rows())
    print(
        f"campaign {report.name}: {report.total} points "
        f"({report.executed} run, {report.skipped} resumed, "
        f"{len(report.failed)} failed) in {report.wall_time:.2f}s"
        + (f" -> {store_path}" if store_path else "")
    )
    return 0 if report.ok else 1


def _cmd_protocols() -> int:
    for name in available_protocols():
        protocol = build_protocol(name)
        flags = []
        flags.append("blocking" if protocol.blocking else "nonblocking")
        flags.append("distributed" if protocol.distributed else "centralized")
        print(f"{name:16s} {', '.join(flags)}")
    return 0


def _write_run_artifacts(args: argparse.Namespace, result: Any) -> None:
    """Write ``run``'s optional --metrics-out / --timeseries-out files."""
    import json

    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(result.metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"metrics written         : {args.metrics_out}")
    if args.timeseries_out:
        from repro.obs.timeseries import save_timeseries

        save_timeseries(result.timeseries, args.timeseries_out)
        rows = len(result.timeseries.get("rows", []))
        print(
            f"timeseries written      : {rows} windows "
            f"-> {args.timeseries_out}"
        )


def _print_run_report(
    args: argparse.Namespace,
    system: Any,
    result: Any,
    snapshotter: Any = None,
    sink: Any = None,
) -> None:
    """The summary a finished ``run`` prints, fresh or resumed."""
    print(f"protocol                : {result.protocol}")
    print(f"initiations (measured)  : {result.n_initiations}")
    print(f"tentative / initiation  : {result.tentative_summary()}")
    print(f"redundant mutable       : {result.redundant_mutable_summary()}")
    print(f"checkpointing time      : {result.duration_summary()} s")
    print(f"blocked process-seconds : {result.total_blocked_time:.1f}")
    print(f"system messages         : {result.counters.get('system_messages', 0):.0f}")
    if result.shard_stats:
        stats = result.shard_stats
        print(
            f"shards                  : {stats['shards']} "
            f"({stats.get('effective_shards', stats['shards'])} effective, "
            f"{stats['envelopes']} envelopes, "
            f"{stats['lookahead_violations']} lookahead violations at "
            f"{stats['lookahead'] * 1e3:g} ms)"
        )
    trace = system.sim.trace
    if trace.debug_capacity is not None:
        print(
            f"flight recorder         : {trace.debug_held} DEBUG records "
            f"held (cap {trace.debug_capacity}), "
            f"{trace.debug_evicted} evicted"
        )
    if args.verify:
        from repro.analysis.consistency import (
            assert_line_consistent,
            latest_permanent_line,
        )

        line = latest_permanent_line(system.all_stable_storages(), system.processes)
        assert_line_consistent(trace, line)
        coverage = (
            f" (channel counts in full; orphan scan on the retained window "
            f"only, {trace.debug_evicted} message records evicted)"
            if trace.debug_evicted else ""
        )
        print(f"recovery line           : consistent{coverage}")
    if sink is not None:
        sink.close()
        print(
            f"trace exported          : {sink.records_written} records "
            f"-> {args.export_trace} (streamed, full fidelity)"
        )
    elif args.export_trace:
        from repro.sim.export import save_trace

        count = save_trace(trace, args.export_trace)
        print(f"trace exported          : {count} records -> {args.export_trace}")
    if snapshotter is not None:
        print(
            f"snapshots written       : {len(snapshotter.taken)} "
            f"-> {snapshotter.directory}/"
        )
    _write_run_artifacts(args, result)


def _cmd_run_resume(args: argparse.Namespace) -> int:
    import os

    from repro.snapshot import SnapshotStore, read_meta, resume_run

    path = args.resume_from
    if os.path.isdir(path):
        latest = SnapshotStore(path).latest()
        if latest is None:
            print(f"error: no snapshots in {path}", file=sys.stderr)
            return 2
        path = latest.path
    meta = read_meta(path)
    image = resume_run(path)
    print(
        f"resumed from            : {path} "
        f"(event {meta.events_processed}, t={meta.sim_time:.1f}s)"
    )
    result = image.runner.resume()
    _print_run_report(args, image.system, result, image.snapshotter)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.resume_from:
        return _cmd_run_resume(args)
    if args.timeseries_out and args.timeseries_window is None:
        print("error: --timeseries-out needs --timeseries-window",
              file=sys.stderr)
        return 2
    point = _point_from_args(
        args,
        trace_messages=bool(args.verify or args.export_trace),
        trace_debug_capacity=args.flight_recorder,
        timeseries_window=args.timeseries_window,
    )
    system, _, runner = build_point_runtime(point)
    sink = None
    if args.export_trace and args.flight_recorder is not None:
        # A bounded ring would lose early DEBUG records from an offline
        # dump, so stream every record to disk as it is recorded
        # (backfilling what system setup already traced).
        from repro.sim.export import JsonlTraceSink

        sink = JsonlTraceSink(args.export_trace)
        for record in system.sim.trace:
            sink(record)
        sink.attach(system.sim.trace)
    snapshotter = None
    if args.snapshot_every is not None or args.snapshot_interval is not None:
        from repro.snapshot import SnapshotPolicy, Snapshotter

        snapshotter = Snapshotter(
            runner,
            SnapshotPolicy(
                every_events=args.snapshot_every,
                every_sim_seconds=args.snapshot_interval,
                keep=args.snapshot_keep,
            ),
            args.snapshot_dir,
        )
        snapshotter.install()
    result = runner.run(max_events=point.max_events)
    _print_run_report(args, system, result, snapshotter, sink)
    return 0


def _cmd_snapshots(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.snapshot import (
        SnapshotStore,
        read_meta,
        read_snapshot,
        restore,
    )

    def verify(path: str) -> str:
        try:
            _, payload = read_snapshot(path)  # magic/version/sha256 checks
            restore(payload)
        except SnapshotError as exc:
            return f"BAD ({exc})"
        return "ok (payload hash verified, restores)"

    if os.path.isdir(args.target):
        infos = SnapshotStore(args.target).list()
        if not infos:
            print(f"no snapshots in {args.target}")
            return 1
        for info in infos:
            meta = info.meta
            line = (
                f"{os.path.basename(info.path):32s} seq={meta.seq:<4d} "
                f"ev={meta.events_processed:<9d} t={meta.sim_time:<10.2f} "
                f"{meta.protocol} n={meta.n_processes} seed={meta.seed} "
                f"[{meta.reason}]"
            )
            if args.verify:
                line += f"  {verify(info.path)}"
            print(line)
            if args.show:
                print(json.dumps(meta.to_dict(), indent=2, sort_keys=True))
        return 0

    meta = read_meta(args.target)
    print(json.dumps(meta.to_dict(), indent=2, sort_keys=True))
    if args.verify:
        print(f"integrity: {verify(args.target)}")
    if args.show:
        _, payload = read_snapshot(args.target)
        image = restore(payload)
        sim = image.system.sim
        print(
            f"kernel: t={sim.now:.4f} events={sim.events_processed} "
            f"pending={sim.pending_events}"
        )
        def jsonable(value):
            # state_dict values are arbitrary protocol state (records,
            # Trigger keys, frozensets) — render anything json can't.
            if isinstance(value, dict):
                return {
                    k if isinstance(k, str) else repr(k): jsonable(v)
                    for k, v in value.items()
                }
            if isinstance(value, (list, tuple, set, frozenset)):
                return [jsonable(v) for v in value]
            if isinstance(value, (str, int, float, bool)) or value is None:
                return value
            return repr(value)

        state = jsonable(image.system.protocol.state_dict())
        print(json.dumps(state, indent=2, sort_keys=True))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profiler import KernelProfiler

    point = _point_from_args(args, trace_messages=args.trace_messages)
    system, _, runner = build_point_runtime(point)
    profiler = KernelProfiler()
    system.sim.set_profiler(profiler)
    with profiler.span("run"):
        runner.run(max_events=point.max_events)
    system.sim.flush_metrics()
    print(profiler.table(limit=args.top))
    print()
    snapshot = system.metrics.snapshot()
    print("metrics (counters):")
    for name, value in snapshot["counters"].items():
        print(f"  {name:40s} {value:g}")
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {"profile": profiler.to_dict(), "metrics": snapshot},
                fh, indent=2, sort_keys=True,
            )
        print(f"\nprofile written to {args.json}")
    if args.flamegraph:
        with open(args.flamegraph, "w", encoding="utf-8") as fh:
            fh.write(profiler.collapsed_stacks())
        print(f"collapsed stacks written to {args.flamegraph}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.obs.forensics import build_forensics
    from repro.sim.export import read_trace

    if args.from_snapshot is not None:
        from repro.snapshot import replay_window

        replayed = replay_window(args.from_snapshot, args.window_start)
        trace = replayed.trace
        print(
            f"# time-travel: resumed {replayed.snapshot.path} "
            f"(t={replayed.start_time:.2f}s); records from there on are "
            f"regenerated at full DEBUG fidelity"
        )
    elif args.path is None:
        print("error: need a trace file or --from-snapshot", file=sys.stderr)
        return 2
    else:
        trace = read_trace(args.path)
    if (args.mermaid or args.dot) and args.wave is None:
        print("error: --mermaid/--dot need --wave", file=sys.stderr)
        return 2
    report = build_forensics(trace, n_processes=args.processes)
    try:
        if args.mermaid:
            print(report.to_mermaid(args.wave), end="")
        elif args.dot:
            print(report.to_dot(args.wave), end="")
        elif args.as_json:
            print(report.to_json())
        elif args.explain is not None:
            print(report.narrative(wave_index=args.wave, explain=args.explain),
                  end="")
        elif args.wave is not None:
            print(report.wave_narrative(args.wave), end="")
        else:
            print(report.narrative(), end="")
    except IndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    _check_workers(args)
    try:
        serve(
            data_dir=args.data_dir,
            host=args.host,
            port=args.port,
            workers=args.workers,
            import_jsonl=args.import_jsonl,
            verbose=args.verbose,
        )
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.spec:
            with open(args.spec, encoding="utf-8") as fh:
                job = client.submit(spec=json.load(fh), name=args.name)
        else:
            job = client.submit(preset=args.preset, name=args.name)
    except (ServiceError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    job_id = job["job_id"]
    print(
        f"job {job_id} submitted: {job['total']} points, "
        f"{job['cache_hits']} cache hits, {job['queued']} queued"
    )
    if args.no_wait:
        return 0

    try:
        status = client.wait(
            job_id,
            timeout=args.timeout,
            tolerate_outages=args.tolerate_outages,
        )
        results = client.results(job_id)
    except (ServiceError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        _print_rows(results["rows"])
    print(
        f"job {job_id} {status['status']}: {status['executed']} executed, "
        f"{status['cache_hits']} cache hits, "
        f"{len(status.get('failed_points') or [])} failed "
        f"in {status['wall_time']:.2f}s"
    )
    if args.results_json:
        # Drop the submission-scoped fields (which job computed what):
        # what remains depends only on the grid's content, so identical
        # resubmissions produce byte-identical files (cmp-able in CI).
        document = {
            key: value
            for key, value in results.items()
            if key not in ("job_id", "cache_hits", "executed")
        }
        with open(args.results_json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"results written to {args.results_json}")
    return 0 if status["status"] == "done" else 1


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.analysis.ascii_chart import sparkline
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=10.0)
    prev_counters: dict = {}
    prev_wall: Optional[float] = None

    def frame() -> str:
        nonlocal prev_counters, prev_wall
        status = client.metrics()
        now = _time.monotonic()
        counters = status["metrics"]["counters"]
        gauges = status["metrics"].get("gauges", {})
        rate = ""
        if prev_wall is not None and now > prev_wall:
            done = (counters.get("service.points.executed", 0)
                    - prev_counters.get("service.points.executed", 0))
            rate = f" · {done / (now - prev_wall):.2f} points/s"
        prev_counters, prev_wall = dict(counters), now
        cache = status["cache"]
        lookups = cache["hits"] + cache["misses"]
        hit_pct = 100.0 * cache["hits"] / lookups if lookups else 0.0
        lines = [
            f"repro-sim top — {args.url}",
            f"uptime {status['uptime_seconds']:.0f}s · "
            f"{status['workers']} worker(s) · "
            f"queue {gauges.get('service.queue.depth', 0):g} · "
            f"active {gauges.get('service.jobs.active', 0):g} · "
            f"cache {cache['hits']:g}/{lookups:g} ({hit_pct:.1f}% hits)"
            + rate,
            "",
            f"{'job':12s} {'name':20s} {'status':9s} {'points':>9s} "
            f"{'eta':>7s}  activity (events/window)",
        ]
        for job in status["jobs"]:
            try:
                rows = client.timeseries(job["job_id"])["rows"]
            except ServiceError:
                rows = []
            spark = sparkline([row["events"] for row in rows]) or "-"
            eta = (f"{job['eta_seconds']:.0f}s"
                   if job["status"] == "running" else "-")
            points = f"{job['done']}/{job['total']}"
            lines.append(
                f"{job['job_id']:12s} {job['name'][:20]:20s} "
                f"{job['status']:9s} {points:>9s} {eta:>7s}  {spark}"
            )
        if not status["jobs"]:
            lines.append("(no jobs yet)")
        return "\n".join(lines)

    try:
        if args.once:
            print(frame())
            return 0
        while True:
            text = frame()
            # Home + clear-to-end redraws in place instead of scrolling
            # the terminal history away on every refresh.
            sys.stdout.write("\x1b[H\x1b[J" + text + "\n")
            sys.stdout.flush()
            _time.sleep(args.interval)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0


def _cmd_figures() -> int:
    from repro.scenarios.figures import all_figures

    for result in all_figures():
        status = "consistent" if result.consistent else "INCONSISTENT (as intended)"
        print(f"{result.figure:16s} {status:28s} {result.notes}")
    return 0


def _cmd_table1() -> int:
    from repro.analysis.comparison import (
        CostParameters,
        analytic_table,
        format_table,
        measured_row,
    )

    rows = [measured_row(result) for result in run_preset("table1").results()]
    print(format_table(rows, "Table 1 (measured)"))
    n_min = rows[-1].checkpoints
    print()
    print(
        format_table(
            analytic_table(CostParameters(n=16, n_min=n_min, n_dep=4.0)),
            f"Table 1 (paper formulas, N_min={n_min:.1f})",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; bad input ends in ``error: ...`` and exit code 2.

    Bad input is a configuration the system refuses, an unreadable or
    corrupt snapshot, store or trace, or a file that cannot be opened.
    ``ProtocolError`` / ``SimulationError`` mean a bug in the simulated
    system and keep their traceback.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (
        ConfigurationError, SnapshotError, StoreFormatError, TraceFormatError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "protocols":
        return _cmd_protocols()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "figures":
        return _cmd_figures()
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "explore":
        return _cmd_explore(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command == "snapshots":
        return _cmd_snapshots(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "report":
        from repro.reporting import ReportScale, write_report

        scale = {
            "quick": ReportScale.quick(),
            "default": ReportScale(),
            "full": ReportScale.full(),
        }[args.scale]
        write_report(args.output, scale)
        print(f"report written to {args.output}")
        return 0
    if args.command == "verify-trace":
        from repro.analysis.offline import verify_trace_file

        try:
            verdict = verify_trace_file(args.path)
        except InconsistentCheckpointError as exc:
            print(f"nothing to verify: {exc}")
            return 1
        print(verdict)
        for orphan in verdict.orphans[:10]:
            print(f"  {orphan}")
        return 0 if verdict.consistent else 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
