"""The route table: one lookup per hop, never a stale answer.

``MobileNetwork.fill_route`` derives where a message for a pid finishes
(the station, and the downlink send or local delivery there); the table
caches that answer until a directory hook clears it. These tests hold
the cache to the derivation through handoffs, disconnections, process
moves and snapshot images.
"""

from __future__ import annotations

import pickle

from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.registry import build_protocol
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.net.disconnect import disconnect, reconnect
from repro.net.message import ComputationMessage
from repro.net.mobility import RandomWalkMobility, handoff
from repro.net.network import MobileNetwork
from repro.net.params import NetworkParams
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.snapshot import SnapshotPolicy, Snapshotter, restore
from repro.workload.point_to_point import PointToPointWorkload

DIRECTORY_HOOKS = (
    "register_process",
    "note_mh_location",
    "forget_mh_location",
    "note_disconnect_holder",
    "forget_disconnect_holder",
)


def build(n_mss=2, mhs_per_mss=2):
    sim = Simulator()
    net = MobileNetwork(sim, NetworkParams())
    inboxes = {}
    pid = 0
    for _ in range(n_mss):
        mss = net.add_mss()
        for _ in range(mhs_per_mss):
            mh = net.add_mh(mss)
            inboxes[pid] = []
            mh.attach_process(pid, inboxes[pid].append)
            pid += 1
    return sim, net, inboxes


def assert_table_fresh(net):
    """Every cached entry is what the directory says now."""
    for pid, cached in list(net._routes.items()):
        assert net.fill_route(pid) == cached, f"stale route for pid {pid}"


def audit(net):
    """Check the table after every directory change and before every hop;
    returns the list that counts the directory changes seen."""
    changes = []

    def after(name, hook):
        def checked(*args):
            hook(*args)
            changes.append(name)
            assert_table_fresh(net)
        return checked

    for name in DIRECTORY_HOOKS:
        setattr(net, name, after(name, getattr(net, name)))
    route = net.route_from_mss

    def checked_route(mss, message):
        assert_table_fresh(net)
        route(mss, message)

    net.route_from_mss = checked_route
    return changes


def send(net, src, dst):
    message = ComputationMessage(src_pid=src, dst_pid=dst)
    net.send_from_process(src, message)
    return message.msg_id


def test_one_entry_per_destination_and_the_links_it_crossed():
    sim, net, inboxes = build()
    send(net, 0, 1)
    send(net, 0, 3)
    sim.run_until_idle()
    assert set(net._routes) == {1, 3}
    station, finish = net._routes[3]
    assert station is net.mss_list[1]
    assert finish == net.mss_list[1].downlink_to(net.mh_list[3].name).send
    a, b = net.mss_list
    assert net._links_from == {a: {b: net.wired_channel(a, b)}}
    assert dict(net.wired_links()) == {("mss0", "mss1"): net.wired_channel(a, b)}


def test_handoff_with_messages_in_flight():
    sim, net, inboxes = build()
    changes = audit(net)
    mh = net.mh_list[0]
    sent = [send(net, 3, 0) for _ in range(3)]  # on the air toward mss0
    sim.run(until=0.005)
    handoff(net, mh, net.mss_list[1], delay=0.5)
    sent += [send(net, 2, 0) for _ in range(2)]  # into the gap
    sim.run_until_idle()
    sent += [send(net, 1, 0)]  # after: routed to the new cell
    sim.run_until_idle()
    assert sorted(m.msg_id for m in inboxes[0]) == sorted(sent)
    assert [m.msg_id for m in inboxes[0] if m.src_pid == 3] == sent[:3]
    assert net._routes[0][0] is net.mss_list[1]
    assert "note_mh_location" in changes and "forget_disconnect_holder" in changes


def test_disconnect_buffers_then_reconnect_delivers():
    sim, net, inboxes = build()
    audit(net)
    send(net, 1, 0)
    sim.run_until_idle()
    mh = net.mh_list[0]
    record = disconnect(net, mh, None)
    assert net._routes == {}
    buffered = [send(net, 1, 0), send(net, 3, 0)]
    sim.run_until_idle()
    assert inboxes[0] and [m.msg_id for m in record.buffered] == buffered
    # the holder, not the directory, decides a detached MH's route
    assert 0 not in net._routes
    reconnect(net, mh, net.mss_list[1])
    sim.run_until_idle()
    assert [m.msg_id for m in inboxes[0][1:]] == buffered
    assert net._routes[0][0] is net.mss_list[1]


def test_a_process_moved_by_register_process_is_routed_to_its_new_host():
    sim, net, inboxes = build()
    audit(net)
    send(net, 0, 3)
    sim.run_until_idle()
    moved = []
    station = net.mss_list[0]
    station.attach_process(3, moved.append)  # register_process clears
    assert net._routes == {}
    msg_id = send(net, 0, 3)
    sim.run_until_idle()
    assert [m.msg_id for m in moved] == [msg_id] and len(inboxes[3]) == 1
    assert net._routes[3] == (station, station.deliver_to_process)


def test_a_bare_reattach_is_routed_to_the_new_cell():
    sim, net, inboxes = build()
    audit(net)
    send(net, 3, 0)
    sim.run_until_idle()
    mh, new_cell = net.mh_list[0], net.mss_list[1]
    mh.detach()
    mh.attach_to(new_cell)  # note_mh_location clears, nothing else does
    send(net, 3, 0)
    sim.run_until_idle()
    assert len(inboxes[0]) == 2
    assert net._routes[0] == (new_cell, new_cell.downlink_to(mh.name).send)


def test_seeded_mobility_and_disconnects_never_route_on_a_stale_entry():
    sim, net, inboxes = build(n_mss=3, mhs_per_mss=2)
    changes = audit(net)
    streams = RandomStreams(5)
    mobility = RandomWalkMobility(net, streams, mean_residence_time=1.5)
    mobility.start()
    sent = []

    def send_one():
        src = streams.uniform_int("src", 0, 5)
        dst = (src + 1 + streams.uniform_int("dst", 0, 4)) % 6
        if not net.mh_list[src].disconnected:
            sent.append((dst, send(net, src, dst)))

    def toggle():
        mh = streams.choice("who", net.mh_list)
        if mh.disconnected:
            reconnect(net, mh, streams.choice("where", net.mss_list))
        elif mh.mss is not None:
            disconnect(net, mh, None)

    for i in range(400):
        sim.schedule(i * 0.1, send_one)
    for i in range(30):
        sim.schedule(0.05 + i * 1.3, toggle)
    sim.run(until=60.0)
    mobility.stop()
    for mh in net.mh_list:
        if mh.disconnected:
            reconnect(net, mh, net.mss_list[0])
    sim.run_until_idle()
    delivered = [(pid, m.msg_id) for pid, inbox in inboxes.items() for m in inbox]
    assert sorted(delivered) == sorted(sent)
    assert mobility.moves > 10 and len(changes) > 50


def _system():
    config = SystemConfig(
        n_processes=8, n_mss=2, processes_on_mss=2, seed=11, trace_messages=True
    )
    system = MobileSystem(config, build_protocol("mutable"))
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=20.0)
    )
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=3, warmup_initiations=0)
    )
    return system, runner


def test_an_image_carries_no_table_and_resumes_with_an_empty_one():
    control_system, control_runner = _system()
    control = control_runner.run(max_events=500_000)

    system, runner = _system()
    snap = Snapshotter(runner, SnapshotPolicy(every_events=300))
    snap.install()
    runner.run(max_events=500_000)
    assert system.network._routes and system.network._links_from
    _, payload = snap.memory[0]
    assert b"_routes" not in payload and b"_links_from" not in payload

    image = restore(payload)
    network = image.system.network
    assert network._routes == {} and network._links_from == {}
    resumed = image.runner.resume(max_events=500_000)
    assert network._routes
    assert_table_fresh(network)
    trace = image.system.sim.trace
    assert trace.content_hash() == control_system.sim.trace.content_hash()
    assert resumed.to_dict() == control.to_dict()
    clone = pickle.loads(pickle.dumps(network))
    assert clone._routes == {} and clone._links_from == {}
