"""Long-poll status and the kept-alive client: waits end when the job
does, connections are reused, and nothing outlives ``server_close``."""

from __future__ import annotations

import gc
import http.client
import json
import os
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.service import CampaignService, ServiceClient, ServiceError, make_server
from repro.service import server as server_module
from repro.service.jobs import JobManager


@pytest.fixture
def gate(monkeypatch):
    """Jobs start only once the returned event is set (or after 10 s)."""
    opened = threading.Event()
    run_job = JobManager._run_job

    def held(self, job):
        opened.wait(10.0)
        run_job(self, job)

    monkeypatch.setattr(JobManager, "_run_job", held)
    yield opened
    opened.set()


@pytest.fixture
def live():
    """A service behind a real server; yields (service, server, client)."""
    with CampaignService() as service:
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        client = ServiceClient(f"http://{host}:{port}", timeout=30.0)
        try:
            yield service, server, client
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


def _wait_closed(server, seconds=5.0):
    deadline = time.monotonic() + seconds
    while server._open and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server._open == set()


def _handler_threads():
    return [t for t in threading.enumerate() if "process_request_thread" in t.name]


def _open_sockets():
    gc.collect()  # sockets other tests dropped close now, not mid-count
    fds = os.listdir("/proc/self/fd")
    links = []
    for fd in fds:
        try:
            links.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:
            pass
    return sum(link.startswith("socket:") for link in links)


def test_wait_returns_when_the_job_ends_not_at_the_next_poll(live, gate, tiny_spec):
    _, _, client = live
    job = client.submit(spec=tiny_spec.to_dict())
    threading.Timer(0.3, gate.set).start()
    started = time.monotonic()
    status = client.wait(job["job_id"], poll_seconds=5)
    elapsed = time.monotonic() - started
    assert status["status"] == "done"
    assert 0.25 < elapsed < 1.0


def test_timeout_raises_at_the_timeout_not_at_the_server_cap(live, gate, tiny_spec):
    _, _, client = live
    job = client.submit(spec=tiny_spec.to_dict())
    started = time.monotonic()
    with pytest.raises(TimeoutError):
        client.wait(job["job_id"], timeout=0.4)
    assert 0.35 < time.monotonic() - started < 2.0
    gate.set()
    assert client.wait(job["job_id"], timeout=60)["status"] == "done"


def test_unknown_job_is_404_at_once_and_a_bad_wait_is_400(live, gate, tiny_spec):
    _, _, client = live
    started = time.monotonic()
    with pytest.raises(ServiceError, match="unknown job") as unknown:
        client._request("/status/job-999999?wait=20")
    assert unknown.value.code == 404
    assert time.monotonic() - started < 1.0
    job = client.submit(spec=tiny_spec.to_dict())
    for bad in ("soon", "-1", "nan", ""):
        with pytest.raises(ServiceError, match="bad wait") as refused:
            client._request(f"/status/{job['job_id']}?wait={bad}")
        assert refused.value.code == 400
    assert client.status(job["job_id"])["status"] in ("queued", "running")


@pytest.mark.parametrize("stop", ["server_close", "manager_shutdown"])
def test_a_long_poll_in_flight_ends_when_the_service_shuts_down(live, gate, tiny_spec, stop):
    service, server, client = live
    job = client.submit(spec=tiny_spec.to_dict())
    outcome = []

    def waiter():
        try:
            outcome.append(client.wait(job["job_id"]))
        except ServiceError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.2)
    assert thread.is_alive()
    started = time.monotonic()
    if stop == "server_close":
        server.shutdown()
        server.server_close()
    else:
        service.manager.shutdown(wait=False)
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert time.monotonic() - started < 2.0
    (error,) = outcome
    assert isinstance(error, ServiceError)
    if stop == "manager_shutdown":
        assert error.code == 503


@pytest.mark.parametrize("announced", [True, False])
def test_a_refusal_that_closes_the_connection_is_followed_by_a_good_call(
    live, monkeypatch, announced
):
    """413 closes the connection, with ``Connection: close`` or silently;
    the same client's next call reconnects."""
    service, server, client = live
    monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
    if not announced:
        send_header = server_module.CampaignRequestHandler.send_header

        def no_connection_header(self, keyword, value):
            if keyword != "Connection":
                send_header(self, keyword, value)

        monkeypatch.setattr(
            server_module.CampaignRequestHandler, "send_header", no_connection_header
        )
    assert client.healthy()
    with pytest.raises(ServiceError, match="exceeds") as refused:
        client.submit(points=[{"protocol": "mutable", "seed": i} for i in range(10)])
    assert refused.value.code == 413
    _wait_closed(server)  # unannounced, the close must land before the next send
    assert client.jobs() == []
    assert client.healthy()
    assert service.manager.jobs == {}


def test_a_post_whose_response_is_lost_is_not_sent_again(live, monkeypatch, tiny_spec):
    service, _, client = live

    def submit_then_hang_up(self, body):
        self.service.submit(tiny_spec)
        self.close_connection = True

    monkeypatch.setattr(server_module.CampaignRequestHandler, "_submit", submit_then_hang_up)
    assert client.healthy()  # the submit below goes out on a reused connection
    with pytest.raises(ServiceError, match="no response") as lost:
        client.submit(spec=tiny_spec.to_dict())
    assert lost.value.code is None
    assert len(service.manager.jobs) == 1
    assert client.healthy()


def test_a_cancel_leaves_the_connection_ready_for_the_next_call(live, gate, tiny_spec):
    """Every POST body is read, so a cancel's ``{}`` (or a refused
    cancel's) is not taken for the start of the next request."""
    _, _, client = live
    job = client.submit(spec=tiny_spec.to_dict())["job_id"]
    assert client.cancel(job)["cancelled"] is True
    assert client.status(job)["status"] in ("queued", "cancelled")  # taken, held
    gate.set()
    assert client.wait(job, timeout=10)["status"] == "cancelled"
    for unknown_or_done, code in (("job-999999", 404), (job, 409)):
        with pytest.raises(ServiceError) as refused:
            client.cancel(unknown_or_done)
        assert refused.value.code == code
        assert client.status(job)["status"] == "cancelled"


def test_a_failed_dispatch_of_a_parked_connection_costs_that_connection_only(
    live, monkeypatch, capsys
):
    """A thread that cannot start for a parked connection's next request
    closes that connection; the server goes on serving the others."""
    _, server, client = live
    dispatch = server_module.ThreadingHTTPServer.process_request
    armed = []

    def fails_once_armed(self, request, address):
        if armed:
            armed.pop()
            raise RuntimeError("can't start new thread")
        dispatch(self, request, address)

    monkeypatch.setattr(server_module.ThreadingHTTPServer, "process_request", fails_once_armed)
    assert client.healthy()
    deadline = time.monotonic() + 5
    while _handler_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    armed.append(True)
    assert not client.healthy()  # the request went out; its connection was closed
    assert "can't start new thread" in capsys.readouterr().err
    _wait_closed(server)
    assert client.healthy()  # a new connection, dispatched from the accept path
    assert client.healthy()  # ... then parked and dispatched from the selector
    assert client.jobs() == []


def test_a_client_whose_socket_is_past_fd_1024_reuses_it(live):
    """The idle check on a reused connection has no FD_SETSIZE limit."""
    resource = pytest.importorskip("resource")
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft != resource.RLIM_INFINITY and soft < 1100:
        pytest.skip(f"open-file limit {soft} too low")
    _, _, client = live
    client.close()
    fillers = []
    try:
        while not fillers or fillers[-1] < 1024:
            fillers.append(os.open(os.devnull, os.O_RDONLY))
        assert client.healthy()
        assert client._conn.sock.fileno() > 1024
        assert client.healthy() and client.jobs() == []
    finally:
        client.close()
        for fd in fillers:
            os.close(fd)


def test_one_connection_serves_every_call_and_idles_without_a_thread(live, tiny_spec):
    service, server, client = live
    job = client.submit(spec=tiny_spec.to_dict())
    client.wait(job["job_id"], timeout=60)
    client.results(job["job_id"])
    client.metrics_prom()
    assert len(server._open) == 1
    deadline = time.monotonic() + 5
    while _handler_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _handler_threads() == []  # the open connection waits in the selector
    assert client.healthy() and len(server._open) == 1


def test_requests_sent_back_to_back_are_all_answered(live):
    """A client that sends its next request before reading the last
    response (pipelining) loses nothing to the thread-per-request split."""
    _, server, client = live
    host, port = server.server_address
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" * 3)
        reader = sock.makefile("rb")
        for _ in range(3):
            assert reader.readline().split()[1] == b"200"
            headers = http.client.parse_headers(reader)
            body = reader.read(int(headers["Content-Length"]))
            assert json.loads(body) == {"ok": True}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_nothing_outlives_the_client_and_the_server(tiny_spec):
    sockets_before = _open_sockets()
    with CampaignService() as service:
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        idle = ServiceClient(f"http://{host}:{port}")
        with ServiceClient(f"http://{host}:{port}") as client:
            job = client.submit(spec=tiny_spec.to_dict())
            client.wait(job["job_id"], timeout=60)
            assert idle.healthy()  # a second connection, left open
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        idle.close()
    assert _handler_threads() == []
    assert server._open == set()
    assert _open_sockets() == sockets_before


def test_a_client_that_stops_reading_cannot_hold_server_close(monkeypatch):
    """A response stalled on a client that no longer reads gives up after
    the socket timeout, so ``server_close`` joins its thread in time."""
    handler = server_module.CampaignRequestHandler
    monkeypatch.setattr(handler, "timeout", 0.5)
    body = b"x" * (16 << 20)  # past the server's send and the client's receive buffer
    monkeypatch.setattr(handler, "_dashboard", lambda self: body)
    with CampaignService() as service:
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        stalled = socket.socket()
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            stalled.connect(server.server_address)
            stalled.sendall(b"GET / HTTP/1.1\r\nHost: test\r\n\r\n")
            assert stalled.recv(12) == b"HTTP/1.1 200"  # then reads no more
            server.shutdown()
            started = time.monotonic()
            server.server_close()
            assert time.monotonic() - started < 5.0
            assert _handler_threads() == []
        finally:
            stalled.close()
            thread.join(timeout=10)
    assert not thread.is_alive()


def test_cli_submit_closes_its_client(live, tiny_spec, tmp_path, capsys):
    _, server, client = live
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tiny_spec.to_dict()))
    code = main(["submit", "--spec", str(path), "--url", client.base_url, "--quiet"])
    assert code == 0, capsys.readouterr().err
    _wait_closed(server)
