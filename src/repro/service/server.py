"""HTTP front end: ``repro-sim serve``.

Stdlib only (:mod:`http.server`): a :class:`ThreadingHTTPServer` whose
handler threads read shared service state while the manager's runner
thread executes jobs. Endpoints:

========================  =====================================================
``POST /submit``          submit a grid (``{"preset": ...}``, ``{"spec":
                          {...}}`` or ``{"points": [...]}``); returns the job
                          document with its cache partition counts
``GET  /jobs``            every job, oldest first
``GET  /status/<job>``    one job: state, done/total, ETA, progress tail;
                          ``?wait=S`` holds the answer until the job ends,
                          ``S`` seconds pass (capped at ``MAX_WAIT_SECONDS``)
                          or the service shuts down (then 503)
``GET  /results/<job>``   rows + merged metrics snapshot (grid order,
                          deterministic)
``POST /cancel/<job>``    cancel a queued or running job
``GET  /metrics``         the service status document (uptime, store counts,
                          cache stats, full metrics snapshot)
``GET  /metrics.prom``    Prometheus text exposition: the full registry plus
                          per-job gauges, canonically ordered (see
                          :mod:`repro.obs.prom`)
``GET  /jobs/<id>/timeseries``  the job's merged windowed telemetry (grid
                          order, worker-count-independent; live for
                          in-flight jobs)
``GET  /healthz``         liveness probe
``GET  /``                live text/HTML dashboard rendered from the metrics
                          registry snapshot (auto-refreshing, with per-job
                          activity sparklines)
========================  =====================================================

All request/response bodies are JSON except the dashboard. Connections
are kept alive, a request runs on a thread of its own, and
``server_close`` ends every connection and long-poll, so no thread
outlives the server. Responses are canonically ordered
(sorted keys), so resubmitting an identical grid returns byte-identical
``/results`` documents — the property CI's serve-smoke job asserts with
``cmp``.
"""

from __future__ import annotations

import html
import json
import selectors
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Sequence, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.campaign.spec import CampaignSpec, preset_spec
from repro.errors import ReproError
from repro.service.jobs import CampaignService

#: largest request body accepted (a 10k-point grid is ~5 MB of JSON)
MAX_BODY_BYTES = 16 * 1024 * 1024
#: longest ``GET /status/<job>?wait=`` the server holds a request
MAX_WAIT_SECONDS = 30.0


def _json_bytes(document: Any) -> bytes:
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode(
        "utf-8"
    )


class CampaignRequestHandler(BaseHTTPRequestHandler):
    """Routes requests onto the server's :class:`CampaignService`."""

    server_version = "repro-sim-serve/1"
    protocol_version = "HTTP/1.1"
    # A kept-alive exchange must not wait out the peer's delayed ACK.
    disable_nagle_algorithm = True
    # A socket read or write gives up after this long: a client that
    # stops reading cannot hold its thread, nor so ``server_close``.
    timeout = 30.0

    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def handle(self) -> None:
        """Serve the requests already read ahead into ``rfile`` (it ends
        with this handler); a connection kept alive then waits for its
        next request in the server's selector."""
        self.close_connection = True
        self.handle_one_request()
        while not self.close_connection and self._read_ahead():
            self.handle_one_request()
        if not self.close_connection:
            self.server._keep[self.connection] = self.client_address

    def _read_ahead(self) -> bool:
        """Whether a next request is buffered or on the socket, without
        waiting: a non-blocking peek finds nothing and leaves ``rfile``
        usable."""
        self.connection.setblocking(False)
        try:
            return bool(self.rfile.peek(1))
        except OSError:
            return False
        finally:
            self.connection.settimeout(self.timeout)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing --------------------------------------------------------
    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, document: Any, code: int = 200) -> None:
        self._send(code, _json_bytes(document), "application/json")

    def _error(self, code: int, message: str) -> None:
        self._send_json({"error": message}, code=code)

    def _read_body(self) -> Optional[Dict[str, Any]]:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # Refuse without reading: rfile.read(-1) blocks until the
            # client hangs up, and whatever body is left unread would be
            # parsed as this connection's next request.
            self.close_connection = True
            if length < 0:
                self._error(400, "bad Content-Length")
            else:
                self._error(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            return None
        raw = self.rfile.read(length) if length else b"{}"
        try:
            document = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._error(400, f"bad JSON body: {exc}")
            return None
        if not isinstance(document, dict):
            self._error(400, "body must be a JSON object")
            return None
        return document

    def _split(self) -> Tuple[str, Optional[str], Optional[str]]:
        parts = urlsplit(self.path).path.rstrip("/").split("/")
        # "/jobs/job-000001/timeseries" -> ("jobs", "job-000001", "timeseries")
        head = parts[1] if len(parts) > 1 else ""
        tail = parts[2] if len(parts) > 2 else None
        rest = parts[3] if len(parts) > 3 else None
        return head, tail, rest

    # -- GET -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        head, tail, rest = self._split()
        if head == "":
            self._send(200, self._dashboard(), "text/html; charset=utf-8")
        elif head == "healthz":
            self._send_json({"ok": True})
        elif head == "metrics":
            self._send_json(self.service.status())
        elif head == "metrics.prom":
            from repro.obs.prom import CONTENT_TYPE

            self._send(
                200,
                self.service.prometheus_text().encode("utf-8"),
                CONTENT_TYPE,
            )
        elif head == "jobs" and tail and rest == "timeseries":
            self._timeseries(tail)
        elif head == "jobs" and tail is None:
            self._send_json(
                {"jobs": [j.to_dict() for j in self.service.manager.job_list()]}
            )
        elif head == "status" and tail:
            self._status(tail)
        elif head == "results" and tail:
            self._results(tail)
        else:
            self._error(404, f"no such endpoint: {self.path}")

    def _status(self, job_id: str) -> None:
        manager = self.service.manager
        job = manager.jobs.get(job_id)
        query = parse_qs(urlsplit(self.path).query, keep_blank_values=True)
        wait = query.get("wait", ["0"])[-1]
        try:
            seconds = min(float(wait), MAX_WAIT_SECONDS)
        except ValueError:
            seconds = -1.0
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
        elif not seconds >= 0.0:  # refuses nan too
            self._error(400, f"bad wait {wait!r}: need seconds >= 0")
        elif seconds and not manager.await_job(job, seconds, lambda: self.server.closing):
            self._error(503, "service shutting down")
        else:
            self._send_json(job.to_dict())

    def _results(self, job_id: str) -> None:
        manager = self.service.manager
        job = manager.jobs.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        report = manager.report(job_id)
        self._send_json(
            {
                "job_id": job_id,
                "status": job.status,
                "total": len(job.points),
                "cache_hits": job.cache_hits,
                "executed": job.executed,
                "rows": report.rows(),
                "merged_metrics": report.merged_metrics().snapshot(),
            }
        )

    def _timeseries(self, job_id: str) -> None:
        if job_id not in self.service.manager.jobs:
            self._error(404, f"unknown job {job_id!r}")
            return
        self._send_json(self.service.job_timeseries(job_id))

    # -- POST ------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        # Every body is read before the answer: an unread one would be
        # parsed as this connection's next request.
        body = self._read_body()
        if body is None:
            return
        head, tail, _ = self._split()
        if head == "submit":
            self._submit(body)
        elif head == "cancel" and tail:
            if self.service.manager.cancel(tail):
                self._send_json({"job_id": tail, "cancelled": True})
            elif tail in self.service.manager.jobs:
                self._error(409, f"job {tail!r} already finished")
            else:
                self._error(404, f"unknown job {tail!r}")
        else:
            self._error(404, f"no such endpoint: {self.path}")

    def _submit(self, body: Dict[str, Any]) -> None:
        try:
            if "preset" in body:
                grid: Any = preset_spec(body["preset"])
            elif "spec" in body:
                grid = CampaignSpec.from_dict(body["spec"])
            elif "points" in body:
                grid = body["points"]
            else:
                raise ValueError("body needs one of: preset, spec, points")
            job = self.service.submit(grid, name=body.get("name"))
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            self._error(400, f"{type(exc).__name__}: {exc}")
            return
        self._send_json(job.to_dict(), code=202)

    # -- dashboard -------------------------------------------------------
    def _dashboard(self) -> bytes:
        from repro.analysis.ascii_chart import sparkline

        status = self.service.status()
        esc = html.escape
        rows = []
        for job in status["jobs"]:
            try:
                series = self.service.job_timeseries(job["job_id"])["rows"]
                spark = sparkline([row["events"] for row in series]) or "-"
            except Exception:  # noqa: BLE001 — dashboard must render regardless
                spark = "-"
            rows.append(
                "<tr><td>{id}</td><td>{name}</td><td class={st}>{st}</td>"
                "<td>{done}/{total}</td><td>{hits}</td><td>{eta}</td>"
                "<td>{spark}</td></tr>".format(
                    id=esc(job["job_id"]),
                    name=esc(job["name"]),
                    st=esc(job["status"]),
                    done=job["done"],
                    total=job["total"],
                    hits=job["cache_hits"],
                    eta=f'{job["eta_seconds"]:.1f}s'
                    if job["status"] == "running"
                    else "-",
                    spark=esc(spark),
                )
            )
        cache = status["cache"]
        total_lookups = cache["hits"] + cache["misses"]
        hit_pct = 100.0 * cache["hits"] / total_lookups if total_lookups else 0.0
        counters = status["metrics"]["counters"]
        counter_rows = "".join(
            f"<tr><td>{esc(name)}</td><td>{value:g}</td></tr>"
            for name, value in counters.items()
            if name.startswith("service.")
        )
        page = f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><meta http-equiv="refresh" content="2">
<title>repro-sim campaign service</title>
<style>
 body {{ font-family: monospace; margin: 2em; }}
 table {{ border-collapse: collapse; margin-bottom: 1.5em; }}
 td, th {{ border: 1px solid #999; padding: 2px 10px; text-align: left; }}
 .running {{ color: #a60; }} .done {{ color: #070; }}
 .failed, .cancelled {{ color: #a00; }}
</style></head><body>
<h1>repro-sim campaign service</h1>
<p>uptime {status["uptime_seconds"]:.0f}s · {status["workers"]} worker(s)
 · store: {esc(json.dumps(status["store"]))}
 · cache: {cache["hits"]:g} hits / {cache["misses"]:g} misses
 ({hit_pct:.1f}% hit rate)</p>
<h2>jobs</h2>
<table><tr><th>job</th><th>name</th><th>status</th><th>points</th>
<th>cache hits</th><th>eta</th><th>events/window</th></tr>
{"".join(rows) or '<tr><td colspan="7">none yet</td></tr>'}
</table>
<h2>service metrics</h2>
<table><tr><th>counter</th><th>value</th></tr>{counter_rows}</table>
</body></html>
"""
        return page.encode("utf-8")


class CampaignHTTPServer(ThreadingHTTPServer):
    """A thread per request, not per connection. The listening socket and
    every idle kept-alive connection wait in one selector, and the
    selector's own descriptor (epoll, kqueue) is what :meth:`serve_forever`
    polls: a new connection and a parked one's next request are dispatched
    alike, and an idle connection holds no thread. :meth:`server_close`
    ends every connection and long-poll and joins every request thread
    (``ThreadingMixIn`` keeps only non-daemon ones to join)."""

    daemon_threads = False
    verbose = False

    def __init__(self, address: Tuple[str, int], service: CampaignService) -> None:
        super().__init__(address, CampaignRequestHandler)
        self.service = service
        self.closing = False
        self._open: Set[socket.socket] = set()  # add/discard/copy are atomic
        self._keep: Dict[socket.socket, Any] = {}  # to park: its client address
        self._idle = selectors.DefaultSelector()
        self._idle.register(self.socket, selectors.EVENT_READ)

    def fileno(self) -> int:
        return self._idle.fileno()

    def get_request(self) -> Tuple[socket.socket, Any]:
        """A new connection, or a parked one whose next request came."""
        for key, _ in self._idle.select(0):
            if key.fileobj is self.socket:
                return self.socket.accept()
            self._idle.unregister(key.fileobj)
            return key.fileobj, key.data
        raise BlockingIOError("nothing ready")  # readiness gone since the poll

    def process_request(self, request, client_address) -> None:
        self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        address = self._keep.pop(request, None)
        if address is not None and not self.closing:
            self._idle.register(request, selectors.EVENT_READ, address)
            return
        super().shutdown_request(request)
        self._open.discard(request)  # once closed: an empty _open means every FIN is out

    def server_close(self) -> None:
        """Answer open long-polls 503, end idle connections (a reader
        blocked on a request sees end of file, a response being written
        still goes out), then join every thread."""
        if self.closing:
            return
        self.closing = True
        self.service.manager.wake()
        for request in list(self._open):
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        self._idle.unregister(self.socket)
        super().server_close()
        for key in list(self._idle.get_map().values()):
            self.shutdown_request(key.fileobj)
        self._idle.close()


def make_server(
    service: CampaignService, host: str = "127.0.0.1", port: int = 0
) -> CampaignHTTPServer:
    """Bind a server to the service; ``port=0`` picks a free port."""
    return CampaignHTTPServer((host, port), service)


def serve(
    data_dir: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 1,
    import_jsonl: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> None:
    """Run the service until interrupted (the ``repro-sim serve`` body)."""
    with CampaignService(data_dir=data_dir, workers=workers) as service:
        for path in import_jsonl or ():
            count = service.import_jsonl(path)
            print(f"imported {count} records from {path}")
        server = make_server(service, host=host, port=port)
        server.verbose = verbose
        bound = server.server_address
        print(f"campaign service on http://{bound[0]}:{bound[1]}/ "
              f"(data: {data_dir or 'in-memory'}, {workers} worker(s))")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
