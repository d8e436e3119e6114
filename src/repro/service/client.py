"""A small client for the campaign service (stdlib ``http.client`` only).

``repro-sim submit`` is built on this; it is also the programmatic way
to drive a remote service::

    from repro.service import ServiceClient

    with ServiceClient("http://127.0.0.1:8765") as client:
        job = client.submit(preset="smoke")
        done = client.wait(job["job_id"])
        results = client.results(job["job_id"])

A client keeps one HTTP/1.1 connection open across its calls and sends
one request at a time on it, so use one client per thread.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, List, Optional
from urllib.parse import urlsplit

from repro.errors import ReproError

#: longest single ``/status?wait=`` the client asks for (the server caps it too)
LONG_POLL_SECONDS = 30.0


class ServiceError(ReproError):
    """An HTTP-level or service-level failure, with the server's message;
    ``code`` is the HTTP status of a refusal (None: no response)."""

    def __init__(self, message: str, code: Optional[int] = None) -> None:
        super().__init__(message)
        self.code = code


def _closed_while_idle(sock: socket.socket) -> bool:
    """Whether the server closed an idle kept-alive connection: a
    non-blocking peek reads its end of file (or anything unasked for)
    instead of finding nothing to read."""
    sock.setblocking(False)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return False
    except OSError:
        pass
    return True


class ServiceClient:
    """JSON-over-HTTP calls mirroring the server's endpoints."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        address = urlsplit(self.base_url)
        self._prefix = address.path  # a service mounted under a path
        self._conn = http.client.HTTPConnection(address.netloc, timeout=timeout)

    def close(self) -> None:
        """Close the kept-alive connection (the next call reopens one)."""
        self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- plumbing --------------------------------------------------------
    def _exchange(
        self, method: str, path: str, body: Optional[bytes] = None, wait: float = 0.0
    ) -> bytes:
        """One request on the kept-alive connection; the response body.

        Only a request that never left goes out again: once, when the
        reused connection turns out closed before it was sent. A lost
        response is a :class:`ServiceError`, never a second POST.
        """
        conn, url = self._conn, f"{self.base_url}{path}"
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.timeout = self.timeout + wait
        for retry in (True, False):
            reused = conn.sock is not None
            if reused and _closed_while_idle(conn.sock):
                conn.close()
                reused = False
            try:
                if conn.sock is not None:
                    conn.sock.settimeout(conn.timeout)
                conn.request(method, self._prefix + path, body, headers)
                break
            except OSError as exc:
                conn.close()
                if not (retry and reused):
                    raise ServiceError(f"cannot reach {url}: {exc}") from exc
        try:
            response = conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise ServiceError(f"{url}: no response ({exc!r})") from exc
        if response.status >= 400:
            try:
                message = json.loads(payload.decode("utf-8"))["error"]
            except Exception:  # noqa: BLE001 - fall back to the status line
                message = f"HTTP {response.status} {response.reason}"
            raise ServiceError(f"{url}: {message}", code=response.status)
        return payload

    def _request(
        self, path: str, body: Optional[Dict[str, Any]] = None, wait: float = 0.0
    ) -> Dict[str, Any]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        method = "GET" if body is None else "POST"
        return json.loads(self._exchange(method, path, data, wait).decode("utf-8"))

    # -- endpoints -------------------------------------------------------
    def submit(
        self,
        preset: Optional[str] = None,
        spec: Optional[Dict[str, Any]] = None,
        points: Optional[List[Dict[str, Any]]] = None,
        name: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit one grid (exactly one of preset/spec/points)."""
        body: Dict[str, Any] = {}
        if preset is not None:
            body["preset"] = preset
        if spec is not None:
            body["spec"] = spec
        if points is not None:
            body["points"] = points
        if len(body) != 1:
            raise ValueError("pass exactly one of preset, spec, points")
        if name is not None:
            body["name"] = name
        return self._request("/submit", body)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request(f"/status/{job_id}")

    def results(self, job_id: str) -> Dict[str, Any]:
        return self._request(f"/results/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("/jobs")["jobs"]

    def metrics(self) -> Dict[str, Any]:
        return self._request("/metrics")

    def metrics_prom(self) -> str:
        """The raw Prometheus text exposition (``GET /metrics.prom``)."""
        return self._exchange("GET", "/metrics.prom").decode("utf-8")

    def timeseries(self, job_id: str) -> Dict[str, Any]:
        """The job's merged windowed telemetry (live for running jobs)."""
        return self._request(f"/jobs/{job_id}/timeseries")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request(f"/cancel/{job_id}", body={})

    def healthy(self) -> bool:
        try:
            return bool(self._request("/healthz").get("ok"))
        except ServiceError:
            return False

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll_seconds: float = 0.5,
        tolerate_outages: bool = False,
    ) -> Dict[str, Any]:
        """Block until the job reaches a terminal state; returns it.

        The wait is a chain of long-polls (``GET /status/<job>?wait=S``):
        the server answers the moment the job ends, so nothing is polled
        while the job runs. ``timeout`` bounds the whole wait and each
        long-poll within it, and raises :class:`TimeoutError` when it
        runs out. ``poll_seconds`` is the pause before the next attempt
        after a failed one.

        With ``tolerate_outages`` the wait survives a service restart
        (connection errors are retried until ``timeout``) — the client
        side of crash-durable jobs: kill the server mid-job, start it
        again, and this call still returns the completed job.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            left = LONG_POLL_SECONDS if deadline is None else max(
                0.0, deadline - time.monotonic())
            try:
                wait = min(LONG_POLL_SECONDS, left)
                status = self._request(f"/status/{job_id}?wait={wait:.3f}", wait=wait)
                if status["status"] in ("done", "failed", "cancelled"):
                    return status
            except ServiceError:
                if not tolerate_outages:
                    raise
                time.sleep(min(poll_seconds, left))
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"{job_id} not finished after {timeout}s")
