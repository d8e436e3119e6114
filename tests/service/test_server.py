"""End-to-end HTTP tests: real server on a loopback port, real client."""

from __future__ import annotations

import http.client
import json
import threading
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.service import CampaignService, ServiceClient, ServiceError, make_server
from repro.service.server import MAX_BODY_BYTES


@pytest.fixture
def service_client():
    with CampaignService() as service:
        server = make_server(service)  # port 0: the OS picks
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        try:
            yield service, ServiceClient(f"http://{host}:{port}", timeout=30.0)
        finally:
            server.shutdown()
            server.server_close()


def test_healthz(service_client):
    _, client = service_client
    assert client.healthy()


def test_submit_wait_results(service_client, tiny_spec):
    _, client = service_client
    job = client.submit(spec=tiny_spec.to_dict(), name="over-http")
    assert job["total"] == 2
    assert job["queued"] == 2
    status = client.wait(job["job_id"], timeout=60)
    assert status["status"] == "done"
    assert status["executed"] == 2
    results = client.results(job["job_id"])
    assert [row["status"] for row in results["rows"]] == ["ok", "ok"]
    assert results["merged_metrics"]["counters"]


def test_resubmission_documents_are_byte_identical(service_client, tiny_spec):
    """The acceptance property, measured at the HTTP surface."""
    _, client = service_client
    first = client.submit(spec=tiny_spec.to_dict())
    client.wait(first["job_id"], timeout=60)
    second = client.submit(spec=tiny_spec.to_dict())
    status = client.wait(second["job_id"], timeout=60)
    assert status["cache_hits"] == 2 and status["executed"] == 0
    docs = []
    for job in (first, second):
        results = client.results(job["job_id"])
        for key in ("job_id", "cache_hits", "executed"):
            results.pop(key)
        docs.append(json.dumps(results, sort_keys=True))
    assert docs[0] == docs[1]


def test_submit_validation(service_client):
    _, client = service_client
    with pytest.raises(ValueError):
        client.submit()  # nothing given
    with pytest.raises(ServiceError, match="unknown preset"):
        client.submit(preset="nope")
    with pytest.raises(ServiceError, match="unknown workload"):
        client.submit(points=[{"protocol": "mutable", "workload": "nope"}])
    with pytest.raises(ServiceError, match="empty grid"):
        client.submit(points=[])


@pytest.mark.parametrize(
    "content_length, body, expected",
    [
        ("many", b"{}", 400),  # int() raised ValueError in the handler
        ("-1", b"{}", 400),  # rfile.read(-1) blocked until hang-up
        (None, b"\xff\xfe{}", 400),  # UnicodeDecodeError killed the thread
        (str(MAX_BODY_BYTES + 1), b"", 413),
        (None, b'{"preset": "table1"}', 202),
    ],
)
def test_submit_body_handling(service_client, content_length, body, expected):
    """Hostile bodies get a 4xx, never a hang or a dead handler thread."""
    service, client = service_client
    address = urlsplit(client.base_url)
    conn = http.client.HTTPConnection(address.hostname, address.port, timeout=10)
    try:
        conn.putrequest("POST", "/submit")
        conn.putheader("Content-Length", content_length or str(len(body)))
        conn.endheaders()
        conn.send(body)
        response = conn.getresponse()
        document = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == expected, document
    if expected == 202:
        assert document["total"] == 3
        service.manager.cancel(document["job_id"])
    else:
        assert "error" in document
        assert client.healthy()  # the server is still answering


def test_unknown_job_is_404(service_client):
    _, client = service_client
    with pytest.raises(ServiceError, match="unknown job"):
        client.status("job-999999")
    with pytest.raises(ServiceError, match="unknown job"):
        client.cancel("job-999999")


def test_cancel_finished_job_conflicts(service_client, tiny_spec):
    _, client = service_client
    job = client.submit(spec=tiny_spec.to_dict())
    client.wait(job["job_id"], timeout=60)
    with pytest.raises(ServiceError, match="already finished"):
        client.cancel(job["job_id"])


def test_jobs_and_metrics_endpoints(service_client, tiny_spec):
    _, client = service_client
    job = client.submit(spec=tiny_spec.to_dict())
    client.wait(job["job_id"], timeout=60)
    listed = client.jobs()
    assert [j["job_id"] for j in listed] == [job["job_id"]]
    metrics = client.metrics()
    assert metrics["store"] == {"ok": 2}
    assert metrics["metrics"]["counters"]["service.jobs.done"] == 1


def test_dashboard_renders(service_client, tiny_spec):
    _, client = service_client
    job = client.submit(spec=tiny_spec.to_dict())
    client.wait(job["job_id"], timeout=60)
    with urllib.request.urlopen(client.base_url + "/") as resp:
        page = resp.read().decode("utf-8")
        assert resp.headers["Content-Type"].startswith("text/html")
    assert "campaign service" in page
    assert job["job_id"] in page
    assert "service.jobs.done" in page


def test_unknown_endpoint_is_404(service_client):
    _, client = service_client
    with pytest.raises(ServiceError, match="no such endpoint"):
        client._request("/nope")
