"""The observability endpoints: /metrics.prom, /jobs/<id>/timeseries, top."""

from __future__ import annotations

import threading

import pytest

from repro.campaign.spec import CampaignSpec
from repro.service import CampaignService, ServiceClient, ServiceError, make_server
from tests.obs._prom_parser import parse_prometheus_text, sample_map


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


@pytest.fixture
def sampled_spec() -> CampaignSpec:
    """Two tiny points with the timeseries sampler on."""
    return CampaignSpec(
        name="sampled",
        protocols=["mutable"],
        workloads=[
            {"kind": "p2p", "mean_send_interval": 120.0},
            {"kind": "p2p", "mean_send_interval": 200.0},
        ],
        configs=[{"n_processes": 4, "timeseries_window": 120.0}],
        run={"max_initiations": 2},
    )


def test_metrics_prom_parses_and_is_monotone(service_client, sampled_spec):
    _, client = service_client
    job = client.submit(spec=sampled_spec.to_dict())
    client.wait(job["job_id"], timeout=120)

    first = client.metrics_prom()
    families = parse_prometheus_text(first)  # raises on malformed output
    smap = sample_map(families)
    assert smap[("repro_service_jobs_done_total", ())] >= 1.0
    labels = (("job_id", job["job_id"]), ("name", "sampled"))
    assert smap[("repro_service_job_points", labels)] == 2.0
    assert smap[("repro_service_job_points_done", labels)] == 2.0

    second = sample_map(parse_prometheus_text(client.metrics_prom()))
    for (name, labels), value in smap.items():
        if name.endswith("_total"):
            assert second[(name, labels)] >= value


def test_job_timeseries_endpoint(service_client, sampled_spec):
    _, client = service_client
    job = client.submit(spec=sampled_spec.to_dict())
    client.wait(job["job_id"], timeout=120)
    doc = client.timeseries(job["job_id"])
    assert doc["job_id"] == job["job_id"]
    assert doc["status"] == "done"
    assert doc["window"] == 120.0
    assert doc["rows"]
    assert all(
        set(row) == {"w", "t", "dt", "events", "series"} for row in doc["rows"]
    )


def test_job_timeseries_empty_without_sampling(service_client, tiny_spec):
    _, client = service_client
    job = client.submit(spec=tiny_spec.to_dict())
    client.wait(job["job_id"], timeout=120)
    doc = client.timeseries(job["job_id"])
    assert doc["rows"] == []
    assert doc["window"] is None


def test_timeseries_unknown_job_is_404(service_client):
    _, client = service_client
    with pytest.raises(ServiceError, match="unknown job"):
        client.timeseries("job-999999")


def test_dashboard_renders_sparkline_column(service_client, sampled_spec):
    import urllib.request

    _, client = service_client
    job = client.submit(spec=sampled_spec.to_dict())
    client.wait(job["job_id"], timeout=120)
    with urllib.request.urlopen(client.base_url + "/") as resp:
        page = resp.read().decode("utf-8")
    assert "events/window" in page


def test_top_once_renders_jobs(service_client, sampled_spec, capsys):
    from repro.cli import main

    _, client = service_client
    job = client.submit(spec=sampled_spec.to_dict())
    client.wait(job["job_id"], timeout=120)
    assert main(["top", "--url", client.base_url, "--once"]) == 0
    out = capsys.readouterr().out
    assert job["job_id"] in out
    assert "repro-sim top" in out


def test_top_unreachable_service_fails_cleanly(capsys):
    from repro.cli import main

    assert main(["top", "--url", "http://127.0.0.1:9", "--once"]) == 2
    assert "error:" in capsys.readouterr().err
