"""A key no config has is refused when the spec is built, not in a worker.

An unknown workload key used to escape ``campaign --spec`` as a
``TypeError`` traceback, and an unknown ``configs`` key (every stored
spec that still sets the deleted ``piggyback_mode``) was accepted and
then failed every point inside its worker. Both are a
``ConfigurationError`` naming the key now: ``error: ...`` and exit 2
from the CLI, 400 from ``POST /submit``, and no point is executed.
"""

from __future__ import annotations

import json
import threading

import pytest

import repro.campaign.engine as engine
from repro.campaign.spec import CampaignSpec
from repro.cli import main
from repro.errors import ConfigurationError
from repro.service import CampaignService, ServiceClient, ServiceError, make_server

#: (spec override, the key the refusal must name)
BAD_SPECS = [
    ({"workloads": [{"kind": "p2p", "mean_send_intervall": 10}]}, "mean_send_intervall"),
    ({"configs": [{"n_processes": 4, "piggyback_mode": "full"}]}, "piggyback_mode"),
    ({"configs": [{"network": {"wireless_latencyy": 0.1}}]}, "wireless_latencyy"),
    ({"run": {"max_initiations": 2, "warm_up": 1}}, "warm_up"),
]
IDS = ["workload", "system", "network", "run"]


def _spec(override) -> dict:
    spec = {"name": "bad", "configs": [{"n_processes": 4}],
            "run": {"max_initiations": 2}}
    spec.update(override)
    return spec


@pytest.fixture
def executed(monkeypatch):
    calls = []

    def record(payload, *args, **kwargs):
        calls.append(payload)
        raise AssertionError("a refused spec reached a worker")

    monkeypatch.setattr(engine, "execute_point", record)
    return calls


@pytest.mark.parametrize("override, key", BAD_SPECS, ids=IDS)
def test_run_point_refuses_the_key(override, key):
    with pytest.raises(ConfigurationError, match=f"unknown .*'{key}'"):
        CampaignSpec.from_dict(_spec(override)).expand()


@pytest.mark.parametrize("override, key", BAD_SPECS, ids=IDS)
def test_cli_exits_2_naming_the_key(tmp_path, capsys, executed, override, key):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec(override)))
    code = main(["campaign", "--spec", str(path), "--no-store", "--workers", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert executed == []


@pytest.mark.parametrize("override, key", BAD_SPECS, ids=IDS)
def test_submit_is_400_naming_the_key(executed, override, key):
    with CampaignService() as service:
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        try:
            client = ServiceClient(f"http://{host}:{port}", timeout=30.0)
            with pytest.raises(ServiceError, match=f"ConfigurationError: .*{key}") as refused:
                client.submit(spec=_spec(override))
            assert refused.value.code == 400
            assert client.jobs() == []
        finally:
            server.shutdown()
            server.server_close()
    assert executed == []
