"""The HTTP front end: wire protocol, error mapping, quotas, drain.

Each test boots a real asyncio server on an ephemeral port in a
background thread and speaks actual HTTP/1.1 to it through
``http.client`` — the parser, routing, executor hand-off and response
serialisation are all exercised on the wire, not by calling private
methods. The per-tenant quota tier gets its own unit tests first (no
sockets needed).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import (
    QuestError,
    QuotaExceededError,
    ServiceOverloadedError,
)
from repro.service import (
    HttpServerSettings,
    QuestHttpServer,
    QuestService,
    ServiceSettings,
    TenantQuotas,
)
from repro.service.http import (
    _KEEPALIVE_TIMEOUT_S,
    TENANT_HEADER,
    explanation_payload,
)


# -- per-tenant quotas (no sockets) ------------------------------------------


class TestTenantQuotas:
    def test_validation(self):
        with pytest.raises(QuestError):
            TenantQuotas(max_concurrent=0)
        with pytest.raises(QuestError):
            TenantQuotas(max_queue=-1)
        with pytest.raises(QuestError):
            TenantQuotas(max_tenants=0)

    def test_tenant_over_its_cap_fails_fast(self):
        quotas = TenantQuotas(max_concurrent=1, max_queue=0)
        with quotas.admit("acme"):
            assert quotas.in_flight("acme") == 1
            with pytest.raises(QuotaExceededError) as info:
                with quotas.admit("acme"):
                    pass  # pragma: no cover
            assert info.value.tenant == "acme"
            assert info.value.limit == 1
        assert quotas.in_flight("acme") == 0
        assert quotas.rejections == 1

    def test_other_tenants_unaffected_by_a_hot_one(self):
        quotas = TenantQuotas(max_concurrent=1, max_queue=0)
        with quotas.admit("hot"):
            with pytest.raises(QuotaExceededError):
                with quotas.admit("hot"):
                    pass  # pragma: no cover
            with quotas.admit("cold"):
                assert quotas.in_flight() == 2

    def test_anonymous_requests_share_the_default_tenant(self):
        quotas = TenantQuotas(max_concurrent=1, max_queue=0)
        with quotas.admit(None):
            with pytest.raises(QuotaExceededError) as info:
                with quotas.admit(""):
                    pass  # pragma: no cover
            assert info.value.tenant == "default"
        assert quotas.tenants == 1

    def test_overrides_change_one_tenant_only(self):
        quotas = TenantQuotas(
            max_concurrent=1, max_queue=0, overrides={"paying": (2, 0)}
        )
        with quotas.admit("paying"), quotas.admit("paying"):
            assert quotas.in_flight("paying") == 2
        with quotas.admit("free"):
            with pytest.raises(QuotaExceededError):
                with quotas.admit("free"):
                    pass  # pragma: no cover

    def test_service_wide_shed_inside_the_body_is_not_converted(self):
        # A 503 raised by the shared admission controller *inside* the
        # quota-gated body must propagate as-is — converting it to the
        # per-tenant 429 would tell the tenant to back off when the
        # whole service is saturated.
        quotas = TenantQuotas(max_concurrent=4, max_queue=0)
        with pytest.raises(ServiceOverloadedError):
            with quotas.admit("acme"):
                raise ServiceOverloadedError("house full")
        assert quotas.rejections == 0
        assert quotas.in_flight("acme") == 0

    def test_idle_tenants_evicted_beyond_the_cap(self):
        quotas = TenantQuotas(max_concurrent=1, max_queue=0, max_tenants=2)
        for name in ("a", "b", "c", "d"):
            with quotas.admit(name):
                pass
        assert quotas.tenants == 2

    def test_busy_tenants_survive_eviction(self):
        quotas = TenantQuotas(max_concurrent=1, max_queue=0, max_tenants=1)
        with quotas.admit("busy"):
            with quotas.admit("other"):
                pass
            # "busy" held a slot throughout; its gate must still release
            # against the same controller it acquired from.
            assert quotas.in_flight("busy") == 1
        assert quotas.in_flight("busy") == 0


# -- the server over the wire -------------------------------------------------


class _ServerThread:
    """A QuestHttpServer running its own event loop in a thread."""

    def __init__(self, service, settings=None, quotas=None):
        self.server = QuestHttpServer(service, settings=settings, quotas=quotas)
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self._main())
        self._loop.close()

    async def _main(self):
        self._stop = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.close()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "server did not start"
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def stop(self, timeout=15.0):
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout)
        assert not self._thread.is_alive(), "server thread did not drain"

    @property
    def port(self):
        return self.server.port

    def request(self, method, path, body=None, headers=None, timeout=30.0):
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=timeout
        )
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            raw = response.read()
            payload = json.loads(raw) if raw else {}
            return response.status, payload, dict(response.getheaders())
        finally:
            connection.close()

    def get(self, path, headers=None):
        return self.request("GET", path, headers=headers)


@pytest.fixture()
def served(mini_engine):
    service = QuestService(mini_engine)
    with _ServerThread(service) as harness:
        yield harness


class TestRouting:
    def test_healthz_and_readyz(self, served):
        status, payload, _ = served.get("/healthz")
        assert status == 200 and payload["status"] == "ok"
        status, payload, _ = served.get("/readyz")
        assert status == 200 and payload["status"] == "ok"
        assert payload["reasons"] == []

    def test_unknown_route_404(self, served):
        status, payload, _ = served.get("/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert "/nope" in payload["error"]["message"]
        assert payload["error"]["request_id"]

    def test_wrong_method_405(self, served):
        status, _, _ = served.request("DELETE", "/search")
        assert status == 405
        status, _, _ = served.request("POST", "/healthz")
        assert status == 405

    def test_metrics_payload(self, served):
        served.get("/search?q=kubrick%20movies")
        status, payload, _ = served.get("/metrics")
        assert status == 200
        assert payload["service"]["requests"] >= 1
        assert "p95_latency_s" in payload["service"]
        assert "quota" not in payload  # no quota tier configured

    def test_malformed_request_line_400(self, served):
        connection = http.client.HTTPConnection(
            "127.0.0.1", served.port, timeout=10
        )
        try:
            connection.sock = connection._create_connection(
                ("127.0.0.1", served.port), connection.timeout, None
            )
            connection.sock.sendall(b"NONSENSE\r\n\r\n")
            raw = connection.sock.recv(4096)
            assert b"400" in raw.split(b"\r\n", 1)[0]
        finally:
            connection.close()


class TestSearch:
    def test_get_search_matches_direct_service_call(self, served):
        status, payload, _ = served.get("/search?q=kubrick%20movies&k=3")
        assert status == 200
        direct = served.server.service.search("kubrick movies", k=3)
        expected = json.loads(json.dumps(explanation_payload(direct.explanations)))
        assert payload["results"] == expected
        assert payload["k"] == 3
        assert payload["keywords"] == list(direct.keywords)

    def test_post_search_json_body(self, served):
        body = json.dumps({"query": "kubrick movies", "k": 2})
        status, payload, _ = served.request(
            "POST", "/search", body=body,
            headers={"Content-Type": "application/json"},
        )
        assert status == 200
        assert payload["k"] == 2
        assert len(payload["results"]) <= 2

    def test_keep_alive_serves_sequential_requests(self, served):
        connection = http.client.HTTPConnection(
            "127.0.0.1", served.port, timeout=30
        )
        try:
            for _ in range(3):
                connection.request("GET", "/search?q=kubrick%20movies")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()

    def test_missing_query_400(self, served):
        status, payload, _ = served.get("/search")
        assert status == 400
        assert "missing query" in payload["error"]["message"]

    def test_bad_k_400(self, served):
        status, payload, _ = served.get("/search?q=x&k=three")
        assert status == 400
        status, payload, _ = served.get("/search?q=x&k=0")
        assert status == 400

    def test_malformed_json_body_400(self, served):
        status, payload, _ = served.request(
            "POST", "/search", body="{not json"
        )
        assert status == 400
        assert "JSON" in payload["error"]["message"]

    def test_unusable_query_400(self, served):
        status, payload, _ = served.get("/search?q=%3F%3F%3F")
        assert status == 400


class TestShedding:
    def test_service_overload_maps_to_503_with_retry_after(self, mini_engine):
        service = QuestService(mini_engine)
        with _ServerThread(service) as harness:
            def shed(query, k=None):
                raise ServiceOverloadedError("house full")

            service.search = shed
            status, payload, headers = harness.get("/search?q=kubrick")
            assert status == 503
            assert headers.get("Retry-After") == "1"
            assert payload["error"]["code"] == "overloaded"
            assert "house full" in payload["error"]["message"]

    def test_tenant_quota_maps_to_429_with_retry_after(self, mini_engine):
        service = QuestService(mini_engine)
        quotas = TenantQuotas(max_concurrent=1, max_queue=0)
        with _ServerThread(service, quotas=quotas) as harness:
            started = threading.Event()
            release = threading.Event()
            original = service.search

            def slow(query, k=None):
                started.set()
                assert release.wait(10)
                return original(query, k=k)

            service.search = slow
            results = {}

            def holder():
                results["holder"] = harness.get(
                    "/search?q=kubrick%20movies",
                    headers={TENANT_HEADER: "acme"},
                )

            thread = threading.Thread(target=holder)
            thread.start()
            assert started.wait(10)
            status, payload, headers = harness.get(
                "/search?q=inception", headers={TENANT_HEADER: "acme"}
            )
            release.set()
            thread.join(15)
            assert status == 429
            assert headers.get("Retry-After") == "1"
            assert payload["error"]["code"] == "quota_exceeded"
            assert payload["error"]["tenant"] == "acme"
            assert results["holder"][0] == 200

            status, _, _ = harness.get("/metrics")
            assert status == 200

    def test_metrics_expose_quota_counters(self, mini_engine):
        service = QuestService(mini_engine)
        quotas = TenantQuotas(max_concurrent=1, max_queue=0)
        with _ServerThread(service, quotas=quotas) as harness:
            harness.get(
                "/search?q=kubrick%20movies", headers={TENANT_HEADER: "acme"}
            )
            status, payload, _ = harness.get("/metrics")
            assert status == 200
            assert payload["quota"]["tenants"] >= 1
            assert payload["quota"]["in_flight"] == 0


class TestDrain:
    def test_in_flight_request_completes_during_drain(self, mini_engine):
        service = QuestService(mini_engine)
        harness = _ServerThread(
            service, settings=HttpServerSettings(drain_timeout_s=10.0)
        )
        with harness:
            port = harness.port
            started = threading.Event()
            release = threading.Event()
            original = service.search

            def slow(query, k=None):
                started.set()
                assert release.wait(10)
                return original(query, k=k)

            service.search = slow
            results = {}

            def client():
                results["response"] = harness.get("/search?q=kubrick%20movies")

            thread = threading.Thread(target=client)
            thread.start()
            assert started.wait(10)
            # Begin the drain while the request is mid-flight, then let
            # the engine finish: the response must still be delivered.
            stopper = threading.Thread(
                target=harness.stop, kwargs={"timeout": 20.0}
            )
            stopper.start()
            time.sleep(0.1)
            release.set()
            thread.join(15)
            stopper.join(20)
            assert results["response"][0] == 200
        # Once drained, the listener is gone.
        with pytest.raises(OSError):
            http.client.HTTPConnection(
                "127.0.0.1", port, timeout=2
            ).request("GET", "/healthz")

    def test_drain_closes_idle_keep_alive_connections(self):
        """An idle keep-alive client must neither stall the drain (the
        3.12+ ``wait_closed`` waits for every connection) nor leave a
        handler for the loop's shutdown to cancel (3.11 logs that
        cancellation as an unhandled ``CancelledError`` traceback).

        Runs in a subprocess so its stderr is the server's alone.
        """
        result = subprocess.run(
            [sys.executable, "-c", _IDLE_DRAIN_SCRIPT.format(tests=str(TESTS_DIR))],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": _pythonpath()},
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        report = json.loads(result.stdout.strip().splitlines()[-1])
        assert report["first_status"] == 200
        assert report["eof_after_drain"]
        assert report["drain_s"] < _KEEPALIVE_TIMEOUT_S / 10

    def test_readyz_reports_draining(self, mini_engine):
        service = QuestService(mini_engine)
        with _ServerThread(service) as harness:
            harness.server._ready = False
            status, payload, _ = harness.get("/readyz")
            assert status == 503
            assert payload["status"] == "unhealthy"
            assert "draining" in payload["reasons"]
            harness.server._ready = True


TESTS_DIR = Path(__file__).resolve().parent.parent


def _pythonpath() -> str:
    src = str(TESTS_DIR.parent / "src")
    return os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])


#: One idle keep-alive client, then a drain; prints a JSON report.
_IDLE_DRAIN_SCRIPT = """
import asyncio, json, socket, sys, time
sys.path.insert(0, {tests!r})
from conftest import build_mini_db
from repro.core import Quest
from repro.service import QuestHttpServer, QuestService
from repro.storage import create_backend
from repro.wrapper import FullAccessWrapper

async def main():
    backend = create_backend("memory", build_mini_db())
    server = QuestHttpServer(QuestService(Quest(FullAccessWrapper(backend))))
    await server.start()
    def first_request():
        client = socket.create_connection(("127.0.0.1", server.port))
        client.sendall(b"GET /healthz HTTP/1.1\\r\\nHost: quest\\r\\n\\r\\n")
        return client, client.recv(65536)
    client, head = await asyncio.get_running_loop().run_in_executor(
        None, first_request
    )
    started = time.perf_counter()
    await server.close()
    return client, head, time.perf_counter() - started

client, head, drain_s = asyncio.run(main())
client.settimeout(5)
print(json.dumps({{
    "first_status": int(head.split(b" ")[1]),
    "drain_s": drain_s,
    "eof_after_drain": client.recv(1) == b"",
}}))
"""


class TestExplanationPayload:
    def test_multi_source_pairs_carry_the_source_label(self, mini_engine):
        response = QuestService(mini_engine).search("kubrick movies", k=2)
        explanation = response.explanations[0]
        payload = explanation_payload((("imdb", explanation),))
        assert payload[0]["source"] == "imdb"
        assert payload[0]["rank"] == 0
        assert payload[0]["probability"] == explanation.probability

    def test_plain_explanations_have_no_source_key(self, mini_engine):
        response = QuestService(mini_engine).search("kubrick movies", k=1)
        payload = explanation_payload(response.explanations)
        assert "source" not in payload[0]
