"""Tests for the warm-baseline verification service (`repro.serve`)."""

from __future__ import annotations

import http.client
import importlib.util
import json
import pickle
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlparse

import pytest
from test_golden_reports import scrub

from repro.api import Session
from repro.delta import ChangeError, load_change_script
from repro.failures import enumerate_link_failures
from repro.netgen.changes import generated_change_script
from repro.netgen.families import TOPOLOGY_FAMILIES, build_topology, default_size
from repro.serve import VerificationService, create_server, warm_service
from repro.serve import http as serve_http
from repro.serve import service as serve_service
from repro.serve.http import MAX_BODY_BYTES, ServeHandler
from repro.serve.service import (
    MAX_ENUMERATED_SCENARIOS,
    QueryStats,
    failure_space,
)


@pytest.fixture(scope="module")
def service():
    return VerificationService(Session(build_topology("ring", 5)))


@pytest.fixture(scope="module")
def server(service):
    httpd = create_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield f"http://{host}:{port}"
    httpd.shutdown()
    httpd.server_close()


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(base, path, payload):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _change_script(network):
    device = sorted(network.devices)[0]
    peer = next(iter(network.graph.successors(device)))
    return [
        {
            "name": "prefer-peer",
            "changes": [
                {
                    "kind": "local-pref-override",
                    "device": str(device),
                    "peer": str(peer),
                    "local_pref": 300,
                }
            ],
        }
    ]


def _raw_post(base, path: str, body: bytes, content_length=None) -> bytes:
    """Everything the server sends for one POST, up to its hanging up
    (``Connection: close``); the body goes as given, ``content_length``
    overrides the announced length."""
    if content_length is None:
        content_length = str(len(body)).encode()
    parsed = urlparse(base)
    with socket.create_connection((parsed.hostname, parsed.port), timeout=10) as sock:
        sock.sendall(
            b"POST " + path.encode() + b" HTTP/1.1\r\nHost: test\r\n"
            b"Connection: close\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + content_length + b"\r\n\r\n" + body
        )
        response = b""
        while chunk := sock.recv(4096):  # until EOF
            response += chunk
    return response


# ----------------------------------------------------------------------
# Service core
# ----------------------------------------------------------------------
class TestPercentiles:
    def test_nearest_rank(self):
        """The serve benchmark's percentile, loaded by path."""
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_serve.py"
        spec = importlib.util.spec_from_file_location("bench_serve", path)
        bench_serve = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_serve)
        percentile = bench_serve.percentile
        assert percentile([], 0.95) == 0.0
        assert percentile([1.0], 0.95) == 1.0
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.50) == 51.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 1.0) == 100.0

    def test_stats_summary(self):
        stats = QueryStats()
        for i in range(10):
            stats.record("verify", 0.01 * (i + 1), coalesced=i % 2 == 0)
        summary = stats.summary()["verify"]
        assert summary["count"] == 10
        assert summary["coalesced"] == 5
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["max_ms"]


class TestService:
    def test_health(self, service):
        health = service.health()
        assert health["ok"] and health["warm"]
        assert health["classes"] == 5
        assert health["fingerprint"] == service.session.fingerprint

    def test_verify_matches_session(self, service):
        answer = service.verify()
        assert answer["kind"] == "verification"
        assert answer["ok"] is True
        direct = service.session.verify().to_dict()
        assert [r["prefix"] for r in answer["records"]] == [
            r["prefix"] for r in direct["records"]
        ]

    def test_verify_answers_are_cached(self, service):
        first = service.verify(prefix=str(service.session.classes[0].prefix))
        second = service.verify(prefix=str(service.session.classes[0].prefix))
        assert first is second  # memoised, not recomputed

    def test_concurrent_verify_smoke(self, service):
        """16 concurrent identical queries answer identically and match
        the sequential (batch) path."""
        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = list(pool.map(lambda _: service.verify(), range(16)))
        assert all(answer == answers[0] for answer in answers)
        assert answers[0]["ok"] is True
        stats = service.stats_summary()["queries"]["verify"]
        assert stats["count"] >= 16
        assert stats["p50_ms"] <= stats["p95_ms"]

    def test_delta(self, service):
        answer = service.delta(_change_script(service.session.network))
        assert answer["kind"] == "delta"
        assert answer["ok"] is True
        assert answer["baseline_fingerprint"] == service.session.fingerprint

    def test_failures(self, service):
        answer = service.failures(k=1, sample=3, properties=["reachability"])
        assert answer["kind"] == "failures"
        assert answer["num_classes"] == 5

    def test_k_resilience(self, service):
        answer = service.k_resilience(max_k=1, sample=3)
        assert answer["ok"] is True
        assert answer["property"] == "reachability"


class TestParseScript:
    """``/delta`` reads its ``script`` with the CLI's grammar,
    :func:`repro.delta.load_change_script`, on already-decoded JSON."""

    def test_changeset_dicts(self, service):
        script = load_change_script(_change_script(service.session.network))
        assert len(script) == 1
        assert script[0].changes[0].kind == "local-pref-override"

    def test_bare_change_dicts(self, service):
        raw = _change_script(service.session.network)[0]["changes"]
        script = load_change_script(raw)
        assert len(script) == 1
        assert script[0].changes[0].kind == "local-pref-override"

    def test_rejects_non_lists(self):
        with pytest.raises(ChangeError, match="link-remove: field 'u' is missing"):
            load_change_script({"kind": "link-remove"})
        with pytest.raises(ChangeError, match="must be a JSON object, got 'not-a-dict'"):
            load_change_script(["not-a-dict"])

    def test_service_delta_parses_with_it(self, service):
        # A string is refused as a string, never read as JSON text.
        with pytest.raises(ChangeError, match="must be a JSON list of change sets, got str"):
            service.delta(script="[]")
        bare = _change_script(service.session.network)[0]["changes"]
        assert service.delta(script=bare)["num_steps"] == 1


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------
class TestHttp:
    def test_health_and_stats(self, server):
        status, health = _get(server, "/health")
        assert status == 200 and health["ok"] and health["classes"] == 5
        status, stats = _get(server, "/stats")
        assert status == 200 and stats["ok"]

    def test_verify_endpoint(self, server, service):
        status, answer = _post(server, "/verify", {})
        assert status == 200
        assert answer["kind"] == "verification" and answer["ok"]
        prefix = str(service.session.classes[0].prefix)
        status, scoped = _post(server, "/verify", {"prefix": prefix})
        assert status == 200 and scoped["num_classes"] == 1

    def test_delta_endpoint(self, server, service):
        script = _change_script(service.session.network)
        status, answer = _post(server, "/delta", {"script": script})
        assert status == 200
        assert answer["kind"] == "delta" and answer["ok"]

    def test_delta_requires_script(self, server):
        status, answer = _post(server, "/delta", {})
        assert status == 400
        assert "script" in answer["error"]

    def test_failures_endpoint(self, server):
        status, answer = _post(
            server, "/failures", {"k": 1, "sample": 3, "properties": ["reachability"]}
        )
        assert status == 200 and answer["kind"] == "failures"

    def test_k_resilience_endpoint(self, server):
        status, answer = _post(server, "/k-resilience", {"max_k": 1, "sample": 3})
        assert status == 200 and answer["ok"]

    def test_unknown_paths_404(self, server):
        status, answer = _get(server, "/nope")
        assert status == 404 and not answer["ok"]
        status, answer = _post(server, "/nope", {})
        assert status == 404 and not answer["ok"]

    def test_bad_json_400(self, server):
        request = urllib.request.Request(
            server + "/verify", data=b"{broken", headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    @staticmethod
    def _refused_before_body(server, content_length: bytes) -> bytes:
        """Everything the server sends, up to its hanging up, for a POST it
        must refuse without reading the body -- which is a second request."""
        parsed = urlparse(server)
        with socket.create_connection(
            (parsed.hostname, parsed.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /verify HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + content_length + b"\r\n"
                b"\r\n"
                b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"
            )
            response = b""
            while chunk := sock.recv(4096):  # until EOF
                response += chunk
        return response

    def test_negative_content_length_400(self, server):
        """Regression, twice over.  A negative Content-Length used to reach
        ``rfile.read(-1)``, which blocks the handler thread on the open
        keep-alive connection until the client hangs up: it must be a 400
        at once.  And a request refused *before its body is read* used to
        leave the connection open, so the unread body was parsed as the
        next request and the smuggled ``GET /health`` got a response of
        its own.  Exactly one response, then EOF."""
        response = self._refused_before_body(server, b"-1")
        assert response.startswith(b"HTTP/1.1 400")
        assert b"bad request body" in response
        assert response.count(b"HTTP/1.1 ") == 1

    @pytest.mark.parametrize(
        "content_length", [b"many", str(MAX_BODY_BYTES + 1).encode()], ids=["text", "oversize"]
    )
    def test_other_unread_body_refusals_hang_up_too(self, server, content_length):
        response = self._refused_before_body(server, content_length)
        assert response.startswith(b"HTTP/1.1 400")
        assert response.count(b"HTTP/1.1 ") == 1

    def test_unknown_prefix_400(self, server):
        status, answer = _post(server, "/verify", {"prefix": "203.0.113.0/24"})
        assert status == 400
        assert "no destination class" in answer["error"]

    def test_concurrent_http_verify(self, server):
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda _: _post(server, "/verify", {}), range(16))
            )
        assert all(status == 200 for status, _ in results)
        first = results[0][1]
        assert all(answer == first for _, answer in results)


class TestHostileRequests:
    """Requests that would hold a handler thread (or the process) for good
    are refused with a reason, counted, and leave the server answering."""

    def test_failure_space_is_counted_not_enumerated(self):
        network = build_topology("fattree", 6)  # 108 links
        assert failure_space(network, 4) == 5_569_137
        assert failure_space(network, 2) == 5_886 <= MAX_ENUMERATED_SCENARIOS
        assert failure_space(network, 10**9) == 2**108 - 1

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
    def test_failure_space_matches_the_enumeration(self, family, k):
        network = build_topology(family, default_size(family))
        assert failure_space(network, k) == len(enumerate_link_failures(network, k))

    def test_sample_lifts_the_cap(self, service, monkeypatch):
        """Only an unsampled sweep is capped: the same ``k`` with
        ``sample`` is answered."""
        monkeypatch.setattr(serve_service, "MAX_ENUMERATED_SCENARIOS", 4)
        with pytest.raises(ValueError, match="enumerates 5 failure scenarios"):
            service.failures(k=1)
        with pytest.raises(ValueError, match=r"\(limit 4\); pass 'sample'"):
            service.k_resilience(max_k=1)
        assert service.failures(k=1, sample=3)["kind"] == "failures"
        assert service.k_resilience(max_k=1, sample=3)["ok"] is True

    def test_cap_admits_a_space_of_exactly_its_size(self, service, monkeypatch):
        monkeypatch.setattr(serve_service, "MAX_ENUMERATED_SCENARIOS", 5)  # ring 5: 5 links
        before = service.registry.counter("serve.refused.scenarios").value
        answer = service.failures(k=1, properties=["reachability"])
        assert answer["kind"] == "failures" and answer["num_classes"] == 5
        assert service.registry.counter("serve.refused.scenarios").value == before

    def test_unsampled_failure_space_refused_at_once(self):
        svc = VerificationService(Session(build_topology("fattree", 4)))  # 32 links
        httpd = create_server(svc, port=0)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        base = "http://%s:%d" % httpd.server_address[:2]
        try:
            for path, body in [
                ("/failures", {"k": 4}),
                ("/failures", {"k": 10**9, "properties": ["reachability"]}),
                ("/k-resilience", {"max_k": 4}),
            ]:
                start = time.perf_counter()
                status, answer = _post(base, path, body)
                assert time.perf_counter() - start < 1.0
                assert status == 400 and not answer["ok"]
                assert "sample" in answer["error"]
            assert "enumerates 41448 failure scenarios" in answer["error"]
            assert svc.registry.counter("serve.refused.scenarios").value == 3
            assert svc.registry.counter("serve.refused.malformed").value == 0
            assert _get(base, "/health")[0] == 200
        finally:
            httpd.shutdown()
            httpd.server_close()

    @pytest.mark.parametrize(
        "path, body, length, reason, error",
        [
            ("/verify", b"", str(MAX_BODY_BYTES + 1).encode(), "oversize",
             b"bad request body: Content-Length"),
            ("/verify", b"{broken", None, "malformed", b"bad request body: Expecting"),
            ("/verify", b"[1, 2]", None, "malformed", b"must be a JSON object"),
            ("/delta", b'{"script": [{"kind": "link-remove", "u": "r0"}]}', None,
             "malformed", b"link-remove: field 'v' is missing"),
            ("/failures", b'{"k": "x"}', None, "malformed",
             b"field 'k' must be a JSON integer"),
            ("/failures", b'{"k": 1.9}', None, "malformed",
             b"field 'k' must be a JSON integer, got 1.9"),
            ("/failures", b'{"k": true}', None, "malformed",
             b"field 'k' must be a JSON integer, got true"),
            ("/failures", b'{"k": 1, "sample": "3"}', None, "malformed",
             b"field 'sample' must be a JSON integer"),
            ("/k-resilience", b'{"max_k": 2.0}', None, "malformed",
             b"field 'max_k' must be a JSON integer, got 2.0"),
            ("/delta", b'{"script": [], "revalidate": "false"}', None, "malformed",
             b"field 'revalidate' must be a JSON boolean"),
        ],
        ids=["oversize", "not-json", "json-array", "delta-missing-field", "failures-bad-k",
             "failures-float-k", "failures-bool-k", "failures-string-sample",
             "k-resilience-float-max-k", "delta-string-revalidate"],
    )
    def test_every_400_is_counted(self, server, service, path, body, length, reason, error):
        counter = service.registry.counter(f"serve.refused.{reason}")
        before = counter.value
        cursor = service.event_log.latest_cursor()
        response = _raw_post(server, path, body, length)
        assert response.startswith(b"HTTP/1.1 400")
        assert error in response
        assert counter.value == before + 1
        refused = [
            event for event in service.event_log.since(cursor)["events"]
            if event["type"] == "serve.refused"
        ]
        assert [event["reason"] for event in refused] == [reason]

    def test_stalled_body_gets_408_and_hang_up(self, server, service, monkeypatch):
        monkeypatch.setattr(serve_http, "REQUEST_TIMEOUT_SECONDS", 0.5)
        before = service.registry.counter("serve.refused.timeout").value
        parsed = urlparse(server)
        with socket.create_connection((parsed.hostname, parsed.port), timeout=10) as sock:
            sock.sendall(
                b"POST /verify HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
                b'{"prefix":'
            )
            response = b""
            while chunk := sock.recv(4096):  # until the server hangs up
                response += chunk
        assert response.startswith(b"HTTP/1.1 408")
        assert b"100 bytes announced" in response
        assert response.count(b"HTTP/1.1 ") == 1
        assert service.registry.counter("serve.refused.timeout").value == before + 1

    def test_stalled_headers_get_408_and_hang_up(self, server, service, monkeypatch):
        monkeypatch.setattr(serve_http, "REQUEST_TIMEOUT_SECONDS", 0.5)
        before = service.registry.counter("serve.refused.timeout").value
        cursor = service.event_log.latest_cursor()
        parsed = urlparse(server)
        with socket.create_connection((parsed.hostname, parsed.port), timeout=10) as sock:
            sock.sendall(b"POST /verify HTTP/1.1\r\nHost: test\r\nContent-Ty")
            response = b""
            while chunk := sock.recv(4096):  # until the server hangs up
                response += chunk
        assert response.startswith(b"HTTP/1.1 408")
        assert b"request headers incomplete after 0.5s" in response
        assert response.count(b"HTTP/1.1 ") == 1
        assert service.registry.counter("serve.refused.timeout").value == before + 1
        refused = [
            event for event in service.event_log.since(cursor)["events"]
            if event["type"] == "serve.refused"
        ]
        assert [event["reason"] for event in refused] == ["timeout"]

    def test_idle_connection_closes_silently(self, server, service, monkeypatch):
        monkeypatch.setattr(serve_http, "REQUEST_TIMEOUT_SECONDS", 0.5)
        before = service.registry.counter("serve.refused.timeout").value
        parsed = urlparse(server)
        with socket.create_connection((parsed.hostname, parsed.port), timeout=10) as sock:
            assert sock.recv(4096) == b""  # the server hangs up, saying nothing
        assert service.registry.counter("serve.refused.timeout").value == before


class TestPersistentConnection:
    """What only a kept-alive client sees (every other test here opens a
    connection per request, where a two-write response costs nothing)."""

    def test_every_response_is_one_write(self, service):
        writes = []

        class Counting(ServeHandler):
            def setup(self):
                super().setup()
                send = self.wfile.write

                def counted(data):
                    writes.append(len(data))
                    return send(data)

                self.wfile.write = counted

        bounded = VerificationService(service.session, max_inflight=1)
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Counting)
        httpd.service = bounded
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        connection = http.client.HTTPConnection(*httpd.server_address[:2], timeout=60)

        def post(path, body):
            connection.request(
                "POST", path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())

        try:
            prefix = str(service.session.classes[0].prefix)
            for _ in range(20):
                assert post("/verify", json.dumps({"prefix": prefix}))[0] == 200
            script = _change_script(service.session.network)
            assert post("/delta", json.dumps({"script": script}))[0] == 200
            # The 400 parse_request sends itself, before any do_POST.
            assert post("/verify", "{broken")[0] == 400
            with bounded.track_request("verify"):
                assert post("/verify", "{}")[0] == 503
            # Still the same connection, still in step.
            assert post("/verify", "{}")[0] == 200
        finally:
            connection.close()
            httpd.shutdown()
            httpd.server_close()
        assert len(writes) == 24 and all(writes)


class TestSessionKeptBaselines:
    """The per-class baselines a session keeps between requests."""

    @staticmethod
    def _scripts(network, count):
        return [
            [step.to_dict() for step in generated_change_script(network, "ring", steps=1, seed=seed)]
            for seed in range(count)
        ]

    def test_racing_first_requests_answer_like_serial_ones(self):
        """4 threads, distinct scripts, one cold service: the threads race
        to fill the kept baselines (nothing is locked while one is built)
        and every answer equals the one a serial service gives."""
        network = build_topology("ring", 5)
        scripts = self._scripts(network, 8)
        serial = VerificationService(Session(network))
        expected = [scrub(serial.delta(script)) for script in scripts]
        racing = VerificationService(Session(network))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                answers = list(pool.map(racing.delta, scripts, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert [scrub(answer) for answer in answers] == expected
        assert len(racing.session._warm._kept) == len(racing.session.classes)

    def test_a_sweep_over_a_stored_baseline_never_fingerprints(self, service, monkeypatch):
        """A service's event log is always listening, and a sweep over
        the stored artifact must not re-hash the whole network for it."""
        import repro.store.fingerprint

        hashed = []
        monkeypatch.setattr(repro.store.fingerprint, "network_fingerprint", hashed.append)
        cursor = service.event_log.latest_cursor()
        script = _change_script(service.session.network)
        assert service.delta(script)["ok"] is True
        assert service.failures(k=1, sample=2, properties=["reachability"])["kind"] == "failures"
        started = [
            event for event in service.event_log.since(cursor)["events"]
            if event["type"] == "sweep.start"
        ]
        assert len(started) == 2
        assert hashed == []

    def test_nothing_kept_rides_in_the_artifact(self):
        network = build_topology("ring", 5)
        session = Session(network)
        stored = session.baseline.baselines.values()

        def solved():  # what a class's solve left: labeling and memo
            return pickle.dumps([(b.labeling, b.transfer_memo) for b in stored])

        # Readers copy the memo: from the very first /verify (which
        # validates the stored labelings) and /delta these pickle as they
        # were built.
        cold = solved()
        service = VerificationService(session)
        first, *later = self._scripts(network, 10)
        assert service.verify()["ok"] is True
        assert service.delta(first)["ok"] is True
        assert solved() == cold
        # The stored *abstract networks* memoise their class and local-pref
        # views on first use (``Network._dec_cache`` / ``_lp_cache``, there
        # since before the store); past that the whole artifact is fixed.
        before = len(pickle.dumps(session.baseline))
        for script in later:
            assert service.delta(script)["ok"] is True
        assert len(session._warm._kept) == len(session.classes)
        assert len(pickle.dumps(session.baseline)) == before
        assert solved() == cold
        # Pool workers get the stored baselines, not what was built from them.
        assert pickle.loads(pickle.dumps(session._warm))._kept == {}


class TestWarmService:
    def test_loads_from_store(self, tmp_path):
        network = build_topology("ring", 5)
        Session(network, store=tmp_path)  # builds and saves
        service = warm_service(build_topology("ring", 5), store=tmp_path)
        assert not service.session.rebuilt
        assert service.health()["classes"] == 5


# ----------------------------------------------------------------------
# Admission control + /events (the observability PR's serve surface)
# ----------------------------------------------------------------------
class TestAdmissionControl:
    @pytest.fixture()
    def bounded(self, service):
        """A service sharing the warm session, bounded to one in-flight
        query, behind its own ephemeral server."""
        from repro.obs import events as obs_events

        svc = VerificationService(service.session, max_inflight=1)
        httpd = create_server(svc, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        yield svc, f"http://{host}:{port}"
        httpd.shutdown()
        httpd.server_close()
        svc.event_log.close()
        obs_events.unsubscribe(svc.event_log)

    def test_inflight_gauge_tracks_requests(self, bounded):
        svc, _ = bounded
        with svc.track_request("verify"):
            assert svc.inflight_snapshot() == {"verify": 1}
            assert svc.registry.gauge("serve.inflight.verify").value == 1
        assert svc.inflight_snapshot() == {"verify": 0}
        assert svc.registry.gauge("serve.inflight.verify").value == 0

    def test_saturated_service_returns_503_with_retry_after(self, bounded):
        svc, base = bounded
        with svc.track_request("verify"):
            request = urllib.request.Request(
                base + "/verify", data=b"{}",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=30)
            assert err.value.code == 503
            assert err.value.headers["Retry-After"] == "1"
            answer = json.loads(err.value.read())
            assert answer["ok"] is False and answer["retry_after"] == 1
        # Once the slot frees, the same query succeeds.
        status, answer = _post(base, "/verify", {})
        assert status == 200 and answer["ok"] is True
        collected = svc.registry.collect()["counters"]
        assert collected["serve.rejected.verify"] == 1

    def test_stats_surface_inflight_block(self, bounded):
        svc, base = bounded
        status, stats = _get(base, "/stats")
        assert status == 200
        assert stats["inflight"]["limit"] == 1
        assert isinstance(stats["inflight"]["by_kind"], dict)

    def test_events_endpoint_long_poll(self, bounded):
        from repro.obs import events as obs_events

        svc, base = bounded
        obs_events.emit("test.ping", n=1)
        status, page = _get(base, "/events?cursor=0")
        assert status == 200 and page["ok"] is True
        types = [e["type"] for e in page["events"]]
        assert "test.ping" in types
        cursor = page["cursor"]
        # Nothing newer: an immediate poll returns empty at the cursor.
        status, page = _get(base, f"/events?cursor={cursor}")
        assert status == 200 and page["events"] == []

        def later():
            time.sleep(0.05)
            obs_events.emit("test.pong", n=2)

        thread = threading.Thread(target=later)
        thread.start()
        status, page = _get(base, f"/events?cursor={cursor}&timeout=5")
        thread.join()
        assert status == 200
        assert [e["type"] for e in page["events"]] == ["test.pong"]

    def test_unbounded_service_never_saturates(self, service):
        with service.track_request("verify"):
            with service.track_request("verify"):
                assert service.inflight_snapshot()["verify"] == 2
