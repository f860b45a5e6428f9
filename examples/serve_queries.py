#!/usr/bin/env python3
"""The warm-baseline verification service, end to end.

This example does what a network operations pipeline would: build a
fat-tree's warm baseline once (encode + solve + compress every
destination class), persist it to an artifact store, start the
``repro.serve`` HTTP service off the stored artifact on an ephemeral
port, and fire a burst of concurrent queries at it --

* per-class and whole-network ``/verify`` queries (answered on the
  stored labelings, validated once per class, and the stored
  compressions: no scratch re-solve, no re-compression),
* a ``/delta`` what-if change script (validated with zero baseline
  re-solves),
* a ``/k-resilience`` probe,
* 50 ``/verify`` and 2 ``/delta`` requests over *one* persistent
  HTTP/1.1 connection, the shape a long-lived client has (a response
  written as two small sends stalls 40 ms there and nowhere else); the
  ``/delta`` script is an ACL over off-site space, which no class's edge
  diff notices,

then prints the service's per-kind latency percentiles.  Exits non-zero
unless every response is 2xx with ``ok: true``, the persistent
``/verify`` median stays under ``PERSISTENT_VERIFY_BUDGET_MS`` and
``/metrics`` shows every class-step of the two invariant ``/delta``
requests carried forward (a work count, so it holds on a noisy runner).

Run with::

    PYTHONPATH=src python examples/serve_queries.py
"""

import http.client
import json
import statistics
import sys
import tempfile
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from repro import fattree_network
from repro.api import Session
from repro.netgen.changes import generated_change_script
from repro.serve import VerificationService, create_server


def post(url, payload):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


def get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


#: A cached per-class ``/verify`` on a kept-alive connection takes under a
#: millisecond; with the two-write stall it took 44.  Loose enough for a
#: shared CI runner, tight enough to catch the stall coming back.
PERSISTENT_VERIFY_BUDGET_MS = 20.0


def class_steps(connection):
    """``(carried, resolved)`` delta class-steps so far, from ``/metrics``."""
    connection.request("GET", "/metrics")
    text = connection.getresponse().read().decode("utf-8")
    counts = dict(line.split() for line in text.splitlines() if not line.startswith("#"))
    return tuple(
        int(counts.get(f"repro_delta_class_steps_{path}_total", 0))
        for path in ("carried", "resolved")
    )


def persistent_leg(host, port, verify_payload, delta_payload, expect_ok):
    """50 ``/verify`` + 2 ``/delta`` over one connection -> latencies in ms,
    and the ``(carried, resolved)`` class-steps the two ``/delta`` cost."""
    latencies = {"/verify": [], "/delta": []}
    connection = http.client.HTTPConnection(host, port, timeout=120)
    try:
        before = class_steps(connection)
        for path, payload in [("/verify", verify_payload)] * 50 + [("/delta", delta_payload)] * 2:
            start = time.perf_counter()
            connection.request(
                "POST", path, body=json.dumps(payload),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            answer = json.loads(response.read())
            latencies[path].append((time.perf_counter() - start) * 1e3)
            expect_ok(f"persistent {path}", response.status, answer)
        after = class_steps(connection)
    finally:
        connection.close()
    return latencies, tuple(now - then for now, then in zip(after, before))


def main() -> int:
    network = fattree_network(k=4)

    with tempfile.TemporaryDirectory() as store_root:
        # Pay the baseline cost once, persist, then reload through the
        # verified store path -- exactly what a long-running service does
        # across restarts.
        print("building + storing the warm baseline...")
        Session(network, store=store_root)
        session = Session.load(store_root, network=fattree_network(k=4))
        print(
            f"  {len(session.classes)} destination classes, "
            f"fingerprint {session.fingerprint[:12]}..."
        )

        service = VerificationService(session)
        server = create_server(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        print(f"  serving on {base}")

        failures = []

        def expect_ok(label, status, answer):
            if status != 200 or answer.get("ok") is not True:
                failures.append(f"{label}: status={status} ok={answer.get('ok')}")

        # Health first.
        expect_ok("health", *get(f"{base}/health"))

        # A concurrent burst: every per-class query plus whole-network
        # sweeps, eight clients at once.  Identical in-flight queries are
        # coalesced server-side; repeated ones hit the answer cache.
        queries = [{"prefix": str(ec.prefix)} for ec in session.classes]
        queries += [{}] * 4
        queries *= 4

        def one_verify(payload):
            expect_ok(f"verify {payload or 'all'}", *post(f"{base}/verify", payload))

        print(f"firing {len(queries)} concurrent verify queries...")
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(one_verify, queries))

        # A what-if change script, validated against the stored baseline.
        device = sorted(str(d) for d in network.devices)[0]
        peer = str(next(iter(network.graph.successors(device))))
        script = [
            {
                "name": "prefer-peer",
                "changes": [
                    {
                        "kind": "local-pref-override",
                        "device": device,
                        "peer": peer,
                        "local_pref": 300,
                    }
                ],
            }
        ]
        status, answer = post(f"{base}/delta", {"script": script})
        expect_ok("delta", status, answer)
        if status == 200:
            print(
                f"delta: {answer['num_classes']} classes validated against "
                f"baseline {str(answer['baseline_fingerprint'])[:12]}..."
            )

        status, answer = post(f"{base}/k-resilience", {"max_k": 1, "sample": 8})
        expect_ok("k-resilience", status, answer)
        if status == 200:
            print(f"k-resilience: breaking_k={answer.get('breaking_k')}")

        invariant = [
            step.to_dict() for step in generated_change_script(network, "fattree", steps=1)
        ]
        latencies, (carried, resolved) = persistent_leg(
            host, port, queries[0], {"script": invariant}, expect_ok
        )
        print("one persistent connection:")
        for path, values in latencies.items():
            print(
                f"  {path:8s} n={len(values):3d} "
                f"median {statistics.median(values):7.2f}ms  max {max(values):7.2f}ms"
            )
        verify_median = statistics.median(latencies["/verify"])
        if verify_median > PERSISTENT_VERIFY_BUDGET_MS:
            failures.append(
                f"persistent /verify median {verify_median:.1f}ms exceeds "
                f"{PERSISTENT_VERIFY_BUDGET_MS:.0f}ms (responses leaving in two writes?)"
            )

        print(f"  invariant /delta x2: {carried} class-steps carried, {resolved} re-solved")
        if (carried, resolved) != (2 * len(session.classes), 0):
            failures.append(
                f"invariant /delta: {carried} class-steps carried and {resolved} re-solved, "
                f"expected {2 * len(session.classes)} and 0"
            )

        # Latency accounting straight from the service.
        status, stats = get(f"{base}/stats")
        expect_ok("stats", status, stats)
        print("latency percentiles per query kind:")
        for kind, summary in sorted(stats.get("queries", {}).items()):
            print(
                f"  {kind:12s} n={summary['count']:4d} "
                f"(coalesced {summary['coalesced']}) "
                f"p50 {summary['p50_ms']:7.2f}ms  p95 {summary['p95_ms']:7.2f}ms"
            )

        server.shutdown()
        server.server_close()

        if failures:
            for failure in failures:
                print(f"FAILED: {failure}", file=sys.stderr)
            return 1
        print("every query answered 200 ok")
        return 0


if __name__ == "__main__":
    sys.exit(main())
