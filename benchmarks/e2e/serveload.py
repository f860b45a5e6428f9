"""The ``serve-mixed`` traffic: a closed loop over persistent connections.

Closed loop, :data:`CLIENTS` client threads, one persistent HTTP/1.1
connection each (what the server advertises, and where a 44 ms per
request stall lives that a fresh-connection client never sees).  Each
client sends its next request only after the previous answer arrived.
The request sequence is seeded: :data:`VERIFY_PER_DELTA` ``/verify``
queries for one prefix each (answer-cached reads) then one ``/delta``
with a fresh 1-step generated change script (uncached engine work),
repeating.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from harness import ServeChild, request

#: Closed-loop clients; at most ``nproc`` of the 2-core reference box.
CLIENTS = 2
VERIFY_PER_DELTA = 49
#: Distinct delta scripts per client; generated before the window opens
#: so that client-side generation is not timed.
DELTA_SCRIPTS = 16


@dataclass
class LoadResult:
    """What the clients saw during the measured window."""

    window_s: float
    #: Sum over clients of requests completed per second of the interval
    #: from the client's first counted request to its last (not of the
    #: nominal window: a count over a fixed window is quantised).
    qps: float = 0.0
    latencies_ms: Dict[str, List[float]] = field(
        default_factory=lambda: {"verify": [], "delta": []}
    )
    response_bytes: List[int] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(len(v) for v in self.latencies_ms.values())


def request_plan(family: str, size: int, seed: int) -> List[List[Tuple[str, dict]]]:
    """Per client, one cycle-able list of ``(path, payload)`` requests.

    Built in the harness process from the seed; the server only ever sees
    the generated requests.
    """
    from repro.abstraction.ec import routable_equivalence_classes
    from repro.netgen.changes import generated_change_script
    from repro.netgen.families import build_topology

    network = build_topology(family, size)
    prefixes = [str(ec.prefix) for ec in routable_equivalence_classes(network)]
    plans = []
    for client in range(CLIENTS):
        rng = random.Random(f"serve-mixed:{seed}:{client}")
        plan: List[Tuple[str, dict]] = []
        for _ in range(DELTA_SCRIPTS):
            plan += [
                ("/verify", {"prefix": rng.choice(prefixes)})
                for _ in range(VERIFY_PER_DELTA)
            ]
            script = generated_change_script(
                network, family, steps=1, seed=rng.randrange(2**31)
            )
            plan.append(("/delta", {"script": [step.to_dict() for step in script]}))
        plans.append(plan)
    return plans


def check_answer(path: str, payload: dict, status: int, body: dict) -> str:
    """Empty when the answer is right, else what is wrong with it."""
    if status != 200 or body.get("ok") is not True:
        return f"{path}: status {status}, ok={body.get('ok')!r}: {body.get('error', '')}"
    if path == "/verify":
        records = body.get("records", [])
        if [r["prefix"] for r in records] != [payload["prefix"]]:
            return f"/verify {payload['prefix']}: answered for {len(records)} classes"
        totals = body["aggregate"]["property_totals"]
        failing = sum(t["concrete_failed"] + t["mismatched"] for t in totals.values())
        if failing:
            return f"/verify {payload['prefix']}: {failing} failing or mismatched nodes"
    elif body.get("num_steps") != len(payload["script"]):
        return f"/delta: answered {body.get('num_steps')} steps"
    return ""


def run_load(
    server: ServeChild,
    plans: List[List[Tuple[str, dict]]],
    warmup_s: float,
    window_s: float,
) -> LoadResult:
    """Drive the closed loop for ``warmup_s`` untimed then ``window_s`` timed."""
    result = LoadResult(window_s=window_s)
    lock = threading.Lock()
    opens = time.perf_counter() + warmup_s
    closes = opens + window_s

    def client(plan: List[Tuple[str, dict]]) -> None:
        latencies: Dict[str, List[float]] = {"verify": [], "delta": []}
        sizes: List[int] = []
        failures: List[str] = []
        attempted = 0
        first_start = last_end = 0.0
        connection = server.connect()
        try:
            index = 0
            while True:
                path, payload = plan[index % len(plan)]
                index += 1
                start = time.perf_counter()
                if start >= closes:
                    break
                try:
                    status, body, nbytes = request(connection, "POST", path, payload)
                except (OSError, ValueError) as exc:
                    attempted += 1
                    failures.append(f"{path}: {type(exc).__name__}: {exc}")
                    break
                end = time.perf_counter()
                # Only requests wholly inside the window count.
                if start < opens or end > closes:
                    continue
                attempted += 1
                first_start = first_start or start
                last_end = end
                problem = check_answer(path, payload, status, body)
                if problem:
                    failures.append(problem)
                latencies[path[1:]].append((end - start) * 1e3)
                sizes.append(nbytes)
        finally:
            connection.close()
            with lock:
                for kind, values in latencies.items():
                    result.latencies_ms[kind] += values
                result.response_bytes += sizes
                result.attempted += attempted
                if last_end > first_start:
                    result.qps += len(sizes) / (last_end - first_start)
                result.failures += failures

    threads = [threading.Thread(target=client, args=(plan,)) for plan in plans]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return result
