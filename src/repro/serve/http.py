"""The stdlib HTTP front-end of the warm-baseline service.

A :class:`ThreadingHTTPServer` (one thread per connection -- which is
what makes the service's per-class query coalescing matter) exposing:

====================  ======  ==============================================
endpoint              method  body / answer
====================  ======  ==============================================
``/health``           GET     service identity and warm-baseline stats
``/stats``            GET     per-kind query latency percentiles
``/metrics``          GET     Prometheus text exposition (global + serve)
``/events``           GET     ``?cursor=N&timeout=S`` -> events since N
``/verify``           POST    ``{"prefix"?, "properties"?}`` -> report dict
``/delta``            POST    ``{"script": [...], "revalidate"?}`` -> report
``/failures``         POST    ``{"k"?, "sample"?, "properties"?}`` -> report
``/k-resilience``     POST    ``{"max_k"?, "property"?, "sample"?}`` -> dict
====================  ======  ==============================================

Every report answer carries the shared envelope (``schema_version`` /
``kind`` / ``ok`` / ``generated_by``), so clients gate on ``ok`` without
knowing the report kind.  Malformed requests get 400 with a diagnostic,
each counted under ``serve.refused.<reason>``; unexpected errors get 500;
both as JSON.  Headers or a body that stop arriving for
:data:`REQUEST_TIMEOUT_SECONDS` get 408 and the connection closed, so a
stalled client cannot hold its handler thread.  Query
endpoints count toward the service's in-flight bound (``--max-inflight``);
past it they get ``503`` with a ``Retry-After`` header instead of another
queued thread.
"""

from __future__ import annotations

import json
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Sequence, Tuple

from repro.serve.service import Refused, ServiceSaturated, VerificationService

#: Request bodies above this size are rejected (a change script of
#: thousands of steps is a client bug, not a workload).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Socket timeout of every connection: a read that waits longer than this
#: (stalled headers or body, or a kept-alive connection left idle) ends it.
REQUEST_TIMEOUT_SECONDS = 30.0


class ServeHandler(BaseHTTPRequestHandler):
    """Dispatches HTTP requests to the owning server's service."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # Silence the default stderr access log; the service keeps stats.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def service(self) -> VerificationService:
        return self.server.service  # type: ignore[attr-defined]

    @property
    def timeout(self) -> float:  # read by ``setup`` once per connection
        return REQUEST_TIMEOUT_SECONDS

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _respond(
        self,
        status: int,
        payload,
        content_type: str = "application/json",
        headers: Sequence[Tuple[str, str]] = (),
    ) -> None:
        """Write one response, in one write: the only place this module
        writes to the socket.  ``payload`` is text for a non-JSON
        ``content_type``, else anything ``json.dumps`` takes.

        ``wfile`` is unbuffered, so ``end_headers()`` plus a body write is
        two small sends, and on a kept-alive connection the second waits
        out the client's delayed ACK (Nagle), 40 ms per response.  The
        body leaves with the stdlib's header buffer instead.
        """
        if content_type == "application/json":
            payload = json.dumps(payload)
        body = payload.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _read_body(self) -> dict:
        """The request's JSON object; anything else raises a counted
        :class:`~repro.serve.service.Refused`."""
        announced = self.headers.get("Content-Length") or "0"
        try:
            length = int(announced)
        except ValueError:
            raise self._refuse_unread(
                "malformed", f"invalid Content-Length {announced!r}"
            ) from None
        if not 0 <= length <= MAX_BODY_BYTES:
            # A negative length would make rfile.read(-1) block on the open
            # keep-alive socket until the client hangs up.
            raise self._refuse_unread(
                "oversize", f"Content-Length {length} is not within 0..{MAX_BODY_BYTES}"
            )
        if length == 0:
            return {}
        try:
            data = json.loads(self.rfile.read(length).decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise self.service.refused("malformed", str(exc)) from None
        if not isinstance(data, dict):
            raise self.service.refused("malformed", "request body must be a JSON object")
        return data

    def _refuse_unread(self, reason: str, message: str) -> Refused:
        """Refuse a request with its body unread.  Left open, the connection
        would parse those bytes as the next request: hang up after answering."""
        self.close_connection = True
        return self.service.refused(reason, message)

    def _dispatch(self, handler, kind: Optional[str] = None) -> None:
        try:
            if kind is not None:
                with self.service.track_request(kind):
                    payload = handler()
            else:
                payload = handler()
            self._respond(200, payload)
        except ServiceSaturated as exc:
            self._respond(
                503,
                {"ok": False, "error": str(exc), "retry_after": exc.retry_after_seconds},
                headers=[("Retry-After", str(exc.retry_after_seconds))],
            )
        except Refused as exc:
            self._respond(400, {"ok": False, "error": str(exc)})
        except (ValueError, KeyError, TypeError) as exc:
            refusal = self.service.refused("malformed", str(exc))
            self._respond(400, {"ok": False, "error": str(refusal)})
        except Exception as exc:  # pragma: no cover - defensive
            self._respond(500, {"ok": False, "error": f"internal error: {exc}"})

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urllib.parse.urlsplit(self.path)
        if parsed.path == "/events":
            query = urllib.parse.parse_qs(parsed.query)

            def events() -> dict:
                cursor = int((query.get("cursor") or ["0"])[0])
                timeout = float((query.get("timeout") or ["0"])[0])
                return self.service.events_since(cursor, timeout=timeout)

            self._dispatch(events)
            return
        if self.path == "/health":
            self._dispatch(self.service.health)
        elif self.path == "/stats":
            self._dispatch(self.service.stats_summary)
        elif self.path == "/metrics":
            try:
                body = self.service.metrics_text()
            except Exception as exc:  # pragma: no cover - defensive
                self._respond(500, {"ok": False, "error": f"internal error: {exc}"})
                return
            self._respond(200, body, "text/plain; version=0.0.4; charset=utf-8")
        else:
            self._respond(404, {"ok": False, "error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/verify":
            self._dispatch(
                lambda: self.service.verify(
                    prefix=self._body.get("prefix"),
                    properties=self._body.get("properties"),
                ),
                kind="verify",
            )
        elif self.path == "/delta":
            self._dispatch(
                lambda: self.service.delta(
                    script=self._require(self._body, "script"),
                    revalidate=self._typed("revalidate", bool, True),
                ),
                kind="delta",
            )
        elif self.path == "/failures":
            self._dispatch(
                lambda: self.service.failures(
                    k=self._typed("k", int, 1),
                    sample=self._typed("sample", int, None),
                    properties=self._body.get("properties"),
                ),
                kind="failures",
            )
        elif self.path == "/k-resilience":
            self._dispatch(
                lambda: self.service.k_resilience(
                    max_k=self._typed("max_k", int, 2),
                    prop=str(self._body.get("property", "reachability")),
                    sample=self._typed("sample", int, None),
                ),
                kind="k_resilience",
            )
        else:
            self._respond(404, {"ok": False, "error": f"unknown path {self.path!r}"})

    def parse_request(self) -> bool:  # read the body once per request
        self._body = {}
        stalled = "headers"
        try:
            ok = super().parse_request()
            if ok and self.command == "POST":
                stalled = f"body ({self.headers.get('Content-Length')} bytes announced)"
                self._body = self._read_body()
        except Refused as exc:
            self._respond(400, {"ok": False, "error": f"bad request body: {exc}"})
            return False
        except TimeoutError:
            # The request line arrived, the rest stopped: what did arrive is
            # lost, so the connection cannot be resumed.  (A kept-alive
            # connection idle before any request line ends silently in the
            # stdlib's ``handle_one_request``.)
            self.close_connection = True
            self._respond(408, {"ok": False, "error": str(self.service.refused(
                "timeout",
                f"request {stalled} incomplete after {REQUEST_TIMEOUT_SECONDS}s",
            ))})
            return False
        return ok

    @staticmethod
    def _require(body: dict, key: str):
        if key not in body:
            raise ValueError(f"missing required field {key!r}")
        return body[key]

    def _typed(self, key: str, kind: type, default):
        """The body's ``key`` (``default`` when absent, or null where the
        default is), refused unless it is a JSON value of ``kind``: no
        coercion, and a boolean is not an integer."""
        value = self._body.get(key, default)
        if type(value) is kind or (value is None and default is None):
            return value
        expected = "boolean" if kind is bool else "integer"
        raise ValueError(f"field {key!r} must be a JSON {expected}, got {json.dumps(value)}")


def create_server(
    service: VerificationService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """A ready-to-run threaded server bound to ``host:port`` (0 = ephemeral)."""
    server = ThreadingHTTPServer((host, port), ServeHandler)
    server.service = service  # type: ignore[attr-defined]
    return server


def serve(
    service: VerificationService,
    host: str = "127.0.0.1",
    port: int = 8642,
) -> None:
    """Run the service until interrupted (the CLI ``serve`` entry point)."""
    server = create_server(service, host=host, port=port)
    bound: Tuple[str, int] = server.server_address[:2]
    # Flushed so wrappers (tests, process supervisors) reading the pipe
    # see the bound address before the first request.
    print(f"repro-serve listening on http://{bound[0]}:{bound[1]}", flush=True)
    print(
        f"warm baseline: {service.session.network.name} "
        f"({len(service.session.classes)} classes, "
        f"fingerprint {service.session.fingerprint[:12]}...)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def warm_service(
    network=None,
    *,
    store=None,
    baseline=None,
    max_inflight: Optional[int] = None,
) -> VerificationService:
    """Build (or load) a warm session and wrap it in a service."""
    from repro.api import Session

    session = Session(network, baseline=baseline, store=store)
    return VerificationService(session, max_inflight=max_inflight)
