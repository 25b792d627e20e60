"""In-process scriptable endpoint for the tests: chat completions and embeddings.

MockModelServer is a real HTTP server on a loopback port, so every network
path of docqa_engine.gateway.GatewayClient runs end to end in the tests.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from docqa_engine.gateway import EndpointConfig, GatewayClient, hash_embedder


@dataclass
class MockReply:
    """One scripted chat response: text, or a failure status, or raw body,
    with optional extra response headers."""

    text: str = ""
    status: int = 200
    delay: float = 0.0
    json_body: dict | None = None
    headers: dict[str, str] = field(default_factory=dict)


UNSCRIPTED = MockReply(status=404, json_body={"error": "unscripted request"})


def _as_reply(entry) -> MockReply:
    return entry if isinstance(entry, MockReply) else MockReply(text=str(entry))


class _MockRequestHandler(BaseHTTPRequestHandler):
    server_version = "MockModel/1.0"
    protocol_version = "HTTP/1.1"
    # Keep-alive plus Nagle would hold each response body until the client's
    # delayed ACK of the headers.
    disable_nagle_algorithm = True

    def log_message(self, *args):  # keep pytest output clean
        pass

    def _send(self, status: int, body: dict, headers: dict[str, str] | None = None) -> None:
        data = json.dumps(body, ensure_ascii=False).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            # the client hung up first (its timeout ran out): nobody to answer
            self.close_connection = True

    def do_POST(self):
        owner: MockModelServer = self.server.owner  # type: ignore[attr-defined]
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) if length else b"{}")
        owner._enter()
        try:
            if self.path.endswith("/chat/completions"):
                reply = owner._chat_reply(payload)
                if reply.delay:  # tests patch time.sleep to record backoff waits
                    time.sleep(reply.delay)
                if reply.json_body is not None:
                    body = reply.json_body
                elif reply.status != 200:
                    body = {"error": f"scripted status {reply.status}"}
                else:
                    body = {"choices": [{"message": {"content": reply.text}}]}
                self._send(reply.status, body, reply.headers)
            elif self.path.endswith("/embeddings"):
                vectors = owner._embed_reply(payload)
                if isinstance(vectors, MockReply):  # a scripted failure
                    self._send(vectors.status, {"error": f"scripted status {vectors.status}"})
                else:
                    self._send(200, {"data": [{"embedding": v} for v in vectors]})
            else:
                self._send(404, {"error": f"unknown path {self.path}"})
        finally:
            owner._leave()


class MockModelServer:
    """In-process deterministic endpoint for generation and embeddings.

    Chat behavior comes from ``chat``: a fixed string, a list consumed in
    arrival order, or a callable (payload, call_index) -> str | MockReply.
    An unscripted request fails with 404. Embeddings come from ``embed``
    (callable texts -> vectors, or a MockReply whose status the request
    fails with), defaulting to the deterministic hash embedder. Every request is appended to ``request_log``; peak handler
    concurrency is tracked in ``max_in_flight_observed``.
    """

    def __init__(self, chat=None,
                 embed: Callable[[list[str]], list[list[float]] | MockReply] | None = None,
                 dim: int = 1024):
        self._chat = chat
        self._embed_fn = embed or hash_embedder(dim)
        self.request_log: list[dict] = []
        self.max_in_flight_observed = 0
        self._in_flight = 0
        self._chat_calls = 0
        self._lock = threading.Lock()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _MockRequestHandler)
        self._server.daemon_threads = True
        self._server.owner = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self) -> "MockModelServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def make_client(self, **overrides) -> GatewayClient:
        values = {"base_url": self.base_url, "model_name": "mock-model", "timeout": 5.0,
                  "max_retries": 2, "backoff_base": 0.01, **overrides}
        return GatewayClient(EndpointConfig(**values))

    def _enter(self) -> None:
        with self._lock:
            self._in_flight += 1
            self.max_in_flight_observed = max(self.max_in_flight_observed, self._in_flight)

    def _leave(self) -> None:
        with self._lock:
            self._in_flight -= 1

    def _chat_reply(self, payload: dict) -> MockReply:
        with self._lock:
            index = self._chat_calls
            self._chat_calls += 1
            self.request_log.append({"kind": "chat", "payload": payload})
        script = self._chat
        if isinstance(script, str):
            return _as_reply(script)
        if isinstance(script, list):
            return _as_reply(script[index]) if index < len(script) else UNSCRIPTED
        if callable(script):
            return _as_reply(script(payload, index))
        return UNSCRIPTED

    def _embed_reply(self, payload: dict) -> list[list[float]] | MockReply:
        with self._lock:
            self.request_log.append({"kind": "embed", "payload": payload})
        return self._embed_fn(list(payload.get("input") or []))
