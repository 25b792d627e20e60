"""Transport layer for generation and embedding endpoints.

GatewayClient speaks the de-facto JSON-over-HTTP shapes: POST
{model, messages, ...} -> {choices: [{message: {content}}]} for chat and
POST {model, input: [...]} -> {data: [{embedding: [...]}]} for embeddings.
MockModelServer is a real in-process HTTP server with scriptable,
deterministic behavior so every network path can be exercised in tests.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import queue
import threading
import time
import weakref
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import urlsplit

import numpy as np

from .errors import ConfigError, ContractError, EndpointError, TransportError


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model_name: str
    timeout: float = 30.0  # seconds
    max_retries: int = 2
    max_in_flight: int = 4
    auth_token: str | None = None
    backoff_base: float = 0.5  # first retry delay; doubles per attempt

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


def _retry_after_seconds(value: str | None) -> float:
    """A Retry-After header in delta-seconds; 0 when absent or an HTTP date."""
    value = (value or "").strip()
    return float(int(value)) if value.isdecimal() else 0.0


# Errors raised before any status line arrives: on a reused keep-alive
# connection they mean the server closed it while it sat idle in the pool.
_STALE_CONNECTION = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    for conn in connections:
        conn.close()


class GatewayClient:
    """Shared client for one endpoint.

    It keeps ``max_in_flight`` keep-alive connections in a pool; a request
    waits for a free connection, so the pool is also the in-flight cap.
    """

    def __init__(self, config: EndpointConfig):
        self.config = config
        try:
            url = urlsplit(config.base_url)
            connection = {"http": http.client.HTTPConnection,
                          "https": http.client.HTTPSConnection}[url.scheme]
            host, port = url.hostname, url.port
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"base_url {config.base_url!r} is not an http(s) URL") from exc
        if not host:
            raise ConfigError(f"base_url {config.base_url!r} has no host")
        self._prefix = url.path.rstrip("/")
        self._headers = {"Content-Type": "application/json"}
        if config.auth_token:
            self._headers["Authorization"] = f"Bearer {config.auth_token}"
        connections = [connection(host, port, timeout=config.timeout)
                       for _ in range(config.max_in_flight)]
        self._pool: queue.LifoQueue = queue.LifoQueue()
        for conn in connections:
            self._pool.put(conn)
        # a collected client closes its open keep-alive sockets itself
        weakref.finalize(self, _close_all, connections)

    def _exchange(self, conn: http.client.HTTPConnection, path: str,
                  body: bytes) -> tuple[int, str | None, bytes]:
        """One POST on a pooled connection: status, Retry-After, response body.

        A reused connection the server has closed while idle is opened
        again and the request sent once more, without counting as a retry.
        """
        reused = conn.sock is not None
        try:
            conn.request("POST", self._prefix + path, body, self._headers)
            resp = conn.getresponse()
        except _STALE_CONNECTION:
            if not reused:
                raise
            conn.close()
            conn.request("POST", self._prefix + path, body, self._headers)
            resp = conn.getresponse()
        return resp.status, resp.getheader("Retry-After"), resp.read()

    def _post(self, path: str, payload: dict) -> dict:
        """POST with bounded retries and exponential backoff.

        Transport failures, 429 and 5xx responses are retried; other non-2xx
        statuses fail immediately with the endpoint's status code. A
        seconds-valued Retry-After header lengthens the next delay to
        max(backoff, Retry-After), with Retry-After capped at the request
        timeout so one header cannot stall the caller indefinitely.
        """
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        delay = self.config.backoff_base
        attempts = self.config.max_retries + 1
        last_exc: Exception | None = None
        last_status: int | None = None
        retry_after = 0.0
        for attempt in range(attempts):
            if attempt:
                time.sleep(max(delay, retry_after))
                delay *= 2
                retry_after = 0.0
            conn = self._pool.get()
            try:
                status, retry_after_header, data = self._exchange(conn, path, body)
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                last_exc = exc
                continue
            finally:
                self._pool.put(conn)
            if 200 <= status < 300:
                try:
                    return json.loads(data)
                except ValueError as exc:
                    raise ContractError("endpoint returned non-JSON body") from exc
            if status == 429 or status >= 500:
                last_status = status
                retry_after = min(_retry_after_seconds(retry_after_header), self.config.timeout)
                continue
            raise EndpointError(data.decode("utf-8", "replace")[:200], status)
        if last_status is not None:
            raise EndpointError("retries exhausted", last_status)
        raise TransportError(
            f"request failed after {attempts} attempts: {last_exc!r}"
        )

    def generate(self, request: dict) -> str:
        """Send one generation request; returns the first choice's content."""
        payload = {"model": self.config.model_name, **request}
        data = self._post("/chat/completions", payload)
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ContractError("malformed chat-completions response") from exc
        if not isinstance(content, str):
            raise ContractError("chat-completions content is not a string")
        return content

    def embed(self, texts: list[str]) -> list[list[float]]:
        """Fetch raw embedding vectors for a batch of texts, in order."""
        payload = {"model": self.config.model_name, "input": list(texts)}
        data = self._post("/embeddings", payload)
        try:
            vectors = [row["embedding"] for row in data["data"]]
        except (KeyError, TypeError) as exc:
            raise ContractError("malformed embeddings response") from exc
        return vectors


def request_fingerprint(payload: dict) -> str:
    """Deterministic key for scripting: prompt hash plus request seed."""
    messages = payload.get("messages") or []
    text = "\n".join(str(m.get("content", "")) for m in messages)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    return f"{digest}:{payload.get('seed')}"


def hash_embedder(dim: int = 1024) -> Callable[[list[str]], list[list[float]]]:
    """Deterministic pseudo-random embeddings: one fixed vector per text."""

    def _embed(texts: list[str]) -> list[list[float]]:
        out = []
        for text in texts:
            seed = int.from_bytes(
                hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
            )
            rng = np.random.default_rng(seed)
            out.append(rng.standard_normal(dim).tolist())
        return out

    return _embed


@dataclass
class MockReply:
    """One scripted chat response: text, or a failure status, or raw body,
    with optional extra response headers."""

    text: str = ""
    status: int = 200
    delay: float = 0.0
    json_body: dict | None = None
    headers: dict[str, str] = field(default_factory=dict)


def _as_reply(entry) -> MockReply:
    if isinstance(entry, MockReply):
        return entry
    return MockReply(text=str(entry))


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
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):
        owner: MockModelServer = self.server.owner  # type: ignore[attr-defined]
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError:
            self._send(400, {"error": "invalid JSON"})
            return
        owner._enter()
        try:
            if self.path.endswith("/chat/completions"):
                reply = owner._chat_reply(payload)
                if reply.delay:
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
                self._send(200, {"data": [{"embedding": v} for v in vectors]})
            else:
                self._send(404, {"error": f"unknown path {self.path}"})
        finally:
            owner._leave()


class MockModelServer:
    """In-process deterministic endpoint for generation and embeddings.

    Chat behavior comes from ``chat``: a fixed string, a list consumed in
    arrival order, a dict keyed by request_fingerprint(payload), or a
    callable (payload, call_index) -> str | MockReply. Unscripted requests
    fall back to ``default_chat_text`` or fail with 404. Embeddings come
    from ``embed`` (callable texts -> vectors), defaulting to the
    deterministic hash embedder. Every request is appended to
    ``request_log``; peak handler concurrency is tracked in
    ``max_in_flight_observed``.
    """

    def __init__(
        self,
        chat=None,
        embed: Callable[[list[str]], list[list[float]]] | None = None,
        dim: int = 1024,
        default_chat_text: str | None = None,
    ):
        self._chat = chat
        self._embed_fn = embed or hash_embedder(dim)
        self._default_chat_text = default_chat_text
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
        values = {
            "base_url": self.base_url,
            "model_name": "mock-model",
            "timeout": 5.0,
            "max_retries": 2,
            "backoff_base": 0.01,
        }
        values.update(overrides)
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
                if index < len(script):
                    return _as_reply(script[index])
                return self._fallback(payload)
            if isinstance(script, dict):
                entry = script.get(request_fingerprint(payload))
                if entry is None:
                    return self._fallback(payload)
                if isinstance(entry, list):
                    if entry:
                        return _as_reply(entry.pop(0))
                    return self._fallback(payload)
                return _as_reply(entry)
        if callable(script):
            return _as_reply(script(payload, index))
        return self._fallback(payload)

    def _fallback(self, payload: dict) -> MockReply:
        if self._default_chat_text is not None:
            return MockReply(text=self._default_chat_text)
        return MockReply(status=404, json_body={"error": "unscripted request"})

    def _embed_reply(self, payload: dict) -> list[list[float]]:
        texts = payload.get("input") or []
        with self._lock:
            self.request_log.append({"kind": "embed", "payload": payload})
        return self._embed_fn(list(texts))
