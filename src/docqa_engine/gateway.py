"""Transport layer for generation and embedding endpoints.

GatewayClient speaks the de-facto JSON-over-HTTP shapes: POST
{model, messages, ...} -> {choices: [{message: {content}}]} for chat and
POST {model, input: [...]} -> {data: [{embedding: [...]}]} for embeddings.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import queue
import re
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable
from urllib.parse import urlsplit

import numpy as np

from .errors import ConfigError, ContractError, EndpointError, TransportError

# what http.client cannot send in a header: a control character, or one past Latin-1
_UNSENDABLE_RE = re.compile(r"[^\x20-\x7e\xa0-\xff]")
# a client opens max_in_flight connections up front; infer starts two threads per connection
MAX_IN_FLIGHT_CAP = 256
# a call waits out at most this many sleeps, each at most the timeout, between its attempts
MAX_RETRIES_CAP = 10


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
        # a socket timeout or sleep past TIMEOUT_MAX raises OverflowError; NaN fails both checks
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout must lie in (0, {threading.TIMEOUT_MAX:.0f}] seconds")
        if not 0 <= self.backoff_base <= threading.TIMEOUT_MAX:
            raise ValueError(f"backoff_base must lie in [0, {threading.TIMEOUT_MAX:.0f}] seconds")
        if self.auth_token is not None and _UNSENDABLE_RE.search(self.auth_token):
            # the message names the key only: the token is a secret
            raise ValueError("auth_token must hold only printable Latin-1 characters")
        if not 0 <= self.max_retries <= MAX_RETRIES_CAP:
            raise ValueError(f"max_retries must lie in [0, {MAX_RETRIES_CAP}]")
        if not 1 <= self.max_in_flight <= MAX_IN_FLIGHT_CAP:
            raise ValueError(f"max_in_flight must lie in [1, {MAX_IN_FLIGHT_CAP}]")


def in_flight_limit(client) -> int:
    """The client's concurrent-request cap, or EndpointConfig's default when it has none."""
    config = getattr(client, "config", None)
    return getattr(config, "max_in_flight", EndpointConfig.max_in_flight)


def chat_request(content: str, *, temperature: float, top_p: float, top_k: int, seed: int,
                 max_tokens: int) -> dict:
    """One single-user-message request for GatewayClient.generate."""
    return {
        "messages": [{"role": "user", "content": content}],
        "temperature": temperature,
        "top_p": top_p,
        "top_k": top_k,
        "seed": seed,
        "max_tokens": max_tokens,
    }


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
        statuses fail immediately with the endpoint's status code. Each failed
        attempt sets the error to raise if none follows and the wait before
        the next: the doubled backoff, or a longer seconds-valued Retry-After.
        A retryable status outranks a later transport failure. Every wait is
        capped at the request timeout, so no header stalls the caller for long.
        """
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        attempts = self.config.max_retries + 1
        failure, wait = None, 0.0
        for attempt in range(attempts):
            if attempt:
                backoff = self.config.backoff_base * 2 ** (attempt - 1)
                time.sleep(min(max(backoff, wait), self.config.timeout))
            conn = self._pool.get()
            try:
                status, retry_after, data = self._exchange(conn, path, body)
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if not isinstance(failure, EndpointError):
                    failure = TransportError(f"request failed after {attempts} attempts: {exc!r}")
                wait = 0.0
                continue
            finally:
                self._pool.put(conn)
            if 200 <= status < 300:
                try:
                    return json.loads(data)
                except ValueError as exc:
                    raise ContractError("endpoint returned non-JSON body") from exc
            if status != 429 and status < 500:
                raise EndpointError(data.decode("utf-8", "replace")[:200], status)
            failure = EndpointError("retries exhausted", status)
            # delay-seconds of any length: a digit run past float's range reads inf
            wait = float(retry_after) if (retry_after or "").strip().isdecimal() else 0.0
        raise failure

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
