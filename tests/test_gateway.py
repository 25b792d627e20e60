"""Gateway client and mock endpoint tests.

Everything here runs against the real HTTP stack: the mock server binds a
loopback port and the client talks to it over pooled keep-alive
connections, so retries, status handling, connection reuse and
concurrency caps are exercised end to end.
"""

from __future__ import annotations

import os
import re
import socket
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import docqa_engine
from docqa_engine.errors import ConfigError, ContractError, EndpointError, TransportError
from docqa_engine.gateway import (
    MAX_IN_FLIGHT_CAP,
    MAX_RETRIES_CAP,
    EndpointConfig,
    GatewayClient,
    hash_embedder,
    in_flight_limit,
)
from mock_server import MockModelServer, MockReply, _MockRequestHandler


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


QUESTION = {"messages": [{"role": "user", "content": "q"}]}
# Retry-After values a server can send: delay-seconds of any length (runs of 400 and
# 5,000 digits are past float's range and int's digit limit), HTTP dates, anything else
_RETRY_AFTER_VALUES = (
    st.sampled_from(["1" * 400, "9" * 5000, "Wed, 21 Oct 2015 07:28:00 GMT"])
    | st.integers(1, 6000).map(lambda digits: "7" * digits)
    | st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF, exclude_categories=["Cc"]),
              max_size=40))

_LATE = MockReply("late", delay=0.5)  # outlasts a 0.2 s request timeout


@pytest.fixture(scope="module")
def replying_server():
    """A server whose chat replies are its ``replies``, taken in arrival order."""
    replies: list[MockReply] = []
    with MockModelServer(chat=lambda payload, index: replies.pop(0)) as server:
        server.replies = replies
        yield server


@pytest.fixture
def seen(monkeypatch) -> list[tuple]:
    """(path, Authorization header, client address) of each request the
    mock server reads; one client address is one TCP connection."""
    log: list[tuple] = []
    handle = _MockRequestHandler.do_POST

    def recording(handler):
        log.append((handler.path, handler.headers.get("Authorization"), handler.client_address))
        handle(handler)

    monkeypatch.setattr(_MockRequestHandler, "do_POST", recording)
    return log


class TestEndpointConfig:
    def test_defaults(self):
        config = EndpointConfig(base_url="http://x", model_name="m")
        assert config.timeout == 30.0
        assert config.max_retries == 2
        assert config.max_in_flight == 4
        assert config.auth_token is None

    def test_in_flight_limit_reads_the_client_config(self):
        config = EndpointConfig(base_url="http://x", model_name="m", max_in_flight=7)
        assert in_flight_limit(GatewayClient(config)) == 7

    def test_in_flight_limit_without_a_config_is_the_endpoint_default(self):
        default = EndpointConfig(base_url="http://x", model_name="m").max_in_flight
        assert in_flight_limit(hash_embedder(8)) == default
        assert in_flight_limit(object()) == default

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"timeout": 0}, "timeout"),
            ({"max_retries": -1}, "max_retries"),
            ({"max_in_flight": 0}, "max_in_flight"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            EndpointConfig(base_url="http://x", model_name="m", **kwargs)

    @pytest.mark.parametrize("key", ["timeout", "backoff_base"])
    def test_seconds_are_bounded_by_timeout_max(self, key):
        EndpointConfig(base_url="http://x", model_name="m", **{key: threading.TIMEOUT_MAX})
        with pytest.raises(ValueError, match=f"{key} must lie in "):
            EndpointConfig(base_url="http://x", model_name="m",
                           **{key: threading.TIMEOUT_MAX * 1.5})

    @pytest.mark.parametrize("key, low, cap", [("max_in_flight", 1, MAX_IN_FLIGHT_CAP),
                                               ("max_retries", 0, MAX_RETRIES_CAP)])
    def test_counts_are_capped(self, key, low, cap):
        # configs only: a client of the values rejected here opens every connection up front,
        # or retries for days
        assert (MAX_IN_FLIGHT_CAP, MAX_RETRIES_CAP) == (256, 10)
        config = EndpointConfig(base_url="http://x", model_name="m", **{key: cap})
        assert getattr(config, key) == cap
        for value in (cap + 1, 1_000_000_000):
            with pytest.raises(ValueError, match=re.escape(f"{key} must lie in [{low}, {cap}]")):
                EndpointConfig(base_url="http://x", model_name="m", **{key: value})

    @pytest.mark.parametrize("token", ["a\nb", "a\rb", "a\tb", "a\x85b", "a\u20acb"])
    def test_token_http_cannot_send_is_rejected_without_its_value(self, token):
        with pytest.raises(ValueError, match="auth_token must") as exc:
            EndpointConfig(base_url="http://x", model_name="m", auth_token=token)
        assert token not in str(exc.value)

    def test_auth_token_becomes_bearer_header(self, seen):
        with MockModelServer(chat="ok") as server:
            client = server.make_client(auth_token="tok")
            client.generate(QUESTION)
            client.embed(["page"])
        assert [auth for _, auth, _ in seen] == ["Bearer tok", "Bearer tok"]

    def test_printable_latin_1_token_is_sent(self, seen):
        token = "tök en~\xff"
        with MockModelServer(chat="ok") as server:
            server.make_client(auth_token=token).generate(QUESTION)
        assert [auth for _, auth, _ in seen] == [f"Bearer {token}"]

    def test_no_token_no_header(self, seen):
        with MockModelServer(chat="ok") as server:
            server.make_client().generate(QUESTION)
        assert seen[0][1] is None

    @pytest.mark.parametrize(
        "base_url", ["ftp://x/v1", "localhost:8000/v1", "http:///v1", "http://x:port/v1"])
    def test_base_url_must_be_an_http_url(self, base_url):
        with pytest.raises(ConfigError, match="base_url"):
            GatewayClient(EndpointConfig(base_url=base_url, model_name="m"))


class TestHashEmbedder:
    def test_deterministic_and_shaped(self):
        embed = hash_embedder(dim=16)
        a1 = embed(["alpha", "beta"])
        a2 = hash_embedder(dim=16)(["alpha", "beta"])
        assert np.allclose(a1, a2)
        assert np.shape(a1) == (2, 16)

    def test_distinct_texts_distinct_vectors(self):
        embed = hash_embedder(dim=16)
        a, b = embed(["alpha", "beta"])
        assert not np.allclose(a, b)


class TestChatScripting:
    def test_fixed_string(self):
        with MockModelServer(chat="always this") as server:
            client = server.make_client()
            assert client.generate({"messages": [{"role": "user", "content": "q"}]}) \
                == "always this"
            assert server.request_log[0]["kind"] == "chat"
            assert server.request_log[0]["payload"]["model"] == "mock-model"

    def test_list_consumed_in_order(self):
        with MockModelServer(chat=["first", "second"]) as server:
            client = server.make_client()
            message = [{"role": "user", "content": "q"}]
            assert client.generate({"messages": message}) == "first"
            assert client.generate({"messages": message}) == "second"

    def test_callable_sees_payload_and_index(self):
        def script(payload, index):
            return f"{payload['messages'][0]['content']}#{index}"

        with MockModelServer(chat=script) as server:
            client = server.make_client()
            message = [{"role": "user", "content": "ping"}]
            assert client.generate({"messages": message}) == "ping#0"
            assert client.generate({"messages": message}) == "ping#1"

    def test_unscripted_without_default_is_an_endpoint_error(self):
        with MockModelServer() as server:
            client = server.make_client()
            with pytest.raises(EndpointError) as excinfo:
                client.generate({"messages": [{"role": "user", "content": "q"}]})
            assert excinfo.value.status == 404


class TestRetryBehavior:
    def test_5xx_then_success_is_retried(self):
        with MockModelServer(chat=[MockReply(status=503), "recovered"]) as server:
            client = server.make_client(max_retries=2)
            out = client.generate({"messages": [{"role": "user", "content": "q"}]})
            assert out == "recovered"
            assert len(server.request_log) == 2

    def test_persistent_5xx_exhausts_retries(self):
        script = [MockReply(status=503), MockReply(status=502)]
        with MockModelServer(chat=script) as server:
            client = server.make_client(max_retries=1)
            with pytest.raises(EndpointError, match="retries exhausted") as excinfo:
                client.generate({"messages": [{"role": "user", "content": "q"}]})
            assert excinfo.value.status == 502
            assert len(server.request_log) == 2

    @pytest.mark.parametrize("script", [[MockReply(status=400)], [MockReply(status=503)] * 2],
                             ids=["client_error", "retries_exhausted"])
    def test_a_status_failure_is_a_transport_error_with_its_status(self, script):
        # a caller that catches TransportError alone catches every failed call
        with MockModelServer(chat=script) as server:
            client = server.make_client(max_retries=1)
            with pytest.raises(TransportError) as excinfo:
                client.generate({"messages": [{"role": "user", "content": "q"}]})
        assert excinfo.value.status == script[-1].status

    @pytest.mark.parametrize("script, waits", [
        ([MockReply(status=429, headers={"Retry-After": "1"}), _LATE, _LATE], [0.2, 0.02]),
        ([_LATE, _LATE, MockReply(status=429, headers={"Retry-After": "1"})], [0.01, 0.02]),
    ], ids=["status_first", "status_last"])
    def test_a_retryable_status_outranks_a_transport_failure(self, monkeypatch, script, waits):
        # a timed-out attempt asks for no Retry-After wait, but leaves the status to report
        sleeps: list[float] = []
        monkeypatch.setattr("docqa_engine.gateway.time.sleep", sleeps.append)
        with MockModelServer(chat=script) as server:
            client = server.make_client(max_retries=2, timeout=0.2)
            with pytest.raises(EndpointError, match=r"^retries exhausted \(status 429\)$"):
                client.generate(QUESTION)
        assert sleeps == waits

    def test_429_then_success_is_retried(self):
        with MockModelServer(chat=[MockReply(status=429), "recovered"]) as server:
            client = server.make_client(max_retries=2)
            out = client.generate({"messages": [{"role": "user", "content": "q"}]})
            assert out == "recovered"
            assert len(server.request_log) == 2

    def test_persistent_429_exhausts_retries(self):
        with MockModelServer(chat=[MockReply(status=429)] * 2) as server:
            client = server.make_client(max_retries=1)
            with pytest.raises(EndpointError, match="retries exhausted") as excinfo:
                client.generate({"messages": [{"role": "user", "content": "q"}]})
            assert excinfo.value.status == 429

    @pytest.mark.parametrize(
        "retry_after, expected",
        [("1", [1.0, 0.02]), ("Wed, 21 Oct 2015 07:28:00 GMT", [0.01, 0.02]),
         ("0", [0.01, 0.02]), ("-5", [0.01, 0.02]), ("1.5", [0.01, 0.02])],
    )
    def test_retry_after_seconds_lengthen_the_backoff(self, monkeypatch,
                                                       retry_after, expected):
        sleeps: list[float] = []
        monkeypatch.setattr("docqa_engine.gateway.time.sleep", sleeps.append)
        throttled = MockReply(status=429, headers={"Retry-After": retry_after})
        with MockModelServer(chat=[throttled, MockReply(status=503), "ok"]) as server:
            client = server.make_client(max_retries=2, backoff_base=0.01)
            assert client.generate({"messages": [{"role": "user", "content": "q"}]}) == "ok"
        assert sleeps == expected

    @pytest.mark.parametrize("reply, backoff_base", [
        (MockReply(status=429, headers={"Retry-After": "3600"}), 0.01),
        (MockReply(status=503), 3.0),
    ], ids=["retry_after", "backoff_base"])
    def test_every_sleep_is_capped_at_the_request_timeout(self, monkeypatch, reply,
                                                          backoff_base):
        sleeps: list[float] = []
        monkeypatch.setattr("docqa_engine.gateway.time.sleep", sleeps.append)
        with MockModelServer(chat=[reply, reply, "ok"]) as server:
            client = server.make_client(max_retries=2, backoff_base=backoff_base, timeout=2.0)
            assert client.generate({"messages": [{"role": "user", "content": "q"}]}) == "ok"
        assert sleeps == [2.0, 2.0]

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=_RETRY_AFTER_VALUES, succeeds=st.booleans())
    def test_a_retry_after_header_of_any_length_waits_at_most_the_timeout(
            self, monkeypatch, replying_server, value, succeeds):
        sleeps: list[float] = []
        monkeypatch.setattr("docqa_engine.gateway.time.sleep", sleeps.append)
        replying_server.replies[:] = [MockReply(status=429, headers={"Retry-After": value}),
                                      MockReply("ok") if succeeds else MockReply(status=503)]
        client = replying_server.make_client(max_retries=1, timeout=2.0)
        if succeeds:
            assert client.generate(QUESTION) == "ok"
        else:
            with pytest.raises(EndpointError, match="retries exhausted") as excinfo:
                client.generate(QUESTION)
            assert excinfo.value.status == 503
        assert len(sleeps) == 1 and 0.01 <= sleeps[0] <= 2.0
        assert replying_server.replies == []

    def test_4xx_fails_immediately_without_retry(self):
        with MockModelServer(chat=[MockReply(status=400), "never"]) as server:
            client = server.make_client(max_retries=3)
            with pytest.raises(EndpointError) as excinfo:
                client.generate({"messages": [{"role": "user", "content": "q"}]})
            assert excinfo.value.status == 400
            assert len(server.request_log) == 1

    def test_connection_failure_becomes_transport_error(self):
        config = EndpointConfig(
            base_url=f"http://127.0.0.1:{_free_port()}/v1",
            model_name="m",
            timeout=0.5,
            max_retries=1,
            backoff_base=0.001,
        )
        with pytest.raises(TransportError, match="after 2 attempts"):
            GatewayClient(config).generate(
                {"messages": [{"role": "user", "content": "q"}]}
            )


class TestResponseContracts:
    def test_missing_choices_is_a_contract_error(self):
        reply = MockReply(json_body={"unexpected": True})
        with MockModelServer(chat=[reply]) as server:
            client = server.make_client()
            with pytest.raises(ContractError, match="malformed chat-completions"):
                client.generate({"messages": [{"role": "user", "content": "q"}]})

    def test_a_2xx_body_that_is_not_json_is_a_contract_error(self):
        with MockModelServer(chat=[MockReply(raw=b"<html>busy</html>")]) as server:
            client = server.make_client()
            with pytest.raises(ContractError, match="non-JSON body"):
                client.generate(QUESTION)
            assert len(server.request_log) == 1

    def test_malformed_embeddings_are_a_contract_error(self):
        with MockModelServer(embed=lambda texts: MockReply(json_body={"data": "x"})) as server:
            with pytest.raises(ContractError, match="malformed embeddings"):
                server.make_client().embed(["page"])

    def test_non_string_content_is_a_contract_error(self):
        reply = MockReply(json_body={"choices": [{"message": {"content": 42}}]})
        with MockModelServer(chat=[reply]) as server:
            client = server.make_client()
            with pytest.raises(ContractError, match="not a string"):
                client.generate({"messages": [{"role": "user", "content": "q"}]})


class TestEmbeddings:
    def test_embed_round_trip_matches_hash_embedder(self):
        with MockModelServer(dim=32) as server:
            client = server.make_client()
            got = client.embed(["page one", "page two"])
            want = hash_embedder(32)(["page one", "page two"])
            assert np.allclose(got, want)
            embed_entries = [e for e in server.request_log if e["kind"] == "embed"]
            assert embed_entries[0]["payload"]["input"] == ["page one", "page two"]

    def test_custom_embed_function(self):
        def embed(texts):
            return [[float(len(t)), 0.0] for t in texts]

        with MockModelServer(embed=embed) as server:
            client = server.make_client()
            assert client.embed(["ab", "abcd"]) == [[2.0, 0.0], [4.0, 0.0]]


class TestConcurrencyCap:
    def test_client_semaphore_bounds_server_concurrency(self):
        release = threading.Event()

        def slow(payload, index):
            release.wait(0.05)
            return MockReply(text="ok", delay=0.02)

        with MockModelServer(chat=slow) as server:
            client = server.make_client(max_in_flight=2)
            request = {"messages": [{"role": "user", "content": "q"}]}
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(client.generate, request) for _ in range(8)]
                release.set()
                results = [f.result() for f in futures]
            assert results == ["ok"] * 8
            assert 1 <= server.max_in_flight_observed <= 2


class TestKeepAlive:
    @pytest.mark.parametrize("max_in_flight", [1, 3])
    def test_sequential_requests_share_one_connection(self, seen, max_in_flight):
        with MockModelServer(chat="ok") as server:
            client = server.make_client(max_in_flight=max_in_flight)
            for _ in range(5):
                assert client.generate(QUESTION) == "ok"
                client.embed(["page"])
        assert len(seen) == 10
        assert len({address for _, _, address in seen}) == 1

    def test_concurrent_requests_open_at_most_max_in_flight_connections(self, seen):
        with MockModelServer(chat=lambda payload, i: MockReply("ok", delay=0.01)) as server:
            client = server.make_client(max_in_flight=2)
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = list(pool.map(lambda _: client.generate(QUESTION), range(24)))
        assert results == ["ok"] * 24
        assert len({address for _, _, address in seen}) <= 2

    def test_server_closing_idle_connections_costs_no_retry(self, monkeypatch, seen):
        sleeps: list[float] = []
        monkeypatch.setattr("docqa_engine.gateway.time.sleep", sleeps.append)
        # the server drops a keep-alive connection after 50 ms without a request
        monkeypatch.setattr(_MockRequestHandler, "timeout", 0.05)
        with MockModelServer(chat="ok") as server:
            client = server.make_client(max_retries=0, max_in_flight=1)
            for _ in range(3):
                assert client.generate(QUESTION) == "ok"
                threading.Event().wait(0.3)
            assert len(server.request_log) == 3
        assert len({address for _, _, address in seen}) == 3
        assert sleeps == []

    def test_connection_is_reopened_after_a_timeout(self):
        script = [MockReply(text="late", delay=0.5), "on time"]
        with MockModelServer(chat=script) as server:
            client = server.make_client(max_retries=0, max_in_flight=1, timeout=0.1)
            with pytest.raises(TransportError):
                client.generate(QUESTION)
            assert client.generate(QUESTION) == "on time"

    def test_a_fresh_connection_the_server_drops_is_one_failed_attempt(self):
        # only a reused connection is opened again at once; a fresh one failing is an attempt
        accepted: list[socket.socket] = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(10)

            def drop_two():
                for _ in range(2):
                    conn, _ = listener.accept()
                    accepted.append(conn)
                    conn.close()

            dropper = threading.Thread(target=drop_two)
            dropper.start()
            config = EndpointConfig(base_url=f"http://127.0.0.1:{listener.getsockname()[1]}/v1",
                                    model_name="m", timeout=2.0, max_retries=1,
                                    backoff_base=0.001)
            with pytest.raises(TransportError, match="after 2 attempts: (RemoteDisconnected|"
                                                     "ConnectionResetError|BrokenPipeError)"):
                GatewayClient(config).generate(QUESTION)
            dropper.join(timeout=10)
        assert not dropper.is_alive() and len(accepted) == 2

    def test_base_url_path_prefix_reaches_the_server(self, seen):
        with MockModelServer(chat="ok") as server:
            prefixed = server.base_url.replace("/v1", "/custom/prefix/")
            client = server.make_client(base_url=prefixed)
            client.generate(QUESTION)
            client.embed(["page"])
        assert [path for path, _, _ in seen] == [
            "/custom/prefix/chat/completions", "/custom/prefix/embeddings"]


def test_cli_import_pulls_in_no_third_party_http_stack():
    # nor the standard library's HTTP server: the mock endpoint is test code
    src = os.path.dirname(os.path.dirname(docqa_engine.__file__))
    probe = ("import sys, docqa_engine.cli; print(sorted("
             "{'requests', 'urllib3', 'http.server', 'socketserver'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "[]"


def test_retrieval_imports_no_inference_module():
    # the in-flight cap lives beside the client, so retrieval needs no ensemble code
    src = os.path.dirname(os.path.dirname(docqa_engine.__file__))
    probe = "import sys, docqa_engine.retriever; print('docqa_engine.ensemble' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "False"


class TestMakeClient:
    def test_overrides_apply(self):
        with MockModelServer(chat="x") as server:
            client = server.make_client(model_name="other", timeout=1.5)
            assert client.config.model_name == "other"
            assert client.config.timeout == 1.5
            assert client.config.base_url == server.base_url
