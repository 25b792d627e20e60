"""Decoding-schedule, answer-extraction, and ensemble-voting tests.

The scripted client keys responses off the per-config seed, so a script
names each position's reply whatever order the requests arrive in.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docqa_engine.ensemble import (
    DEFAULT_SCHEDULE_COUNT,
    TOP_K_CYCLE,
    TOP_P_CYCLE,
    TEMPERATURE_RANGE,
    DecodingConfig,
    StopRule,
    build_answer_prompt,
    compose_user_message,
    extract_option,
    make_schedule,
    run_ensemble,
    tiebreak_structural,
)
from docqa_engine.errors import TransportError
from mock_server import MockModelServer, MockReply


class ScriptedClient:
    """Test double for the gateway: maps request seed -> canned reply."""

    def __init__(self, script, max_in_flight: int = 4):
        self.config = SimpleNamespace(max_in_flight=max_in_flight)
        self.script = script  # dict[int, str | Exception] or callable
        self.calls: list[dict] = []
        self._lock = threading.Lock()

    def generate(self, request: dict) -> str:
        with self._lock:
            self.calls.append(request)
        out = self.script(request) if callable(self.script) else self.script[request["seed"]]
        if isinstance(out, Exception):
            raise out
        return out


def _script_by_id(schedule, reply_for_id):
    """Build a seed-keyed script from a per-config-id rule."""
    return {config.seed: reply_for_id(config.id) for config in schedule}


_OPTION_TEXTS = ["growth", "decline", "flat"]
# votes, an unextractable reply, a marker-backed reply that wins ties on
# structure, one naming an option by its text, and a transport failure
_REPLIES = ["Answer: A", "Answer: B", "Answer: C", "no idea", "A",
            "The report shows the figure rising, so the answer is B.",
            "Revenue is flat", TransportError("down")]


def _serial_record(replies, schedule, stop: StopRule) -> dict:
    """The verdict record of tallying replies one by one in schedule order."""
    labels = ["A", "B", "C"]
    votes: Counter = Counter()
    responses = []
    confidence = 0.0
    failures = 0
    for config, reply in zip(schedule, replies):
        failures += isinstance(reply, Exception)
        raw = "" if isinstance(reply, Exception) else reply
        extracted = extract_option(raw, labels, _OPTION_TEXTS)
        responses.append((config.id, raw, extracted))
        if extracted is not None:
            votes[extracted] += 1
        confidence = max(votes.values()) / sum(votes.values()) if votes else 0.0
        if len(responses) >= stop.min_responses and confidence >= stop.confidence_threshold:
            break
    chosen = None
    if votes:
        top = max(votes.values())
        chosen = tiebreak_structural(sorted(o for o, n in votes.items() if n == top),
                                     responses, _OPTION_TEXTS)
    return {"chosen_option": chosen, "confidence": confidence,
            "votes": dict(sorted(votes.items())), "responses_used": len(responses),
            "stopped_early": len(responses) < len(schedule),
            "abstained": not votes and failures < len(responses),
            "failed_responses": failures, "failed": failures == len(responses)}


class TestMakeSchedule:
    def test_count_and_ids(self):
        schedule = make_schedule(20, seed=0)
        assert len(schedule) == 20
        assert [c.id for c in schedule] == list(range(20))

    def test_greedy_head(self):
        head = make_schedule(20, seed=0)[0]
        assert (head.temperature, head.top_p, head.top_k) == (0.0, 1.0, 1)

    def test_default_temperature_ladder(self):
        schedule = make_schedule(DEFAULT_SCHEDULE_COUNT, seed=0)
        temps = [c.temperature for c in schedule[1:]]
        step = 1.4 / 18
        assert temps[0] == pytest.approx(0.1)
        assert temps[-1] == pytest.approx(1.5)
        assert temps[9] == pytest.approx(0.1 + 9 * step)
        for a, b in zip(temps, temps[1:]):
            assert b - a == pytest.approx(step)

    def test_top_p_top_k_cycles(self):
        schedule = make_schedule(9, seed=0)
        assert [c.top_p for c in schedule[1:]] == [
            TOP_P_CYCLE[i % 4] for i in range(8)
        ]
        assert [c.top_k for c in schedule[1:]] == [
            TOP_K_CYCLE[i % 3] for i in range(8)
        ]

    def test_two_config_schedule_uses_range_floor(self):
        schedule = make_schedule(2, seed=0)
        assert len(schedule) == 2
        assert schedule[1].temperature == pytest.approx(0.1)

    def test_temperatures_equal_the_two_case_ladder(self):
        # one step expression gives, float for float, what a lone sampler at lo
        # and an evenly spaced ladder over [lo, hi] gave as two cases
        lo, hi = TEMPERATURE_RANGE
        for count in range(2, 200):
            samplers = count - 1
            expected = [lo if samplers == 1 else lo + (i - 1) * ((hi - lo) / (samplers - 1))
                        for i in range(1, count)]
            assert [c.temperature for c in make_schedule(count)[1:]] == expected, count

    def test_seeds_come_from_master_seed(self):
        schedule = make_schedule(5, seed=123)
        rng = random.Random(123)
        assert [c.seed for c in schedule] == [rng.randrange(2**31) for _ in range(5)]

    def test_deterministic_and_seed_sensitive(self):
        assert make_schedule(8, seed=7) == make_schedule(8, seed=7)
        a = [c.seed for c in make_schedule(8, seed=7)]
        b = [c.seed for c in make_schedule(8, seed=8)]
        assert a != b

    def test_rejects_degenerate_count(self):
        with pytest.raises(ValueError, match="at least"):
            make_schedule(1)


LABELS = ["A", "B", "C", "D"]


class TestExtractOption:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Answer: B", "B"),
            ("answer: c", "C"),
            ("The final answer is D.", "D"),
            ("Answer is A", "A"),
            ("答え: B", "B"),
            ("回答：C", "C"),
            ("正解はB", "B"),
            ("Answer: (A)", "A"),
            ("So my answer B stands", "B"),
            # the last stated answer wins
            ("Answer: A\nWait, no.\nAnswer: B", "B"),
            # standalone letter lines; last one wins
            ("Let me think.\nB", "B"),
            ("C.", "C"),
            ("(D)", "D"),
            ("A\nreconsidering...\nB", "B"),
            # letter leading the response
            ("B. The revenue grew by 12%", "B"),
            # nothing extractable
            ("I am not sure about this question.", None),
            ("", None),
            # marker word without a separator must not fire
            ("They answered Brazil in the survey.", None),
            # marker letter running into a word must not fire
            ("Answer: Because of the merger.", None),
            # letter outside the label set
            ("Answer: F", None),
        ],
    )
    def test_extraction_table(self, raw, expected):
        assert extract_option(raw, LABELS) == expected

    @pytest.mark.parametrize(
        "raw,expected",
        [
            # a word such as "a" after a marker is prose, not a chosen option
            ("I cannot answer a question without the context.", None),
            ("The answer is a matter of interpretation.", None),
            # a lowercase letter that ends its clause is still a vote
            ("The answer is b.", "B"),
            ("answer: (d) since revenue fell", "D"),
            ("My answer is a\nbecause revenue rose", "A"),
            ("正解はc。", "C"),
            ("answer: a, as the table shows", "A"),
        ],
    )
    def test_lowercase_letter_votes_only_where_its_clause_ends(self, raw, expected):
        assert extract_option(raw, LABELS) == expected

    def test_unique_option_text_match(self):
        options = ["increase of 12.5%", "flat year over year", "decline of 3%"]
        raw = "The filing shows a decline of 3% in segment revenue."
        assert extract_option(raw, ["A", "B", "C"], options) == "C"

    def test_ambiguous_option_text_yields_none(self):
        options = ["Tokyo", "Osaka"]
        raw = "Both Tokyo and Osaka offices expanded."
        assert extract_option(raw, ["A", "B"], options) is None

    def test_option_text_match_is_normalized(self):
        # full-width response text should still match the option string
        options = ["12.5%", "3.0%"]
        raw = "最も近い値は１２．５％です"
        assert extract_option(raw, ["A", "B"], options) == "A"

    def test_marker_beats_option_text(self):
        options = ["Tokyo", "Osaka"]
        raw = "Osaka is mentioned, but the answer is A"
        assert extract_option(raw, ["A", "B"], options) == "A"

    def test_labels_beyond_d(self):
        assert extract_option("Answer: J", [chr(ord("A") + i) for i in range(10)]) == "J"


class TestTiebreakStructural:
    def test_marker_support_wins(self):
        responses = [
            (0, "A", "A"),
            (1, "The context cites 4200 oku yen, so the answer is B.", "B"),
        ]
        assert tiebreak_structural(["A", "B"], responses) == "B"

    def test_alphabetical_fallback(self):
        responses = [(0, "A", "A"), (1, "B", "B")]
        assert tiebreak_structural(["B", "A"], responses) == "A"

    def test_option_reference_counts(self):
        options = ["growth", "decline"]
        responses = [
            (0, "Answer: A", "A"),
            (1, "Answer: B because the report says decline", "B"),
        ]
        assert tiebreak_structural(["A", "B"], responses, options) == "B"

    def test_single_candidate_short_circuit(self):
        assert tiebreak_structural(["C"], []) == "C"


class TestPromptComposition:
    def test_no_context_passthrough(self):
        assert compose_user_message("just the prompt", None) == "just the prompt"
        assert compose_user_message("just the prompt", []) == "just the prompt"

    def test_contexts_are_numbered_blocks(self):
        message = compose_user_message("Q?", ["first page", "second page"])
        assert message.startswith("[Context 1]\nfirst page")
        assert "[Context 2]\nsecond page" in message
        assert message.endswith("Q?")

    def test_answer_prompt_layout(self):
        prompt = build_answer_prompt("How much?", ["10", "20"])
        assert "Question: How much?" in prompt
        assert "A. 10" in prompt and "B. 20" in prompt
        assert prompt.rstrip().endswith('"Answer: X".')


class TestStopRuleDefaults:
    def test_defaults(self):
        rule = StopRule()
        assert rule.min_responses == 10
        assert rule.confidence_threshold == 0.8

    def test_fewer_than_one_response_is_rejected(self):
        with pytest.raises(ValueError, match="min_responses"):
            StopRule(min_responses=0)


class TestRunEnsemble:
    def test_unanimous_stops_at_minimum(self):
        schedule = make_schedule(20, seed=1)
        client = ScriptedClient(_script_by_id(schedule, lambda i: "Answer: A"))
        verdict = run_ensemble("Q", None, schedule, client)
        assert verdict.chosen_option == "A"
        assert verdict.responses_used == 10
        assert verdict.confidence == 1.0
        assert verdict.stopped_early is True
        assert verdict.votes == {"A": 10}
        assert verdict.abstained is False

    def test_split_vote_runs_full_schedule_and_tiebreaks(self):
        schedule = make_schedule(20, seed=2)
        client = ScriptedClient(
            _script_by_id(schedule, lambda i: f"Answer: {'A' if i % 2 else 'B'}")
        )
        verdict = run_ensemble("Q", None, schedule, client)
        assert verdict.responses_used == 20
        assert verdict.stopped_early is False
        assert verdict.votes == {"A": 10, "B": 10}
        assert verdict.confidence == 0.5
        # identical structure on both sides -> alphabetical fallback
        assert verdict.chosen_option == "A"

    def test_transport_failures_count_as_used_responses(self):
        schedule = make_schedule(12, seed=3)
        client = ScriptedClient(
            _script_by_id(
                schedule,
                lambda i: TransportError("boom") if i < 4 else "Answer: C",
            )
        )
        verdict = run_ensemble("Q", None, schedule, client)
        # first ten schedule slots complete: 4 failures + 6 votes, all for C
        assert verdict.responses_used == 10
        assert verdict.votes == {"C": 6}
        assert verdict.confidence == 1.0
        assert verdict.stopped_early is True

    def test_abstains_when_nothing_extractable(self):
        schedule = make_schedule(4, seed=4)
        client = ScriptedClient(_script_by_id(schedule, lambda i: "no idea, sorry"))
        verdict = run_ensemble("Q", None, schedule, client)
        assert verdict.abstained is True
        assert verdict.chosen_option is None
        assert verdict.confidence == 0.0
        assert verdict.responses_used == 4
        assert verdict.stopped_early is False

    def test_short_schedule_never_reports_early_stop(self):
        schedule = make_schedule(8, seed=5)
        client = ScriptedClient(_script_by_id(schedule, lambda i: "Answer: A"))
        verdict = run_ensemble("Q", None, schedule, client)
        assert verdict.responses_used == 8
        assert verdict.stopped_early is False

    def test_stop_waits_for_confidence(self):
        # A A B A A stops at 5
        schedule = make_schedule(10, seed=6)
        client = ScriptedClient(
            _script_by_id(schedule, lambda i: "Answer: B" if i == 2 else "Answer: A")
        )
        verdict = run_ensemble(
            "Q", None, schedule, client,
            stop=StopRule(min_responses=3, confidence_threshold=0.8),
        )
        assert verdict.responses_used == 5
        assert verdict.votes == {"A": 4, "B": 1}
        assert len(client.calls) == 5
        assert verdict.stopped_early is True

    def test_one_request_at_a_time_and_none_past_the_stop(self):
        schedule = make_schedule(20, seed=7)
        slow_seed = schedule[3].seed
        live = 0
        peak = 0
        lock = threading.Lock()

        def reply(request):
            nonlocal live, peak
            with lock:
                live += 1
                peak = max(peak, live)
            time.sleep(0.05 if request["seed"] == slow_seed else 0.001)
            with lock:
                live -= 1
            return "Answer: A"

        # the client allows four in flight, yet the ensemble holds one
        client = ScriptedClient(reply, max_in_flight=4)
        verdict = run_ensemble("Q", None, schedule, client)
        assert verdict.responses_used == 10 and verdict.stopped_early
        assert peak == 1
        assert [c["seed"] for c in client.calls] == [c.seed for c in schedule[:10]]

    def test_request_payloads(self):
        schedule = make_schedule(3, seed=8)
        client = ScriptedClient(_script_by_id(schedule, lambda i: "Answer: A"))
        run_ensemble("Why?", ["page text"], schedule, client)
        assert len(client.calls) == 3
        greedy = [c for c in client.calls if c["top_k"] == 1]
        assert len(greedy) == 1 and greedy[0]["temperature"] == 0.0
        for call in client.calls:
            assert call["max_tokens"] == 256
            (message,) = call["messages"]
            assert message["role"] == "user"
            assert message["content"].startswith("[Context 1]\npage text")
            assert message["content"].endswith("Why?")

    def test_labels_follow_option_texts(self):
        schedule = make_schedule(4, seed=9)
        client = ScriptedClient(_script_by_id(schedule, lambda i: "Answer: E"))
        verdict = run_ensemble(
            "Q", None, schedule, client, option_texts=["1", "2", "3", "4", "5"]
        )
        assert verdict.chosen_option == "E"

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_ensemble("Q", None, [], ScriptedClient({}))

    def test_verdict_record_shape(self):
        schedule = make_schedule(4, seed=10)
        client = ScriptedClient(_script_by_id(schedule, lambda i: "Answer: D"))
        record = run_ensemble("Q", None, schedule, client).to_record()
        assert record == {
            "chosen_option": "D",
            "confidence": 1.0,
            "votes": {"D": 4},
            "responses_used": 4,
            "stopped_early": False,
            "abstained": False,
            "failed_responses": 0,
            "failed": False,
        }


class TestStopRule:
    """The stop point and the requests sent, against a serial tally."""

    def test_zero_threshold_without_votes_stops_at_minimum_and_abstains(self):
        schedule = make_schedule(12, seed=13)
        client = ScriptedClient(_script_by_id(schedule, lambda i: "no idea, sorry"))
        verdict = run_ensemble("Q", None, schedule, client,
                               stop=StopRule(min_responses=4, confidence_threshold=0.0))
        assert verdict.to_record() == {
            "chosen_option": None,
            "confidence": 0.0,
            "votes": {},
            "responses_used": 4,
            "stopped_early": True,
            "abstained": True,
            "failed_responses": 0,
            "failed": False,
        }
        assert len(client.calls) == 4

    @settings(max_examples=60, deadline=None)
    @given(
        replies=st.lists(st.sampled_from(_REPLIES), min_size=2, max_size=12),
        min_responses=st.integers(1, 12),
        threshold=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        max_in_flight=st.integers(1, 4),
        delays=st.lists(st.sampled_from([0.0, 0.0, 0.001]), min_size=1, max_size=4),
    )
    def test_verdict_equals_a_serial_tally(self, replies, min_responses, threshold,
                                           max_in_flight, delays):
        schedule = make_schedule(len(replies), seed=14)
        stop = StopRule(min_responses=min_responses, confidence_threshold=threshold)
        script = _script_by_id(schedule, lambda i: replies[i])

        def reply(request):
            time.sleep(delays[request["seed"] % len(delays)])
            return script[request["seed"]]

        client = ScriptedClient(reply, max_in_flight=max_in_flight)
        verdict = run_ensemble("Q", None, schedule, client, stop=stop, option_texts=_OPTION_TEXTS)
        assert verdict.to_record() == _serial_record(replies, schedule, stop)
        assert len(client.calls) == verdict.responses_used


class TestDecodingConfigRequest:
    def test_each_request_carries_its_config_in_schedule_order(self):
        schedule = [*make_schedule(6, seed=24),
                    DecodingConfig(id=6, temperature=0.9, top_p=0.8, top_k=40, seed=77)]
        client = ScriptedClient(lambda request: "no idea")
        run_ensemble("Q", None, schedule, client)
        sent = [(c["temperature"], c["top_p"], c["top_k"], c["seed"]) for c in client.calls]
        assert sent == [(c.temperature, c.top_p, c.top_k, c.seed) for c in schedule]

    def test_more_options_than_labels_raise_before_any_request(self):
        options = [f"option {i}" for i in range(11)]
        with pytest.raises(ValueError, match="11 options"):
            build_answer_prompt("Q", options)
        client = ScriptedClient(lambda request: "Answer: K")
        with pytest.raises(ValueError, match="11 options"):
            run_ensemble("Q", None, make_schedule(4, seed=25), client, option_texts=options)
        assert client.calls == []


class TestFailedResponses:
    """Requests that fail after the gateway's retries, through a real endpoint."""

    def test_a_5xx_after_retries_counts_as_failed(self):
        schedule = make_schedule(4, seed=21)
        failing = {schedule[0].seed, schedule[2].seed}

        def reply(payload, index):
            return MockReply(status=503) if payload["seed"] in failing else "Answer: B"

        with MockModelServer(chat=reply) as server:
            client = server.make_client(max_retries=1, backoff_base=0.001)
            verdict = run_ensemble("Q", None, schedule, client,
                                   stop=StopRule(min_responses=4))
        assert verdict.failed_responses == 2
        assert verdict.responses_used == 4
        assert verdict.votes == {"B": 2}
        assert verdict.chosen_option == "B"
        assert verdict.failed is False

    def test_every_request_failing_marks_the_verdict_failed(self):
        schedule = make_schedule(3, seed=22)
        with MockModelServer(chat=lambda payload, index: MockReply(status=500)) as server:
            client = server.make_client(max_retries=1, backoff_base=0.001)
            verdict = run_ensemble("Q", None, schedule, client)
        assert verdict.to_record() == {
            "chosen_option": None,
            "confidence": 0.0,
            "votes": {},
            "responses_used": 3,
            "stopped_early": False,
            "abstained": False,
            "failed_responses": 3,
            "failed": True,
        }

    def test_a_timeout_counts_as_failed(self, capfd):
        schedule = make_schedule(4, seed=23)
        late = schedule[1].seed
        late_handler = []

        def reply(payload, index):
            if payload["seed"] == late:
                late_handler.append(threading.current_thread())
                return MockReply(text="Answer: D", delay=0.5)
            return "Answer: A"

        with MockModelServer(chat=reply) as server:
            client = server.make_client(max_retries=0, timeout=0.1)
            verdict = run_ensemble("Q", None, schedule, client,
                                   stop=StopRule(min_responses=4))
        assert verdict.failed_responses == 1
        assert verdict.votes == {"A": 3}
        assert verdict.failed is False
        # the late reply finds its client gone; the server must not report that
        late_handler[0].join(5)
        assert not late_handler[0].is_alive()
        assert "Traceback" not in capfd.readouterr().err
