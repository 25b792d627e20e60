"""Batch inference: overlapping questions in answer_questions.

Questions run concurrently, up to twice the chat client's max_in_flight,
yet the verdict records must equal, byte for byte, those of answering each
question alone. The chat doubles here key every reply and latency on
(question, request seed), so any arrival order gives the same responses.
"""

from __future__ import annotations

import functools
import json
import random
import re
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docqa_engine import cli
from docqa_engine.cli import QuestionRecord, answer_questions, evaluate_verdicts
from docqa_engine.config import PipelineConfig
from docqa_engine.corpus import Corpus, Page
from docqa_engine.ensemble import build_answer_prompt, make_schedule, run_ensemble
from docqa_engine.errors import ConfigError, FormatError, ParseError, TransportError
from docqa_engine.gateway import hash_embedder
from docqa_engine.lexical import build_lexical_index
from docqa_engine.retriever import retrieve
from docqa_engine.semantic import build_semantic_index
from mock_server import MockModelServer, MockReply

_QUESTION_RE = re.compile(r"^Question: (.*)$", re.M)

_OPTIONS = ("増加", "減少", "横ばい", "不明")

_QUESTIONS = (
    ("売上高は前年比でどう変化しましたか。", None),
    ("営業利益は改善しましたか。", "a"),
    ("採用の方針はどうなっていますか。", "b"),
    ("売上高への言及はどの程度ですか。", "b"),
    ("第3四半期の売上高は前年比でどう変化しましたか。", "a"),
    ("人員計画の内容は何ですか。", None),
)


@functools.cache
def _fixture() -> tuple[Corpus, object]:
    pages = [
        Page.from_raw("a", i, f"第{i}四半期の売上高は前年比で増加した。営業利益も改善した。")
        for i in range(8)
    ]
    pages += [
        Page.from_raw("b", 0, "表紙 人事資料 人員計画"),
        Page.from_raw("b", 1, "人員計画と採用の方針。売上高への言及は少ない。"),
    ]
    corpus = Corpus.from_pages(pages)
    return corpus, build_lexical_index(corpus)


class _SeedKeyedChat:
    """Reply and latency are pure functions of (salt, question, seed)."""

    def __init__(self, salt: int, sleeps: list[float], max_in_flight: int):
        self.config = SimpleNamespace(max_in_flight=max_in_flight)
        self.salt = salt
        self.sleeps = sleeps

    def generate(self, request: dict) -> str:
        question = _QUESTION_RE.search(request["messages"][-1]["content"]).group(1)
        favored = random.Random(f"{self.salt}|{question}")
        bias, choice = favored.random(), favored.choice("ABCD")
        rng = random.Random(f"{self.salt}|{question}|{request['seed']}")
        time.sleep(rng.choice(self.sleeps))
        roll = rng.random()
        if roll < 0.05:
            raise TransportError("scripted outage")
        if roll < 0.1:
            return "判断できない。"
        return f"Answer: {choice if rng.random() < bias else rng.choice('ABCD')}"


def _questions(picks: list[int]) -> list[QuestionRecord]:
    return [
        QuestionRecord(question=_QUESTIONS[i][0], options=_OPTIONS,
                       answer_index=i % 4, doc_id=_QUESTIONS[i][1])
        for i in picks
    ]


def _one_by_one(questions, corpus, index, config, chat) -> list[dict]:
    """Reference: each question alone, its ensemble one request at a time."""
    out = []
    for qi, q in enumerate(questions):
        results = retrieve(q.question, index, None, config.weights, config.policy,
                           candidate_k=config.candidate_k, doc_id=q.doc_id)
        contexts = [corpus.get(*r.page_ref).normalized_text for r in results]
        verdict = run_ensemble(
            build_answer_prompt(q.question, list(q.options)), contexts,
            make_schedule(config.schedule_count, seed=config.seed + qi), chat,
            stop=config.stop, option_texts=list(q.options),
        )
        out.append({"question": q.question,
                    "retrieved": [list(r.page_ref) for r in results],
                    **verdict.to_record()})
    return out


def _bytes(records: list[dict]) -> bytes:
    return json.dumps(records, ensure_ascii=False, sort_keys=True).encode("utf-8")


@settings(max_examples=20, deadline=None)
@given(
    salt=st.integers(0, 2**32),
    picks=st.lists(st.integers(0, len(_QUESTIONS) - 1), min_size=1, max_size=6),
    max_in_flight=st.integers(1, 4),
    sleeps=st.lists(st.sampled_from([0.0, 0.0005, 0.002]), min_size=1, max_size=3),
    seed=st.integers(0, 1000),
)
def test_overlapped_batch_equals_questions_one_by_one(salt, picks, max_in_flight,
                                                      sleeps, seed):
    corpus, index = _fixture()
    questions = _questions(picks)
    config = PipelineConfig(seed=seed)
    records = answer_questions(questions, corpus,
                               _SeedKeyedChat(salt, sleeps, max_in_flight),
                               config, lexical_index=index)
    expected = _one_by_one(questions, corpus, index, config,
                           _SeedKeyedChat(salt, sleeps, max_in_flight=1))
    assert _bytes([{k: r[k] for k in expected[0]} for r in records]) == _bytes(expected)
    assert [r["gold_answer_index"] for r in records] == [q.answer_index for q in questions]


def test_stress_more_workers_than_cores_with_short_switch_interval():
    corpus, index = _fixture()
    questions = _questions(list(range(len(_QUESTIONS))) * 3)
    config = PipelineConfig(seed=5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        records = answer_questions(questions, corpus, _SeedKeyedChat(9, [0.0, 0.0005], 8),
                                   config, lexical_index=index)
    finally:
        sys.setswitchinterval(interval)
    expected = _one_by_one(questions, corpus, index, config,
                           _SeedKeyedChat(9, [0.0], max_in_flight=1))
    assert _bytes([{k: r[k] for k in expected[0]} for r in records]) == _bytes(expected)


def test_questions_overlap_within_the_client_cap(monkeypatch):
    corpus, index = _fixture()
    live = peak = 0
    lock = threading.Lock()
    original = cli.run_ensemble

    def counting(*args, **kwargs):
        nonlocal live, peak
        with lock:
            live += 1
            peak = max(peak, live)
        try:
            return original(*args, **kwargs)
        finally:
            with lock:
                live -= 1

    monkeypatch.setattr(cli, "run_ensemble", counting)
    with MockModelServer(chat=lambda payload, i: MockReply("Answer: A", delay=0.005)) as server:
        client = server.make_client(max_in_flight=2)
        records = answer_questions(_questions([0, 1, 2, 3, 4, 5] * 2), corpus, client,
                                   PipelineConfig(), lexical_index=index)
        assert server.max_in_flight_observed <= 2
    assert len(records) == 12 and all(r["chosen_option"] == "A" for r in records)
    assert peak == 4


def test_every_chat_request_sent_is_tallied():
    corpus, index = _fixture()

    def reply(payload, index):
        # latencies vary by seed, so an ensemble that sent ahead of its tally
        # would often have a request out when it reached its stop point
        return MockReply("Answer: A", delay=0.001 * (payload["seed"] % 7))

    with MockModelServer(chat=reply) as server:
        records = answer_questions(_questions([0, 1, 2, 3, 4, 5] * 2), corpus,
                                   server.make_client(max_in_flight=4), PipelineConfig(),
                                   lexical_index=index)
        sent = sum(entry["kind"] == "chat" for entry in server.request_log)
    assert sent == sum(r["responses_used"] for r in records) == 12 * 10


def test_error_in_one_question_surfaces():
    corpus, index = _fixture()

    class Chat(_SeedKeyedChat):
        def generate(self, request):
            if "採用の方針" in request["messages"][-1]["content"]:
                raise RuntimeError("broken question")
            return super().generate(request)

    with pytest.raises(RuntimeError, match="broken question"):
        answer_questions(_questions([0, 1, 2, 3]), corpus, Chat(1, [0.0], 2),
                         PipelineConfig(), lexical_index=index)


def test_retrieval_without_index_is_a_config_error():
    corpus, _ = _fixture()
    with pytest.raises(ConfigError, match="no lexical index"):
        answer_questions(_questions([0]), corpus, _SeedKeyedChat(1, [0.0], 2),
                         PipelineConfig())


def test_semantic_index_of_another_model_is_rejected_before_any_request():
    corpus, index = _fixture()
    with MockModelServer(chat="Answer: A", dim=16) as server:
        semantic = build_semantic_index(corpus, server.make_client(model_name="model-x"), dim=16)
        sent = len(server.request_log)
        with pytest.raises(FormatError, match="semantic index was embedded by model 'model-x', "
                                              "not by 'model-y'; rebuild"):
            answer_questions(_questions([0, 1]), corpus, server.make_client(), PipelineConfig(),
                             lexical_index=index, semantic_index=semantic,
                             embed_client=server.make_client(model_name="model-y"))
        assert len(server.request_log) == sent


@pytest.mark.parametrize("given", ["semantic_index", "embed_client"])
def test_one_semantic_side_without_the_other_is_a_config_error(given):
    corpus, index = _fixture()
    embed_client = SimpleNamespace(embed=hash_embedder(dim=16))
    sides = {"semantic_index": build_semantic_index(corpus, embed_client, dim=16),
             "embed_client": embed_client}

    class Chat(_SeedKeyedChat):
        def generate(self, request):
            raise AssertionError("no request may be sent")

    with pytest.raises(ConfigError, match="needs both a semantic index and an embed client"):
        answer_questions(_questions([0]), corpus, Chat(1, [0.0], 2), PipelineConfig(),
                         lexical_index=index, **{given: sides[given]})


def test_doc_restricted_question_gets_its_document_pages():
    # doc "a" fills the unrestricted top 7, so filtering after selection
    # used to leave the doc "b" question without any context
    corpus, index = _fixture()
    question = QuestionRecord(question="売上高は前年比で増加したか", options=_OPTIONS,
                              doc_id="b")
    (record,) = answer_questions([question], corpus, _SeedKeyedChat(1, [0.0], 2),
                                 PipelineConfig(), lexical_index=index)
    assert record["retrieved"] == [["b", 1]]


def test_unknown_doc_id_is_rejected_before_any_request():
    corpus, index = _fixture()

    class Chat(_SeedKeyedChat):
        def generate(self, request):
            raise AssertionError("no request may be sent")

    questions = _questions([0, 1]) + [
        QuestionRecord(question="売上高は", options=_OPTIONS, doc_id="missing")]
    with pytest.raises(ParseError, match="question 3: doc_id 'missing' names no document"):
        answer_questions(questions, corpus, Chat(1, [0.0], 2), PipelineConfig(),
                         lexical_index=index)


def test_no_retrieval_context_is_joined_once_per_call():
    corpus, _ = _fixture()
    page_reads = 0

    class CountingCorpus:
        """The fixture corpus, counting reads of its page list."""

        def __getattr__(self, name):
            return getattr(corpus, name)

        @property
        def pages(self):
            nonlocal page_reads
            page_reads += 1
            return corpus.pages

    seen: list[str] = []

    class Chat(_SeedKeyedChat):
        def generate(self, request):
            seen.append(request["messages"][-1]["content"])
            return super().generate(request)

    answer_questions(_questions([0, 1, 2, 5]), CountingCorpus(), Chat(1, [0.0], 2),
                     PipelineConfig(), use_retrieval=False, max_context_chars=50)
    assert page_reads == 1
    context = "\n\n".join(p.normalized_text for p in corpus.pages)[:50]
    assert seen and all(s.startswith(f"[Context 1]\n{context}\n\n") for s in seen)


def test_a_question_without_context_sends_no_request():
    # "zzz qqq?" shares no feature with either page, and without a semantic
    # side nothing else retrieves a page for it
    corpus = Corpus.from_pages([Page.from_raw("d", 0, "売上高は前年比で増加した。"),
                                Page.from_raw("d", 1, "営業利益も改善した。")])
    questions = [QuestionRecord(question="zzz qqq?", options=_OPTIONS, answer_index=0),
                 QuestionRecord(question="売上高は増加したか", options=_OPTIONS, answer_index=0)]
    with MockModelServer(chat="Answer: A") as server:
        empty, grounded = answer_questions(questions, corpus, server.make_client(),
                                           PipelineConfig(), lexical_index=build_lexical_index(corpus))
        contents = [r["payload"]["messages"][-1]["content"] for r in server.request_log]
    assert contents and not any("zzz qqq?" in content for content in contents)
    assert {key: empty[key] for key in ("retrieved", "no_context", "chosen_option", "predicted_index",
                                        "responses_used", "abstained", "failed")} == {
        "retrieved": [], "no_context": True, "chosen_option": None, "predicted_index": None,
        "responses_used": 0, "abstained": True, "failed": False}
    assert grounded["no_context"] is False and grounded["retrieved"]
    report = evaluate_verdicts([empty, grounded])
    # a retrieval miss is the system's miss: scored as wrong, counted apart
    assert report["overall"] == {"correct": 1, "total": 2, "accuracy": 0.5}
    assert (report["no_context"], report["failed"]) == (1, 0)


# a page whose text normalizes to "" ("\n" does) is no context for any question
_BLANK_CORPUS = (Page.from_raw("d", 0, "売上高は前年比で増加した。"), Page.from_raw("blank", 0, ""),
                 Page.from_raw("m", 0, ""), Page.from_raw("m", 1, "売上高は増加した。"),
                 Page.from_raw("m", 2, "\n"), Page.from_raw("m", 3, "営業利益も改善した。"))


def _answer_on_blank_pages(doc_id: str) -> tuple[dict, list[str]]:
    """The hybrid verdict on a question restricted to `doc_id` of the blank-page
    corpus, and the user message of each chat request it sent."""
    corpus = Corpus.from_pages(_BLANK_CORPUS)
    question = QuestionRecord(question="売上高は増加したか", options=_OPTIONS, doc_id=doc_id)
    with MockModelServer(chat="Answer: A", dim=16) as server:
        client = server.make_client()
        (record,) = answer_questions([question], corpus, client, PipelineConfig(),
                                     lexical_index=build_lexical_index(corpus),
                                     semantic_index=build_semantic_index(corpus, client, dim=16),
                                     embed_client=client)
        contents = [r["payload"]["messages"][-1]["content"] for r in server.request_log
                    if r["kind"] == "chat"]
    return record, contents


def test_a_document_of_blank_pages_gives_no_context():
    # the semantic side selects the blank page, yet there is nothing to ask about
    record, contents = _answer_on_blank_pages("blank")
    assert contents == []
    assert {key: record[key] for key in ("retrieved", "no_context", "responses_used",
                                         "abstained", "failed")} == {
        "retrieved": [["blank", 0]], "no_context": True, "responses_used": 0,
        "abstained": True, "failed": False}


def test_blank_pages_of_a_mixed_document_are_left_out_of_the_context():
    record, contents = _answer_on_blank_pages("m")
    assert sorted(map(tuple, record["retrieved"])) == [("m", 0), ("m", 1), ("m", 2), ("m", 3)]
    text_of = {(p.doc_id, p.page_index): p.normalized_text for p in _BLANK_CORPUS}
    texts = [text_of[doc, i] for doc, i in record["retrieved"] if text_of[doc, i]]
    prefix = "".join(f"[Context {i}]\n{text}\n\n" for i, text in enumerate(texts, start=1))
    assert record["no_context"] is False and len(texts) == 2
    assert contents and all(content.startswith(prefix) for content in contents)
    assert not any(re.search(r"\[Context \d+\]\n\n", content) for content in contents)


def test_no_retrieval_baseline_over_blank_pages_sends_no_request():
    corpus = Corpus.from_pages([Page.from_raw("d", i, text) for i, text in enumerate(["", "\n"])])
    with MockModelServer(chat="Answer: A") as server:
        records = answer_questions(_questions([0, 5]), corpus, server.make_client(),
                                   PipelineConfig(), use_retrieval=False)
        assert server.request_log == []
    assert [(r["no_context"], r["responses_used"]) for r in records] == [(True, 0)] * 2


def test_retrieval_takes_no_max_context_chars():
    corpus, index = _fixture()

    class Chat(_SeedKeyedChat):
        def generate(self, request):
            raise AssertionError("no request may be sent")

    with pytest.raises(ConfigError, match="max_context_chars"):
        answer_questions(_questions([0]), corpus, Chat(1, [0.0], 2), PipelineConfig(),
                         lexical_index=index, max_context_chars=50)
