"""Synthetic QA generation tests: page selection, prompt building, output
parsing, quality gates, feasibility auditing, and the orchestration loop.

The fake clients route on distinctive prompt phrases (generation vs
feasibility) so scripted replies line up with attempts no matter how the
two call kinds interleave: a worker thread sends generation requests one at
a time in attempt order, ahead of the caller's thread, which gates each
reply and makes its feasibility request.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import threading
import time
from collections import Counter
from dataclasses import fields
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import docqa_engine.augment as augment_module
from docqa_engine.augment import (
    GENERATIONS_AHEAD,
    QTYPES,
    AugmentResult,
    FeasibilityVerdict,
    GateThresholds,
    QACandidate,
    augment,
    build_prompt,
    clause_count,
    is_content_page,
    parse_feasibility,
    parse_qa_candidate,
    run_gates,
    score_page,
    select_pages,
    toc_density,
    validate_feasibility,
)
from docqa_engine.cli import QuestionRecord, read_questions_jsonl
from docqa_engine.corpus import Corpus, Page, write_records
from docqa_engine.ensemble import build_answer_prompt, options_block
from docqa_engine.errors import (ConfigError, ContractError, EndpointError, ParseError,
                                 TransportError)
from mock_server import MockModelServer, MockReply

# ---------------------------------------------------------------------------
# Shared fixtures: one financial page whose figures back every scripted QA


PAGE_BODY = (
    "第3四半期の業績概況。当期の売上高は 4200 百万円 に達した。"
    "営業利益は 310 百万円 で前年から大きく改善した。"
    "研究開発費は 150 百万円 と横ばいだった。"
    "従業員数は 1200 人 に増加した。"
    "年間配当金は 55 円 に引き上げられた。"
    "海外売上比率は 38 % まで上昇し、主要市場での販売が好調に推移した。"
    "設備投資は 90 百万円 を計画している。"
    "通期の見通しについては、需要動向と為替水準を踏まえて慎重に判断する方針である。"
    "セグメント別では国内事業が堅調に推移した一方、海外事業は為替変動の影響を受けた。"
)

EVIDENCE_SENTENCE = "当期の売上高は 4200 百万円 に達した"


def _qa_block(question: str, options: list[str], evidence: str = EVIDENCE_SENTENCE) -> str:
    lines = [f"Question: {question}", "Options:"]
    lines += [f"{chr(65 + i)}. {opt}" for i, opt in enumerate(options)]
    lines += ["Answer: A", f"Evidence: {evidence}"]
    return "\n".join(lines)


# five well-formed generations, one per question type, all answerable from
# PAGE_BODY with the correct option listed first
GEN_BLOCKS = [
    _qa_block(
        "当期の売上高は次のうちどれですか。営業利益と比べて、大きいのはどちらですか。",
        ["4200 百万円", "310 百万円", "150 百万円", "90 百万円"],
    ),
    _qa_block(
        "研究開発費として報告された金額は、次のうちどれですか。",
        ["150 百万円", "310 百万円", "4200 百万円", "55 円"],
    ),
    _qa_block(
        "従業員の人数に注目した場合、報告された値は次のうちどれですか。",
        ["1200 人", "55 円", "38 %", "90 百万円"],
    ),
    _qa_block(
        "増配の結果として、年間配当金はいくらになりましたか。",
        ["55 円", "150 百万円", "1200 人", "310 百万円"],
    ),
    _qa_block(
        "海外売上比率はどの水準まで上昇しましたか、また販売はどの市場で好調でしたか。",
        ["38 %", "55 円", "4200 百万円", "1200 人"],
    ),
]


def _echo_feasibility(prompt: str) -> str:
    """Scripted audit reply: affirms answerability and echoes option A."""
    m = re.search(r"^A\.\s*(.+)$", prompt, re.MULTILINE)
    answer = m.group(1).strip() if m else ""
    return (
        "Reasoning: ページには該当する数値が明記されており、選択肢の値と直接照合して判断できる。\n"
        "Answerable: yes\n"
        f"Answer: {answer}\n"
        f"Evidence: {EVIDENCE_SENTENCE}"
    )


class RoutedClient:
    """Fake gateway: generation replies consumed in order, audits echoed."""

    def __init__(self, gen_replies, feas_replies=None):
        self.gen_replies = list(gen_replies)
        self.feas_replies = list(feas_replies) if feas_replies is not None else None
        self.requests: list[dict] = []
        self._gen_i = 0
        self._feas_i = 0

    def generate(self, request: dict) -> str:
        self.requests.append(request)
        content = request["messages"][0]["content"]
        if "auditing one multiple-choice question" in content:
            if self.feas_replies is None:
                return _echo_feasibility(content)
            reply = self.feas_replies[self._feas_i % len(self.feas_replies)]
            self._feas_i += 1
        else:
            reply = self.gen_replies[self._gen_i % len(self.gen_replies)]
            self._gen_i += 1
        if isinstance(reply, Exception):
            raise reply
        if callable(reply):
            return reply(content)
        return reply


def _fin_corpus() -> Corpus:
    pages = [Page.from_raw("fin", 0, "表紙 2023年度 決算説明資料")]
    pages += [Page.from_raw("fin", i, PAGE_BODY) for i in range(1, 4)]
    return Corpus.from_pages(pages)


@pytest.fixture()
def corpus() -> Corpus:
    return _fin_corpus()


def test_fixture_pages_are_eligible(corpus):
    # guards the rest of this module: the shared body must clear the floor
    assert corpus.get("fin", 1).char_count >= 200
    assert is_content_page(corpus.get("fin", 1))
    assert not is_content_page(corpus.get("fin", 0))


# ---------------------------------------------------------------------------
# Page scoring and selection


class TestScorePage:
    # "x" * 40 is 40 characters and no numbers: a richness of 40
    def test_richness_counts_numbers_five_fold(self):
        page = Page.from_raw("d", 0, "abc 12 34")
        assert score_page(page, pages_in_doc=1) == 9 + 5.0 * 2

    def test_edges_are_damped_to_half(self):
        page = Page.from_raw("d", 0, "x" * 40)
        assert score_page(page, pages_in_doc=10) == pytest.approx(40 * 0.5)
        last = Page.from_raw("d", 9, "x" * 40)
        assert score_page(last, pages_in_doc=10) == pytest.approx(40 * 0.5)

    def test_centre_keeps_full_weight(self):
        page = Page.from_raw("d", 5, "x" * 40)
        assert score_page(page, pages_in_doc=11) == pytest.approx(40)

    def test_interior_interpolation(self):
        page = Page.from_raw("d", 4, "x" * 40)
        # offset |2*4/9 - 1| = 1/9, damped by half
        assert score_page(page, pages_in_doc=10) == pytest.approx(40 * (1 - 0.5 / 9))

    def test_final_is_product(self):
        page = Page.from_raw("d", 0, "abc 12 34")
        assert score_page(page, pages_in_doc=10) == pytest.approx((9 + 5.0 * 2) * 0.5)


class TestTocDensity:
    def test_empty_text(self):
        assert toc_density("") == 0.0
        assert toc_density("\n\n") == 0.0

    def test_all_rows_end_in_digits(self):
        assert toc_density("概況 2\n業績 13\n見通し 24") == 1.0

    def test_mixed_rows(self):
        assert toc_density("はじめに 3\n本文です\n概況 12\n結論") == 0.5

    def test_blank_lines_ignored(self):
        assert toc_density("概況 2\n\n\n本文です") == 0.5


class TestIsContentPage:
    def test_cover_page_always_excluded(self):
        page = Page.from_raw("d", 0, PAGE_BODY)
        assert not is_content_page(page)

    def test_short_page_excluded(self):
        page = Page.from_raw("d", 1, "短い")
        assert not is_content_page(page)

    def test_toc_page_excluded(self):
        toc = "目次\n" + "\n".join(f"第{i}章 ほにゃららの概況と見通し {i * 3}" for i in range(1, 21))
        page = Page.from_raw("d", 1, toc)
        assert page.char_count >= 200
        assert not is_content_page(page)

    def test_boundary_density_allowed(self):
        text = "概況 2\n" + "本文です" * 60  # exactly half the rows end in a digit
        page = Page.from_raw("d", 1, text)
        assert is_content_page(page)

    def test_content_page_accepted(self):
        page = Page.from_raw("d", 2, PAGE_BODY)
        assert is_content_page(page)


def _ten_page_doc() -> Corpus:
    filler = "市場環境に関する説明が続き、売上高 4200 百万円 や費用 310 百万円 の記載がある。"
    pages = [Page.from_raw("doc", 0, "表紙")]
    pages += [Page.from_raw("doc", i, f"ページ {i} の本文。" + filler * 6) for i in range(1, 10)]
    return Corpus.from_pages(pages)


class TestSelectPages:
    def test_spreads_across_position_bands(self):
        picked = select_pages(_ten_page_doc(), quota=5, seed=0)
        assert len(picked) == 5
        bands = [{1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}]
        for band in bands:
            assert len([ref for ref in picked if ref[1] in band]) == 1

    def test_deterministic_for_fixed_seed(self):
        corpus = _ten_page_doc()
        assert select_pages(corpus, 6, seed=3) == select_pages(corpus, 6, seed=3)

    def test_seed_changes_visit_order_not_membership(self):
        corpus = _ten_page_doc()
        base = select_pages(corpus, 9, seed=0)
        others = [select_pages(corpus, 9, seed=s) for s in range(1, 7)]
        assert all(sorted(o) == sorted(base) for o in others)
        assert any(o != base for o in others)

    def test_band_neighbours_drain_best_first(self):
        # pages 2 and 3 share a band; 3 sits nearer the middle so it outranks 2
        picked = select_pages(_ten_page_doc(), quota=9, seed=1)
        assert picked.index(("doc", 3)) < picked.index(("doc", 2))

    def test_quota_above_eligible_returns_all_and_warns(self, caplog):
        with caplog.at_level("WARNING", logger="docqa_engine.augment"):
            picked = select_pages(_ten_page_doc(), quota=50, seed=0)
        assert len(picked) == 9
        assert any("exceeds" in r.message for r in caplog.records)

    def test_no_eligible_pages_warns_and_returns_empty(self, caplog):
        corpus = Corpus.from_pages([Page.from_raw("d", 0, "表紙だけ")])
        with caplog.at_level("WARNING", logger="docqa_engine.augment"):
            assert select_pages(corpus, 3) == []
        assert any("no eligible" in r.message for r in caplog.records)

    def test_validation(self):
        corpus = _ten_page_doc()
        with pytest.raises(ValueError, match="quota"):
            select_pages(corpus, 0)


# ---------------------------------------------------------------------------
# Prompt construction


GOLDEN_PROMPT_SHA256 = {
    "generate_comparative": "57dd1b6c39a098910a4b3e1cf7b33a3a249135ae06901c245aca636a5264715f",
    "generate_computational": "065357431cc4c7235b6a2ef477f41b16b99141e8e1437b1070f9d5a9eaa51723",
    "generate_conditional": "d4b733449b1714d7817c4f55428f5f507719bee2433aaa850ce949d7a63cf738",
    "generate_causal": "c9f36a596a7376dcabe850c9c2bcb6fa8094bf837bdc06e7f634f91a1595c6a8",
    "generate_comprehensive": "ebd060eabc1ff3479c0918d7aadbc365b366f575a1c04d26eafe41d3e7b045b4",
    "feasibility": "38ce60a10f4e589620e2467094717e7f7f1c349df26ee108a508e03ebc9f9d23",
    "answer": "395cfa045ae7feb06970c6af75b23f7987b962582d36366d3a392af8b29bf001",
}


class TestBuildPrompt:
    def test_generation_prompt_substitution(self):
        prompt = build_prompt(
            "generate_comparative",
            {"page_text": "本文テキスト", "doc_id": "fin", "page_index": 2},
        )
        assert "本文テキスト" in prompt
        assert "document fin, page 2" in prompt
        assert "exam-grade multiple-choice question" in prompt
        assert prompt == build_prompt(
            "generate_comparative",
            {"page_text": "本文テキスト", "doc_id": "fin", "page_index": 2},
        )

    def test_each_generation_kind_builds(self):
        context = {"page_text": "t", "doc_id": "d", "page_index": 1}
        prompts = {q: build_prompt(f"generate_{q}", context) for q in QTYPES}
        # the five templates share framing but differ in their instructions
        assert len(set(prompts.values())) == len(QTYPES)

    def test_feasibility_prompt_substitution(self):
        prompt = build_prompt(
            "feasibility",
            {"page_text": "ページ本文", "question": "何ですか。", "options_block": "A. 甲\nB. 乙"},
        )
        assert "ページ本文" in prompt
        assert "Question: 何ですか。" in prompt
        assert "A. 甲\nB. 乙" in prompt

    def test_rendered_prompts_match_their_golden_digests(self):
        # sha256 of each rendered prompt for one fixed context, fixed when the
        # generation kinds got one shared frame: any drift in the text changes one
        gen = {"page_text": "売上高は 4200 百万円。\nRevenue rose 12% in FY2023.",
               "doc_id": "fin-2023", "page_index": 7}
        options = ["4200 百万円", "310 百万円", "12%", "none"]
        feas = {"page_text": gen["page_text"], "question": "What was revenue?",
                "options_block": options_block(options)}
        prompts = {f"generate_{q}": build_prompt(f"generate_{q}", gen) for q in QTYPES}
        prompts["feasibility"] = build_prompt("feasibility", feas)
        prompts["answer"] = build_answer_prompt("What was revenue?", options)
        digests = {kind: hashlib.sha256(text.encode("utf-8")).hexdigest()
                   for kind, text in prompts.items()}
        assert digests == GOLDEN_PROMPT_SHA256

    def test_generation_kinds_hold_only_their_instruction(self):
        # the frame (header, page block, reply format) is written once
        for qtype in QTYPES:
            paragraph = resources.files("docqa_engine").joinpath(
                f"templates/generate_{qtype}.txt").read_text(encoding="utf-8")
            assert paragraph.startswith("Write one ")
            assert "$page_text" not in paragraph
            assert "Evidence:" not in paragraph

    def test_missing_template_file_is_config_error(self, monkeypatch):
        real = resources.files

        class Missing:
            def joinpath(self, name):
                return real("docqa_engine").joinpath(name.replace(".txt", ".missing"))

        monkeypatch.setattr(augment_module.resources, "files", lambda package: Missing())
        augment_module._load_template.cache_clear()  # a failed load caches nothing
        with pytest.raises(ConfigError, match="prompt template not found"):
            build_prompt("generate_causal", {"page_text": "t", "doc_id": "d", "page_index": 1})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown prompt kind"):
            build_prompt("generate_trivia", {})

    def test_missing_context_key_rejected(self):
        with pytest.raises(ValueError, match="missing key"):
            build_prompt("feasibility", {})


# ---------------------------------------------------------------------------
# Parsing generated output


class TestParseQACandidate:
    def test_happy_path(self):
        raw = (
            "Sure, here is the question.\n\n"
            "Question: 売上高はいくらですか、前年と比べてどうですか。\n"
            "Options:\n"
            "A. 4200 百万円\n"
            "B. 310 百万円\n"
            "C. 150 百万円\n"
            "D. 90 百万円\n"
            "Answer: B\n"
            "Evidence: 営業利益は 310 百万円 で改善した。\n"
        )
        candidate = parse_qa_candidate(raw, "comparative", ("fin", 2))
        assert candidate.question == "売上高はいくらですか、前年と比べてどうですか。"
        assert candidate.options == ("4200 百万円", "310 百万円", "150 百万円", "90 百万円")
        assert candidate.answer_index == 1
        assert candidate.qtype == "comparative"
        assert (candidate.doc_id, candidate.page_index) == ("fin", 2)
        assert candidate.evidence.startswith("営業利益は")

    def test_normalization_applied(self):
        raw = "Question: Ｑはどれ？\nOptions:\nA. １２３\nB. ４５６\nAnswer: A\nEvidence: ｅｖ"
        candidate = parse_qa_candidate(raw, "computational", ("d", 1))
        assert candidate.question == "Qはどれ?"
        assert candidate.options == ("123", "456")
        assert candidate.evidence == "ev"

    def test_wrapped_lines_are_joined(self):
        raw = (
            "Question: 次のうち、当期に報告された\n"
            "売上高はどれですか。\n"
            "Options:\n"
            "A. 4200 百万円\n"
            "B. 310 百万円で、こちらは\n"
            "営業利益の値です\n"
            "Answer: A\n"
            "Evidence: 当期の売上高は\n"
            "4200 百万円 に達した\n"
        )
        candidate = parse_qa_candidate(raw, "comparative", ("d", 1))
        assert "売上高はどれですか。" in candidate.question
        assert candidate.options[1].endswith("営業利益の値です")
        assert candidate.evidence.endswith("に達した")

    def test_list_markers_tolerated(self):
        raw = (
            "> Question: どちらが大きいですか、売上と利益とでは。\n"
            "Options:\n"
            "- A) 売上 4200\n"
            "- B) 利益 310\n"
            "* Answer: (a)\n"
            "> Evidence: 引用文 4200\n"
        )
        candidate = parse_qa_candidate(raw, "comparative", ("d", 1))
        assert candidate.options == ("売上 4200", "利益 310")
        assert candidate.answer_index == 0

    @pytest.mark.parametrize(
        "raw,match",
        [
            ("Options:\nA. x\nB. y\nAnswer: A\nEvidence: e", "missing question"),
            ("Question: q?\nOptions:\nA. x\nAnswer: A\nEvidence: e", "at least two options"),
            ("Question: q?\nOptions:\nA. x\nC. y\nAnswer: A\nEvidence: e", "without gaps"),
            ("Question: q?\nOptions:\nB. x\nC. y\nAnswer: B\nEvidence: e", "without gaps"),
            ("Question: q?\nOptions:\nA. x\nB. y\nEvidence: e", "missing answer"),
            ("Question: q?\nOptions:\nA. x\nB. y\nAnswer: D\nEvidence: e", "no matching option"),
            ("Question: q?\nOptions:\nA. x\nB. y\nAnswer: A", "missing evidence"),
        ],
    )
    def test_malformed_output_rejected(self, raw, match):
        with pytest.raises(ParseError, match=match):
            parse_qa_candidate(raw, "causal", ("d", 1))


class TestParseFeasibility:
    def test_happy_path(self):
        raw = (
            "Reasoning: ページに売上高の値が明記されているため判断できます。\n"
            "Answerable: yes\n"
            "Answer: 4200 百万円\n"
            "Evidence: 売上高は 4200 百万円 に達した\n"
        )
        verdict = parse_feasibility(raw)
        assert verdict.answerable is True
        assert verdict.answer == "4200 百万円"
        assert "明記されている" in verdict.reasoning
        assert verdict.evidence.startswith("売上高は")

    def test_japanese_negative_token(self):
        raw = (
            "Reasoning: ページには該当する情報が見当たりません。\n"
            "Answerable: いいえ\n"
            "Answer:\n"
            "Evidence:\n"
        )
        verdict = parse_feasibility(raw)
        assert verdict.answerable is False
        assert verdict.answer == ""

    def test_decorated_labels(self):
        raw = (
            "> Reasoning: 根拠となる記載がページの中央に明確に存在しています。\n"
            "> Answerable: Yes\n"
            "> Answer: 310 百万円\n"
            "> Evidence: 営業利益は 310 百万円\n"
        )
        verdict = parse_feasibility(raw)
        assert verdict.answerable is True
        assert verdict.answer == "310 百万円"

    def test_multiline_sections(self):
        raw = (
            "Reasoning: 一行目の説明。\nさらに続く説明。\n"
            "Answerable: yes\n"
            "Answer: 甲\n"
            "Evidence: 引用\n"
        )
        verdict = parse_feasibility(raw)
        assert "さらに続く説明" in verdict.reasoning

    @pytest.mark.parametrize("missing", ["reasoning", "answerable", "answer", "evidence"])
    def test_missing_sections_rejected(self, missing):
        lines = {
            "reasoning": "Reasoning: 根拠の説明です。",
            "answerable": "Answerable: yes",
            "answer": "Answer: 甲",
            "evidence": "Evidence: 引用",
        }
        raw = "\n".join(v for k, v in lines.items() if k != missing)
        with pytest.raises(ParseError, match=f"missing section: {missing}"):
            parse_feasibility(raw)

    def test_answerable_with_empty_answer_rejected(self):
        raw = "Reasoning: r\nAnswerable: yes\nAnswer:\nEvidence: e"
        with pytest.raises(ParseError, match="gave no answer"):
            parse_feasibility(raw)

    def test_non_boolean_token_rejected(self):
        raw = "Reasoning: r\nAnswerable: perhaps\nAnswer: 甲\nEvidence: e"
        with pytest.raises(ParseError, match="yes/no token"):
            parse_feasibility(raw)

    def test_answerable_label_not_swallowed_by_answer(self):
        # "Answerable:" must never satisfy the answer section
        raw = "Reasoning: 説明\nAnswerable: yes\nEvidence: e"
        with pytest.raises(ParseError, match="missing section: answer"):
            parse_feasibility(raw)


class TestLabelSectionEdges:
    """Where a section of each reply format starts and stops."""

    def test_letterless_answer_line_stays_option_text(self):
        raw = ("Question: どちらですか、売上と利益では。\nA. 売上 4200\nB. 利益 310\n"
               "Answer: not sure yet\n* Answer: (b)\nEvidence: 利益 310\n")
        candidate = parse_qa_candidate(raw, "comparative", ("d", 1))
        assert candidate.options == ("売上 4200", "利益 310 Answer: not sure yet")
        assert candidate.answer_index == 1

    def test_chatter_after_a_blank_line_is_not_evidence(self):
        raw = ("Question: どちらですか、売上と利益では。\nOptions:\nA. 売上\nB. 利益\n"
               "Answer: A\nEvidence: 売上高は 4200\n営業利益は 310\n\nHope this helps!\n")
        candidate = parse_qa_candidate(raw, "comparative", ("d", 1))
        assert candidate.evidence == "売上高は 4200 営業利益は 310"

    def test_options_without_a_header_parse(self):
        raw = "Question: q, r?\n- (A) x\n- (B) y\nAnswer: B\nEvidence: e"
        candidate = parse_qa_candidate(raw, "comparative", ("d", 1))
        assert (candidate.options, candidate.answer_index) == (("x", "y"), 1)

    def test_feasibility_option_line_stays_in_the_reasoning(self):
        raw = ("Reasoning: 選択肢を検討した。\nA. 4200 百万円 がページにある。\n"
               "Answerable: yes\nAnswer: 4200 百万円\nEvidence: 売上高は 4200 百万円\n")
        verdict = parse_feasibility(raw)
        assert verdict.reasoning == "選択肢を検討した。\nA. 4200 百万円 がページにある。"


_REPLY_LINES = st.one_of(
    st.tuples(st.sampled_from(["", "> ", "- ", "* ", "## ", "\t"]),
              st.sampled_from(["Question", "OPTIONS", "answer", "Evidence", "Reasoning",
                               "Answerable", "Answer"]),
              st.sampled_from([":", "：", " :", ""]),
              st.sampled_from(["", " B", " (c)", " yes", " no", " 4200 百万円", " x"])
              ).map("".join),
    st.tuples(st.sampled_from(["", "- ", "(", "（", "# "]), st.sampled_from("ABCDJKab"),
              st.sampled_from([".", ")", "）", ":", "。", ""]), st.text(max_size=8)
              ).map("".join),
    st.sampled_from(["", "  ", "　"]),
    st.text(max_size=20),
)


@settings(max_examples=500, deadline=None)
@given(lines=st.lists(_REPLY_LINES, max_size=14), newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_any_labeled_text_parses_or_raises_parse_error(lines, newline):
    raw = newline.join(lines)
    for parse in (lambda text: parse_qa_candidate(text, "causal", ("d", 1)), parse_feasibility):
        try:
            parse(raw)
        except ParseError:
            pass


# ---------------------------------------------------------------------------
# Quality gates


GATE_PAGE = (
    "当期の売上高は 4200 百万円 に達した。営業利益は 310 百万円 で改善した。"
    "研究開発費は 150 百万円 と横ばいだった。従業員数は 1200 人 に増加した。"
)


def _candidate(
    question: str = "売上高は 4200 百万円 ですか、それとも 310 百万円 ですか。",
    options: tuple = ("4200 百万円", "310 百万円", "150 百万円"),
    answer_index: int = 0,
) -> QACandidate:
    return QACandidate(
        question=question,
        options=tuple(options),
        answer_index=answer_index,
        qtype="comparative",
        doc_id="fin",
        page_index=1,
        evidence="当期の売上高は 4200 百万円",
    )


class TestClauseCount:
    def test_japanese_delimiters(self):
        assert clause_count("前年比で増加したか、減少したか。") == 2

    def test_single_clause(self):
        assert clause_count("どの指標が最も大きいですか") == 1

    def test_latin_delimiters(self):
        assert clause_count("If revenue grew, which figure applies?") == 2


class TestRunGates:
    def test_clean_candidate_passes_all(self):
        assert run_gates(_candidate(), [], GATE_PAGE) == []

    def test_short_question_fails_length_only(self):
        failed = run_gates(_candidate(question="1は、2か"), [], GATE_PAGE)
        assert failed == ["length"]

    def test_overlong_question_fails_length_only(self):
        failed = run_gates(
            _candidate(question="売上高 4200 百万円 について、" * 30), [], GATE_PAGE
        )
        assert failed == ["length"]

    def test_simple_question_fails_complexity_only(self):
        failed = run_gates(
            _candidate(question="どの指標が最も大きな金額ですか"), [], GATE_PAGE
        )
        assert failed == ["complexity"]

    def test_numeric_question_satisfies_complexity(self):
        # one clause but a number on board
        failed = run_gates(
            _candidate(question="売上高 4200 百万円 はどれですか"), [], GATE_PAGE
        )
        assert "complexity" not in failed

    def test_unsupported_answer_fails_support_only(self):
        failed = run_gates(
            _candidate(
                question="売上高と営業利益では、どちらが 9999 百万円 に近いですか。",
                options=("9999 百万円", "310 百万円", "150 百万円"),
            ),
            [],
            GATE_PAGE,
        )
        assert failed == ["answer_support"]

    def test_numeric_escape_requires_all_numbers_on_page(self):
        # 4200 is on the page, 9999 is not -> the escape must not fire
        failed = run_gates(
            _candidate(options=("4200 と 9999 百万円", "310 百万円", "150 百万円")),
            [],
            GATE_PAGE,
        )
        assert "answer_support" in failed

    def test_duplicate_options_fail_quality_only(self):
        failed = run_gates(
            _candidate(options=("4200 百万円", "4200 百万円", "310 百万円")),
            [],
            GATE_PAGE,
        )
        assert failed == ["option_quality"]

    def test_length_ratio_fails_quality(self):
        failed = run_gates(
            _candidate(options=("4200 百万円", "円", "310 百万円")), [], GATE_PAGE
        )
        assert "option_quality" in failed

    def test_empty_option_fails_quality(self):
        failed = run_gates(
            _candidate(options=("4200 百万円", "", "310 百万円")), [], GATE_PAGE
        )
        assert "option_quality" in failed

    def test_out_of_range_index_fails_support_and_quality(self):
        failed = run_gates(_candidate(answer_index=9), [], GATE_PAGE)
        assert failed == ["answer_support", "option_quality"]

    def test_duplicate_question_fails_dedup_only(self):
        prior = _candidate()
        failed = run_gates(_candidate(), [prior], GATE_PAGE)
        assert failed == ["dedup"]

    def test_dedup_boundary_is_strict(self):
        # token sets {a,b,c,d} vs {a,b,c,d,e}: Jaccard exactly 0.8 -> rejected
        prior = _candidate(question="alpha beta gamma delta")
        failed = run_gates(
            _candidate(question="alpha beta gamma delta epsilon"), [prior], GATE_PAGE
        )
        assert "dedup" in failed

    def test_dedup_below_boundary_passes(self):
        prior = _candidate(question="alpha beta gamma delta epsilon")
        failed = run_gates(
            _candidate(question="alpha beta gamma delta epsilon zeta eta"),
            [prior],
            GATE_PAGE,
        )
        assert "dedup" not in failed

    def test_tokenless_questions_count_as_duplicates(self):
        # empty token sets compare as identical, not as trivially distinct
        prior = _candidate(question="")
        failed = run_gates(_candidate(question=""), [prior], GATE_PAGE)
        assert "dedup" in failed


class TestValidateFeasibility:
    def _verdict(self, **overrides) -> FeasibilityVerdict:
        values = {
            "reasoning": "ページには売上高の値が明確に記載されており、選択肢の数値と直接照合して判断することができます。",
            "answerable": True,
            "answer": "4200 百万円",
            "evidence": "当期の売上高は 4200 百万円 に達した",
        }
        values.update(overrides)
        return FeasibilityVerdict(**values)

    def test_happy_path(self):
        assert validate_feasibility(self._verdict(), _candidate(), GATE_PAGE)

    def test_not_answerable(self):
        verdict = self._verdict(answerable=False)
        assert not validate_feasibility(verdict, _candidate(), GATE_PAGE)

    def test_thin_reasoning(self):
        verdict = self._verdict(reasoning="短い")
        assert not validate_feasibility(verdict, _candidate(), GATE_PAGE)

    def test_answer_matching_no_option(self):
        verdict = self._verdict(answer="777 百万円")
        assert not validate_feasibility(verdict, _candidate(), GATE_PAGE)

    def test_answer_matching_multiple_options(self):
        # "百万円" is contained in several options -> ambiguous
        verdict = self._verdict(answer="百万円")
        assert not validate_feasibility(verdict, _candidate(), GATE_PAGE)

    def test_substring_answer_matches_single_option(self):
        verdict = self._verdict(answer="たしかに 4200 百万円 です")
        assert validate_feasibility(verdict, _candidate(), GATE_PAGE)

    def test_answer_of_only_punctuation_matches_not_even_a_sole_option(self):
        # an empty answer is part of every option's text, so it is matched to none
        candidate = _candidate(options=("4200 百万円",))
        assert validate_feasibility(self._verdict(), candidate, GATE_PAGE)
        assert not validate_feasibility(self._verdict(answer="。"), candidate, GATE_PAGE)

    def test_off_page_evidence(self):
        verdict = self._verdict(evidence="まったく無関係な別文書の引用文がここに入る")
        assert not validate_feasibility(verdict, _candidate(), GATE_PAGE)

    def test_empty_evidence(self):
        verdict = self._verdict(evidence="")
        assert not validate_feasibility(verdict, _candidate(), GATE_PAGE)


# ---------------------------------------------------------------------------
# Attempt apportionment: attempts cycle through the question types


def _attempt_types(quota: int) -> list[str]:
    """Question type of each attempt, read from the audit of unparseable replies."""
    result = augment(_fin_corpus(), RoutedClient(["garbage"]), quota=quota, seed=0)
    return [record["qtype"] for record in result.audit]


class TestApportion:
    def test_uniform_split(self):
        assert Counter(_attempt_types(50)) == {q: 10 for q in QTYPES}

    def test_largest_remainder_with_stable_ties(self):
        # 1.4 each: two leftovers go to the earliest types
        assert Counter(_attempt_types(7)) == {
            "comparative": 2,
            "computational": 2,
            "conditional": 1,
            "causal": 1,
            "comprehensive": 1,
        }

    def test_totals_always_match_quota(self):
        for quota in range(1, 23):
            assert len(_attempt_types(quota)) == quota


def test_type_sequence_round_robins():
    assert _attempt_types(12) == [QTYPES[i % len(QTYPES)] for i in range(12)]


# ---------------------------------------------------------------------------
# The full augmentation loop


class TestAugment:
    def test_happy_path_accepts_everything(self, corpus):
        client = RoutedClient(GEN_BLOCKS)
        result = augment(corpus, client, quota=5, seed=0)
        assert result.attempts == 5
        assert len(result.accepted) == 5
        assert result.audit == []
        # uniform mix over five types, one attempt each, in declaration order
        assert [c.qtype for c in result.accepted] == list(QTYPES)
        assert result.summary() == {
            "attempts": 5,
            "accepted": 5,
            "rejected": 0,
            "rejections_by_stage": {},
        }

    def test_two_calls_per_accepted_candidate(self, corpus):
        client = RoutedClient(GEN_BLOCKS)
        augment(corpus, client, quota=5, seed=0)
        assert len(client.requests) == 10
        feas = [r for r in client.requests
                if "auditing one multiple-choice" in r["messages"][0]["content"]]
        assert len(feas) == 5
        # audits run greedy
        assert all(r["temperature"] == 0.0 and r["top_k"] == 1 for r in feas)

    def test_malformed_generation_is_audited_as_parse(self, corpus):
        replies = list(GEN_BLOCKS)
        replies[2] = "I cannot produce a question for this page."
        client = RoutedClient(replies)
        result = augment(corpus, client, quota=5, seed=0)
        assert result.attempts == 5
        assert len(result.accepted) == 4
        (record,) = result.audit
        assert record["stage"] == "parse"
        assert record["attempt"] == 2
        assert record["qtype"] == QTYPES[2]
        assert record["doc_id"] == "fin"
        assert "missing question" in record["reason"]

    def test_gate_failure_is_audited_with_first_gate(self, corpus):
        bad = _qa_block(
            "営業利益はどちらですか、それとも売上高ですか。",
            ["310 百万円", "310 百万円", "150 百万円"],  # duplicate options
        )
        replies = list(GEN_BLOCKS)
        replies[0] = bad
        client = RoutedClient(replies)
        result = augment(corpus, client, quota=5, seed=0)
        assert len(result.accepted) == 4
        (record,) = result.audit
        assert record["stage"] == "gate:option_quality"
        assert record["reason"] == "failed gates: option_quality"
        assert record["question"]

    def test_feasibility_no_is_audited(self, corpus):
        refusal = (
            "Reasoning: ページからはこの質問に答えるための情報が読み取れませんでした。\n"
            "Answerable: no\nAnswer:\nEvidence:\n"
        )
        client = RoutedClient(GEN_BLOCKS[:1], feas_replies=[refusal])
        result = augment(corpus, client, quota=1, seed=0)
        assert result.accepted == []
        (record,) = result.audit
        assert record["stage"] == "feasibility"

    def test_garbled_feasibility_is_audited_as_parse(self, corpus):
        client = RoutedClient(GEN_BLOCKS[:1], feas_replies=["looks fine to me"])
        result = augment(corpus, client, quota=1, seed=0)
        (record,) = result.audit
        assert record["stage"] == "feasibility_parse"

    def test_transport_failure_is_audited(self, corpus):
        replies = [TransportError("socket closed")] + GEN_BLOCKS[1:]
        client = RoutedClient(replies)
        result = augment(corpus, client, quota=5, seed=0)
        assert len(result.accepted) == 4
        (record,) = result.audit
        assert record["stage"] == "transport"
        assert "socket closed" in record["reason"]

    def test_feasibility_can_be_disabled(self, corpus):
        client = RoutedClient(GEN_BLOCKS)
        result = augment(corpus, client, quota=5, seed=0, feasibility_check=False)
        assert len(result.accepted) == 5
        assert len(client.requests) == 5  # generation only

    def test_accepted_plus_audit_equals_attempts(self, corpus):
        replies = list(GEN_BLOCKS)
        replies[1] = "garbage"
        replies[4] = _qa_block("重複、重複。", ["310 百万円", "310 百万円"])
        client = RoutedClient(replies)
        result = augment(corpus, client, quota=5, seed=0)
        assert result.attempts == len(result.accepted) + len(result.audit) == 5

    def test_pages_cycle_when_quota_exceeds_them(self, corpus):
        client = RoutedClient(GEN_BLOCKS)
        result = augment(corpus, client, quota=5, seed=0)
        used = [(c.doc_id, c.page_index) for c in result.accepted]
        # three eligible pages for five attempts: wrap-around reuses pages
        assert len(set(used)) == 3

    def test_deterministic_for_fixed_seed(self, corpus):
        first = augment(corpus, RoutedClient(GEN_BLOCKS), quota=5, seed=9)
        second = augment(corpus, RoutedClient(GEN_BLOCKS), quota=5, seed=9)
        assert [c.to_record() for c in first.accepted] == [
            c.to_record() for c in second.accepted
        ]
        assert first.audit == second.audit

    def test_generation_seeds_drawn_from_master(self, corpus):
        client_a = RoutedClient(GEN_BLOCKS)
        client_b = RoutedClient(GEN_BLOCKS)
        augment(corpus, client_a, quota=2, seed=1)
        augment(corpus, client_b, quota=2, seed=2)
        seeds_a = [r["seed"] for r in client_a.requests]
        seeds_b = [r["seed"] for r in client_b.requests]
        assert seeds_a != seeds_b

    def test_generation_requests_do_not_depend_on_later_stages(self, corpus):
        # each attempt's seeds come from the master seed and its index alone,
        # so an ablation of the feasibility check or a stricter gate leaves
        # every generation request as it was
        def generation_requests(**options):
            client = RoutedClient(GEN_BLOCKS)
            augment(corpus, client, quota=10, seed=4, **options)
            return [r for r in client.requests
                    if "auditing one multiple-choice" not in r["messages"][0]["content"]]

        baseline = generation_requests()
        assert generation_requests(feasibility_check=False) == baseline
        strict = GateThresholds(question_max_chars=20)  # rejects every generated question
        assert generation_requests(thresholds=strict) == baseline

    def test_seed_pairs_are_drawn_per_attempt(self, corpus):
        replies = list(GEN_BLOCKS)
        replies[1] = "garbage"  # attempt 1 sends no feasibility request
        client = RoutedClient(replies)
        augment(corpus, client, quota=5, seed=6)
        rng = random.Random(6)
        pairs = [(rng.randrange(2**31), rng.randrange(2**31)) for _ in range(5)]
        feas = [FEAS_MARKER in r["messages"][0]["content"] for r in client.requests]
        assert [r["seed"] for r, f in zip(client.requests, feas) if not f] == [
            gen for gen, _ in pairs]
        assert [r["seed"] for r, f in zip(client.requests, feas) if f] == [
            pairs[attempt][1] for attempt in (0, 2, 3, 4)]

    def test_empty_corpus_of_covers_short_circuits(self, caplog):
        corpus = Corpus.from_pages([Page.from_raw("d", 0, "表紙")])
        client = RoutedClient(GEN_BLOCKS)
        with caplog.at_level("WARNING", logger="docqa_engine.augment"):
            result = augment(corpus, client, quota=3, seed=0)
        assert result == AugmentResult(accepted=[], audit=[])
        assert client.requests == []

    def test_quota_validation(self, corpus):
        with pytest.raises(ValueError, match="quota"):
            augment(corpus, RoutedClient(GEN_BLOCKS), quota=0)


# ---------------------------------------------------------------------------
# Pipelined augmentation: generations fetched ahead, feasibility inline

FEAS_MARKER = "auditing one multiple-choice question"
PIPE_OPTIONS = ["4200 百万円", "310 百万円", "150 百万円", "90 百万円"]
FEAS_REFUSAL = (
    "Reasoning: ページからはこの質問に答えるための情報が読み取れませんでした。\n"
    "Answerable: no\nAnswer:\nEvidence:\n"
)


def _pipe_question(i: int) -> str:
    # eight shared tokens and four unique ones: distinct questions stay at a
    # Jaccard of 0.5, while the question plus one word reaches 12/13
    return f"Which figure, per the report, matches item{i} tag{i} mark{i} code{i}?"


def _question_of(prompt: str) -> str:
    return re.search(r"^Question: (.*)$", prompt, re.MULTILINE).group(1)


def _serial_augment(corpus, client, quota, seed, thresholds=GateThresholds()):
    """The one-request-at-a-time loop the pipelined augment() must reproduce."""
    pages = select_pages(corpus, quota, seed=seed)
    rng = random.Random(seed)
    seeds = [(rng.randrange(2**31), rng.randrange(2**31)) for _ in range(quota)]
    accepted, audit = [], []
    for attempt in range(quota):
        qtype = QTYPES[attempt % len(QTYPES)]
        doc_id, page_index = pages[attempt % len(pages)]
        page = corpus.get(doc_id, page_index)
        base = {"attempt": attempt, "qtype": qtype, "doc_id": doc_id, "page_index": page_index}
        prompt = build_prompt(f"generate_{qtype}", {
            "page_text": page.normalized_text, "doc_id": doc_id, "page_index": page_index})
        request = {"messages": [{"role": "user", "content": prompt}], "temperature": 0.7,
                   "top_p": 0.95, "top_k": 50, "seed": seeds[attempt][0], "max_tokens": 512}
        try:
            raw = client.generate(request)
        except (TransportError, EndpointError, ContractError) as exc:
            audit.append({**base, "stage": "transport", "reason": str(exc)})
            continue
        try:
            candidate = parse_qa_candidate(raw, qtype, (doc_id, page_index))
        except ParseError as exc:
            audit.append({**base, "stage": "parse", "reason": str(exc)})
            continue
        failed = run_gates(candidate, accepted, page.normalized_text, thresholds)
        if failed:
            audit.append({**base, "stage": f"gate:{failed[0]}",
                          "reason": "failed gates: " + ",".join(failed),
                          "question": candidate.question})
            continue
        feas_prompt = build_prompt("feasibility", {
            "page_text": page.normalized_text, "question": candidate.question,
            "options_block": options_block(candidate.options)})
        feas_request = {"messages": [{"role": "user", "content": feas_prompt}],
                        "temperature": 0.0, "top_p": 1.0, "top_k": 1,
                        "seed": seeds[attempt][1], "max_tokens": 512}
        try:
            feas_raw = client.generate(feas_request)
        except (TransportError, EndpointError, ContractError) as exc:
            audit.append({**base, "stage": "transport", "reason": str(exc),
                          "question": candidate.question})
            continue
        try:
            verdict = parse_feasibility(feas_raw)
        except ParseError as exc:
            audit.append({**base, "stage": "feasibility_parse", "reason": str(exc),
                          "question": candidate.question})
            continue
        if not validate_feasibility(verdict, candidate, page.normalized_text, thresholds):
            audit.append({**base, "stage": "feasibility",
                          "reason": "feasibility validation failed",
                          "question": candidate.question})
            continue
        accepted.append(candidate)
    return AugmentResult(accepted=accepted, audit=audit)


class ScriptedLanesClient:
    """Attempt-indexed generation script; feasibility keyed by question.

    Each script entry is (generation kind, feasibility verdict, feasibility
    sleep). Generation kinds: clean, defective (duplicate options),
    dup_pending (the latest clean question plus one word), unparseable and
    transport. Verdicts: yes, no, garbled and transport. Every attempt's
    question is unique, so a feasibility reply depends only on its request.
    """

    def __init__(self, script, sleep: bool = True):
        self.script = script
        self.sleep = sleep
        self.verdicts: dict[str, tuple[str, float]] = {}
        self.gen_requests: list[dict] = []
        self.feas_requests: list[dict] = []
        self.events: list[tuple[str, str]] = []
        self._gen_lock = threading.Lock()

    def _generation(self, attempt: int) -> str:
        kind, verdict, pause = self.script[attempt]
        if kind == "transport":
            raise TransportError(f"socket closed at attempt {attempt}")
        if kind == "unparseable":
            return "I cannot produce a question for this page."
        if kind == "defective":
            return _qa_block(_pipe_question(attempt), ["310 百万円", "310 百万円", "55 円"])
        cleans = [i for i in range(attempt) if self.script[i][0] == "clean"]
        if kind == "dup_pending" and cleans:
            question = f"{_pipe_question(cleans[-1])} again{attempt}"
        else:  # clean, or a duplicate with nothing before it to repeat
            question = _pipe_question(attempt)
        self.verdicts[question] = (verdict, pause)
        return _qa_block(question, PIPE_OPTIONS)

    def _feasibility(self, prompt: str) -> str:
        question = _question_of(prompt)
        verdict, pause = self.verdicts[question]
        self.events.append(("feas_start", question))
        if self.sleep:
            time.sleep(pause)
        self.events.append(("feas_end", question))
        if verdict == "transport":
            raise TransportError("feasibility socket closed")
        if verdict == "no":
            return FEAS_REFUSAL
        if verdict == "garbled":
            return "looks fine to me"
        return _echo_feasibility(prompt)

    def generate(self, request: dict) -> str:
        content = request["messages"][0]["content"]
        if FEAS_MARKER in content:
            self.feas_requests.append(request)
            return self._feasibility(content)
        assert self._gen_lock.acquire(blocking=False), "generation requests overlapped"
        try:
            attempt = len(self.gen_requests)
            self.gen_requests.append(request)
            self.events.append(("gen", str(attempt)))
            return self._generation(attempt)
        finally:
            self._gen_lock.release()


def _lanes_bytes(result: AugmentResult, client: ScriptedLanesClient) -> bytes:
    return json.dumps(
        [[c.to_record() for c in result.accepted], result.audit,
         client.gen_requests, client.feas_requests],
        ensure_ascii=False,
    ).encode("utf-8")


_SCRIPT_ENTRY = st.tuples(
    st.sampled_from(["clean", "defective", "dup_pending", "unparseable", "transport"]),
    st.sampled_from(["yes", "no", "garbled", "transport"]),
    st.sampled_from([0.0, 0.0005, 0.002, 0.005]),
)


class TestPipelinedAugment:
    @settings(max_examples=40, deadline=None)
    @given(script=st.lists(_SCRIPT_ENTRY, min_size=1, max_size=14),
           seed=st.integers(0, 2**16))
    def test_same_bytes_as_the_serial_loop(self, script, seed):
        corpus = _fin_corpus()
        serial_client = ScriptedLanesClient(script, sleep=False)
        serial = _serial_augment(corpus, serial_client, len(script), seed)
        lanes_client = ScriptedLanesClient(script)
        lanes = augment(corpus, lanes_client, quota=len(script), seed=seed)
        assert _lanes_bytes(lanes, lanes_client) == _lanes_bytes(serial, serial_client)
        assert lanes.attempts == len(lanes.accepted) + len(lanes.audit)

    def test_same_bytes_under_frequent_thread_switches(self, corpus):
        kinds = ["clean", "dup_pending", "clean", "defective", "dup_pending",
                 "unparseable", "clean", "transport", "dup_pending", "clean"]
        verdicts = ["yes", "no", "yes", "garbled", "transport"]
        script = [(kinds[i % len(kinds)], verdicts[i % len(verdicts)], 0.0) for i in range(60)]
        serial_client = ScriptedLanesClient(script, sleep=False)
        serial = _serial_augment(corpus, serial_client, len(script), seed=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                client = ScriptedLanesClient(script)
                lanes = augment(corpus, client, quota=len(script), seed=5)
                assert _lanes_bytes(lanes, client) == _lanes_bytes(serial, serial_client)
        finally:
            sys.setswitchinterval(interval)

    def test_generation_requests_follow_attempt_order(self, corpus):
        # slow verdicts let the generation lane run ahead of the gates; it
        # must still ask in attempt order, one at a time
        script = [("clean", "yes", 0.02)] * 10
        serial_client = ScriptedLanesClient(script, sleep=False)
        _serial_augment(corpus, serial_client, 10, seed=3)
        second_sent = threading.Event()
        seen_during_first_verdict = []

        class AheadClient(ScriptedLanesClient):
            def _generation(self, attempt):
                if attempt == 1:
                    second_sent.set()
                return super()._generation(attempt)

            def _feasibility(self, prompt):
                if not seen_during_first_verdict:
                    seen_during_first_verdict.append(second_sent.wait(5))
                return super()._feasibility(prompt)

        client = AheadClient(script)
        result = augment(corpus, client, quota=10, seed=3)
        assert [r["seed"] for r in client.gen_requests] == [
            r["seed"] for r in serial_client.gen_requests]
        assert [r["messages"] for r in client.gen_requests] == [
            r["messages"] for r in serial_client.gen_requests]
        assert [c.question for c in result.accepted] == [_pipe_question(i) for i in range(10)]
        # attempt 1's generation went out while attempt 0's verdict was held
        assert seen_during_first_verdict == [True]

    @pytest.mark.parametrize("quota", [3, 20])
    def test_look_ahead_is_bounded_while_a_verdict_is_held(self, corpus, quota):
        expected = min(quota, GENERATIONS_AHEAD + 1)
        all_sent = threading.Event()
        sent_during_first_verdict = []

        class HoldingClient(ScriptedLanesClient):
            def _generation(self, attempt):
                if attempt + 1 == expected:
                    all_sent.set()
                return super()._generation(attempt)

            def _feasibility(self, prompt):
                if not sent_during_first_verdict:
                    all_sent.wait(5)
                    time.sleep(0.05)  # room for a request past the look-ahead to show
                    sent_during_first_verdict.append(len(self.gen_requests))
                return super()._feasibility(prompt)

        client = HoldingClient([("clean", "yes", 0.0)] * quota)
        result = augment(corpus, client, quota=quota, seed=0)
        assert sent_during_first_verdict == [expected]
        assert len(client.gen_requests) == quota
        assert len(result.accepted) == quota

    def test_at_most_two_chat_requests_in_flight(self, corpus):
        def reply(payload, index):
            content = payload["messages"][0]["content"]
            if FEAS_MARKER in content:
                return MockReply(_echo_feasibility(content), delay=0.02)
            return MockReply(_qa_block(_pipe_question(index), PIPE_OPTIONS), delay=0.005)

        with MockModelServer(chat=reply) as server:
            client = server.make_client(max_in_flight=4)
            result = augment(corpus, client, quota=8, seed=0)
            assert len(result.accepted) == 8
            assert server.max_in_flight_observed == 2

    def test_duplicate_of_a_pending_candidate_is_rejected_at_dedup(self, corpus):
        script = [("clean", "yes", 0.2), ("dup_pending", "yes", 0.0)]
        client = ScriptedLanesClient(script)
        result = augment(corpus, client, quota=2, seed=0)
        # the duplicate was generated while the first verdict was outstanding
        assert client.events.index(("gen", "1")) < client.events.index(
            ("feas_end", _pipe_question(0)))
        assert [c.question for c in result.accepted] == [_pipe_question(0)]
        (record,) = result.audit
        assert record["stage"] == "gate:dedup" and record["attempt"] == 1
        assert [_question_of(r["messages"][0]["content"]) for r in client.feas_requests] == [
            _pipe_question(0)]

    def test_duplicate_of_a_rejected_pending_candidate_is_kept(self, corpus):
        script = [("clean", "no", 0.05), ("dup_pending", "yes", 0.0)]
        result = augment(corpus, ScriptedLanesClient(script), quota=2, seed=0)
        assert [c.question for c in result.accepted] == [f"{_pipe_question(0)} again1"]
        assert [r["stage"] for r in result.audit] == ["feasibility"]

    def test_feasibility_error_stops_the_generation_lane(self, corpus):
        class Boom(RuntimeError):
            pass

        class ExplodingClient(ScriptedLanesClient):
            def _feasibility(self, prompt):
                time.sleep(0.1)  # let the generation lane fill its look-ahead
                raise Boom("audit model crashed")

        client = ExplodingClient([("clean", "yes", 0.0)] * 20)
        with pytest.raises(Boom, match="audit model crashed"):
            augment(corpus, client, quota=20, seed=0)
        assert len(client.gen_requests) <= GENERATIONS_AHEAD + 1
        assert len(client.feas_requests) == 1
        assert not any(t.name.startswith("augment-generation") for t in threading.enumerate())

    def test_generation_error_stops_the_generation_lane(self, corpus):
        class Boom(RuntimeError):
            pass

        class ExplodingClient(ScriptedLanesClient):
            def _generation(self, attempt):
                if attempt == 2:
                    raise Boom("generation model crashed")
                return super()._generation(attempt)

        client = ExplodingClient([("clean", "yes", 0.0)] * 20)
        with pytest.raises(Boom, match="generation model crashed"):
            augment(corpus, client, quota=20, seed=0)
        # attempts before the failed one finished; nothing past the look-ahead was sent
        assert len(client.feas_requests) == 2
        assert len(client.gen_requests) <= 2 + GENERATIONS_AHEAD + 1
        assert not any(t.name.startswith("augment-generation") for t in threading.enumerate())


# ---------------------------------------------------------------------------
# JSONL round trips


class TestJsonlIO:
    def test_qa_round_trip(self, tmp_path):
        candidates = [
            _candidate(),
            _candidate(question="別の質問は、どれですか。", answer_index=1),
        ]
        path = tmp_path / "qa.jsonl"
        write_records(path, [c.to_record() for c in candidates])
        assert read_questions_jsonl(path) == [
            QuestionRecord(question=c.question, options=c.options,
                           answer_index=c.answer_index, doc_id=c.doc_id)
            for c in candidates
        ]

    def test_record_shape_on_disk(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_records(path, [_candidate().to_record()])
        record = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert set(record) == {
            "question", "options", "answer_index", "qtype",
            "doc_id", "page_index", "evidence",
        }

    def test_record_is_the_fields_in_order(self):
        record = _candidate().to_record()
        assert list(record) == [f.name for f in fields(QACandidate)]
        assert record["options"] == ["4200 百万円", "310 百万円", "150 百万円"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_records(path, [_candidate().to_record()])
        path.write_text(path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8")
        assert len(read_questions_jsonl(path)) == 1

    def test_bad_json_line_numbered(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_records(path, [_candidate().to_record()])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{oops\n")
        with pytest.raises(ParseError, match="line 2") as excinfo:
            read_questions_jsonl(path)
        assert excinfo.value.line_no == 2

    def test_missing_field_numbered(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('{"question": "q"}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            read_questions_jsonl(path)

    def test_audit_jsonl(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        write_records(path, [{"stage": "parse", "attempt": 0}])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0]) == {"stage": "parse", "attempt": 0}
