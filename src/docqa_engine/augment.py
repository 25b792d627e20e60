"""Synthetic QA generation: content-page selection, prompt construction,
structured-output parsing, and the multi-layer quality gates.

The pipeline is: pick content-rich pages (covers, thin pages, and
table-of-contents pages excluded), prompt a model for one candidate
question per attempt across five question types, parse the structured
reply, run the five quality gates, then verify answerability with a
second model round-trip. Every rejection lands in an audit log with the
stage that killed it, so attempts = accepted + audited rejections.
"""

from __future__ import annotations

import logging
import random
import re
import threading
from collections import Counter, deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from string import Template
from typing import Iterable

from .corpus import Corpus, Page, PageRef, normalize_text
from .ensemble import options_block
from .errors import ConfigError, ContractError, EndpointError, ParseError, TransportError
from .gateway import chat_request
from .tokenizer import count_numeric_tokens, token_set, tokenize

logger = logging.getLogger(__name__)

QTYPES = ("comparative", "computational", "conditional", "causal", "comprehensive")

CONTENT_FLOOR = 200              # min normalized chars for a content page
TOC_DENSITY_MAX = 0.5            # max fraction of lines ending in a digit
STRATA = 5                       # relative-position strata for sampling
NUMERIC_RICHNESS_WEIGHT = 5.0    # numbers count this many chars toward richness
MIDDLE_WEIGHT_DEPTH = 0.5        # edge pages keep 1 - depth of their score

GATE_NAMES = ("length", "complexity", "answer_support", "option_quality", "dedup")


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class QACandidate:
    question: str
    options: tuple[str, ...]
    answer_index: int
    qtype: str
    source_page: PageRef
    evidence: str

    @cached_property
    def question_tokens(self) -> set[str]:
        # kept with the candidate so the dedup gate tokenizes each question once
        return token_set(self.question)

    def to_record(self) -> dict:
        return {
            "question": self.question,
            "options": list(self.options),
            "answer_index": self.answer_index,
            "qtype": self.qtype,
            "doc_id": self.source_page[0],
            "page_index": self.source_page[1],
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class FeasibilityVerdict:
    reasoning: str
    answerable: bool
    answer: str
    evidence: str


@dataclass(frozen=True)
class GateThresholds:
    question_min_chars: int = 10
    question_max_chars: int = 300
    min_clauses: int = 2
    support_jaccard: float = 0.2
    option_length_ratio: float = 5.0
    dedup_jaccard: float = 0.8
    min_reasoning_chars: int = 30
    evidence_overlap: float = 0.5


@dataclass
class AugmentResult:
    accepted: list[QACandidate]
    audit: list[dict]
    attempts: int

    def summary(self) -> dict:
        stages = Counter(record["stage"] for record in self.audit)
        return {
            "attempts": self.attempts,
            "accepted": len(self.accepted),
            "rejected": len(self.audit),
            "rejections_by_stage": dict(sorted(stages.items())),
        }


# ---------------------------------------------------------------------------
# Page selection


def score_page(page: Page, pages_in_doc: int) -> float:
    """Content richness damped toward 1x at the middle, 0.5x at the edges."""
    richness = page.char_count + NUMERIC_RICHNESS_WEIGHT * page.numeric_token_count
    middle_weight = 1.0
    if pages_in_doc > 1:
        middle_weight -= abs(2 * page.page_index / (pages_in_doc - 1) - 1) * MIDDLE_WEIGHT_DEPTH
    return richness * middle_weight


def toc_density(raw_text: str) -> float:
    """Fraction of non-empty lines that end in a digit (page-number rows)."""
    lines = [line.strip() for line in raw_text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        return 0.0
    return sum(1 for line in lines if line[-1].isdigit()) / len(lines)


def is_content_page(page: Page) -> bool:
    if page.page_index == 0:  # covers never carry answerable content
        return False
    if page.char_count < CONTENT_FLOOR:
        return False
    return toc_density(page.raw_text) <= TOC_DENSITY_MAX


def select_pages(corpus: Corpus, quota: int, seed: int = 0) -> list[PageRef]:
    """Pick up to `quota` content pages, spread across document positions.

    Eligible pages are bucketed into STRATA bands by relative position
    within their document and taken round-robin over the bands, best score
    first within each band, so picks span the document rather than
    clustering. That order is one sort by (rank within the band, the band's
    place in the visiting order). The seed fixes the band visiting order;
    everything else is deterministic.
    """
    if quota < 1:
        raise ValueError("quota must be at least 1")
    counts = corpus.doc_page_counts()
    buckets: list[list[tuple[float, PageRef]]] = [[] for _ in range(STRATA)]
    for page in corpus.pages:
        if not is_content_page(page):
            continue
        pages_in_doc = counts[page.doc_id]
        relative = page.page_index / (pages_in_doc - 1) if pages_in_doc > 1 else 0.0
        bucket = min(int(relative * STRATA), STRATA - 1)
        buckets[bucket].append((-score_page(page, pages_in_doc), (page.doc_id, page.page_index)))

    eligible_total = sum(len(bucket) for bucket in buckets)
    if eligible_total == 0:
        logger.warning("no eligible content pages to select from")
        return []
    if quota > eligible_total:
        logger.warning(
            "quota %d exceeds %d eligible pages; returning all", quota, eligible_total
        )

    band_order = list(range(STRATA))
    random.Random(seed).shuffle(band_order)
    # best score first within a band, ties by page ref; (rank, place) keys are distinct
    picks = sorted((rank, place, ref) for place, band in enumerate(band_order)
                   for rank, (_, ref) in enumerate(sorted(buckets[band])))
    return [ref for _, _, ref in picks[:quota]]


# ---------------------------------------------------------------------------
# Prompt templates


_PROMPT_KINDS = ("feasibility",) + tuple(f"generate_{q}" for q in QTYPES)


@lru_cache(maxsize=None)
def _load_template(kind: str) -> Template:
    resource = resources.files("docqa_engine").joinpath(f"templates/{kind}.txt")
    try:
        text = resource.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise ConfigError(f"prompt template not found: {kind}.txt") from exc
    if kind.startswith("generate_"):  # a question type's paragraph, in the shared frame
        text = _load_template("generate").template.replace("$instruction", text.rstrip("\n"))
    return Template(text)


def build_prompt(kind: str, context: dict) -> str:
    """Instantiate the named prompt template with `context` values.

    A generation kind is ``templates/generate.txt``, the frame every question
    type shares (header, page block, reply format), with the type's
    instruction paragraph from ``generate_<qtype>.txt`` in its
    ``$instruction`` slot. Same kind + context always yields identical bytes.
    Unknown kinds are a caller bug (ValueError); a missing template file is
    an installation problem (ConfigError).
    """
    if kind not in _PROMPT_KINDS:
        raise ValueError(f"unknown prompt kind: {kind!r}")
    template = _load_template(kind)
    try:
        return template.substitute(context)
    except KeyError as exc:
        raise ValueError(f"prompt context missing key: {exc.args[0]!r}") from exc


# ---------------------------------------------------------------------------
# Structured-output parsing


_QUESTION_LABEL_RE = re.compile(r"^[ \t>*#-]*question\s*[:：]\s*(.*)$", re.IGNORECASE)
_OPTIONS_HEADER_RE = re.compile(r"^[ \t>*#-]*options\s*[:：]?\s*$", re.IGNORECASE)
_OPTION_LINE_RE = re.compile(r"^[ \t>*-]*[\(（]?([A-J])[\)）\.．。:：]\s*(.*)$")
_ANSWER_LABEL_RE = re.compile(
    r"^[ \t>*#-]*answer\s*[:：]\s*[\(（]?([A-Ja-j])\b", re.IGNORECASE
)
_EVIDENCE_LABEL_RE = re.compile(r"^[ \t>*#-]*evidence\s*[:：]\s*(.*)$", re.IGNORECASE)


def parse_qa_candidate(model_output: str, qtype: str, source_page: PageRef) -> QACandidate:
    """Parse one generated QA candidate from labeled model output.

    Expects Question/Options/Answer/Evidence labels with options lettered
    consecutively from A; tolerates list markers, blank lines, and
    wrapped continuation lines.
    """
    question: str | None = None
    options: list[str] = []
    letters: list[str] = []
    answer_letter: str | None = None
    evidence: str | None = None
    collecting: str | None = None

    for line in model_output.splitlines():
        stripped = line.strip()
        if not stripped:
            collecting = None
            continue
        m = _QUESTION_LABEL_RE.match(line)
        if m and question is None:
            question = m.group(1).strip()
            collecting = "question"
            continue
        if _OPTIONS_HEADER_RE.match(line):
            collecting = None
            continue
        m = _ANSWER_LABEL_RE.match(line)
        if m and answer_letter is None:
            answer_letter = m.group(1).upper()
            collecting = None
            continue
        m = _EVIDENCE_LABEL_RE.match(line)
        if m and evidence is None:
            evidence = m.group(1).strip()
            collecting = "evidence"
            continue
        m = _OPTION_LINE_RE.match(line)
        if m:
            letters.append(m.group(1))
            options.append(m.group(2).strip())
            collecting = "option"
            continue
        if collecting == "question" and question is not None:
            question = f"{question} {stripped}".strip()
        elif collecting == "evidence" and evidence is not None:
            evidence = f"{evidence} {stripped}".strip()
        elif collecting == "option" and options:
            options[-1] = f"{options[-1]} {stripped}".strip()

    if not question:
        raise ParseError("generation output missing question")
    if len(options) < 2:
        raise ParseError("generation output needs at least two options")
    expected = [chr(ord("A") + i) for i in range(len(options))]
    if letters != expected:
        raise ParseError("option labels must run A, B, C, ... without gaps")
    if answer_letter is None:
        raise ParseError("generation output missing answer letter")
    answer_index = ord(answer_letter) - ord("A")
    if answer_index >= len(options):
        raise ParseError(f"answer letter {answer_letter} has no matching option")
    if evidence is None:
        raise ParseError("generation output missing evidence")

    return QACandidate(
        question=normalize_text(question),
        options=tuple(normalize_text(o) for o in options),
        answer_index=answer_index,
        qtype=qtype,
        source_page=source_page,
        evidence=normalize_text(evidence),
    )


_FEAS_LABEL_RE = re.compile(
    r"^[ \t>*#-]*(reasoning|answerable|answer(?!able)|evidence)\s*[:：]",
    re.IGNORECASE | re.MULTILINE,
)
_FEAS_SECTIONS = ("reasoning", "answerable", "answer", "evidence")

_YES_TOKENS = {"yes", "y", "true", "はい", "可能"}
_NO_TOKENS = {"no", "n", "false", "いいえ", "不可", "不可能"}


def _parse_yes_no(text: str) -> bool:
    m = re.match(r"[^\s。、，,\.:：;；!！?？]*", text.strip())
    token = m.group(0).casefold() if m else ""
    if token in _YES_TOKENS:
        return True
    if token in _NO_TOKENS:
        return False
    raise ParseError(f"answerable section must start with a yes/no token, got {token!r}")


def parse_feasibility(model_output: str) -> FeasibilityVerdict:
    """Extract the labeled Reasoning/Answerable/Answer/Evidence sections.

    Tolerates prose around the labels; each section runs to the next label.
    Any missing section is a parse error, as is an answerable verdict with
    an empty answer.
    """
    sections: dict[str, str] = {}
    matches = list(_FEAS_LABEL_RE.finditer(model_output))
    for i, m in enumerate(matches):
        label = m.group(1).lower()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(model_output)
        if label not in sections:
            sections[label] = model_output[m.end():end].strip()
    for name in _FEAS_SECTIONS:
        if name not in sections:
            raise ParseError(f"feasibility output missing section: {name}")
    answerable = _parse_yes_no(sections["answerable"])
    answer = normalize_text(sections["answer"])
    if answerable and not answer:
        raise ParseError("feasibility output marked answerable but gave no answer")
    return FeasibilityVerdict(
        reasoning=sections["reasoning"],
        answerable=answerable,
        answer=answer,
        evidence=normalize_text(sections["evidence"]),
    )


# ---------------------------------------------------------------------------
# Quality gates


def _jaccard(a: set[str], b: set[str]) -> float:
    union = a | b
    if not union:
        return 1.0  # two empty texts are identical
    return len(a & b) / len(union)


def _near_duplicate(
    candidate: QACandidate, prior: QACandidate, thresholds: GateThresholds
) -> bool:
    return _jaccard(candidate.question_tokens, prior.question_tokens) >= thresholds.dedup_jaccard


def _matching_option_count(answer: str, options: Iterable[str]) -> int:
    normalized = normalize_text(answer).casefold().strip(" .。")
    if not normalized:
        return 0
    candidates = [normalize_text(o).casefold() for o in options]
    exact = sum(1 for o in candidates if o == normalized)
    if exact:
        return exact
    return sum(
        1 for o in candidates if o and (normalized in o or o in normalized)
    )


_CLAUSE_SPLIT_RE = re.compile(r"[、。，．,\.;；:：!！?？]+")


def clause_count(question: str) -> int:
    return sum(1 for seg in _CLAUSE_SPLIT_RE.split(question) if seg.strip())


def validate_feasibility(
    verdict: FeasibilityVerdict,
    candidate: QACandidate,
    page_text: str,
    thresholds: GateThresholds = GateThresholds(),
) -> bool:
    """True iff the verdict affirms answerability with usable substance.

    Requires substantive reasoning, a yes verdict, an answer that matches
    exactly one option (normalized; substring match as fallback), and
    evidence whose tokens are mostly found on the page.
    """
    if not verdict.answerable:
        return False
    if len(verdict.reasoning.strip()) < thresholds.min_reasoning_chars:
        return False
    if _matching_option_count(verdict.answer, candidate.options) != 1:
        return False
    evidence_tokens = token_set(verdict.evidence)
    if not evidence_tokens:
        return False
    page_tokens = token_set(page_text)
    contained = len(evidence_tokens & page_tokens) / len(evidence_tokens)
    return contained >= thresholds.evidence_overlap


def run_gates(
    candidate: QACandidate,
    accepted: Iterable[QACandidate],
    page_text: str,
    thresholds: GateThresholds = GateThresholds(),
) -> list[str]:
    """Run the five quality gates; returns the failed ones in GATE_NAMES order,
    so an empty list means the candidate passed.

    length: question within the char bounds. complexity: at least two
    clauses or a numeric reference. answer_support: the correct option's
    tokens reach the Jaccard floor against the page, or the option is
    numeric and all its numbers appear on the page. option_quality:
    non-empty pairwise-distinct options, bounded length spread, in-range
    answer index. dedup: question's token Jaccard stays below the ceiling
    against every accepted question.
    """
    question = candidate.question
    length_ok = thresholds.question_min_chars <= len(question) <= thresholds.question_max_chars

    complexity_ok = (
        clause_count(question) >= thresholds.min_clauses
        or count_numeric_tokens(question) >= 1
    )

    index_ok = 0 <= candidate.answer_index < len(candidate.options)
    page_tokens = token_set(page_text)
    if index_ok:
        option = candidate.options[candidate.answer_index]
        option_tokens = token_set(option)
        support_ok = _jaccard(option_tokens, page_tokens) >= thresholds.support_jaccard
        if not support_ok:
            numbers = [t.text for t in tokenize(option) if t.kind == "number"]
            support_ok = bool(numbers) and all(n in page_tokens for n in numbers)
    else:
        support_ok = False

    normalized_options = [normalize_text(o).casefold() for o in candidate.options]
    distinct_ok = (
        bool(normalized_options)
        and all(normalized_options)
        and len(set(normalized_options)) == len(normalized_options)
    )
    if distinct_ok:
        lengths = [len(o) for o in normalized_options]
        ratio_ok = max(lengths) <= thresholds.option_length_ratio * min(lengths)
    else:
        ratio_ok = False
    option_quality_ok = distinct_ok and ratio_ok and index_ok

    dedup_ok = not any(_near_duplicate(candidate, prior, thresholds) for prior in accepted)

    passed = (length_ok, complexity_ok, support_ok, option_quality_ok, dedup_ok)
    return [name for name, ok in zip(GATE_NAMES, passed) if not ok]


# ---------------------------------------------------------------------------
# Orchestration


def augment(
    corpus: Corpus,
    client,
    quota: int,
    *,
    thresholds: GateThresholds = GateThresholds(),
    seed: int = 0,
    feasibility_check: bool = True,
) -> AugmentResult:
    """Generate, gate, and verify `quota` QA candidates over the corpus.

    Attempts cycle through the five question types in QTYPES order and
    over the selected pages. Each attempt is generate -> parse -> gates ->
    feasibility round-trip; the first failing stage rejects the candidate
    and writes one audit record, so attempts == accepted + rejections.

    The caller's thread sends generation requests one at a time in attempt
    order, parses and gates each reply, and hands the feasibility request
    to a single worker thread, so at most two requests are in flight.
    Outcomes are committed strictly in attempt order and a question that
    nears an uncommitted one waits for its verdict first, so the accepted
    set, the audit and every request are the same as one-at-a-time
    processing gives for a fixed seed and model.
    """
    if quota < 1:
        raise ValueError("quota must be at least 1")
    pages = select_pages(corpus, quota, seed=seed)
    if not pages:
        logger.warning("augmentation produced nothing: no eligible pages")
        return AugmentResult(accepted=[], audit=[], attempts=0)

    # One (generation, feasibility) seed pair per attempt, drawn up front: a
    # request then depends on the master seed, its attempt and its own reply
    # only, not on how earlier attempts fared or on the feasibility switch.
    rng = random.Random(seed)
    seeds = [(rng.randrange(2**31), rng.randrange(2**31)) for _ in range(quota)]
    accepted: list[QACandidate] = []
    audit: list[dict] = []
    # Uncommitted attempts in order: (attempt, candidate that passed the gates
    # or None, outcome). An outcome is an audit record, None for acceptance,
    # or a feasibility-lane Future of either.
    pending: deque[tuple[int, QACandidate | None, dict | None | Future]] = deque()

    def commit(through: int = -1) -> None:
        """Commit outcomes in attempt order: every ready one, and every one up
        to attempt `through`, waiting for its feasibility verdict."""
        while pending:
            attempt, candidate, outcome = pending[0]
            if isinstance(outcome, Future):
                if attempt > through and not outcome.done():
                    return
                outcome = outcome.result()
            pending.popleft()
            if outcome is None:
                accepted.append(candidate)
            else:
                audit.append(outcome)

    stop = threading.Event()

    def check_feasibility(request: dict, candidate: QACandidate, base: dict,
                          page_text: str) -> dict | None:
        """One feasibility round-trip: None if the candidate passes, else its
        audit record. Any other error stops every later check."""
        if stop.is_set():  # an earlier check raised: send nothing more
            raise CancelledError
        try:
            raw = client.generate(request)
            try:
                verdict = parse_feasibility(raw)
            except ParseError as exc:
                stage, reason = "feasibility_parse", str(exc)
            else:
                if validate_feasibility(verdict, candidate, page_text, thresholds):
                    return None
                stage, reason = "feasibility", "feasibility validation failed"
        except (TransportError, EndpointError, ContractError) as exc:
            stage, reason = "transport", str(exc)
        except BaseException:
            stop.set()
            raise
        return {**base, "stage": stage, "reason": reason, "question": candidate.question}

    lane = ThreadPoolExecutor(max_workers=1, thread_name_prefix="augment-feasibility")
    try:
        for attempt in range(quota):
            qtype = QTYPES[attempt % len(QTYPES)]
            doc_id, page_index = pages[attempt % len(pages)]
            page = corpus.get(doc_id, page_index)
            base = {
                "attempt": attempt,
                "qtype": qtype,
                "doc_id": doc_id,
                "page_index": page_index,
            }
            prompt = build_prompt(
                f"generate_{qtype}",
                {"page_text": page.normalized_text, "doc_id": doc_id, "page_index": page_index},
            )
            request = chat_request(prompt, temperature=0.7, top_p=0.95, top_k=50,
                                   seed=seeds[attempt][0], max_tokens=512)
            try:
                raw = client.generate(request)
            except (TransportError, EndpointError, ContractError) as exc:
                pending.append((attempt, None, {**base, "stage": "transport", "reason": str(exc)}))
                continue
            try:
                candidate = parse_qa_candidate(raw, qtype, (doc_id, page_index))
            except ParseError as exc:
                pending.append((attempt, None, {**base, "stage": "parse", "reason": str(exc)}))
                continue

            # Dedup is monotone in the accepted set, so a question clear of
            # every uncommitted candidate is judged exactly by the committed
            # ones; otherwise commit through the last candidate it clashes with.
            clashes = [
                n for n, prior, _ in pending
                if prior is not None and _near_duplicate(candidate, prior, thresholds)
            ]
            commit(through=max(clashes, default=-1))
            failed = run_gates(candidate, accepted, page.normalized_text, thresholds)
            if failed:
                pending.append((attempt, None, {
                    **base,
                    "stage": f"gate:{failed[0]}",
                    "reason": "failed gates: " + ",".join(failed),
                    "question": candidate.question,
                }))
                continue

            outcome = None
            if feasibility_check:
                feas_prompt = build_prompt(
                    "feasibility",
                    {
                        "page_text": page.normalized_text,
                        "question": candidate.question,
                        "options_block": options_block(candidate.options),
                    },
                )
                feas_request = chat_request(feas_prompt, temperature=0.0, top_p=1.0, top_k=1,
                                            seed=seeds[attempt][1], max_tokens=512)
                outcome = lane.submit(
                    check_feasibility, feas_request, candidate, base, page.normalized_text)
            pending.append((attempt, candidate, outcome))
        commit(through=quota)
    finally:
        stop.set()
        lane.shutdown(wait=True, cancel_futures=True)
    return AugmentResult(accepted=accepted, audit=audit, attempts=quota)

