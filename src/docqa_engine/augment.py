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
import math
import random
import re
from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from importlib import resources
from string import Template
from typing import Iterable

from .corpus import Corpus, Page, PageRef, normalize_text
from .ensemble import OPTION_LABELS, options_block
from .errors import ConfigError, ContractError, ParseError, TransportError
from .gateway import chat_request
from .tokenizer import count_numeric_tokens, token_set, tokenize

logger = logging.getLogger(__name__)

QTYPES = ("comparative", "computational", "conditional", "causal", "comprehensive")

CONTENT_FLOOR = 200              # min normalized chars for a content page
TOC_DENSITY_MAX = 0.5            # max fraction of lines ending in a digit
STRATA = 5                       # relative-position strata for sampling
NUMERIC_RICHNESS_WEIGHT = 5.0    # numbers count this many chars toward richness
MIDDLE_WEIGHT_DEPTH = 0.5        # edge pages keep 1 - depth of their score
GENERATIONS_AHEAD = 8            # generation requests sent past the attempt being gated

GATE_NAMES = ("length", "complexity", "answer_support", "option_quality", "dedup")


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class QACandidate:
    question: str
    options: tuple[str, ...]
    answer_index: int
    qtype: str
    doc_id: str
    page_index: int
    evidence: str

    @cached_property
    def question_tokens(self) -> set[str]:
        # kept with the candidate so the dedup gate tokenizes each question once
        return token_set(self.question)

    def to_record(self) -> dict:
        return {**asdict(self), "options": list(self.options)}


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

    def __post_init__(self):  # each check is written so that NaN fails it
        if not 0 <= self.question_min_chars <= self.question_max_chars:
            raise ValueError("require 0 <= question_min_chars <= question_max_chars")
        for name in ("min_clauses", "min_reasoning_chars"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("support_jaccard", "evidence_overlap"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0 < self.dedup_jaccard <= 1:
            raise ValueError("dedup_jaccard must lie in (0, 1]")
        if not 1 <= self.option_length_ratio < math.inf:
            raise ValueError("option_length_ratio must be a finite number >= 1")


@dataclass
class AugmentResult:
    accepted: list[QACandidate]
    audit: list[dict]

    @property
    def attempts(self) -> int:
        return len(self.accepted) + len(self.audit)

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
    richness = page.char_count + NUMERIC_RICHNESS_WEIGHT * count_numeric_tokens(page.normalized_text)
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
    return (page.page_index > 0  # covers never carry answerable content
            and page.char_count >= CONTENT_FLOOR
            and toc_density(page.raw_text) <= TOC_DENSITY_MAX)


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


# One pattern per reply format. A match of a named group starts a section under
# that name (`letter`: an option); a match of none only ends the section before it.
_QA_LABEL_RE = re.compile(
    r"^(?:[ \t>*#-]*(?i:(?:(?P<question>question)|(?P<evidence>evidence))[^\S\n]*[:：]"
    r"|options[^\S\n]*[:：]?[^\S\n]*$"
    r"|(?P<answer>answer)[^\S\n]*[:：][^\S\n]*[\(（]?(?=[a-j]\b))"  # a letterless Answer: is text
    r"|[ \t>*-]*[\(（]?(?P<letter>[A-J])[\)）\.．。:：]"
    r"|[^\S\n]*$)",
    re.MULTILINE,
)
_FEAS_LABEL_RE = re.compile(
    r"^[ \t>*#-]*(?:(?P<reasoning>reasoning)|(?P<answerable>answerable)"
    r"|(?P<answer>answer(?!able))|(?P<evidence>evidence))\s*[:：]",
    re.IGNORECASE | re.MULTILINE,
)
_FEAS_SECTIONS = ("reasoning", "answerable", "answer", "evidence")


def _label_sections(reply: str, labels: re.Pattern) -> tuple[dict[str, str], list[tuple[str, str]]]:
    """Cut `reply` at each match of `labels`; a section runs to the next match.

    Returns the first section under each named label, by name, and the
    (letter, section) of every lettered option in order.
    """
    sections: dict[str, str] = {}
    options: list[tuple[str, str]] = []
    matches = list(labels.finditer(reply))
    for m, end in zip(matches, [n.start() for n in matches[1:]] + [len(reply)]):
        if m.lastgroup == "letter":
            options.append((m["letter"], reply[m.end():end]))
        elif m.lastgroup:
            sections.setdefault(m.lastgroup, reply[m.end():end])
    return sections, options


def parse_qa_candidate(model_output: str, qtype: str, source_page: PageRef) -> QACandidate:
    """Parse one generated QA candidate from labeled model output.

    Expects Question/Options/Answer/Evidence labels with options lettered
    consecutively from A; tolerates list markers and wrapped continuation
    lines. A blank line ends a section.
    """
    # one line break per line, as str.splitlines finds them
    sections, options = _label_sections("\n".join(model_output.splitlines()), _QA_LABEL_RE)
    if not sections.get("question", "").strip():
        raise ParseError("generation output missing question")
    if len(options) < 2:
        raise ParseError("generation output needs at least two options")
    if "".join(letter for letter, _ in options) != OPTION_LABELS[:len(options)]:
        raise ParseError("option labels must run A, B, C, ... without gaps")
    if "answer" not in sections:
        raise ParseError("generation output missing answer letter")
    answer_letter = sections["answer"][0].upper()
    answer_index = OPTION_LABELS.find(answer_letter)  # -1 for a letter outside the alphabet
    if not 0 <= answer_index < len(options):
        raise ParseError(f"answer letter {answer_letter} has no matching option")
    if "evidence" not in sections:
        raise ParseError("generation output missing evidence")
    return QACandidate(
        question=normalize_text(sections["question"]),
        options=tuple(normalize_text(text) for _, text in options),
        answer_index=answer_index,
        qtype=qtype,
        doc_id=source_page[0],
        page_index=source_page[1],
        evidence=normalize_text(sections["evidence"]),
    )


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
    sections, _ = _label_sections(model_output, _FEAS_LABEL_RE)
    for name in _FEAS_SECTIONS:
        if name not in sections:
            raise ParseError(f"feasibility output missing section: {name}")
    answerable = _parse_yes_no(sections["answerable"])
    answer = normalize_text(sections["answer"])
    if answerable and not answer:
        raise ParseError("feasibility output marked answerable but gave no answer")
    return FeasibilityVerdict(
        reasoning=sections["reasoning"].strip(),
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

    dedup_ok = all(_jaccard(candidate.question_tokens, prior.question_tokens)
                   < thresholds.dedup_jaccard for prior in accepted)

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

    The caller's thread runs the attempts one at a time, feasibility
    round-trip included. A generation request depends on no earlier
    attempt's outcome, so a single worker thread sends them in attempt
    order, up to GENERATIONS_AHEAD attempts ahead of the one being gated.
    At most two requests are in flight, and the accepted set, the audit and
    every request are those of a fully serial run for a fixed seed and model.
    """
    pages = select_pages(corpus, quota, seed=seed)
    if not pages:
        return AugmentResult(accepted=[], audit=[])

    # One (generation, feasibility) seed pair per attempt, drawn up front: a
    # request then depends on the master seed, its attempt and its own reply
    # only, not on how earlier attempts fared or on the feasibility switch.
    rng = random.Random(seed)
    seeds = [(rng.randrange(2**31), rng.randrange(2**31)) for _ in range(quota)]
    accepted: list[QACandidate] = []
    audit: list[dict] = []
    # attempts whose generation request is sent: (qtype, page, page text, reply)
    sent: deque[tuple[str, PageRef, str, Future]] = deque()

    def send_generation(attempt: int) -> None:
        qtype = QTYPES[attempt % len(QTYPES)]
        doc_id, page_index = pages[attempt % len(pages)]
        page_text = corpus.get(doc_id, page_index).normalized_text
        prompt = build_prompt(
            f"generate_{qtype}",
            {"page_text": page_text, "doc_id": doc_id, "page_index": page_index},
        )
        request = chat_request(prompt, temperature=0.7, top_p=0.95, top_k=50,
                               seed=seeds[attempt][0], max_tokens=512)
        sent.append((qtype, (doc_id, page_index), page_text, lane.submit(client.generate, request)))

    def check_feasibility(candidate: QACandidate, page_text: str,
                          request_seed: int) -> tuple[str, str] | None:
        """One feasibility round-trip: None if the candidate passes, else the
        (stage, reason) that rejects it."""
        prompt = build_prompt(
            "feasibility",
            {
                "page_text": page_text,
                "question": candidate.question,
                "options_block": options_block(candidate.options),
            },
        )
        request = chat_request(prompt, temperature=0.0, top_p=1.0, top_k=1,
                               seed=request_seed, max_tokens=512)
        try:
            raw = client.generate(request)
        except (TransportError, ContractError) as exc:
            return "transport", str(exc)
        try:
            verdict = parse_feasibility(raw)
        except ParseError as exc:
            return "feasibility_parse", str(exc)
        if validate_feasibility(verdict, candidate, page_text, thresholds):
            return None
        return "feasibility", "feasibility validation failed"

    lane = ThreadPoolExecutor(max_workers=1, thread_name_prefix="augment-generation")
    try:
        for attempt in range(quota):
            while len(sent) <= GENERATIONS_AHEAD and attempt + len(sent) < quota:
                send_generation(attempt + len(sent))
            qtype, (doc_id, page_index), page_text, reply = sent.popleft()
            candidate = None
            try:
                candidate = parse_qa_candidate(reply.result(), qtype, (doc_id, page_index))
            except (TransportError, ContractError) as exc:
                rejection = "transport", str(exc)
            except ParseError as exc:
                rejection = "parse", str(exc)
            else:
                failed = run_gates(candidate, accepted, page_text, thresholds)
                if failed:
                    rejection = f"gate:{failed[0]}", "failed gates: " + ",".join(failed)
                elif feasibility_check:
                    rejection = check_feasibility(candidate, page_text, seeds[attempt][1])
                else:
                    rejection = None
            if rejection is None:
                accepted.append(candidate)
                continue
            record = dict(attempt=attempt, qtype=qtype, doc_id=doc_id, page_index=page_index,
                          stage=rejection[0], reason=rejection[1])
            if candidate is not None:  # parsed, then rejected by a gate or feasibility
                record["question"] = candidate.question
            audit.append(record)
    finally:
        # on an error, requests not yet sent are dropped; the one in flight is awaited
        lane.shutdown(wait=True, cancel_futures=True)
    return AugmentResult(accepted=accepted, audit=audit)
