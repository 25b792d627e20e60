"""Ensemble multiple-choice inference: decoding-config schedules, requests
sent one at a time with early stopping, answer extraction, and majority
voting.

A schedule is one temperature-0, top-k 1 head plus samplers whose temperatures
are evenly spaced over [0.1, 1.5] with cycling top-p/top-k. Requests are
sent and tallied in schedule order; the run stops once the leading
option's vote share reaches the confidence threshold with the minimum
response count satisfied, so no request goes out after the vote is decided.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import asdict, dataclass

from .corpus import normalize_text
from .errors import ContractError, TransportError
from .gateway import chat_request

TEMPERATURE_RANGE = (0.1, 1.5)
TOP_P_CYCLE = (0.7, 0.8, 0.9, 0.95)
TOP_K_CYCLE = (20, 40, 50)

DEFAULT_SCHEDULE_COUNT = 20
OPTION_LABELS = "ABCDEFGHIJ"  # the letters extract_option recognizes, in option order
MAX_OPTIONS = len(OPTION_LABELS)


@dataclass(frozen=True)
class DecodingConfig:
    """One request's sampling values; ``id`` is its place in the schedule."""

    id: int
    temperature: float
    top_p: float
    top_k: int
    seed: int


@dataclass(frozen=True)
class StopRule:
    min_responses: int = 10
    confidence_threshold: float = 0.8

    def __post_init__(self):
        if self.min_responses < 1:
            raise ValueError("min_responses must be at least 1")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must lie in [0, 1]")


@dataclass(frozen=True)
class EnsembleVerdict:
    chosen_option: str | None  # None only when abstaining or failed
    confidence: float
    votes: dict[str, int]  # in label order, as the record lists them
    responses_used: int
    stopped_early: bool
    abstained: bool = False
    failed_responses: int = 0  # tallied requests that failed after the gateway's retries

    @property
    def failed(self) -> bool:
        """Requests were tallied and none got a response: an outage, not an
        abstention. A verdict that sent nothing has not failed."""
        return 0 < self.responses_used == self.failed_responses

    def to_record(self) -> dict:
        return {**asdict(self), "failed": self.failed}


def make_schedule(count: int = DEFAULT_SCHEDULE_COUNT, seed: int = 0) -> list[DecodingConfig]:
    """Deterministic decoding schedule: a temperature-0 head, then count-1 samplers.

    Sampler temperatures are evenly spaced over [0.1, 1.5]; top-p and
    top-k cycle through fixed value sets; per-config seeds derive from the
    master seed. Pure function of (count, seed).
    """
    if count < 2:
        raise ValueError("schedule needs at least a temperature-0 head and one sampler")
    rng = random.Random(seed)
    seeds = [rng.randrange(2**31) for _ in range(count)]
    configs = [DecodingConfig(id=0, temperature=0.0, top_p=1.0, top_k=1, seed=seeds[0])]
    lo, hi = TEMPERATURE_RANGE
    step = (hi - lo) / max(count - 2, 1)  # between the count - 1 samplers' temperatures
    for i in range(1, count):
        configs.append(DecodingConfig(
            id=i, temperature=lo + (i - 1) * step, top_p=TOP_P_CYCLE[(i - 1) % len(TOP_P_CYCLE)],
            top_k=TOP_K_CYCLE[(i - 1) % len(TOP_K_CYCLE)], seed=seeds[i]))
    return configs


# Marker words must be followed by a real separator so "answered" or
# "answers" never match, and the captured letter must not continue into a
# longer word. A lowercase letter counts only where its clause ends, at a
# line end or before punctuation, so "answer a question" is prose.
_MARKER_RE = re.compile(
    r"(?:final\s+answer|answer|答え|回答|正解)"
    r"(?:\s+(?:is|was)\s+|\s*[:：]\s*|は\s*|\s+)"
    r"[\(（\[]?((?-i:[A-J])(?![0-9A-Za-z])"
    r"|(?-i:[a-j])(?=[ \t\r]*(?:\n|$)|[.,;:!?)\]）】」。、，．：；！？]))",
    re.IGNORECASE,
)

_STANDALONE_LINE_RE = re.compile(r"^[\(（]?([A-Ja-j])[\)）\.。:：]?$")
_LEADING_LETTER_RE = re.compile(r"^\s*[\(（]?([A-Ja-j])[\)）\.。:：]")


def extract_option(
    raw: str,
    labels: list[str],
    option_texts: list[str] | None = None,
) -> str | None:
    """Extract the chosen option letter from a model response.

    Patterns are tried in priority order: explicit answer markers
    ("Answer: X", "答え: X", "the answer is X"), then a standalone label
    letter on its own line or at the start, then an exact option-text
    match when option strings are supplied. Returns None when nothing
    matches.
    """
    allowed = {label.upper() for label in labels}

    marker_hits = [
        m.group(1).upper() for m in _MARKER_RE.finditer(raw)
        if m.group(1).upper() in allowed
    ]
    if marker_hits:
        return marker_hits[-1]  # the final stated answer wins

    line_hits = []
    for line in raw.splitlines():
        m = _STANDALONE_LINE_RE.match(line.strip())
        if m and m.group(1).upper() in allowed:
            line_hits.append(m.group(1).upper())
    if line_hits:
        return line_hits[-1]
    m = _LEADING_LETTER_RE.match(raw)
    if m and m.group(1).upper() in allowed:
        return m.group(1).upper()

    if option_texts:
        matches = _mentioned(raw, option_texts)
        if len(matches) == 1:
            return labels[matches[0]].upper()
    return None


def _mentioned(raw: str, option_texts: list[str]) -> list[int]:
    """The indexes of the options whose text, normalized and casefolded,
    appears in the response; an empty option text is never mentioned."""
    raw_norm = normalize_text(raw).casefold()
    return [i for i, text in enumerate(option_texts)
            if text and normalize_text(text).casefold() in raw_norm]


def _structure_score(raw: str, option_texts: list[str] | None) -> int:
    score = 0
    if _MARKER_RE.search(raw):
        score += 2
    if len(raw.strip()) >= 50:
        score += 1
    if option_texts and _mentioned(raw, option_texts):
        score += 1
    return score


def tiebreak_structural(
    tied_options: list[str],
    responses: list[tuple[int, str, str | None]],
    option_texts: list[str] | None = None,
) -> str:
    """Resolve a vote tie by the supporters' structural clarity.

    Each supporting response scores 2 for an explicit answer marker, 1 for
    reasoning of at least 50 characters, and 1 for referencing an option
    by its text; the tied option with the highest mean score wins, with
    residual ties going to the alphabetically first option.
    """
    if len(tied_options) == 1:
        return tied_options[0]
    means = {}
    for option in tied_options:
        scores = [
            _structure_score(raw, option_texts)
            for _, raw, extracted in responses
            if extracted == option
        ]
        means[option] = sum(scores) / len(scores) if scores else 0.0
    best = max(means.values())
    return min(option for option, mean in means.items() if mean == best)


def compose_user_message(prompt: str, context_texts: list[str] | None) -> str:
    if not context_texts:
        return prompt
    blocks = [f"[Context {i + 1}]\n{text}" for i, text in enumerate(context_texts)]
    return "\n\n".join(blocks) + "\n\n" + prompt


def _label_prefix(count: int) -> str:
    """The first `count` option labels; more options than labels is a ValueError,
    since a label past J could never be extracted."""
    if count > MAX_OPTIONS:
        raise ValueError(f"{count} options; at most {MAX_OPTIONS} can be labelled")
    return OPTION_LABELS[:count]


def options_block(option_texts: list[str] | tuple[str, ...]) -> str:
    """One "A. text" line per option, labelled in order."""
    return "\n".join(f"{label}. {text}"
                     for label, text in zip(_label_prefix(len(option_texts)), option_texts))


def build_answer_prompt(question: str, option_texts: list[str]) -> str:
    """Deterministic multiple-choice prompt demanding a labeled answer line."""
    return "\n".join([
        "Answer the following multiple-choice question using the context above.",
        f"Question: {question}",
        "Options:",
        options_block(option_texts),
        'Reply with the single best option letter on its own line as "Answer: X".',
    ])


def run_ensemble(
    prompt: str,
    context_texts: list[str] | None,
    schedule: list[DecodingConfig],
    client,
    stop: StopRule = StopRule(),
    option_texts: list[str] | None = None,
) -> EnsembleVerdict:
    """Send the schedule one request at a time, tally votes, and resolve the
    final answer.

    Each request is sent on the caller's thread, in schedule order, and
    tallied before the next one goes out, which keeps verdicts reproducible.
    Once the stop rule holds (min responses AND confidence) the call returns,
    so every request sent is tallied. Concurrency comes from the caller
    running several ensembles at once. A request that fails after the
    gateway's retries counts toward ``responses_used`` and
    ``failed_responses`` but casts no vote. If every tallied request failed
    the verdict is failed; otherwise, if no response yields an option, it
    abstains rather than guessing.
    """
    if not schedule:
        raise ValueError("schedule must not be empty")
    # labels A.. follow the option count; without option texts, A-D
    labels = list(_label_prefix(len(option_texts) if option_texts else 4))

    content = compose_user_message(prompt, context_texts)

    votes: Counter = Counter()
    responses: list[tuple[int, str, str | None]] = []  # (config id, raw, extracted)
    failures = 0
    confidence = 0.0
    for config in schedule:
        try:
            raw = client.generate(chat_request(
                content, temperature=config.temperature, top_p=config.top_p,
                top_k=config.top_k, seed=config.seed, max_tokens=256))
        except (TransportError, ContractError):
            failures += 1
            raw = ""
        extracted = extract_option(raw, labels, option_texts)
        responses.append((config.id, raw, extracted))
        if extracted is not None:
            votes[extracted] += 1
        confidence = max(votes.values()) / sum(votes.values()) if votes else 0.0
        if len(responses) >= stop.min_responses and confidence >= stop.confidence_threshold:
            break

    top = max(votes.values(), default=0)
    tied = sorted(option for option, count in votes.items() if count == top)
    return EnsembleVerdict(
        chosen_option=tiebreak_structural(tied, responses, option_texts) if votes else None,
        confidence=confidence,
        votes=dict(sorted(votes.items())),
        responses_used=len(responses),
        stopped_early=len(responses) < len(schedule),
        abstained=not votes and failures < len(responses),
        failed_responses=failures,
    )
