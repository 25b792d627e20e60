"""Ensemble multiple-choice inference: decoding-config schedules, fan-out
with early stopping, answer extraction, and majority voting.

A schedule is one greedy configuration plus samplers whose temperatures
are evenly spaced over [0.1, 1.5] with cycling top-p/top-k. Responses are
tallied strictly in schedule order; the run stops early once the leading
option's vote share reaches the confidence threshold with the minimum
response count satisfied.
"""

from __future__ import annotations

import random
import re
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .corpus import normalize_text
from .errors import ContractError, EndpointError, TransportError
from .gateway import chat_request, in_flight_limit

TEMPERATURE_RANGE = (0.1, 1.5)
TOP_P_CYCLE = (0.7, 0.8, 0.9, 0.95)
TOP_K_CYCLE = (20, 40, 50)

DEFAULT_SCHEDULE_COUNT = 20
MAX_OPTIONS = 10  # labels A-J, the letters extract_option recognizes


@dataclass(frozen=True)
class DecodingConfig:
    id: int
    greedy: bool
    temperature: float  # ignored when greedy
    top_p: float
    top_k: int
    seed: int

    def to_request(self) -> dict:
        return {
            "temperature": 0.0 if self.greedy else self.temperature,
            "top_p": self.top_p,
            "top_k": self.top_k,
            "seed": self.seed,
        }


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
    votes: dict[str, int]
    responses_used: int
    stopped_early: bool
    abstained: bool = False
    failed_responses: int = 0  # tallied requests that failed after the gateway's retries

    @property
    def failed(self) -> bool:
        """No tallied request got a response: an outage, not an abstention."""
        return self.failed_responses == self.responses_used

    def to_record(self) -> dict:
        return {
            "chosen_option": self.chosen_option,
            "confidence": self.confidence,
            "votes": dict(sorted(self.votes.items())),
            "responses_used": self.responses_used,
            "stopped_early": self.stopped_early,
            "abstained": self.abstained,
            "failed_responses": self.failed_responses,
            "failed": self.failed,
        }


def make_schedule(count: int = DEFAULT_SCHEDULE_COUNT, seed: int = 0) -> list[DecodingConfig]:
    """Deterministic decoding schedule: greedy first, then count-1 samplers.

    Sampler temperatures are evenly spaced over [0.1, 1.5]; top-p and
    top-k cycle through fixed value sets; per-config seeds derive from the
    master seed. Pure function of (count, seed).
    """
    if count < 2:
        raise ValueError("schedule needs at least a greedy config and one sampler")
    rng = random.Random(seed)
    seeds = [rng.randrange(2**31) for _ in range(count)]
    configs = [
        DecodingConfig(id=0, greedy=True, temperature=1.0, top_p=1.0, top_k=1, seed=seeds[0])
    ]
    lo, hi = TEMPERATURE_RANGE
    samplers = count - 1
    for i in range(1, count):
        if samplers == 1:
            temperature = lo
        else:
            temperature = lo + (i - 1) * ((hi - lo) / (samplers - 1))
        configs.append(
            DecodingConfig(
                id=i,
                greedy=False,
                temperature=temperature,
                top_p=TOP_P_CYCLE[(i - 1) % len(TOP_P_CYCLE)],
                top_k=TOP_K_CYCLE[(i - 1) % len(TOP_K_CYCLE)],
                seed=seeds[i],
            )
        )
    return configs


# Marker words must be followed by a real separator so "answered" or
# "answers" never match, and the captured letter must not continue into a
# longer word.
_MARKER_RE = re.compile(
    r"(?:final\s+answer|answer|答え|回答|正解)"
    r"(?:\s+(?:is|was)\s+|\s*[:：]\s*|は\s*|\s+)"
    r"[\(（\[]?([A-Ja-j])(?![0-9A-Za-z])",
    re.IGNORECASE,
)

_STANDALONE_LINE_RE = re.compile(r"^[\(（]?([A-Ja-j])[\)）\.。:：]?$")
_LEADING_LETTER_RE = re.compile(r"^\s*[\(（]?([A-Ja-j])[\)）\.。:：]")


def extract_option(
    raw: str,
    option_labels: list[str],
    option_texts: list[str] | None = None,
) -> str | None:
    """Extract the chosen option letter from a model response.

    Patterns are tried in priority order: explicit answer markers
    ("Answer: X", "答え: X", "the answer is X"), then a standalone label
    letter on its own line or at the start, then an exact option-text
    match when option strings are supplied. Returns None when nothing
    matches.
    """
    labels = {label.upper() for label in option_labels}

    marker_hits = [
        m.group(1).upper() for m in _MARKER_RE.finditer(raw)
        if m.group(1).upper() in labels
    ]
    if marker_hits:
        return marker_hits[-1]  # the final stated answer wins

    line_hits = []
    for line in raw.splitlines():
        m = _STANDALONE_LINE_RE.match(line.strip())
        if m and m.group(1).upper() in labels:
            line_hits.append(m.group(1).upper())
    if line_hits:
        return line_hits[-1]
    m = _LEADING_LETTER_RE.match(raw)
    if m and m.group(1).upper() in labels:
        return m.group(1).upper()

    if option_texts:
        raw_norm = normalize_text(raw).casefold()
        matches = [
            option_labels[i].upper()
            for i, text in enumerate(option_texts)
            if text and normalize_text(text).casefold() in raw_norm
        ]
        if len(matches) == 1:
            return matches[0]
    return None


def _structure_score(raw: str, option_texts: list[str] | None) -> int:
    score = 0
    if _MARKER_RE.search(raw):
        score += 2
    if len(raw.strip()) >= 50:
        score += 1
    if option_texts:
        raw_norm = normalize_text(raw).casefold()
        if any(
            text and normalize_text(text).casefold() in raw_norm
            for text in option_texts
        ):
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


def _labels(count: int) -> list[str]:
    return [chr(ord("A") + i) for i in range(count)]


def options_block(option_texts: list[str] | tuple[str, ...]) -> str:
    """One "A. text" line per option, labelled in order."""
    return "\n".join(f"{label}. {text}"
                     for label, text in zip(_labels(len(option_texts)), option_texts))


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
    """Fan out the schedule, tally votes, and resolve the final answer.

    Requests are dispatched in schedule order, the next one whenever any
    request completes, at most the client's ``max_in_flight`` at a time;
    beyond ``min_responses`` they run at most that many positions ahead of
    the tallied prefix. Responses are tallied strictly in schedule order,
    which keeps verdicts reproducible. Once the stop rule holds (min
    responses AND confidence) the call returns at once: queued requests are
    never sent and in-flight completions are discarded. A request that fails
    after the gateway's retries counts toward ``responses_used`` and
    ``failed_responses`` but casts no vote. If every tallied request failed
    the verdict is failed; otherwise, if no response yields an option, it
    abstains rather than guessing.
    """
    if not schedule:
        raise ValueError("schedule must not be empty")
    # labels A.. follow the option count; without option texts, A-D
    labels = _labels(len(option_texts) if option_texts else 4)

    content = compose_user_message(prompt, context_texts)

    window = max(1, min(in_flight_limit(client), len(schedule)))
    stopped = threading.Event()

    def call(config: DecodingConfig) -> str | None:
        """The reply's text, or None for a request that failed."""
        if stopped.is_set():  # the vote was decided while this one queued
            return None
        try:
            return client.generate(chat_request(content, max_tokens=256, **config.to_request()))
        except (TransportError, EndpointError, ContractError):
            return None

    votes: Counter = Counter()
    responses: list[tuple[int, str, str | None]] = []  # (config id, raw, extracted)
    failures = 0
    confidence = 0.0
    futures = []
    pool = ThreadPoolExecutor(max_workers=window)
    try:
        for i, config in enumerate(schedule):
            if i == len(futures) or not futures[i].done():
                # Positions below min_responses are always sent; past them,
                # stay at most one window ahead of the tallied prefix. The
                # pool sends each queued position as soon as a worker frees.
                horizon = min(len(schedule), max(stop.min_responses, i + window))
                futures += [pool.submit(call, c) for c in schedule[len(futures):horizon]]
            raw = futures[i].result()
            if raw is None:
                failures += 1
                raw = ""
            extracted = extract_option(raw, labels, option_texts)
            responses.append((config.id, raw, extracted))
            if extracted is not None:
                votes[extracted] += 1
            confidence = max(votes.values()) / sum(votes.values()) if votes else 0.0
            if len(responses) >= stop.min_responses and confidence >= stop.confidence_threshold:
                break
    finally:
        stopped.set()
        pool.shutdown(wait=False, cancel_futures=True)

    top = max(votes.values(), default=0)
    tied = sorted(option for option, count in votes.items() if count == top)
    return EnsembleVerdict(
        chosen_option=tiebreak_structural(tied, responses, option_texts) if votes else None,
        confidence=confidence,
        votes=dict(votes),
        responses_used=len(responses),
        stopped_early=len(responses) < len(schedule),
        abstained=not votes and failures < len(responses),
        failed_responses=failures,
    )
