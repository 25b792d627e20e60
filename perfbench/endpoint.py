"""Scripted model endpoint for the benchmark, run as a child process.

Serves the two wire shapes the engine's gateway speaks, with the stdlib
``http.server`` only:

- ``POST /v1/chat/completions`` answers by prompt kind: multiple-choice
  questions (ensemble inference), QA generation and feasibility checks
  (augmentation). Every reply is a pure function of the request, except the
  augmentation script, which keeps the questions it served since the last
  ``POST /reset`` so near-duplicates and feasibility verdicts can refer back.
- ``POST /v1/embeddings`` returns signed feature-hashed character bigram
  counts, so similar texts get similar vectors.

Latency is scripted: each chat request sleeps a delay keyed by its
fingerprint (a fixed share takes the slow tail), and a fixed share of
fingerprints gets one 503 before it succeeds (odd occurrences fail, the
retry succeeds). The endpoint runs until its stdin closes, then prints its
counts as one JSON line: requests by path, 503s served, summed scripted
delay, peak in-flight and the augmentation kinds served. ``GET /stats``
returns the same counts while it runs.

The script deliberately shares no code with the engine's own test doubles,
so the benchmark does not change when those move.

Run standalone: ``python3 perfbench/endpoint.py`` prints ``PORT <n>``.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time
import zlib
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

CHAT_BASE_DELAY_S = 0.010
CHAT_TAIL_DELAY_S = 0.050
CHAT_TAIL_PER_MILLE = 60
FAIL_ONCE_PER_MILLE = 15
EMBED_DELAY_S = 0.001

# Ensemble answering: hard questions are noisy from this temperature up.
HARD_PER_CENT = 30
NOISY_TEMPERATURE = 0.3
WRONG_PER_CENT = 45
UNEXTRACTABLE_PER_CENT = 5

# Augmentation reply mix, per mille of generation requests. "dedup" needs an
# earlier clean question since the last reset and falls back to "clean".
AUGMENT_MIX = (
    ("clean", 440),
    ("length", 60),
    ("complexity", 60),
    ("answer_support", 60),
    ("option_quality", 60),
    ("dedup", 80),
    ("parse", 80),
    ("feasibility", 80),
    ("feasibility_parse", 80),
)
# Audit stage the engine must record for each rejected kind.
AUGMENT_STAGE = {
    "length": "gate:length",
    "complexity": "gate:complexity",
    "answer_support": "gate:answer_support",
    "option_quality": "gate:option_quality",
    "dedup": "gate:dedup",
    "parse": "parse",
    "feasibility": "feasibility",
    "feasibility_parse": "feasibility_parse",
}

ANSWER_PROMPT_HEAD = "Answer the following multiple-choice question"
GENERATE_PROMPT_HEAD = "You are writing one exam-grade multiple-choice question"
FEASIBILITY_PROMPT_HEAD = "You are auditing one multiple-choice question"

QUESTION_CODE_RE = re.compile(r"Q(\d{6})")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?%?(?![0-9A-Za-z])")
_PAGE_RE = re.compile(
    r"Page text \(document (?P<doc>[^,]+), page (?P<page>\d+)\):\n(?P<text>.*?)\n\nWrite one",
    re.S,
)


def _hash(*parts) -> int:
    data = "\x1e".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def fingerprint(payload: dict) -> str:
    """Request key: hash of the message texts plus the decoding settings."""
    messages = payload.get("messages") or []
    text = "\n".join(str(m.get("content", "")) for m in messages)
    return hashlib.sha256(
        f"{text}\x1e{payload.get('seed')}\x1e{payload.get('temperature')}".encode("utf-8")
    ).hexdigest()[:16]


def chat_delay_s(fp: str) -> float:
    """Scripted latency of one chat request; a fixed share is slow."""
    if _hash("tail", fp) % 1000 < CHAT_TAIL_PER_MILLE:
        return CHAT_TAIL_DELAY_S
    return CHAT_BASE_DELAY_S


def fails_once(fp: str) -> bool:
    return _hash("503", fp) % 1000 < FAIL_ONCE_PER_MILLE


def gold_index(code: str) -> int:
    """Correct option of the question carrying this code (shared with inputs)."""
    return _hash("gold", code) % 4


def is_hard(code: str) -> bool:
    """Whether the scripted model is noisy on this question (shared with inputs)."""
    return _hash("hard", code) % 100 < HARD_PER_CENT


def answer_marker(code: str) -> str:
    """Text planted on a question's gold page; the scripted model answers
    correctly only when it sees this text in the context."""
    return f"確認記号 {code}-Z"


# ---------------------------------------------------------------------------
# Chat scripts


def _answer_reply(payload: dict) -> str:
    content = payload["messages"][-1]["content"]
    context, _, question_part = content.partition(ANSWER_PROMPT_HEAD)
    m = QUESTION_CODE_RE.search(question_part)
    if m is None:
        return "判断できない。"
    code = m.group(1)
    gold = gold_index(code)
    pick = gold if answer_marker(code) in context else (gold + 1) % 4
    temperature = float(payload.get("temperature") or 0.0)
    noise = _hash("noise", fingerprint(payload)) % 100
    if is_hard(code) and temperature >= NOISY_TEMPERATURE:
        if noise < UNEXTRACTABLE_PER_CENT:
            return "資料からは判断できない。"
        if noise < UNEXTRACTABLE_PER_CENT + WRONG_PER_CENT:
            pick = (pick + 1 + noise % 3) % 4
    return f"文脈を確認した結果、該当する記述に基づいて回答する。\nAnswer: {chr(ord('A') + pick)}"


def _number_variants(value: str) -> list[str]:
    """Three distinct distractors shaped like the number."""
    digits = re.sub(r"\D", "", value) or "7"
    base = int(digits)
    suffix = "%" if value.endswith("%") else ""
    out = []
    step = 1
    while len(out) < 3:
        candidate = f"{base + step * 7 + len(out)}{suffix}"
        if candidate != value and candidate not in out:
            out.append(candidate)
        step += 1
    return out


def _qa_text(question: str, options: list[str], answer: int, evidence: str,
             with_answer: bool = True) -> str:
    lines = [f"Question: {question}", "Options:"]
    lines += [f"{chr(ord('A') + i)}. {o}" for i, o in enumerate(options)]
    if with_answer:
        lines.append(f"Answer: {chr(ord('A') + answer)}")
    lines.append(f"Evidence: {evidence}")
    return "\n".join(lines)


class AugmentScript:
    """Stateful generation/feasibility script; one instance per endpoint."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        # question -> (kind, correct value, evidence sentence)
        self.gated: dict[str, tuple[str, str, str]] = {}
        self.last_clean: str | None = None
        self.served: Counter = Counter()

    def _kind(self, fp: str) -> str:
        roll = _hash("kind", fp) % 1000
        for kind, share in AUGMENT_MIX:
            if roll < share:
                break
            roll -= share
        if kind == "dedup" and self.last_clean is None:
            kind = "clean"
        return kind

    def generate(self, payload: dict) -> str:
        content = payload["messages"][-1]["content"]
        m = _PAGE_RE.search(content)
        if m is None:
            self.served["parse"] += 1
            return "Question:"
        doc, page, text = m.group("doc"), int(m.group("page")), m.group("text")
        sentences = [s.strip()[:80] for s in re.split(r"(?<=。)", text) if s.strip()]
        numbered = [i for i, s in enumerate(sentences) if _NUMBER_RE.search(s)]
        if not numbered:  # no figure to ask about
            self.served["parse"] += 1
            return "Question:"
        i = numbered[_hash("sentence", fingerprint(payload)) % len(numbered)]
        sentence, following = sentences[i], sentences[(i + 1) % len(sentences)]
        value = _NUMBER_RE.search(sentence).group()
        options = [value] + _number_variants(value)
        # Quoting the next sentence too keeps clean questions from different
        # pages well below the engine's near-duplicate ceiling.
        question = f"{doc} の {page} 頁で、「{sentence}」と記され、「{following}」と続く値はどれか。"
        kind = self._kind(fingerprint(payload))
        self.served[kind] += 1
        if kind == "length":
            return _qa_text("値は?", options, 0, sentence)
        if kind == "complexity":
            return _qa_text("この頁で説明されている主要な事項として最も適切なものはどれか",
                            ["zqvxa", "zqvxb", "zqvxc", "zqvxd"], 0, sentence)
        if kind == "answer_support":
            return _qa_text(question, ["qzxwv kjyq", "plmok ijnu", "trewq asdf", "mnbvc xzlk"],
                            0, sentence)
        if kind == "option_quality":
            return _qa_text(question, [value, value] + options[1:3], 0, sentence)
        if kind == "dedup":
            return _qa_text(self.last_clean + " 再掲", options, 0, sentence)
        if kind == "parse":
            return _qa_text(question, options, 0, sentence, with_answer=False)
        # clean, feasibility and feasibility_parse all pass the gates.
        self.gated[question] = (kind, value, sentence)
        if kind == "clean":
            self.last_clean = question
        return _qa_text(question, options, 0, sentence)

    def feasibility(self, payload: dict) -> str:
        content = payload["messages"][-1]["content"]
        m = re.search(r"^Question: (.*)$", content, re.M)
        question = m.group(1) if m else ""
        kind, value, sentence = self.gated.get(question, ("unknown", "", ""))
        reasoning = "頁の記述を順に確認し、設問が求める値と本文の数値を照合した。"
        if kind == "clean":
            return (f"Reasoning: {reasoning}\nAnswerable: yes\nAnswer: {value}\n"
                    f"Evidence: {sentence}")
        if kind == "feasibility_parse":
            return f"Reasoning: {reasoning}\nAnswerable: yes\nAnswer: {value}"
        return f"Reasoning: {reasoning}\nAnswerable: no\nAnswer:\nEvidence:"


# ---------------------------------------------------------------------------
# Embeddings


def embed_text(text: str, dim: int) -> list[int]:
    """Signed feature hashing of character bigrams (spaces dropped)."""
    chars = "".join(text.split())
    vec = [0] * dim
    for i in range(len(chars) - 1):
        h = zlib.crc32(chars[i:i + 2].encode("utf-8"))
        vec[h % dim] += 1 if (h >> 20) & 1 else -1
    if not any(vec):
        vec[zlib.crc32(text.encode("utf-8")) % dim] = 1
    return vec


# ---------------------------------------------------------------------------
# Server


class _State:
    def __init__(self, dim: int):
        self.dim = dim
        self.lock = threading.Lock()
        self.requests: Counter = Counter()
        self.served_503 = 0
        self.scripted_delay_s = 0.0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.occurrences: Counter = Counter()
        self.augment = AugmentScript()

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": dict(sorted(self.requests.items())),
                "served_503": self.served_503,
                "scripted_delay_s": self.scripted_delay_s,
                "peak_in_flight": self.peak_in_flight,
                "augment_kinds": dict(sorted(self.augment.served.items())),
            }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Keep-alive plus Nagle would hold each response body until the client's
    # delayed ACK of the headers, adding ~40 ms that belongs to no one.
    disable_nagle_algorithm = True

    def log_message(self, *args):
        pass

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        state: _State = self.server.state
        if self.path == "/stats":
            self._send(200, state.stats())
        else:
            self._send(404, {"error": "unknown path"})

    def do_POST(self):
        state: _State = self.server.state
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        with state.lock:
            state.requests[self.path] += 1
            state.in_flight += 1
            state.peak_in_flight = max(state.peak_in_flight, state.in_flight)
        try:
            if self.path.endswith("/chat/completions"):
                self._chat(state, payload)
            elif self.path.endswith("/embeddings"):
                time.sleep(EMBED_DELAY_S)
                vectors = [embed_text(t, state.dim) for t in payload.get("input") or []]
                with state.lock:
                    state.scripted_delay_s += EMBED_DELAY_S
                self._send(200, {"data": [{"embedding": v} for v in vectors]})
            elif self.path == "/reset":
                with state.lock:
                    state.augment.reset()
                self._send(200, {"ok": True})
            else:
                self._send(404, {"error": f"unknown path {self.path}"})
        finally:
            with state.lock:
                state.in_flight -= 1

    def _chat(self, state: _State, payload: dict) -> None:
        fp = fingerprint(payload)
        with state.lock:
            state.occurrences[fp] += 1
            fail = fails_once(fp) and state.occurrences[fp] % 2 == 1
        if fail:
            with state.lock:
                state.served_503 += 1
            self._send(503, {"error": "scripted overload"})
            return
        content = str((payload.get("messages") or [{}])[-1].get("content", ""))
        if ANSWER_PROMPT_HEAD in content:
            text = _answer_reply(payload)
        elif GENERATE_PROMPT_HEAD in content:
            with state.lock:
                text = state.augment.generate(payload)
        elif FEASIBILITY_PROMPT_HEAD in content:
            with state.lock:
                text = state.augment.feasibility(payload)
        else:
            self._send(400, {"error": "unscripted prompt"})
            return
        delay = chat_delay_s(fp)
        time.sleep(delay)
        with state.lock:
            state.scripted_delay_s += delay
        self._send(200, {"choices": [{"message": {"content": text}}]})


def serve(dim: int = 1024) -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.state = _State(dim)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    sys.stdin.read()  # the parent closes stdin to stop us
    server.shutdown()
    server.server_close()
    print(json.dumps(server.state.stats()), flush=True)


if __name__ == "__main__":
    serve(int(sys.argv[1]) if len(sys.argv) > 1 else 1024)
