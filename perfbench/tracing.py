"""Out-of-program tracing for the benchmark's traced run.

The tracer replaces module attributes the engine calls through (and the
functions the benchmark itself calls) with wrappers that record one span
per call: name, start, end, parent span, thread and a request id. Spans
stay in memory and are written as JSONL when the run ends. Nothing here
edits the engine; removing the wrappers restores the original objects.

Request ids tie spans of one top-level operation together: the benchmark
sets the id of each query or question it issues, ensemble requests made on
worker threads find their question's span through the ``Question:`` line
their prompt carries, and each augmentation generation prompt starts a new
attempt id that its feasibility request shares.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import re
import statistics
import threading
import time
from pathlib import Path

from endpoint import FEASIBILITY_PROMPT_HEAD, GENERATE_PROMPT_HEAD

# (module, attribute path, span name). Each target must exist: a renamed
# function fails the traced run instead of silently reporting zero.
TARGETS = (
    ("docqa_engine.corpus", "ingest_path", "corpus.ingest_path"),
    ("docqa_engine.corpus", "save_corpus", "corpus.save"),
    ("docqa_engine.corpus", "load_corpus", "corpus.load"),
    ("docqa_engine.corpus", "Corpus.get", "corpus.get"),
    ("docqa_engine.lexical", "tokenize", "tokenizer.tokenize"),
    ("docqa_engine.lexical", "ngrams", "tokenizer.ngrams"),
    ("docqa_engine.lexical", "build_lexical_index", "lexical.build"),
    ("docqa_engine.lexical", "save_lexical_index", "lexical.save"),
    ("docqa_engine.lexical", "load_lexical_index", "lexical.load"),
    ("docqa_engine.semantic", "build_semantic_index", "semantic.build"),
    ("docqa_engine.semantic", "save_semantic_index", "semantic.save"),
    ("docqa_engine.semantic", "load_semantic_index", "semantic.load"),
    ("docqa_engine.retriever", "retrieve", "retriever.retrieve"),
    ("docqa_engine.retriever", "score_lexical", "lexical.score"),
    ("docqa_engine.retriever", "embed_query", "semantic.embed_query"),
    ("docqa_engine.retriever", "search_semantic", "semantic.search"),
    ("docqa_engine.cli", "answer_questions", "cli.answer_questions"),
    ("docqa_engine.cli", "read_questions_jsonl", "cli.read_questions"),
    ("docqa_engine.cli", "retrieve", "retriever.retrieve"),
    ("docqa_engine.cli", "run_ensemble", "ensemble.run"),
    ("docqa_engine.augment", "augment", "augment.augment"),
    ("docqa_engine.augment", "select_pages", "augment.select_pages"),
    ("docqa_engine.augment", "run_gates", "augment.run_gates"),
    ("docqa_engine.augment", "token_set", "tokenizer.token_set"),
    ("docqa_engine.gateway", "GatewayClient.generate", "gateway.generate"),
    ("docqa_engine.gateway", "GatewayClient.embed", "gateway.embed"),
)

_QUESTION_LINE_RE = re.compile(r"^Question: (.*)$", re.M)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rid", "thread", "attrs")

    def __init__(self, id, name, start, parent, rid, thread):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.thread = thread
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_record(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "rid": self.rid, "thread": self.thread, **self.attrs}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *heads, attr = path.split(".")
    for head in heads:
        owner = getattr(owner, head)
    if not hasattr(owner, attr):
        raise RuntimeError(f"trace target {module_name}.{path} no longer exists")
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_by_rid: dict[str, Span] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.attempt = 0
        self.rid_of_question: dict[str, str] = {}

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and rid is not None:
            parent = self._open_by_rid.get(rid)  # a request on a worker thread
        if rid is None and parent is not None:
            rid = parent.rid
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(),
                        parent.id if parent else None, rid, threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        if rid is not None and name in ("ensemble.run", "op"):
            self._open_by_rid[rid] = span
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if self._open_by_rid.get(span.rid) is span:
            del self._open_by_rid[span.rid]

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(original, name))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _request_rid(self, name: str, args) -> str | None:
        if name == "gateway.generate":
            content = str(args[1]["messages"][-1]["content"])
            if GENERATE_PROMPT_HEAD in content:
                self.attempt += 1
                return f"attempt:{self.attempt}"
            if FEASIBILITY_PROMPT_HEAD in content:
                return f"attempt:{self.attempt}"
            m = _QUESTION_LINE_RE.search(content)
            return self.rid_of_question.get(m.group(1)) if m else None
        if name == "ensemble.run":
            m = _QUESTION_LINE_RE.search(args[0])
            return self.rid_of_question.get(m.group(1)) if m else None
        if name == "retriever.retrieve":
            return self.rid_of_question.get(args[0])
        return None

    def _wrapper(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name, tracer._request_rid(name, args))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            tracer._annotate(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _annotate(self, span: Span, args, kwargs, result) -> None:
        name = span.name
        if name == "lexical.score":
            span.attrs["pages"] = len(result)
        elif name == "retriever.retrieve":
            span.attrs["pages"] = len(result)
        elif name == "lexical.save":
            span.attrs["bytes"] = os.path.getsize(args[1])
        elif name == "gateway.generate":
            span.attrs["request"] = args[1]
        elif name == "ensemble.run":
            schedule = args[2]
            span.attrs["seeds"] = [c.seed for c in schedule]
            span.attrs["responses_used"] = result.responses_used
            span.attrs["stopped_early"] = result.stopped_early
            span.attrs["abstained"] = result.abstained
        elif name == "augment.augment":
            span.attrs["summary"] = result.summary()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                record = span.to_record()
                request = record.pop("request", None)
                if request is not None:
                    record["seed"] = request.get("seed")
                fh.write(json.dumps(record, ensure_ascii=False, default=str) + "\n")


# ---------------------------------------------------------------------------
# Span arithmetic


def union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it its children's union covers."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - union_length(children.get(s.id, [])) for s in spans}


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
