#!/usr/bin/env python3
"""docqa-engine benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload {build,query,answer,augment} \\
        --seed N --seconds S --trace {0,1} [--scale {full,tiny}]

Run from the repository root. The command generates every input from the
seed, starts the scripted model endpoint (``endpoint.py``) as a child
process, drives the engine in ``src/`` through its public functions, checks
the outputs and prints one JSON object as its last stdout line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones of a separate traced run (see ``tracing.py``). Lines before it report
the same numbers under their workload-specific names, with sample counts.

Set-up (input generation, endpoint start and, except for ``build``, ingest,
index build and warm-up) is repeated ``SETUPS`` times; ``setup_s`` is the
median. The timed phase then runs closed-loop operations on one caller
until ``--seconds`` have passed, always finishing the operation in hand.

Exit status is 0 only when every output check passes and every repeated
set-up and operation reproduced the same digests. Digests are also kept in
``.perfbench_out/digests`` per (code, workload, seed, scale), so a later
run of the same code and seed that produces other outputs fails too.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import tracing  # noqa: E402
from endpoint import AUGMENT_STAGE, chat_delay_s, fingerprint  # noqa: E402

WORKLOADS = ("build", "query", "answer", "augment")
SETUPS = 3
EMBED_DIM = 1024
MAX_IN_FLIGHT = 2
BACKOFF_BASE_S = 0.02
QUERY_WARMUP = 10
RECALL_FLOOR = 0.95

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "ok_ops_ratio": "ratio",
}


class CheckFailed(Exception):
    """An output check or a digest comparison failed."""


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> bytes:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True).encode("utf-8")


def ops_per_s(results: list["OpResult"]) -> float:
    """Units of one operation over the median operation time."""
    return results[0].units / statistics.median(r.seconds for r in results)


# ---------------------------------------------------------------------------
# Endpoint process


class Endpoint:
    """The scripted endpoint as a child process; closing stdin stops it."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "endpoint.py"), str(EMBED_DIM)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"endpoint failed to start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        self.final_stats: dict | None = None

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with urllib.request.urlopen(self.url + path, data=data, timeout=10) as resp:
            return json.loads(resp.read())

    def stats(self) -> dict:
        return self._call("/stats")

    def reset(self) -> None:
        self._call("/reset", b"{}")

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                out, _ = self.proc.communicate(timeout=10)
                lines = out.strip().splitlines()
                self.final_stats = json.loads(lines[-1]) if lines else None
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def gateway_client(engine, url: str):
    config = engine.gateway.EndpointConfig(
        base_url=url + "/v1", model_name="scripted", timeout=30.0, max_retries=2,
        max_in_flight=MAX_IN_FLIGHT, backoff_base=BACKOFF_BASE_S,
    )
    return engine.gateway.GatewayClient(config)


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class OpResult:
    units: int  # pages, queries, questions or attempts done by the operation
    seconds: float
    digest: str
    failed: int = 0  # units that raised or exhausted retries
    degraded: int = 0  # units that completed without usable context
    info: dict = field(default_factory=dict)


class Workload:
    """Set-up plus a repeatable top-level operation with output checks."""

    unit = "op"

    def __init__(self, engine, seed: int, scale: inputs.Scale, workdir: Path):
        self.engine = engine
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.endpoint: Endpoint | None = None

    def setup(self) -> str:
        """Build the state the timed operations need; returns a digest."""
        raise NotImplementedError

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()

    def start_endpoint(self) -> None:
        self.endpoint = Endpoint()
        self.client = gateway_client(self.engine, self.endpoint.url)
        self.embed_client = gateway_client(self.engine, self.endpoint.url)

    def write_raw(self, records: list[dict]) -> Path:
        path = self.workdir / "raw.jsonl"
        inputs.write_jsonl(path, records)
        return path

    def build_indexes(self, corpus):
        """Operator path: build both indexes, save them, load them back."""
        e = self.engine
        lex_path, sem_path = self.workdir / "lexical.idx", self.workdir / "semantic.idx"
        e.lexical.save_lexical_index(e.lexical.build_lexical_index(corpus), lex_path)
        lexical = e.lexical.load_lexical_index(lex_path)
        e.semantic.save_semantic_index(
            e.semantic.build_semantic_index(corpus, self.embed_client, dim=EMBED_DIM), sem_path)
        semantic = e.semantic.load_semantic_index(sem_path)
        return lexical, semantic, sha(lex_path.read_bytes() + sem_path.read_bytes())

    def request_ids(self) -> dict[str, str]:
        """Trace request id of each query or question text the workload sends."""
        return {}

    def latency_ms(self, results: list[OpResult]) -> float:
        """Median wall time of one operation."""
        return statistics.median(r.seconds for r in results) * 1000

    def summary(self, results: list[OpResult]) -> dict:
        """Workload-specific figures: name -> (value, unit, sample count)."""
        return {}


class BuildWorkload(Workload):
    """Write path: raw JSONL -> corpus -> both indexes, each saved and reloaded."""

    unit = "page"

    def setup(self) -> str:
        self.raw = self.write_raw(inputs.build_collection(self.seed, self.scale))
        self.start_endpoint()
        return sha(self.raw.read_bytes())

    def op(self, i: int) -> OpResult:
        e = self.engine
        corpus_path = self.workdir / "corpus.jsonl"
        start = time.perf_counter()
        e.corpus.save_corpus(e.corpus.ingest_path(self.raw), corpus_path)
        corpus = e.corpus.load_corpus(corpus_path)
        built_lex = e.lexical.build_lexical_index(corpus)
        e.lexical.save_lexical_index(built_lex, self.workdir / "lexical.idx")
        lexical = e.lexical.load_lexical_index(self.workdir / "lexical.idx")
        built_sem = e.semantic.build_semantic_index(corpus, self.embed_client, dim=EMBED_DIM)
        e.semantic.save_semantic_index(built_sem, self.workdir / "semantic.idx")
        semantic = e.semantic.load_semantic_index(self.workdir / "semantic.idx")
        seconds = time.perf_counter() - start
        if (lexical.page_refs != built_lex.page_refs
                or lexical.doc_vectors != built_lex.doc_vectors
                or lexical.vocabulary.feature_ids != built_lex.vocabulary.feature_ids):
            raise CheckFailed("reloaded lexical index differs from the built one")
        if semantic.page_refs != built_sem.page_refs or not (
                semantic.vectors == built_sem.vectors).all():
            raise CheckFailed("reloaded semantic index differs from the built one")
        if corpus.page_count != len(semantic.page_refs):
            raise CheckFailed("semantic index does not cover every page")
        digest = sha(b"".join((self.workdir / name).read_bytes()
                              for name in ("corpus.jsonl", "lexical.idx", "semantic.idx")))
        return OpResult(corpus.page_count, seconds, digest)

    def summary(self, results):
        return {"index_pages_per_s": (ops_per_s(results), "pages/s", f"{len(results)} passes")}


class QueryWorkload(Workload):
    """Read path: one closed-loop caller of hybrid retrieve() over many short pages.

    One operation is a round over every query; per-query latency is the
    median over rounds, so a passing slowdown of the machine moves it less.
    """

    unit = "query"

    def setup(self) -> str:
        e = self.engine
        records, self.queries = inputs.query_inputs(self.seed, self.scale)
        raw = self.write_raw(records)
        self.start_endpoint()
        corpus = e.corpus.ingest_path(raw)
        self.lexical, self.semantic, digest = self.build_indexes(corpus)
        self.config = e.config.PipelineConfig()
        self.has_feature = [
            any(g in self.lexical.vocabulary.feature_ids
                for g in e.lexical.page_features(q.text, self.lexical.n_min, self.lexical.n_max))
            for q in self.queries
        ]
        for q in self.queries[:QUERY_WARMUP]:
            self._retrieve(q.text)
        return digest

    def _retrieve(self, text: str):
        c = self.config
        return self.engine.retriever.retrieve(
            text, self.lexical, self.semantic, c.weights, c.policy,
            client=self.embed_client, candidate_k=c.candidate_k)

    def op(self, i: int) -> OpResult:
        latencies, selections = [], []
        start = time.perf_counter()
        for q in self.queries:
            q_start = time.perf_counter()
            selections.append(self._retrieve(q.text))
            latencies.append(time.perf_counter() - q_start)
        seconds = time.perf_counter() - start
        for qi, results in enumerate(selections):
            if self.has_feature[qi] and not 3 <= len(results) <= 7:
                raise CheckFailed(f"query {qi} with lexical features got {len(results)} pages")
        planted = [(q.planted, r) for q, r in zip(self.queries, selections) if q.planted]
        recall = sum(ref in [sp.page_ref for sp in r] for ref, r in planted) / len(planted)
        if recall < RECALL_FLOOR:
            raise CheckFailed(f"query_recall {recall:.3f} < {RECALL_FLOOR}")
        c = self.config
        digest = sha(canonical([
            self.engine.retriever.retrieval_record(q.text, r, c.weights, c.policy)
            for q, r in zip(self.queries, selections)
        ]))
        return OpResult(len(self.queries), seconds, digest,
                        info={"latencies": latencies, "recall": recall, "planted": len(planted)})

    def query_latencies_ms(self, results) -> list[float]:
        """Per query, the median latency over rounds."""
        return [statistics.median(r.info["latencies"][qi] for r in results) * 1000
                for qi in range(len(self.queries))]

    def request_ids(self):
        return {q.text: f"query:{i}" for i, q in enumerate(self.queries)}

    def latency_ms(self, results):
        return tracing.pct(self.query_latencies_ms(results), 0.5)

    def summary(self, results):
        lat = self.query_latencies_ms(results)
        n = f"{len(lat)} queries x {len(results)} rounds"
        return {
            "queries_per_s": (ops_per_s(results), "1/s", n),
            "query_p50_ms": (tracing.pct(lat, 0.5), "ms", n),
            "query_p99_ms": (tracing.pct(lat, 0.99), "ms", n),
            "query_recall": (results[0].info["recall"], "ratio", results[0].info["planted"]),
        }


class AnswerWorkload(Workload):
    """Batch inference: one answer_questions call over all questions per op."""

    unit = "question"

    def setup(self) -> str:
        e = self.engine
        data = inputs.answer_inputs(self.seed, self.scale)
        raw = self.write_raw(data.records)
        questions_path = self.workdir / "questions.jsonl"
        inputs.write_jsonl(questions_path, data.questions)
        self.start_endpoint()
        # As `docqa ingest` then `docqa infer`: the corpus goes through its file.
        e.corpus.save_corpus(e.corpus.ingest_path(raw), self.workdir / "corpus.jsonl")
        self.corpus = e.corpus.load_corpus(self.workdir / "corpus.jsonl")
        self.lexical, self.semantic, digest = self.build_indexes(self.corpus)
        self.questions = e.cli.read_questions_jsonl(questions_path)
        self.config = e.config.PipelineConfig()
        self._answer(self.questions[:2])  # warm-up
        return digest

    def request_ids(self):
        return {q.question: f"question:{i}" for i, q in enumerate(self.questions)}

    def _answer(self, questions):
        return self.engine.cli.answer_questions(
            questions, self.corpus, self.client, self.config,
            lexical_index=self.lexical, semantic_index=self.semantic,
            embed_client=self.embed_client)

    def op(self, i: int) -> OpResult:
        start = time.perf_counter()
        verdicts = self._answer(self.questions)
        seconds = time.perf_counter() - start
        if len(verdicts) != len(self.questions):
            raise CheckFailed(f"{len(verdicts)} verdicts for {len(self.questions)} questions")
        report = self.engine.cli.evaluate_verdicts(verdicts)
        return OpResult(
            len(self.questions), seconds, sha(canonical(verdicts)),
            degraded=sum(1 for v in verdicts if not v["retrieved"]),
            info={"accuracy": report["overall"]["accuracy"],
                  "abstained": sum(v["abstained"] for v in verdicts),
                  "responses": sum(v["responses_used"] for v in verdicts)},
        )

    def summary(self, results):
        return {
            "questions_per_s": (ops_per_s(results), "1/s", f"{len(results)} batches"),
            "answer_accuracy": (results[0].info["accuracy"], "ratio", results[0].units),
            "no_context_questions": (results[0].degraded, "count", results[0].units),
        }


class AugmentWorkload(Workload):
    """Gated QA synthesis: one augment() call with feasibility on per op."""

    unit = "attempt"

    def setup(self) -> str:
        e = self.engine
        raw = self.write_raw(inputs.augment_collection(self.seed, self.scale))
        self.start_endpoint()
        self.corpus = e.corpus.ingest_path(raw)
        self.endpoint.reset()
        self._augment(min(10, self.scale.augment_quota))  # warm-up
        return sha(raw.read_bytes())

    def _augment(self, quota: int):
        return self.engine.augment.augment(
            self.corpus, self.client, quota=quota, seed=self.seed, feasibility_check=True)

    def op(self, i: int) -> OpResult:
        self.endpoint.reset()
        start = time.perf_counter()
        result = self._augment(self.scale.augment_quota)
        seconds = time.perf_counter() - start
        summary = result.summary()
        kinds = self.endpoint.stats()["augment_kinds"]
        if summary["attempts"] != summary["accepted"] + summary["rejected"]:
            raise CheckFailed(f"attempts != accepted + rejected: {summary}")
        expected = {AUGMENT_STAGE[k]: n for k, n in sorted(kinds.items()) if k != "clean"}
        if summary["rejections_by_stage"] != expected or summary["accepted"] != kinds.get("clean", 0):
            raise CheckFailed(f"rejections {summary} do not match the script {kinds}")
        digest = sha(canonical([[c.to_record() for c in result.accepted], result.audit]))
        return OpResult(result.attempts, seconds, digest,
                        failed=summary["rejections_by_stage"].get("transport", 0),
                        info={"summary": summary})

    def summary(self, results):
        s = results[0].info["summary"]
        return {
            "qa_attempts_per_s": (ops_per_s(results), "1/s", f"{len(results)} calls"),
            "qa_accepted": (s["accepted"], "count", s["attempts"]),
        }


WORKLOAD_CLASSES = {
    "build": BuildWorkload,
    "query": QueryWorkload,
    "answer": AnswerWorkload,
    "augment": AugmentWorkload,
}


# ---------------------------------------------------------------------------
# Runner


def pin_malloc_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its initial 128 KiB.

    glibc raises the threshold after a large block is freed, so whether a
    large temporary (such as the float64 copy of the semantic matrix made by
    every query) faults in fresh pages or reuses heap pages depends on the
    allocation history of the run. That made whole runs fast or slow by
    about 20 %. A fixed threshold makes every run pay the same.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return  # not glibc: no dynamic threshold to pin
    M_MMAP_THRESHOLD = -3
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def load_engine():
    import importlib
    from types import SimpleNamespace
    pin_malloc_mmap_threshold()
    sys.path.insert(0, str(SRC))
    names = ("augment", "cli", "config", "corpus", "gateway", "lexical", "retriever", "semantic")
    return SimpleNamespace(**{n: importlib.import_module(f"docqa_engine.{n}") for n in names})


def timed_phase(workload: Workload, seconds: float, tracer: tracing.Tracer | None) -> list[OpResult]:
    results: list[OpResult] = []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        if tracer is not None:
            span = tracer.open("op", f"{workload.unit}:{i}")
        try:
            results.append(workload.op(i))
        finally:
            if tracer is not None:
                tracer.close(span)
        i += 1
    return results


def check_digests(results: list[OpResult], setup_digests: list[str]) -> str:
    if len(set(setup_digests)) != 1:
        raise CheckFailed("repeated set-ups of one seed produced different inputs or indexes")
    op_digests = {r.digest for r in results}
    if len(op_digests) > 1:
        raise CheckFailed("repeated operations of one seed produced different outputs")
    return sha(canonical([setup_digests[0], sorted(op_digests)]))


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_against_earlier_runs(workload: str, seed: int, scale: str, digest: str) -> None:
    path = OUT_DIR / "digests" / f"{code_fingerprint()}-{workload}-{scale}-{seed}.txt"
    if path.exists() and path.read_text().strip() != digest:
        raise CheckFailed(f"outputs differ from an earlier run of the same code and seed ({path})")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest + "\n")


def run(args) -> tuple[dict, list[str]]:
    engine = load_engine()
    scale = inputs.SCALES[args.scale]
    cls = WORKLOAD_CLASSES[args.workload]
    workdir = OUT_DIR / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    report: list[str] = []
    tracer = None
    try:
        setup_seconds, setup_digests = [], []
        workload = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        for _ in range(1 if args.trace else SETUPS):
            if workload is not None:
                workload.close()
            workload = cls(engine, args.seed, scale, workdir)
            start = time.perf_counter()
            setup_digests.append(workload.setup())
            setup_seconds.append(time.perf_counter() - start)
        if args.trace:
            tracer.rid_of_question = workload.request_ids()
            stats_before = workload.endpoint.stats()
            traced_start = len(tracer.spans)
            traced = timed_phase(workload, args.seconds, tracer)
            stats_after = workload.endpoint.stats()
            tracer.uninstall()
            untraced = timed_phase(workload, args.seconds, None)
            results = traced + untraced
        else:
            results = timed_phase(workload, args.seconds, None)
        digest = check_digests(results, setup_digests)
        check_against_earlier_runs(args.workload, args.seed, args.scale, digest)
        figures = workload.summary(results)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if workload is not None:
            workload.close()

    attempted = sum(r.units for r in results)
    failed = sum(r.failed for r in results)
    degraded = sum(r.degraded for r in results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        metrics = layer_metrics(args.workload, tracer, traced_start, traced, untraced,
                                stats_before, stats_after, workload)
        tracer.write(OUT_DIR / "traces" / f"{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": rss_mb,
            "ops_per_s": ops_per_s(results),
            "op_p50_ms": workload.latency_ms(results),
            "ok_ops_ratio": (attempted - failed - degraded) / attempted,
        }
    figures.update({
        "setup_s": (statistics.median(setup_seconds), "s", len(setup_seconds)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "failed_ops_ratio": ((failed + degraded) / attempted, "ratio", attempted),
        "operations": (len(results), "count", len(results)),
    })
    for name, (value, unit, n) in figures.items():
        report.append(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
    report.append(f"{args.workload} endpoint = {json.dumps(workload.endpoint.final_stats)}")
    report.append(f"{args.workload} digest = {digest}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": (E2E_UNITS.get(name) or LAYER_UNITS[name])}
                    for name, value in metrics.items()},
    }
    return result, report


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced run

STAGES = tuple(sorted(AUGMENT_STAGE.values())) + ("transport",)

LAYER_UNITS = {
    "corpus.ingest_s": "s", "corpus.load_s": "s", "corpus.get_calls": "count",
    "corpus.get_us_p50": "us",
    "tokenizer.grams_s": "s", "tokenizer.token_set_calls": "count",
    "lexical.build_s": "s", "lexical.build_self_s": "s", "lexical.save_s": "s",
    "lexical.load_s": "s", "lexical.file_bytes": "bytes", "lexical.score_ms_p50": "ms",
    "lexical.score_ms_p99": "ms", "lexical.pages_scored_p50": "count",
    "semantic.build_s": "s", "semantic.save_s": "s", "semantic.load_s": "s",
    "semantic.embed_query_ms_p50": "ms", "semantic.search_ms_p50": "ms",
    "semantic.search_ms_p99": "ms",
    "retriever.retrieve_ms_p50": "ms", "retriever.fuse_select_ms_p50": "ms",
    "retriever.pages_selected_mean": "count", "retriever.empty_contexts": "count",
    "ensemble.question_ms_p50": "ms", "ensemble.question_ms_p90": "ms",
    "ensemble.requests_sent": "count", "ensemble.responses_used": "count",
    "ensemble.useful_ratio": "ratio", "ensemble.early_stops": "count",
    "ensemble.abstentions": "count", "ensemble.wait_after_stop_ms_p50": "ms",
    "ensemble.window_utilization": "ratio",
    "gateway.chat_ms_p50": "ms", "gateway.chat_ms_p99": "ms", "gateway.overhead_ms_p50": "ms",
    "gateway.embed_batch_ms_p50": "ms", "gateway.requests": "count",
    "gateway.retries": "count", "gateway.failures": "count", "gateway.peak_in_flight": "count",
    "augment.select_pages_ms": "ms", "augment.gates_ms_p50": "ms", "augment.self_s": "s",
    "augment.model_wait_s": "s", "augment.accept_ratio": "ratio",
    **{f"augment.rejected.{stage.replace(':', '.')}": "count" for stage in STAGES},
    "cli.answer_questions_s": "s", "cli.read_questions_ms": "ms",
    "trace.overhead_ratio": "ratio", "trace.blocking_path_ratio": "ratio",
}


def layer_metrics(workload_name, tracer, traced_start, traced, untraced,
                  stats_before, stats_after, workload) -> dict:
    spans = tracer.spans
    timed = spans[traced_start:]
    selfs = tracing.self_times(spans)
    ops = max(1, len(traced))

    def named(name, pool=spans):
        return [s for s in pool if s.name == name and "error" not in s.attrs]

    def durations(name, pool=spans, scale=1.0):
        return [s.duration * scale for s in named(name, pool)]

    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    m: dict[str, float] = {}
    m["corpus.ingest_s"] = tracing.median(durations("corpus.ingest_path"))
    m["corpus.load_s"] = tracing.median(durations("corpus.load"))
    m["corpus.get_calls"] = len(named("corpus.get", timed)) / ops
    m["corpus.get_us_p50"] = tracing.pct(durations("corpus.get", timed, 1e6), 0.5)

    builds = named("lexical.build")
    m["tokenizer.grams_s"] = tracing.median([
        sum(c.duration for c in children.get(b.id, []) if c.name.startswith("tokenizer."))
        for b in builds])
    m["tokenizer.token_set_calls"] = len(named("tokenizer.token_set", timed)) / ops
    m["lexical.build_s"] = tracing.median([b.duration for b in builds])
    m["lexical.build_self_s"] = tracing.median([selfs[b.id] for b in builds])
    m["lexical.save_s"] = tracing.median(durations("lexical.save"))
    m["lexical.load_s"] = tracing.median(durations("lexical.load"))
    m["lexical.file_bytes"] = tracing.median([s.attrs["bytes"] for s in named("lexical.save")])
    scores = named("lexical.score", timed)
    m["lexical.score_ms_p50"] = tracing.pct([s.duration * 1000 for s in scores], 0.5)
    m["lexical.score_ms_p99"] = tracing.pct([s.duration * 1000 for s in scores], 0.99)
    m["lexical.pages_scored_p50"] = tracing.pct([s.attrs["pages"] for s in scores], 0.5)

    m["semantic.build_s"] = tracing.median(durations("semantic.build"))
    m["semantic.save_s"] = tracing.median(durations("semantic.save"))
    m["semantic.load_s"] = tracing.median(durations("semantic.load"))
    m["semantic.embed_query_ms_p50"] = tracing.pct(durations("semantic.embed_query", timed, 1000), 0.5)
    searches = durations("semantic.search", timed, 1000)
    m["semantic.search_ms_p50"] = tracing.pct(searches, 0.5)
    m["semantic.search_ms_p99"] = tracing.pct(searches, 0.99)

    retrieves = named("retriever.retrieve", timed)
    m["retriever.retrieve_ms_p50"] = tracing.pct([s.duration * 1000 for s in retrieves], 0.5)
    m["retriever.fuse_select_ms_p50"] = tracing.pct([selfs[s.id] * 1000 for s in retrieves], 0.5)
    m["retriever.pages_selected_mean"] = (
        statistics.fmean(s.attrs["pages"] for s in retrieves) if retrieves else 0.0)
    m["retriever.empty_contexts"] = (
        sum(r.degraded for r in traced) / ops if workload_name == "answer" else 0.0)

    ensembles = named("ensemble.run", timed)
    generates = named("gateway.generate", timed)
    waits, sent, request_time = [], 0, 0.0
    for e in ensembles:
        reqs = [c for c in children.get(e.id, []) if c.name == "gateway.generate"]
        sent += len(reqs)
        request_time += sum(r.duration for r in reqs)
        if e.attrs["stopped_early"]:
            tallied = set(e.attrs["seeds"][: e.attrs["responses_used"]])
            stop_at = max(r.end for r in reqs if r.attrs.get("request", {}).get("seed") in tallied)
            waits.append((e.end - stop_at) * 1000)
    used = sum(e.attrs["responses_used"] for e in ensembles)
    m["ensemble.question_ms_p50"] = tracing.pct([e.duration * 1000 for e in ensembles], 0.5)
    m["ensemble.question_ms_p90"] = tracing.pct([e.duration * 1000 for e in ensembles], 0.9)
    m["ensemble.requests_sent"] = sent / ops
    m["ensemble.responses_used"] = used / ops
    m["ensemble.useful_ratio"] = used / sent if sent else 0.0
    m["ensemble.early_stops"] = sum(e.attrs["stopped_early"] for e in ensembles) / ops
    m["ensemble.abstentions"] = sum(e.attrs["abstained"] for e in ensembles) / ops
    m["ensemble.wait_after_stop_ms_p50"] = tracing.pct(waits, 0.5)
    ensemble_wall = sum(e.duration for e in ensembles)
    m["ensemble.window_utilization"] = (
        request_time / (MAX_IN_FLIGHT * ensemble_wall) if ensemble_wall else 0.0)

    chat = [g.duration * 1000 for g in generates]
    m["gateway.chat_ms_p50"] = tracing.pct(chat, 0.5)
    m["gateway.chat_ms_p99"] = tracing.pct(chat, 0.99)
    m["gateway.overhead_ms_p50"] = tracing.pct(
        [(g.duration - chat_delay_s(fingerprint(g.attrs["request"]))) * 1000 for g in generates],
        0.5)
    m["gateway.embed_batch_ms_p50"] = tracing.pct(durations("gateway.embed", timed, 1000), 0.5)
    served = sum(stats_after["requests"].values()) - sum(stats_before["requests"].values())
    m["gateway.requests"] = served / ops
    m["gateway.retries"] = (stats_after["served_503"] - stats_before["served_503"]) / ops
    m["gateway.failures"] = sum(
        1 for s in timed if s.name.startswith("gateway.") and "error" in s.attrs) / ops
    m["gateway.peak_in_flight"] = stats_after["peak_in_flight"]

    augments = named("augment.augment", timed)
    m["augment.select_pages_ms"] = tracing.median(durations("augment.select_pages", timed, 1000))
    m["augment.gates_ms_p50"] = tracing.pct(durations("augment.run_gates", timed, 1000), 0.5)
    model_wait = [sum(g.duration for g in generates if a.start <= g.start and g.end <= a.end)
                  for a in augments]
    m["augment.model_wait_s"] = tracing.median(model_wait)
    m["augment.self_s"] = tracing.median([a.duration - w for a, w in zip(augments, model_wait)])
    attempts = sum(a.attrs["summary"]["attempts"] for a in augments)
    accepted = sum(a.attrs["summary"]["accepted"] for a in augments)
    m["augment.accept_ratio"] = accepted / attempts if attempts else 0.0
    for stage in STAGES:
        m[f"augment.rejected.{stage.replace(':', '.')}"] = sum(
            a.attrs["summary"]["rejections_by_stage"].get(stage, 0) for a in augments) / ops

    m["cli.answer_questions_s"] = tracing.median(durations("cli.answer_questions", timed))
    m["cli.read_questions_ms"] = tracing.median(durations("cli.read_questions", spans, 1000))

    m["trace.overhead_ratio"] = ops_per_s(untraced) / ops_per_s(traced)
    # Blocking path: each op's self time, plus the self time of every span on
    # the caller's thread, plus the union of the concurrent ensemble requests.
    # Against the wall of the whole traced phase, so time spent between
    # operations, outside any span, shows as a shortfall.
    op_spans = [s for s in timed if s.name == "op"]
    main_thread = op_spans[0].thread
    covered = sum(selfs[s.id] for s in timed if s.thread == main_thread)
    covered += sum(tracing.union_length([(g.start, g.end) for g in children.get(e.id, [])])
                   for e in ensembles)
    m["trace.blocking_path_ratio"] = covered / (op_spans[-1].end - op_spans[0].start)
    missing = set(m) ^ set(LAYER_UNITS)
    if missing:
        raise RuntimeError(f"per-layer metric set mismatch: {sorted(missing)}")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(inputs.SCALES), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "docqa_engine" / "__init__.py").is_file():
        print(f"engine sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        result, report = run(args)
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
