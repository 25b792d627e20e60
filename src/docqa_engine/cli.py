"""Command-line entry point: ingest, build-index, retrieve, augment, infer,
evaluate.

Exit codes are stable so scripts can branch on failure class:
0 success, 2 configuration, 3 file I/O or artifact format, 4 endpoint
transport (from infer also when, after writing every verdict, some question
got no successful response), 5 data validation.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .augment import augment
from .config import PipelineConfig, load_config, resolve_endpoint
from .corpus import Corpus, ingest_path, iter_records, load_corpus, save_corpus, write_records
from .ensemble import MAX_OPTIONS, build_answer_prompt, make_schedule, run_ensemble
from .errors import (
    ConfigError,
    ConflictError,
    ContractError,
    EndpointError,
    FormatError,
    IntegrityError,
    ParseError,
    TransportError,
)
from .gateway import GatewayClient, in_flight_limit
from .lexical import (DEFAULT_MAX_FEATURES, DEFAULT_N_MAX, DEFAULT_N_MIN, build_lexical_index,
                      load_lexical_index, save_lexical_index)
from .retriever import FusionWeights, SelectionPolicy, check_indexes, retrieval_record, retrieve
from .semantic import build_semantic_index, load_semantic_index, save_semantic_index

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_TRANSPORT = 4
EXIT_VALIDATION = 5

KNOWN_CATEGORIES = ("Y/N", "Fact.", "Num")


@dataclass(frozen=True)
class QuestionRecord:
    """One multiple-choice question as read from an infer input file."""

    question: str
    options: tuple[str, ...]
    answer_index: int | None = None  # gold answer when known
    doc_id: str | None = None        # restrict retrieval to this document
    category: str | None = None


def read_questions_jsonl(path: str | Path) -> list[QuestionRecord]:
    """Question records from JSONL; the QA records `augment` writes read as-is."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in iter_records(fh):
            try:
                if not isinstance(raw["question"], str):
                    raise ValueError("question must be a string")
                if not isinstance(raw["options"], list):
                    raise ValueError("options must be a list")
                if not all(isinstance(o, str) for o in raw["options"]):
                    raise ValueError("options must be strings")
                for key in ("doc_id", "category"):
                    if not isinstance(raw.get(key), (str, type(None))):
                        raise ValueError(f"{key} must be a string")
                options = tuple(raw["options"])
                answer_index = raw.get("answer_index")
                # bool is an int subclass; JSON true must not read as index 1
                if answer_index is not None and type(answer_index) is not int:
                    raise ValueError("answer_index must be an integer")
                if not 2 <= len(options) <= MAX_OPTIONS:
                    raise ValueError(
                        f"{len(options)} options; a question needs 2 to {MAX_OPTIONS}")
                if answer_index is not None and not 0 <= answer_index < len(options):
                    raise ValueError(
                        f"answer_index {answer_index} out of range for {len(options)} options")
                records.append(
                    QuestionRecord(
                        question=raw["question"],
                        options=options,
                        answer_index=answer_index,
                        doc_id=raw.get("doc_id"),
                        category=raw.get("category"),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad question record: {exc}", line_no=line_no) from exc
    if not records:
        raise ParseError(f"no question records in {path}")
    return records


def answer_questions(
    questions: list[QuestionRecord],
    corpus: Corpus,
    chat_client,
    config: PipelineConfig,
    lexical_index=None,
    semantic_index=None,
    embed_client=None,
    *,
    use_retrieval: bool = True,
    max_context_chars: int | None = None,
) -> list[dict]:
    """Answer each question with retrieval-grounded ensemble inference.

    With retrieval disabled the context is the whole corpus in page order
    (optionally truncated), the naive long-context baseline. Up to the chat
    client's ``max_in_flight`` questions run at once, each retrieving and
    then running its ensemble on a worker thread; the client's own cap still
    bounds the requests in flight. Returns one serializable verdict record
    per question, in input order, identical to answering them one by one.
    Indexes that ``check_indexes`` rejects fail before any request.
    """
    if use_retrieval:
        if lexical_index is None:
            raise ConfigError("retrieval requested but no lexical index supplied")
        check_indexes(corpus.fingerprint, lexical_index, semantic_index, embed_client)
    if max_context_chars is not None and max_context_chars < 1:
        raise ValueError(f"max_context_chars must be at least 1, got {max_context_chars}")
    docs = corpus.doc_page_counts()
    for qi, q in enumerate(questions, start=1):
        if q.doc_id is not None and q.doc_id not in docs:
            raise ParseError(
                f"question {qi}: doc_id {q.doc_id!r} names no document in the corpus")
    if not use_retrieval:  # the naive baseline: the same context for every question
        joined = "\n\n".join(p.normalized_text for p in corpus.pages)[:max_context_chars]
        baseline_contexts = [joined] if joined else []

    def answer(qi: int, q: QuestionRecord) -> dict:
        retrieved = []
        if use_retrieval:
            results = retrieve(
                q.question,
                lexical_index,
                semantic_index,
                config.weights,
                config.policy,
                client=embed_client,
                candidate_k=config.candidate_k,
                doc_id=q.doc_id,
            )
            retrieved = [r.page_ref for r in results]
            contexts = [corpus.get(*ref).normalized_text for ref in retrieved]
        else:
            contexts = baseline_contexts

        prompt = build_answer_prompt(q.question, list(q.options))
        schedule = make_schedule(config.schedule_count, seed=config.seed + qi)
        verdict = run_ensemble(
            prompt,
            contexts,
            schedule,
            chat_client,
            stop=config.stop,
            option_texts=list(q.options),
        )
        predicted = (
            None if verdict.chosen_option is None
            else ord(verdict.chosen_option) - ord("A")
        )
        return {
            "question": q.question,
            "options": list(q.options),
            "category": q.category,
            "gold_answer_index": q.answer_index,
            "predicted_index": predicted,
            "retrieved": [[doc, idx] for doc, idx in retrieved],
            **verdict.to_record(),
        }

    workers = max(1, min(in_flight_limit(chat_client), len(questions)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(answer, range(len(questions)), questions))


def evaluate_verdicts(verdicts: list[dict]) -> dict:
    """Overall and per-category accuracy; abstentions count as wrong.

    A failed verdict (no successful model response) says nothing about the
    model, so it is counted under ``failed`` instead of being scored.
    """
    failed = sum(1 for v in verdicts if v.get("failed"))
    scored = [v for v in verdicts
              if v.get("gold_answer_index") is not None and not v.get("failed")]
    def bucket(records):
        correct = sum(
            1 for v in records if v.get("predicted_index") == v["gold_answer_index"]
        )
        return {"correct": correct, "total": len(records),
                "accuracy": correct / len(records) if records else 0.0}

    categories: dict[str, list[dict]] = {}
    for v in scored:
        tag = v.get("category")
        tag = tag if tag in KNOWN_CATEGORIES else "other"
        categories.setdefault(tag, []).append(v)
    return {
        "overall": bucket(scored),
        "categories": {tag: bucket(records) for tag, records in sorted(categories.items())},
        "unscored": len(verdicts) - len(scored) - failed,
        "failed": failed,
    }


# ---------------------------------------------------------------------------
# Commands


def _require_chat_client(config: PipelineConfig, args) -> GatewayClient:
    endpoint = resolve_endpoint(config.endpoint, args.endpoint_url, args.model)
    if endpoint is None:
        raise ConfigError(
            "no model endpoint configured; set the endpoint section in the "
            "config file or pass --endpoint-url and --model"
        )
    return GatewayClient(endpoint)


def _semantic_side(config: PipelineConfig, args) -> tuple[GatewayClient | None, str | None]:
    """The embed client and semantic index path; both None without an embedding endpoint."""
    endpoint = resolve_endpoint(config.embedding, args.embed_url, args.embed_model)
    if endpoint is None:
        if args.semantic:
            raise ConfigError("semantic index requested but no embedding endpoint configured; set "
                              "the embedding section or pass --embed-url and --embed-model")
        return None, None
    return GatewayClient(endpoint), args.semantic or config.paths.semantic_index


def _load_indexes(config: PipelineConfig, args):
    """The lexical index, then the semantic index and embed client per `_semantic_side`."""
    embed_client, semantic_path = _semantic_side(config, args)
    lexical_index = load_lexical_index(args.lexical or config.paths.lexical_index)
    semantic_index = None if semantic_path is None else load_semantic_index(semantic_path)
    return lexical_index, semantic_index, embed_client


def cmd_ingest(args, config: PipelineConfig) -> int:
    corpus = ingest_path(args.input)
    out = args.output or config.paths.corpus
    save_corpus(corpus, out)
    print(f"ingested {corpus.page_count} pages across {corpus.doc_count} documents -> {out}")
    return EXIT_OK


def cmd_build_index(args, config: PipelineConfig) -> int:
    embed_client, semantic_out = _semantic_side(config, args)
    corpus = load_corpus(args.corpus or config.paths.corpus)
    lexical_out = args.lexical or config.paths.lexical_index
    index = build_lexical_index(
        corpus, max_features=args.max_features, n_min=args.ngram_min, n_max=args.ngram_max
    )
    save_lexical_index(index, lexical_out)
    print(f"lexical index: {index.page_count} pages, "
          f"{index.vocabulary.size} features -> {lexical_out}")
    if embed_client is not None:
        sem_index = build_semantic_index(corpus, embed_client, dim=config.embed_dim)
        save_semantic_index(sem_index, semantic_out)
        print(f"semantic index: {len(sem_index.page_refs)} pages, "
              f"dim {sem_index.dim} -> {semantic_out}")
    return EXIT_OK


def cmd_retrieve(args, config: PipelineConfig) -> int:
    lexical_index, semantic_index, embed_client = _load_indexes(config, args)
    check_indexes(lexical_index.fingerprint, lexical_index, semantic_index, embed_client)
    weights = config.weights
    if args.alpha is not None:
        weights = FusionWeights(alpha=args.alpha, beta=1.0 - args.alpha)
    policy = config.policy
    if args.min_pages is not None or args.max_pages is not None or args.threshold is not None:
        policy = SelectionPolicy(
            top_m=args.min_pages if args.min_pages is not None else policy.top_m,
            top_n=args.max_pages if args.max_pages is not None else policy.top_n,
            threshold=args.threshold if args.threshold is not None else policy.threshold,
        )
    results = retrieve(
        args.query,
        lexical_index,
        semantic_index,
        weights,
        policy,
        client=embed_client,
        candidate_k=config.candidate_k,
    )
    if args.json:
        print(json.dumps(retrieval_record(args.query, results, weights, policy),
                         ensure_ascii=False))
    else:
        for rank, r in enumerate(results, start=1):
            doc_id, page_index = r.page_ref
            print(f"{rank}\t{doc_id}\t{page_index}\t{r.s_final:.4f}")
    return EXIT_OK


def cmd_augment(args, config: PipelineConfig) -> int:
    corpus = load_corpus(args.corpus or config.paths.corpus)
    client = _require_chat_client(config, args)
    result = augment(
        corpus,
        client,
        quota=args.quota,
        thresholds=config.thresholds,
        seed=args.seed if args.seed is not None else config.seed,
        feasibility_check=not args.no_feasibility,
    )
    write_records(args.output, (c.to_record() for c in result.accepted))
    if args.audit:
        write_records(args.audit, result.audit)
    print(json.dumps(result.summary(), ensure_ascii=False))
    return EXIT_OK


def cmd_infer(args, config: PipelineConfig) -> int:
    if args.no_retrieval:
        for flag in ("lexical", "semantic", "embed_url", "embed_model"):
            if getattr(args, flag):
                raise ConfigError(f"--no-retrieval takes no --{flag.replace('_', '-')}: "
                                  "the baseline reads no index and embeds nothing")
    questions = read_questions_jsonl(args.questions)
    corpus = load_corpus(args.corpus or config.paths.corpus)
    chat_client = _require_chat_client(config, args)
    lexical_index = semantic_index = embed_client = None
    if not args.no_retrieval:
        lexical_index, semantic_index, embed_client = _load_indexes(config, args)
    run_config = config
    if args.seed is not None:
        run_config = replace(config, seed=args.seed)
    verdicts = answer_questions(
        questions,
        corpus,
        chat_client,
        run_config,
        lexical_index=lexical_index,
        semantic_index=semantic_index,
        embed_client=embed_client,
        use_retrieval=not args.no_retrieval,
        max_context_chars=args.max_context_chars,
    )
    write_records(args.output, verdicts)
    answered = sum(1 for v in verdicts if v["predicted_index"] is not None)
    print(f"answered {answered}/{len(verdicts)} questions -> {args.output}")
    failed = sum(1 for v in verdicts if v["failed"])
    if failed:
        print(f"endpoint error: {failed} of {len(verdicts)} questions got no successful "
              "response", file=sys.stderr)
        return EXIT_TRANSPORT
    return EXIT_OK


def cmd_evaluate(args, config: PipelineConfig) -> int:
    with open(args.verdicts, encoding="utf-8") as fh:
        verdicts = [record for _, record in iter_records(fh)]
    report = evaluate_verdicts(verdicts)
    if args.json:
        print(json.dumps(report, ensure_ascii=False))
    else:
        overall = report["overall"]
        print(f"overall\t{overall['accuracy']:.4f}\t({overall['correct']}/{overall['total']})")
        for tag, bucket in report["categories"].items():
            print(f"{tag}\t{bucket['accuracy']:.4f}\t({bucket['correct']}/{bucket['total']})")
        if report["unscored"]:
            print(f"unscored\t{report['unscored']} records without gold answers")
        if report["failed"]:
            print(f"failed\t{report['failed']} records without a successful model response")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_endpoint_flags(parser: argparse.ArgumentParser, *, chat: bool, embed: bool) -> None:
    if chat:
        parser.add_argument("--endpoint-url", help="chat endpoint base URL (overrides config)")
        parser.add_argument("--model", help="chat model name (overrides config)")
    if embed:
        parser.add_argument("--embed-url", help="embedding endpoint base URL (overrides config)")
        parser.add_argument("--embed-model", help="embedding model name (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docqa",
        description="Hybrid-retrieval document QA engine: indexing, adaptive "
        "retrieval, QA synthesis, and ensemble inference.",
    )
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse raw page records into a corpus file")
    p.add_argument("--input", required=True, help="raw JSONL with doc_id/page_index/text")
    p.add_argument("--output", help="corpus file to write")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build-index", help="build the lexical index (and, given an embedding "
                       "endpoint, the semantic one)")
    p.add_argument("--corpus", help="corpus file")
    p.add_argument("--lexical", help="lexical index output path")
    p.add_argument("--semantic", help="semantic index output path (needs an embedding endpoint)")
    p.add_argument("--max-features", type=int, default=DEFAULT_MAX_FEATURES)
    p.add_argument("--ngram-min", type=int, default=DEFAULT_N_MIN)
    p.add_argument("--ngram-max", type=int, default=DEFAULT_N_MAX)
    _add_endpoint_flags(p, chat=False, embed=True)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("retrieve", help="rank pages for a query")
    p.add_argument("query")
    p.add_argument("--lexical", help="lexical index path")
    p.add_argument("--semantic", help="semantic index path (needs an embedding endpoint)")
    p.add_argument("--alpha", type=float, help="lexical fusion weight (beta = 1 - alpha)")
    p.add_argument("--min-pages", type=int)
    p.add_argument("--max-pages", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--json", action="store_true", help="emit one JSON record")
    _add_endpoint_flags(p, chat=False, embed=True)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("augment", help="generate gated synthetic QA pairs")
    p.add_argument("--corpus", help="corpus file")
    p.add_argument("--quota", type=int, required=True, help="generation attempts")
    p.add_argument("--output", required=True, help="accepted QA JSONL path")
    p.add_argument("--audit", help="rejection audit JSONL path")
    p.add_argument("--seed", type=int)
    p.add_argument("--no-feasibility", action="store_true",
                   help="skip the feasibility round-trip")
    _add_endpoint_flags(p, chat=True, embed=False)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("infer", help="answer multiple-choice questions")
    p.add_argument("--questions", required=True, help="question JSONL path")
    p.add_argument("--output", required=True, help="verdict JSONL path")
    p.add_argument("--corpus", help="corpus file")
    p.add_argument("--lexical", help="lexical index path")
    p.add_argument("--semantic", help="semantic index path (needs an embedding endpoint)")
    p.add_argument("--seed", type=int)
    p.add_argument("--no-retrieval", action="store_true",
                   help="use the raw corpus as context instead of retrieval")
    p.add_argument("--max-context-chars", type=int,
                   help="truncate no-retrieval context to this many chars")
    _add_endpoint_flags(p, chat=True, embed=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("evaluate", help="score verdicts against gold answers")
    p.add_argument("--verdicts", required=True, help="verdict JSONL from infer")
    p.add_argument("--json", action="store_true", help="emit one JSON report")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TransportError, EndpointError) as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (ParseError, ConflictError, IntegrityError, ContractError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
