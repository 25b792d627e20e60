"""Command-line entry point: ingest, build-index, retrieve, augment, infer,
evaluate.

Exit codes are stable so scripts can branch on failure class:
0 success, 2 configuration (also two outputs of one command that are one file),
3 file I/O or artifact format, 4 endpoint transport (from infer also when,
after writing every verdict, some question got no successful response),
5 data validation; each failure prints one stderr line. A command checks every
output it writes before it reads any input or sends any request.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .augment import augment
from .config import PipelineConfig, load_config
from .corpus import (Corpus, ingest_path, iter_records, load_corpus, output_target, read_records,
                     save_corpus, write_records)
from .ensemble import (MAX_OPTIONS, OPTION_LABELS, EnsembleVerdict, build_answer_prompt,
                       make_schedule, run_ensemble)
from .errors import (
    ConfigError,
    ContractError,
    FormatError,
    IntegrityError,
    ParseError,
    TransportError,
)
from .gateway import GatewayClient, in_flight_limit
from .lexical import build_lexical_index, load_lexical_index, save_lexical_index
from .retriever import check_indexes, retrieval_record, retrieve
from .semantic import build_semantic_index, load_semantic_index, save_semantic_index

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_TRANSPORT = 4
EXIT_VALIDATION = 5

KNOWN_CATEGORIES = ("Y/N", "Fact.", "Num")

# the artifact paths a command reads or writes when its flag is not given
CORPUS_PATH = "corpus.jsonl"
LEXICAL_PATH = "lexical.idx"
SEMANTIC_PATH = "semantic.idx"

# Question threads per chat connection. Each holds at most one request, so a
# second thread per connection sends while another question retrieves,
# tallies or sleeps through a retry backoff; with one, the connection idles
# through each of those steps.
QUESTIONS_PER_SLOT = 2


@dataclass(frozen=True)
class QuestionRecord:
    """One multiple-choice question as read from an infer input file."""

    question: str
    options: tuple[str, ...]
    answer_index: int | None = None  # gold answer when known
    doc_id: str | None = None        # restrict retrieval to this document
    category: str | None = None


def _index_field(record: dict, key: str, options: list[str] | None = None) -> int | None:
    """record[key], which must be an integer or null (or absent), and given
    ``options`` the index of one of them."""
    value = record.get(key)
    # bool is an int subclass; JSON true must not read as index 1
    if value is not None and type(value) is not int:
        raise ValueError(f"{key} must be an integer or null")
    if value is not None and options is not None and not 0 <= value < len(options):
        raise ValueError(f"{key} {value} out of range for {len(options)} options")
    return value


def _options(record: dict) -> list[str]:
    """record["options"], checked as a question's."""
    options = record["options"]
    if not isinstance(options, list):
        raise ValueError("options must be a list")
    if not all(isinstance(o, str) for o in options):
        raise ValueError("options must be strings")
    if not 2 <= len(options) <= MAX_OPTIONS:
        raise ValueError(f"{len(options)} options; a question needs 2 to {MAX_OPTIONS}")
    return options


def _read_jsonl(path: str | Path, kind: str, checked) -> list:
    """`read_records` over a JSONL file, where a file with no record is a ParseError."""
    with open(path, "rb") as fh:
        records = read_records(iter_records(fh), kind, checked)
    if not records:
        raise ParseError(f"no {kind} records in {path}")
    return records


def _question_record(raw: dict) -> QuestionRecord:
    question = raw["question"]
    if not isinstance(question, str):
        raise ValueError("question must be a string")
    options = _options(raw)
    for key in ("category", "doc_id"):
        if not isinstance(raw.get(key), (str, type(None))):
            raise ValueError(f"{key} must be a string")
    return QuestionRecord(question, tuple(options), _index_field(raw, "answer_index", options),
                          doc_id=raw.get("doc_id"), category=raw.get("category"))


def _verdict_record(raw: dict) -> dict:
    options = _options(raw) if "options" in raw else None  # older files hold none
    if not isinstance(raw.get("category"), (str, type(None))):
        raise ValueError("category must be a string")
    for key in ("gold_answer_index", "predicted_index"):
        _index_field(raw, key, options)
    for key in ("failed", "no_context"):  # either may be absent, as in older files
        if type(raw.get(key, False)) is not bool:
            raise ValueError(f"{key} must be a boolean")
    return raw


def read_questions_jsonl(path: str | Path) -> list[QuestionRecord]:
    """Question records from JSONL; the QA records `augment` writes read as-is."""
    return _read_jsonl(path, "question", _question_record)


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
    (optionally truncated), the naive long-context baseline. Up to
    ``QUESTIONS_PER_SLOT`` times the chat client's ``max_in_flight``
    questions run at once, each on a worker thread that retrieves and then
    runs its ensemble, one chat request at a time; the client's own
    connection pool still bounds the requests in flight. Returns one
    serializable verdict record per question, in input order, identical to
    answering them one by one. Blank pages are left out of every context.
    A question left with no context sends no request: its verdict abstains
    with ``no_context`` set. A question whose query embedding fails after the
    gateway's retries sends no request either: its verdict is ``failed``.
    Indexes that ``check_indexes`` rejects fail before any request.
    """
    if use_retrieval:
        if lexical_index is None:
            raise ConfigError("retrieval requested but no lexical index supplied")
        if max_context_chars is not None:
            raise ConfigError("max_context_chars truncates only the no-retrieval baseline")
        check_indexes(corpus.fingerprint, lexical_index, semantic_index, embed_client)
    if max_context_chars is not None and max_context_chars < 1:
        raise ValueError(f"max_context_chars must be at least 1, got {max_context_chars}")
    docs = corpus.doc_page_counts()
    for qi, q in enumerate(questions, start=1):
        if q.doc_id is not None and q.doc_id not in docs:
            raise ParseError(
                f"question {qi}: doc_id {q.doc_id!r} names no document in the corpus")
    if not use_retrieval:  # the naive baseline: the same context for every question
        joined = "\n\n".join(p.normalized_text for p in corpus.pages
                             if p.normalized_text)[:max_context_chars]
        baseline_contexts = [joined] if joined else []

    def answer(qi: int, q: QuestionRecord) -> dict:
        retrieved, embedded = [], True
        if use_retrieval:
            try:
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
            except (TransportError, ContractError):  # the query embedding failed: ask nothing
                results, embedded = [], False
            retrieved = [r.page_ref for r in results]
            contexts = [text for ref in retrieved if (text := corpus.get(*ref).normalized_text)]
        else:
            contexts = baseline_contexts

        if contexts:
            verdict = run_ensemble(build_answer_prompt(q.question, list(q.options)), contexts,
                                   make_schedule(config.schedule_count, seed=config.seed + qi),
                                   chat_client, stop=config.stop, option_texts=list(q.options))
        else:  # nothing to ground an answer on, so nothing is asked
            verdict = EnsembleVerdict(None, 0.0, {}, 0, stopped_early=False, abstained=embedded)
        return {
            "question": q.question,
            "options": list(q.options),
            "category": q.category,
            "gold_answer_index": q.answer_index,
            "predicted_index": (None if verdict.chosen_option is None
                                else OPTION_LABELS.index(verdict.chosen_option)),
            "retrieved": [[doc, idx] for doc, idx in retrieved],
            "no_context": embedded and not contexts,
            **verdict.to_record(),
            "failed": verdict.failed or not embedded,
        }

    workers = max(1, min(QUESTIONS_PER_SLOT * in_flight_limit(chat_client), len(questions)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(answer, range(len(questions)), questions))


def evaluate_verdicts(verdicts: list[dict]) -> dict:
    """Overall and per-category accuracy; abstentions count as wrong.

    A failed verdict (no successful model response) says nothing about the
    model, so it is counted under ``failed`` instead of being scored. A
    ``no_context`` verdict is the system's own miss: it is scored, as wrong,
    and also counted under ``no_context``.
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
        "no_context": sum(1 for v in verdicts if v.get("no_context")),
    }


# ---------------------------------------------------------------------------
# Commands


def _require_chat_client(config: PipelineConfig) -> GatewayClient:
    if config.endpoint is None:
        raise ConfigError("no model endpoint configured; set the endpoint section in the "
                          "config file")
    return GatewayClient(config.endpoint)


def _semantic_side(config: PipelineConfig, args) -> tuple[GatewayClient | None, str | None]:
    """The embed client and semantic index path; both None without an embedding endpoint."""
    if config.embedding is None:
        if args.semantic:
            raise ConfigError("semantic index requested but no embedding endpoint configured; set "
                              "the embedding section in the config file")
        return None, None
    return GatewayClient(config.embedding), args.semantic or SEMANTIC_PATH


def _load_indexes(config: PipelineConfig, args):
    """The lexical index, then the semantic index and embed client per `_semantic_side`."""
    embed_client, semantic_path = _semantic_side(config, args)
    lexical_index = load_lexical_index(args.lexical or LEXICAL_PATH)
    semantic_index = None if semantic_path is None else load_semantic_index(semantic_path)
    return lexical_index, semantic_index, embed_client


def _check_outputs(**paths: str | None) -> None:
    """Each given path per `output_target`, where two that are one file are a
    ConfigError; a device such as /dev/null may take several outputs."""
    seen: dict[Path, str] = {}
    for flag, path in paths.items():
        if path is None:
            continue
        target = output_target(path)
        if target in seen and (target.is_file() or not target.exists()):
            raise ConfigError(f"--{seen[target]} and --{flag} name one file: {path}")
        seen[target] = flag


def cmd_ingest(args, config: PipelineConfig) -> None:
    out = args.output or CORPUS_PATH
    _check_outputs(output=out)
    corpus = ingest_path(args.input)
    save_corpus(corpus, out)
    print(f"ingested {corpus.page_count} pages across {corpus.doc_count} documents -> {out}")


def cmd_build_index(args, config: PipelineConfig) -> None:
    embed_client, semantic_out = _semantic_side(config, args)
    lexical_out = args.lexical or LEXICAL_PATH
    _check_outputs(lexical=lexical_out, semantic=semantic_out)
    corpus = load_corpus(args.corpus or CORPUS_PATH)
    index = build_lexical_index(corpus)
    save_lexical_index(index, lexical_out)
    print(f"lexical index: {index.page_count} pages, "
          f"{index.vocabulary.size} features -> {lexical_out}")
    if embed_client is not None:
        sem_index = build_semantic_index(corpus, embed_client)
        save_semantic_index(sem_index, semantic_out)
        print(f"semantic index: {len(sem_index.page_refs)} pages, "
              f"dim {sem_index.dim} -> {semantic_out}")


def cmd_retrieve(args, config: PipelineConfig) -> None:
    lexical_index, semantic_index, embed_client = _load_indexes(config, args)
    check_indexes(lexical_index.fingerprint, lexical_index, semantic_index, embed_client)
    results = retrieve(
        args.query,
        lexical_index,
        semantic_index,
        config.weights,
        config.policy,
        client=embed_client,
        candidate_k=config.candidate_k,
    )
    if args.json:
        print(json.dumps(retrieval_record(args.query, results, config.weights, config.policy),
                         ensure_ascii=False))
    else:
        for rank, r in enumerate(results, start=1):
            doc_id, page_index = r.page_ref
            print(f"{rank}\t{doc_id}\t{page_index}\t{r.s_final:.4f}")


def cmd_augment(args, config: PipelineConfig) -> None:
    client = _require_chat_client(config)
    _check_outputs(output=args.output, audit=args.audit)
    result = augment(
        load_corpus(args.corpus or CORPUS_PATH),
        client,
        quota=args.quota,
        thresholds=config.thresholds,
        seed=config.seed,
        feasibility_check=not args.no_feasibility,
    )
    write_records(args.output, (c.to_record() for c in result.accepted))
    if args.audit:
        write_records(args.audit, result.audit)
    print(json.dumps(result.summary(), ensure_ascii=False))


def cmd_infer(args, config: PipelineConfig) -> None:
    if args.no_retrieval:
        for flag in ("lexical", "semantic"):
            if getattr(args, flag):
                raise ConfigError(f"--no-retrieval takes no --{flag}: "
                                  "the baseline reads no index and embeds nothing")
    elif args.max_context_chars is not None:
        raise ConfigError("--max-context-chars needs --no-retrieval: it truncates only the "
                          "baseline's context, and retrieval selects its own pages")
    chat_client = _require_chat_client(config)
    _check_outputs(output=args.output)
    questions = read_questions_jsonl(args.questions)
    corpus = load_corpus(args.corpus or CORPUS_PATH)
    lexical_index = semantic_index = embed_client = None
    if not args.no_retrieval:
        lexical_index, semantic_index, embed_client = _load_indexes(config, args)
    verdicts = answer_questions(
        questions,
        corpus,
        chat_client,
        config,
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
        raise TransportError(f"{failed} of {len(verdicts)} questions got no successful response")


def cmd_evaluate(args, config: PipelineConfig) -> None:
    report = evaluate_verdicts(_read_jsonl(args.verdicts, "verdict", _verdict_record))
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
        if report["no_context"]:
            print(f"no_context\t{report['no_context']} records with no context, scored as wrong")


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docqa",
        description="Hybrid-retrieval document QA engine: indexing, adaptive "
        "retrieval, QA synthesis, and ensemble inference.",
    )
    parser.add_argument("--config", help="YAML config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse raw page records into a corpus file")
    p.add_argument("--input", required=True, help="raw JSONL with doc_id/page_index/text")
    p.add_argument("--output", help=f"corpus file to write (default {CORPUS_PATH})")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build-index", help="build the lexical index (and, given an embedding "
                       "endpoint, the semantic one)")
    p.add_argument("--corpus", help=f"corpus file (default {CORPUS_PATH})")
    p.add_argument("--lexical", help=f"lexical index output path (default {LEXICAL_PATH})")
    p.add_argument("--semantic", help=f"semantic index output path (default {SEMANTIC_PATH})")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("retrieve", help="rank pages for a query by the config's retrieval section")
    p.add_argument("query")
    p.add_argument("--lexical", help=f"lexical index path (default {LEXICAL_PATH})")
    p.add_argument("--semantic", help=f"semantic index path (default {SEMANTIC_PATH})")
    p.add_argument("--json", action="store_true", help="emit one JSON record")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("augment", help="generate gated synthetic QA pairs")
    p.add_argument("--corpus", help=f"corpus file (default {CORPUS_PATH})")
    p.add_argument("--quota", type=int, required=True, help="generation attempts")
    p.add_argument("--output", required=True, help="accepted QA JSONL path")
    p.add_argument("--audit", help="rejection audit JSONL path")
    p.add_argument("--no-feasibility", action="store_true",
                   help="skip the feasibility round-trip")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("infer", help="answer multiple-choice questions")
    p.add_argument("--questions", required=True, help="question JSONL path")
    p.add_argument("--output", required=True, help="verdict JSONL path")
    p.add_argument("--corpus", help=f"corpus file (default {CORPUS_PATH})")
    p.add_argument("--lexical", help=f"lexical index path (default {LEXICAL_PATH})")
    p.add_argument("--semantic", help=f"semantic index path (default {SEMANTIC_PATH})")
    p.add_argument("--no-retrieval", action="store_true",
                   help="use the raw corpus as context instead of retrieval")
    p.add_argument("--max-context-chars", type=int,
                   help="truncate no-retrieval context to this many chars")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("evaluate", help="score verdicts against gold answers")
    p.add_argument("--verdicts", required=True, help="verdict JSONL from infer")
    p.add_argument("--json", action="store_true", help="emit one JSON report")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(args.config)
        args.func(args, config)  # a command fails only by raising
        return EXIT_OK
    except ConfigError as exc:
        code, label, error = EXIT_CONFIG, "config error", exc
    except (FormatError, OSError) as exc:
        code, label, error = EXIT_IO, "i/o error", exc
    except TransportError as exc:
        code, label, error = EXIT_TRANSPORT, "endpoint error", exc
    except (ParseError, IntegrityError, ContractError, ValueError) as exc:
        code, label, error = EXIT_VALIDATION, "validation error", exc
    # one line, however many line breaks a message or a value quoted in it holds
    print(f"{label}: " + "\\n".join(str(error).splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
