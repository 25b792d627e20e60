"""Command-line tests: every subcommand end to end plus the exit-code map.

These drive main(argv) directly against temp files and the in-process
mock endpoint, so they cover argument wiring, config loading, and the
printed output; one test spawns a subprocess, to run the module entry point.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from docqa_engine import cli
from docqa_engine.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_TRANSPORT,
    EXIT_VALIDATION,
    evaluate_verdicts,
    main,
    read_questions_jsonl,
)
from docqa_engine.config import AUTH_TOKEN_ENV, PipelineConfig, load_config
from docqa_engine.corpus import ingest, load_corpus, normalize_text, save_corpus
from docqa_engine.ensemble import MAX_SCHEDULE_COUNT
from docqa_engine.errors import (ConfigError, ContractError, EndpointError, FormatError,
                                 IntegrityError, ParseError, TransportError)
from docqa_engine.gateway import (MAX_IN_FLIGHT_CAP, MAX_RETRIES_CAP, EndpointConfig,
                                  hash_embedder)
from docqa_engine.semantic import QUERY_PREFIX, load_semantic_index
from mock_server import MockModelServer, MockReply
from test_lexical_index import V1_FILE, V2_FILE

FIN_BODY = (
    "第3四半期の業績概況。当期の売上高は 4200 百万円 に達した。"
    "営業利益は 310 百万円 で前年から大きく改善した。"
    "研究開発費は 150 百万円 と横ばいだった。"
    "従業員数は 1200 人 に増加した。"
    "年間配当金は 55 円 に引き上げられた。"
    "通期の見通しについては、需要動向と為替水準を踏まえて慎重に判断する方針である。"
    "セグメント別では国内事業が堅調に推移した一方、海外事業は為替変動の影響を受けた。"
)

HR_BODY = (
    "人事制度の改定について。新しい等級制度は来年度から適用される。"
    "研修プログラムは全従業員を対象に拡充され、受講時間は年間 40 時間 を想定する。"
    "採用計画では新卒 80 人 と中途 45 人 の採用を見込んでいる。"
    "在宅勤務制度は週 3 日 を上限として継続される。"
    "福利厚生の見直しにより、住宅手当は段階的に再編される予定である。"
)


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _endpoints(tmp_path, *, chat: str | None = None, embed: str | None = None,
               embed_model: str = "embedder", text: str = "") -> str:
    """The path of a config file holding `text`, then an `endpoint` section for
    the chat base URL `chat` and an `embedding` section for the embedding base
    URL `embed`, each when given."""
    if chat:
        text += f"endpoint:\n  base_url: {chat}\n  model_name: mock-model\n"
    if embed:
        text += f"embedding:\n  base_url: {embed}\n  model_name: {embed_model}\n"
    path = tmp_path / "endpoints.yaml"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def raw_pages(tmp_path):
    path = tmp_path / "raw.jsonl"
    records = [{"doc_id": "fin", "page_index": 0, "text": "表紙 2023年度 決算説明資料"}]
    records += [{"doc_id": "fin", "page_index": i, "text": FIN_BODY} for i in (1, 2, 3)]
    records += [{"doc_id": "hr", "page_index": 0, "text": "表紙 人事資料"}]
    records += [{"doc_id": "hr", "page_index": i, "text": HR_BODY} for i in (1, 2)]
    _write_jsonl(path, records)
    return path


@pytest.fixture()
def other_artifacts(tmp_path):
    """Corpus and lexical index of another corpus: fin runs to page 4, hr is absent."""
    raw = tmp_path / "other_raw.jsonl"
    _write_jsonl(raw, [{"doc_id": "fin", "page_index": i, "text": FIN_BODY} for i in range(5)])
    corpus = tmp_path / "other_corpus.jsonl"
    lexical = tmp_path / "other_lexical.idx"
    assert main(["ingest", "--input", str(raw), "--output", str(corpus)]) == EXIT_OK
    assert main(["build-index", "--corpus", str(corpus), "--lexical", str(lexical)]) == EXIT_OK
    return {"corpus": corpus, "lexical": lexical}


@pytest.fixture()
def artifacts(tmp_path, raw_pages):
    """Ingested corpus plus lexical index, built through the CLI itself."""
    corpus = tmp_path / "corpus.jsonl"
    lexical = tmp_path / "lexical.idx"
    assert main(["ingest", "--input", str(raw_pages), "--output", str(corpus)]) == EXIT_OK
    assert main(["build-index", "--corpus", str(corpus), "--lexical", str(lexical)]) == EXIT_OK
    return {"corpus": corpus, "lexical": lexical}


class TestIngest:
    def test_reports_counts(self, tmp_path, raw_pages, capsys):
        out = tmp_path / "corpus.jsonl"
        assert main(["ingest", "--input", str(raw_pages), "--output", str(out)]) == EXIT_OK
        assert out.exists()
        assert "ingested 7 pages across 2 documents" in capsys.readouterr().out

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code = main(["ingest", "--input", str(tmp_path / "nope.jsonl"),
                     "--output", str(tmp_path / "c.jsonl")])
        assert code == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_output_in_a_missing_directory_is_io_error_naming_it(self, tmp_path, raw_pages, capsys):
        out = tmp_path / "missing" / "corpus.jsonl"
        assert main(["ingest", "--input", str(raw_pages), "--output", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == f"i/o error: [Errno 2] No such file or directory: '{out}'\n"

    def test_corrupt_record_is_validation_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        raw.write_text('{"doc_id": "d"}\n', encoding="utf-8")
        code = main(["ingest", "--input", str(raw), "--output", str(tmp_path / "c")])
        assert code == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err

    def test_duplicate_page_is_validation_error(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        _write_jsonl(raw, [
            {"doc_id": "d", "page_index": 0, "text": "a"},
            {"doc_id": "d", "page_index": 0, "text": "b"},
        ])
        assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "c")]) \
            == EXIT_VALIDATION


@pytest.mark.parametrize("command, flag, records", [
    ("ingest", "--input", [{"doc_id": "d", "page_index": i, "text": "本文"} for i in (0, 1)]),
    ("infer", "--questions", [{"question": "本文", "options": ["a", "b"]}] * 2),
    ("evaluate", "--verdicts", [{"gold_answer_index": 0, "predicted_index": 0,
                                 "category": "本文"}] * 2),
])
def test_undecodable_input_line_is_named(tmp_path, capsys, command, flag, records):
    # "本" cut to its first two bytes on line 2: the byte offset of a decoder
    # buffer says nothing of where in the file the bad bytes are
    path = tmp_path / "input.jsonl"
    _write_jsonl(path, records)
    first, second = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(first + second.replace("本".encode("utf-8"), b"\xe6\x9c", 1))
    output = [] if command == "evaluate" else ["--output", str(tmp_path / "out.jsonl")]
    config = ["--config", _endpoints(tmp_path, chat="http://x/v1")] if command == "infer" else []
    code = main([*config, command, flag, str(path), *output])
    assert code == EXIT_VALIDATION
    assert "validation error: line 2: invalid UTF-8" in capsys.readouterr().err


def test_lone_surrogate_in_ingest_input_leaves_output_untouched(tmp_path, capsys):
    # UTF-8 cannot hold "\ud800", so the corpus file could not be written whole
    raw = tmp_path / "raw.jsonl"
    raw.write_text('{"doc_id": "d", "page_index": 0, "text": "x"}\n'
                   '{"doc_id": "d", "page_index": 1, "text": "a\\ud800b"}\n', encoding="utf-8")
    output = tmp_path / "corpus.jsonl"
    output.write_bytes(b"an earlier corpus\n")
    assert main(["ingest", "--input", str(raw), "--output", str(output)]) == EXIT_VALIDATION
    assert re.search(r"validation error: line 2: .*surrogate", capsys.readouterr().err)
    assert output.read_bytes() == b"an earlier corpus\n"


class TestBuildIndex:
    def test_lexical_summary_line(self, tmp_path, raw_pages, capsys):
        corpus = tmp_path / "corpus.jsonl"
        main(["ingest", "--input", str(raw_pages), "--output", str(corpus)])
        capsys.readouterr()
        lexical = tmp_path / "lexical.idx"
        assert main(["build-index", "--corpus", str(corpus),
                     "--lexical", str(lexical)]) == EXIT_OK
        out = capsys.readouterr().out
        assert re.search(r"lexical index: 7 pages, \d+ features", out)
        assert lexical.exists()

    def test_version_1_corpus_names_the_fix(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"format": "corpus", "version": 1, "page_count": 1}\n'
            '{"doc_id": "d", "page_index": 0, "raw_text": "x", "normalized_text": "x", '
            '"char_count": 1, "numeric_token_count": 0}\n', encoding="utf-8")
        code = main(["build-index", "--corpus", str(corpus),
                     "--lexical", str(tmp_path / "lexical.idx")])
        assert code == EXIT_IO
        assert ("i/o error: unsupported corpus version 1: re-run `docqa ingest`"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("version, message", [
        (2, "unsupported corpus version 2: re-run `docqa ingest`"),
        (3, "unexpected keyword argument 'normalized_text'"),  # Python words the rest
    ], ids=["version_2", "stored_normalized_text"])
    def test_corpus_storing_normalized_text_is_io_error(self, tmp_path, capsys, version,
                                                        message):
        # a page's normalized text is derived from its raw text, never read from the file
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            f'{{"format": "corpus", "version": {version}, "page_count": 1}}\n'
            '{"doc_id": "d", "page_index": 0, "raw_text": "x", "normalized_text": "x"}\n',
            encoding="utf-8")
        code = main(["build-index", "--corpus", str(corpus),
                     "--lexical", str(tmp_path / "lexical.idx")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.endswith(f"{message}\n")
        assert len(err.splitlines()) == 1

    def test_semantic_build_via_flags(self, tmp_path, artifacts, capsys):
        semantic = tmp_path / "semantic.idx"
        with MockModelServer(dim=32) as server:
            code = main([
                "--config", _endpoints(tmp_path, embed=server.base_url),
                "build-index",
                "--corpus", str(artifacts["corpus"]),
                "--lexical", str(tmp_path / "lex2.idx"),
                "--semantic", str(semantic),
            ])
        assert code == EXIT_OK
        assert semantic.exists()
        assert "semantic index: 7 pages, dim 32" in capsys.readouterr().out

    def test_scalar_embedding_is_validation_error(self, tmp_path, artifacts, capsys):
        with MockModelServer(embed=lambda texts: [5 for _ in texts]) as server:
            code = main([
                "--config", _endpoints(tmp_path, embed=server.base_url),
                "build-index", "--corpus", str(artifacts["corpus"]),
                "--lexical", str(tmp_path / "lex4.idx"), "--semantic", str(tmp_path / "sem.idx"),
            ])
        assert code == EXIT_VALIDATION
        assert "not a list of numbers" in capsys.readouterr().err

    def test_bool_embedding_component_is_validation_error(self, tmp_path, artifacts, capsys):
        # JSON true is not a number, even beside numbers that numpy would promote it to
        with MockModelServer(embed=lambda texts: [[True] + [1.0] * 1023 for _ in texts]) as server:
            code = main([
                "--config", _endpoints(tmp_path, embed=server.base_url),
                "build-index", "--corpus", str(artifacts["corpus"]),
                "--lexical", str(tmp_path / "lex7.idx"), "--semantic", str(tmp_path / "sem.idx"),
            ])
        assert code == EXIT_VALIDATION
        assert "not a list of numbers" in capsys.readouterr().err

    def test_semantic_without_endpoint_is_config_error(self, tmp_path, artifacts, capsys):
        code = main([
            "build-index",
            "--corpus", str(artifacts["corpus"]),
            "--lexical", str(tmp_path / "lex3.idx"),
            "--semantic", str(tmp_path / "sem.idx"),
        ])
        assert code == EXIT_CONFIG
        assert "no embedding endpoint" in capsys.readouterr().err

    def test_empty_embedding_section_exits_2_and_writes_no_index(self, tmp_path, artifacts,
                                                                  monkeypatch, capsys):
        # a present section is an endpoint or an error, never a lexical-only run
        run = tmp_path / "run"
        run.mkdir()
        monkeypatch.chdir(run)
        (run / "config.yaml").write_text("embedding: {}\n", encoding="utf-8")
        code = main(["--config", "config.yaml", "build-index",
                     "--corpus", str(artifacts["corpus"]), "--lexical", "lex.idx"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG, captured.err
        assert captured.err == ("config error: config section 'embedding' needs both "
                                "base_url and model_name\n")
        assert captured.out == ""
        assert [p.name for p in run.iterdir()] == ["config.yaml"]

    def test_config_embedding_endpoint_builds_the_semantic_index(self, tmp_path, artifacts,
                                                                  monkeypatch, capsys):
        # an endpoint alone turns the semantic side on, written to its default path
        monkeypatch.chdir(tmp_path)
        with MockModelServer(dim=32) as server:
            code = main(["--config", _endpoints(tmp_path, embed=server.base_url),
                         "build-index", "--corpus", str(artifacts["corpus"]),
                         "--lexical", str(tmp_path / "lex8.idx")])
        assert code == EXIT_OK
        assert "semantic index: 7 pages, dim 32 -> semantic.idx" in capsys.readouterr().out
        assert load_semantic_index(tmp_path / "semantic.idx").model == "embedder"

    def test_unreachable_embed_endpoint_is_transport_error(self, tmp_path, artifacts):
        config = tmp_path / "config.yaml"
        config.write_text(
            "embedding:\n"
            "  base_url: http://127.0.0.1:1/v1\n"
            "  model_name: m\n"
            "  timeout: 0.3\n"
            "  max_retries: 0\n"
            "  backoff_base: 0.001\n",
            encoding="utf-8",
        )
        code = main([
            "--config", str(config),
            "build-index",
            "--corpus", str(artifacts["corpus"]),
            "--lexical", str(tmp_path / "lex4.idx"),
            "--semantic", str(tmp_path / "sem.idx"),
        ])
        assert code == EXIT_TRANSPORT

    def test_missing_corpus_is_io_error(self, tmp_path):
        assert main(["build-index", "--corpus", str(tmp_path / "nope"),
                     "--lexical", str(tmp_path / "l.idx")]) == EXIT_IO

    @pytest.mark.parametrize("field, value", [("page_index", "1"), ("raw_text", 7)])
    def test_mistyped_corpus_record_is_io_error(self, tmp_path, artifacts, field, value, capsys):
        lines = artifacts["corpus"].read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        record[field] = value
        lines[2] = json.dumps(record, ensure_ascii=False)
        corpus = tmp_path / "mistyped.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["build-index", "--corpus", str(corpus), "--lexical", str(tmp_path / "l.idx")])
        assert code == EXIT_IO
        assert f"corrupt corpus file: line 3: bad page record: {field} must be" \
            in capsys.readouterr().err

    def test_corpus_record_with_an_unconvertible_integer_is_io_error(self, tmp_path, artifacts,
                                                                     capsys):
        lines = artifacts["corpus"].read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace('"page_index": 1', '"page_index": ' + "1" * 5000)
        corpus = tmp_path / "huge.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["build-index", "--corpus", str(corpus), "--lexical", str(tmp_path / "l.idx")])
        err = capsys.readouterr().err
        assert code == EXIT_IO, err
        assert err.startswith("i/o error: corrupt corpus file: line 3: invalid JSON: ")
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("page_index", [2, 0], ids=["gap", "duplicate"])
    def test_page_set_a_corpus_cannot_have_is_io_error(self, tmp_path, artifacts, page_index,
                                                       capsys):
        # line 3 holds fin's page 1: as page 2 it leaves a gap, as page 0 a duplicate
        lines = artifacts["corpus"].read_text(encoding="utf-8").splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "page_index": page_index},
                              ensure_ascii=False)
        corpus = tmp_path / "hostile.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["build-index", "--corpus", str(corpus), "--lexical", str(tmp_path / "l.idx")])
        assert code == EXIT_IO
        assert "i/o error: corrupt corpus file: " in capsys.readouterr().err
        assert not (tmp_path / "l.idx").exists()


class TestRetrieve:
    def test_rank_lines(self, artifacts, capsys):
        code = main(["retrieve", "当期の売上高 4200 百万円",
                     "--lexical", str(artifacts["lexical"])])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert 3 <= len(lines) <= 7  # default adaptive bounds
        rank, doc, page, score = lines[0].split("\t")
        assert (rank, doc) == ("1", "fin")
        assert 0.0 <= float(score) <= 1.0

    def test_config_policy(self, tmp_path, artifacts, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("retrieval:\n  top_m: 1\n  top_n: 1\n  threshold: 0.9\n",
                          encoding="utf-8")
        code = main(["--config", str(config), "retrieve", "売上高",
                     "--lexical", str(artifacts["lexical"])])
        assert code == EXIT_OK
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_json_record(self, tmp_path, artifacts, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("retrieval:\n  alpha: 1.0\n  beta: 0.0\n", encoding="utf-8")
        code = main(["--config", str(config), "retrieve", "売上高",
                     "--lexical", str(artifacts["lexical"]), "--json"])
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["query"] == "売上高"
        assert record["weights"] == {"alpha": 1.0, "beta": 0.0}
        assert record["results"]
        assert all(r["s_semantic"] == 0.0 for r in record["results"])

    def test_hybrid_with_semantic_index(self, tmp_path, artifacts, capsys):
        semantic = tmp_path / "semantic.idx"
        with MockModelServer(dim=32) as server:
            config = _endpoints(tmp_path, embed=server.base_url)
            main([
                "--config", config,
                "build-index", "--corpus", str(artifacts["corpus"]),
                "--lexical", str(tmp_path / "lex5.idx"), "--semantic", str(semantic),
            ])
            capsys.readouterr()
            code = main([
                "--config", config,
                "retrieve", "売上高はいくらか", "--json",
                "--lexical", str(artifacts["lexical"]), "--semantic", str(semantic),
            ])
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert any(r["s_semantic"] > 0.0 for r in record["results"])

    def test_invalid_alpha_is_config_error(self, tmp_path, artifacts, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("retrieval:\n  alpha: 1.5\n  beta: -0.5\n", encoding="utf-8")
        code = main(["--config", str(config), "retrieve", "q",
                     "--lexical", str(artifacts["lexical"])])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_non_finite_weights_are_config_error(self, tmp_path, artifacts, capsys):
        # accepted, NaN weights would print a bare NaN, which is not JSON, and exit 0
        config = tmp_path / "config.yaml"
        config.write_text("retrieval:\n  alpha: .nan\n  beta: .nan\n", encoding="utf-8")
        code = main(["--config", str(config), "retrieve", "売上高", "--json",
                     "--lexical", str(artifacts["lexical"])])
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("config error: config key retrieval.alpha must be a finite number, "
                       "got nan\n")

    @pytest.mark.parametrize("argv", [
        ["retrieve", "q", "--alpha", "0.5"],
        ["retrieve", "q", "--min-pages", "1"],
        ["retrieve", "q", "--max-pages", "1"],
        ["retrieve", "q", "--threshold", "0.5"],
        ["build-index", "--max-features", "10"],
        ["build-index", "--ngram-min", "1"],
        ["build-index", "--ngram-max", "3"],
    ], ids=lambda argv: argv[-2])
    def test_retrieval_and_build_settings_come_only_from_the_config(self, tmp_path,
                                                                   monkeypatch, argv, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_missing_index_is_io_error(self, tmp_path):
        assert main(["retrieve", "q", "--lexical", str(tmp_path / "none.idx")]) == EXIT_IO

    def test_undecodable_lexical_feature_is_io_error(self, tmp_path, artifacts, capsys):
        data = bytearray(artifacts["lexical"].read_bytes())
        data[72] = 0xFF  # first byte of the vocabulary blob
        corrupt = tmp_path / "corrupt.idx"
        corrupt.write_bytes(bytes(data))
        assert main(["retrieve", "q", "--lexical", str(corrupt)]) == EXIT_IO
        assert "i/o error: lexical index" in capsys.readouterr().err

    def test_missing_semantic_index_is_io_error(self, tmp_path, artifacts, capsys):
        with MockModelServer(dim=32) as server:
            code = main(["--config", _endpoints(tmp_path, embed=server.base_url),
                         "retrieve", "売上高", "--lexical", str(artifacts["lexical"]),
                         "--semantic", str(tmp_path / "missing.idx")])
            assert server.request_log == []
        assert code == EXIT_IO
        assert "missing.idx" in capsys.readouterr().err

    def test_semantic_without_endpoint_is_config_error(self, tmp_path, artifacts, capsys):
        code = main(["retrieve", "売上高", "--lexical", str(artifacts["lexical"]),
                     "--semantic", str(tmp_path / "semantic.idx")])
        assert code == EXIT_CONFIG
        assert "no embedding endpoint" in capsys.readouterr().err

    def test_huge_semantic_header_counts_are_io_error(self, tmp_path, artifacts, capsys):
        semantic = tmp_path / "semantic.idx"
        semantic.write_bytes(b"SEMV" + struct.pack("<III32sI", 2, 0xFFFFFFFF, 0xFFFFFFFF, b"", 0))
        code = main(["--config", _endpoints(tmp_path, embed="http://127.0.0.1:9/v1"),
                     "retrieve", "q", "--lexical", str(artifacts["lexical"]),
                     "--semantic", str(semantic)])
        assert code == EXIT_IO
        assert "semantic index file truncated" in capsys.readouterr().err

    def test_semantic_index_of_another_corpus_is_io_error(self, tmp_path, artifacts,
                                                          other_artifacts, capsys):
        semantic = tmp_path / "semantic.idx"
        with MockModelServer(dim=32) as server:
            config = _endpoints(tmp_path, embed=server.base_url)
            assert main(["--config", config, "build-index",
                         "--corpus", str(other_artifacts["corpus"]),
                         "--lexical", str(tmp_path / "lex6.idx"),
                         "--semantic", str(semantic)]) == EXIT_OK
            sent = len(server.request_log)
            capsys.readouterr()
            code = main(["--config", config, "retrieve", "売上高",
                         "--lexical", str(artifacts["lexical"]), "--semantic", str(semantic)])
            assert len(server.request_log) == sent  # no query embedding was requested
        assert code == EXIT_IO
        assert "SemanticIndex lists other pages" in capsys.readouterr().err

    def test_semantic_index_of_another_model_is_io_error(self, tmp_path, artifacts, capsys):
        semantic = tmp_path / "semantic.idx"
        with MockModelServer(dim=32) as server:
            assert main(["--config", _endpoints(tmp_path, embed=server.base_url),
                         "build-index", "--corpus", str(artifacts["corpus"]),
                         "--lexical", str(tmp_path / "lex7.idx"),
                         "--semantic", str(semantic)]) == EXIT_OK
            sent = len(server.request_log)
            capsys.readouterr()
            other = _endpoints(tmp_path, embed=server.base_url, embed_model="other-embedder")
            code = main(["--config", other, "retrieve", "売上高",
                         "--lexical", str(artifacts["lexical"]), "--semantic", str(semantic)])
            assert len(server.request_log) == sent  # no query embedding was requested
        assert code == EXIT_IO
        assert ("semantic index was embedded by model 'embedder', not by 'other-embedder'"
                in capsys.readouterr().err)

    def test_version_1_semantic_index_is_io_error(self, tmp_path, artifacts, capsys):
        semantic = tmp_path / "semantic.idx"
        semantic.write_bytes(b"SEMV" + struct.pack("<IIIf", 1, 1, 1, 1.0) + struct.pack("<I", 3)
                             + b"fin" + struct.pack("<I", 0))
        code = main(["--config", _endpoints(tmp_path, embed="http://127.0.0.1:9/v1"),
                     "retrieve", "q", "--lexical", str(artifacts["lexical"]),
                     "--semantic", str(semantic)])
        assert code == EXIT_IO
        assert "unsupported semantic index version 1: rebuild it" in capsys.readouterr().err

    def test_non_finite_semantic_vector_is_io_error(self, tmp_path, artifacts, capsys):
        semantic = tmp_path / "semantic.idx"
        semantic.write_bytes(b"SEMV" + struct.pack("<III32sI", 2, 1, 1, b"", 1) + b"m"
                             + struct.pack("<f", float("nan")) + struct.pack("<I", 3) + b"fin"
                             + struct.pack("<I", 1))
        code = main(["--config", _endpoints(tmp_path, embed="http://127.0.0.1:9/v1"),
                     "retrieve", "q", "--json", "--lexical", str(artifacts["lexical"]),
                     "--semantic", str(semantic)])
        assert code == EXIT_IO
        assert "non-finite" in capsys.readouterr().err


def _augment_chat_script():
    """Chat callable for the mock server: generation blocks, echoed audits."""
    blocks = [
        "Question: 当期の売上高は次のうちどれですか、また営業利益はどちらですか。\n"
        "Options:\nA. 4200 百万円\nB. 310 百万円\nC. 150 百万円\nD. 55 円\n"
        "Answer: A\nEvidence: 当期の売上高は 4200 百万円 に達した",
        "Question: 研究開発費として報告された金額は、次のうちどれですか。\n"
        "Options:\nA. 150 百万円\nB. 310 百万円\nC. 4200 百万円\nD. 55 円\n"
        "Answer: A\nEvidence: 研究開発費は 150 百万円 と横ばいだった",
    ]
    state = {"gen": 0}

    def script(payload, index):
        content = payload["messages"][0]["content"]
        if "auditing one multiple-choice question" in content:
            m = re.search(r"^A\.\s*(.+)$", content, re.MULTILINE)
            return (
                "Reasoning: ページには該当する数値が明記されており、選択肢の値と直接照合して判断できる。\n"
                "Answerable: yes\n"
                f"Answer: {m.group(1).strip()}\n"
                "Evidence: 当期の売上高は 4200 百万円 に達した"
            )
        reply = blocks[state["gen"] % len(blocks)]
        state["gen"] += 1
        return reply

    return script


NO_ENDPOINT = ("config error: no model endpoint configured; set the endpoint section in the "
               "config file\n")


class TestAugmentCommand:
    def test_writes_accepted_and_audit(self, tmp_path, artifacts, capsys):
        output = tmp_path / "qa.jsonl"
        audit = tmp_path / "audit.jsonl"
        with MockModelServer(chat=_augment_chat_script()) as server:
            code = main([
                "--config", _endpoints(tmp_path, chat=server.base_url,
                                       text="ensemble:\n  seed: 13\n"),
                "augment", "--corpus", str(artifacts["corpus"]),
                "--quota", "2", "--output", str(output), "--audit", str(audit),
            ])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["attempts"] == 2
        assert summary["accepted"] == 2
        lines = output.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert audit.exists() and audit.read_text(encoding="utf-8") == ""

    def test_a_lone_surrogate_reply_is_audited_as_transport(self, tmp_path, artifacts, capsys):
        # generations are requested in attempt order, so request 1 is attempt 1's
        clean = _augment_chat_script()
        surrogate = MockReply(raw=b'{"choices": [{"message": {"content": "Question: \\udc80"}}]}')
        output, audit = tmp_path / "qa.jsonl", tmp_path / "audit.jsonl"
        with MockModelServer(chat=lambda payload, index:
                             surrogate if index == 1 else clean(payload, index)) as server:
            code = main(["--config", _endpoints(tmp_path, chat=server.base_url), "augment",
                         "--no-feasibility", "--corpus", str(artifacts["corpus"]), "--quota", "3",
                         "--output", str(output), "--audit", str(audit)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rejections_by_stage"] == {"transport": 1}
        (record,) = [json.loads(line) for line in audit.read_text(encoding="utf-8").splitlines()]
        assert (record["attempt"], record["stage"]) == (1, "transport")
        assert "lone surrogate" in record["reason"]
        assert len(output.read_text(encoding="utf-8").splitlines()) == 2

    def test_no_endpoint_exits_2_before_any_file_is_read(self, tmp_path, capsys):
        # the corpus does not exist, so reading it first would exit 3
        code = main(["augment", "--corpus", str(tmp_path / "missing.jsonl"),
                     "--quota", "1", "--output", str(tmp_path / "qa.jsonl")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == NO_ENDPOINT


@pytest.fixture()
def questions_file(tmp_path):
    path = tmp_path / "questions.jsonl"
    _write_jsonl(path, [
        {"question": "当期の売上高はいくらですか。", "options": ["4200 百万円", "310 百万円"],
         "answer_index": 0, "doc_id": "fin", "category": "Num"},
        {"question": "新卒採用は何人を見込んでいますか。", "options": ["80 人", "45 人"],
         "answer_index": 1, "doc_id": "hr", "category": "Fact."},
    ])
    return path


FAST_ENSEMBLE = "ensemble:\n  schedule_count: 2\n  min_responses: 1\n"


class TestInfer:
    def test_retrieval_inference_round_trip(self, tmp_path, artifacts, questions_file, capsys):
        output = tmp_path / "verdicts.jsonl"
        with MockModelServer(chat="Answer: A") as server:
            code = main([
                "--config", _endpoints(tmp_path, chat=server.base_url, text=FAST_ENSEMBLE),
                "infer", "--questions", str(questions_file), "--output", str(output),
                "--corpus", str(artifacts["corpus"]), "--lexical", str(artifacts["lexical"]),
            ])
        assert code == EXIT_OK
        assert "answered 2/2 questions" in capsys.readouterr().out
        records = [json.loads(line) for line in output.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 2
        first = records[0]
        assert first["predicted_index"] == 0
        assert first["gold_answer_index"] == 0
        assert first["category"] == "Num"
        assert first["retrieved"], "retrieval context should be recorded"
        assert all(doc == "fin" for doc, _ in first["retrieved"])
        assert all(doc == "hr" for doc, _ in records[1]["retrieved"])
        assert first["chosen_option"] == "A"
        assert first["stopped_early"] is True  # unanimous pair of configs

    def test_no_retrieval_baseline(self, tmp_path, artifacts, questions_file):
        output = tmp_path / "verdicts.jsonl"
        with MockModelServer(chat="Answer: B") as server:
            code = main([
                "--config", _endpoints(tmp_path, chat=server.base_url, text=FAST_ENSEMBLE),
                "infer", "--questions", str(questions_file), "--output", str(output),
                "--corpus", str(artifacts["corpus"]),
                "--no-retrieval", "--max-context-chars", "120",
            ])
        assert code == EXIT_OK
        records = [json.loads(line) for line in output.read_text(encoding="utf-8").splitlines()]
        assert all(r["retrieved"] == [] for r in records)
        assert all(r["predicted_index"] == 1 for r in records)

    @pytest.mark.parametrize("chars", ["0", "-5"])
    def test_max_context_chars_below_one_is_validation_error(self, tmp_path, artifacts,
                                                            questions_file, chars, capsys):
        with MockModelServer(chat="Answer: A") as server:
            code = main([
                "--config", _endpoints(tmp_path, chat=server.base_url),
                "infer", "--questions", str(questions_file), "--output", str(tmp_path / "v.jsonl"),
                "--corpus", str(artifacts["corpus"]),
                "--no-retrieval", "--max-context-chars", chars,
            ])
            assert server.request_log == []
        assert code == EXIT_VALIDATION
        assert "max_context_chars" in capsys.readouterr().err

    def test_lone_surrogate_question_sends_no_request(self, tmp_path, artifacts, capsys):
        questions = tmp_path / "q.jsonl"
        questions.write_text('{"question": "売上高は", "options": ["a", "b"]}\n'
                             '{"question": "\\udc00", "options": ["a", "b"]}\n',
                             encoding="utf-8")
        with MockModelServer(chat="Answer: A") as server:
            code = main([
                "--config", _endpoints(tmp_path, chat=server.base_url),
                "infer", "--questions", str(questions), "--output", str(tmp_path / "v.jsonl"),
                "--corpus", str(artifacts["corpus"]), "--lexical", str(artifacts["lexical"]),
            ])
            assert server.request_log == []
        assert code == EXIT_VALIDATION
        assert re.search(r"validation error: line 2: .*surrogate", capsys.readouterr().err)

    def test_unknown_doc_id_is_validation_error(self, tmp_path, artifacts, capsys):
        questions = tmp_path / "q.jsonl"
        _write_jsonl(questions, [{"question": "売上高は", "options": ["a", "b"],
                                  "doc_id": "nope"}])
        with MockModelServer(chat="Answer: A") as server:
            code = main([
                "--config", _endpoints(tmp_path, chat=server.base_url),
                "infer", "--questions", str(questions), "--output", str(tmp_path / "v.jsonl"),
                "--corpus", str(artifacts["corpus"]), "--lexical", str(artifacts["lexical"]),
            ])
            assert server.request_log == []
        assert code == EXIT_VALIDATION
        assert "doc_id 'nope' names no document" in capsys.readouterr().err

    def test_lexical_index_of_another_corpus_is_io_error(self, tmp_path, artifacts,
                                                         other_artifacts, questions_file,
                                                         capsys):
        with MockModelServer(chat="Answer: A") as server:
            code = main([
                "--config", _endpoints(tmp_path, chat=server.base_url),
                "infer", "--questions", str(questions_file), "--output", str(tmp_path / "v.jsonl"),
                "--corpus", str(artifacts["corpus"]), "--lexical", str(other_artifacts["lexical"]),
            ])
            assert server.request_log == []
        assert code == EXIT_IO
        assert "LexicalIndex lists other pages" in capsys.readouterr().err

    def test_version_1_lexical_index_is_io_error(self, tmp_path, artifacts, questions_file,
                                                 capsys):
        v1 = tmp_path / "v1.idx"
        v1.write_bytes(V1_FILE)
        with MockModelServer(chat="Answer: A") as server:
            code = main([
                "--config", _endpoints(tmp_path, chat=server.base_url),
                "infer", "--questions", str(questions_file), "--output", str(tmp_path / "v.jsonl"),
                "--corpus", str(artifacts["corpus"]), "--lexical", str(v1),
            ])
            assert server.request_log == []
        assert code == EXIT_IO
        assert "unsupported lexical index version 1: rebuild it" in capsys.readouterr().err

    def test_version_2_lexical_index_is_io_error(self, tmp_path, artifacts, questions_file,
                                                 capsys):
        v2 = tmp_path / "v2.idx"
        v2.write_bytes(V2_FILE)
        with MockModelServer(chat="Answer: A") as server:
            code = main([
                "--config", _endpoints(tmp_path, chat=server.base_url),
                "infer", "--questions", str(questions_file), "--output", str(tmp_path / "v.jsonl"),
                "--corpus", str(artifacts["corpus"]), "--lexical", str(v2),
            ])
            assert server.request_log == []
        assert code == EXIT_IO
        assert "unsupported lexical index version 2: rebuild it" in capsys.readouterr().err

    def test_lexical_index_of_the_same_refs_with_other_texts_is_io_error(
            self, tmp_path, raw_pages, artifacts, questions_file, capsys):
        # the index's corpus with two pages' texts swapped under the same refs
        records = [json.loads(line) for line in raw_pages.read_text(encoding="utf-8").splitlines()]
        records[0]["text"], records[1]["text"] = records[1]["text"], records[0]["text"]
        swapped_raw, swapped = tmp_path / "swapped_raw.jsonl", tmp_path / "swapped.jsonl"
        _write_jsonl(swapped_raw, records)
        assert main(["ingest", "--input", str(swapped_raw), "--output", str(swapped)]) == EXIT_OK
        capsys.readouterr()
        with MockModelServer(chat="Answer: A") as server:
            code = main([
                "--config", _endpoints(tmp_path, chat=server.base_url),
                "infer", "--questions", str(questions_file), "--output", str(tmp_path / "v.jsonl"),
                "--corpus", str(swapped), "--lexical", str(artifacts["lexical"]),
            ])
            assert server.request_log == []
        assert code == EXIT_IO
        assert "LexicalIndex lists other pages" in capsys.readouterr().err

    def test_missing_default_semantic_index_is_io_error(self, tmp_path, artifacts,
                                                        questions_file, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # which holds no semantic.idx
        with MockModelServer(chat="Answer: A", dim=32) as server:
            code = main([
                "--config", _endpoints(tmp_path, chat=server.base_url, embed=server.base_url),
                "infer", "--questions", str(questions_file), "--output", str(tmp_path / "v.jsonl"),
                "--corpus", str(artifacts["corpus"]), "--lexical", str(artifacts["lexical"]),
            ])
            assert server.request_log == []
        assert code == EXIT_IO
        assert "semantic.idx" in capsys.readouterr().err

    def test_every_verdict_is_written_then_an_all_failed_ensemble_exits_4(
            self, tmp_path, artifacts, questions_file, capsys):
        # the "fin" question is answered; every request for the "hr" one fails
        def reply(payload, index):
            if "新卒採用" in payload["messages"][0]["content"]:
                return MockReply(status=503)
            return "Answer: A"

        output = tmp_path / "verdicts.jsonl"
        with MockModelServer(chat=reply) as server:
            config = tmp_path / "failing.yaml"
            config.write_text("ensemble:\n  schedule_count: 2\n  min_responses: 1\n"
                              f"endpoint:\n  base_url: {server.base_url}\n"
                              "  model_name: mock-model\n  max_retries: 0\n", encoding="utf-8")
            code = main([
                "--config", str(config),
                "infer", "--questions", str(questions_file), "--output", str(output),
                "--corpus", str(artifacts["corpus"]), "--lexical", str(artifacts["lexical"]),
            ])
        assert code == EXIT_TRANSPORT
        assert "1 of 2 questions got no successful response" in capsys.readouterr().err
        first, second = [json.loads(line)
                         for line in output.read_text(encoding="utf-8").splitlines()]
        assert (first["chosen_option"], first["failed"], first["failed_responses"]) == (
            "A", False, 0)
        assert (second["chosen_option"], second["failed"], second["abstained"]) == (
            None, True, False)
        assert second["failed_responses"] == second["responses_used"] == 2

    def test_a_failed_query_embedding_fails_its_question_alone(self, tmp_path, artifacts,
                                                               questions_file, capsys):
        # the "hr" question's query embedding fails; the "fin" one is answered
        embedder = hash_embedder(32)

        def embed(texts):
            if any(t.startswith(QUERY_PREFIX) and "新卒採用" in t for t in texts):
                return MockReply(status=503)
            return embedder(texts)

        output, semantic = tmp_path / "verdicts.jsonl", tmp_path / "semantic.idx"
        with MockModelServer(chat="Answer: A", embed=embed) as server:
            config = tmp_path / "config.yaml"
            config.write_text("ensemble:\n  schedule_count: 2\n  min_responses: 1\n"
                              f"endpoint:\n  base_url: {server.base_url}\n"
                              "  model_name: mock-model\n  max_retries: 0\n"
                              f"embedding:\n  base_url: {server.base_url}\n"
                              "  model_name: embedder\n  max_retries: 0\n",
                              encoding="utf-8")
            assert main(["--config", str(config), "build-index", "--corpus", str(artifacts["corpus"]),
                         "--lexical", str(tmp_path / "lex.idx"), "--semantic", str(semantic)]) == EXIT_OK
            server.request_log.clear()
            code = main([
                "--config", str(config),
                "infer", "--questions", str(questions_file), "--output", str(output),
                "--corpus", str(artifacts["corpus"]), "--lexical", str(tmp_path / "lex.idx"),
                "--semantic", str(semantic),
            ])
            asked = [r["payload"]["messages"][-1]["content"] for r in server.request_log
                     if r["kind"] == "chat"]
        assert code == EXIT_TRANSPORT
        assert "1 of 2 questions got no successful response" in capsys.readouterr().err
        first, second = [json.loads(line)
                         for line in output.read_text(encoding="utf-8").splitlines()]
        assert (first["chosen_option"], first["failed"], first["retrieved"] != []) == ("A", False, True)
        assert asked and not any("新卒採用" in content for content in asked)
        assert {key: second[key] for key in ("chosen_option", "retrieved", "responses_used",
                                             "failed", "abstained", "no_context")} == {
            "chosen_option": None, "retrieved": [], "responses_used": 0, "failed": True,
            "abstained": False, "no_context": False}

    @pytest.mark.parametrize("flags", [
        ["--lexical", "index.idx"],
        ["--semantic", "semantic.idx"],
    ], ids=["lexical", "semantic"])
    def test_no_retrieval_rejects_retrieval_flags(self, tmp_path, artifacts, questions_file,
                                                  flags, capsys):
        with MockModelServer(chat="Answer: A") as server:
            code = main([
                "--config", _endpoints(tmp_path, chat=server.base_url),
                "infer", "--questions", str(questions_file), "--output", str(tmp_path / "v.jsonl"),
                "--corpus", str(artifacts["corpus"]), "--no-retrieval", *flags,
            ])
            assert server.request_log == []
        assert code == EXIT_CONFIG
        assert f"--no-retrieval takes no {flags[0]}" in capsys.readouterr().err
        assert not (tmp_path / "v.jsonl").exists()

    def test_infinite_timeout_exits_2_before_any_request(self, tmp_path, artifacts, capsys):
        # the questions file does not exist, so reading any file first would exit 3;
        # accepted, an infinite timeout would die in the HTTP client on an OverflowError
        config = tmp_path / "config.yaml"
        with MockModelServer(chat="Answer: A") as server:
            config.write_text(f"endpoint:\n  base_url: {server.base_url}\n  model_name: m\n"
                              "  timeout: .inf\n", encoding="utf-8")
            code = main(["--config", str(config), "infer",
                         "--questions", str(tmp_path / "missing.jsonl"),
                         "--output", str(tmp_path / "v.jsonl"),
                         "--corpus", str(artifacts["corpus"]), "--no-retrieval"])
            assert server.request_log == []
        assert code == EXIT_CONFIG
        assert "endpoint.timeout must be a finite number, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["timeout", "backoff_base"])
    def test_seconds_past_timeout_max_exit_2_before_any_request(self, tmp_path, artifacts,
                                                                questions_file, key, capsys):
        # accepted, either would die on an OverflowError in the socket or in time.sleep
        config = tmp_path / "config.yaml"
        with MockModelServer(chat="Answer: A") as server:
            config.write_text(f"endpoint:\n  base_url: {server.base_url}\n  model_name: m\n"
                              f"  {key}: 1000000000000\n", encoding="utf-8")
            code = main(["--config", str(config), "infer", "--questions", str(questions_file),
                         "--output", str(tmp_path / "v.jsonl"),
                         "--corpus", str(artifacts["corpus"]), "--no-retrieval"])
            assert server.request_log == []
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert err.startswith(f"config error: invalid endpoint config: {key} must lie in ")
        assert len(err.splitlines()) == 1, err
        assert not (tmp_path / "v.jsonl").exists()

    @pytest.mark.parametrize("key, low, cap", [("max_in_flight", 1, MAX_IN_FLIGHT_CAP),
                                               ("max_retries", 0, MAX_RETRIES_CAP)])
    def test_count_past_its_cap_exits_2_before_any_request(self, tmp_path, artifacts,
                                                           questions_file, key, low, cap, capsys):
        # past the cap by one, so a run that accepted it would still end soon
        config = tmp_path / "config.yaml"
        with MockModelServer(chat="Answer: A") as server:
            config.write_text(f"endpoint:\n  base_url: {server.base_url}\n  model_name: m\n"
                              f"  {key}: {cap + 1}\n", encoding="utf-8")
            code = main(["--config", str(config), "infer", "--questions", str(questions_file),
                         "--output", str(tmp_path / "v.jsonl"),
                         "--corpus", str(artifacts["corpus"]), "--no-retrieval"])
            assert server.request_log == []
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert err == f"config error: invalid endpoint config: {key} must lie in [{low}, {cap}]\n"
        assert not (tmp_path / "v.jsonl").exists()

    @pytest.mark.parametrize("token", ["sec\nret", "sec\x1bret", "sec\x7fret", "sec☃ret"],
                             ids=["line_break", "escape", "delete", "past_latin_1"])
    @pytest.mark.parametrize("source", ["config", "environment"])
    def test_token_http_cannot_send_exits_2_unprinted(self, tmp_path, artifacts, questions_file,
                                                      monkeypatch, source, token, capsys):
        config = tmp_path / "config.yaml"
        with MockModelServer(chat="Answer: A") as server:
            section = f"endpoint:\n  base_url: {server.base_url}\n  model_name: m\n"
            if source == "config":
                section += f"  auth_token: {json.dumps(token)}\n"
            else:
                monkeypatch.setenv(AUTH_TOKEN_ENV, token)
            config.write_text(section, encoding="utf-8")
            code = main(["--config", str(config), "infer", "--questions", str(questions_file),
                         "--output", str(tmp_path / "v.jsonl"),
                         "--corpus", str(artifacts["corpus"]), "--no-retrieval"])
            assert server.request_log == []
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert "auth_token must hold only printable Latin-1 characters" in err
        assert "sec" not in err and "ret" not in err, err
        assert len(err.splitlines()) == 1, err

    def test_max_context_chars_with_retrieval_exits_2_before_any_file_is_read(
            self, tmp_path, artifacts, capsys):
        # the questions file does not exist, so reading any file first would exit 3
        with MockModelServer(chat="Answer: A") as server:
            code = main([
                "--config", _endpoints(tmp_path, chat=server.base_url),
                "infer", "--questions", str(tmp_path / "missing.jsonl"),
                "--output", str(tmp_path / "v.jsonl"), "--corpus", str(artifacts["corpus"]),
                "--lexical", str(artifacts["lexical"]), "--max-context-chars", "5",
            ])
            assert server.request_log == []
        assert code == EXIT_CONFIG
        assert "--max-context-chars needs --no-retrieval" in capsys.readouterr().err
        assert not (tmp_path / "v.jsonl").exists()

    def test_missing_questions_file_is_io_error(self, tmp_path, artifacts):
        assert main([
            "--config", _endpoints(tmp_path, chat="http://x/v1"),
            "infer", "--questions", str(tmp_path / "none.jsonl"),
            "--output", str(tmp_path / "v.jsonl"),
            "--corpus", str(artifacts["corpus"]), "--no-retrieval",
        ]) == EXIT_IO

    def test_empty_questions_file_is_validation_error(self, tmp_path, artifacts, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = main([
            "--config", _endpoints(tmp_path, chat="http://x/v1"),
            "infer", "--questions", str(empty), "--output", str(tmp_path / "v.jsonl"),
            "--corpus", str(artifacts["corpus"]), "--no-retrieval",
        ])
        assert code == EXIT_VALIDATION
        assert "no question records" in capsys.readouterr().err

    def test_no_endpoint_exits_2_before_any_file_is_read(self, tmp_path, capsys):
        # the questions file does not exist, so reading it first would exit 3
        assert main([
            "infer", "--questions", str(tmp_path / "missing.jsonl"),
            "--output", str(tmp_path / "v.jsonl"), "--no-retrieval",
        ]) == EXIT_CONFIG
        assert capsys.readouterr().err == NO_ENDPOINT


class TestReadQuestions:
    def test_bad_json_line_numbered(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"question": "q", "options": ["a", "b"]}\n{oops\n',
                        encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            read_questions_jsonl(path)

    def test_missing_options_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"question": "q"}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="bad question record"):
            read_questions_jsonl(path)

    @pytest.mark.parametrize(
        "record, match",
        [
            ({"question": "q", "options": ["only"]}, "1 options; a question needs 2 to 10"),
            ({"question": "q", "options": [str(i) for i in range(11)]},
             "11 options; a question needs 2 to 10"),
            ({"question": "q", "options": ["a", "b"], "answer_index": 2},
             "answer_index 2 out of range for 2 options"),
            ({"question": "q", "options": ["a", "b"], "answer_index": -1},
             "answer_index -1 out of range"),
            ({"question": "q", "options": "ab"}, "options must be a list"),
            ({"question": "q", "options": ["a", "b"], "doc_id": 7}, "doc_id must be a string"),
            ({"question": "q", "options": ["a", "b"], "category": ["Num"]},
             "category must be a string"),
            ({"question": "q", "options": ["a", "b"], "answer_index": 1.5},
             "answer_index must be an integer"),
            ({"question": "q", "options": ["a", "b"], "answer_index": 1.0},
             "answer_index must be an integer"),
            ({"question": "q", "options": ["a", "b"], "answer_index": True},
             "answer_index must be an integer"),
            ({"question": "q", "options": ["a", "b"], "answer_index": "1"},
             "answer_index must be an integer"),
            ({"question": "q", "options": ["a", None]}, "options must be strings"),
            ({"question": "q", "options": ["a", 2]}, "options must be strings"),
            ({"question": None, "options": ["a", "b"]}, "question must be a string"),
        ],
    )
    def test_unanswerable_records_rejected_with_line(self, tmp_path, record, match):
        path = tmp_path / "q.jsonl"
        _write_jsonl(path, [{"question": "ok", "options": ["a", "b"]}, record])
        with pytest.raises(ParseError, match=f"line 2: bad question record: {re.escape(match)}"):
            read_questions_jsonl(path)

    def test_coerced_answer_index_exits_with_validation(self, tmp_path, artifacts, capsys):
        path = tmp_path / "q.jsonl"
        _write_jsonl(path, [{"question": "q", "options": ["a", "b", "c"], "answer_index": "2"}])
        code = main([
            "--config", _endpoints(tmp_path, chat="http://x/v1"),
            "infer", "--questions", str(path), "--output", str(tmp_path / "v.jsonl"),
            "--corpus", str(artifacts["corpus"]), "--no-retrieval",
        ])
        assert code == EXIT_VALIDATION
        assert "line 1: bad question record: answer_index must be an integer" \
            in capsys.readouterr().err

    def test_ten_options_with_last_answer_accepted(self, tmp_path):
        path = tmp_path / "q.jsonl"
        _write_jsonl(path, [{"question": "q", "options": list("abcdefghij"),
                             "answer_index": 9}])
        (record,) = read_questions_jsonl(path)
        assert record.answer_index == 9

    def test_bad_question_file_exits_with_validation(self, tmp_path, artifacts, capsys):
        path = tmp_path / "q.jsonl"
        _write_jsonl(path, [{"question": "q", "options": ["a", "b"], "answer_index": 5}])
        code = main([
            "--config", _endpoints(tmp_path, chat="http://x/v1"),
            "infer", "--questions", str(path), "--output", str(tmp_path / "v.jsonl"),
            "--corpus", str(artifacts["corpus"]), "--no-retrieval",
        ])
        assert code == EXIT_VALIDATION
        assert "line 1: bad question record: answer_index 5" in capsys.readouterr().err

    def test_optional_fields_default(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"question": "q", "options": ["a", "b"]}\n', encoding="utf-8")
        (record,) = read_questions_jsonl(path)
        assert record.answer_index is None
        assert record.doc_id is None
        assert record.category is None


def _verdict(gold, predicted, category=None):
    return {"gold_answer_index": gold, "predicted_index": predicted,
            "category": category}


class TestEvaluate:
    def test_arithmetic(self):
        report = evaluate_verdicts([
            _verdict(0, 0, "Y/N"),
            _verdict(1, 1, "Y/N"),
            _verdict(0, 0, "Num"),
            _verdict(1, 0, "weird-tag"),
            _verdict(None, 0),
        ])
        assert report["overall"] == {"correct": 3, "total": 4, "accuracy": 0.75}
        assert report["categories"]["Y/N"]["accuracy"] == 1.0
        assert report["categories"]["Num"] == {"correct": 1, "total": 1, "accuracy": 1.0}
        assert report["categories"]["other"] == {"correct": 0, "total": 1, "accuracy": 0.0}
        assert report["unscored"] == 1

    def test_abstention_counts_as_wrong(self):
        report = evaluate_verdicts([_verdict(0, None)])
        assert report["overall"]["accuracy"] == 0.0

    def test_failed_verdicts_are_reported_apart_from_accuracy(self):
        failed = {**_verdict(1, None, "Num"), "failed": True}
        report = evaluate_verdicts([_verdict(0, 0, "Num"), failed, {**failed, "category": "Y/N"}])
        assert report["overall"] == {"correct": 1, "total": 1, "accuracy": 1.0}
        assert report["categories"] == {"Num": {"correct": 1, "total": 1, "accuracy": 1.0}}
        assert (report["failed"], report["unscored"]) == (2, 0)

    def test_failed_verdicts_in_text_output(self, tmp_path, capsys):
        path = tmp_path / "verdicts.jsonl"
        _write_jsonl(path, [_verdict(0, 0), {**_verdict(1, None), "failed": True}])
        assert main(["evaluate", "--verdicts", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "overall\t1.0000\t(1/1)" in out
        assert "failed\t1 records without a successful model response" in out

    def test_no_context_verdicts_are_scored_as_wrong_and_counted(self, tmp_path, capsys):
        path = tmp_path / "verdicts.jsonl"
        _write_jsonl(path, [_verdict(0, 0), {**_verdict(1, None), "no_context": True}])
        assert main(["evaluate", "--verdicts", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "overall\t0.5000\t(1/2)" in out
        assert "no_context\t1 records with no context, scored as wrong" in out

    def test_text_output(self, tmp_path, capsys):
        path = tmp_path / "verdicts.jsonl"
        _write_jsonl(path, [
            _verdict(0, 0, "Y/N"),
            _verdict(1, 0, "Y/N"),
            _verdict(None, 1),
        ])
        assert main(["evaluate", "--verdicts", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "overall\t0.5000\t(1/2)" in out
        assert "Y/N\t0.5000\t(1/2)" in out
        assert "unscored\t1" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "verdicts.jsonl"
        _write_jsonl(path, [_verdict(0, 0, "Num")])
        assert main(["evaluate", "--verdicts", str(path), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["overall"]["accuracy"] == 1.0

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["evaluate", "--verdicts", str(tmp_path / "none")]) == EXIT_IO

    def test_bad_line_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "verdicts.jsonl"
        path.write_text("{broken\n", encoding="utf-8")
        assert main(["evaluate", "--verdicts", str(path)]) == EXIT_VALIDATION
        assert "line 1" in capsys.readouterr().err

    def test_non_object_line_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "verdicts.jsonl"
        path.write_text(json.dumps(_verdict(0, 0)) + "\n[1]\n", encoding="utf-8")
        assert main(["evaluate", "--verdicts", str(path)]) == EXIT_VALIDATION
        assert "line 2: record is not an object" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank_lines"])
    def test_file_without_verdicts_is_validation_error(self, tmp_path, text, capsys):
        path = tmp_path / "verdicts.jsonl"
        path.write_text(text, encoding="utf-8")
        assert main(["evaluate", "--verdicts", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "no verdict records" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["gold_answer_index", "predicted_index"])
    @pytest.mark.parametrize("value", [True, False, 1.0, "1", [1]],
                             ids=["true", "false", "float", "str", "list"])
    def test_non_integer_index_is_validation_error(self, tmp_path, key, value, capsys):
        path = tmp_path / "verdicts.jsonl"
        _write_jsonl(path, [_verdict(1, 1), {**_verdict(1, 1), key: value}])
        assert main(["evaluate", "--verdicts", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"line 2: bad verdict record: {key} must be an integer or null" in err

    def test_indexes_past_the_options_are_validation_error(self, tmp_path, capsys):
        # both indexes 9 on two options would score as correct, under "other"
        path = tmp_path / "verdicts.jsonl"
        answered = {**_verdict(0, 0, "Num"), "options": ["4200 百万円", "310 百万円"]}
        _write_jsonl(path, [answered, {**answered, "gold_answer_index": 9,
                                       "predicted_index": 9, "category": ["Num"]}])
        assert main(["evaluate", "--verdicts", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("validation error: line 2: bad verdict record: ")
        assert captured.out == ""

    @pytest.mark.parametrize("edit, message", [
        ({"gold_answer_index": 2}, "gold_answer_index 2 out of range for 2 options"),
        ({"predicted_index": -1}, "predicted_index -1 out of range for 2 options"),
        ({"category": ["Num"]}, "category must be a string"),
        ({"options": "ab"}, "options must be a list"),
        ({"options": ["a", 1]}, "options must be strings"),
        ({"options": ["a"]}, "1 options; a question needs 2 to"),
    ], ids=["gold", "predicted", "category", "options_str", "option_int", "one_option"])
    def test_verdict_with_options_is_checked_as_its_question(self, tmp_path, edit, message,
                                                            capsys):
        path = tmp_path / "verdicts.jsonl"
        answered = {**_verdict(1, 0, "Y/N"), "options": ["はい", "いいえ"]}
        _write_jsonl(path, [answered, {**answered, **edit}])
        assert main(["evaluate", "--verdicts", str(path)]) == EXIT_VALIDATION
        assert f"line 2: bad verdict record: {message}" in capsys.readouterr().err

    def test_verdict_without_options_needs_a_string_category(self, tmp_path, capsys):
        path = tmp_path / "verdicts.jsonl"
        _write_jsonl(path, [_verdict(0, 0, "Num"), _verdict(0, 0, 5)])
        assert main(["evaluate", "--verdicts", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "line 2: bad verdict record: category must be a string" in captured.err
        assert captured.out == ""

    def test_verdicts_without_options_load_as_before(self, tmp_path, capsys):
        # older files carry no options, so their indexes have no range to keep to
        path = tmp_path / "verdicts.jsonl"
        _write_jsonl(path, [_verdict(9, 9, "Num")])
        assert main(["evaluate", "--verdicts", str(path)]) == EXIT_OK
        assert "overall\t1.0000\t(1/1)" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["failed", "no_context"])
    @pytest.mark.parametrize("value", ["false", 0, None], ids=["str", "int", "null"])
    def test_non_boolean_flag_is_validation_error(self, tmp_path, key, value, capsys):
        path = tmp_path / "verdicts.jsonl"
        _write_jsonl(path, [_verdict(1, 1), {**_verdict(1, 1), key: value}])
        assert main(["evaluate", "--verdicts", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"line 2: bad verdict record: {key} must be a boolean" in captured.err
        assert captured.out == ""

    def test_boolean_flags_and_absent_flags_are_read(self, tmp_path, capsys):
        # files written before no_context was recorded carry neither flag
        path = tmp_path / "verdicts.jsonl"
        _write_jsonl(path, [_verdict(1, 1),
                            {**_verdict(1, 1), "failed": False, "no_context": False},
                            {**_verdict(0, None), "failed": True, "no_context": False}])
        assert main(["evaluate", "--verdicts", str(path), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] == {"correct": 2, "total": 2, "accuracy": 1.0}
        assert (report["failed"], report["no_context"]) == (1, 0)


class TestParserAndConfig:
    def test_missing_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unreadable_config_is_config_error(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "none.yaml"),
                     "evaluate", "--verdicts", "x"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, line", [
        *[pytest.param([*command, flag, "x"], f"unrecognized arguments: {flag} x",
                       id=f"{command[0]}{flag}")
          for command in (["build-index"], ["retrieve", "q"],
                          ["augment", "--quota", "1", "--output", "qa.jsonl"],
                          ["infer", "--questions", "q.jsonl", "--output", "v.jsonl"])
          for flag in ("--endpoint-url", "--model", "--embed-url", "--embed-model", "--seed")],
        pytest.param(["--config", "paths.yaml", "evaluate", "--verdicts", "v.jsonl"],
                     "config error: unknown key(s) in config section '<top level>': paths",
                     id="paths_section"),
    ])
    def test_endpoints_and_the_seed_come_from_the_config_and_paths_from_flags(
            self, tmp_path, monkeypatch, argv, line, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "paths.yaml").write_text("paths:\n  corpus: corpus.jsonl\n", encoding="utf-8")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's exit on an unknown flag
            code = exc.code
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert err.splitlines()[-1].endswith(line), err
        assert argv[0] != "--config" or len(err.splitlines()) == 1, err

    def test_config_policy_drives_retrieve(self, tmp_path, artifacts, capsys):
        config = _endpoints(tmp_path, text="retrieval:\n  top_m: 2\n  top_n: 2\n")
        code = main(["--config", config, "retrieve", "売上高", "--json",
                     "--lexical", str(artifacts["lexical"])])
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["policy"] == {"top_m": 2, "top_n": 2, "threshold": 0.3}
        assert len(record["results"]) == 2

    @pytest.mark.parametrize("section, key, value", [
        ("retrieval", "min_pages", 2), ("retrieval", "max_pages", 2), ("embedding", "dim", 64)])
    def test_a_key_that_names_no_field_exits_2_naming_it(self, tmp_path, artifacts, section,
                                                          key, value, capsys):
        # the policy's keys are its fields' names, and the endpoint's vectors set the width
        config = _endpoints(tmp_path, text=f"{section}:\n  {key}: {value}\n")
        code = main(["--config", config, "retrieve", "売上高",
                     "--lexical", str(artifacts["lexical"])])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: unknown key(s) in config section '{section}': {key}\n")

    def test_wrong_config_type_is_config_error(self, tmp_path, artifacts, questions_file,
                                               capsys):
        config = tmp_path / "config.yaml"
        with MockModelServer(chat="Answer: A") as server:
            config.write_text(
                f"endpoint:\n  base_url: {server.base_url}\n  model_name: m\n"
                "  max_retries: 1.5\n", encoding="utf-8")
            code = main(["--config", str(config), "infer",
                         "--questions", str(questions_file), "--output", str(tmp_path / "v"),
                         "--corpus", str(artifacts["corpus"]), "--no-retrieval"])
        assert code == EXIT_CONFIG
        assert "endpoint.max_retries must be int" in capsys.readouterr().err

    def test_config_pyyaml_cannot_read_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text(f"endpoint:\n  timeout: {'9' * 5000}\n", encoding="utf-8")
        code = main(["--config", str(config), "evaluate", "--verdicts", str(tmp_path / "v")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.splitlines()) == 1, err
        assert "is not valid YAML" in err

    def test_config_that_is_not_utf8_exits_2_with_one_line(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_bytes(b"retrieval:\n  alpha: 0.6\n\xff\n")
        code = main(["--config", str(config), "evaluate", "--verdicts", str(tmp_path / "v")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config file {config} is not UTF-8: byte 24 (0xff) invalid start byte\n")

    def test_yaml_syntax_error_is_one_line_naming_where(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("retrieval: [\n", encoding="utf-8")
        code = main(["--config", str(config), "evaluate", "--verdicts", str(tmp_path / "v")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config file {config} is not valid YAML: expected the node content, "
            "but found '<stream end>' at line 2, column 1\n")

    @pytest.mark.parametrize("count, code, err", [
        (MAX_SCHEDULE_COUNT, EXIT_OK, ""),
        (MAX_SCHEDULE_COUNT + 1, EXIT_CONFIG, "config error: invalid ensemble config: "
         f"schedule_count must lie in [2, {MAX_SCHEDULE_COUNT}]\n"),
    ], ids=["at_cap", "past_cap"])
    def test_schedule_count_past_its_cap_exits_2_with_one_line(self, tmp_path, count, code, err,
                                                               capsys):
        # evaluate loads the config but builds no schedule, so neither count builds one
        config = tmp_path / "config.yaml"
        config.write_text(f"ensemble:\n  schedule_count: {count}\n", encoding="utf-8")
        verdicts = tmp_path / "verdicts.jsonl"
        _write_jsonl(verdicts, [_verdict(0, 0)])
        assert main(["--config", str(config), "evaluate", "--verdicts", str(verdicts)]) == code
        assert capsys.readouterr().err == err

    def test_unknown_key_holding_a_line_break_is_one_line(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text('retrieval:\n  "al\\npha": 0.6\n', encoding="utf-8")
        code = main(["--config", str(config), "evaluate", "--verdicts", str(tmp_path / "v")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: unknown key(s) in config section 'retrieval': al\\npha\n")

    @pytest.mark.parametrize("section, text", [
        ("endpoint", "endpoint:\n  base_url: {url}\n  model_name: m\n  backoff_base: -1\n"),
        # a floor above the ceiling, or a dedup ceiling below 0, rejects every candidate
        ("gates", "gates:\n  question_min_chars: 500\n  dedup_jaccard: -1.0\n"
                  "  support_jaccard: 7.0\nendpoint:\n  base_url: {url}\n  model_name: m\n"),
    ], ids=["negative_backoff_base", "gates_that_reject_everything"])
    def test_out_of_range_config_exits_2_before_any_request(self, tmp_path, artifacts,
                                                            section, text, capsys):
        config = tmp_path / "config.yaml"
        with MockModelServer(chat="Answer: A") as server:
            config.write_text(text.format(url=server.base_url), encoding="utf-8")
            code = main(["--config", str(config), "augment", "--no-feasibility",
                         "--corpus", str(artifacts["corpus"]), "--quota", "1",
                         "--output", str(tmp_path / "qa.jsonl")])
            assert server.request_log == []
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid {section} config: "), err
        assert len(err.splitlines()) == 1, err


class TestEndpointSections:
    """A command builds each client from its config section as the file states it."""

    SECTION = ("  base_url: http://cfg/v1\n  model_name: cfg-model\n"
               "  timeout: 7.5\n  max_retries: 5\n  max_in_flight: 8\n  backoff_base: 0.1\n")

    @pytest.fixture()
    def endpoints(self, monkeypatch):
        """The endpoint each GatewayClient is built for; building one ends the command."""
        seen = []

        def capture(endpoint):
            seen.append(endpoint)
            raise ConfigError("endpoint captured")

        monkeypatch.setattr(cli, "GatewayClient", capture)
        return seen

    @pytest.mark.parametrize("section, argv", [
        ("endpoint", ["augment", "--quota", "1", "--output", "qa.jsonl"]),
        ("embedding", ["build-index"]),
    ])
    @pytest.mark.parametrize("token, expected", [("  auth_token: s3cret\n", "s3cret"),
                                                 ("", "from-env")], ids=["file", "environment"])
    def test_every_field_reaches_the_client(self, tmp_path, monkeypatch, endpoints, section,
                                            argv, token, expected):
        # DOCQA_AUTH_TOKEN fills only a section without a token
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(AUTH_TOKEN_ENV, "from-env")
        (tmp_path / "config.yaml").write_text(f"{section}:\n{self.SECTION}{token}",
                                             encoding="utf-8")
        assert main(["--config", "config.yaml", *argv]) == EXIT_CONFIG
        assert endpoints == [EndpointConfig(
            base_url="http://cfg/v1", model_name="cfg-model", timeout=7.5, max_retries=5,
            max_in_flight=8, auth_token=expected, backoff_base=0.1)]


def test_artifact_paths_default_to_files_in_the_working_directory(tmp_path, raw_pages,
                                                                  monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["ingest", "--input", str(raw_pages)]) == EXIT_OK
    assert main(["build-index"]) == EXIT_OK
    assert main(["retrieve", "売上高"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "documents -> corpus.jsonl\n" in out and "features -> lexical.idx\n" in out
    assert "\n1\tfin\t" in out


# ---------------------------------------------------------------------------
# Every output is checked before any input is read or any request is sent: one
# that cannot be written exits 3, and two outputs that are one file exit 2


def _tree(root: Path) -> dict:
    """Each file under ``root``: its inode, mtime and bytes, which a replaced file changes."""
    return {path: (path.stat().st_ino, path.stat().st_mtime_ns, path.read_bytes())
            for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("endpoint, argv, code, err", [
    ("chat", "infer {q} --output {t}/missing/v.jsonl",
     EXIT_IO, "i/o error: [Errno 2] No such file or directory: '{t}/missing/v.jsonl'"),
    ("chat", "infer {q} --output {t}/outdir",
     EXIT_IO, "i/o error: [Errno 21] Is a directory: '{t}/outdir'"),
    ("chat", "infer {q} --output {t}/qa.jsonl/v.jsonl",
     EXIT_IO, "i/o error: [Errno 20] Not a directory: '{t}/qa.jsonl/v.jsonl'"),
    ("chat", "augment {c} --quota 5 --output {t}/missing/qa.jsonl",
     EXIT_IO, "i/o error: [Errno 2] No such file or directory: '{t}/missing/qa.jsonl'"),
    ("chat", "augment {c} --quota 5 --output {t}/qa.jsonl --audit {t}/missing/a.jsonl",
     EXIT_IO, "i/o error: [Errno 2] No such file or directory: '{t}/missing/a.jsonl'"),
    ("embed", "build-index {c} --lexical {t}/lexical.idx --semantic {t}/missing/s.idx",
     EXIT_IO, "i/o error: [Errno 2] No such file or directory: '{t}/missing/s.idx'"),
    ("none", "ingest --input {t}/bad_raw.jsonl --output {t}/missing/corpus.jsonl",
     EXIT_IO, "i/o error: [Errno 2] No such file or directory: '{t}/missing/corpus.jsonl'"),
    ("chat", "augment {c} --quota 5 --output {t}/x.jsonl --audit {t}/x.jsonl",
     EXIT_CONFIG, "config error: --output and --audit name one file: {t}/x.jsonl"),
    ("chat", "augment {c} --quota 5 --output {t}/x.jsonl --audit {t}/link.jsonl",
     EXIT_CONFIG, "config error: --output and --audit name one file: {t}/link.jsonl"),
    ("embed", "build-index {c} --lexical {t}/both.idx --semantic {t}/both.idx",
     EXIT_CONFIG, "config error: --lexical and --semantic name one file: {t}/both.idx"),
], ids=["infer_missing_dir", "infer_directory", "infer_under_a_file", "augment_missing_dir",
        "audit_missing_dir", "semantic_missing_dir", "ingest_missing_dir", "output_is_audit",
        "audit_links_to_output", "lexical_is_semantic"])
def test_outputs_are_checked_before_any_work(tmp_path, artifacts, questions_file, capsys,
                                             endpoint, argv, code, err):
    (tmp_path / "outdir").mkdir()
    (tmp_path / "qa.jsonl").write_text("an earlier QA file\n", encoding="utf-8")
    (tmp_path / "link.jsonl").symlink_to(tmp_path / "x.jsonl")  # dangling: both name x.jsonl
    # a record that reading would reject with exit 5
    (tmp_path / "bad_raw.jsonl").write_text('{"doc_id": "d"}\n', encoding="utf-8")
    with MockModelServer(chat="Answer: A") as server:
        config = _endpoints(tmp_path, chat=server.base_url if endpoint == "chat" else None,
                            embed=server.base_url if endpoint == "embed" else None)
        before = _tree(tmp_path)
        c = f"--corpus {artifacts['corpus']}"
        q = f"--questions {questions_file} {c} --lexical {artifacts['lexical']}"
        got = main(["--config", config, *argv.format(t=tmp_path, c=c, q=q).split()])
        assert server.request_log == []
    assert got == code
    assert capsys.readouterr().err == err.format(t=tmp_path) + "\n"
    assert _tree(tmp_path) == before
    assert not (tmp_path / "missing").exists()


def test_one_device_may_take_several_outputs(tmp_path, artifacts, capsys):
    # /dev/null is written in place, so it is no file that one output would overwrite
    with MockModelServer(chat=_augment_chat_script()) as server:
        code = main(["--config", _endpoints(tmp_path, chat=server.base_url), "augment",
                     "--no-feasibility", "--corpus", str(artifacts["corpus"]), "--quota", "1",
                     "--output", os.devnull, "--audit", os.devnull])
    assert code == EXIT_OK, capsys.readouterr().err


# ---------------------------------------------------------------------------
# One failure handler: main maps each class it catches to an exit code and a label,
# and prints the message on one stderr line with each line break written as \n

_CAUGHT = [  # how to raise the class with a message, exit code, label, text after the message
    (ConfigError, EXIT_CONFIG, "config error", ""),
    (FormatError, EXIT_IO, "i/o error", ""),
    (OSError, EXIT_IO, "i/o error", ""),
    (TransportError, EXIT_TRANSPORT, "endpoint error", ""),
    (functools.partial(EndpointError, status=400), EXIT_TRANSPORT, "endpoint error",
     " (status 400)"),
    (ParseError, EXIT_VALIDATION, "validation error", ""),
    (IntegrityError, EXIT_VALIDATION, "validation error", ""),
    (ContractError, EXIT_VALIDATION, "validation error", ""),
    (ValueError, EXIT_VALIDATION, "validation error", ""),
]
# every line boundary str.splitlines splits at
_LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                "\u2029"]


@settings(max_examples=300, deadline=None)
@given(caught=st.sampled_from(_CAUGHT), data=st.data(),
       lines=st.lists(st.text(st.characters(exclude_characters="".join(_LINE_BREAKS)),
                              min_size=1, max_size=6), min_size=2, max_size=5))
def test_every_caught_failure_is_its_code_and_one_labelled_stderr_line(caught, lines, data):
    make, code, label, suffix = caught
    message = lines[0] + "".join(data.draw(st.sampled_from(_LINE_BREAKS), label="break") + line
                                 for line in lines[1:])

    def command(args, config):
        raise make(message)

    err = io.StringIO()
    with mock.patch.object(cli, "cmd_evaluate", command), contextlib.redirect_stderr(err):
        assert main(["evaluate", "--verdicts", "v.jsonl"]) == code
    assert err.getvalue() == f"{label}: " + "\\n".join(lines) + f"{suffix}\n"


def test_endpoint_error_with_a_multi_line_body_is_one_line(tmp_path, artifacts, capsys):
    body = b"<html>\n<body>Bad Request</body>\n</html>\n"
    with MockModelServer(embed=lambda texts: MockReply(status=400, raw=body)) as server:
        code = main(["--config", _endpoints(tmp_path, embed=server.base_url), "build-index",
                     "--corpus", str(artifacts["corpus"]), "--lexical", str(tmp_path / "l.idx"),
                     "--semantic", str(tmp_path / "s.idx")])
    assert code == EXIT_TRANSPORT
    assert capsys.readouterr().err == (
        "endpoint error: <html>\\n<body>Bad Request</body>\\n</html>\\n (status 400)\n")


def test_module_entry_point_exits_with_mains_code(tmp_path):
    # the one test that spawns a process: `python -m docqa_engine.cli` runs sys.exit(main())
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "docqa_engine.cli", "evaluate", "--verdicts",
                          str(tmp_path / "missing.jsonl")],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == EXIT_IO, run.stderr
    assert run.stderr.startswith("i/o error: ") and len(run.stderr.splitlines()) == 1, run.stderr


# ---------------------------------------------------------------------------
# Hostile corpus files through the command line: each exits 3 with one stderr line


@functools.cache
def _saved_corpus_records() -> tuple[dict, ...]:
    pages = [("fin", i, f"第{i}期 売上高 {i}00 百万円") for i in range(3)]
    pages += [("hr", i, f"採用 {i} 人") for i in range(2)]
    corpus = ingest(json.dumps({"doc_id": doc_id, "page_index": i, "text": text},
                               ensure_ascii=False) for doc_id, i, text in pages)
    with tempfile.TemporaryDirectory() as tmp:
        save_corpus(corpus, Path(tmp) / "corpus.jsonl")
        lines = (Path(tmp) / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    return tuple(map(json.loads, lines))


def _record_bytes(record: dict) -> bytes:
    return json.dumps(record, ensure_ascii=False).encode("utf-8") + b"\n"


def _structural_offsets(records: list[dict]) -> list[int]:
    """Byte offsets of the file outside the page ids' and texts' values: a flipped bit
    there always breaks the file, where inside a value it can give another valid page."""
    offsets, start = [], 0
    for record in records:
        line = _record_bytes(record)
        values = set()
        for key in ("doc_id", "raw_text"):
            if isinstance(record.get(key), str):
                head = f'"{key}": "'.encode()
                at = line.index(head) + len(head)
                values.update(range(at, at + len(json.dumps(record[key], ensure_ascii=False)
                                                  .encode("utf-8")) - 2))
        offsets += [start + i for i in range(len(line)) if i not in values]
        start += len(line)
    return offsets


_HOSTILE_KINDS = ("cut", "flip", "not_utf8", "mistyped", "missing", "extra", "duplicate",
                  "reorder", "version_2")
# per page field, values of the wrong type or out of range
_MISTYPED = {"doc_id": [None, 7, "", ["fin"]], "page_index": [None, "0", 1.0, True, -1],
             "raw_text": [None, 7, [], {"text": "x"}]}


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_hostile_corpus_file_exits_3_with_one_line(tmp_path, capsys, data):
    records = [dict(record) for record in _saved_corpus_records()]
    kind = data.draw(st.sampled_from(_HOSTILE_KINDS), label="kind")
    page = data.draw(st.integers(1, len(records) - 1), label="page")
    if kind == "version_2":
        records[0]["version"] = 2
    elif kind == "mistyped":
        field = data.draw(st.sampled_from(sorted(_MISTYPED)), label="field")
        records[page][field] = data.draw(st.sampled_from(_MISTYPED[field]), label="value")
    elif kind == "missing":
        del records[page][data.draw(st.sampled_from(sorted(records[page])), label="field")]
    elif kind == "extra":  # a stored normalized text, as version 2 kept it, included
        field = data.draw(st.just("normalized_text") | st.text("a_\n\r\x00報", max_size=4)
                          | st.text(max_size=8), label="field")
        assume(field not in records[page])
        records[page][field] = data.draw(st.sampled_from(
            [normalize_text(records[page]["raw_text"]), 0, None]), label="value")
    elif kind == "duplicate":  # a page's copy is counted, so the page set is what fails
        at = data.draw(st.integers(0, len(records) - 1), label="record")
        if at:
            records[0]["page_count"] += 1
        records.insert(data.draw(st.integers(0, len(records)), label="to"), dict(records[at]))
    elif kind == "reorder":  # page records load in any order, but the header comes first
        records.insert(data.draw(st.integers(1, len(records) - 1), label="to"), records.pop(0))
    blob = bytearray(b"".join(map(_record_bytes, records)))
    if kind == "cut":  # losing only the final newline leaves every record whole
        del blob[data.draw(st.integers(0, len(blob) - 2), label="length"):]
    elif kind == "flip":
        at = data.draw(st.sampled_from(_structural_offsets(records)), label="offset")
        blob[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    elif kind == "not_utf8":
        at = data.draw(st.integers(0, len(blob)), label="offset")
        blob[at:at] = data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"]),
                                label="bytes")
    path = tmp_path / "hostile.jsonl"
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    code = main(["build-index", "--corpus", str(path), "--lexical", str(tmp_path / "l.idx")])
    err = capsys.readouterr().err
    assert code == EXIT_IO, err
    assert err.startswith("i/o error: ") and err.endswith("\n"), err
    assert len(err.splitlines()) == 1, err


# ---------------------------------------------------------------------------
# Hostile raw page, question and verdict files through the command line: a run exits
# 0 on a file that is still valid, else 5 with one stderr line, and infer then sends
# nothing

_FILE_RECORDS = {
    "pages": (  # each prefix of the records is a corpus of its own
        {"doc_id": "fin", "page_index": 0, "text": "年次報告書 2023"},
        {"doc_id": "fin", "page_index": 1, "text": "当期の売上高は 4200 百万円 に達した。"},
        {"doc_id": "hr", "page_index": 0, "text": "新卒採用は 80 人 を見込む。"},
    ),
    "questions": (
        {"question": "当期の売上高はいくらですか。", "options": ["4200 百万円", "310 百万円"],
         "answer_index": 0, "doc_id": "fin", "category": "Num"},
        {"question": "新卒採用は何人を見込んでいますか。", "options": ["80 人", "45 人"],
         "answer_index": 1, "doc_id": "hr", "category": "Fact."},
    ),
    "verdicts": (
        {"question": "当期の売上高はいくらですか。", "options": ["4200 百万円", "310 百万円"],
         "category": "Num", "gold_answer_index": 0, "predicted_index": 0,
         "retrieved": [["fin", 1]], "no_context": False, "chosen_option": "A",
         "confidence": 1.0, "votes": {"A": 1}, "responses_used": 1, "stopped_early": True,
         "abstained": False, "failed_responses": 0, "failed": False},
        {"question": "新卒採用は何人を見込んでいますか。", "options": ["80 人", "45 人"],
         "category": "Fact.", "gold_answer_index": 1, "predicted_index": None,
         "retrieved": [], "no_context": True, "chosen_option": None, "confidence": 0.0,
         "votes": {}, "responses_used": 0, "stopped_early": False, "abstained": True,
         "failed_responses": 0, "failed": False},
    ),
}
# written as a bare number of 5,000 digits, past what json.loads converts to an int
_HUGE_INT = "9" * 5000
# per file kind, field -> values its reader rejects
_REJECTED_VALUES = {
    "pages": {"doc_id": [None, 7, "", ["fin"]],
              "page_index": [None, "0", 1.0, True, -1, 5, _HUGE_INT],
              "text": [None, 7, [], {"text": "x"}]},
    "questions": {"question": [None, 7, ["q"]],
                  "options": [None, "ab", [], ["a"], ["a", None], list("abcdefghijk")],
                  "answer_index": [True, 1.0, "0", -1, 2, _HUGE_INT],
                  "doc_id": [7, ["fin"], "nope"], "category": [7, ["Num"]]},
    "verdicts": {"gold_answer_index": [True, 0.0, "0", [0], _HUGE_INT, -1, 2],
                 "predicted_index": [False, 1.5, "1", {}, 2],
                 "options": [None, "ab", [], ["a"], ["a", None]], "category": [7, ["Num"]],
                 "failed": ["false", 0, None], "no_context": ["true", 1, None]},
}
# per file kind, the fields a record may lack
_OPTIONAL_FIELDS = {"pages": set(), "questions": {"answer_index", "doc_id", "category"},
                    "verdicts": set(_FILE_RECORDS["verdicts"][0])}


def _hostile_file(data, kind: str) -> tuple[bytes, bool | None]:
    """A mutant of the valid file of `kind`, and whether it is still valid (None
    where the mutation can give either)."""
    records = [dict(record) for record in _FILE_RECORDS[kind]]
    mutation = data.draw(st.sampled_from(
        ["cut", "flip", "not_utf8", "mistyped", "missing", "duplicate"]), label="mutation")
    at = data.draw(st.integers(0, len(records) - 1), label="record")
    valid = True
    if mutation == "mistyped":
        field = data.draw(st.sampled_from(sorted(_REJECTED_VALUES[kind])), label="field")
        records[at][field] = data.draw(st.sampled_from(_REJECTED_VALUES[kind][field]),
                                       label="value")
        valid = False
    elif mutation == "missing":
        field = data.draw(st.sampled_from(sorted(records[at])), label="field")
        del records[at][field]
        valid = field in _OPTIONAL_FIELDS[kind]
    elif mutation == "duplicate":
        records.insert(data.draw(st.integers(0, len(records)), label="to"), dict(records[at]))
        valid = kind != "pages"  # a corpus holds each page once
    lines = [_record_bytes(record).replace(f'"{_HUGE_INT}"'.encode(), _HUGE_INT.encode())
             for record in records]
    blob = bytearray(b"".join(lines))
    if mutation == "cut":  # whole records survive only a cut at a record's end
        length = data.draw(st.integers(0, len(blob) - 1), label="length")
        valid = length > 0 and any(length in (end - 1, end)
                                   for end in itertools.accumulate(map(len, lines)))
        del blob[length:]
    elif mutation == "flip":  # a flipped bit inside a value can leave a valid record
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        blob[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        valid = None
    elif mutation == "not_utf8":
        at = data.draw(st.integers(0, len(blob)), label="offset")
        blob[at:at] = data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"]),
                                label="bytes")
        valid = False
    return bytes(blob), valid


def _check_exit(code: int, valid: bool | None, out: str, err: str) -> None:
    if valid is not None:
        assert code == (EXIT_OK if valid else EXIT_VALIDATION), err
    if code == EXIT_OK:
        assert err == ""
    else:
        assert code == EXIT_VALIDATION, err
        assert err.startswith("validation error: ") and len(err.splitlines()) == 1, err
        assert out == ""


@pytest.fixture(scope="module")
def answering_server():
    with MockModelServer(chat="Answer: A") as server:
        yield server


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_hostile_question_file_exits_0_or_5_with_one_line(tmp_path, capsys, artifacts,
                                                          answering_server, data):
    blob, valid = _hostile_file(data, "questions")
    path = tmp_path / "hostile.jsonl"
    path.write_bytes(blob)
    config = _endpoints(tmp_path, chat=answering_server.base_url, text=FAST_ENSEMBLE)
    answering_server.request_log.clear()
    capsys.readouterr()
    code = main(["--config", config, "infer", "--questions", str(path),
                 "--output", str(tmp_path / "v.jsonl"), "--corpus", str(artifacts["corpus"]),
                 "--no-retrieval"])
    out, err = capsys.readouterr()
    _check_exit(code, valid, out, err)
    if code == EXIT_OK:
        assert answering_server.request_log
    else:
        assert answering_server.request_log == []


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_hostile_raw_pages_exit_0_or_5_with_one_line(tmp_path, capsys, data):
    blob, valid = _hostile_file(data, "pages")
    path = tmp_path / "hostile.jsonl"
    path.write_bytes(blob)
    output = tmp_path / "corpus.jsonl"
    save_corpus(ingest(map(_record_bytes, _FILE_RECORDS["pages"])), output)
    old = output.read_bytes()
    capsys.readouterr()
    code = main(["ingest", "--input", str(path), "--output", str(output)])
    out, err = capsys.readouterr()
    _check_exit(code, valid, out, err)
    if code == EXIT_OK:
        assert load_corpus(output).pages
    else:  # the old corpus is left as it was
        assert output.read_bytes() == old


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_hostile_verdict_file_exits_0_or_5_with_one_line(tmp_path, capsys, data):
    blob, valid = _hostile_file(data, "verdicts")
    path = tmp_path / "hostile.jsonl"
    path.write_bytes(blob)
    capsys.readouterr()
    code = main(["evaluate", "--verdicts", str(path)])
    out, err = capsys.readouterr()
    _check_exit(code, valid, out, err)


# ---------------------------------------------------------------------------
# Hostile config files through the command line: a run exits 0 on a config that is
# still valid, else 2 with one stderr line. evaluate builds no client, so no drawn
# value opens a connection.

# section -> (key, value as written); every value is valid, one model name is not ASCII
_CONFIG_SECTIONS = {
    "retrieval": [("alpha", "0.6"), ("beta", "0.4"), ("top_m", "3"), ("top_n", "7"),
                  ("threshold", "0.3"), ("candidate_k", "50")],
    "ensemble": [("schedule_count", "20"), ("seed", "0"), ("min_responses", "10"),
                 ("confidence_threshold", "0.8")],
    "gates": [("question_min_chars", "10"), ("question_max_chars", "300"),
              ("min_clauses", "2"), ("support_jaccard", "0.2"), ("option_length_ratio", "5.0"),
              ("dedup_jaccard", "0.8"), ("min_reasoning_chars", "30"),
              ("evidence_overlap", "0.5")],
    "endpoint": [("base_url", "http://127.0.0.1:9/v1"), ("model_name", "chat-model"),
                 ("timeout", "30.0"), ("max_retries", "2"), ("max_in_flight", "4"),
                 ("auth_token", "s3cret"), ("backoff_base", "0.5")],
    "embedding": [("base_url", "http://127.0.0.1:9/v1"),
                  ("model_name", "埋め込み"), ("auth_token", "s3cret")],
}
# per kind of valid value, values of another type
_WRONG_TYPES = {"int": ["1.5", "'3'", "true", "[3]", "null"],
                "float": ["'0.5'", "true", "[0.5]", "{a: 1}", "null"],
                "str": ["7", "2.5", "true", "[a]", "{a: b}"]}


def _value_kind(value: str) -> str:
    return "int" if value.isdigit() else "float" if value[0].isdigit() else "str"


def _config_text(sections: dict) -> str:
    return "".join(f"{section}:\n" + "".join(f"  {key}: {value}\n" for key, value in pairs)
                   for section, pairs in sections.items())


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_hostile_config_file_exits_0_or_2_with_one_line(tmp_path, capsys, monkeypatch, data):
    monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
    sections = {section: list(pairs) for section, pairs in _CONFIG_SECTIONS.items()}
    mutation = data.draw(st.sampled_from(
        ["cut", "flip", "not_utf8", "mistyped", "duplicate_key", "duplicate_section", "retries",
         "schedule", "empty_section"]), label="mutation")
    section = data.draw(st.sampled_from(sorted(sections)), label="section")
    at = data.draw(st.integers(0, len(sections[section]) - 1), label="key")
    valid = True
    if mutation == "mistyped":
        key, value = sections[section][at]
        sections[section][at] = (key, data.draw(st.sampled_from(_WRONG_TYPES[_value_kind(value)]),
                                                label="value"))
        valid = False
    elif mutation == "duplicate_key":  # the later of two equal keys wins
        sections[section].insert(at, sections[section][at])
    elif mutation == "retries":  # a max_retries at most its cap, or past it
        retries = data.draw(st.integers(0, 2 * MAX_RETRIES_CAP), label="max_retries")
        sections["endpoint"] = [(key, str(retries) if key == "max_retries" else value)
                                for key, value in sections["endpoint"]]
        valid = retries <= MAX_RETRIES_CAP
    elif mutation == "schedule":  # a schedule_count inside [2, its cap], or outside it
        count = data.draw(st.integers(0, 2 * MAX_SCHEDULE_COUNT), label="schedule_count")
        sections["ensemble"] = [(key, str(count) if key == "schedule_count" else value)
                                for key, value in sections["ensemble"]]
        valid = 2 <= count <= MAX_SCHEDULE_COUNT
    elif mutation == "empty_section":  # only an endpoint section needs keys, its two names
        del sections[section]
        valid = section not in ("endpoint", "embedding")
    text = _config_text(sections)
    if mutation == "duplicate_section":
        text += _config_text({section: sections[section]})
    elif mutation == "empty_section":  # `{}` or null, spelled out or left bare
        empty = data.draw(st.sampled_from(["{}", "null", "~", ""]), label="empty")
        text += f"{section}: {empty}\n"
    blob = bytearray(text.encode("utf-8"))
    if mutation == "cut":
        del blob[data.draw(st.integers(0, len(blob) - 1), label="length"):]
        valid = None
    elif mutation == "flip":
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        blob[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        valid = None
    elif mutation == "not_utf8":
        at = data.draw(st.integers(0, len(blob)), label="offset")
        blob[at:at] = data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"]),
                                label="bytes")
        valid = False
    config = tmp_path / "hostile.yaml"
    config.write_bytes(bytes(blob))
    verdicts = tmp_path / "verdicts.jsonl"
    verdicts.write_bytes(b"".join(map(_record_bytes, _FILE_RECORDS["verdicts"])))
    capsys.readouterr()
    code = main(["--config", str(config), "evaluate", "--verdicts", str(verdicts)])
    out, err = capsys.readouterr()
    if valid is not None:
        assert code == (EXIT_OK if valid else EXIT_CONFIG), err
    if code == EXIT_OK:
        assert err == "" and out.startswith("overall\t")
    else:
        assert code == EXIT_CONFIG, err
        assert err.startswith("config error: ") and err.endswith("\n"), err
        assert len(err.splitlines()) == 1, err
        assert out == ""


# ---------------------------------------------------------------------------
# Scripted endpoint outcomes through infer: each HTTP attempt of each request answers
# as drawn, and the verdicts, the attempt counts and the exit code follow from the script

_OUTCOME_TIMEOUT = 0.1  # seconds; the endpoints' timeout, which a "timeout" reply outlasts
_OUTCOMES = st.one_of(
    st.sampled_from([("ok", "A"), ("ok", "B"), ("ok", None), ("5xx", 500), ("5xx", 503),
                     ("timeout", None), ("malformed", None), ("not_json", None)]),
    st.tuples(st.just("429"), st.sampled_from(["1", "2" * 400, "3" * 5000, "soon", ""])))
_PROPERTY_QUESTIONS = (
    {"question": "当期の売上高はいくらですか。", "options": ["4200 百万円", "310 百万円"]},
    {"question": "新卒採用は何人を見込んでいますか。", "options": ["80 人", "45 人", "120 人"]},
    {"question": "在宅勤務制度の上限は何日ですか。", "options": ["週 3 日", "週 5 日"]},
)


def _reply(outcome, kind: str, texts: list[str]):
    """The mock endpoint's answer to one attempt: `kind` is chat or embed."""
    what, value = outcome
    if what == "ok":
        if kind == "embed":
            return hash_embedder()(texts)
        return MockReply("Answer: " + value if value else "The pages do not say.")
    if what == "429":
        return MockReply(status=429, headers={"Retry-After": value})
    if what == "5xx":
        return MockReply(status=value)
    if what == "timeout":
        return MockReply(delay=3 * _OUTCOME_TIMEOUT)
    if what == "malformed":
        return MockReply(json_body={"choices": []} if kind == "chat" else {"data": "x"})
    return MockReply(raw=b"<html>busy</html>")


def _expected(script: list) -> tuple[int, bool, str | None]:
    """Attempts, success, and the label voted for, of one request answered by `script`."""
    for attempt, (what, value) in enumerate(script, start=1):
        if what == "ok":
            return attempt, True, value
        if what in ("malformed", "not_json"):
            return attempt, False, None
    return len(script), False, None


class _ScriptedEndpoint:
    """Answers each request's n-th attempt from its script: a chat request is the k-th
    distinct sampling seed its question sends, an embedding the question it embeds."""

    def __init__(self):
        self.lock = threading.Lock()
        self.reset([], {}, {})

    def reset(self, questions: list[str], chat: dict, embed: dict) -> None:
        """Script the next run; `attempts` then counts each request's HTTP attempts."""
        self.questions, self.chat, self.embed = questions, chat, embed
        self.attempts: Counter = Counter()
        self.positions: dict[int, list[int]] = {}  # per question, its seeds in arrival order

    def _question(self, text: str) -> int:
        return next(qi for qi, q in enumerate(self.questions) if normalize_text(q) in text)

    def chat_reply(self, payload, index):
        qi = self._question(payload["messages"][0]["content"])
        with self.lock:
            seeds = self.positions.setdefault(qi, [])
            if payload["seed"] not in seeds:
                seeds.append(payload["seed"])
            key = ("chat", qi, seeds.index(payload["seed"]))
            self.attempts[key] += 1
            attempt = self.attempts[key]
        return _reply(self.chat[key[1:]][attempt - 1], "chat", [])

    def embed_reply(self, texts):
        qi = self._question(texts[0])
        with self.lock:
            self.attempts["embed", qi] += 1
            attempt = self.attempts["embed", qi]
        return _reply(self.embed[qi][attempt - 1], "embed", texts)


@pytest.fixture(scope="module")
def scripted_endpoint():
    endpoint = _ScriptedEndpoint()
    with MockModelServer(chat=endpoint.chat_reply, embed=endpoint.embed_reply) as server:
        endpoint.base_url = server.base_url
        yield endpoint


@pytest.fixture(scope="module")
def semantic_artifacts(tmp_path_factory):
    """Corpus, lexical and semantic index of the fin and hr pages, the semantic one
    embedded by model "embedder" with the hash embedder's 1024 dimensions."""
    tmp = tmp_path_factory.mktemp("semantic")
    raw = tmp / "raw.jsonl"
    _write_jsonl(raw, [{"doc_id": "fin", "page_index": i, "text": FIN_BODY} for i in range(3)]
                 + [{"doc_id": "hr", "page_index": i, "text": HR_BODY} for i in range(2)])
    paths = {name: tmp / name for name in ("corpus", "lexical", "semantic")}
    assert main(["ingest", "--input", str(raw), "--output", str(paths["corpus"])]) == EXIT_OK
    with MockModelServer() as server:
        assert main(["--config", _endpoints(tmp, embed=server.base_url), "build-index",
                     "--corpus", str(paths["corpus"]), "--lexical", str(paths["lexical"]),
                     "--semantic", str(paths["semantic"])]) == EXIT_OK
    return paths


@pytest.mark.parametrize("retrieval", [False, True], ids=["no_retrieval", "embedding"])
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_scripted_endpoint_outcomes_decide_verdicts_attempts_and_exit(
        tmp_path, capsys, monkeypatch, scripted_endpoint, semantic_artifacts, retrieval, data):
    questions = [q["question"] for q in _PROPERTY_QUESTIONS]
    count = data.draw(st.integers(1, len(questions)), label="questions")
    schedule = data.draw(st.integers(2, 3), label="schedule_count")
    retries = data.draw(st.integers(0, 2), label="max_retries")
    embed_retries = data.draw(st.integers(0, 2), label="embedding max_retries")
    attempts = st.lists(_OUTCOMES, min_size=retries + 1, max_size=retries + 1)
    chat = {(qi, pos): data.draw(attempts, label=f"chat {qi} {pos}")
            for qi in range(count) for pos in range(schedule)}
    embed = {qi: data.draw(st.lists(_OUTCOMES, min_size=embed_retries + 1,
                                    max_size=embed_retries + 1), label=f"embed {qi}")
             for qi in range(count)} if retrieval else {}
    scripted_endpoint.reset(questions[:count], chat, embed)
    waits: list[float] = []
    monkeypatch.setattr("docqa_engine.gateway.time.sleep", waits.append)
    section = (f"  base_url: {scripted_endpoint.base_url}\n  timeout: {_OUTCOME_TIMEOUT}\n"
               "  backoff_base: 0.01\n  max_retries: ")
    text = (f"endpoint:\n{section}{retries}\n  model_name: mock-model\n"
            f"ensemble:\n  schedule_count: {schedule}\n  min_responses: "
            f"{data.draw(st.integers(1, 2), label='min_responses')}\n")
    args = ["--corpus", str(semantic_artifacts["corpus"])]
    if retrieval:
        text += f"embedding:\n{section}{embed_retries}\n  model_name: embedder\n"
        args += ["--lexical", str(semantic_artifacts["lexical"]),
                 "--semantic", str(semantic_artifacts["semantic"])]
    else:
        args.append("--no-retrieval")
    config, questions_path = tmp_path / "config.yaml", tmp_path / "questions.jsonl"
    config.write_text(text, encoding="utf-8")
    _write_jsonl(questions_path, _PROPERTY_QUESTIONS[:count])
    output = tmp_path / "verdicts.jsonl"
    output.unlink(missing_ok=True)  # left by the previous example
    capsys.readouterr()
    code = main(["--config", str(config), "infer", "--questions", str(questions_path),
                 "--output", str(output), *args])
    err = capsys.readouterr().err

    verdicts = [json.loads(line) for line in output.read_text(encoding="utf-8").splitlines()]
    assert [v["question"] for v in verdicts] == questions[:count]  # every verdict is written
    sent = scripted_endpoint.attempts
    for qi, verdict in enumerate(verdicts):
        embedded = True
        if retrieval:
            tries, embedded, _ = _expected(embed[qi])
            assert sent["embed", qi] == tries <= embed_retries + 1
        positions = sorted(key[2] for key in sent if key[:2] == ("chat", qi))
        assert positions == list(range(len(positions)))  # in schedule order
        outcomes = [_expected(chat[qi, pos]) for pos in range(len(positions))]
        for pos, (tries, _, _) in enumerate(outcomes):
            assert sent["chat", qi, pos] == tries <= retries + 1
        if not embedded:
            assert positions == [] and verdict["retrieved"] == []
        assert verdict["responses_used"] == len(outcomes)
        assert verdict["failed_responses"] == sum(not ok for _, ok, _ in outcomes)
        # only a successful response votes, for the label it gave
        assert verdict["votes"] == dict(Counter(label for _, ok, label in outcomes
                                                if ok and label))
        assert verdict["failed"] == (not embedded or bool(outcomes)
                                     and not any(ok for _, ok, _ in outcomes))
    assert len(waits) == sum(tries - 1 for tries in sent.values())
    assert all(0.01 <= wait <= _OUTCOME_TIMEOUT for wait in waits)
    if any(v["failed"] for v in verdicts):
        assert code == EXIT_TRANSPORT and "endpoint error: " in err, err
    else:
        assert code == EXIT_OK, err


# ---------------------------------------------------------------------------
# README drift: every command line it shows parses, and every flag it names exists

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_command_lines() -> list[str]:
    """The `docqa …` lines of README's sh blocks, continuation lines joined."""
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                            re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("docqa "):
                lines.append(line)
    return lines


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert len(lines) >= 6
    for line in lines:
        try:
            cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


def test_readme_names_only_flags_the_parser_has():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {option for p in (parser, *subparsers.choices.values()) for action in p._actions
             for option in action.option_strings}
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"),
                  flags=re.MULTILINE | re.DOTALL)
    named = {flag for span in re.findall(r"`([^`\n]+)`", text)
             for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", span)}
    assert "--no-retrieval" in named
    assert named - flags == set()


def test_readme_config_block_loads_as_the_defaults(tmp_path, monkeypatch):
    # the block shows every key at its default; only the endpoints' two names have none
    monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
    [block] = re.findall(r"^```yaml\n(.*?)^```", README.read_text(encoding="utf-8"),
                         re.MULTILINE | re.DOTALL)
    path = tmp_path / "readme.yaml"
    path.write_text(block, encoding="utf-8")
    config = load_config(path)
    for endpoint in (config.endpoint, config.embedding):
        assert replace(endpoint, base_url="", model_name="") == EndpointConfig("", "")
    assert replace(config, endpoint=None, embedding=None) == PipelineConfig()
