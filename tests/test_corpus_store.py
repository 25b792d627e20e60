"""Corpus ingestion, integrity checks, and file round-trips."""

import functools
import json
import os
import tempfile
import threading
import unicodedata
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from docqa_engine.corpus import (
    Corpus,
    Page,
    ingest,
    ingest_path,
    load_corpus,
    normalize_text,
    page_fingerprint,
    save_corpus,
    write_records,
)
from docqa_engine.errors import FormatError, IntegrityError, ParseError
from docqa_engine.tokenizer import count_numeric_tokens


def _lines(*records):
    return [json.dumps(r, ensure_ascii=False) for r in records]


def _record(doc_id, page_index, text):
    return {"doc_id": doc_id, "page_index": page_index, "text": text}


def _normalize_by_loop(raw: str) -> str:
    """normalize_text as one pass over every character, without its fast path."""
    text = unicodedata.normalize("NFKC", raw)
    kept = []
    for ch in text:
        if ch.isspace():
            kept.append(" ")
        elif unicodedata.category(ch) in ("Cc", "Cf"):
            continue
        else:
            kept.append(ch)
    text = unicodedata.normalize("NFKC", "".join(kept))
    return " ".join(text.split())


# control (Cc) and format (Cf) characters, space (Zs), line (Zl) and paragraph
# (Zp) separators, combining marks (Mn), letters, and full-width forms that NFKC folds
_RAW_TEXTS = st.text(st.characters(categories=("Cc", "Cf", "Zs", "Zl", "Zp", "Mn", "Ll", "Lo"))
                     | st.sampled_from("aeA1 \tＡ１　\u00a0\u00ad\u200dか\u3099ｶﾞ\u0301"), max_size=20)


@settings(max_examples=1000, deadline=None)
@given(raw=_RAW_TEXTS)
@example(raw="e\u200d\u0301")  # dropping the joiner brings e and the accent together
@example(raw="Ｆｕｌｌ\u3000ｗｉｄｔｈ\n\tline")
def test_normalize_text_equals_the_per_character_loop(raw):
    assert normalize_text(raw) == _normalize_by_loop(raw)


class TestIngest:
    def test_happy_path(self):
        corpus = ingest(
            _lines(
                _record("a", 0, "first page"),
                _record("a", 1, "second page"),
                _record("b", 0, "other doc"),
            )
        )
        assert corpus.page_count == 3
        assert corpus.doc_count == 2
        assert corpus.get("a", 1).normalized_text == "second page"

    def test_pages_sorted_regardless_of_input_order(self):
        corpus = ingest(
            _lines(_record("a", 1, "x"), _record("a", 0, "y"), _record("b", 0, "z"))
        )
        refs = [(p.doc_id, p.page_index) for p in corpus.pages]
        assert refs == [("a", 0), ("a", 1), ("b", 0)]

    def test_text_is_normalized_on_ingest(self):
        corpus = ingest(_lines(_record("a", 0, "Ｆｕｌｌ　ｗｉｄｔｈ")))
        assert corpus.get("a", 0).normalized_text == "Full width"

    def test_blank_lines_skipped(self):
        lines = _lines(_record("a", 0, "x")) + ["", "   "]
        assert ingest(lines).page_count == 1

    def test_bad_json_reports_line_number(self):
        lines = _lines(_record("a", 0, "x")) + ["{not json"]
        with pytest.raises(ParseError, match=r"line 2"):
            ingest(lines)

    def test_integer_json_cannot_convert_reports_line_number(self):
        # json.loads raises a bare ValueError past Python's int-to-string digit limit
        lines = _lines(_record("a", 0, "x")) + ['{"doc_id": "a", "page_index": ' + "1" * 5000 + "}"]
        with pytest.raises(ParseError, match=r"line 2: invalid JSON: Exceeds the limit"):
            ingest(lines)

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing field"):
            ingest(['{"doc_id": "a", "page_index": 0}'])

    @pytest.mark.parametrize("line", [
        '{"doc_id": "a", "page_index": 0, "text": "x\\ud800y"}',
        b'{"doc_id": "a", "page_index": 0, "text": "x\\ud800y"}',
        '{"doc_id": "a", "page_index": 0, "text": "x\ud800y"}',  # a str line may hold it as is
    ], ids=["escape", "escape_in_bytes", "str_line"])
    def test_lone_surrogate_rejected(self, line):
        with pytest.raises(ParseError, match="line 1: a string holds a lone surrogate"):
            ingest([line])

    def test_bool_page_index_rejected(self):
        with pytest.raises(ParseError, match="page_index"):
            ingest(['{"doc_id": "a", "page_index": true, "text": "x"}'])

    def test_negative_page_index_rejected(self):
        with pytest.raises(ParseError):
            ingest(_lines(_record("a", -1, "x")))

    def test_duplicate_page_conflict(self):
        with pytest.raises(IntegrityError):
            ingest(_lines(_record("a", 0, "x"), _record("a", 0, "y")))

    def test_gap_in_pages_rejected(self):
        with pytest.raises(IntegrityError, match="expected page_index 1"):
            ingest(_lines(_record("a", 0, "x"), _record("a", 2, "y")))

    def test_missing_page_zero_rejected(self):
        with pytest.raises(IntegrityError):
            ingest(_lines(_record("a", 1, "x")))

    def test_empty_stream_rejected(self):
        with pytest.raises(IntegrityError):
            ingest([])


class TestCorpusModel:
    def test_page_from_raw_counts(self):
        page = Page.from_raw("d", 0, "総額は12.5%増の 1200 円")
        assert page.char_count == len(page.normalized_text)
        assert count_numeric_tokens(page.normalized_text) == 2

    def test_get_unknown_page_raises(self):
        corpus = Corpus.from_pages([Page.from_raw("d", 0, "x")])
        with pytest.raises(KeyError):
            corpus.get("d", 5)

    def test_page_index_stays_out_of_equality_hash_and_saved_bytes(self, tmp_path):
        pages = [Page.from_raw("a", i, f"page {i}") for i in range(3)]
        looked_up, fresh = Corpus.from_pages(pages), Corpus.from_pages(pages)
        before = tmp_path / "before.jsonl"
        save_corpus(looked_up, before)
        assert looked_up.get("a", 2) is looked_up.pages[2]
        after = tmp_path / "after.jsonl"
        save_corpus(looked_up, after)
        assert looked_up == fresh and hash(looked_up) == hash(fresh)
        assert after.read_bytes() == before.read_bytes()

    def test_empty_corpus_rejected(self):
        with pytest.raises(IntegrityError):
            Corpus.from_pages([])

    def test_duplicate_page_is_a_conflict(self):
        pages = [Page.from_raw("a", 0, "x"), Page.from_raw("a", 1, "y"), Page.from_raw("a", 0, "z")]
        with pytest.raises(IntegrityError, match=r"duplicate page \('a', 0\)"):
            Corpus.from_pages(pages)

    def test_counts_documents_and_pages(self):
        pages = [Page.from_raw(doc, i, "x") for doc, n in (("b", 2), ("a", 1), ("c", 3))
                 for i in range(n)]
        corpus = Corpus.from_pages(pages)
        assert (corpus.doc_count, corpus.page_count) == (3, 6)
        assert corpus.doc_page_counts() == {"a": 1, "b": 2, "c": 3}

    def test_fingerprint_follows_every_ref_and_text(self):
        pages = [Page.from_raw("a", 0, "alpha"), Page.from_raw("a", 1, "beta")]
        corpus = Corpus.from_pages(pages)
        assert corpus.fingerprint == page_fingerprint(pages) == Corpus.from_pages(pages).fingerprint
        swapped = [Page.from_raw("a", 0, "beta"), Page.from_raw("a", 1, "alpha")]
        assert Corpus.from_pages(swapped).fingerprint != corpus.fingerprint
        assert Corpus.from_pages(pages[:1]).fingerprint != corpus.fingerprint
        other_doc = Corpus.from_pages([Page.from_raw("b", 0, "alpha")])
        assert other_doc.fingerprint != Corpus.from_pages(pages[:1]).fingerprint


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        corpus = ingest(
            _lines(
                _record("a", 0, "日本語のページ　その1"),
                _record("a", 1, "English page 2"),
            )
        )
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded == corpus

    def test_hand_written_version_3_file_loads_with_derived_text(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"format": "corpus", "version": 3, "page_count": 2}\n'
            '{"doc_id": "a", "page_index": 1, "raw_text": "ＦＹ２０２３\\tの\\u0001　売上"}\n'
            '{"doc_id": "a", "page_index": 0, "raw_text": "表紙"}\n', encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus == Corpus((Page("a", 0, "表紙"), Page("a", 1, "ＦＹ２０２３\tの\x01　売上")))
        page = corpus.get("a", 1)
        assert page.normalized_text == normalize_text(page.raw_text) == "FY2023 の 売上"
        save_corpus(corpus, path)
        stored = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        assert [sorted(record) for record in stored] == [["doc_id", "page_index", "raw_text"]] * 2

    def test_header_first_line(self, tmp_path):
        corpus = ingest(_lines(_record("a", 0, "x")))
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert header == {"format": "corpus", "version": 3, "page_count": 1}

    def test_a_record_source_that_fails_midway_leaves_the_old_file_whole(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(ingest(_lines(_record("a", 0, "x"))), path)
        old = path.read_bytes()

        def records():
            yield {"format": "corpus"}
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write_records(path, records())
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]

    def test_a_write_through_a_symlink_replaces_its_target(self, tmp_path):
        target = tmp_path / "real.jsonl"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        write_records(link, [{"a": 1}])
        assert link.is_symlink() and target.read_text(encoding="utf-8") == '{"a": 1}\n'

    def test_a_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "records.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_records(fifo, [{"a": 1}])
        reader.join(timeout=10)
        assert not reader.is_alive() and got == [b'{"a": 1}\n'] and fifo.is_fifo()

    def test_ingest_path(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(json.dumps(_record("a", 0, "x")) + "\n", encoding="utf-8")
        assert ingest_path(raw).page_count == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(FormatError, match="empty"):
            load_corpus(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else", "version": 1}\n', encoding="utf-8")
        with pytest.raises(FormatError, match="not a corpus file"):
            load_corpus(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "corpus", "version": 99, "page_count": 0}\n', encoding="utf-8"
        )
        with pytest.raises(FormatError, match="version"):
            load_corpus(path)

    @pytest.mark.parametrize("page_count", ["2", True, -1, None])
    def test_header_page_count_must_be_a_non_negative_int(self, tmp_path, page_count):
        corpus = ingest(_lines(_record("a", 0, "x"), _record("a", 1, "y")))
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = json.dumps({"format": "corpus", "version": 3, "page_count": page_count})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="page_count must be a non-negative integer"):
            load_corpus(path)

    @pytest.mark.parametrize("bad_line", ["{oops", "[1, 2]"])
    def test_bad_record_line_is_format_error_with_line_number(self, tmp_path, bad_line):
        corpus = ingest(_lines(_record("a", 0, "x"), _record("a", 1, "y")))
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = bad_line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 3"):
            load_corpus(path)

    def test_truncation_detected(self, tmp_path):
        corpus = ingest(_lines(_record("a", 0, "x"), _record("a", 1, "y")))
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="truncated"):
            load_corpus(path)

    def test_extra_records_are_not_called_truncated(self, tmp_path):
        corpus = ingest(_lines(_record("a", 0, "x"), _record("a", 1, "y")))
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        path.write_bytes(path.read_bytes() + path.read_bytes().splitlines(keepends=True)[-1])
        with pytest.raises(FormatError, match="corpus file has extra records: "
                                              "header says 2 pages, found 3"):
            load_corpus(path)

    def test_corrupt_record_rejected(self, tmp_path):
        corpus = ingest(_lines(_record("a", 0, "x")))
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = '{"doc_id": "a"}'
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="corrupt"):
            load_corpus(path)

    def test_undecodable_bytes_are_format_error(self, tmp_path):
        corpus = ingest(_lines(_record("a", 0, "本文")))
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        path.write_bytes(path.read_bytes().replace("本文".encode("utf-8"), b"\xe6\x9c"))
        with pytest.raises(FormatError, match="corrupt corpus file: line 2: invalid UTF-8"):
            load_corpus(path)

    @pytest.mark.parametrize("edit, match", [
        ({"page_index": 2}, "doc 'a': expected page_index 1, got 2"),
        ({"page_index": 0}, r"duplicate page \('a', 0\)"),
    ], ids=["gap", "duplicate"])
    def test_page_set_a_corpus_cannot_have_is_format_error(self, tmp_path, edit, match):
        corpus = ingest(_lines(_record("a", 0, "x"), _record("a", 1, "y")))
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), **edit})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"corrupt corpus file: {match}"):
            load_corpus(path)


# ---------------------------------------------------------------------------
# Hostile corpus files: each one loads as the saved corpus or raises FormatError


@functools.cache
def _saved_corpus() -> tuple[Corpus, bytes]:
    corpus = ingest(_lines(*(_record("a", i, f"page {i} の本文") for i in range(3)),
                           *(_record("報告書", i, f"売上高 {i}00 百万円") for i in range(2))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        save_corpus(corpus, path)
        return corpus, path.read_bytes()


_MUTATIONS = ("drop", "duplicate", "reorder", "page_index", "remove_key", "add_key",
              "surrogate", "cut")


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_hostile_corpus_file_loads_equal_or_raises_format_error(tmp_path, data):
    corpus, saved = _saved_corpus()
    header, *pages = saved.decode("utf-8").splitlines()
    kind = data.draw(st.sampled_from(_MUTATIONS), label="mutation")
    at = data.draw(st.integers(0, len(pages) - 1), label="record")
    if kind == "drop":  # the header still counts the dropped page
        del pages[at]
    elif kind == "duplicate":  # the header counts the copy, so the page set is what fails
        pages.insert(data.draw(st.integers(0, len(pages)), label="to"), pages[at])
        header = json.dumps({**json.loads(header), "page_count": len(pages)})
    elif kind == "reorder":
        pages = data.draw(st.permutations(pages), label="order")
    elif kind != "cut":
        record = json.loads(pages[at])
        if kind == "page_index":
            record["page_index"] = data.draw(st.integers(-1, 4), label="page_index")
        elif kind == "remove_key":
            del record[data.draw(st.sampled_from(sorted(record)), label="key")]
        elif kind == "surrogate":  # UTF-8 JSON can hold a lone surrogate only as an escape
            key = data.draw(st.sampled_from(["doc_id", "raw_text"]), label="key")
            cut = data.draw(st.integers(0, len(record[key])), label="at")
            lone = chr(data.draw(st.integers(0xD800, 0xDFFF), label="surrogate"))
            record[key] = record[key][:cut] + lone + record[key][cut:]
        else:
            key = data.draw(st.text(max_size=8).filter(lambda k: k not in record), label="key")
            record[key] = data.draw(st.sampled_from([0, "", None]), label="value")
        pages[at] = json.dumps(record, ensure_ascii=kind == "surrogate")
    blob = "".join(line + "\n" for line in [header, *pages]).encode("utf-8")
    if kind == "cut":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
    path = tmp_path / "hostile.jsonl"
    path.write_bytes(blob)
    try:
        loaded = load_corpus(path)
    except FormatError:
        return
    assert loaded == corpus
