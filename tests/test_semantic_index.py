"""Embedding plumbing and exact cosine search against a full-scan oracle."""

import dataclasses
import functools
import struct
import tempfile
import threading
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from docqa_engine.corpus import Corpus, Page
from docqa_engine.errors import ContractError, EndpointError, FormatError
from docqa_engine.gateway import hash_embedder
from docqa_engine.semantic import (
    SemanticIndex,
    build_semantic_index,
    embed,
    embed_query,
    load_semantic_index,
    save_semantic_index,
    search_semantic,
)
from mock_server import MockModelServer


def _unit_rows(rng, n, dim):
    m = rng.standard_normal((n, dim))
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


def _index(rng, n, dim):
    vectors = _unit_rows(rng, n, dim)
    refs = [(f"doc{i // 10}", i % 10) for i in range(n)]
    return SemanticIndex(vectors=vectors, page_refs=refs, dim=dim)


class FakeEmbedClient:
    """Client double that returns scripted vectors without HTTP."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def embed(self, texts):
        self.calls.append(list(texts))
        return self.fn(texts)


class TestEmbed:
    def test_vectors_normalized_and_ordered(self):
        client = FakeEmbedClient(hash_embedder(dim=32))
        out = embed(["first", "second", "third"], client, dim=32)
        assert out.shape == (3, 32)
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            np.linalg.norm(out.astype(np.float64), axis=1), 1.0, atol=1e-6
        )
        # same text, same vector: the embedder is deterministic
        again = embed(["second"], client, dim=32)
        np.testing.assert_array_equal(out[1], again[0])

    def test_batching_splits_requests(self):
        client = FakeEmbedClient(hash_embedder(dim=8))
        texts = [f"t{i}" for i in range(65)]
        embed(texts, client, dim=8)
        # batches overlap, so they may reach the endpoint in any order
        assert sorted(client.calls) == [texts[:32], texts[32:64], texts[64:]]

    def test_empty_input_rejected(self):
        client = FakeEmbedClient(hash_embedder(dim=8))
        with pytest.raises(ValueError):
            embed([], client, dim=8)

    def test_wrong_dimension_is_contract_error(self):
        client = FakeEmbedClient(lambda texts: [[1.0, 2.0]] * len(texts))
        with pytest.raises(ContractError, match="dimension"):
            embed(["x"], client, dim=8)

    def test_wrong_count_is_contract_error(self):
        client = FakeEmbedClient(lambda texts: [[1.0] * 8])
        with pytest.raises(ContractError, match="vectors"):
            embed(["x", "y"], client, dim=8)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_vector_is_contract_error(self, bad):
        client = FakeEmbedClient(lambda texts: [[1.0] * 7 + [bad] for _ in texts])
        with pytest.raises(ContractError, match="non-finite"):
            embed(["x"], client, dim=8)

    @pytest.mark.parametrize("bad", [5, [1.0] * 7 + ["x"], [1.0] * 7 + [None], [[1.0] * 8],
                                     [True] + [1.0] * 7])
    def test_vector_not_a_list_of_numbers_is_contract_error(self, bad):
        client = FakeEmbedClient(lambda texts: [bad for _ in texts])
        with pytest.raises(ContractError, match="not a list of numbers"):
            embed(["x"], client, dim=8)

    def test_zero_vector_is_contract_error(self):
        client = FakeEmbedClient(lambda texts: [[0.0] * 8 for _ in texts])
        with pytest.raises(ContractError, match="zero"):
            embed(["x"], client, dim=8)


class RecordingEmbedClient:
    """Client double with an in-flight cap that records overlap and threads;
    ``script`` maps a batch's first text to a callable run before it answers."""

    def __init__(self, max_in_flight, dim=8, script=None):
        self.config = types.SimpleNamespace(max_in_flight=max_in_flight)
        self.embedder = hash_embedder(dim=dim)
        self.script = script or {}
        self.lock = threading.Lock()
        self.in_flight = self.peak = 0
        self.threads = set()

    def embed(self, texts):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.threads.add(threading.get_ident())
        try:
            self.script.get(texts[0], lambda: None)()
            return self.embedder(texts)
        finally:
            with self.lock:
                self.in_flight -= 1


class TestOverlappedEmbed:
    TEXTS = [f"page {i}" for i in range(100)]  # four batches: 32, 32, 32, 4

    def test_batches_overlap_and_rows_keep_input_order(self):
        # the first batch goes alone; the barrier breaks unless two later ones are in flight at once
        meet = threading.Barrier(2, timeout=10)
        client = RecordingEmbedClient(3, script={"page 32": meet.wait, "page 64": meet.wait})
        out = embed(self.TEXTS, client, dim=8)
        assert client.peak >= 2
        serial = np.concatenate([embed(self.TEXTS[i:i + 32], RecordingEmbedClient(1), dim=8)
                                 for i in range(0, 100, 32)])
        assert out.dtype == serial.dtype and (out == serial).all()

    def test_in_flight_limit_caps_the_overlap(self):
        # the second and third batches meet, then hold their slots long enough
        # for the fourth to start if the cap let it
        meet = threading.Barrier(2, timeout=10)
        hold = lambda: (meet.wait(), time.sleep(0.05))  # noqa: E731
        client = RecordingEmbedClient(2, script={"page 32": hold, "page 64": hold})
        embed(self.TEXTS, client, dim=8)
        assert client.peak == 2

    def test_earliest_failed_batch_raises(self):
        third_failed = threading.Event()

        def fail_third():
            third_failed.set()
            raise EndpointError("batch 3", 503)

        def fail_second():
            assert third_failed.wait(10)  # batch 3 fails first
            raise EndpointError("batch 2", 503)

        client = RecordingEmbedClient(4, script={"page 32": fail_second, "page 64": fail_third})
        with pytest.raises(EndpointError, match="batch 2"):
            embed(self.TEXTS, client, dim=8)

    def test_one_batch_stays_on_the_calling_thread(self):
        client = RecordingEmbedClient(4)
        embed_query("question", client, dim=8)
        embed(self.TEXTS[:32], client, dim=8)
        assert client.threads == {threading.get_ident()}

    def test_first_batch_fixes_the_width(self):
        # without a dim the index is as wide as the endpoint's vectors
        out = embed(self.TEXTS, RecordingEmbedClient(2, dim=12))
        assert out.shape == (100, 12)
        assert embed_query("question", RecordingEmbedClient(1, dim=5)).shape == (5,)

    def test_two_widths_within_the_first_batch_are_contract_error(self):
        client = FakeEmbedClient(lambda texts: [[1.0] * (8 + i % 2) for i in range(len(texts))])
        with pytest.raises(ContractError, match="dimension 9 does not match 8"):
            embed(self.TEXTS, client)
        assert len(client.calls) == 1  # a failed first batch sends no later batch

    def test_a_later_batch_of_another_width_is_contract_error(self):
        narrow, wide = hash_embedder(dim=8), hash_embedder(dim=16)
        client = FakeEmbedClient(lambda texts: (wide if texts[0] == "page 64" else narrow)(texts))
        with pytest.raises(ContractError, match="dimension 16 does not match 8"):
            embed(self.TEXTS, client)
        # a given dim is checked against the first batch as well
        with pytest.raises(ContractError, match="dimension 8 does not match 16"):
            embed(self.TEXTS[:32], client, dim=16)


class TestSearch:
    def test_matches_full_scan_argsort(self):
        rng = np.random.default_rng(42)
        index = _index(rng, n=80, dim=24)
        for _ in range(20):
            q = rng.standard_normal(24)
            q /= np.linalg.norm(q)
            got = [ref for ref, _ in search_semantic(index, q, k=10)]
            scores = index.vectors.astype(np.float64) @ q
            want_order = sorted(
                range(80), key=lambda i: (-scores[i], index.page_refs[i])
            )[:10]
            assert got == [index.page_refs[i] for i in want_order]

    def test_doc_id_takes_top_k_over_that_document(self):
        rng = np.random.default_rng(43)
        index = _index(rng, n=40, dim=24)
        q = index.vectors[3].astype(np.float64)  # doc0 holds the best match
        got = search_semantic(index, q, k=4, doc_id="doc2")
        scores = index.vectors.astype(np.float64) @ q
        rows = [i for i, ref in enumerate(index.page_refs) if ref[0] == "doc2"]
        want = sorted(rows, key=lambda i: (-scores[i], index.page_refs[i]))[:4]
        assert got == [(index.page_refs[i], float(scores[i])) for i in want]
        assert search_semantic(index, q, k=4, doc_id="missing") == []

    def test_exact_duplicate_vectors_tie_break_by_ref(self):
        row = np.ones(4, dtype=np.float32) / 2.0
        vectors = np.stack([row, row, row])
        index = SemanticIndex(
            vectors=vectors, page_refs=[("a", 0), ("a", 1), ("b", 0)], dim=4
        )
        got = [ref for ref, _ in search_semantic(index, row, k=3)]
        assert got == [("a", 0), ("a", 1), ("b", 0)]

    def test_k_clamps_to_index_size(self):
        rng = np.random.default_rng(7)
        index = _index(rng, n=5, dim=8)
        q = _unit_rows(rng, 1, 8)[0]
        assert len(search_semantic(index, q, k=100)) == 5

    def test_k_below_one_rejected(self):
        rng = np.random.default_rng(7)
        index = _index(rng, n=5, dim=8)
        with pytest.raises(ValueError):
            search_semantic(index, index.vectors[0], k=0)

    def test_empty_index_returns_nothing(self):
        index = SemanticIndex(
            vectors=np.zeros((0, 8), dtype=np.float32), page_refs=[], dim=8
        )
        assert search_semantic(index, np.ones(8), k=3) == []

    @pytest.mark.parametrize("shape, dim, match", [
        ((3, 8), 4, "shape"), ((3,), 3, "shape"), ((2, 8), 8, "parallel")])
    def test_vectors_of_another_shape_are_rejected(self, shape, dim, match):
        with pytest.raises(ValueError, match=match):
            SemanticIndex(vectors=np.zeros(shape, dtype=np.float32),
                          page_refs=[("a", 0), ("a", 1), ("b", 0)], dim=dim)

    def test_query_shape_checked(self):
        rng = np.random.default_rng(7)
        index = _index(rng, n=5, dim=8)
        with pytest.raises(ValueError):
            search_semantic(index, np.ones(9), k=1)


class TestBuildViaEndpoint:
    def test_build_and_query_through_mock_server(self):
        pages = [
            Page.from_raw("d", 0, "預金口座の開設には本人確認書類が必要です"),
            Page.from_raw("d", 1, "金利は年率0.2%で毎月の残高に応じて計算します"),
            Page.from_raw("d", 2, "解約は窓口でのみ受け付けています"),
        ]
        corpus = Corpus.from_pages(pages)
        with MockModelServer(dim=64) as server:
            client = server.make_client()
            index = build_semantic_index(corpus, client, dim=64)
            assert index.vectors.shape == (3, 64)
            q = embed_query("金利の計算方法", client, dim=64)
            ranked = search_semantic(index, q, k=3)
            assert len(ranked) == 3

    def test_prefixes_affect_embedding_input(self):
        corpus = Corpus.from_pages([Page.from_raw("d", 0, "page")])
        with MockModelServer(dim=16) as server:
            client = server.make_client()
            build_semantic_index(corpus, client, dim=16)
            embed_query("question", client, dim=16)
            sent = [entry["payload"]["input"] for entry in server.request_log]
            assert sent == [["passage: page"], ["query: question"]]

    def test_query_is_embedded_in_its_normalized_form(self):
        client = FakeEmbedClient(hash_embedder(dim=16))
        full = embed_query("ＦＹ２０２３　２０２３年", client, dim=16)
        assert client.calls == [["query: FY2023 2023年"]]
        assert np.array_equal(full, embed_query("FY2023 2023年", client, dim=16))

    def test_records_the_corpus_fingerprint_and_the_model(self, tmp_path):
        corpus = Corpus.from_pages([Page.from_raw("d", 0, "page"), Page.from_raw("d", 1, "two")])
        with MockModelServer(dim=8) as server:
            index = build_semantic_index(corpus, server.make_client(model_name="embedder"), dim=8)
        assert (index.fingerprint, index.model) == (corpus.fingerprint, "embedder")
        save_semantic_index(index, tmp_path / "sem.idx")
        loaded = load_semantic_index(tmp_path / "sem.idx")
        assert (loaded.fingerprint, loaded.model) == (corpus.fingerprint, "embedder")
        # a client without a config records no model
        unnamed = build_semantic_index(corpus, FakeEmbedClient(hash_embedder(dim=8)), dim=8)
        assert unnamed.model == ""


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        index = _index(rng, n=17, dim=12)
        path = tmp_path / "sem.idx"
        save_semantic_index(index, path)
        loaded = load_semantic_index(path)
        np.testing.assert_array_equal(loaded.vectors, index.vectors)
        assert loaded.page_refs == index.page_refs
        assert loaded.dim == 12

    def test_load_peak_holds_the_file_about_once(self, tmp_path):
        # 1.04 times an 8.2 MB file at the traced peak: the rows stay a view of the
        # file's bytes. Copying them out took 2.04.
        vectors = _unit_rows(np.random.default_rng(8), 2000, 1024)
        index = SemanticIndex(vectors, [("doc", i) for i in range(2000)], dim=1024)
        path = tmp_path / "sem.idx"
        save_semantic_index(index, path)
        tracemalloc.start()
        try:
            loaded = load_semantic_index(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.vectors, index.vectors)
        assert peak < 1.5 * path.stat().st_size

    def test_a_failed_save_leaves_the_old_file_whole(self, tmp_path):
        index = _index(np.random.default_rng(9), n=3, dim=4)
        path = tmp_path / "sem.idx"
        save_semantic_index(index, path)
        old = path.read_bytes()
        # a page ref that is no string fails after the rows are written
        bad = dataclasses.replace(index, page_refs=[(0, 0), (1, 0), (2, 0)])
        with pytest.raises(AttributeError):
            save_semantic_index(bad, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["sem.idx"]

    def test_search_identical_after_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        index = _index(rng, n=30, dim=16)
        q = _unit_rows(rng, 1, 16)[0]
        path = tmp_path / "sem.idx"
        save_semantic_index(index, path)
        loaded = load_semantic_index(path)
        assert search_semantic(loaded, q, k=7) == search_semantic(index, q, k=7)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "sem.idx"
        path.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(FormatError, match="not a semantic index"):
            load_semantic_index(path)

    def test_version_checked(self, tmp_path):
        import struct

        path = tmp_path / "sem.idx"
        path.write_bytes(b"SEMV" + struct.pack("<III", 9, 4, 0))
        with pytest.raises(FormatError, match="version"):
            load_semantic_index(path)

    def test_version_1_file_rejected_naming_its_version(self, tmp_path):
        # version 1 held no fingerprint and no model name: dim, count, rows, refs
        path = tmp_path / "sem.idx"
        path.write_bytes(b"SEMV" + struct.pack("<IIIf", 1, 1, 1, 1.0) + struct.pack("<I", 1) + b"d"
                         + struct.pack("<I", 0))
        with pytest.raises(FormatError, match=r"version 1: rebuild it with `docqa build-index`"):
            load_semantic_index(path)

    def test_truncation_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        index = _index(rng, n=6, dim=8)
        path = tmp_path / "sem.idx"
        save_semantic_index(index, path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_semantic_index(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        index = _index(rng, n=2, dim=4)
        path = tmp_path / "sem.idx"
        save_semantic_index(index, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_semantic_index(path)


# ---------------------------------------------------------------------------
# Corrupt files: each one loads or raises FormatError, never another exception


@functools.cache
def _sample_file() -> bytes:
    vectors = _unit_rows(np.random.default_rng(7), 3, 4)
    index = SemanticIndex(vectors=vectors, page_refs=[("b", 0), ("報告書", 0), ("報告書", 1)],
                          dim=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sem.idx"
        save_semantic_index(index, path)
        return path.read_bytes()


# the rows follow the magic, version, dim, count, fingerprint and the empty model name
_ROWS_AT = 52


def _load_bytes(tmp_path, data: bytes):
    path = tmp_path / "corrupt.idx"
    path.write_bytes(data)
    return load_semantic_index(path)


class TestCorruptFiles:
    def test_every_truncation_rejected(self, tmp_path):
        data = _sample_file()
        for cut in range(len(data)):
            with pytest.raises(FormatError):
                _load_bytes(tmp_path, data[:cut])

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_single_byte_flip_loads_or_raises_format_error(self, tmp_path, data):
        corrupt = bytearray(_sample_file())
        corrupt[data.draw(st.integers(0, len(corrupt) - 1), label="offset")] ^= data.draw(
            st.integers(1, 255), label="mask")
        try:
            _load_bytes(tmp_path, bytes(corrupt))
        except FormatError:
            pass

    @pytest.mark.parametrize("fields", [(8,), (12,), (8, 12)],
                             ids=["dim", "count", "dim_and_count"])
    def test_huge_header_count_rejected(self, tmp_path, fields):
        data = bytearray(_sample_file())
        for offset in fields:
            struct.pack_into("<I", data, offset, 0xFFFFFFFF)
        with pytest.raises(FormatError, match="truncated"):
            _load_bytes(tmp_path, bytes(data))

    @pytest.mark.parametrize("scale", [1e6, 0.0], ids=["scaled", "zero"])
    def test_row_without_unit_norm_rejected(self, tmp_path, scale):
        index = _index(np.random.default_rng(8), n=3, dim=4)
        index.vectors[1] *= scale
        path = tmp_path / "sem.idx"
        save_semantic_index(index, path)
        with pytest.raises(FormatError, match="not 1"):
            load_semantic_index(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_component_rejected(self, tmp_path, bad):
        data = bytearray(_sample_file())
        struct.pack_into("<f", data, _ROWS_AT + 4 * 5, bad)  # row 1, column 1
        with pytest.raises(FormatError, match="non-finite"):
            _load_bytes(tmp_path, bytes(data))


@pytest.mark.parametrize("refs", [[("b", 0), ("a", 0), ("a", 1)], [("a", 0), ("a", 0), ("b", 0)]],
                         ids=["unsorted", "duplicate"])
class TestPageOrder:
    """An index lists its pages in corpus order: refs strictly ascending."""

    def test_constructor_rejects(self, refs):
        index = _index(np.random.default_rng(9), n=3, dim=4)
        with pytest.raises(ValueError, match="strictly ascending"):
            dataclasses.replace(index, page_refs=refs)

    def test_loader_rejects(self, tmp_path, refs):
        index = _index(np.random.default_rng(9), n=3, dim=4)
        index.page_refs = refs
        path = tmp_path / "sem.idx"
        save_semantic_index(index, path)
        with pytest.raises(FormatError, match="strictly ascending"):
            load_semantic_index(path)
