"""TF-IDF index construction and scoring against direct formula evaluation.

The reference oracle here evaluates the stated weighting scheme — sublinear
tf (1 + ln tf), smoothed idf (ln((1+N)/(1+df)) + 1), L2 normalization,
cosine via dot product — with plain dict arithmetic, independent of the
index's postings machinery.
"""

import dataclasses
import functools
import math
import struct
import tempfile
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from docqa_engine.corpus import Corpus, Page
from docqa_engine.errors import FormatError
from docqa_engine.lexical import (
    LEXICAL_MAGIC,
    build_lexical_index,
    load_lexical_index,
    save_lexical_index,
    score_lexical,
)
from docqa_engine.tokenizer import ngrams, tokenize


def _corpus(*texts_by_doc):
    """texts_by_doc: iterable of (doc_id, [page texts...])."""
    pages = []
    for doc_id, texts in texts_by_doc:
        for i, text in enumerate(texts):
            pages.append(Page.from_raw(doc_id, i, text))
    return Corpus.from_pages(pages)


def _grams(text, n_min, n_max):
    return Counter(ngrams(tokenize(text), n_min, n_max))


def _reference_scores(corpus, query, n_min=1, n_max=1, max_features=None):
    """Brute-force tf-idf cosine scores, computed from the formulas alone."""
    page_grams = [_grams(p.normalized_text, n_min, n_max) for p in corpus.pages]
    df = Counter()
    for grams in page_grams:
        df.update(grams.keys())
    vocab = sorted(df, key=lambda f: (-df[f], f))
    if max_features is not None:
        vocab = vocab[:max_features]
    vocab = set(vocab)
    n = corpus.page_count

    def weight_vector(grams):
        vec = {
            f: (1.0 + math.log(tf)) * (math.log((1 + n) / (1 + df[f])) + 1.0)
            for f, tf in grams.items()
            if f in vocab
        }
        norm = math.sqrt(sum(w * w for w in vec.values()))
        return {f: w / norm for f, w in vec.items()} if norm else {}

    doc_vecs = [weight_vector(g) for g in page_grams]
    q_vec = weight_vector(_grams(query, n_min, n_max))
    out = []
    for page, vec in zip(corpus.pages, doc_vecs):
        s = sum(q * vec.get(f, 0.0) for f, q in q_vec.items())
        if s > 0.0:
            out.append(((page.doc_id, page.page_index), min(1.0, s)))
    out.sort(key=lambda item: (-item[1], item[0]))
    return out


class TestBuild:
    def test_two_page_worked_example(self):
        # pages "x x y" and "y", single-token features: every weight is
        # computable by hand from tf/idf/normalization.
        corpus = _corpus(("d", ["x x y", "y"]))
        index = build_lexical_index(corpus, n_min=1, n_max=1)
        fid_x = index.vocabulary.feature_ids["x"]
        fid_y = index.vocabulary.feature_ids["y"]
        vec_a = dict(index.doc_vectors[0])
        vec_b = dict(index.doc_vectors[1])
        assert vec_a[fid_x] == pytest.approx(0.9219069698164416, abs=1e-12)
        assert vec_a[fid_y] == pytest.approx(0.3874113305052739, abs=1e-12)
        assert vec_b[fid_y] == pytest.approx(1.0, abs=1e-12)

    def test_worked_example_scores(self):
        corpus = _corpus(("d", ["x x y", "y"]))
        index = build_lexical_index(corpus, n_min=1, n_max=1)
        scores = dict(score_lexical(index, "x y"))
        assert scores[("d", 0)] == pytest.approx(0.9757694105051146, abs=1e-12)
        assert scores[("d", 1)] == pytest.approx(0.5797386715376657, abs=1e-12)

    def test_doc_vectors_unit_norm(self):
        corpus = _corpus(("d", ["alpha beta gamma", "beta beta delta", "epsilon"]))
        index = build_lexical_index(corpus)
        for vec in index.doc_vectors:
            if vec:
                norm = math.sqrt(sum(w * w for _, w in vec))
                assert norm == pytest.approx(1.0, abs=1e-12)
            for _, w in vec:
                assert w > 0.0

    def test_vocabulary_caps_by_df_then_lexicographic(self):
        # df: a -> 3 pages, b -> 2 pages, c -> 1 page
        corpus = _corpus(("d", ["a b", "a b c", "a"]))
        index = build_lexical_index(corpus, max_features=1, n_min=1, n_max=1)
        assert set(index.vocabulary.feature_ids) == {"a"}
        index2 = build_lexical_index(corpus, max_features=2, n_min=1, n_max=1)
        assert set(index2.vocabulary.feature_ids) == {"a", "b"}

    def test_df_tie_broken_lexicographically(self):
        corpus = _corpus(("d", ["b a", "a b"]))  # both df=2
        index = build_lexical_index(corpus, max_features=1, n_min=1, n_max=1)
        assert set(index.vocabulary.feature_ids) == {"a"}

    def test_vocabulary_monotone_in_max_features(self):
        corpus = _corpus(("d", ["w x y z", "x y", "y z w", "q r s"]))
        small = build_lexical_index(corpus, max_features=3, n_min=1, n_max=1)
        large = build_lexical_index(corpus, max_features=6, n_min=1, n_max=1)
        assert set(small.vocabulary.feature_ids) <= set(large.vocabulary.feature_ids)

    def test_ids_dense_and_df_bounded(self):
        corpus = _corpus(("d", ["a b c", "b c", "c"]))
        index = build_lexical_index(corpus, n_min=1, n_max=2)
        ids = sorted(index.vocabulary.feature_ids.values())
        assert ids == list(range(len(ids)))
        assert all(1 <= df <= corpus.page_count for df in index.vocabulary.df)

    def test_empty_corpus_rejected(self):
        hollow = Corpus(pages=(), doc_count=0, page_count=0)
        with pytest.raises(ValueError):
            build_lexical_index(hollow)

    def test_bad_max_features_rejected(self):
        corpus = _corpus(("d", ["a"]))
        with pytest.raises(ValueError):
            build_lexical_index(corpus, max_features=0)


class TestScore:
    def test_query_matching_whole_page_ranks_it_first(self):
        corpus = _corpus(
            ("d", ["cats purr softly", "dogs bark loudly", "fish swim quietly"])
        )
        index = build_lexical_index(corpus)
        ranked = score_lexical(index, "dogs bark loudly")
        assert ranked[0][0] == ("d", 1)
        assert ranked[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_query_returns_empty(self):
        corpus = _corpus(("d", ["alpha beta", "gamma delta"]))
        index = build_lexical_index(corpus)
        assert score_lexical(index, "omega psi") == []

    def test_scores_bounded_and_sorted(self):
        corpus = _corpus(("d", ["a b c d", "a b", "c d", "a d"]))
        index = build_lexical_index(corpus, n_min=1, n_max=2)
        ranked = score_lexical(index, "a b c")
        assert all(0.0 <= s <= 1.0 for _, s in ranked)
        assert [s for _, s in ranked] == sorted((s for _, s in ranked), reverse=True)

    def test_tie_break_by_page_ref(self):
        # two identical pages in different docs tie exactly; doc_id decides
        corpus = _corpus(("a", ["same text"]), ("b", ["same text"]))
        index = build_lexical_index(corpus)
        ranked = score_lexical(index, "same text")
        assert [r for r, _ in ranked] == [("a", 0), ("b", 0)]

    def test_matches_reference_on_seeded_corpora(self):
        rng = np.random.default_rng(1234)
        alphabet = ["kawa", "yama", "umi", "sora", "hoshi", "tsuki", "hana", "yuki"]
        for _ in range(8):
            n_docs = int(rng.integers(1, 4))
            spec = []
            for d in range(n_docs):
                n_pages = int(rng.integers(1, 5))
                texts = [
                    " ".join(rng.choice(alphabet, size=rng.integers(1, 30)))
                    for _ in range(n_pages)
                ]
                spec.append((f"doc{d}", texts))
            corpus = _corpus(*spec)
            index = build_lexical_index(corpus, n_min=1, n_max=3)
            query = " ".join(rng.choice(alphabet, size=5))
            got = score_lexical(index, query)
            want = _reference_scores(corpus, query, n_min=1, n_max=3)
            assert [r for r, _ in got] == [r for r, _ in want]
            np.testing.assert_allclose(
                [s for _, s in got], [s for _, s in want], rtol=1e-9, atol=0
            )


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        corpus = _corpus(("d", ["日本語のテキスト 12%", "second ページ", "third"]))
        index = build_lexical_index(corpus, n_min=1, n_max=3)
        path = tmp_path / "lex.idx"
        save_lexical_index(index, path)
        loaded = load_lexical_index(path)
        assert loaded.vocabulary.feature_ids == index.vocabulary.feature_ids
        assert loaded.vocabulary.df == index.vocabulary.df
        assert loaded.page_refs == index.page_refs
        assert loaded.doc_vectors == index.doc_vectors  # bit-exact weights
        assert (loaded.n_min, loaded.n_max) == (index.n_min, index.n_max)

    def test_scores_survive_round_trip(self, tmp_path):
        corpus = _corpus(("d", ["alpha beta gamma", "beta delta"]))
        index = build_lexical_index(corpus)
        path = tmp_path / "lex.idx"
        save_lexical_index(index, path)
        loaded = load_lexical_index(path)
        assert score_lexical(loaded, "beta gamma") == score_lexical(index, "beta gamma")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "lex.idx"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="not a lexical index"):
            load_lexical_index(path)

    def test_truncation_rejected(self, tmp_path):
        corpus = _corpus(("d", ["alpha beta", "gamma"]))
        index = build_lexical_index(corpus)
        path = tmp_path / "lex.idx"
        save_lexical_index(index, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(FormatError):
            load_lexical_index(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        corpus = _corpus(("d", ["alpha beta"]))
        index = build_lexical_index(corpus)
        path = tmp_path / "lex.idx"
        save_lexical_index(index, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            load_lexical_index(path)

    def test_magic_constant(self):
        assert LEXICAL_MAGIC == b"LEXI"


# ---------------------------------------------------------------------------
# Corrupt files: each one loads or raises FormatError, never another exception


def _sample_index():
    corpus = _corpus(("d", ["日本語のテキスト 12%", "alpha beta"]), ("e", ["gamma 3"]))
    return build_lexical_index(corpus, n_min=1, n_max=2)


@functools.cache
def _sample_file() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lex.idx"
        save_lexical_index(_sample_index(), path)
        return path.read_bytes()


def _load_bytes(tmp_path, data: bytes):
    path = tmp_path / "corrupt.idx"
    path.write_bytes(data)
    return load_lexical_index(path)


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

    @pytest.mark.parametrize(
        "offset", [8, 12, 16, 24],
        ids=["page_count", "vocab_size", "n_min", "first_feature_length"])
    def test_huge_header_count_rejected(self, tmp_path, offset):
        data = bytearray(_sample_file())
        struct.pack_into("<I", data, offset, 0xFFFFFFFF)
        with pytest.raises(FormatError):
            _load_bytes(tmp_path, bytes(data))

    @pytest.mark.parametrize("n_min, n_max", [(0, 2), (3, 2)])
    def test_gram_range_outside_one_to_n_max_rejected(self, tmp_path, n_min, n_max):
        data = bytearray(_sample_file())
        struct.pack_into("<II", data, 16, n_min, n_max)
        with pytest.raises(FormatError, match="n-gram range"):
            _load_bytes(tmp_path, bytes(data))

    @pytest.mark.parametrize("vector", [
        lambda size: [(0, 0.6), (size, 0.8)],
        lambda size: [(2, 0.6), (1, 0.8)],
        lambda size: [(1, 0.6), (1, 0.8)],
        lambda size: [(0, 0.6), (1, float("nan"))],
        lambda size: [(0, float("inf"))],
    ], ids=["feature_id_at_vocabulary_size", "descending_ids", "repeated_id",
            "nan_weight", "infinite_weight"])
    def test_page_vector_its_writer_never_produces_rejected(self, tmp_path, vector):
        index = _sample_index()
        index.doc_vectors[1] = vector(index.vocabulary.size)
        path = tmp_path / "lex.idx"
        save_lexical_index(index, path)
        with pytest.raises(FormatError, match="page vector"):
            load_lexical_index(path)

    @pytest.mark.parametrize("df", [0, 4, 0xFFFFFFFF],
                             ids=["zero", "page_count_plus_one", "u32_max"])
    def test_document_frequency_outside_one_to_page_count_rejected(self, tmp_path, df):
        index = _sample_index()
        index.vocabulary.df[0] = df
        path = tmp_path / "lex.idx"
        save_lexical_index(index, path)
        with pytest.raises(FormatError, match=r"document frequency outside 1\.\.3"):
            load_lexical_index(path)

    def test_huge_n_max_scores_like_the_saved_range(self, tmp_path):
        index = _sample_index()
        data = bytearray(_sample_file())
        struct.pack_into("<I", data, 20, 0xFFFFFFFF)
        huge = _load_bytes(tmp_path, bytes(data))
        assert huge.n_max == 0xFFFFFFFF
        queries = ["alpha beta gamma", "日本語 12%", "beta"]
        got: list = []
        # each query's n-grams stop at its token count, so scoring is immediate
        worker = threading.Thread(
            target=lambda: got.extend(score_lexical(huge, q) for q in queries), daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "scoring against n_max=0xFFFFFFFF did not finish"
        assert got == [score_lexical(index, q) for q in queries]


@pytest.mark.parametrize("refs", [[("e", 0), ("d", 0), ("d", 1)], [("d", 0), ("d", 0), ("e", 0)]],
                         ids=["unsorted", "duplicate"])
class TestPageOrder:
    """An index lists its pages in corpus order: refs strictly ascending."""

    def test_constructor_rejects(self, refs):
        with pytest.raises(ValueError, match="strictly ascending"):
            dataclasses.replace(_sample_index(), page_refs=refs)

    def test_loader_rejects(self, tmp_path, refs):
        index = _sample_index()
        index.page_refs = refs
        path = tmp_path / "lex.idx"
        save_lexical_index(index, path)
        with pytest.raises(FormatError, match="strictly ascending"):
            load_lexical_index(path)
