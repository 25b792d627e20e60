"""TF-IDF index construction and scoring against direct formula evaluation.

The reference oracle here evaluates the stated weighting scheme — sublinear
tf (1 + ln tf), smoothed idf (ln((1+N)/(1+df)) + 1), L2 normalization,
cosine via dot product — with plain dict arithmetic, independent of the
index's postings machinery.
"""

import dataclasses
import functools
import math
import os
import random
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from collections import Counter
from contextlib import nullcontext
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import docqa_engine
from docqa_engine import lexical
from docqa_engine.corpus import Corpus, Page
from docqa_engine.errors import FormatError
from docqa_engine.lexical import (
    DEFAULT_MAX_FEATURES,
    LEXICAL_MAGIC,
    LexicalIndex,
    Vocabulary,
    build_lexical_index,
    idf_table,
    load_lexical_index,
    page_features,
    save_lexical_index,
    score_lexical,
    tfidf_weights,
)
from docqa_engine.retriever import check_indexes
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
        hollow = Corpus(pages=())
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

    def test_full_width_query_scores_like_its_normalized_form(self):
        # pages are indexed from normalize_text output, so the query is normalized too
        corpus = _corpus(("d", ["FY2023 2023年 売上高", "人事 制度"]))
        index = build_lexical_index(corpus)
        half = score_lexical(index, "FY2023 2023年")
        assert half and half[0][0] == ("d", 0)
        assert score_lexical(index, "ＦＹ２０２３　２０２３年") == half

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


    def test_scores_equal_a_postings_walk_float_for_float(self):
        # the reference adds each page's products in query-feature order, as
        # the scorer must; its floats, not just a tolerance, must agree
        rng = np.random.default_rng(99)
        alphabet = ["kawa", "yama", "umi", "sora", "hoshi", "tsuki", "hana", "yuki"]
        corpus = _corpus(*[(f"doc{d}", [" ".join(rng.choice(alphabet, size=rng.integers(1, 40)))
                                         for _ in range(5)]) for d in range(4)])
        index = build_lexical_index(corpus, n_min=1, n_max=3)
        postings: dict = {}
        for row, vector in enumerate(index.doc_vectors):
            for fid, weight in vector:
                postings.setdefault(fid, []).append((row, weight))
        for _ in range(20):
            query = " ".join(rng.choice(alphabet, size=6))
            grams = Counter(ngrams(tokenize(query), 1, 3))
            fids = np.array([index.vocabulary.feature_ids[g] for g in grams
                             if g in index.vocabulary.feature_ids], dtype=np.int64)
            tfs = np.array([tf for g, tf in grams.items() if g in index.vocabulary.feature_ids])
            acc = [0.0] * corpus.page_count
            q_weights = tfidf_weights(fids, tfs, index.idf, np.zeros(len(fids), dtype=np.intp))
            for fid, q_weight in zip(fids.tolist(), q_weights.tolist()):
                for row, d_weight in postings.get(fid, ()):
                    acc[row] += q_weight * d_weight
            # the first and last documents sit at the edges of the row slice
            for doc_id in (None, "doc0", "doc2", "doc3", "absent"):
                want = sorted(((ref, min(s, 1.0)) for ref, s in zip(index.page_refs, acc)
                               if s > 0.0 and doc_id in (None, ref[0])),
                              key=lambda hit: (-hit[1], hit[0]))
                assert score_lexical(index, query, doc_id=doc_id) == want


def _plain_python_build(corpus, max_features=DEFAULT_MAX_FEATURES, n_min=1, n_max=5):
    """The build as it was before gram ids: a gram Counter per page, a full
    sort for the vocabulary, and per-pair weights whose norm an explicit loop
    adds left to right."""
    page_grams = [Counter(ngrams(tokenize(p.normalized_text), n_min, n_max)) for p in corpus.pages]
    df_counts = Counter(chain.from_iterable(page_grams))
    selection = sorted(df_counts.items(), key=lambda item: (-item[1], item[0]))[:max_features]
    feature_ids = {feature: fid for fid, (feature, _) in enumerate(selection)}
    df = np.array([count for _, count in selection], dtype=np.uint32)
    n = corpus.page_count
    entries = []  # (feature id, row, weight)
    for row, grams in enumerate(page_grams):
        pairs = [(fid, (1.0 + math.log(tf)) * (math.log((1 + n) / (1 + df[fid])) + 1.0))
                 for feature, tf in grams.items() if (fid := feature_ids.get(feature)) is not None]
        norm = 0.0
        for _, w in pairs:
            norm += w * w
        entries.extend((fid, row, w / math.sqrt(norm)) for fid, w in pairs)
    entries.sort()  # column-major: by feature id, then row
    return LexicalIndex(Vocabulary("\n".join(feature_ids).encode(), df), corpus.page_refs,
                        rows=np.array([row for _, row, _ in entries], dtype=np.uint32),
                        weights=np.array([w for _, _, w in entries], dtype=np.float64),
                        n_min=n_min, n_max=n_max, fingerprint=corpus.fingerprint)


def _saved_bytes(index) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lex.idx"
        save_lexical_index(index, path)
        return path.read_bytes()


# Latin, number, CJK and symbol tokens. U+0001 stands for a control
# character a page's raw text can carry: normalization strips it, so no token
# the build ranks holds a character at or below the n-gram separator.
_PAGE_TEXTS = st.text(alphabet="ab z1.%!報告書年\x01", max_size=24)


class TestArrayBuild:
    @settings(max_examples=200, deadline=None)
    @given(docs=st.lists(st.lists(_PAGE_TEXTS, min_size=1, max_size=4), min_size=1, max_size=3),
           max_features=st.integers(1, 40), n_min=st.integers(1, 3), extra=st.integers(0, 2))
    @example(docs=[["a b", "a z"]], max_features=2, n_min=1, extra=0)  # the cut splits a df tie
    @example(docs=[["報告書 1.5% ab", "報告書 ab z"]], max_features=40, n_min=2, extra=1)
    @example(docs=[["a a", "a", "z"], [""]], max_features=1, n_min=1, extra=0)  # rows with no feature
    @example(docs=[["報告書年 2024年 1.5% !a"]], max_features=40, n_min=1, extra=2)  # one page
    @example(docs=[["! !\x01 !a"]], max_features=40, n_min=1, extra=1)
    def test_saved_bytes_equal_the_plain_python_build(self, docs, max_features, n_min, extra):
        corpus = Corpus.from_pages(
            Page(f"d{d}", i, text)
            for d, texts in enumerate(docs) for i, text in enumerate(texts))
        args = (corpus, max_features, n_min, n_min + extra)
        assert _saved_bytes(build_lexical_index(*args)) == _saved_bytes(_plain_python_build(*args))

    @settings(max_examples=100, deadline=None)
    @given(text=_PAGE_TEXTS, n_min=st.integers(1, 3), extra=st.integers(0, 2))
    def test_one_page_grams_are_its_page_features(self, text, n_min, extra):
        # pages and queries are counted by one rule
        corpus = Corpus.from_pages([Page.from_raw("d", 0, text)])
        index = build_lexical_index(corpus, n_min=n_min, n_max=n_min + extra)
        grams = page_features(corpus.pages[0].normalized_text, n_min, n_min + extra)
        assert index.vocabulary.feature_ids.keys() == grams.keys()
        fids = np.array([index.vocabulary.feature_ids[g] for g in grams], dtype=np.int64)
        weights = tfidf_weights(fids, np.array(list(grams.values())), index.idf,
                                np.zeros(len(fids), dtype=np.intp))
        assert index.doc_vectors == [sorted(zip(fids.tolist(), weights.tolist()))]

    def test_norm_adds_squares_left_to_right(self):
        # each 1e-16 square is lost against 1.0 one at a time, but a pairwise
        # or compensated sum (builtin sum from Python 3.12 on) keeps them
        idf = np.array([1.0] + [1e-8] * 10)
        total = 0.0
        for w in idf.tolist():
            total += w * w
        assert total != math.fsum(w * w for w in idf.tolist())
        weights = tfidf_weights(np.arange(11), np.ones(11, dtype=np.int64), idf, np.zeros(11, int))
        assert weights.tolist() == [w / math.sqrt(total) for w in idf.tolist()]
        # a second row, the same features in reverse, whose entries interleave
        # with the first row's: each row's squares still add left to right
        # (the second row's 1e-16 squares add up before they meet 1.0)
        reverse = 0.0
        for w in idf[::-1].tolist():
            reverse += w * w
        assert reverse != total
        fids = np.stack([np.arange(11), np.arange(11)[::-1]], axis=1).ravel()
        both = tfidf_weights(fids, np.ones(22, dtype=np.int64), idf, np.tile([0, 1], 11))
        assert both[0::2].tolist() == [w / math.sqrt(total) for w in idf.tolist()]
        assert both[1::2].tolist() == [w / math.sqrt(reverse) for w in idf[::-1].tolist()]

    def test_empty_gram_range_rejected(self):
        with pytest.raises(ValueError, match="n-gram range"):
            build_lexical_index(_corpus(("d", ["a"])), n_min=3, n_max=2)


def _report_pages(pages=300, seed=11):
    """Seeded yearly-report-like pages, 20 per document, of about 1,400
    characters of Japanese words, Latin words, numbers and punctuation."""
    rng = random.Random(seed)
    kanji = ["売上高", "営業利益", "経常利益", "当期", "前年", "設備投資", "研究開発", "事業", "海外",
             "国内", "部門", "製品", "増加", "減少", "推移", "計画", "人材", "環境", "拠点", "市場"]
    kana = ["の", "は", "が", "を", "に", "した", "ました", "について", "および", "ため"]
    latin = ["revenue", "margin", "growth", "segment", "IoT", "ESG", "DX", "cloud", "Q1", "Q4"]
    pieces = [lambda: rng.choice(kanji), lambda: rng.choice(kana), lambda: " " + rng.choice(latin) + " ",
              lambda: f"{rng.randint(1, 9999)}", lambda: f"{rng.uniform(0, 100):.1f}%", lambda: "、",
              lambda: "。"]
    return Corpus.from_pages(
        Page.from_raw(f"rep{i // 20:03d}", i % 20, "".join(
            rng.choice(pieces)() for _ in range(450)))
        for i in range(pages))


class TestBuildResources:
    def test_idf_is_derived_from_the_saved_df(self, tmp_path):
        index = build_lexical_index(_corpus(("d", ["a b a", "b c"]), ("e", ["c 2024年"])), n_max=2)
        want = idf_table(index.vocabulary.df, index.page_count)
        assert index.idf.dtype == want.dtype and index.idf.tobytes() == want.tobytes()
        save_lexical_index(index, tmp_path / "lex.idx")
        assert load_lexical_index(tmp_path / "lex.idx").idf.tobytes() == want.tobytes()
        assert dataclasses.replace(index).idf.tobytes() == want.tobytes()

    def test_only_rows_and_weights_hold_an_entry_per_nonzero(self, tmp_path):
        # 4 features, 9 nonzeros: any other per-nonzero array is derived state
        index = build_lexical_index(_corpus(("d", ["a b c", "a b d", "a c d"])), n_max=1)
        save_lexical_index(index, tmp_path / "lex.idx")
        for each in (index, load_lexical_index(tmp_path / "lex.idx")):
            arrays = {name: len(value) for name, value in vars(each).items()
                      if isinstance(value, np.ndarray)}
            assert (arrays.pop("rows"), arrays.pop("weights"), each.vocabulary.size) == (9, 9, 4)
            assert {name: n for name, n in arrays.items() if n > 4 + 1} == {}

    def test_peak_traced_allocation_is_bounded(self):
        # 37.6 MB traced on numpy 2.4 and Python 3.11, bounded at 1.5 times
        # that; the build that kept int64 pairs, held them twice and made a
        # Token per token traced 114.8 MB
        corpus = _report_pages()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            build_lexical_index(corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 56 * 2**20

    def test_an_index_holds_its_file_and_a_few_arrays_per_feature(self, tmp_path):
        # 36.5 bytes per feature past the file's size on numpy 2.4 and Python 3.11:
        # the sorted keys, the slots in key order, the idf and the column offsets.
        # The vocabulary that held a dict of feature strings took 179.5.
        corpus = _report_pages()
        path = tmp_path / "lex.idx"
        save_lexical_index(build_lexical_index(corpus), path)
        for make in (functools.partial(build_lexical_index, corpus),
                     functools.partial(load_lexical_index, path)):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                index = make()
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert index.vocabulary.size == DEFAULT_MAX_FEATURES
            assert held <= path.stat().st_size + 48 * index.vocabulary.size

    def test_vocabulary_construction_peak_is_bounded(self):
        # 88.0 traced bytes per feature at the peak on numpy 2.4 and Python 3.11: the
        # spans, the keys, their order and the slots. Keying a Python list per feature
        # (``spans.tolist()``) took 175.9.
        vocabulary = build_lexical_index(_report_pages()).vocabulary
        tracemalloc.start()
        try:
            Vocabulary(vocabulary.features, vocabulary.df)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vocabulary.size == DEFAULT_MAX_FEATURES
        assert peak <= 120 * vocabulary.size


def _find(vocabulary, grams):
    return vocabulary.find([gram.encode() for gram in grams])


def _colliding_key(gram):
    return 0


# no feature holds "\n", the vocabulary's separator, nor is empty
_FEATURES = st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
                    min_size=1, max_size=12)


class TestVocabularyLookup:
    @settings(max_examples=300, deadline=None)
    @given(features=st.lists(_FEATURES, unique=True, max_size=40),
           absent=st.lists(_FEATURES, max_size=10), picks=st.lists(st.integers(0, 99), max_size=30),
           collide=st.booleans())
    @example(features=["a", "ab", "報告"], absent=["b", "報"], picks=[0, 1, 2, 3, 4, 2],
             collide=False)  # grams that begin a feature or are part of one, non-ASCII
    def test_find_agrees_with_a_dict(self, features, absent, picks, collide):
        oracle = {feature: fid for fid, feature in enumerate(features)}
        pool = features + absent
        grams = [pool[i % len(pool)] for i in picks] if pool else []
        with mock.patch.object(lexical, "_gram_key", _colliding_key) if collide else nullcontext():
            vocabulary = Vocabulary("\n".join(features).encode(), np.ones(len(features), np.uint32))
            assert _find(vocabulary, grams) == [oracle[g] for g in grams if g in oracle]
        assert vocabulary.feature_ids == oracle

    def test_find_stays_exact_when_every_key_collides(self, monkeypatch):
        monkeypatch.setattr(lexical, "_gram_key", _colliding_key)
        vocabulary = Vocabulary("alpha\nbeta\n日本語\nalpha\x1fbeta".encode(), np.ones(4, np.uint32))
        grams = ["beta", "gamma", "alpha\x1fbeta", "日本", "日本語", "alpha", "alph"]
        assert _find(vocabulary, grams) == [1, 3, 2, 0]
        with pytest.raises(ValueError, match="3 features, 2 of them distinct"):
            Vocabulary(b"a\nb\na", np.ones(3, np.uint32))

    def test_scores_do_not_change_when_every_key_collides(self, monkeypatch):
        index = _sample_index()
        queries = ["alpha beta gamma", "日本語のテキスト 12%", "beta 3", "delta"]
        want = [score_lexical(index, q) for q in queries]
        monkeypatch.setattr(lexical, "_gram_key", _colliding_key)
        vocabulary = Vocabulary(index.vocabulary.features, index.vocabulary.df)
        collided = dataclasses.replace(index, vocabulary=vocabulary)
        assert [score_lexical(collided, q) for q in queries] == want
        assert any(want)


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        corpus = _corpus(("d", ["日本語のテキスト 12%", "second ページ", "third"]))
        index = build_lexical_index(corpus, n_min=1, n_max=3)
        path = tmp_path / "lex.idx"
        save_lexical_index(index, path)
        loaded = load_lexical_index(path)
        assert loaded.vocabulary.feature_ids == index.vocabulary.feature_ids
        assert loaded.vocabulary.df.tolist() == index.vocabulary.df.tolist()
        assert loaded.page_refs == index.page_refs
        assert loaded.doc_vectors == index.doc_vectors  # bit-exact weights
        assert (loaded.n_min, loaded.n_max) == (index.n_min, index.n_max)

    def test_a_failed_save_leaves_the_old_file_whole(self, tmp_path):
        index = _sample_index()
        path = tmp_path / "lex.idx"
        save_lexical_index(index, path)
        old = path.read_bytes()
        # a page ref that is no string fails after the header and the features are written
        bad = dataclasses.replace(index, page_refs=[(i, 0) for i in range(index.page_count)])
        with pytest.raises(AttributeError):
            save_lexical_index(bad, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["lex.idx"]

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

    def test_version_1_file_rejected_naming_its_version(self, tmp_path):
        with pytest.raises(FormatError, match=r"version 1: rebuild it with `docqa build-index`"):
            _load_bytes(tmp_path, V1_FILE)

    def test_version_2_file_rejected_naming_its_version(self, tmp_path):
        with pytest.raises(FormatError, match=r"version 2: rebuild it with `docqa build-index`"):
            _load_bytes(tmp_path, V2_FILE)

    def test_saved_bytes_do_not_depend_on_hash_seed(self, tmp_path):
        # vocabulary selection and the file must not follow dict or set
        # order, which changes with the string hash seed
        script = (
            "import sys\n"
            "from docqa_engine.corpus import Corpus, Page\n"
            "from docqa_engine.lexical import build_lexical_index, save_lexical_index\n"
            "texts = ['kawa yama umi sora', 'sora umi hoshi tsuki', 'hana yuki kawa tsuki',"
            " '日本語のテキスト 12% kawa', 'yama hana 3.5 yuki']\n"
            "corpus = Corpus.from_pages(Page.from_raw(f'doc{i % 2}', i // 2, t)"
            " for i, t in enumerate(texts))\n"
            "save_lexical_index(build_lexical_index(corpus, max_features=9, n_min=1, n_max=3),"
            " sys.argv[1])\n"
        )
        src = str(Path(docqa_engine.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "1", "4242"):
            path = tmp_path / f"lex-{seed}.idx"
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True,
                           timeout=120)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# Corrupt files: each one loads or raises FormatError, never another exception


def _sample_corpus():
    return _corpus(("d", ["日本語のテキスト 12%", "alpha beta"]), ("e", ["gamma 3"]))


def _sample_index():
    return build_lexical_index(_sample_corpus(), n_min=1, n_max=2)


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


# A whole index in the version 1 layout: header, each feature with its df,
# then each page's ref and its (feature id, weight) pairs.
V1_FILE = (LEXICAL_MAGIC + struct.pack("<IIIII", 1, 1, 1, 1, 1)
           + struct.pack("<I", 1) + b"a" + struct.pack("<I", 1)
           + struct.pack("<I", 1) + b"d" + struct.pack("<II", 0, 1) + struct.pack("<Id", 0, 1.0))

# The same in the version 2 layout: header, the features, df, page refs,
# then the page-major CSR arrays (page offsets, feature ids, weights).
V2_FILE = (LEXICAL_MAGIC + struct.pack("<IIIIIQQ", 2, 1, 1, 1, 1, 1, 1) + b"a"
           + struct.pack("<I", 1) + struct.pack("<I", 1) + b"d" + struct.pack("<I", 0)
           + struct.pack("<qqId", 0, 1, 0, 1.0))

_FINGERPRINT_AT = 40  # the corpus fingerprint ends _HEADER, past the magic and the version
_BLOB_AT = 72  # the vocabulary blob follows it


def _with_column(index, fid, pairs):
    """The index with feature ``fid``'s CSC entries replaced, in place and so
    past the constructor's checks, by (row, weight) ``pairs``, and its df by
    their count."""
    start = sum(index.vocabulary.df[:fid])
    end = start + index.vocabulary.df[fid]
    index.rows = np.concatenate([index.rows[:start], [r for r, _ in pairs], index.rows[end:]])
    index.weights = np.concatenate([index.weights[:start], [w for _, w in pairs],
                                    index.weights[end:]])
    index.vocabulary.df[fid] = len(pairs)
    return index


def _with_vocabulary(edit) -> bytes:
    """The sample file with its feature list edited in place; the blob keeps its byte length."""
    data = bytearray(_sample_file())
    (size,) = struct.unpack_from("<Q", data, 24)
    blob = "\n".join(edit(data[_BLOB_AT:_BLOB_AT + size].decode().split("\n"))).encode()
    assert len(blob) == size
    data[_BLOB_AT:_BLOB_AT + size] = blob
    return bytes(data)


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
        "offset", [8, 12, 16, 24, 32],
        ids=["page_count", "vocab_size", "n_min", "vocabulary_bytes", "nnz"])
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

    @pytest.mark.parametrize("column, message", [
        (lambda pages: [(0, 0.6), (pages, 0.8)], "column rows must ascend strictly"),
        (lambda pages: [(2, 0.6), (1, 0.8)], "column rows must ascend strictly"),
        (lambda pages: [(1, 0.6), (1, 0.8)], "column rows must ascend strictly"),
        (lambda pages: [(0, 0.6), (1, float("nan"))], "non-finite weight"),
        (lambda pages: [(0, float("inf"))], "non-finite weight"),
    ], ids=["row_at_page_count", "descending_rows", "repeated_row", "nan_weight",
            "infinite_weight"])
    def test_page_vector_its_writer_never_produces_rejected(self, tmp_path, column, message):
        # each edit puts an entry into some page's vector that the writer never does
        index = _sample_index()
        index = _with_column(index, 1, column(index.page_count))
        path = tmp_path / "lex.idx"
        save_lexical_index(index, path)
        with pytest.raises(FormatError, match=message):
            load_lexical_index(path)

    def test_document_frequencies_not_adding_up_to_nnz_rejected(self, tmp_path):
        index = _sample_index()
        index.vocabulary.df[0] += 1
        path = tmp_path / "lex.idx"
        save_lexical_index(index, path)
        with pytest.raises(FormatError, match=r"document frequencies add up to \d+, but"):
            load_lexical_index(path)

    def test_constructor_rejects_df_other_than_the_column_lengths(self):
        index = _sample_index()
        df = [*index.vocabulary.df[:-1], index.vocabulary.df[-1] + 1]
        with pytest.raises(ValueError, match="document frequencies add up to"):
            dataclasses.replace(index, vocabulary=Vocabulary(index.vocabulary.features, df))

    def test_constructor_rejects_a_negative_column_length(self):
        # the right total, so only the sign tells these lengths from real ones
        index = _sample_index()
        df = [*index.vocabulary.df[:-2], sum(index.vocabulary.df[-2:]) + 1, -1]
        with pytest.raises(ValueError, match="document frequencies add up to"):
            dataclasses.replace(index, vocabulary=Vocabulary(index.vocabulary.features, df))

    @pytest.mark.parametrize("edit, message", [
        (lambda index: {"weights": np.where(np.arange(len(index.weights)) == 1, np.nan,
                                            index.weights)}, "non-finite weight"),
        (lambda index: {"vocabulary": Vocabulary(index.vocabulary.features,
                                                 [0, *index.vocabulary.df[1:]])},
         r"document frequency outside 1\.\.3"),
        (lambda index: {"n_min": 3}, r"n-gram range \[3, 2\] is invalid"),
    ], ids=["nan_weight", "zero_df", "gram_range"])
    def test_constructor_holds_the_loaders_checks(self, edit, message):
        # a library-made index is held to the rules a loaded one is, in the loader's words
        index = _sample_index()
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(index, **edit(index))

    def test_fingerprint_field_names_the_indexed_pages(self, tmp_path):
        # any 32 bytes load; another corpus's fingerprint is rejected before use
        corpus = _sample_corpus()
        assert _load_bytes(tmp_path, _sample_file()).fingerprint == corpus.fingerprint
        data = bytearray(_sample_file())
        data[_FINGERPRINT_AT + 31] ^= 1
        loaded = _load_bytes(tmp_path, bytes(data))
        assert loaded.fingerprint == bytes(data[_FINGERPRINT_AT:_BLOB_AT])
        with pytest.raises(FormatError, match="LexicalIndex lists other pages"):
            check_indexes(corpus.fingerprint, loaded)

    @pytest.mark.parametrize("edit", [
        lambda features: [f.replace("alpha", "al\nha") for f in features],
        lambda features: [features[0] + "\x1f" + features[1], *features[2:]],
        lambda features: ["alpha" if f == "gamma" else f for f in features],
    ], ids=["more_entries", "fewer_entries", "repeated_feature"])
    def test_vocabulary_other_than_the_header_says_rejected(self, tmp_path, edit):
        with pytest.raises(FormatError, match="distinct; header says"):
            _load_bytes(tmp_path, _with_vocabulary(edit))

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
