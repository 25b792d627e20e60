"""Fusion and adaptive-selection tests.

select_adaptive has a closed form (a rank prefix); the oracle here builds
the result the long way — top-m by rank, union everything at or above the
threshold, cap at top-n — and the two must agree on every random input.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docqa_engine.corpus import Corpus, Page
from docqa_engine.gateway import hash_embedder
from docqa_engine.lexical import build_lexical_index, score_lexical
from docqa_engine.retriever import (
    DEFAULT_POLICY,
    DEFAULT_WEIGHTS,
    FusionWeights,
    ScoredPage,
    SelectionPolicy,
    _minmax,
    fuse,
    retrieval_record,
    retrieve,
    select_adaptive,
)
from docqa_engine.semantic import build_semantic_index, embed_query, search_semantic


def _page(doc: str, idx: int, final: float) -> ScoredPage:
    return ScoredPage(page_ref=(doc, idx), s_tfidf=final, s_semantic=final, s_final=final)


def _ranked(finals: list[float]) -> list[ScoredPage]:
    return [_page("d", i, s) for i, s in enumerate(finals)]


class TestWeightsAndPolicy:
    def test_default_weights(self):
        assert DEFAULT_WEIGHTS.alpha == 0.6
        assert DEFAULT_WEIGHTS.beta == 0.4

    def test_default_policy(self):
        assert (DEFAULT_POLICY.top_m, DEFAULT_POLICY.top_n) == (3, 7)
        assert DEFAULT_POLICY.threshold == 0.3

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FusionWeights(alpha=0.6, beta=0.6)

    def test_weights_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            FusionWeights(alpha=1.2, beta=-0.2)

    def test_degenerate_weights_allowed(self):
        assert FusionWeights(alpha=1.0, beta=0.0).beta == 0.0
        assert FusionWeights(alpha=0.0, beta=1.0).alpha == 0.0

    def test_policy_ordering_enforced(self):
        with pytest.raises(ValueError, match="top_m <= top_n"):
            SelectionPolicy(top_m=8, top_n=7, threshold=0.3)
        with pytest.raises(ValueError, match="top_m <= top_n"):
            SelectionPolicy(top_m=0, top_n=7, threshold=0.3)

    def test_policy_threshold_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SelectionPolicy(top_m=3, top_n=7, threshold=1.5)


class TestMinMax:
    def test_empty(self):
        assert _minmax([]) == {}

    def test_single_entry_maps_to_one(self):
        assert _minmax([(("d", 0), 0.37)]) == {("d", 0): 1.0}

    def test_all_equal_maps_to_one(self):
        out = _minmax([(("d", i), 2.5) for i in range(4)])
        assert set(out.values()) == {1.0}

    def test_endpoints_and_midpoint(self):
        out = _minmax([(("d", 0), 2.0), (("d", 1), 6.0), (("d", 2), 4.0)])
        assert out[("d", 0)] == 0.0
        assert out[("d", 1)] == 1.0
        assert out[("d", 2)] == pytest.approx(0.5)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30, unique=True))
    def test_range_is_unit_interval(self, values):
        out = _minmax([(("d", i), v) for i, v in enumerate(values)])
        assert min(out.values()) == 0.0
        assert max(out.values()) == 1.0
        assert all(0.0 <= v <= 1.0 for v in out.values())


class TestFuse:
    def test_worked_example(self):
        # lex: a0=4, a1=2, a2=0 -> 1.0, 0.5, 0.0; sem: a0=0.2, a1=0.8 -> 0.0, 1.0
        lex = [(("a", 0), 4.0), (("a", 1), 2.0), (("a", 2), 0.0)]
        sem = [(("a", 0), 0.2), (("a", 1), 0.8)]
        out = fuse(lex, sem, FusionWeights(alpha=0.6, beta=0.4))
        by_ref = {sp.page_ref: sp for sp in out}
        assert by_ref[("a", 0)].s_final == pytest.approx(0.6)
        assert by_ref[("a", 1)].s_final == pytest.approx(0.6 * 0.5 + 0.4 * 1.0)
        assert by_ref[("a", 2)].s_final == 0.0

    def test_union_of_candidates_with_zero_fill(self):
        lex = [(("a", 0), 1.0), (("a", 1), 0.5)]
        sem = [(("b", 0), 0.9), (("b", 1), 0.1)]
        out = fuse(lex, sem, FusionWeights(alpha=0.5, beta=0.5))
        assert {sp.page_ref for sp in out} == {("a", 0), ("a", 1), ("b", 0), ("b", 1)}
        by_ref = {sp.page_ref: sp for sp in out}
        assert by_ref[("a", 0)].s_semantic == 0.0
        assert by_ref[("b", 0)].s_tfidf == 0.0

    def test_candidate_k_truncates_each_side(self):
        lex = [(("a", i), 10.0 - i) for i in range(6)]
        out = fuse(lex, [], FusionWeights(alpha=1.0, beta=0.0), candidate_k=3)
        assert {sp.page_ref for sp in out} == {("a", 0), ("a", 1), ("a", 2)}

    def test_sorted_by_final_then_page_ref(self):
        lex = [(("b", 0), 1.0), (("a", 5), 1.0), (("a", 1), 0.0)]
        out = fuse(lex, [], FusionWeights(alpha=1.0, beta=0.0))
        # both top entries normalize to 1.0; ("a", 5) < ("b", 0)
        assert [sp.page_ref for sp in out] == [("a", 5), ("b", 0), ("a", 1)]

    def test_alpha_one_is_pure_lexical_order(self):
        lex = [(("a", i), s) for i, s in enumerate([9.0, 7.0, 4.0, 1.0])]
        sem = [(("a", i), s) for i, s in enumerate([0.1, 0.9, 0.4, 0.8])]
        out = fuse(lex, sem, FusionWeights(alpha=1.0, beta=0.0))
        assert [sp.page_ref for sp in out] == [("a", 0), ("a", 1), ("a", 2), ("a", 3)]

    def test_positive_rescaling_is_a_no_op(self):
        # min-max normalization absorbs any positive affine map of raw scores
        lex = [(("a", i), s) for i, s in enumerate([3.0, 1.5, 0.2, 0.9])]
        sem = [(("a", i), s) for i, s in enumerate([0.7, 0.2, 0.5, 0.6])]
        base = fuse(lex, sem, DEFAULT_WEIGHTS)
        scaled_lex = [(ref, 42.0 * s + 7.0) for ref, s in lex]
        scaled_sem = [(ref, 0.001 * s + 100.0) for ref, s in sem]
        rescaled = fuse(scaled_lex, scaled_sem, DEFAULT_WEIGHTS)
        assert [sp.page_ref for sp in base] == [sp.page_ref for sp in rescaled]
        # the a*s + b map itself loses digits (tiny spread on a big offset),
        # so invariance holds only to ~1e-6 here
        for a, b in zip(base, rescaled):
            assert a.s_final == pytest.approx(b.s_final, rel=1e-6)


class TestSelectAdaptive:
    def test_worked_example(self):
        ranked = _ranked([0.9, 0.5, 0.4, 0.35, 0.2])
        out = select_adaptive(ranked, SelectionPolicy(top_m=3, top_n=7, threshold=0.3))
        assert len(out) == 4
        assert [sp.s_final for sp in out] == [0.9, 0.5, 0.4, 0.35]

    def test_floor_applies_when_everything_is_weak(self):
        ranked = _ranked([0.2, 0.1, 0.05, 0.01])
        out = select_adaptive(ranked, SelectionPolicy(top_m=3, top_n=7, threshold=0.3))
        assert len(out) == 3

    def test_ceiling_applies_when_everything_is_strong(self):
        ranked = _ranked([0.9] * 12)
        out = select_adaptive(ranked, SelectionPolicy(top_m=3, top_n=7, threshold=0.3))
        assert len(out) == 7

    def test_short_input_returned_whole(self):
        ranked = _ranked([0.9, 0.8])
        out = select_adaptive(ranked, SelectionPolicy(top_m=3, top_n=7, threshold=0.3))
        assert out == ranked

    def test_empty_input(self):
        assert select_adaptive([], DEFAULT_POLICY) == []

    def test_boundary_score_counts_as_above(self):
        ranked = _ranked([0.9, 0.5, 0.3, 0.3, 0.1])
        out = select_adaptive(ranked, SelectionPolicy(top_m=1, top_n=7, threshold=0.3))
        assert len(out) == 4

    @given(
        st.lists(st.floats(0, 1), min_size=0, max_size=40),
        st.integers(1, 5),
        st.integers(0, 6),
        st.floats(0, 1),
    )
    @settings(max_examples=200)
    def test_matches_set_builder_oracle(self, finals, top_m, extra, threshold):
        top_n = top_m + extra
        finals = sorted(finals, reverse=True)
        ranked = _ranked(finals)
        policy = SelectionPolicy(top_m=top_m, top_n=top_n, threshold=threshold)
        got = select_adaptive(ranked, policy)

        # build the result the slow way, as a set of kept ranks
        keep = set(range(min(top_m, len(ranked))))
        keep |= {i for i, sp in enumerate(ranked) if sp.s_final >= threshold}
        kept = sorted(keep)[:top_n]
        assert [sp.page_ref for sp in got] == [ranked[i].page_ref for i in kept]


class TestRetrieve:
    @pytest.fixture()
    def corpus(self) -> Corpus:
        pages = [
            Page.from_raw("rpt", 0, "目次 第1章 概要 第2章 売上"),
            Page.from_raw("rpt", 1, "売上高は前年比 12.5% 増の 4200 億円 となった"),
            Page.from_raw("rpt", 2, "研究開発費は 300 億円 で横ばいだった"),
            Page.from_raw("rpt", 3, "従業員数は 1200 人 に増加した"),
        ]
        return Corpus.from_pages(pages)

    def test_lexical_only_path(self, corpus):
        index = build_lexical_index(corpus)
        out = retrieve("売上高は前年比", index, None, DEFAULT_WEIGHTS, DEFAULT_POLICY)
        assert out
        assert out[0].page_ref == ("rpt", 1)
        # no semantic side: every hit scores zero there
        assert all(sp.s_semantic == 0.0 for sp in out)

    def test_no_match_warns_and_returns_empty(self, corpus, caplog):
        index = build_lexical_index(corpus)
        with caplog.at_level("WARNING", logger="docqa_engine.retriever"):
            out = retrieve("zzz unseen zzz", index, None, DEFAULT_WEIGHTS, DEFAULT_POLICY)
        assert out == []
        assert any("matched nothing" in r.message for r in caplog.records)

    def test_respects_policy_bounds(self, corpus):
        index = build_lexical_index(corpus)
        out = retrieve("億円", index, None, DEFAULT_WEIGHTS,
                       SelectionPolicy(top_m=1, top_n=1, threshold=0.0))
        assert len(out) == 1

    def test_record_shape(self, corpus):
        index = build_lexical_index(corpus)
        results = retrieve("売上高", index, None, DEFAULT_WEIGHTS, DEFAULT_POLICY)
        record = retrieval_record("売上高", results, DEFAULT_WEIGHTS, DEFAULT_POLICY)
        assert record["query"] == "売上高"
        assert record["weights"] == {"alpha": 0.6, "beta": 0.4}
        assert record["policy"] == {"top_m": 3, "top_n": 7, "threshold": 0.3}
        assert record["results"]
        first = record["results"][0]
        assert set(first) == {"doc_id", "page_index", "s_tfidf", "s_semantic", "s_final"}
        assert first["doc_id"] == "rpt"


class TestDocRestriction:
    """doc_id narrows the candidates before normalization and selection."""

    @pytest.fixture()
    def corpus(self) -> Corpus:
        pages = [
            Page.from_raw("a", i, f"第{i}四半期の売上高は前年比で増加した。営業利益も改善した。")
            for i in range(8)
        ]
        pages += [
            Page.from_raw("b", 0, "表紙 人事資料"),
            Page.from_raw("b", 1, "人員計画と採用の方針。売上高への言及は少ない。"),
        ]
        return Corpus.from_pages(pages)

    def test_other_document_fills_the_unrestricted_top(self, corpus):
        out = retrieve("売上高は前年比で増加したか", build_lexical_index(corpus), None,
                       DEFAULT_WEIGHTS, DEFAULT_POLICY)
        assert [sp.page_ref[0] for sp in out] == ["a"] * 7

    def test_restricted_query_keeps_its_document(self, corpus):
        out = retrieve("売上高は前年比で増加したか", build_lexical_index(corpus), None,
                       DEFAULT_WEIGHTS, DEFAULT_POLICY, doc_id="b")
        assert [sp.page_ref for sp in out] == [("b", 1)]
        # normalized within the document: its best page scores 1 on the lexical side
        assert out[0].s_tfidf == 1.0

    def test_semantic_side_restricted_too(self, corpus):
        embed_client = SimpleNamespace(embed=hash_embedder(dim=16))
        semantic = build_semantic_index(corpus, embed_client, dim=16)
        out = retrieve("売上高は前年比で増加したか", build_lexical_index(corpus), semantic,
                       DEFAULT_WEIGHTS, DEFAULT_POLICY, client=embed_client, doc_id="b")
        assert sorted(sp.page_ref for sp in out) == [("b", 0), ("b", 1)]


_DOC_IDS = st.text(alphabet="ab報", min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(docs=st.dictionaries(_DOC_IDS, st.lists(st.text(alphabet="xy 1報", max_size=10),
                                               min_size=1, max_size=4),
                            min_size=1, max_size=4),
       query=st.text(alphabet="xy 1報", max_size=8), k=st.integers(1, 12), data=st.data())
def test_doc_restriction_equals_filtered_full_ranking(docs, query, k, data):
    """score_lexical and search_semantic with doc_id keep exactly that
    document's entries of the unrestricted ranking, in the same order."""
    corpus = Corpus.from_pages(Page.from_raw(doc, i, text)
                               for doc, texts in docs.items() for i, text in enumerate(texts))
    doc_id = data.draw(st.one_of(st.sampled_from(sorted(docs)), _DOC_IDS), label="doc_id")
    lexical = build_lexical_index(corpus, n_min=1, n_max=2)
    assert score_lexical(lexical, query, doc_id=doc_id) == [
        hit for hit in score_lexical(lexical, query) if hit[0][0] == doc_id]
    embed_client = SimpleNamespace(embed=hash_embedder(dim=8))
    semantic = build_semantic_index(corpus, embed_client, dim=8)
    q = embed_query(query, embed_client, dim=8)
    full = search_semantic(semantic, q, k=corpus.page_count)
    assert search_semantic(semantic, q, k=k, doc_id=doc_id) == [
        hit for hit in full if hit[0][0] == doc_id][:k]
