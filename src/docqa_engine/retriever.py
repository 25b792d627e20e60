"""Hybrid retrieval: weighted fusion of lexical and semantic scores with
adaptive result-count selection.

Fusion min-max normalizes each retriever's scores over the per-query
candidate set and combines them as alpha * lexical + beta * semantic.
Selection returns a rank prefix: fill to the minimum count from the top,
extend with above-threshold entries up to the maximum.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .corpus import PageRef
from .errors import ConfigError, FormatError
from .lexical import LexicalIndex, score_lexical
from .semantic import SemanticIndex, embed_query, model_name, search_semantic

logger = logging.getLogger(__name__)

DEFAULT_CANDIDATE_K = 50


@dataclass(frozen=True)
class FusionWeights:
    alpha: float  # lexical weight
    beta: float  # semantic weight

    def __post_init__(self):
        if not (self.alpha >= 0 and self.beta >= 0):  # NaN fails every comparison
            raise ValueError("fusion weights must be non-negative")
        if not abs(self.alpha + self.beta - 1.0) <= 1e-12:
            raise ValueError("fusion weights must sum to 1")


@dataclass(frozen=True)
class SelectionPolicy:
    top_m: int  # minimum result count
    top_n: int  # maximum result count
    threshold: float  # fused-score threshold for results beyond top_m

    def __post_init__(self):
        if not 1 <= self.top_m <= self.top_n:
            raise ValueError("require 1 <= top_m <= top_n")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


DEFAULT_WEIGHTS = FusionWeights(alpha=0.6, beta=0.4)
DEFAULT_POLICY = SelectionPolicy(top_m=3, top_n=7, threshold=0.3)


@dataclass(frozen=True)
class ScoredPage:
    page_ref: PageRef
    s_tfidf: float  # normalized lexical score in [0, 1]
    s_semantic: float  # normalized semantic score in [0, 1]
    s_final: float  # alpha * s_tfidf + beta * s_semantic

    def to_record(self) -> dict:
        return {
            "doc_id": self.page_ref[0],
            "page_index": self.page_ref[1],
            "s_tfidf": self.s_tfidf,
            "s_semantic": self.s_semantic,
            "s_final": self.s_final,
        }


def _minmax(scored: list[tuple[PageRef, float]]) -> dict[PageRef, float]:
    """Min-max normalize one retriever's candidate scores to [0, 1].

    An all-equal list (including a single entry) maps to 1.0 everywhere so
    the sole or uniformly-best candidates keep full weight.
    """
    if not scored:
        return {}
    values = [s for _, s in scored]
    lo, hi = min(values), max(values)
    if hi == lo:
        return {ref: 1.0 for ref, _ in scored}
    return {ref: (s - lo) / (hi - lo) for ref, s in scored}


def fuse(
    lex: list[tuple[PageRef, float]],
    sem: list[tuple[PageRef, float]],
    weights: FusionWeights,
    candidate_k: int = DEFAULT_CANDIDATE_K,
) -> list[ScoredPage]:
    """Combine per-retriever rankings into fused ScoredPages, descending.

    The candidate set is the union of each retriever's top candidate_k
    entries; a page missing from one retriever scores 0 on that side.
    """
    lex_norm = _minmax(lex[:candidate_k])
    sem_norm = _minmax(sem[:candidate_k])
    candidates = set(lex_norm) | set(sem_norm)
    fused = []
    for ref in candidates:
        s_tfidf = lex_norm.get(ref, 0.0)
        s_semantic = sem_norm.get(ref, 0.0)
        fused.append(
            ScoredPage(
                page_ref=ref,
                s_tfidf=s_tfidf,
                s_semantic=s_semantic,
                s_final=weights.alpha * s_tfidf + weights.beta * s_semantic,
            )
        )
    fused.sort(key=lambda sp: (-sp.s_final, sp.page_ref))
    return fused


def select_adaptive(ranked: list[ScoredPage], policy: SelectionPolicy) -> list[ScoredPage]:
    """Shortest rank prefix covering the policy.

    Equivalent to taking the first
    min(top_n, max(top_m, #entries with s_final >= threshold)) entries,
    clamped to the input length.
    """
    above = sum(1 for sp in ranked if sp.s_final >= policy.threshold)
    return ranked[: min(policy.top_n, max(policy.top_m, above))]


def check_indexes(fingerprint: bytes, lexical_index: LexicalIndex,
                  semantic_index: SemanticIndex | None = None, embed_client=None) -> None:
    """Reject, before any request, indexes that cannot serve one retrieval: a
    semantic index without an embed client or the reverse (ConfigError); an
    index of other pages than those ``fingerprint`` (a ``corpus.page_fingerprint``)
    hashes, or a semantic index of another model than the client's (FormatError)."""
    if (semantic_index is None) != (embed_client is None):
        raise ConfigError("the semantic side needs both a semantic index and an embed client; "
                          f"got only the {'index' if embed_client is None else 'client'}")
    for index in (lexical_index, semantic_index):
        if index is not None and index.fingerprint != fingerprint:
            raise FormatError(f"{type(index).__name__} lists other pages than the corpus "
                              "or the other index; rebuild the indexes")
    if semantic_index is not None and semantic_index.model != (model := model_name(embed_client)):
        raise FormatError(f"semantic index was embedded by model {semantic_index.model!r}, "
                          f"not by {model!r}; rebuild it with `docqa build-index`")


def retrieve(
    query_text: str,
    lexical_index: LexicalIndex,
    semantic_index: SemanticIndex | None,
    weights: FusionWeights,
    policy: SelectionPolicy,
    client=None,
    candidate_k: int = DEFAULT_CANDIDATE_K,
    doc_id: str | None = None,
) -> list[ScoredPage]:
    """Full retrieval for one query: lexical + semantic -> fuse -> select.

    Semantic scoring runs exactly when a semantic index is given, with
    ``client`` embedding the query (``check_indexes`` pairs the two); without
    one retrieval is lexical-only. With ``doc_id`` both candidate lists hold
    only that document's pages, so normalization, fusion and selection all
    run within it. Deterministic given fixed embeddings.
    """
    lex = score_lexical(lexical_index, query_text, doc_id=doc_id)
    sem: list[tuple[PageRef, float]] = []
    if semantic_index is not None:
        q_vec = embed_query(query_text, client, dim=semantic_index.dim)
        sem = search_semantic(semantic_index, q_vec, k=candidate_k, doc_id=doc_id)
    if not lex and not sem:
        logger.warning("query %r matched nothing (no features, no embeddings)", query_text)
        return []
    return select_adaptive(fuse(lex, sem, weights, candidate_k), policy)


def retrieval_record(query_text: str, results: list[ScoredPage],
                     weights: FusionWeights, policy: SelectionPolicy) -> dict:
    """Serializable record of one retrieval call, for audit and CLI output."""
    return {
        "query": query_text,
        "weights": {"alpha": weights.alpha, "beta": weights.beta},
        "policy": {
            "top_m": policy.top_m,
            "top_n": policy.top_n,
            "threshold": policy.threshold,
        },
        "results": [sp.to_record() for sp in results],
    }
