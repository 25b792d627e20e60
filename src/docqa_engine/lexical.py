"""TF-IDF page index: sublinear tf, smoothed idf, 1-5 gram features.

Weights follow w(f, d) = (1 + ln tf) * (ln((1 + N) / (1 + df)) + 1) with
per-page L2 normalization, so scoring a query is a cosine over sparse
vectors. The vocabulary keeps the max_features features with the highest
document frequency (ties broken lexicographically ascending).
"""

from __future__ import annotations

import math
import struct
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import ByteReader, Corpus, PageRef, check_corpus_order, doc_rows, pack_text, rank_rows
from .errors import FormatError
from .tokenizer import ngrams, tokenize

LEXICAL_MAGIC = b"LEXI"
LEXICAL_FORMAT_VERSION = 1

DEFAULT_MAX_FEATURES = 50_000

_PAIR = np.dtype([("fid", "<u4"), ("weight", "<f8")])  # one saved (feature id, weight)


@dataclass
class Vocabulary:
    feature_ids: dict[str, int]  # feature -> dense id in [0, size)
    df: list[int]  # document frequency, indexed by feature id

    @property
    def size(self) -> int:
        return len(self.feature_ids)


@dataclass
class LexicalIndex:
    vocabulary: Vocabulary
    page_refs: list[PageRef]  # in corpus order
    # Per page: sorted (feature_id, weight) pairs; L2 norm 1 unless empty.
    doc_vectors: list[list[tuple[int, float]]]
    page_count: int
    n_min: int
    n_max: int

    def __post_init__(self):
        check_corpus_order(self.page_refs)
        self.idf = idf_table(self.vocabulary.df, self.page_count)
        self._postings: dict[int, list[tuple[int, float]]] = {}
        for page_i, vector in enumerate(self.doc_vectors):
            for fid, weight in vector:
                self._postings.setdefault(fid, []).append((page_i, weight))


def idf_table(df: list[int], page_count: int) -> array:
    """Smoothed idf per feature id, as packed doubles: 8 bytes a feature, not a float object."""
    return array("d", (math.log((1 + page_count) / (1 + count)) + 1.0 for count in df))


def tfidf_weights(grams: Counter, feature_ids: dict[str, int],
                  idf: array) -> list[tuple[int, float]]:
    """(feature id, weight) for the grams in the vocabulary, in gram order.

    One rule for pages and queries: sublinear tf times idf, L2-normalized.
    """
    pairs = [(fid, (1.0 + math.log(tf)) * idf[fid]) for feature, tf in grams.items()
             if (fid := feature_ids.get(feature)) is not None]
    norm = math.sqrt(sum(w * w for _, w in pairs))
    return [(fid, w / norm) for fid, w in pairs] if norm > 0 else pairs


def page_features(normalized_text: str, n_min: int, n_max: int) -> Counter:
    """Gram frequencies for one page (or query), identical on both sides."""
    return Counter(ngrams(tokenize(normalized_text), n_min, n_max))


def build_lexical_index(
    corpus: Corpus,
    max_features: int = DEFAULT_MAX_FEATURES,
    n_min: int = 1,
    n_max: int = 5,
) -> LexicalIndex:
    if corpus.page_count == 0:
        raise ValueError("cannot index an empty corpus")
    if max_features < 1:
        raise ValueError("max_features must be >= 1")

    page_grams = [page_features(p.normalized_text, n_min, n_max) for p in corpus.pages]

    df_counts: Counter = Counter()
    for grams in page_grams:
        df_counts.update(grams.keys())

    # Highest-df features first; lexicographic ascending on ties. Taking a
    # prefix of this fixed order keeps the vocabulary monotone in
    # max_features.
    selection = sorted(df_counts.items(), key=lambda item: (-item[1], item[0]))
    selection = selection[:max_features]
    feature_ids = {feature: fid for fid, (feature, _) in enumerate(selection)}
    df = [count for _, count in selection]
    idf = idf_table(df, corpus.page_count)
    return LexicalIndex(
        vocabulary=Vocabulary(feature_ids=feature_ids, df=df),
        page_refs=corpus.page_refs,
        doc_vectors=[sorted(tfidf_weights(grams, feature_ids, idf)) for grams in page_grams],
        page_count=corpus.page_count,
        n_min=n_min,
        n_max=n_max,
    )


def score_lexical(index: LexicalIndex, query_text: str,
                  doc_id: str | None = None) -> list[tuple[PageRef, float]]:
    """Cosine scores of all pages against the query, descending.

    The query is tokenized, gram-expanded, and weighted exactly like a
    document. Pages with score 0 are omitted; ties are broken by
    (doc_id, page_index) ascending. With ``doc_id`` only that document's
    pages are ranked.
    """
    grams = page_features(query_text, index.n_min, index.n_max)
    acc = [0.0] * index.page_count
    for fid, q_weight in tfidf_weights(grams, index.vocabulary.feature_ids, index.idf):
        for page_i, d_weight in index._postings.get(fid, ()):
            acc[page_i] += q_weight * d_weight
    rows = doc_rows(index.page_refs, doc_id)
    scores = np.minimum(acc[rows.start:rows.stop], 1.0)
    hits = np.flatnonzero(scores > 0.0)
    return [(index.page_refs[rows.start + i], float(scores[i]))
            for i in hits[rank_rows(scores[hits])]]


def save_lexical_index(index: LexicalIndex, path: str | Path) -> None:
    """Binary layout: header, vocabulary table, per-page sparse vectors.

    Header carries version, page count, vocabulary size, and the gram
    range so queries can be expanded identically after a reload. All
    integers and the float64 weights are little-endian.
    """
    features = sorted(index.vocabulary.feature_ids.items(), key=lambda item: item[1])
    with Path(path).open("wb") as fh:
        fh.write(LEXICAL_MAGIC)
        fh.write(
            struct.pack(
                "<IIIII",
                LEXICAL_FORMAT_VERSION,
                index.page_count,
                index.vocabulary.size,
                index.n_min,
                index.n_max,
            )
        )
        for feature, fid in features:
            fh.write(pack_text(feature))
            fh.write(struct.pack("<I", index.vocabulary.df[fid]))
        for (doc_id, page_index), vector in zip(index.page_refs, index.doc_vectors):
            fh.write(pack_text(doc_id))
            fh.write(struct.pack("<II", page_index, len(vector)))
            for fid, weight in vector:
                fh.write(struct.pack("<Id", fid, weight))


def load_lexical_index(path: str | Path) -> LexicalIndex:
    reader = ByteReader(path, LEXICAL_MAGIC, "lexical index")
    version, page_count, vocab_size, n_min, n_max = reader.unpack("<IIIII")
    if version != LEXICAL_FORMAT_VERSION:
        raise FormatError(f"unsupported lexical index version {version}")
    if not 1 <= n_min <= n_max:
        raise FormatError(f"lexical index n-gram range [{n_min}, {n_max}] is invalid")
    feature_ids: dict[str, int] = {}
    df: list[int] = []
    for fid in range(vocab_size):
        feature_ids[reader.text()] = fid
        df.append(reader.unpack("<I")[0])
    if not all(1 <= count <= page_count for count in df):
        raise FormatError(f"lexical index holds a document frequency outside 1..{page_count}")
    page_refs: list[PageRef] = []
    counts: list[int] = []
    chunks: list[bytes] = []
    for _ in range(page_count):
        doc_id = reader.text()
        page_index, nnz = reader.unpack("<II")
        page_refs.append((doc_id, page_index))
        counts.append(nnz)
        chunks.append(reader.take(12 * nnz))
    reader.finish()
    pairs = np.frombuffer(b"".join(chunks), dtype=_PAIR)
    ends = np.cumsum(counts, dtype=np.int64)
    # feature ids ascend strictly within a page; they may only drop where the next page starts
    ascending = np.diff(pairs["fid"].astype(np.int64)) > 0
    ascending[ends[(ends > 0) & (ends < len(pairs))] - 1] = True
    if not (ascending.all() and (pairs["fid"] < vocab_size).all()
            and np.isfinite(pairs["weight"]).all()):
        raise FormatError(
            "lexical index page vector has an unknown, unsorted or non-finite entry")
    flat = pairs.tolist()
    doc_vectors = [flat[end - nnz:end] for nnz, end in zip(counts, ends.tolist())]
    try:
        return LexicalIndex(
            vocabulary=Vocabulary(feature_ids=feature_ids, df=df),
            page_refs=page_refs,
            doc_vectors=doc_vectors,
            page_count=page_count,
            n_min=n_min,
            n_max=n_max,
        )
    except ValueError as exc:
        raise FormatError(f"lexical index {exc}") from exc
