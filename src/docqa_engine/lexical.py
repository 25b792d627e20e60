"""TF-IDF page index: sublinear tf, smoothed idf, 1-5 gram features.

Weights follow w(f, d) = (1 + ln tf) * (ln((1 + N) / (1 + df)) + 1) with
per-page L2 normalization, so scoring a query is a cosine over sparse
vectors. The vocabulary keeps the max_features features with the highest
document frequency (ties broken lexicographically ascending).

Page vectors are arrays: a page-major CSR, which is also the saved layout,
and a feature-major CSC view of it for scoring.
"""

from __future__ import annotations

import heapq
import math
import struct
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, pairwise
from pathlib import Path

import numpy as np

from .corpus import ByteReader, Corpus, PageRef, check_corpus_order, doc_rows, pack_text, rank_rows
from .errors import FormatError
from .tokenizer import ngrams, tokenize

LEXICAL_MAGIC = b"LEXI"
LEXICAL_FORMAT_VERSION = 2

DEFAULT_MAX_FEATURES = 50_000

_HEADER = "<IIIIQQ"  # page_count, vocab_size, n_min, n_max, vocabulary bytes, nnz


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
    # Page-major CSR: row i's entries are [indptr[i], indptr[i + 1]) of fids
    # (ascending within a row) and weights; L2 norm 1 unless the row is empty.
    indptr: np.ndarray  # int64, page_count + 1 offsets
    fids: np.ndarray  # uint32
    weights: np.ndarray  # float64
    n_min: int
    n_max: int

    def __post_init__(self):
        check_corpus_order(self.page_refs)
        self.idf = idf_table(self.vocabulary.df, self.page_count)
        # Feature-major CSC view, each entry keyed by fid * page_count + row.
        # The stable sort keeps rows ascending within a column, so the keys
        # ascend, and one searchsorted finds a column's entries in any row range.
        order = np.argsort(self.fids, kind="stable")
        rows = np.repeat(np.arange(self.page_count, dtype=np.uint64), np.diff(self.indptr))
        self._col_keys = self.fids[order].astype(np.uint64) * self.page_count + rows[order]
        self._col_weights = self.weights[order]

    @property
    def page_count(self) -> int:
        return len(self.page_refs)

    @property
    def doc_vectors(self) -> list[list[tuple[int, float]]]:
        """Per page, its (feature id, weight) pairs, as lists read off the CSR arrays."""
        return [list(zip(self.fids[s:e].tolist(), self.weights[s:e].tolist()))
                for s, e in pairwise(self.indptr.tolist())]


def idf_table(df: list[int], page_count: int) -> array:
    """Smoothed idf per feature id as packed doubles, one log per distinct df value."""
    idf_of = {count: math.log((1 + page_count) / (1 + count)) + 1.0 for count in set(df)}
    return array("d", map(idf_of.__getitem__, df))


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


def build_lexical_index(corpus: Corpus, max_features: int = DEFAULT_MAX_FEATURES,
                        n_min: int = 1, n_max: int = 5) -> LexicalIndex:
    if corpus.page_count == 0:
        raise ValueError("cannot index an empty corpus")
    if max_features < 1:
        raise ValueError("max_features must be >= 1")

    page_grams = [page_features(p.normalized_text, n_min, n_max) for p in corpus.pages]
    df_counts = Counter(chain.from_iterable(page_grams))
    # Highest-df features first; lexicographic ascending on ties. Taking a
    # prefix of this fixed order keeps the vocabulary monotone in
    # max_features, and the key decides every tie, so no dict order leaks in.
    selection = heapq.nsmallest(max_features, df_counts.items(),
                                key=lambda item: (-item[1], item[0]))
    feature_ids = {feature: fid for fid, (feature, _) in enumerate(selection)}
    df = [count for _, count in selection]
    idf = idf_table(df, corpus.page_count)
    fids, weights, indptr = array("I"), array("d"), [0]
    for grams in page_grams:
        pairs = sorted(tfidf_weights(grams, feature_ids, idf))
        fids.extend(fid for fid, _ in pairs)
        weights.extend(w for _, w in pairs)
        indptr.append(len(fids))
    return LexicalIndex(Vocabulary(feature_ids, df), corpus.page_refs,
                        indptr=np.array(indptr, dtype=np.int64),
                        fids=np.array(fids, dtype=np.uint32),
                        weights=np.array(weights, dtype=np.float64), n_min=n_min, n_max=n_max)


def score_lexical(index: LexicalIndex, query_text: str,
                  doc_id: str | None = None) -> list[tuple[PageRef, float]]:
    """Cosine scores of all pages against the query, descending.

    The query is tokenized, gram-expanded, and weighted exactly like a
    document. Pages with score 0 are omitted; ties are broken by
    (doc_id, page_index) ascending. With ``doc_id`` only that document's
    pages are scored and ranked.
    """
    grams = page_features(query_text, index.n_min, index.n_max)
    rows = doc_rows(index.page_refs, doc_id)
    pairs = tfidf_weights(grams, index.vocabulary.feature_ids, index.idf)
    # each query feature's column entries within the row range, in query-feature order
    base = np.array([fid for fid, _ in pairs], dtype=np.uint64) * index.page_count
    starts, ends = np.searchsorted(index._col_keys, (base + rows.start, base + rows.stop))
    counts = ends - starts
    at = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    # bincount adds each page's products in that order, the order of a walk
    # over per-feature postings, so every score is the same float
    acc = np.bincount((index._col_keys[at] - np.repeat(base, counts)).astype(np.intp) - rows.start,
                      weights=np.repeat([w for _, w in pairs], counts) * index._col_weights[at],
                      minlength=len(rows))
    scores = np.minimum(acc, 1.0)
    hits = np.flatnonzero(scores > 0.0)
    ranked = hits[rank_rows(scores[hits])]
    return list(zip([index.page_refs[i] for i in (ranked + rows.start).tolist()],
                    scores[ranked].tolist()))


def save_lexical_index(index: LexicalIndex, path: str | Path) -> None:
    """Format v2, little-endian: the magic, the u32 version and ``_HEADER``;
    the features in id order as one UTF-8 blob joined with "\\n" (tokens
    never hold whitespace); u32 df per feature; each page ref as a string and
    a u32 page index; then the CSR arrays: int64 indptr, u32 fids, f64 weights.
    """
    feature_ids = index.vocabulary.feature_ids
    blob = "\n".join(sorted(feature_ids, key=feature_ids.get)).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(LEXICAL_MAGIC + struct.pack("<I", LEXICAL_FORMAT_VERSION))
        fh.write(struct.pack(_HEADER, index.page_count, index.vocabulary.size,
                             index.n_min, index.n_max, len(blob), len(index.fids)))
        fh.write(blob)
        fh.write(np.asarray(index.vocabulary.df, dtype="<u4").tobytes())
        fh.write(b"".join(pack_text(doc_id) + struct.pack("<I", page_index)
                          for doc_id, page_index in index.page_refs))
        for values, dtype in ((index.indptr, "<i8"), (index.fids, "<u4"), (index.weights, "<f8")):
            fh.write(np.asarray(values, dtype=dtype).tobytes())


def load_lexical_index(path: str | Path) -> LexicalIndex:
    reader = ByteReader(path, LEXICAL_MAGIC, "lexical index")
    (version,) = reader.unpack("<I")
    if version != LEXICAL_FORMAT_VERSION:
        raise FormatError(f"unsupported lexical index version {version}: "
                          "rebuild it with `docqa build-index`")
    page_count, vocab_size, n_min, n_max, blob_size, nnz = reader.unpack(_HEADER)
    if not 1 <= n_min <= n_max:
        raise FormatError(f"lexical index n-gram range [{n_min}, {n_max}] is invalid")
    features = reader.text(blob_size).split("\n") if blob_size else []
    df = reader.array("<u4", vocab_size)
    page_refs = [(reader.text(), reader.unpack("<I")[0]) for _ in range(page_count)]
    indptr = reader.array("<i8", page_count + 1)
    fids = reader.array("<u4", nnz)
    weights = reader.array("<f8", nnz)
    reader.finish()
    feature_ids = dict(zip(features, range(len(features))))
    if not len(features) == len(feature_ids) == vocab_size:
        raise FormatError(f"lexical index vocabulary holds {len(features)} features, "
                          f"{len(feature_ids)} of them distinct; header says {vocab_size}")
    if not ((df >= 1) & (df <= page_count)).all():
        raise FormatError(f"lexical index holds a document frequency outside 1..{page_count}")
    if indptr[0] != 0 or indptr[-1] != nnz or (np.diff(indptr) < 0).any():
        raise FormatError(f"lexical index page offsets do not ascend from 0 to {nnz}")
    # (row, feature id) keys ascend strictly: ids ascend within a page, drop only at a page start
    keys = np.repeat(np.arange(page_count, dtype=np.uint64), np.diff(indptr)) * vocab_size + fids
    if not ((fids < vocab_size).all() and (keys[1:] > keys[:-1]).all()
            and np.isfinite(weights).all()):
        raise FormatError("lexical index page vector has an unknown, unsorted or non-finite entry")
    try:
        return LexicalIndex(Vocabulary(feature_ids, df.tolist()), page_refs,
                            indptr=indptr, fids=fids, weights=weights, n_min=n_min, n_max=n_max)
    except ValueError as exc:
        raise FormatError(f"lexical index {exc}") from exc
