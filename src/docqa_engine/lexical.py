"""TF-IDF page index: sublinear tf, smoothed idf, 1-5 gram features.

Weights follow w(f, d) = (1 + ln tf) * (ln((1 + N) / (1 + df)) + 1) with
per-page L2 normalization, so scoring a query is a cosine over sparse
vectors. The vocabulary keeps the max_features features with the highest
document frequency (ties broken lexicographically ascending).

Page vectors are one feature-major (CSC) layout from build through the saved
file to scoring: per feature, the ascending rows of the pages holding it and
their weights, so the column offsets are ``cumsum(df)``. A query gathers its
features' columns through them, sums the products per page over all pages,
and slices a document's rows out of the sums.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path

import numpy as np

from .corpus import (ByteReader, Corpus, Page, PageRef, check_corpus_order, doc_rows,
                     normalize_text, pack_text, rank_rows, write_atomically)
from .errors import FormatError
# perfbench's tracer wraps ``tokenize`` and ``ngrams`` by these names
from .tokenizer import NGRAM_SEP, gram_texts, ngrams, token_texts, tokenize  # noqa: F401

LEXICAL_MAGIC = b"LEXI"
LEXICAL_FORMAT_VERSION = 3

DEFAULT_MAX_FEATURES = 50_000
DEFAULT_N_MIN, DEFAULT_N_MAX = 1, 5

_HEADER = "<IIIIQQ32s"  # page_count, vocab_size, n_min, n_max, vocabulary bytes, nnz, fingerprint


_gram_key = hash  # a feature's key: Python's hash of its bytes


@dataclass
class Vocabulary:
    """The features in id order as the index file holds them: one UTF-8 blob joined
    with "\\n" (tokens never hold whitespace). A lookup finds a gram's key among the
    features' sorted keys and confirms the hit on the blob's bytes. The keys, and so
    their order, differ from process to process (``PYTHONHASHSEED``); lookups do not."""

    features: bytes | memoryview
    df: np.ndarray  # u4 document frequency, indexed by feature id

    def __post_init__(self):
        str(self.features, "utf-8")  # else UnicodeDecodeError, a ValueError
        cuts = np.flatnonzero(np.frombuffer(self.features, np.uint8) == ord("\n"))
        spans = np.stack([np.append(0, cuts + 1), np.append(cuts, len(self.features))], 1)[
            :len(cuts) + bool(self.features)]  # none in an empty blob
        # one feature at a time, with no list of them: a memoryview's hash is its bytes'
        keys = np.fromiter(map(_gram_key, map(self.features.__getitem__, map(slice, *spans.T))),
                           np.int64, len(spans))
        # the features in key order: their keys, and their ids and [start, end) in the blob
        order = np.argsort(keys)
        self._keys = keys[order]
        self._slots = np.column_stack([order, spans[order]]).astype(np.min_scalar_type(len(self.features)))
        same = np.append(self._keys[1:] == self._keys[:-1], False)  # key equals the next one
        tied = self._slots[np.flatnonzero(same | np.roll(same, 1))].tolist()
        self._tied = {bytes(self.features[s:e]): fid for fid, s, e in tied}  # rare: keys are 64-bit
        if not len(keys) == len(keys) - len(tied) + len(self._tied) == len(self.df):
            raise ValueError(f"vocabulary holds {len(keys)} features, {len(keys) - len(tied) + len(self._tied)} "
                             f"of them distinct; header says {len(self.df)}")

    @property
    def size(self) -> int:
        return len(self.df)

    @property
    def feature_ids(self) -> dict[str, int]:
        """feature -> id, made on each call; lookups go through ``find``."""
        return dict(zip(str(self.features, "utf-8").split("\n"), range(self.size)))

    def find(self, grams: list[bytes]) -> list[int]:
        """The ids of the features among the UTF-8 ``grams``, in gram order."""
        keys = np.fromiter(map(_gram_key, grams), np.int64, len(grams))
        at = self._keys.searchsorted(keys)
        hit = np.flatnonzero(self._keys.take(at, mode="clip") == keys) if self.size else at[:0]
        return [fid for (candidate, s, e), i in zip(self._slots[at[hit]].tolist(), hit.tolist())
                if (fid := candidate if self.features[s:e] == grams[i] else self._tied.get(grams[i], -1)) >= 0]


@dataclass
class LexicalIndex:
    vocabulary: Vocabulary
    page_refs: list[PageRef]  # in corpus order
    # Feature-major CSC: feature f's entries are the df[f] rows (ascending) and weights past
    # those of the features below f. A page's weights have L2 norm 1 unless it has no feature.
    rows: np.ndarray  # uint32
    weights: np.ndarray  # float64
    n_min: int
    n_max: int
    fingerprint: bytes  # corpus.page_fingerprint of the indexed pages

    def __post_init__(self):
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError(f"n-gram range [{self.n_min}, {self.n_max}] is invalid")
        check_corpus_order(self.page_refs)
        df = np.asarray(self.vocabulary.df, dtype=np.int64)
        if ((df == 0) | (df > self.page_count)).any():  # a negative one fails the sum below
            raise ValueError(f"holds a document frequency outside 1..{self.page_count}")
        if not ((df >= 0).all() and df.sum() == len(self.rows) == len(self.weights)):
            raise ValueError(f"document frequencies add up to {df.sum()}, but rows and weights "
                             f"hold {len(self.rows)} and {len(self.weights)} entries")
        if not np.isfinite(self.weights).all():
            raise ValueError("holds a non-finite weight")
        self.idf = idf_table(self.vocabulary.df, self.page_count)
        self._col_offsets = np.concatenate([[0], np.cumsum(df)])  # column f is [f] to [f + 1]
        col_start = np.zeros(len(self.rows), dtype=bool)  # a column's first row need not rise
        col_start[self._col_offsets[:-1][df > 0]] = True
        if not ((self.rows < self.page_count).all() and
                ((self.rows[1:] > self.rows[:-1]) | col_start[1:]).all()):
            raise ValueError("column rows must ascend strictly and stay below the page count")

    @property
    def page_count(self) -> int:
        return len(self.page_refs)

    @property
    def doc_vectors(self) -> list[list[tuple[int, float]]]:
        """Per page, its (feature id, weight) pairs in feature id order, read off the CSC arrays."""
        by_row = np.argsort(self.rows, kind="stable")
        fids = np.repeat(np.arange(self.vocabulary.size), self.vocabulary.df)[by_row].tolist()
        weights = self.weights[by_row].tolist()
        ends = np.cumsum(np.bincount(self.rows, minlength=self.page_count)).tolist()
        return [list(zip(fids[s:e], weights[s:e])) for s, e in pairwise([0, *ends])]


def idf_table(df: list[int] | np.ndarray, page_count: int) -> np.ndarray:
    """Smoothed idf per feature id, one log per distinct df value."""
    counts, inverse = np.unique(np.asarray(df, dtype=np.int64), return_inverse=True)
    return np.array([math.log((1 + page_count) / (1 + count)) + 1.0
                     for count in counts.tolist()])[inverse]


def tfidf_weights(fids: np.ndarray, tfs: np.ndarray, idf: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Weights of the features ``fids`` with term counts ``tfs`` on the pages
    ``rows``, each page's pairs in gram order.

    One rule for pages and queries (a query is one page, all rows 0):
    sublinear tf (``math.log``) times idf, L2-normalized per row. The norm is
    ``np.bincount``, which adds each row's squares one by one in input order:
    it neither sums pairwise, as ``np.sum`` does, nor compensates, as builtin
    ``sum`` does from Python 3.12 on, so the weights are the same floats on
    every Python.
    """
    if not len(fids):
        return np.zeros(0)
    sublinear = np.array([1.0 + math.log(tf) for tf in range(1, int(tfs.max()) + 1)])
    weights = sublinear[tfs - 1] * idf[fids]
    return weights / np.sqrt(np.bincount(rows, weights * weights))[rows]


def page_features(normalized_text: str, n_min: int, n_max: int) -> Counter:
    """Gram frequencies for one page (or query), identical on both sides."""
    return Counter(gram_texts(token_texts(normalized_text), n_min, n_max))


def _gram_pairs(tok: np.ndarray, lengths: np.ndarray, n_min: int, n_max: int) -> tuple:
    """Integer ids for the n-grams of ``tok``, the token ids of pages of ``lengths``.

    Returns each gram's first position, n and document frequency, then per n
    its (page, gram) pairs in order of first position, as arrays in ``tok``'s
    dtype of gram id, term count and page. An n-gram's id ranks its
    ((n-1)-gram id, last token id) pair among the n-grams, past the ids of
    the shorter ones.
    """
    span, dtype = max(len(tok), 1), tok.dtype
    # each position's page, and past the last token a page of its own
    page_of = np.repeat(np.arange(len(lengths) + 1, dtype=dtype), np.append(lengths, 1))
    pos, gid, starts, dfs, pairs = np.arange(len(tok), dtype=dtype), tok.astype(np.int64), [], [], []
    for n in range(1, n_max + 1):
        if n > 1:
            keep = page_of[pos + n - 1] == page_of[pos]  # the n-gram at pos ends on its page
            pos = pos[keep]
            gid = gid[keep] * span + tok[pos + n - 1]  # (n-1)-gram id, last token id
            _, gid = np.unique(gid, return_inverse=True)
        if n >= n_min:
            # sorted (gram id, position) keys put each gram's occurrences
            # together, those on one page together and the first first
            grams, at = np.divmod(np.sort(gid * span + pos), span)
            new_gram = np.diff(grams, prepend=-1) != 0
            head = np.flatnonzero(new_gram | (np.diff(page_of[at], prepend=-1) != 0))
            dfs.append(np.bincount(grams[head]).astype(dtype))
            tfs = np.diff(head, append=len(at)).astype(dtype)
            first = np.argsort(at[head])  # the pairs in order of first position
            head, tfs = head[first], tfs[first]
            pairs.append(((grams[head] + sum(map(len, starts))).astype(dtype), tfs, page_of[at[head]]))
            starts.append(at[new_gram].astype(dtype))
    counts = list(map(len, starts))
    return (np.concatenate(starts), np.repeat(np.arange(n_min, n_max + 1, dtype=dtype), counts),
            np.concatenate(dfs), pairs)


def _choose(tok: np.ndarray, texts: list[str], starts: np.ndarray, lens: np.ndarray,
            df: np.ndarray, max_features: int) -> tuple[np.ndarray, bytes]:
    """The vocabulary's gram ids in feature id order, and its features as
    ``Vocabulary`` holds them, gathered from the token texts' bytes.

    Highest-df features first, ties in ascending feature string order.
    Taking a prefix of this fixed order keeps the vocabulary monotone in
    max_features, and the key decides every tie, so no dict order leaks in.
    Two grams' strings compare as their token lists do, since no token of
    normalized text holds a character at or below NGRAM_SEP. A column holds
    its token's text rank, or -1 past the gram's end, which sorts a gram
    before the longer grams it begins.
    """
    rank = np.empty(len(texts), dtype=tok.dtype)
    rank[sorted(range(len(texts)), key=texts.__getitem__)] = np.arange(len(texts))
    cut = -np.partition(-df, max_features - 1)[max_features - 1] if len(df) > max_features else 0
    candidates = np.flatnonzero(df >= cut)
    at, n, last = starts[candidates], lens[candidates], len(tok) - 1
    ranks = [np.where(n > k, rank[tok[np.minimum(at + k, last)]], -1)
             for k in range(int(n.max(initial=0)))]
    picked = np.lexsort((*ranks[::-1], -df[candidates]))[:max_features]
    # each token's text and then a separator: a feature is its tokens' pieces in
    # turn, with its last separator made the "\n" that ends it in the blob
    text = np.frombuffer((NGRAM_SEP.join(texts) + NGRAM_SEP).encode(), np.uint8)
    ends = np.flatnonzero(text == ord(NGRAM_SEP)) + 1
    size, blocks = np.diff(ends, prepend=0), []
    for block in np.split(picked, range(1024, len(picked), 1024)):  # bounds the temporaries
        pieces = tok[_ranges(at[block], n[block])]
        blob = text[_ranges(ends[pieces] - size[pieces], size[pieces])]
        blob[np.cumsum(size[pieces])[np.cumsum(n[block]) - 1] - 1] = ord("\n")
        blocks.append(blob)
    return candidates[picked], np.concatenate(blocks)[:-1].tobytes()


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [start, start + count), one after another."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _page_pairs(pages: tuple[Page, ...], max_features: int, n_min: int, n_max: int) -> tuple:
    """The vocabulary of the pages' ``page_features`` and their (feature id, term count,
    row) pairs, each page's in gram order (n, then position), counted on integer gram
    ids: only the chosen features' bytes are ever gathered. Frees the rest on return."""
    ids: dict[str, int] = {}  # token text -> id, by first appearance
    lengths = np.zeros(len(pages), dtype=np.int64)

    def page_ids():
        for row, page in enumerate(pages):
            texts = token_texts(page.normalized_text)
            lengths[row] = len(texts)
            yield from [ids.setdefault(text, len(ids)) for text in texts]

    tok = np.fromiter(page_ids(), dtype=np.int64)
    # token and gram ids, positions, counts and rows stay below n_max * tokens + pages
    tok = tok.astype(np.int32 if n_max * len(tok) + len(pages) < 2**31 else np.int64)
    starts, lens, df, pairs = _gram_pairs(tok, lengths, n_min, n_max)
    chosen, features = _choose(tok, list(ids), starts, lens, df, max_features)
    fid_of = np.full(len(df), -1, dtype=tok.dtype)
    fid_of[chosen] = np.arange(len(chosen))
    keep = [fid_of[grams] >= 0 for grams, _, _ in pairs]
    grams, tfs, rows = (np.concatenate([a[k] for a, k in zip(arrays, keep)]) for arrays in zip(*pairs))
    return Vocabulary(features, df[chosen].astype(np.uint32)), fid_of[grams], tfs, rows


def build_lexical_index(corpus: Corpus, max_features: int = DEFAULT_MAX_FEATURES,
                        n_min: int = DEFAULT_N_MIN, n_max: int = DEFAULT_N_MAX) -> LexicalIndex:
    """The index of every page's ``page_features``."""
    if corpus.page_count == 0:
        raise ValueError("cannot index an empty corpus")
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    if not 1 <= n_min <= n_max:
        raise ValueError(f"invalid n-gram range [{n_min}, {n_max}]")
    vocabulary, fids, tfs, rows = _page_pairs(corpus.pages, max_features, n_min, n_max)
    idf = idf_table(vocabulary.df, corpus.page_count)
    weights = tfidf_weights(fids, tfs, idf, rows)
    # column-major: one sort of the pairs' distinct (feature id, row) keys
    by_column = np.argsort(fids.astype(np.int64) * corpus.page_count + rows)
    del fids, tfs  # freed before the index checks its columns
    return LexicalIndex(vocabulary, corpus.page_refs, rows=rows[by_column].astype(np.uint32),
                        weights=weights[by_column], n_min=n_min, n_max=n_max,
                        fingerprint=corpus.fingerprint)


def score_lexical(index: LexicalIndex, query_text: str,
                  doc_id: str | None = None) -> list[tuple[PageRef, float]]:
    """Cosine scores of all pages against the query, descending.

    The query is normalized, tokenized, gram-expanded, and weighted exactly
    like a page. ``Vocabulary.find`` confirms each gram's hit on its bytes, so
    no score depends on the process's hash salt. Pages with score 0 are
    omitted; ties are broken by (doc_id, page_index) ascending. With
    ``doc_id`` only that document's pages are ranked.
    """
    grams = gram_texts(token_texts(normalize_text(query_text)), index.n_min, index.n_max)
    # feature id -> tf, in order of first occurrence
    tf = Counter(index.vocabulary.find([gram.encode() for gram in grams]))
    fids, tfs = np.fromiter(tf, np.int64, len(tf)), np.fromiter(tf.values(), np.int64, len(tf))
    weights = tfidf_weights(fids, tfs, index.idf, np.zeros(len(fids), dtype=np.intp))
    # each query feature's whole column, in query-feature order
    starts = index._col_offsets[fids]
    counts = index._col_offsets[fids + 1] - starts
    at = _ranges(starts, counts)
    # bincount adds each page's products in that order, the order of a walk
    # over per-feature postings, so every score is the same float
    acc = np.bincount(index.rows[at], weights=np.repeat(weights, counts) * index.weights[at],
                      minlength=index.page_count)
    rows = doc_rows(index.page_refs, doc_id)
    scores = np.minimum(acc[rows.start:rows.stop], 1.0)
    hits = np.flatnonzero(scores > 0.0)
    ranked = hits[rank_rows(scores[hits])]
    return list(zip([index.page_refs[i] for i in (ranked + rows.start).tolist()],
                    scores[ranked].tolist()))


def save_lexical_index(index: LexicalIndex, path: str | Path) -> None:
    """Format v3, little-endian: the magic, the u32 version and ``_HEADER``,
    whose last field is the corpus fingerprint; the features in id order as
    one UTF-8 blob joined with "\\n" (tokens never hold whitespace); u32 df
    per feature, which are also the column lengths; each page ref as a string
    and a u32 page index; then the CSC arrays: u32 rows, f64 weights.
    """
    blob = index.vocabulary.features
    with write_atomically(path) as fh:
        fh.write(LEXICAL_MAGIC + struct.pack("<I", LEXICAL_FORMAT_VERSION))
        fh.write(struct.pack(_HEADER, index.page_count, index.vocabulary.size, index.n_min,
                             index.n_max, len(blob), len(index.rows), index.fingerprint))
        fh.write(blob)
        fh.write(np.asarray(index.vocabulary.df, dtype="<u4").tobytes())
        fh.write(b"".join(pack_text(doc_id) + struct.pack("<I", page_index)
                          for doc_id, page_index in index.page_refs))
        fh.write(np.asarray(index.rows, dtype="<u4").tobytes())
        fh.write(np.asarray(index.weights, dtype="<f8").tobytes())


def load_lexical_index(path: str | Path) -> LexicalIndex:
    reader = ByteReader(path, LEXICAL_MAGIC, "lexical index", LEXICAL_FORMAT_VERSION)
    page_count, vocab_size, n_min, n_max, blob_size, nnz, fingerprint = reader.unpack(_HEADER)
    features = reader.take(blob_size)
    df = reader.array("<u4", vocab_size)
    page_refs = [(reader.text(), reader.unpack("<I")[0]) for _ in range(page_count)]
    rows = reader.array("<u4", nnz)
    weights = reader.array("<f8", nnz)
    reader.finish()
    try:
        return LexicalIndex(Vocabulary(features, df), page_refs, rows=rows,
                            weights=weights, n_min=n_min, n_max=n_max, fingerprint=fingerprint)
    except ValueError as exc:
        raise FormatError(f"lexical index {exc}") from exc
