"""TF-IDF page index: sublinear tf, smoothed idf, 1-5 gram features.

Weights follow w(f, d) = (1 + ln tf) * (ln((1 + N) / (1 + df)) + 1) with
per-page L2 normalization, so scoring a query is a cosine over sparse
vectors. The vocabulary keeps the max_features features with the highest
document frequency (ties broken lexicographically ascending).

Page vectors are arrays: a page-major CSR, which is also the saved layout,
and a feature-major CSC view of it for scoring.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import InitVar, dataclass
from itertools import pairwise
from pathlib import Path

import numpy as np

from .corpus import ByteReader, Corpus, Page, PageRef, check_corpus_order, doc_rows, pack_text, rank_rows
from .errors import FormatError
# perfbench's tracer wraps ``tokenize`` and ``ngrams`` by these names
from .tokenizer import NGRAM_SEP, gram_texts, ngrams, token_texts, tokenize  # noqa: F401

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
    # the idf the build weighted with; ``dataclasses.replace`` passes None
    known_idf: InitVar[np.ndarray | None] = None

    def __post_init__(self, known_idf):
        check_corpus_order(self.page_refs)
        self.idf = idf_table(self.vocabulary.df, self.page_count) if known_idf is None else known_idf
        # Feature-major CSC view, each entry keyed by fid * page_count + row.
        # The keys are distinct, so sorting them puts rows ascending within a
        # column, and one searchsorted finds a column's entries in any row range.
        keys = self.fids.astype(np.uint64)
        keys *= self.page_count
        keys += np.repeat(np.arange(self.page_count, dtype=np.uint64), np.diff(self.indptr))
        order = np.argsort(keys)
        keys.sort()
        self._col_keys, self._col_weights = keys, self.weights[order]

    @property
    def page_count(self) -> int:
        return len(self.page_refs)

    @property
    def doc_vectors(self) -> list[list[tuple[int, float]]]:
        """Per page, its (feature id, weight) pairs, as lists read off the CSR arrays."""
        return [list(zip(self.fids[s:e].tolist(), self.weights[s:e].tolist()))
                for s, e in pairwise(self.indptr.tolist())]


def idf_table(df: list[int] | np.ndarray, page_count: int) -> np.ndarray:
    """Smoothed idf per feature id, one log per distinct df value."""
    counts, inverse = np.unique(np.asarray(df, dtype=np.int64), return_inverse=True)
    return np.array([math.log((1 + page_count) / (1 + count)) + 1.0
                     for count in counts.tolist()])[inverse]


def tfidf_weights(fids: np.ndarray, tfs: np.ndarray, idf: np.ndarray) -> np.ndarray:
    """Weights of the features ``fids`` with term counts ``tfs``, both in gram order.

    One rule for pages and queries: sublinear tf (``math.log``) times idf,
    L2-normalized. The norm adds the squares one by one in gram order:
    ``cumsum`` neither sums pairwise, as ``np.sum`` does, nor compensates, as
    builtin ``sum`` does from Python 3.12 on, so the weights are the same
    floats on every Python.
    """
    if not len(fids):
        return np.zeros(0)
    sublinear = np.array([1.0 + math.log(tf) for tf in range(1, int(tfs.max()) + 1)])
    weights = sublinear[tfs - 1] * idf[fids]
    return weights / math.sqrt(np.cumsum(weights * weights)[-1])


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
            df: np.ndarray, max_features: int) -> tuple[np.ndarray, list[str]]:
    """The vocabulary's gram ids in feature id order, and its features.

    Highest-df features first, ties in ascending feature string order.
    Taking a prefix of this fixed order keeps the vocabulary monotone in
    max_features, and the key decides every tie, so no dict order leaks in.
    Two grams' strings compare as their token lists do, each token as its
    text + NGRAM_SEP but the last as its bare text (no token holds the
    separator). Those units are distinct, so two grams differ by the shorter
    one's last unit: what the columns past it hold never decides.
    """
    units = [t + NGRAM_SEP for t in texts] + texts
    rank = np.empty(len(units), dtype=tok.dtype)
    rank[sorted(range(len(units)), key=units.__getitem__)] = np.arange(len(units))
    cut = -np.partition(-df, max_features - 1)[max_features - 1] if len(df) > max_features else 0
    candidates = np.flatnonzero(df >= cut)
    at, n, last = starts[candidates], lens[candidates], len(tok) - 1
    ranks = [rank[tok[np.minimum(at + k, last)] + len(texts) * (n == k + 1)]
             for k in range(int(n.max(initial=0)))]
    picked = np.lexsort((*ranks[::-1], -df[candidates]))[:max_features]
    at, n, words = at[picked], n[picked], np.array(texts, dtype=object)
    features = np.empty(len(picked), dtype=object)
    for k in range(1, int(n.max(initial=0)) + 1):  # the k-token features, a column at a time
        rows = np.flatnonzero(n == k)
        columns = (words[tok[at[rows] + j]].tolist() for j in range(k))
        features[rows] = list(map(NGRAM_SEP.join, zip(*columns)))
    return candidates[picked], features.tolist()


def _page_major(pairs: list, fid_of: np.ndarray, page_count: int) -> tuple:
    """Feature ids and term counts of the pairs whose gram is a feature, page
    by page in gram order (n, then position), and the pages' offsets."""
    keep = [fid_of[grams] >= 0 for grams, _, _ in pairs]
    counts = np.array([np.bincount(rows[k], minlength=page_count) for (_, _, rows), k in zip(pairs, keep)])
    indptr = np.concatenate(([0], np.cumsum(counts.sum(axis=0))))
    # where an n's pairs on a page go: past the page's pairs of smaller n, and
    # less the place the first of them has among that n's pairs
    offsets = indptr[:-1] + (np.cumsum(counts, axis=0) - counts) - (np.cumsum(counts, axis=1) - counts)
    fids, tfs = np.empty(indptr[-1], np.uint32), np.empty(indptr[-1], fid_of.dtype)
    for (grams, tf, rows), k, offset in zip(pairs, keep, offsets):
        at = offset[rows[k]] + np.arange(np.count_nonzero(k))
        fids[at], tfs[at] = fid_of[grams[k]], tf[k]
    return fids, tfs, indptr


def _page_vectors(pages: tuple[Page, ...], max_features: int, n_min: int, n_max: int) -> tuple:
    """The vocabulary, the page-major CSR arrays and the idf of the pages'
    ``page_features``, counted on integer gram ids: only the chosen features
    are ever joined into strings. The intermediates are freed on return,
    before the index derives its feature-major view."""
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
    fids, tfs, indptr = _page_major(pairs, fid_of, len(pages))
    # each page weighted in gram order, then put in id order
    idf = idf_table(df[chosen], len(pages))
    weights = np.empty(len(fids))
    for s, e in pairwise(indptr.tolist()):
        by_id = np.argsort(fids[s:e])
        weights[s:e] = tfidf_weights(fids[s:e], tfs[s:e], idf)[by_id]
        fids[s:e] = fids[s:e][by_id]
    return (Vocabulary(dict(zip(features, range(len(features)))), df[chosen].tolist()),
            indptr, fids, weights, idf)


def build_lexical_index(corpus: Corpus, max_features: int = DEFAULT_MAX_FEATURES,
                        n_min: int = 1, n_max: int = 5) -> LexicalIndex:
    """The index of every page's ``page_features``."""
    if corpus.page_count == 0:
        raise ValueError("cannot index an empty corpus")
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    if not 1 <= n_min <= n_max:
        raise ValueError(f"invalid n-gram range [{n_min}, {n_max}]")
    vocabulary, indptr, fids, weights, idf = _page_vectors(corpus.pages, max_features, n_min, n_max)
    return LexicalIndex(vocabulary, corpus.page_refs, indptr=indptr, fids=fids, weights=weights,
                        n_min=n_min, n_max=n_max, known_idf=idf)


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
    feature_ids = index.vocabulary.feature_ids
    hits = [(fid, tf) for gram, tf in grams.items() if (fid := feature_ids.get(gram)) is not None]
    fids, tfs = np.array(hits, dtype=np.int64).reshape(-1, 2).T
    weights = tfidf_weights(fids, tfs, index.idf)
    # each query feature's column entries within the row range, in query-feature order
    base = fids.astype(np.uint64) * index.page_count
    starts, ends = np.searchsorted(index._col_keys, (base + rows.start, base + rows.stop))
    counts = ends - starts
    at = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    # bincount adds each page's products in that order, the order of a walk
    # over per-feature postings, so every score is the same float
    acc = np.bincount((index._col_keys[at] - np.repeat(base, counts)).astype(np.intp) - rows.start,
                      weights=np.repeat(weights, counts) * index._col_weights[at],
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
