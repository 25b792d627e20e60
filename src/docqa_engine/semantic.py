"""Dense-vector page retrieval over a flat, exact inner-product index.

Embeddings come from an external endpoint (see gateway.GatewayClient) and
are L2-normalized on arrival, so cosine similarity is a plain dot product.
Search is an exhaustive scan: desk-scale corpora never need approximate
structures, and exactness makes results directly checkable.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .corpus import (ByteReader, Corpus, PageRef, check_corpus_order, doc_rows, normalize_text,
                     pack_text, rank_rows, write_atomically)
from .errors import ContractError, FormatError
from .gateway import in_flight_limit

SEMANTIC_MAGIC = b"SEMV"
SEMANTIC_FORMAT_VERSION = 2

BATCH_SIZE = 32  # texts per embedding request
UNIT_NORM_TOL = 1e-4  # a saved row's norm may differ from 1 by float32 rounding only

# Prefixes that query/passage asymmetric embedding models expect.
QUERY_PREFIX = "query: "
PASSAGE_PREFIX = "passage: "


@dataclass
class SemanticIndex:
    vectors: np.ndarray  # float32, shape (page_count, dim), unit rows
    page_refs: list[PageRef]  # in corpus order
    dim: int
    fingerprint: bytes = bytes(32)  # corpus.page_fingerprint of the embedded pages
    model: str = ""  # the embedding model's name; "" for a client without a config

    def __post_init__(self):
        check_corpus_order(self.page_refs)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.dim:
            raise ValueError("vectors must have shape (page_count, dim)")
        if self.vectors.shape[0] != len(self.page_refs):
            raise ValueError("vectors and page_refs must be parallel")


def embed(texts: list[str], client, dim: int | None = None) -> np.ndarray:
    """Fetch one L2-normalized vector per text, in order.

    Batching is transparent: ceil(len(texts)/BATCH_SIZE) endpoint calls. The
    first batch is sent from the caller's thread and fixes the width (`dim`
    when given, else its first vector's); later batches are each sent from a
    pool thread, up to the client's in-flight limit at a time. When several
    batches fail, the earliest one's error is raised. A response vector that
    is not a list of numbers, of another width, with a non-finite component
    or of zero norm violates the wire contract.
    """
    if not texts:
        raise ValueError("embed requires at least one text")
    batches = [texts[start : start + BATCH_SIZE] for start in range(0, len(texts), BATCH_SIZE)]
    first = _embed_batch(batches[0], client, dim)
    with ThreadPoolExecutor(min(in_flight_limit(client), len(batches))) as pool:
        # map yields in input order, so the earliest failed batch raises
        rows = pool.map(partial(_embed_batch, client=client, dim=first.shape[1]), batches[1:])
        return np.concatenate([first, *rows])


def _embed_batch(batch: list[str], client, dim: int | None) -> np.ndarray:
    vectors = client.embed(batch)
    if len(vectors) != len(batch):
        raise ContractError(f"endpoint returned {len(vectors)} vectors for {len(batch)} inputs")
    rows: list[np.ndarray] = []
    for vec in vectors:
        arr = np.asarray(vec)
        # a flat list of JSON numbers gives a 1-D int or float array; a
        # scalar, a nested list or a string or null component does not,
        # and a true or false component is promoted unless looked for
        if arr.ndim != 1 or arr.dtype.kind not in "iuf" or bool in map(type, vec):
            raise ContractError("endpoint returned an embedding that is not a list of numbers")
        dim = len(arr) if dim is None else dim  # the first vector's width, unless given
        if len(arr) != dim:
            raise ContractError(f"embedding dimension {len(arr)} does not match {dim}")
        arr = arr.astype(np.float64, copy=False)
        if not np.isfinite(arr).all():
            raise ContractError("endpoint returned a non-finite embedding component")
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise ContractError("endpoint returned a zero embedding vector")
        rows.append((arr / norm).astype(np.float32))
    return np.stack(rows)


def model_name(client) -> str:
    """The name of the model a client embeds with; "" for a client without a config."""
    return getattr(getattr(client, "config", None), "model_name", "")


def build_semantic_index(corpus: Corpus, client, dim: int | None = None) -> SemanticIndex:
    """The corpus pages' vectors, as wide as the endpoint returns them (see `embed`)."""
    vectors = embed([PASSAGE_PREFIX + p.normalized_text for p in corpus.pages], client, dim=dim)
    return SemanticIndex(vectors=vectors, page_refs=corpus.page_refs, dim=vectors.shape[1],
                         fingerprint=corpus.fingerprint, model=model_name(client))


def embed_query(query_text: str, client, dim: int | None = None) -> np.ndarray:
    """The query's vector, embedded from its normalize_text form as pages are."""
    return embed([QUERY_PREFIX + normalize_text(query_text)], client, dim=dim)[0]


def search_semantic(
    index: SemanticIndex, q: np.ndarray, k: int, doc_id: str | None = None
) -> list[tuple[PageRef, float]]:
    """Exact top-k pages by cosine, descending.

    Scores are accumulated in float64 from the stored float32 vectors;
    ties break by (doc_id, page_index) ascending. k larger than the index
    returns everything. With ``doc_id`` the top k is taken over that
    document's pages only.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = np.asarray(q)
    if q.shape != (index.dim,):
        raise ValueError(f"query vector must have shape ({index.dim},)")
    rows = doc_rows(index.page_refs, doc_id)
    scores = (index.vectors.astype(np.float64) @ q.astype(np.float64))[rows.start:rows.stop]
    return [(index.page_refs[rows.start + i], float(scores[i])) for i in rank_rows(scores)[:k]]


def save_semantic_index(index: SemanticIndex, path: str | Path) -> None:
    """Format v2, little-endian: the magic; u32 version, dim and count; the
    32-byte corpus fingerprint and the model name as a string; the rows as
    row-major f32; each page ref as a string and a u32 page index."""
    with write_atomically(path) as fh:
        fh.write(SEMANTIC_MAGIC + struct.pack("<III32s", SEMANTIC_FORMAT_VERSION, index.dim,
                                              len(index.page_refs), index.fingerprint))
        fh.write(pack_text(index.model))
        fh.write(np.ascontiguousarray(index.vectors, dtype="<f4").tobytes())
        for doc_id, page_index in index.page_refs:
            fh.write(pack_text(doc_id) + struct.pack("<I", page_index))


def load_semantic_index(path: str | Path) -> SemanticIndex:
    reader = ByteReader(path, SEMANTIC_MAGIC, "semantic index", SEMANTIC_FORMAT_VERSION)
    dim, count, fingerprint = reader.unpack("<II32s")
    model = reader.text()
    raw = reader.array("<f4", count * dim)
    # reading the refs first bounds count by the file size, even for dim 0
    page_refs = [(reader.text(), reader.unpack("<I")[0]) for _ in range(count)]
    reader.finish()
    vectors = raw.reshape(count, dim)  # a read-only view of the file's bytes
    # one pass rejects non-finite components (their norm is inf or nan) and non-unit rows
    norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64))
    if not (np.abs(norms - 1.0) <= UNIT_NORM_TOL).all():
        raise FormatError("semantic index holds a row with a non-finite component or a norm "
                          f"that is not 1 within {UNIT_NORM_TOL}")
    try:
        return SemanticIndex(vectors=vectors, page_refs=page_refs, dim=dim,
                             fingerprint=fingerprint, model=model)
    except ValueError as exc:
        raise FormatError(f"semantic index {exc}") from exc
