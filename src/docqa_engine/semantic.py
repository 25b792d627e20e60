"""Dense-vector page retrieval over a flat, exact inner-product index.

Embeddings come from an external endpoint (see gateway.GatewayClient) and
are L2-normalized on arrival, so cosine similarity is a plain dot product.
Search is an exhaustive scan: desk-scale corpora never need approximate
structures, and exactness makes results directly checkable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import ByteReader, Corpus, PageRef
from .errors import ContractError, FormatError

SEMANTIC_MAGIC = b"SEMV"
SEMANTIC_FORMAT_VERSION = 1

DEFAULT_DIM = 1024
BATCH_SIZE = 32  # texts per embedding request

# Prefixes that query/passage asymmetric embedding models expect.
QUERY_PREFIX = "query: "
PASSAGE_PREFIX = "passage: "


@dataclass
class SemanticIndex:
    vectors: np.ndarray  # float32, shape (page_count, dim), unit rows
    page_refs: list[PageRef]
    dim: int

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.dim:
            raise ValueError("vectors must have shape (page_count, dim)")
        if self.vectors.shape[0] != len(self.page_refs):
            raise ValueError("vectors and page_refs must be parallel")


def embed(texts: list[str], client, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Fetch one L2-normalized vector per text, in order.

    Batching is transparent: ceil(len(texts)/BATCH_SIZE) endpoint calls.
    A response vector of the wrong dimension, with a non-finite component
    or of zero norm violates the wire contract.
    """
    if not texts:
        raise ValueError("embed requires at least one text")
    rows: list[np.ndarray] = []
    for start in range(0, len(texts), BATCH_SIZE):
        batch = texts[start : start + BATCH_SIZE]
        vectors = client.embed(batch)
        if len(vectors) != len(batch):
            raise ContractError(
                f"endpoint returned {len(vectors)} vectors for {len(batch)} inputs"
            )
        for vec in vectors:
            if len(vec) != dim:
                raise ContractError(
                    f"embedding dimension {len(vec)} does not match configured {dim}"
                )
            arr = np.asarray(vec, dtype=np.float64)
            if not np.isfinite(arr).all():
                raise ContractError("endpoint returned a non-finite embedding component")
            norm = float(np.linalg.norm(arr))
            if norm == 0.0:
                raise ContractError("endpoint returned a zero embedding vector")
            rows.append((arr / norm).astype(np.float32))
    return np.stack(rows)


def build_semantic_index(corpus: Corpus, client, dim: int = DEFAULT_DIM) -> SemanticIndex:
    texts = [PASSAGE_PREFIX + p.normalized_text for p in corpus.pages]
    vectors = embed(texts, client, dim=dim)
    return SemanticIndex(
        vectors=vectors,
        page_refs=[(p.doc_id, p.page_index) for p in corpus.pages],
        dim=dim,
    )


def embed_query(query_text: str, client, dim: int = DEFAULT_DIM) -> np.ndarray:
    return embed([QUERY_PREFIX + query_text], client, dim=dim)[0]


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
    if len(index.page_refs) == 0:
        return []
    q = np.asarray(q)
    if q.shape != (index.dim,):
        raise ValueError(f"query vector must have shape ({index.dim},)")
    scores = index.vectors.astype(np.float64) @ q.astype(np.float64)
    rows = range(len(index.page_refs))
    if doc_id is not None:
        rows = [i for i in rows if index.page_refs[i][0] == doc_id]
    order = sorted(rows, key=lambda i: (-scores[i], index.page_refs[i]))
    return [(index.page_refs[i], float(scores[i])) for i in order[:k]]


def save_semantic_index(index: SemanticIndex, path: str | Path) -> None:
    """Header (version, dim, count), row-major float32 LE, page_ref table."""
    with Path(path).open("wb") as fh:
        fh.write(SEMANTIC_MAGIC)
        fh.write(
            struct.pack(
                "<III", SEMANTIC_FORMAT_VERSION, index.dim, len(index.page_refs)
            )
        )
        fh.write(np.ascontiguousarray(index.vectors, dtype="<f4").tobytes())
        for doc_id, page_index in index.page_refs:
            data = doc_id.encode("utf-8")
            fh.write(struct.pack("<I", len(data)))
            fh.write(data)
            fh.write(struct.pack("<I", page_index))


def load_semantic_index(path: str | Path) -> SemanticIndex:
    reader = ByteReader(path, SEMANTIC_MAGIC, "semantic index")
    version, dim, count = reader.unpack("<III")
    if version != SEMANTIC_FORMAT_VERSION:
        raise FormatError(f"unsupported semantic index version {version}")
    raw = reader.take(count * dim * 4)
    vectors = np.frombuffer(raw, dtype="<f4").reshape(count, dim).copy()
    if not np.isfinite(vectors).all():
        raise FormatError("semantic index holds a non-finite vector component")
    page_refs: list[PageRef] = []
    for _ in range(count):
        doc_id = reader.text()
        page_refs.append((doc_id, reader.unpack("<I")[0]))
    reader.finish()
    return SemanticIndex(vectors=vectors, page_refs=page_refs, dim=dim)
