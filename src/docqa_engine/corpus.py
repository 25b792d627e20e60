"""Page corpus: ingestion, text normalization, and persistence.

One record per page, line-delimited JSON on the wire. Pages of a document
must be contiguous starting at page 0; the corpus is immutable once built.
Also here: the engine's readers and writer for line-delimited JSON
(iter_records, read_records, write_records), for the binary index files (ByteReader,
pack_text), the one way every artifact is written (write_atomically, to the file
output_target names), and the page-order and fingerprint rules every index shares.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import struct
import unicodedata
import uuid
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import FormatError, IntegrityError, ParseError

CORPUS_FORMAT_VERSION = 3

# Every index lists the corpus's pages in corpus order: PageRefs strictly
# ascending, as Corpus.from_pages sorts them. Row order is then ref order,
# and one document's pages are one contiguous run of rows.
PageRef = tuple[str, int]


def check_corpus_order(page_refs: list[PageRef]) -> None:
    if any(a >= b for a, b in zip(page_refs, page_refs[1:])):
        raise ValueError("page_refs are not strictly ascending (doc_id, page_index) pairs")


def doc_rows(page_refs: list[PageRef], doc_id: str | None) -> range:
    """Rows of one document's pages (all rows for None), found by bisection."""
    if doc_id is None:
        return range(len(page_refs))
    key = itemgetter(0)
    return range(bisect_left(page_refs, doc_id, key=key), bisect_right(page_refs, doc_id, key=key))


def rank_rows(scores: np.ndarray) -> np.ndarray:
    """Row positions by descending score; ties keep row order, i.e. ref order."""
    return np.argsort(-scores, kind="stable")


def normalize_text(raw: str) -> str:
    """Deterministic, idempotent text normalization.

    Unicode compatibility (NFKC) folding — full-width ASCII becomes
    half-width, ideographic spaces become plain spaces — then control and
    format characters are stripped and whitespace runs collapse to single
    spaces. Re-normalizing after the strip keeps the result stable when
    removing a control character brings combining marks together.
    """
    text = unicodedata.normalize("NFKC", raw)
    joined = " ".join(text.split())
    # Printable text holds no Cc or Cf character to strip, and spaces in place
    # of whitespace keep it NFKC, so the per-character pass would return it as is.
    if joined.isprintable():
        return joined
    kept = []
    for ch in text:
        if ch.isspace():
            kept.append(" ")
        elif unicodedata.category(ch) in ("Cc", "Cf"):
            continue
        else:
            kept.append(ch)
    text = unicodedata.normalize("NFKC", "".join(kept))
    return " ".join(text.split())


def fold_reply(text: str) -> str:
    """A model reply as every reply reader takes it: NFKC-folded, so "：" reads
    as ":" and "Ｂ" as "B", with one "\\n" for each line break str.splitlines finds."""
    return "\n".join(unicodedata.normalize("NFKC", text).splitlines())


@dataclass(frozen=True)
class Page:
    doc_id: str
    page_index: int
    raw_text: str

    def __post_init__(self):
        if not isinstance(self.doc_id, str) or not self.doc_id:
            raise ValueError("doc_id must be a non-empty string")
        if not isinstance(self.raw_text, str):
            raise ValueError("raw_text must be a string")
        if type(self.page_index) is not int or self.page_index < 0:  # bool is an int subclass
            raise ValueError("page_index must be a non-negative integer")

    @cached_property
    def normalized_text(self) -> str:
        return normalize_text(self.raw_text)

    @property
    def char_count(self) -> int:
        return len(self.normalized_text)

    @classmethod
    def from_raw(cls, doc_id: str, page_index: int, raw_text: str) -> "Page":
        return cls(doc_id, page_index, raw_text)


@dataclass(frozen=True)
class Corpus:
    pages: tuple[Page, ...]

    @classmethod
    def from_pages(cls, pages: Iterable[Page]) -> "Corpus":
        """The pages in ref order: distinct refs, each document's pages
        running from 0 without a gap (else IntegrityError)."""
        ordered = sorted(pages, key=lambda p: (p.doc_id, p.page_index))
        if not ordered:
            raise IntegrityError("corpus has no pages")
        prev = (None, -1)
        for p in ordered:
            if (p.doc_id, p.page_index) == prev:
                raise IntegrityError(f"duplicate page {prev}")
            want = prev[1] + 1 if p.doc_id == prev[0] else 0
            if p.page_index != want:
                raise IntegrityError(
                    f"doc {p.doc_id!r}: expected page_index {want}, got {p.page_index}")
            prev = (p.doc_id, p.page_index)
        return cls(pages=tuple(ordered))

    @property
    def page_count(self) -> int:
        return len(self.pages)

    @property
    def doc_count(self) -> int:
        return len(self.doc_page_counts())

    @property
    def page_refs(self) -> list[PageRef]:
        return [(p.doc_id, p.page_index) for p in self.pages]

    def doc_page_counts(self) -> dict[str, int]:
        """Pages per document: one more than its last page's index, as pages run from 0."""
        return {p.doc_id: p.page_index + 1 for p in self.pages}

    @cached_property
    def _by_ref(self) -> dict[PageRef, Page]:
        # not a dataclass field: stays out of equality, hashing and saved bytes
        return {(p.doc_id, p.page_index): p for p in self.pages}

    def get(self, doc_id: str, page_index: int) -> Page:
        return self._by_ref[doc_id, page_index]

    @cached_property
    def fingerprint(self) -> bytes:
        return page_fingerprint(self.pages)


def iter_records(lines: Iterable[str | bytes]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of JSON objects.

    Lines of bytes are decoded as UTF-8 one at a time. A line that is not UTF-8
    or valid JSON, holds a lone surrogate (which UTF-8 cannot encode) in a string
    or holds anything but an object raises ParseError carrying its line number.
    """
    for line_no, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8 at byte {exc.start}: {exc.reason}", line_no) from exc
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            # bytes decoded as UTF-8 hold no surrogate: only a \u escape makes one
            if "\\u" in line or not isinstance(raw, bytes):
                json.dumps(record, ensure_ascii=False).encode("utf-8")
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line_no) from exc
        except UnicodeEncodeError as exc:
            raise ParseError("a string holds a lone surrogate", line_no) from exc
        except ValueError as exc:  # an integer past Python's int-to-string digit limit
            raise ParseError(f"invalid JSON: {exc}", line_no) from exc
        if not isinstance(record, dict):
            raise ParseError("record is not an object", line_no)
        yield line_no, record


def output_target(path: str | Path) -> Path:
    """The file that writing ``path`` replaces or, for a device, writes in place: its
    real path, so a symlink stays one. A path that is a directory, or whose directory
    is missing, raises the OSError that opening it would, naming ``path``."""
    target = Path(os.path.realpath(path))
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    else:
        return target
    raise OSError(code, os.strerror(code), str(path))


@contextmanager
def write_atomically(path: str | Path) -> Iterator[IO[bytes]]:
    """A binary file for ``path``'s new bytes: a temporary file in its directory that
    replaces ``path`` when the block ends, or is removed if the block raises, so
    ``path`` holds either all of its old bytes or all of the new ones. A path that
    exists but is no regular file (a device such as /dev/null, a pipe) is written
    in place: replacing it would put a regular file where it was."""
    target = output_target(path)
    if target.exists() and not target.is_file():
        with Path(path).open("wb") as fh:
            yield fh
        return
    tmp = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
    try:
        with tmp.open("xb") as fh:
            yield fh
        os.replace(tmp, target)
    except OSError as exc:
        if exc.filename != str(tmp):
            raise
        raise type(exc)(exc.errno, exc.strerror, str(path)) from exc  # name the caller's file
    finally:
        tmp.unlink(missing_ok=True)  # gone already once it replaced the target


def write_records(path: str | Path, records: Iterable[dict]) -> None:
    """Write one JSON object per line, as iter_records reads them back."""
    with write_atomically(path) as fh:
        for record in records:
            fh.write((json.dumps(record, ensure_ascii=False) + "\n").encode())


def read_records(numbered: Iterable[tuple[int, dict]], kind: str, checked) -> list:
    """`checked(record)` per iter_records pair, in order, possibly none; a record it
    rejects (KeyError, TypeError, ValueError) is a ParseError with its line number."""
    out = []
    for line_no, record in numbered:
        try:
            out.append(checked(record))
        except (KeyError, TypeError, ValueError) as exc:
            why = f"missing field {exc.args[0]!r}" if type(exc) is KeyError else exc
            raise ParseError(f"bad {kind} record: {why}", line_no) from exc
    return out


def _raw_page(record: dict) -> Page:
    if not isinstance(record["text"], str):
        raise ValueError("text must be a string")
    return Page(record["doc_id"], record["page_index"], record["text"])


def ingest(source: Iterable[str | bytes] | IO) -> Corpus:
    """Build a corpus from line-delimited JSON records of doc_id, page_index
    and text, under Corpus.from_pages' rules for the page set."""
    return Corpus.from_pages(read_records(iter_records(source), "page", _raw_page))


def ingest_path(path: str | Path) -> Corpus:
    with Path(path).open("rb") as fh:
        return ingest(fh)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus: one header line, then one record of Page's fields per page."""
    header = {
        "format": "corpus",
        "version": CORPUS_FORMAT_VERSION,
        "page_count": corpus.page_count,
    }
    write_records(path, [header, *map(asdict, corpus.pages)])


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus written by save_corpus; field-for-field inverse. A file
    that is not one, its page set included, is a FormatError."""
    with Path(path).open("rb") as fh:
        records = iter_records(fh)
        try:
            _, header = next(records, (0, None))
            if header is None:
                raise FormatError("empty corpus file")
            if header.get("format") != "corpus":
                raise FormatError("not a corpus file")
            version = header.get("version")
            if version != CORPUS_FORMAT_VERSION:
                raise FormatError(f"unsupported corpus version {version!r}: re-run `docqa ingest`")
            expected = header.get("page_count")
            if type(expected) is not int or expected < 0:  # bool is an int subclass
                raise FormatError(
                    f"corpus header page_count must be a non-negative integer, got {expected!r}")
            pages = read_records(records, "page", lambda record: Page(**record))
            if len(pages) != expected:
                state = "truncated" if len(pages) < expected else "has extra records"
                raise FormatError(
                    f"corpus file {state}: header says {expected} pages, found {len(pages)}")
            return Corpus.from_pages(pages)
        except (ParseError, IntegrityError) as exc:
            raise FormatError(f"corrupt corpus file: {exc}") from exc


class ByteReader:
    """Bounds-checked little-endian reads over the bytes of one index file.

    Every way the bytes can fall short (a wrong magic, a u32 format version
    other than ``version``, truncation, a count larger than the bytes left, an
    undecodable string, trailing bytes) raises FormatError naming the file's kind.
    """

    def __init__(self, path: str | Path, magic: bytes, kind: str, version: int):
        data = Path(path).read_bytes()
        if data[: len(magic)] != magic:
            raise FormatError(f"not a {kind} file")
        self._view = memoryview(data)
        self._pos = len(magic)
        self._kind = kind
        (found,) = self.unpack("<I")
        if found != version:
            raise FormatError(f"unsupported {kind} version {found}: "
                              "rebuild it with `docqa build-index`")

    def take(self, size: int) -> memoryview:
        end = self._pos + size
        if end > len(self._view):
            raise FormatError(f"{self._kind} file truncated")
        chunk = self._view[self._pos : end]
        self._pos = end
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        """count items of a little-endian dtype, as a read-only view of the file's bytes."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(count * dtype.itemsize), dtype)

    def text(self) -> str:
        """One UTF-8 string as pack_text stores it: its u32 byte length, then its bytes."""
        try:
            return str(self.take(*self.unpack("<I")), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self._kind} file holds a string that is not UTF-8") from exc

    def finish(self) -> None:
        if self._pos != len(self._view):
            raise FormatError(f"trailing bytes after {self._kind} payload")


def pack_text(text: str) -> bytes:
    """The bytes of one string as ByteReader.text reads it back."""
    data = text.encode("utf-8")
    return struct.pack("<I", len(data)) + data


def page_fingerprint(pages: Iterable[Page]) -> bytes:
    """sha256 over each page's ref and normalized text, in the given order.

    Every index records it of the corpus it was built from, so an index of
    other pages, or of the same refs with other texts, is told apart.
    """
    digest = hashlib.sha256()
    for p in pages:
        digest.update(pack_text(p.doc_id) + struct.pack("<I", p.page_index)
                      + pack_text(p.normalized_text))
    return digest.digest()
