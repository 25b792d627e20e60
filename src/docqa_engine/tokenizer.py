"""Multi-stage tokenizer for mixed Japanese/Latin/numeric text.

Latin alphanumeric runs become single lowercased word tokens, digit runs
(with optional decimal point and percent sign) become number tokens, and
contiguous CJK runs are expanded into overlapping character bigrams plus
the whole run when it is short. Everything else that is not whitespace is
kept as a symbol token. Input is expected to be already normalized by
``corpus.normalize_text``.

``token_texts`` and ``gram_texts`` work on token texts alone; ``tokenize``
and ``ngrams`` are their forms over ``Token``s, which also carry the kind.
"""

from __future__ import annotations

import re
from typing import NamedTuple

# Hiragana, katakana (incl. prolonged sound mark), iteration marks, CJK
# unified ideographs + extension A, compatibility ideographs.
_CJK_CLASS = "々〆぀-ヿ㐀-䶿一-鿿豈-﫿"

# Whole CJK runs up to this length are emitted in addition to their bigrams.
SHORT_RUN_MAX = 4

# Joiner for n-grams; a control character, so it can never occur inside a
# token produced from normalized text.
NGRAM_SEP = "\x1f"

_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d+)?%?(?![0-9A-Za-z]))"
    rf"|(?P<latin>[0-9A-Za-z]+)"
    rf"|(?P<cjk>[{_CJK_CLASS}]+)"
    rf"|(?P<symbol>[^\s0-9A-Za-z{_CJK_CLASS}]+)"
)

TOKEN_KINDS = ("cjk_gram", "latin_word", "number", "symbol")


class Token(NamedTuple):
    text: str
    kind: str  # one of TOKEN_KINDS


def _cjk_run_texts(run: str) -> list[str]:
    """Overlapping bigrams plus the whole run when len <= SHORT_RUN_MAX.

    A two-character run is emitted once: its single bigram already equals
    the whole run, and emitting both would double the term frequency of one
    occurrence.
    """
    grams = [run[i : i + 2] for i in range(len(run) - 1)]
    if len(run) <= SHORT_RUN_MAX and len(run) != 2:
        grams.append(run)
    return grams


def token_texts(text: str) -> list[str]:
    """The texts of ``tokenize(text)``, without making a Token per token.

    Deterministic and total: any input yields a (possibly empty) list.
    """
    texts: list[str] = []
    for number, latin, cjk, symbol in _TOKEN_RE.findall(text):
        if cjk:
            texts += _cjk_run_texts(cjk)
        else:
            texts.append(number or latin.lower() or symbol)
    return texts


def tokenize(text: str) -> list[Token]:
    """Split normalized text into tokens, preserving source order: the texts
    of ``token_texts``, each with its kind."""
    tokens: list[Token] = []
    for number, latin, cjk, symbol in _TOKEN_RE.findall(text):
        if cjk:
            tokens += [Token(gram, "cjk_gram") for gram in _cjk_run_texts(cjk)]
        elif latin:
            tokens.append(Token(latin.lower(), "latin_word"))
        else:
            tokens.append(Token(number, "number") if number else Token(symbol, "symbol"))
    return tokens


def gram_texts(texts: list[str], n_min: int = 1, n_max: int = 5) -> list[str]:
    """All contiguous n-grams of the token texts for n in [n_min, n_max].

    Grams are token texts joined with NGRAM_SEP. Order is deterministic:
    ascending n, then position.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError(f"invalid n-gram range [{n_min}, {n_max}]")
    grams: list[str] = []
    for n in range(n_min, min(n_max, len(texts)) + 1):
        grams.extend(map(NGRAM_SEP.join, zip(*(texts[k:] for k in range(n)))))
    return grams


def ngrams(tokens: list[Token], n_min: int = 1, n_max: int = 5) -> list[str]:
    """``gram_texts`` of the tokens' texts."""
    return gram_texts([t.text for t in tokens], n_min, n_max)


def count_numeric_tokens(text: str) -> int:
    """Number of tokens of kind number in ``tokenize(text)``."""
    return sum(1 for number, *_ in _TOKEN_RE.findall(text) if number)


def token_set(text: str) -> set[str]:
    """Set of token texts, for overlap measures over normalized text."""
    return set(token_texts(text))
