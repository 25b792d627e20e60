"""Tokenizer and normalization behavior, frozen against hand-worked examples."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from docqa_engine.corpus import normalize_text
from docqa_engine.tokenizer import (
    NGRAM_SEP,
    SHORT_RUN_MAX,
    TOKEN_KINDS,
    Token,
    count_numeric_tokens,
    gram_texts,
    ngrams,
    token_set,
    token_texts,
    tokenize,
)

_CJK_ALPHABET = "日本語試験漢字東京大阪売上高年度調査"

# Pieces of mixed text, run together with or without a space between them:
# CJK runs of every length around SHORT_RUN_MAX, Latin words, numbers
# (decimal, percent, full-width, Arabic-Indic), digit runs running into
# letters, and symbol runs.
_PIECES = st.one_of(
    st.text(alphabet=_CJK_ALPHABET + "ひらがなカタカナー々", min_size=1, max_size=5),
    st.text(alphabet="abcXYZ", min_size=1, max_size=6),
    st.from_regex(r"[0-9０-９٣]{1,4}(\.[0-9]{1,2})?%?", fullmatch=True),
    st.from_regex(r"[0-9]{1,4}[A-Za-z]{1,3}", fullmatch=True),
    st.text(alphabet="、。,.%!()+-¥Σ", min_size=1, max_size=3),
)
_MIXED_TEXT = st.lists(st.tuples(_PIECES, st.sampled_from(["", " "])), max_size=12).map(
    lambda parts: "".join(piece + gap for piece, gap in parts))


class TestNormalizeText:
    def test_fullwidth_ascii_folds(self):
        assert normalize_text("ＡＢＣ１２３") == "ABC123"

    def test_halfwidth_kana_folds(self):
        assert normalize_text("ｶﾀｶﾅ") == "カタカナ"

    def test_whitespace_runs_collapse(self):
        # tab, newline, and ideographic space all become one plain space
        assert normalize_text("a\t\n b　 c") == "a b c"

    def test_control_and_format_chars_stripped(self):
        assert normalize_text("a\x00b‍c") == "abc"

    def test_strip_then_renormalize_composes(self):
        # A control char between base letter and combining mark: after the
        # strip they become adjacent and must still compose.
        tricky = "e\x00́"
        once = normalize_text(tricky)
        assert once == "é"
        assert normalize_text(once) == once

    @given(st.text(max_size=300))
    def test_idempotent(self, raw):
        once = normalize_text(raw)
        assert normalize_text(once) == once

    @given(st.text(max_size=300))
    def test_no_stray_whitespace(self, raw):
        out = normalize_text(raw)
        assert out == " ".join(out.split())


class TestTokenize:
    def test_latin_words_lowercased(self):
        assert tokenize("Hello WORLD") == [
            Token("hello", "latin_word"),
            Token("world", "latin_word"),
        ]

    def test_number_forms(self):
        texts = [(t.text, t.kind) for t in tokenize("12.5% 100 3.3")]
        assert texts == [("12.5%", "number"), ("100", "number"), ("3.3", "number")]

    def test_digits_inside_words_stay_words(self):
        # "abc123" and "123abc" are identifiers, not numbers
        assert [t.kind for t in tokenize("abc123 123abc")] == ["latin_word"] * 2

    def test_cjk_three_char_run(self):
        # bigrams plus the whole short run
        texts = [t.text for t in tokenize("東京都")]
        assert texts == ["東京", "京都", "東京都"]

    def test_cjk_two_char_run_emitted_once(self):
        # the single bigram equals the run itself; no double emission
        assert [t.text for t in tokenize("東京")] == ["東京"]

    def test_cjk_long_run_bigrams_only(self):
        texts = [t.text for t in tokenize("アイウエオカ")]
        assert texts == ["アイ", "イウ", "ウエ", "エオ", "オカ"]
        assert "アイウエオカ" not in texts

    def test_single_cjk_char(self):
        assert [t.text for t in tokenize("増")] == ["増"]

    def test_mixed_sentence(self):
        texts = [(t.text, t.kind) for t in tokenize("売上は12.5%増")]
        assert texts == [
            ("売上", "cjk_gram"),
            ("上は", "cjk_gram"),
            ("売上は", "cjk_gram"),
            ("12.5%", "number"),
            ("増", "cjk_gram"),
        ]

    def test_symbols_kept(self):
        kinds = {t.kind for t in tokenize("a + b")}
        assert "symbol" in kinds

    def test_empty(self):
        assert tokenize("") == []

    @given(st.text(max_size=200))
    def test_total_and_valid_kinds(self, text):
        for token in tokenize(text):
            assert token.kind in TOKEN_KINDS
            assert token.text

    @given(st.text(alphabet=_CJK_ALPHABET, min_size=1, max_size=12))
    def test_cjk_run_token_count(self, run):
        tokens = tokenize(run)
        if len(run) == 1:
            assert len(tokens) == 1
        else:
            whole_extra = 1 if 2 < len(run) <= SHORT_RUN_MAX else 0
            assert len(tokens) == (len(run) - 1) + whole_extra


class TestTokenTexts:
    @settings(max_examples=300)
    @given(_MIXED_TEXT)
    def test_equal_the_texts_of_tokenize(self, text):
        assert token_texts(text) == [t.text for t in tokenize(text)]

    @given(st.text(max_size=200))
    def test_equal_the_texts_of_tokenize_on_any_text(self, text):
        assert token_texts(text) == [t.text for t in tokenize(text)]

    @given(_MIXED_TEXT, st.integers(1, 3), st.integers(0, 2))
    def test_gram_texts_equal_ngrams(self, text, n_min, extra):
        assert gram_texts(token_texts(text), n_min, n_min + extra) == ngrams(
            tokenize(text), n_min, n_min + extra)

    @settings(max_examples=300)
    @given(st.one_of(_MIXED_TEXT, st.text(max_size=200)))
    @example("!\x01 !a")
    @example("a\x1cb\x1fc\x7f\x85d")
    def test_every_token_character_sorts_above_the_gram_separator(self, raw):
        # the lexical build ranks each token text once on this invariant
        texts = token_texts(normalize_text(raw))
        assert all(ch > NGRAM_SEP for text in texts for ch in text)

    def test_digit_run_into_letters_is_one_word(self):
        assert token_texts("12ab 3.5% 2024年") == ["12ab", "3.5%", "2024", "年"]


class TestNgrams:
    def test_orders_by_n_then_position(self):
        tokens = [Token(c, "latin_word") for c in "abc"]
        assert ngrams(tokens, 1, 2) == [
            "a",
            "b",
            "c",
            f"a{NGRAM_SEP}b",
            f"b{NGRAM_SEP}c",
        ]

    def test_window_longer_than_tokens(self):
        tokens = [Token("only", "latin_word")]
        assert ngrams(tokens, 1, 5) == ["only"]

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            ngrams([], 0, 3)
        with pytest.raises(ValueError):
            ngrams([], 3, 2)

    @given(st.lists(st.sampled_from("abcde"), min_size=0, max_size=8))
    def test_counts_match_formula(self, letters):
        tokens = [Token(c, "latin_word") for c in letters]
        grams = ngrams(tokens, 1, 3)
        expected = sum(max(len(letters) - n + 1, 0) for n in range(1, 4))
        assert len(grams) == expected


class TestNumericCounting:
    def test_counts_percent_and_decimal(self):
        assert count_numeric_tokens("増加率は12.5%で、前年は8%だった") == 2

    def test_zero_when_no_numbers(self):
        assert count_numeric_tokens("数字なしの文") == 0

    @settings(max_examples=300)
    @given(st.one_of(_MIXED_TEXT, st.text(max_size=200)))
    @example("FY2023")  # a digit run inside a Latin word is no number
    @example("a١")  # an Arabic-Indic digit after a Latin letter is one
    def test_counts_the_number_tokens_of_tokenize(self, raw):
        text = normalize_text(raw)
        assert count_numeric_tokens(text) == sum(t.kind == "number" for t in tokenize(text))


class TestTokenSet:
    def test_set_semantics(self):
        assert token_set("x x y") == {"x", "y"}
