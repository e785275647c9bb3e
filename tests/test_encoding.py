from __future__ import annotations

import dataclasses
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supportq.core import DialogueState, Emotion, Speaker, Stage, Strategy, StrategyCatalog, Turn
from supportq.encoding import (
    ANSWER_WORDS,
    BOS_ID,
    NUM_SPECIALS,
    WORD_ID_BASE,
    ContextOverflow,
    EmptyCorpus,
    Vocabulary,
    build_vocab,
    encode_pair,
    render_mcq,
)


class TestRenderMcq:
    def test_opens_with_role_preamble(self, tiny_state, catalog):
        assert render_mcq(tiny_state, catalog).startswith("You are a psychological consultant")

    def test_enumerates_all_eight_options(self, tiny_state, catalog):
        text = render_mcq(tiny_state, catalog)
        for s in catalog:
            assert f"strategy #({s.id}) {s.name}" in text
        assert sum(1 for line in text.splitlines() if line.startswith("strategy #(")) == 8
        assert "(1) through (8)" in text

    def test_sections_present_in_order(self, tiny_state, catalog):
        text = render_mcq(tiny_state, catalog)
        positions = [
            text.index("Emotion:"),
            text.index("Description:"),
            text.index("conversation history"),
            text.index("current query"),
            text.index("strategy #(1)"),
            text.index("Your selection is:"),
        ]
        assert positions == sorted(positions)
        assert "seeker: I feel stuck." in text
        assert "supporter: What makes you feel stuck?" in text
        assert "anxiety (intensity: 5)" in text

    def test_empty_history_keeps_all_sections(self, bare_state, catalog):
        text = render_mcq(bare_state, catalog)
        nonempty = render_mcq(
            dataclasses.replace(
                bare_state, history=(Turn(Speaker.SEEKER, "hey"), Turn(Speaker.SUPPORTER, "hi"))
            ),
            catalog,
        )
        assert "history between the seeker and the supporter:\n\n" in text
        # all other sections byte-identical
        assert text.split("history between the seeker and the supporter:")[0] == \
            nonempty.split("history between the seeker and the supporter:")[0]
        assert text.split("The seeker's current query is:")[1] == \
            nonempty.split("The seeker's current query is:")[1]

    def test_rendering_is_pure(self, tiny_state, catalog):
        assert render_mcq(tiny_state, catalog) == render_mcq(tiny_state, catalog)


# text pieces: table words, single spaces, longer and Unicode whitespace runs,
# and out-of-vocabulary words (a table word's prefix or extension among them)
_PIECES = st.one_of(
    st.sampled_from(["alpha", "beta", "is:", "(3)", "(8)"]),
    st.sampled_from([" ", " ", "  ", "\t", "\n", " \n ", "\x1c", "\x85", "\xa0", "\u3000", " \xa0"]),
    st.sampled_from(["alph", "alphas", "(9)", "ünï", "x"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4).filter(
        lambda w: not any(c.isspace() for c in w)
    ),
)


class TestVocabulary:
    def test_frequency_then_lexicographic_rank(self):
        vocab = build_vocab(["a a b"], 600)
        assert vocab.words.index("a") < vocab.words.index("b")
        vocab = build_vocab(["b a b a"], 600)
        assert vocab.words[:2] == ("a", "b")  # tie broken lexicographically

    def test_max_size_below_floor_errors(self):
        with pytest.raises(ValueError):
            build_vocab(["a"], WORD_ID_BASE - 1)

    def test_rebuild_is_deterministic(self):
        corpus = ["the cat sat on the mat", "a cat and a hat"]
        v1, v2 = build_vocab(corpus, 300), build_vocab(corpus, 300)
        assert v1.words == v2.words
        assert v1.content_hash() == v2.content_hash()

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_vocab([], 600)
        with pytest.raises(EmptyCorpus):
            build_vocab(["   "], 600)

    def test_max_size_caps_words(self):
        vocab = build_vocab(["a b c d e f"], WORD_ID_BASE + 8 + 3)
        assert vocab.words[:3] == ("a", "b", "c")
        assert len(vocab.words) == 3 + 8
        assert vocab.size == WORD_ID_BASE + 8 + 3

    def test_byte_fallback_round_trip(self):
        vocab = build_vocab(["hello world"], 300)
        text = "hello unknown-token world\n  tabs\tand ünïcödé"
        assert vocab.decode(vocab.encode(text)) == text

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=80))
    def test_round_trip_any_string(self, text):
        vocab = build_vocab(["some corpus words"], 300)
        assert vocab.decode(vocab.encode(text)) == text

    def test_regex_whitespace_is_str_isspace(self):
        # encode splits on `\s`, decode asks `str.isspace`: the round trip needs them equal
        every_char = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every_char) == [c for c in every_char if c.isspace()]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_PIECES, max_size=30).map("".join))
    def test_a_word_carries_the_space_before_it(self, text):
        vocab = build_vocab(["alpha beta is:"], 300)
        ids = vocab.encode(text)
        assert vocab.decode(ids) == text
        space = NUM_SPECIALS + ord(" ")
        for i in range(len(ids) - 1):
            if ids[i] == space and ids[i + 1] >= WORD_ID_BASE:
                before = vocab.decode(ids[:i])  # a space byte never splits a UTF-8 character
                assert before == "" or before[-1].isspace()

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab(["alpha beta gamma alpha"], 300)
        vocab.save(tmp_path / "vocab.txt")
        loaded = Vocabulary.load(tmp_path / "vocab.txt")
        assert loaded.words == vocab.words
        assert loaded.content_hash() == vocab.content_hash()


class TestEncodePair:
    def test_answer_text_and_span(self, bare_state, catalog, small_vocab):
        pair = encode_pair(bare_state, 3, catalog, small_vocab)
        start, end = pair.action_span
        assert small_vocab.decode(pair.tokens) == render_mcq(bare_state, catalog) + " (3)"
        assert small_vocab.decode(pair.tokens[start:end]) == "(3)"
        assert end - start == 1
        assert end == len(pair.tokens)
        assert pair.tokens[0] == BOS_ID

    def test_default_window_no_truncation(self, tiny_state, catalog, small_vocab):
        pair = encode_pair(tiny_state, 1, catalog, small_vocab, window=2048)
        full_text = render_mcq(tiny_state, catalog) + " (1)"
        assert pair.tokens.tolist() == [BOS_ID] + small_vocab.encode(full_text)

    def _long_state(self, n_turns=50):
        turns = []
        for i in range(n_turns):
            speaker = Speaker.SEEKER if i % 2 == 0 else Speaker.SUPPORTER
            turns.append(Turn(speaker, f"turn number {i} with several extra words"))
        return DialogueState("desc", Emotion("fear"), tuple(turns), "final question here?")

    def test_overflow_drops_oldest_turns_first(self, catalog, small_vocab):
        state = self._long_state()
        full = encode_pair(state, 2, catalog, small_vocab, window=100_000)
        window = len(full.tokens) - 50
        pair = encode_pair(state, 2, catalog, small_vocab, window=window)
        assert len(pair.tokens) <= window
        # oracle: find the same suffix by re-tokenizing progressively truncated renders
        for drop in range(len(state.history) + 1):
            candidate = dataclasses.replace(state, history=state.history[drop:])
            total = 1 + len(small_vocab.encode(render_mcq(candidate, catalog) + " (2)"))
            if total <= window:
                assert len(pair.tokens) == total
                break
        text = small_vocab.decode(pair.tokens)
        assert "final question here?" in text
        assert "turn number 0 " not in text  # oldest got dropped
        assert "turn number 49 " in text  # newest kept

    def test_truncation_monotone_in_window(self, catalog, small_vocab):
        state = self._long_state()
        kept = []
        for window in (400, 600, 800, 100_000):
            pair = encode_pair(state, 1, catalog, small_vocab, window=window)
            text = small_vocab.decode(pair.tokens)
            kept.append(sum(1 for i in range(50) if f"turn number {i} " in text))
        assert kept == sorted(kept)

    def test_context_overflow_when_promptless_prompt_too_long(self, bare_state, catalog, small_vocab):
        with pytest.raises(ContextOverflow):
            encode_pair(bare_state, 1, catalog, small_vocab, window=50)

    def test_invalid_action_rejected(self, bare_state, catalog, small_vocab):
        with pytest.raises(KeyError):
            encode_pair(bare_state, 9, catalog, small_vocab)


class TestAnswerWords:
    """Every answer " (k)" of the default catalog is one reserved word, which
    carries the space after the prompt's last non-space."""

    @pytest.mark.parametrize("source", ["one_word_floor", "conftest"])
    def test_every_answer_is_one_reserved_word(self, source, bare_state, catalog, small_vocab):
        vocab = build_vocab(["hello"], WORD_ID_BASE + 8) if source == "one_word_floor" else small_vocab
        for action in catalog.ids:
            pair = encode_pair(bare_state, action, catalog, vocab)
            start, end = pair.action_span
            answer = pair.tokens[start:end].tolist()
            assert len(answer) == 1 and answer[0] >= WORD_ID_BASE
            assert vocab.words[answer[0] - WORD_ID_BASE] == f"({action})" == ANSWER_WORDS[action - 1]
            assert vocab.decode(pair.tokens).endswith(f"is: ({action})")

    def test_max_size_below_answer_floor_errors(self):
        build_vocab(["a"], WORD_ID_BASE + 8)
        with pytest.raises(ValueError):
            build_vocab(["a"], WORD_ID_BASE + 7)

    def test_answer_outside_the_vocabulary_errors(self, bare_state, catalog, small_vocab):
        nine = StrategyCatalog((*catalog.strategies, Strategy(9, "Humor", "Hum.", Stage.II)))
        encode_pair(bare_state, 8, nine, small_vocab)
        with pytest.raises(ValueError, match=r"answer word \(9\)"):
            encode_pair(bare_state, 9, nine, small_vocab)
