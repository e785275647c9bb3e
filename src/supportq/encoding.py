"""Multi-choice prompt rendering and deterministic tokenization.

The planner never sees raw dialogue objects: a state is rendered into a
fixed instruction text that enumerates the K strategies as numbered options,
and the chosen option " (k)" is appended as the answer whose token the
scorer reads.

The tokenizer is a frequency-ranked word vocabulary with a byte-level
fallback, so encoding is total (no OOV failures) and decode(encode(x)) == x
for any input string.  A word token carries the single space before it, as
GPT-2's byte-level BPE does with its `Ġ` prefix: a lone " " between a
non-space segment and a word in the table is not encoded, and `decode` puts
it back before a word that follows non-whitespace text.  `build_vocab`
always reserves the answer words `(1)` .. `(8)`, and the prompt ends in
"is:", so every answer " (k)" is the one token `(k)`, and the prompt (with
its history truncation) is the same for every action.  Rendering and
encoding are pure functions; identical inputs produce byte-identical
outputs.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import DialogueState, StrategyCatalog, default_catalog

PAD_ID = 0
UNK_ID = 1
BOS_ID = 2
NUM_SPECIALS = 3
NUM_BYTE_TOKENS = 256
WORD_ID_BASE = NUM_SPECIALS + NUM_BYTE_TOKENS  # 259
ANSWER_WORDS = tuple(f"({s.id})" for s in default_catalog())  # one word per default answer
MIN_VOCAB_SIZE = WORD_ID_BASE + len(ANSWER_WORDS)  # specials, byte tokens, answer words
TOKENIZATION = "word-carries-space"  # a word token absorbs the single space before it

_SEGMENT_RE = re.compile(r"\S+|\s+")


class EmptyCorpus(ValueError):
    """Vocabulary construction needs at least one nonempty document."""


class ContextOverflow(ValueError):
    """Prompt exceeds the context window even with all history dropped."""


def render_history(history: Sequence) -> str:
    return "\n".join(f"{t.speaker.value}: {t.text}" for t in history)


def render_mcq(state: DialogueState, catalog: StrategyCatalog) -> str:
    """Instruction text asking the model to pick one strategy option.

    Section order: role preamble, emotion, description, speaker-prefixed
    history, current query, the numbered option list, selection request.
    """
    options = "\n".join(f"strategy #({s.id}) {s.name}" for s in catalog)
    k = len(catalog)
    return (
        "You are a psychological consultant providing support to a seeker. "
        "The seeker's basic situation is as follows:\n"
        f"Emotion: {state.emotion.render()}\n"
        f"Description: {state.description}\n"
        "\n"
        "Below is the conversation history between the seeker and the supporter:\n"
        f"{render_history(state.history)}\n"
        "\n"
        "The seeker's current query is:\n"
        f"{state.query}\n"
        "\n"
        "Based on the above context, please select the most appropriate response "
        "strategy from the following options:\n"
        f"{options}\n"
        f"Please provide your selection in the format of (1) through ({k}). "
        "Your selection is:"
    )


class Vocabulary:
    """Token table: 3 specials, 256 byte-fallback ids, then word tokens.

    Word ids are dense starting at WORD_ID_BASE; any segment not in the word
    table (including whitespace runs) is encoded as its UTF-8 bytes, which
    makes encode total.  A word absorbs a single space between it and the
    non-space segment before it; decode restores that space before a word
    whenever the text so far ends in non-whitespace, which makes it an exact
    inverse, because `re`'s whitespace class and `str.isspace` agree.
    """

    def __init__(self, words: Sequence[str]):
        self._words = tuple(words)
        self._word_to_id = {w: WORD_ID_BASE + i for i, w in enumerate(self._words)}
        if len(self._word_to_id) != len(self._words):
            raise ValueError("duplicate words in vocabulary")
        for w in self._words:
            if not w or any(c.isspace() for c in w):
                raise ValueError(f"word tokens must be nonempty and whitespace-free: {w!r}")

    @property
    def size(self) -> int:
        return WORD_ID_BASE + len(self._words)

    @property
    def words(self) -> tuple[str, ...]:
        return self._words

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        table = self._word_to_id
        segments = _SEGMENT_RE.findall(text)
        last = len(segments) - 1
        for n, seg in enumerate(segments):
            wid = table.get(seg)
            if wid is not None:
                ids.append(wid)
            elif seg == " " and 0 < n < last and segments[n + 1] in table:
                continue  # absorbed by the word after it; segments alternate, so a non-space precedes it
            else:
                ids.extend(NUM_SPECIALS + b for b in seg.encode("utf-8"))
        return ids

    def decode(self, ids: Sequence[int]) -> str:
        parts: list[str] = []
        pending = bytearray()

        def flush() -> None:
            if pending:
                parts.append(pending.decode("utf-8", errors="replace"))
                pending.clear()

        for i in ids:
            if NUM_SPECIALS <= i < WORD_ID_BASE:
                pending.append(i - NUM_SPECIALS)
            elif i >= WORD_ID_BASE:
                flush()
                if parts and not parts[-1][-1].isspace():
                    parts.append(" ")  # the space the word absorbed
                parts.append(self._words[i - WORD_ID_BASE])
            else:
                flush()  # specials render as nothing
        flush()
        return "".join(parts)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for w in self._words:
                fh.write(w + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, "r", encoding="utf-8") as fh:
            words = [line.rstrip("\n") for line in fh]
        while words and words[-1] == "":
            words.pop()
        return cls(words)

    def content_hash(self) -> str:
        return hashlib.sha256("\n".join(self._words).encode("utf-8")).hexdigest()


def build_vocab(corpus: Sequence[str], max_size: int = 4096) -> Vocabulary:
    """Frequency-ranked word vocabulary (ties broken lexicographically),
    followed by the answer words; `max_size` counts them."""
    if max_size < MIN_VOCAB_SIZE:
        raise ValueError(f"max_size must be at least {MIN_VOCAB_SIZE} (specials, bytes, answer words)")
    if not corpus or all(not doc.strip() for doc in corpus):
        raise EmptyCorpus("vocabulary corpus is empty")
    counts: Counter[str] = Counter()
    for doc in corpus:
        counts.update(doc.split())
    for word in ANSWER_WORDS:
        counts.pop(word, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary([w for w, _ in ranked[: max_size - MIN_VOCAB_SIZE]] + list(ANSWER_WORDS))


def encode_answer(action: int, catalog: StrategyCatalog, vocab: Vocabulary) -> list[int]:
    """Token ids of the answer " (k)" after the prompt: the one word `(k)`,
    which absorbs the space, since the prompt ends in a non-space."""
    catalog.by_id(action)  # validates the id
    ids = vocab.encode(f"({action})")
    if len(ids) != 1:
        raise ValueError(f"answer word ({action}) is not in the vocabulary")
    return ids


@dataclass
class EncodedPair:
    """Token ids for instruction + appended answer, with the answer span.

    `action_span` is the half-open [start, end) range covering exactly the
    one token of the answer text " (k)", the word `(k)`, at the sequence tail.
    """

    tokens: np.ndarray
    action_span: tuple[int, int]


def encode_pair(
    state: DialogueState,
    action: int,
    catalog: StrategyCatalog,
    vocab: Vocabulary,
    window: int = 2048,
) -> EncodedPair:
    """Tokenize instruction ++ answer, dropping oldest history turns to fit.

    Description, query, the option list and the answer are never truncated;
    only leading history turns are removed, one at a time, until the full
    sequence (including the BOS prefix) fits in `window` tokens.  Every
    answer is one token, so the kept prompt does not depend on `action`.
    """
    answer_ids = encode_answer(action, catalog, vocab)
    for drop in range(len(state.history) + 1):
        candidate = state if drop == 0 else replace(state, history=state.history[drop:])
        prompt_ids = vocab.encode(render_mcq(candidate, catalog))
        total = 1 + len(prompt_ids) + len(answer_ids)
        if total <= window:
            tokens = np.array([BOS_ID] + prompt_ids + answer_ids, dtype=np.int64)
            return EncodedPair(tokens=tokens, action_span=(1 + len(prompt_ids), total))
    raise ContextOverflow(
        f"prompt needs {total} tokens with empty history but the window is {window}"
    )
