"""Corpus ingestion: annotated (ESConv-style) and plain dialogue JSON files.

Expected layout: a JSON array of sessions, each
``{"situation": ..., "emotion_type": ..., "dialog": [{"speaker": ...,
"content": ..., "annotation": {"strategy": ...}}, ...]}``.  Field aliases
("content"/"text", "speaker"/"role", "listener" for the supporter side, ...)
are accepted, consecutive same-speaker utterances are merged with newlines,
and strategy names resolve case-insensitively against the catalog.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_EMOTIONS,
    Emotion,
    Episode,
    Speaker,
    StrategyCatalog,
    Turn,
    default_catalog,
)

logger = logging.getLogger(__name__)
logger.addHandler(logging.NullHandler())

SEEKER_ALIASES = frozenset({"seeker", "usr", "user", "speaker", "help-seeker"})
SUPPORTER_ALIASES = frozenset({"supporter", "sys", "system", "listener", "helper", "assistant"})
CONTENT_KEYS = ("content", "text", "utterance")
SPEAKER_KEYS = ("speaker", "role")


class ParseError(ValueError):
    """File is not valid JSON or violates the session schema."""


class UnknownStrategy(ValueError):
    """A strategy annotation does not resolve against the catalog."""


class UnknownEmotion(ValueError):
    """A session emotion is outside the configured vocabulary."""


def _speaker_of(raw: dict, where: str) -> Speaker:
    for key in SPEAKER_KEYS:
        if key in raw:
            value = str(raw[key]).strip().lower()
            if value in SEEKER_ALIASES:
                return Speaker.SEEKER
            if value in SUPPORTER_ALIASES:
                return Speaker.SUPPORTER
            raise ParseError(f"{where}: unknown speaker {value!r}")
    raise ParseError(f"{where}: turn has no speaker field")


def _content_of(raw: dict, where: str) -> str:
    for key in CONTENT_KEYS:
        if key in raw:
            return str(raw[key])
    raise ParseError(f"{where}: turn has no content field")


def _load_sessions(path) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, list):
        raise ParseError(f"{path}: expected a JSON array of sessions")
    return data


def _parse_session(
    raw: dict,
    idx: int,
    catalog: Optional[StrategyCatalog],
    emotion_vocabulary: Optional[Sequence[str]],
    with_strategies: bool,
) -> Episode:
    where = f"session {idx}"
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object")
    description = str(raw.get("situation", raw.get("description", "")))
    session_id = str(raw.get("session_id", raw.get("id", f"session-{idx:05d}")))

    emotion: Optional[Emotion] = None
    label = raw.get("emotion_type", raw.get("emotion"))
    if label is not None:
        label = str(label).strip().lower()
        if emotion_vocabulary is not None and label not in emotion_vocabulary:
            raise UnknownEmotion(f"{where}: emotion {label!r} not in the configured vocabulary")
        intensity = raw.get("intensity")
        emotion = Emotion(label, int(intensity) if intensity is not None else None)

    dialog = raw.get("dialog", raw.get("dialogue", raw.get("turns")))
    if not isinstance(dialog, list):
        raise ParseError(f"{where}: missing dialog array")

    turns: list[Turn] = []
    for j, item in enumerate(dialog):
        turn_where = f"{where}, turn {j}"
        if not isinstance(item, dict):
            raise ParseError(f"{turn_where}: expected an object")
        speaker = _speaker_of(item, turn_where)
        text = _content_of(item, turn_where)
        annotation = item.get("annotation") or {}
        strategy_id = None
        if with_strategies and speaker is Speaker.SUPPORTER:
            name = annotation.get("strategy", item.get("strategy"))
            if name is not None and catalog is not None:
                try:
                    strategy_id = catalog.by_name(str(name)).id
                except KeyError as exc:
                    raise UnknownStrategy(f"{turn_where}: {exc.args[0]}") from exc
        turn_emotion = None
        if speaker is Speaker.SEEKER:
            e_label = annotation.get("emotion")
            if e_label is not None:
                e_int = annotation.get("intensity")
                turn_emotion = Emotion(
                    str(e_label).strip().lower(), int(e_int) if e_int is not None else None
                )
        if turns and turns[-1].speaker is speaker:
            prev = turns[-1]
            turns[-1] = Turn(
                speaker,
                prev.text + "\n" + text,
                strategy=prev.strategy if prev.strategy is not None else strategy_id,
                emotion=prev.emotion if prev.emotion is not None else turn_emotion,
            )
        else:
            turns.append(Turn(speaker, text, strategy=strategy_id, emotion=turn_emotion))

    return Episode(description=description, turns=tuple(turns), session_id=session_id, emotion=emotion)


def load_esconv(
    path,
    catalog: Optional[StrategyCatalog] = None,
    emotion_vocabulary: Optional[Sequence[str]] = DEFAULT_EMOTIONS,
) -> list[Episode]:
    """Parse an annotated corpus; sessions without any annotated supporter
    turn are dropped (counted in one warning)."""
    catalog = catalog if catalog is not None else default_catalog()
    episodes: list[Episode] = []
    dropped = 0
    for idx, raw in enumerate(_load_sessions(path)):
        episode = _parse_session(raw, idx, catalog, emotion_vocabulary, with_strategies=True)
        if any(t.strategy is not None for t in episode.turns):
            episodes.append(episode)
        else:
            dropped += 1
    if dropped:
        logger.warning("dropped %d session(s) with no annotated supporter turn", dropped)
    return episodes


def load_plain_dialogues(path, emotion_vocabulary: Optional[Sequence[str]] = None) -> list[Episode]:
    """Parse a strategy-free corpus (usable for evaluation rollouts only)."""
    return [
        _parse_session(raw, idx, None, emotion_vocabulary, with_strategies=False)
        for idx, raw in enumerate(_load_sessions(path))
    ]


def save_episodes(path, episodes: Sequence[Episode], catalog: Optional[StrategyCatalog] = None) -> None:
    """Write episodes back in the ingestion schema (load o save == identity)."""
    catalog = catalog if catalog is not None else default_catalog()
    sessions = []
    for ep in episodes:
        dialog = []
        for turn in ep.turns:
            item: dict = {"speaker": turn.speaker.value, "content": turn.text}
            annotation: dict = {}
            if turn.strategy is not None:
                # canonical names resolve back to the same ids on reload
                annotation["strategy"] = catalog.by_id(turn.strategy).name
            if turn.emotion is not None:
                annotation["emotion"] = turn.emotion.label
                if turn.emotion.intensity is not None:
                    annotation["intensity"] = turn.emotion.intensity
            if annotation:
                item["annotation"] = annotation
            dialog.append(item)
        session = {
            "session_id": ep.session_id,
            "situation": ep.description,
            "dialog": dialog,
        }
        if ep.emotion is not None:
            session["emotion_type"] = ep.emotion.label
            if ep.emotion.intensity is not None:
                session["intensity"] = ep.emotion.intensity
        sessions.append(session)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sessions, fh, ensure_ascii=False, indent=1)


def split_episodes(
    episodes: Sequence[Episode], ratio: float = 0.9, seed: int = 0
) -> tuple[list[Episode], list[Episode]]:
    """Seeded train/test split (train fraction = ratio)."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("split ratio must be in (0, 1)")
    order = np.random.default_rng(seed).permutation(len(episodes))
    cut = int(round(len(episodes) * ratio))
    train = [episodes[i] for i in order[:cut]]
    test = [episodes[i] for i in order[cut:]]
    return train, test


@dataclass
class CorpusStats:
    sessions: int = 0
    utterances: int = 0
    avg_utterances_per_session: float = 0.0
    avg_utterance_length: float = 0.0
    emotion_counts: dict = field(default_factory=dict)
    strategy_counts: dict = field(default_factory=dict)
    seeker: dict = field(default_factory=dict)
    supporter: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def corpus_stats(episodes: Sequence[Episode], catalog: Optional[StrategyCatalog] = None) -> CorpusStats:
    """Session/utterance/emotion/strategy statistics; lengths in whitespace tokens."""
    catalog = catalog if catalog is not None else default_catalog()
    stats = CorpusStats()
    stats.sessions = len(episodes)
    lengths: list[int] = []
    role_counts = {Speaker.SEEKER: 0, Speaker.SUPPORTER: 0}
    role_lengths = {Speaker.SEEKER: [], Speaker.SUPPORTER: []}
    emotions: Counter[str] = Counter()
    strategies: Counter[str] = Counter()
    for ep in episodes:
        if ep.emotion is not None:
            emotions[ep.emotion.label] += 1
        for turn in ep.turns:
            n = len(turn.text.split())
            lengths.append(n)
            role_counts[turn.speaker] += 1
            role_lengths[turn.speaker].append(n)
            if turn.strategy is not None:
                strategies[catalog.by_id(turn.strategy).name] += 1
    stats.utterances = len(lengths)
    if stats.sessions:
        stats.avg_utterances_per_session = stats.utterances / stats.sessions
    if lengths:
        stats.avg_utterance_length = float(np.mean(lengths))
    stats.emotion_counts = dict(sorted(emotions.items()))
    stats.strategy_counts = dict(sorted(strategies.items()))
    for speaker, key in ((Speaker.SEEKER, "seeker"), (Speaker.SUPPORTER, "supporter")):
        block = {
            "utterances": role_counts[speaker],
            "avg_per_session": role_counts[speaker] / stats.sessions if stats.sessions else 0.0,
            "avg_length": float(np.mean(role_lengths[speaker])) if role_lengths[speaker] else 0.0,
        }
        setattr(stats, key, block)
    return stats
