"""Domain types for the strategy-level dialogue MDP.

An emotional-support conversation alternates between a help seeker and a
supporter.  Every supporter turn that carries a strategy annotation is one
decision point: the state bundles what the planner may look at (situation
description, seeker emotion, prior turns, current query) and the action is
the integer id of the support strategy used for the reply.

All types here are immutable after construction and safe to share across
threads.  The per-step value types (`Emotion`, `Turn`, `DialogueState`,
`Transition`, `Episode`) are slotted, without a per-instance `__dict__`,
since rollouts and datasets hold many of them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Sequence


class Stage(Enum):
    """Phase of an emotional-support conversation a strategy belongs to."""

    I = "I"
    II = "II"
    III = "III"
    NONE = "NONE"

    @property
    def rank(self) -> Optional[int]:
        """1/2/3 for the ordered stages, None for unstaged strategies."""
        return _STAGE_RANKS[self]

    @property
    def slot(self) -> int:
        """Last-strategy slot: the rank, or 4 for unstaged (slot 0: no strategy yet)."""
        return 4 if self.rank is None else self.rank


_STAGE_RANKS = {Stage.I: 1, Stage.II: 2, Stage.III: 3, Stage.NONE: None}


class Speaker(Enum):
    SEEKER = "seeker"
    SUPPORTER = "supporter"


class IndexOutOfRange(IndexError):
    """Turn index does not address a supporter turn of the episode."""


class MissingQuery(ValueError):
    """No seeker utterance precedes the addressed supporter turn."""


class EmptyEpisode(ValueError):
    """Episode has no annotated supporter turn that follows a seeker query."""


@dataclass(frozen=True)
class Strategy:
    id: int
    name: str
    abbreviation: str
    stage: Stage

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError(f"strategy ids start at 1, got {self.id}")
        if not self.name:
            raise ValueError("strategy name must be nonempty")


def _normalize_name(name: str) -> str:
    return " ".join(name.lower().split())


@dataclass(frozen=True)
class StrategyCatalog:
    """The closed action space: strategies with contiguous ids 1..K.

    Names are matched case-insensitively with whitespace normalization so
    dataset annotations like "reflection of feelings" resolve to the
    canonical entry.  A name or abbreviation that several strategies share
    resolves to the first of them in catalog order.
    """

    strategies: tuple[Strategy, ...]
    _by_name: dict[str, Strategy] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = len(self.strategies)
        if k < 2:
            raise ValueError("catalog needs at least 2 strategies")
        if [s.id for s in self.strategies] != list(range(1, k + 1)):
            raise ValueError("strategy ids must be contiguous 1..K in order")
        names = [_normalize_name(s.name) for s in self.strategies]
        if len(set(names)) != k:
            raise ValueError("strategy names must be unique")
        if sum(1 for s in self.strategies if s.stage is Stage.NONE) > 1:
            raise ValueError("at most one strategy may be unstaged")
        by_name: dict[str, Strategy] = {}
        for s in self.strategies:
            by_name.setdefault(_normalize_name(s.name), s)
            by_name.setdefault(_normalize_name(s.abbreviation), s)
        object.__setattr__(self, "_by_name", by_name)

    def __len__(self) -> int:
        return len(self.strategies)

    def __iter__(self) -> Iterator[Strategy]:
        return iter(self.strategies)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(s.id for s in self.strategies)

    def by_id(self, sid: int) -> Strategy:
        if not 1 <= sid <= len(self.strategies):
            raise KeyError(f"strategy id {sid} outside 1..{len(self.strategies)}")
        return self.strategies[sid - 1]

    def by_name(self, name: str) -> Strategy:
        try:
            return self._by_name[_normalize_name(name)]
        except KeyError:
            raise KeyError(f"unknown strategy name: {name!r}") from None

    def stage_of(self, sid: int) -> Stage:
        return self.by_id(sid).stage

    def content_hash(self) -> str:
        text = "\n".join(f"{s.id}\t{s.name}\t{s.abbreviation}\t{s.stage.value}" for s in self.strategies)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def default_catalog() -> StrategyCatalog:
    """The eight ESConv support strategies and their conversation stages."""
    rows = [
        ("Question", "Que.", Stage.I),
        ("Restatement or Paraphrasing", "Res.& Par.", Stage.I),
        ("Reflection of Feelings", "Ref.", Stage.II),
        ("Self-disclosure", "Self-Dis.", Stage.II),
        ("Affirmation and Reassurance", "Aff.& Rea.", Stage.III),
        ("Providing Suggestions", "Pro.", Stage.III),
        ("Information", "Inf.", Stage.III),
        ("Others", "Others", Stage.NONE),
    ]
    return StrategyCatalog(tuple(Strategy(i + 1, n, a, st) for i, (n, a, st) in enumerate(rows)))


DEFAULT_EMOTIONS: tuple[str, ...] = (
    "anger",
    "anxiety",
    "depression",
    "disgust",
    "fear",
    "nervousness",
    "sadness",
    "shame",
)


@dataclass(frozen=True, slots=True)
class Emotion:
    label: str
    intensity: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("emotion label must be nonempty")
        if self.intensity is not None and not 1 <= self.intensity <= 5:
            raise ValueError(f"emotion intensity must be in 1..5, got {self.intensity}")

    def render(self) -> str:
        if self.intensity is None:
            return self.label
        return f"{self.label} (intensity: {self.intensity})"


@dataclass(frozen=True, slots=True)
class Turn:
    speaker: Speaker
    text: str
    strategy: Optional[int] = None
    emotion: Optional[Emotion] = None

    def __post_init__(self) -> None:
        if self.strategy is not None and self.speaker is not Speaker.SUPPORTER:
            raise ValueError("only supporter turns carry a strategy")
        if self.emotion is not None and self.speaker is not Speaker.SEEKER:
            raise ValueError("only seeker turns carry an emotion")


def _check_alternation(turns: Sequence[Turn], what: str) -> None:
    for a, b in zip(turns, turns[1:]):
        if a.speaker is b.speaker:
            raise ValueError(f"{what} must alternate speakers (merge same-speaker turns first)")


@dataclass(frozen=True, slots=True)
class DialogueState:
    """MDP state: everything the planner sees when choosing a strategy."""

    description: str
    emotion: Emotion
    history: tuple[Turn, ...]
    query: str

    def __post_init__(self) -> None:
        if not self.query:
            raise ValueError("state query must be nonempty")
        _check_alternation(self.history, "state history")

    def last_supporter_strategy(self) -> Optional[int]:
        for turn in reversed(self.history):
            if turn.speaker is Speaker.SUPPORTER and turn.strategy is not None:
                return turn.strategy
        return None


@dataclass(frozen=True, slots=True)
class Transition:
    """One (s, a, r, s') step; terminal steps have no successor state.

    `response` keeps the supporter utterance that realized the action so a
    judge can score the step; it is metadata, not part of the MDP state.
    """

    state: DialogueState
    action: int
    reward: Optional[float] = None
    next_state: Optional[DialogueState] = None
    terminal: bool = False
    response: Optional[str] = None

    def __post_init__(self) -> None:
        if self.terminal != (self.next_state is None):
            raise ValueError("terminal transitions and only those lack a next_state")


@dataclass(frozen=True, slots=True)
class Episode:
    """A full conversation session, optionally with per-turn annotations."""

    description: str
    turns: tuple[Turn, ...]
    session_id: str = ""
    emotion: Optional[Emotion] = None

    def __post_init__(self) -> None:
        _check_alternation(self.turns, "episode turns")

    def supporter_turn_indices(self) -> list[int]:
        return [i for i, t in enumerate(self.turns) if t.speaker is Speaker.SUPPORTER]


def _decision_layout(episode: Episode) -> tuple[list[int], int]:
    """Turn indices of the supporter turns, and of the first seeker turn
    (len(turns) if there is none)."""
    first_seeker = next(
        (i for i, turn in enumerate(episode.turns) if turn.speaker is Speaker.SEEKER), len(episode.turns)
    )
    return episode.supporter_turn_indices(), first_seeker


def _states_before(episode: Episode, positions: Sequence[int]) -> list[DialogueState]:
    """The states observed before the supporter turns at turn indices
    `positions`, ascending and each after the first seeker turn, from one
    walk over the turns.

    Turns alternate, so the seeker query is the turn right before each
    position.  The emotion is the most recent seeker-annotated one up to the
    query, falling back to the session-level label ("unknown" if neither
    exists).
    """
    turns = episode.turns
    emotion = episode.emotion if episode.emotion is not None else Emotion("unknown")
    states: list[DialogueState] = []
    seen = 0
    for j in positions:
        for turn in turns[seen:j]:
            if turn.emotion is not None:  # only seeker turns carry one
                emotion = turn.emotion
        seen = j
        states.append(
            DialogueState(
                description=episode.description,
                emotion=emotion,
                history=turns[: j - 1],
                query=turns[j - 1].text,
            )
        )
    return states


def build_state(episode: Episode, t: int) -> DialogueState:
    """State observed before the t-th supporter turn (0-based among supporter turns).

    The history is every turn strictly before the seeker query that precedes
    the addressed supporter turn, so no future information leaks in.  The
    emotion is the most recent seeker-annotated one, falling back to the
    session-level label ("unknown" if neither exists).
    """
    sup, first_seeker = _decision_layout(episode)
    if not 0 <= t < len(sup):
        raise IndexOutOfRange(f"supporter turn {t} out of range 0..{len(sup) - 1}")
    if sup[t] < first_seeker:
        raise MissingQuery(f"no seeker utterance precedes supporter turn {t}")
    return _states_before(episode, [sup[t]])[0]


def derive_transitions(episode: Episode) -> list[Transition]:
    """MDP transitions from annotated supporter turns, rewards left unset.

    Supporter turns without a strategy annotation or without a preceding
    seeker query are skipped; consecutive annotated turns chain so that
    transition i's next_state is transition i+1's state, and the final
    one is terminal.
    """
    sup, first_seeker = _decision_layout(episode)
    usable = [j for j in sup if j > first_seeker and episode.turns[j].strategy is not None]
    if not usable:
        raise EmptyEpisode(
            f"episode {episode.session_id!r}: no annotated supporter turn follows a seeker query"
        )
    states = _states_before(episode, usable)
    last = len(usable) - 1
    return [
        Transition(
            state=states[n],
            action=episode.turns[j].strategy,  # type: ignore[arg-type]
            reward=None,
            next_state=None if n == last else states[n + 1],
            terminal=n == last,
            response=episode.turns[j].text,
        )
        for n, j in enumerate(usable)
    ]
