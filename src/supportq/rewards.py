"""Reward assignment for dataset transitions.

Two mechanisms: imitation treats every annotated action as an expert
demonstration (+1) and pairs it with one sampled counter-action (-1) at a
strict 1:1 ratio; distillation asks a judge to grade the supporter reply
and uses the score as the reward.

The synthetic judge grades how well an action tracks the stage progression
and is calibrated so annotated demonstration corpora average about 3.67
with a median of 4 on the 1..5 scale.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from .core import DialogueState, Speaker, StrategyCatalog, Transition


class CatalogTooSmall(ValueError):
    """Negative sampling needs at least two strategies."""


class JudgeFailure(RuntimeError):
    """A judge could not produce a score; no partial batch is returned."""


class Judge(Protocol):
    def score(self, state: DialogueState, action: int, response: str) -> int: ...


def _hash_unit(key: str) -> float:
    """Deterministic value in [0, 1) from the text of `key`."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big") / 2.0**64


@dataclass(frozen=True)
class SyntheticJudge:
    """Stage-progression grader, deterministic given its seed.

    Scoring: base 3; +1 when the action's stage matches the stage expected
    for the conversation's progress tercile; +1 when it advances exactly one
    stage past the previous supporter strategy; -1 when it regresses by two
    or more stages; +-1 content-hashed noise with total probability
    `noise_prob`; clamped to `scale`.  Unstaged actions ("Others") earn no
    bonuses and no penalty.
    """

    catalog: StrategyCatalog
    scale: tuple[int, int] = (1, 5)
    nominal_turns: int = 8
    noise_prob: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        # stage rank of each strategy id; a missing id raises KeyError, as catalog.by_id does
        object.__setattr__(self, "_ranks", {s.id: s.stage.rank for s in self.catalog})

    def expected_stage(self, state: DialogueState) -> int:
        # speakers alternate (DialogueState checks it), so the count follows from the first speaker
        history = state.history
        opens = bool(history) and history[0].speaker is Speaker.SUPPORTER
        supporter_turns = (len(history) + opens) // 2
        frac = min(supporter_turns / self.nominal_turns, 0.999)
        return 1 + min(2, int(3 * frac))

    def score(self, state: DialogueState, action: int, response: str) -> int:
        rank = self._ranks[action]
        value = 3
        if rank is not None and rank == self.expected_stage(state):
            value += 1
        prev = state.last_supporter_strategy()
        prev_rank = None if prev is None else self._ranks[prev]
        if rank is not None and prev_rank is not None:
            if rank - prev_rank == 1:
                value += 1
            elif prev_rank - rank >= 2:
                value -= 1
        # the noise key: seed, query, history length, action and response, as str() writes them, joined by \x1f
        u = _hash_unit(f"{self.seed}\x1f{state.query}\x1f{len(state.history)}\x1f{action}\x1f{response}")
        if u < self.noise_prob / 2:
            value += 1
        elif u < self.noise_prob:
            value -= 1
        lo, hi = self.scale
        return max(lo, min(hi, value))


def imitation_rewards(
    transitions: list[Transition], catalog: StrategyCatalog, seed: int = 0
) -> list[Transition]:
    """+1 for every annotated action, plus one -1 sibling per transition.

    The sibling keeps the same state, next_state and terminal flag but swaps
    in a uniformly sampled different action, so positives and negatives come
    out exactly 1:1, interleaved in input order.
    """
    k = len(catalog)
    if k < 2:
        raise CatalogTooSmall("negative sampling needs K >= 2")
    rng = np.random.default_rng(seed)
    out: list[Transition] = []
    for tr in transitions:
        out.append(replace(tr, reward=1.0))
        offset = int(rng.integers(1, k))  # uniformly among the K-1 other ids
        negative = (tr.action - 1 + offset) % k + 1
        out.append(replace(tr, action=negative, reward=-1.0, response=None))
    return out


def distill_rewards(transitions: list[Transition], judge: Judge) -> list[Transition]:
    """Reward each transition with the judge's score.

    All scores are collected before any output is built, so a judge failure
    leaves no partially rewarded batch behind.
    """
    scores: list[int] = []
    for tr in transitions:
        try:
            scores.append(judge.score(tr.state, tr.action, tr.response or ""))
        except JudgeFailure:
            raise
        except Exception as exc:  # noqa: BLE001 - surface the cause, typed
            raise JudgeFailure(f"judge failed on action {tr.action}: {exc}") from exc
    return [replace(tr, reward=float(s)) for tr, s in zip(transitions, scores)]
