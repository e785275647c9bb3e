"""Reward assignment for dataset transitions.

Two mechanisms: imitation treats every annotated action as an expert
demonstration (+1) and pairs it with one sampled counter-action (-1) at a
strict 1:1 ratio; distillation asks a judge to grade the supporter reply
and uses the score (optionally remapped) as the reward.

The synthetic judge grades how well an action tracks the stage progression
and is calibrated so annotated demonstration corpora average about 3.67
with a median of 4 on the 1..5 scale.  A remote judge speaks a minimal
chat-completion HTTP protocol with retries and a content-addressed cache.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Protocol

import numpy as np

from .core import DialogueState, Speaker, StrategyCatalog, Transition
from .encoding import render_judge_prompt

logger = logging.getLogger(__name__)


class CatalogTooSmall(ValueError):
    """Negative sampling needs at least two strategies."""


class JudgeFailure(RuntimeError):
    """A judge could not produce a score; no partial batch is returned."""


class JudgeTimeout(JudgeFailure):
    """Remote judge did not answer within the retry budget."""


class MalformedReply(JudgeFailure):
    """Remote judge reply contained no integer."""


class ScoreOutOfRange(JudgeFailure):
    """Judge score fell outside the configured scale."""


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


def affine_unit_mapping(scale: tuple[int, int]) -> Callable[[int], float]:
    """Map judge scores affinely onto [-1, 1] (endpoints to the endpoints)."""
    lo, hi = scale
    mid = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    return lambda score: (score - mid) / half


def distill_rewards(
    transitions: list[Transition],
    judge: Judge,
    mapping: Optional[Callable[[int], float]] = None,
) -> list[Transition]:
    """Reward each transition with (a mapping of) the judge's score.

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
    fn = mapping if mapping is not None else float
    return [replace(tr, reward=float(fn(s))) for tr, s in zip(transitions, scores)]


@dataclass(frozen=True)
class RemoteJudgeConfig:
    url: str
    model: str = "judge"
    scale: tuple[int, int] = (1, 5)
    timeout: float = 30.0
    max_retries: int = 3
    backoff: float = 0.5
    cache_dir: Optional[str] = None
    log_bodies: bool = False


_INT_RE = re.compile(r"-?\d+")


@dataclass
class RemoteJudge:
    """LLM-as-judge client: render the grading prompt, POST, parse the score."""

    config: RemoteJudgeConfig
    _sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def score(self, state: DialogueState, action: int, response: str) -> int:
        prompt = render_judge_prompt(state, response)
        cached = self._cache_get(prompt)
        if cached is not None:
            return self._check_range(cached)
        reply = self._request(prompt)
        match = _INT_RE.search(reply)
        if match is None:
            raise MalformedReply(f"no integer in judge reply: {reply[:80]!r}")
        value = self._check_range(int(match.group()))
        self._cache_put(prompt, value)
        return value

    def _check_range(self, value: int) -> int:
        lo, hi = self.config.scale
        if not lo <= value <= hi:
            raise ScoreOutOfRange(f"judge score {value} outside {lo}..{hi}")
        return value

    def _request(self, prompt: str) -> str:
        # imported here: only the HTTP judge needs urllib, and it costs every command ~20 ms
        import urllib.error
        import urllib.request

        body = json.dumps(
            {
                "model": self.config.model,
                "messages": [{"role": "user", "content": prompt}],
            }
        ).encode("utf-8")
        if self.config.log_bodies:
            logger.debug("judge request: %s", body.decode("utf-8"))
        last_error: Optional[Exception] = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                self._sleep(self.config.backoff * 2 ** (attempt - 1))
            try:
                req = urllib.request.Request(
                    self.config.url, data=body, headers={"Content-Type": "application/json"}
                )
                with urllib.request.urlopen(req, timeout=self.config.timeout) as resp:
                    payload = json.loads(resp.read().decode("utf-8"))
                if self.config.log_bodies:
                    logger.debug("judge reply: %s", json.dumps(payload))
                return self._extract_text(payload)
            except (urllib.error.URLError, TimeoutError, OSError) as exc:
                last_error = exc
        raise JudgeTimeout(f"judge unreachable after {self.config.max_retries + 1} attempts: {last_error}")

    @staticmethod
    def _extract_text(payload: dict) -> str:
        choices = payload.get("choices")
        if choices:
            message = choices[0].get("message", {})
            return str(message.get("content", choices[0].get("text", "")))
        return str(payload.get("content", payload.get("text", "")))

    def _cache_key(self, prompt: str) -> str:
        blob = json.dumps(
            {"model": self.config.model, "prompt": prompt, "scale": list(self.config.scale)},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _cache_path(self, prompt: str) -> Optional[Path]:
        if self.config.cache_dir is None:
            return None
        key = self._cache_key(prompt)
        return Path(self.config.cache_dir) / key[:2] / f"{key}.json"

    def _cache_get(self, prompt: str) -> Optional[int]:
        """The cached score; a missing, unreadable or corrupt entry is a miss."""
        path = self._cache_path(prompt)
        if path is None:
            return None
        try:
            return int(json.loads(path.read_text())["score"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _cache_put(self, prompt: str, value: int) -> None:
        path = self._cache_path(prompt)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")  # one per writer
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps({"score": value}))
        os.replace(tmp, path)
