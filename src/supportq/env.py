"""Synthetic staged emotional-support environment with an exact oracle.

Episodes follow the canonical three-phase progression (exploration,
comforting, action).  The hidden state is a small tuple (progress step,
current stage, emotion, stage of the last strategy used); utterances are
deterministic templates of that tuple.  Because the dynamics depend only on
the hidden tuple, the whole process exports to an explicit tabular MDP, and
value iteration on that table gives ground-truth Q values against which a
trained scorer can be checked exactly.

Sampling: every random choice of reset and step draws one uniform from the
episode's generator and maps it through a cumulative distribution built once
per environment, the same cumsum-and-normalise `Generator.choice(n, p=...)`
builds on every call.  The streams, and so every episode, are those
`Generator.choice` would give; only its per-call checks and rebuilding are
skipped, and `StagedEnvConfig` rejects at construction what they rejected.

Rollouts: `rollouts(env, n_episodes, policy, seed)` is the one episode loop;
`collect_transitions`, `demo_episodes` and the CLI's `simulate` run on it.
One generator per call seeds every episode's `reset` and picks every action,
uniformly by default or as `policy(state, rng)`, so a policy that draws
randomness draws from the same stream.

Reward design: an action whose stage matches the seeker's current stage pays
+1 scaled by a per-strategy effectiveness (the lowest-id strategy of each
stage is the most effective), a regression to an earlier stage pays -1, and
everything else pays 0.  The effectiveness scaling makes the optimal action
unique in every state, so "agrees with the oracle policy" is well defined.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .core import (
    DialogueState,
    Emotion,
    Episode,
    Speaker,
    Stage,
    StrategyCatalog,
    Transition,
    Turn,
    default_catalog,
)

ESCONV_EMOTION_COUNTS: tuple[tuple[str, float], ...] = (
    ("anger", 111.0),
    ("anxiety", 354.0),
    ("depression", 334.0),
    ("disgust", 40.0),
    ("fear", 95.0),
    ("nervousness", 13.0),
    ("sadness", 308.0),
    ("shame", 42.0),
)

DESCRIPTION_TEMPLATE = "Lately I have been dealing with {label} and it is affecting my daily life."

STAGE_QUERIES: dict[int, tuple[str, ...]] = {
    1: (
        "I am not even sure where to begin, everything feels like too much.",
        "It keeps piling up and I have not told anyone the whole story yet.",
        "Honestly I am still trying to put what happened into words.",
    ),
    2: (
        "Talking about it helps, but the feelings are still really heavy.",
        "I guess I mostly need to know that I am not overreacting.",
        "Some days I can cope, other days it all comes rushing back.",
    ),
    3: (
        "What do you think I should actually do about it?",
        "I want to make a plan before things get worse again.",
        "Is there something concrete I could try this week?",
    ),
}

RESPONSE_TEMPLATES: dict[str, str] = {
    "Question": "Can you tell me more about when this started and what makes it worse?",
    "Restatement or Paraphrasing": "So if I understand you, the situation has been weighing on you for a while now.",
    "Reflection of Feelings": "It sounds like you are carrying a lot of pain and exhaustion right now.",
    "Self-disclosure": "I went through something similar once, and I remember how draining it felt.",
    "Affirmation and Reassurance": "You have already shown real strength by facing this, and things can get better.",
    "Providing Suggestions": "Maybe you could start with one small step, like writing down what you can control.",
    "Information": "There are support lines and counseling services that specialize in exactly this.",
    "Others": "Thank you for sharing that with me.",
}

# last-strategy slot: 0 = nothing yet, then `Stage.slot` of the last strategy's stage
LAST_SLOTS = (0, *sorted(stage.slot for stage in Stage))


class EpisodeFinished(RuntimeError):
    """step() called after the episode terminated."""


class StateSpaceTooLarge(ValueError):
    """Tabular export would exceed the configured state cap."""


class LatentState(NamedTuple):
    progress: int
    stage: int  # seeker's current stage, 1..3
    emotion: str
    last_slot: int  # see LAST_SLOTS


@dataclass(frozen=True)
class StagedEnvConfig:
    horizon: int = 8
    emotion_weights: tuple[tuple[str, float], ...] = ESCONV_EMOTION_COUNTS
    match_advance_prob: float = 0.8
    mismatch_advance_prob: float = 0.2
    reward_source: str = "stage_match"  # or "judge"
    secondary_effectiveness: float = 0.6
    regression_reward: float = -1.0
    neutral_reward: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.reward_source not in ("stage_match", "judge"):
            raise ValueError(f"unknown reward source {self.reward_source!r}")
        for name in ("match_advance_prob", "mismatch_advance_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # NaN fails too
                raise ValueError(f"{name} must be in [0, 1]")
        if not all(math.isfinite(w) and w >= 0 for _, w in self.emotion_weights):
            raise ValueError("emotion weights must be finite and non-negative")
        total = sum(w for _, w in self.emotion_weights)
        if not 0 < total < math.inf:
            raise ValueError("emotion weights must have positive finite mass")


def response_template(name: str) -> str:
    return RESPONSE_TEMPLATES.get(name, f"I hear you. Let me offer {name.lower()}.")


def _choice_cdf(p) -> np.ndarray:
    """The CDF `Generator.choice(len(p), p=p)` searches with its one uniform."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


class StagedEnv:
    """Episodic simulator over the latent (progress, stage, emotion, last) tuple."""

    def __init__(self, config: StagedEnvConfig = StagedEnvConfig(), catalog: Optional[StrategyCatalog] = None):
        self.config = config
        self.catalog = catalog if catalog is not None else default_catalog()
        self._labels = tuple(label for label, _ in config.emotion_weights)
        weights = np.array([w for _, w in config.emotion_weights], dtype=np.float64)
        self._emotion_cdf = _choice_cdf(weights / weights.sum())
        # u < cut picks the stage advance, as choice(2, p=[adv, 1 - adv]) does
        self._advance_cut = {
            adv: float(_choice_cdf([adv, 1.0 - adv])[0])
            for adv in (config.match_advance_prob, config.mismatch_advance_prob)
        }
        self._rank = {s.id: s.stage.rank for s in self.catalog}
        self._slot = {s.id: s.stage.slot for s in self.catalog}
        # lowest id per stage is the most effective strategy of that stage
        first_of_stage: dict[int, int] = {}
        self._effectiveness: dict[int, float] = {}
        for s in self.catalog:
            rank = s.stage.rank
            if rank is not None and rank not in first_of_stage:
                first_of_stage[rank] = s.id
        for s in self.catalog:
            rank = s.stage.rank
            primary = rank is not None and first_of_stage[rank] == s.id
            self._effectiveness[s.id] = 1.0 if primary else config.secondary_effectiveness
        # what a step appends depends only on the action and the query, so each turn is built once
        self._reply_turns = tuple(
            Turn(Speaker.SUPPORTER, response_template(s.name), strategy=s.id) for s in self.catalog
        )
        self._query_turns = {q: Turn(Speaker.SEEKER, q) for pool in STAGE_QUERIES.values() for q in pool}
        self._judge = None
        if config.reward_source == "judge":
            from .rewards import SyntheticJudge

            self._judge = SyntheticJudge(
                catalog=self.catalog, nominal_turns=config.horizon, seed=config.seed
            )
        self._master = np.random.default_rng(config.seed)
        self._rng = self._master
        self._done = True
        self._latent: Optional[LatentState] = None
        self._state: Optional[DialogueState] = None
        self.last_response: Optional[str] = None

    # -- helpers --------------------------------------------------------------

    def _query_text(self, latent: LatentState) -> str:
        pool = STAGE_QUERIES[latent.stage]
        return pool[latent.progress % len(pool)]

    @property
    def latent(self) -> LatentState:
        if self._latent is None:
            raise RuntimeError("environment not reset")
        return self._latent

    @property
    def done(self) -> bool:
        return self._done

    def state(self) -> DialogueState:
        """The state the last reset or step returned."""
        if self._state is None:
            raise RuntimeError("environment not reset")
        return self._state

    # -- dynamics -------------------------------------------------------------

    def _stage_match_reward(self, latent: LatentState, action: int) -> float:
        rank = self._rank[action]
        if rank == latent.stage:
            return 1.0 * self._effectiveness[action]
        if rank is not None and rank < latent.stage:
            return self.config.regression_reward
        return self.config.neutral_reward

    def _reward(self, latent: LatentState, action: int, state: DialogueState, response: str) -> float:
        if self._judge is not None:
            return float(self._judge.score(state, action, response))
        return self._stage_match_reward(latent, action)

    def _successors(self, latent: LatentState, action: int) -> list[tuple[LatentState, float]]:
        """Successor latents with probabilities (terminal steps return [])."""
        rank = self._rank[action]
        last_slot = self._last_slot(action)
        next_progress = latent.progress + 1
        if next_progress >= self.config.horizon:
            return []
        adv = (
            self.config.match_advance_prob
            if rank == latent.stage
            else self.config.mismatch_advance_prob
        )
        stay = LatentState(next_progress, latent.stage, latent.emotion, last_slot)
        if latent.stage >= 3:
            return [(stay, 1.0)]
        up = LatentState(next_progress, latent.stage + 1, latent.emotion, last_slot)
        return [(up, adv), (stay, 1.0 - adv)]

    def reset(self, seed: Optional[int] = None) -> DialogueState:
        """Start a fresh episode; a given seed makes it exactly reproducible.

        Draws one uniform for the emotion label, the draw and the label
        `Generator.choice(len(labels), p=weights)` gives, then one
        `integers(1, 6)` for its intensity.
        """
        self._rng = np.random.default_rng(seed) if seed is not None else self._master
        label = self._labels[int(self._emotion_cdf.searchsorted(self._rng.random(), side="right"))]
        intensity = int(self._rng.integers(1, 6))
        self._latent = LatentState(progress=0, stage=1, emotion=label, last_slot=0)
        self._state = DialogueState(
            description=DESCRIPTION_TEMPLATE.format(label=label),
            emotion=Emotion(label, intensity),
            history=(),
            query=self._query_text(self._latent),
        )
        self._done = False
        self.last_response = None
        return self._state

    def step(self, action: int) -> tuple[DialogueState, float, bool]:
        """Apply a strategy; returns (next state, reward, terminal).

        A non-terminal step draws one uniform to pick its successor, the draw
        and the pick `Generator.choice` over the successor probabilities
        gives, even when the one successor is certain; a terminal step draws
        nothing.

        The history grows by the environment's own seeker turn for the
        query and supporter turn for the action, built once in `__init__`
        and shared by every state; `last_response` is that turn's text.
        An action that is not a strategy id raises what `catalog.by_id`
        raises for it.
        """
        if self._done or self._latent is None:
            raise EpisodeFinished("call reset() before stepping")
        if not 1 <= action <= len(self._reply_turns):
            self.catalog.by_id(action)  # raises its KeyError
        reply = self._reply_turns[action - 1]  # a non-integral id raises TypeError, as in by_id
        latent, state = self._latent, self._state
        reward = self._reward(latent, action, state, reply.text)
        self.last_response = reply.text

        successors = self._successors(latent, action)
        history = state.history + (self._query_turns[state.query], reply)
        if not successors:
            self._done = True
            self._latent = LatentState(
                self.config.horizon, latent.stage, latent.emotion, self._last_slot(action)
            )
            query = state.query
        else:
            u = self._rng.random()  # drawn over a certain successor too, as choice does
            nxt, adv = successors[0]
            if len(successors) == 2 and u >= self._advance_cut[adv]:
                nxt = successors[1][0]
            self._latent = nxt
            query = self._query_text(nxt)
        self._state = DialogueState(state.description, state.emotion, history, query)
        return self._state, reward, self._done

    def _last_slot(self, action: int) -> int:
        return self._slot[action]

    # -- oracle-facing views ----------------------------------------------------

    def canonical_state(self, latent: LatentState) -> DialogueState:
        """A dialogue state realizing `latent`; any path to the latent yields
        the same scorer features, so this one stands in for all of them."""
        history: list[Turn] = []
        for t in range(latent.progress):
            history.append(Turn(Speaker.SEEKER, STAGE_QUERIES[1][t % 3]))
            strategy = None
            if t == latent.progress - 1:  # no strategy has slot 0, the "none yet" slot
                strategy = next((s.id for s in self.catalog if self._last_slot(s.id) == latent.last_slot), None)
            history.append(Turn(Speaker.SUPPORTER, "I see.", strategy=strategy))
        return DialogueState(
            description=DESCRIPTION_TEMPLATE.format(label=latent.emotion),
            emotion=Emotion(latent.emotion),
            history=tuple(history),
            query=self._query_text(latent),
        )

    def to_tabular(self, max_states: int = 10_000) -> "TabularMDP":
        """Exact explicit model of the sampling law of reset/step."""
        cfg = self.config
        latents = [
            LatentState(p, s, e, l)
            for p, s, e, l in itertools.product(
                range(cfg.horizon), (1, 2, 3), self._labels, LAST_SLOTS
            )
        ]
        n = len(latents) + 1
        if n > max_states:
            raise StateSpaceTooLarge(f"{n} states exceed the cap of {max_states}")
        terminal_index = n - 1
        index = {lat: i for i, lat in enumerate(latents)}
        k = len(self.catalog)
        succ_idx = np.zeros((n, k, 2), dtype=np.int64)
        succ_p = np.zeros((n, k, 2), dtype=np.float64)
        rewards = np.zeros((n, k), dtype=np.float64)
        terminal = np.zeros(n, dtype=bool)
        terminal[terminal_index] = True
        for lat in latents:
            i = index[lat]
            state = self.canonical_state(lat) if self._judge is not None else None
            for a in self.catalog.ids:
                rewards[i, a - 1] = self._reward(lat, a, state, self._reply_turns[a - 1].text)
                successors = self._successors(lat, a)
                if not successors:
                    succ_idx[i, a - 1, 0] = terminal_index
                    succ_p[i, a - 1, 0] = 1.0
                else:
                    for m, (nxt, p) in enumerate(successors):
                        succ_idx[i, a - 1, m] = index[nxt]
                        succ_p[i, a - 1, m] = p
        return TabularMDP(
            succ_idx=succ_idx,
            succ_p=succ_p,
            rewards=rewards,
            terminal=terminal,
            latents=tuple(latents),
            terminal_index=terminal_index,
        )

    def demo_episodes(self, n: int, fidelity: float = 0.65, seed: int = 0) -> list[Episode]:
        """Synthetic annotated sessions from an imperfect stage-following policy.

        With probability `fidelity` the demonstrator picks uniformly among the
        strategies matching the seeker's current stage, otherwise uniformly
        among all strategies -- mimicking how real annotations track the stage
        theory only approximately.
        """
        by_stage: dict[int, list[int]] = {1: [], 2: [], 3: []}
        for s in self.catalog:
            if s.stage.rank is not None:
                by_stage[s.stage.rank].append(s.id)

        def demonstrator(state: DialogueState, rng: np.random.Generator) -> int:
            if rng.random() < fidelity:
                pool = by_stage[self.latent.stage]  # rng.choice(pool) is this one integers draw
                return pool[int(rng.integers(0, len(pool)))]
            return int(rng.integers(1, len(self.catalog) + 1))

        episodes: list[Episode] = []
        turns: list[Turn] = []
        for _, state, _, _, next_state, done, _ in rollouts(self, n, demonstrator, seed):
            seeker, reply = next_state.history[-2:]  # the step's shared turns
            if not turns:  # the opening seeker turn carries the session's emotion
                seeker = Turn(Speaker.SEEKER, state.query, emotion=state.emotion)
            turns += (seeker, reply)
            if done:
                session_id = f"demo-{len(episodes):05d}"
                episodes.append(Episode(state.description, tuple(turns), session_id, emotion=state.emotion))
                turns = []
        return episodes


# np.random.Generator as a string: evaluating it here would import numpy.random at module load
Policy = Callable[[DialogueState, "np.random.Generator"], int]


def rollouts(
    env: StagedEnv, n_episodes: int, policy: Optional[Policy] = None, seed: int = 0
) -> Iterator[tuple[LatentState, DialogueState, int, float, DialogueState, bool, str]]:
    """Roll `n_episodes` episodes and yield one tuple per step:
    (latent, state, action, reward, next state, done, response).

    One `default_rng(seed)` seeds every episode's reset and picks every action:
    uniformly over the K strategies by default, else `policy(state, rng)`.
    """
    rng = np.random.default_rng(seed)
    k = len(env.catalog)
    for _ in range(n_episodes):
        state = env.reset(seed=int(rng.integers(2**31)))
        done = False
        while not done:
            latent = env.latent
            action = policy(state, rng) if policy is not None else int(rng.integers(1, k + 1))
            next_state, reward, done = env.step(action)
            yield latent, state, action, reward, next_state, done, env.last_response
            state = next_state


def collect_transitions(
    env: StagedEnv,
    n_episodes: int,
    policy: Optional[Policy] = None,
    seed: int = 0,
    with_latents: bool = False,
):
    """The transitions of `rollouts(env, n_episodes, policy, seed)`, in order.

    A terminal transition has no next state.  With `with_latents`, also
    returns one (latent, action) pair per transition for oracle lookups.
    """
    transitions: list[Transition] = []
    latent_steps: list[tuple[LatentState, int]] = []
    for latent, state, action, reward, next_state, done, response in rollouts(env, n_episodes, policy, seed):
        next_state = None if done else next_state
        transitions.append(Transition(state, action, reward, next_state, terminal=done, response=response))
        latent_steps.append((latent, action))
    if with_latents:
        return transitions, latent_steps
    return transitions


@dataclass
class TabularMDP:
    """Explicit finite MDP: sparse successor lists, reward table, terminal set.

    Terminal states have no outgoing probability mass and zero reward.
    """

    succ_idx: np.ndarray  # (S, A, M) successor state indices
    succ_p: np.ndarray  # (S, A, M) successor probabilities
    rewards: np.ndarray  # (S, A)
    terminal: np.ndarray  # (S,) bool
    latents: Optional[tuple[LatentState, ...]] = None
    terminal_index: Optional[int] = None
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        sums = self.succ_p.sum(axis=-1)
        live = ~self.terminal
        if live.any() and not np.allclose(sums[live], 1.0, atol=1e-12):
            raise ValueError("non-terminal transition rows must sum to 1")
        if self.terminal.any() and not np.all(sums[self.terminal] == 0.0):
            raise ValueError("terminal states must have no outgoing mass")
        if self.latents is not None:
            self._index = {lat: i for i, lat in enumerate(self.latents)}

    @property
    def n_states(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_actions(self) -> int:
        return self.rewards.shape[1]

    def index_of(self, latent: LatentState) -> int:
        return self._index[latent]


@dataclass
class ValueIterationResult:
    q: np.ndarray  # (S, A)
    v: np.ndarray  # (S,)
    policy: np.ndarray  # (S,) strategy ids, smallest id on ties


def value_iteration(
    mdp: TabularMDP, gamma: float, tol: float = 1e-10, max_iters: int = 1_000_000
) -> ValueIterationResult:
    """Bellman-optimality iteration to a sup-norm fixed point.

    Sweeps are gamma-contractions, so stopping once the sweep change falls
    below tol*(1-gamma)/gamma leaves the returned table within `tol` of the
    true optimum in sup norm, with a Bellman residual below `tol` at every
    state-action pair.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    if tol <= 0:
        raise ValueError("tol must be positive")
    threshold = tol * (1.0 - gamma) / gamma if gamma > 0 else np.inf
    q = np.zeros_like(mdp.rewards)
    for _ in range(max_iters):
        v = q.max(axis=1)
        q_new = mdp.rewards + gamma * (mdp.succ_p * v[mdp.succ_idx]).sum(axis=-1)
        delta = np.abs(q_new - q).max()
        q = q_new
        if delta < threshold:
            break
    v = q.max(axis=1)
    policy = np.argmax(q, axis=1) + 1
    return ValueIterationResult(q=q, v=v, policy=policy)
