"""DQN-style training of a Q-scorer on a fixed set of transitions.

The training set is a list of reward-assigned transitions, fixed before the
first step as in fitted Q iteration, so it is encoded once, before the first
step: every state and next-state object becomes a row of a table of
distinct codes (`Scorer.encode`), and no step renders, hashes or tokenizes
text again.  Batches are sampled uniformly with replacement from the whole
list (or swept in order); targets come from one batched call of a
periodically synchronized copy of the scorer over the batch's next-state
rows, so no gradient ever flows through the target side; the squared TD
error is minimized with Adam under a global gradient-norm clip.
`compute_targets` and `train_step` take transitions and run the same
encoded path on their batch.

Everything is seeded and single-threaded by default, so a fixed
configuration reproduces its loss sequence bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import StrategyCatalog, Transition
from .encoding import Vocabulary
from .qnet.base import encode_states


class InsufficientData(ValueError):
    """Fewer transitions than one batch."""


class MissingNextState(ValueError):
    """Non-terminal transition without a successor state."""


@dataclass(frozen=True)
class TrainerConfig:
    gamma: float = 0.85
    learning_rate: float = 0.0  # 0 means the scorer's default_learning_rate
    batch_size: int = 64
    target_sync_every: int = 10
    epochs: int = 4
    seed: int = 0
    grad_clip: float = 1.0
    sample_in_order: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must not be negative")
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        for name in ("batch_size", "target_sync_every", "epochs", "grad_clip"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class Adam:
    """Adaptive-moment optimizer; parameters update in sorted-name order."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        for name in sorted(grads):
            g = grads[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(g)
                self._v[name] = np.zeros_like(g)
            m = self._m[name]
            v = self._v[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            params[name] -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def td_target(
    reward: float,
    next_state,
    terminal: bool,
    target_scorer,
    catalog: StrategyCatalog,
    vocab: Optional[Vocabulary],
    gamma: float,
) -> float:
    """r for terminal steps, else r + gamma * max_a' Q_target(s', a'): one
    transition's `compute_targets`.  The target is a constant to the
    optimizer by construction.
    """
    if terminal:
        return float(reward)
    if next_state is None:
        raise MissingNextState("non-terminal transition lacks next_state")
    if gamma == 0.0:
        return float(reward)
    return float(reward + gamma * target_scorer.q_all(next_state, catalog, vocab).max())


@dataclass
class StepRecord:
    step: int
    loss: float
    mean_target: float
    synced: bool


@dataclass
class TrainLog:
    records: list[StepRecord] = field(default_factory=list)

    def append(self, step: int, loss: float, mean_target: float, synced: bool) -> None:
        self.records.append(StepRecord(step, loss, mean_target, synced))

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss", "mean_target", "synced"])
            for r in self.records:
                writer.writerow([r.step, repr(r.loss), repr(r.mean_target), int(r.synced)])


def sync_target(scorer, target) -> None:
    """Make the target an exact deep copy of the online scorer."""
    target.load_state_dict(scorer.state_dict())


@dataclass
class EncodedTransitions:
    """Transitions as rows of a table of distinct state codes."""

    table: list  # the distinct codes, one per value
    state: np.ndarray  # (n,) row of each state
    next: np.ndarray  # (n,) row of each next state; -1 where the target is the reward alone
    action: np.ndarray  # (n,) strategy ids
    reward: np.ndarray  # (n,)


def encode_transitions(
    transitions: list[Transition],
    scorer,
    catalog: StrategyCatalog,
    vocab: Optional[Vocabulary],
    gamma: float,
    states: bool = True,
) -> EncodedTransitions:
    """Check and encode reward-assigned transitions; the next states only
    where a target bootstraps (non-terminal, gamma > 0), the states only if
    `states` is set."""
    for tr in transitions:
        if tr.reward is None:
            raise ValueError("transition reward unset; assign rewards before training")
        if not tr.terminal and tr.next_state is None:
            raise MissingNextState("non-terminal transition lacks next_state")
        catalog.by_id(tr.action)
    live = [i for i, tr in enumerate(transitions) if not tr.terminal] if gamma > 0.0 else []
    heads = [tr.state for tr in transitions] if states else []
    table, rows = encode_states(scorer, heads + [transitions[i].next_state for i in live], catalog, vocab)
    nxt = np.full(len(transitions), -1, dtype=np.intp)
    nxt[live] = rows[len(heads) :]
    return EncodedTransitions(
        table=table,
        state=rows[: len(heads)],
        next=nxt,
        action=np.array([tr.action for tr in transitions]),
        reward=np.array([tr.reward for tr in transitions], dtype=np.float64),
    )


def compute_targets_encoded(
    data: EncodedTransitions,
    picks: np.ndarray,
    target_scorer,
    catalog: StrategyCatalog,
    vocab: Optional[Vocabulary],
    gamma: float,
) -> np.ndarray:
    """TD targets of the transitions `picks`: r + gamma * max_a' Q_target(s', a')
    where the next row is set, else r, from one `q_encoded` call over the
    picked next-state rows."""
    out = data.reward[picks]
    nxt = data.next[picks]
    live = nxt >= 0
    if live.any():
        q = target_scorer.q_encoded(data.table, nxt[live], catalog, vocab)
        out[live] = out[live] + gamma * q.max(axis=1)
    return out


def train_step_encoded(
    scorer,
    target_scorer,
    data: EncodedTransitions,
    picks: np.ndarray,
    cfg: TrainerConfig,
    catalog: StrategyCatalog,
    vocab: Optional[Vocabulary],
    optimizer: Adam,
) -> tuple[float, float]:
    """One optimizer step on the transitions `picks`: (loss, mean target)."""
    targets = compute_targets_encoded(data, picks, target_scorer, catalog, vocab, cfg.gamma)
    loss, grads = scorer.loss_and_grads_encoded(
        data.table, data.state[picks], data.action[picks], targets, catalog, vocab
    )
    clip_global_norm(grads, cfg.grad_clip)
    optimizer.step(scorer.params, grads)
    return loss, float(targets.mean())


def compute_targets(
    batch: list[Transition],
    target_scorer,
    catalog: StrategyCatalog,
    vocab: Optional[Vocabulary],
    gamma: float,
) -> np.ndarray:
    """TD targets of a batch, with its distinct non-terminal next states
    encoded once and scored in one batched call."""
    data = encode_transitions(batch, target_scorer, catalog, vocab, gamma, states=False)
    return compute_targets_encoded(data, np.arange(len(batch)), target_scorer, catalog, vocab, gamma)


def train_step(
    scorer,
    target_scorer,
    batch: list[Transition],
    cfg: TrainerConfig,
    catalog: StrategyCatalog,
    vocab: Optional[Vocabulary],
    optimizer: Adam,
) -> tuple[float, float]:
    """One optimizer step on the mean squared TD error of `batch`.

    Returns (loss, mean target).  The target scorer is never touched.
    """
    if not batch:
        raise InsufficientData("empty batch")
    data = encode_transitions(batch, scorer, catalog, vocab, cfg.gamma)
    return train_step_encoded(scorer, target_scorer, data, np.arange(len(batch)), cfg, catalog, vocab, optimizer)


def fit(
    transitions: list[Transition],
    scorer,
    catalog: StrategyCatalog,
    vocab: Optional[Vocabulary],
    cfg: TrainerConfig,
) -> TrainLog:
    """Run the DQN loop over a list of reward-assigned transitions.

    The list is encoded once; every step draws its batch from all of it.
    Epochs count passes over the list; the target net syncs every
    `target_sync_every` optimizer steps.
    """
    n = len(transitions)
    if n < cfg.batch_size:
        raise InsufficientData(f"need at least {cfg.batch_size} transitions, got {n}")
    data = encode_transitions(transitions, scorer, catalog, vocab, cfg.gamma)
    rng = np.random.default_rng(cfg.seed + 1)
    target = scorer.clone()
    optimizer = Adam(cfg.learning_rate or scorer.default_learning_rate)
    log = TrainLog()
    for step in range(cfg.epochs * (n // cfg.batch_size)):
        if cfg.sample_in_order:
            start = step * cfg.batch_size
            picks = (start + np.arange(cfg.batch_size)) % n
        else:
            picks = rng.integers(0, n, size=cfg.batch_size)
        loss, mean_target = train_step_encoded(scorer, target, data, picks, cfg, catalog, vocab, optimizer)
        synced = (step + 1) % cfg.target_sync_every == 0
        if synced:
            sync_target(scorer, target)
        log.append(step, loss, mean_target, synced)
    return log
