"""DQN-style training of a Q-scorer on a fixed set of transitions.

The training set is a list of reward-assigned transitions, fixed before the
first step as in fitted Q iteration; batches are sampled uniformly with
replacement from the whole list (or swept in order); targets come from a
periodically synchronized copy of the scorer, so no gradient ever flows
through the target side; the squared TD error is minimized with Adam under a
global gradient-norm clip.

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
    """r for terminal steps, else r + gamma * max_a' Q_target(s', a').

    Evaluated outside any differentiation tape: the target is a constant to
    the optimizer by construction.
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


class _OncePerState:
    """A target scorer whose `q_all` runs once per next-state object.

    Keys are object identities: imitation's +1/-1 siblings share one
    `next_state` object, and hashing a `DialogueState` by value costs more
    than the grouping saves on the mlp scorer.
    """

    def __init__(self, scorer):
        self.scorer = scorer
        self.seen: dict[int, np.ndarray] = {}

    def q_all(self, state, catalog: StrategyCatalog, vocab: Optional[Vocabulary]) -> np.ndarray:
        key = id(state)
        if key not in self.seen:
            self.seen[key] = self.scorer.q_all(state, catalog, vocab)
        return self.seen[key]


def compute_targets(
    batch: list[Transition],
    target_scorer,
    catalog: StrategyCatalog,
    vocab: Optional[Vocabulary],
    gamma: float,
) -> np.ndarray:
    """TD targets of a batch, with one `q_all` per distinct non-terminal
    next-state object."""
    once = _OncePerState(target_scorer)
    out = np.empty(len(batch))
    for i, tr in enumerate(batch):
        if tr.reward is None:
            raise ValueError("transition reward unset; assign rewards before training")
        out[i] = td_target(tr.reward, tr.next_state, tr.terminal, once, catalog, vocab, gamma)
    return out


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
    targets = compute_targets(batch, target_scorer, catalog, vocab, cfg.gamma)
    items = [(tr.state, tr.action, float(t)) for tr, t in zip(batch, targets)]
    loss, grads = scorer.loss_and_grads(items, catalog, vocab)
    clip_global_norm(grads, cfg.grad_clip)
    optimizer.step(scorer.params, grads)
    return loss, float(targets.mean())


def fit(
    transitions: list[Transition],
    scorer,
    catalog: StrategyCatalog,
    vocab: Optional[Vocabulary],
    cfg: TrainerConfig,
) -> TrainLog:
    """Run the DQN loop over a list of reward-assigned transitions.

    Every step draws its batch from the whole list.  Epochs count passes
    over the list; the target net syncs every `target_sync_every` optimizer
    steps.
    """
    n = len(transitions)
    if n < cfg.batch_size:
        raise InsufficientData(f"need at least {cfg.batch_size} transitions, got {n}")
    rng = np.random.default_rng(cfg.seed + 1)
    target = scorer.clone()
    optimizer = Adam(cfg.learning_rate or scorer.default_learning_rate)
    log = TrainLog()
    for step in range(cfg.epochs * (n // cfg.batch_size)):
        if cfg.sample_in_order:
            start = step * cfg.batch_size
            picks = [(start + i) % n for i in range(cfg.batch_size)]
        else:
            picks = rng.integers(0, n, size=cfg.batch_size)
        batch = [transitions[i] for i in picks]
        loss, mean_target = train_step(scorer, target, batch, cfg, catalog, vocab, optimizer)
        synced = (step + 1) % cfg.target_sync_every == 0
        if synced:
            sync_target(scorer, target)
        log.append(step, loss, mean_target, synced)
    return log
