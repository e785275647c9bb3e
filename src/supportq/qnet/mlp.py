"""Feature-MLP Q-scorer.

A deterministic feature map turns a state into one row of F features:
one-hot emotion, an action one-hot block left at zero, the stage of the last
supporter strategy, a bucketed history length, and a hashed bag of query
words.  A small tanh network maps the row with action a's one-hot set to
Q(s, a).  The first layer never builds that one-hot: it adds row a of its
weight to the state term x_s @ W0, so Q(s, ·) for a batch of states is one
(B, F) matmul broadcast over the K action rows.  The network is
differentiated by hand, layer by layer.  A pass over every action
multiplies at least two rows in each layer (K rows per state in the hidden
layers; a lone state row goes through the first layer as two copies of
itself), so Q(s, ·) from `q_all`, `q_value` or `select_strategy` equals
s's row of any `q_encoded` call, bit for bit.  On the staged simulator
these features encode the hidden environment state losslessly, making Q
exactly comparable to the DP oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from ..core import DEFAULT_EMOTIONS, DialogueState, Stage, StrategyCatalog
from ..env import STAGE_QUERIES
from .base import ParamSpec, Scorer

_STAGE_SLOT = {None: 0, Stage.I: 1, Stage.II: 2, Stage.III: 3, Stage.NONE: 4}


@lru_cache(maxsize=None)
def _fnv1a(text: str) -> int:
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h


def _word_bag(query: str, hash_dim: int) -> list[float]:
    """Counts of the query's lower-cased words in their FNV-1a buckets."""
    counts = [0.0] * hash_dim
    for word in query.lower().split():
        counts[_fnv1a(word) % hash_dim] += 1.0
    return counts


@lru_cache(maxsize=8)  # one entry per hash_dim in use
def _simulator_bags(hash_dim: int) -> dict[str, np.ndarray]:
    """Read-only word bags of the staged simulator's seeker texts, the only
    queries an env-driven state carries."""
    bags = {}
    for pool in STAGE_QUERIES.values():
        for query in pool:
            bag = bags[query] = np.array(_word_bag(query, hash_dim))
            bag.flags.writeable = False
    return bags


@dataclass(frozen=True)
class FeatureConfig:
    emotions: tuple[str, ...] = DEFAULT_EMOTIONS
    history_bucket_edges: tuple[int, ...] = (1, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24, 32)
    hash_dim: int = 32


def feature_dim(fc: FeatureConfig, n_actions: int) -> int:
    """len(emotions) + K + 5 stage slots + (len(edges)+1) buckets + hash_dim."""
    return len(fc.emotions) + n_actions + 5 + len(fc.history_bucket_edges) + 1 + fc.hash_dim


def extract_features(state: DialogueState, catalog: StrategyCatalog, fc: FeatureConfig) -> np.ndarray:
    """(F,) deterministic feature row of `state`, its action one-hot block at zero.

    The word bag of a staged-simulator query is built once per hash_dim and
    copied into the row; any other query's bag is counted afresh.  Either
    way the returned row is the caller's own.
    """
    k = len(catalog)
    row = np.zeros(feature_dim(fc, k), dtype=np.float64)
    offset = 0

    label = state.emotion.label.lower()
    if label in fc.emotions:
        row[offset + fc.emotions.index(label)] = 1.0
    offset += len(fc.emotions)

    offset += k  # the action one-hot block

    last = state.last_supporter_strategy()
    last_stage = None if last is None else catalog.stage_of(last)
    row[offset + _STAGE_SLOT[last_stage]] = 1.0
    offset += 5

    row[offset + bisect_right(fc.history_bucket_edges, len(state.history))] = 1.0
    offset += len(fc.history_bucket_edges) + 1

    bag = _simulator_bags(fc.hash_dim).get(state.query)
    row[offset:] = _word_bag(state.query, fc.hash_dim) if bag is None else bag
    return row


@dataclass(frozen=True)
class MlpConfig:
    n_actions: int
    features: FeatureConfig = field(default_factory=FeatureConfig)
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        if any(width <= 0 for width in self.hidden):
            raise ValueError("hidden layer widths must be positive")


class MlpScorer(Scorer):
    backend = "mlp"
    default_learning_rate = 1.0e-3

    def __init__(self, config: MlpConfig, seed: int = 0, params: Optional[dict[str, np.ndarray]] = None):
        super().__init__(config, seed, params)
        start = len(config.features.emotions)
        self._action_rows = slice(start, start + config.n_actions)  # the one-hot block's rows of layers.0.w
        self._layers = tuple((f"layers.{i}.w", f"layers.{i}.b") for i in range(1, len(config.hidden) + 1))

    @staticmethod
    def param_specs(config: MlpConfig) -> list[ParamSpec]:
        dims = [feature_dim(config.features, config.n_actions), *config.hidden, 1]
        specs: list[ParamSpec] = []
        for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
            specs.append((f"layers.{i}.w", (d_in, d_out), 1.0 / math.sqrt(d_in)))
            specs.append((f"layers.{i}.b", (d_out,), "zero"))
        return specs

    def encode(self, state: DialogueState, catalog: StrategyCatalog, vocab=None) -> np.ndarray:
        return extract_features(state, catalog, self.config.features)

    def _forward(self, feats: np.ndarray, actions: Optional[np.ndarray] = None):
        """Q for state rows `feats` (B, F) and every action, or one action
        per row when `actions` (B,) holds strategy ids.  The first layer adds
        the action's weight row to the state term instead of multiplying by
        the one-hot.  Returns each hidden layer's tanh output, flattened to
        (B * A, width), and Q as (B, A)."""
        p = self.params
        w = p["layers.0.w"]
        action_rows = w[self._action_rows]
        # one row would take numpy's matrix-vector path, which rounds differently
        state_term = feats @ w if len(feats) > 1 else (feats.repeat(2, axis=0) @ w)[:1]
        x = state_term[:, None, :] + (action_rows if actions is None else action_rows[actions - 1][:, None, :])
        x += p["layers.0.b"]
        shape = x.shape[:2]
        x = x.reshape(-1, x.shape[-1])
        acts = []
        for wk, bk in self._layers:
            acts.append(np.tanh(x, out=x))
            x = x @ p[wk]
            x += p[bk]
        return acts, x.reshape(shape)

    def _backward(self, feats: np.ndarray, actions: np.ndarray, acts: list, dq: np.ndarray) -> dict[str, np.ndarray]:
        """Gradient of sum(dq * Q) with respect to every parameter, from the
        activations of `_forward(feats, actions)`, dq (B, 1): one matmul pair
        per layer with tanh' = 1 - tanh², then the first layer's state term,
        feats.T @ dx, and its action rows, added back with one 1-D `np.add.at`
        over flat cell indices: each cell gets the additions of a row scatter,
        in the same order."""
        p, grads, dx = self.params, {}, dq
        for (wk, bk), a in zip(reversed(self._layers), reversed(acts)):
            grads[wk] = a.T @ dx
            grads[bk] = dx.sum(axis=0)
            dx = (dx @ p[wk].T) * (1.0 - a * a)
        g = grads["layers.0.w"] = feats.T @ dx
        width = g.shape[1]
        cells = (actions + (self._action_rows.start - 1))[:, None] * width + np.arange(width)
        np.add.at(g.reshape(-1), cells.reshape(-1), dx.reshape(-1))
        grads["layers.0.b"] = dx.sum(axis=0)
        return grads

    def q_encoded(self, table, rows, catalog: StrategyCatalog, vocab=None) -> np.ndarray:
        """(len(rows), K) Q values of the codes `table[rows]`, from one pass."""
        return self._finite(self._forward(table[rows])[1])

    def q_value(self, state: DialogueState, action: int, catalog: StrategyCatalog, vocab=None) -> float:
        catalog.by_id(action)
        return float(self._forward(self.encode(state, catalog, vocab)[None])[1][0, action - 1])

    def q_all(self, state: DialogueState, catalog: StrategyCatalog, vocab=None) -> np.ndarray:
        return self._finite(self._forward(self.encode(state, catalog, vocab)[None])[1][0])

    def grad_q(self, state: DialogueState, action: int, catalog: StrategyCatalog, vocab=None) -> dict[str, np.ndarray]:
        """Analytic gradient of q_value with respect to every parameter."""
        catalog.by_id(action)
        feats, actions = self.encode(state, catalog, vocab)[None], np.array([action])
        acts, q = self._forward(feats, actions)
        return self._backward(feats, actions, acts, np.ones_like(q))

    def loss_and_grads_encoded(
        self, table, rows, actions: np.ndarray, targets: np.ndarray, catalog: StrategyCatalog, vocab=None
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean squared TD error of the items (table[row], action, target) and
        its gradient, from one forward and one backward over the (B, F) rows."""
        feats = table[rows]
        acts, q = self._forward(feats, actions)
        diff = q[:, 0] - targets
        grads = self._backward(feats, actions, acts, (diff * (2.0 / len(diff)))[:, None])
        return float((diff * diff).mean()), grads

    def loss_and_grads(
        self,
        items: list[tuple[DialogueState, int, float]],
        catalog: StrategyCatalog,
        vocab=None,
    ) -> tuple[float, dict[str, np.ndarray]]:
        return self.loss_and_grads_encoded(*self._encode_items(items, catalog, vocab), catalog, vocab)
