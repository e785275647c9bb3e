"""Feature-MLP Q-scorer.

A deterministic feature map turns a state into one row of F features:
one-hot emotion, an action one-hot block left at zero, the stage of the last
supporter strategy, a bucketed history length, and a hashed bag of query
words.  A small tanh network maps the row with action a's one-hot set to
Q(s, a).  The first layer never builds that one-hot: it adds row a of its
weight to the state term x_s @ W0, so Q(s, ·) for a batch of states is one
(B, F) matmul broadcast over the K action rows.  The network is
differentiated by hand, layer by layer.  On the staged simulator these
features encode the hidden environment state losslessly, making Q exactly
comparable to the DP oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from ..core import DEFAULT_EMOTIONS, DialogueState, Stage, StrategyCatalog
from .base import ParamSpec, Scorer

_STAGE_SLOT = {None: 0, Stage.I: 1, Stage.II: 2, Stage.III: 3, Stage.NONE: 4}


@lru_cache(maxsize=None)
def _fnv1a(text: str) -> int:
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h


@dataclass(frozen=True)
class FeatureConfig:
    emotions: tuple[str, ...] = DEFAULT_EMOTIONS
    history_bucket_edges: tuple[int, ...] = (1, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24, 32)
    hash_dim: int = 32


def feature_dim(fc: FeatureConfig, n_actions: int) -> int:
    """len(emotions) + K + 5 stage slots + (len(edges)+1) buckets + hash_dim."""
    return len(fc.emotions) + n_actions + 5 + len(fc.history_bucket_edges) + 1 + fc.hash_dim


def extract_features(state: DialogueState, catalog: StrategyCatalog, fc: FeatureConfig) -> np.ndarray:
    """(F,) deterministic feature row of `state`, its action one-hot block at zero."""
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

    for word in state.query.lower().split():
        row[offset + _fnv1a(word) % fc.hash_dim] += 1.0
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
        start = len(self.config.features.emotions)  # the action one-hot block's first row
        action_rows = w[start : start + self.config.n_actions]
        x = (feats @ w)[:, None, :] + (action_rows if actions is None else action_rows[actions - 1][:, None, :])
        x += p["layers.0.b"]
        shape = x.shape[:2]
        x = x.reshape(-1, x.shape[-1])
        acts = []
        for i in range(1, len(self.config.hidden) + 1):
            acts.append(np.tanh(x, out=x))
            x = x @ p[f"layers.{i}.w"]
            x += p[f"layers.{i}.b"]
        return acts, x.reshape(shape)

    def _backward(self, feats: np.ndarray, actions: np.ndarray, acts: list, dq: np.ndarray) -> dict[str, np.ndarray]:
        """Gradient of sum(dq * Q) with respect to every parameter, from the
        activations of `_forward(feats, actions)`, dq (B, 1): one matmul pair
        per layer with tanh' = 1 - tanh², then the first layer's state term,
        feats.T @ dx, and its action rows, added back with `np.add.at`."""
        p, grads, dx = self.params, {}, dq
        for i in range(len(acts), 0, -1):
            a = acts[i - 1]
            grads[f"layers.{i}.w"] = a.T @ dx
            grads[f"layers.{i}.b"] = dx.sum(axis=0)
            dx = (dx @ p[f"layers.{i}.w"].T) * (1.0 - a * a)
        grads["layers.0.w"] = feats.T @ dx
        np.add.at(grads["layers.0.w"], len(self.config.features.emotions) + actions - 1, dx)
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
