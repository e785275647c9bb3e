"""Feature-MLP Q-scorer.

A deterministic feature map turns a state into a (K, F) block, one row per
action: one-hot emotion, the row's action one-hot, the stage of the last
supporter strategy, a bucketed history length, and a hashed bag of query
words.  A small tanh network maps each row to a scalar, so one pass over the
block gives Q(s, ·).  On the staged simulator these features encode the hidden
environment state losslessly, making Q exactly comparable to the DP oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .. import autodiff as ad
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
    """(K, F) block; row a - 1 is the deterministic feature vector of (state, a)."""
    k = len(catalog)
    row = np.zeros(feature_dim(fc, k), dtype=np.float64)
    offset = 0

    label = state.emotion.label.lower()
    if label in fc.emotions:
        row[offset + fc.emotions.index(label)] = 1.0
    offset += len(fc.emotions)

    actions = offset  # the one-hot block, set per row below
    offset += k

    last = state.last_supporter_strategy()
    last_stage = None if last is None else catalog.stage_of(last)
    row[offset + _STAGE_SLOT[last_stage]] = 1.0
    offset += 5

    row[offset + bisect_right(fc.history_bucket_edges, len(state.history))] = 1.0
    offset += len(fc.history_bucket_edges) + 1

    for word in state.query.lower().split():
        row[offset + _fnv1a(word) % fc.hash_dim] += 1.0
    return row + np.eye(k, len(row), actions)


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

    def _net(self, feats: np.ndarray, params: dict, ops):
        """(B,) Q values for a (B, F) feature batch; `ops` as in `SeqScorer._hidden`."""
        x = feats
        for i in range(len(self.config.hidden) + 1):
            x = x @ params[f"layers.{i}.w"] + params[f"layers.{i}.b"]
            if i < len(self.config.hidden):
                x = ops.tanh(x)
        return ops.reshape(x, (feats.shape[0],))

    def _q(self, state: DialogueState, catalog: StrategyCatalog, vocab, params: dict, ops):
        """Q(s, ·) from one pass over the state's feature block."""
        return self._net(extract_features(state, catalog, self.config.features), params, ops)

    def q_value(self, state: DialogueState, action: int, catalog: StrategyCatalog, vocab=None) -> float:
        catalog.by_id(action)
        return float(self._q(state, catalog, vocab, self.params, ad.numpy_ops)[action - 1])

    def q_all(self, state: DialogueState, catalog: StrategyCatalog, vocab=None) -> np.ndarray:
        return self._finite(self._q(state, catalog, vocab, self.params, ad.numpy_ops))

    def loss_and_grads(
        self,
        items: list[tuple[DialogueState, int, float]],
        catalog: StrategyCatalog,
        vocab=None,
    ) -> tuple[float, dict[str, np.ndarray]]:
        if not items:
            raise ValueError("empty batch")
        fc = self.config.features
        feats = np.stack([extract_features(s, catalog, fc)[catalog.by_id(a).id - 1] for s, a, _ in items])
        targets = np.array([t for _, _, t in items], dtype=np.float64)
        pv = self._param_vars()
        diff = self._net(feats, pv, ad) - targets
        loss = ad.vmean(diff * diff)
        return float(loss.data), self._grads(loss, pv)
