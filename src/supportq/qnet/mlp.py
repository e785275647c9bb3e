"""Feature-MLP Q-scorer.

A deterministic feature map turns (state, action) into a fixed-size vector:
one-hot emotion, one-hot action, the stage of the last supporter strategy,
a bucketed history length, and a hashed bag of query words.  A small tanh
network maps features to a scalar Q.  On the staged simulator these features
encode the hidden environment state losslessly, which makes the learned Q
exactly comparable to the dynamic-programming oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .. import autodiff as ad
from ..core import DEFAULT_EMOTIONS, DialogueState, Stage, StrategyCatalog
from .base import ParamSpec, Scorer

_STAGE_SLOT = {None: 0, Stage.I: 1, Stage.II: 2, Stage.III: 3, Stage.NONE: 4}


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


def extract_features(
    state: DialogueState, action: int, catalog: StrategyCatalog, fc: FeatureConfig
) -> np.ndarray:
    """Deterministic feature vector; identical inputs give identical vectors."""
    k = len(catalog)
    out = np.zeros(feature_dim(fc, k), dtype=np.float64)
    offset = 0

    label = state.emotion.label.lower()
    if label in fc.emotions:
        out[offset + fc.emotions.index(label)] = 1.0
    offset += len(fc.emotions)

    catalog.by_id(action)
    out[offset + action - 1] = 1.0
    offset += k

    last = state.last_supporter_strategy()
    last_stage = None if last is None else catalog.stage_of(last)
    out[offset + _STAGE_SLOT[last_stage]] = 1.0
    offset += 5

    out[offset + bisect_right(fc.history_bucket_edges, len(state.history))] = 1.0
    offset += len(fc.history_bucket_edges) + 1

    for word in state.query.lower().split():
        out[offset + _fnv1a(word) % fc.hash_dim] += 1.0
    return out


@dataclass(frozen=True)
class MlpConfig:
    n_actions: int
    features: FeatureConfig = field(default_factory=FeatureConfig)
    hidden: tuple[int, ...] = (64, 64)


class MlpScorer(Scorer):
    backend = "mlp"

    @staticmethod
    def param_specs(config: MlpConfig) -> list[ParamSpec]:
        dims = [feature_dim(config.features, config.n_actions), *config.hidden, 1]
        specs: list[ParamSpec] = []
        for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
            specs.append((f"layers.{i}.w", (d_in, d_out), 1.0 / math.sqrt(d_in)))
            specs.append((f"layers.{i}.b", (d_out,), "zero"))
        return specs

    def _q(self, feats: np.ndarray, params: dict, ops):
        """(B,) Q values for a (B, F) feature batch; `ops` as in `SeqScorer._hidden`."""
        x = feats
        for i in range(len(self.config.hidden) + 1):
            x = x @ params[f"layers.{i}.w"] + params[f"layers.{i}.b"]
            if i < len(self.config.hidden):
                x = ops.tanh(x)
        return ops.reshape(x, (feats.shape[0],))

    def _features(self, state: DialogueState, action: int, catalog: StrategyCatalog) -> np.ndarray:
        return extract_features(state, action, catalog, self.config.features)

    def q_value(self, state: DialogueState, action: int, catalog: StrategyCatalog, vocab=None) -> float:
        feats = self._features(state, action, catalog)[None, :]
        return float(self._q(feats, self.params, ad.numpy_ops)[0])

    def q_all(self, state: DialogueState, catalog: StrategyCatalog, vocab=None) -> np.ndarray:
        feats = np.stack([self._features(state, a, catalog) for a in catalog.ids])
        return self._finite(self._q(feats, self.params, ad.numpy_ops))

    def grad_q(
        self, state: DialogueState, action: int, catalog: StrategyCatalog, vocab=None
    ) -> dict[str, np.ndarray]:
        pv = self._param_vars()
        q = ad.vmean(self._q(self._features(state, action, catalog)[None, :], pv, ad))
        return self._grads(q, pv)

    def loss_and_grads(
        self,
        items: list[tuple[DialogueState, int, float]],
        catalog: StrategyCatalog,
        vocab=None,
    ) -> tuple[float, dict[str, np.ndarray]]:
        if not items:
            raise ValueError("empty batch")
        feats = np.stack([self._features(s, a, catalog) for s, a, _ in items])
        targets = np.array([t for _, _, t in items], dtype=np.float64)
        pv = self._param_vars()
        diff = self._q(feats, pv, ad) - targets
        loss = ad.vmean(diff * diff)
        return float(loss.data), self._grads(loss, pv)
