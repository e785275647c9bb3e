"""Trainable Q-scorers over dialogue states.

Two interchangeable backends subclass the `Scorer` base in `base.py`, and
each computes Q(s, ·) for every action in one pass:

* `SeqScorer` -- a small causal transformer; Q(s, a) is the
  log-probability of the answer " (k)", the one token `(k)` that carries
  its leading space, read for every k from one pass over the shared prompt.
* `MlpScorer` -- a feed-forward net over the state's feature row, whose
  first layer adds one weight row per action; faster, and exactly
  comparable against the oracle.

A backend supplies only its math, in numpy with a hand-written backward:
`encode`, a state's code (seq: token ids, mlp: the feature row);
`q_encoded`, Q(s, ·) for rows of a table of distinct codes; and
`_pullback`, the Q of (row, action) items and the gradient of Σ dq·Q.
`Scorer` writes the rest once over those: `q_all`, `q_value`, `grad_q`,
the squared TD loss `loss_and_grads_encoded`, which training runs,
`loss_and_grads`, and greedy selection; eval decides its test set with one
`q_encoded` call over the states' distinct codes (`select_strategies`).
"""

from .checkpoint import load_scorer, save_scorer
from .mlp import FeatureConfig, MlpConfig, MlpScorer, extract_features, feature_dim
from .seq import SeqConfig, SeqScorer

__all__ = [
    "FeatureConfig",
    "MlpConfig",
    "MlpScorer",
    "SeqConfig",
    "SeqScorer",
    "extract_features",
    "feature_dim",
    "load_scorer",
    "save_scorer",
]
