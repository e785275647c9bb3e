"""Trainable Q-scorers over dialogue states.

Two interchangeable backends implement the same operations (`q_value`,
`q_all`, `select_strategy`, `grad_q`, `loss_and_grads`), each a subclass
of the `Scorer` base in `base.py`, which holds the code they share:

* `SeqScorer` -- a small causal transformer; Q(s, a) is the mean
  log-probability of the appended answer tokens " (k)", a space and one
  answer word, so one pass over the shared prompt gives Q(s, ·).
* `MlpScorer` -- a feed-forward net over hand-built state/action features;
  faster, and exactly comparable against the tabular oracle.

Each backend writes its forward once, against an array namespace: Q values
run it on `autodiff.numpy_ops` without a tape, gradients on `autodiff`.
"""

from .base import BackendMismatch
from .checkpoint import load_scorer, save_scorer
from .mlp import FeatureConfig, MlpConfig, MlpScorer, extract_features, feature_dim
from .seq import SeqConfig, SeqScorer

__all__ = [
    "BackendMismatch",
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
