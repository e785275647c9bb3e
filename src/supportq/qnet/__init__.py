"""Trainable Q-scorers over dialogue states.

Two interchangeable backends implement the same operations (`q_value`,
`q_all`, `select_strategy`, `grad_q`, `loss_and_grads`) as subclasses of the
`Scorer` base in `base.py`.  Each computes Q(s, ·) for every action in one pass:

* `SeqScorer` -- a small causal transformer; Q(s, a) is the mean
  log-probability of the appended answer tokens " (k)", a space and one
  answer word, all scored from one pass over the shared prompt.
* `MlpScorer` -- a feed-forward net over the state's feature row, whose
  first layer adds one weight row per action; faster, and exactly
  comparable against the oracle.

Both are written in numpy with a hand-written backward.  Each also has an
encoded path, which training runs: `encode` turns a state into a code once
(seq: token ids, mlp: the feature row), and `q_encoded` and
`loss_and_grads_encoded` work on rows of a table of distinct codes.
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
