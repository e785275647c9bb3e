"""Trainable Q-scorers over dialogue states.

Two interchangeable backends implement the same operations (`q_value`,
`q_all`, `select_strategy`, `grad_q`, `loss_and_grads`) as subclasses of the
`Scorer` base in `base.py`.  Each computes Q(s, ·) for every action in one pass:

* `SeqScorer` -- a small causal transformer; Q(s, a) is the
  log-probability of the answer " (k)", the one token `(k)` that carries
  its leading space, read for every k from one pass over the shared prompt.
* `MlpScorer` -- a feed-forward net over the state's feature row, whose
  first layer adds one weight row per action; faster, and exactly
  comparable against the oracle.

Both are written in numpy with a hand-written backward.  Each also has an
encoded path, which training runs: `encode` turns a state into a code once
(seq: token ids, mlp: the feature row), and `q_encoded` and
`loss_and_grads_encoded` work on rows of a table of distinct codes.
`select_strategies`, which eval runs, decides a list of states with one
`q_encoded` call over their distinct codes.
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
