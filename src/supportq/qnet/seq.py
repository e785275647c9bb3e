"""Causal-transformer Q-scorer.

The state is rendered into the multi-choice instruction, the candidate
answer " (k)" is appended, and Q(s, a) is the mean log-probability the model
assigns to the answer tokens at their predicting positions.  Every answer is
the same two tokens, a space and the answer word `(k)` (see `build_vocab`),
so the prompt is shared and Q(s, ·) comes from one pass over BOS + prompt +
" ": its last row predicts each answer word, the row before it the space.

The transformer is written once, in `_hidden`, against an array namespace
`ops`: `autodiff.numpy_ops` runs it without a tape for `q_all` and `q_value`,
which read the same vector; `autodiff` with `Var` parameters builds the tape
for `grad_q`, `loss_and_grads` (one pass per distinct state in a batch) and
the reference `forward`.  The last block, final layer norm, head and
log-softmax run only on the two rows that predict the answer.  Gradients
are verified against central finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import autodiff as ad
from ..core import DialogueState, StrategyCatalog
from ..encoding import Vocabulary, encode_answer, encode_pair
from .base import ParamSpec, Scorer

_DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class SeqConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 2
    n_layers: int = 2
    n_ctx: int = 2048
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.n_layers < 1:
            raise ValueError("n_layers must be at least 1")
        if self.dtype not in _DTYPES:
            raise ValueError(f"unsupported dtype {self.dtype!r}")

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]


def causal_mask(t: int, dtype) -> np.ndarray:
    """Additive T x T mask: row i may attend to columns 0 .. i."""
    pos = np.arange(t)
    return np.where(pos[:, None] < pos, dtype(-1e30), dtype(0.0))


class SeqScorer(Scorer):
    backend = "seq"
    default_learning_rate = 5.0e-6

    def __init__(
        self,
        config: SeqConfig,
        seed: int = 0,
        params: Optional[dict[str, np.ndarray]] = None,
        window: int = 2048,
    ):
        super().__init__(config, seed, params)
        self.window = min(window, config.n_ctx)  # token budget of an encoded pair

    @property
    def dtype(self):
        return self.config.np_dtype

    @staticmethod
    def param_specs(cfg: SeqConfig) -> list[ParamSpec]:
        """(name, shape, init) in the fixed order weights are created; weights
        are uniform(-1/sqrt(d_model), 1/sqrt(d_model))."""
        d, h, w = cfg.d_model, 4 * cfg.d_model, 1.0 / math.sqrt(cfg.d_model)
        specs: list[ParamSpec] = [
            ("tok_emb", (cfg.vocab_size, d), w),
            ("pos_emb", (cfg.n_ctx, d), w),
        ]
        for i in range(cfg.n_layers):
            b = f"blocks.{i}"
            specs += [
                (f"{b}.ln1.g", (d,), "one"),
                (f"{b}.ln1.b", (d,), "zero"),
                (f"{b}.attn.wq", (d, d), w),
                (f"{b}.attn.bq", (d,), "zero"),
                (f"{b}.attn.wk", (d, d), w),
                (f"{b}.attn.bk", (d,), "zero"),
                (f"{b}.attn.wv", (d, d), w),
                (f"{b}.attn.bv", (d,), "zero"),
                (f"{b}.attn.wo", (d, d), w),
                (f"{b}.attn.bo", (d,), "zero"),
                (f"{b}.ln2.g", (d,), "one"),
                (f"{b}.ln2.b", (d,), "zero"),
                (f"{b}.mlp.w1", (d, h), w),
                (f"{b}.mlp.b1", (h,), "zero"),
                (f"{b}.mlp.w2", (h, d), w),
                (f"{b}.mlp.b2", (d,), "zero"),
            ]
        specs += [
            ("ln_f.g", (d,), "one"),
            ("ln_f.b", (d,), "zero"),
            ("head.w", (d, cfg.vocab_size), w),
            ("head.b", (cfg.vocab_size,), "zero"),
        ]
        return specs

    # -- forward ------------------------------------------------------------

    def _hidden(self, tokens: np.ndarray, params: dict, ops, n_rows: int):
        """Final hidden rows, before ln_f, of the last `n_rows` positions of
        `tokens`; the last block computes queries, output projection and MLP
        for those rows alone.  `ops` is `autodiff` with `Var` params (on the
        tape) or `autodiff.numpy_ops` with arrays (no tape)."""
        cfg, t = self.config, len(tokens)
        if t > cfg.n_ctx:
            raise ValueError(f"sequence length {t} exceeds context size {cfg.n_ctx}")
        if tokens.max() >= cfg.vocab_size or tokens.min() < 0:
            raise ValueError("token id outside the vocabulary")
        n_heads, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        split = lambda m: ops.swapaxes(ops.reshape(m, (m.shape[0], n_heads, dh)), 0, 1)
        x = ops.take_rows(params["tok_emb"], tokens) + ops.take_rows(params["pos_emb"], np.arange(t))
        mask = causal_mask(t, cfg.np_dtype)
        for i in range(cfg.n_layers):
            p = lambda n: params[f"blocks.{i}.{n}"]
            h = ops.layer_norm(x, p("ln1.g"), p("ln1.b"))
            k = split(h @ p("attn.wk") + p("attn.bk"))
            v = split(h @ p("attn.wv") + p("attn.bv"))
            if i == cfg.n_layers - 1:
                last = np.arange(t - n_rows, t)
                x, h, mask = ops.take_rows(x, last), ops.take_rows(h, last), mask[last]
            q = split(h @ p("attn.wq") + p("attn.bq"))
            scores = q @ ops.swapaxes(k, 1, 2)
            scores *= 1.0 / math.sqrt(dh)  # in place on arrays; a Var has no in-place ops and rebinds
            scores += mask
            ctx = ops.swapaxes(ops.softmax(scores, axis=-1) @ v, 0, 1)
            x = x + (ops.reshape(ctx, (x.shape[0], cfg.d_model)) @ p("attn.wo") + p("attn.bo"))
            h2 = ops.layer_norm(x, p("ln2.g"), p("ln2.b"))
            x = x + (ops.gelu(h2 @ p("mlp.w1") + p("mlp.b1")) @ p("mlp.w2") + p("mlp.b2"))
        return x

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Per-position log-probabilities, shape (T, V), on the tape.

        Row i is the distribution over token i conditioned on tokens < i;
        row 0, which has nothing to condition on, is the uniform -ln(V).
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        pv = self._param_vars()
        x = ad.layer_norm(self._hidden(tokens, pv, ad, len(tokens)), pv["ln_f.g"], pv["ln_f.b"])
        out = np.empty((len(tokens), self.config.vocab_size), dtype=self.config.np_dtype)
        out[0] = -math.log(self.config.vocab_size)
        out[1:] = ad.log_softmax(x @ pv["head.w"] + pv["head.b"], axis=-1).data[:-1]
        return out

    def _q(self, state: DialogueState, catalog: StrategyCatalog, vocab: Vocabulary, params: dict, ops):
        """Q(s, ·) from one pass over BOS + prompt + " ": the mean of the
        log-probabilities of the space and of each answer word."""
        pair = encode_pair(state, catalog.ids[0], catalog, vocab, self.window)
        k, space = len(catalog), pair.tokens[pair.action_span[0]]
        words = np.array([encode_answer(a, catalog, vocab)[1] for a in catalog.ids])
        hidden = self._hidden(pair.tokens[:-1], params, ops, 2)
        x = ops.layer_norm(hidden, params["ln_f.g"], params["ln_f.b"])
        logp = ops.log_softmax(x @ params["head.w"] + params["head.b"], axis=-1)
        pick = lambda row, cols: ops.take_pairs(logp, np.full(k, row), cols)
        return (pick(0, np.full(k, space)) + pick(1, words)) * 0.5

    # -- Q interface ----------------------------------------------------------

    def q_value(
        self, state: DialogueState, action: int, catalog: StrategyCatalog, vocab: Vocabulary
    ) -> float:
        catalog.by_id(action)
        return float(self._q(state, catalog, vocab, self.params, ad.numpy_ops)[action - 1])

    def q_all(self, state: DialogueState, catalog: StrategyCatalog, vocab: Vocabulary) -> np.ndarray:
        q = self._q(state, catalog, vocab, self.params, ad.numpy_ops)
        return self._finite(q.astype(np.float64))

    def loss_and_grads(
        self,
        items: list[tuple[DialogueState, int, float]],
        catalog: StrategyCatalog,
        vocab: Vocabulary,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean squared TD error over (state, action, target) and its gradient.
        Items that share a state share one forward and backward pass."""
        if not items:
            raise ValueError("empty batch")
        pv = self._param_vars()
        qs: dict[DialogueState, ad.Var] = {}
        total: Optional[ad.Var] = None
        for state, action, target in items:
            catalog.by_id(action)
            if state not in qs:
                qs[state] = self._q(state, catalog, vocab, pv, ad)
            se = (ad.take_rows(qs[state], action - 1) - float(target)) ** 2.0
            total = se if total is None else total + se
        loss = total * (1.0 / len(items))
        return float(loss.data), self._grads(loss, pv)
