"""Causal-transformer Q-scorer.

The state is rendered into the multi-choice instruction, the candidate
answer " (k)" is appended, and Q(s, a) is the mean log-probability the model
assigns to the answer tokens at their predicting positions.  Every answer is
the same two tokens, a space and the answer word `(k)` (see `build_vocab`),
so the prompt is shared and Q(s, ·) comes from one pass over BOS + prompt +
" ": its last row predicts each answer word, the row before it the space.

Q values are computed by a forward-only numpy kernel whose last block, final
layer norm, head and log-softmax run only for those two rows.  `q_value`
reads the same vector as `q_all`.

Gradients are analytic (reverse-mode on the autodiff tape, which is built
only by `grad_q`, `loss_and_grads` and `forward`) and are verified against
central finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import autodiff as ad
from ..core import DialogueState, StrategyCatalog
from ..encoding import EncodedPair, Vocabulary, encode_answer, encode_pair
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
        if self.dtype not in _DTYPES:
            raise ValueError(f"unsupported dtype {self.dtype!r}")

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]


def causal_mask(t: int, dtype) -> np.ndarray:
    """Additive T x T mask: row i may attend to columns 0 .. i."""
    return np.triu(np.full((t, t), -1e30, dtype=dtype), k=1)


# Forward-only numpy counterparts of the tape composites, same operation order.


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    inv_n = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * inv_n
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    return centered * (var + eps) ** -0.5 * gain + bias


def _gelu(x: np.ndarray) -> np.ndarray:
    inner = (x + x * x * x * 0.044715) * ad._GELU_C
    return x * (np.tanh(inner) + 1.0) * 0.5


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class SeqScorer(Scorer):
    backend = "seq"

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

    def _check_tokens(self, tokens: np.ndarray) -> None:
        cfg = self.config
        if len(tokens) > cfg.n_ctx:
            raise ValueError(f"sequence length {len(tokens)} exceeds context size {cfg.n_ctx}")
        if tokens.max() >= cfg.vocab_size or tokens.min() < 0:
            raise ValueError("token id outside the vocabulary")

    def _hidden_var(self, tokens: np.ndarray, pv: dict[str, ad.Var]) -> ad.Var:
        """(T, d) final hidden rows, before ln_f, on the tape."""
        cfg = self.config
        self._check_tokens(tokens)
        t = len(tokens)
        x = ad.take_rows(pv["tok_emb"], tokens) + ad.take_rows(pv["pos_emb"], np.arange(t))
        mask = causal_mask(t, cfg.np_dtype)
        n_heads, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        for i in range(cfg.n_layers):
            p = lambda n: pv[f"blocks.{i}.{n}"]
            h = ad.layer_norm(x, p("ln1.g"), p("ln1.b"))
            q = ad.reshape(h @ p("attn.wq") + p("attn.bq"), (t, n_heads, dh))
            k = ad.reshape(h @ p("attn.wk") + p("attn.bk"), (t, n_heads, dh))
            v = ad.reshape(h @ p("attn.wv") + p("attn.bv"), (t, n_heads, dh))
            q, k, v = (ad.swapaxes(m, 0, 1) for m in (q, k, v))
            scores = (q @ ad.swapaxes(k, 1, 2)) * (1.0 / math.sqrt(dh)) + mask
            ctx = ad.softmax(scores, axis=-1) @ v
            ctx = ad.reshape(ad.swapaxes(ctx, 0, 1), (t, cfg.d_model))
            x = x + (ctx @ p("attn.wo") + p("attn.bo"))
            h2 = ad.layer_norm(x, p("ln2.g"), p("ln2.b"))
            x = x + (ad.gelu(h2 @ p("mlp.w1") + p("mlp.b1")) @ p("mlp.w2") + p("mlp.b2"))
        return x

    @staticmethod
    def _logprobs_var(x: ad.Var, pv: dict[str, ad.Var]) -> ad.Var:
        """Next-token log-probs of hidden rows `x`, on the tape."""
        logits = ad.layer_norm(x, pv["ln_f.g"], pv["ln_f.b"]) @ pv["head.w"] + pv["head.b"]
        return ad.log_softmax(logits, axis=-1)

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Per-position log-probabilities, shape (T, V).

        Row i is the distribution over token i conditioned on tokens < i;
        row 0, which has nothing to condition on, is the uniform -ln(V).
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        pv = self._param_vars()
        preds = self._logprobs_var(self._hidden_var(tokens, pv), pv).data
        out = np.empty((len(tokens), self.config.vocab_size), dtype=self.config.np_dtype)
        out[0] = -math.log(self.config.vocab_size)
        out[1:] = preds[:-1]
        return out

    # -- forward-only Q kernel ------------------------------------------------

    def _last_hidden(self, tokens: np.ndarray, n_rows: int) -> np.ndarray:
        """Final hidden rows, before ln_f, of the last `n_rows` positions of
        `tokens`; the last block computes queries, output projection and MLP
        for those rows alone."""
        cfg, prm = self.config, self.params
        t = len(tokens)
        n_heads, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        split = lambda m: m.reshape(len(m), n_heads, dh).swapaxes(0, 1)
        x = prm["tok_emb"][tokens] + prm["pos_emb"][:t]
        mask = causal_mask(t, cfg.np_dtype)
        for i in range(cfg.n_layers):
            p = lambda n: prm[f"blocks.{i}.{n}"]
            h = _layer_norm(x, p("ln1.g"), p("ln1.b"))
            k = split(h @ p("attn.wk") + p("attn.bk"))
            v = split(h @ p("attn.wv") + p("attn.bv"))
            if i == cfg.n_layers - 1:
                x, h, mask = x[-n_rows:], h[-n_rows:], mask[-n_rows:]
            q = split(h @ p("attn.wq") + p("attn.bq"))
            scores = q @ k.swapaxes(1, 2)
            scores *= 1.0 / math.sqrt(dh)
            scores += mask
            scores -= np.max(scores, axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=-1, keepdims=True)
            ctx = (scores @ v).swapaxes(0, 1).reshape(len(x), cfg.d_model)
            x = x + (ctx @ p("attn.wo") + p("attn.bo"))
            h2 = _layer_norm(x, p("ln2.g"), p("ln2.b"))
            x = x + (_gelu(h2 @ p("mlp.w1") + p("mlp.b1")) @ p("mlp.w2") + p("mlp.b2"))
        return x

    def _q_row(
        self, state: DialogueState, action: int, catalog: StrategyCatalog, vocab: Vocabulary
    ) -> np.ndarray:
        """Q(s, ·) from one pass over BOS + prompt + " ", the prompt encoded
        alongside `action`'s answer (every answer keeps the same prompt)."""
        pair = encode_pair(state, action, catalog, vocab, self.window)
        self._check_tokens(pair.tokens)
        space = pair.tokens[pair.action_span[0]]
        words = [encode_answer(a, catalog, vocab)[1] for a in catalog.ids]
        prm = self.params
        hidden = self._last_hidden(pair.tokens[:-1], 2)
        logits = _layer_norm(hidden, prm["ln_f.g"], prm["ln_f.b"]) @ prm["head.w"] + prm["head.b"]
        logp = _log_softmax(logits)
        return ((logp[0, space] + logp[1, words]) * 0.5).astype(np.float64)

    # -- Q interface ----------------------------------------------------------

    def _q_var(self, encoded: EncodedPair, pv: dict[str, ad.Var]) -> ad.Var:
        """Mean log-probability of the answer tokens, on the tape."""
        start, end = encoded.action_span
        rows = np.arange(start - 1, end - 1)
        hidden = self._hidden_var(encoded.tokens[: end - 1], pv)
        logp = self._logprobs_var(ad.take_rows(hidden, rows), pv)
        return ad.vmean(ad.take_pairs(logp, np.arange(end - start), encoded.tokens[start:end]))

    def q_value(
        self, state: DialogueState, action: int, catalog: StrategyCatalog, vocab: Vocabulary
    ) -> float:
        return float(self._q_row(state, action, catalog, vocab)[action - 1])

    def q_all(self, state: DialogueState, catalog: StrategyCatalog, vocab: Vocabulary) -> np.ndarray:
        return self._finite(self._q_row(state, catalog.ids[0], catalog, vocab))

    def grad_q(
        self, state: DialogueState, action: int, catalog: StrategyCatalog, vocab: Vocabulary
    ) -> dict[str, np.ndarray]:
        """Analytic gradient of q_value with respect to every parameter."""
        pv = self._param_vars()
        q = self._q_var(encode_pair(state, action, catalog, vocab, self.window), pv)
        return self._grads(q, pv)

    def loss_and_grads(
        self,
        items: list[tuple[DialogueState, int, float]],
        catalog: StrategyCatalog,
        vocab: Vocabulary,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean squared TD error over (state, action, target) and its gradient."""
        if not items:
            raise ValueError("empty batch")
        pv = self._param_vars()
        total: Optional[ad.Var] = None
        for state, action, target in items:
            q = self._q_var(encode_pair(state, action, catalog, vocab, self.window), pv)
            se = (q - float(target)) ** 2.0
            total = se if total is None else total + se
        loss = total * (1.0 / len(items))
        return float(loss.data), self._grads(loss, pv)
