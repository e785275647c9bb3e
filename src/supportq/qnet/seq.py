"""Causal-transformer Q-scorer.

The state is rendered into the multi-choice instruction, the candidate
answer " (k)" is appended, and Q(s, a) is the mean log-probability the model
assigns to the answer tokens at their predicting positions.  Strict causal
masking means every output position depends only on earlier tokens, so a
whole sequence yields its per-position predictions in one pass.

Q values are computed by a forward-only numpy kernel that shares the prompt
between actions: one pass over BOS + prompt keeps every layer's keys and
values, then each action runs only its answer tokens (all but the last, 1-3
rows) against that cache, and the head and log-softmax run only for the rows
that predict the answer.  Actions are grouped by their encoded prompt, since
`encode_pair` may drop a different amount of history per answer length.

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
from ..encoding import EncodedPair, Vocabulary, encode_pair
from .base import DtypeConfig, ParamSpec, Scorer


@dataclass(frozen=True)
class SeqConfig(DtypeConfig):
    vocab_size: int
    d_model: int = 64
    n_heads: int = 2
    n_layers: int = 2
    n_ctx: int = 2048
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        super().__post_init__()


def causal_mask(n_rows: int, n_cols: int, dtype) -> np.ndarray:
    """Additive mask for the last `n_rows` positions of an `n_cols`-long
    sequence: row i may attend to columns 0 .. n_cols - n_rows + i."""
    return np.triu(np.full((n_rows, n_cols), -1e30, dtype=dtype), k=n_cols - n_rows + 1)


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


def _answer_span(encoded: EncodedPair) -> tuple[int, int]:
    start, end = encoded.action_span
    if start < 1 or end <= start:
        raise ValueError("action span must be nonempty and after the BOS token")
    return start, end


class SeqScorer(Scorer):
    backend = "seq"

    def __init__(
        self,
        config: SeqConfig,
        seed: int = 0,
        params: Optional[dict[str, np.ndarray]] = None,
        window: int = 2048,
    ):
        super().__init__(config, seed, params, min(window, config.n_ctx))

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

    def _next_token_logprobs(self, tokens: np.ndarray, pv: dict[str, ad.Var]) -> ad.Var:
        """(T, V) log-probs on the tape; row j is the distribution over token j+1."""
        cfg = self.config
        self._check_tokens(tokens)
        t = len(tokens)
        x = ad.take_rows(pv["tok_emb"], tokens) + ad.take_rows(pv["pos_emb"], np.arange(t))
        mask = causal_mask(t, t, cfg.np_dtype)
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
        x = ad.layer_norm(x, pv["ln_f.g"], pv["ln_f.b"])
        logits = x @ pv["head.w"] + pv["head.b"]
        return ad.log_softmax(logits, axis=-1)

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Per-position log-probabilities, shape (T, V).

        Row i is the distribution over token i conditioned on tokens < i;
        row 0, which has nothing to condition on, is the uniform -ln(V).
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        preds = self._next_token_logprobs(tokens, self._param_vars()).data
        out = np.empty((len(tokens), self.config.vocab_size), dtype=self.config.np_dtype)
        out[0] = -math.log(self.config.vocab_size)
        out[1:] = preds[:-1]
        return out

    # -- forward-only Q kernel ------------------------------------------------

    def _extend(
        self, tokens: np.ndarray, past: list[tuple[np.ndarray, np.ndarray]], last_row_only: bool = False
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Run `tokens` through the blocks after the positions cached in `past`.

        `past` holds one (keys, values) pair per layer, each (H, P, dh), for
        the P tokens before these; it is empty for a prompt.  Returns the
        final hidden rows (before ln_f) and every layer's keys and values for
        all P + t positions.  With `last_row_only` the last block computes
        queries, output projection and MLP for the final row alone.
        """
        cfg, prm = self.config, self.params
        t, start = len(tokens), (past[0][0].shape[1] if past else 0)
        n_heads, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        split = lambda m: m.reshape(len(m), n_heads, dh).swapaxes(0, 1)
        x = prm["tok_emb"][tokens] + prm["pos_emb"][start : start + t]
        mask = causal_mask(t, start + t, cfg.np_dtype)
        present = []
        for i in range(cfg.n_layers):
            p = lambda n: prm[f"blocks.{i}.{n}"]
            h = _layer_norm(x, p("ln1.g"), p("ln1.b"))
            k = split(h @ p("attn.wk") + p("attn.bk"))
            v = split(h @ p("attn.wv") + p("attn.bv"))
            if past:
                k = np.concatenate((past[i][0], k), axis=1)
                v = np.concatenate((past[i][1], v), axis=1)
            present.append((k, v))
            if last_row_only and i == cfg.n_layers - 1:
                x, h, mask = x[-1:], h[-1:], mask[-1:]
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
        return x, present

    def _answer_q(self, last: np.ndarray, cache: list, answer: np.ndarray) -> float:
        """Mean log-probability of `answer` after a prompt whose final hidden
        row is `last` and whose keys and values are `cache`."""
        prm = self.params
        hidden = last
        if len(answer) > 1:
            hidden = np.concatenate((last, self._extend(answer[:-1], cache)[0]))
        logits = _layer_norm(hidden, prm["ln_f.g"], prm["ln_f.b"]) @ prm["head.w"] + prm["head.b"]
        picked = _log_softmax(logits)[np.arange(len(answer)), answer]
        return float(picked.sum() * (1.0 / len(answer)))

    def _q_encoded(self, pairs: list[EncodedPair]) -> list[float]:
        """Q of each encoded pair, with one prompt pass per distinct prompt."""
        groups: dict[bytes, list[int]] = {}
        for j, pair in enumerate(pairs):
            self._check_tokens(pair.tokens)
            groups.setdefault(pair.tokens[: _answer_span(pair)[0]].tobytes(), []).append(j)
        values = [0.0] * len(pairs)
        for members in groups.values():
            first = pairs[members[0]]
            last, cache = self._extend(first.tokens[: first.action_span[0]], [], last_row_only=True)
            for j in members:
                values[j] = self._answer_q(last, cache, pairs[j].tokens[slice(*pairs[j].action_span)])
        return values

    # -- Q interface ----------------------------------------------------------

    def _q_var(self, encoded: EncodedPair, pv: dict[str, ad.Var]) -> ad.Var:
        start, end = _answer_span(encoded)
        preds = self._next_token_logprobs(encoded.tokens, pv)
        span = np.arange(start, end)
        picked = ad.take_pairs(preds, span - 1, encoded.tokens[span])
        return ad.vmean(picked)

    def q_value(
        self, state: DialogueState, action: int, catalog: StrategyCatalog, vocab: Vocabulary
    ) -> float:
        return self._q_encoded([encode_pair(state, action, catalog, vocab, self.window)])[0]

    def q_all(self, state: DialogueState, catalog: StrategyCatalog, vocab: Vocabulary) -> np.ndarray:
        pairs = [encode_pair(state, a, catalog, vocab, self.window) for a in catalog.ids]
        return self._finite(np.array(self._q_encoded(pairs)))

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
