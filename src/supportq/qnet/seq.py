"""Causal-transformer Q-scorer.

The state is rendered into the multi-choice instruction, the candidate
answer " (k)" is appended, and Q(s, a) is the mean log-probability the model
assigns to the answer tokens at their predicting positions.  Every answer is
the same two tokens, a space and the answer word `(k)` (see `build_vocab`),
so the prompt is shared and Q(s, ·) comes from one pass over BOS + prompt +
" ": its last row predicts each answer word, the row before it the space.

The transformer is written once, in numpy, and runs without a tape.  The
last block, final layer norm, head and log-softmax run only on the two rows
that predict the answer.  Given a `cache` list, the forward also keeps per
block what the backward needs: the layer norms' normalised inputs and
inverse standard deviations, h, q, k and v, the attention probabilities,
the merged context, and the MLP pre-activation and its tanh.  `_backward`
walks those blocks in reverse by hand, one small function per block, as
llm.c's `gpt2_backward` does.  A state's code (`encode`) is BOS + its
windowed prompt + " ".  `grad_q` and `loss_and_grads_encoded` make one
cached pass and one backward per distinct code, and a state's activations
are dropped before the next state's pass, so memory does not grow with the
batch.  The gradients are checked against an autodiff-tape transformer and
central finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import DialogueState, StrategyCatalog
from ..encoding import Vocabulary, encode_answer, encode_pair
from .base import ParamSpec, Scorer

_DTYPES = {"float32": np.float32, "float64": np.float64}
_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_MASKED = -1e30  # written over future positions' scores; |score| << ulp(1e30)


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


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """Layer norm over the last axis: (output, normalised input, inverse std)."""
    inv_n = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * inv_n
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    inv = (var + eps) ** -0.5
    xhat = centered * inv
    return xhat * gain + bias, xhat, inv


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

    def _hidden(self, tokens: np.ndarray, params: dict, n_rows: int, cache: Optional[list] = None):
        """Final hidden rows, before ln_f, of the last `n_rows` positions of
        `tokens`; the last block computes queries, output projection and MLP
        for those rows alone.  A `cache` list receives the tokens, then one
        dict per block of the activations its backward reads."""
        cfg, t = self.config, len(tokens)
        if t > cfg.n_ctx:
            raise ValueError(f"sequence length {t} exceeds context size {cfg.n_ctx}")
        if tokens.max() >= cfg.vocab_size or tokens.min() < 0:
            raise ValueError("token id outside the vocabulary")
        n_heads, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        split = lambda m: m.reshape(m.shape[0], n_heads, dh).swapaxes(0, 1)
        pos = np.arange(t)
        x = params["tok_emb"][tokens] + params["pos_emb"][pos]
        future = pos[:, None] < pos
        if cache is not None:
            cache.append(tokens)
        for i in range(cfg.n_layers):
            p = lambda n: params[f"blocks.{i}.{n}"]
            h, xhat1, inv1 = _layer_norm(x, p("ln1.g"), p("ln1.b"))
            k = split(h @ p("attn.wk") + p("attn.bk"))
            v = split(h @ p("attn.wv") + p("attn.bv"))
            rows = h
            if i == cfg.n_layers - 1:
                last = np.arange(t - n_rows, t)
                x, rows, future = x[last], h[last], future[last]
            q = split(rows @ p("attn.wq") + p("attn.bq"))
            att = q @ k.swapaxes(1, 2)
            att *= 1.0 / math.sqrt(dh)
            np.copyto(att, _MASKED, where=future)
            att -= att.max(axis=-1, keepdims=True)
            np.exp(att, out=att)
            att /= att.sum(axis=-1, keepdims=True)
            ctx = (att @ v).swapaxes(0, 1).reshape(x.shape[0], cfg.d_model)
            x = x + (ctx @ p("attn.wo") + p("attn.bo"))
            h2, xhat2, inv2 = _layer_norm(x, p("ln2.g"), p("ln2.b"))
            pre = h2 @ p("mlp.w1") + p("mlp.b1")
            th = np.tanh((pre + pre * pre * pre * 0.044715) * _GELU_C)
            x = x + ((pre * (th + 1.0) * 0.5) @ p("mlp.w2") + p("mlp.b2"))
            if cache is not None:
                cache.append(dict(
                    xhat1=xhat1, inv1=inv1, h=h, q=q, k=k, v=v, att=att, ctx=ctx,
                    xhat2=xhat2, inv2=inv2, h2=h2, pre=pre, th=th,
                ))
        return x

    def _head(self, hidden: np.ndarray):
        """Log-probabilities from ln_f, the head and log-softmax over `hidden`,
        and the activations the head's backward reads."""
        p = self.params
        xf, xhat, inv = _layer_norm(hidden, p["ln_f.g"], p["ln_f.b"])
        logits = xf @ p["head.w"] + p["head.b"]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        return logp, dict(xhat=xhat, inv=inv, xf=xf, logp=logp)

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Per-position log-probabilities, shape (T, V).

        Row i is the distribution over token i conditioned on tokens < i;
        row 0, which has nothing to condition on, is the uniform -ln(V).
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        logp, _ = self._head(self._hidden(tokens, self.params, len(tokens)))
        out = np.empty((len(tokens), self.config.vocab_size), dtype=self.config.np_dtype)
        out[0] = -math.log(self.config.vocab_size)
        out[1:] = logp[:-1]
        return out

    def encode(self, state: DialogueState, catalog: StrategyCatalog, vocab: Vocabulary) -> np.ndarray:
        """Token ids of BOS + the windowed prompt + " ", the space of every answer."""
        return encode_pair(state, catalog.ids[0], catalog, vocab, self.window).tokens[:-1]

    def _q(self, tokens: np.ndarray, catalog: StrategyCatalog, vocab: Vocabulary, cache: Optional[list] = None):
        """Q(s, ·) from one pass over the code `tokens` of s: the mean of the
        log-probabilities of the space, its last token, and of each answer
        word.  A `cache` list receives what `_backward` reads, the head's
        entry last."""
        space = tokens[-1]
        words = np.array([encode_answer(a, catalog, vocab)[1] for a in catalog.ids])
        logp, head = self._head(self._hidden(tokens, self.params, 2, cache))
        if cache is not None:
            cache.append(dict(head, space=space, words=words))
        return (logp[0, space] + logp[1, words]) * 0.5

    # -- backward -------------------------------------------------------------

    def _backward(self, cache: list, dq: np.ndarray, grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Add the gradient of dq · Q(s, ·) into `grads`, from the `cache` of one
        `_q` pass: head, then MLP and attention per block in reverse, then the
        embeddings.  The last block flows back through its two rows; its keys
        and values reach every row."""
        tokens, *blocks, head = cache
        dx = self._head_backward(head, dq, grads)
        for i in reversed(range(len(blocks))):
            dx = self._mlp_backward(blocks[i], dx, grads, f"blocks.{i}")
            dx = self._attn_backward(blocks[i], dx, grads, f"blocks.{i}")
        np.add.at(grads["tok_emb"], tokens, dx)
        grads["pos_emb"][: len(tokens)] += dx
        return grads

    def _layer_norm_backward(self, dy, xhat, inv, grads: dict, name: str) -> np.ndarray:
        """dL/dx of layer norm `name`; adds dL/dgain and dL/dbias into `grads`."""
        grads[f"{name}.g"] += (dy * xhat).sum(axis=0)
        grads[f"{name}.b"] += dy.sum(axis=0)
        dxhat = dy * self.params[f"{name}.g"]
        inv_n = 1.0 / dy.shape[-1]
        mean = dxhat.sum(axis=-1, keepdims=True) * inv_n
        proj = (dxhat * xhat).sum(axis=-1, keepdims=True) * inv_n
        return (dxhat - mean - xhat * proj) * inv

    def _head_backward(self, c: dict, dq: np.ndarray, grads: dict) -> np.ndarray:
        """Through the answer picks, log-softmax, head and ln_f: dL/d hidden."""
        dlogp = np.zeros_like(c["logp"])
        dlogp[0, c["space"]] = dq.sum() * 0.5
        dlogp[1, c["words"]] += dq * 0.5
        dlogits = dlogp - np.exp(c["logp"]) * dlogp.sum(axis=-1, keepdims=True)
        grads["head.w"] += c["xf"].T @ dlogits
        grads["head.b"] += dlogits.sum(axis=0)
        dxf = dlogits @ self.params["head.w"].T
        return self._layer_norm_backward(dxf, c["xhat"], c["inv"], grads, "ln_f")

    def _mlp_backward(self, c: dict, dx: np.ndarray, grads: dict, b: str) -> np.ndarray:
        """Through x + gelu(ln2(x) @ w1 + b1) @ w2 + b2."""
        p = self.params
        pre, th = c["pre"], c["th"]
        grads[f"{b}.mlp.w2"] += (pre * (th + 1.0) * 0.5).T @ dx
        grads[f"{b}.mlp.b2"] += dx.sum(axis=0)
        slope = (th + 1.0) * 0.5 + pre * (1.0 - th * th) * (0.5 * _GELU_C) * (1.0 + 3 * 0.044715 * pre * pre)
        dpre = (dx @ p[f"{b}.mlp.w2"].T) * slope
        grads[f"{b}.mlp.w1"] += c["h2"].T @ dpre
        grads[f"{b}.mlp.b1"] += dpre.sum(axis=0)
        dh2 = dpre @ p[f"{b}.mlp.w1"].T
        return dx + self._layer_norm_backward(dh2, c["xhat2"], c["inv2"], grads, f"{b}.ln2")

    def _attn_backward(self, c: dict, dx: np.ndarray, grads: dict, b: str) -> np.ndarray:
        """Through x + attention(ln1(x)) @ wo + bo.  `dx` covers the block's
        query rows, the last rows of the sequence; the result covers every row."""
        p, (n_heads, n_rows, dh) = self.params, c["q"].shape
        h, q, k, v, att = c["h"], c["q"], c["k"], c["v"], c["att"]
        t, d = h.shape
        split = lambda m: m.reshape(m.shape[0], n_heads, dh).swapaxes(0, 1)
        merge = lambda m: m.swapaxes(0, 1).reshape(m.shape[1], d)
        grads[f"{b}.attn.wo"] += c["ctx"].T @ dx
        grads[f"{b}.attn.bo"] += dx.sum(axis=0)
        dctx = split(dx @ p[f"{b}.attn.wo"].T)
        dv = merge(att.swapaxes(1, 2) @ dctx)
        dscores = dctx @ v.swapaxes(1, 2)  # dL/d att, then in place dL/d scores up to the 1/sqrt(dh)
        dscores -= np.einsum("hrt,hrt->hr", dscores, att)[..., None]
        dscores *= att
        dq = merge(dscores @ k) * (1.0 / math.sqrt(dh))
        dk = merge(dscores.swapaxes(1, 2) @ q) * (1.0 / math.sqrt(dh))
        for name, rows, grad in (("q", h[t - n_rows :], dq), ("k", h, dk), ("v", h, dv)):
            grads[f"{b}.attn.w{name}"] += rows.T @ grad
            grads[f"{b}.attn.b{name}"] += grad.sum(axis=0)
        dnorm = dk @ p[f"{b}.attn.wk"].T + dv @ p[f"{b}.attn.wv"].T
        dnorm[t - n_rows :] += dq @ p[f"{b}.attn.wq"].T
        dx_in = self._layer_norm_backward(dnorm, c["xhat1"], c["inv1"], grads, f"{b}.ln1")
        dx_in[t - n_rows :] += dx
        return dx_in

    def _zero_grads(self) -> dict[str, np.ndarray]:
        return {n: np.zeros_like(a) for n, a in self.params.items()}

    # -- Q interface ----------------------------------------------------------

    def q_encoded(self, table, rows, catalog: StrategyCatalog, vocab: Vocabulary) -> np.ndarray:
        """(len(rows), K) Q values of the codes `table[rows]`, one pass per
        distinct row."""
        seen: dict[int, np.ndarray] = {}
        out = np.empty((len(rows), len(catalog)))
        for n, row in enumerate(rows):
            if row not in seen:
                seen[row] = self._finite(self._q(table[row], catalog, vocab).astype(np.float64))
            out[n] = seen[row]
        return out

    def q_value(
        self, state: DialogueState, action: int, catalog: StrategyCatalog, vocab: Vocabulary
    ) -> float:
        catalog.by_id(action)
        return float(self._q(self.encode(state, catalog, vocab), catalog, vocab)[action - 1])

    def q_all(self, state: DialogueState, catalog: StrategyCatalog, vocab: Vocabulary) -> np.ndarray:
        return self.q_encoded([self.encode(state, catalog, vocab)], [0], catalog, vocab)[0]

    def grad_q(
        self, state: DialogueState, action: int, catalog: StrategyCatalog, vocab: Vocabulary
    ) -> dict[str, np.ndarray]:
        """Analytic gradient of q_value with respect to every parameter."""
        catalog.by_id(action)
        cache: list = []
        dq = np.zeros_like(self._q(self.encode(state, catalog, vocab), catalog, vocab, cache))
        dq[action - 1] = 1.0
        return self._backward(cache, dq, self._zero_grads())

    def loss_and_grads_encoded(
        self, table, rows, actions: np.ndarray, targets: np.ndarray, catalog: StrategyCatalog, vocab: Vocabulary
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean squared TD error of the items (table[row], action, target) and
        its gradient.  Items that share a row share one forward and one
        backward pass, with dQ = sum of 2 (Q[a - 1] - target) / B over them."""
        by_row: dict[int, list[int]] = {}
        for n, row in enumerate(rows):
            by_row.setdefault(row, []).append(n)
        grads = self._zero_grads()
        errors: list = [None] * len(rows)
        for row, members in by_row.items():
            cache: list = []
            q = self._q(table[row], catalog, vocab, cache)
            dq = np.zeros_like(q)
            for n in members:
                diff = q[actions[n] - 1] - float(targets[n])
                errors[n] = diff**2.0
                dq[actions[n] - 1] += 2.0 * diff / len(rows)
            self._backward(cache, dq, grads)
        loss = sum(errors[1:], errors[0]) * (1.0 / len(rows))
        return float(loss), grads

    def loss_and_grads(
        self,
        items: list[tuple[DialogueState, int, float]],
        catalog: StrategyCatalog,
        vocab: Vocabulary,
    ) -> tuple[float, dict[str, np.ndarray]]:
        return self.loss_and_grads_encoded(*self._encode_items(items, catalog, vocab), catalog, vocab)
