"""Causal-transformer Q-scorer.

The state is rendered into the multi-choice instruction, the candidate
answer " (k)" is appended, and Q(s, a) is the log-probability the model
assigns to the answer at its predicting position.  Every answer is the one
token `(k)`, a reserved word that carries the space before it (see
`build_vocab` and `Vocabulary.encode`), so the prompt is shared and Q(s, ·)
is log p(`(k)` | BOS + prompt), read off the last row of one pass over
BOS + prompt.

The transformer is written once, in numpy, and runs without a tape.  The
last block, final layer norm, head and log-softmax run only on the one row
that predicts the answer.  Attention runs in row tiles of `_TILE` query rows
(`_attend`): a tile scores only the keys up to its last row, so the masked
half of the T x T score square is never computed, and only the tile's
diagonal square is masked, from the one constant `_FUTURE`.  The last
block's one query row makes one tile.

Given a `cache` list, the forward also keeps per block what the backward
needs: the layer norms' normalised inputs and inverse standard deviations,
h, q, k and v, the attention probability tiles, the merged context, and the
MLP pre-activation, its tanh and the GELU output.  `_backward` walks those
blocks in reverse by hand, one small function per block, as llm.c's
`gpt2_backward` does; `_attn_backward` walks the forward's tiles, so its
four score-sized matmuls skip the masked half too.  A state's code
(`encode`) is BOS + its windowed prompt.  `_pullback`, which `Scorer`'s
`grad_q` and TD loss run on, makes one cached pass and one backward per
distinct code, and a state's activations are dropped before the next
state's pass, so memory does not grow with the batch.  The gradients are
checked against an autodiff-tape transformer and central finite
differences in the test suite.

The workspace.  A pass's large arrays -- the packed score tiles, the MLP's
pre-activation, tanh and GELU output, and the backward's score-gradient
tile -- live in one grow-only `Workspace` in the config dtype, so a pass
does not allocate (and fault in) fresh memory for them.  It is created with
the scorer and shared by its `clone()` twins (training's online and target
nets): every pass overwrites the previous one's arrays.  A cache therefore
records the pass's stamp, `_backward` raises if another pass has run since,
and a cache serves one backward, which builds the GELU slope in the MLP's
buffers.  Twins must not run passes on two threads at once.

The bit contract.  `q_all` and `q_value` read one row of a one-row
`q_encoded`, which equals that code's row of any `q_encoded` call.  A row's
TD dQ is the sum, by `np.add.at` in item order, of its items'
(Q[a - 1] - target) · (2 / B).  Against the dense reference in the test
suite (the full score square with the future half overwritten), `q_all`
agrees to within 1e-12, not bit for bit: a tile's q·kᵀ can round
differently from the full product's, and a shorter row sum adds in a
different order.  A pass of at most `_TILE` rows is one tile and matches
the reference bit for bit; the MLP's in-place buffers repeat the dense
operations in the same order.
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
_TILE = 64  # query rows per attention tile
_FUTURE = np.triu(np.ones((_TILE, _TILE), dtype=bool), k=1)  # a diagonal square's masked entries


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


def _tiles(n: int) -> list[tuple[int, int]]:
    """[lo, hi) of each row tile of `n` query rows."""
    return [(lo, min(lo + _TILE, n)) for lo in range(0, n, _TILE)]


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, ws: "Workspace"):
    """Causal softmax attention of the query rows `q` (heads, rows, dh), the
    last rows of the sequence, over the keys `k` and values `v` of every row,
    one row tile at a time: each tile meets only the keys up to its last row,
    and only its diagonal square is masked.  Returns the probability tiles,
    views into `ws`, and the context, shaped like `q`."""
    n_heads, n, dh = q.shape
    first = k.shape[1] - n  # sequence position of the first query row
    tiles, ctx = [], np.empty_like(q)
    for lo, hi in _tiles(n):
        end, m = first + hi, hi - lo
        att = ws.take(n_heads, m, end)
        np.matmul(q[:, lo:hi], k[:, :end].swapaxes(1, 2), out=att)
        att *= 1.0 / math.sqrt(dh)
        np.copyto(att[:, :, first + lo :], _MASKED, where=_FUTURE[:m, :m])
        att -= att.max(axis=-1, keepdims=True)
        np.exp(att, out=att)
        att /= att.sum(axis=-1, keepdims=True)
        np.matmul(att, v[:, :end], out=ctx[:, lo:hi])
        tiles.append(att)
    return tiles, ctx


class Workspace:
    """Grow-only buffer holding one pass's large arrays, and the count of the
    passes that have written it.  `begin` starts a pass and returns its
    stamp; `take` hands out the pass's next unused slice."""

    def __init__(self, dtype):
        self.buffer = np.empty(0, dtype=dtype)
        self.passes = 0
        self._used = 0

    def begin(self, size: int) -> int:
        if self.buffer.size < size:
            self.buffer = np.empty(size, dtype=self.buffer.dtype)
        self.passes += 1
        self._used = 0
        return self.passes

    def take(self, *shape: int) -> np.ndarray:
        n = math.prod(shape)
        out = self.buffer[self._used : self._used + n].reshape(shape)
        self._used += n
        return out

    def reclaim(self, stamp: int) -> None:
        """End pass `stamp` for its backward, which overwrites its arrays;
        raise if another pass has run since."""
        if stamp != self.passes:
            raise RuntimeError("another pass has reused the workspace since this cache was made")
        self.passes += 1


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
        self._workspace = Workspace(config.np_dtype)  # shared with clone() twins

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

    def _pass_size(self, t: int, n_rows: int, cached: bool) -> int:
        """Workspace elements one pass over `t` tokens takes: per block the
        score tiles and the MLP's three (rows, 4 d_model) arrays, and, for a
        pass the backward follows, one score tile of scratch."""
        cfg = self.config
        size = 0
        for i in range(cfg.n_layers):
            n = n_rows if i == cfg.n_layers - 1 else t
            size += sum(cfg.n_heads * (hi - lo) * (t - n + hi) for lo, hi in _tiles(n)) + 3 * n * 4 * cfg.d_model
        return size + (cfg.n_heads * min(_TILE, t) * t if cached else 0)

    def _hidden(self, tokens: np.ndarray, params: dict, n_rows: int, cache: Optional[list] = None):
        """Final hidden rows, before ln_f, of the last `n_rows` positions of
        `tokens`; the last block computes queries, output projection and MLP
        for those rows alone.  A `cache` list receives the tokens, the pass's
        workspace stamp and the backward's scratch, then one dict per block
        of the activations its backward reads."""
        cfg, t = self.config, len(tokens)
        if t > cfg.n_ctx:
            raise ValueError(f"sequence length {t} exceeds context size {cfg.n_ctx}")
        if tokens.max() >= cfg.vocab_size or tokens.min() < 0:
            raise ValueError("token id outside the vocabulary")
        ws = self._workspace
        stamp = ws.begin(self._pass_size(t, n_rows, cache is not None))
        n_heads, dh, width = cfg.n_heads, cfg.d_model // cfg.n_heads, 4 * cfg.d_model
        split = lambda m: m.reshape(m.shape[0], n_heads, dh).swapaxes(0, 1)
        x = params["tok_emb"][tokens] + params["pos_emb"][:t]
        if cache is not None:
            cache.append(dict(tokens=tokens, stamp=stamp, scratch=ws.take(n_heads * min(_TILE, t) * t)))
        for i in range(cfg.n_layers):
            p = lambda n: params[f"blocks.{i}.{n}"]
            h, xhat1, inv1 = _layer_norm(x, p("ln1.g"), p("ln1.b"))
            k = split(h @ p("attn.wk") + p("attn.bk"))
            v = split(h @ p("attn.wv") + p("attn.bv"))
            rows = h
            if i == cfg.n_layers - 1:
                x, rows = x[t - n_rows :], h[t - n_rows :]
            q = split(rows @ p("attn.wq") + p("attn.bq"))
            att, ctx = _attend(q, k, v, ws)
            ctx = ctx.swapaxes(0, 1).reshape(x.shape[0], cfg.d_model)
            x = x + (ctx @ p("attn.wo") + p("attn.bo"))
            h2, xhat2, inv2 = _layer_norm(x, p("ln2.g"), p("ln2.b"))
            # gelu in the workspace, in the operation order of
            # th = tanh((pre + pre * pre * pre * 0.044715) * C), gelu = pre * (th + 1) * 0.5
            pre, th, gelu = (ws.take(x.shape[0], width) for _ in range(3))
            np.matmul(h2, p("mlp.w1"), out=pre)
            pre += p("mlp.b1")
            np.multiply(pre, pre, out=th)
            th *= pre
            th *= 0.044715
            th += pre
            th *= _GELU_C
            np.tanh(th, out=th)
            np.add(th, 1.0, out=gelu)
            gelu *= pre
            gelu *= 0.5
            x = x + (gelu @ p("mlp.w2") + p("mlp.b2"))
            if cache is not None:
                cache.append(dict(
                    xhat1=xhat1, inv1=inv1, h=h, q=q, k=k, v=v, att=att, ctx=ctx,
                    xhat2=xhat2, inv2=inv2, h2=h2, pre=pre, th=th, gelu=gelu,
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

    def encode(self, state: DialogueState, catalog: StrategyCatalog, vocab: Vocabulary) -> np.ndarray:
        """Token ids of BOS + the windowed prompt, which every answer follows."""
        return encode_pair(state, catalog.ids[0], catalog, vocab, self.window).tokens[:-1]

    def _q(self, tokens: np.ndarray, catalog: StrategyCatalog, vocab: Vocabulary, cache: Optional[list] = None):
        """Q(s, ·) from one pass over the code `tokens` of s: the
        log-probability of each answer word at the last row.  A `cache` list
        receives what `_backward` reads, the head's entry last."""
        words = np.array([encode_answer(a, catalog, vocab)[0] for a in catalog.ids])
        logp, head = self._head(self._hidden(tokens, self.params, 1, cache))
        if cache is not None:
            cache.append(dict(head, words=words))
        return logp[0, words]

    # -- backward -------------------------------------------------------------

    def _backward(self, cache: list, dq: np.ndarray, grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Add the gradient of dq · Q(s, ·) into `grads`, from the `cache` of one
        `_q` pass, the workspace's last: head, then MLP and attention per block
        in reverse, then the embeddings.  The last block flows back through its
        one row; its keys and values reach every row.  The cache serves one
        backward."""
        top, *blocks, head = cache
        self._workspace.reclaim(top["stamp"])
        dx = self._head_backward(head, dq, grads)
        for i in reversed(range(len(blocks))):
            dx = self._mlp_backward(blocks[i], dx, grads, f"blocks.{i}")
            dx = self._attn_backward(blocks[i], dx, grads, f"blocks.{i}", top["scratch"])
        np.add.at(grads["tok_emb"], top["tokens"], dx)
        grads["pos_emb"][: len(top["tokens"])] += dx
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
        dlogp[0, c["words"]] += dq
        dlogits = dlogp - np.exp(c["logp"]) * dlogp.sum(axis=-1, keepdims=True)
        grads["head.w"] += c["xf"].T @ dlogits
        grads["head.b"] += dlogits.sum(axis=0)
        dxf = dlogits @ self.params["head.w"].T
        return self._layer_norm_backward(dxf, c["xhat"], c["inv"], grads, "ln_f")

    def _mlp_backward(self, c: dict, dx: np.ndarray, grads: dict, b: str) -> np.ndarray:
        """Through x + gelu(ln2(x) @ w1 + b1) @ w2 + b2.  The gelu slope is
        built in the buffers of gelu, pre and th, which nothing reads again."""
        p = self.params
        pre, th, slope = c["pre"], c["th"], c["gelu"]
        grads[f"{b}.mlp.w2"] += slope.T @ dx
        grads[f"{b}.mlp.b2"] += dx.sum(axis=0)
        # slope = (th + 1) / 2 + pre (1 - th²) C / 2 (1 + 3 · 0.044715 pre²)
        np.multiply(pre, pre, out=slope)
        slope *= 3 * 0.044715
        slope += 1.0
        slope *= pre
        slope *= 0.5 * _GELU_C
        np.multiply(th, th, out=pre)
        np.subtract(1.0, pre, out=pre)
        slope *= pre
        th += 1.0
        th *= 0.5
        slope += th
        dpre = dx @ p[f"{b}.mlp.w2"].T
        dpre *= slope
        grads[f"{b}.mlp.w1"] += c["h2"].T @ dpre
        grads[f"{b}.mlp.b1"] += dpre.sum(axis=0)
        dh2 = dpre @ p[f"{b}.mlp.w1"].T
        return dx + self._layer_norm_backward(dh2, c["xhat2"], c["inv2"], grads, f"{b}.ln2")

    def _attn_backward(self, c: dict, dx: np.ndarray, grads: dict, b: str, scratch: np.ndarray) -> np.ndarray:
        """Through x + attention(ln1(x)) @ wo + bo, over the forward's row
        tiles: dk and dv gather each tile's keys, dq is written per tile, and
        a tile's score gradient lives in `scratch`.  `dx` covers the block's
        query rows, the last rows of the sequence; the result covers every row."""
        p, (n_heads, n_rows, dh) = self.params, c["q"].shape
        h, q, k, v = c["h"], c["q"], c["k"], c["v"]
        t, d = h.shape
        first = t - n_rows
        split = lambda m: m.reshape(m.shape[0], n_heads, dh).swapaxes(0, 1)
        merge = lambda m: m.swapaxes(0, 1).reshape(m.shape[1], d)
        grads[f"{b}.attn.wo"] += c["ctx"].T @ dx
        grads[f"{b}.attn.bo"] += dx.sum(axis=0)
        dctx = split(dx @ p[f"{b}.attn.wo"].T)
        dq, dk, dv = np.empty_like(q), np.zeros_like(k), np.zeros_like(v)
        for (lo, hi), att in zip(_tiles(n_rows), c["att"]):
            end = first + hi
            dv[:, :end] += att.swapaxes(1, 2) @ dctx[:, lo:hi]
            dscores = scratch[: att.size].reshape(att.shape)  # dL/d att, then dL/d scores up to the 1/sqrt(dh)
            np.matmul(dctx[:, lo:hi], v[:, :end].swapaxes(1, 2), out=dscores)
            dscores -= np.einsum("hrt,hrt->hr", dscores, att)[..., None]
            dscores *= att
            np.matmul(dscores, k[:, :end], out=dq[:, lo:hi])
            dk[:, :end] += dscores.swapaxes(1, 2) @ q[:, lo:hi]
        scale = 1.0 / math.sqrt(dh)
        dq, dk, dv = merge(dq) * scale, merge(dk) * scale, merge(dv)
        for name, rows, grad in (("q", h[first:], dq), ("k", h, dk), ("v", h, dv)):
            grads[f"{b}.attn.w{name}"] += rows.T @ grad
            grads[f"{b}.attn.b{name}"] += grad.sum(axis=0)
        dnorm = dk @ p[f"{b}.attn.wk"].T + dv @ p[f"{b}.attn.wv"].T
        dnorm[first:] += dq @ p[f"{b}.attn.wq"].T
        dx_in = self._layer_norm_backward(dnorm, c["xhat1"], c["inv1"], grads, f"{b}.ln1")
        dx_in[first:] += dx
        return dx_in

    def _zero_grads(self) -> dict[str, np.ndarray]:
        return {n: np.zeros_like(a) for n, a in self.params.items()}

    # -- encoded path ---------------------------------------------------------

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

    def _pullback(self, table, rows, actions: np.ndarray, dq_of, catalog: StrategyCatalog, vocab: Vocabulary):
        """One cached forward and one backward per distinct row.  A row's
        items get their dq from one `dq_of` call, and `np.add.at` sums them,
        in item order, into the row's K-vector dQ before its backward."""
        by_row: dict[int, list[int]] = {}
        for n, row in enumerate(rows):
            by_row.setdefault(row, []).append(n)
        grads = self._zero_grads()
        q = np.empty(len(rows))
        for row, members in by_row.items():
            cache: list = []
            q_row = self._q(table[row], catalog, vocab, cache)
            items = np.array(members)
            picks = actions[items] - 1
            q[items] = q_row[picks]
            dq = np.zeros_like(q_row)
            np.add.at(dq, picks, dq_of(q[items], items))
            self._backward(cache, dq, grads)
        return q, grads

    # perfbench's tracer wraps entries of the class's own __dict__
    q_all, q_value, loss_and_grads = Scorer.q_all, Scorer.q_value, Scorer.loss_and_grads
