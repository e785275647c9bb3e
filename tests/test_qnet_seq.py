from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import supportq.autodiff as ad
from supportq.core import DialogueState, Emotion, Speaker, Turn
from supportq.encoding import encode_pair
from supportq.qnet import SeqConfig, SeqScorer, load_scorer, save_scorer

from .conftest import fd_gradient, rel_error
from .oracles import (
    causal_mask,
    dense_forward,
    dense_hidden,
    dense_seq_q,
    max_relative_error,
    oracle_seq_q_all,
    tape_grads,
    tape_loss_grads,
    tape_seq_q,
)


def zeroed(scorer: SeqScorer) -> SeqScorer:
    clone = scorer.clone()
    for name in clone.params:
        if not name.endswith((".g",)):  # keep layer-norm gains at 1
            clone.params[name][:] = 0.0
    return clone


# -- independent plain-loop re-implementation of the documented architecture --


def loop_forward(params: dict, tokens, cfg: SeqConfig) -> np.ndarray:
    V, d, H, L = cfg.vocab_size, cfg.d_model, cfg.n_heads, cfg.n_layers
    dh = d // H
    T = len(tokens)
    p = {k: v.tolist() for k, v in params.items()}

    def layer_norm(vec, g, b, eps=1e-5):
        mu = sum(vec) / len(vec)
        var = sum((u - mu) ** 2 for u in vec) / len(vec)
        inv = (var + eps) ** -0.5
        return [(u - mu) * inv * gj + bj for u, gj, bj in zip(vec, g, b)]

    def affine(mat, bias, vec):
        return [sum(vec[i] * mat[i][j] for i in range(len(vec))) + bias[j] for j in range(len(bias))]

    def gelu(u):
        return 0.5 * u * (1.0 + math.tanh(0.7978845608028654 * (u + 0.044715 * u**3)))

    x = [
        [p["tok_emb"][t][j] + p["pos_emb"][i][j] for j in range(d)]
        for i, t in enumerate(tokens)
    ]
    for layer in range(L):
        name = lambda s: p[f"blocks.{layer}.{s}"]
        h = [layer_norm(row, name("ln1.g"), name("ln1.b")) for row in x]
        q = [affine(name("attn.wq"), name("attn.bq"), row) for row in h]
        k = [affine(name("attn.wk"), name("attn.bk"), row) for row in h]
        v = [affine(name("attn.wv"), name("attn.bv"), row) for row in h]
        ctx = [[0.0] * d for _ in range(T)]
        for head in range(H):
            lo = head * dh
            for i in range(T):
                scores = [
                    sum(q[i][lo + a] * k[j][lo + a] for a in range(dh)) / math.sqrt(dh)
                    for j in range(i + 1)
                ]
                mx = max(scores)
                weights = [math.exp(s - mx) for s in scores]
                z = sum(weights)
                weights = [w / z for w in weights]
                for a in range(dh):
                    ctx[i][lo + a] = sum(weights[j] * v[j][lo + a] for j in range(i + 1))
        att = [affine(name("attn.wo"), name("attn.bo"), row) for row in ctx]
        x = [[xi + ai for xi, ai in zip(xrow, arow)] for xrow, arow in zip(x, att)]
        h2 = [layer_norm(row, name("ln2.g"), name("ln2.b")) for row in x]
        mid = [[gelu(u) for u in affine(name("mlp.w1"), name("mlp.b1"), row)] for row in h2]
        up = [affine(name("mlp.w2"), name("mlp.b2"), row) for row in mid]
        x = [[xi + ui for xi, ui in zip(xrow, urow)] for xrow, urow in zip(x, up)]

    xf = [layer_norm(row, p["ln_f.g"], p["ln_f.b"]) for row in x]
    logits = [affine(p["head.w"], p["head.b"], row) for row in xf]
    out = [[-math.log(V)] * V]
    for i in range(1, T):
        row = logits[i - 1]
        mx = max(row)
        lse = mx + math.log(sum(math.exp(u - mx) for u in row))
        out.append([u - lse for u in row])
    return np.array(out)


class TestForward:
    def test_constant_logits_give_uniform(self, seq_scorer, small_vocab):
        scorer = zeroed(seq_scorer)
        tokens = np.array([2, 5, 300, 301, 7])
        out = dense_forward(scorer, tokens)
        np.testing.assert_allclose(out, -math.log(small_vocab.size), atol=1e-12)

    def test_causality_ignores_future_tokens(self, seq_scorer):
        tokens = np.array([2, 10, 11, 12, 13, 14, 15])
        swapped = tokens.copy()
        swapped[4], swapped[6] = swapped[6], swapped[4]
        a = dense_forward(seq_scorer, tokens)
        b = dense_forward(seq_scorer, swapped)
        np.testing.assert_array_equal(a[:4], b[:4])
        assert not np.allclose(a[5:], b[5:])

    def test_matches_plain_loop_oracle(self, small_vocab):
        cfg = SeqConfig(vocab_size=small_vocab.size, d_model=16, n_heads=2, n_layers=2, n_ctx=64)
        scorer = SeqScorer(cfg, seed=11)
        tokens = np.array([2, 4, 300, 12, 262, 30, 31, 9, 260, 5])
        fast = dense_forward(scorer, tokens)
        slow = loop_forward(scorer.params, tokens.tolist(), cfg)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_rows_are_normalized_distributions(self, seq_scorer):
        out = dense_forward(seq_scorer, np.array([2, 3, 4, 5]))
        np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_out_of_vocab_ids(self, seq_scorer, catalog, small_vocab):
        with pytest.raises(ValueError):
            seq_scorer.q_encoded([np.array([2, small_vocab.size])], [0], catalog, small_vocab)


class TestQValue:
    def test_constant_model_scores_uniform(self, seq_scorer, bare_state, catalog, small_vocab):
        scorer = zeroed(seq_scorer)
        for action in (1, 5, 8):
            assert scorer.q_value(bare_state, action, catalog, small_vocab) == pytest.approx(
                -math.log(small_vocab.size), abs=1e-12
            )

    def test_q_is_mean_of_span_logprobs(self, seq_scorer, bare_state, catalog, small_vocab):
        # oracle: pull the realized-token log-probs out of the dense forward and average
        for action in catalog.ids:
            pair = encode_pair(bare_state, action, catalog, small_vocab)
            rows = dense_forward(seq_scorer, pair.tokens)
            start, end = pair.action_span
            expected = np.mean([rows[i, pair.tokens[i]] for i in range(start, end)])
            assert seq_scorer.q_value(bare_state, action, catalog, small_vocab) == pytest.approx(
                float(expected), abs=1e-12
            )

    def test_q_all_equals_per_action_calls(self, seq_scorer, bare_state, catalog, small_vocab):
        qs = seq_scorer.q_all(bare_state, catalog, small_vocab)
        singles = [seq_scorer.q_value(bare_state, a, catalog, small_vocab) for a in catalog.ids]
        np.testing.assert_array_equal(qs, singles)
        assert int(np.argmax(qs)) + 1 == seq_scorer.select_strategy(bare_state, catalog, small_vocab)

    def test_uniform_logit_shift_leaves_q_all_unchanged(
        self, seq_scorer, bare_state, catalog, small_vocab
    ):
        base = seq_scorer.q_all(bare_state, catalog, small_vocab)
        shifted = seq_scorer.clone()
        shifted.params["head.b"] += 7.25
        np.testing.assert_allclose(
            shifted.q_all(bare_state, catalog, small_vocab), base, atol=1e-12
        )

    def test_q_values_are_nonpositive(self, seq_scorer, bare_state, catalog, small_vocab):
        assert (seq_scorer.q_all(bare_state, catalog, small_vocab) <= 0).all()


class TestGradients:
    def test_grad_matches_finite_differences(self, seq_scorer, bare_state, catalog, small_vocab):
        grads = seq_scorer.grad_q(bare_state, 2, catalog, small_vocab)
        rng = np.random.default_rng(0)
        names = sorted(grads)
        sizes = np.array([seq_scorer.params[n].size for n in names])
        cum = np.cumsum(sizes)
        failures = 0
        for _ in range(200):
            flat = int(rng.integers(cum[-1]))
            ni = int(np.searchsorted(cum, flat, side="right"))
            arr = seq_scorer.params[names[ni]]
            idx = np.unravel_index(flat - (cum[ni] - sizes[ni]), arr.shape)
            fd = fd_gradient(
                lambda: seq_scorer.q_value(bare_state, 2, catalog, small_vocab), arr, idx
            )
            if rel_error(fd, float(grads[names[ni]][idx])) > 1e-6:
                failures += 1
        assert failures == 0

    def test_gradcheck_catches_corruption(self, seq_scorer, bare_state, catalog, small_vocab):
        # negative control: a wrong gradient must fail the same comparison
        grads = seq_scorer.grad_q(bare_state, 2, catalog, small_vocab)
        name = "ln_f.g"
        idx = (0,)
        fd = fd_gradient(
            lambda: seq_scorer.q_value(bare_state, 2, catalog, small_vocab),
            seq_scorer.params[name],
            idx,
        )
        assert rel_error(fd, float(grads[name][idx])) <= 1e-6
        assert rel_error(fd, float(grads[name][idx]) + 1e-3) > 1e-6

    def test_unused_embedding_rows_get_zero_grad(
        self, seq_scorer, bare_state, catalog, small_vocab
    ):
        pair = encode_pair(bare_state, 2, catalog, small_vocab)
        used = set(pair.tokens.tolist())
        grads = seq_scorer.grad_q(bare_state, 2, catalog, small_vocab)
        unused = [i for i in range(small_vocab.size) if i not in used][:20]
        assert np.all(grads["tok_emb"][unused] == 0.0)
        assert np.any(grads["tok_emb"][sorted(used)[0]] != 0.0)

    def test_uniform_shift_does_not_change_grads(
        self, seq_scorer, bare_state, catalog, small_vocab
    ):
        base = seq_scorer.grad_q(bare_state, 3, catalog, small_vocab)
        shifted = seq_scorer.clone()
        shifted.params["head.b"] += 3.0
        moved = shifted.grad_q(bare_state, 3, catalog, small_vocab)
        for name in base:
            np.testing.assert_allclose(moved[name], base[name], atol=1e-12)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, seq_scorer, bare_state, catalog, small_vocab, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_scorer(path, seq_scorer, extra={"note": "test"})
        loaded, extra = load_scorer(path)
        assert extra == {"note": "test"}
        assert loaded.config == seq_scorer.config
        np.testing.assert_array_equal(
            loaded.q_all(bare_state, catalog, small_vocab),
            seq_scorer.q_all(bare_state, catalog, small_vocab),
        )
        for name in seq_scorer.params:
            assert np.array_equal(loaded.params[name], seq_scorer.params[name])

    def test_clone_is_independent(self, seq_scorer):
        clone = seq_scorer.clone()
        clone.params["head.w"][:] = 0.0
        assert not np.array_equal(clone.params["head.w"], seq_scorer.params["head.w"])

    def test_clone_and_checkpoint_keep_window(self, seq_scorer, tmp_path):
        scorer = SeqScorer(seq_scorer.config, params=seq_scorer.params, window=300)
        assert scorer.clone().window == 300
        save_scorer(tmp_path / "ckpt.npz", scorer)
        assert load_scorer(tmp_path / "ckpt.npz")[0].window == 300


def test_select_strategy_tie_breaks_to_smallest_id(bare_state, catalog, small_vocab, seq_scorer):
    from supportq.qnet.base import argmax_smallest_id

    assert argmax_smallest_id(np.array([0.1, 0.9, 0.3])) == 2
    assert argmax_smallest_id(np.array([0.5, 0.9, 0.9, 0.2, 0.9])) == 2
    constant = zeroed(seq_scorer)
    assert constant.select_strategy(bare_state, catalog, small_vocab) == 1


class TestSharedPromptKernel:
    """q_all's one-prompt-pass kernel against the K-pass tape oracle."""

    @pytest.mark.parametrize("state_name", ["bare_state", "tiny_state"])
    def test_matches_k_pass_oracle(self, request, state_name, seq_scorer, catalog, small_vocab):
        state = request.getfixturevalue(state_name)
        np.testing.assert_allclose(
            seq_scorer.q_all(state, catalog, small_vocab),
            oracle_seq_q_all(seq_scorer, state, catalog, small_vocab),
            rtol=0,
            atol=1e-12,
        )

    def test_window_boundary_drops_the_same_history(self, seq_scorer, tiny_state, catalog, small_vocab):
        # one token short of the full-history sequence: every action must drop
        # the same turns, because every answer " (k)" is one token
        full = encode_pair(tiny_state, 1, catalog, small_vocab)
        window = len(full.tokens) - 1
        scorer = SeqScorer(seq_scorer.config, params=seq_scorer.params, window=window)
        pairs = [encode_pair(tiny_state, a, catalog, small_vocab, window) for a in catalog.ids]
        prompts = {p.tokens[: p.action_span[0]].tobytes() for p in pairs}
        assert len(prompts) == 1
        assert pairs[0].action_span[0] < full.action_span[0]
        qs = scorer.q_all(tiny_state, catalog, small_vocab)
        np.testing.assert_allclose(
            qs, oracle_seq_q_all(scorer, tiny_state, catalog, small_vocab), rtol=0, atol=1e-12
        )
        singles = [scorer.q_value(tiny_state, a, catalog, small_vocab) for a in catalog.ids]
        np.testing.assert_array_equal(qs, singles)

    def test_float32_config(self, tiny_state, catalog, small_vocab):
        cfg = SeqConfig(vocab_size=small_vocab.size, d_model=16, n_ctx=512, dtype="float32")
        scorer = SeqScorer(cfg, seed=3)
        np.testing.assert_allclose(
            scorer.q_all(tiny_state, catalog, small_vocab),
            oracle_seq_q_all(scorer, tiny_state, catalog, small_vocab),
            rtol=0,
            atol=1e-5,
        )

    def test_float32_gradients_stay_float32(self, tiny_state, catalog, small_vocab):
        cfg = SeqConfig(vocab_size=small_vocab.size, d_model=16, n_ctx=512, dtype="float32")
        scorer = SeqScorer(cfg, seed=3)
        _, grads = scorer.loss_and_grads([(tiny_state, 2, 0.5), (tiny_state, 6, -0.5)], catalog, small_vocab)
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
        grads = scorer.grad_q(tiny_state, 2, catalog, small_vocab)
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}

    def test_q_all_memory_stays_bounded_on_a_long_prompt(self, catalog, small_vocab):
        history = tuple(
            Turn(Speaker.SEEKER if i % 2 == 0 else Speaker.SUPPORTER, f"turn {i}: I feel stuck.")
            for i in range(40)
        )
        state = DialogueState(
            description="job stress", emotion=Emotion("anxiety"), history=history, query="What should I do?"
        )
        cfg = SeqConfig(vocab_size=small_vocab.size, d_model=64, n_heads=2, n_layers=2, n_ctx=1024)
        scorer = SeqScorer(cfg, seed=0, window=1024)
        assert len(encode_pair(state, 2, catalog, small_vocab, scorer.window).tokens) >= 600
        tracemalloc.start()
        try:
            scorer.q_all(state, catalog, small_vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def test_config_needs_a_block():
    # with no block there is no last block to cut to the answer's two rows
    with pytest.raises(ValueError):
        SeqConfig(vocab_size=300, n_layers=0)


def test_causal_mask_is_additive_upper_triangle_in_the_config_dtype():
    for dtype in (np.float32, np.float64):
        mask = causal_mask(5, dtype)
        assert mask.dtype == dtype
        np.testing.assert_array_equal(mask, np.triu(np.full((5, 5), -1e30, dtype=dtype), k=1))


class TestOnePassPerState:
    def test_shared_state_items_match_single_item_calls(self, seq_scorer, tiny_state, catalog, small_vocab):
        pair = [(tiny_state, 1, -0.4), (tiny_state, 4, 0.7)]
        loss, grads = seq_scorer.loss_and_grads(pair, catalog, small_vocab)
        singles = [seq_scorer.loss_and_grads([item], catalog, small_vocab) for item in pair]
        assert loss == pytest.approx((singles[0][0] + singles[1][0]) / 2, abs=1e-12)
        for name in grads:
            np.testing.assert_allclose(
                grads[name], (singles[0][1][name] + singles[1][1][name]) / 2, rtol=0, atol=1e-12
            )

    def test_shared_state_items_share_one_tape(self, seq_scorer, tiny_state, catalog, small_vocab):
        def peak(items):
            tracemalloc.start()
            try:
                seq_scorer.loss_and_grads(items, catalog, small_vocab)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak([(tiny_state, 1, -0.4)])
        assert peak([(tiny_state, 1, -0.4), (tiny_state, 4, 0.7)]) < 1.3 * one

    @pytest.mark.parametrize("fixture", ["seq_scorer", "mlp_scorer"])
    @pytest.mark.parametrize("action", [0, 9])
    def test_out_of_range_action_raises(self, request, fixture, tiny_state, catalog, small_vocab, action):
        scorer = request.getfixturevalue(fixture)
        assert len(catalog) == 8
        with pytest.raises(KeyError):
            scorer.q_value(tiny_state, action, catalog, small_vocab)
        with pytest.raises(KeyError):
            scorer.grad_q(tiny_state, action, catalog, small_vocab)
        with pytest.raises(KeyError):
            scorer.loss_and_grads([(tiny_state, action, 0.5)], catalog, small_vocab)


def long_state(query: str) -> DialogueState:
    history = tuple(
        Turn(Speaker.SEEKER if i % 2 == 0 else Speaker.SUPPORTER, f"turn {i}: I feel stuck.")
        for i in range(40)
    )
    return DialogueState(description="job stress", emotion=Emotion("anxiety"), history=history, query=query)


class TestHandWrittenBackward:
    """The hand-written backward against the transformer on the autodiff tape."""

    CASES = [("bare_state", False), ("tiny_state", False), ("tiny_state", True)]

    def scorer_for(self, seq_scorer, state, drop_history, catalog, vocab):
        if not drop_history:
            return seq_scorer
        full = encode_pair(state, 1, catalog, vocab)
        scorer = SeqScorer(seq_scorer.config, params=seq_scorer.params, window=len(full.tokens) - 1)
        assert encode_pair(state, 1, catalog, vocab, scorer.window).action_span[0] < full.action_span[0]
        return scorer

    @pytest.mark.parametrize("state_name,drop_history", CASES)
    def test_grad_q_matches_the_tape(
        self, request, state_name, drop_history, seq_scorer, catalog, small_vocab
    ):
        state = request.getfixturevalue(state_name)
        scorer = self.scorer_for(seq_scorer, state, drop_history, catalog, small_vocab)
        for action in (1, 6):
            pv = {n: ad.Var(a) for n, a in scorer.params.items()}
            tape = tape_grads(ad.take_rows(tape_seq_q(scorer, state, catalog, small_vocab, pv), action - 1), pv)
            assert max_relative_error(scorer.grad_q(state, action, catalog, small_vocab), tape) < 1e-12

    @pytest.mark.parametrize("state_name,drop_history", CASES)
    def test_loss_and_grads_match_the_tape(
        self, request, state_name, drop_history, seq_scorer, bare_state, catalog, small_vocab
    ):
        state = request.getfixturevalue(state_name)
        scorer = self.scorer_for(seq_scorer, state, drop_history, catalog, small_vocab)
        other = dataclasses.replace(bare_state, query="What now?")
        items = [(state, 2, 0.5), (other, 3, 0.1), (state, 6, -0.5), (state, 2, -1.25)]
        loss, grads = scorer.loss_and_grads(items, catalog, small_vocab)
        tape_loss, tape = tape_loss_grads(tape_seq_q, scorer, items, catalog, small_vocab)
        assert loss == pytest.approx(tape_loss, rel=1e-12)
        assert max_relative_error(grads, tape) < 1e-12

    def test_peak_memory_does_not_grow_with_the_batch(self, catalog, small_vocab):
        states = [long_state(f"What should I do now, part {i}?") for i in range(4)]
        cfg = SeqConfig(vocab_size=small_vocab.size, d_model=64, n_heads=2, n_layers=2, n_ctx=1024)
        scorer = SeqScorer(cfg, seed=0, window=1024)
        assert min(len(encode_pair(s, 1, catalog, small_vocab, scorer.window).tokens) for s in states) >= 600

        def peak(items):
            tracemalloc.start()
            try:
                scorer.loss_and_grads(items, catalog, small_vocab)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        two = peak([(states[0], 1, 0.1), (states[1], 2, -0.2)])
        sixteen = peak([(states[i % 4], i % 8 + 1, 0.1 * i - 0.8) for i in range(16)])
        assert sixteen < 64 * 2**20
        assert sixteen < 1.3 * two


def test_seq_training_builds_no_tape(seq_scorer, tiny_state, catalog, small_vocab, monkeypatch):
    def no_tape(*args, **kwargs):
        raise AssertionError("a Var was created")

    monkeypatch.setattr(ad.Var, "__init__", no_tape)
    seq_scorer.grad_q(tiny_state, 3, catalog, small_vocab)
    seq_scorer.loss_and_grads([(tiny_state, 3, 0.5), (tiny_state, 1, -0.5)], catalog, small_vocab)


@pytest.mark.parametrize("fixture", ["seq_scorer", "mlp_scorer"])
def test_decisions_build_no_tape(request, fixture, tiny_state, catalog, small_vocab, monkeypatch):
    scorer = request.getfixturevalue(fixture)
    expected = scorer.q_all(tiny_state, catalog, small_vocab)

    def no_tape(*args, **kwargs):
        raise AssertionError("a Var was created")

    monkeypatch.setattr(ad.Var, "__init__", no_tape)
    np.testing.assert_array_equal(scorer.q_all(tiny_state, catalog, small_vocab), expected)
    assert scorer.q_value(tiny_state, 3, catalog, small_vocab) == pytest.approx(expected[2], abs=1e-12)


def random_code(length: int, vocab_size: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, vocab_size, length)


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRowTiles:
    """Attention in row tiles over the workspace against the dense full-square oracle."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("length", [1, 2, 63, 64, 65, 131, 600])
    def test_matches_the_dense_oracle(self, length, n_layers, catalog, small_vocab):
        cfg = SeqConfig(vocab_size=small_vocab.size, d_model=16, n_layers=n_layers, n_ctx=1024)
        scorer = SeqScorer(cfg, seed=5)
        tokens = random_code(length, cfg.vocab_size, seed=length)
        for n_rows in sorted({min(2, length), length}):
            np.testing.assert_allclose(
                scorer._hidden(tokens, scorer.params, n_rows),
                dense_hidden(scorer, tokens, n_rows),
                rtol=0,
                atol=1e-12,
            )
        if length >= 2:
            q = scorer.q_encoded([tokens], [0], catalog, small_vocab)[0]
            np.testing.assert_allclose(q, dense_seq_q(scorer, tokens, catalog, small_vocab), rtol=0, atol=1e-12)

    def test_one_tile_is_bit_identical_to_the_dense_oracle(self, small_vocab):
        # a single tile scores every key of every row, in the dense operation order
        cfg = SeqConfig(vocab_size=small_vocab.size, d_model=16, n_layers=2, n_ctx=1024)
        scorer = SeqScorer(cfg, seed=5)
        tokens = random_code(64, cfg.vocab_size)
        np.testing.assert_array_equal(scorer._hidden(tokens, scorer.params, 64), dense_hidden(scorer, tokens, 64))

    def test_float32_stays_float32_and_matches_the_dense_oracle(self, catalog, small_vocab):
        cfg = SeqConfig(vocab_size=small_vocab.size, d_model=16, n_layers=2, n_ctx=1024, dtype="float32")
        scorer = SeqScorer(cfg, seed=5)
        tokens = random_code(600, cfg.vocab_size)
        cache: list = []
        q = scorer._q(tokens, catalog, small_vocab, cache)
        assert q.dtype == np.float32
        arrays = [a for entry in cache for a in entry.values() if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
        arrays += [a for block in cache[1:-1] for a in block["att"]]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
        assert scorer._workspace.buffer.dtype == np.float32
        np.testing.assert_allclose(q, dense_seq_q(scorer, tokens, catalog, small_vocab), rtol=0, atol=1e-5)

    def test_gradients_match_the_tape_across_tiles(self, seq_scorer, catalog, small_vocab):
        state = long_state("What should I do?")
        state = dataclasses.replace(state, history=state.history[:8])
        assert len(seq_scorer.encode(state, catalog, small_vocab)) > 3 * 64
        pv = {n: ad.Var(a) for n, a in seq_scorer.params.items()}
        tape = tape_grads(ad.take_rows(tape_seq_q(seq_scorer, state, catalog, small_vocab, pv), 4), pv)
        assert max_relative_error(seq_scorer.grad_q(state, 5, catalog, small_vocab), tape) < 1e-12
        items = [(state, 2, 0.5), (state, 7, -0.25)]
        loss, grads = seq_scorer.loss_and_grads(items, catalog, small_vocab)
        tape_loss, tape = tape_loss_grads(tape_seq_q, seq_scorer, items, catalog, small_vocab)
        assert loss == pytest.approx(tape_loss, rel=1e-12)
        assert max_relative_error(grads, tape) < 1e-12

    def test_a_short_state_after_a_long_one_equals_a_fresh_scorer(self, seq_scorer, tiny_state, catalog, small_vocab):
        items = [(tiny_state, 3, 0.5), (tiny_state, 1, -0.5)]
        fresh = SeqScorer(seq_scorer.config, params=seq_scorer.params)
        fresh_q = fresh.q_all(tiny_state, catalog, small_vocab)
        fresh_loss, fresh_grads = fresh.loss_and_grads(items, catalog, small_vocab)
        long = long_state("What should I do?")
        seq_scorer.loss_and_grads([(long, 2, 0.1)], catalog, small_vocab)
        seq_scorer.q_all(long, catalog, small_vocab)
        np.testing.assert_array_equal(seq_scorer.q_all(tiny_state, catalog, small_vocab), fresh_q)
        seq_scorer.q_all(long, catalog, small_vocab)
        loss, grads = seq_scorer.loss_and_grads(items, catalog, small_vocab)
        assert loss == fresh_loss
        for name in grads:
            np.testing.assert_array_equal(grads[name], fresh_grads[name])

    def test_clones_share_the_workspace(self, seq_scorer):
        assert seq_scorer.clone()._workspace is seq_scorer._workspace

    def test_a_pass_between_forward_and_backward_raises(self, seq_scorer, tiny_state, bare_state, catalog, small_vocab):
        target = seq_scorer.clone()
        cache: list = []
        q = seq_scorer._q(seq_scorer.encode(tiny_state, catalog, small_vocab), catalog, small_vocab, cache)
        target.q_all(bare_state, catalog, small_vocab)
        with pytest.raises(RuntimeError):
            seq_scorer._backward(cache, np.ones_like(q), seq_scorer._zero_grads())

    def test_a_cache_serves_one_backward(self, seq_scorer, tiny_state, catalog, small_vocab):
        cache: list = []
        q = seq_scorer._q(seq_scorer.encode(tiny_state, catalog, small_vocab), catalog, small_vocab, cache)
        seq_scorer._backward(cache, np.ones_like(q), seq_scorer._zero_grads())
        with pytest.raises(RuntimeError):
            seq_scorer._backward(cache, np.ones_like(q), seq_scorer._zero_grads())

    def test_warm_training_pass_peaks_below_half_the_dense_forward(self, catalog, small_vocab):
        # no fresh score square per pass: the tiles live in the workspace the first pass
        # grew.  At d_model 16 the (T, d_model) activations are small beside a T x T square.
        state = long_state("What should I do now?")
        state = dataclasses.replace(state, history=state.history[:30])
        cfg = SeqConfig(vocab_size=small_vocab.size, d_model=16, n_heads=2, n_layers=2, n_ctx=1024)
        scorer = SeqScorer(cfg, seed=0, window=1024)
        tokens = scorer.encode(state, catalog, small_vocab)
        assert 550 <= len(tokens) <= 700
        items = [(state, 2, 0.3), (state, 5, -0.4)]
        scorer.loss_and_grads(items, catalog, small_vocab)
        warm = peak_bytes(lambda: scorer.loss_and_grads(items, catalog, small_vocab))
        dense = peak_bytes(lambda: dense_hidden(scorer, tokens, 2, cache=[]))
        assert warm < 0.5 * dense
