from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supportq.autodiff as ad
from supportq.core import DialogueState, Emotion, Speaker, Turn
from supportq.env import STAGE_QUERIES, StagedEnv, StagedEnvConfig, collect_transitions
from supportq.qnet import (
    FeatureConfig,
    MlpConfig,
    MlpScorer,
    extract_features,
    feature_dim,
    load_scorer,
    save_scorer,
)
from supportq.qnet.base import encode_states
from supportq.qnet.mlp import _simulator_bags
from supportq.training import compute_targets, td_target

from .conftest import fd_gradient, rel_error
from .oracles import (
    feature_block,
    max_relative_error,
    per_word_features,
    row_scatter_backward,
    tape_grads,
    tape_loss_grads,
    tape_mlp_q,
)


class TestFeatures:
    def test_identical_inputs_identical_vectors(self, tiny_state, catalog):
        fc = FeatureConfig()
        a = extract_features(tiny_state, catalog, fc)
        b = extract_features(tiny_state, catalog, fc)
        np.testing.assert_array_equal(a, b)

    def test_query_change_touches_only_hash_block(self, tiny_state, catalog):
        fc = FeatureConfig()
        a = extract_features(tiny_state, catalog, fc)
        b = extract_features(
            dataclasses.replace(tiny_state, query="A completely different question?"),
            catalog,
            fc,
        )
        head = feature_dim(fc, len(catalog)) - fc.hash_dim
        np.testing.assert_array_equal(a[:head], b[:head])
        assert not np.array_equal(a[head:], b[head:])

    def test_dimension_formula(self, tiny_state, catalog):
        fc = FeatureConfig(hash_dim=16)
        expected = len(fc.emotions) + len(catalog) + 5 + len(fc.history_bucket_edges) + 1 + 16
        assert feature_dim(fc, len(catalog)) == expected
        assert extract_features(tiny_state, catalog, fc).shape == (expected,)

    def test_blocks_encode_the_right_things(self, catalog):
        fc = FeatureConfig()
        state = DialogueState(
            "d",
            Emotion("sadness"),
            (
                Turn(Speaker.SEEKER, "hello"),
                Turn(Speaker.SUPPORTER, "hi", strategy=5),  # stage III
            ),
            "what now?",
        )
        vec = feature_block(state, catalog, fc)[1]
        e = len(fc.emotions)
        assert vec[fc.emotions.index("sadness")] == 1.0
        assert vec[e + 1] == 1.0  # action 2 one-hot
        assert vec[e + len(catalog) + 3] == 1.0  # last-strategy stage III slot
        no_history = DialogueState("d", Emotion("sadness"), (), "what now?")
        vec0 = extract_features(no_history, catalog, fc)
        assert vec0[e + len(catalog) + 0] == 1.0  # "nothing yet" slot

    def test_unknown_emotion_gives_empty_block(self, catalog):
        fc = FeatureConfig()
        state = DialogueState("d", Emotion("boredom"), (), "q?")
        vec = extract_features(state, catalog, fc)
        assert vec[: len(fc.emotions)].sum() == 0.0

    def test_rows_differ_only_in_the_action_one_hot(self, tiny_state, catalog):
        fc = FeatureConfig()
        block = feature_block(tiny_state, catalog, fc)
        k, e = len(catalog), len(fc.emotions)
        assert not extract_features(tiny_state, catalog, fc)[e : e + k].any()
        np.testing.assert_array_equal(block[:, e : e + k], np.eye(k))
        rest = np.delete(block, np.s_[e : e + k], axis=1)
        np.testing.assert_array_equal(rest, np.repeat(rest[:1], k, axis=0))


# mixed case, Unicode whose lower() changes length (İ), and the whitespace str.split breaks on
WORDS = st.sampled_from(["I", "feel", "FEEL", "Feel", "stuck", "Ünïcode", "İstanbul", "straße", "ΣΟΦΊΑ", "?", "a"])
GAPS = st.sampled_from([" ", "  ", "\t", "\n", "\xa0", "\x85", "\u2003", " \xa0\x85 "])
HASH_DIMS = (FeatureConfig().hash_dim, 16)  # the default and the one other width the tests build
SIMULATOR_QUERIES = [query for pool in STAGE_QUERIES.values() for query in pool]


@st.composite
def queries(draw):
    words = draw(st.lists(WORDS, min_size=1, max_size=12))
    words += draw(st.lists(st.sampled_from(words), max_size=4))  # repeated words
    gaps = draw(st.lists(GAPS, min_size=len(words) + 1, max_size=len(words) + 1))
    return "".join(g + w for g, w in zip(gaps, words)) + gaps[-1]


class TestWordBag:
    """The list-counted word bag, and the simulator's bags built once, against the per-word loop."""

    @settings(max_examples=150, deadline=None)
    @given(query=queries())
    def test_rows_equal_the_per_word_loop(self, query, catalog):
        history = (Turn(Speaker.SEEKER, "I feel stuck."), Turn(Speaker.SUPPORTER, "Go on.", strategy=3))
        state = DialogueState("d", Emotion("Anxiety", 4), history, query)
        for hash_dim in HASH_DIMS:
            fc = FeatureConfig(hash_dim=hash_dim)
            got, want = extract_features(state, catalog, fc), per_word_features(state, catalog, fc)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("query", SIMULATOR_QUERIES)
    def test_simulator_rows_equal_the_per_word_loop(self, query, tiny_state, catalog):
        state = dataclasses.replace(tiny_state, query=query)
        for hash_dim in HASH_DIMS:
            fc = FeatureConfig(hash_dim=hash_dim)
            assert query in _simulator_bags(hash_dim)
            got, want = extract_features(state, catalog, fc), per_word_features(state, catalog, fc)
            assert got.tobytes() == want.tobytes()

    def test_whitespace_only_query_gives_an_empty_bag(self, tiny_state, catalog):
        state = dataclasses.replace(tiny_state, query=" \xa0\x85\t")
        fc = FeatureConfig()
        assert not extract_features(state, catalog, fc)[-fc.hash_dim :].any()
        assert extract_features(state, catalog, fc).tobytes() == per_word_features(state, catalog, fc).tobytes()

    def test_simulator_bags_are_read_only(self):
        bag = _simulator_bags(32)[SIMULATOR_QUERIES[0]]
        with pytest.raises(ValueError):
            bag[0] = 5.0
        with pytest.raises(ValueError):
            bag += 1.0

    @pytest.mark.parametrize("query", [SIMULATOR_QUERIES[0], "a query the simulator never asks"])
    def test_a_returned_row_is_the_callers_own(self, query, tiny_state, catalog):
        state = dataclasses.replace(tiny_state, query=query)
        fc = FeatureConfig()
        first = extract_features(state, catalog, fc)
        want = first.copy()
        first[:] = -7.0
        np.testing.assert_array_equal(extract_features(state, catalog, fc), want)
        np.testing.assert_array_equal(extract_features(state, catalog, fc), per_word_features(state, catalog, fc))


class TestScorer:
    def test_q_all_matches_single_calls(self, mlp_scorer, tiny_state, catalog):
        qs = mlp_scorer.q_all(tiny_state, catalog)
        singles = [mlp_scorer.q_value(tiny_state, a, catalog) for a in catalog.ids]
        np.testing.assert_array_equal(qs, singles)

    def test_q_all_extracts_features_once(self, mlp_scorer, tiny_state, catalog, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return extract_features(*args)

        monkeypatch.setattr("supportq.qnet.mlp.extract_features", counted)
        mlp_scorer.q_all(tiny_state, catalog)
        assert len(calls) == 1

    def test_select_is_argmax(self, mlp_scorer, tiny_state, catalog):
        qs = mlp_scorer.q_all(tiny_state, catalog)
        assert mlp_scorer.select_strategy(tiny_state, catalog) == int(np.argmax(qs)) + 1

    def test_grad_matches_finite_differences(self, mlp_scorer, tiny_state, catalog):
        grads = mlp_scorer.grad_q(tiny_state, 3, catalog)
        rng = np.random.default_rng(1)
        names = sorted(grads)
        failures = 0
        for _ in range(200):
            name = names[int(rng.integers(len(names)))]
            arr = mlp_scorer.params[name]
            idx = tuple(int(rng.integers(d)) for d in arr.shape)
            fd = fd_gradient(lambda: mlp_scorer.q_value(tiny_state, 3, catalog), arr, idx)
            if rel_error(fd, float(grads[name][idx])) > 1e-6:
                failures += 1
        assert failures == 0

    def test_loss_and_grads_matches_finite_differences(self, mlp_scorer, tiny_state, catalog):
        items = [(tiny_state, 3, 0.7), (tiny_state, 5, -0.2)]
        loss, grads = mlp_scorer.loss_and_grads(items, catalog)

        def loss_fn():
            total = 0.0
            for s, a, t in items:
                total += (mlp_scorer.q_value(s, a, catalog) - t) ** 2
            return total / len(items)

        assert loss == pytest.approx(loss_fn(), abs=1e-12)
        rng = np.random.default_rng(2)
        names = sorted(grads)
        for _ in range(60):
            name = names[int(rng.integers(len(names)))]
            arr = mlp_scorer.params[name]
            idx = tuple(int(rng.integers(d)) for d in arr.shape)
            fd = fd_gradient(loss_fn, arr, idx)
            assert rel_error(fd, float(grads[name][idx])) <= 1e-6

    def test_round_trip_bit_exact(self, mlp_scorer, tiny_state, catalog, tmp_path):
        save_scorer(tmp_path / "m.npz", mlp_scorer)
        loaded, _ = load_scorer(tmp_path / "m.npz")
        np.testing.assert_array_equal(
            loaded.q_all(tiny_state, catalog), mlp_scorer.q_all(tiny_state, catalog)
        )

    def test_config_shape_validation(self, catalog):
        cfg = MlpConfig(n_actions=len(catalog))
        good = MlpScorer(cfg, seed=0)
        bad = {n: a.copy() for n, a in good.params.items()}
        bad["layers.0.w"] = bad["layers.0.w"][:, :-1]
        with pytest.raises(ValueError):
            MlpScorer(cfg, params=bad)


class TestTapeOracle:
    """The split first layer and the hand-written backward against the net on
    the autodiff tape over the (K, F) one-hot block."""

    STATES = ["tiny_state", "bare_state"]

    @pytest.mark.parametrize("state_name", STATES)
    def test_q_all_matches_the_tape(self, request, state_name, mlp_scorer, catalog):
        state = request.getfixturevalue(state_name)
        pv = {n: ad.Var(a) for n, a in mlp_scorer.params.items()}
        tape = tape_mlp_q(mlp_scorer, state, catalog, None, pv).data
        assert np.abs(mlp_scorer.q_all(state, catalog) - tape).max() < 1e-12

    @pytest.mark.parametrize("state_name", STATES)
    def test_grad_q_matches_the_tape(self, request, state_name, mlp_scorer, catalog):
        state = request.getfixturevalue(state_name)
        for action in (1, 6):
            pv = {n: ad.Var(a) for n, a in mlp_scorer.params.items()}
            tape = tape_grads(ad.take_rows(tape_mlp_q(mlp_scorer, state, catalog, None, pv), action - 1), pv)
            assert max_relative_error(mlp_scorer.grad_q(state, action, catalog), tape) < 1e-12

    def test_loss_and_grads_match_the_tape(self, mlp_scorer, tiny_state, bare_state, catalog):
        other = dataclasses.replace(bare_state, query="What now?")
        items = [(tiny_state, 2, 0.5), (other, 3, 0.1), (tiny_state, 6, -0.5), (tiny_state, 2, -1.25)]
        loss, grads = mlp_scorer.loss_and_grads(items, catalog)
        tape_loss, tape = tape_loss_grads(tape_mlp_q, mlp_scorer, items, catalog, None)
        assert loss == pytest.approx(tape_loss, rel=1e-12)
        assert max_relative_error(grads, tape) < 1e-12

    def test_linear_net_matches_the_tape(self, tiny_state, catalog):
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog), hidden=()), seed=1)
        pv = {n: ad.Var(a) for n, a in scorer.params.items()}
        tape = tape_grads(ad.take_rows(tape_mlp_q(scorer, tiny_state, catalog, None, pv), 4), pv)
        assert max_relative_error(scorer.grad_q(tiny_state, 5, catalog), tape) < 1e-12


def test_equal_features_share_one_table_row(mlp_scorer, tiny_state, catalog):
    twin = dataclasses.replace(tiny_state, description="Another description entirely.")
    assert twin is not tiny_state and twin != tiny_state
    table, rows = encode_states(mlp_scorer, [tiny_state, twin, tiny_state], catalog, None)
    assert len(table) == 1
    np.testing.assert_array_equal(rows, [0, 0, 0])


@pytest.mark.parametrize("batch", [1, 2, 64, 200])
def test_backward_equals_the_row_scatter_bit_for_bit(mlp_scorer, catalog, batch):
    rng = np.random.default_rng(batch)
    width = mlp_scorer.params["layers.0.w"].shape[0]
    for trial in range(40):
        feats = rng.normal(size=(batch, width))
        actions = rng.integers(1, len(catalog) + 1, size=batch)
        if batch > 1 and trial % 2:
            actions[: batch // 2 + 1] = actions[0]  # repeated actions in every batch size
        scale = 10.0 ** rng.uniform(-8, 3)
        acts, q = mlp_scorer._forward(feats, actions)
        dq = rng.normal(size=q.shape) * scale
        got = mlp_scorer._backward(feats, actions, [a.copy() for a in acts], dq)
        want = row_scatter_backward(mlp_scorer, feats, actions, acts, dq)
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])


def tied_scorer(catalog):
    """An mlp whose Q(s, a) is one real number for every action a, so only
    rounding orders the actions: the state part and bias of the first layer
    and the rows of the second repeat with the period of one block of hidden
    units, and action a's first-layer row is action 1's rolled by a blocks."""
    scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
    p, k, rows = scorer.params, len(catalog), scorer._action_rows
    w0 = p["layers.0.w"]
    block = w0.shape[1] // k
    first = w0[rows.start].copy()
    w0[:] = np.tile(w0[:, :block], k)
    p["layers.0.b"][:] = np.tile(p["layers.0.b"][:block], k)
    p["layers.1.w"][:] = np.tile(p["layers.1.w"][:block], (k, 1))
    for a in range(k):
        w0[rows.start + a] = np.roll(first, a * block)
    return scorer


class TestOneQRowPerState:
    """Q(s, ·) from a one-state read equals s's row of any batched pass, bit
    for bit, over env rollout states and every canonical state."""

    @pytest.fixture(scope="class")
    def env_data(self, catalog):
        env = StagedEnv(StagedEnvConfig(seed=6), catalog=catalog)
        transitions = collect_transitions(env, 40, seed=0)
        states = [tr.state for tr in transitions] + [tr.next_state for tr in transitions if not tr.terminal]
        canonical = [env.canonical_state(lat) for lat in env.to_tabular().latents]
        assert len(canonical) == 960
        return transitions, states + canonical

    def test_q_all_equals_the_full_table_row(self, catalog, env_data):
        _, states = env_data
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
        table, rows = encode_states(scorer, states, catalog, None)
        q = scorer.q_encoded(table, np.arange(len(table)), catalog)
        np.testing.assert_array_equal(np.array([scorer.q_all(s, catalog) for s in states]), q[rows])

    def test_select_strategy_equals_select_strategies_where_rounding_decides(self, catalog, env_data):
        _, states = env_data
        scorer = tied_scorer(catalog)
        picks = scorer.select_strategies(states, catalog)
        assert len(set(picks)) > 1  # the ties do not all fall to the smallest id
        assert picks == [scorer.select_strategy(s, catalog) for s in states]

    def test_td_target_equals_the_batch_target(self, catalog, env_data):
        batch = env_data[0][:64]
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
        targets = compute_targets(batch, scorer, catalog, None, 0.85)
        singles = [td_target(tr.reward, tr.next_state, tr.terminal, scorer, catalog, None, 0.85) for tr in batch]
        np.testing.assert_array_equal(targets, singles)
