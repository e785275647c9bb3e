from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import supportq.autodiff as ad
from supportq.core import DialogueState, Emotion, Speaker, Turn
from supportq.qnet import (
    BackendMismatch,
    FeatureConfig,
    MlpConfig,
    MlpScorer,
    extract_features,
    feature_dim,
    load_scorer,
    save_scorer,
)
from supportq.qnet.base import encode_states

from .conftest import fd_gradient, rel_error
from .oracles import feature_block, max_relative_error, tape_grads, tape_loss_grads, tape_mlp_q


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


class TestScorer:
    def test_forward_is_backend_mismatch(self, mlp_scorer):
        with pytest.raises(BackendMismatch):
            mlp_scorer.forward(np.array([1, 2, 3]))

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
