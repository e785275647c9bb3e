from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from supportq.core import DialogueState, Emotion, Transition, derive_transitions
from supportq.encoding import build_vocab, render_mcq
from supportq.env import StagedEnv, StagedEnvConfig, collect_transitions, value_iteration
from supportq.qnet import MlpConfig, MlpScorer, SeqConfig, SeqScorer, extract_features
from supportq.rewards import imitation_rewards
from supportq.training import (
    Adam,
    InsufficientData,
    MissingNextState,
    TrainerConfig,
    clip_global_norm,
    compute_targets,
    encode_transitions,
    fit,
    sync_target,
    td_target,
    train_step,
)

from .conftest import fd_gradient, rel_error
from .oracles import per_step_fit


class FixedScorer:
    """Stub whose Q(s, .) is a constant vector (for target arithmetic tests)."""

    backend = "mlp"

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def q_all(self, state, catalog, vocab):
        return self.values

    def encode(self, state, catalog, vocab):
        return np.frombuffer(state.query.encode(), dtype=np.uint8)

    def q_encoded(self, table, rows, catalog, vocab):
        return np.tile(self.values, (len(rows), 1))


class RecordingScorer:
    """Stub that records every target it is trained on; its parameter never moves."""

    default_learning_rate = 1e-3

    def __init__(self):
        self.params = {"w": np.zeros(1)}
        self.seen: list[float] = []

    def clone(self):
        return RecordingScorer()

    def state_dict(self):
        return self.params

    def load_state_dict(self, params):
        pass

    def encode(self, state, catalog, vocab):
        return np.zeros(1)

    def loss_and_grads_encoded(self, table, rows, actions, targets, catalog, vocab=None):
        self.seen.extend(float(t) for t in targets)
        return 0.0, {"w": np.zeros(1)}


def make_transition(state, action=1, reward=1.0, next_state=None, terminal=True):
    return Transition(
        state=state, action=action, reward=reward, next_state=next_state, terminal=terminal
    )


class TestTdTarget:
    def test_terminal_returns_reward(self, bare_state, catalog):
        assert td_target(-1.0, None, True, FixedScorer([9.9]), catalog, None, 0.85) == -1.0

    def test_bellman_arithmetic(self, bare_state, catalog):
        target = td_target(
            1.0, bare_state, False, FixedScorer([0.3, 2.0, -1.0]), catalog, None, 0.85
        )
        assert target == pytest.approx(1.0 + 0.85 * 2.0)

    def test_gamma_zero_ignores_next_state(self, bare_state, catalog):
        target = td_target(0.7, bare_state, False, FixedScorer([5.0]), catalog, None, 0.0)
        assert target == 0.7

    def test_missing_next_state(self, catalog):
        with pytest.raises(MissingNextState):
            td_target(1.0, None, False, FixedScorer([0.0]), catalog, None, 0.85)


class TestSyncTarget:
    def test_outputs_equal_after_sync(self, mlp_scorer, tiny_state, catalog):
        target = MlpScorer(mlp_scorer.config, seed=99)
        sync_target(mlp_scorer, target)
        np.testing.assert_array_equal(
            target.q_all(tiny_state, catalog), mlp_scorer.q_all(tiny_state, catalog)
        )

    def test_later_updates_do_not_leak(self, mlp_scorer, tiny_state, catalog):
        target = mlp_scorer.clone()
        sync_target(mlp_scorer, target)
        before = target.q_all(tiny_state, catalog).copy()
        mlp_scorer.params["layers.0.w"][:] += 0.5
        np.testing.assert_array_equal(target.q_all(tiny_state, catalog), before)

    def test_sync_is_idempotent(self, mlp_scorer, tiny_state, catalog):
        target = mlp_scorer.clone()
        sync_target(mlp_scorer, target)
        once = target.q_all(tiny_state, catalog).copy()
        sync_target(mlp_scorer, target)
        np.testing.assert_array_equal(target.q_all(tiny_state, catalog), once)


def states_with_distinct_queries(n):
    return [
        DialogueState("case", Emotion("anxiety"), (), f"question variant {i} please?")
        for i in range(n)
    ]


class TestTrainStep:
    def test_zero_loss_zero_gradient_when_targets_met(self, catalog):
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=1)
        states = states_with_distinct_queries(4)
        batch = [
            make_transition(s, action=2, reward=scorer.q_value(s, 2, catalog)) for s in states
        ]
        cfg = TrainerConfig(gamma=0.0, seed=0)
        targets = compute_targets(batch, scorer.clone(), catalog, None, 0.0)
        items = [(t.state, t.action, float(x)) for t, x in zip(batch, targets)]
        loss, grads = scorer.loss_and_grads(items, catalog)
        assert loss == pytest.approx(0.0, abs=1e-24)
        for g in grads.values():
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_loss_gradient_matches_finite_difference(self, catalog, bare_state):
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=2)
        target = scorer.clone()
        target.params["layers.0.w"][:] *= 1.1  # make phi differ from theta
        nxt = dataclasses.replace(bare_state, query="and what comes after that?")
        batch = [
            Transition(state=bare_state, action=3, reward=1.0, next_state=nxt, terminal=False)
        ]
        cfg = TrainerConfig(gamma=0.85, seed=0)
        targets = compute_targets(batch, target, catalog, None, cfg.gamma)

        def loss_fn():
            q = scorer.q_value(bare_state, 3, catalog)
            return (targets[0] - q) ** 2

        _, grads = scorer.loss_and_grads([(bare_state, 3, float(targets[0]))], catalog)
        rng = np.random.default_rng(0)
        names = sorted(grads)
        for _ in range(80):
            name = names[int(rng.integers(len(names)))]
            arr = scorer.params[name]
            idx = tuple(int(rng.integers(d)) for d in arr.shape)
            fd = fd_gradient(loss_fn, arr, idx)
            assert rel_error(fd, float(grads[name][idx])) <= 1e-6

    def test_duplicating_batch_leaves_mean_loss_unchanged(self, catalog):
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=3)
        states = states_with_distinct_queries(3)
        batch = [make_transition(s, action=1, reward=0.5) for s in states]
        cfg = TrainerConfig(gamma=0.0, seed=0)
        opt = Adam(lr=0.0)  # measure the loss without moving parameters
        loss_once, _ = train_step(scorer, scorer.clone(), batch, cfg, catalog, None, opt)
        loss_twice, _ = train_step(scorer, scorer.clone(), batch + batch, cfg, catalog, None, opt)
        assert loss_once == pytest.approx(loss_twice, abs=1e-15)

    def test_phi_perturbation_changes_loss_but_not_gradient_path(self, catalog, bare_state):
        # acceptance-style stop-gradient check at the unit level
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=4)
        phi_a = scorer.clone()
        phi_b = scorer.clone()
        phi_b.params["layers.1.w"][:] += 0.3
        nxt = dataclasses.replace(bare_state, query="next please?")
        batch = [Transition(state=bare_state, action=2, reward=0.2, next_state=nxt, terminal=False)]
        for phi in (phi_a, phi_b):
            targets = compute_targets(batch, phi, catalog, None, 0.85)
            loss, grads = scorer.loss_and_grads(
                [(bare_state, 2, float(targets[0]))], catalog
            )
            # explicit stop-gradient reference: d/dtheta (t - q)^2 = -2 (t - q) dq
            q = scorer.q_value(bare_state, 2, catalog)
            gq = scorer.grad_q(bare_state, 2, catalog)
            for name in grads:
                ref = -2.0 * (targets[0] - q) * gq[name]
                np.testing.assert_allclose(grads[name], ref, atol=1e-12)
        ta = compute_targets(batch, phi_a, catalog, None, 0.85)[0]
        tb = compute_targets(batch, phi_b, catalog, None, 0.85)[0]
        assert ta != tb

    def test_sibling_targets_share_one_q_all(self, catalog, bare_state, tiny_state):
        class CountingScorer(FixedScorer):
            calls = 0

            def encode(self, state, catalog, vocab):
                self.calls += 1
                return super().encode(state, catalog, vocab)

        nexts = [dataclasses.replace(bare_state, query=f"next {i}?") for i in range(2)]
        base = [Transition(state=tiny_state, action=1, next_state=n, terminal=False) for n in nexts]
        batch = imitation_rewards(base, catalog, seed=0)
        assert [tr.reward for tr in batch] == [1.0, -1.0, 1.0, -1.0]
        assert batch[0].next_state is batch[1].next_state
        scorer = CountingScorer([0.5, 2.0])
        targets = compute_targets(batch, scorer, catalog, None, 0.5)
        assert scorer.calls == 2
        np.testing.assert_array_equal(targets, [2.0, 0.0, 2.0, 0.0])

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([0.0])}
        norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert total == pytest.approx(1.0)


class TestFit:
    def test_same_seed_bitwise_identical_losses(self, catalog):
        def run():
            env = StagedEnv(StagedEnvConfig(seed=6), catalog=catalog)
            scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
            cfg = TrainerConfig(gamma=0.85, seed=0, epochs=1)
            return fit(collect_transitions(env, 30, seed=0), scorer, catalog, None, cfg).losses

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_insufficient_data(self, catalog, bare_state):
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
        cfg = TrainerConfig(batch_size=64, seed=0)
        with pytest.raises(InsufficientData):
            fit([make_transition(bare_state)] * 5, scorer, catalog, None, cfg)

    def test_in_order_sweep_reaches_every_transition_of_a_large_set(self, catalog, bare_state):
        # more than 12,000 transitions: none may be dropped before training
        n = 12_001
        transitions = [make_transition(bare_state, reward=float(i)) for i in range(n)]
        scorer = RecordingScorer()
        cfg = TrainerConfig(batch_size=n, epochs=1, sample_in_order=True)
        fit(transitions, scorer, catalog, None, cfg)
        assert scorer.seen == [float(i) for i in range(n)]

    def test_unset_rewards_rejected(self, catalog, bare_state):
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
        cfg = TrainerConfig(batch_size=2, seed=0)
        bad = [Transition(state=bare_state, action=1, terminal=True) for _ in range(4)]
        with pytest.raises(ValueError):
            fit(bad, scorer, catalog, None, cfg)

    def test_gamma_zero_imitation_reaches_training_accuracy_one(self):
        # with two strategies the sampled negative covers the whole non-gold
        # action set, so fitting Q onto {+1, -1} pins the greedy policy exactly
        from supportq.core import Stage, Strategy, StrategyCatalog
        from supportq.qnet import FeatureConfig, extract_features

        two = StrategyCatalog(
            (Strategy(1, "probe", "P", Stage.I), Strategy(2, "advise", "A", Stage.III))
        )
        emotions = ("anger", "anxiety", "depression", "fear")
        states = [
            DialogueState(
                "case",
                Emotion(emotions[i % 4]),
                (),
                f"topic{i} problem{i} detail{i} question?",
            )
            for i in range(16)
        ]
        fc = FeatureConfig()
        rows = {tuple(extract_features(s, two, fc)) for s in states}
        assert len(rows) == len(states)  # separable: no feature collisions
        rng = np.random.default_rng(5)
        gold = {s.query: int(rng.integers(1, 3)) for s in states}
        base = [make_transition(s, action=gold[s.query], reward=None) for s in states]
        rewarded = imitation_rewards(base, two, seed=0)
        scorer = MlpScorer(MlpConfig(n_actions=2, hidden=(64, 64)), seed=0)
        cfg = TrainerConfig(
            gamma=0.0,
            seed=0,
            batch_size=len(rewarded),
            epochs=300,
            learning_rate=3e-3,
            sample_in_order=True,
        )
        log = fit(rewarded, scorer, two, None, cfg)
        assert log.losses[-1] < 1e-3
        hits = sum(scorer.select_strategy(s, two) == gold[s.query] for s in states)
        assert hits == len(states)

    def test_sync_events_logged_at_configured_cadence(self, catalog):
        env = StagedEnv(StagedEnvConfig(seed=6), catalog=catalog)
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
        cfg = TrainerConfig(gamma=0.85, seed=0, epochs=1, target_sync_every=3)
        log = fit(collect_transitions(env, 40, seed=0), scorer, catalog, None, cfg)
        synced_steps = [r.step for r in log.records if r.synced]
        assert synced_steps == [s for s in range(len(log)) if (s + 1) % 3 == 0]

    def test_in_order_sweep_mode(self, catalog):
        env = StagedEnv(StagedEnvConfig(seed=6), catalog=catalog)
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
        cfg = TrainerConfig(gamma=0.85, seed=0, epochs=2, sample_in_order=True)
        log = fit(collect_transitions(env, 40, seed=0), scorer, catalog, None, cfg)
        assert len(log) == 2 * (40 * 8 // 64)

    def test_toy_horizon_two_env_reaches_oracle_policy(self, catalog):
        config = StagedEnvConfig(horizon=2, seed=1)
        env = StagedEnv(config, catalog=catalog)
        mdp = env.to_tabular()
        oracle = value_iteration(mdp, gamma=0.85)
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
        cfg = TrainerConfig(gamma=0.85, seed=0, epochs=25, learning_rate=3e-3)
        env2 = StagedEnv(config, catalog=catalog)
        transitions, latents = collect_transitions(env2, 400, seed=0, with_latents=True)
        fit(transitions, scorer, catalog, None, cfg)
        visited = {}
        for (lat, _), tr in zip(latents, transitions):
            visited.setdefault(lat, tr.state)
        agree = sum(
            scorer.select_strategy(s, catalog) == oracle.policy[mdp.index_of(lat)]
            for lat, s in visited.items()
        )
        assert agree == len(visited)

    def test_fit_extracts_features_once_per_state_object(self, catalog, monkeypatch):
        env = StagedEnv(StagedEnvConfig(seed=6), catalog=catalog)
        transitions = collect_transitions(env, 40, seed=0)
        objects = {id(tr.state) for tr in transitions}
        objects |= {id(tr.next_state) for tr in transitions if not tr.terminal}
        calls = []

        def counted(state, *args):
            calls.append(id(state))
            return extract_features(state, *args)

        monkeypatch.setattr("supportq.qnet.mlp.extract_features", counted)
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
        fit(transitions, scorer, catalog, None, TrainerConfig(gamma=0.85, seed=0, epochs=2))
        assert len(calls) == len(objects)
        assert set(calls) == objects

    def test_fit_step_is_train_step_bit_for_bit(self, catalog):
        # the batch is a reversed slice: its rows in fit's table of every
        # transition differ from those in train_step's table of the batch
        env = StagedEnv(StagedEnvConfig(seed=6), catalog=catalog)
        transitions = collect_transitions(env, 40, seed=0)[::-1]
        cfg = TrainerConfig(gamma=0.85, seed=0, epochs=1, batch_size=200, sample_in_order=True)
        fitted = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
        stepped = fitted.clone()
        log = fit(transitions, fitted, catalog, None, cfg)
        assert len(log) == 1
        optimizer = Adam(stepped.default_learning_rate)
        loss, mean_target = train_step(
            stepped, stepped.clone(), transitions[:200], cfg, catalog, None, optimizer
        )
        assert (log.records[0].loss, log.records[0].mean_target) == (loss, mean_target)
        for name, value in fitted.params.items():
            np.testing.assert_array_equal(value, stepped.params[name])

    def test_log_csv_round_trip(self, catalog, tmp_path):
        env = StagedEnv(StagedEnvConfig(seed=6), catalog=catalog)
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
        cfg = TrainerConfig(gamma=0.85, seed=0, epochs=1)
        log = fit(collect_transitions(env, 30, seed=0), scorer, catalog, None, cfg)
        path = tmp_path / "loss.csv"
        log.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,mean_target,synced"
        assert len(lines) == len(log) + 1
        assert float(lines[1].split(",")[1]) == log.records[0].loss


def env_transitions(catalog):
    """320 env-rewarded transitions, 40 of them terminal."""
    return collect_transitions(StagedEnv(StagedEnvConfig(seed=6), catalog=catalog), 40, seed=0)


def imitation_transitions(catalog, n_episodes=20):
    """Imitation items of demonstrated episodes: +1/-1 siblings share a next state."""
    env = StagedEnv(StagedEnvConfig(seed=6), catalog=catalog)
    base = [tr for ep in env.demo_episodes(n_episodes, seed=0) for tr in derive_transitions(ep)]
    return imitation_rewards(base, catalog, seed=0)


def one_next_state_transitions(catalog):
    """Env transitions whose non-terminal ones all lead to one next state."""
    transitions = env_transitions(catalog)
    shared = next(tr.next_state for tr in transitions if not tr.terminal)
    return [tr if tr.terminal else dataclasses.replace(tr, next_state=shared) for tr in transitions]


def assert_fit_is_per_step_fit(transitions, scorer, catalog, vocab, cfg):
    stepped = scorer.clone()
    log = fit(transitions, scorer, catalog, vocab, cfg)
    reference = per_step_fit(transitions, stepped, catalog, vocab, cfg)
    assert log.records == reference.records  # losses, mean targets, sync flags, bit for bit
    for name, value in scorer.params.items():
        np.testing.assert_array_equal(value, stepped.params[name])


class TestFitEqualsPerStepFit:
    @pytest.mark.parametrize("data", [env_transitions, imitation_transitions])
    @pytest.mark.parametrize(
        "batch_size, in_order, sync_every, gamma",
        list(itertools.product([1, 64], [False, True], [1, 3, 10, 10_000], [0.0, 0.85])),
    )
    def test_mlp(self, catalog, data, batch_size, in_order, sync_every, gamma):
        cfg = TrainerConfig(
            gamma=gamma,
            batch_size=batch_size,
            epochs=1 if batch_size == 1 else 5,
            target_sync_every=sync_every,
            sample_in_order=in_order,
            seed=2,
        )
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
        assert_fit_is_per_step_fit(data(catalog), scorer, catalog, None, cfg)

    @pytest.mark.parametrize("in_order", [False, True])
    def test_mlp_windows_with_one_live_next_state(self, catalog, in_order):
        transitions = one_next_state_transitions(catalog)
        cfg = TrainerConfig(epochs=3, sample_in_order=in_order, seed=1)
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
        assert_fit_is_per_step_fit(transitions, scorer, catalog, None, cfg)

    def test_seq_on_imitation_items(self, catalog):
        transitions = imitation_transitions(catalog, n_episodes=1)[:12]
        vocab = build_vocab([render_mcq(tr.state, catalog) for tr in transitions], 600)
        scorer = SeqScorer(SeqConfig(vocab_size=vocab.size, d_model=16, n_layers=1, n_ctx=1024), seed=0)
        cfg = TrainerConfig(batch_size=4, epochs=1, target_sync_every=2, seed=0)
        assert_fit_is_per_step_fit(transitions, scorer, catalog, vocab, cfg)


class TestFitTargetWork:
    @pytest.mark.parametrize(
        "data, batch_size",
        [(env_transitions, 2), (env_transitions, 3), (env_transitions, 7), (env_transitions, 64),
         (one_next_state_transitions, 64)],
    )
    def test_each_window_scores_each_distinct_live_next_row_once(self, catalog, monkeypatch, data, batch_size):
        transitions = data(catalog)
        cfg = TrainerConfig(batch_size=batch_size, epochs=2, seed=4)
        events: list = []
        score, sync = MlpScorer.q_encoded, sync_target

        def recorded(self, table, rows, catalog, vocab=None):
            events.append(list(rows))
            return score(self, table, rows, catalog, vocab)

        def marked(scorer, target):
            events.append("sync")
            sync(scorer, target)

        monkeypatch.setattr(MlpScorer, "q_encoded", recorded)  # the class: the target clone is counted too
        monkeypatch.setattr("supportq.training.sync_target", marked)
        scorer = MlpScorer(MlpConfig(n_actions=len(catalog)), seed=0)
        log = fit(transitions, scorer, catalog, None, cfg)

        encoded = encode_transitions(transitions, scorer, catalog, None, cfg.gamma)
        rng = np.random.default_rng(cfg.seed + 1)
        n_steps = len(log)
        calls = [list(group) for sync, group in itertools.groupby(events, lambda e: e == "sync") if not sync]
        assert len(calls) == -(-n_steps // cfg.target_sync_every)
        for first, window_calls in zip(range(0, n_steps, cfg.target_sync_every), calls):
            steps = min(cfg.target_sync_every, n_steps - first)
            picks = np.concatenate([rng.integers(0, len(transitions), size=batch_size) for _ in range(steps)])
            live = encoded.next[picks][encoded.next[picks] >= 0]
            assert all(len(set(rows)) == len(rows) for rows in window_calls)  # no call repeats a row
            scored = [row for rows in window_calls for row in rows]
            assert sorted(scored) == sorted(set(live.tolist()))  # every distinct live next row, exactly once
            assert all(1 <= len(rows) <= batch_size for rows in window_calls)
