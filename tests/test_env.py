from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from supportq.core import Stage, derive_transitions
from supportq.env import (
    ESCONV_EMOTION_COUNTS,
    EpisodeFinished,
    LatentState,
    StagedEnv,
    StagedEnvConfig,
    StateSpaceTooLarge,
    TabularMDP,
    collect_transitions,
    value_iteration,
)

from .oracles import ChoiceDrawEnv, oracle_finite_horizon_q


@pytest.fixture
def env(catalog):
    return StagedEnv(StagedEnvConfig(seed=5), catalog=catalog)


class TestReset:
    def test_fixed_seed_reproduces_opening(self, env):
        a = env.reset(seed=42)
        b = env.reset(seed=42)
        assert a == b
        assert env.latent == LatentState(0, 1, a.emotion.label, 0)

    def test_expected_stage_starts_at_one(self, env):
        env.reset(seed=0)
        assert env.latent.stage == 1
        assert env.latent.progress == 0

    def test_emotion_frequencies_match_weights(self, catalog):
        env = StagedEnv(StagedEnvConfig(seed=7), catalog=catalog)
        n = 100_000
        counts = {}
        for _ in range(n):
            state = env.reset()
            counts[state.emotion.label] = counts.get(state.emotion.label, 0) + 1
        total_weight = sum(w for _, w in ESCONV_EMOTION_COUNTS)
        for label, weight in ESCONV_EMOTION_COUNTS:
            assert counts.get(label, 0) / n == pytest.approx(weight / total_weight, abs=0.02)


class TestStep:
    def test_primary_matching_action_pays_one(self, env):
        env.reset(seed=1)
        assert env.latent.stage == 1
        _, reward, _ = env.step(1)  # Question: stage I primary
        assert reward == 1.0

    def test_secondary_matching_action_pays_effectiveness(self, env):
        env.reset(seed=1)
        _, reward, _ = env.step(2)  # Restatement: stage I secondary
        assert reward == env.config.secondary_effectiveness

    def test_regression_and_neutral_rewards(self, catalog):
        env = StagedEnv(StagedEnvConfig(seed=1, match_advance_prob=1.0), catalog=catalog)
        env.reset(seed=3)
        env.step(1)  # advances stage to II deterministically
        assert env.latent.stage == 2
        _, reward, _ = env.step(1)  # stage I action now regresses
        assert reward == env.config.regression_reward
        state, reward, _ = env.step(8)  # "Others" is neutral
        assert reward == env.config.neutral_reward

    def test_horizon_always_terminates(self, env):
        for seed in range(5):
            env.reset(seed=seed)
            steps = 0
            done = False
            while not done:
                _, _, done = env.step(1)
                steps += 1
            assert steps == env.config.horizon

    def test_step_after_done_raises(self, env):
        env.reset(seed=0)
        for _ in range(env.config.horizon):
            env.step(1)
        with pytest.raises(EpisodeFinished):
            env.step(1)

    def test_history_grows_by_one_exchange_per_step(self, env):
        state = env.reset(seed=9)
        assert state.history == ()
        state, _, _ = env.step(1)
        assert len(state.history) == 2
        assert state.history[-1].strategy == 1
        state, _, _ = env.step(3)
        assert len(state.history) == 4

    def test_seeded_trajectories_reproduce(self, catalog):
        def run():
            env = StagedEnv(StagedEnvConfig(seed=13), catalog=catalog)
            env.reset(seed=21)
            out = []
            done = False
            while not done:
                state, r, done = env.step(((len(out)) % 8) + 1)
                out.append((env.latent, r))
            return out

        assert run() == run()


class TestTabular:
    def test_row_sums_and_terminal_mass(self, env):
        mdp = env.to_tabular()
        sums = mdp.succ_p.sum(axis=-1)
        live = ~mdp.terminal
        np.testing.assert_allclose(sums[live], 1.0, atol=1e-12)
        assert np.all(sums[mdp.terminal] == 0.0)
        assert mdp.n_states == env.config.horizon * 3 * 8 * 5 + 1

    def test_state_cap(self, env):
        with pytest.raises(StateSpaceTooLarge):
            env.to_tabular(max_states=10)

    def test_monte_carlo_matches_model(self, catalog):
        # well-powered design: hammer the opening step with a fixed action and
        # compare the observed stage-advance frequency per emotion to the model
        env = StagedEnv(StagedEnvConfig(seed=3), catalog=catalog)
        mdp = env.to_tabular()
        rng = np.random.default_rng(1)
        tallies: dict = {}
        for action in (1, 8):  # matched primary (0.8) and unstaged (0.2)
            for _ in range(3000):
                env.reset(seed=int(rng.integers(2**31)))
                lat = env.latent
                env.step(action)
                key = (lat, action)
                tallies.setdefault(key, {})
                nxt = env.latent
                tallies[key][nxt] = tallies[key].get(nxt, 0) + 1
        checked = 0
        for (lat, action), outcome in tallies.items():
            n = sum(outcome.values())
            if n < 150:
                continue
            i = mdp.index_of(lat)
            for m in range(mdp.succ_p.shape[2]):
                p = mdp.succ_p[i, action - 1, m]
                if p <= 0:
                    continue
                nxt = mdp.latents[int(mdp.succ_idx[i, action - 1, m])]
                observed = outcome.get(nxt, 0) / n
                margin = 4 * np.sqrt(p * (1 - p) / n) + 1e-9
                assert abs(observed - p) <= margin
                checked += 1
        assert checked >= 10

    def test_chi_square_against_model(self, catalog):
        env = StagedEnv(StagedEnvConfig(seed=3), catalog=catalog)
        mdp = env.to_tabular()
        rng = np.random.default_rng(0)
        counts: dict = {}
        steps = 0
        while steps < 10_000:
            env.reset(seed=int(rng.integers(2**31)))
            done = False
            while not done:
                lat = env.latent
                action = int(rng.integers(1, 9))
                _, _, done = env.step(action)
                nxt = env.latent
                idx = mdp.index_of(lat)
                key = (idx, action)
                counts.setdefault(key, {})
                nxt_idx = mdp.terminal_index if done else mdp.index_of(nxt)
                counts[key][nxt_idx] = counts[key].get(nxt_idx, 0) + 1
                steps += 1
        stat = 0.0
        dof = 0
        for (idx, action), outcome in counts.items():
            n = sum(outcome.values())
            if n < 40:
                continue
            support = [
                (int(mdp.succ_idx[idx, action - 1, m]), mdp.succ_p[idx, action - 1, m])
                for m in range(mdp.succ_p.shape[2])
                if mdp.succ_p[idx, action - 1, m] > 0
            ]
            if len(support) < 2:
                continue
            observed = np.array([outcome.get(s, 0) for s, _ in support], dtype=float)
            expected = np.array([n * p for _, p in support])
            stat += float(((observed - expected) ** 2 / expected).sum())
            dof += len(support) - 1
        assert dof > 0
        p_value = stats.chi2.sf(stat, dof)
        assert p_value > 0.01

    def test_json_export_is_consistent(self, env, tmp_path):
        import json

        mdp = env.to_tabular()
        payload = mdp.to_json_dict()
        assert payload["n_states"] == mdp.n_states
        mass: dict = {}
        for s, a, _, p in payload["transitions"]:
            mass[(s, a)] = mass.get((s, a), 0.0) + p
        for (s, a), total in mass.items():
            assert total == pytest.approx(1.0, abs=1e-12)
        assert payload["terminal"] == [mdp.terminal_index]
        mdp.save_json(tmp_path / "mdp.json")
        assert json.loads((tmp_path / "mdp.json").read_text()) == json.loads(
            json.dumps(payload)
        )


class TestValueIteration:
    def test_absorbing_chain_geometric_value(self):
        # one live state with a self-loop paying 1 per step
        succ_idx = np.zeros((1, 1, 1), dtype=np.int64)
        succ_p = np.ones((1, 1, 1))
        rewards = np.ones((1, 1))
        mdp = TabularMDP(succ_idx, succ_p, rewards, terminal=np.array([False]))
        result = value_iteration(mdp, gamma=0.85, tol=1e-12)
        assert result.v[0] == pytest.approx(1.0 / 0.15, abs=1e-9)

    def test_gamma_zero_gives_rewards(self, env):
        mdp = env.to_tabular()
        result = value_iteration(mdp, gamma=0.0)
        np.testing.assert_allclose(result.q, mdp.rewards, atol=1e-15)

    def test_matches_backward_induction_oracle(self):
        rng = np.random.default_rng(4)
        n, k, m = 20, 3, 2
        succ_idx = rng.integers(0, n, size=(n, k, m))
        raw = rng.uniform(0.1, 1.0, size=(n, k, m))
        succ_p = raw / raw.sum(axis=-1, keepdims=True)
        rewards = rng.normal(size=(n, k))
        mdp = TabularMDP(succ_idx, succ_p, rewards, terminal=np.zeros(n, dtype=bool))
        gamma, tol, horizon = 0.85, 1e-10, 200
        result = value_iteration(mdp, gamma=gamma, tol=tol)
        oracle = np.array(oracle_finite_horizon_q(succ_idx, succ_p, rewards, gamma, horizon))
        # returned q is within tol of the fixed point and the oracle within
        # the horizon-truncation slack, so 2*tol covers both once the
        # truncation term is negligible
        truncation = gamma**horizon * np.abs(rewards).max() / (1 - gamma)
        assert truncation < tol
        assert np.abs(result.q - oracle).max() <= 2 * tol

    def test_bellman_residual_below_tol(self, env):
        mdp = env.to_tabular()
        tol = 1e-10
        result = value_iteration(mdp, gamma=0.85, tol=tol)
        v = result.q.max(axis=1)
        backup = mdp.rewards + 0.85 * (mdp.succ_p * v[mdp.succ_idx]).sum(axis=-1)
        assert np.abs(backup - result.q).max() < tol

    def test_optimal_policy_is_stage_progressive(self, env):
        mdp = env.to_tabular()
        result = value_iteration(mdp, gamma=0.85)
        for i, lat in enumerate(mdp.latents):
            action = int(result.policy[i])
            rank = env.catalog.stage_of(action).rank
            assert rank == lat.stage  # optimal action always matches the stage
        # stage matches never regress along any optimal trajectory because the
        # latent stage itself never decreases
        for i, lat in enumerate(mdp.latents):
            action = int(result.policy[i])
            rank = env.catalog.stage_of(action).rank
            for m in range(mdp.succ_p.shape[2]):
                if mdp.succ_p[i, action - 1, m] <= 0:
                    continue
                j = int(mdp.succ_idx[i, action - 1, m])
                if j == mdp.terminal_index:
                    continue
                next_rank = env.catalog.stage_of(int(result.policy[j])).rank
                assert next_rank >= rank

    def test_invalid_arguments(self, env):
        mdp = env.to_tabular()
        with pytest.raises(ValueError):
            value_iteration(mdp, gamma=1.0)
        with pytest.raises(ValueError):
            value_iteration(mdp, gamma=0.5, tol=0.0)


def test_judge_reward_source_matches_tabular_export(catalog):
    # rewards sampled while stepping equal the R table built from canonical
    # states, latent by latent
    config = StagedEnvConfig(seed=4, reward_source="judge")
    env = StagedEnv(config, catalog=catalog)
    mdp = env.to_tabular()
    rng = np.random.default_rng(0)
    for _ in range(40):
        env.reset(seed=int(rng.integers(2**31)))
        done = False
        while not done:
            lat = env.latent
            action = int(rng.integers(1, len(catalog) + 1))
            _, reward, done = env.step(action)
            assert reward == mdp.rewards[mdp.index_of(lat), action - 1]


def test_oracle_policy_beats_random_on_judge_reward(catalog):
    # the stage-tracking optimum earns a higher mean judge score than uniform
    # random play; checked empirically over 1000 episodes each
    from supportq.env import response_template
    from supportq.rewards import SyntheticJudge

    config = StagedEnvConfig(seed=2)
    mdp = StagedEnv(config, catalog=catalog).to_tabular()
    oracle = value_iteration(mdp, gamma=0.85)
    judge = SyntheticJudge(catalog=catalog, nominal_turns=config.horizon, seed=0)

    def mean_reward(policy, seed):
        env = StagedEnv(config, catalog=catalog)
        rng = np.random.default_rng(seed)
        scores = []
        for _ in range(1000):
            state = env.reset(seed=int(rng.integers(2**31)))
            done = False
            while not done:
                if policy is None:
                    action = int(rng.integers(1, len(catalog) + 1))
                else:
                    action = int(oracle.policy[mdp.index_of(env.latent)])
                response = response_template(catalog.by_id(action).name)
                scores.append(judge.score(state, action, response))
                state, _, done = env.step(action)
        return float(np.mean(scores))

    assert mean_reward(oracle, seed=1) >= mean_reward(None, seed=1)


class TestDemoEpisodes:
    def test_demos_are_valid_training_episodes(self, env):
        episodes = env.demo_episodes(5, seed=3)
        for ep in episodes:
            transitions = derive_transitions(ep)
            assert len(transitions) == env.config.horizon
            assert transitions[-1].terminal

    def test_demo_states_match_env_feature_inputs(self, env, catalog):
        # replaying a demo episode through build_state reproduces the exact
        # queries and history lengths the environment produced
        [episode] = env.demo_episodes(1, seed=8)
        transitions = derive_transitions(episode)
        for t, tr in enumerate(transitions):
            assert len(tr.state.history) == 2 * t

    def test_fidelity_one_always_matches_stage(self, catalog):
        env = StagedEnv(StagedEnvConfig(seed=2), catalog=catalog)
        episodes = env.demo_episodes(10, fidelity=1.0, seed=1)
        for ep in episodes:
            # recover stages by simulating expected-stage progression is not
            # possible from the episode alone; instead check all actions are staged
            for turn in ep.turns:
                if turn.strategy is not None:
                    assert catalog.stage_of(turn.strategy) is not Stage.NONE


DRAW_CONFIGS = {
    "default": {},
    "horizon2": {"horizon": 2},
    "match0": {"match_advance_prob": 0.0},
    "match1": {"match_advance_prob": 1.0},
    "mismatch_half": {"mismatch_advance_prob": 0.5},
    "zero_weights": {"emotion_weights": (("anger", 0.0), ("fear", 3.0), ("sadness", 0.0), ("shame", 1.0))},
    "judge": {"reward_source": "judge"},
}
DRAW_SEEDS = range(50)


class TestDrawsEqualChoiceOracle:
    """One uniform per draw gives the episodes `Generator.choice` gave."""

    @staticmethod
    def pair(name, seed, catalog):
        config = StagedEnvConfig(seed=seed, **DRAW_CONFIGS[name])
        return StagedEnv(config, catalog=catalog), ChoiceDrawEnv(config, catalog=catalog)

    @pytest.mark.parametrize("name", DRAW_CONFIGS)
    def test_reset_and_step(self, name, catalog):
        for seed in DRAW_SEEDS:
            env, oracle = self.pair(name, seed, catalog)
            rng = np.random.default_rng(seed)
            # seeded resets, then the environment's own stream
            for reset_seed in (seed, 2**31 - 1 - seed, None, None):
                state = env.reset(seed=reset_seed)
                assert state == oracle.reset(seed=reset_seed)
                assert env.latent == oracle.latent
                done = False
                while not done:
                    action = int(rng.integers(1, len(catalog) + 1))
                    state, reward, done = env.step(action)
                    assert (state, reward, done) == oracle.step(action)
                    assert env.latent == oracle.latent
                    assert env.last_response == oracle.last_response
                    assert env.state() is state
                    assert env.done == oracle.done

    @pytest.mark.parametrize("name", DRAW_CONFIGS)
    def test_demo_episodes(self, name, catalog):
        for seed in DRAW_SEEDS:
            env, oracle = self.pair(name, seed, catalog)
            assert env.demo_episodes(4, seed=seed) == oracle.demo_episodes(4, seed=seed)
            assert env.demo_episodes(2, fidelity=1.0, seed=seed) == oracle.demo_episodes(2, fidelity=1.0, seed=seed)

    @pytest.mark.parametrize("name", DRAW_CONFIGS)
    def test_collect_transitions(self, name, catalog):
        for seed in DRAW_SEEDS:
            env, oracle = self.pair(name, seed, catalog)
            got = collect_transitions(env, 4, seed=seed, with_latents=True)
            assert got == collect_transitions(oracle, 4, seed=seed, with_latents=True)


def test_policy_draws_from_the_episode_stream(catalog):
    # a policy drawing the default uniform action from the rng it is handed
    # reproduces the default policy's episodes: both read one stream
    k = len(catalog)

    def uniform(state, rng):
        return int(rng.integers(1, k + 1))

    for seed in range(10):
        env = StagedEnv(StagedEnvConfig(seed=seed), catalog=catalog)
        got = collect_transitions(env, 6, policy=uniform, seed=seed, with_latents=True)
        assert got == collect_transitions(env, 6, seed=seed, with_latents=True)


class TestConfigRejectsWhatChoiceRejected:
    @pytest.mark.parametrize("field", ["match_advance_prob", "mismatch_advance_prob"])
    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
    def test_advance_prob_outside_unit_interval(self, field, value):
        with pytest.raises(ValueError, match=field):
            StagedEnvConfig(**{field: value})

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_emotion_weight(self, bad):
        with pytest.raises(ValueError, match="emotion weights"):
            StagedEnvConfig(emotion_weights=(("anger", 3.0), ("fear", bad)))

    def test_weights_without_finite_positive_mass(self):
        for weights in ((("anger", 0.0),), (("anger", 1e308), ("fear", 1e308))):
            with pytest.raises(ValueError, match="emotion weights"):
                StagedEnvConfig(emotion_weights=weights)

    def test_unit_interval_endpoints_accepted(self):
        StagedEnvConfig(match_advance_prob=0.0, mismatch_advance_prob=1.0)
