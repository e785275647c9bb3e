from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import supportq
import supportq.rewards as rewards
from supportq.core import DialogueState, Emotion, Speaker, Transition, Turn, derive_transitions
from supportq.env import StagedEnv, StagedEnvConfig, collect_transitions
from supportq.rewards import (
    CatalogTooSmall,
    JudgeFailure,
    SyntheticJudge,
    _hash_unit,
    distill_rewards,
    imitation_rewards,
)

from .oracles import blake2b_unit, rescan_judge_score


@pytest.fixture
def dataset_transitions(catalog):
    env = StagedEnv(StagedEnvConfig(seed=2), catalog=catalog)
    episodes = env.demo_episodes(4, seed=5)
    out = []
    for ep in episodes:
        out.extend(derive_transitions(ep))
    return out


class TestImitation:
    def test_gold_plus_one_negative_sibling(self, dataset_transitions, catalog):
        tr = dataset_transitions[0]
        rewarded = imitation_rewards([tr], catalog, seed=0)
        assert len(rewarded) == 2
        pos, neg = rewarded
        assert pos.reward == 1.0 and pos.action == tr.action
        assert neg.reward == -1.0 and neg.action != tr.action
        assert neg.state == tr.state
        assert neg.next_state == tr.next_state
        assert neg.terminal == tr.terminal

    def test_exact_one_to_one_ratio(self, dataset_transitions, catalog):
        rewarded = imitation_rewards(dataset_transitions, catalog, seed=1)
        assert len(rewarded) == 2 * len(dataset_transitions)
        assert sum(1 for t in rewarded if t.reward == 1.0) == len(dataset_transitions)
        assert sum(1 for t in rewarded if t.reward == -1.0) == len(dataset_transitions)

    def test_negatives_never_equal_gold_over_many_draws(self, dataset_transitions, catalog):
        tr = dataset_transitions[0]
        draws = imitation_rewards([tr] * 10_000, catalog, seed=3)
        negatives = [t.action for t in draws if t.reward == -1.0]
        assert len(negatives) == 10_000
        assert all(a != tr.action for a in negatives)
        # and they cover the other ids roughly uniformly
        assert len(set(negatives)) == len(catalog) - 1

    def test_seeded_reproducibility(self, dataset_transitions, catalog):
        a = imitation_rewards(dataset_transitions, catalog, seed=9)
        b = imitation_rewards(dataset_transitions, catalog, seed=9)
        assert [t.action for t in a] == [t.action for t in b]

    def test_inputs_unchanged_except_reward(self, dataset_transitions, catalog):
        rewarded = imitation_rewards(dataset_transitions, catalog, seed=0)
        positives = [t for t in rewarded if t.reward == 1.0]
        for orig, pos in zip(dataset_transitions, positives):
            assert pos == dataclasses.replace(orig, reward=1.0)

    def test_small_catalog_rejected(self, dataset_transitions):
        from supportq.core import Stage, Strategy, StrategyCatalog

        with pytest.raises(ValueError):
            StrategyCatalog((Strategy(1, "only", "o", Stage.I),))
        # a 2-strategy catalog is the smallest legal one and must work
        two = StrategyCatalog(
            (Strategy(1, "a", "a", Stage.I), Strategy(2, "b", "b", Stage.II))
        )
        tr = Transition(state=dataset_transitions[0].state, action=1, terminal=True)
        out = imitation_rewards([tr], two, seed=0)
        assert out[1].action == 2

    def test_catalog_too_small_guard(self, dataset_transitions, monkeypatch, catalog):
        # simulate a degenerate catalog via a stub with len() == 1
        class Stub:
            def __len__(self):
                return 1

        with pytest.raises(CatalogTooSmall):
            imitation_rewards(dataset_transitions, Stub(), seed=0)


class TestDistillation:
    def test_identity_mapping(self, dataset_transitions, catalog):
        class Always5:
            def score(self, state, action, response):
                return 5

        out = distill_rewards(dataset_transitions[:3], Always5())
        assert [t.reward for t in out] == [5.0, 5.0, 5.0]

    def test_judge_failure_not_partially_committed(self, dataset_transitions):
        calls = []

        class Flaky:
            def score(self, state, action, response):
                calls.append(action)
                if len(calls) == 2:
                    raise RuntimeError("backend exploded")
                return 4

        with pytest.raises(JudgeFailure):
            distill_rewards(dataset_transitions[:3], Flaky())
        assert all(t.reward is None for t in dataset_transitions[:3])


class TestSyntheticJudge:
    def test_deterministic_given_seed(self, dataset_transitions, catalog):
        judge = SyntheticJudge(catalog=catalog, seed=4)
        tr = dataset_transitions[1]
        scores = {judge.score(tr.state, tr.action, tr.response or "") for _ in range(5)}
        assert len(scores) == 1

    def test_calibration_against_gold_demonstrations(self, catalog):
        env = StagedEnv(StagedEnvConfig(seed=3), catalog=catalog)
        episodes = env.demo_episodes(150, seed=9)
        judge = SyntheticJudge(catalog=catalog, nominal_turns=8, seed=0)
        scores = []
        for ep in episodes:
            for tr in derive_transitions(ep):
                scores.append(judge.score(tr.state, tr.action, tr.response or ""))
        scores = np.array(scores[:1000])
        assert len(scores) == 1000
        assert 3.52 <= scores.mean() <= 3.82
        assert np.median(scores) == 4
        assert set(scores.tolist()) <= {1, 2, 3, 4, 5}
        assert {1, 2, 3, 4, 5} <= set(scores.tolist())  # full support at N=1000

    @pytest.mark.parametrize("reward_source", ["stage_match", "judge"])
    def test_scores_equal_the_rescan_oracle_on_env_streams(self, catalog, reward_source):
        for seed in range(20):
            env = StagedEnv(StagedEnvConfig(seed=seed, reward_source=reward_source), catalog=catalog)
            judge = SyntheticJudge(catalog=catalog, nominal_turns=env.config.horizon, seed=seed)
            for tr in collect_transitions(env, 4, seed=seed):
                score = judge.score(tr.state, tr.action, tr.response)
                assert score == rescan_judge_score(judge, tr.state, tr.action, tr.response)
                if reward_source == "judge":
                    assert tr.reward == float(score)

    def test_scores_equal_the_rescan_oracle_on_other_histories(self, catalog, dataset_transitions):
        # histories that open with the supporter, and supporter turns without a strategy
        def supporter_first(n):
            return tuple(
                Turn(Speaker.SUPPORTER, "ok", strategy=None if i % 3 else i % 8 + 1)
                if i % 2 == 0
                else Turn(Speaker.SEEKER, "hm")
                for i in range(n)
            )

        histories = [supporter_first(n) for n in range(12)]
        histories.append((Turn(Speaker.SEEKER, "a"), Turn(Speaker.SUPPORTER, "b", strategy=3), Turn(Speaker.SEEKER, "c")))
        histories.append((Turn(Speaker.SEEKER, "a"), Turn(Speaker.SUPPORTER, "b")))
        states = [DialogueState("d", Emotion("anxiety"), h, "q?") for h in histories]
        states += [tr.state for tr in dataset_transitions]
        for nominal in (3, 8):
            judge = SyntheticJudge(catalog=catalog, nominal_turns=nominal, noise_prob=0.3, seed=1)
            for state in states:
                for action in catalog.ids:
                    assert judge.score(state, action, "r") == rescan_judge_score(judge, state, action, "r")

    @pytest.mark.parametrize("action", [1, 1.0, True])
    def test_noise_key_writes_each_part_as_str_does(self, catalog, tiny_state, action, monkeypatch):
        # 1 == 1.0 == True, but str() tells them apart, and so must the key the judge hashes
        keys = []
        monkeypatch.setattr(rewards, "_hash_unit", lambda key: keys.append(key) or _hash_unit(key))
        judge = SyntheticJudge(catalog=catalog, seed=7)
        judge.score(tiny_state, action, "r")
        parts = (7, tiny_state.query, len(tiny_state.history), action, "r")
        assert keys == ["\x1f".join(map(str, parts))]
        assert _hash_unit(keys[0]) == blake2b_unit(*parts)

    @pytest.mark.parametrize("action", [0, 9])
    def test_unknown_action_raises(self, catalog, bare_state, action):
        with pytest.raises(KeyError):
            SyntheticJudge(catalog=catalog).score(bare_state, action, "ok")

    def test_stage_structure_of_scores(self, catalog, bare_state):
        judge = SyntheticJudge(catalog=catalog, noise_prob=0.0, seed=0)
        matched = judge.score(bare_state, 1, "ok")  # stage I expected at start
        ahead = judge.score(bare_state, 5, "ok")  # stage III early
        assert matched == 4
        assert ahead == 3


def _modules_after_importing_the_cli(names):
    src = str(Path(supportq.__file__).resolve().parents[1])
    env_vars = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"import sys, supportq.cli; print([n in sys.modules for n in {names!r}])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env_vars, check=True)
    return proc.stdout.strip()


def test_cli_import_leaves_numpy_random_unloaded():
    # env's Policy alias names np.random.Generator as a string: evaluating it at import loads numpy.random
    assert _modules_after_importing_the_cli(["numpy.random"]) == "[False]"


def test_cli_import_leaves_urllib_to_the_remote_judge():
    # no command talks HTTP, so none should pay the ~20 ms of importing urllib
    assert _modules_after_importing_the_cli(["urllib.request"]) == "[False]"
