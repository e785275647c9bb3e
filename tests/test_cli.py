from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import supportq
from supportq.cli import ConfigError, RunConfig, load_run_config, main
from supportq.core import derive_transitions
from supportq.encoding import Vocabulary, build_vocab
from supportq.env import StagedEnv, StagedEnvConfig, value_iteration
from supportq.ingest import load_esconv, save_episodes
from supportq.metrics import confusion_matrix, write_matrix_csv
from supportq.qnet import SeqConfig, SeqScorer, load_scorer, save_scorer
from supportq.training import TrainerConfig

from .oracles import hand_simulate_rows, per_state_eval_predictions


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


TINY = ["--demo-episodes", "30", "--epochs", "1", "--eval-episodes", "15", "--seed", "5"]


# an annotated supporter greeting that no seeker query precedes, then the seeker
GREETING_FIRST = {
    "session_id": "a",
    "situation": "s",
    "dialog": [
        {"speaker": "supporter", "content": "Hello, how are you?", "annotation": {"strategy": "Question"}},
        {"speaker": "seeker", "content": "Not great."},
    ],
}


def train(out, extra=()):
    rc = main(["train", "--mode", "env", "--reward", "imit", "--backend", "mlp",
               "--out-dir", str(out), *TINY, *extra])
    assert rc == 0
    return out / "checkpoint.npz"


class TestConfig:
    def test_defaults_mirror_training_setup(self):
        cfg = RunConfig()
        assert cfg.gamma == 0.85
        assert cfg.batch_size == 64
        assert cfg.target_sync_every == 10
        assert cfg.epochs == 4
        assert cfg.window == 2048

    def test_every_trainer_field_is_a_run_field_with_the_same_default(self):
        run_fields = {f.name: f for f in dataclasses.fields(RunConfig)}
        for f in dataclasses.fields(TrainerConfig):
            assert f.name in run_fields, f.name
            assert run_fields[f.name].default == f.default, f.name

    def test_unknown_file_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("gamma = 0.9\nnonsense = 1\n")
        with pytest.raises(ConfigError):
            load_run_config(str(config))

    def test_precedence_file_env_flags(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# comment line\ngamma = 0.5\nseed = 1\n")
        cfg = load_run_config(
            str(config),
            environ={"SUPPORTQ_GAMMA": "0.7", "HOME": "/tmp"},
            overrides={"seed": 9},
        )
        assert cfg.gamma == 0.7  # env beats file
        assert cfg.seed == 9  # flag beats both

    def test_unknown_env_override_rejected(self):
        with pytest.raises(ConfigError):
            load_run_config(environ={"SUPPORTQ_TYPO": "1"})

    def test_unparsable_number_rejected(self):
        for key, raw in (("SUPPORTQ_SEED", "abc"), ("SUPPORTQ_GAMMA", "high")):
            with pytest.raises(ConfigError):
                load_run_config(environ={key: raw})

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            load_run_config(overrides={"mode": "dataset"})  # no dataset_path
        with pytest.raises(ConfigError):
            load_run_config(overrides={"reward": "env", "mode": "dataset", "dataset_path": "x"})
        with pytest.raises(ConfigError):
            load_run_config(overrides={"gamma": 1.0})
        with pytest.raises(ConfigError):
            load_run_config(overrides={"window": 0})
        with pytest.raises(ConfigError):
            load_run_config(overrides={"batch_size": 0})
        with pytest.raises(ConfigError):
            load_run_config(overrides={"learning_rate": -1})
        with pytest.raises(ConfigError):
            load_run_config(overrides={"vocab_max_size": 100})
        for overrides in (
            {"seed": -1},
            {"grad_clip": -1.0},
            {"grad_clip": 0.0},
            {"demo_fidelity": 2.0},
            {"env_horizon": 1},
            {"mlp_hidden": "abc"},
            {"mlp_hidden": "64,0"},
            {"backend": "seq", "seq_heads": 3},
            {"split_ratio": 2.0},
            {"split_ratio": 0.0},
            {"split_ratio": 1.0},
        ):
            with pytest.raises(ConfigError):
                load_run_config(overrides=overrides)

    def test_bool_coercion(self, tmp_path):
        config = tmp_path / "run.cfg"
        for raw, expected in (("true", True), ("0", False)):
            config.write_text(f"sample_in_order = {raw}\n")
            assert load_run_config(str(config)).sample_in_order is expected

    def test_deterministic_is_an_unknown_override(self):
        # the flag is gone: it changed no thread count once numpy had loaded its BLAS
        with pytest.raises(ConfigError, match="unknown environment override SUPPORTQ_DETERMINISTIC"):
            load_run_config(environ={"SUPPORTQ_DETERMINISTIC": "1"})

    def test_buffer_capacity_is_an_unknown_override(self):
        # training draws from every transition; there is no replay capacity to set
        with pytest.raises(ConfigError, match="unknown environment override SUPPORTQ_BUFFER_CAPACITY"):
            load_run_config(environ={"SUPPORTQ_BUFFER_CAPACITY": "1"})


class TestTrainCommand:
    def test_env_imitation_produces_artifacts(self, tmp_path):
        out = tmp_path / "run"
        train(out)
        for name in ("checkpoint.npz", "loss.csv", "vocab.txt", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["gamma"] == 0.85

    def test_missing_dataset_path_is_config_error(self, tmp_path):
        rc = main(["train", "--mode", "dataset", "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_out_of_range_training_setting_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SUPPORTQ_BATCH_SIZE", "0")
        rc = main(["train", "--mode", "env", "--out-dir", str(tmp_path / "x"), *TINY])
        assert rc == 2
        assert "batch_size must be positive" in capsys.readouterr().err

    def test_vocab_size_below_the_floor_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SUPPORTQ_VOCAB_MAX_SIZE", "100")
        rc = main(["train", "--mode", "env", "--out-dir", str(tmp_path / "x"), *TINY])
        assert rc == 2
        assert "vocab_max_size must be at least" in capsys.readouterr().err

    def test_env_staged_alias_spelling(self, tmp_path):
        out = tmp_path / "alias"
        rc = main(["train", "--env", "staged", "--reward", "imit", "--gamma", "0.85",
                   "--out-dir", str(out), *TINY])
        assert rc == 0
        assert (out / "checkpoint.npz").exists()

    def test_dataset_mode_round_trip(self, tmp_path, catalog):
        env = StagedEnv(StagedEnvConfig(seed=9), catalog=catalog)
        corpus = tmp_path / "corpus.json"
        save_episodes(corpus, env.demo_episodes(40, seed=1), catalog)
        out = tmp_path / "run"
        rc = main(["train", "--mode", "dataset", "--dataset-path", str(corpus),
                   "--reward", "distill", "--epochs", "1", "--out-dir", str(out), "--seed", "3"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert str(corpus) in manifest["inputs"]

    def test_dataset_episode_without_a_decision_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([GREETING_FIRST, {**GREETING_FIRST, "session_id": "b"}]))
        rc = main(["train", "--mode", "dataset", "--dataset-path", str(corpus),
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 3
        assert "no annotated supporter turn follows a seeker query" in capsys.readouterr().err

    def test_identical_seeds_identical_checkpoints(self, tmp_path):
        a = train(tmp_path / "a")
        b = train(tmp_path / "b")
        assert sha(a) == sha(b)

    def test_different_seed_changes_checkpoint(self, tmp_path):
        a = train(tmp_path / "a")
        rc = main(["train", "--mode", "env", "--reward", "imit", "--out-dir",
                   str(tmp_path / "c"), "--demo-episodes", "30", "--epochs", "1", "--seed", "6"])
        assert rc == 0
        assert sha(a) != sha(tmp_path / "c" / "checkpoint.npz")

    def test_default_env_reward_mlp_run_follows_the_oracle_policy(self, tmp_path, catalog):
        # the benchmark's mlp run: default budget and env, greedy policy
        # against value iteration over every horizon-8 tabular state
        out = tmp_path / "run"
        assert main(["train", "--reward", "env", "--backend", "mlp", "--seed", "1", "--out-dir", str(out)]) == 0
        scorer, _ = load_scorer(out / "checkpoint.npz")
        env = StagedEnv(StagedEnvConfig(horizon=8, seed=1), catalog=catalog)
        mdp = env.to_tabular()
        oracle = value_iteration(mdp, gamma=0.85)
        agree = sum(
            scorer.select_strategy(env.canonical_state(lat), catalog) == oracle.policy[i]
            for i, lat in enumerate(mdp.latents)
        )
        assert agree / len(mdp.latents) >= 0.95


class TestEvalCommand:
    def test_eval_writes_reports(self, tmp_path):
        out = tmp_path / "run"
        ckpt = train(out)
        rc = main(["eval", "--mode", "env", "--checkpoint", str(ckpt),
                   "--out-dir", str(out), *TINY])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        for key in ("accuracy", "proficiency", "preference_bias", "bleu2",
                    "rouge_l", "distinct2", "cider", "confusion", "transition"):
            assert key in report
        assert len(report["confusion"]) == 8

    def test_per_strategy_supports_sum_to_n(self, tmp_path):
        out = tmp_path / "run"
        ckpt = train(out)
        main(["eval", "--mode", "env", "--checkpoint", str(ckpt), "--out-dir", str(out), *TINY])
        report = json.loads((out / "report.json").read_text())
        with open(out / "per_strategy.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert sum(int(r["support"]) for r in rows) == report["n_samples"]

    def test_never_predicted_strategy_reports_zero_acc(self, tmp_path):
        out = tmp_path / "run"
        ckpt = train(out)
        main(["eval", "--mode", "env", "--checkpoint", str(ckpt), "--out-dir", str(out), *TINY])
        report = json.loads((out / "report.json").read_text())
        confusion = report["confusion"]
        with open(out / "per_strategy.csv") as fh:
            rows = list(csv.DictReader(fh))
        for s, row in enumerate(rows):
            if sum(confusion[s]) == 0 and int(row["support"]) > 0:  # never predicted
                assert float(row["acc"]) == 0.0

    def test_confusion_equals_the_per_state_predictions(self, tmp_path, catalog):
        out = tmp_path / "run"
        # a budget at which the greedy policy picks several strategies
        ckpt = train(out, ["--demo-episodes", "100", "--epochs", "4", "--learning-rate", "0.01"])
        testset = tmp_path / "test.json"
        env = StagedEnv(StagedEnvConfig(seed=2), catalog=catalog)
        save_episodes(testset, env.demo_episodes(12, seed=3), catalog)
        rc = main(["eval", "--checkpoint", str(ckpt), "--testset", str(testset), "--out-dir", str(out)])
        assert rc == 0
        episodes = load_esconv(testset, catalog=catalog)
        scorer, _ = load_scorer(ckpt)
        pred = per_state_eval_predictions(scorer, episodes, catalog, Vocabulary.load(out / "vocab.txt"))
        assert len(set(pred)) > 1
        gold = [tr.action for ep in episodes for tr in derive_transitions(ep)]
        with open(out / "confusion.csv", newline="") as fh:
            written = [[int(x) for x in row[1:]] for row in list(csv.reader(fh))[1:]]
        assert written == confusion_matrix(pred, gold, len(catalog)).tolist()

    def test_episode_without_a_decision_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        ckpt = train(out)
        testset = tmp_path / "test.json"
        testset.write_text(json.dumps([GREETING_FIRST]))
        rc = main(["eval", "--checkpoint", str(ckpt), "--testset", str(testset), "--out-dir", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error: episode 'a': no annotated supporter turn follows a seeker query" in err

    def test_checkpoint_mismatch_detected(self, tmp_path):
        out = tmp_path / "run"
        ckpt = train(out)
        (out / "vocab.txt").write_text("tampered\nvocab\n")
        rc = main(["eval", "--mode", "env", "--checkpoint", str(ckpt), "--out-dir", str(out), *TINY])
        assert rc == 4

    def test_eval_determinism_byte_identical_reports(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        ckpt_a, ckpt_b = train(out_a), train(out_b)
        for out, ckpt in ((out_a, ckpt_a), (out_b, ckpt_b)):
            rc = main(["eval", "--mode", "env", "--checkpoint", str(ckpt),
                       "--out-dir", str(out), *TINY])
            assert rc == 0
        assert sha(out_a / "report.json") == sha(out_b / "report.json")


def old_seq_checkpoint(out, catalog):
    """A seq checkpoint and its vocabulary whose header names no
    tokenization, as seq checkpoints were written before words carried the
    space before them."""
    out.mkdir()
    vocab = build_vocab(["I feel stuck."], 300)
    scorer = SeqScorer(SeqConfig(vocab_size=vocab.size, d_model=16, n_ctx=512), seed=0)
    ckpt = out / "checkpoint.npz"
    save_scorer(ckpt, scorer, extra={"vocab_sha256": vocab.content_hash(), "catalog_sha256": catalog.content_hash()})
    vocab.save(out / "vocab.txt")
    with np.load(ckpt) as data:
        arrays = {n: data[n] for n in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    del meta["tokenization"]
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    np.savez(ckpt, **arrays)
    return ckpt


@pytest.mark.parametrize("command", [["eval"], ["simulate", "--episodes", "5"]])
def test_old_seq_checkpoint_exits_4_and_says_retrain(tmp_path, capsys, catalog, command):
    out = tmp_path / "run"
    ckpt = old_seq_checkpoint(out, catalog)
    rc = main([*command, "--mode", "env", "--checkpoint", str(ckpt), "--out-dir", str(out), *TINY])
    assert rc == 4
    err = capsys.readouterr().err
    assert "seq checkpoint was trained with an older tokenization" in err
    assert "retrain it" in err


class TestSweepCommand:
    def test_rows_match_gamma_list(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--mode", "env", "--reward", "imit", "--gammas", "0.5,0.9",
                   "--out-dir", str(out), *TINY])
        assert rc == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["gamma"]) for r in rows] == [0.5, 0.9]
        for r in rows:
            assert 0.0 <= float(r["acc"]) <= 1.0

    def test_single_gamma_degenerate_table(self, tmp_path):
        out = tmp_path / "sweep1"
        rc = main(["sweep", "--mode", "env", "--gammas", "0.85", "--out-dir", str(out), *TINY])
        assert rc == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1


class TestSimulateCommand:
    def test_simulate_reports_both_policies(self, tmp_path):
        out = tmp_path / "run"
        ckpt = train(out)
        rc = main(["simulate", "--mode", "env", "--checkpoint", str(ckpt),
                   "--episodes", "25", "--out-dir", str(out), *TINY])
        assert rc == 0
        payload = json.loads((out / "simulate.json").read_text())
        policies = [row["policy"] for row in payload["rows"]]
        assert policies == ["greedy", "random"]
        greedy = payload["rows"][0]
        assert "mean_model_q" in greedy
        assert 0.0 <= greedy["stage_upper_mass"] <= 1.0

    @pytest.mark.parametrize("backend", ["mlp", "seq"])
    def test_rows_and_matrix_equal_the_hand_loop(self, tmp_path, backend, catalog):
        out = tmp_path / "run"
        ckpt = train(out, ["--backend", backend, "--demo-episodes", "10"])
        rc = main(["simulate", "--mode", "env", "--checkpoint", str(ckpt), "--episodes", "12",
                   "--gamma", "0.9", "--out-dir", str(out), *TINY])
        assert rc == 0
        scorer, _ = load_scorer(ckpt)
        vocab = Vocabulary.load(out / "vocab.txt")
        rows, matrix = hand_simulate_rows(scorer, catalog, vocab, 12, horizon=8, seed=5, gamma=0.9)
        assert json.loads((out / "simulate.json").read_text()) == {"rows": rows, "gamma": 0.9}
        write_matrix_csv(tmp_path / "reference.csv", matrix, catalog)
        assert (out / "transition.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_zero_episodes_is_data_error(self, tmp_path):
        out = tmp_path / "run"
        ckpt = train(out)
        rc = main(["simulate", "--mode", "env", "--checkpoint", str(ckpt),
                   "--episodes", "0", "--out-dir", str(out), *TINY])
        assert rc == 3


class TestIngestStatsCommand:
    def test_stats_to_stdout_and_file(self, tmp_path, capsys, catalog):
        env = StagedEnv(StagedEnvConfig(seed=9), catalog=catalog)
        corpus = tmp_path / "corpus.json"
        save_episodes(corpus, env.demo_episodes(5, seed=1), catalog)
        out = tmp_path / "stats"
        rc = main(["ingest-stats", "--data", str(corpus), "--out-dir", str(out)])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["sessions"] == 5
        assert (out / "stats.json").exists()

    def test_missing_file_is_data_error(self, tmp_path):
        rc = main(["ingest-stats", "--data", str(tmp_path / "nope.json"),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 3

    def test_library_warnings_reach_stderr(self, tmp_path, catalog):
        env = StagedEnv(StagedEnvConfig(seed=9), catalog=catalog)
        corpus = tmp_path / "corpus.json"
        save_episodes(corpus, env.demo_episodes(2, seed=1), catalog)
        sessions = json.loads(corpus.read_text())
        sessions.append({"situation": "s", "emotion_type": "fear",
                         "dialog": [{"speaker": "seeker", "content": "hi"}]})
        corpus.write_text(json.dumps(sessions))
        src = str(Path(supportq.__file__).resolve().parents[1])
        env_vars = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "supportq.cli", "ingest-stats", "--data", str(corpus),
             "--out-dir", str(tmp_path / "stats")],
            capture_output=True, text=True, env=env_vars, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert "dropped 1 session" in proc.stderr
