"""Command-line entry point.

Subcommands: train, eval, sweep, simulate, ingest-stats.  Configuration
comes from defaults, then an optional key=value config file, then
SUPPORTQ_-prefixed environment variables, then CLI flags (flags win).
Every command writes a manifest (config + input hashes) sufficient to
reproduce it, and never mutates its input files.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 training/eval
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .core import EmptyEpisode, StrategyCatalog, default_catalog, derive_transitions
from .encoding import MIN_VOCAB_SIZE, Vocabulary, build_vocab, render_mcq
from .env import STAGE_QUERIES, StagedEnv, StagedEnvConfig, collect_transitions, response_template, rollouts
from .ingest import (
    ParseError,
    UnknownEmotion,
    UnknownStrategy,
    corpus_stats,
    load_esconv,
    load_plain_dialogues,
    split_episodes,
)
from .metrics import (
    EmptyInput,
    LengthMismatch,
    MetricReport,
    accuracy,
    avg_reward_value,
    bleu2,
    bt_strengths,
    cider,
    confusion_matrix,
    distinct2,
    macro_f1,
    per_class_f1,
    rouge_l,
    stage_upper_mass,
    strength_bias,
    transition_matrix,
    write_matrix_csv,
)
from .qnet import FeatureConfig, MlpConfig, MlpScorer, SeqConfig, SeqScorer, load_scorer, save_scorer
from .rewards import SyntheticJudge, distill_rewards, imitation_rewards
from .training import InsufficientData, TrainerConfig, fit

ENV_PREFIX = "SUPPORTQ_"


class ConfigError(ValueError):
    """Bad or unknown configuration."""


class CheckpointMismatch(RuntimeError):
    """Checkpoint was trained against a different vocabulary or catalog."""


@dataclass
class RunConfig:
    mode: str = "env"  # env | dataset
    backend: str = "mlp"  # mlp | seq
    reward: str = "imit"  # imit | distill | env
    gamma: float = TrainerConfig.gamma
    learning_rate: float = TrainerConfig.learning_rate  # 0 means the scorer's default
    batch_size: int = TrainerConfig.batch_size
    target_sync_every: int = TrainerConfig.target_sync_every
    epochs: int = TrainerConfig.epochs
    window: int = 2048
    seed: int = TrainerConfig.seed
    grad_clip: float = TrainerConfig.grad_clip
    sample_in_order: bool = TrainerConfig.sample_in_order
    rollout_episodes: int = 1000
    demo_episodes: int = 300
    demo_fidelity: float = 0.65
    env_horizon: int = 8
    dataset_path: str = ""
    testset_path: str = ""
    split_ratio: float = 0.9
    vocab_max_size: int = 4096
    mlp_hidden: str = "64,64"
    seq_d_model: int = 64
    seq_layers: int = 2
    seq_heads: int = 2
    eval_episodes: int = 120
    out_dir: str = "runs/latest"

    def validate(self) -> None:
        if self.mode not in ("env", "dataset"):
            raise ConfigError(f"mode must be env or dataset, got {self.mode!r}")
        if self.backend not in ("mlp", "seq"):
            raise ConfigError(f"backend must be mlp or seq, got {self.backend!r}")
        if self.reward not in ("imit", "distill", "env"):
            raise ConfigError(f"reward must be imit, distill or env, got {self.reward!r}")
        if self.reward == "env" and self.mode != "env":
            raise ConfigError("reward=env requires mode=env")
        if self.mode == "dataset" and not self.dataset_path:
            raise ConfigError("dataset mode needs dataset_path")
        if self.window <= 0:
            raise ConfigError("window must be positive")
        if self.vocab_max_size < MIN_VOCAB_SIZE:
            raise ConfigError(f"vocab_max_size must be at least {MIN_VOCAB_SIZE}")
        if not 0.0 <= self.demo_fidelity <= 1.0:
            raise ConfigError("demo_fidelity must be in [0, 1]")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must be in (0, 1)")
        try:
            self.trainer_config()
            _env_config(self)
            _scorer_config(self, len(default_catalog()), self.vocab_max_size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def trainer_config(self) -> TrainerConfig:
        """The training settings: every TrainerConfig field is a field of this config."""
        return TrainerConfig(**{f.name: getattr(self, f.name) for f in dataclasses.fields(TrainerConfig)})


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELDS[name].type
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"{name}: expected {kind}, got {raw!r}") from None
    return raw


def load_run_config(
    config_path: Optional[str] = None,
    environ: Optional[dict] = None,
    overrides: Optional[dict] = None,
) -> RunConfig:
    values: dict = {}
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {config_path}")
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{config_path}:{lineno}: expected key = value")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ConfigError(f"{config_path}:{lineno}: unknown key {key!r}")
            values[key] = _coerce(key, raw.strip())
    env = environ if environ is not None else os.environ
    for key, raw in env.items():
        if not key.startswith(ENV_PREFIX):
            continue
        name = key[len(ENV_PREFIX) :].lower()
        if name not in _FIELDS:
            raise ConfigError(f"unknown environment override {key}")
        values[name] = _coerce(name, raw)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise ConfigError(f"unknown option {key!r}")
        values[key] = value
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    def clean(x):
        if isinstance(x, float) and not np.isfinite(x):
            return None
        if isinstance(x, dict):
            return {k: clean(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [clean(v) for v in x]
        return x

    path.write_text(json.dumps(clean(payload), indent=1, sort_keys=True) + "\n")


def _write_manifest(out: Path, command: str, cfg: RunConfig, inputs: list[str]) -> None:
    _write_json(
        out / "manifest.json",
        {
            "command": command,
            "config": dataclasses.asdict(cfg),
            "inputs": {p: _sha256(Path(p)) for p in inputs if p and Path(p).is_file()},
            "version": __version__,
        },
    )


# -- pipeline pieces -----------------------------------------------------------


def _env_config(cfg: RunConfig) -> StagedEnvConfig:
    return StagedEnvConfig(horizon=cfg.env_horizon, seed=cfg.seed)


def _make_env(cfg: RunConfig, catalog: StrategyCatalog) -> StagedEnv:
    return StagedEnv(_env_config(cfg), catalog=catalog)


def _training_episodes(cfg: RunConfig, catalog: StrategyCatalog) -> list:
    if cfg.mode == "dataset":
        episodes = load_esconv(cfg.dataset_path, catalog=catalog)
        train, _ = split_episodes(episodes, cfg.split_ratio, cfg.seed)
        return train
    env = _make_env(cfg, catalog)
    return env.demo_episodes(cfg.demo_episodes, fidelity=cfg.demo_fidelity, seed=cfg.seed)


def _test_episodes(cfg: RunConfig, catalog: StrategyCatalog) -> list:
    if cfg.testset_path:
        return load_esconv(cfg.testset_path, catalog=catalog)
    if cfg.mode == "dataset":
        episodes = load_esconv(cfg.dataset_path, catalog=catalog)
        _, test = split_episodes(episodes, cfg.split_ratio, cfg.seed)
        return test
    env = _make_env(cfg, catalog)
    return env.demo_episodes(cfg.eval_episodes, fidelity=cfg.demo_fidelity, seed=cfg.seed + 7919)


def _vocab_corpus(episodes: Sequence, catalog: StrategyCatalog) -> list[str]:
    texts = []
    for ep in episodes:
        texts.append(ep.description)
        texts.extend(t.text for t in ep.turns)
    if episodes:
        transitions = derive_transitions(episodes[0])
        texts.append(render_mcq(transitions[0].state, catalog))
    return texts


def _scorer_config(cfg: RunConfig, n_actions: int, vocab_size: int):
    if cfg.backend == "seq":
        return SeqConfig(
            vocab_size=vocab_size,
            d_model=cfg.seq_d_model,
            n_heads=cfg.seq_heads,
            n_layers=cfg.seq_layers,
            n_ctx=max(cfg.window, 256),
        )
    hidden = tuple(int(x) for x in cfg.mlp_hidden.split(",") if x)
    return MlpConfig(n_actions=n_actions, features=FeatureConfig(), hidden=hidden)


def _build_scorer(cfg: RunConfig, catalog: StrategyCatalog, vocab: Vocabulary):
    config = _scorer_config(cfg, len(catalog), vocab.size)
    if cfg.backend == "seq":
        return SeqScorer(config, seed=cfg.seed, window=cfg.window)
    return MlpScorer(config, seed=cfg.seed)


def _train(cfg: RunConfig, out: Path) -> None:
    catalog = default_catalog()
    if cfg.reward == "env":
        env = _make_env(cfg, catalog)
        prompt_state = env.reset(seed=cfg.seed)
        corpus = [prompt_state.description, render_mcq(prompt_state, catalog)]
        for pool in STAGE_QUERIES.values():
            corpus.extend(pool)
        corpus.extend(response_template(s.name) for s in catalog)
        vocab = build_vocab(corpus, cfg.vocab_max_size)
        scorer = _build_scorer(cfg, catalog, vocab)
        transitions = collect_transitions(env, cfg.rollout_episodes, seed=cfg.seed)
        log = fit(transitions, scorer, catalog, vocab, cfg.trainer_config())
    else:
        episodes = _training_episodes(cfg, catalog)
        vocab = build_vocab(_vocab_corpus(episodes, catalog), cfg.vocab_max_size)
        transitions = []
        for ep in episodes:
            transitions.extend(derive_transitions(ep))
        if cfg.reward == "imit":
            rewarded = imitation_rewards(transitions, catalog, seed=cfg.seed)
        else:
            judge = SyntheticJudge(catalog=catalog, nominal_turns=cfg.env_horizon, seed=cfg.seed)
            rewarded = distill_rewards(transitions, judge)
        scorer = _build_scorer(cfg, catalog, vocab)
        log = fit(rewarded, scorer, catalog, vocab, cfg.trainer_config())

    vocab.save(out / "vocab.txt")
    save_scorer(
        out / "checkpoint.npz",
        scorer,
        extra={"vocab_sha256": vocab.content_hash(), "catalog_sha256": catalog.content_hash()},
    )
    log.to_csv(out / "loss.csv")
    _write_manifest(out, "train", cfg, [cfg.dataset_path] if cfg.dataset_path else [])
    print(f"trained {cfg.backend} scorer for {len(log)} steps -> {out / 'checkpoint.npz'}")


def _load_checkpoint(checkpoint: str):
    catalog = default_catalog()
    scorer, extra = load_scorer(checkpoint)
    vocab_path = Path(checkpoint).parent / "vocab.txt"
    vocab = Vocabulary.load(vocab_path) if vocab_path.exists() else None
    if vocab is not None and extra.get("vocab_sha256") not in (None, vocab.content_hash()):
        raise CheckpointMismatch("vocabulary hash differs from the one used in training")
    if extra.get("catalog_sha256") not in (None, catalog.content_hash()):
        raise CheckpointMismatch("strategy catalog differs from the one used in training")
    return catalog, scorer, vocab


def _eval(cfg: RunConfig, out: Path, checkpoint: str) -> None:
    catalog, scorer, vocab = _load_checkpoint(checkpoint)
    episodes = [derive_transitions(ep) for ep in _test_episodes(cfg, catalog)]
    transitions = [tr for trs in episodes for tr in trs]
    if not transitions:
        raise EmptyInput("test set produced no evaluation samples")
    pred = scorer.select_strategies([tr.state for tr in transitions], catalog, vocab)
    gold = [tr.action for tr in transitions]
    refs = [tr.response or "" for tr in transitions]
    hyps = [response_template(catalog.by_id(choice).name) for choice in pred]
    picks = iter(pred)
    sequences = [list(itertools.islice(picks, len(trs))) for trs in episodes]

    k = len(catalog)
    strengths = bt_strengths(pred, gold, k)
    report = MetricReport(
        accuracy=accuracy(pred, gold),
        proficiency=macro_f1(pred, gold, k),
        preference_bias=strength_bias(strengths),
        bleu2=bleu2(hyps, refs),
        rouge_l=rouge_l(hyps, refs),
        distinct2=distinct2(hyps),
        cider=cider(hyps, refs),
        confusion=confusion_matrix(pred, gold, k),
        transition=transition_matrix(sequences, k),
        n_samples=len(gold),
    )
    _write_json(out / "report.json", report.to_dict())
    write_matrix_csv(out / "confusion.csv", report.confusion, catalog)
    write_matrix_csv(out / "transition.csv", report.transition, catalog)
    _per_strategy_csv(out / "per_strategy.csv", gold, hyps, refs, report.confusion, strengths, catalog)
    _write_manifest(out, "eval", cfg, [checkpoint, cfg.testset_path or cfg.dataset_path])
    print(
        f"eval on {len(gold)} turns: acc={report.accuracy:.4f} "
        f"f1={report.proficiency:.4f} bias={report.preference_bias:.4f} "
        f"b2={report.bleu2:.4f} rl={report.rouge_l:.4f}"
    )


def _per_strategy_csv(path, gold, hyps, refs, counts, strengths, catalog) -> None:
    log_s = np.log(strengths)
    centered = np.abs(log_s - log_s.mean())
    f1 = per_class_f1(counts)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["strategy", "abbr", "stage", "support", "acc", "f1", "bias", "bleu2", "rouge_l", "distinct2", "cider"]
        )
        for s in catalog:
            c = s.id - 1
            support = int(counts[:, c].sum())
            recall = counts[c, c] / support if support else 0.0
            idx = [i for i, g in enumerate(gold) if g == s.id]
            sub_h = [hyps[i] for i in idx]
            sub_r = [refs[i] for i in idx]
            row = [
                s.name,
                s.abbreviation,
                s.stage.value,
                support,
                f"{recall:.6f}",
                f"{f1[c]:.6f}",
                f"{centered[c]:.6f}",
                f"{bleu2(sub_h, sub_r):.6f}" if idx else "0",
                f"{rouge_l(sub_h, sub_r):.6f}" if idx else "0",
                f"{distinct2(sub_h):.6f}" if idx else "0",
                f"{cider(sub_h, sub_r):.6f}" if idx else "0",
            ]
            writer.writerow(row)


def _sweep(cfg: RunConfig, out: Path, gammas: list[float]) -> None:
    rows = []
    for gamma in gammas:
        sub = dataclasses.replace(cfg, gamma=gamma, out_dir=str(out / f"gamma_{gamma:g}"))
        sub_out = Path(sub.out_dir)
        sub_out.mkdir(parents=True, exist_ok=True)
        _train(sub, sub_out)
        _eval(sub, sub_out, str(sub_out / "checkpoint.npz"))
        report = json.loads((sub_out / "report.json").read_text())
        rows.append(
            {
                "gamma": gamma,
                "acc": report["accuracy"],
                "macro_f1": report["proficiency"],
                "bleu2": report["bleu2"],
                "rouge_l": report["rouge_l"],
            }
        )
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["gamma", "acc", "macro_f1", "bleu2", "rouge_l"])
        writer.writeheader()
        writer.writerows(rows)
    _write_manifest(out, "sweep", cfg, [cfg.dataset_path] if cfg.dataset_path else [])
    print(f"{'gamma':>6} {'acc':>8} {'macro_f1':>9} {'bleu2':>8} {'rouge_l':>8}")
    for row in rows:
        print(
            f"{row['gamma']:>6g} {row['acc']:>8.4f} {row['macro_f1']:>9.4f} "
            f"{row['bleu2']:>8.4f} {row['rouge_l']:>8.4f}"
        )


def _simulate(cfg: RunConfig, out: Path, checkpoint: str, n_episodes: int) -> None:
    if n_episodes <= 0:
        raise EmptyInput("simulate needs at least one episode")
    catalog, scorer, vocab = _load_checkpoint(checkpoint)
    env = StagedEnv(dataclasses.replace(_env_config(cfg), reward_source="judge"), catalog=catalog)
    model_q: list[float] = []

    def greedy(state, rng) -> int:
        qs = scorer.q_all(state, catalog, vocab)
        action = int(np.argmax(qs)) + 1
        model_q.append(float(qs[action - 1]))
        return action

    def run(policy_name: str, policy) -> tuple[dict, np.ndarray]:
        sequences: list[list[int]] = []
        rewards: list[list[float]] = []
        actions: list[int] = []
        scores: list[float] = []
        for _, _, action, reward, _, done, _ in rollouts(env, n_episodes, policy, seed=cfg.seed + 17):
            actions.append(action)
            scores.append(reward)
            if done:
                sequences.append(actions)
                rewards.append(scores)
                actions, scores = [], []
        avg_r, avg_v = avg_reward_value(rewards, cfg.gamma)
        matrix = transition_matrix(sequences, len(catalog))
        return {
            "policy": policy_name,
            "episodes": n_episodes,
            "avg_reward": avg_r,
            "avg_value": avg_v,
            "stage_upper_mass": stage_upper_mass(matrix, catalog),
        }, matrix

    greedy_row, greedy_matrix = run("greedy", greedy)
    greedy_row["mean_model_q"] = float(np.mean(model_q))
    random_row, _ = run("random", None)
    _write_json(out / "simulate.json", {"rows": [greedy_row, random_row], "gamma": cfg.gamma})
    write_matrix_csv(out / "transition.csv", greedy_matrix, catalog)
    _write_manifest(out, "simulate", cfg, [checkpoint])
    for row in (greedy_row, random_row):
        print(
            f"{row['policy']:>7}: reward={row['avg_reward']:.3f} value={row['avg_value']:.1f} "
            f"upper_mass={row['stage_upper_mass']:.3f}"
        )


def _ingest_stats(cfg: RunConfig, out: Optional[Path], data: str, fmt: str) -> None:
    if fmt == "esconv":
        episodes = load_esconv(data)
    else:
        episodes = load_plain_dialogues(data)
    stats = corpus_stats(episodes)
    payload = stats.to_dict()
    print(json.dumps(payload, indent=1, sort_keys=True))
    if out is not None:
        _write_json(out / "stats.json", payload)
        _write_manifest(out, "ingest-stats", cfg, [data])


# -- argument wiring -----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--mode", choices=["env", "dataset"])
    parser.add_argument("--env", dest="mode_alias", choices=["staged"], help="shorthand for --mode env")
    parser.add_argument("--backend", choices=["mlp", "seq"])
    parser.add_argument("--reward", choices=["imit", "distill", "env"])
    parser.add_argument("--dataset-path", dest="dataset_path")
    parser.add_argument("--testset", dest="testset_path")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--learning-rate", dest="learning_rate", type=float)
    parser.add_argument("--rollout-episodes", dest="rollout_episodes", type=int)
    parser.add_argument("--demo-episodes", dest="demo_episodes", type=int)
    parser.add_argument("--eval-episodes", dest="eval_episodes", type=int)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {
        name: getattr(args, name)
        for name in _FIELDS
        if hasattr(args, name) and getattr(args, name) is not None
    }
    if getattr(args, "mode_alias", None):
        overrides["mode"] = "env"
    return load_run_config(getattr(args, "config", None), overrides=overrides)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="supportq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("train", "eval", "sweep", "simulate"):
        p = sub.add_parser(name)
        _add_common(p)
        if name in ("eval", "simulate"):
            p.add_argument("--checkpoint", required=True)
        if name == "simulate":
            p.add_argument("--episodes", type=int, default=200)
        if name == "sweep":
            p.add_argument(
                "--gammas", default="0.75,0.80,0.85,0.90,0.95", help="comma-separated list"
            )

    p = sub.add_parser("ingest-stats")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=["esconv", "plain"], default="esconv")

    args = parser.parse_args(argv)
    # library warnings (e.g. sessions dropped on ingest) go to stderr, unless
    # the embedding program has configured logging already
    if not logging.getLogger().handlers:
        logging.basicConfig(stream=sys.stderr, format="%(message)s")
    try:
        cfg = _config_from_args(args)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "train":
            _train(cfg, out)
        elif args.command == "eval":
            _eval(cfg, out, args.checkpoint)
        elif args.command == "sweep":
            gammas = [float(x) for x in args.gammas.split(",") if x]
            _sweep(cfg, out, gammas)
        elif args.command == "simulate":
            _simulate(cfg, out, args.checkpoint, args.episodes)
        elif args.command == "ingest-stats":
            _ingest_stats(cfg, out, args.data, args.format)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        ParseError,
        UnknownStrategy,
        UnknownEmotion,
        EmptyEpisode,
        FileNotFoundError,
        EmptyInput,
        InsufficientData,
        LengthMismatch,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
