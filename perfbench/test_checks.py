"""Each benchmark check passes on a correct output and fails on a corrupted one.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
from checks import CheckFailed
from supportq import core, env, ingest, metrics
from supportq.encoding import build_vocab, render_mcq
from supportq.qnet import SeqConfig, SeqScorer

ROOT = Path(__file__).resolve().parent.parent


# -- Q* ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tabular():
    staged = env.StagedEnv(env.StagedEnvConfig(horizon=3, seed=0))
    tab = staged.to_tabular()
    progress = [lat.progress for lat in tab.latents] + [3]
    return tab, progress


def test_backward_induction_matches_value_iteration(tabular):
    tab, progress = tabular
    q_star = checks.backward_induction(tab.succ_idx, tab.succ_p, tab.rewards, tab.terminal, progress, 0.85)
    checks.check_value_iteration(env.value_iteration(tab, 0.85).q, q_star)
    with pytest.raises(CheckFailed):
        checks.check_value_iteration(env.value_iteration(tab, 0.85).q + 1e-6, q_star)


def test_backward_induction_rejects_a_step_backwards(tabular):
    tab, progress = tabular
    wrong = list(progress)
    wrong[int(tab.succ_idx[0, 0, 0])] = 0  # a successor of a step-0 state claims step 0
    with pytest.raises(CheckFailed):
        checks.backward_induction(tab.succ_idx, tab.succ_p, tab.rewards, tab.terminal, wrong, 0.85)


def test_policy_agreement_fails_on_a_corrupted_policy(tabular):
    tab, progress = tabular
    q_star = checks.backward_induction(tab.succ_idx, tab.succ_p, tab.rewards, tab.terminal, progress, 0.85)
    live = [s for s in range(tab.n_states) if not tab.terminal[s]]
    greedy = {s: int(np.argmax(q_star[s])) + 1 for s in live}
    assert checks.check_policy_agreement(greedy, q_star, 0.95) == 1.0
    corrupted = {s: (a % 8) + 1 if i % 10 == 0 else a for i, (s, a) in enumerate(greedy.items())}
    with pytest.raises(CheckFailed):
        checks.check_policy_agreement(corrupted, q_star, 0.95)


def test_smallest_id_argmax_breaks_ties_low():
    assert checks.smallest_id_argmax([1.0, 3.0, 3.0]) == 2


# -- eval and simulate artifacts ---------------------------------------------------


@pytest.fixture
def eval_outputs(tmp_path):
    catalog = core.default_catalog()
    episodes = env.StagedEnv(env.StagedEnvConfig(seed=4), catalog=catalog).demo_episodes(5, seed=4)
    test_path = tmp_path / "test.json"
    ingest.save_episodes(test_path, episodes, catalog)
    gold = [t.action for ep in episodes for t in core.derive_transitions(ep)]
    pred = [(g % 8) + 1 if i % 3 == 0 else g for i, g in enumerate(gold)]
    confusion = metrics.confusion_matrix(pred, gold, 8)
    metrics.write_matrix_csv(tmp_path / "confusion.csv", confusion, catalog)
    report = {
        "accuracy": metrics.accuracy(pred, gold),
        "proficiency": metrics.macro_f1(pred, gold, 8),
        "n_samples": len(gold),
    }
    return test_path, report, checks.read_matrix_csv(tmp_path / "confusion.csv"), gold


def test_report_matches_confusion(eval_outputs):
    _, report, confusion, _ = eval_outputs
    checks.check_report_matches_confusion(report, confusion)
    with pytest.raises(CheckFailed):
        checks.check_report_matches_confusion({**report, "accuracy": report["accuracy"] + 1e-9}, confusion)
    with pytest.raises(CheckFailed):
        checks.check_report_matches_confusion({**report, "proficiency": report["proficiency"] * 1.01}, confusion)
    moved = confusion.copy()
    moved[0, 0] += 1
    moved[1, 0] -= 1
    with pytest.raises(CheckFailed):
        checks.check_report_matches_confusion(report, moved)


def test_gold_counts_read_from_the_file(eval_outputs):
    test_path, report, confusion, gold = eval_outputs
    counts = checks.gold_counts(test_path)
    assert counts == [gold.count(k) for k in range(1, 9)]
    checks.check_gold_counts(report, confusion, counts)
    with pytest.raises(CheckFailed):
        checks.check_gold_counts({**report, "n_samples": report["n_samples"] - 1}, confusion, counts)
    moved = confusion.copy()
    moved[0, 0] -= 1  # one turn credited to the wrong gold column
    moved[0, 1] += 1
    with pytest.raises(CheckFailed):
        checks.check_gold_counts(report, moved, counts)


def test_simulate_checks():
    rows = [
        {"policy": "greedy", "episodes": 3, "avg_reward": 3.5},
        {"policy": "random", "episodes": 3, "avg_reward": 3.1},
    ]
    transition = np.zeros((8, 8))
    transition[0, 1] = 3 * 7
    checks.check_simulate({"rows": rows}, transition, 3, 8)
    with pytest.raises(CheckFailed):
        checks.check_simulate({"rows": [rows[0], {**rows[1], "avg_reward": 0.5}]}, transition, 3, 8)
    with pytest.raises(CheckFailed):
        checks.check_simulate({"rows": rows}, transition + np.eye(8), 3, 8)
    with pytest.raises(CheckFailed):
        checks.check_simulate({"rows": rows[:1]}, transition, 3, 8)


def test_losses_check():
    checks.check_losses([0.5, 0.25], 2)
    with pytest.raises(CheckFailed):
        checks.check_losses([0.5, math.nan], 2)
    with pytest.raises(CheckFailed):
        checks.check_losses([0.5], 2)


# -- training step -------------------------------------------------------------------


def _fake_batch():
    q = {("s0", a): 0.1 * a for a in range(1, 9)}
    q.update({("s1", a): -0.2 * a for a in range(1, 9)})
    batch = [("s0", 3, 1.0, "s1", False), ("s1", 2, -1.0, None, True)]
    targets = [1.0 + 0.85 * -0.2, -1.0]
    loss = ((q[("s0", 3)] - targets[0]) ** 2 + (q[("s1", 2)] - targets[1]) ** 2) * 0.5
    return batch, (lambda s, a: q[(s, a)]), loss, sum(targets) / 2


def test_first_step_targets_and_loss():
    batch, q_value, loss, mean_target = _fake_batch()
    checks.check_first_step(batch, q_value, 8, 0.85, loss, mean_target)
    with pytest.raises(CheckFailed):
        checks.check_first_step(batch, q_value, 8, 0.85, loss * (1 + 1e-9), mean_target)
    with pytest.raises(CheckFailed):
        checks.check_first_step(batch, q_value, 8, 0.85, loss, mean_target + 1e-6)


def test_gradient_check_on_a_quadratic():
    params = {"w": np.array([1.0, -2.0, 0.5])}
    target = np.array([0.3, 0.1, -0.4])

    def loss():
        return float(((params["w"] - target) ** 2).sum())

    grads = {"w": 2 * (params["w"] - target)}
    coords = checks.gradient_coordinates(grads, ["w"])
    checks.check_gradients(loss, params, grads, coords)
    bad = {"w": grads["w"].copy()}
    bad["w"][coords[0][1]] *= 1.001
    with pytest.raises(CheckFailed):
        checks.check_gradients(loss, params, bad, coords)
    assert np.array_equal(params["w"], [1.0, -2.0, 0.5])


def test_gradient_check_on_the_seq_scorer():
    catalog = core.default_catalog()
    state = core.DialogueState(
        description="work stress", emotion=core.Emotion("anxiety"), history=(), query="What now?"
    )
    vocab = build_vocab([render_mcq(state, catalog)])
    scorer = SeqScorer(SeqConfig(vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=1, n_ctx=256), seed=1)
    _, grads = scorer.loss_and_grads([(state, 2, 0.5)], catalog, vocab)

    def loss():
        return (scorer.q_value(state, 2, catalog, vocab) - 0.5) ** 2

    coords = checks.gradient_coordinates(grads, ["tok_emb", "blocks.0.attn.wq", "head.w"])
    checks.check_gradients(loss, scorer.params, grads, coords)
    bad = {n: g.copy() for n, g in grads.items()}
    bad["head.w"][coords[2][1]] += 1e-3
    with pytest.raises(CheckFailed):
        checks.check_gradients(loss, scorer.params, bad, coords)


def test_select_strategy_check():
    values = {"a": [0.1, 0.7, 0.7, 0.2], "b": [0.5, 0.1, 0.1, 0.1]}
    q_value = lambda s, a: values[s][a - 1]  # noqa: E731
    checks.check_select_strategy(["a", "b"], lambda s: checks.smallest_id_argmax(values[s]), q_value, 4)
    with pytest.raises(CheckFailed):  # ties must go to the smallest id
        checks.check_select_strategy(["a"], lambda s: 3, q_value, 4)


# -- tracing ------------------------------------------------------------------------


def test_install_records_spans_and_uninstall_restores():
    import supportq.cli as cli

    original = core.derive_transitions
    episode = env.StagedEnv().demo_episodes(1, seed=0)[0]
    tracer = tracing.Tracer(run="round0")
    undo = tracing.install(tracer)
    try:
        assert cli.derive_transitions is core.derive_transitions  # the alias is wrapped too
        assert core.derive_transitions.__wrapped__ is original
        cli.derive_transitions(episode)
    finally:
        tracing.uninstall(undo)
    assert cli.derive_transitions is original and core.derive_transitions is original
    assert [(rec[2], rec[7]) for rec in tracer.spans] == [("core.derive_transitions", "round0")]


def test_layer_metrics_self_time_and_scaling():
    s = 10**9
    records = [
        ["1:0", None, "round", 0, 10 * s, None, None, "round1"],
        ["1:1", "1:0", "phase.eval", 0, 9 * s, None, None, "round1"],
        ["2:0", "1:1", "cli.eval", 1 * s, 8 * s, None, None, "round1"],
        ["2:1", "2:0", "metrics.bt_bias", 2 * s, 4 * s, None, None, "round1"],
        ["2:2", "2:1", "metrics.bt_strengths", 2 * s, 3 * s, None, None, "round1"],
        ["2:3", "2:0", "qnet.checkpoint.load", 5 * s, 6 * s, None, None, "round1"],
        ["3:0", None, "encoding.build_vocab", 0, 2 * s, None, None, "setup0"],
    ]
    summary = tracing.summarize(records)
    assert summary["round"]["cli"]["self_s"] == pytest.approx(4.0)
    values = tracing.layer_metrics(summary, {"setup": 2, "round": 1})
    assert values["cli.self_s"] == pytest.approx(4.0)
    assert values["metrics.suite_s"] == pytest.approx(2.0)
    assert values["metrics.bt_bias_s"] == pytest.approx(2.0)
    assert values["encoding.build_vocab_s"] == pytest.approx(1.0)
    assert values["qnet.checkpoint.load_s"] == pytest.approx(1.0)


def test_benchmark_json_lists_the_metrics_the_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(tracing.layer_metrics({}, {"setup": 1, "round": 1}))
    produced |= {"trace.round_s", "trace.untraced_round_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "train_steps_per_s", "eval_turns_per_s", "sim_steps_per_s", "peak_rss_mb"
    }


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seq-pipeline", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
