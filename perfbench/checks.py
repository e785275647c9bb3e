"""Checks of supportq's outputs against computations made apart from the program.

Each check raises CheckFailed with a reason when the output is wrong.  Inputs
are plain numbers, arrays, file paths and callables, so the tests can hand in
corrupted outputs and fakes.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Callable, Sequence

import numpy as np

# ESConv strategy names in id order (ids 1..8), the order of every confusion column.
STRATEGY_NAMES = (
    "Question",
    "Restatement or Paraphrasing",
    "Reflection of Feelings",
    "Self-disclosure",
    "Affirmation and Reassurance",
    "Providing Suggestions",
    "Information",
    "Others",
)


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# -- Q* by backward induction --------------------------------------------------


def backward_induction(
    succ_idx: np.ndarray,
    succ_p: np.ndarray,
    rewards: np.ndarray,
    terminal: np.ndarray,
    progress: Sequence[int],
    gamma: float,
) -> np.ndarray:
    """Q*(s, a) of a finite-horizon MDP, solved from the last step backwards.

    `progress[s]` is the step index of non-terminal state s; every successor of
    a state is either terminal or one step further on, which is verified.
    """
    n_states, n_actions = rewards.shape
    q = np.zeros((n_states, n_actions))
    v = np.zeros(n_states)
    live = [s for s in range(n_states) if not terminal[s]]
    for s in live:
        for a in range(n_actions):
            for m in range(succ_idx.shape[2]):
                nxt = int(succ_idx[s, a, m])
                if succ_p[s, a, m] > 0 and not terminal[nxt]:
                    _require(progress[nxt] == progress[s] + 1, f"state {s} does not lead one step on")
    for s in sorted(live, key=lambda i: -progress[i]):
        for a in range(n_actions):
            future = sum(
                float(succ_p[s, a, m]) * v[int(succ_idx[s, a, m])] for m in range(succ_idx.shape[2])
            )
            q[s, a] = float(rewards[s, a]) + gamma * future
        v[s] = q[s].max()
    return q


def smallest_id_argmax(values: Sequence[float]) -> int:
    """1-based id of the largest value; ties go to the smallest id."""
    best = 0
    for i, value in enumerate(values):
        if value > values[best]:
            best = i
    return best + 1


def check_policy_agreement(greedy: dict[int, int], q_star: np.ndarray, min_share: float) -> float:
    """Share of states whose greedy choice is the Q* policy's; must reach min_share."""
    _require(len(greedy) > 0, "no states to compare")
    agree = sum(choice == smallest_id_argmax(list(q_star[s])) for s, choice in greedy.items())
    share = agree / len(greedy)
    _require(share >= min_share, f"greedy policy agrees with Q* on {agree}/{len(greedy)} states")
    return share


def check_value_iteration(q_program: np.ndarray, q_star: np.ndarray, tol: float = 1e-8) -> None:
    gap = float(np.abs(q_program - q_star).max())
    _require(gap <= tol, f"value_iteration differs from backward induction by {gap:.3g}")


# -- eval and simulate artifacts ----------------------------------------------


def read_matrix_csv(path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) == len(STRATEGY_NAMES) + 1, f"{path}: expected {len(STRATEGY_NAMES)} rows")
    return np.array([[float(x) for x in row[1:]] for row in rows[1:]])


def gold_counts(test_path) -> list[int]:
    """Annotated supporter turns per strategy id, read from an ESConv-format file."""
    with open(test_path, encoding="utf-8") as fh:
        sessions = json.load(fh)
    counts = [0] * len(STRATEGY_NAMES)
    for session in sessions:
        for item in session["dialog"]:
            strategy = (item.get("annotation") or {}).get("strategy")
            if item["speaker"] == "supporter" and strategy is not None:
                counts[STRATEGY_NAMES.index(strategy)] += 1
    return counts


def check_report_matches_confusion(report: dict, confusion: np.ndarray, tol: float = 1e-12) -> None:
    """Accuracy and macro-F1 recomputed from the confusion counts (rows predicted, columns gold)."""
    total = confusion.sum()
    _require(total > 0, "empty confusion matrix")
    accuracy = np.trace(confusion) / total
    f1s = []
    for c in range(confusion.shape[0]):
        tp = confusion[c, c]
        denom = 2 * tp + (confusion[c, :].sum() - tp) + (confusion[:, c].sum() - tp)
        f1s.append(2 * tp / denom if denom else 0.0)
    macro = sum(f1s) / len(f1s)
    _require(abs(report["accuracy"] - accuracy) <= tol, f"accuracy {report['accuracy']} != {accuracy}")
    _require(abs(report["proficiency"] - macro) <= tol, f"macro-F1 {report['proficiency']} != {macro}")


def check_gold_counts(report: dict, confusion: np.ndarray, gold: Sequence[int]) -> None:
    _require(report["n_samples"] == sum(gold), f"n_samples {report['n_samples']} != {sum(gold)} turns")
    columns = [int(x) for x in confusion.sum(axis=0)]
    _require(columns == list(gold), f"confusion column sums {columns} != gold counts {list(gold)}")


def check_simulate(result: dict, transition: np.ndarray, episodes: int, horizon: int) -> None:
    rows = result["rows"]
    _require([r["policy"] for r in rows] == ["greedy", "random"], "expected greedy and random rows")
    for row in rows:
        _require(row["episodes"] == episodes, f"{row['policy']}: {row['episodes']} episodes")
        _require(1.0 <= row["avg_reward"] <= 5.0, f"{row['policy']}: avg_reward {row['avg_reward']}")
    moves = int(transition.sum())
    _require(moves == episodes * (horizon - 1), f"{moves} transitions, expected {episodes * (horizon - 1)}")


def check_losses(losses: Sequence[float], steps: int) -> None:
    _require(len(losses) == steps, f"{len(losses)} logged steps, expected {steps}")
    _require(all(math.isfinite(x) for x in losses), "non-finite loss")


def read_losses(path) -> list[float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(row["loss"]) for row in csv.DictReader(fh)]


# -- training step -------------------------------------------------------------


def check_first_step(
    batch: Sequence[tuple],
    q_value: Callable,
    n_actions: int,
    gamma: float,
    logged_loss: float,
    logged_mean_target: float,
    tol: float = 1e-12,
) -> None:
    """TD targets and squared-error loss of one batch, from per-action Q values.

    `batch` holds (state, action, reward, next_state, terminal); `q_value(state,
    action)` is the scorer the step started from, which is also its target net.
    """
    targets = []
    total = 0.0
    for state, action, reward, next_state, terminal in batch:
        if terminal:
            target = float(reward)
        else:
            target = float(reward) + gamma * max(q_value(next_state, a) for a in range(1, n_actions + 1))
        targets.append(target)
        total += (q_value(state, action) - target) ** 2
    loss = total * (1.0 / len(batch))
    mean_target = float(np.mean(targets))
    _require(_rel_err(mean_target, logged_mean_target) <= tol, f"mean target {logged_mean_target} != {mean_target}")
    _require(_rel_err(loss, logged_loss) <= tol, f"loss {logged_loss} != {loss}")


def gradient_coordinates(grads: dict[str, np.ndarray], names: Sequence[str]) -> list[tuple[str, tuple]]:
    """For each named parameter, the index of its largest-magnitude gradient entry."""
    return [(n, tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(grads[n])), grads[n].shape))) for n in names]


def check_gradients(
    loss: Callable[[], float],
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    coords: Sequence[tuple[str, tuple]],
    h: float = 1e-5,
    rtol: float = 1e-5,
    atol: float = 1e-9,
) -> None:
    """Central finite differences of `loss()` against `grads`, one coordinate at a time.

    `params` are the arrays `loss` reads; each is perturbed in place and restored.
    """
    for name, index in coords:
        array = params[name]
        saved = array[index]
        try:
            array[index] = saved + h
            up = loss()
            array[index] = saved - h
            down = loss()
        finally:
            array[index] = saved
        numeric = (up - down) / (2 * h)
        analytic = float(grads[name][index])
        _require(
            abs(numeric - analytic) <= atol + rtol * abs(numeric),
            f"d loss / d {name}{list(index)}: analytic {analytic:.10g}, finite difference {numeric:.10g}",
        )


def check_select_strategy(states: Sequence, select: Callable, q_value: Callable, n_actions: int) -> None:
    """select(state) must be the smallest-id argmax of q_value(state, a) over all actions."""
    for i, state in enumerate(states):
        expected = smallest_id_argmax([q_value(state, a) for a in range(1, n_actions + 1)])
        chosen = select(state)
        _require(chosen == expected, f"state {i}: select_strategy {chosen}, argmax of q_value {expected}")
