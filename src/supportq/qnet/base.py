"""Shared skeleton of the scorer backends.

A backend supplies its own math: `param_specs`; `encode`, the code of a
state (mlp: its feature row, seq: its prompt's token ids); `q_encoded`,
Q(s, ·) for rows of a table of codes, which `encode_states` builds; and
`_pullback`, the Q of (row, action) items and the gradient of Σ dq·Q,
differentiated by hand.  `Scorer` writes the rest once: seeded parameters,
copies and state dicts, the finiteness check on Q, `q_all` and `q_value`
(one row of a one-row `q_encoded`), `grad_q` (the pullback with dq = 1),
the squared TD loss `loss_and_grads_encoded` (dq = (Q - target) · 2 / B)
and its state-taking form `loss_and_grads`, and greedy selection.
`select_strategies` decides a list of states with one `q_encoded` call over
their distinct codes, the smallest-id argmax of each row mapped back to the
states; eval decides its test set this way.

A backend's Q(s, ·) is one function of s: from any read (`q_all`,
`q_value`, `select_strategy`) it equals s's row of any `q_encoded` call,
bit for bit, whatever other rows share that call.  So greedy decisions one
state at a time agree with `select_strategies`, and `td_target` with the
trainer's batched targets.
"""

from __future__ import annotations

import copy
from dataclasses import asdict
from typing import Optional, Union

import numpy as np

# (name, shape, init): init is "zero", "one", or the scale of a uniform(-scale, scale) weight
ParamSpec = tuple[str, tuple[int, ...], Union[str, float]]

_ROW = np.zeros(1, dtype=np.intp)  # the one row of a one-state table


def init_params(specs: list[ParamSpec], seed: int, dtype) -> dict[str, np.ndarray]:
    """Seeded weights, drawn in spec order; zero biases, unit gains."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape, init in specs:
        if init == "zero":
            params[name] = np.zeros(shape, dtype=dtype)
        elif init == "one":
            params[name] = np.ones(shape, dtype=dtype)
        else:
            params[name] = rng.uniform(-init, init, size=shape).astype(dtype)
    return params


def argmax_smallest_id(values: np.ndarray) -> int:
    """Strategy id (1-based) of the maximum entry; ties go to the smallest id."""
    return int(np.argmax(values)) + 1


def encode_states(scorer, states, catalog, vocab) -> tuple[Union[list[np.ndarray], np.ndarray], np.ndarray]:
    """The distinct codes of `states` and each state's row among them.

    Each state object is encoded once; states whose codes are equal, byte for
    byte, share one row.  Codes of one shape (mlp's feature rows always,
    seq's token ids when every prompt has one length) come back stacked into
    one array, so a batch of rows is `table[rows]`; otherwise the table is a
    list, indexed one row at a time.
    """
    table: list[np.ndarray] = []
    by_value: dict[bytes, int] = {}
    by_object: dict[int, int] = {}
    rows = np.empty(len(states), dtype=np.intp)
    for n, state in enumerate(states):  # `states` keeps every object alive, so ids stay unique
        row = by_object.get(id(state))
        if row is None:
            code = scorer.encode(state, catalog, vocab)
            row = by_object[id(state)] = by_value.setdefault(code.tobytes(), len(table))
            if row == len(table):
                table.append(code)
        rows[n] = row
    if table and all(code.shape == table[0].shape for code in table):
        return np.stack(table), rows
    return table, rows


class Scorer:
    backend: str
    default_learning_rate: float  # Adam step size when the trainer sets none
    dtype = np.float64  # float type of the parameters

    def __init__(self, config, seed: int = 0, params: Optional[dict[str, np.ndarray]] = None):
        self.config = config
        specs = self.param_specs(config)
        if params is None:
            params = init_params(specs, seed, self.dtype)
        else:
            expected = {n: s for n, s, _ in specs}
            if set(params) != set(expected):
                raise ValueError("parameter names do not match the configuration")
            for n, arr in params.items():
                if tuple(arr.shape) != expected[n]:
                    raise ValueError(f"shape mismatch for {n}: {arr.shape} vs {expected[n]}")
        self.params = params

    @staticmethod
    def param_specs(config) -> list[ParamSpec]:
        raise NotImplementedError

    def encode(self, state, catalog, vocab=None) -> np.ndarray:
        """The code of `state`: everything Q(state, ·) reads from it."""
        raise NotImplementedError

    def clone(self):
        twin = copy.copy(self)
        twin.params = {n: a.copy() for n, a in self.params.items()}
        return twin

    def state_dict(self) -> dict[str, np.ndarray]:
        return self.params

    def load_state_dict(self, params: dict[str, np.ndarray]) -> None:
        for name in self.params:
            self.params[name] = params[name].copy()

    def config_dict(self) -> dict:
        return asdict(self.config)

    @staticmethod
    def _finite(values: np.ndarray) -> np.ndarray:
        if not np.isfinite(values).all():
            raise FloatingPointError("non-finite Q value")
        return values

    def _pullback(self, table, rows, actions, dq_of, catalog, vocab=None):
        """Q of each item (`table[row]`, action), shape (len(rows),), and the
        gradient of Σ dq·Q with respect to every parameter, where
        `dq_of(q, items)` gives the dq of the items `items` indexes once a
        pass has computed their Q `q`."""
        raise NotImplementedError

    def _q_row(self, state, catalog, vocab) -> np.ndarray:
        """Q(state, ·), read by both `q_all` and `q_value`, so a `q_value` call is no `q_all` call."""
        return self.q_encoded(self.encode(state, catalog, vocab)[None], _ROW, catalog, vocab)[0]

    def q_all(self, state, catalog, vocab=None) -> np.ndarray:
        return self._q_row(state, catalog, vocab)

    def q_value(self, state, action: int, catalog, vocab=None) -> float:
        catalog.by_id(action)
        return float(self._q_row(state, catalog, vocab)[action - 1])

    def grad_q(self, state, action: int, catalog, vocab=None) -> dict[str, np.ndarray]:
        """Analytic gradient of q_value with respect to every parameter."""
        catalog.by_id(action)
        table = self.encode(state, catalog, vocab)[None]
        return self._pullback(table, _ROW, np.array([action]), lambda q, n: np.ones_like(q), catalog, vocab)[1]

    def loss_and_grads_encoded(
        self, table, rows, actions: np.ndarray, targets: np.ndarray, catalog, vocab=None
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean squared TD error of the items (table[row], action, target) and
        its gradient, from one pullback with dq = (Q - target) (2 / B)."""
        scale = 2.0 / len(rows)
        q, grads = self._pullback(table, rows, actions, lambda q, n: (q - targets[n]) * scale, catalog, vocab)
        diff = self._finite(q) - targets
        return float((diff * diff).mean()), grads

    def loss_and_grads(self, items, catalog, vocab=None) -> tuple[float, dict[str, np.ndarray]]:
        """`loss_and_grads_encoded` of (state, action, target) items."""
        if not items:
            raise ValueError("empty batch")
        table, rows = encode_states(self, [s for s, _, _ in items], catalog, vocab)
        actions = np.array([catalog.by_id(a).id for _, a, _ in items])
        targets = np.array([t for _, _, t in items], dtype=np.float64)
        return self.loss_and_grads_encoded(table, rows, actions, targets, catalog, vocab)

    def select_strategy(self, state, catalog, vocab=None) -> int:
        return argmax_smallest_id(self.q_all(state, catalog, vocab))

    def select_strategies(self, states, catalog, vocab=None) -> list[int]:
        """`select_strategy` of every state, from one `q_encoded` call over
        the distinct codes of `states`."""
        if not states:
            return []
        table, rows = encode_states(self, states, catalog, vocab)
        q = self.q_encoded(table, np.arange(len(table)), catalog, vocab)
        return (np.argmax(q, axis=1) + 1)[rows].tolist()  # the first maximum: ties go to the smallest id
