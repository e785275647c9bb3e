"""Shared skeleton of the scorer backends.

`Scorer` holds what both backends do the same way: seeded parameters checked
against `param_specs(config)`, copies and state dicts, the finiteness check on
Q(s, ·) and greedy selection.  A backend supplies `param_specs`, `encode`,
the code of a state (mlp: its feature row, seq: its prompt's token ids), and
the encoded path: `q_encoded`, Q(s, ·) for rows of a table of codes, and
`loss_and_grads_encoded`, the squared TD error of (row, action, target)
items with its gradient, differentiated by hand.  `encode_states` builds that
table.  `q_value`, `q_all`, `grad_q` and `loss_and_grads` take states; they
stay per class, where perfbench's tracer wraps them, and run `encode`, then
the forward and backward that the encoded path runs.
"""

from __future__ import annotations

import copy
from dataclasses import asdict
from typing import Optional, Union

import numpy as np

# (name, shape, init): init is "zero", "one", or the scale of a uniform(-scale, scale) weight
ParamSpec = tuple[str, tuple[int, ...], Union[str, float]]


class BackendMismatch(TypeError):
    """Operation requires the other scorer backend."""


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


def encode_states(scorer, states, catalog, vocab) -> tuple[list[np.ndarray], np.ndarray]:
    """The distinct codes of `states` and each state's row among them.

    Each state object is encoded once; states whose codes are equal, byte for
    byte, share one row.
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

    def _encode_items(self, items, catalog, vocab):
        """(state, action, target) items as (table, rows, actions, targets)."""
        if not items:
            raise ValueError("empty batch")
        table, rows = encode_states(self, [s for s, _, _ in items], catalog, vocab)
        actions = np.array([catalog.by_id(a).id for _, a, _ in items])
        targets = np.array([t for _, _, t in items], dtype=np.float64)
        return table, rows, actions, targets

    @staticmethod
    def _finite(values: np.ndarray) -> np.ndarray:
        if not np.isfinite(values).all():
            raise FloatingPointError("non-finite Q value")
        return values

    def forward(self, tokens) -> np.ndarray:
        raise BackendMismatch("token-level forward is only defined for the seq backend")

    def select_strategy(self, state, catalog, vocab=None) -> int:
        return argmax_smallest_id(self.q_all(state, catalog, vocab))
