"""Shared skeleton of the scorer backends.

`Scorer` holds what both backends do the same way: seeded parameters checked
against `param_specs(config)`, copies and state dicts, the finiteness check on
Q(s, ·) and greedy selection.  A backend supplies `param_specs` and `_q`,
Q(s, ·) from one pass; `q_value`, `q_all` and `loss_and_grads` stay per class,
where perfbench's tracer wraps them.  The autodiff-tape `grad_q` and the
gathering of gradients off the tape serve mlp only: seq differentiates its
transformer by hand and overrides `grad_q`.
"""

from __future__ import annotations

import copy
from dataclasses import asdict
from typing import Optional, Union

import numpy as np

from .. import autodiff as ad

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

    def _param_vars(self) -> dict[str, ad.Var]:
        return {n: ad.Var(a) for n, a in self.params.items()}

    def grad_q(self, state, action: int, catalog, vocab=None) -> dict[str, np.ndarray]:
        """Analytic gradient of q_value with respect to every parameter, off
        the tape of `_q(state, catalog, vocab, params, autodiff)`."""
        catalog.by_id(action)
        pv = self._param_vars()
        return self._grads(ad.take_rows(self._q(state, catalog, vocab, pv, ad), action - 1), pv)

    @staticmethod
    def _grads(out: ad.Var, pv: dict[str, ad.Var]) -> dict[str, np.ndarray]:
        """Gradient of the scalar `out` with respect to every parameter in `pv`."""
        ad.backward(out)
        return {
            n: (v.grad if v.grad is not None else np.zeros_like(v.data)) for n, v in pv.items()
        }

    @staticmethod
    def _finite(values: np.ndarray) -> np.ndarray:
        if not np.isfinite(values).all():
            raise FloatingPointError("non-finite Q value")
        return values

    def forward(self, tokens) -> np.ndarray:
        raise BackendMismatch("token-level forward is only defined for the seq backend")

    def select_strategy(self, state, catalog, vocab=None) -> int:
        return argmax_smallest_id(self.q_all(state, catalog, vocab))
