"""Minimal reverse-mode automatic differentiation over numpy arrays.

No scorer uses it: both differentiate by hand.  It carries the test
oracles those hand-written backwards are checked against, the mlp and the
transformer on the tape (`tests/oracles.py`), and supports what they need:
elementwise arithmetic, matmul (batched), reductions, exp/log/tanh, indexed
gathers for embedding lookups and token selection, and composite softmax /
log-softmax / layer-norm / GELU built from those primitives.

Graphs are built eagerly; `backward` walks the tape once in reverse
topological order, so gradient accumulation order is fixed by construction
and results are bit-reproducible in single-threaded use.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union["Var", np.ndarray, float, int]


class Var:
    """A node in the differentiation tape wrapping one ndarray."""

    __slots__ = ("data", "grad", "_parents", "_vjp")
    __array_ufunc__ = None  # an ndarray on the left defers to the reflected operator

    def __init__(
        self,
        data,
        _parents: tuple["Var", ...] = (),
        _vjp: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None,
    ):
        self.data = np.asarray(data)
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Var(shape={self.data.shape}, leaf={self._vjp is None})"

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Var":
        return add(self, other)

    def __radd__(self, other: ArrayLike) -> "Var":
        return add(other, self)

    def __sub__(self, other: ArrayLike) -> "Var":
        return sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Var":
        return sub(other, self)

    def __mul__(self, other: ArrayLike) -> "Var":
        return mul(self, other)

    def __rmul__(self, other: ArrayLike) -> "Var":
        return mul(other, self)

    def __truediv__(self, other: ArrayLike) -> "Var":
        return div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Var":
        return div(other, self)

    def __neg__(self) -> "Var":
        return mul(self, -1.0)

    def __matmul__(self, other: ArrayLike) -> "Var":
        return matmul(self, other)

    def __rmatmul__(self, other: ArrayLike) -> "Var":
        return matmul(other, self)

    def __pow__(self, exponent: float) -> "Var":
        return power(self, exponent)


def as_var(x: ArrayLike, like: Optional[ArrayLike] = None) -> Var:
    """`x` on the tape; a Python scalar takes the dtype of a `Var` `like`, as
    numpy's weak scalars do, so float32 stays float32."""
    if isinstance(x, Var):
        return x
    if type(x) in (int, float) and isinstance(like, Var):
        return Var(np.asarray(x, dtype=like.data.dtype))
    return Var(np.asarray(x))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: ArrayLike, b: ArrayLike) -> Var:
    a, b = as_var(a, b), as_var(b, a)
    out = Var(a.data + b.data, (a, b))
    out._vjp = lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))
    return out


def sub(a: ArrayLike, b: ArrayLike) -> Var:
    a, b = as_var(a, b), as_var(b, a)
    out = Var(a.data - b.data, (a, b))
    out._vjp = lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))
    return out


def mul(a: ArrayLike, b: ArrayLike) -> Var:
    a, b = as_var(a, b), as_var(b, a)
    out = Var(a.data * b.data, (a, b))
    out._vjp = lambda g: (
        _unbroadcast(g * b.data, a.shape),
        _unbroadcast(g * a.data, b.shape),
    )
    return out


def div(a: ArrayLike, b: ArrayLike) -> Var:
    a, b = as_var(a, b), as_var(b, a)
    out = Var(a.data / b.data, (a, b))
    out._vjp = lambda g: (
        _unbroadcast(g / b.data, a.shape),
        _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
    )
    return out


def power(a: ArrayLike, exponent: float) -> Var:
    a = as_var(a)
    out = Var(a.data**exponent, (a,))
    out._vjp = lambda g: (g * exponent * a.data ** (exponent - 1.0),)
    return out


def matmul(a: ArrayLike, b: ArrayLike) -> Var:
    a, b = as_var(a), as_var(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    out = Var(a.data @ b.data, (a, b))

    def vjp(g: np.ndarray):
        da = g @ b.data.swapaxes(-1, -2)
        db = a.data.swapaxes(-1, -2) @ g
        return _unbroadcast(da, a.shape), _unbroadcast(db, b.shape)

    out._vjp = vjp
    return out


def exp(a: ArrayLike) -> Var:
    a = as_var(a)
    y = np.exp(a.data)
    out = Var(y, (a,))
    out._vjp = lambda g: (g * y,)  # captures the array, not `out`: no self-cycle
    return out


def log(a: ArrayLike) -> Var:
    a = as_var(a)
    out = Var(np.log(a.data), (a,))
    out._vjp = lambda g: (g / a.data,)
    return out


def tanh(a: ArrayLike) -> Var:
    a = as_var(a)
    y = np.tanh(a.data)
    out = Var(y, (a,))
    out._vjp = lambda g: (g * (1.0 - y * y),)
    return out


def vsum(a: ArrayLike, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)
    out = Var(a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def vjp(g: np.ndarray):
        gx = g
        if axis is not None and not keepdims:
            gx = np.expand_dims(gx, axis)
        return (np.broadcast_to(gx, a.shape),)

    out._vjp = vjp
    return out


def vmean(a: ArrayLike, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(vsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a: ArrayLike, shape: tuple[int, ...]) -> Var:
    a = as_var(a)
    out = Var(a.data.reshape(shape), (a,))
    out._vjp = lambda g: (g.reshape(a.shape),)
    return out


def swapaxes(a: ArrayLike, i: int, j: int) -> Var:
    a = as_var(a)
    out = Var(a.data.swapaxes(i, j), (a,))
    out._vjp = lambda g: (g.swapaxes(i, j),)
    return out


def take_rows(table: Var, ids: np.ndarray) -> Var:
    """Row gather, e.g. token-embedding lookup; scatter-adds on the way back."""
    out = Var(table.data[ids], (table,))

    def vjp(g: np.ndarray):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    out._vjp = vjp
    return out


def take_pairs(a: Var, rows: np.ndarray, cols: np.ndarray) -> Var:
    """Elementwise gather a[rows, cols] from a 2-D array."""
    out = Var(a.data[rows, cols], (a,))

    def vjp(g: np.ndarray):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, cols), g)
        return (ga,)

    out._vjp = vjp
    return out


# -- composites --------------------------------------------------------------


def log_softmax(x: ArrayLike, axis: int = -1) -> Var:
    """Numerically stable log-softmax; the max shift is a constant so the
    derivative is exactly identity-minus-softmax."""
    x = as_var(x)
    m = np.max(x.data, axis=axis, keepdims=True)
    shifted = sub(x, m)
    lse = log(vsum(exp(shifted), axis=axis, keepdims=True))
    return sub(shifted, lse)


def softmax(x: ArrayLike, axis: int = -1) -> Var:
    x = as_var(x)
    m = np.max(x.data, axis=axis, keepdims=True)
    e = exp(sub(x, m))
    return div(e, vsum(e, axis=axis, keepdims=True))


def layer_norm(x: ArrayLike, gain: Var, bias: Var, eps: float = 1e-5) -> Var:
    x = as_var(x)
    mu = vmean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = vmean(mul(centered, centered), axis=-1, keepdims=True)
    inv = power(add(var, eps), -0.5)
    return add(mul(mul(centered, inv), gain), bias)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(x: ArrayLike) -> Var:
    """tanh-approximation GELU."""
    x = as_var(x)
    inner = mul(add(x, mul(mul(mul(x, x), x), 0.044715)), _GELU_C)
    return mul(mul(x, add(tanh(inner), 1.0)), 0.5)


def backward(root: Var, seed: Optional[np.ndarray] = None) -> None:
    """Populate .grad on every reachable Var by one reverse sweep."""
    topo: list[Var] = []
    visited: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    root.grad = np.ones_like(root.data) if seed is None else np.asarray(seed)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if g is None:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g
