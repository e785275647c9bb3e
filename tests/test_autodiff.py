from __future__ import annotations

import gc
import operator
import weakref

import numpy as np
import pytest

import supportq.autodiff as ad


def numeric_grad(fn, x: np.ndarray, h: float = 1e-7) -> np.ndarray:
    """Elementwise central differences of a scalar-valued fn(x)."""
    g = np.zeros_like(x)
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + h
        fp = fn(x)
        x.flat[i] = orig - h
        fm = fn(x)
        x.flat[i] = orig
        g.flat[i] = (fp - fm) / (2 * h)
    return g


def check(fn_var, x: np.ndarray, atol=1e-7):
    """fn_var maps a Var to a scalar Var; compares backward() to numerics."""
    v = ad.Var(x.copy())
    out = fn_var(v)
    ad.backward(out)
    numeric = numeric_grad(lambda arr: float(fn_var(ad.Var(arr)).data), x.copy())
    assert v.grad is not None
    np.testing.assert_allclose(v.grad, numeric, atol=atol, rtol=1e-5)


RNG = np.random.default_rng(7)


class TestPrimitives:
    def test_add_mul_broadcast(self):
        b = RNG.normal(size=(4,))
        check(lambda v: ad.vsum(ad.mul(ad.add(v, b), v)), RNG.normal(size=(3, 4)))

    def test_sub_div(self):
        d = RNG.normal(size=(3, 4)) + 3.0
        check(lambda v: ad.vsum(ad.div(ad.sub(v, 1.5), d)), RNG.normal(size=(3, 4)))
        check(lambda v: ad.vsum(ad.div(2.0, ad.add(v, 5.0))), RNG.normal(size=(4,)))

    def test_power(self):
        check(lambda v: ad.vsum(ad.power(v, 3.0)), RNG.normal(size=(5,)))

    def test_matmul_2d(self):
        b = RNG.normal(size=(4, 2))
        check(lambda v: ad.vsum(ad.matmul(v, b)), RNG.normal(size=(3, 4)))

    def test_matmul_batched(self):
        b = RNG.normal(size=(2, 4, 3))  # batch of matrices
        check(lambda v: ad.vsum(ad.matmul(v, b)), RNG.normal(size=(2, 5, 4)))

    def test_matmul_broadcasts_over_batch(self):
        b = RNG.normal(size=(2, 4, 3))
        check(lambda v: ad.vsum(ad.matmul(v, b)), RNG.normal(size=(5, 4)))

    def test_unary(self):
        check(lambda v: ad.vsum(ad.exp(v)), RNG.normal(size=(6,)))
        check(lambda v: ad.vsum(ad.log(v)), RNG.uniform(0.5, 2.0, size=(6,)))
        check(lambda v: ad.vsum(ad.tanh(v)), RNG.normal(size=(6,)))

    def test_reductions_and_shapes(self):
        check(lambda v: ad.vsum(ad.vmean(v, axis=1)), RNG.normal(size=(3, 5)))
        check(lambda v: ad.vsum(ad.mul(ad.reshape(v, (2, 6)), 2.0)), RNG.normal(size=(3, 4)))
        check(lambda v: ad.vsum(ad.power(ad.swapaxes(v, 0, 1), 2.0)), RNG.normal(size=(3, 4)))
        check(lambda v: ad.vsum(ad.vsum(v, axis=0, keepdims=True)), RNG.normal(size=(3, 4)))

    def test_take_rows(self):
        ids = np.array([1, 0, 1, 2])
        check(lambda v: ad.vsum(ad.power(ad.take_rows(v, ids), 2.0)), RNG.normal(size=(4, 3)))

    def test_take_pairs_with_duplicates(self):
        rows = np.array([0, 1, 0])
        cols = np.array([2, 2, 2])
        check(lambda v: ad.vsum(ad.power(ad.take_pairs(v, rows, cols), 2.0)), RNG.normal(size=(3, 4)))


class TestComposites:
    def test_log_softmax_rows_normalize(self):
        x = ad.Var(RNG.normal(size=(3, 7)))
        out = ad.log_softmax(x)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=-1), 1.0, atol=1e-12)

    def test_log_softmax_shift_invariance_exact(self):
        x = RNG.normal(size=(2, 5))
        a = ad.log_softmax(ad.Var(x)).data
        b = ad.log_softmax(ad.Var(x + 123.456)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_grad(self):
        check(lambda v: ad.vsum(ad.take_pairs(ad.log_softmax(v), np.array([0, 1]), np.array([2, 0]))),
              RNG.normal(size=(2, 5)))

    def test_softmax_grad(self):
        check(lambda v: ad.vsum(ad.power(ad.softmax(v), 2.0)), RNG.normal(size=(3, 4)))

    def test_layer_norm_grad(self):
        g = ad.Var(RNG.normal(size=(4,)))
        b = ad.Var(RNG.normal(size=(4,)))
        check(lambda v: ad.vsum(ad.layer_norm(v, g, b)), RNG.normal(size=(3, 4)))

    def test_gelu_grad_and_values(self):
        check(lambda v: ad.vsum(ad.gelu(v)), RNG.normal(size=(8,)))
        out = ad.gelu(ad.Var(np.array([0.0, 100.0, -100.0]))).data
        np.testing.assert_allclose(out, [0.0, 100.0, 0.0], atol=1e-10)


def test_backward_accumulation_is_deterministic():
    x = np.arange(12.0).reshape(3, 4)

    def build():
        v = ad.Var(x.copy())
        out = ad.vsum(ad.mul(ad.softmax(v), ad.tanh(v)))
        ad.backward(out)
        return v.grad

    g1, g2 = build(), build()
    assert np.array_equal(g1, g2)


def test_operator_sugar_matches_functions():
    a = ad.Var(np.array([[1.0, 2.0]]))
    b = ad.Var(np.array([[3.0], [4.0]]))
    out = ((a @ b) * 2.0 - 1.0) / 2.0
    assert out.data.item() == pytest.approx((1 * 3 + 2 * 4) * 2 / 2 - 0.5)


@pytest.mark.parametrize("op", [ad.exp, ad.tanh])
def test_forward_tape_is_freed_without_the_cyclic_collector(op):
    # a node whose VJP closure referenced its own Var would form a cycle
    # and keep the whole tape alive until gc runs
    gc.disable()
    try:
        out = op(ad.Var(np.linspace(-1.0, 1.0, 5)))
        ref = weakref.ref(out.data)
        del out
        assert ref() is None
    finally:
        gc.enable()


def test_ndarray_on_the_left_defers_to_var():
    x = RNG.normal(size=(3,))
    v = ad.Var(x.copy())
    out = np.full(3, 2.5) * v
    assert isinstance(out, ad.Var)
    ad.backward(ad.vsum(out))
    np.testing.assert_array_equal(v.grad, np.full(3, 2.5))

    a = RNG.normal(size=(2, 3))
    w = ad.Var(RNG.normal(size=(3, 1)))
    out = a @ w
    assert isinstance(out, ad.Var)
    np.testing.assert_array_equal(out.data, a @ w.data)
    ad.backward(ad.vsum(out))
    np.testing.assert_allclose(w.grad, a.sum(axis=0)[:, None], rtol=1e-15)


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_python_scalars_keep_the_var_dtype(op):
    # numpy treats a Python scalar as weak and an np.float64 scalar as strong; the tape does too
    x = RNG.normal(size=3).astype(np.float32)
    for left, right in ((x, 0.5), (2, x), (x, np.float64(0.5))):
        out = getattr(ad, op)(*(ad.Var(v) if v is x else v for v in (left, right)))
        assert out.data.dtype == getattr(operator, op.replace("div", "truediv"))(left, right).dtype
    v = ad.Var(x)
    out = getattr(ad, op)(ad.vsum(v), 3.0)
    ad.backward(out)
    assert out.data.dtype == v.grad.dtype == np.float32
