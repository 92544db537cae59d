"""Forward values and analytic gradients of the tensor engine."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from skeltext import autograd as ag
from skeltext.autograd import NonFiniteError, ShapeError, Tensor


def numeric_grad(loss_fn, arr: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences, coordinate by coordinate."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn()
        flat[i] = orig - eps
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def analytic_grad(build_loss, x: Tensor) -> np.ndarray:
    x.retain_grad = True
    x._track = True
    x.grad = None
    build_loss(x).backward()
    return x.grad.copy()


def assert_grad_matches(build_loss, shape, seed=0, tol=1e-6):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=shape))
    got = analytic_grad(build_loss, x)
    want = numeric_grad(lambda: build_loss(Tensor(x.data)).item(), x.data)
    assert np.max(np.abs(got - want)) < tol, f"max abs err {np.max(np.abs(got - want))}"


def test_softmax_uniform_on_equal_logits():
    out = ag.softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [0.25, 0.25, 0.25, 0.25])


def test_relu_definition():
    out = ag.relu(Tensor([-3.0, 2.5, 0.0]))
    assert out.data.tolist() == [0.0, 2.5, 0.0]


def test_matmul_identity():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3))
    out = Tensor(np.eye(3)) @ Tensor(a)
    assert np.allclose(out.data, a)


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\)"):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


def test_add_shape_error():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros((4, 5)))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = Tensor(rng.normal(scale=5.0, size=(4, 7)))
        y = ag.softmax(x, axis=-1)
        assert np.all(y.data >= 0)
        assert np.allclose(y.data.sum(axis=-1), 1.0, atol=1e-9)


def test_layer_norm_statistics_before_affine():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(6, 32)))
    gain = Tensor(np.ones(32))
    bias = Tensor(np.zeros(32))
    y = ag.layer_norm(x, gain, bias).data
    assert np.all(np.abs(y.mean(axis=-1)) < 1e-9)
    assert np.all(np.abs(y.var(axis=-1) - 1.0) < 1e-6)


@pytest.mark.parametrize(
    "name,builder,shape",
    [
        ("add_broadcast", lambda x: (x + Tensor(np.arange(4.0))).sum(), (3, 4)),
        ("mul_broadcast", lambda x: (x * Tensor(np.arange(1.0, 5.0))).sum(), (3, 4)),
        ("matmul", lambda x: (x @ Tensor(np.arange(12.0).reshape(4, 3))).sum(), (2, 4)),
        ("batched_matmul", lambda x: (x @ Tensor(np.arange(24.0).reshape(2, 4, 3))).sum(), (2, 5, 4)),
        ("relu", lambda x: x.relu().sum(), (4, 4)),
        ("exp", lambda x: x.exp().sum(), (3, 3)),
        ("log", lambda x: (x * x + 1.0).log().sum(), (3, 3)),
        ("mean_axis", lambda x: (x.mean(axis=1) * Tensor(np.arange(3.0))).sum(), (3, 5)),
        ("sum_keepdims", lambda x: (x.sum(axis=0, keepdims=True) * 2.0).sum(), (3, 5)),
        ("transpose", lambda x: (x.transpose() @ Tensor(np.ones((3, 2)))).sum(), (3, 4)),
        ("reshape", lambda x: (x.reshape(6, 2) @ Tensor(np.ones((2, 1)))).sum(), (3, 4)),
        ("getitem_slice", lambda x: x[1:, :2].sum(), (4, 4)),
        (
            "getitem_fancy",
            lambda x: x[np.array([0, 2, 2])].sum(),
            (4, 3),
        ),
        (
            "concat",
            lambda x: ag.concat([x[:2], x[2:]], axis=0).exp().sum(),
            (4, 3),
        ),
        ("softmax", lambda x: (ag.softmax(x) * Tensor(np.arange(12.0).reshape(3, 4))).sum(), (3, 4)),
        (
            "log_softmax",
            lambda x: (ag.log_softmax(x) * Tensor(np.arange(12.0).reshape(3, 4))).sum(),
            (3, 4),
        ),
        (
            "layer_norm_x",
            lambda x: (
                ag.layer_norm(x, Tensor(np.full(6, 1.3)), Tensor(np.full(6, 0.2)))
                * Tensor(np.arange(18.0).reshape(3, 6))
            ).sum(),
            (3, 6),
        ),
        ("fanout_dag", lambda x: ((x + x) * x).sum(), (3, 3)),
    ],
)
def test_op_gradients_match_finite_differences(name, builder, shape):
    import zlib

    assert_grad_matches(builder, shape, seed=zlib.crc32(name.encode()))


def test_embedding_lookup_gradient_scatter():
    rng = np.random.default_rng(5)
    table = Tensor(rng.normal(size=(6, 4)))
    ids = np.array([1, 1, 5, 0])
    got = analytic_grad(lambda t: (ag.embedding_lookup(t, ids) * 2.0).sum(), table)
    want = np.zeros((6, 4))
    for i in ids:
        want[i] += 2.0
    assert np.allclose(got, want)


def test_embedding_lookup_range_check():
    with pytest.raises(ShapeError):
        ag.embedding_lookup(Tensor(np.zeros((3, 2))), np.array([3]))


def test_non_finite_is_an_error_state():
    with pytest.raises(NonFiniteError):
        Tensor([np.inf, 1.0])
    with pytest.raises(NonFiniteError):
        Tensor([np.nan])
    with pytest.raises(NonFiniteError):
        ag.log(Tensor([0.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_finiteness_probe_rejects_each_non_finite_value(bad):
    arr = np.ones((3, 4))
    arr[2, 1] = bad
    with pytest.raises(NonFiniteError):
        Tensor(arr)


def test_finiteness_probe_accepts_values_whose_sum_overflows():
    arr = np.full((4, 8), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(Tensor(arr).data == 1e308)
        assert np.all(Tensor(-arr).data == -1e308)


def test_no_grad_disables_tape():
    x = Tensor(np.ones((2, 2)), retain_grad=True)
    with ag.no_grad():
        y = (x * 3.0).sum()
    assert y._parents == ()
    y2 = (x * 3.0).sum()
    assert y2._parents != ()


def test_backward_accumulates_into_retained_grads():
    x = Tensor(np.ones(3), retain_grad=True)
    x.grad = np.zeros(3)
    (x * 2.0).sum().backward()
    (x * 2.0).sum().backward()
    assert np.allclose(x.grad, 4.0)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), retain_grad=True)
    with pytest.raises(ShapeError):
        (x * 1.0).backward()
