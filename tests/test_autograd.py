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


# -- fused ops and the leaner backward ---------------------------------------

def _leaf(rng, shape, transposed=False):
    """A retained leaf; `transposed` gives it a non-C-contiguous (transposed) buffer."""
    data = rng.normal(size=shape[::-1]).T if transposed else rng.normal(size=shape)
    return Tensor(data, retain_grad=True)


def _run(build, inputs, weights):
    """Output bytes and every input gradient's bytes of sum(build(*inputs) * weights)."""
    leaves = [Tensor(x, retain_grad=True) for x in inputs]
    out = build(*leaves)
    (out * Tensor(weights)).sum().backward()
    return [out.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves]


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
def test_linear_matches_matmul_plus_bias_to_the_bit(bias):
    rng = np.random.default_rng(20)
    inputs = [rng.normal(size=(7, 5)), rng.normal(size=(5, 3))]
    if bias:
        inputs.append(rng.normal(size=(3,)))
    weights = rng.normal(size=(7, 3))

    def composed(x, w, b=None):
        out = x @ w
        return out + b if b is not None else out

    assert _run(ag.linear, inputs, weights) == _run(composed, inputs, weights)


@pytest.mark.parametrize("shape", [(4, 2, 6), (6,), (2, 3, 4)])
def test_linear_rejects_inputs_that_are_not_2d(shape):
    w = Tensor(np.zeros((shape[-1], 3)))
    with pytest.raises(ShapeError, match="2-D"):
        ag.linear(Tensor(np.zeros(shape)), w)


def _composed_attention(q, k, v, scale, mask):
    order = list(range(k.ndim))
    order[-1], order[-2] = order[-2], order[-1]
    scores = (q @ k.transpose(*order)) * scale
    if mask is not None:
        scores = scores + Tensor(mask)
    return ag.softmax(scores, axis=-1) @ v


def _heads(x, h):
    """(T, h*d) -> (h, T, d): the strided view multi-head attention attends over."""
    t = x.shape[0]
    return x.reshape(t, h, x.shape[1] // h).transpose(1, 0, 2)


@pytest.mark.parametrize(
    "q_shape,k_shape,causal,split",
    [
        ((4, 6), (5, 6), False, False),  # 2-D
        ((2, 5, 4), (2, 5, 4), False, False),  # (h, T, d) self-attention
        ((2, 5, 4), (2, 5, 4), True, False),  # ... with the causal mask
        ((3, 2, 1, 4), (3, 2, 6, 4), False, False),  # incremental step (B, h, 1, d)
        ((2, 3, 4), (2, 7, 4), False, False),  # cross-attention (h, Tq, d) over (h, Tk, d)
        ((5, 8), (5, 8), True, True),  # heads split from (T, h*d) rows, causal
        ((3, 8), (6, 8), False, True),  # heads split, cross-attention
    ],
    ids=["2d", "self", "self_causal", "step", "cross", "split_causal", "split_cross"],
)
def test_attention_matches_the_composed_ops_to_the_bit(q_shape, k_shape, causal, split):
    from skeltext.nn import causal_mask

    rng = np.random.default_rng(21)
    inputs = [rng.normal(size=q_shape), rng.normal(size=k_shape), rng.normal(size=k_shape)]
    d = q_shape[-1] // 2 if split else q_shape[-1]
    scale = 1.0 / float(np.sqrt(d))
    mask = causal_mask(q_shape[-2]) if causal else None
    out_shape = (2, q_shape[0], d) if split else q_shape

    def attend(op):
        def build(q, k, v):
            if split:
                q, k, v = (_heads(t, 2) for t in (q, k, v))
            return op(q, k, v, scale, mask)
        return build

    weights = rng.normal(size=out_shape)
    got = _run(attend(ag.attention), inputs, weights)
    want = _run(attend(_composed_attention), inputs, weights)
    assert got == want


def test_attention_is_one_tape_node():
    rng = np.random.default_rng(22)
    q, k, v = (_leaf(rng, (2, 3, 4)) for _ in range(3))
    out = ag.attention(q, k, v, 0.5, None)
    assert out._parents == (q, k, v)


def test_backward_gives_untracked_constants_no_gradient():
    rng = np.random.default_rng(23)
    x = _leaf(rng, (3, 4))
    const = Tensor(rng.normal(size=(3, 4)))
    bias = Tensor(rng.normal(size=(4,)))
    ((x * const) + bias).sum().backward()
    assert x.grad is not None
    assert const.grad is None and bias.grad is None
    assert not const.tracked


def test_every_retained_gradient_is_c_contiguous():
    # Transposed buffers, transposes and head splits all hand back strided views.
    rng = np.random.default_rng(24)
    x = _leaf(rng, (5, 8), transposed=True)
    w = _leaf(rng, (8, 8), transposed=True)
    b = _leaf(rng, (8,))
    m = _leaf(rng, (6, 8), transposed=True)
    u = _leaf(rng, (8, 5))  # its one gradient arrives as a transposed view
    h = ag.linear(x, w, b)
    ctx = ag.attention(_heads(h, 2), _heads(m, 2), _heads(m, 2), 0.5, None)
    loss = ((ctx.transpose(1, 0, 2).reshape(5, 8) + u.transpose()) @ w.transpose()).sum()
    loss.backward()
    for leaf in (x, w, b, m, u):
        assert leaf.grad.flags["C_CONTIGUOUS"]


def test_every_gradient_an_op_backward_reads_is_c_contiguous():
    # transpose() hands its parent a strided view; the parent's backward must
    # still read a C-contiguous gradient, or BLAS may take another path.
    rng = np.random.default_rng(26)
    layouts = []

    def probe(t):
        def bw(g):
            layouts.append(g.flags["C_CONTIGUOUS"])
            return (g,)

        return ag._make(t.data, (t,), bw, "probe")

    x = _leaf(rng, (3, 4))
    (probe(x).transpose() @ Tensor(rng.normal(size=(3, 2)))).sum().backward()
    assert layouts == [True]


def test_two_backward_calls_accumulate_to_the_sum():
    from skeltext.nn import Parameter

    rng = np.random.default_rng(25)
    p = Parameter(rng.normal(size=(4, 3)))
    x1, x2 = Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(5, 4)))
    grads = []
    for x in (x1, x2):
        p.grad[...] = 0.0
        ag.linear(x, p).exp().sum().backward()
        grads.append(p.grad.copy())
    p.grad[...] = 0.0
    for x in (x1, x2):
        ag.linear(x, p).exp().sum().backward()
    assert np.array_equal(p.grad, grads[0] + grads[1])


def test_gradients_handed_to_two_parents_are_not_shared():
    # add() hands one array to both operands; zeroing one must not touch the other.
    a = Tensor(np.ones(3), retain_grad=True)
    b = Tensor(np.ones(3), retain_grad=True)
    (a + b).sum().backward()
    assert a.grad is not b.grad
    a.grad[...] = 0.0
    assert np.array_equal(b.grad, np.ones(3))
    (a + b).sum().backward()
    assert np.array_equal(a.grad, np.ones(3)) and np.array_equal(b.grad, 2 * np.ones(3))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_error_names_the_op():
    with pytest.raises(NonFiniteError, match="from log$"):
        ag.log(Tensor([0.0]))
    with pytest.raises(NonFiniteError, match="from linear$"):
        ag.linear(Tensor([[1e200, 1e200]]), Tensor([[1e200], [1e200]]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_attention_raises_on_overflowing_scores_the_softmax_would_hide():
    # Scores [-inf, 1e200]: the softmax is a finite one-hot, but the score overflowed.
    q = Tensor([[1e200]])
    k = Tensor([[-1e200], [1.0]])
    v = Tensor([[1.0], [2.0]])
    with pytest.raises(NonFiniteError, match="from attention$"):
        ag.attention(q, k, v, 1.0, None)
    with ag.no_grad():
        with pytest.raises(NonFiniteError, match="from attention$"):
            ag.attention(q, k, v, 1.0, None)
