"""Forward values and analytic gradients of the tensor engine."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from skeltext import autograd as ag
from skeltext.autograd import NonFiniteError, ShapeError, Tensor
from skeltext.nn import MultiHeadAttention, causal_mask

from helpers import composed_attention, composed_keys_values, composed_step, reshape


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
        # exp has no op of its own: softmax over the first axis is its remaining use
        ("exp", lambda x: (ag.softmax(x, axis=0) * Tensor(np.arange(9.0).reshape(3, 3))).sum(), (3, 3)),
        ("log", lambda x: (x * x + 1.0).log().sum(), (3, 3)),
        ("mean_axis", lambda x: (x.sum(axis=1) * 0.2 * Tensor(np.arange(3.0))).sum(), (3, 5)),
        ("sum_keepdims", lambda x: (x.sum(axis=0, keepdims=True) * 2.0).sum(), (3, 5)),
        ("transpose", lambda x: (x.transpose() @ Tensor(np.ones((3, 2)))).sum(), (3, 4)),
        ("reshape", lambda x: (reshape(x, (6, 2)) @ Tensor(np.ones((2, 1)))).sum(), (3, 4)),
        ("getitem_slice", lambda x: x[1:, :2].sum(), (4, 4)),
        (
            "getitem_fancy",
            lambda x: x[np.array([0, 2, 2])].sum(),
            (4, 3),
        ),
        (
            "concat",
            lambda x: (ag.concat([x[:2], x[2:]], axis=0) * Tensor(np.arange(12.0).reshape(4, 3))).sum(),
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


def _module_run(attn, build, inputs, weights):
    """Like _run, with the attention module's parameters counted as inputs too."""
    leaves = [Tensor(x, retain_grad=True) for x in inputs]
    params = attn.parameters()
    for p in params:
        p.grad[...] = 0.0
    outs = build(*leaves)
    sum((out * Tensor(w)).sum() for out, w in zip(outs, weights)).backward()
    grads = [leaf.grad for leaf in leaves] + [p.grad for p in params]
    return [out.data.tobytes() for out in outs] + [g.tobytes() for g in grads]


# (case, n_heads, rows of x, rows of memory or None for self-attention, causal)
@pytest.mark.parametrize(
    "case,n_heads,t_q,t_k,causal",
    [
        ("self", 1, 5, None, False),  # one head: the split leaves the rows whole
        ("self", 2, 5, None, False),
        ("self", 2, 5, None, True),
        ("step", 2, 3, 4, False),  # (B, h, 1, d_head) rows over a reordered cache
        ("cross", 2, 3, 7, False),  # full pass over a separate memory
        ("self", 4, 6, None, True),  # four heads of width 2, causal
        ("memoized", 2, 3, 6, False),  # one keys_values() output shared by two query sets
    ],
    ids=["2d", "self", "self_causal", "step", "cross", "split_causal", "split_cross"],
)
def test_attention_matches_the_composed_ops_to_the_bit(case, n_heads, t_q, t_k, causal):
    rng = np.random.default_rng(21)
    d = 8
    attn = MultiHeadAttention(rng, d, n_heads)
    for p in attn.parameters():  # non-zero biases
        p.data[...] = rng.normal(size=p.shape)
    mask = causal_mask(t_q) if causal else None
    x = rng.normal(size=(t_q, d))
    weights = [rng.normal(size=(t_q, d))]
    if case == "self":
        inputs = [x]

        def fused(x):
            return (attn(x, x, mask),)

        def composed(x):
            return (composed_attention(attn, x, x, mask),)
    elif case == "cross":
        inputs = [x, rng.normal(size=(t_k, d))]

        def fused(x, m):
            return (attn(x, m),)

        def composed(x, m):
            return (composed_attention(attn, x, m),)
    elif case == "memoized":
        inputs = [x, rng.normal(size=(5, d)), rng.normal(size=(t_k, d))]
        weights.append(rng.normal(size=(5, d)))

        def fused(x1, x2, m):
            kv = attn.keys_values(m)
            return attn(x1, m, None, kv), attn(x2, m, None, kv)

        def composed(x1, x2, m):
            kv = composed_keys_values(attn, m)
            return composed_attention(attn, x1, m, None, kv), composed_attention(attn, x2, m, None, kv)
    else:  # step: 2 cached hypotheses of t_k positions, reordered to t_q rows
        parents = np.array([1, 0, 1])
        cache = rng.normal(size=(2, 2, n_heads, t_k, d // n_heads))
        inputs = [x, cache[0], cache[1]]

        def fused(x, past_k, past_v):
            past = ag.concat([reshape(t, (1,) + t.shape) for t in (past_k, past_v)], axis=0)
            kv = attn.keys_values(x, past[:, parents])
            return (attn(x, x, None, kv),)

        def composed(x, past_k, past_v):
            return (composed_step(attn, x, past_k[parents], past_v[parents]),)

    assert _module_run(attn, fused, inputs, weights) == _module_run(attn, composed, inputs, weights)


def test_attention_is_one_tape_node():
    rng = np.random.default_rng(22)
    x, m = _leaf(rng, (3, 4)), _leaf(rng, (5, 4))
    wq, wk, wv, wo = (_leaf(rng, (4, 4)) for _ in range(4))
    bq, bk, bv, bo = (_leaf(rng, (4,)) for _ in range(4))
    kv = ag.keys_values(m, wk, bk, wv, bv)
    out = ag.attention(x, kv, wq, bq, wo, bo, 2)
    # The query side first, then the keys and values: the order the composed
    # graph's backward reached them in. The memory gets its key gradient, then
    # its value gradient.
    assert out._parents == (x, kv, wq, bq, wo, bo)
    assert kv._parents == (m, m, wk, bk, wv, bv)
    assert kv.shape == (2, 5, 4)


def test_residual_layer_norm_matches_the_composed_ops_to_the_bit():
    rng = np.random.default_rng(27)
    inputs = [rng.normal(size=(5, 6)), rng.normal(size=(5, 6)), rng.normal(size=6), rng.normal(size=6)]
    weights = rng.normal(size=(5, 6))

    def fused(x, r, gain, bias):
        return ag.layer_norm(x, gain, bias, residual=r)

    def composed(x, r, gain, bias):
        return ag.layer_norm(x + r, gain, bias)

    assert _run(fused, inputs, weights) == _run(composed, inputs, weights)


def test_feed_forward_matches_the_composed_ops_to_the_bit():
    rng = np.random.default_rng(28)
    inputs = [rng.normal(size=(5, 6)), rng.normal(size=(6, 9)), rng.normal(size=9),
              rng.normal(size=(9, 6)), rng.normal(size=6)]
    weights = rng.normal(size=(5, 6))

    def composed(x, w1, b1, w2, b2):
        return ag.linear(ag.linear(x, w1, b1).relu(), w2, b2)

    assert _run(ag.feed_forward, inputs, weights) == _run(composed, inputs, weights)


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
    ctx = ag.attention(h, ag.keys_values(m, w, b, w, b), w, b, w, b, 2)
    loss = ((ctx + u.transpose()) @ w.transpose()).sum()
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
        ag.log_softmax(ag.linear(x, p)).sum().backward()
        grads.append(p.grad.copy())
    p.grad[...] = 0.0
    for x in (x1, x2):
        ag.log_softmax(ag.linear(x, p)).sum().backward()
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
    x = Tensor([[1e200]])
    kv = Tensor([[[-1e200], [1.0]], [[1.0], [2.0]]])  # keys, then values
    one, zero = Tensor([[1.0]]), Tensor([0.0])
    with pytest.raises(NonFiniteError, match="from attention$"):
        ag.attention(x, kv, one, zero, one, zero, 1)
    with ag.no_grad():
        with pytest.raises(NonFiniteError, match="from attention$"):
            ag.attention(x, kv, one, zero, one, zero, 1)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_layer_norm_raises_when_the_variance_overflows():
    # Finite rows whose squared deviations overflow: the variance would be inf
    # and every row would normalize to the bias.
    gain, bias = Tensor(np.ones(2)), Tensor(np.zeros(2))
    with pytest.raises(NonFiniteError, match="from layer_norm$"):
        ag.layer_norm(Tensor([[1e160, -1e160]]), gain, bias)
    with pytest.raises(NonFiniteError, match="from layer_norm$"):
        ag.layer_norm(Tensor([[1e160, 0.0]]), gain, bias, residual=Tensor([[0.0, -1e160]]))


def test_embedding_lookup_into_a_parameter_adds_the_dense_scatters_bits():
    # The row-sparse backward into a parameter against the dense scatter it
    # replaces: zeros the size of the table, np.add.at, then one += per lookup.
    from skeltext.nn import Parameter

    rng = np.random.default_rng(29)
    table = Parameter(rng.normal(size=(7, 3)))
    table.grad[...] = rng.normal(size=(7, 3))
    table.grad[5] = 0.0  # an untouched row that holds +0.0
    start = table.grad.copy()
    lookups = [np.array([4, 1, 4, 4, 0]), np.array([1, 6, 1])]
    weights = [rng.normal(size=(len(ids), 3)) for ids in lookups]
    sum(
        (ag.embedding_lookup(table, ids) * Tensor(w)).sum() for ids, w in zip(lookups, weights)
    ).backward()

    want = start
    for ids, w in zip(lookups, weights):
        dense = np.zeros((7, 3))
        np.add.at(dense, ids, w)
        want = want + dense
    assert table.grad.tobytes() == want.tobytes()
