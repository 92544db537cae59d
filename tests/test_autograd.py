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


def _layouts():
    """Arrays the probe must read whole: name -> (array, index of one element)."""
    rng = np.random.default_rng(23)
    big = ag._ZEROS.size + 7
    return {
        "transposed": (rng.normal(size=(6, 4)).T, (3, 5)),  # not C-contiguous
        "strided": (rng.normal(size=(5, 8))[:, ::3], (4, 2)),
        "beyond_zero_buffer": (rng.normal(size=big), big - 1),
        "scalar": (np.array(2.5), ()),  # a lone value
    }


@pytest.mark.parametrize("layout", list(_layouts()))
@pytest.mark.parametrize(
    "bad", [np.inf, -np.inf, np.nan, None], ids=["inf", "-inf", "nan", "finite"]
)
def test_finiteness_probe_reads_every_layout(layout, bad):
    arr, index = _layouts()[layout]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the probe itself raises no floating-point warning
        if bad is None:
            assert Tensor(arr).data is arr
            return
        arr[index] = bad
        with pytest.raises(NonFiniteError):
            Tensor(arr)


def test_finiteness_probe_accepts_signed_zeros_and_empty_arrays():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.signbit(Tensor(np.array([-0.0, -0.0])).data).all()
        Tensor(np.array([0.0, -0.0, 5e-324, -5e-324]))  # zeros and subnormals
        assert Tensor(np.zeros((0, 3))).shape == (0, 3)
        assert Tensor(np.zeros(0)).shape == (0,)


def test_backward_accumulates_into_retained_grads():
    x = Tensor(np.ones(3), retain_grad=True)
    x.grad = np.zeros(3)
    (x * 2.0).sum().backward()
    (x * 2.0).sum().backward()
    assert np.allclose(x.grad, 4.0)


def test_a_retained_root_accumulates_into_the_array_it_holds():
    x = Tensor(np.arange(3.0), retain_grad=True)
    x.backward(np.array([1, -2, 3]))  # an integer seed still gives a float64 gradient
    before = x.grad
    x.backward(np.array([0.5, 0.25, -0.5]))
    assert x.grad is before
    assert x.grad.dtype == np.float64
    assert np.array_equal(x.grad, [1.5, -1.75, 2.5])


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
            args = (attn.wq.weight, attn.wq.bias, attn.wo.weight, attn.wo.bias, n_heads)
            return ag.attention(x1, kv, *args), ag.attention(x2, kv, *args)

        def composed(x1, x2, m):
            kv = composed_keys_values(attn, m)
            return composed_attention(attn, x1, m, None, kv), composed_attention(attn, x2, m, None, kv)
    else:  # step: 3 cached hypotheses of t_k positions, gathered to t_q rows
        # Row 2 continues twice and row 1 not at all. A step runs on plain
        # arrays, off the tape, so only its forward bytes compare.
        parents = np.array([2, 0, 2])
        cache = rng.normal(size=(2, 3, n_heads, t_k, d // n_heads))
        new = ag._keys_values(x, attn.wk.weight.data, attn.wk.bias.data, attn.wv.weight.data,
                              attn.wv.bias.data)
        kv = np.concatenate([cache[:, parents], new.reshape(2, t_q, n_heads, 1, -1)], axis=3)
        stepped = attn.step(x, kv)
        composed, k, v = composed_step(attn, Tensor(x), Tensor(cache[0][parents]),
                                       Tensor(cache[1][parents]))
        assert type(stepped) is np.ndarray
        assert stepped.tobytes() == composed.data.tobytes()
        assert kv.tobytes() == np.stack([k.data, v.data]).tobytes()
        return

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


@pytest.mark.parametrize("with_residual", [False, True], ids=["plain", "residual"])
def test_layer_norm_forward_is_the_out_of_place_arithmetic_and_spares_its_inputs(with_residual):
    # The forward writes into buffers of its own; it must give the bits of
    # the out-of-place expressions and never write into an input's array.
    rng = np.random.default_rng(28)
    arrays = [rng.normal(size=(4, 6)) * 3.0 + 1.0, rng.normal(size=(4, 6))]
    arrays += [rng.normal(size=6), rng.normal(size=6)]
    before = [a.tobytes() for a in arrays]
    x, r, gain, bias = (Tensor(a) for a in arrays)
    out = ag.layer_norm(x, gain, bias, residual=r if with_residual else None)
    h = arrays[0] + arrays[1] if with_residual else arrays[0]
    xc = h - h.sum(axis=-1, keepdims=True) / 6
    var = (xc * xc).sum(axis=-1, keepdims=True) / 6
    want = xc * (1.0 / np.sqrt(var + ag._LN_EPS)) * arrays[2] + arrays[3]
    assert out.data.tobytes() == want.tobytes()
    assert [a.tobytes() for a in arrays] == before
    assert not any(np.shares_memory(out.data, a) for a in arrays)


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
    assert not const._track


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


@pytest.mark.parametrize("ids", [[4, 1, 6, 0], [4, 1, 4, 4, 0]], ids=["distinct", "repeated"])
def test_embedding_backward_adds_the_dense_scatters_bits_with_negative_zeros(ids):
    # Distinct ids add g straight into their rows; repeated ids sum per row
    # first. Either way the bits are those of the dense scatter, -0.0 in g
    # included: a gradient that starts at +0.0 never holds -0.0.
    from skeltext.nn import Parameter

    rng = np.random.default_rng(31)
    ids = np.array(ids)
    table = Parameter(rng.normal(size=(7, 3)))
    table.grad[...] = rng.normal(size=(7, 3))
    table.grad[[1, 5]] = 0.0  # +0.0 rows, one touched and one not
    start = table.grad.copy()
    w = rng.normal(size=(len(ids), 3))
    w[0, 0] = w[1, 1] = w[1, 2] = -0.0
    (ag.embedding_lookup(table, ids) * Tensor(np.ones_like(w))).backward(w)  # seeds the product

    dense = np.zeros((7, 3))
    np.add.at(dense, ids, w)
    assert table.grad.tobytes() == (start + dense).tobytes()
    assert not np.signbit(table.grad[1, 1:]).any()  # +0.0 plus -0.0


@pytest.mark.parametrize(
    "index,once",
    [
        (slice(1, 4), True),
        (np.array([4, 0, 2]), True),
        ((np.array([0, 2, 5]), np.array([3, 3, 1])), True),
        (np.array([1, 4, 1, 1]), False),
        (np.array([5, -1]), False),  # row 5 twice
    ],
    ids=["slice", "distinct", "rows_labels", "repeated", "negative_alias"],
)
def test_take_backward_has_the_add_at_bits_with_negative_zeros(index, once):
    # An index that reads each element once adds g straight into the zero
    # gradient; the others scatter with np.add.at. Both give add.at's bits,
    # -0.0 in g included: 0.0 + -0.0 is +0.0.
    rng = np.random.default_rng(33)
    x = Tensor(rng.normal(size=(6, 4)), retain_grad=True)
    out = ag.take(x, index)
    g = rng.normal(size=out.shape)
    g.flat[0] = g.flat[-1] = -0.0
    out.backward(g)

    want = np.zeros((6, 4))
    np.add.at(want, index, g)
    assert ag._picks_each_once(index) == once
    assert x.grad.tobytes() == want.tobytes()
    assert not np.signbit(x.grad[x.grad == 0.0]).any()


def test_backward_with_a_seed_gradient_matches_the_weighted_sum():
    rng = np.random.default_rng(32)
    w = rng.normal(size=(3, 4))
    grads = []
    for seeded in (True, False):
        x = Tensor(rng.normal(size=(3, 4)) if not grads else x_data, retain_grad=True)
        x_data = x.data
        y = (x * x).relu()
        if seeded:
            y.backward(w)
        else:
            (y * Tensor(w)).sum().backward()
        grads.append(x.grad.tobytes())
    assert grads[0] == grads[1]
    with pytest.raises(ShapeError, match="seed"):
        (Tensor(np.ones(3), retain_grad=True) * 2.0).backward(np.ones(4))


def test_backward_frees_each_node_as_soon_as_it_has_run():
    # When a node's backward runs, its child has already run and given up its
    # saved arrays, its parents and its gradient.
    x = Tensor(np.array([1.0, -2.0, 3.0]), retain_grad=True)
    seen = []

    def probe_bw(g):
        seen.append((child._bw, child._parents, child.grad))
        return (g,)

    node = ag._make(x.data * 1.0, (x,), probe_bw, "probe")
    child = node.relu()
    child.sum().backward()
    assert seen == [(None, (), None)]
    assert x.grad.tolist() == [1.0, 0.0, 1.0]
    with pytest.raises(RuntimeError, match="backward"):
        child * 2.0


@pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
def test_attention_over_a_padded_batch_matches_each_sequence_alone(causal):
    # Self-attention, then cross-attention, as in a decoder layer: sequences
    # of 3 and 5 rows over memories of 4 and 2 rows, padded to 5 and 4 rows.
    # Real rows and every gradient match each sequence run alone, and padded
    # rows, filled with an arbitrary finite value, get no gradient.
    from skeltext.nn import padding_mask

    rng = np.random.default_rng(33)
    attn = MultiHeadAttention(rng, 8, 2)
    lengths, memory_lengths = [3, 5], [4, 2]
    xs = [rng.normal(size=(n, 8)) for n in lengths]
    ms = [rng.normal(size=(n, 8)) for n in memory_lengths]
    ws = [rng.normal(size=(n, 8)) for n in lengths]

    def stack(arrays, width, fill):
        out = np.full((len(arrays), width, 8), fill)
        for b, a in enumerate(arrays):
            out[b, : len(a)] = a
        return out.reshape(-1, 8)

    def run(x_arr, m_arr, w_arr, self_mask, memory_mask):
        for p in attn.parameters():
            p.grad[...] = 0.0
        x, m = Tensor(x_arr, retain_grad=True), Tensor(m_arr, retain_grad=True)
        out = attn(attn(x, x, self_mask), m, memory_mask)
        (out * Tensor(w_arr)).sum().backward()
        return out.data, x.grad, m.grad, [p.grad.copy() for p in attn.parameters()]

    alone = [
        run(x, m, w, causal_mask(len(x)) if causal else None, None)
        for x, m, w in zip(xs, ms, ws)
    ]
    self_mask = padding_mask(lengths, 5)
    if causal:
        self_mask = self_mask + causal_mask(5)
    out, gx, gm, gparams = run(
        stack(xs, 5, 7.0), stack(ms, 4, -3.0), stack(ws, 5, 0.0),
        self_mask, padding_mask(memory_lengths, 4),
    )
    real = (np.arange(5) < np.array(lengths)[:, None]).reshape(-1)
    memory_real = (np.arange(4) < np.array(memory_lengths)[:, None]).reshape(-1)
    assert np.abs(out[real] - np.concatenate([a[0] for a in alone])).max() < 1e-12
    assert np.abs(gx[real] - np.concatenate([a[1] for a in alone])).max() < 1e-12
    assert np.abs(gm[memory_real] - np.concatenate([a[2] for a in alone])).max() < 1e-12
    assert not gx[~real].any() and not gm[~memory_real].any()
    for i, got in enumerate(gparams):
        assert np.abs(got - (alone[0][3][i] + alone[1][3][i])).max() < 1e-12


def test_attention_under_a_one_sequence_padding_mask_gives_the_unbatched_bits():
    # A (1, 1, 1, t_k) mask of zeros takes the batched path with B = 1.
    rng = np.random.default_rng(34)
    attn = MultiHeadAttention(rng, 8, 2)
    x_arr, m_arr, w = (rng.normal(size=s) for s in ((3, 8), (4, 8), (3, 8)))
    results = []
    for mask in (None, np.zeros((1, 1, 1, 4))):
        for p in attn.parameters():
            p.grad[...] = 0.0
        x, m = Tensor(x_arr, retain_grad=True), Tensor(m_arr, retain_grad=True)
        out = attn(x, m, mask)
        (out * Tensor(w)).sum().backward()
        results.append([out.data.tobytes(), x.grad.tobytes(), m.grad.tobytes()]
                       + [p.grad.tobytes() for p in attn.parameters()])
    assert results[0] == results[1]
