import gc
import weakref

import numpy as np
import pytest

import panoptic4d.autodiff as ad
from panoptic4d.autodiff import Tensor, backward, no_grad
from panoptic4d.errors import ContractError, ParameterError, ShapeError

from oracles import (
    finite_difference_check,
    loop_attention,
    loop_gather_rows,
    loop_segment_mean,
    mean_var_layer_norm,
    where_masked_attention,
)


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        out = ad.sigmoid(Tensor(0.0))
        assert out.item() == pytest.approx(0.5)

    def test_sigmoid_gradient_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        backward(ad.sigmoid(x))
        assert x.grad == pytest.approx(0.25)

    def test_softmax_uniform(self):
        out = ad.softmax(Tensor([1.7, 1.7, 1.7]))
        np.testing.assert_allclose(out.values, [1 / 3] * 3)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(5, 7)) * 10
        s = ad.softmax(Tensor(z)).values
        assert np.all(s >= 0)
        np.testing.assert_allclose(s.sum(axis=1), np.ones(5), atol=1e-12)

    def test_shape_error_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))


class TestAttention:
    def qkv(self, seed, n=3, m=5, d=8):
        rng = np.random.default_rng(seed)
        return leaf(rng, n, d), leaf(rng, m, d), leaf(rng, m, d)

    def test_masked_keys_get_exactly_zero_weight(self):
        # one head and identity values: output column j is the weight of key j
        rng = np.random.default_rng(5)
        q, k = Tensor(rng.normal(size=(4, 6)) * 10), Tensor(rng.normal(size=(6, 6)))
        mask = rng.random((4, 6)) < 0.5
        mask[:, 0] = True  # keep rows non-empty
        weights = ad.attention(q, k, Tensor(np.eye(6)), 1, mask=mask).values
        assert np.all(weights[~mask] == 0.0)
        assert np.all(weights[mask] > 0.0)
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(4), atol=1e-12)

    def test_keys_masked_for_every_query_get_zero_gradient(self):
        q, k, v = self.qkv(0)
        mask = np.ones((3, 5), dtype=bool)
        mask[:, 4] = False
        out = ad.attention(q, k, v, 2, mask=mask)
        backward(ad.tsum(ad.mul(out, np.cos(np.arange(24)).reshape(3, 8))))
        assert np.all(k.grad[4] == 0.0) and np.all(v.grad[4] == 0.0)
        assert np.abs(k.grad[:4]).max() > 0 and np.abs(v.grad[:4]).max() > 0
        # a masked key's value does not reach the output
        v.values[4] += 100.0
        np.testing.assert_array_equal(ad.attention(q, k, v, 2, mask=mask).values, out.values)

    def test_empty_row_attends_to_every_key(self):
        """A row with no allowed key gives the values and gradients of the
        same row unmasked, and the caller's mask is left as it was."""
        rng = np.random.default_rng(1)
        arrays = [rng.normal(size=shape) for shape in [(3, 8), (5, 8), (5, 8)]]
        weight = rng.normal(size=(3, 8))
        mask = rng.random((3, 5)) < 0.5
        mask[:, 0] = True
        mask[1] = False
        unmasked = mask.copy()
        unmasked[1] = True
        results = []
        for m in (mask, unmasked):
            qkv = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = ad.attention(*qkv, 2, mask=m)
            backward(ad.tsum(ad.mul(out, weight)))
            results.append([out.values] + [t.grad for t in qkv])
        for got, want in zip(*results):
            assert np.array_equal(got, want)
        assert not mask[1].any()

    def test_wrong_mask_shape_rejected(self):
        q, k, v = self.qkv(2)
        with pytest.raises(ShapeError, match="attention"):
            ad.attention(q, k, v, 2, mask=np.ones((5, 3), dtype=bool))

    def test_heads_must_divide_width(self):
        q, k, v = self.qkv(3)
        with pytest.raises(ShapeError, match="attention"):
            ad.attention(q, k, v, 3)


def _fallback_mask(rng, n, m):
    """A sparse random mask whose empty rows fall back to all keys, as in
    the decoder's cross-attention."""
    mask = rng.random((n, m)) < 0.3
    mask[0] = False
    mask[~mask.any(axis=1)] = True
    return mask


def _single_key_mask(rng, n, m):
    mask = np.zeros((n, m), dtype=bool)
    mask[np.arange(n), rng.integers(0, m, size=n)] = True
    return mask


ATTENTION_ORACLE_CASES = {
    "unmasked": (4, 7, 8, 2, None),
    "fallback_rows": (5, 9, 8, 4, _fallback_mask),
    "single_key": (4, 6, 8, 2, _single_key_mask),
    "one_query": (1, 6, 8, 2, _fallback_mask),
    "one_head": (4, 6, 8, 1, _fallback_mask),
}


@pytest.mark.parametrize("case", ATTENTION_ORACLE_CASES)
def test_attention_matches_per_head_loop(case):
    """Fused attention against the per-head loop: values and q/k/v gradients."""
    n, m, d, num_heads, make_mask = ATTENTION_ORACLE_CASES[case]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(n, d)), rng.normal(size=(m, d)), rng.normal(size=(m, d))]
        mask = None if make_mask is None else make_mask(rng, n, m)
        weight = rng.normal(size=(n, d))
        results = []
        for fn in (ad.attention, loop_attention):
            qkv = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = fn(*qkv, num_heads, mask)
            backward(ad.tsum(ad.mul(out, weight)))
            results.append([out.values] + [t.grad for t in qkv])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _mixed_mask(rng, n, m):
    """Sparse random rows plus one full row and one single-key row."""
    mask = rng.random((n, m)) < 0.3
    mask[0] = True
    mask[1] = False
    mask[1, rng.integers(0, m)] = True
    mask[~mask.any(axis=1)] = True
    return mask


@pytest.mark.parametrize("n,m,d,num_heads", [(4, 7, 8, 2), (6, 13, 12, 4), (2, 1, 4, 1)])
def test_attention_softmax_bit_equal_to_where_masked(n, m, d, num_heads):
    """Attention's own masked softmax gives the values of the np.where one."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        q, k, v = (rng.normal(size=shape) * 4 for shape in [(n, d), (m, d), (m, d)])
        mask = _mixed_mask(rng, n, m)
        got = ad.attention(Tensor(q), Tensor(k), Tensor(v), num_heads, mask).values
        assert np.array_equal(got, where_masked_attention(q, k, v, num_heads, mask))


@pytest.mark.parametrize("shape", [(5, 16), (1, 7), (3, 4, 8)])
def test_layer_norm_bit_equal_to_mean_var(shape):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=shape) * 3 + rng.normal()
        gain, bias = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        got = ad.layer_norm(Tensor(a), Tensor(gain), Tensor(bias)).values
        assert np.array_equal(got, mean_var_layer_norm(a, gain, bias))


def test_linear_bit_equal_to_matmul_plus_bias():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x, w, b = rng.normal(size=(7, 5)), rng.normal(size=(5, 3)), rng.normal(size=3)
        assert np.array_equal(ad.linear(Tensor(x), Tensor(w), Tensor(b)).values, x @ w + b)


class TestTape:
    def test_value_no_rule_saves_is_freed_before_backward(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = ad.add(x, 1.0)  # add's rule reads no values
        unsaved = weakref.ref(y.values)
        loss = ad.tsum(ad.neg(y))
        del y
        assert unsaved() is None
        backward(loss)
        np.testing.assert_array_equal(x.grad, -np.ones(3))

    def test_saved_value_is_freed_by_backward(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = ad.add(x, 1.0)
        saved = weakref.ref(y.values)
        loss = ad.tsum(ad.mul(y, y))  # mul's rule reads both inputs
        del y
        assert saved() is not None
        backward(loss)
        assert saved() is None
        np.testing.assert_array_equal(x.grad, 2.0 * (np.arange(3.0) + 1.0))

    def test_second_backward_through_one_graph_raises(self):
        x = Tensor(2.0, requires_grad=True)
        y = ad.mul(x, 3.0)
        loss = ad.mul(y, y)
        backward(loss)
        with pytest.raises(ContractError, match="consumed"):
            backward(loss)
        with pytest.raises(ContractError, match="consumed"):
            backward(ad.mul(y, 2.0))  # a new op on a consumed intermediate
        assert x.grad == pytest.approx(36.0)  # the first backward only

    def test_graph_is_freed_without_the_cycle_collector(self):
        """No leaf points to a record that points back to it."""
        gc.disable()
        try:
            x = Tensor(np.arange(4.0), requires_grad=True)
            value = weakref.ref(x.values)
            loss = ad.tsum(ad.mul(ad.sigmoid(x), x))
            assert x._parents == () and loss._parents
            del x, loss  # the graph is never differentiated
            assert value() is None
        finally:
            gc.enable()


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        backward(ad.mul(x, x))
        assert x.grad == pytest.approx(6.0)

    def test_matmul_sum_vs_fd(self):
        rng = np.random.default_rng(2)
        a = leaf(rng, 3, 4)
        b = leaf(rng, 4, 2)
        err = finite_difference_check(lambda: ad.tsum(ad.matmul(a, b)), [a, b], h=1e-6)
        assert err < 1e-9

    def test_detached_tensor_keeps_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        backward(ad.tsum(ad.mul(x, 2.0)))
        np.testing.assert_array_equal(y.grad, np.zeros(3))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            backward(Tensor(np.zeros(3), requires_grad=True))

    def test_grad_accumulates_over_backward_calls(self):
        x = Tensor(2.0, requires_grad=True)
        backward(ad.mul(x, x))
        backward(ad.mul(x, x))
        assert x.grad == pytest.approx(8.0)

    def test_independent_subgraph_sum(self):
        rng = np.random.default_rng(3)
        x = leaf(rng, 4)
        y = leaf(rng, 5)
        lx = ad.tsum(ad.mul(x, x))
        ly = ad.tsum(ad.sigmoid(y))
        backward(ad.add(lx, ly))
        gx, gy = x.grad.copy(), y.grad.copy()
        x.grad[...] = 0.0
        y.grad[...] = 0.0
        backward(ad.tsum(ad.mul(x, x)))
        backward(ad.tsum(ad.sigmoid(y)))
        np.testing.assert_allclose(gx, x.grad)
        np.testing.assert_allclose(gy, y.grad)

    def test_shared_subexpression(self):
        x = Tensor(1.5, requires_grad=True)
        y = ad.mul(x, x)  # used twice below
        backward(ad.add(y, y))
        assert x.grad == pytest.approx(2 * 2 * 1.5)

    def test_no_grad_blocks_recording(self):
        x = Tensor(2.0, requires_grad=True)
        with no_grad():
            y = ad.mul(x, x)
        assert y._parents == ()


# one row with a single allowed key, one with several, one with all of them
ATTENTION_MASK = np.array(
    [[0, 0, 0, 1, 0], [1, 0, 1, 1, 0], [1, 1, 1, 1, 1]], dtype=bool
)

PRIMITIVE_CASES = [
    ("add", lambda rng: ((rng.normal(size=(3, 4)), rng.normal(size=(3, 4))), lambda a, b: ad.add(a, b))),
    ("add_broadcast", lambda rng: ((rng.normal(size=(3, 4)), rng.normal(size=(4,))), lambda a, b: ad.add(a, b))),
    ("mul", lambda rng: ((rng.normal(size=(3, 4)), rng.normal(size=(3, 4))), lambda a, b: ad.mul(a, b))),
    ("div", lambda rng: ((rng.normal(size=(3, 4)), rng.normal(size=(3, 4)) + 3.0), lambda a, b: ad.div(a, b))),
    ("matmul", lambda rng: ((rng.normal(size=(3, 4)), rng.normal(size=(4, 2))), lambda a, b: ad.matmul(a, b))),
    ("transpose", lambda rng: ((rng.normal(size=(3, 4)),), lambda a: ad.transpose(a))),
    ("concat0", lambda rng: ((rng.normal(size=(2, 3)), rng.normal(size=(4, 3))), lambda a, b: ad.concat([a, b], axis=0))),
    ("concat1", lambda rng: ((rng.normal(size=(3, 2)), rng.normal(size=(3, 5))), lambda a, b: ad.concat([a, b], axis=1))),
    ("gather", lambda rng: ((rng.normal(size=(5, 3)),), lambda a: ad.gather_rows(a, np.array([0, 2, 2, 4])))),
    (
        "linear",
        lambda rng: (
            (rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)),
            lambda x, w, b: ad.linear(x, w, b),
        ),
    ),
    (
        "attention",
        lambda rng: (
            (rng.normal(size=(3, 8)), rng.normal(size=(5, 8)), rng.normal(size=(5, 8))),
            lambda q, k, v: ad.attention(q, k, v, 2),
        ),
    ),
    (
        "masked_attention",
        lambda rng: (
            (rng.normal(size=(3, 8)), rng.normal(size=(5, 8)), rng.normal(size=(5, 8))),
            lambda q, k, v: ad.attention(q, k, v, 2, mask=ATTENTION_MASK),
        ),
    ),
    ("segment_mean", lambda rng: ((rng.normal(size=(6, 3)),), lambda a: ad.segment_mean(a, np.array([0, 0, 1, 1, 1, 2]), 3))),
    ("relu", lambda rng: ((rng.normal(size=(4, 4)) + 0.05,), lambda a: ad.relu(a))),
    ("sigmoid", lambda rng: ((rng.normal(size=(4, 4)),), lambda a: ad.sigmoid(a))),
    ("softmax", lambda rng: ((rng.normal(size=(4, 5)),), lambda a: ad.softmax(a))),
    (
        "layer_norm",
        lambda rng: (
            (rng.normal(size=(3, 6)), rng.normal(size=6) + 1.5, rng.normal(size=6)),
            lambda a, g, b: ad.layer_norm(a, g, b),
        ),
    ),
    ("log", lambda rng: ((rng.random((3, 4)) + 0.5,), lambda a: ad.log(a))),
    ("abs", lambda rng: ((rng.normal(size=(3, 4)) + 0.02,), lambda a: ad.absolute(a))),
    ("sum_axis", lambda rng: ((rng.normal(size=(3, 4)),), lambda a: ad.tsum(ad.tsum(a, axis=1)))),
    ("mean_axis", lambda rng: ((rng.normal(size=(3, 4)),), lambda a: ad.tsum(ad.tmean(a, axis=0)))),
    ("mean_all", lambda rng: ((rng.normal(size=(3, 4)),), lambda a: ad.tmean(a))),
]


@pytest.mark.parametrize("name,case", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, case):
    """Every primitive: analytic gradient vs central differences, 10 seeds."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        arrays, fn = case(rng)
        tensors = [Tensor(a, requires_grad=True) for a in arrays]

        def scalar_loss():
            out = fn(*tensors)
            # weight entries so the gradient is not uniform
            w = np.cos(np.arange(out.size)).reshape(out.shape)
            return ad.tsum(ad.mul(out, w))

        err = finite_difference_check(scalar_loss, tensors, h=1e-6)
        assert err < 1e-6, f"{name} seed {seed}: rel err {err}"


class TestFiniteDifferenceCheck:
    def test_quadratic_exact(self):
        x = Tensor(3.0, requires_grad=True)
        err = finite_difference_check(lambda: ad.mul(x, x), [x], h=1e-4)
        assert err < 1e-6

    def test_constant_function(self):
        x = Tensor(np.ones(3), requires_grad=True)
        err = finite_difference_check(lambda: ad.tsum(ad.mul(x, 0.0)), [x], h=1e-5)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_bad_step_rejected(self):
        x = Tensor(1.0, requires_grad=True)
        with pytest.raises(ParameterError):
            finite_difference_check(lambda: x, [x], h=0.0)

    def test_restores_values(self):
        rng = np.random.default_rng(4)
        x = leaf(rng, 3, 3)
        before = x.values.copy()
        finite_difference_check(lambda: ad.tsum(ad.mul(x, x)), [x], h=1e-6)
        np.testing.assert_array_equal(x.values, before)


class TestSegmentMean:
    def test_values(self):
        x = Tensor(np.array([[1.0], [3.0], [10.0]]))
        out = ad.segment_mean(x, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.values, [[2.0], [10.0]])

    def test_empty_segment_rejected(self):
        with pytest.raises(ParameterError):
            ad.segment_mean(Tensor(np.ones((2, 1))), np.array([0, 0]), 2)

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ShapeError):
            ad.segment_mean(Tensor(np.ones((2, 1))), np.array([0, 2]), 2)


def _scatter_cases():
    """(rows, columns, index, output rows): repeated ids, ids in reverse and
    random order, a single id, and magnitudes that make summation order show."""
    rng = np.random.default_rng(23)
    cases = {
        "repeated": (np.array([0, 0, 0, 1, 1, 2]), 3),
        "reversed": (np.arange(40)[::-1] % 7, 7),
        "one_id": (np.zeros(9, dtype=np.int64), 1),
        "random": (rng.permutation(np.r_[np.arange(50), rng.integers(0, 50, 200)]), 50),
    }
    out = {}
    for name, (index, num) in cases.items():
        for width in (1, 5, 33):
            values = rng.normal(size=(index.size, width)) * 10.0 ** rng.integers(-8, 9, size=(index.size, 1))
            out[f"{name}-w{width}"] = (values, index, num)
    return out


SCATTER_CASES = _scatter_cases()


def _value_and_grads(fn, values, index, num, upstream_seed=0):
    x = Tensor(values.copy(), requires_grad=True)
    out = fn(x, index, num)
    upstream = np.random.default_rng(upstream_seed).normal(size=out.shape)
    backward(ad.tsum(ad.mul(out, upstream)))
    return out.values, x.grad


@pytest.mark.parametrize("case", sorted(SCATTER_CASES))
def test_segment_mean_matches_add_at_loop(case):
    values, index, num = SCATTER_CASES[case]
    got, got_grad = _value_and_grads(ad.segment_mean, values, index, num)
    want, want_grad = _value_and_grads(loop_segment_mean, values, index, num)
    assert (got == want).all() and (got_grad == want_grad).all()


@pytest.mark.parametrize("case", sorted(SCATTER_CASES))
def test_gather_rows_matches_add_at_loop(case):
    # gather rows of a table through the index: a row gathered many times
    # sums its gradients, a row never gathered gets zero
    table, index, num = SCATTER_CASES[case]
    rows = np.random.default_rng(1).normal(size=(num + 4, table.shape[1]))
    gather = lambda x, i, _: ad.gather_rows(x, i)
    loop = lambda x, i, _: loop_gather_rows(x, i)
    got, got_grad = _value_and_grads(gather, rows, index, num)
    want, want_grad = _value_and_grads(loop, rows, index, num)
    assert (got == want).all() and (got_grad == want_grad).all()
    assert (got_grad[num:] == 0).all()


def test_segment_mean_unused_id_rejected_like_loop():
    for fn in (ad.segment_mean, loop_segment_mean):
        with pytest.raises(ParameterError):
            fn(Tensor(np.ones((3, 2))), np.array([0, 0, 2]), 3)


def test_gather_rows_one_dimensional_table():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    backward(ad.tsum(ad.gather_rows(x, np.array([2, 0, 2]))))
    y = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    backward(ad.tsum(loop_gather_rows(y, np.array([2, 0, 2]))))
    assert x.grad.tolist() == y.grad.tolist() == [1.0, 0.0, 2.0]
