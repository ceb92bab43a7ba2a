import warnings

import numpy as np
import pytest

from beamoe.tensor import (
    ContractError,
    NumericError,
    ShapeError,
    Tape,
    Tensor,
    add,
    binarize_ste,
    causal_attention,
    causal_masks,
    cross_entropy,
    matmul,
    mul,
    reshape,
    rms_norm,
    sigmoid,
    sigmoid_np,
    slice_cols,
    softmax,
    softmax_np,
    take_rows,
    tsum,
    untaped,
)

from reference_ops import (
    NEG_SENTINEL,
    check_gradient,
    div,
    gather_rc,
    mask_fill,
    reference_causal_attention,
    reference_causal_masks,
    reference_rms_norm_np,
    reference_sigmoid_np,
    reference_full_softmax_np,
    reference_softmax_np,
    scatter_rows,
    sentinel_softmax,
    silu,
    transpose,
)


def backward(expr_fn, *tensors):
    with Tape() as tape:
        out = expr_fn(*tensors)
        tape.backward(out)
    return out


class TestTensorBasics:
    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            Tensor([1.0, np.nan])
        with pytest.raises(NumericError):
            Tensor([np.inf])

    def test_data_is_float64_copy(self):
        src = np.array([1.0, 2.0])
        t = Tensor(src)
        src[0] = 99.0
        assert t.data[0] == 1.0
        assert t.data.dtype == np.float64

    def test_grad_len_matches_data(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        backward(lambda x: tsum(x), t)
        assert t.grad.shape == t.data.shape


class TestMatmul:
    def test_identity(self):
        eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[2.0, 3.0], [4.0, 5.0]])
        assert np.array_equal(matmul(eye, b).data, b.data)

    def test_hand_evaluated(self):
        # [[1,2]] @ [[3],[4]] = [[1*3 + 2*4]] = [[11]]
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_zero_matrix(self):
        z = Tensor(np.zeros((2, 3)))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.array_equal(matmul(z, b).data, np.zeros((2, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_backward_formula(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        backward(lambda x, y: tsum(matmul(x, y)), a, b)
        g = np.ones((2, 4))
        assert np.allclose(a.grad, g @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ g)

    def test_batched_against_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(3, 5, 2))
        out = matmul(Tensor(a), Tensor(b))
        expected = np.stack([a[i] @ b[i] for i in range(3)])
        assert np.allclose(out.data, expected)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])

    def test_masked_oracle(self):
        # direct exp/sum computation over the two kept entries; the dropped
        # entry is the largest, so it would dominate if it leaked in
        out = softmax(Tensor([[2.0, 1.0, 9.0]]), [[True, True, False]])
        e = np.exp([2.0, 1.0])
        assert abs(out.data[0, 0] - e[0] / e.sum()) < 1e-4
        assert abs(out.data[0, 0] - 0.7311) < 1e-4
        assert abs(out.data[0, 1] - 0.2689) < 1e-4
        assert out.data[0, 2] == 0.0  # exactly

    def test_shift_invariance_constant_rows(self):
        for c in (-7.3, 0.0, 123.0):
            out = softmax(Tensor([[c, c, c, c]]))
            assert np.allclose(out.data, 0.25)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        out = softmax(Tensor(rng.normal(size=(5, 9))))
        assert np.all(out.data >= 0)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_all_masked_row_rejected(self):
        with pytest.raises(ContractError):
            softmax(Tensor([[1.0, 2.0]]), [[False, False]])

    def test_wrong_shape_keep_rejected(self):
        x = np.zeros((2, 3))
        for keep in (np.ones((3,), bool), np.ones((2, 4), bool), np.ones((1, 2, 3), bool)):
            with pytest.raises(ShapeError):
                softmax_np(x, keep)
            with pytest.raises(ShapeError):
                softmax(Tensor(x), keep)

    def test_masked_entries_get_zero_grad(self):
        x = Tensor([[2.0, 1.0, 9.0]], requires_grad=True)
        backward(lambda t: tsum(mul(softmax(t, [[True, True, False]]), [[1.0, 2.0, 3.0]])), x)
        assert x.grad[0, 2] == 0.0 and not np.signbit(x.grad[0, 2])

    def test_kept_sentinel_value_is_kept(self):
        # a kept logit stays kept whatever its value, the sentinel included
        got = softmax_np(np.array([[NEG_SENTINEL, NEG_SENTINEL, 0.0]]), np.array([[True, True, False]]))
        assert np.array_equal(got, [[0.5, 0.5, 0.0]])

    @staticmethod
    def _keep_cases():
        rng = np.random.default_rng(5)
        # router-shaped: (T, N) logits with the top 4 of 8 kept per row
        router = rng.normal(size=(512, 8))
        router_keep = np.zeros(router.shape, dtype=bool)
        np.put_along_axis(router_keep, np.argsort(-router, axis=-1)[:, :4], True, -1)
        # one kept entry per row, at a random column
        single = rng.normal(size=(64, 8))
        single_keep = np.zeros(single.shape, dtype=bool)
        single_keep[np.arange(64), rng.integers(0, 8, 64)] = True
        # values near +-700 and 0, with dropped entries mixed in
        edges = np.array(
            [
                [700.0, -700.0, 0.0, 800.0],
                [-709.0, -700.0, 3.0, -745.0],
                [709.0, 708.9, 1e-300, -0.0],
                [0.0, 710.0, -710.0, 1e300],
                [-1e-300, 5e-324, 1.0, 0.0],
            ]
        )
        edges_keep = np.array(
            [
                [True, True, True, False],
                [True, True, False, True],
                [True, True, True, True],
                [True, False, False, False],
                [True, True, False, True],
            ]
        )
        return [(router, router_keep), (single, single_keep), (edges, edges_keep), (edges[None], edges_keep[None])]

    def test_masked_path_equals_scatter_reference(self):
        for x, keep in self._keep_cases():
            got = softmax_np(x, keep)
            want = reference_softmax_np(np.where(keep, x, NEG_SENTINEL), NEG_SENTINEL)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.all(got[~keep] == 0.0)

    def test_masked_path_gradient_equals_sentinel_chain(self):
        for x, keep in self._keep_cases():
            upstream = np.random.default_rng(x.size).normal(size=x.shape)
            grads = []
            for op in (
                lambda t: softmax(t, keep),
                lambda t: sentinel_softmax(mask_fill(t, keep, NEG_SENTINEL), NEG_SENTINEL),
            ):
                t = Tensor(x, requires_grad=True)
                backward(lambda t: tsum(mul(op(t), upstream)), t)
                grads.append(t.grad)
            assert np.array_equal(grads[0], grads[1])
            assert np.array_equal(np.signbit(grads[0]), np.signbit(grads[1]))

    def test_masked_path_all_masked_row_rejected(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ContractError, match="every entry masked"):
            softmax_np(x, np.array([[True, False], [False, False]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kept_logit_leaves_dropped_entries_zero(self, bad):
        # a NaN max or sum spreads NaN over the kept entries only
        keep = np.array([[True, True, False, False], [True, True, True, False], [True, False, False, True]])
        x = np.array([[bad, 1.0, 2.0, np.nan], [bad, bad, 0.0, 5.0], [bad, np.inf, -np.inf, bad]])
        with np.errstate(invalid="ignore"):
            got = softmax_np(x, keep)
        assert np.array_equal(got[~keep], np.zeros(np.count_nonzero(~keep)))
        assert not np.signbit(got[~keep]).any()
        got = softmax_np(np.array([[np.nan, 1.0, 2.0]]), np.array([[True, True, False]]))
        assert np.isnan(got[0, :2]).all() and got[0, 2] == 0.0 and not np.signbit(got[0, 2])


    def test_no_kept_set_equals_full_softmax_branch(self):
        rng = np.random.default_rng(31)
        edges = np.array(
            [[np.inf, 1.0, 2.0], [-np.inf, -np.inf, 0.0], [-np.inf] * 3, [np.nan, 0.0, 1.0], [5.0] * 3]
        )
        with np.errstate(invalid="ignore"):
            got, want = softmax(Tensor._raw(edges)).data, reference_full_softmax_np(edges)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        for x in (rng.normal(0.0, 30.0, (64, 8)), rng.normal(size=(2, 5, 3)), edges[1:2]):
            upstream = rng.normal(size=x.shape)
            t = Tensor._raw(x, requires_grad=True)  # a -inf logit is allowed
            backward(lambda t: tsum(mul(softmax(t), upstream)), t)
            want = reference_full_softmax_np(x)
            want_grad = want * (upstream - (upstream * want).sum(axis=-1, keepdims=True))
            for a, b in ((softmax(t).data, want), (t.grad, want_grad)):
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _attention_grads(op, q, k, v, n_heads, upstream):
    leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
    with Tape() as tape:
        out = op(*leaves, n_heads)
        tape.backward(tsum(mul(out, upstream)))
    return out.data, [t.grad for t in leaves]


class TestCausalAttention:
    @pytest.mark.parametrize("n_heads", [1, 4])
    @pytest.mark.parametrize("t", [1, 7, 64])
    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("last_only", [False, True], ids=["tq=t", "tq=1"])
    def test_equals_per_op_chain(self, n_heads, t, b, last_only):
        rng = np.random.default_rng([b, t, n_heads])
        tq, d = (1 if last_only else t), 8
        q, k, v = rng.normal(size=(b, tq, d)), rng.normal(size=(b, t, d)), rng.normal(size=(b, t, d))
        upstream = rng.normal(size=(b, tq, d))
        out, grads = _attention_grads(causal_attention, q, k, v, n_heads, upstream)
        want, want_grads = _attention_grads(reference_causal_attention, q, k, v, n_heads, upstream)
        assert out.shape == (b, tq, d)
        assert np.array_equal(out, want)
        for name, got, ref in zip("qkv", grads, want_grads):
            assert np.array_equal(got, ref), name

    @pytest.mark.parametrize("t,tq", [(1, 1), (7, 7), (7, 1), (5, 3), (64, 64), (64, 1)])
    def test_cached_masks_equal_tri_and_are_read_only(self, t, tq):
        seen, future = causal_masks(t, tq)
        want_seen, want_future = reference_causal_masks(t, tq)
        assert np.array_equal(seen, want_seen) and np.array_equal(future, want_future)
        assert seen.dtype == future.dtype == bool
        for mask in (seen, future):
            with pytest.raises(ValueError, match="read-only"):
                mask[...] = True
        assert np.array_equal(seen, want_seen) and np.array_equal(future, want_future)
        again = causal_masks(t, tq)
        assert again[0] is seen and again[1] is future

    def test_finite_differences_with_fewer_queries_than_keys(self):
        rng = np.random.default_rng(12)
        q = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        w = rng.normal(size=(2, 3, 4))
        err = check_gradient(lambda: tsum(mul(causal_attention(q, k, v, 2), w)), [q, k, v])
        assert err < 1e-6

    def test_query_sees_no_later_key(self):
        rng = np.random.default_rng(13)
        q, k, v = (Tensor(rng.normal(size=(1, 6, 4))) for _ in range(3))
        base = causal_attention(q, k, v, 2).data
        k.data[0, 4:] += 3.0
        v.data[0, 4:] -= 3.0
        moved = causal_attention(q, k, v, 2).data
        assert np.array_equal(moved[0, :4], base[0, :4])
        assert not np.array_equal(moved[0, 4:], base[0, 4:])

    def test_future_score_far_above_the_seen_ones(self):
        # query 0's score against key 1 exceeds its own by ~1e4: exp of the
        # shifted future score overflows, and the weight must still be 0
        q = np.array([[[100.0], [1.0]]])
        k = np.array([[[-1.0], [100.0]]])
        v = np.array([[[2.0], [5.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, grads = _attention_grads(causal_attention, q, k, v, 1, np.ones((1, 2, 1)))
        want, want_grads = _attention_grads(reference_causal_attention, q, k, v, 1, np.ones((1, 2, 1)))
        assert out[0, 0, 0] == 2.0
        assert np.array_equal(out, want)
        for got, ref in zip(grads, want_grads):
            assert np.array_equal(got, ref)

    def test_forward_is_one_tape_node(self):
        q, k, v = (Tensor(np.ones((1, 3, 4)), requires_grad=True) for _ in range(3))
        with Tape() as tape:
            out = causal_attention(q, k, v, 2)
        assert [node for node, _ in tape.nodes] == [out]

    @pytest.mark.parametrize(
        "q_shape,k_shape,v_shape,n_heads",
        [
            ((1, 3, 6), (1, 3, 6), (1, 3, 6), 4),  # width not divisible by heads
            ((1, 3, 4), (1, 3, 4), (1, 3, 4), 0),
            ((1, 5, 4), (1, 4, 4), (1, 4, 4), 2),  # more queries than keys
            ((1, 3, 4), (1, 3, 4), (1, 2, 4), 2),  # k and v disagree
            ((1, 3, 4), (1, 3, 4), (2, 3, 4), 2),
            ((2, 3, 4), (1, 3, 4), (1, 3, 4), 2),  # q and k disagree in batch
            ((1, 3, 4), (1, 3, 8), (1, 3, 8), 2),  # ... or in width
            ((3, 4), (3, 4), (3, 4), 2),
        ],
    )
    def test_bad_shapes_rejected(self, q_shape, k_shape, v_shape, n_heads):
        q, k, v = Tensor(np.zeros(q_shape)), Tensor(np.zeros(k_shape)), Tensor(np.zeros(v_shape))
        with pytest.raises(ShapeError):
            causal_attention(q, k, v, n_heads)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_saturation(self):
        big = Tensor([500.0], requires_grad=True)
        out = backward(lambda t: tsum(sigmoid(t)), big)
        assert out.data == pytest.approx(1.0)
        assert big.grad[0] == pytest.approx(0.0)

    def test_closed_form(self):
        # sigma(ln 3) = 3 / (1 + 3) = 0.75
        assert abs(sigmoid(Tensor([np.log(3.0)])).data[0] - 0.75) < 1e-9

    def test_extreme_negative_no_overflow(self):
        out = sigmoid(Tensor([-1e4, 1e4]))
        assert out.data[0] == 0.0 and out.data[1] == 1.0

    @pytest.mark.parametrize("scale", [1e-310, 1e-20, 1e-8, 0.1, 1.0, 5.0, 40.0, 800.0, 1e300])
    def test_branch_free_equals_branching_reference(self, scale):
        x = np.random.default_rng(7).standard_normal((64, 33)) * scale
        got, want = sigmoid_np(x), reference_sigmoid_np(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_branch_free_equals_reference_at_edges(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array(
            [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, tiny, -tiny, 2.5e-308, -2.5e-308, 36.7, -37.0]
        )
        for values in (x, x.astype(np.float32), x.reshape(3, 4), np.array(-2.0)):
            got, want = sigmoid_np(values), reference_sigmoid_np(values)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestCrossEntropy:
    def test_uniform(self):
        logits = Tensor(np.zeros((3, 4)))
        out = cross_entropy(logits, np.array([0, 1, 2]))
        assert out.data == pytest.approx(np.log(4.0))

    def test_confident(self):
        logits = np.full((2, 5), -50.0)
        logits[0, 3] = 50.0
        logits[1, 1] = 50.0
        out = cross_entropy(Tensor(logits), np.array([3, 1]))
        assert out.data == pytest.approx(0.0, abs=1e-12)

    def test_two_class_closed_form(self):
        # -ln sigmoid(1): softmax([1,0])[0] = e / (e + 1) = sigmoid(1)
        out = cross_entropy(Tensor([[1.0, 0.0]]), np.array([0]))
        assert out.data == pytest.approx(-np.log(1 / (1 + np.exp(-1.0))), abs=1e-9)
        assert out.data == pytest.approx(0.3133, abs=1e-4)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))


class TestGatherScatter:
    def test_take_rows_roundtrip(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        idx = np.array([2, 0, 2])
        out = backward(lambda t: tsum(take_rows(t, idx)), x)
        assert np.array_equal(out.data, np.asarray(x.data[idx].sum()))
        counts = np.bincount(idx, minlength=4)[:, None]
        assert np.array_equal(x.grad, np.broadcast_to(counts, (4, 3)).astype(float))

    def test_scatter_rows_backward_is_gather(self):
        v = Tensor(np.ones((2, 3)), requires_grad=True)
        out = scatter_rows(v, np.array([1, 3]), 5)
        assert out.data.shape == (5, 3)
        assert np.array_equal(out.data[1], np.ones(3))
        assert np.array_equal(out.data[0], np.zeros(3))

    def test_gather_rc(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(lambda t: tsum(gather_rc(t, np.array([0, 1]), np.array([2, 0]))), x)
        expected = np.zeros((2, 3))
        expected[0, 2] = 1.0
        expected[1, 0] = 1.0
        assert np.array_equal(x.grad, expected)

    def test_take_rows_bad_index(self):
        with pytest.raises(IndexError):
            take_rows(Tensor(np.zeros((2, 2))), np.array([5]))


class TestSte:
    def test_forward_threshold_inclusive(self):
        out = binarize_ste(Tensor([[0.49, 0.5, 0.51]]), 0.5)
        assert out.data.tolist() == [[0.0, 1.0, 1.0]]

    def test_backward_identity(self):
        x = Tensor([[0.2, 0.8]], requires_grad=True)
        backward(lambda t: tsum(mul(binarize_ste(t, 0.5), [[3.0, 5.0]])), x)
        assert x.grad.tolist() == [[3.0, 5.0]]


class TestTapeSemantics:
    def test_double_backward_accumulates(self):
        w = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            out = mul(w, w)
            tape.backward(out)
            first = w.grad.copy()
            tape.backward(out)
        assert np.allclose(first, [4.0])
        assert np.allclose(w.grad, [8.0])

    def test_shared_input_accumulates(self):
        w = Tensor([3.0], requires_grad=True)
        backward(lambda t: tsum(add(mul(t, t), t)), w)
        assert np.allclose(w.grad, [7.0])  # d(w^2 + w)/dw = 2w + 1

    def test_one_upstream_gradient_reaching_two_inputs(self):
        # add passes its upstream g on unchanged: x + x sends it to x twice,
        # a + b to two tensors; neither may share or grow the buffer of g
        c = np.array([1.0, -2.0, 3.0])
        x = Tensor([0.5, 1.0, 2.0], requires_grad=True)
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        with Tape() as tape:
            y = add(x, x)
            s = add(a, b)
            loss = tsum(add(mul(y, c), mul(s, c)))
            tape.backward(loss)
            assert np.array_equal(y.grad, c) and np.array_equal(x.grad, 2 * c)
            tape.backward(loss)
        assert np.array_equal(y.grad, 2 * c) and np.array_equal(x.grad, 4 * c)
        for t in (s, a, b):
            assert np.array_equal(t.grad, 2 * c)
        assert not np.shares_memory(a.grad, b.grad) and not np.shares_memory(a.grad, s.grad)

    def test_deterministic_forward(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 4))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x)).data
        assert np.array_equal(a, b)

    def test_no_tape_records_nothing(self):
        t = Tensor([1.0], requires_grad=True)
        out = mul(t, t)
        assert out.data[0] == 1.0
        with Tape() as tape:
            pass
        assert tape.nodes == []

    def test_untaped_suspends_recording_inside_a_tape(self):
        t = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            with untaped():
                inner = mul(t, t)
            out = mul(t, 3.0)
        assert inner.data[0] == 4.0
        assert [node for node, _ in tape.nodes] == [out]


class TestCheckGradient:
    def test_square(self):
        w = Tensor([3.0], requires_grad=True)
        err = check_gradient(lambda: mul(w, w), [w])
        assert err < 1e-8

    def test_constant(self):
        w = Tensor([3.0], requires_grad=True)
        err = check_gradient(lambda: Tensor._raw(np.asarray(5.0)), [w])
        assert err == 0.0

    def test_two_layer_dense_net(self):
        rng = np.random.default_rng(11)
        w1 = Tensor(rng.normal(0, 0.5, (4, 6)), requires_grad=True)
        w2 = Tensor(rng.normal(0, 0.5, (6, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 4)))

        def f():
            return tsum(mul(h := matmul(silu(matmul(x, w1)), w2), h))

        err = check_gradient(f, [w1, w2], epsilon=1e-5)
        assert err < 1e-4


def random_op_gradient_cases():
    rng = np.random.default_rng(42)
    cases = []
    for trial in range(3):
        shape = tuple(int(s) for s in rng.integers(1, 8, size=2))
        cases.append((trial, shape))
    return cases


@pytest.mark.parametrize("trial,shape", random_op_gradient_cases())
@pytest.mark.parametrize(
    "name,build",
    [
        ("sigmoid", lambda t: tsum(mul(sigmoid(t), sigmoid(t)))),
        ("silu", lambda t: tsum(silu(t))),
        ("softmax", lambda t: tsum(mul(softmax(t), softmax(t)))),
        ("rms", lambda t: tsum(rms_norm(t, Tensor(np.linspace(0.5, 1.5, t.shape[-1]))))),
        ("div", lambda t: tsum(div(t, add(mul(t, t), 1.0)))),
        ("slice", lambda t: tsum(mul(slice_cols(t, 0, 1), 2.0))),
        ("transpose", lambda t: tsum(mul(transpose(t, (1, 0)), transpose(t, (1, 0))))),
        ("reshape", lambda t: tsum(mul(reshape(t, (t.data.size,)), 3.0))),
        ("maskfill", lambda t: tsum(mul(mask_fill(t, t.data > 0, -1.0), t))),
    ],
)
def test_op_gradients_match_finite_differences(trial, shape, name, build):
    rng = np.random.default_rng(100 + trial)
    t = Tensor(rng.normal(0.0, 1.0, shape), requires_grad=True)
    err = check_gradient(lambda: build(t), [t], epsilon=1e-5)
    assert err < 1e-4, f"{name} {shape}: {err}"


@pytest.mark.parametrize("shape", [(1, 1), (5, 8), (2, 3, 64)])
def test_rms_norm_equals_mean_form(shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150, shape)
    x[rng.random(shape) < 0.2] = -0.0
    w = rng.normal(size=shape[-1:])
    got = rms_norm(Tensor(x), Tensor(w)).data
    want = reference_rms_norm_np(x, w)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_rms_norm_weight_gradient():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 5)))
    w = Tensor(rng.normal(1.0, 0.1, 5), requires_grad=True)
    err = check_gradient(lambda: tsum(mul(rms_norm(x, w), rms_norm(x, w))), [w])
    assert err < 1e-4


def test_cross_entropy_gradient():
    rng = np.random.default_rng(9)
    logits = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    targets = rng.integers(0, 5, size=6)
    err = check_gradient(lambda: cross_entropy(logits, targets), [logits])
    assert err < 1e-4
