import numpy as np
import pytest

from beamoe.beam import MaskDecision, MaskRouter, mask_forward, sparsity_loss
from beamoe.moe import MoEBlock, MoEBlockConfig, expert_forward, moe_block_forward, topk_route
from beamoe.tensor import ContractError, Tape, Tensor, add, mul, sigmoid_np, tsum

from reference_ops import beam_block_forward, check_gradient, masked_aggregate, ste_backward


def tiny_block(rng, d_h=6, d_ff=5, n=4, k=2, num_shared=0, has_norm=False, tau=0.5):
    cfg = MoEBlockConfig(
        d_h=d_h,
        d_ff=d_ff,
        num_experts=n,
        top_k=k,
        num_shared=num_shared,
        has_norm=has_norm,
        activation="silu",
    )
    block = MoEBlock(cfg, rng, init_std=0.3)
    block.mask_router = MaskRouter.zero_init(d_h, n, tau)
    return block


class TestMaskRouter:
    def test_tau_bounds(self):
        with pytest.raises(ContractError):
            MaskRouter(Tensor(np.zeros((2, 2))), tau=1.0)
        with pytest.raises(ContractError):
            MaskRouter(Tensor(np.zeros((2, 2))), tau=0.0)

    def test_zero_init(self):
        r = MaskRouter.zero_init(3, 4)
        assert np.array_equal(r.weight.data, np.zeros((3, 4)))
        assert r.tau == 0.5


class TestMaskForward:
    def test_zero_init_opens_everything(self):
        rng = np.random.default_rng(0)
        router = MaskRouter.zero_init(5, 3)
        x = Tensor(rng.normal(size=(4, 5)))
        dec = mask_forward(x, router)
        assert np.all(dec.raw_mask.data == 0.5)
        assert np.all(dec.binary_mask == 1)

    def test_sigmoid_closed_form(self):
        # pre-activations (-1, 1): raw mask (0.2689, 0.7311), bits (0, 1)
        router = MaskRouter(Tensor(np.eye(2)), tau=0.5)
        dec = mask_forward(Tensor([[-1.0, 1.0]]), router)
        assert np.allclose(dec.raw_mask.data, [[0.26894142, 0.73105858]], atol=1e-6)
        assert dec.binary_mask.tolist() == [[0, 1]]

    def test_boundary_is_inclusive(self):
        router = MaskRouter(Tensor(np.eye(1)), tau=0.5)
        dec = mask_forward(Tensor([[0.0]]), router)
        assert dec.raw_mask.data[0, 0] == 0.5
        assert dec.binary_mask[0, 0] == 1


class TestMaskedAggregate:
    def _outputs(self, rng, t, n, d):
        return [Tensor(rng.normal(size=(t, d))) for _ in range(n)]

    def test_all_ones_mask_is_identity(self):
        rng = np.random.default_rng(1)
        t, n, d = 3, 4, 5
        g = Tensor(rng.uniform(0, 1, (t, n)))
        outs = self._outputs(rng, t, n, d)
        ghat, y = masked_aggregate(g, Tensor(np.ones((t, n))), outs)
        assert np.array_equal(ghat.data, g.data)
        expected = sum(g.data[:, i : i + 1] * outs[i].data for i in range(n))
        assert np.allclose(y.data, expected, atol=1e-12)

    def test_all_zero_mask_gives_zero(self):
        rng = np.random.default_rng(2)
        g = Tensor(rng.uniform(0, 1, (3, 4)))
        _, y = masked_aggregate(g, Tensor(np.zeros((3, 4))), self._outputs(rng, 3, 4, 5))
        assert np.array_equal(y.data, np.zeros((3, 5)))

    def test_single_survivor(self):
        rng = np.random.default_rng(3)
        t, n, d = 2, 4, 3
        g = Tensor(rng.uniform(0.1, 1, (t, n)))
        mask = np.zeros((t, n))
        mask[:, 2] = 1.0
        outs = self._outputs(rng, t, n, d)
        _, y = masked_aggregate(g, Tensor(mask), outs)
        assert np.allclose(y.data, g.data[:, 2:3] * outs[2].data, atol=1e-15)

    def test_no_renormalization(self):
        g = Tensor([[0.6, 0.4, 0.0]])
        mask = Tensor([[1.0, 0.0, 0.0]])
        ghat, _ = masked_aggregate(g, mask, self._outputs(np.random.default_rng(4), 1, 3, 2))
        assert ghat.data.tolist() == [[0.6, 0.0, 0.0]]  # still sums to 0.6


class TestSparsityLoss:
    def test_zero_init_value(self):
        for k in (1, 2, 4):
            raw = Tensor(np.full((5, 8), 0.5))
            idx = np.tile(np.arange(k), (5, 1))
            assert sparsity_loss(raw, idx).data == pytest.approx(0.5)

    def test_mean_of_absolute_values(self):
        raw = Tensor(np.array([[0.9, 0.1, 0.7]]))
        idx = np.array([[0, 1]])
        assert sparsity_loss(raw, idx).data == pytest.approx(0.5)

    def test_non_candidate_entries_ignored(self):
        raw = np.array([[0.9, 0.1, 0.7]])
        idx = np.array([[0, 1]])
        base = sparsity_loss(Tensor(raw), idx).data
        raw2 = raw.copy()
        raw2[0, 2] = 0.123
        assert sparsity_loss(Tensor(raw2), idx).data == base

    def test_gradient_is_uniform_over_candidates(self):
        t, k, n = 4, 2, 5
        rng = np.random.default_rng(5)
        raw = Tensor(rng.uniform(0.01, 0.99, (t, n)), requires_grad=True)
        idx = np.stack([rng.choice(n, size=k, replace=False) for _ in range(t)])
        with Tape() as tape:
            tape.backward(sparsity_loss(raw, idx))
        sel = np.zeros((t, n))
        np.put_along_axis(sel, idx, 1.0, -1)
        assert np.allclose(raw.grad, sel / (t * k), atol=1e-15)

    def test_value_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            t, n = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            a = rng.normal(0, 3, (t, n))
            raw = Tensor(sigmoid_np(a))
            idx = np.stack([rng.choice(n, size=k, replace=False) for _ in range(t)])
            val = sparsity_loss(raw, idx).data
            assert 0.0 < val < 1.0


class TestSteBackwardClosedForm:
    def test_spec_point_value(self):
        # single token, single expert in the candidate set, zero upstream,
        # beta = K = 1, a = 0: (0 + 1) * sigma'(0) = 0.25
        dec = MaskDecision(
            pre_activation=Tensor([[0.0]]),
            raw_mask=Tensor([[0.5]]),
            mask=Tensor([[1.0]]),
        )
        grad = ste_backward(np.zeros((1, 1)), np.ones((1, 1)), dec, beta=1.0, k=1)
        assert grad[0, 0] == pytest.approx(0.25)

    def test_zero_outside_candidates(self):
        rng = np.random.default_rng(7)
        weights = np.array([[0.7, 0.3, 0.0, 0.0]])
        dec = MaskDecision(
            pre_activation=Tensor(rng.normal(size=(1, 4))),
            raw_mask=Tensor(np.full((1, 4), 0.5)),
            mask=Tensor(np.ones((1, 4))),
        )
        grad = ste_backward(rng.normal(size=(1, 4)), weights, dec, beta=0.5, k=2)
        assert grad[0, 2] == 0.0 and grad[0, 3] == 0.0

    def test_retention_sign_boundary(self):
        # gradient sign flips where upstream * g crosses -beta/(K*T)
        beta, k = 0.8, 2
        g = 0.5
        a = 0.3
        boundary = -beta / k / g  # T = 1
        for eps, sign in ((-1e-6, -1.0), (1e-6, 1.0)):
            dec = MaskDecision(
                pre_activation=Tensor([[a]]),
                raw_mask=Tensor([[float(sigmoid_np(np.array(a)))]]),
                mask=Tensor([[1.0]]),
            )
            grad = ste_backward(
                np.array([[boundary + eps]]), np.array([[g]]), dec, beta=beta, k=k
            )
            assert np.sign(grad[0, 0]) == sign


def closed_form_vs_tape_case(seed):
    """Random tiny configuration: tape-computed mask gradient vs closed form."""
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, 7))
    n = int(rng.integers(2, 9))
    k = int(rng.integers(1, min(n, 4) + 1))
    d_h = int(rng.integers(2, 17))
    d_ff = int(rng.integers(2, 9))
    beta = float(rng.uniform(0.0, 2.0))

    x = Tensor(rng.normal(size=(t, d_h)))
    router_w = Tensor(rng.normal(size=(d_h, n)), requires_grad=True)
    mask_router = MaskRouter(Tensor(rng.normal(0, 0.8, (d_h, n)), requires_grad=True))
    experts = [
        MoEBlock(
            MoEBlockConfig(d_h=d_h, d_ff=d_ff, num_experts=1, top_k=1, has_norm=False),
            rng,
            init_std=0.4,
        ).experts[0]
        for _ in range(n)
    ]
    upstream_seed = Tensor(rng.normal(size=(t, d_h)))

    with Tape() as tape:
        dec = topk_route(x, router_w, k)
        maskdec = mask_forward(x, mask_router)
        outs = [expert_forward(x, e) for e in experts]
        ghat, y = masked_aggregate(dec.weights, maskdec.mask, outs)
        task = tsum(mul(y, upstream_seed))  # linear task head
        reg = sparsity_loss(maskdec.raw_mask, dec.topk_indices)
        total = add(task, mul(reg, beta))
        tape.backward(total)

    tape_grad = maskdec.pre_activation.grad
    upstream = ghat.grad  # dL_task/dghat; the reg path does not touch ghat
    closed = ste_backward(upstream, dec.weights.data, maskdec, beta, k)
    return tape_grad, closed, dec


class TestGradientOracle:
    def test_tape_matches_closed_form(self):
        for seed in range(30):
            tape_grad, closed, dec = closed_form_vs_tape_case(seed)
            assert np.max(np.abs(tape_grad - closed)) < 1e-10

    def test_non_candidates_get_exact_zero(self):
        for seed in range(30):
            tape_grad, _, dec = closed_form_vs_tape_case(seed)
            off = np.ones_like(tape_grad, dtype=bool)
            np.put_along_axis(off, dec.topk_indices, False, -1)
            assert np.all(tape_grad[off] == 0.0)

    def test_pure_sparsity_pressure_decreases_candidates(self):
        # with zero upstream, every candidate pre-activation gradient is
        # strictly positive, so a gradient step decreases it
        rng = np.random.default_rng(77)
        t, n, k = 5, 6, 3
        weights = np.zeros((t, n))
        idx = np.stack([rng.choice(n, size=k, replace=False) for _ in range(t)])
        np.put_along_axis(weights, idx, 1.0 / k, -1)
        dec = MaskDecision(
            pre_activation=Tensor(rng.normal(size=(t, n))),
            raw_mask=Tensor(np.full((t, n), 0.5)),
            mask=Tensor(np.ones((t, n))),
        )
        grad = ste_backward(np.zeros((t, n)), weights, dec, beta=0.7, k=k)
        sel = weights > 0
        assert np.all(grad[sel] > 0.0)
        assert np.all(grad[~sel] == 0.0)


class TestBeamBlockForward:
    def test_zero_init_equals_vanilla_exactly(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            local = np.random.default_rng(seed)
            block = tiny_block(local, has_norm=True)
            h = Tensor(local.normal(size=(7, 6)))
            out_beam, dec, maskdec = beam_block_forward(h, block, training=True)
            x_n = block.normalize(h)
            vanilla_dec = topk_route(x_n, block.router_w, block.cfg.top_k)
            out_vanilla = moe_block_forward(
                h,
                vanilla_dec.weights,
                block.experts,
                block.shared,
                x_norm=x_n,
                activation="silu",
                compute_ids=vanilla_dec.topk_indices,
            )
            assert np.array_equal(out_beam.data, out_vanilla.data)

    def test_training_and_inference_agree(self):
        rng = np.random.default_rng(9)
        for tau in (0.5, 0.7):
            for seed in range(10):
                local = np.random.default_rng(100 + seed)
                block = tiny_block(local, has_norm=True, num_shared=1, tau=tau)
                # push the mask router away from zero so masking actually happens
                block.mask_router.weight.data[...] = local.normal(0, 1.0, (6, 4))
                h = Tensor(local.normal(size=(9, 6)))
                out_train, dec_t, mask_t = beam_block_forward(h, block, training=True)
                out_infer, dec_i, mask_i = beam_block_forward(h, block, training=False)
                assert np.array_equal(dec_t.topk_indices, dec_i.topk_indices)
                assert np.max(np.abs(out_train.data - out_infer.data)) < 1e-9

    def test_activation_count_bounded_by_k(self):
        rng = np.random.default_rng(10)
        block = tiny_block(rng)
        block.mask_router.weight.data[...] = rng.normal(0, 2.0, (6, 4))
        h = Tensor(rng.normal(size=(50, 6)))
        _, dec, maskdec = beam_block_forward(h, block, training=True)
        active = np.take_along_axis(maskdec.binary_mask, dec.topk_indices, -1).sum(-1)
        assert np.all(active >= 0) and np.all(active <= block.cfg.top_k)

    def test_fully_masked_token_passes_through(self):
        rng = np.random.default_rng(11)
        block = tiny_block(rng, has_norm=False)
        # strongly negative mask logits: every expert masked for every token
        block.mask_router.weight.data[...] = 0.0
        h = Tensor(rng.normal(size=(4, 6)))
        a = block.mask_router.weight.data
        block.mask_router.weight.data[...] = -1e3 * np.ones_like(a)
        # x @ W_m < 0 is not guaranteed for all tokens with a constant W_m;
        # force it through the sign of each token's feature sum
        signs = np.sign(h.data.sum(axis=1, keepdims=True))
        h2 = Tensor(h.data * signs)  # feature sums now positive
        out, dec, maskdec = beam_block_forward(h2, block, training=False)
        assert np.all(maskdec.binary_mask == 0)
        assert np.array_equal(out.data, h2.data)


class TestBeamFiniteDifferences:
    def test_closed_masks_gradient_matches_finite_differences(self):
        # A saturated mask router (|pre-activation| >= 40 everywhere) closes
        # some top-k candidates while its sigmoid slope, and with it the
        # straight-through term that no finite difference sees, is below
        # 1e-17. The mask router itself is not checked: its STE gradient is
        # not a derivative.
        from beamoe.baselines import RoutingStrategy, block_forward
        from beamoe.tensor import cross_entropy

        strategy = RoutingStrategy("beam")
        worst = 0.0
        for seed in range(3):
            rng = np.random.default_rng(300 + seed)
            block = tiny_block(rng, d_h=6, d_ff=5, n=5, k=3, num_shared=1, has_norm=True)
            block.mask_router.weight.data[...] = rng.normal(0, 1e4, (6, 5))
            h = Tensor(rng.normal(size=(7, 6)), requires_grad=True)
            targets = rng.integers(0, 6, size=7)
            head = Tensor(rng.normal(0, 1.0, (6, 6)))

            x_n = block.normalize(h)
            a = mask_forward(x_n, block.mask_router).pre_activation.data
            assert np.min(np.abs(a)) >= 40.0
            rr = block_forward(h, block, strategy, training=True)[1]
            closed = int((rr.active_bits == 0).sum())
            assert 0 < closed < rr.active_bits.size

            def f():
                out, _ = block_forward(h, block, strategy, training=True)
                return cross_entropy(out @ head, targets)

            params = [h, block.router_w, block.norm_w] + [
                w for e in block.experts + block.shared for w in e.tensors()
            ]
            worst = max(worst, check_gradient(f, params, epsilon=1e-5, rng=rng, max_coords=6))
        assert worst < 1e-4
