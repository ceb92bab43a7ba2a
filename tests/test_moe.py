import numpy as np
import pytest

from beamoe.moe import (
    Expert,
    MoEBlock,
    MoEBlockConfig,
    expert_forward,
    expert_forward_np,
    moe_block_forward,
    topk_route,
    topk_select,
)
from beamoe.tensor import (
    ContractError,
    Tape,
    Tensor,
    add,
    check_gradient,
    mul,
    reshape,
    rms_norm,
    take_rows,
    tsum,
)

from reference_ops import gather_rc, load_balance_loss, scatter_rows


def make_expert(d_h, d_ff, rng, std=0.5):
    return Expert.init_random(d_h, d_ff, rng, std)


def per_expert_moe_block_forward(
    h, weights_hat, experts, shared_experts=(), *, norm_weight=None,
    activation="silu", compute_ids=None,
):
    """Reference: moe_block_forward composed of primitive tape ops, one
    expert at a time (take_rows -> expert_forward -> gather_rc -> mul ->
    scatter_rows -> add), every planned row differentiated through the tape."""
    t, n = weights_hat.shape
    x_norm = rms_norm(h, norm_weight) if norm_weight is not None else h
    y = None
    for i in range(n):
        if compute_ids is not None:
            rows = np.nonzero((compute_ids == i).any(axis=-1))[0]
        else:
            rows = np.nonzero(weights_hat.data[:, i] != 0.0)[0]
        if rows.size == 0:
            continue
        oi = expert_forward(take_rows(x_norm, rows), experts[i], activation)
        wi = reshape(gather_rc(weights_hat, rows, np.full(rows.shape, i)), (rows.size, 1))
        contrib = scatter_rows(mul(oi, wi), rows, t)
        y = contrib if y is None else add(y, contrib)
    for e in shared_experts:
        so = expert_forward(x_norm, e, activation)
        y = so if y is None else add(y, so)
    return h if y is None else add(h, y)


class TestConfig:
    def test_k_bounds(self):
        with pytest.raises(ContractError):
            MoEBlockConfig(d_h=4, d_ff=4, num_experts=2, top_k=3)
        with pytest.raises(ContractError):
            MoEBlockConfig(d_h=0, d_ff=4, num_experts=2, top_k=1)

    def test_valid(self):
        cfg = MoEBlockConfig(d_h=4, d_ff=8, num_experts=4, top_k=2)
        assert cfg.top_k == 2


class TestExpertForward:
    def test_zero_input(self):
        rng = np.random.default_rng(0)
        e = make_expert(3, 5, rng)
        out = expert_forward(Tensor(np.zeros((2, 3))), e)
        assert np.array_equal(out.data, np.zeros((2, 3)))

    def test_zero_down_projection(self):
        rng = np.random.default_rng(1)
        e = make_expert(3, 5, rng)
        e.w_down.data[...] = 0.0
        out = expert_forward(Tensor(rng.normal(size=(2, 3))), e)
        assert np.array_equal(out.data, np.zeros((2, 3)))

    def test_scalar_identity_activation(self):
        # 1x1 weights all ones, identity activation, x = 2 -> (2 * 2) * 1 = 4
        e = Expert(Tensor([[1.0]]), Tensor([[1.0]]), Tensor([[1.0]]))
        out = expert_forward(Tensor([[2.0]]), e, activation="identity")
        assert out.data.tolist() == [[4.0]]

    def test_np_path_bit_identical(self):
        rng = np.random.default_rng(2)
        e = make_expert(6, 9, rng)
        x = rng.normal(size=(7, 6))
        assert np.array_equal(
            expert_forward(Tensor(x), e, "silu").data, expert_forward_np(x, e, "silu")
        )


class TestTopkRoute:
    def test_known_logits(self):
        # router = identity-ish: x already holds the logits
        x = Tensor([[2.0, 1.0, 0.0, -1.0]])
        w = Tensor(np.eye(4))
        dec = topk_route(x, w, 2)
        assert sorted(dec.topk_indices[0].tolist()) == [0, 1]
        e = np.exp([2.0, 1.0])
        expected = e / e.sum()
        assert np.allclose(dec.weights.data[0], [expected[0], expected[1], 0.0, 0.0])
        assert abs(dec.weights.data[0, 0] - 0.7311) < 1e-4

    def test_tie_break_lowest_index(self):
        x = Tensor([[1.0, 1.0, 1.0, 1.0]])
        dec = topk_route(x, Tensor(np.eye(4)), 2)
        assert dec.topk_indices[0].tolist() == [0, 1]
        assert np.allclose(dec.weights.data[0], [0.5, 0.5, 0.0, 0.0])

    def test_k_equals_n_full_softmax(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(5, 4)))
        w = Tensor(rng.normal(size=(4, 6)))
        dec = topk_route(x, w, 6)
        logits = x.data @ w.data
        full = np.exp(logits - logits.max(-1, keepdims=True))
        full /= full.sum(-1, keepdims=True)
        assert np.allclose(dec.weights.data, full, atol=1e-12)

    def test_weight_vector_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t, d, n = rng.integers(1, 6), rng.integers(1, 6), rng.integers(2, 9)
            k = int(rng.integers(1, n + 1))
            x = Tensor(rng.normal(size=(t, d)))
            w = Tensor(rng.normal(size=(d, n)))
            dec = topk_route(x, w, k)
            weights = dec.weights.data
            assert np.allclose(weights.sum(-1), 1.0, atol=1e-9)
            assert ((weights > 0).sum(-1) == k).all()
            for row_ids in dec.topk_indices:
                assert len(set(row_ids.tolist())) == k
            # exact zeros off the candidate set
            kept = np.zeros_like(weights, dtype=bool)
            np.put_along_axis(kept, dec.topk_indices, True, -1)
            assert (weights[~kept] == 0.0).all()

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 6))
        w = Tensor(np.eye(6))
        base = topk_route(Tensor(logits), w, 3)
        shifted = topk_route(Tensor(logits + 7.5), w, 3)
        assert np.array_equal(base.topk_indices, shifted.topk_indices)
        assert np.allclose(base.weights.data, shifted.weights.data, atol=1e-12)

    def test_topk_select_stability(self):
        ids = topk_select(np.array([[5.0, 5.0, 5.0]]), 2)
        assert ids.tolist() == [[0, 1]]


class TestLoadBalanceLoss:
    def test_uniform_routing_value_k(self):
        # every expert selected equally and softmax uniform: loss = K
        n, k, t = 4, 2, 8
        x = Tensor(np.zeros((t, 3)))
        w = Tensor(np.zeros((3, n)))
        dec = topk_route(x, w, k)
        loss = load_balance_loss(dec)
        assert loss.data == pytest.approx(k, abs=1e-9)

    def test_collapse_approaches_n(self):
        n, k, t = 4, 1, 16
        logits = np.zeros((t, n))
        logits[:, 2] = 50.0  # everything to expert 2, softmax mass concentrated
        dec = topk_route(Tensor(logits), Tensor(np.eye(n)), k)
        loss = load_balance_loss(dec)
        assert loss.data == pytest.approx(n, abs=1e-6)

    def test_single_token_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            logits = rng.normal(size=(1, n))
            dec = topk_route(Tensor(logits), Tensor(np.eye(n)), k)
            # brute force: f is the indicator of the top-k set
            probs = np.exp(logits[0] - logits[0].max())
            probs /= probs.sum()
            f = np.zeros(n)
            f[dec.topk_indices[0]] = 1.0
            assert load_balance_loss(dec).data == pytest.approx(n * (f * probs).sum())

    def test_uniform_routing_minimizes(self):
        # circulant logits: token i prefers experts (i, i+1) mod n equally, so
        # selection spreads uniformly and the token-mean softmax is uniform
        rng = np.random.default_rng(7)
        n, k = 4, 2
        x = np.zeros((n, n))
        for i in range(n):
            x[i, i] = x[i, (i + 1) % n] = 1.0
        uniform = load_balance_loss(topk_route(Tensor(x), Tensor(np.eye(n)), k)).data
        assert uniform == pytest.approx(k, abs=1e-12)
        # skew strong enough to shift selections strictly increases the loss
        for bias in (1.5, 2.0, 3.0):
            skewed = np.repeat(x, 64, axis=0)
            skewed[:, 0] += bias
            val = load_balance_loss(topk_route(Tensor(skewed), Tensor(np.eye(n)), k)).data
            assert val > uniform + 1e-6
        # zero-mean noise concentrates at/above K; allow finite-sample slack
        for _ in range(30):
            noisy = np.repeat(x, 64, axis=0) + rng.normal(0, 0.5, (64 * n, n))
            val = load_balance_loss(topk_route(Tensor(noisy), Tensor(np.eye(n)), k)).data
            assert val >= uniform - 5e-3

    def test_gradient_reaches_router_only(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(6, 4)))
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        with Tape() as tape:
            dec = topk_route(x, w, 2)
            tape.backward(load_balance_loss(dec))
        assert w.grad is not None and np.any(w.grad != 0)


class TestMoeBlockForward:
    def _setup(self, t=5, d_h=4, d_ff=6, n=3, seed=0):
        rng = np.random.default_rng(seed)
        h = Tensor(rng.normal(size=(t, d_h)))
        experts = [make_expert(d_h, d_ff, rng) for _ in range(n)]
        return rng, h, experts

    def test_zero_weights_no_shared_returns_input_bit_exact(self):
        rng, h, experts = self._setup()
        out = moe_block_forward(h, Tensor(np.zeros((5, 3))), experts)
        assert np.array_equal(out.data, h.data)

    def test_zero_weights_with_shared_reduces_to_shared_only(self):
        rng, h, experts = self._setup()
        shared = [make_expert(4, 6, rng)]
        norm_w = Tensor(np.ones(4))
        out = moe_block_forward(
            h, Tensor(np.zeros((5, 3))), experts, shared, norm_weight=norm_w
        )
        xn = rms_norm(h, norm_w)
        expected = h.data + expert_forward(xn, shared[0]).data
        assert np.allclose(out.data, expected, atol=1e-15)

    def test_single_expert_full_weight(self):
        rng, h, experts = self._setup()
        weights = np.zeros((5, 3))
        weights[:, 1] = 1.0
        out = moe_block_forward(h, Tensor(weights), experts)
        expected = h.data + expert_forward(h, experts[1]).data
        assert np.allclose(out.data, expected, atol=1e-15)

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            t, d_h, d_ff, n = 6, 5, 7, 4
            k = int(rng.integers(1, n + 1))
            h = Tensor(rng.normal(size=(t, d_h)))
            experts = [make_expert(d_h, d_ff, rng) for _ in range(n)]
            norm_w = Tensor(rng.uniform(0.5, 1.5, d_h))
            dec = topk_route(rms_norm(h, norm_w), Tensor(rng.normal(size=(d_h, n))), k)
            out = moe_block_forward(
                h, dec.weights, experts, norm_weight=norm_w, activation="silu"
            )
            xn = rms_norm(h, norm_w).data
            expected = h.data.copy()
            for tok in range(t):
                for i in range(n):
                    g = dec.weights.data[tok, i]
                    if g:
                        expected[tok] += g * expert_forward_np(xn[tok : tok + 1], experts[i])[0]
            assert np.allclose(out.data, expected, atol=1e-9)

    def test_negative_weights_rejected(self):
        rng, h, experts = self._setup()
        with pytest.raises(ContractError):
            moe_block_forward(h, Tensor(np.full((5, 3), -0.1)), experts)

    def test_gradients_flow_to_experts_and_router(self):
        rng = np.random.default_rng(12)
        d_h, d_ff, n, k, t = 4, 5, 3, 2, 6
        h = Tensor(rng.normal(size=(t, d_h)))
        experts = [make_expert(d_h, d_ff, rng, std=0.3) for _ in range(n)]
        router = Tensor(rng.normal(0, 0.3, (d_h, n)), requires_grad=True)

        def f():
            dec = topk_route(h, router, k)
            out = moe_block_forward(h, dec.weights, experts)
            return tsum(mul(out, out))

        params = [router] + [w for e in experts for w in e.tensors()]
        for p in params:
            p.requires_grad = True
        assert check_gradient(f, params, epsilon=1e-5, max_coords=8) < 1e-4


class TestGroupedGluOracle:
    """moe_block_forward against the per-expert tape composition: forward
    bit-equal, every gradient within 1e-12 relative."""

    T, D_H, D_FF, N = 9, 5, 6, 5

    def _case(self, seed, num_shared):
        rng = np.random.default_rng(seed)
        t, n = self.T, self.N
        experts = [make_expert(self.D_H, self.D_FF, rng) for _ in range(n)]
        shared = [make_expert(self.D_H, self.D_FF, rng) for _ in range(num_shared)]
        h = Tensor(rng.normal(size=(t, self.D_H)), requires_grad=True)
        norm_w = Tensor(rng.uniform(0.5, 1.5, self.D_H), requires_grad=True)
        # expert 4 is never a candidate; expert 3 is a candidate of token 0
        # only, where its slot is closed
        compute_ids = np.stack([rng.choice(3, size=2, replace=False) for _ in range(t)])
        compute_ids[0, 1] = 3
        weights = np.zeros((t, n))
        np.put_along_axis(weights, compute_ids, rng.uniform(0.1, 1.0, compute_ids.shape), -1)
        weights[0, 3] = 0.0
        weights[1, compute_ids[1, 0]] = 0.0  # closed slots of an otherwise live expert
        weights[4, compute_ids[4]] = 0.0
        weights_hat = Tensor(weights, requires_grad=True)
        upstream = rng.normal(size=(t, self.D_H))
        return h, norm_w, weights_hat, experts, shared, compute_ids, upstream

    @staticmethod
    def _run(fn, params, upstream, **kw):
        for p in params:
            p.grad = None
        with Tape() as tape:
            out = fn(**kw)
            tape.backward(tsum(mul(out, Tensor(upstream))))
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
        return out.data, grads

    @pytest.mark.parametrize("activation", ["silu", "identity"])
    @pytest.mark.parametrize("num_shared", [0, 1])
    @pytest.mark.parametrize("use_compute_ids", [True, False])
    def test_matches_per_expert_composition(self, activation, num_shared, use_compute_ids):
        h, norm_w, weights_hat, experts, shared, compute_ids, upstream = self._case(
            20 + num_shared, num_shared
        )
        params = [h, norm_w, weights_hat] + [w for e in experts + shared for w in e.tensors()]
        for p in params:
            p.requires_grad = True
        kw = dict(
            h=h, weights_hat=weights_hat, experts=experts, shared_experts=shared,
            norm_weight=norm_w, activation=activation,
            compute_ids=compute_ids if use_compute_ids else None,
        )
        ref_out, ref_grads = self._run(per_expert_moe_block_forward, params, upstream, **kw)
        out, grads = self._run(moe_block_forward, params, upstream, **kw)
        assert np.array_equal(out, ref_out)
        for ref, got in zip(ref_grads, grads):
            scale = np.max(np.abs(ref)) if ref.size else 0.0
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * max(scale, 1e-300)
        # closed slots still carry the straight-through weight gradient
        if use_compute_ids:
            assert weights_hat.grad[0, 3] != 0.0
            assert np.all(weights_hat.grad[4, compute_ids[4]] != 0.0)
        # a never-planned expert gets no gradient at all; a planned one whose
        # slots are all closed gets an exact zero
        assert experts[4].w_up.grad is None
        if use_compute_ids:
            assert np.all(experts[3].w_up.grad == 0.0)

    def test_out_of_range_compute_ids_rejected(self):
        h, norm_w, weights_hat, experts, _, compute_ids, _ = self._case(20, 0)
        for bad in (-1, self.N):
            ids = compute_ids.copy()
            ids[2, 0] = bad
            with pytest.raises(ContractError):
                moe_block_forward(h, weights_hat, experts, compute_ids=ids)
