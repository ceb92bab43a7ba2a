import numpy as np
import pytest

from beamoe import moe
from beamoe.moe import (
    Expert,
    MoEBlock,
    MoEBlockConfig,
    balance_loss_from,
    expert_forward,
    expert_forward_np,
    group_slots,
    moe_block_forward,
    topk_route,
    topk_select,
)
from beamoe.tensor import (
    ContractError,
    ShapeError,
    Tape,
    Tensor,
    add,
    mul,
    reshape,
    rms_norm,
    take_rows,
    tsum,
)

import reference_ops
from reference_ops import (
    check_gradient,
    gather_rc,
    load_balance_loss,
    reference_expert_forward,
    reference_group_slots,
    reference_moe_block_forward,
    reference_topk_keep,
    reference_topk_route,
    scatter_rows,
)


def make_expert(d_h, d_ff, rng, std=0.5):
    return Expert.init_random(d_h, d_ff, rng, std)


def nonzero_ids(weights):
    """(T, N) slot ids of the nonzero entries of a (T, N) weight array, -1
    elsewhere."""
    weights = weights.data if isinstance(weights, Tensor) else weights
    return np.where(weights != 0.0, np.arange(weights.shape[1]), np.int64(-1))


def per_expert_moe_block_forward(
    h, weights_hat, experts, shared_experts=(), *, compute_ids, norm_weight=None,
    activation="silu",
):
    """Reference: moe_block_forward composed of primitive tape ops, one
    expert at a time (take_rows -> expert_forward -> gather_rc -> mul ->
    scatter_rows -> add), every planned row differentiated through the tape,
    each expert the taped chain ``reference_expert_forward``."""
    t, n = weights_hat.shape
    x_norm = rms_norm(h, norm_weight) if norm_weight is not None else h
    y = None
    for i in range(n):
        rows = np.nonzero((compute_ids == i).any(axis=-1))[0]
        if rows.size == 0:
            continue
        oi = reference_expert_forward(take_rows(x_norm, rows), experts[i], activation)
        wi = reshape(gather_rc(weights_hat, rows, np.full(rows.shape, i)), (rows.size, 1))
        contrib = scatter_rows(mul(oi, wi), rows, t)
        y = contrib if y is None else add(y, contrib)
    for e in shared_experts:
        so = reference_expert_forward(x_norm, e, activation)
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
            reference_expert_forward(Tensor(x), e, "silu").data, expert_forward_np(x, e, "silu")
        )


class TestFusedExpertOracle:
    """``expert_forward``, one tape node over ``expert_forward_np`` with the
    closed-form ``expert_backward``, against the taped chain
    ``reference_expert_forward``: the forward bit-equal, signs of zero
    included, and every gradient within 4 eps of the chain's largest."""

    @staticmethod
    def _run(fn, x, expert, activation, upstream):
        params = [x] + expert.tensors()
        for p in params:
            p.grad = None
        with Tape() as tape:
            out = fn(x, expert, activation)
            nodes = len(tape.nodes)
            tape.backward(tsum(mul(out, Tensor(upstream))))
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
        return out.data, nodes, grads

    @pytest.mark.parametrize("activation", ["silu", "identity"])
    @pytest.mark.parametrize("rows", [0, 1, 9])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_matches_taped_chain(self, activation, rows, x_grad):
        eps = np.finfo(np.float64).eps
        for seed in range(4):
            rng = np.random.default_rng(100 * rows + seed)
            expert = make_expert(5, 7, rng)
            x = Tensor(rng.normal(size=(rows, 5)), requires_grad=x_grad)
            upstream = rng.normal(size=(rows, 5))
            ref_out, _, ref_grads = self._run(reference_expert_forward, x, expert, activation, upstream)
            out, nodes, grads = self._run(expert_forward, x, expert, activation, upstream)
            assert np.array_equal(out, ref_out)
            assert np.array_equal(np.signbit(out), np.signbit(ref_out))
            assert nodes == 1
            for ref, got in zip(ref_grads, grads):
                scale = np.max(np.abs(ref), initial=0.0)
                assert np.max(np.abs(got - ref), initial=0.0) <= 4 * eps * scale
            if not x_grad:
                assert x.grad is None

    def test_shared_experts_run_untaped_inside_one_node(self, monkeypatch):
        # the taped chain in place of expert_forward records nothing inside the block
        rng = np.random.default_rng(5)
        t, d_h, d_ff, n = 6, 4, 5, 3
        experts = [make_expert(d_h, d_ff, rng) for _ in range(n)]
        shared = [make_expert(d_h, d_ff, rng) for _ in range(2)]
        for p in [w for e in experts + shared for w in e.tensors()]:
            p.requires_grad = True
        h = Tensor(rng.normal(size=(t, d_h)), requires_grad=True)
        norm_w = Tensor(np.ones(d_h), requires_grad=True)
        weights = Tensor(rng.uniform(0.1, 1.0, (t, n)), requires_grad=True)

        def record():
            with Tape() as tape:
                x_norm = rms_norm(h, norm_w)
                before = len(tape.nodes)
                out = moe_block_forward(
                    h, weights, experts, shared, compute_ids=nonzero_ids(weights), x_norm=x_norm
                )
            return out.data, len(tape.nodes) - before

        out, fused = record()
        monkeypatch.setattr(moe, "expert_forward", reference_expert_forward)
        ref_out, chain = record()
        assert np.array_equal(out, ref_out)
        assert fused == chain == 1


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

    def test_keep_equals_put_along_axis(self):
        rng = np.random.default_rng(19)
        for t, n in [(1, 1), (1, 8), (9, 2), (33, 8)]:
            for k in sorted({1, n // 2 or 1, n}):
                dec = topk_route(Tensor(rng.normal(size=(t, 5))), Tensor(rng.normal(size=(5, n))), k)
                assert dec.keep.dtype == bool
                assert np.array_equal(dec.keep, reference_topk_keep(dec.topk_indices, (t, n)))

    def test_topk_select_stability(self):
        ids = topk_select(np.array([[5.0, 5.0, 5.0]]), 2)
        assert ids.tolist() == [[0, 1]]


def _route_with_grads(route_fn, x, w, k, upstream):
    leaves = [Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)]
    with Tape() as tape:
        dec = route_fn(*leaves, k)
        nodes = len(tape.nodes)
        loss = add(tsum(mul(dec.weights, upstream)), balance_loss_from(dec.logits, dec.keep))
        tape.backward(loss)
    return dec, nodes, [t.grad for t in leaves]


def _bit_equal(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestTopkRouteAgainstSentinelChain:
    """``topk_route`` equals the matmul, ``mask_fill`` and sentinel-softmax
    chain bit for bit, gradients and signs of zero included."""

    @pytest.mark.parametrize("nulls", [0, 2], ids=["width_n", "n_plus_2_nulls"])
    @pytest.mark.parametrize("t", [1, 7, 512])
    @pytest.mark.parametrize("tied", [False, True], ids=["drawn", "tied"])
    def test_equals_reference(self, nulls, t, tied):
        d, n, k = 6, 8, 4
        rng = np.random.default_rng([t, nulls, tied])
        x = rng.normal(size=(t, d))
        w = rng.normal(size=(d, n + nulls))
        if tied:
            # equal columns tie whole groups of logits, zero rows tie every logit
            w[:, 1::2] = w[:, 0::2]
            x[::3] = 0.0
        upstream = rng.normal(size=(t, n + nulls))
        dec, nodes, grads = _route_with_grads(topk_route, x, w, k, upstream)
        ref, _, ref_grads = _route_with_grads(reference_topk_route, x, w, k, upstream)
        assert nodes == 2
        assert _bit_equal(dec.logits.data, ref.logits.data)
        assert _bit_equal(dec.weights.data, ref.weights.data)
        assert np.array_equal(dec.keep, ref.keep) and dec.keep.dtype == bool
        assert np.array_equal(dec.topk_indices, ref.topk_indices)
        for name, got, want in zip(("x", "router_weights"), grads, ref_grads):
            assert _bit_equal(got, want), name


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
        weights = np.zeros((5, 3))
        out = moe_block_forward(h, Tensor(weights), experts, compute_ids=nonzero_ids(weights))
        assert np.array_equal(out.data, h.data)

    def test_zero_weights_with_shared_reduces_to_shared_only(self):
        rng, h, experts = self._setup()
        shared = [make_expert(4, 6, rng)]
        norm_w = Tensor(np.ones(4))
        weights = np.zeros((5, 3))
        out = moe_block_forward(
            h, Tensor(weights), experts, shared, compute_ids=nonzero_ids(weights),
            x_norm=rms_norm(h, norm_w),
        )
        xn = rms_norm(h, norm_w)
        expected = h.data + expert_forward(xn, shared[0]).data
        assert np.allclose(out.data, expected, atol=1e-15)

    def test_single_expert_full_weight(self):
        rng, h, experts = self._setup()
        weights = np.zeros((5, 3))
        weights[:, 1] = 1.0
        out = moe_block_forward(h, Tensor(weights), experts, compute_ids=nonzero_ids(weights))
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
                h, dec.weights, experts, compute_ids=nonzero_ids(dec.weights),
                x_norm=rms_norm(h, norm_w), activation="silu",
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
        ids = np.tile(np.arange(3), (5, 1))
        with pytest.raises(ContractError, match="expert weights must be non-negative"):
            moe_block_forward(h, Tensor(np.full((5, 3), -0.1)), experts, compute_ids=ids)

    def test_gradients_flow_to_experts_and_router(self):
        rng = np.random.default_rng(12)
        d_h, d_ff, n, k, t = 4, 5, 3, 2, 6
        h = Tensor(rng.normal(size=(t, d_h)))
        experts = [make_expert(d_h, d_ff, rng, std=0.3) for _ in range(n)]
        router = Tensor(rng.normal(0, 0.3, (d_h, n)), requires_grad=True)

        def f():
            dec = topk_route(h, router, k)
            out = moe_block_forward(h, dec.weights, experts, compute_ids=nonzero_ids(dec.weights))
            return tsum(mul(out, out))

        params = [router] + [w for e in experts for w in e.tensors()]
        for p in params:
            p.requires_grad = True
        assert check_gradient(f, params, epsilon=1e-5, max_coords=8) < 1e-4


class TestPerExpertOracle:
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
    @pytest.mark.parametrize("closed_slots_run", [True, False])
    def test_matches_per_expert_composition(self, activation, num_shared, closed_slots_run):
        # the slot set is every candidate, closed ones included, or the nonzero weights
        h, norm_w, weights_hat, experts, shared, compute_ids, upstream = self._case(
            20 + num_shared, num_shared
        )
        params = [h, norm_w, weights_hat] + [w for e in experts + shared for w in e.tensors()]
        for p in params:
            p.requires_grad = True
        kw = dict(
            h=h, weights_hat=weights_hat, experts=experts, shared_experts=shared,
            activation=activation,
            compute_ids=compute_ids if closed_slots_run else nonzero_ids(weights_hat),
        )
        ref_out, ref_grads = self._run(
            per_expert_moe_block_forward, params, upstream, norm_weight=norm_w, **kw
        )
        out, grads = self._run(
            lambda **kw: moe_block_forward(x_norm=rms_norm(h, norm_w), **kw), params, upstream, **kw
        )
        assert np.array_equal(out, ref_out)
        for ref, got in zip(ref_grads, grads):
            scale = np.max(np.abs(ref)) if ref.size else 0.0
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * max(scale, 1e-300)
        # closed slots still carry the straight-through weight gradient
        if closed_slots_run:
            assert weights_hat.grad[0, 3] != 0.0
            assert np.all(weights_hat.grad[4, compute_ids[4]] != 0.0)
        # a never-planned expert gets no gradient at all; a planned one whose
        # slots are all closed gets an exact zero
        assert experts[4].w_up.grad is None
        if closed_slots_run:
            assert np.all(experts[3].w_up.grad == 0.0)

    def test_compute_ids_of_another_token_count_rejected(self):
        h, norm_w, weights_hat, experts, _, compute_ids, _ = self._case(20, 0)
        for bad in (compute_ids[:1], compute_ids[:-1], compute_ids[0]):
            with pytest.raises(ShapeError):
                moe_block_forward(h, weights_hat, experts, compute_ids=bad)

    def test_out_of_range_compute_ids_rejected(self):
        h, norm_w, weights_hat, experts, _, compute_ids, _ = self._case(20, 0)
        for bad in (-2, self.N):
            ids = compute_ids.copy()
            ids[2, 0] = bad
            with pytest.raises(ContractError, match=r"expert ids must lie in \[-1, 5\)"):
                moe_block_forward(h, weights_hat, experts, compute_ids=ids)

    def test_no_slot_id_accepted_on_a_zero_weight(self):
        # -1 marks no slot, as in inference: dropping two closed slots from
        # the set leaves the forward bit-equal
        h, norm_w, weights_hat, experts, _, compute_ids, _ = self._case(20, 0)
        ids = compute_ids.copy()
        ids[4] = -1  # both of token 4's slots weigh 0
        out = moe_block_forward(h, weights_hat, experts, compute_ids=ids, x_norm=rms_norm(h, norm_w))
        want = moe_block_forward(
            h, weights_hat, experts, compute_ids=compute_ids, x_norm=rms_norm(h, norm_w)
        )
        assert np.array_equal(out.data, want.data)


class TestOneNodeBlockOracle:
    """moe_block_forward, one tape node, against ``reference_moe_block_forward``,
    the per-op composition of 2 + 2 * num_shared nodes: output and every
    gradient bit-equal, signs of zero included, and the same leaves reached."""

    T, D_H, D_FF, N = 9, 5, 6, 5

    def _case(self, seed, num_shared, slots):
        rng = np.random.default_rng(seed)
        t, n = self.T, self.N
        experts = [make_expert(self.D_H, self.D_FF, rng) for _ in range(n)]
        shared = [make_expert(self.D_H, self.D_FF, rng) for _ in range(num_shared)]
        h = rng.normal(size=(t, self.D_H))
        compute_ids = np.stack([rng.choice(4, size=2, replace=False) for _ in range(t)])
        weights = np.zeros((t, n))
        np.put_along_axis(weights, compute_ids, rng.uniform(0.1, 1.0, compute_ids.shape), -1)
        weights[1, compute_ids[1, 0]] = 0.0
        weights[4, compute_ids[4]] = 0.0
        if slots == "none":
            compute_ids[...] = -1
            weights[...] = 0.0
        elif slots == "zero_weight":
            weights[...] = 0.0
        elif slots == "signed_zeros":
            # no slot, and -0.0 rows, where x and so every expert output is zero
            compute_ids[...] = -1
            weights[...] = 0.0
            h[::2] = -0.0
        norm_w = rng.uniform(0.5, 1.5, self.D_H)
        upstream = rng.normal(size=(t, self.D_H))
        upstream[::3] = -0.0
        return h, norm_w, weights, experts, shared, compute_ids, upstream

    @staticmethod
    def _run(fn, h, norm_w, weights, experts, shared, compute_ids, upstream, with_norm):
        leaves = [Tensor(h, requires_grad=True), Tensor(norm_w, requires_grad=True)]
        weights_hat = Tensor(weights, requires_grad=True)
        params = [p for e in experts + shared for p in e.tensors()]
        for p in params:
            p.requires_grad = True
            p.grad = None
        with Tape() as tape:
            x_norm = rms_norm(leaves[0], leaves[1]) if with_norm else None
            if with_norm == "zero_rows":
                x_norm = mul(x_norm, Tensor((np.arange(len(h)) % 2 == 1)[:, None] * 1.0))
            before = len(tape.nodes)
            out = fn(
                leaves[0], weights_hat, experts, shared, compute_ids=compute_ids, x_norm=x_norm
            )
            nodes = len(tape.nodes) - before
            tape.backward(tsum(mul(out, Tensor(upstream))))
        return out.data, nodes, [p.grad for p in leaves + [weights_hat] + params]

    @pytest.mark.parametrize("with_norm", [None, "rms", "zero_rows"])
    @pytest.mark.parametrize("slots", ["drawn", "none", "zero_weight", "signed_zeros"])
    @pytest.mark.parametrize("num_shared", [0, 1, 2])
    def test_equals_per_op_composition(self, num_shared, slots, with_norm, monkeypatch):
        case = self._case(40 + num_shared, num_shared, slots)
        if slots == "signed_zeros":
            # a matmul never returns -0.0; signing the zero outputs checks
            # that no +0.0 is added to them before the residual
            real = moe.expert_forward

            def signed(x, expert, activation="silu"):
                out = real(x, expert, activation)
                out.data[out.data == 0.0] = -0.0
                return out

            monkeypatch.setattr(moe, "expert_forward", signed)
            monkeypatch.setattr(reference_ops, "expert_forward", signed)
        out, nodes, grads = self._run(moe_block_forward, *case, with_norm)
        ref_out, _, ref_grads = self._run(reference_moe_block_forward, *case, with_norm)
        assert _bit_equal(out, ref_out)
        assert nodes == (0 if slots in ("none", "signed_zeros") and num_shared == 0 else 1)
        for i, (got, want) in enumerate(zip(grads, ref_grads)):
            assert (got is None) == (want is None), i
            if want is not None:
                assert _bit_equal(got, want), i


def _runs(offsets, token_order):
    return [token_order[lo:hi].tolist() for lo, hi in zip(offsets[:-1], offsets[1:])]


class TestGroupSlots:
    """``group_slots`` against hand cases and the boolean-scatter grouping
    training used before (``reference_group_slots``)."""

    def test_empty_input(self):
        for ids in (np.zeros((0, 3), dtype=np.int64), np.zeros((4, 0), dtype=np.int64)):
            offsets, token_order = group_slots(ids, 3)
            assert offsets.tolist() == [0, 0, 0, 0]
            assert token_order.size == 0 and token_order.dtype == np.int64

    def test_all_no_slot(self):
        offsets, token_order = group_slots(np.full((5, 2), -1, dtype=np.int64), 4)
        assert offsets.tolist() == [0] * 5 and token_order.size == 0

    def test_no_slot_mixed_with_real_slots(self):
        ids = np.array([[2, -1, 0], [-1, -1, -1], [0, 2, -1], [-1, 1, 2]])
        offsets, token_order = group_slots(ids, 4)
        assert offsets.tolist() == [0, 2, 3, 6, 6]
        assert _runs(offsets, token_order) == [[0, 2], [3], [0, 2, 3], []]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scatter_grouping_ascending_and_unique(self, seed):
        rng = np.random.default_rng(seed)
        t, n = int(rng.integers(1, 40)), int(rng.integers(1, 9))
        c = int(rng.integers(1, n + 1))
        ids = np.argsort(rng.random((t, n)), axis=-1)[:, :c]
        ids = np.where(rng.random((t, c)) < rng.uniform(0.0, 1.0), np.int64(-1), ids)
        offsets, token_order = group_slots(ids, n)
        runs = _runs(offsets, token_order)
        assert runs == [rows.tolist() for rows in reference_group_slots(ids, n)]
        for rows in runs:
            assert rows == sorted(set(rows))
        assert offsets[-1] == int((ids >= 0).sum())

    def test_token_naming_one_expert_twice_rejected(self):
        with pytest.raises(ContractError, match="token 1 names expert 2 twice"):
            group_slots(np.array([[0, 2, -1], [2, -1, 2]]), 3)

    @pytest.mark.parametrize("bad", [[[3, 0]], [[-2, 1]], [[0, 1], [1, 7]]])
    def test_id_outside_no_slot_or_expert_rejected(self, bad):
        ids = np.array(bad)
        message = f"expert ids must lie in [-1, 3); got {ids.min()}..{ids.max()}"
        with pytest.raises(ContractError) as got:
            group_slots(ids, 3)
        assert str(got.value) == message
