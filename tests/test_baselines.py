import numpy as np
import pytest

from beamoe import baselines, beam
from beamoe.baselines import (
    RoutingStrategy,
    block_forward,
    build_block,
    dynamic_select,
    route,
    temperature_at,
)
from beamoe.moe import MoEBlockConfig, balance_loss_from, topk_route
from beamoe.tensor import ContractError, Tape, Tensor, mul, tsum

from reference_ops import reference_candidate_bits, reference_dynamic_route, reference_masked_route


def cfg(n=6, k=3, d_h=5, d_ff=4, **kw):
    return MoEBlockConfig(d_h=d_h, d_ff=d_ff, num_experts=n, top_k=k, has_norm=False, **kw)


def block_for(strategy, seed=0, **cfg_kw):
    rng = np.random.default_rng(seed)
    c = cfg(**cfg_kw)
    return build_block(c, strategy, rng), np.random.default_rng(seed + 1)


class TestStrategyValidation:
    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            RoutingStrategy("magic").validate(cfg())

    def test_phi_range(self):
        with pytest.raises(ContractError):
            RoutingStrategy("moe_dynamic", {"phi": 0.0}).validate(cfg())
        with pytest.raises(ContractError):
            RoutingStrategy("moe_dynamic", {"phi": 1.5}).validate(cfg())

    def test_k_infer_bound(self):
        with pytest.raises(ContractError):
            RoutingStrategy("topk_pruning", {"k_infer": 4}).validate(cfg(k=3))

    def test_null_count_bound(self):
        with pytest.raises(ContractError):
            RoutingStrategy("ada_moe", {"null_count": -1}).validate(cfg())

    def test_unknown_param(self):
        with pytest.raises(ContractError):
            RoutingStrategy("beam", {"phi": 0.4}).validate(cfg())

    # each value is in range but of the wrong type: a float or bool count,
    # a string or bool real
    @pytest.mark.parametrize(
        "kind,name,bad",
        [
            ("topk_reduced", "k_small", [2.0, True, "2"]),
            ("topk_pruning", "k_infer", [2.0, True, None]),
            ("ada_moe", "null_count", [2.0, True, "2"]),
            ("beam", "tau", ["0.5", True, None]),
            ("moe_dynamic", "phi", ["0.5", True, [0.5]]),
            ("soft_mask_tempered", "temp_floor", ["0.1", True, None]),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_param_type_rejected(self, kind, name, bad):
        for value in bad:
            with pytest.raises(ContractError, match=name):
                RoutingStrategy(kind, {name: value}).validate(cfg())

    def test_numpy_scalars_accepted(self):
        RoutingStrategy("topk_reduced", {"k_small": np.int64(2)}).validate(cfg())
        RoutingStrategy("beam", {"tau": np.float64(0.4)}).validate(cfg())
        RoutingStrategy("moe_dynamic", {"phi": 1}).validate(cfg())

    def test_nan_temp_floor_rejected(self):
        with pytest.raises(ContractError):
            RoutingStrategy("soft_mask_tempered", {"temp_floor": float("nan")}).validate(cfg())


class TestParamTable:
    # a valid value for each parameter that differs from its default
    GIVEN = {"k_small": 2, "k_infer": 2, "phi": 0.3, "null_count": 2, "tau": 0.3, "temp_floor": 0.2}

    def test_kinds_keep_their_order(self):
        # the CLI's "strategy.kind must be one of [...]" message prints this order
        assert baselines.KINDS == (
            "vanilla_topk",
            "topk_reduced",
            "topk_pruning",
            "moe_dynamic",
            "ada_moe",
            "beam",
            "soft_mask",
            "soft_mask_tempered",
        )

    @pytest.mark.parametrize("top_k", [1, 6], ids=["top_k-1", "top_k-N"])
    @pytest.mark.parametrize("kind", baselines.KINDS)
    def test_defaults_pass_their_own_rules(self, kind, top_k):
        c = cfg(n=6, k=top_k)
        for name, value in RoutingStrategy(kind).resolved(c).items():
            integer, in_range, _ = baselines.PARAM_RULES[name]
            assert baselines.is_number(value, integer), name
            assert in_range(value, c), name
        RoutingStrategy(kind).validate(c)

    @pytest.mark.parametrize("kind", baselines.KINDS)
    def test_resolved_names_and_given_values(self, kind):
        names = set(baselines.PARAM_DEFAULTS[kind])
        assert set(RoutingStrategy(kind).resolved(cfg())) == names
        given = {name: self.GIVEN[name] for name in names}
        assert RoutingStrategy(kind, given).resolved(cfg()) == given

    def test_none_default_is_top_k(self):
        for k in (1, 2, 3):
            assert RoutingStrategy("topk_reduced").resolved(cfg(k=k)) == {"k_small": k}
            assert RoutingStrategy("topk_pruning").resolved(cfg(k=k)) == {"k_infer": k}

    def test_temperature_floor_default_is_the_table_default(self):
        floor = baselines.PARAM_DEFAULTS["soft_mask_tempered"]["temp_floor"]
        assert temperature_at(100, 100) == floor


class TestTopkReduced:
    def test_equals_vanilla_when_k_small_is_k(self):
        s = RoutingStrategy("topk_reduced", {"k_small": 3})
        block, rng = block_for(s)
        x = Tensor(rng.normal(size=(7, 5)))
        rr = route(block, x, s, training=True)
        vanilla = route(block, x, RoutingStrategy("vanilla_topk"), training=True)
        assert np.array_equal(rr.weights_hat.data, vanilla.weights_hat.data)

    def test_single_expert_weight_one(self):
        s = RoutingStrategy("topk_reduced", {"k_small": 1})
        block, rng = block_for(s)
        x = Tensor(rng.normal(size=(5, 5)))
        rr = route(block, x, s, training=False)
        w = rr.weights_hat.data
        assert ((w > 0).sum(axis=-1) == 1).all()
        assert np.allclose(w.max(axis=-1), 1.0)

    def test_constant_budget(self):
        s = RoutingStrategy("topk_reduced", {"k_small": 2})
        block, rng = block_for(s)
        rr = route(block, Tensor(rng.normal(size=(9, 5))), s, training=True)
        assert np.all(rr.active_counts == 2)


class TestTopkPruning:
    def test_train_time_uses_full_k(self):
        s = RoutingStrategy("topk_pruning", {"k_infer": 1})
        block, rng = block_for(s)
        x = Tensor(rng.normal(size=(6, 5)))
        rr = route(block, x, s, training=True)
        assert np.all(rr.active_counts == block.cfg.top_k)

    def test_inference_equals_direct_topk_route_bit_exact(self):
        for k_infer in (1, 2, 3):
            s = RoutingStrategy("topk_pruning", {"k_infer": k_infer})
            block, rng = block_for(s, seed=k_infer)
            x = Tensor(rng.normal(size=(11, 5)))
            rr = route(block, x, s, training=False)
            direct = topk_route(x, block.router_w, k_infer)
            assert np.array_equal(rr.weights_hat.data, direct.weights.data)
            assert np.array_equal(rr.candidate_ids, direct.topk_indices)

    def test_k_infer_equal_k_train_is_vanilla(self):
        s = RoutingStrategy("topk_pruning", {"k_infer": 3})
        block, rng = block_for(s)
        x = Tensor(rng.normal(size=(6, 5)))
        rr = route(block, x, s, training=False)
        vanilla = route(block, x, RoutingStrategy("vanilla_topk"), training=False)
        assert np.array_equal(rr.weights_hat.data, vanilla.weights_hat.data)


def brute_force_dynamic(probs, phi):
    """Independent prefix-sum oracle for the cumulative threshold rule."""
    n = len(probs)
    order = sorted(range(n), key=lambda i: (-probs[i], i))
    total, chosen = 0.0, []
    for i in order:
        chosen.append(i)
        total += probs[i]
        if total >= phi:
            break
    active = np.zeros(n, dtype=bool)
    active[chosen] = True
    return active


class TestMoeDynamic:
    def test_cumulative_example(self):
        active = dynamic_select(np.array([[0.5, 0.3, 0.2]]), 0.4)
        assert active.tolist() == [[True, False, False]]

    def test_phi_one_activates_everything(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(6), size=4)
        active = dynamic_select(probs, 1.0)
        assert active.all()

    def test_tiny_phi_gives_top1(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(6), size=4)
        active = dynamic_select(probs, 1e-12)
        assert (active.sum(axis=-1) == 1).all()
        assert np.array_equal(active.argmax(-1), probs.argmax(-1))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            probs = rng.dirichlet(np.ones(n))
            phi = float(rng.uniform(0.01, 1.0))
            fast = dynamic_select(probs[None], phi)[0]
            assert np.array_equal(fast, brute_force_dynamic(probs, phi))

    def test_active_count_monotone_in_phi(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(8), size=16)
        prev = np.zeros(16, dtype=int)
        for phi in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            counts = dynamic_select(probs, phi).sum(axis=-1)
            assert np.all(counts >= prev)
            prev = counts

    def test_weights_renormalized(self):
        s = RoutingStrategy("moe_dynamic", {"phi": 0.5})
        block, rng = block_for(s)
        rr = route(block, Tensor(rng.normal(size=(8, 5))), s, training=False)
        w = rr.weights_hat.data
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-9)


class TestAdaMoe:
    def test_zero_nulls_is_vanilla(self):
        s = RoutingStrategy("ada_moe", {"null_count": 0})
        block, rng = block_for(s)
        x = Tensor(rng.normal(size=(6, 5)))
        rr = route(block, x, s, training=True)
        vanilla = route(block, x, RoutingStrategy("vanilla_topk"), training=True)
        assert np.array_equal(rr.weights_hat.data, vanilla.weights_hat.data)

    def test_avg_k_matches_brute_force_count(self):
        s = RoutingStrategy("ada_moe", {"null_count": 6})
        block, rng = block_for(s)
        x = Tensor(rng.normal(size=(40, 5)))
        rr = route(block, x, s, training=True)
        # brute force: count slots whose extended id is a real expert
        logits = x.data @ block.router_w.data
        n = block.cfg.num_experts
        count = 0
        for row in logits:
            top = sorted(range(len(row)), key=lambda i: (-row[i], i))[: block.cfg.top_k]
            count += sum(1 for i in top if i < n)
        assert rr.active_counts.sum() == count

    def test_full_null_token_gets_zero_weights(self):
        s = RoutingStrategy("ada_moe", {"null_count": 8})
        block, rng = block_for(s)
        # bias the null columns up so every top-k slot lands on a null expert
        block.router_w.data[:, block.cfg.num_experts :] = 0.0
        x = np.zeros((3, 5))
        x[:, 0] = 1.0
        block.router_w.data[0, : block.cfg.num_experts] = -5.0
        block.router_w.data[0, block.cfg.num_experts :] = 5.0
        rr = route(block, Tensor(x), s, training=True)
        assert np.all(rr.active_counts == 0)
        assert np.array_equal(rr.weights_hat.data, np.zeros_like(rr.weights_hat.data))

    def test_no_renormalization_over_real_experts(self):
        s = RoutingStrategy("ada_moe", {"null_count": 6})
        block, rng = block_for(s)
        x = Tensor(rng.normal(size=(20, 5)))
        rr = route(block, x, s, training=True)
        sums = rr.weights_hat.data.sum(axis=-1)
        assert np.all(sums <= 1.0 + 1e-12)
        assert np.any(sums < 0.999)  # some mass went to nulls

    def test_more_nulls_fewer_active_in_expectation(self):
        means = {}
        for null_count in (2, 12):
            vals = []
            for seed in range(6):
                s = RoutingStrategy("ada_moe", {"null_count": null_count})
                block, rng = block_for(s, seed=seed)
                x = Tensor(rng.normal(size=(64, 5)))
                rr = route(block, x, s, training=True)
                vals.append(rr.active_counts.mean())
            means[null_count] = np.mean(vals)
        assert means[12] <= means[2]


class TestSoftMask:
    def test_zero_preactivation_halves_weights(self):
        s = RoutingStrategy("soft_mask")
        block, rng = block_for(s)
        x = Tensor(rng.normal(size=(6, 5)))
        rr = route(block, x, s, training=True)
        vanilla = route(block, x, RoutingStrategy("vanilla_topk"), training=True)
        assert np.allclose(rr.weights_hat.data, 0.5 * vanilla.weights_hat.data, atol=1e-15)

    def test_temperature_limit_approaches_binary(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0, 2.0, (5, 6))
        from beamoe.tensor import sigmoid_np

        sharp = sigmoid_np(a / 1e-6)
        assert np.allclose(sharp, (a >= 0).astype(float), atol=1e-9)

    def test_plain_soft_keeps_every_candidate_at_inference(self):
        s = RoutingStrategy("soft_mask")
        block, rng = block_for(s)
        block.mask_router.weight.data[...] = rng.normal(0, 2.0, (5, 6))
        x = Tensor(rng.normal(size=(8, 5)))
        rr = route(block, x, s, training=False)
        assert np.all(rr.active_bits == 1)
        assert np.array_equal(rr.kept_ids, rr.candidate_ids)

    def test_binarize_soft_flag_masks(self):
        s = RoutingStrategy("soft_mask")
        block, rng = block_for(s)
        block.mask_router.weight.data[...] = rng.normal(0, 2.0, (5, 6))
        x = Tensor(rng.normal(size=(30, 5)))
        rr = route(block, x, s, training=False, binarize_soft=True)
        assert np.any(rr.active_bits == 0)
        surviving = rr.weights_hat.data[np.arange(30)[:, None], rr.candidate_ids]
        assert np.all((surviving > 0) == (rr.active_bits == 1))

    def test_tempered_binarizes_at_inference(self):
        s = RoutingStrategy("soft_mask_tempered")
        block, rng = block_for(s)
        block.mask_router.weight.data[...] = rng.normal(0, 2.0, (5, 6))
        x = Tensor(rng.normal(size=(12, 5)))
        rr = route(block, x, s, training=False)
        w = rr.weights_hat.data
        vanilla = route(block, x, RoutingStrategy("vanilla_topk"), training=False)
        kept = w != 0
        assert np.array_equal(w[kept], vanilla.weights_hat.data[kept])

    def test_temperature_schedule(self):
        assert temperature_at(0, 100) == pytest.approx(1.0)
        assert temperature_at(50, 100) == pytest.approx(0.1)
        assert temperature_at(100, 100) == pytest.approx(0.1)
        mid = temperature_at(25, 100)
        assert 0.1 < mid < 1.0
        # geometric: equal step ratios
        a, b = temperature_at(10, 100), temperature_at(20, 100)
        c = temperature_at(30, 100)
        assert b / a == pytest.approx(c / b)


MASK_STAGE_STRATEGIES = [
    RoutingStrategy("beam"),
    RoutingStrategy("beam", {"tau": 0.3}),
    RoutingStrategy("soft_mask"),
    RoutingStrategy("soft_mask", {"tau": 0.3}),
    RoutingStrategy("soft_mask_tempered"),
    RoutingStrategy("soft_mask_tempered", {"temp_floor": 0.3}),
]
MASK_STAGE_TOTAL_STEPS = 8


def _masked_block_pass(strategy, training, step, binarize_soft):
    """One block forward on fixed random weights (and, when training, one
    backward of a loss that reads the output, the sparsity term and the
    balance term): the arrays it produced, gradients included, and the
    number of tape nodes it recorded."""
    cfg = MoEBlockConfig(d_h=6, d_ff=5, num_experts=6, top_k=3, num_shared=1)
    rng = np.random.default_rng(21)
    block = build_block(cfg, strategy, rng)
    block.mask_router.weight.data[...] = rng.normal(0, 2.0, (6, 6))
    h = Tensor(rng.normal(size=(24, 6)), requires_grad=True)
    upstream = Tensor(rng.normal(size=(24, 6)))
    args = (strategy, training, step, MASK_STAGE_TOTAL_STEPS, binarize_soft)
    with Tape() as tape:
        out, rr = block_forward(h, block, *args)
        if training:
            loss = tsum(mul(out, upstream))
            loss = loss + mul(beam.sparsity_loss(rr.raw_mask, rr.reg_indices), 0.3)
            loss = loss + mul(balance_loss_from(rr.logits, rr.balance_active), 0.1)
            tape.backward(loss)
    arrays = {
        "out": out.data,
        "weights_hat": rr.weights_hat.data,
        "raw_mask": rr.raw_mask.data,
        "active_bits": rr.active_bits,
        "balance_active": rr.balance_active,
        "candidate_ids": rr.candidate_ids,
    }
    if training:
        arrays["grad h"] = h.grad
        for name, t in block.named_tensors():
            arrays[f"grad {name}"] = t.grad
    return arrays, len(tape.nodes)


class TestOneMaskStage:
    """Every masked strategy takes its mask from ``beam.mask_forward`` and
    its balance set from ``topk_route``, bit-identical to the two-chain
    oracle ``reference_masked_route``."""

    @pytest.mark.parametrize("strategy", MASK_STAGE_STRATEGIES, ids=lambda s: f"{s.kind}-{s.params}")
    @pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
    @pytest.mark.parametrize("step", [0, 3, MASK_STAGE_TOTAL_STEPS - 1])
    @pytest.mark.parametrize("binarize_soft", [False, True], ids=["soft", "binarize_soft"])
    def test_block_forward_equals_reference_chain(
        self, strategy, training, step, binarize_soft, monkeypatch
    ):
        got, got_nodes = _masked_block_pass(strategy, training, step, binarize_soft)
        monkeypatch.setattr(baselines, "route", reference_masked_route)
        want, want_nodes = _masked_block_pass(strategy, training, step, binarize_soft)
        assert got.keys() == want.keys()
        for name in want:
            assert want[name] is not None, name
            assert got[name].dtype == want[name].dtype, name
            assert np.array_equal(got[name], want[name]), name
            if got[name].dtype == np.float64:
                assert np.array_equal(np.signbit(got[name]), np.signbit(want[name])), name
        if strategy.kind == "beam":  # the same tape: matmul, sigmoid, STE, mul
            assert got_nodes == want_nodes

    def test_masks_disagree_somewhere(self):
        # the equality above is only informative if the mask closes slots
        got, _ = _masked_block_pass(RoutingStrategy("beam"), True, 0, False)
        assert 0 < got["active_bits"].sum() < got["active_bits"].size

    @pytest.mark.parametrize("strategy", MASK_STAGE_STRATEGIES, ids=lambda s: f"{s.kind}-{s.params}")
    @pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
    def test_each_masked_kind_calls_mask_forward_once(self, strategy, training, monkeypatch):
        calls = []
        real = beam.mask_forward

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(beam, "mask_forward", spy)
        _masked_block_pass(strategy, training, 3, True)
        assert len(calls) == 1

    def test_unmasked_kinds_never_call_mask_forward(self, monkeypatch):
        calls = []
        monkeypatch.setattr(beam, "mask_forward", lambda *a, **k: calls.append(a))
        for kind in sorted(set(baselines.KINDS) - baselines._MASKED_KINDS):
            s = RoutingStrategy(kind)
            block, rng = block_for(s)
            for training in (True, False):
                block_forward(Tensor(rng.normal(size=(5, 5))), block, s, training)
        assert calls == []


ROUTE_STRATEGIES = [
    RoutingStrategy("vanilla_topk"),
    RoutingStrategy("topk_reduced", {"k_small": 2}),
    RoutingStrategy("topk_pruning", {"k_infer": 2}),
    RoutingStrategy("moe_dynamic", {"phi": 0.6}),
    RoutingStrategy("ada_moe", {"null_count": 4}),
    RoutingStrategy("beam"),
    RoutingStrategy("soft_mask"),
    RoutingStrategy("soft_mask_tempered"),
]


class TestUniversalInvariants:
    @pytest.mark.parametrize("strategy", ROUTE_STRATEGIES, ids=lambda s: s.kind)
    @pytest.mark.parametrize("training", [True, False])
    def test_weights_non_negative_with_bounded_support(self, strategy, training):
        block, rng = block_for(strategy, seed=11)
        if block.mask_router is not None:
            block.mask_router.weight.data[...] = rng.normal(0, 1.0, (5, 6))
        x = Tensor(rng.normal(size=(20, 5)))
        rr = route(block, x, strategy, training=training)
        w = rr.weights_hat.data
        assert np.all(w >= 0)
        if strategy.kind != "moe_dynamic":
            assert np.all((w > 0).sum(axis=-1) <= block.cfg.top_k)
        assert rr.active_counts.shape == (20,)

    @pytest.mark.parametrize("strategy", ROUTE_STRATEGIES, ids=lambda s: s.kind)
    @pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
    def test_active_bits_equal_take_along_axis(self, strategy, training, monkeypatch):
        masks = []
        real = beam.mask_forward
        monkeypatch.setattr(beam, "mask_forward", lambda *a: masks.append(real(*a)) or masks[-1])
        block, rng = block_for(strategy, seed=17)
        if block.mask_router is not None:
            block.mask_router.weight.data[...] = rng.normal(0, 1.0, (5, 6))
        rr = route(block, Tensor(rng.normal(size=(20, 5))), strategy, training, binarize_soft=True)
        assert rr.active_bits.dtype == np.int64
        if strategy.kind == "moe_dynamic":
            want = reference_candidate_bits(rr.balance_active, rr.candidate_ids)
        elif masks:  # binarize_soft: every masked kind takes its bits from the mask
            want = reference_candidate_bits(masks[0].binary_mask, rr.candidate_ids)
            assert 0 < want.sum() < want.size
        else:
            want = (rr.candidate_ids >= 0).astype(np.int64)
        assert np.array_equal(rr.active_bits, want)


EPS = np.finfo(np.float64).eps


def _dynamic_block(seed, phi):
    """A ``moe_dynamic`` block whose router spreads the probabilities, so the
    top-p sets vary in size from token to token."""
    s = RoutingStrategy("moe_dynamic", {"phi": phi})
    block, rng = block_for(s, seed=seed)
    block.router_w.data[...] = rng.normal(0, 1.0, block.router_w.shape)
    return s, block, rng


class TestOneRoutingPath:
    """Every kind routes through one ``topk_route`` call. ``moe_dynamic``
    asks it for all N experts and renormalizes with the kept-set softmax;
    it agrees with its former ``div`` chain, ``reference_dynamic_route``."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("phi", [0.2, 0.5, 0.8, 1.0])
    def test_moe_dynamic_matches_div_chain(self, seed, phi):
        s, block, rng = _dynamic_block(seed, phi)
        x = Tensor(rng.normal(size=(64, 5)))
        got = route(block, x, s, training=True)
        want = reference_dynamic_route(block, x, s, training=True)
        # two ulps of 1, 4.4e-16
        assert np.max(np.abs(got.weights_hat.data - want.weights_hat.data)) <= 2 * EPS
        assert np.array_equal(got.logits.data, want.logits.data)
        for name in ("candidate_ids", "active_bits", "balance_active"):
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        if 0.2 < phi < 1.0:  # the comparison covers sets of several sizes
            assert len(np.unique(got.active_counts)) > 1

    @pytest.mark.parametrize("phi", [0.4, 0.6, 0.8])
    def test_inactive_experts_get_zero_weight_and_plus_zero_gradient(self, phi):
        s, block, rng = _dynamic_block(4, phi)
        x = Tensor(rng.normal(size=(64, 5)))
        upstream = Tensor(rng.normal(size=(64, 6)))
        with Tape() as tape:
            rr = route(block, x, s, training=True)
            tape.backward(tsum(mul(rr.weights_hat, upstream)))
        off = ~rr.balance_active
        assert off.any()
        for values in (rr.weights_hat.data[off], rr.logits.grad[off]):
            assert np.all(values == 0.0)
            assert not np.signbit(values).any()
        assert rr.logits.grad[~off].any()

    @pytest.mark.parametrize("strategy", ROUTE_STRATEGIES, ids=lambda s: s.kind)
    @pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
    def test_route_calls_topk_route_once(self, strategy, training, monkeypatch):
        calls = []
        real = baselines.topk_route

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(baselines, "topk_route", spy)
        block, rng = block_for(strategy, seed=3)
        block_forward(Tensor(rng.normal(size=(6, 5))), block, strategy, training)
        assert len(calls) == 1

    def test_moe_dynamic_block_records_two_fewer_tape_nodes(self, monkeypatch):
        s, block, rng = _dynamic_block(5, 0.5)
        h = Tensor(rng.normal(size=(16, 5)), requires_grad=True)

        def nodes():
            with Tape() as tape:
                block_forward(h, block, s, training=True)
            return len(tape.nodes)

        got = nodes()
        monkeypatch.setattr(baselines, "route", reference_dynamic_route)
        assert got == nodes() - 2
