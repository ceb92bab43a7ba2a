import numpy as np
import pytest

from beamoe import dispatch, moe
from beamoe.baselines import KINDS, RoutingStrategy, block_forward, build_block
from beamoe.dispatch import BenchRow, align_block, bench_dispatch, grouped_execute, naive_execute
from beamoe.moe import Expert, MoEBlockConfig, moe_block_forward
from beamoe.tensor import ContractError, Tape, Tensor, cross_entropy, reshape
from beamoe.trainer import ModelConfig, TinyMoELM, evaluate

from reference_ops import (
    reference_expert_forward,
    reference_expert_forward_np,
    reference_grouped_execute,
)


def random_scenario(rng, t=16, n=8, k=4, d_h=6, d_ff=5, mask_prob=0.4):
    """Random routed batch with a random mask pattern applied."""
    ids = np.stack([rng.choice(n, size=k, replace=False) for _ in range(t)]).astype(np.int64)
    keep = rng.random((t, k)) >= mask_prob
    masked_ids = np.where(keep, ids, np.int64(-1))
    weights = np.zeros((t, n))
    for tok in range(t):
        for slot in range(k):
            if keep[tok, slot]:
                weights[tok, ids[tok, slot]] = rng.uniform(0.05, 1.0)
    h = rng.normal(size=(t, d_h))
    experts = [Expert.init_random(d_h, d_ff, rng, std=0.4) for _ in range(n)]
    return h, ids, masked_ids, weights, experts


def random_slot_ids(rng, t, k, n):
    """(t, k) expert ids, distinct within each token, about a fifth of them -1."""
    ids = np.argsort(rng.random((t, n)), axis=-1)[:, :k]
    return np.where(rng.random((t, k)) < 0.2, np.int64(-1), ids)


class TestAlignBlock:
    def test_all_masked_empty_plan(self):
        plan = align_block(np.full((5, 3), -1), 16, num_experts=4)
        assert plan.total_real == 0
        assert all(plan.padded_count(e) == 0 for e in range(4))

    def test_hand_grouping(self):
        # expert 0 gets one real slot (pads to 2); expert 1 gets two (no pad)
        ids = np.array([[0, 1], [1, -1]])
        plan = align_block(ids, 2, num_experts=2)
        assert plan.num_experts == 2
        assert plan.offsets.tolist() == [0, 1, 3]
        assert plan.padded_count(0) == 2 and plan.padded_count(1) == 2
        assert plan.token_order.tolist() == [0, 0, 1]

    def test_block_size_one_no_padding(self):
        rng = np.random.default_rng(2)
        ids = random_slot_ids(rng, 12, 3, 4)
        plan = align_block(ids, 1, num_experts=4)
        for e in range(4):
            assert plan.padded_count(e) == plan.offsets[e + 1] - plan.offsets[e]

    def test_padded_length_formula(self):
        rng = np.random.default_rng(3)
        for bs in (1, 2, 16, 64):
            ids = random_slot_ids(rng, 40, 4, 6)
            plan = align_block(ids, bs, num_experts=6)
            for e in range(6):
                c = plan.offsets[e + 1] - plan.offsets[e]
                assert plan.padded_count(e) == -(-c // bs) * bs

    def test_slot_conservation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ids = random_slot_ids(rng, rng.integers(1, 50), rng.integers(1, 5), 8)
            plan = align_block(ids, 16, num_experts=8)
            assert plan.total_real == int((ids >= 0).sum())
            counts = np.bincount(ids[ids >= 0], minlength=8)
            assert plan.offsets.tolist() == [0] + np.cumsum(counts).tolist()
            # every real slot's (token, expert) pair appears exactly once
            # across experts, in ascending token order within its expert
            pairs = []
            for e in range(8):
                tokens = plan.token_order[plan.offsets[e] : plan.offsets[e + 1]].tolist()
                assert tokens == sorted(tokens)
                pairs += [(tok, e) for tok in tokens]
            toks, slots = np.nonzero(ids >= 0)
            assert sorted(pairs) == sorted(zip(toks.tolist(), ids[toks, slots].tolist()))

    def test_out_of_range_ids_rejected(self):
        for bad in ([[5, 1], [-3, 0]], [[4, 0]], [[-2, 1]]):
            with pytest.raises(ContractError):
                align_block(np.array(bad), 16, num_experts=4)


class TestGroupedExecute:
    def test_identity_mask_matches_unmasked(self):
        rng = np.random.default_rng(6)
        h, ids, _, _, experts = random_scenario(rng, mask_prob=0.0)
        weights = np.zeros((16, 8))
        for tok in range(16):
            weights[tok, ids[tok]] = rng.uniform(0.1, 1.0, 4)
        plan = align_block(ids, 16, num_experts=8)
        out = grouped_execute(h, plan, experts, weights)
        oracle = naive_execute(h, ids, experts, weights)
        assert np.max(np.abs(out - oracle)) < 1e-9

    def test_random_masks_match_naive_loop(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            h, _, masked_ids, weights, experts = random_scenario(
                rng, mask_prob=float(rng.uniform(0, 1))
            )
            plan = align_block(masked_ids, int(rng.choice([1, 2, 16])), num_experts=8)
            out = grouped_execute(h, plan, experts, weights)
            oracle = naive_execute(h, masked_ids, experts, weights)
            assert np.max(np.abs(out - oracle)) < 1e-9

    def test_empty_plan_zero_output(self):
        rng = np.random.default_rng(8)
        h, _, _, _, experts = random_scenario(rng)
        plan = align_block(np.full((16, 4), -1), 16, num_experts=8)
        out = grouped_execute(h, plan, experts, np.zeros((16, 8)))
        assert np.array_equal(out, np.zeros_like(h))

    def test_masked_slot_contributes_nothing(self):
        rng = np.random.default_rng(10)
        h, ids, masked_ids, weights, experts = random_scenario(rng, mask_prob=0.3)
        plan = align_block(masked_ids, 16, num_experts=8)
        out = grouped_execute(h, plan, experts, weights)
        # oracle with each masked expert's output explicitly zeroed
        t, k = ids.shape
        expected = np.zeros_like(h)
        for tok in range(t):
            for e in sorted(ids[tok]):
                if e in masked_ids[tok]:
                    from beamoe.moe import expert_forward_np

                    expected[tok] += weights[tok, e] * expert_forward_np(
                        h[tok : tok + 1], experts[e]
                    )[0]
        assert np.max(np.abs(out - expected)) < 1e-9


class TestBench:
    def test_full_activation_slot_count(self):
        rows = bench_dispatch(
            num_tokens=32, num_experts=4, top_k=2, d_h=8, d_ff=8,
            active_fractions=[1.0], repetitions=2, seed=0,
        )
        assert rows[0].slots_executed == 32 * 2

    def test_half_activation_slot_count(self):
        rows = bench_dispatch(
            num_tokens=40, num_experts=4, top_k=2, d_h=8, d_ff=8,
            active_fractions=[0.5], repetitions=2, seed=0,
        )
        target = 40 * 2 * 0.5
        assert abs(rows[0].slots_executed - target) <= 0.02 * 40 * 2

    def test_deterministic_slot_counts(self):
        kwargs = dict(
            num_tokens=32, num_experts=4, top_k=2, d_h=8, d_ff=8,
            active_fractions=[0.7, 0.3], seed=3,
        )
        a = bench_dispatch(repetitions=1, **kwargs)
        b = bench_dispatch(repetitions=5, **kwargs)
        assert [r.slots_executed for r in a] == [r.slots_executed for r in b]

    def test_bad_fraction_rejected(self):
        with pytest.raises(ContractError):
            bench_dispatch(8, 4, 2, 4, 4, active_fractions=[0.0], repetitions=1)

    def test_csv_columns_are_the_row_fields(self):
        # the header and each row's text follow BenchRow's fields, in order
        row = BenchRow(active_fraction=0.25, slots_executed=12, wall_time_ns_min=340, wall_time_ns_mean=351.5)
        assert dispatch.BENCH_CSV_HEADER == "active_fraction,slots_executed,wall_time_ns_min,wall_time_ns_mean"
        assert row.to_csv() == "0.25,12,340,351.5"

    @pytest.mark.parametrize(
        "override,message",
        [
            ({"repetitions": 0}, "repetitions must be >= 1"),
            ({"active_fractions": []}, "active_fractions names no fraction"),
            ({"top_k": 5}, r"top_k must lie in \[1, num_experts\]"),
            ({"top_k": 0}, r"top_k must lie in \[1, num_experts\]"),
            ({"num_tokens": -1}, "num_tokens must be >= 1, got -1"),
            ({"num_tokens": 0}, "num_tokens must be >= 1, got 0"),
            ({"d_h": 0}, "d_h must be >= 1, got 0"),
            ({"d_ff": 0}, "d_ff must be >= 1, got 0"),
        ],
        ids=[
            "reps", "no-fraction", "top_k-above-N", "top_k-zero",
            "tokens-negative", "tokens-zero", "d_h-zero", "d_ff-zero",
        ],
    )
    def test_bad_range_rejected_before_building(self, override, message, monkeypatch):
        built = []
        monkeypatch.setattr(Expert, "init_random", lambda *a, **k: built.append(a))
        kwargs = dict(
            num_tokens=8, num_experts=4, top_k=2, d_h=4, d_ff=4,
            active_fractions=[1.0], repetitions=1,
        )
        kwargs.update(override)
        with pytest.raises(ContractError, match=message):
            bench_dispatch(**kwargs)
        assert built == []

    @pytest.mark.slow
    def test_wall_time_ordering(self):
        rows = bench_dispatch(
            num_tokens=2048, num_experts=8, top_k=4, d_h=128, d_ff=256,
            active_fractions=[1.0, 0.25], repetitions=5, seed=0,
        )
        assert rows[1].wall_time_ns_min < rows[0].wall_time_ns_min


KIND_PARAMS = {"topk_pruning": {"k_infer": 1}, "ada_moe": {"null_count": 2}, "moe_dynamic": {"phi": 0.7}}


class TestOneGrouping:
    """Training's ``moe_block_forward`` and inference's ``align_block`` group
    their slots through the one ``moe.group_slots``, on the one slot set
    ``block_forward`` picks."""

    @staticmethod
    def _block(seed, kind="beam", num_shared=0):
        rng = np.random.default_rng(seed)
        cfg = MoEBlockConfig(d_h=8, d_ff=6, num_experts=6, top_k=3, num_shared=num_shared)
        strategy = RoutingStrategy(kind, KIND_PARAMS.get(kind, {}))
        block = build_block(cfg, strategy, rng)
        if block.mask_router is not None:
            w = block.mask_router.weight
            w.data[...] = rng.normal(0.0, 0.8, w.shape)  # so the mask closes slots
        return block, strategy, Tensor(rng.normal(size=(12, 8)), requires_grad=True)

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        real = moe.group_slots

        def spy(ids, num_experts):
            out = real(ids, num_experts)
            calls.append((ids.copy(), num_experts, out))
            return out

        monkeypatch.setattr(moe, "group_slots", spy)
        monkeypatch.setattr(dispatch, "group_slots", spy)
        return calls

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("num_shared", [0, 1])
    @pytest.mark.parametrize("training", [True, False], ids=["training", "inference"])
    def test_each_block_forward_groups_once(self, kind, num_shared, training, monkeypatch):
        block, strategy, h = self._block(0, kind, num_shared)
        calls = self._spy(monkeypatch)
        aligned = []
        real_align = dispatch.align_block

        def align_spy(*args, **kwargs):
            aligned.append(args)
            return real_align(*args, **kwargs)

        monkeypatch.setattr(dispatch, "align_block", align_spy)
        if training:
            with Tape():
                _, rr = block_forward(h, block, strategy, training=True)
        else:
            _, rr = block_forward(h, block, strategy, training=False)
        want = rr.candidate_ids if training and strategy.needs_mask_router else rr.kept_ids
        assert len(calls) == 1 and len(aligned) == (0 if training else 1)
        assert np.array_equal(calls[0][0], want)

    def test_training_plan_equals_align_block_plan(self, monkeypatch):
        calls = self._spy(monkeypatch)
        for seed in range(4):
            block, strategy, h = self._block(seed)
            calls.clear()
            with Tape():
                block_forward(h, block, strategy, training=True)
            (ids, n, (offsets, token_order)), = calls
            plan = align_block(ids, 16, num_experts=n)
            assert np.array_equal(plan.offsets, offsets)
            assert np.array_equal(plan.token_order, token_order)

    def test_repeated_expert_rejected_alike_in_training_and_inference(self):
        rng = np.random.default_rng(11)
        experts = [Expert.init_random(4, 3, rng) for _ in range(3)]
        ids = np.array([[0, 2], [1, 1], [2, 0]])
        weights = np.zeros((3, 3))
        np.put_along_axis(weights, ids, 0.5, axis=-1)
        h = Tensor(rng.normal(size=(3, 4)))
        with pytest.raises(ContractError) as in_inference:
            align_block(ids, 16, num_experts=3)
        with pytest.raises(ContractError) as in_training:
            moe_block_forward(h, Tensor(weights), experts, compute_ids=ids)
        assert str(in_inference.value) == str(in_training.value) == "token 1 names expert 1 twice"


def bit_equal(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def plan_case(rng, t, n, k, d_h=5, d_ff=4):
    """A random plan with its weights, over experts of random size: each
    token keeps each of its k distinct slots with a random probability, so
    plans with empty and one-row experts come up."""
    ids = np.argsort(rng.random((t, n)), axis=-1)[:, :k]
    ids = np.where(rng.random((t, k)) < rng.uniform(0.0, 0.9), np.int64(-1), ids)
    weights = np.zeros((t, n))
    tokens, slots = np.nonzero(ids >= 0)
    weights[tokens, ids[tokens, slots]] = rng.uniform(0.05, 1.0, tokens.size)
    h = rng.normal(size=(t, d_h))
    h[rng.random(h.shape) < 0.1] = -0.0
    experts = [Expert.init_random(d_h, d_ff, rng, std=0.4) for _ in range(n)]
    return h, align_block(ids, num_experts=n), weights, experts


class TestOverheadFreeExecute:
    """``grouped_execute`` with one slot-level weight gather
    (``moe.slot_weights``), in-place weighting and the in-place
    ``expert_forward_np`` equals the per-expert loop it replaced,
    ``reference_grouped_execute``, bit for bit, on positive weights."""

    @pytest.mark.parametrize("activation", ["silu", "identity"])
    def test_random_plans_bit_equal(self, activation):
        rng = np.random.default_rng(19)
        sizes = {"empty": 0, "one-row": 0, "one-token": 0}
        for trial in range(60):
            t = 1 if trial % 4 == 0 else int(rng.integers(2, 24))
            h, plan, weights, experts = plan_case(rng, t, n=6, k=3)
            counts = np.diff(plan.offsets)
            sizes["empty"] += bool((counts == 0).any())
            sizes["one-row"] += bool((counts == 1).any())
            sizes["one-token"] += t == 1
            got = grouped_execute(h, plan, experts, weights, activation)
            want = reference_grouped_execute(h, plan, experts, weights, activation)
            assert bit_equal(got, want)
        assert all(sizes.values()), sizes

    @pytest.mark.parametrize("activation", ["silu", "identity"])
    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_expert_forward_np_bit_equal(self, activation, rows):
        rng = np.random.default_rng(rows)
        expert = Expert.init_random(6, 9, rng, std=0.5)
        x = rng.normal(size=(rows, 6))
        got = moe.expert_forward_np(x, expert, activation)
        assert bit_equal(got, reference_expert_forward_np(x, expert, activation))
        assert bit_equal(got, reference_expert_forward(Tensor(x), expert, activation).data)

    def test_unknown_activation_rejected(self):
        expert = Expert.init_random(2, 3, np.random.default_rng(0))
        with pytest.raises(ContractError, match="unknown activation 'relu'"):
            moe.expert_forward_np(np.ones((1, 2)), expert, "relu")

    def test_one_kernel_call_per_expert_with_its_rows(self, monkeypatch):
        rng = np.random.default_rng(29)
        h, plan, weights, experts = plan_case(rng, 20, n=6, k=3)
        calls = []
        real = dispatch.expert_forward_np

        def spy(x, expert, activation):
            calls.append((experts.index(expert), x.copy()))
            return real(x, expert, activation)

        monkeypatch.setattr(dispatch, "expert_forward_np", spy)
        grouped_execute(h, plan, experts, weights)
        runs = list(moe.expert_runs(plan.offsets, plan.token_order))
        assert [e for e, _ in calls] == [e for e, _ in runs]
        assert all(np.array_equal(x, h[rows]) for (_, x), (_, rows) in zip(calls, runs))


class TestOneWeightRule:
    """``moe.slot_weights`` is the one weight rule of both paths: no weight is
    negative, every positive weight lies on a slot, and a slot may weigh 0.
    Both paths check it before any expert runs, with one message."""

    IDS = np.array([[0, 1, 5], [2, 3, -1], [4, 0, 3], [1, -1, 2]])

    def _case(self, seed=23):
        rng = np.random.default_rng(seed)
        weights = np.zeros((4, 6))
        tokens, slots = np.nonzero(self.IDS >= 0)
        weights[tokens, self.IDS[tokens, slots]] = rng.uniform(0.1, 1.0, tokens.size)
        h = rng.normal(size=(4, 5))
        experts = [Expert.init_random(5, 4, rng, std=0.4) for _ in range(6)]
        return weights, h, experts

    def _errors(self, weights, h, experts, monkeypatch):
        """The message each path raises, and the expert calls made first."""
        ran = []
        monkeypatch.setattr(moe, "expert_forward", lambda *a: ran.append(a))
        monkeypatch.setattr(dispatch, "expert_forward_np", lambda *a: ran.append(a))
        with pytest.raises(ContractError) as training, Tape():
            moe_block_forward(
                Tensor(h), Tensor(weights, requires_grad=True), experts, compute_ids=self.IDS
            )
        with pytest.raises(ContractError) as inference:
            grouped_execute(h, align_block(self.IDS, num_experts=6), experts, weights)
        return str(training.value), str(inference.value), ran

    @pytest.mark.parametrize(
        "token, expert", [(1, 5), (3, 4), (0, 2)], ids=["no-slot", "masked-slot", "non-candidate"]
    )
    def test_positive_weight_off_the_slots_rejected_alike(self, token, expert, monkeypatch):
        weights, h, experts = self._case()
        weights[token, expert] = 0.25
        message = "a positive expert weight lies off the slot set"
        assert self._errors(weights, h, experts, monkeypatch) == (message, message, [])

    @pytest.mark.parametrize("token, expert", [(0, 5), (1, 5)], ids=["on-slot", "off-slot"])
    def test_negative_weight_rejected_alike(self, token, expert, monkeypatch):
        weights, h, experts = self._case()
        weights[token, expert] = -0.25
        message = "expert weights must be non-negative"
        assert self._errors(weights, h, experts, monkeypatch) == (message, message, [])

    def test_zero_weight_slot_equals_naive_execute(self):
        weights, h, experts = self._case()
        weights[0, 5] = weights[2, 4] = 0.0  # the only slots of experts 5 and 4
        plan = align_block(self.IDS, num_experts=6)
        out = grouped_execute(h, plan, experts, weights)
        assert np.max(np.abs(out - naive_execute(h, self.IDS, experts, weights))) < 1e-9
        # a zero-weight slot adds exactly 0: the plan without those two
        # experts' runs gives the same bits
        dropped = np.where((self.IDS == 4) | (self.IDS == 5), -1, self.IDS)
        assert bit_equal(out, grouped_execute(h, align_block(dropped, num_experts=6), experts, weights))

    def test_nan_weight_passes_both_paths(self):
        # a diverging run's weights must reach the loss, on a slot or off it
        weights, h, experts = self._case()
        weights[0, 1] = weights[1, 5] = np.nan
        out = grouped_execute(h, align_block(self.IDS, num_experts=6), experts, weights)
        taped = moe_block_forward(Tensor(h), Tensor._raw(weights), experts, compute_ids=self.IDS)
        for y in (out, taped.data - h):
            assert np.isnan(y[0]).all() and np.isfinite(y[1:]).all()


def underflow_case(kind, seed=3):
    """A block and input where scaling one router column leaves some kept slot
    with a top-k softmax weight of exactly 0."""
    rng = np.random.default_rng(seed)
    block = build_block(MoEBlockConfig(d_h=8, d_ff=6, num_experts=4, top_k=2), RoutingStrategy(kind), rng)
    block.router_w.data[:, 1] *= 1e5
    return block, RoutingStrategy(kind), Tensor(rng.normal(size=(16, 8)))


class TestUnderflowedWeight:
    """A top-k softmax weight that underflows to exactly 0 on a kept slot:
    inference used to reject it, while training skipped the slot. Now both run
    it and it adds exactly 0, so inference equals training bit for bit."""

    @pytest.mark.parametrize("kind", ["vanilla_topk", "beam"])
    def test_block_inference_equals_training(self, kind):
        block, strategy, h = underflow_case(kind)
        with Tape():
            trained, rr = block_forward(h, block, strategy, training=True)
        kept = rr.kept_ids >= 0
        rows = np.nonzero(kept)[0]
        assert np.any(rr.weights_hat.data[rows, rr.kept_ids[kept]] == 0.0)
        inferred, _ = block_forward(h, block, strategy, training=False)
        assert bit_equal(inferred.data, trained.data)

    @pytest.mark.parametrize("kind", ["vanilla_topk", "beam"])
    def test_evaluate_equals_training(self, kind):
        cfg = ModelConfig(
            vocab_size=12, d_h=16, n_layers=2, n_heads=2, context_length=8, d_ff=12,
            num_experts=4, top_k=2, strategy=RoutingStrategy(kind), seed=5,
        )
        model = TinyMoELM(cfg)
        model.layers[0]["block"].router_w.data[:, 1] *= 1e5
        corpus = np.random.default_rng(6).integers(0, 12, 8 * 4 + 1)
        xs, ys = corpus[:-1].reshape(4, 8), corpus[1:].reshape(4, 8)
        logits, routes = model.forward(xs, training=True)
        rr = routes[0]
        kept = rr.kept_ids >= 0
        assert np.any(rr.weights_hat.data[np.nonzero(kept)[0], rr.kept_ids[kept]] == 0.0)
        inferred, _ = model.forward(xs, training=False)
        assert bit_equal(inferred.data, logits.data)
        nll = float(cross_entropy(reshape(logits, (32, 12)), ys.reshape(-1)).data)
        result = evaluate(model, corpus, batch_size=4)
        assert result.token_count == 32
        assert result.perplexity == float(np.exp(nll * 32 / 32))
