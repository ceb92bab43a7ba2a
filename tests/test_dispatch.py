import numpy as np
import pytest

from beamoe.dispatch import align_block, bench_dispatch, grouped_execute, naive_execute
from beamoe.moe import Expert
from beamoe.tensor import ContractError


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
        assert plan.real_counts.tolist() == [1, 2]
        assert plan.offsets.tolist() == [0, 1, 3]
        assert plan.padded_count(0) == 2 and plan.padded_count(1) == 2
        assert plan.token_order.tolist() == [0, 0, 1]
        assert plan.slot_order.tolist() == [0, 1, 0]

    def test_block_size_one_no_padding(self):
        rng = np.random.default_rng(2)
        ids = rng.integers(-1, 4, (12, 3)).astype(np.int64)
        plan = align_block(ids, 1, num_experts=4)
        for e in range(4):
            assert plan.padded_count(e) == plan.real_counts[e]

    def test_padded_length_formula(self):
        rng = np.random.default_rng(3)
        for bs in (1, 2, 16, 64):
            ids = rng.integers(-1, 6, (40, 4)).astype(np.int64)
            plan = align_block(ids, bs, num_experts=6)
            for e in range(6):
                c = plan.real_counts[e]
                assert plan.padded_count(e) == -(-c // bs) * bs

    def test_slot_conservation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ids = rng.integers(-1, 8, (rng.integers(1, 50), rng.integers(1, 5))).astype(np.int64)
            plan = align_block(ids, 16, num_experts=8)
            assert plan.total_real == int((ids >= 0).sum())
            assert plan.offsets.tolist() == [0] + np.cumsum(plan.real_counts).tolist()
            # every real (token, slot) appears exactly once across experts,
            # in ascending (token, slot) order within its expert
            seen = set()
            for e in range(8):
                lo, hi = plan.offsets[e], plan.offsets[e + 1]
                pairs = list(zip(plan.token_order[lo:hi].tolist(), plan.slot_order[lo:hi].tolist()))
                assert pairs == sorted(pairs)
                for tok, slot in pairs:
                    assert ids[tok, slot] == e
                    seen.add((tok, slot))
            assert len(seen) == plan.total_real

    def test_out_of_range_ids_rejected(self):
        for bad in ([[5, 1], [-3, 0]], [[4, 0]], [[-2, 1]]):
            with pytest.raises(ContractError):
                align_block(np.array(bad), 16, num_experts=4)
        with pytest.raises(ContractError):
            align_block(np.array([[-3, 0]]), 16)


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

    def test_weight_pattern_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        h, _, masked_ids, weights, experts = random_scenario(rng, mask_prob=0.5)
        plan = align_block(masked_ids, 16, num_experts=8)
        bad = weights.copy()
        bad[bad != 0] = 0.0  # zero out everything the plan expects
        with pytest.raises(ContractError):
            grouped_execute(h, plan, experts, bad)

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

    @pytest.mark.slow
    def test_wall_time_ordering(self):
        rows = bench_dispatch(
            num_tokens=2048, num_experts=8, top_k=4, d_h=128, d_ff=256,
            active_fractions=[1.0, 0.25], repetitions=5, seed=0,
        )
        assert rows[1].wall_time_ns_min < rows[0].wall_time_ns_min
