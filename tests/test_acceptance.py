"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime. The training-trend criteria share one 18-run study
(3 seeds x {vanilla, three mask strengths, two soft ablations}).

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from beamoe import dispatch
from beamoe.analysis import (
    FlopsModel,
    SparsityTrace,
    avg_k,
    expert_load,
    flops_reduction,
    position_mask_prob,
    rank_extremes,
)
from beamoe.baselines import RoutingStrategy, build_block, dynamic_select, route
from beamoe.beam import MaskRouter, mask_forward
from beamoe.moe import MoEBlock, MoEBlockConfig, moe_block_forward, topk_route
from beamoe.tensor import Tape, Tensor, cross_entropy, mul, reshape, tsum
from beamoe.trainer import ModelConfig, TrainConfig, evaluate, ingest_text, synthetic_text, train

from reference_ops import beam_block_forward, check_gradient, ste_backward
from test_beam import closed_form_vs_tape_case


def report(criterion, detail, t0):
    print(f"\nACCEPTANCE {criterion}: PASS ({time.time() - t0:.1f}s) {detail}")


# ---------------------------------------------------------------------------
# criterion 1: zero-init masking is invisible
# ---------------------------------------------------------------------------


def test_criterion_01_zero_init_equivalence():
    t0 = time.time()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(n, 4) + 1))
        d_h = int(rng.integers(2, 33))
        d_ff = int(rng.integers(2, 17))
        t = int(rng.integers(1, 9))
        cfg = MoEBlockConfig(
            d_h=d_h, d_ff=d_ff, num_experts=n, top_k=k,
            num_shared=int(rng.integers(0, 2)), has_norm=bool(rng.integers(0, 2)),
        )
        block = MoEBlock(cfg, rng, init_std=0.3)
        block.mask_router = MaskRouter.zero_init(d_h, n)
        h = Tensor(rng.normal(size=(t, d_h)))
        x_n = block.normalize(h)
        dec = topk_route(x_n, block.router_w, k)
        vanilla = moe_block_forward(
            h, dec.weights, block.experts, block.shared,
            x_norm=x_n, activation=cfg.activation, compute_ids=dec.topk_indices,
        )
        for training in (True, False):
            out, _, maskdec = beam_block_forward(h, block, training=training)
            assert np.all(maskdec.binary_mask == 1)
            worst = max(worst, float(np.max(np.abs(out.data - vanilla.data))))
    elapsed = time.time() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    report(1, f"100 models, both modes, max |diff| = {worst:.2e}", t0)


# ---------------------------------------------------------------------------
# criterion 2: straight-through gradient equals the closed form
# ---------------------------------------------------------------------------


def test_criterion_02_gradient_closed_form_oracle():
    t0 = time.time()
    worst = 0.0
    for seed in range(100):
        tape_grad, closed, dec = closed_form_vs_tape_case(1000 + seed)
        worst = max(worst, float(np.max(np.abs(tape_grad - closed))))
        off = np.ones_like(tape_grad, dtype=bool)
        np.put_along_axis(off, dec.topk_indices, False, -1)
        assert np.all(tape_grad[off] == 0.0)
    elapsed = time.time() - t0
    assert worst < 1e-10
    assert elapsed < 30.0
    report(2, f"100 configurations, max |tape - closed| = {worst:.2e}", t0)


# ---------------------------------------------------------------------------
# criterion 3: finite-difference check of every differentiable path
# ---------------------------------------------------------------------------


def test_criterion_03_finite_difference_paths():
    # weights are drawn at unit-ish scale so no sampled gradient coordinate
    # sits near the float-cancellation floor of the central difference
    t0 = time.time()
    worst = 0.0
    for seed in (0, 1, 2, 4, 5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, min(n, 4) + 1))
        d_h, d_ff, t = int(rng.integers(4, 9)), int(rng.integers(3, 8)), 5
        cfg = MoEBlockConfig(d_h=d_h, d_ff=d_ff, num_experts=n, top_k=k, has_norm=True)
        strategy = RoutingStrategy("soft_mask")
        block = MoEBlock(cfg, rng, init_std=0.6)
        block.mask_router = MaskRouter.zero_init(d_h, n)
        block.mask_router.weight.data[...] = rng.normal(0, 0.8, (d_h, n))
        h = Tensor(rng.normal(size=(t, d_h)))
        targets = rng.integers(0, d_h, size=t)
        head = Tensor(rng.normal(0, 1.0, (d_h, d_h)))

        def f():
            from beamoe.baselines import block_forward
            from beamoe.beam import sparsity_loss
            from beamoe.moe import balance_loss_from

            out, rr = block_forward(h, block, strategy, training=True)
            lm = cross_entropy(out @ head, targets)
            bal = balance_loss_from(rr.logits, rr.balance_active)
            reg = sparsity_loss(rr.raw_mask, rr.reg_indices)
            return lm + mul(bal, 1e-3) + mul(reg, 0.1)

        params = (
            [block.router_w, block.mask_router.weight]
            + [w for e in block.experts for w in e.tensors()]
        )
        err = check_gradient(f, params, epsilon=1e-5, rng=rng, max_coords=6)
        worst = max(worst, err)
    elapsed = time.time() - t0
    assert worst < 1e-4
    assert elapsed < 60.0
    report(3, f"router/expert/soft-mask params, max rel err = {worst:.2e}", t0)


# ---------------------------------------------------------------------------
# criterion 4: dispatch equals the naive per-token loop
# ---------------------------------------------------------------------------


def test_criterion_04_dispatch_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0
    from beamoe.moe import Expert

    for trial in range(200):
        t, n = int(rng.integers(1, 24)), int(rng.integers(2, 9))
        k = int(rng.integers(1, min(n, 4) + 1))
        d_h, d_ff = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        ids = np.stack([rng.choice(n, size=k, replace=False) for _ in range(t)]).astype(np.int64)
        if trial == 0:
            keep = np.zeros((t, k), dtype=bool)  # all masked
        elif trial == 1:
            keep = np.ones((t, k), dtype=bool)  # all kept
        else:
            keep = rng.random((t, k)) >= rng.uniform(0, 1)
        masked_ids = np.where(keep, ids, np.int64(-1))
        weights = np.zeros((t, n))
        rows = np.repeat(np.arange(t), k)[keep.ravel()]
        cols = ids.ravel()[keep.ravel()]
        weights[rows, cols] = rng.uniform(0.05, 1.0, rows.size)
        experts = [Expert.init_random(d_h, d_ff, rng, std=0.4) for _ in range(n)]
        h = rng.normal(size=(t, d_h))
        plan = dispatch.align_block(masked_ids, int(rng.choice([1, 4, 16])), num_experts=n)
        assert plan.total_real == int((masked_ids >= 0).sum())  # slot conservation
        out = dispatch.grouped_execute(h, plan, experts, weights)
        oracle = dispatch.naive_execute(h, masked_ids, experts, weights)
        worst = max(worst, float(np.max(np.abs(out - oracle))))
    elapsed = time.time() - t0
    assert worst <= 1e-9
    assert elapsed < 30.0
    report(4, f"200 mask patterns, max |grouped - naive| = {worst:.2e}", t0)


# ---------------------------------------------------------------------------
# criteria 5-7 and 12 share one training study
# ---------------------------------------------------------------------------

STUDY_SEEDS = (0, 1, 2)
STUDY_STEPS = 500
BETAS = (0.01, 0.1, 1.0)


@pytest.fixture(scope="module")
def study():
    t0 = time.time()
    cpu0 = time.process_time()
    text = synthetic_text(102400, 7)
    ids, vocab = ingest_text(text)
    results = {}
    for seed in STUDY_SEEDS:
        runs = [("vanilla", RoutingStrategy("vanilla_topk"), 0.0)]
        runs += [(f"beam@{b}", RoutingStrategy("beam"), b) for b in BETAS]
        runs += [
            ("soft@0.1", RoutingStrategy("soft_mask"), 0.1),
            ("tempered@0.1", RoutingStrategy("soft_mask_tempered"), 0.1),
        ]
        for label, strategy, beta in runs:
            cfg = ModelConfig(vocab_size=len(vocab), strategy=strategy, seed=seed)
            tc = TrainConfig(steps=STUDY_STEPS, beta=beta, seed=seed)
            model, rows = train(cfg, tc, ids)
            binarize = label.startswith("soft@")
            res = evaluate(model, ids, max_windows=64, binarize_soft=binarize)
            rates = [r.expert_active_rate for r in rows]
            results[(label, seed)] = {
                "final_lm": rows[-1].lm_loss,
                "ppl": res.perplexity,
                "avg_k": res.avg_k,
                "rate_at_half": rates[STUDY_STEPS // 2 - 1],
                "rate_plateau": float(np.mean(rates[-20:])),
                "rate0": rates[0],
            }
    results["cpu_seconds"] = time.process_time() - cpu0
    results["wall_seconds"] = time.time() - t0
    return results


@pytest.mark.slow
def test_criterion_05_sparsity_beta_trend(study):
    t0 = time.time()
    medians = []
    for beta in BETAS:
        vals = sorted(study[(f"beam@{beta}", s)]["avg_k"] for s in STUDY_SEEDS)
        medians.append(vals[1])
    assert medians[0] > medians[1] > medians[2], medians
    assert medians[2] < 1.0
    assert study["cpu_seconds"] < 30 * 60
    report(
        5,
        f"median avg_k by beta {dict(zip(BETAS, [round(m, 4) for m in medians]))}, "
        f"study cpu = {study['cpu_seconds']:.0f}s, wall = {study['wall_seconds']:.0f}s",
        t0,
    )


@pytest.mark.slow
def test_criterion_06_loss_parity(study):
    t0 = time.time()
    worst = 0.0
    for seed in STUDY_SEEDS:
        beam = study[("beam@0.01", seed)]["final_lm"]
        vanilla = study[("vanilla", seed)]["final_lm"]
        rel = abs(beam - vanilla) / vanilla
        worst = max(worst, rel)
    assert worst < 0.10
    report(6, f"beta=0.01 vs vanilla lm gap, worst seed = {worst:.3%}", t0)


@pytest.mark.slow
def test_criterion_07_early_sparsification(study):
    t0 = time.time()
    worst = 0.0
    for seed in STUDY_SEEDS:
        row = study[("beam@0.1", seed)]
        assert row["rate0"] == 1.0
        gap = abs(row["rate_at_half"] - row["rate_plateau"])
        worst = max(worst, gap)
    assert worst < 0.10  # within 10 percentage points of the plateau
    report(7, f"half-way vs plateau active-rate gap, worst seed = {worst:.3f}", t0)


# ---------------------------------------------------------------------------
# criterion 8: FLOPs accounting
# ---------------------------------------------------------------------------


def test_criterion_08_flops_accounting():
    t0 = time.time()
    rng = np.random.default_rng(8)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        avg = float(rng.uniform(0, k))
        rep = flops_reduction(FlopsModel(64, 128, 8, k, int(rng.integers(0, 4)), avg))
        assert abs(rep.routed_reduction - (1.0 - avg / k)) < 1e-12
    extreme = flops_reduction(FlopsModel(2048, 6144, 128, 8, 0, avg_k=1.23))
    assert abs(extreme.routed_reduction - 0.846) <= 0.001
    shared_floor = flops_reduction(FlopsModel(2560, 5632, 60, 4, 4, avg_k=0.0))
    assert shared_floor.layer_reduction == 0.5
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(
        8,
        f"identity exact; avg_k=1.23/K=8 gives {extreme.routed_reduction:.1%}; "
        f"shared floor = {shared_floor.layer_reduction:.0%}",
        t0,
    )


# ---------------------------------------------------------------------------
# criterion 9: masked dispatch is actually faster
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_09_bench_ordering():
    t0 = time.time()
    rows = dispatch.bench_dispatch(
        num_tokens=4096, num_experts=8, top_k=4, d_h=256, d_ff=512,
        active_fractions=[1.0, 0.5, 0.25], repetitions=20, seed=0,
    )
    total = 4096 * 4
    for row in rows:
        assert abs(row.slots_executed - row.active_fraction * total) <= 0.02 * total
    assert rows[0].wall_time_ns_min > rows[1].wall_time_ns_min > rows[2].wall_time_ns_min
    elapsed = time.time() - t0
    assert elapsed < 120.0
    times = {r.active_fraction: r.wall_time_ns_min / 1e6 for r in rows}
    report(9, f"min wall ms by fraction {times}", t0)


# ---------------------------------------------------------------------------
# criterion 10: baseline mechanisms against brute-force oracles
# ---------------------------------------------------------------------------


def test_criterion_10_baseline_oracles():
    t0 = time.time()
    rng = np.random.default_rng(10)

    # cumulative-threshold selection vs prefix-sum oracle
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        probs = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0))
        phi = float(rng.uniform(0.01, 1.0))
        fast = dynamic_select(probs[None], phi)[0]
        order = sorted(range(n), key=lambda i: (-probs[i], i))
        total, active = 0.0, np.zeros(n, dtype=bool)
        for i in order:
            active[i] = True
            total += probs[i]
            if total >= phi:
                break
        assert np.array_equal(fast, active)

    # null-expert routing: activation count equals a brute-force recount
    cfg = MoEBlockConfig(d_h=6, d_ff=4, num_experts=5, top_k=3, has_norm=False)
    ada = RoutingStrategy("ada_moe", {"null_count": 7})
    block = build_block(cfg, ada, np.random.default_rng(0))
    x = Tensor(rng.normal(size=(100, 6)))
    rr = route(block, x, ada, training=True)
    logits = x.data @ block.router_w.data
    count = 0
    for row_logits in logits:
        top = sorted(range(12), key=lambda i: (-row_logits[i], i))[:3]
        count += sum(1 for i in top if i < 5)
    assert int(rr.active_counts.sum()) == count

    # inference-time pruning equals direct reduced-k routing, bit for bit
    prune = RoutingStrategy("topk_pruning", {"k_infer": 2})
    cfg2 = MoEBlockConfig(d_h=6, d_ff=4, num_experts=6, top_k=4, has_norm=False)
    block2 = build_block(cfg2, prune, np.random.default_rng(1))
    x2 = Tensor(rng.normal(size=(50, 6)))
    rr2 = route(block2, x2, prune, training=False)
    direct = topk_route(x2, block2.router_w, 2)
    assert np.array_equal(rr2.weights_hat.data, direct.weights.data)
    assert np.array_equal(rr2.candidate_ids, direct.topk_indices)

    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(10, "dynamic x1000, null-count recount, pruning bit-exact", t0)


# ---------------------------------------------------------------------------
# criterion 11: analysis metrics against brute-force recomputation
# ---------------------------------------------------------------------------


def test_criterion_11_analysis_oracles():
    t0 = time.time()
    rng = np.random.default_rng(11)
    for trial in range(50):
        k = int(rng.integers(1, 6))
        n_layers = int(rng.integers(1, 5))
        n_cells = int(rng.integers(1, 1000 // k + 1))
        n_experts = int(rng.integers(k, k + 8))
        trace = SparsityTrace()
        rows = []
        for c in range(n_cells):
            flat, layer = divmod(c, n_layers)
            seq, pos = divmod(flat, 17)
            ids = rng.choice(n_experts, size=k, replace=False)
            if rng.random() < 0.05:
                ids[rng.integers(0, k)] = -1  # null slot
            bits = (rng.random(k) >= rng.uniform(0.1, 0.9)).astype(int)
            phase = "prefill" if rng.random() < 0.6 else "decode"
            token = int(rng.integers(0, 9))
            trace.record_cell(seq, pos, layer, ids, bits, phase, token)
            for r in range(k):
                rows.append((seq, pos, layer, r + 1, int(ids[r]), int(bits[r]), phase, token))

        # brute-force: group rows by cell
        cells = {}
        for seq, pos, layer, rank, eid, bit, phase, token in rows:
            cells.setdefault((seq, pos, layer), []).append((rank, eid, bit, phase, token))

        got = avg_k(trace)["overall"]
        want = np.mean([sum(b for _, _, b, _, _ in v) for v in cells.values()])
        assert got == pytest.approx(want, abs=1e-12)

        got_layer = avg_k(trace, "layer")
        for layer in {key[2] for key in cells}:
            ref = [sum(b for _, _, b, _, _ in v) for key, v in cells.items() if key[2] == layer]
            assert got_layer[layer] == pytest.approx(np.mean(ref), abs=1e-12)

        probs = position_mask_prob(trace)
        for rank in range(1, k + 1):
            ref = [1 - r[5] for r in rows if r[3] == rank]
            assert probs[rank] == pytest.approx(np.mean(ref), abs=1e-12)

        extremes = rank_extremes(trace)
        for layer in {key[2] for key in cells}:
            masked = [r[3] for r in rows if r[2] == layer and r[5] == 0]
            kept = [r[3] for r in rows if r[2] == layer and r[5] == 1]
            assert extremes[layer] == (
                min(masked) if masked else None,
                max(kept) if kept else None,
            )

        pre, post = expert_load(trace)
        routed = [r[4] for r in rows if r[4] >= 0]
        kept_rows = [r[4] for r in rows if r[4] >= 0 and r[5] == 1]
        for e, frac in pre.items():
            assert frac == pytest.approx(routed.count(e) / len(routed), abs=1e-12)
        for e, frac in post.items():
            assert frac == pytest.approx(kept_rows.count(e) / len(kept_rows), abs=1e-12)

    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(11, "50 traces, four metrics vs recount", t0)


# ---------------------------------------------------------------------------
# criterion 12: soft-mask ablation ordering
# ---------------------------------------------------------------------------


def closest_masked_run(study, seed, run):
    """The seed's ``beam@{beta}`` run whose avg_k is closest to ``run``'s,
    as ``(beta, masked_run)``."""
    return min(
        ((b, study[(f"beam@{b}", seed)]) for b in BETAS),
        key=lambda pair: abs(pair[1]["avg_k"] - run["avg_k"]),
    )


@pytest.mark.slow
def test_criterion_12_soft_mask_ablation(study):
    t0 = time.time()
    orderings = []
    pairings = []
    for seed in STUDY_SEEDS:
        # match each soft variant, separately, against the masked run closest
        # to its own sparsity (avg_k) among this seed's beam@{beta} runs
        ppl, pairing = {}, {}
        for variant in ("soft@0.1", "tempered@0.1"):
            run = study[(variant, seed)]
            beta, masked = closest_masked_run(study, seed, run)
            pairing[variant] = (
                f"seed {seed} {variant} vs beam@{beta}: "
                f"avg_k {run['avg_k']:.3f} vs {masked['avg_k']:.3f}, "
                f"ppl {run['ppl']:.2f} vs {masked['ppl']:.2f}"
            )
            pairings.append(pairing[variant])
            assert abs(masked["avg_k"] - run["avg_k"]) <= 0.3, (
                f"no masked run within 0.3 avg_k: {pairing[variant]}"
            )
            ppl[variant] = (run["ppl"], masked["ppl"])
        assert ppl["soft@0.1"][0] > ppl["soft@0.1"][1], pairing["soft@0.1"]
        orderings.append((ppl["soft@0.1"][0], *ppl["tempered@0.1"]))
    # tempered falls between plain-soft and the masked run matched to tempered's
    # own sparsity (median over seeds)
    med = np.median(np.asarray(orderings), axis=0)
    assert med[0] > med[1] > med[2], f"median ppl {med}; " + "; ".join(pairings)
    report(
        12,
        f"median ppl soft={med[0]:.2f} > tempered={med[1]:.2f} > masked={med[2]:.2f}; "
        + "; ".join(pairings),
        t0,
    )
