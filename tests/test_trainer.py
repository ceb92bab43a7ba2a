import hashlib
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from beamoe import trainer
from beamoe.baselines import RoutingStrategy
from beamoe.tensor import ContractError, NumericError, Tape, Tensor
from beamoe.trainer import (
    Adam,
    CheckpointError,
    ModelConfig,
    TinyMoELM,
    TrainConfig,
    TrainingDiverged,
    clip_gradients,
    evaluate,
    ingest_corpus,
    ingest_text,
    load_checkpoint,
    sample_greedy,
    save_checkpoint,
    synthetic_text,
    total_loss,
    train,
    write_trace,
)
from reference_ops import (
    reference_eval_windows,
    reference_ingest_text,
    reference_sample_batch,
    reference_sample_greedy,
    reference_synthetic_text,
    reference_write_trace,
    save_checkpoint_v1,
)


def small_model_cfg(vocab=12, strategy=None, seed=0):
    return ModelConfig(
        vocab_size=vocab,
        d_h=16,
        n_layers=1,
        n_heads=2,
        context_length=16,
        d_ff=12,
        num_experts=4,
        top_k=2,
        strategy=strategy or RoutingStrategy("vanilla_topk"),
        seed=seed,
    )


def small_train_cfg(**kw):
    defaults = dict(steps=5, batch_size=2, learning_rate=1e-3, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def corpus():
    text = synthetic_text(3000, 3)
    return ingest_text(text)


class TestModelConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [("n_heads", 0), ("n_heads", -4), ("n_layers", 0), ("n_layers", -1)],
    )
    def test_nonpositive_depth_or_heads_rejected(self, field, value):
        kw = dict(vocab_size=12, d_h=16, n_layers=1, n_heads=2, d_ff=12, num_experts=4, top_k=2)
        kw[field] = value
        with pytest.raises(ContractError, match="n_layers and n_heads must be >= 1"):
            ModelConfig(**kw)


    @pytest.mark.parametrize(
        "field,value",
        [("seed", True), ("n_layers", True), ("n_heads", True), ("top_k", True), ("d_ff", True),
         ("d_h", 16.0), ("num_shared", 0.5), ("vocab_size", False), ("context_length", "8")],
    )
    def test_non_integer_count_rejected(self, field, value):
        kw = dict(vocab_size=12, d_h=16, n_layers=1, n_heads=2, d_ff=12, num_experts=4, top_k=2)
        kw[field] = value
        with pytest.raises(ContractError, match=f"^{field} must be an integer, got {value!r}$"):
            ModelConfig(**kw)

    def test_vocab_size_none_accepted(self):
        assert ModelConfig(vocab_size=None).vocab_size is None


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "field,value", [("steps", True), ("steps", 2.5), ("batch_size", False), ("seed", 1.0)]
    )
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ContractError, match=f"^{field} must be an integer, got {value!r}$"):
            TrainConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        assert TrainConfig(steps=np.int64(3), seed=np.int32(1)).steps == 3


class TestTotalLoss:
    def s(self, v):
        return Tensor(np.asarray(v))

    def test_weighted_sum(self):
        out = total_loss(self.s(1.0), self.s(2.0), self.s(0.5), alpha=0.1, beta=0.2)
        assert out.data == pytest.approx(1.3)

    def test_beta_zero_degenerates(self):
        out = total_loss(self.s(1.5), self.s(2.0), self.s(0.9), alpha=0.5, beta=0.0)
        assert out.data == pytest.approx(1.5 + 0.5 * 2.0)

    def test_non_finite_named(self):
        bad = Tensor._raw(np.asarray(np.nan))
        with pytest.raises(NumericError, match="bal"):
            total_loss(self.s(1.0), bad, self.s(0.0), 1.0, 1.0)


class TestCorpus:
    def test_two_symbol(self):
        ids, vocab = ingest_text("abab")
        assert vocab == ["a", "b"]
        assert ids.tolist() == [0, 1, 0, 1]

    def test_the_cat_vocab(self):
        _, vocab = ingest_text("the cat")
        assert len(vocab) == 6  # space, a, c, e, h, t

    def test_synthetic_deterministic(self):
        assert synthetic_text(1000, 7) == synthetic_text(1000, 7)
        assert synthetic_text(1000, 7) != synthetic_text(1000, 8)

    def test_synthetic_exact_length(self):
        assert len(synthetic_text(12345, 0)) == 12345

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            ingest_text("")

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ContractError, match="must be positive"):
            synthetic_text(0, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 99, 2**31, 2**40])
    @pytest.mark.parametrize("length", [1, 2, 7, 13, 1000, 12345, 102400])
    def test_corpus_equals_reference(self, length, seed):
        text = synthetic_text(length, seed)
        assert text == reference_synthetic_text(length, seed)
        ids, vocab = ingest_text(text)
        want_ids, want_vocab = reference_ingest_text(text)
        assert vocab == want_vocab
        assert ids.dtype == want_ids.dtype and np.array_equal(ids, want_ids)

    @pytest.mark.parametrize(
        "text", ["héllo wörld", "naïve ✓ 😀 ok 😀", "a\x00b\x00", "a\ud800b", "😀", "\U0010ffff\x00"]
    )
    def test_ingest_equals_reference_beyond_ascii(self, text):
        ids, vocab = ingest_text(text)
        want_ids, want_vocab = reference_ingest_text(text)
        assert vocab == want_vocab
        assert ids.dtype == want_ids.dtype and np.array_equal(ids, want_ids)

    def test_study_corpus_pinned(self):
        # criteria 5-7 and 12 are calibrated on this corpus
        digest = hashlib.sha256(synthetic_text(102400, 7).encode()).hexdigest()
        assert digest == "2581f3eb9817bfb84590227e6e6e437172dfbe8b7e1d618d22a1f8b02dc805c3"

    def test_ingest_corpus_file(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("hello hello")
        ids, vocab = ingest_corpus({"kind": "file", "path": str(p)})
        assert len(vocab) == len(set("hello "))

    def test_undecodable_bytes_surface(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\xff\xfe\x00\x01")
        with pytest.raises(UnicodeDecodeError):
            ingest_corpus({"kind": "file", "path": str(p)})


class TestSchedule:
    def test_warmup_then_decay(self):
        tc = TrainConfig(learning_rate=1.0, warmup_ratio=0.1, steps=100)
        assert tc.lr_at(0) == pytest.approx(0.1)
        assert tc.lr_at(9) == pytest.approx(1.0)
        assert tc.lr_at(10) == pytest.approx(1.0)
        assert tc.lr_at(99) < tc.lr_at(50) < tc.lr_at(10)

    def test_no_warmup(self):
        tc = TrainConfig(learning_rate=1.0, warmup_ratio=0.0, steps=10)
        assert tc.lr_at(0) == pytest.approx(1.0)


class TestClip:
    def test_norm_bounded_after_clip(self):
        rng = np.random.default_rng(0)
        params = [Tensor(rng.normal(size=(4, 4)), requires_grad=True) for _ in range(3)]
        for p in params:
            p.grad = rng.normal(0, 10.0, p.data.shape)
        clip_gradients(params, 1.0)
        total = sum(float((p.grad**2).sum()) for p in params)
        assert np.sqrt(total) <= 1.0 + 1e-9

    def test_small_gradients_untouched(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = np.array([0.1, 0.0, 0.0])
        clip_gradients([p], 1.0)
        assert np.array_equal(p.grad, [0.1, 0.0, 0.0])


class TestTrainLoop:
    def test_zero_steps_keeps_init(self, corpus):
        ids, vocab = corpus
        cfg = small_model_cfg(len(vocab))
        model, rows = train(cfg, small_train_cfg(steps=0), ids)
        fresh = TinyMoELM(cfg)
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), fresh.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)
        assert rows == []

    def test_deterministic_trace(self, corpus):
        ids, vocab = corpus
        cfg = small_model_cfg(len(vocab), RoutingStrategy("beam"))
        tc = small_train_cfg(steps=4, beta=0.05)
        _, rows_a = train(cfg, tc, ids)
        _, rows_b = train(cfg, tc, ids)
        assert [r.to_csv() for r in rows_a] == [r.to_csv() for r in rows_b]

    def test_trace_records_pre_clip_grad_norm(self, corpus, monkeypatch, tmp_path):
        import beamoe.trainer as trainer_mod
        from beamoe.trainer import TRACE_HEADER, write_trace

        norms = []

        def recording_clip(params, max_norm):
            norms.append(clip_gradients(params, max_norm))
            return norms[-1]

        monkeypatch.setattr(trainer_mod, "clip_gradients", recording_clip)
        ids, vocab = corpus
        _, rows = train(small_model_cfg(len(vocab), RoutingStrategy("beam")), small_train_cfg(), ids)
        assert len(norms) == len(rows)
        assert [r.grad_norm for r in rows] == norms
        assert all(np.isfinite(r.grad_norm) and r.grad_norm > 0 for r in rows)
        path = tmp_path / "trace.csv"
        write_trace(rows, path)
        header, first = path.read_text().splitlines()[:2]
        assert header == TRACE_HEADER and header.endswith(",learning_rate,grad_norm")
        assert float(first.split(",")[-1]) == rows[0].grad_norm

    def test_trace_file_bytes_match_hand_listed_columns(self, corpus, tmp_path):
        ids, vocab = corpus
        tc = small_train_cfg(steps=4, beta=0.1)
        _, rows = train(small_model_cfg(len(vocab), RoutingStrategy("beam")), tc, ids)
        write_trace(rows, tmp_path / "new.csv")
        reference_write_trace(rows, tmp_path / "ref.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        assert new.count(b"\n") == 5

    def test_beam_step0_matches_vanilla_exactly(self, corpus):
        ids, vocab = corpus
        tc = small_train_cfg(steps=1)
        _, rows_beam = train(small_model_cfg(len(vocab), RoutingStrategy("beam")), tc, ids)
        _, rows_vanilla = train(small_model_cfg(len(vocab)), tc, ids)
        assert rows_beam[0].lm_loss == rows_vanilla[0].lm_loss

    def test_active_rate_one_at_step0_and_bounded(self, corpus):
        ids, vocab = corpus
        cfg = small_model_cfg(len(vocab), RoutingStrategy("beam"))
        _, rows = train(cfg, small_train_cfg(steps=6, beta=0.3), ids)
        assert rows[0].expert_active_rate == 1.0
        assert all(0.0 <= r.expert_active_rate <= 1.0 for r in rows)

    def test_corpus_too_small(self):
        cfg = small_model_cfg(4)
        with pytest.raises(ContractError):
            train(cfg, small_train_cfg(), np.zeros(8, dtype=np.int64))

    def test_divergence_rolls_back(self, corpus):
        ids, vocab = corpus
        cfg = small_model_cfg(len(vocab))
        # an absurd learning rate overflows the squared activations in a few
        # steps (rms normalization absorbs anything smaller)
        tc = small_train_cfg(steps=60, learning_rate=1e200, grad_clip_norm=0.0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
            train(cfg, tc, ids)
        assert info.value.rows  # some finite steps were recorded

    def test_divergence_names_its_loss_term(self, corpus):
        ids, vocab = corpus
        cfg = small_model_cfg(len(vocab))
        tc = small_train_cfg(steps=10, learning_rate=1e300, grad_clip_norm=0.0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
            train(cfg, tc, ids)
        step = info.value.step
        assert str(info.value) == f"non-finite loss at step {step}: lm loss is not finite"
        assert isinstance(info.value.__cause__, NumericError)
        assert len(info.value.rows) == step


class TestWindowSlicing:
    @pytest.mark.parametrize("context,batch_size", [(16, 2), (5, 7), (1, 3)])
    def test_sample_batch_equals_stacked_slices(self, corpus, context, batch_size):
        ids, _ = corpus
        got = trainer.sample_batch(ids, context, batch_size, np.random.default_rng(4))
        want = reference_sample_batch(ids, context, batch_size, np.random.default_rng(4))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("max_windows,batch_size", [(None, 8), (7, 3), (1, 8)])
    def test_evaluate_windows_equal_stacked_slices(self, corpus, monkeypatch, max_windows, batch_size):
        ids, vocab = corpus
        model = TinyMoELM(small_model_cfg(len(vocab)))
        inputs, targets = [], []
        forward = model.forward
        monkeypatch.setattr(model, "forward", lambda xs, **kw: inputs.append(xs) or forward(xs, **kw))
        cross_entropy = trainer.cross_entropy
        monkeypatch.setattr(
            trainer, "cross_entropy", lambda logits, ys: targets.append(ys) or cross_entropy(logits, ys)
        )
        evaluate(model, ids, max_windows=max_windows, batch_size=batch_size)
        t = model.cfg.context_length
        n_windows = (len(ids) - 1) // t if max_windows is None else max_windows
        starts = range(0, n_windows, batch_size)
        assert len(inputs) == len(targets) == len(starts)
        for xs, ys, start in zip(inputs, targets, starts):
            want_x, want_y = reference_eval_windows(ids, t, start, min(batch_size, n_windows - start))
            assert xs.dtype == want_x.dtype and np.array_equal(xs, want_x)
            assert np.array_equal(ys, want_y.reshape(-1))

    @pytest.mark.parametrize(
        "kw,message",
        [
            (dict(batch_size=0), "batch_size must be >= 1, got 0"),
            (dict(batch_size=-1), "batch_size must be >= 1, got -1"),
            (dict(batch_size=2.0), "batch_size must be an integer, got 2.0"),
            (dict(max_windows=2.5), "max_windows must be an integer, got 2.5"),
            (dict(max_windows=0), "max_windows must be >= 1, got 0"),
            (dict(batch_size=True), "batch_size must be an integer, got True"),
            (dict(max_windows=True), "max_windows must be an integer, got True"),
        ],
    )
    def test_evaluate_bad_window_count_rejected(self, corpus, kw, message):
        ids, vocab = corpus
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            evaluate(TinyMoELM(small_model_cfg(len(vocab))), ids, **kw)

    def test_evaluate_numpy_integer_window_counts_accepted(self, corpus):
        ids, vocab = corpus
        model = TinyMoELM(small_model_cfg(len(vocab)))
        want = evaluate(model, ids, max_windows=5, batch_size=2)
        got = evaluate(model, ids, max_windows=np.int64(5), batch_size=np.int32(2))
        assert got == want

    def test_train_trace_bytes_equal_stacked_batches(self, corpus, monkeypatch, tmp_path):
        ids, vocab = corpus
        model_cfg = small_model_cfg(len(vocab), RoutingStrategy("beam"))
        tc = small_train_cfg(steps=4, beta=0.1)
        _, rows = train(model_cfg, tc, ids)
        write_trace(rows, tmp_path / "new.csv")
        monkeypatch.setattr(trainer, "sample_batch", reference_sample_batch)
        _, rows = train(model_cfg, tc, ids)
        write_trace(rows, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestCheckpoint:
    def test_parameter_names_in_checkpoint_order(self, tmp_path):
        # the names are derived from the layer dict and Expert's fields; a
        # reordering would reorder checkpoint blobs
        cfg = replace(
            small_model_cfg(12, RoutingStrategy("beam")), n_layers=2, num_experts=2, top_k=1, num_shared=1
        )
        model = TinyMoELM(cfg)
        layer = [
            "attn_norm", "wq", "wk", "wv", "wo",
            "block.router_w",
            "block.experts.0.w_gate", "block.experts.0.w_up", "block.experts.0.w_down",
            "block.experts.1.w_gate", "block.experts.1.w_up", "block.experts.1.w_down",
            "block.shared.0.w_gate", "block.shared.0.w_up", "block.shared.0.w_down",
            "block.norm_w",
            "block.mask_w",
        ]
        want = (
            ["wte", "wpe"]
            + [f"layers.0.{n}" for n in layer]
            + [f"layers.1.{n}" for n in layer]
            + ["final_norm", "lm_head"]
        )
        assert [name for name, _ in model.named_parameters()] == want
        assert list(model.snapshot()) == want
        lookup = dict(model.named_parameters())
        block = model.layers[1]["block"]
        assert lookup["layers.1.wk"] is model.layers[1]["wk"]
        assert lookup["layers.1.block.mask_w"] is block.mask_router.weight
        for n in ("w_gate", "w_up", "w_down"):
            assert lookup[f"layers.1.block.experts.1.{n}"] is getattr(block.experts[1], n)
            assert lookup[f"layers.1.block.shared.0.{n}"] is getattr(block.shared[0], n)
        save_checkpoint(model, tmp_path / "m.ckpt")
        blob = (tmp_path / "m.ckpt").read_bytes()
        offsets = [blob.index(struct.pack("<I", len(n)) + n.encode()) for n in want]
        assert offsets == sorted(offsets)

    def test_round_trip_bit_identical(self, corpus, tmp_path):
        ids, vocab = corpus
        cfg = small_model_cfg(len(vocab), RoutingStrategy("beam"))
        model, _ = train(cfg, small_train_cfg(steps=2, beta=0.1), ids)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), loaded.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)
        assert loaded.cfg.strategy.kind == "beam"

    def test_vocabulary_round_trip(self, corpus, tmp_path):
        ids, vocab = corpus
        model, _ = train(small_model_cfg(len(vocab)), small_train_cfg(steps=1), ids)
        model.vocab = vocab
        save_checkpoint(model, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.vocab == vocab
        save_checkpoint(loaded, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "m.ckpt").read_bytes()

    def test_vocabulary_of_wrong_size_rejected(self, corpus, tmp_path):
        ids, vocab = corpus
        model, _ = train(small_model_cfg(len(vocab)), small_train_cfg(steps=0), ids)
        model.vocab = vocab[:-1]
        with pytest.raises(ContractError, match="vocab"):
            save_checkpoint(model, tmp_path / "m.ckpt")

    def test_version_1_file_loads_bit_identically(self, corpus, tmp_path):
        ids, vocab = corpus
        model, _ = train(small_model_cfg(len(vocab), RoutingStrategy("beam")), small_train_cfg(steps=2, beta=0.1), ids)
        save_checkpoint_v1(model, tmp_path / "v1.ckpt")
        loaded = load_checkpoint(tmp_path / "v1.ckpt")
        assert loaded.vocab is None
        assert loaded.cfg.to_dict() == model.cfg.to_dict()
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), loaded.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_truncated_file_rejected(self, corpus, tmp_path):
        ids, vocab = corpus
        model, _ = train(small_model_cfg(len(vocab)), small_train_cfg(steps=1), ids)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        (tmp_path / "trunc.ckpt").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "trunc.ckpt")

    def test_corrupt_byte_rejected(self, corpus, tmp_path):
        ids, vocab = corpus
        model, _ = train(small_model_cfg(len(vocab)), small_train_cfg(steps=1), ids)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        (tmp_path / "bad.ckpt").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_attach_mask_router_to_vanilla_checkpoint(self, corpus, tmp_path):
        ids, vocab = corpus
        model, _ = train(small_model_cfg(len(vocab)), small_train_cfg(steps=2), ids)
        path = tmp_path / "v.ckpt"
        save_checkpoint(model, path)
        attached = load_checkpoint(path, strategy=RoutingStrategy("beam"))
        assert attached.cfg.strategy.kind == "beam"
        for layer in attached.layers:
            assert np.array_equal(
                layer["block"].mask_router.weight.data,
                np.zeros_like(layer["block"].mask_router.weight.data),
            )
        # zero-init mask: logits identical to the vanilla model
        x = ids[:17]
        base_logits, _ = model.forward(x[None, :16], training=False)
        att_logits, _ = attached.forward(x[None, :16], training=False)
        assert np.max(np.abs(base_logits.data - att_logits.data)) < 1e-12


class TestAdamAndEval:
    def test_adam_moves_params(self):
        p = Tensor(np.ones(3), requires_grad=True)
        p.grad = np.ones(3)
        opt = Adam([p])
        opt.step(0.1)
        assert np.all(p.data < 1.0)

    def test_eval_perplexity_improves_with_training(self, corpus):
        ids, vocab = corpus
        cfg = small_model_cfg(len(vocab))
        init_model, _ = train(cfg, small_train_cfg(steps=0), ids)
        trained, _ = train(cfg, small_train_cfg(steps=40, learning_rate=3e-3), ids)
        ppl_init = evaluate(init_model, ids, max_windows=8).perplexity
        ppl_trained = evaluate(trained, ids, max_windows=8).perplexity
        assert ppl_trained < ppl_init

    @staticmethod
    def _train_infer_gap(corpus, strategy):
        ids, vocab = corpus
        cfg = small_model_cfg(len(vocab), strategy)
        model, _ = train(cfg, small_train_cfg(steps=8, beta=0.3), ids)
        x = ids[None, :16]
        logits_train, _ = model.forward(x, training=True)
        logits_infer, _ = model.forward(x, training=False)
        return np.max(np.abs(logits_train.data - logits_infer.data))

    def test_training_and_dispatch_logits_agree(self, corpus):
        assert self._train_infer_gap(corpus, RoutingStrategy("beam")) < 1e-9

    @pytest.mark.parametrize(
        "strategy",
        [
            RoutingStrategy("vanilla_topk"),
            RoutingStrategy("topk_reduced", {"k_small": 1}),
            RoutingStrategy("topk_pruning", {"k_infer": 2}),
            # every expert is a candidate, so inference runs the whole top-p
            # set, also when it holds more than K experts (phi > K/N)
            RoutingStrategy("moe_dynamic", {"phi": 0.5}),
            *(
                pytest.param(RoutingStrategy("moe_dynamic", {"phi": phi}), id=f"moe_dynamic-{phi}")
                for phi in (0.6, 0.75, 0.9)
            ),
            RoutingStrategy("ada_moe", {"null_count": 2}),
            RoutingStrategy("soft_mask"),
        ],
        ids=lambda s: s.kind,
    )
    def test_other_strategies_training_and_dispatch_logits_agree(self, corpus, strategy):
        assert self._train_infer_gap(corpus, strategy) < 1e-9

    def test_dynamic_trace_records_every_executed_expert(self, corpus):
        from beamoe.analysis import SparsityTrace, avg_k

        ids, vocab = corpus
        cfg = small_model_cfg(len(vocab), RoutingStrategy("moe_dynamic", {"phi": 0.9}))
        model, _ = train(cfg, small_train_cfg(steps=8), ids)
        trace = SparsityTrace()
        result = evaluate(model, ids, max_windows=8, trace=trace)
        assert result.avg_k > cfg.top_k  # the top-p set outgrows the top-K
        assert avg_k(trace)["overall"] == result.avg_k

    @pytest.mark.parametrize(
        "strategy",
        [
            # inference keeps fewer experts than training ran
            RoutingStrategy("topk_pruning", {"k_infer": 1}),
            # inference binarizes the mask at the floor temperature
            RoutingStrategy("soft_mask_tempered"),
        ],
        ids=lambda s: s.kind,
    )
    def test_training_and_dispatch_logits_differ_by_design(self, corpus, strategy):
        # far above the 1e-9 of the strategies that agree
        assert self._train_infer_gap(corpus, strategy) > 1e-5

    def test_greedy_sampling_tags_phases(self, corpus):
        from beamoe.analysis import SparsityTrace

        ids, vocab = corpus
        cfg = small_model_cfg(len(vocab), RoutingStrategy("beam"))
        model, _ = train(cfg, small_train_cfg(steps=2, beta=0.1), ids)
        trace = SparsityTrace()
        out = sample_greedy(model, ids[:10], max_new_tokens=3, trace=trace)
        assert len(out) == 3
        phases = set(trace.phase)
        assert phases == {"prefill", "decode"}
        arr = trace.arrays()
        decode_cells = (arr["phase"] == "decode").sum()
        assert decode_cells == 3 * cfg.n_layers * cfg.top_k

    def test_max_new_tokens_zero_prefill_only(self, corpus):
        from beamoe.analysis import SparsityTrace

        ids, vocab = corpus
        cfg = small_model_cfg(len(vocab), RoutingStrategy("beam"))
        model, _ = train(cfg, small_train_cfg(steps=1), ids)
        trace = SparsityTrace()
        out = sample_greedy(model, ids[:10], max_new_tokens=0, trace=trace)
        assert len(out) == 0
        assert set(trace.phase) == {"prefill"}


ALL_STRATEGIES = [
    RoutingStrategy("vanilla_topk"),
    RoutingStrategy("topk_reduced", {"k_small": 1}),
    RoutingStrategy("topk_pruning", {"k_infer": 1}),
    RoutingStrategy("moe_dynamic", {"phi": 0.5}),
    RoutingStrategy("ada_moe", {"null_count": 2}),
    RoutingStrategy("beam"),
    RoutingStrategy("soft_mask"),
    RoutingStrategy("soft_mask_tempered"),
]

ROUTE_FIELDS = ("candidate_ids", "active_bits", "active_counts", "kept_ids")


def drawn_model(strategy, n_layers=2, vocab=12, seed=0):
    """A small model whose mask-router weights are drawn, so masks close slots."""
    model = TinyMoELM(replace(small_model_cfg(vocab, strategy, seed=seed), n_layers=n_layers))
    rng = np.random.default_rng([seed, 1])
    for layer in model.layers:
        mask_router = layer["block"].mask_router
        if mask_router is not None:
            mask_router.weight.data[...] = rng.normal(0.0, 0.8, mask_router.weight.shape)
    return model


class TestLastPositionForward:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.kind)
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("t", [1, 7, 16])
    def test_matches_last_row_of_full_forward(self, strategy, n_layers, t):
        model = drawn_model(strategy, n_layers)
        ids = np.random.default_rng(t).integers(0, 12, (2, t))
        full, full_routes = model.forward(ids, training=False)
        last, last_routes = model.forward(ids, training=False, last_position_only=True)
        assert last.shape == (2, 1, 12)
        # not bit-equal: a one-row matmul may sum in another order than the
        # same row of a many-row matmul
        want = full.data[:, -1:]
        assert np.max(np.abs(last.data - want)) <= 1e-12 * np.max(np.abs(want))
        assert len(last_routes) == len(full_routes) == n_layers
        for got, ref in zip(last_routes[:-1], full_routes[:-1]):
            for name in ROUTE_FIELDS:
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name
            assert np.array_equal(got.weights_hat.data, ref.weights_hat.data)
        got, ref = last_routes[-1], full_routes[-1]
        for name in ROUTE_FIELDS:
            ref_rows = getattr(ref, name).reshape((2, t) + getattr(ref, name).shape[1:])[:, -1]
            assert np.array_equal(getattr(got, name), ref_rows), name

    def test_rejected_in_training(self):
        model = drawn_model(RoutingStrategy("beam"))
        with pytest.raises(ContractError, match="last_position_only"):
            model.forward(np.zeros((1, 4), dtype=np.int64), training=True, last_position_only=True)


class TestAttentionTape:
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_forward_node_count(self, n_layers):
        # the per-op attention chain recorded 13 more per layer (37 and 69),
        # the sentinel route (mask_fill before the softmax) 1 more (24 and 43),
        # and the block as grouped_glu plus a residual add 1 more (23 and 41)
        model = drawn_model(RoutingStrategy("beam"), n_layers)
        ids = np.random.default_rng(2).integers(0, 12, (2, 8))
        with Tape() as tape:
            model.forward(ids, training=True)
        assert len(tape.nodes) == {1: 22, 2: 39}[n_layers]


def _slot_matrix(ids, num_experts):
    """(T, N) bool matrix of the (token, expert) pairs an id array names; -1 is none."""
    rows = np.repeat(np.arange(ids.shape[0]), ids.shape[1])
    flat = ids.reshape(-1)
    out = np.zeros((ids.shape[0], num_experts), dtype=bool)
    out[rows[flat >= 0], flat[flat >= 0]] = True
    return out


SLOT_SET_CASES = [(s, False) for s in ALL_STRATEGIES] + [
    (RoutingStrategy("moe_dynamic", {"phi": 0.9}), False),
    (RoutingStrategy("beam", {"tau": 0.7}), False),
    (RoutingStrategy("soft_mask"), True),
]
SLOT_SET_IDS = [f"{s.kind}-{s.params}-binarize_soft={b}" for s, b in SLOT_SET_CASES]


class TestSlotSet:
    """The executed (token, expert) pairs agree with the nonzero weights."""

    @pytest.mark.parametrize("strategy, binarize_soft", SLOT_SET_CASES, ids=SLOT_SET_IDS)
    def test_inference_kept_slots_are_the_nonzero_weights(self, strategy, binarize_soft):
        model = drawn_model(strategy, seed=2)
        ids = np.random.default_rng(9).integers(0, 12, (3, 16))
        _, routes = model.forward(ids, training=False, binarize_soft=binarize_soft)
        n = model.cfg.num_experts
        for rr in routes:
            kept = _slot_matrix(rr.kept_ids, n)
            assert np.array_equal(kept, rr.weights_hat.data != 0.0)
            assert np.array_equal(kept.sum(axis=-1), rr.active_counts)

    @pytest.mark.parametrize("strategy, binarize_soft", SLOT_SET_CASES, ids=SLOT_SET_IDS)
    def test_training_executes_every_nonzero_weight(self, strategy, binarize_soft, monkeypatch):
        from beamoe import baselines

        executed = []
        real_forward = baselines.moe_block_forward

        def spy(h, weights_hat, experts, *args, compute_ids, **kw):
            executed.append((weights_hat.data != 0.0, _slot_matrix(compute_ids, len(experts))))
            return real_forward(h, weights_hat, experts, *args, compute_ids=compute_ids, **kw)

        monkeypatch.setattr(baselines, "moe_block_forward", spy)
        model = drawn_model(strategy, seed=2)
        ids = np.random.default_rng(9).integers(0, 12, (3, 16))
        _, routes = model.forward(ids, training=True, binarize_soft=binarize_soft)
        assert len(executed) == len(routes)
        for rr, (nonzero, run) in zip(routes, executed):
            assert not np.any(nonzero & ~run)
            if strategy.needs_mask_router:
                # the straight-through estimator needs closed slots' outputs too
                assert np.array_equal(run, _slot_matrix(rr.candidate_ids, model.cfg.num_experts))
            else:
                assert np.array_equal(run, _slot_matrix(rr.kept_ids, model.cfg.num_experts))


class TestGreedyDecode:
    @pytest.mark.parametrize(
        "strategy",
        [RoutingStrategy("beam"), RoutingStrategy("moe_dynamic", {"phi": 0.9})],
        ids=lambda s: s.kind,
    )
    @pytest.mark.parametrize(
        "prompt_len, new_tokens",
        [(5, 30), (16, 20), (9, 0)],
        ids=["growing-window", "full-window", "no-new-tokens"],
    )
    def test_tokens_and_trace_equal_full_window_decode(self, strategy, prompt_len, new_tokens, tmp_path):
        from beamoe.analysis import SparsityTrace

        model = drawn_model(strategy, seed=3)
        prompt = np.random.default_rng(prompt_len).integers(0, 12, prompt_len)
        trace, ref_trace = SparsityTrace(), SparsityTrace()
        out = sample_greedy(model, prompt, new_tokens, trace=trace, sequence_id=4)
        ref = reference_sample_greedy(model, prompt, new_tokens, trace=ref_trace, sequence_id=4)
        assert out.tolist() == ref.tolist() and len(out) == new_tokens
        trace.to_csv(tmp_path / "new.csv")
        ref_trace.to_csv(tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (trace.arrays()["phase"] == "decode").sum() == new_tokens * 2 * trace.k

    def test_one_forward_per_token(self, monkeypatch):
        model = drawn_model(RoutingStrategy("beam"))
        calls = []
        forward = model.forward

        def counting(*args, **kwargs):
            calls.append(kwargs.get("last_position_only", False))
            return forward(*args, **kwargs)

        monkeypatch.setattr(model, "forward", counting)
        sample_greedy(model, np.arange(5) % 12, 6)
        assert calls == [False] + [True] * 6

    def test_empty_prompt_rejected(self):
        model = drawn_model(RoutingStrategy("beam"))
        with pytest.raises(ContractError, match="prompt"):
            sample_greedy(model, np.zeros(0, dtype=np.int64), 3)

    def test_negative_max_new_tokens_rejected(self):
        model = drawn_model(RoutingStrategy("beam"))
        with pytest.raises(ContractError, match="^max_new_tokens must be >= 0$"):
            sample_greedy(model, np.arange(4), -2)

    @pytest.mark.parametrize("count", [True, 2.0, "3", None])
    def test_non_integer_max_new_tokens_rejected(self, count):
        model = drawn_model(RoutingStrategy("beam"))
        message = f"max_new_tokens must be an integer, got {count!r}"
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            sample_greedy(model, np.arange(4), count)

    def test_numpy_integer_max_new_tokens_accepted(self):
        model = drawn_model(RoutingStrategy("beam"))
        want = sample_greedy(model, np.arange(4), 3)
        assert np.array_equal(sample_greedy(model, np.arange(4), np.int64(3)), want)


class TestBetaZeroParity:
    @pytest.mark.slow
    def test_beta_zero_tracks_vanilla_closely(self, corpus):
        """With beta=0 the mask stays open at first; lm curves should agree
        within optimizer noise (final loss within 5% relative)."""
        ids, vocab = corpus
        tc = small_train_cfg(steps=120, learning_rate=3e-3, beta=0.0)
        _, rows_beam = train(small_model_cfg(len(vocab), RoutingStrategy("beam")), tc, ids)
        _, rows_vanilla = train(small_model_cfg(len(vocab)), tc, ids)
        a, b = rows_beam[-1].lm_loss, rows_vanilla[-1].lm_loss
        assert abs(a - b) / b < 0.05
