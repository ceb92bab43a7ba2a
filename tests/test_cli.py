import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from beamoe.analysis import SparsityTrace, parse_report
from beamoe.cli import ConfigError, load_config, main, resolve_config


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "version": 1,
        "model": {
            "d_h": 16,
            "n_layers": 1,
            "n_heads": 2,
            "context_length": 16,
            "d_ff": 12,
            "num_experts": 4,
            "top_k": 2,
        },
        "train": {"steps": 3, "batch_size": 2, "learning_rate": 1e-3},
        "strategy": {"kind": "beam", "params": {}},
        "corpus": {"kind": "synthetic", "length": 2000, "seed": 3},
        "output_dir": str(tmp_path / "out"),
        "trace_sampling": 1.0,
    }
    for key, value in overrides.items():
        if value is None:
            cfg.pop(key, None)
        elif key in ("model", "train") and isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestConfigValidation:
    def test_missing_required_field(self, tmp_path):
        path, _ = write_config(tmp_path, strategy=None)
        assert main(["train", str(path)]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        path, raw = write_config(tmp_path)
        data = json.loads(path.read_text())
        data["train"]["bta"] = 0.1  # typo for beta
        path.write_text(json.dumps(data))
        assert main(["train", str(path)]) == 2

    def test_error_names_the_field(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, corpus=None)
        assert main(["train", str(path)]) == 2
        assert "corpus" in capsys.readouterr().err

    def test_version_checked(self, tmp_path):
        path, _ = write_config(tmp_path, version=99)
        assert main(["train", str(path)]) == 2

    def test_bad_strategy_kind(self, tmp_path):
        path, _ = write_config(tmp_path, strategy={"kind": "nope", "params": {}})
        assert main(["train", str(path)]) == 2

    def test_resolve_materializes_defaults(self, tmp_path):
        path, _ = write_config(tmp_path)
        resolved = load_config(path)
        assert resolved["train"]["alpha"] == 1e-3
        assert resolved["model"]["num_shared"] == 0

    def test_resolved_config_roundtrips(self, tmp_path):
        path, _ = write_config(tmp_path)
        resolved = resolve_config(json.loads(path.read_text()))
        again = resolve_config(json.loads(json.dumps(resolved)))
        assert again == resolved


class TestTrainCommand:
    def test_full_run_emits_three_files(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["train", str(path)]) == 0
        out = Path(cfg["output_dir"])
        assert (out / "checkpoint.bin").exists()
        assert (out / "training_trace.csv").exists()
        assert (out / "resolved_config.json").exists()

    def test_zero_steps_checkpoint_equals_init(self, tmp_path):
        from beamoe.baselines import RoutingStrategy
        from beamoe.trainer import TinyMoELM, load_checkpoint

        path, cfg = write_config(tmp_path, train={"steps": 0})
        assert main(["train", str(path)]) == 0
        loaded = load_checkpoint(Path(cfg["output_dir"]) / "checkpoint.bin")
        fresh = TinyMoELM(loaded.cfg)
        for (_, a), (_, b) in zip(loaded.named_parameters(), fresh.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_resolved_config_reproduces_run(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["train", str(path)]) == 0
        out = Path(cfg["output_dir"])
        trace_first = (out / "training_trace.csv").read_bytes()
        resolved = out / "resolved_config.json"
        rerun = json.loads(resolved.read_text())
        rerun["output_dir"] = str(tmp_path / "out2")
        p2 = tmp_path / "resolved.json"
        p2.write_text(json.dumps(rerun))
        assert main(["train", str(p2)]) == 0
        trace_second = (Path(rerun["output_dir"]) / "training_trace.csv").read_bytes()
        assert trace_first == trace_second

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BEAMOE_OUTPUT_ROOT", str(tmp_path / "root"))
        path, _ = write_config(tmp_path, output_dir="rel_out")
        assert main(["train", str(path)]) == 0
        assert (tmp_path / "root" / "rel_out" / "checkpoint.bin").exists()


class TestEvalCommand:
    @pytest.fixture()
    def trained(self, tmp_path):
        path, cfg = write_config(tmp_path, train={"steps": 4, "beta": 0.2})
        assert main(["train", str(path)]) == 0
        out = Path(cfg["output_dir"])
        return path, out

    def test_eval_reports_and_traces(self, trained, capsys, tmp_path):
        cfg_path, out = trained
        trace_out = tmp_path / "trace.csv"
        code = main(
            [
                "eval",
                "--checkpoint",
                str(out / "checkpoint.bin"),
                "--config",
                str(cfg_path),
                "--greedy",
                "--max-new-tokens",
                "4",
                "--trace-out",
                str(trace_out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "perplexity:" in captured
        assert "generated:" in captured
        trace = SparsityTrace.from_csv(trace_out)
        assert set(trace.phase) == {"prefill", "decode"}

    def test_max_new_tokens_zero_prefill_only(self, trained, tmp_path):
        cfg_path, out = trained
        trace_out = tmp_path / "t2.csv"
        code = main(
            [
                "eval",
                "--checkpoint", str(out / "checkpoint.bin"),
                "--config", str(cfg_path),
                "--greedy", "--max-new-tokens", "0",
                "--trace-out", str(trace_out),
            ]
        )
        assert code == 0
        trace = SparsityTrace.from_csv(trace_out)
        assert set(trace.phase) == {"prefill"}

    def test_closed_stdout_keeps_trace(self, trained, tmp_path, monkeypatch, capsys):
        # stdout of ``beamoe eval ... | head -2`` once head has exited
        cfg_path, out = trained
        trace_out = tmp_path / "t3.csv"
        with open(tmp_path / "stdout", "w") as sink:

            class ClosedPipe:
                def write(self, text):
                    raise BrokenPipeError(32, "Broken pipe")

                def flush(self):
                    raise BrokenPipeError(32, "Broken pipe")

                def fileno(self):
                    return sink.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = main(
                [
                    "eval",
                    "--checkpoint", str(out / "checkpoint.bin"),
                    "--config", str(cfg_path),
                    "--greedy", "--max-new-tokens", "2",
                    "--trace-out", str(trace_out),
                ]
            )
            monkeypatch.undo()
        assert code == 1
        assert set(SparsityTrace.from_csv(trace_out).phase) == {"prefill", "decode"}
        assert "error:" not in capsys.readouterr().err

    def test_vocab_mismatch_fails(self, trained, tmp_path):
        cfg_path, out = trained
        tiny = tmp_path / "tiny.txt"
        tiny.write_text("abab" * 50)
        other_cfg, _ = write_config(
            tmp_path, name="other.json", corpus={"kind": "file", "path": str(tiny)}
        )
        code = main(
            [
                "eval",
                "--checkpoint", str(out / "checkpoint.bin"),
                "--config", str(other_cfg),
            ]
        )
        assert code == 1

    def test_same_size_other_vocabulary_fails(self, trained, tmp_path, capsys):
        from beamoe.trainer import ingest_text, synthetic_text

        cfg_path, out = trained
        text = synthetic_text(2000, 3)  # the trained corpus
        _, vocab = ingest_text(text)
        assert "~" > vocab[-1]  # the swapped character stays last
        other = tmp_path / "other.txt"
        other.write_text(text.replace(vocab[-1], "~"))
        other_cfg, _ = write_config(
            tmp_path, name="other.json", corpus={"kind": "file", "path": str(other)}
        )
        code = main(
            ["eval", "--checkpoint", str(out / "checkpoint.bin"), "--config", str(other_cfg)]
        )
        assert code == 1
        assert f"index {len(vocab) - 1}" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_analyze_matches_module(self, tmp_path):
        from beamoe.analysis import avg_k

        trace = SparsityTrace()
        rng = np.random.default_rng(0)
        for c in range(12):
            trace.record_cell(0, c, c % 2, [0, 1, 2], (rng.random(3) > 0.4).astype(int), "prefill", 7)
        tpath = tmp_path / "t.csv"
        trace.to_csv(tpath)
        out = tmp_path / "report.csv"
        assert main(["analyze", str(tpath), "--group-by", "layer", "--out", str(out)]) == 0
        parsed = parse_report(out)
        expected = avg_k(trace, "layer")
        for layer, val in expected.items():
            assert parsed["avg_k"][str(layer)] == pytest.approx(val)

    def test_unknown_group_key_exits_2(self, tmp_path, capsys):
        trace = SparsityTrace()
        trace.record_cell(0, 0, 0, [0], [1], "prefill", 0)
        tpath = tmp_path / "t.csv"
        trace.to_csv(tpath)
        with pytest.raises(SystemExit) as e:
            main(["analyze", str(tpath), "--group-by", "banana"])
        assert e.value.code == 2
        assert "token_layer" in capsys.readouterr().err  # lists valid keys

    def test_format_parity(self, tmp_path):
        trace = SparsityTrace()
        rng = np.random.default_rng(1)
        for c in range(6):
            trace.record_cell(0, c, 0, [0, 1], (rng.random(2) > 0.3).astype(int), "decode", 1)
        tpath = tmp_path / "t.csv"
        trace.to_csv(tpath)
        main(["analyze", str(tpath), "--format", "csv", "--out", str(tmp_path / "r.csv")])
        main(["analyze", str(tpath), "--format", "json", "--out", str(tmp_path / "r.json")])
        from_csv = parse_report(tmp_path / "r.csv")
        from_json = json.loads((tmp_path / "r.json").read_text())
        assert from_csv == from_json

    def test_malformed_trace_row_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "sequence_id,position,layer,rank,expert_id,mask_bit,phase,token_id\n"
            "0,0,0,1,1,1,prefill\n"
        )
        assert main(["analyze", str(bad)]) == 2
        assert "row 2" in capsys.readouterr().err


class TestBenchCommand:
    def test_full_fraction_slot_count(self, tmp_path, capsys):
        code = main(
            [
                "bench-dispatch",
                "--active-fractions", "1.0",
                "--tokens", "32", "--experts", "4", "--top-k", "2",
                "--d-h", "8", "--d-ff", "8", "--reps", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "active_fraction,slots_executed,wall_time_ns_min,wall_time_ns_mean"
        assert lines[1].split(",")[1] == "64"

    def test_rep_count_does_not_change_slots(self, tmp_path):
        args = [
            "bench-dispatch", "--active-fractions", "0.5,1.0",
            "--tokens", "32", "--experts", "4", "--top-k", "2",
            "--d-h", "8", "--d-ff", "8", "--out",
        ]
        main(args + [str(tmp_path / "a.csv"), "--reps", "1"])
        main(args + [str(tmp_path / "b.csv"), "--reps", "5"])
        slots_a = [l.split(",")[1] for l in (tmp_path / "a.csv").read_text().splitlines()[1:]]
        slots_b = [l.split(",")[1] for l in (tmp_path / "b.csv").read_text().splitlines()[1:]]
        assert slots_a == slots_b

    def test_invalid_fraction_exits_2(self):
        assert main(["bench-dispatch", "--active-fractions", "1.5"]) == 2


class TestCompareCommand:
    @pytest.mark.slow
    def test_compare_two_strategies(self, tmp_path):
        cfg_a, _ = write_config(tmp_path, name="vanilla.json", strategy={"kind": "vanilla_topk", "params": {}},
                                output_dir=str(tmp_path / "ignored_a"))
        cfg_b, _ = write_config(tmp_path, name="beam.json", strategy={"kind": "beam", "params": {}},
                                train={"steps": 3, "batch_size": 2, "learning_rate": 1e-3, "beta": 0.1},
                                output_dir=str(tmp_path / "ignored_b"))
        out = tmp_path / "cmp"
        code = main(
            ["compare", str(cfg_a), str(cfg_b), "--seeds", "0,1", "--out", str(out),
             "--eval-windows", "4"]
        )
        assert code == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "config,seed,final_lm_loss,perplexity,avg_k,final_active_rate"
        assert len(summary) == 1 + 4  # 2 configs x 2 seeds
        curves = (out / "active_rates.csv").read_text().splitlines()
        assert curves[0] == "config,seed,step,active_rate"
        assert len(curves) == 1 + 4 * 3  # runs x steps

    def test_mismatched_shapes_exit_2(self, tmp_path):
        cfg_a, _ = write_config(tmp_path, name="a.json")
        cfg_b, _ = write_config(tmp_path, name="b.json", model={"d_h": 32})
        assert main(["compare", str(cfg_a), str(cfg_b), "--out", str(tmp_path / "c")]) == 2
