import json
import re

import numpy as np
import pytest

from beamoe import analysis, trainer
from beamoe.analysis import (
    GROUP_KEYS,
    TRACE_HEADER,
    FlopsModel,
    SparsityTrace,
    _cell_index,
    avg_k,
    emit_report,
    expert_load,
    flops_reduction,
    parse_report,
    position_mask_prob,
    rank_extremes,
)
from beamoe.baselines import RoutingStrategy
from beamoe.tensor import ContractError

from reference_ops import (
    ListSparsityTrace,
    lexsort_cell_index,
    record_routes_per_cell,
    reference_avg_k,
    reference_emit_report,
    reference_from_csv,
    reference_group_label,
    reference_to_csv,
    unique_cell_index,
)


def synthetic_trace(rng, n_cells=60, k=4, n_experts=8, n_layers=3, mask_prob=0.35):
    trace = SparsityTrace()
    # cell keys must be unique: exactly k rank rows per (seq, pos, layer)
    positions_per_seq = 10
    for c in range(n_cells):
        flat = c // n_layers
        seq, pos = divmod(flat, positions_per_seq)
        layer = c % n_layers
        ids = rng.choice(n_experts, size=k, replace=False)
        bits = (rng.random(k) >= mask_prob).astype(int)
        phase = "prefill" if rng.random() < 0.7 else "decode"
        trace.record_cell(seq, pos, layer, ids, bits, phase, int(rng.integers(0, 30)))
    return trace


def brute_force_cells(trace):
    """Independent per-cell recount straight off the row lists."""
    cells = {}
    for i in range(len(trace)):
        key = (trace.sequence_id[i], trace.position[i], trace.layer[i])
        meta = cells.setdefault(key, {"bits": 0, "phase": trace.phase[i], "token": trace.token_id[i]})
        meta["bits"] += trace.mask_bit[i]
    return cells


class TestAvgK:
    def test_all_ones(self):
        trace = SparsityTrace()
        for c in range(10):
            trace.record_cell(0, c, 0, [0, 1, 2, 3], [1, 1, 1, 1], "prefill", 5)
        for group in ("overall", "layer", "token_position", "phase", "token_id"):
            for v in avg_k(trace, group).values():
                assert v == 4.0

    def test_all_zeros(self):
        trace = SparsityTrace()
        for c in range(10):
            trace.record_cell(0, c, 0, [0, 1], [0, 0], "prefill", 5)
        assert avg_k(trace)["overall"] == 0.0

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            trace = synthetic_trace(rng)
            cells = brute_force_cells(trace)
            assert avg_k(trace)["overall"] == pytest.approx(
                np.mean([m["bits"] for m in cells.values()])
            )
            by_layer = avg_k(trace, "layer")
            for layer, val in by_layer.items():
                ref = [m["bits"] for (s, p, l), m in cells.items() if l == layer]
                assert val == pytest.approx(np.mean(ref))
            by_phase = avg_k(trace, "phase")
            for phase, val in by_phase.items():
                ref = [m["bits"] for m in cells.values() if m["phase"] == phase]
                assert val == pytest.approx(np.mean(ref))

    def test_token_layer_heatmap_cells(self):
        rng = np.random.default_rng(1)
        trace = synthetic_trace(rng, n_cells=20)
        cells = brute_force_cells(trace)
        heat = avg_k(trace, "token_layer")
        assert set(heat) == set(cells)
        for key, val in heat.items():
            assert val == cells[key]["bits"]

    def test_empty_trace_rejected(self):
        with pytest.raises(ContractError):
            avg_k(SparsityTrace())

    def test_unknown_group_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ContractError):
            avg_k(synthetic_trace(rng), "banana")

    def test_avgk_plus_masked_equals_k(self):
        rng = np.random.default_rng(3)
        trace = synthetic_trace(rng, k=4)
        a = avg_k(trace)["overall"]
        masked_prob = position_mask_prob(trace)
        mean_masked = sum(masked_prob.values())
        assert a + mean_masked == pytest.approx(4.0)


class TestPositionMaskProb:
    def test_all_kept(self):
        trace = SparsityTrace()
        trace.record_cell(0, 0, 0, [0, 1, 2], [1, 1, 1], "prefill", 0)
        assert list(position_mask_prob(trace).values()) == [0.0, 0.0, 0.0]

    def test_mask_only_last_rank(self):
        trace = SparsityTrace()
        for c in range(7):
            trace.record_cell(0, c, 0, [0, 1, 2], [1, 1, 0], "prefill", 0)
        assert list(position_mask_prob(trace).values()) == [0.0, 0.0, 1.0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        trace = synthetic_trace(rng, k=4)
        probs = position_mask_prob(trace)
        for rank in range(1, 5):
            ref = [
                1 - trace.mask_bit[i]
                for i in range(len(trace))
                if trace.rank[i] == rank
            ]
            assert probs[rank] == pytest.approx(np.mean(ref))


class TestRankExtremes:
    def test_mask_only_rank_one(self):
        trace = SparsityTrace()
        for c in range(5):
            trace.record_cell(0, c, 0, [3, 1, 4], [0, 1, 1], "prefill", 0)
        assert rank_extremes(trace)[0] == (1, 3)

    def test_keep_only_rank_k(self):
        trace = SparsityTrace()
        for c in range(5):
            trace.record_cell(0, c, 1, [3, 1, 4], [0, 0, 1], "prefill", 0)
        assert rank_extremes(trace)[1] == (1, 3)

    def test_never_masked_layer_reports_none(self):
        trace = SparsityTrace()
        trace.record_cell(0, 0, 2, [0, 1], [1, 1], "prefill", 0)
        assert rank_extremes(trace)[2] == (None, 2)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(5)
        trace = synthetic_trace(rng)
        result = rank_extremes(trace)
        for layer in set(trace.layer):
            masked = [
                trace.rank[i]
                for i in range(len(trace))
                if trace.layer[i] == layer and trace.mask_bit[i] == 0
            ]
            kept = [
                trace.rank[i]
                for i in range(len(trace))
                if trace.layer[i] == layer and trace.mask_bit[i] == 1
            ]
            assert result[layer] == (
                min(masked) if masked else None,
                max(kept) if kept else None,
            )


class TestExpertLoad:
    def test_uniform_routing(self):
        trace = SparsityTrace()
        for c in range(8):
            trace.record_cell(0, c, 0, [c % 4], [1], "prefill", 0)
        pre, post = expert_load(trace)
        assert pre == {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}
        assert post == pre

    def test_single_expert_collapse(self):
        trace = SparsityTrace()
        for c in range(5):
            trace.record_cell(0, c, 0, [2, 3], [1, 0], "prefill", 0)
        pre, post = expert_load(trace)
        assert pre == {2: 0.5, 3: 0.5}
        assert post == {2: 1.0}

    def test_distributions_sum_to_one_and_match_brute_force(self):
        rng = np.random.default_rng(6)
        trace = synthetic_trace(rng)
        pre, post = expert_load(trace)
        assert sum(pre.values()) == pytest.approx(1.0)
        assert sum(post.values()) == pytest.approx(1.0)
        routed = [trace.expert_id[i] for i in range(len(trace)) if trace.expert_id[i] >= 0]
        for e, frac in pre.items():
            assert frac == pytest.approx(routed.count(e) / len(routed))

    def test_null_slots_excluded(self):
        trace = SparsityTrace()
        trace.record_cell(0, 0, 0, [2, -1], [1, 0], "prefill", 0)
        pre, post = expert_load(trace)
        assert pre == {2: 1.0}


class TestFlops:
    def test_avg_k_equals_k_no_reduction(self):
        rep = flops_reduction(FlopsModel(64, 128, 8, 4, 0, avg_k=4.0))
        assert rep.routed_reduction == 0.0
        assert rep.layer_reduction == 0.0

    def test_reported_extreme_sparsity_value(self):
        # avg_k 1.23 of K=8 routed experts: 84.6% routed-compute reduction
        rep = flops_reduction(FlopsModel(2048, 6144, 128, 8, 0, avg_k=1.23))
        assert rep.routed_reduction == pytest.approx(0.846, abs=1e-3)

    def test_shared_floor_half(self):
        # shared experts equal to K: even total masking halves layer compute
        rep = flops_reduction(FlopsModel(2560, 5632, 60, 4, 4, avg_k=0.0))
        assert rep.layer_reduction == 0.5
        assert rep.routed_reduction == 1.0

    def test_identity_holds_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            avg = float(rng.uniform(0, k))
            rep = flops_reduction(FlopsModel(32, 64, 8, k, int(rng.integers(0, 3)), avg))
            assert abs(rep.routed_reduction - (1 - avg / k)) < 1e-12

    def test_avg_k_above_k_rejected(self):
        with pytest.raises(ContractError):
            FlopsModel(8, 8, 8, 2, 0, avg_k=2.5)

    @pytest.mark.parametrize("top_k", [0, -2])
    def test_top_k_below_one_rejected(self, top_k):
        # top_k 0 with avg_k 0 would divide by zero in flops_reduction
        with pytest.raises(ContractError, match=f"^top_k must be >= 1, got {top_k}$"):
            FlopsModel(8, 8, 8, top_k, 0, avg_k=0.0)


class TestReports:
    def test_round_trip(self, tmp_path):
        metrics = {
            "avg_k": {"overall": 2.5, "0": 3.0},
            "load": {5: 0.25},
        }
        path = tmp_path / "r.csv"
        emit_report(metrics, "csv", path)
        parsed = parse_report(path)
        assert parsed == {"avg_k": {"overall": 2.5, "0": 3.0}, "load": {"5": 0.25}}

    def test_byte_identical_across_runs(self, tmp_path):
        rng = np.random.default_rng(8)
        trace = synthetic_trace(rng)
        m = {"avg_k": avg_k(trace, "layer"), "prob": position_mask_prob(trace)}
        emit_report(m, "csv", tmp_path / "a.csv")
        emit_report(m, "csv", tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        emit_report(m, "json", tmp_path / "a.json")
        emit_report(m, "json", tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_empty_metrics_header_only(self, tmp_path):
        emit_report({}, "csv", tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_text().strip() == "metric,group,value"

    def test_json_csv_value_parity(self, tmp_path):
        rng = np.random.default_rng(9)
        trace = synthetic_trace(rng)
        m = {"avg_k": avg_k(trace, "layer")}
        emit_report(m, "csv", tmp_path / "m.csv")
        emit_report(m, "json", tmp_path / "m.json")
        parsed_csv = parse_report(tmp_path / "m.csv")
        parsed_json = json.loads((tmp_path / "m.json").read_text())
        assert parsed_csv == parsed_json

    def test_heatmap_long_format(self, tmp_path):
        rng = np.random.default_rng(10)
        trace = synthetic_trace(rng, n_cells=12)
        heat = avg_k(trace, "token_layer")
        emit_report({"token_layer_active": heat}, "csv", tmp_path / "h.csv")
        parsed = parse_report(tmp_path / "h.csv")["token_layer_active"]
        assert len(parsed) == len(heat)
        for (s, p, l), v in heat.items():
            assert parsed[f"{s}/{p}/{l}"] == v

    @pytest.mark.parametrize(
        "row,message",
        [
            ("avg_k,overall", "malformed report row 3 in"),
            ("avg_k,overall,2.5,1", "malformed report row 3 in"),
            ("avg_k,overall,abc", "value 'abc' is not a number in report row 3 in"),
        ],
    )
    def test_malformed_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"metric,group,value\nload,5,0.25\n{row}\n")
        with pytest.raises(ContractError, match=re.escape(message)):
            parse_report(path)

    def test_empty_value_reads_as_none(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("metric,group,value\navg_k,0,\n")
        assert parse_report(path) == {"avg_k": {"0": None}}

    def test_empty_file_is_a_bad_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(ContractError, match="unexpected report header"):
            parse_report(path)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        trace = synthetic_trace(rng, n_cells=15)
        path = tmp_path / "t.csv"
        trace.to_csv(path)
        back = SparsityTrace.from_csv(path)
        assert back.arrays().keys() == trace.arrays().keys()
        for key, arr in trace.arrays().items():
            assert np.array_equal(arr, back.arrays()[key])

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "sequence_id,position,layer,rank,expert_id,mask_bit,phase,token_id\n"
            "0,0,0,1,2,1,prefill,5\n"
            "0,0,oops,1,2,1,prefill,5\n"
        )
        with pytest.raises(ContractError, match="row 3"):
            SparsityTrace.from_csv(path)

    def test_bad_phase_rejected(self):
        trace = SparsityTrace()
        with pytest.raises(ContractError):
            trace.record_cell(0, 0, 0, [1], [1], "warmup", 0)

    @pytest.mark.parametrize("row", ["0,0,0,1,2,1,prefill", "0,0,0,1,2,1,prefill,5,9", ""])
    def test_wrong_field_count_reports_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(
            "sequence_id,position,layer,rank,expert_id,mask_bit,phase,token_id\n"
            f"0,0,0,1,2,1,prefill,5\n{row}\n"
        )
        with pytest.raises(ContractError, match="malformed trace row 3"):
            SparsityTrace.from_csv(path)

    def test_mask_bit_outside_zero_one_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "sequence_id,position,layer,rank,expert_id,mask_bit,phase,token_id\n"
            "0,0,0,1,2,1,prefill,5\n"
            "0,0,0,2,3,0,prefill,5\n"
            "0,0,0,3,4,2,prefill,5\n"
        )
        with pytest.raises(ContractError, match="row 4"):
            SparsityTrace.from_csv(path)


def assert_same_columns(got: dict, want: dict):
    assert list(got) == list(want) == TRACE_HEADER
    for name in TRACE_HEADER:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


HEADER_LINE = ",".join(TRACE_HEADER)
# negative and multi-digit numbers and both phases, so that single-character
# edits reach signs, digit runs, separators and phase names
VALID_ROWS = [
    "0,0,0,1,2,1,prefill,5",
    "0,0,0,2,-1,0,prefill,5",
    "3,10,1,1,7,1,decode,42",
    "3,10,1,2,0,0,decode,42",
]
EDIT_ALPHABET = '09-,\n\rx "+_'


def parse_outcome(parse, path):
    """("ok", columns), ("error", ContractError message) or ("crash", type)."""
    try:
        return "ok", parse(path).arrays()
    except ContractError as e:
        return "error", str(e)
    except Exception as e:  # the csv.reader loop can fail outside the contract
        return "crash", type(e).__name__


def single_edits(text: str):
    """Every single-character insert, delete and replace over EDIT_ALPHABET,
    with the position of the edit."""
    for i in range(len(text) + 1):
        for c in EDIT_ALPHABET:
            yield i, text[:i] + c + text[i:]
        if i < len(text):
            yield i, text[:i] + text[i + 1 :]
            for c in EDIT_ALPHABET:
                if c != text[i]:
                    yield i, text[:i] + c + text[i + 1 :]


def narrowed(text: str) -> bool:
    """Inputs the csv.reader loop read and the numpy parser rejects: spaces
    around a number, "+" signs, "_" digit separators, quoted fields and lone
    carriage-return line ends (non-ASCII digits are outside the alphabet)."""
    return any(c in text for c in ' +_"') or re.search("\r(?!\n)", text) is not None


def write_rows(path, rows, end="\r\n"):
    path.write_bytes(end.join([HEADER_LINE, *rows, ""]).encode())


class TestCsvParserAgainstReference:
    """The column-at-a-time ``from_csv`` against the ``csv.reader`` loop it
    replaced, on every single-character edit of a small valid file."""

    @pytest.mark.parametrize("chunk_rows", [analysis._CSV_CHUNK_ROWS, 3])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_single_edits_agree(self, tmp_path, monkeypatch, end, chunk_rows):
        monkeypatch.setattr(analysis, "_CSV_CHUNK_ROWS", chunk_rows)
        path = tmp_path / "edited.csv"
        valid = end.join([HEADER_LINE, *VALID_ROWS, ""])
        outcomes = {"same": 0, "narrowed": 0}
        for at, text in single_edits(valid):
            path.write_bytes(text.encode())
            got, want = parse_outcome(SparsityTrace.from_csv, path), parse_outcome(reference_from_csv, path)
            if got[0] == want[0] == "ok":
                assert_same_columns(got[1], want[1])
                outcomes["same"] += 1
            elif got == want:
                outcomes["same"] += 1
            else:
                assert narrowed(text), repr(text)
                line = text[:at].count("\n") + 1
                if line == 1:
                    assert got == ("error", f"unexpected trace header in {path}"), repr(text)
                else:
                    assert got == ("error", f"malformed trace row {line} in {path}"), repr(text)
                outcomes["narrowed"] += 1
        assert outcomes["same"] > 3000 and outcomes["narrowed"] > 100

    @pytest.mark.parametrize(
        "field",
        [" 0", "0 ", "+0", "1_0", '"0"', "\u0663"],
        ids=["space-before", "space-after", "plus", "underscore", "quoted", "arabic-indic-digit"],
    )
    def test_narrowed_inputs_rejected_with_row(self, tmp_path, field):
        path = tmp_path / "t.csv"
        write_rows(path, [VALID_ROWS[0], f"0,0,{field},1,2,1,prefill,5"])
        assert parse_outcome(reference_from_csv, path)[0] == "ok"  # what the csv.reader loop read
        with pytest.raises(ContractError, match="malformed trace row 3 in"):
            SparsityTrace.from_csv(path)

    def test_lone_carriage_return_rejected_with_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(f"{HEADER_LINE}\n{VALID_ROWS[0]}\r{VALID_ROWS[1]}\n".encode())
        assert len(reference_from_csv(path)) == 2
        with pytest.raises(ContractError, match="malformed trace row 2 in"):
            SparsityTrace.from_csv(path)

    def test_int64_range(self, tmp_path):
        big, small = np.iinfo(np.int64).max, np.iinfo(np.int64).min
        trace = SparsityTrace()
        ids, bits = [[big, -1], [small, 0]], [[1, 0], [0, 1]]
        trace.record_cell([big, small], [small, big], 0, ids, bits, "decode", [big, small])
        path = tmp_path / "t.csv"
        trace.to_csv(path)
        assert_same_columns(SparsityTrace.from_csv(path).arrays(), trace.arrays())
        assert_same_columns(SparsityTrace.from_csv(path).arrays(), reference_from_csv(path).arrays())
        # leading zeros beyond 19 digits are still in range
        write_rows(path, [f"{'0' * 30}7,-{'0' * 25}{big},0,1,2,1,prefill,5"])
        back = SparsityTrace.from_csv(path)
        assert (back.sequence_id[0], back.position[0]) == (7, -big)

    @pytest.mark.parametrize(
        "number",
        [str(2**63), str(-(2**63) - 1), "1" + "0" * 19, "9" * 25, "1" + "0" * 30 + "5"],
        ids=["max-plus-1", "min-minus-1", "ten-to-19", "25-nines", "long-nonzero-head"],
    )
    def test_outside_int64_rejected_with_row(self, tmp_path, number):
        path = tmp_path / "t.csv"
        write_rows(path, [VALID_ROWS[0], VALID_ROWS[1], f"{number},0,0,1,2,1,prefill,5"])
        with pytest.raises(ContractError, match="malformed trace row 4 in"):
            SparsityTrace.from_csv(path)

    def test_phase_dtype_follows_present_phases(self, tmp_path):
        path = tmp_path / "t.csv"
        for rows in (VALID_ROWS, VALID_ROWS[2:], VALID_ROWS[:2], []):
            write_rows(path, rows)
            assert_same_columns(SparsityTrace.from_csv(path).arrays(), reference_from_csv(path).arrays())
        assert SparsityTrace.from_csv(path).phase.dtype == np.dtype("<U1")

    @pytest.mark.parametrize("end", ["\n", "\r\n", ""], ids=["lf", "crlf", "none"])
    def test_last_line_end_optional(self, tmp_path, end):
        path = tmp_path / "t.csv"
        path.write_bytes(("\r\n".join([HEADER_LINE, *VALID_ROWS]) + end).encode())
        assert_same_columns(SparsityTrace.from_csv(path).arrays(), reference_from_csv(path).arrays())

    def test_bad_rows_across_chunk_boundary(self, tmp_path):
        chunk = analysis._CSV_CHUNK_ROWS
        rng = np.random.default_rng(3)
        n_cells, k = chunk // 4 + 5, 4  # rows spill into a second chunk
        trace = SparsityTrace()
        trace.record_cell(
            np.arange(n_cells) // 64, np.arange(n_cells) % 64, 1, rng.integers(-1, 8, (n_cells, k)),
            rng.integers(0, 2, (n_cells, k)), "prefill", rng.integers(0, 100, n_cells),
        )
        path = tmp_path / "t.csv"
        trace.to_csv(path)
        reference = ListSparsityTrace()
        arr = trace.arrays()
        for i in range(0, len(trace), k):
            reference.record_cell(
                arr["sequence_id"][i], arr["position"][i], 1, arr["expert_id"][i : i + k],
                arr["mask_bit"][i : i + k], "prefill", arr["token_id"][i],
            )
        reference.to_csv(tmp_path / "ref.csv")
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert_same_columns(SparsityTrace.from_csv(path).arrays(), reference_from_csv(path).arrays())

        lines = path.read_bytes().decode().split("\r\n")
        # row i of the body is line i + 2; chunk rows 0 .. chunk-1 are lines 2 .. chunk+1
        for lineno in (chunk + 1, chunk + 2, chunk + 9):
            for bad, message in [
                ("0,0,oops,1,2,1,prefill,5", "malformed"),
                ("0,0,0,1,2,7,prefill,5", "mask_bit 7"),
            ]:
                edited = lines[: lineno - 1] + [bad] + lines[lineno:]
                (tmp_path / "bad.csv").write_bytes("\r\n".join(edited).encode())
                with pytest.raises(ContractError, match=f"^{message}.* row {lineno} in"):
                    SparsityTrace.from_csv(tmp_path / "bad.csv")


class TestRecordValidation:
    def test_mismatched_lengths_rejected(self):
        # zip would keep three rows and silently drop the fourth expert
        with pytest.raises(ContractError, match="shape"):
            SparsityTrace().record_cell(0, 0, 0, [1, 2, 3, 4], [1, 1, 0], "prefill", 0)

    def test_mismatched_block_shapes_rejected(self):
        trace = SparsityTrace()
        with pytest.raises(ContractError, match="shape"):
            trace.record_cell(0, 0, 0, np.zeros((2, 4), int), np.ones(4, int), "prefill", 0)
        with pytest.raises(ContractError, match="shape"):
            trace.record_cell(0, 0, 0, np.zeros((2, 2, 4), int), np.ones((2, 2, 4), int), "prefill", 0)
        assert len(trace) == 0

    def test_per_cell_field_of_wrong_length_rejected(self):
        with pytest.raises(ContractError, match="3 cells"):
            SparsityTrace().record_cell(
                [0, 1], 0, 0, np.zeros((3, 4), int), np.ones((3, 4), int), "prefill", 0
            )

    @pytest.mark.parametrize("bits", [[1, 2, 0, 1], [1, -1, 0, 1], [1, 0.5, 0, 1]])
    def test_mask_bits_outside_zero_one_rejected(self, bits):
        # a bit of 2 would count a slot twice in avg_k
        trace = SparsityTrace()
        with pytest.raises(ContractError, match="0 or 1"):
            trace.record_cell(0, 0, 0, [0, 1, 2, 3], bits, "prefill", 0)
        assert len(trace) == 0

    @pytest.mark.parametrize(
        "field,args",
        [
            ("expert_ids", (0, 0, 0, [1.7, 2], [1, 1], "prefill", 0)),
            ("expert_ids", (0, 0, 0, np.array([[1.0, 2.0]]), [[1, 1]], "prefill", 0)),
            ("sequence_id", (0.5, 0, 0, [1, 2], [1, 1], "prefill", 0)),
            ("sequence_id", ([0, 1.5], 0, 0, [[1, 2], [3, 4]], [[1, 1], [1, 0]], "prefill", 0)),
            ("position", (0, 2.5, 0, [1, 2], [1, 1], "prefill", 0)),
            ("position", (0, np.array([3.0, 4.0]), 0, [[1, 2], [3, 4]], [[1, 1], [1, 0]], "prefill", 0)),
            ("layer", (0, 0, 1.7, [1, 2], [1, 1], "prefill", 0)),
            ("token_id", (0, 0, 0, [1, 2], [1, 1], "prefill", 3.2)),
        ],
    )
    def test_non_integer_field_rejected(self, field, args):
        # int64 conversion would truncate 1.7 to 1; from_csv rejects the same text
        trace = SparsityTrace()
        with pytest.raises(ContractError, match=f"^{field} must be integers, got float64$"):
            trace.record_cell(*args)
        assert len(trace) == 0

    def test_integer_fields_of_any_width_accepted(self):
        trace = SparsityTrace()
        trace.record_cell(np.int32(1), np.uint8(2), np.int16(1), np.array([3, 0], np.uint16), [1, 0], "decode", 7)
        trace.record_cell(np.array([4, 5], np.int8), 0, 0, [[1, 2], [3, 4]], [[1, 1], [1, 0]], "prefill", [8, 9])
        columns = trace.arrays()
        assert columns["sequence_id"].tolist() == [1, 1, 4, 4, 5, 5]
        assert columns["position"].tolist() == [2, 2, 0, 0, 0, 0]
        assert columns["layer"].tolist() == [1, 1, 0, 0, 0, 0]
        assert columns["expert_id"].tolist() == [3, 0, 1, 2, 3, 4]
        assert columns["token_id"].tolist() == [7, 7, 8, 8, 9, 9]

    @pytest.mark.parametrize(
        "field,args",
        [
            ("position", (0, np.array([2**63], np.uint64), 0, [1], [1], "prefill", 0)),
            ("position", (0, 2**63, 0, [1], [1], "prefill", 0)),
            ("sequence_id", (np.uint64(2**64 - 1), 0, 0, [1], [1], "prefill", 0)),
            ("expert_ids", (0, 0, 0, np.array([1, 2**63], np.uint64), [1, 1], "prefill", 0)),
            ("layer", (0, 0, np.uint64(2**63), [1], [1], "prefill", 0)),
            ("token_id", (0, 0, 0, [[1], [2]], [[1], [1]], "prefill", np.array([0, 2**63], np.uint64))),
        ],
    )
    def test_uint64_beyond_int64_rejected(self, field, args):
        # astype(int64) would wrap 2**63 to -2**63
        trace = SparsityTrace()
        with pytest.raises(ContractError, match=f"^{field} must be below 2\\*\\*63, got \\d+$"):
            trace.record_cell(*args)
        assert len(trace) == 0

    def test_uint64_within_int64_accepted(self):
        trace = SparsityTrace()
        top = 2**63 - 1
        trace.record_cell(0, np.array([top], np.uint64), 0, np.array([3], np.uint64), [1], "prefill", 0)
        assert trace.arrays()["position"].tolist() == [top]
        assert trace.arrays()["expert_id"].tolist() == [3]

    def test_bool_and_float_bits_accepted(self):
        trace = SparsityTrace()
        trace.record_cell(0, 0, 0, [0, 1], np.array([True, False]), "prefill", 0)
        trace.record_cell(0, 1, 0, [0, 1], [1.0, 0.0], "prefill", 0)
        assert trace.mask_bit.tolist() == [1, 0, 1, 0]
        assert trace.mask_bit.dtype == np.int64


class TestTraceCache:
    def test_record_after_read_shows_in_next_read(self):
        trace = SparsityTrace()
        trace.record_cell(0, 0, 0, [3, 1], [1, 0], "prefill", 7)
        assert len(trace.arrays()["rank"]) == 2
        assert trace.k == 2
        trace.record_cell(0, 1, 0, [2, 0, 1], [1, 1, 1], "decode", 8)
        assert len(trace) == 5
        arr = trace.arrays()
        assert arr["position"].tolist() == [0, 0, 1, 1, 1]
        assert arr["phase"].tolist() == ["prefill"] * 2 + ["decode"] * 3
        assert trace.k == 3

    def test_read_columns_are_read_only(self):
        trace = SparsityTrace()
        trace.record_cell(0, 0, 0, [3, 1], [1, 0], "prefill", 7)
        arr = trace.arrays()
        for name in TRACE_HEADER:
            with pytest.raises(ValueError):
                arr[name][0] = arr[name][1]
        with pytest.raises(ValueError):
            trace.mask_bit[1] = 1
        arr["mask_bit"] = np.ones(2, dtype=np.int64)  # rebinding the returned dict's entry
        assert trace.arrays()["mask_bit"].tolist() == [1, 0]
        assert avg_k(trace) == {"overall": 1.0}

    def test_recorded_inputs_are_copied(self):
        ids, bits, seq = np.array([[3, 1]]), np.array([[1, 0]]), np.array([4])
        trace = SparsityTrace()
        trace.record_cell(seq, 0, 0, ids, bits, "prefill", 7)
        ids[...], bits[...], seq[...] = 0, 1, 9
        arr = trace.arrays()
        assert arr["expert_id"].tolist() == [3, 1]
        assert arr["mask_bit"].tolist() == [1, 0]
        assert arr["sequence_id"].tolist() == [4, 4]

    def test_empty_trace_reads_empty_columns(self, tmp_path):
        trace = SparsityTrace()
        assert len(trace) == 0 and trace.k == 0
        assert all(a.size == 0 for a in trace.arrays().values())
        trace.to_csv(tmp_path / "empty.csv")
        assert len(SparsityTrace.from_csv(tmp_path / "empty.csv")) == 0


@pytest.fixture(scope="module")
def masked_model():
    """A two-layer beam model whose drawn mask router closes some slots."""
    ids, vocab = trainer.ingest_text(trainer.synthetic_text(3000, 4))
    cfg = trainer.ModelConfig(
        vocab_size=len(vocab),
        d_h=16,
        n_layers=2,
        n_heads=2,
        context_length=16,
        d_ff=12,
        num_experts=6,
        top_k=3,
        strategy=RoutingStrategy("beam"),
        seed=2,
    )
    model = trainer.TinyMoELM(cfg)
    rng = np.random.default_rng(9)
    for layer in model.layers:
        w = layer["block"].mask_router.weight
        w.data[...] = rng.normal(0.0, 0.8, w.shape)
    return model, ids


RUNS = {
    "eval_full": lambda m, ids, t: trainer.evaluate(m, ids, max_windows=10, batch_size=4, trace=t),
    "eval_sampled": lambda m, ids, t: trainer.evaluate(
        m, ids, max_windows=10, batch_size=4, trace=t, trace_sampling=0.5
    ),
    "greedy": lambda m, ids, t: trainer.sample_greedy(m, ids[:20], 6, trace=t, sequence_id=2),
    "eval_then_greedy": lambda m, ids, t: (
        trainer.evaluate(m, ids, max_windows=4, trace=t, trace_sampling=0.5),
        trainer.sample_greedy(m, ids[40:50], 5, trace=t, sequence_id=9),
    ),
}


class TestColumnarTraceOracle:
    """The columnar trace against the list-based one fed cell by cell from
    the same routes."""

    @pytest.fixture(params=sorted(RUNS))
    def traces(self, request, masked_model, monkeypatch):
        model, ids = masked_model
        reference = ListSparsityTrace()
        record = trainer._record_routes

        def tee(trace, routes, ids, seq_base, phase, positions=slice(None), trace_positions=None):
            record(trace, routes, ids, seq_base, phase, positions, trace_positions)
            window = np.arange(ids.shape[1])[positions]
            at = window if trace_positions is None else np.broadcast_to(trace_positions, window.shape)
            record_routes_per_cell(reference, routes, ids, seq_base, phase, list(zip(window, at)))

        monkeypatch.setattr(trainer, "_record_routes", tee)
        trace = SparsityTrace()
        RUNS[request.param](model, ids, trace)
        assert len(trace) == len(reference) > 0
        return trace, reference

    def test_columns_and_csv_bytes_equal(self, traces, tmp_path):
        trace, reference = traces
        assert_same_columns(trace.arrays(), reference.arrays())
        assert trace.k == reference.k
        trace.to_csv(tmp_path / "new.csv")
        reference.to_csv(tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert_same_columns(SparsityTrace.from_csv(tmp_path / "new.csv").arrays(), reference.arrays())

    def test_metrics_equal(self, traces):
        trace, reference = traces
        assert 0 < reference.arrays()["mask_bit"].sum() < len(reference)  # the mask does close slots
        cells, inverse = _cell_index(trace.arrays())
        want_cells, want_inverse = unique_cell_index(reference.arrays())
        assert np.array_equal(cells, want_cells) and np.array_equal(inverse, want_inverse)
        for group in GROUP_KEYS:
            got, want = avg_k(trace, group), reference_avg_k(reference, group)
            assert got == want, group
            assert [(k, type(k)) for k in got] == [(k, type(k)) for k in want], group
        assert position_mask_prob(trace) == position_mask_prob(reference)
        assert rank_extremes(trace) == rank_extremes(reference)
        assert expert_load(trace) == expert_load(reference)

    def test_two_sequence_last_position_routes(self, masked_model):
        # two windows: the first layer's route covers every position, the
        # last layer's only the last one
        model, ids = masked_model
        t = model.cfg.context_length
        xs = np.stack([ids[:t], ids[t : 2 * t]])
        _, routes = model.forward(xs, training=False, last_position_only=True)
        assert [len(rr.candidate_ids) for rr in routes] == [2 * t, 2]
        trace, reference = SparsityTrace(), ListSparsityTrace()
        trainer._record_routes(trace, routes, xs, 5, "decode", slice(-1, None), 40)
        record_routes_per_cell(reference, routes, xs, 5, "decode", [(t - 1, 40)])
        assert len(trace) == len(reference) > 0
        assert_same_columns(trace.arrays(), reference.arrays())

    def test_position_outside_the_route_rejected(self, masked_model):
        model, ids = masked_model
        t = model.cfg.context_length
        xs = np.stack([ids[:t], ids[t : 2 * t]])
        _, routes = model.forward(xs, training=False, last_position_only=True)
        trace = SparsityTrace()
        with pytest.raises(ContractError, match="layer 1: route covers window positions 15..15"):
            trainer._record_routes(trace, routes, xs, 0, "prefill", slice(-2, None))
        assert len(trace) == 0

    @pytest.mark.parametrize("spans", [(1, 1, 3), (3, 1, 1), (1, 3, 1), (3, 3, 3), (4, 50, 2)])
    def test_cell_index_matches_unique_rows(self, spans):
        # unsorted rows, repeated cells, negative ids, and key columns that
        # do not vary, so that neighbouring cells can differ in one key only
        rng = np.random.default_rng(sum(spans))
        arr = {
            name: rng.integers(-1, span - 1, 300)
            for name, span in zip(("sequence_id", "position", "layer"), spans)
        }
        cells, inverse = _cell_index(arr)
        want_cells, want_inverse = unique_cell_index(arr)
        assert np.array_equal(cells, want_cells)
        assert np.array_equal(inverse, want_inverse)

    @pytest.mark.parametrize(
        "lows,spans,combined",
        [
            ((0, 0, 0), (1, 1, 1), True),
            ((-1, 0, 0), (255, 1, 1), True),  # a span the uint8 product dtype must hold
            ((0, 0, 0), (1, 256, 1), True),
            ((5, -3, 0), (300, 64, 2), True),
            ((-(2**62), 0, 7), (2**61, 3, 1), True),
            ((0, 0, 0), (2**63 - 1, 1, 1), True),  # the largest product that fits
            ((-(2**63), 0, 0), (2**63, 1, 1), False),  # the smallest that does not
            ((0, 0, 0), (2**32, 2**31, 1), False),
            ((-(2**63), -(2**63), 0), (2**64 - 1, 2**64 - 1, 5), False),
        ],
    )
    def test_cell_index_equals_lexsort(self, lows, spans, combined):
        # unsorted rows with repeated cells; each column takes both ends of its span
        rng = np.random.default_rng(len(str(spans)))
        arr = {}
        for name, low, span in zip(("sequence_id", "position", "layer"), lows, spans):
            offsets = rng.integers(0, min(span, 6), 400, dtype=np.uint64)
            offsets[rng.random(400) < 0.5] += np.uint64(span - min(span, 6))
            offsets[:2] = [0, span - 1]
            column = (offsets + np.uint64(low % 2**64)).astype(np.int64)
            arr[name] = column[rng.permutation(400)]
        keys = [arr[name] for name in ("sequence_id", "position", "layer")]
        assert (analysis._combined_key(keys) is not None) == combined
        cells, inverse = _cell_index(arr)
        want_cells, want_inverse = lexsort_cell_index(arr)
        assert cells.dtype == want_cells.dtype == np.int64
        assert np.array_equal(cells, want_cells) and np.array_equal(inverse, want_inverse)
        assert np.array_equal(cells, unique_cell_index(arr)[0])

    def test_one_block_equals_scalar_calls(self):
        rng = np.random.default_rng(4)
        n, k = 7, 3
        seq, pos, tok = rng.integers(0, 5, n), rng.integers(0, 64, n), rng.integers(0, 30, n)
        ids = rng.integers(-1, 8, (n, k))
        bits = rng.integers(0, 2, (n, k))
        block = SparsityTrace()
        block.record_cell(seq, pos, 1, ids, bits, "decode", tok)
        scalar = SparsityTrace()
        for i in range(n):
            scalar.record_cell(seq[i], pos[i], 1, ids[i], bits[i], "decode", tok[i])
        assert len(block) == len(scalar) == n * k
        assert_same_columns(block.arrays(), scalar.arrays())
        # a scalar field in a block applies to every cell
        shared = SparsityTrace()
        shared.record_cell(3, pos, 1, ids, bits, "decode", tok)
        assert shared.sequence_id.tolist() == [3] * (n * k)


def record_rows(columns: dict) -> SparsityTrace:
    """A trace with one single-rank cell per entry of ``columns``."""
    trace = SparsityTrace()
    for i, phase in enumerate(columns["phase"]):
        trace.record_cell(
            columns["sequence_id"][i], columns["position"][i], 0, [columns["expert_id"][i]],
            [columns["mask_bit"][i]], phase, columns["token_id"][i],
        )
    return trace


PHASE_MIXES = {
    "prefill-only": ["prefill"] * 6,
    "decode-only": ["decode"] * 6,
    "mixed": ["decode", "prefill", "prefill", "decode", "prefill", "decode"],
}


def phase_trace(phases, k=3, seed=0) -> tuple[SparsityTrace, ListSparsityTrace]:
    """The same cells, one per phase entry, in a columnar and a list trace."""
    rng = np.random.default_rng(seed)
    trace, reference = SparsityTrace(), ListSparsityTrace()
    for i, phase in enumerate(phases):
        ids, bits = rng.permutation(8)[:k], rng.integers(0, 2, k)
        for t in (trace, reference):
            t.record_cell(i // 2, i, i % 2, ids, bits, phase, int(rng.integers(0, 5)))
    return trace, reference


class TestDistinctValueTables:
    """The trace as value tables: phase stored as codes, CSV text tabled per
    value range, one cell index per consolidation and tuple labels by
    format, against the writers they replaced."""

    @pytest.mark.parametrize(
        "values",
        [
            [0, 10**6, 3, 10**9, 7],  # range above the row count: np.unique
            [-5, -3, -4, -5, -1],  # negative values, range table
            [-(2**63), 2**63 - 1, 0, -1, 1],  # int64 extremes, range above the row count
            [2**63 - 1, 2**63 - 3, 2**63 - 2, 2**63 - 1, 2**63 - 3],  # range table at the top
            [-(2**63), -(2**63) + 2, -(2**63) + 1, -(2**63), -(2**63) + 2],  # and at the bottom
        ],
        ids=["wide", "negative", "extremes", "near-max", "near-min"],
    )
    @pytest.mark.parametrize("column", ["sequence_id", "position", "expert_id", "token_id"])
    def test_csv_bytes_equal_unique_writer(self, tmp_path, column, values):
        rng = np.random.default_rng(5)
        columns = {name: rng.integers(0, 3, 5) for name in ("sequence_id", "position", "expert_id", "token_id")}
        columns[column] = np.array(values, dtype=np.int64)
        columns["mask_bit"] = rng.integers(0, 2, 5)
        columns["phase"] = ["prefill", "decode", "prefill", "prefill", "decode"]
        trace = record_rows(columns)
        trace.to_csv(tmp_path / "new.csv")
        reference_to_csv(trace, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert_same_columns(SparsityTrace.from_csv(tmp_path / "new.csv").arrays(), trace.arrays())

    def test_unique_only_for_wide_ranges(self, tmp_path, monkeypatch):
        calls = []
        unique = np.unique

        def spy(a, **kwargs):
            calls.append(a.copy())
            return unique(a, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        rng = np.random.default_rng(6)
        trace = SparsityTrace()
        n = 40
        trace.record_cell(
            rng.integers(0, 4, n), rng.integers(0, 64, n), 1, rng.integers(-1, 8, (n, 4)),
            rng.integers(0, 2, (n, 4)), "prefill", rng.integers(0, 10**6, n),
        )
        trace.to_csv(tmp_path / "t.csv")
        # the token ids span more values than the trace has rows; nothing else does
        assert len(calls) == 1 and np.array_equal(calls[0], trace.token_id)

    @pytest.mark.parametrize("mix", sorted(PHASE_MIXES))
    def test_phase_stored_as_codes_and_decoded_as_before(self, tmp_path, mix):
        trace, reference = phase_trace(PHASE_MIXES[mix])
        want = reference.arrays()["phase"]  # np.asarray of the strings
        trace.to_csv(tmp_path / "t.csv")
        parsed = SparsityTrace.from_csv(tmp_path / "t.csv")
        for got in (trace, parsed):
            assert got._consolidated()["phase"].dtype == np.uint8
            assert got.arrays()["phase"].dtype == want.dtype
            assert np.array_equal(got.arrays()["phase"], want)
            assert got.phase.dtype == want.dtype
        reference_to_csv(trace, tmp_path / "ref.csv")
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_empty_phase_dtype(self, tmp_path):
        trace = SparsityTrace()
        trace.to_csv(tmp_path / "t.csv")
        for got in (trace, SparsityTrace.from_csv(tmp_path / "t.csv")):
            assert got.arrays()["phase"].dtype == np.dtype("<U1")
            assert got.phase.shape == (0,)

    @pytest.mark.parametrize("mix", sorted(PHASE_MIXES))
    def test_avg_k_by_phase_unchanged(self, tmp_path, mix):
        trace, reference = phase_trace(PHASE_MIXES[mix], seed=2)
        trace.to_csv(tmp_path / "t.csv")
        want = reference_avg_k(reference, "phase")
        for got in (avg_k(trace, "phase"), avg_k(SparsityTrace.from_csv(tmp_path / "t.csv"), "phase")):
            assert list(got.items()) == list(want.items())
            assert all(type(key) is str for key in got)

    def test_one_cell_index_per_consolidation(self, monkeypatch):
        calls = []

        def spy(arr):
            calls.append(arr)
            return _cell_index(arr)

        monkeypatch.setattr(analysis, "_cell_index", spy)
        trace, reference = phase_trace(PHASE_MIXES["mixed"])
        assert avg_k(trace) == reference_avg_k(reference)
        assert avg_k(trace, "token_layer") == reference_avg_k(reference, "token_layer")
        assert len(calls) == 1
        for t in (trace, reference):
            t.record_cell(9, 9, 0, [1, 2, 3], [1, 1, 0], "decode", 4)
        assert avg_k(trace, "token_layer") == reference_avg_k(reference, "token_layer")
        assert avg_k(trace, "layer") == reference_avg_k(reference, "layer")
        assert len(calls) == 2

    METRICS = {
        "tuple3": {(0, 1, 2): 1.0, (0, 10, 1): 2.5, (3, 2, 0): None, (0, 2, 1): 0.1},
        "tuple2": {(1, 2): 3.0, (1, 10): 0.5, (-1, 2): 1e-300},
        "tuple1": {(7,): 4.0, (11,): 0.0},
        "str": {"prefill": 2.0, "decode": None, "overall": 1.25},
        "int": {3: 1, 10: 2, -1: 0.75},
        "mixed": {(1, 2): 1.0, (1,): 2.0, 5: None, "a": 3.5},
    }

    @pytest.mark.parametrize(
        "metrics",
        [
            METRICS,
            {},
            {"empty": {}, "one": {"x": 1.0}},
            # fields csv.writer must quote
            {"q": {"a,b": 1.0, 'say "hi"': 2.0, "two\nlines": None, ("a,b", 1): 0.5}},
            {"metric,name": {1: 1.0}, "cr": {"x\ry": 1.0}},
        ],
        ids=["labels", "no-metrics", "empty-group", "quoted-labels", "quoted-metric"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_report_bytes_equal_label_writer(self, tmp_path, metrics, fmt):
        emit_report(metrics, fmt, tmp_path / "new")
        reference_emit_report(metrics, fmt, tmp_path / "ref")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "groups,label",
        [({5: 0.25, "5": 0.75}, "5"), ({"a": 1.0, (1, 2): 2.0, "1/2": 3.0}, "1/2")],
    )
    def test_two_groups_with_one_label_rejected(self, tmp_path, fmt, groups, label):
        metrics = {"fine": {1: 1.0}, "load": groups}
        with pytest.raises(ContractError) as err:
            emit_report(metrics, fmt, tmp_path / "report")
        assert str(err.value) == f"metric 'load' has two groups labelled {label!r}"
        assert not (tmp_path / "report").exists()

    def test_label_formats(self):
        keys = [(1,), (1, 2), (1, 2, 3), (), "s", 4, (np.int64(5), "x")]
        assert analysis._group_labels(keys) == [reference_group_label(key) for key in keys]
