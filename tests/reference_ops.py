"""Reference implementations that only the oracle tests use.

- Tape ops: the per-expert composition that ``moe_block_forward`` is
  checked against scatters and gathers through the tape with these; the
  library itself runs the fused ``grouped_glu`` instead.
- A list-based sparsity trace, its per-cell recording loop and its
  ``np.unique`` cell index: the columnar ``SparsityTrace`` and ``avg_k``
  are checked against them.
- Greedy decoding that runs the whole window on every token: the
  last-position decode of ``sample_greedy`` is checked against it.
- The version-1 checkpoint writer (no vocabulary): the loader must keep
  reading its files.
"""

import csv
import json
import struct
import zlib

import numpy as np

from beamoe.analysis import GROUP_KEYS, PHASES, TRACE_HEADER
from beamoe.tensor import ContractError, Tensor, _as_tensor, _record, _send
from beamoe.trainer import CHECKPOINT_MAGIC, _record_routes


def scatter_rows(values: Tensor, idx: np.ndarray, num_rows: int) -> Tensor:
    """Inverse of take_rows for unique indices: out[idx[i]] += values[i]."""
    values = _as_tensor(values)
    idx = np.asarray(idx, dtype=np.int64)
    out_data = np.zeros((num_rows,) + values.data.shape[1:])
    np.add.at(out_data, idx, values.data)
    out = Tensor._raw(out_data, values.requires_grad)

    def rule(g, flow):
        _send(flow, values, g[idx])

    _record(out, rule)
    return out


def gather_rc(x: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Elementwise pick out[i] = x[rows[i], cols[i]] from a 2-d tensor."""
    x = _as_tensor(x)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    out = Tensor._raw(x.data[rows, cols], x.requires_grad)
    shape = x.data.shape

    def rule(g, flow):
        gx = np.zeros(shape)
        np.add.at(gx, (rows, cols), g)
        _send(flow, x, gx)

    _record(out, rule)
    return out


class ListSparsityTrace:
    """One Python list per column, one element appended per rank row."""

    def __init__(self):
        self.sequence_id: list[int] = []
        self.position: list[int] = []
        self.layer: list[int] = []
        self.rank: list[int] = []
        self.expert_id: list[int] = []
        self.mask_bit: list[int] = []
        self.phase: list[str] = []
        self.token_id: list[int] = []

    def __len__(self) -> int:
        return len(self.rank)

    def record_cell(self, sequence_id, position, layer, expert_ids, mask_bits, phase, token_id):
        if phase not in PHASES:
            raise ContractError(f"unknown phase {phase!r}")
        for r, (eid, bit) in enumerate(zip(expert_ids, mask_bits), start=1):
            self.sequence_id.append(int(sequence_id))
            self.position.append(int(position))
            self.layer.append(int(layer))
            self.rank.append(r)
            self.expert_id.append(int(eid))
            self.mask_bit.append(int(bit))
            self.phase.append(phase)
            self.token_id.append(int(token_id))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "sequence_id": np.asarray(self.sequence_id, dtype=np.int64),
            "position": np.asarray(self.position, dtype=np.int64),
            "layer": np.asarray(self.layer, dtype=np.int64),
            "rank": np.asarray(self.rank, dtype=np.int64),
            "expert_id": np.asarray(self.expert_id, dtype=np.int64),
            "mask_bit": np.asarray(self.mask_bit, dtype=np.int64),
            "phase": np.asarray(self.phase),
            "token_id": np.asarray(self.token_id, dtype=np.int64),
        }

    @property
    def k(self) -> int:
        return max(self.rank) if self.rank else 0

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(TRACE_HEADER)
            for i in range(len(self)):
                w.writerow(
                    [
                        self.sequence_id[i],
                        self.position[i],
                        self.layer[i],
                        self.rank[i],
                        self.expert_id[i],
                        self.mask_bit[i],
                        self.phase[i],
                        self.token_id[i],
                    ]
                )


def record_routes_per_cell(trace, routes, ids, seq_base, phase, pairs):
    """One ``record_cell`` per (layer, batch row, position) cell; ``pairs``
    maps window positions to trace positions. A route's rows are indexed
    from the window end, so a route that covers only the last positions
    (``forward(last_position_only=True)``) reads the same cells."""
    b, t = ids.shape
    k = routes[0].candidate_ids.shape[-1]
    for layer_idx, rr in enumerate(routes):
        cand = rr.candidate_ids.reshape(b, -1, k)
        bits = rr.active_bits.reshape(b, -1, k)
        for bi in range(b):
            for window_pos, trace_pos in pairs:
                trace.record_cell(
                    sequence_id=seq_base + bi,
                    position=trace_pos,
                    layer=layer_idx,
                    expert_ids=cand[bi, window_pos - t],
                    mask_bits=bits[bi, window_pos - t],
                    phase=phase,
                    token_id=int(ids[bi, window_pos]),
                )


def unique_cell_index(arr: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Unique (sequence, position, layer) cells and each row's cell number."""
    keys = np.stack([arr["sequence_id"], arr["position"], arr["layer"]], axis=1)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    return uniq, inverse


def reference_avg_k(trace, group_by: str = "overall") -> dict:
    """``analysis.avg_k`` over ``unique_cell_index``, one cell at a time."""
    if group_by not in GROUP_KEYS:
        raise ContractError(f"unknown group key {group_by!r}; valid: {GROUP_KEYS}")
    if len(trace) == 0:
        raise ContractError("empty trace")
    arr = trace.arrays()
    cells, inverse = unique_cell_index(arr)
    counts = np.bincount(inverse, weights=arr["mask_bit"].astype(np.float64))

    if group_by == "token_layer":
        return {
            (int(s), int(p), int(l)): float(c)
            for (s, p, l), c in zip(cells, counts)
        }
    if group_by == "overall":
        return {"overall": float(counts.mean())}

    column = {"layer": 2, "token_position": 1}.get(group_by)
    if column is not None:
        cell_keys = cells[:, column]
    else:
        first_row = np.zeros(len(cells), dtype=np.int64)
        first_row[inverse[::-1]] = np.arange(len(arr["rank"]))[::-1]
        field = arr["phase"] if group_by == "phase" else arr["token_id"]
        cell_keys = field[first_row]
    out: dict = {}
    for key in np.unique(cell_keys):
        sel = cell_keys == key
        label = str(key) if group_by == "phase" else int(key)
        out[label] = float(counts[sel].mean())
    return out


def reference_sample_greedy(model, prompt_ids, max_new_tokens, trace=None, binarize_soft=False, sequence_id=0):
    """Greedy decoding with a full-window forward per token, reading the
    last row of the logits and of every layer's route."""
    cfg = model.cfg
    ids = list(np.asarray(prompt_ids, dtype=np.int64)[-cfg.context_length :])
    window = np.asarray(ids, dtype=np.int64)[None, :]
    logits, routes = model.forward(window, training=False, binarize_soft=binarize_soft)
    if trace is not None:
        _record_routes(trace, routes, window, sequence_id, "prefill")
    generated: list[int] = []
    abs_pos = len(ids)
    for _ in range(max_new_tokens):
        nxt = int(np.argmax(logits.data[0, -1]))
        generated.append(nxt)
        ids.append(nxt)
        ids = ids[-cfg.context_length :]
        window = np.asarray(ids, dtype=np.int64)[None, :]
        logits, routes = model.forward(window, training=False, binarize_soft=binarize_soft)
        if trace is not None:
            _record_routes(
                trace,
                routes,
                window,
                sequence_id,
                "decode",
                positions=slice(len(ids) - 1, len(ids)),
                trace_positions=abs_pos,
            )
        abs_pos += 1
    return np.asarray(generated, dtype=np.int64)


def save_checkpoint_v1(model, path) -> None:
    """Magic + version 1 + canonical config + named float64 blobs + crc32."""
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", 1)
    cfg_bytes = json.dumps(model.cfg.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    blob += struct.pack("<Q", len(cfg_bytes))
    blob += cfg_bytes
    named = model.named_parameters()
    blob += struct.pack("<Q", len(named))
    for name, tensor in named:
        nb = name.encode()
        blob += struct.pack("<I", len(nb))
        blob += nb
        blob += struct.pack("<I", tensor.data.ndim)
        for s in tensor.data.shape:
            blob += struct.pack("<Q", s)
        blob += tensor.data.astype("<f8").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    with open(path, "wb") as f:
        f.write(bytes(blob))
