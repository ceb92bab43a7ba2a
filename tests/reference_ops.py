"""Reference implementations that only the oracle tests use.

- Tape ops: the per-expert composition that ``moe_block_forward`` is
  checked against scatters and gathers through the tape with these; the
  library itself runs the block as one fused node. ``transpose``
  serves the per-op attention chain below; the library's fused
  ``causal_attention`` needs no taped transpose.
- ``silu`` and ``reference_expert_forward``, the gated-linear-unit expert
  as the taped chain matmul, ``silu``, matmul, mul, matmul: the fused
  ``expert_forward`` must equal its forward bit for bit, and its closed-form
  ``expert_backward`` must match the chain's per-op gradients within a few
  ulps of the largest.
- A list-based sparsity trace, its per-cell recording loop and its
  ``np.unique`` cell index: the columnar ``SparsityTrace`` and ``avg_k``
  are checked against them.
- ``lexsort_cell_index``, the cell index by a ``lexsort`` of the three key
  columns: ``_cell_index``, which sorts one combined key and falls back to
  ``lexsort`` only when that key would not fit, must give the same cells
  and inverse.
- ``reference_from_csv``, the ``csv.reader`` loop that parsed trace files
  one row at a time: the column-at-a-time ``SparsityTrace.from_csv`` is
  checked against it on mutated files.
- ``reference_to_csv``, the trace writer that tabled every column's
  field texts through ``np.unique``, phase strings included: the
  ``SparsityTrace.to_csv`` that tables phase by its codes and an integer
  column by its value range must write the same bytes.
- ``reference_group_label`` and ``reference_emit_report``, the report
  writer that joined each tuple label with ``"/".join(map(str, key))``
  and wrote every row through ``csv.writer``: ``emit_report`` must write
  the same CSV and JSON bytes.
- ``reference_sigmoid_np``, the branching sigmoid: the branch-free
  ``sigmoid_np`` must equal it bit for bit.
- ``reference_full_softmax_np``, the full softmax as a separate branch:
  ``softmax`` with no kept set, which runs the kept-set path over every
  entry, must equal it and its gradient y * (g - sum(g * y)) bit for bit.
- ``reference_softmax_np``, the masked softmax that zeroed masked entries
  by a boolean scatter, and ``reference_causal_attention``, the per-op tape
  chain (head split, scores, scale, ``mask_fill``, ``sentinel_softmax``,
  value product, merge): ``softmax_np`` over a kept set and the fused
  ``causal_attention`` must equal them bit for bit, gradients included.
- The sentinel encoding of a kept set, which the library used before its
  softmax took the set as a boolean array: ``NEG_SENTINEL`` (the
  most-negative finite float64), the ``mask_fill`` tape op that writes it
  outside the set, and ``sentinel_softmax`` / ``sentinel_softmax_np``, which
  find the set again by comparing every entry with it.
  ``reference_topk_route`` chains them after the router matmul, as
  ``topk_route`` did: ``topk_route`` must equal it bit for bit, gradients
  and signs of zero included.
- Greedy decoding that runs the whole window on every token: the
  last-position decode of ``sample_greedy`` is checked against it.
- The version-1 checkpoint writer (no vocabulary): the loader must keep
  reading its files.
- BEAM oracles: ``masked_aggregate`` (the per-expert tape composition of
  ghat = g * m), ``ste_backward`` (the closed-form mask-router gradient of
  criterion 2) and ``load_balance_loss`` over a plain top-k decision.
- ``beam_block_forward``: one ``beam`` block through the production
  ``baselines.block_forward``, returned with its top-k and mask decisions
  for the tests that inspect them.
- ``reference_masked_route``: the masked strategies' route as two chains,
  ``beam``'s and a separate soft-mask copy, with a one-hot balance set:
  ``baselines.route``, which runs every masked kind through
  ``beam.mask_forward`` and reuses ``topk_route``'s top-k set, must equal it
  bit for bit, gradients included.
- The inference path as it ran before its per-call overhead was cut:
  ``reference_grouped_execute`` (per-expert weight gather and zero check, a
  separate weighting product), ``reference_expert_forward_np`` (a fresh
  array per product), ``reference_causal_masks`` (``np.tri`` on every call),
  ``reference_rms_norm_np`` (``mean``) and ``reference_topk_keep`` /
  ``reference_candidate_bits`` (``put_along_axis`` / ``take_along_axis``).
  The library's versions must equal them bit for bit, signs of zero included.
- ``check_gradient``, the central-difference check of tape gradients
  (criterion 3's oracle).
- ``reference_group_slots``, the (T, N) boolean scatter split at the expert
  boundaries of ``np.nonzero(planned.T)``, which training used to group its
  slots by expert: ``moe.group_slots`` must give the same rows per expert.
- ``reference_write_trace``, the training-trace writer whose header and
  row format listed the eight columns by hand: ``trainer.write_trace``,
  which derives both from the ``TraceRow`` fields, must write the same bytes.
- ``reference_sample_batch`` and ``reference_eval_windows``, which built
  training batches and evaluation windows by stacking one slice per
  window: ``trainer.sample_batch``'s fancy index and ``trainer.evaluate``'s
  reshaped slices must give the same arrays.
- ``reference_dynamic_route``, ``moe_dynamic``'s own early-return route:
  the router matmul, the full softmax, ``mul`` by the top-p set, and the
  ``row_sum`` and ``div`` tape ops that renormalized it, with candidates in
  descending-probability order. ``baselines.route``, which asks
  ``topk_route`` for every expert and renormalizes with the kept-set
  softmax, must agree with it within two ulps of 1.
- ``reference_synthetic_text`` and ``reference_ingest_text``, the corpus
  builders that formed every character with ``chr(97 + int(c))`` and mapped
  text to ids through a dict lookup per character:
  ``trainer.synthetic_text``'s table lookups must give the same text and
  ``trainer.ingest_text``'s codepoint table the same ids and vocabulary.
- ``reference_moe_block_forward``, the block as 2 + 2 * ``num_shared`` tape
  nodes: ``grouped_glu`` (the routed slots as one node), an
  ``expert_forward`` node and an ``add`` per shared expert, and the residual
  ``add``. The one-node ``moe_block_forward`` must equal it bit for bit,
  every gradient and sign of zero included.
"""

import csv
import json
import struct
import zlib
from itertools import repeat
from operator import itemgetter

import numpy as np

from beamoe.analysis import GROUP_KEYS, PHASES, REPORT_HEADER, TRACE_HEADER, SparsityTrace
from beamoe.baselines import (
    RouteResult,
    RoutingStrategy,
    block_forward,
    dynamic_select,
    temperature_at,
)
from beamoe.beam import MaskDecision, mask_forward
from beamoe.moe import (
    Expert,
    MoEBlock,
    RouterDecision,
    balance_loss_from,
    expert_backward,
    expert_forward,
    expert_runs,
    group_slots,
    slot_weights,
    topk_route,
    topk_select,
)
from beamoe.tensor import (
    ContractError,
    NumericError,
    ShapeError,
    Tape,
    Tensor,
    _as_tensor,
    _record,
    _send,
    _unbroadcast,
    add,
    binarize_ste,
    matmul,
    mul,
    reshape,
    sigmoid,
    sigmoid_np,
    slice_cols,
    softmax,
    untaped,
)
from beamoe.trainer import CHECKPOINT_MAGIC, _record_routes


def reference_group_slots(ids: np.ndarray, num_experts: int) -> list[np.ndarray]:
    """Each expert's rows of a (T, C) id array (-1 is no slot), ascending.
    A token naming one expert twice is merged silently."""
    t = ids.shape[0]
    tokens, slots = np.nonzero(ids >= 0)
    planned = np.zeros((t, num_experts), dtype=bool)
    planned[tokens, ids[tokens, slots]] = True
    # (N, T) row-major nonzero: rows grouped by expert, ascending within each
    expert_of, rows = np.nonzero(planned.T)
    bounds = np.searchsorted(expert_of, np.arange(1, num_experts))
    return np.split(rows, bounds)


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


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    out = Tensor._raw(x.data.transpose(axes), x.requires_grad)
    inverse = tuple(np.argsort(axes))

    def rule(g, flow):
        _send(flow, x, g.transpose(inverse))

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


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    x = _as_tensor(x)
    s = sigmoid_np(x.data)
    out = Tensor._raw(x.data * s, x.requires_grad)
    x_data = x.data

    def rule(g, flow):
        _send(flow, x, g * s * (1.0 + x_data * (1.0 - s)), owned=True)

    _record(out, rule)
    return out


def reference_expert_forward(x: Tensor, expert: Expert, activation: str = "silu") -> Tensor:
    """(act(x @ W_gate) * (x @ W_up)) @ W_down as the taped chain matmul,
    act, matmul, mul, matmul, each op differentiated by its own rule."""
    act = {"silu": silu, "identity": lambda z: z}[activation]
    return matmul(mul(act(matmul(x, expert.w_gate)), matmul(x, expert.w_up)), expert.w_down)


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


def reference_from_csv(path) -> SparsityTrace:
    """Read a trace CSV with ``csv.reader`` and ``int()``, one row at a time."""
    numbers: list[int] = []  # row after row, every column but phase
    phases: list[str] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise ContractError(f"unexpected trace header in {path}")
        for lineno, row in enumerate(reader, start=2):
            try:
                seq, pos, layer, rank, expert, bit, phase, token = row
                values = (int(seq), int(pos), int(layer), int(rank), int(expert), int(bit), int(token))
            except ValueError:  # a wrong field count or a non-integer field
                raise ContractError(f"malformed trace row {lineno} in {path}")
            if phase not in PHASES:
                raise ContractError(f"malformed trace row {lineno} in {path}")
            if values[5] not in (0, 1):
                raise ContractError(f"mask_bit {values[5]} is not 0 or 1 in trace row {lineno} in {path}")
            numbers.extend(values)
            phases.append(phase)
    trace = SparsityTrace()
    if phases:
        names = [name for name in TRACE_HEADER if name != "phase"]
        table = np.fromiter(numbers, dtype=np.int64, count=len(numbers))
        columns = dict(zip(names, table.reshape(-1, len(names)).T.copy()))
        columns["phase"] = np.asarray(phases)
        trace._columns = {name: columns[name] for name in TRACE_HEADER}
        trace._rows = len(phases)
    return trace


def reference_to_csv(trace, path) -> None:
    """Write ``trace.arrays()`` as CSV, each column's distinct values
    formatted once after one ``np.unique`` per column."""
    columns = trace.arrays()
    texts, codes = [], []
    for name in TRACE_HEADER:
        end = "\r\n" if name == TRACE_HEADER[-1] else ","
        values, inverse = np.unique(columns[name], return_inverse=True)
        texts.append(np.array([f"{v}{end}" for v in values.tolist()], dtype=object))
        codes.append(inverse)
    with open(path, "w", newline="") as f:
        f.write(",".join(TRACE_HEADER) + "\r\n")
        if len(trace):
            fields = np.column_stack([text[code] for text, code in zip(texts, codes)])
            f.write("".join(fields.ravel().tolist()))


def reference_group_label(key) -> str:
    if isinstance(key, tuple):
        return "/".join(map(str, key))
    return str(key)


def reference_emit_report(metrics: dict[str, dict], fmt: str, path) -> None:
    """``emit_report`` with one ``csv.writer`` row and one label call per group."""
    if fmt == "csv":
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(REPORT_HEADER)
            for metric in sorted(metrics):
                groups = metrics[metric]
                rows = zip(
                    repeat(metric),
                    map(reference_group_label, groups),
                    ("" if v is None else repr(float(v)) for v in groups.values()),
                )
                w.writerows(sorted(rows, key=itemgetter(1)))
    else:
        payload = {
            metric: {reference_group_label(k): (None if v is None else float(v)) for k, v in groups.items()}
            for metric, groups in metrics.items()
        }
        with open(path, "w") as f:
            json.dump(payload, f, sort_keys=True, indent=2)
            f.write("\n")


def reference_sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function with a branch on the sign of x."""
    z = np.exp(-np.abs(x))
    t = 1.0 / (1.0 + z)
    return np.where(x >= 0, t, 1.0 - t)


def reference_full_softmax_np(x: np.ndarray) -> np.ndarray:
    """The full softmax as its own branch, shift by the row max, exp, divide."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_softmax_np(x: np.ndarray, masked_value: float) -> np.ndarray:
    """Masked softmax that zeroes masked entries by a boolean scatter."""
    masked = x == masked_value
    if masked.all(axis=-1).any():
        raise ContractError("softmax row with every entry masked")
    finite_max = np.where(masked, -np.inf, x).max(axis=-1, keepdims=True)
    e = np.exp(x - finite_max)
    e[masked] = 0.0
    return e / e.sum(axis=-1, keepdims=True)


# Stand-in for -inf in masked logits: most-negative finite float64, so exp()
# underflows to 0.0 instead of producing NaNs, and masked softmax can detect
# masked entries by exact comparison.
NEG_SENTINEL = np.finfo(np.float64).min


def mask_fill(x: Tensor, keep: np.ndarray, fill_value: float) -> Tensor:
    """Replace entries where ``keep`` is False by a constant."""
    x = _as_tensor(x)
    keep = np.asarray(keep, dtype=bool)
    out = Tensor._raw(np.where(keep, x.data, fill_value), x.requires_grad)

    def rule(g, flow):
        _send(flow, x, np.where(keep, g, 0.0), owned=True)

    _record(out, rule)
    return out


def sentinel_softmax_np(x: np.ndarray, masked_value: float) -> np.ndarray:
    """Softmax over the last axis that skips entries equal to ``masked_value``."""
    masked = x == masked_value
    if masked.all(axis=-1).any():
        raise ContractError("softmax row with every entry masked")
    # masked entries become -inf, and exp(-inf) is exactly 0
    z = np.where(masked, -np.inf, x)
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def sentinel_softmax(x: Tensor, masked_value: float) -> Tensor:
    """Softmax over the last axis; entries equal to ``masked_value`` map to
    exactly 0 probability and receive zero gradient."""
    x = _as_tensor(x)
    y = sentinel_softmax_np(x.data, masked_value)
    out = Tensor._raw(y, x.requires_grad)

    def rule(g, flow):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _send(flow, x, y * (g - dot), owned=True)

    _record(out, rule)
    return out


def reference_topk_route(x: Tensor, router_weights: Tensor, k: int) -> RouterDecision:
    """``topk_route`` as the matmul, ``mask_fill`` and sentinel-softmax chain:
    the logits outside each token's top-k set are overwritten with
    ``NEG_SENTINEL``, which the softmax then maps to exactly 0."""
    logits = matmul(x, router_weights)
    idx = topk_select(logits.data, k)
    keep = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(keep, idx, True, axis=-1)
    masked = mask_fill(logits, keep, NEG_SENTINEL)
    weights = sentinel_softmax(masked, masked_value=NEG_SENTINEL)
    return RouterDecision(logits=logits, topk_indices=idx, weights=weights, keep=keep)


def reference_causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Causal multi-head attention as a chain of tape ops; q is (B, Tq, D)
    for the last Tq positions, k and v are (B, T, D)."""
    b, tq, d = q.shape
    t = k.shape[1]
    hd = d // n_heads

    def heads(z, n):
        return transpose(reshape(z, (b, n, n_heads, hd)), (0, 2, 1, 3))

    q, k, v = heads(q, tq), heads(k, t), heads(v, t)
    scores = mul(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(hd))
    causal = np.tril(np.ones((t, t), dtype=bool))[t - tq :]
    weights = sentinel_softmax(mask_fill(scores, causal, NEG_SENTINEL), masked_value=NEG_SENTINEL)
    out = transpose(matmul(weights, v), (0, 2, 1, 3))
    return reshape(out, (b, tq, d))


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


def lexsort_cell_index(arr: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Unique (sequence, position, layer) cells and each row's cell number, by
    a ``lexsort`` of the three columns and a boundary diff over each."""
    keys = (arr["sequence_id"], arr["position"], arr["layer"])
    order = np.lexsort(keys[::-1])
    sorted_keys = [key[order] for key in keys]
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for key in sorted_keys:
        starts[1:] |= key[1:] != key[:-1]
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    cells = np.stack([key[starts] for key in sorted_keys], axis=1)
    return cells, inverse


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


def masked_aggregate(
    weights: Tensor, mask: Tensor, expert_outputs: list[Tensor]
) -> tuple[Tensor, Tensor]:
    """ghat = g * m (no renormalization); y = sum_i ghat_i * output_i."""
    ghat = mul(weights, mask)
    y: Tensor | None = None
    for i, out_i in enumerate(expert_outputs):
        term = mul(slice_cols(ghat, i, i + 1), out_i)
        y = term if y is None else add(y, term)
    return ghat, y


def ste_backward(
    upstream: np.ndarray,
    weights: np.ndarray,
    decision: MaskDecision,
    beta: float,
    k: int,
) -> np.ndarray:
    """Closed-form mask-router gradient; independent of the tape.

    For the loss  L = L_task + beta * sparsity_loss  the gradient at each
    pre-activation is

        dL/da_i = (dL_task/dghat_i * g_i + beta/(K*T) * [i in candidates]) * sigma'(a_i)

    with the binarizer treated as identity. ``upstream`` is dL_task/dghat.
    The candidate indicator is recoverable from the weights: they are strictly
    positive exactly on each token's top-k set. Outside it both terms vanish,
    so masked-out experts receive no learning signal at all.
    """
    if beta < 0:
        raise ContractError("beta must be non-negative")
    t = upstream.shape[0]
    indicator = (weights > 0.0).astype(np.float64)
    s = sigmoid_np(decision.pre_activation.data)
    return (upstream * weights + (beta / (k * t)) * indicator) * (s * (1.0 - s))


def load_balance_loss(decision: RouterDecision) -> Tensor:
    active = np.zeros(decision.weights.shape, dtype=bool)
    np.put_along_axis(active, decision.topk_indices, True, axis=-1)
    return balance_loss_from(decision.logits, active)


def beam_block_forward(
    h: Tensor, block: MoEBlock, training: bool = True
) -> tuple[Tensor, RouterDecision, MaskDecision]:
    """``baselines.block_forward`` under ``beam`` at the block's own tau,
    with the top-k and mask decisions recomputed from the same input."""
    strategy = RoutingStrategy("beam", {"tau": block.mask_router.tau})
    out, _ = block_forward(h, block, strategy, training)
    x_n = block.normalize(h)
    decision = topk_route(x_n, block.router_w, block.cfg.top_k)
    return out, decision, mask_forward(x_n, block.mask_router)


def reference_masked_route(
    block, x_norm, strategy, training, step=0, total_steps=1, binarize_soft=False
) -> RouteResult:
    """``baselines.route`` for ``beam``, ``soft_mask`` and
    ``soft_mask_tempered``. ``beam``: sigmoid(x W), a straight-through
    binary mask, bits from it. Soft kinds: sigmoid(mul(x W, 1 / temp)), a
    straight-through binary mask only when discretized (inference, tempered
    or ``binarize_soft``), bits from raw >= tau when training or
    discretized. The balance set is a one-hot of the top-k ids."""
    kind, tau = strategy.kind, block.mask_router.tau
    dec = topk_route(x_norm, block.router_w, block.cfg.top_k)
    ids = dec.topk_indices
    balance_active = np.zeros(dec.logits.shape, dtype=bool)
    np.put_along_axis(balance_active, ids, True, axis=-1)
    bits = np.ones(ids.shape, dtype=np.int64)
    if kind == "beam":
        raw = sigmoid(matmul(x_norm, block.mask_router.weight))
        mask = binarize_ste(raw, tau)
        weights_hat = mul(dec.weights, mask)
        bits = np.take_along_axis(mask.data.astype(np.int64), ids, axis=-1)
    else:
        temp = 1.0
        if kind == "soft_mask_tempered":
            floor = strategy.params.get("temp_floor", 0.1)
            temp = temperature_at(step, total_steps, floor) if training else floor
        raw = sigmoid(mul(matmul(x_norm, block.mask_router.weight), 1.0 / temp))
        discretize = not training and (kind == "soft_mask_tempered" or binarize_soft)
        weights_hat = mul(dec.weights, binarize_ste(raw, tau) if discretize else raw)
        if training or discretize:
            bits = np.take_along_axis((raw.data >= tau).astype(np.int64), ids, axis=-1)
    return RouteResult(
        weights_hat=weights_hat,
        logits=dec.logits,
        balance_active=balance_active,
        candidate_ids=ids,
        active_bits=bits,
        raw_mask=raw,
    )


def _item(t: Tensor) -> float:
    return float(t.data.reshape(-1)[0])


def check_gradient(
    f,
    params: list[Tensor],
    epsilon: float = 1e-5,
    rng: np.random.Generator | None = None,
    max_coords: int | None = None,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` takes no arguments, reads the current contents of ``params``, and
    returns a scalar Tensor. Coordinates are exhaustive unless ``max_coords``
    caps the per-parameter sample (drawn from ``rng``).
    """
    if epsilon <= 0:
        raise ContractError("epsilon must be positive")
    saved = [p.grad for p in params]
    for p in params:
        p.grad = None
    with Tape() as tape:
        out = f()
        if out.data.size != 1:
            raise ShapeError("check_gradient needs a scalar-valued function")
        if not np.isfinite(out.data):
            raise NumericError("function value is not finite")
        tape.backward(out)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]
    for p, g in zip(params, saved):
        p.grad = g

    worst = 0.0
    for p, ana in zip(params, analytic):
        n = p.data.size
        if max_coords is not None and n > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        flat = p.data.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + epsilon
            hi = _item(f())
            flat[c] = orig - epsilon
            lo = _item(f())
            flat[c] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericError("function value is not finite under perturbation")
            fd = (hi - lo) / (2.0 * epsilon)
            err = abs(ana.reshape(-1)[c] - fd) / (abs(fd) + 1e-8)
            worst = max(worst, err)
    return worst


def div(a, b) -> Tensor:
    """Elementwise a / b as a tape op."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor._raw(a.data / b.data, a.requires_grad or b.requires_grad)
    a_data, b_data = a.data, b.data

    def rule(g, flow):
        _send(flow, a, _unbroadcast(g / b_data, a_data.shape), owned=True)
        _send(flow, b, _unbroadcast(-g * a_data / (b_data * b_data), b_data.shape), owned=True)

    _record(out, rule)
    return out


def row_sum(x: Tensor) -> Tensor:
    """Sum over the last axis, kept as a length-1 axis: ``tsum``'s former
    ``keepdims=True``."""
    x = _as_tensor(x)
    out = Tensor._raw(x.data.sum(axis=-1, keepdims=True), x.requires_grad)
    shape = x.data.shape

    def rule(g, flow):
        _send(flow, x, np.broadcast_to(g, shape).copy(), owned=True)

    _record(out, rule)
    return out


def reference_dynamic_route(block, x_norm, strategy, training, *args, **kwargs) -> RouteResult:
    """``baselines.route`` for ``moe_dynamic`` as its own chain: the full
    softmax, zeroed outside the top-p set by ``mul``, divided by its row sum.
    Every expert is a candidate, in descending-probability order."""
    logits = matmul(x_norm, block.router_w)
    probs = softmax(logits)
    active = dynamic_select(probs.data, strategy.params.get("phi", 0.5))
    masked = mul(probs, Tensor._raw(active.astype(np.float64)))
    order = topk_select(probs.data, block.cfg.num_experts)
    return RouteResult(
        weights_hat=div(masked, row_sum(masked)),
        logits=logits,
        balance_active=active,
        candidate_ids=order,
        active_bits=np.take_along_axis(active, order, axis=-1).astype(np.int64),
    )


def reference_expert_forward_np(x: np.ndarray, expert: Expert, activation: str = "silu") -> np.ndarray:
    """act(x @ W_gate) * (x @ W_up) @ W_down, each product a fresh array."""
    act = {"silu": lambda z: z * sigmoid_np(z), "identity": lambda z: z}[activation]
    return (act(x @ expert.w_gate.data) * (x @ expert.w_up.data)) @ expert.w_down.data


def reference_grouped_execute(h, plan, experts, weights_hat, activation="silu"):
    """Each expert's weights gathered and checked for zeros as it runs, its
    output weighted by a separate product before the scatter."""
    if int(np.count_nonzero(weights_hat)) != plan.total_real:
        raise ContractError("weights_hat nonzero count disagrees with plan slots")
    y = np.zeros_like(h)
    for e, rows in expert_runs(plan.offsets, plan.token_order):
        w = weights_hat[rows, e]
        if np.any(w == 0.0):
            raise ContractError(f"plan routes a zero-weight slot to expert {e}")
        out = reference_expert_forward_np(h[rows], experts[e], activation)
        y[rows] += out * w[:, None]
    return y


def reference_causal_masks(t: int, tq: int) -> tuple[np.ndarray, np.ndarray]:
    """(seen, future) of the last tq of t positions, built by ``np.tri``."""
    seen = np.tri(t, dtype=bool)[t - tq :]
    return seen, ~seen


def reference_rms_norm_np(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """The forward value of ``rms_norm``, its mean square taken by ``mean``."""
    ms = (x * x).mean(axis=-1, keepdims=True) + eps
    return x * ms**-0.5 * weight


def reference_topk_keep(idx: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The boolean top-k set of (T, k) indices, set by ``put_along_axis``."""
    keep = np.zeros(shape, dtype=bool)
    np.put_along_axis(keep, idx, True, axis=-1)
    return keep


def reference_candidate_bits(active: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Each candidate slot's entry of a (T, N) array, by ``take_along_axis``."""
    return np.take_along_axis(active, ids, axis=-1)


def reference_write_trace(rows, path) -> None:
    with open(path, "w") as f:
        f.write(
            "step,lm_loss,bal_loss,reg_loss,total_loss,expert_active_rate,learning_rate,grad_norm\n"
        )
        for r in rows:
            f.write(
                f"{r.step},{r.lm_loss!r},{r.bal_loss!r},{r.reg_loss!r},"
                f"{r.total_loss!r},{r.expert_active_rate!r},{r.learning_rate!r},"
                f"{r.grad_norm!r}\n"
            )


def reference_sample_batch(ids, context, batch_size, rng):
    starts = rng.integers(0, len(ids) - context, size=batch_size)
    x = np.stack([ids[s : s + context] for s in starts])
    y = np.stack([ids[s + 1 : s + context + 1] for s in starts])
    return x, y


def reference_eval_windows(corpus_ids, t, start, count):
    xs = np.stack([corpus_ids[i * t : i * t + t] for i in range(start, start + count)])
    ys = np.stack([corpus_ids[i * t + 1 : i * t + t + 1] for i in range(start, start + count)])
    return xs, ys


def reference_synthetic_text(length: int, seed: int) -> str:
    """Seeded mixture of predictable structure and noise.

    Arithmetic facts and repeated n-grams are highly predictable once
    learned; the random-letter runs are not. The mix gives per-token
    difficulty variation, which is what makes learned masking interesting.
    """
    if length < 1:
        raise ContractError("synthetic corpus length must be positive")
    rng = np.random.default_rng(seed)
    words = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "to", "sun"]
    parts: list[str] = []
    total = 0
    while total < length:
        kind = int(rng.integers(0, 4))
        if kind == 0:
            a, b = int(rng.integers(0, 50)), int(rng.integers(0, 50))
            s = f"{a}+{b}={a + b};"
        elif kind == 1:
            pat = "".join(chr(97 + int(c)) for c in rng.integers(0, 26, rng.integers(2, 5)))
            s = pat * int(rng.integers(3, 8)) + " "
        elif kind == 2:
            s = " ".join(words[int(i)] for i in rng.integers(0, len(words), rng.integers(3, 7)))
            s += ". "
        else:
            s = "".join(chr(97 + int(c)) for c in rng.integers(0, 26, rng.integers(3, 10)))
            s += " "
        parts.append(s)
        total += len(s)
    return "".join(parts)[:length]


def reference_ingest_text(text: str) -> tuple[np.ndarray, list[str]]:
    """Character-level ids plus the sorted-unique-character vocabulary."""
    if not text:
        raise ContractError("empty corpus")
    vocab = sorted(set(text))
    lookup = {ch: i for i, ch in enumerate(vocab)}
    ids = np.fromiter((lookup[ch] for ch in text), dtype=np.int64, count=len(text))
    return ids, vocab


def grouped_glu(
    x: Tensor,
    weights_hat: Tensor,
    slot_w: np.ndarray,
    offsets: np.ndarray,
    token_order: np.ndarray,
    experts: list[Expert],
    activation: str = "silu",
) -> Tensor:
    """y[r] = sum_e ghat[r, e] * E_e(x[r]) over each expert's rows, as one
    tape node.

    Expert e's rows, ``token_order[offsets[e]:offsets[e + 1]]`` from
    ``group_slots``, run through ``expert_forward`` with recording suspended,
    weighted by ``slot_w`` from ``slot_weights``; y accumulates in ascending
    expert order. In the backward the weight gradient (g[r] . E_e(x[r]))
    reaches every slot, zero-weight ones included (the straight-through mask
    needs it), while ``expert_backward`` differentiates the expert weights
    and x on the slots with a nonzero weight only.
    """
    y = np.zeros(x.shape)
    saved = []  # (expert id, rows, weights, outputs)
    bounds = offsets.tolist()
    with untaped():
        for e, rows in expert_runs(offsets, token_order):
            w = slot_w[bounds[e] : bounds[e + 1]]
            o = expert_forward(Tensor._raw(x.data[rows]), experts[e], activation).data
            y[rows] += o * w[:, None]
            saved.append((e, rows, w, o))
    requires_grad = (
        x.requires_grad
        or weights_hat.requires_grad
        or any(p.requires_grad for e, *_ in saved for p in experts[e].tensors())
    )
    out = Tensor._raw(y, requires_grad)

    def rule(g, flow):
        g_weights = np.zeros(weights_hat.shape)
        gx = np.zeros(x.shape)
        for e, rows, w, o in saved:
            g_rows = g[rows]
            g_weights[rows, e] = (g_rows * o).sum(axis=-1)
            live = w != 0.0
            live_rows = rows[live]
            g_out = g_rows[live] * w[live, None]
            gx[live_rows] += expert_backward(x.data[live_rows], g_out, experts[e], activation, flow)
        _send(flow, weights_hat, g_weights, owned=True)
        _send(flow, x, gx, owned=True)

    _record(out, rule)
    return out


def reference_moe_block_forward(
    h: Tensor,
    weights_hat: Tensor,
    experts: list[Expert],
    shared_experts: list[Expert] = (),
    *,
    compute_ids: np.ndarray,
    x_norm: Tensor | None = None,
    activation: str = "silu",
) -> Tensor:
    """The block as 2 + 2 * len(shared_experts) tape nodes: ``grouped_glu``
    over the routed slots, one ``expert_forward`` node and one ``add`` per
    shared expert, and the residual ``add``."""
    t = h.shape[0]
    n = len(experts)
    if weights_hat.shape != (t, n):
        raise ShapeError("weights_hat must be (tokens, num_experts)")
    slot_ids = np.asarray(compute_ids, dtype=np.int64)
    if slot_ids.ndim != 2 or slot_ids.shape[0] != t:
        raise ShapeError("compute_ids must be (tokens, slots)")
    offsets, token_order = group_slots(slot_ids, n)
    slot_w = slot_weights(weights_hat.data, offsets, token_order)

    x_norm = h if x_norm is None else x_norm

    y: Tensor | None = None
    if token_order.size:
        y = grouped_glu(x_norm, weights_hat, slot_w, offsets, token_order, experts, activation)
    for e in shared_experts:
        so = expert_forward(x_norm, e, activation)
        y = so if y is None else add(y, so)

    if y is None:
        return h
    return add(h, y)
