"""Sparsity metrics over recorded routing traces, FLOPs accounting, and
deterministic report emission."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .tensor import ContractError

PHASES = ("prefill", "decode")
TRACE_HEADER = ["sequence_id", "position", "layer", "rank", "expert_id", "mask_bit", "phase", "token_id"]
_INT_COLUMNS = [name for name in TRACE_HEADER if name != "phase"]
_BITS = frozenset((0, 1))
GROUP_KEYS = ("overall", "layer", "token_position", "phase", "token_id", "token_layer")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _per_cell(value, n: int):
    """A per-cell field of a recorded block: an int, or an int64 array of n."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    column = np.array(value, dtype=np.int64)
    if column.ndim == 0:
        return int(column)
    if column.shape != (n,):
        raise ContractError(f"per-cell field of shape {column.shape} for {n} cells")
    return column


def _block_columns(n, sequence_id, position, layer, expert_ids, mask_bits, phase, token_id):
    """Row columns of one recorded block: cell-major, ranks 1..K in a cell."""
    k = expert_ids.shape[-1]

    def per_row(value):
        return np.repeat(np.broadcast_to(np.asarray(value, dtype=np.int64), (n,)), k)

    return {
        "sequence_id": per_row(sequence_id),
        "position": per_row(position),
        "layer": np.full(n * k, layer, dtype=np.int64),
        "rank": np.tile(np.arange(1, k + 1, dtype=np.int64), n),
        "expert_id": expert_ids.reshape(-1),
        "mask_bit": mask_bits.reshape(-1).astype(np.int64),
        "phase": np.full(n * k, phase),
        "token_id": per_row(token_id),
    }


class SparsityTrace:
    """Long-format record of routing decisions: one row per candidate rank.

    Every (sequence, position, layer) cell carries exactly K rows, rank 1
    being the highest-weight candidate. ``expert_id`` is -1 for slots that
    route to nothing (null experts); ``mask_bit`` says whether the slot
    actually executed.

    Rows are numpy columns, one per ``TRACE_HEADER`` field. ``record_cell``
    only queues a copy of its block; the first read (``arrays()``, a column
    attribute, ``k``, ``to_csv``) appends the queue to the columns, which
    stay cached and read-only until the next ``record_cell``.
    """

    def __init__(self):
        self._columns: dict[str, np.ndarray] | None = None
        self._pending: list[tuple] = []
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    def record_cell(self, sequence_id, position, layer, expert_ids, mask_bits, phase, token_id):
        """Record one cell, or a block of n cells of one layer and phase.

        ``expert_ids`` and ``mask_bits`` have shape (K,) for one cell or
        (n, K) for n cells, ranks in order; ``sequence_id``, ``position`` and
        ``token_id`` are scalars or hold one entry per cell.
        """
        if phase not in PHASES:
            raise ContractError(f"unknown phase {phase!r}")
        expert_ids = np.array(expert_ids, dtype=np.int64)
        mask_bits = np.array(mask_bits)
        if expert_ids.shape != mask_bits.shape or expert_ids.ndim not in (1, 2):
            raise ContractError(
                f"expert_ids {expert_ids.shape} and mask_bits {mask_bits.shape}"
                " must share one (K,) or (n, K) shape"
            )
        if not _BITS.issuperset(mask_bits.ravel().tolist()):
            raise ContractError("mask_bits must be 0 or 1")
        n = len(expert_ids) if expert_ids.ndim == 2 else 1
        block = (
            n,
            _per_cell(sequence_id, n),
            _per_cell(position, n),
            int(layer),
            expert_ids,
            mask_bits,
            phase,
            _per_cell(token_id, n),
        )
        if expert_ids.size:
            self._pending.append(block)
            self._rows += expert_ids.size

    def _consolidated(self) -> dict[str, np.ndarray]:
        if self._pending:
            blocks = [_block_columns(*block) for block in self._pending]
            if self._columns is not None:
                blocks.insert(0, self._columns)
            self._columns = {
                name: _frozen(np.concatenate([b[name] for b in blocks])) for name in TRACE_HEADER
            }
            self._pending = []
        elif self._columns is None:
            self._columns = {name: _frozen(np.zeros(0, dtype=np.int64)) for name in TRACE_HEADER}
            self._columns["phase"] = _frozen(np.zeros(0, dtype=str))
        return self._columns

    def arrays(self) -> dict[str, np.ndarray]:
        """The columns by name: int64, and a str array for ``phase``. The
        arrays are read-only views of the trace's own storage."""
        return dict(self._consolidated())

    sequence_id = property(lambda self: self._consolidated()["sequence_id"])
    position = property(lambda self: self._consolidated()["position"])
    layer = property(lambda self: self._consolidated()["layer"])
    rank = property(lambda self: self._consolidated()["rank"])
    expert_id = property(lambda self: self._consolidated()["expert_id"])
    mask_bit = property(lambda self: self._consolidated()["mask_bit"])
    phase = property(lambda self: self._consolidated()["phase"])
    token_id = property(lambda self: self._consolidated()["token_id"])

    @property
    def k(self) -> int:
        return int(self.rank.max()) if self._rows else 0

    def to_csv(self, path) -> None:
        columns = self._consolidated()
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(TRACE_HEADER)
            w.writerows(zip(*(columns[name].tolist() for name in TRACE_HEADER)))

    @classmethod
    def from_csv(cls, path) -> "SparsityTrace":
        numbers: list[int] = []  # row after row, every column but phase
        phases: list[str] = []
        extend, append = numbers.extend, phases.append
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header != TRACE_HEADER:
                raise ContractError(f"unexpected trace header in {path}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    seq, pos, layer, rank, expert, bit, phase, token = row
                    values = (
                        int(seq), int(pos), int(layer), int(rank), int(expert), int(bit), int(token)
                    )
                except ValueError:  # a wrong field count or a non-integer field
                    raise ContractError(f"malformed trace row {lineno} in {path}")
                if phase not in PHASES:
                    raise ContractError(f"malformed trace row {lineno} in {path}")
                if values[5] not in (0, 1):
                    raise ContractError(
                        f"mask_bit {values[5]} is not 0 or 1 in trace row {lineno} in {path}"
                    )
                extend(values)
                append(phase)
        trace = cls()
        if phases:
            table = np.fromiter(numbers, dtype=np.int64, count=len(numbers))
            columns = dict(zip(_INT_COLUMNS, table.reshape(-1, len(_INT_COLUMNS)).T.copy()))
            columns["phase"] = np.asarray(phases)
            trace._columns = {name: _frozen(columns[name]) for name in TRACE_HEADER}
            trace._rows = len(phases)
        return trace


def _require_nonempty(trace: SparsityTrace) -> dict[str, np.ndarray]:
    if len(trace) == 0:
        raise ContractError("empty trace")
    return trace.arrays()


def _cell_index(arr: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Unique (sequence, position, layer) cells in lexicographic order, and
    each row's cell number: what ``np.unique(keys, axis=0,
    return_inverse=True)`` gives, by one ``lexsort`` and a boundary diff."""
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


def avg_k(trace: SparsityTrace, group_by: str = "overall") -> dict:
    """Mean activated experts per (token, layer) cell, grouped.

    Group keys: overall, layer, token_position, phase, token_id, and
    token_layer (per-cell counts keyed by (sequence, position, layer),
    the heatmap data).
    """
    if group_by not in GROUP_KEYS:
        raise ContractError(f"unknown group key {group_by!r}; valid: {GROUP_KEYS}")
    arr = _require_nonempty(trace)
    cells, inverse = _cell_index(arr)
    counts = np.bincount(inverse, weights=arr["mask_bit"].astype(np.float64))

    if group_by == "token_layer":
        return dict(zip(map(tuple, cells.tolist()), counts.tolist()))
    if group_by == "overall":
        return {"overall": float(counts.mean())}

    column = {"layer": 2, "token_position": 1}.get(group_by)
    if column is not None:
        cell_keys = cells[:, column]
    else:
        # phase / token_id are rank-row attributes, constant within a cell
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


def position_mask_prob(trace: SparsityTrace) -> dict[int, float]:
    """Per routing rank, the fraction of cells whose slot was masked off."""
    arr = _require_nonempty(trace)
    out = {}
    for rank in range(1, trace.k + 1):
        sel = arr["rank"] == rank
        out[rank] = float((arr["mask_bit"][sel] == 0).mean())
    return out


def rank_extremes(trace: SparsityTrace) -> dict[int, tuple[int | None, int | None]]:
    """Per layer: (lowest rank ever masked, highest rank ever kept).

    Overlap (min_masked <= max_kept) means masking ignores routing rank.
    A layer that never masks reports None for the masked side.
    """
    arr = _require_nonempty(trace)
    out = {}
    for layer in np.unique(arr["layer"]):
        sel = arr["layer"] == layer
        masked = arr["rank"][sel & (arr["mask_bit"] == 0)]
        kept = arr["rank"][sel & (arr["mask_bit"] == 1)]
        out[int(layer)] = (
            int(masked.min()) if masked.size else None,
            int(kept.max()) if kept.size else None,
        )
    return out


def expert_load(trace: SparsityTrace) -> tuple[dict[int, float], dict[int, float]]:
    """Per-expert fraction of routed slots, before and after masking.

    Null slots (expert_id -1) are not routed work and are excluded. Each
    distribution sums to 1 when any slot qualifies.
    """
    arr = _require_nonempty(trace)
    routed = arr["expert_id"] >= 0
    kept = routed & (arr["mask_bit"] == 1)

    def _dist(sel):
        ids = arr["expert_id"][sel]
        if ids.size == 0:
            return {}
        counts = np.bincount(ids)
        return {int(e): float(c) / ids.size for e, c in enumerate(counts) if c}

    return _dist(routed), _dist(kept)


# ---------------------------------------------------------------------------
# FLOPs accounting
# ---------------------------------------------------------------------------


@dataclass
class FlopsModel:
    d_h: int
    d_ff: int
    num_experts: int
    top_k: int
    num_shared: int
    avg_k: float

    def __post_init__(self):
        if not 0.0 <= self.avg_k <= self.top_k:
            raise ContractError("avg_k must lie in [0, K]")


@dataclass
class FlopsReport:
    routed_flops_per_token_full: float
    routed_flops_per_token_actual: float
    routed_reduction: float
    layer_flops_per_token_full: float
    layer_flops_per_token_actual: float
    layer_reduction: float
    router_overhead_flops: float  # primary + mask router matmuls, per token


def flops_reduction(model: FlopsModel) -> FlopsReport:
    """Per-token FLOPs with multiply-adds counted as 2 FLOPs.

    One expert costs three d_h*d_ff matmuls. The routed reduction is the
    algebraic identity 1 - avg_k/K; the whole-layer numbers fold the shared
    experts (unmaskable compute) into both sides. Router matmul overhead is
    reported separately: it is what masking adds on top of the layer.
    """
    per_expert = 2.0 * 3.0 * model.d_h * model.d_ff
    routed_full = model.top_k * per_expert
    routed_actual = model.avg_k * per_expert
    layer_full = routed_full + model.num_shared * per_expert
    layer_actual = routed_actual + model.num_shared * per_expert
    return FlopsReport(
        routed_flops_per_token_full=routed_full,
        routed_flops_per_token_actual=routed_actual,
        routed_reduction=1.0 - model.avg_k / model.top_k,
        layer_flops_per_token_full=layer_full,
        layer_flops_per_token_actual=layer_actual,
        layer_reduction=1.0 - layer_actual / layer_full,
        router_overhead_flops=2.0 * 2.0 * model.d_h * model.num_experts,
    )


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

REPORT_HEADER = ["metric", "group", "value"]


def _group_label(key) -> str:
    if isinstance(key, tuple):
        return "/".join(str(k) for k in key)
    return str(key)


def emit_report(metrics: dict[str, dict], fmt: str, path) -> None:
    """Write {metric: {group: value}} as CSV or JSON.

    Field order is sorted and stable, so identical metrics produce byte-
    identical files. ``parse_report`` inverts the CSV form.
    """
    if fmt == "csv":
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(REPORT_HEADER)
            for metric in sorted(metrics):
                groups = metrics[metric]
                for key in sorted(groups, key=_group_label):
                    value = groups[key]
                    w.writerow([metric, _group_label(key), "" if value is None else repr(float(value))])
    elif fmt == "json":
        payload = {
            metric: {
                _group_label(k): (None if v is None else float(v))
                for k, v in groups.items()
            }
            for metric, groups in metrics.items()
        }
        with open(path, "w") as f:
            json.dump(payload, f, sort_keys=True, indent=2)
            f.write("\n")
    else:
        raise ContractError(f"unknown report format {fmt!r}")


def parse_report(path) -> dict[str, dict[str, float | None]]:
    out: dict[str, dict] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != REPORT_HEADER:
            raise ContractError("unexpected report header")
        for metric, group, value in reader:
            out.setdefault(metric, {})[group] = None if value == "" else float(value)
    return out
