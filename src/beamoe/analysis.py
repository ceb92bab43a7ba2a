"""Sparsity metrics over recorded routing traces, FLOPs accounting, and
deterministic report emission."""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

import numpy as np

from .tensor import ContractError

PHASES = ("prefill", "decode")
TRACE_HEADER = ["sequence_id", "position", "layer", "rank", "expert_id", "mask_bit", "phase", "token_id"]
_INT_COLUMNS = [name for name in TRACE_HEADER if name != "phase"]
_BITS = frozenset((0, 1))
GROUP_KEYS = ("overall", "layer", "token_position", "phase", "token_id", "token_layer")

# rows formatted or parsed per numpy pass in the CSV round trip: bounds the
# temporaries, which at a whole 131k-row trace raised peak RSS by ~70 MB
_CSV_CHUNK_ROWS = 16384
_HEADER_LINE = ",".join(TRACE_HEADER).encode()
_NEWLINE, _CR, _COMMA, _MINUS, _ZERO = b"\n\r,-0"
_PLACES = 19  # decimal places of int64's largest magnitude, 2**63


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _integers(value, name: str) -> np.ndarray:
    """A recorded field as a new int64 array; ``from_csv`` rejects non-integers too."""
    array = np.asarray(value)
    if array.dtype.kind not in "iu" and array.size:
        raise ContractError(f"{name} must be integers, got {array.dtype}")
    if array.dtype == np.uint64 and array.size and array.max() > np.iinfo(np.int64).max:
        raise ContractError(f"{name} must be below 2**63, got {array.max()}")
    return array.astype(np.int64)


def _per_cell(value, n: int, name: str):
    """A per-cell field of a recorded block: an int, or an int64 array of n."""
    column = _integers(value, name)
    if column.ndim == 0:
        return int(column)
    if column.shape != (n,):
        raise ContractError(f"per-cell field of shape {column.shape} for {n} cells")
    return column


def _block_columns(n, sequence_id, position, layer, expert_ids, mask_bits, phase_code, token_id):
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
        "phase": np.full(n * k, phase_code, dtype=np.uint8),
        "token_id": per_row(token_id),
    }


def _phase_names(codes: np.ndarray) -> np.ndarray:
    """The phase strings of uint8 codes: as wide as the widest name present,
    ``<U1`` when none is, the dtype ``np.asarray`` gives the strings."""
    present = np.bincount(codes, minlength=len(PHASES)).astype(bool)
    width = max((len(name) for name, seen in zip(PHASES, present) if seen), default=1)
    return np.array(PHASES, dtype=f"<U{width}")[codes]


def _text_table(column: np.ndarray, end: str) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct field text of a column, followed by ``end``, and each
    row's index into them. Phase codes index ``PHASES``; an integer column
    whose value range is smaller than its row count is tabled over that
    range (``codes = column - min``), any other through ``np.unique``."""
    if column.dtype == np.uint8:
        return np.array([f"{name}{end}" for name in PHASES], dtype=object), column.astype(np.intp)
    lo, hi = int(column.min()), int(column.max())
    if hi - lo < len(column):
        values, codes = range(lo, hi + 1), column - lo  # may wrap in int64, lands in [0, hi - lo]
    else:
        unique, codes = np.unique(column, return_inverse=True)
        values = unique.tolist()
    return np.array([f"{v}{end}" for v in values], dtype=object), codes


class SparsityTrace:
    """Long-format record of routing decisions: one row per candidate rank.

    Every (sequence, position, layer) cell carries exactly K rows, rank 1
    being the highest-weight candidate. ``expert_id`` is -1 for slots that
    route to nothing (null experts); ``mask_bit`` says whether the slot
    actually executed.

    Rows are numpy columns, one per ``TRACE_HEADER`` field: int64, except
    ``phase``, which is stored as a uint8 index into ``PHASES`` whether the
    rows were recorded or parsed. ``record_cell`` only queues a copy of its
    block; the first read (``arrays()``, a column attribute, ``k``,
    ``to_csv``, a metric) appends the queue to the columns, which stay cached
    and read-only until the next ``record_cell``. The phase strings are
    decoded once per such consolidation, on the first read that asks for
    them (``arrays()`` or ``.phase``), and the (sequence, position, layer)
    cell index once, on the first ``avg_k``.
    """

    def __init__(self):
        self._rows = 0
        empty = {name: np.zeros(0, np.uint8 if name == "phase" else np.int64) for name in TRACE_HEADER}
        self._set_columns(empty)

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
        expert_ids = _integers(expert_ids, "expert_ids")
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
            _per_cell(sequence_id, n, "sequence_id"),
            _per_cell(position, n, "position"),
            int(_integers(layer, "layer")),
            expert_ids,
            mask_bits,
            PHASES.index(phase),
            _per_cell(token_id, n, "token_id"),
        )
        if expert_ids.size:
            self._pending.append(block)
            self._rows += expert_ids.size

    def _consolidated(self) -> dict[str, np.ndarray]:
        """The stored columns, phase as codes, with the queue appended."""
        if self._pending:
            blocks = [self._stored, *(_block_columns(*block) for block in self._pending)]
            self._set_columns({name: np.concatenate([b[name] for b in blocks]) for name in TRACE_HEADER})
        return self._stored

    def _set_columns(self, stored: dict[str, np.ndarray]) -> None:
        """Store new columns, phase as codes, and drop what was derived from
        the old ones: the decoded columns and the cell index."""
        self._stored = {name: _frozen(column) for name, column in stored.items()}
        self._columns: dict[str, np.ndarray] | None = None  # arrays(), phase as strings
        self._cells: tuple[np.ndarray, np.ndarray] | None = None
        self._pending: list[tuple] = []

    def arrays(self) -> dict[str, np.ndarray]:
        """The columns by name: int64, and a str array for ``phase``. The
        arrays are read-only and shared with the trace: the int64 columns
        are its storage, the phase strings their cached decoding."""
        stored = self._consolidated()
        if self._columns is None:
            self._columns = stored | {"phase": _frozen(_phase_names(stored["phase"]))}
        return dict(self._columns)

    def _cached_cell_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``_cell_index`` of the consolidated columns, computed on first use
        and kept until a ``record_cell`` changes them."""
        stored = self._consolidated()
        if self._cells is None:
            self._cells = _cell_index(stored)
        return self._cells

    sequence_id = property(lambda self: self._consolidated()["sequence_id"])
    position = property(lambda self: self._consolidated()["position"])
    layer = property(lambda self: self._consolidated()["layer"])
    rank = property(lambda self: self._consolidated()["rank"])
    expert_id = property(lambda self: self._consolidated()["expert_id"])
    mask_bit = property(lambda self: self._consolidated()["mask_bit"])
    phase = property(lambda self: self.arrays()["phase"])
    token_id = property(lambda self: self._consolidated()["token_id"])

    @property
    def k(self) -> int:
        return int(self.rank.max()) if self._rows else 0

    def to_csv(self, path) -> None:
        """Write the header and one CRLF-ended line per row: the bytes
        ``csv.writer`` writes.

        Each column's field texts are formatted once per distinct value
        (``_text_table``): phase's from its codes, an integer column's from
        its value range when that is smaller than the row count, else from
        ``np.unique``. Neighbouring columns whose tables multiply to at most
        a sixteenth of the rows share one table of joined texts. Rows are
        then joined ``_CSV_CHUNK_ROWS`` at a time.
        """
        columns = self._consolidated()
        with open(path, "w", newline="") as f:
            f.write(",".join(TRACE_HEADER) + "\r\n")
            if not self._rows:
                return
            # each field's text carries the separator that follows it
            tables = []
            for name in TRACE_HEADER:
                text, codes = _text_table(columns[name], "\r\n" if name == TRACE_HEADER[-1] else ",")
                if tables and len(tables[-1][0]) * len(text) <= self._rows // 16:
                    joined, joined_codes = tables.pop()
                    text, codes = np.add.outer(joined, text).ravel(), joined_codes * len(text) + codes
                tables.append((text, codes))
            for lo in range(0, self._rows, _CSV_CHUNK_ROWS):
                rows = slice(lo, lo + _CSV_CHUNK_ROWS)
                fields = np.column_stack([text[codes[rows]] for text, codes in tables])
                f.write("".join(fields.ravel().tolist()))

    @classmethod
    def from_csv(cls, path) -> "SparsityTrace":
        """Read a trace that ``to_csv`` wrote.

        The accepted grammar, checked on every row:

        - lines end in ``\n`` or ``\r\n``; the last line may have no end;
        - line 1 is the header, ``TRACE_HEADER`` joined by commas;
        - every later line is eight comma-separated fields in header order:
          ``phase`` is one of ``PHASES`` and every other field is an integer
          ``-?[0-9]+`` within int64, ``mask_bit`` being 0 or 1.

        Nothing else is read: no quoted fields, no spaces, no ``+`` or ``_``
        in a number, no non-ASCII digits, no lone ``\r`` line ends, no blank
        lines. A ``ContractError`` names the first bad line by its number in
        the file. Rows are parsed ``_CSV_CHUNK_ROWS`` at a time, each phase
        field straight to its uint8 code, so the strings are built only if
        ``arrays()`` or ``.phase`` asks for them.
        """
        with open(path, "rb") as f:
            data = f.read()
        if not data.endswith(b"\n"):
            data += b"\n"  # every line, the last included, now ends at a newline
        buf = np.frombuffer(data, dtype=np.uint8)
        newlines = np.flatnonzero(buf == _NEWLINE)
        header = data[: newlines[0]]
        if header.removesuffix(b"\r") != _HEADER_LINE:
            raise ContractError(f"unexpected trace header in {path}")
        starts, ends = newlines[:-1] + 1, newlines[1:]
        ends = ends - (buf[ends - 1] == _CR)  # an empty line's ends - 1 is the newline before it
        trace = cls()
        rows = len(starts)
        if rows == 0:
            return trace
        table = np.empty((len(_INT_COLUMNS), rows), dtype=np.int64)
        phase = np.empty(rows, dtype=np.uint8)
        for lo in range(0, rows, _CSV_CHUNK_ROWS):
            hi = min(lo + _CSV_CHUNK_ROWS, rows)
            fault = _parse_rows(buf, starts[lo:hi], ends[lo:hi], table[:, lo:hi], phase[lo:hi])
            if fault is not None:
                row, bit = fault
                lineno = lo + row + 2
                if bit is None:
                    raise ContractError(f"malformed trace row {lineno} in {path}")
                raise ContractError(f"mask_bit {bit} is not 0 or 1 in trace row {lineno} in {path}")
        columns = dict(zip(_INT_COLUMNS, table), phase=phase)
        trace._set_columns({name: columns[name] for name in TRACE_HEADER})
        trace._rows = rows
        return trace


def _parse_rows(buf, starts, ends, table, phase):
    """Parse the rows ``buf[starts[i]:ends[i]]`` into ``table`` (one int64
    row per ``_INT_COLUMNS`` entry) and ``phase`` (uint8 index into ``PHASES``).

    Returns None if every row is good, else ``(i, bit)`` for the first bad
    row i: bit is None for a malformed row, or the ``mask_bit`` value that
    is not 0 or 1. Rows before i are filled in.
    """
    commas = np.flatnonzero(buf[starts[0] : ends[-1]] == _COMMA) + starts[0]
    per_row = len(TRACE_HEADER) - 1
    # no comma lies between a row's end and the next row's start
    counts = np.diff(np.searchsorted(commas, starts), append=len(commas))
    wrong_count = np.flatnonzero(counts != per_row)
    n = int(wrong_count[0]) if wrong_count.size else len(starts)  # rows with eight fields
    inner = commas[: n * per_row].reshape(n, per_row)
    field_starts = np.column_stack([starts[:n], inner + 1])
    field_ends = np.column_stack([inner, ends[:n]])

    ok = np.ones(n, dtype=bool)
    for row, name in zip(table, _INT_COLUMNS):
        j = TRACE_HEADER.index(name)
        row[:n], ok_j = _int_fields(buf, field_starts[:, j], field_ends[:, j])
        ok &= ok_j
    j = TRACE_HEADER.index("phase")
    phase[:n], is_phase = _phase_codes(buf, field_starts[:, j], field_ends[:, j])
    ok &= is_phase
    bits = table[_INT_COLUMNS.index("mask_bit"), :n]

    bad = np.flatnonzero(~ok | ((bits != 0) & (bits != 1)))
    if bad.size:
        row = int(bad[0])
        return row, None if not ok[row] else int(bits[row])
    if n < len(starts):
        return n, None
    return None


def _int_fields(buf, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """The fields ``buf[starts[i]:ends[i]]`` as int64, and whether each is
    ``-?[0-9]+`` within int64.

    Digits are read right-aligned, one decimal place per pass, into uint64
    magnitudes over the last 19 places (below 10**19 < 2**64); a field with
    more digits must have zeros in all places above those.
    """
    negative = buf[starts] == _MINUS  # an empty field's start is its separator
    digits_from = starts + negative
    digit_count = ends - digits_from
    ok = digit_count > 0
    magnitude = np.zeros(len(starts), dtype=np.uint64)
    # ends - place stays inside the file: every field follows the header line
    for place in range(min(int(digit_count.max(initial=0)), _PLACES), 0, -1):
        # uint8: a byte below '0' wraps above 9; places left of the digits read 0
        digit = np.where(digit_count >= place, buf[ends - place] - _ZERO, 0)
        ok &= digit < 10
        magnitude *= 10
        magnitude += digit
    overlong = np.flatnonzero(digit_count > _PLACES)
    if overlong.size:
        lo, hi = digits_from[overlong], ends[overlong] - _PLACES
        nonzero = np.concatenate(([0], np.cumsum(buf[lo.min() : hi.max()] != _ZERO)))
        ok[overlong] &= nonzero[hi - lo.min()] == nonzero[lo - lo.min()]
    ok &= magnitude <= np.uint64(2**63 - 1) + negative  # -2**63 has no positive twin
    values = magnitude.view(np.int64)
    np.negative(values, out=values, where=negative)
    return values, ok


def _phase_codes(buf, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """Each field ``buf[starts[i]:ends[i]]``'s index in ``PHASES`` (0 if it
    names none), and whether it names one.

    A name, at most 8 ASCII bytes, is matched by reading the 8 bytes from
    each field start as one little-endian uint64 and comparing them under
    the name's byte mask. A field as long as a name has 8 bytes from its
    start: its separator, the last field and a newline follow it.
    """
    windows = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    head = windows[np.minimum(starts, len(windows) - 1)]
    lengths = ends - starts
    codes = np.zeros(len(starts), dtype=np.uint8)
    named = np.zeros(len(starts), dtype=bool)
    for code, name in enumerate(PHASES):
        text = name.encode()
        mask, word = np.uint64(256 ** len(text) - 1), np.uint64(int.from_bytes(text, "little"))
        match = ((head & mask) == word) & (lengths == len(text))
        codes[match] = code
        named |= match
    return codes, named


def _require_nonempty(trace: SparsityTrace, *names: str) -> dict[str, np.ndarray]:
    """The named integer columns of a non-empty trace, read by attribute so
    that no phase strings are decoded."""
    if len(trace) == 0:
        raise ContractError("empty trace")
    return {name: np.asarray(getattr(trace, name)) for name in names}


def _combined_key(keys: list[np.ndarray]) -> np.ndarray | None:
    """One unsigned integer per row that orders the rows as their key tuples
    do: ``((k0 - min) * span1 + (k1 - min)) * span2 + ...``, in the narrowest
    dtype that holds the product of the keys' value spans. None when the
    rows are empty or that product reaches 2**63."""
    if not len(keys[0]):
        return None
    lows = [int(key.min()) for key in keys]
    spans = [int(key.max()) - low + 1 for key, low in zip(keys, lows)]
    product = math.prod(spans)
    if product >= 2**63:
        return None
    # every span, and so every factor below, fits the dtype that holds the product
    combined = np.empty(len(keys[0]), dtype=np.min_scalar_type(product))
    part = np.empty_like(combined)
    np.subtract(keys[0], lows[0], out=combined, casting="unsafe")
    for key, low, span in zip(keys[1:], lows[1:], spans[1:]):
        combined *= span
        np.subtract(key, low, out=part, casting="unsafe")
        combined += part
    return combined


def _cell_index(arr: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Unique (sequence, position, layer) cells in lexicographic order, and
    each row's cell number: what ``np.unique(keys, axis=0,
    return_inverse=True)`` gives, by one stable sort of ``_combined_key``
    (``lexsort`` of the three columns when the key would not fit) and a
    boundary diff."""
    keys = [arr["sequence_id"], arr["position"], arr["layer"]]
    combined = _combined_key(keys)
    if combined is None:
        order = np.lexsort(keys[::-1])
        sorted_keys = [key[order] for key in keys]
    else:
        order = np.argsort(combined, kind="stable")
        sorted_keys = [combined[order]]
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for key in sorted_keys:
        starts[1:] |= key[1:] != key[:-1]
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    first = order[starts]
    cells = np.stack([key[first] for key in keys], axis=1)
    return cells, inverse


def avg_k(trace: SparsityTrace, group_by: str = "overall") -> dict:
    """Mean activated experts per (token, layer) cell, grouped.

    Group keys: overall, layer, token_position, phase, token_id, and
    token_layer (per-cell counts keyed by (sequence, position, layer),
    the heatmap data). Keys come in ascending order (phase names
    alphabetically). The cell index is the trace's cached one, so calls
    between two ``record_cell`` calls compute it once.
    """
    if group_by not in GROUP_KEYS:
        raise ContractError(f"unknown group key {group_by!r}; valid: {GROUP_KEYS}")
    _require_nonempty(trace)
    arr = trace._consolidated()  # phase as codes
    cells, inverse = trace._cached_cell_index()
    counts = np.bincount(inverse, weights=arr["mask_bit"].astype(np.float64))

    if group_by == "token_layer":
        return dict(zip(zip(*cells.T.tolist()), counts.tolist()))
    if group_by == "overall":
        return {"overall": float(counts.mean())}

    column = {"layer": 2, "token_position": 1}.get(group_by)
    if column is not None:
        cell_keys = cells[:, column]
    else:
        # phase / token_id are rank-row attributes, constant within a cell
        first_row = np.zeros(len(cells), dtype=np.int64)
        first_row[inverse[::-1]] = np.arange(len(arr["rank"]))[::-1]
        cell_keys = arr[group_by][first_row]
    means = {key: float(counts[cell_keys == key].mean()) for key in np.unique(cell_keys).tolist()}
    if group_by == "phase":  # codes to names, in the order np.unique gives the names
        return {PHASES[code]: means[code] for code in sorted(means, key=PHASES.__getitem__)}
    return means


def position_mask_prob(trace: SparsityTrace) -> dict[int, float]:
    """Per routing rank, the fraction of cells whose slot was masked off."""
    arr = _require_nonempty(trace, "rank", "mask_bit")
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
    arr = _require_nonempty(trace, "layer", "rank", "mask_bit")
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
    arr = _require_nonempty(trace, "expert_id", "mask_bit")
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
        if self.top_k < 1:
            raise ContractError(f"top_k must be >= 1, got {self.top_k!r}")
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


class _LabelFormats(dict):
    """``"%s/%s/.../%s"`` by tuple length, made on first use."""

    def __missing__(self, length: int) -> str:
        self[length] = text = "/".join(["%s"] * length)
        return text


_LABEL_FORMATS = _LabelFormats()


def _group_labels(keys) -> list[str]:
    """Each group key's label: a tuple's items joined by "/", else ``str(key)``."""
    formats = _LABEL_FORMATS
    return [formats[len(key)] % key if isinstance(key, tuple) else str(key) for key in keys]


def _distinct_labels(metric, groups) -> list[str]:
    """``_group_labels`` of one metric's groups; two groups with one label
    (``5`` and ``"5"``) raise, since a report would keep only one of them."""
    labels = _group_labels(groups)
    if len(set(labels)) < len(labels):
        label = next(label for label, count in Counter(labels).items() if count > 1)
        raise ContractError(f"metric {metric!r} has two groups labelled {label!r}")
    return labels


def _value_text(value) -> str:
    return "" if value is None else repr(float(value))


def emit_report(metrics: dict[str, dict], fmt: str, path) -> None:
    """Write {metric: {group: value}} as CSV or JSON.

    Field order is sorted and stable, so identical metrics produce byte-
    identical files. ``parse_report`` inverts the CSV form. Two groups of one
    metric with one label raise ``ContractError`` before anything is written.
    """
    if fmt == "csv":
        rows = [REPORT_HEADER]
        for metric in sorted(metrics):
            groups = metrics[metric]
            # one label per group, sorted stably by label
            labels = _distinct_labels(metric, groups)
            labelled = zip(repeat(str(metric)), labels, map(_value_text, groups.values()))
            rows += sorted(labelled, key=itemgetter(1))
        text = "\r\n".join(map(",".join, rows)) + "\r\n"
        # csv.writer quotes a field holding a separator, a quote or a line end
        plain = '"' not in text and text.count(",") == 2 * len(rows)
        with open(path, "w", newline="") as f:
            if plain and text.count("\r") == text.count("\n") == len(rows):
                f.write(text)
            else:
                csv.writer(f).writerows(rows)
    elif fmt == "json":
        payload = {}
        for metric, groups in metrics.items():
            values = (None if v is None else float(v) for v in groups.values())
            payload[metric] = dict(zip(_distinct_labels(metric, groups), values))
        with open(path, "w") as f:
            json.dump(payload, f, sort_keys=True, indent=2)
            f.write("\n")
    else:
        raise ContractError(f"unknown report format {fmt!r}")


def parse_report(path) -> dict[str, dict[str, float | None]]:
    """Read a CSV report into {metric: {group: value}}; an empty value is None.

    A row that is not three fields, or whose value is not a number, raises
    ``ContractError`` naming its line (the header is line 1).
    """
    out: dict[str, dict] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) != REPORT_HEADER:
            raise ContractError("unexpected report header")
        for row in reader:
            if len(row) != 3:
                raise ContractError(f"malformed report row {reader.line_num} in {path}")
            metric, group, value = row
            try:
                number = None if value == "" else float(value)
            except ValueError:
                raise ContractError(
                    f"value {value!r} is not a number in report row {reader.line_num} in {path}"
                ) from None
            out.setdefault(metric, {})[group] = number
    return out
