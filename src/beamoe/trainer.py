"""Character-level MoE language model, deterministic training loop, corpus
ingestion, and versioned checkpoints.

The model exists to feed the MoE blocks realistic token streams: embedding,
causal multi-head attention, one MoE block per layer (pre-norm, residual),
and a vocabulary projection. Everything is seeded and single-threaded, so a
run reproduces bit for bit.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .baselines import RouteResult, RoutingStrategy, build_block, block_forward, is_number
from .beam import sparsity_loss
from .moe import MoEBlockConfig, balance_loss_from
from .tensor import (
    ContractError,
    NumericError,
    Tape,
    Tensor,
    add,
    causal_attention,
    cross_entropy,
    matmul,
    mul,
    reshape,
    rms_norm,
    take_rows,
)


def _check_integers(cfg, nullable: tuple[str, ...] = ()) -> None:
    """Every int field of a dataclass holds an integer that is not a bool
    (``is_number``), or None if the field is ``nullable``."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "int" and not (is_number(value, True) or value is None and f.name in nullable):
            raise ContractError(f"{f.name} must be an integer, got {value!r}")


@dataclass
class ModelConfig:
    vocab_size: int
    d_h: int = 64
    n_layers: int = 2
    n_heads: int = 4
    context_length: int = 64
    d_ff: int = 128
    num_experts: int = 8
    top_k: int = 4
    num_shared: int = 0
    has_norm: bool = True
    activation: str = "silu"
    strategy: RoutingStrategy = field(
        default_factory=lambda: RoutingStrategy("vanilla_topk")
    )
    seed: int = 0

    def __post_init__(self):
        # cli.load_config checks a config before the corpus gives vocab_size
        _check_integers(self, nullable=("vocab_size",))
        if isinstance(self.strategy, dict):
            self.strategy = RoutingStrategy(**self.strategy)
        if self.n_layers < 1 or self.n_heads < 1:
            raise ContractError("n_layers and n_heads must be >= 1")
        if self.d_h % self.n_heads != 0:
            raise ContractError("d_h must be divisible by n_heads")
        if self.context_length < 2:
            raise ContractError("context_length must be >= 2")
        self.strategy.validate(self.block_config())

    def block_config(self) -> MoEBlockConfig:
        return MoEBlockConfig(**{f.name: getattr(self, f.name) for f in fields(MoEBlockConfig)})

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainConfig:
    learning_rate: float = 3e-3
    warmup_ratio: float = 0.03
    alpha: float = 1e-3  # load-balance coefficient
    beta: float = 0.0  # sparsity coefficient
    batch_size: int = 8
    steps: int = 200
    grad_clip_norm: float = 1.0  # 0 turns clipping off
    seed: int = 0

    def __post_init__(self):
        _check_integers(self)
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ContractError(f"{f.name} must be finite, got {value!r}")
        if self.learning_rate <= 0:
            raise ContractError(f"learning_rate must be > 0, got {self.learning_rate!r}")
        if self.grad_clip_norm < 0:
            raise ContractError(
                f"grad_clip_norm must be >= 0 (0 turns clipping off), got {self.grad_clip_norm!r}"
            )
        if self.alpha < 0 or self.beta < 0:
            raise ContractError("alpha and beta must be non-negative")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ContractError("warmup_ratio must lie in [0, 1)")
        if self.batch_size < 1 or self.steps < 0:
            raise ContractError("batch_size must be >= 1 and steps >= 0")

    def lr_at(self, step: int) -> float:
        """Linear warmup to the peak rate, then linear decay to zero."""
        warmup = int(self.warmup_ratio * self.steps)
        if step < warmup:
            return self.learning_rate * (step + 1) / warmup
        remaining = max(1, self.steps - warmup)
        return self.learning_rate * (1.0 - (step - warmup) / remaining)


@dataclass
class TraceRow:
    """One training step; the fields, in order, are the trace's columns."""

    step: int
    lm_loss: float
    bal_loss: float
    reg_loss: float
    total_loss: float
    expert_active_rate: float
    learning_rate: float
    grad_norm: float  # global gradient norm before clipping

    def to_csv(self) -> str:
        return ",".join(repr(getattr(self, f.name)) for f in fields(self))


TRACE_HEADER = ",".join(f.name for f in fields(TraceRow))


def write_trace(rows: list[TraceRow], path) -> None:
    with open(path, "w") as f:
        f.write(TRACE_HEADER + "\n")
        for r in rows:
            f.write(r.to_csv() + "\n")


class TrainingDiverged(RuntimeError):
    """Raised when the loss goes non-finite; the model has been rolled back
    to the last state that produced a finite loss."""

    def __init__(self, step: int, rows: list[TraceRow], cause: NumericError):
        super().__init__(f"non-finite loss at step {step}: {cause}")
        self.step = step
        self.rows = rows


def _last_position(x: Tensor) -> Tensor:
    """(B, T, D) -> (B, 1, D), the last position of every sequence."""
    b, t, d = x.shape
    return take_rows(reshape(x, (b * t, d)), (np.arange(b) * t + t - 1)[:, None])


class TinyMoELM:
    """Two-ish layer causal transformer whose feed-forward is an MoE block."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.vocab: list[str] | None = None  # id -> character, when known
        rng = np.random.default_rng(cfg.seed)
        std = 0.02
        d = cfg.d_h

        def p(shape):
            return Tensor(rng.normal(0.0, std, shape), requires_grad=True)

        self.wte = p((cfg.vocab_size, d))
        self.wpe = p((cfg.context_length, d))
        self.layers = []
        for _ in range(cfg.n_layers):
            layer = {
                "attn_norm": Tensor(np.ones(d), requires_grad=True),
                "wq": p((d, d)),
                "wk": p((d, d)),
                "wv": p((d, d)),
                "wo": p((d, d)),
                "block": build_block(cfg.block_config(), cfg.strategy, rng),
            }
            self.layers.append(layer)
        self.final_norm = Tensor(np.ones(d), requires_grad=True)
        self.lm_head = p((d, cfg.vocab_size))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("wte", self.wte), ("wpe", self.wpe)]
        for i, layer in enumerate(self.layers):
            pre = f"layers.{i}."
            out += [(pre + name, t) for name, t in layer.items() if name != "block"]
            out += layer["block"].named_tensors(pre + "block.")
        out += [("final_norm", self.final_norm), ("lm_head", self.lm_head)]
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def _attention(self, layer: dict, x: Tensor, last_query_only: bool = False) -> Tensor:
        """Causal self-attention output, (B, T, D); with ``last_query_only``,
        (B, 1, D) for the last position only (keys and values still cover
        every position)."""
        xn = rms_norm(x, layer["attn_norm"])
        q = matmul(_last_position(xn) if last_query_only else xn, layer["wq"])
        k = matmul(xn, layer["wk"])
        v = matmul(xn, layer["wv"])
        return matmul(causal_attention(q, k, v, self.cfg.n_heads), layer["wo"])

    def forward(
        self,
        ids: np.ndarray,
        training: bool,
        step: int = 0,
        total_steps: int = 1,
        binarize_soft: bool = False,
        *,
        last_position_only: bool = False,
    ) -> tuple[Tensor, list[RouteResult]]:
        """Logits (B, T, V) and per-layer routing results, each over B·T rows.

        With ``last_position_only`` (inference only, for a caller that reads
        one row of logits per sequence) the layers before the last run on the
        whole window, since they feed the last layer's keys and values; the
        last layer's query, attention output, residual and MoE block, the
        final norm and the head run on the last position only. The logits
        are then (B, 1, V) and the last layer's route covers B rows, one per
        sequence, at the last position.
        """
        if last_position_only and training:
            raise ContractError("last_position_only is an inference option")
        cfg = self.cfg
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim == 1:
            ids = ids[None, :]
        b, t = ids.shape
        if t > cfg.context_length:
            raise ContractError("sequence longer than context_length")
        x = add(take_rows(self.wte, ids), take_rows(self.wpe, np.arange(t)))
        routes = []
        for i, layer in enumerate(self.layers):
            if last_position_only and i == len(self.layers) - 1:
                x = add(_last_position(x), self._attention(layer, x, last_query_only=True))
                t = 1
            else:
                x = add(x, self._attention(layer, x))
            flat = reshape(x, (b * t, cfg.d_h))
            out, rr = block_forward(
                flat,
                layer["block"],
                cfg.strategy,
                training,
                step=step,
                total_steps=total_steps,
                binarize_soft=binarize_soft,
            )
            routes.append(rr)
            x = reshape(out, (b, t, cfg.d_h))
        x = rms_norm(x, self.final_norm)
        return matmul(x, self.lm_head), routes

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, t in self.named_parameters():
            t.data[...] = snap[name]


def total_loss(lm: Tensor, bal: Tensor, reg: Tensor, alpha: float, beta: float) -> Tensor:
    """L = L_lm + alpha * L_bal + beta * L_reg."""
    for name, t in (("lm", lm), ("bal", bal), ("reg", reg)):
        if not np.isfinite(t.data):
            raise NumericError(f"{name} loss is not finite")
    return add(lm, add(mul(bal, alpha), mul(reg, beta)))


def clip_gradients(params: list[Tensor], max_norm: float) -> float:
    """Scale all gradients so the global norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = np.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment optimizer, standard constants, no weight decay."""

    def __init__(self, params: list[Tensor]):
        self.params = params
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else 0.0
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g if p.grad is not None else 0.0)
            p.data -= lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)


def _mean_tensors(values: list[Tensor]) -> Tensor:
    acc = values[0]
    for v in values[1:]:
        acc = add(acc, v)
    return mul(acc, 1.0 / len(values))


def sample_batch(
    ids: np.ndarray, context: int, batch_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    starts = rng.integers(0, len(ids) - context, size=batch_size)
    windows = starts[:, None] + np.arange(context)
    return ids[windows], ids[windows + 1]


def train(
    model_cfg: ModelConfig, train_cfg: TrainConfig, corpus_ids: np.ndarray
) -> tuple[TinyMoELM, list[TraceRow]]:
    """Deterministic training run; returns the model and the per-step trace.

    Raises TrainingDiverged (model rolled back to the last finite-loss
    state) if any loss component goes non-finite.
    """
    if len(corpus_ids) < model_cfg.context_length + 1:
        raise ContractError("corpus shorter than context_length + 1")
    model = TinyMoELM(model_cfg)
    params = model.parameters()
    opt = Adam(params)
    rng = np.random.default_rng(train_cfg.seed)
    rows: list[TraceRow] = []
    good: dict[str, np.ndarray] | None = None

    for step in range(train_cfg.steps):
        lr = train_cfg.lr_at(step)
        xb, yb = sample_batch(
            corpus_ids, model_cfg.context_length, train_cfg.batch_size, rng
        )
        with Tape() as tape:
            logits, routes = model.forward(
                xb, training=True, step=step, total_steps=train_cfg.steps
            )
            b, t, v = logits.shape
            lm = cross_entropy(reshape(logits, (b * t, v)), yb.reshape(-1))
            bal = _mean_tensors(
                [balance_loss_from(rr.logits, rr.balance_active) for rr in routes]
            )
            if routes[0].raw_mask is not None:
                reg = _mean_tensors(
                    [sparsity_loss(rr.raw_mask, rr.reg_indices) for rr in routes]
                )
            else:
                reg = Tensor._raw(np.asarray(0.0))
            try:
                loss = total_loss(lm, bal, reg, train_cfg.alpha, train_cfg.beta)
            except NumericError as e:
                if good is not None:
                    model.restore(good)
                raise TrainingDiverged(step, rows, e) from e
            tape.backward(loss)

        good = model.snapshot()
        grad_norm = float(clip_gradients(params, train_cfg.grad_clip_norm))
        opt.step(lr)
        for p in params:
            p.zero_grad()

        active_rate = float(
            np.mean([rr.active_bits.mean() for rr in routes], dtype=np.float64)
        )
        rows.append(
            TraceRow(
                step=step,
                lm_loss=float(lm.data),
                bal_loss=float(bal.data),
                reg_loss=float(reg.data),
                total_loss=float(loss.data),
                expert_active_rate=active_rate,
                learning_rate=lr,
                grad_norm=grad_norm,
            )
        )
    return model, rows


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def synthetic_text(length: int, seed: int) -> str:
    """Seeded mixture of predictable structure and noise.

    Arithmetic facts and repeated n-grams are highly predictable once
    learned; the random-letter runs are not. The mix gives per-token
    difficulty variation, which is what makes learned masking interesting.

    The sequence of ``rng.integers`` calls (their bounds, sizes and order) is
    the corpus contract: any change to it gives another text, and the
    acceptance criteria are calibrated on ``synthetic_text(102400, 7)``.
    """
    if length < 1:
        raise ContractError("synthetic corpus length must be positive")
    draw = np.random.default_rng(seed).integers
    words = ("the", "cat", "sat", "on", "a", "mat", "dog", "ran", "to", "sun")
    letter, word = "abcdefghijklmnopqrstuvwxyz".__getitem__, words.__getitem__
    parts: list[str] = []
    total = 0
    while total < length:
        kind = int(draw(0, 4))
        if kind == 0:
            a, b = int(draw(0, 50)), int(draw(0, 50))
            s = f"{a}+{b}={a + b};"
        elif kind == 1:
            pat = "".join(map(letter, draw(0, 26, int(draw(2, 5))).tolist()))
            s = pat * int(draw(3, 8)) + " "
        elif kind == 2:
            s = " ".join(map(word, draw(0, len(words), int(draw(3, 7))).tolist())) + ". "
        else:
            s = "".join(map(letter, draw(0, 26, int(draw(3, 10))).tolist())) + " "
        parts.append(s)
        total += len(s)
    return "".join(parts)[:length]


def ingest_text(text: str) -> tuple[np.ndarray, list[str]]:
    """Character-level ids plus the sorted-unique-character vocabulary.

    The vocabulary is sorted by codepoint, so ids follow codepoint order; a
    lone surrogate is a character like any other.
    """
    if not text:
        raise ContractError("empty corpus")
    vocab = sorted(set(text))
    codepoints = np.array([ord(ch) for ch in vocab])
    table = np.zeros(codepoints[-1] + 1, dtype=np.int64)
    table[codepoints] = np.arange(len(vocab))
    ids = table[np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)]
    return ids, vocab


def ingest_corpus(source: dict) -> tuple[np.ndarray, list[str]]:
    """source: {"kind": "synthetic", "length", "seed"} or {"kind": "file", "path"}."""
    kind = source.get("kind")
    if kind == "synthetic":
        text = synthetic_text(int(source["length"]), int(source.get("seed", 0)))
    elif kind == "file":
        with open(source["path"], "rb") as f:
            text = f.read().decode("utf-8")
    else:
        raise ContractError(f"unknown corpus kind {kind!r}")
    return ingest_text(text)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"BMOECKPT"
CHECKPOINT_VERSION = 2  # v2 adds the vocabulary; v1 files still load


class CheckpointError(ValueError):
    pass


def save_checkpoint(model: TinyMoELM, path) -> None:
    """Magic + version + canonical config + vocabulary + named float64 blobs
    + crc32. The vocabulary is ``model.vocab`` as a JSON list, or null when
    it is unknown."""
    vocab = model.vocab
    if vocab is not None and len(vocab) != model.cfg.vocab_size:
        raise ContractError(
            f"vocabulary has {len(vocab)} entries, model vocab_size is {model.cfg.vocab_size}"
        )
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    for section in (model.cfg.to_dict(), vocab):
        data = json.dumps(section, sort_keys=True, separators=(",", ":")).encode()
        blob += struct.pack("<Q", len(data))
        blob += data
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


def load_checkpoint(path, strategy: RoutingStrategy | None = None) -> TinyMoELM:
    """Rebuild a model from a checkpoint; ``model.vocab`` is the stored
    vocabulary (None for a v1 file, which has none).

    ``strategy`` overrides the stored routing strategy; attaching a
    mask-router strategy to a checkpoint that has no mask weights leaves
    those weights at their zero initialization, which reproduces the
    checkpoint's behavior exactly until further training.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 8 or blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise CheckpointError("checksum mismatch: corrupt or truncated checkpoint")
    off = len(CHECKPOINT_MAGIC)
    (version,) = struct.unpack_from("<I", blob, off)
    off += 4
    if version not in (1, 2):
        raise CheckpointError(f"unsupported checkpoint version {version}")

    def json_section():
        nonlocal off
        (length,) = struct.unpack_from("<Q", blob, off)
        off += 8 + length
        return json.loads(blob[off - length : off].decode())

    cfg_dict = json_section()
    vocab = json_section() if version == 2 else None
    if strategy is not None:
        cfg_dict["strategy"] = asdict(strategy)
    cfg = ModelConfig(**cfg_dict)
    if vocab is not None and (
        len(vocab) != cfg.vocab_size or not all(isinstance(ch, str) for ch in vocab)
    ):
        raise CheckpointError("stored vocabulary does not match the config's vocab_size")
    model = TinyMoELM(cfg)
    model.vocab = vocab
    lookup = dict(model.named_parameters())

    (n_params,) = struct.unpack_from("<Q", blob, off)
    off += 8
    seen = set()
    for _ in range(n_params):
        (name_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        name = blob[off : off + name_len].decode()
        off += name_len
        (ndim,) = struct.unpack_from("<I", blob, off)
        off += 4
        shape = struct.unpack_from(f"<{ndim}Q", blob, off)
        off += 8 * ndim
        count = int(np.prod(shape)) if ndim else 1
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape)
        off += 8 * count
        if name not in lookup:
            raise CheckpointError(f"checkpoint parameter {name!r} not in model")
        if lookup[name].data.shape != tuple(shape):
            raise CheckpointError(f"shape mismatch for {name!r}")
        lookup[name].data[...] = data
        seen.add(name)
    for name in lookup:
        if name not in seen and not name.endswith("mask_w"):
            raise CheckpointError(f"model parameter {name!r} missing from checkpoint")
    return model


# ---------------------------------------------------------------------------
# evaluation and sampling
# ---------------------------------------------------------------------------


@dataclass
class EvalResult:
    perplexity: float
    avg_k: float  # mechanism-level mean activated experts per (token, layer)
    token_count: int


def _record_routes(
    trace, routes, ids, seq_base, phase, positions=slice(None), trace_positions=None
):
    """Record routing cells, one block per layer, in row order: batch row
    (sequence ``seq_base`` onwards), then position. ``positions`` picks the
    window positions (a slice or an index array); ``trace_positions`` are
    their positions in the trace (by default the window positions; a scalar
    for a single position).

    A layer's route rows are (batch row, position) over the last
    ``len(candidate_ids) // b`` window positions: the whole window, or the
    last position only (``TinyMoELM.forward(last_position_only=True)``). A
    position outside a route is rejected before any layer is recorded."""
    b, t = ids.shape
    window_positions = np.arange(t)[positions]
    if window_positions.size == 0:
        return
    if trace_positions is None:
        trace_positions = window_positions
    sequence_ids = np.repeat(np.arange(seq_base, seq_base + b), window_positions.size)
    trace_positions = np.tile(trace_positions, b)
    token_ids = ids[:, window_positions].reshape(-1)
    layer_rows = []
    for layer_idx, rr in enumerate(routes):
        per_seq = len(rr.candidate_ids) // b
        first = t - per_seq  # the first window position the route covers
        if window_positions.min() < first:
            raise ContractError(
                f"layer {layer_idx}: route covers window positions {first}..{t - 1}, "
                f"position {window_positions.min()} requested"
            )
        layer_rows.append((np.arange(b)[:, None] * per_seq + window_positions - first).reshape(-1))
    for layer_idx, (rr, rows) in enumerate(zip(routes, layer_rows)):
        trace.record_cell(
            sequence_id=sequence_ids,
            position=trace_positions,
            layer=layer_idx,
            expert_ids=rr.candidate_ids[rows],
            mask_bits=rr.active_bits[rows],
            phase=phase,
            token_id=token_ids,
        )


def evaluate(
    model: TinyMoELM,
    corpus_ids: np.ndarray,
    max_windows: int | None = None,
    batch_size: int = 8,
    trace=None,
    binarize_soft: bool = False,
    trace_sampling: float = 1.0,
) -> EvalResult:
    """Held-out perplexity over non-overlapping windows, inference path.

    Masked experts are skipped through the dispatch plan; routing decisions
    are optionally recorded into ``trace`` (phase "prefill"), each position
    with probability ``trace_sampling`` under one seed-0 draw.
    """
    cfg = model.cfg
    t = cfg.context_length
    n_windows = (len(corpus_ids) - 1) // t
    for name, value in (("batch_size", batch_size), ("max_windows", max_windows)):
        if value is not None and not is_number(value, True):
            raise ContractError(f"{name} must be an integer, got {value!r}")
        if value is not None and value < 1:
            raise ContractError(f"{name} must be >= 1, got {value!r}")
    if max_windows is not None:
        n_windows = min(n_windows, max_windows)
    if n_windows < 1:
        raise ContractError("corpus too small to evaluate")
    if not 0.0 < trace_sampling <= 1.0:
        raise ContractError("trace_sampling must lie in (0, 1]")
    sample_rng = np.random.default_rng(0)

    total_nll = 0.0
    total_tokens = 0
    active_sum = 0.0
    active_cells = 0

    for start in range(0, n_windows, batch_size):
        count = min(batch_size, n_windows - start)
        xs = corpus_ids[start * t : (start + count) * t].reshape(count, t)
        ys = corpus_ids[start * t + 1 : (start + count) * t + 1].reshape(count, t)
        logits, routes = model.forward(xs, training=False, binarize_soft=binarize_soft)
        b, tt, v = logits.shape
        nll = float(cross_entropy(reshape(logits, (b * tt, v)), ys.reshape(-1)).data)
        total_nll += nll * b * tt
        total_tokens += b * tt
        for rr in routes:
            active_sum += float(rr.active_counts.sum())
            active_cells += rr.active_counts.size
        if trace is not None:
            # random() < 1.0 always holds, so trace_sampling 1 keeps every position
            positions = np.flatnonzero(sample_rng.random(tt) < trace_sampling)
            _record_routes(trace, routes, xs, start, "prefill", positions)

    return EvalResult(
        perplexity=float(np.exp(total_nll / total_tokens)),
        avg_k=active_sum / active_cells,
        token_count=total_tokens,
    )


def sample_greedy(
    model: TinyMoELM,
    prompt_ids: np.ndarray,
    max_new_tokens: int,
    trace=None,
    binarize_soft: bool = False,
    sequence_id: int = 0,
) -> np.ndarray:
    """Greedy decoding; prompt cells are traced as prefill, generated cells
    as decode.

    The prompt runs one full forward. Each generated token then runs one
    forward of the sliding window that computes the last position only:
    positions are absolute (``wpe``) and the window slides by one token per
    step, so every hidden state changes and no key/value cache applies.
    """
    cfg = model.cfg
    prompt = np.asarray(prompt_ids, dtype=np.int64)
    if prompt.ndim != 1 or prompt.size == 0:
        raise ContractError("prompt must be a non-empty 1-d sequence of ids")
    if not is_number(max_new_tokens, True):
        raise ContractError(f"max_new_tokens must be an integer, got {max_new_tokens!r}")
    if max_new_tokens < 0:
        raise ContractError("max_new_tokens must be >= 0")
    ids = list(prompt[-cfg.context_length :])
    window = np.asarray(ids, dtype=np.int64)[None, :]
    logits, routes = model.forward(window, training=False, binarize_soft=binarize_soft)
    if trace is not None:
        _record_routes(trace, routes, window, sequence_id, "prefill")
    generated: list[int] = []
    abs_pos = len(ids)  # trace position keeps counting past the window
    for _ in range(max_new_tokens):
        nxt = int(np.argmax(logits.data[0, -1]))
        generated.append(nxt)
        ids.append(nxt)
        ids = ids[-cfg.context_length :]
        window = np.asarray(ids, dtype=np.int64)[None, :]
        logits, routes = model.forward(
            window, training=False, binarize_soft=binarize_soft, last_position_only=True
        )
        if trace is not None:
            _record_routes(
                trace,
                routes,
                window,
                sequence_id,
                "decode",
                positions=slice(-1, None),
                trace_positions=abs_pos,
            )
        abs_pos += 1
    return np.asarray(generated, dtype=np.int64)
