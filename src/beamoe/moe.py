"""Core mixture-of-experts layer: gated-linear-unit experts, top-k routing,
load-balancing loss, and the residual block with optional shared experts."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    _record,
    _send,
    matmul,
    mul,
    rms_norm,
    sigmoid_np,
    softmax,
    tsum,
    untaped,
)


def _silu_and_slope(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = sigmoid_np(x)
    return x * s, s * (1.0 + x * (1.0 - s))


# activation name -> (value, derivative) at a pre-activation array
ACTIVATIONS = {
    "silu": _silu_and_slope,
    "identity": lambda x: (x, np.ones_like(x)),
}


@dataclass
class MoEBlockConfig:
    d_h: int
    d_ff: int
    num_experts: int
    top_k: int
    num_shared: int = 0
    has_norm: bool = True
    activation: str = "silu"

    def __post_init__(self):
        if self.d_h < 1 or self.d_ff < 1:
            raise ContractError("d_h and d_ff must be positive")
        if self.num_experts < 1:
            raise ContractError("need at least one expert")
        if not 1 <= self.top_k <= self.num_experts:
            raise ContractError("top_k must satisfy 1 <= K <= N")
        if self.num_shared < 0:
            raise ContractError("num_shared must be non-negative")
        if self.activation not in ACTIVATIONS:
            raise ContractError(f"unknown activation {self.activation!r}")


@dataclass
class Expert:
    """One gated-linear-unit feed-forward expert."""

    w_gate: Tensor
    w_up: Tensor
    w_down: Tensor

    @classmethod
    def init_random(
        cls, d_h: int, d_ff: int, rng: np.random.Generator, std: float = 0.02
    ) -> "Expert":
        shapes = ((d_h, d_ff), (d_h, d_ff), (d_ff, d_h))  # the fields' shapes, in order
        return cls(*(Tensor(rng.normal(0.0, std, s), requires_grad=True) for s in shapes))

    def tensors(self) -> list[Tensor]:
        return [getattr(self, name) for name in EXPERT_TENSORS]


EXPERT_TENSORS = tuple(f.name for f in fields(Expert))  # the order of tensors() and checkpoints


def expert_forward_np(x: np.ndarray, expert: Expert, activation: str = "silu") -> np.ndarray:
    """(act(x @ W_gate) * (x @ W_up)) @ W_down in one hidden buffer: every
    expert evaluation, taped or not, runs this."""
    gate = x @ expert.w_gate.data
    if activation == "silu":
        hidden = sigmoid_np(gate)
        hidden *= gate
    elif activation == "identity":
        hidden = gate
    else:
        raise ContractError(f"unknown activation {activation!r}")
    hidden *= x @ expert.w_up.data
    return hidden @ expert.w_down.data


def expert_backward(x: np.ndarray, g_out: np.ndarray, expert: Expert, activation: str, flow) -> np.ndarray:
    """Closed-form backward of ``expert_forward_np`` at rows ``x`` and output
    gradient ``g_out``: sends the w_down, w_gate and w_up gradients, in that
    order, and returns x's. Gate and up are recomputed, not kept."""
    gate_pre = x @ expert.w_gate.data
    up = x @ expert.w_up.data
    gate, slope = ACTIVATIONS[activation](gate_pre)
    g_hidden = g_out @ expert.w_down.data.T
    g_up = g_hidden * gate
    g_gate_pre = g_hidden * up * slope
    _send(flow, expert.w_down, (gate * up).T @ g_out, owned=True)
    _send(flow, expert.w_gate, x.T @ g_gate_pre, owned=True)
    _send(flow, expert.w_up, x.T @ g_up, owned=True)
    return g_gate_pre @ expert.w_gate.data.T + g_up @ expert.w_up.data.T


def expert_forward(x: Tensor, expert: Expert, activation: str = "silu") -> Tensor:
    """(act(x @ W_gate) * (x @ W_up)) @ W_down as one tape node: the value of
    ``expert_forward_np``, the backward of ``expert_backward``."""
    out = Tensor._raw(
        expert_forward_np(x.data, expert, activation),
        x.requires_grad or any(p.requires_grad for p in expert.tensors()),
    )

    def rule(g, flow):
        _send(flow, x, expert_backward(x.data, g, expert, activation, flow), owned=True)

    _record(out, rule)
    return out


@dataclass
class RouterDecision:
    """Primary-router output for one batch of tokens.

    ``weights`` holds the full (T, N) weight matrix: softmax over the kept
    logits on each token's top-k set, exactly zero elsewhere. ``keep`` is
    that top-k set as a boolean array of the logits' shape.
    """

    logits: Tensor
    topk_indices: np.ndarray
    weights: Tensor
    keep: np.ndarray


def topk_select(logits: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries per row, ties won by the lower index."""
    order = np.argsort(-logits, axis=-1, kind="stable")
    return np.ascontiguousarray(order[..., :k])


def topk_route(x: Tensor, router_weights: Tensor, k: int) -> RouterDecision:
    """Route tokens to their k highest-logit experts.

    The softmax runs over each token's top-k set ``keep``; every other
    expert gets exactly zero weight and exactly zero gradient.
    """
    n = router_weights.shape[-1]
    if not 1 <= k <= n:
        raise ContractError("top_k must satisfy 1 <= K <= N")
    logits = matmul(x, router_weights)
    idx = topk_select(logits.data, k)
    keep = np.zeros(logits.shape, dtype=bool)
    keep[np.arange(len(idx))[:, None], idx] = True
    weights = softmax(logits, keep)
    return RouterDecision(logits=logits, topk_indices=idx, weights=weights, keep=keep)


def balance_loss_from(logits: Tensor, active: np.ndarray) -> Tensor:
    """Switch-style auxiliary loss N * sum_i f_i * P_i.

    f_i is the fraction of tokens whose active set contains expert i (a
    constant: no gradient), P_i the token-mean of the full softmax over the
    raw logits, so the gradient reaches only the primary router.
    """
    t, n = logits.shape
    if t < 1:
        raise ContractError("need at least one token")
    f = active.astype(np.float64).mean(axis=0)
    p = mul(tsum(softmax(logits), axis=0), 1.0 / t)
    return mul(tsum(mul(p, Tensor._raw(f))), float(n))


class MoEBlock:
    """Parameter container for one MoE layer.

    The router matrix has ``num_experts + null_count`` columns; the null
    columns exist only for ``ada_moe``'s null-expert routing. ``mask_router`` is
    attached by the strategies that need one and stays None otherwise.
    """

    def __init__(
        self,
        cfg: MoEBlockConfig,
        rng: np.random.Generator,
        null_count: int = 0,
        init_std: float = 0.02,
    ):
        self.cfg = cfg
        self.router_w = Tensor(
            rng.normal(0.0, init_std, (cfg.d_h, cfg.num_experts + null_count)),
            requires_grad=True,
        )
        self.experts = [
            Expert.init_random(cfg.d_h, cfg.d_ff, rng, init_std)
            for _ in range(cfg.num_experts)
        ]
        self.shared = [
            Expert.init_random(cfg.d_h, cfg.d_ff, rng, init_std)
            for _ in range(cfg.num_shared)
        ]
        self.norm_w = (
            Tensor(np.ones(cfg.d_h), requires_grad=True) if cfg.has_norm else None
        )
        self.mask_router = None

    def named_tensors(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = [(f"{prefix}router_w", self.router_w)]
        for group, experts in (("experts", self.experts), ("shared", self.shared)):
            for i, e in enumerate(experts):
                out += [(f"{prefix}{group}.{i}.{n}", getattr(e, n)) for n in EXPERT_TENSORS]
        if self.norm_w is not None:
            out.append((f"{prefix}norm_w", self.norm_w))
        if self.mask_router is not None:
            out.append((f"{prefix}mask_w", self.mask_router.weight))
        return out

    def normalize(self, h: Tensor) -> Tensor:
        return rms_norm(h, self.norm_w) if self.norm_w is not None else h


def group_slots(ids: np.ndarray, num_experts: int) -> tuple[np.ndarray, np.ndarray]:
    """Group the slots of a (T, C) int64 expert-id array by expert: the one
    id check of both expert paths.

    -1 marks no slot; any other id outside [0, num_experts) is rejected, and
    so is a token naming one expert twice. Expert e's tokens are
    ``token_order[offsets[e]:offsets[e + 1]]``, ascending and unique.
    """
    if ids.size and (ids.min() < -1 or ids.max() >= num_experts):
        raise ContractError(
            f"expert ids must lie in [-1, {num_experts}); got {ids.min()}..{ids.max()}"
        )
    flat = ids.reshape(-1)
    real = np.nonzero(flat >= 0)[0]  # ascending flat index == (token, slot) order
    # the narrowest dtype that holds every id makes the stable sort a radix sort
    key = flat[real].astype(np.min_scalar_type(num_experts))
    order = np.argsort(key, kind="stable")
    experts, token_order = key[order], real[order] // ids.shape[1]
    offsets = np.zeros(num_experts + 1, dtype=np.int64)
    np.cumsum(np.bincount(experts, minlength=num_experts), out=offsets[1:])
    # the stable sort keeps each expert's tokens ascending, so a repeat is adjacent
    repeat = np.flatnonzero((token_order[1:] == token_order[:-1]) & (experts[1:] == experts[:-1]))
    if repeat.size:
        i = repeat[0]
        raise ContractError(f"token {token_order[i]} names expert {experts[i]} twice")
    return offsets, token_order


def expert_runs(offsets: np.ndarray, token_order: np.ndarray):
    """(expert, rows) for every expert with a slot, in ascending expert order."""
    bounds = offsets.tolist()
    for e in range(len(bounds) - 1):
        if bounds[e] < bounds[e + 1]:
            yield e, token_order[bounds[e] : bounds[e + 1]]


def slot_weights(weights: np.ndarray, offsets: np.ndarray, token_order: np.ndarray) -> np.ndarray:
    """Each slot's weight, in ``token_order``, under the one weight rule of
    both expert paths: no weight is negative and every positive weight lies
    on a slot. A slot may weigh 0 and then adds exactly 0. NaN is neither, so
    a diverging run's weights reach the loss."""
    slot_expert = np.repeat(np.arange(len(offsets) - 1), offsets[1:] - offsets[:-1])
    w = weights[token_order, slot_expert]
    if np.fmin.reduce(weights, axis=None, initial=0.0) < 0.0:
        raise ContractError("expert weights must be non-negative")
    # the first count settles it when every nonzero weight lies on a slot
    off_slot = np.count_nonzero(weights) != np.count_nonzero(w)
    if off_slot and np.count_nonzero(weights > 0.0) != np.count_nonzero(w > 0.0):
        raise ContractError("a positive expert weight lies off the slot set")
    return w


def moe_block_forward(
    h: Tensor,
    weights_hat: Tensor,
    experts: list[Expert],
    shared_experts: list[Expert] = (),
    *,
    compute_ids: np.ndarray,
    x_norm: Tensor | None = None,
    activation: str = "silu",
) -> Tensor:
    """Residual MoE update h' = h + sum_i ghat_i E_i(x_norm) + shared terms,
    as one tape node.

    ``compute_ids`` (T, C) is the block's slot set, -1 marking no slot, and
    every listed token/expert pair runs (``group_slots``); the weights obey
    ``slot_weights``. ``x_norm`` is ``MoEBlock.normalize(h)``, h when None.
    Routed rows and shared experts run through ``expert_forward`` with
    recording suspended; routed outputs accumulate in ascending expert order
    in every path, so dispatch routes compare at tight tolerances. In the
    backward the weight gradient (g[r] . E_e(x[r])) reaches every slot,
    zero-weight ones included (the straight-through mask needs it), while
    ``expert_backward`` differentiates the expert weights and x on the slots
    with a nonzero weight only. With no slot and no shared expert the input
    is returned unchanged.
    """
    t = h.shape[0]
    n = len(experts)
    if weights_hat.shape != (t, n):
        raise ShapeError("weights_hat must be (tokens, num_experts)")
    slot_ids = np.asarray(compute_ids, dtype=np.int64)
    if slot_ids.ndim != 2 or slot_ids.shape[0] != t:
        raise ShapeError("compute_ids must be (tokens, slots)")
    offsets, token_order = group_slots(slot_ids, n)
    slot_w = slot_weights(weights_hat.data, offsets, token_order)
    if not token_order.size and not shared_experts:
        return h

    x = h if x_norm is None else x_norm
    y = np.zeros(x.shape) if token_order.size else None
    saved = []  # (expert id, rows, weights, outputs)
    bounds = offsets.tolist()
    with untaped():
        for e, rows in expert_runs(offsets, token_order):
            w = slot_w[bounds[e] : bounds[e + 1]]
            o = expert_forward(Tensor._raw(x.data[rows]), experts[e], activation).data
            y[rows] += o * w[:, None]
            saved.append((e, rows, w, o))
        for e in shared_experts:
            o = expert_forward(x, e, activation).data
            # with no routed slot y starts from the first shared output: a -0.0 keeps its sign
            y = o if y is None else np.add(y, o, out=y)
    used = [experts[e] for e, *_ in saved] + list(shared_experts)
    leaves = [h, x] + ([weights_hat] if saved else []) + [p for ex in used for p in ex.tensors()]
    out = Tensor._raw(h.data + y, any(p.requires_grad for p in leaves))

    def rule(g, flow):
        # the order a per-op tape of this block sends in (residual, shared
        # experts last to first, routed experts), so gradients sum alike
        _send(flow, h, g)
        for e in reversed(shared_experts):
            _send(flow, x, expert_backward(x.data, g, e, activation, flow), owned=True)
        if not saved:
            return
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
