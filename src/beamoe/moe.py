"""Core mixture-of-experts layer: gated-linear-unit experts, top-k routing,
load-balancing loss, and the residual block with optional shared experts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    NEG_SENTINEL,
    ContractError,
    ShapeError,
    Tensor,
    _record,
    _send,
    add,
    mask_fill,
    matmul,
    mul,
    rms_norm,
    sigmoid_np,
    silu,
    softmax,
    tsum,
    untaped,
)


def _identity(x):
    return x


ACTIVATIONS = {"silu": silu, "identity": _identity}


def _silu_np(x: np.ndarray) -> np.ndarray:
    return x * sigmoid_np(x)


ACTIVATIONS_NP = {"silu": _silu_np, "identity": lambda x: x}


def _silu_and_slope(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = sigmoid_np(x)
    return x * s, s * (1.0 + x * (1.0 - s))


# activation name -> (value, derivative) at a pre-activation array
ACTIVATION_SLOPES_NP = {
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
        return cls(
            w_gate=Tensor(rng.normal(0.0, std, (d_h, d_ff)), requires_grad=True),
            w_up=Tensor(rng.normal(0.0, std, (d_h, d_ff)), requires_grad=True),
            w_down=Tensor(rng.normal(0.0, std, (d_ff, d_h)), requires_grad=True),
        )

    def tensors(self) -> list[Tensor]:
        return [self.w_gate, self.w_up, self.w_down]


def expert_forward(x: Tensor, expert: Expert, activation: str = "silu") -> Tensor:
    """(act(x @ W_gate) * (x @ W_up)) @ W_down."""
    act = ACTIVATIONS[activation]
    return matmul(mul(act(matmul(x, expert.w_gate)), matmul(x, expert.w_up)), expert.w_down)


def expert_forward_np(x: np.ndarray, expert: Expert, activation: str = "silu") -> np.ndarray:
    # Inference fast path; mirrors expert_forward op for op so results are
    # bit-identical to the taped version.
    act = ACTIVATIONS_NP[activation]
    return (act(x @ expert.w_gate.data) * (x @ expert.w_up.data)) @ expert.w_down.data


@dataclass
class RouterDecision:
    """Primary-router output for one batch of tokens.

    ``weights`` holds the full (T, N) weight matrix: softmax over the kept
    logits on each token's top-k set, exactly zero elsewhere.
    """

    logits: Tensor
    topk_indices: np.ndarray
    weights: Tensor


def topk_select(logits: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries per row, ties won by the lower index."""
    order = np.argsort(-logits, axis=-1, kind="stable")
    return np.ascontiguousarray(order[..., :k])


def topk_route(x: Tensor, router_weights: Tensor, k: int) -> RouterDecision:
    """Route tokens to their k highest-logit experts.

    Non-selected logits are replaced by the most-negative finite sentinel
    before the softmax, which maps them to exactly zero weight.
    """
    n = router_weights.shape[-1]
    if not 1 <= k <= n:
        raise ContractError("top_k must satisfy 1 <= K <= N")
    logits = matmul(x, router_weights)
    idx = topk_select(logits.data, k)
    keep = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(keep, idx, True, axis=-1)
    masked = mask_fill(logits, keep, NEG_SENTINEL)
    weights = softmax(masked, masked_value=NEG_SENTINEL)
    return RouterDecision(logits=logits, topk_indices=idx, weights=weights)


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

    The router matrix has ``num_experts + extra_router_cols`` columns; the
    extra columns exist only for null-expert routing. ``mask_router`` is
    attached by the strategies that need one and stays None otherwise.
    """

    def __init__(
        self,
        cfg: MoEBlockConfig,
        rng: np.random.Generator,
        extra_router_cols: int = 0,
        init_std: float = 0.02,
    ):
        self.cfg = cfg
        self.router_w = Tensor(
            rng.normal(0.0, init_std, (cfg.d_h, cfg.num_experts + extra_router_cols)),
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
        for i, e in enumerate(self.experts):
            out += [
                (f"{prefix}experts.{i}.w_gate", e.w_gate),
                (f"{prefix}experts.{i}.w_up", e.w_up),
                (f"{prefix}experts.{i}.w_down", e.w_down),
            ]
        for i, e in enumerate(self.shared):
            out += [
                (f"{prefix}shared.{i}.w_gate", e.w_gate),
                (f"{prefix}shared.{i}.w_up", e.w_up),
                (f"{prefix}shared.{i}.w_down", e.w_down),
            ]
        if self.norm_w is not None:
            out.append((f"{prefix}norm_w", self.norm_w))
        if self.mask_router is not None:
            out.append((f"{prefix}mask_w", self.mask_router.weight))
        return out

    def normalize(self, h: Tensor) -> Tensor:
        return rms_norm(h, self.norm_w) if self.norm_w is not None else h


def grouped_glu(
    x: Tensor,
    weights_hat: Tensor,
    rows_per_expert: list[np.ndarray],
    experts: list[Expert],
    activation: str = "silu",
) -> Tensor:
    """y[r] = sum_e ghat[r, e] * E_e(x[r]) over each expert's rows, as one
    tape node.

    ``rows_per_expert[e]`` lists expert e's rows, ascending and unique. Each
    expert runs through ``expert_forward`` with recording suspended, and y
    accumulates in ascending expert order. The backward is closed form: the
    weight gradient (g[r] . E_e(x[r])) reaches every listed row, zero-weight
    rows included (the straight-through mask needs it), while the expert
    weights and x are differentiated on the rows with a nonzero weight only,
    the rest contributing exactly zero. Those rows' gate and up projections
    are recomputed rather than kept from the forward.
    """
    y = np.zeros(x.shape)
    saved = []  # (expert id, rows, weights, outputs)
    with untaped():
        for e, rows in enumerate(rows_per_expert):
            if rows.size == 0:
                continue
            w = weights_hat.data[rows, e]
            o = expert_forward(Tensor._raw(x.data[rows]), experts[e], activation).data
            y[rows] += o * w[:, None]
            saved.append((e, rows, w, o))
    requires_grad = (
        x.requires_grad
        or weights_hat.requires_grad
        or any(p.requires_grad for e, *_ in saved for p in experts[e].tensors())
    )
    out = Tensor._raw(y, requires_grad)
    act_and_slope = ACTIVATION_SLOPES_NP[activation]

    def rule(g, flow):
        g_weights = np.zeros(weights_hat.shape)
        gx = np.zeros(x.shape)
        for e, rows, w, o in saved:
            g_rows = g[rows]
            g_weights[rows, e] = (g_rows * o).sum(axis=-1)
            live = w != 0.0
            live_rows = rows[live]
            ex = experts[e]
            x_live = x.data[live_rows]
            g_out = g_rows[live] * w[live, None]
            gate_pre = x_live @ ex.w_gate.data
            up = x_live @ ex.w_up.data
            gate, slope = act_and_slope(gate_pre)
            g_hidden = g_out @ ex.w_down.data.T
            g_up = g_hidden * gate
            g_gate_pre = g_hidden * up * slope
            _send(flow, ex.w_down, (gate * up).T @ g_out, owned=True)
            _send(flow, ex.w_gate, x_live.T @ g_gate_pre, owned=True)
            _send(flow, ex.w_up, x_live.T @ g_up, owned=True)
            gx[live_rows] += g_gate_pre @ ex.w_gate.data.T + g_up @ ex.w_up.data.T
        _send(flow, weights_hat, g_weights, owned=True)
        _send(flow, x, gx, owned=True)

    _record(out, rule)
    return out


def moe_block_forward(
    h: Tensor,
    weights_hat: Tensor,
    experts: list[Expert],
    shared_experts: list[Expert] = (),
    *,
    norm_weight: Tensor | None = None,
    x_norm: Tensor | None = None,
    activation: str = "silu",
    compute_ids: np.ndarray | None = None,
    shared_weight: float = 1.0,
) -> Tensor:
    """Residual MoE update h' = h + sum_i ghat_i E_i(N(h)) + shared terms.

    ``weights_hat`` may contain zeros; with all-zero weights and no shared
    experts the input is returned unchanged. ``compute_ids`` (T, C) forces
    expert evaluation for those token/expert pairs even where the weight is
    zero, which training needs so the weight gradients exist; such a closed
    slot costs its forward only, its backward through the expert being
    exactly zero and skipped. Per-token accumulation runs in ascending
    expert order in every execution path, so alternative dispatch routes can
    be compared at tight tolerances.
    """
    if np.any(weights_hat.data < 0):
        raise ContractError("expert weights must be non-negative")
    t = h.shape[0]
    n = len(experts)
    if weights_hat.shape != (t, n):
        raise ShapeError("weights_hat must be (tokens, num_experts)")

    if x_norm is None:
        x_norm = rms_norm(h, norm_weight) if norm_weight is not None else h

    if compute_ids is not None:
        compute_ids = np.asarray(compute_ids, dtype=np.int64)
        if compute_ids.size and (compute_ids.min() < 0 or compute_ids.max() >= n):
            raise ContractError("compute_ids must lie in [0, num_experts)")
        planned = np.zeros((t, n), dtype=bool)
        planned[np.arange(t)[:, None], compute_ids] = True
    else:
        planned = weights_hat.data != 0.0
    # (N, T) row-major nonzero: rows grouped by expert, ascending within each
    expert_of, rows = np.nonzero(planned.T)
    bounds = np.searchsorted(expert_of, np.arange(1, n))

    y: Tensor | None = None
    if rows.size:
        y = grouped_glu(x_norm, weights_hat, np.split(rows, bounds), experts, activation)
    for e in shared_experts:
        so = expert_forward(x_norm, e, activation)
        if shared_weight != 1.0:
            so = mul(so, shared_weight)
        y = so if y is None else add(y, so)

    if y is None:
        return h
    return add(h, y)
