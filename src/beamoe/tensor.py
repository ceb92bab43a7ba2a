"""Dense float64 arrays with tape-based reverse-mode differentiation.

Just enough machinery for a small mixture-of-experts stack: matmul, softmax
over a kept set, causal attention, sigmoid, row gather, rms-norm,
cross-entropy, plus a straight-through binarizer; the gated-linear-unit
expert is a fused op of its own, ``moe.expert_forward``. Forward values live
in numpy; every op records a backward rule on the active tape. With no tape
active the same functions run forward-only, which is how inference reuses
the exact training arithmetic.

Gradients are additive: ``Tape.backward`` accumulates into ``Tensor.grad``
and never clears it, so running backward twice doubles the gradient. Callers
reset grads between steps.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class NumericError(ArithmeticError):
    """A value that must be finite is NaN or infinite."""


class ContractError(ValueError):
    """An input violates a documented precondition."""


class Tensor:
    """A float64 array plus an additive gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor data must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @classmethod
    def _raw(cls, arr: np.ndarray, requires_grad: bool = False) -> "Tensor":
        # Internal fast path: trusted array, no copy, no finiteness check.
        t = cls.__new__(cls)
        t.data = arr
        t.grad = None
        t.requires_grad = requires_grad
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def accumulate_grad(self, contribution: np.ndarray) -> None:
        # the first contribution becomes the buffer: pass only unshared arrays
        if self.grad is None:
            self.grad = contribution
        else:
            self.grad += contribution

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


# Innermost last; a None entry (see ``untaped``) suspends recording.
_TAPES: list["Tape | None"] = []


class Tape:
    """Ordered record of operations for one reverse sweep.

    Nodes are appended in execution order, which is a topological order by
    construction; ``backward`` walks them once in reverse. Per-call gradient
    flow is kept in a scratch map so repeated backward calls over the same
    tape add (rather than corrupt) persisted gradients.
    """

    def __init__(self):
        self.nodes: list[tuple[Tensor, object]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        assert popped is self

    def backward(self, root: Tensor) -> None:
        if root.data.size != 1:
            raise ShapeError("backward root must be a scalar")
        if not np.isfinite(root.data):
            raise NumericError("backward root is not finite")
        flow: dict[int, tuple[Tensor, np.ndarray]] = {
            id(root): (root, np.ones_like(root.data))
        }
        for out, rule in reversed(self.nodes):
            entry = flow.pop(id(out), None)
            if entry is None:
                continue
            g = entry[1]
            # flow buffers are owned here; rules only read them
            out.accumulate_grad(g)
            rule(g, flow)
        for tensor, g in flow.values():
            tensor.accumulate_grad(g)


def _active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


@contextmanager
def untaped():
    """Run ops forward-only inside an active tape: nothing is recorded.

    For fused ops that evaluate taped building blocks for their values and
    record one node of their own with a closed-form backward.
    """
    _TAPES.append(None)
    try:
        yield
    finally:
        _TAPES.pop()


def _record(out: Tensor, rule) -> None:
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.nodes.append((out, rule))


def _send(flow: dict, t: Tensor, contribution: np.ndarray, owned: bool = False) -> None:
    """Add a gradient contribution to ``t``'s flow buffer.

    The first contribution becomes the buffer, which later ones are added
    into in place, so it is copied unless ``owned``: pass ``owned=True`` only
    for an array the rule has just allocated and does not send elsewhere,
    never for ``g`` itself or a view of it.
    """
    if not t.requires_grad:
        return
    key = id(t)
    entry = flow.get(key)
    if entry is None:
        flow[key] = (t, contribution if owned else contribution.copy())
    else:
        entry[1].__iadd__(contribution)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor._raw(np.asarray(x, dtype=np.float64))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor._raw(a.data + b.data, a.requires_grad or b.requires_grad)

    def rule(g, flow):
        _send(flow, a, _unbroadcast(g, a.data.shape))
        _send(flow, b, _unbroadcast(g, b.data.shape))

    _record(out, rule)
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor._raw(a.data * b.data, a.requires_grad or b.requires_grad)
    a_data, b_data = a.data, b.data

    def rule(g, flow):
        _send(flow, a, _unbroadcast(g * b_data, a_data.shape), owned=True)
        _send(flow, b, _unbroadcast(g * a_data, b_data.shape), owned=True)

    _record(out, rule)
    return out


# ---------------------------------------------------------------------------
# linear algebra and reductions
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; N-d operands contract over the last two axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-d")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}"
        )
    out = Tensor._raw(np.matmul(a.data, b.data), a.requires_grad or b.requires_grad)
    a_data, b_data = a.data, b.data

    def rule(g, flow):
        ga = np.matmul(g, b_data.swapaxes(-1, -2))
        gb = np.matmul(a_data.swapaxes(-1, -2), g)
        _send(flow, a, _unbroadcast(ga, a_data.shape), owned=True)
        _send(flow, b, _unbroadcast(gb, b_data.shape), owned=True)

    _record(out, rule)
    return out


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    out = Tensor._raw(x.data.sum(axis=axis), x.requires_grad)
    shape = x.data.shape

    def rule(g, flow):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _send(flow, x, np.broadcast_to(g, shape).copy(), owned=True)

    _record(out, rule)
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    out = Tensor._raw(x.data.reshape(shape), x.requires_grad)
    old = x.data.shape

    def rule(g, flow):
        _send(flow, x, g.reshape(old))

    _record(out, rule)
    return out


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """View of columns [start, stop) along the last axis."""
    x = _as_tensor(x)
    out = Tensor._raw(x.data[..., start:stop], x.requires_grad)
    shape = x.data.shape

    def rule(g, flow):
        gx = np.zeros(shape)
        gx[..., start:stop] = g
        _send(flow, x, gx, owned=True)

    _record(out, rule)
    return out


# ---------------------------------------------------------------------------
# gather
# ---------------------------------------------------------------------------


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Row gather: out[i...] = x[idx[i...]]. Also serves as embedding lookup."""
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise IndexError("row index out of range")
    out = Tensor._raw(x.data[idx], x.requires_grad)
    shape = x.data.shape

    def rule(g, flow):
        gx = np.zeros(shape)
        np.add.at(gx, idx, g)
        _send(flow, x, gx, owned=True)

    _record(out, rule)
    return out


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    # Overflow-free in both tails: t = 1 / (1 + exp(-|x|)) = sigmoid(|x|),
    # and sigmoid(x) = 0.5 + copysign(t - 0.5, x). With t in [0.5, 1] both
    # steps are exact, so this equals where(x >= 0, t, 1 - t) bit for bit,
    # without the branch; all of it runs in one buffer.
    x = np.asarray(x)
    t = np.empty(x.shape, dtype=np.result_type(x, 1.0))
    np.abs(x, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    t += 1.0
    np.divide(1.0, t, out=t)
    t -= 0.5
    np.copysign(t, x, out=t)
    t += 0.5
    return t


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y = sigmoid_np(x.data)
    out = Tensor._raw(y, x.requires_grad)

    def rule(g, flow):
        _send(flow, x, g * y * (1.0 - y), owned=True)

    _record(out, rule)
    return out


def softmax_np(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    if keep.shape != x.shape:
        raise ShapeError(f"keep {keep.shape} does not match softmax input {x.shape}")
    if not keep.any(axis=-1).all():
        raise ContractError("softmax row with every entry masked")
    # dropped entries become -inf, and exp(-inf) is exactly 0
    z = np.where(keep, x, -np.inf)
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    # a NaN or +inf kept logit makes its whole row NaN; dropped entries stay 0
    np.copyto(z, 0.0, where=~keep)
    return z


def softmax(x: Tensor, keep: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, restricted to ``keep`` (every entry when
    None): entries outside it map to exactly 0 probability and receive
    exactly +0 gradient."""
    x = _as_tensor(x)
    keep = np.ones(x.shape, dtype=bool) if keep is None else np.asarray(keep, dtype=bool)
    y = softmax_np(x.data, keep)
    out = Tensor._raw(y, x.requires_grad)

    def rule(g, flow):
        dot = (g * y).sum(axis=-1, keepdims=True)
        gx = y * (g - dot)
        np.copyto(gx, 0.0, where=~keep)
        _send(flow, x, gx, owned=True)

    _record(out, rule)
    return out


@lru_cache(maxsize=128)
def causal_masks(t: int, tq: int) -> tuple[np.ndarray, np.ndarray]:
    """(seen, future) of the last ``tq`` of ``t`` positions: query i sees keys
    0..t - tq + i. Cached per shape, so both arrays are read-only."""
    seen = np.tri(t, dtype=bool)[t - tq :]
    future = ~seen
    seen.flags.writeable = future.flags.writeable = False
    return seen, future


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head causal self-attention as one tape node.

    ``q`` is (B, Tq, D), the queries of the last Tq of T positions; ``k`` and
    ``v`` are (B, T, D). Each of the ``n_heads`` heads takes hd = D / n_heads
    consecutive columns, and query i (position T - Tq + i) attends to keys
    0..T - Tq + i with weights softmax(q_h k_h^T / sqrt(hd)). The result is
    (B, Tq, D), the heads merged back in column order.

    The row max is taken over the keys a query sees, and the weights of the
    other keys are set to exactly 0. No row is fully masked, because a query
    always sees its own key; the softmax therefore needs no all-masked check.

    The output equals that of the per-op chain (head split, scores, scale,
    mask, softmax, value product, merge) bit for bit. The backward is closed
    form and repeats the chain's arithmetic in the same order, so the
    gradients equal the chain's bit for bit too.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 3 or k.ndim != 3 or v.shape != k.shape:
        raise ShapeError(f"need 3-d q and k, v of one shape: {q.shape}, {k.shape}, {v.shape}")
    b, tq, d = q.shape
    t = k.shape[1]
    if k.shape[0] != b or k.shape[2] != d:
        raise ShapeError(f"q {q.shape} and k {k.shape} disagree in batch or width")
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"width {d} is not divisible by n_heads {n_heads}")
    if tq > t:
        raise ShapeError(f"{tq} queries for {t} keys")
    hd = d // n_heads
    scale = 1.0 / np.sqrt(hd)

    def split(z, n):
        return z.reshape(b, n, n_heads, hd).transpose(0, 2, 1, 3)

    def merge(z, n):
        return z.transpose(0, 2, 1, 3).reshape(b, n, d)

    q_h, k_h, v_h = split(q.data, tq), split(k.data, t), split(v.data, t)
    seen, future = causal_masks(t, tq)
    y = np.matmul(q_h, k_h.swapaxes(-1, -2))
    y *= scale
    y -= y.max(axis=-1, keepdims=True, where=seen, initial=-np.inf)
    # exp of a future score may overflow; it is zeroed next. Keeping -inf
    # out of exp's input keeps exp on its fast path (a third of the time).
    with np.errstate(over="ignore"):
        np.exp(y, out=y)
    np.copyto(y, 0.0, where=future)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor._raw(
        merge(np.matmul(y, v_h), tq), q.requires_grad or k.requires_grad or v.requires_grad
    )

    def rule(g, flow):
        g_h = split(g, tq)
        gs = np.matmul(g_h, v_h.swapaxes(-1, -2))
        gv = np.matmul(y.swapaxes(-1, -2), g_h)
        gs -= (gs * y).sum(axis=-1, keepdims=True)
        gs *= y
        np.copyto(gs, 0.0, where=future)
        gs *= scale
        _send(flow, q, merge(np.matmul(gs, k_h), tq), owned=True)
        _send(flow, k, merge(np.matmul(q_h.swapaxes(-1, -2), gs).swapaxes(-1, -2), t), owned=True)
        _send(flow, v, merge(gv, t), owned=True)

    _record(out, rule)
    return out


def binarize_ste(x: Tensor, threshold: float) -> Tensor:
    """Hard threshold (inclusive) in the forward pass; identity in backward.

    The non-differentiable step is the one place the tape lies on purpose:
    the straight-through rule passes the incoming gradient unchanged.
    """
    x = _as_tensor(x)
    out = Tensor._raw((x.data >= threshold).astype(np.float64), x.requires_grad)

    def rule(g, flow):
        _send(flow, x, g)

    _record(out, rule)
    return out


RMS_EPS = 1e-6


def rms_norm(x: Tensor, weight: Tensor) -> Tensor:
    """Root-mean-square normalization over the last axis with learnable scale."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    d = x.data.shape[-1]
    # the sum and divide that numpy's mean runs, without its Python wrapper
    ms = (x.data * x.data).sum(axis=-1, keepdims=True) / d + RMS_EPS
    inv = ms**-0.5
    normed = x.data * inv
    out = Tensor._raw(normed * weight.data, x.requires_grad or weight.requires_grad)
    x_data, w_data = x.data, weight.data

    def rule(g, flow):
        gw_axes = tuple(range(g.ndim - 1))
        _send(flow, weight, (g * normed).sum(axis=gw_axes), owned=True)
        gw = g * w_data
        dot = (gw * x_data).sum(axis=-1, keepdims=True)
        _send(flow, x, inv * gw - (inv**3 / d) * x_data * dot, owned=True)

    _record(out, rule)
    return out


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax probability of integer targets.

    logits: (T, V); targets: (T,) ints in [0, V).
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError("cross_entropy expects 2-d logits")
    t, v = logits.data.shape
    if targets.shape != (t,):
        raise ShapeError("targets must have one entry per logits row")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise IndexError("target id out of vocabulary range")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    loss = -logp[np.arange(t), targets].mean()
    out = Tensor._raw(np.asarray(loss), logits.requires_grad)

    def rule(g, flow):
        grad = np.exp(logp)
        grad[np.arange(t), targets] -= 1.0
        _send(flow, logits, grad * (g / t), owned=True)

    _record(out, rule)
    return out
