"""Tape ops that only the reference oracles in the tests use.

The per-expert composition that ``moe_block_forward`` is checked against
scatters and gathers through the tape with these; the library itself runs
the fused ``grouped_glu`` instead.
"""

import numpy as np

from beamoe.tensor import Tensor, _as_tensor, _record, _send


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
