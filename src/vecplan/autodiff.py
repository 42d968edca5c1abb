"""Minimal reverse-mode automatic differentiation over dense 2-D float64
arrays.

Every value is a (rows, cols) matrix recorded on a Tape.  Primitives compute
their forward value eagerly and register a vector-Jacobian product; backward
replays the records in strict reverse order exactly once, accumulating
gradients into every node (so a node used twice receives the sum of both
paths).  There is no broadcasting beyond `add_bias_row` and no control-flow
capture: record exactly what you execute.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CheckpointError, ShapeError, read_text


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError("non-finite values in tensor")
    return arr


class Tensor:
    """An immutable node on a tape: a (rows, cols) float64 value."""

    __slots__ = ("tape", "index", "data")

    def __init__(self, tape: "Tape", index: int, data: np.ndarray):
        self.tape = tape
        self.index = index
        self.data = data

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(#{self.index}, shape={self.data.shape})"


class Gradients:
    """Gradient lookup for the nodes of one backward pass."""

    def __init__(self, by_index: dict[int, np.ndarray], tape: "Tape"):
        self._by_index = by_index
        self._tape = tape

    def __getitem__(self, t: Tensor) -> np.ndarray:
        if t.tape is not self._tape:
            raise ShapeError("gradient lookup for a tensor from another tape")
        g = self._by_index.get(t.index)
        if g is None:
            return np.zeros_like(t.data)
        return g


class Tape:
    """Recording of one forward pass.

    Single-writer: record and run backward from one thread; separate tapes
    are independent.
    """

    def __init__(self):
        self._data: list[np.ndarray] = []
        # (output index, input indices, vjp(grad_out) -> per-input grads)
        self._records: list[tuple[int, tuple[int, ...], Callable]] = []

    def _node(self, data: np.ndarray) -> Tensor:
        data = np.ascontiguousarray(data, dtype=np.float64)
        data.flags.writeable = False
        idx = len(self._data)
        self._data.append(data)
        return Tensor(self, idx, data)

    def leaf(self, data) -> Tensor:
        """Enter an input value (parameter or constant) onto the tape."""
        return self._node(_as_matrix(data).copy())

    def _record(self, out: Tensor, inputs: Sequence[Tensor], vjp: Callable) -> Tensor:
        self._records.append((out.index, tuple(t.index for t in inputs), vjp))
        return out

    def backward_from(self, seeds: Iterable[tuple[Tensor, np.ndarray]]) -> Gradients:
        """Reverse sweep from explicitly seeded output gradients.

        Used to chain externally computed gradients (e.g. the analytic
        constraint gradients) into the recorded graph.  Multiple seeds are
        accumulated before the sweep.
        """
        grads: dict[int, np.ndarray] = {}
        for tensor, seed in seeds:
            if tensor.tape is not self:
                raise ShapeError("seed tensor does not belong to this tape")
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != tensor.data.shape:
                raise ShapeError(
                    f"seed shape {seed.shape} does not match node shape {tensor.data.shape}"
                )
            if tensor.index in grads:
                grads[tensor.index] = grads[tensor.index] + seed
            else:
                grads[tensor.index] = seed.copy()
        for out_idx, in_idxs, vjp in reversed(self._records):
            g_out = grads.get(out_idx)
            if g_out is None:
                continue
            for idx, g in zip(in_idxs, vjp(g_out)):
                if idx in grads:
                    grads[idx] = grads[idx] + g
                else:
                    grads[idx] = np.array(g, dtype=np.float64)
        return Gradients(grads, self)

    def backward(self, loss: Tensor) -> Gradients:
        """Reverse sweep from a scalar loss node (seeded with 1)."""
        if loss.data.shape != (1, 1):
            raise ShapeError(f"backward needs a 1x1 loss, got shape {loss.data.shape}")
        return self.backward_from([(loss, np.ones((1, 1)))])


def _same_tape(*ts: Tensor) -> Tape:
    tape = ts[0].tape
    for t in ts[1:]:
        if t.tape is not tape:
            raise ShapeError("operands recorded on different tapes")
    return tape


def matmul(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    out = tape._node(a.data @ b.data)

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return tape._record(out, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    out = tape._node(a.data + b.data)
    return tape._record(out, (a, b), lambda g: (g, g))


def add_bias_row(x: Tensor, bias: Tensor) -> Tensor:
    """Add a (1, cols) bias row to every row of x."""
    tape = _same_tape(x, bias)
    if bias.shape != (1, x.shape[1]):
        raise ShapeError(f"add_bias_row: bias {bias.shape} for input {x.shape}")
    out = tape._node(x.data + bias.data)
    return tape._record(out, (x, bias), lambda g: (g, g.sum(axis=0, keepdims=True)))


def scalar_mul(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = x.tape._node(x.data * c)
    return x.tape._record(out, (x,), lambda g: (g * c,))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    out = x.tape._node(np.where(mask, x.data, 0.0))
    return x.tape._record(out, (x,), lambda g: (g * mask,))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = x.tape._node(y)
    return x.tape._record(out, (x,), lambda g: (g * (1.0 - y * y),))


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    if x.shape[1] == 0:
        raise ShapeError("softmax_rows: rows must be non-empty")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = x.tape._node(y)

    def vjp(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return x.tape._record(out, (x,), vjp)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_cols: need at least one part")
    tape = _same_tape(*parts)
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise ShapeError(f"concat_cols: row mismatch {[p.shape for p in parts]}")
    widths = [p.shape[1] for p in parts]
    out = tape._node(np.concatenate([p.data for p in parts], axis=1))
    offsets = np.cumsum([0] + widths)

    def vjp(g):
        return tuple(g[:, offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return tape._record(out, tuple(parts), vjp)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if not 0 <= start < stop <= x.shape[1]:
        raise ShapeError(f"slice_cols: [{start}:{stop}] of {x.shape}")
    out = x.tape._node(x.data[:, start:stop])

    def vjp(g):
        full = np.zeros(x.shape)
        full[:, start:stop] = g
        return (full,)

    return x.tape._record(out, (x,), vjp)


def transpose(x: Tensor) -> Tensor:
    out = x.tape._node(x.data.T)
    return x.tape._record(out, (x,), lambda g: (g.T,))


def sum_all(x: Tensor) -> Tensor:
    out = x.tape._node(np.array([[x.data.sum()]]))
    return x.tape._record(out, (x,), lambda g: (np.full(x.shape, g[0, 0]),))


def mean_all(x: Tensor) -> Tensor:
    size = x.data.size
    if size == 0:
        raise ShapeError("mean_all of an empty tensor")
    out = x.tape._node(np.array([[x.data.mean()]]))
    return x.tape._record(out, (x,), lambda g: (np.full(x.shape, g[0, 0] / size),))


def l1_to_target(x: Tensor, target) -> Tensor:
    """Mean-per-row L1 distance to a constant target: sum|x - t| / rows.

    The subgradient at exact equality is zero.
    """
    target = _as_matrix(target)
    if target.shape != x.data.shape:
        raise ShapeError(f"l1_to_target: target {target.shape} vs input {x.shape}")
    rows = x.shape[0]
    diff = x.data - target
    out = x.tape._node(np.array([[np.abs(diff).sum() / rows]]))
    return x.tape._record(out, (x,), lambda g: (g[0, 0] * np.sign(diff) / rows,))


# ---------------------------------------------------------------------------
# named-tensor checkpoint files
#
# Plain text, exact round-trip: a header line, then per tensor a
# "name rows cols" line followed by one line of repr'd values per row.

_CHECKPOINT_MAGIC = "vecplan-checkpoint 1"


def checkpoint_text(named: Mapping[str, np.ndarray]) -> str:
    lines = [_CHECKPOINT_MAGIC, str(len(named))]
    for name, arr in named.items():
        if " " in name or "\n" in name:
            raise CheckpointError(f"tensor name may not contain whitespace: {name!r}")
        arr = _as_matrix(arr)
        lines.append(f"{name} {arr.shape[0]} {arr.shape[1]}")
        for row in arr:
            lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def save_checkpoint(path, named: Mapping[str, np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(checkpoint_text(named))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    lines = read_text(path, CheckpointError).splitlines()
    if not lines or lines[0] != _CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    try:
        count = int(lines[1])
        out: dict[str, np.ndarray] = {}
        pos = 2
        for _ in range(count):
            name, rows, cols = lines[pos].split()
            rows, cols = int(rows), int(cols)
            pos += 1
            data = np.empty((rows, cols), dtype=np.float64)
            for r in range(rows):
                values = lines[pos].split()
                if len(values) != cols:
                    raise CheckpointError(
                        f"{path}: tensor {name} row {r} has {len(values)} values, "
                        f"expected {cols}"
                    )
                data[r] = [float(v) for v in values]
                pos += 1
            if not np.isfinite(data).all():
                raise CheckpointError(f"{path}: non-finite values in tensor {name}")
            if name in out:
                raise CheckpointError(f"{path}: duplicate tensor name {name!r}")
            out[name] = data
        return out
    # a MemoryError comes from a header declaring a tensor too large to allocate
    except (ValueError, IndexError, MemoryError) as e:
        raise CheckpointError(f"{path}: malformed checkpoint: {e}") from e
