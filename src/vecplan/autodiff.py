"""Minimal reverse-mode automatic differentiation over dense 2-D float64
arrays.

Every value is a (rows, cols) matrix recorded on a Tape.  Inputs enter as
copied leaves (`Tape.leaf`), checked as every input tensor is (`_as_matrix`),
or as constants (`Tape.constant`), leaves that receive no gradient: `mlp` and
`matmul` skip the product that would give them one.  Parameters enter all at
once as read-only views with no copy or check (`Tape.params`), since their
owner checks them.  A primitive checks its own operands, computes its value
eagerly and enters it with its vector-Jacobian product in one call
(`Tape._op`).  Backward replays the records in strict reverse order exactly
once.  It holds a node's first gradient by reference, copied only if not
C-contiguous, and adds a later one as `have + g`, never in place, since one
array may be the gradient of several nodes (`add` gives its own to both
inputs); the parameters' gradients end up in one flat vector laid out like
`InteractionParams.flat` (`Gradients.flat`).  Three fused records run the
numpy operations of a chain of primitives in its order, so with its bits in
value and every input gradient: `mlp` (relu(x @ w1 + b1) @ w2 + b2),
`decoder_block` (multi-head cross-attention with output projection and
residual, then a perceptron with a residual) and `mlp_head` (concatenation,
three layers and a scale).  A record holds input indices and a closure over
arrays and shapes, never a `Tensor`, so a tape holds no reference cycle and
reference counting frees it as soon as nothing refers to it.  No broadcasting
beyond the bias rows and no control-flow capture: record exactly what you
execute.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CheckpointError, ShapeError, read_text

_CROSS_TAPE = "operands recorded on different tapes"
# the reductions behind ndarray.sum and ndarray.max, without their Python wrappers
_sum = np.add.reduce
_max = np.maximum.reduce


def _as_matrix(data) -> np.ndarray:
    """`data` as a finite 2-D float64 array, a 1-D input as one row."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ShapeError("non-finite values in tensor")
    return arr


class Tensor:
    """An immutable node on a tape: a (rows, cols) float64 value."""

    __slots__ = ("tape", "index", "data", "shape")

    def __init__(self, tape: "Tape", index: int, data: np.ndarray):
        self.tape = tape
        self.index = index
        self.data = data
        self.shape: tuple[int, int] = data.shape  # `data` is never reassigned

    def __repr__(self) -> str:
        return f"Tensor(#{self.index}, shape={self.data.shape})"


class Gradients:
    """Gradient lookup for the nodes of one backward pass.  `flat` holds the
    `Tape.params` leaves' gradients, tensor after tensor in entry order, zero
    where no record reaches; a parameter's gradient is a view of it.  A lookup
    is read-only, since one array may hold the gradient of several nodes; a
    constant's, or an unreached node's, is zeros."""

    def __init__(self, by_index: dict[int, np.ndarray], tape: "Tape", flat: np.ndarray):
        self._by_index = by_index
        self._tape = tape
        self.flat = flat

    def __getitem__(self, t: Tensor) -> np.ndarray:
        tape = self._tape
        if t.tape is not tape:
            raise ShapeError("gradient lookup for a tensor from another tape")
        if t.index in tape._param_indices:
            k = tape._param_indices.index(t.index)
            lo = sum(tape._data[i].size for i in tape._param_indices[:k])
            g = self.flat[lo : lo + t.data.size].reshape(t.shape)
        elif t.index in tape._constants or t.index not in self._by_index:
            g = np.zeros(t.shape)
        else:
            g = self._by_index[t.index].view()
        g.flags.writeable = False
        return g


class Tape:
    """Recording of one forward pass.

    Single-writer: record and run backward from one thread; separate tapes
    are independent.  Parameter leaves (`params`) are views of the caller's
    arrays, and the recorded vector-Jacobian products read them, so run
    `backward_from` before updating the parameters in place.
    """

    def __init__(self):
        self._data: list[np.ndarray] = []
        # (output index, input indices, vjp(grad_out) -> per-input grads)
        self._records: list[tuple[int, tuple[int, ...], Callable]] = []
        self._param_indices: list[int] = []  # the `params` leaves, in entry order
        self._constants: set[int] = set()  # the `constant` leaves

    def _op(self, data: np.ndarray, inputs: tuple[int, ...], vjp: Callable) -> Tensor:
        """Enter a primitive's fresh C-contiguous output and its record."""
        data.setflags(write=False)
        index = len(self._data)
        self._data.append(data)
        self._records.append((index, inputs, vjp))
        return Tensor(self, index, data)

    def leaf(self, data) -> Tensor:
        """Enter an input value onto the tape as a finite-checked, read-only
        C-order copy; a 1-D input becomes one row."""
        arr = np.array(_as_matrix(data), order="C")
        arr.setflags(write=False)
        index = len(self._data)
        self._data.append(arr)
        return Tensor(self, index, arr)

    def constant(self, data) -> Tensor:
        """Enter an input value as `leaf` does, as one that receives no
        gradient: `mlp` and `matmul` skip its product; a lookup reads zeros."""
        t = self.leaf(data)
        self._constants.add(t.index)
        return t

    def params(self, views: Mapping[str, np.ndarray]) -> dict[str, Tensor]:
        """Enter named parameters as leaves, in order, with no copy and no
        check: the caller passes read-only, C-contiguous 2-D float64 views
        whose values it has checked."""
        start = len(self._data)
        self._data.extend(views.values())
        self._param_indices.extend(range(start, len(self._data)))
        out = {}
        # the constructor's work without its frame, once per parameter
        for index, (name, arr) in enumerate(views.items(), start):
            t = out[name] = object.__new__(Tensor)
            t.tape = self
            t.index = index
            t.data = arr
            t.shape = arr.shape
        return out

    def backward_from(self, seeds: Iterable[tuple[Tensor, np.ndarray]]) -> Gradients:
        """Reverse sweep from explicitly seeded output gradients.

        Used to chain externally computed gradients (e.g. the analytic
        constraint gradients) into the recorded graph.  Multiple seeds are
        accumulated before the sweep.
        """
        # made before the sweep's arrays, or it tends to top the heap, which a
        # free hands back to the system: each backward paid page faults for it
        sizes = map(attrgetter("size"), map(self._data.__getitem__, self._param_indices))
        flat = np.empty(sum(sizes))
        grads: dict[int, np.ndarray] = {}
        pending = []
        for tensor, seed in seeds:
            if tensor.tape is not self:
                raise ShapeError("seed tensor does not belong to this tape")
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != tensor.data.shape:
                raise ShapeError(
                    f"seed shape {seed.shape} does not match node shape {tensor.data.shape}"
                )
            pending.append((tensor.index, np.array(seed, order="C")))  # the caller's: a copy
        # the seeds, then each reached record's input gradients (None for a
        # constant), in reverse order
        records = reversed(self._records)
        while True:
            for idx, g in pending:
                if g is None:
                    continue
                have = grads.get(idx)
                if have is not None:
                    grads[idx] = have + g
                else:
                    grads[idx] = g if g.flags.c_contiguous else np.ascontiguousarray(g)
            for out_idx, in_idxs, vjp in records:
                if out_idx in grads:
                    pending = zip(in_idxs, vjp(grads[out_idx]))
                    break
            else:
                break
        parts = [grads[i] if i in grads else np.zeros(self._data[i].size)
                 for i in self._param_indices]
        if parts:
            np.concatenate(parts, axis=None, out=flat)
        return Gradients(grads, self, flat)

    def backward(self, loss: Tensor) -> Gradients:
        """Reverse sweep from a scalar loss node (seeded with 1)."""
        if loss.data.shape != (1, 1):
            raise ShapeError(f"backward needs a 1x1 loss, got shape {loss.data.shape}")
        return self.backward_from([(loss, np.ones((1, 1)))])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    tape = a.tape
    if b.tape is not tape:
        raise ShapeError(_CROSS_TAPE)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    a_in, b_in = a.data, b.data
    a_grad = a.index not in tape._constants
    b_grad = b.index not in tape._constants

    def vjp(g):
        return g @ b_in.T if a_grad else None, a_in.T @ g if b_grad else None

    return tape._op(a_in @ b_in, (a.index, b.index), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = a.tape
    if b.tape is not tape:
        raise ShapeError(_CROSS_TAPE)
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    return tape._op(a.data + b.data, (a.index, b.index), lambda g: (g, g))


def add_bias_row(x: Tensor, bias: Tensor) -> Tensor:
    """Add a (1, cols) bias row to every row of x."""
    tape = x.tape
    if bias.tape is not tape:
        raise ShapeError(_CROSS_TAPE)
    if bias.shape != (1, x.shape[1]):
        raise ShapeError(f"add_bias_row: bias {bias.shape} for input {x.shape}")
    return tape._op(
        x.data + bias.data, (x.index, bias.index), lambda g: (g, _sum(g, axis=0, keepdims=True))
    )


def _mlp(x_in: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, x_grad: bool):
    """`mlp`'s shape checks, then its value and its vjp, which gives x None
    unless `x_grad`."""
    if x_in.shape[1] != w1.shape[0] or w1.shape[1] != w2.shape[0]:
        raise ShapeError(f"mlp: {x_in.shape} @ {w1.shape} @ {w2.shape}")
    if b1.shape != (1, w1.shape[1]) or b2.shape != (1, w2.shape[1]):
        raise ShapeError(f"mlp: biases {b1.shape}, {b2.shape} for {w1.shape}, {w2.shape}")
    w1_in, w2_in = w1.data, w2.data
    pre = x_in @ w1_in + b1.data
    mask = pre > 0.0
    h = np.where(mask, pre, 0.0)

    def vjp(g):
        g_h = (g @ w2_in.T) * mask
        return (g_h @ w1_in.T if x_grad else None, x_in.T @ g_h,
                _sum(g_h, axis=0, keepdims=True), h.T @ g, _sum(g, axis=0, keepdims=True))

    return h @ w2_in + b2.data, vjp


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 as one record; the same numpy operations,
    in the same order, as the `matmul`, `add_bias_row` and `relu` chain."""
    tape = x.tape
    if not (tape is w1.tape is b1.tape is w2.tape is b2.tape):
        raise ShapeError(_CROSS_TAPE)
    out, vjp = _mlp(x.data, w1, b1, w2, b2, x.index not in tape._constants)
    return tape._op(out, (x.index, w1.index, b1.index, w2.index, b2.index), vjp)


def _add_cols(total, g, shape, lo: int, hi: int) -> np.ndarray:
    # what a tape sums for a node read by column slices, slice by slice
    if total is None and hi - lo == shape[1]:
        return np.ascontiguousarray(g)  # every column: the bits of a copy into zeros
    full = np.zeros(shape)
    full[:, lo:hi] = g
    return full if total is None else total + full


def _attention(q, q_pos, k, k_pos, v, wq, wk, wv, wo, n_heads: int):
    """Multi-head cross-attention with output projection and residual, for
    keys of at least one row: q + concat_h(softmax((q + q_pos) wq_h
    ((k + k_pos) wk_h)^T / sqrt(d_head)) (v wv)_h) wo, with the heads taking
    equal column slices.

    Checks the operands, then returns the value, each head's read-only
    (q rows, k rows) weights, the input indices and the vjp.  It runs the
    numpy operations of the `add`, `matmul`, `slice_cols`, `transpose`,
    `scalar_mul`, `softmax_rows` and `concat_cols` chain in the same order,
    on the same memory layouts, and delivers the input gradients in the
    order that chain does, so both give the same bits."""
    if not (q.tape is q_pos.tape is k.tape is k_pos.tape is v.tape
            is wq.tape is wk.tape is wv.tape is wo.tape):
        raise ShapeError(_CROSS_TAPE)
    d = q.shape[1]
    if (q_pos.shape != q.shape or k.shape[1] != d or k_pos.shape != k.shape
            or v.shape != k.shape or {wq.shape, wk.shape, wv.shape, wo.shape} != {(d, d)}):
        raise ShapeError(
            f"attention: q {q.shape}, q_pos {q_pos.shape}, k {k.shape}, k_pos {k_pos.shape}, "
            f"v {v.shape}, weights {[w.shape for w in (wq, wk, wv, wo)]}"
        )
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"attention: width {d} does not split into {n_heads} heads")
    q_in, v_in, wq_in, wk_in, wv_in, wo_in = q.data, v.data, wq.data, wk.data, wv.data, wo.data
    qq = q_in + q_pos.data
    kk = k.data + k_pos.data
    qh = qq @ wq_in
    kh = kk @ wk_in
    vh = v_in @ wv_in
    d_head = d // n_heads
    scale = 1.0 / math.sqrt(d_head)
    heads, weights, outs = [], [], []
    for h in range(n_heads):
        lo, hi = h * d_head, (h + 1) * d_head
        qs = np.ascontiguousarray(qh[:, lo:hi])
        k_t = np.ascontiguousarray(kh[:, lo:hi].T)
        logits = (qs @ k_t) * scale
        e = np.exp(logits - _max(logits, axis=1, keepdims=True))
        y = e / _sum(e, axis=1, keepdims=True)
        y.setflags(write=False)
        vs = np.ascontiguousarray(vh[:, lo:hi])
        heads.append((lo, hi, qs, k_t, y, vs))
        weights.append(y)
        outs.append(y @ vs)
    att = outs[0] if n_heads == 1 else np.concatenate(outs, axis=1)

    def vjp(g):
        g_att = g @ wo_in.T
        g_qh = g_kh = g_vh = None
        for lo, hi, qs, k_t, y, vs in reversed(heads):
            g_o = g_att if n_heads == 1 else np.array(g_att[:, lo:hi])
            g_y = g_o @ vs.T
            g_vh = _add_cols(g_vh, y.T @ g_o, v_in.shape, lo, hi)
            g_logits = y * (g_y - _sum(g_y * y, axis=1, keepdims=True))
            g_raw = g_logits * scale
            g_kh = _add_cols(g_kh, (qs.T @ g_raw).T, kk.shape, lo, hi)
            g_qh = _add_cols(g_qh, g_raw @ k_t.T, qq.shape, lo, hi)
        g_kk = g_kh @ wk_in.T
        g_qq = g_qh @ wq_in.T
        return (g, att.T @ g, g_vh @ wv_in.T, v_in.T @ g_vh, kk.T @ g_kh, g_kk, g_kk,
                qq.T @ g_qh, g_qq, g_qq)

    # the inputs in the order the chain's records, replayed in reverse, reach
    # them: the residual before the query path, and the values before the
    # keys, which the decoder blocks pass as the same tensor
    inputs = (q.index, wo.index, v.index, wv.index, wk.index, k.index, k_pos.index,
              wq.index, q.index, q_pos.index)
    return q_in + att @ wo_in, weights, inputs, vjp


def decoder_block(q: Tensor, q_pos: Tensor, k: Tensor, k_pos: Tensor, v: Tensor, wq: Tensor,
                  wk: Tensor, wv: Tensor, wo: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                  b2: Tensor, n_heads: int) -> tuple[Tensor, list[np.ndarray]]:
    """A transformer-decoder block as one record: x + mlp(x, w1, b1, w2, b2)
    with x the multi-head cross-attention of q over k (`_attention`), or
    x = q where k has no rows (k, k_pos and v are then not read, and there
    are no weights): the bits of the attention chain, `mlp` and `add`, in
    value and in every input gradient.  Returns the output and each head's
    attention weights."""
    tape = q.tape
    if not (tape is w1.tape is b1.tape is w2.tape is b2.tape):
        raise ShapeError(_CROSS_TAPE)
    if w2.shape[1] != q.shape[1]:
        raise ShapeError(f"decoder_block: feed-forward {w2.shape} for input {q.shape}")
    if k.shape[0]:
        x_in, weights, inputs, att_vjp = _attention(q, q_pos, k, k_pos, v, wq, wk, wv, wo, n_heads)
    else:
        # the residual's gradient, then the feed-forward's, as through `add`
        x_in, weights, inputs = q.data, [], (q.index, q.index)
    m, ffn_vjp = _mlp(x_in, w1, b1, w2, b2, True)

    def vjp(g):
        g_x, *g_ffn = ffn_vjp(g)
        return (*att_vjp(g + g_x), *g_ffn) if weights else (g, g_x, *g_ffn)

    return tape._op(x_in + m, inputs + (w1.index, b1.index, w2.index, b2.index), vjp), weights


def mlp_head(parts: Sequence[Tensor], w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
             w3: Tensor, b3: Tensor, scale: float) -> Tensor:
    """scale * mlp(relu(concat_cols(parts) @ w1 + b1), w2, b2, w3, b3) as one
    record: the bits of the `concat_cols`, `matmul`, `add_bias_row`, `relu`,
    `mlp` and `scalar_mul` chain, in value and in every input gradient."""
    tape = w1.tape
    if {p.tape for p in parts} != {tape} or not (tape is b1.tape is w2.tape is b2.tape
                                                 is w3.tape is b3.tape):
        raise ShapeError(_CROSS_TAPE)
    offsets = list(accumulate([p.shape[1] for p in parts], initial=0))
    if (len({p.shape[0] for p in parts}) != 1 or offsets[-1] != w1.shape[0]
            or b1.shape != (1, w1.shape[1])):
        raise ShapeError(f"mlp_head: parts {[p.shape for p in parts]} @ {w1.shape} + {b1.shape}")
    c = float(scale)
    w1_in = w1.data
    feat = np.concatenate([p.data for p in parts], axis=1)
    pre = feat @ w1_in + b1.data
    mask = pre > 0.0
    out, mlp_vjp = _mlp(np.where(mask, pre, 0.0), w2, b2, w3, b3, True)

    def vjp(g):
        g_h1, *g_mlp = mlp_vjp(g * c)
        g_pre = g_h1 * mask
        g_feat = g_pre @ w1_in.T
        return (*g_mlp, _sum(g_pre, axis=0, keepdims=True), feat.T @ g_pre,
                *[g_feat[:, lo:hi] for lo, hi in zip(offsets, offsets[1:])])

    # in the order the chain's records, replayed in reverse, reach them
    inputs = (w2.index, b2.index, w3.index, b3.index, b1.index, w1.index, *[p.index for p in parts])
    return tape._op(out * c, inputs, vjp)


def scalar_mul(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return x.tape._op(x.data * c, (x.index,), lambda g: (g * c,))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    return x.tape._op(np.where(mask, x.data, 0.0), (x.index,), lambda g: (g * mask,))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return x.tape._op(y, (x.index,), lambda g: (g * (1.0 - y * y),))


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    if x.shape[1] == 0:
        raise ShapeError("softmax_rows: rows must be non-empty")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return x.tape._op(y, (x.index,), vjp)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_cols: need at least one part")
    if len(set(map(attrgetter("tape"), parts))) != 1:
        raise ShapeError(_CROSS_TAPE)
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise ShapeError(f"concat_cols: row mismatch {[p.shape for p in parts]}")
    offsets = list(accumulate([p.shape[1] for p in parts], initial=0))

    def vjp(g):
        return [g[:, lo:hi] for lo, hi in zip(offsets, offsets[1:])]

    data = np.concatenate([p.data for p in parts], axis=1)
    return parts[0].tape._op(data, tuple([p.index for p in parts]), vjp)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if not 0 <= start < stop <= x.shape[1]:
        raise ShapeError(f"slice_cols: [{start}:{stop}] of {x.shape}")
    shape = x.shape
    return x.tape._op(np.ascontiguousarray(x.data[:, start:stop]), (x.index,),
                      lambda g: (_add_cols(None, g, shape, start, stop),))


def transpose(x: Tensor) -> Tensor:
    return x.tape._op(np.ascontiguousarray(x.data.T), (x.index,), lambda g: (g.T,))


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    return x.tape._op(
        np.array([[x.data.sum()]]), (x.index,), lambda g: (np.full(shape, g[0, 0]),)
    )


def mean_all(x: Tensor) -> Tensor:
    size = x.data.size
    if size == 0:
        raise ShapeError("mean_all of an empty tensor")
    shape = x.shape
    return x.tape._op(
        np.array([[x.data.mean()]]), (x.index,), lambda g: (np.full(shape, g[0, 0] / size),)
    )


def l1_to_target(x: Tensor, target) -> Tensor:
    """Mean-per-row L1 distance to a constant target: sum|x - t| / rows.

    The subgradient at exact equality is zero.
    """
    target = _as_matrix(target)
    if target.shape != x.data.shape:
        raise ShapeError(f"l1_to_target: target {target.shape} vs input {x.shape}")
    rows = x.shape[0]
    diff = x.data - target
    return x.tape._op(
        np.array([[np.abs(diff).sum() / rows]]),
        (x.index,),
        lambda g: (g[0, 0] * np.sign(diff) / rows,),
    )


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
