"""Minimal reverse-mode automatic differentiation over dense 2-D float64
arrays.

Every value is a (rows, cols) matrix recorded on a Tape.  Inputs enter as
copied leaves (`Tape.leaf`), checked as every input tensor is (`_as_matrix`),
or as constants, leaves that receive no gradient (`mlp` and `matmul` skip the
product that would give them one): an array that its caller has just made,
such as a forward's input rows, entered with no copy and checked for
finiteness once (`Tape.constant`).  Parameters are a `Leaves`
set of read-only views that their owner checks, each with one `Tensor` made
with the set: a tape opened on the set (`Tape(leaves)`) holds them as its
first nodes, so opening a tape makes no node, and a record goes on the tape
of its operands that are not parameters.  A primitive checks its own
operands, computes its value eagerly and enters it with its vector-Jacobian
product in one call (`Tape._op`).  Backward replays the records in strict
reverse order exactly once.  It holds a node's first gradient by reference,
copied only if not C-contiguous, and adds a later one as `have + g`, never in
place, since one array may be the gradient of several nodes (`add` gives its
own to both inputs); the parameters' gradients end up in one flat vector laid
out like `InteractionParams.flat` (`Gradients.flat`).  Three fused records
run the numpy operations of a chain of records in its order, so with its
bits in value and every input gradient: `mlp` (relu(x @ w1 + b1) @ w2 + b2),
`decoder_block` (an interaction stage: the positional `mlp` of its raw key
position rows, with its query rows' encoding handed in, multi-head
cross-attention with output projection and residual, then a perceptron with
a residual) and `mlp_head` (the `mlp` of its raw status rows,
concatenation, three layers and a scale).  Each takes its parameters as one
layer operand (`Perceptron`, `DecoderStage`, `Head`), built once over
tensors of one home (a `Leaves` set's, or one tape's): it holds their
read-only arrays and their input indices in the order the record's vjp
gives their gradients, and its shapes are checked against each other when
it is built, a ShapeError naming the first tensor that breaks its chain.  A
record checks, on every call, only what varies with the call: that its
layer's home is its tape's leaves or its tape, and the shapes of its
operand tensors and raw rows against the layer's.  Their raw rows are kept
as constants are and checked 2-D and finite as they are; a fused vjp runs
the vjps of the records it replaces, in the order a sweep reaches them, on
the operands the sweep would hand them.  A record holds input indices and
a closure over arrays and shapes, never a `Tensor` or a layer, and a tape
refers to no tensor of its own, so a tape holds no reference cycle and
reference counting frees it as soon as nothing refers to it.  No
broadcasting beyond the bias rows and no control-flow capture: record
exactly what you execute.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CheckpointError, ShapeError, read_text

_CROSS_TAPE = "operands recorded on different tapes"
_NO_TAPE = "a record over parameters alone has no tape"
# the reductions behind ndarray.sum and ndarray.max, without their Python wrappers
_sum = np.add.reduce
_max = np.maximum.reduce
# fields read over a sequence in C, with no Python frame: a tensor's, and an
# array's columns
_tape, _data, _index = attrgetter("tape"), attrgetter("data"), attrgetter("index")
_shape, _cols = attrgetter("shape"), itemgetter(1)


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
    """An immutable node: a (rows, cols) float64 value on a tape, or a
    parameter of a `Leaves` set (`tape` is then the set's `_Home`)."""

    __slots__ = ("tape", "index", "data", "shape")

    def __init__(self, tape: "Tape | _Home", index: int, data: np.ndarray):
        self.tape = tape
        self.index = index
        self.data = data
        self.shape: tuple[int, int] = data.shape  # `data` is never reassigned

    def __repr__(self) -> str:
        return f"Tensor(#{self.index}, shape={self.data.shape})"


class _Home:
    """The `tape` of a `Leaves` set's tensors: it records nothing and refers
    to no tensor, so the set holds no reference cycle."""

    __slots__ = ("offsets",)

    def __init__(self, offsets: list[int]):
        self.offsets = offsets  # the slice of a flat gradient that holds each parameter's

    def _op(self, data, inputs, vjp):
        """What a record over one parameter finds in place of a tape."""
        raise ShapeError(_NO_TAPE)


class Leaves:
    """Named parameters that every tape opened on them (`Tape(leaves)`) holds
    as its first nodes, in order: read-only, C-contiguous 2-D float64 views,
    entered with no copy and no check, since their owner checks them.  Each
    has one `Tensor`, made here and read by every such tape, so opening a
    tape makes no node.  A record goes on the tape of its other operands: one
    over parameters alone has none."""

    def __init__(self, views: Mapping[str, np.ndarray]):
        home = self._home = _Home(list(accumulate([a.size for a in views.values()], initial=0)))
        self.tensors: Mapping[str, Tensor] = MappingProxyType(
            {name: Tensor(home, index, arr) for index, (name, arr) in enumerate(views.items())}
        )


_NO_LEAVES = Leaves({})


def _tape_of(*operands: Tensor) -> "Tape":
    """The tape a record over `operands` goes on: the one its operands other
    than parameters were recorded on, opened on the leaves of the rest."""
    tapes = set(map(_tape, operands))
    for tape in tapes:
        if tape.__class__ is Tape and tapes <= {tape, tape._params}:
            return tape
    raise ShapeError(_CROSS_TAPE if Tape in set(map(type, tapes)) else _NO_TAPE)


class Gradients:
    """Gradient lookup for the nodes of one backward pass.  `flat` holds the
    tape's parameters' gradients, tensor after tensor in `Leaves` order, zero
    where no record reaches; a parameter's gradient is a view of it.  A lookup
    is read-only, since one array may hold the gradient of several nodes; a
    constant's, or an unreached node's, is zeros."""

    def __init__(self, by_index: dict[int, np.ndarray], tape: "Tape", flat: np.ndarray):
        self._by_index = by_index
        self._tape = tape
        self.flat = flat

    def __getitem__(self, t: Tensor) -> np.ndarray:
        tape = self._tape
        if t.tape is tape._params:
            lo, hi = tape._params.offsets[t.index : t.index + 2]
            g = self.flat[lo:hi].reshape(t.shape)
        elif t.tape is not tape:
            raise ShapeError("gradient lookup for a tensor from another tape")
        elif t.index in tape._constants or t.index not in self._by_index:
            g = np.zeros(t.shape)
        else:
            g = self._by_index[t.index].view()
        g.flags.writeable = False
        return g


class Tape:
    """Recording of one forward pass.

    Single-writer: record and run backward from one thread; separate tapes
    are independent.  The parameters (`Leaves`) are views of their owner's
    arrays, and the recorded vector-Jacobian products read them, so run
    `backward_from` before updating the parameters in place.
    """

    def __init__(self, leaves: Leaves = _NO_LEAVES):
        self._params = leaves._home  # what the parameters' tensors name as their tape
        self._nodes = len(leaves.tensors)  # the parameters hold the first indices
        # (output index, input indices, vjp(grad_out) -> per-input grads)
        self._records: list[tuple[int, tuple[int, ...], Callable]] = []
        self._constants: set[int] = set()  # the constant leaves

    def _op(self, data: np.ndarray, inputs: tuple[int, ...], vjp: Callable) -> Tensor:
        """Enter a primitive's fresh C-contiguous output and its record."""
        data.setflags(write=False)
        index = self._nodes
        self._nodes = index + 1
        self._records.append((index, inputs, vjp))
        return Tensor(self, index, data)

    def leaf(self, data) -> Tensor:
        """Enter an input value onto the tape as a finite-checked, read-only
        C-order copy; a 1-D input becomes one row."""
        arr = np.array(_as_matrix(data), order="C")
        arr.setflags(write=False)
        index = self._nodes
        self._nodes = index + 1
        return Tensor(self, index, arr)

    def constant(self, arr: np.ndarray) -> Tensor:
        """Enter, with no copy, an input value that receives no gradient
        (`mlp` and `matmul` skip its product; a lookup reads zeros): a
        C-contiguous 2-D float64 array that the caller has just made and
        never writes again, which the tape makes read-only.  Refused as
        `leaf` refuses a value that is not 2-D or not finite."""
        _frozen(arr)
        index = self._nodes
        self._nodes = index + 1
        self._constants.add(index)
        return Tensor(self, index, arr)

    def backward_from(self, seeds: Iterable[tuple[Tensor, np.ndarray]]) -> Gradients:
        """Reverse sweep from explicitly seeded output gradients.

        Used to chain externally computed gradients (e.g. the analytic
        constraint gradients) into the recorded graph.  Multiple seeds are
        accumulated before the sweep.
        """
        # made before the sweep's arrays, or it tends to top the heap, which a
        # free hands back to the system: each backward paid page faults for it
        offsets = self._params.offsets
        flat = np.empty(offsets[-1])
        grads: dict[int, np.ndarray] = {}
        pending = []
        for tensor, seed in seeds:
            if tensor.tape is not self and tensor.tape is not self._params:
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
        parts = [grads[i] if i in grads else np.zeros(hi - lo)
                 for i, (lo, hi) in enumerate(zip(offsets, offsets[1:]))]
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
    if tape.__class__ is not Tape or b.tape is not tape and b.tape is not tape._params:
        tape = _tape_of(a, b)
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
    if tape.__class__ is not Tape or b.tape is not tape and b.tape is not tape._params:
        tape = _tape_of(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    return tape._op(a.data + b.data, (a.index, b.index), lambda g: (g, g))


def add_bias_row(x: Tensor, bias: Tensor) -> Tensor:
    """Add a (1, cols) bias row to every row of x."""
    tape = x.tape
    if tape.__class__ is not Tape or bias.tape is not tape and bias.tape is not tape._params:
        tape = _tape_of(x, bias)
    if bias.shape != (1, x.shape[1]):
        raise ShapeError(f"add_bias_row: bias {bias.shape} for input {x.shape}")
    return tape._op(
        x.data + bias.data, (x.index, bias.index), lambda g: (g, _sum(g, axis=0, keepdims=True))
    )


def _mlp(x_in: np.ndarray, w1_in, b1_in, w2_in, b2_in, x_grad: bool):
    """`mlp`'s value and vjp over a `Perceptron`'s arrays, after the one
    check the layer cannot make, its input's width; the vjp gives x None
    unless `x_grad`."""
    if x_in.shape[1] != w1_in.shape[0]:
        raise ShapeError(f"mlp: {x_in.shape} @ {w1_in.shape}")
    pre = x_in @ w1_in
    pre += b1_in
    mask = pre > 0.0
    h = np.where(mask, pre, 0.0)

    def vjp(g):
        g_h = (g @ w2_in.T) * mask
        return (g_h @ w1_in.T if x_grad else None, x_in.T @ g_h,
                _sum(g_h, axis=0, keepdims=True), h.T @ g, _sum(g, axis=0, keepdims=True))

    out = h @ w2_in
    out += b2_in
    return out, vjp


def _layer_of(named: Sequence[tuple[str, Tensor]]) -> tuple:
    """The home, read-only arrays and input indices of a layer's tensors,
    which must share one home: a `Leaves` set's, or one tape."""
    homes = {t.tape for _, t in named}
    if len(homes) != 1:
        raise ShapeError(_CROSS_TAPE)
    return homes.pop(), tuple([t.data for _, t in named]), tuple([t.index for _, t in named])


def _want(name: str, tensor: Tensor, shape: tuple[int, int]) -> None:
    if tensor.shape != shape:
        raise ShapeError(f"layer tensor {name} has shape {tensor.shape}, its layer wants {shape}")


def _affine_chain(named: Sequence[tuple[str, Tensor]], width: int) -> int:
    """Check (weight, bias) pairs that chain from `width` input columns, each
    weight's rows the previous one's columns and each bias one row of them;
    returns the output width."""
    for (w_name, w), (b_name, b) in zip(named[::2], named[1::2]):
        _want(w_name, w, (width, w.shape[1]))
        width = w.shape[1]
        _want(b_name, b, (1, width))
    return width


class Perceptron:
    """The parameter operand of `mlp`, relu(x @ w1 + b1) @ w2 + b2: its four
    tensors resolved once into read-only arrays and input indices, their
    shapes checked against each other (a ShapeError names the first tensor
    that breaks the chain).  `names` name the tensors in that error."""

    __slots__ = ("tape", "arrays", "inputs", "d_in", "d_out")

    def __init__(self, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                 names: Sequence[str] = ("w1", "b1", "w2", "b2")):
        named = list(zip(names, (w1, b1, w2, b2)))
        self.d_in = w1.shape[0]
        self.d_out = _affine_chain(named, self.d_in)
        self.tape, self.arrays, self.inputs = _layer_of(named)


_STAGE = ("pe.w1", "pe.b1", "pe.w2", "pe.b2", "wq", "wk", "wv", "wo",
          "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")


class DecoderStage:
    """The parameter operand of `decoder_block`: a positional encoder
    (`Perceptron`) of width d, four (d, d) attention weights, a (d -> d)
    feed-forward `Perceptron` and a head count that splits d, checked
    against each other once, with the record's parameter inputs in the order
    its vjp gives them: wo, wv, wk, wq, the feed-forward's, then the
    encoder's twice (the keys' encoding, then the query rows')."""

    __slots__ = ("tape", "encoder", "attention", "ffn", "inputs", "width", "n_heads", "spans",
                 "scale")

    def __init__(self, pe_w1: Tensor, pe_b1: Tensor, pe_w2: Tensor, pe_b2: Tensor,
                 wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor, n_heads: int, names: Sequence[str] = _STAGE):
        tensors = (pe_w1, pe_b1, pe_w2, pe_b2, wq, wk, wv, wo, w1, b1, w2, b2)
        named = list(zip(names, tensors))
        self.encoder = Perceptron(*tensors[:4], names=names[:4])
        d = self.width = self.encoder.d_out
        for name, w in named[4:8]:
            _want(name, w, (d, d))
        if _affine_chain(named[8:], d) != d:
            _want(names[10], w2, (w2.shape[0], d))
        if n_heads < 1 or d % n_heads:
            raise ShapeError(f"attention: width {d} does not split into {n_heads} heads")
        self.n_heads = n_heads
        d_head = d // n_heads
        self.spans = [(h * d_head, (h + 1) * d_head) for h in range(n_heads)]  # each head's columns
        self.scale = 1.0 / math.sqrt(d_head)
        self.ffn = Perceptron(w1, b1, w2, b2, names[8:])
        self.tape, arrays, _ = _layer_of(named)
        self.attention = arrays[4:8]
        self.inputs = (wo.index, wv.index, wk.index, wq.index, *self.ffn.inputs,
                       *self.encoder.inputs, *self.encoder.inputs)


_HEAD = ("enc.w1", "enc.b1", "enc.w2", "enc.b2", "w1", "b1", "w2", "b2", "w3", "b3")


class Head:
    """The parameter operand of `mlp_head`: a status encoder (`Perceptron`)
    and three chained (weight, bias) layers, the last two a `Perceptron`,
    checked once, with the record's parameter inputs in the order its vjp
    gives them: the last two layers', b1, w1, then the encoder's."""

    __slots__ = ("tape", "encoder", "w1", "b1", "out", "inputs", "d_in")

    def __init__(self, enc_w1: Tensor, enc_b1: Tensor, enc_w2: Tensor, enc_b2: Tensor,
                 w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, w3: Tensor, b3: Tensor,
                 names: Sequence[str] = _HEAD):
        tensors = (enc_w1, enc_b1, enc_w2, enc_b2, w1, b1, w2, b2, w3, b3)
        named = list(zip(names, tensors))
        self.encoder = Perceptron(*tensors[:4], names=names[:4])
        self.d_in = w1.shape[0]
        _affine_chain(named[4:], self.d_in)
        self.out = Perceptron(w2, b2, w3, b3, names[6:])
        self.tape, arrays, _ = _layer_of(named)
        self.w1, self.b1 = arrays[4:6]
        self.inputs = (*self.out.inputs, b1.index, w1.index, *self.encoder.inputs)


def mlp(x: Tensor, layer: Perceptron) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 as one record; the same numpy operations,
    in the same order, as the `matmul`, `add_bias_row` and `relu` chain."""
    tape = x.tape
    if tape.__class__ is not Tape or layer.tape is not tape._params and layer.tape is not tape:
        tape = _tape_of(x, layer)
    out, vjp = _mlp(x.data, *layer.arrays, x.index not in tape._constants)
    return tape._op(out, (x.index, *layer.inputs), vjp)


def _frozen(rows: np.ndarray) -> np.ndarray:
    """`rows`, an array its caller has just made and never writes again,
    made read-only once checked 2-D and finite, as every input tensor is."""
    if rows.ndim != 2:
        raise ShapeError(f"tensors are 2-D, got shape {rows.shape}")
    if np.count_nonzero(np.isfinite(rows)) != rows.size:
        raise ShapeError("non-finite values in tensor")
    rows.setflags(write=False)
    return rows


def _add_cols(total, g, shape, lo: int, hi: int) -> np.ndarray:
    # what a tape sums for a node read by column slices, slice by slice
    if total is None and hi - lo == shape[1]:
        return np.ascontiguousarray(g)  # every column: the bits of a copy into zeros
    full = np.zeros(shape)
    full[:, lo:hi] = g
    return full if total is None else total + full


def _softmax_scaled(logits: np.ndarray, scale: float) -> np.ndarray:
    """softmax_rows(logits * scale), read-only, computed in place."""
    logits *= scale
    logits -= _max(logits, axis=1, keepdims=True)
    y = np.exp(logits)
    y /= _sum(y, axis=1, keepdims=True)
    y.setflags(write=False)
    return y


def _head_vjp(g_o, y, qs, k_t, vs, scale: float):
    """One attention head's (values, keys, queries) column gradients."""
    g_y = g_o @ vs.T
    g_logits = y * (g_y - _sum(g_y * y, axis=1, keepdims=True))
    g_raw = g_logits * scale
    return y.T @ g_o, (qs.T @ g_raw).T, g_raw @ k_t.T


def _attention(q, q_pos, k, k_pos, v, stage: DecoderStage):
    """Multi-head cross-attention with output projection and residual, for
    keys of at least one row: q + concat_h(softmax((q + q_pos) wq_h
    ((k + k_pos) wk_h)^T / sqrt(d_head)) (v wv)_h) wo, with the heads taking
    the equal column slices `stage.spans`; q, k and v are tensors, q_pos and
    k_pos arrays, and q's width is the stage's.

    Checks the operands' shapes against q's, then returns the value, each
    head's read-only (q rows, k rows) weights and the vjp, which gives the
    gradients of (q, v, k, q, wo, wv, wk, wq): each node read twice, q and
    the keys that are also the values, gets them in the order in which the
    chain's records, replayed in reverse, reach it, the residual before the
    query path and the values before the keys; the encodings' gradients are
    the keys' and the second q's.  It runs the numpy operations of the
    `add`, `matmul`, `slice_cols`, `transpose`, `scalar_mul`, `softmax_rows`
    and `concat_cols` chain in the same order, on the same memory layouts,
    so both give the same bits; one head spans every column, so it needs no
    slice, no copy of a C-contiguous slice and no concatenation."""
    if q_pos.shape != q.shape or k.shape[1] != q.shape[1] or k_pos.shape != k.shape or (
            v.shape != k.shape):
        raise ShapeError(
            f"attention: q {q.shape}, q_pos {q_pos.shape}, k {k.shape}, k_pos {k_pos.shape}, "
            f"v {v.shape}"
        )
    wq_in, wk_in, wv_in, wo_in = stage.attention
    n_heads, scale, spans = stage.n_heads, stage.scale, stage.spans
    q_in, v_in = q.data, v.data
    qq = q_in + q_pos
    kk = k.data + k_pos
    qh = qq @ wq_in
    kh = kk @ wk_in
    vh = v_in @ wv_in
    if n_heads == 1:
        k_t = np.ascontiguousarray(kh.T)
        y = _softmax_scaled(qh @ k_t, scale)
        weights = [y]
        att = y @ vh
    else:
        heads = [(np.ascontiguousarray(qh[:, lo:hi]), np.ascontiguousarray(kh[:, lo:hi].T),
                  np.ascontiguousarray(vh[:, lo:hi])) for lo, hi in spans]
        weights = [_softmax_scaled(qs @ k_t, scale) for qs, k_t, _ in heads]
        att = np.concatenate([y @ vs for y, (_, _, vs) in zip(weights, heads)], axis=1)

    def vjp(g):
        g_att = g @ wo_in.T
        if n_heads == 1:
            g_vh, g_kh, g_qh = _head_vjp(g_att, y, qh, k_t, vh, scale)
            g_kh = np.ascontiguousarray(g_kh)
        else:
            g_qh = g_kh = g_vh = None
            for (lo, hi), y_h, head in zip(reversed(spans), reversed(weights), reversed(heads)):
                g_v, g_k, g_q = _head_vjp(np.array(g_att[:, lo:hi]), y_h, *head, scale)
                g_vh = _add_cols(g_vh, g_v, v_in.shape, lo, hi)
                g_kh = _add_cols(g_kh, g_k, kk.shape, lo, hi)
                g_qh = _add_cols(g_qh, g_q, qq.shape, lo, hi)
        return (g, g_vh @ wv_in.T, g_kh @ wk_in.T, g_qh @ wq_in.T, att.T @ g, v_in.T @ g_vh,
                kk.T @ g_kh, qq.T @ g_qh)

    out = att @ wo_in
    out += q_in  # the bits of q_in + att @ wo_in: a sum commutes
    return out, weights, vjp


def decoder_block(q: Tensor, q_enc: tuple[np.ndarray, Callable], k: Tensor, k_rows: np.ndarray,
                  v: Tensor, stage: DecoderStage) -> tuple[Tensor, list[np.ndarray]]:
    """A transformer-decoder stage as one record: x + mlp(x, stage.ffn) with
    x the multi-head cross-attention of q over k (`_attention`) with the
    positional encodings q_pos and k_pos = mlp(k_rows, stage.encoder) of the
    raw key position rows, or x = q where k has no rows (v, the encoder and
    q_enc are then not read, and there are no weights).  `q_enc` is the
    query rows' encoding `_mlp(q_rows, *stage.encoder.arrays, False)`, its
    value and its vjp, over rows its caller never writes: it depends on the
    parameters alone, so a caller may make it once and hand it to every
    record over the same parameter values, and the record's vjp runs its
    vjp.  The key rows, which come from the scene, are checked and kept as
    `Tape.constant` enters an array; q, k and v are checked against the
    stage's width, whose own shapes were checked when it was built.  The
    bits of the two positional `mlp` records over constants, the attention
    chain, `mlp` and `add`, in value and in every input gradient.  Returns
    the output and each head's attention weights."""
    tape = k.tape
    if (tape.__class__ is not Tape or v.tape is not tape
            or q.tape is not tape and q.tape is not tape._params
            or stage.tape is not tape._params and stage.tape is not tape):
        tape = _tape_of(q, k, v, stage)
    if q.shape[1] != stage.width:
        raise ShapeError(f"decoder_block: query {q.shape} for a stage of width {stage.width}")
    _frozen(k_rows)
    if k.shape[0]:
        q_pos, q_pos_vjp = q_enc
        k_pos, k_pos_vjp = _mlp(k_rows, *stage.encoder.arrays, False)
        x_in, weights, att_vjp = _attention(q, q_pos, k, k_pos, v, stage)
        inputs = (q.index, v.index, k.index, q.index, *stage.inputs)
    else:
        # the residual's gradient, then the feed-forward's, as through `add`
        x_in, weights = q.data, []
        inputs = (q.index, q.index, *stage.ffn.inputs)
    m, ffn_vjp = _mlp(x_in, *stage.ffn.arrays, True)

    def vjp(g):
        g_x, *g_ffn = ffn_vjp(g)
        if not weights:
            return (g, g_x, *g_ffn)
        g_att = att_vjp(g + g_x)
        # an encoding's gradient is a fresh product, which the sweep would
        # hold as it is: the keys', then the query rows'
        return (*g_att, *g_ffn, *k_pos_vjp(g_att[2])[1:], *q_pos_vjp(g_att[3])[1:])

    m += x_in  # the bits of x_in + m
    return tape._op(m, inputs, vjp), weights


def mlp_head(queries: Sequence[Tensor], status: np.ndarray, command: Tensor, head: Head,
             scale: float) -> Tensor:
    """scale * mlp(relu(concat_cols([*queries, mlp(status, head.encoder),
    command]) @ w1 + b1), head.out) as one record, the raw `status` rows
    checked and kept as `Tape.constant` enters them: the bits of the status
    `mlp` record over a constant and the `concat_cols`, `matmul`,
    `add_bias_row`, `relu`, `mlp` and `scalar_mul` chain, in value and in
    every input gradient.  The parts are checked against the head's input
    width, whose own shapes were checked when it was built."""
    tape = command.tape
    if tape.__class__ is not Tape or head.tape is not tape._params and head.tape is not tape:
        tape = _tape_of(command, head, *queries)
    for t in queries:
        if t.tape is not tape and t.tape is not tape._params:
            tape = _tape_of(command, head, *queries)
    embed, enc_vjp = _mlp(_frozen(status), *head.encoder.arrays, False)
    parts = [*map(_data, queries), embed, command.data]
    try:
        feat = np.concatenate(parts, axis=1)
    except ValueError:  # parts of unequal row counts
        feat = None
    if feat is None or feat.shape[1] != head.d_in:
        raise ShapeError(f"mlp_head: parts {[p.shape for p in parts]} for input width "
                         f"{head.d_in}")
    c = float(scale)
    w1_in = head.w1
    pre = feat @ w1_in
    pre += head.b1
    mask = pre > 0.0
    out, mlp_vjp = _mlp(np.where(mask, pre, 0.0), *head.out.arrays, True)
    status_at = len(queries)

    def vjp(g):
        g_h1, *g_mlp = mlp_vjp(g * c)
        g_pre = g_h1 * mask
        g_feat = g_pre @ w1_in.T
        offsets = list(accumulate(map(_cols, map(_shape, parts)), initial=0))
        g_parts = [g_feat[:, lo:hi] for lo, hi in zip(offsets, offsets[1:])]
        g_embed = g_parts.pop(status_at)
        # the array the sweep would hold for the status encoder's output
        g_embed = g_embed if g_embed.flags.c_contiguous else np.ascontiguousarray(g_embed)
        return (*g_parts, *g_mlp, _sum(g_pre, axis=0, keepdims=True), feat.T @ g_pre,
                *enc_vjp(g_embed)[1:])

    # the parts, then the parameters in the order the chain's records,
    # replayed in reverse, reach them: the status encoder's record last
    inputs = (*map(_index, queries), command.index, *head.inputs)
    out *= c
    return tape._op(out, inputs, vjp)


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
    tape = _tape_of(*parts)
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise ShapeError(f"concat_cols: row mismatch {[p.shape for p in parts]}")
    offsets = list(accumulate([p.shape[1] for p in parts], initial=0))

    def vjp(g):
        return [g[:, lo:hi] for lo, hi in zip(offsets, offsets[1:])]

    data = np.concatenate([p.data for p in parts], axis=1)
    return tape._op(data, tuple([p.index for p in parts]), vjp)


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
