"""Minimal dense-tensor reverse-mode automatic differentiation.

Tensors wrap float64 numpy arrays. Every primitive with a tracked input
appends a record to the implicit tape. A record holds three things: its
parents, its backward rule and its id (creation order is the topological
order). A parent is another record, a leaf created with requires_grad=True,
or None for an input that needs no gradient; no record holds a tensor's
values. backward() walks the records reachable from a scalar loss once,
newest first, accumulating gradients into every requires_grad leaf.

Conventions:
  - only leaves created with requires_grad=True ever hold a .grad array
    (zero-initialized, so tensors not participating in a loss keep zero grad);
  - a backward rule captures only the arrays, shapes and flags it reads, so
    an intermediate value is freed once its Tensor is gone and no rule saved
    it;
  - backward drops each record's rule and parents once it has used them, so
    a graph is differentiated once: a second backward through it raises
    ContractError;
  - matmul/transpose/linear/attention operate on 2-D arrays, elementwise
    ops broadcast like numpy with gradients reduced back over broadcast axes;
  - linear (x @ w + b) and multi-head attention are single fused nodes, so
    a layer costs one tape record rather than one per numpy call;
  - inference code wraps calls in no_grad() to skip recording.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ParameterError, ShapeError

_grad_enabled = True
_node_counter = itertools.count()


class no_grad:
    """Context manager disabling tape recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class _Record:
    """One recorded op: parents (records, requires-grad leaves or None), the
    backward rule, and the id of the tensor it made. backward sets the rule
    to None and the parents to () once it has used them."""

    __slots__ = ("_parents", "_vjp", "_id")

    def __init__(self, parents: tuple, vjp: Callable, node_id: int):
        self._parents = parents
        self._vjp = vjp
        self._id = node_id


class Tensor:
    __slots__ = ("values", "requires_grad", "grad", "_record", "_id")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.values) if requires_grad else None
        self._record: _Record | None = None
        self._id = next(_node_counter)

    @property
    def _parents(self) -> tuple:
        """The parents of the op that made this tensor: () for a leaf, an
        unrecorded result, or a record that backward has consumed."""
        return () if self._record is None else self._record._parents

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def _tracks(self) -> bool:
        return self.requires_grad or self._record is not None

    def __repr__(self):
        return (
            f"Tensor(shape={self.shape}, recorded={self._record is not None}, "
            f"requires_grad={self.requires_grad})"
        )

    # Arithmetic sugar; python scalars are wrapped as constants.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(as_tensor(other)))

    def __rsub__(self, other):
        return add(as_tensor(other), neg(self))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(values: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    out = Tensor(values)
    if _grad_enabled:
        links = tuple(p._record or (p if p.requires_grad else None) for p in parents)
        if any(links):
            out._record = _Record(links, vjp, out._id)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape of a broadcast input."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        values = a.values + b.values
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _make(values, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.values, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        values = a.values * b.values
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    av, bv = a.values, b.values

    def vjp(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return _make(values, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        values = a.values / b.values
    except ValueError:
        raise ShapeError(f"div: incompatible shapes {a.shape} and {b.shape}")
    av, bv = a.values, b.values

    def vjp(g):
        return (
            _unbroadcast(g / bv, av.shape),
            _unbroadcast(-g * av / (bv * bv), bv.shape),
        )

    return _make(values, (a, b), vjp)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    av, bv = a.values, b.values

    def vjp(g):
        return g @ bv.T, av.T @ g

    return _make(av @ bv, (a, b), vjp)


def linear(x, w, b) -> Tensor:
    """x @ w + b as one node: x is (n, i), w is (i, o), b is (o,)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if (
        x.values.ndim != 2
        or w.values.ndim != 2
        or x.shape[1] != w.shape[0]
        or b.shape != w.shape[1:]
    ):
        raise ShapeError(f"linear: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    xv, wv = x.values, w.values
    x_tracks = x._tracks()

    def vjp(g):
        return (g @ wv.T if x_tracks else None), xv.T @ g, g.sum(axis=0)

    values = xv @ wv
    values += b.values
    return _make(values, (x, w, b), vjp)


def attention(q, k, v, num_heads: int, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention of every head at once, as one node.

    q is (n, D), k and v are (m, D); head h owns columns [h*D/H, (h+1)*D/H)
    and the head outputs are concatenated back into (n, D). An optional
    (n, m) boolean mask restricts every head's softmax: masked keys get
    probability exactly 0 and zero gradient. A query row with no allowed key
    attends to every key (Mask2Former's fallback for a query whose predicted
    mask is empty); the caller's mask is not changed.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if (
        q.values.ndim != 2
        or k.values.ndim != 2
        or k.shape[1] != q.shape[1]
        or v.shape != k.shape
        or num_heads < 1
        or q.shape[1] % num_heads
    ):
        raise ShapeError(
            f"attention: shapes {q.shape}, {k.shape}, {v.shape} do not split into {num_heads} heads"
        )
    n, d = q.shape
    m = k.shape[0]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n, m):
            raise ShapeError(f"attention: mask shape {mask.shape} does not match ({n}, {m})")
        empty = ~mask.any(axis=1, keepdims=True)
        if empty.any():
            mask = mask | empty
    dh = d // num_heads
    scale = 1.0 / np.sqrt(dh)

    def heads(a: np.ndarray) -> np.ndarray:  # (rows, D) -> (H, rows, dh)
        return a.reshape(a.shape[0], num_heads, dh).transpose(1, 0, 2)

    qh, kh, vh = heads(q.values), heads(k.values), heads(v.values)
    s = (qh @ kh.transpose(0, 2, 1)) * scale  # scores, then probabilities (H, n, m)
    if mask is None:
        s = softmax_np(s)
    else:
        # Masked keys are set to 0 before exp and cleared after it, so exp
        # never sees -inf (numpy's exp is several times slower on underflow).
        s -= np.max(s, axis=-1, keepdims=True, where=mask, initial=-np.inf)
        np.copyto(s, 0.0, where=~mask)
        np.exp(s, out=s)
        s *= mask
        s /= s.sum(axis=-1, keepdims=True)
    values = (s @ vh).transpose(1, 0, 2).reshape(n, d)

    def vjp(g):
        gh = heads(g)
        ds = gh @ vh.transpose(0, 2, 1)
        dz = s * (ds - np.sum(ds * s, axis=-1, keepdims=True)) * scale
        dq = (dz @ kh).transpose(1, 0, 2).reshape(n, d)
        dk = (dz.transpose(0, 2, 1) @ qh).transpose(1, 0, 2).reshape(m, d)
        dv = (s.transpose(0, 2, 1) @ gh).transpose(1, 0, 2).reshape(m, d)
        return dq, dk, dv

    return _make(values, (q, k, v), vjp)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D, got {a.shape}")
    return _make(a.values.T.copy(), (a,), lambda g: (g.T,))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ParameterError("concat of zero tensors")
    try:
        values = np.concatenate([t.values for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: {exc}")
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(values, tensors, vjp)


def _scatter_rows(rows: np.ndarray, index: np.ndarray, num: int) -> np.ndarray:
    """out[i] = sum of rows[j] over j with index[j] == i, shaped (num, ...).

    One bincount over flattened (index, column) bins; it adds each bin's
    terms in order of j, as np.add.at does, so the sums are bit-identical.
    """
    flat = rows.reshape(rows.shape[0], -1)
    width = flat.shape[1]
    bins = (index * width)[:, None] + np.arange(width)
    sums = np.bincount(bins.reshape(-1), weights=flat.reshape(-1), minlength=num * width)
    return sums.reshape((num,) + rows.shape[1:])


def gather_rows(a, index: np.ndarray) -> Tensor:
    """out[i] = a[index[i]]; duplicate indices accumulate in the backward pass."""
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.int64).reshape(-1)
    if index.size and (index.min() < 0 or index.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")
    num = a.shape[0]

    def vjp(g):
        return (_scatter_rows(g, index, num),)

    return _make(a.values[index], (a,), vjp)


def segment_mean(a, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean of rows of a per segment id. Every segment must be non-empty."""
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeError(f"segment_mean: expected 2-D, got {a.shape}")
    segment_ids = np.asarray(segment_ids, dtype=np.int64).reshape(-1)
    if segment_ids.shape[0] != a.shape[0]:
        raise ShapeError(
            f"segment_mean: {segment_ids.shape[0]} segment ids for {a.shape[0]} rows"
        )
    if segment_ids.size and (segment_ids.min() < 0 or segment_ids.max() >= num_segments):
        raise ShapeError(f"segment_mean: segment id out of range for {num_segments} segments")
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    if np.any(counts == 0):
        raise ParameterError("segment_mean: every segment must receive at least one row")
    values = _scatter_rows(a.values, segment_ids, num_segments) / counts[:, None]

    def vjp(g):
        return (g[segment_ids] / counts[segment_ids, None],)

    return _make(values, (a,), vjp)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.values > 0

    def vjp(g):
        return (g * mask,)

    return _make(a.values * mask, (a,), vjp)


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function on raw arrays."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = sigmoid_np(a.values)

    def vjp(g):
        return (g * s * (1.0 - s),)

    return _make(s, (a,), vjp)


def softmax_np(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax on raw arrays."""
    e = np.exp(z - np.max(z, axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax along one axis (masking is `attention`'s)."""
    a = as_tensor(a)
    s = softmax_np(a.values, axis=axis)

    def vjp(g):
        dot = np.sum(g * s, axis=axis, keepdims=True)
        return (s * (g - dot),)

    return _make(s, (a,), vjp)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    n = a.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain/bias must have shape ({n},), got {gain.shape} and {bias.shape}"
        )
    # The steps of np.mean and np.var, with the input centred once.
    xhat = a.values - a.values.sum(axis=-1, keepdims=True) / n
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    gv = gain.values
    values = xhat * gv
    values += bias.values

    def vjp(g):
        gx = g * gv
        dxhat_mean = gx.mean(axis=-1, keepdims=True)
        proj = (gx * xhat).mean(axis=-1, keepdims=True)
        da = inv * (gx - dxhat_mean - xhat * proj)
        axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=axes)
        dbias = g.sum(axis=axes)
        return da, dgain, dbias

    return _make(values, (a, gain, bias), vjp)


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.values <= 0):
        raise ParameterError("log: values must be positive (clamp before calling)")
    av = a.values

    def vjp(g):
        return (g / av,)

    return _make(np.log(av), (a,), vjp)


def absolute(a) -> Tensor:
    a = as_tensor(a)
    sign = np.sign(a.values)

    def vjp(g):
        return (g * sign,)

    return _make(np.abs(a.values), (a,), vjp)


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    shape = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _make(a.values.sum(axis=axis), (a,), vjp)


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    shape = a.shape
    count = a.size if axis is None else shape[axis]

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / count, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / count, shape).copy(),)

    return _make(a.values.mean(axis=axis), (a,), vjp)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Populate .grad of every requires_grad leaf reachable from a scalar loss,
    consuming the records it walks."""
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    seed = np.ones_like(loss.values)
    if loss._record is None:
        if loss.requires_grad:
            loss.grad += seed
        return
    # Collect the reachable records; creation ids give a topological order.
    records: dict[int, _Record] = {}
    stack = [loss._record]
    while stack:
        record = stack.pop()
        if record._id in records:
            continue
        if record._vjp is None:
            raise ContractError("backward: the graph was already consumed by an earlier backward")
        records[record._id] = record
        stack.extend(p for p in record._parents if type(p) is _Record)
    grads: dict[int, np.ndarray] = {loss._id: seed}
    leaves: dict[int, Tensor] = {}
    for node_id in sorted(records, reverse=True):
        record = records.pop(node_id)
        parents, vjp = record._parents, record._vjp
        record._parents, record._vjp = (), None
        g = grads.pop(node_id, None)
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if parent is None or pg is None:
                continue
            if type(parent) is not _Record:
                leaves[parent._id] = parent
            if parent._id in grads:
                grads[parent._id] = grads[parent._id] + pg
            else:
                grads[parent._id] = pg
    # A leaf's contributions are summed first, then added to .grad once.
    for node_id, leaf in leaves.items():
        leaf.grad += grads[node_id]
