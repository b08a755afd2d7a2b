"""Dense float64 tensors with reverse-mode differentiation.

A generic engine: matrix products, row softmax (plain and key-masked),
batched multi-head attention (probabilities, projected head outputs, head
mean, over any leading axes), top-k values, picks and means, axis
max-projections, row layer normalization, 2x2 average pooling,
nearest-neighbour upsampling, gathers, concatenation and a sum over the
leading axis. A caller's own
kernel builds its result with ``Tensor.node``. Each traced tensor doubles as
its own tape node: it remembers the kernel that produced it (``op``), its
``parents`` and a vector-Jacobian closure. ``grad`` replays the tape once
in reverse topological order. ``finite_difference_gradient`` is the
independent oracle used to cross-check every backward rule.

Tensors are immutable values (the underlying arrays are write-protected),
so they are safe to share across threads; a tape only ever lives inside a
single guidance iteration.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, LineageError, NumericError, ShapeError

_VJP = Callable[[np.ndarray], tuple]

# glibc's mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# every kernel array up to this size comes from the heap, not a fresh mmap
_MMAP_THRESHOLD_BYTES = 32 << 20
# freed heap goes back to the kernel only once this much lies free at its top
_TRIM_THRESHOLD_BYTES = 256 << 20


def _keep_freed_heap() -> None:
    """Let glibc reuse freed kernel arrays instead of faulting in new pages.

    By default glibc serves each array of 1 MiB or more (the reference
    run's attention maps) from a fresh mmap and returns freed heap to the
    kernel, so every guidance iteration faulted its arrays in again: one
    seed-42 reference ``sample`` took 367,276 minor page faults and 0.71 s
    of system time, while a second run with the heap kept takes 142. The
    setting is process-wide, which suits a batch sampler; serving many
    callers from one process is out of scope. Off glibc it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_keep_freed_heap()


class Tensor:
    """Immutable n-dimensional float64 array, optionally recorded on tape."""

    __slots__ = ("data", "requires_grad", "op", "parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, copy=True)
        _check_finite(arr, "tensor literal")
        arr.flags.writeable = False
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.op: str | None = None
        self.parents: tuple[Tensor, ...] = ()
        self._vjp: _VJP | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" op={self.op}" if self.op else ""
        return f"Tensor(shape={self.data.shape}{tag}, traced={self.requires_grad})"

    def __float__(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"cannot convert shape {self.data.shape} to a scalar")
        return float(self.data.reshape(()))

    @staticmethod
    def node(data: np.ndarray, op: str, parents: Sequence[Tensor], vjp: _VJP,
             checked: bool = True) -> Tensor:
        """A kernel's result: ``data``, recorded as ``op`` with its ``parents``
        and VJP when a parent is traced.

        Every tensor holds only finite entries: the constructor and each kernel
        that does arithmetic check their output. A kernel that only moves
        entries (transpose, reshape, gathers, concatenation, nearest upsampling)
        cannot turn finite inputs into a non-finite output, so it passes
        ``checked=False`` and skips the scan.
        """
        if checked:
            _check_finite(data, op)
        out = Tensor.__new__(Tensor)
        data = np.asarray(data, dtype=np.float64)
        if data.ndim and not data.flags.c_contiguous:
            data = np.ascontiguousarray(data)
        if data.flags.writeable:
            data.flags.writeable = False
        out.data = data
        traced = False
        for p in parents:
            if p.requires_grad:
                traced = True
                break
        out.requires_grad = traced
        if traced:
            out.op = op
            out.parents = tuple(parents)
            out._vjp = vjp
        else:
            # constants drop their lineage so dead subgraphs can be collected
            out.op = None
            out.parents = ()
            out._vjp = None
        return out

    # -- arithmetic sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div_scalar(self, other)


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"{what} produced non-finite values")


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise kernels --------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: {a.shape} vs {b.shape}") from exc
    return Tensor.node(data, "add", (a, b),
                       lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError as exc:
        raise ShapeError(f"sub: {a.shape} vs {b.shape}") from exc
    return Tensor.node(data, "sub", (a, b),
                       lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b) -> Tensor:
    """Hadamard product with the limited broadcasting the pipeline needs."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}") from exc
    return Tensor.node(data, "mul", (a, b),
                       lambda g: (_unbroadcast(g * b.data, a.shape),
                                  _unbroadcast(g * a.data, b.shape)))


def div_scalar(a: Tensor, scalar) -> Tensor:
    a = _as_tensor(a)
    s = float(scalar)
    if s == 0.0:
        raise ArgumentError("division by zero")
    return Tensor.node(a.data / s, "div_scalar", (a,), lambda g: (g / s,))


# -- linear algebra --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for a 2-D ``b`` and an ``a`` with any leading axes before its rows."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects a 2-D right operand and a left one of 2-D or more")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents differ ({a.shape} x {b.shape})")
    # b's cotangent sums over every row of every leading slice: one product
    return Tensor.node(a.data @ b.data, "matmul", (a, b), lambda g: (
        g @ b.data.T, a.data.reshape(-1, b.shape[0]).T @ g.reshape(-1, b.shape[1])))


def transpose2d(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError("transpose2d expects a 2-D tensor")
    return Tensor.node(a.data.T, "transpose2d", (a,), lambda g: (g.T,), checked=False)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(n) for n in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    old = a.shape
    return Tensor.node(a.data.reshape(shape), "reshape", (a,),
                       lambda g: (g.reshape(old),), checked=False)


# -- softmax family ---------------------------------------------------------


def softmax_rows(x: Tensor) -> Tensor:
    """Row-stochastic softmax, computed with max subtraction."""
    return _softmax_2d(x, None, "softmax_rows")


def masked_softmax_rows(x: Tensor, allowed: np.ndarray) -> Tensor:
    """Softmax restricted to permitted keys; forbidden entries are exactly 0.

    Equivalent to adding -inf to forbidden logits before a plain softmax,
    fused into one kernel so no public tensor ever holds an infinity.
    """
    return _softmax_2d(x, allowed, "masked_softmax_rows")


def checked_block(blocked: np.ndarray) -> np.ndarray:
    """A 2-D bool mask of forbidden keys, made read-only and returned.

    Raises ArgumentError when a row forbids every key, since its softmax
    would have nothing to normalize.
    """
    if blocked.dtype != np.bool_ or blocked.ndim != 2:
        raise ShapeError(f"a key mask must be 2-D bool, got {blocked.dtype} {blocked.shape}")
    if blocked.all(axis=1).any():
        raise ArgumentError("a row has no permitted keys")
    blocked.flags.writeable = False
    return blocked


def _softmax_2d(x: Tensor, allowed: np.ndarray | None, op: str) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"{op} expects a 2-D tensor")
    if allowed is None:
        y, vjp = _softmax_rows(x.data)
    else:
        logits = x.data.copy()  # a tensor's data is read-only
        _block(logits, checked_block(~np.asarray(allowed, dtype=bool)))
        y, vjp = _softmax_rows(logits, owned=True)
    return Tensor.node(y, op, (x,), lambda g: (vjp(g),))


def _block(logits: np.ndarray, blocked: np.ndarray) -> None:
    """Write -inf over ``checked_block`` keys on the last two axes, shared by any leading ones."""
    if blocked.dtype != np.bool_ or blocked.shape != logits.shape[-2:]:
        raise ShapeError(f"blocked keys of {blocked.dtype} {blocked.shape} do not fit "
                         f"logits {logits.shape[-2:]}")
    np.copyto(logits, -np.inf, where=blocked)


def _softmax_rows(logits: np.ndarray, owned: bool = False):
    """Softmax over the last axis and its VJP; -inf logits come out exactly 0.

    With ``owned`` the result overwrites ``logits``, which must then be the
    caller's own array, never a tensor's data.
    """
    y = np.subtract(logits, logits.max(axis=-1, keepdims=True),
                    out=logits if owned else None)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g):
        # g may be shared with another parent's cotangent: write only into t
        t = g * y
        dot = t.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=t)
        np.multiply(y, t, out=t)
        return t

    return y, vjp


# -- multi-head attention -----------------------------------------------------
#
# Head h owns feature columns [h*d_h, (h+1)*d_h). Each head's operands are
# laid out exactly as a 2-D kernel chain (slice, transpose, matmul) would
# lay them out, so the batched products round the same way. Leading axes
# before the rows batch the same products again.


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., rows, d) -> contiguous (..., heads, rows, d_h)."""
    *lead, rows, d = x.shape
    return np.ascontiguousarray(x.reshape(*lead, rows, n_heads, d // n_heads).swapaxes(-3, -2))


def _join_heads(x: np.ndarray) -> np.ndarray:
    """(..., heads, rows, d_h) -> (..., rows, heads * d_h)."""
    *lead, heads, rows, d_h = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, rows, heads * d_h)


def _check_heads(d: int, n_heads: int) -> None:
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"width {d} not divisible by {n_heads} heads")


def attention_probs(q: Tensor, k: Tensor, n_heads: int,
                    blocked: np.ndarray | None = None) -> Tensor:
    """Per-head softmax(q_h @ k_h^T / sqrt(d_h)) as one (..., heads, n, m) tensor.

    ``q`` is (..., n, d) and ``k`` (..., m, d), with the same leading axes.
    ``blocked`` is an optional (n, m) ``checked_block`` mask shared by every
    head and leading slice; those keys get exactly 0, as in ``masked_softmax_rows``.
    """
    q, k = _as_tensor(q), _as_tensor(k)
    if (q.data.ndim < 2 or q.shape[:-2] != k.shape[:-2] or k.data.ndim != q.data.ndim
            or q.shape[-1] != k.shape[-1]):
        raise ShapeError(f"attention_probs: cannot attend {q.shape} to {k.shape}")
    n_heads = int(n_heads)
    _check_heads(q.shape[-1], n_heads)
    scale = math.sqrt(k.shape[-1] // n_heads)
    qh = _split_heads(q.data, n_heads)
    kt = np.ascontiguousarray(_split_heads(k.data, n_heads).swapaxes(-1, -2))
    logits = np.matmul(qh, kt)
    logits /= scale
    if blocked is not None:
        _block(logits, blocked)
    y, softmax_vjp = _softmax_rows(logits, owned=True)

    def vjp(g):
        gl = softmax_vjp(g)
        gl /= scale
        gq = np.matmul(gl, kt.swapaxes(-1, -2))
        gk = np.matmul(qh.swapaxes(-1, -2), gl)
        return _join_heads(gq), _join_heads(gk.swapaxes(-1, -2))

    return Tensor.node(y, "attention_probs", (q, k), vjp)


def apply_heads(p: Tensor, v: Tensor, wo: Tensor) -> Tensor:
    """Each head's p_h @ v_h, joined and projected by ``wo`` into one (..., n, d_out) tensor.

    ``p`` is (..., heads, n, m) attention, ``v`` the (..., m, d) values and
    ``wo`` the (d, d_out) output projection. One node for the joined head
    outputs and their ``matmul`` by ``wo``, rounding as that chain does; a
    non-finite joined entry reaches the output, so one finite check serves both.
    """
    p, v, wo = _as_tensor(p), _as_tensor(v), _as_tensor(wo)
    if (p.data.ndim < 3 or v.data.ndim != p.data.ndim - 1 or p.shape[:-3] != v.shape[:-2]
            or p.shape[-1] != v.shape[-2] or wo.data.ndim != 2 or wo.shape[0] != v.shape[-1]):
        raise ShapeError(f"apply_heads: cannot apply {p.shape} to {v.shape} and {wo.shape}")
    n_heads = p.shape[-3]
    d = v.shape[-1]
    _check_heads(d, n_heads)
    vh = _split_heads(v.data, n_heads)
    joined = np.ascontiguousarray(_join_heads(np.matmul(p.data, vh)))

    def vjp(g):
        gj = g @ wo.data.T
        gh = gj.reshape(*gj.shape[:-1], n_heads, d // n_heads).swapaxes(-3, -2)
        return (np.matmul(gh, vh.swapaxes(-1, -2)),
                _join_heads(np.matmul(p.data.swapaxes(-1, -2), gh)),
                joined.reshape(-1, d).T @ g.reshape(-1, wo.shape[1]))

    return Tensor.node(joined @ wo.data, "apply_heads", (p, v, wo), vjp)


def mean_heads(p: Tensor) -> Tensor:
    """Average a (..., heads, n, m) tensor over heads, summing heads in order."""
    p = _as_tensor(p)
    if p.data.ndim < 3:
        raise ShapeError("mean_heads expects a (..., heads, n, m) tensor")
    n_heads = p.shape[-3]
    data = p.data[..., 0, :, :].copy()
    for h in range(1, n_heads):
        data += p.data[..., h, :, :]
    data /= float(n_heads)
    return Tensor.node(data, "mean_heads", (p,), lambda g: (
        np.broadcast_to(np.expand_dims(g / float(n_heads), -3), p.shape),))


def layernorm_rows(x: Tensor) -> Tensor:
    """Per-row standardization (no learned affine)."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("layernorm_rows expects a 2-D tensor")
    # a row mean is its sum divided by the width, exactly as ndarray.mean computes it
    d = x.shape[1]
    mu = x.data.sum(axis=1, keepdims=True) / d
    var = ((x.data - mu) ** 2).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    y = (x.data - mu) * inv

    def vjp(g):
        gm = g.sum(axis=1, keepdims=True) / d
        gym = (g * y).sum(axis=1, keepdims=True) / d
        return (inv * (g - gm - y * gym),)

    return Tensor.node(y, "layernorm_rows", (x,), vjp)


# -- selection kernels -------------------------------------------------------


def top_k(flat: np.ndarray, k: int) -> tuple[np.float64, np.float64]:
    """The k-th largest entry of a 1-D array, and the mean of the k largest.

    No entry is picked: whichever tie wins, the k largest are the same values,
    up to the sign of a zero, which numpy's sum ignores (a sum of zeros is
    +0.0). ``top_k_picks`` derives the positions from the k-th value when a
    gradient needs them. Together they are the one top-k rule behind
    ``topk_mean`` and every caller that fuses a top-k into its own kernel.
    """
    if k < 1 or k > flat.size:
        raise ArgumentError(f"k={k} outside [1, {flat.size}]")
    part = np.partition(flat, flat.size - k)
    # sum in descending value order, as a stable descending sort of the picks
    # would; contiguous, so the reduction runs in that order. The sum over k is
    # what ndarray.mean computes, without its Python-level wrapper
    top = np.ascontiguousarray(np.sort(part[flat.size - k:])[::-1]).sum() / k
    return part[flat.size - k], top


def top_k_picks(flat: np.ndarray, kth: np.float64, k: int) -> np.ndarray:
    """Positions of the k largest entries of a 1-D array, given ``top_k``'s k-th value.

    Every entry above the k-th value wins, and its ties fill the remaining
    places in ascending index order.
    """
    above = np.flatnonzero(flat > kth)
    return np.concatenate([above, np.flatnonzero(flat == kth)[:k - above.size]])


def topk_mean(x: Tensor, k: int) -> Tensor:
    """Mean of the k largest elements; ties resolved by ascending index.

    The subgradient flows only to the selected elements, picked in the VJP.
    """
    x = _as_tensor(x)
    k = int(k)
    flat = x.data.reshape(-1)
    kth, top = top_k(flat, k)
    shape = x.shape

    def vjp(g):
        return (_scatter(flat.size, top_k_picks(flat, kth, k), float(g) / k).reshape(shape),)

    return Tensor.node(np.asarray(top), "topk_mean", (x,), vjp)


def axis_max_project(x: Tensor, axis: str) -> Tensor:
    """Squeeze a 2-D map to a vector by max over one axis.

    ``axis="rows"`` maxes over rows (output indexed by column), ``"cols"``
    over columns. The gradient routes to the first argmax on ties.
    """
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("axis_max_project expects a 2-D tensor")
    if axis not in ("rows", "cols"):
        raise ArgumentError(f"axis must be 'rows' or 'cols', got {axis!r}")
    if axis == "rows":
        index = (x.data.argmax(axis=0), np.arange(x.shape[1]))
    else:
        index = (np.arange(x.shape[0]), x.data.argmax(axis=1))
    return _select(x, index, "axis_max_project")


def take(x: Tensor, indices) -> Tensor:
    """Gather entries of a 1-D tensor at distinct indices."""
    x = _as_tensor(x)
    if x.data.ndim != 1:
        raise ShapeError("take expects a 1-D tensor")
    return _select(x, _distinct_indices(indices, x.size, "take"), "take")


def take2d(x: Tensor, rows, cols) -> Tensor:
    """Gather the submatrix at distinct row and column index lists."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("take2d expects a 2-D tensor")
    ri = _distinct_indices(rows, x.shape[0], "take2d row")
    ci = _distinct_indices(cols, x.shape[1], "take2d column")
    if ri.size == 0 or ci.size == 0:
        raise ArgumentError("take2d needs non-empty index lists")
    return _select(x, np.ix_(ri, ci), "take2d")


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("slice_cols expects a 2-D tensor")
    if not (0 <= start < stop <= x.shape[1]):
        raise ArgumentError(f"column range [{start}, {stop}) invalid for {x.shape}")
    return _select(x, (slice(None), slice(start, stop)), "slice_cols")


def column(x: Tensor, j) -> Tensor:
    """Column ``j`` of a (..., n, m) tensor as (..., n); ``j`` has one index per leading slice."""
    x = _as_tensor(x)
    if x.data.ndim < 2:
        raise ShapeError("column expects a tensor of 2-D or more")
    j = np.asarray(j)
    if (j.shape != x.shape[:-2] or j.dtype.kind not in "iu"
            or not ((0 <= j) & (j < x.shape[-1])).all()):
        raise ArgumentError(f"column needs an index in [0, {x.shape[-1]}) per slice of {x.shape}")
    lead = [i[..., None] for i in np.indices(j.shape, sparse=True)]
    return _select(x, (*lead, np.arange(x.shape[-2]), j[..., None]), "column")


def _distinct_indices(indices, n: int, what: str) -> np.ndarray:
    """Index list into an axis of length n, each entry in range and unique."""
    idx = np.asarray(indices)
    if idx.size == 0:
        return idx.astype(np.intp)
    if idx.dtype.kind not in "iu":
        raise ArgumentError(f"{what} indices must be integers, got {idx.dtype}")
    ordered = np.sort(idx, axis=None)
    if ordered[0] < 0 or ordered[-1] >= n:
        raise ArgumentError(f"{what} index out of range [0, {n})")
    if (ordered[1:] == ordered[:-1]).any():
        raise ArgumentError(f"{what} indices repeat")
    return idx.astype(np.intp, copy=False)


def _select(x: Tensor, index, op: str) -> Tensor:
    """Gather ``x.data[index]``; the VJP writes ``g`` back by assignment.

    Assignment is the exact adjoint because every wrapper's index picks
    each entry of ``x`` at most once.
    """
    shape = x.shape
    return Tensor.node(x.data[index], op, (x,), lambda g: (_scatter(shape, index, g),),
                       checked=False)


def _scatter(shape, index, values) -> np.ndarray:
    """Zeros of ``shape`` with ``values`` assigned at ``index``."""
    out = np.zeros(shape)
    out[index] = values
    return out


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ArgumentError("concat needs at least one tensor")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(str(exc)) from exc
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor.node(data, "concat", parts, vjp, checked=False)


# -- reductions ---------------------------------------------------------------


def mean_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    shape = x.shape
    n = x.size
    return Tensor.node(np.asarray(x.data.mean()), "mean_all", (x,),
                       lambda g: (np.full(shape, float(g) / n),))


def sum_leading(x: Tensor) -> Tensor:
    """Sum over the leading axis slice after slice, rounding as the chain
    ``x[0] + x[1] + ...`` of ``add`` kernels would; an empty axis sums to zeros."""
    x = _as_tensor(x)
    if x.data.ndim < 1:
        raise ShapeError("sum_leading needs a leading axis")
    data = x.data[0].copy() if len(x.data) else np.zeros(x.shape[1:])
    for part in x.data[1:]:
        data += part
    return Tensor.node(data, "sum_leading", (x,), lambda g: (np.broadcast_to(g, x.shape),))


# -- spatial kernels ----------------------------------------------------------


def avg_pool_2x2(x: Tensor, height: int, width: int) -> Tensor:
    """2x2 mean pooling of a (h*w, d) pixel-major feature matrix."""
    x = _as_tensor(x)
    if x.data.ndim != 2 or x.shape[0] != height * width:
        raise ShapeError(f"expected ({height * width}, d), got {x.shape}")
    if height % 2 or width % 2:
        raise ShapeError(f"pooling needs even extents, got {height}x{width}")
    d = x.shape[1]
    data = x.data.reshape(height // 2, 2, width // 2, 2, d).mean(axis=(1, 3))
    data = data.reshape((height // 2) * (width // 2), d)

    def vjp(g):
        g4 = g.reshape(height // 2, 1, width // 2, 1, d) / 4.0
        out = np.broadcast_to(g4, (height // 2, 2, width // 2, 2, d))
        return (out.reshape(height * width, d),)

    return Tensor.node(data, "avg_pool_2x2", (x,), vjp)


def upsample_nearest_2x(x: Tensor, height: int, width: int) -> Tensor:
    """Nearest-neighbour 2x upsampling of a (h*w, d) feature matrix."""
    x = _as_tensor(x)
    if x.data.ndim != 2 or x.shape[0] != height * width:
        raise ShapeError(f"expected ({height * width}, d), got {x.shape}")
    d = x.shape[1]
    grid = x.data.reshape(height, 1, width, 1, d)
    data = np.broadcast_to(grid, (height, 2, width, 2, d)).reshape(4 * height * width, d)

    def vjp(g):
        return (g.reshape(height, 2, width, 2, d).sum(axis=(1, 3)).reshape(height * width, d),)

    return Tensor.node(data, "upsample_nearest_2x", (x,), vjp, checked=False)


# -- reverse-mode driver --------------------------------------------------------


def grad(root: Tensor, wrt: Tensor) -> Tensor:
    """Exact reverse-mode gradient of a scalar root with respect to wrt.

    wrt must be a traced tensor; if the root does not depend on it the
    gradient is a zero tensor.
    """
    if not isinstance(root, Tensor) or root.size != 1:
        raise ArgumentError("grad expects a scalar root tensor")
    if not isinstance(wrt, Tensor) or not wrt.requires_grad:
        raise LineageError("wrt is not a traced tensor")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    if id(wrt) not in seen:
        return Tensor(np.zeros(wrt.shape))

    grads: dict[int, np.ndarray] = {id(root): np.ones(root.shape)}
    for node in reversed(order):
        # a cotangent is dead once its node's VJP has consumed it; wrt's is
        # the result, though wrt may be a non-leaf with a VJP of its own
        g = grads.get(id(node)) if node is wrt else grads.pop(id(node), None)
        if g is None or node._vjp is None:
            continue
        for parent, pg in zip(node.parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg

    result = grads.get(id(wrt), np.zeros(wrt.shape))
    _check_finite(result, "grad")
    return Tensor(result)


def finite_difference_gradient(f: Callable[[Tensor], object], x: Tensor,
                               eps: float = 1e-6) -> Tensor:
    """Central-difference gradient estimate, one coordinate at a time."""
    if not (math.isfinite(eps) and eps > 0):
        raise ArgumentError(f"eps must be finite and positive, got {eps!r}")
    x = _as_tensor(x)
    base = x.data.copy()
    flat = base.reshape(-1)
    out = np.zeros(flat.size)
    for i in range(flat.size):
        probe = flat.copy()
        probe[i] += eps
        f_plus = float(f(Tensor(probe.reshape(base.shape))))
        probe[i] = flat[i] - eps
        f_minus = float(f(Tensor(probe.reshape(base.shape))))
        out[i] = (f_plus - f_minus) / (2.0 * eps)
    return Tensor(out.reshape(base.shape))


def max_relative_error(a, b) -> float:
    """Largest absolute difference, scaled by the larger infinity norm.

    This is the usual gradient-check metric: it stays meaningful when
    individual entries are near zero and the difference signal would
    otherwise be dominated by finite-difference noise.
    """
    a = np.asarray(a.data if isinstance(a, Tensor) else a, dtype=np.float64)
    b = np.asarray(b.data if isinstance(b, Tensor) else b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"cannot compare {a.shape} with {b.shape}")
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    return float(np.abs(a - b).max() / scale)
