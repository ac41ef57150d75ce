"""Dense tensors with reverse-mode automatic differentiation.

Values live in float32 or float64 numpy arrays; any other input is cast
to float64. Every operation returns the dtype of its operands, and so
does every gradient it passes back; operands of different dtypes raise
:class:`TensorError`, as mismatched shapes do, so a stray float64 array
never silently promotes a float32 graph. An operation records a
backward closure on the active :class:`Tape` when one of its operands
requires a gradient. Calling :func:`backward` on a scalar loss replays the
tape in exact reverse execution order and accumulates gradients into every
``requires_grad`` tensor reachable from the loss. Replay frees each record
as it goes, so afterwards only leaf tensors (parameters and inputs) and the
loss keep ``.grad``; the gradients of intermediate results are dropped.

Outside a ``with Tape():`` block, or when no operand requires a gradient,
nothing is recorded and no work is done that only a backward pass reads:
an operation that would keep such arrays asks :func:`will_record` before
it builds them, so max-pooling keeps no argmax, relu no mask, and
eval-mode batch norm no normalized copy of its input. The output has the
same bytes either way, so evaluation-mode code pays no graph cost.

Convolution, batch norm, relu and max-pooling work on a batch of at least
``blocks.SPLIT_VALUES`` values and ``blocks.SPLIT_IMAGES`` images in two
fixed halves of its images, on the
process's thread pool (:func:`blocks.halves`). The calling thread
allocates every output and scratch array, and the halves write into them
through ``out=``. Batch-norm statistics and the conv kernel gradient stay
whole-batch reductions, so the bytes do not depend on the split.

Gradient conventions: ``abs`` uses subgradient 0 at 0, max-pooling routes
the gradient to the lowest linear index among tied maxima, and elementwise
operations require exactly equal shapes (the only broadcast is the
documented channel bias add).
"""

import math
import os
import re
import threading

import numpy as np

from . import blocks

DEFAULT_DTYPE = np.float64

_FLOAT_DTYPES = (np.float64, np.float32)


class TensorError(ValueError):
    """Shape, domain, or tape misuse."""


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


class Tensor:
    """A dense n-dimensional array with an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.type not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise TensorError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed differentiable operations.

    Use as a context manager; operations executed inside record their
    backward closures in execution order. A tape can be replayed backward
    exactly once.
    """

    def __init__(self):
        self._records = []
        self._out_ids = set()
        self.consumed = False

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError("tape stack corrupted")
        stack.pop()
        return False

    def __len__(self):
        return len(self._records)


_tls = threading.local()


def _tape_stack():
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


def will_record(*parents) -> bool:
    """Whether an operation on ``parents`` records a backward closure: a
    tape is active and some parent requires a gradient."""
    return active_tape() is not None and any(p.requires_grad for p in parents)


def record_op(out: Tensor, parents, backward_fn) -> Tensor:
    """Attach a backward closure for ``out`` to the active tape.

    ``backward_fn(gout)`` must accumulate into the parents via
    :func:`accumulate_grad`. No-op unless :func:`will_record` holds.
    """
    if not will_record(*parents):
        return out
    tape = active_tape()
    out.requires_grad = True
    tape._records.append((out, backward_fn))
    tape._out_ids.add(id(out))
    return out


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad``.

    A first gradient is kept as it is, not copied, so ``g`` must be a
    C-contiguous array that nothing else holds or writes: a closure passes
    an array it has just computed, and a copy of its incoming gradient.
    """
    if not t.requires_grad:
        return
    if g.dtype != t.data.dtype:
        raise TensorError(f"gradient dtype {g.dtype} does not match tensor dtype {t.data.dtype}")
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate gradients of the leaves reachable from a scalar loss.

    Each record is popped before its closure runs, and the output's
    gradient is dropped after it, so the forward arrays a closure captured
    are freed as soon as they are used. The tape is empty afterwards.
    """
    if loss.data.size != 1:
        raise TensorError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape.consumed:
        raise TensorError("tape already replayed; build a fresh tape")
    if id(loss) not in tape._out_ids:
        raise TensorError("loss was not produced on this tape")
    tape.consumed = True
    loss.grad = np.ones_like(loss.data)
    records = tape._records
    while records:
        out, fn = records.pop()
        if out.grad is not None:
            fn(out.grad)
            if out is not loss:
                out.grad = None


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def astensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    if isinstance(data, Tensor):
        return data
    t = Tensor(data, requires_grad=requires_grad, dtype=dtype)
    if not np.all(np.isfinite(t.data)):
        raise TensorError("non-finite values in tensor input")
    return t


def parameter(data, dtype=None) -> Tensor:
    return astensor(np.array(data, copy=True), requires_grad=True, dtype=dtype)


# ---------------------------------------------------------------------------
# Elementwise operations
# ---------------------------------------------------------------------------


def _same_dtype(op: str, *operands):
    """Tensors and buffers of one operation must share one dtype."""
    dtype = operands[0].dtype
    for other in operands[1:]:
        if other.dtype != dtype:
            raise TensorError(f"{op}: dtype mismatch {dtype} vs {other.dtype}")


def _same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise TensorError(f"{op}: shape mismatch {a.shape} vs {b.shape}")
    _same_dtype(op, a, b)


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.data + b.data)

    def back(g):
        for parent in (a, b):
            if parent.requires_grad:
                accumulate_grad(parent, g.copy())

    return record_op(out, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)

    def back(g):
        if a.requires_grad:
            accumulate_grad(a, g.copy())
        accumulate_grad(b, -g)

    return record_op(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)

    def back(g):
        if a.requires_grad:
            accumulate_grad(a, g * b.data)
        if b.requires_grad:
            accumulate_grad(b, g * a.data)

    return record_op(out, (a, b), back)


def scalar_mul(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s)

    def back(g):
        accumulate_grad(a, g * s)

    return record_op(out, (a,), back)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """The one permitted broadcast: add a per-channel bias.

    ``x`` may be (n, d) with bias (d,) or (n, c, h, w) with bias (c,).
    """
    _same_dtype("add_bias", x, b)
    if x.data.ndim == 2 and b.shape == (x.shape[1],):
        out = Tensor(x.data + b.data[None, :])
        axes = (0,)
    elif x.data.ndim == 4 and b.shape == (x.shape[1],):
        out = Tensor(x.data + b.data[None, :, None, None])
        axes = (0, 2, 3)
    else:
        raise TensorError(f"add_bias: incompatible shapes {x.shape} and {b.shape}")

    def back(g):
        if x.requires_grad:
            accumulate_grad(x, g.copy())
        accumulate_grad(b, g.sum(axis=axes))

    return record_op(out, (x, b), back)


def absolute(a: Tensor) -> Tensor:
    """|a|, with subgradient 0 at exactly 0."""
    out = Tensor(np.abs(a.data))

    def back(g):
        accumulate_grad(a, g * np.sign(a.data))

    return record_op(out, (a,), back)


def pow_scalar(a: Tensor, p: float) -> Tensor:
    p = float(p)
    value = a.data**p
    if not np.all(np.isfinite(value)):
        raise TensorError(f"pow_scalar produced non-finite values (p={p})")
    out = Tensor(value)

    def back(g):
        accumulate_grad(a, g * p * a.data ** (p - 1.0))

    return record_op(out, (a,), back)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())

    def back(g):
        accumulate_grad(a, np.broadcast_to(g, a.shape).astype(a.data.dtype))

    return record_op(out, (a,), back)


def mean_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.mean())
    inv = 1.0 / a.data.size

    def back(g):
        accumulate_grad(a, np.broadcast_to(g * inv, a.shape).astype(a.data.dtype))

    return record_op(out, (a,), back)


def relu(x: Tensor) -> Tensor:
    y = np.empty_like(x.data)
    mask = np.empty(x.shape, dtype=bool) if will_record(x) else None

    def forward(b):
        np.maximum(x.data[b], 0.0, out=y[b])
        if mask is not None:
            np.greater(x.data[b], 0, out=mask[b])

    blocks.halves(forward, y)
    out = Tensor(y)
    if mask is None:
        return out

    def back(g):
        gx = np.empty_like(g)
        blocks.halves(lambda b: np.multiply(g[b], mask[b], out=gx[b]), gx)
        accumulate_grad(x, gx)

    return record_op(out, (x,), back)


# ---------------------------------------------------------------------------
# Linear algebra and convolution
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise TensorError("matmul expects 2-d tensors")
    if a.shape[1] != b.shape[0]:
        raise TensorError(f"matmul: inner extents {a.shape} x {b.shape}")
    _same_dtype("matmul", a, b)
    # BLAS computes a one-row product on its matrix-vector path, which sums
    # in another order than its matrix-matrix path. As the first of two
    # equal rows, a single row gets the bits it has in any batch of rows.
    rows = np.concatenate([a.data, a.data]) if a.shape[0] == 1 else a.data
    out = Tensor((rows @ b.data)[: a.shape[0]])

    def back(g):
        accumulate_grad(a, g @ b.data.T)
        accumulate_grad(b, a.data.T @ g)

    return record_op(out, (a, b), back)


def conv_output_extent(extent: int, kernel: int, stride: int, pad: int) -> int:
    return (extent + 2 * pad - kernel) // stride + 1


def _reshapes_as_view(shape, strides) -> bool:
    """Whether C-order axes of this shape and these strides merge into one
    axis without a copy: numpy's reshape rule, size-1 axes ignored."""
    dims = [(size, stride) for size, stride in zip(shape, strides) if size != 1]
    return all(outer == size * inner for (_, outer), (size, inner) in zip(dims, dims[1:]))


def conv2d(x: Tensor, k: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-d cross-correlation with zero padding, no bias.

    x: (n, cin, h, w), k: (cout, cin, kh, kw) -> (n, cout, h', w') with
    h' = (h + 2 pad - kh) // stride + 1.
    """
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise TensorError("conv2d expects 4-d input and kernel")
    n, cin, h, w = x.shape
    cout, kcin, kh, kw = k.shape
    if kcin != cin:
        raise TensorError(f"conv2d: channel mismatch {cin} vs {kcin}")
    _same_dtype("conv2d", x, k)
    stride = int(stride)
    pad = int(pad)
    if stride < 1 or pad < 0:
        raise TensorError("conv2d: stride must be >= 1 and pad >= 0")
    ho = conv_output_extent(h, kh, stride, pad)
    wo = conv_output_extent(w, kw, stride, pad)
    if ho <= 0 or wo <= 0:
        raise TensorError(f"conv2d: non-positive output extent for input {h}x{w}, kernel {kh}x{kw}, stride {stride}, pad {pad}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data
    # im2col: the (n*ho*wo, cin*kh*kw) column matrix, laid out as the C-order
    # copy of a strided window view that np.tensordot would make, so np.dot
    # sees the same operands.
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(n, ho, wo, cin, kh, kw), strides=(sn, sh * stride, sw * stride, sc, sh, sw), writeable=False
    )
    kmat = k.data.transpose(1, 2, 3, 0).reshape(cin * kh * kw, cout)
    shape, strides = windows.shape, windows.strides
    if _reshapes_as_view(shape[:3], strides[:3]) and _reshapes_as_view(shape[3:], strides[3:]):
        # A view, multiplied whole as it is: its C-order copy can give other bytes.
        cols = windows.reshape(n * ho * wo, cin * kh * kw)
        out = Tensor(np.ascontiguousarray(np.dot(cols, kmat).reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)))
    else:
        cols = np.empty((n, ho, wo, cin, kh, kw), dtype=x.data.dtype)
        val = np.empty((n, ho, wo, cout), dtype=x.data.dtype)
        y = np.empty((n, cout, ho, wo), dtype=x.data.dtype)

        def forward(b):
            cols[b] = windows[b]
            np.dot(cols[b].reshape(-1, cin * kh * kw), kmat, out=val[b].reshape(-1, cout))
            y[b] = val[b].transpose(0, 3, 1, 2)

        blocks.halves(forward, y)
        cols = cols.reshape(n * ho * wo, cin * kh * kw)
        out = Tensor(y)

    def back(g):
        if k.requires_grad:
            gk = np.dot(g.transpose(1, 0, 2, 3).reshape(cout, n * ho * wo), cols)
            accumulate_grad(k, gk.reshape(cout, cin, kh, kw))
        if x.requires_grad:
            # (n, cout, ho, wo) x (cout, cin, kh, kw) -> (n, ho, wo, cin, kh, kw);
            # the scatter order below fixes the bits of gx.
            gcols = np.tensordot(g, k.data, axes=([1], [0]))
            gxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i : i + ho * stride : stride, j : j + wo * stride : stride] += gcols[
                        :, :, :, :, i, j
                    ].transpose(0, 3, 1, 2)
            # A cropped view would sum in another order in later reductions.
            gx = np.ascontiguousarray(gxp[:, :, pad : pad + h, pad : pad + w]) if pad else gxp
            accumulate_grad(x, gx)

    return record_op(out, (x, k), back)


def maxpool2d(x: Tensor, window: int, stride: int | None = None) -> Tensor:
    """Max pooling; gradient goes to the lowest linear index among ties.

    Works on one strided plane per window offset: a running maximum that
    moves only on a strictly greater value keeps the first (lowest linear
    index) of tied maxima. Each select goes through the values' bit
    patterns, ``v ^ ((v ^ p) & m)`` with ``m`` all ones where ``p`` is
    greater, which is ``np.where(greater, p, v)`` bit for bit without its
    branches or a new array.
    """
    if x.data.ndim != 4:
        raise TensorError("maxpool2d expects 4-d input")
    wh = ww = int(window)
    stride = int(stride) if stride is not None else wh
    n, c, h, w = x.shape
    if wh > h or ww > w:
        raise TensorError(f"maxpool2d: window {wh}x{ww} exceeds input {h}x{w}")
    if stride < 1:
        raise TensorError("maxpool2d: stride must be >= 1")
    ho = (h - wh) // stride + 1
    wo = (w - ww) // stride + 1

    def plane(arr, k):  # window offset k = i * ww + j, cropped to (ho, wo)
        i, j = divmod(k, ww)
        return arr[:, :, i : i + (ho - 1) * stride + 1 : stride, j : j + (wo - 1) * stride + 1 : stride]

    recording = will_record(x)
    bits = np.dtype(f"u{x.data.dtype.itemsize}")  # unsigned integers of the values' width
    val = np.empty((n, c, ho, wo), dtype=x.data.dtype)
    mask = np.empty(val.shape, dtype=bits)
    diff = np.empty(val.shape, dtype=bits)
    idx = np.zeros(val.shape, dtype=np.min_scalar_type(wh * ww - 1)) if recording else None

    def forward(b):
        xb, vb, mb, db = x.data[b], val[b], mask[b], diff[b]
        vb[...] = plane(xb, 0)
        for k in range(1, wh * ww):
            p = plane(xb, k)
            np.greater(p, vb, out=mb)
            np.negative(mb, out=mb)
            np.bitwise_xor(vb.view(bits), p.view(bits), out=db)
            np.bitwise_and(db, mb, out=db)
            np.bitwise_xor(vb.view(bits), db, out=vb.view(bits))
            if recording:
                # k exceeds every index stored so far, so a max is the select.
                np.maximum(idx[b], np.bitwise_and(mb, k, out=db), out=idx[b])

    blocks.halves(forward, val)
    out = Tensor(val)
    if not recording:
        return out

    def back(g):
        gx = np.zeros_like(x.data)
        routed = np.empty(g.shape, dtype=bits)

        def backward(b):
            gxb, rb = gx[b], routed[b]
            for k in range(wh * ww):
                # g where idx == k, else the bits of +0.0: np.where(idx == k, g, 0.0)
                np.equal(idx[b], k, out=rb)
                np.negative(rb, out=rb)
                np.bitwise_and(rb, g[b].view(bits), out=rb)
                np.add(plane(gxb, k), rb.view(g.dtype), out=plane(gxb, k))

        blocks.halves(backward, gx)
        accumulate_grad(x, gx)

    return record_op(out, (x,), back)


def global_avg_pool(x: Tensor) -> Tensor:
    if x.data.ndim != 4:
        raise TensorError("global_avg_pool expects 4-d input")
    n, c, h, w = x.shape
    out = Tensor(x.data.mean(axis=(2, 3)))
    inv = 1.0 / (h * w)

    def back(g):
        accumulate_grad(x, np.broadcast_to(g[:, :, None, None] * inv, x.shape).astype(x.data.dtype))

    return record_op(out, (x,), back)


def global_max_pool(x: Tensor) -> Tensor:
    if x.data.ndim != 4:
        raise TensorError("global_max_pool expects 4-d input")
    n, c, h, w = x.shape
    flat = x.data.reshape(n, c, h * w)
    idx = flat.argmax(axis=-1)
    out = Tensor(np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0])

    def back(g):
        gx = np.zeros_like(flat)
        ni, ci = np.indices((n, c))
        gx[ni, ci, idx] = g
        accumulate_grad(x, gx.reshape(x.shape))

    return record_op(out, (x,), back)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over (n,) or (n, h, w) per channel.

    Train mode normalizes by batch statistics (population variance) and
    updates the running stats in place with
    ``new = (1 - momentum) * old + momentum * batch``. Eval mode uses the
    running stats and is a plain affine map.
    """
    if x.data.ndim == 2:
        axes = (0,)
        bshape = (1, -1)
    elif x.data.ndim == 4:
        axes = (0, 2, 3)
        bshape = (1, -1, 1, 1)
    else:
        raise TensorError("batchnorm expects 2-d or 4-d input")
    cdim = x.shape[1]
    if gamma.shape != (cdim,) or beta.shape != (cdim,):
        raise TensorError("batchnorm: gamma/beta shape mismatch")
    _same_dtype("batchnorm", x, gamma, beta, running_mean, running_var)

    gview = gamma.data.reshape(bshape)
    bview = beta.data.reshape(bshape)

    if training:
        if x.shape[0] < 2:
            raise TensorError("batchnorm train mode needs batch extent >= 2")
        count = x.data.size // cdim
        mean = x.data.mean(axis=axes)
        # One x - mean pass serves the variance and xhat. Summing its
        # square and dividing by the count is what np.var does, bit for bit.
        # The reductions run over the whole batch; the elementwise passes
        # run by halves, and y holds the square before the output.
        xhat = np.empty_like(x.data)
        y = np.empty_like(x.data)

        def center(b):
            np.subtract(x.data[b], mean.reshape(bshape), out=xhat[b])
            np.square(xhat[b], out=y[b])

        blocks.halves(center, y)
        var = np.true_divide(np.add.reduce(y, axis=axes), count)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
        ivar = 1.0 / np.sqrt(var + eps)

        def scale(b):
            np.multiply(xhat[b], ivar.reshape(bshape), out=xhat[b])
            np.multiply(xhat[b], gview, out=y[b])
            np.add(y[b], bview, out=y[b])

        blocks.halves(scale, y)
        out = Tensor(y)

        def back(g):
            # One scratch buffer holds g * xhat, dxhat * xhat and
            # xhat * s2 / count in turn; each product keeps the operand
            # order of gx = (dxhat - s1 / count - xhat * s2 / count) * ivar.
            scratch = np.empty_like(g)
            dxhat = np.empty_like(g) if x.requires_grad else None

            def products(b):
                np.multiply(g[b], xhat[b], out=scratch[b])
                if dxhat is not None:
                    np.multiply(g[b], gview, out=dxhat[b])

            blocks.halves(products, g)
            accumulate_grad(beta, g.sum(axis=axes))
            accumulate_grad(gamma, scratch.sum(axis=axes))
            if dxhat is None:
                return
            s1 = dxhat.sum(axis=axes).reshape(bshape)
            blocks.halves(lambda b: np.multiply(dxhat[b], xhat[b], out=scratch[b]), g)
            s2 = scratch.sum(axis=axes).reshape(bshape)
            mean1 = s1 / count

            def combine(b):
                db, sb = dxhat[b], scratch[b]
                db -= mean1
                np.multiply(xhat[b], s2, out=sb)
                sb /= count
                db -= sb
                db *= ivar.reshape(bshape)

            blocks.halves(combine, g)
            accumulate_grad(x, dxhat)

    else:
        ivar = 1.0 / np.sqrt(running_var + eps)
        if not will_record(x, gamma, beta):
            # The recorded path's operations in its order, in one buffer.
            y = np.empty_like(x.data)

            def affine(b):
                yb = y[b]
                np.subtract(x.data[b], running_mean.reshape(bshape), out=yb)
                yb *= ivar.reshape(bshape)
                yb *= gview
                yb += bview

            blocks.halves(affine, y)
            return Tensor(y)
        xhat = (x.data - running_mean.reshape(bshape)) * ivar.reshape(bshape)
        out = Tensor(xhat * gview + bview)

        def back(g):
            accumulate_grad(beta, g.sum(axis=axes))
            accumulate_grad(gamma, (g * xhat).sum(axis=axes))
            accumulate_grad(x, g * gview * ivar.reshape(bshape))

    return record_op(out, (x, gamma, beta), back)


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-softmax with max subtraction, (n, k) with k >= 2."""
    if logits.data.ndim != 2 or logits.shape[1] < 2:
        raise TensorError("log_softmax expects (n, k) with k >= 2")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    val = z - lse
    out = Tensor(val)

    def back(g):
        softmax = np.exp(val)
        accumulate_grad(logits, g - softmax * g.sum(axis=1, keepdims=True))

    return record_op(out, (logits,), back)


def l2_normalize(x: Tensor, eps: float = 0.0) -> Tensor:
    """Normalize each row to unit Euclidean norm; zero-norm rows are an error."""
    if x.data.ndim != 2:
        raise TensorError("l2_normalize expects (n, d)")
    norms = np.sqrt((x.data**2).sum(axis=1, keepdims=True))
    if np.any(norms <= eps):
        raise TensorError("l2_normalize: zero-norm row")
    y = x.data / norms
    out = Tensor(y)

    def back(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        accumulate_grad(x, (g - y * dot) / norms)

    return record_op(out, (x,), back)


# ---------------------------------------------------------------------------
# Parameter checkpoint file
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "TDNET-CKPT v1"

_DTYPE_TOKENS = {
    "f8": np.dtype("<f8"),
    "f4": np.dtype("<f4"),
    "i8": np.dtype("<i8"),
    "u8": np.dtype("<u8"),
    "u1": np.dtype("|u1"),
}
_TOKEN_FOR_KIND = {v.str: k for k, v in _DTYPE_TOKENS.items()}
# An array name: no ASCII whitespace, which separates the header fields.
_ARRAY_NAME = re.compile(r"\S+", re.ASCII)
# name, comma-separated extents, dtype token, payload offset
_HEADER_LINE = re.compile(rf"({_ARRAY_NAME.pattern}) (\d+(?:,\d+)*) (\S+) (\d+)", re.ASCII)


def save_arrays(path, arrays: dict) -> None:
    """Write named arrays: UTF-8 header ``name shape dtype offset`` lines,
    a blank line, then the raw little-endian payloads in header order.

    The file is written to a temporary name in the same directory, synced
    and renamed over ``path``, so a failed write leaves any previous file
    intact.
    """
    header = [CHECKPOINT_MAGIC]
    payload = bytearray()
    for name, arr in arrays.items():
        if not _ARRAY_NAME.fullmatch(name):
            raise ValueError(f"invalid array name {name!r}")
        arr = np.ascontiguousarray(arr)
        token = _TOKEN_FOR_KIND.get(arr.dtype.newbyteorder("<").str)
        if token is None:
            raise ValueError(f"unsupported dtype {arr.dtype} for {name!r}")
        arr = arr.astype(_DTYPE_TOKENS[token], copy=False)
        shape = ",".join(str(s) for s in (arr.shape or (1,)))
        header.append(f"{name} {shape} {token} {len(payload)}")
        payload.extend(arr.tobytes())
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(("\n".join(header) + "\n\n").encode("utf-8"))
            f.write(bytes(payload))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_arrays(path) -> dict:
    """Read a :func:`save_arrays` file; any malformed content raises ValueError."""
    with open(path, "rb") as f:
        blob = f.read()
    head, sep, payload = blob.partition(b"\n\n")
    if not sep:
        raise ValueError("missing header terminator")
    lines = head.decode("utf-8").split("\n")
    if lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint version tag {lines[0]!r}")
    arrays = {}
    for line in lines[1:]:
        match = _HEADER_LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"malformed checkpoint header line {line!r}")
        name, shape_s, token, offset_s = match.groups()
        if token not in _DTYPE_TOKENS:
            raise ValueError(f"unknown dtype token {token!r} for {name!r}")
        shape = tuple(int(s) for s in shape_s.split(","))
        offset = int(offset_s)
        dtype = _DTYPE_TOKENS[token]
        nbytes = math.prod(shape) * dtype.itemsize
        if offset + nbytes > len(payload):
            raise ValueError(
                f"array {name!r} needs bytes [{offset}, {offset + nbytes}) of a {len(payload)}-byte payload"
            )
        arrays[name] = np.frombuffer(payload[offset : offset + nbytes], dtype=dtype).reshape(shape).copy()
    return arrays


# ---------------------------------------------------------------------------
# Minimal module tree (parameter/buffer bookkeeping for the network)
# ---------------------------------------------------------------------------


class Module:
    """Base for parameterized components.

    Attributes that are Tensors count as parameters, numpy arrays as
    buffers (e.g. running statistics), and Modules (or lists of Modules)
    as children; discovery order is attribute assignment order, which
    keeps checkpoints and initialization deterministic.
    """

    training = True

    def _entries(self):
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            yield name, value

    def _leaves(self, prefix: str = ""):
        """(qualified name, owner, attribute, value) of every entry that is
        not a Module, children included, in attribute order."""
        for name, value in self._entries():
            if isinstance(value, Module):
                yield from value._leaves(f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._leaves(f"{prefix}{name}.{i}.")
            else:
                yield prefix + name, self, name, value

    def named_parameters(self, prefix: str = ""):
        return ((n, v) for n, _, _, v in self._leaves(prefix) if isinstance(v, Tensor))

    def named_buffers(self, prefix: str = ""):
        return ((n, v) for n, _, _, v in self._leaves(prefix) if isinstance(v, np.ndarray))

    def cast(self, dtype):
        """Round every parameter and buffer to ``dtype`` once, in place."""
        for _, owner, attr, value in self._leaves():
            if isinstance(value, Tensor):
                value.data = value.data.astype(dtype, copy=False)
            elif isinstance(value, np.ndarray):
                setattr(owner, attr, value.astype(dtype, copy=False))
        return self

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def train(self, mode: bool = True):
        self.training = mode
        for _, value in self._entries():
            if isinstance(value, Module):
                value.train(mode)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def state_arrays(self) -> dict:
        state = {f"param.{n}": t.data for n, t in self.named_parameters()}
        state.update({f"buffer.{n}": b for n, b in self.named_buffers()})
        return state

    def load_state_arrays(self, state: dict) -> None:
        # Check everything before changing anything.
        params = [(t, stored_like(state, f"param.{n}", t.data)) for n, t in self.named_parameters()]
        buffers = [(b, stored_like(state, f"buffer.{n}", b)) for n, b in self.named_buffers()]
        for t, arr in params:
            t.data = arr.copy()
        for b, arr in buffers:
            b[...] = arr


def stored_like(state: dict, key: str, current: np.ndarray) -> np.ndarray:
    """``state[key]``, which must exist, have the shape and dtype of
    ``current`` and hold only finite values; loading never rounds."""
    arr = state.get(key)
    if arr is None:
        raise ValueError(f"state is missing {key}")
    if tuple(arr.shape) != current.shape or arr.dtype != current.dtype:
        raise ValueError(f"{key} is {arr.dtype} {tuple(arr.shape)}, the model holds {current.dtype} {current.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{key} holds a non-finite value")
    return arr
