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
it builds them, so relu keeps no mask. The output has the same bytes
either way, so evaluation-mode code pays no graph cost. Batch norm runs
only in train mode: at inference the network folds each batch norm into
the weights of the layer before it, and :func:`shift_channels` ends a
folded conv, forward only: its per-channel shift, a residual add and the
relu in place on the conv's output (or on the stem's pooled output), to
the bytes of the separate ops.

Every operation runs its passes as whole-array numpy calls on the
calling thread. Convolution works in the NCHW layout of its tensors, one
product per image forward and backward, with no transposed copy, and adds
the kernel gradient's per-image parts in image order, so an image's bytes
do not depend on the batch around it.

Max-pooling takes any input and pools by a running float maximum; a NaN
in a pooled window raises :class:`TensorError`. relu and a shift are
non-decreasing, so they commute with a window maximum, and the network
pools before them in both modes. Convolution pads by one copy into a
zeroed buffer.

Gradient conventions: ``abs`` uses subgradient 0 at 0, max-pooling routes
the gradient to the lowest linear index among tied maxima, and elementwise
operations require exactly equal shapes (the only broadcast is the
documented row bias add).
"""

import math
import os
import re
import threading

import numpy as np

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
    backward closures in execution order. A thread holds at most one active
    tape. A tape can be replayed backward exactly once.
    """

    def __init__(self):
        self._records = []
        self.consumed = False

    def __enter__(self):
        if active_tape() is not None:
            raise TensorError("a tape is already active on this thread")
        _tls.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _tls.tape = None
        return False

    def __len__(self):
        return len(self._records)


_tls = threading.local()


def active_tape():
    return getattr(_tls, "tape", None)


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
    out.requires_grad = True
    active_tape()._records.append((out, backward_fn))
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
    if not any(out is loss for out, _ in reversed(tape._records)):
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
    """The one permitted broadcast: add a (d,) bias to the rows of an (n, d) input."""
    _same_dtype("add_bias", x, b)
    if x.data.ndim != 2 or b.shape != (x.shape[1],):
        raise TensorError(f"add_bias: incompatible shapes {x.shape} and {b.shape}")
    out = Tensor(x.data + b.data[None, :])

    def back(g):
        if x.requires_grad:
            accumulate_grad(x, g.copy())
        accumulate_grad(b, g.sum(axis=0))

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
    out = Tensor(np.maximum(x.data, 0.0))
    if not will_record(x):
        return out
    mask = np.greater(x.data, 0)

    def back(g):
        accumulate_grad(x, np.multiply(g, mask))

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


def conv2d(x: Tensor, k: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-d cross-correlation with zero padding, no bias.

    x: (n, cin, h, w), k: (cout, cin, kh, kw) -> (n, cout, h', w') with
    h' = (h + 2 pad - kh) // stride + 1.

    The columns are channel-major: one (cin*kh*kw, h'*w') matrix per image,
    multiplied by the (cout, cin*kh*kw) kernel matrix straight into that
    image's NCHW output. The backward multiplies the image's gradient by its
    columns' transpose (gk's part; the parts are added in image order) and
    by the (kh*kw*cin, cout) kernel matrix (gx: one (cin, h', w') plane per
    window offset, added in (i, j) order). So an image's bytes do not depend
    on the batch around it. A 1x1 stride-1 conv multiplies the (padded)
    input itself and copies no columns.
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

    dtype = x.data.dtype
    if pad:
        xp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad), dtype=dtype)
        xp[:, :, pad : pad + h, pad : pad + w] = x.data
    else:
        xp = x.data
    ncols = cin * kh * kw
    kmat = k.data.reshape(cout, ncols)
    y = np.empty((n, cout, ho, wo), dtype=dtype)
    if kh == kw == 1 and stride == 1:
        cols = np.ascontiguousarray(xp).reshape(n, ncols, ho * wo)
    else:
        # im2col, channel-major: cols[b, (c, i, j), (oh, ow)] = xp[b, c, oh*stride + i, ow*stride + j].
        sn, sc, sh, sw = xp.strides
        shape = (n, cin, kh, kw, ho, wo)
        windows = np.lib.stride_tricks.as_strided(xp, shape, (sn, sc, sh, sw, sh * stride, sw * stride), writeable=False)
        cols = np.empty((n, ncols, ho * wo), dtype=dtype)
        cols.reshape(shape)[...] = windows
    np.matmul(kmat, cols, out=y.reshape(n, cout, ho * wo))
    out = Tensor(y)

    def back(g):
        if k.requires_grad:
            parts = np.matmul(g.reshape(n, cout, ho * wo), cols.transpose(0, 2, 1))
            accumulate_grad(k, parts.sum(axis=0).reshape(cout, cin, kh, kw))
        if x.requires_grad:
            kcols = k.data.transpose(2, 3, 1, 0).reshape(-1, cout)  # rows in (i, j, c) order
            gcols = np.matmul(kcols, g.reshape(n, cout, -1)).reshape(n, kh, kw, cin, ho, wo)
            gxp = np.zeros(xp.shape, dtype=dtype)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i : i + ho * stride : stride, j : j + wo * stride : stride] += gcols[:, i, j]
            # A cropped view would sum in another order in later reductions.
            accumulate_grad(x, np.ascontiguousarray(gxp[:, :, pad : pad + h, pad : pad + w]) if pad else gxp)

    return record_op(out, (x, k), back)


def _window_planes(arr: np.ndarray, window: int) -> list:
    """One strided view of a 4-d array per offset (i, j) of the ``window``
    x ``window`` windows that tile it, in (i, j) order; the rows and
    columns past the last whole window are cropped."""
    h, w = arr.shape[2] // window * window, arr.shape[3] // window * window
    return [arr[:, :, i:h:window, j:w:window] for i in range(window) for j in range(window)]


def _running_max(dst: np.ndarray, planes: list) -> None:
    """``dst`` = the elementwise maximum of ``planes``, taken in order."""
    if len(planes) == 1:
        np.copyto(dst, planes[0])
        return
    np.maximum(planes[0], planes[1], out=dst)
    for src in planes[2:]:
        np.maximum(dst, src, out=dst)


def maxpool2d(x: Tensor, window: int) -> Tensor:
    """Max pooling over ``window`` x ``window`` windows that tile the input
    (the stride is the window); the rows and columns past the last whole
    window are cropped. The gradient goes to the lowest linear index among
    tied maxima, -0.0 and +0.0 counted equal.

    A float ``np.maximum`` runs down each window's rows into a half-size
    scratch, whose inner loops are contiguous, then across the columns of
    the scratch. The maximum's value does not depend on that order; only
    the sign of a zero may, as ``np.maximum`` does not order -0.0 against
    +0.0. A NaN in a pooled window raises :class:`TensorError` before
    anything is recorded; a NaN past the last whole window does not reach
    the output.

    The backward keeps no index: it reads the window's maximum back from
    the output. The first offset whose value equals the output's gets
    ``g``, and every other offset gets +0.0.
    """
    if x.data.ndim != 4:
        raise TensorError("maxpool2d expects 4-d input")
    window = int(window)
    n, c, h, w = x.shape
    if not 1 <= window <= min(h, w):
        raise TensorError(f"maxpool2d: window {window} must be at least 1 and fit the input {h}x{w}")
    ho, wo = h // window, w // window
    val = np.empty((n, c, ho, wo), dtype=x.data.dtype)
    rows = np.empty((n, c, ho, w), dtype=x.data.dtype)  # each row window's maximum
    _running_max(rows, [x.data[:, :, i : ho * window : window] for i in range(window)])
    _running_max(val, [rows[:, :, :, j : wo * window : window] for j in range(window)])
    if np.isnan(val.max(initial=-np.inf)):
        raise TensorError("maxpool2d: a pooled window holds a NaN")

    def back(g):
        bits = np.dtype(f"u{g.dtype.itemsize}")  # unsigned integers of the values' width
        gx = np.zeros_like(x.data)
        routed = np.empty(g.shape, dtype=bits)
        unrouted = g.view(bits).copy()  # the +0.0 bits once routed
        for xplane, gplane in zip(_window_planes(x.data, window), _window_planes(gx, window)):
            # The unrouted g where this offset holds the output's value,
            # else the bits of +0.0.
            np.equal(xplane, val, out=routed)
            np.negative(routed, out=routed)
            np.bitwise_and(routed, unrouted, out=routed)
            np.bitwise_xor(unrouted, routed, out=unrouted)
            # Added into +0.0, not assigned: a -0.0 in g lands as +0.0.
            np.add(gplane, routed.view(g.dtype), out=gplane)
        accumulate_grad(x, gx)

    return record_op(Tensor(val), (x,), back)


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

BATCHNORM_EPS = 1e-5
# Share of the batch statistics in each update of the running statistics.
BATCHNORM_MOMENTUM = 0.1


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray, running_var: np.ndarray) -> Tensor:
    """Train-mode batch normalization over (n,) or (n, h, w) per channel.

    Normalizes by batch statistics (population variance), with
    :data:`BATCHNORM_EPS` added to the variance, and updates the running
    stats in place with ``new = (1 - m) * old + m * batch``, ``m`` being
    :data:`BATCHNORM_MOMENTUM`. There is no eval mode: the running stats
    make a per-channel affine map, which the network folds into the layer
    before it with the same :data:`BATCHNORM_EPS`.

    Every per-channel operand is spread over a whole image first, so each
    elementwise pass runs one inner loop per image, not one per channel.
    """
    if x.data.ndim not in (2, 4):
        raise TensorError("batchnorm expects 2-d or 4-d input")
    cdim = x.shape[1]
    if gamma.shape != (cdim,) or beta.shape != (cdim,):
        raise TensorError("batchnorm: gamma/beta shape mismatch")
    _same_dtype("batchnorm", x, gamma, beta, running_mean, running_var)
    if x.shape[0] < 2:
        raise TensorError("batchnorm needs batch extent >= 2 (it runs only in train mode)")

    axes = (0,) if x.data.ndim == 2 else (0, 2, 3)
    spatial = math.prod(x.shape[2:])

    def plane(v):
        return np.repeat(v, spatial).reshape((1,) + x.shape[1:])

    gplane, bplane = plane(gamma.data), plane(beta.data)

    count = x.data.size // cdim
    mean = x.data.sum(axis=axes) / count
    # One x - mean pass serves the variance and xhat. Summing its
    # square and dividing by the count is what np.var does, bit for bit.
    # y holds the square before the output.
    xhat = np.subtract(x.data, plane(mean))
    y = np.square(xhat)
    var = y.sum(axis=axes) / count
    running_mean *= 1.0 - BATCHNORM_MOMENTUM
    running_mean += BATCHNORM_MOMENTUM * mean
    running_var *= 1.0 - BATCHNORM_MOMENTUM
    running_var += BATCHNORM_MOMENTUM * var
    iplane = plane(1.0 / np.sqrt(var + BATCHNORM_EPS))
    xhat *= iplane
    np.multiply(xhat, gplane, out=y)
    y += bplane
    out = Tensor(y)

    def back(g):
        # gx = (dxhat - s1 / count - xhat * s2 / count) * ivar, each
        # product in that operand order. One scratch array holds g * xhat,
        # then dxhat * xhat, then xhat * s2 / count; each of the first two is
        # summed before the next overwrites it.
        scratch = np.multiply(g, xhat)
        accumulate_grad(beta, g.sum(axis=axes))
        accumulate_grad(gamma, scratch.sum(axis=axes))
        dxhat = np.multiply(g, gplane)
        mean1 = plane(dxhat.sum(axis=axes) / count)
        np.multiply(dxhat, xhat, out=scratch)
        s2 = plane(scratch.sum(axis=axes))
        dxhat -= mean1
        np.multiply(xhat, s2, out=scratch)
        scratch /= count
        dxhat -= scratch
        dxhat *= iplane
        accumulate_grad(x, dxhat)

    return record_op(out, (x, gamma, beta), back)


def shift_channels(x: Tensor, shift: Tensor, relu: bool = False, residual: Tensor = None) -> Tensor:
    """The rest of a convolution whose kernel has a batch norm folded into
    it, forward only: ``x[:, c] += shift[c]`` over (n, c, h, w), then
    ``x += residual`` if given, then ``max(x, 0)`` if ``relu``, in place;
    returns ``x``. ``residual`` is only read.

    ``x`` must be an output no tape recorded, as a call that would record
    raises :class:`TensorError`. The shift is spread over a whole image,
    as batch norm's per-channel operands are.
    """
    operands = (x, shift) if residual is None else (x, shift, residual)
    if x.data.ndim != 4 or shift.shape != x.shape[1:2]:
        raise TensorError(f"shift_channels: shift {shift.shape} does not match the channels of {x.shape}")
    if residual is not None and residual.shape != x.shape:
        raise TensorError(f"shift_channels: residual {residual.shape} does not match {x.shape}")
    _same_dtype("shift_channels", *operands)
    if will_record(*operands):
        raise TensorError("shift_channels works in place and never records")
    x.data += np.repeat(shift.data, math.prod(x.shape[2:])).reshape(x.shape[1:])
    if residual is not None:
        x.data += residual.data
    if relu:
        np.maximum(x.data, 0.0, out=x.data)
    return x


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
        if name in arrays:
            raise ValueError(f"array {name!r} is named twice in the checkpoint header")
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
    keeps checkpoints and initialization deterministic. Attributes whose
    names start with ``_`` are not discovered, so a module may keep values
    derived from its parameters there without changing any checkpoint.
    """

    training = True

    def _entries(self, prefix: str = ""):
        """(qualified name, attribute, value) of each public attribute in
        order, the Module items of a list or tuple spread as ``name.i``."""
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{prefix}{name}.{i}", name, item
            else:
                yield prefix + name, name, value

    def _leaves(self, prefix: str = ""):
        """(qualified name, owner, attribute, value) of every entry that is
        not a Module, children included, in attribute order."""
        for qualified, name, value in self._entries(prefix):
            if isinstance(value, Module):
                yield from value._leaves(qualified + ".")
            else:
                yield qualified, self, name, value

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
        for _, _, value in self._entries():
            if isinstance(value, Module):
                value.train(mode)
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
        """Load every parameter and buffer, then re-enter the current mode,
        so whatever a module derives from them in that mode is rebuilt."""
        # Check everything before changing anything.
        params = [(t, stored_like(state, f"param.{n}", t.data)) for n, t in self.named_parameters()]
        buffers = [(b, stored_like(state, f"buffer.{n}", b)) for n, b in self.named_buffers()]
        for t, arr in params:
            t.data = arr.copy()
        for b, arr in buffers:
            b[...] = arr
        self.train(self.training)


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
