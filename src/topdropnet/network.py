"""Three-stream embedding network with stripe dropping.

A small residual backbone produces feature maps F. The global stream
average-pools F and reduces it with a linear layer (the pooled-vector
equivalent of a 1x1 convolution). The drop stream refines F through two
residual bottleneck blocks into G (same shape as F), zeroes its most
activated rows during training, max-pools and reduces. The regularizer
stream average-pools G directly and exists only at training time.

Every stream ends in a batch-norm neck: the triplet loss consumes the
pre-norm feature, a bias-free linear classifier consumes the post-norm
feature. At test time the global and drop stream neck features are
concatenated (global and regularizer for the variant without dropping).

Batch norm runs only in train mode. Eval mode folds each one, a fixed
per-channel map ``x·s + t`` of its running statistics, into the layer
before it (standard batch-norm folding, Jacob et al., arXiv 1712.05877,
section 3.2), and computes neither the pre-norm feature nor the logits.
A conv's tail (shift, residual add, relu) runs inside the conv's one
``tc.shift_channels`` call, with the bytes of the separate ops training
runs. The stem max-pools before its relu in both modes: relu and the
shift are non-decreasing, so they commute with a window maximum.
"""

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import rng as rng_mod
from . import tensorcore as tc
from . import topdrop

# Precision a model trains and embeds in unless its config says otherwise.
MODEL_DTYPE = "float32"
MODEL_DTYPES = ("float32", "float64")

STREAMS = ("global", "drop", "reg")

# Window of the stem's max-pool, which tiles the stem's normalized conv output.
STEM_POOL = 2


def loss_key(stream: str) -> str:
    return f"loss_{stream}"


# Loss metrics of a step, in the column order of history.csv and summary.csv.
LOSS_KEYS = tuple(loss_key(s) for s in STREAMS + ("total",))


@dataclass(frozen=True)
class Variant:
    trained: tuple  # streams trained, each adding a loss term
    embedded: tuple  # streams concatenated at inference time
    mask: str  # drop-stream mask: "top" per image, "random" per batch, or "none"


# The ablation, in report order. baseline_bdb is Batch DropBlock: the full
# model with a random contiguous block in place of the top-relevance rows.
VARIANTS = {
    "full": Variant(("global", "drop", "reg"), ("global", "drop"), "top"),
    "no_drop": Variant(("global", "reg"), ("global", "reg"), "none"),
    "no_reg": Variant(("global", "drop"), ("global", "drop"), "top"),
    "baseline_bdb": Variant(("global", "drop", "reg"), ("global", "drop"), "random"),
}


def _check_extents(scalar: bool, **fields) -> None:
    """Raise ValueError unless each field holds only integers >= 1: one
    int if ``scalar``, else a non-empty tuple of them."""
    for name, value in fields.items():
        items = (value,) if scalar else value if isinstance(value, tuple) else ()
        if not items or not all(type(v) is int and v >= 1 for v in items):
            shape = "" if scalar else " in a non-empty tuple"
            raise ValueError(f"{name} must hold integers >= 1{shape}, got {value!r}")


@dataclass(frozen=True)
class BackboneConfig:
    stem_channels: int = 16
    stage_channels: tuple = (16, 32, 64)
    strides: tuple = (2, 2, 1)
    input_size: tuple = (64, 32)

    def __post_init__(self):
        _check_extents(True, stem_channels=self.stem_channels)
        _check_extents(False, stage_channels=self.stage_channels, strides=self.strides, input_size=self.input_size)
        if len(self.input_size) != 2:
            raise ValueError(f"input_size must be (height, width), got {self.input_size!r}")
        if len(self.stage_channels) != len(self.strides):
            raise ValueError("stage_channels and strides must align")
        if self.strides[-1] != 1:
            raise ValueError("final stage must keep stride 1 (taller feature map)")
        if self.feature_height() < 4:
            raise ValueError(f"feature height {self.feature_height()} < 4; stripe dropping needs taller maps")

    def feature_height(self) -> int:
        extent = self.input_size[0] // STEM_POOL
        for s in self.strides:
            extent = tc.conv_output_extent(extent, 3, s, 1)
        return extent

    def feature_channels(self) -> int:
        return self.stage_channels[-1]


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "full"
    d_global: int = 128
    d_drop: int = 128
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    dtype: str = MODEL_DTYPE

    def __post_init__(self):
        if not isinstance(self.variant, str) or self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {tuple(VARIANTS)}, got {self.variant!r}")
        _check_extents(True, d_global=self.d_global, d_drop=self.d_drop)
        dtype = np.dtype(self.dtype).name  # any numpy spelling of the precision
        if dtype not in MODEL_DTYPES:
            raise ValueError(f"dtype must be one of {MODEL_DTYPES}, got {dtype!r}")
        object.__setattr__(self, "dtype", dtype)


@dataclass
class StreamOutputs:
    """Per-stream (pre-neck feature, post-neck feature, class logits); in
    eval mode only the post-neck feature, the others None."""

    triplet_feature: tc.Tensor
    neck_feature: tc.Tensor
    logits: tc.Tensor


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class Conv2d(tc.Module):
    """Convolution, then the batch norm ``bn`` (see :func:`conv_bn`), then
    what the call asks for in this order: max-pool over ``pool`` x
    ``pool`` windows, add ``residual``, take the relu.

    Eval mode runs one convolution with the folded kernel ``k·s``, the
    max-pool, then :func:`tc.shift_channels` adds the shift ``t``, the
    residual and the relu in place, to the same bytes: the shift is
    non-decreasing, so it commutes with the window maximum.
    """

    def __init__(self, cin, cout, ksize, stride, pad, init_rng, bn):
        fan_in = cin * ksize * ksize
        w = init_rng.standard_normal((cout, cin, ksize, ksize)) * np.sqrt(2.0 / fan_in)
        self.weight = tc.parameter(w)
        self._stride = stride
        self._pad = pad
        self._bn = bn
        self._folded = None  # (kernel, shift) in eval mode

    def train(self, mode: bool = True):
        if mode:
            self._folded = None
        else:
            scale, shift = self._bn.affine()
            dtype = self.weight.dtype
            kernel = self.weight.data * scale[:, None, None, None]
            self._folded = tc.Tensor(kernel.astype(dtype)), tc.Tensor(shift.astype(dtype))
        return super().train(mode)

    def __call__(self, x, relu=False, residual=None, pool=1):
        if not self.training:
            kernel, shift = self._folded
            y = tc.conv2d(x, kernel, self._stride, self._pad)
            return tc.shift_channels(tc.maxpool2d(y, pool) if pool > 1 else y, shift, relu, residual)
        y = self._bn(tc.conv2d(x, self.weight, self._stride, self._pad))
        if pool > 1:
            y = tc.maxpool2d(y, pool)
        if residual is not None:
            y = tc.add(y, residual)
        return tc.relu(y) if relu else y


def conv_bn(cin, cout, ksize, stride=1, pad=0, init_rng=None, zero_init=False) -> tuple:
    """(conv, bn): a :class:`Conv2d` and the batch norm it runs its output
    through. The owner holds both, so each keeps a checkpoint name of
    the owner's; the conv alone calls the batch norm."""
    bn = BatchNorm(cout, zero_init)
    return Conv2d(cin, cout, ksize, stride, pad, init_rng, bn), bn


class Linear(tc.Module):
    def __init__(self, din, dout, bias=True, init_rng=None, init_std=None):
        std = init_std if init_std is not None else np.sqrt(2.0 / din)
        self.weight = tc.parameter(init_rng.standard_normal((din, dout)) * std)
        if bias:
            self.bias = tc.parameter(np.zeros(dout))
        self._has_bias = bias

    def __call__(self, x):
        y = tc.matmul(x, self.weight)
        if self._has_bias:
            y = tc.add_bias(y, self.bias)
        return y


class BatchNorm(tc.Module):
    """Train-mode batch norm; eval mode folds :meth:`affine` into the
    layer before, so calling it there raises."""

    def __init__(self, channels, zero_init=False):
        self.gamma = tc.parameter(np.zeros(channels) if zero_init else np.ones(channels))
        self.beta = tc.parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def __call__(self, x):
        if not self.training:
            raise tc.TensorError("batch norm runs only in train mode; eval mode folds it into the layer before")
        return tc.batchnorm(x, self.gamma, self.beta, self.running_mean, self.running_var)

    def affine(self) -> tuple:
        """float64 (s, t) of the map ``x·s + t`` this batch norm is in eval
        mode: ``s = γ/√(running_var + ε)`` and ``t = β − running_mean·s``."""
        stats = (self.gamma.data, self.beta.data, self.running_mean, self.running_var)
        gamma, beta, mean, var = (np.asarray(a, np.float64) for a in stats)
        scale = gamma / np.sqrt(var + tc.BATCHNORM_EPS)
        return scale, beta - mean * scale


class Bottleneck(tc.Module):
    """Residual 1x1 reduce / 3x3 / 1x1 expand block.

    With ``zero_init_last`` the final batch-norm scale starts at zero, so
    the block is the identity on non-negative inputs at initialization.
    """

    def __init__(self, cin, cout, stride=1, init_rng=None, zero_init_last=False):
        mid = max(cout // 4, 1)
        self.conv1, self.bn1 = conv_bn(cin, mid, 1, init_rng=init_rng)
        self.conv2, self.bn2 = conv_bn(mid, mid, 3, stride=stride, pad=1, init_rng=init_rng)
        self.conv3, self.bn3 = conv_bn(mid, cout, 1, init_rng=init_rng, zero_init=zero_init_last)
        self._project = stride != 1 or cin != cout
        if self._project:
            self.proj_conv, self.proj_bn = conv_bn(cin, cout, 1, stride=stride, init_rng=init_rng)

    def __call__(self, x):
        shortcut = self.proj_conv(x) if self._project else x
        return self.conv3(self.conv2(self.conv1(x, relu=True), relu=True), relu=True, residual=shortcut)


class Backbone(tc.Module):
    """Stem conv + max-pool, then one bottleneck per stage; the final
    stage keeps stride 1 so the feature map stays tall."""

    def __init__(self, cfg: BackboneConfig, init_rng):
        self.stem_conv, self.stem_bn = conv_bn(3, cfg.stem_channels, 3, stride=1, pad=1, init_rng=init_rng)
        self.stages = []
        cin = cfg.stem_channels
        for cout, stride in zip(cfg.stage_channels, cfg.strides):
            self.stages.append(Bottleneck(cin, cout, stride, init_rng))
            cin = cout
        self._cfg = cfg

    def __call__(self, x):
        h, w = self._cfg.input_size
        if x.shape[2:] != (h, w) or x.shape[1] != 3:
            raise tc.TensorError(f"backbone expects (n, 3, {h}, {w}), got {x.shape}")
        y = self.stem_conv(x, relu=True, pool=STEM_POOL)
        for stage in self.stages:
            y = stage(y)
        return y


class BNNeckHead(tc.Module):
    """The layer ``reduce`` (a Linear its owner holds, or None for none),
    then a batch-norm neck and a bias-free linear classifier.

    In train mode the triplet loss uses the reduced feature, classification
    the post-norm feature. Eval mode computes only the post-norm feature,
    which inference uses: the neck is folded into reduce's weight and bias
    (``W·s`` and ``b·s + t``), or without a reduce stays the map
    ``x·s + t``, and the classifier does not run.
    """

    def __init__(self, dim, num_classes, init_rng, reduce=None):
        self.bn = BatchNorm(dim)
        self.classifier = Linear(dim, num_classes, bias=False, init_rng=init_rng, init_std=0.01)
        self._reduce = reduce
        self._folded = None  # (weight or scale, bias or shift) in eval mode

    def train(self, mode: bool = True):
        if mode:
            self._folded = None
        else:
            scale, shift = self.bn.affine()
            if self._reduce is not None:
                scale, shift = self._reduce.weight.data * scale, self._reduce.bias.data * scale + shift
            dtype = self.bn.gamma.dtype
            self._folded = tc.Tensor(scale.astype(dtype)), tc.Tensor(shift.astype(dtype))
        return super().train(mode)

    def __call__(self, x) -> StreamOutputs:
        if self.training:
            feature = self._reduce(x) if self._reduce is not None else x
            neck = self.bn(feature)
            return StreamOutputs(feature, neck, self.classifier(neck))
        weight, bias = self._folded
        if self._reduce is None:
            return StreamOutputs(None, tc.Tensor(x.data * weight.data + bias.data), None)
        return StreamOutputs(None, tc.add_bias(tc.matmul(x, weight), bias), None)


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------

# The ModelConfig fields a model description stores beside its backbone's;
# the dtype is that of the stored parameters.
_DESCRIBED_FIELDS = ("variant", "d_global", "d_drop")


class ReidModel(tc.Module):
    """Initial weights are drawn in float64 from the ``init`` stream, then
    rounded once to ``cfg.dtype``, as are the batch-norm buffers.

    ``eval()`` folds every batch norm into the layer before it, in float64
    rounded once to ``cfg.dtype`` (:class:`Conv2d`, :class:`BNNeckHead`);
    ``train()`` drops the folds and ``load_state_arrays`` rebuilds them.
    They live in ``_`` attributes, so no parameter name or checkpoint byte
    depends on the mode.
    """

    def __init__(self, num_classes: int, cfg: ModelConfig = ModelConfig(), seed: int = 0):
        init_rng = rng_mod.generator(seed, "init")
        bb = cfg.backbone
        c = bb.feature_channels()

        self.backbone = Backbone(bb, init_rng)
        self.refine = [
            Bottleneck(c, c, 1, init_rng, zero_init_last=True),
            Bottleneck(c, c, 1, init_rng, zero_init_last=True),
        ]
        self.global_reduce = Linear(c, cfg.d_global, bias=True, init_rng=init_rng)
        self.global_head = BNNeckHead(cfg.d_global, num_classes, init_rng, self.global_reduce)
        self.drop_reduce = Linear(c, cfg.d_drop, bias=True, init_rng=init_rng)
        self.drop_head = BNNeckHead(cfg.d_drop, num_classes, init_rng, self.drop_reduce)
        self.reg_head = BNNeckHead(c, num_classes, init_rng)

        self.cast(cfg.dtype)

        self.cfg = cfg
        self.num_classes = num_classes
        self.variant = cfg.variant
        self.dtype = np.dtype(cfg.dtype)

    def description(self) -> dict:
        """The flat JSON-ready dict a checkpoint stores to rebuild this
        model; :func:`from_description` reads it back."""
        described = {k: getattr(self.cfg, k) for k in _DESCRIBED_FIELDS}
        return {"num_classes": self.num_classes, **described, **asdict(self.cfg.backbone)}

    # -- streams ----------------------------------------------------------

    def backbone_forward(self, images: tc.Tensor) -> tc.Tensor:
        return self.backbone(images)

    def bottleneck_pair(self, features: tc.Tensor) -> tc.Tensor:
        g = features
        for block in self.refine:
            g = block(g)
        return g

    def global_stream(self, features: tc.Tensor) -> StreamOutputs:
        return self.global_head(tc.global_avg_pool(features))

    def topdrop_stream(self, g: tc.Tensor, dropped=None) -> StreamOutputs:
        """Masked max-pooled drop-stream feature; eval mode never masks."""
        if self.training and dropped is not None:
            g = topdrop.apply_mask(g, dropped)
        return self.drop_head(tc.global_max_pool(g))

    def reg_stream(self, g: tc.Tensor) -> StreamOutputs:
        return self.reg_head(tc.global_avg_pool(g))

    # -- orchestration ------------------------------------------------------

    def _run_streams(self, images: tc.Tensor, streams: tuple, mask_fn=None) -> dict:
        features = self.backbone_forward(images)
        dropped = mask_fn(features) if mask_fn is not None else None
        refined = self.bottleneck_pair(features)
        out = {}
        for stream in streams:
            if stream == "global":
                out[stream] = self.global_stream(features)
            elif stream == "drop":
                out[stream] = self.topdrop_stream(refined, dropped)
            else:
                out[stream] = self.reg_stream(refined)
        return out

    def forward_train(self, images: tc.Tensor, mask_fn=None) -> dict:
        """All active streams.

        ``mask_fn`` maps the backbone features to the drop stream's (n, h)
        dropped rows, which are applied to the refined tensor; without it
        nothing is dropped.
        """
        return self._run_streams(images, VARIANTS[self.variant].trained, mask_fn)

    def inference_embed(self, images: tc.Tensor) -> np.ndarray:
        """Concatenated neck features of the inference streams, through
        the folded layers and without the classifiers.

        Eval mode only; the regularizer stream never contributes unless
        the variant has no drop stream.
        """
        if self.training:
            raise tc.TensorError("inference_embed requires eval mode")
        out = self._run_streams(images, VARIANTS[self.variant].embedded)
        return np.concatenate([s.neck_feature.data for s in out.values()], axis=1)


def parameter_shapes(num_classes: int, cfg: ModelConfig) -> dict:
    """``{name: shape}`` of the parameters of ``ReidModel(num_classes,
    cfg)``, worked out without building it."""
    bb, c = cfg.backbone, cfg.backbone.feature_channels()
    cins = (bb.stem_channels,) + bb.stage_channels
    stages = [(f"backbone.stages.{i}", *a) for i, a in enumerate(zip(cins, bb.stage_channels, bb.strides))]
    # (weight, the batch norm over its first axis, the weight's shape)
    layers = [("backbone.stem_conv", "backbone.stem_bn", (bb.stem_channels, 3, 3, 3))]
    for name, cin, cout, stride in stages + [("refine.0", c, c, 1), ("refine.1", c, c, 1)]:
        mid = max(cout // 4, 1)
        for i, shape in enumerate([(mid, cin, 1, 1), (mid, mid, 3, 3), (cout, mid, 1, 1)], 1):
            layers.append((f"{name}.conv{i}", f"{name}.bn{i}", shape))
        if stride != 1 or cin != cout:
            layers.append((f"{name}.proj_conv", f"{name}.proj_bn", (cout, cin, 1, 1)))
    shapes = {}
    for stream, dim in (("global", cfg.d_global), ("drop", cfg.d_drop), ("reg", c)):
        layers.append((f"{stream}_head.classifier", f"{stream}_head.bn", (dim, num_classes)))
        if stream != "reg":
            shapes.update({f"{stream}_reduce.weight": (c, dim), f"{stream}_reduce.bias": (dim,)})
    for weight, bn, shape in layers:
        shapes.update({f"{weight}.weight": shape, f"{bn}.gamma": shape[:1], f"{bn}.beta": shape[:1]})
    return shapes


def from_description(desc) -> tuple:
    """(num_classes, ModelConfig) of a :meth:`ReidModel.description`, its
    JSON lists read as tuples, in the default dtype (a description stores
    none). ValueError unless the config classes accept every value."""
    backbone_fields = [f.name for f in fields(BackboneConfig)]
    keys = {"num_classes", *_DESCRIBED_FIELDS, *backbone_fields}
    if not isinstance(desc, dict) or set(desc) != keys:
        raise ValueError(f"expected exactly the keys {sorted(keys)}, got {desc!r}")
    _check_extents(True, num_classes=desc["num_classes"])
    backbone = BackboneConfig(**{k: tuple(desc[k]) if isinstance(desc[k], list) else desc[k] for k in backbone_fields})
    return desc["num_classes"], ModelConfig(**{k: desc[k] for k in _DESCRIBED_FIELDS}, backbone=backbone)


def normalize_images(images: np.ndarray, dtype=MODEL_DTYPE) -> tc.Tensor:
    """uint8 (n, h, w, 3) pixels -> (n, 3, h, w) floats in [-1, 1].

    Computed in float64 and rounded once to ``dtype``, the model's. uint8
    pixels are looked up in a 256-entry table of that expression, built
    per call, so each value has the bytes the arithmetic gives it; any
    other input, such as training's float augmented batch, takes the
    arithmetic itself.
    """
    images = np.asarray(images)
    if images.dtype == np.uint8:
        table = _unit_range(np.arange(256, dtype=np.float64)).astype(dtype)
        return tc.Tensor(np.take(table, images.transpose(0, 3, 1, 2)))
    x = _unit_range(np.asarray(images, dtype=np.float64))
    return tc.Tensor(np.ascontiguousarray(x.transpose(0, 3, 1, 2), dtype=dtype))


def _unit_range(pixels: np.ndarray) -> np.ndarray:
    """float64 pixel values in [0, 255] -> [-1, 1]."""
    return (pixels / 255.0 - 0.5) / 0.5


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def ce_label_smoothing(logits: tc.Tensor, labels, epsilon: float = 0.1) -> tc.Tensor:
    """Cross entropy against (1 - eps) one-hot + eps / K targets."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k})")
    targets = np.full((n, k), epsilon / k)
    targets[np.arange(n), labels] += 1.0 - epsilon
    weighted = tc.mul(tc.log_softmax(logits), tc.Tensor(targets, dtype=logits.data.dtype))
    return tc.scalar_mul(tc.sum_all(weighted), -1.0 / n)


def triplet_batch_hard(features: tc.Tensor, ids, margin: float = 0.3) -> tc.Tensor:
    """Batch-hard triplet loss with Euclidean distances.

    Per anchor: hinge on margin + (farthest same-id distance) - (nearest
    different-id distance), averaged over the batch. Mining ties break to
    the lowest index; the distance gradient at coincident points is the
    zero subgradient.
    """
    ids = np.asarray(ids)
    n = features.shape[0]
    if ids.shape != (n,):
        raise ValueError(f"ids shape {ids.shape} does not match batch {n}")
    same = ids[:, None] == ids[None, :]
    if np.unique(ids).size < 2:
        raise ValueError("triplet loss needs at least two distinct ids in the batch")
    if np.any(same.sum(axis=1) < 2):
        raise ValueError("every id in the batch needs at least two instances")

    f = features.data
    diff = f[:, None, :] - f[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))

    pos_idx = np.where(same, dist, -np.inf).argmax(axis=1)
    neg_idx = np.where(same, np.inf, dist).argmin(axis=1)
    d_pos = dist[np.arange(n), pos_idx]
    d_neg = dist[np.arange(n), neg_idx]
    hinge = np.maximum(0.0, margin + d_pos - d_neg)
    out = tc.Tensor(hinge.mean())

    def back(gout):
        g = np.zeros_like(f)
        scale = float(gout) / n
        for a in np.flatnonzero(hinge > 0):
            p, ng = pos_idx[a], neg_idx[a]
            if d_pos[a] > 0:
                u = (f[a] - f[p]) / d_pos[a]
                g[a] += scale * u
                g[p] -= scale * u
            if d_neg[a] > 0:
                v = (f[a] - f[ng]) / d_neg[a]
                g[a] -= scale * v
                g[ng] += scale * v
        tc.accumulate_grad(features, g)

    return tc.record_op(out, (features,), back)


def total_loss(outputs: dict, labels, margin: float = 0.3, epsilon: float = 0.1):
    """Sum of (smoothed cross entropy + batch-hard triplet) per active
    stream. Returns the scalar tensor and per-stream float metrics."""
    if not outputs:
        raise ValueError("need at least one active stream")
    total = None
    metrics = {}
    for name, stream in outputs.items():
        ce = ce_label_smoothing(stream.logits, labels, epsilon)
        tri = triplet_batch_hard(stream.triplet_feature, labels, margin)
        stream_loss = tc.add(ce, tri)
        metrics[loss_key(name)] = stream_loss.item()
        total = stream_loss if total is None else tc.add(total, stream_loss)
    metrics[loss_key("total")] = total.item()
    return total, metrics
