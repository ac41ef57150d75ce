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
"""

from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_mod
from . import tensorcore as tc
from . import topdrop

# Precision a model trains and embeds in unless its config says otherwise.
MODEL_DTYPE = "float32"
MODEL_DTYPES = ("float32", "float64")

STREAMS = ("global", "drop", "reg")


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


def _check_extents(**fields) -> None:
    """Raise ValueError unless each field, an int or a non-empty tuple of
    ints, holds only integers >= 1."""
    for name, value in fields.items():
        items = value if isinstance(value, tuple) else (value,)
        if not items or not all(type(v) is int and v >= 1 for v in items):
            raise ValueError(f"{name} must hold integers >= 1, got {value!r}")


@dataclass(frozen=True)
class BackboneConfig:
    stem_channels: int = 16
    stage_channels: tuple = (16, 32, 64)
    strides: tuple = (2, 2, 1)
    input_size: tuple = (64, 32)

    def __post_init__(self):
        _check_extents(stem_channels=self.stem_channels, stage_channels=self.stage_channels,
                       strides=self.strides, input_size=self.input_size)
        if len(self.stage_channels) != len(self.strides):
            raise ValueError("stage_channels and strides must align")
        if self.strides[-1] != 1:
            raise ValueError("final stage must keep stride 1 (taller feature map)")
        if self.feature_height() < 4:
            raise ValueError(f"feature height {self.feature_height()} < 4; stripe dropping needs taller maps")

    def feature_height(self) -> int:
        extent = self.input_size[0] // 2  # stem max-pool
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
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {tuple(VARIANTS)}, got {self.variant!r}")
        _check_extents(d_global=self.d_global, d_drop=self.d_drop)
        dtype = np.dtype(self.dtype).name  # any numpy spelling of the precision
        if dtype not in MODEL_DTYPES:
            raise ValueError(f"dtype must be one of {MODEL_DTYPES}, got {dtype!r}")
        object.__setattr__(self, "dtype", dtype)


@dataclass
class StreamOutputs:
    """Per-stream (pre-neck feature, post-neck feature, class logits)."""

    triplet_feature: tc.Tensor
    neck_feature: tc.Tensor
    logits: tc.Tensor


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class Conv2d(tc.Module):
    def __init__(self, cin, cout, ksize, stride=1, pad=0, init_rng=None):
        fan_in = cin * ksize * ksize
        w = init_rng.standard_normal((cout, cin, ksize, ksize)) * np.sqrt(2.0 / fan_in)
        self.weight = tc.parameter(w)
        self._stride = stride
        self._pad = pad

    def __call__(self, x):
        return tc.conv2d(x, self.weight, self._stride, self._pad)


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
    def __init__(self, channels, zero_init=False):
        self.gamma = tc.parameter(np.zeros(channels) if zero_init else np.ones(channels))
        self.beta = tc.parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def __call__(self, x):
        return tc.batchnorm(x, self.gamma, self.beta, self.running_mean, self.running_var, training=self.training)


class Bottleneck(tc.Module):
    """Residual 1x1 reduce / 3x3 / 1x1 expand block.

    With ``zero_init_last`` the final batch-norm scale starts at zero, so
    the block is the identity on non-negative inputs at initialization.
    """

    def __init__(self, cin, cout, stride=1, init_rng=None, zero_init_last=False):
        mid = max(cout // 4, 1)
        self.conv1 = Conv2d(cin, mid, 1, init_rng=init_rng)
        self.bn1 = BatchNorm(mid)
        self.conv2 = Conv2d(mid, mid, 3, stride=stride, pad=1, init_rng=init_rng)
        self.bn2 = BatchNorm(mid)
        self.conv3 = Conv2d(mid, cout, 1, init_rng=init_rng)
        self.bn3 = BatchNorm(cout, zero_init=zero_init_last)
        self._project = stride != 1 or cin != cout
        if self._project:
            self.proj_conv = Conv2d(cin, cout, 1, stride=stride, init_rng=init_rng)
            self.proj_bn = BatchNorm(cout)

    def __call__(self, x):
        y = tc.relu(self.bn1(self.conv1(x)))
        y = tc.relu(self.bn2(self.conv2(y)))
        y = self.bn3(self.conv3(y))
        shortcut = self.proj_bn(self.proj_conv(x)) if self._project else x
        return tc.relu(tc.add(y, shortcut))


class Backbone(tc.Module):
    """Stem conv + max-pool, then one bottleneck per stage; the final
    stage keeps stride 1 so the feature map stays tall."""

    def __init__(self, cfg: BackboneConfig, init_rng):
        self.stem_conv = Conv2d(3, cfg.stem_channels, 3, stride=1, pad=1, init_rng=init_rng)
        self.stem_bn = BatchNorm(cfg.stem_channels)
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
        y = tc.relu(self.stem_bn(self.stem_conv(x)))
        y = tc.maxpool2d(y, 2, 2)
        for stage in self.stages:
            y = stage(y)
        return y


class BNNeckHead(tc.Module):
    """Batch-norm neck plus a bias-free linear classifier.

    The triplet loss uses the input feature, classification the post-norm
    feature; inference uses the post-norm feature.
    """

    def __init__(self, dim, num_classes, init_rng):
        self.bn = BatchNorm(dim)
        self.classifier = Linear(dim, num_classes, bias=False, init_rng=init_rng, init_std=0.01)

    def __call__(self, feature) -> StreamOutputs:
        neck = self.bn(feature)
        return StreamOutputs(feature, neck, self.classifier(neck))


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------


class ReidModel(tc.Module):
    """Initial weights are drawn in float64 from the ``init`` stream, then
    rounded once to ``cfg.dtype``, as are the batch-norm buffers."""

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
        self.global_head = BNNeckHead(cfg.d_global, num_classes, init_rng)
        self.drop_reduce = Linear(c, cfg.d_drop, bias=True, init_rng=init_rng)
        self.drop_head = BNNeckHead(cfg.d_drop, num_classes, init_rng)
        self.reg_head = BNNeckHead(c, num_classes, init_rng)

        self.cast(cfg.dtype)

        self.cfg = cfg
        self.num_classes = num_classes
        self.variant = cfg.variant
        self.dtype = np.dtype(cfg.dtype)

    # -- streams ----------------------------------------------------------

    def backbone_forward(self, images: tc.Tensor) -> tc.Tensor:
        return self.backbone(images)

    def bottleneck_pair(self, features: tc.Tensor) -> tc.Tensor:
        g = features
        for block in self.refine:
            g = block(g)
        return g

    def global_stream(self, features: tc.Tensor) -> StreamOutputs:
        pooled = tc.global_avg_pool(features)
        return self.global_head(self.global_reduce(pooled))

    def topdrop_stream(self, g: tc.Tensor, dropped=None) -> StreamOutputs:
        """Masked max-pooled drop-stream feature; eval mode never masks."""
        if self.training and dropped is not None:
            g = topdrop.apply_mask(g, dropped)
        pooled = tc.global_max_pool(g)
        return self.drop_head(self.drop_reduce(pooled))

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

        ``mask_fn`` maps the backbone features to the drop stream's
        dropped rows ((n, h), or (h,) shared by the batch), which are
        applied to the refined tensor; without it nothing is dropped.
        """
        return self._run_streams(images, VARIANTS[self.variant].trained, mask_fn)

    def inference_embed(self, images: tc.Tensor) -> np.ndarray:
        """Concatenated neck features of the inference streams.

        Eval mode only; the regularizer stream never contributes unless
        the variant has no drop stream.
        """
        if self.training:
            raise tc.TensorError("inference_embed requires eval mode")
        out = self._run_streams(images, VARIANTS[self.variant].embedded)
        return np.concatenate([s.neck_feature.data for s in out.values()], axis=1)


def normalize_images(images: np.ndarray, dtype=MODEL_DTYPE) -> tc.Tensor:
    """uint8 (n, h, w, 3) pixels -> (n, 3, h, w) floats in [-1, 1].

    Computed in float64 and rounded once to ``dtype``, the model's.
    """
    x = np.asarray(images, dtype=np.float64) / 255.0
    x = (x - 0.5) / 0.5
    return tc.Tensor(np.ascontiguousarray(x.transpose(0, 3, 1, 2), dtype=dtype))


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
