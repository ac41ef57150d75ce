"""Activation-guided stripe dropping.

A feature map is collapsed into a spatial activation map (channel sum of
|F|^p), the activation map into per-row stripe relevances (row means), and
the rows with the largest relevance are dropped. A drop mask is an (n, h)
boolean array of dropped rows, one row set per image. It is built from the
backbone output and applied to the post-bottleneck tensor, zeroing each
dropped row across all channels and the full width; gradients flow only
through kept entries.

A random contiguous stripe, the same rows in every image of the batch, is
the ablation baseline.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tensorcore as tc


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass(frozen=True)
class DropConfig:
    """Share of rows to drop and the activation-map exponent."""

    height_ratio: float = 0.3
    p: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.height_ratio <= 1.0:
            raise ValueError(f"height_ratio must be in (0, 1], got {self.height_ratio}")
        if not 1.0 <= self.p < math.inf:
            raise ValueError(f"p must be >= 1 and finite, got {self.p}")


def activation_map(feature_map: np.ndarray, p: float = 2.0) -> np.ndarray:
    """Collapse (..., c, h, w) into the (..., h, w) map of channel sums of |F|^p."""
    feature_map = np.asarray(feature_map, dtype=np.float64)
    if feature_map.ndim < 3:
        raise ValueError(f"expected (..., c, h, w), got shape {feature_map.shape}")
    if not np.all(np.isfinite(feature_map)):
        raise ValueError("non-finite feature map")
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    return (np.abs(feature_map) ** p).sum(axis=-3)


def stripe_relevance(act: np.ndarray) -> np.ndarray:
    """Per-row mean of an (..., h, w) activation map."""
    act = np.asarray(act, dtype=np.float64)
    if act.ndim < 2:
        raise ValueError(f"expected (..., h, w), got shape {act.shape}")
    return act.mean(axis=-1)


def num_drop_rows(h: int, height_ratio: float) -> int:
    """Rows a top mask drops of ``h``: max(1, round-half-up(h * ratio));
    ValueError when that is every row."""
    ndrop = max(1, round_half_up(h * height_ratio))
    if ndrop >= h:
        raise ValueError(f"would drop all rows: num_drop={ndrop}, h={h}")
    return ndrop


def block_rows(h: int, height_ratio: float) -> int:
    """Rows of a Batch DropBlock block (Dai et al., arXiv 1811.07130) of
    ``h``: floor(h * ratio); ValueError when that is no row or every row."""
    block = int(np.floor(h * height_ratio))
    if block < 1:
        raise ValueError(f"block height floor({h} * {height_ratio}) < 1")
    if block >= h:
        raise ValueError(f"block of {block} rows would drop all of h={h}")
    return block


# The row count of each variant mask (network.Variant.mask) that drops rows.
MASK_ROWS = {"top": num_drop_rows, "random": block_rows}


def top_drop_mask(relevance: np.ndarray, cfg: DropConfig) -> np.ndarray:
    """Dropped rows of an (..., h) relevance array: the num_drop largest.

    num_drop = max(1, round-half-up(h * height_ratio)); ties are broken by
    dropping the lower row index first. Each leading index (image) gets
    its own row set.
    """
    relevance = np.asarray(relevance, dtype=np.float64)
    ndrop = num_drop_rows(relevance.shape[-1], cfg.height_ratio)
    # Stable sort of -relevance keeps original order among ties, so the
    # lower row index is dropped first.
    order = np.argsort(-relevance, axis=-1, kind="stable")
    dropped = np.zeros(relevance.shape, dtype=bool)
    np.put_along_axis(dropped, order[..., :ndrop], True, axis=-1)
    return dropped


def batch_drop_mask(n: int, h: int, height_ratio: float, rng) -> np.ndarray:
    """Baseline (n, h) mask: a contiguous block of floor(h * ratio) rows at
    a uniformly random start, one draw from the caller-owned generator
    ``rng`` for all ``n`` images.
    """
    block = block_rows(h, height_ratio)
    start = int(rng.integers(0, h - block + 1))
    dropped = np.zeros((n, h), dtype=bool)
    dropped[:, start : start + block] = True
    return dropped


def masks_from_features(features: np.ndarray, cfg: DropConfig) -> np.ndarray:
    """Per-image (n, h) top masks for a (n, c, h, w) feature batch."""
    features = np.asarray(features)
    if features.ndim != 4:
        raise ValueError(f"expected (n, c, h, w), got {features.shape}")
    return top_drop_mask(stripe_relevance(activation_map(features, cfg.p)), cfg)


def apply_mask(g: tc.Tensor, dropped: np.ndarray) -> tc.Tensor:
    """Zero dropped rows of a (n, c, h, w) tensor.

    ``dropped`` is an (n, h) boolean array, one row set per image. The mask
    is a constant: gradient flows only through kept entries.
    """
    n, _, h, _ = g.shape
    dropped = np.asarray(dropped, dtype=bool)
    if dropped.shape != (n, h):
        raise ValueError(f"mask shape {dropped.shape} does not match ({n}, {h})")
    keep = (~dropped).astype(g.data.dtype)[:, None, :, None]
    return tc.mul(g, tc.Tensor(np.broadcast_to(keep, g.shape), dtype=g.data.dtype))
