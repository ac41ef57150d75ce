"""Deterministic synthetic re-identification benchmark.

Each identity is rendered as four stacked horizontal body bands (hair,
torso, legs, feet) with identity-specific colors, texture frequency and
body width, photographed by cameras that add their own background,
brightness tint and horizontal jitter. A gray block can occlude one band,
which gives stripe dropping a ground-truth semantic to act on.

All randomness is keyed per (seed, image), so generation is bitwise
reproducible and order independent. Training-time augmentation (flip,
zoom, erase) and PK batch sampling live here too.
"""

import csv
import functools
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import evaluation, ppm
from . import rng as rng_mod

SPLITS = ("train", "query", "gallery")

# Band heights as fractions of the figure: hair, torso, legs, feet.
BAND_FRACTIONS = (0.15, 0.35, 0.35, 0.15)

# Occluders are painted in this exact triple after quantization; organically
# rendered pixels that collide are nudged to (129, 128, 128) first, so a
# pixel scan for the reserved gray finds occluders and nothing else.
OCCLUDER_GRAY = (128, 128, 128)

MIN_COLOR_GAP = 48


@dataclass(frozen=True)
class SampleRecord:
    person_id: int
    camera_id: int
    split: str
    image_path: str


@dataclass(frozen=True)
class IdentityAppearance:
    band_colors: tuple  # 4 x (r, g, b) ints
    texture_frequency: float
    body_width_frac: float


@dataclass(frozen=True)
class AugmentationConfig:
    """Training augments with these defaults; other values isolate one
    of flip, zoom and erase."""

    flip_prob: float = 0.5
    zoom_range: tuple = (0.9, 1.1)
    erase_prob: float = 0.5
    erase_area: tuple = (0.02, 0.2)
    erase_aspect: tuple = (0.3, 1.0 / 0.3)

    def __post_init__(self):
        for p in (self.flip_prob, self.erase_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability out of [0, 1]: {p}")
        if self.zoom_range[0] <= 0 or self.zoom_range[1] < self.zoom_range[0]:
            raise ValueError(f"bad zoom range {self.zoom_range}")


@dataclass(frozen=True)
class BatchSpec:
    p: int = 8
    k: int = 4

    def __post_init__(self):
        if self.p < 2 or self.k < 2:
            raise ValueError(f"triplet mining needs P >= 2 and K >= 2, got P={self.p}, K={self.k}")


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _band_rows(height: int):
    bounds = [0]
    acc = 0.0
    for frac in BAND_FRACTIONS:
        acc += frac
        bounds.append(int(round(acc * height)))
    bounds[-1] = height
    return [(bounds[i], bounds[i + 1]) for i in range(4)]


def _sample_identities(num_ids: int, gen) -> list:
    """Rejection-sample appearances so any two identities differ by at
    least MIN_COLOR_GAP in some band color channel."""
    identities = []
    palettes = []
    while len(identities) < num_ids:
        colors = gen.integers(16, 240, size=(4, 3))
        freq = float(gen.uniform(1.0, 5.0))
        width = float(gen.uniform(0.5, 0.8))
        if all(np.abs(colors - prev).max() >= MIN_COLOR_GAP for prev in palettes):
            palettes.append(colors)
            identities.append(
                IdentityAppearance(tuple(map(tuple, colors.tolist())), freq, width)
            )
    return identities


def _camera_params(num_cams: int, gen) -> list:
    cams = []
    for _ in range(num_cams):
        background = gen.uniform(170.0, 230.0, size=3)
        tint = gen.uniform(0.9, 1.1, size=3)
        cams.append((background, tint))
    return cams


def render_image(identity: IdentityAppearance, camera, size, occlusion_prob: float, gen) -> np.ndarray:
    """One (h, w, 3) uint8 image; all draws come from ``gen``."""
    h, w = size
    background, tint = camera
    img = np.ones((h, w, 3)) * background

    dx = int(round(gen.uniform(-0.125, 0.125) * w))
    half = identity.body_width_frac * w / 2.0
    left = max(0, int(round(w / 2.0 + dx - half)))
    right = min(w, int(round(w / 2.0 + dx + half)))

    rows = np.arange(h)
    texture = 1.0 + 0.15 * np.sin(2.0 * np.pi * identity.texture_frequency * rows / h)
    for (top, bottom), color in zip(_band_rows(h), identity.band_colors):
        band = np.asarray(color, dtype=np.float64) * texture[top:bottom, None]
        img[top:bottom, left:right, :] = band[:, None, :]

    img *= tint
    img += gen.uniform(-4.0, 4.0, size=img.shape)
    img = np.clip(np.rint(img), 0, 255).astype(np.uint8)

    # Reserve the occluder gray (see module docstring).
    collisions = np.all(img == OCCLUDER_GRAY, axis=2)
    img[collisions, 0] = OCCLUDER_GRAY[0] + 1

    if gen.uniform() < occlusion_prob:
        band = int(gen.integers(0, 4))
        top, bottom = _band_rows(h)[band]
        img[top:bottom, :, :] = OCCLUDER_GRAY
    return img


def check_generation(num_ids: int, num_cams: int, imgs_per_id_per_cam: int, occlusion_prob: float, size: tuple) -> None:
    """Raise ValueError unless ``generate_dataset`` can render these settings."""
    if num_ids < 4:
        raise ValueError(f"need at least 4 identities, got {num_ids}")
    if num_cams < 2:
        raise ValueError(f"need at least 2 cameras for cross-camera evaluation, got {num_cams}")
    if imgs_per_id_per_cam < 1:
        raise ValueError("need at least one image per (id, camera)")
    if not 0.0 <= occlusion_prob <= 1.0:
        raise ValueError(f"occlusion_prob must be in [0, 1], got {occlusion_prob}")
    if len(size) != 2 or min(size) < 1:
        raise ValueError(f"image size must be (height, width) with both >= 1, got {size}")


def generate_dataset(
    out_dir,
    num_ids: int = 32,
    num_cams: int = 4,
    imgs_per_id_per_cam: int = 4,
    occlusion_prob: float = 0.1,
    size: tuple = (64, 32),
    seed: int = 1,
) -> list:
    """Render the benchmark into ``out_dir`` and return its manifest.

    Identities are split 50/50 into train ids and evaluation ids; for each
    evaluation (id, camera) the first image goes to the query split and
    the rest to the gallery.
    """
    check_generation(num_ids, num_cams, imgs_per_id_per_cam, occlusion_prob, size)
    num_train = num_ids // 2
    identities = _sample_identities(num_ids, rng_mod.generator(seed, "identity"))
    cameras = _camera_params(num_cams, rng_mod.generator(seed, "camera"))

    image_dir = os.path.join(out_dir, "images")
    os.makedirs(image_dir, exist_ok=True)

    records = []
    for pid in range(num_ids):
        for cam in range(num_cams):
            for k in range(imgs_per_id_per_cam):
                gen = rng_mod.generator(seed, "image", pid, cam, k)
                img = render_image(identities[pid], cameras[cam], size, occlusion_prob, gen)
                rel = os.path.join("images", f"{pid:03d}_{cam:02d}_{k:02d}.ppm")
                ppm.write_ppm(os.path.join(out_dir, rel), img)
                if pid < num_train:
                    split = "train"
                else:
                    split = "query" if k == 0 else "gallery"
                records.append(SampleRecord(pid, cam, split, rel))
    save_manifest(records, os.path.join(out_dir, "manifest.csv"))
    return records


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------

MANIFEST_HEADER = ["person_id", "camera_id", "split", "image_path"]


def save_manifest(records, path) -> None:
    evaluation.write_csv(path, MANIFEST_HEADER, ([r.person_id, r.camera_id, r.split, r.image_path] for r in records))


def load_manifest(path) -> list:
    """Records of a manifest. Raises ValueError naming the line for a
    malformed row and for an image path that is absolute, climbs out of
    the dataset directory with ``..``, or names the directory itself."""
    records = []
    with open(path, "r", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise ValueError(f"bad manifest header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValueError(f"line {lineno}: expected 4 fields, got {len(row)}")
            try:
                pid, cam = int(row[0]), int(row[1])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            split = row[2]
            if split not in SPLITS:
                raise ValueError(f"line {lineno}: unknown split {split!r}")
            first = os.path.normpath(row[3]).split(os.sep)[0]
            if os.path.isabs(row[3]) or first in (".", ".."):
                raise ValueError(f"line {lineno}: image path {row[3]!r} does not name a file inside the dataset")
            records.append(SampleRecord(pid, cam, split, row[3]))
    return records


@dataclass
class LoadedDataset:
    """Manifest plus decoded images, ready for training and evaluation."""

    records: list
    images: np.ndarray  # (n, h, w, 3) uint8
    root: str

    def indices(self, split: str) -> np.ndarray:
        return np.array([i for i, r in enumerate(self.records) if r.split == split], dtype=np.int64)

    def train_label_map(self) -> dict:
        pids = sorted({r.person_id for r in self.records if r.split == "train"})
        return {pid: i for i, pid in enumerate(pids)}

    @property
    def image_size(self):
        return self.images.shape[1:3]

    def fingerprint(self) -> str:
        """Hash of the manifest rows and the image size."""
        rows = [(r.person_id, r.camera_id, r.split, r.image_path) for r in self.records]
        blob = repr((tuple(self.image_size), rows)).encode("utf-8")
        return hashlib.blake2b(blob, digest_size=16).hexdigest()


def load_dataset(root) -> LoadedDataset:
    records = load_manifest(os.path.join(root, "manifest.csv"))
    if not records:
        raise ValueError("empty manifest")
    images = np.stack([ppm.read_ppm(os.path.join(root, r.image_path)) for r in records])
    return LoadedDataset(records, images, root)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _axis_plan(extent: int, zoomed: int, flip: bool, trailing: tuple):
    """One axis of a bilinear resize from ``extent`` to ``zoomed`` samples
    followed by a center crop or zero pad back to ``extent``.

    Only the samples the center fit keeps are planned: their two source
    indices (read from the reversed axis with ``flip``) and the weights
    of each, spread over the ``trailing`` shape (size-1 axes broadcast),
    plus the output slice they fill. The arrays are shared between calls,
    so they are read-only.
    """
    src = (np.arange(zoomed) + 0.5) * extent / zoomed - 0.5
    lo = np.clip(np.floor(src), 0, extent - 1).astype(np.int64)
    hi = np.minimum(lo + 1, extent - 1)
    weight = np.clip(src - lo, 0.0, 1.0)
    kept = min(extent, zoomed)
    src_start = max(0, (zoomed - extent) // 2)  # center crop ...
    dst_start = max(0, (extent - zoomed) // 2)  # ... or zero pad
    keep = slice(src_start, src_start + kept)
    lo, hi, weight = lo[keep], hi[keep], np.repeat(weight[keep], math.prod(trailing)).reshape((kept,) + trailing)
    if flip:
        lo, hi = extent - 1 - lo, extent - 1 - hi
    taps = (lo, hi, 1 - weight, weight)
    for arr in taps:
        arr.flags.writeable = False
    return taps, slice(dst_start, dst_start + kept)


def augment(image: np.ndarray, cfg: AugmentationConfig, draw: np.random.Generator) -> np.ndarray:
    """Random horizontal flip, random zoom, random erasing.

    ``draw`` is the caller-owned RNG. Draw order: flip coin, zoom factor,
    erase coin, then (only if erasing) area, aspect, top, left. Output
    size always equals input size. The zoom is a bilinear resize by the
    factor followed by a center crop or zero pad back to the input size.
    """
    image = np.asarray(image)
    h, w = image.shape[:2]

    flip = bool(draw.uniform() < cfg.flip_prob)
    z = draw.uniform(cfg.zoom_range[0], cfg.zoom_range[1])
    zh, zw = max(1, int(round(h * z))), max(1, int(round(w * z)))
    (y0, y1, wy_c, wy), rows = _axis_plan(h, zh, False, (1,) * (image.ndim - 1))
    # Column weights spread over the channels: each pass below runs one
    # inner loop per output row, not one per pixel.
    (x0, x1, wx_c, wx), cols = _axis_plan(w, zw, flip, image.shape[2:])
    # Pixels are gathered in their own dtype; the float64 weights widen
    # them exactly, as converting the whole image first would.
    upper, lower = image.take(y0, axis=0), image.take(y1, axis=0)
    img = np.zeros(image.shape, dtype=np.float64)
    img[rows, cols] = (upper.take(x0, axis=1) * wx_c + upper.take(x1, axis=1) * wx) * wy_c + (
        lower.take(x0, axis=1) * wx_c + lower.take(x1, axis=1) * wx
    ) * wy

    if draw.uniform() < cfg.erase_prob:
        area = draw.uniform(cfg.erase_area[0], cfg.erase_area[1]) * h * w
        aspect = draw.uniform(cfg.erase_aspect[0], cfg.erase_aspect[1])
        eh = int(np.clip(round(np.sqrt(area * aspect)), 1, h))
        ew = int(np.clip(round(np.sqrt(area / aspect)), 1, w))
        top = int(draw.integers(0, h - eh + 1))
        left = int(draw.integers(0, w - ew + 1))
        img[top : top + eh, left : left + ew] = 0.0
    return img


# ---------------------------------------------------------------------------
# PK sampling
# ---------------------------------------------------------------------------


def pk_groups(manifest, spec: BatchSpec) -> dict:
    """Train image indices by identity; ValueError unless there are at
    least P identities with at least K images each."""
    groups = {}
    for i, r in enumerate(manifest):
        if r.split == "train":
            groups.setdefault(r.person_id, []).append(i)
    if len(groups) < spec.p:
        raise ValueError(f"need >= {spec.p} train ids, got {len(groups)}")
    for pid, idxs in groups.items():
        if len(idxs) < spec.k:
            raise ValueError(f"id {pid} has {len(idxs)} images, needs >= {spec.k}")
    return groups


def batches_per_epoch(manifest, spec: BatchSpec) -> int:
    return -(-len(pk_groups(manifest, spec)) // spec.p)


def epoch_batches(manifest, spec: BatchSpec, seed: int, epoch: int) -> list:
    """All PK batches of one epoch.

    Identities are shuffled and chunked into groups of P, so every train
    id appears at least once per epoch; a short final chunk is padded with
    ids sampled from the rest. Each id contributes K distinct images.
    """
    groups = pk_groups(manifest, spec)
    pids = sorted(groups)
    gen = rng_mod.generator(seed, "sample", epoch)
    perm = [pids[i] for i in gen.permutation(len(pids))]
    chunks = [perm[i : i + spec.p] for i in range(0, len(perm), spec.p)]
    short = spec.p - len(chunks[-1])
    if short:
        pool = [pid for pid in perm if pid not in chunks[-1]]
        extra = gen.choice(len(pool), size=short, replace=False)
        chunks[-1] = chunks[-1] + [pool[i] for i in sorted(extra)]

    batches = []
    for chunk in chunks:
        batch = []
        for pid in chunk:
            idxs = groups[pid]
            pick = gen.choice(len(idxs), size=spec.k, replace=False)
            batch.extend(idxs[i] for i in pick)
        batches.append(np.array(batch, dtype=np.int64))
    return batches
