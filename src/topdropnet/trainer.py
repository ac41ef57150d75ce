"""Training loop: Adam, linear warmup with step decay, checkpoints.

The schedule stores its warmup length and decay milestones as fractions
of the total epoch count, so a 40-epoch desk run keeps the shape of the
reference 400-epoch routine (warmup over the first eighth, decays at one
half and three quarters).

Every random stream (batch sampling, augmentation, drop masks) is derived
from (master seed, stream name, epoch), which makes checkpoint resume
bitwise identical to an uninterrupted run and keeps augmentation draws
identical across model variants for paired comparisons.
"""

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import evaluation, network, synthdata, tensorcore as tc, topdrop
from . import rng as rng_mod


@dataclass(frozen=True)
class TrainConfig:
    total_epochs: int = 40
    base_lr: float = 1e-3
    warmup_fraction: float = 0.125
    decay_milestones: tuple = (0.5, 0.75)
    decay_factor: float = 0.1
    batch: synthdata.BatchSpec = field(default_factory=synthdata.BatchSpec)
    variant: str = network.ModelConfig.variant
    margin: float = 0.3
    label_epsilon: float = 0.1
    height_ratio: float = topdrop.DropConfig.height_ratio
    activation_power: float = topdrop.DropConfig.p
    d_global: int = network.ModelConfig.d_global
    d_drop: int = network.ModelConfig.d_drop
    seed: int = 1
    dtype: str = network.MODEL_DTYPE

    def __post_init__(self):
        # The settings copied from the model and drop configs are checked by them.
        model = network.ModelConfig(self.variant, self.d_global, self.d_drop, dtype=self.dtype)
        topdrop.DropConfig(self.height_ratio, self.activation_power)
        object.__setattr__(self, "dtype", model.dtype)
        # Each bound also fails on NaN.
        if not 0.0 < self.base_lr < math.inf:
            raise ValueError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if not 0.0 <= self.margin < math.inf:
            raise ValueError(f"margin must be finite and >= 0, got {self.margin}")
        if not 0.0 <= self.label_epsilon < 1.0:
            raise ValueError(f"label_epsilon must be in [0, 1), got {self.label_epsilon}")
        ms = self.decay_milestones
        if not all(math.isfinite(f) for f in (self.warmup_fraction, *ms)):
            raise ValueError("warmup and milestone fractions must be finite")
        if not 0.0 < self.warmup_fraction < min(ms):
            raise ValueError("warmup must end before the first milestone")
        if any(b <= a for a, b in zip(ms, ms[1:])) or max(ms) >= 1.0:
            raise ValueError("milestones must be strictly increasing and < 1")
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")
        if not -(2**63) <= self.seed < 2**63:  # checkpoints store it as int64
            raise ValueError(f"seed must be in [-2**63, 2**63), got {self.seed}")


def config_hash(cfg: TrainConfig, dataset_fingerprint: str) -> str:
    """Hash of every training setting and of the dataset trained on."""
    blob = repr((dataclasses.asdict(cfg), dataset_fingerprint)).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Learning rate at the start of an epoch.

    Linear warmup from base_lr / 10 up to base_lr over the warmup epochs
    (the end value equals the plateau exactly), then multiplication by the
    decay factor at each milestone epoch.
    """
    if not 0 <= epoch < cfg.total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {cfg.total_epochs})")
    warmup = topdrop.round_half_up(cfg.total_epochs * cfg.warmup_fraction)
    if warmup > 0 and epoch < warmup:
        start = cfg.base_lr / 10.0
        return start + (cfg.base_lr - start) * epoch / warmup
    passed = sum(
        1 for m in cfg.decay_milestones if epoch >= topdrop.round_half_up(cfg.total_epochs * m)
    )
    return cfg.base_lr * cfg.decay_factor**passed


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# Moment decay rates and denominator offset, the defaults of Kingma & Ba.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(named_params, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, mutating parameters in place.

    ``named_params`` is an iterable of (name, Tensor) whose gradients are
    populated; moment buffers are keyed by name.
    """
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for name, p in named_params:
        g = p.grad
        if g is None:
            raise ValueError(f"parameter {name!r} has no gradient")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for {name!r}")
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Epoch and fit
# ---------------------------------------------------------------------------

HISTORY_COLUMNS = ("epoch", "lr") + network.LOSS_KEYS


def model_config(cfg: TrainConfig, dataset: synthdata.LoadedDataset) -> tuple:
    """The class count and model config that ``cfg`` trains on ``dataset``;
    ValueError when ``cfg`` cannot train on ``dataset``: too few identities
    or images for its batches, or a drop mask that does not fit the
    feature map."""
    num_classes = len(dataset.train_label_map())
    if num_classes < 2:
        raise ValueError("training needs at least two identities")
    synthdata.pk_groups(dataset.records, cfg.batch)
    backbone = network.BackboneConfig(input_size=tuple(dataset.image_size))
    rows = topdrop.MASK_ROWS.get(network.VARIANTS[cfg.variant].mask)
    if rows is not None:
        rows(backbone.feature_height(), cfg.height_ratio)
    return num_classes, network.ModelConfig(
        variant=cfg.variant, d_global=cfg.d_global, d_drop=cfg.d_drop, backbone=backbone, dtype=cfg.dtype
    )


def build_model(cfg: TrainConfig, dataset: synthdata.LoadedDataset) -> network.ReidModel:
    num_classes, model_cfg = model_config(cfg, dataset)
    return network.ReidModel(num_classes, model_cfg, seed=cfg.seed)


def train_epoch(model, dataset, cfg: TrainConfig, state: AdamState, epoch: int) -> dict:
    """One pass over the PK batches of an epoch; returns mean losses."""
    model.train()
    lr = lr_at(epoch, cfg)
    label_map = dataset.train_label_map()
    aug_cfg = synthdata.AugmentationConfig()
    aug_gen = rng_mod.generator(cfg.seed, "augment", epoch)
    mask_gen = rng_mod.generator(cfg.seed, "mask", epoch)
    mask_fn = {
        "top": lambda f: topdrop.masks_from_features(
            f.data, topdrop.DropConfig(cfg.height_ratio, cfg.activation_power)
        ),
        "random": lambda f: topdrop.batch_drop_mask(f.shape[0], f.shape[2], cfg.height_ratio, mask_gen),
        "none": None,
    }[network.VARIANTS[cfg.variant].mask]

    sums = {}
    batches = synthdata.epoch_batches(dataset.records, cfg.batch, cfg.seed, epoch)
    for batch_no, batch in enumerate(batches):
        augmented = np.stack([synthdata.augment(img, aug_cfg, aug_gen) for img in dataset.images[batch]])
        x = network.normalize_images(augmented, model.dtype)
        labels = np.array([label_map[dataset.records[i].person_id] for i in batch])

        with tc.Tape() as tape:
            outputs = model.forward_train(x, mask_fn)
            loss, metrics = network.total_loss(outputs, labels, cfg.margin, cfg.label_epsilon)
            if not np.isfinite(loss.item()):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}: {metrics}"
                )
            tc.backward(loss, tape)

        trained = [(n, p) for n, p in model.named_parameters() if p.grad is not None]
        adam_step(trained, state, lr)
        model.zero_grad()
        for key, value in metrics.items():
            sums[key] = sums.get(key, 0.0) + value

    out = {"epoch": epoch, "lr": lr}
    for key in network.LOSS_KEYS:
        out[key] = sums[key] / len(batches) if key in sums else None
    return out


@dataclass
class FitResult:
    model: network.ReidModel
    history: list
    adam: AdamState
    next_epoch: int
    config: TrainConfig
    dataset_fingerprint: str = ""  # of the dataset fitted to, for config_hash


def fit(cfg: TrainConfig, dataset: synthdata.LoadedDataset, resume=None, stop_after=None) -> FitResult:
    """Run the full schedule (or resume one from a checkpoint).

    ``stop_after`` ends training early after that many total epochs, which
    is how callers produce a mid-run checkpoint; it may not lie before the
    epoch the run starts at.
    """
    state = AdamState()
    start_epoch = 0
    fingerprint = dataset.fingerprint()
    model = build_model(cfg, dataset)
    if resume is not None:
        arrays, meta = load_checkpoint(resume)
        if meta["config_hash"] != config_hash(cfg, fingerprint):
            raise ValueError("checkpoint was written by a different configuration or for a different dataset")
        model.load_state_arrays(arrays)
        _load_adam(arrays, state, model)
        state.t = meta["adam_t"]
        start_epoch = meta["epoch"]

    end = cfg.total_epochs if stop_after is None else min(stop_after, cfg.total_epochs)
    if end < start_epoch:
        raise ValueError(f"stop_after {stop_after} is before the start epoch {start_epoch}")
    history = []
    for epoch in range(start_epoch, end):
        history.append(train_epoch(model, dataset, cfg, state, epoch))
    return FitResult(model, history, state, end, cfg, fingerprint)


# ---------------------------------------------------------------------------
# Checkpoints and history files
# ---------------------------------------------------------------------------


def save_checkpoint(path, result: FitResult) -> None:
    model, state, cfg = result.model, result.adam, result.config
    arrays = dict(model.state_arrays())
    for name, _ in model.named_parameters():
        if name in state.m:
            arrays[f"adam.m.{name}"] = state.m[name]
            arrays[f"adam.v.{name}"] = state.v[name]
    arrays["meta.epoch"] = np.array([result.next_epoch], dtype=np.int64)
    arrays["meta.adam_t"] = np.array([state.t], dtype=np.int64)
    arrays["meta.seed"] = np.array([cfg.seed], dtype=np.int64)
    arrays["meta.config_hash"] = np.frombuffer(config_hash(cfg, result.dataset_fingerprint).encode(), dtype=np.uint8)
    arrays["meta.model_json"] = np.frombuffer(json.dumps(model.description(), sort_keys=True).encode(), dtype=np.uint8)
    tc.save_arrays(path, arrays)


def _meta(arrays, key: str) -> np.ndarray:
    value = arrays.get(f"meta.{key}")
    if value is None or value.size == 0 or value.dtype.kind not in "iu":
        raise ValueError(f"checkpoint meta.{key} is missing or malformed")
    return value


def _model_json(arrays) -> tuple:
    """(num_classes, ModelConfig) of the stored :meth:`network.ReidModel.description`."""
    try:
        desc = json.loads(_meta(arrays, "model_json").tobytes().decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise ValueError(f"checkpoint meta.model_json is not valid JSON: {exc}") from None
    try:
        return network.from_description(desc)
    except ValueError as exc:
        raise ValueError(f"checkpoint meta.model_json does not describe a model: {exc}") from None


def load_checkpoint(path):
    """Arrays and metadata of a checkpoint, its model description read as
    (num_classes, ModelConfig); a malformed file, or a negative running
    variance, raises ValueError."""
    arrays = tc.load_arrays(path)
    for key, arr in arrays.items():
        if key.startswith("buffer.") and key.endswith(".running_var") and (arr < 0).any():
            raise ValueError(f"{key} holds a negative variance")
    meta = {
        "epoch": int(_meta(arrays, "epoch")[0]),
        "adam_t": int(_meta(arrays, "adam_t")[0]),
        "seed": int(_meta(arrays, "seed")[0]),
        "config_hash": _meta(arrays, "config_hash").tobytes().decode(),
        "model": _model_json(arrays),
    }
    return arrays, meta


def _load_adam(arrays, state: AdamState, model) -> None:
    for name, p in model.named_parameters():
        if f"adam.m.{name}" in arrays:
            state.m[name] = tc.stored_like(arrays, f"adam.m.{name}", p.data)
            state.v[name] = tc.stored_like(arrays, f"adam.v.{name}", p.data)


def model_from_checkpoint(path) -> network.ReidModel:
    """Rebuild a model purely from a checkpoint's stored configuration, in
    the dtype of its stored parameters, once their shapes match the description."""
    arrays, meta = load_checkpoint(path)
    num_classes, model_cfg = meta["model"]
    dtypes = {arr.dtype.name for key, arr in arrays.items() if key.startswith("param.")}
    if len(dtypes) != 1:
        raise ValueError(f"checkpoint parameters must share one dtype, got {sorted(dtypes)}")
    for name, shape in network.parameter_shapes(num_classes, model_cfg).items():
        if (stored := getattr(arrays.get(f"param.{name}"), "shape", "missing")) != shape:
            raise ValueError(f"param.{name} is {stored}, the model description implies {shape}")
    model = network.ReidModel(num_classes, dataclasses.replace(model_cfg, dtype=dtypes.pop()), seed=meta["seed"])
    model.load_state_arrays(arrays)
    return model


def write_history(path, history) -> None:
    evaluation.write_csv(path, HISTORY_COLUMNS, ([row.get(col) for col in HISTORY_COLUMNS] for row in history))
