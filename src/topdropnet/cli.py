"""Command-line surface: gendata, train, eval, activations, ablation.

Settings merge from an optional flat ``key = value`` config file and
command-line flags (flags win); unknown file keys are rejected and the
fully resolved configuration is echoed into the output directory, so any
run can be reproduced bitwise from its echo. No command writes outside
its --out directory, and each reads and checks its settings and inputs
before it creates that directory; only a training run can fail after.
"""

import argparse
import inspect
import os
import shutil
import sys
from dataclasses import dataclass

import numpy as np

from . import evaluation, network, ppm, synthdata, topdrop, trainer


@dataclass(frozen=True)
class Opt:
    key: str
    kind: str  # int | float | str | bool | ints | floats | strs
    default: object
    help: str
    required: bool = False
    field: str = None  # the TrainConfig field a training flag sets


_SCALARS = {"int": int, "float": float, "str": str}


def _parse_value(opt: Opt, text: str):
    kind = opt.kind
    if kind in _SCALARS:
        return _SCALARS[kind](text)
    if kind == "bool":
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"bad boolean {text!r}")
    if kind[:-1] in _SCALARS:  # a comma-separated list; empty items are skipped
        values = tuple(_SCALARS[kind[:-1]](v) for v in text.split(",") if v != "")
        if not values:
            raise ValueError(f"{opt.key} needs at least one value, got {text!r}")
        return values
    raise ValueError(f"unknown option kind {kind}")


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind in ("ints", "strs"):
        return ",".join(str(v) for v in value)
    if kind == "floats":
        return ",".join(repr(float(v)) for v in value)
    if kind == "float":
        return repr(float(value))
    return str(value)


def _read_config_file(path, schema):
    allowed = {opt.key for opt in schema}
    values, set_on = {}, {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = body.partition("=")
            key = key.strip()
            if key not in allowed:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in set_on:
                raise ValueError(f"{path}:{lineno}: {key!r} is already set on line {set_on[key]}")
            set_on[key] = lineno
            opt = next(o for o in schema if o.key == key)
            try:
                values[key] = _parse_value(opt, text.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def _resolve(schema, flags: dict, config_path) -> dict:
    """Each setting from its flag, else the config file, else its default."""
    file_values = _read_config_file(config_path, schema) if config_path else {}
    resolved = {}
    for opt in schema:
        value = flags.get(opt.key)
        resolved[opt.key] = value if value is not None else file_values.get(opt.key, opt.default)
        if opt.required and resolved[opt.key] is None:
            raise ValueError(f"missing required setting {opt.key!r}")
    return resolved


def _echo_config(out_dir, schema, resolved) -> None:
    lines = []
    for opt in sorted(schema, key=lambda o: o.key):
        value = resolved[opt.key]
        if value is None or opt.key == "force":
            continue
        lines.append(f"{opt.key} = {_format_value(opt.kind, value)}")
    with open(os.path.join(out_dir, "resolved.cfg"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _variant_internal(name: str) -> str:
    return name.replace("-", "_")


def _variant_public(name: str) -> str:
    return name.replace("_", "-")


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------

# Defaults come from the config classes and from generate_dataset's
# signature, so each is written once.
_TRAIN = trainer.TrainConfig()
_RERANK = evaluation.RerankParams()
_DROP = topdrop.DropConfig()
_GENDATA = {name: p.default for name, p in inspect.signature(synthdata.generate_dataset).parameters.items()}


def _train_opt(key: str, kind: str, field: str, help: str) -> Opt:
    return Opt(key, kind, getattr(_TRAIN, field), help, field=field)


_TRAIN_COMMON = [
    _train_opt("base-lr", "float", "base_lr", "plateau learning rate"),
    _train_opt("warmup-fraction", "float", "warmup_fraction", "fraction of epochs spent warming up"),
    _train_opt("milestones", "floats", "decay_milestones", "decay milestones as fractions"),
    _train_opt("decay-factor", "float", "decay_factor", "learning-rate decay per milestone"),
    Opt("batch-p", "int", _TRAIN.batch.p, "identities per batch"),
    Opt("batch-k", "int", _TRAIN.batch.k, "instances per identity"),
    _train_opt("margin", "float", "margin", "triplet margin"),
    _train_opt("epsilon", "float", "label_epsilon", "label smoothing"),
    _train_opt("height-ratio", "float", "height_ratio", "fraction of rows to drop"),
    _train_opt("power", "float", "activation_power", "activation-map exponent"),
    _train_opt("d-global", "int", "d_global", "global stream feature size"),
    _train_opt("d-drop", "int", "d_drop", "drop stream feature size"),
]

SCHEMAS = {
    "gendata": [
        Opt("out", "str", None, "dataset directory", required=True),
        Opt("ids", "int", _GENDATA["num_ids"], "number of identities"),
        Opt("cams", "int", _GENDATA["num_cams"], "number of cameras"),
        Opt("per", "int", _GENDATA["imgs_per_id_per_cam"], "images per (identity, camera)"),
        Opt("occlusion", "float", _GENDATA["occlusion_prob"], "per-image band occlusion probability"),
        Opt("height", "int", _GENDATA["size"][0], "image height"),
        Opt("width", "int", _GENDATA["size"][1], "image width"),
        Opt("seed", "int", _GENDATA["seed"], "generation seed"),
        Opt("force", "bool", False, "overwrite an existing dataset directory"),
    ],
    "train": [
        Opt("out", "str", None, "output directory", required=True),
        Opt("data", "str", None, "dataset directory", required=True),
        Opt("variant", "str", _variant_public(_TRAIN.variant), " | ".join(map(_variant_public, network.VARIANTS))),
        Opt("epochs", "int", _TRAIN.total_epochs, "total epochs"),
        Opt("seed", "int", _TRAIN.seed, "master seed"),
        Opt("seeds", "ints", None, "run the repeat protocol over these seeds"),
    ]
    + _TRAIN_COMMON,
    "eval": [
        Opt("out", "str", None, "output directory", required=True),
        Opt("data", "str", None, "dataset directory", required=True),
        Opt("checkpoint", "str", None, "trained checkpoint", required=True),
        Opt("rerank", "bool", False, "also report k-reciprocal re-ranked metrics"),
        Opt("k1", "int", _RERANK.k1, "re-ranking neighborhood"),
        Opt("k2", "int", _RERANK.k2, "local expansion neighborhood"),
        Opt("lambda", "float", _RERANK.lam, "blend toward the original distance"),
        Opt("max-rank", "int", evaluation.MAX_RANK, "CMC curve length"),
        Opt("save-embeddings", "bool", False, "write query/gallery embedding CSVs"),
    ],
    "activations": [
        Opt("out", "str", None, "output directory", required=True),
        Opt("checkpoint", "str", None, "trained checkpoint", required=True),
        Opt("images", "strs", None, "input PPM images", required=True),
        Opt("tau", "float", 0.5, "threshold as a fraction of the activation max"),
        Opt("alpha", "float", 0.5, "overlay blend weight"),
        Opt("power", "float", _DROP.p, "activation-map exponent"),
        Opt("height-ratio", "float", _DROP.height_ratio, "fraction of rows to drop"),
        Opt("show-dropmask", "bool", False, "also render the drop mask"),
    ],
    "ablation": [
        Opt("out", "str", None, "output directory", required=True),
        Opt("data", "str", None, "dataset directory", required=True),
        Opt("seeds", "ints", (1, 2, 3, 4, 5), "paired seeds for every variant"),
        Opt("epochs", "int", _TRAIN.total_epochs, "total epochs per run"),
    ]
    + _TRAIN_COMMON,
}


def _train_config(cfg: dict, variant: str, seed: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        total_epochs=cfg["epochs"],
        batch=synthdata.BatchSpec(cfg["batch-p"], cfg["batch-k"]),
        variant=variant,
        seed=seed,
        **{opt.field: cfg[opt.key] for opt in _TRAIN_COMMON if opt.field},
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gendata(cfg: dict) -> None:
    out = cfg["out"]
    settings = dict(num_ids=cfg["ids"], num_cams=cfg["cams"], imgs_per_id_per_cam=cfg["per"],
                    occlusion_prob=cfg["occlusion"], size=(cfg["height"], cfg["width"]))
    synthdata.check_generation(**settings)
    if os.path.exists(out) and not (os.path.isdir(out) and not os.listdir(out)):
        if not cfg["force"]:
            raise FileExistsError(f"{out} exists and is not empty; pass --force to overwrite")
        if not os.path.isfile(os.path.join(out, "manifest.csv")):
            raise ValueError(f"{out} holds no manifest.csv; --force replaces only a dataset directory")
        shutil.rmtree(out)
    os.makedirs(out, exist_ok=True)
    _echo_config(out, SCHEMAS["gendata"], cfg)
    records = synthdata.generate_dataset(out, **settings, seed=cfg["seed"])
    print(f"wrote {len(records)} images under {out}")


def _fitting_dataset(root, configs):
    """The dataset at ``root``, once no two training configs are the same
    run and every one can build its model for it."""
    for i, train_cfg in enumerate(configs):
        if train_cfg in configs[:i]:  # a repeated seed
            raise ValueError(f"seeds must be distinct, {train_cfg.seed} is given twice")
    dataset = synthdata.load_dataset(root)
    for train_cfg in configs:
        trainer.model_config(train_cfg, dataset)
    return dataset


def _run_training(train_cfg: trainer.TrainConfig, dataset, run_dir: str):
    os.makedirs(run_dir, exist_ok=True)
    result = trainer.fit(train_cfg, dataset)
    trainer.save_checkpoint(os.path.join(run_dir, "checkpoint.ckpt"), result)
    trainer.write_history(os.path.join(run_dir, "history.csv"), result.history)
    return result


def cmd_train(cfg: dict) -> None:
    variant = _variant_internal(cfg["variant"])
    seeds = cfg["seeds"]
    configs = [_train_config(cfg, variant, seed) for seed in ((cfg["seed"],) if seeds is None else seeds)]
    dataset = _fitting_dataset(cfg["data"], configs)
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    _echo_config(out, SCHEMAS["train"], cfg)
    if seeds is None:
        result = _run_training(configs[0], dataset, out)
        print(f"trained {variant} for {len(result.history)} epochs; final loss {result.history[-1]['loss_total']:.4f}")
        return
    finals = []
    for train_cfg in configs:
        result = _run_training(train_cfg, dataset, os.path.join(out, f"seed{train_cfg.seed}"))
        finals.append(result.history[-1])
        print(f"seed {train_cfg.seed}: final loss {result.history[-1]['loss_total']:.4f}")
    rows = []
    for key in network.LOSS_KEYS:
        values = [row[key] for row in finals if row[key] is not None]
        if values:
            rows.append([key, np.mean(values), np.std(values)])
    evaluation.write_csv(os.path.join(out, "summary.csv"), ["metric", "mean", "std"], rows)


def _rerank_params(cfg: dict, n_gallery: int) -> evaluation.RerankParams:
    # Keep k1 sensible on small galleries; RerankParams rejects k1 or k2 < 1.
    k1 = min(cfg["k1"], max(1, n_gallery // 2))
    return evaluation.RerankParams(k1=k1, k2=min(cfg["k2"], k1), lam=cfg["lambda"])


def _print_result(tag: str, result: evaluation.EvalResult) -> None:
    parts = [f"mAP {result.mAP:.4f}"]
    for rank in (1, 5, 10):
        if rank <= result.cmc.size:
            parts.append(f"rank-{rank} {result.cmc[rank - 1]:.4f}")
    print(f"{tag}: " + "  ".join(parts))


def cmd_eval(cfg: dict) -> None:
    dataset = synthdata.load_dataset(cfg["data"])
    params = _rerank_params(cfg, dataset.indices("gallery").size)
    model = trainer.model_from_checkpoint(cfg["checkpoint"])
    query = evaluation.embed_split(model, dataset, "query")
    gallery = evaluation.embed_split(model, dataset, "gallery")
    raw, reranked = evaluation.evaluate_run(query, gallery, params if cfg["rerank"] else None, cfg["max-rank"])
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    _echo_config(out, SCHEMAS["eval"], cfg)
    evaluation.save_results(os.path.join(out, "metrics_raw.csv"), raw)
    _print_result("raw", raw)
    if reranked is not None:
        evaluation.save_results(os.path.join(out, "metrics_rerank.csv"), reranked)
        _print_result("reranked", reranked)
    if cfg["save-embeddings"]:
        evaluation.save_embeddings(os.path.join(out, "embeddings_query.csv"), query)
        evaluation.save_embeddings(os.path.join(out, "embeddings_gallery.csv"), gallery)


def _upscale_nearest(arr: np.ndarray, h: int, w: int) -> np.ndarray:
    rows = (np.arange(h) * arr.shape[0]) // h
    cols = (np.arange(w) * arr.shape[1]) // w
    return arr[rows][:, cols]


def _to_gray(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi <= lo:
        return np.zeros(values.shape, dtype=np.uint8)
    return np.rint((values - lo) / (hi - lo) * 255.0).astype(np.uint8)


def cmd_activations(cfg: dict) -> None:
    drop_cfg = topdrop.DropConfig(cfg["height-ratio"], cfg["power"])
    for key in ("tau", "alpha"):
        if not 0.0 <= cfg[key] <= 1.0:  # also fails on NaN
            raise ValueError(f"{key} must be in [0, 1], got {cfg[key]}")
    model = trainer.model_from_checkpoint(cfg["checkpoint"]).eval()
    maps = []
    for path in cfg["images"]:
        img = ppm.read_ppm(path)
        features = model.backbone_forward(network.normalize_images(img[None], model.dtype)).data[0]
        act = topdrop.activation_map(features, drop_cfg.p)
        dropped = topdrop.top_drop_mask(topdrop.stripe_relevance(act), drop_cfg) if cfg["show-dropmask"] else None
        maps.append((path, img, act, dropped))
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    _echo_config(out, SCHEMAS["activations"], cfg)

    for path, img, act, dropped in maps:
        h, w = img.shape[:2]
        base = os.path.splitext(os.path.basename(path))[0]

        act_up = _upscale_nearest(act, h, w)
        ppm.write_pgm(os.path.join(out, f"{base}_activation.pgm"), _to_gray(act_up))

        peak = act_up.max()
        threshold = (act_up >= cfg["tau"] * peak) if peak > 0 else np.zeros_like(act_up, dtype=bool)
        ppm.write_pgm(os.path.join(out, f"{base}_threshold.pgm"), threshold.astype(np.uint8) * 255)

        alpha = cfg["alpha"]
        overlay = (1.0 - alpha) * img.astype(np.float64)
        overlay[:, :, 0] += alpha * _to_gray(act_up)
        ppm.write_ppm(os.path.join(out, f"{base}_overlay.ppm"), np.clip(np.rint(overlay), 0, 255).astype(np.uint8))

        if dropped is not None:
            keep = _upscale_nearest(np.broadcast_to(~dropped[:, None], act.shape), h, w)
            ppm.write_pgm(os.path.join(out, f"{base}_dropmask.pgm"), keep.astype(np.uint8) * 255)
    print(f"wrote activation exports for {len(cfg['images'])} images under {out}")


def cmd_ablation(cfg: dict) -> None:
    configs = {variant: [_train_config(cfg, variant, seed) for seed in cfg["seeds"]] for variant in network.VARIANTS}
    dataset = _fitting_dataset(cfg["data"], [c for run in configs.values() for c in run])
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    _echo_config(out, SCHEMAS["ablation"], cfg)

    rows = []
    for variant, train_cfgs in configs.items():
        maps, rank1s = [], []
        for train_cfg in train_cfgs:
            run_dir = os.path.join(out, _variant_public(variant), f"seed{train_cfg.seed}")
            result = _run_training(train_cfg, dataset, run_dir)
            query = evaluation.embed_split(result.model, dataset, "query")
            gallery = evaluation.embed_split(result.model, dataset, "gallery")
            raw, _ = evaluation.evaluate_run(query, gallery)
            evaluation.save_results(os.path.join(run_dir, "metrics.csv"), raw)
            maps.append(raw.mAP)
            rank1s.append(float(raw.cmc[0]))
            print(f"{_variant_public(variant)} seed {train_cfg.seed}: mAP {raw.mAP:.4f} rank-1 {raw.cmc[0]:.4f}")
        rows.append([_variant_public(variant), np.mean(maps), np.std(maps), np.mean(rank1s), np.std(rank1s)])
    header = ["variant", "map_mean", "map_std", "rank1_mean", "rank1_std"]
    evaluation.write_csv(os.path.join(out, "ablation.csv"), header, rows)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "gendata": cmd_gendata,
    "train": cmd_train,
    "eval": cmd_eval,
    "activations": cmd_activations,
    "ablation": cmd_ablation,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="topdropnet")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        sub = subs.add_parser(command)
        sub.add_argument("--config", default=None, help="flat key = value settings file")
        for opt in schema:
            flag = f"--{opt.key}"
            if opt.kind == "bool":
                sub.add_argument(flag, action=argparse.BooleanOptionalAction, default=None, help=opt.help)
            else:
                sub.add_argument(flag, default=None, help=opt.help)
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    schema = SCHEMAS[args["command"]]
    try:
        flags = {}
        for opt in schema:
            value = args[opt.key.replace("-", "_")]
            if value is not None and opt.kind != "bool":
                try:
                    value = _parse_value(opt, value)
                except ValueError as exc:
                    raise ValueError(f"--{opt.key}: {exc}") from None
            flags[opt.key] = value
        cfg = _resolve(schema, flags, args["config"])
        _COMMANDS[args["command"]](cfg)
        return 0
    except Exception as exc:  # surface a clean message, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
