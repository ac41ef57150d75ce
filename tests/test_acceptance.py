"""Acceptance suite.

Each test prints one PASS line for its criterion; thresholds are frozen
regression bounds (the retrieval bounds were validated once against the
first correct end-to-end run and must not be recalibrated).
"""

import time

import numpy as np
import pytest

from topdropnet import cli, evaluation, network, ppm, synthdata, tensorcore as tc, topdrop, trainer

import gradcheck
from oracles import (
    activation_map_loops,
    ap_cmc_loops,
    rerank_transcription,
    row_means_loops,
    top_rows_sorted,
)

E2E_SEEDS = (1, 2, 3, 4, 5)
E2E_EPOCHS = 40
E2E_RANK1_BOUND = 0.90
E2E_MAP_BOUND = 0.75
ABLATION_EPOCHS = 40
ABLATION_TIE_TOLERANCE = 0.005  # 0.5 mAP points


def _criterion(name, detail):
    print(f"\n[PASS] {name}: {detail}")


# ---------------------------------------------------------------------------
# Shared trained artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_ds")
    synthdata.generate_dataset(root, num_ids=32, num_cams=4, imgs_per_id_per_cam=4, seed=1)
    return root


@pytest.fixture(scope="module")
def toy_runs(toy_dataset_dir):
    """Full-variant training runs for every acceptance seed."""
    dataset = synthdata.load_dataset(toy_dataset_dir)
    runs = {}
    for seed in E2E_SEEDS:
        start = time.time()
        result = trainer.fit(trainer.TrainConfig(total_epochs=E2E_EPOCHS, seed=seed), dataset)
        elapsed = time.time() - start
        query = evaluation.embed_split(result.model, dataset, "query")
        gallery = evaluation.embed_split(result.model, dataset, "gallery")
        raw, _ = evaluation.evaluate_run(query, gallery)
        runs[seed] = {"result": result, "raw": raw, "seconds": elapsed}
    return dataset, runs


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_gradient_suite():
    """Every differentiable op and the full three-stream loss vs central
    finite differences at rel error < 1e-4; >= 100 randomized instances;
    under two minutes."""
    start = time.time()
    instances = 0
    failures = []
    for seed in range(100):
        results = gradcheck.op_checks(seed)
        instances += len(results)
        failures.extend(name for name, ok in results.items() if not ok)
    full_loss_params = 0
    for seed in (1, 2, 3):
        checked, _, bad = gradcheck.full_loss_grad_check(seed)
        full_loss_params += checked
        failures.extend(f"full-loss:{b[0]}" for b in bad)
    elapsed = time.time() - start
    assert instances >= 100
    assert not failures, failures[:5]
    assert elapsed < 120.0
    _criterion(
        "gradient suite",
        f"{instances} op instances + {full_loss_params} full-loss params in {elapsed:.1f}s",
    )


def test_mechanism_oracles():
    """activation_map / stripe_relevance / top_drop_mask vs naive oracles
    (1000 random instances, exact); positive-scale invariance; dropped-row
    relevance exactly zero after masking."""
    rng = np.random.default_rng(2024)
    cfg = topdrop.DropConfig(height_ratio=0.3, p=2.0)
    for _ in range(1000):
        c = int(rng.integers(1, 5))
        h = int(rng.integers(2, 10))
        w = int(rng.integers(1, 7))
        f = rng.normal(size=(c, h, w)) * rng.uniform(0.1, 3.0)
        act = topdrop.activation_map(f, 2.0)
        assert np.max(np.abs(act - activation_map_loops(f, 2.0))) < 1e-12
        rel = topdrop.stripe_relevance(act)
        assert np.max(np.abs(rel - row_means_loops(act))) < 1e-12
        ndrop = topdrop.num_drop_rows(h, cfg.height_ratio)  # < h, or it raises
        mask = topdrop.top_drop_mask(rel, cfg)
        assert set(np.flatnonzero(mask)) == top_rows_sorted(rel, ndrop)

    f = rng.normal(size=(4, 8, 5))
    base = topdrop.top_drop_mask(topdrop.stripe_relevance(topdrop.activation_map(f, 2.0)), cfg)
    for scale in (1e-3, 1.0, 1e3):
        scaled = topdrop.top_drop_mask(topdrop.stripe_relevance(topdrop.activation_map(scale * f, 2.0)), cfg)
        assert np.array_equal(scaled, base)

    g = tc.astensor(rng.normal(size=(4, 3, 8, 5)))
    masks = topdrop.masks_from_features(g.data, cfg)
    masked = topdrop.apply_mask(g, masks)
    for i, mask in enumerate(masks):
        rel = topdrop.stripe_relevance(topdrop.activation_map(masked.data[i], 2.0))
        assert all(rel[row] == 0.0 for row in np.flatnonzero(mask))
    _criterion("mechanism oracles", "1000 instances exact; scale-invariant; masked rows at 0")


def test_metric_oracles():
    """AP/CMC vs exhaustive oracle (1000 instances, 1e-12); rerank lambda=1
    preserves raw ordering; rerank matches the transcription oracle at 1e-8."""
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(1000):
        n_q = int(rng.integers(1, 5))
        n_g = int(rng.integers(3, 10))
        ids_q = rng.integers(0, 4, n_q)
        ids_g = rng.integers(0, 4, n_g)
        cams_q = rng.integers(0, 3, n_q)
        cams_g = rng.integers(0, 3, n_g)
        # Guarantee query 0 a cross-camera positive so the instance counts.
        ids_g[0] = ids_q[0]
        cams_g[0] = (cams_q[0] + 1) % 3
        dist = rng.uniform(size=(n_q, n_g))
        expected = [ap_cmc_loops(dist[i], ids_q[i], cams_q[i], ids_g, cams_g, n_g) for i in range(n_q)]
        valid = [e for e in expected if e is not None]
        res = evaluation.evaluate(dist, ids_q, cams_q, ids_g, cams_g, n_g)
        assert res.num_valid_queries == len(valid)
        assert abs(res.mAP - np.mean([ap for ap, _ in valid])) < 1e-12
        np.testing.assert_allclose(res.cmc, np.mean([c for _, c in valid], axis=0), atol=1e-12)
        checked += 1
    assert checked == 1000

    q = rng.normal(size=(3, 4))
    g = rng.normal(size=(8, 4))
    identity = evaluation.rerank(q, g, evaluation.RerankParams(k1=4, k2=2, lam=1.0))
    np.testing.assert_array_equal(identity, evaluation.pairwise_euclidean(q, g))
    blended = evaluation.rerank(q, g, evaluation.RerankParams(k1=4, k2=2, lam=0.3))
    oracle = rerank_transcription(q, g, k1=4, k2=2, lam=0.3)
    assert np.max(np.abs(blended - oracle)) < 1e-8
    _criterion("metric oracles", f"{checked} AP/CMC instances exact; rerank endpoints verified")


def test_schedule():
    """lr_at reproduces the 1e-3 -> 1e-4 -> 1e-5 structure at the
    50/200/300/400 fractions, scaling to 40-epoch runs."""
    cfg400 = trainer.TrainConfig(total_epochs=400)
    assert trainer.lr_at(0, cfg400) == pytest.approx(1e-4)
    assert trainer.lr_at(50, cfg400) == 1e-3
    assert trainer.lr_at(199, cfg400) == 1e-3
    assert trainer.lr_at(200, cfg400) == pytest.approx(1e-4)
    assert trainer.lr_at(299, cfg400) == pytest.approx(1e-4)
    assert trainer.lr_at(300, cfg400) == pytest.approx(1e-5)
    assert trainer.lr_at(399, cfg400) == pytest.approx(1e-5)
    cfg40 = trainer.TrainConfig(total_epochs=40)
    assert trainer.lr_at(0, cfg40) == pytest.approx(1e-4)
    assert trainer.lr_at(5, cfg40) == 1e-3
    assert trainer.lr_at(20, cfg40) == pytest.approx(1e-4)
    assert trainer.lr_at(30, cfg40) == pytest.approx(1e-5)
    _criterion("schedule", "400-epoch milestones exact; 40-epoch scaling exact")


def test_end_to_end_toy_training(toy_runs):
    """Full variant reaches rank-1 >= 0.90 and mAP >= 0.75 for every seed
    in {1..5} at 40 epochs, under 10 minutes per run."""
    _, runs = toy_runs
    lines = []
    for seed, run in runs.items():
        raw = run["raw"]
        lines.append(f"seed {seed}: mAP {raw.mAP:.4f} rank-1 {raw.cmc[0]:.4f} ({run['seconds']:.0f}s)")
        assert run["seconds"] < 600.0
        assert raw.cmc[0] >= E2E_RANK1_BOUND, f"seed {seed} rank-1 {raw.cmc[0]:.4f}"
        assert raw.mAP >= E2E_MAP_BOUND, f"seed {seed} mAP {raw.mAP:.4f}"
    _criterion("end-to-end toy training", "; ".join(lines))


def test_directional_ablation(tmp_path_factory):
    """On the occlusion-heavy dataset, 5-seed mean mAP: full >= every
    other variant (ties within 0.5 mAP points tolerated) and full strictly
    wins at least 2 of 3; runtime < 2.5 h."""
    start = time.time()
    root = tmp_path_factory.mktemp("accept_occl")
    synthdata.generate_dataset(
        root, num_ids=32, num_cams=4, imgs_per_id_per_cam=4, occlusion_prob=0.5, seed=1
    )
    dataset = synthdata.load_dataset(root)
    means = {}
    for variant in network.VARIANTS:
        maps = []
        for seed in E2E_SEEDS:
            cfg = trainer.TrainConfig(total_epochs=ABLATION_EPOCHS, seed=seed, variant=variant)
            result = trainer.fit(cfg, dataset)
            query = evaluation.embed_split(result.model, dataset, "query")
            gallery = evaluation.embed_split(result.model, dataset, "gallery")
            raw, _ = evaluation.evaluate_run(query, gallery)
            maps.append(raw.mAP)
        means[variant] = float(np.mean(maps))
    elapsed = time.time() - start
    assert elapsed < 2.5 * 3600

    full = means["full"]
    others = ("no_drop", "no_reg", "baseline_bdb")
    strict_wins = sum(full > means[v] for v in others)
    detail = ", ".join(f"{v} {means[v]:.4f}" for v in means)
    for v in others:
        assert full >= means[v] - ABLATION_TIE_TOLERANCE, f"full {full:.4f} vs {v} {means[v]:.4f}"
    assert strict_wins >= 2, f"full strictly wins only {strict_wins} of 3 ({detail})"
    _criterion("directional ablation", f"{detail}; strict wins {strict_wins}/3; {elapsed/60:.1f} min")


def test_visualization_contract(toy_runs, tmp_path_factory):
    """Exported drop masks coincide with the rows of maximal stripe
    relevance, verified programmatically against the sort oracle."""
    dataset, runs = toy_runs
    result = runs[1]["result"]
    out = tmp_path_factory.mktemp("accept_act")
    ckpt = out / "model.ckpt"
    trainer.save_checkpoint(ckpt, result)

    query_idx = dataset.indices("query")[:4]
    image_paths = [str(out / f"probe{i}.ppm") for i in range(len(query_idx))]
    for path, idx in zip(image_paths, query_idx):
        ppm.write_ppm(path, dataset.images[idx])
    code = cli.main(
        ["activations", "--checkpoint", str(ckpt), "--out", str(out / "maps"), "--show-dropmask"]
        + ["--images", ",".join(image_paths)]
    )
    assert code == 0

    model = trainer.model_from_checkpoint(ckpt).eval()
    for path in image_paths:
        img = ppm.read_ppm(path)
        feats = model.backbone_forward(network.normalize_images(img[None])).data[0]
        relevance = topdrop.stripe_relevance(topdrop.activation_map(feats, 2.0))
        ndrop = topdrop.num_drop_rows(feats.shape[1], 0.3)
        expected_rows = top_rows_sorted(relevance, ndrop)

        base = path.split("/")[-1].replace(".ppm", "")
        exported = ppm.read_pgm(out / "maps" / f"{base}_dropmask.pgm")
        scale = img.shape[0] // feats.shape[1]
        black = np.flatnonzero(np.all(exported == 0, axis=1))
        got_rows = {int(r) // scale for r in black}
        assert got_rows == expected_rows
        assert black.size == ndrop * scale
    _criterion("visualization contract", f"drop masks match top relevance rows on {len(image_paths)} images")
