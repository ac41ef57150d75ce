"""Command-line surface: artifacts, determinism, config echo, exit codes."""

import dataclasses
import hashlib
import inspect
import os
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

from topdropnet import cli, evaluation, network, ppm, synthdata, tensorcore as tc, topdrop, trainer


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(*args):
    return cli.main([str(a) for a in args])


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small dataset + checkpoint shared by eval/activations tests."""
    base = tmp_path_factory.mktemp("cli")
    data = base / "data"
    assert run_cli("gendata", "--out", data, "--ids", 8, "--cams", 2, "--per", 3,
                   "--height", 32, "--width", 16, "--occlusion", 0.1, "--seed", 3) == 0
    out = base / "run"
    assert run_cli("train", "--data", data, "--out", out, "--epochs", 4, "--seed", 2,
                   "--batch-p", 2, "--batch-k", 2, "--d-global", 16, "--d-drop", 16) == 0
    return data, out / "checkpoint.ckpt", base


@pytest.fixture(scope="module")
def unfit_data(tmp_path_factory):
    """Datasets by placeholder: two no model trains on, 12-pixel-high
    images (feature height 2) and a train split of one identity; one of 4
    train ids, too few for the default batch of 8; and one of 8 train ids
    with 8 images each at the default 64 x 32 (feature height 8), which
    some batch and drop settings cannot use."""
    base = tmp_path_factory.mktemp("unfit")
    short, one_id, four_ids, h8 = base / "short", base / "one_id", base / "four_ids", base / "h8"
    assert run_cli("gendata", "--out", short, "--ids", 4, "--cams", 2, "--per", 2, "--height", 12, "--width", 8) == 0
    assert run_cli("gendata", "--out", one_id, "--ids", 4, "--cams", 2, "--per", 2, "--height", 32, "--width", 16) == 0
    manifest = one_id / "manifest.csv"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(line for line in lines if not line.startswith("1,")))  # id 0 trains alone
    assert run_cli("gendata", "--out", four_ids, "--ids", 8, "--cams", 2, "--per", 4) == 0
    assert run_cli("gendata", "--out", h8, "--ids", 16, "--cams", 2, "--per", 4) == 0
    return {"<short>": short, "<one-id>": one_id, "<four-ids>": four_ids, "<h8>": h8}


class TestGendata:
    def test_artifact_counts(self, tmp_path):
        out = tmp_path / "ds"
        assert run_cli("gendata", "--out", out, "--ids", 8, "--cams", 2, "--per", 2,
                       "--height", 32, "--width", 16) == 0
        assert len(list((out / "images").glob("*.ppm"))) == 32
        assert (out / "manifest.csv").exists()
        assert (out / "resolved.cfg").exists()

    def test_existing_dir_needs_force_and_force_is_bitwise(self, tmp_path):
        out = tmp_path / "ds"
        args = ("gendata", "--out", out, "--ids", 8, "--cams", 2, "--per", 2,
                "--height", 32, "--width", 16, "--seed", 5)
        assert run_cli(*args) == 0
        first = tree_bytes(out)
        assert run_cli(*args) == 1  # exists, no --force
        assert run_cli(*args, "--force") == 0
        assert tree_bytes(out) == first

    def test_force_replaces_only_a_dataset_directory(self, tmp_path):
        other = tmp_path / "notes"
        other.mkdir()
        (other / "keep.txt").write_text("x")
        a_file = tmp_path / "file.txt"
        a_file.write_text("y")
        for out in (other, a_file):
            assert run_cli("gendata", "--out", out, "--ids", 8, "--cams", 2, "--per", 2,
                           "--height", 32, "--width", 16, "--force") == 1
        assert os.listdir(other) == ["keep.txt"]
        assert (other / "keep.txt").read_text() == "x"
        assert a_file.read_text() == "y"

    @pytest.mark.parametrize("force", [False, True])
    def test_empty_directory_is_filled(self, tmp_path, force):
        out = tmp_path / "ds"
        args = ("gendata", "--out", out, "--ids", 8, "--cams", 2, "--per", 2, "--height", 32, "--width", 16)
        assert run_cli(*args) == 0
        fresh = tree_bytes(out)
        shutil.rmtree(out)
        out.mkdir()
        assert run_cli(*args, *(("--force",) if force else ())) == 0
        assert tree_bytes(out) == fresh

    @pytest.mark.parametrize("flag, value", [("--ids", 2), ("--occlusion", 1.5), ("--height", 0)])
    def test_bad_setting_with_force_keeps_the_old_dataset(self, tmp_path, flag, value):
        out = tmp_path / "ds"
        args = ("gendata", "--out", out, "--ids", 8, "--cams", 2, "--per", 2, "--height", 32, "--width", 16)
        assert run_cli(*args) == 0
        first = tree_bytes(out)
        assert run_cli(*args, flag, value, "--force") == 1
        assert tree_bytes(out) == first

    def test_single_camera_rejected(self, tmp_path):
        assert run_cli("gendata", "--out", tmp_path / "x", "--cams", 1) == 1
        assert not (tmp_path / "x" / "manifest.csv").exists()

    def test_default_benchmark_has_512_images(self, tmp_path):
        out = tmp_path / "full"
        assert run_cli("gendata", "--out", out, "--ids", 32, "--cams", 4, "--per", 4, "--seed", 1) == 0
        assert len(list((out / "images").glob("*.ppm"))) == 512
        manifest = (out / "manifest.csv").read_text().strip().split("\n")
        assert len(manifest) == 513  # header + one row per image

    def test_rerun_from_echo_is_bitwise(self, tmp_path):
        out = tmp_path / "ds"
        assert run_cli("gendata", "--out", out, "--ids", 8, "--cams", 2, "--per", 2,
                       "--height", 32, "--width", 16, "--seed", 9) == 0
        first = tree_bytes(out)
        echo = out / "resolved.cfg"
        saved = echo.read_text()
        config_copy = tmp_path / "copy.cfg"
        config_copy.write_text(saved)
        assert run_cli("gendata", "--config", config_copy, "--force") == 0
        assert tree_bytes(out) == first


class TestTrain:
    def test_single_seed_artifacts(self, trained):
        data, ckpt, base = trained
        assert ckpt.exists()
        history = (ckpt.parent / "history.csv").read_text().strip().split("\n")
        assert history[0] == "epoch,lr,loss_global,loss_drop,loss_reg,loss_total"
        assert len(history) == 5  # header + 4 epochs

    def test_no_drop_history_has_empty_drop_column(self, trained, tmp_path):
        data, _, _ = trained
        out = tmp_path / "nd"
        assert run_cli("train", "--data", data, "--out", out, "--epochs", 2, "--variant", "no-drop",
                       "--batch-p", 2, "--batch-k", 2, "--d-global", 16, "--d-drop", 16) == 0
        rows = (out / "history.csv").read_text().strip().split("\n")[1:]
        assert all(row.split(",")[3] == "" for row in rows)

    def test_multi_seed_summary(self, trained, tmp_path):
        data, _, _ = trained
        out = tmp_path / "multi"
        assert run_cli("train", "--data", data, "--out", out, "--seeds", "1,2", "--epochs", 2,
                       "--batch-p", 2, "--batch-k", 2, "--d-global", 16, "--d-drop", 16) == 0
        assert (out / "seed1" / "checkpoint.ckpt").exists()
        assert (out / "seed2" / "checkpoint.ckpt").exists()
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert lines[0] == "metric,mean,std"
        assert any(line.startswith("loss_total,") for line in lines)

    def test_config_file_unknown_key_rejected(self, trained, tmp_path):
        data, _, _ = trained
        bad = tmp_path / "bad.cfg"
        bad.write_text("epochs = 2\nlearning-rate = 0.1\n")
        assert run_cli("train", "--data", data, "--out", tmp_path / "o", "--config", bad) == 1

    def test_flags_override_config_file(self, trained, tmp_path):
        data, _, _ = trained
        cfgfile = tmp_path / "ok.cfg"
        cfgfile.write_text("epochs = 3\nbatch-p = 2\nbatch-k = 2\nd-global = 16\nd-drop = 16\n")
        out = tmp_path / "o2"
        assert run_cli("train", "--data", data, "--out", out, "--config", cfgfile, "--epochs", 2) == 0
        rows = (out / "history.csv").read_text().strip().split("\n")
        assert len(rows) == 3  # header + 2 epochs: flag wins
        assert "epochs = 2" in (out / "resolved.cfg").read_text()

    def test_rerun_from_echo_reproduces_training(self, trained, tmp_path):
        data, _, _ = trained
        out1 = tmp_path / "r1"
        assert run_cli("train", "--data", data, "--out", out1, "--epochs", 2, "--seed", 4,
                       "--batch-p", 2, "--batch-k", 2, "--d-global", 16, "--d-drop", 16) == 0
        out2 = tmp_path / "r2"
        assert run_cli("train", "--config", out1 / "resolved.cfg", "--out", out2) == 0
        assert (out1 / "checkpoint.ckpt").read_bytes() == (out2 / "checkpoint.ckpt").read_bytes()
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()


class TestEval:
    def test_deterministic_metrics(self, trained, tmp_path):
        data, ckpt, _ = trained
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        for out in (out1, out2):
            assert run_cli("eval", "--data", data, "--checkpoint", ckpt, "--out", out) == 0
        assert (out1 / "metrics_raw.csv").read_bytes() == (out2 / "metrics_raw.csv").read_bytes()

    def test_rerank_lambda_one_equals_raw(self, trained, tmp_path):
        data, ckpt, _ = trained
        out = tmp_path / "rr"
        assert run_cli("eval", "--data", data, "--checkpoint", ckpt, "--out", out,
                       "--rerank", "--lambda", "1.0") == 0
        raw = (out / "metrics_raw.csv").read_text()
        rr = (out / "metrics_rerank.csv").read_text()
        assert raw == rr

    def test_no_flag_overrides_config_file(self, trained, tmp_path):
        data, ckpt, _ = trained
        cfgfile = tmp_path / "rerank.cfg"
        cfgfile.write_text("rerank = true\n")
        out = tmp_path / "nr"
        assert run_cli("eval", "--data", data, "--checkpoint", ckpt, "--out", out,
                       "--config", cfgfile, "--no-rerank") == 0
        assert (out / "metrics_raw.csv").exists()
        assert not (out / "metrics_rerank.csv").exists()
        assert "rerank = false" in (out / "resolved.cfg").read_text().split("\n")
        # The echo reproduces the run.
        again = tmp_path / "again"
        assert run_cli("eval", "--config", out / "resolved.cfg", "--out", again) == 0
        assert sorted(os.listdir(again)) == sorted(os.listdir(out))
        assert (again / "metrics_raw.csv").read_bytes() == (out / "metrics_raw.csv").read_bytes()
        # The positive form still turns it on over a file that says false.
        on = tmp_path / "on"
        assert run_cli("eval", "--config", out / "resolved.cfg", "--out", on, "--rerank") == 0
        assert (on / "metrics_rerank.csv").exists()

    def test_missing_checkpoint_exits_nonzero_without_artifacts(self, trained, tmp_path):
        data, _, _ = trained
        out = tmp_path / "missing"
        assert run_cli("eval", "--data", data, "--checkpoint", tmp_path / "nope.ckpt", "--out", out) == 1
        assert not out.exists()

    def test_save_embeddings_round_trip(self, trained, tmp_path):
        data, ckpt, _ = trained
        out = tmp_path / "emb"
        assert run_cli("eval", "--data", data, "--checkpoint", ckpt, "--out", out, "--save-embeddings") == 0
        loaded = evaluation.load_embeddings(out / "embeddings_query.csv")
        model = trainer.model_from_checkpoint(ckpt)
        dataset = synthdata.load_dataset(data)
        expected = evaluation.embed_split(model, dataset, "query")
        np.testing.assert_array_equal(loaded.features, expected.features)

    @pytest.mark.parametrize("flag, value, message, leftover", [
        ("--max-rank", 0, "max_rank must be >= 1", None),  # rejected before anything is written
        ("--max-rank", -1, "max_rank must be >= 1", None),
        ("--k1", 0, "k1 and k2 must be >= 1", None),
        ("--k2", -3, "k1 and k2 must be >= 1", None),
    ])
    def test_bound_below_one_rejected(self, trained, tmp_path, capsys, flag, value, message, leftover):
        data, ckpt, _ = trained
        out = tmp_path / "bad"
        assert run_cli("eval", "--data", data, "--checkpoint", ckpt, "--out", out, "--rerank", flag, value) == 1
        assert message in capsys.readouterr().err
        assert (sorted(os.listdir(out)) if out.exists() else None) == leftover

    def test_dataset_without_query_rows_leaves_no_out(self, trained, tmp_path):
        data, ckpt, _ = trained
        no_query = tmp_path / "noquery"
        shutil.copytree(data, no_query)
        manifest = no_query / "manifest.csv"
        manifest.write_bytes(manifest.read_bytes().replace(b",query,", b",gallery,"))
        out = tmp_path / "o"
        assert run_cli("eval", "--data", no_query, "--checkpoint", ckpt, "--out", out) == 1
        assert not out.exists()

    def test_non_finite_checkpoint_leaves_no_out(self, trained, tmp_path, capsys):
        data, ckpt, _ = trained
        arrays = tc.load_arrays(ckpt)
        arrays["param.backbone.stem_conv.weight"].flat[0] = np.nan
        bad = tmp_path / "nan.ckpt"
        tc.save_arrays(bad, arrays)
        out = tmp_path / "o"
        assert run_cli("eval", "--data", data, "--checkpoint", bad, "--out", out) == 1
        assert "param.backbone.stem_conv.weight holds a non-finite value" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_mismatch_with_checkpoint(self, trained, tmp_path):
        _, ckpt, _ = trained
        other = tmp_path / "otherdata"
        assert run_cli("gendata", "--out", other, "--ids", 8, "--cams", 2, "--per", 2,
                       "--height", 64, "--width", 32) == 0
        assert run_cli("eval", "--data", other, "--checkpoint", ckpt, "--out", tmp_path / "o") == 1


class TestActivations:
    def test_exports_and_dropmask_consistency(self, trained, tmp_path):
        data, ckpt, _ = trained
        dataset = synthdata.load_dataset(data)
        image_path = os.path.join(data, dataset.records[0].image_path)
        out = tmp_path / "act"
        assert run_cli("activations", "--checkpoint", ckpt, "--out", out,
                       "--images", image_path, "--show-dropmask") == 0
        base = os.path.splitext(os.path.basename(image_path))[0]
        act = ppm.read_pgm(out / f"{base}_activation.pgm")
        thr = ppm.read_pgm(out / f"{base}_threshold.pgm")
        overlay = ppm.read_ppm(out / f"{base}_overlay.ppm")
        dropmask = ppm.read_pgm(out / f"{base}_dropmask.pgm")
        img = ppm.read_ppm(image_path)
        assert act.shape == thr.shape == dropmask.shape == img.shape[:2]
        assert overlay.shape == img.shape
        assert set(np.unique(thr)) <= {0, 255}

        # Dropped rows in the export match the mask computed from the model.
        model = trainer.model_from_checkpoint(ckpt).eval()
        feats = model.backbone_forward(network.normalize_images(img[None])).data[0]
        expected = topdrop.top_drop_mask(
            topdrop.stripe_relevance(topdrop.activation_map(feats, 2.0)),
            topdrop.DropConfig(0.3, 2.0),
        )
        scale = img.shape[0] // feats.shape[1]
        dropped_image_rows = np.flatnonzero(np.all(dropmask == 0, axis=1))
        expected_rows = sorted(r * scale + i for r in np.flatnonzero(expected) for i in range(scale))
        assert dropped_image_rows.tolist() == expected_rows

    @pytest.mark.parametrize("fault", ["truncated", "wrong_size", "missing_image", "missing_checkpoint"])
    def test_bad_input_leaves_no_out(self, trained, tmp_path, fault):
        # The first image is valid, so its exports could be written before the fault is seen.
        data, ckpt, _ = trained
        first = data / "images" / "000_00_00.ppm"
        second = tmp_path / "second.ppm"  # never written for "missing_image"
        if fault == "truncated":
            second.write_bytes(first.read_bytes()[:-1])
        elif fault == "wrong_size":
            ppm.write_ppm(second, np.zeros((16, 16, 3), dtype=np.uint8))
        elif fault == "missing_checkpoint":
            shutil.copy(first, second)
            ckpt = tmp_path / "nope.ckpt"
        out = tmp_path / "act"
        assert run_cli("activations", "--checkpoint", ckpt, "--out", out, "--images", f"{first},{second}") == 1
        assert not out.exists()

    def test_zero_init_model_yields_all_zero_maps(self, trained, tmp_path):
        data, ckpt, _ = trained
        dataset = synthdata.load_dataset(data)
        model = trainer.model_from_checkpoint(ckpt)
        for _, p in model.named_parameters():
            p.data[...] = 0.0
        for _, b in model.named_buffers():
            b[...] = 1.0 if b.min() >= 0.5 else 0.0  # running var 1, mean 0
        result = trainer.FitResult(model, [], trainer.AdamState(), 0, trainer.TrainConfig())
        zero_ckpt = tmp_path / "zero.ckpt"
        trainer.save_checkpoint(zero_ckpt, result)

        black = tmp_path / "black.ppm"
        ppm.write_ppm(black, np.full((32, 16, 3), 127, dtype=np.uint8))  # normalizes to ~0
        out = tmp_path / "zact"
        assert run_cli("activations", "--checkpoint", zero_ckpt, "--out", out,
                       "--images", black) == 0
        act = ppm.read_pgm(out / "black_activation.pgm")
        thr = ppm.read_pgm(out / "black_threshold.pgm")
        assert np.all(act == 0)
        assert np.all(thr == 0)

    def test_constant_activation_gives_all_ones_threshold(self, tmp_path, trained):
        # A uniform positive activation map thresholds to all-ones.
        data, ckpt, _ = trained
        model = trainer.model_from_checkpoint(ckpt)
        up = cli._upscale_nearest(np.full((4, 2), 3.0), 8, 4)
        assert np.all((up >= 0.5 * up.max()) == True)  # noqa: E712 - degenerate map rule
        gray = cli._to_gray(up)
        assert np.all(gray == 0)  # uniform map normalizes to a uniform image


class TestAblationCommand:
    def test_four_variant_report_and_reproducibility(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("gendata", "--out", data, "--ids", 8, "--cams", 2, "--per", 2,
                       "--height", 32, "--width", 16, "--occlusion", 0.5, "--seed", 4) == 0
        out = tmp_path / "abl"
        args = ("ablation", "--data", data, "--out", out, "--seeds", "1,2", "--epochs", 2,
                "--batch-p", 2, "--batch-k", 2, "--d-global", 16, "--d-drop", 16)
        assert run_cli(*args) == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert lines[0] == "variant,map_mean,map_std,rank1_mean,rank1_std"
        assert [line.split(",")[0] for line in lines[1:]] == ["full", "no-drop", "no-reg", "baseline-bdb"]
        for variant in ("full", "no-drop", "no-reg", "baseline-bdb"):
            for seed in (1, 2):
                assert (out / variant / f"seed{seed}" / "metrics.csv").exists()
        # Rerun into a second directory: the report reproduces bitwise.
        out2 = tmp_path / "abl2"
        args2 = tuple(out2 if a is out else a for a in args)
        assert run_cli(*args2) == 0
        assert (out / "ablation.csv").read_bytes() == (out2 / "ablation.csv").read_bytes()


class TestConfigMachinery:
    def test_no_writes_outside_out(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        assert run_cli("gendata", "--out", data, "--ids", 8, "--cams", 2, "--per", 2,
                       "--height", 32, "--width", 16) == 0
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "run"
        assert run_cli("train", "--data", data, "--out", out, "--epochs", 1,
                       "--batch-p", 2, "--batch-k", 2, "--d-global", 16, "--d-drop", 16) == 0
        assert os.listdir(workdir) == []

    def test_echo_contains_every_setting_sorted(self, tmp_path):
        data = tmp_path / "ds"
        assert run_cli("gendata", "--out", data, "--ids", 8, "--cams", 2, "--per", 2,
                       "--height", 32, "--width", 16) == 0
        lines = (data / "resolved.cfg").read_text().strip().split("\n")
        keys = [line.split(" = ")[0] for line in lines]
        assert keys == sorted(keys)
        assert "ids" in keys and "seed" in keys and "force" not in keys

    def test_bad_flag_value_exits_nonzero(self, tmp_path):
        assert run_cli("gendata", "--out", tmp_path / "x", "--ids", "eight") == 1

    @pytest.mark.parametrize("command, flag, value, message", [
        ("gendata", "--seed", "x", "--seed: invalid literal for int() with base 10: 'x'"),
        ("gendata", "--occlusion", "half", "--occlusion: could not convert string to float: 'half'"),
        ("train", "--seeds", "1,x", "--seeds: invalid literal for int() with base 10: 'x'"),
    ])
    def test_bad_flag_value_names_its_flag(self, tmp_path, capsys, command, flag, value, message):
        out = tmp_path / "o"
        assert run_cli(command, "--out", out, flag, value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, args, message", [
        ("train", ("--epochs", 0), "total_epochs must be >= 1"),
        ("train", ("--seeds", "1,2", "--height-ratio", 2), "height_ratio must be in (0, 1]"),
        ("train", ("--d-global", 0), "d_global must hold integers >= 1"),
        ("train", ("--seeds", ","), "seeds needs at least one value"),
        ("train", ("--epsilon", 1.5), "label_epsilon must be in [0, 1)"),
        ("train", ("--milestones", "0.5,nan"), "warmup and milestone fractions must be finite"),
        ("train", ("--base-lr", "nan"), "base_lr must be finite and > 0"),
        ("train", ("--base-lr", -0.001), "base_lr must be finite and > 0"),
        ("train", ("--decay-factor", -1), "decay_factor must be in (0, 1]"),
        ("train", ("--margin", "nan"), "margin must be finite and >= 0"),
        ("train", ("--power", "nan"), "p must be >= 1"),
        ("train", ("--power", "inf"), "p must be >= 1"),
        ("ablation", ("--epochs", 0), "total_epochs must be >= 1"),
        ("ablation", ("--power", 0.5), "p must be >= 1"),
        ("ablation", ("--seeds", ","), "seeds needs at least one value"),
        ("train", ("--seeds", "1,1"), "seeds must be distinct, 1 is given twice"),
        ("ablation", ("--seeds", "3,1,3"), "seeds must be distinct, 3 is given twice"),
        ("activations", ("--height-ratio", 2), "height_ratio must be in (0, 1]"),
        ("activations", ("--power", "nan"), "p must be >= 1"),
        ("activations", ("--images", ","), "images needs at least one value"),
        ("gendata", ("--ids", 2), "need at least 4 identities"),
        ("gendata", ("--occlusion", 1.5), "occlusion_prob must be in [0, 1]"),
        ("gendata", ("--occlusion", -0.1), "occlusion_prob must be in [0, 1]"),
        ("gendata", ("--height", 0), "both >= 1"),
        ("gendata", ("--width", 0), "both >= 1"),
        # A later --data replaces the shared dataset with one no model fits.
        ("train", ("--data", "<short>", "--batch-p", 2, "--batch-k", 2), "feature height 2 < 4"),
        ("train", ("--data", "<one-id>", "--seeds", "1,2"), "training needs at least two identities"),
        ("ablation", ("--data", "<short>", "--batch-p", 2, "--batch-k", 2), "feature height 2 < 4"),
        ("ablation", ("--data", "<one-id>"), "training needs at least two identities"),
        # Settings the batch sampler or the drop mask cannot use on a dataset.
        ("train", ("--data", "<four-ids>", "--epochs", 1), "need >= 8 train ids, got 4"),
        ("train", ("--data", "<h8>", "--epochs", 1, "--batch-k", 9), "id 0 has 8 images, needs >= 9"),
        ("ablation", ("--data", "<h8>", "--epochs", 1, "--batch-k", 9), "id 0 has 8 images, needs >= 9"),
        ("train", ("--data", "<h8>", "--epochs", 1, "--height-ratio", 0.95), "would drop all rows: num_drop=8, h=8"),
        ("train", ("--data", "<h8>", "--epochs", 1, "--variant", "baseline-bdb", "--height-ratio", 0.1),
         "block height floor(8 * 0.1) < 1"),
        ("ablation", ("--data", "<h8>", "--epochs", 1, "--seeds", 1, "--height-ratio", 0.1),
         "block height floor(8 * 0.1) < 1"),
        # The shared checkpoint's feature height is 4.
        ("activations", ("--show-dropmask", "--height-ratio", 0.95), "would drop all rows: num_drop=4, h=4"),
        ("activations", ("--alpha", "nan"), "alpha must be in [0, 1], got nan"),
        ("activations", ("--alpha", -0.5), "alpha must be in [0, 1], got -0.5"),
        ("activations", ("--tau", "inf"), "tau must be in [0, 1], got inf"),
        ("activations", ("--tau", 1.5), "tau must be in [0, 1], got 1.5"),
    ])
    def test_bad_setting_rejected_before_out_is_created(self, trained, unfit_data, tmp_path, capsys,
                                                        command, args, message):
        data, ckpt, _ = trained
        inputs = {"gendata": (), "train": ("--data", data), "ablation": ("--data", data),
                  "activations": ("--checkpoint", ckpt, "--images", data / "images" / "000_00_00.ppm")}
        out = tmp_path / "bad"
        args = [unfit_data.get(a, a) if isinstance(a, str) else a for a in args]
        assert run_cli(command, "--out", out, *inputs[command], *args) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_list_in_config_file_rejected(self, trained, tmp_path, capsys):
        data, _, _ = trained
        cfgfile = tmp_path / "seeds.cfg"
        cfgfile.write_text("seeds = ,\n")
        out = tmp_path / "bad"
        assert run_cli("train", "--data", data, "--out", out, "--config", cfgfile) == 1
        assert "seeds needs at least one value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        pytest.param("epochs = 3\nepochs = 5\n", ":2: 'epochs' is already set on line 1", id="repeated_key"),
        pytest.param("# seed\n\nseed = x\n", ":3: invalid literal for int()", id="bad_int"),
    ])
    def test_bad_config_file_line_rejected_with_its_location(self, trained, tmp_path, capsys, text, message):
        data, _, _ = trained
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        out = tmp_path / "bad"
        assert run_cli("train", "--data", data, "--out", out, "--config", cfgfile) == 1
        assert f"{cfgfile}{message}" in capsys.readouterr().err
        assert not out.exists()


class TestDefaults:
    def test_defaults_are_the_config_classes(self):
        train = cli._resolve(cli.SCHEMAS["train"], {"out": "o", "data": "d"}, None)
        assert cli._train_config(train, cli._variant_internal(train["variant"]), train["seed"]) == trainer.TrainConfig()
        ablation = cli._resolve(cli.SCHEMAS["ablation"], {"out": "o", "data": "d"}, None)
        assert cli._train_config(ablation, "full", trainer.TrainConfig().seed) == trainer.TrainConfig()
        ev = cli._resolve(cli.SCHEMAS["eval"], {"out": "o", "data": "d", "checkpoint": "c"}, None)
        assert cli._rerank_params(ev, 10**6) == evaluation.RerankParams()
        assert ev["max-rank"] == evaluation.MAX_RANK
        for fn in (evaluation.evaluate, evaluation.evaluate_run):
            assert inspect.signature(fn).parameters["max_rank"].default == evaluation.MAX_RANK
        act = cli._resolve(cli.SCHEMAS["activations"], {"out": "o", "checkpoint": "c", "images": ("i",)}, None)
        assert topdrop.DropConfig(act["height-ratio"], act["power"]) == topdrop.DropConfig()

    def test_gendata_defaults_are_generate_dataset_defaults(self, tmp_path, monkeypatch):
        params = inspect.signature(synthdata.generate_dataset).parameters
        defaults = {name: p.default for name, p in params.items() if name != "out_dir"}
        calls = []
        monkeypatch.setattr(synthdata, "generate_dataset", lambda out_dir, **kwargs: calls.append(kwargs) or [])
        assert run_cli("gendata", "--out", tmp_path / "ds") == 0
        assert calls == [defaults]

    def test_every_train_flag_reaches_the_config(self, tiny_dataset_dir, tmp_path, monkeypatch):
        # --seeds repeats this configuration once per seed; see test_multi_seed_summary.
        flags = {"variant": "no-reg", "epochs": 6, "seed": 5, "base-lr": 0.002, "warmup-fraction": 0.2,
                 "milestones": "0.6,0.8", "decay-factor": 0.5, "batch-p": 3, "batch-k": 3, "margin": 0.4,
                 "epsilon": 0.2, "height-ratio": 0.4, "power": 3.0, "d-global": 12, "d-drop": 20}
        assert set(flags) == {opt.key for opt in cli.SCHEMAS["train"]} - {"out", "data", "seeds"}
        configs = []

        def capture(cfg, dataset):
            configs.append(cfg)
            raise RuntimeError("stop before training")

        monkeypatch.setattr(trainer, "fit", capture)
        argv = ["train", "--data", tiny_dataset_dir, "--out", tmp_path / "run"]
        for key, value in flags.items():
            argv += [f"--{key}", value]
        assert run_cli(*argv) == 1

        def fields(cfg):
            out = dataclasses.asdict(cfg)
            out.update({f"batch.{k}": v for k, v in out.pop("batch").items()})
            return out

        got, default = fields(configs[0]), fields(trainer.TrainConfig())
        assert [key for key in default if got[key] == default[key]] == ["dtype"]


def readme_commands():
    """Every ``topdropnet`` command in the README's code blocks, with
    backslash continuations joined."""
    text = open(README, encoding="utf-8").read()
    commands = []
    for block in re.findall(r"^```\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("topdropnet "):
                commands.append(shlex.split(line)[1:])
    return commands


class TestReadme:
    def test_every_documented_command_parses(self):
        commands = readme_commands()
        assert {argv[0] for argv in commands} == set(cli.SCHEMAS)
        parser = cli._build_parser()
        for argv in commands:
            try:
                args = vars(parser.parse_args(argv))
            except SystemExit:
                pytest.fail(f"README command does not parse: topdropnet {shlex.join(argv)}")
            for opt in cli.SCHEMAS[argv[0]]:
                value = args[opt.key.replace("-", "_")]
                if value is not None and opt.kind != "bool":
                    cli._parse_value(opt, value)
            if args.get("variant") is not None:
                assert cli._variant_internal(args["variant"]) in network.VARIANTS, argv


def train_checkpoint_sha256(data, out, threads):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=str(threads))
    argv = ["train", "--data", data, "--out", out, "--variant", "full", "--epochs", "3", "--seed", "1"]
    subprocess.run([sys.executable, "-m", "topdropnet.cli", *map(str, argv)], env=env, check=True,
                   capture_output=True, timeout=600)
    return hashlib.sha256((out / "checkpoint.ckpt").read_bytes()).hexdigest()


class TestDeterminism:
    def test_checkpoint_independent_of_run_and_thread_count(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("gendata", "--out", data, "--seed", 1) == 0
        first = train_checkpoint_sha256(data, tmp_path / "a", threads=1)
        assert train_checkpoint_sha256(data, tmp_path / "b", threads=1) == first
        assert train_checkpoint_sha256(data, tmp_path / "c", threads=2) == first
