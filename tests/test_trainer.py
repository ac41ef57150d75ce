"""Schedule, Adam, epoch orchestration, checkpoint resume."""

import dataclasses
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topdropnet import network, synthdata, tensorcore as tc, topdrop, trainer


def quick_config(**kwargs):
    defaults = dict(
        total_epochs=4,
        batch=synthdata.BatchSpec(p=2, k=2),
        d_global=16,
        d_drop=16,
        seed=1,
    )
    defaults.update(kwargs)
    return trainer.TrainConfig(**defaults)


class TestSchedule:
    def _cfg(self, epochs):
        return trainer.TrainConfig(total_epochs=epochs)

    def test_reference_400_epoch_shape(self):
        cfg = self._cfg(400)
        assert trainer.lr_at(0, cfg) == pytest.approx(1e-4)
        assert trainer.lr_at(49, cfg) == pytest.approx(1e-4 + 9e-4 * 49 / 50)
        assert trainer.lr_at(50, cfg) == pytest.approx(1e-3)
        assert trainer.lr_at(125, cfg) == pytest.approx(1e-3)
        assert trainer.lr_at(199, cfg) == pytest.approx(1e-3)
        assert trainer.lr_at(200, cfg) == pytest.approx(1e-4)
        assert trainer.lr_at(299, cfg) == pytest.approx(1e-4)
        assert trainer.lr_at(300, cfg) == pytest.approx(1e-5)
        assert trainer.lr_at(399, cfg) == pytest.approx(1e-5)

    def test_40_epoch_run_scales_proportionally(self):
        cfg = self._cfg(40)
        assert trainer.lr_at(0, cfg) == pytest.approx(1e-4)
        assert trainer.lr_at(5, cfg) == pytest.approx(1e-3)  # warmup 5 epochs
        assert trainer.lr_at(19, cfg) == pytest.approx(1e-3)
        assert trainer.lr_at(20, cfg) == pytest.approx(1e-4)
        assert trainer.lr_at(30, cfg) == pytest.approx(1e-5)

    def test_warmup_end_equals_plateau_exactly(self):
        for epochs in (40, 80, 400):
            cfg = self._cfg(epochs)
            warmup = topdrop.round_half_up(epochs * cfg.warmup_fraction)
            assert trainer.lr_at(warmup, cfg) == cfg.base_lr
            below = trainer.lr_at(warmup - 1, cfg)
            assert below < cfg.base_lr
            assert cfg.base_lr - below <= 0.9 * cfg.base_lr / warmup + 1e-15

    def test_epoch_out_of_range(self):
        cfg = self._cfg(40)
        with pytest.raises(ValueError):
            trainer.lr_at(40, cfg)
        with pytest.raises(ValueError):
            trainer.lr_at(-1, cfg)

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            trainer.TrainConfig(warmup_fraction=0.6)  # past first milestone
        with pytest.raises(ValueError):
            trainer.TrainConfig(decay_milestones=(0.75, 0.5))

    @pytest.mark.parametrize("field, value, message", [
        ("variant", "dropless", "variant must be one of"),
        ("d_global", 0, "d_global must hold integers >= 1"),
        ("dtype", "int32", "dtype must be one of"),
        ("height_ratio", 2.0, "height_ratio must be in"),
        ("activation_power", 0.5, "p must be >= 1"),
    ])
    def test_model_and_drop_settings_checked_by_their_classes(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            trainer.TrainConfig(**{field: value})


class TestAdam:
    def test_first_step_approaches_lr_times_sign(self):
        p = tc.parameter([1.0, -1.0])
        p.grad = np.array([100.0, -250.0])
        state = trainer.AdamState()
        trainer.adam_step([("p", p)], state, lr=0.01)
        delta = p.data - np.array([1.0, -1.0])
        np.testing.assert_allclose(delta, [-0.01, 0.01], rtol=1e-6)
        assert state.t == 1

    def test_zero_gradient_leaves_parameters(self):
        p = tc.parameter([2.0])
        p.grad = np.zeros(1)
        state = trainer.AdamState()
        trainer.adam_step([("p", p)], state, lr=0.1)
        np.testing.assert_array_equal(p.data, [2.0])
        assert state.t == 1

    def test_quadratic_bowl_converges(self):
        # 100 steps of f(x) = x^2 from x = 1 at lr 0.1.
        p = tc.parameter([1.0])
        state = trainer.AdamState()
        for _ in range(100):
            p.grad = 2.0 * p.data
            trainer.adam_step([("p", p)], state, lr=0.1)
        assert abs(p.data[0]) < 0.1

    def test_scale_invariance_in_large_gradient_limit(self):
        # Doubling a large gradient changes the first-step update < 1%.
        def first_step(g):
            p = tc.parameter([0.0])
            p.grad = np.array([g])
            trainer.adam_step([("p", p)], trainer.AdamState(), lr=1e-3)
            return p.data[0]

        base = first_step(1e3 * 1e-8 * 2000)
        doubled = first_step(1e3 * 1e-8 * 4000)
        assert abs(doubled - base) / abs(base) < 0.01

    def test_missing_gradient_rejected(self):
        with pytest.raises(ValueError):
            trainer.adam_step([("p", tc.parameter([1.0]))], trainer.AdamState(), lr=0.1)

    def test_non_finite_gradient_rejected(self):
        p = tc.parameter([1.0])
        p.grad = np.array([np.inf])
        with pytest.raises(ValueError):
            trainer.adam_step([("p", p)], trainer.AdamState(), lr=0.1)


class TestTrainEpoch:
    def test_loss_decreases_over_training(self, tiny_dataset):
        cfg = quick_config(total_epochs=10, batch=synthdata.BatchSpec(p=4, k=4))
        result = trainer.fit(cfg, tiny_dataset)
        assert result.history[-1]["loss_total"] < result.history[0]["loss_total"]
        assert all(np.isfinite(row["loss_total"]) for row in result.history)

    def test_no_drop_never_builds_masks(self, tiny_dataset, monkeypatch):
        calls = {"top": 0, "batch": 0}
        top = topdrop.masks_from_features
        rand = topdrop.batch_drop_mask
        monkeypatch.setattr(
            topdrop, "masks_from_features", lambda *a, **k: calls.__setitem__("top", calls["top"] + 1) or top(*a, **k)
        )
        monkeypatch.setattr(
            topdrop, "batch_drop_mask", lambda *a, **k: calls.__setitem__("batch", calls["batch"] + 1) or rand(*a, **k)
        )
        trainer.fit(quick_config(total_epochs=1, variant="no_drop"), tiny_dataset)
        assert calls == {"top": 0, "batch": 0}
        trainer.fit(quick_config(total_epochs=1, variant="full"), tiny_dataset)
        assert calls["top"] > 0 and calls["batch"] == 0
        trainer.fit(quick_config(total_epochs=1, variant="baseline_bdb"), tiny_dataset)
        assert calls["batch"] > 0

    def test_identical_seeds_identical_metrics(self, tiny_dataset):
        a = trainer.fit(quick_config(total_epochs=2), tiny_dataset)
        b = trainer.fit(quick_config(total_epochs=2), tiny_dataset)
        assert a.history == b.history
        for (_, pa), (_, pb) in zip(a.model.named_parameters(), b.model.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_non_finite_loss_aborts_with_diagnostic(self, tiny_dataset, monkeypatch):
        def poisoned(outputs, labels, margin, epsilon):
            return tc.Tensor(np.array(np.inf)), {"loss_total": np.inf}

        monkeypatch.setattr(network, "total_loss", poisoned)
        with pytest.raises(RuntimeError, match="non-finite loss at epoch 0"):
            trainer.fit(quick_config(total_epochs=1), tiny_dataset)

    def test_history_columns_match_variant(self, tiny_dataset):
        full = trainer.fit(quick_config(total_epochs=1), tiny_dataset)
        assert full.history[0]["loss_drop"] is not None
        no_drop = trainer.fit(quick_config(total_epochs=1, variant="no_drop"), tiny_dataset)
        assert no_drop.history[0]["loss_drop"] is None
        assert no_drop.history[0]["loss_reg"] is not None


class TestFitAndCheckpoints:
    def test_history_length_equals_epochs(self, tiny_dataset):
        result = trainer.fit(quick_config(total_epochs=3), tiny_dataset)
        assert len(result.history) == 3
        assert [row["epoch"] for row in result.history] == [0, 1, 2]

    def test_resume_reproduces_uninterrupted_run_bitwise(self, tiny_dataset, tmp_path):
        cfg = quick_config(total_epochs=4)
        full = trainer.fit(cfg, tiny_dataset)

        partial = trainer.fit(cfg, tiny_dataset, stop_after=2)
        ckpt = tmp_path / "mid.ckpt"
        trainer.save_checkpoint(ckpt, partial)
        resumed = trainer.fit(cfg, tiny_dataset, resume=ckpt)

        for (name, a), (_, b) in zip(full.model.named_parameters(), resumed.model.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)
        for (name, a), (_, b) in zip(full.model.named_buffers(), resumed.model.named_buffers()):
            np.testing.assert_array_equal(a, b, err_msg=name)
        assert resumed.history == full.history[2:]

    def test_stop_after_before_the_start_epoch_rejected(self, tiny_dataset, tmp_path):
        cfg = quick_config(total_epochs=4)
        with pytest.raises(ValueError, match="start epoch"):
            trainer.fit(cfg, tiny_dataset, stop_after=-3)
        partial = trainer.fit(cfg, tiny_dataset, stop_after=2)
        ckpt = tmp_path / "mid.ckpt"
        trainer.save_checkpoint(ckpt, partial)
        with pytest.raises(ValueError, match="start epoch"):
            trainer.fit(cfg, tiny_dataset, resume=ckpt, stop_after=1)
        again = trainer.fit(cfg, tiny_dataset, resume=ckpt, stop_after=2)
        assert (again.next_epoch, again.adam.t, again.history) == (2, partial.adam.t, [])

    def test_resume_with_wrong_config_rejected(self, tiny_dataset, tmp_path):
        cfg = quick_config(total_epochs=2)
        result = trainer.fit(cfg, tiny_dataset, stop_after=1)
        ckpt = tmp_path / "mid.ckpt"
        trainer.save_checkpoint(ckpt, result)
        other = quick_config(total_epochs=2, margin=0.5)
        with pytest.raises(ValueError):
            trainer.fit(other, tiny_dataset, resume=ckpt)

    def test_checkpoint_rebuild_matches_model(self, tiny_dataset, tmp_path):
        result = trainer.fit(quick_config(total_epochs=1), tiny_dataset)
        ckpt = tmp_path / "model.ckpt"
        trainer.save_checkpoint(ckpt, result)
        rebuilt = trainer.model_from_checkpoint(ckpt)
        x = network.normalize_images(tiny_dataset.images[:4])
        rebuilt.eval()
        result.model.eval()
        np.testing.assert_array_equal(rebuilt.inference_embed(x), result.model.inference_embed(x))

    def test_paired_augmentation_across_variants(self, tiny_dataset, monkeypatch):
        # Same master seed => identical augmentation draws per variant.
        seen = {}
        original = synthdata.augment

        def spy(image, cfg, draw):
            out = original(image, cfg, draw)
            seen.setdefault(seen["_variant"], []).append(out.copy())
            return out

        monkeypatch.setattr(synthdata, "augment", spy)
        for variant in ("full", "baseline_bdb", "no_drop"):
            seen["_variant"] = variant
            trainer.fit(quick_config(total_epochs=1, variant=variant), tiny_dataset)
        a, b, c = seen["full"], seen["baseline_bdb"], seen["no_drop"]
        assert len(a) == len(b) == len(c)
        for x, y, z in zip(a, b, c):
            np.testing.assert_array_equal(x, y)
            np.testing.assert_array_equal(x, z)

    def test_write_history_format(self, tiny_dataset, tmp_path):
        result = trainer.fit(quick_config(total_epochs=2, variant="no_drop"), tiny_dataset)
        path = tmp_path / "history.csv"
        trainer.write_history(path, result.history)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,lr,loss_global,loss_drop,loss_reg,loss_total"
        assert len(lines) == 3
        assert lines[1].split(",")[3] == ""  # empty loss_drop column


class TestFloat32Training:
    def test_default_step_holds_no_float64(self, tiny_dataset, monkeypatch):
        cfg = quick_config(total_epochs=1)
        assert cfg.dtype == "float32"
        outputs, grads = [], []
        record_op, adam_step = tc.record_op, trainer.adam_step

        def spy_record(out, parents, backward_fn):
            outputs.append(out.data.dtype)
            return record_op(out, parents, backward_fn)

        def spy_adam(named_params, state, lr):
            grads.extend(p.grad.dtype for _, p in named_params)
            return adam_step(named_params, state, lr)

        monkeypatch.setattr(tc, "record_op", spy_record)
        monkeypatch.setattr(trainer, "adam_step", spy_adam)
        model = trainer.build_model(cfg, tiny_dataset)
        state = trainer.AdamState()
        trainer.train_epoch(model, tiny_dataset, cfg, state, 0)
        f32 = {np.dtype(np.float32)}
        assert outputs and set(outputs) == f32
        assert grads and set(grads) == f32
        assert {p.data.dtype for p in model.parameters()} == f32
        assert {b.dtype for _, b in model.named_buffers()} == f32
        assert state.m and {a.dtype for a in [*state.m.values(), *state.v.values()]} == f32

    def test_default_checkpoint_stores_float32(self, tiny_dataset, tmp_path):
        result = trainer.fit(quick_config(total_epochs=1), tiny_dataset)
        ckpt = tmp_path / "model.ckpt"
        trainer.save_checkpoint(ckpt, result)
        arrays = tc.load_arrays(ckpt)
        stored = {a.dtype for k, a in arrays.items() if k.split(".")[0] in ("param", "buffer", "adam")}
        assert stored == {np.dtype(np.float32)}
        assert any(k.startswith("adam.") for k in arrays)


class TestCheckpointDtype:
    def test_float64_checkpoint_rebuilds_in_float64(self, tiny_dataset, tmp_path):
        result = trainer.fit(quick_config(total_epochs=1, dtype=np.float64), tiny_dataset)
        assert result.config.dtype == "float64"
        ckpt = tmp_path / "model.ckpt"
        trainer.save_checkpoint(ckpt, result)
        rebuilt = trainer.model_from_checkpoint(ckpt)
        assert rebuilt.dtype == np.float64
        assert {p.data.dtype for p in rebuilt.parameters()} == {np.dtype(np.float64)}
        x = network.normalize_images(tiny_dataset.images[:4], np.float64)
        rebuilt.eval()
        result.model.eval()
        np.testing.assert_array_equal(rebuilt.inference_embed(x), result.model.inference_embed(x))
        with pytest.raises(tc.TensorError, match="dtype mismatch"):
            rebuilt.inference_embed(network.normalize_images(tiny_dataset.images[:4]))

    def test_mixed_parameter_dtypes_rejected(self, tiny_dataset, tmp_path):
        result = trainer.fit(quick_config(total_epochs=1), tiny_dataset)
        ckpt = tmp_path / "model.ckpt"
        trainer.save_checkpoint(ckpt, result)
        arrays = tc.load_arrays(ckpt)
        first = next(k for k in arrays if k.startswith("param."))
        arrays[first] = arrays[first].astype(np.float64)
        tc.save_arrays(ckpt, arrays)
        with pytest.raises(ValueError, match="share one"):
            trainer.model_from_checkpoint(ckpt)

    def test_resume_float64_checkpoint_into_float32_config_refused(self, tiny_dataset, tmp_path):
        result = trainer.fit(quick_config(total_epochs=2, dtype="float64"), tiny_dataset, stop_after=1)
        ckpt = tmp_path / "mid.ckpt"
        trainer.save_checkpoint(ckpt, result)
        with pytest.raises(ValueError, match="different configuration"):
            trainer.fit(quick_config(total_epochs=2), tiny_dataset, resume=ckpt)
        resumed = trainer.fit(quick_config(total_epochs=2, dtype="float64"), tiny_dataset, resume=ckpt)
        assert {p.data.dtype for p in resumed.model.parameters()} == {np.dtype(np.float64)}

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            quick_config(dtype="float16")


class TestModelDescription:
    # A value other than the default for every field of the two classes.
    MODEL = dict(variant="no_reg", d_global=12, d_drop=20, dtype="float64")
    BACKBONE = dict(stem_channels=4, stage_channels=(4, 8), strides=(2, 1), input_size=(32, 16))

    def test_every_model_setting_survives_a_checkpoint(self, tmp_path):
        assert set(self.BACKBONE) == {f.name for f in dataclasses.fields(network.BackboneConfig)}
        assert set(self.MODEL) | {"backbone"} == {f.name for f in dataclasses.fields(network.ModelConfig)}
        cfg = network.ModelConfig(backbone=network.BackboneConfig(**self.BACKBONE), **self.MODEL)
        for config in (cfg, cfg.backbone):
            default = type(config)()
            for f in dataclasses.fields(config):
                assert getattr(config, f.name) != getattr(default, f.name), f.name

        model = network.ReidModel(3, cfg)
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(path, trainer.FitResult(model, [], trainer.AdamState(), 0, trainer.TrainConfig()))
        rebuilt = trainer.model_from_checkpoint(path)
        assert rebuilt.cfg == cfg
        x = tc.Tensor(np.random.default_rng(0).uniform(-1, 1, size=(2, 3, 32, 16)))
        np.testing.assert_array_equal(rebuilt.eval().inference_embed(x), model.eval().inference_embed(x))


class TestDatasetFingerprint:
    def test_resume_against_edited_manifest_refused(self, tiny_dataset_dir, tmp_path):
        root = tmp_path / "data"
        shutil.copytree(tiny_dataset_dir, root)
        cfg = quick_config(total_epochs=2)
        result = trainer.fit(cfg, synthdata.load_dataset(root), stop_after=1)
        ckpt = tmp_path / "mid.ckpt"
        trainer.save_checkpoint(ckpt, result)
        trainer.fit(cfg, synthdata.load_dataset(root), resume=ckpt)  # same data resumes

        manifest = root / "manifest.csv"
        lines = manifest.read_text().split("\n")
        row = next(i for i, line in enumerate(lines) if ",gallery," in line)
        pid, cam, split, path = lines[row].split(",")
        lines[row] = ",".join([pid, str(1 - int(cam)), split, path])  # one camera id
        manifest.write_text("\n".join(lines))
        edited = synthdata.load_dataset(root)
        assert edited.fingerprint() != result.dataset_fingerprint
        with pytest.raises(ValueError, match="different dataset"):
            trainer.fit(cfg, edited, resume=ckpt)

    def test_fingerprint_covers_image_size(self, tiny_dataset):
        smaller = synthdata.LoadedDataset(tiny_dataset.records, tiny_dataset.images[:, :16], tiny_dataset.root)
        assert smaller.fingerprint() != tiny_dataset.fingerprint()
        assert tiny_dataset.fingerprint() == synthdata.LoadedDataset(
            list(tiny_dataset.records), tiny_dataset.images.copy(), "elsewhere"
        ).fingerprint()


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """Bytes of a valid checkpoint of an untrained 8x8-input model."""
    backbone = network.BackboneConfig(
        stem_channels=4, stage_channels=(4, 4, 8), strides=(1, 1, 1), input_size=(8, 8)
    )
    cfg = network.ModelConfig(d_global=4, d_drop=4, backbone=backbone)
    result = trainer.FitResult(network.ReidModel(3, cfg), [], trainer.AdamState(), 0, trainer.TrainConfig())
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    trainer.save_checkpoint(path, result)
    return path.read_bytes()


class TestMalformedCheckpoints:
    def _without(self, small_checkpoint, tmp_path, prefix):
        src = tmp_path / "src.ckpt"
        src.write_bytes(small_checkpoint)
        arrays = tc.load_arrays(src)
        dropped = next(k for k in arrays if k.startswith(prefix))
        del arrays[dropped]
        path = tmp_path / "bad.ckpt"
        tc.save_arrays(path, arrays)
        return path

    def test_missing_meta_entry_rejected(self, small_checkpoint, tmp_path):
        path = self._without(small_checkpoint, tmp_path, "meta.")
        with pytest.raises(ValueError, match="meta"):
            trainer.load_checkpoint(path)

    def test_missing_param_entry_rejected(self, small_checkpoint, tmp_path):
        path = self._without(small_checkpoint, tmp_path, "param.")
        with pytest.raises(ValueError, match="missing"):
            trainer.model_from_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda j: j.replace(b'"num_classes"', b'"nul_classes"'), id="renamed_key"),
            pytest.param(lambda j: j.replace(b'"d_drop": 4', b'"d_drop": "4"'), id="string_extent"),
            pytest.param(lambda j: j.replace(b'"d_drop": 4', b'"d_drop": -4'), id="negative_extent"),
            pytest.param(lambda j: j.replace(b'"input_size": [8, 8]', b'"input_size": [8]'), id="short_input_size"),
            pytest.param(lambda j: j.replace(b'"full"', b'"fulm"'), id="unknown_variant"),
            pytest.param(lambda j: j[:-1], id="invalid_json"),
            pytest.param(lambda j: b"[" + j + b"]", id="not_an_object"),
        ],
    )
    def test_bad_model_json_rejected(self, small_checkpoint, tmp_path, edit):
        src = tmp_path / "src.ckpt"
        src.write_bytes(small_checkpoint)
        arrays = tc.load_arrays(src)
        blob = arrays["meta.model_json"].tobytes()
        edited = edit(blob)
        assert edited != blob
        arrays["meta.model_json"] = np.frombuffer(edited, dtype=np.uint8)
        path = tmp_path / "bad.ckpt"
        tc.save_arrays(path, arrays)
        with pytest.raises(ValueError, match="model_json"):
            trainer.model_from_checkpoint(path)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_truncated_or_flipped_byte_loads_or_raises_value_error(self, small_checkpoint, data):
        # Both readers: load_checkpoint, and model_from_checkpoint, which
        # also builds a model from the stored description.
        blob = bytearray(small_checkpoint)
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            i = data.draw(st.integers(0, len(blob) - 1), label="index")
            blob[i] ^= data.draw(st.integers(1, 255), label="xor")
        with tempfile.TemporaryDirectory() as tmp:  # hypothesis rejects tmp_path
            path = os.path.join(tmp, "fuzz.ckpt")
            with open(path, "wb") as f:
                f.write(blob)
            for reader in (trainer.load_checkpoint, trainer.model_from_checkpoint):
                try:
                    reader(path)
                except ValueError:
                    pass
