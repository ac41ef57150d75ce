"""Synthetic benchmark generation, augmentation, PK sampling, manifest I/O."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import augment_reference
from topdropnet import ppm, rng as rng_mod, synthdata


class TestGeneration:
    def test_bitwise_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        kwargs = dict(num_ids=6, num_cams=2, imgs_per_id_per_cam=2, occlusion_prob=0.3, size=(32, 16), seed=11)
        ra = synthdata.generate_dataset(a, **kwargs)
        rb = synthdata.generate_dataset(b, **kwargs)
        assert ra == rb
        for r in ra:
            assert (a / r.image_path).read_bytes() == (b / r.image_path).read_bytes()
        assert (a / "manifest.csv").read_text() == (b / "manifest.csv").read_text()

    def test_zero_occlusion_means_no_reserved_gray(self, tmp_path):
        records = synthdata.generate_dataset(
            tmp_path / "d", num_ids=6, num_cams=2, imgs_per_id_per_cam=2, occlusion_prob=0.0, size=(32, 16), seed=2
        )
        for r in records:
            img = ppm.read_ppm(tmp_path / "d" / r.image_path)
            assert not np.any(np.all(img == synthdata.OCCLUDER_GRAY, axis=2))

    def test_high_occlusion_paints_reserved_gray(self, tmp_path):
        records = synthdata.generate_dataset(
            tmp_path / "d", num_ids=6, num_cams=2, imgs_per_id_per_cam=2, occlusion_prob=1.0, size=(32, 16), seed=2
        )
        hits = 0
        for r in records:
            img = ppm.read_ppm(tmp_path / "d" / r.image_path)
            hits += np.any(np.all(img == synthdata.OCCLUDER_GRAY, axis=2))
        assert hits == len(records)

    def test_counts_and_layout(self, tmp_path):
        records = synthdata.generate_dataset(
            tmp_path / "d", num_ids=32, num_cams=4, imgs_per_id_per_cam=4, occlusion_prob=0.0, size=(32, 16), seed=1
        )
        assert len(records) == 32 * 4 * 4
        listing = sorted(os.listdir(tmp_path / "d" / "images"))
        assert len(listing) == 512
        assert listing[0] == "000_00_00.ppm"

    def test_split_rule(self, tmp_path):
        records = synthdata.generate_dataset(
            tmp_path / "d", num_ids=8, num_cams=2, imgs_per_id_per_cam=3, occlusion_prob=0.0, size=(32, 16), seed=5
        )
        train_ids = {r.person_id for r in records if r.split == "train"}
        eval_ids = {r.person_id for r in records if r.split != "train"}
        assert train_ids == set(range(4)) and eval_ids == set(range(4, 8))
        for pid in eval_ids:
            for cam in range(2):
                group = [r for r in records if r.person_id == pid and r.camera_id == cam]
                assert sum(1 for r in group if r.split == "query") == 1
                assert sum(1 for r in group if r.split == "gallery") == 2

    def test_identity_separability(self, tmp_path):
        # Mean pixel distance between different ids must exceed mean
        # distance between same-id images across cameras.
        root = tmp_path / "d"
        records = synthdata.generate_dataset(
            root, num_ids=8, num_cams=2, imgs_per_id_per_cam=2, occlusion_prob=0.0, size=(32, 16), seed=9
        )
        images = {i: ppm.read_ppm(root / r.image_path).astype(np.float64) for i, r in enumerate(records)}
        same, diff = [], []
        for i, ri in enumerate(records):
            for j, rj in enumerate(records):
                if j <= i:
                    continue
                d = np.abs(images[i] - images[j]).mean()
                if ri.person_id == rj.person_id and ri.camera_id != rj.camera_id:
                    same.append(d)
                elif ri.person_id != rj.person_id:
                    diff.append(d)
        assert np.mean(diff) > np.mean(same)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            synthdata.generate_dataset(tmp_path / "x", num_ids=2)
        with pytest.raises(ValueError):
            synthdata.generate_dataset(tmp_path / "y", num_cams=1)

    @pytest.mark.parametrize("setting, message", [
        (dict(num_ids=2), "need at least 4 identities"),
        (dict(num_cams=1), "need at least 2 cameras"),
        (dict(imgs_per_id_per_cam=0), "need at least one image"),
        (dict(occlusion_prob=1.5), "occlusion_prob must be in"),
        (dict(occlusion_prob=-0.1), "occlusion_prob must be in"),
        (dict(occlusion_prob=float("nan")), "occlusion_prob must be in"),
        (dict(size=(0, 16)), "both >= 1"),
        (dict(size=(32, 0)), "both >= 1"),
        (dict(size=(32,)), "both >= 1"),
    ])
    def test_bad_setting_rejected_before_anything_is_written(self, tmp_path, setting, message):
        with pytest.raises(ValueError, match=message):
            synthdata.generate_dataset(tmp_path / "x", **setting)
        assert not (tmp_path / "x").exists()

    def test_any_two_identities_separated_somewhere(self):
        identities = synthdata._sample_identities(10, rng_mod.generator(4, "identity"))
        for i in range(10):
            for j in range(i + 1, 10):
                a = np.array(identities[i].band_colors)
                b = np.array(identities[j].band_colors)
                assert np.abs(a - b).max() >= synthdata.MIN_COLOR_GAP


class TestAugment:
    def _cfg(self, **kwargs):
        defaults = dict(flip_prob=0.0, zoom_range=(1.0, 1.0), erase_prob=0.0)
        defaults.update(kwargs)
        return synthdata.AugmentationConfig(**defaults)

    def test_identity_when_disabled(self):
        img = np.random.default_rng(0).uniform(0, 255, size=(16, 8, 3))
        out = synthdata.augment(img, self._cfg(), rng_mod.generator(0, "a"))
        np.testing.assert_array_equal(out, img)

    def test_forced_flip_is_involution(self):
        img = np.random.default_rng(1).uniform(0, 255, size=(16, 8, 3))
        cfg = self._cfg(flip_prob=1.0)
        once = synthdata.augment(img, cfg, rng_mod.generator(1, "a"))
        twice = synthdata.augment(once, cfg, rng_mod.generator(2, "a"))
        np.testing.assert_array_equal(twice, img)

    def test_forced_erase_zeroes_rectangle_and_keeps_rest(self):
        img = np.random.default_rng(2).uniform(1, 255, size=(16, 8, 3))
        cfg = self._cfg(erase_prob=1.0)
        out = synthdata.augment(img, cfg, rng_mod.generator(3, "a"))
        erased = np.all(out == 0.0, axis=2)
        assert erased.any()
        rows = np.flatnonzero(erased.any(axis=1))
        cols = np.flatnonzero(erased.any(axis=0))
        block = np.zeros_like(erased)
        block[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1] = True
        np.testing.assert_array_equal(erased, block)  # exactly one rectangle
        np.testing.assert_array_equal(out[~erased], img[~erased])

    def test_zoom_preserves_shape(self):
        img = np.random.default_rng(3).uniform(0, 255, size=(16, 8, 3))
        cfg = self._cfg(zoom_range=(0.8, 1.2))
        for seed in range(10):
            out = synthdata.augment(img, cfg, rng_mod.generator(seed, "z"))
            assert out.shape == img.shape

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31))
    def test_never_changes_dimensions(self, seed):
        img = np.random.default_rng(seed % 100).uniform(0, 255, size=(12, 6, 3))
        cfg = synthdata.AugmentationConfig()
        out = synthdata.augment(img, cfg, rng_mod.generator(seed, "p"))
        assert out.shape == img.shape

    def test_draw_sequence_deterministic(self):
        img = np.random.default_rng(4).uniform(0, 255, size=(16, 8, 3))
        cfg = synthdata.AugmentationConfig()
        a = synthdata.augment(img, cfg, rng_mod.generator(9, "d"))
        b = synthdata.augment(img, cfg, rng_mod.generator(9, "d"))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "cfg",
        [
            synthdata.AugmentationConfig(),
            synthdata.AugmentationConfig(flip_prob=1.0, zoom_range=(0.5, 0.95), erase_prob=0.0),  # shrink, pad
            synthdata.AugmentationConfig(flip_prob=0.0, zoom_range=(1.05, 1.7), erase_prob=1.0),  # grow, crop
            synthdata.AugmentationConfig(flip_prob=0.3, zoom_range=(0.2, 2.5), erase_prob=0.7,
                                         erase_area=(0.1, 0.5), erase_aspect=(0.5, 2.0)),
        ],
    )
    @pytest.mark.parametrize("shape", [(64, 32, 3), (17, 9, 3)])
    def test_byte_equal_to_the_materialized_reference(self, cfg, shape):
        """The cached plans give the bytes and consume the draws of a
        flip, full resize and center fit done image by image."""
        pixels = np.random.default_rng(shape[0]).integers(0, 256, size=(12,) + shape, dtype=np.uint8)
        ours, ref = rng_mod.generator(5, "plan"), rng_mod.generator(5, "plan")
        for img in list(pixels) + [pixels[0].astype(np.float64) + 0.25]:
            a, b = synthdata.augment(img, cfg, ours), augment_reference(img, cfg, ref)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert ours.uniform() == ref.uniform()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            synthdata.AugmentationConfig(flip_prob=1.5)
        with pytest.raises(ValueError):
            synthdata.AugmentationConfig(zoom_range=(1.2, 0.8))


class TestPKSampling:
    def _manifest(self, ids=8, per_id=6):
        records = []
        for pid in range(ids):
            for k in range(per_id):
                records.append(synthdata.SampleRecord(pid, k % 2, "train", f"img{pid}_{k}.ppm"))
        records.append(synthdata.SampleRecord(99, 0, "query", "q.ppm"))
        return records

    def test_batch_contract(self):
        manifest = self._manifest()
        spec = synthdata.BatchSpec(p=8, k=4)
        batch = synthdata.epoch_batches(manifest, spec, seed=1, epoch=0)[0]
        assert batch.size == 32
        pids = [manifest[i].person_id for i in batch]
        assert len(set(pids)) == 8
        for pid in set(pids):
            assert pids.count(pid) == 4
        assert len(set(batch.tolist())) == 32  # distinct images

    def test_every_id_has_at_least_two_instances(self):
        manifest = self._manifest()
        spec = synthdata.BatchSpec(p=4, k=2)
        for epoch in range(3):
            for batch in synthdata.epoch_batches(manifest, spec, seed=3, epoch=epoch):
                pids = [manifest[i].person_id for i in batch]
                for pid in set(pids):
                    assert pids.count(pid) >= 2

    def test_epoch_covers_every_train_id(self):
        manifest = self._manifest(ids=10)
        spec = synthdata.BatchSpec(p=4, k=2)
        batches = synthdata.epoch_batches(manifest, spec, seed=5, epoch=0)
        assert len(batches) == synthdata.batches_per_epoch(manifest, spec) == 3
        seen = {manifest[i].person_id for batch in batches for i in batch}
        assert seen == set(range(10))

    def test_short_final_chunk_padded_without_duplicates(self):
        manifest = self._manifest(ids=10)
        spec = synthdata.BatchSpec(p=4, k=2)
        for epoch in range(5):
            for batch in synthdata.epoch_batches(manifest, spec, seed=7, epoch=epoch):
                pids = [manifest[i].person_id for i in batch]
                assert len(set(pids)) == 4

    # Every caller of the sampler's preconditions, as model_config is one.
    CALLS = {
        "epoch_batches": lambda manifest, spec: synthdata.epoch_batches(manifest, spec, seed=1, epoch=0),
        "batches_per_epoch": synthdata.batches_per_epoch,
        "pk_groups": synthdata.pk_groups,
    }

    @pytest.mark.parametrize("call", CALLS)
    def test_insufficient_ids_rejected(self, call):
        manifest = self._manifest(ids=3)
        with pytest.raises(ValueError, match="need >= 4 train ids, got 3"):
            self.CALLS[call](manifest, synthdata.BatchSpec(p=4, k=2))

    @pytest.mark.parametrize("call", CALLS)
    def test_insufficient_images_rejected(self, call):
        manifest = self._manifest(ids=8, per_id=2)
        with pytest.raises(ValueError, match="id 0 has 2 images, needs >= 3"):
            self.CALLS[call](manifest, synthdata.BatchSpec(p=4, k=3))

    def test_batch_spec_validation(self):
        with pytest.raises(ValueError):
            synthdata.BatchSpec(p=1, k=4)
        with pytest.raises(ValueError):
            synthdata.BatchSpec(p=4, k=1)

    def test_deterministic_per_position(self):
        manifest = self._manifest()
        spec = synthdata.BatchSpec(p=4, k=2)
        a = synthdata.epoch_batches(manifest, spec, seed=11, epoch=2)
        b = synthdata.epoch_batches(manifest, spec, seed=11, epoch=2)
        assert len(a) == len(b) == 2
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        records = [
            synthdata.SampleRecord(1, 0, "train", "images/a.ppm"),
            synthdata.SampleRecord(2, 1, "query", "images/b.ppm"),
            synthdata.SampleRecord(2, 0, "gallery", "images/c.ppm"),
        ]
        path = tmp_path / "manifest.csv"
        synthdata.save_manifest(records, path)
        assert synthdata.load_manifest(path) == records

    def test_empty_manifest_is_header_only(self, tmp_path):
        path = tmp_path / "manifest.csv"
        synthdata.save_manifest([], path)
        assert path.read_text().strip() == "person_id,camera_id,split,image_path"
        assert synthdata.load_manifest(path) == []

    def test_unknown_split_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("person_id,camera_id,split,image_path\n1,0,test,images/a.ppm\n")
        with pytest.raises(ValueError, match="line 2"):
            synthdata.load_manifest(path)

    def test_bad_integer_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("person_id,camera_id,split,image_path\n1,0,train,ok.ppm\nx,0,train,bad.ppm\n")
        with pytest.raises(ValueError, match="line 3"):
            synthdata.load_manifest(path)

    @pytest.mark.parametrize("image_path", ["/etc/passwd", "../outside.ppm", "images/../../outside.ppm", "", "images/.."])
    def test_path_leaving_the_dataset_rejected(self, tmp_path, image_path):
        path = tmp_path / "manifest.csv"
        path.write_text(f"person_id,camera_id,split,image_path\n1,0,train,ok.ppm\n2,0,train,{image_path}\n")
        with pytest.raises(ValueError, match="line 3.*inside the dataset"):
            synthdata.load_manifest(path)

    def test_dotdot_inside_the_dataset_accepted(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("person_id,camera_id,split,image_path\n1,0,train,images/../images/a.ppm\n")
        assert synthdata.load_manifest(path)[0].image_path == "images/../images/a.ppm"


class TestPPM:
    def test_ppm_round_trip(self, tmp_path):
        img = np.random.default_rng(0).integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        ppm.write_ppm(path, img)
        np.testing.assert_array_equal(ppm.read_ppm(path), img)

    def test_pgm_round_trip(self, tmp_path):
        img = np.random.default_rng(1).integers(0, 256, size=(5, 6), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        ppm.write_pgm(path, img)
        np.testing.assert_array_equal(ppm.read_pgm(path), img)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(ValueError):
            ppm.read_ppm(path)

    @pytest.mark.parametrize("read, magic, channels", [(ppm.read_ppm, b"P6", 3), (ppm.read_pgm, b"P5", 1)])
    @pytest.mark.parametrize("size", [b"0 4", b"4 0", b"-2 -2", b"-2 2"])
    def test_non_positive_size_rejected(self, tmp_path, read, magic, channels, size):
        path = tmp_path / "empty.img"
        path.write_bytes(magic + b"\n" + size + b"\n255\n" + bytes(16 * channels))
        with pytest.raises(ValueError, match="non-positive image size"):
            read(path)

    @pytest.mark.parametrize("read, magic, channels", [(ppm.read_ppm, b"P6", 3), (ppm.read_pgm, b"P5", 1)])
    @pytest.mark.parametrize("size, pixels", [(b"99999999 99999999", 16), (b"4 4", 15), (b"4 4", 0)])
    def test_size_beyond_the_file_rejected(self, tmp_path, read, magic, channels, size, pixels):
        # Checked against the bytes left before reading: a huge header
        # raises ValueError, not MemoryError.
        path = tmp_path / "short.img"
        path.write_bytes(magic + b"\n" + size + b"\n255\n" + bytes(pixels * channels))
        with pytest.raises(ValueError, match="truncated pixel data"):
            read(path)

    @pytest.mark.parametrize("read, magic, channels", [(ppm.read_ppm, b"P6", 3), (ppm.read_pgm, b"P5", 1)])
    @pytest.mark.parametrize("header", [b"2 2 255 7\n", b"2 2\n255 7\n", b"2 2 255 7 # maxval 255\n"])
    def test_extra_header_field_rejected(self, tmp_path, read, magic, channels, header):
        path = tmp_path / "extra.img"
        path.write_bytes(magic + b"\n" + header + bytes(4 * channels))
        with pytest.raises(ValueError, match="header has 4 fields"):
            read(path)
