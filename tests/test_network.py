"""Three-stream model: shapes, streams, necks, losses, variants."""

import numpy as np
import pytest

from topdropnet import network, tensorcore as tc, topdrop

import gradcheck
from oracles import ce_label_smoothing_loops, triplet_batch_hard_loops


def small_model(variant="full", seed=0, num_classes=4):
    backbone = network.BackboneConfig(
        stem_channels=8, stage_channels=(8, 16, 16), strides=(2, 2, 1), input_size=(32, 16)
    )
    cfg = network.ModelConfig(variant=variant, d_global=16, d_drop=16, backbone=backbone, dtype="float64")
    return network.ReidModel(num_classes, cfg, seed=seed)


def toy_images(n=4, size=(32, 16), seed=0):
    rng = np.random.default_rng(seed)
    return tc.Tensor(rng.uniform(-1, 1, size=(n, 3, *size)))


class TestModelDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_images_normalized_in_float64_and_rounded_once(self, dtype):
        pixels = np.repeat(np.arange(256, dtype=np.uint8).reshape(4, 8, 8, 1), 3, axis=3)
        x = network.normalize_images(pixels, dtype)
        expected = ((pixels.astype(np.float64) / 255.0 - 0.5) / 0.5).transpose(0, 3, 1, 2).astype(dtype)
        assert x.dtype == dtype and x.data.flags.c_contiguous
        assert x.data.tobytes() == expected.tobytes()

    def test_float32_is_the_default(self):
        assert network.normalize_images(np.zeros((1, 2, 2, 3), np.uint8)).dtype == np.float32
        model = network.ReidModel(4, network.ModelConfig(), seed=0)
        assert model.dtype == np.float32
        assert {p.data.dtype for p in model.parameters()} | {b.dtype for _, b in model.named_buffers()} == {
            np.dtype(np.float32)
        }

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            network.ModelConfig(dtype=np.int32)


class TestBackbone:
    def test_default_shape_contract(self):
        cfg = network.BackboneConfig()
        assert (cfg.feature_channels(), cfg.feature_height()) == (64, 8)
        model = network.ReidModel(4, network.ModelConfig(dtype="float64"), seed=0)
        rng = np.random.default_rng(0)
        out = model.backbone_forward(tc.Tensor(rng.uniform(-1, 1, size=(2, 3, 64, 32))))
        assert out.shape == (2, 64, 8, 4)

    def test_eval_mode_deterministic(self):
        model = small_model().eval()
        x = toy_images()
        a = model.backbone_forward(x).data
        b = model.backbone_forward(x).data
        np.testing.assert_array_equal(a, b)

    def test_duplicated_images_duplicate_rows(self):
        model = small_model().eval()
        x = toy_images(2)
        doubled = tc.Tensor(np.concatenate([x.data, x.data]))
        out = model.backbone_forward(doubled).data
        np.testing.assert_array_equal(out[:2], out[2:])

    def test_final_stage_must_keep_stride_one(self):
        with pytest.raises(ValueError):
            network.BackboneConfig(strides=(2, 2, 2))

    @pytest.mark.parametrize("field, value", [
        ("stem_channels", 0), ("stage_channels", ()), ("strides", ()), ("strides", (0, 2, 1)),
        ("stage_channels", (16, 32.0, 64)), ("input_size", (64, 0)), ("input_size", [64, 32]),
    ])
    def test_non_positive_or_non_int_extent_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must hold integers >= 1"):
            network.BackboneConfig(**{field: value})

    def test_wrong_input_shape_rejected(self):
        model = small_model().eval()
        with pytest.raises(tc.TensorError):
            model.backbone_forward(toy_images(size=(16, 16)))


class TestBottleneckPair:
    def test_shape_preserved(self):
        model = small_model().eval()
        features = model.backbone_forward(toy_images())
        assert model.bottleneck_pair(features).shape == features.shape

    def test_identity_at_initialization(self):
        # Final batch-norm scales start at zero, so the refined tensor
        # equals the (non-negative) backbone output exactly.
        model = small_model().eval()
        features = model.backbone_forward(toy_images())
        refined = model.bottleneck_pair(features)
        np.testing.assert_array_equal(refined.data, features.data)

    def test_gradients_reach_both_branches(self):
        model = small_model(seed=3)
        model.train()
        for _, p in model.named_parameters():  # leave the degenerate zero init
            p.data += 0.05
        x = toy_images(seed=5)
        with tc.Tape() as tape:
            refined = model.bottleneck_pair(model.backbone_forward(x))
            loss = tc.mean_all(refined)
        tc.backward(loss, tape)
        block = model.refine[0]
        assert block.conv2.weight.grad is not None and np.any(block.conv2.weight.grad != 0)
        assert model.backbone.stem_conv.weight.grad is not None
        assert np.any(model.backbone.stem_conv.weight.grad != 0)


class TestStreams:
    def test_global_stream_constant_input_pools_constant(self):
        model = small_model().eval()
        c = model.cfg.backbone.feature_channels()
        constant = tc.Tensor(np.tile(np.arange(1.0, c + 1.0)[None, :, None, None], (2, 1, 4, 2)))
        pooled = tc.global_avg_pool(constant).data
        np.testing.assert_allclose(pooled, np.tile(np.arange(1.0, c + 1.0), (2, 1)))
        out = model.global_stream(constant)
        assert out.triplet_feature.shape == (2, model.cfg.d_global)

    def test_global_stream_spatial_permutation_invariant(self):
        model = small_model().eval()
        rng = np.random.default_rng(0)
        f = rng.normal(size=(1, model.cfg.backbone.feature_channels(), 4, 2))
        perm = rng.permutation(8)
        shuffled = f.reshape(1, -1, 8)[:, :, perm].reshape(f.shape)
        a = model.global_stream(tc.Tensor(f)).triplet_feature.data
        b = model.global_stream(tc.Tensor(shuffled)).triplet_feature.data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_drop_stream_eval_ignores_masks(self):
        model = small_model().eval()
        g = tc.Tensor(np.random.default_rng(1).normal(size=(2, 16, 4, 2)))
        mask = np.array([[True, False, False, False]] * 2)
        with_mask = model.topdrop_stream(g, mask).triplet_feature.data
        without = model.topdrop_stream(g).triplet_feature.data
        np.testing.assert_array_equal(with_mask, without)

    def test_drop_stream_identity_mask_matches_eval_feature(self):
        model = small_model()
        g = tc.Tensor(np.random.default_rng(2).normal(size=(2, 16, 4, 2)))
        model.train()
        ones = np.zeros((2, 4), dtype=bool)
        train_feature = model.topdrop_stream(g, ones).triplet_feature.data
        model.eval()
        eval_feature = model.topdrop_stream(g).triplet_feature.data
        np.testing.assert_array_equal(train_feature, eval_feature)

    def test_dropping_never_increases_max_pooled_channel(self):
        model = small_model()
        model.train()
        rng = np.random.default_rng(3)
        g = np.abs(rng.normal(size=(3, 16, 4, 2)))  # ReLU-positive case
        full_pool = tc.global_max_pool(tc.Tensor(g)).data
        for row in range(4):
            mask = np.zeros((3, 4), dtype=bool)
            mask[:, row] = True
            masked = tc.global_max_pool(topdrop.apply_mask(tc.Tensor(g), mask)).data
            assert np.all(masked <= full_pool + 1e-15)

    def test_reg_stream_train_only_and_constant_pooling(self):
        full = small_model("full").eval()
        no_reg = small_model("no_reg").eval()
        x = toy_images()
        assert full.inference_embed(x).shape == no_reg.inference_embed(x).shape
        g = tc.Tensor(np.full((2, 16, 4, 2), 3.25))
        np.testing.assert_allclose(full.reg_stream(g).triplet_feature.data, 3.25)

    def test_no_drop_variant_produces_two_stream_triples(self):
        model = small_model("no_drop")
        model.train()
        outputs = model.forward_train(toy_images())
        assert set(outputs) == {"global", "reg"}


class TestNeck:
    def test_classifier_has_no_bias(self):
        model = small_model(num_classes=7)
        head = model.global_head
        params = dict(head.classifier.named_parameters())
        assert list(params) == ["weight"]
        assert params["weight"].size == model.cfg.d_global * 7

    def test_eval_neck_is_affine(self):
        model = small_model().eval()
        head = model.global_head
        rng = np.random.default_rng(0)
        head.bn.running_mean[:] = rng.normal(size=16)
        head.bn.running_var[:] = rng.uniform(0.5, 2.0, size=16)
        x1 = rng.normal(size=(2, 16))
        x2 = rng.normal(size=(2, 16))
        alpha = 0.3
        mixed = head(tc.Tensor(alpha * x1 + (1 - alpha) * x2)).neck_feature.data
        separate = alpha * head(tc.Tensor(x1)).neck_feature.data + (1 - alpha) * head(tc.Tensor(x2)).neck_feature.data
        np.testing.assert_allclose(mixed, separate, atol=1e-10)

    def test_logits_extent_is_num_classes(self):
        model = small_model(num_classes=5).eval()
        out = model.global_stream(tc.Tensor(np.random.default_rng(0).normal(size=(3, 16, 4, 2))))
        assert out.logits.shape == (3, 5)


class TestCrossEntropyLabelSmoothing:
    def test_confident_correct_is_near_zero(self):
        logits = tc.astensor([[10.0, -10.0]])
        assert network.ce_label_smoothing(logits, [0], epsilon=0.0).item() < 1e-4

    def test_uniform_logits_give_log_k(self):
        k = 7
        logits = tc.astensor(np.zeros((3, k)))
        loss = network.ce_label_smoothing(logits, [0, 3, 6], epsilon=0.0)
        assert abs(loss.item() - np.log(k)) < 1e-12

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 10))
        labels = rng.integers(0, 10, size=6)
        got = network.ce_label_smoothing(tc.astensor(logits), labels, epsilon=0.1).item()
        assert abs(got - ce_label_smoothing_loops(logits, labels, 0.1)) < 1e-9

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            network.ce_label_smoothing(tc.astensor(np.zeros((2, 3))), [0, 3])


class TestTripletBatchHard:
    def test_separated_clusters_zero_loss(self):
        feats = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [10.0, 0.0]])
        loss = network.triplet_batch_hard(tc.astensor(feats), [0, 0, 1, 1], margin=0.3)
        assert loss.item() == 0.0

    def test_identical_features_give_margin(self):
        feats = np.zeros((4, 3))
        loss = network.triplet_batch_hard(tc.astensor(feats), [0, 0, 1, 1], margin=0.25)
        assert abs(loss.item() - 0.25) < 1e-12

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            feats = rng.normal(size=(6, 4))
            ids = np.repeat(np.arange(3), 2)
            got = network.triplet_batch_hard(tc.astensor(feats), ids, margin=0.3).item()
            assert abs(got - triplet_batch_hard_loops(feats, ids, 0.3)) < 1e-9

    def test_single_instance_id_rejected(self):
        with pytest.raises(ValueError):
            network.triplet_batch_hard(tc.astensor(np.zeros((3, 2))), [0, 0, 1])

    def test_single_id_batch_rejected(self):
        with pytest.raises(ValueError):
            network.triplet_batch_hard(tc.astensor(np.zeros((4, 2))), [3, 3, 3, 3])


class TestTotalLoss:
    def _outputs(self, model, variant, seed=0):
        model.train()
        x = toy_images(seed=seed)
        mask_fn = None
        if network.VARIANTS[variant].mask != "none":
            mask_fn = lambda features: topdrop.masks_from_features(features.data, topdrop.DropConfig(0.3))
        return model.forward_train(x, mask_fn)

    def test_full_variant_has_three_streams_of_two_terms(self):
        model = small_model("full")
        outputs = self._outputs(model, "full")
        labels = [0, 0, 1, 1]
        total, metrics = network.total_loss(outputs, labels)
        assert set(metrics) == {"loss_global", "loss_drop", "loss_reg", "loss_total"}
        assert abs(metrics["loss_total"] - sum(metrics[k] for k in ("loss_global", "loss_drop", "loss_reg"))) < 1e-9
        # Each stream term is CE + triplet computed on that stream alone.
        for name, stream in outputs.items():
            ce = network.ce_label_smoothing(stream.logits, labels, 0.1).item()
            tri = network.triplet_batch_hard(stream.triplet_feature, labels, 0.3).item()
            assert abs(metrics[f"loss_{name}"] - (ce + tri)) < 1e-9

    def test_no_reg_variant_has_two_streams(self):
        model = small_model("no_reg")
        outputs = self._outputs(model, "no_reg")
        _, metrics = network.total_loss(outputs, [0, 0, 1, 1])
        assert set(metrics) == {"loss_global", "loss_drop", "loss_total"}

    def test_additivity_of_stream_removal(self):
        model = small_model("full")
        outputs = self._outputs(model, "full")
        labels = [0, 0, 1, 1]
        total, metrics = network.total_loss(outputs, labels)
        reduced = {k: v for k, v in outputs.items() if k != "reg"}
        partial, _ = network.total_loss(reduced, labels)
        assert abs((total.item() - partial.item()) - metrics["loss_reg"]) < 1e-9

    def test_batch_permutation_leaves_loss_unchanged(self):
        model = small_model("no_drop")
        model.train()
        rng = np.random.default_rng(4)
        x = toy_images(6, seed=9)
        labels = np.array([0, 0, 1, 1, 2, 2])
        total1, _ = network.total_loss(model.forward_train(x), labels)
        perm = rng.permutation(6)
        x2 = tc.Tensor(x.data[perm])
        total2, _ = network.total_loss(model.forward_train(x2), labels[perm])
        assert abs(total1.item() - total2.item()) < 1e-9


class TestInferenceEmbed:
    def test_default_dims_concatenate_to_256(self):
        model = network.ReidModel(4, network.ModelConfig(dtype="float64"), seed=0).eval()
        rng = np.random.default_rng(0)
        x = tc.Tensor(rng.uniform(-1, 1, size=(2, 3, 64, 32)))
        assert model.inference_embed(x).shape == (2, 256)

    def test_no_drop_uses_global_plus_regularizer(self):
        model = small_model("no_drop").eval()
        x = toy_images()
        embed = model.inference_embed(x)
        # d_global + backbone channels (reg stream keeps dimension c).
        assert embed.shape == (4, 16 + 16)
        np.testing.assert_array_equal(
            embed[:, :16], model.global_stream(model.backbone_forward(x)).neck_feature.data
        )

    def test_identical_images_identical_embeddings(self):
        model = small_model().eval()
        x = toy_images(1)
        pair = tc.Tensor(np.concatenate([x.data, x.data]))
        embed = model.inference_embed(pair)
        np.testing.assert_array_equal(embed[0], embed[1])

    def test_train_mode_rejected(self):
        model = small_model()
        model.train()
        with pytest.raises(tc.TensorError):
            model.inference_embed(toy_images())

    def test_eval_purity_bitwise_repeatable(self):
        model = small_model().eval()
        x = toy_images()
        np.testing.assert_array_equal(model.inference_embed(x), model.inference_embed(x))

    @pytest.mark.parametrize("variant", ["full", "no_drop"])
    def test_chunks_embed_byte_equal_to_the_whole_batch(self, variant):
        """An image's embedding does not depend on the images embedded
        beside it, so a split may be embedded in chunks of any size."""
        model = network.ReidModel(4, network.ModelConfig(variant=variant), seed=0).eval()
        rng = np.random.default_rng(1)
        for p in model.parameters():  # move off the zero-initialized scales
            p.data += rng.normal(scale=0.1, size=p.shape).astype(p.dtype)
        for _, b in model.named_buffers():
            b[...] = rng.uniform(0.5, 1.5, size=b.shape)
        pixels = rng.integers(0, 256, size=(40, 64, 32, 3), dtype=np.uint8)
        whole = model.inference_embed(network.normalize_images(pixels))
        for size in (1, 7, 32):
            parts = [model.inference_embed(network.normalize_images(pixels[i : i + size])) for i in range(0, 40, size)]
            assert np.concatenate(parts).tobytes() == whole.tobytes(), size


class TestVariantAlgebra:
    def test_active_stream_subsets(self):
        trained = {name: set(v.trained) for name, v in network.VARIANTS.items()}
        assert trained["full"] == set(network.STREAMS)
        assert trained["no_drop"] < trained["full"]
        assert trained["no_reg"] < trained["full"]
        assert trained["baseline_bdb"] == trained["full"]
        for v in network.VARIANTS.values():
            assert set(v.embedded) <= set(v.trained)
            assert (v.mask == "none") == ("drop" not in v.trained)

    def test_baseline_differs_only_in_mask_construction(self):
        full = small_model("full", seed=11)
        baseline = small_model("baseline_bdb", seed=11)
        names_full = [n for n, _ in full.named_parameters()]
        names_base = [n for n, _ in baseline.named_parameters()]
        assert names_full == names_base
        for (_, a), (_, b) in zip(full.named_parameters(), baseline.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        full_variant, baseline_variant = network.VARIANTS["full"], network.VARIANTS["baseline_bdb"]
        assert (full_variant.mask, baseline_variant.mask) == ("top", "random")
        assert full_variant.trained == baseline_variant.trained
        assert full_variant.embedded == baseline_variant.embedded

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            network.ModelConfig(variant="dropless")

    @pytest.mark.parametrize("field, value", [
        ("d_global", 0), ("d_drop", -1), ("d_global", 2.0), ("d_drop", True), ("d_global", np.int64(8)),
    ])
    def test_non_positive_or_non_int_width_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must hold integers >= 1"):
            network.ModelConfig(**{field: value})


class TestEndToEndGradient:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_full_loss_every_parameter(self, seed):
        checked, rechecked, failures = gradcheck.full_loss_grad_check(seed)
        assert checked > 500
        assert not failures, failures[:5]
