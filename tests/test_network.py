"""Three-stream model: shapes, streams, necks, losses, variants."""

import numpy as np
import pytest

from topdropnet import evaluation, network, synthdata, tensorcore as tc, topdrop

import gradcheck
from oracles import (
    batchnorm_eval_reference,
    batchnorm_train_reference,
    ce_label_smoothing_loops,
    conv2d_reference,
    maxpool2d_reference,
    triplet_batch_hard_loops,
)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pixel_dtype", [np.float32, np.float64])
    def test_float_pixels_take_the_arithmetic(self, dtype, pixel_dtype):
        # Training's augmented batch: floats between the uint8 levels.
        pixels = np.random.default_rng(0).uniform(0, 255, size=(3, 8, 4, 3)).astype(pixel_dtype)
        x = network.normalize_images(pixels, dtype)
        expected = ((pixels.astype(np.float64) / 255.0 - 0.5) / 0.5).transpose(0, 3, 1, 2).astype(dtype)
        assert x.dtype == dtype and x.data.flags.c_contiguous
        assert x.data.tobytes() == expected.tobytes()

    def test_embed_split_pools_the_stem_before_its_relu(self, tmp_path):
        # Both modes max-pool the stem before its relu (tc.maxpool2d, which
        # raises on a NaN): eval pools the folded conv's output and then
        # shifts and takes the relu of the pooled values in shift_channels,
        # to the bytes of shift, relu and max-pool (tests/test_tensorcore.py,
        # TestShiftTails). Here a split embeds through the eval stem.
        synthdata.generate_dataset(tmp_path, num_ids=4, num_cams=2, imgs_per_id_per_cam=2, size=(64, 32), seed=0)
        dataset = synthdata.load_dataset(tmp_path)
        model = network.ReidModel(4, network.ModelConfig(), seed=0)
        assert np.isfinite(evaluation.embed_split(model, dataset, "query").features).all()

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
        ("stage_channels", 16), ("strides", 2), ("input_size", 64), ("stem_channels", (16,)),
    ])
    def test_non_positive_or_non_int_extent_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must hold integers >= 1"):
            network.BackboneConfig(**{field: value})

    @pytest.mark.parametrize("value", [(64,), (64, 32, 5)])
    def test_input_size_other_than_height_width_rejected(self, value):
        with pytest.raises(ValueError, match=r"input_size must be \(height, width\)"):
            network.BackboneConfig(input_size=value)

    def test_wrong_input_shape_rejected(self):
        model = small_model().eval()
        with pytest.raises(tc.TensorError):
            model.backbone_forward(toy_images(size=(16, 16)))


class TestConvTails:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("relu, residual", [(False, False), (True, True)], ids=["no_relu", "residual"])
    def test_a_conv_that_pools_takes_any_relu_and_residual(self, training, relu, residual):
        # Conv, batch norm, max-pool, add, relu, in this order in both modes.
        model = small_model()
        conv, bn = model.backbone.stem_conv, model.backbone.stem_bn
        rng = np.random.default_rng(1)
        bn.running_mean[...] = rng.normal(scale=0.2, size=bn.running_mean.shape)
        bn.running_var[...] = rng.uniform(0.5, 1.5, size=bn.running_var.shape)
        model.train(training)
        x = toy_images()
        stats = (bn.gamma.data, bn.beta.data, bn.running_mean.copy(), bn.running_var.copy())
        y, _ = conv2d_reference(x.data, conv.weight.data, 1, 1)
        if training:
            y, _ = batchnorm_train_reference(y, *stats, tc.BATCHNORM_MOMENTUM, tc.BATCHNORM_EPS)
        else:
            y = batchnorm_eval_reference(y, *stats, tc.BATCHNORM_EPS)
        y, _ = maxpool2d_reference(y, 2)
        shortcut = rng.normal(size=y.shape) if residual else None
        if residual:
            y = y + shortcut
        if relu:
            y = np.maximum(y, 0.0)
        assert (y < 0).any() != relu
        out = conv(x, relu=relu, residual=tc.Tensor(shortcut.copy()) if residual else None, pool=2)
        np.testing.assert_allclose(out.data, y, rtol=1e-12, atol=1e-12)


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
            loss = tc.sum_all(refined)
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
        assert out.neck_feature.shape == (2, model.cfg.d_global)
        assert out.triplet_feature is None and out.logits is None  # eval mode computes neither

    def test_global_stream_spatial_permutation_invariant(self):
        model = small_model().eval()
        rng = np.random.default_rng(0)
        f = rng.normal(size=(1, model.cfg.backbone.feature_channels(), 4, 2))
        perm = rng.permutation(8)
        shuffled = f.reshape(1, -1, 8)[:, :, perm].reshape(f.shape)
        a = model.global_stream(tc.Tensor(f)).neck_feature.data
        b = model.global_stream(tc.Tensor(shuffled)).neck_feature.data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_drop_stream_eval_ignores_masks(self):
        model = small_model().eval()
        g = tc.Tensor(np.random.default_rng(1).normal(size=(2, 16, 4, 2)))
        mask = np.array([[True, False, False, False]] * 2)
        with_mask = model.topdrop_stream(g, mask).neck_feature.data
        without = model.topdrop_stream(g).neck_feature.data
        np.testing.assert_array_equal(with_mask, without)

    def test_drop_stream_identity_mask_matches_eval_feature(self):
        # An empty mask drops nothing, and the eval neck is the running-
        # statistics map of the feature the train-mode reduce gives.
        model = small_model()
        g = tc.Tensor(np.random.default_rng(2).normal(size=(2, 16, 4, 2)))
        model.train()
        none_dropped = np.zeros((2, 4), dtype=bool)
        train_feature = model.topdrop_stream(g, none_dropped).triplet_feature.data
        np.testing.assert_array_equal(train_feature, model.topdrop_stream(g).triplet_feature.data)
        model.eval()
        bn = model.drop_head.bn
        expected = batchnorm_eval_reference(
            train_feature, bn.gamma.data, bn.beta.data, bn.running_mean, bn.running_var, tc.BATCHNORM_EPS
        )
        np.testing.assert_allclose(model.topdrop_stream(g).neck_feature.data, expected, rtol=1e-12, atol=1e-12)

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
        np.testing.assert_allclose(small_model("full").reg_stream(g).triplet_feature.data, 3.25)

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
        # eval() folds the running statistics, so they change before it.
        model = small_model()
        head = model.global_head
        rng = np.random.default_rng(0)
        head.bn.running_mean[:] = rng.normal(size=16)
        head.bn.running_var[:] = rng.uniform(0.5, 2.0, size=16)
        model.eval()
        c = model.cfg.backbone.feature_channels()
        x1 = rng.normal(size=(2, c))
        x2 = rng.normal(size=(2, c))
        alpha = 0.3
        mixed = head(tc.Tensor(alpha * x1 + (1 - alpha) * x2)).neck_feature.data
        separate = alpha * head(tc.Tensor(x1)).neck_feature.data + (1 - alpha) * head(tc.Tensor(x2)).neck_feature.data
        np.testing.assert_allclose(mixed, separate, atol=1e-10)

    def test_logits_extent_is_num_classes(self):
        model = small_model(num_classes=5)
        out = model.global_stream(tc.Tensor(np.random.default_rng(0).normal(size=(3, 16, 4, 2))))
        assert out.logits.shape == (3, 5)

    def test_eval_neck_runs_no_classifier(self, monkeypatch):
        model = small_model().eval()
        monkeypatch.setattr(network.Linear, "__call__", lambda *args: pytest.fail("a linear layer ran"))
        for stream in network.STREAMS:
            assert model._run_streams(toy_images(), (stream,))[stream].logits is None

    def test_batch_norm_never_runs_in_eval_mode(self):
        model = small_model().eval()
        with pytest.raises(tc.TensorError, match="only in train mode"):
            model.global_head.bn(tc.Tensor(np.zeros((2, 16))))


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


def unfolded_reference(model, x):
    """float64 (backbone features, embedding) of ``model`` in eval mode as
    the unfolded composition: each conv or reduce layer, then its batch
    norm's running-statistics map (``oracles.batchnorm_eval_reference``),
    with the model's own values widened to float64."""

    def f64(a):
        return np.asarray(a, np.float64)

    def bn(norm, y):
        stats = (norm.gamma.data, norm.beta.data, norm.running_mean, norm.running_var)
        return batchnorm_eval_reference(y, *map(f64, stats), tc.BATCHNORM_EPS)

    def conv_bn(conv, norm, y, relu=False):
        y = bn(norm, tc.conv2d(tc.Tensor(y), tc.Tensor(f64(conv.weight.data)), conv._stride, conv._pad).data)
        return np.maximum(y, 0.0) if relu else y

    def block(b, y):
        z = conv_bn(b.conv2, b.bn2, conv_bn(b.conv1, b.bn1, y, relu=True), relu=True)
        z = conv_bn(b.conv3, b.bn3, z)
        return np.maximum(z + (conv_bn(b.proj_conv, b.proj_bn, y) if b._project else y), 0.0)

    def neck(head, reduce, pooled):
        return bn(head.bn, pooled @ f64(reduce.weight.data) + f64(reduce.bias.data))

    bb = model.backbone
    y = conv_bn(bb.stem_conv, bb.stem_bn, f64(x.data), relu=True)
    y = tc.maxpool2d(tc.Tensor(y), network.STEM_POOL).data
    for stage in bb.stages:
        y = block(stage, y)
    g = y
    for b in model.refine:
        g = block(b, g)
    streams = {
        "global": neck(model.global_head, model.global_reduce, y.mean(axis=(2, 3))),
        "drop": neck(model.drop_head, model.drop_reduce, g.max(axis=(2, 3))),
        "reg": bn(model.reg_head.bn, g.mean(axis=(2, 3))),
    }
    return y, np.concatenate([streams[s] for s in network.VARIANTS[model.variant].embedded], axis=1)


def trained_looking(variant, dtype, seed=1):
    """A default-size model moved off its initialization: every parameter
    and running statistic perturbed, so each fold is far from identity."""
    model = network.ReidModel(4, network.ModelConfig(variant=variant, dtype=dtype), seed=0)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data += rng.normal(scale=0.1, size=p.shape).astype(p.dtype)
    for name, b in model.named_buffers():
        b[...] = rng.uniform(0.5, 1.5, size=b.shape) if name.endswith("var") else rng.normal(scale=0.2, size=b.shape)
    return model


def unfused_eval(model, x):
    """Backbone features and refined tensor of eval mode as separate
    passes: each folded conv and its shift, then ``tc.relu``, ``tc.add``
    and ``tc.maxpool2d`` on whole arrays."""

    def conv(c, y, relu=False):
        kernel, shift = c._folded
        return tc.shift_channels(tc.conv2d(y, kernel, c._stride, c._pad), shift, relu)

    def block(b, y):
        z = conv(b.conv3, conv(b.conv2, conv(b.conv1, y, relu=True), relu=True))
        return tc.relu(tc.add(z, conv(b.proj_conv, y) if b._project else y))

    y = tc.maxpool2d(conv(model.backbone.stem_conv, x, relu=True), network.STEM_POOL)
    for stage in model.backbone.stages:
        y = block(stage, y)
    g = y
    for b in model.refine:
        g = block(b, g)
    return y.data, g.data


class TestFoldedInference:
    """Eval mode folds every batch norm into the layer before it; the
    folded forward agrees with the unfolded composition in float64."""

    @pytest.mark.parametrize("dtype, rtol", [("float32", 1e-5), ("float64", 1e-12)])
    @pytest.mark.parametrize("variant", list(network.VARIANTS))
    def test_fold_agrees_with_the_unfolded_composition(self, variant, dtype, rtol):
        model = trained_looking(variant, dtype).eval()
        pixels = np.random.default_rng(2).integers(0, 256, size=(8, 64, 32, 3), dtype=np.uint8)
        x = network.normalize_images(pixels, dtype)
        ref_features, ref_embed = unfolded_reference(model, x)
        features, embed = model.backbone_forward(x).data, model.inference_embed(x)
        assert features.dtype == embed.dtype == dtype
        for got, ref in ((features, ref_features), (embed, ref_embed)):
            np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol * np.abs(ref).max())

    @pytest.mark.parametrize("variant", ["full", "no_drop"])
    def test_same_bytes_on_pools_of_one_and_two_threads(self, pool_of, variant):
        model = trained_looking(variant, "float32").eval()
        pixels = np.random.default_rng(3).integers(0, 256, size=(8, 64, 32, 3), dtype=np.uint8)
        x = network.normalize_images(pixels)
        embeds = []
        for threads in (1, 2):
            pool_of(threads)
            embeds.append((model.backbone_forward(x).data.tobytes(), model.inference_embed(x).tobytes()))
        assert embeds[0] == embeds[1]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("variant", ["full", "no_drop"])
    def test_fused_tails_give_the_bytes_of_separate_passes(self, variant, dtype):
        model = trained_looking(variant, dtype).eval()
        pixels = np.random.default_rng(4).integers(0, 256, size=(8, 64, 32, 3), dtype=np.uint8)
        x = network.normalize_images(pixels, dtype)
        before = x.data.copy()
        features = model.backbone_forward(x)
        expected = unfused_eval(model, x)
        for got, ref in zip((features.data, model.bottleneck_pair(features).data), expected):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert x.data.tobytes() == before.tobytes()

    def test_an_identity_shortcut_is_never_written(self):
        model = trained_looking("full", "float32").eval()
        block = model.refine[0]
        assert not block._project
        x = tc.Tensor(np.maximum(np.random.default_rng(5).normal(size=(4, 64, 8, 4)), 0.0).astype(np.float32))
        before = x.data.copy()
        assert block(x).data.tobytes() != before.tobytes()
        assert x.data.tobytes() == before.tobytes()

    def test_one_embedding_runs_no_whole_array_tail_pass(self, monkeypatch):
        # Eval mode pools the stem once, before its shift, adds and takes
        # every relu inside shift_channels, and pads each conv input
        # without np.pad. Training takes the stem's relu on the pooled map.
        calls = {name: [] for name in ("maxpool2d", "relu", "add", "pad")}
        for owner, name in ((tc, "maxpool2d"), (tc, "relu"), (tc, "add"), (np, "pad")):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda x, *a, _fn=fn, _n=name, **k: calls[_n].append(x.shape) or _fn(x, *a, **k))
        model = trained_looking("full", "float32").eval()
        x = network.normalize_images(np.random.default_rng(6).integers(0, 256, size=(2, 64, 32, 3), dtype=np.uint8))
        model.inference_embed(x)
        stem_map = (2, model.cfg.backbone.stem_channels, 64, 32)
        assert calls == {"maxpool2d": [stem_map], "relu": [], "add": [], "pad": []}
        for shapes in calls.values():
            shapes.clear()
        model.train()
        model.forward_train(x)
        assert calls["maxpool2d"] == [stem_map] and calls["add"] and not calls["pad"]
        assert calls["relu"] and stem_map not in calls["relu"]

    def test_default_statistics_fold_to_the_identity_map(self):
        bn = network.BatchNorm(3)
        scale, shift = bn.affine()
        assert scale.dtype == shift.dtype == np.float64
        np.testing.assert_array_equal(scale, np.full(3, 1.0 / np.sqrt(1.0 + tc.BATCHNORM_EPS)))
        np.testing.assert_array_equal(shift, np.zeros(3))


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
