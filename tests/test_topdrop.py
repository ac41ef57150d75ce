"""Stripe mechanism: activation maps, relevance, masks, baseline mask."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topdropnet import rng as rng_mod
from topdropnet import tensorcore as tc
from topdropnet import topdrop

from oracles import activation_map_loops, row_means_loops, top_rows_sorted


class TestActivationMap:
    def test_single_channel_squares(self):
        f = np.array([[[1.0, -2.0], [0.0, 3.0]]])
        np.testing.assert_array_equal(topdrop.activation_map(f, 2), [[1.0, 4.0], [0.0, 9.0]])

    def test_zeros(self):
        np.testing.assert_array_equal(topdrop.activation_map(np.zeros((3, 2, 2))), np.zeros((2, 2)))

    def test_matches_triple_loop_oracle(self):
        f = np.random.default_rng(0).normal(size=(4, 6, 4))
        got = topdrop.activation_map(f, 2)
        np.testing.assert_allclose(got, activation_map_loops(f, 2), atol=1e-12)

    def test_non_finite_rejected(self):
        f = np.zeros((1, 2, 2))
        f[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            topdrop.activation_map(f)

    def test_always_non_negative(self):
        f = np.random.default_rng(1).normal(size=(5, 3, 3))
        assert np.all(topdrop.activation_map(f, 3) >= 0)


class TestStripeRelevance:
    def test_row_means(self):
        np.testing.assert_array_equal(
            topdrop.stripe_relevance(np.array([[1.0, 4.0], [0.0, 9.0]])), [2.5, 4.5]
        )

    def test_constant_map(self):
        np.testing.assert_array_equal(topdrop.stripe_relevance(np.full((3, 5), 7.0)), [7.0, 7.0, 7.0])

    def test_matches_oracle(self):
        act = np.random.default_rng(2).uniform(size=(8, 5))
        np.testing.assert_allclose(topdrop.stripe_relevance(act), row_means_loops(act), atol=1e-12)


def rows(mask):
    """Dropped row indices of an (h,) mask as a set."""
    return set(np.flatnonzero(mask).tolist())


def row_mask(h, dropped):
    mask = np.zeros(h, dtype=bool)
    mask[list(dropped)] = True
    return mask


class TestTopDropMask:
    def test_round_half_up_single_drop(self):
        mask = topdrop.top_drop_mask([2.5, 4.5], topdrop.DropConfig(0.3))
        assert mask.shape == (2,) and mask.dtype == bool
        assert rows(mask) == {1}

    def test_tie_drops_lower_index(self):
        mask = topdrop.top_drop_mask([5.0, 5.0, 1.0], topdrop.DropConfig(0.34))
        assert rows(mask) == {0}

    def test_matches_sort_oracle_h24(self):
        r = np.random.default_rng(3).uniform(size=24)
        mask = topdrop.top_drop_mask(r, topdrop.DropConfig(0.3))
        assert mask.sum() == 7  # round-half-up(7.2)
        assert rows(mask) == top_rows_sorted(r, 7)

    def test_drop_everything_rejected(self):
        with pytest.raises(ValueError):
            topdrop.top_drop_mask([1.0, 2.0], topdrop.DropConfig(1.0))

    def test_drop_count_exhaustive(self):
        # |dropped| == max(1, round-half-up(h * ratio)) for h in [2, 64].
        for h in range(2, 65):
            for ratio in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                expected = max(1, int(np.floor(h * ratio + 0.5)))
                if expected >= h:
                    continue
                r = np.random.default_rng(h * 100 + int(ratio * 10)).uniform(size=h)
                mask = topdrop.top_drop_mask(r, topdrop.DropConfig(ratio))
                assert mask.sum() == expected

    def test_expanded_mask_spans_channels_and_width(self):
        g = tc.astensor(np.ones((1, 3, 4, 5)))
        dense = topdrop.apply_mask(g, row_mask(4, {1})[None]).data[0]
        assert dense.shape == (3, 4, 5)
        assert np.all(dense[:, 1, :] == 0)
        keep = np.ones(4, dtype=bool)
        keep[1] = False
        assert np.all(dense[:, keep, :] == 1)


class TestScaleInvariance:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_positive_scaling_keeps_row_set(self, scale, p):
        f = np.random.default_rng(7).normal(size=(4, 8, 5))
        cfg = topdrop.DropConfig(0.3, p)
        base = topdrop.top_drop_mask(topdrop.stripe_relevance(topdrop.activation_map(f, p)), cfg)
        scaled = topdrop.top_drop_mask(topdrop.stripe_relevance(topdrop.activation_map(scale * f, p)), cfg)
        np.testing.assert_array_equal(base, scaled)


class TestApplyMask:
    def test_drops_row(self):
        g = tc.astensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = topdrop.apply_mask(g, row_mask(2, {1})[None])
        np.testing.assert_array_equal(out.data, [[[[1.0, 2.0], [0.0, 0.0]]]])

    def test_all_ones_mask_is_identity(self):
        g = tc.astensor(np.random.default_rng(0).normal(size=(2, 3, 4, 4)))
        np.testing.assert_array_equal(topdrop.apply_mask(g, np.zeros((2, 4), dtype=bool)).data, g.data)

    def test_batch_mask_equals_per_image_application(self):
        g = tc.astensor(np.random.default_rng(6).normal(size=(3, 2, 6, 4)))
        masks = np.stack([row_mask(6, {2, 3}), row_mask(6, {0}), row_mask(6, {2, 3})])
        batched = topdrop.apply_mask(g, masks).data
        for i in range(3):
            alone = topdrop.apply_mask(tc.astensor(g.data[i : i + 1]), masks[i : i + 1]).data[0]
            np.testing.assert_array_equal(batched[i], alone)

    def test_dropped_rows_have_zero_relevance_after_masking(self):
        g = tc.astensor(np.random.default_rng(1).normal(size=(3, 4, 8, 5)))
        cfg = topdrop.DropConfig(0.3)
        masks = topdrop.masks_from_features(g.data, cfg)
        masked = topdrop.apply_mask(g, masks)
        for i, mask in enumerate(masks):
            relevance = topdrop.stripe_relevance(topdrop.activation_map(masked.data[i]))
            assert np.all(relevance[mask] == 0.0)

    def test_gradient_blocked_on_dropped_rows(self):
        g = tc.parameter(np.random.default_rng(2).normal(size=(1, 2, 4, 3)))
        with tc.Tape() as tape:
            loss = tc.sum_all(topdrop.apply_mask(g, row_mask(4, {0, 2})[None]))
        tc.backward(loss, tape)
        assert np.all(g.grad[0, :, [0, 2], :] == 0)
        assert np.all(g.grad[0, :, [1, 3], :] == 1)

    def test_mask_shape_mismatch_rejected(self):
        g = tc.astensor(np.zeros((1, 2, 4, 3)))
        # wrong h, wrong n, extra axis, and one (h,) row set for the batch
        for shape in ((1, 5), (2, 4), (1, 1, 4), (4,)):
            with pytest.raises(ValueError):
                topdrop.apply_mask(g, np.zeros(shape, dtype=bool))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31))
    def test_masked_max_pool_equals_max_over_kept_rows(self, seed):
        rng = np.random.default_rng(seed)
        g = np.abs(rng.normal(size=(2, 3, 6, 4)))  # post-ReLU case
        cfg = topdrop.DropConfig(0.3)
        masks = topdrop.masks_from_features(g, cfg)
        pooled = tc.global_max_pool(topdrop.apply_mask(tc.astensor(g), masks)).data
        for i, mask in enumerate(masks):
            np.testing.assert_array_equal(pooled[i], g[i][:, ~mask, :].max(axis=(1, 2)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 6), st.integers(2, 12), st.sampled_from([1.0, 2.0, 3.0]))
    def test_per_image_independence_under_permutation(self, seed, n, h, p):
        # Duplicated rows and images force ties, which must drop the lower
        # row index first in every image; a permuted batch permutes masks.
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(n, 3, h, 4))
        f[:, :, h // 2] = f[:, :, 0]
        f[-1] = f[0]
        cfg = topdrop.DropConfig(0.3, p)
        masks = topdrop.masks_from_features(f, cfg)
        assert masks.shape == (n, h) and masks.dtype == bool
        act = topdrop.activation_map(f, p)
        for i in range(n):
            np.testing.assert_array_equal(act[i], topdrop.activation_map(f[i], p))
            relevance = topdrop.stripe_relevance(act[i])
            np.testing.assert_array_equal(masks[i], topdrop.top_drop_mask(relevance, cfg))
            assert rows(masks[i]) == top_rows_sorted(relevance, topdrop.num_drop_rows(h, 0.3))
        perm = rng.permutation(n)
        np.testing.assert_array_equal(topdrop.masks_from_features(f[perm], cfg), masks[perm])


class TestBatchDropMask:
    def test_h3_third_drops_one_contiguous_row(self):
        mask = topdrop.batch_drop_mask(1, 3, 1 / 3, rng_mod.generator(0, "t"))
        assert mask.shape == (1, 3) and mask.dtype == bool
        assert mask.sum() == 1

    def test_h24_block_and_start_range(self):
        for seed in range(50):
            mask = topdrop.batch_drop_mask(4, 24, 0.3, rng_mod.generator(seed, "t"))
            assert mask.shape == (4, 24) and (mask == mask[0]).all()  # one draw for the batch
            dropped = sorted(rows(mask[0]))
            assert len(dropped) == 7  # floor(7.2)
            assert dropped == list(range(dropped[0], dropped[0] + 7))
            assert 0 <= dropped[0] <= 17

    def test_one_draw_whatever_the_batch(self):
        # The batch size changes neither the rows nor the generator's state.
        gens = [rng_mod.generator(5, "t") for _ in range(2)]
        one = topdrop.batch_drop_mask(1, 24, 0.3, gens[0])
        many = topdrop.batch_drop_mask(32, 24, 0.3, gens[1])
        np.testing.assert_array_equal(many, np.tile(one, (32, 1)))
        assert gens[0].integers(1 << 62) == gens[1].integers(1 << 62)

    def test_block_taller_than_map_rejected(self):
        with pytest.raises(ValueError):
            topdrop.batch_drop_mask(2, 3, 1.0, rng_mod.generator(0, "t"))

    def test_start_positions_uniform(self):
        # 18 valid starts for h=24, ratio 0.3; 10000 draws; 3 sigma band.
        counts = np.zeros(18)
        for seed in range(10000):
            mask = topdrop.batch_drop_mask(1, 24, 0.3, rng_mod.generator(seed, "u"))
            counts[np.argmax(mask[0])] += 1
        expected = 10000 / 18
        sigma = np.sqrt(10000 * (1 / 18) * (17 / 18))
        assert np.all(np.abs(counts - expected) <= 3 * sigma + 1)


class TestMaskRows:
    """The row counts that model_config checks are the rows the mask
    builders drop, and each count fails with the builder's message."""

    BUILDERS = {
        "top": lambda h, ratio: topdrop.top_drop_mask(np.arange(h, dtype=float), topdrop.DropConfig(ratio)),
        "random": lambda h, ratio: topdrop.batch_drop_mask(1, h, ratio, rng_mod.generator(0, "t"))[0],
    }

    @pytest.mark.parametrize("kind", ["top", "random"])
    def test_builders_drop_the_checked_rows(self, kind):
        rejected = 0
        for h in range(1, 25):
            for ratio in (0.05, 0.1, 0.3, 0.5, 0.9, 0.95, 1.0):
                try:
                    rows = topdrop.MASK_ROWS[kind](h, ratio)
                except ValueError as exc:
                    rejected += 1
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        self.BUILDERS[kind](h, ratio)
                else:
                    assert 1 <= rows < h
                    assert self.BUILDERS[kind](h, ratio).sum() == rows
        assert 0 < rejected < 24 * 7


class TestDropConfig:
    @pytest.mark.parametrize("ratio", [0.0, -0.1, 1.5])
    def test_bad_ratio(self, ratio):
        with pytest.raises(ValueError):
            topdrop.DropConfig(height_ratio=ratio)

    def test_bad_power(self):
        with pytest.raises(ValueError):
            topdrop.DropConfig(p=0.5)
