"""Retrieval metrics and k-reciprocal re-ranking against naive oracles."""

import functools
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from topdropnet import blocks, evaluation

import oracles
from oracles import ap_cmc_loops, distances_loops, rerank_transcription

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


class TestPairwiseEuclidean:
    def test_three_four_five(self):
        np.testing.assert_array_equal(
            evaluation.pairwise_euclidean(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])), [[5.0]]
        )

    def test_zero_diagonal_and_symmetry(self):
        rng = np.random.default_rng(0)
        for n, dim in [(6, 4), (300, 64)]:  # one block, then many
            x = rng.normal(size=(n, dim))
            d = evaluation.pairwise_euclidean(x, x)
            np.testing.assert_array_equal(np.diag(d), np.zeros(n))
            np.testing.assert_array_equal(d, d.T)

    @pytest.mark.parametrize(
        "n_q, n_g, dim, same",
        [(300, 700, 37, False), (400, 400, 256, True), (0, 5, 3, False), (5, 0, 3, False), (33, 50, 1, False)],
    )
    def test_bitwise_equal_to_unblocked_formula(self, n_q, n_g, dim, same):
        rng = np.random.default_rng(n_q + n_g + dim)
        q = rng.normal(size=(n_q, dim))
        g = q if same else rng.normal(size=(n_g, dim))
        want = np.sqrt(((q[:, None] - g[None]) ** 2).sum(axis=2))
        np.testing.assert_array_equal(evaluation.pairwise_euclidean(q, g), want)

    def test_peak_memory_is_output_plus_one_block(self):
        rng = np.random.default_rng(2)
        q, g = rng.normal(size=(1000, 64)), rng.normal(size=(1000, 64))
        tracemalloc.start()
        try:
            out = evaluation.pairwise_euclidean(q, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 4 * 2**20

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(5, 3))
        g = rng.normal(size=(7, 3))
        got = evaluation.pairwise_euclidean(q, g)
        assert np.max(np.abs(got - distances_loops(q, g))) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluation.pairwise_euclidean(np.zeros((2, 3)), np.zeros((2, 4)))

    @pytest.mark.parametrize("n_q, n_g, dim", [(312, 936, 256), (3, 8, 4), (17, 40, 5), (40, 17, 64), (1, 1, 2)])
    def test_query_gallery_block_of_the_union_pass(self, n_q, n_g, dim):
        # Every entry of the symmetric pass on or above the diagonal is
        # computed as row minus column, whatever tile it falls in.
        rng = np.random.default_rng(n_q * n_g)
        q, g = rng.normal(size=(n_q, dim)), rng.normal(size=(n_g, dim))
        feats = np.vstack([q, g])
        union = evaluation.pairwise_euclidean(feats, feats)
        assert union[:n_q, n_q:].tobytes() == evaluation.pairwise_euclidean(q, g).tobytes()


def assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def split_three_blocks():
    done = []
    blocks.split(done.append, range(3))
    sys.exit(0 if sorted(done) == [0, 1, 2] else 1)


class TestRowBlockSplit:
    """The distance and neighbour passes, split by row block over the
    process's thread pool, give the bytes of the single-threaded passes
    kept in ``oracles`` for any pool size. The pool's threads outlive a
    call by design; no call adds threads beyond the pool's."""

    # With d = 256 a block is 16 x 16 rows: one row, fewer rows than a
    # block, row counts that are not a multiple of 16, and n_q != n_g.
    @pytest.mark.parametrize("n_q, n_g", [(1, 1), (1, 40), (9, 9), (9, 50), (50, 9), (83, 83), (83, 121)])
    def test_pairwise_euclidean_is_byte_equal(self, workers, n_q, n_g):
        rng = np.random.default_rng(n_q * 1000 + n_g)
        q, g = rng.normal(size=(n_q, 256)), rng.normal(size=(n_g, 256))
        before = threading.active_count()
        assert_same_bytes(evaluation.pairwise_euclidean(q, g), oracles.pairwise_euclidean_reference(q, g))
        assert_same_bytes(evaluation.pairwise_euclidean(q, q), oracles.pairwise_euclidean_reference(q, q))
        assert threading.active_count() <= before + workers

    @pytest.mark.parametrize("n, d, k", [(9, 3, 4), (300, 8, 20), (701, 4, 12)])
    def test_nearest_is_byte_equal_with_duplicates(self, workers, n, d, k):
        rng = np.random.default_rng(n)
        feats = rng.integers(0, 3, size=(n, d)).astype(np.float64)  # many exact copies
        dist = oracles.pairwise_euclidean_reference(feats, feats)
        before = threading.active_count()
        assert_same_bytes(evaluation._nearest(dist, k), oracles.nearest_reference(dist, k))
        assert threading.active_count() <= before + workers

    @pytest.mark.parametrize("n_q, n_g, d", [(6, 20, 4), (120, 400, 16)])
    def test_rerank_is_byte_equal(self, workers, monkeypatch, n_q, n_g, d):
        rng = np.random.default_rng(n_q + n_g)
        feats = np.round(rng.normal(size=(n_q + n_g, d)), 1)
        feats[rng.choice(n_q + n_g, size=(n_q + n_g) // 5)] = feats[0]  # exact duplicates
        q, g = feats[:n_q], feats[n_q:]
        params = evaluation.RerankParams(k1=5, k2=3)
        before = threading.active_count()
        got = evaluation.rerank(q, g, params)
        assert threading.active_count() <= before + workers
        monkeypatch.setattr(evaluation, "pairwise_euclidean", oracles.pairwise_euclidean_reference)
        monkeypatch.setattr(evaluation, "_nearest", oracles.nearest_reference)
        assert_same_bytes(got, evaluation.rerank(q, g, params))

    def test_byte_equal_with_more_threads_than_cores_and_fast_switching(self, pool_of):
        pool_of(8)
        x = np.random.default_rng(5).normal(size=(1000, 16))  # 16 row blocks in each pass
        dist = oracles.pairwise_euclidean_reference(x, x)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got_dist, got_order = evaluation.pairwise_euclidean(x, x), evaluation._nearest(dist, 10)
        finally:
            sys.setswitchinterval(interval)
        assert_same_bytes(got_dist, dist)
        assert_same_bytes(got_order, oracles.nearest_reference(dist, 10))

    def test_error_is_raised_after_every_thread_ends(self, pool_of):
        pool_of(3)
        failed = threading.Event()
        done = []

        def work(start):
            if start == 0:
                failed.set()
                raise RuntimeError("block failed")
            failed.wait(10)  # the failing block raises first
            done.append(start)

        with pytest.raises(RuntimeError, match="block failed"):
            blocks.split(work, range(9))
        assert sorted(done) == list(range(1, 9))

    def test_first_error_in_block_order_is_raised(self, pool_of):
        pool_of(2)
        late = threading.Event()

        def work(start):
            if start == 1:
                late.wait(10)  # block 2 raises first
                raise ValueError("block 1")
            if start == 2:
                late.set()
                raise RuntimeError("block 2")

        with pytest.raises(ValueError, match="block 1"):
            blocks.split(work, range(3))

    def test_threads_capped_at_block_count_and_each_block_run_once(self, pool_of):
        for cpus, n, rows in [(64, 5, 2), (2, 9, 1)]:  # 3 blocks on 64 threads, 9 blocks on 2
            pool_of(cpus)
            starts, threads = [], set()

            def work(start):
                starts.append(start)
                threads.add(threading.get_ident())

            blocks.split(work, range(0, n, rows))
            assert sorted(starts) == list(range(0, n, rows))
            assert len(threads) <= min(cpus, len(starts))

    def test_one_pool_for_the_process(self, monkeypatch):
        monkeypatch.setattr(blocks, "_pool", None)
        x = np.random.default_rng(6).normal(size=(300, 8))  # 5 row blocks in each pass
        before = threading.active_count()
        try:
            dist = evaluation.pairwise_euclidean(x, x)
            pool = blocks._pool
            assert pool is not None
            evaluation._nearest(dist, 5)
            evaluation.pairwise_euclidean(x, x[:40])
            assert blocks._pool is pool
            assert threading.active_count() <= before + blocks.usable_cpus()
        finally:
            if blocks._pool is not None:
                blocks._pool.shutdown()

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
    def test_forked_child_makes_its_own_pool(self, pool_of):
        pool_of(2)
        both = threading.Barrier(2, timeout=10)
        blocks.split(lambda start: both.wait(), range(2))  # both pool threads exist and are idle
        child = multiprocessing.get_context("fork").Process(target=split_three_blocks)
        child.start()
        child.join(30)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0

    def test_single_block_pass_makes_no_pool(self, monkeypatch):
        monkeypatch.setattr(blocks, "_pool", None)
        x = np.random.default_rng(7).normal(size=(256, 8))
        dist = oracles.pairwise_euclidean_reference(x, x)
        before = threading.active_count()
        assert_same_bytes(evaluation._nearest(dist, 20), oracles.nearest_reference(dist, 20))  # one 256-row block
        assert blocks._pool is None
        assert threading.active_count() == before

    def test_cli_import_leaves_the_thread_pool_unloaded(self):
        # concurrent.futures costs start-up time; only a split should load it.
        code = "import sys, topdropnet.cli; print('concurrent.futures' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=SRC)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "False"


class TestEvaluate:
    def test_hand_computed_ap(self):
        # Positives at kept ranks 1 and 3: AP = (1/1 + 2/3) / 2.
        dist = np.array([[1.0, 2.0, 3.0]])
        res = evaluation.evaluate(dist, [5], [0], [5, 9, 5], [1, 1, 1], max_rank=3)
        assert abs(res.mAP - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12
        assert res.cmc[0] == 1.0

    def test_all_junk_query_skipped(self):
        dist = np.array([[1.0, 2.0], [1.0, 2.0]])
        # Query 0: both gallery entries share its id+camera -> junk -> skipped.
        res = evaluation.evaluate(dist, [5, 6], [0, 1], [5, 6], [0, 0], max_rank=2)
        assert res.num_valid_queries == 1
        assert np.isnan(res.per_query_ap[0])

    def test_perfect_embedding(self):
        feats = np.array([[0.0, 0.0], [0.0, 0.1], [5.0, 5.0], [5.0, 5.1]])
        dist = evaluation.pairwise_euclidean(feats[[0, 2]], feats)
        res = evaluation.evaluate(dist, [1, 2], [0, 0], [1, 1, 2, 2], [0, 1, 0, 1], max_rank=4)
        # Same-camera same-id entries are junk; each query still finds its
        # cross-camera positive first.
        assert res.mAP == 1.0
        assert np.all(res.cmc == 1.0)

    @pytest.mark.parametrize("max_rank", [0, -1])
    def test_max_rank_below_one_rejected(self, max_rank):
        with pytest.raises(ValueError, match="max_rank must be >= 1"):
            evaluation.evaluate(np.array([[1.0, 2.0]]), [5], [0], [5, 6], [1, 1], max_rank=max_rank)

    def test_no_valid_query_rejected(self):
        with pytest.raises(ValueError):
            evaluation.evaluate(np.ones((1, 1)), [1], [0], [2], [0])

    def test_tie_broken_by_gallery_index(self):
        dist = np.array([[1.0, 1.0]])
        res = evaluation.evaluate(dist, [1], [0], [2, 1], [1, 1], max_rank=2)
        # Tie: gallery 0 (wrong id) precedes gallery 1 (right id).
        assert res.cmc[0] == 0.0 and res.cmc[1] == 1.0

    def test_matches_exhaustive_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n_q = int(rng.integers(1, 5))
            n_g = int(rng.integers(3, 12))
            ids_q = rng.integers(0, 4, size=n_q)
            ids_g = rng.integers(0, 4, size=n_g)
            cams_q = rng.integers(0, 3, size=n_q)
            cams_g = rng.integers(0, 3, size=n_g)
            dist = rng.uniform(size=(n_q, n_g))
            max_rank = n_g
            expected = [
                ap_cmc_loops(dist[i], ids_q[i], cams_q[i], ids_g, cams_g, max_rank) for i in range(n_q)
            ]
            valid = [e for e in expected if e is not None]
            if not valid:
                with pytest.raises(ValueError):
                    evaluation.evaluate(dist, ids_q, cams_q, ids_g, cams_g, max_rank)
                continue
            res = evaluation.evaluate(dist, ids_q, cams_q, ids_g, cams_g, max_rank)
            assert res.num_valid_queries == len(valid)
            assert abs(res.mAP - np.mean([ap for ap, _ in valid])) < 1e-12
            np.testing.assert_allclose(res.cmc, np.mean([c for _, c in valid], axis=0), atol=1e-12)

    def test_cmc_saturates_when_every_query_has_a_positive(self):
        rng = np.random.default_rng(13)
        n_g = 12
        ids_g = np.repeat(np.arange(4), 3)
        cams_g = np.tile(np.arange(3), 4)
        ids_q = np.arange(4)
        cams_q = np.zeros(4, dtype=int)
        dist = rng.uniform(size=(4, n_g))
        res = evaluation.evaluate(dist, ids_q, cams_q, ids_g, cams_g, n_g)
        assert res.num_valid_queries == 4
        assert res.cmc[-1] == 1.0

    def test_cmc_monotone(self):
        rng = np.random.default_rng(9)
        dist = rng.uniform(size=(6, 20))
        res = evaluation.evaluate(
            dist, rng.integers(0, 3, 6), rng.integers(0, 2, 6), rng.integers(0, 3, 20), rng.integers(0, 2, 20), 20
        )
        assert np.all(np.diff(res.cmc) >= 0)

    def test_gallery_permutation_invariance(self):
        rng = np.random.default_rng(10)
        n_g = 15
        dist = rng.uniform(size=(4, n_g))  # distinct distances almost surely
        ids_g = rng.integers(0, 5, n_g)
        cams_g = rng.integers(0, 2, n_g)
        ids_q = rng.integers(0, 5, 4)
        cams_q = rng.integers(0, 2, 4)
        base = evaluation.evaluate(dist, ids_q, cams_q, ids_g, cams_g, n_g)
        perm = rng.permutation(n_g)
        shuffled = evaluation.evaluate(dist[:, perm], ids_q, cams_q, ids_g[perm], cams_g[perm], n_g)
        assert abs(base.mAP - shuffled.mAP) < 1e-12
        np.testing.assert_allclose(base.cmc, shuffled.cmc, atol=1e-12)


class TestRerank:
    def _toy(self, seed=0, n_q=3, n_g=8, d=4):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n_q, d)), rng.normal(size=(n_g, d))

    def test_lambda_one_returns_original_distances(self):
        q, g = self._toy()
        params = evaluation.RerankParams(k1=4, k2=2, lam=1.0)
        np.testing.assert_array_equal(evaluation.rerank(q, g, params), evaluation.pairwise_euclidean(q, g))

    def test_duplicate_gallery_rows_get_equal_distance(self):
        q, g = self._toy(seed=3)
        g[5] = g[2]
        params = evaluation.RerankParams(k1=4, k2=2, lam=0.3)
        out = evaluation.rerank(q, g, params)
        np.testing.assert_allclose(out[:, 5], out[:, 2], atol=1e-12)

    def test_matches_independent_transcription_oracle(self):
        q, g = self._toy(seed=7, n_q=3, n_g=8, d=4)
        got = evaluation.rerank(q, g, evaluation.RerankParams(k1=4, k2=2, lam=0.3))
        want = rerank_transcription(q, g, k1=4, k2=2, lam=0.3)
        assert np.max(np.abs(got - want)) < 1e-8

    # (n_q, n_g, d, identities, k1, k2, lambda) per seed.
    ORACLE_INSTANCES = [
        (4, 9, 3, 3, 5, 3, 0.4),
        (20, 60, 4, 10, 6, 3, 0.4),
        (30, 90, 8, 15, 10, 1, 0.0),
        (50, 150, 6, 25, 20, 6, 0.3),
        (40, 160, 5, 20, 12, 12, 0.9),
    ]

    @pytest.mark.parametrize("seed", range(5))
    def test_transcription_oracle_more_instances(self, seed):
        n_q, n_g, d, n_ids, k1, k2, lam = self.ORACLE_INSTANCES[seed]
        rng = np.random.default_rng(100 + seed)
        # Clustered points, so that neighbour sets overlap and get expanded,
        # with a tenth of them copied onto others to force distance ties.
        centers = rng.normal(size=(n_ids, d))
        feats = centers[rng.integers(0, n_ids, n_q + n_g)] + 0.4 * rng.normal(size=(n_q + n_g, d))
        src, dst = rng.choice(n_q + n_g, size=(2, (n_q + n_g) // 10), replace=False)
        feats[dst] = feats[src]
        q, g = feats[:n_q], feats[n_q:]
        got = evaluation.rerank(q, g, evaluation.RerankParams(k1=k1, k2=k2, lam=lam))
        want = rerank_transcription(q, g, k1=k1, k2=k2, lam=lam)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_every_point_is_its_own_nearest_among_copies(self):
        feats = np.zeros((12, 3))
        feats[6:] = 1.0
        order = evaluation._nearest(evaluation.pairwise_euclidean(feats, feats), 7)
        np.testing.assert_array_equal(order[:, 0], np.arange(12))
        # Then copies by index, then the other cluster.
        np.testing.assert_array_equal(order[8], [8, 6, 7, 9, 10, 11, 0, 1])

    def test_collapsed_gallery(self):
        # Every point has more than k1 exact copies, as from a collapsed model.
        out = evaluation.rerank(np.zeros((10, 4)), np.zeros((30, 4)), evaluation.RerankParams(k1=20))
        assert out.shape == (10, 30) and np.isfinite(out).all()
        q, g = np.zeros((3, 2)), np.zeros((8, 2))
        g[6:] = 1.0
        got = evaluation.rerank(q, g, evaluation.RerankParams(k1=4, k2=2, lam=0.3))
        assert np.max(np.abs(got - rerank_transcription(q, g, k1=4, k2=2, lam=0.3))) < 1e-8

    def test_peak_memory_within_a_few_distance_matrices(self):
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(125, 64))
        feats = centers[np.repeat(np.arange(125), 8)] + 0.3 * rng.normal(size=(1000, 64))
        tracemalloc.start()
        try:
            evaluation.rerank(feats[:250], feats[250:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 1000**2 * 8

    def test_k1_bound_checked(self):
        q, g = self._toy()
        with pytest.raises(ValueError):
            evaluation.rerank(q, g, evaluation.RerankParams(k1=11, k2=2, lam=0.3))

    def test_non_finite_features_rejected(self):
        q, g = self._toy()
        g[3, 1] = np.nan
        with pytest.raises(ValueError):
            evaluation.rerank(q, g, evaluation.RerankParams(k1=4, k2=2, lam=0.3))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            evaluation.RerankParams(k1=4, k2=6)
        with pytest.raises(ValueError):
            evaluation.RerankParams(lam=1.5)

    def test_lambda_one_preserves_ranking_through_evaluate(self):
        rng = np.random.default_rng(11)
        q = rng.normal(size=(4, 5))
        g = rng.normal(size=(10, 5))
        ids_q, cams_q = rng.integers(0, 3, 4), rng.integers(0, 2, 4)
        ids_g, cams_g = rng.integers(0, 3, 10), rng.integers(0, 2, 10)
        qs = evaluation.EmbeddingSet(q, ids_q, cams_q)
        gs = evaluation.EmbeddingSet(g, ids_g, cams_g)
        raw, reranked = evaluation.evaluate_run(qs, gs, evaluation.RerankParams(k1=4, k2=2, lam=1.0))
        assert raw.mAP == reranked.mAP
        np.testing.assert_array_equal(raw.cmc, reranked.cmc)

    def test_evaluate_run_makes_one_distance_pass(self, monkeypatch):
        rng = np.random.default_rng(13)
        qs = evaluation.EmbeddingSet(rng.normal(size=(6, 4)), np.arange(6) % 3, np.zeros(6, dtype=int))
        gs = evaluation.EmbeddingSet(rng.normal(size=(20, 4)), np.arange(20) % 3, np.ones(20, dtype=int))
        params = evaluation.RerankParams(k1=5, k2=3)
        raw_alone, _ = evaluation.evaluate_run(qs, gs)
        ids = (qs.person_ids, qs.camera_ids, gs.person_ids, gs.camera_ids)
        reranked_alone = evaluation.evaluate(evaluation.rerank(qs.features, gs.features, params), *ids)
        passes = []
        pairwise = evaluation.pairwise_euclidean
        monkeypatch.setattr(evaluation, "pairwise_euclidean", lambda q, g: passes.append(q.shape) or pairwise(q, g))
        raw, reranked = evaluation.evaluate_run(qs, gs, params)
        assert passes == [(6, 4)]
        for got, want in ((raw, raw_alone), (reranked, reranked_alone)):
            assert got.mAP == want.mAP
            assert got.per_query_ap.tobytes() == want.per_query_ap.tobytes()
            assert got.cmc.tobytes() == want.cmc.tobytes()

    def test_raw_result_independent_of_rerank_flag(self):
        rng = np.random.default_rng(12)
        qs = evaluation.EmbeddingSet(rng.normal(size=(3, 4)), np.array([0, 1, 2]), np.array([0, 0, 0]))
        gs = evaluation.EmbeddingSet(rng.normal(size=(8, 4)), rng.integers(0, 3, 8), np.ones(8, dtype=int))
        without, none = evaluation.evaluate_run(qs, gs)
        with_flag, _ = evaluation.evaluate_run(qs, gs, evaluation.RerankParams(k1=3, k2=2))
        assert none is None
        assert without.mAP == with_flag.mAP


def clustered(rng, n_ids, per_id, d, noise=0.4):
    centers = rng.normal(size=(n_ids, d))
    return centers[np.repeat(np.arange(n_ids), per_id)] + noise * rng.normal(size=(n_ids * per_id, d))


def rerank_case(name):
    """(q, g, params) of a re-ranking case. Most are built to strain the
    bounds: ties, exact copies, bounds that say nothing, overflow."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name.startswith("d="):  # clustered, at each width
        d = int(name[2:])
        feats = rng.permutation(clustered(rng, 16, 6, d))
        return feats[:24], feats[24:], evaluation.RerankParams(k1=8, k2=3)
    if name == "collapsed":
        return np.zeros((10, 4)), np.zeros((30, 4)), evaluation.RerankParams(k1=20)
    if name == "copies":  # more than k1 exact copies of one point
        feats = rng.normal(size=(60, 5))
        feats[rng.choice(60, size=12, replace=False)] = feats[7]
        return feats[:15], feats[15:], evaluation.RerankParams(k1=6, k2=3)
    if name == "ties":
        feats = np.round(rng.normal(size=(80, 3)), 1)
        return feats[:20], feats[20:], evaluation.RerankParams(k1=10, k2=4)
    if name.startswith("scale="):  # 1e-150 squares to near the smallest normal; 1e154 overflows the norms
        feats = float(name[6:]) * clustered(rng, 12, 6, 256)
        return feats[:18], feats[18:], evaluation.RerankParams(k1=6, k2=3)
    if name == "offset-overflow":  # NaN bounds, finite distances; a gallery row has 3 exact ones
        feats = 1e154 * (1.0 + 1e-3 * rng.permutation(clustered(rng, 12, 6, 256)))
        return feats[:3], feats[3:], evaluation.RerankParams(k1=6, k2=3)
    if name == "k2=1":  # no neighbour average; exact copies tie for nearest
        feats = rng.permutation(clustered(rng, 10, 6, 8))
        feats[rng.choice(60, size=8, replace=False)] = feats[5]
        return feats[:20], feats[20:], evaluation.RerankParams(k1=6, k2=1)
    if name == "k1=N-1":
        feats = rng.normal(size=(14, 3))
        return feats[:4], feats[4:], evaluation.RerankParams(k1=13, k2=5)
    if name == "one-query":
        feats = clustered(rng, 10, 4, 6)
        return feats[:1], feats[1:], evaluation.RerankParams(k1=5, k2=2)
    if name == "312x936":  # the shape of perfbench's retrieval workload
        feats = clustered(rng, 156, 8, 256, noise=0.5).reshape(156, 8, 256)
        return feats[:, :2].reshape(312, 256), feats[:, 2:].reshape(936, 256), evaluation.RerankParams()
    raise KeyError(name)


RERANK_CASES = ["d=1", "d=2", "d=8", "d=256", "collapsed", "copies", "ties", "scale=1e-150", "scale=1e150",
                "scale=1e154", "offset-overflow", "k2=1", "k1=N-1", "one-query", "312x936"]


@functools.lru_cache(maxsize=None)
def full_matrix_rerank(name):
    return oracles.rerank_full_matrix_reference(*rerank_case(name))


def embedding_sets(q, g):
    m = min(len(q), len(g))  # every query id has gallery entries on the other camera
    return (evaluation.EmbeddingSet(q, np.arange(len(q)) % m, np.zeros(len(q), dtype=int)),
            evaluation.EmbeddingSet(g, np.arange(len(g)) % m, np.ones(len(g), dtype=int)))


def assert_same_result(got, want):
    assert got.num_valid_queries == want.num_valid_queries
    for a, b in ((got.mAP, want.mAP), (got.cmc, want.cmc), (got.per_query_ap, want.per_query_ap)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestBoundAndVerify:
    """Re-ranking bounds the query x query and gallery x gallery distances
    and computes exactly only those that can change its result. Its output
    must keep the bytes of re-ranking over all N x N exact distances."""

    # The overflow cases square to +inf, on pool threads as well.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", ["d=0", *RERANK_CASES])  # EmbeddingSet refuses d = 0; rerank does not
    def test_rerank_matches_the_full_matrix(self, workers, name):
        assert_same_bytes(evaluation.rerank(*rerank_case(name)), full_matrix_rerank(name))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", RERANK_CASES)
    def test_evaluate_run_matches_the_full_matrix(self, workers, name):
        q, g, params = rerank_case(name)
        qs, gs = embedding_sets(q, g)
        ids = (qs.person_ids, qs.camera_ids, gs.person_ids, gs.camera_ids)
        raw, reranked = evaluation.evaluate_run(qs, gs, params)
        assert_same_result(raw, evaluation.evaluate(oracles.pairwise_euclidean_reference(q, g), *ids))
        assert_same_result(reranked, evaluation.evaluate(full_matrix_rerank(name), *ids))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", RERANK_CASES)
    def test_left_out_entries_are_beyond_the_neighbours(self, workers, name):
        # Where the scale drowns the Jaccard term, the neighbour tables are
        # the only place a wrongly left-out entry shows.
        q, g, params = rerank_case(name)
        feats = np.vstack([q, g])
        union = evaluation._union_distances(q, g, params.k1)
        full = oracles.pairwise_euclidean_reference(feats, feats)
        kept = union != np.inf
        assert_same_bytes(union[kept], full[kept])
        assert_same_bytes(evaluation._nearest(union, params.k1), oracles.nearest_reference(full, params.k1))

    def test_far_pairs_are_left_out(self):
        q, g, params = rerank_case("312x936")
        union = evaluation._union_distances(q, g, params.k1)
        n_q, total = len(q), len(q) + len(g)
        own_pairs = n_q**2 + (total - n_q) ** 2
        computed = np.isfinite(union).sum() - 2 * q.shape[0] * g.shape[0]
        assert total <= computed < own_pairs / 10  # the diagonal, and few more
        assert_same_bytes(union[:n_q, n_q:], oracles.pairwise_euclidean_reference(q, g))
        assert_same_bytes(union[n_q:, :n_q], union[:n_q, n_q:].T.copy())

    def test_nan_bounds_compute_every_pair(self):
        q, g, params = rerank_case("offset-overflow")
        union = evaluation._union_distances(q, g, params.k1)
        feats = np.vstack([q, g])
        assert_same_bytes(union, oracles.pairwise_euclidean_reference(feats, feats))

    def test_peak_memory_within_the_full_matrix_pass(self, monkeypatch, pool_of):
        # With the package's own striped neighbour search, the full-matrix
        # reference allocates what re-ranking allocated before the bounds,
        # array for array, but for one distance-pass buffer per thread.
        # Both run on the same fixed pool: each thread holds its own
        # block's buffers, so the peaks depend on the thread count.
        pool_of(2)
        monkeypatch.setattr(oracles, "nearest_reference", evaluation._nearest)
        q, g, params = rerank_case("312x936")
        peaks = []
        for run in (evaluation.rerank, oracles.rerank_full_matrix_reference):
            run(q, g, params)  # first-call allocations (pool, caches) out of the way
            tracemalloc.start()
            try:
                run(q, g, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1] + 2**14  # up to 16 KiB of interpreter objects: frames, futures


class TestDistanceBounds:
    @staticmethod
    def bounds(x, y):
        upper = np.empty((len(x), len(y)))
        lower = evaluation._distance_bounds(x, np.einsum("ij,ij->i", x, x), y, np.einsum("ij,ij->i", y, y), upper)
        return lower, upper

    @staticmethod
    def assert_bounds_hold(x, y):
        lower, upper = TestDistanceBounds.bounds(x, y)
        exact = evaluation.pairwise_euclidean(x, y)
        assert np.all(lower <= exact) and np.all(exact <= upper)
        return lower, upper, exact

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 37, 256])
    @pytest.mark.parametrize("scale", [1e-160, 1e-150, 1e-3, 1.0, 1e3, 1e150])
    def test_every_pair_within_its_bounds(self, d, scale):
        rng = np.random.default_rng(d)
        x = scale * np.vstack([clustered(rng, 6, 5, d, noise=0.01), rng.normal(size=(10, d)) * 1e-4])
        x[3] = x[4]  # an exact copy
        x[5] = -x[6]  # a point and its opposite
        lower, upper, exact = self.assert_bounds_hold(x, x)
        assert np.all(np.diag(lower) == 0.0)

    @pytest.mark.parametrize("d", [1, 2, 8, 256])
    def test_one_ulp_apart_at_norm_1e6(self, d):
        rng = np.random.default_rng(d)
        x = rng.normal(size=(20, d))
        x *= 1e6 / np.linalg.norm(x, axis=1, keepdims=True)
        y = np.nextafter(x, np.inf)
        lower, upper, exact = self.assert_bounds_hold(x, y)
        assert np.all(np.diag(exact) > 0.0)  # the estimate cancels to noise; the bounds still hold

    def test_bounds_separate_distinct_points(self):
        # Unit vectors at distance sqrt(2): the bounds are tight enough to rank them.
        x = np.eye(64)
        lower, upper, exact = self.assert_bounds_hold(x, x)
        off = ~np.eye(64, dtype=bool)
        assert np.all(lower[off] > 1.41) and np.all(upper[off] < 1.42) and np.all(upper.diagonal() < 1e-6)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_gives_nan_or_infinite_upper_bounds(self):
        rng = np.random.default_rng(3)
        x = 1e154 * rng.normal(size=(12, 256))
        lower, upper = self.bounds(x, x)
        exact = evaluation.pairwise_euclidean(x, x)
        assert np.isinf(exact).any()
        assert np.all(np.isnan(upper) | (upper == np.inf))
        assert np.all(lower <= exact) and np.all(lower[np.isnan(upper)] == 0.0)


class TestNonFiniteEmbeddings:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_embedding_set_rejects_non_finite_features(self, bad):
        features = np.ones((3, 4))
        features[1, 2] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            evaluation.EmbeddingSet(features, np.arange(3), np.zeros(3, dtype=int))

    def test_embed_split_output_is_checked(self, tiny_dataset):
        from topdropnet import network

        model = network.ReidModel(4, network.ModelConfig(d_global=8, d_drop=8,
                                                         backbone=network.BackboneConfig(input_size=(32, 16))))
        model.backbone.stem_conv.weight.data.flat[0] = np.nan
        with pytest.raises(ValueError, match="features must be finite"):
            evaluation.embed_split(model, tiny_dataset, "query")


class TestEmbeddingFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        emb = evaluation.EmbeddingSet(rng.normal(size=(5, 3)), np.arange(5), np.ones(5, dtype=int))
        path = tmp_path / "emb.csv"
        evaluation.save_embeddings(path, emb)
        loaded = evaluation.load_embeddings(path)
        np.testing.assert_array_equal(loaded.features, emb.features)
        np.testing.assert_array_equal(loaded.person_ids, emb.person_ids)
        np.testing.assert_array_equal(loaded.camera_ids, emb.camera_ids)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            evaluation.load_embeddings(path)

    def test_non_finite_feature_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("person_id,camera_id,f0,f1\n0,1,0.5,1.0\n1,1,nan,1.0\n")
        with pytest.raises(ValueError):
            evaluation.load_embeddings(path)

    @pytest.mark.parametrize("row", ["x,1,1.0", "1,1.5,1.0", "1,1,one"])
    def test_non_numeric_field_rejected_with_its_line(self, tmp_path, row):
        path = tmp_path / "emb.csv"
        path.write_text(f"person_id,camera_id,f0\n0,1,0.5\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
            evaluation.load_embeddings(path)

    def test_results_file_layout(self, tmp_path):
        result = evaluation.EvalResult(0.5, np.array([0.25, 0.5, 1.0]), np.array([0.5]), 1)
        path = tmp_path / "metrics.csv"
        evaluation.save_results(path, result)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "metric,value"
        assert lines[1] == "mAP,0.5"
        assert "cmc_3,1.0" in lines

    def test_write_csv_format(self, tmp_path):
        path = tmp_path / "rows.csv"
        evaluation.write_csv(path, ["a", "b", "c"], [[1, 0.1, None], ["x,y", np.float32(0.1), np.float64(2.0)]])
        assert path.read_bytes() == b'a,b,c\r\n1,0.1,\r\n"x,y",0.10000000149011612,2.0\r\n'
