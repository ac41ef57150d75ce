import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every run draws the same examples, so a tree passes or fails the suite the
# same way each time; each test keeps its own max_examples.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")

from topdropnet import blocks, synthdata


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """8 ids x 2 cams x 2 images at 32x16: enough for fast train smoke."""
    root = tmp_path_factory.mktemp("tiny_ds")
    synthdata.generate_dataset(
        root, num_ids=8, num_cams=2, imgs_per_id_per_cam=2, occlusion_prob=0.2, size=(32, 16), seed=7
    )
    return synthdata.load_dataset(root)


@pytest.fixture(scope="session")
def tiny_dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_ds_dir")
    synthdata.generate_dataset(
        root, num_ids=8, num_cams=2, imgs_per_id_per_cam=3, occlusion_prob=0.0, size=(32, 16), seed=3
    )
    return root


@pytest.fixture
def pool_of(monkeypatch):
    """``pool_of(threads)`` swaps the process pool of ``blocks`` for a new
    one of that many threads until the test ends, then shuts it down."""
    from concurrent.futures import ThreadPoolExecutor

    pools = []

    def swap(threads):
        pools.append(ThreadPoolExecutor(threads))
        monkeypatch.setattr(blocks, "_pool", pools[-1])
        return pools[-1]

    yield swap
    for pool in pools:
        pool.shutdown()


@pytest.fixture(params=[1, 2, 3])
def workers(request, pool_of):
    """Run the block-split passes on a pool of 1, 2 or 3 threads."""
    pool_of(request.param)
    return request.param


@pytest.fixture(params=[1, 2, 3])
def idle_pool(request, pool_of):
    """Give the process a pool of 1, 2 or 3 threads that the test must leave
    idle: tensor operations run on the calling thread, so neither their
    bytes nor their work depend on the pool's width."""
    pool = pool_of(request.param)
    submitted = []
    submit = pool.submit
    pool.submit = lambda *args, **kwargs: submitted.append(args) or submit(*args, **kwargs)
    yield request.param
    assert submitted == [], "a tensor pass reached the process pool"
