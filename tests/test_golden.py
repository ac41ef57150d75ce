"""Golden bytes of the default pipeline.

The default ``gendata``, a 3-epoch seed-1 ``train`` of each of the four
variants and ``eval --rerank --save-embeddings`` of the ``full`` one run
in this process, on thread pools of 1 and 2, and must write the same
bytes both times. BLAS kernels differ between hosts, so the sha256 of
each file is pinned only for the environment it was recorded in: numpy
version, BLAS build and CPU model, read as perfbench/run.py's machine
record reads them. There any moved byte fails. Elsewhere the test prints
the hashes for recording. A change that moves bytes on purpose records
the new hashes here and reports the metric shift in CHANGES.md.
"""

import hashlib
import platform

import numpy as np

from topdropnet import cli

RECORDED_ENVIRONMENT = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0", "cpu": "Intel(R) Xeon(R) Processor"}
GOLDEN_SHA256 = {
    "full/checkpoint.ckpt": "1c113c713bb57ca88cbbe9e52b9969a5aa6df67a47c7e5ca9b025d5009dfa8f1",
    "no-drop/checkpoint.ckpt": "f19c1b462b95bea5cdce863ad5eee9bee0462dc4a4e1ae4908af81a89ab8a9dc",
    "no-reg/checkpoint.ckpt": "0f1426ee76830611456a035ce5c4a5de52c0853b59aa5ddb5921fd99948da05e",
    "baseline-bdb/checkpoint.ckpt": "3e986fd2aa7d32b34159d52935188b36f6832b1f2df607a5311cb8c5d5c1e1b7",
    "eval/embeddings_query.csv": "176616368826c8aa8a3147b38ef96328b028f2c7dd4c31d697ed737acdd9ff5e",
    "eval/embeddings_gallery.csv": "7b5c911d15b2a7763ccf192276bae30d9927a5dbe6ee0fc6cd93624276b37a8d",
    "eval/metrics_raw.csv": "6ec0292d7e564be2578f2c84bf4fb2c0a0230d8b4e9b4494e479870b93fa6fa5",
    "eval/metrics_rerank.csv": "ccda58a2a14e557908ecfcb795b2352fe2d65fcf98987d79e22c76ae9e1db706",
}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": blas, "cpu": cpu}


def pipeline_sha256(root) -> dict:
    data = root / "data"
    assert cli.main(["gendata", "--out", str(data)]) == 0
    for variant in ("full", "no-drop", "no-reg", "baseline-bdb"):
        argv = ["train", "--data", data, "--out", root / variant, "--variant", variant, "--epochs", 3, "--seed", 1]
        assert cli.main([str(a) for a in argv]) == 0
    argv = ["eval", "--data", data, "--checkpoint", root / "full" / "checkpoint.ckpt", "--out", root / "eval",
            "--rerank", "--save-embeddings"]
    assert cli.main([str(a) for a in argv]) == 0
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}


def test_default_pipeline_bytes(tmp_path, pool_of):
    pool_of(1)
    one = pipeline_sha256(tmp_path / "one")
    pool_of(2)
    two = pipeline_sha256(tmp_path / "two")
    env = environment()
    print(f"environment {env}")
    for name, digest in one.items():
        print(f"{name} {digest}")
    assert two == one
    if env == RECORDED_ENVIRONMENT:
        assert one == GOLDEN_SHA256
