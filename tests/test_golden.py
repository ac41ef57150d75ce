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
    "full/checkpoint.ckpt": "a2ff9189938b7a57b12adf13e7445e56ff265724cd0310a24acfa7cc4d511efb",
    "no-drop/checkpoint.ckpt": "fbaff876ab1327f20601fcf29810310397dc2a4da07b21a694a53c0f7e872c52",
    "no-reg/checkpoint.ckpt": "9db9cd37bb808646a217fac3038bcfc11911cb0b320285240385b0635d57a12e",
    "baseline-bdb/checkpoint.ckpt": "99f913209889f139e4a5cf33fa61bbb1e7a9589fa40c2d0d305a6fa66461ab68",
    "eval/embeddings_query.csv": "d80bc4db3d2c36c20bda5f74baa2c140e48c35072b0b8091c9b5e3a72c375254",
    "eval/embeddings_gallery.csv": "fa3bfca81d95933878f44e37aede5a5594b892e7ea6eaf32492c7dafe3c8d97a",
    "eval/metrics_raw.csv": "150339152a771cc482b0ae7f1f8897110ef70feece6c14b3c5ba4508205a2b00",
    "eval/metrics_rerank.csv": "151133b673c3b858c5b876507cdde9d9d4199b21d7b95aea14e62e437b4ab9f7",
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
