"""The benchmark's tracer finds what it wraps.

perfbench/spans.py wraps module functions by name and names each backward
span by the root of the recorded closure's ``__qualname__``. A rename or a
closure moved out of its op would silently zero a per-layer metric, so
this checks both against the current package.
"""

from pathlib import Path

import numpy as np
import pytest

from topdropnet import network, tensorcore as tc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def spans():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import spans

        yield spans


def _t(shape, seed):
    return tc.Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


OP_CALLS = {
    "conv2d": lambda: tc.conv2d(_t((2, 2, 4, 4), 0), _t((3, 2, 3, 3), 1), 1, 1),
    "batchnorm": lambda: tc.batchnorm(_t((4, 3), 0), _t((3,), 1), _t((3,), 2), np.zeros(3), np.ones(3)),
    "maxpool2d": lambda: tc.maxpool2d(_t((1, 2, 4, 4), 0), 2),
    "relu": lambda: tc.relu(_t((3,), 0)),
    "add": lambda: tc.add(_t((3,), 0), _t((3,), 1)),
    "mul": lambda: tc.mul(_t((3,), 0), _t((3,), 1)),
    "matmul": lambda: tc.matmul(_t((2, 3), 0), _t((3, 4), 1)),
    "global_avg_pool": lambda: tc.global_avg_pool(_t((1, 2, 3, 3), 0)),
    "global_max_pool": lambda: tc.global_max_pool(_t((1, 2, 3, 3), 0)),
    "log_softmax": lambda: tc.log_softmax(_t((2, 3), 0)),
}


def test_every_wrap_target_resolves(spans):
    originals = spans.original_functions()
    assert len(originals) == len(spans.TARGETS) + 1
    for (owner, attr), fn in originals.items():
        assert callable(fn), f"{owner.__name__}.{attr}"
    # The tracer reads these at import, though nothing in the package calls
    # them; deleting one makes every benchmark run fail.
    wrapped = {attr for owner, attr, _ in spans.TARGETS if owner is tc}
    assert {"sub", "absolute", "pow_scalar", "mean_all", "l2_normalize", "batchnorm"} <= wrapped


@pytest.mark.parametrize("variant", ["full", "no_drop"])
def test_inference_embed_reaches_the_traced_model_methods(monkeypatch, spans, variant):
    # The per-layer metrics of an embedding pass are the spans of these
    # methods: a pass that went round them would read 0 ms for each.
    calls = []
    for owner, attr, _ in spans.TARGETS:
        if owner is network.ReidModel and attr != "inference_embed":
            method = getattr(owner, attr)
            monkeypatch.setattr(owner, attr, lambda self, *a, _m=method, _n=attr: calls.append(_n) or _m(self, *a))
    model = network.ReidModel(4, network.ModelConfig(variant=variant), seed=0).eval()
    model.inference_embed(network.normalize_images(np.zeros((2, 64, 32, 3), np.uint8)))
    streams = {"full": ["global_stream", "topdrop_stream"], "no_drop": ["global_stream", "reg_stream"]}[variant]
    assert calls == ["backbone_forward", "bottleneck_pair"] + streams


def test_backward_spans_are_named_after_their_op(spans):
    assert set(OP_CALLS) == set(spans.OPS)
    for op in spans.OPS:
        with tc.Tape() as tape:
            OP_CALLS[op]()
        (_, backward_fn), = tape._records
        assert backward_fn.__qualname__.split(".")[0] == op
        assert spans._bwd_name(backward_fn) == f"tensorcore.{op}.bwd"
