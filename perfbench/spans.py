"""In-memory span tracing of topdropnet's public functions.

A :class:`Tracer` replaces public functions of the topdropnet modules with
wrappers that record one span per call: (name, start, end, parent, run id).
Backward closures are timed too: the wrapper around
``tensorcore.record_op`` wraps each closure it is handed, so the closure's
time lands under the op that recorded it (``tensorcore.conv2d.bwd``) when
``tensorcore.backward`` replays the tape.

Nothing here is installed until :meth:`Tracer.installed` is entered, and
leaving it puts back the exact original objects. :func:`assert_unwrapped`
checks that, so an untraced run measures the program as shipped.
"""

import contextlib
import json
import time
import tracemalloc

from topdropnet import cli, evaluation, network, synthdata, tensorcore, topdrop, trainer

OPS = (
    "conv2d",
    "batchnorm",
    "maxpool2d",
    "relu",
    "add",
    "mul",
    "matmul",
    "global_avg_pool",
    "global_max_pool",
    "log_softmax",
)
# Ops not reported on their own; wrapped so their time is not charged to
# the network function that called them.
OTHER_OPS = ("sub", "scalar_mul", "add_bias", "absolute", "pow_scalar", "sum_all", "mean_all", "l2_normalize")

# (owner, attribute, span name). Stream heads share one name.
TARGETS = (
    [(tensorcore, op, f"tensorcore.{op}.fwd") for op in OPS + OTHER_OPS]
    + [
        (tensorcore, "backward", "tensorcore.backward"),
        (tensorcore, "save_arrays", "tensorcore.save_arrays"),
        (tensorcore, "load_arrays", "tensorcore.load_arrays"),
        (topdrop, "masks_from_features", "topdrop.masks_from_features"),
        (topdrop, "apply_mask", "topdrop.apply_mask"),
        (network.ReidModel, "backbone_forward", "network.backbone_forward"),
        (network.ReidModel, "bottleneck_pair", "network.bottleneck_pair"),
        (network.ReidModel, "global_stream", "network.heads"),
        (network.ReidModel, "topdrop_stream", "network.heads"),
        (network.ReidModel, "reg_stream", "network.heads"),
        (network.ReidModel, "inference_embed", "network.inference_embed"),
        (network, "total_loss", "network.total_loss"),
        (synthdata, "generate_dataset", "synthdata.generate_dataset"),
        (synthdata, "load_dataset", "synthdata.load_dataset"),
        (synthdata, "augment", "synthdata.augment"),
        (synthdata, "epoch_batches", "synthdata.epoch_batches"),
        (trainer, "fit", "trainer.fit"),
        (trainer, "train_epoch", "trainer.train_epoch"),
        (trainer, "adam_step", "trainer.adam_step"),
        (trainer, "save_checkpoint", "trainer.save_checkpoint"),
        (trainer, "model_from_checkpoint", "trainer.model_from_checkpoint"),
        (evaluation, "embed_split", "evaluation.embed_split"),
        (evaluation, "pairwise_euclidean", "evaluation.pairwise_euclidean"),
        (evaluation, "evaluate", "evaluation.evaluate"),
        (evaluation, "rerank", "evaluation.rerank"),
        (cli, "main", "cli.main"),
    ]
)
RECORD_OP = (tensorcore, "record_op")
# Calls whose memory peak :meth:`Tracer.probe_memory` measures.
MEMORY_SPANS = ("evaluation.pairwise_euclidean", "evaluation.rerank")


def original_functions() -> dict:
    """The objects currently bound at every wrap target, keyed by target."""
    return {(owner, attr): getattr(owner, attr) for owner, attr, _ in TARGETS + [RECORD_OP + (None,)]}


def assert_unwrapped(originals: dict, allowed=()) -> None:
    """Raise unless every wrap target is still its original object.

    ``allowed`` names (owner, attr) targets that may hold a wrapper whose
    ``__wrapped__`` is the original (the step clock).
    """
    for key, fn in original_functions().items():
        if fn is originals[key] and not hasattr(fn, "__wrapped__"):
            continue
        if key in allowed and getattr(fn, "__wrapped__", None) is originals[key]:
            continue
        owner, attr = key
        raise RuntimeError(f"{owner.__name__}.{attr} is wrapped in an untraced run")


def _bwd_name(backward_fn) -> str:
    fn_name = backward_fn.__qualname__.split(".")[0]
    if backward_fn.__module__ == tensorcore.__name__:
        return f"tensorcore.{fn_name}.bwd"
    if fn_name == "triplet_batch_hard":
        return "network.triplet.bwd"
    return f"{backward_fn.__module__.rsplit('.', 1)[-1]}.{fn_name}.bwd"


class Tracer:
    """Records spans and per-phase counts while installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, run id)
        self.counts = {}  # (run id, name) -> count
        self.peaks = {}  # span name -> tracemalloc peak in bytes
        self._memory_calls = {}  # span name -> last top-level (fn, args, kwargs)
        self.run_id = "setup"
        self._stack = []

    def count(self, name: str, n: int) -> None:
        key = (self.run_id, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        parent = stack[-1] if stack else -1
        spans.append((name, None, None, parent, self.run_id))  # completed below
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.run_id)

    def _wrap(self, name, fn):
        tracer = self
        if name == "tensorcore.backward":

            def wrapper(loss, tape):
                tracer.count("tensorcore.tape_records", len(tape))
                return tracer._span(name, fn, (loss, tape), {})

        elif name == "topdrop.masks_from_features":

            def wrapper(*args, **kwargs):
                masks = tracer._span(name, fn, args, kwargs)
                tracer.count("topdrop.masks_built", len(masks))
                return masks

        elif name in MEMORY_SPANS:

            def wrapper(*args, **kwargs):  # keeps top-level calls for probe_memory
                stack = tracer._stack
                if not stack or tracer.spans[stack[-1]][0] not in MEMORY_SPANS:
                    tracer._memory_calls[name] = (fn, args, kwargs)
                return tracer._span(name, fn, args, kwargs)

        else:

            def wrapper(*args, **kwargs):
                return tracer._span(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_record_op(self, record_op):
        tracer = self

        def wrapper(out, parents, backward_fn):
            name = _bwd_name(backward_fn)

            def timed(g):
                return tracer._span(name, backward_fn, (g,), {})

            return record_op(out, parents, timed)

        wrapper.__wrapped__ = record_op
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original objects on exit."""
        saved = original_functions()
        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            owner, attr = RECORD_OP
            setattr(owner, attr, self._wrap_record_op(getattr(owner, attr)))
            yield self
        finally:
            for (owner, attr), fn in saved.items():
                setattr(owner, attr, fn)

    def probe_memory(self) -> None:
        """Repeat the last top-level call of each MEMORY_SPANS function
        under tracemalloc, untimed, and keep its peak allocation.

        A separate call, because tracemalloc slows every allocation made
        while it runs and would distort the timed span.
        """
        for name, (fn, args, kwargs) in self._memory_calls.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self.peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    # -- derivation ----------------------------------------------------------

    def layer_times(self, phases) -> dict:
        """name -> [calls, inclusive s, self s] over spans
        whose run id starts with one of ``phases``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, parent, run_id) in enumerate(self.spans):
            if not run_id.startswith(phases):
                continue
            if name == "evaluation.pairwise_euclidean" and parent >= 0 and self.spans[parent][0] == "evaluation.rerank":
                name = "evaluation.rerank.pairwise_euclidean"
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[idx]
        return out

    def counted(self, phases, name: str) -> int:
        return sum(n for (run_id, key), n in self.counts.items() if key == name and run_id.startswith(phases))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for idx, (name, start, end, parent, run_id) in enumerate(self.spans):
                f.write(json.dumps({"id": idx, "name": name, "start": start, "end": end, "parent": parent, "run": run_id}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics and baseline tables
# ---------------------------------------------------------------------------

CALLS, INCL, SELF = range(3)
STEP_PHASES = ("measure",)  # the work the workload's unit counts
CALL_PHASES = ("measure", "eval")  # calls made after set-up
ALL_PHASES = ("setup", "measure", "eval")


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Per-layer metrics from the traced pass.

    Work inside a training step (or, on retrieval, inside an eval
    sequence) is reported per unit of that work; whole calls (checkpoint
    files, evaluation functions, the CLI, dataset generation) as the mean
    per call. Times are inclusive unless the name says self, except that
    op times, ``topdrop.apply_mask_ms`` and ``network.triplet_bwd_ms`` are
    self times.
    """
    step = tracer.layer_times(STEP_PHASES)
    after = tracer.layer_times(CALL_PHASES)
    every = tracer.layer_times(ALL_PHASES)

    def per_unit(name, col=INCL):
        return 1000.0 * step[name][col] / units if name in step and units else 0.0

    def per_call(table, name, col=INCL, scale=1000.0):
        return scale * table[name][col] / table[name][CALLS] if name in table else 0.0

    m = {}
    for op in OPS:
        m[f"tensorcore.{op}.fwd_ms"] = per_unit(f"tensorcore.{op}.fwd", SELF)
        m[f"tensorcore.{op}.bwd_ms"] = per_unit(f"tensorcore.{op}.bwd", SELF)
    m["tensorcore.backward_ms"] = per_unit("tensorcore.backward")
    m["tensorcore.tape_records"] = tracer.counted(STEP_PHASES, "tensorcore.tape_records") / units if units else 0.0
    m["tensorcore.save_arrays_ms"] = per_call(after, "tensorcore.save_arrays")
    m["tensorcore.load_arrays_ms"] = per_call(after, "tensorcore.load_arrays")
    m["topdrop.masks_from_features_ms"] = per_unit("topdrop.masks_from_features")
    m["topdrop.apply_mask_ms"] = per_unit("topdrop.apply_mask", SELF)
    m["topdrop.masks_built"] = tracer.counted(STEP_PHASES, "topdrop.masks_built") / units if units else 0.0
    for name in ("backbone_forward", "bottleneck_pair", "heads", "total_loss"):
        m[f"network.{name}_ms"] = per_unit(f"network.{name}")
    m["network.triplet_bwd_ms"] = per_unit("network.triplet.bwd", SELF)
    m["network.inference_embed_ms"] = per_call(after, "network.inference_embed")
    m["synthdata.generate_dataset_s"] = per_call(every, "synthdata.generate_dataset", scale=1.0)
    m["synthdata.load_dataset_s"] = per_call(every, "synthdata.load_dataset", scale=1.0)
    m["synthdata.augment_ms"] = per_unit("synthdata.augment")
    m["synthdata.epoch_batches_ms"] = per_unit("synthdata.epoch_batches")
    m["trainer.adam_step_ms"] = per_unit("trainer.adam_step")
    m["trainer.step_self_ms"] = per_unit("trainer.train_epoch", SELF)
    m["trainer.save_checkpoint_ms"] = per_call(after, "trainer.save_checkpoint")
    m["trainer.model_from_checkpoint_ms"] = per_call(after, "trainer.model_from_checkpoint")
    for name in ("embed_split", "pairwise_euclidean", "evaluate", "rerank"):
        m[f"evaluation.{name}_ms"] = per_call(after, f"evaluation.{name}")
    m["evaluation.pairwise_euclidean_peak_mb"] = tracer.peaks.get("evaluation.pairwise_euclidean", 0) / 2**20
    m["evaluation.rerank_peak_mb"] = tracer.peaks.get("evaluation.rerank", 0) / 2**20
    m["cli.main_ms"] = per_call(after, "cli.main")
    m["cli.self_ms"] = per_call(after, "cli.main", SELF)
    return m


def op_table(tracer: Tracer, units: int, step_ms: float) -> list:
    """The self time of every traced call per training step: tensorcore
    ops split into forward and backward, then everything else."""
    step = tracer.layer_times(STEP_PHASES)

    def ms(name):
        return 1000.0 * step[name][SELF] / units if name in step else 0.0

    rows = [(op, ms(f"tensorcore.{op}.fwd"), ms(f"tensorcore.{op}.bwd")) for op in OPS + OTHER_OPS]
    ops = {f"tensorcore.{op}.{d}" for op in OPS + OTHER_OPS for d in ("fwd", "bwd")}
    rows += [(f"{name} (self)", *((0.0, ms(name)) if name.endswith(".bwd") else (ms(name), 0.0))) for name in step if name not in ops]
    rows.sort(key=lambda r: -(r[1] + r[2]))
    lines = [f"self time per training step ({step_ms:.1f} ms: train command wall / {units} steps)"]
    lines.append(f"{'call':<40}{'fwd ms':>9}{'bwd ms':>9}{'share':>8}")
    for label, fwd, bwd in rows:
        if fwd + bwd > 0:
            lines.append(f"{label:<40}{fwd:>9.2f}{bwd:>9.2f}{100.0 * (fwd + bwd) / step_ms:>7.1f}%")
    return lines


def eval_table(tracer: Tracer, units: int, sequence_s: float) -> list:
    """Rows of the evaluation sequence: calls, time per call, share, peak."""
    step = tracer.layer_times(STEP_PHASES)
    lines = [f"evaluation sequence ({sequence_s:.2f} s mean, {units} sequences)"]
    lines.append(f"{'call':<38}{'calls':>6}{'ms/call':>10}{'share':>8}{'peak MB':>9}")
    for name in (
        "synthdata.load_dataset",
        "trainer.model_from_checkpoint",
        "evaluation.embed_split",
        "network.inference_embed",
        "evaluation.pairwise_euclidean",
        "evaluation.evaluate",
        "evaluation.rerank",
        "evaluation.rerank.pairwise_euclidean",
    ):
        if name not in step:
            continue
        calls, incl, _ = step[name]
        share = 100.0 * incl / (units * sequence_s)
        peak = tracer.peaks.get(name, 0) / 2**20
        lines.append(f"{name:<38}{calls / units:>6.0f}{1000.0 * incl / calls:>10.1f}{share:>7.1f}%{peak:>9.1f}")
    return lines
