"""topdropnet benchmark: training, embedding and re-ranking.

Run from the repository root:

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 40 --trace 0

It imports the package from ``src/`` of the current directory, runs the
workload in this one process and prints, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics listed in
BENCHMARK.json, ``--trace 1`` the per-layer ones, from a traced pass that
follows an untraced pass of the same work. The line before it records the
machine. perfbench/README.md describes workloads, metrics and seeds.
"""

import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = "1"
for _var in THREAD_VARS:
    os.environ[_var] = PINNED_THREADS  # must precede the first numpy import

import argparse
import contextlib
import csv
import json
import platform
import resource
import shutil
import statistics
import subprocess
import traceback
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("train-toy", "retrieval")
DEFAULT_SEED = 1

SETUP_REPEATS = 3
TRAIN_EPOCHS = 40  # the acceptance fit
RETRIEVAL_FIT_EPOCHS = 8  # the short set-up fit behind the retrieval checkpoint
# A run's work is sized from --seconds with these nominal costs on a
# 2-core x86 machine, so one --seconds value always does the same work.
TOY_COMMAND_S = 23.0  # one 40-epoch train-toy command and its eval sequences
RETRIEVAL_SEQUENCE_S = 9.0  # one retrieval eval sequence
# Eval sequences after each train-toy command. One takes under a second and
# single calls vary by a third (host drift, allocator page faults), so the
# medians need many samples, taken after every command rather than in one
# burst at the end of the run.
EVALS_PER_COMMAND = 10
TAIL_BEYOND = 10  # steps beyond the tail percentile

# `topdropnet eval` defaults.
K1, K2, LAMBDA, MAX_RANK = 20, 6, 0.3, 50

IMPORT_PROBE = "import time; t = time.perf_counter(); import topdropnet.cli; print(time.perf_counter() - t)"


@dataclass(frozen=True)
class DataSpec:
    ids: int
    size: tuple  # (height, width)
    cams: int = 4
    per: int = 4


TOY = DataSpec(32, (64, 32))
GALLERY = DataSpec(156, (64, 32))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def locate_checkout():
    """Exit non-zero unless the current directory holds the package sources."""
    missing = [p for p in ("BENCHMARK.json", os.path.join("src", "topdropnet", "__init__.py")) if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        sys.exit(f"perfbench: run from the repository root; missing {', '.join(missing)}")
    sys.path.insert(0, SRC)


locate_checkout()

import numpy as np  # noqa: E402

import spans  # noqa: E402
from topdropnet import cli, evaluation, synthdata, trainer  # noqa: E402

if os.path.dirname(os.path.realpath(cli.__file__)) != os.path.realpath(os.path.join(SRC, "topdropnet")):
    sys.exit(f"perfbench: imported topdropnet from {cli.__file__}, not from {SRC}")

ORIGINALS = spans.original_functions()
STEP_CLOCK = (trainer, "adam_step")


# ---------------------------------------------------------------------------
# Run bookkeeping
# ---------------------------------------------------------------------------


class Outcome:
    """Operations attempted and failed; a failed check never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: failed: {what}", file=sys.stderr)
        return ok

    def check(self, what: str, fn) -> None:
        try:
            ok = bool(fn())
        except Exception:  # a broken output is a failed check, not a crash
            traceback.print_exc()
            ok = False
        self.op(ok, what)


class StepClock:
    """The one hook an untraced run installs: a clock read as each
    training step's Adam update returns. It also keeps the list of
    parameters the last step updated."""

    def __init__(self):
        self.times = []
        self.params = None

    @contextlib.contextmanager
    def installed(self):
        original = trainer.adam_step

        def adam_step(named_params, state, lr):
            original(named_params, state, lr)
            self.times.append(time.perf_counter())
            self.params = named_params

        adam_step.__wrapped__ = original
        trainer.adam_step = adam_step
        try:
            yield self
        finally:
            trainer.adam_step = original

    def intervals_ms(self) -> list:
        return [1000.0 * (b - a) for a, b in zip(self.times, self.times[1:])]


def traced(tracer, run_id: str, allowed=()):
    """The tracer, installed with spans under ``run_id``; without one, a
    check that nothing but ``allowed`` is wrapped."""
    if tracer is None:
        spans.assert_unwrapped(ORIGINALS, allowed)
        return contextlib.nullcontext()
    tracer.run_id = run_id
    return tracer.installed()


def quiet_cli(argv) -> int:
    """``topdropnet`` in-process, its chatter sent to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


def median(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout)


def gendata(out: str, spec: DataSpec, seed: int) -> None:
    h, w = spec.size
    argv = ["gendata", "--out", out, "--ids", str(spec.ids), "--cams", str(spec.cams), "--per", str(spec.per)]
    argv += ["--height", str(h), "--width", str(w), "--seed", str(seed), "--force"]
    if quiet_cli(argv) != 0:
        raise RuntimeError(f"gendata failed for {out}")


def set_up(run, build) -> float:
    """Median over SETUP_REPEATS of imports plus ``build()``."""
    times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with traced(run.tracer, f"setup/{i}"):
            build()
        times.append(time.perf_counter() - t0 + import_seconds())
    return median(times)


# ---------------------------------------------------------------------------
# Evaluation sequence shared by every workload
# ---------------------------------------------------------------------------


@dataclass
class EvalRun:
    eval_s: float
    embed_s: float
    rerank_s: float
    images: int
    query: evaluation.EmbeddingSet
    gallery: evaluation.EmbeddingSet
    dist: np.ndarray
    reranked: np.ndarray
    raw: evaluation.EvalResult
    rr: evaluation.EvalResult


def eval_sequence(data: str, checkpoint: str, out: str) -> EvalRun:
    """The calls ``topdropnet eval --rerank`` makes, in its order, each
    timed from outside."""
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    dataset = synthdata.load_dataset(data)
    model = trainer.model_from_checkpoint(checkpoint)
    t1 = time.perf_counter()
    query = evaluation.embed_split(model, dataset, "query")
    gallery = evaluation.embed_split(model, dataset, "gallery")
    t2 = time.perf_counter()
    k1 = max(1, min(K1, gallery.features.shape[0] // 2))  # as `eval` bounds k1 on small galleries
    params = evaluation.RerankParams(k1=k1, k2=max(1, min(K2, k1)), lam=LAMBDA)
    ids = (query.person_ids, query.camera_ids, gallery.person_ids, gallery.camera_ids)
    dist = evaluation.pairwise_euclidean(query.features, gallery.features)
    raw = evaluation.evaluate(dist, *ids, MAX_RANK)
    t3 = time.perf_counter()
    reranked = evaluation.rerank(query.features, gallery.features, params)
    t4 = time.perf_counter()
    rr = evaluation.evaluate(reranked, *ids, MAX_RANK)
    evaluation.save_results(os.path.join(out, "metrics_raw.csv"), raw)
    evaluation.save_results(os.path.join(out, "metrics_rerank.csv"), rr)
    t5 = time.perf_counter()
    images = query.features.shape[0] + gallery.features.shape[0]
    return EvalRun(t5 - t0, t2 - t1, t4 - t3, images, query, gallery, dist, reranked, raw, rr)


def cmc_valid(cmc) -> bool:
    return bool(np.all(np.diff(cmc) >= 0) and cmc.min() >= 0.0 and cmc.max() <= 1.0)


def check_eval(outcome: Outcome, ev: EvalRun) -> None:
    q, g = ev.query.features.shape[0], ev.gallery.features.shape[0]
    outcome.check("embeddings are finite", lambda: np.isfinite(ev.query.features).all() and np.isfinite(ev.gallery.features).all())
    outcome.check("distances are finite", lambda: np.isfinite(ev.dist).all())
    outcome.check("re-ranked distances are finite", lambda: np.isfinite(ev.reranked).all())
    outcome.check("re-ranked matrix is (q, g)", lambda: ev.reranked.shape == (q, g))
    outcome.check("raw CMC is non-decreasing in [0, 1]", lambda: cmc_valid(ev.raw.cmc))
    outcome.check("re-ranked CMC is non-decreasing in [0, 1]", lambda: cmc_valid(ev.rr.cmc))


def run_evals(run, data, checkpoint, count, run_id, tracer) -> list:
    """``count`` eval sequences; spans go to ``<run_id>.<i>`` when traced."""
    evals = []
    for i in range(count):
        try:
            with traced(tracer, f"{run_id}.{i}"):
                ev = eval_sequence(data, checkpoint, run.path(f"{run_id}.{i}{'-traced' if tracer else ''}".replace("/", "-")))
        except Exception:  # the sequence failed; later ones still run
            traceback.print_exc()
            run.outcome.op(False, "eval sequence")
            continue
        run.outcome.op(True, "eval sequence")
        check_eval(run.outcome, ev)
        evals.append(ev)
    return evals


QUALITY = ("evaluation.map", "evaluation.rank1", "evaluation.map_rerank", "evaluation.rank1_rerank")


def eval_metrics(evals) -> dict:
    """Timing medians over the eval sequences, and the model's quality."""
    if not evals:
        return {}
    last = evals[-1]
    return {
        "embed_images_per_s": median([e.images / e.embed_s for e in evals]),
        "rerank_s": median([e.rerank_s for e in evals]),
        "eval_s": median([e.eval_s for e in evals]),
        # Deterministic for a seed but far from steady across seeds, so
        # per-layer (traced) metrics and record fields, not end-to-end ones.
        "evaluation.map": last.raw.mAP,
        "evaluation.rank1": float(last.raw.cmc[0]),
        "evaluation.map_rerank": last.rr.mAP,
        "evaluation.rank1_rerank": float(last.rr.cmc[0]),
    }


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def history_finite(path) -> bool:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    losses = [row[k] for row in rows for k in ("loss_global", "loss_drop", "loss_reg", "loss_total") if row[k] != ""]
    return bool(rows) and all(np.isfinite(float(v)) for v in losses)


def params_match(checkpoint, params) -> bool:
    """Checkpoint parameters equal, bit for bit, the ones last trained."""
    arrays, _ = trainer.load_checkpoint(checkpoint)
    return params is not None and all(np.array_equal(arrays[f"param.{n}"], p.data) for n, p in params)


@dataclass
class TrainRun:
    wall_s: float
    steps: int
    intervals_ms: list


def train_metrics(runs: list, batch: int) -> dict:
    intervals = sorted(ms for r in runs for ms in r.intervals_ms)
    if len(intervals) <= TAIL_BEYOND:
        return {}
    n = len(intervals)
    return {
        "train_samples_per_s": median([r.steps * batch / r.wall_s for r in runs]),
        "train_step_ms_p50": statistics.median(intervals),
        "train_step_ms_tail": intervals[n - 1 - TAIL_BEYOND],
        "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "tail_steps": n,
    }


def train_pass(run, data, commands, expected_steps, tracer) -> tuple:
    """Back-to-back ``topdropnet train`` commands, each followed by eval
    sequences on its checkpoint; returns the train runs and eval runs."""
    runs, evals = [], []
    for i in range(commands):
        out = run.path(f"train{i}{'-traced' if tracer else ''}")
        argv = ["train", "--data", data, "--out", out, "--variant", "full", "--epochs", str(TRAIN_EPOCHS), "--seed", str(run.seed)]
        with StepClock().installed() as clock, traced(tracer, f"measure/{i}", (STEP_CLOCK,)):
            t0 = time.perf_counter()
            rc = quiet_cli(argv)
            wall = time.perf_counter() - t0
        run.outcome.attempted += len(clock.times)  # each completed step is an operation
        if not run.outcome.op(rc == 0, "train command"):
            continue
        run.checkpoint = os.path.join(out, "checkpoint.ckpt")
        run.outcome.check("steps run as planned", lambda: len(clock.times) == expected_steps)
        run.outcome.check("every loss is finite", lambda: history_finite(os.path.join(out, "history.csv")))
        run.outcome.check("checkpoint holds the trained parameters", lambda: params_match(run.checkpoint, clock.params))
        runs.append(TrainRun(wall, len(clock.times), clock.intervals_ms()))
        evals += run_evals(run, data, run.checkpoint, EVALS_PER_COMMAND, f"eval/{i}", tracer)
    return runs, evals


def run_train(run, commands: int) -> dict:
    data = run.path("data")
    setup_s = set_up(run, lambda: (gendata(data, TOY, run.seed), synthdata.load_dataset(data)))
    batch = synthdata.BatchSpec()
    expected = TRAIN_EPOCHS * synthdata.batches_per_epoch(synthdata.load_dataset(data).records, batch)

    runs, evals = train_pass(run, data, commands, expected, None)
    if run.tracer is not None:
        untraced_s = sum(r.wall_s for r in runs) + sum(e.eval_s for e in evals)
        runs, evals = train_pass(run, data, commands, expected, run.tracer)
        run.set_overhead(untraced_s, sum(r.wall_s for r in runs) + sum(e.eval_s for e in evals))
    run.units = sum(r.steps for r in runs)
    run.unit_ms = 1000.0 * sum(r.wall_s for r in runs) / run.units if run.units else None
    return {"setup_s": setup_s, **train_metrics(runs, batch.p * batch.k), **eval_metrics(evals)}


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------


def run_retrieval(run, sequences: int) -> dict:
    """Embed, score and re-rank a large gallery with a checkpoint fitted
    during set-up; the set-up fits also give the training metrics."""
    data, fit_data = run.path("gallery"), run.path("fit-data")
    run.checkpoint = run.path("checkpoint.ckpt")
    batch = synthdata.BatchSpec()
    fits = []

    def build():
        gendata(data, GALLERY, run.seed)
        gendata(fit_data, TOY, run.seed)
        fit_set = synthdata.load_dataset(fit_data)
        cfg = trainer.TrainConfig(total_epochs=RETRIEVAL_FIT_EPOCHS, seed=run.seed)
        with StepClock().installed() as clock:
            t0 = time.perf_counter()
            result = trainer.fit(cfg, fit_set)
            wall = time.perf_counter() - t0
        trainer.save_checkpoint(run.checkpoint, result)
        synthdata.load_dataset(data)
        fits.append((result, TrainRun(wall, len(clock.times), clock.intervals_ms())))

    setup_s = set_up(run, build)
    model = fits[-1][0].model
    run.outcome.attempted += sum(r.steps for _, r in fits)
    run.outcome.check("every loss is finite", lambda: all(np.isfinite(h["loss_total"]) for f, _ in fits for h in f.history))
    run.outcome.check("checkpoint embeds bitwise-equal to the fitted model", lambda: embeds_equal(model, run.checkpoint, data))

    evals = run_evals(run, data, run.checkpoint, sequences, "measure", None)
    if run.tracer is not None:
        untraced = evals
        evals = run_evals(run, data, run.checkpoint, sequences, "measure", run.tracer)
        run.set_overhead(sum(e.eval_s for e in untraced), sum(e.eval_s for e in evals))
    run.units = len(evals)
    run.unit_ms = 1000.0 * sum(e.eval_s for e in evals) / run.units if run.units else None
    return {"setup_s": setup_s, **train_metrics([r for _, r in fits], batch.p * batch.k), **eval_metrics(evals)}


def embeds_equal(model, checkpoint, data) -> bool:
    dataset = synthdata.load_dataset(data)
    reloaded = trainer.model_from_checkpoint(checkpoint)
    a = evaluation.embed_split(model, dataset, "query").features
    b = evaluation.embed_split(reloaded, dataset, "query").features
    return np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class Run:
    """State of one benchmark run."""

    def __init__(self, args, workdir):
        self.seed = args.seed
        self.tracer = spans.Tracer() if args.trace else None
        self.outcome = Outcome()
        self.workdir = workdir
        self.units = 0  # training steps, or eval sequences on retrieval
        self.unit_ms = None  # measured wall time per unit
        self.checkpoint = None
        self.overhead_pct = None

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def set_overhead(self, untraced_s: float, traced_s: float) -> None:
        if untraced_s > 0 and traced_s > 0:
            self.overhead_pct = 100.0 * (traced_s - untraced_s) / untraced_s


def machine_record(seed: int) -> dict:
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
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def load_metric_units() -> tuple:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]}, {m["name"]: m["unit"] for m in bench["per_layer"]})


def run_workload(run, args) -> dict:
    if args.workload == "train-toy":
        return run_train(run, max(1, round(args.seconds / TOY_COMMAND_S)))
    return run_retrieval(run, max(1, round(args.seconds / RETRIEVAL_SEQUENCE_S)))


def main(argv=None) -> int:
    args = parse_args(argv)
    end_to_end, per_layer = load_metric_units()
    base = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(base, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    run = Run(args, workdir)
    try:
        values = run_workload(run, args)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if run.tracer is not None:
            values.update(trace_report(run, args, base))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for name, unit in (per_layer if args.trace else end_to_end).items():
        value = values.get(name)
        if value is None or not np.isfinite(value):
            run.outcome.op(False, f"metric {name} was not measured")
            value = None
        metrics[name] = {"value": value, "unit": unit}
    record = machine_record(args.seed)
    record["error_rate"] = run.outcome.failed / max(1, run.outcome.attempted)
    record.update({key: values.get(key) for key in ("tail_percentile", "tail_steps") + QUALITY})
    print("record " + json.dumps(record))
    result = {"correct": run.outcome.failed == 0, "attempted": run.outcome.attempted, "failed": run.outcome.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def trace_report(run, args, base) -> dict:
    """Per-layer metrics of the traced pass; writes the spans and prints
    the baseline table."""
    run.tracer.probe_memory()
    layers = spans.layer_metrics(run.tracer, run.units)
    if run.checkpoint and os.path.isfile(run.checkpoint):
        layers["tensorcore.checkpoint_bytes"] = float(os.path.getsize(run.checkpoint))
    layers["trace.overhead_pct"] = run.overhead_pct
    os.makedirs(os.path.join(base, "traces"), exist_ok=True)
    run.tracer.write(os.path.join(base, "traces", f"{args.workload}-seed{args.seed}.jsonl"))
    if run.unit_ms is not None:
        if args.workload == "retrieval":
            table = spans.eval_table(run.tracer, run.units, run.unit_ms / 1000.0)
        else:
            table = spans.op_table(run.tracer, run.units, run.unit_ms)
        print("\n".join(table))
    return layers


if __name__ == "__main__":
    sys.exit(main())
