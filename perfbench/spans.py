"""Outside-in span recorder for the traced benchmark run.

The recorder never edits voxbench: it replaces the public names that
``voxbench.bench.harness`` and ``voxbench.reduction`` look up at call time
with wrappers that time each call. Spans are kept in memory and written out
once the sweep has finished. Recording is thread-safe because ``--jobs 2``
runs classifier cells on two threads.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

# Names the harness looks up at call time; every workload must call each of
# them, so zero calls means the boundary moved and the trace would read as a
# speed-up. pca_fit/sne_fit are checked per grid.
HARNESS_NAMES = (
    "load_wav",
    "fit_silence_model",
    "remove_silence",
    "extract",
    "holdout_train_mask",
    "reduce_for_pipeline",
    "train_by_name",
    "predict",
    "write_sweep_outputs",
)
# Kernel-level names may stop being called after a fused rewrite; they are
# recorded while they exist and exempt from the zero-call check.
REDUCTION_KERNEL_NAMES = ("calibrated_conditionals", "sne_conditional_q", "sne_cost", "sne_gradient")

CLASSIFIER_SLUGS = {
    "complex tree": "complex_tree",
    "weighted knn": "weighted_knn",
    "fine svm": "fine_svm",
    "feed forward": "feed_forward",
    "bagged trees": "bagged_trees",
}


class Tracer:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root_id = None  # the first span; parent of spans opened on worker threads

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs=None):
        """Run fn inside a span; attrs(args, kwargs, result) adds fields."""
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else self.root_id
        if self.root_id is None:
            self.root_id = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "start": start,
            "end": end,
            "thread": threading.get_ident(),
            "run": self.run_id,
        }
        if attrs is not None:
            span.update(attrs(args, kwargs, result))
        with self._lock:
            self.spans.append(span)
            self.calls[name] += 1
        return result

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, attrs)

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the stage-level harness names and the reduction kernels."""
    from voxbench import reduction
    from voxbench.bench import harness

    def _arg(args, kwargs, index, key):
        return args[index] if len(args) > index else kwargs[key]

    per_name = {
        "load_wav": lambda a, k, r: {"samples": len(r)},
        "remove_silence": lambda a, k, r: {
            "samples_in": len(_arg(a, k, 0, "signal")),
            "samples_kept": len(r.trimmed),
        },
        "extract": lambda a, k, r: {"kind": _arg(a, k, 1, "config").kind, "rows": int(r.values.shape[0])},
        "holdout_train_mask": lambda a, k, r: {"rows": int(r.size)},
        "reduce_for_pipeline": lambda a, k, r: {"method": _arg(a, k, 2, "method")},
        "train_by_name": lambda a, k, r: {"classifier": _arg(a, k, 0, "name")},
        "predict": lambda a, k, r: {"classifier": _arg(a, k, 0, "model").kind, "queries": int(r[0].size)},
    }
    for attr in HARNESS_NAMES:
        tracer.wrap(harness, attr, attr, per_name.get(attr))
    tracer.wrap(
        reduction,
        "sne_fit",
        "sne_fit",
        lambda a, k, r: {"n": int(len(_arg(a, k, 0, "data"))), "iterations": int(_arg(a, k, 1, "config").max_iter)},
    )
    tracer.wrap(reduction, "pca_fit", "pca_fit")
    for attr in REDUCTION_KERNEL_NAMES:
        tracer.wrap(reduction, attr, attr)


def check_boundaries(tracer: Tracer, reducers) -> None:
    """Raise when a stage-level boundary the workload must cross saw no call."""
    required = list(HARNESS_NAMES)
    required += [f"{method}_fit" for method in reducers]
    missing = [name for name in required if tracer.calls.get(name, 0) == 0]
    if missing:
        raise RuntimeError(f"traced boundaries recorded zero calls: {', '.join(missing)}")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-name self time: duration minus the union of child intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        covered, cursor = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        totals[span["name"]] += (span["end"] - span["start"]) - covered
    return dict(totals)


def layer_metrics(spans: list[dict], sweep_span: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sweep, keyed by BENCHMARK.json name."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def total(name, **match):
        return sum(
            s["end"] - s["start"]
            for s in by_name[name]
            if all(s.get(key) == value for key, value in match.items())
        )

    def first_start(name):
        return min(s["start"] for s in by_name[name])

    def last_end(name):
        return max(s["end"] for s in by_name[name])

    # Stage envelopes follow run_sweep's order: frames for every extractor,
    # then every reduction, then the cells, then the report files.
    frames_env = last_end("extract") - first_start("load_wav")
    reduce_env = last_end("reduce_for_pipeline") - first_start("reduce_for_pipeline")
    write_env = total("write_sweep_outputs")
    cells_env = first_start("write_sweep_outputs") - last_end("reduce_for_pipeline")
    cell_busy = total("train_by_name") + total("predict")

    fits = by_name["sne_fit"]
    sne_n = max((s["n"] for s in fits), default=0)
    iterations = sum(s["iterations"] for s in fits)
    sne_s = total("sne_fit")
    calibrate_s = total("calibrated_conditionals")

    extracted = sum(s["rows"] for s in by_name["extract"])
    kept = sum(s["rows"] for s in by_name["holdout_train_mask"])
    queries = sum(s["queries"] for s in by_name["predict"])
    samples_in = sum(s["samples_in"] for s in by_name["remove_silence"])
    samples_kept = sum(s["samples_kept"] for s in by_name["remove_silence"])

    metrics = {
        "bench.stage.frames.s": frames_env,
        "bench.stage.reduce.s": reduce_env,
        "bench.stage.cells.s": cells_env,
        "bench.stage.write.s": write_env,
        "bench.stage.coverage": (frames_env + reduce_env + cells_env + write_env)
        / (sweep_span["end"] - sweep_span["start"]),
        "bench.reduce.parallelism": total("reduce_for_pipeline") / reduce_env,
        "bench.cells.parallelism": cell_busy / cells_env,
        "reduction.sne_fit.s": sne_s,
        "reduction.sne.calibrate.s": calibrate_s,
        "reduction.sne.iter_ms": 1e3 * (sne_s - calibrate_s) / iterations if iterations else 0.0,
        "reduction.sne.iterations": iterations,
        "reduction.sne.q.s": total("sne_conditional_q"),
        "reduction.sne.cost.s": total("sne_cost"),
        "reduction.sne.grad.s": total("sne_gradient"),
        "reduction.sne.n": sne_n,
        "reduction.sne.dense_matrix_mb": sne_n * sne_n * 8 / 1e6,
        "reduction.pca.s": total("pca_fit"),
        "features.frames_extracted": extracted,
        "features.frames_kept": kept,
        "features.kept_ratio": kept / extracted,
        "classifiers.queries": queries,
        "classifiers.predict.us_per_query": 1e6 * total("predict") / queries,
        "preprocessing.vad.s": total("fit_silence_model") + total("remove_silence"),
        "preprocessing.kept_sample_ratio": samples_kept / samples_in,
        "audio_io.load_wav.s": total("load_wav"),
        "audio_io.load_wav.calls": len(by_name["load_wav"]),
    }
    for kind in ("mfcc", "lpcc", "plp"):
        metrics[f"features.extract.{kind}.s"] = total("extract", kind=kind)
    for name, slug in CLASSIFIER_SLUGS.items():
        metrics[f"classifiers.train.{slug}.s"] = total("train_by_name", classifier=name)
        metrics[f"classifiers.predict.{slug}.s"] = total("predict", classifier=name)
    return metrics


def exact_counts(spans: list[dict]) -> dict:
    """Counts that repeat exactly for one workload, commit and seed."""
    ordered = sorted(spans, key=lambda s: s["start"])
    extracted: dict[str, int] = defaultdict(int)
    for span in ordered:
        if span["name"] == "extract":
            extracted[span["kind"]] += span["rows"]
    # run_sweep builds one frame table, and one train mask, per extractor in grid order
    kept = [s["rows"] for s in ordered if s["name"] == "holdout_train_mask"]
    return {
        "frames_extracted": dict(extracted),
        "frames_kept": dict(zip(extracted, kept)),
        "sne_fits": [
            {"n": s["n"], "iterations": s["iterations"], "dense_matrix_bytes": s["n"] ** 2 * 8}
            for s in ordered
            if s["name"] == "sne_fit"
        ],
        "queries_predicted": sum(s["queries"] for s in ordered if s["name"] == "predict"),
        "load_wav_calls": sum(1 for s in ordered if s["name"] == "load_wav"),
    }
