"""Command-line interface: synth, vad, extract, reduce, train, predict, bench, roc."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import pickle
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audio_io import load_wav, write_wav
from .bench import (
    ClassifierSpec,
    HarnessSettings,
    ScalingCurve,
    SweepGrid,
    generate_synthetic_corpus,
    load_manifest,
    load_report_json,
    roc_auc,
    run_sweep,
)
from .bench.harness import (
    DEFAULT_MAX_FRAMES_PER_FILE,
    DEFAULT_RECALL_THRESHOLD,
    default_grid,
    recording_features,
)
from .bench.reports import format_float, write_csv, write_report_json
from .classifiers import LabeledDataset, predict, train_by_name
from .errors import PipelineError, check_parameter_names
from .features import EXTRACTOR_KINDS, ExtractorConfig, default_config
from .preprocessing import (
    DEFAULT_BLOCK_MS,
    DEFAULT_MIN_SEGMENT_MS,
    DEFAULT_U_THRESHOLD,
    fit_silence_model,
    remove_silence,
)
from .reduction import REDUCER_NAMES, SNE_KERNELS, ReducerSpec, SneConfig, reduce_for_pipeline

MODEL_FORMAT = "voxbench-model"
MODEL_FORMAT_VERSION = 1

MODEL_ALIASES = {
    "knn": "weighted knn",
    "tree": "complex tree",
    "bagged": "bagged trees",
    "svm": "fine svm",
    "ffnn": "feed forward",
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# --- feature/embedding CSV interchange ------------------------------------------

def write_feature_csv(path, rows, coeff_count, prefix):
    """Rows of (source, speaker, frame, vector) with c1..cN / y1..yN columns."""
    header = ["source", "speaker", "frame", *(f"{prefix}{i+1}" for i in range(coeff_count))]
    write_csv(
        path, header, ([source, speaker, frame, *map(format_float, vector)] for source, speaker, frame, vector in rows)
    )


def _csv_int(where: str, field: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: {field} must be an integer, got {text!r}") from None


def read_feature_csv(path):
    """Returns (sources, speakers, frames, matrix); speaker -1 when unlabeled."""
    sources, speakers, frames, vectors = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 3:
            raise ValueError(f"{path}: header has {len(header)} fields, expected at least 3 (source, speaker, frame)")
        value_cols = len(header) - 3
        for row in reader:
            if not row:
                continue
            where = f"{path}: line {reader.line_num}"
            if len(row) < 3 + value_cols:
                raise ValueError(f"{where} has {len(row)} fields, expected {3 + value_cols}")
            sources.append(row[0])
            speakers.append(_csv_int(where, "speaker", row[1]) if row[1] not in ("", "None") else -1)
            frames.append(_csv_int(where, "frame", row[2]))
            try:
                vector = [float(v) for v in row[3 : 3 + value_cols]]
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            bad = [name for name, v in zip(header[3:], vector) if not math.isfinite(v)]
            if bad:
                raise ValueError(f"{where}: non-finite feature value in {', '.join(bad)}")
            vectors.append(vector)
    if not sources:
        raise ValueError(f"{path}: no data rows")
    return sources, np.array(speakers), np.array(frames), np.array(vectors)


# --- subcommand handlers ----------------------------------------------------------

def cmd_synth(args) -> int:
    manifest = generate_synthetic_corpus(
        n_speakers=args.speakers,
        samples_each=args.samples,
        seconds=args.seconds,
        seed=args.seed,
        out_dir=args.out_dir,
        sample_rate=args.sample_rate,
    )
    print(f"wrote {len(manifest.entries)} recordings and manifest.csv under {args.out_dir}")
    return 0


def cmd_vad(args) -> int:
    signal = load_wav(args.in_path)
    model = fit_silence_model(signal, u_threshold=args.threshold, frame_ms=args.block_ms)
    result = remove_silence(
        signal,
        model,
        min_segment_ms=args.min_segment_ms,
        endpoints_only=args.endpoints_only,
    )
    write_wav(args.out_path, result.trimmed)
    if args.report:
        payload = {
            "segments": [
                {
                    "start_sample": int(s),
                    "end_sample": int(e),
                    "start_seconds": s / signal.sample_rate,
                    "end_seconds": e / signal.sample_rate,
                }
                for s, e in result.segments
            ],
            "input_samples": len(signal),
            "trimmed_samples": len(result.trimmed),
            "sample_rate": signal.sample_rate,
        }
        write_report_json(payload, args.report)
    print(f"kept {len(result.trimmed)} of {len(signal)} samples in {len(result.segments)} segments")
    return 0


def _extractor_config_from_args(args) -> ExtractorConfig:
    """default_config(args.method) with each ExtractorConfig field that a flag set."""
    fields = (knob.name for knob in dataclasses.fields(ExtractorConfig)[1:])
    overrides = {name: getattr(args, name) for name in fields if getattr(args, name) is not None}
    return default_config(args.method, **overrides)


def cmd_extract(args) -> int:
    config = _extractor_config_from_args(args)
    in_path = Path(args.in_path)
    rows = []
    if in_path.suffix.lower() == ".csv":
        manifest = load_manifest(in_path)
        jobs = [(manifest.resolve(e), e.path, e.speaker) for e in manifest.entries]
    else:
        jobs = [(in_path, in_path.name, -1)]
    sample_rate = None
    for wav_path, source, speaker in jobs:
        sample_rate, (feats,) = recording_features(wav_path, source, [config], sample_rate, trim=not args.no_vad)
        if isinstance(feats, PipelineError):
            raise feats
        for frame_idx, vector in enumerate(feats.values):
            rows.append((source, speaker, frame_idx, vector))
    write_feature_csv(args.out_path, rows, config.num_ceps, "c")
    print(f"wrote {len(rows)} frames x {config.num_ceps} coefficients to {args.out_path}")
    return 0


def cmd_reduce(args) -> int:
    if args.trace and args.method != "sne":
        return _fail("--trace writes the SNE cost per iteration; --method pca has no such trace")
    spec = ReducerSpec(
        args.method, target_dim=args.dim, perplexity=args.perplexity, max_iter=args.max_iter,
        learning_rate=args.learning_rate, kernel=args.kernel,
    )
    sources, speakers, frames, matrix = read_feature_csv(args.in_path)
    mask = np.ones(len(matrix), bool)
    reduced, info = reduce_for_pipeline(matrix, mask, spec.method, config=spec.sne_config(args.seed))
    write_feature_csv(args.out_path, zip(sources, speakers, frames, reduced), args.dim, "y")
    if args.trace:
        write_csv(args.trace, ["iteration", "cost"], ([i, format_float(c)] for i, c in enumerate(info["cost_trace"])))
    print(f"wrote {reduced.shape[0]} x {args.dim} embedding to {args.out_path}")
    return 0


def _parse_params(spec: str | None) -> dict:
    if not spec:
        return {}
    params = {}
    for item in spec.split(","):
        key, _, raw = item.partition("=")
        if not _:
            raise ValueError(f"malformed parameter {item!r}; expected key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        params[key.strip()] = value
    return params


def cmd_train(args) -> int:
    _, speakers, _, matrix = read_feature_csv(args.in_path)
    if (speakers < 0).any():
        return _fail("training rows must carry speaker labels")
    name = MODEL_ALIASES[args.model]
    data = LabeledDataset(points=matrix, labels=speakers, train_mask=np.ones(len(speakers), bool))
    (model,) = train_by_name(name, [data], [args.seed], **_parse_params(args.params))
    if isinstance(model, PipelineError):
        raise model
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "class_count": model.class_count,
        "input_dim": model.input_dim,
        "model": model,
    }
    with open(args.out_path, "wb") as fh:
        pickle.dump(payload, fh)
    print(f"trained {name} on {matrix.shape[0]} frames; saved to {args.out_path}")
    return 0


def cmd_predict(args) -> int:
    with open(args.model_path, "rb") as fh:
        payload = pickle.load(fh)
    if payload.get("format") != MODEL_FORMAT or payload.get("version") != MODEL_FORMAT_VERSION:
        return _fail(f"{args.model_path} is not a version-{MODEL_FORMAT_VERSION} model file")
    model = payload["model"]
    sources, _, frames, matrix = read_feature_csv(args.in_path)
    labels, scores = predict(model, matrix)
    header = ["source", "frame", "predicted", *(f"score{i}" for i in range(model.class_count))]
    rows = (
        [source, frame, int(label), *map(format_float, row)]
        for source, frame, label, row in zip(sources, frames, labels, scores)
    )
    write_csv(args.out_path, header, rows)
    print(f"predicted {len(labels)} frames with {model.kind}; wrote {args.out_path}")
    return 0


def _grid_specs(raw: dict, axis: str, key: str, build) -> tuple:
    """build(item[key], other fields) for each entry of raw[axis]; ValueError if malformed."""
    items = raw.get(axis, [])
    if not isinstance(items, list):
        raise ValueError(f"grid {axis!r} must be a list of objects")
    specs = []
    for item in items:
        if not isinstance(item, dict) or key not in item:
            raise ValueError(f"grid {axis!r} entry {item!r} must be an object with a {key!r} key")
        specs.append(build(item[key], {k: v for k, v in item.items() if k != key}))
    return tuple(specs)


def _knob_names(spec_type) -> list[str]:
    """The fields of a spec dataclass after the first, which names its kind, method or classifier."""
    return [f.name for f in dataclasses.fields(spec_type)[1:]]


def _extractor_spec(kind, rest: dict) -> ExtractorConfig:
    """default_config(kind, **rest); a ValueError names the extractor, as ReducerSpec's do."""
    check_parameter_names(f"extractor {kind!r}", rest, _knob_names(ExtractorConfig))
    try:
        return default_config(kind, **rest)
    except ValueError as exc:
        raise ValueError(f"extractor {kind!r}: {exc}") from None


def _reducer_spec(method, rest: dict) -> ReducerSpec:
    check_parameter_names(f"reducer {method!r}", rest, _knob_names(ReducerSpec))
    return ReducerSpec(method, **rest)


def _grid_from_json(path) -> tuple[SweepGrid, dict]:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: a grid file must hold one JSON object")
    settings_keys = [f.name for f in dataclasses.fields(HarnessSettings)]
    check_parameter_names("grid", raw, [f.name for f in dataclasses.fields(SweepGrid)] + settings_keys)
    # a present key always asks for a curve; {} is the default one
    curve = raw.get("scaling_curve", {})
    if not isinstance(curve, dict):
        raise ValueError("grid 'scaling_curve' must be an object")
    check_parameter_names("grid 'scaling_curve'", curve, [f.name for f in dataclasses.fields(ScalingCurve)])
    default = default_grid()
    grid = SweepGrid(
        extractors=_grid_specs(raw, "extractors", "kind", _extractor_spec) or default.extractors,
        reducers=_grid_specs(raw, "reducers", "method", _reducer_spec) or default.reducers,
        classifiers=_grid_specs(raw, "classifiers", "name", ClassifierSpec) or default.classifiers,
        scaling_curve=ScalingCurve(**curve) if "scaling_curve" in raw else None,
    )
    extras = {k: raw[k] for k in settings_keys if k in raw}
    return grid, extras


def cmd_bench(args) -> int:
    manifest = load_manifest(args.manifest)
    if args.grid:
        grid, extras = _grid_from_json(args.grid)
    else:
        grid, extras = None, {}
    settings = HarnessSettings(
        max_frames_per_file=extras.get("max_frames_per_file", args.max_frames_per_file),
        recall_threshold=extras.get("recall_threshold", args.recall_threshold),
    )
    report = run_sweep(
        manifest,
        grid=grid,
        master_seed=args.seed,
        settings=settings,
        out_dir=args.out_dir,
        jobs=args.jobs,
    )
    ok = sum(1 for e in report["combinations"] if e["status"] == "ok")
    print(f"{ok}/{len(report['combinations'])} combinations succeeded; report under {args.out_dir}")
    curve = report.get("scaling_curve")
    if curve is not None:
        if "failure_reason" in curve:
            raise PipelineError(curve["failure_reason"])
        print("scaling curve written to scaling_curve.csv")
    return 0


def cmd_roc(args) -> int:
    report = load_report_json(args.report)
    for entry in report["combinations"]:
        matches = (
            entry.get("extractor") == args.extractor
            and entry.get("reducer") == args.reducer
            and entry.get("classifier") == MODEL_ALIASES.get(args.classifier, args.classifier)
        )
        if matches:
            if entry["status"] != "ok":
                return _fail(f"combination failed: {entry.get('failure_reason')}")
            curves = entry["roc_curves"]
            key = str(args.speaker)
            if key not in curves:
                return _fail(f"no ROC curve for speaker {args.speaker}")
            points = curves[key]
            write_csv(args.out_path, ["fpr", "tpr"], ([format_float(fpr), format_float(tpr)] for fpr, tpr in points))
            print(f"wrote {len(points)} ROC points (AUC {format_float(roc_auc(points))}) to {args.out_path}")
            return 0
    return _fail("no matching combination in the report")


# --- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="voxbench", description=__doc__)
    parser.add_argument("--version", action="version", version=f"voxbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic speaker corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--speakers", type=int, default=7)
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--seconds", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-rate", type=int, default=16000)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("vad", help="remove silence from a recording")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_U_THRESHOLD, help="cutoff in sigma multiples")
    p.add_argument("--block-ms", type=float, default=DEFAULT_BLOCK_MS)
    p.add_argument("--min-segment-ms", type=float, default=DEFAULT_MIN_SEGMENT_MS)
    p.add_argument("--endpoints-only", action="store_true")
    p.add_argument("--report", help="write segment boundaries as JSON")
    p.set_defaults(handler=cmd_vad)

    p = sub.add_parser("extract", help="extract features from a wav or manifest")
    p.add_argument("--in", dest="in_path", required=True, help="wav file or manifest csv")
    p.add_argument("--method", choices=EXTRACTOR_KINDS, required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--no-vad", action="store_true", help="skip silence removal")
    # each dest is an ExtractorConfig field name
    p.add_argument("--pre-emphasis", dest="pre_emphasis_a", type=float)
    p.add_argument("--frame-ms", type=float)
    p.add_argument("--hop-ms", type=float)
    p.add_argument("--fft-size", type=int)
    p.add_argument("--filter-count", type=int)
    p.add_argument("--lpc-order", dest="lpc_order_q", type=int)
    p.add_argument("--num-ceps", type=int)
    p.add_argument("--dct", dest="dct_kind", choices=("dct2", "idct"))
    p.add_argument("--include-c0", action="store_true", help="keep the log-energy coefficient")
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("reduce", help="reduce a feature csv to a low-dimensional embedding")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--method", choices=REDUCER_NAMES, required=True)
    p.add_argument("--dim", type=int, default=SneConfig.target_dim)
    p.add_argument("--perplexity", type=float)
    p.add_argument("--max-iter", type=int, default=SneConfig.max_iter)
    p.add_argument("--learning-rate", type=float, help="default 0.2 (gaussian), n/12 (student-t)")
    p.add_argument("--kernel", choices=SNE_KERNELS, default=SneConfig.kernel)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--trace", help="write the per-iteration SNE cost trace csv (sne only)")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("train", help="train a classifier on an embedding csv")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--model", choices=sorted(MODEL_ALIASES), required=True)
    p.add_argument("--params", help="comma-separated key=value overrides, e.g. k=5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="out_path", required=True)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("predict", help="label an embedding csv with a saved model")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--model-file", dest="model_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("bench", help="run the full combination sweep")
    p.add_argument("--manifest", required=True)
    p.add_argument("--grid", help="JSON grid config; defaults to the full 5x3x2 grid")
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="threads for the embeddings (>= 1)")
    p.add_argument("--max-frames-per-file", type=int, default=DEFAULT_MAX_FRAMES_PER_FILE)
    p.add_argument("--recall-threshold", type=float, default=DEFAULT_RECALL_THRESHOLD)
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("roc", help="extract one speaker's ROC curve from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--speaker", type=int, required=True)
    p.add_argument("--extractor", default="mfcc")
    p.add_argument("--reducer", default="sne")
    p.add_argument("--classifier", default="knn")
    p.add_argument("--out", dest="out_path", required=True)
    p.set_defaults(handler=cmd_roc)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except PipelineError as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    except (OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
