"""Benchmark orchestration: every extractor x reducer x classifier combination.

The pipeline per combination is silence removal, feature extraction,
dimensionality reduction (inductive for PCA, transductive for the neighbor
embedding), frame-level classification on a held-out-recording split, and
metric collection. Failures are recorded per combination, never fatal to a
sweep.
"""

from __future__ import annotations

import dataclasses
import numbers
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from ..audio_io import load_wav
from ..classifiers import CLASSIFIER_NAMES, LabeledDataset, check_classifier, predict, train_by_name
from ..errors import PipelineError, UndefinedRoc
from ..features import EXTRACTOR_KINDS, ExtractorConfig, check_frame_cap, default_config, extract
from ..preprocessing import DEFAULT_MIN_SEGMENT_MS, DEFAULT_U_THRESHOLD, fit_silence_model, remove_silence
from ..reduction import REDUCER_NAMES, ReducerSpec, is_transductive, reduce_for_pipeline
from .corpus import CorpusManifest, derive_seed
from .reports import (
    REFERENCE_ACCURACY,
    REFERENCE_DISTINGUISHABLE,
    REFERENCE_NOTE,
    REFERENCE_SCALING,
    format_float,
    write_csv,
    write_report_json,
)

DEFAULT_MAX_FRAMES_PER_FILE = 60
DEFAULT_RECALL_THRESHOLD = 0.5


@dataclass(frozen=True)
class ClassifierSpec:
    """Classifier name plus keyword overrides of its preset."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_classifier(self.name, self.params)


@dataclass(frozen=True)
class HarnessSettings:
    """Cross-combination knobs shared by a whole sweep."""

    max_frames_per_file: Optional[int] = DEFAULT_MAX_FRAMES_PER_FILE
    recall_threshold: float = DEFAULT_RECALL_THRESHOLD

    def __post_init__(self):
        check_frame_cap(self.max_frames_per_file, "max_frames_per_file")
        threshold = self.recall_threshold
        if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real) or not 0 <= threshold <= 1:
            raise ValueError(f"recall_threshold must be a real number in [0, 1], got {threshold!r}")


@dataclass(frozen=True)
class ScalingCurve:
    """Accuracy of one combination versus the number of speakers, run inside a sweep.

    The combination is named by extractor kind, reducer method and classifier
    name. It runs with the sweep grid's spec on each axis, or the default spec
    where the grid has none. speaker_counts must be distinct integers >= 2 and
    is kept sorted.
    """

    extractor: str = "mfcc"
    reducer: str = "sne"
    classifier: str = "weighted knn"
    speaker_counts: tuple[int, ...] = (2, 3, 4, 5, 6, 7)

    def __post_init__(self):
        for key, names in (
            ("extractor", EXTRACTOR_KINDS),
            ("reducer", REDUCER_NAMES),
            ("classifier", CLASSIFIER_NAMES),
        ):
            if getattr(self, key) not in names:
                raise ValueError(f"scaling_curve {key} must be one of {names}, got {getattr(self, key)!r}")
        counts = self.speaker_counts
        valid = isinstance(counts, (list, tuple)) and all(
            isinstance(c, numbers.Integral) and c >= 2 for c in counts
        )
        if not counts or not valid or len(set(counts)) < len(counts):
            raise ValueError(f"speaker_counts must be distinct integers >= 2, got {counts!r}")
        object.__setattr__(self, "speaker_counts", tuple(sorted(counts)))


@dataclass(frozen=True)
class SweepGrid:
    """Extractors x reducers x classifiers; each axis is keyed by kind, method and name.

    An optional scaling curve runs after the grid, on the same frame tables.
    """

    extractors: tuple[ExtractorConfig, ...]
    reducers: tuple[ReducerSpec, ...]
    classifiers: tuple[ClassifierSpec, ...]
    scaling_curve: Optional[ScalingCurve] = None

    def __post_init__(self):
        # stage outputs and report cells are keyed by these, so a repeat would overwrite
        axes = (
            ("extractor kind", [e.kind for e in self.extractors]),
            ("reducer method", [r.method for r in self.reducers]),
            ("classifier name", [c.name for c in self.classifiers]),
        )
        for label, keys in axes:
            repeated = sorted({k for k in keys if keys.count(k) > 1})
            if repeated:
                raise ValueError(f"grid repeats {label} {', '.join(repeated)}; each may appear once")


def default_grid() -> SweepGrid:
    return SweepGrid(
        extractors=tuple(default_config(kind) for kind in EXTRACTOR_KINDS),
        reducers=tuple(ReducerSpec(method=m) for m in REDUCER_NAMES),
        classifiers=tuple(ClassifierSpec(name=n) for n in CLASSIFIER_NAMES),
    )


@dataclass(frozen=True)
class FrameTable:
    """Stacked per-frame features for a whole corpus."""

    features: np.ndarray
    speakers: np.ndarray  # dense 0..K-1
    recordings: np.ndarray  # index into manifest.entries
    class_count: int

    def first_speakers(self, count: int) -> "FrameTable":
        """The rows of dense speakers 0..count-1, in table order."""
        rows = self.speakers < count
        return FrameTable(self.features[rows], self.speakers[rows], self.recordings[rows], count)


def holdout_train_mask(manifest: CorpusManifest, table: FrameTable, rotation: int) -> np.ndarray:
    """True for frames of training recordings; one recording per speaker held out.

    The split is by recording, so frames of one file never straddle the split;
    rotation picks which recording each speaker contributes to the test side.
    """
    held_out = set()
    by_speaker: dict[int, list[int]] = {}
    for rec_idx, entry in enumerate(manifest.entries):
        by_speaker.setdefault(entry.speaker, []).append(rec_idx)
    for recs in by_speaker.values():
        recs_sorted = sorted(recs, key=lambda r: manifest.entries[r].sample)
        held_out.add(recs_sorted[rotation % len(recs_sorted)])
    return ~np.isin(table.recordings, sorted(held_out))


# --- metrics -----------------------------------------------------------------

def confusion_matrix(true_labels, predicted, class_count: int) -> np.ndarray:
    matrix = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(matrix, (true_labels, predicted), 1)
    return matrix


def roc_points(test_labels, scores, speaker: int) -> np.ndarray:
    """One-vs-rest ROC sweep over the speaker's score channel.

    Points are sorted by false-positive rate and include (0,0) and (1,1);
    tied scores collapse into single sweep steps.
    """
    channel = np.asarray(scores)[:, speaker]
    positives = np.asarray(test_labels) == speaker
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedRoc(f"speaker {speaker} lacks positive or negative test frames")
    order = np.argsort(-channel, kind="stable")
    sorted_pos = positives[order]
    sorted_scores = channel[order]
    tp = np.cumsum(sorted_pos)
    fp = np.cumsum(~sorted_pos)
    boundaries = np.nonzero(np.diff(sorted_scores))[0]
    idx = np.concatenate([boundaries, [positives.size - 1]])
    curve = np.column_stack([fp[idx] / n_neg, tp[idx] / n_pos])
    return np.vstack([[0.0, 0.0], curve])


def roc_auc(points) -> float:
    points = np.asarray(points, dtype=np.float64)
    return float(np.trapezoid(points[:, 1], points[:, 0]))


def _evaluate_split(model, data: LabeledDataset, table: FrameTable, settings: HarnessSettings) -> dict:
    """The report fields of a trained model on the test rows of data."""
    true_labels, test_recordings = data.test_labels, table.recordings[~data.train_mask]
    predicted, scores = predict(model, data.test_points)

    confusion = confusion_matrix(true_labels, predicted, table.class_count)
    total = int(confusion.sum())
    accuracy_pct = 100.0 * confusion.trace() / total
    row_sums = confusion.sum(axis=1)
    recalls = np.where(row_sums > 0, confusion.diagonal() / np.maximum(row_sums, 1), 0.0)
    distinguishable = int((recalls > settings.recall_threshold).sum())

    curves = {}
    for speaker in range(table.class_count):
        try:
            curves[str(speaker)] = roc_points(true_labels, scores, speaker)
        except UndefinedRoc:
            pass

    # recording-level majority vote, reported separately from frame accuracy
    rec_hits = []
    for rec in np.flatnonzero(np.bincount(test_recordings)):
        rows = test_recordings == rec
        votes = np.bincount(predicted[rows], minlength=table.class_count)
        rec_hits.append(votes.argmax() == true_labels[rows][0])

    return {
        "frame_accuracy_pct": float(accuracy_pct),
        "per_speaker_recall": [float(r) for r in recalls],
        "distinguishable_count": distinguishable,
        "confusion": confusion.tolist(),
        "roc_curves": curves,
        "recording_accuracy_pct": float(100.0 * np.mean(rec_hits)),
        "test_frames": total,
    }


# --- stage graph ------------------------------------------------------------------

def _failure(exc: PipelineError) -> str:
    return f"{type(exc).__name__}: {exc}"


def recording_features(path, name: str, extractors, sample_rate=None, max_frames=None, trim: bool = True):
    """The recording's sample rate and, per extractor, its FeatureMatrix or PipelineError.

    Raises a read, sample-rate (unless sample_rate is None) or trimming (unless trim is false) error;
    trimming silences the contamination warning. Errors not from the reader, which names the file, lead with name.
    """
    signal = load_wav(path)
    try:
        if sample_rate is not None and signal.sample_rate != sample_rate:
            raise PipelineError(f"sample rate {signal.sample_rate} differs from corpus {sample_rate}")
        if trim:
            model = fit_silence_model(signal)
            with warnings.catch_warnings():
                # speech-dense recordings trip the contamination warning by design
                warnings.simplefilter("ignore")
                signal = remove_silence(signal, model).trimmed
    except PipelineError as exc:
        raise type(exc)(f"{name}: {exc}") from None
    features = []
    for extractor in extractors:
        try:
            features.append(extract(signal, extractor, max_frames=max_frames))
        except PipelineError as exc:
            features.append(type(exc)(f"{name}: {exc}"))
    return signal.sample_rate, features


def _frame_tables(
    manifest: CorpusManifest, extractors, settings: HarnessSettings
) -> tuple[dict[str, FrameTable], dict[str, str]]:
    """One frame table per extractor kind, or the reason its extraction failed.

    Each recording is read and silence-trimmed once for all extractors. An
    extractor's reason is the first PipelineError its frames meet, in manifest
    order, and names the recording; an error reading or trimming a recording
    fails every extractor still live.
    """
    blocks: dict[str, list[np.ndarray]] = {extractor.kind: [] for extractor in extractors}
    failures: dict[str, str] = {}
    sample_rate = manifest.sample_rate
    for entry in manifest.entries:
        live = [extractor for extractor in extractors if extractor.kind not in failures]
        if not live:
            break
        try:
            sample_rate, features = recording_features(
                manifest.resolve(entry), entry.path, live, sample_rate, settings.max_frames_per_file
            )
        except PipelineError as exc:
            failures.update((extractor.kind, _failure(exc)) for extractor in live)
            continue
        for extractor, matrix in zip(live, features):
            if isinstance(matrix, PipelineError):
                failures[extractor.kind] = _failure(matrix)
            else:
                blocks[extractor.kind].append(matrix.values)
    speaker_to_class = {sid: i for i, sid in enumerate(manifest.speaker_ids)}
    classes = [speaker_to_class[entry.speaker] for entry in manifest.entries]
    tables: dict[str, FrameTable] = {}
    for kind, values in blocks.items():
        if kind not in failures:
            counts = [len(block) for block in values]
            recordings = np.repeat(np.arange(len(counts)), counts)
            tables[kind] = FrameTable(np.vstack(values), np.repeat(classes, counts), recordings, len(speaker_to_class))
    return tables, failures


def _grid_entries(
    manifest: CorpusManifest,
    grid: SweepGrid,
    tables: dict[str, FrameTable],
    failures: dict[str, str],
    master_seed: int,
    settings: HarnessSettings,
    jobs: int = 1,
) -> list[dict]:
    """One report entry per grid cell, sorted by (reducer, extractor, classifier).

    Starts from the frame tables (or extraction failures) of _frame_tables.
    Stage outputs are shared: one train mask per extractor, one embedding per
    extractor/reducer pair, and the cells that read it. With jobs > 1 the
    embeddings run on a pool of `jobs` threads; the cells always run in the
    calling thread, after the last embedding, classifier by classifier: one
    train_by_name call over every live pair, then one predict per cell.
    Seeds derive from (master_seed, stage tag), so serial and parallel runs,
    and a cell run on its own, produce identical entries.
    """
    rotation = derive_seed(master_seed, "split")
    masks = {
        extractor.kind: holdout_train_mask(manifest, tables[extractor.kind], rotation)
        for extractor in grid.extractors
        if extractor.kind in tables
    }

    def embed(extractor: ExtractorConfig, reducer: ReducerSpec) -> tuple[Optional[np.ndarray], Optional[str]]:
        """The pair's reduced rows, or the reason its extraction or reduction failed."""
        if extractor.kind in failures:
            return None, failures[extractor.kind]
        seed = derive_seed(master_seed, f"embed:{extractor.kind}:{reducer.method}")
        try:
            reduced, _ = reduce_for_pipeline(
                tables[extractor.kind].features,
                masks[extractor.kind],
                reducer.method,
                config=reducer.sne_config(seed),
            )
        except PipelineError as exc:
            return None, _failure(exc)
        return reduced, None

    def cell_entry(extractor: ExtractorConfig, reducer: ReducerSpec, classifier: ClassifierSpec) -> dict:
        combo_tag = f"{extractor.kind}:{reducer.method}:{classifier.name}"
        return {
            "extractor": extractor.kind,
            "reducer": reducer.method,
            "classifier": classifier.name,
            "seed": derive_seed(master_seed, combo_tag),
            "transductive": is_transductive(reducer.method),
            "split_rotation": rotation % 10**9,
        }

    pairs = [(extractor, reducer) for reducer in grid.reducers for extractor in grid.extractors]
    if jobs == 1:
        embedded = [embed(*pair) for pair in pairs]
    else:
        # An SNE fit spends its time in n x n NumPy kernels that release the
        # GIL, so fits overlap on threads. A cell is small-array NumPy and
        # Python that holds it: beside a cell a fit ran 2-3x slower, and cells
        # on two threads took longer than one after another.
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            embedded = list(pool.map(lambda pair: embed(*pair), pairs))
    datasets = {
        i: LabeledDataset(points=reduced, labels=tables[extractor.kind].speakers, train_mask=masks[extractor.kind])
        for i, ((extractor, _), (reduced, reason)) in enumerate(zip(pairs, embedded))
        if reason is None
    }

    entries = []
    for classifier in grid.classifiers:
        cells = [cell_entry(extractor, reducer, classifier) for extractor, reducer in pairs]
        # one call per classifier, so that the models which can share a training step do
        trained = train_by_name(
            classifier.name, list(datasets.values()), [cells[i]["seed"] for i in datasets], **classifier.params
        )
        models = dict(zip(datasets, trained))
        for i, ((extractor, _), (_, reason), entry) in enumerate(zip(pairs, embedded, cells)):
            model = models.get(i)
            if isinstance(model, PipelineError):
                reason = _failure(model)
            elif model is not None:
                try:
                    entry.update(_evaluate_split(model, datasets[i], tables[extractor.kind], settings))
                except PipelineError as exc:
                    reason = _failure(exc)
            entry["status"] = "ok" if reason is None else "failed"
            if reason is not None:
                entry["failure_reason"] = reason
            entries.append(entry)
    entries.sort(key=lambda e: (e["reducer"], e["extractor"], e["classifier"]))
    return entries


# --- full sweep -------------------------------------------------------------------

def _manifest_metadata(manifest: CorpusManifest) -> dict:
    return {
        "files": [e.path for e in manifest.entries],
        "speakers": len(manifest.speaker_ids),
        "recordings": len(manifest.entries),
        "sample_rate": manifest.sample_rate,
    }


def run_sweep(
    manifest: CorpusManifest,
    grid: Optional[SweepGrid] = None,
    master_seed: int = 0,
    settings: HarnessSettings = HarnessSettings(),
    out_dir=None,
    jobs: int = 1,
) -> dict:
    """Every grid combination on one shared split; optionally writes report files.

    jobs is the number of threads that run the embeddings; it must be an
    integer >= 1. Seeds derive from (master_seed, stage tag), so
    serial and parallel sweeps produce identical reports. A grid's scaling
    curve runs after the cells, on the same frame tables, and its result is
    report["scaling_curve"].
    """
    if isinstance(jobs, bool) or not isinstance(jobs, numbers.Integral) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    grid = grid or default_grid()
    extractors = grid.extractors
    if grid.scaling_curve is not None:
        if grid.scaling_curve.speaker_counts[-1] > len(manifest.speaker_ids):
            raise ValueError("speaker_counts exceed the manifest's speaker count")
        curve_grid = _curve_grid(grid)
        if curve_grid.extractors[0] not in extractors:
            extractors += curve_grid.extractors
    tables, failures = _frame_tables(manifest, extractors, settings)
    entries = _grid_entries(manifest, grid, tables, failures, master_seed, settings, jobs)
    report = {
        "master_seed": master_seed,
        "manifest": _manifest_metadata(manifest),
        # the VAD thresholds every sweep runs with, reported beside the settings
        "settings": {
            **dataclasses.asdict(settings),
            "vad_u_threshold": DEFAULT_U_THRESHOLD,
            "vad_min_segment_ms": DEFAULT_MIN_SEGMENT_MS,
        },
        "grid": {
            "extractors": [dataclasses.asdict(e) for e in grid.extractors],
            "reducers": [dataclasses.asdict(r) for r in grid.reducers],
            "classifiers": [dataclasses.asdict(c) for c in grid.classifiers],
        },
        "combinations": entries,
        "reference_results": {
            "note": REFERENCE_NOTE,
            "accuracy": REFERENCE_ACCURACY,
            "distinguishable": REFERENCE_DISTINGUISHABLE,
            "scaling": REFERENCE_SCALING,
        },
    }
    if grid.scaling_curve is not None:
        report["scaling_curve"] = _scaling_curve(
            manifest, curve_grid, grid.scaling_curve.speaker_counts, tables, failures, entries, master_seed, settings
        )
    if out_dir is not None:
        write_sweep_outputs(report, out_dir)
    return report


def write_sweep_outputs(report: dict, out_dir) -> None:
    """report.json, the accuracy/distinguishable CSV mirrors per reducer, and the scaling curve's rows."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(report, out_dir / "report.json")

    entries = report["combinations"]
    ok = {(e["reducer"], e["extractor"], e["classifier"]): e for e in entries if e["status"] == "ok"}
    extractors = list(dict.fromkeys(e["extractor"] for e in entries))
    classifiers = list(dict.fromkeys(e["classifier"] for e in entries))
    tables = (
        ("accuracy", "frame_accuracy_pct", format_float),
        ("distinguishable", "distinguishable_count", str),
    )
    for reducer in sorted({e["reducer"] for e in entries}):
        for table, field_name, formatter in tables:
            # rows = classifiers, columns = extractors; a failed or missing cell reads "failed"
            rows = []
            for classifier in classifiers:
                keys = [(reducer, extractor, classifier) for extractor in extractors]
                rows.append([classifier, *(formatter(ok[key][field_name]) if key in ok else "failed" for key in keys)])
            write_csv(out_dir / f"{table}_{reducer}.csv", ["classifier", *extractors], rows)

    curve = report.get("scaling_curve", {})
    if "rows" in curve:
        rows = [
            [count, format_float(accuracy), "" if delta is None else format_float(delta)]
            for count, accuracy, delta in curve["rows"]
        ]
        write_csv(out_dir / "scaling_curve.csv", ["speakers", "accuracy_pct", "delta_per_speaker"], rows)


# --- speaker scaling curve ---------------------------------------------------------

def _curve_grid(grid: SweepGrid) -> SweepGrid:
    """The scaling curve's one-cell grid: the sweep grid's spec on each axis, or the default."""
    curve = grid.scaling_curve

    def spec(specs, key: str, value: str, default):
        return next((s for s in specs if getattr(s, key) == value), None) or default(value)

    return SweepGrid(
        (spec(grid.extractors, "kind", curve.extractor, default_config),),
        (spec(grid.reducers, "method", curve.reducer, ReducerSpec),),
        (spec(grid.classifiers, "name", curve.classifier, ClassifierSpec),),
    )


def _scaling_curve(
    manifest: CorpusManifest,
    grid: SweepGrid,
    speaker_counts: tuple[int, ...],
    tables: dict[str, FrameTable],
    failures: dict[str, str],
    sweep_entries: list[dict],
    master_seed: int,
    settings: HarnessSettings,
) -> dict:
    """The one-cell grid's accuracy at each speaker count, or the first count's failure.

    A count takes the rows of its first speakers from the sweep's frame table.
    Train masks are per speaker and seeds per stage tag, so a row equals the
    one-cell sweep of manifest.subset_speakers(count). The full roster takes
    the sweep's own cell when the sweep grid holds the combination. Rows are
    (speaker_count, accuracy_pct, delta_per_speaker); the delta is the
    discrete rate of change from the previous row.
    """
    extractor, reducer, classifier = grid.extractors[0], grid.reducers[0], grid.classifiers[0]
    key = (extractor.kind, reducer.method, classifier.name)
    curve = {
        "extractor": extractor.kind,
        "reducer": reducer.method,
        "classifier": classifier.name,
        "speaker_counts": list(speaker_counts),
    }
    swept = {(e["extractor"], e["reducer"], e["classifier"]): e for e in sweep_entries}
    rows: list[tuple[int, float, Optional[float]]] = []
    for count in speaker_counts:
        entry = swept.get(key) if count == len(manifest.speaker_ids) else None
        if entry is None:
            table = tables.get(extractor.kind)
            subset = {} if table is None else {extractor.kind: table.first_speakers(count)}
            entry = _grid_entries(manifest, grid, subset, failures, master_seed, settings)[0]
        if entry["status"] != "ok":
            curve["failure_reason"] = f"{count}-speaker run failed: {entry['failure_reason']}"
            return curve
        accuracy = entry["frame_accuracy_pct"]
        delta = None
        if rows:
            prev_count, prev_acc, _ = rows[-1]
            delta = (accuracy - prev_acc) / (count - prev_count)
        rows.append((count, accuracy, delta))
    curve["rows"] = rows
    return curve


def speaker_scaling_curve(
    manifest: CorpusManifest,
    extractor: ExtractorConfig,
    reducer: ReducerSpec,
    classifier: ClassifierSpec,
    speaker_counts,
    master_seed: int = 0,
    settings: HarnessSettings = HarnessSettings(),
) -> list[tuple[int, float, Optional[float]]]:
    """Accuracy of one combination versus the number of speakers.

    Returns (speaker_count, accuracy_pct, delta_per_speaker) rows; the delta
    column is the discrete rate of change between consecutive rows.
    speaker_counts must be distinct integers >= 2. This is the one-cell sweep
    of manifest.subset_speakers(max(speaker_counts)) with that scaling curve,
    so each row equals the one-cell sweep of that many speakers. A failed
    count raises PipelineError.
    """
    curve = ScalingCurve(extractor.kind, reducer.method, classifier.name, speaker_counts)
    grid = SweepGrid((extractor,), (reducer,), (classifier,), curve)
    subset = manifest.subset_speakers(curve.speaker_counts[-1])
    result = run_sweep(subset, grid, master_seed, settings)["scaling_curve"]
    if "failure_reason" in result:
        raise PipelineError(result["failure_reason"])
    return result["rows"]


__all__ = [
    "ClassifierSpec",
    "FrameTable",
    "HarnessSettings",
    "ScalingCurve",
    "SweepGrid",
    "confusion_matrix",
    "default_grid",
    "holdout_train_mask",
    "roc_auc",
    "roc_points",
    "run_sweep",
    "speaker_scaling_curve",
    "write_sweep_outputs",
]
