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

    An optional scaling curve runs as more cells of the same stage graph, each
    speaker count a row view of the same frame tables.
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

    def first_speakers(self, count: int) -> "FrameTable":
        """The rows of dense speakers 0..count-1, in table order."""
        rows = self.speakers < count
        return FrameTable(self.features[rows], self.speakers[rows], self.recordings[rows])


def _check_split(manifest: CorpusManifest) -> None:
    """Raise ValueError unless the manifest has two speakers or more, each with two recordings or more.

    holdout_train_mask holds out one recording per speaker, and a speaker
    with one recording would have no training rows.
    """
    samples: dict[int, set] = {}
    for entry in manifest.entries:
        samples.setdefault(entry.speaker, set()).add(entry.sample)
    if len(samples) < 2:
        raise ValueError("corpus needs at least two speakers")
    if any(len(ids) < 2 for ids in samples.values()):
        raise ValueError("every speaker needs at least two recordings")


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
    class_count = data.class_count

    confusion = confusion_matrix(true_labels, predicted, class_count)
    total = int(confusion.sum())
    accuracy_pct = 100.0 * confusion.trace() / total
    row_sums = confusion.sum(axis=1)
    recalls = np.where(row_sums > 0, confusion.diagonal() / np.maximum(row_sums, 1), 0.0)
    distinguishable = int((recalls > settings.recall_threshold).sum())

    curves = {}
    for speaker in range(class_count):
        try:
            curves[str(speaker)] = roc_points(true_labels, scores, speaker)
        except UndefinedRoc:
            pass

    # recording-level majority vote, reported separately from frame accuracy
    rec_hits = []
    for rec in np.flatnonzero(np.bincount(test_recordings)):
        rows = test_recordings == rec
        votes = np.bincount(predicted[rows], minlength=class_count)
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

# (extractor, reducer, classifier, speakers): speakers is None for the whole
# frame table, or a count for its first_speakers(count) rows
Cell = tuple[ExtractorConfig, ReducerSpec, ClassifierSpec, Optional[int]]


def _failure(exc: PipelineError) -> str:
    return f"{type(exc).__name__}: {exc}"


def recording_features(path, name: str, extractors, sample_rate=None, max_frames=None, trim: bool = True):
    """The recording's sample rate and, per extractor, its FeatureMatrix or the PipelineError that stopped it.

    A read, sample-rate (unless sample_rate is None) or trimming (unless trim is false) error stops every extractor:
    it is every item, and the sample rate returned is the one given. A warning raised by a stage reaches the caller.
    Errors not from the reader, which names the file, lead with name.
    """
    try:
        signal = load_wav(path)
    except PipelineError as exc:
        return sample_rate, [exc] * len(extractors)
    try:
        if sample_rate is not None and signal.sample_rate != sample_rate:
            raise PipelineError(f"sample rate {signal.sample_rate} differs from corpus {sample_rate}")
        if trim:
            signal = remove_silence(signal, fit_silence_model(signal)).trimmed
    except PipelineError as exc:
        return sample_rate, [type(exc)(f"{name}: {exc}")] * len(extractors)
    features = []
    for extractor in extractors:
        try:
            features.append(extract(signal, extractor, max_frames=max_frames))
        except PipelineError as exc:
            features.append(type(exc)(f"{name}: {exc}"))
    return signal.sample_rate, features


def _frame_tables(
    manifest: CorpusManifest, extractors, settings: HarnessSettings
) -> dict[str, FrameTable | PipelineError]:
    """Per extractor kind, in extractor order, its frame table or the PipelineError that stopped its extraction.

    Each recording is read and silence-trimmed once for all extractors. An
    extractor's error is the first one its frames meet, in manifest order, and
    names the recording; an error reading or trimming a recording is the error
    of every extractor still live, and no recording is read once none is.
    """
    # a live extractor's result is the list of its recordings' frame blocks so far
    results: dict[str, list | FrameTable | PipelineError] = {extractor.kind: [] for extractor in extractors}
    sample_rate = manifest.sample_rate
    for entry in manifest.entries:
        live = [extractor for extractor in extractors if isinstance(results[extractor.kind], list)]
        if not live:
            break
        sample_rate, features = recording_features(
            manifest.resolve(entry), entry.path, live, sample_rate, settings.max_frames_per_file
        )
        for extractor, matrix in zip(live, features):
            if isinstance(matrix, PipelineError):
                results[extractor.kind] = matrix
            else:
                results[extractor.kind].append(matrix.values)
    speaker_to_class = {sid: i for i, sid in enumerate(manifest.speaker_ids)}
    classes = [speaker_to_class[entry.speaker] for entry in manifest.entries]
    for kind, values in results.items():
        if isinstance(values, list):
            counts = [len(block) for block in values]
            recordings = np.repeat(np.arange(len(counts)), counts)
            results[kind] = FrameTable(np.vstack(values), np.repeat(classes, counts), recordings)
    return results


def _grid_entries(
    manifest: CorpusManifest,
    cells: list[Cell],
    tables: dict[str, FrameTable | PipelineError],
    master_seed: int,
    settings: HarnessSettings,
    jobs: int = 1,
) -> list[dict]:
    """One report entry per (extractor, reducer, classifier, speakers) cell, in cell order.

    Starts from the frame tables (or extraction errors) of _frame_tables;
    each stage hands on its value or the PipelineError that stopped it, and
    an error becomes a failure_reason only as its cell's entry is written.
    A cell's speakers picks its row view of the extractor's table: None for
    the whole table, a count for table.first_speakers(count). Stage outputs
    are shared: one train mask per extractor kind and view, one embedding per
    extractor, reducer and view, and the cells that read it. With jobs > 1
    every embedding runs on one pool of `jobs` threads; the cells always run
    in the calling thread, after the last embedding, classifier by
    classifier: one train_by_name call over every live cell of that name,
    then one predict per cell. Seeds derive from (master_seed, stage tag) and
    train masks are per speaker, so serial and parallel runs, a cell run on
    its own, and a count's cell run as the one-cell sweep of that many
    speakers produce identical entries.
    """
    rotation = derive_seed(master_seed, "split")
    views: dict[tuple, tuple[FrameTable, np.ndarray]] = {}
    stages: dict[tuple, tuple[ExtractorConfig, ReducerSpec, Optional[int]]] = {}
    for extractor, reducer, _, speakers in cells:
        table = tables[extractor.kind]
        if isinstance(table, FrameTable) and (extractor.kind, speakers) not in views:
            table = table if speakers is None else table.first_speakers(speakers)
            views[extractor.kind, speakers] = table, holdout_train_mask(manifest, table, rotation)
        stages.setdefault((extractor.kind, reducer.method, speakers), (extractor, reducer, speakers))

    def embed(
        extractor: ExtractorConfig, reducer: ReducerSpec, speakers: Optional[int]
    ) -> LabeledDataset | PipelineError:
        """The view's reduced rows as a dataset, or the error that stopped its extraction or reduction."""
        if isinstance(tables[extractor.kind], PipelineError):
            return tables[extractor.kind]
        table, mask = views[extractor.kind, speakers]
        seed = derive_seed(master_seed, f"embed:{extractor.kind}:{reducer.method}")
        try:
            reduced, _ = reduce_for_pipeline(table.features, mask, reducer.method, config=reducer.sne_config(seed))
        except PipelineError as exc:
            return exc
        return LabeledDataset(points=reduced, labels=table.speakers, train_mask=mask)

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

    if jobs == 1:
        embedded = [embed(*stage) for stage in stages.values()]
    else:
        # An SNE fit spends its time in n x n NumPy kernels that release the
        # GIL, so fits overlap on threads. A cell is small-array NumPy and
        # Python that holds it: beside a cell a fit ran 2-3x slower, and cells
        # on two threads took longer than one after another.
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            embedded = list(pool.map(lambda stage: embed(*stage), stages.values()))
    embeddings = dict(zip(stages, embedded))
    results = [embeddings[e.kind, r.method, s] for e, r, _, s in cells]  # dataset, then report fields, or error
    entries = [cell_entry(e, r, c) for e, r, c, _ in cells]

    by_name: dict[str, tuple[ClassifierSpec, list[int]]] = {}
    for i, (_, _, classifier, _) in enumerate(cells):
        by_name.setdefault(classifier.name, (classifier, []))[1].append(i)
    for classifier, members in by_name.values():
        live = [i for i in members if isinstance(results[i], LabeledDataset)]
        # one call per classifier, so that the models which can share a training step do
        trained = train_by_name(
            classifier.name, [results[i] for i in live], [entries[i]["seed"] for i in live], **classifier.params
        )
        for i, result in zip(live, trained):  # a model, or the error that stopped its training
            if not isinstance(result, PipelineError):
                extractor, _, _, speakers = cells[i]
                try:
                    result = _evaluate_split(result, results[i], views[extractor.kind, speakers][0], settings)
                except PipelineError as exc:
                    result = exc
            results[i] = result
    for entry, result in zip(entries, results):
        if isinstance(result, PipelineError):
            entry.update(status="failed", failure_reason=_failure(result))
        else:
            entry.update(result, status="ok")
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

    The manifest must hold two speakers or more with two recordings each (the
    split's rules), and jobs, the number of threads that run the embeddings,
    must be an integer >= 1; both are checked before any recording is read.
    Seeds derive from (master_seed, stage tag), so serial and parallel sweeps
    produce identical reports. A grid's scaling curve adds one cell per
    speaker count to the grid's cells, and its result is
    report["scaling_curve"]. The full roster is the whole-table view, so it
    reuses the grid's embedding when the grid holds the extractor/reducer
    pair, and the grid's cell when it holds the combination.
    """
    _check_split(manifest)
    if isinstance(jobs, bool) or not isinstance(jobs, numbers.Integral) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    grid = grid or default_grid()
    cells = [(e, r, c, None) for c in grid.classifiers for r in grid.reducers for e in grid.extractors]
    grid_cells = len(cells)
    extractors = grid.extractors
    curve = grid.scaling_curve
    if curve is not None:
        roster = len(manifest.speaker_ids)
        if curve.speaker_counts[-1] > roster:
            raise ValueError("speaker_counts exceed the manifest's speaker count")
        extractor, reducer, classifier = _curve_specs(grid)
        if extractor not in extractors:
            extractors += (extractor,)
        curve_cells = [(extractor, reducer, classifier, None if n == roster else n) for n in curve.speaker_counts]
        cells += [cell for cell in curve_cells if cell not in cells]
    tables = _frame_tables(manifest, extractors, settings)
    entries = _grid_entries(manifest, cells, tables, master_seed, settings, jobs)
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
        "combinations": sorted(entries[:grid_cells], key=lambda e: (e["reducer"], e["extractor"], e["classifier"])),
        "reference_results": {
            "note": REFERENCE_NOTE,
            "accuracy": REFERENCE_ACCURACY,
            "distinguishable": REFERENCE_DISTINGUISHABLE,
            "scaling": REFERENCE_SCALING,
        },
    }
    if curve is not None:
        report["scaling_curve"] = _scaling_curve(curve, [entries[cells.index(cell)] for cell in curve_cells])
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

def _curve_specs(grid: SweepGrid) -> tuple[ExtractorConfig, ReducerSpec, ClassifierSpec]:
    """The scaling curve's extractor, reducer and classifier: the sweep grid's spec on each axis, or the default."""
    curve = grid.scaling_curve

    def spec(specs, key: str, value: str, default):
        return next((s for s in specs if getattr(s, key) == value), None) or default(value)

    return (
        spec(grid.extractors, "kind", curve.extractor, default_config),
        spec(grid.reducers, "method", curve.reducer, ReducerSpec),
        spec(grid.classifiers, "name", curve.classifier, ClassifierSpec),
    )


def _scaling_curve(curve: ScalingCurve, entries: list[dict]) -> dict:
    """The curve's accuracy at each speaker count, or the first count's failure.

    entries holds the curve's cell entry per count, in count order. A count's
    cell reads the rows of its first speakers from the sweep's frame table,
    and train masks are per speaker and seeds per stage tag, so a row equals
    the one-cell sweep of manifest.subset_speakers(count). Rows are
    (speaker_count, accuracy_pct, delta_per_speaker); the delta is the
    discrete rate of change from the previous row.
    """
    result = {
        "extractor": curve.extractor,
        "reducer": curve.reducer,
        "classifier": curve.classifier,
        "speaker_counts": list(curve.speaker_counts),
    }
    rows: list[tuple[int, float, Optional[float]]] = []
    for count, entry in zip(curve.speaker_counts, entries):
        if entry["status"] != "ok":
            result["failure_reason"] = f"{count}-speaker run failed: {entry['failure_reason']}"
            return result
        accuracy = entry["frame_accuracy_pct"]
        delta = None
        if rows:
            prev_count, prev_acc, _ = rows[-1]
            delta = (accuracy - prev_acc) / (count - prev_count)
        rows.append((count, accuracy, delta))
    result["rows"] = rows
    return result


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
