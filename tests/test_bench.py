import dataclasses
import importlib.util
import json
import shutil
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from voxbench.audio_io import AudioSignal, load_wav, write_wav
from voxbench.bench import corpus, harness
from voxbench.bench.reports import ROW_BLOCK, round_floats, write_report_json
from voxbench.bench import (
    ClassifierSpec,
    HarnessSettings,
    ReducerSpec,
    SweepGrid,
    generate_synthetic_corpus,
    holdout_train_mask,
    load_manifest,
    roc_auc,
    roc_points,
    run_sweep,
    speaker_scaling_curve,
)
from voxbench import reduction
from voxbench.errors import PipelineError, UndefinedRoc
from voxbench.preprocessing import DEFAULT_MIN_SEGMENT_MS, DEFAULT_U_THRESHOLD
from voxbench.reduction import SneConfig
from voxbench.features import default_config

FAST = HarnessSettings(max_frames_per_file=25)


def run_cell(manifest, extractor, reducer, classifier, master_seed=0, settings=HarnessSettings()):
    """The report entry of a one-cell sweep."""
    grid = SweepGrid((extractor,), (reducer,), (classifier,))
    return run_sweep(manifest, grid=grid, master_seed=master_seed, settings=settings)["combinations"][0]


def pairwise_auc(labels, channel, speaker):
    pos = channel[labels == speaker]
    neg = channel[labels != speaker]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return wins / (len(pos) * len(neg))


# --- corpus -------------------------------------------------------------------

def test_corpus_same_seed_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_synthetic_corpus(2, 2, 1.0, seed=5, out_dir=a)
    generate_synthetic_corpus(2, 2, 1.0, seed=5, out_dir=b)
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def sosfilt_render(sections, slowest, x):
    """The time-domain recursion over the three resonators, in place of corpus._all_pole."""
    from scipy.signal import sosfilt

    return sosfilt(np.hstack([np.tile([1.0, 0.0, 0.0], (len(sections), 1)), sections]), x)


@pytest.mark.parametrize("sample_rate", [8000, 16000, 48000])
def test_all_pole_matches_sosfilt_on_formant_filters(sample_rate):
    rng = np.random.default_rng(sample_rate)
    x = rng.normal(size=sample_rate // 2)
    x[:: sample_rate // 150] += 1.0
    for position in (0.0, 0.5, 1.0):
        formants = [lo + (hi - lo) * position for lo, hi in corpus.FORMANT_RANGES_HZ]
        sections, slowest = corpus._formant_sections(formants, sample_rate)
        want = sosfilt_render(sections, slowest, x)
        got = corpus._all_pole(sections, slowest, x)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize(
    "shape, seed",
    [
        ((2, 2, 1.5), 3),
        ((2, 2, 1.0), 5),
        ((2, 2, 1.5), 9),
        ((3, 2, 1.0), 42),
        ((7, 3, 3.0), 42),
        ((3, 2, 1.5), 123),
        ((7, 3, 1.0), 42),
        ((7, 3, 3.5), 42),
        ((7, 3, 0.75), 42),
    ],
)
def test_corpus_bytes_equal_the_lfilter_render(tmp_path, monkeypatch, shape, seed):
    """The test and benchmark corpora are the ones the time-domain recursion (sosfilt) writes."""
    generate_synthetic_corpus(*shape, seed=seed, out_dir=tmp_path / "fft")
    monkeypatch.setattr(corpus, "_all_pole", sosfilt_render)
    generate_synthetic_corpus(*shape, seed=seed, out_dir=tmp_path / "sosfilt")
    names = sorted(p.name for p in (tmp_path / "fft").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "sosfilt").iterdir())
    for name in names:
        assert (tmp_path / "fft" / name).read_bytes() == (tmp_path / "sosfilt" / name).read_bytes(), name


def test_corpus_speakers_have_distinct_spectra(tmp_path):
    manifest = generate_synthetic_corpus(2, 2, 1.5, seed=9, out_dir=tmp_path / "c")
    centroids = {}
    for entry in manifest.entries[:2], manifest.entries[2:]:
        sig = load_wav(manifest.resolve(entry[0]))
        spectrum = np.abs(np.fft.rfft(sig.samples)) ** 2
        freqs = np.fft.rfftfreq(len(sig.samples), 1 / sig.sample_rate)
        centroids[entry[0].speaker] = (freqs * spectrum).sum() / spectrum.sum()
    assert abs(centroids[0] - centroids[1]) > 50.0


def test_corpus_leading_silence_is_quiet(small_corpus):
    for entry in small_corpus.entries:
        sig = load_wav(small_corpus.resolve(entry))
        head = sig.samples[: int(0.2 * sig.sample_rate)]
        head_rms = np.sqrt(np.mean(head**2))
        total_rms = np.sqrt(np.mean(sig.samples**2))
        assert head_rms < 0.05 * total_rms


def test_manifest_roundtrip(small_corpus):
    loaded = load_manifest(small_corpus.root / "manifest.csv")
    assert [e.path for e in loaded.entries] == [e.path for e in small_corpus.entries]
    assert loaded.speaker_ids == [0, 1, 2]
    sub = loaded.subset_speakers(2)
    assert sub.speaker_ids == [0, 1]


def test_manifest_validation(tmp_path, monkeypatch):
    from voxbench.bench import CorpusManifest, ManifestEntry

    def refuse(path):
        raise AssertionError(f"read {path} before the split's rules were checked")

    monkeypatch.setattr(harness, "load_wav", refuse)
    one_speaker = CorpusManifest(entries=(ManifestEntry("a.wav", 0, 0), ManifestEntry("b.wav", 0, 1)), root=tmp_path)
    with pytest.raises(ValueError, match="^corpus needs at least two speakers$"):
        run_sweep(one_speaker)
    one_recording = CorpusManifest(entries=(ManifestEntry("a.wav", 0, 0), ManifestEntry("b.wav", 1, 0)), root=tmp_path)
    with pytest.raises(ValueError, match="^every speaker needs at least two recordings$"):
        run_sweep(one_recording)


# --- split ---------------------------------------------------------------------

def test_holdout_split_never_straddles_recordings(small_corpus):
    table = harness._frame_tables(small_corpus, (default_config("mfcc"),), FAST)["mfcc"]
    mask = holdout_train_mask(small_corpus, table, rotation=0)
    for rec in np.unique(table.recordings):
        rows = table.recordings == rec
        assert mask[rows].all() or (~mask[rows]).all()
    # exactly one held-out recording per speaker
    held = {
        small_corpus.entries[r].speaker
        for r in np.unique(table.recordings[~mask])
    }
    assert held == {0, 1, 2}


def test_holdout_rotation_changes_selection(small_corpus):
    table = harness._frame_tables(small_corpus, (default_config("mfcc"),), FAST)["mfcc"]
    first = holdout_train_mask(small_corpus, table, rotation=0)
    second = holdout_train_mask(small_corpus, table, rotation=1)
    assert (first != second).any()


# --- frame tables ----------------------------------------------------------------

def failure_reasons(results):
    """The failure_reason of each extractor kind whose frame table failed."""
    return {kind: harness._failure(result) for kind, result in results.items() if isinstance(result, PipelineError)}


FRAME_GRID = (
    default_config("mfcc", frame_ms=20, hop_ms=8),
    default_config("lpcc"),
    default_config("plp", fft_size=1024),
)


@pytest.mark.parametrize("cap", [None, 7])
def test_shared_pass_tables_equal_one_extractor_passes(small_corpus, cap):
    settings = HarnessSettings(max_frames_per_file=cap)
    tables = harness._frame_tables(small_corpus, FRAME_GRID, settings)
    assert failure_reasons(tables) == {} and list(tables) == ["mfcc", "lpcc", "plp"]
    if cap is None:  # a 20/8 ms mfcc keeps more rows than the 25/10 ms lpcc
        assert len(tables["mfcc"].features) > len(tables["lpcc"].features)
    for extractor in FRAME_GRID:
        alone = harness._frame_tables(small_corpus, (extractor,), settings)[extractor.kind]
        shared = tables[extractor.kind]
        assert np.unique(shared.speakers).tolist() == list(range(len(small_corpus.speaker_ids)))  # every speaker has rows
        for name in ("features", "speakers", "recordings"):
            got, want = getattr(shared, name), getattr(alone, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_sweep_reads_and_trims_each_recording_once(small_corpus, monkeypatch):
    calls = {"load_wav": 0, "fit_silence_model": 0, "remove_silence": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    grid = SweepGrid(FRAME_GRID, (ReducerSpec("pca"),), (ClassifierSpec("weighted knn", {"k": 3}),))
    report = run_sweep(small_corpus, grid=grid, settings=FAST)
    assert all(entry["status"] == "ok" for entry in report["combinations"])
    assert calls == dict.fromkeys(calls, len(small_corpus.entries))


def test_a_warning_raised_in_the_sweeps_vad_reaches_the_caller(small_corpus, monkeypatch):
    trim = harness.remove_silence

    def warning_trim(*args, **kwargs):
        warnings.warn("raised inside silence removal", RuntimeWarning)
        return trim(*args, **kwargs)

    monkeypatch.setattr(harness, "remove_silence", warning_trim)
    grid = SweepGrid((default_config("mfcc"),), (ReducerSpec("pca"),), (ClassifierSpec("weighted knn", {"k": 3}),))
    with pytest.warns(RuntimeWarning, match="^raised inside silence removal$"):
        report = run_sweep(small_corpus, grid=grid, settings=FAST)
    assert [entry["status"] for entry in report["combinations"]] == ["ok"]


# --- ROC -------------------------------------------------------------------------

def test_roc_perfect_scores():
    labels = np.array([0, 0, 0, 1, 1, 1])
    scores = np.column_stack([1 - labels, labels]).astype(float)
    points = roc_points(labels, scores, speaker=1)
    assert [0.0, 1.0] in points.tolist()
    assert points[0].tolist() == [0.0, 0.0]
    assert points[-1].tolist() == [1.0, 1.0]
    assert roc_auc(points) == pytest.approx(1.0)


def test_roc_constant_scores_is_diagonal():
    labels = np.array([0, 1, 0, 1, 1, 0])
    scores = np.full((6, 2), 0.5)
    points = roc_points(labels, scores, speaker=0)
    assert roc_auc(points) == pytest.approx(0.5)


def test_roc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, 300)
    scores = rng.normal(0, 1, (300, 3)) + 0.8 * np.eye(3)[labels]
    for speaker in range(3):
        points = roc_points(labels, scores, speaker)
        assert np.all(np.diff(points[:, 0]) >= 0)
        assert np.all(np.diff(points[:, 1]) >= 0)
        oracle = pairwise_auc(labels, scores[:, speaker], speaker)
        assert roc_auc(points) == pytest.approx(oracle, abs=1e-6)


def test_roc_undefined_without_both_classes():
    labels = np.zeros(5, dtype=int)
    with pytest.raises(UndefinedRoc):
        roc_points(labels, np.ones((5, 2)), speaker=0)


# --- single combination ------------------------------------------------------------

def test_combination_metrics_are_consistent(small_corpus):
    entry = run_cell(
        small_corpus,
        default_config("mfcc"),
        ReducerSpec("pca"),
        ClassifierSpec("weighted knn", {"k": 3}),
        master_seed=1,
        settings=FAST,
    )
    assert entry["status"] == "ok"
    confusion = np.array(entry["confusion"])
    assert confusion.sum() == entry["test_frames"]
    accuracy = 100.0 * confusion.trace() / confusion.sum()
    assert entry["frame_accuracy_pct"] == pytest.approx(accuracy, abs=0.1)
    recalls = np.array(entry["per_speaker_recall"])
    assert ((recalls >= 0) & (recalls <= 1)).all()
    assert entry["distinguishable_count"] == (recalls > 0.5).sum()
    assert 0 <= entry["frame_accuracy_pct"] <= 100
    assert set(entry["roc_curves"]) == {"0", "1", "2"}
    assert entry["transductive"] is False


def test_failed_stage_is_recorded_not_raised(small_corpus):
    bad = default_config("mfcc", filter_count=300, fft_size=512)  # more filters than FFT bins
    entry = run_cell(
        small_corpus, bad, ReducerSpec("pca"), ClassifierSpec("weighted knn"), settings=FAST
    )
    assert entry["status"] == "failed"
    assert "FilterbankTooDense" in entry["failure_reason"]


def test_two_speaker_sne_knn_beats_chance_with_margin(small_corpus):
    entry = run_cell(
        small_corpus.subset_speakers(2),
        default_config("mfcc"),
        ReducerSpec("sne"),
        ClassifierSpec("weighted knn", {"k": 5}),
        master_seed=0,
        settings=FAST,
    )
    assert entry["status"] == "ok"
    assert entry["frame_accuracy_pct"] >= 50.0 + 20.0  # chance is 50% for two speakers


# --- sweep ---------------------------------------------------------------------------

def test_default_grid_shape():
    from voxbench.bench import default_grid

    grid = default_grid()
    cells = len(grid.extractors) * len(grid.reducers) * len(grid.classifiers)
    assert cells == 30
    assert {c.name for c in grid.classifiers} == {
        "complex tree", "weighted knn", "fine svm", "feed forward", "bagged trees",
    }
    assert [e.kind for e in grid.extractors] == ["mfcc", "lpcc", "plp"]


@pytest.mark.parametrize("seed", [0, 7])
def test_reducer_spec_defaults_are_sne_configs(seed):
    assert ReducerSpec("sne").sne_config(seed) == SneConfig(seed=seed)


def test_report_settings_carry_the_vad_constants(small_corpus):
    settings = run_sweep(small_corpus, grid=mini_grid(), settings=FAST)["settings"]
    assert settings == {
        **dataclasses.asdict(FAST),
        "vad_u_threshold": DEFAULT_U_THRESHOLD,
        "vad_min_segment_ms": DEFAULT_MIN_SEGMENT_MS,
    }


@pytest.mark.parametrize("cap", [0, -3, 1.5])
def test_settings_reject_bad_frame_cap(cap):
    with pytest.raises(ValueError, match="max_frames_per_file must be None or an integer >= 1"):
        HarnessSettings(max_frames_per_file=cap)


@pytest.mark.parametrize(
    "axis, items, repeated",
    [
        ("extractors", (default_config("mfcc"), default_config("mfcc", num_ceps=12)), "extractor kind mfcc"),
        ("reducers", (ReducerSpec("sne", perplexity=5.0), ReducerSpec("sne", perplexity=9.0)), "reducer method sne"),
        ("classifiers", (ClassifierSpec("weighted knn"), ClassifierSpec("weighted knn", {"k": 3})),
         "classifier name weighted knn"),
    ],
)
def test_grid_rejects_repeated_cell_keys(axis, items, repeated):
    with pytest.raises(ValueError, match=f"grid repeats {repeated}"):
        dataclasses.replace(mini_grid(), **{axis: items})


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("svm", {}, "unknown classifier 'svm'"),
        ("weighted knn", {"bogus": 1}, "classifier 'weighted knn' takes no parameter bogus"),
    ],
)
def test_grid_rejects_unknown_classifier_or_parameter(name, params, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(mini_grid(), classifiers=(ClassifierSpec(name, params),))


def mini_grid():
    return SweepGrid(
        extractors=(default_config("mfcc"),),
        reducers=(ReducerSpec("pca"),),
        classifiers=(ClassifierSpec("weighted knn", {"k": 3}), ClassifierSpec("complex tree")),
    )


def test_sweep_produces_one_entry_per_cell(small_corpus, tmp_path):
    report = run_sweep(
        small_corpus, grid=mini_grid(), master_seed=3, settings=FAST, out_dir=tmp_path
    )
    assert len(report["combinations"]) == 2
    for entry in report["combinations"]:
        assert entry["status"] == "ok"
        assert "seed" in entry and "transductive" in entry
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "accuracy_pca.csv").exists()
    table = (tmp_path / "accuracy_pca.csv").read_text().splitlines()
    assert table[0] == "classifier,mfcc"
    assert {row.split(",")[0] for row in table[1:]} == {"weighted knn", "complex tree"}


def test_sweep_deterministic_and_parallel_identical(small_corpus, tmp_path):
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    run_sweep(small_corpus, grid=mini_grid(), master_seed=5, settings=FAST, out_dir=serial)
    run_sweep(
        small_corpus, grid=mini_grid(), master_seed=5, settings=FAST, out_dir=threaded, jobs=2
    )
    for name in ("report.json", "accuracy_pca.csv", "distinguishable_pca.csv"):
        assert (serial / name).read_bytes() == (threaded / name).read_bytes(), name


def pair_grid(sne=ReducerSpec("sne", max_iter=30)):
    """mfcc and lpcc, each through SNE and PCA, into two classifiers."""
    return SweepGrid(
        extractors=(default_config("mfcc"), default_config("lpcc")),
        reducers=(sne, ReducerSpec("pca")),
        classifiers=(ClassifierSpec("weighted knn", {"k": 3}), ClassifierSpec("complex tree")),
    )


def grid_entries(manifest, grid, tables, jobs):
    cells = [(e, r, c, None) for c in grid.classifiers for r in grid.reducers for e in grid.extractors]
    return harness._grid_entries(manifest, cells, tables, 7, FAST, jobs=jobs)


@pytest.mark.parametrize("jobs", [2, 5])  # 5 threads > 4 embeddings
def test_pooled_embeddings_equal_serial_entries(small_corpus, jobs):
    grid = pair_grid()
    tables = harness._frame_tables(small_corpus, grid.extractors, FAST)
    serial = grid_entries(small_corpus, grid, tables, jobs=1)
    assert len(serial) == 8 and all(e["status"] == "ok" for e in serial)
    np.testing.assert_equal(grid_entries(small_corpus, grid, tables, jobs=jobs), serial)


@pytest.mark.parametrize(
    "lpcc_rows, perplexity, reason",
    [
        (slice(0, 2), None, "DataTooSmall: need at least three rows"),
        (slice(0, None, 3), 50.0, "PerplexityUnreachable: perplexity must be smaller than the number of rows"),
    ],
)
def test_failed_sne_pair_fails_only_its_cells_on_the_pool(small_corpus, lpcc_rows, perplexity, reason):
    grid = pair_grid(ReducerSpec("sne", perplexity=perplexity, max_iter=30))
    tables = harness._frame_tables(small_corpus, grid.extractors, FAST)
    lpcc = tables["lpcc"]
    tables["lpcc"] = harness.FrameTable(lpcc.features[lpcc_rows], lpcc.speakers[lpcc_rows], lpcc.recordings[lpcc_rows])
    assert len(tables["mfcc"].features) == 150  # so SNE at perplexity 50 fits mfcc and not lpcc
    entries = grid_entries(small_corpus, grid, tables, jobs=2)
    for entry in entries:
        if entry["extractor"] == "lpcc" and entry["reducer"] == "sne":
            assert entry["status"] == "failed" and entry["failure_reason"] == reason
        elif entry["extractor"] == "mfcc":
            assert entry["status"] == "ok"
    np.testing.assert_equal(entries, grid_entries(small_corpus, grid, tables, jobs=1))


# its 3-speaker count is the whole-table view, so of its two counts only the 2-speaker one adds a fit
CURVE = harness.ScalingCurve("mfcc", "sne", "weighted knn", (2, 3))


@pytest.mark.parametrize("jobs, curve", [(1, None), (2, None), (2, CURVE)], ids=["1", "2", "2-curve"])
def test_reductions_run_in_the_calling_thread_only_when_serial(small_corpus, tmp_path, monkeypatch, jobs, curve):
    threads = []
    reduce = harness.reduce_for_pipeline

    def recording(*args, **kwargs):
        threads.append(threading.current_thread())
        return reduce(*args, **kwargs)

    monkeypatch.setattr(harness, "reduce_for_pipeline", recording)
    grid = dataclasses.replace(pair_grid(), scaling_curve=curve)
    run_sweep(small_corpus, grid=grid, settings=FAST, out_dir=tmp_path / "run", jobs=jobs)
    assert len(threads) == (4 if curve is None else 5)
    on_main = [thread is threading.main_thread() for thread in threads]
    assert all(on_main) if jobs == 1 else not any(on_main)
    if jobs > 1:
        run_sweep(small_corpus, grid=grid, settings=FAST, out_dir=tmp_path / "serial")
        files = {path.name: path.read_bytes() for path in (tmp_path / "run").iterdir()}
        assert files == {path.name: path.read_bytes() for path in (tmp_path / "serial").iterdir()}


@pytest.mark.parametrize("jobs", [1, 2])
def test_cells_run_in_the_calling_thread_after_every_embedding(small_corpus, monkeypatch, jobs):
    # a cell beside an SNE fit holds the GIL the fit needs, so the two never overlap
    events = []
    reduce, evaluate = harness.reduce_for_pipeline, harness._evaluate_split

    def reducing(*args, **kwargs):
        events.append(("reduce start", threading.current_thread()))
        try:
            return reduce(*args, **kwargs)
        finally:
            events.append(("reduce end", threading.current_thread()))

    def evaluating(*args, **kwargs):
        events.append(("cell", threading.current_thread()))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(harness, "reduce_for_pipeline", reducing)
    monkeypatch.setattr(harness, "_evaluate_split", evaluating)
    run_sweep(small_corpus, grid=pair_grid(), settings=FAST, jobs=jobs)
    kinds = [kind for kind, _ in events]
    assert kinds.count("reduce end") == 4 and kinds.count("cell") == 8
    assert kinds[8:] == ["cell"] * 8
    assert all(thread is threading.main_thread() for kind, thread in events if kind == "cell")


def test_sweep_crosses_every_traced_boundary(small_corpus, tmp_path, monkeypatch):
    # the traced benchmark wraps these names from outside; a frame or stage
    # refactor that stops calling one through its module fails here
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).parents[1] / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name in spans.HARNESS_NAMES:
        monkeypatch.setattr(harness, name, getattr(harness, name))
    for name in ("sne_fit", "pca_fit", *spans.REDUCTION_KERNEL_NAMES):
        monkeypatch.setattr(reduction, name, getattr(reduction, name))
    tracer = spans.Tracer("test")
    spans.install(tracer)
    grid = SweepGrid(
        (default_config("mfcc"),),
        (ReducerSpec("pca"), ReducerSpec("sne", max_iter=30)),
        (ClassifierSpec("weighted knn", {"k": 3}),),
    )
    run_sweep(small_corpus, grid=grid, settings=FAST, out_dir=tmp_path)
    spans.check_boundaries(tracer, ["pca", "sne"])


@pytest.mark.parametrize("jobs", [0, -2, 1.5, True, "2"])
def test_sweep_rejects_bad_jobs_before_reading(small_corpus, monkeypatch, jobs):
    monkeypatch.setattr(harness, "load_wav", lambda path: pytest.fail(f"read {path}"))
    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        run_sweep(small_corpus, grid=mini_grid(), settings=FAST, jobs=jobs)


def test_sweep_reports_reference_fixtures(small_corpus, tmp_path):
    report = run_sweep(small_corpus, grid=mini_grid(), master_seed=3, settings=FAST)
    reference = report["reference_results"]
    assert "different" in reference["note"]
    assert reference["scaling"]["mfcc"] == [87.2, 81.2, 74.5, 69.7, 67.1, 66.9]
    assert reference["accuracy"]["sne"]["weighted knn"]["mfcc"] == 68.9


def test_sweep_records_failures_in_csv(small_corpus, tmp_path):
    grid = SweepGrid(
        extractors=(default_config("mfcc", filter_count=300, fft_size=512),),
        reducers=(ReducerSpec("pca"),),
        classifiers=(ClassifierSpec("weighted knn"),),
    )
    report = run_sweep(small_corpus, grid=grid, master_seed=0, settings=FAST, out_dir=tmp_path)
    assert report["combinations"][0]["status"] == "failed"
    table = (tmp_path / "accuracy_pca.csv").read_text()
    assert "failed" in table


def test_data_dependent_reducer_limit_fails_only_its_cells(small_corpus, tmp_path):
    grid = SweepGrid(
        extractors=(default_config("mfcc"),),
        reducers=(ReducerSpec("pca", target_dim=50), ReducerSpec("sne", max_iter=30)),
        classifiers=(ClassifierSpec("weighted knn", {"k": 3}), ClassifierSpec("complex tree")),
    )
    report = run_sweep(small_corpus, grid=grid, master_seed=0, settings=FAST, out_dir=tmp_path)
    assert (tmp_path / "report.json").exists()
    for entry in report["combinations"]:
        if entry["reducer"] == "pca":
            assert entry["status"] == "failed"
            assert entry["failure_reason"] == "DataTooSmall: target_dim must lie in [1, min(n-1, d)]"
        else:
            assert entry["status"] == "ok"


def test_nonfinite_loss_fails_only_its_cell(small_corpus):
    grid = SweepGrid(
        extractors=(default_config("mfcc"),),
        reducers=(ReducerSpec("pca"),),
        classifiers=(ClassifierSpec("feed forward", {"lr": 1e308}), ClassifierSpec("weighted knn", {"k": 3})),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_sweep(small_corpus, grid=grid, settings=FAST)
    status = {entry["classifier"]: (entry["status"], entry.get("failure_reason")) for entry in report["combinations"]}
    assert status == {"feed forward": ("failed", "NonFiniteLoss: loss became nan"), "weighted knn": ("ok", None)}


def test_fft_shorter_than_frame_fails_only_its_extractor(small_corpus, tmp_path):
    short_fft = default_config("mfcc", fft_size=256)  # a 25 ms frame is 400 samples at 16 kHz
    grid = dataclasses.replace(mini_grid(), extractors=(short_fft, default_config("lpcc")))
    report = run_sweep(small_corpus, grid=grid, master_seed=0, settings=FAST, out_dir=tmp_path)
    assert (tmp_path / "report.json").exists()
    for entry in report["combinations"]:
        if entry["extractor"] == "mfcc":
            assert entry["status"] == "failed"
            assert entry["failure_reason"].startswith(
                f"FrameExceedsFft: {small_corpus.entries[0].path}: fft_size must be >= the frame length in samples"
            )
        else:
            assert entry["status"] == "ok"


def test_missing_wav_fails_its_cells_not_the_sweep(small_corpus, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus.root, corpus)
    missing = small_corpus.entries[1].path
    (corpus / missing).unlink()
    manifest = load_manifest(corpus / "manifest.csv")
    out = tmp_path / "out"
    report = run_sweep(manifest, grid=mini_grid(), master_seed=0, settings=FAST, out_dir=out)
    for entry in report["combinations"]:
        assert entry["status"] == "failed"
        assert entry["failure_reason"].startswith("UnreadableAudio")
        assert missing in entry["failure_reason"]
    names = {p.name for p in out.iterdir()}
    assert names == {"report.json", "accuracy_pca.csv", "distinguishable_pca.csv"}


def test_vad_failure_names_the_recording(small_corpus, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus.root, corpus)
    silent = small_corpus.entries[2].path
    write_wav(corpus / silent, AudioSignal(samples=np.zeros(16000), sample_rate=16000))
    manifest = load_manifest(corpus / "manifest.csv")
    failures = failure_reasons(harness._frame_tables(manifest, mini_grid().extractors, FAST))
    assert failures == {"mfcc": f"DegenerateSilence: {silent}: leading 200 ms is constant; cannot model silence"}


def test_extractor_failure_is_the_first_error_its_frames_meet(small_corpus, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus.root, corpus)
    missing = small_corpus.entries[1].path
    (corpus / missing).unlink()
    manifest = load_manifest(corpus / "manifest.csv")
    reads = []

    def counting_load_wav(path):
        reads.append(path)
        return load_wav(path)

    monkeypatch.setattr(harness, "load_wav", counting_load_wav)
    short_fft = default_config("mfcc", fft_size=256)  # fails on the first recording
    extractors = (short_fft, default_config("lpcc"), default_config("plp"))
    results = harness._frame_tables(manifest, extractors, FAST)
    tables = {kind: result for kind, result in results.items() if isinstance(result, harness.FrameTable)}
    failures = failure_reasons(results)
    assert tables == {}
    assert failures["mfcc"].startswith("FrameExceedsFft: ")
    assert failures["lpcc"].startswith("UnreadableAudio: ") and missing in failures["lpcc"]
    assert failures["plp"] == failures["lpcc"]
    assert len(reads) == 2  # no recording is read once every extractor has failed


def test_combination_equals_its_sweep_entry(small_corpus):
    grid = SweepGrid(
        extractors=(default_config("mfcc"), default_config("plp")),
        reducers=(ReducerSpec("pca"), ReducerSpec("sne", max_iter=30)),
        classifiers=(ClassifierSpec("weighted knn", {"k": 3}), ClassifierSpec("complex tree")),
    )
    swept = run_sweep(small_corpus, grid=grid, master_seed=7, settings=FAST)["combinations"]
    by_key = {(e["extractor"], e["reducer"], e["classifier"]): e for e in swept}
    assert len(by_key) == 8
    for extractor in grid.extractors:
        for reducer in grid.reducers:
            for classifier in grid.classifiers:
                entry = run_cell(
                    small_corpus, extractor, reducer, classifier, master_seed=7, settings=FAST
                )
                assert entry["status"] == "ok"
                np.testing.assert_equal(entry, by_key[(extractor.kind, reducer.method, classifier.name)])


def test_report_floats_have_six_significant_digits(small_corpus, tmp_path):
    run_sweep(small_corpus, grid=mini_grid(), master_seed=3, settings=FAST, out_dir=tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    checked = 0
    for entry in payload["combinations"]:
        for recall in entry["per_speaker_recall"]:
            assert float(f"{recall:.6g}") == recall
            checked += 1
    assert checked > 0


def listed(value):
    """value with each ndarray replaced by its tolist(), the form json.dump reads."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: listed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [listed(v) for v in value]
    return value


def write_rounded_copy(report, path):
    """The reference route for write_report_json: json.dump of a rounded copy of a report without ndarrays."""
    with open(path, "w") as fh:
        json.dump(round_floats(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


SHAPES = array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)
# 2-D float arrays are written ROW_BLOCK rows at a time: row counts at and across the block boundaries
BLOCK_SHAPES = st.tuples(
    st.sampled_from([0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]), st.integers(1, 3)
)
SPECIAL_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 2.5e-310])
REPORT_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN, +-inf, -0.0, subnormals and the largest finite floats among them
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1.7976931348623157e308]),
    st.text(),  # quotes, backslashes, control characters and non-ASCII among them
    arrays(np.float64, SHAPES),
    arrays(np.int64, SHAPES),
    arrays(np.float64, BLOCK_SHAPES, elements=st.one_of(SPECIAL_FLOATS, st.floats())),
)
REPORT_VALUES = st.recursive(
    REPORT_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(REPORT_VALUES)
def test_report_writer_writes_the_bytes_of_the_rounded_copy_route(value):
    with tempfile.TemporaryDirectory() as tmp:
        written, expected = Path(tmp) / "written.json", Path(tmp) / "expected.json"
        write_report_json(value, written)
        write_rounded_copy(listed(value), expected)
        assert written.read_bytes() == expected.read_bytes()


def test_report_writer_builds_no_rounded_copy(small_corpus, tmp_path):
    # fine svm and feed forward scores are continuous, so their ROC curves hold every test frame
    grid = SweepGrid(
        extractors=(default_config("mfcc"), default_config("plp")),
        reducers=(ReducerSpec("pca"),),
        classifiers=(ClassifierSpec("fine svm"), ClassifierSpec("feed forward")),
    )
    report = run_sweep(small_corpus, grid=grid, settings=HarnessSettings(max_frames_per_file=None))
    assert all(isinstance(curve, np.ndarray) for e in report["combinations"] for curve in e["roc_curves"].values())
    peaks = []
    for write, value, path in (
        (write_rounded_copy, listed(report), tmp_path / "expected.json"),  # the report as it was held before
        (write_report_json, report, tmp_path / "report.json"),
    ):
        tracemalloc.start()
        try:
            write(value, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "report.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
    assert peaks[1] < peaks[0] / 10


# --- scaling curve ----------------------------------------------------------------------

def test_scaling_curve_rows_and_deltas(small_corpus):
    rows = speaker_scaling_curve(
        small_corpus,
        default_config("mfcc"),
        ReducerSpec("pca"),
        ClassifierSpec("weighted knn", {"k": 3}),
        speaker_counts=[2, 3],
        master_seed=2,
        settings=FAST,
    )
    assert len(rows) == 2
    assert rows[0][2] is None
    (n2, acc2, _), (n3, acc3, delta) = rows
    assert (n2, n3) == (2, 3)
    assert delta == pytest.approx(acc3 - acc2)


@pytest.mark.parametrize("reducer", [ReducerSpec("pca"), ReducerSpec("sne", max_iter=30)])
def test_scaling_curve_rows_equal_subset_sweeps(small_corpus, reducer):
    extractor, classifier = default_config("mfcc"), ClassifierSpec("weighted knn", {"k": 3})
    rows = speaker_scaling_curve(
        small_corpus, extractor, reducer, classifier, speaker_counts=[2, 3], master_seed=2, settings=FAST
    )
    for count, accuracy, _ in rows:
        entry = run_cell(
            small_corpus.subset_speakers(count), extractor, reducer, classifier, master_seed=2, settings=FAST
        )
        assert accuracy == entry["frame_accuracy_pct"]


def test_scaling_curve_reads_each_recording_once(small_corpus, monkeypatch):
    reads = []

    def counting_load_wav(path):
        reads.append(path)
        return load_wav(path)

    monkeypatch.setattr(harness, "load_wav", counting_load_wav)
    speaker_scaling_curve(
        small_corpus,
        default_config("mfcc"),
        ReducerSpec("pca"),
        ClassifierSpec("weighted knn", {"k": 3}),
        speaker_counts=[2, 3],
        settings=FAST,
    )
    assert sorted(reads) == sorted(small_corpus.resolve(e) for e in small_corpus.entries)


@pytest.mark.parametrize("counts", [[], [2, 2], [1, 2], [2, 2.5]])
def test_scaling_curve_rejects_bad_counts_before_reading(small_corpus, tmp_path, counts):
    unreadable = dataclasses.replace(small_corpus, root=tmp_path / "no-such-corpus")
    with pytest.raises(ValueError, match="distinct integers >= 2"):
        speaker_scaling_curve(
            unreadable,
            default_config("mfcc"),
            ReducerSpec("pca"),
            ClassifierSpec("weighted knn"),
            speaker_counts=counts,
            settings=FAST,
        )
