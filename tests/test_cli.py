import csv
import json
import pickle

import numpy as np
import pytest

from voxbench.audio_io import AudioSignal, write_wav
from voxbench.cli import main


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    assert main(["synth", "--out-dir", str(out), "--speakers", "2", "--samples", "2",
                 "--seconds", "1.5", "--seed", "3"]) == 0
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_synth_writes_corpus(cli_corpus):
    wavs = sorted(p.name for p in cli_corpus.glob("*.wav"))
    assert len(wavs) == 4
    assert (cli_corpus / "manifest.csv").exists()


def test_vad_roundtrip(cli_corpus, tmp_path):
    wav = next(iter(sorted(cli_corpus.glob("*.wav"))))
    out = tmp_path / "trimmed.wav"
    report = tmp_path / "segments.json"
    assert main(["vad", "--in", str(wav), "--out", str(out), "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["trimmed_samples"] < payload["input_samples"]
    assert payload["segments"]
    first = payload["segments"][0]
    assert first["start_sample"] < first["end_sample"]
    assert first["start_seconds"] >= 0.2  # leading silence removed


def test_extract_single_wav(cli_corpus, tmp_path):
    wav = next(iter(sorted(cli_corpus.glob("*.wav"))))
    out = tmp_path / "feats.csv"
    assert main(["extract", "--in", str(wav), "--method", "mfcc", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["source", "speaker", "frame"] + [f"c{i}" for i in range(1, 14)]
    assert len(rows) > 10
    assert rows[1][1] == "-1"  # unlabeled single file


def test_extract_no_vad_skips_the_silence_model(tmp_path):
    # 100 ms: shorter than the leading segment the silence model needs
    wav = tmp_path / "short.wav"
    write_wav(wav, AudioSignal(samples=0.1 * np.sin(np.arange(1600) / 5.0), sample_rate=16000))
    out = tmp_path / "feats.csv"
    assert main(["extract", "--in", str(wav), "--method", "mfcc", "--no-vad", "--out", str(out)]) == 0
    assert len(read_csv(out)) > 1


@pytest.fixture(scope="module")
def features_csv(cli_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_feats") / "features.csv"
    assert main(["extract", "--in", str(cli_corpus / "manifest.csv"), "--method", "mfcc",
                 "--out", str(out)]) == 0
    return out


def test_extract_manifest_carries_labels(features_csv):
    rows = read_csv(features_csv)
    speakers = {row[1] for row in rows[1:]}
    assert speakers == {"0", "1"}


@pytest.fixture(scope="module")
def embedding_csv(features_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_embed") / "embedding.csv"
    assert main(["reduce", "--in", str(features_csv), "--method", "pca", "--dim", "2",
                 "--out", str(out)]) == 0
    return out


def test_reduce_pca_shape(embedding_csv, features_csv):
    rows = read_csv(embedding_csv)
    assert rows[0] == ["source", "speaker", "frame", "y1", "y2"]
    assert len(rows) == len(read_csv(features_csv))


def test_reduce_sne_with_trace(features_csv, tmp_path):
    out = tmp_path / "sne.csv"
    trace = tmp_path / "trace.csv"
    # subsample for speed: take every 6th row of the feature csv
    rows = read_csv(features_csv)
    small = tmp_path / "small.csv"
    with open(small, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows([rows[0]] + rows[1::6])
    assert main(["reduce", "--in", str(small), "--method", "sne", "--dim", "2",
                 "--perplexity", "8", "--max-iter", "120", "--seed", "1",
                 "--out", str(out), "--trace", str(trace)]) == 0
    trace_rows = read_csv(trace)
    assert trace_rows[0] == ["iteration", "cost"]
    assert len(trace_rows) == 121
    assert float(trace_rows[-1][1]) < float(trace_rows[1][1])


def test_reduce_header_only_csv_names_the_file(tmp_path, capsys):
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("source,speaker,frame,c1,c2\n")
    assert main(["reduce", "--in", str(header_only), "--method", "pca",
                 "--out", str(tmp_path / "out.csv")]) == 2
    assert f"error: {header_only}: no data rows" in capsys.readouterr().err


def test_reduce_skips_blank_rows(features_csv, tmp_path):
    trailing_blank = tmp_path / "trailing_blank.csv"
    trailing_blank.write_text(features_csv.read_text() + "\n")
    out = tmp_path / "emb.csv"
    assert main(["reduce", "--in", str(trailing_blank), "--method", "pca", "--out", str(out)]) == 0
    assert len(read_csv(out)) == len(read_csv(features_csv))


def test_reduce_short_row_names_the_file_and_line(tmp_path, capsys):
    truncated = tmp_path / "truncated.csv"
    truncated.write_text("source,speaker,frame,c1,c2\na.wav,0,0,0.5,0.25\na.wav,0,1\n")
    assert main(["reduce", "--in", str(truncated), "--method", "pca",
                 "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: {truncated}: line 3 has 3 fields, expected 5" in err
    assert "Traceback" not in err


def test_reduce_blank_header_names_the_file(tmp_path, capsys):
    blank_header = tmp_path / "blank_header.csv"
    blank_header.write_text("\na.wav,0,0,0.5,0.25\n")
    assert main(["reduce", "--in", str(blank_header), "--method", "pca",
                 "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {blank_header}: header has 0 fields, expected at least 3 (source, speaker, frame)\n"


def test_train_rejects_mistyped_parameter(embedding_csv, tmp_path, capsys):
    assert main(["train", "--in", str(embedding_csv), "--model", "knn",
                 "--params", "k=abc", "--out", str(tmp_path / "model.pkl")]) == 2
    err = capsys.readouterr().err
    assert "error: classifier 'weighted knn' parameter k must be an integer, got 'abc'" in err
    assert "Traceback" not in err


def test_train_and_predict_roundtrip(embedding_csv, tmp_path):
    model_file = tmp_path / "model.pkl"
    assert main(["train", "--in", str(embedding_csv), "--model", "knn",
                 "--params", "k=3", "--out", str(model_file)]) == 0
    with open(model_file, "rb") as fh:
        payload = pickle.load(fh)
    assert payload["format"] == "voxbench-model"
    assert payload["version"] == 1
    assert payload["kind"] == "weighted knn"

    predictions = tmp_path / "pred.csv"
    assert main(["predict", "--in", str(embedding_csv), "--model-file", str(model_file),
                 "--out", str(predictions)]) == 0
    rows = read_csv(predictions)
    assert rows[0][:3] == ["source", "frame", "predicted"]
    # training-set predictions with weighted knn should be nearly perfect
    truth = [r[1] for r in read_csv(embedding_csv)[1:]]
    predicted = [r[2] for r in rows[1:]]
    agree = np.mean([t == p for t, p in zip(truth, predicted)])
    assert agree > 0.9


def test_bench_and_roc(cli_corpus, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "extractors": [{"kind": "mfcc"}],
        "reducers": [{"method": "pca"}],
        "classifiers": [{"name": "weighted knn", "k": 3}],
        "max_frames_per_file": 20,
    }))
    out = tmp_path / "bench_out"
    assert main(["bench", "--manifest", str(cli_corpus / "manifest.csv"), "--grid", str(grid),
                 "--out", str(out), "--seed", "4"]) == 0
    assert (out / "report.json").exists()
    assert (out / "accuracy_pca.csv").exists()

    roc_csv = tmp_path / "roc.csv"
    assert main(["roc", "--report", str(out / "report.json"), "--speaker", "0",
                 "--extractor", "mfcc", "--reducer", "pca", "--classifier", "knn",
                 "--out", str(roc_csv)]) == 0
    rows = read_csv(roc_csv)
    assert rows[0] == ["fpr", "tpr"]
    assert rows[1] == ["0", "0"]
    assert rows[-1] == ["1", "1"]


def test_cli_reports_pipeline_errors(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not audio at all")
    assert main(["vad", "--in", str(bad), "--out", str(tmp_path / "x.wav")]) == 2


def test_bench_rejects_empty_speaker_counts(cli_corpus, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "reducers": [{"method": "pca"}],
        "classifiers": [{"name": "weighted knn", "k": 3}],
        "extractors": [{"kind": "mfcc"}],
        "max_frames_per_file": 20,
        "scaling_curve": {"speaker_counts": []},
    }))
    assert main(["bench", "--manifest", str(cli_corpus / "manifest.csv"), "--grid", str(grid),
                 "--out", str(tmp_path / "out")]) == 2
    assert "error: speaker_counts must be distinct integers >= 2" in capsys.readouterr().err


def _no_wav_reads(monkeypatch):
    def refuse(path):
        raise AssertionError(f"read {path} before the settings were checked")

    monkeypatch.setattr("voxbench.bench.harness.load_wav", refuse)


@pytest.mark.parametrize("counts", [[], [2, 9]])
def test_bench_checks_speaker_counts_before_the_sweep(cli_corpus, tmp_path, monkeypatch, counts):
    _no_wav_reads(monkeypatch)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"scaling_curve": {"speaker_counts": counts}}))
    out = tmp_path / "out"
    assert main(["bench", "--manifest", str(cli_corpus / "manifest.csv"), "--grid", str(grid),
                 "--out", str(out)]) == 2
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("cap", [0, -3, 1.5])
def test_bench_rejects_bad_frame_cap_before_reading(cli_corpus, tmp_path, monkeypatch, capsys, cap):
    _no_wav_reads(monkeypatch)
    argv = ["bench", "--manifest", str(cli_corpus / "manifest.csv"), "--out", str(tmp_path / "out")]
    if isinstance(cap, int):
        argv += ["--max-frames-per-file", str(cap)]
    else:  # the flag parses as int, so a fractional cap can only come from a grid file
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"max_frames_per_file": cap}))
        argv += ["--grid", str(grid)]
    assert main(argv) == 2
    assert "error: max_frames_per_file must be None or an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_bench_rejects_bad_jobs_before_reading(cli_corpus, tmp_path, monkeypatch, capsys, jobs):
    _no_wav_reads(monkeypatch)
    out = tmp_path / "out"
    assert main(["bench", "--manifest", str(cli_corpus / "manifest.csv"), "--out", str(out), f"--jobs={jobs}"]) == 2
    assert capsys.readouterr().err == f"error: jobs must be an integer >= 1, got {jobs}\n"
    assert not out.exists()


def test_bench_rejects_repeated_extractor_kind(cli_corpus, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"extractors": [{"kind": "mfcc"}, {"kind": "mfcc", "num_ceps": 12}]}))
    assert main(["bench", "--manifest", str(cli_corpus / "manifest.csv"), "--grid", str(grid),
                 "--out", str(tmp_path / "out")]) == 2
    assert "error: grid repeats extractor kind mfcc" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"extractors": [{"num_ceps": 12}]}, "grid 'extractors' entry {'num_ceps': 12} must be an object with a 'kind' key"),
        ({"classifiers": [{"k": 3}]}, "grid 'classifiers' entry {'k': 3} must be an object with a 'name' key"),
        ({"reducers": [{"dim": 2}]}, "grid 'reducers' entry {'dim': 2} must be an object with a 'method' key"),
        ({"extractors": [{"kind": "mfcc", "bogus": 1}]}, "unexpected keyword argument 'bogus'"),
        ({"extractors": ["mfcc"]}, "grid 'extractors' entry 'mfcc' must be an object"),
        ([1, 2], "a grid file must hold one JSON object"),
        ({"classifiers": [{"name": "weighted knn", "bogus": 1}]}, "classifier 'weighted knn' takes no parameter bogus"),
        ({"classifiers": [{"name": "svm"}]}, "unknown classifier 'svm'"),
        ({"extractors": [{"kind": "mfcc", "num_ceps": "12"}]}, "grid 'extractors' entry"),
        ({"reducers": {"method": "pca"}}, "grid 'reducers' must be a list of objects"),
        ({"scaling_curve": 5}, "grid 'scaling_curve' must be an object"),
        ({"classifiers": [{"name": "weighted knn", "k": "3"}]},
         "classifier 'weighted knn' parameter k must be an integer, got '3'"),
        ({"reducers": [{"method": "pca", "target_dim": "2"}]}, "reducer 'pca' target_dim must be an integer, got '2'"),
        ({"reducers": [{"method": "sne", "perplexity": "3"}]},
         "reducer 'sne' perplexity must be a real number or null, got '3'"),
        ({"recall_threshold": "x"}, "recall_threshold must be a real number in [0, 1], got 'x'"),
        ({"classifiers": [{"name": "weighted knn", "k": 0}]}, "classifier 'weighted knn' parameter k must be >= 1, got 0"),
        ({"reducers": [{"method": "pca", "target_dim": 0}]}, "reducer 'pca': target_dim must be positive"),
        ({"reducers": [{"method": "sne", "kernel": "bogus"}]}, "reducer 'sne': kernel must be one of"),
        ({"classifiers": [{"name": "feed forward", "batch_size": 0}]},
         "classifier 'feed forward' parameter batch_size must be >= 1, got 0"),
        ({"reducers": [{"method": "sne", "max_iter": 0}]}, "reducer 'sne': max_iter must be >= 1, got 0"),
        ({"scaling_curve": {"speaker_count": [2]}}, "grid 'scaling_curve' takes no key speaker_count"),
        ({"reducers": [{"method": "sne", "perplexity": 0.5}]}, "reducer 'sne': perplexity must be >= 1, got 0.5"),
        ({"reducers": [{"method": "sne", "perplexity": -3}]}, "reducer 'sne': perplexity must be >= 1, got -3"),
        ({"reducers": [{"method": "sne", "learning_rate": 0.0}]},
         "reducer 'sne': learning_rate must be positive, got 0.0"),
        ({"extractors": [{"kind": "mfcc", "frame_ms": 5}]}, "frame_ms must lie in [10, 50]"),
        ({"extractors": [{"kind": "mfcc", "hop_ms": 40}]}, "hop_ms must satisfy 0 < hop_ms <= frame_ms"),
        ({"extractors": [{"kind": "mfcc", "filter_count": 1}]}, "filter_count must be >= 2"),
        ({"extractors": [{"kind": "plp", "filter_count": 4}]}, "filter_count too small for the requested LPC order"),
        ({"extractors": [{"kind": "lpcc", "frame_ms": 60}]}, "extractor 'lpcc': frame_ms must lie in [10, 50]"),
        ({"extractors": [{"kind": "plp", "num_ceps": 20}]}, "extractor 'plp': num_ceps must lie in [12, 15]"),
        ({"extractors": [{"kind": "mfcc", "hop_ms": 40}]}, "extractor 'mfcc': hop_ms must satisfy"),
        ({"classifiers": [{"name": "bagged trees", "resample": False}]},
         "classifier 'bagged trees' takes no parameter resample"),
    ],
)
def test_bench_rejects_malformed_grid_before_reading(cli_corpus, tmp_path, monkeypatch, capsys, grid, message):
    _no_wav_reads(monkeypatch)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    out = tmp_path / "out"
    assert main(["bench", "--manifest", str(cli_corpus / "manifest.csv"), "--grid", str(grid_path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "manifest, message",
    [
        ("path,speaker\na.wav,0\n", "header must name the columns path,speaker,sample"),
        ("path,speaker,sample\na.wav,0,0\nb.wav,0,x\n", "line 3: speaker and sample must be integers"),
    ],
)
def test_bench_rejects_malformed_manifest(tmp_path, capsys, manifest, message):
    manifest_path = tmp_path / "manifest.csv"
    manifest_path.write_text(manifest)
    out = tmp_path / "out"
    assert main(["bench", "--manifest", str(manifest_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {manifest_path}: {message}\n"
    assert not out.exists()
