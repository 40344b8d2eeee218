import contextlib
import csv
import dataclasses
import inspect
import io
import json
import os
import pickle
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxbench.audio_io import AudioSignal, load_wav, write_wav
from voxbench.bench import (
    ClassifierSpec,
    HarnessSettings,
    ReducerSpec,
    ScalingCurve,
    SweepGrid,
    generate_synthetic_corpus,
    harness,
    load_manifest,
    run_sweep,
    speaker_scaling_curve,
)
from voxbench.bench.corpus import CorpusManifest, ManifestEntry, save_manifest
from voxbench.bench.reports import format_float, write_report_json
from voxbench.classifiers import TrainedClassifier
from voxbench.cli import (
    MODEL_ALIASES,
    _extractor_config_from_args,
    _grid_from_json,
    build_parser,
    main,
    read_feature_csv,
    write_feature_csv,
)
from voxbench.errors import PipelineError
from voxbench.features import ExtractorConfig, default_config
from voxbench.preprocessing import fit_silence_model, remove_silence
from voxbench.reduction import REDUCER_NAMES, SneConfig, sne_fit


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


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--sample-rate", "0", "sample_rate must be an integer >= 8000 Hz, got 0"),
        ("--sample-rate", "-16000", "sample_rate must be an integer >= 8000 Hz, got -16000"),
        ("--sample-rate", "7999", "sample_rate must be an integer >= 8000 Hz, got 7999"),
        ("--seconds", "0", "seconds must be finite and longer than the 0.25 s silence lead-in, got 0.0"),
        ("--seconds", "0.01", "seconds must be finite and longer than the 0.25 s silence lead-in, got 0.01"),
        ("--seconds", "0.25", "seconds must be finite and longer than the 0.25 s silence lead-in, got 0.25"),
        ("--seconds", "nan", "seconds must be finite and longer than the 0.25 s silence lead-in, got nan"),
        ("--seconds", "inf", "seconds must be finite and longer than the 0.25 s silence lead-in, got inf"),
    ],
)
def test_synth_rejects_bad_rate_and_length_before_writing(tmp_path, capsys, flag, value, message):
    out = tmp_path / "corpus"
    assert main(["synth", "--out-dir", str(out), "--speakers", "2", "--samples", "2", flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, voxbench.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_pca_bench_loads_no_numpy_ma(cli_corpus, tmp_path):
    # np.unique imports numpy.ma (about 8 ms) on its first call; no sweep stage needs it
    src = Path(__file__).resolve().parents[1] / "src"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "extractors": [{"kind": "mfcc"}],
        "reducers": [{"method": "pca"}],
        "classifiers": [{"name": "weighted knn", "k": 3}],
    }))
    argv = ["bench", "--manifest", str(cli_corpus / "manifest.csv"), "--grid", str(grid), "--out", str(tmp_path / "out")]
    code = (
        "import sys; from voxbench.cli import main; "
        f"status = main({argv!r}); print(status, 'numpy.ma' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == ["0", "False"]
    assert (tmp_path / "out" / "report.json").exists()


def test_vad_roundtrip(cli_corpus, tmp_path, capsys):
    wav = next(iter(sorted(cli_corpus.glob("*.wav"))))
    out = tmp_path / "trimmed.wav"
    report = tmp_path / "segments.json"
    assert main(["vad", "--in", str(wav), "--out", str(out), "--report", str(report)]) == 0
    # a synthetic voice fills most blocks: one warning line, and the outputs are still written
    assert capsys.readouterr().err == (
        "warning: more than 60% of blocks are voiced; the leading 200 ms may not be silence\n"
    )
    assert out.exists()
    payload = json.loads(report.read_text())
    assert payload["trimmed_samples"] < payload["input_samples"]
    assert payload["segments"]
    first = payload["segments"][0]
    assert first["start_sample"] < first["end_sample"]
    assert first["start_seconds"] >= 0.2  # leading silence removed


def test_vad_rejects_a_negative_min_segment(cli_corpus, tmp_path, capsys):
    # and a non-finite length or threshold, by the field name; a length longer
    # than the float range in samples finds no voiced content
    wav = next(iter(sorted(cli_corpus.glob("*.wav"))))
    out = tmp_path / "trimmed.wav"
    for flag, value, message in [
        ("--min-segment-ms", "-5", "min_segment_ms must be >= 0, got -5.0"),
        ("--min-segment-ms", "inf", "min_segment_ms must be finite, got inf"),
        ("--min-segment-ms", "nan", "min_segment_ms must be finite, got nan"),
        ("--block-ms", "inf", "frame_ms must be finite, got inf"),
        ("--block-ms", "nan", "frame_ms must be finite, got nan"),
        ("--threshold", "inf", "u_threshold must be finite, got inf"),
        ("--threshold", "nan", "u_threshold must be finite, got nan"),
        ("--block-ms", "1e306", "NoVoicedContent: signal shorter than one analysis block"),
        ("--min-segment-ms", "1e306", "NoVoicedContent: all voiced segments were shorter than the minimum length"),
    ]:
        assert main(["vad", "--in", str(wav), "--out", str(out), flag, value]) == 2, (flag, value)
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_extract_single_wav(cli_corpus, tmp_path):
    wav = next(iter(sorted(cli_corpus.glob("*.wav"))))
    out = tmp_path / "feats.csv"
    assert main(["extract", "--in", str(wav), "--method", "mfcc", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["source", "speaker", "frame"] + [f"c{i}" for i in range(1, 14)]
    assert len(rows) > 10
    assert rows[1][1] == ""  # unlabeled single file


def test_extract_no_vad_skips_the_silence_model(tmp_path):
    # 100 ms: shorter than the leading segment the silence model needs
    wav = tmp_path / "short.wav"
    write_wav(wav, AudioSignal(samples=0.1 * np.sin(np.arange(1600) / 5.0), sample_rate=16000))
    out = tmp_path / "feats.csv"
    assert main(["extract", "--in", str(wav), "--method", "mfcc", "--no-vad", "--out", str(out)]) == 0
    assert len(read_csv(out)) > 1


@pytest.mark.filterwarnings("error")
def test_extract_emits_no_warning_on_a_voiced_head(tmp_path):
    # every seed-42 recording is voiced in more than 60% of its blocks
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out-dir", str(corpus), "--speakers", "3", "--samples", "2",
                 "--seconds", "1", "--seed", "42"]) == 0
    out = tmp_path / "feats.csv"
    assert main(["extract", "--in", str(corpus / "manifest.csv"), "--method", "mfcc", "--out", str(out)]) == 0


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


def test_reduce_pca_rejects_trace_before_writing(features_csv, tmp_path, capsys):
    out, trace = tmp_path / "emb.csv", tmp_path / "trace.csv"
    assert main(["reduce", "--in", str(features_csv), "--method", "pca",
                 "--out", str(out), "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err == "error: --trace writes the SNE cost per iteration; --method pca has no such trace\n"
    assert not out.exists() and not trace.exists()


@pytest.mark.parametrize("method", REDUCER_NAMES)
@pytest.mark.parametrize("key, value", [("max_iter", 0), ("perplexity", 0.5), ("learning_rate", 0.0)])
def test_reduce_flags_are_checked_like_a_grid_reducer(cli_corpus, features_csv, tmp_path, capsys, method, key, value):
    out = tmp_path / "emb.csv"
    flag = "--" + key.replace("_", "-")
    assert main(["reduce", "--in", str(features_csv), "--method", method, flag, str(value), "--out", str(out)]) == 2
    reduce_err = capsys.readouterr().err
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"reducers": [{"method": method, key: value}]}))
    assert main(["bench", "--manifest", str(cli_corpus / "manifest.csv"), "--grid", str(grid),
                 "--out", str(tmp_path / "out")]) == 2
    assert reduce_err == capsys.readouterr().err
    bound = "positive" if key == "learning_rate" else ">= 1"
    assert reduce_err.startswith(f"error: reducer {method!r}: {key} must be {bound}, got ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--perplexity", "5"], "perplexity; it must keep its default None, got 5.0"),
        (["--max-iter", "50"], "max_iter; it must keep its default 500, got 50"),
        (["--kernel", "student-t"], "kernel; it must keep its default 'gaussian', got 'student-t'"),
        (["--learning-rate", "0.5"], "learning_rate; it must keep its default None, got 0.5"),
    ],
)
def test_reduce_pca_rejects_an_sne_flag(features_csv, tmp_path, capsys, flags, message):
    out = tmp_path / "emb.csv"
    assert main(["reduce", "--in", str(features_csv), "--method", "pca", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: reducer 'pca' does not read {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("rate_flag", [[], ["--learning-rate", "50"]])
def test_reduce_student_t_separates_three_blobs(tmp_path, rate_flag):
    labels = np.repeat(np.arange(3), 100)
    data = np.random.default_rng(28).normal(0, 1, (300, 8)) + 10.0 * np.eye(3, 8)[labels]
    features, out = tmp_path / "blobs.csv", tmp_path / "emb.csv"
    write_feature_csv(features, [("blobs.wav", label, i, row) for i, (label, row) in enumerate(zip(labels, data))], 8, "c")
    assert main(["reduce", "--in", str(features), "--method", "sne", "--kernel", "student-t", *rate_flag,
                 "--out", str(out)]) == 0
    _, speakers, _, coords = read_feature_csv(out)
    d2 = ((coords[:, None] - coords[None]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    assert (speakers[d2.argmin(axis=1)] == labels).mean() >= 0.95


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


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("a.wav,0,1,nan,0.25", "line 3: non-finite feature value in c1"),
        ("a.wav,0,1,0.5,inf", "line 3: non-finite feature value in c2"),
        ("a.wav,0,1,-inf,NaN", "line 3: non-finite feature value in c1, c2"),
        ("a.wav,0,1,0.5,abc", "line 3: could not convert string to float: 'abc'"),
        ("a.wav,x,1,0.5,0.25", "line 3: speaker must be an integer, got 'x'"),
        ("a.wav,0,1.5,0.5,0.25", "line 3: frame must be an integer, got '1.5'"),
    ],
)
@pytest.mark.parametrize("command", ["reduce", "train"])
def test_feature_csv_bad_value_names_the_file_and_line(tmp_path, capsys, command, bad_row, message):
    features = tmp_path / "features.csv"
    features.write_text(f"source,speaker,frame,c1,c2\na.wav,0,0,0.5,0.25\n{bad_row}\n")
    out = tmp_path / "out"
    args = ["--method", "pca"] if command == "reduce" else ["--model", "knn"]
    assert main([command, "--in", str(features), *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {features}: {message}\n"
    assert not out.exists()


def test_train_rejects_mistyped_parameter(embedding_csv, tmp_path, capsys):
    assert main(["train", "--in", str(embedding_csv), "--model", "knn",
                 "--params", "k=abc", "--out", str(tmp_path / "model.pkl")]) == 2
    err = capsys.readouterr().err
    assert "error: classifier 'weighted knn' parameter k must be an integer, got 'abc'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "model, key, value, message",
    [
        ("svm", "kernel_scale", 0.0, "classifier 'fine svm' parameter kernel_scale must be > 0, got 0.0"),
        ("svm", "box_c", -1.0, "classifier 'fine svm' parameter box_c must be > 0, got -1.0"),
        ("svm", "box_c", 0.0, "classifier 'fine svm' parameter box_c must be > 0, got 0.0"),
        ("ffnn", "lr", -1.0, "classifier 'feed forward' parameter lr must be > 0, got -1.0"),
        ("ffnn", "lr", 0.0, "classifier 'feed forward' parameter lr must be > 0, got 0.0"),
        ("tree", "max_splits", -3, "classifier 'complex tree' parameter max_splits must be >= 0, got -3"),
        ("svm", "kernel_scale", 1e-200,
         "classifier 'fine svm' parameter kernel_scale must make 2*kernel_scale**2 a finite normal float, got 1e-200"),
        ("ffnn", "lr", float("inf"), "classifier 'feed forward' parameter lr must be finite, got inf"),
        ("svm", "box_c", float("inf"), "classifier 'fine svm' parameter box_c must be finite, got inf"),
    ],
)
def test_train_and_grid_reject_a_meaningless_classifier_setting(
    cli_corpus, embedding_csv, tmp_path, monkeypatch, capsys, model, key, value, message
):
    model_file = tmp_path / "model.pkl"
    assert main(["train", "--in", str(embedding_csv), "--model", model,
                 "--params", f"{key}={json.dumps(value)}", "--out", str(model_file)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not model_file.exists()
    _no_wav_reads(monkeypatch)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"classifiers": [{"name": MODEL_ALIASES[model], key: value}]}))
    out = tmp_path / "out"
    assert main(["bench", "--manifest", str(cli_corpus / "manifest.csv"), "--grid", str(grid), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("param", ["tol=0.01", "max_passes=5"])
def test_train_rejects_removed_svm_parameter(embedding_csv, tmp_path, capsys, param):
    assert main(["train", "--in", str(embedding_csv), "--model", "svm",
                 "--params", param, "--out", str(tmp_path / "model.pkl")]) == 2
    name = param.partition("=")[0]
    assert capsys.readouterr().err == (
        f"error: classifier 'fine svm' takes no parameter {name}; it takes kernel_scale, box_c\n"
    )
    assert not (tmp_path / "model.pkl").exists()


def test_reduce_and_vad_flag_defaults_are_the_librarys():
    parser = build_parser()
    reduce = parser.parse_args(["reduce", "--in", "a.csv", "--method", "sne", "--out", "b.csv"])
    sne = SneConfig()
    assert (reduce.dim, reduce.perplexity, reduce.max_iter, reduce.kernel, reduce.seed) == (
        sne.target_dim, sne.perplexity, sne.max_iter, sne.kernel, sne.seed
    )
    assert reduce.learning_rate is SneConfig.learning_rate is None  # the kernel's default
    vad = parser.parse_args(["vad", "--in", "a.wav", "--out", "b.wav"])
    fit = inspect.signature(fit_silence_model).parameters
    trim = inspect.signature(remove_silence).parameters
    assert (vad.threshold, vad.block_ms, vad.min_segment_ms, vad.endpoints_only) == (
        fit["u_threshold"].default, fit["frame_ms"].default,
        trim["min_segment_ms"].default, trim["endpoints_only"].default,
    )


def test_extract_flags_set_their_config_fields():
    parser = build_parser()
    base = ["extract", "--in", "a.wav", "--out", "b.csv", "--method"]
    assert _extractor_config_from_args(parser.parse_args([*base, "plp"])) == default_config("plp")
    # mfcc reads every knob but lpc_order_q, which lpcc and plp read
    args = parser.parse_args([
        *base, "mfcc", "--pre-emphasis", "0.95", "--frame-ms", "20", "--hop-ms", "8", "--fft-size", "1024",
        "--filter-count", "30", "--num-ceps", "14", "--dct", "idct", "--include-c0",
    ])
    expected = ExtractorConfig("mfcc", 0.95, 20.0, 8.0, 1024, 30, 12, 14, "idct", True)
    assert _extractor_config_from_args(args) == expected
    args = parser.parse_args([*base, "lpcc", "--lpc-order", "10"])
    assert _extractor_config_from_args(args) == ExtractorConfig("lpcc", lpc_order_q=10)


UNREAD_FLAGS = [
    ("plp", ["--pre-emphasis", "0.95", "--dct", "idct"], "plp does not read pre_emphasis_a"),
    ("plp", ["--dct", "idct"], "plp does not read dct_kind"),
    ("plp", ["--include-c0"], "plp does not read include_c0"),
    ("lpcc", ["--fft-size", "1024"], "lpcc does not read fft_size"),
    ("lpcc", ["--filter-count", "30"], "lpcc does not read filter_count"),
    ("lpcc", ["--dct", "idct"], "lpcc does not read dct_kind"),
    ("lpcc", ["--include-c0"], "lpcc does not read include_c0"),
    ("mfcc", ["--lpc-order", "10"], "mfcc does not read lpc_order_q"),
]


@pytest.mark.parametrize("method, flags, message", UNREAD_FLAGS)
def test_extract_rejects_a_flag_its_method_never_reads(cli_corpus, tmp_path, monkeypatch, capsys, method, flags, message):
    _no_wav_reads(monkeypatch)
    out = tmp_path / "feats.csv"
    assert main(["extract", "--in", str(cli_corpus / "manifest.csv"), "--method", method, *flags,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}; it must keep its default") and err.count("\n") == 1
    assert not out.exists()


def test_train_and_predict_roundtrip(embedding_csv, tmp_path):
    model_file = tmp_path / "model.pkl"
    assert main(["train", "--in", str(embedding_csv), "--model", "knn",
                 "--params", "k=3", "--out", str(model_file)]) == 0
    with open(model_file, "rb") as fh:
        payload = pickle.load(fh)
    assert list(payload) == ["format", "version", "speaker_ids", "model"]
    assert payload["format"] == "voxbench-model"
    assert payload["version"] == 2
    assert payload["speaker_ids"] == [0, 1]
    assert payload["model"].kind == "weighted knn"

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


def test_train_params_keep_a_list_value_whole(embedding_csv, tmp_path):
    model_file = tmp_path / "model.pkl"
    assert main(["train", "--in", str(embedding_csv), "--model", "ffnn",
                 "--params", "hidden=[30,15],epochs=2", "--out", str(model_file)]) == 0
    with open(model_file, "rb") as fh:
        net = pickle.load(fh)["model"].payload
    assert net.w1.shape[1] == 30 and net.w2.shape == (30, 15)


@pytest.mark.parametrize("params", ["k=3,foo", "foo"])
def test_train_params_name_a_malformed_item(embedding_csv, tmp_path, capsys, params):
    assert main(["train", "--in", str(embedding_csv), "--model", "knn",
                 "--params", params, "--out", str(tmp_path / "model.pkl")]) == 2
    assert capsys.readouterr().err == "error: malformed parameter 'foo'; expected key=value\n"


# a two-class model over the 2-D embedding, for headers that are wrong around a real model
KNN_2D = TrainedClassifier(kind="weighted knn", payload=None, class_count=2, input_dim=2)


@pytest.mark.parametrize(
    "write",
    [
        lambda path: path.write_text("not a model\n"),
        lambda path: path.write_bytes(pickle.dumps([1, 2])),
        # the version-1 header: no speaker ids, so its classes cannot be named
        lambda path: path.write_bytes(pickle.dumps({"format": "voxbench-model", "version": 1, "kind": "weighted knn"})),
        lambda path: path.write_bytes(pickle.dumps({"format": "voxbench-model", "version": 2, "model": None})),
        lambda path: path.write_bytes(pickle.dumps({"format": "voxbench-model", "version": 2, "model": KNN_2D})),
        lambda path: path.write_bytes(pickle.dumps(
            {"format": "voxbench-model", "version": 2, "speaker_ids": [3, 3], "model": KNN_2D}
        )),
    ],
    ids=["text", "pickled_list", "version_1", "no_model", "no_speaker_ids", "repeated_speaker_id"],
)
def test_predict_on_a_non_model_file_prints_an_error_line(embedding_csv, tmp_path, capsys, write):
    model_file, out = tmp_path / "model.pkl", tmp_path / "pred.csv"
    write(model_file)
    assert main(["predict", "--in", str(embedding_csv), "--model-file", str(model_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {model_file} is not a version-2 model file\n"
    assert not out.exists()


def test_train_and_predict_name_the_manifests_speaker_ids(cli_corpus, tmp_path):
    manifest = load_manifest(cli_corpus / "manifest.csv")
    shifted = [dataclasses.replace(e, speaker=(5, 9)[e.speaker]) for e in manifest.entries]
    save_manifest(CorpusManifest(entries=tuple(shifted), root=cli_corpus), tmp_path / "manifest.csv")
    for entry in shifted:
        shutil.copy(cli_corpus / entry.path, tmp_path / entry.path)
    features, embedding, model, out = (tmp_path / name for name in ("f.csv", "e.csv", "model.pkl", "pred.csv"))
    assert main(["extract", "--in", str(tmp_path / "manifest.csv"), "--method", "mfcc", "--out", str(features)]) == 0
    assert main(["reduce", "--in", str(features), "--method", "pca", "--out", str(embedding)]) == 0
    assert main(["train", "--in", str(embedding), "--model", "knn", "--params", "k=3", "--out", str(model)]) == 0
    assert main(["predict", "--in", str(embedding), "--model-file", str(model), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["source", "frame", "predicted", "score5", "score9"]
    truth = [row[1] for row in read_csv(embedding)[1:]]
    assert {row[2] for row in rows[1:]} == set(truth) == {"5", "9"}
    assert np.mean([t == row[2] for t, row in zip(truth, rows[1:])]) > 0.9


def test_negative_speaker_ids_extract_train_and_predict(tmp_path):
    corpus = tmp_path / "corpus"
    manifest = generate_synthetic_corpus(n_speakers=3, samples_each=2, seconds=1.0, seed=0, out_dir=corpus)
    shifted = [dataclasses.replace(e, speaker=e.speaker - 2) for e in manifest.entries]
    save_manifest(CorpusManifest(entries=tuple(shifted), root=corpus), corpus / "shifted.csv")
    features, model, out = (tmp_path / name for name in ("f.csv", "model.pkl", "pred.csv"))
    assert main(["extract", "--in", str(corpus / "shifted.csv"), "--method", "mfcc", "--out", str(features)]) == 0
    assert main(["train", "--in", str(features), "--model", "knn", "--params", "k=3", "--out", str(model)]) == 0
    assert main(["predict", "--in", str(features), "--model-file", str(model), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["source", "frame", "predicted", "score-2", "score-1", "score0"]
    truth = [row[1] for row in read_csv(features)[1:]]
    assert {row[2] for row in rows[1:]} == set(truth) == {"-2", "-1", "0"}
    assert np.mean([t == row[2] for t, row in zip(truth, rows[1:])]) > 0.9


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
        ({"extractors": [{"kind": "mfcc", "bogus": 1}]},
         "extractor 'mfcc' takes no parameter bogus; it takes pre_emphasis_a, frame_ms, hop_ms, fft_size, "
         "filter_count, lpc_order_q, num_ceps, dct_kind, include_c0"),
        ({"extractors": ["mfcc"]}, "grid 'extractors' entry 'mfcc' must be an object"),
        ([1, 2], "a grid file must hold one JSON object"),
        ({"classifiers": [{"name": "weighted knn", "bogus": 1}]}, "classifier 'weighted knn' takes no parameter bogus"),
        ({"classifiers": [{"name": "svm"}]}, "unknown classifier 'svm'"),
        ({"extractors": [{"kind": "mfcc", "num_ceps": "12"}]}, "num_ceps must be an integer"),
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
        ({"scaling_curve": {"speaker_count": [2]}}, "grid 'scaling_curve' takes no parameter speaker_count"),
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
        ({"extractors": [{"kind": "mfcc", "num_ceps": 13.5}]}, "extractor 'mfcc': num_ceps must be an integer, got 13.5"),
        ({"extractors": [{"kind": "lpcc", "lpc_order_q": 12.5}]},
         "extractor 'lpcc': lpc_order_q must be an integer, got 12.5"),
        ({"extractors": [{"kind": "mfcc", "filter_count": 26.5}]},
         "extractor 'mfcc': filter_count must be an integer, got 26.5"),
        ({"extractors": [{"kind": "mfcc", "include_c0": "yes"}]}, "extractor 'mfcc': include_c0 must be a bool, got 'yes'"),
        ({"extractors": [{"kind": "mfcc", "hop_ms": True}]}, "extractor 'mfcc': hop_ms must be a real number, got True"),
        ({"classifiers": [{"name": "fine svm", "tol": 0.01}]},
         "classifier 'fine svm' takes no parameter tol; it takes kernel_scale, box_c"),
        ({"classifiers": [{"name": "fine svm", "max_passes": 5}]},
         "classifier 'fine svm' takes no parameter max_passes; it takes kernel_scale, box_c"),
        ({"scaling_curve": []}, "grid 'scaling_curve' must be an object"),
        ({"scaling_curve": 0}, "grid 'scaling_curve' must be an object"),
        ({"scaling_curve": False}, "grid 'scaling_curve' must be an object"),
        ({"scaling_curve": None}, "grid 'scaling_curve' must be an object"),
        ({"reducers": [{"method": "pca", "bogus": 1}]},
         "reducer 'pca' takes no parameter bogus; it takes target_dim, perplexity, max_iter, learning_rate, kernel"),
        ({"max_frames_per_fle": 3}, "grid takes no parameter max_frames_per_fle; it takes extractors, reducers, "
                                    "classifiers, scaling_curve, max_frames_per_file, recall_threshold"),
        ({"classifier": [{"name": "fine svm"}], "reducers": [{"method": "pca"}]},
         "grid takes no parameter classifier; it takes extractors, reducers, classifiers"),
        ({"extractors": [{"kind": "mfcc", "filter_count": 10}]},
         "extractor 'mfcc': filter_count 10 yields 9 coefficients, fewer than num_ceps 13"),
        ({"extractors": [{"kind": "plp", "pre_emphasis_a": 0.95}]},
         "extractor 'plp': plp does not read pre_emphasis_a; it must keep its default 0.97, got 0.95"),
        ({"extractors": [{"kind": "plp", "dct_kind": "idct"}]}, "extractor 'plp': plp does not read dct_kind"),
        ({"extractors": [{"kind": "plp", "include_c0": True}]}, "extractor 'plp': plp does not read include_c0"),
        ({"extractors": [{"kind": "lpcc", "fft_size": 1024}]}, "extractor 'lpcc': lpcc does not read fft_size"),
        ({"extractors": [{"kind": "lpcc", "filter_count": 30}]}, "extractor 'lpcc': lpcc does not read filter_count"),
        ({"extractors": [{"kind": "lpcc", "dct_kind": "idct"}]}, "extractor 'lpcc': lpcc does not read dct_kind"),
        ({"extractors": [{"kind": "lpcc", "include_c0": True}]}, "extractor 'lpcc': lpcc does not read include_c0"),
        ({"extractors": [{"kind": "mfcc", "lpc_order_q": 10}]}, "extractor 'mfcc': mfcc does not read lpc_order_q"),
        ({"reducers": [{"method": "pca", "perplexity": 5}]},
         "reducer 'pca' does not read perplexity; it must keep its default None, got 5"),
        ({"reducers": [{"method": "pca", "max_iter": 50}]}, "reducer 'pca' does not read max_iter"),
        ({"reducers": [{"method": "pca", "learning_rate": 0.5}]}, "reducer 'pca' does not read learning_rate"),
        ({"reducers": [{"method": "pca", "kernel": "student-t"}]}, "reducer 'pca' does not read kernel"),
        ({"reducers": [{"method": "sne", "learning_rate": float("inf")}]},
         "reducer 'sne': learning_rate must be finite, got inf"),
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
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_empty_scaling_curve_is_the_default_curve(cli_corpus, tmp_path, monkeypatch, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"scaling_curve": {}}))
    assert _grid_from_json(grid_path)[0].scaling_curve == ScalingCurve()
    # the default counts run to 7 speakers; this corpus has 2
    _no_wav_reads(monkeypatch)
    assert main(["bench", "--manifest", str(cli_corpus / "manifest.csv"), "--grid", str(grid_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: speaker_counts exceed the manifest's speaker count\n"


@pytest.mark.parametrize(
    "manifest, message",
    [
        ("path,speaker\na.wav,0\n", "header must name the columns path,speaker,sample"),
        ("path,speaker,sample\na.wav,0,0\nb.wav,0,x\n", "line 3: speaker and sample must be integers"),
        ("path,speaker,sample\n", "no data rows"),
    ],
)
def test_bench_rejects_malformed_manifest(tmp_path, capsys, manifest, message):
    manifest_path = tmp_path / "manifest.csv"
    manifest_path.write_text(manifest)
    out = tmp_path / "out"
    assert main(["bench", "--manifest", str(manifest_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {manifest_path}: {message}\n"
    assert not out.exists()


# --- the scaling curve inside bench ---------------------------------------------------

def run_bench(corpus_root, grid, tmp_path, seed=0):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    out = tmp_path / "out"
    code = main(["bench", "--manifest", str(corpus_root / "manifest.csv"), "--grid", str(grid_path),
                 "--out", str(out), "--seed", str(seed)])
    return code, out


def test_bench_curve_runs_on_the_sweeps_stage_outputs(small_corpus, tmp_path, monkeypatch):
    calls = {"load_wav": [], "extract": [], "reduce_for_pipeline": []}

    def record(name, argument):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name].append(argument(*args))
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapper)

    record("load_wav", lambda path: path)
    record("extract", lambda signal, config: config.frame_ms)
    record("reduce_for_pipeline", lambda features, mask, method: len(features))
    grid = {
        "extractors": [{"kind": "mfcc", "frame_ms": 20}],
        "reducers": [{"method": "pca"}],
        "classifiers": [{"name": "weighted knn", "k": 3}],
        "max_frames_per_file": 10,
        "scaling_curve": {"reducer": "pca", "speaker_counts": [2, 3]},
    }
    code, out = run_bench(small_corpus.root, grid, tmp_path)
    assert code == 0
    assert sorted(calls["load_wav"]) == sorted(small_corpus.resolve(e) for e in small_corpus.entries)
    assert set(calls["extract"]) == {20}  # the grid's mfcc, not the default 25 ms one
    assert calls["reduce_for_pipeline"] == [60, 40]  # 3 speakers x 2 recordings x 10 frames, then 2 speakers
    assert [row[0] for row in read_csv(out / "scaling_curve.csv")[1:]] == ["2", "3"]

    # the grid lacks the curve's classifier, yet the full roster reads the sweep's mfcc/pca embedding
    for stage_calls in calls.values():
        stage_calls.clear()
    grid["extractors"] = [{"kind": "mfcc"}]
    grid["classifiers"] = [{"name": "complex tree"}]
    (tmp_path / "pair").mkdir()
    code, out = run_bench(small_corpus.root, grid, tmp_path / "pair")
    assert code == 0
    assert calls["reduce_for_pipeline"] == [60, 40]
    assert [row[0] for row in read_csv(out / "scaling_curve.csv")[1:]] == ["2", "3"]


CURVE_GRIDS = {
    "in-grid": {"extractors": [{"kind": "mfcc"}], "reducers": [{"method": "sne"}],
                "classifiers": [{"name": "weighted knn"}]},
    "outside-grid": {"extractors": [{"kind": "lpcc"}], "reducers": [{"method": "pca"}],
                     "classifiers": [{"name": "complex tree"}]},
}


@pytest.mark.parametrize(
    "grid_name, counts", [("in-grid", [2]), ("in-grid", [2, 3]), ("outside-grid", [2, 3])]
)
def test_bench_curve_csv_equals_the_library_curve(small_corpus, tmp_path, grid_name, counts):
    grid = dict(CURVE_GRIDS[grid_name], max_frames_per_file=10, scaling_curve={"speaker_counts": counts})
    code, out = run_bench(small_corpus.root, grid, tmp_path, seed=5)
    assert code == 0
    rows = speaker_scaling_curve(
        small_corpus,
        default_config("mfcc"),
        ReducerSpec("sne"),
        ClassifierSpec("weighted knn"),
        counts,
        master_seed=5,
        settings=HarnessSettings(max_frames_per_file=10),
    )
    expected = "speakers,accuracy_pct,delta_per_speaker\r\n" + "".join(
        f"{count},{format_float(accuracy)},{'' if delta is None else format_float(delta)}\r\n"
        for count, accuracy, delta in rows
    )
    assert (out / "scaling_curve.csv").read_bytes() == expected.encode()
    report = json.loads((out / "report.json").read_text())
    assert report["scaling_curve"]["speaker_counts"] == counts
    assert [row[0] for row in report["scaling_curve"]["rows"]] == counts
    assert len(report["combinations"]) == 1


def test_bench_failed_curve_writes_the_report_and_exits_2(small_corpus, tmp_path, capsys):
    # k = 25 fits the full roster's 30 training frames but not two speakers' 20
    knn = ClassifierSpec("weighted knn", {"k": 25})
    grid = {
        "extractors": [{"kind": "mfcc"}],
        "reducers": [{"method": "pca"}],
        "classifiers": [{"name": knn.name, **knn.params}],
        "max_frames_per_file": 10,
        "scaling_curve": {"reducer": "pca", "speaker_counts": [2, 3]},
    }
    code, out = run_bench(small_corpus.root, grid, tmp_path)
    assert code == 2
    with pytest.raises(PipelineError) as raised:
        speaker_scaling_curve(small_corpus, default_config("mfcc"), ReducerSpec("pca"), knn, [2, 3],
                              settings=HarnessSettings(max_frames_per_file=10))
    assert str(raised.value) == "2-speaker run failed: KTooLarge: k=25 exceeds 20 training points"
    assert capsys.readouterr().err == f"error: PipelineError: {raised.value}\n"
    report = json.loads((out / "report.json").read_text())
    assert report["combinations"][0]["status"] == "ok"
    assert report["scaling_curve"]["failure_reason"] == str(raised.value)
    assert "rows" not in report["scaling_curve"]
    assert not (out / "scaling_curve.csv").exists()


# --- a corrupted recording -------------------------------------------------------------

WAV_BYTES = 44 + 2 * 24000  # a small_corpus recording: 1.5 s of 16-bit samples at 16 kHz
# offset and struct format of each field of the fmt chunk that the wave writer emits
FMT_FIELDS = {20: "<H", 22: "<H", 24: "<I", 28: "<I", 32: "<H", 34: "<H"}
ONE_CELL_GRID = {
    "extractors": [{"kind": "mfcc"}],
    "reducers": [{"method": "pca"}],
    "classifiers": [{"name": "weighted knn", "k": 3}],
    "max_frames_per_file": 10,
}


def _field_edit(offset):
    fmt = FMT_FIELDS[offset]
    return st.tuples(st.just(offset), st.just(fmt), st.integers(0, 2 ** (8 * struct.calcsize(fmt)) - 1))


@settings(max_examples=150, deadline=None)
@given(
    victim=st.integers(0, 5),
    corruption=st.one_of(st.integers(0, WAV_BYTES), st.sampled_from(sorted(FMT_FIELDS)).flatmap(_field_edit)),
)
def test_bench_on_a_corrupted_recording_reports_or_fails_cleanly(small_corpus, victim, corruption):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        shutil.copytree(small_corpus.root, corpus)
        wav = corpus / small_corpus.entries[victim].path
        raw = bytearray(wav.read_bytes())
        if isinstance(corruption, int):  # truncate at that byte
            del raw[corruption:]
        else:
            offset, fmt, value = corruption
            struct.pack_into(fmt, raw, offset, value)
        wav.write_bytes(bytes(raw))
        grid = Path(tmp) / "grid.json"
        grid.write_text(json.dumps(ONE_CELL_GRID))
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["bench", "--manifest", str(corpus / "manifest.csv"), "--grid", str(grid),
                         "--out", str(out)])
        errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
        if code == 0:
            assert (out / "report.json").exists() and not errors
        else:  # a sweep-wide error must at least say which recording is at fault
            assert code == 2 and len(errors) == 1, stderr.getvalue()
            assert small_corpus.entries[victim].path in errors[0]


# --- the exact bytes of every file type ------------------------------------------------
# Each file is CSV with \r\n line endings and minimal quoting, or JSON with sorted keys
# and a two-space indent, every float at six significant digits.

def test_feature_csv_bytes(tmp_path):
    features = tmp_path / "features.csv"
    features.write_text('source,speaker,frame,c1,c2\n"b,c.wav",1,0,0,5\na.wav,0,1,1,5\na.wav,0,2,3.1234567,5\n')
    out = tmp_path / "embedding.csv"
    assert main(["reduce", "--in", str(features), "--method", "pca", "--dim", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b"source,speaker,frame,y1\r\n"
        b'"b,c.wav",1,0,-1.37449\r\n'
        b"a.wav,0,1,-0.374486\r\n"
        b"a.wav,0,2,1.74897\r\n"
    )


def test_trace_csv_bytes(tmp_path):
    features = tmp_path / "features.csv"
    points = np.random.default_rng(5).normal(size=(8, 3))
    features.write_text("source,speaker,frame,c1,c2,c3\n" + "".join(
        f"a.wav,0,{i},{x},{y},{z}\n" for i, (x, y, z) in enumerate(points)
    ))
    trace = tmp_path / "trace.csv"
    assert main(["reduce", "--in", str(features), "--method", "sne", "--perplexity", "2", "--max-iter", "4",
                 "--seed", "1", "--out", str(tmp_path / "sne.csv"), "--trace", str(trace)]) == 0
    costs = sne_fit(points, SneConfig(perplexity=2, max_iter=4, seed=1)).cost_trace
    assert len(costs) == 4
    expected = "iteration,cost\r\n" + "".join(f"{i},{format_float(cost)}\r\n" for i, cost in enumerate(costs))
    assert trace.read_bytes() == expected.encode()


def test_predictions_csv_bytes(tmp_path):
    train, queries = tmp_path / "train.csv", tmp_path / "queries.csv"
    train.write_text("source,speaker,frame,y1\na.wav,0,0,0\nb.wav,1,0,1\n")
    queries.write_text("source,speaker,frame,y1\nq.wav,,0,0.25\nq.wav,,1,2\n")
    model, out = tmp_path / "model.pkl", tmp_path / "predictions.csv"
    assert main(["train", "--in", str(train), "--model", "knn", "--params", "k=2", "--out", str(model)]) == 0
    assert main(["predict", "--in", str(queries), "--model-file", str(model), "--out", str(out)]) == 0
    # inverse squared distances 16 : 1.77778 and 0.25 : 1
    assert out.read_bytes() == b"source,frame,predicted,score0,score1\r\nq.wav,0,0,0.9,0.1\r\nq.wav,1,1,0.2,0.8\r\n"


# the cell voxbench roc reads by default
ROC_CELL = {"extractor": "mfcc", "reducer": "sne", "classifier": "weighted knn", "status": "ok"}
NOT_PAIRS = "the ROC curve of speaker 0 is not a list of (fpr, tpr) pairs"


@pytest.mark.parametrize(
    "report, message",
    [
        ({}, "not a sweep report; it needs a 'combinations' list"),
        ([1], "not a sweep report; it needs a 'combinations' list"),
        ({"combinations": [ROC_CELL]}, "the combination has no 'roc_curves' object"),
        ({"combinations": [{**ROC_CELL, "roc_curves": {"0": 5}}]}, NOT_PAIRS),
        ({"combinations": [{**ROC_CELL, "roc_curves": {"0": [[0.0]]}}]}, NOT_PAIRS),
    ],
    ids=["empty_object", "list", "ok_cell_without_curves", "curve_is_a_number", "point_of_one_number"],
)
def test_roc_on_a_file_that_is_no_report_prints_an_error_line(tmp_path, capsys, report, message):
    path, out = tmp_path / "report.json", tmp_path / "roc.csv"
    path.write_text(json.dumps(report))
    assert main(["roc", "--report", str(path), "--speaker", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def test_roc_csv_bytes(tmp_path):
    report = tmp_path / "report.json"
    curve = [[0.0, 0.0], [1 / 3, 0.5], [1.0, 1.0]]
    report.write_text(json.dumps({"combinations": [
        {"extractor": "mfcc", "reducer": "sne", "classifier": "weighted knn", "status": "ok",
         "roc_curves": {"1": curve}},
    ]}))
    out = tmp_path / "roc.csv"
    assert main(["roc", "--report", str(report), "--speaker", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == b"fpr,tpr\r\n0,0\r\n0.333333,0.5\r\n1,1\r\n"


def _tiny_report() -> dict:
    """A report with a failed cell, a cell missing from the sne grid, and a two-row scaling curve."""
    def cell(reducer, extractor, classifier, accuracy=None, distinguishable=None):
        if accuracy is None:
            return {"reducer": reducer, "extractor": extractor, "classifier": classifier,
                    "status": "failed", "failure_reason": "KTooLarge: k=10 exceeds 4 training points"}
        return {"reducer": reducer, "extractor": extractor, "classifier": classifier, "status": "ok",
                "frame_accuracy_pct": accuracy, "distinguishable_count": distinguishable}

    return {
        "combinations": [
            cell("pca", "mfcc", "weighted knn", 200 / 3, 2),
            cell("pca", "lpcc", "weighted knn"),
            cell("pca", "mfcc", "fine svm", 100.0, 3),
            cell("pca", "lpcc", "fine svm", 12.5, 1),
            cell("sne", "mfcc", "weighted knn", 1e-7, 0),
        ],
        "scaling_curve": {"rows": [(2, 100.0, None), (3, 200 / 3, -100 / 3)]},
    }


# --- voxbench diff -------------------------------------------------------------------

def _diff_report() -> dict:
    """Two ok cells with confusion and ROC curves, one failed cell, and a two-row scaling curve."""
    def ok(reducer):
        return {"reducer": reducer, "extractor": "mfcc", "classifier": "weighted knn", "status": "ok",
                "frame_accuracy_pct": 75.0, "recording_accuracy_pct": 100.0, "distinguishable_count": 2,
                "confusion": [[3, 1], [1, 3]],
                "roc_curves": {speaker: [[0.0, 0.0], [0.25, 0.75], [1.0, 1.0]] for speaker in ("0", "1")}}

    return {
        "master_seed": 0,
        "combinations": [
            ok("pca"),
            ok("sne"),
            {"reducer": "pca", "extractor": "lpcc", "classifier": "weighted knn", "status": "failed",
             "failure_reason": "KTooLarge: k=10 exceeds 4 training points"},
        ],
        "scaling_curve": {"rows": [[2, 100.0, None], [3, 75.0, -25.0]]},
    }


def _diff(tmp_path, capsys, a: dict, b: dict):
    """voxbench diff on a and b as written report.json files: its exit code and stdout lines."""
    write_report_json(a, tmp_path / "a.json")
    write_report_json(b, tmp_path / "b.json")
    code = main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    return code, capsys.readouterr().out.splitlines()


def test_diff_of_identical_reports_exits_0_silently(tmp_path, capsys):
    report = _diff_report()
    report["combinations"][0]["frame_accuracy_pct"] = float("nan")  # NaN equals NaN
    assert _diff(tmp_path, capsys, report, report) == (0, [])


def test_diff_reports_a_moved_roc_point_against_its_own_cell_only(tmp_path, capsys):
    moved = _diff_report()
    moved["combinations"][1]["roc_curves"]["1"][1] = [0.25, 0.5]
    assert _diff(tmp_path, capsys, _diff_report(), moved) == (
        1, ["cell sne/mfcc/weighted knn: ROC of speakers 1; max |diff| 0.25"]
    )


def test_diff_reports_a_flip_from_ok_to_failed(tmp_path, capsys):
    flipped = _diff_report()
    flipped["combinations"][0] = {**_diff_report()["combinations"][2], "extractor": "mfcc"}
    assert _diff(tmp_path, capsys, _diff_report(), flipped) == (1, ["cell pca/mfcc/weighted knn: status ok -> failed"])


def test_diff_gives_a_cells_metric_deltas_and_changed_confusion_entries(tmp_path, capsys):
    moved = _diff_report()
    moved["combinations"][1].update(frame_accuracy_pct=62.5, distinguishable_count=1, confusion=[[2, 2], [1, 3]])
    line = "cell sne/mfcc/weighted knn: frame accuracy -12.5; distinguishable -1; 2 confusion entries; max |diff| 12.5"
    assert _diff(tmp_path, capsys, _diff_report(), moved) == (1, [line])


def test_diff_reports_an_added_key_as_added(tmp_path, capsys):
    added = _diff_report()
    added["note"] = "x"
    added["combinations"][1]["test_frames"] = 8
    added["combinations"].append({**added["combinations"][2], "classifier": "fine svm"})
    added["scaling_curve"]["rows"].append([4, 50.0, -25.0])
    assert _diff(tmp_path, capsys, _diff_report(), added) == (1, [
        "only in B: cell pca/lpcc/fine svm",
        "cell sne/mfcc/weighted knn: test_frames only in B",
        "only in B: note",
        "only in B: scaling_curve.rows[4]",
    ])
    assert _diff(tmp_path, capsys, added, _diff_report())[1][0] == "only in A: cell pca/lpcc/fine svm"


@pytest.mark.parametrize(
    "text, message",
    [
        ("{", "not JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("[]", "not a sweep report; it needs a 'combinations' list"),
        ('{"combinations": [{"reducer": "pca"}]}',
         "each combination must name a distinct reducer, extractor and classifier"),
        ('{"combinations": [], "scaling_curve": {"rows": [[]]}}',
         "each scaling_curve row must be a list that starts with its speaker count"),
    ],
)
def test_diff_rejects_a_file_that_is_no_report(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    write_report_json(_diff_report(), tmp_path / "good.json")
    assert main(["diff", str(tmp_path / "good.json"), str(bad)]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")


def test_grid_table_bytes(tmp_path):
    harness.write_sweep_outputs(_tiny_report(), tmp_path)
    assert (tmp_path / "accuracy_pca.csv").read_bytes() == (
        b"classifier,mfcc,lpcc\r\nweighted knn,66.6667,failed\r\nfine svm,100,12.5\r\n"
    )
    assert (tmp_path / "distinguishable_pca.csv").read_bytes() == (
        b"classifier,mfcc,lpcc\r\nweighted knn,2,failed\r\nfine svm,3,1\r\n"
    )
    assert (tmp_path / "accuracy_sne.csv").read_bytes() == (
        b"classifier,mfcc,lpcc\r\nweighted knn,1e-07,failed\r\nfine svm,failed,failed\r\n"
    )


def test_scaling_curve_csv_bytes(tmp_path):
    harness.write_sweep_outputs(_tiny_report(), tmp_path)
    assert (tmp_path / "scaling_curve.csv").read_bytes() == (
        b"speakers,accuracy_pct,delta_per_speaker\r\n2,100,\r\n3,66.6667,-33.3333\r\n"
    )


def test_manifest_bytes(tmp_path):
    entries = (
        ManifestEntry("a b.wav", 0, 0),
        ManifestEntry("a,b.wav", 0, 1),
        ManifestEntry('say "hi".wav', 1, 0),
        ManifestEntry("c.wav", 1, 1),
    )
    save_manifest(CorpusManifest(entries=entries, root=tmp_path), tmp_path / "manifest.csv")
    assert (tmp_path / "manifest.csv").read_bytes() == (
        b'path,speaker,sample\r\na b.wav,0,0\r\n"a,b.wav",0,1\r\n"say ""hi"".wav",1,0\r\nc.wav,1,1\r\n'
    )


def test_vad_report_json_bytes(tmp_path):
    rng = np.random.default_rng(0)
    voiced = 0.3 * np.sin(2 * np.pi * 440 * np.arange(3300) / 11025)
    samples = np.concatenate([rng.normal(0, 1e-3, 3300), voiced, rng.normal(0, 1e-3, 1600)])
    wav, report = tmp_path / "in.wav", tmp_path / "segments.json"
    write_wav(wav, AudioSignal(samples=samples, sample_rate=11025))
    assert main(["vad", "--in", str(wav), "--out", str(tmp_path / "out.wav"), "--report", str(report)]) == 0
    assert report.read_text() == """{
  "input_samples": 8200,
  "sample_rate": 11025,
  "segments": [
    {
      "end_sample": 6600,
      "end_seconds": 0.598639,
      "start_sample": 3300,
      "start_seconds": 0.29932
    }
  ],
  "trimmed_samples": 3300
}
"""


# --- extract on a manifest names the recording at fault --------------------------------

def _copied_corpus(cli_corpus, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(cli_corpus, corpus)
    return corpus, sorted(p.name for p in corpus.glob("*.wav"))


def _silent_wav(path):
    write_wav(path, AudioSignal(samples=np.zeros(16000), sample_rate=16000))


def _wav_at_8_khz(path):
    write_wav(path, AudioSignal(samples=load_wav(path).samples[::2], sample_rate=8000))


def _not_audio(path):
    path.write_bytes(b"not audio")


@pytest.mark.parametrize(
    "victim, corrupt, reason",
    [
        (1, _silent_wav, "DegenerateSilence: {name}: leading 200 ms is constant; cannot model silence"),
        (2, _wav_at_8_khz, "PipelineError: {name}: sample rate 8000 differs from corpus 16000"),
        (3, _not_audio, "NotWav: {path}: not a RIFF/WAVE file"),  # named once, by the reader
    ],
    ids=["vad", "sample_rate", "unreadable"],
)
def test_extract_names_a_failed_recording_as_the_sweep_does(cli_corpus, tmp_path, capsys, victim, corrupt, reason):
    corpus, wavs = _copied_corpus(cli_corpus, tmp_path)
    corrupt(corpus / wavs[victim])
    reason = reason.format(name=wavs[victim], path=corpus / wavs[victim])
    out = tmp_path / "feats.csv"
    assert main(["extract", "--in", str(corpus / "manifest.csv"), "--method", "mfcc", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()
    grid = SweepGrid((default_config("mfcc"),), (ReducerSpec("pca"),), (ClassifierSpec("weighted knn"),))
    (entry,) = run_sweep(load_manifest(corpus / "manifest.csv"), grid)["combinations"]
    assert entry["failure_reason"] == reason


def test_extract_reads_a_one_speaker_manifest_that_bench_rejects(cli_corpus, tmp_path, monkeypatch, capsys):
    manifest = load_manifest(cli_corpus / "manifest.csv")
    first = tuple(e for e in manifest.entries if e.speaker == 0)
    for entry in first:
        shutil.copy(cli_corpus / entry.path, tmp_path / entry.path)
    one_speaker = tmp_path / "manifest.csv"
    save_manifest(CorpusManifest(entries=first, root=tmp_path), one_speaker)
    features = tmp_path / "features.csv"
    assert main(["extract", "--in", str(one_speaker), "--method", "mfcc", "--out", str(features)]) == 0
    assert {row[0] for row in read_csv(features)[1:]} == {e.path for e in first}
    _no_wav_reads(monkeypatch)
    out = tmp_path / "out"
    assert main(["bench", "--manifest", str(one_speaker), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: corpus needs at least two speakers\n"
    assert not out.exists()
