"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The end-to-end criteria run on the seeded synthetic corpus (7 speakers x
3 samples x 3 s, corpus seed 42, master seed 0) and reuse one pair of full
sweep runs for both the timing and the determinism checks.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from voxbench.audio_io import AudioSignal, frame_signal, hamming_window
from voxbench.bench import (
    ClassifierSpec,
    ReducerSpec,
    generate_synthetic_corpus,
    roc_auc,
    roc_points,
    run_sweep,
    speaker_scaling_curve,
)
from voxbench.classifiers import LabeledDataset, predict, svm_train, tree_train, knn_train
from voxbench.classifiers.ffnn import FeedForwardNet
from voxbench.features import (
    bark_scale,
    default_config,
    levinson_durbin,
    lpc_analysis,
    mel_scale,
)
from voxbench.preprocessing import SilenceModel, standardize
from voxbench.reduction import (
    SneConfig,
    calibrated_conditionals,
    pca_fit,
    pca_inverse_transform,
    pca_transform,
    sne_conditional_q,
    sne_cost,
    sne_fit,
    sne_gradient,
)

CORPUS_SEED = 42
MASTER_SEED = 0


def report_line(criterion: int, ok: bool, detail: str):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def acceptance_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_corpus")
    return generate_synthetic_corpus(
        n_speakers=7, samples_each=3, seconds=3.0, seed=CORPUS_SEED, out_dir=out
    )


@pytest.fixture(scope="module")
def sweep_runs(acceptance_corpus, tmp_path_factory):
    """One serial full sweep (timed) and one two-thread rerun of it."""
    serial_dir = tmp_path_factory.mktemp("sweep_serial")
    parallel_dir = tmp_path_factory.mktemp("sweep_parallel")
    start = time.time()
    report = run_sweep(acceptance_corpus, master_seed=MASTER_SEED, out_dir=serial_dir)
    serial_seconds = time.time() - start
    run_sweep(acceptance_corpus, master_seed=MASTER_SEED, out_dir=parallel_dir, jobs=2)
    return report, serial_seconds, serial_dir, parallel_dir


def test_criterion_1_formula_fidelity():
    mel_ok = abs(float(mel_scale(700.0)) - 1125 * math.log(2)) <= 1e-9
    bark_ok = abs(float(bark_scale(1200 * math.pi)) - 6 * math.log(1 + math.sqrt(2))) <= 1e-9
    hamming_ok = abs(hamming_window(400)[0] - 0.08) <= 1e-12
    report_line(1, mel_ok and bark_ok and hamming_ok,
                "Mel(700), Bark(1200*pi) and Hamming w(0) match their closed forms")


def test_criterion_2_gaussian_mass():
    model = SilenceModel(mu=0.0, sigma=1.0)
    draws = np.random.default_rng(2024).normal(0.0, 1.0, 100_000)
    u = np.abs(standardize(draws, model))
    fractions = [float(np.mean(u <= k)) for k in (1, 2, 3)]
    ok = (
        abs(fractions[0] - 0.68) <= 0.015
        and abs(fractions[1] - 0.95) <= 0.015
        and abs(fractions[2] - 0.997) <= 0.015
    )
    report_line(2, ok, f"|u|<=1,2,3 mass = {[round(f, 4) for f in fractions]}")


def test_criterion_3_levinson_vs_dense_solve():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        psd = rng.uniform(0.1, 2.0, 64)
        r = np.fft.ifft(np.concatenate([psd, psd[-2:0:-1]])).real[:11]
        a, _ = levinson_durbin(r)
        residual = np.abs(toeplitz(r[:-1]) @ a - r[1:]).max()
        worst = max(worst, residual / np.abs(r[1:]).max())
    report_line(3, worst <= 1e-8, f"worst relative residual {worst:.3e}")


def test_criterion_4_lpcc_ar2_recovery():
    rng = np.random.default_rng(4)
    a1 = 2 * 0.9 * np.cos(0.3 * np.pi)
    a2 = -0.81
    signal = lfilter([1.0], [1.0, -a1, -a2], rng.normal(0.0, 0.1, 64000))
    frames = frame_signal(AudioSignal(samples=signal, sample_rate=16000), 25.0, 10.0)
    coeffs, _, unstable = lpc_analysis(frames * hamming_window(400), order=2)
    recovered = coeffs.mean(axis=0)
    rel = np.abs(recovered - [a1, a2]) / np.abs([a1, a2])
    ok = unstable == 0 and rel.max() < 0.05
    report_line(4, ok, f"recovered {recovered.round(4)} vs true [{a1:.4f}, {a2:.4f}], "
                       f"max rel err {rel.max():.3%}")


def test_criterion_5_sne_gradient_and_descent():
    rng = np.random.default_rng(5)
    data = rng.normal(0.0, 1.0, (10, 4))
    p = calibrated_conditionals(data, perplexity=3.0)
    y = rng.normal(0.0, 1.0, (10, 2))
    analytic = sne_gradient(p, sne_conditional_q(y), y)
    h = 1e-5
    numeric = np.zeros_like(y)
    for i in range(10):
        for j in range(2):
            plus, minus = y.copy(), y.copy()
            plus[i, j] += h
            minus[i, j] -= h
            numeric[i, j] = (
                sne_cost(p, sne_conditional_q(plus)) - sne_cost(p, sne_conditional_q(minus))
            ) / (2 * h)
    rel = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(numeric))
    embedding = sne_fit(data, SneConfig(seed=0))
    descended = embedding.cost_trace[-1] < embedding.cost_trace[0]
    ok = rel.max() < 1e-4 and descended
    report_line(5, ok, f"max gradient rel err {rel.max():.2e}; "
                       f"cost {embedding.cost_trace[0]:.4f} -> {embedding.cost_trace[-1]:.4f}")


def test_criterion_6_pca_identities():
    rng = np.random.default_rng(6)
    data = rng.normal(0.0, 1.0, (120, 5)) @ rng.normal(0.0, 1.0, (5, 5))
    model = pca_fit(data, target_dim=5)
    centered = data - data.mean(axis=0)
    trace = np.trace(centered.T @ centered / (len(data) - 1))
    trace_ok = abs(model.eigenvalues.sum() - trace) <= 1e-8

    projected = pca_transform(model, data)
    cov = np.cov(projected, rowvar=False)
    decorrelated = np.abs(cov - np.diag(np.diag(cov))).max() < 1e-8

    rebuilt = pca_inverse_transform(model, projected)
    roundtrip = np.abs(rebuilt - data).max() <= 1e-8
    report_line(6, trace_ok and decorrelated and roundtrip,
                "eigenvalue sum = trace, projected columns decorrelated, round trip exact")


def test_criterion_7_classifier_oracles():
    rng = np.random.default_rng(7)

    points, labels = rng.normal(0, 1, (200, 2)), rng.integers(0, 3, 200)
    labels[:3] = [0, 1, 2]
    knn = knn_train(LabeledDataset(points=points, labels=labels, train_mask=np.ones(200, bool)), k=5)
    queries = rng.normal(0, 1, (60, 2))
    got, _ = predict(knn, queries)
    mismatches = 0
    for q, predicted in zip(queries, got):
        d2 = ((points - q) ** 2).sum(axis=1)
        nearest = np.argsort(d2, kind="stable")[:5]
        tallies = np.zeros(3)
        for idx in nearest:
            tallies[labels[idx]] += 1.0 / (1e-12 + d2[idx])
        mismatches += int(predicted != tallies.argmax())
    knn_ok = mismatches == 0

    net = FeedForwardNet.initialized(3, (4, 3), 2, rng)
    x = rng.normal(0, 1, (3, 3))
    y = np.array([0, 1, 1])
    _, grads = net.loss_and_grads(x, y)
    h = 1e-5
    worst = 0.0
    for weight, grad in zip((net.w1, net.b1, net.w2, net.b2, net.w3, net.b3), grads):
        flat = weight.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = net.loss_and_grads(x, y)[0]
            flat[idx] = orig - h
            down = net.loss_and_grads(x, y)[0]
            flat[idx] = orig
            numeric = (up - down) / (2 * h)
            worst = max(worst, abs(grad.reshape(-1)[idx] - numeric) / max(1e-8, abs(numeric)))
    ffnn_ok = worst < 1e-4

    blob_points = np.vstack([rng.normal(c, 1.2, (30, 2)) for c in ((0, 0), (4, 4), (8, 0))])
    blob_labels = np.repeat(np.arange(3), 30)
    svm = svm_train(
        LabeledDataset(points=blob_points, labels=blob_labels, train_mask=np.ones(90, bool)),
        box_c=1.0,
    )
    svm_ok = all(
        (problem.alphas >= -1e-12).all()
        and (problem.alphas <= problem.box_c + 1e-12).all()
        and abs((problem.alphas * problem.targets).sum()) <= 1e-6
        for _, _, problem in svm.payload.problems
    )

    tree_data = LabeledDataset(
        points=np.array([[1.0], [2.0], [8.0], [9.0]]),
        labels=np.array([0, 0, 1, 1]),
        train_mask=np.ones(4, bool),
    )
    tree = tree_train(tree_data, max_splits=10)
    tree_ok = (predict(tree, tree_data.points)[0] == tree_data.labels).all()

    report_line(7, knn_ok and ffnn_ok and svm_ok and tree_ok,
                f"knn oracle mismatches {mismatches}; ffnn grad rel err {worst:.2e}; "
                f"svm dual feasible; tree separable-1D exact")


@pytest.mark.slow
def test_criterion_8_end_to_end_trend(acceptance_corpus, sweep_runs):
    _, sweep_seconds, _, _ = sweep_runs
    rows = speaker_scaling_curve(
        acceptance_corpus,
        default_config("mfcc"),
        ReducerSpec("sne"),
        ClassifierSpec("weighted knn"),
        speaker_counts=[2, 3, 4, 5, 6, 7],
        master_seed=MASTER_SEED,
    )
    accs = [acc for _, acc, _ in rows]
    above_chance = all(acc >= 2.0 * 100.0 / n for (n, acc, _) in rows)
    endpoints = accs[0] > accs[-1]
    inversions = [b - a for a, b in zip(accs, accs[1:]) if b > a + 1e-9]
    inversion_ok = len(inversions) <= 1 and all(v <= 2.0 for v in inversions)
    sweep_ok = sweep_seconds < 600.0
    ok = above_chance and endpoints and inversion_ok and sweep_ok
    report_line(8, ok, f"accuracy over N=2..7 = {[round(a, 2) for a in accs]}; "
                       f"sweep took {sweep_seconds:.0f}s (< 600s)")


def test_criterion_9_roc_integrity():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 2, 400)
    scores = rng.normal(0, 1, (400, 2)) + 1.2 * np.eye(2)[labels]
    worst = 0.0
    for speaker in (0, 1):
        channel = scores[:, speaker]
        pos = channel[labels == speaker]
        neg = channel[labels != speaker]
        oracle = ((pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()) / (
            len(pos) * len(neg)
        )
        worst = max(worst, abs(roc_auc(roc_points(labels, scores, speaker)) - oracle))

    perfect = np.column_stack([1.0 - labels, labels]).astype(float)
    perfect_auc = roc_auc(roc_points(labels, perfect, 1))
    ok = worst <= 1e-6 and perfect_auc == 1.0
    report_line(9, ok, f"worst AUC gap vs pairwise oracle {worst:.2e}; perfect-score AUC {perfect_auc}")


@pytest.mark.slow
def test_criterion_10_sweep_determinism(sweep_runs):
    report, _, serial_dir, parallel_dir = sweep_runs
    names = sorted(p.name for p in serial_dir.iterdir())
    identical = all(
        (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes() for name in names
    )
    all_ran = len(report["combinations"]) == 30
    ok = identical and all_ran and len(names) >= 5
    report_line(10, ok, f"{len(names)} report files byte-identical across serial and 2-thread runs")
