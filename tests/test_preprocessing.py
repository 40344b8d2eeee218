import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from voxbench.audio_io import AudioSignal, load_wav
from voxbench.errors import DegenerateSilence, NoVoicedContent, TooShort
from voxbench.bench.corpus import generate_synthetic_corpus
from voxbench.preprocessing import (
    CONTAMINATION_WARN_FRACTION,
    SilenceModel,
    fit_silence_model,
    remove_silence,
    standardize,
)

SR = 16000
HEAD = 3200  # 200 ms at 16 kHz


def noise_head(rng, sigma=0.01, n=HEAD):
    return rng.normal(0.0, sigma, n)


def test_fit_uses_first_200ms_only():
    rng = np.random.default_rng(0)
    samples = np.concatenate([noise_head(rng), np.full(SR, 0.9)])
    model = fit_silence_model(AudioSignal(samples=samples, sample_rate=SR))
    head = samples[:HEAD]
    assert model.mu == pytest.approx(head.mean())
    assert model.sigma == pytest.approx(head.std())


def test_fit_alternating_head():
    head = np.tile([0.01, -0.01], HEAD // 2)
    samples = np.concatenate([head, np.full(SR, 0.5)])
    model = fit_silence_model(AudioSignal(samples=samples, sample_rate=SR))
    assert model.mu == pytest.approx(0.0, abs=1e-15)
    assert model.sigma == pytest.approx(0.01)


def test_fit_single_nonzero_sample_is_enough():
    head = np.zeros(HEAD)
    head[10] = 0.05
    samples = np.concatenate([head, np.full(SR, 0.5)])
    model = fit_silence_model(AudioSignal(samples=samples, sample_rate=SR))
    assert model.sigma > 0


def test_fit_rejects_constant_head():
    samples = np.concatenate([np.zeros(HEAD), np.full(SR, 0.5)])
    with pytest.raises(DegenerateSilence):
        fit_silence_model(AudioSignal(samples=samples, sample_rate=SR))


def test_fit_rejects_short_signal():
    with pytest.raises(TooShort):
        fit_silence_model(AudioSignal(samples=np.ones(HEAD - 1) * 0.1, sample_rate=SR))


def test_standardize_identities():
    rng = np.random.default_rng(1)
    sig = AudioSignal(samples=np.concatenate([noise_head(rng), np.full(SR, 0.5)]), sample_rate=SR)
    model = fit_silence_model(sig)
    assert standardize(model.mu, model) == 0.0
    assert standardize(model.mu + model.sigma, model) == pytest.approx(1.0)


def test_standardize_gaussian_mass():
    # one-dimensional Gaussian: ~68 / 95 / 99.7 percent within 1, 2, 3 sigma
    rng = np.random.default_rng(42)
    sig = AudioSignal(samples=np.concatenate([noise_head(rng), np.full(SR, 0.5)]), sample_rate=SR)
    model = fit_silence_model(sig)
    draws = rng.normal(model.mu, model.sigma, 100_000)
    u = np.abs(standardize(draws, model))
    assert np.mean(u <= 1) == pytest.approx(0.68, abs=0.015)
    assert np.mean(u <= 2) == pytest.approx(0.95, abs=0.015)
    assert np.mean(u <= 3) == pytest.approx(0.997, abs=0.015)


def make_tone_signal(rng, sigma=0.005, lead_s=0.2, tone_s=0.5, tail_s=0.2):
    """Noise lead matching the silence model, a loud tone, noise tail."""
    lead = rng.normal(0.0, sigma, int(lead_s * SR))
    t = np.arange(int(tone_s * SR)) / SR
    tone = 10 * sigma * 3 * np.sin(2 * np.pi * 220 * t)
    tail = rng.normal(0.0, sigma, int(tail_s * SR))
    return np.concatenate([lead, tone, tail])


def test_pure_noise_has_no_voiced_content():
    rng = np.random.default_rng(5)
    sig = AudioSignal(samples=rng.normal(0.0, 0.01, SR), sample_rate=SR)
    model = fit_silence_model(sig)
    with pytest.raises(NoVoicedContent):
        remove_silence(sig, model)


def test_tone_segment_recovered_within_one_block():
    rng = np.random.default_rng(6)
    sig = AudioSignal(samples=make_tone_signal(rng), sample_rate=SR)
    model = fit_silence_model(sig)
    result = remove_silence(sig, model)
    assert len(result.segments) == 1
    start, end = result.segments[0]
    block = int(round(model.frame_ms * SR / 1000))
    tone_start, tone_end = int(0.2 * SR), int(0.7 * SR)
    assert abs(start - tone_start) <= block
    assert abs(end - tone_end) <= block
    assert len(result.trimmed) == end - start


def test_fully_voiced_signal_keeps_almost_everything():
    rng = np.random.default_rng(7)
    lead = rng.normal(0.0, 0.001, HEAD)
    voiced = 0.5 * np.sign(np.sin(2 * np.pi * 150 * np.arange(SR) / SR))
    sig = AudioSignal(samples=np.concatenate([lead, voiced]), sample_rate=SR)
    model = fit_silence_model(sig)
    block = int(round(model.frame_ms * SR / 1000))
    result = remove_silence(sig, model)
    assert result.voiced_share > CONTAMINATION_WARN_FRACTION
    assert len(result.trimmed) >= len(sig) - HEAD - 2 * block


def test_speech_dense_recording_returns_its_voiced_share_without_warning(tmp_path):
    # a synthetic voice speaks from 0.25 s on, so about three quarters of a 1 s recording's blocks are voiced
    manifest = generate_synthetic_corpus(n_speakers=2, samples_each=2, seconds=1.0, seed=42, out_dir=tmp_path)
    for entry in manifest.entries:
        sig = load_wav(manifest.resolve(entry))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = remove_silence(sig, fit_silence_model(sig))
        assert result.voiced_share > CONTAMINATION_WARN_FRACTION, entry.path


def test_trimmed_is_ordered_subsequence():
    rng = np.random.default_rng(8)
    sig = AudioSignal(samples=make_tone_signal(rng), sample_rate=SR)
    model = fit_silence_model(sig)
    result = remove_silence(sig, model)
    rebuilt = np.concatenate([sig.samples[s:e] for s, e in result.segments])
    np.testing.assert_array_equal(result.trimmed.samples, rebuilt)
    # segments sorted and disjoint
    flat = [i for seg in result.segments for i in seg]
    assert flat == sorted(flat)


def test_raising_threshold_never_adds_voiced_audio():
    rng = np.random.default_rng(9)
    sig = AudioSignal(samples=make_tone_signal(rng, tone_s=1.0, tail_s=0.8), sample_rate=SR)
    durations = []
    for threshold in (1.0, 2.0, 3.0):
        model = fit_silence_model(sig, u_threshold=threshold)
        try:
            durations.append(len(remove_silence(sig, model).trimmed))
        except NoVoicedContent:
            durations.append(0)
    assert durations == sorted(durations, reverse=True)


def test_idempotent_on_clean_margins():
    rng = np.random.default_rng(10)
    sig = AudioSignal(samples=make_tone_signal(rng, tone_s=1.0, tail_s=0.8), sample_rate=SR)
    model = fit_silence_model(sig)
    once = remove_silence(sig, model)
    twice = remove_silence(once.trimmed, model)
    block = int(round(model.frame_ms * SR / 1000))
    assert len(once.trimmed) - len(twice.trimmed) < block


def test_endpoints_only_keeps_interior_silence():
    rng = np.random.default_rng(11)
    sigma = 0.005
    lead = rng.normal(0.0, sigma, HEAD)
    t = np.arange(int(0.3 * SR)) / SR
    tone = 0.4 * np.sin(2 * np.pi * 200 * t)
    gap = rng.normal(0.0, sigma, int(0.3 * SR))
    tail = rng.normal(0.0, sigma, int(0.3 * SR))
    sig = AudioSignal(
        samples=np.concatenate([lead, tone, gap, tone, tail]), sample_rate=SR
    )
    model = fit_silence_model(sig)
    dropped = remove_silence(sig, model)
    kept = remove_silence(sig, model, endpoints_only=True)
    assert len(kept.segments) == 1
    assert len(kept.trimmed) > len(dropped.trimmed)


def per_block_segments(voiced, block, min_segment):
    """Voiced runs of blocks as sample intervals, one block at a time: the reference for remove_silence."""
    segments, start = [], None
    for i, flag in enumerate(voiced):
        if flag and start is None:
            start = i * block
        elif not flag and start is not None:
            segments.append((start, i * block))
            start = None
    if start is not None:
        segments.append((start, len(voiced) * block))
    return [(s, e) for s, e in segments if e - s >= min_segment]


@given(
    flags=st.lists(st.booleans(), min_size=1, max_size=40),
    endpoints_only=st.booleans(),
    min_segment_ms=st.sampled_from([0.0, 10.0, 25.0, 50.0]),  # 0, 1, 2.5 and 5 blocks
    remainder=st.integers(0, 159),
)
@example(flags=[True, False, True, True, False, False, True], endpoints_only=False, min_segment_ms=0.0, remainder=0)
@example(flags=[True, False, True, True, False, False, True], endpoints_only=False, min_segment_ms=25.0, remainder=7)
@example(flags=[False, True, False, False, True, False], endpoints_only=True, min_segment_ms=50.0, remainder=0)
def test_segments_are_the_runs_of_voiced_blocks(flags, endpoints_only, min_segment_ms, remainder):
    block = SR // 100  # the default 10 ms block
    model = SilenceModel(mu=0.0, sigma=1.0)  # |u| > 3 voices a block
    samples = np.concatenate([np.repeat(np.where(flags, 10.0, 0.0), block), np.zeros(remainder)])
    voiced = np.array(flags)
    if endpoints_only and voiced.any():
        voiced[voiced.argmax() : len(voiced) - voiced[::-1].argmax()] = True
    expected = per_block_segments(voiced, block, round(min_segment_ms * SR / 1000))
    sig = AudioSignal(samples=samples, sample_rate=SR)
    if not expected:
        with pytest.raises(NoVoicedContent):
            remove_silence(sig, model, min_segment_ms=min_segment_ms, endpoints_only=endpoints_only)
        return
    result = remove_silence(sig, model, min_segment_ms=min_segment_ms, endpoints_only=endpoints_only)
    assert result.segments == expected
    assert result.voiced_share == np.mean(flags)  # counted before endpoints_only widens the run
    assert all(type(bound) is int for segment in result.segments for bound in segment)
    np.testing.assert_array_equal(result.trimmed.samples, np.concatenate([samples[s:e] for s, e in expected]))
