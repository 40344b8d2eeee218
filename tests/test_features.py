import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from voxbench.audio_io import AudioSignal, frame_signal, hamming_window
from voxbench.errors import FilterbankTooDense, FrameExceedsFft
from voxbench.features import (
    EXTRACTOR_KINDS,
    LOG_FLOOR,
    UNREAD_KNOBS,
    ExtractorConfig,
    _dct,
    _lpcc,
    _mfcc,
    _plp,
    bark_band_centers,
    bark_band_loudness,
    bark_scale,
    default_config,
    extract,
    mel_energies,
    mel_filter_edges,
    mel_filterbank,
    mel_scale,
    mel_to_hz,
    pre_emphasize,
    windowed_frames,
)

SR = 16000


def tone(freq, seconds=1.0, amp=0.5, sr=SR):
    t = np.arange(int(seconds * sr)) / sr
    return AudioSignal(samples=amp * np.sin(2 * np.pi * freq * t), sample_rate=sr)


# --- pre-emphasis ---------------------------------------------------------

def test_pre_emphasis_constant_input():
    sig = AudioSignal(samples=np.ones(4), sample_rate=SR)
    out = pre_emphasize(sig, a=1.0)
    np.testing.assert_allclose(out.samples, [1, 0, 0, 0])


def test_pre_emphasis_hand_values():
    sig = AudioSignal(samples=np.array([1.0, 0.0, 1.0, 0.0]), sample_rate=SR)
    out = pre_emphasize(sig, a=0.9)
    # y[0]=x[0]; y[n] = x[n] - 0.9*x[n-1]
    np.testing.assert_allclose(out.samples, [1.0, -0.9, 1.0, -0.9])


def test_pre_emphasis_dc_gain():
    n, c, a = 5000, 0.3, 0.95
    sig = AudioSignal(samples=np.full(n, c), sample_rate=SR)
    out = pre_emphasize(sig, a)
    # telescoping: c + (n-1)*c*(1-a)
    assert out.samples.sum() == pytest.approx(c + (n - 1) * c * (1 - a))


def test_pre_emphasis_attenuates_dc_monotonically():
    rng = np.random.default_rng(0)
    sig = AudioSignal(samples=rng.uniform(0.1, 0.9, 4000), sample_rate=SR)
    dc = [abs(np.fft.rfft(pre_emphasize(sig, a).samples)[0]) for a in (0.9, 0.95, 1.0)]
    assert dc[0] >= dc[1] >= dc[2]


def test_pre_emphasis_preserves_length():
    sig = tone(440)
    assert len(pre_emphasize(sig, 0.97)) == len(sig)


@pytest.mark.parametrize("kind", EXTRACTOR_KINDS)
def test_only_mfcc_and_lpcc_pre_emphasize(kind):
    if kind == "plp":
        with pytest.raises(ValueError, match="^plp does not read pre_emphasis_a; it must keep its default 0.97, got 0.9$"):
            default_config(kind, pre_emphasis_a=0.9)
        return
    sig = tone(440, seconds=0.3)
    weak = extract(sig, default_config(kind, pre_emphasis_a=0.9)).values
    flat = extract(sig, default_config(kind, pre_emphasis_a=1.0)).values
    assert not np.array_equal(weak, flat)


# --- mel scale and filterbank ----------------------------------------------

def test_mel_scale_anchors():
    assert mel_scale(0.0) == 0.0
    assert mel_scale(700.0) == pytest.approx(1125 * np.log(2), abs=1e-9)


@given(st.floats(min_value=0.0, max_value=24000.0), st.floats(min_value=0.001, max_value=100.0))
def test_mel_scale_strictly_monotone(f, step):
    assert mel_scale(f + step) > mel_scale(f)


def test_mel_inverse_roundtrip():
    f = np.linspace(0, 8000, 100)
    np.testing.assert_allclose(mel_to_hz(mel_scale(f)), f, atol=1e-9)


def test_mel_filterbank_rows_nonempty_and_nonnegative():
    config = default_config("mfcc")
    bank = mel_filterbank(config, SR)
    assert bank.shape == (26, 257)
    assert (bank >= 0).all()
    assert (bank > 0).any(axis=1).all()


def test_mel_filter_centers_uniform_in_mel():
    edges_hz = mel_filter_edges(26, SR)
    spacing = np.diff(mel_scale(edges_hz))
    np.testing.assert_allclose(spacing, spacing[0], atol=1e-9)


def test_mel_filterbank_too_dense():
    config = default_config("mfcc", filter_count=512)
    with pytest.raises(FilterbankTooDense):
        mel_filterbank(config, SR)


# --- MFCC -------------------------------------------------------------------

def test_mfcc_shape_contract():
    config = default_config("mfcc")
    sig = tone(440)
    emphasized = pre_emphasize(sig, config.pre_emphasis_a)
    expected_frames = frame_signal(emphasized, config.frame_ms, config.hop_ms).shape[0]
    feats = extract(sig, config)
    assert feats.values.shape == (expected_frames, config.num_ceps)
    assert np.isfinite(feats.values).all()


def test_mfcc_tone_hits_nearest_filter():
    config = default_config("mfcc")
    frames = windowed_frames(tone(1000.0), config)
    energies = mel_energies(frames, config, SR)
    strongest = int(np.argmax(energies.mean(axis=0)))
    centers_hz = mel_filter_edges(config.filter_count, SR)[1:-1]
    assert strongest == int(np.argmin(np.abs(centers_hz - 1000.0)))


def test_mfcc_separates_different_tones():
    config = default_config("mfcc")
    low = extract(tone(300.0), config).values.mean(axis=0)
    high = extract(tone(2000.0), config).values.mean(axis=0)
    assert np.linalg.norm(low - high) > 0


def test_mfcc_deterministic():
    config = default_config("mfcc")
    sig = tone(750)
    np.testing.assert_array_equal(extract(sig, config).values, extract(sig, config).values)


def test_mfcc_c0_toggle_and_idct():
    sig = tone(500)
    with_c0 = extract(sig, default_config("mfcc", include_c0=True))
    without = extract(sig, default_config("mfcc"))
    np.testing.assert_allclose(with_c0.values[:, 1:], without.values[:, :-1])
    literal = extract(sig, default_config("mfcc", dct_kind="idct"))
    assert literal.values.shape == without.values.shape
    assert not np.allclose(literal.values, without.values)


def scipy_dct(x, kind):
    transform = scipy.fft.dct if kind == "dct2" else scipy.fft.idct
    return transform(x, type=2, norm="ortho", axis=1)


@pytest.mark.parametrize("n", [*range(2, 65), 101, 128])
def test_dct_equals_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    # unit normals, wide magnitudes, and values in the range of clamped log energies
    x = np.concatenate([
        rng.standard_normal((300, n)),
        rng.standard_normal((100, n)) * 10.0 ** rng.integers(-6, 7, (100, 1)),
        rng.uniform(np.log(LOG_FLOOR), 5.0, (100, n)),
    ])
    rng.shuffle(x)
    for kind in ("dct2", "idct"):
        batch = _dct(x, kind)
        np.testing.assert_array_equal(batch, scipy_dct(x, kind))
        np.testing.assert_array_equal(_dct(x[:7], kind), scipy_dct(x[:7], kind))
        np.testing.assert_array_equal(_dct(x[:7], kind), batch[:7])
        for i in range(7):
            np.testing.assert_array_equal(_dct(x[i : i + 1], kind), batch[i : i + 1])


@pytest.mark.parametrize("filter_count", [14, 20, 26, 40])
@pytest.mark.parametrize("kind", ["dct2", "idct"])
def test_mfcc_equals_the_scipy_dct_of_tone_log_energies(filter_count, kind):
    config = default_config("mfcc", filter_count=filter_count, dct_kind=kind, include_c0=True)
    sig = AudioSignal(samples=tone(440).samples + 0.3 * tone(2500).samples, sample_rate=SR)
    frames = windowed_frames(sig, config)
    log_energies = np.log(np.maximum(mel_energies(frames, config, SR), LOG_FLOOR))
    expected = scipy_dct(log_energies, kind)
    np.testing.assert_array_equal(_dct(log_energies, kind), expected)
    np.testing.assert_array_equal(extract(sig, config).values, expected[:, : config.num_ceps])


# --- bark scale --------------------------------------------------------------

def test_bark_scale_anchors():
    assert bark_scale(0.0) == 0.0
    assert bark_scale(1200 * np.pi) == pytest.approx(6 * np.log(1 + np.sqrt(2)), abs=1e-9)


@given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.01, max_value=1e4))
def test_bark_scale_strictly_monotone(omega, step):
    assert bark_scale(omega + step) > bark_scale(omega)


def test_bark_tone_hits_nearest_band():
    config = default_config("plp")
    loudness = bark_band_loudness(windowed_frames(tone(600.0), config), config, SR)
    centers = bark_band_centers(config.filter_count, SR)
    strongest = int(np.argmax(loudness.mean(axis=0)))
    target = 6 * np.log(1 + np.sqrt(2))  # bark value of a 600 Hz tone
    assert strongest == int(np.argmin(np.abs(bark_scale(centers) - target)))


def test_bark_band_centers_uniform():
    centers = bark_band_centers(21, SR)
    spacing = np.diff(bark_scale(centers))
    np.testing.assert_allclose(spacing, spacing[0], atol=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        ExtractorConfig(kind="mfcc", pre_emphasis_a=0.5)
    with pytest.raises(ValueError):
        ExtractorConfig(kind="mfcc", lpc_order_q=20)
    with pytest.raises(ValueError):
        ExtractorConfig(kind="mfcc", num_ceps=3)
    with pytest.raises(ValueError):
        ExtractorConfig(kind="mfcc", fft_size=500)
    with pytest.raises(ValueError):
        ExtractorConfig(kind="spectrogram")


# a valid non-default value of each knob
OTHER_VALUES = {"pre_emphasis_a": 0.95, "fft_size": 1024, "filter_count": 30, "lpc_order_q": 10,
                "dct_kind": "idct", "include_c0": True}


@pytest.mark.parametrize("kind, knob", [(kind, knob) for kind, knobs in UNREAD_KNOBS.items() for knob in knobs])
def test_config_rejects_a_knob_its_kind_never_reads(kind, knob):
    value = OTHER_VALUES[knob]
    default = getattr(ExtractorConfig(kind="mfcc"), knob)
    with pytest.raises(ValueError, match=f"^{kind} does not read {knob}; it must keep its default {default!r}, got {value!r}$"):
        ExtractorConfig(kind=kind, **{knob: value})
    assert getattr(ExtractorConfig(kind=kind, **{knob: default}), knob) == default


@pytest.mark.parametrize("kind", EXTRACTOR_KINDS)
def test_config_accepts_every_knob_its_kind_reads(kind):
    # filter_count 30 keeps plp's bands and mfcc's coefficients valid
    for knob in set(OTHER_VALUES) - set(UNREAD_KNOBS[kind]):
        assert getattr(ExtractorConfig(kind=kind, **{knob: OTHER_VALUES[knob]}), knob) == OTHER_VALUES[knob]


def test_mfcc_filter_count_must_cover_num_ceps():
    # the DCT of F log energies has F coefficients, and c0 is dropped unless include_c0
    with pytest.raises(ValueError, match="^filter_count 13 yields 12 coefficients, fewer than num_ceps 13$"):
        default_config("mfcc", filter_count=13)
    sig = tone(440, seconds=0.3)
    assert extract(sig, default_config("mfcc", filter_count=14)).values.shape[1] == 13
    assert extract(sig, default_config("mfcc", filter_count=13, include_c0=True)).values.shape[1] == 13


# --- frame cap ------------------------------------------------------------------

@pytest.fixture(scope="module")
def voiced():
    rng = np.random.default_rng(5)
    t = np.arange(SR) / SR
    x = 0.4 * np.sin(2 * np.pi * 220 * t) + 0.2 * np.sin(2 * np.pi * 1330 * t)
    return AudioSignal(samples=x + 0.05 * rng.standard_normal(t.size), sample_rate=SR)


@pytest.mark.parametrize("kind", EXTRACTOR_KINDS)
def test_frame_cap_equals_selecting_rows_of_full_extraction(voiced, kind):
    config = default_config(kind)
    full = extract(voiced, config).values
    n = full.shape[0]
    for cap in (1, 7, n - 1, n, n + 5, None):
        kept = extract(voiced, config, max_frames=cap).values
        k = n if cap is None else min(cap, n)
        rows = np.round(np.linspace(0, n - 1, k)).astype(int)
        assert kept.shape[0] == k
        np.testing.assert_array_equal(kept, full[rows])


def frame_signal_route(signal, config, cap):
    """The whole-signal route: pre-emphasize (not plp) and frame the whole signal, select rows, taper, run the back-end."""
    source = signal if config.kind == "plp" else pre_emphasize(signal, config.pre_emphasis_a)
    frames = frame_signal(source, config.frame_ms, config.hop_ms)
    if cap is not None and frames.shape[0] > cap:
        frames = frames[np.round(np.linspace(0, frames.shape[0] - 1, cap)).astype(int)]
    back_end = {"mfcc": _mfcc, "lpcc": _lpcc, "plp": _plp}[config.kind]
    return back_end(frames * hamming_window(frames.shape[1]), config, signal.sample_rate)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(EXTRACTOR_KINDS),
    timing=st.sampled_from([(25.0, 10.0), (20.0, 8.0), (10.0, 10.0), (50.0, 15.0)]),
    a=st.sampled_from([0.9, 0.97, 1.0]),
    length=st.integers(800, 6000),
    cap=st.one_of(st.none(), st.integers(1, 80)),
    seed=st.integers(0, 2**32 - 1),
    silent=st.booleans(),
)
@example(kind="mfcc", timing=(25.0, 10.0), a=0.97, length=800, cap=1, seed=0, silent=False)
@example(kind="lpcc", timing=(20.0, 8.0), a=0.9, length=6000, cap=10**6, seed=1, silent=True)
@example(kind="plp", timing=(25.0, 10.0), a=0.97, length=3000, cap=None, seed=2, silent=False)
def test_extract_equals_the_frame_signal_route_bit_for_bit(kind, timing, a, length, cap, seed, silent):
    # linspace selection always keeps row 0, so every case has a kept frame that starts at sample 0
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(length) * 10.0 ** rng.uniform(-4, 0)
    if silent:  # zero stretches give the silent rows that lpcc and plp count as unstable
        x[length // 4 : length // 2] = 0.0
    signal = AudioSignal(samples=x, sample_rate=SR)
    knobs = {"frame_ms": timing[0], "hop_ms": timing[1]}
    if kind != "plp":
        knobs["pre_emphasis_a"] = a
    if kind != "lpcc":
        knobs["fft_size"] = 1024  # holds the 800-sample 50 ms frame
    config = default_config(kind, **knobs)
    got = extract(signal, config, max_frames=cap)
    values, unstable = frame_signal_route(signal, config, cap)
    assert got.values.tobytes() == values.tobytes() and got.values.shape == values.shape
    assert got.unstable_frames == unstable


@pytest.mark.parametrize("kind", EXTRACTOR_KINDS)
def test_capped_extract_allocates_no_signal_sized_array(kind):
    signal = AudioSignal(samples=np.random.default_rng(9).standard_normal(int(3.5 * SR)), sample_rate=SR)
    config = default_config(kind)
    extract(signal, config, max_frames=12)  # builds the cached filterbank and taper
    tracemalloc.start()
    try:
        extract(signal, config, max_frames=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < signal.samples.nbytes


@pytest.mark.parametrize("cap", [0, -3, 1.5])
def test_frame_cap_rejects_non_positive_or_fractional(voiced, cap):
    with pytest.raises(ValueError, match="max_frames must be None or an integer >= 1"):
        extract(voiced, default_config("mfcc"), max_frames=cap)


# --- fft_size ----------------------------------------------------------------------

def test_lpcc_ignores_fft_size(voiced):
    # LPC analysis picks its own FFT length, so a frame longer than the default fft_size is no error
    long_frames = default_config("lpcc", frame_ms=40.0)  # 640 samples at 16 kHz, above the default 512
    assert extract(voiced, long_frames).values.shape == (frame_signal(voiced, 40.0, 10.0).shape[0], 13)


@pytest.mark.parametrize("kind", ["mfcc", "plp"])
def test_fft_shorter_than_frame_raises_for_spectral_extractors(voiced, kind):
    with pytest.raises(FrameExceedsFft, match=r"^fft_size must be >= the frame length in samples \(256 < 400\)$"):
        extract(voiced, default_config(kind, fft_size=256))
