import warnings

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from voxbench.audio_io import AudioSignal, frame_signal, hamming_window
from voxbench.errors import UnstableRecursion
from voxbench.features import (
    bark_band_loudness,
    default_config,
    extract,
    levinson_durbin,
    levinson_durbin_rows,
    lpc_analysis,
    lpc_to_cepstrum,
    pre_emphasize,
    windowed_frames,
)

SR = 16000


def random_psd_autocorr(rng, order, n_psd=64):
    """Autocorrelation of a random positive spectrum (guaranteed SPD Toeplitz)."""
    psd = rng.uniform(0.1, 2.0, n_psd)
    full = np.concatenate([psd, psd[-2:0:-1]])
    r = np.fft.ifft(full).real
    return r[: order + 1]


def test_levinson_order_one():
    a, err = levinson_durbin([1.0, 0.5])
    np.testing.assert_allclose(a, [0.5])
    assert err == pytest.approx(0.75)


def test_levinson_ar1_consistent_lags():
    a, err = levinson_durbin([1.0, 0.5, 0.25])
    np.testing.assert_allclose(a, [0.5, 0.0], atol=1e-12)
    assert err == pytest.approx(0.75)


def test_levinson_matches_dense_solve():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = random_psd_autocorr(rng, order=10)
        a, err = levinson_durbin(r)
        direct = np.linalg.solve(toeplitz(r[:-1]), r[1:])
        np.testing.assert_allclose(a, direct, atol=1e-8)
        residual = toeplitz(r[:-1]) @ a - r[1:]
        assert np.abs(residual).max() <= 1e-8 * np.abs(r[1:]).max()
        assert err > 0


def test_levinson_rejects_unstable():
    # lag-1 correlation above lag 0 forces |k| >= 1
    with pytest.raises(UnstableRecursion):
        levinson_durbin([1.0, 1.1])


def test_levinson_rows_match_per_row_oracle():
    rng = np.random.default_rng(12)
    order = 10
    rows = np.array([random_psd_autocorr(rng, order) for _ in range(15)])
    bad = [3, 7, 8]
    rows[3] = 0.0  # silent
    rows[7] = np.r_[1.0, 1.1, np.zeros(order - 1)]  # |k| >= 1 at order 1
    rows[8] = np.r_[1.0, 0.9, 0.1, np.zeros(order - 2)]  # |k| >= 1 at order 2

    coeffs, errors, unstable = levinson_durbin_rows(rows)
    assert unstable == len(bad)
    for i, r in enumerate(rows):
        if i in bad:
            np.testing.assert_array_equal(coeffs[i], np.zeros(order))
            assert errors[i] == 0.0
            if r[0] > 0:
                with pytest.raises(UnstableRecursion):
                    levinson_durbin(r)
            continue
        a, err = levinson_durbin(r)
        np.testing.assert_allclose(coeffs[i], a, rtol=1e-12, atol=1e-14)
        assert errors[i] == pytest.approx(err, rel=1e-12)

    ceps = lpc_to_cepstrum(coeffs, 13)
    for i in range(len(rows)):
        alone_coeffs, alone_errors, alone_unstable = levinson_durbin_rows(rows[i : i + 1])
        np.testing.assert_array_equal(alone_coeffs[0], coeffs[i])
        np.testing.assert_array_equal(alone_errors[0], errors[i])
        assert alone_unstable == (i in bad)
        np.testing.assert_array_equal(lpc_to_cepstrum(coeffs[i], 13), ceps[i])


def test_cepstrum_hand_values():
    c = lpc_to_cepstrum([0.5], num_ceps=12)
    assert c[0] == pytest.approx(0.5)
    assert c[1] == pytest.approx(0.125)


def test_cepstrum_zero_model():
    np.testing.assert_array_equal(lpc_to_cepstrum(np.zeros(8), 12), np.zeros(12))


def test_cepstrum_matches_log_spectrum_oracle():
    # all-pole H = 1/(1 - a z^-1): cepstrum equals the inverse FFT of log|H|
    a = 0.7
    grid = 8192
    omega = 2 * np.pi * np.arange(grid) / grid
    h = 1.0 / (1.0 - a * np.exp(-1j * omega))
    oracle = 2.0 * np.fft.ifft(np.log(np.abs(h))).real[1:6]
    c = lpc_to_cepstrum([a], num_ceps=12)
    np.testing.assert_allclose(c[:5], oracle, atol=1e-6)


def ar2_signal(rng, n, poles_radius=0.9, poles_angle=0.3 * np.pi):
    a1 = 2 * poles_radius * np.cos(poles_angle)
    a2 = -(poles_radius**2)
    x = lfilter([1.0], [1.0, -a1, -a2], rng.normal(0.0, 0.1, n))
    return np.array([a1, a2]), x


def test_lpc_recovers_ar2_coefficients():
    rng = np.random.default_rng(21)
    truth, x = ar2_signal(rng, 4 * SR)
    sig = AudioSignal(samples=x, sample_rate=SR)
    frames = frame_signal(sig, 25.0, 10.0) * hamming_window(400)
    coeffs, errors, unstable = lpc_analysis(frames, order=2)
    assert unstable == 0
    recovered = coeffs.mean(axis=0)
    np.testing.assert_allclose(recovered, truth, rtol=0.05)


def test_white_noise_is_unpredictable():
    rng = np.random.default_rng(22)
    sig = AudioSignal(samples=rng.normal(0.0, 0.1, 2 * SR), sample_rate=SR)
    frames = frame_signal(sig, 25.0, 10.0) * hamming_window(400)
    _, errors, _ = lpc_analysis(frames, order=12)
    r0 = (frames**2).mean(axis=1)  # biased lag-0 autocorrelation
    assert (errors <= r0 + 1e-15).all()  # each reflection step can only shrink the error
    assert errors.mean() == pytest.approx(r0.mean(), rel=0.10)
    assert np.median(errors / r0) > 0.9


def test_lpcc_shape_and_determinism():
    rng = np.random.default_rng(23)
    _, x = ar2_signal(rng, SR)
    sig = AudioSignal(samples=x, sample_rate=SR)
    config = default_config("lpcc")
    emphasized = pre_emphasize(sig, config.pre_emphasis_a)
    expected = frame_signal(emphasized, config.frame_ms, config.hop_ms).shape[0]
    feats = extract(sig, config)
    assert feats.values.shape == (expected, config.num_ceps)
    assert feats.unstable_frames == 0
    np.testing.assert_array_equal(feats.values, extract(sig, config).values)


def test_plp_shape_contract():
    rng = np.random.default_rng(24)
    _, x = ar2_signal(rng, SR)
    sig = AudioSignal(samples=x, sample_rate=SR)
    config = default_config("plp")
    expected = frame_signal(sig, config.frame_ms, config.hop_ms).shape[0]
    feats = extract(sig, config)
    assert feats.values.shape == (expected, config.num_ceps)
    assert np.isfinite(feats.values).all()


def test_plp_amplitude_invariant_cepstra():
    rng = np.random.default_rng(25)
    _, x = ar2_signal(rng, SR)
    config = default_config("plp")
    base = extract(AudioSignal(samples=x, sample_rate=SR), config)
    doubled = extract(AudioSignal(samples=2 * x, sample_rate=SR), config)
    np.testing.assert_allclose(doubled.values, base.values, atol=1e-9)


def test_plp_loudness_scales_by_cuberoot_of_power():
    rng = np.random.default_rng(26)
    _, x = ar2_signal(rng, SR)
    config = default_config("plp")
    base = bark_band_loudness(windowed_frames(AudioSignal(samples=x, sample_rate=SR), config), config, SR)
    doubled = bark_band_loudness(windowed_frames(AudioSignal(samples=2 * x, sample_rate=SR), config), config, SR)
    np.testing.assert_allclose(doubled, base * 4 ** (1 / 3), rtol=1e-9)


@pytest.mark.parametrize("kind", ["lpcc", "plp"])
def test_silent_stretch_gives_counted_zero_rows_without_warnings(kind):
    rng = np.random.default_rng(27)
    _, x = ar2_signal(rng, SR)
    x[4000:12000] = 0.0
    sig = AudioSignal(samples=x, sample_rate=SR)
    config = default_config(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        feats = extract(sig, config)
    framed = pre_emphasize(sig, config.pre_emphasis_a) if kind == "lpcc" else sig
    silent = ~frame_signal(framed, config.frame_ms, config.hop_ms).any(axis=1)
    assert silent.sum() >= 40
    assert feats.unstable_frames == silent.sum()
    assert not feats.values[silent].any()
