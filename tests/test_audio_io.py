import re
import struct
import wave

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from voxbench.audio_io import (
    AudioSignal,
    check_frame_timing,
    frame_layout,
    frame_signal,
    hamming_window,
    load_wav,
    write_wav,
)
from voxbench.errors import EmptyAudio, NotWav, SignalTooShort, UnreadableAudio, UnsupportedEncoding


def write_pcm16(path, pcm, sample_rate=16000, channels=1):
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(channels)
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        wav.writeframes(np.asarray(pcm, dtype="<i2").tobytes())


def test_load_wav_header_echo(tmp_path):
    path = tmp_path / "tone.wav"
    write_pcm16(path, np.zeros(16000, dtype=np.int16) + 100, sample_rate=16000)
    sig = load_wav(path)
    assert len(sig) == 16000
    assert sig.sample_rate == 16000


def test_load_wav_scaling(tmp_path):
    path = tmp_path / "scale.wav"
    write_pcm16(path, [-32768, 16384, 0, 32767])
    sig = load_wav(path)
    assert sig.samples[0] == -1.0
    assert sig.samples[1] == 0.5
    assert sig.samples[2] == 0.0
    assert sig.samples[3] == pytest.approx(32767 / 32768)


def test_load_wav_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    write_pcm16(path, np.zeros(200, dtype=np.int16), channels=2)
    with pytest.raises(UnsupportedEncoding):
        load_wav(path)


def test_load_wav_rejects_bad_magic(tmp_path):
    path = tmp_path / "not_audio.wav"
    path.write_bytes(b"OggS" + b"\x00" * 64)
    with pytest.raises(NotWav):
        load_wav(path)


def test_load_wav_rejects_empty_data(tmp_path):
    path = tmp_path / "empty.wav"
    write_pcm16(path, np.zeros(0, dtype=np.int16))
    with pytest.raises(EmptyAudio):
        load_wav(path)


def test_load_wav_rejects_8bit(tmp_path):
    path = tmp_path / "eight.wav"
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(1)
        wav.setframerate(16000)
        wav.writeframes(bytes(100))
    with pytest.raises(UnsupportedEncoding):
        load_wav(path)


def test_load_wav_skips_extra_chunks(tmp_path):
    # hand-built RIFF with a LIST chunk between fmt and data
    pcm = np.arange(-5, 5, dtype="<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    listc = b"LIST" + struct.pack("<I", 4) + b"INFO"
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + listc
    body += b"data" + struct.pack("<I", len(pcm)) + pcm
    path = tmp_path / "chunky.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    sig = load_wav(path)
    assert np.array_equal(sig.samples * 32768, np.arange(-5, 5))


def truncated_fmt_wav(directory):
    path = directory / "truncated.wav"
    fmt_head = struct.pack("<HH", 1, 1)  # 4 of the 16 bytes the fmt chunk declares
    path.write_bytes(b"RIFF" + struct.pack("<I", 24) + b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt_head)
    return path


def odd_length_wav(directory):
    path = directory / "odd.wav"
    write_pcm16(path, np.arange(100))
    path.write_bytes(path.read_bytes()[:-1])  # cut inside the last sample
    return path


@pytest.mark.parametrize(
    "make_path",
    [lambda d: d / "missing.wav", lambda d: d, truncated_fmt_wav, odd_length_wav],
    ids=["missing", "directory", "truncated-fmt", "odd-length-data"],
)
def test_load_wav_unreadable_names_the_file(tmp_path, make_path):
    path = make_path(tmp_path)
    with pytest.raises(UnreadableAudio, match=re.escape(str(path))):
        load_wav(path)


@pytest.mark.parametrize("rate", [0, 1, 4000, 7999])
def test_load_wav_rejects_low_sample_rate_naming_the_file(tmp_path, rate):
    path = tmp_path / "slow.wav"
    write_pcm16(path, np.arange(100))
    raw = bytearray(path.read_bytes())
    raw[24:28] = struct.pack("<I", rate)  # the fmt chunk's sample-rate field
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedEncoding, match=rf"{re.escape(str(path))}: sample rate {rate} Hz"):
        load_wav(path)


def test_write_then_load_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    pcm = rng.integers(-32768, 32768, size=4000, dtype=np.int64)
    original = AudioSignal(samples=pcm / 32768.0, sample_rate=16000)
    path = tmp_path / "roundtrip.wav"
    write_wav(path, original)
    loaded = load_wav(path)
    assert loaded.sample_rate == 16000
    np.testing.assert_allclose(loaded.samples, original.samples, atol=1 / 65536)


def test_audio_signal_invariants():
    with pytest.raises(ValueError):
        AudioSignal(samples=np.array([]), sample_rate=16000)
    with pytest.raises(ValueError):
        AudioSignal(samples=np.array([0.0, np.nan]), sample_rate=16000)
    with pytest.raises(ValueError):
        AudioSignal(samples=np.zeros(10), sample_rate=4000)


def test_frame_count_formula():
    sig = AudioSignal(samples=np.arange(16000) / 16384.0, sample_rate=16000)
    frames = frame_signal(sig, frame_ms=25.0, hop_ms=10.0)
    # floor((16000 - 400) / 160) + 1
    assert frames.shape == (98, 400)
    assert frame_layout(sig, 25.0, 10.0) == (400, 160, 98)


def test_frame_rows_are_hops_apart():
    sig = AudioSignal(samples=np.arange(1600) / 1600.0, sample_rate=16000)
    frames = frame_signal(sig, frame_ms=20.0, hop_ms=10.0)
    _, hop, _ = frame_layout(sig, 20.0, 10.0)
    for i in range(frames.shape[0]):
        start = i * hop
        np.testing.assert_array_equal(frames[i], sig.samples[start : start + 320])


def test_frame_exact_length_signal():
    sig = AudioSignal(samples=np.arange(320) / 320.0, sample_rate=16000)
    frames = frame_signal(sig, frame_ms=20.0, hop_ms=10.0)
    assert frames.shape[0] == 1
    np.testing.assert_array_equal(frames[0], sig.samples)


def test_frame_too_short_signal():
    sig = AudioSignal(samples=np.ones(300) / 2, sample_rate=16000)
    with pytest.raises(SignalTooShort):
        frame_signal(sig, frame_ms=25.0, hop_ms=10.0)


def test_frame_overlap_ceiling():
    sig = AudioSignal(samples=np.ones(16000) / 2, sample_rate=16000)
    with pytest.raises(ValueError):
        frame_signal(sig, frame_ms=50.0, hop_ms=5.0)  # 90% overlap


@pytest.mark.parametrize("sample_rate", [8000, 11025, 16000, 48000])
@given(frame_ms=st.floats(10.0, 50.0), hop_ms=st.floats(2.0, 50.0))
@example(frame_ms=10.07, hop_ms=2.0141)  # at 8 kHz, 81-sample frames 16 samples apart: above 80% overlap in samples
def test_frame_signal_accepts_every_timing_the_timing_check_accepts(sample_rate, frame_ms, hop_ms):
    try:
        check_frame_timing(frame_ms, hop_ms)
    except ValueError:
        assume(False)
    sig = AudioSignal(samples=np.random.default_rng(0).normal(size=sample_rate // 2), sample_rate=sample_rate)
    frame_length, hop, count = frame_layout(sig, frame_ms, hop_ms)
    frames = frame_signal(sig, frame_ms, hop_ms)
    assert frames.shape == (count, frame_length)
    np.testing.assert_array_equal(frames[-1], sig.samples[(count - 1) * hop : (count - 1) * hop + frame_length])


def test_zero_overlap_reconstruction():
    rng = np.random.default_rng(3)
    sig = AudioSignal(samples=rng.uniform(-1, 1, 16000), sample_rate=16000)
    rebuilt = frame_signal(sig, frame_ms=20.0, hop_ms=20.0).reshape(-1)
    np.testing.assert_array_equal(rebuilt, sig.samples[: rebuilt.size])


def test_hamming_endpoints_and_peak():
    w = hamming_window(101)
    assert w[0] == pytest.approx(0.08, abs=1e-12)
    assert w[50] == pytest.approx(1.0, abs=1e-12)  # odd N: cos(pi) = -1 at the middle


def test_hamming_hand_value():
    w = hamming_window(4)
    assert w[1] == pytest.approx(0.54 - 0.46 * np.cos(2 * np.pi / 3), abs=1e-12)
    assert w[1] == pytest.approx(0.77, abs=1e-12)


@given(st.integers(min_value=2, max_value=2000))
def test_hamming_symmetry_and_bounds(n):
    w = hamming_window(n)
    np.testing.assert_allclose(w, w[::-1], atol=1e-12)
    assert np.all(w >= 0.08 - 1e-12)
    assert np.all(w <= 1.0 + 1e-12)
