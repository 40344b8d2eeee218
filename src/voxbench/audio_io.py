"""WAV input/output and the framing/windowing primitives shared by all extractors."""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyAudio, NotWav, SignalTooShort, UnreadableAudio, UnsupportedEncoding

PCM_SCALE = 32768.0  # int16 full scale
MIN_SAMPLE_RATE = 8000  # speech-band floor


@dataclass(frozen=True)
class AudioSignal:
    """Mono sample sequence plus its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if int(self.sample_rate) < MIN_SAMPLE_RATE:
            raise ValueError(f"sample_rate must be >= {MIN_SAMPLE_RATE} Hz")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size


def load_wav(path) -> AudioSignal:
    """Read a mono 16-bit PCM RIFF/WAVE file into a normalized AudioSignal.

    Chunks other than fmt/data are skipped. Multi-channel or non-PCM16
    content is rejected rather than converted.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            header = fh.read(12)
            if len(header) < 12 or header[:4] != b"RIFF" or header[8:12] != b"WAVE":
                raise NotWav(f"{path}: not a RIFF/WAVE file")
            fh.seek(0)
            with wave.open(fh, "rb") as wav:
                n_channels = wav.getnchannels()
                sample_width = wav.getsampwidth()
                comp_type = wav.getcomptype()
                sample_rate = wav.getframerate()
                n_frames = wav.getnframes()
                if n_channels != 1:
                    raise UnsupportedEncoding(f"{path}: expected mono, got {n_channels} channels")
                if sample_width != 2 or comp_type != "NONE":
                    raise UnsupportedEncoding(f"{path}: expected 16-bit PCM")
                if sample_rate < MIN_SAMPLE_RATE:
                    raise UnsupportedEncoding(f"{path}: sample rate {sample_rate} Hz is below {MIN_SAMPLE_RATE} Hz")
                if n_frames == 0:
                    raise EmptyAudio(f"{path}: zero data samples")
                raw = wav.readframes(n_frames)
    except wave.Error as exc:
        raise UnsupportedEncoding(f"{path}: {exc}") from exc
    except EOFError as exc:
        raise UnreadableAudio(f"{path}: file ends inside a chunk header") from exc
    except OSError as exc:
        raise UnreadableAudio(f"{path}: {exc.strerror or exc}") from exc

    if len(raw) % 2:
        raise UnreadableAudio(f"{path}: data ends inside a 16-bit sample ({len(raw)} bytes)")
    pcm = np.frombuffer(raw, dtype="<i2")
    if pcm.size == 0:
        raise EmptyAudio(f"{path}: zero data samples")
    samples = pcm.astype(np.float64)
    samples /= PCM_SCALE
    return AudioSignal(samples=samples, sample_rate=sample_rate)


def write_wav(path, signal: AudioSignal) -> None:
    """Write an AudioSignal as a mono 16-bit PCM WAV file."""
    pcm = np.clip(np.round(signal.samples * PCM_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(signal.sample_rate)
        wav.writeframes(pcm.tobytes())


def check_frame_timing(frame_ms: float, hop_ms: float) -> None:
    """Raise ValueError unless frame_ms lies in [10, 50] and hop_ms in (0, frame_ms], overlapping at most 80%."""
    if not 10.0 <= frame_ms <= 50.0:
        raise ValueError("frame_ms must lie in [10, 50]")
    if not 0 < hop_ms <= frame_ms:
        raise ValueError("hop_ms must satisfy 0 < hop_ms <= frame_ms")
    if hop_ms * 5 < frame_ms:  # overlap = 1 - hop/frame above 0.8
        raise ValueError("frame overlap above 80% is not supported")


def frame_layout(signal: AudioSignal, frame_ms: float, hop_ms: float) -> tuple[int, int, int]:
    """Frame length, hop and frame count in samples; trailing partial frames are dropped."""
    check_frame_timing(frame_ms, hop_ms)
    frame_length = int(round(frame_ms * signal.sample_rate / 1000.0))
    hop = int(round(hop_ms * signal.sample_rate / 1000.0))
    if len(signal) < frame_length:
        raise SignalTooShort(
            f"signal of {len(signal)} samples is shorter than one {frame_length}-sample frame"
        )
    return frame_length, hop, (len(signal) - frame_length) // hop + 1


def frame_signal(signal: AudioSignal, frame_ms: float, hop_ms: float) -> np.ndarray:
    """The (count x length) frames of frame_layout, hop samples apart; trailing partial frames are dropped."""
    frame_length, hop, _ = frame_layout(signal, frame_ms, hop_ms)
    windows = np.lib.stride_tricks.sliding_window_view(signal.samples, frame_length)
    return windows[::hop].copy()


def hamming_window(frame_length: int) -> np.ndarray:
    """Raised-cosine taper w(n) = 0.54 - 0.46*cos(2*pi*n/(N-1))."""
    if frame_length < 2:
        raise ValueError("frame_length must be >= 2")
    n = np.arange(frame_length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (frame_length - 1))
