"""Silence removal and endpoint detection.

The leading 200 ms of a recording is assumed to hold no speech; its amplitude
mean/spread give a Gaussian silence model, and blocks whose samples stray far
from it (in standardized distance) are kept as voiced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioSignal
from .errors import DegenerateSilence, NoVoicedContent, TooShort

SILENCE_HEAD_MS = 200.0
DEFAULT_U_THRESHOLD = 3.0
DEFAULT_BLOCK_MS = 10.0
DEFAULT_MIN_SEGMENT_MS = 50.0
# a block is voiced when more than this share of its samples are outliers
VOICED_FRACTION = 0.2
# above this share of voiced blocks, the leading 200 ms was likely speech
CONTAMINATION_WARN_FRACTION = 0.6


@dataclass(frozen=True)
class SilenceModel:
    """Amplitude statistics of the leading 200 ms plus the outlier threshold and block length."""

    mu: float
    sigma: float
    u_threshold: float = DEFAULT_U_THRESHOLD
    frame_ms: float = DEFAULT_BLOCK_MS

    def __post_init__(self):
        if self.sigma <= 0:
            raise DegenerateSilence("sigma must be positive")
        for name in ("u_threshold", "frame_ms"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.u_threshold <= 0:
            raise ValueError("u_threshold must be positive")


@dataclass(frozen=True)
class VoicedSegments:
    """Disjoint sorted (start, end) sample intervals, their concatenation, and the share of blocks voiced
    before endpoints_only widened the run: above CONTAMINATION_WARN_FRACTION the leading 200 ms was likely speech."""

    segments: list[tuple[int, int]]
    trimmed: AudioSignal
    voiced_share: float


def fit_silence_model(
    signal: AudioSignal,
    u_threshold: float = DEFAULT_U_THRESHOLD,
    frame_ms: float = DEFAULT_BLOCK_MS,
) -> SilenceModel:
    """Estimate mu/sigma from exactly the first 200 ms of the signal."""
    head_len = int(round(SILENCE_HEAD_MS * signal.sample_rate / 1000.0))
    if len(signal) < head_len:
        raise TooShort(f"need at least {head_len} samples ({SILENCE_HEAD_MS} ms) to model silence")
    head = signal.samples[:head_len]
    mu = float(np.mean(head))
    sigma = float(np.std(head))
    if sigma == 0.0:
        raise DegenerateSilence("leading 200 ms is constant; cannot model silence")
    return SilenceModel(mu=mu, sigma=sigma, u_threshold=u_threshold, frame_ms=frame_ms)


def standardize(x, model: SilenceModel):
    """Distance from the silence mean in units of its standard deviation."""
    return (x - model.mu) / model.sigma


def remove_silence(
    signal: AudioSignal,
    model: SilenceModel,
    min_segment_ms: float = DEFAULT_MIN_SEGMENT_MS,
    endpoints_only: bool = False,
) -> VoicedSegments:
    """Drop blocks whose samples stay close to the silence model.

    The signal is cut into consecutive blocks of model.frame_ms; a block is
    voiced when more than VOICED_FRACTION of its samples satisfy
    |u| > model.u_threshold. Adjacent voiced blocks merge into segments and
    segments shorter than min_segment_ms are discarded. With endpoints_only,
    every block between the first and last voiced one is kept. The result
    carries the share of blocks that passed the voicing test.
    """
    if not math.isfinite(min_segment_ms):
        raise ValueError(f"min_segment_ms must be finite, got {min_segment_ms!r}")
    if min_segment_ms < 0:
        raise ValueError(f"min_segment_ms must be >= 0, got {min_segment_ms!r}")
    # sample counts round as floats: a finite length past the float range in samples is inf, not an OverflowError
    block = np.rint(model.frame_ms * signal.sample_rate / 1000.0)
    if block <= 0:
        raise ValueError("frame_ms too small for this sample rate")
    if block > len(signal):
        raise NoVoicedContent("signal shorter than one analysis block")
    block = int(block)
    n_blocks = len(signal) // block

    # |u| = |standardize(x)|, computed in one buffer
    u = signal.samples[: n_blocks * block] - model.mu
    u /= model.sigma
    np.abs(u, out=u)
    outlier_fraction = (u.reshape(n_blocks, block) > model.u_threshold).mean(axis=1)
    voiced = outlier_fraction > VOICED_FRACTION
    if not voiced.any():
        raise NoVoicedContent("no block passed the voicing test")
    voiced_share = float(voiced.mean())

    if endpoints_only:
        first = int(np.argmax(voiced))
        last = n_blocks - 1 - int(np.argmax(voiced[::-1]))
        voiced[first : last + 1] = True

    min_segment = np.rint(min_segment_ms * signal.sample_rate / 1000.0)
    # run edges: a voiced run starts at each even edge and ends at the next
    edges = (np.flatnonzero(np.diff(np.concatenate(([False], voiced, [False])))) * block).tolist()
    segments = [(s, e) for s, e in zip(edges[::2], edges[1::2]) if e - s >= min_segment]
    if not segments:
        raise NoVoicedContent("all voiced segments were shorter than the minimum length")

    trimmed = np.concatenate([signal.samples[s:e] for s, e in segments])
    return VoicedSegments(
        segments=segments,
        trimmed=AudioSignal(samples=trimmed, sample_rate=signal.sample_rate),
        voiced_share=voiced_share,
    )
